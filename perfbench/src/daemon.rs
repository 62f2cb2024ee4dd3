//! The `daemon-tcp` workload: an in-process `bistd` with one worker on
//! 127.0.0.1 TCP, driven by two closed-loop client connections.
//!
//! A round starts a daemon and connects both clients (set-up), then
//! runs two phases over a fixed pool of LP-MINI campaigns, each in seed
//! order and split between the clients: every pool member cold (cache
//! misses that fill the cache), then a mix of exact resubmits (hits)
//! and hint-only resubmits (the same campaign under another stage
//! schedule, which today's cache key treats as a different campaign).
//! Every artifact is checked against the reference. Rounds repeat while
//! the budget lasts; `wall_s` and `cpu_s` are per-round medians. Extra
//! set-ups (start, connect, stop) run before every round, so the
//! set-up median draws on samples from the whole run.
//!
//! The traced round times bare `metrics` requests (`bistd.rtt_ms`) and
//! reads the daemon's own metrics after its phases, outside the round's
//! wall clock, so the tracing overhead is the spans' alone.

use crate::measure::{self, costed, Budget, Rng, Spans};
use crate::reference::{Reference, Verdict};
use crate::{Outcome, LAYER_METRICS};
use bist_core::campaign::CampaignSpec;
use bist_core::session::ResponseCheck;
use bistd::{Client, Daemon, DaemonConfig, ServerAddr};
use obs::JsonValue;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Test length of the pool's campaigns.
const POOL_VECTORS: usize = 256;
/// Extra set-ups (start, connect, stop) before each round, so the
/// reported set-up time is a median over enough samples.
const SETUPS_PER_ROUND: usize = 12;
/// Bare `metrics` round trips per client in the traced round.
const RTT_PROBES: usize = 8;
/// Exact resubmits of each pool member per round.
const HITS_PER_MEMBER: usize = 2;
/// The stage schedule of a hint-only resubmit (verdicts do not depend
/// on it).
const HINT_BOUNDARIES: [u32; 2] = [32, 128];

/// The fixed campaign pool: LP-MINI under every Table 4 generator, in
/// both response-check modes, at one fault-simulation thread.
pub fn pool() -> Vec<CampaignSpec> {
    let mut out = Vec::new();
    for mode in [ResponseCheck::Trace, ResponseCheck::Signature] {
        for generator in ["LFSR-1", "LFSR-D", "LFSR-M", "Ramp"] {
            let mut spec = CampaignSpec::new("LP-MINI", generator, POOL_VECTORS).with_mode(mode);
            spec.threads = 1;
            out.push(spec);
        }
    }
    out
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Cold,
    Exact,
    Hint,
}

/// Named figures read from an artifact (stage milliseconds, counters).
type Named = Vec<(String, f64)>;

/// One submit-to-artifact round trip.
struct Op {
    kind: Kind,
    cached: bool,
    ok: bool,
    submit_ms: f64,
    fetch_ms: f64,
    /// Session stage timings of a freshly computed artifact.
    stages: Named,
    counters: Named,
}

impl Op {
    fn total_ms(&self) -> f64 {
        self.submit_ms + self.fetch_ms
    }
}

/// Runs one client's share of a phase.
fn drive(
    client: &mut Client,
    work: &[(CampaignSpec, Kind)],
    reference: &Reference,
    spans: &mut Spans,
    notes: &mut Vec<String>,
) -> Vec<Op> {
    let mut ops = Vec::with_capacity(work.len());
    for (spec, kind) in work {
        let t0 = Instant::now();
        let submitted = spans.time("bistd.submit", || client.submit(spec, None));
        let submit_ms = t0.elapsed().as_secs_f64() * 1000.0;
        let mut op = Op {
            kind: *kind,
            cached: false,
            ok: false,
            submit_ms,
            fetch_ms: 0.0,
            stages: Vec::new(),
            counters: Vec::new(),
        };
        let submission = match submitted {
            Ok(s) => s,
            Err(e) => {
                notes.push(format!("FAILED submit {}: {e}", spec.canonical()));
                ops.push(op);
                continue;
            }
        };
        let t1 = Instant::now();
        let fetched = spans.time("bistd.fetch", || client.fetch_artifact(submission.job));
        op.fetch_ms = t1.elapsed().as_secs_f64() * 1000.0;
        op.cached = submission.cached;
        match fetched {
            Ok((_, artifact)) => {
                let check = spans.time("bench.verdict_check", || {
                    Verdict::of_artifact(&artifact).and_then(|v| reference.check(spec, &v))
                });
                match check {
                    Ok(()) => op.ok = true,
                    Err(e) => notes.push(format!("FAILED {e}")),
                }
                if !op.cached {
                    (op.stages, op.counters) = artifact_timings(&artifact);
                }
            }
            Err(e) => notes.push(format!("FAILED fetch {}: {e}", spec.canonical())),
        }
        if *kind == Kind::Cold && op.cached {
            op.ok = false;
            notes.push(format!("FAILED cold submit was served from cache: {}", spec.canonical()));
        }
        if *kind == Kind::Exact && !op.cached {
            op.ok = false;
            notes.push(format!("FAILED exact resubmit missed the cache: {}", spec.canonical()));
        }
        ops.push(op);
    }
    ops
}

/// Stage timings and counters of a run artifact.
fn artifact_timings(artifact: &JsonValue) -> (Named, Named) {
    let stages = artifact
        .get("stages")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|s| Some((s.get("name")?.as_str()?.to_string(), s.get("ms")?.as_f64()?)))
        .collect();
    let counters = artifact
        .get("counters")
        .and_then(JsonValue::as_object)
        .unwrap_or(&[])
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
        .collect();
    (stages, counters)
}

/// Splits `work` between two clients, runs both concurrently and
/// returns all their operations.
fn phase(
    clients: &mut [Client; 2],
    work: &[(CampaignSpec, Kind)],
    reference: &Reference,
    spans: &mut Spans,
    notes: &mut Vec<String>,
) -> Vec<Op> {
    let shares: [Vec<(CampaignSpec, Kind)>; 2] = [
        work.iter().step_by(2).cloned().collect(),
        work.iter().skip(1).step_by(2).cloned().collect(),
    ];
    let [a, b] = clients;
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = [(a, &shares[0]), (b, &shares[1])]
            .into_iter()
            .map(|(client, share)| {
                scope.spawn(move || {
                    let (mut spans, mut notes) = (Spans::default(), Vec::new());
                    let ops = drive(client, share, reference, &mut spans, &mut notes);
                    (ops, spans, notes)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect::<Vec<_>>()
    });
    let mut ops = Vec::new();
    for (o, s, n) in results {
        ops.extend(o);
        spans.0.extend(s.0);
        notes.extend(n);
    }
    ops
}

/// What one round measured.
struct Round {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    ops: Vec<Op>,
    /// The daemon's own metrics snapshot (traced rounds only).
    daemon_metrics: Option<JsonValue>,
    spans: Spans,
    /// Bare `metrics` round trips in milliseconds (traced rounds only).
    rtt_ms: Vec<f64>,
}

/// Starts a daemon and connects both clients; returns them with the
/// set-up time.
fn start(spans: &mut Spans) -> Result<(Daemon, [Client; 2], f64), String> {
    let t0 = Instant::now();
    let config =
        DaemonConfig { tcp: Some("127.0.0.1:0".into()), workers: 1, ..DaemonConfig::default() };
    let daemon = spans
        .time("bistd.daemon_start", || Daemon::start(config))
        .map_err(|e| format!("daemon start: {e}"))?;
    let addr = ServerAddr::Tcp(daemon.tcp_addr().ok_or("daemon has no TCP address")?.to_string());
    let connect = |spans: &mut Spans| {
        spans.time("bistd.connect", || Client::connect(&addr)).map_err(|e| format!("connect: {e}"))
    };
    // Connected, not yet served: the first request on a connection waits
    // for the accept loop's 10 ms poll or not, depending on which thread
    // wins a race, so it is left to the round, where it is one of many.
    let clients = [connect(spans)?, connect(spans)?];
    Ok((daemon, clients, t0.elapsed().as_secs_f64()))
}

/// Sets up and tears down `SETUPS_PER_ROUND` times, recording each
/// set-up time.
fn extra_setups(setups: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..SETUPS_PER_ROUND {
        let (daemon, clients, setup_s) = start(&mut Spans::default())?;
        setups.push(setup_s);
        stop(daemon, clients)?;
    }
    Ok(())
}

/// Disconnects the clients and drains the daemon.
fn stop(daemon: Daemon, clients: [Client; 2]) -> Result<(), String> {
    drop(clients);
    daemon.begin_shutdown();
    daemon.join().map_err(|e| format!("daemon shutdown: {e}"))
}

fn round(
    rng: &mut Rng,
    reference: &Reference,
    traced: bool,
    notes: &mut Vec<String>,
) -> Result<Round, String> {
    let mut spans = Spans::default();
    let (daemon, mut clients, setup_s) = start(&mut spans)?;

    let mut cold: Vec<(CampaignSpec, Kind)> = pool().into_iter().map(|s| (s, Kind::Cold)).collect();
    rng.shuffle(&mut cold);
    let mut warm: Vec<(CampaignSpec, Kind)> = Vec::new();
    for spec in pool() {
        warm.extend(std::iter::repeat_n((spec.clone(), Kind::Exact), HITS_PER_MEMBER));
        let mut hinted = spec;
        hinted.boundaries = Some(HINT_BOUNDARIES.to_vec());
        warm.push((hinted, Kind::Hint));
    }
    rng.shuffle(&mut warm);

    let (ops, cost) = costed(|| {
        let mut ops = phase(&mut clients, &cold, reference, &mut spans, notes);
        ops.extend(phase(&mut clients, &warm, reference, &mut spans, notes));
        ops
    });
    let mut rtt_ms = Vec::new();
    let mut daemon_metrics = None;
    if traced {
        for client in &mut clients {
            for _ in 0..RTT_PROBES {
                let (reply, rtt) = costed(|| client.metrics());
                reply.map_err(|e| format!("metrics request: {e}"))?;
                rtt_ms.push(rtt.wall * 1000.0);
            }
        }
        let snapshot = clients[0].metrics().map_err(|e| format!("daemon metrics request: {e}"))?;
        daemon_metrics = Some(snapshot);
    }
    stop(daemon, clients)?;
    Ok(Round { setup_s, wall_s: cost.wall, cpu_s: cost.cpu, ops, daemon_metrics, spans, rtt_ms })
}

/// Runs the workload.
pub fn run(
    reference: &Reference,
    seed: u64,
    budget: &Budget,
    trace: bool,
) -> Result<Outcome, String> {
    let mut rng = Rng::new(seed);
    let mut notes = Vec::new();
    let mut setups = Vec::new();
    let traced = if trace { Some(round(&mut rng, reference, true, &mut notes)?) } else { None };
    let mut rounds: Vec<Round> = Vec::new();
    let mut peak_rss_mb = 0.0;
    loop {
        let next = rounds
            .last()
            .or(traced.as_ref())
            .map_or(Duration::ZERO, |r| Duration::from_secs_f64(r.setup_s + r.wall_s));
        if !rounds.is_empty() && !budget.fits(next) {
            break;
        }
        extra_setups(&mut setups)?;
        rounds.push(round(&mut rng, reference, false, &mut notes)?);
        // Peak memory covers the same work however many rounds fit.
        if rounds.len() == 1 {
            peak_rss_mb = measure::peak_rss_mb();
        }
    }
    setups.extend(rounds.iter().map(|r| r.setup_s));

    let all_ops = || rounds.iter().chain(traced.iter()).flat_map(|r| r.ops.iter());
    let attempted = all_ops().count() as u64;
    let failed = all_ops().filter(|o| !o.ok).count() as u64;
    let hits: Vec<f64> = all_ops().filter(|o| o.ok && o.cached).map(Op::total_ms).collect();
    let misses: Vec<f64> = all_ops().filter(|o| o.ok && !o.cached).map(Op::total_ms).collect();
    let hit_tail = measure::tail(&hits);
    let miss_tail = measure::tail(&misses);
    let median_round =
        |f: fn(&Round) -> f64| measure::median(&rounds.iter().map(f).collect::<Vec<_>>());

    notes.push(format!(
        "{} rounds of {} round trips; {} hits, {} misses",
        rounds.len() + usize::from(traced.is_some()),
        rounds.first().map_or(0, |r| r.ops.len()),
        hits.len(),
        misses.len()
    ));
    let latency: [(&'static str, f64); 8] = [
        ("hit_p50_ms", measure::median(&hits)),
        ("hit_tail_ms", hit_tail.map_or(0.0, |t| t.1)),
        ("hit_tail_pct", hit_tail.map_or(0.0, |t| t.0)),
        ("hit_samples", hits.len() as f64),
        ("miss_p50_ms", measure::median(&misses)),
        ("miss_tail_ms", miss_tail.map_or(0.0, |t| t.1)),
        ("miss_tail_pct", miss_tail.map_or(0.0, |t| t.0)),
        ("miss_samples", misses.len() as f64),
    ];

    let metrics = match &traced {
        None => {
            for (name, value) in latency {
                notes.push(format!("{name:<28} {value:>16.6} {}", unit_of(name)));
            }
            vec![
                ("setup_s", measure::median(&setups), "s"),
                ("wall_s", median_round(|r| r.wall_s), "s"),
                ("cpu_s", median_round(|r| r.cpu_s), "s"),
                ("peak_rss_mb", peak_rss_mb, "MB"),
            ]
        }
        Some(t) => {
            let mut layers: BTreeMap<&'static str, f64> = latency.into_iter().collect();
            traced_layers(t, median_round(|r| r.setup_s + r.wall_s), &mut layers, &mut notes)?;
            LAYER_METRICS
                .iter()
                .map(|&(name, unit)| (name, layers.get(name).copied().unwrap_or(0.0), unit))
                .collect()
        }
    };
    Ok(Outcome { attempted, failed, metrics, notes })
}

fn unit_of(name: &str) -> &'static str {
    LAYER_METRICS.iter().find(|(n, _)| *n == name).map_or("", |(_, u)| u)
}

/// Per-layer figures of the traced round.
fn traced_layers(
    t: &Round,
    untraced_wall: f64,
    layers: &mut BTreeMap<&'static str, f64>,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    layers.insert("bistd.rtt_ms", measure::median(&t.rtt_ms));
    layers.insert(
        "bistd.submit_ms",
        measure::median(&t.ops.iter().map(|o| o.submit_ms).collect::<Vec<_>>()),
    );
    let hit_fetch: Vec<f64> = t.ops.iter().filter(|o| o.cached).map(|o| o.fetch_ms).collect();
    layers.insert("bistd.fetch_ms", measure::median(&hit_fetch));
    layers.insert(
        "bistd.hint_misses",
        t.ops.iter().filter(|o| o.kind == Kind::Hint && !o.cached).count() as f64,
    );

    let m = t.daemon_metrics.as_ref().ok_or("traced round has no daemon metrics")?;
    let counter = |name: &str| {
        m.get("counters").and_then(|c| c.get(name)).and_then(JsonValue::as_f64).unwrap_or(0.0)
    };
    let (hits, misses) = (counter("bistd.cache.hits"), counter("bistd.cache.misses"));
    layers.insert("bistd.cache_hit_ratio", hits / (hits + misses).max(1.0));
    let job = m.get("histograms").and_then(|h| h.get("bistd.job_ms"));
    let job_ms =
        job.and_then(|j| Some(j.get("sum")?.as_f64()? / j.get("count")?.as_f64()?)).unwrap_or(0.0);
    layers.insert("bistd.job_ms", job_ms);
    let miss_rt: Vec<f64> = t.ops.iter().filter(|o| !o.cached).map(Op::total_ms).collect();
    layers.insert("bistd.overhead_ms", measure::median(&miss_rt) - job_ms);

    // Fault simulation inside the daemon's jobs, from the artifacts.
    let mut sums: BTreeMap<String, f64> = BTreeMap::new();
    for op in t.ops.iter().filter(|o| !o.cached) {
        for (name, ms) in op.stages.iter().chain(op.counters.iter()) {
            *sums.entry(name.clone()).or_insert(0.0) += ms;
        }
    }
    for (metric, source) in [
        ("faultsim.sim_ms", "session.fault_sim"),
        ("faultsim.stage0_ms", "faultsim.stage0"),
        ("faultsim.stage1_ms", "faultsim.stage1"),
        ("faultsim.stage2_ms", "faultsim.stage2"),
        ("faultsim.stage3_ms", "faultsim.stage3"),
        ("faultsim.shards", "faultsim.shards"),
        ("faultsim.groups", "faultsim.groups"),
        ("core.signature_ms", "session.signature"),
    ] {
        layers.insert(metric, sums.get(source).copied().unwrap_or(0.0));
    }

    // Admission lint, which the daemon re-runs on every submit.
    let mut lint_spans = Spans::default();
    let mut diagnostics = 0usize;
    for spec in pool() {
        let diags = lint_spans
            .time("lint.admission", || lint::admission_lint(&spec, None))
            .map_err(|e| format!("lint {}: {e}", spec.canonical()))?;
        diagnostics += diags.len();
    }
    layers.insert("lint.admission_ms", lint_spans.ms("lint.admission"));
    layers.insert("lint.diagnostics", diagnostics as f64);

    let traced_wall = t.setup_s + t.wall_s;
    layers.insert("trace.unaccounted_ratio", 1.0 - t.spans.covered_s() / traced_wall);
    layers.insert("trace.overhead_ratio", traced_wall / untraced_wall - 1.0);
    notes.push(format!(
        "traced round: {traced_wall:.3} s, untraced median {untraced_wall:.3} s; \
         {} bare metrics round trips after it (not in the overhead)",
        t.rtt_ms.len()
    ));
    Ok(())
}
