//! The batch workloads: campaigns driven in-process through
//! `bist_core::campaign` and `BistSession`.
//!
//! Set-up (elaboration, `BistSession::new` and admission lint for every
//! campaign) is repeated many times and reported as its median. The
//! measured phase runs the workload's campaigns in seed order, over and
//! over while the budget lasts; `wall_s` and `cpu_s` are the cost of
//! one pass over all campaigns, summed from per-campaign medians.
//! Set-up repetitions are interleaved with the campaigns from the
//! second pass on, so that their samples span the run as the campaigns'
//! do: host speed drifts over seconds, and set-ups taken all at once
//! would see one moment of it.
//!
//! The traced run makes one traced pass first: a metrics registry is
//! attached to every session run, a sampler records process CPU, and
//! probes call the layers a session call hides (reachability, universe
//! enumeration, tape compile, ATPG justification, planning and
//! verification, SAT proofs) once more on the same inputs to time them
//! separately. Untraced campaigns follow, so the tracing overhead can be
//! measured against them; the probes are left out of that comparison.

use crate::measure::{self, costed, Budget, Cost, CpuSampler, Rng, Spans};
use crate::reference::{Reference, Verdict};
use crate::{Outcome, BATCH_THREADS, LAYER_METRICS};
use bist_core::campaign::CampaignSpec;
use bist_core::session::{BistRun, BistSession, ResponseCheck, SatConfig};
use faultsim::{FaultId, FaultUniverse, Tape};
use filters::FilterDesign;
use obs::{Diagnostic, Registry};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Test length of every batch campaign (the paper's Section 8).
const VECTORS: usize = 4096;
/// The Table 4 grid's generators.
const GRID_GENERATORS: [&str; 4] = ["LFSR-1", "LFSR-D", "LFSR-M", "Ramp"];
/// The fault simulator's default stage boundaries.
const DEFAULT_BOUNDARIES: [u32; 3] = [64, 256, 1024];

/// The campaigns of a batch workload, in registry order.
fn campaigns(workload: &str) -> Vec<CampaignSpec> {
    let pin = |mut spec: CampaignSpec| {
        spec.threads = BATCH_THREADS;
        spec
    };
    match workload {
        "sig-lp" => {
            vec![
                pin(CampaignSpec::new("LP", "LFSR-D", VECTORS).with_mode(ResponseCheck::Signature)),
            ]
        }
        // The grid, plus one proof campaign so that structure, atpg and
        // sat run on a measured workload. A proof campaign's speed swings
        // far more with a shared host's load than fault simulation's (up
        // to 1.9x between runs minutes apart), so it is LP-MINI, about 7%
        // of a pass, not LP, whose 5 s would be over a quarter of one.
        "trace-grid" => ["LP", "BP", "HP"]
            .iter()
            .flat_map(|d| {
                GRID_GENERATORS.iter().map(move |g| pin(CampaignSpec::new(*d, *g, VECTORS)))
            })
            .chain([pin(CampaignSpec::new("LP-MINI", "LFSR-1", VECTORS)
                .with_collapse(true)
                .with_topoff(atpg::TopOffConfig::default())
                .with_sat(SatConfig::default()))])
            .collect(),
        _ => Vec::new(),
    }
}

/// Every campaign the batch workloads can run.
pub fn all_campaigns() -> Vec<CampaignSpec> {
    ["sig-lp", "trace-grid"].iter().flat_map(|w| campaigns(w)).collect()
}

/// Set-ups made before the first campaign (the last one's designs and
/// sessions serve the campaigns).
const FIRST_SETUPS: usize = 3;
/// The share of the measured phase spent repeating set-up for its
/// median.
const SETUP_SHARE: f64 = 0.15;

/// The designs a set of campaigns needs, in first-use order.
fn design_names(specs: &[CampaignSpec]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for spec in specs {
        if !names.contains(&spec.design) {
            names.push(spec.design.clone());
        }
    }
    names
}

fn elaborate(names: &[String], spans: &mut Spans) -> Result<Vec<FilterDesign>, String> {
    names
        .iter()
        .map(|n| {
            spans
                .time("filters.elaborate", || bist_core::campaign::build_design(n))
                .map_err(|e| format!("elaborating {n}: {e}"))
        })
        .collect()
}

fn open_sessions<'d>(
    designs: &'d [FilterDesign],
    spans: &mut Spans,
) -> Result<Vec<BistSession<'d>>, String> {
    designs
        .iter()
        .map(|d| {
            spans
                .time("core.session_new", || BistSession::new(d))
                .map_err(|e| format!("session for {}: {e}", d.name()))
        })
        .collect()
}

fn admission_lints(
    specs: &[CampaignSpec],
    spans: &mut Spans,
) -> Result<Vec<Vec<Diagnostic>>, String> {
    specs
        .iter()
        .map(|spec| {
            spans
                .time("lint.admission", || {
                    spec.validate()?;
                    lint::admission_lint(spec, None)
                })
                .map_err(|e| format!("admitting {}: {e}", spec.canonical()))
        })
        .collect()
}

/// Sets up once more, discarding the result; returns the seconds taken.
fn time_setup(names: &[String], specs: &[CampaignSpec]) -> Result<f64, String> {
    let mut discarded = Spans::default();
    let t0 = Instant::now();
    let designs = elaborate(names, &mut discarded)?;
    let sessions = open_sessions(&designs, &mut discarded)?;
    let lints = admission_lints(specs, &mut discarded)?;
    let secs = t0.elapsed().as_secs_f64();
    drop((sessions, lints));
    Ok(secs)
}

/// One campaign of the measured phase.
struct Attempt {
    run: Option<BistRun>,
    cost: Cost,
    ok: bool,
}

/// Runs one campaign and checks its verdict.
fn attempt(
    spec: &CampaignSpec,
    session: &BistSession<'_>,
    lint: &[Diagnostic],
    metrics: Option<Arc<Registry>>,
    reference: &Reference,
    spans: &mut Spans,
    notes: &mut Vec<String>,
) -> Attempt {
    let mut config = spec.run_config(None).with_lint(lint.to_vec());
    if let Some(registry) = metrics {
        config = config.with_metrics(registry);
    }
    let (result, cost) = costed(|| {
        let mut generator = spans.time("tpg.build", || spec.build_generator())?;
        session.run(&mut *generator, &config)
    });
    let run = match result {
        Ok(run) => run,
        Err(e) => {
            notes.push(format!("FAILED {}: {e}", spec.canonical()));
            return Attempt { run: None, cost, ok: false };
        }
    };
    let check = spans.time("bench.verdict_check", || reference.check(spec, &Verdict::of_run(&run)));
    if let Err(e) = &check {
        notes.push(format!("FAILED {e}"));
    }
    Attempt { run: Some(run), cost, ok: check.is_ok() }
}

/// Runs a batch workload.
pub fn run(
    workload: &str,
    reference: &Reference,
    seed: u64,
    budget: &Budget,
    trace: bool,
) -> Result<Outcome, String> {
    let specs = campaigns(workload);
    let names = design_names(&specs);
    let design_of: Vec<usize> = specs
        .iter()
        .map(|s| names.iter().position(|n| *n == s.design).expect("design listed"))
        .collect();

    // Set-up, repeated; the last repetition's designs and sessions stay.
    let mut setup_s = Vec::new();
    for _ in 1..FIRST_SETUPS {
        setup_s.push(time_setup(&names, &specs)?);
    }
    let mut spans = Spans::default();
    let t0 = Instant::now();
    let designs = elaborate(&names, &mut spans)?;
    let sessions = open_sessions(&designs, &mut spans)?;
    let lints = admission_lints(&specs, &mut spans)?;
    let last_setup = t0.elapsed().as_secs_f64();
    setup_s.push(last_setup);

    let mut order: Vec<usize> = (0..specs.len()).collect();
    Rng::new(seed).shuffle(&mut order);

    let mut notes = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut costs: Vec<Vec<Cost>> = vec![Vec::new(); specs.len()];

    let mut layers = BTreeMap::new();
    // Traced campaign walls, without the probes that follow them.
    let mut traced_walls = vec![0.0; specs.len()];
    let mut probe_s = 0.0;
    if trace {
        let mut probes = Spans::default();
        let probe_t0 = Instant::now();
        design_probes(&designs, &mut probes, &mut layers);
        probe_s += probe_t0.elapsed().as_secs_f64();
        let mut traced_wall_excl_probes = last_setup;
        let sampler = CpuSampler::start();
        let mut fault_sim_spans = Vec::new();
        for &i in &order {
            let registry = Arc::new(Registry::new());
            let base = Instant::now();
            let a = attempt(
                &specs[i],
                &sessions[design_of[i]],
                &lints[i],
                Some(Arc::clone(&registry)),
                reference,
                &mut spans,
                &mut notes,
            );
            let snapshot = registry.snapshot();
            let mut run_spans = Spans::default();
            run_spans.absorb_session(base, &snapshot);
            fault_sim_spans
                .extend(run_spans.0.iter().filter(|s| s.name == "session.fault_sim").cloned());
            spans.0.extend(run_spans.0);
            let campaign_wall = base.elapsed().as_secs_f64();
            let probe_t0 = Instant::now();
            let mut ok = a.ok;
            if let Some(run) = &a.run {
                let design = &designs[design_of[i]];
                let session = &sessions[design_of[i]];
                if let Err(e) =
                    campaign_layers(&specs[i], design, session, run, &snapshot, &mut layers)
                {
                    ok = false;
                    notes.push(format!("FAILED probe of {}: {e}", specs[i].canonical()));
                }
            }
            attempted += 1;
            failed += u64::from(!ok);
            probe_s += probe_t0.elapsed().as_secs_f64();
            traced_walls[i] = campaign_wall;
            traced_wall_excl_probes += campaign_wall;
        }
        let cpu = sampler.finish();
        let fs_cpu: f64 = fault_sim_spans.iter().map(|s| cpu.within(s)).sum();
        let fs_wall: f64 = fault_sim_spans.iter().map(|s| s.ms() / 1000.0).sum();
        if fs_wall > 0.0 {
            add(&mut layers, "faultsim.cpu_util", fs_cpu / (BATCH_THREADS as f64 * fs_wall));
        }
        add(&mut layers, "filters.elaborate_ms", spans.ms("filters.elaborate"));
        add(&mut layers, "core.session_new_ms", spans.ms("core.session_new"));
        add(&mut layers, "lint.admission_ms", spans.ms("lint.admission"));
        add(&mut layers, "lint.diagnostics", lints.iter().map(Vec::len).sum::<usize>() as f64);
        let accounted = spans.covered_s();
        add(&mut layers, "trace.unaccounted_ratio", 1.0 - accounted / traced_wall_excl_probes);
        for (name, _) in LAYER_METRICS {
            layers.entry(name).or_insert(0.0);
        }
        let sim_s = layers["faultsim.sim_ms"] / 1000.0;
        if sim_s > 0.0 {
            let per_s = layers["faultsim.fault_cycles"] / sim_s;
            layers.insert("faultsim.fault_cycles_per_s", per_s);
        }
    }

    // Untraced campaigns: the whole measured phase of an untraced run
    // (at least one full pass), the overhead baseline of a traced one
    // (at least one campaign). Peak memory is read after the first pass,
    // so it covers the same work however many passes the budget allows.
    // From the second pass on, set-up is repeated before each campaign
    // until it has taken its share of the phase so far (not earlier: a
    // set-up made beside the live sessions would raise the peak).
    let min_campaigns = if trace { 1 } else { order.len() };
    let mut peak_rss_mb = 0.0;
    let phase_t0 = Instant::now();
    let mut setup_spent = 0.0;
    for cursor in 0.. {
        let i = order[cursor % order.len()];
        while cursor >= order.len()
            && setup_spent < SETUP_SHARE * phase_t0.elapsed().as_secs_f64()
            && budget.fits(Duration::from_secs_f64(last_setup))
        {
            let secs = time_setup(&names, &specs)?;
            setup_spent += secs;
            setup_s.push(secs);
        }
        if cursor >= min_campaigns {
            let next = costs[i].last().map_or(traced_walls[i], |c| c.wall);
            if !budget.fits(Duration::from_secs_f64(next)) {
                break;
            }
        }
        let a = attempt(
            &specs[i],
            &sessions[design_of[i]],
            &lints[i],
            None,
            reference,
            &mut Spans::default(),
            &mut notes,
        );
        attempted += 1;
        failed += u64::from(!a.ok);
        costs[i].push(a.cost);
        if cursor + 1 == order.len() {
            peak_rss_mb = measure::peak_rss_mb();
        }
    }

    let median_setup = measure::median(&setup_s);
    let metrics = if trace {
        // Traced set-up and campaigns against the same work untraced;
        // the probes re-run layers, so they are reported apart.
        let paired: Vec<usize> = (0..specs.len()).filter(|&i| !costs[i].is_empty()).collect();
        let traced: f64 = last_setup + paired.iter().map(|&i| traced_walls[i]).sum::<f64>();
        let untraced: f64 =
            median_setup + paired.iter().map(|&i| median_of(&costs[i], |c| c.wall)).sum::<f64>();
        layers.insert("trace.overhead_ratio", traced / untraced - 1.0);
        notes.push(format!("re-timing probes took {probe_s:.3} s (not in the overhead)"));
        LAYER_METRICS.iter().map(|&(name, unit)| (name, layers[name], unit)).collect()
    } else {
        let wall: f64 = costs.iter().map(|c| median_of(c, |c| c.wall)).sum();
        let cpu: f64 = costs.iter().map(|c| median_of(c, |c| c.cpu)).sum();
        notes.push(format!(
            "{} campaigns over {} distinct; set-up repeated {} times",
            attempted,
            specs.len(),
            setup_s.len()
        ));
        for (spec, c) in specs.iter().zip(&costs) {
            let walls: Vec<String> = c.iter().map(|c| format!("{:.3}", c.wall)).collect();
            notes.push(format!("{} walls (s): {}", spec.canonical(), walls.join(" ")));
        }
        vec![
            ("setup_s", median_setup, "s"),
            ("wall_s", wall, "s"),
            ("cpu_s", cpu, "s"),
            ("peak_rss_mb", peak_rss_mb, "MB"),
        ]
    };
    Ok(Outcome { attempted, failed, metrics, notes })
}

fn median_of(costs: &[Cost], f: impl Fn(&Cost) -> f64) -> f64 {
    measure::median(&costs.iter().map(f).collect::<Vec<_>>())
}

fn add(layers: &mut BTreeMap<&'static str, f64>, name: &'static str, value: f64) {
    *layers.entry(name).or_insert(0.0) += value;
}

/// Times what `BistSession::new` and the fault simulator do inside one
/// call each: input-cone reachability, universe enumeration, and the
/// kernel's tape compile.
fn design_probes(
    designs: &[FilterDesign],
    probes: &mut Spans,
    layers: &mut BTreeMap<&'static str, f64>,
) {
    for design in designs {
        let netlist = design.netlist();
        let reach = probes.time("rtl.reachability", || {
            rtl::reachability::Reachability::analyze(netlist, design.spec().input_bits)
        });
        let universe = probes.time("faultsim.universe", || {
            FaultUniverse::enumerate_pruned(netlist, design.claimed_ranges(), &reach)
        });
        let tape = probes.time("faultsim.tape_compile", || Tape::compile(netlist));
        add(layers, "faultsim.universe_faults", universe.len() as f64);
        add(layers, "faultsim.tape_ops", tape.op_count() as f64);
    }
    add(layers, "rtl.reachability_ms", probes.ms("rtl.reachability"));
    add(layers, "faultsim.universe_ms", probes.ms("faultsim.universe"));
    add(layers, "faultsim.tape_compile_ms", probes.ms("faultsim.tape_compile"));
}

/// Per-layer figures of one traced campaign: the session's own spans
/// and counters, the fault-cycle count, and (for top-off campaigns) the
/// ATPG and SAT probes.
fn campaign_layers(
    spec: &CampaignSpec,
    design: &FilterDesign,
    session: &BistSession<'_>,
    run: &BistRun,
    snapshot: &obs::Snapshot,
    layers: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let span_ms = |name: &str| snapshot.span_millis(name);
    add(layers, "faultsim.sim_ms", span_ms("session.fault_sim"));
    for (i, name) in
        ["faultsim.stage0_ms", "faultsim.stage1_ms", "faultsim.stage2_ms", "faultsim.stage3_ms"]
            .into_iter()
            .enumerate()
    {
        add(layers, name, span_ms(&format!("faultsim.stage{i}")));
    }
    if let Some(h) = snapshot.histograms.get("faultsim.merge_ms") {
        add(layers, "faultsim.merge_ms", h.sum);
    }
    let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0) as f64;
    add(layers, "faultsim.shards", counter("faultsim.shards"));
    add(layers, "faultsim.groups", counter("faultsim.groups"));
    add(layers, "core.signature_ms", span_ms("session.signature"));
    add(layers, "structure.analyze_ms", span_ms("session.structure"));
    add(layers, "atpg.screen_ms", span_ms("session.atpg_screen"));
    add(layers, "sat.prune_ms", span_ms("session.sat_verdict"));
    if let Some(c) = &run.artifact.collapse {
        add(layers, "structure.classes", c.classes_after as f64);
        add(layers, "structure.reduction", c.reduction_vs_sites);
    }
    if let Some(s) = &run.artifact.sat {
        add(layers, "sat.conflicts", s.conflicts as f64);
        add(layers, "sat.propagations", s.propagations as f64);
    }

    let cycles = run.result.detection_cycles();
    let simulated: Vec<FaultId> = if spec.topoff.is_some() || spec.collapse {
        proof_probes(spec, design, session, run, layers)?
    } else {
        (0..cycles.len() as u32).map(FaultId).collect()
    };
    add(layers, "faultsim.fault_cycles", fault_cycles(spec, cycles, &simulated));
    Ok(())
}

/// Fault-cycles the simulator ran: in trace mode every stage simulates
/// the faults not detected before it starts, over the stage's cycles;
/// in signature mode every fault lives through every cycle. (Trace-mode
/// shard groups whose faults are all detected stop early, so there this
/// is the schedule's bound on the work.)
fn fault_cycles(spec: &CampaignSpec, cycles: &[Option<u32>], simulated: &[FaultId]) -> f64 {
    let total = spec.vectors as u32;
    if spec.mode == ResponseCheck::Signature {
        return simulated.len() as f64 * f64::from(total);
    }
    let boundaries = spec.boundaries.clone().unwrap_or_else(|| DEFAULT_BOUNDARIES.to_vec());
    let mut starts: Vec<u32> =
        std::iter::once(0).chain(boundaries.into_iter().filter(|&b| b < total)).collect();
    starts.push(total);
    starts
        .windows(2)
        .map(|w| {
            let alive =
                simulated.iter().filter(|f| cycles[f.index()].is_none_or(|c| c >= w[0])).count();
            alive as f64 * f64::from(w[1] - w[0])
        })
        .sum()
}

/// Re-derives a proof campaign's pipeline from the public layer calls
/// the session makes internally, timing each: the static screen, the
/// structural collapse, per-fault justification, reseeding plan and
/// plan verification, and the SAT equivalence certificate and
/// redundancy proofs. The probe's top-off partition must equal the
/// run's. Returns the simulated faults (class representatives in the
/// screened universe).
fn proof_probes(
    spec: &CampaignSpec,
    design: &FilterDesign,
    session: &BistSession<'_>,
    run: &BistRun,
    layers: &mut BTreeMap<&'static str, f64>,
) -> Result<Vec<FaultId>, String> {
    let mut probes = Spans::default();
    let netlist = design.netlist();
    let input_bits = design.spec().input_bits;
    let universe = session.universe();
    let screen: Vec<FaultId> = if spec.topoff.is_some() {
        probes.time("atpg.screen", || atpg::untestable_faults(netlist, universe, input_bits))
    } else {
        Vec::new()
    };
    let screened_set: HashSet<FaultId> = screen.iter().copied().collect();
    let keep: Vec<FaultId> = universe.ids().filter(|id| !screened_set.contains(id)).collect();
    let screened = universe.subset(&keep);
    let simulated: Vec<FaultId> = if spec.collapse {
        probes
            .time("structure.analyze", || structure::analyze(netlist, &screened))
            .collapsed
            .representatives
    } else {
        screened.ids().collect()
    };

    if let (Some(cfg), Some(report)) = (&spec.topoff, &run.artifact.topoff) {
        let sim_universe = screened.subset(&simulated);
        let cycles = run.result.detection_cycles();
        let residue: Vec<FaultId> = simulated
            .iter()
            .enumerate()
            .filter(|(_, f)| cycles[f.index()].is_none())
            .map(|(j, _)| FaultId(j as u32))
            .collect();
        let justifier = atpg::Justifier::new(netlist, &sim_universe, input_bits);
        let mut untestable = 0usize;
        let mut targets = Vec::new();
        let mut patterns = BTreeMap::new();
        probes.time("atpg.justify", || {
            for &id in &residue {
                match justifier.justify(id) {
                    atpg::Verdict::Untestable => untestable += 1,
                    atpg::Verdict::Detected { pattern } => {
                        targets.push(id);
                        patterns.insert(id, pattern);
                    }
                    atpg::Verdict::Unresolved => targets.push(id),
                }
            }
        });
        let plan = probes.time("atpg.plan", || {
            atpg::plan_reseeding(netlist, &sim_universe, &targets, &patterns, input_bits, cfg)
        });
        let (detected, unresolved) = probes.time("atpg.verify", || {
            atpg::verify_plan(netlist, &sim_universe, &targets, &plan, input_bits)
        });
        let probe = (residue.len(), detected.len(), untestable, unresolved.len());
        let want = (
            report.residue,
            report.detected,
            report.untestable,
            report.unresolved + report.redundant,
        );
        if probe != want {
            return Err(format!(
                "top-off probe partition {probe:?} differs from the run's {want:?}"
            ));
        }
        add(layers, "atpg.residue", report.residue as f64);
        let resolved = report.detected + report.untestable + report.redundant;
        add(layers, "atpg.resolved_ratio", resolved as f64 / report.residue.max(1) as f64);
    }
    if let Some(scfg) = &spec.sat {
        let specs: Vec<sat::FaultSpec> = screen
            .iter()
            .map(|&id| {
                let site = universe.site(id);
                sat::FaultSpec { node: site.node, cell: site.cell, fault: site.representative }
            })
            .collect();
        probes.time("sat.prune", || {
            std::hint::black_box(sat::prove_faults(
                netlist,
                input_bits,
                &specs,
                &sat::PruneConfig { max_conflicts: scfg.max_conflicts },
            ))
        });
        if scfg.equiv {
            probes.time("sat.equiv", || std::hint::black_box(sat::check_equivalence(design)));
        }
    }
    for (metric, span) in [
        ("atpg.justify_ms", "atpg.justify"),
        ("atpg.plan_ms", "atpg.plan"),
        ("atpg.verify_ms", "atpg.verify"),
        ("sat.equiv_ms", "sat.equiv"),
        ("sat.prune_ms", "sat.prune"),
    ] {
        add(layers, metric, probes.ms(span));
    }
    Ok(simulated)
}
