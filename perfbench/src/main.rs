//! End-to-end and per-layer benchmark of the filter-BIST campaign
//! pipeline.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --bless            # rewrite perfbench/reference.tsv
//! ```
//!
//! Run it from the repository root (through `perfbench/run.sh`, which
//! builds it first). Each workload drives the public APIs one layer
//! stack at a time:
//!
//! * `sig-lp`: LP × LFSR-D in signature mode, one campaign;
//! * `trace-grid`: the paper's Table 4 grid in trace mode, plus
//!   LP-MINI × LFSR-1 with collapse, top-off ATPG and SAT;
//! * `daemon-tcp`: an in-process `bistd` over TCP loopback.
//!
//! Every campaign's verdicts are checked against the committed
//! reference (`perfbench/reference.tsv`). The untraced run
//! (`--trace 0`) reports the end-to-end metrics; the traced run
//! (`--trace 1`) reports the per-layer metrics. The last line of
//! standard output is one JSON object; the lines before it are a
//! readable summary. The process exits 1 when any verdict differs from
//! the reference.

mod batch;
mod daemon;
mod measure;
mod reference;

use measure::Metrics;
use obs::JsonValue;
use std::process::ExitCode;

/// Fault-simulation threads a batch campaign pins (the host budget is
/// two busy threads).
pub const BATCH_THREADS: usize = 2;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["sig-lp", "trace-grid", "daemon-tcp"];

/// The per-layer metrics every traced run reports, with units. A
/// workload that does not exercise a layer reports 0 for it.
pub const LAYER_METRICS: [(&str, &str); 51] = [
    ("filters.elaborate_ms", "ms"),
    ("core.session_new_ms", "ms"),
    ("rtl.reachability_ms", "ms"),
    ("faultsim.universe_ms", "ms"),
    ("faultsim.universe_faults", "count"),
    ("lint.admission_ms", "ms"),
    ("lint.diagnostics", "count"),
    ("faultsim.tape_compile_ms", "ms"),
    ("faultsim.tape_ops", "count"),
    ("faultsim.sim_ms", "ms"),
    ("faultsim.stage0_ms", "ms"),
    ("faultsim.stage1_ms", "ms"),
    ("faultsim.stage2_ms", "ms"),
    ("faultsim.stage3_ms", "ms"),
    ("faultsim.merge_ms", "ms"),
    ("faultsim.shards", "count"),
    ("faultsim.groups", "count"),
    ("faultsim.fault_cycles", "count"),
    ("faultsim.fault_cycles_per_s", "1/s"),
    ("faultsim.cpu_util", "ratio"),
    ("core.signature_ms", "ms"),
    ("structure.analyze_ms", "ms"),
    ("structure.classes", "count"),
    ("structure.reduction", "ratio"),
    ("atpg.screen_ms", "ms"),
    ("atpg.justify_ms", "ms"),
    ("atpg.plan_ms", "ms"),
    ("atpg.verify_ms", "ms"),
    ("atpg.residue", "count"),
    ("atpg.resolved_ratio", "ratio"),
    ("sat.equiv_ms", "ms"),
    ("sat.prune_ms", "ms"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("bistd.rtt_ms", "ms"),
    ("bistd.submit_ms", "ms"),
    ("bistd.fetch_ms", "ms"),
    ("bistd.job_ms", "ms"),
    ("bistd.overhead_ms", "ms"),
    ("bistd.cache_hit_ratio", "ratio"),
    ("bistd.hint_misses", "count"),
    ("hit_p50_ms", "ms"),
    ("hit_tail_ms", "ms"),
    ("hit_tail_pct", "%"),
    ("hit_samples", "count"),
    ("miss_p50_ms", "ms"),
    ("miss_tail_ms", "ms"),
    ("miss_tail_pct", "%"),
    ("miss_samples", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unaccounted_ratio", "ratio"),
];

/// What one workload run produced.
pub struct Outcome {
    /// Operations attempted in the measured phase (campaigns for the
    /// batch workloads, submit-to-artifact round trips for the daemon).
    pub attempted: u64,
    /// Attempted operations that failed, were refused, or returned
    /// verdicts that differ from the reference.
    pub failed: u64,
    /// Metrics to report (end-to-end or per-layer, by run kind).
    pub metrics: Metrics,
    /// Extra summary lines (never part of the JSON result).
    pub notes: Vec<String>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, bless: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            args.bless = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: bad {what} '{value}'");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("duration"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err(bad("duration"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.bless && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} (got '{}')",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.bless {
        return match reference::bless() {
            Ok(n) => {
                eprintln!("perfbench: wrote {n} reference campaigns to {}", reference::PATH);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: bless failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let reference = match reference::Reference::load() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let budget = measure::Budget::new(args.seconds);
    let result = match args.workload.as_str() {
        "daemon-tcp" => daemon::run(&reference, args.seed, &budget, args.trace),
        name => batch::run(name, &reference, args.seed, &budget, args.trace),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    report(&args, &outcome);
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints the readable summary, then the JSON result as the last line.
fn report(args: &Args, outcome: &Outcome) {
    let kind = if args.trace { "per-layer (traced)" } else { "end-to-end" };
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    println!("perfbench {} seed {} — {kind}, {cores} cores", args.workload, args.seed);
    for note in &outcome.notes {
        println!("  {note}");
    }
    let failed_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "  {:<28} {:>16} ratio  ({} of {} operations)",
        "failed_ratio", failed_ratio, outcome.failed, outcome.attempted
    );
    let mut metrics = JsonValue::object();
    for (name, value, unit) in &outcome.metrics {
        println!("  {name:<28} {value:>16.6} {unit}");
        let value = if value.is_finite() { *value } else { 0.0 };
        metrics = metrics.push(name, JsonValue::object().push("value", value).push("unit", *unit));
    }
    let line = JsonValue::object()
        .push("correct", outcome.failed == 0)
        .push("attempted", outcome.attempted)
        .push("failed", outcome.failed)
        .push("metrics", metrics);
    println!("{}", line.to_json());
}
