//! Cone-restricted shard groups on a paper design.
//!
//! The kernel runs each shard group over the fanout cone of its faults
//! only. On LP the work counters must show the saving — a small share
//! of the op-words the full tape would execute — and the in-group
//! cancellation polls must stop a deadlined signature run (where no
//! fault ever drops, so every stage runs to its end) soon after the
//! deadline instead of at the end of the running stage.

use bist_bench::generator;
use bist_core::session::{BistSession, ResponseCheck, RunConfig};
use faultsim::{CancelToken, StageSchedule, Tape};
use std::time::{Duration, Instant};

#[test]
fn lp_cone_groups_execute_under_35_percent_of_the_full_tape() {
    let design = filters::designs::lowpass().expect("LP");
    let session = BistSession::new(&design).expect("session");
    // 64 vectors: one stage under the default schedule, in which every
    // shard runs every cycle (signature mode drops nothing).
    let vectors = 64u64;
    let config = RunConfig::new(vectors as usize).with_response_check(ResponseCheck::Signature);
    let mut gen = generator("LFSR-D");
    let run = session.run(&mut *gen, &config).expect("run");
    let counter = |name: &str| {
        run.artifact
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("artifact lacks {name}"))
    };
    let tape = Tape::compile(design.netlist());
    let full = tape.op_count() as u64 * counter("faultsim.shards") * vectors;
    let op_words = counter("faultsim.op_words");
    assert!(
        (op_words as f64) < 0.35 * full as f64,
        "cone groups executed {op_words} op-words, {:.1}% of the full tape's {full}",
        100.0 * op_words as f64 / full as f64
    );
    assert!(counter("faultsim.boundary_fills") > 0);
}

#[test]
fn deadlined_lp_signature_run_stops_within_twice_its_budget() {
    let design = filters::designs::lowpass().expect("LP");
    let session = BistSession::new(&design).expect("session");
    let budget = Duration::from_millis(500);
    let started = Instant::now();
    let token = CancelToken::new().with_deadline(started + budget);
    // One stage spanning the whole test: polled only at stage
    // boundaries, the deadline would go unnoticed until the run ends.
    let config = RunConfig::new(4096)
        .with_response_check(ResponseCheck::Signature)
        .with_schedule(StageSchedule::with_boundaries(vec![]))
        .with_threads(2)
        .with_cancel(token);
    let mut gen = generator("LFSR-D");
    let outcome = session.run(&mut *gen, &config);
    let elapsed = started.elapsed();
    let Err(err) = outcome else {
        panic!("the run completed after {elapsed:?} despite its {budget:?} deadline");
    };
    assert!(err.to_string().contains("deadline exceeded"), "{err}");
    assert!(elapsed < 2 * budget, "stopped {elapsed:?} after a {budget:?} deadline");
}
