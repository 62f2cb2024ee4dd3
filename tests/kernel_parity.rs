//! Walker-vs-kernel differential over every built-in design.
//!
//! The flat structure-of-arrays tape kernel (`faultsim::kernel`) is the
//! default simulation engine behind `BistSession`; the original graph
//! walker is retained behind `RunConfig::with_engine` exactly so this
//! differential can hold the two to bit-identity forever. Each design
//! runs the same campaign under both engines in both response-check
//! modes, and everything externally observable must match: the
//! per-fault detection map, the per-fault signature sets, the
//! good-machine signature, and the coverage figure.
//!
//! The kernel runs each shard group over the fanout cone of its faults,
//! reading every other plane from a recording of the fault-free
//! machine, and narrows its groups when a stage has few shards; so
//! every design is also re-run on the kernel at one and three threads
//! over a dense stage schedule, which repacks shards into differently
//! shaped groups (and cones) at every boundary.
//!
//! Vector counts are tiered so the whole file stays test-suite cheap in
//! debug builds: the three paper designs run short campaigns, the
//! architectural variants (symmetric, carry-save) and LP-MINI run
//! longer ones — between them every `NodeKind` the lowering pass
//! handles is exercised on real elaborated datapaths.

use bist_bench::generator;
use bist_core::session::{BistSession, ResponseCheck, RunConfig};
use bist_core::SimEngine;
use faultsim::StageSchedule;
use filters::FilterDesign;

/// (design, vectors): the paper designs are big, so they get short
/// campaigns; the small variants can afford longer ones.
fn roster() -> Vec<(FilterDesign, usize)> {
    vec![
        (filters::designs::lowpass().expect("LP"), 96),
        (filters::designs::bandpass().expect("BP"), 96),
        (filters::designs::highpass().expect("HP"), 96),
        (filters::designs::lowpass_symmetric().expect("LP-SYM"), 192),
        (filters::designs::lowpass_carry_save().expect("LP-CSA"), 192),
        (filters::designs::lowpass_mini().expect("LP-MINI"), 384),
    ]
}

#[test]
fn every_design_is_bit_identical_across_engines_in_both_modes() {
    for (design, vectors) in roster() {
        let session = BistSession::new(&design).expect("session");
        for mode in [ResponseCheck::Trace, ResponseCheck::Signature] {
            let base = RunConfig::new(vectors).with_threads(1).with_response_check(mode);
            let mut gen = generator("LFSR-D");
            let walked = session
                .run(&mut *gen, &base.clone().with_engine(SimEngine::Walker))
                .expect("walker run");
            let dense = StageSchedule::with_boundaries(vec![16, 48, 80]);
            for (threads, schedule) in
                [(1, StageSchedule::new()), (1, dense.clone()), (3, dense.clone())]
            {
                let config = base
                    .clone()
                    .with_engine(SimEngine::Kernel)
                    .with_threads(threads)
                    .with_schedule(schedule.clone());
                let mut gen = generator("LFSR-D");
                let kernel = session.run(&mut *gen, &config).expect("kernel run");
                let tag = format!("{} x {mode:?} x {threads}t x {schedule:?}", design.name());
                assert_eq!(
                    walked.result.detection_cycles(),
                    kernel.result.detection_cycles(),
                    "{tag}: per-fault detection map"
                );
                assert_eq!(
                    walked.result.signatures(),
                    kernel.result.signatures(),
                    "{tag}: per-fault signature sets"
                );
                assert_eq!(walked.signature, kernel.signature, "{tag}: good signature");
                assert_eq!(walked.artifact.coverage, kernel.artifact.coverage, "{tag}: coverage");
                assert_eq!(walked.artifact.detected, kernel.artifact.detected, "{tag}: detected");
                assert_eq!(walked.artifact.aliased, kernel.artifact.aliased, "{tag}: aliased");
            }
        }
    }
}

#[test]
fn engines_agree_under_threading_and_stage_boundaries() {
    // The kernel shares one compiled tape across worker threads; make
    // sure sharding and stage scheduling don't perturb it relative to
    // the serial walker.
    let design = filters::designs::lowpass_mini().expect("LP-MINI");
    let session = BistSession::new(&design).expect("session");
    let base = RunConfig::new(512)
        .with_response_check(ResponseCheck::Signature)
        .with_schedule(faultsim::StageSchedule::with_boundaries(vec![128, 384]));
    let mut gen = generator("LFSR-1");
    let reference = session
        .run(&mut *gen, &base.clone().with_threads(1).with_engine(SimEngine::Walker))
        .expect("walker run");
    for threads in [1usize, 3] {
        let mut gen = generator("LFSR-1");
        let run = session
            .run(&mut *gen, &base.clone().with_threads(threads).with_engine(SimEngine::Kernel))
            .expect("kernel run");
        assert_eq!(
            reference.result.detection_cycles(),
            run.result.detection_cycles(),
            "threads={threads}: detection map"
        );
        assert_eq!(reference.signature, run.signature, "threads={threads}: good signature");
        assert_eq!(
            reference.result.signatures(),
            run.result.signatures(),
            "threads={threads}: per-fault signatures"
        );
    }
}
