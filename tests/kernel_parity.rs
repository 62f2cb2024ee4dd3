//! Kernel-vs-reference differential over every built-in design.
//!
//! `BistSession` simulates faults with the staged scheduler: shard
//! groups on the compiled tape kernel (`faultsim::kernel`), each over
//! the fanout cone of its faults, reading every other plane from a
//! recording of the fault-free machine, with survivors' register and
//! MISR state carried across stage repacks. The oracle is
//! `faultsim::reference::simulate`, which shares none of that: every
//! fault runs on the graph walker from cycle 0 to the end, 63 to a
//! pack, with no stages, threads, cones or state carry. So a bug in
//! stage repack, survivor carry or MISR carry shows here as a
//! divergence instead of passing on both sides.
//!
//! Each design runs the same campaign in both response-check modes at
//! one and three threads over the default schedule, a dense one and a
//! sparse one — which repack shards into differently shaped groups
//! (and cones) at every boundary — and everything externally
//! observable must equal the reference: the per-fault detection map,
//! the per-fault signature sets, the good-machine signature, the
//! coverage figure, and the detected and aliased counts.
//!
//! Vector counts are tiered so the whole file stays test-suite cheap in
//! debug builds: the three paper designs run short campaigns, the
//! architectural variants (symmetric, carry-save) and LP-MINI run
//! longer ones — between them every `NodeKind` the lowering pass
//! handles is exercised on real elaborated datapaths. LP-MINI also
//! runs a longer LFSR-1 campaign, whose late stages carry few
//! survivors.

use bist_bench::{generator, reference_result};
use bist_core::session::{BistSession, ResponseCheck, RunConfig};
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

/// Runs `design` × `gen_name` @ `vectors` in both response-check modes
/// through `BistSession` at every (threads, schedule) pair and asserts
/// every observable equals the reference simulator's.
fn assert_session_matches_reference(
    design: &FilterDesign,
    gen_name: &str,
    vectors: usize,
    threads: &[usize],
    schedules: &[StageSchedule],
) {
    let session = BistSession::new(design).expect("session");
    let base = |mode| RunConfig::new(vectors).with_response_check(mode);
    let traced = reference_result(&session, gen_name, &base(ResponseCheck::Trace));
    let signed = reference_result(&session, gen_name, &base(ResponseCheck::Signature));
    // Trace mode has no per-fault signatures, but its good signature is
    // the fault-free MISR state all the same.
    let good = signed.good_signature();
    for (mode, expected) in [(ResponseCheck::Trace, &traced), (ResponseCheck::Signature, &signed)] {
        for &threads in threads {
            for schedule in schedules {
                let config = base(mode).with_threads(threads).with_schedule(schedule.clone());
                let mut gen = generator(gen_name);
                let kernel = session.run(&mut *gen, &config).expect("kernel run");
                let tag = format!(
                    "{} x {gen_name} x {mode:?} x {threads}t x {schedule:?}",
                    design.name()
                );
                assert_eq!(
                    kernel.result.detection_cycles(),
                    expected.detection_cycles(),
                    "{tag}: per-fault detection map"
                );
                assert_eq!(
                    kernel.result.signatures(),
                    expected.signatures(),
                    "{tag}: per-fault signature sets"
                );
                assert_eq!(Some(kernel.signature), good, "{tag}: good signature");
                assert_eq!(
                    kernel.artifact.coverage,
                    expected.coverage_after(expected.total_cycles()),
                    "{tag}: coverage"
                );
                assert_eq!(kernel.artifact.detected, expected.detected_count(), "{tag}: detected");
                assert_eq!(kernel.artifact.aliased, expected.aliased().len(), "{tag}: aliased");
            }
        }
    }
}

#[test]
fn every_design_is_bit_identical_across_engines_in_both_modes() {
    let schedules = [
        StageSchedule::new(),
        StageSchedule::with_boundaries(vec![16, 48, 80]),
        StageSchedule::with_boundaries(vec![128, 384]),
    ];
    for (design, vectors) in roster() {
        assert_session_matches_reference(&design, "LFSR-D", vectors, &[1, 3], &schedules);
    }
}

#[test]
fn engines_agree_under_threading_and_stage_boundaries() {
    // The kernel shares one compiled tape across worker threads; make
    // sure sharding and stage scheduling don't perturb it relative to
    // the unscheduled reference, on a longer LFSR-1 campaign whose
    // late stages carry few survivors.
    let design = filters::designs::lowpass_mini().expect("LP-MINI");
    let schedules = [
        StageSchedule::new(),
        StageSchedule::with_boundaries(vec![16, 48, 80]),
        StageSchedule::with_boundaries(vec![128, 384]),
    ];
    assert_session_matches_reference(&design, "LFSR-1", 512, &[1, 3], &schedules);
}
