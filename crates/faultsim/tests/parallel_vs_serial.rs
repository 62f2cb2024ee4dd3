//! The load-bearing correctness property of the fault simulator: the
//! staged 64-lane parallel engine must return *exactly* the detection
//! cycles of the unscheduled reference simulator
//! (`bist_faultsim::reference`, every fault run from cycle 0 to the
//! end) — on arbitrary netlists, universes and stage schedules, and at
//! every worker-thread count.
//!
//! The deterministic tests below always run. The randomized
//! (property-based) tests need the `proptest` crate and are gated
//! behind the off-by-default `proptest` feature so the workspace
//! builds offline; see the workspace `Cargo.toml` for how to re-enable
//! them.

use bist_faultsim::{reference, FaultUniverse, ParallelFaultSimulator, SimOptions, StageSchedule};
use rtl::range::{aligned_input_range, RangeAnalysis};
use rtl::{Netlist, NetlistBuilder, NodeId};

#[derive(Debug, Clone)]
enum Op {
    Register(usize),
    ShiftRight(usize, u32),
    Add(usize, usize),
    Sub(usize, usize),
}

fn build(width: u32, ops: &[Op]) -> Netlist {
    let mut b = NetlistBuilder::new(width).expect("width valid");
    let mut ids: Vec<NodeId> = vec![b.input("x")];
    for op in ops {
        let pick = |i: usize| ids[i % ids.len()];
        let id = match *op {
            Op::Register(s) => b.register(pick(s)),
            Op::ShiftRight(s, k) => b.shift_right(pick(s), k),
            Op::Add(a, c) => b.add(pick(a), pick(c)),
            Op::Sub(a, c) => b.sub(pick(a), pick(c)),
        };
        ids.push(id);
    }
    let last = *ids.last().expect("nonempty");
    b.output(last, "y");
    b.finish().expect("DAG by construction")
}

/// A fixed netlist big enough to span several 63-fault shards: a short
/// tapped delay line with adds, subs and shifts.
fn sharded_fixture() -> Netlist {
    let ops = [
        Op::Register(0),
        Op::Register(1),
        Op::ShiftRight(0, 2),
        Op::Add(1, 3),
        Op::Register(4),
        Op::Sub(4, 2),
        Op::Add(5, 6),
        Op::ShiftRight(7, 1),
        Op::Add(7, 8),
        Op::Sub(9, 0),
    ];
    build(10, &ops)
}

fn fixture_universe(n: &Netlist) -> FaultUniverse {
    let ranges = RangeAnalysis::analyze(n, aligned_input_range(10, 10));
    let reach = rtl::reachability::Reachability::analyze(n, 10);
    FaultUniverse::enumerate_pruned(n, &ranges, &reach)
}

fn fixture_inputs(len: usize) -> Vec<i64> {
    // Deterministic full-range-ish stimulus (odd multiplier mod 2^9).
    (0..len).map(|i| ((i as i64 * 37 + 11) % 256) - 128).collect()
}

#[test]
fn threaded_runs_are_bit_identical_to_single_threaded() {
    let netlist = sharded_fixture();
    let universe = fixture_universe(&netlist);
    assert!(universe.len() > 63, "fixture must span multiple shards, got {}", universe.len());
    let inputs = fixture_inputs(300);
    let schedule = StageSchedule::with_boundaries(vec![32, 96, 200]);

    let baseline = ParallelFaultSimulator::new(&netlist, &universe)
        .with_options(SimOptions::new().with_schedule(schedule.clone()).with_threads(1))
        .run(&inputs);
    let serial = reference::simulate(&netlist, &universe, &inputs, None);
    assert_eq!(baseline.detection_cycles(), serial.detection_cycles());

    for threads in [2usize, 4, 8] {
        let run = ParallelFaultSimulator::new(&netlist, &universe)
            .with_options(SimOptions::new().with_schedule(schedule.clone()).with_threads(threads))
            .run(&inputs);
        assert_eq!(
            run.detection_cycles(),
            baseline.detection_cycles(),
            "detection cycles differ at {threads} threads"
        );
        assert_eq!(run.missed(), baseline.missed(), "missed set differs at {threads} threads");
        assert_eq!(run.total_cycles(), baseline.total_cycles());
    }
}

#[test]
fn stage_boundary_past_total_cycles_is_harmless() {
    let netlist = sharded_fixture();
    let universe = fixture_universe(&netlist);
    let inputs = fixture_inputs(50);
    // Boundaries beyond the run length (and a degenerate duplicate-free
    // in-range one) must not change results at any thread count.
    let schedule = StageSchedule::with_boundaries(vec![10, 1000, 4096]);
    let serial = reference::simulate(&netlist, &universe, &inputs, None);
    for threads in [1usize, 3] {
        let run = ParallelFaultSimulator::new(&netlist, &universe)
            .with_options(SimOptions::new().with_schedule(schedule.clone()).with_threads(threads))
            .run(&inputs);
        assert_eq!(run.detection_cycles(), serial.detection_cycles(), "threads = {threads}");
        assert_eq!(run.total_cycles(), inputs.len() as u32);
    }
}

#[test]
fn empty_universe_runs_with_worker_threads() {
    // A netlist whose only node chain carries no arithmetic yields an
    // empty fault universe; the sharded loop must handle zero shards.
    let netlist = build(8, &[Op::Register(0), Op::ShiftRight(1, 1)]);
    let ranges = RangeAnalysis::analyze(&netlist, aligned_input_range(8, 8));
    let universe = FaultUniverse::enumerate(&netlist, &ranges);
    assert!(universe.is_empty());
    let inputs = fixture_inputs(20);
    let run = ParallelFaultSimulator::new(&netlist, &universe)
        .with_options(SimOptions::new().with_threads(4))
        .run(&inputs);
    assert_eq!(run.detection_cycles().len(), 0);
    assert!(run.missed().is_empty());
    assert_eq!(run.total_cycles(), inputs.len() as u32);
}

#[cfg(feature = "proptest")]
mod proptests {
    use super::*;
    use bist_faultsim::SignatureConfig;
    use proptest::prelude::*;

    fn op_strategy(max_src: usize) -> impl Strategy<Value = Op> {
        prop_oneof![
            (0..max_src).prop_map(Op::Register),
            (0..max_src, 0u32..5).prop_map(|(s, k)| Op::ShiftRight(s, k)),
            (0..max_src, 0..max_src).prop_map(|(a, b)| Op::Add(a, b)),
            (0..max_src, 0..max_src).prop_map(|(a, b)| Op::Sub(a, b)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn parallel_equals_serial_on_random_netlists(
            ops in proptest::collection::vec(op_strategy(10), 2..10),
            inputs in proptest::collection::vec(-128i64..=127, 4..40),
            boundaries in proptest::collection::btree_set(1u32..38, 0..4),
        ) {
            let netlist = build(8, &ops);
            if netlist.arithmetic_ids().is_empty() {
                return Ok(());
            }
            let ranges = RangeAnalysis::analyze(&netlist, aligned_input_range(8, 8));
            let reach = rtl::reachability::Reachability::analyze(&netlist, 8);
            let universe = FaultUniverse::enumerate_pruned(&netlist, &ranges, &reach);
            if universe.is_empty() {
                return Ok(());
            }
            let schedule = StageSchedule::with_boundaries(boundaries.into_iter().collect());
            let parallel = ParallelFaultSimulator::new(&netlist, &universe)
                .with_schedule(schedule)
                .run(&inputs);
            let serial = reference::simulate(&netlist, &universe, &inputs, None);
            prop_assert_eq!(parallel.detection_cycles(), serial.detection_cycles());
        }

        #[test]
        fn signature_verdicts_invariant_across_threads_and_schedules(
            ops in proptest::collection::vec(op_strategy(10), 2..10),
            inputs in proptest::collection::vec(-128i64..=127, 4..40),
            boundaries in proptest::collection::btree_set(1u32..38, 0..4),
            threads in 2usize..6,
        ) {
            // Signature-mode determinism: the per-fault end-of-test
            // signatures, the good signature and the detection cycles
            // must not depend on the worker-thread count or on where
            // the StageSchedule places its repack boundaries.
            let netlist = build(8, &ops);
            if netlist.arithmetic_ids().is_empty() {
                return Ok(());
            }
            let ranges = RangeAnalysis::analyze(&netlist, aligned_input_range(8, 8));
            let reach = rtl::reachability::Reachability::analyze(&netlist, 8);
            let universe = FaultUniverse::enumerate_pruned(&netlist, &ranges, &reach);
            if universe.is_empty() {
                return Ok(());
            }
            let cfg = SignatureConfig { width: 16, poly: 0x1100B };
            let reference = ParallelFaultSimulator::new(&netlist, &universe)
                .with_options(
                    SimOptions::new()
                        .with_schedule(StageSchedule::with_boundaries(vec![]))
                        .with_threads(1)
                        .with_signature(cfg),
                )
                .run(&inputs);
            let schedule = StageSchedule::with_boundaries(boundaries.into_iter().collect());
            let run = ParallelFaultSimulator::new(&netlist, &universe)
                .with_options(
                    SimOptions::new()
                        .with_schedule(schedule)
                        .with_threads(threads)
                        .with_signature(cfg),
                )
                .run(&inputs);
            prop_assert_eq!(run.detection_cycles(), reference.detection_cycles());
            prop_assert_eq!(run.signatures(), reference.signatures());
            prop_assert_eq!(run.aliased(), reference.aliased());
        }

        #[test]
        fn pruned_universe_never_contains_more_than_unpruned(
            ops in proptest::collection::vec(op_strategy(8), 2..8),
        ) {
            let netlist = build(8, &ops);
            let ranges = RangeAnalysis::analyze(&netlist, aligned_input_range(8, 8));
            let reach = rtl::reachability::Reachability::analyze(&netlist, 8);
            let pruned = FaultUniverse::enumerate_pruned(&netlist, &ranges, &reach);
            let plain = FaultUniverse::enumerate(&netlist, &ranges);
            prop_assert!(pruned.len() <= plain.len());
            prop_assert!(pruned.uncollapsed_len() <= plain.uncollapsed_len());
        }

        #[test]
        fn pruning_never_removes_a_detectable_fault(
            ops in proptest::collection::vec(op_strategy(8), 2..8),
            inputs in proptest::collection::vec(-128i64..=127, 4..32),
        ) {
            // Soundness of redundancy elimination: every fault detected when
            // simulating the UNPRUNED universe must still exist (and be
            // detected at the same cycle) in the pruned universe's results.
            let netlist = build(8, &ops);
            if netlist.arithmetic_ids().is_empty() {
                return Ok(());
            }
            let ranges = RangeAnalysis::analyze(&netlist, aligned_input_range(8, 8));
            let reach = rtl::reachability::Reachability::analyze(&netlist, 8);
            let plain = FaultUniverse::enumerate(&netlist, &ranges);
            let pruned = FaultUniverse::enumerate_pruned(&netlist, &ranges, &reach);

            let plain_result = ParallelFaultSimulator::new(&netlist, &plain).run(&inputs);
            // Detected (site-identified) faults from the plain run.
            let mut detected_sites = std::collections::HashSet::new();
            for fid in plain.ids() {
                if plain_result.detection_cycles()[fid.index()].is_some() {
                    let s = plain.site(fid);
                    detected_sites.insert((s.node, s.cell, s.representative));
                }
            }
            // Every *representative* that was detected and survives pruning
            // keeps its detectability; representatives removed by pruning
            // must never have been detected (they are provably redundant).
            let mut pruned_sites = std::collections::HashSet::new();
            for fid in pruned.ids() {
                let s = pruned.site(fid);
                pruned_sites.insert((s.node, s.cell, s.representative));
            }
            for site in &detected_sites {
                // A detected representative may have been merged into a
                // different class representative under the tighter mask, so
                // only assert on sites that vanish entirely: the (node, cell)
                // must still carry some faults unless every fault there was
                // pruned as redundant — in which case detection would have
                // been impossible. Check the strong per-representative form
                // only when the representative itself survives.
                if pruned_sites.contains(site) {
                    continue;
                }
                // Representative merged or pruned: the cell must still exist
                // in the pruned universe if a fault there was detectable.
                let cell_survives = pruned
                    .sites()
                    .iter()
                    .any(|s| s.node == site.0 && s.cell == site.1);
                prop_assert!(
                    cell_survives,
                    "cell {:?}/{} had a detectable fault but was fully pruned",
                    site.0,
                    site.1
                );
            }
        }
    }
}
