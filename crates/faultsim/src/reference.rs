//! The reference fault simulator: the plain BIST flow — test source →
//! circuit under test → response compare and MISR — with none of
//! [`ParallelFaultSimulator`](crate::ParallelFaultSimulator)'s
//! scheduling.
//!
//! Faults are packed 63 to a graph-walking [`BitSlicedSim`] (lane 0 is
//! the fault-free machine), and every pack runs the whole netlist from
//! cycle 0 to the last vector. There are no stages, worker threads,
//! cone tapes or fault-free recordings, and no register or signature
//! state is carried from one machine to another. A bug in the
//! scheduler's stage repack, survivor carry or MISR carry therefore
//! cannot reach this simulator, which is what makes it the oracle the
//! parity tests and the `experiments kernel` cell hold the scheduler
//! to. It is slow (one walker per pack over every cycle) and meant
//! for tests and checks, not campaigns.

use crate::fault::{FaultId, FaultUniverse};
use crate::sim::{FaultSimResult, SignatureConfig, SignatureSet, LANES_PER_PASS};
use rtl::misr::MisrBank;
use rtl::sim::{BitSlicedSim, CellFault};
use rtl::{Netlist, NodeId};
use std::collections::BTreeMap;

/// Simulates every fault of `universe` over the whole input sequence
/// (one raw input word per cycle, aligned to the netlist's input
/// width) and returns the same [`FaultSimResult`] the parallel
/// simulator reports: each fault's first detection cycle and, with
/// `signature` set, every lane's end-of-test MISR state.
///
/// With no faults or no inputs every signature reads the reset state
/// 0, as the parallel simulator reports it.
///
/// # Panics
///
/// Panics if `inputs` is longer than `u32::MAX` cycles, or if the
/// signature width has no valid MISR (`1..=63`).
pub fn simulate(
    netlist: &Netlist,
    universe: &FaultUniverse,
    inputs: &[i64],
    signature: Option<SignatureConfig>,
) -> FaultSimResult {
    let total = u32::try_from(inputs.len()).expect("test length fits the u32 cycle counter");
    let mut detection_cycle = vec![None; universe.len()];
    let mut good = 0;
    let mut per_fault = vec![0; universe.len()];
    let ids: Vec<FaultId> = universe.ids().collect();
    for pack in ids.chunks(LANES_PER_PASS) {
        let mut sim = BitSlicedSim::new(netlist);
        let mut per_node: BTreeMap<NodeId, Vec<CellFault>> = BTreeMap::new();
        for (slot, &fid) in pack.iter().enumerate() {
            let site = universe.site(fid);
            per_node.entry(site.node).or_default().push(CellFault {
                cell: site.cell,
                fault: site.representative,
                lanes: 1 << (slot + 1),
            });
        }
        for (node, faults) in per_node {
            sim.set_faults(node, faults);
        }
        let mut bank = signature.map(|cfg| {
            MisrBank::with_polynomial(cfg.width, cfg.poly).expect("signature width in 1..=63")
        });
        let mut undetected = (1..=pack.len()).fold(0u64, |m, lane| m | 1 << lane);
        for (cycle, &x) in (0u32..).zip(inputs) {
            sim.step(x);
            if let Some(bank) = bank.as_mut() {
                sim.fold_outputs(bank);
            }
            let mut diff = sim.output_diff_lanes(0) & undetected;
            undetected &= !diff;
            while diff != 0 {
                let lane = diff.trailing_zeros() as usize;
                diff &= diff - 1;
                detection_cycle[pack[lane - 1].index()] = Some(cycle);
            }
            // A signature exists only at the end of the test, so only
            // compare mode may stop a fully detected pack early.
            if undetected == 0 && bank.is_none() {
                break;
            }
        }
        if let Some(bank) = bank {
            good = bank.lane_signature(0);
            for (lane, &fid) in (1u32..).zip(pack) {
                per_fault[fid.index()] = bank.lane_signature(lane);
            }
        }
    }
    FaultSimResult {
        detection_cycle,
        total_cycles: total,
        signatures: signature.map(|_| SignatureSet { good, per_fault }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtl::range::{aligned_input_range, RangeAnalysis};
    use rtl::NetlistBuilder;

    fn fixture() -> (Netlist, FaultUniverse, Vec<i64>) {
        let mut b = NetlistBuilder::new(8).unwrap();
        let x = b.input("x");
        let d1 = b.register(x);
        let t = b.shift_right(d1, 1);
        let a = b.add(x, t);
        let d2 = b.register(a);
        let y = b.sub(a, d2);
        b.output(y, "y");
        let n = b.finish().unwrap();
        let u =
            FaultUniverse::enumerate(&n, &RangeAnalysis::analyze(&n, aligned_input_range(8, 8)));
        let inputs = (0..80).map(|i| ((i * 53 + 7) % 256) - 128).collect();
        (n, u, inputs)
    }

    #[test]
    fn packed_verdicts_equal_each_fault_simulated_alone() {
        let (n, u, inputs) = fixture();
        assert!(u.len() > LANES_PER_PASS, "the fixture must span several packs");
        let cfg = SignatureConfig { width: 16, poly: 0x1100B };
        let packed = simulate(&n, &u, &inputs, Some(cfg));
        let sigs = packed.signatures().unwrap();
        for fid in u.ids() {
            let alone = simulate(&n, &u.subset(&[fid]), &inputs, Some(cfg));
            assert_eq!(alone.detection_cycles()[0], packed.detection_cycles()[fid.index()]);
            assert_eq!(alone.signatures().unwrap().per_fault[0], sigs.per_fault[fid.index()]);
            assert_eq!(alone.good_signature(), Some(sigs.good));
        }
        let compare = simulate(&n, &u, &inputs, None);
        assert_eq!(compare.detection_cycles(), packed.detection_cycles());
        assert!(compare.signatures().is_none());
    }
}
