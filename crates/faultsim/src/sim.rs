use crate::fault::{FaultId, FaultUniverse};
use crate::kernel::{Cone, Fanout, KernelSim, Recording, Tape};
use obs::Registry;
use rtl::misr::MisrBank;
use rtl::sim::CellFault;
use rtl::Netlist;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A shared cooperative-cancellation handle: an atomic flag plus an
/// optional hard deadline. Clones observe the same flag, so a token
/// handed to a long fault-simulation run can be cancelled from another
/// thread (the campaign daemon's `CancelJob` path). The simulator
/// polls the token at every [`StageSchedule`] boundary and every 256
/// cycles inside each shard group (and of the good machine), so
/// cancellation latency is bounded by 256 cycles of one group rather
/// than by a whole stage, and a run that completes was never
/// perturbed.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A fresh, uncancelled token with no deadline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a hard deadline: the token reads as cancelled once
    /// `deadline` passes, with no explicit [`CancelToken::cancel`] call.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Requests cancellation; every clone of this token observes it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation was requested or the deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Whether the token reads cancelled *because of its deadline*
    /// (used to distinguish "timed out" from "cancelled" job states).
    pub fn deadline_exceeded(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// The error a cancellable fault-simulation run returns when a poll of
/// its [`CancelToken`] read cancelled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cancelled {
    /// The cycle simulation stopped at: the start of an unentered
    /// stage, or the polled cycle inside a stage (the earliest one
    /// when several groups saw the token fire). A run cancelled while
    /// the good machine advances over a stage stops at that stage's
    /// start.
    pub at_cycle: u32,
}

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault simulation cancelled at cycle {}", self.at_cycle)
    }
}

impl Error for Cancelled {}

/// Faulty machines per 64-lane bit-sliced pass (lane 0 is the good
/// machine).
pub(crate) const LANES_PER_PASS: usize = 63;

/// Fault shards batched into one kernel machine: the tape executes
/// this many independent 64-lane pattern words per op, so the
/// serialized ripple-carry chain of one shard pipelines against its
/// neighbours' and the per-op decode cost is amortized. Stages with
/// too few shards to feed every worker narrow it (see
/// [`group_width`]).
const KERNEL_WORDS: usize = 16;

/// Cycles between cancellation polls inside a shard group.
const CANCEL_POLL_CYCLES: u32 = 256;

/// Longest stage the simulator runs: longer schedule stages are split
/// into windows of this many cycles. The good-machine recording holds
/// one stage, so this bounds its memory (one bit per slot per cycle)
/// whatever the test length; the extra repack points cannot change a
/// verdict.
const MAX_STAGE_CYCLES: u32 = 4096;

/// Staged fault-dropping schedule: simulation restarts lane packing at
/// each boundary, carrying every surviving faulty machine's register
/// state across. Early stages are short so the bulk of (easy) faults is
/// dropped after few cycles; only the hard tail pays for the full test
/// length. Stages longer than 4096 cycles are run as 4096-cycle windows
/// (extra repack points, which never change a verdict).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSchedule {
    boundaries: Vec<u32>,
}

impl StageSchedule {
    /// The default schedule: repack at cycles 64, 256 and 1024.
    pub fn new() -> Self {
        StageSchedule { boundaries: vec![64, 256, 1024] }
    }

    /// A custom schedule from ascending repack cycles.
    ///
    /// # Panics
    ///
    /// Panics if the boundaries are not strictly ascending.
    pub fn with_boundaries(boundaries: Vec<u32>) -> Self {
        assert!(boundaries.windows(2).all(|w| w[0] < w[1]), "boundaries must ascend");
        StageSchedule { boundaries }
    }

    /// Stage extents `(start, end)` for a test of `total` cycles, each
    /// at most [`MAX_STAGE_CYCLES`] long.
    fn stages(&self, total: u32) -> Vec<(u32, u32)> {
        let mut ends: Vec<u32> = self.boundaries.iter().copied().filter(|&b| b < total).collect();
        ends.push(total);
        let mut out = Vec::new();
        let mut start = 0u32;
        for end in ends {
            while start < end {
                let stop = end.min(start.saturating_add(MAX_STAGE_CYCLES));
                out.push((start, stop));
                start = stop;
            }
        }
        out
    }
}

impl Default for StageSchedule {
    fn default() -> Self {
        Self::new()
    }
}

/// Configuration of the response-compacting signature register used by
/// [`SimOptions::with_signature`]: the MISR's width and feedback
/// polynomial (see [`rtl::misr`]). The simulator takes the polynomial
/// as data — choosing one (the tabulated primitive polynomials live in
/// the `tpg` crate) is the session layer's job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignatureConfig {
    /// Register width in bits (`1..=63`).
    pub width: u32,
    /// Feedback polynomial; an `x^width` term, if present, is ignored.
    pub poly: u64,
}

/// Options controlling a fault-simulation run: the fault-dropping
/// [`StageSchedule`] and the number of worker threads the fault
/// universe is sharded across.
///
/// Results are **bit-identical at every thread count**: each 63-fault
/// shard is an independent bit-sliced machine whose detection cycles do
/// not depend on any other shard, and shard outcomes are merged at
/// every stage boundary in a deterministic order.
#[derive(Debug, Clone)]
pub struct SimOptions {
    schedule: StageSchedule,
    threads: usize,
    metrics: Option<Arc<Registry>>,
    cancel: Option<CancelToken>,
    signature: Option<SignatureConfig>,
}

impl SimOptions {
    /// Default options: the default stage schedule, one worker per
    /// available core, no metrics, not cancellable, direct-compare
    /// detection (no signature compaction).
    pub fn new() -> Self {
        SimOptions {
            schedule: StageSchedule::new(),
            threads: 0,
            metrics: None,
            cancel: None,
            signature: None,
        }
    }

    /// Overrides the fault-dropping stage schedule.
    pub fn with_schedule(mut self, schedule: StageSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Overrides the worker-thread count. `0` (the default) means one
    /// worker per core reported by
    /// [`std::thread::available_parallelism`].
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Attaches a metric registry. The simulator records per-stage
    /// spans (`faultsim.stage<i>`), per-shard and merge latency
    /// histograms (`faultsim.shard_ms`, `faultsim.merge_ms`) and
    /// stage/shard/fault counters into it. Purely observational:
    /// detection results are bit-identical with and without metrics.
    pub fn with_metrics(mut self, metrics: Arc<Registry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The attached metric registry, if any.
    pub fn metrics(&self) -> Option<&Arc<Registry>> {
        self.metrics.as_ref()
    }

    /// Attaches a cancellation token, polled at every stage boundary
    /// and every 256 cycles inside each shard group by
    /// [`ParallelFaultSimulator::try_run`].
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// The attached cancellation token, if any.
    pub fn cancel(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Enables signature mode: every lane folds its output stream into
    /// a per-lane MISR ([`rtl::misr::MisrBank`]) inside the bit-sliced
    /// inner loop, and the run reports per-fault end-of-test signatures
    /// next to the direct-compare detection cycles.
    ///
    /// Two semantic consequences, both faithful to a hardware MISR
    /// readout at the end of the test:
    ///
    /// * **No fault dropping.** A signature exists only at the end of
    ///   the full test, so every faulty machine is simulated to the
    ///   last vector; [`StageSchedule`] boundaries become pure repack
    ///   (and cancellation) points. Expect signature runs to cost more
    ///   wall-clock than compare runs — that cost is what the O(lanes)
    ///   response memory buys.
    /// * **Aliasing is observable.** A fault whose output stream
    ///   diverged (compare-detected) but whose final signature equals
    ///   the fault-free one escapes the signature check; such faults
    ///   are reported by [`FaultSimResult::aliased`], never silently
    ///   dropped. Detection cycles themselves stay bit-identical to a
    ///   compare-mode run.
    pub fn with_signature(mut self, signature: SignatureConfig) -> Self {
        self.signature = Some(signature);
        self
    }

    /// The signature configuration, if signature mode is enabled.
    pub fn signature(&self) -> Option<SignatureConfig> {
        self.signature
    }

    /// The configured stage schedule.
    pub fn schedule(&self) -> &StageSchedule {
        &self.schedule
    }

    /// The configured thread count (`0` = auto-detect).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The thread count a run will actually use: the configured count,
    /// or the machine's available parallelism when unset.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        }
    }
}

impl Default for SimOptions {
    fn default() -> Self {
        Self::new()
    }
}

/// End-of-test signatures of a signature-mode run (see
/// [`SimOptions::with_signature`]): the fault-free machine's signature
/// plus one final MISR state per fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignatureSet {
    /// The fault-free machine's end-of-test signature.
    pub good: u64,
    /// Each fault's end-of-test signature, indexed by
    /// [`FaultId::index`].
    pub per_fault: Vec<u64>,
}

/// Result of a fault-simulation run.
#[derive(Debug, Clone)]
pub struct FaultSimResult {
    pub(crate) detection_cycle: Vec<Option<u32>>,
    pub(crate) total_cycles: u32,
    pub(crate) signatures: Option<SignatureSet>,
}

impl FaultSimResult {
    /// First cycle (0-based) at which each fault was detected, `None`
    /// for missed faults. Indexed by [`FaultId::index`].
    pub fn detection_cycles(&self) -> &[Option<u32>] {
        &self.detection_cycle
    }

    /// Length of the applied test sequence.
    pub fn total_cycles(&self) -> u32 {
        self.total_cycles
    }

    /// Number of detected faults.
    pub fn detected_count(&self) -> usize {
        self.detection_cycle.iter().filter(|d| d.is_some()).count()
    }

    /// Ids of faults never detected.
    pub fn missed(&self) -> Vec<FaultId> {
        self.detection_cycle
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_none())
            .map(|(i, _)| FaultId(i as u32))
            .collect()
    }

    /// Number of faults still undetected after `cycle` vectors.
    pub fn missed_after(&self, cycle: u32) -> usize {
        self.detection_cycle.iter().filter(|d| d.is_none_or(|c| c >= cycle)).count()
    }

    /// Fault coverage (fraction detected) after `cycle` vectors.
    pub fn coverage_after(&self, cycle: u32) -> f64 {
        if self.detection_cycle.is_empty() {
            return 1.0;
        }
        1.0 - self.missed_after(cycle) as f64 / self.detection_cycle.len() as f64
    }

    /// Coverage curve sampled at the given cycle counts.
    pub fn curve(&self, cycles: &[u32]) -> Vec<(u32, f64)> {
        cycles.iter().map(|&c| (c, self.coverage_after(c))).collect()
    }

    /// The end-of-test signatures, when the run compacted responses
    /// (`None` for direct-compare runs).
    pub fn signatures(&self) -> Option<&SignatureSet> {
        self.signatures.as_ref()
    }

    /// The fault-free machine's end-of-test signature, in signature
    /// mode.
    pub fn good_signature(&self) -> Option<u64> {
        self.signatures.as_ref().map(|s| s.good)
    }

    /// Faults that *escape* the signature check: compare-detected (the
    /// output stream diverged at some cycle) yet ending with a
    /// signature equal to the fault-free one. Empty for compare-mode
    /// runs, and expected empty for a well-sized MISR — the analytical
    /// escape probability is ≈ `2^-width` per detected fault (the
    /// `L4xx` lints budget it; `DESIGN.md` §10 derives it).
    pub fn aliased(&self) -> Vec<FaultId> {
        let Some(sigs) = &self.signatures else { return Vec::new() };
        self.detection_cycle
            .iter()
            .enumerate()
            .filter(|&(i, d)| d.is_some() && sigs.per_fault[i] == sigs.good)
            .map(|(i, _)| FaultId(i as u32))
            .collect()
    }

    /// Number of faults a signature-only tester would flag: final
    /// signature differs from the fault-free one. Equals
    /// [`FaultSimResult::detected_count`] minus the aliased count. In
    /// compare mode this is just `detected_count`.
    pub fn signature_detected_count(&self) -> usize {
        self.detected_count() - self.aliased().len()
    }

    /// Expands a collapsed-universe result back to a full universe:
    /// full-universe fault `i` takes the verdict (detection cycle and,
    /// in signature mode, end-of-test signature) of the representative
    /// class `class_map[i]` it collapsed into. Because every shard's
    /// detection cycle is intrinsic to its fault — independent of
    /// shard-mates and stage packing — a representative's verdict *is*
    /// the verdict every exactly-equivalent member would have received,
    /// so the expanded result is byte-identical to simulating the full
    /// universe directly.
    ///
    /// # Panics
    ///
    /// Panics if a class index is out of range for this result.
    pub fn expand_classes(&self, class_map: &[u32]) -> FaultSimResult {
        let detection_cycle = class_map.iter().map(|&c| self.detection_cycle[c as usize]).collect();
        let signatures = self.signatures.as_ref().map(|s| SignatureSet {
            good: s.good,
            per_fault: class_map.iter().map(|&c| s.per_fault[c as usize]).collect(),
        });
        FaultSimResult { detection_cycle, total_cycles: self.total_cycles, signatures }
    }
}

/// One faulty machine's carried state at a stage boundary: its
/// register snapshot plus, in signature mode, its partially
/// accumulated MISR state.
#[derive(Clone)]
struct MachineState {
    regs: Vec<u64>,
    misr: u64,
}

/// What one shard group produced over one stage: detections and the
/// machine-state snapshots of the survivors (in signature mode every
/// fault survives — dropping would truncate its signature).
struct ShardOutcome {
    detections: Vec<(FaultId, u32)>,
    survivors: Vec<(FaultId, MachineState)>,
}

/// The fault-free machine: one single-word machine over the whole
/// compiled tape, advanced over each stage just before that stage's
/// groups run, so every cycle of it is simulated once per run.
struct GoodMachine<'a> {
    sim: KernelSim<'a>,
    bank: Option<MisrBank>,
    /// Register state and partial signature at the current cycle.
    state: MachineState,
    /// The slot recording of the current stage, from which cone
    /// machines fill their boundary slots.
    recording: Recording,
}

/// One stage's shared, read-only inputs to every shard group.
struct StageCtx<'s> {
    start: u32,
    end: u32,
    /// Good-machine state at stage start and at stage end.
    entry: &'s MachineState,
    exit: &'s MachineState,
    /// Carried states of the faults that entered this stage.
    states: &'s HashMap<FaultId, MachineState>,
    recording: &'s Recording,
}

/// Shards batched into one machine, with the union of their faults'
/// fanout cones.
struct Group<'g> {
    chunks: &'g [&'g [FaultId]],
    cone: Cone,
}

impl Group<'_> {
    /// Op-words per cycle: the dispatch order's cost model.
    fn cost(&self) -> usize {
        self.cone.op_count() * self.chunks.len()
    }
}

/// Loads one word's register state: every lane from the full-netlist
/// snapshot `base`, then each listed lane from its own full snapshot.
/// A cone machine takes only its in-cone registers.
fn load_registers(sim: &mut KernelSim<'_>, word: usize, base: &[u64], lanes: &[(u32, &[u64])]) {
    let regs = sim.tape().registers();
    let mut states = vec![0u64; regs.len() * 64];
    for (r, &g) in regs.iter().enumerate() {
        states[r * 64..(r + 1) * 64].fill(base[g as usize]);
        for &(lane, full) in lanes {
            states[r * 64 + lane as usize] = full[g as usize];
        }
    }
    sim.set_register_states_in_word(word, &states);
}

/// Full-netlist register snapshots of the lanes set in `lanes` of one
/// word, in lane order: the machine's own registers, laid over
/// `outside` for registers outside its cone.
fn save_registers(sim: &KernelSim<'_>, word: usize, lanes: u64, outside: &[u64]) -> Vec<Vec<u64>> {
    let states = sim.register_states_in_word(word);
    let regs = sim.tape().registers();
    (0..64u32)
        .filter(|l| lanes >> l & 1 == 1)
        .map(|lane| {
            let mut full = outside.to_vec();
            for (r, &g) in regs.iter().enumerate() {
                full[g as usize] = states[r * 64 + lane as usize];
            }
            full
        })
        .collect()
}

/// The staged, sharded, 64-lane parallel fault simulator.
///
/// Three axes of parallelism and pruning compose: within one shard, 63
/// faulty machines plus the good machine are evaluated word-parallel in
/// the bit-sliced lanes of a single `u64`; a group of shards shares
/// one multi-word kernel machine that executes only the group's fanout
/// *cone* of the compiled tape, reading every other plane from a
/// recording of the fault-free machine; and groups are distributed
/// over a scoped worker pool (see [`SimOptions::with_threads`]).
/// Per-shard state is merged at every stage boundary, and results are
/// bit-identical at any thread count.
pub struct ParallelFaultSimulator<'a> {
    netlist: &'a Netlist,
    universe: &'a FaultUniverse,
    options: SimOptions,
}

impl<'a> ParallelFaultSimulator<'a> {
    /// Creates a simulator with default options (default stage
    /// schedule, one worker thread per available core).
    pub fn new(netlist: &'a Netlist, universe: &'a FaultUniverse) -> Self {
        ParallelFaultSimulator { netlist, universe, options: SimOptions::new() }
    }

    /// Overrides all run options.
    pub fn with_options(mut self, options: SimOptions) -> Self {
        self.options = options;
        self
    }

    /// Overrides the stage schedule.
    pub fn with_schedule(mut self, schedule: StageSchedule) -> Self {
        self.options = self.options.with_schedule(schedule);
        self
    }

    /// Overrides the worker-thread count (`0` = one per core).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.options = self.options.with_threads(threads);
        self
    }

    /// Attaches a metric registry (see [`SimOptions::with_metrics`]).
    pub fn with_metrics(mut self, metrics: Arc<Registry>) -> Self {
        self.options = self.options.with_metrics(metrics);
        self
    }

    /// Runs the complete test sequence (one raw input word per cycle,
    /// already aligned to the netlist's input width) against every fault
    /// in the universe.
    ///
    /// Detection is a direct compare of all outputs against the good
    /// machine (no compaction aliasing). Faulty-machine register state
    /// is carried exactly across stage repacks, so results are identical
    /// to simulating each fault individually from cycle 0 — and
    /// identical at every thread count.
    ///
    /// # Panics
    ///
    /// Panics if a [`CancelToken`] attached via
    /// [`SimOptions::with_cancel`] fires mid-run; cancellable callers
    /// must use [`ParallelFaultSimulator::try_run`].
    pub fn run(&self, inputs: &[i64]) -> FaultSimResult {
        self.try_run(inputs).expect("run() without a cancel token cannot be cancelled")
    }

    /// Like [`ParallelFaultSimulator::run`], but polls the attached
    /// [`CancelToken`] (if any) at every [`StageSchedule`] boundary and
    /// every 256 cycles inside each shard group, and returns
    /// [`Cancelled`] at the first poll that reads cancelled.
    ///
    /// # Errors
    ///
    /// [`Cancelled`] when the token fired; partial detection results
    /// are discarded (reruns are cheap relative to serving wrong data).
    pub fn try_run(&self, inputs: &[i64]) -> Result<FaultSimResult, Cancelled> {
        let total = inputs.len() as u32;
        let metrics = self.options.metrics.as_deref();
        let mut detection: Vec<Option<u32>> = vec![None; self.universe.len()];
        if self.universe.is_empty() || total == 0 {
            // Nothing absorbed: every signature is the zero reset state.
            let signatures = self
                .options
                .signature
                .map(|_| SignatureSet { good: 0, per_fault: vec![0; self.universe.len()] });
            let result =
                FaultSimResult { detection_cycle: detection, total_cycles: total, signatures };
            Self::record_totals(metrics, &result);
            return Ok(result);
        }
        let threads = self.options.effective_threads().max(1);
        let stages = self.options.schedule.stages(total);

        // The netlist is compiled once into a tape that is immutable
        // and shared by every thread; each shard group then runs only
        // its faults' fanout cone of it.
        let tape = Tape::compile(self.netlist);
        let fanout = Fanout::new(self.netlist, &tape);
        let mut good = self.good_machine(&tape, total);

        // Surviving faults and their machine states at stage start.
        // Universe order enumerates each node's cells together and the
        // nodes tap by tap, so consecutive faults have nested or equal
        // cones and a shard group's union cone stays close to its
        // members' (DESIGN.md §14).
        let mut active: Vec<FaultId> = self.universe.ids().collect();
        let mut states: HashMap<FaultId, MachineState> = HashMap::new();

        for (stage_index, &(start, end)) in stages.iter().enumerate() {
            if active.is_empty() {
                break;
            }
            self.poll_cancel(start)?;
            let stage_span = metrics.map(|m| obs::span!(m, "faultsim.stage{}", stage_index));
            let entry = good.state.clone();
            {
                let _span = metrics.map(|m| m.span("faultsim.good"));
                self.advance_good(&mut good, inputs, start, end)?;
            }
            let shards: Vec<&[FaultId]> = active.chunks(LANES_PER_PASS).collect();
            // Several shards share one multi-word machine over the union
            // of their cones; each word carries its own faults, banks
            // and survivor snapshots, so the width never changes a
            // verdict.
            let groups: Vec<Group<'_>> = shards
                .chunks(group_width(shards.len(), threads))
                .map(|chunks| Group {
                    chunks,
                    cone: fanout
                        .cone(chunks.iter().flat_map(|c| c.iter()).map(|&fid| self.site_node(fid))),
                })
                .collect();
            if let Some(m) = metrics {
                m.counter("faultsim.stages").inc();
                m.counter("faultsim.shards").add(shards.len() as u64);
                m.counter("faultsim.groups").add(groups.len() as u64);
            }
            let ctx = StageCtx {
                start,
                end,
                entry: &entry,
                exit: &good.state,
                states: &states,
                recording: &good.recording,
            };
            let outcomes = self.run_groups(&tape, &ctx, &groups, threads)?;

            // Stage-boundary merge, in group order.
            let merge_started = metrics.map(|_| Instant::now());
            let mut survivors: Vec<FaultId> = Vec::new();
            let mut new_states: HashMap<FaultId, MachineState> = HashMap::new();
            for outcome in outcomes {
                for (fid, cycle) in outcome.detections {
                    // First detection wins: signature mode keeps detected
                    // faults alive, so later stages re-observe their
                    // (still diverging) outputs.
                    let slot = &mut detection[fid.index()];
                    if slot.is_none() {
                        *slot = Some(cycle);
                    }
                }
                for (fid, state) in outcome.survivors {
                    survivors.push(fid);
                    new_states.insert(fid, state);
                }
            }
            survivors.sort();
            active = survivors;
            states = new_states;
            if let (Some(m), Some(t)) = (metrics, merge_started) {
                m.histogram("faultsim.merge_ms").record(t.elapsed().as_secs_f64() * 1000.0);
            }
            drop(stage_span);
        }

        // Signature readout: every fault survived to the end in
        // signature mode, so its final MISR state sits in `states`.
        let signatures = self.options.signature.map(|_| SignatureSet {
            good: good.state.misr,
            per_fault: (0..self.universe.len())
                .map(|i| states.get(&FaultId(i as u32)).map_or(0, |s| s.misr))
                .collect(),
        });
        let result = FaultSimResult { detection_cycle: detection, total_cycles: total, signatures };
        Self::record_totals(metrics, &result);
        Ok(result)
    }

    fn site_node(&self, fid: FaultId) -> rtl::NodeId {
        self.universe.site(fid).node
    }

    /// `Err(Cancelled { at_cycle })` (counted in the metrics) when the
    /// attached token reads cancelled.
    fn poll_cancel(&self, at_cycle: u32) -> Result<(), Cancelled> {
        if self.options.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            if let Some(m) = self.options.metrics.as_deref() {
                m.counter("faultsim.cancelled_runs").inc();
            }
            return Err(Cancelled { at_cycle });
        }
        Ok(())
    }

    /// The fault-free machine at cycle 0 of a `total`-cycle test: a
    /// single-word machine on the compiled tape, all registers and the
    /// signature at reset.
    fn good_machine<'t>(&self, tape: &'t Tape, total: u32) -> GoodMachine<'t> {
        let sim = KernelSim::new(tape);
        let regs = vec![0u64; self.netlist.register_indices().len()];
        GoodMachine {
            state: MachineState { regs: save_registers(&sim, 0, 1, &regs).remove(0), misr: 0 },
            sim,
            bank: self.options.signature.map(|cfg| {
                MisrBank::with_polynomial(cfg.width, cfg.poly)
                    .expect("signature width validated by the session layer")
            }),
            recording: Recording::new(tape, total.min(MAX_STAGE_CYCLES) as usize),
        }
    }

    /// Advances the fault-free machine over cycles `start..end`,
    /// folding its signature and recording one bit per slot per cycle
    /// for the cone machines' boundary fills.
    fn advance_good(
        &self,
        good: &mut GoodMachine<'_>,
        inputs: &[i64],
        start: u32,
        end: u32,
    ) -> Result<(), Cancelled> {
        good.recording.restart(start as usize);
        for cycle in start..end {
            if (cycle - start).is_multiple_of(CANCEL_POLL_CYCLES) {
                // No faulty machine has left the stage start yet.
                self.poll_cancel(start)?;
            }
            good.sim.step(inputs[cycle as usize]);
            good.recording.capture(&good.sim);
            if let Some(bank) = good.bank.as_mut() {
                good.sim.fold_outputs(bank);
            }
        }
        good.state = MachineState {
            regs: save_registers(&good.sim, 0, 1, &good.state.regs).remove(0),
            misr: good.bank.as_ref().map_or(0, |b| b.lane_signature(0)),
        };
        Ok(())
    }

    /// Runs one stage's groups over the worker pool, costliest cone
    /// first (longest-processing-time order, so no worker idles on a
    /// straggler at the stage tail), and returns their outcomes in
    /// group order. Stops handing out groups once one is cancelled.
    fn run_groups(
        &self,
        tape: &Tape,
        ctx: &StageCtx<'_>,
        groups: &[Group<'_>],
        threads: usize,
    ) -> Result<Vec<ShardOutcome>, Cancelled> {
        let mut order: Vec<usize> = (0..groups.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(groups[i].cost()));
        // Relaxed suffices for both: the counter hands out indices and
        // `stop` is a hint to take no more groups; outcomes travel
        // through the mutex.
        let next = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let collected: Mutex<Vec<(usize, Result<ShardOutcome, Cancelled>)>> =
            Mutex::new(Vec::with_capacity(groups.len()));
        let worker = || {
            let mut local = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(&i) = order.get(k) else { break };
                let outcome = self.simulate_shard_group(tape, ctx, &groups[i]);
                if outcome.is_err() {
                    stop.store(true, Ordering::Relaxed);
                }
                local.push((i, outcome));
            }
            collected.lock().expect("no panics hold the lock").extend(local);
        };
        let workers = threads.min(groups.len());
        if workers <= 1 {
            worker();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(worker);
                }
            });
        }
        let mut indexed = collected.into_inner().expect("workers joined");
        indexed.sort_by_key(|&(i, _)| i);
        let mut outcomes = Vec::with_capacity(indexed.len());
        let mut cancelled: Option<Cancelled> = None;
        for (_, outcome) in indexed {
            match outcome {
                Ok(o) => outcomes.push(o),
                Err(c) => {
                    if cancelled.as_ref().is_none_or(|prev| c.at_cycle < prev.at_cycle) {
                        cancelled = Some(c);
                    }
                }
            }
        }
        match cancelled {
            Some(c) => Err(c),
            None => Ok(outcomes),
        }
    }

    /// Final detected/undetected (and, in signature mode, aliased)
    /// counters for a completed run.
    fn record_totals(metrics: Option<&Registry>, result: &FaultSimResult) {
        if let Some(m) = metrics {
            let detected = result.detected_count();
            m.counter("faultsim.faults_detected").add(detected as u64);
            m.counter("faultsim.faults_undetected")
                .add((result.detection_cycle.len() - detected) as u64);
            if result.signatures.is_some() {
                m.counter("faultsim.faults_aliased").add(result.aliased().len() as u64);
            }
        }
    }

    /// Simulates a group of shards (up to 63 faults each) over one
    /// stage on a single machine, starting every lane of every word
    /// from its stage-entry register state (and, in signature mode, its
    /// partial MISR state). Up to [`KERNEL_WORDS`] shards share one
    /// multi-word kernel machine over the cone tape of the group's
    /// faults. Each word is fully independent of
    /// every other word and of every other group, so groups can run on
    /// any thread in any order.
    fn simulate_shard_group(
        &self,
        tape: &Tape,
        ctx: &StageCtx<'_>,
        group: &Group<'_>,
    ) -> Result<ShardOutcome, Cancelled> {
        let shard_started = self.options.metrics.as_ref().map(|_| Instant::now());
        let chunks = group.chunks;
        let words = chunks.len();
        let cone_tape = tape.restrict(&group.cone);
        let mut sim = KernelSim::with_words(&cone_tape, words);
        let mut banks: Option<Vec<MisrBank>> = self.options.signature.map(|cfg| {
            (0..words)
                .map(|_| {
                    let mut b = MisrBank::with_polynomial(cfg.width, cfg.poly)
                        .expect("signature width validated by the session layer");
                    b.fill(ctx.entry.misr);
                    b
                })
                .collect()
        });
        // All lanes of every word start from the good state, then
        // faulty lanes get their own diverged state (registers and
        // partial signature); finally each word's faults are injected,
        // batched per node.
        for (word, chunk) in chunks.iter().enumerate() {
            let mut diverged: Vec<(u32, &[u64])> = Vec::new();
            for (slot, &fid) in chunk.iter().enumerate() {
                let lane = slot as u32 + 1;
                if let Some(s) = ctx.states.get(&fid) {
                    diverged.push((lane, &s.regs));
                    if let Some(banks) = banks.as_mut() {
                        banks[word].set_lane_signature(lane, s.misr);
                    }
                }
            }
            load_registers(&mut sim, word, &ctx.entry.regs, &diverged);
            let mut per_node: HashMap<rtl::NodeId, Vec<CellFault>> = HashMap::new();
            for (slot, &fid) in chunk.iter().enumerate() {
                let site = self.universe.site(fid);
                per_node.entry(site.node).or_default().push(CellFault {
                    cell: site.cell,
                    fault: site.representative,
                    lanes: 1u64 << (slot + 1),
                });
            }
            for (node, faults) in per_node {
                sim.set_faults_in_word(word, node, faults);
            }
        }

        let mut detections: Vec<(FaultId, u32)> = Vec::new();
        let faulty_lanes = |chunk: &[FaultId]| (1..=chunk.len()).fold(0u64, |m, l| m | 1 << l);
        let mut undetected: Vec<u64> = chunks.iter().map(|c| faulty_lanes(c)).collect();
        let mut live = undetected.iter().filter(|&&m| m != 0).count();
        let mut cycles_run = 0u64;
        for cycle in ctx.start..ctx.end {
            if (cycle - ctx.start).is_multiple_of(CANCEL_POLL_CYCLES) {
                self.poll_cancel(cycle)?;
            }
            sim.step_recorded(ctx.recording.row(cycle as usize));
            cycles_run += 1;
            if let Some(banks) = banks.as_mut() {
                for (word, bank) in banks.iter_mut().enumerate() {
                    sim.fold_outputs_in_word(word, bank);
                }
            }
            for (word, chunk) in chunks.iter().enumerate() {
                let diff = sim.output_diff_lanes_in_word(word, 0) & undetected[word];
                if diff != 0 {
                    let mut d = diff;
                    while d != 0 {
                        let lane = d.trailing_zeros();
                        d &= d - 1;
                        detections.push((chunk[(lane - 1) as usize], cycle));
                    }
                    undetected[word] &= !diff;
                    if undetected[word] == 0 {
                        live -= 1;
                    }
                }
            }
            // Compare mode drops a fully detected group early; a
            // signature only exists at end of test, so signature mode
            // always plays the stage out.
            if live == 0 && banks.is_none() {
                break;
            }
        }
        // Snapshot survivors' states for the next stage: the undetected
        // lanes in compare mode, every lane in signature mode. Registers
        // outside the cone hold the good machine's stage-end state.
        let mut survivors: Vec<(FaultId, MachineState)> = Vec::new();
        for (word, chunk) in chunks.iter().enumerate() {
            let lanes = if banks.is_some() { faulty_lanes(chunk) } else { undetected[word] };
            let lane_ids = (1..64u32).filter(|l| lanes >> l & 1 == 1);
            for (lane, regs) in lane_ids.zip(save_registers(&sim, word, lanes, &ctx.exit.regs)) {
                survivors.push((
                    chunk[(lane - 1) as usize],
                    MachineState {
                        regs,
                        misr: banks.as_ref().map_or(0, |b| b[word].lane_signature(lane)),
                    },
                ));
            }
        }
        if let Some(m) = self.options.metrics.as_deref() {
            m.counter("faultsim.op_words")
                .add(cone_tape.op_count() as u64 * words as u64 * cycles_run);
            m.counter("faultsim.boundary_fills").add(cone_tape.fill_count() as u64 * cycles_run);
            if let Some(t) = shard_started {
                m.histogram("faultsim.shard_ms").record(t.elapsed().as_secs_f64() * 1000.0);
            }
        }
        Ok(ShardOutcome { detections, survivors })
    }
}

/// The kernel's shard-group width for a stage of `shards` shards: the
/// widest monomorphized word count that still gives each of `threads`
/// workers a group, so late trace-mode stages with few survivors keep
/// every worker busy. Each word is independent, so the width never
/// changes a verdict.
fn group_width(shards: usize, threads: usize) -> usize {
    [KERNEL_WORDS, 8, 4, 2].into_iter().find(|&w| shards.div_ceil(w) >= threads).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultUniverse;
    use crate::reference;
    use rtl::range::{aligned_input_range, RangeAnalysis};
    use rtl::{Netlist, NetlistBuilder};

    fn filterish(width: u32) -> Netlist {
        // Three-tap FIR-ish structure with shifts and a subtractor.
        let mut b = NetlistBuilder::new(width).unwrap();
        let x = b.input("x");
        let t0 = b.shift_right(x, 1);
        let d1 = b.register(x);
        let t1 = b.shift_right(d1, 2);
        let a1 = b.add_labeled(t0, t1, "a1");
        let d2 = b.register(d1);
        let t2 = b.shift_right(d2, 3);
        let a2 = b.sub_labeled(a1, t2, "a2");
        b.output(a2, "y");
        b.finish().unwrap()
    }

    fn universe(n: &Netlist) -> FaultUniverse {
        let r = RangeAnalysis::analyze(n, aligned_input_range(n.width(), n.width()));
        FaultUniverse::enumerate(n, &r)
    }

    fn pseudo_inputs(n: usize, width: u32) -> Vec<i64> {
        let mut state = 0x123456789ABCDEFu64;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                fixedpoint::QFormat::new(width, width - 1)
                    .unwrap()
                    .sign_extend(state >> (64 - width))
            })
            .collect()
    }

    #[test]
    fn parallel_matches_serial_reference() {
        let n = filterish(10);
        let u = universe(&n);
        let inputs = pseudo_inputs(100, 10);
        let parallel = ParallelFaultSimulator::new(&n, &u)
            .with_schedule(StageSchedule::with_boundaries(vec![16, 48]))
            .run(&inputs);
        let serial = reference::simulate(&n, &u, &inputs, None);
        assert_eq!(parallel.detection_cycles(), serial.detection_cycles());
    }

    #[test]
    fn repacking_preserves_detection_times() {
        let n = filterish(10);
        let u = universe(&n);
        let inputs = pseudo_inputs(120, 10);
        let one_stage = ParallelFaultSimulator::new(&n, &u)
            .with_schedule(StageSchedule::with_boundaries(vec![]))
            .run(&inputs);
        let many_stages = ParallelFaultSimulator::new(&n, &u)
            .with_schedule(StageSchedule::with_boundaries(vec![8, 16, 32, 64]))
            .run(&inputs);
        assert_eq!(one_stage.detection_cycles(), many_stages.detection_cycles());
    }

    #[test]
    fn most_faults_detected_by_random_patterns() {
        let n = filterish(12);
        let u = universe(&n);
        let inputs = pseudo_inputs(512, 12);
        let result = ParallelFaultSimulator::new(&n, &u).run(&inputs);
        let coverage = result.coverage_after(512);
        assert!(coverage > 0.9, "coverage {coverage}");
    }

    #[test]
    fn coverage_is_monotone_in_test_length() {
        let n = filterish(12);
        let u = universe(&n);
        let inputs = pseudo_inputs(256, 12);
        let result = ParallelFaultSimulator::new(&n, &u).run(&inputs);
        let mut prev = 0.0;
        for c in [1u32, 4, 16, 64, 256] {
            let cov = result.coverage_after(c);
            assert!(cov >= prev);
            prev = cov;
        }
    }

    #[test]
    fn empty_inputs_detect_nothing() {
        let n = filterish(10);
        let u = universe(&n);
        let result = ParallelFaultSimulator::new(&n, &u).run(&[]);
        assert_eq!(result.detected_count(), 0);
        assert_eq!(result.missed().len(), u.len());
    }

    #[test]
    fn missed_after_interpolates_curve() {
        let n = filterish(10);
        let u = universe(&n);
        let inputs = pseudo_inputs(64, 10);
        let result = ParallelFaultSimulator::new(&n, &u).run(&inputs);
        assert_eq!(result.missed_after(0), u.len());
        assert_eq!(result.missed_after(64), result.missed().len());
        let curve = result.curve(&[0, 16, 64]);
        assert_eq!(curve.len(), 3);
        assert_eq!(curve[0].1, 0.0);
    }

    #[test]
    #[should_panic(expected = "ascend")]
    fn bad_schedule_panics() {
        StageSchedule::with_boundaries(vec![64, 64]);
    }

    #[test]
    fn sharded_runs_match_serial_at_every_thread_count() {
        let n = filterish(10);
        let u = universe(&n);
        let inputs = pseudo_inputs(150, 10);
        let serial = reference::simulate(&n, &u, &inputs, None);
        for threads in [1usize, 2, 3, 4, 8] {
            let result = ParallelFaultSimulator::new(&n, &u)
                .with_schedule(StageSchedule::with_boundaries(vec![16, 48, 96]))
                .with_threads(threads)
                .run(&inputs);
            assert_eq!(
                result.detection_cycles(),
                serial.detection_cycles(),
                "threads = {threads} diverged from serial"
            );
        }
    }

    #[test]
    fn instrumentation_observes_without_changing_results() {
        let n = filterish(10);
        let u = universe(&n);
        let inputs = pseudo_inputs(150, 10);
        let plain = ParallelFaultSimulator::new(&n, &u)
            .with_schedule(StageSchedule::with_boundaries(vec![16, 48]))
            .with_threads(2)
            .run(&inputs);

        let registry = Arc::new(Registry::new());
        let metered = ParallelFaultSimulator::new(&n, &u)
            .with_schedule(StageSchedule::with_boundaries(vec![16, 48]))
            .with_threads(2)
            .with_metrics(Arc::clone(&registry))
            .run(&inputs);
        assert_eq!(plain.detection_cycles(), metered.detection_cycles());

        let s = registry.snapshot();
        let stages = s.counters["faultsim.stages"];
        assert!(
            (1..=3).contains(&stages),
            "16/48 boundaries over 150 cycles give at most 3 stages, got {stages}"
        );
        assert!(s.counters["faultsim.shards"] >= stages, "one shard minimum per stage");
        assert_eq!(
            s.counters["faultsim.faults_detected"] + s.counters["faultsim.faults_undetected"],
            u.len() as u64
        );
        assert_eq!(s.counters["faultsim.faults_detected"], metered.detected_count() as u64);
        // Every stage span recorded, shard and merge latencies sampled.
        for stage in 0..stages {
            assert_eq!(
                s.spans.iter().filter(|sp| sp.name == format!("faultsim.stage{stage}")).count(),
                1
            );
        }
        // The dispatch-latency histogram samples once per machine
        // dispatch — a group of shards — so it tracks the group
        // counter, not the shard one.
        assert_eq!(s.histograms["faultsim.shard_ms"].count, s.counters["faultsim.groups"]);
        assert!(s.counters["faultsim.groups"] <= s.counters["faultsim.shards"]);
        assert_eq!(s.histograms["faultsim.merge_ms"].count, stages);
    }

    #[test]
    fn empty_run_still_reports_totals() {
        let n = filterish(10);
        let u = universe(&n);
        let registry = Arc::new(Registry::new());
        let result =
            ParallelFaultSimulator::new(&n, &u).with_metrics(Arc::clone(&registry)).run(&[]);
        assert_eq!(result.detected_count(), 0);
        let s = registry.snapshot();
        assert_eq!(s.counters["faultsim.faults_detected"], 0);
        assert_eq!(s.counters["faultsim.faults_undetected"], u.len() as u64);
    }

    #[test]
    fn pre_cancelled_token_stops_at_the_first_boundary() {
        let n = filterish(10);
        let u = universe(&n);
        let inputs = pseudo_inputs(150, 10);
        let token = CancelToken::new();
        token.cancel();
        let err = ParallelFaultSimulator::new(&n, &u)
            .with_options(SimOptions::new().with_cancel(token))
            .try_run(&inputs)
            .unwrap_err();
        assert_eq!(err.at_cycle, 0);
        assert!(err.to_string().contains("cycle 0"), "{err}");
    }

    #[test]
    fn deadline_cancels_between_stages() {
        let n = filterish(10);
        let u = universe(&n);
        let inputs = pseudo_inputs(512, 10);
        // Already-expired deadline: the run must stop at some boundary
        // of the many-stage schedule without an explicit cancel().
        let token = CancelToken::new().with_deadline(Instant::now());
        assert!(token.deadline_exceeded());
        let registry = Arc::new(Registry::new());
        let err = ParallelFaultSimulator::new(&n, &u)
            .with_options(
                SimOptions::new()
                    .with_cancel(token)
                    .with_metrics(Arc::clone(&registry))
                    .with_schedule(StageSchedule::with_boundaries(vec![8, 16, 32, 64, 128, 256])),
            )
            .try_run(&inputs)
            .unwrap_err();
        assert_eq!(err.at_cycle, 0);
        assert_eq!(registry.snapshot().counters["faultsim.cancelled_runs"], 1);
    }

    #[test]
    fn uncancelled_token_does_not_change_results() {
        let n = filterish(10);
        let u = universe(&n);
        let inputs = pseudo_inputs(150, 10);
        let plain = ParallelFaultSimulator::new(&n, &u)
            .with_schedule(StageSchedule::with_boundaries(vec![16, 48]))
            .run(&inputs);
        let token = CancelToken::new();
        let watched = ParallelFaultSimulator::new(&n, &u)
            .with_options(
                SimOptions::new()
                    .with_schedule(StageSchedule::with_boundaries(vec![16, 48]))
                    .with_cancel(token.clone()),
            )
            .try_run(&inputs)
            .unwrap();
        assert_eq!(plain.detection_cycles(), watched.detection_cycles());
        assert!(!token.is_cancelled());
    }

    #[test]
    fn token_clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!b.is_cancelled());
        a.cancel();
        assert!(b.is_cancelled());
        assert!(!b.deadline_exceeded(), "no deadline was attached");
    }

    /// The workspace's tabulated 16-bit primitive polynomial
    /// (`x^16 + x^12 + x^3 + x + 1`), restated here so these tests pin
    /// concrete hardware rather than a table lookup.
    const SIG16: SignatureConfig = SignatureConfig { width: 16, poly: 0x1100B };

    #[test]
    fn signature_mode_keeps_detection_cycles_bit_identical() {
        let n = filterish(10);
        let u = universe(&n);
        let inputs = pseudo_inputs(150, 10);
        let compare = ParallelFaultSimulator::new(&n, &u)
            .with_schedule(StageSchedule::with_boundaries(vec![16, 48]))
            .run(&inputs);
        let signature = ParallelFaultSimulator::new(&n, &u)
            .with_options(
                SimOptions::new()
                    .with_schedule(StageSchedule::with_boundaries(vec![16, 48]))
                    .with_signature(SIG16),
            )
            .run(&inputs);
        assert_eq!(compare.detection_cycles(), signature.detection_cycles());
        assert!(compare.signatures().is_none());
        assert!(compare.aliased().is_empty());
        assert!(signature.signatures().is_some());
    }

    #[test]
    fn signature_mode_matches_serial_scalar_misrs() {
        let n = filterish(10);
        let u = universe(&n);
        let inputs = pseudo_inputs(100, 10);
        let serial = reference::simulate(&n, &u, &inputs, Some(SIG16));
        let SignatureSet { good, per_fault } = serial.signatures().cloned().unwrap();
        let result = ParallelFaultSimulator::new(&n, &u)
            .with_options(
                SimOptions::new()
                    .with_schedule(StageSchedule::with_boundaries(vec![16, 48]))
                    .with_signature(SIG16),
            )
            .run(&inputs);
        let sigs = result.signatures().expect("signature mode reports signatures");
        assert_eq!(sigs.good, good);
        assert_eq!(sigs.per_fault, per_fault);
        assert_eq!(result.good_signature(), Some(good));
    }

    #[test]
    fn signature_verdicts_invariant_across_threads_and_schedules() {
        let n = filterish(10);
        let u = universe(&n);
        let inputs = pseudo_inputs(150, 10);
        let reference = ParallelFaultSimulator::new(&n, &u)
            .with_options(
                SimOptions::new()
                    .with_schedule(StageSchedule::with_boundaries(vec![]))
                    .with_threads(1)
                    .with_signature(SIG16),
            )
            .run(&inputs);
        let ref_sigs = reference.signatures().unwrap();
        for (threads, boundaries) in
            [(2usize, vec![16u32, 48]), (3, vec![1, 2, 3]), (8, vec![64]), (4, vec![8, 16, 32, 64])]
        {
            let result = ParallelFaultSimulator::new(&n, &u)
                .with_options(
                    SimOptions::new()
                        .with_schedule(StageSchedule::with_boundaries(boundaries.clone()))
                        .with_threads(threads)
                        .with_signature(SIG16),
                )
                .run(&inputs);
            assert_eq!(
                result.detection_cycles(),
                reference.detection_cycles(),
                "threads={threads} boundaries={boundaries:?}"
            );
            assert_eq!(
                result.signatures().unwrap(),
                ref_sigs,
                "threads={threads} boundaries={boundaries:?}"
            );
        }
    }

    #[test]
    fn one_bit_misr_aliases_and_is_reported_not_dropped() {
        // A 1-bit MISR (poly x + 1: state ^= msb ^ word) aliases with
        // probability ~1/2 per detected fault — the degenerate register
        // makes escapes certain to appear, and every one of them must
        // be reported as compare-detected-but-aliased.
        let n = filterish(12);
        let u = universe(&n);
        let inputs = pseudo_inputs(256, 12);
        let result = ParallelFaultSimulator::new(&n, &u)
            .with_options(SimOptions::new().with_signature(SignatureConfig { width: 1, poly: 1 }))
            .run(&inputs);
        let aliased = result.aliased();
        assert!(!aliased.is_empty(), "a 1-bit signature cannot separate hundreds of faults");
        for fid in &aliased {
            assert!(
                result.detection_cycles()[fid.index()].is_some(),
                "aliasing is only meaningful for compare-detected faults"
            );
        }
        assert_eq!(result.signature_detected_count(), result.detected_count() - aliased.len());
    }

    #[test]
    fn sixteen_bit_misr_has_no_aliasing_on_this_circuit() {
        let n = filterish(12);
        let u = universe(&n);
        let inputs = pseudo_inputs(256, 12);
        let result = ParallelFaultSimulator::new(&n, &u)
            .with_options(SimOptions::new().with_signature(SIG16))
            .run(&inputs);
        assert_eq!(result.aliased(), Vec::new());
        assert_eq!(result.signature_detected_count(), result.detected_count());
    }

    #[test]
    fn signature_metrics_count_aliased_faults() {
        let n = filterish(10);
        let u = universe(&n);
        let inputs = pseudo_inputs(100, 10);
        let registry = Arc::new(Registry::new());
        let result = ParallelFaultSimulator::new(&n, &u)
            .with_options(
                SimOptions::new()
                    .with_metrics(Arc::clone(&registry))
                    .with_signature(SignatureConfig { width: 1, poly: 1 }),
            )
            .run(&inputs);
        let s = registry.snapshot();
        assert_eq!(s.counters["faultsim.faults_aliased"], result.aliased().len() as u64);
    }

    #[test]
    fn empty_signature_run_reports_reset_signatures() {
        let n = filterish(10);
        let u = universe(&n);
        let result = ParallelFaultSimulator::new(&n, &u)
            .with_options(SimOptions::new().with_signature(SIG16))
            .run(&[]);
        let sigs = result.signatures().unwrap();
        assert_eq!(sigs.good, 0);
        assert_eq!(sigs.per_fault, vec![0; u.len()]);
        assert!(result.aliased().is_empty(), "undetected faults never count as aliased");
    }

    #[test]
    fn options_resolve_thread_count() {
        assert_eq!(SimOptions::new().with_threads(3).effective_threads(), 3);
        assert!(SimOptions::new().effective_threads() >= 1);
        let opts = SimOptions::new()
            .with_schedule(StageSchedule::with_boundaries(vec![8]))
            .with_threads(2);
        assert_eq!(opts.threads(), 2);
        assert_eq!(opts.schedule(), &StageSchedule::with_boundaries(vec![8]));
    }

    #[test]
    fn engines_agree_in_compare_mode() {
        // The scheduled kernel against the walker-based reference.
        let n = filterish(12);
        let u = universe(&n);
        let inputs = pseudo_inputs(192, 12);
        let kernel = ParallelFaultSimulator::new(&n, &u)
            .with_options(
                SimOptions::new()
                    .with_schedule(StageSchedule::with_boundaries(vec![64, 128]))
                    .with_threads(1),
            )
            .run(&inputs);
        let expected = reference::simulate(&n, &u, &inputs, None);
        assert_eq!(kernel.detection_cycle, expected.detection_cycle);
        assert_eq!(kernel.total_cycles, expected.total_cycles);
    }

    #[test]
    fn engines_agree_in_signature_mode() {
        let n = filterish(12);
        let u = universe(&n);
        let inputs = pseudo_inputs(192, 12);
        let kernel = ParallelFaultSimulator::new(&n, &u)
            .with_options(
                SimOptions::new()
                    .with_schedule(StageSchedule::with_boundaries(vec![96]))
                    .with_threads(1)
                    .with_signature(SIG16),
            )
            .run(&inputs);
        let expected = reference::simulate(&n, &u, &inputs, Some(SIG16));
        assert_eq!(kernel.detection_cycle, expected.detection_cycle);
        assert_eq!(kernel.signatures(), expected.signatures());
        assert_eq!(kernel.aliased(), expected.aliased());
    }

    #[test]
    fn group_width_narrows_until_every_worker_has_a_group() {
        assert_eq!(group_width(686, 2), KERNEL_WORDS);
        assert_eq!(group_width(17, 2), KERNEL_WORDS);
        assert_eq!(group_width(17, 3), 8);
        assert_eq!(group_width(3, 2), 2);
        assert_eq!(group_width(5, 4), 1);
        assert_eq!(group_width(1, 8), 1);
    }

    #[test]
    fn runs_count_cone_work() {
        let n = filterish(12);
        let u = universe(&n);
        let inputs = pseudo_inputs(192, 12);
        let registry = Arc::new(Registry::new());
        ParallelFaultSimulator::new(&n, &u)
            .with_options(
                SimOptions::new()
                    .with_schedule(StageSchedule::with_boundaries(vec![]))
                    .with_signature(SIG16)
                    .with_metrics(Arc::clone(&registry)),
            )
            .run(&inputs);
        let counters = registry.snapshot().counters;
        // One stage in signature mode: every shard runs every cycle, so
        // the full tape would execute ops x shards x cycles op-words.
        let full = Tape::compile(&n).op_count() as u64 * counters["faultsim.shards"] * 192;
        let op_words = counters["faultsim.op_words"];
        assert!(op_words > 0 && op_words <= full, "{op_words} of {full}");
        assert!(counters["faultsim.boundary_fills"] > 0);
    }

    #[test]
    fn long_stages_split_into_bounded_windows_without_changing_verdicts() {
        let split = |b: Vec<u32>, total| StageSchedule::with_boundaries(b).stages(total);
        assert_eq!(split(vec![], 9000), vec![(0, 4096), (4096, 8192), (8192, 9000)]);
        assert_eq!(
            split(vec![64, 256, 1024], 5120),
            vec![(0, 64), (64, 256), (256, 1024), (1024, 5120)]
        );
        assert_eq!(split(vec![100], 4200)[1..], [(100, 4196), (4196, 4200)]);

        let n = filterish(10);
        let u = universe(&n);
        let inputs = pseudo_inputs(9000, 10);
        let run = |boundaries: Vec<u32>| {
            let registry = Arc::new(Registry::new());
            let result = ParallelFaultSimulator::new(&n, &u)
                .with_options(
                    SimOptions::new()
                        .with_schedule(StageSchedule::with_boundaries(boundaries))
                        .with_signature(SIG16)
                        .with_metrics(Arc::clone(&registry)),
                )
                .run(&inputs);
            (result, registry.snapshot().counters["faultsim.stages"])
        };
        let (windows, stages) = run(vec![]);
        assert_eq!(stages, 3);
        let (shifted, stages) = run(vec![100]);
        assert_eq!(stages, 4);
        assert_eq!(windows.detection_cycles(), shifted.detection_cycles());
        assert_eq!(windows.signatures(), shifted.signatures());
    }
}
