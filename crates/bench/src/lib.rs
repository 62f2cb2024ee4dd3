//! Shared experiment infrastructure: design construction, generator
//! registry, text tables and ASCII plots.
//!
//! The `experiments` binary in this crate regenerates every table and
//! figure of the paper (see `DESIGN.md`'s per-experiment index and
//! `EXPERIMENTS.md` for recorded results); the Criterion benches
//! measure the performance of the underlying engines.

#![forbid(unsafe_code)]

pub mod artifacts;
pub mod plot;
pub mod table;

use bist_core::campaign::CampaignSpec;
use bist_core::misr::Misr;
use bist_core::session::{BistRun, BistSession, ResponseCheck, RunConfig, SessionError};
use faultsim::{FaultSimResult, SignatureConfig};
use filters::FilterDesign;
use tpg::{Mixed, TestGenerator};

/// The paper's generator roster for the Section 8 experiments.
pub const SECTION8_GENERATORS: [&str; 4] = ["LFSR-1", "LFSR-D", "LFSR-M", "Ramp"];

/// Builds a 12-bit generator by display name, via the campaign
/// registry (so the name set here and in [`bist_core::campaign`] can
/// never drift apart).
///
/// # Errors
///
/// [`SessionError::InvalidConfig`] for an unknown name, listing the
/// known ones — CLI callers print this as a usage message.
pub fn try_generator(name: &str) -> Result<Box<dyn TestGenerator>, SessionError> {
    bist_core::campaign::build_generator(name)
}

/// Builds a 12-bit generator by display name.
///
/// # Panics
///
/// Panics on an unknown name (callers pass compile-time names; use
/// [`try_generator`] for user-supplied ones).
pub fn generator(name: &str) -> Box<dyn TestGenerator> {
    try_generator(name).unwrap_or_else(|e| panic!("{e}"))
}

/// The mixed scheme of the paper's Section 9: LFSR-1 for
/// `switch_after` vectors, then LFSR-M.
pub fn mixed_generator(switch_after: u64) -> Box<dyn TestGenerator> {
    Box::new(Mixed::lfsr1_then_maxvar(12, switch_after).expect("12-bit mixed"))
}

/// Elaborates the three paper designs (LP, BP, HP). Building all three
/// takes well under a second.
pub fn paper_designs() -> Vec<FilterDesign> {
    filters::designs::paper_designs().expect("paper designs elaborate")
}

/// Runs one generator against one design and returns the run.
///
/// Test length comes from the config; MISR width, stage schedule and
/// thread count follow it too (see [`run_config`] for the experiment
/// harness's defaults). Every run reports into the process-wide
/// campaign registry and records its [`obs::RunArtifact`] for the
/// `--json` output (see [`artifacts`]).
pub fn run_experiment(design: &FilterDesign, gen_name: &str, config: &RunConfig) -> BistRun {
    let session = BistSession::new(design).expect("paper designs build valid sessions");
    let mut gen = generator(gen_name);
    run_session(&session, &mut *gen, config)
}

/// Runs one generator against an existing session, reporting into the
/// campaign registry and recording the run's artifact — the
/// experiments binary routes every BIST run through here so `--json`
/// sees the complete campaign.
///
/// # Panics
///
/// Panics on a [`bist_core::session::SessionError`] (the harness only
/// pairs registry generators with the 12-bit paper designs).
pub fn run_session(
    session: &BistSession<'_>,
    gen: &mut dyn TestGenerator,
    config: &RunConfig,
) -> BistRun {
    let config = config.clone().with_metrics(artifacts::campaign());
    let run = session.run(gen, &config).expect("registry generators match the 12-bit designs");
    artifacts::record(run.artifact.clone());
    run
}

/// What [`BistSession::run`] must report for `gen_name` under
/// `config`, from [`faultsim::reference::simulate`]: the session's
/// universe over the same aligned input words, with the configured
/// MISR in signature mode. Only the test length, MISR width and
/// response check of `config` matter; threads and the stage schedule
/// have no counterpart in the reference. The parity tests and the
/// `kernel` CI cell hold the scheduled kernel to it.
///
/// # Panics
///
/// Panics on an unknown generator name or a MISR width without a
/// tabulated polynomial.
pub fn reference_result(
    session: &BistSession<'_>,
    gen_name: &str,
    config: &RunConfig,
) -> FaultSimResult {
    let design = session.design();
    let mut gen = generator(gen_name);
    gen.reset();
    let inputs: Vec<i64> =
        (0..config.vectors()).map(|_| design.align_input(gen.next_word())).collect();
    let signature = (config.response_check() == ResponseCheck::Signature).then(|| {
        let misr = Misr::new(config.misr_width()).expect("tabulated MISR width");
        SignatureConfig { width: misr.width(), poly: misr.poly_low() }
    });
    faultsim::reference::simulate(design.netlist(), session.universe(), &inputs, signature)
}

/// Static lint summary for one experiment grid cell — the
/// generator-shaped testability (`L1xx`), spectral-compatibility
/// (`L2xx`), campaign-spec (`L3xx`) and response-compaction (`L4xx`)
/// passes, without a single simulated vector. Returns compact `E/W/I`
/// tallies like `"1E 2W 4I"` so the tables can carry a per-cell static
/// verdict next to the measured miss counts.
pub fn cell_lint(design: &FilterDesign, gen_name: &str, vectors: usize) -> String {
    cell_lint_mode(design, gen_name, vectors, ResponseCheck::Trace)
}

/// [`cell_lint`] for an explicit response-check mode, so
/// signature-mode tables carry their `L4xx` verdicts too.
pub fn cell_lint_mode(
    design: &FilterDesign,
    gen_name: &str,
    vectors: usize,
    mode: ResponseCheck,
) -> String {
    let mut diags = lint::lint_pairing(design, gen_name, lint::DEFAULT_BINS);
    let spec = CampaignSpec::new(design.name(), gen_name, vectors).with_mode(mode);
    diags.extend(lint::campaign::lint_spec(design, &spec, None));
    diags.extend(lint::aliasing::lint_aliasing(design, &spec));
    lint_tally(&diags)
}

/// The compact per-cell `E/W/I` tally (`"1E 2W 4I"`). Both output
/// paths — the text tables and the `--json` comparison objects — go
/// through this one formatter, so the two renderings of a cell's
/// verdict can never drift apart.
pub fn lint_tally(diags: &[obs::Diagnostic]) -> String {
    let (errors, warnings, infos) = obs::diag::severity_counts(diags);
    format!("{errors}E {warnings}W {infos}I")
}

/// The experiment harness's run configuration: `vectors` test patterns
/// with the defaults (16-bit MISR, trace-mode response checking,
/// default schedule), honoring a `BIST_THREADS` environment override
/// for the fault-simulation worker count (unset or `0` = one thread
/// per core).
pub fn run_config(vectors: usize) -> RunConfig {
    run_config_mode(vectors, ResponseCheck::Trace)
}

/// [`run_config`] with an explicit response-check mode — what the
/// experiments binary builds under its `--signature` flag.
pub fn run_config_mode(vectors: usize, mode: ResponseCheck) -> RunConfig {
    let threads =
        std::env::var("BIST_THREADS").ok().and_then(|v| v.parse::<usize>().ok()).unwrap_or(0);
    RunConfig::new(vectors).with_threads(threads).with_response_check(mode)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_builds_all_generators() {
        for name in SECTION8_GENERATORS.iter().chain(["LFSR-2", "Ideal"].iter()) {
            let mut g = generator(name);
            assert_eq!(g.width(), 12);
            g.next_word();
        }
        let mut m = mixed_generator(4);
        assert_eq!(m.width(), 12);
        m.next_word();
    }

    #[test]
    fn unknown_generator_is_a_structured_error_naming_the_registry() {
        let message = match try_generator("nope") {
            Err(e) => e.to_string(),
            Ok(_) => panic!("'nope' must not build"),
        };
        assert!(message.contains("unknown generator 'nope'"), "{message}");
        assert!(message.contains("LFSR-D"), "lists the known names: {message}");
    }

    #[test]
    fn mixed_scheme_builds_by_name_too() {
        let mut m = try_generator("Mixed@2048").expect("registry spells mixed as Mixed@<n>");
        assert_eq!(m.width(), 12);
        m.next_word();
    }

    #[test]
    fn cell_lint_flags_the_incompatible_pairing_statically() {
        let designs = paper_designs();
        let lp = designs.iter().find(|d| d.name() == "LP").expect("LP elaborates");
        // The paper's incompatible cell: Type-1 LFSR energy sits in the
        // lowpass stopband, so the spectral pass reports an error.
        let bad = cell_lint(lp, "LFSR-1", 4096);
        assert!(!bad.starts_with("0E"), "LP x LFSR-1 must carry an error: {bad}");
        // The decorrelated generator is the paper's compatible pick.
        let good = cell_lint(lp, "LFSR-D", 4096);
        assert!(good.starts_with("0E"), "LP x LFSR-D must be error-free: {good}");
    }

    #[test]
    fn lint_tally_formats_the_shared_cell_verdict() {
        use obs::{Diagnostic, Location, Severity};
        assert_eq!(lint_tally(&[]), "0E 0W 0I");
        let diags = vec![
            Diagnostic::new("L201", Severity::Error, Location::Design, "incompatible"),
            Diagnostic::new("L101", Severity::Warn, Location::Design, "headroom"),
            Diagnostic::new("L102", Severity::Warn, Location::Design, "variance"),
            Diagnostic::new("L403", Severity::Info, Location::Design, "dropping"),
        ];
        assert_eq!(lint_tally(&diags), "1E 2W 1I");
        // cell_lint goes through the same formatter.
        let designs = paper_designs();
        let lp = designs.iter().find(|d| d.name() == "LP").expect("LP elaborates");
        let cell = cell_lint(lp, "LFSR-D", 4096);
        assert!(cell.contains("E ") && cell.contains("W ") && cell.ends_with('I'), "{cell}");
    }

    #[test]
    fn run_config_carries_the_requested_test_length() {
        let cfg = run_config(777);
        assert_eq!(cfg.vectors(), 777);
        assert_eq!(cfg.misr_width(), 16);
        assert_eq!(cfg.response_check(), ResponseCheck::Trace);
        let sig = run_config_mode(777, ResponseCheck::Signature);
        assert_eq!(sig.response_check(), ResponseCheck::Signature);
    }

    #[test]
    fn signature_cells_carry_their_compaction_verdict() {
        let designs = paper_designs();
        let lp = designs.iter().find(|d| d.name() == "LP").expect("LP elaborates");
        let trace = cell_lint(lp, "LFSR-D", 4096);
        let sig = cell_lint_mode(lp, "LFSR-D", 4096, ResponseCheck::Signature);
        // Signature mode adds the informational L403 dropping note but
        // no errors on the paper roster.
        assert!(sig.starts_with("0E"), "{sig}");
        assert_ne!(trace, sig, "the L4xx pass must show in the tally");
    }
}
