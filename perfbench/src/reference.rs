//! The committed verdict reference and the correctness gate.
//!
//! Every campaign a workload can run has one line in
//! [`PATH`]: fault counts, the good signature, the aliased count, an
//! FNV-1a digest of the per-fault detection cycles (and, in signature
//! mode, of the per-fault signatures), and for top-off campaigns the
//! residue partition. Campaigns are keyed by their canonical spec with
//! the execution hints (threads, stage schedule) normalized away, since
//! those are proven not to change verdicts.

use bist_core::campaign::CampaignSpec;
use bist_core::session::BistRun;
use obs::JsonValue;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Location of the reference, relative to the repository root.
pub const PATH: &str = "perfbench/reference.tsv";

/// The verdict-defining outcome of one campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    pub total: usize,
    pub detected: usize,
    pub missed: usize,
    pub signature: u64,
    pub aliased: usize,
    /// Digest of the per-fault detection cycles (`None` when the
    /// source, such as a wire artifact, does not carry them).
    pub cycles: Option<u64>,
    /// Digest of the per-fault signatures (signature mode only).
    pub signatures: Option<u64>,
    /// Top-off partition: detected, untestable, unresolved, redundant.
    pub topoff: Option<[usize; 4]>,
}

fn digest_words(words: impl Iterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = words.flat_map(u64::to_le_bytes).collect();
    bistd::cache::fnv1a(&bytes)
}

impl Verdict {
    /// The verdict of an in-process run.
    pub fn of_run(run: &BistRun) -> Verdict {
        let a = &run.artifact;
        let cycles = run.result.detection_cycles().iter().map(|c| c.map_or(u64::MAX, u64::from));
        Verdict {
            total: a.total_faults,
            detected: a.detected,
            missed: a.missed,
            signature: run.signature,
            aliased: a.aliased,
            cycles: Some(digest_words(cycles)),
            signatures: run.result.signatures().map(|s| digest_words(s.per_fault.iter().copied())),
            topoff: a
                .topoff
                .as_ref()
                .map(|t| [t.detected, t.untestable, t.unresolved, t.redundant]),
        }
    }

    /// The verdict carried by a daemon's artifact JSON (no per-fault
    /// digests: the wire artifact has no per-fault records).
    pub fn of_artifact(artifact: &JsonValue) -> Result<Verdict, String> {
        let num = |v: &JsonValue, key: &str| {
            v.get(key).and_then(JsonValue::as_u64).ok_or_else(|| format!("artifact lacks '{key}'"))
        };
        let topoff = match artifact.get("topoff") {
            Some(t) if !matches!(t, JsonValue::Null) => Some([
                num(t, "detected")? as usize,
                num(t, "untestable")? as usize,
                num(t, "unresolved")? as usize,
                t.get("redundant").and_then(JsonValue::as_u64).unwrap_or(0) as usize,
            ]),
            _ => None,
        };
        Ok(Verdict {
            total: num(artifact, "total_faults")? as usize,
            detected: num(artifact, "detected")? as usize,
            missed: num(artifact, "missed")? as usize,
            signature: num(artifact, "signature")?,
            aliased: num(artifact, "aliased")? as usize,
            cycles: None,
            signatures: None,
            topoff,
        })
    }

    /// Whether `self` agrees with the reference on every field both
    /// carry.
    fn agrees(&self, reference: &Verdict) -> bool {
        let opt = |a: Option<u64>, b: Option<u64>| a.is_none() || a == b;
        self.total == reference.total
            && self.detected == reference.detected
            && self.missed == reference.missed
            && self.signature == reference.signature
            && self.aliased == reference.aliased
            && opt(self.cycles, reference.cycles)
            && opt(self.signatures, reference.signatures)
            && self.topoff == reference.topoff
    }

    fn to_line(&self, key: &str) -> String {
        let hex = |v: Option<u64>| v.map_or("-".to_string(), |d| format!("{d:016x}"));
        let topoff = self.topoff.map_or("-".to_string(), |t| {
            t.iter().map(usize::to_string).collect::<Vec<_>>().join("/")
        });
        format!(
            "{key}\t{}\t{}\t{}\t{:04x}\t{}\t{}\t{}\t{topoff}",
            self.total,
            self.detected,
            self.missed,
            self.signature,
            self.aliased,
            hex(self.cycles),
            hex(self.signatures),
        )
    }

    fn parse_line(line: &str) -> Result<(String, Verdict), String> {
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() != 9 {
            return Err(format!("expected 9 tab-separated fields: {line}"));
        }
        let int = |s: &str| s.parse::<usize>().map_err(|_| format!("bad count '{s}' in: {line}"));
        let hex = |s: &str| u64::from_str_radix(s, 16).map_err(|_| format!("bad hex '{s}'"));
        let opt_hex = |s: &str| if s == "-" { Ok(None) } else { hex(s).map(Some) };
        let topoff = if f[8] == "-" {
            None
        } else {
            let parts = f[8].split('/').map(int).collect::<Result<Vec<_>, _>>()?;
            Some(<[usize; 4]>::try_from(parts).map_err(|_| format!("bad partition: {line}"))?)
        };
        Ok((
            f[0].to_string(),
            Verdict {
                total: int(f[1])?,
                detected: int(f[2])?,
                missed: int(f[3])?,
                signature: hex(f[4])?,
                aliased: int(f[5])?,
                cycles: opt_hex(f[6])?,
                signatures: opt_hex(f[7])?,
                topoff,
            },
        ))
    }
}

/// A campaign's reference key: its canonical spec with threads and the
/// stage schedule reset to their defaults.
pub fn key(spec: &CampaignSpec) -> String {
    let mut normalized = spec.clone();
    normalized.threads = 0;
    normalized.boundaries = None;
    normalized.canonical()
}

/// The loaded reference.
pub struct Reference(BTreeMap<String, Verdict>);

impl Reference {
    pub fn load() -> Result<Reference, String> {
        let text = std::fs::read_to_string(PATH)
            .map_err(|e| format!("cannot read the verdict reference {PATH}: {e}"))?;
        let mut map = BTreeMap::new();
        for line in text.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()) {
            let (key, verdict) = Verdict::parse_line(line)?;
            map.insert(key, verdict);
        }
        Ok(Reference(map))
    }

    /// Checks one campaign's verdict; the error names the difference.
    pub fn check(&self, spec: &CampaignSpec, got: &Verdict) -> Result<(), String> {
        let key = key(spec);
        match self.0.get(&key) {
            None => Err(format!("no reference verdict for {key}")),
            Some(want) if got.agrees(want) => Ok(()),
            Some(want) => Err(format!("verdict differs for {key}: got {got:?}, want {want:?}")),
        }
    }
}

/// Runs every campaign a workload can run and rewrites the reference.
/// Before writing it cross-checks what the pipeline guarantees: a
/// signature-mode campaign detects exactly the faults, at exactly the
/// cycles, of its trace-mode twin.
pub fn bless() -> Result<usize, String> {
    let mut specs = crate::batch::all_campaigns();
    specs.extend(crate::daemon::pool());
    let mut lines: BTreeMap<String, Verdict> = BTreeMap::new();
    for spec in &specs {
        let mut spec = spec.clone();
        spec.threads = crate::BATCH_THREADS;
        let run = spec.run(None).map_err(|e| format!("{}: {e}", spec.canonical()))?;
        eprintln!("  {}: {} missed", key(&spec), run.missed());
        lines.insert(key(&spec), Verdict::of_run(&run));
    }
    for spec in &specs {
        let (mut twin, mut trace) = (spec.clone(), spec.clone());
        twin.mode = bist_core::session::ResponseCheck::Signature;
        trace.mode = bist_core::session::ResponseCheck::Trace;
        if let (Some(s), Some(t)) = (lines.get(&key(&twin)), lines.get(&key(&trace))) {
            if s.cycles != t.cycles || s.signature != t.signature {
                return Err(format!("signature/trace verdicts disagree for {}", key(&trace)));
            }
        }
    }
    let mut out = String::from(
        "# Verdict reference, written by `perfbench --bless`.\n\
         # key\ttotal\tdetected\tmissed\tsignature\taliased\tcycles_fnv1a\tsignatures_fnv1a\t\
         topoff(detected/untestable/unresolved/redundant)\n",
    );
    for (key, verdict) in &lines {
        let _ = writeln!(out, "{}", verdict.to_line(key));
    }
    std::fs::write(PATH, out).map_err(|e| format!("cannot write {PATH}: {e}"))?;
    Ok(lines.len())
}
