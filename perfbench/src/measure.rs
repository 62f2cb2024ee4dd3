//! Clocks, process counters, span bookkeeping and small statistics.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Reported metrics: `(name, value, unit)`.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

/// The measured phase's time budget.
pub struct Budget {
    deadline: Instant,
}

impl Budget {
    /// A budget of `seconds` from now.
    pub fn new(seconds: f64) -> Budget {
        Budget { deadline: Instant::now() + Duration::from_secs_f64(seconds) }
    }

    /// Whether an operation expected to take `next` still fits.
    pub fn fits(&self, next: Duration) -> bool {
        Instant::now() + next <= self.deadline
    }
}

/// Process user + system CPU time in seconds, from `/proc/self/stat`
/// (clock ticks of 1/100 s).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// The process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Wall and CPU time of one operation, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Cost {
    pub wall: f64,
    pub cpu: f64,
}

/// Runs `f`, returning its result and its wall/CPU cost.
pub fn costed<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let (t0, c0) = (Instant::now(), process_cpu_s());
    let out = f();
    (out, Cost { wall: t0.elapsed().as_secs_f64(), cpu: process_cpu_s() - c0 })
}

/// The median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The `p`-th percentile of `values` by the nearest-rank method (0 for
/// none).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if p == 50.0 && v.len().is_multiple_of(2) {
        return (v[v.len() / 2 - 1] + v[v.len() / 2]) / 2.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// The highest percentile of `values` with at least 10 samples above
/// it, as `(percentile, value)`; `None` with fewer than 11 samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 11 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // Rank n - 10 leaves exactly 10 samples above it; report it as a
    // whole percentile no higher than its rank allows.
    let pct = ((n - 10) as f64 * 100.0 / n as f64).floor();
    Some((pct, percentile(&v, pct)))
}

/// Deterministic 64-bit generator (SplitMix64) for seed-ordered
/// workloads.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1000.0
    }
}

/// The spans a run recorded around its calls into each layer.
#[derive(Debug, Default)]
pub struct Spans(pub Vec<Span>);

impl Spans {
    /// Runs `f` under a span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.0.push(Span { name: name.to_string(), start, end: Instant::now() });
        out
    }

    /// Records the spans of a session run's registry: `base` is the
    /// instant the run started, which the run's own span offsets count
    /// from.
    pub fn absorb_session(&mut self, base: Instant, snapshot: &obs::Snapshot) {
        for s in &snapshot.spans {
            let start = base + Duration::from_micros(s.start_us);
            self.0.push(Span {
                name: s.name.clone(),
                start,
                end: start + Duration::from_micros(s.duration_us),
            });
        }
    }

    /// Total milliseconds of all spans named `name`.
    pub fn ms(&self, name: &str) -> f64 {
        self.0.iter().filter(|s| s.name == name).map(Span::ms).sum()
    }

    /// Seconds covered by at least one span (overlaps and nesting count
    /// once).
    pub fn covered_s(&self) -> f64 {
        let mut iv: Vec<(Instant, Instant)> = self.0.iter().map(|s| (s.start, s.end)).collect();
        iv.sort();
        let mut total = Duration::ZERO;
        let mut current: Option<(Instant, Instant)> = None;
        for (s, e) in iv {
            current = match current {
                Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
                Some((cs, ce)) => {
                    total += ce - cs;
                    Some((s, e))
                }
                None => Some((s, e)),
            };
        }
        if let Some((cs, ce)) = current {
            total += ce - cs;
        }
        total.as_secs_f64()
    }
}

/// Samples process CPU time every 20 ms on a background
/// thread, so the CPU spent inside a span can be read off afterwards.
pub struct CpuSampler {
    stop: Arc<AtomicBool>,
    samples: Arc<Mutex<Vec<(Instant, f64)>>>,
    handle: Option<JoinHandle<()>>,
}

impl CpuSampler {
    pub fn start() -> CpuSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let samples = Arc::new(Mutex::new(vec![(Instant::now(), process_cpu_s())]));
        let handle = {
            let (stop, samples) = (Arc::clone(&stop), Arc::clone(&samples));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(20));
                    let sample = (Instant::now(), process_cpu_s());
                    samples.lock().expect("sampler lock").push(sample);
                }
            })
        };
        CpuSampler { stop, samples, handle: Some(handle) }
    }

    /// Stops sampling and returns the samples.
    pub fn finish(mut self) -> CpuTrace {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        let samples = std::mem::take(&mut *self.samples.lock().expect("sampler lock"));
        CpuTrace(samples)
    }
}

/// Timestamped process CPU readings.
pub struct CpuTrace(Vec<(Instant, f64)>);

impl CpuTrace {
    /// CPU seconds at `t`, interpolated between the nearest samples.
    fn at(&self, t: Instant) -> f64 {
        let i = self.0.partition_point(|&(ts, _)| ts <= t);
        match (i.checked_sub(1).map(|j| self.0[j]), self.0.get(i)) {
            (Some((t0, c0)), Some(&(t1, c1))) => {
                let span = (t1 - t0).as_secs_f64();
                if span <= 0.0 {
                    c0
                } else {
                    c0 + (c1 - c0) * (t - t0).as_secs_f64() / span
                }
            }
            (Some((_, c)), None) | (None, Some(&(_, c))) => c,
            (None, None) => 0.0,
        }
    }

    /// CPU seconds spent inside `span`.
    pub fn within(&self, span: &Span) -> f64 {
        self.at(span.end) - self.at(span.start)
    }
}
