//! Measurement plumbing shared by every workload: the seeded generator,
//! order statistics, the per-phase tally of checks and latencies, the
//! in-memory span recorder, and the replay timer.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// SplitMix64: every input the benchmark generates comes from one of
/// these, seeded from `--seed`, so the same seed gives the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` salted with `stream`, so the workload's
    /// independent draws (topics, values, churn) do not share a stream.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Median of `values` (sorts in place); 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` (sorts in place).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// Times `op` in `samples` batches of `batch` calls and returns the
/// median nanoseconds per call. `op` receives the call index so it can
/// vary its input; its result goes through `black_box`.
pub fn replay_ns<R>(samples: usize, batch: usize, mut op: impl FnMut(usize) -> R) -> f64 {
    for i in 0..batch {
        std::hint::black_box(op(i));
    }
    let mut per_call = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        for i in 0..batch {
            std::hint::black_box(op(i));
        }
        per_call.push(start.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&mut per_call)
}

/// Like [`replay_ns`] for operations that need fresh, untimed inputs:
/// `sample` prepares its own batch, times only the calls, and returns
/// `(elapsed, calls)`.
pub fn replay_prepared_ns(samples: usize, mut sample: impl FnMut() -> (Duration, usize)) -> f64 {
    sample();
    let mut per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let (elapsed, calls) = sample();
            elapsed.as_nanos() as f64 / calls.max(1) as f64
        })
        .collect();
    median(&mut per_call)
}

/// `VmHWM` (peak resident set) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Failure messages a tally keeps; later failures are only counted.
const MAX_FAILURES: usize = 8;

/// What one timed phase saw: events, latencies, the verdict reference
/// and every correctness check, counted against its attempts.
#[derive(Debug, Default)]
pub struct Tally {
    /// Events published.
    pub events: u64,
    /// Per-event latency in microseconds (events with at least one
    /// addressed subscriber) of the current window.
    pub latencies_us: Vec<f32>,
    /// Latencies recorded in all.
    pub latency_samples: u64,
    /// Verdicts the workload's script expects.
    pub expected_verdicts: u64,
    /// Verdicts that matched the benchmark's own reference.
    pub matched_verdicts: u64,
    /// Deliveries the script expects (the `wire_bytes_per_delivery` base).
    pub expected_deliveries: u64,
    /// Deliveries drained, read through the proxy and freed.
    pub consumed: u64,
    /// Correctness checks made.
    pub attempted: u64,
    /// Correctness checks that failed.
    pub failed: u64,
    /// The first few failure messages, for the run's stderr.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one correctness check; a failure keeps its message.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < MAX_FAILURES {
                self.failures.push(what());
            }
        }
        ok
    }

    /// Pools `other` into this tally.
    pub fn absorb(&mut self, other: Tally) {
        self.events += other.events;
        self.latency_samples += other.latency_samples;
        self.expected_verdicts += other.expected_verdicts;
        self.matched_verdicts += other.matched_verdicts;
        self.expected_deliveries += other.expected_deliveries;
        self.consumed += other.consumed;
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = MAX_FAILURES.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }

    /// Records one event's latency from its publish call to `done`.
    pub fn latency(&mut self, published: Instant, done: Instant) {
        self.latency_samples += 1;
        self.latencies_us
            .push((done - published).as_secs_f64() as f32 * 1e6);
    }
}

/// One span: a timed call the benchmark made into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Id of the enclosing span (0: none). Ids are 1-based indices.
    pub parent: u32,
    /// The event the span worked for (0: not tied to one event).
    pub event: u64,
}

/// Upper bound on spans kept in memory; later spans are counted as
/// dropped instead of growing the buffer.
const MAX_SPANS: usize = 1 << 21;

/// The in-memory span recorder. Off, every call is a branch and nothing
/// is timed; on, spans are kept until [`Tracer::write_tsv`] at exit.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Opens a span and returns its id (0 when off or full).
    #[inline]
    pub fn begin(&mut self, name: &'static str, parent: u32, event: u64) -> u32 {
        if !self.on {
            return 0;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return 0;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            event,
        });
        self.spans.len() as u32
    }

    /// Closes span `id` (a no-op for id 0).
    #[inline]
    pub fn end(&mut self, id: u32) {
        if id == 0 {
            return;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans[id as usize - 1].end_ns = now;
    }

    /// `(count, total microseconds)` of the spans named `name`.
    pub fn total(&self, name: &str) -> (u64, f64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0.0), |(n, us), s| {
                (n + 1, us + (s.end_ns - s.start_ns) as f64 / 1e3)
            })
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes every span as one tab-separated line:
    /// `id parent event name start_ns end_ns`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("id\tparent\tevent\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                i + 1,
                s.parent,
                s.event,
                s.name,
                s.start_ns,
                s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn rng_streams_are_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
    }

    #[test]
    fn tracer_off_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", 0, 1);
        t.end(id);
        assert_eq!(t.total("x"), (0, 0.0));
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 0, 0);
        let inner = t.begin("inner", outer, 3);
        t.end(inner);
        t.end(outer);
        assert_eq!(t.total("inner").0, 1);
        assert_eq!(t.spans[1].parent, outer);
    }
}
