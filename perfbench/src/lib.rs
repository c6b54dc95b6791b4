//! # perfbench — end-to-end and per-layer benchmark of typed pub/sub
//!
//! A std-only, single-process, single-thread driver. Each workload is a
//! closed loop with one publisher that drives the typed session API the
//! way an application would (`Publisher::publish_with`,
//! `Subscription::drain`, `Subscription::get_field`), dropping to
//! `TypedPubSub::with_swarm` only for steps that API lacks:
//!
//! - **freeing consumed events.** The typed API has no way to release a
//!   delivered (or published) event, so without help every event stays
//!   on a runtime heap forever and throughput and memory drift with run
//!   length. The benchmark frees each event through `with_swarm` after
//!   reading it; an API for this is left to a later change.
//! - star wiring for `fanout` (`add_contact`: `join` would build a full
//!   mesh), the message budget of long-lived swarms, and the retransmit
//!   deadlines `churn-lossy` drives its four swarms through.
//!
//! Workloads (see `BENCHMARK.json` for why each was chosen):
//! [`fanout::Fanout`], [`novel::NovelTypes`], [`churn::ChurnLossy`].
//!
//! A run with `--trace 0` reports the end-to-end metrics; a run with
//! `--trace 1` reports per-layer metrics from a traced phase (spans
//! around the benchmark's own calls into each layer), the program's
//! public counters, and replays of each layer's entry point on the
//! workload's fixture ([`replay`]). End-to-end metrics are never read
//! from a traced phase.
//!
//! Steadiness rules: the timed phase is stationary (events are freed,
//! the heap delta over the phase must be 0, latencies are summarised
//! per window, and first- and second-half rates are reported), warm-up
//! happens in set-up, set-up is repeated and reported as a median, and
//! throughput and latency are medians over short windows pooled from
//! several fresh fixtures, so no one fixture or slow stretch of the
//! machine decides them. Every time is reported in reference time
//! ([`speed`]): wall time scaled by how fast a fixed reference kernel
//! ran around it, which cancels the machine's own drift in speed.

pub mod churn;
pub mod fanout;
pub mod measure;
pub mod novel;
pub mod replay;
pub mod speed;

use std::fmt::Write as _;
use std::time::Instant;

use pti_core::prelude::{NetMetrics, ProtocolStats};

use measure::{median, peak_rss_mb, quantile, Tally, Tracer};
use replay::Fixture;
use speed::Probes;

/// Fixtures per end-to-end run. Each is set up afresh and timed for an
/// equal share of the run: `setup_s` is the median set-up, and the
/// timed metrics pool the windows of every fixture, so neither one
/// fixture's memory layout nor one slow stretch of the machine decides
/// a number.
const SETUPS: usize = 6;
/// Untraced and traced slices a `--trace 1` run alternates.
const TRACE_SLICES: usize = 4;
/// Length of one measurement window of a timed phase, in seconds.
const WINDOW_S: f64 = 0.25;

/// Cumulative public counters of the program, summed over every swarm
/// a workload drives.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub messages: u64,
    pub bytes: u64,
    pub batches: u64,
    pub batched_frames: u64,
    pub payload_encodes: u64,
    pub faults_dropped: u64,
    pub reactor_wakeups: u64,
    pub pumps: u64,
    pub useful_pumps: u64,
    pub route_generation: u64,
    pub objects_received: u64,
    pub accepted: u64,
    pub rejected: u64,
    pub desc_requests: u64,
    pub asm_requests: u64,
    pub conformance_checks: u64,
    pub retransmits: u64,
    pub duplicates_suppressed: u64,
    pub max_inflight: u64,
    pub dispatch_errors: u64,
    pub stray_accepts: u64,
}

impl Counters {
    pub fn add_net(&mut self, m: &NetMetrics) {
        self.messages += m.messages;
        self.bytes += m.bytes;
        self.batches += m.batches();
        self.batched_frames += m.batched_frames();
        self.payload_encodes += m.payload_encodes;
        self.faults_dropped += m.faults_dropped;
    }

    pub fn add_protocol(&mut self, s: &ProtocolStats) {
        self.objects_received += s.objects_received;
        self.accepted += s.accepted;
        self.rejected += s.rejected;
        self.desc_requests += s.desc_requests;
        self.asm_requests += s.asm_requests;
        self.conformance_checks += s.conformance_checks;
    }

    /// The counts between `before` and `self`; `max_inflight` stays a
    /// high-water mark.
    pub fn since(&self, before: &Counters) -> Counters {
        self.zip(before, u64::saturating_sub, |now, _| now)
    }

    /// The counts of two phases together.
    fn add(&self, other: &Counters) -> Counters {
        self.zip(other, |a, b| a + b, u64::max)
    }

    /// Applies `f` field by field, and `high_water` to `max_inflight`.
    fn zip(
        &self,
        o: &Counters,
        f: impl Fn(u64, u64) -> u64,
        high_water: impl Fn(u64, u64) -> u64,
    ) -> Counters {
        Counters {
            messages: f(self.messages, o.messages),
            bytes: f(self.bytes, o.bytes),
            batches: f(self.batches, o.batches),
            batched_frames: f(self.batched_frames, o.batched_frames),
            payload_encodes: f(self.payload_encodes, o.payload_encodes),
            faults_dropped: f(self.faults_dropped, o.faults_dropped),
            reactor_wakeups: f(self.reactor_wakeups, o.reactor_wakeups),
            pumps: f(self.pumps, o.pumps),
            useful_pumps: f(self.useful_pumps, o.useful_pumps),
            route_generation: f(self.route_generation, o.route_generation),
            objects_received: f(self.objects_received, o.objects_received),
            accepted: f(self.accepted, o.accepted),
            rejected: f(self.rejected, o.rejected),
            desc_requests: f(self.desc_requests, o.desc_requests),
            asm_requests: f(self.asm_requests, o.asm_requests),
            conformance_checks: f(self.conformance_checks, o.conformance_checks),
            retransmits: f(self.retransmits, o.retransmits),
            duplicates_suppressed: f(self.duplicates_suppressed, o.duplicates_suppressed),
            max_inflight: high_water(self.max_inflight, o.max_inflight),
            dispatch_errors: f(self.dispatch_errors, o.dispatch_errors),
            stray_accepts: f(self.stray_accepts, o.stray_accepts),
        }
    }
}

/// One benchmark workload: a closed loop over the typed API.
pub trait Workload: Sized {
    /// Builds the fixture and warms it up (mounting, subscription
    /// gossip, the type exchange): everything before the timed phase.
    ///
    /// # Errors
    /// Any failed step; the run then reports nothing.
    fn setup(seed: u64) -> Result<Self, String>;

    /// One closed-loop round: publish, drive until every addressed
    /// subscriber holds its verdict, consume, check.
    ///
    /// # Errors
    /// A call the loop cannot continue after.
    fn round(&mut self, tr: &mut Tracer, tally: &mut Tally) -> Result<(), String>;

    /// The program's cumulative public counters.
    fn counters(&mut self) -> Counters;

    /// Live objects over every runtime the workload touched.
    fn heap_live(&mut self) -> usize;

    /// End-of-phase checks that are too costly per round.
    fn finish_phase(&mut self, _tally: &mut Tally) {}

    /// Records the host's pump trace into [`Counters::pumps`] (reactor
    /// workloads only).
    fn set_pump_trace(&mut self, _on: bool) {}

    /// The fixture the layer replays run on.
    fn fixture(&mut self) -> Fixture;
}

/// Throughput and latency of the events completed in one window, in
/// reference time (see [`speed`]).
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub events_per_s: f64,
    pub latency_p50_us: f64,
    pub latency_p90_us: f64,
    /// The machine's slowdown over the window.
    pub slowdown: f64,
}

/// The result of one timed phase, or of several pooled.
#[derive(Debug)]
pub struct Phase {
    pub tally: Tally,
    pub rounds: u64,
    pub wall_s: f64,
    /// Wall seconds spent in rounds (the phase minus probes).
    pub busy_s: f64,
    /// One entry per window of [`WINDOW_S`] seconds.
    pub windows: Vec<Window>,
    /// `(events, reference seconds)` in the first and the second half of
    /// each phase: a stationary phase runs both at the same rate.
    pub first_half: (u64, f64),
    pub second_half: (u64, f64),
    /// Counters accumulated over the phase.
    pub counts: Counters,
    /// Live heap objects after the phase minus before.
    pub heap_live_delta: i64,
}

impl Phase {
    /// Median window throughput.
    pub fn events_per_s(&self) -> f64 {
        self.median_of(|w| w.events_per_s)
    }

    /// Median over windows of a per-window statistic.
    pub fn median_of(&self, stat: impl Fn(&Window) -> f64) -> f64 {
        median(&mut self.windows.iter().map(stat).collect::<Vec<_>>())
    }

    /// Median slowdown of the machine over the windows.
    pub fn slowdown(&self) -> f64 {
        self.median_of(|w| w.slowdown)
    }

    pub fn first_half_rate(&self) -> f64 {
        per_s(self.first_half)
    }

    pub fn second_half_rate(&self) -> f64 {
        per_s(self.second_half)
    }

    /// Pools `other` into this phase.
    fn absorb(&mut self, other: Phase) {
        self.tally.absorb(other.tally);
        self.rounds += other.rounds;
        self.wall_s += other.wall_s;
        self.busy_s += other.busy_s;
        self.windows.extend(other.windows);
        self.first_half = (
            self.first_half.0 + other.first_half.0,
            self.first_half.1 + other.first_half.1,
        );
        self.second_half = (
            self.second_half.0 + other.second_half.0,
            self.second_half.1 + other.second_half.1,
        );
        self.counts = self.counts.add(&other.counts);
        self.heap_live_delta += other.heap_live_delta;
    }
}

/// Pools `phase` into `into`.
fn pool(into: &mut Option<Phase>, phase: Phase) {
    match into {
        Some(p) => p.absorb(phase),
        None => *into = Some(phase),
    }
}

fn per_s((events, seconds): (u64, f64)) -> f64 {
    events as f64 / seconds.max(1e-9)
}

/// Runs rounds for `seconds` of wall time and gathers the phase. The
/// reference kernel is probed between rounds, and each window's
/// throughput and latencies are scaled by the slowdown it measured.
///
/// # Errors
/// A round that failed hard.
pub fn run_phase<W: Workload>(w: &mut W, seconds: f64, tr: &mut Tracer) -> Result<Phase, String> {
    let heap_before = w.heap_live();
    let before = w.counters();
    let mut tally = Tally::default();
    let mut rounds = 0;
    let windows = ((seconds / WINDOW_S).round() as usize).max(2);
    let window_s = seconds / windows as f64;
    let mut probes = Probes::new();
    // (events, reference seconds of rounds) at each window's end.
    // Latencies are summarised and dropped per window, so memory does
    // not grow with the run.
    let mut marks = vec![(0u64, 0.0f64)];
    let mut stats = Vec::with_capacity(windows);
    // Wall seconds of rounds in the current window, and in the phase.
    let (mut busy, mut busy_s) = (0.0, 0.0);
    let start = Instant::now();
    while stats.len() < windows {
        let round_start = Instant::now();
        w.round(tr, &mut tally)?;
        let took = round_start.elapsed();
        busy += took.as_secs_f64();
        probes.due(took);
        rounds += 1;
        if start.elapsed().as_secs_f64() >= window_s * (stats.len() + 1) as f64 {
            let slowdown = probes.take();
            let (events, at) = marks[marks.len() - 1];
            let reference_s = busy / slowdown;
            busy_s += busy;
            busy = 0.0;
            marks.push((tally.events, at + reference_s));
            let mut lat: Vec<f64> = tally.latencies_us.drain(..).map(f64::from).collect();
            stats.push(Window {
                events_per_s: per_s((tally.events - events, reference_s)),
                latency_p50_us: quantile(&mut lat, 0.5) / slowdown,
                latency_p90_us: quantile(&mut lat, 0.9) / slowdown,
                slowdown,
            });
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    w.finish_phase(&mut tally);
    let heap_live_delta = w.heap_live() as i64 - heap_before as i64;
    tally.check(heap_live_delta == 0, || {
        format!("heap grew by {heap_live_delta} objects over the phase")
    });
    let span = |a: usize, b: usize| (marks[b].0 - marks[a].0, marks[b].1 - marks[a].1);
    let half = windows / 2;
    Ok(Phase {
        rounds,
        wall_s,
        busy_s,
        first_half: span(0, half),
        second_half: span(half, windows),
        windows: stats,
        counts: w.counters().since(&before),
        heap_live_delta,
        tally,
    })
}

/// Runs exactly `rounds` untraced rounds and returns what they saw and
/// the counters they moved (a fixed amount of work, for tests).
///
/// # Errors
/// A round that failed hard.
pub fn run_rounds<W: Workload>(w: &mut W, rounds: u64) -> Result<(Tally, Counters), String> {
    let before = w.counters();
    let mut tally = Tally::default();
    let mut tr = Tracer::new(false);
    for _ in 0..rounds {
        w.round(&mut tr, &mut tally)?;
    }
    w.finish_phase(&mut tally);
    Ok((tally, w.counters().since(&before)))
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The outcome of one benchmark invocation.
#[derive(Debug)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Supporting counts and bases, printed on the line before the
    /// result.
    pub detail: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: one JSON object.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            );
        }
        out.push_str("}}");
        out
    }

    /// The detail line: counts behind the metrics.
    pub fn detail_json(&self) -> String {
        let fields: Vec<String> = self
            .detail
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", json_number(*v)))
            .collect();
        format!("{{\"detail\": {{{}}}}}", fields.join(", "))
    }
}

/// A finite JSON number with every digit Rust prints.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn per(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// The `--trace 0` run: [`SETUPS`] fixtures, each set up afresh and
/// timed untraced for an equal share of `seconds`; the seven end-to-end
/// metrics over the pooled windows, in reference time.
///
/// # Errors
/// A failed set-up or round.
pub fn end_to_end<W: Workload>(seed: u64, seconds: f64) -> Result<Report, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut setup_wall_s = Vec::with_capacity(SETUPS);
    let mut pooled: Option<Phase> = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let mut w = W::setup(seed)?;
        let wall = start.elapsed().as_secs_f64();
        let phase = run_phase(&mut w, seconds / SETUPS as f64, &mut Tracer::new(false))?;
        // A set-up is not interleaved with probes; it is scaled by the
        // slowdown its own timed phase measured, on the heap it built.
        setup_wall_s.push(wall);
        setup_s.push(wall / phase.slowdown());
        pool(&mut pooled, phase);
    }
    let phase = pooled.ok_or("no set-up ran")?;
    let t = &phase.tally;
    let delivery_ratio = per(t.matched_verdicts, t.expected_verdicts);
    let metrics = vec![
        ("events_per_s", phase.events_per_s(), "events/s"),
        (
            "latency_p50_us",
            phase.median_of(|w| w.latency_p50_us),
            "us",
        ),
        (
            "latency_p90_us",
            phase.median_of(|w| w.latency_p90_us),
            "us",
        ),
        ("delivery_ratio", delivery_ratio, "ratio"),
        (
            "wire_bytes_per_delivery",
            per(phase.counts.bytes, t.expected_deliveries),
            "B",
        ),
        ("setup_s", median(&mut setup_s.clone()), "s"),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];
    let mut detail = vec![
        ("events", t.events as f64),
        ("rounds", phase.rounds as f64),
        ("wall_s", phase.wall_s),
        ("busy_s", phase.busy_s),
        ("wall_events_per_s", t.events as f64 / phase.busy_s),
        ("slowdown", phase.slowdown()),
        ("first_half_events_per_s", phase.first_half_rate()),
        ("second_half_events_per_s", phase.second_half_rate()),
        ("latency_samples", t.latency_samples as f64),
        ("windows", phase.windows.len() as f64),
        ("expected_verdicts", t.expected_verdicts as f64),
        ("matched_verdicts", t.matched_verdicts as f64),
        ("expected_deliveries", t.expected_deliveries as f64),
        ("wire_bytes", phase.counts.bytes as f64),
        ("heap_live_delta", phase.heap_live_delta as f64),
        ("setups", setup_s.len() as f64),
        ("setup_wall_s", median(&mut setup_wall_s)),
    ];
    detail.extend(
        [("setup_min_s", 0.0), ("setup_max_s", 1.0)]
            .map(|(k, q)| (k, quantile(&mut setup_s.clone(), q))),
    );
    Ok(Report {
        attempted: t.attempted,
        failed: t.failed,
        failures: t.failures.clone(),
        metrics,
        detail,
    })
}

/// The `--trace 1` run: one set-up, then [`TRACE_SLICES`] untraced
/// slices (the baseline the tracing overhead and the unattributed
/// remainder are taken against) alternating with as many traced slices
/// (spans and counters), so both see the same stretches of the machine;
/// then the layer replays. Span and replay times are in reference time
/// too: spans scaled by the traced windows' slowdown, replays by the
/// kernel's speed just before and after them.
///
/// # Errors
/// A failed set-up, round or replay.
pub fn traced<W: Workload>(
    seed: u64,
    seconds: f64,
    spans_out: &std::path::Path,
) -> Result<Report, String> {
    let mut w = W::setup(seed)?;
    let slice = seconds * 0.4 / TRACE_SLICES as f64;
    let mut tr = Tracer::new(true);
    let (mut base, mut traced) = (None, None);
    for _ in 0..TRACE_SLICES {
        pool(
            &mut base,
            run_phase(&mut w, slice, &mut Tracer::new(false))?,
        );
        w.set_pump_trace(true);
        pool(&mut traced, run_phase(&mut w, slice, &mut tr)?);
        w.set_pump_trace(false);
    }
    let base = base.ok_or("no untraced slice ran")?;
    let phase = traced.ok_or("no traced slice ran")?;
    let fixture = w.fixture();
    let batch_frames =
        (per(phase.counts.batched_frames, phase.counts.batches).round() as usize).max(2);
    let before = speed::calibrate();
    let mut replays = replay::replay_layers(&fixture, batch_frames)?;
    let replay_slowdown = (before + speed::calibrate()) / 2.0;
    for (_, ns) in &mut replays {
        *ns /= replay_slowdown;
    }
    let replayed = |name: &str| {
        replays
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };

    let t = &phase.tally;
    let c = &phase.counts;
    let events = t.events;
    let span_us = |name: &str| tr.total(name).1 / phase.slowdown();
    let publish_us = span_us("tps.publish");
    let drive_us = span_us("transport.drive");
    let consume_us = span_us("tps.consume");
    let base_eps = base.events_per_s();
    let traced_eps = phase.events_per_s();

    // The layers' replayed costs weighted by how often the untraced
    // slices reached each one per event; what they leave of the
    // untraced per-event time is the unattributed remainder.
    let b = &base.counts;
    let per_event = |n: u64| per(n, base.tally.events);
    // A check misses the cache when its type was new, i.e. fetched; an
    // accepted object is checked once more, uncounted, to bind its proxy.
    let conformance_misses = b.desc_requests;
    let conformance_hits = (b.conformance_checks + b.accepted).saturating_sub(conformance_misses);
    // One resolve per publish; the first after a routing change misses.
    let resolve_misses = per_event(b.route_generation).min(1.0);
    let mut weighted_ns = replayed("metamodel.instantiate_ns")
        + per_event(b.payload_encodes) * replayed("serialize.envelope_encode_ns")
        + resolve_misses * replayed("transport.resolve_miss_ns")
        + (1.0 - resolve_misses) * replayed("transport.resolve_hit_ns")
        + per_event(b.batches)
            * (replayed("net.batch_encode_ns") + replayed("net.batch_decode_ns"))
        + per_event(b.objects_received) * replayed("serialize.envelope_decode_ns")
        + per_event(b.accepted)
            * (replayed("serialize.from_binary_ns") + replayed("proxy.bind_ns"))
        + per_event(base.tally.consumed) * replayed("proxy.get_field_ns")
        + per_event(conformance_hits) * replayed("conformance.check_hit_ns")
        + per_event(conformance_misses)
            * (replayed("conformance.check_miss_ns") + replayed("xml.desc_doc_parse_ns"))
        + per_event(b.asm_requests) * replayed("metamodel.install_ns");
    if fixture.inbox_depth.is_some() {
        weighted_ns += per_event(b.messages) * replayed("net.simnet_recv_ns");
    }
    let unattributed_us = 1e6 / base_eps.max(1e-9) - weighted_ns / 1e3;

    let mut metrics: Vec<Metric> = vec![
        (
            "tps.publish_us_per_event",
            publish_us / events.max(1) as f64,
            "us",
        ),
        (
            "transport.drive_us_per_round",
            drive_us / phase.rounds.max(1) as f64,
            "us",
        ),
        (
            "tps.consume_us_per_delivery",
            consume_us / t.consumed.max(1) as f64,
            "us",
        ),
        ("layers.unattributed_us_per_event", unattributed_us, "us"),
        (
            "tracing.overhead_pct",
            100.0 * (base_eps - traced_eps) / base_eps.max(1e-9),
            "%",
        ),
        (
            "transport.pumps_per_round",
            per(c.pumps, phase.rounds),
            "count",
        ),
        (
            "transport.useful_pump_ratio",
            per(c.useful_pumps, c.pumps),
            "ratio",
        ),
        (
            "net.reactor_wakeups_per_event",
            per(c.reactor_wakeups, events),
            "count",
        ),
        ("net.messages_per_event", per(c.messages, events), "count"),
        (
            "net.frames_per_batch",
            per(c.batched_frames, c.batches),
            "count",
        ),
        (
            "net.payload_encodes_per_event",
            per(c.payload_encodes, events),
            "count",
        ),
        (
            "net.faults_dropped_per_event",
            per(c.faults_dropped, events),
            "count",
        ),
        (
            "transport.route_invalidations_per_event",
            per(c.route_generation, events),
            "count",
        ),
        (
            "transport.desc_requests_per_event",
            per(c.desc_requests, events),
            "count",
        ),
        (
            "transport.asm_requests_per_event",
            per(c.asm_requests, events),
            "count",
        ),
        (
            "transport.conformance_checks_per_event",
            per(c.conformance_checks, events),
            "count",
        ),
        (
            "transport.retransmits_per_event",
            per(c.retransmits, events),
            "count",
        ),
        (
            "transport.duplicates_suppressed_per_event",
            per(c.duplicates_suppressed, events),
            "count",
        ),
        ("transport.max_inflight", c.max_inflight as f64, "count"),
        (
            "transport.dispatch_errors",
            c.dispatch_errors as f64,
            "count",
        ),
        (
            "tps.stray_accepts_per_event",
            per(c.stray_accepts, events),
            "count",
        ),
        (
            "metamodel.heap_live_delta",
            (phase.heap_live_delta + base.heap_live_delta) as f64,
            "count",
        ),
        (
            "stationarity.half_rate_ratio",
            base.second_half_rate() / base.first_half_rate().max(1e-9),
            "ratio",
        ),
    ];
    metrics.extend(replays.iter().map(|&(name, ns)| (name, ns, "ns")));

    if let Err(e) = tr.write_tsv(spans_out) {
        eprintln!(
            "perfbench: could not write spans to {}: {e}",
            spans_out.display()
        );
    }
    let detail = vec![
        ("untraced_events", base.tally.events as f64),
        ("untraced_events_per_s", base_eps),
        ("traced_events", events as f64),
        ("traced_events_per_s", traced_eps),
        ("traced_rounds", phase.rounds as f64),
        ("spans_dropped", tr.dropped() as f64),
        ("inbox_depth", fixture.inbox_depth.unwrap_or(0) as f64),
        ("batch_frames", batch_frames as f64),
        ("traced_slowdown", phase.slowdown()),
        ("replay_slowdown", replay_slowdown),
    ];
    let mut failures = base.tally.failures.clone();
    failures.extend(t.failures.iter().cloned());
    Ok(Report {
        attempted: base.tally.attempted + t.attempted,
        failed: base.tally.failed + t.failed,
        failures,
        metrics,
        detail,
    })
}
