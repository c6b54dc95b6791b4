//! `fanout`: the steady-state hot path. One publisher and 1024
//! single-member groups on one `ReactorHost`, 64 topics, fan-out 16,
//! Binary payloads under `QoS::FireAndForget`, types exchanged during
//! set-up. Each round publishes a burst of 8 events, drives the host to
//! quiescence, then every addressed subscriber drains, reads `value`
//! through its proxy and frees the event.

use std::time::Instant;

use pti_core::prelude::*;
use pti_core::samples::{topic_event_assembly, topic_event_def};

use crate::measure::{Rng, Tally, Tracer};
use crate::replay::Fixture;
use crate::{Counters, Workload};

pub const MEMBERS: usize = 1024;
pub const TOPICS: usize = 64;
pub const BURST: usize = 8;
/// Random bursts run after the per-topic exchange, still in set-up.
const WARM_BURSTS: usize = 64;
const PUBLISHER: PeerId = PeerId(1);

struct Subscriber {
    group: TypedPubSub<ReactorNet>,
    id: PeerId,
    sub: Subscription<ReactorNet>,
}

pub struct Fanout {
    host: ReactorHost,
    publisher_group: TypedPubSub<ReactorNet>,
    publishers: Vec<Publisher<ReactorNet>>,
    by_topic: Vec<Vec<Subscriber>>,
    rng: Rng,
    next_event: u64,
    pump_trace: bool,
    pumps: u64,
    useful_pumps: u64,
    dispatch_errors: u64,
}

/// The value event `event` carries (exact in an f64).
fn value_of(event: u64) -> f64 {
    event as f64 + 0.25
}

impl Fanout {
    /// Publishes one event per entry of `topics`, drives the host until
    /// quiet, then consumes and checks every delivery.
    fn burst(
        &mut self,
        topics: &[usize],
        tr: &mut Tracer,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let round = tr.begin("round", 0, 0);
        let mut sent = Vec::with_capacity(topics.len());
        for &topic in topics {
            self.next_event += 1;
            let event = self.next_event;
            let span = tr.begin("tps.publish", round, event);
            let published = Instant::now();
            let mut handle = None;
            self.publishers[topic]
                .publish_with(|e| {
                    e.set("value", value_of(event))?;
                    handle = Some(e.handle());
                    Ok(())
                })
                .map_err(|e| format!("publish: {e}"))?;
            tr.end(span);
            sent.push((
                topic,
                event,
                handle.ok_or("publish built no event")?,
                published,
            ));
        }
        tally.events += sent.len() as u64;

        let span = tr.begin("transport.drive", round, 0);
        self.host
            .run_until_quiescent()
            .map_err(|e| format!("drive: {e}"))?;
        let driven = Instant::now();
        tr.end(span);
        if self.pump_trace {
            for (_, handled) in self.host.take_pump_trace() {
                self.pumps += 1;
                self.useful_pumps += u64::from(handled > 0);
            }
        }
        for &(_, _, _, published) in &sent {
            tally.latency(published, driven);
        }

        let mut done: Vec<usize> = Vec::with_capacity(sent.len());
        for &(topic, first_event, _, _) in &sent {
            if done.contains(&topic) {
                continue;
            }
            done.push(topic);
            let expected: Vec<f64> = sent
                .iter()
                .filter(|s| s.0 == topic)
                .map(|s| value_of(s.1))
                .collect();
            for s in &self.by_topic[topic] {
                let span = tr.begin("tps.consume", round, first_event);
                consume(s, &expected, tally);
                tr.end(span);
            }
        }
        self.publisher_group.with_swarm(|sw| {
            let rt = &mut sw.peer_mut(PUBLISHER).runtime;
            for &(_, event, h, _) in &sent {
                tally.check(rt.heap.free(h).is_ok(), || {
                    format!("published event {event} was not live")
                });
            }
        });
        tr.end(round);
        Ok(())
    }

    fn drain_dispatch_errors(&mut self) -> u64 {
        let mut n = self.publisher_group.take_dispatch_errors().len();
        for s in self.by_topic.iter().flatten() {
            n += s.group.take_dispatch_errors().len();
        }
        n as u64
    }
}

/// Drains one subscriber, reads every event's `value` through its proxy
/// and frees it; the values must be `expected`, in publish order.
fn consume(s: &Subscriber, expected: &[f64], tally: &mut Tally) {
    let got = s.sub.drain();
    let n = expected.len() as u64;
    tally.expected_verdicts += n;
    tally.expected_deliveries += n;
    let mut handles = Vec::with_capacity(got.len());
    for (k, ev) in got.iter().enumerate() {
        let read = s
            .sub
            .get_field(ev, "value")
            .ok()
            .and_then(|v| v.as_f64().ok());
        let want = expected.get(k).copied();
        if tally.check(read.is_some() && read == want, || {
            format!("{} read {read:?}, published {want:?}", s.id)
        }) {
            tally.matched_verdicts += 1;
        }
        if let Value::Obj(h) = ev.value {
            handles.push(h);
        }
    }
    tally.consumed += got.len() as u64;
    tally.check(got.len() == expected.len(), || {
        format!("{} got {} of {} events", s.id, got.len(), expected.len())
    });
    s.group.with_swarm(|sw| {
        let rt = &mut sw.peer_mut(s.id).runtime;
        for h in handles {
            tally.check(rt.heap.free(h).is_ok(), || {
                format!("{} delivered event was not live", s.id)
            });
        }
    });
}

impl Workload for Fanout {
    fn setup(seed: u64) -> Result<Fanout, String> {
        let mut host = ReactorHost::new();
        let code = CodeRegistry::new();
        let publisher_group = TypedPubSub::builder()
            .code_registry(code.clone())
            .mount_on(&mut host);
        let member = publisher_group.add_member_as(PUBLISHER);
        let publishers = (0..TOPICS)
            .map(|t| member.publisher_for(topic_event_assembly(t)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("publish assemblies: {e}"))?;

        // Exactly 16 subscribers per topic, placed by the seed.
        let mut topics: Vec<usize> = (0..MEMBERS).map(|i| i % TOPICS).collect();
        Rng::new(seed, 1).shuffle(&mut topics);
        let mut by_topic: Vec<Vec<Subscriber>> = (0..TOPICS).map(|_| Vec::new()).collect();
        for (i, &topic) in topics.iter().enumerate() {
            let group = TypedPubSub::builder()
                .code_registry(code.clone())
                .mount_on(&mut host);
            let id = PeerId(2 + i as u32);
            let m = group.add_member_as(id);
            // Star wiring: the typed API only offers `join`, whose
            // gossip would make all 1025 groups a full mesh.
            group.with_swarm(|s| s.add_contact(PUBLISHER));
            let sub = m.subscribe(TypeDescription::from_def(&topic_event_def(topic, "sub")));
            by_topic[topic].push(Subscriber { group, id, sub });
        }
        host.run_until_quiescent()
            .map_err(|e| format!("subscription gossip: {e}"))?;

        let mut w = Fanout {
            host,
            publisher_group,
            publishers,
            by_topic,
            rng: Rng::new(seed, 2),
            next_event: 0,
            pump_trace: false,
            pumps: 0,
            useful_pumps: 0,
            dispatch_errors: 0,
        };
        // Warm-up: every topic's exchange, then ordinary bursts.
        let mut tally = Tally::default();
        let mut tr = Tracer::new(false);
        let all: Vec<usize> = (0..TOPICS).collect();
        for chunk in all.chunks(BURST) {
            w.burst(chunk, &mut tr, &mut tally)?;
        }
        for _ in 0..WARM_BURSTS {
            w.round(&mut tr, &mut tally)?;
        }
        let errors = w.drain_dispatch_errors();
        if tally.failed > 0 || errors > 0 {
            return Err(format!(
                "warm-up: {} failed checks, {errors} dispatch errors: {:?}",
                tally.failed, tally.failures
            ));
        }
        Ok(w)
    }

    fn round(&mut self, tr: &mut Tracer, tally: &mut Tally) -> Result<(), String> {
        let topics: [usize; BURST] = std::array::from_fn(|_| self.rng.below(TOPICS));
        self.burst(&topics, tr, tally)
    }

    fn counters(&mut self) -> Counters {
        let hub = self.host.reactor();
        let mut c = Counters::default();
        c.add_net(&Transport::metrics(&hub));
        c.reactor_wakeups = hub.stats().wakeups;
        c.pumps = self.pumps;
        c.useful_pumps = self.useful_pumps;
        c.route_generation = self.publisher_group.with_swarm(|s| s.routes().generation());
        for s in self.by_topic.iter().flatten() {
            c.add_protocol(&s.group.stats(s.id));
        }
        let d = self.publisher_group.delivery_stats();
        c.retransmits = d.retransmits;
        c.duplicates_suppressed = d.duplicates_suppressed;
        c.max_inflight = d.max_inflight as u64;
        c.dispatch_errors = self.dispatch_errors;
        c
    }

    fn heap_live(&mut self) -> usize {
        let mut live = self
            .publisher_group
            .with_swarm(|s| s.peer(PUBLISHER).runtime.heap.len());
        for s in self.by_topic.iter().flatten() {
            live += s.group.with_swarm(|sw| sw.peer(s.id).runtime.heap.len());
        }
        live
    }

    fn finish_phase(&mut self, tally: &mut Tally) {
        let errors = self.drain_dispatch_errors();
        self.dispatch_errors += errors;
        tally.check(errors == 0, || format!("{errors} dispatch errors"));
        // One payload encode per publish, however many subscribers.
        let encodes = Transport::metrics(&self.host.reactor()).payload_encodes;
        tally.check(encodes == self.next_event, || {
            format!("{encodes} payload encodes for {} events", self.next_event)
        });
    }

    fn set_pump_trace(&mut self, on: bool) {
        self.host.set_pump_trace(on);
        self.pump_trace = on;
    }

    fn fixture(&mut self) -> Fixture {
        let routes = self.publisher_group.with_swarm(|s| s.routes().clone());
        Fixture::topics(TOPICS, routes, None)
    }
}
