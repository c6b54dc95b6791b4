//! `churn-lossy`: routing under writes, on a lossy fabric. Four swarms
//! of 8 members on one `SharedSimNet`, wired by `join` gossip, 8 topics,
//! `QoS::AtLeastOnce` with a credit window of 16. A seeded `FaultPlan`
//! (loss and duplication) is installed after warm-up. Each round
//! publishes one event and drives every swarm until all links settle; a
//! seeded subset of rounds first moves one member's subscription or has
//! a member leave and rejoin, which bumps the routing generation.

use std::time::Instant;

use pti_core::prelude::*;
use pti_core::samples::{topic_event_assembly, topic_event_def};

use crate::measure::{Rng, Tally, Tracer};
use crate::replay::Fixture;
use crate::{Counters, Workload};

pub const SWARMS: usize = 4;
pub const MEMBERS_PER_SWARM: usize = 8;
pub const TOPICS: usize = 8;
/// Topics each non-publishing member holds at any time.
const SUBSCRIPTIONS: usize = 2;
pub const CREDIT_WINDOW: usize = 16;
pub const LOSS_PERMILLE: u16 = 20;
pub const DUPLICATION_PERMILLE: u16 = 10;
/// One round in this many (seeded) starts with a churn step.
const CHURN_ONE_IN: usize = 8;
/// Rounds run in set-up before the fault plan is installed, and after:
/// long enough under loss for the share of members a lost control
/// message left unrouted to reach its steady state.
const WARM_ROUNDS_LOSSLESS: usize = 128;
const WARM_ROUNDS_LOSSY: usize = 2048;
/// Rounds between sweeps of events the typed API dropped on the heap.
const SWEEP_EVERY: u64 = 64;
const PUBLISHER: PeerId = PeerId(1);

struct Slot {
    group: usize,
    id: PeerId,
    member: Member<SharedSimNet>,
    subs: Vec<Option<Subscription<SharedSimNet>>>,
    /// Accepted events of this incarnation already consumed or swept.
    accounted: u64,
}

pub struct ChurnLossy {
    net: SharedSimNet,
    groups: Vec<TypedPubSub<SharedSimNet>>,
    /// Every member; slot 0 is the publisher.
    slots: Vec<Slot>,
    publishers: Vec<Publisher<SharedSimNet>>,
    rng: Rng,
    next_event: u64,
    rounds: u64,
    retired: Counters,
    dispatch_errors: u64,
    strays: u64,
    /// Deepest inbox a drive found since set-up.
    peak_inbox: usize,
}

fn value_of(event: u64) -> f64 {
    event as f64 + 0.75
}

fn interest(topic: usize) -> TypeDescription {
    TypeDescription::from_def(&topic_event_def(topic, "sub"))
}

impl ChurnLossy {
    /// Drives every swarm until no message is queued anywhere and every
    /// reliable link is acknowledged, jumping the shared clock to the
    /// earliest retransmit deadline when only timers remain — the
    /// multi-swarm counterpart of `run_durable`, which would retransmit
    /// into swarms that never get to answer.
    fn settle(&mut self) -> Result<(), String> {
        loop {
            loop {
                for g in &self.groups {
                    g.run().map_err(|e| format!("drive: {e}"))?;
                }
                let depth = self
                    .slots
                    .iter()
                    .map(|s| self.net.pending(s.id))
                    .max()
                    .unwrap_or(0);
                self.peak_inbox = self.peak_inbox.max(depth);
                if depth == 0 {
                    break;
                }
            }
            let deadline = self
                .groups
                .iter()
                .filter_map(|g| g.with_swarm(|s| s.next_delivery_deadline_us()))
                .min();
            match deadline {
                Some(at) => self.net.advance_clock_to(at),
                None => return Ok(()),
            }
        }
    }

    /// Moves one subscription of a member, or has it leave and rejoin
    /// under its id with the same interests and fresh protocol state.
    fn churn(&mut self, tally: &mut Tally) {
        let idx = 1 + self.rng.below(self.slots.len() - 1);
        if self.rng.below(2) == 0 {
            let held: Vec<usize> = (0..TOPICS)
                .filter(|&t| self.slots[idx].subs[t].is_some())
                .collect();
            let free: Vec<usize> = (0..TOPICS)
                .filter(|&t| self.slots[idx].subs[t].is_none())
                .collect();
            let drop = held[self.rng.below(held.len())];
            let add = free[self.rng.below(free.len())];
            let slot = &mut self.slots[idx];
            if let Some(sub) = slot.subs[drop].take() {
                tally.check(sub.cancel(), || {
                    format!("{} cancel found no interest", slot.id)
                });
            }
            slot.subs[add] = Some(slot.member.subscribe(interest(add)));
        } else {
            self.sweep_slot(idx);
            let slot = &mut self.slots[idx];
            let group = &self.groups[slot.group];
            self.retired.add_protocol(&group.stats(slot.id));
            group.detach_member(slot.id);
            slot.member = group.add_member_as(slot.id);
            for t in 0..TOPICS {
                if slot.subs[t].is_some() {
                    slot.subs[t] = Some(slot.member.subscribe(interest(t)));
                }
            }
            slot.accounted = 0;
        }
    }

    /// Frees events a member accepted without a matching subscription
    /// (routed to it on a stale table, e.g. after its UNSUBSCRIBE was
    /// lost): the typed API drops those notifications and leaves the
    /// objects on the heap. Only as many objects as the member's own
    /// counters explain are freed, so a real leak still shows in the
    /// heap delta.
    fn sweep_slot(&mut self, idx: usize) {
        let slot = &mut self.slots[idx];
        let accepted = self.groups[slot.group].stats(slot.id).accepted;
        let unexplained = accepted.saturating_sub(slot.accounted);
        if unexplained == 0 {
            return;
        }
        let id = slot.id;
        let freed = self.groups[slot.group].with_swarm(|s| {
            let rt = &mut s.peer_mut(id).runtime;
            let live: Vec<ObjHandle> = rt.heap.iter().map(|(h, _)| h).collect();
            let mut freed = 0;
            for h in live.into_iter().take(unexplained as usize) {
                freed += u64::from(rt.heap.free(h).is_ok());
            }
            freed
        });
        slot.accounted += freed;
        self.strays += freed;
    }

    fn sweep(&mut self) {
        for idx in 1..self.slots.len() {
            self.sweep_slot(idx);
        }
    }

    /// One publish-drive-consume round; `churn` steps are drawn from the
    /// seed when `allow_churn`.
    fn step(
        &mut self,
        topic: usize,
        allow_churn: bool,
        tr: &mut Tracer,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let round = tr.begin("round", 0, 0);
        self.rounds += 1;
        if allow_churn && self.rng.below(CHURN_ONE_IN) == 0 {
            let span = tr.begin("churn", round, 0);
            self.churn(tally);
            let drive = tr.begin("transport.drive", span, 0);
            self.settle()?;
            tr.end(drive);
            tr.end(span);
        }

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
        tally.events += 1;

        let span = tr.begin("transport.drive", round, event);
        self.settle()?;
        let driven = Instant::now();
        tr.end(span);

        let mut addressed = 0u64;
        for idx in 1..self.slots.len() {
            let slot = &mut self.slots[idx];
            let Some(sub) = &slot.subs[topic] else {
                continue;
            };
            addressed += 1;
            let span = tr.begin("tps.consume", round, event);
            let got = sub.drain();
            let mut values = Vec::with_capacity(got.len());
            let mut handles = Vec::with_capacity(got.len());
            for ev in &got {
                values.push(
                    sub.get_field(ev, "value")
                        .ok()
                        .and_then(|v| v.as_f64().ok()),
                );
                if let Value::Obj(h) = ev.value {
                    handles.push(h);
                }
            }
            let id = slot.id;
            self.groups[slot.group].with_swarm(|s| {
                let rt = &mut s.peer_mut(id).runtime;
                for h in handles {
                    let _ = rt.heap.free(h);
                }
            });
            slot.accounted += got.len() as u64;
            tally.consumed += got.len() as u64;
            tr.end(span);
            tally.check(got.len() <= 1, || {
                format!("{id} surfaced {} copies of event {event}", got.len())
            });
            tally.check(values.iter().all(|v| *v == Some(value_of(event))), || {
                format!("{id} read {values:?} for event {event}")
            });
            if got.len() == 1 && values[0] == Some(value_of(event)) {
                tally.matched_verdicts += 1;
            }
        }
        tally.expected_verdicts += addressed;
        tally.expected_deliveries += addressed;
        if addressed > 0 {
            tally.latency(published, driven);
        }
        self.groups[0].with_swarm(|s| {
            let _ = s
                .peer_mut(PUBLISHER)
                .runtime
                .heap
                .free(handle.expect("built"));
        });

        // Shed links and traffic to a departed incarnation are the
        // expected fallout of loss and churn; anything else is a bug.
        for g in &self.groups {
            for (at, e) in g.take_dispatch_errors() {
                self.dispatch_errors += 1;
                let expected = matches!(
                    e,
                    TransportError::Unreachable(_) | TransportError::UnknownPeer(_)
                );
                tally.check(expected, || format!("dispatch error at {at}: {e}"));
            }
        }
        if self.rounds.is_multiple_of(SWEEP_EVERY) {
            self.sweep();
        }
        tr.end(round);
        Ok(())
    }
}

impl Workload for ChurnLossy {
    fn setup(seed: u64) -> Result<ChurnLossy, String> {
        let net = SharedSimNet::new(NetConfig::default());
        let code = CodeRegistry::new();
        let mut groups = Vec::with_capacity(SWARMS);
        let mut slots = Vec::with_capacity(SWARMS * MEMBERS_PER_SWARM);
        for g in 0..SWARMS {
            let mut builder = TypedPubSub::builder()
                .qos(QoS::AtLeastOnce)
                .credit_window(CREDIT_WINDOW)
                .code_registry(code.clone());
            if g > 0 {
                builder = builder.join(PUBLISHER);
            }
            let group = builder.over(net.clone());
            group.with_swarm(|s| s.set_message_budget(usize::MAX));
            for m in 0..MEMBERS_PER_SWARM {
                let id = PeerId(1 + (g * MEMBERS_PER_SWARM + m) as u32);
                slots.push(Slot {
                    group: g,
                    id,
                    member: group.add_member_as(id),
                    subs: (0..TOPICS).map(|_| None).collect(),
                    accounted: 0,
                });
            }
            groups.push(group);
        }
        let publishers = (0..TOPICS)
            .map(|t| slots[0].member.publisher_for(topic_event_assembly(t)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("publish assemblies: {e}"))?;
        let mut w = ChurnLossy {
            net,
            groups,
            slots,
            publishers,
            rng: Rng::new(seed, 4),
            next_event: 0,
            rounds: 0,
            retired: Counters::default(),
            dispatch_errors: 0,
            strays: 0,
            peak_inbox: 0,
        };
        w.settle()?;
        for idx in 1..w.slots.len() {
            let mut topics: Vec<usize> = (0..TOPICS).collect();
            w.rng.shuffle(&mut topics);
            let slot = &mut w.slots[idx];
            for &t in &topics[..SUBSCRIPTIONS] {
                slot.subs[t] = Some(slot.member.subscribe(interest(t)));
            }
        }
        w.settle()?;

        let mut tally = Tally::default();
        let mut tr = Tracer::new(false);
        for t in 0..TOPICS {
            w.step(t, false, &mut tr, &mut tally)?;
        }
        for _ in 0..WARM_ROUNDS_LOSSLESS {
            w.round(&mut tr, &mut tally)?;
        }
        w.net.install_fault_plan(
            FaultPlan::new(seed ^ 0x00FA_17ED)
                .with_loss(LOSS_PERMILLE)
                .with_duplication(DUPLICATION_PERMILLE),
        );
        for _ in 0..WARM_ROUNDS_LOSSY {
            w.round(&mut tr, &mut tally)?;
        }
        if tally.failed > 0 {
            return Err(format!("warm-up: {:?}", tally.failures));
        }
        w.peak_inbox = 0;
        Ok(w)
    }

    fn round(&mut self, tr: &mut Tracer, tally: &mut Tally) -> Result<(), String> {
        let topic = self.rng.below(TOPICS);
        self.step(topic, true, tr, tally)
    }

    fn counters(&mut self) -> Counters {
        let mut c = self.retired;
        c.add_net(&self.net.metrics());
        for s in &self.slots {
            c.add_protocol(&self.groups[s.group].stats(s.id));
        }
        for g in &self.groups {
            let d = g.delivery_stats();
            c.retransmits += d.retransmits;
            c.duplicates_suppressed += d.duplicates_suppressed;
            c.max_inflight = c.max_inflight.max(d.max_inflight as u64);
        }
        c.route_generation = self.groups[0].with_swarm(|s| s.routes().generation());
        c.dispatch_errors = self.dispatch_errors;
        c.stray_accepts = self.strays;
        c
    }

    fn heap_live(&mut self) -> usize {
        self.slots
            .iter()
            .map(|s| {
                let id = s.id;
                self.groups[s.group].with_swarm(|sw| sw.peer(id).runtime.heap.len())
            })
            .sum()
    }

    fn finish_phase(&mut self, _tally: &mut Tally) {
        self.sweep();
    }

    fn fixture(&mut self) -> Fixture {
        let routes = self.groups[0].with_swarm(|s| s.routes().clone());
        Fixture::topics(TOPICS, routes, Some(self.peak_inbox))
    }
}
