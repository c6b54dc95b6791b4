//! `novel-types`: the paper's Figure-1 path on every event. One
//! publisher on a `SimNet` group holds a seeded population of sensor
//! variants, half of them conforming. Fresh subscribers arrive one at a
//! time, subscribe to `sensor_interest`, and receive one event of every
//! variant (each new to them) with one event in flight: description
//! fetch, XML parse and a conformance-cache miss every time, plus the
//! code fetch and install for conforming events only. The subscriber
//! then leaves and its runtime is dropped, so state stays bounded.

use std::time::Instant;

use pti_core::prelude::*;
use pti_core::samples::{self, VariantKind};

use crate::measure::{Rng, Tally, Tracer};
use crate::replay::Fixture;
use crate::{Counters, Workload};

/// How many variants of each kind the population holds: 12 conforming
/// and 12 rejected, so every seed costs the same mix.
const QUOTA: [(VariantKind, usize); 5] = [
    (VariantKind::RenamedConformant, 4),
    (VariantKind::ExactConformant, 4),
    (VariantKind::PermutedConformant, 4),
    (VariantKind::MissingMethod, 6),
    (VariantKind::WrongFieldType, 6),
];
/// Generated candidates the quota is filled from.
const CANDIDATES: usize = 256;
/// Subscriber ids cycle through this pool; a recycled id is a fresh
/// member with fresh state.
const POOL: u64 = 8;
/// Subscriber sessions run in set-up.
const WARM_SESSIONS: usize = 64;
const PUBLISHER: PeerId = PeerId(1);

struct Variant {
    def: TypeDef,
    assembly: Assembly,
    kind: VariantKind,
    publisher: Publisher<SimNet>,
}

pub struct NovelTypes {
    tps: TypedPubSub<SimNet>,
    variants: Vec<Variant>,
    interest: TypeDescription,
    rng: Rng,
    next_event: u64,
    sessions: u64,
    /// Protocol counters of subscribers that already left.
    retired: Counters,
    dispatch_errors: u64,
}

fn value_of(event: u64) -> f64 {
    event as f64 + 0.5
}

impl Workload for NovelTypes {
    fn setup(seed: u64) -> Result<NovelTypes, String> {
        let tps = TypedPubSub::builder().build();
        // A long run sends far more than the default livelock budget.
        tps.with_swarm(|s| s.set_message_budget(usize::MAX));
        let member = tps.add_member_as(PUBLISHER);
        let mut quota = QUOTA;
        let mut variants = Vec::new();
        for v in samples::generate_population(seed, CANDIDATES, 0.5) {
            let Some(slot) = quota.iter_mut().find(|(k, n)| *k == v.kind && *n > 0) else {
                continue;
            };
            slot.1 -= 1;
            let publisher = member
                .publisher_for(v.assembly.clone())
                .map_err(|e| format!("publish variant: {e}"))?;
            variants.push(Variant {
                def: v.def,
                assembly: v.assembly,
                kind: v.kind,
                publisher,
            });
        }
        if quota.iter().any(|(_, n)| *n > 0) {
            return Err(format!("seed {seed} did not fill the variant quota"));
        }
        let mut w = NovelTypes {
            tps,
            variants,
            interest: TypeDescription::from_def(&samples::sensor_interest("subscriber")),
            rng: Rng::new(seed, 3),
            next_event: 0,
            sessions: 0,
            retired: Counters::default(),
            dispatch_errors: 0,
        };
        let mut tally = Tally::default();
        let mut tr = Tracer::new(false);
        for _ in 0..WARM_SESSIONS {
            w.round(&mut tr, &mut tally)?;
        }
        if tally.failed > 0 {
            return Err(format!("warm-up: {:?}", tally.failures));
        }
        Ok(w)
    }

    /// One subscriber session: arrive, receive one event of every
    /// variant, leave.
    fn round(&mut self, tr: &mut Tracer, tally: &mut Tally) -> Result<(), String> {
        let round = tr.begin("round", 0, 0);
        let id = PeerId(2 + (self.sessions % POOL) as u32);
        self.sessions += 1;
        let member = self.tps.add_member_as(id);
        let sub = member.subscribe(self.interest.clone());
        let mut order: Vec<usize> = (0..self.variants.len()).collect();
        self.rng.shuffle(&mut order);
        let mut accepted_types = 0u64;
        for vi in order {
            let v = &self.variants[vi];
            self.next_event += 1;
            let event = self.next_event;
            let before = member.stats();

            let span = tr.begin("tps.publish", round, event);
            let published = Instant::now();
            let mut handle = None;
            v.publisher
                .publish_with(|e| {
                    match v.kind {
                        VariantKind::WrongFieldType => e.set("value", "not-a-number")?,
                        _ => e.set("value", value_of(event))?,
                    };
                    handle = Some(e.handle());
                    Ok(())
                })
                .map_err(|e| format!("publish: {e}"))?;
            tr.end(span);
            tally.events += 1;

            let span = tr.begin("transport.drive", round, event);
            self.tps.run().map_err(|e| format!("drive: {e}"))?;
            let driven = Instant::now();
            tr.end(span);
            tally.latency(published, driven);
            tally.expected_verdicts += 1;
            tally.expected_deliveries += 1;

            let span = tr.begin("tps.consume", round, event);
            let got = sub.drain();
            let after = member.stats();
            let conforms = v.kind.conformant_pragmatic();
            let ok = if conforms {
                accepted_types += 1;
                let read = got
                    .first()
                    .and_then(|ev| sub.get_field(ev, "value").ok())
                    .and_then(|x| x.as_f64().ok());
                tally.consumed += got.len() as u64;
                let handles: Vec<ObjHandle> =
                    got.iter().filter_map(|ev| ev.value.as_obj().ok()).collect();
                self.tps.with_swarm(|s| {
                    let rt = &mut s.peer_mut(id).runtime;
                    for h in handles {
                        let _ = rt.heap.free(h);
                    }
                });
                got.len() == 1 && read == Some(value_of(event))
            } else {
                got.is_empty()
                    && after.rejected == before.rejected + 1
                    && after.asm_requests == before.asm_requests
            };
            tr.end(span);
            if tally.check(ok, || {
                format!("{:?} variant: {} notifications at {id}", v.kind, got.len())
            }) {
                tally.matched_verdicts += 1;
            }
            self.tps.with_swarm(|s| {
                let _ = s
                    .peer_mut(PUBLISHER)
                    .runtime
                    .heap
                    .free(handle.expect("built"));
            });
        }

        // The accepted set is the generator's conforming set, and only
        // accepted types fetched code.
        let stats = member.stats();
        tally.check(
            stats.accepted == accepted_types && stats.asm_requests == accepted_types,
            || {
                format!(
                    "{id}: {} accepted, {} asm requests, {accepted_types} conforming",
                    stats.accepted, stats.asm_requests
                )
            },
        );
        let leftover = self.tps.with_swarm(|s| s.peer(id).runtime.heap.len());
        tally.check(leftover == 0, || {
            format!("{id} left {leftover} live objects")
        });
        self.retired.add_protocol(&stats);
        self.tps.detach_member(id);
        let errors = self.tps.take_dispatch_errors();
        self.dispatch_errors += errors.len() as u64;
        tally.check(errors.is_empty(), || format!("dispatch errors: {errors:?}"));
        tr.end(round);
        Ok(())
    }

    fn counters(&mut self) -> Counters {
        let mut c = self.retired;
        c.add_net(&self.tps.metrics());
        c.route_generation = self.tps.with_swarm(|s| s.routes().generation());
        c.dispatch_errors = self.dispatch_errors;
        c
    }

    fn heap_live(&mut self) -> usize {
        self.tps
            .with_swarm(|s| s.peer(PUBLISHER).runtime.heap.len())
    }

    fn fixture(&mut self) -> Fixture {
        let v = self
            .variants
            .iter()
            .find(|v| v.kind == VariantKind::ExactConformant)
            .expect("quota holds exact variants");
        Fixture {
            assembly: v.assembly.clone(),
            event: v.def.clone(),
            interest: samples::sensor_interest("subscriber"),
            routes: self.tps.with_swarm(|s| s.routes().clone()),
            names: vec!["SensorReading".into()],
            // One event in flight: each receive finds one message.
            inbox_depth: Some(1),
        }
    }
}
