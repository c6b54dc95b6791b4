//! Link-model and host parity: the generic `Swarm<T: Transport>` must
//! make identical protocol decisions on every shape of the fabric.
//!
//! The same publish/subscribe scenario — a publisher with a mixed
//! population of conformant and non-conformant event types, a subscriber
//! with one interest — runs over a `SimNet` with the LAN link model and
//! a `ReactorNet` with ideal links *through the same generic function*,
//! and split across two bridged `ShardedHost` shards; every observable
//! decision (accept/reject sequence, desc/asm request counts, per-kind
//! message counts) must agree.

use pti_core::prelude::*;
use pti_core::samples;

/// What a run of the scenario observed, fabric-independent.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    /// Accept (true) / reject (false) per delivery, in delivery order.
    decisions: Vec<(String, bool)>,
    desc_requests: u64,
    asm_requests: u64,
    accepted: u64,
    rejected: u64,
    object_messages: u64,
    desc_response_messages: u64,
    asm_response_messages: u64,
}

/// The scenario, written once against the transport-agnostic API.
fn run_scenario<T: Transport>(mut swarm: Swarm<T>) -> Outcome {
    let publisher = swarm.add_peer(ConformanceConfig::pragmatic());
    let subscriber = swarm.add_peer(ConformanceConfig::pragmatic());

    let interest = samples::sensor_interest("subscriber");
    swarm
        .peer_mut(subscriber)
        .subscribe(TypeDescription::from_def(&interest));

    // A deterministic mixed population: conformant and non-conformant
    // variants, each published and sent twice (the repeat exercises the
    // "already known" fast path on both fabrics).
    let variants = samples::generate_population(11, 6, 0.5);
    for v in &variants {
        swarm.publish(publisher, v.assembly.clone()).unwrap();
    }
    for round in 0..2 {
        for v in &variants {
            let h = swarm
                .peer_mut(publisher)
                .runtime
                .instantiate_def(&v.def, &[])
                .unwrap();
            swarm
                .send_object(publisher, subscriber, &Value::Obj(h), PayloadFormat::Binary)
                .unwrap();
            let _ = round;
        }
        // Drain after each round so decisions interleave identically.
        swarm.run().unwrap();
    }

    let decisions = swarm
        .peer_mut(subscriber)
        .take_deliveries()
        .into_iter()
        .map(|d| match d {
            Delivery::Accepted { value, .. } => {
                let name = match value {
                    Value::Obj(h) => {
                        let peer = swarm.peer(subscriber);
                        peer.runtime.type_of(h).unwrap().name.full().to_string()
                    }
                    other => other.kind_name().to_string(),
                };
                (name, true)
            }
            Delivery::Rejected { type_name, .. } => (type_name.full().to_string(), false),
        })
        .collect();

    let stats = swarm.peer(subscriber).stats;
    let m = swarm.metrics();
    Outcome {
        decisions,
        desc_requests: stats.desc_requests,
        asm_requests: stats.asm_requests,
        accepted: stats.accepted,
        rejected: stats.rejected,
        object_messages: m.kind("object").messages,
        desc_response_messages: m.kind("desc-response").messages,
        asm_response_messages: m.kind("asm-response").messages,
    }
}

/// The same scenario split across **two shards** of a `ShardedHost`:
/// the publisher's swarm pinned to shard 0, the subscriber's to shard 1,
/// so every object, desc and asm exchange crosses a bridge. The
/// decisions and the merged traffic counters must match the
/// single-fabric runs exactly.
fn run_scenario_sharded() -> Outcome {
    let mut host = ShardedHost::new(2);
    let code = CodeRegistry::new();
    let pub_slot = {
        let code = code.clone();
        host.mount_pinned(0, move |net| Swarm::with_code_registry(net, code))
    };
    let sub_slot = {
        let code = code.clone();
        host.mount_pinned(1, move |net| Swarm::with_code_registry(net, code))
    };
    let publisher = host.with_swarm(pub_slot, |s| {
        s.add_peer_as(PeerId(1), ConformanceConfig::pragmatic())
    });
    let subscriber = host.with_swarm(sub_slot, |s| {
        s.add_peer_as(PeerId(2), ConformanceConfig::pragmatic())
    });
    assert_eq!(host.owner_of(publisher), Some(0));
    assert_eq!(host.owner_of(subscriber), Some(1));
    host.with_swarm(sub_slot, move |s| {
        let interest = samples::sensor_interest("subscriber");
        s.peer_mut(subscriber)
            .subscribe(TypeDescription::from_def(&interest));
    });

    // Same deterministic population as `run_scenario` (the generator is
    // seed-free), regenerated inside each closure: the samples stay on
    // the shard that uses them.
    host.with_swarm(pub_slot, move |s| {
        for v in &samples::generate_population(11, 6, 0.5) {
            s.publish(publisher, v.assembly.clone()).unwrap();
        }
    });
    for _round in 0..2 {
        host.with_swarm(pub_slot, move |s| {
            for v in &samples::generate_population(11, 6, 0.5) {
                let h = s
                    .peer_mut(publisher)
                    .runtime
                    .instantiate_def(&v.def, &[])
                    .unwrap();
                s.send_object(publisher, subscriber, &Value::Obj(h), PayloadFormat::Binary)
                    .unwrap();
            }
        });
        // Drain after each round so decisions interleave identically.
        host.run_until_quiescent().unwrap();
    }

    let (decisions, stats) = host.with_swarm(sub_slot, move |s| {
        let decisions: Vec<(String, bool)> = s
            .peer_mut(subscriber)
            .take_deliveries()
            .into_iter()
            .map(|d| match d {
                Delivery::Accepted { value, .. } => {
                    let name = match value {
                        Value::Obj(h) => {
                            let peer = s.peer(subscriber);
                            peer.runtime.type_of(h).unwrap().name.full().to_string()
                        }
                        other => other.kind_name().to_string(),
                    };
                    (name, true)
                }
                Delivery::Rejected { type_name, .. } => (type_name.full().to_string(), false),
            })
            .collect();
        (decisions, s.peer(subscriber).stats)
    });

    let m = host.metrics();
    assert!(
        m.bridge_crossings > 0,
        "a split-shard run must actually cross the bridge"
    );
    Outcome {
        decisions,
        desc_requests: stats.desc_requests,
        asm_requests: stats.asm_requests,
        accepted: stats.accepted,
        rejected: stats.rejected,
        object_messages: m.kind("object").messages,
        desc_response_messages: m.kind("desc-response").messages,
        asm_response_messages: m.kind("asm-response").messages,
    }
}

#[test]
fn same_scenario_same_decisions_on_both_fabrics() {
    let sim = run_scenario(Swarm::new(NetConfig::default()));
    let reactor = run_scenario(Swarm::over(ReactorNet::new(NetConfig::ideal())));
    let sharded = run_scenario_sharded();

    assert_eq!(
        sim, reactor,
        "the reactor fabric must agree with SimNet on every decision"
    );
    assert_eq!(
        sim, sharded,
        "two bridged shards must agree with SimNet on every decision"
    );
    // Sanity: the scenario actually exercised both paths.
    assert!(sim.accepted > 0, "some variants conform: {sim:?}");
    assert!(sim.rejected > 0, "some variants do not conform: {sim:?}");
    assert!(sim.asm_requests > 0 && sim.desc_requests > 0);
    assert_eq!(sim.object_messages, 12, "6 variants x 2 rounds");
}

/// What a *routed* run observed, fabric-independent: who each publish
/// was routed to, what each subscriber accepted, and how the wire was
/// used (object vs coalesced batch messages, per-link frame counts).
#[derive(Debug, PartialEq, Eq)]
struct RoutedOutcome {
    /// Subscriber count each publish resolved to, in publish order.
    routed_to: Vec<usize>,
    /// Accepted events per subscriber (s1, s2, s3).
    accepted: (u64, u64, u64),
    /// Received objects per subscriber — with routing, a non-matching
    /// signature means the event never even crossed the link.
    received: (u64, u64, u64),
    object_messages: u64,
    batch_messages: u64,
    batched_frames: u64,
    /// Object bytes the fabric attributed from inside batches.
    batched_object_bytes: u64,
    /// Per-link frames on the publisher→s1 link.
    s1_link_frames: u64,
    /// Routed target count after s1 retracted its interest.
    routed_after_unsubscribe: usize,
    /// s1's received count after retraction (must not grow).
    s1_received_after_unsubscribe: u64,
}

/// The routed scenario, written once against the transport-agnostic API:
/// one publisher, two subscribers interested in `SensorReading`, one in
/// an unrelated type; then one of the sensor subscribers retracts.
fn run_routed_scenario<T: Transport>(mut swarm: Swarm<T>) -> RoutedOutcome {
    let publisher = swarm.add_peer(ConformanceConfig::pragmatic());
    let s1 = swarm.add_peer(ConformanceConfig::pragmatic());
    let s2 = swarm.add_peer(ConformanceConfig::pragmatic());
    let s3 = swarm.add_peer(ConformanceConfig::pragmatic());

    let s1_interest = TypeDescription::from_def(&samples::sensor_interest("s1"));
    let s1_guid = s1_interest.guid;
    swarm.subscribe(s1, s1_interest);
    let unrelated = TypeDef::class("AuditRecord", "s2")
        .field("value", primitives::FLOAT64)
        .build();
    swarm.subscribe(s2, TypeDescription::from_def(&unrelated));
    swarm.subscribe(
        s3,
        TypeDescription::from_def(&samples::sensor_interest("s3")),
    );

    let event = samples::generate_population(3, 1, 1.0).remove(0);
    swarm.publish(publisher, event.assembly.clone()).unwrap();

    let mut routed_to = Vec::new();
    for _ in 0..3 {
        let h = swarm
            .peer_mut(publisher)
            .runtime
            .instantiate_def(&event.def, &[])
            .unwrap();
        routed_to.push(
            swarm
                .route_object(publisher, &Value::Obj(h), PayloadFormat::Binary)
                .unwrap(),
        );
    }
    swarm.run().unwrap();

    let accepted = (
        swarm.peer(s1).stats.accepted,
        swarm.peer(s2).stats.accepted,
        swarm.peer(s3).stats.accepted,
    );
    let received = (
        swarm.peer(s1).stats.objects_received,
        swarm.peer(s2).stats.objects_received,
        swarm.peer(s3).stats.objects_received,
    );

    // s1 retracts: the router must stop targeting it on both fabrics.
    assert!(swarm.unsubscribe(s1, s1_guid));
    let h = swarm
        .peer_mut(publisher)
        .runtime
        .instantiate_def(&event.def, &[])
        .unwrap();
    let routed_after_unsubscribe = swarm
        .route_object(publisher, &Value::Obj(h), PayloadFormat::Binary)
        .unwrap();
    swarm.run().unwrap();

    // The post-retraction publish was a single frame, so it travelled as
    // a plain `object` message; every batch counter below is from the
    // three-event burst.
    let m = swarm.metrics();
    RoutedOutcome {
        routed_to,
        accepted,
        received,
        object_messages: m.kind("object").messages,
        batch_messages: m.kind("batch").messages,
        batched_frames: m.batched_frames(),
        batched_object_bytes: m.batched_kind("object").bytes,
        s1_link_frames: m.link(publisher, s1).frames,
        routed_after_unsubscribe,
        s1_received_after_unsubscribe: swarm.peer(s1).stats.objects_received,
    }
}

#[test]
fn routing_decisions_agree_on_both_fabrics_including_after_unsubscribe() {
    let sim = run_routed_scenario(Swarm::new(NetConfig::default()));
    let reactor = run_routed_scenario(Swarm::over(ReactorNet::new(NetConfig::ideal())));

    assert_eq!(
        sim, reactor,
        "the reactor fabric must make identical routing decisions"
    );
    // Each publish resolved exactly the two sensor subscribers...
    assert_eq!(sim.routed_to, vec![2, 2, 2]);
    assert_eq!(sim.accepted, (3, 0, 3));
    // ...the unrelated-interest subscriber never saw a single object...
    assert_eq!(sim.received, (3, 0, 3));
    // ...the three queued envelopes per link coalesced into one batch
    // per subscriber link...
    assert_eq!(sim.batch_messages, 2);
    assert_eq!(sim.batched_frames, 6);
    assert_eq!(sim.s1_link_frames, 3);
    assert!(
        sim.batched_object_bytes > 0,
        "batched objects are attributed"
    );
    assert_eq!(sim.object_messages, 1, "post-retraction publish to s3 only");
    // ...and after s1's retraction only s3 remains a target.
    assert_eq!(sim.routed_after_unsubscribe, 1);
    assert_eq!(
        sim.s1_received_after_unsubscribe, 3,
        "no delivery after unsubscribe"
    );
}

#[test]
fn aliases_name_the_canonical_swarms() {
    // Type-level check: the aliases stay wired to the right fabrics.
    let _sim: SimSwarm = Swarm::new(NetConfig::default());
    let _reactor: ReactorSwarm = Swarm::over(ReactorNet::new(NetConfig::ideal()));
}
