//! The acceptance gate for interest-indexed routing: with a 32-member
//! group and one subscriber per event type, routed delivery must cut
//! `object` traffic at least 4x against the flood baseline — the
//! O(members)→O(subscribers) saving the routing layer exists for.

use pti_core::prelude::*;
use pti_core::samples::{topic_event_assembly, topic_event_def};

const MEMBERS: usize = 32;
const TOPICS: usize = 8;
const EVENTS: usize = 16;

/// Runs the scenario, publishing each event through the typed API
/// (routed) or flooding it from the swarm underneath
/// (`Swarm::flood_object`, the broadcast baseline); returns (object
/// messages on the wire — standalone plus batched frames —, events
/// delivered).
fn run(flood: bool) -> (u64, usize) {
    let tps = TypedPubSub::builder().build();
    let members: Vec<Member<_>> = (0..MEMBERS).map(|_| tps.add_member()).collect();
    let publisher = &members[0];

    let publishers: Vec<Publisher<_>> = (0..TOPICS)
        .map(|t| publisher.publisher_for(topic_event_assembly(t)).unwrap())
        .collect();

    // Exactly one subscriber per topic; the remaining members are idle.
    let subs: Vec<Subscription<_>> = (0..TOPICS)
        .map(|t| members[1 + t].subscribe(TypeDescription::from_def(&topic_event_def(t, "sub"))))
        .collect();

    for i in 0..EVENTS {
        let topic = i % TOPICS;
        if flood {
            let from = publisher.id();
            tps.with_swarm(|s| {
                let rt = &mut s.peer_mut(from).runtime;
                let h = rt.instantiate_def(&topic_event_def(topic, "pub"), &[])?;
                rt.set_field(h, "value", Value::F64(i as f64))?;
                s.flood_object(from, &Value::Obj(h), PayloadFormat::Binary)
            })
            .unwrap();
        } else {
            publishers[topic]
                .publish_with(|e| {
                    e.set("value", i as f64)?;
                    Ok(())
                })
                .unwrap();
        }
        // Pump per event so each burst ships immediately (batching across
        // a burst is measured elsewhere; here we compare per-event cost).
        tps.run().unwrap();
    }

    let delivered: usize = subs.iter().map(|s| s.drain().len()).sum();
    let m = tps.metrics();
    (m.kind("object").messages + m.batched_frames(), delivered)
}

#[test]
fn routed_cuts_object_messages_at_least_4x_vs_flood() {
    let (routed_objects, routed_delivered) = run(false);
    let (flood_objects, flood_delivered) = run(true);

    // Both modes deliver the same events to the same subscribers...
    assert_eq!(routed_delivered, EVENTS);
    assert_eq!(flood_delivered, EVENTS);

    // ...but routing sends one envelope per event (the one subscriber)
    // while flooding sends one per other member.
    assert_eq!(routed_objects as usize, EVENTS);
    assert_eq!(flood_objects as usize, EVENTS * (MEMBERS - 1));
    assert!(
        flood_objects >= 4 * routed_objects,
        "expected >=4x saving, got routed={routed_objects} flood={flood_objects}"
    );
}
