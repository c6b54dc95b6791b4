//! Membership acceptance: a swarm that joins *after* interests were
//! gossiped must resolve the identical subscriber set a founding swarm
//! resolves — with zero manual `add_contact` wiring — on both fabrics
//! (`SharedSimNet` virtual-time, `LiveBus` threads); and a burst beyond
//! the wire-batch cap must ship as multiple bounded batches with no
//! frame loss.

use std::time::Duration;

use pti_core::prelude::*;
use pti_core::samples;

/// Drives every swarm in turn until one full sweep moves no traffic on
/// the shared fabric — the multi-swarm pump both fabrics accept.
fn pump<T: Transport>(swarms: &mut [&mut Swarm<T>]) {
    let mut last = u64::MAX;
    loop {
        for s in swarms.iter_mut() {
            s.run_for(Duration::from_millis(20)).unwrap();
        }
        let now = swarms[0].metrics().messages;
        if now == last {
            return;
        }
        last = now;
    }
}

/// What the late-join scenario observed, fabric-independent.
#[derive(Debug, PartialEq, Eq)]
struct LateJoinOutcome {
    /// Subscriber set a *founding* swarm resolves for the event type.
    founder_resolves: Vec<PeerId>,
    /// Subscriber set the *late joiner* resolves — must be identical.
    joiner_resolves: Vec<PeerId>,
    /// Contacts the joiner converged to, all learned via gossip.
    joiner_contacts: Vec<PeerId>,
    /// Live members in the joiner's view.
    joiner_view: usize,
    /// How many subscribers the joiner's publish was routed to.
    routed_to: usize,
    /// Events accepted at the founders' subscribers (peers 2 and 3).
    accepted: (u64, u64),
    /// Targets of a publish after one subscriber swarm left the group.
    routed_after_leave: usize,
}

/// Three swarms on one shared fabric, no manual `add_contact` anywhere:
///
/// * swarm A (peers 1, 2) — founder; peer 2 subscribes.
/// * swarm B (peer 3) — subscribes *before* joining through peer 1, so
///   its interest rides the JOIN announcement.
/// * swarm C (peer 4) — joins *after* all interest gossip settled, then
///   publishes. The VIEW reply's interest re-announcement is the only
///   way C can learn who subscribes.
fn run_late_join<T: Transport>(fabrics: (T, T, T)) -> LateJoinOutcome {
    let (fa, fb, fc) = fabrics;
    let code = CodeRegistry::new();
    let mut a: Swarm<T> = Swarm::with_code_registry(fa, code.clone());
    let mut b: Swarm<T> = Swarm::with_code_registry(fb, code.clone());
    let mut c: Swarm<T> = Swarm::with_code_registry(fc, code);

    let p1 = a.add_peer_as(PeerId(1), ConformanceConfig::pragmatic());
    let p2 = a.add_peer_as(PeerId(2), ConformanceConfig::pragmatic());
    let p3 = b.add_peer_as(PeerId(3), ConformanceConfig::pragmatic());
    let p4 = c.add_peer_as(PeerId(4), ConformanceConfig::pragmatic());

    a.subscribe(
        p2,
        TypeDescription::from_def(&samples::sensor_interest("s2")),
    );
    // B subscribes first, then joins: the interest must ride the JOIN.
    b.subscribe(
        p3,
        TypeDescription::from_def(&samples::sensor_interest("s3")),
    );
    b.join(p1).unwrap();
    pump(&mut [&mut a, &mut b]);

    // The group is converged; C arrives late. Everything C learns —
    // members and interests — comes from the VIEW handshake.
    c.join(p1).unwrap();
    pump(&mut [&mut a, &mut b, &mut c]);
    let joiner_contacts = c.contacts();
    let joiner_view = c.membership().len();

    let event = samples::generate_population(3, 1, 1.0).remove(0);
    c.publish(p4, event.assembly.clone()).unwrap();
    let signature = Signature::of_name(event.def.name.simple());
    let founder_resolves = a.routes().resolve(&signature);
    let joiner_resolves = c.routes().resolve(&signature);

    let h = c
        .peer_mut(p4)
        .runtime
        .instantiate_def(&event.def, &[])
        .unwrap();
    let routed_to = c
        .route_object(p4, &Value::Obj(h), PayloadFormat::Binary)
        .unwrap();
    pump(&mut [&mut a, &mut b, &mut c]);
    let accepted = (a.peer(p2).stats.accepted, b.peer(p3).stats.accepted);

    // B departs; every engine must retire peer 3 from view and routing
    // table together, so the next publish routes to peer 2 alone.
    b.leave();
    pump(&mut [&mut a, &mut b, &mut c]);
    let h = c
        .peer_mut(p4)
        .runtime
        .instantiate_def(&event.def, &[])
        .unwrap();
    let routed_after_leave = c
        .route_object(p4, &Value::Obj(h), PayloadFormat::Binary)
        .unwrap();
    pump(&mut [&mut a, &mut c]);

    LateJoinOutcome {
        founder_resolves,
        joiner_resolves,
        joiner_contacts,
        joiner_view,
        routed_to,
        accepted,
        routed_after_leave,
    }
}

#[test]
fn late_joiner_resolves_the_founders_subscriber_set_on_both_fabrics() {
    let sim_fabric = SharedSimNet::new(NetConfig::default());
    let sim = run_late_join((sim_fabric.clone(), sim_fabric.clone(), sim_fabric));
    let live_fabric = LiveBus::new();
    let live = run_late_join((live_fabric.clone(), live_fabric.clone(), live_fabric));

    assert_eq!(
        sim, live,
        "membership convergence must agree across fabrics"
    );
    // The late joiner converged to the founders' routing decision...
    assert_eq!(sim.founder_resolves, vec![PeerId(2), PeerId(3)]);
    assert_eq!(sim.joiner_resolves, sim.founder_resolves);
    // ...wired every member as a contact without one add_contact call...
    assert_eq!(
        sim.joiner_contacts,
        vec![PeerId(1), PeerId(2), PeerId(3)],
        "view gossip wired the contacts"
    );
    assert_eq!(sim.joiner_view, 3);
    // ...its publish reached exactly the two subscribers...
    assert_eq!(sim.routed_to, 2);
    assert_eq!(sim.accepted, (1, 1));
    // ...and a LEAVE retired the departed subscriber everywhere.
    assert_eq!(sim.routed_after_leave, 1);
}

/// Alternates the groups until one full sweep moves no fabric traffic —
/// the request/response ping-pong needs several rounds per exchange.
fn pump_groups(groups: &[&TypedPubSub<LiveBus>], bus: &LiveBus) {
    let idle = Duration::from_millis(20);
    let mut last = u64::MAX;
    loop {
        for g in groups {
            g.run_for(idle).unwrap();
        }
        let now = LiveBus::metrics(bus).messages;
        if now == last {
            return;
        }
        last = now;
    }
}

#[test]
fn tps_groups_join_and_migrate_without_manual_wiring() {
    // Session-level: two TypedPubSub shards share one LiveBus + code
    // registry; the second joins through the first's member, a
    // subscriber migrates across shards, and its interest follows.
    let bus = LiveBus::new();
    let code = CodeRegistry::new();

    let founders: TypedPubSub<LiveBus> = TypedPubSub::builder()
        .code_registry(code.clone())
        .over(bus.clone());
    let publisher = founders.add_member_as(PeerId(1));
    let events = publisher
        .publisher_for(samples::topic_event_assembly(0))
        .unwrap();

    let joiners: TypedPubSub<LiveBus> = TypedPubSub::builder()
        .code_registry(code)
        .join(PeerId(1))
        .over(bus.clone());
    let subscriber = joiners.add_member_as(PeerId(2));
    let sub = subscriber.subscribe(TypeDescription::from_def(&samples::topic_event_def(
        0, "sub",
    )));
    // Converge the handshake, then publish across the shard boundary.
    pump_groups(&[&founders, &joiners], &bus);

    events
        .publish_with(|e| {
            e.set("value", 1.0)?;
            Ok(())
        })
        .unwrap();
    pump_groups(&[&founders, &joiners], &bus);
    assert_eq!(sub.drain().len(), 1, "joined shard receives routed events");

    // Migrate the subscriber into the founders' shard: the old id
    // departs everywhere, the interest re-routes from the new home.
    let (migrated, subs) = subscriber.migrate_to(&founders, PeerId(3));
    assert_eq!(subs.len(), 1);
    pump_groups(&[&founders, &joiners], &bus);

    events
        .publish_with(|e| {
            e.set("value", 2.0)?;
            Ok(())
        })
        .unwrap();
    pump_groups(&[&founders, &joiners], &bus);
    assert_eq!(subs[0].drain().len(), 1, "migrated interest still routes");
    assert_eq!(migrated.stats().accepted, 1);
    founders.with_swarm(|s| {
        assert!(
            !s.routes().subscribers().contains(&PeerId(2)),
            "the departed id left the routing table"
        );
    });
    // The handle left behind at the old home is inert, never a panic.
    assert!(sub.drain().is_empty(), "stale handle yields nothing new");
    assert!(!sub.cancel(), "already retracted by the migration");
    assert_eq!(joiners.stats(PeerId(2)), ProtocolStats::default());
}

#[test]
fn peers_added_after_join_are_announced_to_the_group() {
    let fabric = SharedSimNet::new(NetConfig::default());
    let code = CodeRegistry::new();
    let mut a: Swarm<SharedSimNet> = Swarm::with_code_registry(fabric.clone(), code.clone());
    let mut b: Swarm<SharedSimNet> = Swarm::with_code_registry(fabric, code);
    let p1 = a.add_peer_as(PeerId(1), ConformanceConfig::pragmatic());
    b.add_peer_as(PeerId(2), ConformanceConfig::pragmatic());
    b.join(p1).unwrap();
    pump(&mut [&mut a, &mut b]);

    // A peer added to B *after* the handshake must still become part of
    // the group: A learns it via a VIEW announcement, so floods (the
    // membership-driven broadcast) reach it too.
    b.add_peer_as(PeerId(3), ConformanceConfig::pragmatic());
    pump(&mut [&mut a, &mut b]);
    assert!(a.membership().is_live(PeerId(3)), "announced post-join");
    assert_eq!(a.contacts(), vec![PeerId(2), PeerId(3)]);

    let event = samples::generate_population(5, 1, 1.0).remove(0);
    a.publish(p1, event.assembly.clone()).unwrap();
    let h = a
        .peer_mut(p1)
        .runtime
        .instantiate_def(&event.def, &[])
        .unwrap();
    let outcome = a
        .flood_object(p1, &Value::Obj(h), PayloadFormat::Binary)
        .unwrap();
    assert_eq!(outcome.sent, 2, "flood covers the late-added peer");
}

#[test]
fn gossip_in_the_join_window_reaches_the_whole_group() {
    // A and B are converged; C joins through A and subscribes *before*
    // any pump, while its contact list is still just the seed. The
    // hello a swarm sends to every newly met contact must carry the
    // interest to B anyway.
    let fabric = SharedSimNet::new(NetConfig::default());
    let code = CodeRegistry::new();
    let mut a: Swarm<SharedSimNet> = Swarm::with_code_registry(fabric.clone(), code.clone());
    let mut b: Swarm<SharedSimNet> = Swarm::with_code_registry(fabric.clone(), code.clone());
    let mut c: Swarm<SharedSimNet> = Swarm::with_code_registry(fabric, code);
    let p1 = a.add_peer_as(PeerId(1), ConformanceConfig::pragmatic());
    b.add_peer_as(PeerId(2), ConformanceConfig::pragmatic());
    let p3 = c.add_peer_as(PeerId(3), ConformanceConfig::pragmatic());
    b.join(p1).unwrap();
    pump(&mut [&mut a, &mut b]);

    c.join(p1).unwrap();
    c.subscribe(
        p3,
        TypeDescription::from_def(&samples::sensor_interest("s3")),
    );
    pump(&mut [&mut a, &mut b, &mut c]);
    assert_eq!(
        b.routes().subscribers(),
        vec![p3],
        "the join-window subscribe reached the non-seed swarm"
    );
    assert!(b.membership().is_live(p3));
}

#[test]
fn undrained_events_survive_migration() {
    // Events matched before a migration stay drainable from the stale
    // subscription at the old home — they are not silently lost.
    let tps = TypedPubSub::builder().build();
    let publisher = tps.add_member();
    let subscriber = tps.add_member();
    let events = publisher
        .publisher_for(samples::topic_event_assembly(0))
        .unwrap();
    let sub = subscriber.subscribe(TypeDescription::from_def(&samples::topic_event_def(
        0, "sub",
    )));
    events
        .publish_with(|e| {
            e.set("value", 3.0)?;
            Ok(())
        })
        .unwrap();
    tps.run().unwrap();

    // Migrate *without* draining first.
    let target = TypedPubSub::builder().build();
    let _ = subscriber.migrate_to(&target, PeerId(60));
    assert_eq!(sub.drain().len(), 1, "pre-move event still drainable");
    assert!(sub.drain().is_empty(), "drained once");
}

#[test]
fn a_failed_join_leaves_no_phantom_contact() {
    let fabric = SharedSimNet::new(NetConfig::default());
    let mut swarm: Swarm<SharedSimNet> = Swarm::over(fabric);
    swarm.add_peer_as(PeerId(1), ConformanceConfig::pragmatic());
    assert!(swarm.join(PeerId(99)).is_err(), "seed never registered");
    assert!(swarm.contacts().is_empty(), "no state change on failure");
    assert!(swarm.membership().is_empty());
}

#[test]
fn leave_retires_manually_wired_contacts_too() {
    // The add_contact escape hatch bypasses the membership view; a LEAVE
    // must still take such contacts (and their routes) out.
    let fabric = SharedSimNet::new(NetConfig::default());
    let code = CodeRegistry::new();
    let mut a: Swarm<SharedSimNet> = Swarm::with_code_registry(fabric.clone(), code.clone());
    let mut b: Swarm<SharedSimNet> = Swarm::with_code_registry(fabric, code);
    let p1 = a.add_peer_as(PeerId(1), ConformanceConfig::pragmatic());
    let p2 = b.add_peer_as(PeerId(2), ConformanceConfig::pragmatic());
    a.add_contact(p2);
    b.add_contact(p1);
    b.subscribe(
        p2,
        TypeDescription::from_def(&samples::sensor_interest("s2")),
    );
    pump(&mut [&mut a, &mut b]);
    assert_eq!(a.routes().subscribers(), vec![p2], "gossip reached A");

    b.leave();
    pump(&mut [&mut a, &mut b]);
    assert!(a.contacts().is_empty(), "manual contact retired by LEAVE");
    assert!(a.routes().is_empty(), "its routes went with it");
}

#[test]
fn stale_member_clones_stay_inert_after_migration() {
    let tps = TypedPubSub::builder().build();
    let member = tps.add_member();
    let stale = member.clone();
    let target = TypedPubSub::builder().build();
    // Same-fabric constraint doesn't matter here: the point is that the
    // clone left behind must not panic, whatever it is asked to do.
    let (_migrated, _subs) = member.migrate_to(&target, PeerId(50));

    let sub = stale.subscribe(TypeDescription::from_def(&samples::sensor_interest("late")));
    assert!(sub.drain().is_empty(), "inert subscription, no panic");
    assert!(!sub.cancel());
    assert_eq!(stale.stats(), ProtocolStats::default());
    tps.with_swarm(|s| assert!(s.routes().is_empty(), "nothing registered"));
}

#[test]
fn bursts_beyond_the_cap_split_into_bounded_batches_without_loss() {
    const EVENTS: usize = 10;
    const CAP: usize = 4;

    let mut swarm = Swarm::new(NetConfig::default());
    let publisher = swarm.add_peer(ConformanceConfig::pragmatic());
    let subscriber = swarm.add_peer(ConformanceConfig::pragmatic());
    swarm.set_wire_cap(CAP, usize::MAX);
    swarm.subscribe(
        subscriber,
        TypeDescription::from_def(&samples::sensor_interest("sub")),
    );

    let event = samples::generate_population(7, 1, 1.0).remove(0);
    swarm.publish(publisher, event.assembly.clone()).unwrap();
    for _ in 0..EVENTS {
        let h = swarm
            .peer_mut(publisher)
            .runtime
            .instantiate_def(&event.def, &[])
            .unwrap();
        swarm
            .route_object(publisher, &Value::Obj(h), PayloadFormat::Binary)
            .unwrap();
    }
    assert_eq!(swarm.queued_frames(), EVENTS);
    swarm.run().unwrap();

    // ceil(10/4) = 3 bounded batches instead of one unbounded one...
    let m = swarm.metrics();
    let link = m.link(publisher, subscriber);
    assert_eq!(link.batches as usize, EVENTS.div_ceil(CAP));
    assert_eq!(link.frames as usize, EVENTS, "no frame lost to the split");
    // ...and every event was delivered.
    assert_eq!(swarm.peer(subscriber).stats.accepted as usize, EVENTS);
}

#[test]
fn byte_cap_splits_and_oversized_frames_still_ship() {
    let mut swarm = Swarm::new(NetConfig::default());
    let publisher = swarm.add_peer(ConformanceConfig::pragmatic());
    let subscriber = swarm.add_peer(ConformanceConfig::pragmatic());
    swarm.subscribe(
        subscriber,
        TypeDescription::from_def(&samples::sensor_interest("sub")),
    );
    let event = samples::generate_population(11, 1, 1.0).remove(0);
    swarm.publish(publisher, event.assembly.clone()).unwrap();

    // A cap smaller than any single envelope: every frame exceeds it,
    // yet each must still ship (alone), never be dropped.
    swarm.set_wire_cap(usize::MAX, 1);
    for _ in 0..3 {
        let h = swarm
            .peer_mut(publisher)
            .runtime
            .instantiate_def(&event.def, &[])
            .unwrap();
        swarm
            .route_object(publisher, &Value::Obj(h), PayloadFormat::Binary)
            .unwrap();
    }
    swarm.run().unwrap();
    assert_eq!(swarm.peer(subscriber).stats.accepted, 3);
    let m = swarm.metrics();
    // Single-frame runs ship as plain `object` messages.
    assert_eq!(m.kind("object").messages, 3, "split, not lost");
    assert_eq!(m.link(publisher, subscriber).batches, 0);
}
