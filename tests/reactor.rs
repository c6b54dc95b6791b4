//! Reactor acceptance: a `ReactorHost` drives many `Swarm<ReactorNet>`
//! instances on one thread through the full optimistic protocol —
//! readiness-driven stepping (no polling of idle swarms), a fairness
//! budget that round-robins busy swarms, at-least-once repair through
//! virtual-time retransmit deadlines in place of wall-clock sleeps, and
//! the `pti-tps` `mount_on` hook for session groups.

use std::sync::Arc;

use pti_core::prelude::*;
use pti_core::samples;

/// A publisher swarm and a subscriber swarm on one host: the join
/// handshake, interest gossip, routed publish and desc/asm exchange all
/// converge through `run_until_quiescent` alone.
#[test]
fn host_drives_the_cross_swarm_protocol_to_quiescence() {
    let mut host = ReactorHost::new();
    let code = CodeRegistry::new();
    let pub_slot = {
        let code = code.clone();
        host.mount(move |net| Swarm::with_code_registry(net, code))
    };
    let sub_slot = {
        let code = code.clone();
        host.mount(move |net| Swarm::with_code_registry(net, code))
    };

    let p1 = host.with_swarm(pub_slot, |s| {
        s.add_peer_as(PeerId(1), ConformanceConfig::pragmatic())
    });
    let p2 = host.with_swarm(sub_slot, |s| {
        s.add_peer_as(PeerId(2), ConformanceConfig::pragmatic())
    });
    host.with_swarm(sub_slot, |s| {
        s.subscribe(
            p2,
            TypeDescription::from_def(&samples::sensor_interest("sub")),
        );
        s.join(p1).unwrap();
    });
    host.run_until_quiescent().unwrap();

    let event = samples::generate_population(3, 1, 1.0).remove(0);
    let routed = host.with_swarm(pub_slot, |s| {
        s.publish(p1, event.assembly.clone()).unwrap();
        let h = s
            .peer_mut(p1)
            .runtime
            .instantiate_def(&event.def, &[])
            .unwrap();
        s.route_object(p1, &Value::Obj(h), PayloadFormat::Binary)
            .unwrap()
    });
    assert_eq!(routed, 1, "interest gossip reached the publisher");
    host.run_until_quiescent().unwrap();

    let stats = host.with_swarm(sub_slot, |s| s.peer(p2).stats);
    assert_eq!(stats.accepted, 1);
    assert!(stats.desc_requests > 0 && stats.asm_requests > 0);

    // Readiness means no idle stepping: every wakeup the fabric counted
    // was a session with actual traffic (or frames of its own to ship),
    // and nothing is left ready or backlogged afterwards.
    let hub = host.reactor();
    assert!(!hub.has_ready());
    assert!(hub.stats().sends > 0);
    assert_eq!(hub.stats().recvs, hub.stats().sends, "every ring drained");
}

/// Two flooded subscribers must share the thread: with a budget of 2
/// messages per wakeup and 8 standalone events queued per subscriber,
/// the pump trace must strictly alternate between them — neither swarm
/// may monopolise the loop until its ring is dry.
#[test]
fn fairness_budget_round_robins_flooded_swarms() {
    let mut host = ReactorHost::new();
    let code = CodeRegistry::new();
    let mk = |code: &CodeRegistry| {
        let code = code.clone();
        move |net| Swarm::with_code_registry(net, code)
    };
    let pub_slot = host.mount(mk(&code));
    let s1_slot = host.mount(mk(&code));
    let s2_slot = host.mount(mk(&code));

    let p1 = host.with_swarm(pub_slot, |s| {
        s.add_peer_as(PeerId(1), ConformanceConfig::pragmatic())
    });
    for (slot, id, salt) in [(s1_slot, 2, "s1"), (s2_slot, 3, "s2")] {
        host.with_swarm(slot, |s| {
            let p = s.add_peer_as(PeerId(id), ConformanceConfig::pragmatic());
            s.subscribe(
                p,
                TypeDescription::from_def(&samples::sensor_interest(salt)),
            );
            s.join(p1).unwrap();
        });
    }
    host.run_until_quiescent().unwrap();

    // Warmup: one event settles the desc/asm exchange so the flood below
    // is pure OBJECT traffic.
    let event = samples::generate_population(3, 1, 1.0).remove(0);
    host.with_swarm(pub_slot, |s| {
        s.publish(p1, event.assembly.clone()).unwrap();
        // One frame per wire message: each event reaches each subscriber
        // as its own standalone OBJECT, so the budget counts events.
        s.set_wire_cap(1, usize::MAX);
        let h = s
            .peer_mut(p1)
            .runtime
            .instantiate_def(&event.def, &[])
            .unwrap();
        s.route_object(p1, &Value::Obj(h), PayloadFormat::Binary)
            .unwrap();
    });
    host.run_until_quiescent().unwrap();

    host.set_fairness_budget(2);
    host.set_pump_trace(true);
    host.with_swarm(pub_slot, |s| {
        for _ in 0..8 {
            let h = s
                .peer_mut(p1)
                .runtime
                .instantiate_def(&event.def, &[])
                .unwrap();
            s.route_object(p1, &Value::Obj(h), PayloadFormat::Binary)
                .unwrap();
        }
    });
    host.run_until_quiescent().unwrap();

    let turns: Vec<(usize, usize)> = host
        .take_pump_trace()
        .into_iter()
        .filter(|&(slot, handled)| (slot == s1_slot || slot == s2_slot) && handled > 0)
        .collect();
    // 8 events / 2 per turn = 4 full turns each, strictly interleaved.
    assert_eq!(turns.len(), 8, "turns: {turns:?}");
    for pair in turns.chunks(2) {
        assert_eq!(
            (pair[0].0, pair[1].0),
            (s1_slot, s2_slot),
            "round-robin order violated: {turns:?}"
        );
    }
    assert!(
        turns.iter().all(|&(_, handled)| handled == 2),
        "budget respected: {turns:?}"
    );

    let accepted = (
        host.with_swarm(s1_slot, |s| s.peer(PeerId(2)).stats.accepted),
        host.with_swarm(s2_slot, |s| s.peer(PeerId(3)).stats.accepted),
    );
    assert_eq!(accepted, (9, 9), "warmup + 8 flooded events each");
}

/// Events the hosted reliable script publishes after warm-up.
const RELIABLE_EVENTS: usize = 64;

/// What one subscriber of [`hosted_reliable_script`] ended up with.
#[derive(Debug)]
struct Received {
    /// The `value` field of each event drained, in drain order.
    values: Vec<f64>,
    dispatch_errors: usize,
    /// The subscriber group's at-least-once counters.
    delivery: DeliveryStats,
}

/// Three `AtLeastOnce` groups mounted on one host — a publisher and two
/// subscribers of its topic — warmed up losslessly; then a seeded plan
/// drops 5% and duplicates 2% of every fabric send while the publisher
/// publishes `RELIABLE_EVENTS` events, each followed by
/// `run_until_quiescent` (one fabric send per event and link, so each
/// is its own draw). The
/// script ends with `ReactorHost::run_durable` when `durable`, else with
/// one more `run_until_quiescent`. Returns each subscriber's events and
/// the publisher's delivery counters.
fn hosted_reliable_script(durable: bool) -> (Vec<Received>, DeliveryStats) {
    use pti_core::samples::{topic_event_assembly, topic_event_def};
    let mut host = ReactorHost::new();
    let code = CodeRegistry::new();
    let group = |seed: Option<PeerId>, host: &mut ReactorHost| {
        let builder = TypedPubSub::builder()
            .qos(QoS::AtLeastOnce)
            .code_registry(code.clone());
        match seed {
            Some(seed) => builder.join(seed).mount_on(host),
            None => builder.mount_on(host),
        }
    };
    let publisher_group = group(None, &mut host);
    let subscriber_groups = [
        group(Some(PeerId(1)), &mut host),
        group(Some(PeerId(1)), &mut host),
    ];
    let publisher = publisher_group.add_member_as(PeerId(1));
    let subs: Vec<Subscription<ReactorNet>> = subscriber_groups
        .iter()
        .zip([PeerId(2), PeerId(3)])
        .map(|(g, id)| {
            g.add_member_as(id)
                .subscribe(TypeDescription::from_def(&topic_event_def(0, "sub")))
        })
        .collect();
    let events = publisher.publisher_for(topic_event_assembly(0)).unwrap();
    let publish = |value: f64| {
        events
            .publish_with(|e| {
                e.set("value", value)?;
                Ok(())
            })
            .unwrap();
    };
    host.run_until_quiescent().unwrap();

    // Warm-up without loss: the desc/asm exchange is not retransmitted,
    // so only the OBJECT_R/ACK repair path meets the faults below.
    publish(-1.0);
    host.run_durable().unwrap();
    for sub in &subs {
        assert_eq!(sub.drain().len(), 1, "warm-up delivered");
    }

    host.reactor()
        .install_fault_plan(FaultPlan::new(11).with_loss(50).with_duplication(20));
    for i in 0..RELIABLE_EVENTS {
        publish(i as f64);
        host.run_until_quiescent().unwrap();
    }
    if durable {
        host.run_durable().unwrap();
    } else {
        host.run_until_quiescent().unwrap();
    }
    let received = subs
        .iter()
        .zip(&subscriber_groups)
        .map(|(sub, g)| Received {
            values: sub
                .drain()
                .iter()
                .map(|ev| sub.get_field(ev, "value").unwrap().as_f64().unwrap())
                .collect(),
            dispatch_errors: g.take_dispatch_errors().len(),
            delivery: g.delivery_stats(),
        })
        .collect();
    assert!(publisher_group.take_dispatch_errors().is_empty());
    (received, publisher_group.delivery_stats())
}

/// The host form of durable delivery: with 5% loss and 2% duplication
/// on every send, `run_durable` moves the clock to each retransmit
/// deadline and the publisher's resends deliver every event to both
/// subscribers exactly once, in publish order. `run_until_quiescent`
/// alone never moves the clock, so on the same script a lost frame
/// stays lost.
#[test]
fn run_durable_repairs_a_lossy_hosted_fanout() {
    let (received, stats) = hosted_reliable_script(true);
    let in_order: Vec<f64> = (0..RELIABLE_EVENTS).map(|i| i as f64).collect();
    for r in &received {
        assert_eq!(r.values, in_order, "every event once, in publish order");
        assert_eq!(r.dispatch_errors, 0);
    }
    assert!(stats.retransmits > 0, "losses were repaired by resends");
    assert_eq!(
        (stats.frames_sent, stats.retransmits, stats.unreachable),
        (130, 64, 0),
        "publisher counts"
    );
    let subscriber_counts: Vec<_> = received
        .iter()
        .map(|r| {
            let d = r.delivery;
            (
                d.delivered,
                d.link_duplicates,
                d.gap_discards,
                d.duplicates_suppressed,
            )
        })
        .collect();
    assert_eq!(
        subscriber_counts,
        vec![(65, 2, 31, 0), (65, 0, 28, 0)],
        "subscriber counts (delivered, link duplicates, gap discards, suppressed)"
    );

    let (received, stats) = hosted_reliable_script(false);
    assert!(
        received.iter().any(|r| r.values.len() < RELIABLE_EVENTS),
        "without run_durable a lost event stays undelivered: {received:?}"
    );
    assert_eq!(stats.retransmits, 0, "the clock never reached a deadline");
}

/// The `pti-tps` hook: two session groups mounted on one host, joined
/// through a seed member, publishing and draining through the typed
/// handles — with the host's event loop as the only driver.
#[test]
fn typed_pubsub_groups_mount_on_a_shared_reactor() {
    let mut host = ReactorHost::new();
    let code = CodeRegistry::new();
    let group_a = TypedPubSub::builder()
        .code_registry(code.clone())
        .mount_on(&mut host);
    let group_b = TypedPubSub::builder()
        .code_registry(code)
        .join(PeerId(1))
        .mount_on(&mut host);

    let exchange = group_a.add_member_as(PeerId(1));
    let trader = group_b.add_member_as(PeerId(2));
    host.run_until_quiescent().unwrap();

    let quote = TypeDef::class("StockQuote", "pub")
        .field("symbol", primitives::STRING)
        .field("price", primitives::FLOAT64)
        .ctor(vec![])
        .build();
    let g = quote.guid;
    let quotes = exchange
        .publisher_for(
            Assembly::builder("quotes")
                .ty(quote)
                .ctor_body(g, 0, bodies::ctor_assign(&[]))
                .build(),
        )
        .unwrap();

    let my_quote = TypeDef::class("StockQuote", "sub")
        .field("symbol", primitives::STRING)
        .field("price", primitives::FLOAT64)
        .build();
    let sub = trader.subscribe(TypeDescription::from_def(&my_quote));
    host.run_until_quiescent().unwrap();

    quotes
        .publish_with(|e| {
            e.set("symbol", "ACME")?.set("price", 42.5)?;
            Ok(())
        })
        .unwrap();
    host.run_until_quiescent().unwrap();

    let events = sub.drain();
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].interest.full(), "StockQuote");
    assert_eq!(events[0].from, PeerId(1));
}

/// Members on one host share what they derive alike: two one-member
/// groups with the same interest bind one contract for a publish, while
/// a member with a different interest binds its own.
#[test]
fn members_on_one_host_share_a_contract_per_interest() {
    let mut host = ReactorHost::new();
    let code = CodeRegistry::new();
    let publisher_group = TypedPubSub::builder()
        .code_registry(code.clone())
        .mount_on(&mut host);
    let quote = TypeDef::class("StockQuote", "pub")
        .field("symbol", primitives::STRING)
        .field("price", primitives::FLOAT64)
        .ctor(vec![])
        .build();
    let g = quote.guid;
    let quotes = publisher_group
        .add_member_as(PeerId(1))
        .publisher_for(
            Assembly::builder("quotes")
                .ty(quote)
                .ctor_body(g, 0, bodies::ctor_assign(&[]))
                .build(),
        )
        .unwrap();
    let full = TypeDef::class("StockQuote", "sub")
        .field("symbol", primitives::STRING)
        .field("price", primitives::FLOAT64)
        .build();
    let price_only = TypeDef::class("StockQuote", "other")
        .field("price", primitives::FLOAT64)
        .build();
    let subs: Vec<_> = [&full, &full, &price_only]
        .into_iter()
        .zip(2..)
        .map(|(interest, id)| {
            let group = TypedPubSub::builder()
                .code_registry(code.clone())
                .join(PeerId(1))
                .mount_on(&mut host);
            let sub = group
                .add_member_as(PeerId(id))
                .subscribe(TypeDescription::from_def(interest));
            (group, sub)
        })
        .collect();
    host.run_until_quiescent().unwrap();

    quotes
        .publish_with(|e| {
            e.set("symbol", "ACME")?.set("price", 42.5)?;
            Ok(())
        })
        .unwrap();
    host.run_until_quiescent().unwrap();

    let contracts: Vec<_> = subs
        .iter()
        .map(|(_, sub)| {
            let events = sub.drain();
            assert_eq!(events.len(), 1);
            assert_eq!(
                sub.get_field(&events[0], "price").unwrap(),
                Value::F64(42.5)
            );
            Arc::clone(events[0].proxy.as_ref().unwrap().contract())
        })
        .collect();
    assert!(
        Arc::ptr_eq(&contracts[0], &contracts[1]),
        "one contract for the same interest"
    );
    assert!(!Arc::ptr_eq(&contracts[0], &contracts[2]));
    assert_ne!(
        contracts[0], contracts[2],
        "a different interest binds its own"
    );
}

/// Unmount tears a swarm down without leaking sessions: its endpoint
/// vanishes from the fabric (senders prune the route), its undelivered
/// backlog is dropped and accounted, other slots keep their indices,
/// and a remount under the same peer id rejoins cleanly.
#[test]
fn unmount_drains_the_slot_and_a_remount_rejoins() {
    let mut host = ReactorHost::new();
    let code = CodeRegistry::new();
    let mk = |code: &CodeRegistry| {
        let code = code.clone();
        move |net| Swarm::with_code_registry(net, code)
    };
    let pub_slot = host.mount(mk(&code));
    let sub_slot = host.mount(mk(&code));
    let p1 = host.with_swarm(pub_slot, |s| {
        s.add_peer_as(PeerId(1), ConformanceConfig::pragmatic())
    });
    host.with_swarm(sub_slot, |s| {
        let p = s.add_peer_as(PeerId(2), ConformanceConfig::pragmatic());
        s.subscribe(
            p,
            TypeDescription::from_def(&samples::sensor_interest("sub")),
        );
        s.join(p1).unwrap();
    });
    host.run_until_quiescent().unwrap();

    let event = samples::generate_population(3, 1, 1.0).remove(0);
    let publish = |host: &mut ReactorHost| {
        host.with_swarm(pub_slot, |s| {
            s.publish(p1, event.assembly.clone()).unwrap();
            let h = s
                .peer_mut(p1)
                .runtime
                .instantiate_def(&event.def, &[])
                .unwrap();
            s.route_object(p1, &Value::Obj(h), PayloadFormat::Binary)
                .unwrap()
        })
    };
    assert_eq!(publish(&mut host), 1);
    // Flush the publisher's wire batch so the event lands in the
    // subscriber's ring — then leave it *undelivered* there: unmount
    // must drop it, not deliver it to a corpse.
    host.with_swarm(pub_slot, |s| s.flush_wire());
    let hub = host.reactor();
    let sub_session = host.session_of(sub_slot);
    assert!(hub.backlog(sub_session) > 0);
    assert_eq!(host.len(), 2);
    let dropped = host.unmount(sub_slot);
    assert!(dropped > 0, "undelivered backlog was dropped, not leaked");
    assert_eq!(host.len(), 1);
    assert_eq!(hub.backlog(sub_session), 0);

    // The fabric forgot the endpoint. The publisher's routing table
    // still holds the stale interest, so the next publish routes — but
    // the wire flush finds the peer gone and prunes the route (no
    // error, no ghost wakeups for the tombstoned slot), and the publish
    // after that routes to nobody.
    host.set_pump_trace(true);
    host.run_until_quiescent().unwrap();
    let wakeups_before = hub.stats().wakeups;
    assert_eq!(publish(&mut host), 1, "stale route until the flush prunes");
    host.run_until_quiescent().unwrap();
    assert_eq!(
        hub.stats().wakeups,
        wakeups_before + 1,
        "only the publisher's outbound wake, never the tombstoned slot"
    );
    assert_eq!(publish(&mut host), 0, "dead route pruned");
    host.run_until_quiescent().unwrap();
    let pumped: Vec<usize> = host
        .take_pump_trace()
        .into_iter()
        .map(|(slot, _)| slot)
        .collect();
    assert!(
        !pumped.contains(&sub_slot),
        "the tombstoned slot was pumped: {pumped:?}"
    );

    // Remount: a fresh swarm joins under a fresh id (the old id's
    // membership tombstone outlives the endpoint, same as any departed
    // peer), re-announces the interest, and deliveries resume.
    let re_slot = host.mount(mk(&code));
    assert_ne!(re_slot, sub_slot, "tombstoned slots are not recycled");
    host.with_swarm(re_slot, |s| {
        let p = s.add_peer_as(PeerId(3), ConformanceConfig::pragmatic());
        s.subscribe(
            p,
            TypeDescription::from_def(&samples::sensor_interest("sub")),
        );
        s.join(p1).unwrap();
    });
    host.run_until_quiescent().unwrap();
    assert_eq!(publish(&mut host), 1, "remounted subscriber is routed");
    host.run_until_quiescent().unwrap();
    let accepted = host.with_swarm(re_slot, |s| s.peer(PeerId(3)).stats.accepted);
    assert_eq!(accepted, 1);
}

/// One publisher and one subscriber on a host that also mounts `idle`
/// members with nothing to do. Returns the pumps one routed publish
/// costs to drive to quiescence, after the exchange is warm.
fn pumps_per_publish_beside_idle_members(idle: usize) -> usize {
    let mut host = ReactorHost::new();
    let code = CodeRegistry::new();
    let mk = |code: &CodeRegistry| {
        let code = code.clone();
        move |net| Swarm::with_code_registry(net, code)
    };
    let pub_slot = host.mount(mk(&code));
    let sub_slot = host.mount(mk(&code));
    let p1 = host.with_swarm(pub_slot, |s| {
        s.add_peer_as(PeerId(1), ConformanceConfig::pragmatic())
    });
    host.with_swarm(sub_slot, |s| {
        let p = s.add_peer_as(PeerId(2), ConformanceConfig::pragmatic());
        s.subscribe(
            p,
            TypeDescription::from_def(&samples::sensor_interest("sub")),
        );
        s.join(p1).unwrap();
    });
    for _ in 0..idle {
        host.mount(Swarm::over);
    }
    host.set_pump_trace(true);
    host.run_until_quiescent().unwrap();
    let event = samples::generate_population(3, 1, 1.0).remove(0);
    let publish = |host: &mut ReactorHost| {
        host.with_swarm(pub_slot, |s| {
            let h = s
                .peer_mut(p1)
                .runtime
                .instantiate_def(&event.def, &[])
                .unwrap();
            s.route_object(p1, &Value::Obj(h), PayloadFormat::Binary)
                .unwrap()
        })
    };
    host.with_swarm(pub_slot, |s| s.publish(p1, event.assembly.clone()))
        .unwrap();
    assert_eq!(publish(&mut host), 1);
    host.run_until_quiescent().unwrap();
    let warmup = host.take_pump_trace();
    assert!(
        warmup
            .iter()
            .all(|&(slot, _)| slot == pub_slot || slot == sub_slot),
        "an idle member was pumped: {warmup:?}"
    );

    assert_eq!(publish(&mut host), 1);
    host.run_until_quiescent().unwrap();
    let accepted = host.with_swarm(sub_slot, |s| s.peer(PeerId(2)).stats.accepted);
    assert_eq!(accepted, 2);
    host.take_pump_trace().len()
}

/// Quiescence costs O(active) swarms, not O(mounted): a warm publish is
/// driven with the same number of pumps beside 1k idle members as
/// beside 16k — the publisher's outbound turn and the subscriber's
/// inbound one.
#[test]
fn an_idle_host_drives_a_publish_in_pumps_independent_of_its_size() {
    let small = pumps_per_publish_beside_idle_members(1_000);
    let large = pumps_per_publish_beside_idle_members(16_000);
    assert_eq!(small, large);
    assert_eq!(small, 2, "publisher + subscriber");
}

/// The R4 shape on a smaller fleet: one publisher, 64 single-peer
/// subscribers over 8 topics, a burst of events published in one go.
/// Every session that received traffic was woken through the ready
/// queue (the wakeup count is at least the number of receiving
/// sessions), and no wakeup was idle (at most the receive count).
#[test]
fn fleet_wakeups_track_the_sessions_that_received_traffic() {
    use pti_core::samples::{topic_event_assembly, topic_event_def};
    const MEMBERS: usize = 64;
    const TOPICS: usize = 8;
    const EVENTS: usize = 32;
    let mut host = ReactorHost::new();
    let code = CodeRegistry::new();
    let mk = |code: &CodeRegistry| {
        let code = code.clone();
        move |net| Swarm::with_code_registry(net, code)
    };
    let hub = host.reactor();
    let pub_slot = host.mount(mk(&code));
    let publisher = host.with_swarm(pub_slot, |s| {
        let p = s.add_peer_as(PeerId(1), ConformanceConfig::pragmatic());
        for t in 0..TOPICS {
            s.publish(p, topic_event_assembly(t)).unwrap();
        }
        p
    });
    let mut subs = Vec::new();
    for i in 0..MEMBERS {
        let slot = host.mount(mk(&code));
        let id = PeerId(2 + i as u32);
        host.with_swarm(slot, |s| {
            let p = s.add_peer_as(id, ConformanceConfig::pragmatic());
            s.add_contact(publisher);
            s.subscribe(
                p,
                TypeDescription::from_def(&topic_event_def(i % TOPICS, "sub")),
            );
        });
        subs.push((slot, id));
    }
    let publish = |host: &mut ReactorHost, events: usize| {
        host.with_swarm(pub_slot, |s| {
            for i in 0..events {
                let h = s
                    .peer_mut(publisher)
                    .runtime
                    .instantiate_def(&topic_event_def(i % TOPICS, "pub"), &[])
                    .unwrap();
                s.route_object(publisher, &Value::Obj(h), PayloadFormat::Binary)
                    .unwrap();
            }
        });
        host.run_until_quiescent().unwrap();
    };
    // Subscription gossip, then one event per topic to warm the exchange.
    host.run_until_quiescent().unwrap();
    publish(&mut host, TOPICS);

    let before = hub.stats();
    let received_before: Vec<u64> = subs
        .iter()
        .map(|&(slot, id)| host.with_swarm(slot, |s| s.peer(id).stats.objects_received))
        .collect();
    publish(&mut host, EVENTS);
    let after = hub.stats();
    let receiving = subs
        .iter()
        .zip(&received_before)
        .filter(|&(&(slot, id), &was)| {
            host.with_swarm(slot, |s| s.peer(id).stats.objects_received) > was
        })
        .count();
    let wakeups = after.wakeups - before.wakeups;
    let recvs = after.recvs - before.recvs;
    assert_eq!(receiving, MEMBERS, "every subscriber's topic was published");
    assert!(wakeups as usize >= receiving, "{wakeups} < {receiving}");
    // One wakeup beyond the receivers: the publisher's turn to ship the
    // frames its publishes queued.
    assert_eq!(wakeups as usize, receiving + 1);
    // Over the whole run (gossip, warm-up and burst), as R4 reports it.
    assert!(after.wakeups <= after.recvs, "{after:?}");
    assert!(recvs as usize >= receiving);
}

/// The sharded host end-to-end: typed groups pinned to *different*
/// shards exchange a routed publish across the bridge, and
/// `migrate_member` moves a subscriber to another shard with its
/// interests intact. Every step is followed by `run_until_quiescent`
/// and then read, so a barrier that returned early shows up as a
/// missing notification.
fn publish_and_migrate_across_shards() {
    let mut host = ShardedHost::new(2);
    let code = CodeRegistry::new();
    let group_a = TypedPubSub::builder()
        .code_registry(code.clone())
        .mount_sharded_pinned(&mut host, 0);
    let group_b = TypedPubSub::builder()
        .code_registry(code)
        .join(PeerId(1))
        .mount_sharded_pinned(&mut host, 1);
    assert_eq!(group_a.shard(&host), 0);
    assert_eq!(group_b.shard(&host), 1);

    group_a.with(&mut host, |g| {
        g.add_member_as(PeerId(1));
    });
    group_b.with(&mut host, |g| {
        g.add_member_as(PeerId(2));
    });
    host.run_until_quiescent().unwrap();

    // Publisher on shard 0, subscriber on shard 1.
    group_b.with(&mut host, |g| {
        let trader = g.member(PeerId(2)).expect("member is live");
        let my_quote = TypeDef::class("StockQuote", "sub")
            .field("symbol", primitives::STRING)
            .field("price", primitives::FLOAT64)
            .build();
        trader.subscribe(TypeDescription::from_def(&my_quote));
    });
    host.run_until_quiescent().unwrap();

    let publish = |host: &mut ShardedHost| {
        group_a.with(host, |g| {
            let exchange = g.member(PeerId(1)).expect("member is live");
            let quote = TypeDef::class("StockQuote", "pub")
                .field("symbol", primitives::STRING)
                .field("price", primitives::FLOAT64)
                .ctor(vec![])
                .build();
            let guid = quote.guid;
            let quotes = exchange
                .publisher_for(
                    Assembly::builder("quotes")
                        .ty(quote)
                        .ctor_body(guid, 0, bodies::ctor_assign(&[]))
                        .build(),
                )
                .unwrap();
            quotes
                .publish_with(|e| {
                    e.set("symbol", "ACME")?.set("price", 42.5)?;
                    Ok(())
                })
                .unwrap();
        })
    };
    publish(&mut host);
    host.run_until_quiescent().unwrap();

    let drained = group_b.with(&mut host, |g| {
        g.notifications(PeerId(2))
            .into_iter()
            .map(|ev| (ev.from, ev.interest.full().to_string()))
            .collect::<Vec<_>>()
    });
    assert_eq!(drained, vec![(PeerId(1), "StockQuote".to_string())]);
    let m = host.metrics();
    assert!(m.bridge_crossings > 0, "the publish crossed shards");

    // Migrate the subscriber from shard 1's group to shard 0's: the
    // interest moves with it and the next publish is shard-local.
    let moved = group_b.migrate_member(&mut host, PeerId(2), &group_a, PeerId(3));
    assert_eq!(moved, 1, "one interest migrated");
    host.run_until_quiescent().unwrap();
    assert_eq!(host.owner_of(PeerId(3)), Some(0));
    assert_eq!(host.owner_of(PeerId(2)), None, "old id departed");

    publish(&mut host);
    host.run_until_quiescent().unwrap();
    let drained = group_a.with(&mut host, |g| {
        g.notifications(PeerId(3))
            .into_iter()
            .map(|ev| (ev.from, ev.interest.full().to_string()))
            .collect::<Vec<_>>()
    });
    assert_eq!(drained, vec![(PeerId(1), "StockQuote".to_string())]);
}

#[test]
fn sharded_groups_publish_and_migrate_across_shards() {
    publish_and_migrate_across_shards();
}

/// The barrier is exact, not lucky: the migrate scenario delivers both
/// notifications on every one of 50 fresh hosts in one process. A
/// shard that did work outside the barrier's commands would let
/// `run_until_quiescent` return with an exchange still running.
#[test]
fn the_sharded_barrier_delivers_on_every_repetition() {
    for _ in 0..50 {
        publish_and_migrate_across_shards();
    }
}

/// Scale smoke: 64 single-peer swarms (one publisher, 63 subscribers)
/// converge and exchange a routed publish on one host — the shape the
/// R4 experiment runs at 1k+ members.
#[test]
fn a_mid_sized_fleet_converges_on_one_host() {
    const FLEET: usize = 64;
    let mut host = ReactorHost::new();
    let code = CodeRegistry::new();

    let mk = |code: &CodeRegistry| {
        let code = code.clone();
        move |net| Swarm::with_code_registry(net, code)
    };
    let pub_slot = host.mount(mk(&code));
    let p1 = host.with_swarm(pub_slot, |s| {
        s.add_peer_as(PeerId(1), ConformanceConfig::pragmatic())
    });
    let mut sub_slots = Vec::new();
    for i in 0..FLEET - 1 {
        let slot = host.mount(mk(&code));
        host.with_swarm(slot, |s| {
            let p = s.add_peer_as(PeerId(2 + i as u32), ConformanceConfig::pragmatic());
            s.subscribe(
                p,
                TypeDescription::from_def(&samples::sensor_interest("fleet")),
            );
            s.join(p1).unwrap();
        });
        sub_slots.push(slot);
    }
    host.run_until_quiescent().unwrap();

    let event = samples::generate_population(3, 1, 1.0).remove(0);
    let routed = host.with_swarm(pub_slot, |s| {
        s.publish(p1, event.assembly.clone()).unwrap();
        let h = s
            .peer_mut(p1)
            .runtime
            .instantiate_def(&event.def, &[])
            .unwrap();
        s.route_object(p1, &Value::Obj(h), PayloadFormat::Binary)
            .unwrap()
    });
    assert_eq!(routed, FLEET - 1);
    host.run_until_quiescent().unwrap();

    let accepted: u64 = sub_slots
        .iter()
        .enumerate()
        .map(|(i, &slot)| host.with_swarm(slot, |s| s.peer(PeerId(2 + i as u32)).stats.accepted))
        .sum();
    assert_eq!(accepted, (FLEET - 1) as u64);
}
