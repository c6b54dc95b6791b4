//! Threaded integration: the shared optimistic protocol on real threads.
//!
//! Every swarm is mounted on a shard of a `ShardedHost` — one reactor
//! per worker thread, cross-shard traffic riding the bridges — and the
//! control thread drives each exchange with `run_until_quiescent`. The
//! protocol code is identical to the single-fabric path; only the
//! placement differs. Shards work only inside the barrier's rounds, so
//! cross-shard arrival order is a function of the round order and every
//! count below is exact.

use pti_core::prelude::*;
use pti_core::samples;

/// Mounts a swarm sharing `code` on `shard`, owning the one peer `id`.
fn mount_peer(host: &mut ShardedHost, shard: usize, code: &CodeRegistry, id: PeerId) -> usize {
    let code = code.clone();
    host.mount_pinned(shard, move |net| {
        let mut swarm = Swarm::with_code_registry(net, code);
        swarm.add_peer_as(id, ConformanceConfig::pragmatic());
        swarm
    })
}

#[test]
fn two_threads_exchange_conformant_objects() {
    let mut host = ShardedHost::new(2);
    let code = CodeRegistry::new();
    const N: usize = 50;

    let producer_id = PeerId(1);
    let consumer_id = PeerId(2);
    let producer = mount_peer(&mut host, 0, &code, producer_id);
    let consumer = mount_peer(&mut host, 1, &code, consumer_id);
    assert_eq!(host.owner_of(producer_id), Some(0));
    assert_eq!(host.owner_of(consumer_id), Some(1));

    // Consumer: vendor-b interest; its shard's protocol engine fetches
    // the description, checks conformance, downloads the code from the
    // shared registry, and delivers proxied events.
    host.with_swarm(consumer, move |swarm| {
        swarm
            .peer_mut(consumer_id)
            .subscribe(TypeDescription::from_def(&samples::person_vendor_b()));
    });
    // Producer: publishes vendor-a Person and sends N objects across
    // the bridge; its shard serves the description/assembly fetches.
    host.with_swarm(producer, move |swarm| {
        let a_def = samples::person_vendor_a();
        swarm
            .publish(producer_id, samples::person_assembly(&a_def))
            .unwrap();
        for i in 0..N {
            let v =
                samples::make_person(&mut swarm.peer_mut(producer_id).runtime, &format!("p{i}"));
            swarm
                .send_object(producer_id, consumer_id, &v, PayloadFormat::Binary)
                .unwrap();
        }
    });
    host.run_until_quiescent().unwrap();

    // Read every event through the consumer's own contract, on its shard.
    let (names, stats) = host.with_swarm(consumer, move |swarm| {
        let deliveries = swarm.peer_mut(consumer_id).take_deliveries();
        let mut names = Vec::new();
        for d in deliveries {
            let Delivery::Accepted {
                proxy: Some(proxy), ..
            } = d
            else {
                panic!("expected accepted proxied deliveries, got {d:?}");
            };
            names.push(
                proxy
                    .invoke(
                        &mut swarm.peer_mut(consumer_id).runtime,
                        "getPersonName",
                        &[],
                    )
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_string(),
            );
        }
        (names, swarm.peer(consumer_id).stats)
    });
    assert_eq!(names.len(), N);
    // Per-link FIFO across the bridge: names arrive in publication order.
    for (i, n) in names.iter().enumerate() {
        assert_eq!(n, &format!("p{i}"));
    }
    // The optimistic protocol paid for description and code exactly once.
    assert_eq!(stats.desc_requests, 1);
    assert_eq!(stats.asm_requests, 1);
    assert_eq!(stats.accepted as usize, N);
    let m = host.metrics();
    assert_eq!(m.kind("object").messages as usize, N);
    assert_eq!(m.kind("desc-request").messages, 1);
    assert_eq!(m.kind("desc-response").messages, 1);
    assert_eq!(m.kind("asm-request").messages, 1);
    assert_eq!(m.kind("asm-response").messages, 1);
    // Every message crossed between the two shard threads.
    assert_eq!(m.bridge_crossings as usize, N + 4);
}

#[test]
fn many_concurrent_publishers_fan_into_one_consumer() {
    const PUBS: usize = 4;
    const PER_PUB: usize = 25;
    // One shard per publisher plus the consumer's.
    let mut host = ShardedHost::new(PUBS + 1);
    let code = CodeRegistry::new();

    let consumer_id = PeerId(100);
    let consumer = mount_peer(&mut host, PUBS, &code, consumer_id);
    host.with_swarm(consumer, move |swarm| {
        swarm
            .peer_mut(consumer_id)
            .subscribe(TypeDescription::from_def(&samples::person_vendor_b()));
    });

    for p in 0..PUBS {
        let id = PeerId(p as u32 + 1);
        let slot = mount_peer(&mut host, p, &code, id);
        host.with_swarm(slot, move |swarm| {
            let def = samples::person_vendor_a();
            swarm.publish(id, samples::person_assembly(&def)).unwrap();
            for i in 0..PER_PUB {
                let v =
                    samples::make_person(&mut swarm.peer_mut(id).runtime, &format!("pub{p}-{i}"));
                swarm
                    .send_object(id, consumer_id, &v, PayloadFormat::Binary)
                    .unwrap();
            }
        });
    }
    host.run_until_quiescent().unwrap();

    // Every publisher's full stream arrived and materialized.
    let (per_pub, stats) = host.with_swarm(consumer, move |swarm| {
        let mut per_pub = vec![0usize; PUBS];
        for d in swarm.peer_mut(consumer_id).take_deliveries() {
            let Delivery::Accepted { value, .. } = d else {
                panic!("{d:?}")
            };
            let h = value.as_obj().unwrap();
            let name = swarm
                .peer_mut(consumer_id)
                .runtime
                .get_field(h, "name")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string();
            let pub_idx: usize = name[3..name.find('-').unwrap()].parse().unwrap();
            per_pub[pub_idx] += 1;
        }
        (per_pub, swarm.peer(consumer_id).stats)
    });
    assert!(per_pub.iter().all(|&c| c == PER_PUB), "{per_pub:?}");
    assert_eq!(stats.accepted as usize, PUBS * PER_PUB);
    assert_eq!(
        host.metrics().kind("object").messages as usize,
        PUBS * PER_PUB
    );
    // Every stream reaches the consumer's shard in the barrier's first
    // round, before any description or code has come back, so each
    // publisher's first object opens its own fetch: one description
    // and one assembly request per publisher, never more.
    assert_eq!(stats.desc_requests, PUBS as u64, "{stats:?}");
    assert_eq!(stats.asm_requests, PUBS as u64, "{stats:?}");
}
