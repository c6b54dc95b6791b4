//! The zero-copy binary wire path: binary (PTIB) object envelopes are
//! the default wire format with XML as a sniffed decode fallback, one
//! publish encodes exactly once, and fanning out to N links shares the
//! encoded bytes instead of copying them.

use pti_core::prelude::*;
use pti_core::samples;

fn routed_fixture(subscribers: usize) -> (Swarm, PeerId, Vec<PeerId>) {
    let mut swarm = Swarm::new(NetConfig::default());
    let publisher = swarm.add_peer(ConformanceConfig::pragmatic());
    swarm
        .publish(
            publisher,
            samples::person_assembly(&samples::person_vendor_a()),
        )
        .unwrap();
    let subs: Vec<PeerId> = (0..subscribers)
        .map(|_| {
            let s = swarm.add_peer(ConformanceConfig::pragmatic());
            swarm.subscribe(s, TypeDescription::from_def(&samples::person_vendor_b()));
            s
        })
        .collect();
    (swarm, publisher, subs)
}

#[test]
fn binary_envelopes_are_the_default_on_the_wire() {
    let (mut swarm, publisher, subs) = routed_fixture(1);
    assert_eq!(swarm.envelope_wire_format(), EnvelopeWireFormat::Ptib);
    let v = samples::make_person(&mut swarm.peer_mut(publisher).runtime, "binary-by-default");
    swarm
        .route_object(publisher, &v, PayloadFormat::Binary)
        .unwrap();
    swarm.flush_wire();
    // Inspect the raw wire message before delivery: PTIE magic, no XML.
    let msg = swarm.net_mut().recv(subs[0]).expect("one routed envelope");
    assert_eq!(msg.kind, "object");
    assert!(ObjectEnvelope::is_ptib(&msg.payload));
    swarm
        .dispatch(
            subs[0],
            BusMessage {
                from: msg.from,
                to: msg.to,
                kind: msg.kind,
                payload: msg.payload,
            },
        )
        .unwrap();
    swarm.run().unwrap();
    assert_eq!(swarm.peer(subs[0]).stats.accepted, 1);
}

#[test]
fn binary_wire_format_is_at_least_twice_as_dense_as_xml() {
    // The routed-workload event shape (R1/R3's topic events): a small
    // payload under a metadata-heavy envelope — where the binary form's
    // savings (raw payload instead of base64, binary GUID, no markup)
    // compound to >=2x, the bound CI gates R3 on.
    let mut sizes = Vec::new();
    for wire in [EnvelopeWireFormat::Xml, EnvelopeWireFormat::Ptib] {
        let mut swarm = Swarm::new(NetConfig::default());
        swarm.set_envelope_wire_format(wire);
        let publisher = swarm.add_peer(ConformanceConfig::pragmatic());
        swarm
            .publish(publisher, samples::topic_event_assembly(0))
            .unwrap();
        let sub = swarm.add_peer(ConformanceConfig::pragmatic());
        swarm.subscribe(
            sub,
            TypeDescription::from_def(&samples::topic_event_def(0, "sub")),
        );
        swarm.reset_metrics();
        let h = swarm
            .peer_mut(publisher)
            .runtime
            .instantiate_def(&samples::topic_event_def(0, "pub"), &[])
            .unwrap();
        swarm
            .route_object(publisher, &Value::Obj(h), PayloadFormat::Binary)
            .unwrap();
        swarm.flush_wire();
        sizes.push(swarm.metrics().kind("object").bytes);
    }
    let (xml, ptib) = (sizes[0], sizes[1]);
    assert!(
        2 * ptib <= xml,
        "binary envelope {ptib} B vs xml {xml} B: expected >=2x reduction"
    );
}

#[test]
fn xml_envelopes_remain_a_decode_fallback() {
    // A sender pinned to the XML wire form (the cross-language
    // configuration) interoperates with a default receiver: dispatch
    // sniffs the magic and falls back to XML parsing.
    let (mut swarm, publisher, subs) = routed_fixture(1);
    swarm.set_envelope_wire_format(EnvelopeWireFormat::Xml);
    let v = samples::make_person(&mut swarm.peer_mut(publisher).runtime, "via-xml");
    swarm
        .route_object(publisher, &v, PayloadFormat::Binary)
        .unwrap();
    swarm.run().unwrap();
    let deliveries = swarm.peer_mut(subs[0]).take_deliveries();
    assert_eq!(deliveries.len(), 1);
    assert!(deliveries[0].is_accepted());
}

#[test]
fn one_publish_encodes_once_and_shares_across_the_fanout() {
    const SUBS: usize = 8;
    const EVENTS: usize = 5;
    let (mut swarm, publisher, subs) = routed_fixture(SUBS);
    // Warm the protocol (desc/asm exchange) so the measured publishes
    // are steady-state.
    let v = samples::make_person(&mut swarm.peer_mut(publisher).runtime, "warmup");
    swarm
        .route_object(publisher, &v, PayloadFormat::Binary)
        .unwrap();
    swarm.run().unwrap();
    swarm.reset_metrics();

    for i in 0..EVENTS {
        let v = samples::make_person(
            &mut swarm.peer_mut(publisher).runtime,
            &format!("shared-{i}"),
        );
        let routed = swarm
            .route_object(publisher, &v, PayloadFormat::Binary)
            .unwrap();
        assert_eq!(routed, SUBS);
    }
    swarm.run().unwrap();

    let m = swarm.metrics();
    // One encode per publish — not one per destination.
    assert_eq!(m.payload_encodes, EVENTS as u64, "encodes == publishes");
    // Every subscriber still received every event.
    for s in &subs {
        assert_eq!(swarm.peer(*s).stats.accepted, EVENTS as u64 + 1);
    }
    // The object envelopes that crossed the wire: EVENTS per subscriber,
    // attributed across standalone and batched frames.
    assert_eq!(m.attributed("object").messages, (EVENTS * SUBS) as u64);
}

#[test]
fn payload_fanout_is_refcounted_not_copied() {
    // Structural proof at the fabric level: the same Payload handed to
    // N SimNet sends is shared by all inboxes.
    let mut net = SimNet::new(NetConfig::default());
    for p in 1..=9u32 {
        net.register(PeerId(p));
    }
    let payload = Payload::from(vec![0xCD; 4096]);
    for p in 2..=9u32 {
        net.send(PeerId(1), PeerId(p), "object", payload.clone())
            .unwrap();
    }
    // 8 queued messages + our handle = 9 owners of ONE buffer.
    assert_eq!(payload.ref_count(), 9);
    let first = net.recv(PeerId(2)).unwrap();
    assert_eq!(
        first.payload.as_slice().as_ptr(),
        payload.as_slice().as_ptr(),
        "delivered bytes are the sender's buffer, not a copy"
    );
}

#[test]
fn batched_object_frames_attribute_their_bytes_to_object() {
    let (mut swarm, publisher, subs) = routed_fixture(1);
    let v = samples::make_person(&mut swarm.peer_mut(publisher).runtime, "warm");
    swarm
        .route_object(publisher, &v, PayloadFormat::Binary)
        .unwrap();
    swarm.run().unwrap();
    swarm.reset_metrics();
    // A burst of 6 publishes coalesces into one batch on the link...
    for i in 0..6 {
        let v = samples::make_person(&mut swarm.peer_mut(publisher).runtime, &format!("b{i}"));
        swarm
            .route_object(publisher, &v, PayloadFormat::Binary)
            .unwrap();
    }
    swarm.run().unwrap();
    let m = swarm.metrics();
    assert_eq!(m.kind("object").messages, 0, "nothing standalone");
    assert_eq!(m.link(publisher, subs[0]).batches, 1);
    // ...and the attribution overlay still splits the bytes by kind.
    assert_eq!(m.batched_kind("object").messages, 6);
    assert!(m.batched_kind("object").bytes > 0);
    assert!(
        m.batched_kind("object").bytes <= m.kind("batch").bytes,
        "attribution is a subset of the batch bytes"
    );
}

#[test]
fn route_cache_follows_subscribe_unsubscribe_and_migration() {
    // The memoized resolve must never serve stale fan-outs.
    let (mut swarm, publisher, subs) = routed_fixture(2);
    let v = samples::make_person(&mut swarm.peer_mut(publisher).runtime, "r1");
    assert_eq!(
        swarm
            .route_object(publisher, &v, PayloadFormat::Binary)
            .unwrap(),
        2
    );
    swarm.run().unwrap();
    // Retract one interest: the cached set refreshes.
    let interest = samples::person_vendor_b().guid;
    assert!(swarm.unsubscribe(subs[0], interest));
    let v = samples::make_person(&mut swarm.peer_mut(publisher).runtime, "r2");
    assert_eq!(
        swarm
            .route_object(publisher, &v, PayloadFormat::Binary)
            .unwrap(),
        1
    );
    swarm.run().unwrap();
    // Remove the remaining subscriber entirely.
    swarm.remove_peer(subs[1]);
    let v = samples::make_person(&mut swarm.peer_mut(publisher).runtime, "r3");
    assert_eq!(
        swarm
            .route_object(publisher, &v, PayloadFormat::Binary)
            .unwrap(),
        0
    );
}

#[test]
fn route_object_surfaces_provenance_errors_even_with_no_subscribers() {
    // A publish to nobody must still flag a developer error (unpublished
    // type) immediately — not succeed silently until the first
    // subscriber happens to arrive.
    let mut swarm = Swarm::new(NetConfig::default());
    let publisher = swarm.add_peer(ConformanceConfig::pragmatic());
    let def = samples::person_vendor_a();
    swarm
        .peer_mut(publisher)
        .runtime
        .register_type(def.clone())
        .unwrap();
    let h = swarm
        .peer_mut(publisher)
        .runtime
        .instantiate(&"Person".into(), &[Value::from("x")])
        .unwrap();
    let err = swarm
        .route_object(publisher, &Value::Obj(h), PayloadFormat::Binary)
        .unwrap_err();
    assert!(
        matches!(err, TransportError::NoProvenance(_)),
        "got {err:?}"
    );
}

#[test]
fn hostile_eager_length_prefix_is_rejected() {
    let mut swarm = Swarm::new(NetConfig::default());
    let alice = swarm.add_peer(ConformanceConfig::pragmatic());
    let bob = swarm.add_peer(ConformanceConfig::pragmatic());
    // Claims a u32::MAX-byte envelope inside a 12-byte message.
    let mut evil = u32::MAX.to_le_bytes().to_vec();
    evil.extend_from_slice(&[0u8; 8]);
    swarm.send_raw(alice, bob, "eager-object", evil).unwrap();
    swarm.run().unwrap();
    let errs = swarm.take_dispatch_errors();
    assert_eq!(errs.len(), 1, "{errs:?}");
    assert!(matches!(errs[0].1, TransportError::Protocol(_)), "{errs:?}");
    // Too short for even the prefix.
    swarm
        .send_raw(alice, bob, "eager-object", vec![1, 2])
        .unwrap();
    swarm.run().unwrap();
    assert!(!swarm.take_dispatch_errors().is_empty());
}

#[test]
fn session_fabric_parity_with_binary_wire_format() {
    // The same routed scenario over two swarms on sessions of one
    // shared fabric: binary envelopes, shared fan-out, identical
    // delivery decisions.
    let fabric = SharedSimNet::new(NetConfig::ideal());
    let code = CodeRegistry::new();
    let mut pub_swarm = Swarm::with_code_registry(fabric.session(), code.clone());
    let publisher = pub_swarm.add_peer_as(PeerId(1), ConformanceConfig::pragmatic());
    pub_swarm
        .publish(
            publisher,
            samples::person_assembly(&samples::person_vendor_a()),
        )
        .unwrap();
    let mut sub_swarm = Swarm::with_code_registry(fabric.session(), code);
    let subscriber = sub_swarm.add_peer_as(PeerId(2), ConformanceConfig::pragmatic());
    sub_swarm.join(publisher).unwrap();
    sub_swarm.subscribe(
        subscriber,
        TypeDescription::from_def(&samples::person_vendor_b()),
    );
    for _ in 0..4 {
        pub_swarm.run().unwrap();
        sub_swarm.run().unwrap();
    }
    let v = samples::make_person(&mut pub_swarm.peer_mut(publisher).runtime, "session-binary");
    assert_eq!(
        pub_swarm
            .route_object(publisher, &v, PayloadFormat::Binary)
            .unwrap(),
        1
    );
    for _ in 0..4 {
        pub_swarm.run().unwrap();
        sub_swarm.run().unwrap();
    }
    assert_eq!(sub_swarm.peer(subscriber).stats.accepted, 1);
    assert_eq!(fabric.metrics().payload_encodes, 1);
}
