//! Failure injection: corrupted payloads, missing artifacts, protocol
//! misuse, and injected network faults must surface as *reported,
//! isolated* errors — never panics, never silent corruption, and never
//! a wedged swarm: traffic behind a bad frame keeps flowing.
//!
//! The second half is the durability scenario matrix: a lossy link, a
//! slow consumer behind a small credit window, a subscriber that
//! crashes and resumes into a retained-ring replay, and a partition
//! that heals — each driven by a seeded [`FaultPlan`] on the
//! virtual-time fabric, so every run is reproducible.

use pti_core::prelude::*;
use pti_core::samples;
use pti_transport::{kinds, TransportError};

fn fixture() -> (Swarm, PeerId, PeerId) {
    let mut swarm = Swarm::new(NetConfig::default());
    let alice = swarm.add_peer(ConformanceConfig::pragmatic());
    let bob = swarm.add_peer(ConformanceConfig::pragmatic());
    let a = samples::person_vendor_a();
    swarm.publish(alice, samples::person_assembly(&a)).unwrap();
    let b = samples::person_vendor_b();
    swarm.peer_mut(bob).subscribe(TypeDescription::from_def(&b));
    (swarm, alice, bob)
}

/// Drains the swarm and returns the isolated per-message errors — the
/// pump itself must stay `Ok`: one bad frame never aborts the loop.
fn run_and_take_errors(swarm: &mut Swarm) -> Vec<(PeerId, TransportError)> {
    swarm.run().unwrap();
    swarm.take_dispatch_errors()
}

#[test]
fn corrupted_object_message_is_a_reported_serialize_error() {
    let (mut swarm, alice, bob) = fixture();
    swarm
        .send_raw(alice, bob, kinds::OBJECT, b"<not-an-envelope/>".to_vec())
        .unwrap();
    let errs = run_and_take_errors(&mut swarm);
    assert_eq!(errs.len(), 1);
    assert!(
        matches!(errs[0].1, TransportError::Serialize(_)),
        "{}",
        errs[0].1
    );
}

#[test]
fn non_utf8_object_message_is_a_reported_protocol_error() {
    let (mut swarm, alice, bob) = fixture();
    swarm
        .send_raw(alice, bob, kinds::OBJECT, vec![0xff, 0xfe, 0x00, 0x80])
        .unwrap();
    let errs = run_and_take_errors(&mut swarm);
    assert_eq!(errs.len(), 1);
    assert!(
        matches!(errs[0].1, TransportError::Protocol(_)),
        "{}",
        errs[0].1
    );
}

#[test]
fn desc_request_for_unknown_path_errors() {
    let (mut swarm, alice, bob) = fixture();
    swarm
        .send_raw(
            bob,
            alice,
            kinds::DESC_REQUEST,
            b"pti://peer-1/desc/ghost".to_vec(),
        )
        .unwrap();
    let errs = run_and_take_errors(&mut swarm);
    assert_eq!(errs.len(), 1);
    assert_eq!(errs[0].0, alice, "the serving peer reports it");
    assert!(
        matches!(errs[0].1, TransportError::UnknownPath(_)),
        "{}",
        errs[0].1
    );
}

#[test]
fn asm_request_for_unknown_path_errors() {
    let (mut swarm, alice, bob) = fixture();
    swarm
        .send_raw(
            bob,
            alice,
            kinds::ASM_REQUEST,
            b"pti://peer-1/asm/ghost".to_vec(),
        )
        .unwrap();
    let errs = run_and_take_errors(&mut swarm);
    assert_eq!(errs.len(), 1);
    assert!(
        matches!(errs[0].1, TransportError::UnknownPath(_)),
        "{}",
        errs[0].1
    );
}

#[test]
fn unknown_message_kind_is_reported_not_fatal() {
    let (mut swarm, alice, bob) = fixture();
    swarm
        .send_raw(alice, bob, "mystery-kind", vec![1, 2, 3])
        .unwrap();
    let errs = run_and_take_errors(&mut swarm);
    assert_eq!(errs.len(), 1);
    assert!(
        matches!(&errs[0].1, TransportError::Protocol(m) if m.contains("mystery-kind")),
        "{}",
        errs[0].1
    );
}

#[test]
fn truncated_binary_payload_inside_valid_envelope_errors() {
    let (mut swarm, alice, bob) = fixture();
    let v = samples::make_person(&mut swarm.peer_mut(alice).runtime, "x");
    let mut env = swarm
        .peer(alice)
        .make_envelope(&v, PayloadFormat::Binary)
        .unwrap();
    // Corrupt: truncate the binary payload.
    if let pti_serialize::Payload::Binary(b) = &mut env.payload {
        b.truncate(b.len() / 2);
    }
    swarm
        .send_raw(
            alice,
            bob,
            kinds::OBJECT,
            env.to_string_compact().into_bytes(),
        )
        .unwrap();
    let errs = run_and_take_errors(&mut swarm);
    assert_eq!(errs.len(), 1);
    assert!(
        matches!(errs[0].1, TransportError::Serialize(_)),
        "{}",
        errs[0].1
    );
}

#[test]
fn traffic_behind_a_malformed_frame_still_delivers() {
    // The satellite assertion for error isolation: a hostile frame
    // *ahead* of a healthy exchange in the same pump neither wedges the
    // swarm nor swallows the error.
    let (mut swarm, alice, bob) = fixture();
    swarm
        .send_raw(alice, bob, kinds::OBJECT, b"<garbage".to_vec())
        .unwrap();
    let v = samples::make_person(&mut swarm.peer_mut(alice).runtime, "recovered");
    swarm
        .send_object(alice, bob, &v, PayloadFormat::Binary)
        .unwrap();
    // One pump handles both messages: the bad frame is isolated, the
    // good one completes its full desc/conformance/code exchange.
    swarm.run().unwrap();
    let errs = swarm.take_dispatch_errors();
    assert_eq!(errs.len(), 1, "the bad frame is still reported");
    assert!(matches!(errs[0].1, TransportError::Serialize(_)));
    let ds = swarm.peer_mut(bob).take_deliveries();
    assert!(
        ds.iter().any(Delivery::is_accepted),
        "the healthy exchange behind it delivered"
    );
}

#[test]
fn sending_to_unknown_peer_fails_fast() {
    let (mut swarm, alice, _) = fixture();
    let v = samples::make_person(&mut swarm.peer_mut(alice).runtime, "x");
    let err = swarm
        .send_object(alice, PeerId(99), &v, PayloadFormat::Binary)
        .unwrap_err();
    assert!(matches!(err, TransportError::Net(_)));
}

#[test]
fn dangling_object_cannot_be_sent() {
    let (mut swarm, alice, bob) = fixture();
    let v = samples::make_person(&mut swarm.peer_mut(alice).runtime, "gone");
    let h = v.as_obj().unwrap();
    swarm.peer_mut(alice).runtime.heap.free(h).unwrap();
    let err = swarm
        .send_object(alice, bob, &v, PayloadFormat::Binary)
        .unwrap_err();
    assert!(matches!(err, TransportError::Metamodel(_)));
}

#[test]
fn hostile_envelope_with_fake_paths_is_contained() {
    // An envelope claiming assemblies the sender never published: the
    // receiver requests the description and the *sender* errors on the
    // unknown path — the receiver never installs anything, and the
    // swarm keeps running.
    let (mut swarm, alice, bob) = fixture();
    let v = samples::make_person(&mut swarm.peer_mut(alice).runtime, "trojan");
    let mut env = swarm
        .peer(alice)
        .make_envelope(&v, PayloadFormat::Binary)
        .unwrap();
    for aref in &mut env.assemblies {
        aref.description_path = "pti://peer-1/desc/forged".into();
        aref.assembly_path = "pti://peer-1/asm/forged".into();
        aref.content_hash = "0".into();
    }
    swarm
        .send_raw(
            alice,
            bob,
            kinds::OBJECT,
            env.to_string_compact().into_bytes(),
        )
        .unwrap();
    let errs = run_and_take_errors(&mut swarm);
    assert!(errs
        .iter()
        .any(|(_, e)| matches!(e, TransportError::UnknownPath(_))));
    assert_eq!(swarm.peer(bob).stats.accepted, 0);
}

#[test]
fn remoting_unanswered_invocation_is_detected() {
    use pti_remoting::RemotingFabric;
    let (mut swarm, alice, bob) = fixture();
    // Forge a proxy to an export id that does not exist; the owner
    // answers with an error response, which invoke() surfaces.
    let h = samples::make_person(&mut swarm.peer_mut(alice).runtime, "r")
        .as_obj()
        .unwrap();
    let mut fabric = RemotingFabric::new();
    let rref = fabric.export(&swarm, alice, h).unwrap();
    fabric.offer(&mut swarm, alice, bob, &rref).unwrap();
    fabric.run(&mut swarm).unwrap();
    let mut proxy = fabric.take_proxies(bob).pop().expect("conforms");
    proxy.remote.object_id = 777; // forge
    let err = fabric
        .invoke(&mut swarm, bob, &proxy, "getPersonName", &[])
        .unwrap_err();
    assert!(err.to_string().contains("no export"), "{err}");
}

// ---------------------------------------------------------------------
// Durability scenario matrix: seeded faults against AtLeastOnce routing.
// ---------------------------------------------------------------------

/// An AtLeastOnce routed pair with the desc/asm exchange already warmed
/// up over a lossless fabric, so fault scenarios exercise *only* the
/// OBJECT_R / ACK repair path (control traffic is not retransmitted by
/// design).
fn durable_fixture() -> (Swarm, PeerId, PeerId) {
    let mut swarm = Swarm::new(NetConfig::default());
    let alice = swarm.add_peer(ConformanceConfig::pragmatic());
    let bob = swarm.add_peer(ConformanceConfig::pragmatic());
    let a = samples::person_vendor_a();
    swarm.publish(alice, samples::person_assembly(&a)).unwrap();
    swarm.set_qos(QoS::AtLeastOnce);
    swarm.subscribe(bob, TypeDescription::from_def(&samples::person_vendor_b()));
    let v = samples::make_person(&mut swarm.peer_mut(alice).runtime, "warmup");
    assert_eq!(
        swarm
            .route_object(alice, &v, PayloadFormat::Binary)
            .unwrap(),
        1
    );
    swarm.run_durable().unwrap();
    assert!(swarm.take_dispatch_errors().is_empty());
    assert_eq!(swarm.peer(bob).stats.accepted, 1);
    (swarm, alice, bob)
}

fn publish_n(swarm: &mut Swarm, from: PeerId, n: usize, tag: &str) {
    for i in 0..n {
        let v = samples::make_person(&mut swarm.peer_mut(from).runtime, &format!("{tag}-{i}"));
        assert_eq!(
            swarm.route_object(from, &v, PayloadFormat::Binary).unwrap(),
            1
        );
    }
}

#[test]
fn five_percent_loss_reaches_full_delivery_with_zero_duplicates() {
    let (mut swarm, alice, bob) = durable_fixture();
    swarm.set_credit_window(8);
    swarm
        .net_mut()
        .install_fault_plan(FaultPlan::new(7).with_loss(50));
    // Interleave publishes with pumps so every event rides its own
    // fabric send — each one a fresh draw against the 5% loss plan.
    for i in 0..40 {
        publish_n(&mut swarm, alice, 1, &format!("lossy-{i}"));
        swarm.run().unwrap();
    }
    swarm.run_durable().unwrap();

    // 100% eventual delivery, each event surfaced exactly once.
    assert_eq!(swarm.peer(bob).stats.accepted, 41, "warmup + 40");
    assert_eq!(swarm.peer(bob).stats.objects_received, 41);
    assert!(
        swarm.take_dispatch_errors().is_empty(),
        "nobody unreachable"
    );

    let st = swarm.delivery_stats();
    assert_eq!(st.delivered, 41, "engine surfaced each event once");
    assert!(st.max_inflight <= 8, "queue depth bounded by credit window");
    let m = swarm.metrics();
    assert!(m.faults_dropped > 0, "the plan actually dropped traffic");
    assert!(st.retransmits > 0, "drops were repaired by retransmission");
}

#[test]
fn slow_consumer_backpressure_never_exceeds_credit_window() {
    let (mut swarm, alice, bob) = durable_fixture();
    swarm.set_credit_window(4);
    // Publish a burst far beyond the window before the consumer runs at
    // all: the sender must stop at zero credit and buffer the rest.
    publish_n(&mut swarm, alice, 20, "burst");
    let st = swarm.delivery_stats();
    assert_eq!(st.max_inflight, 4, "sender stopped at zero credit");
    assert!(st.max_pending >= 16, "overflow buffered, not transmitted");

    swarm.run_durable().unwrap();
    assert_eq!(swarm.peer(bob).stats.accepted, 21, "warmup + 20");
    let st = swarm.delivery_stats();
    assert!(st.max_inflight <= 4, "ACK-driven refills stay in-window");
    assert_eq!(st.delivered, 21);
}

#[test]
fn healed_partition_delivers_everything_published_during_the_cut() {
    let (mut swarm, alice, bob) = durable_fixture();
    swarm.set_retransmit(2_000, 10);
    // Every send while the plan's step count is below 4 is severed;
    // the retransmit schedule carries the traffic across the heal.
    swarm
        .net_mut()
        .install_fault_plan(FaultPlan::new(3).with_partition([bob], 0, 4));
    publish_n(&mut swarm, alice, 3, "cut");
    swarm.run_durable().unwrap();

    assert_eq!(swarm.peer(bob).stats.accepted, 4, "warmup + 3");
    assert!(
        swarm.take_dispatch_errors().is_empty(),
        "heal beat the retry cap"
    );
    let m = swarm.metrics();
    assert!(
        m.faults_partitioned > 0,
        "the partition actually severed sends"
    );
    assert_eq!(swarm.delivery_stats().delivered, 4);
}

/// Sweeps multi-swarm traffic to quiescence *through* retransmit
/// deadlines: drain every swarm, then jump the shared virtual clock to
/// the earliest armed deadline and drain again, until every reliable
/// link is settled or shed.
fn pump_durable(swarms: &mut [Swarm<SharedSimNet>]) {
    loop {
        let mut last = u64::MAX;
        loop {
            for s in swarms.iter_mut() {
                s.run().unwrap();
            }
            let now = swarms[0].metrics().messages;
            if now == last {
                break;
            }
            last = now;
        }
        let Some(deadline) = swarms
            .iter()
            .filter_map(Swarm::next_delivery_deadline_us)
            .min()
        else {
            return;
        };
        swarms[0].net_mut().advance_virtual_time(deadline);
    }
}

#[test]
fn crashed_subscriber_resumes_into_retained_ring_replay() {
    let fabric = SharedSimNet::new(NetConfig::default());
    let code = CodeRegistry::new();

    // Publisher swarm: AtLeastOnce with an 8-deep replay ring.
    let mut pub_swarm: Swarm<SharedSimNet> =
        Swarm::with_code_registry(fabric.clone(), code.clone());
    let alice = pub_swarm.add_peer_as(PeerId(1), ConformanceConfig::pragmatic());
    let a = samples::person_vendor_a();
    pub_swarm
        .publish(alice, samples::person_assembly(&a))
        .unwrap();
    pub_swarm.set_qos(QoS::AtLeastOnce);
    pub_swarm.set_replay_depth(8);

    // Subscriber swarm joins and receives the first five events.
    let mut sub_swarm: Swarm<SharedSimNet> =
        Swarm::with_code_registry(fabric.clone(), code.clone());
    let bob = sub_swarm.add_peer_as(PeerId(2), ConformanceConfig::pragmatic());
    sub_swarm.subscribe(bob, TypeDescription::from_def(&samples::person_vendor_b()));
    sub_swarm.join(alice).unwrap();
    {
        let mut duo = [pub_swarm, sub_swarm];
        pump_durable(&mut duo);
        for i in 0..5 {
            let v = samples::make_person(
                &mut duo[0].peer_mut(alice).runtime,
                &format!("pre-crash-{i}"),
            );
            assert_eq!(
                duo[0]
                    .route_object(alice, &v, PayloadFormat::Binary)
                    .unwrap(),
                1
            );
        }
        pump_durable(&mut duo);
        assert_eq!(duo[1].peer(bob).stats.accepted, 5);
        let [p, s] = duo;
        pub_swarm = p;
        sub_swarm = s;
    }

    // Crash: the subscriber's swarm stops without a LEAVE and is never
    // pumped again. It stays alive rather than dropped, because a crash
    // does not unregister anything (a dropped swarm would): peer 2's
    // ring stays registered and events published meanwhile go
    // unacknowledged until the publisher's retry budget surfaces the
    // dead peer instead of hanging.
    let _crashed = sub_swarm;
    for i in 0..2 {
        let v = samples::make_person(
            &mut pub_swarm.peer_mut(alice).runtime,
            &format!("during-crash-{i}"),
        );
        pub_swarm
            .route_object(alice, &v, PayloadFormat::Binary)
            .unwrap();
    }
    {
        let mut solo = [pub_swarm];
        pump_durable(&mut solo);
        [pub_swarm] = solo;
    }
    let errs = pub_swarm.take_dispatch_errors();
    assert!(
        errs.iter()
            .any(|(_, e)| matches!(e, TransportError::Unreachable(p) if *p == PeerId(2))),
        "retry exhaustion surfaced the crashed subscriber: {errs:?}"
    );

    // Resume: a fresh incarnation subscribes and joins; the membership
    // hello triggers a retained-ring replay of all seven events.
    let mut resumed: Swarm<SharedSimNet> = Swarm::with_code_registry(fabric.clone(), code.clone());
    let carol = resumed.add_peer_as(PeerId(3), ConformanceConfig::pragmatic());
    resumed.subscribe(
        carol,
        TypeDescription::from_def(&samples::person_vendor_b()),
    );
    resumed.join(alice).unwrap();
    let mut duo = [pub_swarm, resumed];
    pump_durable(&mut duo);
    assert_eq!(
        duo[1].peer(carol).stats.accepted,
        7,
        "all retained events replayed to the resumed subscriber"
    );
    let st = duo[0].delivery_stats();
    assert_eq!(st.replayed, 7, "replay came from the ring");
    assert!(duo[0].take_dispatch_errors().is_empty());
    assert!(duo[1].take_dispatch_errors().is_empty());
}
