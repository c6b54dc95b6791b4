//! End-to-end tests of the optimistic protocol and its eager baseline.

use std::sync::Arc;

use pti_conformance::{ConformanceChecker, ConformanceConfig};
use pti_metamodel::{
    bodies, primitives, Assembly, Guid, ParamDef, TypeDef, TypeDescription, Value,
};
use pti_net::NetConfig;
use pti_proxy::DynamicProxy;
use pti_serialize::{
    AssemblyRef, EnvelopeView, EnvelopeWireFormat, ObjectEnvelope, Payload, PayloadFormat,
};
use pti_transport::{kinds, Delivery, Peer, ProtocolStats, Swarm};

/// An assembly publishing a `Person` type with vendor-specific method
/// names.
fn person_assembly(salt: &str, get: &str, set: &str) -> (Assembly, TypeDef) {
    let def = TypeDef::class("Person", salt)
        .field("name", primitives::STRING)
        .method(get, vec![], primitives::STRING)
        .method(
            set,
            vec![ParamDef::new("n", primitives::STRING)],
            primitives::VOID,
        )
        .ctor(vec![])
        .build();
    let g = def.guid;
    let asm = Assembly::builder(format!("person-{salt}"))
        .ty(def.clone())
        .body(g, get, 0, bodies::getter("name"))
        .body(g, set, 1, bodies::setter("name"))
        .ctor_body(g, 0, bodies::ctor_assign(&[]))
        .build();
    (asm, def)
}

fn alien_assembly() -> (Assembly, TypeDef) {
    let def = TypeDef::class("Spaceship", "zorg")
        .field("fuel", primitives::INT64)
        .method("warp", vec![], primitives::VOID)
        .ctor(vec![])
        .build();
    let g = def.guid;
    let asm = Assembly::builder("zorg-ship")
        .ty(def.clone())
        .body(g, "warp", 0, bodies::constant(Value::Null))
        .ctor_body(g, 0, bodies::ctor_assign(&[]))
        .build();
    (asm, def)
}

struct Fixture {
    swarm: Swarm,
    alice: pti_net::PeerId,
    bob: pti_net::PeerId,
}

/// Alice publishes vendor-a Person; Bob knows vendor-b Person and
/// subscribes to it.
fn fixture() -> Fixture {
    let mut swarm = Swarm::new(NetConfig::default());
    let alice = swarm.add_peer(ConformanceConfig::pragmatic());
    let bob = swarm.add_peer(ConformanceConfig::pragmatic());
    let (asm_a, _) = person_assembly("vendor-a", "getName", "setName");
    swarm.publish(alice, asm_a).unwrap();
    let (asm_b, def_b) = person_assembly("vendor-b", "getPersonName", "setPersonName");
    swarm.publish(bob, asm_b).unwrap();
    swarm
        .peer_mut(bob)
        .subscribe(TypeDescription::from_def(&def_b));
    Fixture { swarm, alice, bob }
}

fn make_person(swarm: &mut Swarm, peer: pti_net::PeerId, name: &str) -> Value {
    let rt = &mut swarm.peer_mut(peer).runtime;
    let h = rt.instantiate(&"Person".into(), &[]).unwrap();
    rt.set_field(h, "name", Value::from(name)).unwrap();
    Value::Obj(h)
}

#[test]
fn full_optimistic_exchange_with_proxy() {
    let Fixture {
        mut swarm,
        alice,
        bob,
    } = fixture();
    let v = make_person(&mut swarm, alice, "ada");
    swarm
        .send_object(alice, bob, &v, PayloadFormat::Binary)
        .unwrap();
    swarm.run().unwrap();

    let deliveries = swarm.peer_mut(bob).take_deliveries();
    assert_eq!(deliveries.len(), 1);
    let Delivery::Accepted {
        interest,
        proxy,
        value,
        ..
    } = &deliveries[0]
    else {
        panic!("expected acceptance, got {deliveries:?}");
    };
    assert_eq!(interest.as_ref().unwrap().full(), "Person");
    assert!(value.as_obj().is_ok());
    // Bob invokes through *his* contract name; Alice's object answers.
    let proxy = proxy.as_ref().unwrap();
    let got = proxy
        .invoke(&mut swarm.peer_mut(bob).runtime, "getPersonName", &[])
        .unwrap();
    assert_eq!(got.as_str().unwrap(), "ada");
}

#[test]
fn protocol_fetches_description_then_code() {
    let Fixture {
        mut swarm,
        alice,
        bob,
    } = fixture();
    let v = make_person(&mut swarm, alice, "x");
    swarm
        .send_object(alice, bob, &v, PayloadFormat::Binary)
        .unwrap();
    swarm.run().unwrap();
    let m = swarm.net().metrics();
    assert_eq!(m.kind(kinds::OBJECT).messages, 1);
    assert_eq!(m.kind(kinds::DESC_REQUEST).messages, 1);
    assert_eq!(m.kind(kinds::DESC_RESPONSE).messages, 1);
    assert_eq!(m.kind(kinds::ASM_REQUEST).messages, 1);
    assert_eq!(m.kind(kinds::ASM_RESPONSE).messages, 1);
    let stats = swarm.peer(bob).stats;
    assert_eq!(stats.desc_requests, 1);
    assert_eq!(stats.asm_requests, 1);
    assert_eq!(stats.accepted, 1);
}

#[test]
fn second_object_of_same_type_skips_all_fetches() {
    let Fixture {
        mut swarm,
        alice,
        bob,
    } = fixture();
    let v1 = make_person(&mut swarm, alice, "first");
    swarm
        .send_object(alice, bob, &v1, PayloadFormat::Binary)
        .unwrap();
    swarm.run().unwrap();
    swarm.reset_metrics();

    let v2 = make_person(&mut swarm, alice, "second");
    swarm
        .send_object(alice, bob, &v2, PayloadFormat::Binary)
        .unwrap();
    swarm.run().unwrap();
    let m = swarm.net().metrics();
    assert_eq!(m.kind(kinds::OBJECT).messages, 1);
    assert_eq!(
        m.kind(kinds::DESC_REQUEST).messages,
        0,
        "description cached"
    );
    assert_eq!(m.kind(kinds::ASM_REQUEST).messages, 0, "code installed");
    let ds = swarm.peer_mut(bob).take_deliveries();
    assert_eq!(ds.len(), 2);
    assert!(ds.iter().all(Delivery::is_accepted));
}

/// The warm path: once Bob holds Alice's description, verdict and code,
/// a delivery costs one conformance check per interest tried — the
/// verdict that picked the interest also binds the proxy — and the
/// proxy reads the published values. The first delivery, whose code
/// arrived after its verdict, binds through a fresh check and reads
/// just the same.
#[test]
fn warm_delivery_checks_each_interest_once_and_its_proxy_reads_the_event() {
    let Fixture {
        mut swarm,
        alice,
        bob,
    } = fixture();
    // An interest the Person never conforms to, tried first.
    let (_, alien) = alien_assembly();
    let person = swarm.peer(bob).interests()[0].clone();
    swarm.peer_mut(bob).unsubscribe(person.guid);
    swarm
        .peer_mut(bob)
        .subscribe(TypeDescription::from_def(&alien));
    swarm.peer_mut(bob).subscribe(person);

    let mut read_back = Vec::new();
    for name in ["cold", "warm", "warmer"] {
        let v = make_person(&mut swarm, alice, name);
        let checks_before = swarm.peer(bob).stats.conformance_checks;
        swarm
            .send_object(alice, bob, &v, PayloadFormat::Binary)
            .unwrap();
        swarm.run().unwrap();
        assert_eq!(
            swarm.peer(bob).stats.conformance_checks - checks_before,
            2,
            "one check per interest tried for `{name}`"
        );
        let ds = swarm.peer_mut(bob).take_deliveries();
        let [Delivery::Accepted {
            proxy: Some(proxy), ..
        }] = ds.as_slice()
        else {
            panic!("expected one proxied acceptance, got {ds:?}");
        };
        let rt = &swarm.peer(bob).runtime;
        read_back.push(proxy.get_field(rt, "name").unwrap());
    }
    let names: Vec<&str> = read_back.iter().map(|v| v.as_str().unwrap()).collect();
    assert_eq!(names, ["cold", "warm", "warmer"]);
    let stats = swarm.peer(bob).stats;
    assert_eq!((stats.desc_requests, stats.asm_requests), (1, 1));
}

#[test]
fn nonconformant_object_rejected_without_code_download() {
    let Fixture {
        mut swarm,
        alice,
        bob,
    } = fixture();
    let (alien_asm, _) = alien_assembly();
    swarm.publish(alice, alien_asm).unwrap();
    let rt = &mut swarm.peer_mut(alice).runtime;
    let ship = rt.instantiate(&"Spaceship".into(), &[]).unwrap();
    swarm
        .send_object(alice, bob, &Value::Obj(ship), PayloadFormat::Binary)
        .unwrap();
    swarm.run().unwrap();

    let ds = swarm.peer_mut(bob).take_deliveries();
    assert_eq!(ds.len(), 1);
    assert!(
        matches!(&ds[0], Delivery::Rejected { type_name, .. } if type_name.full() == "Spaceship")
    );
    let m = swarm.net().metrics();
    assert_eq!(
        m.kind(kinds::DESC_REQUEST).messages,
        1,
        "description was fetched"
    );
    assert_eq!(
        m.kind(kinds::ASM_REQUEST).messages,
        0,
        "the optimistic saving: no code transfer for rejected types"
    );
    assert_eq!(swarm.peer(bob).stats.rejected, 1);
}

#[test]
fn eager_baseline_ships_everything_every_time() {
    let Fixture {
        mut swarm,
        alice,
        bob,
    } = fixture();
    let v1 = make_person(&mut swarm, alice, "a");
    let v2 = make_person(&mut swarm, alice, "b");
    swarm
        .send_object_eager(alice, bob, &v1, PayloadFormat::Binary)
        .unwrap();
    swarm
        .send_object_eager(alice, bob, &v2, PayloadFormat::Binary)
        .unwrap();
    swarm.run().unwrap();
    let ds = swarm.peer_mut(bob).take_deliveries();
    assert_eq!(ds.len(), 2);
    assert!(ds.iter().all(Delivery::is_accepted));
    let eager_bytes = swarm.net().metrics().kind(kinds::EAGER_OBJECT).bytes;

    // The same two transfers under the optimistic protocol.
    let Fixture {
        mut swarm,
        alice,
        bob,
    } = fixture();
    let v1 = make_person(&mut swarm, alice, "a");
    let v2 = make_person(&mut swarm, alice, "b");
    swarm
        .send_object(alice, bob, &v1, PayloadFormat::Binary)
        .unwrap();
    swarm.run().unwrap();
    swarm
        .send_object(alice, bob, &v2, PayloadFormat::Binary)
        .unwrap();
    swarm.run().unwrap();
    let optimistic_bytes = swarm.net().metrics().bytes;

    assert!(
        optimistic_bytes < eager_bytes,
        "optimistic {optimistic_bytes} B should undercut eager {eager_bytes} B on repeats"
    );
}

#[test]
fn eager_proxy_still_translates() {
    let Fixture {
        mut swarm,
        alice,
        bob,
    } = fixture();
    let v = make_person(&mut swarm, alice, "greta");
    swarm
        .send_object_eager(alice, bob, &v, PayloadFormat::Soap)
        .unwrap();
    swarm.run().unwrap();
    let ds = swarm.peer_mut(bob).take_deliveries();
    let Delivery::Accepted {
        proxy: Some(proxy), ..
    } = &ds[0]
    else {
        panic!()
    };
    let got = proxy
        .invoke(&mut swarm.peer_mut(bob).runtime, "getPersonName", &[])
        .unwrap();
    assert_eq!(got.as_str().unwrap(), "greta");
}

#[test]
fn soap_and_binary_payloads_both_work() {
    for format in [PayloadFormat::Soap, PayloadFormat::Binary] {
        let Fixture {
            mut swarm,
            alice,
            bob,
        } = fixture();
        let v = make_person(&mut swarm, alice, "f");
        swarm.send_object(alice, bob, &v, format).unwrap();
        swarm.run().unwrap();
        let ds = swarm.peer_mut(bob).take_deliveries();
        assert!(ds[0].is_accepted(), "{format:?}");
    }
}

#[test]
fn primitive_values_accepted_without_protocol_rounds() {
    let Fixture {
        mut swarm,
        alice,
        bob,
    } = fixture();
    swarm
        .send_object(
            alice,
            bob,
            &Value::Array(vec![Value::I32(1), Value::Str("two".into())]),
            PayloadFormat::Binary,
        )
        .unwrap();
    swarm.run().unwrap();
    let ds = swarm.peer_mut(bob).take_deliveries();
    let Delivery::Accepted { value, proxy, .. } = &ds[0] else {
        panic!()
    };
    assert!(proxy.is_none());
    assert_eq!(value.as_array().unwrap().len(), 2);
    assert_eq!(swarm.net().metrics().kind(kinds::DESC_REQUEST).messages, 0);
}

#[test]
fn nested_multi_assembly_object_travels_whole() {
    let mut swarm = Swarm::new(NetConfig::default());
    let alice = swarm.add_peer(ConformanceConfig::pragmatic());
    let bob = swarm.add_peer(ConformanceConfig::pragmatic());

    let addr = TypeDef::class("Address", "alice")
        .field("street", primitives::STRING)
        .ctor(vec![])
        .build();
    let person = TypeDef::class("Person", "alice")
        .field("name", primitives::STRING)
        .field("home", "Address")
        .method("getName", vec![], primitives::STRING)
        .ctor(vec![])
        .build();
    let (ag, pg) = (addr.guid, person.guid);
    swarm
        .publish(
            alice,
            Assembly::builder("alice-addr")
                .ty(addr)
                .ctor_body(ag, 0, bodies::ctor_assign(&[]))
                .build(),
        )
        .unwrap();
    swarm
        .publish(
            alice,
            Assembly::builder("alice-person")
                .ty(person.clone())
                .body(pg, "getName", 0, bodies::getter("name"))
                .ctor_body(pg, 0, bodies::ctor_assign(&[]))
                .build(),
        )
        .unwrap();

    // Bob's interest: structurally equivalent local Person view.
    let bob_person = TypeDef::class("Person", "bob")
        .field("name", primitives::STRING)
        .field("home", "Address")
        .method("getName", vec![], primitives::STRING)
        .build();
    let bob_addr = TypeDef::class("Address", "bob")
        .field("street", primitives::STRING)
        .build();
    swarm.peer_mut(bob).runtime.register_type(bob_addr).unwrap();
    swarm
        .peer_mut(bob)
        .subscribe(TypeDescription::from_def(&bob_person));

    let rt = &mut swarm.peer_mut(alice).runtime;
    let ah = rt.instantiate(&"Address".into(), &[]).unwrap();
    rt.set_field(ah, "street", Value::from("Main St 1"))
        .unwrap();
    let ph = rt.instantiate(&"Person".into(), &[]).unwrap();
    rt.set_field(ph, "name", Value::from("ada")).unwrap();
    rt.set_field(ph, "home", Value::Obj(ah)).unwrap();

    swarm
        .send_object(alice, bob, &Value::Obj(ph), PayloadFormat::Binary)
        .unwrap();
    swarm.run().unwrap();

    let ds = swarm.peer_mut(bob).take_deliveries();
    let Delivery::Accepted { value, .. } = &ds[0] else {
        panic!("{ds:?}")
    };
    let h = value.as_obj().unwrap();
    let rt = &mut swarm.peer_mut(bob).runtime;
    let home = rt.get_field(h, "home").unwrap().as_obj().unwrap();
    assert_eq!(
        rt.get_field(home, "street").unwrap().as_str().unwrap(),
        "Main St 1"
    );
    // Both assemblies were fetched — and since the envelope listed them
    // together, the two requests crossed the wire as one coalesced
    // batch, not two messages (responses batch the same way).
    assert_eq!(swarm.peer(bob).stats.asm_requests, 2);
    let m = swarm.net().metrics();
    assert_eq!(m.kind(kinds::ASM_REQUEST).messages, 0, "requests batched");
    assert!(
        m.batched_frames() >= 4,
        "2 requests + 2 responses in batches"
    );
}

#[test]
fn virtual_time_advances_more_for_protocol_rounds() {
    let Fixture {
        mut swarm,
        alice,
        bob,
    } = fixture();
    let v = make_person(&mut swarm, alice, "t");
    swarm
        .send_object(alice, bob, &v, PayloadFormat::Binary)
        .unwrap();
    swarm.run().unwrap();
    let t_first = swarm.net().now_us();
    assert!(t_first > 0);
    let v2 = make_person(&mut swarm, alice, "t2");
    swarm
        .send_object(alice, bob, &v2, PayloadFormat::Binary)
        .unwrap();
    swarm.run().unwrap();
    let t_second = swarm.net().now_us() - t_first;
    assert!(
        t_second < t_first,
        "cached exchange ({t_second} µs) beats cold exchange ({t_first} µs)"
    );
}

#[test]
fn known_type_without_interest_is_accepted_raw() {
    // Bob has the exact same assembly installed; no interests declared.
    let mut swarm = Swarm::new(NetConfig::default());
    let alice = swarm.add_peer(ConformanceConfig::paper());
    let bob = swarm.add_peer(ConformanceConfig::paper());
    let (asm, _) = person_assembly("shared", "getName", "setName");
    swarm.publish(alice, asm.clone()).unwrap();
    swarm.publish(bob, asm).unwrap();
    let v = make_person(&mut swarm, alice, "raw");
    swarm
        .send_object(alice, bob, &v, PayloadFormat::Binary)
        .unwrap();
    swarm.run().unwrap();
    let ds = swarm.peer_mut(bob).take_deliveries();
    let Delivery::Accepted {
        interest,
        proxy,
        value,
        ..
    } = &ds[0]
    else {
        panic!()
    };
    assert!(interest.is_none());
    assert!(proxy.is_none());
    let h = value.as_obj().unwrap();
    assert_eq!(
        swarm
            .peer_mut(bob)
            .runtime
            .invoke(h, "getName", &[])
            .unwrap()
            .as_str()
            .unwrap(),
        "raw"
    );
}

#[test]
fn unknown_type_without_interest_is_rejected() {
    let mut swarm = Swarm::new(NetConfig::default());
    let alice = swarm.add_peer(ConformanceConfig::paper());
    let bob = swarm.add_peer(ConformanceConfig::paper());
    let (asm, _) = person_assembly("only-alice", "getName", "setName");
    swarm.publish(alice, asm).unwrap();
    let v = make_person(&mut swarm, alice, "n");
    swarm
        .send_object(alice, bob, &v, PayloadFormat::Binary)
        .unwrap();
    swarm.run().unwrap();
    let ds = swarm.peer_mut(bob).take_deliveries();
    assert!(matches!(ds[0], Delivery::Rejected { .. }));
}

#[test]
fn many_types_many_objects_mixed_verdicts() {
    let mut swarm = Swarm::new(NetConfig::default());
    let alice = swarm.add_peer(ConformanceConfig::pragmatic());
    let bob = swarm.add_peer(ConformanceConfig::pragmatic());
    // Bob subscribes to Person only.
    let (asm_b, def_b) = person_assembly("bob", "getName", "setName");
    swarm.publish(bob, asm_b).unwrap();
    swarm
        .peer_mut(bob)
        .subscribe(TypeDescription::from_def(&def_b));
    // Alice publishes Person and Spaceship, sends a mix.
    let (asm_a, _) = person_assembly("alice", "getPersonName", "setPersonName");
    let (ship_asm, _) = alien_assembly();
    swarm.publish(alice, asm_a).unwrap();
    swarm.publish(alice, ship_asm).unwrap();
    for i in 0..6 {
        let v = if i % 3 == 0 {
            let rt = &mut swarm.peer_mut(alice).runtime;
            Value::Obj(rt.instantiate(&"Spaceship".into(), &[]).unwrap())
        } else {
            make_person(&mut swarm, alice, &format!("p{i}"))
        };
        swarm
            .send_object(alice, bob, &v, PayloadFormat::Binary)
            .unwrap();
    }
    swarm.run().unwrap();
    let ds = swarm.peer_mut(bob).take_deliveries();
    assert_eq!(ds.len(), 6);
    let accepted = ds.iter().filter(|d| d.is_accepted()).count();
    assert_eq!(accepted, 4, "4 Persons accepted, 2 Spaceships rejected");
    // Spaceship's code never crossed the wire.
    assert_eq!(swarm.net().metrics().kind(kinds::ASM_REQUEST).messages, 1);
}

/// Regression: an exchange whose envelope lists a description path that
/// was already fetched *and consumed* by an earlier exchange must not
/// wait for a second response that will never come.
#[test]
fn second_exchange_reusing_a_consumed_description_path_completes() {
    let mut swarm = Swarm::new(NetConfig::default());
    let alice = swarm.add_peer(ConformanceConfig::pragmatic());
    let bob = swarm.add_peer(ConformanceConfig::pragmatic());

    // Two assemblies at Alice: Address alone, and a Person whose `home`
    // field references Address (so a Person envelope lists both paths).
    let address = TypeDef::class("Address", "alice")
        .field("street", primitives::STRING)
        .ctor(vec![])
        .build();
    let (ag,) = (address.guid,);
    let addr_asm = Assembly::builder("alice-address")
        .ty(address.clone())
        .ctor_body(ag, 0, bodies::ctor_assign(&[]))
        .build();
    let person = TypeDef::class("Person", "alice")
        .field("name", primitives::STRING)
        .field("home", "Address")
        .method("getName", vec![], primitives::STRING)
        .ctor(vec![])
        .build();
    let pg = person.guid;
    let person_asm = Assembly::builder("alice-person")
        .ty(person.clone())
        .body(pg, "getName", 0, bodies::getter("name"))
        .ctor_body(pg, 0, bodies::ctor_assign(&[]))
        .build();
    swarm.publish(alice, addr_asm).unwrap();
    swarm.publish(alice, person_asm).unwrap();

    // Bob's interest covers Person only; he rejects the bare Address —
    // but that first exchange downloads (and consumes) the Address
    // description response.
    let bob_person = TypeDef::class("Person", "bob")
        .field("name", primitives::STRING)
        .field("home", "Address")
        .method("getName", vec![], primitives::STRING)
        .build();
    swarm
        .peer_mut(bob)
        .subscribe(TypeDescription::from_def(&bob_person));
    let bob_address = TypeDef::class("Address", "bob")
        .field("street", primitives::STRING)
        .build();
    swarm
        .peer_mut(bob)
        .subscribe(TypeDescription::from_def(&bob_address));

    // Exchange 1: a bare Address object (Bob accepts it and caches the
    // Address description).
    let ah = swarm
        .peer_mut(alice)
        .runtime
        .instantiate(&"Address".into(), &[])
        .unwrap();
    swarm
        .send_object(alice, bob, &Value::Obj(ah), PayloadFormat::Binary)
        .unwrap();
    swarm.run().unwrap();
    assert_eq!(swarm.peer_mut(bob).take_deliveries().len(), 1);

    // Exchange 2: a Person holding an Address — its envelope lists the
    // Address description path again, whose response was already
    // consumed above. The exchange must still complete.
    let ph = swarm
        .peer_mut(alice)
        .runtime
        .instantiate(&"Person".into(), &[])
        .unwrap();
    let ah2 = swarm
        .peer_mut(alice)
        .runtime
        .instantiate(&"Address".into(), &[])
        .unwrap();
    swarm
        .peer_mut(alice)
        .runtime
        .set_field(ph, "home", Value::Obj(ah2))
        .unwrap();
    swarm
        .peer_mut(alice)
        .runtime
        .set_field(ph, "name", Value::from("nested"))
        .unwrap();
    swarm
        .send_object(alice, bob, &Value::Obj(ph), PayloadFormat::Binary)
        .unwrap();
    swarm.run().unwrap();

    let ds = swarm.peer_mut(bob).take_deliveries();
    assert_eq!(
        ds.len(),
        1,
        "the nested Person must be delivered, not stuck"
    );
    let Delivery::Accepted {
        proxy: Some(proxy), ..
    } = &ds[0]
    else {
        panic!("expected an accepted Person, got {ds:?}");
    };
    assert_eq!(
        proxy
            .invoke(&mut swarm.peer_mut(bob).runtime, "getName", &[])
            .unwrap()
            .as_str()
            .unwrap(),
        "nested"
    );
}

/// A budget of N delivers exactly N messages; the N+1th poll errors
/// without popping (the message stays on the transport).
#[test]
fn message_budget_delivers_exactly_n() {
    let mut swarm = Swarm::new(NetConfig::default());
    let alice = swarm.add_peer(ConformanceConfig::pragmatic());
    let bob = swarm.add_peer(ConformanceConfig::pragmatic());
    for _ in 0..3 {
        swarm.send_raw(alice, bob, "object", vec![]).unwrap();
    }
    swarm.set_message_budget(2);
    assert!(swarm.poll_message().unwrap().is_some());
    assert!(swarm.poll_message().unwrap().is_some());
    let err = swarm.poll_message().unwrap_err();
    assert!(err.to_string().contains("budget"), "{err}");
    // The undelivered message is still queued, not silently dropped.
    swarm.set_message_budget(10);
    assert!(swarm.poll_message().unwrap().is_some());
    assert!(swarm.poll_message().unwrap().is_none(), "drained");
}

#[test]
fn departed_remote_subscriber_is_retired_from_routes() {
    use pti_net::{PeerId, SharedSimNet};

    let hub = SharedSimNet::new(NetConfig::ideal());
    let mut publisher_swarm = Swarm::over(hub.session());
    let publisher = publisher_swarm.add_peer_as(PeerId(1), ConformanceConfig::pragmatic());
    let (asm, def) = person_assembly("pub", "getName", "setName");
    publisher_swarm.publish(publisher, asm).unwrap();

    // A remote subscriber on a sibling swarm gossips its interest over.
    {
        let mut subscriber_swarm =
            Swarm::with_code_registry(hub.session(), publisher_swarm.code_registry());
        let sub = subscriber_swarm.add_peer_as(PeerId(2), ConformanceConfig::pragmatic());
        subscriber_swarm.add_contact(publisher);
        subscriber_swarm.subscribe(sub, TypeDescription::from_def(&def));
        publisher_swarm.run().unwrap();
        assert_eq!(publisher_swarm.routes().len(), 1, "gossip landed");
        // The subscriber's swarm drops here, unregistering peer 2.
    }

    // Routing still resolves the stale entry, but the flush notices the
    // departure and retires it — the next publish stops targeting it.
    let h = publisher_swarm
        .peer_mut(publisher)
        .runtime
        .instantiate(&"Person".into(), &[])
        .unwrap();
    let first = publisher_swarm
        .route_object(publisher, &Value::Obj(h), PayloadFormat::Binary)
        .unwrap();
    assert_eq!(first, 1, "stale route still resolved");
    publisher_swarm.flush_wire();
    assert!(publisher_swarm.routes().is_empty(), "dead peer retired");
    let second = publisher_swarm
        .route_object(publisher, &Value::Obj(h), PayloadFormat::Binary)
        .unwrap();
    assert_eq!(second, 0, "no more targets after retirement");
}

#[test]
fn owning_a_former_contact_does_not_double_deliver() {
    let mut swarm = Swarm::new(NetConfig::default());
    let publisher = swarm.add_peer(ConformanceConfig::pragmatic());
    // Declared as a contact first (e.g. learned from a membership list),
    // then adopted as an owned peer: flood must target it exactly once.
    let adopted = pti_net::PeerId(7);
    swarm.add_contact(adopted);
    swarm.add_peer_as(adopted, ConformanceConfig::pragmatic());
    assert!(
        swarm.contacts().is_empty(),
        "owned peers leave the contacts"
    );

    let (asm, _) = person_assembly("pub", "getName", "setName");
    swarm.publish(publisher, asm).unwrap();
    let h = swarm
        .peer_mut(publisher)
        .runtime
        .instantiate(&"Person".into(), &[])
        .unwrap();
    let sent = swarm
        .flood_object(publisher, &Value::Obj(h), PayloadFormat::Binary)
        .unwrap();
    assert_eq!(sent, 1, "one copy per member");
    swarm.run().unwrap();
    assert_eq!(swarm.peer(adopted).stats.objects_received, 1);
}

#[test]
fn unroutable_interest_names_stay_local_and_benign() {
    use pti_net::{PeerId, SharedSimNet};

    let hub = SharedSimNet::new(NetConfig::ideal());
    let mut listener = Swarm::over(hub.session());
    let ear = listener.add_peer_as(PeerId(1), ConformanceConfig::pragmatic());

    let mut subscriber_swarm = Swarm::over(hub.session());
    let sub = subscriber_swarm.add_peer_as(PeerId(2), ConformanceConfig::pragmatic());
    subscriber_swarm.add_contact(ear);

    // "_" yields no identifier tokens: the interest works locally but is
    // unroutable, so it must neither enter the index nor cross the wire.
    let odd = TypeDescription::from_def(&TypeDef::class("_", "odd").build());
    subscriber_swarm.subscribe(sub, odd);
    assert!(subscriber_swarm.routes().is_empty());
    assert_eq!(hub.metrics().messages, 0, "no gossip sent");
    assert_eq!(subscriber_swarm.peer(sub).interests().len(), 1);

    // And a foreign peer gossiping an empty signature must not poison
    // the receiving pump: the message is ignored, not a protocol error.
    subscriber_swarm
        .send_raw(
            sub,
            ear,
            kinds::SUBSCRIBE,
            b"00000000-0000-0000-0000-000000000001\n".to_vec(),
        )
        .unwrap();
    listener.run().unwrap();
    assert!(listener.routes().is_empty());
}

/// What one delivery moved on the receiver's protocol counters.
fn stats_delta(before: ProtocolStats, after: ProtocolStats) -> [u64; 6] {
    [
        after.objects_received - before.objects_received,
        after.accepted - before.accepted,
        after.rejected - before.rejected,
        after.desc_requests - before.desc_requests,
        after.asm_requests - before.asm_requests,
        after.conformance_checks - before.conformance_checks,
    ]
}

/// A warm binary envelope is decoded in place and delivered without a
/// pending exchange; an XML envelope is transcoded to `PTIE` first. The same warm
/// event through both paths gives equal values, one shared contract and
/// the same counter deltas — and a cold delivery of the type, which
/// fetches description and code first, shares that contract too.
#[test]
fn a_borrowed_warm_delivery_matches_the_pending_exchange() {
    let Fixture {
        mut swarm,
        alice,
        bob,
    } = fixture();
    let mut deliver = |wire: EnvelopeWireFormat| {
        swarm.set_envelope_wire_format(wire);
        let before = swarm.peer(bob).stats;
        let v = make_person(&mut swarm, alice, "same");
        swarm
            .send_object(alice, bob, &v, PayloadFormat::Binary)
            .unwrap();
        swarm.run().unwrap();
        assert!(swarm.take_dispatch_errors().is_empty());
        let delta = stats_delta(before, swarm.peer(bob).stats);
        let ds = swarm.peer_mut(bob).take_deliveries();
        let [Delivery::Accepted {
            proxy: Some(proxy), ..
        }] = ds.as_slice()
        else {
            panic!("expected one proxied acceptance, got {ds:?}");
        };
        let name = proxy.get_field(&swarm.peer(bob).runtime, "name").unwrap();
        (delta, name, proxy.clone())
    };
    let (cold, cold_name, cold_proxy) = deliver(EnvelopeWireFormat::Ptib);
    let (borrowed, borrowed_name, borrowed_proxy) = deliver(EnvelopeWireFormat::Ptib);
    let (pending, pending_name, pending_proxy) = deliver(EnvelopeWireFormat::Xml);

    assert_eq!(cold, [1, 1, 0, 1, 1, 1], "cold: one fetch of each");
    assert_eq!(borrowed, [1, 1, 0, 0, 0, 1], "warm: no fetch, one check");
    assert_eq!(borrowed, pending, "both warm paths move the same counters");
    assert_eq!(borrowed_name, Value::from("same"));
    assert_eq!(borrowed_name, pending_name);
    assert_eq!(borrowed_name, cold_name);
    assert!(Arc::ptr_eq(
        borrowed_proxy.contract(),
        pending_proxy.contract()
    ));
    assert!(Arc::ptr_eq(
        borrowed_proxy.contract(),
        cold_proxy.contract()
    ));
    assert_ne!(borrowed_proxy.handle(), pending_proxy.handle());
}

/// Sends one `Person` named `name` from alice to bob, eagerly or
/// optimistically, with its envelope in `wire`, and runs the swarm.
/// Returns bob's protocol and checker-cache counter deltas, the
/// delivered `name` and the delivery's proxy.
fn deliver_person_over(
    swarm: &mut Swarm,
    (alice, bob): (pti_net::PeerId, pti_net::PeerId),
    wire: EnvelopeWireFormat,
    eager: bool,
) -> ([u64; 6], [u64; 2], Value, DynamicProxy) {
    swarm.set_envelope_wire_format(wire);
    let (before, cache) = (swarm.peer(bob).stats, swarm.peer(bob).cache_stats());
    let v = make_person(swarm, alice, "over");
    if eager {
        swarm.send_object_eager(alice, bob, &v, PayloadFormat::Binary)
    } else {
        swarm.send_object(alice, bob, &v, PayloadFormat::Binary)
    }
    .unwrap();
    swarm.run().unwrap();
    assert!(swarm.take_dispatch_errors().is_empty());
    let after = swarm.peer(bob).cache_stats();
    let cache_delta = [after.hits - cache.hits, after.misses - cache.misses];
    let delta = stats_delta(before, swarm.peer(bob).stats);
    let ds = swarm.peer_mut(bob).take_deliveries();
    let [Delivery::Accepted {
        proxy: Some(proxy), ..
    }] = ds.as_slice()
    else {
        panic!("expected one proxied acceptance, got {ds:?}");
    };
    let name = proxy.get_field(&swarm.peer(bob).runtime, "name").unwrap();
    (delta, cache_delta, name, proxy.clone())
}

/// An eager envelope takes the one inbound path once its inline code
/// and descriptions are installed, whichever encoding it travels in:
/// `PTIE` and XML give equal values, one shared contract and the same
/// counter deltas.
#[test]
fn an_eager_delivery_reads_the_same_in_ptie_and_in_xml() {
    let Fixture {
        mut swarm,
        alice,
        bob,
    } = fixture();
    let (ptie, _, ptie_name, ptie_proxy) =
        deliver_person_over(&mut swarm, (alice, bob), EnvelopeWireFormat::Ptib, true);
    let (xml, _, xml_name, xml_proxy) =
        deliver_person_over(&mut swarm, (alice, bob), EnvelopeWireFormat::Xml, true);
    assert_eq!(ptie, [1, 1, 0, 0, 0, 1], "eager: no fetch, one check");
    assert_eq!(ptie, xml);
    assert_eq!(ptie_name, Value::from("over"));
    assert_eq!(ptie_name, xml_name);
    assert!(Arc::ptr_eq(ptie_proxy.contract(), xml_proxy.contract()));
    assert_ne!(ptie_proxy.handle(), xml_proxy.handle());
}

/// A cold XML envelope is transcoded at the edge and then fetches its
/// description and code like a cold `PTIE` one: the same event in
/// either encoding moves the same protocol and checker-cache counters.
#[test]
fn a_cold_xml_delivery_moves_the_counters_of_a_cold_ptie_one() {
    let cold = |wire| {
        let Fixture {
            mut swarm,
            alice,
            bob,
        } = fixture();
        let (delta, cache, name, _) = deliver_person_over(&mut swarm, (alice, bob), wire, false);
        assert_eq!(name, Value::from("over"));
        (delta, cache)
    };
    let ptie = cold(EnvelopeWireFormat::Ptib);
    assert_eq!(ptie.0, [1, 1, 0, 1, 1, 1], "cold: one fetch of each");
    assert_eq!(
        ptie.1,
        [1, 1],
        "cold: a verdict (miss), then a re-bind (hit)"
    );
    assert_eq!(ptie, cold(EnvelopeWireFormat::Xml));
}

/// An exchange waiting on its description whose code arrives meanwhile,
/// with an eager object of the same type, finds every assembly present
/// once the description comes: it ends through the warm path's match,
/// so it is delivered with its proxy and fetches no code.
#[test]
fn a_pending_exchange_whose_code_arrived_meanwhile_ends_matched() {
    let Fixture {
        mut swarm,
        alice,
        bob,
    } = fixture();
    let first = make_person(&mut swarm, alice, "first");
    let second = make_person(&mut swarm, alice, "second");
    swarm
        .send_object(alice, bob, &first, PayloadFormat::Binary)
        .unwrap();
    swarm
        .send_object_eager(alice, bob, &second, PayloadFormat::Binary)
        .unwrap();
    swarm.run().unwrap();
    assert!(swarm.take_dispatch_errors().is_empty());
    let ds = swarm.peer_mut(bob).take_deliveries();
    let names: Vec<Value> = ds
        .iter()
        .map(|d| match d {
            Delivery::Accepted {
                proxy: Some(proxy), ..
            } => proxy.get_field(&swarm.peer(bob).runtime, "name").unwrap(),
            other => panic!("expected a proxied acceptance, got {other:?}"),
        })
        .collect();
    assert_eq!(names, [Value::from("second"), Value::from("first")]);
    let stats = swarm.peer(bob).stats;
    assert_eq!(
        (
            stats.desc_requests,
            stats.asm_requests,
            stats.conformance_checks
        ),
        (1, 0, 2)
    );
}

/// An event of a type whose description is known but whose code is
/// still downloading is not warm: the borrowed path needs every listed
/// assembly, so the event waits in a pending exchange and is delivered
/// after the first one, in publish order, once the code arrives.
#[test]
fn an_event_arriving_while_its_code_downloads_is_delivered_in_publish_order() {
    let Fixture {
        mut swarm,
        alice,
        bob,
    } = fixture();
    let (_, def_a) = person_assembly("vendor-a", "getName", "setName");
    let first = make_person(&mut swarm, alice, "first");
    swarm
        .send_object(alice, bob, &first, PayloadFormat::Binary)
        .unwrap();
    // Step until Bob holds the description; his code request is out.
    while !swarm.peer(bob).knows_description(def_a.guid) {
        assert_eq!(swarm.pump(1).unwrap(), 1, "stalled before the description");
    }
    assert_eq!(swarm.peer(bob).stats.asm_requests, 1);

    let second = make_person(&mut swarm, alice, "second");
    swarm
        .send_object(alice, bob, &second, PayloadFormat::Binary)
        .unwrap();
    while swarm.peer(bob).stats.objects_received < 2 {
        assert_eq!(swarm.pump(1).unwrap(), 1, "stalled before the second event");
    }
    assert!(
        swarm.peer_mut(bob).take_deliveries().is_empty(),
        "nothing is delivered before the code is installed"
    );

    swarm.run().unwrap();
    assert!(swarm.take_dispatch_errors().is_empty());
    let ds = swarm.peer_mut(bob).take_deliveries();
    let names: Vec<Value> = ds
        .iter()
        .map(|d| match d {
            Delivery::Accepted {
                proxy: Some(proxy), ..
            } => proxy.get_field(&swarm.peer(bob).runtime, "name").unwrap(),
            other => panic!("expected a proxied acceptance, got {other:?}"),
        })
        .collect();
    assert_eq!(names, [Value::from("first"), Value::from("second")]);
    let stats = swarm.peer(bob).stats;
    assert_eq!((stats.desc_requests, stats.asm_requests), (1, 1));
}

/// Code is present by content hash or, on a miss, by download path: an
/// entry whose hash nobody installed still counts as present when its
/// path is installed, so the event is delivered with no new fetch.
#[test]
fn an_unknown_content_hash_at_an_installed_path_counts_as_present() {
    let Fixture {
        mut swarm,
        alice,
        bob,
    } = fixture();
    let v = make_person(&mut swarm, alice, "cold");
    swarm
        .send_object(alice, bob, &v, PayloadFormat::Binary)
        .unwrap();
    swarm.run().unwrap();
    assert_eq!(swarm.peer_mut(bob).take_deliveries().len(), 1);

    let v = make_person(&mut swarm, alice, "rehashed");
    let mut env = swarm
        .peer(alice)
        .make_envelope(&v, PayloadFormat::Binary)
        .unwrap();
    env.assemblies[0].content_hash = "not-a-hash".into();
    let bytes = env.to_ptib();
    let bob_peer = swarm.peer(bob);
    let view = EnvelopeView::parse(&bytes).unwrap();
    assert!(view.assemblies().all(|e| bob_peer.has_assembly_entry(&e)));

    let before = swarm.peer(bob).stats;
    swarm.send_raw(alice, bob, kinds::OBJECT, bytes).unwrap();
    swarm.run().unwrap();
    assert!(swarm.take_dispatch_errors().is_empty());
    assert_eq!(
        stats_delta(before, swarm.peer(bob).stats),
        [1, 1, 0, 0, 0, 1]
    );
    let ds = swarm.peer_mut(bob).take_deliveries();
    let [Delivery::Accepted {
        proxy: Some(proxy), ..
    }] = ds.as_slice()
    else {
        panic!("expected one proxied acceptance, got {ds:?}");
    };
    assert_eq!(
        proxy.get_field(&swarm.peer(bob).runtime, "name").unwrap(),
        Value::from("rehashed")
    );
}

/// Sends one Person from Alice to Bob and returns Bob's one delivery.
fn deliver_person(
    swarm: &mut Swarm,
    alice: pti_net::PeerId,
    bob: pti_net::PeerId,
    name: &str,
) -> Delivery {
    let v = make_person(swarm, alice, name);
    swarm
        .send_object(alice, bob, &v, PayloadFormat::Binary)
        .unwrap();
    swarm.run().unwrap();
    assert!(swarm.take_dispatch_errors().is_empty());
    let mut ds = swarm.peer_mut(bob).take_deliveries();
    assert_eq!(ds.len(), 1, "expected one delivery, got {ds:?}");
    ds.remove(0)
}

/// A fixture whose Bob has received Alice's Person cold and then warm
/// twice, so the warm-type memo holds the type.
fn warm_fixture() -> Fixture {
    let mut f = fixture();
    for name in ["cold", "warm", "memoized"] {
        deliver_person(&mut f.swarm, f.alice, f.bob, name);
    }
    f
}

/// Swapping interests clears the warm-type memo: after Bob withdraws
/// his interest and subscribes to another one the Person conforms to,
/// the next event is matched to the new interest.
#[test]
fn a_resubscribed_interest_is_matched_once_the_memo_is_warm() {
    let Fixture {
        mut swarm,
        alice,
        bob,
    } = warm_fixture();
    let old = swarm.peer(bob).interests()[0].guid;
    let (_, def_c) = person_assembly("vendor-c", "getName", "setName");
    assert!(swarm.unsubscribe(bob, old));
    swarm.subscribe(bob, TypeDescription::from_def(&def_c));
    for name in ["first", "second"] {
        let Delivery::Accepted {
            interest_guid,
            proxy: Some(proxy),
            ..
        } = deliver_person(&mut swarm, alice, bob, name)
        else {
            panic!("expected a proxied acceptance");
        };
        assert_eq!(interest_guid, Some(def_c.guid), "{name}");
        let rt = &swarm.peer(bob).runtime;
        assert_eq!(proxy.get_field(rt, "name").unwrap(), Value::from(name));
    }
}

/// Whether `peer` holds the code behind `aref`, asked of the entry a
/// one-assembly envelope lists.
fn has_code(peer: &Peer, aref: &AssemblyRef) -> bool {
    let bytes = ObjectEnvelope {
        type_name: "Probe".into(),
        type_guid: Guid::NIL,
        assemblies: vec![aref.clone()],
        payload: Payload::Binary(Vec::new()),
    }
    .to_ptib();
    let view = EnvelopeView::parse(&bytes).unwrap();
    let present = view.assemblies().all(|e| peer.has_assembly_entry(&e));
    present
}

/// The memo is keyed by the exact assembly table: an envelope of a
/// memoized type that lists one more assembly, not installed, is not
/// warm. It opens a pending exchange, fetches only that code and is
/// delivered once the code arrives.
#[test]
fn an_extra_uninstalled_assembly_defeats_the_memo() {
    let Fixture {
        mut swarm,
        alice,
        bob,
    } = warm_fixture();
    let (ship, _) = alien_assembly();
    let ship_path = format!("pti://{alice}/asm/{}", ship.name());
    swarm.publish(alice, ship).unwrap();
    let ship_ref = swarm
        .peer(alice)
        .published_by_asm_path(&ship_path)
        .unwrap()
        .assembly_ref
        .clone();
    assert!(!has_code(swarm.peer(bob), &ship_ref));

    let v = make_person(&mut swarm, alice, "extra");
    let mut env = swarm
        .peer(alice)
        .make_envelope(&v, PayloadFormat::Binary)
        .unwrap();
    env.assemblies.push(ship_ref.clone());
    let before = swarm.peer(bob).stats;
    swarm
        .send_raw(alice, bob, kinds::OBJECT, env.to_ptib())
        .unwrap();
    swarm.run().unwrap();
    assert!(swarm.take_dispatch_errors().is_empty());
    assert_eq!(
        stats_delta(before, swarm.peer(bob).stats),
        [1, 1, 0, 0, 1, 1],
        "one code fetch, one check"
    );
    assert!(has_code(swarm.peer(bob), &ship_ref));
    let ds = swarm.peer_mut(bob).take_deliveries();
    let [Delivery::Accepted {
        proxy: Some(proxy), ..
    }] = ds.as_slice()
    else {
        panic!("expected one proxied acceptance, got {ds:?}");
    };
    assert_eq!(
        proxy.get_field(&swarm.peer(bob).runtime, "name").unwrap(),
        Value::from("extra")
    );
}

/// An uncached checker computes every verdict, so the memo never
/// answers for it: each warm delivery counts the same miss and no hit.
#[test]
fn an_uncached_checker_misses_on_every_warm_delivery() {
    let Fixture {
        mut swarm,
        alice,
        bob,
    } = warm_fixture();
    swarm
        .peer_mut(bob)
        .set_checker(ConformanceChecker::uncached(ConformanceConfig::pragmatic()));
    let mut misses = Vec::new();
    for name in ["a", "b", "c"] {
        let before = swarm.peer(bob).cache_stats();
        assert!(deliver_person(&mut swarm, alice, bob, name).is_accepted());
        let after = swarm.peer(bob).cache_stats();
        assert_eq!(after.hits, before.hits, "{name}: no hit");
        misses.push(after.misses - before.misses);
    }
    assert!(misses[0] > 0, "a verdict is computed: {misses:?}");
    assert!(misses.iter().all(|&m| m == misses[0]), "{misses:?}");
}
