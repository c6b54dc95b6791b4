//! Hostile object frames through `Swarm::dispatch`.
//!
//! A warm receiver gets envelopes that the decoder must reject — every
//! truncation, hostile varint counts and lengths, invalid UTF-8, and
//! seeded random byte flips that break the envelope — as `object` and
//! as reliable `object-r` frames. Each one must surface as exactly one
//! dispatch error, and the good event queued behind it must still be
//! delivered.
//!
//! The receiving edge gets the same treatment: `eager-object` frames
//! with a missing or overlong length prefix, a broken envelope, one that
//! is neither `PTIE` nor UTF-8 or one listing unpublished code, and XML
//! `object` frames that fail to decode.
//!
//! So does the control traffic: well-formed `subscribe`, `unsubscribe`,
//! `join`, `leave`, `view`, description and assembly requests and
//! responses, `ack` and `batch` payloads are recorded from a real
//! two-swarm exchange, then fed to the warm receiver empty, truncated,
//! byte-flipped and replaced by random bytes. Dispatch must return
//! without panicking, and an object sent afterwards must still deliver.
//!
//! The random cases are drawn from a SplitMix64 stream, so a failure
//! names the case that reproduces it.

use std::collections::BTreeMap;

use pti_conformance::ConformanceConfig;
use pti_metamodel::{bodies, primitives, Assembly, TypeDef, TypeDescription, Value};
use pti_net::{FrameBatch, NetConfig, PeerId, SharedSimNet};
use pti_serialize::{EnvelopeView, ObjectEnvelope, PayloadFormat};
use pti_transport::{kinds, Delivery, QoS, Swarm, TransportError, RELIABLE_HEADER_LEN};

const FLIP_CASES: u64 = 64;

/// The tiny deterministic PRNG driving the cases (SplitMix64).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Alice publishes `Reading`; Bob subscribes to a structurally equal
/// view of it and has received one event, so he is warm.
struct Warm {
    swarm: Swarm,
    alice: PeerId,
    bob: PeerId,
    /// A well-formed binary envelope of one `Reading`.
    good: Vec<u8>,
    /// Next reliable link and event sequence number on alice → bob.
    reliable_seq: u64,
}

fn warm() -> Warm {
    let mut swarm = Swarm::new(NetConfig::default());
    let alice = swarm.add_peer(ConformanceConfig::pragmatic());
    let bob = swarm.add_peer(ConformanceConfig::pragmatic());
    let def = TypeDef::class("Reading", "alice")
        .field("value", primitives::FLOAT64)
        .ctor(vec![])
        .build();
    let asm = Assembly::builder("reading")
        .ty(def.clone())
        .ctor_body(def.guid, 0, bodies::ctor_assign(&[]))
        .build();
    swarm.publish(alice, asm).unwrap();
    let interest = TypeDef::class("Reading", "bob")
        .field("value", primitives::FLOAT64)
        .build();
    swarm.subscribe(bob, TypeDescription::from_def(&interest));

    let rt = &mut swarm.peer_mut(alice).runtime;
    let h = rt.instantiate_def(&def, &[]).unwrap();
    rt.set_field(h, "value", Value::F64(1.5)).unwrap();
    let good = swarm
        .peer(alice)
        .make_envelope(&Value::Obj(h), PayloadFormat::Binary)
        .unwrap()
        .to_ptib();
    let mut w = Warm {
        swarm,
        alice,
        bob,
        good,
        reliable_seq: 1,
    };
    w.send_good(kinds::OBJECT);
    w.swarm.run().unwrap();
    assert_eq!(w.take_values(), [1.5], "bob is warm");
    w
}

impl Warm {
    /// Queues `envelope` to Bob as a frame of `kind`, behind a reliable
    /// header with the next sequence numbers for `object-r`.
    fn send(&mut self, kind: &'static str, envelope: &[u8]) {
        let frame = if kind == kinds::OBJECT_R {
            let seq = self.reliable_seq;
            self.reliable_seq += 1;
            let mut frame = Vec::with_capacity(RELIABLE_HEADER_LEN + envelope.len());
            frame.extend_from_slice(&seq.to_le_bytes());
            frame.extend_from_slice(&self.alice.0.to_le_bytes());
            frame.extend_from_slice(&seq.to_le_bytes());
            frame.extend_from_slice(envelope);
            frame
        } else {
            envelope.to_vec()
        };
        self.swarm
            .send_raw(self.alice, self.bob, kind, frame)
            .unwrap();
    }

    fn send_good(&mut self, kind: &'static str) {
        let good = self.good.clone();
        self.send(kind, &good);
    }

    /// The `value` of every object delivered to Bob since the last call.
    fn take_values(&mut self) -> Vec<f64> {
        let ds = self.swarm.peer_mut(self.bob).take_deliveries();
        ds.iter()
            .map(|d| match d {
                Delivery::Accepted {
                    proxy: Some(proxy), ..
                } => proxy
                    .get_field(&self.swarm.peer(self.bob).runtime, "value")
                    .unwrap()
                    .as_f64()
                    .unwrap(),
                other => panic!("expected a proxied acceptance, got {other:?}"),
            })
            .collect()
    }
}

/// `bytes` with the varint at `at` replaced by `value`'s encoding.
fn with_varint(bytes: &[u8], at: usize, mut value: u64) -> Vec<u8> {
    let old = bytes[at..].iter().position(|b| b & 0x80 == 0).unwrap() + 1;
    let mut varint = Vec::new();
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            varint.push(byte);
            break;
        }
        varint.push(byte | 0x80);
    }
    [&bytes[..at], &varint, &bytes[at + old..]].concat()
}

/// Envelopes derived from `good` that the decoder rejects: every
/// truncation, a hostile value at the type-name length and at the
/// assembly count, invalid UTF-8 in the type name, and random flips
/// that break the envelope.
fn hostile(good: &[u8]) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = (0..good.len())
        .map(|cut| (format!("cut at {cut}"), good[..cut].to_vec()))
        .collect();
    // magic + version, then the type name's length prefix.
    let name_len = 5;
    let count = name_len + 1 + usize::from(good[name_len]) + 16;
    for (field, at) in [("type-name length", name_len), ("assembly count", count)] {
        for value in [u64::MAX, good.len() as u64] {
            out.push((format!("{field} = {value}"), with_varint(good, at, value)));
        }
    }
    let mut bad_name = good.to_vec();
    bad_name[name_len + 1] = 0xff;
    out.push(("invalid utf8 in the type name".into(), bad_name));
    let mut rng = SplitMix64(0xD15_BA7C4);
    let mut case = 0;
    while case < FLIP_CASES {
        let mut bytes = good.to_vec();
        let at = rng.below(bytes.len() as u64) as usize;
        bytes[at] ^= 1 << rng.below(8);
        if EnvelopeView::parse(&bytes).is_err() {
            out.push((format!("flip case {case} at {at}"), bytes));
            case += 1;
        }
    }
    for (name, bytes) in &out {
        assert!(EnvelopeView::parse(bytes).is_err(), "{name} decodes");
    }
    out
}

#[test]
fn hostile_object_frames_surface_as_errors_and_the_traffic_behind_them_delivers() {
    let mut w = warm();
    let cases = hostile(&w.good.clone());
    for kind in [kinds::OBJECT, kinds::OBJECT_R] {
        for (name, bytes) in &cases {
            w.send(kind, bytes);
            w.send_good(kind);
            w.swarm.run().unwrap();
            let errs = w.swarm.take_dispatch_errors();
            assert_eq!(errs.len(), 1, "{kind} {name}: {errs:?}");
            assert_eq!(errs[0].0, w.bob, "{kind} {name}");
            assert_eq!(w.take_values(), [1.5], "{kind} {name}: good event lost");
        }
    }
    let stats = w.swarm.peer(w.bob).stats;
    assert_eq!(
        (stats.desc_requests, stats.asm_requests, stats.rejected),
        (1, 1, 0),
        "hostile frames opened no exchange"
    );
    assert_eq!(
        w.swarm.delivery_stats().delivered,
        2 * cases.len() as u64,
        "every reliable frame passed the link layer"
    );
}

/// An `eager-object` frame: the envelope behind its `u32` length prefix.
fn eager(envelope: &[u8]) -> Vec<u8> {
    let mut frame = (envelope.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(envelope);
    frame
}

/// Whether a dispatch error is the kind a case expects.
type Expect = fn(&TransportError) -> bool;

#[test]
fn hostile_eager_and_xml_frames_surface_as_errors_and_the_traffic_behind_them_delivers() {
    let mut w = warm();
    let good = w.good.clone();
    let xml = ObjectEnvelope::from_ptib(&good)
        .unwrap()
        .to_string_compact()
        .into_bytes();
    let mut unpublished = ObjectEnvelope::from_ptib(&good).unwrap();
    unpublished.assemblies[0].assembly_path = "pti://peer-9/asm/nowhere".into();
    let overlong = {
        let mut frame = eager(&good);
        frame[..4].copy_from_slice(&(good.len() as u32 + 1).to_le_bytes());
        frame
    };
    let protocol: Expect = |e| matches!(e, TransportError::Protocol(_));
    let serialize: Expect = |e| matches!(e, TransportError::Serialize(_));
    let unknown_path: Expect = |e| matches!(e, TransportError::UnknownPath(_));
    let cases: Vec<(&str, &'static str, Vec<u8>, Expect)> = vec![
        ("eager: empty", kinds::EAGER_OBJECT, Vec::new(), protocol),
        (
            "eager: no prefix",
            kinds::EAGER_OBJECT,
            vec![7, 0, 0],
            protocol,
        ),
        (
            "eager: prefix past the end",
            kinds::EAGER_OBJECT,
            overlong,
            protocol,
        ),
        (
            "eager: u32::MAX prefix",
            kinds::EAGER_OBJECT,
            [&u32::MAX.to_le_bytes()[..], &good].concat(),
            protocol,
        ),
        (
            "eager: garbage envelope",
            kinds::EAGER_OBJECT,
            eager(&good[..good.len() / 2]),
            serialize,
        ),
        (
            "eager: neither PTIE nor UTF-8",
            kinds::EAGER_OBJECT,
            eager(&[0xff, 0xfe, 0x00, 0x80]),
            protocol,
        ),
        (
            "eager: XML that fails to decode",
            kinds::EAGER_OBJECT,
            eager(&xml[..xml.len() / 2]),
            serialize,
        ),
        (
            "eager: unpublished assembly",
            kinds::EAGER_OBJECT,
            eager(&unpublished.to_ptib()),
            unknown_path,
        ),
        (
            "object: XML cut short",
            kinds::OBJECT,
            xml[..xml.len() / 2].to_vec(),
            serialize,
        ),
        (
            "object: XML without a type",
            kinds::OBJECT,
            b"<ptiMessage version=\"1\"/>".to_vec(),
            serialize,
        ),
    ];
    for (name, kind, frame, expect) in cases {
        w.swarm.send_raw(w.alice, w.bob, kind, frame).unwrap();
        // The good event behind it travels the same way: eager, or as XML.
        let behind = match kind {
            kinds::EAGER_OBJECT => eager(&good),
            _ => xml.clone(),
        };
        w.swarm.send_raw(w.alice, w.bob, kind, behind).unwrap();
        w.swarm.run().unwrap();
        let errs = w.swarm.take_dispatch_errors();
        assert_eq!(errs.len(), 1, "{name}: {errs:?}");
        assert_eq!(errs[0].0, w.bob, "{name}");
        assert!(expect(&errs[0].1), "{name}: {}", errs[0].1);
        assert_eq!(w.take_values(), [1.5], "{name}: good event lost");
    }
    let stats = w.swarm.peer(w.bob).stats;
    assert_eq!(
        (stats.desc_requests, stats.asm_requests, stats.rejected),
        (1, 1, 0),
        "hostile frames opened no exchange"
    );
}

/// The control kinds the hostile-control test feeds through dispatch.
const CONTROL_KINDS: [&str; 11] = [
    kinds::SUBSCRIBE,
    kinds::UNSUBSCRIBE,
    kinds::JOIN,
    kinds::LEAVE,
    kinds::VIEW,
    kinds::DESC_REQUEST,
    kinds::DESC_RESPONSE,
    kinds::ASM_REQUEST,
    kinds::ASM_RESPONSE,
    kinds::ACK,
    kinds::BATCH,
];

/// Pumps `swarms` to quiescence by hand, keeping the first payload of
/// every kind that crosses the fabric, batched frames included.
fn record(swarms: &mut [Swarm<SharedSimNet>], seen: &mut BTreeMap<&'static str, Vec<u8>>) {
    loop {
        swarms.iter_mut().for_each(Swarm::flush_wire);
        let mut moved = false;
        for swarm in swarms.iter_mut() {
            while let Some((at, msg)) = swarm.poll_message().unwrap() {
                moved = true;
                if msg.kind == kinds::BATCH {
                    for frame in FrameBatch::decode(&msg.payload).unwrap().frames {
                        let kind = kinds::intern(&frame.kind).unwrap();
                        seen.entry(kind).or_insert_with(|| frame.payload.to_vec());
                    }
                }
                seen.entry(msg.kind).or_insert_with(|| msg.payload.to_vec());
                swarm.dispatch(at, msg).unwrap();
            }
        }
        if !moved {
            return;
        }
    }
}

/// One well-formed payload of each control kind, recorded from two
/// at-least-once swarms: a join, interest gossip, a routed burst with
/// its description and code fetches, a retraction and a leave.
fn control_exemplars() -> BTreeMap<&'static str, Vec<u8>> {
    let fabric = SharedSimNet::new(NetConfig::ideal());
    let mut publisher = Swarm::over(fabric.session());
    let mut subscriber = Swarm::with_code_registry(fabric.session(), publisher.code_registry());
    for swarm in [&mut publisher, &mut subscriber] {
        swarm.set_qos(QoS::AtLeastOnce);
    }
    let alice = publisher.add_peer_as(PeerId(1), ConformanceConfig::pragmatic());
    let bob = subscriber.add_peer_as(PeerId(2), ConformanceConfig::pragmatic());
    let def = TypeDef::class("Reading", "alice")
        .field("value", primitives::FLOAT64)
        .ctor(vec![])
        .build();
    publisher
        .publish(
            alice,
            Assembly::builder("reading")
                .ty(def.clone())
                .ctor_body(def.guid, 0, bodies::ctor_assign(&[]))
                .build(),
        )
        .unwrap();
    let interest = TypeDescription::from_def(
        &TypeDef::class("Reading", "bob")
            .field("value", primitives::FLOAT64)
            .build(),
    );
    let guid = interest.guid;
    subscriber.join(alice).unwrap();
    subscriber.subscribe(bob, interest);
    let mut swarms = [publisher, subscriber];
    let mut seen = BTreeMap::new();
    record(&mut swarms, &mut seen);
    for _ in 0..3 {
        let h = swarms[0]
            .peer_mut(alice)
            .runtime
            .instantiate_def(&def, &[])
            .unwrap();
        swarms[0]
            .route_object(alice, &Value::Obj(h), PayloadFormat::Binary)
            .unwrap();
    }
    record(&mut swarms, &mut seen);
    assert!(swarms[1].unsubscribe(bob, guid));
    swarms[1].leave();
    record(&mut swarms, &mut seen);
    for kind in CONTROL_KINDS {
        assert!(seen.contains_key(kind), "no {kind} frame recorded");
    }
    seen
}

/// Hostile variants of `good`: empty, truncated (every cut of a short
/// payload, seeded cuts of a long one), single-bit flips, and random
/// bytes of random length.
fn hostile_control(good: &[u8], rng: &mut SplitMix64) -> Vec<(String, Vec<u8>)> {
    let mut out = vec![("empty".to_string(), Vec::new())];
    let cuts: Vec<usize> = if good.len() <= 64 {
        (1..good.len()).collect()
    } else {
        (0..32)
            .map(|_| 1 + rng.below(good.len() as u64 - 1) as usize)
            .collect()
    };
    for cut in cuts {
        out.push((format!("cut at {cut}"), good[..cut].to_vec()));
    }
    for case in 0..32 {
        let mut bytes = good.to_vec();
        let at = rng.below(bytes.len() as u64) as usize;
        bytes[at] ^= 1 << rng.below(8);
        out.push((format!("flip case {case} at {at}"), bytes));
    }
    for case in 0..16 {
        let len = rng.below(64) as usize + 1;
        let bytes = (0..len).map(|_| rng.next_u64() as u8).collect();
        out.push((format!("random case {case}"), bytes));
    }
    out
}

#[test]
fn hostile_control_frames_never_panic_and_the_traffic_behind_them_delivers() {
    let exemplars = control_exemplars();
    let mut w = warm();
    let mut rng = SplitMix64(0xC0_47_20_1F);
    let mut marker = 0.0;
    for kind in CONTROL_KINDS {
        let mut errors = 0;
        for (name, bytes) in hostile_control(&exemplars[kind], &mut rng) {
            w.swarm.send_raw(w.alice, w.bob, kind, bytes).unwrap();
            w.swarm.run().unwrap();
            // The frame surfaced as an error or was absorbed (an
            // unsolicited response, an ACK for no link); either way an
            // object sent after it still delivers.
            errors += w.swarm.take_dispatch_errors().len();
            marker += 1.0;
            let rt = &mut w.swarm.peer_mut(w.alice).runtime;
            let h = rt.instantiate(&"Reading".into(), &[]).unwrap();
            rt.set_field(h, "value", Value::F64(marker)).unwrap();
            let v = Value::Obj(h);
            w.swarm
                .send_object(w.alice, w.bob, &v, PayloadFormat::Binary)
                .unwrap();
            w.swarm.run().unwrap();
            assert!(
                w.take_values().contains(&marker),
                "{kind} {name}: the object behind it was lost"
            );
        }
        assert!(errors > 0, "no hostile {kind} frame reached a decoder");
    }
}
