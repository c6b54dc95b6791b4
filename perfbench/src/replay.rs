//! Per-layer replays: each layer's public entry point, timed alone on
//! the workload's own fixture (same event type, payload, interest,
//! routing table, batch size and inbox depth), reported as medians.

use std::time::Instant;

use pti_core::net::FrameBatch;
use pti_core::prelude::*;
use pti_core::samples::{topic_event_assembly, topic_event_def};
use pti_core::serialize::Payload as EnvelopePayload;
use pti_core::transport::kinds;

use crate::measure::{replay_ns, replay_prepared_ns};

/// Timed batches per replay; the median batch is reported.
const SAMPLES: usize = 31;
/// Calls per timed batch for sub-microsecond operations.
const BATCH: usize = 256;
/// Calls per timed batch for operations of several microseconds.
const SMALL_BATCH: usize = 32;

/// The field every workload sets and reads, and a typical value.
const FIELD: &str = "value";
const VALUE: f64 = 1.5;

/// What a workload's replays run on.
#[derive(Debug, Clone)]
pub struct Fixture {
    /// The publisher-side assembly of a representative event type.
    pub assembly: Assembly,
    /// That event type.
    pub event: TypeDef,
    /// The subscriber's type of interest (conformant to `event`).
    pub interest: TypeDef,
    /// The publisher's routing table at the end of the traced run.
    pub routes: RoutingTable,
    /// Every event type name the workload publishes.
    pub names: Vec<String>,
    /// Peak inbox depth a `SimNet` receive had to search; `None` on a
    /// reactor fabric, where the receive is replayed at depth 1 and not
    /// weighted into the unattributed remainder.
    pub inbox_depth: Option<usize>,
}

impl Fixture {
    /// The fixture of a workload that publishes the sample topic events
    /// `Topic0Event`..: topic 0's types, `routes` and every topic's name.
    pub fn topics(topics: usize, routes: RoutingTable, inbox_depth: Option<usize>) -> Fixture {
        Fixture {
            assembly: topic_event_assembly(0),
            event: topic_event_def(0, "pub"),
            interest: topic_event_def(0, "sub"),
            routes,
            names: (0..topics).map(|t| format!("Topic{t}Event")).collect(),
            inbox_depth,
        }
    }
}

/// Runs every replay, framing `batch_frames` frames per batch, and
/// returns `(metric, median ns per call)`.
///
/// # Errors
/// A fixture the layers reject (a bug in the workload's fixture).
pub fn replay_layers(
    fx: &Fixture,
    batch_frames: usize,
) -> Result<Vec<(&'static str, f64)>, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let mut out = Vec::new();

    // serialize: envelope encode/decode and the binary payload.
    let mut sender = Peer::new(PeerId(1), ConformanceConfig::pragmatic());
    sender.publish(fx.assembly.clone()).map_err(|e| err(&e))?;
    let h = sender
        .runtime
        .instantiate_def(&fx.event, &[])
        .map_err(|e| err(&e))?;
    sender
        .runtime
        .set_field(h, FIELD, Value::from(VALUE))
        .map_err(|e| err(&e))?;
    let envelope = sender
        .make_envelope(&Value::Obj(h), PayloadFormat::Binary)
        .map_err(|e| err(&e))?;
    let wire = envelope.encode_wire(EnvelopeWireFormat::Ptib);
    out.push((
        "serialize.envelope_encode_ns",
        replay_ns(SAMPLES, BATCH, |_| {
            envelope.encode_wire(EnvelopeWireFormat::Ptib)
        }),
    ));
    out.push((
        "serialize.envelope_decode_ns",
        replay_ns(SAMPLES, BATCH, |_| {
            ObjectEnvelope::decode_wire(&wire).is_ok()
        }),
    ));
    let EnvelopePayload::Binary(payload) = &envelope.payload else {
        return Err("fixture envelope is not binary".into());
    };
    let mut receiver = Runtime::new();
    fx.assembly.install(&mut receiver).map_err(|e| err(&e))?;
    let mut handles = Vec::with_capacity(BATCH);
    out.push((
        "serialize.from_binary_ns",
        replay_prepared_ns(SAMPLES, || {
            let start = Instant::now();
            for _ in 0..BATCH {
                if let Ok(Value::Obj(h)) = from_binary(&mut receiver, payload) {
                    handles.push(h);
                }
            }
            let elapsed = start.elapsed();
            for h in handles.drain(..) {
                let _ = receiver.heap.free(h);
            }
            (elapsed, BATCH)
        }),
    ));

    // net: batch framing and the SimNet receive at the workload's depth.
    let mut batch = FrameBatch::new();
    for _ in 0..batch_frames.max(2) {
        batch.push(kinds::OBJECT, wire.clone());
    }
    let batch_bytes = batch.encode();
    out.push((
        "net.batch_encode_ns",
        replay_ns(SAMPLES, BATCH, |_| batch.encode()),
    ));
    out.push((
        "net.batch_decode_ns",
        replay_ns(SAMPLES, BATCH, |_| {
            FrameBatch::decode_interned(&batch_bytes, kinds::intern).map(|b| b.len())
        }),
    ));
    let depth = fx.inbox_depth.unwrap_or(1).max(1);
    let mut net = SimNet::new(NetConfig::default());
    let (a, b) = (PeerId(1), PeerId(2));
    net.register(a);
    net.register(b);
    let frame = Payload::from(wire.clone());
    out.push((
        "net.simnet_recv_ns",
        replay_prepared_ns(SAMPLES, || {
            let mut received = 0;
            let mut elapsed = std::time::Duration::ZERO;
            // Refill to `depth` and drain, enough times for a stable
            // timing of small depths.
            for _ in 0..(BATCH / depth).max(1) {
                for _ in 0..depth {
                    let _ = net.send(a, b, kinds::OBJECT, frame.clone());
                }
                let start = Instant::now();
                while std::hint::black_box(net.recv(b)).is_some() {
                    received += 1;
                }
                elapsed += start.elapsed();
            }
            (elapsed, received)
        }),
    ));

    // xml: the description document a fetch returns.
    let desc_xml = description_to_string(&TypeDescription::from_def(&fx.event));
    out.push((
        "xml.desc_doc_parse_ns",
        replay_ns(SAMPLES, SMALL_BATCH, |_| {
            description_from_string(&desc_xml).is_ok()
        }),
    ));

    // conformance: a warm (cached) and a cold checker.
    let mut src = TypeRegistry::with_builtins();
    src.register(fx.event.clone()).map_err(|e| err(&e))?;
    let mut tgt = TypeRegistry::with_builtins();
    tgt.register(fx.interest.clone()).map_err(|e| err(&e))?;
    let received = TypeDescription::from_def(&fx.event);
    let expected = TypeDescription::from_def(&fx.interest);
    let warm = ConformanceChecker::new(ConformanceConfig::pragmatic());
    let conformance = warm
        .check(&received, &expected, &src, &tgt)
        .map_err(|e| format!("fixture interest does not conform: {e}"))?;
    out.push((
        "conformance.check_hit_ns",
        replay_ns(SAMPLES, BATCH, |_| {
            warm.check(&received, &expected, &src, &tgt).is_ok()
        }),
    ));
    let cold = ConformanceChecker::uncached(ConformanceConfig::pragmatic());
    out.push((
        "conformance.check_miss_ns",
        replay_ns(SAMPLES, SMALL_BATCH, |_| {
            cold.check(&received, &expected, &src, &tgt).is_ok()
        }),
    ));

    // proxy: bind over the conformance result, then a field read.
    let obj = receiver
        .instantiate_def(&fx.event, &[])
        .map_err(|e| err(&e))?;
    receiver
        .set_field(obj, FIELD, Value::from(VALUE))
        .map_err(|e| err(&e))?;
    out.push((
        "proxy.bind_ns",
        replay_ns(SAMPLES, BATCH, |_| {
            DynamicProxy::from_conformance(&expected, &conformance, obj)
        }),
    ));
    let proxy = DynamicProxy::from_conformance(&expected, &conformance, obj);
    out.push((
        "proxy.get_field_ns",
        replay_ns(SAMPLES, BATCH, |_| {
            proxy.get_field(&receiver, FIELD).is_ok()
        }),
    ));

    // metamodel: instantiate (freed untimed) and assembly install.
    out.push((
        "metamodel.instantiate_ns",
        replay_prepared_ns(SAMPLES, || {
            let start = Instant::now();
            for _ in 0..BATCH {
                if let Ok(h) = receiver.instantiate_def(&fx.event, &[]) {
                    handles.push(h);
                }
            }
            let elapsed = start.elapsed();
            for h in handles.drain(..) {
                let _ = receiver.heap.free(h);
            }
            (elapsed, BATCH)
        }),
    ));
    out.push((
        "metamodel.install_ns",
        replay_prepared_ns(SAMPLES, || {
            let mut fresh: Vec<Runtime> = (0..SMALL_BATCH).map(|_| Runtime::new()).collect();
            let start = Instant::now();
            for rt in &mut fresh {
                let _ = std::hint::black_box(fx.assembly.install(rt));
            }
            (start.elapsed(), SMALL_BATCH)
        }),
    ));

    // transport: memoized route resolution, warm and after a
    // generation bump (a toggle's worth of invalidation).
    let mut routes = fx.routes.clone();
    let names = &fx.names;
    for n in names {
        routes.resolve_name(n);
    }
    out.push((
        "transport.resolve_hit_ns",
        replay_ns(SAMPLES, BATCH, |i| {
            routes.resolve_name(&names[i % names.len()]).len()
        }),
    ));
    let bump = (PeerId(u32::MAX), Guid(1));
    out.push((
        "transport.resolve_miss_ns",
        replay_prepared_ns(SAMPLES, || {
            routes.insert(bump.0, bump.1, Signature::of_name("ReplayBump"));
            routes.remove(bump.0, bump.1);
            let start = Instant::now();
            for n in names {
                std::hint::black_box(routes.resolve_name(n));
            }
            (start.elapsed(), names.len())
        }),
    ));
    Ok(out)
}
