//! # pti-bench — benchmark fixtures
//!
//! Shared setup for the `experiments` harness binary that regenerates every measurement of the paper's Section 7
//! plus the protocol (F1) and ablation (A1–A3) experiments described in
//! DESIGN.md.

#![warn(missing_docs)]

use pti_core::prelude::*;
use pti_core::samples;

/// Fixture for the Section 7.1 invocation benchmark: a runtime holding a
/// vendor-b `Person`, the direct handle, and a proxy exposing vendor-a's
/// contract over it.
pub struct InvocationFixture {
    /// The runtime owning the object.
    pub runtime: Runtime,
    /// The raw object handle (direct-call baseline).
    pub handle: ObjHandle,
    /// The method body bound once — the analogue of a compiled call site
    /// (the paper's "direct invocation").
    pub bound_get: pti_metamodel::NativeFn,
    /// Proxy translating vendor-a names to vendor-b names.
    pub proxy: DynamicProxy,
    /// A pass-through proxy (identity binding) to isolate pure proxy
    /// overhead from name translation.
    pub transparent_proxy: DynamicProxy,
}

/// Builds the invocation fixture.
///
/// # Panics
/// On fixture construction failure (benchmarks only).
pub fn invocation_fixture() -> InvocationFixture {
    let a_def = samples::person_vendor_a();
    let b_def = samples::person_vendor_b();
    let mut runtime = Runtime::new();
    samples::person_assembly(&b_def)
        .install(&mut runtime)
        .unwrap();
    let handle = samples::make_person(&mut runtime, "bench")
        .as_obj()
        .unwrap();
    let bound_get = runtime
        .bind_method(b_def.guid, "getPersonName", 0)
        .expect("installed");
    let checker = ConformanceChecker::new(ConformanceConfig::pragmatic());
    let a_desc = TypeDescription::from_def(&a_def);
    let b_desc = TypeDescription::from_def(&b_def);
    let proxy = DynamicProxy::try_new(
        &a_desc,
        &b_desc,
        handle,
        &checker,
        &runtime.registry,
        &runtime.registry,
    )
    .unwrap();
    let transparent_proxy = DynamicProxy::try_new(
        &b_desc,
        &b_desc,
        handle,
        &checker,
        &runtime.registry,
        &runtime.registry,
    )
    .unwrap();
    InvocationFixture {
        runtime,
        handle,
        bound_get,
        proxy,
        transparent_proxy,
    }
}

/// Fixture for the serialization benchmarks (Sections 7.2/7.3): a runtime
/// with the paper's `Person` installed and an instance built, plus the
/// Figure-3 nested Person+Address object.
pub struct SerializationFixture {
    /// The runtime owning the objects.
    pub runtime: Runtime,
    /// The vendor-a `Person` description (Section 7.2 subject).
    pub description: TypeDescription,
    /// A simple `Person` instance (Section 7.3 subject).
    pub person: Value,
    /// A nested Person-with-Address instance (Figure 3 subject).
    pub nested: Value,
}

/// Builds the serialization fixture.
///
/// # Panics
/// On fixture construction failure (benchmarks only).
pub fn serialization_fixture() -> SerializationFixture {
    let a_def = samples::person_vendor_a();
    let mut runtime = Runtime::new();
    samples::person_assembly(&a_def)
        .install(&mut runtime)
        .unwrap();
    let person = samples::make_person(&mut runtime, "benchmark subject");

    let (_, _, asm) = samples::person_with_address("bench");
    asm.install(&mut runtime).unwrap();
    // The nested person: distinct type (same simple name, later vendor)
    // resolved by guid through instantiate_def.
    let nested_person_def = asm
        .types()
        .iter()
        .find(|t| t.name.simple() == "Person")
        .unwrap()
        .clone();
    let addr_def = asm
        .types()
        .iter()
        .find(|t| t.name.simple() == "Address")
        .unwrap()
        .clone();
    let ah = runtime.instantiate_def(&addr_def, &[]).unwrap();
    runtime
        .set_field(ah, "street", Value::from("Avenue de Rhodanie 46"))
        .unwrap();
    runtime.set_field(ah, "zip", Value::I32(1007)).unwrap();
    let ph = runtime.instantiate_def(&nested_person_def, &[]).unwrap();
    runtime
        .set_field(ph, "name", Value::from("figure three"))
        .unwrap();
    runtime.set_field(ph, "home", Value::Obj(ah)).unwrap();

    SerializationFixture {
        runtime,
        description: TypeDescription::from_def(&a_def),
        person,
        nested: Value::Obj(ph),
    }
}

/// Fixture for the Section 7.4 conformance benchmark: the two vendor
/// `Person` descriptions and a registry resolving their references.
pub struct ConformanceFixture {
    /// Registry resolving referenced types on both sides.
    pub registry: TypeRegistry,
    /// Vendor-a (expected/interest) description.
    pub expected: TypeDescription,
    /// Vendor-b (received) description.
    pub received: TypeDescription,
}

/// Builds the conformance fixture.
///
/// # Panics
/// On fixture construction failure (benchmarks only).
pub fn conformance_fixture() -> ConformanceFixture {
    let a = samples::person_vendor_a();
    let b = samples::person_vendor_b();
    let mut registry = TypeRegistry::with_builtins();
    registry.register(a.clone()).unwrap();
    registry.register(b.clone()).unwrap();
    ConformanceFixture {
        registry,
        expected: TypeDescription::from_def(&a),
        received: TypeDescription::from_def(&b),
    }
}

/// Result of one protocol run for experiment F1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtocolOutcome {
    /// Total bytes on the wire.
    pub bytes: u64,
    /// Total messages on the wire.
    pub messages: u64,
    /// Final virtual clock (µs).
    pub virtual_us: u64,
    /// Objects accepted at the subscriber.
    pub accepted: u64,
    /// Objects rejected at the subscriber.
    pub rejected: u64,
}

/// Runs `objects` transfers drawn from a generated population with the
/// given conforming ratio over either protocol; reports traffic.
///
/// # Panics
/// On protocol failure (benchmarks only).
pub fn run_protocol(
    eager: bool,
    objects: usize,
    conforming_ratio: f64,
    distinct_types: usize,
    seed: u64,
) -> ProtocolOutcome {
    let mut swarm = Swarm::new(NetConfig::default());
    let publisher = swarm.add_peer(ConformanceConfig::pragmatic());
    let subscriber = swarm.add_peer(ConformanceConfig::pragmatic());
    let interest = samples::sensor_interest("subscriber");
    swarm
        .peer_mut(subscriber)
        .runtime
        .register_type(interest.clone())
        .unwrap();
    swarm
        .peer_mut(subscriber)
        .subscribe(TypeDescription::from_def(&interest));

    let variants = samples::generate_population(seed, distinct_types.max(1), conforming_ratio);
    for v in &variants {
        swarm.publish(publisher, v.assembly.clone()).unwrap();
    }
    for i in 0..objects {
        let v = &variants[i % variants.len()];
        let h = swarm
            .peer_mut(publisher)
            .runtime
            .instantiate_def(&v.def, &[])
            .unwrap();
        if eager {
            swarm
                .send_object_eager(publisher, subscriber, &Value::Obj(h), PayloadFormat::Binary)
                .unwrap();
        } else {
            swarm
                .send_object(publisher, subscriber, &Value::Obj(h), PayloadFormat::Binary)
                .unwrap();
        }
        swarm.run().unwrap();
    }
    let m = swarm.net().metrics();
    let stats = swarm.peer(subscriber).stats;
    ProtocolOutcome {
        bytes: m.bytes,
        messages: m.messages,
        virtual_us: swarm.net().now_us(),
        accepted: stats.accepted,
        rejected: stats.rejected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build_and_work() {
        let mut f = invocation_fixture();
        let direct = invoke_direct(&mut f.runtime, f.handle, "getPersonName", &[]).unwrap();
        let proxied = f.proxy.invoke(&mut f.runtime, "getName", &[]).unwrap();
        assert_eq!(direct, proxied);
        assert!(f.transparent_proxy.is_transparent());
        assert!(!f.proxy.is_transparent());
    }

    #[test]
    fn serialization_fixture_roundtrips() {
        let mut f = serialization_fixture();
        let xml = to_soap_string(&f.runtime, &f.person).unwrap();
        assert!(from_soap_string(&mut f.runtime, &xml).is_ok());
        let nested_xml = to_soap_string(&f.runtime, &f.nested).unwrap();
        assert!(nested_xml.contains("Avenue"));
    }

    #[test]
    fn protocol_outcomes_reflect_ratio() {
        let all = run_protocol(false, 10, 1.0, 5, 1);
        assert_eq!(all.accepted, 10);
        assert_eq!(all.rejected, 0);
        let none = run_protocol(false, 10, 0.0, 5, 1);
        assert_eq!(none.accepted, 0);
        assert_eq!(none.rejected, 10);
        assert!(
            none.bytes < all.bytes,
            "rejected objects skip code downloads"
        );
    }

    #[test]
    fn eager_vs_optimistic_direction() {
        let opt = run_protocol(false, 30, 0.5, 6, 2);
        let eag = run_protocol(true, 30, 0.5, 6, 2);
        assert_eq!(opt.accepted + opt.rejected, 30);
        assert!(opt.bytes < eag.bytes);
        // Eager accepts everything (code always present).
        assert_eq!(eag.accepted, 30);
    }
}
