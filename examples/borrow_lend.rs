//! The borrow/lend abstraction with type conformance as the matching
//! criterion (paper Section 8).
//!
//! A lab lends out instruments (live objects, pass-by-reference). A
//! visiting researcher asks for "anything conforming to *my* notion of a
//! printer" — written independently, with different method names. The
//! market matches by implicit structural conformance and hands back a
//! remote proxy; invocations run on the lender's machine.
//!
//! Run with: `cargo run --example borrow_lend`

use std::sync::Arc;

use pti_core::prelude::*;
use pti_metamodel::bodies;

fn lab_printer() -> (TypeDef, Assembly) {
    let def = TypeDef::class("Printer", "lab")
        .field("jobs", primitives::INT32)
        .method(
            "printDocument",
            vec![ParamDef::new("doc", primitives::STRING)],
            primitives::INT32,
        )
        .method("getJobs", vec![], primitives::INT32)
        .ctor(vec![])
        .build();
    let g = def.guid;
    let asm = Assembly::builder("lab-printer")
        .ty(def.clone())
        .body(
            g,
            "printDocument",
            1,
            Arc::new(|rt: &mut Runtime, recv: Value, args: &[Value]| {
                let h = recv.as_obj()?;
                let jobs = rt.get_field(h, "jobs")?.as_i32()? + 1;
                rt.set_field(h, "jobs", Value::I32(jobs))?;
                println!(
                    "    [lab printer] printing {:?} (job #{jobs})",
                    args[0].as_str()?
                );
                Ok(Value::I32(jobs))
            }),
        )
        .body(g, "getJobs", 0, bodies::getter("jobs"))
        .ctor_body(g, 0, bodies::ctor_assign(&[]))
        .build();
    (def, asm)
}

fn lab_telescope() -> (TypeDef, Assembly) {
    let def = TypeDef::class("Telescope", "lab")
        .field("azimuth", primitives::FLOAT64)
        .method(
            "pointAt",
            vec![ParamDef::new("az", primitives::FLOAT64)],
            primitives::VOID,
        )
        .ctor(vec![])
        .build();
    let g = def.guid;
    let asm = Assembly::builder("lab-telescope")
        .ty(def.clone())
        .body(g, "pointAt", 1, bodies::setter("azimuth"))
        .ctor_body(g, 0, bodies::ctor_assign(&[]))
        .build();
    (def, asm)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut market = Market::new(NetConfig::default());
    let lab = market.add_peer(ConformanceConfig::pragmatic());
    let researcher = market.add_peer(ConformanceConfig::pragmatic());

    // The lab publishes and lends two instruments.
    let (_printer_def, printer_asm) = lab_printer();
    let (_scope_def, scope_asm) = lab_telescope();
    market.publish(lab, printer_asm)?;
    market.publish(lab, scope_asm)?;
    let printer = market
        .peer_mut(lab)
        .runtime
        .instantiate(&"Printer".into(), &[])?;
    let scope = market
        .peer_mut(lab)
        .runtime
        .instantiate(&"Telescope".into(), &[])?;
    let printer_id = market.lend(lab, printer)?;
    let _scope_id = market.lend(lab, scope)?;
    println!("lab lends {} resource(s)", market.lendings().len());

    // The researcher's own idea of a printer (different method names).
    let my_printer = TypeDef::class("Printer", "researcher")
        .field("jobs", primitives::INT32)
        .method(
            "print",
            vec![ParamDef::new("doc", primitives::STRING)],
            primitives::INT32,
        )
        .method("getJobs", vec![], primitives::INT32)
        .build();

    let borrowed = market
        .borrow(researcher, &TypeDescription::from_def(&my_printer))?
        .expect("the lab's printer conforms");
    println!(
        "researcher borrowed lending #{} exposing `{}`",
        borrowed.lending_id,
        borrowed.proxy.expected().name
    );

    // Use it under the researcher's own contract; state stays at the lab.
    let j1 = market.invoke(researcher, &borrowed, "print", &[Value::from("thesis.pdf")])?;
    let j2 = market.invoke(researcher, &borrowed, "print", &[Value::from("slides.pdf")])?;
    let jobs = market.invoke(researcher, &borrowed, "getJobs", &[])?;
    println!("researcher printed jobs {j1} and {j2}; printer reports {jobs} total");
    assert_eq!(jobs.as_i32()?, 2);

    // The printer is exclusive while borrowed.
    let other = market.add_peer(ConformanceConfig::pragmatic());
    assert!(market
        .borrow(other, &TypeDescription::from_def(&my_printer))?
        .is_none());
    market.give_back(printer_id)?;
    assert!(market
        .borrow(other, &TypeDescription::from_def(&my_printer))?
        .is_some());
    println!("after give_back, another peer could borrow it");

    // Pass-by-reference means no assembly ever crossed the wire.
    let m = market.swarm().net().metrics();
    println!(
        "\nwire: {} messages, {} bytes; code downloads: {}",
        m.messages,
        m.bytes,
        m.kind("asm-request").messages
    );
    assert_eq!(m.kind("asm-request").messages, 0);
    Ok(())
}
