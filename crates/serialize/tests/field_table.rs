//! Property tests for an object's field table (`Fields`): over random
//! steps it must answer exactly as a `BTreeMap<String, Value>` model —
//! set, replace, get, get_mut, undeclared inserts, len, equality and
//! iteration order — keep clones of one template independent, and
//! survive binary and SOAP round trips with its undeclared fields.
//!
//! Each property runs over cases drawn from a seeded SplitMix64 stream,
//! so a failure names the case that reproduces it.

use std::collections::BTreeMap;

use pti_metamodel::{primitives, DynObject, Guid, ObjHandle, Runtime, TypeDef, Value};
use pti_serialize::{from_binary, from_soap_string, to_binary, to_soap_string};

const CASES: u64 = 64;
const STEPS: u64 = 48;

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

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len() as u64) as usize]
    }
}

/// Every name `Rec` declares, its own and the one it inherits (`b`).
const DECLARED: &[&str] = &["a", "b", "m", "q", "z"];
/// Names `Rec` does not declare, sorting before, between and after the
/// declared ones, and two that need escaping in XML.
const UNDECLARED: &[&str] = &["", "0", "aa", "c", "n", "r", "zz", "~", "x&y", "<t>"];

fn runtime() -> (Runtime, Guid) {
    let mut rt = Runtime::new();
    rt.register_type(
        TypeDef::class("Base", "fields")
            .field("b", primitives::INT32)
            .ctor(vec![])
            .build(),
    )
    .unwrap();
    let rec = TypeDef::class("Rec", "fields")
        .extends("Base")
        .field("z", primitives::STRING)
        .field("m", primitives::INT64)
        .field("a", primitives::BOOL)
        .field("q", primitives::FLOAT64)
        .ctor(vec![])
        .build();
    let guid = rec.guid;
    rt.register_type(rec).unwrap();
    (rt, guid)
}

/// A scalar (or array of scalars) that round-trips through both wire
/// forms and compares equal to itself (no NaN).
fn value(rng: &mut SplitMix64) -> Value {
    match rng.below(7) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 1),
        2 => Value::I32(rng.next_u64() as i32),
        3 => Value::I64(rng.next_u64() as i64),
        4 => Value::F64((rng.next_u64() >> 11) as f64 / 1024.0 - 1e12),
        5 => Value::Str(format!("s{}<&>", rng.below(1000))),
        _ => Value::Array(vec![Value::I32(rng.below(9) as i32), Value::Null]),
    }
}

fn name(rng: &mut SplitMix64) -> &'static str {
    if rng.below(2) == 0 {
        rng.pick(DECLARED)
    } else {
        rng.pick(UNDECLARED)
    }
}

fn model_of(obj: &DynObject) -> BTreeMap<String, Value> {
    obj.fields
        .iter()
        .map(|(n, v)| (n.to_string(), v.clone()))
        .collect()
}

/// `obj` holds exactly `model`, visited in the model's order.
fn assert_matches(obj: &DynObject, model: &BTreeMap<String, Value>, at: &str) {
    assert_eq!(obj.fields.len(), model.len(), "{at}: len");
    assert_eq!(obj.fields.is_empty(), model.is_empty(), "{at}: is_empty");
    let got: Vec<(&str, &Value)> = obj.fields.iter().collect();
    let want: Vec<(&str, &Value)> = model.iter().map(|(n, v)| (n.as_str(), v)).collect();
    assert_eq!(got, want, "{at}: iteration");
    assert_eq!(obj.fields.iter().len(), model.len(), "{at}: iterator len");
    assert!(
        obj.fields.keys().eq(model.keys().map(String::as_str)),
        "{at}: keys"
    );
    assert!(obj.fields.values().eq(model.values()), "{at}: values");
}

/// An object with `model`'s fields all written as undeclared names.
fn undeclared_copy(guid: Guid, model: &BTreeMap<String, Value>) -> DynObject {
    let mut obj = DynObject::new(guid);
    for (n, v) in model {
        obj.set(n, v.clone());
    }
    obj
}

#[test]
fn the_field_table_answers_as_an_ordered_map() {
    for seed in 0..CASES {
        let (mut rt, guid) = runtime();
        let first = rt.allocate_raw_guid(guid).unwrap();
        let blank = rt.heap.get(first).unwrap().clone();
        let blank_model = model_of(&blank);
        assert_eq!(
            blank_model.keys().map(String::as_str).collect::<Vec<_>>(),
            DECLARED,
            "seed {seed}: a blank object holds every declared name, sorted"
        );
        // Two objects cloned from the same template, each with its model.
        let mut objs = [blank.clone(), blank.clone()];
        let mut models = [blank_model.clone(), blank_model.clone()];
        let sibling = rt.allocate_raw_guid(guid).unwrap();
        let mut rng = SplitMix64(seed);
        for step in 0..STEPS {
            let at = format!("seed {seed}, step {step}");
            let i = rng.below(2) as usize;
            let n = name(&mut rng);
            match rng.below(4) {
                0 | 1 => {
                    let v = value(&mut rng);
                    let prev = objs[i].set(n, v.clone());
                    assert_eq!(prev, models[i].insert(n.to_string(), v), "{at}: set {n:?}");
                }
                2 => {
                    let v = value(&mut rng);
                    let slot = objs[i].fields.get_mut(n);
                    let model_slot = models[i].get_mut(n);
                    assert_eq!(slot.is_some(), model_slot.is_some(), "{at}: get_mut {n:?}");
                    if let (Some(slot), Some(model_slot)) = (slot, model_slot) {
                        *slot = v.clone();
                        *model_slot = v;
                    }
                }
                _ => {
                    assert_eq!(objs[i].get(n), models[i].get(n), "{at}: get {n:?}");
                }
            }
            for (obj, model) in objs.iter().zip(&models) {
                assert_matches(obj, model, &at);
            }
            assert_eq!(
                objs[0] == objs[1],
                models[0] == models[1],
                "{at}: equality of two clones"
            );
            let copy = undeclared_copy(guid, &models[i]);
            assert_eq!(objs[i], copy, "{at}: equality across layouts");
            assert_eq!(copy, objs[i], "{at}: equality is symmetric");
        }
        // Clones of one template never share values.
        assert_matches(&blank, &blank_model, &format!("seed {seed}: clone source"));
        assert_eq!(
            rt.heap.get(sibling).unwrap(),
            &blank,
            "seed {seed}: sibling"
        );
        let fresh = rt.allocate_raw_guid(guid).unwrap();
        assert_eq!(rt.heap.get(fresh).unwrap(), &blank, "seed {seed}: template");

        // Both wire forms carry every field, undeclared ones included.
        for (obj, model) in objs.into_iter().zip(&models) {
            let h = rt.heap.alloc(obj);
            let bin = to_binary(&rt, &Value::Obj(h)).unwrap();
            let back = from_binary(&mut rt, &bin).unwrap().as_obj().unwrap();
            assert_matches(
                rt.heap.get(back).unwrap(),
                model,
                &format!("seed {seed}: binary"),
            );
            let xml = to_soap_string(&rt, &Value::Obj(h)).unwrap();
            let back = from_soap_string(&mut rt, &xml).unwrap().as_obj().unwrap();
            assert_matches(
                rt.heap.get(back).unwrap(),
                model,
                &format!("seed {seed}: soap"),
            );
        }
    }
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// A payload naming 10k fields the type does not declare, in descending
/// order (the worst order for a sorted insert), decodes to exactly those
/// fields plus the declared ones, in name order.
#[test]
fn ten_thousand_undeclared_names_decode() {
    const N: u64 = 10_000;
    let (mut rt, guid) = runtime();
    let mut payload = b"PTIB\x01".to_vec();
    payload.push(8); // OBJDEF
    put_varint(&mut payload, 1);
    payload.extend_from_slice(&guid.to_bytes());
    put_varint(&mut payload, N);
    let mut model: BTreeMap<String, Value> = {
        let h = rt.allocate_raw_guid(guid).unwrap();
        model_of(rt.heap.get(h).unwrap())
    };
    for i in (0..N).rev() {
        let name = format!("u{i:05}");
        put_varint(&mut payload, name.len() as u64);
        payload.extend_from_slice(name.as_bytes());
        payload.push(3); // I32, zigzag varint
        put_varint(&mut payload, i * 2);
        model.insert(name, Value::I32(i as i32));
    }
    let h: ObjHandle = from_binary(&mut rt, &payload).unwrap().as_obj().unwrap();
    let obj = rt.heap.get(h).unwrap();
    assert_eq!(obj.fields.len(), N as usize + DECLARED.len());
    assert_matches(obj, &model, "10k undeclared");
}
