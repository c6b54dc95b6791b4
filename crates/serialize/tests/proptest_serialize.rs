//! Property tests for the serializers: arbitrary object graphs (including
//! shared references and cycles) must round-trip through SOAP and binary,
//! and the two formats must agree on the reconstructed state.
//!
//! Each property runs over cases drawn from a seeded SplitMix64 stream,
//! so a failure names the case that reproduces it.

use pti_metamodel::{primitives, Runtime, TypeDef, Value};
use pti_serialize::{from_binary, from_soap_string, to_binary, to_soap_string};

const CASES: u64 = 96;

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

    /// Up to `max` characters drawn from `alphabet`.
    fn string(&mut self, alphabet: &[u8], max: u64) -> String {
        (0..self.below(max + 1))
            .map(|_| char::from(alphabet[self.below(alphabet.len() as u64) as usize]))
            .collect()
    }
}

/// The universe type for generated objects: every field is a generic
/// slot so any generated shape fits.
fn blob_def() -> TypeDef {
    TypeDef::class("Blob", "proptest")
        .field("a", primitives::STRING)
        .field("b", primitives::INT64)
        .field("next", "Blob")
        .field("items", "Blob[]")
        .ctor(vec![])
        .build()
}

fn runtime() -> Runtime {
    let mut rt = Runtime::new();
    rt.register_type(blob_def()).unwrap();
    rt
}

/// A recipe for building a value graph inside a runtime.
#[derive(Debug, Clone)]
enum Recipe {
    Null,
    Bool(bool),
    I32(i32),
    I64(i64),
    F64(f64),
    Str(String),
    Array(Vec<Recipe>),
    Object {
        a: String,
        b: i64,
        next: Box<Recipe>,
        /// Link `next` back to an ancestor (cycle) instead of building
        /// the recipe, when an ancestor exists.
        cyclic: bool,
    },
}

const LOWER: &[u8] = b"abcdefghijklmnopqrstuvwxyz";

/// A leaf, or above depth 0 an array of up to three recipes or an
/// object whose `next` is one.
fn recipe(rng: &mut SplitMix64, depth: u32) -> Recipe {
    let leaves = 6;
    let pick = if depth == 0 {
        rng.below(leaves)
    } else {
        rng.below(leaves + 2)
    };
    match pick {
        0 => Recipe::Null,
        1 => Recipe::Bool(rng.below(2) == 1),
        2 => Recipe::I32(rng.next_u64() as i32),
        3 => Recipe::I64(rng.next_u64() as i64),
        // Finite floats only: NaN breaks Value equality (covered by
        // dedicated unit tests instead).
        4 => Recipe::F64((rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * 2e300 - 1e300),
        5 => Recipe::Str(rng.string(
            b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789<>&\"' ",
            12,
        )),
        6 => Recipe::Array((0..rng.below(4)).map(|_| recipe(rng, depth - 1)).collect()),
        _ => Recipe::Object {
            a: rng.string(LOWER, 8),
            b: rng.next_u64() as i64,
            next: Box::new(recipe(rng, depth - 1)),
            cyclic: rng.below(2) == 1,
        },
    }
}

/// The graph of case `seed`, built in a fresh runtime.
fn graph(seed: u64) -> (Runtime, Value) {
    let mut rng = SplitMix64(seed);
    let depth = rng.below(5) as u32;
    let r = recipe(&mut rng, depth);
    let mut rt = runtime();
    let v = build(&mut rt, &r, &mut Vec::new());
    (rt, v)
}

fn build(
    rt: &mut Runtime,
    recipe: &Recipe,
    ancestors: &mut Vec<pti_metamodel::ObjHandle>,
) -> Value {
    match recipe {
        Recipe::Null => Value::Null,
        Recipe::Bool(v) => Value::Bool(*v),
        Recipe::I32(v) => Value::I32(*v),
        Recipe::I64(v) => Value::I64(*v),
        Recipe::F64(v) => Value::F64(*v),
        Recipe::Str(s) => Value::Str(s.clone()),
        Recipe::Array(items) => {
            Value::Array(items.iter().map(|r| build(rt, r, ancestors)).collect())
        }
        Recipe::Object { a, b, next, cyclic } => {
            let h = rt.instantiate(&"Blob".into(), &[]).unwrap();
            rt.set_field(h, "a", Value::from(a.clone())).unwrap();
            rt.set_field(h, "b", Value::I64(*b)).unwrap();
            ancestors.push(h);
            let next_value = if *cyclic && ancestors.len() > 1 {
                Value::Obj(ancestors[0]) // close a cycle to the root
            } else {
                build(rt, next, ancestors)
            };
            rt.set_field(h, "next", next_value).unwrap();
            ancestors.pop();
            Value::Obj(h)
        }
    }
}

/// Structural equality of two values across (possibly different) heap
/// handles, cycle-safe.
fn deep_eq(
    rt: &Runtime,
    a: &Value,
    b: &Value,
    seen: &mut Vec<(pti_metamodel::ObjHandle, pti_metamodel::ObjHandle)>,
) -> bool {
    match (a, b) {
        (Value::Obj(x), Value::Obj(y)) => {
            if seen.iter().any(|(sx, sy)| sx == x && sy == y) {
                return true; // already being compared (cycle)
            }
            seen.push((*x, *y));
            let (ox, oy) = (rt.heap.get(*x).unwrap(), rt.heap.get(*y).unwrap());
            if ox.type_guid != oy.type_guid || ox.fields.len() != oy.fields.len() {
                return false;
            }
            let fields: Vec<String> = ox.fields.keys().map(str::to_owned).collect();
            fields.iter().all(|k| {
                let (va, vb) = (
                    rt.heap.get(*x).unwrap().get(k).cloned().unwrap(),
                    rt.heap.get(*y).unwrap().get(k).cloned(),
                );
                match vb {
                    Some(vb) => deep_eq(rt, &va, &vb, seen),
                    None => false,
                }
            })
        }
        (Value::Array(xs), Value::Array(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys.iter())
                    .all(|(x, y)| deep_eq(rt, x, y, seen))
        }
        (x, y) => x == y,
    }
}

#[test]
fn soap_roundtrip_preserves_graphs() {
    for seed in 0..CASES {
        let (mut rt, v) = graph(seed);
        let xml = to_soap_string(&rt, &v).unwrap();
        let back = from_soap_string(&mut rt, &xml).unwrap();
        assert!(
            deep_eq(&rt, &v, &back, &mut Vec::new()),
            "seed {seed}: {xml}"
        );
    }
}

#[test]
fn binary_roundtrip_preserves_graphs() {
    for seed in 0..CASES {
        let (mut rt, v) = graph(seed);
        let bytes = to_binary(&rt, &v).unwrap();
        let back = from_binary(&mut rt, &bytes).unwrap();
        assert!(deep_eq(&rt, &v, &back, &mut Vec::new()), "seed {seed}");
    }
}

#[test]
fn formats_agree_on_reconstructed_state() {
    for seed in 0..CASES {
        let (mut rt, v) = graph(seed);
        let xml = to_soap_string(&rt, &v).unwrap();
        let bytes = to_binary(&rt, &v).unwrap();
        let via_soap = from_soap_string(&mut rt, &xml).unwrap();
        let via_bin = from_binary(&mut rt, &bytes).unwrap();
        assert!(
            deep_eq(&rt, &via_soap, &via_bin, &mut Vec::new()),
            "seed {seed}"
        );
    }
}

#[test]
fn binary_never_larger_than_soap_for_objects() {
    for seed in 0..CASES {
        let mut rng = SplitMix64(seed);
        let mut rt = runtime();
        let h = rt.instantiate(&"Blob".into(), &[]).unwrap();
        rt.set_field(h, "a", Value::from(rng.string(LOWER, 16)))
            .unwrap();
        rt.set_field(h, "b", Value::I64(rng.next_u64() as i64))
            .unwrap();
        let soap = to_soap_string(&rt, &Value::Obj(h)).unwrap();
        let bin = to_binary(&rt, &Value::Obj(h)).unwrap();
        assert!(bin.len() < soap.len(), "seed {seed}");
    }
}

/// Random bytes, and an encoded graph cut short or with one byte
/// flipped: the binary decoder answers each without panicking.
#[test]
fn binary_decoder_survives_arbitrary_bytes() {
    for seed in 0..CASES {
        let mut rng = SplitMix64(seed);
        let noise: Vec<u8> = (0..rng.below(200)).map(|_| rng.next_u64() as u8).collect();
        let mut rt = runtime();
        let _ = from_binary(&mut rt, &noise);

        let (mut rt, v) = graph(seed);
        let mut bytes = to_binary(&rt, &v).unwrap();
        let at = rng.below(bytes.len() as u64) as usize;
        let _ = from_binary(&mut rt, &bytes[..at]);
        bytes[at] ^= 1 << rng.below(8);
        let _ = from_binary(&mut rt, &bytes);
    }
}

/// Random text over SOAP's markup characters, and an encoded graph cut
/// short: the SOAP decoder answers each without panicking.
#[test]
fn soap_decoder_survives_arbitrary_text() {
    for seed in 0..CASES {
        let mut rng = SplitMix64(seed);
        let noise = rng.string(b"<>/=\"' &;#abxyzEnvelopeBodyhref1-.\n", 120);
        let mut rt = runtime();
        let _ = from_soap_string(&mut rt, &noise);

        let (mut rt, v) = graph(seed);
        let xml: Vec<char> = to_soap_string(&rt, &v).unwrap().chars().collect();
        let cut = rng.below(xml.len() as u64) as usize;
        let _ = from_soap_string(&mut rt, &xml[..cut].iter().collect::<String>());
    }
}
