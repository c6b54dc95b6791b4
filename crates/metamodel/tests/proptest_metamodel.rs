//! Property tests for the metamodel substrate: the heap against a model,
//! GUID parsing, registry invariants, and runtime robustness.
//!
//! Each property runs over cases drawn from a seeded SplitMix64 stream,
//! so a failure names the case that reproduces it.

use std::collections::HashMap;

use pti_metamodel::{DynObject, Guid, Heap, ParamDef, Runtime, TypeDef, TypeName, Value};

const CASES: u64 = 256;

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

    /// `len` characters, each drawn from `alphabet`.
    fn string(&mut self, alphabet: &[u8], len: u64) -> String {
        (0..len)
            .map(|_| char::from(alphabet[self.below(alphabet.len() as u64) as usize]))
            .collect()
    }

    /// 0 to `max` printable characters: mostly ASCII (so the text often
    /// looks like a GUID or an identifier), plus Greek, CJK and
    /// characters outside the Basic Multilingual Plane.
    fn printable(&mut self, max: u64) -> String {
        (0..self.below(max + 1))
            .map(|_| {
                let (base, span) = match self.below(8) {
                    0 => (0x3B1, 25),
                    1 => (0x4E00, 64),
                    2 => (0x1F600, 32),
                    _ => (0x20, 95),
                };
                char::from_u32(base + self.below(span) as u32).unwrap()
            })
            .collect()
    }
}

const ALNUM: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";

// ---------------------------------------------------------------------
// Heap vs a HashMap model
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum HeapOp {
    Alloc(u8),
    Free(usize),
    Get(usize),
    Mutate(usize, u8),
}

/// Up to 63 operations; the indices reach past the handles allocated so
/// far, so some operations name no handle at all.
fn ops(rng: &mut SplitMix64) -> Vec<HeapOp> {
    (0..rng.below(64))
        .map(|_| {
            let (i, v) = (rng.below(32) as usize, rng.below(256) as u8);
            match rng.below(4) {
                0 => HeapOp::Alloc(v),
                1 => HeapOp::Free(i),
                2 => HeapOp::Get(i),
                _ => HeapOp::Mutate(i, v),
            }
        })
        .collect()
}

/// The generational heap behaves exactly like a map keyed by live
/// handles: frees invalidate, reuse never aliases, reads see writes.
#[test]
fn heap_matches_model() {
    for seed in 0..CASES {
        let mut heap = Heap::new();
        let mut model: HashMap<usize, u8> = HashMap::new();
        let mut handles = Vec::new();
        let guid = Guid::derive("M", "model");
        for (step, op) in ops(&mut SplitMix64(seed)).into_iter().enumerate() {
            let at = format!("seed {seed}, step {step}: {op:?}");
            match op {
                HeapOp::Alloc(tag) => {
                    let mut o = DynObject::new(guid);
                    o.set("tag", Value::I32(i32::from(tag)));
                    handles.push(heap.alloc(o));
                    model.insert(handles.len() - 1, tag);
                }
                HeapOp::Free(i) => {
                    if let Some(h) = handles.get(i).copied() {
                        assert_eq!(heap.free(h).is_ok(), model.contains_key(&i), "{at}");
                        model.remove(&i);
                    }
                }
                HeapOp::Get(i) => {
                    if let Some(h) = handles.get(i).copied() {
                        match model.get(&i) {
                            Some(tag) => {
                                let got = heap.get(h).expect("live");
                                assert_eq!(
                                    got.get("tag").unwrap().as_i32().unwrap(),
                                    i32::from(*tag),
                                    "{at}"
                                );
                            }
                            None => assert!(heap.get(h).is_err(), "{at}: stale handle"),
                        }
                    }
                }
                HeapOp::Mutate(i, v) => {
                    if let Some(h) = handles.get(i).copied() {
                        if let Some(tag) = model.get_mut(&i) {
                            heap.get_mut(h)
                                .unwrap()
                                .set("tag", Value::I32(i32::from(v)));
                            *tag = v;
                        } else {
                            assert!(heap.get_mut(h).is_err(), "{at}");
                        }
                    }
                }
            }
            assert_eq!(heap.len(), model.len(), "{at}");
        }
    }
}

// ---------------------------------------------------------------------
// GUIDs
// ---------------------------------------------------------------------

#[test]
fn guid_display_parse_roundtrip() {
    for seed in 0..CASES {
        let mut rng = SplitMix64(seed);
        let g = Guid(u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64()));
        assert_eq!(g.to_string().parse::<Guid>().unwrap(), g, "seed {seed}");
        assert_eq!(Guid::from_bytes(g.to_bytes()), g, "seed {seed}");
    }
}

/// Arbitrary text, and GUID text cut short or with one character
/// replaced: parsing answers each, `Ok` or `Err`, without panicking.
#[test]
fn guid_parse_never_panics() {
    for seed in 0..CASES {
        let mut rng = SplitMix64(seed);
        let _ = rng.printable(40).parse::<Guid>();
        let text: Vec<char> = Guid(u128::from(rng.next_u64()))
            .to_string()
            .chars()
            .collect();
        let cut = rng.below(text.len() as u64) as usize;
        let _ = text[..cut].iter().collect::<String>().parse::<Guid>();
        let mut flipped = text.clone();
        flipped[cut] = rng.printable(1).chars().next().unwrap_or('é');
        let _ = flipped.into_iter().collect::<String>().parse::<Guid>();
    }
}

#[test]
fn guid_derivation_injective_in_practice() {
    // Not a theorem (it's a hash), but collisions on short names would
    // break the whole identity story — catch regressions.
    const NAME: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789.";
    for seed in 0..CASES {
        let mut rng = SplitMix64(seed);
        let mut name = || {
            let len = 1 + rng.below(20);
            rng.string(NAME, len)
        };
        let (a, b) = (name(), name());
        if a == b {
            continue;
        }
        assert_ne!(
            Guid::derive(&a, "s"),
            Guid::derive(&b, "s"),
            "seed {seed}: {a:?} {b:?}"
        );
    }
}

// ---------------------------------------------------------------------
// Registry + runtime robustness
// ---------------------------------------------------------------------

#[test]
fn registry_resolution_case_insensitive() {
    for seed in 0..CASES {
        let mut rng = SplitMix64(seed);
        let mut name = rng.string(&ALNUM[..52], 1);
        let len = rng.below(13);
        name.push_str(&rng.string(ALNUM, len));
        if pti_metamodel::primitives::is_builtin(&TypeName::new(name.clone())) {
            continue;
        }
        let mut rt = Runtime::new();
        let def = TypeDef::class(name.clone(), "prop").ctor(vec![]).build();
        rt.register_type(def.clone()).unwrap();
        let upper = TypeName::new(name.to_uppercase());
        let lower = TypeName::new(name.to_lowercase());
        assert_eq!(
            rt.registry.resolve(&upper).unwrap().guid,
            def.guid,
            "seed {seed}: {name}"
        );
        assert_eq!(
            rt.registry.resolve(&lower).unwrap().guid,
            def.guid,
            "seed {seed}: {name}"
        );
    }
}

#[test]
fn invoke_arbitrary_method_names_never_panics() {
    for seed in 0..CASES {
        let m = SplitMix64(seed).printable(16);
        let mut rt = Runtime::new();
        let def = TypeDef::class("T", "prop")
            .method("real", vec![], pti_metamodel::primitives::VOID)
            .ctor(vec![])
            .build();
        rt.register_type(def).unwrap();
        let h = rt.instantiate(&"T".into(), &[]).unwrap();
        let _ = rt.invoke(h, &m, &[]);
        let _ = rt.get_field(h, &m);
        let _ = rt.set_field(h, &m, Value::Null);
    }
}

#[test]
fn instantiate_with_wrong_arity_never_panics() {
    for n in 0usize..6 {
        let mut rt = Runtime::new();
        let def = TypeDef::class("T", "prop")
            .ctor(vec![ParamDef::new("a", pti_metamodel::primitives::INT32)])
            .build();
        rt.register_type(def).unwrap();
        let args = vec![Value::I32(1); n];
        let r = rt.instantiate(&"T".into(), &args);
        assert_eq!(r.is_ok(), n == 1, "{n} arguments");
    }
}
