//! Property tests over the conformance rules: metric axioms for
//! Levenshtein, reflexivity of conformance, explicit-subtype implication,
//! cache agreement, and permutation soundness on generated types.
//!
//! Each property runs over cases drawn from a seeded SplitMix64 stream,
//! so a failure names the case that reproduces it.

use pti_conformance::{
    levenshtein, Conformance, ConformanceChecker, ConformanceConfig, NameMatcher,
};
use pti_metamodel::{primitives, ParamDef, TypeDef, TypeDescription, TypeRegistry};

const CASES: u64 = 256;
/// The generated-type properties build registries and run full checks,
/// so they take fewer cases.
const TYPE_CASES: u64 = 64;

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

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }

    /// `len` characters, each drawn from `alphabet`.
    fn string(&mut self, alphabet: &[u8], len: u64) -> String {
        (0..len).map(|_| char::from(self.pick(alphabet))).collect()
    }

    /// 0 to `max` printable characters: ASCII, Greek, CJK and characters
    /// outside the Basic Multilingual Plane, so edit distances are taken
    /// over characters, not bytes.
    fn printable(&mut self, max: u64) -> String {
        (0..self.below(max + 1))
            .map(|_| {
                let (base, span) =
                    self.pick(&[(0x20, 95), (0x3B1, 25), (0x4E00, 64), (0x1F600, 32)]);
                char::from_u32(base + self.below(span) as u32).unwrap()
            })
            .collect()
    }
}

const LOWER: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
const UPPER: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZ";
const ALNUM: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";

/// `[a-zA-Z][a-zA-Z0-9]{0,12}`.
fn identifier(rng: &mut SplitMix64) -> String {
    let mut s = rng.string(&ALNUM[..52], 1);
    let len = rng.below(13);
    s.push_str(&rng.string(ALNUM, len));
    s
}

/// `[a-z]{2,6}`.
fn member_name(rng: &mut SplitMix64) -> String {
    let len = 2 + rng.below(5);
    rng.string(LOWER, len)
}

// ---------------------------------------------------------------------
// Levenshtein metric axioms
// ---------------------------------------------------------------------

#[test]
fn levenshtein_identity() {
    for seed in 0..CASES {
        let s = SplitMix64(seed).printable(20);
        assert_eq!(levenshtein(&s, &s), 0, "seed {seed}: {s:?}");
    }
}

#[test]
fn levenshtein_symmetry() {
    for seed in 0..CASES {
        let mut rng = SplitMix64(seed);
        let (a, b) = (rng.printable(15), rng.printable(15));
        assert_eq!(
            levenshtein(&a, &b),
            levenshtein(&b, &a),
            "seed {seed}: {a:?} {b:?}"
        );
    }
}

#[test]
fn levenshtein_triangle() {
    for seed in 0..CASES {
        let mut rng = SplitMix64(seed);
        let mut abc = || {
            let len = rng.below(9);
            rng.string(b"abc", len)
        };
        let (a, b, c) = (abc(), abc(), abc());
        assert!(
            levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c),
            "seed {seed}: {a:?} {b:?} {c:?}"
        );
    }
}

#[test]
fn levenshtein_bounded_by_longer() {
    for seed in 0..CASES {
        let mut rng = SplitMix64(seed);
        let (a, b) = (rng.printable(15), rng.printable(15));
        let d = levenshtein(&a, &b);
        let (la, lb) = (a.chars().count(), b.chars().count());
        assert!(d <= la.max(lb), "seed {seed}: {a:?} {b:?}");
        assert!(d >= la.abs_diff(lb), "seed {seed}: {a:?} {b:?}");
    }
}

#[test]
fn wildcard_star_matches_everything() {
    for seed in 0..CASES {
        let mut rng = SplitMix64(seed);
        let len = rng.below(21);
        let s = rng.string(ALNUM, len);
        assert!(NameMatcher::Wildcard.matches("*", &s), "seed {seed}: {s:?}");
    }
}

#[test]
fn exact_match_is_reflexive() {
    for seed in 0..CASES {
        let s = identifier(&mut SplitMix64(seed));
        assert!(NameMatcher::Exact.matches(&s, &s), "seed {seed}: {s:?}");
        assert!(
            NameMatcher::TokenSubsequence.matches(&s, &s),
            "seed {seed}: {s:?}"
        );
        assert!(
            NameMatcher::Levenshtein(0).matches(&s, &s),
            "seed {seed}: {s:?}"
        );
    }
}

// ---------------------------------------------------------------------
// Generated type populations
// ---------------------------------------------------------------------

const PRIMS: [&str; 4] = ["Int32", "Int64", "Float64", "String"];

#[derive(Debug, Clone)]
struct GenType {
    name: String,
    fields: Vec<(String, &'static str)>,
    methods: Vec<(String, Vec<&'static str>, &'static str)>,
}

/// A class named `[A-Z][a-z]{2,6}` with up to three fields and up to
/// three methods of up to two parameters each, over the primitives.
/// Adjacent duplicates are dropped, as the member lists of a real type
/// cannot repeat a field or an overload.
fn gen_type(rng: &mut SplitMix64) -> GenType {
    let mut name = rng.string(UPPER, 1);
    let len = 2 + rng.below(5);
    name.push_str(&rng.string(LOWER, len));
    let mut fields: Vec<_> = (0..rng.below(4))
        .map(|_| (member_name(rng), rng.pick(&PRIMS)))
        .collect();
    let mut methods: Vec<_> = (0..rng.below(4))
        .map(|_| {
            let name = member_name(rng);
            let params: Vec<_> = (0..rng.below(3)).map(|_| rng.pick(&PRIMS)).collect();
            (name, params, rng.pick(&PRIMS))
        })
        .collect();
    fields.dedup_by(|a, b| a.0 == b.0);
    methods.dedup_by(|a, b| a.0 == b.0 && a.1.len() == b.1.len());
    GenType {
        name,
        fields,
        methods,
    }
}

fn build(g: &GenType, salt: &str) -> TypeDef {
    let mut b = TypeDef::class(g.name.clone(), salt);
    for (n, t) in &g.fields {
        b = b.field(n.clone(), *t);
    }
    for (n, params, ret) in &g.methods {
        let ps: Vec<ParamDef> = params
            .iter()
            .enumerate()
            .map(|(i, t)| ParamDef::new(format!("p{i}"), *t))
            .collect();
        b = b.method(n.clone(), ps, *ret);
    }
    b.ctor(vec![]).build()
}

/// A registry holding both types, and their descriptions.
fn register(a: &TypeDef, b: &TypeDef) -> (TypeRegistry, TypeDescription, TypeDescription) {
    let mut r = TypeRegistry::with_builtins();
    r.register(a.clone()).unwrap();
    r.register(b.clone()).unwrap();
    (
        r,
        TypeDescription::from_def(a),
        TypeDescription::from_def(b),
    )
}

/// Any generated type conforms to a fresh same-structure copy from a
/// different publisher (structural reflexivity across identities).
#[test]
fn cross_publisher_reflexivity() {
    for seed in 0..TYPE_CASES {
        let g = gen_type(&mut SplitMix64(seed));
        let (r, da, db) = register(&build(&g, "salt-a"), &build(&g, "salt-b"));
        let checker = ConformanceChecker::new(ConformanceConfig::paper());
        assert!(checker.conforms(&db, &da, &r, &r), "seed {seed}: {g:?}");
    }
}

/// A nominal subtype always conforms (explicit route), whatever its
/// extra structure.
#[test]
fn explicit_subtype_always_conforms() {
    for seed in 0..TYPE_CASES {
        let mut rng = SplitMix64(seed);
        let g = gen_type(&mut rng);
        let extra = member_name(&mut rng);
        let base = build(&g, "v");
        let sub = TypeDef::class(format!("{}Sub", g.name), "v")
            .extends(base.name.clone())
            .field(extra, primitives::INT32)
            .build();
        let (r, dbase, dsub) = register(&base, &sub);
        let checker = ConformanceChecker::new(ConformanceConfig::paper());
        let got = checker.check(&dsub, &dbase, &r, &r);
        assert_eq!(got.unwrap(), Conformance::Explicit, "seed {seed}: {g:?}");
    }
}

/// Cached and uncached checkers agree on every verdict.
#[test]
fn cache_agrees_with_uncached() {
    for seed in 0..TYPE_CASES {
        let mut rng = SplitMix64(seed);
        let (g1, g2) = (gen_type(&mut rng), gen_type(&mut rng));
        let (r, da, db) = register(&build(&g1, "a"), &build(&g2, "b"));
        let cached = ConformanceChecker::new(ConformanceConfig::pragmatic());
        let uncached = ConformanceChecker::uncached(ConformanceConfig::pragmatic());
        // Run twice to exercise the cache-hit path.
        let c1 = cached.conforms(&db, &da, &r, &r);
        let c2 = cached.conforms(&db, &da, &r, &r);
        let u = uncached.conforms(&db, &da, &r, &r);
        assert_eq!(c1, u, "seed {seed}: {g1:?} {g2:?}");
        assert_eq!(c2, u, "seed {seed}: {g1:?} {g2:?}");
    }
}

/// Whenever a check succeeds structurally, the produced permutations
/// really are permutations and the bound methods exist on the source.
#[test]
fn bindings_are_well_formed() {
    for seed in 0..TYPE_CASES {
        let g = gen_type(&mut SplitMix64(seed));
        let (r, da, db) = register(&build(&g, "a"), &build(&g, "b"));
        let checker = ConformanceChecker::uncached(ConformanceConfig::paper());
        let Ok(conf) = checker.check(&db, &da, &r, &r) else {
            continue;
        };
        let binding = conf.binding(&da);
        for m in &binding.methods {
            // perm is a permutation of 0..n
            let mut sorted = m.perm.clone();
            sorted.sort_unstable();
            assert_eq!(
                sorted,
                (0..m.perm.len()).collect::<Vec<_>>(),
                "seed {seed}: {g:?}"
            );
            // the actual method exists on the source with this arity
            assert!(
                db.methods
                    .iter()
                    .any(|sm| sm.name == m.actual_name && sm.params.len() == m.perm.len()),
                "seed {seed}: bound method {} missing on source",
                m.actual_name
            );
        }
        for f in &binding.fields {
            assert!(
                db.fields.iter().any(|sf| sf.name == f.actual_name),
                "seed {seed}: bound field {} missing on source",
                f.actual_name
            );
        }
    }
}

/// Conformance never panics on arbitrary pairs (robustness).
#[test]
fn checker_total_on_generated_pairs() {
    for seed in 0..TYPE_CASES {
        let mut rng = SplitMix64(seed);
        let (g1, g2) = (gen_type(&mut rng), gen_type(&mut rng));
        let (r, da, db) = register(&build(&g1, "a"), &build(&g2, "b"));
        for cfg in [
            ConformanceConfig::paper(),
            ConformanceConfig::pragmatic(),
            ConformanceConfig::strict(),
        ] {
            let _ = ConformanceChecker::new(cfg).check(&db, &da, &r, &r);
        }
    }
}
