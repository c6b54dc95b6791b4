//! Rule-by-rule tests of the implicit structural conformance checker
//! against the aspects of Figure 2 in the paper.

use std::sync::Arc;

use pti_conformance::{
    Ambiguity, Aspect, CacheStats, Conformance, ConformanceChecker, ConformanceConfig, Contract,
    NameMatcher, Reason, Unresolved, Variance,
};
use pti_metamodel::{
    primitives, DescriptionProvider, ParamDef, TypeDef, TypeDescription, TypeRegistry,
};

fn desc(def: &TypeDef) -> TypeDescription {
    TypeDescription::from_def(def)
}

fn reg(defs: &[&TypeDef]) -> TypeRegistry {
    let mut r = TypeRegistry::with_builtins();
    for d in defs {
        r.register((*d).clone()).unwrap();
    }
    r
}

fn paper() -> ConformanceChecker {
    ConformanceChecker::new(ConformanceConfig::paper())
}

// ---------------------------------------------------------------------
// Identity, equivalence, explicit routes (rule vi alternatives)
// ---------------------------------------------------------------------

#[test]
fn identical_types_conform_trivially() {
    let t = TypeDef::class("Person", "v")
        .field("name", primitives::STRING)
        .build();
    let r = reg(&[&t]);
    let c = paper().check(&desc(&t), &desc(&t), &r, &r).unwrap();
    assert_eq!(c, Conformance::Identical);
}

#[test]
fn equivalent_types_conform() {
    // Same structure, different publishers (different GUIDs).
    let mk = |salt: &str| {
        TypeDef::class("Person", salt)
            .field("name", primitives::STRING)
            .method("getName", vec![], primitives::STRING)
            .build()
    };
    let a = mk("vendor-a");
    let b = mk("vendor-b");
    assert_ne!(a.guid, b.guid);
    let r = reg(&[&a, &b]);
    let c = paper().check(&desc(&b), &desc(&a), &r, &r).unwrap();
    assert_eq!(c, Conformance::Equivalent);
}

#[test]
fn explicit_subtype_conforms_regardless_of_structure() {
    // Employee extends Person nominally; its extra/renamed members are
    // irrelevant for the explicit route.
    let person = TypeDef::class("Person", "v")
        .field("name", primitives::STRING)
        .method("getName", vec![], primitives::STRING)
        .build();
    let employee = TypeDef::class("Employee", "v")
        .extends("Person")
        .field("salary", primitives::INT64)
        .method(
            "raise",
            vec![ParamDef::new("by", primitives::INT64)],
            primitives::VOID,
        )
        .build();
    let r = reg(&[&person, &employee]);
    let c = paper()
        .check(&desc(&employee), &desc(&person), &r, &r)
        .unwrap();
    assert_eq!(c, Conformance::Explicit);
}

#[test]
fn explicit_subtype_via_interface_chain() {
    let inamed = TypeDef::interface("INamed", "v")
        .method("getName", vec![], primitives::STRING)
        .build();
    let iworker = TypeDef::interface("IWorker", "v")
        .implements("INamed")
        .build();
    let clerk = TypeDef::class("Clerk", "v").implements("IWorker").build();
    let r = reg(&[&inamed, &iworker, &clerk]);
    let c = paper()
        .check(&desc(&clerk), &desc(&inamed), &r, &r)
        .unwrap();
    assert_eq!(c, Conformance::Explicit, "transitively via IWorker");
}

// ---------------------------------------------------------------------
// Aspect (i): name conformance
// ---------------------------------------------------------------------

#[test]
fn name_matching_is_case_insensitive() {
    let a = TypeDef::class("PERSON", "a")
        .field("name", primitives::STRING)
        .build();
    let b = TypeDef::class("person", "b")
        .field("name", primitives::STRING)
        .build();
    let r = reg(&[&a, &b]);
    assert!(paper().conforms(&desc(&b), &desc(&a), &r, &r));
}

#[test]
fn different_names_fail_under_paper_rules() {
    let a = TypeDef::class("Person", "a").build();
    let b = TypeDef::class("Human", "b").build();
    let r = reg(&[&a, &b]);
    let err = paper().check(&desc(&b), &desc(&a), &r, &r).unwrap_err();
    assert!(err
        .reasons
        .iter()
        .any(|x| matches!(x, Reason::NameMismatch { .. })));
}

#[test]
fn namespaces_do_not_block_simple_name_match() {
    let a = TypeDef::class("Acme.Person", "a")
        .field("name", primitives::STRING)
        .build();
    let b = TypeDef::class("Globex.Person", "b")
        .field("name", primitives::STRING)
        .build();
    let r = reg(&[&a, &b]);
    assert!(paper().conforms(&desc(&b), &desc(&a), &r, &r));
}

#[test]
fn wildcard_type_names() {
    let cfg = ConformanceConfig::paper().with_type_names(NameMatcher::Wildcard);
    let a = TypeDef::class("Person*", "a").build(); // pattern as type of interest
    let b = TypeDef::class("PersonV2", "b").build();
    let r = reg(&[&b]);
    assert!(ConformanceChecker::new(cfg).conforms(&desc(&b), &desc(&a), &r, &r));
}

#[test]
fn levenshtein_type_names() {
    let cfg = ConformanceConfig::paper().with_type_names(NameMatcher::Levenshtein(1));
    let a = TypeDef::class("Color", "a").build();
    let b = TypeDef::class("Colour", "b").build();
    let r = reg(&[&a, &b]);
    assert!(ConformanceChecker::new(cfg).conforms(&desc(&b), &desc(&a), &r, &r));
    assert!(
        !paper().conforms(&desc(&b), &desc(&a), &r, &r),
        "paper rule: LD must be 0"
    );
}

// ---------------------------------------------------------------------
// Aspect (ii): fields
// ---------------------------------------------------------------------

#[test]
fn missing_field_fails() {
    let a = TypeDef::class("P", "a")
        .field("name", primitives::STRING)
        .field("age", primitives::INT32)
        .build();
    let b = TypeDef::class("P", "b")
        .field("name", primitives::STRING)
        .build();
    let r = reg(&[&a, &b]);
    let err = paper().check(&desc(&b), &desc(&a), &r, &r).unwrap_err();
    assert!(err.reasons.iter().any(
        |x| matches!(x, Reason::MissingMember { aspect: Aspect::Fields, member } if member.contains("age"))
    ));
}

#[test]
fn extra_source_fields_are_fine() {
    let a = TypeDef::class("P", "a")
        .field("name", primitives::STRING)
        .build();
    let b = TypeDef::class("P", "b")
        .field("name", primitives::STRING)
        .field("age", primitives::INT32)
        .build();
    let r = reg(&[&a, &b]);
    assert!(paper().conforms(&desc(&b), &desc(&a), &r, &r));
}

#[test]
fn field_type_must_conform_not_just_name() {
    let a = TypeDef::class("P", "a")
        .field("age", primitives::INT32)
        .build();
    let b = TypeDef::class("P", "b")
        .field("age", primitives::STRING)
        .build();
    let r = reg(&[&a, &b]);
    assert!(!paper().conforms(&desc(&b), &desc(&a), &r, &r));
}

#[test]
fn field_of_user_type_recurses_structurally() {
    // P has a field of type Address; the two Address types conform
    // structurally, so the P types do too.
    let addr_a = TypeDef::class("Address", "a")
        .field("street", primitives::STRING)
        .build();
    let addr_b = TypeDef::class("Address", "b")
        .field("street", primitives::STRING)
        .build();
    let pa = TypeDef::class("P", "a").field("home", "Address").build();
    let pb = TypeDef::class("P", "b").field("home", "Address").build();
    let ra = reg(&[&addr_a, &pa]);
    let rb = reg(&[&addr_b, &pb]);
    assert!(paper().conforms(&desc(&pb), &desc(&pa), &rb, &ra));
}

#[test]
fn field_of_nonconforming_user_type_fails() {
    let addr_a = TypeDef::class("Address", "a")
        .field("street", primitives::STRING)
        .field("zip", primitives::INT32)
        .build();
    let addr_b = TypeDef::class("Address", "b")
        .field("street", primitives::STRING)
        .build();
    let pa = TypeDef::class("P", "a").field("home", "Address").build();
    let pb = TypeDef::class("P", "b").field("home", "Address").build();
    let ra = reg(&[&addr_a, &pa]);
    let rb = reg(&[&addr_b, &pb]);
    assert!(
        !paper().conforms(&desc(&pb), &desc(&pa), &rb, &ra),
        "vendor-b Address lacks zip, so P fields cannot conform"
    );
}

#[test]
fn array_fields_conform_elementwise() {
    let a = TypeDef::class("P", "a").field("tags", "String[]").build();
    let b = TypeDef::class("P", "b").field("tags", "String[]").build();
    let c = TypeDef::class("P", "c").field("tags", "Int32[]").build();
    let r = reg(&[&a, &b, &c]);
    assert!(paper().conforms(&desc(&b), &desc(&a), &r, &r));
    assert!(!paper().conforms(&desc(&c), &desc(&a), &r, &r));
}

// ---------------------------------------------------------------------
// Aspect (iii): supertypes
// ---------------------------------------------------------------------

#[test]
fn supertype_must_conform() {
    let base_a = TypeDef::class("Base", "a")
        .field("x", primitives::INT32)
        .build();
    let base_b = TypeDef::class("Base", "b")
        .field("x", primitives::INT32)
        .build();
    let da = TypeDef::class("D", "a").extends("Base").build();
    let db = TypeDef::class("D", "b").extends("Base").build();
    let ra = reg(&[&base_a, &da]);
    let rb = reg(&[&base_b, &db]);
    assert!(paper().conforms(&desc(&db), &desc(&da), &rb, &ra));
}

#[test]
fn nonconforming_supertype_fails() {
    let base_a = TypeDef::class("Base", "a")
        .field("x", primitives::INT32)
        .build();
    let base_b = TypeDef::class("Basis", "b")
        .field("x", primitives::INT32)
        .build();
    let da = TypeDef::class("D", "a").extends("Base").build();
    let db = TypeDef::class("D", "b").extends("Basis").build();
    let ra = reg(&[&base_a, &da]);
    let rb = reg(&[&base_b, &db]);
    let err = paper().check(&desc(&db), &desc(&da), &rb, &ra).unwrap_err();
    assert!(err
        .reasons
        .iter()
        .any(|x| matches!(x, Reason::SupertypeMismatch { .. })));
}

#[test]
fn object_superclass_is_trivially_satisfied() {
    // Both default to extending Object; no supertype reason appears.
    let a = TypeDef::class("P", "a").build();
    let b = TypeDef::class("P", "b").build();
    let r = reg(&[&a, &b]);
    assert!(paper().conforms(&desc(&b), &desc(&a), &r, &r));
}

#[test]
fn required_interface_must_be_offered() {
    let iser_a = TypeDef::interface("ISerial", "a")
        .method("serialize", vec![], primitives::STRING)
        .build();
    let iser_b = TypeDef::interface("ISerial", "b")
        .method("serialize", vec![], primitives::STRING)
        .build();
    let pa = TypeDef::class("P", "a").implements("ISerial").build();
    let pb_with = TypeDef::class("P", "b").implements("ISerial").build();
    let pb_without = TypeDef::class("P", "b2").build();
    let ra = reg(&[&iser_a, &pa]);
    let rb = reg(&[&iser_b, &pb_with, &pb_without]);
    assert!(paper().conforms(&desc(&pb_with), &desc(&pa), &rb, &ra));
    let err = paper()
        .check(&desc(&pb_without), &desc(&pa), &rb, &ra)
        .unwrap_err();
    assert!(err
        .reasons
        .iter()
        .any(|x| matches!(x, Reason::SupertypeMismatch { .. })));
}

// ---------------------------------------------------------------------
// Aspect (iv): methods
// ---------------------------------------------------------------------

fn person_pair() -> (TypeDef, TypeDef) {
    let a = TypeDef::class("Person", "a")
        .field("name", primitives::STRING)
        .method("getName", vec![], primitives::STRING)
        .method(
            "setName",
            vec![ParamDef::new("n", primitives::STRING)],
            primitives::VOID,
        )
        .build();
    let b = TypeDef::class("Person", "b")
        .field("name", primitives::STRING)
        .method("getPersonName", vec![], primitives::STRING)
        .method(
            "setPersonName",
            vec![ParamDef::new("n", primitives::STRING)],
            primitives::VOID,
        )
        .build();
    (a, b)
}

#[test]
fn paper_exact_names_reject_renamed_methods() {
    let (a, b) = person_pair();
    let r = reg(&[&a, &b]);
    assert!(
        !paper().conforms(&desc(&b), &desc(&a), &r, &r),
        "the strict printed rule requires LD=0 on method names"
    );
}

#[test]
fn pragmatic_profile_accepts_the_motivating_example() {
    // Paper Section 3.1: setName/getName vs setPersonName/getPersonName.
    let (a, b) = person_pair();
    let r = reg(&[&a, &b]);
    let checker = ConformanceChecker::new(ConformanceConfig::pragmatic());
    let c = checker.check(&desc(&b), &desc(&a), &r, &r).unwrap();
    let binding = c.binding(&desc(&a));
    assert_eq!(
        binding.method("getName", 0).unwrap().actual_name,
        "getPersonName"
    );
    assert_eq!(
        binding.method("setName", 1).unwrap().actual_name,
        "setPersonName"
    );
}

#[test]
fn return_type_must_conform() {
    let a = TypeDef::class("P", "a")
        .method("get", vec![], primitives::STRING)
        .build();
    let b = TypeDef::class("P", "b")
        .method("get", vec![], primitives::INT32)
        .build();
    let r = reg(&[&a, &b]);
    let err = paper().check(&desc(&b), &desc(&a), &r, &r).unwrap_err();
    assert!(err.reasons.iter().any(|x| matches!(
        x,
        Reason::MissingMember {
            aspect: Aspect::Methods,
            ..
        }
    )));
}

#[test]
fn arity_must_match() {
    let a = TypeDef::class("P", "a")
        .method(
            "f",
            vec![ParamDef::new("x", primitives::INT32)],
            primitives::VOID,
        )
        .build();
    let b = TypeDef::class("P", "b")
        .method(
            "f",
            vec![
                ParamDef::new("x", primitives::INT32),
                ParamDef::new("y", primitives::INT32),
            ],
            primitives::VOID,
        )
        .build();
    let r = reg(&[&a, &b]);
    assert!(!paper().conforms(&desc(&b), &desc(&a), &r, &r));
}

#[test]
fn argument_permutations_are_found() {
    // f(String, Int32) matched by f(Int32, String) under permutation.
    let a = TypeDef::class("P", "a")
        .method(
            "f",
            vec![
                ParamDef::new("s", primitives::STRING),
                ParamDef::new("i", primitives::INT32),
            ],
            primitives::VOID,
        )
        .build();
    let b = TypeDef::class("P", "b")
        .method(
            "f",
            vec![
                ParamDef::new("i", primitives::INT32),
                ParamDef::new("s", primitives::STRING),
            ],
            primitives::VOID,
        )
        .build();
    let r = reg(&[&a, &b]);
    let c = paper().check(&desc(&b), &desc(&a), &r, &r).unwrap();
    let binding = c.binding(&desc(&a));
    let m = binding.method("f", 2).unwrap();
    assert_eq!(m.perm, vec![1, 0], "caller's String goes to actual slot 1");
    assert_eq!(m.reorder(&["hello", "42"]), vec!["42", "hello"]);
}

#[test]
fn identity_permutation_preferred_when_types_repeat() {
    let a = TypeDef::class("P", "a")
        .method(
            "f",
            vec![
                ParamDef::new("x", primitives::INT32),
                ParamDef::new("y", primitives::INT32),
            ],
            primitives::VOID,
        )
        .build();
    let b = TypeDef::class("P", "b")
        .method(
            "f",
            vec![
                ParamDef::new("y", primitives::INT32),
                ParamDef::new("x", primitives::INT32),
            ],
            primitives::VOID,
        )
        .build();
    let r = reg(&[&a, &b]);
    let c = paper().check(&desc(&b), &desc(&a), &r, &r).unwrap();
    let m = c.binding(&desc(&a)).method("f", 2).unwrap().clone();
    assert_eq!(m.perm, vec![0, 1]);
}

#[test]
fn modifiers_must_match_by_default() {
    use pti_metamodel::{MethodSig, Modifiers};
    let mut sig_static = MethodSig::new("f", vec![], primitives::VOID);
    sig_static.modifiers = Modifiers::PUBLIC | Modifiers::STATIC;
    let a = TypeDef::class("P", "a")
        .method("f", vec![], primitives::VOID)
        .build();
    let b = TypeDef::class("P", "b").method_with(sig_static).build();
    let r = reg(&[&a, &b]);
    assert!(!paper().conforms(&desc(&b), &desc(&a), &r, &r));
    let lax = ConformanceConfig {
        ignore_modifiers: true,
        ..ConformanceConfig::paper()
    };
    assert!(ConformanceChecker::new(lax).conforms(&desc(&b), &desc(&a), &r, &r));
}

#[test]
fn extra_source_methods_are_fine() {
    let a = TypeDef::class("P", "a")
        .method("f", vec![], primitives::VOID)
        .build();
    let b = TypeDef::class("P", "b")
        .method("f", vec![], primitives::VOID)
        .method("g", vec![], primitives::VOID)
        .build();
    let r = reg(&[&a, &b]);
    assert!(paper().conforms(&desc(&b), &desc(&a), &r, &r));
}

#[test]
fn inherited_members_satisfy_requirements() {
    // Source declares getName on its superclass; flattening finds it.
    let base = TypeDef::class("NamedBase", "b")
        .field("name", primitives::STRING)
        .method("getName", vec![], primitives::STRING)
        .build();
    let sub = TypeDef::class("Person", "b").extends("NamedBase").build();
    let want = TypeDef::class("Person", "a")
        .field("name", primitives::STRING)
        .method("getName", vec![], primitives::STRING)
        .build();
    let rb = reg(&[&base, &sub]);
    let ra = reg(&[&want]);
    assert!(paper().conforms(&desc(&sub), &desc(&want), &rb, &ra));
}

// ---------------------------------------------------------------------
// Aspect (v): constructors
// ---------------------------------------------------------------------

#[test]
fn constructor_arity_and_types_checked() {
    let a = TypeDef::class("P", "a")
        .ctor(vec![ParamDef::new("n", primitives::STRING)])
        .build();
    let b_ok = TypeDef::class("P", "b")
        .ctor(vec![ParamDef::new("nom", primitives::STRING)])
        .build();
    let b_bad = TypeDef::class("P", "b2")
        .ctor(vec![ParamDef::new("n", primitives::INT32)])
        .build();
    let r = reg(&[&a, &b_ok, &b_bad]);
    assert!(paper().conforms(&desc(&b_ok), &desc(&a), &r, &r));
    let err = paper().check(&desc(&b_bad), &desc(&a), &r, &r).unwrap_err();
    assert!(err.reasons.iter().any(|x| matches!(
        x,
        Reason::MissingMember {
            aspect: Aspect::Constructors,
            ..
        }
    )));
}

#[test]
fn constructor_permutation_recorded() {
    let a = TypeDef::class("P", "a")
        .ctor(vec![
            ParamDef::new("s", primitives::STRING),
            ParamDef::new("i", primitives::INT32),
        ])
        .build();
    let b = TypeDef::class("P", "b")
        .ctor(vec![
            ParamDef::new("i", primitives::INT32),
            ParamDef::new("s", primitives::STRING),
        ])
        .build();
    let r = reg(&[&a, &b]);
    let c = paper().check(&desc(&b), &desc(&a), &r, &r).unwrap();
    let binding = c.binding(&desc(&a));
    assert_eq!(binding.constructors[0].perm, vec![1, 0]);
}

// ---------------------------------------------------------------------
// Variance (D2) and ambiguity (D3)
// ---------------------------------------------------------------------

#[test]
fn covariant_vs_strict_argument_variance() {
    // Expected: f(Animal). Source offers f(Cat) where Cat ≼IS Animal.
    // Paper (covariant) accepts; strict (contravariant) rejects.
    let animal_t = TypeDef::class("Animal", "t")
        .field("legs", primitives::INT32)
        .build();
    let animal_s = TypeDef::class("Animal", "s")
        .field("legs", primitives::INT32)
        .build();
    let cat_s = TypeDef::class("Cat", "s")
        .field("legs", primitives::INT32)
        .field("lives", primitives::INT32)
        .build();
    let want = TypeDef::class("Shelter", "t")
        .method(
            "admit",
            vec![ParamDef::new("a", "Animal")],
            primitives::VOID,
        )
        .build();
    let have = TypeDef::class("Shelter", "s")
        .method("admit", vec![ParamDef::new("c", "Cat")], primitives::VOID)
        .build();
    let rt = reg(&[&animal_t, &want]);
    let rs = reg(&[&animal_s, &cat_s, &have]);

    // Covariant: Cat ≼ Animal must hold → but Cat's *name* differs from
    // Animal, so under paper rules name conformance fails; use a name-
    // relaxed config to isolate the variance axis.
    let cov = ConformanceConfig::paper().with_type_names(NameMatcher::Levenshtein(6));
    assert!(ConformanceChecker::new(cov.clone()).conforms(&desc(&have), &desc(&want), &rs, &rt));
    let strict = cov.with_variance(Variance::Strict);
    assert!(
        !ConformanceChecker::new(strict).conforms(&desc(&have), &desc(&want), &rs, &rt),
        "strict needs Animal ≼ Cat, which fails (Cat has an extra field)"
    );
}

#[test]
fn ambiguity_error_mode_reports_candidates() {
    let cfg = ConformanceConfig::pragmatic().with_ambiguity(Ambiguity::Error);
    let a = TypeDef::class("P", "a")
        .method("getName", vec![], primitives::STRING)
        .build();
    let b = TypeDef::class("P", "b")
        .method("getName", vec![], primitives::STRING)
        .method("getPersonName", vec![], primitives::STRING)
        .build();
    let r = reg(&[&a, &b]);
    let err = ConformanceChecker::new(cfg)
        .check(&desc(&b), &desc(&a), &r, &r)
        .unwrap_err();
    assert!(err
        .reasons
        .iter()
        .any(|x| matches!(x, Reason::AmbiguousMember { candidates, .. } if candidates.len() == 2)));
}

#[test]
fn ambiguity_best_name_picks_closest() {
    let cfg = ConformanceConfig::pragmatic().with_ambiguity(Ambiguity::BestName);
    let a = TypeDef::class("P", "a")
        .method("getName", vec![], primitives::STRING)
        .build();
    let b = TypeDef::class("P", "b")
        .method("getPersonName", vec![], primitives::STRING)
        .method("getName", vec![], primitives::STRING)
        .build();
    let r = reg(&[&a, &b]);
    let c = ConformanceChecker::new(cfg)
        .check(&desc(&b), &desc(&a), &r, &r)
        .unwrap();
    assert_eq!(
        c.binding(&desc(&a))
            .method("getName", 0)
            .unwrap()
            .actual_name,
        "getName",
        "exact name outranks the longer token match"
    );
}

#[test]
fn ambiguity_first_takes_declaration_order() {
    let cfg = ConformanceConfig::pragmatic(); // Ambiguity::First
    let a = TypeDef::class("P", "a")
        .method("getName", vec![], primitives::STRING)
        .build();
    let b = TypeDef::class("P", "b")
        .method("getPersonName", vec![], primitives::STRING)
        .method("getName", vec![], primitives::STRING)
        .build();
    let r = reg(&[&a, &b]);
    let c = ConformanceChecker::new(cfg)
        .check(&desc(&b), &desc(&a), &r, &r)
        .unwrap();
    assert_eq!(
        c.binding(&desc(&a))
            .method("getName", 0)
            .unwrap()
            .actual_name,
        "getPersonName"
    );
}

// ---------------------------------------------------------------------
// Recursion, caching, unresolved references
// ---------------------------------------------------------------------

#[test]
fn recursive_types_conform_coinductively() {
    // Person has a field of type Person (e.g. spouse) on both sides.
    let pa = TypeDef::class("Person", "a")
        .field("spouse", "Person")
        .build();
    let pb = TypeDef::class("Person", "b")
        .field("spouse", "Person")
        .build();
    let ra = reg(&[&pa]);
    let rb = reg(&[&pb]);
    assert!(paper().conforms(&desc(&pb), &desc(&pa), &rb, &ra));
}

#[test]
fn mutually_recursive_types_conform() {
    let na = TypeDef::class("Node", "a").field("edge", "Edge").build();
    let ea = TypeDef::class("Edge", "a").field("node", "Node").build();
    let nb = TypeDef::class("Node", "b").field("edge", "Edge").build();
    let eb = TypeDef::class("Edge", "b").field("node", "Node").build();
    let ra = reg(&[&na, &ea]);
    let rb = reg(&[&nb, &eb]);
    assert!(paper().conforms(&desc(&nb), &desc(&na), &rb, &ra));
}

#[test]
fn recursive_nonconformance_detected() {
    // vendor-b's Node points at an Edge that lacks a field.
    let na = TypeDef::class("Node", "a").field("edge", "Edge").build();
    let ea = TypeDef::class("Edge", "a")
        .field("node", "Node")
        .field("weight", primitives::FLOAT64)
        .build();
    let nb = TypeDef::class("Node", "b").field("edge", "Edge").build();
    let eb = TypeDef::class("Edge", "b").field("node", "Node").build();
    let ra = reg(&[&na, &ea]);
    let rb = reg(&[&nb, &eb]);
    assert!(!paper().conforms(&desc(&nb), &desc(&na), &rb, &ra));
}

#[test]
fn cache_hits_on_repeat_checks() {
    let (a, b) = person_pair();
    let r = reg(&[&a, &b]);
    let checker = ConformanceChecker::new(ConformanceConfig::pragmatic());
    assert!(checker.conforms(&desc(&b), &desc(&a), &r, &r));
    let before = checker.stats();
    assert!(checker.conforms(&desc(&b), &desc(&a), &r, &r));
    let after = checker.stats();
    assert_eq!(after.hits, before.hits + 1);
    assert_eq!(after.misses, before.misses);
}

#[test]
fn uncached_checker_never_hits() {
    let (a, b) = person_pair();
    let r = reg(&[&a, &b]);
    let checker = ConformanceChecker::uncached(ConformanceConfig::pragmatic());
    assert!(checker.conforms(&desc(&b), &desc(&a), &r, &r));
    assert!(checker.conforms(&desc(&b), &desc(&a), &r, &r));
    assert_eq!(checker.stats().hits, 0);
}

#[test]
fn clear_cache_resets_verdicts() {
    let (a, b) = person_pair();
    let r = reg(&[&a, &b]);
    let checker = ConformanceChecker::new(ConformanceConfig::pragmatic());
    assert!(checker.conforms(&desc(&b), &desc(&a), &r, &r));
    checker.clear_cache();
    assert!(checker.conforms(&desc(&b), &desc(&a), &r, &r));
    assert_eq!(checker.stats().hits, 0);
}

#[test]
fn bind_shares_one_contract_per_pair() {
    let (a, b) = person_pair();
    let r = reg(&[&a, &b]);
    let checker = ConformanceChecker::new(ConformanceConfig::pragmatic());
    let first = checker.bind(&desc(&b), &desc(&a), &r, &r).unwrap();
    let before = checker.stats();
    let second = checker.bind(&desc(&b), &desc(&a), &r, &r).unwrap();
    assert!(
        Arc::ptr_eq(&first, &second),
        "a warm bind is a refcount bump"
    );
    assert_eq!(checker.stats().hits, before.hits + 1, "counted like check");
    assert_eq!(checker.stats().misses, before.misses);
    assert_eq!(first.expected().guid, a.guid);
    let verdict = checker.check(&desc(&b), &desc(&a), &r, &r).unwrap();
    assert_eq!(first.conformance(), &verdict, "check reads the same entry");
    assert_eq!(first.binding(), &verdict.binding(&desc(&a)));
    let other = ConformanceChecker::new(ConformanceConfig::pragmatic());
    let shared = other.bind(&desc(&b), &desc(&a), &r, &r).unwrap();
    assert!(
        Arc::ptr_eq(&first, &shared),
        "another checker on this thread shares the equal contract"
    );
    assert_eq!(
        other.stats().misses,
        before.misses,
        "and counts its own miss"
    );
    let uncached = ConformanceChecker::uncached(ConformanceConfig::pragmatic());
    let fresh = uncached.bind(&desc(&b), &desc(&a), &r, &r).unwrap();
    assert!(
        !Arc::ptr_eq(&first, &fresh),
        "an uncached checker builds its own"
    );
    assert_eq!(first, fresh);
}

#[test]
fn bind_caches_identical_pairs_without_counting() {
    let (a, _) = person_pair();
    let r = reg(&[&a]);
    let checker = ConformanceChecker::new(ConformanceConfig::pragmatic());
    let first = checker.bind(&desc(&a), &desc(&a), &r, &r).unwrap();
    let second = checker.bind(&desc(&a), &desc(&a), &r, &r).unwrap();
    assert!(Arc::ptr_eq(&first, &second));
    assert_eq!(first.conformance(), &Conformance::Identical);
    assert!(first.binding().is_identity());
    assert_eq!(checker.stats(), CacheStats::default());
}

#[test]
fn clear_cache_drops_bound_contracts() {
    let (a, b) = person_pair();
    let r = reg(&[&a, &b]);
    let checker = ConformanceChecker::new(ConformanceConfig::pragmatic());
    let before = checker.bind(&desc(&b), &desc(&a), &r, &r).unwrap();
    let expected = Contract::clone(&before);
    let weak = Arc::downgrade(&before);
    checker.clear_cache();
    drop(before);
    assert!(
        weak.upgrade().is_none(),
        "neither the cache nor the thread's contract pool holds it"
    );
    let after = checker.bind(&desc(&b), &desc(&a), &r, &r).unwrap();
    assert_eq!(*after, expected, "rebound to an equal contract");
}

#[test]
fn bind_reports_nonconformance() {
    let (a, _) = person_pair();
    let alien = TypeDef::class("Alien", "x").build();
    let r = reg(&[&a, &alien]);
    let checker = ConformanceChecker::new(ConformanceConfig::pragmatic());
    assert!(checker.bind(&desc(&alien), &desc(&a), &r, &r).is_err());
    assert!(checker.bind(&desc(&alien), &desc(&a), &r, &r).is_err());
    assert_eq!(checker.stats().hits, 1, "a cached rejection is a hit");
}

#[test]
fn unresolved_reference_name_fallback_vs_fail() {
    // Field type "Widget" has no description anywhere.
    let a = TypeDef::class("P", "a").field("w", "Widget").build();
    let b = TypeDef::class("P", "b").field("w", "Widget").build();
    let r = TypeRegistry::with_builtins();
    assert!(
        paper().conforms(&desc(&b), &desc(&a), &r, &r),
        "NameFallback: same name is enough"
    );
    let strictcfg = ConformanceConfig {
        unresolved: Unresolved::Fail,
        ..ConformanceConfig::paper()
    };
    assert!(!ConformanceChecker::new(strictcfg).conforms(&desc(&b), &desc(&a), &r, &r));
}

#[test]
fn primitive_types_conform_only_to_themselves() {
    let r = TypeRegistry::with_builtins();
    let int32 = r.describe(&"Int32".into()).unwrap();
    let int64 = r.describe(&"Int64".into()).unwrap();
    let int32b = r.describe(&"Int32".into()).unwrap();
    assert!(paper().conforms(&int32, &int32b, &r, &r));
    assert!(!paper().conforms(&int64, &int32, &r, &r));
}

#[test]
fn class_satisfies_interface_expectation() {
    let iface = TypeDef::interface("Greeter", "a")
        .method("greet", vec![], primitives::STRING)
        .build();
    let class = TypeDef::class("Greeter", "b")
        .method("greet", vec![], primitives::STRING)
        .build();
    let r = reg(&[&iface, &class]);
    assert!(paper().conforms(&desc(&class), &desc(&iface), &r, &r));
    assert!(
        !paper().conforms(&desc(&iface), &desc(&class), &r, &r),
        "an interface cannot stand in for a class"
    );
}

#[test]
fn nonconformance_report_is_comprehensive() {
    let a = TypeDef::class("P", "a")
        .field("name", primitives::STRING)
        .method("f", vec![], primitives::VOID)
        .ctor(vec![ParamDef::new("n", primitives::STRING)])
        .build();
    let b = TypeDef::class("Q", "b").build();
    let r = reg(&[&a, &b]);
    let err = paper().check(&desc(&b), &desc(&a), &r, &r).unwrap_err();
    // Name, field, method and ctor aspects all fail and all get reported.
    assert!(err.reasons.len() >= 4, "got: {:?}", err.reasons);
    let display = err.to_string();
    assert!(display.contains("does not implicitly structurally conform"));
}
