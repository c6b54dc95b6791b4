//! # pti-conformance — implicit structural type conformance
//!
//! The core contribution of *Pragmatic Type Interoperability* (ICDCS
//! 2003): a rule system deciding whether a type `T'` received from a
//! remote peer can be used wherever a locally expected type `T` is
//! required, even though the two were written by different programmers
//! with different names, members or hierarchies.
//!
//! The paper's Figure 2 defines `T' ≼IS T` as the conjunction of five
//! aspects — **name**, **fields**, **supertypes**, **methods** (with
//! argument permutations) and **constructors** — with *equivalence* and
//! *explicit* (nominal) conformance as alternative routes. This crate
//! implements those rules verbatim ([`ConformanceConfig::paper`]), plus
//! the generalizations the paper gestures at (wildcards, relaxed
//! Levenshtein thresholds, token matching) and two configuration axes the
//! paper leaves open (argument variance, ambiguity resolution).
//!
//! A successful check yields a [`ConformanceBinding`] — the translation
//! table dynamic proxies use to invoke the received object.
//! [`ConformanceChecker::bind`] returns it inside the verdict cache's
//! shared [`Contract`] for the pair, so proxies need not rebuild it.
//!
//! ## Example
//!
//! ```
//! use pti_conformance::{ConformanceChecker, ConformanceConfig, Conformance};
//! use pti_metamodel::{TypeDef, TypeDescription, TypeRegistry, ParamDef, primitives};
//!
//! // Two vendors implement the same "Person" module (paper Section 3.1).
//! let vendor_a = TypeDef::class("Person", "vendor-a")
//!     .field("name", primitives::STRING)
//!     .method("getName", vec![], primitives::STRING)
//!     .build();
//! let vendor_b = TypeDef::class("Person", "vendor-b")
//!     .field("name", primitives::STRING)
//!     .method("getPersonName", vec![], primitives::STRING)
//!     .build();
//!
//! let registry = TypeRegistry::with_builtins();
//! let checker = ConformanceChecker::new(ConformanceConfig::pragmatic());
//! let result = checker.check(
//!     &TypeDescription::from_def(&vendor_b),
//!     &TypeDescription::from_def(&vendor_a),
//!     &registry,
//!     &registry,
//! ).expect("vendor-b's Person conforms");
//! let binding = result.binding(&TypeDescription::from_def(&vendor_a));
//! assert_eq!(binding.method("getName", 0).unwrap().actual_name, "getPersonName");
//! ```

#![warn(missing_docs)]

mod behavioral;
mod binding;
mod checker;
mod config;
mod contract;
mod levenshtein;
mod matcher;
mod report;

pub use behavioral::{BehavioralReport, BehavioralTester, MethodVerdict};
pub use binding::{ConformanceBinding, CtorBinding, FieldBinding, MethodBinding};
pub use checker::{CacheStats, Conformance, ConformanceChecker};
pub use config::{Ambiguity, ConformanceConfig, Unresolved, Variance};
pub use contract::Contract;
pub use levenshtein::{levenshtein, levenshtein_ci};
pub use matcher::{NameMatcher, SynonymTable};
pub use report::{Aspect, NonConformance, Reason};
