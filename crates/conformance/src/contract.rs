//! Bound contracts: a verdict together with the type it was reached for.
//!
//! A dynamic proxy exposing `T` over an object of `T'` needs three
//! things: the verdict `T' ≼IS T`, the description of `T`, and the
//! member translation table. The checker's verdict cache keeps one
//! [`Contract`] per `(received guid, expected guid)` pair behind an
//! `Arc`, so every proxy for that pair shares it instead of rebuilding
//! it.

use pti_metamodel::TypeDescription;

use crate::binding::ConformanceBinding;
use crate::checker::Conformance;

/// A successful conformance verdict bound to its expected type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Contract {
    conformance: Conformance,
    expected: TypeDescription,
    /// The identity table of a non-structural verdict. Empty for a
    /// structural one, whose table lives in the verdict itself.
    identity: ConformanceBinding,
}

impl Contract {
    /// Binds `conformance` to the expected type it was reached for.
    pub fn new(expected: TypeDescription, conformance: Conformance) -> Contract {
        let identity = match conformance {
            Conformance::Structural(_) => ConformanceBinding::default(),
            _ => ConformanceBinding::identity(&expected),
        };
        Contract {
            conformance,
            expected,
            identity,
        }
    }

    /// A contract over an explicit translation table (recorded as a
    /// structural verdict).
    pub fn with_binding(expected: TypeDescription, binding: ConformanceBinding) -> Contract {
        Contract::new(expected, Conformance::Structural(binding))
    }

    /// How conformance was established.
    pub fn conformance(&self) -> &Conformance {
        &self.conformance
    }

    /// The expected type `T`.
    pub fn expected(&self) -> &TypeDescription {
        &self.expected
    }

    /// The member translation table: the structural one, or the identity
    /// table for every other verdict.
    pub fn binding(&self) -> &ConformanceBinding {
        match &self.conformance {
            Conformance::Structural(b) => b,
            _ => &self.identity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::FieldBinding;
    use pti_metamodel::{primitives, TypeDef};

    fn desc() -> TypeDescription {
        TypeDescription::from_def(
            &TypeDef::class("Reading", "v")
                .field("value", primitives::FLOAT64)
                .build(),
        )
    }

    #[test]
    fn non_structural_verdicts_bind_the_identity_table() {
        let c = Contract::new(desc(), Conformance::Equivalent);
        assert!(c.binding().is_identity());
        assert!(c.binding().field("value").is_some());
        assert_eq!(c.conformance(), &Conformance::Equivalent);
    }

    #[test]
    fn structural_verdicts_bind_their_own_table() {
        let table = ConformanceBinding {
            fields: vec![FieldBinding {
                expected_name: "value".into(),
                actual_name: "reading".into(),
            }],
            ..ConformanceBinding::default()
        };
        let c = Contract::with_binding(desc(), table.clone());
        assert_eq!(c.binding(), &table);
        assert_eq!(c.expected().name.full(), "Reading");
    }
}
