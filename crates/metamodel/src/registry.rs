//! The type registry: every type a runtime knows, indexed by identity and
//! by name.
//!
//! Because peers receive types minted by other publishers, several
//! distinct types (distinct GUIDs) may share one name — the registry keeps
//! all of them and exposes both "first registered" and "all" name lookups.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use crate::descriptor::{DescriptionProvider, TypeDescription};
use crate::error::{MetamodelError, Result};
use crate::guid::Guid;
use crate::names::TypeName;
use crate::primitives;
use crate::types::TypeDef;

/// Indexed storage of [`TypeDef`]s.
///
/// A registry made by [`with_builtins`](Self::with_builtins) layers its
/// own types over one process-wide registry of the built-ins, so a
/// thousand runtimes hold one copy of them. The base counts as
/// registered first: every lookup answers as if the built-ins had been
/// registered into this registry before anything else.
#[derive(Debug, Clone, Default)]
pub struct TypeRegistry {
    /// The built-ins, shared by every registry that has them.
    base: Option<&'static TypeRegistry>,
    by_guid: HashMap<Guid, Arc<TypeDef>>,
    // Lowercased full name -> guids in registration order.
    by_name: HashMap<String, Vec<Guid>>,
}

/// The built-ins, registered once per process.
fn builtins() -> &'static TypeRegistry {
    static BUILTINS: OnceLock<TypeRegistry> = OnceLock::new();
    BUILTINS.get_or_init(|| {
        let mut r = TypeRegistry::new();
        for def in primitives::builtin_defs() {
            r.register(def).expect("builtins are collision-free");
        }
        r
    })
}

fn name_key(name: &TypeName) -> String {
    name.full().to_ascii_lowercase()
}

impl TypeRegistry {
    /// Creates an empty registry (no builtins; see
    /// [`with_builtins`](Self::with_builtins)).
    pub fn new() -> TypeRegistry {
        TypeRegistry::default()
    }

    /// Creates a registry pre-populated with the platform builtins
    /// (primitives and the root `Object`).
    pub fn with_builtins() -> TypeRegistry {
        TypeRegistry {
            base: Some(builtins()),
            ..TypeRegistry::default()
        }
    }

    /// Registers a type definition.
    ///
    /// Re-registering the *identical* definition is a no-op (idempotent —
    /// assemblies may be installed repeatedly).
    ///
    /// # Errors
    /// [`MetamodelError::DuplicateGuid`] if a *different* definition is
    /// already registered under the same GUID.
    pub fn register(&mut self, def: TypeDef) -> Result<()> {
        if let Some(existing) = self.get_ref(def.guid) {
            if **existing == def {
                return Ok(());
            }
            return Err(MetamodelError::DuplicateGuid(def.guid));
        }
        let key = name_key(&def.name);
        self.by_name.entry(key).or_default().push(def.guid);
        self.by_guid.insert(def.guid, Arc::new(def));
        Ok(())
    }

    /// Looks a type up by identity.
    pub fn get(&self, guid: Guid) -> Option<Arc<TypeDef>> {
        self.get_ref(guid).cloned()
    }

    fn get_ref(&self, guid: Guid) -> Option<&Arc<TypeDef>> {
        self.by_guid
            .get(&guid)
            .or_else(|| self.base?.by_guid.get(&guid))
    }

    /// The guids registered under a name, the base's first, in
    /// registration order.
    fn named(&self, name: &TypeName) -> impl Iterator<Item = Guid> + '_ {
        let key = name_key(name);
        let base = self.base.and_then(|b| b.by_name.get(&key));
        let own = self.by_name.get(&key);
        base.into_iter().chain(own).flatten().copied()
    }

    /// Looks a type up by identity, as an error-producing operation.
    pub fn require(&self, guid: Guid) -> Result<Arc<TypeDef>> {
        self.get(guid).ok_or(MetamodelError::UnknownTypeGuid(guid))
    }

    /// Resolves a name to the *first registered* type with that name
    /// (case-insensitive). Array names resolve to their element type's
    /// existence — arrays themselves have no `TypeDef`.
    pub fn resolve(&self, name: &TypeName) -> Option<Arc<TypeDef>> {
        self.named(name).next().and_then(|g| self.get(g))
    }

    /// Resolves a name to *every* registered type with that name.
    pub fn resolve_all(&self, name: &TypeName) -> Vec<Arc<TypeDef>> {
        self.named(name).filter_map(|g| self.get(g)).collect()
    }

    /// Resolves a name or errors with
    /// [`MetamodelError::UnknownTypeName`].
    pub fn require_name(&self, name: &TypeName) -> Result<Arc<TypeDef>> {
        self.resolve(name)
            .ok_or_else(|| MetamodelError::UnknownTypeName(name.clone()))
    }

    /// Whether a type with this identity is registered.
    pub fn contains(&self, guid: Guid) -> bool {
        self.get_ref(guid).is_some()
    }

    /// Whether any type with this name is registered.
    pub fn contains_name(&self, name: &TypeName) -> bool {
        self.named(name).next().is_some()
    }

    /// Number of registered types (including builtins).
    pub fn len(&self) -> usize {
        self.base.map_or(0, TypeRegistry::len) + self.by_guid.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over all registered definitions.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<TypeDef>> {
        let base = self.base.map(|b| b.by_guid.values());
        base.into_iter().flatten().chain(self.by_guid.values())
    }

    /// Whether `sub` is an *explicit* (nominal) subtype of `sup`:
    /// identical, or reachable from `sub` through superclass/interface
    /// edges by identity-preserving name resolution within this registry.
    ///
    /// This implements the paper's `≼E` (explicit conformance), which the
    /// implicit rule falls back on.
    pub fn is_explicit_subtype(&self, sub: Guid, sup: Guid) -> bool {
        if sub == sup {
            return true;
        }
        let mut stack = vec![sub];
        let mut seen = vec![sub];
        while let Some(g) = stack.pop() {
            let Some(def) = self.get(g) else { continue };
            let mut parents: Vec<TypeName> = def.interfaces.clone();
            if let Some(s) = &def.superclass {
                parents.push(s.clone());
            }
            for p in parents {
                for pd in self.resolve_all(&p) {
                    if pd.guid == sup {
                        return true;
                    }
                    if !seen.contains(&pd.guid) {
                        seen.push(pd.guid);
                        stack.push(pd.guid);
                    }
                }
            }
        }
        false
    }
}

impl DescriptionProvider for TypeRegistry {
    fn describe(&self, name: &TypeName) -> Option<TypeDescription> {
        self.resolve(name).map(|d| TypeDescription::from_def(&d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ParamDef;

    #[test]
    fn builtins_present() {
        let r = TypeRegistry::with_builtins();
        assert!(r.contains_name(&TypeName::new(primitives::INT32)));
        assert!(r.contains_name(&TypeName::new(primitives::OBJECT)));
        assert_eq!(r.len(), primitives::ALL_PRIMITIVES.len() + 1);
    }

    #[test]
    fn a_registry_over_the_shared_builtins_answers_as_a_flat_one() {
        let mut flat = TypeRegistry::new();
        for def in primitives::builtin_defs() {
            flat.register(def).unwrap();
        }
        let mut layered = TypeRegistry::with_builtins();
        let homonym = TypeDef::class(primitives::INT32, "vendor").build();
        let person = TypeDef::class("Person", "vendor").build();
        for r in [&mut flat, &mut layered] {
            r.register(homonym.clone()).unwrap();
            r.register(person.clone()).unwrap();
            r.register(primitives::object_def()).unwrap();
            let mut clash = TypeDef::class("Clash", "vendor").build();
            clash.guid = primitives::object_def().guid;
            assert!(matches!(
                r.register(clash),
                Err(MetamodelError::DuplicateGuid(_))
            ));
        }
        assert_eq!(layered.len(), flat.len());
        let guids = |r: &TypeRegistry| {
            let mut g: Vec<Guid> = r.iter().map(|d| d.guid).collect();
            g.sort();
            g
        };
        assert_eq!(guids(&layered), guids(&flat));
        for name in [primitives::INT32, primitives::OBJECT, "Person", "Nope"] {
            let name = TypeName::new(name);
            let all = |r: &TypeRegistry| -> Vec<Guid> {
                r.resolve_all(&name).iter().map(|d| d.guid).collect()
            };
            assert_eq!(all(&layered), all(&flat), "{name:?} in registration order");
            assert_eq!(layered.contains_name(&name), flat.contains_name(&name));
        }
        let int32 = layered.resolve(&TypeName::new(primitives::INT32)).unwrap();
        assert_eq!(
            int32.kind,
            crate::types::TypeKind::Primitive,
            "built-ins first"
        );
        assert!(layered.contains(homonym.guid) && layered.contains(int32.guid));
        assert!(
            !TypeRegistry::with_builtins().contains(person.guid),
            "layers are private"
        );
    }

    #[test]
    fn register_and_lookup() {
        let mut r = TypeRegistry::with_builtins();
        let def = TypeDef::class("Acme.Person", "a").build();
        let guid = def.guid;
        r.register(def).unwrap();
        assert!(r.contains(guid));
        assert_eq!(r.get(guid).unwrap().name.full(), "Acme.Person");
        assert_eq!(
            r.resolve(&TypeName::new("acme.person")).unwrap().guid,
            guid,
            "name resolution is case-insensitive"
        );
    }

    #[test]
    fn reregistering_identical_is_idempotent() {
        let mut r = TypeRegistry::new();
        let def = TypeDef::class("P", "a").build();
        r.register(def.clone()).unwrap();
        r.register(def).unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn conflicting_guid_rejected() {
        let mut r = TypeRegistry::new();
        let a = TypeDef::class("P", "a").build();
        let mut b = TypeDef::class("Q", "b").build();
        b.guid = a.guid;
        r.register(a).unwrap();
        assert!(matches!(
            r.register(b),
            Err(MetamodelError::DuplicateGuid(_))
        ));
    }

    #[test]
    fn homonyms_coexist() {
        let mut r = TypeRegistry::new();
        let a = TypeDef::class("Person", "vendor-a").build();
        let b = TypeDef::class("Person", "vendor-b").build();
        r.register(a.clone()).unwrap();
        r.register(b.clone()).unwrap();
        let all = r.resolve_all(&TypeName::new("Person"));
        assert_eq!(all.len(), 2);
        assert_eq!(
            r.resolve(&TypeName::new("Person")).unwrap().guid,
            a.guid,
            "first registered wins the single-result lookup"
        );
    }

    #[test]
    fn explicit_subtyping_walks_hierarchy() {
        let mut r = TypeRegistry::with_builtins();
        let inamed = TypeDef::interface("INamed", "v")
            .method("getName", vec![], primitives::STRING)
            .build();
        let person = TypeDef::class("Person", "v").implements("INamed").build();
        let employee = TypeDef::class("Employee", "v").extends("Person").build();
        let (ig, pg, eg) = (inamed.guid, person.guid, employee.guid);
        r.register(inamed).unwrap();
        r.register(person).unwrap();
        r.register(employee).unwrap();
        assert!(r.is_explicit_subtype(eg, pg));
        assert!(r.is_explicit_subtype(eg, ig), "transitive through Person");
        assert!(r.is_explicit_subtype(pg, ig));
        assert!(!r.is_explicit_subtype(pg, eg));
        assert!(r.is_explicit_subtype(pg, pg), "reflexive");
    }

    #[test]
    fn explicit_subtyping_handles_cycles() {
        // Malformed hierarchies (A extends B extends A) must not hang.
        let mut r = TypeRegistry::new();
        let a = TypeDef::class("A", "v").extends("B").build();
        let b = TypeDef::class("B", "v").extends("A").build();
        let (ag, bg) = (a.guid, b.guid);
        r.register(a).unwrap();
        r.register(b).unwrap();
        assert!(r.is_explicit_subtype(ag, bg));
        assert!(r.is_explicit_subtype(bg, ag));
        assert!(!r.is_explicit_subtype(ag, Guid::derive("C", "v")));
    }

    #[test]
    fn describe_via_provider() {
        let mut r = TypeRegistry::with_builtins();
        r.register(
            TypeDef::class("P", "a")
                .method(
                    "f",
                    vec![ParamDef::new("x", primitives::INT32)],
                    primitives::VOID,
                )
                .build(),
        )
        .unwrap();
        let d = r.describe(&TypeName::new("P")).unwrap();
        assert_eq!(d.methods.len(), 1);
        assert!(r.describe(&TypeName::new("Nope")).is_none());
    }
}
