//! The runtime: registry + heap + native method bodies.
//!
//! A [`Runtime`] is one peer's "CLR": it knows a set of types, holds live
//! objects, and can instantiate types and dispatch method invocations on
//! them. Method *bodies* are native Rust closures installed by
//! [`Assembly`](crate::assembly::Assembly) loading — the stand-in for
//! downloading and JIT-loading .NET assemblies.

use std::collections::HashMap;
use std::sync::Arc;

use crate::descriptor::TypeDescription;
use crate::error::{MetamodelError, Result};
use crate::guid::Guid;
use crate::heap::Heap;
use crate::names::TypeName;
use crate::pool::{intern_local, Pool};
use crate::primitives;
use crate::registry::TypeRegistry;
use crate::types::{TypeDef, TypeKind};
use crate::value::{DynObject, Fields, ObjHandle, Value};

/// A native method body.
///
/// Receives the runtime (so bodies can touch other objects), the receiver
/// (`Value::Null` for constructors *before* field initialization completes
/// is never the case — the receiver is always the allocated object), and
/// the argument values. Returns the method result.
pub type NativeFn = Arc<dyn Fn(&mut Runtime, Value, &[Value]) -> Result<Value> + Send + Sync>;

/// Name under which constructor bodies are keyed.
pub const CTOR_NAME: &str = "<ctor>";

thread_local! {
    /// The templates of every runtime on this thread, by type guid.
    static TEMPLATES: Pool<Guid, DynObject> = Pool::new();
}

/// One peer's object runtime.
pub struct Runtime {
    /// The types this runtime knows.
    pub registry: TypeRegistry,
    /// Live objects.
    pub heap: Heap,
    /// Native bodies by `(type, arity)`, then by method name, so a
    /// lookup borrows the name it is given.
    bodies: HashMap<(Guid, usize), HashMap<Box<str>, NativeFn>>,
    /// One default-initialized instance per `Class` type allocated so
    /// far — the moral equivalent of the CLR's cached (de)serialization
    /// plans. Allocation clones the template: its field names are shared
    /// by reference count, so a blank object costs one allocation (its
    /// values). Only `Class` types get a template (both allocation paths
    /// check the kind before building one). A new template is interned
    /// in this thread's [`TEMPLATES`] pool, so every runtime on a host
    /// that builds an equal one shares it, names included.
    templates: HashMap<Guid, Arc<DynObject>>,
    /// The templates built over a superclass chain in which a name did
    /// not resolve: a later registration may complete the chain, so
    /// these are dropped when a new type is registered.
    provisional: Vec<Guid>,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("types", &self.registry.len())
            .field("objects", &self.heap.len())
            .field(
                "bodies",
                &self.bodies.values().map(HashMap::len).sum::<usize>(),
            )
            .finish()
    }
}

impl Default for Runtime {
    fn default() -> Self {
        Self::new()
    }
}

impl Runtime {
    /// Creates a runtime with the platform builtins registered.
    pub fn new() -> Runtime {
        Runtime {
            registry: TypeRegistry::with_builtins(),
            heap: Heap::new(),
            bodies: HashMap::new(),
            templates: HashMap::new(),
            provisional: Vec::new(),
        }
    }

    /// Registers a type definition (idempotent for identical defs).
    pub fn register_type(&mut self, def: TypeDef) -> Result<()> {
        let guid = def.guid;
        let known = self.registry.contains(guid);
        self.registry.register(def)?;
        if !known {
            // A new type can only complete a chain that had a name
            // missing: a resolved name keeps resolving to the first type
            // registered under it. Provisional templates are rebuilt
            // lazily, as is one allocated from the def before it was
            // registered.
            for g in self.provisional.drain(..) {
                self.templates.remove(&g);
            }
            self.templates.remove(&guid);
        }
        Ok(())
    }

    /// A default-initialized instance of `def`, from the template cache.
    fn blank_instance(&mut self, def: &TypeDef) -> Result<DynObject> {
        if let Some(t) = self.templates.get(&def.guid) {
            return Ok(DynObject::clone(t));
        }
        let (layout, resolved) = self.chain_fields(def);
        let fresh = Arc::new(DynObject {
            type_guid: def.guid,
            fields: Fields::declare(
                layout
                    .into_iter()
                    .map(|(name, ty)| (name, Self::default_value(&ty))),
            ),
        });
        let template = intern_local(&TEMPLATES, def.guid, fresh);
        let obj = DynObject::clone(&template);
        self.templates.insert(def.guid, template);
        if !resolved {
            self.provisional.push(def.guid);
        }
        Ok(obj)
    }

    /// The body installed for `type_guid::method/arity`, if any.
    fn body(&self, type_guid: Guid, method: &str, arity: usize) -> Option<&NativeFn> {
        self.bodies.get(&(type_guid, arity))?.get(method)
    }

    /// Installs a native body for `type_guid::method/arity`.
    pub fn register_body(
        &mut self,
        type_guid: Guid,
        method: impl Into<String>,
        arity: usize,
        body: NativeFn,
    ) {
        self.bodies
            .entry((type_guid, arity))
            .or_default()
            .insert(method.into().into_boxed_str(), body);
    }

    /// Whether a body is installed for the given method.
    pub fn has_body(&self, type_guid: Guid, method: &str, arity: usize) -> bool {
        self.body(type_guid, method, arity).is_some()
    }

    /// Resolves a method to its native body *once*, walking the
    /// superclass chain — the analogue of a compiled (early-bound) call
    /// site. Invoking the returned closure repeatedly skips the per-call
    /// dispatch that [`invoke`](Self::invoke) performs.
    pub fn bind_method(&self, type_guid: Guid, method: &str, arity: usize) -> Option<NativeFn> {
        let mut cur = self.registry.get(type_guid);
        let mut hops = 0;
        while let Some(d) = cur {
            if d.find_method(method, arity).is_some() {
                return self.body(d.guid, method, arity).cloned();
            }
            hops += 1;
            if hops > 64 {
                return None;
            }
            cur = d.superclass.as_ref().and_then(|s| self.registry.resolve(s));
        }
        None
    }

    /// The default value for a type name: `0`/`false`/`""` for primitives,
    /// `Null` for everything else (references and arrays).
    pub fn default_value(name: &TypeName) -> Value {
        match name.full() {
            primitives::BOOL => Value::Bool(false),
            primitives::INT32 => Value::I32(0),
            primitives::INT64 => Value::I64(0),
            primitives::FLOAT64 => Value::F64(0.0),
            primitives::STRING => Value::Str(String::new()),
            _ if name.is_array() => Value::Array(Vec::new()),
            _ => Value::Null,
        }
    }

    /// All fields of a type, flattened over its superclass chain
    /// (subclass fields shadow superclass fields of the same name).
    pub fn flattened_fields(&self, def: &TypeDef) -> Result<Vec<(String, TypeName)>> {
        Ok(self.chain_fields(def).0)
    }

    /// [`flattened_fields`](Self::flattened_fields), and whether every
    /// superclass name on the chain resolved.
    fn chain_fields(&self, def: &TypeDef) -> (Vec<(String, TypeName)>, bool) {
        let mut out: Vec<(String, TypeName)> = Vec::new();
        let mut resolved = true;
        let mut resolve = |name: &TypeName| {
            let found = self.registry.resolve(name);
            resolved &= found.is_some();
            found
        };
        // Collect the superclass chain (the leaf `def` itself is borrowed,
        // not cloned).
        let mut supers: Vec<Arc<TypeDef>> = Vec::new();
        let mut cur = def.superclass.as_ref().and_then(&mut resolve);
        let mut hops = 0;
        while let Some(d) = cur {
            hops += 1;
            if hops > 64 {
                // Malformed cyclic hierarchy: stop flattening.
                break;
            }
            cur = match &d.superclass {
                Some(s) if !supers.iter().any(|x| x.guid == d.guid) => resolve(s),
                _ => None,
            };
            supers.push(d);
        }
        // Superclass fields first, then subclasses shadow.
        for d in supers
            .iter()
            .rev()
            .map(|a| a.as_ref())
            .chain(std::iter::once(def))
        {
            for f in &d.fields {
                if let Some(slot) = out.iter_mut().find(|(n, _)| n == &f.name) {
                    slot.1 = f.ty.clone();
                } else {
                    out.push((f.name.clone(), f.ty.clone()));
                }
            }
        }
        (out, resolved)
    }

    /// Instantiates a type by name with constructor arguments.
    ///
    /// Fields are default-initialized, then the matching-arity constructor
    /// body runs if one is installed (a missing ctor body is allowed iff
    /// the constructor is declared with that arity — state then stays at
    /// defaults, which is how deserializers build objects).
    ///
    /// # Errors
    /// Unknown name, non-instantiable type, or no constructor of the given
    /// arity.
    pub fn instantiate(&mut self, name: &TypeName, args: &[Value]) -> Result<ObjHandle> {
        let def = self.registry.require_name(name)?;
        self.instantiate_def(&def, args)
    }

    /// Instantiates by explicit definition (used when several homonymous
    /// types are registered).
    pub fn instantiate_def(&mut self, def: &TypeDef, args: &[Value]) -> Result<ObjHandle> {
        if !def.is_instantiable() {
            return Err(MetamodelError::NotInstantiable(def.name.clone()));
        }
        if def.find_ctor(args.len()).is_none() {
            return Err(MetamodelError::UnknownConstructor {
                ty: def.name.clone(),
                arity: args.len(),
            });
        }
        let obj = self.blank_instance(def)?;
        let handle = self.heap.alloc(obj);
        if let Some(body) = self.body(def.guid, CTOR_NAME, args.len()).cloned() {
            body(self, Value::Obj(handle), args)?;
        }
        Ok(handle)
    }

    /// Allocates an object of `def`'s type *without* running a constructor
    /// (all fields at defaults). Used by deserializers.
    pub fn allocate_raw(&mut self, def: &TypeDef) -> Result<ObjHandle> {
        if def.kind != TypeKind::Class {
            return Err(MetamodelError::NotInstantiable(def.name.clone()));
        }
        let obj = self.blank_instance(def)?;
        Ok(self.heap.alloc(obj))
    }

    /// [`allocate_raw`](Self::allocate_raw) of the type registered under
    /// `guid`: it succeeds exactly when `allocate_raw` of that type's
    /// definition would. A type allocated before is cloned straight from
    /// its template, with no registry lookup — the deserializers' path.
    ///
    /// # Errors
    /// [`MetamodelError::UnknownTypeGuid`] if no type is registered under
    /// `guid`; otherwise as [`allocate_raw`](Self::allocate_raw).
    pub fn allocate_raw_guid(&mut self, guid: Guid) -> Result<ObjHandle> {
        if let Some(template) = self.templates.get(&guid) {
            let obj = DynObject::clone(template);
            return Ok(self.heap.alloc(obj));
        }
        let def = self.registry.require(guid)?;
        self.allocate_raw(&def)
    }

    /// The definition of an object's type.
    pub fn type_of(&self, handle: ObjHandle) -> Result<Arc<TypeDef>> {
        let obj = self.heap.get(handle)?;
        self.registry.require(obj.type_guid)
    }

    /// Invokes `method` on the object behind `handle`, dispatching through
    /// the superclass chain.
    ///
    /// # Errors
    /// Unknown method (searched by name and arity through the chain), or a
    /// declared method whose body was never installed
    /// ([`MetamodelError::MissingBody`]).
    pub fn invoke(&mut self, handle: ObjHandle, method: &str, args: &[Value]) -> Result<Value> {
        let def = self.type_of(handle)?;
        let mut cur: Option<Arc<TypeDef>> = Some(def.clone());
        let mut hops = 0;
        while let Some(d) = cur {
            if d.find_method(method, args.len()).is_some() {
                let body = self
                    .body(d.guid, method, args.len())
                    .cloned()
                    .ok_or_else(|| MetamodelError::MissingBody {
                        ty: d.name.clone(),
                        method: method.to_string(),
                    })?;
                return body(self, Value::Obj(handle), args);
            }
            hops += 1;
            if hops > 64 {
                break;
            }
            cur = match &d.superclass {
                Some(s) => self.registry.resolve(s),
                None => None,
            };
        }
        Err(MetamodelError::UnknownMethod {
            ty: def.name.clone(),
            method: method.to_string(),
            arity: args.len(),
        })
    }

    /// Reads a field of an object.
    pub fn get_field(&self, handle: ObjHandle, field: &str) -> Result<Value> {
        let obj = self.heap.get(handle)?;
        obj.get(field).cloned().ok_or_else(|| {
            let ty = self
                .registry
                .get(obj.type_guid)
                .map(|d| d.name.clone())
                .unwrap_or_else(|| TypeName::new("<unknown>"));
            MetamodelError::UnknownField {
                ty,
                field: field.to_string(),
            }
        })
    }

    /// Writes a field of an object.
    ///
    /// # Errors
    /// The field must already exist on the object (fields are fixed by the
    /// type at instantiation).
    pub fn set_field(&mut self, handle: ObjHandle, field: &str, value: Value) -> Result<()> {
        let type_guid = self.heap.get(handle)?.type_guid;
        let obj = self.heap.get_mut(handle)?;
        if obj.get(field).is_none() {
            let ty = self
                .registry
                .get(type_guid)
                .map(|d| d.name.clone())
                .unwrap_or_else(|| TypeName::new("<unknown>"));
            return Err(MetamodelError::UnknownField {
                ty,
                field: field.to_string(),
            });
        }
        obj.set(field, value);
        Ok(())
    }

    /// Introspects a registered type into its shippable description.
    pub fn describe(&self, name: &TypeName) -> Result<TypeDescription> {
        Ok(TypeDescription::from_def(
            &*self.registry.require_name(name)?,
        ))
    }

    /// Introspects by identity.
    pub fn describe_guid(&self, guid: Guid) -> Result<TypeDescription> {
        Ok(TypeDescription::from_def(&*self.registry.require(guid)?))
    }
}

/// Ready-made native bodies for the ubiquitous accessor patterns.
pub mod bodies {
    use super::*;

    /// A body returning the named field of the receiver (`getX` pattern).
    pub fn getter(field: &str) -> NativeFn {
        let field = field.to_string();
        Arc::new(move |rt, recv, _args| {
            let h = recv.as_obj()?;
            rt.get_field(h, &field)
        })
    }

    /// A body storing its single argument into the named field of the
    /// receiver (`setX` pattern) and returning `Null`.
    pub fn setter(field: &str) -> NativeFn {
        let field = field.to_string();
        Arc::new(move |rt, recv, args| {
            let h = recv.as_obj()?;
            let v = args.first().cloned().unwrap_or(Value::Null);
            rt.set_field(h, &field, v)?;
            Ok(Value::Null)
        })
    }

    /// A constructor body assigning arguments to fields positionally.
    pub fn ctor_assign(fields: &[&str]) -> NativeFn {
        let fields: Vec<String> = fields.iter().map(|s| s.to_string()).collect();
        Arc::new(move |rt, recv, args| {
            let h = recv.as_obj()?;
            for (f, v) in fields.iter().zip(args.iter()) {
                rt.set_field(h, f, v.clone())?;
            }
            Ok(Value::Null)
        })
    }

    /// A body returning a constant value (useful in tests).
    pub fn constant(v: Value) -> NativeFn {
        Arc::new(move |_rt, _recv, _args| Ok(v.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ParamDef;

    fn person_def() -> TypeDef {
        TypeDef::class("Person", "vendor-a")
            .field("name", primitives::STRING)
            .method("getName", vec![], primitives::STRING)
            .method(
                "setName",
                vec![ParamDef::new("n", primitives::STRING)],
                primitives::VOID,
            )
            .ctor(vec![])
            .ctor(vec![ParamDef::new("n", primitives::STRING)])
            .build()
    }

    fn runtime_with_person() -> (Runtime, Guid) {
        let mut rt = Runtime::new();
        let def = person_def();
        let g = def.guid;
        rt.register_type(def).unwrap();
        rt.register_body(g, "getName", 0, bodies::getter("name"));
        rt.register_body(g, "setName", 1, bodies::setter("name"));
        rt.register_body(g, CTOR_NAME, 1, bodies::ctor_assign(&["name"]));
        (rt, g)
    }

    #[test]
    fn instantiate_runs_ctor() {
        let (mut rt, _) = runtime_with_person();
        let h = rt
            .instantiate(&TypeName::new("Person"), &[Value::from("alice")])
            .unwrap();
        assert_eq!(rt.get_field(h, "name").unwrap().as_str().unwrap(), "alice");
    }

    #[test]
    fn instantiate_without_ctor_body_defaults_fields() {
        let (mut rt, _) = runtime_with_person();
        let h = rt.instantiate(&TypeName::new("Person"), &[]).unwrap();
        assert_eq!(rt.get_field(h, "name").unwrap().as_str().unwrap(), "");
    }

    #[test]
    fn invoke_getter_setter() {
        let (mut rt, _) = runtime_with_person();
        let h = rt.instantiate(&TypeName::new("Person"), &[]).unwrap();
        rt.invoke(h, "setName", &[Value::from("bob")]).unwrap();
        let v = rt.invoke(h, "getName", &[]).unwrap();
        assert_eq!(v.as_str().unwrap(), "bob");
    }

    #[test]
    fn invoke_unknown_method_errors() {
        let (mut rt, _) = runtime_with_person();
        let h = rt.instantiate(&TypeName::new("Person"), &[]).unwrap();
        let err = rt.invoke(h, "fly", &[]).unwrap_err();
        assert!(matches!(err, MetamodelError::UnknownMethod { .. }));
    }

    #[test]
    fn invoke_declared_but_bodyless_method_reports_missing_assembly() {
        let mut rt = Runtime::new();
        let def = person_def();
        rt.register_type(def).unwrap();
        let h = rt.instantiate(&TypeName::new("Person"), &[]).unwrap();
        let err = rt.invoke(h, "getName", &[]).unwrap_err();
        assert!(matches!(err, MetamodelError::MissingBody { .. }));
    }

    #[test]
    fn inherited_method_dispatch() {
        let mut rt = Runtime::new();
        let base = TypeDef::class("Base", "v")
            .field("x", primitives::INT32)
            .method("getX", vec![], primitives::INT32)
            .ctor(vec![])
            .build();
        let derived = TypeDef::class("Derived", "v")
            .extends("Base")
            .field("y", primitives::INT32)
            .ctor(vec![])
            .build();
        let bg = base.guid;
        rt.register_type(base).unwrap();
        rt.register_type(derived).unwrap();
        rt.register_body(bg, "getX", 0, bodies::getter("x"));
        let h = rt.instantiate(&TypeName::new("Derived"), &[]).unwrap();
        rt.set_field(h, "x", Value::I32(7)).unwrap();
        assert_eq!(rt.invoke(h, "getX", &[]).unwrap().as_i32().unwrap(), 7);
        // Derived has both its own and inherited fields.
        assert!(rt.get_field(h, "y").is_ok());
    }

    #[test]
    fn field_shadowing_uses_subclass_type() {
        let mut rt = Runtime::new();
        let base = TypeDef::class("B", "v")
            .field("v", primitives::INT32)
            .ctor(vec![])
            .build();
        let derived = TypeDef::class("D", "v")
            .extends("B")
            .field("v", primitives::STRING)
            .ctor(vec![])
            .build();
        rt.register_type(base).unwrap();
        rt.register_type(derived).unwrap();
        let h = rt.instantiate(&TypeName::new("D"), &[]).unwrap();
        assert_eq!(rt.get_field(h, "v").unwrap().as_str().unwrap(), "");
    }

    #[test]
    fn a_template_built_before_its_superclass_is_rebuilt_with_the_inherited_field() {
        let mut rt = Runtime::new();
        let derived = TypeDef::class("Late", "v")
            .extends("LateBase")
            .field("y", primitives::INT32)
            .ctor(vec![])
            .build();
        rt.register_type(derived).unwrap();
        let early = rt.instantiate(&TypeName::new("Late"), &[]).unwrap();
        assert!(rt.get_field(early, "x").is_err());
        let base = TypeDef::class("LateBase", "v")
            .field("x", primitives::INT32)
            .ctor(vec![])
            .build();
        rt.register_type(base).unwrap();
        let late = rt.instantiate(&TypeName::new("Late"), &[]).unwrap();
        assert_eq!(rt.get_field(late, "x").unwrap(), Value::I32(0));
        assert_eq!(rt.get_field(late, "y").unwrap(), Value::I32(0));
    }

    #[test]
    fn an_unrelated_registration_keeps_a_resolved_template() {
        let (mut rt, _) = runtime_with_person();
        let first = rt.instantiate(&TypeName::new("Person"), &[]).unwrap();
        let other = TypeDef::class("Unrelated", "v")
            .field("z", primitives::INT32)
            .build();
        rt.register_type(other).unwrap();
        let second = rt.instantiate(&TypeName::new("Person"), &[]).unwrap();
        let names = |h| &rt.heap.get(h).unwrap().fields;
        assert!(names(first).shares_names_with(names(second)));
    }

    #[test]
    fn runtimes_on_one_thread_share_a_template() {
        let (mut a, _) = runtime_with_person();
        let (mut b, _) = runtime_with_person();
        let x = a.instantiate(&TypeName::new("Person"), &[]).unwrap();
        let y = b.instantiate(&TypeName::new("Person"), &[]).unwrap();
        let fields = |rt: &Runtime, h| rt.heap.get(h).unwrap().fields.clone();
        assert!(fields(&a, x).shares_names_with(&fields(&b, y)));
        let mut partial = Runtime::new();
        let late = TypeDef::class("Late2", "v")
            .extends("Missing")
            .field("y", primitives::INT32)
            .ctor(vec![])
            .build();
        partial.register_type(late.clone()).unwrap();
        let mut whole = Runtime::new();
        whole
            .register_type(
                TypeDef::class("Missing", "v")
                    .field("x", primitives::INT32)
                    .build(),
            )
            .unwrap();
        whole.register_type(late).unwrap();
        let p = partial.instantiate(&TypeName::new("Late2"), &[]).unwrap();
        let w = whole.instantiate(&TypeName::new("Late2"), &[]).unwrap();
        assert!(
            !fields(&partial, p).shares_names_with(&fields(&whole, w)),
            "an unequal template for the same type stays its own"
        );
        assert!(whole.get_field(w, "x").is_ok() && partial.get_field(p, "x").is_err());
    }

    #[test]
    fn set_unknown_field_errors() {
        let (mut rt, _) = runtime_with_person();
        let h = rt.instantiate(&TypeName::new("Person"), &[]).unwrap();
        assert!(matches!(
            rt.set_field(h, "age", Value::I32(1)),
            Err(MetamodelError::UnknownField { .. })
        ));
    }

    #[test]
    fn cannot_instantiate_interface() {
        let mut rt = Runtime::new();
        rt.register_type(TypeDef::interface("I", "v").build())
            .unwrap();
        assert!(matches!(
            rt.instantiate(&TypeName::new("I"), &[]),
            Err(MetamodelError::NotInstantiable(_))
        ));
    }

    #[test]
    fn wrong_ctor_arity_errors() {
        let (mut rt, _) = runtime_with_person();
        assert!(matches!(
            rt.instantiate(&TypeName::new("Person"), &[Value::Null, Value::Null]),
            Err(MetamodelError::UnknownConstructor { .. })
        ));
    }

    #[test]
    fn default_values_by_type() {
        assert_eq!(
            Runtime::default_value(&TypeName::new(primitives::INT32)),
            Value::I32(0)
        );
        assert_eq!(
            Runtime::default_value(&TypeName::new(primitives::BOOL)),
            Value::Bool(false)
        );
        assert_eq!(
            Runtime::default_value(&TypeName::new("Int32[]")),
            Value::Array(vec![])
        );
        assert_eq!(
            Runtime::default_value(&TypeName::new("Person")),
            Value::Null
        );
    }

    #[test]
    fn describe_registered_type() {
        let (rt, _) = runtime_with_person();
        let d = rt.describe(&TypeName::new("Person")).unwrap();
        assert_eq!(d.methods.len(), 2);
        assert!(rt.describe(&TypeName::new("Nope")).is_err());
    }

    #[test]
    fn constant_body() {
        let mut rt = Runtime::new();
        let def = TypeDef::class("K", "v")
            .method("answer", vec![], primitives::INT32)
            .ctor(vec![])
            .build();
        let g = def.guid;
        rt.register_type(def).unwrap();
        rt.register_body(g, "answer", 0, bodies::constant(Value::I32(42)));
        let h = rt.instantiate(&TypeName::new("K"), &[]).unwrap();
        assert_eq!(rt.invoke(h, "answer", &[]).unwrap().as_i32().unwrap(), 42);
    }
}
