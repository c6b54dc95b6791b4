//! # pti-proxy — dynamic proxies over conformant objects
//!
//! The paper interposes dynamic proxies (à la .NET `RealProxy` / Java
//! `java.lang.reflect.Proxy`) whenever a received object's type `T'` only
//! *implicitly* conforms to the expected type `T`: the caller programs
//! against `T`, the proxy translates each invocation to `T'` — possibly
//! under a different method name and argument order — using the
//! [`ConformanceBinding`] produced by the checker.
//!
//! The overhead of this indirection versus a direct invocation is the
//! paper's Section 7.1 measurement (`pti-bench`'s `invocation` bench).
//!
//! ## Example
//!
//! ```
//! use pti_metamodel::{Assembly, Runtime, TypeDef, TypeDescription, Value, bodies, primitives};
//! use pti_conformance::{ConformanceChecker, ConformanceConfig};
//! use pti_proxy::DynamicProxy;
//!
//! // Expected contract (vendor A) and received implementation (vendor B).
//! let expected = TypeDef::class("Person", "vendor-a")
//!     .field("name", primitives::STRING)
//!     .method("getName", vec![], primitives::STRING)
//!     .build();
//! let received = TypeDef::class("Person", "vendor-b")
//!     .field("name", primitives::STRING)
//!     .method("getPersonName", vec![], primitives::STRING)
//!     .ctor(vec![])
//!     .build();
//! let g = received.guid;
//!
//! let mut rt = Runtime::new();
//! Assembly::builder("b")
//!     .ty(received.clone())
//!     .body(g, "getPersonName", 0, bodies::getter("name"))
//!     .build()
//!     .install(&mut rt)?;
//! let obj = rt.instantiate(&"Person".into(), &[])?;
//! rt.set_field(obj, "name", Value::from("ada"))?;
//!
//! let checker = ConformanceChecker::new(ConformanceConfig::pragmatic());
//! let proxy = DynamicProxy::try_new(
//!     &TypeDescription::from_def(&expected),
//!     &TypeDescription::from_def(&received),
//!     obj,
//!     &checker,
//!     &rt.registry,
//!     &rt.registry,
//! )?;
//! // Caller speaks vendor A's contract; the proxy translates.
//! assert_eq!(proxy.invoke(&mut rt, "getName", &[])?.as_str()?, "ada");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

use std::fmt;
use std::sync::Arc;

use pti_conformance::{
    Conformance, ConformanceBinding, ConformanceChecker, Contract, NonConformance,
};
use pti_metamodel::{
    DescriptionProvider, MetamodelError, ObjHandle, Runtime, TypeDescription, Value,
};

/// Errors raised by proxy construction or dispatch.
#[derive(Debug, Clone, PartialEq)]
pub enum ProxyError {
    /// The received type does not conform to the expected type.
    NotConformant(NonConformance),
    /// The invoked method is not part of the expected type's contract
    /// (proxies enforce the *expected* interface, never the wider actual
    /// one — that is what keeps the substitution type-safe).
    NotInContract {
        /// Requested method name.
        method: String,
        /// Requested arity.
        arity: usize,
    },
    /// A field access is not part of the expected type's contract.
    FieldNotInContract(String),
    /// The underlying runtime rejected the translated call.
    Runtime(MetamodelError),
}

impl fmt::Display for ProxyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotConformant(nc) => write!(f, "{nc}"),
            Self::NotInContract { method, arity } => {
                write!(
                    f,
                    "method `{method}/{arity}` is not in the expected type's contract"
                )
            }
            Self::FieldNotInContract(name) => {
                write!(f, "field `{name}` is not in the expected type's contract")
            }
            Self::Runtime(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ProxyError {}

impl From<MetamodelError> for ProxyError {
    fn from(e: MetamodelError) -> Self {
        ProxyError::Runtime(e)
    }
}

impl From<NonConformance> for ProxyError {
    fn from(e: NonConformance) -> Self {
        ProxyError::NotConformant(e)
    }
}

/// Result alias for proxy operations.
pub type Result<T> = std::result::Result<T, ProxyError>;

/// A dynamic proxy exposing an expected type `T` over an object whose
/// actual type `T'` merely conforms to `T`.
///
/// The proxy shares its [`Contract`] (expected type plus translation
/// table) and holds the object's handle; the object itself stays in the
/// runtime's heap. Built from [`ConformanceChecker::bind`], a proxy
/// shares the checker's cached contract, so building or cloning one is
/// a reference-count bump (like the transparent proxies .NET remoting
/// hands out).
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicProxy {
    contract: Arc<Contract>,
    handle: ObjHandle,
}

impl DynamicProxy {
    /// Builds a proxy by running the conformance check.
    ///
    /// # Errors
    /// [`ProxyError::NotConformant`] when `actual` fails the check
    /// against `expected`.
    pub fn try_new(
        expected: &TypeDescription,
        actual: &TypeDescription,
        handle: ObjHandle,
        checker: &ConformanceChecker,
        src_provider: &dyn DescriptionProvider,
        tgt_provider: &dyn DescriptionProvider,
    ) -> Result<DynamicProxy> {
        let contract = checker.bind(actual, expected, src_provider, tgt_provider)?;
        Ok(Self::from_contract(contract, handle))
    }

    /// Builds a proxy over a shared contract (e.g. the one
    /// [`ConformanceChecker::bind`] returned): no copy is made.
    pub fn from_contract(contract: Arc<Contract>, handle: ObjHandle) -> DynamicProxy {
        DynamicProxy { contract, handle }
    }

    /// Builds a proxy from an already-established conformance result,
    /// binding a fresh contract around it.
    pub fn from_conformance(
        expected: &TypeDescription,
        conformance: &Conformance,
        handle: ObjHandle,
    ) -> DynamicProxy {
        let contract = Contract::new(expected.clone(), conformance.clone());
        Self::from_contract(Arc::new(contract), handle)
    }

    /// Builds a proxy from an explicit binding.
    pub fn from_binding(
        expected: &TypeDescription,
        binding: ConformanceBinding,
        handle: ObjHandle,
    ) -> DynamicProxy {
        let contract = Contract::with_binding(expected.clone(), binding);
        Self::from_contract(Arc::new(contract), handle)
    }

    /// The wrapped object.
    pub fn handle(&self) -> ObjHandle {
        self.handle
    }

    /// The contract this proxy exposes (shared with the checker's cache
    /// when the proxy came from [`ConformanceChecker::bind`]).
    pub fn contract(&self) -> &Arc<Contract> {
        &self.contract
    }

    /// The expected (exposed) type description.
    pub fn expected(&self) -> &TypeDescription {
        self.contract.expected()
    }

    /// The translation table in use.
    pub fn binding(&self) -> &ConformanceBinding {
        self.contract.binding()
    }

    /// Whether this proxy is a pure pass-through (identity binding) —
    /// the case for identical, explicit and equivalent conformance.
    pub fn is_transparent(&self) -> bool {
        self.binding().is_identity()
    }

    /// Invokes a method *of the expected contract* on the wrapped object,
    /// translating name and argument order.
    ///
    /// # Errors
    /// [`ProxyError::NotInContract`] for methods outside `T`'s contract,
    /// or any runtime dispatch error.
    pub fn invoke(&self, rt: &mut Runtime, method: &str, args: &[Value]) -> Result<Value> {
        let mb =
            self.binding()
                .method(method, args.len())
                .ok_or_else(|| ProxyError::NotInContract {
                    method: method.to_string(),
                    arity: args.len(),
                })?;
        let actual_args = mb.reorder(args);
        Ok(rt.invoke(self.handle, &mb.actual_name, &actual_args)?)
    }

    /// Reads a field of the expected contract through the field binding.
    pub fn get_field(&self, rt: &Runtime, field: &str) -> Result<Value> {
        let fb = self
            .binding()
            .field(field)
            .ok_or_else(|| ProxyError::FieldNotInContract(field.to_string()))?;
        Ok(rt.get_field(self.handle, &fb.actual_name)?)
    }

    /// Writes a field of the expected contract through the field binding.
    pub fn set_field(&self, rt: &mut Runtime, field: &str, value: Value) -> Result<()> {
        let fb = self
            .binding()
            .field(field)
            .ok_or_else(|| ProxyError::FieldNotInContract(field.to_string()))?;
        Ok(rt.set_field(self.handle, &fb.actual_name, value)?)
    }
}

/// Direct (unproxied) invocation — the baseline of the Section 7.1
/// comparison. Exists so benches call the two paths through the same
/// shaped API.
///
/// # Errors
/// Any runtime dispatch error (unknown method, missing body, …).
pub fn invoke_direct(
    rt: &mut Runtime,
    handle: ObjHandle,
    method: &str,
    args: &[Value],
) -> std::result::Result<Value, MetamodelError> {
    rt.invoke(handle, method, args)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pti_conformance::ConformanceConfig;
    use pti_metamodel::{bodies, primitives, Assembly, ParamDef, TypeDef, Value, CTOR_NAME};

    /// Vendor A's contract and vendor B's differently-named implementation.
    fn setup() -> (Runtime, TypeDescription, TypeDescription, ObjHandle) {
        let expected = TypeDef::class("Person", "vendor-a")
            .field("name", primitives::STRING)
            .method("getName", vec![], primitives::STRING)
            .method(
                "setName",
                vec![ParamDef::new("n", primitives::STRING)],
                primitives::VOID,
            )
            .method(
                "tag",
                vec![
                    ParamDef::new("label", primitives::STRING),
                    ParamDef::new("num", primitives::INT32),
                ],
                primitives::STRING,
            )
            .ctor(vec![])
            .build();
        let received = TypeDef::class("Person", "vendor-b")
            .field("name", primitives::STRING)
            .method("getPersonName", vec![], primitives::STRING)
            .method(
                "setPersonName",
                vec![ParamDef::new("n", primitives::STRING)],
                primitives::VOID,
            )
            .method(
                "tagPerson",
                vec![
                    ParamDef::new("num", primitives::INT32),
                    ParamDef::new("label", primitives::STRING),
                ],
                primitives::STRING,
            )
            .ctor(vec![])
            .build();
        let g = received.guid;
        let mut rt = Runtime::new();
        Assembly::builder("vendor-b")
            .ty(received.clone())
            .body(g, "getPersonName", 0, bodies::getter("name"))
            .body(g, "setPersonName", 1, bodies::setter("name"))
            .body(
                g,
                "tagPerson",
                2,
                std::sync::Arc::new(|_rt: &mut Runtime, _recv, args: &[Value]| {
                    let num = args[0].as_i32()?;
                    let label = args[1].as_str()?;
                    Ok(Value::from(format!("{label}#{num}")))
                }),
            )
            .body(g, CTOR_NAME, 0, bodies::ctor_assign(&[]))
            .build()
            .install(&mut rt)
            .unwrap();
        let h = rt.instantiate(&"Person".into(), &[]).unwrap();
        rt.set_field(h, "name", Value::from("ada")).unwrap();
        (
            rt,
            TypeDescription::from_def(&expected),
            TypeDescription::from_def(&received),
            h,
        )
    }

    fn proxy_for(
        rt: &Runtime,
        exp: &TypeDescription,
        act: &TypeDescription,
        h: ObjHandle,
    ) -> DynamicProxy {
        let checker = ConformanceChecker::new(ConformanceConfig::pragmatic());
        DynamicProxy::try_new(exp, act, h, &checker, &rt.registry, &rt.registry).unwrap()
    }

    #[test]
    fn translates_method_names() {
        let (mut rt, exp, act, h) = setup();
        let p = proxy_for(&rt, &exp, &act, h);
        assert_eq!(
            p.invoke(&mut rt, "getName", &[]).unwrap().as_str().unwrap(),
            "ada"
        );
        p.invoke(&mut rt, "setName", &[Value::from("grace")])
            .unwrap();
        assert_eq!(
            p.invoke(&mut rt, "getName", &[]).unwrap().as_str().unwrap(),
            "grace"
        );
    }

    #[test]
    fn translates_argument_order() {
        let (mut rt, exp, act, h) = setup();
        let p = proxy_for(&rt, &exp, &act, h);
        // Caller uses vendor A's order (label, num); implementation takes
        // (num, label).
        let out = p
            .invoke(&mut rt, "tag", &[Value::from("v"), Value::I32(7)])
            .unwrap();
        assert_eq!(out.as_str().unwrap(), "v#7");
    }

    #[test]
    fn enforces_expected_contract_only() {
        let (mut rt, exp, act, h) = setup();
        let p = proxy_for(&rt, &exp, &act, h);
        // The *actual* method name is hidden behind the contract.
        assert!(matches!(
            p.invoke(&mut rt, "getPersonName", &[]),
            Err(ProxyError::NotInContract { .. })
        ));
        assert!(
            matches!(
                p.invoke(&mut rt, "getName", &[Value::Null]),
                Err(ProxyError::NotInContract { .. }),
            ),
            "wrong arity is out of contract too"
        );
    }

    #[test]
    fn field_access_through_binding() {
        let (mut rt, exp, act, h) = setup();
        let p = proxy_for(&rt, &exp, &act, h);
        assert_eq!(p.get_field(&rt, "name").unwrap().as_str().unwrap(), "ada");
        p.set_field(&mut rt, "name", Value::from("lin")).unwrap();
        assert_eq!(p.get_field(&rt, "name").unwrap().as_str().unwrap(), "lin");
        assert!(matches!(
            p.get_field(&rt, "age"),
            Err(ProxyError::FieldNotInContract(_))
        ));
    }

    #[test]
    fn nonconformant_pair_cannot_be_proxied() {
        let (rt, exp, _, h) = setup();
        let alien = TypeDescription::from_def(&TypeDef::class("Alien", "x").build());
        let checker = ConformanceChecker::new(ConformanceConfig::pragmatic());
        let err = DynamicProxy::try_new(&exp, &alien, h, &checker, &rt.registry, &rt.registry)
            .unwrap_err();
        assert!(matches!(err, ProxyError::NotConformant(_)));
    }

    #[test]
    fn identity_conformance_gives_transparent_proxy() {
        let (rt, _, act, h) = setup();
        let checker = ConformanceChecker::new(ConformanceConfig::pragmatic());
        let p = DynamicProxy::try_new(&act, &act, h, &checker, &rt.registry, &rt.registry).unwrap();
        assert!(p.is_transparent());
    }

    #[test]
    fn proxies_from_one_checker_share_the_contract() {
        let (mut rt, exp, act, h) = setup();
        let checker = ConformanceChecker::new(ConformanceConfig::pragmatic());
        let a = DynamicProxy::try_new(&exp, &act, h, &checker, &rt.registry, &rt.registry).unwrap();
        let h2 = rt.instantiate(&"Person".into(), &[]).unwrap();
        rt.set_field(h2, "name", Value::from("lin")).unwrap();
        let b =
            DynamicProxy::try_new(&exp, &act, h2, &checker, &rt.registry, &rt.registry).unwrap();
        assert!(Arc::ptr_eq(a.contract(), b.contract()));
        assert_ne!(a.handle(), b.handle());
        assert_eq!(a.invoke(&mut rt, "getName", &[]).unwrap(), "ada".into());
        assert_eq!(b.invoke(&mut rt, "getName", &[]).unwrap(), "lin".into());
    }

    #[test]
    fn from_conformance_binds_the_same_contract_as_the_checker() {
        let (rt, exp, act, h) = setup();
        let checker = ConformanceChecker::new(ConformanceConfig::pragmatic());
        let conf = checker
            .check(&act, &exp, &rt.registry, &rt.registry)
            .unwrap();
        let rebuilt = DynamicProxy::from_conformance(&exp, &conf, h);
        let shared =
            DynamicProxy::try_new(&exp, &act, h, &checker, &rt.registry, &rt.registry).unwrap();
        assert_eq!(rebuilt, shared);
        assert_eq!(rebuilt.expected(), &exp);
    }

    #[test]
    fn renamed_binding_is_not_transparent() {
        let (rt, exp, act, h) = setup();
        let p = proxy_for(&rt, &exp, &act, h);
        assert!(!p.is_transparent());
    }

    #[test]
    fn direct_invocation_baseline_works() {
        let (mut rt, _, _, h) = setup();
        let v = invoke_direct(&mut rt, h, "getPersonName", &[]).unwrap();
        assert_eq!(v.as_str().unwrap(), "ada");
    }

    #[test]
    fn proxy_and_direct_agree() {
        let (mut rt, exp, act, h) = setup();
        let p = proxy_for(&rt, &exp, &act, h);
        let via_proxy = p.invoke(&mut rt, "getName", &[]).unwrap();
        let direct = invoke_direct(&mut rt, h, "getPersonName", &[]).unwrap();
        assert_eq!(via_proxy, direct);
    }
}
