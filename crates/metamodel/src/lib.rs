//! # pti-metamodel — the runtime type system substrate
//!
//! The paper *Pragmatic Type Interoperability* (Baehni, Eugster, Guerraoui,
//! Altherr; ICDCS 2003) builds on the .NET Common Type System and CLR
//! reflection. Rust has neither a class-based runtime nor reflection, so
//! this crate reconstructs the minimum the paper needs:
//!
//! * a **class/interface/primitive type system** ([`TypeDef`], [`Guid`]
//!   identity, [`TypeRegistry`]),
//! * **dynamic objects** whose state can be inspected and rebuilt
//!   ([`Value`], [`DynObject`], [`Heap`]),
//! * a **runtime** that instantiates types and dispatches invocations to
//!   native method bodies ([`Runtime`], [`Assembly`]),
//! * **introspection** producing the paper's shippable, non-recursive
//!   [`TypeDescription`]s.
//!
//! Everything downstream — conformance rules, serializers, dynamic
//! proxies, the optimistic transport protocol — operates on these types.
//!
//! ## Example
//!
//! ```
//! use pti_metamodel::{Assembly, Runtime, TypeDef, TypeName, Value, ParamDef, primitives, bodies};
//!
//! let person = TypeDef::class("Acme.Person", "vendor-a")
//!     .field("name", primitives::STRING)
//!     .method("getName", vec![], primitives::STRING)
//!     .ctor(vec![ParamDef::new("n", primitives::STRING)])
//!     .build();
//! let guid = person.guid;
//!
//! let asm = Assembly::builder("acme")
//!     .ty(person)
//!     .body(guid, "getName", 0, bodies::getter("name"))
//!     .ctor_body(guid, 1, bodies::ctor_assign(&["name"]))
//!     .build();
//!
//! let mut rt = Runtime::new();
//! asm.install(&mut rt)?;
//! let h = rt.instantiate(&TypeName::new("Acme.Person"), &[Value::from("ada")])?;
//! assert_eq!(rt.invoke(h, "getName", &[])?.as_str()?, "ada");
//! # Ok::<(), pti_metamodel::MetamodelError>(())
//! ```

#![warn(missing_docs)]

mod assembly;
mod descriptor;
mod error;
mod guid;
mod heap;
mod names;
mod pool;
pub mod primitives;
mod registry;
mod runtime;
mod types;
mod value;

pub use assembly::{Assembly, AssemblyBuilder};
pub use descriptor::{
    CtorDesc, DescriptionProvider, EmptyProvider, FieldDesc, MethodDesc, TypeDescription,
};
pub use error::{MetamodelError, Result};
pub use guid::{Guid, ParseGuidError};
pub use heap::Heap;
pub use names::{split_ident_tokens, TypeName};
pub use pool::{intern_local, Pool};
pub use registry::TypeRegistry;
pub use runtime::{bodies, NativeFn, Runtime, CTOR_NAME};
pub use types::{
    CtorSig, FieldDef, MethodSig, Modifiers, ParamDef, TypeDef, TypeDefBuilder, TypeKind,
};
pub use value::{DynObject, FieldIter, Fields, ObjHandle, Value};
