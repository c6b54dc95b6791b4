//! # pti-serialize — type-description and object serialization
//!
//! The paper's Sections 5 and 6: types travel as flat XML
//! *descriptions* ([`description_to_xml`]), objects travel inside a
//! hybrid XML *envelope* ([`ObjectEnvelope`], Figure 3; its compact
//! binary form decodes in place as an [`EnvelopeView`]) whose payload is
//! either SOAP-style XML ([`to_soap`]) or a compact binary form
//! ([`to_binary`]) — our stand-ins for the .NET XML, SOAP and binary
//! formatters the paper "indirectly evaluates".
//!
//! All serializers understand shared references and cycles (`id`/`href`
//! in SOAP, back-references in binary), and deserialization materializes
//! objects into a [`Runtime`](pti_metamodel::Runtime) whose types must
//! already be installed — the precondition the optimistic transport
//! protocol establishes.
//!
//! ## Example
//!
//! ```
//! use pti_metamodel::{Runtime, TypeDef, Value, primitives};
//! use pti_serialize::{to_soap_string, from_soap_string, to_binary, from_binary};
//!
//! let def = TypeDef::class("Point", "v")
//!     .field("x", primitives::INT32)
//!     .field("y", primitives::INT32)
//!     .ctor(vec![])
//!     .build();
//! let mut rt = Runtime::new();
//! rt.register_type(def)?;
//! let p = rt.instantiate(&"Point".into(), &[])?;
//! rt.set_field(p, "x", pti_metamodel::Value::I32(3))?;
//!
//! let soap = to_soap_string(&rt, &Value::Obj(p))?;
//! let bin = to_binary(&rt, &Value::Obj(p))?;
//! assert!(bin.len() < soap.len(), "binary is the compact format");
//!
//! let p2 = from_soap_string(&mut rt, &soap)?.as_obj()?;
//! assert_eq!(rt.get_field(p2, "x")?.as_i32()?, 3);
//! let p3 = from_binary(&mut rt, &bin)?.as_obj()?;
//! assert_eq!(rt.get_field(p3, "x")?.as_i32()?, 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod base64;
mod binary;
mod cursor;
mod envelope;
mod error;
mod objects;
mod soap;
mod typedesc;

pub use binary::{from_binary, to_binary};
pub use envelope::{
    AssemblyEntry, AssemblyRef, EnvelopeView, EnvelopeWireFormat, ObjectEnvelope, Payload,
    PayloadFormat, PayloadView, PTIB_ENVELOPE_MAGIC,
};
pub use error::{Result, SerializeError};
pub use soap::{from_soap, from_soap_string, to_soap, to_soap_string};
pub use typedesc::{
    description_from_string, description_from_xml, description_from_xml_owned,
    description_to_string, description_to_xml,
};
