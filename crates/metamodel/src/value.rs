//! Runtime values and dynamic objects.
//!
//! Rust has no runtime reflection, so objects exchanged between peers are
//! *dynamic*: a [`DynObject`] is a table of named field values tagged
//! with the [`Guid`] of its type. This reproduces what the CLR gives the
//! paper for free — the ability to inspect and reconstruct any object's
//! state. Like the CLR, which keeps a type's field layout once per type
//! rather than once per instance, every instance of a type shares one
//! list of its field names ([`Fields`]) and owns only the values.

use std::collections::{btree_map, BTreeMap};
use std::fmt;
use std::iter::{Peekable, Zip};
use std::slice;
use std::sync::Arc;

use crate::guid::Guid;

/// A handle to an object living in a [`Heap`](crate::heap::Heap).
///
/// Handles are generational: using a handle after its object was removed
/// is detected and reported as
/// [`DanglingHandle`](crate::error::MetamodelError::DanglingHandle) rather
/// than silently reading another object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjHandle {
    pub(crate) index: u32,
    pub(crate) generation: u32,
}

impl ObjHandle {
    /// Raw slot index (stable while the object is alive).
    pub fn index(&self) -> u32 {
        self.index
    }

    /// Generation counter distinguishing reuses of the same slot.
    pub fn generation(&self) -> u32 {
        self.generation
    }
}

impl fmt::Display for ObjHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj#{}.{}", self.index, self.generation)
    }
}

/// A runtime value: the universe of things fields can hold and methods can
/// take or return.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// The null reference.
    Null,
    /// A boolean.
    Bool(bool),
    /// A 32-bit integer.
    I32(i32),
    /// A 64-bit integer.
    I64(i64),
    /// A 64-bit float.
    F64(f64),
    /// A string.
    Str(String),
    /// A reference to a heap object.
    Obj(ObjHandle),
    /// An array of values.
    Array(Vec<Value>),
}

impl Value {
    /// Short human-readable kind name, for diagnostics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "Boolean",
            Value::I32(_) => "Int32",
            Value::I64(_) => "Int64",
            Value::F64(_) => "Float64",
            Value::Str(_) => "String",
            Value::Obj(_) => "object",
            Value::Array(_) => "array",
        }
    }

    /// Extracts a string, or a type-mismatch error.
    pub fn as_str(&self) -> crate::error::Result<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(mismatch("String", other)),
        }
    }

    /// Extracts a 32-bit integer, or a type-mismatch error.
    pub fn as_i32(&self) -> crate::error::Result<i32> {
        match self {
            Value::I32(v) => Ok(*v),
            other => Err(mismatch("Int32", other)),
        }
    }

    /// Extracts a 64-bit integer, or a type-mismatch error.
    pub fn as_i64(&self) -> crate::error::Result<i64> {
        match self {
            Value::I64(v) => Ok(*v),
            other => Err(mismatch("Int64", other)),
        }
    }

    /// Extracts a float, or a type-mismatch error.
    pub fn as_f64(&self) -> crate::error::Result<f64> {
        match self {
            Value::F64(v) => Ok(*v),
            other => Err(mismatch("Float64", other)),
        }
    }

    /// Extracts a boolean, or a type-mismatch error.
    pub fn as_bool(&self) -> crate::error::Result<bool> {
        match self {
            Value::Bool(v) => Ok(*v),
            other => Err(mismatch("Boolean", other)),
        }
    }

    /// Extracts an object handle, or a type-mismatch error.
    pub fn as_obj(&self) -> crate::error::Result<ObjHandle> {
        match self {
            Value::Obj(h) => Ok(*h),
            other => Err(mismatch("object reference", other)),
        }
    }

    /// Extracts an array slice, or a type-mismatch error.
    pub fn as_array(&self) -> crate::error::Result<&[Value]> {
        match self {
            Value::Array(v) => Ok(v),
            other => Err(mismatch("array", other)),
        }
    }

    /// `true` for [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

fn mismatch(expected: &str, found: &Value) -> crate::error::MetamodelError {
    crate::error::MetamodelError::TypeMismatch {
        expected: expected.to_string(),
        found: found.kind_name().to_string(),
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::I32(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<ObjHandle> for Value {
    fn from(v: ObjHandle) -> Self {
        Value::Obj(v)
    }
}
impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::Array(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::I32(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v:?}"),
            Value::Obj(h) => write!(f, "{h}"),
            Value::Array(vs) => {
                f.write_str("[")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
        }
    }
}

/// A dynamic object: the runtime state of an instance, tagged with the
/// identity of its type.
#[derive(Debug, Clone, PartialEq)]
pub struct DynObject {
    /// Identity of the object's type.
    pub type_guid: Guid,
    /// Field values by name: the fields the type declares (flattened
    /// over the superclass chain at instantiation time) and any the
    /// object was given beyond them.
    pub fields: Fields,
}

impl DynObject {
    /// Creates an object of the given type identity with no fields set.
    pub fn new(type_guid: Guid) -> DynObject {
        DynObject {
            type_guid,
            fields: Fields::default(),
        }
    }

    /// Reads a field value.
    pub fn get(&self, field: &str) -> Option<&Value> {
        self.fields.get(field)
    }

    /// Writes a field value, returning the previous one if present.
    /// Replacing a value allocates nothing.
    pub fn set(&mut self, field: &str, value: Value) -> Option<Value> {
        self.fields.insert(field, value)
    }
}

/// The fields of a [`DynObject`], visited in name order.
///
/// The names a type declares are one sorted list shared, by reference
/// count, with every instance cloned from the type's template, so an
/// instance owns only its values: one `Vec` parallel to that list. A
/// name the type does not declare (a shadowed field a deserializer
/// restores, or one written through [`DynObject::set`]) goes into an
/// ordered map the object owns, at logarithmic cost per name. Iteration
/// merges the two and so visits exactly the order of a
/// `BTreeMap<String, Value>` holding the same fields, which is the order
/// the serializers write.
#[derive(Clone)]
pub struct Fields {
    /// Sorted, shared by every instance of one type.
    declared: Arc<[Box<str>]>,
    /// `values[i]` belongs to `declared[i]`.
    values: Vec<Value>,
    /// Names outside `declared`.
    undeclared: BTreeMap<Box<str>, Value>,
}

impl Fields {
    /// A table declaring each `(name, initial value)` pair; a name given
    /// twice keeps its last value. Clones of the result share its names.
    pub fn declare(fields: impl IntoIterator<Item = (String, Value)>) -> Fields {
        let sorted: BTreeMap<String, Value> = fields.into_iter().collect();
        let (names, values): (Vec<Box<str>>, Vec<Value>) = sorted
            .into_iter()
            .map(|(name, value)| (name.into_boxed_str(), value))
            .unzip();
        Fields {
            declared: names.into(),
            values,
            undeclared: BTreeMap::new(),
        }
    }

    /// Number of fields, declared and undeclared.
    pub fn len(&self) -> usize {
        self.values.len() + self.undeclared.len()
    }

    /// Whether the table holds no field.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn slot(&self, name: &str) -> Option<usize> {
        self.declared.binary_search_by(|n| (**n).cmp(name)).ok()
    }

    /// Reads a field value.
    pub fn get(&self, name: &str) -> Option<&Value> {
        match self.slot(name) {
            Some(i) => self.values.get(i),
            None => self.undeclared.get(name),
        }
    }

    /// Mutably reads a field value.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Value> {
        match self.slot(name) {
            Some(i) => self.values.get_mut(i),
            None => self.undeclared.get_mut(name),
        }
    }

    /// Writes a field value, returning the previous one if present. Only
    /// a name new to the object allocates (a copy of the name).
    pub fn insert(&mut self, name: &str, value: Value) -> Option<Value> {
        match self.get_mut(name) {
            Some(slot) => Some(std::mem::replace(slot, value)),
            None => self.undeclared.insert(name.into(), value),
        }
    }

    /// Whether both tables share one declared-name list.
    #[cfg(test)]
    pub(crate) fn shares_names_with(&self, other: &Fields) -> bool {
        Arc::ptr_eq(&self.declared, &other.declared)
    }

    /// The fields as `(name, value)` pairs, in name order.
    pub fn iter(&self) -> FieldIter<'_> {
        FieldIter {
            declared: self.declared.iter().zip(self.values.iter()).peekable(),
            undeclared: self.undeclared.iter().peekable(),
        }
    }

    /// The field names, in name order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.iter().map(|(name, _)| name)
    }

    /// The field values, in name order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.iter().map(|(_, value)| value)
    }
}

impl Default for Fields {
    /// An empty table.
    fn default() -> Fields {
        Fields::declare([])
    }
}

impl PartialEq for Fields {
    /// Equal when both hold the same names with equal values, however
    /// each splits them between declared and undeclared.
    fn eq(&self, other: &Fields) -> bool {
        if Arc::ptr_eq(&self.declared, &other.declared) {
            return self.values == other.values && self.undeclared == other.undeclared;
        }
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Fields {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a Fields {
    type Item = (&'a str, &'a Value);
    type IntoIter = FieldIter<'a>;

    fn into_iter(self) -> FieldIter<'a> {
        self.iter()
    }
}

/// Iterator over a [`Fields`] table in name order: a merge of the
/// declared and the undeclared names, which never overlap.
pub struct FieldIter<'a> {
    declared: Peekable<Zip<slice::Iter<'a, Box<str>>, slice::Iter<'a, Value>>>,
    undeclared: Peekable<btree_map::Iter<'a, Box<str>, Value>>,
}

impl<'a> Iterator for FieldIter<'a> {
    type Item = (&'a str, &'a Value);

    fn next(&mut self) -> Option<(&'a str, &'a Value)> {
        let declared_first = match (self.declared.peek(), self.undeclared.peek()) {
            (Some((d, _)), Some((u, _))) => d < u,
            (declared, _) => declared.is_some(),
        };
        let (name, value) = if declared_first {
            self.declared.next()?
        } else {
            self.undeclared.next()?
        };
        Some((name, value))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.declared.len() + self.undeclared.len();
        (n, Some(n))
    }
}

impl ExactSizeIterator for FieldIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_accessors() {
        assert_eq!(Value::from(3i32).as_i32().unwrap(), 3);
        assert_eq!(Value::from(3i64).as_i64().unwrap(), 3);
        assert_eq!(Value::from(2.5f64).as_f64().unwrap(), 2.5);
        assert!(Value::from(true).as_bool().unwrap());
        assert_eq!(Value::from("hi").as_str().unwrap(), "hi");
        let arr = Value::from(vec![Value::I32(1), Value::I32(2)]);
        assert_eq!(arr.as_array().unwrap().len(), 2);
    }

    #[test]
    fn accessor_mismatch_reports_kinds() {
        let err = Value::I32(1).as_str().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("String"), "{msg}");
        assert!(msg.contains("Int32"), "{msg}");
    }

    #[test]
    fn null_checks() {
        assert!(Value::Null.is_null());
        assert!(!Value::Bool(false).is_null());
        assert!(Value::Null.as_obj().is_err());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::Str("a".into()).to_string(), "\"a\"");
        assert_eq!(
            Value::Array(vec![Value::I32(1), Value::Null]).to_string(),
            "[1, null]"
        );
    }

    #[test]
    fn dyn_object_fields() {
        let mut o = DynObject::new(Guid::derive("T", "s"));
        assert!(o.get("name").is_none());
        assert!(o.set("name", Value::from("alice")).is_none());
        assert_eq!(o.get("name").unwrap().as_str().unwrap(), "alice");
        let prev = o.set("name", Value::from("bob")).unwrap();
        assert_eq!(prev.as_str().unwrap(), "alice");
    }
}
