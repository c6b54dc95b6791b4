//! Compact binary object serialization (the paper's ".NET binary
//! formatter" stand-in).
//!
//! A tagged, varint-compressed pre-order encoding of the value graph with
//! back-references for shared/cyclic objects. Much denser and faster than
//! the SOAP form — the comparison between the two is part of the paper's
//! "indirect evaluation of the .NET serialization mechanisms".
//!
//! ## Format
//!
//! ```text
//! magic "PTIB", version u8
//! value := tag u8, payload
//!   0 null | 1 false | 2 true
//!   3 i32 (zigzag varint) | 4 i64 (zigzag varint) | 5 f64 (8B LE)
//!   6 str (len varint, utf8 bytes)
//!   7 array (len varint, values…)
//!   8 objdef (id varint, guid 16B, field-count varint,
//!             (name-str, value)…)
//!   9 objref (id varint)
//! ```

use crate::cursor::{GetBuf, PutBuf};
use pti_metamodel::{Guid, ObjHandle, Runtime, TypeName, Value};

use crate::error::{Result, SerializeError};
use crate::objects::{allocate, IdTable};

const MAGIC: &[u8; 4] = b"PTIB";
const VERSION: u8 = 1;

mod tag {
    pub(super) const NULL: u8 = 0;
    pub(super) const FALSE: u8 = 1;
    pub(super) const TRUE: u8 = 2;
    pub(super) const I32: u8 = 3;
    pub(super) const I64: u8 = 4;
    pub(super) const F64: u8 = 5;
    pub(super) const STR: u8 = 6;
    pub(super) const ARRAY: u8 = 7;
    pub(super) const OBJDEF: u8 = 8;
    pub(super) const OBJREF: u8 = 9;
}

pub(crate) fn put_varint(buf: &mut PutBuf, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

pub(crate) fn get_varint(buf: &mut GetBuf<'_>) -> Result<u64> {
    let mut v: u64 = 0;
    for shift in (0..64).step_by(7) {
        if !buf.has_remaining() {
            return Err(SerializeError::Malformed("truncated varint".into()));
        }
        let byte = buf.get_u8();
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(SerializeError::Malformed("varint too long".into()))
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

pub(crate) fn put_str(buf: &mut PutBuf, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.put_slice(s.as_bytes());
}

pub(crate) fn get_str(buf: &mut GetBuf<'_>) -> Result<String> {
    get_str_ref(buf).map(str::to_owned)
}

/// [`get_str`] borrowed from the input: the same checks and errors,
/// no copy.
pub(crate) fn get_str_ref<'a>(buf: &mut GetBuf<'a>) -> Result<&'a str> {
    let len = get_varint(buf)? as usize;
    if buf.remaining() < len {
        return Err(SerializeError::Malformed("truncated string".into()));
    }
    std::str::from_utf8(buf.take(len)).map_err(|_| SerializeError::Malformed("invalid utf8".into()))
}

/// Serializes a value graph to the compact binary form.
///
/// # Errors
/// Dangling handles or unregistered object types.
pub fn to_binary(rt: &Runtime, value: &Value) -> Result<Vec<u8>> {
    let mut buf = PutBuf::with_capacity(128);
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);
    let mut enc = Encoder {
        rt,
        ids: IdTable::new(),
        next_id: 1,
    };
    enc.encode(value, &mut buf)?;
    Ok(buf.into_vec())
}

struct Encoder<'r> {
    rt: &'r Runtime,
    ids: IdTable<ObjHandle, u64>,
    next_id: u64,
}

impl<'r> Encoder<'r> {
    fn encode(&mut self, value: &Value, buf: &mut PutBuf) -> Result<()> {
        match value {
            Value::Null => buf.put_u8(tag::NULL),
            Value::Bool(false) => buf.put_u8(tag::FALSE),
            Value::Bool(true) => buf.put_u8(tag::TRUE),
            Value::I32(v) => {
                buf.put_u8(tag::I32);
                put_varint(buf, zigzag(i64::from(*v)));
            }
            Value::I64(v) => {
                buf.put_u8(tag::I64);
                put_varint(buf, zigzag(*v));
            }
            Value::F64(v) => {
                buf.put_u8(tag::F64);
                buf.put_f64_le(*v);
            }
            Value::Str(s) => {
                buf.put_u8(tag::STR);
                put_str(buf, s);
            }
            Value::Array(items) => {
                buf.put_u8(tag::ARRAY);
                put_varint(buf, items.len() as u64);
                for item in items {
                    self.encode(item, buf)?;
                }
            }
            Value::Obj(handle) => self.encode_object(*handle, buf)?,
        }
        Ok(())
    }

    fn encode_object(&mut self, handle: ObjHandle, buf: &mut PutBuf) -> Result<()> {
        if let Some(id) = self.ids.get(handle) {
            buf.put_u8(tag::OBJREF);
            put_varint(buf, id);
            return Ok(());
        }
        let id = self.next_id;
        self.next_id += 1;
        self.ids.insert(handle, id);
        // Borrowed for `'r`, not through `self`, so nested objects encode
        // while the fields are read in place.
        let rt: &'r Runtime = self.rt;
        let obj = rt.heap.get(handle)?;
        buf.put_u8(tag::OBJDEF);
        put_varint(buf, id);
        buf.put_slice(&obj.type_guid.to_bytes());
        put_varint(buf, obj.fields.len() as u64);
        for (name, value) in &obj.fields {
            put_str(buf, name);
            self.encode(value, buf)?;
        }
        Ok(())
    }
}

/// Deserializes a binary payload, materializing objects into the runtime.
///
/// # Errors
/// Bad magic/version, truncation, unknown types, dangling references.
pub fn from_binary(rt: &mut Runtime, data: &[u8]) -> Result<Value> {
    let mut buf = GetBuf::new(data);
    if buf.remaining() < 5 {
        return Err(SerializeError::UnsupportedFormat("too short".into()));
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(SerializeError::UnsupportedFormat("bad magic".into()));
    }
    let version = buf.get_u8();
    if version != VERSION {
        return Err(SerializeError::UnsupportedFormat(format!(
            "version {version}"
        )));
    }
    let mut dec = Decoder {
        rt,
        by_id: IdTable::new(),
    };
    let v = dec.decode(&mut buf)?;
    if buf.has_remaining() {
        return Err(SerializeError::Malformed("trailing bytes".into()));
    }
    Ok(v)
}

struct Decoder<'r> {
    rt: &'r mut Runtime,
    by_id: IdTable<u64, ObjHandle>,
}

impl Decoder<'_> {
    fn decode(&mut self, buf: &mut GetBuf<'_>) -> Result<Value> {
        if !buf.has_remaining() {
            return Err(SerializeError::Malformed("truncated value".into()));
        }
        let t = buf.get_u8();
        Ok(match t {
            tag::NULL => Value::Null,
            tag::FALSE => Value::Bool(false),
            tag::TRUE => Value::Bool(true),
            tag::I32 => {
                let v = unzigzag(get_varint(buf)?);
                Value::I32(
                    i32::try_from(v)
                        .map_err(|_| SerializeError::Malformed("i32 out of range".into()))?,
                )
            }
            tag::I64 => Value::I64(unzigzag(get_varint(buf)?)),
            tag::F64 => {
                if buf.remaining() < 8 {
                    return Err(SerializeError::Malformed("truncated f64".into()));
                }
                Value::F64(buf.get_f64_le())
            }
            tag::STR => Value::Str(get_str(buf)?),
            tag::ARRAY => {
                let len = get_varint(buf)? as usize;
                if len > buf.remaining() {
                    // Each element takes at least one byte; cheap sanity
                    // bound against hostile length prefixes.
                    return Err(SerializeError::Malformed("array length too large".into()));
                }
                let mut items = Vec::with_capacity(len);
                for _ in 0..len {
                    items.push(self.decode(buf)?);
                }
                Value::Array(items)
            }
            tag::OBJDEF => self.decode_object(buf)?,
            tag::OBJREF => {
                let id = get_varint(buf)?;
                let handle = self
                    .by_id
                    .get(id)
                    .ok_or(SerializeError::DanglingReference(id))?;
                Value::Obj(handle)
            }
            other => return Err(SerializeError::Malformed(format!("unknown tag {other}"))),
        })
    }

    fn decode_object(&mut self, buf: &mut GetBuf<'_>) -> Result<Value> {
        let id = get_varint(buf)?;
        if buf.remaining() < 16 {
            return Err(SerializeError::Malformed("truncated guid".into()));
        }
        let mut gb = [0u8; 16];
        buf.copy_to_slice(&mut gb);
        let guid = Guid::from_bytes(gb);
        let handle = allocate(self.rt, guid, || TypeName::new("<binary>"))?;
        self.by_id.insert(id, handle);
        let nfields = get_varint(buf)? as usize;
        if nfields > buf.remaining() {
            return Err(SerializeError::Malformed("field count too large".into()));
        }
        for _ in 0..nfields {
            let name = get_str_ref(buf)?;
            let value = self.decode(buf)?;
            // The blank instance already holds every declared field, so
            // only a field the type does not declare allocates its name.
            self.rt.heap.get_mut(handle)?.set(name, value);
        }
        Ok(Value::Obj(handle))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pti_metamodel::{primitives, ParamDef, TypeDef};

    fn runtime() -> Runtime {
        let def = TypeDef::class("Person", "v")
            .field("name", primitives::STRING)
            .field("age", primitives::INT32)
            .field("friend", "Person")
            .ctor(vec![ParamDef::new("n", primitives::STRING)])
            .build();
        let mut rt = Runtime::new();
        rt.register_type(def).unwrap();
        rt
    }

    fn roundtrip(rt: &mut Runtime, v: &Value) -> Value {
        let bytes = to_binary(rt, v).unwrap();
        from_binary(rt, &bytes).unwrap()
    }

    #[test]
    fn scalars_roundtrip() {
        let mut rt = runtime();
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::I32(0),
            Value::I32(i32::MIN),
            Value::I32(i32::MAX),
            Value::I64(i64::MIN),
            Value::I64(i64::MAX),
            Value::F64(-1234.5),
            Value::Str(String::new()),
            Value::Str("unicode 世界 😀".into()),
        ] {
            assert_eq!(roundtrip(&mut rt, &v), v);
        }
    }

    #[test]
    fn nan_bits_preserved() {
        let mut rt = runtime();
        let bytes = to_binary(&rt, &Value::F64(f64::NAN)).unwrap();
        let back = from_binary(&mut rt, &bytes).unwrap();
        assert!(back.as_f64().unwrap().is_nan());
    }

    #[test]
    fn arrays_roundtrip() {
        let mut rt = runtime();
        let v = Value::Array(vec![
            Value::I32(1),
            Value::Array(vec![Value::Str("nested".into())]),
            Value::Null,
        ]);
        assert_eq!(roundtrip(&mut rt, &v), v);
    }

    #[test]
    fn objects_and_cycles_roundtrip() {
        let mut rt = runtime();
        let a = rt
            .allocate_raw(&rt.registry.resolve(&"Person".into()).unwrap().clone())
            .unwrap();
        let b = rt
            .allocate_raw(&rt.registry.resolve(&"Person".into()).unwrap().clone())
            .unwrap();
        rt.heap.get_mut(a).unwrap().set("name", Value::from("a"));
        rt.heap.get_mut(b).unwrap().set("name", Value::from("b"));
        rt.set_field(a, "friend", Value::Obj(b)).unwrap();
        rt.set_field(b, "friend", Value::Obj(a)).unwrap();
        let a2 = roundtrip(&mut rt, &Value::Obj(a)).as_obj().unwrap();
        let b2 = rt.get_field(a2, "friend").unwrap().as_obj().unwrap();
        assert_eq!(rt.get_field(b2, "name").unwrap().as_str().unwrap(), "b");
        assert_eq!(rt.get_field(b2, "friend").unwrap().as_obj().unwrap(), a2);
    }

    #[test]
    fn binary_is_denser_than_soap() {
        let mut rt = runtime();
        let h = rt
            .allocate_raw(&rt.registry.resolve(&"Person".into()).unwrap().clone())
            .unwrap();
        rt.heap
            .get_mut(h)
            .unwrap()
            .set("name", Value::from("a reasonably long name"));
        rt.set_field(h, "age", Value::I32(123)).unwrap();
        let bin = to_binary(&rt, &Value::Obj(h)).unwrap();
        let soap = crate::soap::to_soap_string(&rt, &Value::Obj(h)).unwrap();
        assert!(
            bin.len() < soap.len(),
            "binary {} bytes vs soap {} bytes",
            bin.len(),
            soap.len()
        );
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut rt = runtime();
        assert!(matches!(
            from_binary(&mut rt, b"JUNK\x01\x00"),
            Err(SerializeError::UnsupportedFormat(_))
        ));
        assert!(matches!(
            from_binary(&mut rt, b"PTIB\x63\x00"),
            Err(SerializeError::UnsupportedFormat(_))
        ));
        assert!(from_binary(&mut rt, b"PT").is_err());
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let mut rt = runtime();
        let full = to_binary(&rt, &Value::Str("hello".into())).unwrap();
        for cut in 5..full.len() {
            assert!(from_binary(&mut rt, &full[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut rt = runtime();
        let mut bytes = to_binary(&rt, &Value::Null).unwrap();
        bytes.push(0);
        assert!(matches!(
            from_binary(&mut rt, &bytes),
            Err(SerializeError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_hostile_lengths() {
        let mut rt = runtime();
        // array claiming u64::MAX elements
        let mut bytes = b"PTIB\x01\x07".to_vec();
        bytes.extend([0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01]);
        assert!(from_binary(&mut rt, &bytes).is_err());
    }

    #[test]
    fn varint_boundaries() {
        let mut rt = runtime();
        for v in [
            0i64,
            1,
            -1,
            127,
            128,
            -128,
            1 << 20,
            -(1 << 42),
            i64::MAX,
            i64::MIN,
        ] {
            assert_eq!(roundtrip(&mut rt, &Value::I64(v)), Value::I64(v));
        }
    }
}
