//! SOAP-style XML object serialization (the paper's "SOAP serialization").
//!
//! Objects are encoded as a SOAP-1.1-style `<Envelope><Body>…` document
//! using section-5-encoding conventions: every object gets an `id`,
//! repeated occurrences (including cycles) become `<ref href="…"/>`
//! back-references. The paper measures exactly this path in Section 7.3
//! (serializing an instance is far more expensive than deserializing it —
//! "creating a SOAP structure from an object is more complex than the
//! opposite", a shape our implementation reproduces since serialization
//! walks the heap and builds/escapes the whole XML tree).

use std::borrow::Cow;

use pti_metamodel::{Guid, ObjHandle, Runtime, TypeName, Value};
use pti_xml::Element;

use crate::error::{Result, SerializeError};
use crate::objects::{allocate, IdTable};

/// Serializes a value (usually an object reference) into a SOAP envelope
/// element.
///
/// # Errors
/// Dangling handles, or objects whose type is no longer registered.
pub fn to_soap(rt: &Runtime, value: &Value) -> Result<Element> {
    let mut enc = Encoder {
        rt,
        ids: IdTable::new(),
        next_id: 1,
    };
    let body = enc.encode(value)?;
    // SOAP-1.1 envelope with the section-5 encoding namespaces, as the
    // .NET formatter emits.
    Ok(Element::new("Envelope")
        .attr(
            "xmlns:SOAP-ENV",
            "http://schemas.xmlsoap.org/soap/envelope/",
        )
        .attr("xmlns:xsi", "http://www.w3.org/2001/XMLSchema-instance")
        .attr("xmlns:xsd", "http://www.w3.org/2001/XMLSchema")
        .child(Element::new("Body").child(body)))
}

/// Serializes straight to the compact XML string.
pub fn to_soap_string(rt: &Runtime, value: &Value) -> Result<String> {
    Ok(to_soap(rt, value)?.to_compact())
}

struct Encoder<'r> {
    rt: &'r Runtime,
    ids: IdTable<ObjHandle, u64>,
    next_id: u64,
}

impl Encoder<'_> {
    fn encode(&mut self, value: &Value) -> Result<Element> {
        Ok(match value {
            Value::Null => Element::new("null").attr("xsi:nil", "true"),
            Value::Bool(b) => Element::new("boolean")
                .attr("xsi:type", "xsd:boolean")
                .text(b.to_string()),
            Value::I32(v) => Element::new("int")
                .attr("xsi:type", "xsd:int")
                .text(v.to_string()),
            Value::I64(v) => Element::new("long")
                .attr("xsi:type", "xsd:long")
                .text(v.to_string()),
            Value::F64(v) => Element::new("double")
                .attr("xsi:type", "xsd:double")
                .text(format_f64(*v)),
            Value::Str(s) => Element::new("string")
                .attr("xsi:type", "xsd:string")
                .text(s.clone()),
            Value::Array(items) => {
                let mut arr = Element::new("array");
                for item in items {
                    arr.push_child(self.encode(item)?);
                }
                arr
            }
            Value::Obj(handle) => self.encode_object(*handle)?,
        })
    }

    fn encode_object(&mut self, handle: ObjHandle) -> Result<Element> {
        if let Some(id) = self.ids.get(handle) {
            return Ok(Element::new("ref").attr("href", format!("#{id}")));
        }
        let id = self.next_id;
        self.next_id += 1;
        self.ids.insert(handle, id);
        let obj = self.rt.heap.get(handle)?;
        let def = self.rt.registry.require(obj.type_guid)?;
        let mut el = Element::new("object")
            .attr("id", id.to_string())
            .attr("type", def.name.full())
            .attr("guid", def.guid.to_string());
        // Fields iterate in name order, declared and undeclared merged,
        // so the wire order is stable.
        for (name, value) in &obj.fields {
            el.push_child(
                Element::new("field")
                    .attr("name", name)
                    .child(self.encode(value)?),
            );
        }
        Ok(el)
    }
}

/// Deserializes a SOAP envelope back into a value, materializing objects
/// into the runtime's heap.
///
/// Object elements carry the type GUID; the type (and its assembly) must
/// already be installed — exactly the precondition the paper's transport
/// protocol establishes before deserializing.
///
/// # Errors
/// Unknown types, malformed envelopes, dangling `href`s.
pub fn from_soap(rt: &mut Runtime, envelope: &Element) -> Result<Value> {
    if envelope.name != "Envelope" {
        return Err(SerializeError::Malformed(format!(
            "expected <Envelope>, got <{}>",
            envelope.name
        )));
    }
    let body = envelope
        .find("Body")
        .ok_or_else(|| SerializeError::Malformed("missing <Body>".into()))?;
    let root = body
        .elements()
        .next()
        .ok_or_else(|| SerializeError::Malformed("empty <Body>".into()))?;
    let mut dec = Decoder {
        rt,
        by_id: IdTable::new(),
    };
    dec.decode(root)
}

/// Parses and deserializes from the XML string form in a single
/// streaming pass — no intermediate DOM is built, mirroring how
/// XmlReader-style deserializers consume SOAP (and why deserialization
/// is the cheap direction in the paper's Section 7.3).
///
/// # Errors
/// Same conditions as [`from_soap`]; error positions are not reported
/// (use the DOM path when debugging malformed payloads).
pub fn from_soap_string(rt: &mut Runtime, xml: &str) -> Result<Value> {
    stream::decode(rt, xml)
}

struct Decoder<'r> {
    rt: &'r mut Runtime,
    by_id: IdTable<u64, ObjHandle>,
}

impl Decoder<'_> {
    fn decode(&mut self, el: &Element) -> Result<Value> {
        match el.name.as_str() {
            "null" => Ok(Value::Null),
            "boolean" => match el.text_content().as_str() {
                "true" => Ok(Value::Bool(true)),
                "false" => Ok(Value::Bool(false)),
                other => Err(SerializeError::Malformed(format!("bad boolean `{other}`"))),
            },
            "int" => el
                .text_content()
                .parse()
                .map(Value::I32)
                .map_err(|_| SerializeError::Malformed("bad int".into())),
            "long" => el
                .text_content()
                .parse()
                .map(Value::I64)
                .map_err(|_| SerializeError::Malformed("bad long".into())),
            "double" => parse_f64(&el.text_content())
                .map(Value::F64)
                .ok_or_else(|| SerializeError::Malformed("bad double".into())),
            "string" => Ok(Value::Str(el.text_content())),
            "array" => {
                let mut items = Vec::new();
                for c in el.elements() {
                    items.push(self.decode(c)?);
                }
                Ok(Value::Array(items))
            }
            "ref" => {
                let href = el
                    .get_attr("href")
                    .and_then(|h| h.strip_prefix('#'))
                    .ok_or_else(|| SerializeError::Malformed("bad href".into()))?;
                let id: u64 = href
                    .parse()
                    .map_err(|_| SerializeError::Malformed("bad href id".into()))?;
                let handle = self
                    .by_id
                    .get(id)
                    .ok_or(SerializeError::DanglingReference(id))?;
                Ok(Value::Obj(handle))
            }
            "object" => self.decode_object(el),
            other => Err(SerializeError::Malformed(format!(
                "unknown value element <{other}>"
            ))),
        }
    }

    fn decode_object(&mut self, el: &Element) -> Result<Value> {
        let id: u64 = el
            .get_attr("id")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| SerializeError::Malformed("object missing id".into()))?;
        let ty = el
            .get_attr("type")
            .ok_or_else(|| SerializeError::Malformed("object missing type".into()))?;
        let guid: Guid = el
            .get_attr("guid")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| SerializeError::Malformed("object missing guid".into()))?;
        // Allocate before decoding fields so cyclic references resolve.
        let handle = allocate(self.rt, guid, || TypeName::new(ty))?;
        self.by_id.insert(id, handle);
        for f in el.find_all("field") {
            let fname = f
                .get_attr("name")
                .ok_or_else(|| SerializeError::Malformed("field missing name".into()))?;
            let inner = f
                .elements()
                .next()
                .ok_or_else(|| SerializeError::Malformed("field missing value".into()))?;
            let value = self.decode(inner)?;
            // Deserialization restores raw state, including fields the
            // local definition may not declare (shadowed ones) — write
            // directly to the object rather than through the checker.
            self.rt.heap.get_mut(handle)?.set(fname, value);
        }
        Ok(Value::Obj(handle))
    }
}

/// Streaming SOAP decoder: scans the XML text once, materializing values
/// directly — the deserialization fast path.
mod stream {
    use super::*;

    pub(super) fn decode(rt: &mut Runtime, xml: &str) -> Result<Value> {
        let mut d = Decoder {
            rt,
            by_id: IdTable::new(),
            input: xml,
            bytes: xml.as_bytes(),
            pos: 0,
        };
        let open = d.open_tag()?;
        if open.name != "Envelope" || open.self_closing {
            return Err(malformed("expected <Envelope>"));
        }
        let body = d.open_tag()?;
        if body.name != "Body" || body.self_closing {
            return Err(malformed("expected <Body>"));
        }
        let value = d.value()?;
        d.close_tag("Body")?;
        d.close_tag("Envelope")?;
        Ok(value)
    }

    fn malformed(msg: &str) -> SerializeError {
        SerializeError::Malformed(msg.to_string())
    }

    struct Tag<'a> {
        name: &'a str,
        self_closing: bool,
        // Only the attributes the schema uses are retained; values that
        // can contain entities (field names) are unescaped, the rest are
        // parsed in place.
        id: Option<u64>,
        guid: Option<Guid>,
        ty: Option<&'a str>,
        href: Option<&'a str>,
        field_name: Option<Cow<'a, str>>,
    }

    struct Decoder<'r, 'a> {
        rt: &'r mut Runtime,
        by_id: IdTable<u64, ObjHandle>,
        input: &'a str,
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Decoder<'_, 'a> {
        fn skip_ws(&mut self) {
            while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\r' | b'\n')) {
                self.pos += 1;
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn name(&mut self) -> Result<&'a str> {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':') || b >= 0x80
                {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            if self.pos == start {
                return Err(malformed("expected a name"));
            }
            Ok(&self.input[start..self.pos])
        }

        /// Parses `<name attrs…>` or `<name attrs…/>`.
        fn open_tag(&mut self) -> Result<Tag<'a>> {
            self.skip_ws();
            if self.peek() != Some(b'<') {
                return Err(malformed("expected a start tag"));
            }
            self.pos += 1;
            let name = self.name()?;
            let mut tag = Tag {
                name,
                self_closing: false,
                id: None,
                guid: None,
                ty: None,
                href: None,
                field_name: None,
            };
            loop {
                self.skip_ws();
                match self.peek() {
                    Some(b'/') => {
                        self.pos += 1;
                        if self.peek() != Some(b'>') {
                            return Err(malformed("malformed self-closing tag"));
                        }
                        self.pos += 1;
                        tag.self_closing = true;
                        return Ok(tag);
                    }
                    Some(b'>') => {
                        self.pos += 1;
                        return Ok(tag);
                    }
                    Some(_) => {
                        let key = self.name()?;
                        self.skip_ws();
                        if self.peek() != Some(b'=') {
                            return Err(malformed("expected `=` in attribute"));
                        }
                        self.pos += 1;
                        self.skip_ws();
                        match key {
                            // Machine-generated values: never contain
                            // entities, parse in place.
                            "id" => tag.id = self.raw_attr_value()?.parse().ok(),
                            "guid" => tag.guid = self.raw_attr_value()?.parse().ok(),
                            "type" => tag.ty = Some(self.raw_attr_value()?),
                            "href" => tag.href = Some(self.raw_attr_value()?),
                            // Field names may need unescaping.
                            "name" => tag.field_name = Some(self.attr_value()?),
                            // xsi:type etc. — informational; skip.
                            _ => self.skip_attr_value()?,
                        }
                    }
                    None => return Err(malformed("unterminated start tag")),
                }
            }
        }

        /// An attribute value returned as a slice of the input; rejects
        /// entity references (callers use it for machine-generated values
        /// like ids and GUIDs that never contain them).
        fn raw_attr_value(&mut self) -> Result<&'a str> {
            let quote = match self.peek() {
                Some(q @ (b'"' | b'\'')) => {
                    self.pos += 1;
                    q
                }
                _ => return Err(malformed("expected quoted attribute value")),
            };
            let start = self.pos;
            loop {
                match self.peek() {
                    None => return Err(malformed("unterminated attribute value")),
                    Some(b) if b == quote => {
                        let v = &self.input[start..self.pos];
                        self.pos += 1;
                        return Ok(v);
                    }
                    Some(b'&') => return Err(malformed("unexpected entity in value")),
                    Some(_) => self.pos += 1,
                }
            }
        }

        fn skip_attr_value(&mut self) -> Result<()> {
            let quote = match self.peek() {
                Some(q @ (b'"' | b'\'')) => {
                    self.pos += 1;
                    q
                }
                _ => return Err(malformed("expected quoted attribute value")),
            };
            loop {
                match self.peek() {
                    None => return Err(malformed("unterminated attribute value")),
                    Some(b) if b == quote => {
                        self.pos += 1;
                        return Ok(());
                    }
                    Some(_) => self.pos += 1,
                }
            }
        }

        /// An attribute value, unescaped; borrowed from the input unless
        /// it holds an entity reference.
        fn attr_value(&mut self) -> Result<Cow<'a, str>> {
            let quote = match self.peek() {
                Some(q @ (b'"' | b'\'')) => {
                    self.pos += 1;
                    q
                }
                _ => return Err(malformed("expected quoted attribute value")),
            };
            let mut out: Option<String> = None;
            let mut run = self.pos;
            loop {
                match self.peek() {
                    None => return Err(malformed("unterminated attribute value")),
                    Some(b) if b == quote => {
                        let tail = &self.input[run..self.pos];
                        self.pos += 1;
                        return Ok(match out {
                            Some(mut out) => {
                                out.push_str(tail);
                                Cow::Owned(out)
                            }
                            None => Cow::Borrowed(tail),
                        });
                    }
                    Some(b'&') => {
                        let run_text = &self.input[run..self.pos];
                        let c = self.entity()?;
                        let out = out.get_or_insert_with(String::new);
                        out.push_str(run_text);
                        out.push(c);
                        run = self.pos;
                    }
                    Some(_) => self.pos += 1,
                }
            }
        }

        fn entity(&mut self) -> Result<char> {
            debug_assert_eq!(self.peek(), Some(b'&'));
            self.pos += 1;
            let start = self.pos;
            loop {
                match self.peek() {
                    Some(b';') => break,
                    Some(_) if self.pos - start < 10 => self.pos += 1,
                    _ => return Err(malformed("malformed entity reference")),
                }
            }
            let name = &self.input[start..self.pos];
            self.pos += 1;
            pti_xml::resolve_entity(name).ok_or_else(|| malformed("unknown entity"))
        }

        fn text(&mut self) -> Result<String> {
            let mut out = String::new();
            let mut run = self.pos;
            while let Some(b) = self.peek() {
                match b {
                    b'<' => break,
                    b'&' => {
                        out.push_str(&self.input[run..self.pos]);
                        out.push(self.entity()?);
                        run = self.pos;
                    }
                    _ => self.pos += 1,
                }
            }
            out.push_str(&self.input[run..self.pos]);
            Ok(out)
        }

        fn close_tag(&mut self, name: &str) -> Result<()> {
            self.skip_ws();
            if !self.bytes[self.pos.min(self.bytes.len())..].starts_with(b"</") {
                return Err(malformed("expected an end tag"));
            }
            self.pos += 2;
            let got = self.name()?;
            if got != name {
                return Err(malformed("mismatched end tag"));
            }
            self.skip_ws();
            if self.peek() != Some(b'>') {
                return Err(malformed("malformed end tag"));
            }
            self.pos += 1;
            Ok(())
        }

        /// True if the next non-ws token is `</`.
        fn at_close(&mut self) -> bool {
            self.skip_ws();
            self.bytes[self.pos.min(self.bytes.len())..].starts_with(b"</")
        }

        fn value(&mut self) -> Result<Value> {
            let tag = self.open_tag()?;
            match tag.name {
                "null" => {
                    if !tag.self_closing {
                        self.close_tag("null")?;
                    }
                    Ok(Value::Null)
                }
                "boolean" => match self.scalar_text(&tag)?.as_str() {
                    "true" => Ok(Value::Bool(true)),
                    "false" => Ok(Value::Bool(false)),
                    _ => Err(malformed("bad boolean")),
                },
                "int" => self
                    .scalar_text(&tag)?
                    .parse()
                    .map(Value::I32)
                    .map_err(|_| malformed("bad int")),
                "long" => self
                    .scalar_text(&tag)?
                    .parse()
                    .map(Value::I64)
                    .map_err(|_| malformed("bad long")),
                "double" => parse_f64(&self.scalar_text(&tag)?)
                    .map(Value::F64)
                    .ok_or_else(|| malformed("bad double")),
                "string" => Ok(Value::Str(self.scalar_text(&tag)?)),
                "array" => {
                    let mut items = Vec::new();
                    if !tag.self_closing {
                        while !self.at_close() {
                            items.push(self.value()?);
                        }
                        self.close_tag("array")?;
                    }
                    Ok(Value::Array(items))
                }
                "ref" => {
                    if !tag.self_closing {
                        self.close_tag("ref")?;
                    }
                    let id: u64 = tag
                        .href
                        .and_then(|h| h.strip_prefix('#'))
                        .and_then(|h| h.parse().ok())
                        .ok_or_else(|| malformed("bad href"))?;
                    let handle = self
                        .by_id
                        .get(id)
                        .ok_or(SerializeError::DanglingReference(id))?;
                    Ok(Value::Obj(handle))
                }
                "object" => self.object(tag),
                _ => Err(malformed("unknown value element")),
            }
        }

        fn scalar_text(&mut self, tag: &Tag<'_>) -> Result<String> {
            if tag.self_closing {
                return Ok(String::new());
            }
            let text = self.text()?;
            self.close_tag(tag.name)?;
            Ok(text)
        }

        fn object(&mut self, tag: Tag<'_>) -> Result<Value> {
            let id = tag.id.ok_or_else(|| malformed("object missing id"))?;
            let guid = tag.guid.ok_or_else(|| malformed("object missing guid"))?;
            let handle = allocate(self.rt, guid, || TypeName::new(tag.ty.unwrap_or_default()))?;
            self.by_id.insert(id, handle);
            if tag.self_closing {
                return Ok(Value::Obj(handle));
            }
            while !self.at_close() {
                let ft = self.open_tag()?;
                if ft.name != "field" {
                    return Err(malformed("expected <field>"));
                }
                let fname = ft
                    .field_name
                    .ok_or_else(|| malformed("field missing name"))?;
                if ft.self_closing {
                    return Err(malformed("field missing value"));
                }
                let value = self.value()?;
                self.close_tag("field")?;
                self.rt.heap.get_mut(handle)?.set(&fname, value);
            }
            self.close_tag("object")?;
            Ok(Value::Obj(handle))
        }
    }
}

/// f64 formatting that survives a text roundtrip exactly.
fn format_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 {
            "INF".to_string()
        } else {
            "-INF".to_string()
        }
    } else {
        // {:?} prints the shortest string that parses back to the same f64.
        format!("{v:?}")
    }
}

fn parse_f64(s: &str) -> Option<f64> {
    match s {
        "NaN" => Some(f64::NAN),
        "INF" => Some(f64::INFINITY),
        "-INF" => Some(f64::NEG_INFINITY),
        _ => s.parse().ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pti_metamodel::{bodies, primitives, Assembly, ParamDef, TypeDef, CTOR_NAME};

    fn person_runtime() -> (Runtime, TypeDef) {
        let def = TypeDef::class("Person", "vendor-a")
            .field("name", primitives::STRING)
            .field("age", primitives::INT32)
            .field("friend", "Person")
            .method("getName", vec![], primitives::STRING)
            .ctor(vec![ParamDef::new("n", primitives::STRING)])
            .build();
        let g = def.guid;
        let asm = Assembly::builder("p")
            .ty(def.clone())
            .body(g, "getName", 0, bodies::getter("name"))
            .body(g, CTOR_NAME, 1, bodies::ctor_assign(&["name"]))
            .build();
        let mut rt = Runtime::new();
        asm.install(&mut rt).unwrap();
        (rt, def)
    }

    #[test]
    fn primitive_values_roundtrip() {
        let (mut rt, _) = person_runtime();
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::I32(-42),
            Value::I64(1 << 40),
            Value::F64(3.25),
            Value::Str("héllo <xml> & stuff".into()),
            Value::Array(vec![Value::I32(1), Value::Str("two".into()), Value::Null]),
        ] {
            let xml = to_soap_string(&rt, &v).unwrap();
            let back = from_soap_string(&mut rt, &xml).unwrap();
            assert_eq!(back, v, "value {v} through {xml}");
        }
    }

    #[test]
    fn float_specials_roundtrip() {
        let (mut rt, _) = person_runtime();
        for v in [
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.1,
            -0.0,
            f64::MIN,
            f64::MAX,
        ] {
            let xml = to_soap_string(&rt, &Value::F64(v)).unwrap();
            let back = from_soap_string(&mut rt, &xml).unwrap();
            assert_eq!(back.as_f64().unwrap().to_bits(), v.to_bits());
        }
        let xml = to_soap_string(&rt, &Value::F64(f64::NAN)).unwrap();
        assert!(from_soap_string(&mut rt, &xml)
            .unwrap()
            .as_f64()
            .unwrap()
            .is_nan());
    }

    #[test]
    fn object_roundtrips_with_fields() {
        let (mut rt, _) = person_runtime();
        let h = rt
            .instantiate(&"Person".into(), &[Value::from("ada")])
            .unwrap();
        rt.set_field(h, "age", Value::I32(36)).unwrap();
        let xml = to_soap_string(&rt, &Value::Obj(h)).unwrap();
        assert!(xml.contains("Envelope"));
        assert!(xml.contains("ada"));
        let back = from_soap_string(&mut rt, &xml).unwrap();
        let h2 = back.as_obj().unwrap();
        assert_ne!(h, h2, "a fresh object is materialized");
        assert_eq!(rt.get_field(h2, "name").unwrap().as_str().unwrap(), "ada");
        assert_eq!(rt.get_field(h2, "age").unwrap().as_i32().unwrap(), 36);
        assert_eq!(
            rt.invoke(h2, "getName", &[]).unwrap().as_str().unwrap(),
            "ada"
        );
    }

    #[test]
    fn nested_objects_roundtrip() {
        let (mut rt, _) = person_runtime();
        let alice = rt
            .instantiate(&"Person".into(), &[Value::from("alice")])
            .unwrap();
        let bob = rt
            .instantiate(&"Person".into(), &[Value::from("bob")])
            .unwrap();
        rt.set_field(alice, "friend", Value::Obj(bob)).unwrap();
        let xml = to_soap_string(&rt, &Value::Obj(alice)).unwrap();
        let back = from_soap_string(&mut rt, &xml).unwrap().as_obj().unwrap();
        let friend = rt.get_field(back, "friend").unwrap().as_obj().unwrap();
        assert_eq!(
            rt.get_field(friend, "name").unwrap().as_str().unwrap(),
            "bob"
        );
    }

    #[test]
    fn shared_references_are_preserved() {
        let (mut rt, _) = person_runtime();
        let shared = rt
            .instantiate(&"Person".into(), &[Value::from("shared")])
            .unwrap();
        let arr = Value::Array(vec![Value::Obj(shared), Value::Obj(shared)]);
        let xml = to_soap_string(&rt, &arr).unwrap();
        assert!(
            xml.contains("href"),
            "second occurrence must be a ref: {xml}"
        );
        let back = from_soap_string(&mut rt, &xml).unwrap();
        let items = back.as_array().unwrap().to_vec();
        assert_eq!(
            items[0].as_obj().unwrap(),
            items[1].as_obj().unwrap(),
            "aliasing preserved"
        );
    }

    #[test]
    fn cycles_roundtrip() {
        let (mut rt, _) = person_runtime();
        let a = rt
            .instantiate(&"Person".into(), &[Value::from("a")])
            .unwrap();
        let b = rt
            .instantiate(&"Person".into(), &[Value::from("b")])
            .unwrap();
        rt.set_field(a, "friend", Value::Obj(b)).unwrap();
        rt.set_field(b, "friend", Value::Obj(a)).unwrap();
        let xml = to_soap_string(&rt, &Value::Obj(a)).unwrap();
        let a2 = from_soap_string(&mut rt, &xml).unwrap().as_obj().unwrap();
        let b2 = rt.get_field(a2, "friend").unwrap().as_obj().unwrap();
        let a2_again = rt.get_field(b2, "friend").unwrap().as_obj().unwrap();
        assert_eq!(a2, a2_again, "cycle closed");
    }

    #[test]
    fn unknown_type_rejected() {
        let (rt, _) = person_runtime();
        let mut h = rt;
        let alien = TypeDef::class("Alien", "elsewhere").build();
        let xml = format!(
            r#"<Envelope><Body><object id="1" type="Alien" guid="{}"/></Body></Envelope>"#,
            alien.guid
        );
        assert!(matches!(
            from_soap_string(&mut h, &xml),
            Err(SerializeError::UnknownType { .. })
        ));
    }

    #[test]
    fn dangling_href_rejected() {
        let (mut rt, _) = person_runtime();
        let xml = r##"<Envelope><Body><ref href="#9"/></Body></Envelope>"##;
        assert!(matches!(
            from_soap_string(&mut rt, xml),
            Err(SerializeError::DanglingReference(9))
        ));
    }

    #[test]
    fn malformed_envelopes_rejected() {
        let (mut rt, _) = person_runtime();
        assert!(from_soap_string(&mut rt, "<NotAnEnvelope/>").is_err());
        assert!(from_soap_string(&mut rt, "<Envelope/>").is_err());
        assert!(from_soap_string(&mut rt, "<Envelope><Body/></Envelope>").is_err());
        assert!(from_soap_string(&mut rt, "<Envelope><Body><mystery/></Body></Envelope>").is_err());
    }
}
