//! The hybrid XML message wrapping every transferred object — Figure 3 of
//! the paper.
//!
//! "An XML message encompassing the object is sent instead of only the
//! object itself. This XML message consists of information about the
//! types of the object (type names and download paths of their
//! implementations) and includes the SOAP or binary serialized object."
//!
//! An [`ObjectEnvelope`] therefore carries: the root type's name + GUID,
//! the download paths for its type description and its assembly (code),
//! the same information for every *referenced* assembly (Figure 3's
//! "Assembly B information"), and the serialized payload in either
//! format.

use std::borrow::Cow;

use pti_metamodel::{Guid, TypeName};
use pti_xml::Element;

use crate::base64;
use crate::binary::{get_str_ref, get_varint, put_str, put_varint};
use crate::cursor::{GetBuf, PutBuf};
use crate::error::{Result, SerializeError};

/// Magic prefix of the compact binary (`PTIB`-family) envelope encoding.
pub const PTIB_ENVELOPE_MAGIC: &[u8; 4] = b"PTIE";
/// Version 2 prefix-compresses the assembly download table; decoders
/// still accept version-1 bytes (full paths per entry).
const PTIB_ENVELOPE_VERSION: u8 = 2;

/// Longest common prefix of a set of strings, shrunk to a UTF-8 char
/// boundary so the suffixes stay valid `&str` slices. Download paths in
/// one envelope repeat the publisher's `pti://peer-N/` stem, so this is
/// typically the whole stem.
fn common_prefix_len<'a>(paths: impl Iterator<Item = &'a str>) -> usize {
    let mut paths = paths.peekable();
    let Some(first) = paths.next() else { return 0 };
    let mut len = first.len();
    for p in paths {
        len = len.min(
            first
                .bytes()
                .zip(p.bytes())
                .take_while(|(a, b)| a == b)
                .count(),
        );
    }
    while !first.is_char_boundary(len) {
        len -= 1;
    }
    len
}

/// Which encoding an envelope travels with on the wire.
///
/// The binary form is the default object wire format (the paper's
/// "indirect evaluation of the .NET serialization mechanisms" already
/// argues the binary formatter beats the SOAP/XML form); the XML form
/// remains both a *decode fallback* (receivers sniff the magic and
/// accept either) and the cross-language interchange representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EnvelopeWireFormat {
    /// Compact length-prefixed binary with the [`PTIB_ENVELOPE_MAGIC`]
    /// prefix; binary payloads ride raw (no base64 expansion).
    #[default]
    Ptib,
    /// The human-readable `<ptiMessage>` XML form of Figure 3.
    Xml,
}

/// Which serializer produced the embedded payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PayloadFormat {
    /// SOAP-style XML (human readable, verbose).
    #[default]
    Soap,
    /// Compact binary (base64-embedded in the XML message).
    Binary,
}

impl PayloadFormat {
    /// Wire token for the `format` attribute.
    pub fn as_str(self) -> &'static str {
        match self {
            PayloadFormat::Soap => "soap",
            PayloadFormat::Binary => "binary",
        }
    }
}

/// The serialized object body inside an envelope.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// An inline SOAP `<Envelope>` element.
    Soap(Element),
    /// Binary-formatter output.
    Binary(Vec<u8>),
}

impl Payload {
    /// The format tag of this payload.
    pub fn format(&self) -> PayloadFormat {
        match self {
            Payload::Soap(_) => PayloadFormat::Soap,
            Payload::Binary(_) => PayloadFormat::Binary,
        }
    }

    /// Approximate wire size of the payload alone, in bytes.
    pub fn wire_size(&self) -> usize {
        match self {
            Payload::Soap(e) => e.wire_size(),
            Payload::Binary(b) => base64::encode(b).len(),
        }
    }
}

/// Identification of one assembly a transferred object depends on: where
/// to fetch its type description and its code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssemblyRef {
    /// Assembly (bundle) name.
    pub name: String,
    /// Download path for the type description(s).
    pub description_path: String,
    /// Download path for the code.
    pub assembly_path: String,
    /// Content identity of the assembly (hex), so receivers recognize
    /// code they already installed from a different path.
    pub content_hash: String,
}

/// The hybrid message of Figure 3.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectEnvelope {
    /// Full name of the root object's type.
    pub type_name: TypeName,
    /// Identity of the root object's type.
    pub type_guid: Guid,
    /// Download information for the root type's assembly plus every
    /// assembly of types reachable from the object (Figure 3 lists
    /// "Assembly A information" and "Assembly B information").
    pub assemblies: Vec<AssemblyRef>,
    /// The serialized object.
    pub payload: Payload,
}

impl ObjectEnvelope {
    /// Renders the envelope to its XML wire element.
    pub fn to_xml(&self) -> Element {
        let mut root = Element::new("ptiMessage")
            .attr("version", "1")
            .attr("type", self.type_name.full())
            .attr("guid", self.type_guid.to_string());
        for a in &self.assemblies {
            root.push_child(
                Element::new("assembly")
                    .attr("name", &a.name)
                    .attr("description", &a.description_path)
                    .attr("code", &a.assembly_path)
                    .attr("hash", &a.content_hash),
            );
        }
        let payload = match &self.payload {
            Payload::Soap(e) => Element::new("payload")
                .attr("format", "soap")
                .child(e.clone()),
            Payload::Binary(b) => Element::new("payload")
                .attr("format", "binary")
                .text(base64::encode(b)),
        };
        root.push_child(payload);
        root
    }

    /// Renders to the compact XML string.
    pub fn to_string_compact(&self) -> String {
        self.to_xml().to_compact()
    }

    /// Total wire size of the message in bytes.
    pub fn wire_size(&self) -> usize {
        self.to_xml().wire_size()
    }

    /// Parses an envelope from its XML element.
    ///
    /// # Errors
    /// Schema violations, unknown versions or formats, bad base64.
    pub fn from_xml(el: &Element) -> Result<ObjectEnvelope> {
        if el.name != "ptiMessage" {
            return Err(SerializeError::Malformed(format!(
                "expected <ptiMessage>, got <{}>",
                el.name
            )));
        }
        match el.get_attr("version") {
            Some("1") => {}
            Some(v) => {
                return Err(SerializeError::UnsupportedFormat(format!(
                    "message version {v}"
                )))
            }
            None => return Err(SerializeError::Malformed("missing version".into())),
        }
        let type_name = TypeName::new(
            el.get_attr("type")
                .ok_or_else(|| SerializeError::Malformed("missing type".into()))?,
        );
        let type_guid: Guid = el
            .get_attr("guid")
            .and_then(|g| g.parse().ok())
            .ok_or_else(|| SerializeError::Malformed("missing or bad guid".into()))?;
        let assemblies = el
            .find_all("assembly")
            .map(|a| {
                Ok(AssemblyRef {
                    name: a
                        .get_attr("name")
                        .ok_or_else(|| SerializeError::Malformed("assembly missing name".into()))?
                        .to_string(),
                    description_path: a
                        .get_attr("description")
                        .ok_or_else(|| {
                            SerializeError::Malformed("assembly missing description path".into())
                        })?
                        .to_string(),
                    assembly_path: a
                        .get_attr("code")
                        .ok_or_else(|| {
                            SerializeError::Malformed("assembly missing code path".into())
                        })?
                        .to_string(),
                    content_hash: a.get_attr("hash").unwrap_or_default().to_string(),
                })
            })
            .collect::<Result<Vec<_>>>()?;
        let pe = el
            .find("payload")
            .ok_or_else(|| SerializeError::Malformed("missing payload".into()))?;
        let payload = match pe.get_attr("format") {
            Some("soap") => Payload::Soap(
                pe.elements()
                    .next()
                    .cloned()
                    .ok_or_else(|| SerializeError::Malformed("empty soap payload".into()))?,
            ),
            Some("binary") => Payload::Binary(
                base64::decode(&pe.text_content())
                    .ok_or_else(|| SerializeError::Malformed("bad base64 payload".into()))?,
            ),
            other => {
                return Err(SerializeError::UnsupportedFormat(format!(
                    "payload format {other:?}"
                )))
            }
        };
        Ok(ObjectEnvelope {
            type_name,
            type_guid,
            assemblies,
            payload,
        })
    }

    /// Parses from the XML string form.
    pub fn from_string(xml: &str) -> Result<ObjectEnvelope> {
        Self::from_xml(&pti_xml::parse(xml)?)
    }

    /// Whether wire bytes carry the binary envelope encoding (sniffed by
    /// magic — the dispatch receivers use to accept both forms).
    pub fn is_ptib(bytes: &[u8]) -> bool {
        bytes.starts_with(PTIB_ENVELOPE_MAGIC)
    }

    /// Encodes to the requested wire form: compact binary or XML text.
    pub fn encode_wire(&self, wire: EnvelopeWireFormat) -> Vec<u8> {
        match wire {
            EnvelopeWireFormat::Ptib => self.to_ptib(),
            EnvelopeWireFormat::Xml => self.to_string_compact().into_bytes(),
        }
    }

    /// Decodes either wire form, sniffing the binary magic first and
    /// falling back to XML text (the cross-language form).
    ///
    /// # Errors
    /// Malformed input in whichever encoding the bytes claim to be.
    pub fn decode_wire(bytes: &[u8]) -> Result<ObjectEnvelope> {
        if Self::is_ptib(bytes) {
            return Self::from_ptib(bytes);
        }
        let text = std::str::from_utf8(bytes)
            .map_err(|_| SerializeError::Malformed("envelope neither binary nor utf8".into()))?;
        Self::from_string(text)
    }

    /// Encodes to the compact binary wire form: magic + version, the
    /// root type's name and GUID, the assembly download table, then the
    /// payload — SOAP payloads as inline XML text, binary payloads as
    /// raw `PTIB` bytes (no base64 expansion, the big win over the XML
    /// envelope). All lengths are varints.
    ///
    /// The download table is prefix-compressed (version 2): the longest
    /// common prefix of every description/assembly path is written once
    /// and each entry carries only its suffixes — the `pti://peer-N/`
    /// stem every path repeats is thus paid for once per envelope, not
    /// once per path.
    pub fn to_ptib(&self) -> Vec<u8> {
        let mut buf = PutBuf::with_capacity(64 + self.payload.wire_size());
        buf.put_slice(PTIB_ENVELOPE_MAGIC);
        buf.put_u8(PTIB_ENVELOPE_VERSION);
        put_str(&mut buf, self.type_name.full());
        buf.put_slice(&self.type_guid.to_bytes());
        put_varint(&mut buf, self.assemblies.len() as u64);
        if !self.assemblies.is_empty() {
            let plen = common_prefix_len(
                self.assemblies
                    .iter()
                    .flat_map(|a| [a.description_path.as_str(), a.assembly_path.as_str()]),
            );
            let prefix = &self.assemblies[0].description_path[..plen];
            put_str(&mut buf, prefix);
            for a in &self.assemblies {
                put_str(&mut buf, &a.name);
                put_str(&mut buf, &a.description_path[plen..]);
                put_str(&mut buf, &a.assembly_path[plen..]);
                put_str(&mut buf, &a.content_hash);
            }
        }
        match &self.payload {
            Payload::Soap(el) => {
                buf.put_u8(0);
                put_str(&mut buf, &el.to_compact());
            }
            Payload::Binary(b) => {
                buf.put_u8(1);
                put_varint(&mut buf, b.len() as u64);
                buf.put_slice(b);
            }
        }
        buf.into_vec()
    }

    /// Decodes the compact binary wire form produced by
    /// [`to_ptib`](Self::to_ptib): [`EnvelopeView::parse`], then owned.
    ///
    /// # Errors
    /// Wrong magic/version, truncation, hostile length prefixes.
    pub fn from_ptib(bytes: &[u8]) -> Result<ObjectEnvelope> {
        Ok(EnvelopeView::parse(bytes)?.into_owned())
    }
}

/// The payload of an [`EnvelopeView`]: binary bytes borrowed from the
/// wire, or the SOAP element parsed at decode.
#[derive(Debug, Clone, PartialEq)]
pub enum PayloadView<'a> {
    /// An inline SOAP `<Envelope>` element.
    Soap(Element),
    /// Binary-formatter output, borrowed.
    Binary(&'a [u8]),
}

/// A compact binary envelope decoded in place: every header string
/// borrows the wire bytes, so a receiver that already holds the type and
/// its code can compare and deliver without owning anything.
/// [`into_owned`](Self::into_owned) builds the [`ObjectEnvelope`] a
/// pending exchange keeps.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvelopeView<'a> {
    /// Full name of the root object's type.
    pub type_name: &'a str,
    /// Identity of the root object's type.
    pub type_guid: Guid,
    /// The serialized object.
    pub payload: PayloadView<'a>,
    /// Common stem of every download path (empty in version 1).
    prefix: &'a str,
    /// Number of entries in `table`.
    count: usize,
    /// The assembly table's bytes, every entry already validated.
    table: &'a [u8],
}

/// One assembly entry of an [`EnvelopeView`], borrowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AssemblyEntry<'a> {
    /// Assembly (bundle) name.
    pub name: &'a str,
    /// Content identity of the assembly (hex).
    pub content_hash: &'a str,
    prefix: &'a str,
    description_suffix: &'a str,
    assembly_suffix: &'a str,
}

impl<'a> AssemblyEntry<'a> {
    /// Download path for the type description(s).
    pub fn description_path(&self) -> Cow<'a, str> {
        join(self.prefix, self.description_suffix)
    }

    /// Download path for the code.
    pub fn assembly_path(&self) -> Cow<'a, str> {
        join(self.prefix, self.assembly_suffix)
    }

    /// The owned reference a pending exchange keeps.
    fn to_assembly_ref(self) -> AssemblyRef {
        AssemblyRef {
            name: self.name.to_owned(),
            description_path: self.description_path().into_owned(),
            assembly_path: self.assembly_path().into_owned(),
            content_hash: self.content_hash.to_owned(),
        }
    }
}

/// `prefix + suffix`, borrowed when there is no prefix.
fn join<'a>(prefix: &str, suffix: &'a str) -> Cow<'a, str> {
    if prefix.is_empty() {
        Cow::Borrowed(suffix)
    } else {
        let mut path = String::with_capacity(prefix.len() + suffix.len());
        path.push_str(prefix);
        path.push_str(suffix);
        Cow::Owned(path)
    }
}

/// Reads one assembly-table entry: name, description and code path
/// suffixes, content hash.
fn read_entry<'a>(buf: &mut GetBuf<'a>, prefix: &'a str) -> Result<AssemblyEntry<'a>> {
    Ok(AssemblyEntry {
        name: get_str_ref(buf)?,
        description_suffix: get_str_ref(buf)?,
        assembly_suffix: get_str_ref(buf)?,
        content_hash: get_str_ref(buf)?,
        prefix,
    })
}

/// Iterator over an [`EnvelopeView`]'s assembly entries.
struct AssemblyEntries<'a> {
    buf: GetBuf<'a>,
    prefix: &'a str,
    left: usize,
}

impl<'a> Iterator for AssemblyEntries<'a> {
    type Item = AssemblyEntry<'a>;

    fn next(&mut self) -> Option<AssemblyEntry<'a>> {
        self.left = self.left.checked_sub(1)?;
        // `parse` read these very bytes with the same function, so this
        // cannot fail; if it somehow did, iteration ends.
        read_entry(&mut self.buf, self.prefix).ok()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<'a> EnvelopeView<'a> {
    /// Decodes the compact binary wire form in place. This is the only
    /// `PTIE` decoder: [`ObjectEnvelope::from_ptib`] owns its result.
    /// Both versions decode; every string is checked for UTF-8 and the
    /// assembly table is validated in full before the payload.
    ///
    /// # Errors
    /// Wrong magic/version, truncation, hostile length prefixes,
    /// invalid UTF-8, an unknown payload tag or trailing bytes.
    pub fn parse(bytes: &'a [u8]) -> Result<EnvelopeView<'a>> {
        let mut buf = GetBuf::new(bytes);
        if buf.remaining() < PTIB_ENVELOPE_MAGIC.len() + 1 {
            return Err(SerializeError::UnsupportedFormat(
                "envelope too short".into(),
            ));
        }
        let mut magic = [0u8; 4];
        buf.copy_to_slice(&mut magic);
        if &magic != PTIB_ENVELOPE_MAGIC {
            return Err(SerializeError::UnsupportedFormat(
                "bad envelope magic".into(),
            ));
        }
        let version = buf.get_u8();
        if version != 1 && version != PTIB_ENVELOPE_VERSION {
            return Err(SerializeError::UnsupportedFormat(format!(
                "envelope version {version}"
            )));
        }
        let type_name = get_str_ref(&mut buf)?;
        if buf.remaining() < 16 {
            return Err(SerializeError::Malformed("truncated guid".into()));
        }
        let mut gb = [0u8; 16];
        buf.copy_to_slice(&mut gb);
        let type_guid = Guid::from_bytes(gb);
        let count = get_varint(&mut buf)? as usize;
        // Each assembly entry is at least 4 length bytes; a hostile count
        // cannot force a huge pre-allocation.
        if count > buf.remaining() / 4 + 1 {
            return Err(SerializeError::Malformed("assembly count too large".into()));
        }
        // Version 2 hoists the paths' longest common prefix before the
        // table; version 1 entries carry full paths (empty prefix).
        let prefix = if version >= 2 && count > 0 {
            get_str_ref(&mut buf)?
        } else {
            ""
        };
        let table_start = buf.position();
        for _ in 0..count {
            read_entry(&mut buf, prefix)?;
        }
        let table = &bytes[table_start..buf.position()];
        if !buf.has_remaining() {
            return Err(SerializeError::Malformed("missing payload".into()));
        }
        let payload = match buf.get_u8() {
            0 => PayloadView::Soap(pti_xml::parse(get_str_ref(&mut buf)?)?),
            1 => {
                let len = get_varint(&mut buf)? as usize;
                if len > buf.remaining() {
                    return Err(SerializeError::Malformed("truncated payload".into()));
                }
                PayloadView::Binary(buf.take(len))
            }
            other => {
                return Err(SerializeError::UnsupportedFormat(format!(
                    "payload tag {other}"
                )))
            }
        };
        if buf.has_remaining() {
            return Err(SerializeError::Malformed("trailing bytes".into()));
        }
        Ok(EnvelopeView {
            type_name,
            type_guid,
            payload,
            prefix,
            count,
            table,
        })
    }

    /// The assembly entries, in table order.
    pub fn assemblies(&self) -> impl Iterator<Item = AssemblyEntry<'a>> {
        AssemblyEntries {
            buf: GetBuf::new(self.table),
            prefix: self.prefix,
            left: self.count,
        }
    }

    /// The validated assembly table as it sits on the wire: the common
    /// path prefix and the entries' bytes. Two views whose prefixes and
    /// table bytes are equal list the same assemblies, in the same
    /// order, whatever their version.
    pub fn assembly_table(&self) -> (&'a str, &'a [u8]) {
        (self.prefix, self.table)
    }

    /// The owned envelope: header strings copied, a binary payload
    /// copied, a SOAP payload moved.
    pub fn into_owned(self) -> ObjectEnvelope {
        ObjectEnvelope {
            type_name: TypeName::new(self.type_name),
            type_guid: self.type_guid,
            assemblies: self.assemblies().map(|e| e.to_assembly_ref()).collect(),
            payload: match self.payload {
                PayloadView::Soap(el) => Payload::Soap(el),
                PayloadView::Binary(b) => Payload::Binary(b.to_vec()),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(payload: Payload) -> ObjectEnvelope {
        ObjectEnvelope {
            type_name: TypeName::new("Acme.Person"),
            type_guid: Guid::derive("Acme.Person", "vendor-a"),
            assemblies: vec![
                AssemblyRef {
                    name: "acme-person".into(),
                    description_path: "pti://peer-1/desc/acme-person".into(),
                    assembly_path: "pti://peer-1/asm/acme-person".into(),
                    content_hash: "deadbeef".into(),
                },
                AssemblyRef {
                    name: "acme-address".into(),
                    description_path: "pti://peer-1/desc/acme-address".into(),
                    assembly_path: "pti://peer-1/asm/acme-address".into(),
                    content_hash: "cafebabe".into(),
                },
            ],
            payload,
        }
    }

    #[test]
    fn soap_envelope_roundtrips() {
        let env = sample(Payload::Soap(
            Element::new("Envelope").child(Element::new("Body").child(Element::new("null"))),
        ));
        let xml = env.to_string_compact();
        let back = ObjectEnvelope::from_string(&xml).unwrap();
        assert_eq!(back, env);
        assert_eq!(back.payload.format(), PayloadFormat::Soap);
    }

    #[test]
    fn binary_envelope_roundtrips() {
        let env = sample(Payload::Binary(vec![0, 1, 2, 250, 251, 252]));
        let xml = env.to_string_compact();
        assert!(!xml.contains('\u{0}'), "binary is base64-embedded");
        let back = ObjectEnvelope::from_string(&xml).unwrap();
        assert_eq!(back, env);
        assert_eq!(back.payload.format(), PayloadFormat::Binary);
    }

    #[test]
    fn envelope_lists_all_assemblies() {
        // Figure 3: the message carries assembly info for A and for the
        // nested B.
        let env = sample(Payload::Binary(vec![]));
        let back = ObjectEnvelope::from_string(&env.to_string_compact()).unwrap();
        assert_eq!(back.assemblies.len(), 2);
        assert_eq!(back.assemblies[1].name, "acme-address");
    }

    #[test]
    fn wire_size_positive_and_stable() {
        let env = sample(Payload::Binary(vec![1, 2, 3]));
        assert!(env.wire_size() > 100);
        assert_eq!(env.wire_size(), env.wire_size());
    }

    #[test]
    fn ptib_envelope_roundtrips_both_payload_kinds() {
        for env in [
            sample(Payload::Binary(vec![0, 1, 2, 250, 251, 252])),
            sample(Payload::Soap(
                Element::new("Envelope").child(Element::new("Body").child(Element::new("null"))),
            )),
        ] {
            let bytes = env.to_ptib();
            assert!(ObjectEnvelope::is_ptib(&bytes));
            let back = ObjectEnvelope::from_ptib(&bytes).unwrap();
            assert_eq!(back, env);
            // decode_wire sniffs the magic...
            assert_eq!(ObjectEnvelope::decode_wire(&bytes).unwrap(), env);
            // ...and still accepts the XML fallback form.
            let xml = env.encode_wire(EnvelopeWireFormat::Xml);
            assert!(!ObjectEnvelope::is_ptib(&xml));
            assert_eq!(ObjectEnvelope::decode_wire(&xml).unwrap(), env);
        }
    }

    #[test]
    fn ptib_envelope_is_much_smaller_than_xml() {
        // A realistic routed event: a small binary payload under a
        // metadata-heavy envelope (type ids, download paths). XML framing
        // plus base64 costs the XML form at least 1.5x here; the R3
        // experiment gates the full-workload reduction at 2x.
        let env = sample(Payload::Binary(vec![0xAB; 48]));
        let bin = env.to_ptib();
        let xml = env.encode_wire(EnvelopeWireFormat::Xml);
        assert!(
            3 * bin.len() <= 2 * xml.len(),
            "binary {} B vs xml {} B",
            bin.len(),
            xml.len()
        );
    }

    #[test]
    fn ptib_envelope_rejects_wrong_magic_and_short_buffers() {
        let env = sample(Payload::Binary(vec![1, 2, 3]));
        let bytes = env.to_ptib();
        // Wrong magic.
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert!(matches!(
            ObjectEnvelope::from_ptib(&wrong),
            Err(SerializeError::UnsupportedFormat(_))
        ));
        // Wrong version.
        let mut wrong = bytes.clone();
        wrong[4] = 99;
        assert!(ObjectEnvelope::from_ptib(&wrong).is_err());
        // Every truncation errors, never panics.
        for cut in 0..bytes.len() {
            assert!(ObjectEnvelope::from_ptib(&bytes[..cut]).is_err(), "{cut}");
        }
        // Trailing garbage rejected.
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(ObjectEnvelope::from_ptib(&extra).is_err());
        // A hostile assembly count cannot force a huge pre-allocation:
        // magic + version + empty name + guid + count u64::MAX.
        let mut evil = PTIB_ENVELOPE_MAGIC.to_vec();
        evil.push(PTIB_ENVELOPE_VERSION);
        evil.push(0); // empty type name
        evil.extend_from_slice(&[0u8; 16]);
        evil.extend([0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01]);
        assert!(ObjectEnvelope::from_ptib(&evil).is_err());
    }

    #[test]
    fn ptib_prefix_compression_shares_the_download_stem() {
        // The sample's four paths all repeat `pti://peer-1/`; version 2
        // writes that stem once. Compare against a hand-built version-1
        // encoding of the same envelope (full paths per entry).
        let env = sample(Payload::Binary(vec![7; 16]));
        let v2 = env.to_ptib();

        let mut v1 = PutBuf::with_capacity(256);
        v1.put_slice(PTIB_ENVELOPE_MAGIC);
        v1.put_u8(1);
        put_str(&mut v1, env.type_name.full());
        v1.put_slice(&env.type_guid.to_bytes());
        put_varint(&mut v1, env.assemblies.len() as u64);
        for a in &env.assemblies {
            put_str(&mut v1, &a.name);
            put_str(&mut v1, &a.description_path);
            put_str(&mut v1, &a.assembly_path);
            put_str(&mut v1, &a.content_hash);
        }
        let Payload::Binary(b) = &env.payload else {
            unreachable!()
        };
        v1.put_u8(1);
        put_varint(&mut v1, b.len() as u64);
        v1.put_slice(b);
        let v1 = v1.into_vec();

        // Old bytes still decode to the same envelope (wire compat)...
        assert_eq!(ObjectEnvelope::from_ptib(&v1).unwrap(), env);
        // ...and the new encoding strictly beats them: 4 paths share a
        // 13-byte stem written once instead of 4 times.
        let stem = "pti://peer-1/".len();
        assert!(
            v1.len() - v2.len() >= (3 * stem) - 2,
            "v1 {} B vs v2 {} B",
            v1.len(),
            v2.len()
        );
    }

    #[test]
    fn ptib_prefix_compression_handles_disjoint_and_multibyte_paths() {
        // No shared stem: the prefix degenerates to empty and everything
        // round-trips.
        let mut env = sample(Payload::Binary(vec![1]));
        env.assemblies[0].description_path = "alpha/desc".into();
        env.assemblies[0].assembly_path = "beta/asm".into();
        env.assemblies[1].description_path = "gamma/desc".into();
        env.assemblies[1].assembly_path = "delta/asm".into();
        assert_eq!(ObjectEnvelope::from_ptib(&env.to_ptib()).unwrap(), env);

        // A multi-byte char straddling the common run: the prefix must
        // retreat to a char boundary, not split the codepoint.
        let mut env = sample(Payload::Binary(vec![1]));
        env.assemblies[0].description_path = "päth/a".into();
        env.assemblies[0].assembly_path = "päth/b".into();
        env.assemblies[1].description_path = "pâth/c".into();
        env.assemblies[1].assembly_path = "pâth/d".into();
        assert_eq!(ObjectEnvelope::from_ptib(&env.to_ptib()).unwrap(), env);

        // An envelope with no assemblies at all writes no prefix.
        let mut env = sample(Payload::Binary(vec![1]));
        env.assemblies.clear();
        assert_eq!(ObjectEnvelope::from_ptib(&env.to_ptib()).unwrap(), env);
    }

    #[test]
    fn rejects_malformed() {
        assert!(ObjectEnvelope::from_string("<wrong/>").is_err());
        assert!(ObjectEnvelope::from_string("<ptiMessage version=\"9\"/>").is_err());
        assert!(
            ObjectEnvelope::from_string(
                "<ptiMessage version=\"1\" type=\"T\" guid=\"00000000000000000000000000000000\"/>"
            )
            .is_err(),
            "missing payload"
        );
        let bad_b64 = r#"<ptiMessage version="1" type="T" guid="00000000000000000000000000000001"><payload format="binary">!!!</payload></ptiMessage>"#;
        assert!(ObjectEnvelope::from_string(bad_b64).is_err());
        let bad_fmt = r#"<ptiMessage version="1" type="T" guid="00000000000000000000000000000001"><payload format="yaml"/></ptiMessage>"#;
        assert!(matches!(
            ObjectEnvelope::from_string(bad_fmt),
            Err(SerializeError::UnsupportedFormat(_))
        ));
    }
}
