//! Hostile-input properties of the binary envelope decoder.
//!
//! Version-1 and version-2 envelopes with SOAP and binary payloads are
//! encoded by hand (version 2 must equal `to_ptib` byte for byte), then
//! cut at every length, flipped at seeded random bytes, given hostile
//! varint counts and lengths, and given invalid UTF-8 in every string
//! field. `EnvelopeView::parse` must never panic, must reject every
//! truncation, hostile length and bad string, and any envelope it does
//! accept must agree with `from_ptib` and survive `to_ptib` again.
//!
//! The random cases are drawn from a SplitMix64 stream, so a failure
//! names the seed that reproduces it.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pti_metamodel::{Guid, TypeName};
use pti_serialize::{
    AssemblyRef, EnvelopeView, ObjectEnvelope, Payload, SerializeError, PTIB_ENVELOPE_MAGIC,
};
use pti_xml::Element;

const FLIP_CASES: u64 = 512;

/// The tiny deterministic PRNG driving the cases (SplitMix64).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Encoded envelope bytes plus where its strings and length prefixes
/// sit, so mutations can aim at them.
#[derive(Default)]
struct Wire {
    bytes: Vec<u8>,
    /// `(offset, len)` of every string's UTF-8 bytes.
    strings: Vec<(usize, usize)>,
    /// Offset of every varint count or length prefix.
    lengths: Vec<usize>,
}

impl Wire {
    fn varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.bytes.push(byte);
                return;
            }
            self.bytes.push(byte | 0x80);
        }
    }

    fn length(&mut self, v: usize) {
        self.lengths.push(self.bytes.len());
        self.varint(v as u64);
    }

    fn str(&mut self, s: &str) {
        self.length(s.len());
        self.strings.push((self.bytes.len(), s.len()));
        self.bytes.extend_from_slice(s.as_bytes());
    }
}

/// Longest common prefix of the download paths, on a char boundary.
fn common_prefix(env: &ObjectEnvelope) -> &str {
    let paths: Vec<&str> = env
        .assemblies
        .iter()
        .flat_map(|a| [a.description_path.as_str(), a.assembly_path.as_str()])
        .collect();
    let Some(first) = paths.first() else {
        return "";
    };
    let mut len = paths
        .iter()
        .map(|p| {
            first
                .bytes()
                .zip(p.bytes())
                .take_while(|(a, b)| a == b)
                .count()
        })
        .min()
        .unwrap_or(0);
    while !first.is_char_boundary(len) {
        len -= 1;
    }
    &first[..len]
}

/// The wire format written out by hand: version 1 carries full paths,
/// version 2 hoists their common prefix.
fn encode(env: &ObjectEnvelope, version: u8) -> Wire {
    let mut w = Wire::default();
    w.bytes.extend_from_slice(PTIB_ENVELOPE_MAGIC);
    w.bytes.push(version);
    w.str(env.type_name.full());
    w.bytes.extend_from_slice(&env.type_guid.to_bytes());
    w.length(env.assemblies.len());
    let prefix = if version >= 2 && !env.assemblies.is_empty() {
        let p = common_prefix(env);
        w.str(p);
        p.len()
    } else {
        0
    };
    for a in &env.assemblies {
        w.str(&a.name);
        w.str(&a.description_path[prefix..]);
        w.str(&a.assembly_path[prefix..]);
        w.str(&a.content_hash);
    }
    match &env.payload {
        Payload::Soap(el) => {
            w.bytes.push(0);
            w.str(&el.to_compact());
        }
        Payload::Binary(b) => {
            w.bytes.push(1);
            w.length(b.len());
            w.bytes.extend_from_slice(b);
        }
    }
    w
}

fn envelope(assemblies: usize, payload: Payload) -> ObjectEnvelope {
    ObjectEnvelope {
        type_name: TypeName::new("Acme.Pérson"),
        type_guid: Guid::derive("Acme.Pérson", "vendor-a"),
        assemblies: (0..assemblies)
            .map(|i| AssemblyRef {
                name: format!("acme-{i}"),
                description_path: format!("pti://peer-1/desc/acme-{i}"),
                assembly_path: format!("pti://peer-1/asm/acme-{i}"),
                content_hash: format!("{:x}", 0xdead_beef_u64 + i as u64),
            })
            .collect(),
        payload,
    }
}

/// Every base case: versions 1 and 2, SOAP and binary payloads, with
/// zero, one and two assemblies.
fn bases() -> Vec<(String, Wire)> {
    let soap = || {
        Payload::Soap(
            Element::new("Envelope")
                .child(Element::new("Body").child(Element::new("value").attr("k", "v").text("42"))),
        )
    };
    let binary = || Payload::Binary((0..40).collect());
    let mut out = Vec::new();
    for assemblies in 0..3 {
        for (kind, env) in [
            ("soap", envelope(assemblies, soap())),
            ("binary", envelope(assemblies, binary())),
        ] {
            let v2 = encode(&env, 2);
            assert_eq!(v2.bytes, env.to_ptib(), "to_ptib is the version-2 format");
            for (version, wire) in [(1, encode(&env, 1)), (2, v2)] {
                assert_eq!(
                    ObjectEnvelope::from_ptib(&wire.bytes).unwrap(),
                    env,
                    "v{version} {kind} with {assemblies} assemblies decodes"
                );
                out.push((format!("v{version}/{kind}/{assemblies}"), wire));
            }
        }
    }
    out
}

/// Parses `bytes` without letting a panic escape; an accepted envelope
/// must agree with `from_ptib` and round-trip through `to_ptib`.
fn check(case: &str, bytes: &[u8]) -> Result<(), SerializeError> {
    let parsed = catch_unwind(AssertUnwindSafe(|| EnvelopeView::parse(bytes)))
        .unwrap_or_else(|_| panic!("{case}: EnvelopeView::parse panicked on {bytes:?}"));
    let view = parsed?;
    let entries = view.assemblies().count();
    let owned = view.into_owned();
    assert_eq!(owned.assemblies.len(), entries, "{case}");
    assert_eq!(
        ObjectEnvelope::from_ptib(bytes).as_ref(),
        Ok(&owned),
        "{case}"
    );
    let again = owned.to_ptib();
    assert_eq!(
        ObjectEnvelope::from_ptib(&again).as_ref(),
        Ok(&owned),
        "{case}: accepted envelope does not round-trip"
    );
    Ok(())
}

/// `bytes` with the varint at `at` replaced by `value`'s encoding.
fn with_varint(bytes: &[u8], at: usize, value: u64) -> Vec<u8> {
    let old = bytes[at..].iter().position(|b| b & 0x80 == 0).unwrap() + 1;
    let mut w = Wire::default();
    w.varint(value);
    [&bytes[..at], &w.bytes, &bytes[at + old..]].concat()
}

#[test]
fn every_truncation_is_rejected_without_panicking() {
    for (name, wire) in bases() {
        check(&name, &wire.bytes).unwrap();
        for cut in 0..wire.bytes.len() {
            let case = format!("{name} cut at {cut}");
            assert!(check(&case, &wire.bytes[..cut]).is_err(), "{case}");
        }
    }
}

#[test]
fn trailing_bytes_and_unknown_tags_are_rejected() {
    for (name, wire) in bases() {
        let mut extra = wire.bytes.clone();
        extra.push(0);
        assert_eq!(
            check(&name, &extra),
            Err(SerializeError::Malformed("trailing bytes".into()))
        );
        for version in [0, 3, 0xff] {
            let mut bytes = wire.bytes.clone();
            bytes[4] = version;
            assert!(matches!(
                check(&name, &bytes),
                Err(SerializeError::UnsupportedFormat(_))
            ));
        }
    }
}

#[test]
fn hostile_counts_and_lengths_are_rejected() {
    for (name, wire) in bases() {
        for &at in &wire.lengths {
            for value in [u64::MAX, 1 << 40, wire.bytes.len() as u64] {
                let case = format!("{name} length at {at} = {value}");
                let bytes = with_varint(&wire.bytes, at, value);
                assert!(check(&case, &bytes).is_err(), "{case}");
            }
            // An overlong varint (eleven continuation bytes).
            let case = format!("{name} overlong varint at {at}");
            let bytes = with_varint(&wire.bytes, at, 0);
            let bytes = [&bytes[..at], &[0x80; 11], &bytes[at + 1..]].concat();
            assert!(check(&case, &bytes).is_err(), "{case}");
        }
    }
}

#[test]
fn invalid_utf8_in_any_string_field_is_rejected() {
    let invalid = Err(SerializeError::Malformed("invalid utf8".into()));
    for (name, wire) in bases() {
        for &(at, len) in &wire.strings {
            if len == 0 {
                continue;
            }
            // A byte that never occurs in UTF-8, then a lead byte whose
            // continuation is missing.
            for (offset, byte) in [(0, 0xff), (len - 1, 0xc3)] {
                let mut bytes = wire.bytes.clone();
                bytes[at + offset] = byte;
                let case = format!("{name} string at {at}+{offset} = {byte:#x}");
                assert_eq!(check(&case, &bytes), invalid, "{case}");
            }
        }
    }
}

#[test]
fn random_byte_flips_never_panic_and_accepted_flips_round_trip() {
    let bases = bases();
    let mut rng = SplitMix64(0x5EED_E4E1);
    let mut accepted = 0;
    for seed in 0..FLIP_CASES {
        let (name, wire) = &bases[rng.below(bases.len() as u64) as usize];
        let mut bytes = wire.bytes.clone();
        for _ in 0..=rng.below(4) {
            let at = rng.below(bytes.len() as u64) as usize;
            bytes[at] ^= 1 << rng.below(8);
        }
        if check(&format!("{name} flip case {seed}"), &bytes).is_ok() {
            accepted += 1;
        }
    }
    // Flips in the guid or the binary payload still decode: the loop
    // exercises the accepting branch, not only rejections.
    assert!(accepted > 0, "no flipped envelope decoded");
}
