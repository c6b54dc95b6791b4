//! Property tests: any tree the writer can emit, the parser reads back,
//! its wire size is its compact length, and the parser rejects garbage
//! without panicking.
//!
//! Each property runs over a few hundred cases drawn from a seeded
//! SplitMix64 stream, so a failure names the case that reproduces it.

use pti_xml::{parse, Element, Node};

const CASES: u64 = 256;

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

    fn pick(&mut self, alphabet: &[u8]) -> char {
        char::from(alphabet[self.below(alphabet.len() as u64) as usize])
    }
}

/// `[a-zA-Z][a-zA-Z0-9_.-]{0,8}`.
fn name(rng: &mut SplitMix64) -> String {
    const LETTERS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
    const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-";
    let mut s = String::from(rng.pick(LETTERS));
    for _ in 0..rng.below(9) {
        s.push(rng.pick(REST));
    }
    s
}

/// 1 to 19 characters of printable text: XML specials, spaces, ASCII
/// letters and Greek letters.
fn text(rng: &mut SplitMix64) -> String {
    (0..1 + rng.below(19))
        .map(|_| match rng.below(8) {
            0..=5 => rng.pick(b"&<>\"' "),
            6 => rng.pick(b"abcdefghijklmnopqrstuvwxyz"),
            _ => char::from_u32(u32::from('α') + rng.below(25) as u32).unwrap(),
        })
        .collect()
}

/// An element with up to three attributes (unique keys, for a faithful
/// roundtrip) and, above depth 0, up to four children. Adjacent text
/// children are merged, since the parser always merges them.
fn element(rng: &mut SplitMix64, depth: u32) -> Element {
    let mut e = Element::new(name(rng));
    for _ in 0..rng.below(3) {
        let key = name(rng);
        if e.get_attr(&key).is_none() {
            e = e.attr(key, text(rng));
        }
    }
    if depth == 0 {
        return e;
    }
    for _ in 0..rng.below(4) {
        if rng.below(2) == 0 {
            e.push_child(element(rng, depth - 1));
        } else if let Some(Node::Text(last)) = e.children.last_mut() {
            last.push_str(&text(rng));
        } else {
            e.children.push(Node::Text(text(rng)));
        }
    }
    e
}

fn tree(seed: u64) -> Element {
    let mut rng = SplitMix64(seed);
    let depth = rng.below(5) as u32;
    element(&mut rng, depth)
}

#[test]
fn compact_roundtrip() {
    for seed in 0..CASES {
        let e = tree(seed);
        let wire = e.to_compact();
        let back = parse(&wire).unwrap_or_else(|err| panic!("seed {seed}: {err}: {wire}"));
        assert_eq!(back, e, "seed {seed}: {wire}");
    }
}

#[test]
fn wire_size_matches_compact_len() {
    for seed in 0..CASES {
        let e = tree(seed);
        assert_eq!(e.wire_size(), e.to_compact().len(), "seed {seed}");
    }
}

/// Random strings over the characters XML markup is made of, and writer
/// output cut short or with one character replaced: the parser answers
/// each, `Ok` or `Err`, without panicking.
#[test]
fn parser_never_panics_on_garbage() {
    const MARKUP: &[u8] = b"<>/&;#x=\"' ?!-[]CDATAa1\n";
    for seed in 0..CASES {
        let mut rng = SplitMix64(seed);
        let noise: String = (0..rng.below(61)).map(|_| rng.pick(MARKUP)).collect();
        let _ = parse(&noise);

        let wire: Vec<char> = tree(seed).to_compact().chars().collect();
        let cut = rng.below(wire.len() as u64) as usize;
        let _ = parse(&wire[..cut].iter().collect::<String>());
        let mut flipped = wire.clone();
        flipped[cut] = rng.pick(MARKUP);
        let _ = parse(&flipped.iter().collect::<String>());
    }
}
