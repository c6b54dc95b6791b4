//! Wire batching: coalescing several protocol frames into one message.
//!
//! The broadcast layers above the fabrics used to pay one fabric message
//! per envelope per destination. A [`FrameBatch`] instead carries every
//! frame queued for one `(from, to)` link in a single message of kind
//! [`kinds::BATCH`]; the receiving protocol engine splits it back into
//! its constituent frames. The fabric that carries a batch accounts it
//! from its bytes ([`NetMetrics::record_send`](crate::NetMetrics::record_send)):
//! per link, and each frame under its own kind.
//!
//! The encoding is a tiny length-prefixed layout (no serializer
//! dependency): `u32` frame count, then per frame a `u16` kind length,
//! the kind bytes, a `u32` payload length and the payload bytes — all
//! little-endian. [`FrameBatch::walk`] is the one parser, for the
//! decoders and the accounting alike. It is hostile-input safe: every
//! length prefix is checked against the bytes actually remaining before
//! anything is sliced, and nothing is allocated until a walk has checked
//! the whole buffer, so a corrupt `u32` cannot force a huge allocation.

use std::borrow::Cow;
use std::fmt;

use crate::payload::Payload;

/// Message-kind tags owned by the fabric layer (protocol-level tags live
/// in `pti-transport`).
pub mod kinds {
    /// A coalesced batch of frames for one `(from, to)` link.
    pub const BATCH: &str = "batch";
}

/// One frame inside a batch: a kind tag plus an opaque payload.
///
/// The kind is a [`Cow`]: frames *built* for the wire borrow the sender's
/// `&'static str` tag (the same allocation-free invariant the rest of the
/// stack keeps — see [`NetMetrics`](crate::NetMetrics)), and frames
/// *decoded* through [`FrameBatch::decode_interned`] come back already
/// borrowed from the receiver's constants; only the uninterned
/// [`FrameBatch::decode`] ever owns its tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The application-level kind the frame would have carried as a
    /// standalone message.
    pub kind: Cow<'static, str>,
    /// Opaque payload bytes — shared, so unpacking a batch into frames
    /// never copies the sender's buffer onward.
    pub payload: Payload,
}

/// Error decoding a [`FrameBatch`] from wire bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameDecodeError(pub(crate) Cow<'static, str>);

impl FrameDecodeError {
    fn new(reason: &'static str) -> FrameDecodeError {
        FrameDecodeError(Cow::Borrowed(reason))
    }
}

impl fmt::Display for FrameDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed frame batch: {}", self.0)
    }
}

impl std::error::Error for FrameDecodeError {}

/// A coalesced sequence of frames travelling as one wire message.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FrameBatch {
    /// The frames, in queue order (per-link FIFO is preserved).
    pub frames: Vec<Frame>,
}

/// Smallest possible encoded frame: kind length (2) + payload length (4)
/// with both empty.
const MIN_FRAME_BYTES: usize = 6;

impl FrameBatch {
    /// An empty batch.
    pub fn new() -> FrameBatch {
        FrameBatch::default()
    }

    /// Appends a frame. The kind tag is a static constant, matching the
    /// rest of the send path; the payload is shared, not copied.
    pub fn push(&mut self, kind: &'static str, payload: impl Into<Payload>) {
        self.frames.push(Frame {
            kind: Cow::Borrowed(kind),
            payload: payload.into(),
        });
    }

    /// Number of frames in the batch.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the batch holds no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Encodes the batch into wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        Self::encode_frames(self.frames.iter().map(|f| (&*f.kind, f.payload.as_slice())))
    }

    /// Encodes `(kind, payload)` pairs into batch wire bytes without
    /// building a [`FrameBatch`] first — how a sender ships a run of its
    /// own queue. The iterator is walked twice: once to size the buffer,
    /// once to fill it.
    pub fn encode_frames<'a, I>(frames: I) -> Vec<u8>
    where
        I: IntoIterator<Item = (&'a str, &'a [u8])>,
        I::IntoIter: Clone,
    {
        let frames = frames.into_iter();
        let (count, body) = frames.clone().fold((0usize, 0usize), |(n, b), (k, p)| {
            (n + 1, b + MIN_FRAME_BYTES + k.len() + p.len())
        });
        let mut out = Vec::with_capacity(4 + body);
        out.extend_from_slice(&(count as u32).to_le_bytes());
        for (kind, payload) in frames {
            out.extend_from_slice(&(kind.len() as u16).to_le_bytes());
            out.extend_from_slice(kind.as_bytes());
            out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            out.extend_from_slice(payload);
        }
        out
    }

    /// Decodes a batch from wire bytes. Kind tags come back owned; the
    /// batched-dispatch hot path uses
    /// [`decode_interned`](Self::decode_interned) instead, which skips
    /// that allocation.
    ///
    /// # Errors
    /// [`FrameDecodeError`] on truncated or malformed input.
    pub fn decode(bytes: &[u8]) -> Result<FrameBatch, FrameDecodeError> {
        Self::decode_with(bytes, |kind| Ok(Cow::Owned(kind.to_string())))
    }

    /// Decodes a batch, mapping every kind tag back to the receiver's
    /// `&'static str` constant through `intern` — the allocation-free
    /// path batch dispatch uses. A kind the interner does not recognize
    /// fails the decode with the given error text.
    ///
    /// # Errors
    /// [`FrameDecodeError`] on truncated/malformed input or a kind
    /// `intern` rejects.
    pub fn decode_interned(
        bytes: &[u8],
        intern: impl Fn(&str) -> Option<&'static str>,
    ) -> Result<FrameBatch, FrameDecodeError> {
        Self::decode_with(bytes, |kind| {
            intern(kind).map(Cow::Borrowed).ok_or_else(|| {
                FrameDecodeError(Cow::Owned(format!("unknown batched kind `{kind}`")))
            })
        })
    }

    fn decode_with(
        bytes: &[u8],
        mut map_kind: impl FnMut(&str) -> Result<Cow<'static, str>, FrameDecodeError>,
    ) -> Result<FrameBatch, FrameDecodeError> {
        // Check the whole buffer first: a hostile count is rejected before
        // it can size an allocation.
        let mut frames = Vec::with_capacity(Self::walk(bytes, |_, _| Ok(()))?);
        Self::walk(bytes, |kind, payload| {
            frames.push(Frame {
                kind: map_kind(kind)?,
                payload: Payload::from(payload),
            });
            Ok(())
        })?;
        Ok(FrameBatch { frames })
    }

    /// The one batch parser: visits each frame of an encoded batch in
    /// order, as its kind and payload bytes borrowed from `bytes`, and
    /// returns the frame count. Allocation-free. It checks the whole
    /// buffer as [`decode`](Self::decode) does, but visits frames as it
    /// goes: a caller that must not act on part of a malformed batch
    /// walks it once with a no-op visitor first.
    ///
    /// # Errors
    /// [`FrameDecodeError`] on truncated or malformed input, or the first
    /// error `visit` returns.
    pub fn walk<'a>(
        bytes: &'a [u8],
        mut visit: impl FnMut(&'a str, &'a [u8]) -> Result<(), FrameDecodeError>,
    ) -> Result<usize, FrameDecodeError> {
        let count = Self::peek_count(bytes).ok_or(FrameDecodeError::new("missing frame count"))?;
        let mut at = 4usize;
        // Every length prefix below is validated against the remaining
        // buffer *before* any slice happens; `take` is the single bounds
        // gate.
        let mut take = |n: usize| -> Result<&'a [u8], FrameDecodeError> {
            let end = at
                .checked_add(n)
                .filter(|&e| e <= bytes.len())
                .ok_or(FrameDecodeError::new("truncated"))?;
            let s = &bytes[at..end];
            at = end;
            Ok(s)
        };
        fn fixed<const N: usize>(s: &[u8]) -> Result<[u8; N], FrameDecodeError> {
            s.try_into().map_err(|_| FrameDecodeError::new("truncated"))
        }
        for _ in 0..count {
            let klen = u16::from_le_bytes(fixed(take(2)?)?) as usize;
            let kind = std::str::from_utf8(take(klen)?)
                .map_err(|_| FrameDecodeError::new("kind not utf8"))?;
            let plen = u32::from_le_bytes(fixed(take(4)?)?) as usize;
            visit(kind, take(plen)?)?;
        }
        if at != bytes.len() {
            return Err(FrameDecodeError::new("trailing bytes"));
        }
        Ok(count)
    }

    /// Reads the frame count from an encoded batch's header without
    /// checking the frames behind it.
    pub fn peek_count(bytes: &[u8]) -> Option<usize> {
        Some(u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut b = FrameBatch::new();
        b.push("object", vec![1, 2, 3]);
        b.push("desc-request", vec![]);
        b.push("object", vec![0u8; 300]);
        let bytes = b.encode();
        assert_eq!(FrameBatch::peek_count(&bytes), Some(3));
        let back = FrameBatch::decode(&bytes).unwrap();
        assert_eq!(back, b);
        assert_eq!(back.len(), 3);
    }

    #[test]
    fn encode_frames_writes_what_encode_writes() {
        let mut b = FrameBatch::new();
        b.push("object", vec![1, 2, 3]);
        b.push("view", vec![]);
        let pairs: [(&str, &[u8]); 2] = [("object", &[1, 2, 3]), ("view", &[])];
        assert_eq!(FrameBatch::encode_frames(pairs), b.encode());
    }

    #[test]
    fn walk_visits_each_frame_and_checks_the_whole_buffer() {
        let mut b = FrameBatch::new();
        b.push("object", vec![1, 2, 3]);
        b.push("view", vec![]);
        let bytes = b.encode();
        let mut seen = Vec::new();
        let count = FrameBatch::walk(&bytes, |kind, payload| {
            seen.push((kind, payload.len()));
            Ok(())
        });
        assert_eq!(count, Ok(2));
        assert_eq!(seen, [("object", 3), ("view", 0)]);
        assert!(FrameBatch::walk(&bytes[..bytes.len() - 1], |_, _| Ok(())).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(FrameBatch::walk(&extra, |_, _| Ok(())).is_err());
        // The visitor's first error stops the walk.
        let mut visits = 0;
        let stopped = FrameBatch::walk(&bytes, |_, _| {
            visits += 1;
            Err(FrameDecodeError::new("stop"))
        });
        assert!(stopped.is_err());
        assert_eq!(visits, 1);
    }

    #[test]
    fn empty_roundtrip() {
        let b = FrameBatch::new();
        assert!(b.is_empty());
        let back = FrameBatch::decode(&b.encode()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn push_shares_payload_bytes() {
        let payload: Payload = vec![7u8; 64].into();
        let mut b = FrameBatch::new();
        b.push("object", payload.clone());
        assert_eq!(payload.ref_count(), 2, "queued frame shares, not copies");
    }

    #[test]
    fn decode_interned_borrows_static_tags() {
        let mut b = FrameBatch::new();
        b.push("object", vec![1]);
        b.push("view", vec![2]);
        let intern = |k: &str| ["object", "view"].iter().find(|s| **s == k).copied();
        let back = FrameBatch::decode_interned(&b.encode(), intern).unwrap();
        assert!(back
            .frames
            .iter()
            .all(|f| matches!(f.kind, Cow::Borrowed(_))));
        // An unknown kind fails the whole decode.
        let mut evil = FrameBatch::new();
        evil.push("mystery", vec![]);
        assert!(FrameBatch::decode_interned(&evil.encode(), intern).is_err());
    }

    #[test]
    fn decode_rejects_truncation_and_trailers() {
        let mut b = FrameBatch::new();
        b.push("k", vec![9; 10]);
        let bytes = b.encode();
        assert!(FrameBatch::decode(&bytes[..bytes.len() - 1]).is_err());
        assert!(FrameBatch::decode(&[]).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(FrameBatch::decode(&extra).is_err());
    }

    #[test]
    fn decode_rejects_inflated_count() {
        // Claims 1000 frames but carries none.
        let bytes = 1000u32.to_le_bytes().to_vec();
        assert!(FrameBatch::decode(&bytes).is_err());
    }

    #[test]
    fn hostile_lengths_cannot_force_huge_preallocations() {
        // Frame count u32::MAX with an empty body: must error cheaply,
        // not reserve gigabytes.
        let bytes = u32::MAX.to_le_bytes().to_vec();
        assert!(FrameBatch::decode(&bytes).is_err());

        // A frame claiming a 4 GiB payload inside a 32-byte buffer.
        let mut evil = 1u32.to_le_bytes().to_vec();
        evil.extend_from_slice(&1u16.to_le_bytes());
        evil.push(b'k');
        evil.extend_from_slice(&u32::MAX.to_le_bytes());
        evil.extend_from_slice(&[0u8; 16]);
        assert!(FrameBatch::decode(&evil).is_err());

        // A kind length pointing past the end of the buffer.
        let mut evil = 1u32.to_le_bytes().to_vec();
        evil.extend_from_slice(&u16::MAX.to_le_bytes());
        evil.push(b'k');
        assert!(FrameBatch::decode(&evil).is_err());

        // A count whose *first* frames are valid but whose tail is cut.
        let mut b = FrameBatch::new();
        b.push("a", vec![1]);
        let mut partial = b.encode();
        partial[..4].copy_from_slice(&9u32.to_le_bytes());
        assert!(FrameBatch::decode(&partial).is_err());
    }
}
