//! Wire batching: coalescing several protocol frames into one message.
//!
//! The broadcast layers above the fabrics used to pay one fabric message
//! per envelope per destination. A [`FrameBatch`] instead carries every
//! frame queued for one `(from, to)` link in a single message of kind
//! [`kinds::BATCH`]; the receiving protocol engine splits it back into
//! its constituent frames. The fabrics account batches per link in
//! [`NetMetrics`](crate::NetMetrics) (batch count + frames coalesced), so
//! experiments can report exactly how much the coalescing saves.
//!
//! The encoding is a tiny length-prefixed layout (no serializer
//! dependency): `u32` frame count, then per frame a `u16` kind length,
//! the kind bytes, a `u32` payload length and the payload bytes — all
//! little-endian. Decoding is hostile-input safe: every length prefix is
//! capped by the bytes actually remaining in the buffer *before* any
//! allocation, so a corrupt `u32` cannot trigger a huge pre-allocation.

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
/// with both empty — the bound that caps the frame-count pre-allocation.
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
        let body: usize = self
            .frames
            .iter()
            .map(|f| MIN_FRAME_BYTES + f.kind.len() + f.payload.len())
            .sum();
        let mut out = Vec::with_capacity(4 + body);
        out.extend_from_slice(&(self.frames.len() as u32).to_le_bytes());
        for f in &self.frames {
            out.extend_from_slice(&(f.kind.len() as u16).to_le_bytes());
            out.extend_from_slice(f.kind.as_bytes());
            out.extend_from_slice(&(f.payload.len() as u32).to_le_bytes());
            out.extend_from_slice(&f.payload);
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
        let count = Self::peek_count(bytes).ok_or(FrameDecodeError::new("missing frame count"))?;
        let mut at = 4usize;
        // Every length prefix below is validated against the remaining
        // buffer *before* any slice or allocation happens; `take` is the
        // single bounds gate.
        let take = |at: &mut usize, n: usize| -> Result<&[u8], FrameDecodeError> {
            let end = at
                .checked_add(n)
                .filter(|&e| e <= bytes.len())
                .ok_or(FrameDecodeError::new("truncated"))?;
            let s = &bytes[*at..end];
            *at = end;
            Ok(s)
        };
        fn fixed<const N: usize>(s: &[u8]) -> Result<[u8; N], FrameDecodeError> {
            s.try_into().map_err(|_| FrameDecodeError::new("truncated"))
        }
        // A hostile count cannot force a huge pre-allocation: each frame
        // occupies at least MIN_FRAME_BYTES, so cap by what the buffer
        // could physically hold (the loop still errors on truncation).
        let plausible = bytes.len().saturating_sub(4) / MIN_FRAME_BYTES;
        let mut frames = Vec::with_capacity(count.min(plausible));
        for _ in 0..count {
            let klen = u16::from_le_bytes(fixed(take(&mut at, 2)?)?) as usize;
            let kind = map_kind(
                std::str::from_utf8(take(&mut at, klen)?)
                    .map_err(|_| FrameDecodeError::new("kind not utf8"))?,
            )?;
            let plen = u32::from_le_bytes(fixed(take(&mut at, 4)?)?) as usize;
            let payload = Payload::from(take(&mut at, plen)?);
            frames.push(Frame { kind, payload });
        }
        if at != bytes.len() {
            return Err(FrameDecodeError::new("trailing bytes"));
        }
        Ok(FrameBatch { frames })
    }

    /// Reads the frame count from an encoded batch without decoding it —
    /// what the fabrics use to account batched frames per link.
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
