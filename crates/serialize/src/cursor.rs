//! Minimal byte-buffer helpers for the binary format.
//!
//! A growable write buffer and a borrowing read cursor — the only two
//! shapes the binary codec needs, kept dependency-free.

/// Append-only byte buffer.
pub(crate) struct PutBuf {
    bytes: Vec<u8>,
}

impl PutBuf {
    pub(crate) fn with_capacity(cap: usize) -> PutBuf {
        PutBuf {
            bytes: Vec::with_capacity(cap),
        }
    }

    pub(crate) fn put_u8(&mut self, b: u8) {
        self.bytes.push(b);
    }

    pub(crate) fn put_slice(&mut self, s: &[u8]) {
        self.bytes.extend_from_slice(s);
    }

    pub(crate) fn put_f64_le(&mut self, v: f64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn into_vec(self) -> Vec<u8> {
        self.bytes
    }
}

/// Forward-only cursor over a byte slice.
///
/// All `get_*`/`take` calls assume the caller checked
/// [`remaining`](Self::remaining) first (the codec always does, so a
/// violation is a codec bug, reported by panic).
pub(crate) struct GetBuf<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> GetBuf<'a> {
    pub(crate) fn new(data: &'a [u8]) -> GetBuf<'a> {
        GetBuf { data, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Bytes consumed so far (the offset of the next read).
    pub(crate) fn position(&self) -> usize {
        self.pos
    }

    pub(crate) fn has_remaining(&self) -> bool {
        self.pos < self.data.len()
    }

    pub(crate) fn get_u8(&mut self) -> u8 {
        let b = self.data[self.pos];
        self.pos += 1;
        b
    }

    pub(crate) fn get_f64_le(&mut self) -> f64 {
        let mut raw = [0u8; 8];
        self.copy_to_slice(&mut raw);
        f64::from_le_bytes(raw)
    }

    pub(crate) fn copy_to_slice(&mut self, out: &mut [u8]) {
        out.copy_from_slice(self.take(out.len()));
    }

    pub(crate) fn take(&mut self, len: usize) -> &'a [u8] {
        let s = &self.data[self.pos..self.pos + len];
        self.pos += len;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_back() {
        let mut w = PutBuf::with_capacity(4);
        w.put_u8(7);
        w.put_slice(b"ab");
        w.put_f64_le(1.5);
        let v = w.into_vec();
        let mut r = GetBuf::new(&v);
        assert_eq!(r.remaining(), 11);
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.take(2), b"ab");
        assert_eq!(r.get_f64_le(), 1.5);
        assert!(!r.has_remaining());
    }
}
