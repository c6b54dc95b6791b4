//! Traffic accounting.
//!
//! The optimistic protocol's whole point is "saving network resources"
//! (paper Section 1, Figure 1); these counters are how the protocol
//! experiments (F1) quantify that saving, and how the routing experiment
//! (R1) quantifies what interest-indexed dispatch plus wire batching save
//! on top.
//!
//! The fabric that accepts a send is the one writer of the traffic counters:
//! both fabrics call [`NetMetrics::record_send`] once per accepted
//! message, and it counts a batch from the batch's own bytes. Kind tags
//! are `&'static str` constants, so recording a message allocates nothing
//! on the send hot path; a batched frame's kind is read from the wire,
//! and its key is allocated once, the first time that kind rides a batch.

use std::collections::BTreeMap;

use crate::frame::{kinds, FrameBatch};
use crate::sim::PeerId;

/// Per-kind and total message/byte counters, plus per-link batching
/// counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetMetrics {
    /// Total messages sent.
    pub messages: u64,
    /// Total payload bytes sent.
    pub bytes: u64,
    /// Counters per message kind (e.g. `object`, `desc-request`,
    /// `assembly`), keyed by the kind tag.
    pub per_kind: BTreeMap<&'static str, KindMetrics>,
    /// Counters for frames that travelled *inside* batch messages, keyed
    /// by the frame's own kind as read from the batch. A batched frame's
    /// payload bytes are part of the `batch` entry in
    /// [`per_kind`](Self::per_kind); this map attributes them back to the
    /// protocol kind (OBJECT vs control traffic), so it is an attribution
    /// overlay — do not add it to [`bytes`](Self::bytes).
    pub per_batched_kind: BTreeMap<Box<str>, KindMetrics>,
    /// Batching counters per `(from, to)` link — populated whenever a
    /// [`FrameBatch`](crate::FrameBatch) message crosses that link.
    pub per_link: BTreeMap<(PeerId, PeerId), LinkBatchMetrics>,
    /// Payload encodes performed by the layer above (one per published
    /// envelope). Compared against per-kind OBJECT counts, this proves
    /// the fan-out path encodes once per publish and shares the bytes
    /// across destinations instead of re-encoding or copying.
    pub payload_encodes: u64,
    /// Messages this fabric forwarded onto a cross-shard bridge (their
    /// kind/byte counters are also in the totals above — this counts how
    /// much of the traffic left the shard).
    pub bridge_crossings: u64,
    /// Payload bytes those bridged messages carried.
    pub bridge_bytes: u64,
    /// Messages an installed [`FaultPlan`](crate::FaultPlan) silently
    /// dropped (their send was still recorded in the counters above —
    /// the bytes hit the wire, then were lost).
    pub faults_dropped: u64,
    /// Messages a fault plan delivered twice.
    pub faults_duplicated: u64,
    /// Messages blocked by an active fault-plan partition.
    pub faults_partitioned: u64,
}

/// Counters for one message kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindMetrics {
    /// Messages of this kind.
    pub messages: u64,
    /// Payload bytes of this kind.
    pub bytes: u64,
}

impl KindMetrics {
    fn add(&mut self, messages: u64, bytes: u64) {
        self.messages += messages;
        self.bytes += bytes;
    }
}

/// Wire-batching counters for one `(from, to)` link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkBatchMetrics {
    /// Batch messages sent on this link.
    pub batches: u64,
    /// Frames coalesced into those batches.
    pub frames: u64,
    /// Payload bytes of those batch messages.
    pub bytes: u64,
}

impl NetMetrics {
    /// Records one message the fabric accepted on the `(from, to)` link:
    /// the totals and `kind`'s counters. A [`kinds::BATCH`] message also
    /// counts as one batch of the frames its header claims on that link,
    /// and each of its frames' payload bytes is attributed to the frame's
    /// own kind in [`per_batched_kind`](Self::per_batched_kind). A batch
    /// that does not decode attributes nothing.
    pub fn record_send(&mut self, from: PeerId, to: PeerId, kind: &'static str, payload: &[u8]) {
        let bytes = payload.len() as u64;
        self.messages += 1;
        self.bytes += bytes;
        self.per_kind.entry(kind).or_default().add(1, bytes);
        if kind != kinds::BATCH {
            return;
        }
        let link = self.per_link.entry((from, to)).or_default();
        link.batches += 1;
        link.frames += FrameBatch::peek_count(payload).unwrap_or(0) as u64;
        link.bytes += bytes;
        // Check the whole batch before attributing any of it.
        if FrameBatch::walk(payload, |_, _| Ok(())).is_ok() {
            let _ = FrameBatch::walk(payload, |kind, frame| {
                self.attribute(kind, 1, frame.len() as u64);
                Ok(())
            });
        }
    }

    /// Adds to one batched kind's counters, allocating its key only the
    /// first time the kind is seen.
    fn attribute(&mut self, kind: &str, messages: u64, bytes: u64) {
        if let Some(k) = self.per_batched_kind.get_mut(kind) {
            k.add(messages, bytes);
        } else {
            self.per_batched_kind
                .insert(kind.into(), KindMetrics { messages, bytes });
        }
    }

    /// Records one payload encode performed by the layer above (see
    /// [`Transport::record_payload_encode`](crate::Transport::record_payload_encode)).
    pub fn record_payload_encode(&mut self) {
        self.payload_encodes += 1;
    }

    /// Records one message forwarded onto a cross-shard bridge.
    /// Called *in addition to* [`record_send`](Self::record_send) — the message's
    /// kind/byte counters stay in the totals, this measures how much of
    /// the traffic was cross-shard.
    pub fn record_bridge_crossing(&mut self, bytes: usize) {
        self.bridge_crossings += 1;
        self.bridge_bytes += bytes as u64;
    }

    /// Records the outcome of one fault-plan decision (no-op for
    /// [`FaultDecision::Deliver`](crate::FaultDecision::Deliver)).
    pub fn record_fault(&mut self, decision: crate::FaultDecision) {
        match decision {
            crate::FaultDecision::Deliver => {}
            crate::FaultDecision::Drop => self.faults_dropped += 1,
            crate::FaultDecision::Duplicate => self.faults_duplicated += 1,
            crate::FaultDecision::Partitioned => self.faults_partitioned += 1,
        }
    }

    /// Folds another fabric's counters into this one — how a sharded
    /// host aggregates its per-shard `NetMetrics` into one fabric-wide
    /// view. Every counter sums, including the per-kind / per-link maps.
    pub fn merge(&mut self, other: &NetMetrics) {
        self.messages += other.messages;
        self.bytes += other.bytes;
        self.payload_encodes += other.payload_encodes;
        self.bridge_crossings += other.bridge_crossings;
        self.bridge_bytes += other.bridge_bytes;
        self.faults_dropped += other.faults_dropped;
        self.faults_duplicated += other.faults_duplicated;
        self.faults_partitioned += other.faults_partitioned;
        for (kind, k) in &other.per_kind {
            self.per_kind
                .entry(kind)
                .or_default()
                .add(k.messages, k.bytes);
        }
        for (kind, k) in &other.per_batched_kind {
            self.attribute(kind, k.messages, k.bytes);
        }
        for (link, l) in &other.per_link {
            let e = self.per_link.entry(*link).or_default();
            e.batches += l.batches;
            e.frames += l.frames;
            e.bytes += l.bytes;
        }
    }

    /// Counters for one kind (zero if the kind never appeared).
    pub fn kind(&self, kind: &str) -> KindMetrics {
        self.per_kind.get(kind).copied().unwrap_or_default()
    }

    /// Counters for frames of one kind that travelled inside batches
    /// (zero if none did).
    pub fn batched_kind(&self, kind: &str) -> KindMetrics {
        self.per_batched_kind.get(kind).copied().unwrap_or_default()
    }

    /// All wire bytes attributable to one kind: standalone messages of
    /// that kind plus frames of that kind coalesced into batches. This is
    /// what lets an experiment split total traffic into OBJECT vs control
    /// bytes even when everything rides the batching path.
    pub fn attributed(&self, kind: &str) -> KindMetrics {
        let a = self.kind(kind);
        let b = self.batched_kind(kind);
        KindMetrics {
            messages: a.messages + b.messages,
            bytes: a.bytes + b.bytes,
        }
    }

    /// Attributed counters summed over several kinds — the one-call way
    /// to total a traffic *class* (e.g. the membership control kinds
    /// `join`/`view`/`leave`) whether its messages travelled standalone
    /// or coalesced into batches.
    pub fn attributed_sum(&self, kinds: &[&str]) -> KindMetrics {
        let mut total = KindMetrics::default();
        for kind in kinds {
            let k = self.attributed(kind);
            total.messages += k.messages;
            total.bytes += k.bytes;
        }
        total
    }

    /// Batching counters for one link (zero if no batch crossed it).
    pub fn link(&self, from: PeerId, to: PeerId) -> LinkBatchMetrics {
        self.per_link.get(&(from, to)).copied().unwrap_or_default()
    }

    /// Total batch messages across all links.
    pub fn batches(&self) -> u64 {
        self.per_link.values().map(|l| l.batches).sum()
    }

    /// Total frames coalesced into batches across all links.
    pub fn batched_frames(&self) -> u64 {
        self.per_link.values().map(|l| l.frames).sum()
    }

    /// Resets all counters.
    pub fn reset(&mut self) {
        *self = NetMetrics::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: PeerId = PeerId(1);
    const B: PeerId = PeerId(2);

    fn batch(frames: &[(&'static str, usize)]) -> Vec<u8> {
        let mut b = FrameBatch::new();
        for &(kind, len) in frames {
            b.push(kind, vec![0u8; len]);
        }
        b.encode()
    }

    #[test]
    fn records_totals_and_kinds() {
        let mut m = NetMetrics::default();
        m.record_send(A, B, "object", &[0; 100]);
        m.record_send(A, B, "object", &[0; 50]);
        m.record_send(B, A, "assembly", &[0; 4000]);
        assert_eq!(m.messages, 3);
        assert_eq!(m.bytes, 4150);
        assert_eq!(m.kind("object").messages, 2);
        assert_eq!(m.kind("object").bytes, 150);
        assert_eq!(m.kind("assembly").bytes, 4000);
        assert_eq!(m.kind("never").messages, 0);
        assert_eq!(m.batches(), 0, "plain messages touch no link counters");
        assert!(m.per_batched_kind.is_empty());
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = NetMetrics::default();
        m.record_send(A, B, "x", &[0]);
        m.record_send(A, B, kinds::BATCH, &batch(&[("object", 3), ("view", 1)]));
        m.reset();
        assert_eq!(m, NetMetrics::default());
    }

    #[test]
    fn per_link_batches_accumulate() {
        let mut m = NetMetrics::default();
        let four = batch(&[("object", 10); 4]);
        let six = batch(&[("object", 20); 6]);
        let one = batch(&[("view", 5)]);
        m.record_send(A, B, kinds::BATCH, &four);
        m.record_send(A, B, kinds::BATCH, &six);
        m.record_send(A, PeerId(3), kinds::BATCH, &one);
        let l = m.link(A, B);
        assert_eq!(l.batches, 2);
        assert_eq!(l.frames, 10);
        assert_eq!(l.bytes, (four.len() + six.len()) as u64);
        assert_eq!(m.batches(), 3);
        assert_eq!(m.batched_frames(), 11);
        assert_eq!(m.kind(kinds::BATCH).messages, 3);
        assert_eq!(m.link(PeerId(9), PeerId(9)), LinkBatchMetrics::default());
    }

    #[test]
    fn batched_frames_attribute_to_their_kind() {
        let mut m = NetMetrics::default();
        // One batch message carrying two object frames and a subscribe
        // frame, plus one standalone object message.
        let wire = batch(&[("object", 60), ("object", 50), ("subscribe", 20)]);
        m.record_send(A, B, kinds::BATCH, &wire);
        m.record_send(A, B, "object", &[0; 40]);
        assert_eq!(m.batched_kind("object").messages, 2);
        assert_eq!(m.batched_kind("object").bytes, 110);
        assert_eq!(m.attributed("object").messages, 3);
        assert_eq!(m.attributed("object").bytes, 150);
        assert_eq!(m.attributed("subscribe").bytes, 20);
        let class = m.attributed_sum(&["object", "subscribe"]);
        assert_eq!(class.messages, 4);
        assert_eq!(class.bytes, 170);
        assert_eq!(m.attributed_sum(&["never"]), KindMetrics::default());
        assert_eq!(m.batched_kind("never"), KindMetrics::default());
        // The overlay does not inflate the totals.
        assert_eq!(m.bytes, wire.len() as u64 + 40);
        m.record_payload_encode();
        assert_eq!(m.payload_encodes, 1);
    }

    #[test]
    fn a_batch_that_does_not_decode_counts_its_header_and_attributes_nothing() {
        let mut m = NetMetrics::default();
        let wire = batch(&[("object", 60), ("object", 50), ("subscribe", 20)]);
        let cut = &wire[..wire.len() - 1];
        m.record_send(A, B, kinds::BATCH, cut);
        assert_eq!(m.messages, 1);
        assert_eq!(m.kind(kinds::BATCH).bytes, cut.len() as u64);
        let l = m.link(A, B);
        assert_eq!((l.batches, l.frames, l.bytes), (1, 3, cut.len() as u64));
        assert!(
            m.per_batched_kind.is_empty(),
            "no frame of a torn batch is attributed"
        );
        // A batch too short to hold a header counts as a batch of none.
        m.record_send(A, B, kinds::BATCH, &[1, 0]);
        assert_eq!((m.link(A, B).batches, m.link(A, B).frames), (2, 3));
    }

    #[test]
    fn merge_sums_every_counter_including_the_maps() {
        let mut a = NetMetrics::default();
        a.record_send(A, B, "object", &[0; 100]);
        a.record_send(A, B, kinds::BATCH, &batch(&[("object", 60), ("view", 4)]));
        a.record_payload_encode();
        a.record_bridge_crossing(40);
        let mut b = NetMetrics::default();
        b.record_send(A, B, "object", &[0; 50]);
        b.record_send(B, A, "view", &[0; 10]);
        b.record_send(A, B, kinds::BATCH, &batch(&[("object", 7); 3]));
        b.record_bridge_crossing(10);
        b.record_fault(crate::FaultDecision::Drop);
        b.record_fault(crate::FaultDecision::Duplicate);
        b.record_fault(crate::FaultDecision::Partitioned);
        b.record_fault(crate::FaultDecision::Deliver);
        let (a_batch, b_batch) = (a.link(A, B).bytes, b.link(A, B).bytes);
        a.merge(&b);
        assert_eq!(a.messages, 5);
        assert_eq!(a.bytes, 160 + a_batch + b_batch);
        assert_eq!(a.kind("object").messages, 2);
        assert_eq!(a.kind("view").bytes, 10);
        assert_eq!(
            a.batched_kind("object"),
            KindMetrics {
                messages: 4,
                bytes: 81
            }
        );
        assert_eq!(
            a.batched_kind("view"),
            KindMetrics {
                messages: 1,
                bytes: 4
            }
        );
        let l = a.link(A, B);
        assert_eq!((l.batches, l.frames, l.bytes), (2, 5, a_batch + b_batch));
        assert_eq!(a.payload_encodes, 1);
        assert_eq!((a.bridge_crossings, a.bridge_bytes), (2, 50));
        assert_eq!(
            (a.faults_dropped, a.faults_duplicated, a.faults_partitioned),
            (1, 1, 1)
        );
        // Merging an empty fabric is the identity.
        let before = a.clone();
        a.merge(&NetMetrics::default());
        assert_eq!(a, before);
    }
}
