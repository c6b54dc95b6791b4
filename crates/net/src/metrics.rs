//! Traffic accounting.
//!
//! The optimistic protocol's whole point is "saving network resources"
//! (paper Section 1, Figure 1); these counters are how the protocol
//! experiments (F1) quantify that saving, and how the routing experiment
//! (R1) quantifies what interest-indexed dispatch plus wire batching save
//! on top.
//!
//! Kind tags are `&'static str` — every sender passes a constant from a
//! `kinds` module (or a string literal), so recording a message allocates
//! nothing on the send hot path.

use std::collections::BTreeMap;

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
    /// by the frame's own kind. A batched frame's bytes are part of the
    /// `batch` entry in [`per_kind`](Self::per_kind); this map attributes
    /// them back to the protocol kind (OBJECT vs control traffic), so it
    /// is an attribution overlay — do not add it to
    /// [`bytes`](Self::bytes).
    pub per_batched_kind: BTreeMap<&'static str, KindMetrics>,
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

/// Wire-batching counters for one `(from, to)` link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkBatchMetrics {
    /// Batch messages sent on this link.
    pub batches: u64,
    /// Frames coalesced into those batches.
    pub frames: u64,
    /// Payload bytes of those batch messages.
    pub bytes: u64,
    /// Times a burst on this link exceeded the sender's wire-batch cap
    /// and was split into additional wire messages (a burst shipped as
    /// `k` messages counts `k - 1` splits).
    pub splits: u64,
}

impl NetMetrics {
    /// Records one sent message. Allocation-free: the kind tag is a
    /// static constant shared by every message of that kind.
    pub fn record(&mut self, kind: &'static str, bytes: usize) {
        self.messages += 1;
        self.bytes += bytes as u64;
        let k = self.per_kind.entry(kind).or_default();
        k.messages += 1;
        k.bytes += bytes as u64;
    }

    /// Records one batch message carrying `frames` coalesced frames on
    /// the `(from, to)` link. Called *in addition to* [`record`] by the
    /// fabrics whenever a [`kinds::BATCH`](crate::kinds::BATCH) message
    /// is sent.
    ///
    /// [`record`]: Self::record
    pub fn record_batch(&mut self, from: PeerId, to: PeerId, frames: usize, bytes: usize) {
        let l = self.per_link.entry((from, to)).or_default();
        l.batches += 1;
        l.frames += frames as u64;
        l.bytes += bytes as u64;
    }

    /// Records that a sender's wire-batch cap split one link's burst
    /// into `extra` additional wire messages. Called by the fabrics on
    /// behalf of the batching layer (see
    /// [`Transport::record_batch_splits`](crate::Transport::record_batch_splits)).
    pub fn record_batch_splits(&mut self, from: PeerId, to: PeerId, extra: u64) {
        self.per_link.entry((from, to)).or_default().splits += extra;
    }

    /// Attributes one frame shipped *inside* a batch message to its own
    /// kind. Called by the batching layer through
    /// [`Transport::record_batched_frame`](crate::Transport::record_batched_frame);
    /// allocation-free like [`record`](Self::record).
    pub fn record_batched_frame(&mut self, kind: &'static str, bytes: usize) {
        let k = self.per_batched_kind.entry(kind).or_default();
        k.messages += 1;
        k.bytes += bytes as u64;
    }

    /// Records one payload encode performed by the layer above (see
    /// [`Transport::record_payload_encode`](crate::Transport::record_payload_encode)).
    pub fn record_payload_encode(&mut self) {
        self.payload_encodes += 1;
    }

    /// Records one message forwarded onto a cross-shard bridge.
    /// Called *in addition to* [`record`](Self::record) — the message's
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
            let e = self.per_kind.entry(kind).or_default();
            e.messages += k.messages;
            e.bytes += k.bytes;
        }
        for (kind, k) in &other.per_batched_kind {
            let e = self.per_batched_kind.entry(kind).or_default();
            e.messages += k.messages;
            e.bytes += k.bytes;
        }
        for (link, l) in &other.per_link {
            let e = self.per_link.entry(*link).or_default();
            e.batches += l.batches;
            e.frames += l.frames;
            e.bytes += l.bytes;
            e.splits += l.splits;
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

    /// Total cap-forced batch splits across all links.
    pub fn batch_splits(&self) -> u64 {
        self.per_link.values().map(|l| l.splits).sum()
    }

    /// Resets all counters.
    pub fn reset(&mut self) {
        *self = NetMetrics::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_totals_and_kinds() {
        let mut m = NetMetrics::default();
        m.record("object", 100);
        m.record("object", 50);
        m.record("assembly", 4000);
        assert_eq!(m.messages, 3);
        assert_eq!(m.bytes, 4150);
        assert_eq!(m.kind("object").messages, 2);
        assert_eq!(m.kind("object").bytes, 150);
        assert_eq!(m.kind("assembly").bytes, 4000);
        assert_eq!(m.kind("never").messages, 0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = NetMetrics::default();
        m.record("x", 1);
        m.record_batch(PeerId(1), PeerId(2), 3, 64);
        m.reset();
        assert_eq!(m, NetMetrics::default());
    }

    #[test]
    fn per_link_batches_accumulate() {
        let mut m = NetMetrics::default();
        m.record_batch(PeerId(1), PeerId(2), 4, 100);
        m.record_batch(PeerId(1), PeerId(2), 6, 200);
        m.record_batch(PeerId(1), PeerId(3), 1, 10);
        let l = m.link(PeerId(1), PeerId(2));
        assert_eq!(l.batches, 2);
        assert_eq!(l.frames, 10);
        assert_eq!(l.bytes, 300);
        assert_eq!(m.batches(), 3);
        assert_eq!(m.batched_frames(), 11);
        assert_eq!(m.link(PeerId(9), PeerId(9)), LinkBatchMetrics::default());
    }

    #[test]
    fn batched_frames_attribute_to_their_kind() {
        let mut m = NetMetrics::default();
        // One batch message of 150 B carrying two object frames and a
        // subscribe frame.
        m.record("batch", 150);
        m.record_batched_frame("object", 60);
        m.record_batched_frame("object", 50);
        m.record_batched_frame("subscribe", 20);
        // Plus one standalone object message.
        m.record("object", 40);
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
        assert_eq!(m.bytes, 190);
        m.record_payload_encode();
        assert_eq!(m.payload_encodes, 1);
    }

    #[test]
    fn merge_sums_every_counter_including_the_maps() {
        let mut a = NetMetrics::default();
        a.record("object", 100);
        a.record_batch(PeerId(1), PeerId(2), 2, 100);
        a.record_batched_frame("object", 60);
        a.record_payload_encode();
        a.record_bridge_crossing(40);
        let mut b = NetMetrics::default();
        b.record("object", 50);
        b.record("view", 10);
        b.record_batch(PeerId(1), PeerId(2), 3, 50);
        b.record_batch_splits(PeerId(3), PeerId(4), 2);
        b.record_bridge_crossing(10);
        b.record_fault(crate::FaultDecision::Drop);
        b.record_fault(crate::FaultDecision::Duplicate);
        b.record_fault(crate::FaultDecision::Partitioned);
        b.record_fault(crate::FaultDecision::Deliver);
        a.merge(&b);
        assert_eq!(a.messages, 3);
        assert_eq!(a.bytes, 160);
        assert_eq!(a.kind("object").messages, 2);
        assert_eq!(a.kind("view").bytes, 10);
        assert_eq!(a.batched_kind("object").bytes, 60);
        let l = a.link(PeerId(1), PeerId(2));
        assert_eq!((l.batches, l.frames, l.bytes), (2, 5, 150));
        assert_eq!(a.link(PeerId(3), PeerId(4)).splits, 2);
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

    #[test]
    fn batch_splits_accumulate_per_link() {
        let mut m = NetMetrics::default();
        m.record_batch_splits(PeerId(1), PeerId(2), 2);
        m.record_batch_splits(PeerId(1), PeerId(2), 1);
        m.record_batch_splits(PeerId(1), PeerId(3), 4);
        assert_eq!(m.link(PeerId(1), PeerId(2)).splits, 3);
        assert_eq!(m.batch_splits(), 7);
        assert_eq!(m.link(PeerId(2), PeerId(1)).splits, 0);
    }
}
