//! At-least-once delivery for OBJECT traffic: per-link sequencing,
//! cumulative ACKs, timer-driven retransmission with exponential
//! backoff, credit-based flow control, and per-topic retained-event
//! rings for catch-up replay.
//!
//! The engine is pure state + arithmetic: it never touches the network.
//! The swarm feeds it events (`offer`, `on_object_r`, `on_ack`, `poll`)
//! and queues whatever frames the engine hands back, which keeps the
//! borrow structure simple and the whole layer deterministic — the only
//! input besides the frames themselves is the fabric clock
//! (`Transport::now_us`), which is virtual on the simulated fabrics.
//!
//! ## Wire formats
//!
//! A reliable object frame (`kinds::OBJECT_R`) prefixes the encoded
//! envelope with a 20-byte header:
//!
//! ```text
//! [ 8B link_seq LE ][ 4B publisher LE ][ 8B event_seq LE ][ envelope ]
//! ```
//!
//! `link_seq` orders the (sender, receiver) link (Go-Back-N);
//! `publisher`/`event_seq` identify the event end-to-end so replays and
//! retransmits never double-deliver. An ACK frame (`kinds::ACK`) is the
//! 8-byte little-endian cumulative `link_seq` the receiver has accepted
//! through.

use std::collections::{BTreeMap, VecDeque};

use pti_net::{Payload, PeerId};

/// Bytes of reliable-frame header preceding the envelope.
pub const RELIABLE_HEADER_LEN: usize = 20;

/// Delivery guarantee requested for routed OBJECT traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum QoS {
    /// Ship once, never retransmit (the pre-durability behavior).
    #[default]
    FireAndForget,
    /// Sequence, acknowledge, and retransmit until delivered or the
    /// retry budget is exhausted.
    AtLeastOnce,
}

/// Tunables for the at-least-once machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryConfig {
    /// Requested guarantee for routed objects.
    pub qos: QoS,
    /// Maximum unacknowledged frames per (sender, receiver) link; the
    /// sender stops transmitting at zero credit and ACKs replenish.
    pub credit_window: usize,
    /// Events retained per topic for catch-up replay (0 = no replay).
    pub replay_depth: usize,
    /// Initial retransmit backoff in fabric microseconds (doubles per
    /// retry round).
    pub retransmit_base_us: u64,
    /// Retry rounds before a link is declared unreachable.
    pub max_retries: u32,
}

impl Default for DeliveryConfig {
    fn default() -> DeliveryConfig {
        DeliveryConfig {
            qos: QoS::FireAndForget,
            credit_window: 32,
            replay_depth: 0,
            retransmit_base_us: 4_000,
            max_retries: 6,
        }
    }
}

/// Counters the durability layer keeps (all monotonic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveryStats {
    /// Events handed to `offer` (per destination).
    pub events_offered: u64,
    /// Reliable frames admitted to a link (first transmission).
    pub frames_sent: u64,
    /// Frames resent by the retransmit timer (Go-Back-N resends each
    /// count individually).
    pub retransmits: u64,
    /// ACK frames produced.
    pub acks_sent: u64,
    /// ACK frames consumed.
    pub acks_received: u64,
    /// Events accepted in order and surfaced to the typed layer.
    pub delivered: u64,
    /// Link-level duplicates (already-acknowledged `link_seq`) dropped.
    pub link_duplicates: u64,
    /// Out-of-order frames discarded pending retransmission of the gap.
    pub gap_discards: u64,
    /// Events suppressed by the (publisher, event_seq) watermark — the
    /// replay/retransmit dedup the typed layer never sees.
    pub duplicates_suppressed: u64,
    /// Retained events re-offered to late joiners.
    pub replayed: u64,
    /// Links declared unreachable after exhausting retries.
    pub unreachable: u64,
    /// High-water mark of any link's in-flight queue (never exceeds the
    /// credit window by construction).
    pub max_inflight: usize,
    /// High-water mark of any link's zero-credit overflow buffer.
    pub max_pending: usize,
}

/// One event held in a per-topic replay ring.
#[derive(Debug, Clone)]
pub struct RetainedEvent {
    /// Peer that originally routed the event.
    pub publisher: PeerId,
    /// The publisher's end-to-end sequence number for the event.
    pub event_seq: u64,
    /// The encoded object envelope (unframed).
    pub bytes: Payload,
}

/// Receiver verdict for one inbound reliable frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inbound {
    /// In order and novel: surface the envelope (bytes after
    /// [`RELIABLE_HEADER_LEN`]) to the typed layer.
    Deliver {
        /// Originating publisher from the frame header.
        publisher: PeerId,
        /// End-to-end sequence from the frame header.
        event_seq: u64,
    },
    /// In order on the link but at or below the publisher's delivery
    /// watermark (a replay or cross-link duplicate): acknowledged,
    /// not surfaced.
    Suppressed,
    /// Below the link's cumulative ACK (a retransmit of something
    /// already accepted): dropped, ACK repeated.
    LinkDuplicate,
    /// Ahead of the expected sequence (a gap from loss): discarded, the
    /// repeated ACK asks the sender to go back.
    GapDiscard,
    /// Header shorter than [`RELIABLE_HEADER_LEN`].
    Malformed,
}

/// Frames and verdicts produced by one retransmit-timer poll.
#[derive(Debug, Default)]
pub struct PollOutcome {
    /// Frames to re-queue, as (sender, receiver, frame).
    pub retransmits: Vec<(PeerId, PeerId, Payload)>,
    /// Links that exhausted their retry budget, as (sender, receiver);
    /// the engine has already shed their state.
    pub unreachable: Vec<(PeerId, PeerId)>,
}

/// Sending half of one (sender, receiver) link.
#[derive(Debug, Default)]
struct SenderLink {
    /// Next `link_seq` to assign (first transmission uses 1).
    next_seq: u64,
    /// Frames transmitted but not yet cumulatively acknowledged.
    inflight: VecDeque<(u64, Payload)>,
    /// Events awaiting credit, unframed: (publisher, event_seq, bytes).
    pending: VecDeque<(PeerId, u64, Payload)>,
    /// Current backoff; doubles each retry round.
    backoff_us: u64,
    /// Fabric time of the next retransmit (0 = nothing scheduled).
    next_retry_us: u64,
    /// Consecutive retry rounds without an ACK.
    retries: u32,
}

/// Receiving half of one (receiver, sender) link.
#[derive(Debug)]
struct ReceiverLink {
    /// Next `link_seq` the receiver will accept.
    expected: u64,
}

/// The at-least-once delivery engine one swarm owns: sender/receiver
/// link state, per-publisher event sequencing, dedup watermarks, and
/// the retained-event replay rings.
#[derive(Debug, Default)]
pub struct DeliveryEngine {
    config: DeliveryConfig,
    /// Sending links keyed (local sender, remote receiver).
    senders: BTreeMap<(PeerId, PeerId), SenderLink>,
    /// Receiving links keyed (local receiver, remote sender).
    receivers: BTreeMap<(PeerId, PeerId), ReceiverLink>,
    /// Highest event_seq surfaced per (local receiver, publisher) — the
    /// end-to-end dedup watermark.
    watermarks: BTreeMap<(PeerId, PeerId), u64>,
    /// Next event_seq per local publisher.
    event_seqs: BTreeMap<PeerId, u64>,
    /// Per-topic replay rings, keyed by simple type name.
    retained: BTreeMap<String, VecDeque<RetainedEvent>>,
    stats: DeliveryStats,
}

impl DeliveryEngine {
    /// Creates an engine with the given tunables.
    pub fn new(config: DeliveryConfig) -> DeliveryEngine {
        DeliveryEngine {
            config,
            ..DeliveryEngine::default()
        }
    }

    /// The engine's tunables.
    pub fn config(&self) -> &DeliveryConfig {
        &self.config
    }

    /// Mutable access to the tunables (builder-time only; changing the
    /// credit window mid-flight affects only future admissions).
    pub fn config_mut(&mut self) -> &mut DeliveryConfig {
        &mut self.config
    }

    /// Counter snapshot.
    pub fn stats(&self) -> DeliveryStats {
        self.stats
    }

    /// Mutable counters (the swarm bumps `replayed` at its replay hook).
    pub fn stats_mut(&mut self) -> &mut DeliveryStats {
        &mut self.stats
    }

    /// Allocates the next end-to-end sequence for a local publisher
    /// (first call returns 1).
    pub fn next_event_seq(&mut self, publisher: PeerId) -> u64 {
        let seq = self.event_seqs.entry(publisher).or_insert(0);
        *seq += 1;
        *seq
    }

    /// Retains an event in the topic's replay ring (no-op when
    /// `replay_depth` is 0). Oldest events fall off the ring.
    pub fn retain(&mut self, type_name: &str, publisher: PeerId, event_seq: u64, bytes: Payload) {
        let depth = self.config.replay_depth;
        if depth == 0 {
            return;
        }
        let ring = self.retained.entry(type_name.to_string()).or_default();
        ring.push_back(RetainedEvent {
            publisher,
            event_seq,
            bytes,
        });
        while ring.len() > depth {
            ring.pop_front();
        }
    }

    /// A clone of every replay ring, as (type name, events oldest
    /// first). Payload clones are refcount bumps.
    pub fn replay_snapshot(&self) -> Vec<(String, Vec<RetainedEvent>)> {
        self.retained
            .iter()
            .map(|(name, ring)| (name.clone(), ring.iter().cloned().collect()))
            .collect()
    }

    /// Offers one event to one receiver. Returns the framed payload to
    /// queue if the link has credit; otherwise buffers the event until
    /// an ACK frees a slot (the caller sends nothing now).
    pub fn offer(
        &mut self,
        from: PeerId,
        to: PeerId,
        publisher: PeerId,
        event_seq: u64,
        envelope: &Payload,
        now_us: u64,
    ) -> Option<Payload> {
        self.stats.events_offered += 1;
        let window = self.config.credit_window;
        let base = self.config.retransmit_base_us;
        let link = self.senders.entry((from, to)).or_default();
        if link.inflight.len() >= window {
            // pti-allow(unbounded-queue): zero-credit overflow buffer —
            // drained as ACKs replenish credit; depth is surfaced in
            // DeliveryStats::max_pending rather than capped, so the
            // publisher sees backpressure instead of silent loss.
            link.pending
                .push_back((publisher, event_seq, envelope.clone()));
            self.stats.max_pending = self.stats.max_pending.max(link.pending.len());
            return None;
        }
        let frame = Self::admit(link, publisher, event_seq, envelope, now_us, base);
        self.stats.frames_sent += 1;
        self.stats.max_inflight = self.stats.max_inflight.max(link.inflight.len());
        Some(frame)
    }

    /// Frames an event onto a link that has credit: assigns the next
    /// link_seq, records it in flight, and arms the retransmit timer if
    /// it was idle.
    fn admit(
        link: &mut SenderLink,
        publisher: PeerId,
        event_seq: u64,
        envelope: &Payload,
        now_us: u64,
        base_us: u64,
    ) -> Payload {
        link.next_seq += 1;
        let seq = link.next_seq;
        let frame = encode_reliable(seq, publisher, event_seq, envelope);
        // pti-allow(unbounded-queue): bounded by the credit_window check at both call sites
        link.inflight.push_back((seq, frame.clone()));
        if link.next_retry_us == 0 {
            link.backoff_us = base_us;
            link.next_retry_us = now_us.saturating_add(base_us);
        }
        frame
    }

    /// Consumes one inbound reliable frame for `local` from `sender`.
    /// Returns the verdict and, for any well-formed frame, the ACK
    /// payload to queue back to the sender.
    pub fn on_object_r(
        &mut self,
        local: PeerId,
        sender: PeerId,
        payload: &[u8],
    ) -> (Inbound, Option<Payload>) {
        let Some((link_seq, publisher, event_seq)) = decode_reliable_header(payload) else {
            return (Inbound::Malformed, None);
        };
        let link = self
            .receivers
            .entry((local, sender))
            .or_insert(ReceiverLink { expected: 1 });
        let verdict = if link_seq == link.expected {
            link.expected += 1;
            let watermark = self.watermarks.entry((local, publisher)).or_insert(0);
            if event_seq <= *watermark {
                self.stats.duplicates_suppressed += 1;
                Inbound::Suppressed
            } else {
                *watermark = event_seq;
                self.stats.delivered += 1;
                Inbound::Deliver {
                    publisher,
                    event_seq,
                }
            }
        } else if link_seq < link.expected {
            self.stats.link_duplicates += 1;
            Inbound::LinkDuplicate
        } else {
            self.stats.gap_discards += 1;
            Inbound::GapDiscard
        };
        let cumulative = self
            .receivers
            .get(&(local, sender))
            .map(|l| l.expected - 1)
            .unwrap_or(0);
        self.stats.acks_sent += 1;
        (verdict, Some(encode_ack(cumulative)))
    }

    /// Consumes one ACK addressed to local sender `local` from `remote`.
    /// Returns freshly framed payloads for events that the replenished
    /// credit admits (the caller queues them to `remote`), or `None` if
    /// the ACK payload is malformed.
    pub fn on_ack(
        &mut self,
        local: PeerId,
        remote: PeerId,
        payload: &[u8],
        now_us: u64,
    ) -> Option<Vec<Payload>> {
        let cumulative = decode_ack(payload)?;
        self.stats.acks_received += 1;
        let window = self.config.credit_window;
        let base = self.config.retransmit_base_us;
        let Some(link) = self.senders.get_mut(&(local, remote)) else {
            return Some(Vec::new());
        };
        let before = link.inflight.len();
        while link.inflight.front().is_some_and(|(s, _)| *s <= cumulative) {
            link.inflight.pop_front();
        }
        if link.inflight.len() < before {
            // Progress: reset the retry budget and backoff.
            link.retries = 0;
            link.backoff_us = base;
            link.next_retry_us = if link.inflight.is_empty() {
                0
            } else {
                now_us.saturating_add(base)
            };
        }
        let mut refilled = Vec::new();
        while link.inflight.len() < window {
            let Some((publisher, event_seq, bytes)) = link.pending.pop_front() else {
                break;
            };
            refilled.push(Self::admit(
                link, publisher, event_seq, &bytes, now_us, base,
            ));
            self.stats.frames_sent += 1;
        }
        if !refilled.is_empty() {
            let depth = self.senders[&(local, remote)].inflight.len();
            self.stats.max_inflight = self.stats.max_inflight.max(depth);
        }
        Some(refilled)
    }

    /// Fires every due retransmit timer: Go-Back-N resends each overdue
    /// link's in-flight window with doubled backoff, and links past the
    /// retry budget are shed and reported unreachable.
    pub fn poll(&mut self, now_us: u64) -> PollOutcome {
        let mut out = PollOutcome::default();
        for (&(from, to), link) in self.senders.iter_mut() {
            if link.next_retry_us == 0 || now_us < link.next_retry_us || link.inflight.is_empty() {
                continue;
            }
            link.retries += 1;
            if link.retries > self.config.max_retries {
                out.unreachable.push((from, to));
                continue;
            }
            for (_, frame) in &link.inflight {
                out.retransmits.push((from, to, frame.clone()));
                self.stats.retransmits += 1;
            }
            link.backoff_us = link.backoff_us.saturating_mul(2);
            link.next_retry_us = now_us.saturating_add(link.backoff_us);
        }
        for key in &out.unreachable {
            self.senders.remove(key);
            self.stats.unreachable += 1;
        }
        out
    }

    /// The earliest armed retransmit deadline, if any link is waiting on
    /// an ACK.
    pub fn next_deadline_us(&self) -> Option<u64> {
        self.senders
            .values()
            .filter(|l| l.next_retry_us != 0 && !l.inflight.is_empty())
            .map(|l| l.next_retry_us)
            .min()
    }

    /// Whether any link still has unacknowledged or credit-blocked
    /// traffic.
    pub fn has_unsettled(&self) -> bool {
        self.senders
            .values()
            .any(|l| !l.inflight.is_empty() || !l.pending.is_empty())
    }

    /// Sheds every piece of per-peer state involving `peer`: its links
    /// (both directions), its dedup watermarks, and its event-sequence
    /// counter. Retained rings survive — they are topic state, not peer
    /// state — but nothing will replay *to* the shed peer until it is
    /// met again.
    pub fn shed_peer(&mut self, peer: PeerId) {
        self.senders.retain(|&(a, b), _| a != peer && b != peer);
        self.receivers.retain(|&(a, b), _| a != peer && b != peer);
        self.watermarks.retain(|&(a, b), _| a != peer && b != peer);
        self.event_seqs.remove(&peer);
    }
}

/// Builds a reliable frame: header (see module docs) + envelope bytes.
fn encode_reliable(
    link_seq: u64,
    publisher: PeerId,
    event_seq: u64,
    envelope: &Payload,
) -> Payload {
    let mut buf = Vec::with_capacity(RELIABLE_HEADER_LEN + envelope.len());
    buf.extend_from_slice(&link_seq.to_le_bytes());
    buf.extend_from_slice(&publisher.0.to_le_bytes());
    buf.extend_from_slice(&event_seq.to_le_bytes());
    buf.extend_from_slice(envelope.as_ref());
    Payload::from(buf)
}

/// Parses a reliable-frame header: (link_seq, publisher, event_seq).
/// `None` when the payload is shorter than the header.
pub fn decode_reliable_header(payload: &[u8]) -> Option<(u64, PeerId, u64)> {
    let (link_seq, rest) = payload.split_first_chunk::<8>()?;
    let (publisher, rest) = rest.split_first_chunk::<4>()?;
    let (event_seq, _) = rest.split_first_chunk::<8>()?;
    Some((
        u64::from_le_bytes(*link_seq),
        PeerId(u32::from_le_bytes(*publisher)),
        u64::from_le_bytes(*event_seq),
    ))
}

/// Builds an ACK payload: the cumulative link_seq, little-endian.
fn encode_ack(cumulative: u64) -> Payload {
    Payload::from(cumulative.to_le_bytes().to_vec())
}

/// Parses an ACK payload. `None` when malformed.
fn decode_ack(payload: &[u8]) -> Option<u64> {
    let arr: [u8; 8] = payload.try_into().ok()?;
    Some(u64::from_le_bytes(arr))
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: PeerId = PeerId(1);
    const B: PeerId = PeerId(2);

    fn engine(window: usize) -> DeliveryEngine {
        DeliveryEngine::new(DeliveryConfig {
            qos: QoS::AtLeastOnce,
            credit_window: window,
            replay_depth: 4,
            retransmit_base_us: 1_000,
            max_retries: 2,
        })
    }

    fn env(tag: u8) -> Payload {
        Payload::from(vec![tag; 3])
    }

    #[test]
    fn in_order_frames_deliver_and_ack_cumulatively() {
        let mut e = engine(8);
        let s1 = e.next_event_seq(A);
        let s2 = e.next_event_seq(A);
        let f1 = e.offer(A, B, A, s1, &env(1), 0).unwrap();
        let f2 = e.offer(A, B, A, s2, &env(2), 0).unwrap();
        let (v1, ack1) = e.on_object_r(B, A, &f1);
        assert!(matches!(v1, Inbound::Deliver { event_seq: 1, .. }));
        assert_eq!(decode_ack(&ack1.unwrap()), Some(1));
        let (v2, ack2) = e.on_object_r(B, A, &f2);
        assert!(matches!(v2, Inbound::Deliver { event_seq: 2, .. }));
        assert_eq!(decode_ack(&ack2.unwrap()), Some(2));
        assert_eq!(e.stats().delivered, 2);
    }

    #[test]
    fn gap_is_discarded_and_reacked_then_go_back_n_recovers() {
        let mut e = engine(8);
        let s1 = e.next_event_seq(A);
        let s2 = e.next_event_seq(A);
        let f1 = e.offer(A, B, A, s1, &env(1), 0).unwrap();
        let f2 = e.offer(A, B, A, s2, &env(2), 0).unwrap();
        // f1 lost: f2 arrives first.
        let (v, ack) = e.on_object_r(B, A, &f2);
        assert_eq!(v, Inbound::GapDiscard);
        assert_eq!(decode_ack(&ack.unwrap()), Some(0));
        // Timer fires: both frames resent.
        let out = e.poll(1_000);
        assert_eq!(out.retransmits.len(), 2);
        let (v1, _) = e.on_object_r(B, A, &f1);
        assert!(matches!(v1, Inbound::Deliver { .. }));
        let (v2, _) = e.on_object_r(B, A, &f2);
        assert!(matches!(v2, Inbound::Deliver { .. }));
    }

    #[test]
    fn retransmitted_frame_is_link_duplicate_after_accept() {
        let mut e = engine(8);
        let s1 = e.next_event_seq(A);
        let f1 = e.offer(A, B, A, s1, &env(1), 0).unwrap();
        let (v, _) = e.on_object_r(B, A, &f1);
        assert!(matches!(v, Inbound::Deliver { .. }));
        let (v, ack) = e.on_object_r(B, A, &f1);
        assert_eq!(v, Inbound::LinkDuplicate);
        assert_eq!(decode_ack(&ack.unwrap()), Some(1));
        assert_eq!(e.stats().delivered, 1, "typed layer sees it once");
    }

    #[test]
    fn watermark_suppresses_cross_link_replay_of_seen_event() {
        let mut e = engine(8);
        let s1 = e.next_event_seq(A);
        let direct = e.offer(A, B, A, s1, &env(1), 0).unwrap();
        let (v, _) = e.on_object_r(B, A, &direct);
        assert!(matches!(v, Inbound::Deliver { .. }));
        // The same (publisher A, seq 1) event replayed over a different
        // link (from peer 3) must not double-deliver.
        let replay = e.offer(PeerId(3), B, A, s1, &env(1), 0).unwrap();
        let (v, _) = e.on_object_r(B, PeerId(3), &replay);
        assert_eq!(v, Inbound::Suppressed);
        assert_eq!(e.stats().duplicates_suppressed, 1);
    }

    #[test]
    fn zero_credit_buffers_and_acks_replenish() {
        let mut e = engine(2);
        let seqs: Vec<u64> = (0..5).map(|_| e.next_event_seq(A)).collect();
        let mut sent = Vec::new();
        for &s in &seqs {
            if let Some(f) = e.offer(A, B, A, s, &env(s as u8), 0) {
                sent.push(f);
            }
        }
        assert_eq!(sent.len(), 2, "window of 2 admits 2");
        assert_eq!(e.stats().max_inflight, 2);
        assert_eq!(e.stats().max_pending, 3);
        // Receiver accepts both; its ACK refills the window.
        let mut last_ack = None;
        for f in &sent {
            let (_, ack) = e.on_object_r(B, A, f);
            last_ack = ack;
        }
        let refilled = e.on_ack(A, B, &last_ack.unwrap(), 10).unwrap();
        assert_eq!(refilled.len(), 2, "two more admitted, one still pending");
        assert!(e.has_unsettled());
        assert_eq!(e.stats().max_inflight, 2, "window never exceeded");
    }

    #[test]
    fn retries_exhaust_into_unreachable_and_link_is_shed() {
        let mut e = engine(4);
        let s = e.next_event_seq(A);
        e.offer(A, B, A, s, &env(1), 0).unwrap();
        // base 1000, retries allowed: 2. Fire at 1k (retry 1, backoff
        // 2k), 3k (retry 2, backoff 4k), 7k (budget exhausted).
        assert_eq!(e.poll(1_000).retransmits.len(), 1);
        assert_eq!(e.poll(3_000).retransmits.len(), 1);
        let out = e.poll(7_000);
        assert!(out.retransmits.is_empty());
        assert_eq!(out.unreachable, vec![(A, B)]);
        assert_eq!(e.stats().unreachable, 1);
        assert!(e.next_deadline_us().is_none(), "dead link unscheduled");
    }

    #[test]
    fn ack_resets_retry_budget() {
        let mut e = engine(4);
        let s1 = e.next_event_seq(A);
        let f1 = e.offer(A, B, A, s1, &env(1), 0).unwrap();
        assert_eq!(e.poll(1_000).retransmits.len(), 1);
        let (_, ack) = e.on_object_r(B, A, &f1);
        e.on_ack(A, B, &ack.unwrap(), 1_500).unwrap();
        assert!(e.next_deadline_us().is_none(), "all settled");
        // A fresh frame starts over with the base backoff.
        let s2 = e.next_event_seq(A);
        e.offer(A, B, A, s2, &env(2), 2_000).unwrap();
        assert_eq!(e.next_deadline_us(), Some(3_000));
    }

    #[test]
    fn retained_ring_caps_at_depth() {
        let mut e = engine(4); // replay_depth 4
        for i in 0..7u64 {
            e.retain("Person", A, i + 1, env(i as u8));
        }
        let snap = e.replay_snapshot();
        assert_eq!(snap.len(), 1);
        let (name, events) = &snap[0];
        assert_eq!(name, "Person");
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].event_seq, 4, "oldest retained is seq 4");
        assert_eq!(events[3].event_seq, 7);
    }

    #[test]
    fn replay_depth_zero_retains_nothing() {
        let mut e = DeliveryEngine::new(DeliveryConfig::default());
        e.retain("Person", A, 1, env(0));
        assert!(e.replay_snapshot().is_empty());
    }

    #[test]
    fn shed_peer_clears_links_and_watermarks() {
        let mut e = engine(4);
        let s = e.next_event_seq(A);
        let f = e.offer(A, B, A, s, &env(1), 0).unwrap();
        e.on_object_r(B, A, &f);
        e.shed_peer(B);
        assert!(!e.has_unsettled());
        assert!(e.next_deadline_us().is_none());
        // B rejoins with fresh state: the same event delivers again
        // (no stale watermark suppresses it).
        let f2 = e.offer(A, B, A, s, &env(1), 0).unwrap();
        let (v, _) = e.on_object_r(B, A, &f2);
        assert!(matches!(v, Inbound::Deliver { .. }));
    }

    #[test]
    fn malformed_frames_are_reported() {
        let mut e = engine(4);
        let (v, ack) = e.on_object_r(B, A, &Payload::from(vec![1, 2, 3]));
        assert_eq!(v, Inbound::Malformed);
        assert!(ack.is_none());
        assert!(e.on_ack(A, B, &Payload::from(vec![9]), 0).is_none());
    }
}
