//! The protocol engine driving Figure 1 of the paper over any transport
//! fabric — plus the *eager* baseline it is compared against (design
//! decision D4).
//!
//! Optimistic exchange of one object:
//!
//! 1. sender ships the hybrid envelope (type names + GUIDs + download
//!    paths + serialized payload) — message kind `object`;
//! 2. if the receiver does not know the type it requests the type
//!    *description* (kinds `desc-request` / `desc-response`);
//! 3. the receiver checks implicit structural conformance against its
//!    types of interest; on failure the exchange ends — **no code ever
//!    crosses the wire**;
//! 4. on success the receiver downloads the assemblies (kinds
//!    `asm-request` / `asm-response`), installs them, deserializes the
//!    object and wraps it in a dynamic proxy for the matched interest.
//!
//! The eager baseline ships descriptions + code with every object
//! (kind `eager-object`), which is what a subtype-propagating RMI-style
//! middleware does; the byte difference between the two protocols is
//! experiment F1.
//!
//! Every inbound envelope — `object`, `object-r` or `eager-object`, in
//! `PTIE` or XML — takes one path. XML is transcoded to `PTIE` at the
//! receiving edge, and from then on the envelope exists only as its
//! wire bytes, read through an [`EnvelopeView`]. A warm envelope (type
//! description and every listed assembly already present) is delivered
//! straight off those bytes; any other becomes a pending exchange that
//! keeps them and re-reads them at each stage above. An eager object
//! installs its inline code and descriptions first, so it arrives warm.
//!
//! The engine is generic over [`Transport`], so the *same* state machine
//! runs on the deterministic virtual-time [`SimNet`] (as [`SimSwarm`],
//! for reproducible experiments) and on the threaded
//! [`LiveBus`](pti_net::LiveBus) (as [`LiveSwarm`], one swarm per thread
//! over a shared fabric, for genuinely concurrent load).

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::time::{Duration, Instant};

use pti_conformance::ConformanceConfig;
use pti_metamodel::{Assembly, Guid, TypeDescription, TypeName, Value};
use pti_net::{
    BusMessage, FrameBatch, LiveBus, NetConfig, NetError, Payload, PeerId, ReactorNet, SimNet,
    Transport,
};
use pti_serialize::{
    description_from_xml, description_to_xml, EnvelopeView, EnvelopeWireFormat, ObjectEnvelope,
    PayloadFormat,
};
use pti_xml::Element;

use crate::code::CodeRegistry;
use crate::delivery::{DeliveryEngine, DeliveryStats, Inbound, QoS, RELIABLE_HEADER_LEN};
use crate::error::{Result, TransportError};
use crate::membership::{InterestAnnounce, MembershipView, ViewDelta};
use crate::peer::{Delivery, Peer, PendingObject};
use crate::routing::{RoutingTable, Signature};

/// Message kind tags on the wire.
pub mod kinds {
    /// Coalesced frame batch for one `(from, to)` link (fabric-level
    /// kind; the frames inside carry protocol kinds).
    pub use pti_net::kinds::BATCH;

    /// Optimistic object envelope.
    pub const OBJECT: &str = "object";
    /// Type-description fetch request.
    pub const DESC_REQUEST: &str = "desc-request";
    /// Type-description fetch response.
    pub const DESC_RESPONSE: &str = "desc-response";
    /// Assembly (code) fetch request.
    pub const ASM_REQUEST: &str = "asm-request";
    /// Assembly (code) fetch response.
    pub const ASM_RESPONSE: &str = "asm-response";
    /// Eager-baseline object message (envelope + descriptions + code).
    pub const EAGER_OBJECT: &str = "eager-object";
    /// Interest registration gossip (routing-table update).
    pub const SUBSCRIBE: &str = "subscribe";
    /// Interest retraction gossip (routing-table update).
    pub const UNSUBSCRIBE: &str = "unsubscribe";
    /// Membership: a swarm announces its peers (and their interests) and
    /// asks for the current view.
    pub const JOIN: &str = "join";
    /// Membership: a swarm announces its peers' departure.
    pub const LEAVE: &str = "leave";
    /// Membership: state transfer — live members, tombstones, and a
    /// re-announcement of every live interest in the sender's routing
    /// table.
    pub const VIEW: &str = "view";
    /// At-least-once object envelope: a 20-byte reliability header
    /// (link seq, publisher, event seq) followed by the ordinary
    /// envelope bytes. See `crate::delivery`.
    pub const OBJECT_R: &str = "object-r";
    /// Cumulative acknowledgement for one link's reliable frames.
    pub const ACK: &str = "ack";

    /// Every protocol kind that may travel *inside* a frame batch —
    /// the single source of truth [`intern`] and [`is_protocol`] share
    /// (nested batches are deliberately absent).
    const BATCHABLE: [&str; 13] = [
        OBJECT,
        DESC_REQUEST,
        DESC_RESPONSE,
        ASM_REQUEST,
        ASM_RESPONSE,
        EAGER_OBJECT,
        SUBSCRIBE,
        UNSUBSCRIBE,
        JOIN,
        LEAVE,
        VIEW,
        OBJECT_R,
        ACK,
    ];

    /// Whether a kind tag belongs to the core transport protocol (as
    /// opposed to an embedding layer like remoting).
    pub fn is_protocol(kind: &str) -> bool {
        kind == BATCH || intern(kind).is_some()
    }

    /// Maps a kind decoded from a frame batch back to its static tag.
    /// `None` for kinds that may not travel inside a batch (including
    /// nested batches).
    pub fn intern(kind: &str) -> Option<&'static str> {
        BATCHABLE.iter().find(|k| **k == kind).copied()
    }
}

/// A queued wire frame: the kind tag plus its (shared) payload.
type QueuedFrame = (&'static str, Payload);

/// Default per-link wire-batch cap: frames per batch message.
pub const DEFAULT_WIRE_MAX_FRAMES: usize = 32;
/// Default per-link wire-batch cap: payload bytes per batch message.
pub const DEFAULT_WIRE_MAX_BYTES: usize = 64 * 1024;

/// What a [`Swarm::flood_object`] broadcast accomplished.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FloodOutcome {
    /// Peers the object was delivered to.
    pub sent: usize,
    /// Peers found unreachable (retired from routing/contacts; owned
    /// protocol state preserved) — the caller prunes its membership.
    pub departed: Vec<PeerId>,
}

/// A set of peers wired to one transport fabric, with the out-of-band
/// code registry.
///
/// On a [`SimNet`] one swarm owns every peer and drives the whole
/// exchange deterministically. On a live fabric several swarms — one per
/// thread, each owning *its* peers — share the fabric handle's clones
/// and a [`CodeRegistry`], and the identical protocol code runs
/// concurrently.
pub struct Swarm<T: Transport = SimNet> {
    net: T,
    peers: BTreeMap<PeerId, Peer>,
    code: CodeRegistry,
    next_id: u32,
    budget: usize,
    /// Interest index: local subscriptions applied directly, remote ones
    /// learned from `subscribe`/`unsubscribe` gossip.
    routes: RoutingTable,
    /// Remote peers (owned by sibling swarms on a shared fabric) that
    /// receive interest gossip and flood sends. Wired automatically by
    /// the membership protocol ([`join`](Self::join)); the manual
    /// [`add_contact`](Self::add_contact) escape hatch remains for
    /// static topologies.
    contacts: BTreeSet<PeerId>,
    /// The membership view: remote peers under generation stamps, with
    /// tombstones for departures. Contacts wired via gossip live here;
    /// send-failure pruning retires view and routes together.
    membership: MembershipView,
    /// Generation counter for this swarm's own membership announcements.
    view_gen: u64,
    /// Frames queued per `(from, to)` link, shipped in bounded batches
    /// at the next [`flush_wire`](Self::flush_wire).
    wire: BTreeMap<(PeerId, PeerId), Vec<QueuedFrame>>,
    /// Wire-batch cap: at most this many frames per batch message.
    wire_max_frames: usize,
    /// Wire-batch cap: at most this many payload bytes per batch message
    /// (a single oversized frame still ships, alone).
    wire_max_bytes: usize,
    /// Which encoding object envelopes travel with (binary by default;
    /// XML stays available for cross-language wires — receivers sniff
    /// and accept either regardless of this setting).
    wire_format: EnvelopeWireFormat,
    /// The at-least-once machinery: link sequencing, ACK/retransmit
    /// state, credit windows, dedup watermarks, replay rings.
    delivery: DeliveryEngine,
    /// Per-message dispatch failures the pump loops isolated instead of
    /// aborting on — one malformed frame must not wedge a healthy
    /// swarm. Drained by [`take_dispatch_errors`](Self::take_dispatch_errors).
    dispatch_errors: Vec<(PeerId, TransportError)>,
    /// Set while [`pump`](Self::pump) runs: a pump ends with a flush, so
    /// frames it queues need no readiness signal of their own.
    pumping: bool,
}

/// The deterministic virtual-time swarm every experiment runs on.
pub type SimSwarm = Swarm<SimNet>;

/// A swarm over the threaded bus: genuinely concurrent peers, same
/// protocol.
pub type LiveSwarm = Swarm<LiveBus>;

/// The same swarm type as [`SimSwarm`], named for its use under a
/// [`ReactorHost`](crate::reactor_host::ReactorHost): thousands of these
/// share one thread on one fabric, same protocol.
pub type ReactorSwarm = Swarm<ReactorNet>;

impl<T: Transport> std::fmt::Debug for Swarm<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Swarm")
            .field("peers", &self.peers.len())
            .field("published_paths", &self.code.len())
            .field("routes", &self.routes.len())
            .field("contacts", &self.contacts.len())
            .field("view", &self.membership.len())
            .finish()
    }
}

impl Swarm<SimNet> {
    /// Creates a swarm over a fresh virtual-time fabric with the given
    /// link parameters (on its root session).
    pub fn new(config: NetConfig) -> SimSwarm {
        Swarm::over(SimNet::new(config))
    }
}

impl<T: Transport> Swarm<T> {
    /// Creates a swarm over an existing transport with its own (empty)
    /// code registry.
    pub fn over(transport: T) -> Swarm<T> {
        Swarm::with_code_registry(transport, CodeRegistry::new())
    }

    /// Creates a swarm over an existing transport sharing a code
    /// registry — the way concurrent swarms on one [`LiveBus`] resolve
    /// each other's published assemblies.
    pub fn with_code_registry(transport: T, code: CodeRegistry) -> Swarm<T> {
        Swarm {
            net: transport,
            peers: BTreeMap::new(),
            code,
            next_id: 1,
            budget: 1_000_000,
            routes: RoutingTable::new(),
            contacts: BTreeSet::new(),
            membership: MembershipView::new(),
            view_gen: 0,
            wire: BTreeMap::new(),
            wire_max_frames: DEFAULT_WIRE_MAX_FRAMES,
            wire_max_bytes: DEFAULT_WIRE_MAX_BYTES,
            wire_format: EnvelopeWireFormat::default(),
            delivery: DeliveryEngine::default(),
            dispatch_errors: Vec::new(),
            pumping: false,
        }
    }

    /// Adds a peer with the given conformance configuration, assigning
    /// the next free local id.
    pub fn add_peer(&mut self, config: ConformanceConfig) -> PeerId {
        let id = PeerId(self.next_id);
        self.next_id += 1;
        self.add_peer_as(id, config)
    }

    /// Adds a peer under an explicit id — required on a shared fabric
    /// where each swarm must pick ids that don't collide with its
    /// neighbours'. If the swarm already joined a group (it has
    /// contacts), the newcomer is announced with a VIEW so every remote
    /// engine's membership and flood targets include it.
    pub fn add_peer_as(&mut self, id: PeerId, config: ConformanceConfig) -> PeerId {
        self.net.register(id);
        self.next_id = self.next_id.max(id.0 + 1);
        // Owned peers and contacts stay disjoint: flood and gossip
        // would otherwise target the id twice — and an owned peer must
        // leave the remote view entirely (a leftover tombstone would be
        // gossiped as a departure of our own member).
        self.contacts.remove(&id);
        self.membership.purge(id);
        self.peers.insert(id, Peer::new(id, config));
        if !self.contacts.is_empty() {
            self.view_gen += 1;
            let delta = ViewDelta {
                live: vec![(id, self.view_gen)],
                departed: Vec::new(),
                interests: Vec::new(),
            };
            self.gossip(id, kinds::VIEW, delta.encode());
        }
        id
    }

    /// Whether this swarm owns a peer under the given id.
    pub fn has_peer(&self, id: PeerId) -> bool {
        self.peers.contains_key(&id)
    }

    /// Ids of the peers this swarm owns.
    pub fn peer_ids(&self) -> Vec<PeerId> {
        self.peers.keys().copied().collect()
    }

    /// Immutable access to a peer.
    pub fn peer(&self, id: PeerId) -> &Peer {
        &self.peers[&id]
    }

    /// Mutable access to a peer.
    pub fn peer_mut(&mut self, id: PeerId) -> &mut Peer {
        // pti-allow(panic-policy): documented `# Panics` contract — peer handles come from add_peer on this swarm
        self.peers.get_mut(&id).expect("unknown peer")
    }

    /// The underlying transport (metrics, clock on a [`SimNet`]).
    pub fn net(&self) -> &T {
        &self.net
    }

    /// Mutable access to the underlying transport.
    pub fn net_mut(&mut self) -> &mut T {
        &mut self.net
    }

    /// A snapshot of the fabric-wide traffic counters.
    pub fn metrics(&self) -> pti_net::NetMetrics {
        self.net.metrics()
    }

    /// Resets network traffic counters.
    pub fn reset_metrics(&mut self) {
        self.net.reset_metrics();
    }

    /// The shared code registry (clone it into sibling swarms).
    pub fn code_registry(&self) -> CodeRegistry {
        self.code.clone()
    }

    /// Publishes an assembly at a peer: local install + shared code
    /// registry entry so other peers can "download" it by path.
    ///
    /// # Errors
    /// Installation conflicts.
    pub fn publish(&mut self, peer: PeerId, assembly: Assembly) -> Result<()> {
        let p = self
            .peers
            .get_mut(&peer)
            .ok_or(TransportError::UnknownPeer(peer))?;
        let published = p.publish(assembly)?;
        self.code.insert(
            published.assembly_ref.assembly_path.clone(),
            published.assembly.clone(),
        );
        Ok(())
    }

    /// Sends an object with the optimistic protocol (Figure 1, message 1).
    ///
    /// # Errors
    /// Missing provenance, serialization failures, unknown peers.
    pub fn send_object(
        &mut self,
        from: PeerId,
        to: PeerId,
        root: &Value,
        format: PayloadFormat,
    ) -> Result<()> {
        let sender = self
            .peers
            .get(&from)
            .ok_or(TransportError::UnknownPeer(from))?;
        let envelope = sender.make_envelope(root, format)?;
        let payload = self.encode_envelope(&envelope);
        self.net.send(from, to, kinds::OBJECT, payload)?;
        Ok(())
    }

    /// Replaces the envelope wire encoding ([`EnvelopeWireFormat::Ptib`]
    /// by default). Receiving is format-agnostic either way — dispatch
    /// sniffs the binary magic and falls back to XML, so mixed-format
    /// groups interoperate.
    pub fn set_envelope_wire_format(&mut self, wire: EnvelopeWireFormat) {
        self.wire_format = wire;
    }

    /// The envelope encoding outbound objects travel with.
    pub fn envelope_wire_format(&self) -> EnvelopeWireFormat {
        self.wire_format
    }

    /// Selects the delivery guarantee for routed objects
    /// ([`QoS::FireAndForget`] by default — the pre-durability
    /// behavior). Under [`QoS::AtLeastOnce`],
    /// [`route_object`](Self::route_object) sequences, acknowledges,
    /// and retransmits until delivered or the retry budget surfaces
    /// [`TransportError::Unreachable`].
    pub fn set_qos(&mut self, qos: QoS) {
        self.delivery.config_mut().qos = qos;
    }

    /// The delivery guarantee routed objects currently travel with.
    pub fn qos(&self) -> QoS {
        self.delivery.config().qos
    }

    /// Replaces the per-link credit window: the number of
    /// unacknowledged reliable frames a sender keeps in flight before
    /// buffering (zero is treated as 1).
    pub fn set_credit_window(&mut self, window: usize) {
        self.delivery.config_mut().credit_window = window.max(1);
    }

    /// Replaces the per-topic replay-ring depth: how many routed events
    /// each topic retains for catch-up replay to late joiners (0 — the
    /// default — disables replay).
    pub fn set_replay_depth(&mut self, depth: usize) {
        self.delivery.config_mut().replay_depth = depth;
    }

    /// Replaces the retransmit schedule: the initial backoff in fabric
    /// microseconds (doubling each round) and how many rounds to try
    /// before declaring a link's peer unreachable.
    pub fn set_retransmit(&mut self, base_us: u64, max_retries: u32) {
        let cfg = self.delivery.config_mut();
        cfg.retransmit_base_us = base_us.max(1);
        cfg.max_retries = max_retries;
    }

    /// A snapshot of the at-least-once delivery counters.
    pub fn delivery_stats(&self) -> DeliveryStats {
        self.delivery.stats()
    }

    /// The earliest armed retransmit deadline (fabric microseconds), if
    /// any reliable link is waiting on an ACK — what a host schedules
    /// its timer heap by.
    pub fn next_delivery_deadline_us(&self) -> Option<u64> {
        self.delivery.next_deadline_us()
    }

    /// Whether any reliable link still has unacknowledged or
    /// credit-blocked traffic.
    pub fn delivery_unsettled(&self) -> bool {
        self.delivery.has_unsettled()
    }

    /// Drains the per-message dispatch failures the pump loops isolated
    /// (keyed by the owned peer whose inbox produced the message). A
    /// clean pump leaves this empty.
    pub fn take_dispatch_errors(&mut self) -> Vec<(PeerId, TransportError)> {
        std::mem::take(&mut self.dispatch_errors)
    }

    /// Encodes an envelope for the wire exactly once per publish (the
    /// fabric's [`NetMetrics::payload_encodes`](pti_net::NetMetrics)
    /// counter pins that), producing the shared buffer every destination
    /// link reuses.
    fn encode_envelope(&mut self, envelope: &ObjectEnvelope) -> Payload {
        self.net.record_payload_encode();
        Payload::from(envelope.encode_wire(self.wire_format))
    }

    /// Declares a remote contact: a peer owned by a sibling swarm on the
    /// shared fabric. Contacts receive interest gossip (so their swarm's
    /// routing table learns this swarm's subscriptions) and flood sends.
    pub fn add_contact(&mut self, peer: PeerId) {
        if !self.peers.contains_key(&peer) {
            self.contacts.insert(peer);
        }
    }

    /// The declared remote contacts.
    pub fn contacts(&self) -> Vec<PeerId> {
        self.contacts.iter().copied().collect()
    }

    /// The membership view: remote peers learned from JOIN/LEAVE/VIEW
    /// gossip, with their generation stamps and tombstones.
    pub fn membership(&self) -> &MembershipView {
        &self.membership
    }

    /// Joins the group reachable through `seed` (any peer of an
    /// established swarm on the shared fabric) — the replacement for
    /// manual `add_contact` chains.
    ///
    /// A `join` message announces this swarm's peers and their live
    /// interests; the established swarm replies with its full view *and
    /// a re-announcement of every live interest in its routing table*,
    /// and relays the announcement to the rest of the group. Once both
    /// sides pump ([`run`](Self::run)/[`run_for`](Self::run_for)), a
    /// late joiner resolves the same subscriber set as a founding swarm.
    ///
    /// # Errors
    /// No owned peer to speak with, joining through an owned peer, or an
    /// unreachable seed.
    pub fn join(&mut self, seed: PeerId) -> Result<()> {
        let speaker = *self
            .peers
            .keys()
            .next()
            .ok_or_else(|| TransportError::Protocol("join requires an owned peer".into()))?;
        if self.peers.contains_key(&seed) {
            return Err(TransportError::Protocol(format!(
                "cannot join through own peer {seed}"
            )));
        }
        self.view_gen += 1;
        let gen = self.view_gen;
        let announce = ViewDelta {
            live: self.peers.keys().map(|&p| (p, gen)).collect(),
            departed: Vec::new(),
            // Interests subscribed before joining ride along, so the
            // group learns them without a re-subscribe.
            interests: self.interest_announcements(true),
        };
        // State changes only after the handshake is actually in flight —
        // a failed join must not leave a phantom contact behind.
        self.net
            .send(speaker, seed, kinds::JOIN, announce.encode().into())?;
        // The seed's generation is unknown until its VIEW arrives; stamp
        // it at zero so any real announcement refreshes it.
        self.contacts.insert(seed);
        self.membership.add(seed, 0);
        Ok(())
    }

    /// Leaves the group: announces every owned peer's departure to all
    /// contacts, then drops everything learned from the group (contacts,
    /// membership view, remote routing entries). Owned peers and their
    /// local state survive — the swarm can [`join`](Self::join) again.
    pub fn leave(&mut self) {
        if let Some(&speaker) = self.peers.keys().next() {
            if !self.contacts.is_empty() {
                self.view_gen += 1;
                let gen = self.view_gen;
                let delta = ViewDelta {
                    live: Vec::new(),
                    departed: self.peers.keys().map(|&p| (p, gen)).collect(),
                    interests: Vec::new(),
                };
                self.gossip(speaker, kinds::LEAVE, delta.encode());
            }
        }
        let remote: Vec<PeerId> = self.contacts.iter().copied().collect();
        for peer in remote {
            self.routes.remove_peer(peer);
            self.delivery.shed_peer(peer);
        }
        self.contacts.clear();
        self.membership = MembershipView::new();
    }

    /// Announces one owned peer's departure to the group and removes it
    /// — what a shard does when a member migrates elsewhere. Receivers
    /// retire the peer from their view *and* routing table together, so
    /// no further traffic targets it; the member re-announces its
    /// interests from its new home. Returns the removed peer's protocol
    /// state, or `None` if the peer was not owned.
    pub fn depart_peer(&mut self, peer: PeerId) -> Option<Peer> {
        if !self.peers.contains_key(&peer) {
            return None;
        }
        if !self.contacts.is_empty() {
            self.view_gen += 1;
            let delta = ViewDelta {
                live: Vec::new(),
                departed: vec![(peer, self.view_gen)],
                interests: Vec::new(),
            };
            self.gossip(peer, kinds::LEAVE, delta.encode());
        }
        self.remove_peer(peer)
    }

    /// Routing entries as announce triples — all of them for a VIEW
    /// state transfer, only the *owned* peers' for a JOIN (so pre-join
    /// subscriptions reach the group).
    fn interest_announcements(&self, own_only: bool) -> Vec<InterestAnnounce> {
        self.routes
            .entries()
            .filter(|(p, _, _)| !own_only || self.peers.contains_key(p))
            .map(|(p, g, s)| InterestAnnounce {
                subscriber: p,
                interest: g,
                signature: s.clone(),
            })
            .collect()
    }

    /// The full state a VIEW transfer carries: every live member (own
    /// peers freshly stamped, remote ones under their recorded
    /// generations), every tombstone, and every live interest in the
    /// routing table.
    fn full_view_delta(&mut self) -> ViewDelta {
        self.view_gen += 1;
        let gen = self.view_gen;
        let mut live: Vec<(PeerId, u64)> = self.peers.keys().map(|&p| (p, gen)).collect();
        live.extend(self.membership.members());
        ViewDelta {
            live,
            departed: self.membership.tombstones().collect(),
            interests: self.interest_announcements(false),
        }
    }

    /// Merges a membership delta: newly live peers become contacts,
    /// fresh departures retire contact + routes together, and interest
    /// re-announcements feed the routing table (idempotently — gossip is
    /// at-least-once). Entries about *owned* peers are skipped: this
    /// swarm is the authority on its own members.
    ///
    /// Every *newly met* contact then receives a hello VIEW announcing
    /// this swarm's members and their interests. This closes the
    /// join-window hole: gossip emitted while the contact list was still
    /// just the seed (a subscribe right after `join`, a peer added
    /// before convergence) reached nobody else — introducing ourselves
    /// to each peer we learn about repairs that without any re-relay
    /// (an already-known member refreshes idempotently, so hellos
    /// cannot echo back and forth).
    fn apply_view_delta(&mut self, delta: &ViewDelta) {
        let mut met: Vec<PeerId> = Vec::new();
        for &(peer, gen) in &delta.live {
            if self.peers.contains_key(&peer) {
                continue;
            }
            if self.membership.add(peer, gen) {
                self.contacts.insert(peer);
                met.push(peer);
            } else if self.membership.is_live(peer) {
                self.contacts.insert(peer);
            }
        }
        for &(peer, gen) in &delta.departed {
            if self.peers.contains_key(&peer) {
                continue;
            }
            let retired = self.membership.retire(peer, gen);
            // A manually wired contact (`add_contact`) never entered the
            // view, so `retire` reports nothing — the departure must
            // still take it (and its routes) out. Only a *stale* LEAVE
            // (the view knows a newer join) keeps the peer.
            if retired || !self.membership.is_live(peer) {
                self.contacts.remove(&peer);
                self.routes.remove_peer(peer);
            }
        }
        for a in &delta.interests {
            if self.peers.contains_key(&a.subscriber) {
                continue;
            }
            // Only live peers route; a tombstoned subscriber's interests
            // arriving late must not resurrect its routes.
            if !self.membership.is_live(a.subscriber) && !self.contacts.contains(&a.subscriber) {
                continue;
            }
            // Same guard as `on_subscribe`: an unroutable empty
            // signature is ignored rather than indexed.
            if a.signature.is_catch_all() || !a.signature.tokens().is_empty() {
                self.routes
                    .insert(a.subscriber, a.interest, a.signature.clone());
            }
        }
        if met.is_empty() {
            return;
        }
        let Some(&speaker) = self.peers.keys().next() else {
            return;
        };
        self.view_gen += 1;
        let gen = self.view_gen;
        let hello: Payload = ViewDelta {
            live: self.peers.keys().map(|&p| (p, gen)).collect(),
            departed: Vec::new(),
            interests: self.interest_announcements(true),
        }
        .encode()
        .into();
        for &to in &met {
            self.queue_frame(speaker, to, kinds::VIEW, hello.clone());
        }
        self.replay_retained_to(&met);
    }

    /// Catch-up replay: offers every retained event whose topic matches
    /// a newly met peer's interests, as reliable frames from the
    /// original publisher with the original event sequence — the
    /// (publisher, event_seq) watermark on the receiving side keeps a
    /// rejoining subscriber that already saw part of the ring from
    /// seeing it twice.
    fn replay_retained_to(&mut self, met: &[PeerId]) {
        if met.is_empty() || self.delivery.config().replay_depth == 0 {
            return;
        }
        let now = self.net.now_us();
        for (topic, events) in self.delivery.replay_snapshot() {
            let resolved = self.routes.resolve_name(&topic);
            let targets: Vec<PeerId> = resolved
                .iter()
                .copied()
                .filter(|p| met.contains(p))
                .collect();
            for to in targets {
                for ev in &events {
                    // Rings only ever hold locally published events, but
                    // the publisher may have been removed since.
                    if !self.peers.contains_key(&ev.publisher) {
                        continue;
                    }
                    self.delivery.stats_mut().replayed += 1;
                    if let Some(frame) = self.delivery.offer(
                        ev.publisher,
                        to,
                        ev.publisher,
                        ev.event_seq,
                        &ev.bytes,
                        now,
                    ) {
                        self.queue_frame(ev.publisher, to, kinds::OBJECT_R, frame);
                    }
                }
            }
        }
    }

    /// Handles a JOIN: merge the joiner's announcement, reply with the
    /// full view (membership *and* every live interest — the late-join
    /// re-announcement), and relay the announcement to the rest of the
    /// group so established swarms learn the newcomer without their own
    /// handshake. Replies and relays ride the wire queue, so a burst of
    /// joins batches per link.
    fn on_join(&mut self, at: PeerId, msg: BusMessage) -> Result<()> {
        let delta = ViewDelta::decode(&msg.payload)?;
        self.apply_view_delta(&delta);
        let reply = self.full_view_delta();
        self.queue_frame(at, msg.from, kinds::VIEW, reply.encode());
        let newcomers: BTreeSet<PeerId> = delta.live.iter().map(|&(p, _)| p).collect();
        let relay: Payload = delta.encode().into();
        let targets: Vec<PeerId> = self
            .contacts
            .iter()
            .copied()
            .filter(|c| *c != msg.from && !newcomers.contains(c))
            .collect();
        for to in targets {
            self.queue_frame(at, to, kinds::VIEW, relay.clone());
        }
        Ok(())
    }

    /// Handles a VIEW (state transfer or relay) or a LEAVE (departure
    /// announcement): merge, no reply — neither kind propagates further,
    /// so gossip storms cannot echo.
    fn on_view_update(&mut self, _at: PeerId, msg: BusMessage) -> Result<()> {
        let delta = ViewDelta::decode(&msg.payload)?;
        self.apply_view_delta(&delta);
        Ok(())
    }

    /// The interest index this swarm routes by.
    pub fn routes(&self) -> &RoutingTable {
        &self.routes
    }

    /// Registers a type of interest at a peer *and* indexes it for
    /// routing: the local table is updated directly and a `subscribe`
    /// gossip message goes to every remote contact. Unreachable contacts
    /// are pruned rather than failing the subscription.
    ///
    /// The routing signature respects the peer's *type-name* matcher:
    /// profiles the token prefilter can model exactly or conservatively
    /// (exact, token-subsequence) get a token signature; anything looser
    /// (Levenshtein, wildcards, synonyms) gets the catch-all signature,
    /// so the subscriber keeps flood semantics and filters locally
    /// instead of being silently starved.
    ///
    /// # Panics
    /// If `peer` is not owned by this swarm.
    pub fn subscribe(&mut self, peer: PeerId, interest: TypeDescription) {
        use pti_conformance::NameMatcher;
        let matcher = &self.peer(peer).checker.config().type_names;
        let signature = match matcher {
            NameMatcher::Exact | NameMatcher::Levenshtein(0) | NameMatcher::TokenSubsequence => {
                Signature::of_description(&interest)
            }
            _ => Signature::catch_all(),
        };
        let guid = interest.guid;
        self.peer_mut(peer).subscribe(interest);
        // A name with no identifier tokens cannot be routed by signature
        // (it could never match an event name); the interest still works
        // locally for flood-delivered objects, but it neither enters the
        // index nor crosses the wire.
        if !signature.is_catch_all() && signature.tokens().is_empty() {
            return;
        }
        self.routes.insert(peer, guid, signature.clone());
        let payload = format!("{guid}\n{}", signature.encode()).into_bytes();
        self.gossip(peer, kinds::SUBSCRIBE, payload);
    }

    /// Retracts an interest by identity: the peer stops matching it, the
    /// routing table drops it, and an `unsubscribe` gossip message goes
    /// to every remote contact. Returns whether the interest was still
    /// registered at the peer.
    ///
    /// # Panics
    /// If `peer` is not owned by this swarm.
    pub fn unsubscribe(&mut self, peer: PeerId, interest: Guid) -> bool {
        let removed = self.peer_mut(peer).unsubscribe(interest);
        self.routes.remove(peer, interest);
        if removed {
            let payload = interest.to_string().into_bytes();
            self.gossip(peer, kinds::UNSUBSCRIBE, payload);
        }
        removed
    }

    /// Sends a control message from `peer` to every remote contact,
    /// pruning contacts that are no longer reachable. The payload is
    /// shared across the fan-out, not copied per contact.
    fn gossip(&mut self, peer: PeerId, kind: &'static str, payload: impl Into<Payload>) {
        let payload = payload.into();
        let contacts: Vec<PeerId> = self.contacts.iter().copied().collect();
        for to in contacts {
            if let Err(NetError::UnknownPeer(p)) = self.net.send(peer, to, kind, payload.clone()) {
                self.forget_peer(p);
            }
        }
    }

    /// Retires a departed peer from the routing table and contact list:
    /// future routed and flood sends stop targeting it. The protocol
    /// state of an *owned* peer is preserved (handles stay valid, its
    /// collected deliveries stay drainable) — use
    /// [`remove_peer`](Self::remove_peer) to drop that too.
    pub fn forget_peer(&mut self, peer: PeerId) {
        self.contacts.remove(&peer);
        self.routes.remove_peer(peer);
        // Tombstone at the last announced generation so a stale gossip
        // echo cannot resurrect the departed peer; a genuine re-join
        // (fresh generation) still can.
        self.membership.forget(peer);
        // Sequencing, watermark, and retransmit state for the departed
        // peer is shed with it — a rejoin starts clean links.
        self.delivery.shed_peer(peer);
    }

    /// Removes an *owned* peer entirely: its protocol state is dropped
    /// and its interests leave the routing table — what a layer above
    /// does when it learns the peer's fabric registration vanished.
    /// Returns the removed peer, if it was owned.
    pub fn remove_peer(&mut self, peer: PeerId) -> Option<Peer> {
        let removed = self.peers.remove(&peer);
        self.contacts.remove(&peer);
        self.routes.remove_peer(peer);
        self.membership.forget(peer);
        self.delivery.shed_peer(peer);
        removed
    }

    /// Routes an object to every subscriber whose interest signature
    /// matches the object's type — the interest-indexed replacement for
    /// publisher-side broadcast. Frames are queued per `(from, to)` link
    /// and coalesced into one wire message each at the next pump
    /// ([`run`](Self::run)/[`run_for`](Self::run_for) flush implicitly,
    /// or call [`flush_wire`](Self::flush_wire)). Returns how many
    /// subscribers the object was routed to (the sender itself is never
    /// one).
    ///
    /// # Errors
    /// Missing provenance or serialization failures.
    pub fn route_object(
        &mut self,
        from: PeerId,
        root: &Value,
        format: PayloadFormat,
    ) -> Result<usize> {
        let sender = self
            .peers
            .get(&from)
            .ok_or(TransportError::UnknownPeer(from))?;
        // The envelope is built unconditionally so provenance and
        // serialization errors surface even when nobody subscribes yet
        // (a publish to nobody must not hide a developer error until
        // the first subscriber arrives).
        let envelope = sender.make_envelope(root, format)?;
        // Memoized resolution: steady-state publishing of a known event
        // type is one name lookup, no token splitting or matching.
        let resolved = self.routes.resolve_name(envelope.type_name.simple());
        let targets = || resolved.iter().copied().filter(|&p| p != from);
        let sent = targets().count();
        if sent == 0 {
            return Ok(0);
        }
        // One encode per publish; each destination link shares the same
        // buffer (a Payload clone is a refcount bump, not a byte copy).
        let payload = self.encode_envelope(&envelope);
        if self.delivery.config().qos == QoS::AtLeastOnce {
            let topic = envelope.type_name.simple().to_string();
            let event_seq = self.delivery.next_event_seq(from);
            self.delivery
                .retain(&topic, from, event_seq, payload.clone());
            let now = self.net.now_us();
            for to in targets() {
                // Credit-gated: a zero-credit link buffers inside the
                // engine and the refill rides the next ACK.
                if let Some(frame) = self
                    .delivery
                    .offer(from, to, from, event_seq, &payload, now)
                {
                    self.queue_frame(from, to, kinds::OBJECT_R, frame);
                }
            }
        } else {
            for to in targets() {
                self.queue_frame(from, to, kinds::OBJECT, payload.clone());
            }
        }
        Ok(sent)
    }

    /// Sends an object to *every* peer on the fabric this swarm can name
    /// (owned peers and contacts) regardless of interest — the broadcast
    /// escape hatch routed delivery replaces, kept as the baseline the
    /// routing experiment measures against. Unreachable peers are
    /// retired from the routing table and contact list (an owned peer's
    /// protocol state is preserved) and reported in the outcome so the
    /// caller can prune its own membership.
    ///
    /// # Errors
    /// Missing provenance or serialization failures.
    pub fn flood_object(
        &mut self,
        from: PeerId,
        root: &Value,
        format: PayloadFormat,
    ) -> Result<FloodOutcome> {
        let sender = self
            .peers
            .get(&from)
            .ok_or(TransportError::UnknownPeer(from))?;
        let envelope = sender.make_envelope(root, format)?;
        let payload = self.encode_envelope(&envelope);
        let targets: Vec<PeerId> = self
            .peers
            .keys()
            .copied()
            .chain(self.contacts.iter().copied())
            .filter(|p| *p != from)
            .collect();
        let mut outcome = FloodOutcome::default();
        for to in targets {
            match self.net.send(from, to, kinds::OBJECT, payload.clone()) {
                Ok(()) => outcome.sent += 1,
                Err(NetError::UnknownPeer(p)) => {
                    self.forget_peer(p);
                    outcome.departed.push(p);
                }
            }
        }
        Ok(outcome)
    }

    /// Queues a frame on the `(from, to)` link; the next
    /// [`flush_wire`](Self::flush_wire) ships each link's queue as one
    /// wire message (the frame itself if alone, a
    /// [`kinds::BATCH`] otherwise).
    ///
    /// The first frame queued outside a [`pump`](Self::pump) tells the
    /// fabric ([`Transport::note_outbound`]): on a reactor that makes
    /// this swarm's session ready, so its host pumps it and the frames
    /// ship.
    pub fn queue_frame(
        &mut self,
        from: PeerId,
        to: PeerId,
        kind: &'static str,
        payload: impl Into<Payload>,
    ) {
        let first = self.wire.is_empty();
        // pti-allow(unbounded-queue): the wire queue drains fully at
        // every flush; sustained growth is bounded by the credit window
        // on reliable links and by the caller's publish rate otherwise.
        self.wire
            .entry((from, to))
            .or_default()
            .push((kind, payload.into()));
        if first && !self.pumping {
            self.net.note_outbound();
        }
    }

    /// Number of frames currently queued for the wire.
    pub fn queued_frames(&self) -> usize {
        self.wire.values().map(Vec::len).sum()
    }

    /// Replaces the per-link wire-batch cap (defaults
    /// [`DEFAULT_WIRE_MAX_FRAMES`]/[`DEFAULT_WIRE_MAX_BYTES`]): a flush
    /// ships at most `max_frames` frames and `max_bytes` payload bytes
    /// per batch message, splitting a larger burst into several bounded
    /// batches. Zero values are treated as 1 — a batch always carries at
    /// least one frame, and a single oversized frame still ships alone.
    pub fn set_wire_cap(&mut self, max_frames: usize, max_bytes: usize) {
        self.wire_max_frames = max_frames.max(1);
        self.wire_max_bytes = max_bytes.max(1);
    }

    /// Flushes the wire queue. Each `(from, to)` link's frames ship in
    /// queue order as the fewest messages the cap allows: a lone frame
    /// as itself, up to `max_frames`/`max_bytes` per coalesced
    /// [`kinds::BATCH`], a burst beyond the cap as several bounded
    /// batches. Links to departed peers are pruned (their frames
    /// dropped) instead of failing the flush.
    pub fn flush_wire(&mut self) {
        self.service_delivery();
        for ((from, to), frames) in std::mem::take(&mut self.wire) {
            if let Err(NetError::UnknownPeer(p)) = self.ship_link(from, to, frames) {
                self.forget_peer(p);
            }
        }
    }

    /// Ships one link's queue: a lone queued frame is handed to the
    /// fabric as it is; a longer queue ships in runs. A run closes when
    /// one more frame would exceed either cap (but always holds at least
    /// one frame) and ships as it closes — a lone frame as itself,
    /// several as one batch that the fabric counts and attributes. The
    /// first failed send ends the link.
    fn ship_link(
        &mut self,
        from: PeerId,
        to: PeerId,
        frames: Vec<QueuedFrame>,
    ) -> std::result::Result<(), NetError> {
        let frames = match <[QueuedFrame; 1]>::try_from(frames) {
            Ok([(kind, payload)]) => return self.net.send(from, to, kind, payload),
            Err(frames) => frames,
        };
        let mut ship = |run: &[QueuedFrame]| match run {
            [(kind, payload)] => self.net.send(from, to, kind, payload.clone()),
            _ => {
                let batch = FrameBatch::encode_frames(run.iter().map(|(k, p)| (*k, p.as_slice())));
                self.net.send(from, to, kinds::BATCH, batch.into())
            }
        };
        let (mut start, mut bytes) = (0, 0);
        for (i, (_, payload)) in frames.iter().enumerate() {
            let over =
                i - start >= self.wire_max_frames || bytes + payload.len() > self.wire_max_bytes;
            if i > start && over {
                ship(&frames[start..i])?;
                (start, bytes) = (i, 0);
            }
            bytes += payload.len();
        }
        ship(&frames[start..])
    }

    /// Fires every due retransmit timer against the fabric clock:
    /// overdue reliable links re-queue their in-flight window
    /// (Go-Back-N), and links past the retry budget surface
    /// [`TransportError::Unreachable`] through
    /// [`take_dispatch_errors`](Self::take_dispatch_errors) instead of
    /// hanging, with the dead peer retired from routing.
    fn service_delivery(&mut self) {
        if !self.delivery.has_unsettled() {
            return;
        }
        let out = self.delivery.poll(self.net.now_us());
        for (from, to, frame) in out.retransmits {
            self.queue_frame(from, to, kinds::OBJECT_R, frame);
        }
        for (from, to) in out.unreachable {
            // pti-allow(unbounded-queue): drained by take_dispatch_errors; at most one entry per shed link
            self.dispatch_errors
                .push((from, TransportError::Unreachable(to)));
            if !self.peers.contains_key(&to) {
                self.forget_peer(to);
            }
        }
    }

    /// Sends an object with the eager baseline: descriptions + code of
    /// every involved assembly travel inline with the object.
    ///
    /// # Errors
    /// Same conditions as [`send_object`](Self::send_object).
    pub fn send_object_eager(
        &mut self,
        from: PeerId,
        to: PeerId,
        root: &Value,
        format: PayloadFormat,
    ) -> Result<()> {
        let sender = self
            .peers
            .get(&from)
            .ok_or(TransportError::UnknownPeer(from))?;
        let envelope = sender.make_envelope(root, format)?;
        // Inline weight: every description document + every assembly.
        let mut extra = 0usize;
        for aref in &envelope.assemblies {
            let published = sender
                .published_by_asm_path(&aref.assembly_path)
                .ok_or_else(|| TransportError::UnknownPath(aref.assembly_path.clone()))?;
            extra +=
                descriptions_document(&published.descriptions, &aref.description_path).wire_size();
            extra += published.assembly.byte_size();
        }
        // Length-prefixed framing: the envelope may be binary (any byte
        // value), so a sentinel separator cannot delimit it. An eager
        // envelope is a payload encode like any other (the counter means
        // "one per published envelope", whichever protocol ships it).
        self.net.record_payload_encode();
        let env_bytes = envelope.encode_wire(self.wire_format);
        let mut payload = Vec::with_capacity(4 + env_bytes.len() + extra);
        payload.extend_from_slice(&(env_bytes.len() as u32).to_le_bytes());
        payload.extend_from_slice(&env_bytes);
        payload.extend(std::iter::repeat_n(0u8, extra));
        self.net
            .send(from, to, kinds::EAGER_OBJECT, payload.into())?;
        Ok(())
    }

    /// Runs the protocol until the fabric has nothing queued for this
    /// swarm's peers: delivers every message, advancing pending exchanges
    /// through their description / conformance / code stages.
    ///
    /// On a live fabric "nothing queued" is a transient condition — use
    /// [`run_for`](Self::run_for) there to keep serving until an idle
    /// period passes.
    ///
    /// Per-message failures — malformed frames, unknown kinds, runtime
    /// errors inside one exchange — are *isolated*: the offending
    /// message is recorded in
    /// [`take_dispatch_errors`](Self::take_dispatch_errors) and the
    /// pump keeps serving, so one hostile frame cannot wedge a healthy
    /// swarm. Only engine-level failures (budget exhaustion) abort.
    ///
    /// # Errors
    /// Budget exhaustion — the hard bound converting livelock bugs into
    /// errors.
    pub fn run(&mut self) -> Result<()> {
        self.pump_messages(usize::MAX).map(drop)
    }

    /// Runs the protocol to quiescence *and through every pending
    /// retransmit*: when [`run`](Self::run) drains the fabric but
    /// reliable links still await ACKs, the virtual clock is advanced to
    /// the next retransmit deadline and the pump resumes — the way a
    /// lossy [`SimNet`](pti_net::SimNet) workload reaches 100% delivery
    /// without wall-clock sleeps. Returns once every link is settled or
    /// shed (unreachable peers surface through
    /// [`take_dispatch_errors`](Self::take_dispatch_errors)); on a
    /// wall-clock fabric (which cannot jump time) it behaves like
    /// [`run`](Self::run).
    ///
    /// # Errors
    /// Budget exhaustion.
    pub fn run_durable(&mut self) -> Result<()> {
        loop {
            self.run()?;
            let Some(deadline) = self.delivery.next_deadline_us() else {
                return Ok(());
            };
            if !self.net.advance_virtual_time(deadline) {
                return Ok(());
            }
        }
    }

    /// Runs the protocol until no message has arrived for `idle` — the
    /// live-fabric counterpart of [`run`](Self::run), where concurrent
    /// senders may take real time to produce the next message.
    ///
    /// # Errors
    /// Same conditions as [`run`](Self::run) — per-message failures are
    /// isolated into [`take_dispatch_errors`](Self::take_dispatch_errors).
    pub fn run_for(&mut self, idle: Duration) -> Result<()> {
        loop {
            self.flush_wire();
            let Some((at, msg)) = self.poll_deadline(Instant::now() + idle)? else {
                return Ok(());
            };
            if let Err(e) = self.dispatch_required(at, msg) {
                // pti-allow(unbounded-queue): drained by take_dispatch_errors; growth is bounded by messages handled this pump
                self.dispatch_errors.push((at, e));
            }
        }
    }

    /// Pumps at most `max` pending messages through the protocol, then
    /// returns how many were handled — the cooperative-scheduling
    /// primitive: a [`ReactorHost`](crate::reactor_host::ReactorHost)
    /// calls this with its fairness budget so no busy swarm can starve
    /// its neighbours, where [`run`](Self::run) would drain to
    /// quiescence in one go. Queued wire frames are flushed first so
    /// responses produced by a previous pump reach the fabric.
    ///
    /// # Errors
    /// Same conditions as [`run`](Self::run) — per-message failures are
    /// isolated into [`take_dispatch_errors`](Self::take_dispatch_errors).
    pub fn pump(&mut self, max: usize) -> Result<usize> {
        self.pumping = true;
        let handled = self.pump_messages(max);
        self.pumping = false;
        handled
    }

    fn pump_messages(&mut self, max: usize) -> Result<usize> {
        let mut handled = 0;
        while handled < max {
            self.flush_wire();
            let Some((at, msg)) = self.poll_message()? else {
                break;
            };
            if let Err(e) = self.dispatch_required(at, msg) {
                // pti-allow(unbounded-queue): drained by take_dispatch_errors; growth is bounded by messages handled this pump
                self.dispatch_errors.push((at, e));
            }
            handled += 1;
        }
        self.flush_wire();
        Ok(handled)
    }

    fn dispatch_required(&mut self, at: PeerId, msg: BusMessage) -> Result<()> {
        if !kinds::is_protocol(msg.kind) {
            return Err(TransportError::Protocol(format!(
                "unknown message kind `{}`",
                msg.kind
            )));
        }
        self.dispatch(at, msg)?;
        Ok(())
    }

    /// Pops the next deliverable message from any owned peer's inbox
    /// (advancing the virtual clock on a [`SimNet`]). `None` when nothing
    /// is queued right now.
    ///
    /// # Errors
    /// Budget exhaustion — a hard bound converting livelock bugs into
    /// errors.
    pub fn poll_message(&mut self) -> Result<Option<(PeerId, BusMessage)>> {
        self.check_budget()?;
        for &id in self.peers.keys() {
            if let Some(msg) = self.net.try_recv(id) {
                self.budget -= 1;
                return Ok(Some((id, msg)));
            }
        }
        Ok(None)
    }

    /// Like [`poll_message`](Self::poll_message), but waits until
    /// `deadline` for a message to arrive — the polling primitive for
    /// concurrent fabrics.
    ///
    /// # Errors
    /// Budget exhaustion.
    pub fn poll_deadline(&mut self, deadline: Instant) -> Result<Option<(PeerId, BusMessage)>> {
        self.check_budget()?;
        let ids: Vec<PeerId> = self.peers.keys().copied().collect();
        match self.net.recv_deadline(&ids, deadline) {
            Some(m) => {
                self.budget -= 1;
                Ok(Some((m.to, m)))
            }
            None => Ok(None),
        }
    }

    /// Replaces the message budget — the hard bound that converts
    /// livelock bugs into errors. The default (1,000,000 messages) suits
    /// finite experiments; long-lived serving loops should raise or
    /// periodically reset it.
    pub fn set_message_budget(&mut self, budget: usize) {
        self.budget = budget;
    }

    /// Budget charged only for *delivered* messages (idle polls are
    /// free), checked *before* popping so a budget of N delivers exactly
    /// N messages and the N+1th is left on the transport.
    fn check_budget(&self) -> Result<()> {
        if self.budget == 0 {
            return Err(TransportError::Protocol(
                "message budget exhausted (livelock?)".into(),
            ));
        }
        Ok(())
    }

    /// Sends a raw message on behalf of a peer — the hook higher-level
    /// protocols (remoting) use to add their own message kinds.
    ///
    /// # Errors
    /// Unknown destination.
    pub fn send_raw(
        &mut self,
        from: PeerId,
        to: PeerId,
        kind: &'static str,
        payload: impl Into<Payload>,
    ) -> Result<()> {
        self.net.send(from, to, kind, payload.into())?;
        Ok(())
    }

    /// Handles one message of the *transport* protocol. Returns `false`
    /// (without consuming side effects) for unknown kinds so embedding
    /// protocols can claim them.
    ///
    /// Any frames the message provoked — desc/asm responses, membership
    /// view transfers — are queued per link and flushed before this
    /// returns, so a batch of requests answers as a batch of responses
    /// and manual drivers (`poll_message` + `dispatch` loops) never
    /// strand replies in the queue.
    ///
    /// # Errors
    /// Protocol violations or runtime failures.
    pub fn dispatch(&mut self, at: PeerId, msg: BusMessage) -> Result<bool> {
        let handled = self.dispatch_inner(at, msg)?;
        self.flush_wire();
        Ok(handled)
    }

    /// [`dispatch`](Self::dispatch) minus the trailing flush — what
    /// batch unpacking recurses through, so every frame of an inbound
    /// batch contributes to one coalesced response flush.
    fn dispatch_inner(&mut self, at: PeerId, msg: BusMessage) -> Result<bool> {
        match msg.kind {
            kinds::OBJECT => self.on_object(at, msg)?,
            kinds::DESC_REQUEST => self.on_desc_request(at, msg)?,
            kinds::DESC_RESPONSE => self.on_desc_response(at, msg)?,
            kinds::ASM_REQUEST => self.on_asm_request(at, msg)?,
            kinds::ASM_RESPONSE => self.on_asm_response(at, msg)?,
            kinds::EAGER_OBJECT => self.on_eager_object(at, msg)?,
            kinds::SUBSCRIBE => self.on_subscribe(at, msg)?,
            kinds::UNSUBSCRIBE => self.on_unsubscribe(at, msg)?,
            kinds::JOIN => self.on_join(at, msg)?,
            kinds::LEAVE | kinds::VIEW => self.on_view_update(at, msg)?,
            kinds::OBJECT_R => self.on_object_r(at, msg)?,
            kinds::ACK => self.on_ack_frame(at, msg)?,
            kinds::BATCH => self.on_batch(at, msg)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Splits a coalesced wire batch back into its frames and dispatches
    /// each in queue order.
    fn on_batch(&mut self, at: PeerId, msg: BusMessage) -> Result<()> {
        // Interned decode: every kind tag comes back as the receiver's
        // `&'static str` constant — no per-frame String allocation —
        // and an unknown kind fails the batch like it always did.
        let batch = FrameBatch::decode_interned(&msg.payload, kinds::intern)
            .map_err(|e| TransportError::Protocol(e.to_string()))?;
        for frame in batch.frames {
            // decode_interned yields borrowed protocol constants; the
            // defensive arm keeps a future divergence a protocol error,
            // not a panic, without rescanning the kind table.
            let std::borrow::Cow::Borrowed(kind) = frame.kind else {
                return Err(TransportError::Protocol(
                    "batch decode yielded an uninterned kind".into(),
                ));
            };
            self.dispatch_inner(
                at,
                BusMessage {
                    from: msg.from,
                    to: at,
                    kind,
                    payload: frame.payload,
                },
            )?;
        }
        Ok(())
    }

    /// Learns a remote subscription: `msg.from` declared an interest. An
    /// empty signature is ignored rather than rejected — one peer's
    /// unroutable type name must not poison the receiving swarm's pump.
    fn on_subscribe(&mut self, _at: PeerId, msg: BusMessage) -> Result<()> {
        let (guid, signature) = parse_interest_gossip(&msg.payload)?;
        if let Some(signature) = signature {
            self.routes.insert(msg.from, guid, signature);
        }
        Ok(())
    }

    /// Learns a remote retraction: `msg.from` withdrew an interest.
    fn on_unsubscribe(&mut self, _at: PeerId, msg: BusMessage) -> Result<()> {
        let (guid, _) = parse_interest_gossip(&msg.payload)?;
        self.routes.remove(msg.from, guid);
        Ok(())
    }

    fn on_object(&mut self, at: PeerId, msg: BusMessage) -> Result<()> {
        self.on_object_bytes(at, msg.from, &msg.payload)
    }

    /// Handles one inbound reliable object frame: the engine adjudicates
    /// the link sequence (accept / duplicate / gap), a cumulative ACK
    /// rides the wire queue back, and only in-order novel events reach
    /// the typed exchange — so retransmits and replays never
    /// double-deliver.
    fn on_object_r(&mut self, at: PeerId, msg: BusMessage) -> Result<()> {
        if !self.peers.contains_key(&at) {
            return Err(TransportError::UnknownPeer(at));
        }
        let (verdict, ack) = self.delivery.on_object_r(at, msg.from, &msg.payload);
        if let Some(ack) = ack {
            self.queue_frame(at, msg.from, kinds::ACK, ack);
        }
        match verdict {
            Inbound::Deliver { .. } => {
                self.on_object_bytes(at, msg.from, &msg.payload[RELIABLE_HEADER_LEN..])
            }
            Inbound::Malformed => Err(TransportError::Protocol(
                "reliable object frame shorter than its header".into(),
            )),
            Inbound::Suppressed | Inbound::LinkDuplicate | Inbound::GapDiscard => Ok(()),
        }
    }

    /// Handles one cumulative ACK: settled frames leave the in-flight
    /// window and any events the replenished credit admits are framed
    /// and queued.
    fn on_ack_frame(&mut self, at: PeerId, msg: BusMessage) -> Result<()> {
        let now = self.net.now_us();
        let refilled = self
            .delivery
            .on_ack(at, msg.from, &msg.payload, now)
            .ok_or_else(|| TransportError::Protocol("malformed ack payload".into()))?;
        for frame in refilled {
            self.queue_frame(at, msg.from, kinds::OBJECT_R, frame);
        }
        Ok(())
    }

    /// The one inbound path of an object envelope, shared by
    /// [`on_object`](Self::on_object), the reliable path and the eager
    /// baseline. An XML envelope is transcoded to `PTIE` once, here at
    /// the edge; from then on the envelope is only read through an
    /// [`EnvelopeView`] of its bytes. When the receiver already holds
    /// its type's description and every listed assembly, it is matched
    /// ([`Peer::warm_match`], which settles a repeat from the peer's
    /// warm-type memo), materialized and delivered straight off the wire
    /// bytes. Anything else becomes a pending exchange that keeps the
    /// bytes, and [`advance`](Self::advance) takes it through the
    /// description, conformance and code stages.
    fn on_object_bytes(&mut self, at: PeerId, from: PeerId, bytes: &[u8]) -> Result<()> {
        let bytes = ptie(bytes)?;
        let view = EnvelopeView::parse(&bytes)?;
        let peer = self
            .peers
            .get_mut(&at)
            .ok_or(TransportError::UnknownPeer(at))?;
        peer.stats.objects_received += 1;
        peer.next_seq += 1;
        if let Some(matched) = peer.warm_match(&view) {
            let value = peer.materialize(&view)?;
            peer.push_delivery(Delivery::accepted(from, value, matched));
            return Ok(());
        }
        let seq = peer.next_seq;
        peer.pending.push(PendingObject {
            seq,
            from,
            envelope: Payload::from(&*bytes),
            awaiting_descs: HashSet::new(),
            awaiting_asms: None,
            matched: None,
        });
        self.advance(at, seq)
    }

    /// Pushes one pending exchange as far as it can go without more
    /// network input; issues requests when blocked. Each call reads the
    /// envelope through a fresh view of the exchange's bytes.
    fn advance(&mut self, at: PeerId, seq: u64) -> Result<()> {
        let peer = self
            .peers
            .get_mut(&at)
            .ok_or(TransportError::UnknownPeer(at))?;
        let Some(idx) = peer.pending.iter().position(|p| p.seq == seq) else {
            return Ok(());
        };
        let (from, bytes) = (peer.pending[idx].from, peer.pending[idx].envelope.clone());
        let view = EnvelopeView::parse(&bytes)?;
        let guid = view.type_guid;

        // Stage 1: root type description (steps 2-3 of Figure 1).
        if !guid.is_nil() && !peer.knows_description(guid) {
            // Request every listed description not yet requested. A path
            // whose response was already consumed (by an earlier
            // exchange) will never be answered again, so it must not be
            // awaited — only in-flight or fresh requests can unblock us.
            let mut to_request = Vec::new();
            let p = &mut peer.pending[idx];
            for entry in view.assemblies() {
                let desc_path = entry.description_path();
                if peer.received_descs.contains(desc_path.as_ref()) {
                    continue;
                }
                let desc_path = String::from(desc_path);
                if peer.requested_descs.insert(desc_path.clone()) {
                    to_request.push(desc_path.clone());
                    peer.stats.desc_requests += 1;
                }
                p.awaiting_descs.insert(desc_path);
            }
            if p.awaiting_descs.is_empty() {
                // Every listed description arrived earlier and still does
                // not cover the root type: the envelope is unservable.
                peer.pending.remove(idx);
                return Err(TransportError::Protocol(format!(
                    "no listed assembly describes root type `{}`",
                    view.type_name
                )));
            }
            for path in to_request {
                // Requests ride the wire queue: an envelope listing
                // several assemblies asks for all of them in one batch
                // (and the server answers with one batch of responses).
                self.queue_frame(at, from, kinds::DESC_REQUEST, path.into_bytes());
            }
            // If nothing was newly requested but we're still waiting, a
            // response is already in flight for another pending object.
            return Ok(());
        }

        // Every listed assembly present: the envelope is now warm (or
        // carries a primitive), so the exchange ends through the warm
        // path's own match, then is materialized and delivered.
        if view.assemblies().all(|e| peer.has_assembly_entry(&e)) {
            peer.pending.remove(idx);
            let matched = peer.warm_match(&view).flatten();
            let value = peer.materialize(&view)?;
            peer.push_delivery(Delivery::accepted(from, value, matched));
            return Ok(());
        }

        // Stage 2: conformance check against interests (step 3), made
        // before any code is fetched. The checker's bound contract for
        // (type, interest) is kept on the pending exchange. Primitive
        // payloads skip conformance.
        if !guid.is_nil() {
            let Some(contract) = peer.match_interest_of(guid).flatten() else {
                // Step 3 failed: reject, never download code.
                peer.pending.remove(idx);
                peer.push_delivery(Delivery::Rejected {
                    from,
                    type_name: TypeName::new(view.type_name),
                });
                return Ok(());
            };
            peer.pending[idx].matched = Some(contract);
        }

        // Stage 3: code download (steps 4-5). One fetch per path
        // peer-wide; concurrent exchanges for the same type share the
        // in-flight download.
        let missing: Vec<String> = view
            .assemblies()
            .filter(|e| !peer.has_assembly_entry(e))
            .map(|e| String::from(e.assembly_path()))
            .collect();
        let mut to_request = Vec::new();
        for path in &missing {
            if peer.requested_asms.insert(path.clone()) {
                to_request.push(path.clone());
                peer.stats.asm_requests += 1;
            }
        }
        peer.pending[idx].awaiting_asms = Some(missing.into_iter().collect());
        for path in to_request {
            self.queue_frame(at, from, kinds::ASM_REQUEST, path.into_bytes());
        }
        Ok(())
    }

    /// Stage 4 of an exchange whose code arrived after its verdict:
    /// materializes and delivers it. Installing the code can change what
    /// the provider resolves, so the matched interest is bound again
    /// before its proxy is built.
    fn finalize(&mut self, at: PeerId, seq: u64) -> Result<()> {
        let peer = self
            .peers
            .get_mut(&at)
            .ok_or(TransportError::UnknownPeer(at))?;
        let Some(idx) = peer.pending.iter().position(|p| p.seq == seq) else {
            return Ok(());
        };
        let p = peer.pending.remove(idx);
        let view = EnvelopeView::parse(&p.envelope)?;
        let value = peer.materialize(&view)?;
        let mut matched = p.matched;
        if let Some(matched) = matched.as_mut() {
            let root_desc = peer
                .description_of(view.type_guid)
                .ok_or_else(|| TransportError::Protocol("description vanished".into()))?;
            let provider = peer.provider();
            *matched = peer
                .checker
                .bind(&root_desc, matched.expected(), &provider, &provider)
                .map_err(|nc| TransportError::Protocol(format!("conformance lost: {nc}")))?;
        }
        peer.push_delivery(Delivery::accepted(p.from, value, matched));
        Ok(())
    }

    fn on_desc_request(&mut self, at: PeerId, msg: BusMessage) -> Result<()> {
        let path = std::str::from_utf8(&msg.payload)
            .map_err(|_| TransportError::Protocol("desc path not utf8".into()))?
            .to_string();
        let peer = self.peers.get(&at).ok_or(TransportError::UnknownPeer(at))?;
        let published = peer
            .published_by_desc_path(&path)
            .ok_or_else(|| TransportError::UnknownPath(path.clone()))?;
        let doc = descriptions_document(&published.descriptions, &path);
        // Responses ride the wire queue like everything else: a batch of
        // requests answers as one batched response per link.
        self.queue_frame(
            at,
            msg.from,
            kinds::DESC_RESPONSE,
            doc.to_compact().into_bytes(),
        );
        Ok(())
    }

    fn on_desc_response(&mut self, at: PeerId, msg: BusMessage) -> Result<()> {
        let text = std::str::from_utf8(&msg.payload)
            .map_err(|_| TransportError::Protocol("desc response not utf8".into()))?;
        let doc = pti_xml::parse(text).map_err(pti_serialize::SerializeError::from)?;
        let path = doc
            .get_attr("path")
            .ok_or_else(|| TransportError::Protocol("desc response missing path".into()))?
            .to_string();
        let peer = self
            .peers
            .get_mut(&at)
            .ok_or(TransportError::UnknownPeer(at))?;
        peer.received_descs.insert(path.clone());
        for child in doc.find_all("typeDescription") {
            peer.cache_description(description_from_xml(child)?);
        }
        // Unblock pendings waiting on this description path, in arrival
        // order (seq order).
        let mut ready = Vec::new();
        for p in peer.pending.iter_mut() {
            if p.awaiting_descs.remove(&path) && p.awaiting_descs.is_empty() {
                ready.push(p.seq);
            }
        }
        ready.sort_unstable();
        for seq in ready {
            self.advance(at, seq)?;
        }
        Ok(())
    }

    fn on_asm_request(&mut self, at: PeerId, msg: BusMessage) -> Result<()> {
        let path = std::str::from_utf8(&msg.payload)
            .map_err(|_| TransportError::Protocol("asm path not utf8".into()))?
            .to_string();
        let peer = self.peers.get(&at).ok_or(TransportError::UnknownPeer(at))?;
        let published = peer
            .published_by_asm_path(&path)
            .ok_or_else(|| TransportError::UnknownPath(path.clone()))?;
        // Payload: path, newline, zero padding up to the simulated size.
        let size = published.assembly.byte_size();
        let mut payload = path.clone().into_bytes();
        payload.push(b'\n');
        if payload.len() < size {
            payload.resize(size, 0);
        }
        self.queue_frame(at, msg.from, kinds::ASM_RESPONSE, payload);
        Ok(())
    }

    fn on_asm_response(&mut self, at: PeerId, msg: BusMessage) -> Result<()> {
        let nl = msg
            .payload
            .iter()
            .position(|&b| b == b'\n')
            .ok_or_else(|| TransportError::Protocol("asm response missing path".into()))?;
        let path = String::from_utf8(msg.payload[..nl].to_vec())
            .map_err(|_| TransportError::Protocol("asm path not utf8".into()))?;
        // Install the code from the out-of-band registry (the wire bytes
        // were the simulated artifact).
        let assembly = self
            .code
            .get(&path)
            .ok_or_else(|| TransportError::UnknownPath(path.clone()))?;
        let peer = self
            .peers
            .get_mut(&at)
            .ok_or(TransportError::UnknownPeer(at))?;
        assembly.install(&mut peer.runtime)?;
        let hash = assembly.content_hash();
        peer.mark_installed(&path, hash);
        let mut ready = Vec::new();
        for p in peer.pending.iter_mut() {
            if let Some(waiting) = &mut p.awaiting_asms {
                waiting.remove(&path);
                if waiting.is_empty() {
                    ready.push(p.seq);
                }
            }
        }
        ready.sort_unstable();
        for seq in ready {
            self.finalize(at, seq)?;
        }
        Ok(())
    }

    /// The eager baseline: the descriptions and code of every listed
    /// assembly came inline, so they are installed first; the envelope
    /// then takes the one inbound path, where it is now warm.
    fn on_eager_object(&mut self, at: PeerId, msg: BusMessage) -> Result<()> {
        let missing = || TransportError::Protocol("eager payload missing envelope".into());
        let (len, rest) = msg.payload.split_first_chunk::<4>().ok_or_else(missing)?;
        let envelope = rest
            .get(..u32::from_le_bytes(*len) as usize)
            .ok_or_else(missing)?;
        let envelope = ptie(envelope)?;
        let view = EnvelopeView::parse(&envelope)?;
        let assemblies: Vec<(Cow<'_, str>, Assembly)> = view
            .assemblies()
            .map(|e| {
                let path = e.assembly_path();
                match self.code.get(&path) {
                    Some(asm) => Ok((path, asm)),
                    None => Err(TransportError::UnknownPath(path.to_string())),
                }
            })
            .collect::<Result<_>>()?;
        let peer = self
            .peers
            .get_mut(&at)
            .ok_or(TransportError::UnknownPeer(at))?;
        for (path, asm) in assemblies {
            asm.install(&mut peer.runtime)?;
            peer.mark_installed(&path, asm.content_hash());
            for d in asm.types() {
                peer.cache_description(TypeDescription::from_def(d));
            }
        }
        self.on_object_bytes(at, msg.from, &envelope)
    }
}

/// An inbound envelope as `PTIE` bytes: a binary envelope as it came, an
/// XML one (the fallback and cross-language form — senders pick,
/// receivers sniff) transcoded once, at the receiving edge.
///
/// Deliberately *not* `ObjectEnvelope::decode_wire`: the protocol layer
/// classifies a non-utf8 non-binary payload as a `Protocol` error (the
/// error kind `tests/failure_injection.rs` pins), where the library
/// decoder reports a `Serialize` malformation.
fn ptie(payload: &[u8]) -> Result<Cow<'_, [u8]>> {
    if ObjectEnvelope::is_ptib(payload) {
        return Ok(Cow::Borrowed(payload));
    }
    let text = std::str::from_utf8(payload)
        .map_err(|_| TransportError::Protocol("object payload not utf8".into()))?;
    Ok(Cow::Owned(ObjectEnvelope::from_string(text)?.to_ptib()))
}

/// Parses `subscribe`/`unsubscribe` gossip payloads: a GUID line,
/// optionally followed by a signature-token line (`subscribe` only).
fn parse_interest_gossip(payload: &[u8]) -> Result<(Guid, Option<Signature>)> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| TransportError::Protocol("interest gossip not utf8".into()))?;
    let mut lines = text.splitn(2, '\n');
    let guid: Guid = lines
        .next()
        .unwrap_or_default()
        .trim()
        .parse()
        .map_err(|_| TransportError::Protocol("interest gossip has malformed guid".into()))?;
    let signature = lines
        .next()
        .map(Signature::decode)
        .filter(|s| s.is_catch_all() || !s.tokens().is_empty());
    Ok((guid, signature))
}

/// The XML document shipped as a `desc-response`: all descriptions of an
/// assembly under one root tagged with the requested path.
fn descriptions_document(descs: &[pti_metamodel::TypeDescription], path: &str) -> Element {
    let mut doc = Element::new("descriptions").attr("path", path);
    for d in descs {
        doc.push_child(description_to_xml(d));
    }
    doc
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use pti_metamodel::{bodies, primitives, TypeDef};
    use pti_proxy::DynamicProxy;

    /// Sends one `def` object from `from` to `to` and returns the
    /// delivery's proxy.
    fn deliver_one(swarm: &mut SimSwarm, from: PeerId, to: PeerId, def: &TypeDef) -> DynamicProxy {
        let rt = &mut swarm.peer_mut(from).runtime;
        let h = rt.instantiate_def(def, &[]).unwrap();
        rt.set_field(h, "readingValue", Value::F64(2.5)).unwrap();
        swarm
            .send_object(from, to, &Value::Obj(h), PayloadFormat::Binary)
            .unwrap();
        swarm.run().unwrap();
        match swarm.peer_mut(to).take_deliveries().as_slice() {
            [Delivery::Accepted {
                proxy: Some(proxy), ..
            }] => proxy.clone(),
            other => panic!("expected one proxied delivery, got {other:?}"),
        }
    }

    /// A published `Reading` and a peer pair with the code on `alice`.
    fn reading_pair() -> (SimSwarm, PeerId, PeerId, TypeDef) {
        let mut swarm = Swarm::new(NetConfig::default());
        let alice = swarm.add_peer(ConformanceConfig::pragmatic());
        let bob = swarm.add_peer(ConformanceConfig::pragmatic());
        let def = TypeDef::class("Reading", "a")
            .field("readingValue", primitives::FLOAT64)
            .ctor(vec![])
            .build();
        let asm = Assembly::builder("reading")
            .ty(def.clone())
            .ctor_body(def.guid, 0, bodies::ctor_assign(&[]))
            .build();
        swarm.publish(alice, asm).unwrap();
        (swarm, alice, bob, def)
    }

    /// The verdict that picks a warm delivery's interest also binds its
    /// proxy: the checker is consulted once per delivery, not again in
    /// `finalize`, and warm deliveries share the checker's contract. A
    /// cold delivery, whose code arrives after its verdict, is bound
    /// again before its proxy is built.
    #[test]
    fn a_warm_delivery_consults_the_checker_once() {
        let (mut swarm, alice, bob, def) = reading_pair();
        let interest = TypeDef::class("Reading", "b")
            .field("readingValue", primitives::FLOAT64)
            .build();
        swarm.subscribe(bob, TypeDescription::from_def(&interest));
        let lookups = |swarm: &SimSwarm| {
            let c = swarm.peer(bob).checker.stats();
            c.hits + c.misses
        };
        let deliver = |swarm: &mut SimSwarm| {
            let before = lookups(swarm);
            let proxy = deliver_one(swarm, alice, bob, &def);
            (lookups(swarm) - before, proxy)
        };
        let (cold, _) = deliver(&mut swarm);
        assert_eq!(cold, 2, "cold: verdict, then a re-bind");
        let (warm, first) = deliver(&mut swarm);
        assert_eq!(warm, 1, "warm: one verdict, reused");
        let (warm, second) = deliver(&mut swarm);
        assert_eq!(warm, 1);
        assert!(
            Arc::ptr_eq(first.contract(), second.contract()),
            "warm proxies share one contract"
        );
        assert_ne!(first.handle(), second.handle());
        assert_eq!(swarm.peer(bob).stats.conformance_checks, 3);
    }

    /// A contract is keyed by the interest's identity: after an interest
    /// is replaced by a same-named one with a renamed field, the next
    /// delivery binds the new contract, never the cached old one.
    #[test]
    fn a_replaced_interest_never_reuses_a_stale_binding() {
        let (mut swarm, alice, bob, def) = reading_pair();
        let old = TypeDescription::from_def(
            &TypeDef::class("Reading", "b")
                .field("readingValue", primitives::FLOAT64)
                .build(),
        );
        swarm.subscribe(bob, old.clone());
        deliver_one(&mut swarm, alice, bob, &def);
        let warm = deliver_one(&mut swarm, alice, bob, &def);
        assert_eq!(warm.expected().guid, old.guid);

        assert!(swarm.unsubscribe(bob, old.guid));
        let renamed = TypeDescription::from_def(
            &TypeDef::class("Reading", "c")
                .field("value", primitives::FLOAT64)
                .build(),
        );
        assert_ne!(renamed.guid, old.guid);
        swarm.subscribe(bob, renamed.clone());
        let proxy = deliver_one(&mut swarm, alice, bob, &def);
        assert_eq!(proxy.expected().guid, renamed.guid);
        assert!(!Arc::ptr_eq(proxy.contract(), warm.contract()));
        let rt = &swarm.peer(bob).runtime;
        assert_eq!(proxy.get_field(rt, "value").unwrap(), Value::F64(2.5));
        assert!(
            proxy.get_field(rt, "readingValue").is_err(),
            "the old contract's field is gone"
        );
    }
}
