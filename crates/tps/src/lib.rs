//! # pti-tps — type-based publish/subscribe over type interoperability
//!
//! The paper names TPS as the "obvious application" of type
//! interoperability (Section 8): with plain TPS, "subscribers and
//! publishers must agree a priori on the types they want to
//! transfer/receive"; with type interoperability, a subscriber's interest
//! type matches any *implicitly structurally conformant* event type —
//! publishers and subscribers never have to share a type hierarchy or
//! even a vendor.
//!
//! [`TypedPubSub`] is an *interest-routed* layer over the optimistic
//! transport: publishing resolves the subscriber set through the
//! swarm's routing table (interests indexed by type-name token
//! signature, Gryphon/SIENA-style) and ships one coalesced wire message
//! per `(publisher, subscriber)` link per pump — O(subscribers) instead
//! of O(members) per event. Each receiver's own conformance check still
//! decides final delivery, and rejected events never cost an assembly
//! download (Figure 1's saving, amortized over the whole group). The
//! O(members) broadcast the routing experiment measures against is
//! `Swarm::flood_object`, reachable through [`TypedPubSub::with_swarm`].
//!
//! The session API is **typed handles**, not raw peers: [`Member`]s are
//! obtained from the group, a [`Publisher`] builds-and-broadcasts events
//! of one published type, and a [`Subscription`] yields the matched
//! events — callers never touch a runtime or an envelope. The same group
//! runs standalone on a [`SimNet`], on a session of a fabric it shares
//! with sibling groups, mounted on a [`ReactorHost`], or on one shard of
//! a [`ShardedHost`] (real threads, one reactor each).
//!
//! ## Example
//!
//! ```
//! use pti_conformance::ConformanceConfig;
//! use pti_metamodel::{Assembly, TypeDef, TypeDescription, bodies, primitives};
//! use pti_tps::TypedPubSub;
//!
//! let tps = TypedPubSub::builder()
//!     .default_conformance(ConformanceConfig::pragmatic())
//!     .build();
//! let exchange = tps.add_member();
//! let trader = tps.add_member();
//!
//! // The exchange's event type, published as an assembly.
//! let quote = TypeDef::class("StockQuote", "pub")
//!     .field("symbol", primitives::STRING)
//!     .field("price", primitives::FLOAT64)
//!     .ctor(vec![])
//!     .build();
//! let g = quote.guid;
//! let quotes = exchange.publisher_for(Assembly::builder("quotes")
//!     .ty(quote)
//!     .ctor_body(g, 0, bodies::ctor_assign(&[]))
//!     .build())?;
//!
//! // The trader's independently written view of the same module.
//! let my_quote = TypeDef::class("StockQuote", "sub")
//!     .field("symbol", primitives::STRING)
//!     .field("price", primitives::FLOAT64)
//!     .build();
//! let sub = trader.subscribe(TypeDescription::from_def(&my_quote));
//!
//! quotes.publish_with(|e| {
//!     e.set("symbol", "ACME")?.set("price", 42.5)?;
//!     Ok(())
//! })?;
//! tps.run()?;
//!
//! let events = sub.drain();
//! assert_eq!(events.len(), 1);
//! assert_eq!(events[0].interest.full(), "StockQuote");
//! # Ok::<(), pti_transport::TransportError>(())
//! ```

#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use pti_conformance::ConformanceConfig;
use pti_metamodel::{Assembly, Guid, ObjHandle, TypeDef, TypeDescription, TypeName, Value};
use pti_net::{NetConfig, NetMetrics, PeerId, ReactorNet, SimNet, Transport};
use pti_proxy::DynamicProxy;
use pti_serialize::PayloadFormat;
use pti_transport::{
    CodeRegistry, Delivery, DeliveryConfig, DeliveryStats, MountedSwarm, ProtocolStats,
    ReactorHost, Result, ShardedHost, Swarm, TransportError,
};

pub use pti_transport::QoS;

/// A matched event delivered to a subscriber.
#[derive(Debug, Clone)]
pub struct EventNotification {
    /// The publishing peer.
    pub from: PeerId,
    /// The materialized event value (object handle in the subscriber's
    /// runtime).
    pub value: Value,
    /// The subscription (type of interest) the event matched.
    pub interest: TypeName,
    /// Identity of the matched interest (distinguishes same-named
    /// interests from different vendors).
    pub interest_guid: Guid,
    /// Proxy exposing the subscription's contract over the event.
    pub proxy: Option<DynamicProxy>,
}

/// The group state behind the handles.
struct Group<T: Transport> {
    swarm: Swarm<T>,
    members: Vec<PeerId>,
    default_conformance: ConformanceConfig,
    format: PayloadFormat,
    /// A seed peer to `join` through once the first member exists (a
    /// JOIN needs a speaker) — set by [`Builder::join`], consumed on the
    /// first `add_member*`.
    join_seed: Option<PeerId>,
    /// Matched events collected from peers but not yet claimed by a
    /// subscription's `drain`.
    mailbox: HashMap<PeerId, Vec<EventNotification>>,
}

impl<T: Transport> Group<T> {
    /// Routes one event through the interest index: it goes only to
    /// members whose subscription signatures match its type. Frames
    /// queue per link and flush at the next pump.
    fn publish(&mut self, from: PeerId, event: &Value, format: PayloadFormat) -> Result<()> {
        self.swarm.route_object(from, event, format)?;
        Ok(())
    }

    /// Moves a member's finished matched deliveries into the mailbox.
    /// A no-op for departed members (detached via migration): their
    /// handles stay safe to drain, yielding whatever was collected
    /// before departure.
    fn collect(&mut self, member: PeerId) {
        if !self.swarm.has_peer(member) {
            return;
        }
        let fresh = self
            .swarm
            .peer_mut(member)
            .drain_deliveries()
            .filter_map(|d| match d {
                Delivery::Accepted {
                    from,
                    value,
                    interest: Some(interest),
                    interest_guid: Some(interest_guid),
                    proxy,
                } => Some(EventNotification {
                    from,
                    value,
                    interest,
                    interest_guid,
                    proxy,
                }),
                _ => None,
            });
        self.mailbox.entry(member).or_default().extend(fresh);
    }
}

/// A publish/subscribe group where subscriptions are *types* and matching
/// is implicit structural conformance.
///
/// This is a cheaply-cloneable session handle; [`Member`], [`Publisher`]
/// and [`Subscription`] all point back into the same group.
pub struct TypedPubSub<T: Transport = SimNet> {
    inner: Arc<Mutex<Group<T>>>,
}

impl<T: Transport> Clone for TypedPubSub<T> {
    fn clone(&self) -> Self {
        TypedPubSub {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Transport> std::fmt::Debug for TypedPubSub<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = self.lock();
        f.debug_struct("TypedPubSub")
            .field("members", &g.members.len())
            .finish()
    }
}

/// Configures and creates a [`TypedPubSub`] group.
#[derive(Debug, Clone)]
pub struct Builder {
    net: NetConfig,
    conformance: ConformanceConfig,
    format: PayloadFormat,
    join_seed: Option<PeerId>,
    code: Option<CodeRegistry>,
    delivery: DeliveryConfig,
}

impl Default for Builder {
    fn default() -> Builder {
        Builder {
            net: NetConfig::default(),
            conformance: ConformanceConfig::pragmatic(),
            format: PayloadFormat::Binary,
            join_seed: None,
            code: None,
            delivery: DeliveryConfig::default(),
        }
    }
}

impl Builder {
    /// Link parameters for the simulated network (ignored by
    /// [`over`](Self::over)).
    pub fn net(mut self, config: NetConfig) -> Builder {
        self.net = config;
        self
    }

    /// Conformance profile given to members added without an explicit
    /// one. Defaults to the pragmatic profile.
    pub fn default_conformance(mut self, config: ConformanceConfig) -> Builder {
        self.conformance = config;
        self
    }

    /// Wire format events are serialized with. Defaults to binary.
    pub fn payload_format(mut self, format: PayloadFormat) -> Builder {
        self.format = format;
        self
    }

    /// Joins an existing group on the shared fabric through `seed` (any
    /// member of an established group) instead of wiring contacts by
    /// hand. The JOIN handshake fires when the first member is added (a
    /// swarm needs a peer to speak with), so the seed's group must be up
    /// by then; pump both groups afterwards and the late joiner
    /// converges to the same membership view and routing table as the
    /// founders. Meaningful with [`over`](Self::over) — a fresh
    /// [`build`](Self::build) fabric has nobody to join.
    ///
    /// The deferred handshake **panics** in `add_member*` if the seed is
    /// not registered by then (a misconfigured topology, reported like a
    /// peer-id collision). When the seed's arrival is genuinely racy,
    /// skip the builder option and call the fallible
    /// [`TypedPubSub::join`] once the seed is known to be up.
    pub fn join(mut self, seed: PeerId) -> Builder {
        self.join_seed = Some(seed);
        self
    }

    /// Delivery guarantee for routed events. The default,
    /// [`QoS::FireAndForget`], ships each event once and trusts the
    /// fabric; [`QoS::AtLeastOnce`] adds per-link sequencing, cumulative
    /// acknowledgements, bounded retransmission and duplicate
    /// suppression — drive the group with [`TypedPubSub::run_durable`]
    /// (standalone or on a shared fabric) or, once mounted,
    /// [`ReactorHost::run_durable`], so the virtual clock reaches the
    /// retransmit deadlines.
    pub fn qos(mut self, qos: QoS) -> Builder {
        self.delivery.qos = qos;
        self
    }

    /// At-least-once flow control: how many unacknowledged reliable
    /// frames one `(publisher, subscriber)` link may hold before further
    /// events buffer at the sender. Defaults to 32; clamped to ≥ 1.
    pub fn credit_window(mut self, window: usize) -> Builder {
        self.delivery.credit_window = window.max(1);
        self
    }

    /// How many recent events per topic the group retains for replay to
    /// late or resumed subscribers. Defaults to 0 (no replay).
    pub fn replay_depth(mut self, depth: usize) -> Builder {
        self.delivery.replay_depth = depth;
        self
    }

    /// At-least-once retransmit schedule: the base backoff in virtual
    /// microseconds (doubles each round) and the retry budget after
    /// which a link is declared unreachable.
    pub fn retransmit(mut self, base_us: u64, max_retries: u32) -> Builder {
        self.delivery.retransmit_base_us = base_us.max(1);
        self.delivery.max_retries = max_retries;
        self
    }

    /// Shares a code registry with sibling groups on the same fabric —
    /// how members of different shards resolve each other's published
    /// assemblies (the session-level counterpart of
    /// `Swarm::with_code_registry`). Defaults to a fresh registry.
    pub fn code_registry(mut self, code: CodeRegistry) -> Builder {
        self.code = Some(code);
        self
    }

    /// Builds the group over a fresh deterministic [`SimNet`].
    pub fn build(self) -> TypedPubSub<SimNet> {
        let net = SimNet::new(self.net);
        self.over(net)
    }

    /// Builds the group over a fresh session of `host`'s shared reactor
    /// fabric and mounts it, so the host's event loop pumps the group's
    /// swarm whenever traffic makes it ready. The returned handle is the
    /// usual cheaply-cloneable session handle — `add_member_as`,
    /// `publisher_for`, `subscribe` and `drain` all work unchanged; only
    /// the *driving* moves to [`ReactorHost::run_until_quiescent`] /
    /// [`ReactorHost::run_durable`]. Use [`code_registry`](Self::code_registry)
    /// and explicit peer ids to coexist with sibling groups.
    pub fn mount_on(self, host: &mut ReactorHost) -> TypedPubSub<ReactorNet> {
        let mut handle = None;
        host.mount(|net| {
            let tps = self.over(net);
            handle = Some(tps.clone());
            tps
        });
        handle.expect("mount invokes its builder")
    }

    /// Builds the group on the shard of `host` that `primary`
    /// hash-pins to — the sharded counterpart of
    /// [`mount_on`](Self::mount_on). The group's swarm lives on that
    /// shard's worker thread and never leaves it; the returned
    /// [`ShardedGroup`] token accesses it through
    /// [`ShardedGroup::with`] closures. Share a
    /// [`code_registry`](Self::code_registry) across groups so members
    /// of different shards resolve each other's assemblies.
    pub fn mount_sharded(self, host: &mut ShardedHost, primary: PeerId) -> ShardedGroup {
        let shard = host.shard_for(primary);
        self.mount_sharded_pinned(host, shard)
    }

    /// Like [`mount_sharded`](Self::mount_sharded) with an explicit
    /// shard — the placement override for experiments that pin a
    /// publisher and its subscribers to different shards on purpose.
    pub fn mount_sharded_pinned(self, host: &mut ShardedHost, shard: usize) -> ShardedGroup {
        let slot = host.mount_pinned(shard, move |net| self.over(net));
        ShardedGroup { slot }
    }

    /// Builds the group over an existing transport — e.g. a
    /// [`session`](ReactorNet::session) of a fabric shared with sibling
    /// groups.
    pub fn over<T: Transport>(self, transport: T) -> TypedPubSub<T> {
        let code = self.code.unwrap_or_default();
        let mut swarm = Swarm::with_code_registry(transport, code);
        swarm.set_qos(self.delivery.qos);
        swarm.set_credit_window(self.delivery.credit_window);
        swarm.set_replay_depth(self.delivery.replay_depth);
        swarm.set_retransmit(self.delivery.retransmit_base_us, self.delivery.max_retries);
        TypedPubSub {
            inner: Arc::new(Mutex::new(Group {
                swarm,
                members: Vec::new(),
                default_conformance: self.conformance,
                format: self.format,
                join_seed: self.join_seed,
                mailbox: HashMap::new(),
            })),
        }
    }
}

impl TypedPubSub<SimNet> {
    /// Starts configuring a group.
    pub fn builder() -> Builder {
        Builder::default()
    }

    /// Shorthand: a group over a simulated network with the given link
    /// parameters and the default profile.
    pub fn new(config: NetConfig) -> TypedPubSub<SimNet> {
        Builder::default().net(config).build()
    }
}

impl<T: Transport> TypedPubSub<T> {
    fn lock(&self) -> MutexGuard<'_, Group<T>> {
        self.inner.lock().expect("pub/sub group lock poisoned")
    }

    /// Adds a member with the group's default conformance profile.
    pub fn add_member(&self) -> Member<T> {
        let config = self.lock().default_conformance.clone();
        self.add_member_with(config)
    }

    /// Adds a member with an explicit conformance profile.
    pub fn add_member_with(&self, config: ConformanceConfig) -> Member<T> {
        let mut g = self.lock();
        let id = g.swarm.add_peer(config);
        self.finish_add(g, id)
    }

    /// Adds a member under an explicit peer id — required on a shared
    /// fabric where several groups must pick non-colliding ids (the
    /// session-level counterpart of `Swarm::add_peer_as`). Uses the
    /// group's default conformance profile.
    pub fn add_member_as(&self, id: PeerId) -> Member<T> {
        let mut g = self.lock();
        let config = g.default_conformance.clone();
        g.swarm.add_peer_as(id, config);
        self.finish_add(g, id)
    }

    /// Shared tail of the `add_member*` family: membership bookkeeping
    /// plus the deferred [`Builder::join`] handshake, fired exactly once
    /// now that the group has a speaker.
    ///
    /// # Panics
    /// If a deferred [`Builder::join`] seed is not registered on the
    /// fabric (see that method's docs for the fallible alternative).
    fn finish_add(&self, mut g: MutexGuard<'_, Group<T>>, id: PeerId) -> Member<T> {
        g.members.push(id);
        if let Some(seed) = g.join_seed.take() {
            g.swarm
                .join(seed)
                .expect("builder join: seed must be registered on the shared fabric");
        }
        Member {
            group: self.clone(),
            id,
        }
    }

    /// A fresh handle for an existing live member, `None` once it
    /// departed. This is how sharded callers re-acquire a handle inside
    /// each [`ShardedGroup::with`] closure — reactor-backed handles are
    /// not `Send` and cannot leave their shard's thread between calls.
    pub fn member(&self, id: PeerId) -> Option<Member<T>> {
        let g = self.lock();
        if !g.members.contains(&id) {
            return None;
        }
        drop(g);
        Some(Member {
            group: self.clone(),
            id,
        })
    }

    /// Joins an established group through `seed` right now (the explicit
    /// counterpart of [`Builder::join`]). Requires at least one member.
    ///
    /// # Errors
    /// No member to speak with, or an unreachable seed.
    pub fn join(&self, seed: PeerId) -> Result<()> {
        self.lock().swarm.join(seed)
    }

    /// Leaves the group: announces every member's departure and drops
    /// everything learned from it. Members and their collected events
    /// survive locally; the group can [`join`](Self::join) again.
    pub fn leave(&self) {
        self.lock().swarm.leave()
    }

    /// Detaches one member for migration to another shard: its departure
    /// is announced to the group (receivers retire its routes with it),
    /// its fabric ring is released, and its interests are returned so
    /// the caller can re-subscribe them at the member's new home — see
    /// [`Member::migrate_to`].
    pub fn detach_member(&self, member: PeerId) -> Vec<TypeDescription> {
        let mut g = self.lock();
        if !g.swarm.has_peer(member) {
            // Already departed (a stale cloned handle): nothing to move.
            return Vec::new();
        }
        let interests = g.swarm.peer(member).interests().to_vec();
        // Finished deliveries move to the mailbox *before* the peer's
        // protocol state is dropped, so subscriptions left at the old
        // home still drain what arrived before the move.
        g.collect(member);
        g.swarm.depart_peer(member);
        g.members.retain(|m| *m != member);
        interests
    }

    /// Ids of all member peers.
    pub fn member_ids(&self) -> Vec<PeerId> {
        self.lock().members.clone()
    }

    /// Drives the network until quiet (deterministic fabrics).
    ///
    /// # Errors
    /// Protocol violations.
    pub fn run(&self) -> Result<()> {
        self.lock().swarm.run()
    }

    /// Like [`run`](Self::run), but additionally advances a
    /// virtual-time fabric through at-least-once retransmit deadlines
    /// until every reliable link is settled (all events acknowledged) or
    /// shed (retry budget exhausted — surfaced via
    /// [`take_dispatch_errors`](Self::take_dispatch_errors)). The right
    /// pump for groups built with [`Builder::qos`]`(QoS::AtLeastOnce)`
    /// on a `SimNet`.
    ///
    /// # Errors
    /// Pump-budget exhaustion; per-message protocol errors are isolated,
    /// not returned.
    pub fn run_durable(&self) -> Result<()> {
        self.lock().swarm.run_durable()
    }

    /// At-least-once delivery counters: frames sent and retransmitted,
    /// acknowledgements, duplicates suppressed, replay activity, and the
    /// high-water queue depths.
    pub fn delivery_stats(&self) -> DeliveryStats {
        self.lock().swarm.delivery_stats()
    }

    /// Drains the per-message errors the pumps isolated instead of
    /// aborting on — malformed frames, unknown artifacts, unreachable
    /// at-least-once peers — each tagged with the owned peer that
    /// reported it.
    pub fn take_dispatch_errors(&self) -> Vec<(PeerId, TransportError)> {
        self.lock().swarm.take_dispatch_errors()
    }

    /// Network traffic counters.
    pub fn metrics(&self) -> NetMetrics {
        self.lock().swarm.metrics()
    }

    /// Protocol counters of one member (zeroes once it departed).
    pub fn stats(&self, member: PeerId) -> ProtocolStats {
        let g = self.lock();
        if !g.swarm.has_peer(member) {
            return ProtocolStats::default();
        }
        g.swarm.peer(member).stats
    }

    /// Full access to the underlying swarm for protocol-level work the
    /// handles don't cover (experiments, failure injection). Scoped to a
    /// closure so no lock guard escapes.
    pub fn with_swarm<R>(&self, f: impl FnOnce(&mut Swarm<T>) -> R) -> R {
        f(&mut self.lock().swarm)
    }

    /// All matched events buffered for a member, regardless of which
    /// subscription they belong to — the low-level counterpart of
    /// [`Subscription::drain`].
    pub fn notifications(&self, member: PeerId) -> Vec<EventNotification> {
        let mut g = self.lock();
        g.collect(member);
        g.mailbox
            .get_mut(&member)
            .map(std::mem::take)
            .unwrap_or_default()
    }
}

/// Lets a [`ReactorHost`] pump a mounted group's swarm directly; events
/// surface on the next [`Subscription::drain`] (collection is lazy at
/// read time), so no extra notification plumbing is needed.
impl MountedSwarm for TypedPubSub<ReactorNet> {
    fn with_swarm_mut(&mut self, f: &mut dyn FnMut(&mut Swarm<ReactorNet>)) {
        f(&mut self.lock().swarm);
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A typed group mounted on a [`ShardedHost`] — a `Send` token, not a
/// handle: the group itself (and every `Member`/`Publisher`/
/// `Subscription` obtained from it) is reactor-backed and must stay on
/// its owning shard's thread, so all access goes through
/// [`with`](Self::with) closures executed over there.
#[derive(Debug, Clone, Copy)]
pub struct ShardedGroup {
    slot: usize,
}

impl ShardedGroup {
    /// The group's global slot on the sharded host.
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// The shard that owns the group.
    pub fn shard(&self, host: &ShardedHost) -> usize {
        host.shard_of(self.slot)
    }

    /// Runs `f` with the group on its owning shard's worker thread and
    /// returns the result. Handles created inside (`Member`s,
    /// `Subscription`s) must not escape the closure — they are not
    /// `Send`; return plain data (ids, drained events, counters)
    /// instead. Membership changes propagate to every other shard's
    /// proxy table before this returns.
    pub fn with<R: Send + 'static>(
        &self,
        host: &mut ShardedHost,
        f: impl FnOnce(&TypedPubSub<ReactorNet>) -> R + Send + 'static,
    ) -> R {
        host.with_mounted::<TypedPubSub<ReactorNet>, R>(self.slot, move |tps| f(tps))
    }

    /// Migrates `member` to `target` (possibly on another shard) under
    /// the fresh id `new_id` — the sharded counterpart of
    /// [`Member::migrate_to`], split into a detach on the source shard
    /// and a re-subscribe on the target's, each on its owning thread.
    /// Returns how many interests moved. Drive the host to quiescence
    /// afterwards so the departure gossip and re-announcements converge.
    pub fn migrate_member(
        &self,
        host: &mut ShardedHost,
        member: PeerId,
        target: &ShardedGroup,
        new_id: PeerId,
    ) -> usize {
        let interests = host
            .with_mounted::<TypedPubSub<ReactorNet>, Vec<TypeDescription>>(self.slot, move |tps| {
                tps.detach_member(member)
            });
        let moved = interests.len();
        host.with_mounted::<TypedPubSub<ReactorNet>, ()>(target.slot, move |tps| {
            let m = tps.add_member_as(new_id);
            for interest in interests {
                m.subscribe(interest);
            }
        });
        moved
    }
}

/// One member of the group, able to publish event types and subscribe
/// types of interest.
pub struct Member<T: Transport> {
    group: TypedPubSub<T>,
    id: PeerId,
}

impl<T: Transport> Clone for Member<T> {
    fn clone(&self) -> Self {
        Member {
            group: self.group.clone(),
            id: self.id,
        }
    }
}

impl<T: Transport> std::fmt::Debug for Member<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Member").field("id", &self.id).finish()
    }
}

impl<T: Transport> Member<T> {
    /// This member's peer id.
    pub fn id(&self) -> PeerId {
        self.id
    }

    /// This member's protocol counters.
    pub fn stats(&self) -> ProtocolStats {
        self.group.stats(self.id)
    }

    /// Publishes the event types in `assembly` and returns a
    /// [`Publisher`] for the assembly's *first* type — the conventional
    /// one-event-type-per-assembly case. Publish a multi-type assembly
    /// once and create further publishers with
    /// [`publisher_for_type`](Self::publisher_for_type).
    ///
    /// # Errors
    /// Empty assemblies or installation conflicts.
    pub fn publisher_for(&self, assembly: Assembly) -> Result<Publisher<T>> {
        let event = assembly
            .types()
            .first()
            .cloned()
            .ok_or_else(|| TransportError::Protocol("assembly declares no types".into()))?;
        self.group.lock().swarm.publish(self.id, assembly)?;
        Ok(Publisher {
            group: self.group.clone(),
            member: self.id,
            event,
        })
    }

    /// A [`Publisher`] for one type of an already-published assembly.
    pub fn publisher_for_type(&self, event: TypeDef) -> Publisher<T> {
        Publisher {
            group: self.group.clone(),
            member: self.id,
            event,
        }
    }

    /// Registers a type of interest and returns its [`Subscription`]:
    /// the interest joins the routing index (so routed publishes start
    /// targeting this member) and inbound events are matched against it
    /// by implicit structural conformance.
    ///
    /// On a stale handle whose member already departed (a clone kept
    /// across [`migrate_to`](Self::migrate_to)) the subscription is
    /// returned inert: nothing is registered and it never yields events.
    pub fn subscribe(&self, interest: TypeDescription) -> Subscription<T> {
        let mut g = self.group.lock();
        if g.swarm.has_peer(self.id) {
            g.swarm.subscribe(self.id, interest.clone());
        }
        drop(g);
        Subscription {
            group: self.group.clone(),
            member: self.id,
            interest,
        }
    }

    /// Migrates this member to another shard (group) of the same fabric
    /// group: the old shard announces its departure — every other
    /// engine's membership view and routing table retire it together —
    /// and its interests are re-subscribed under `new_id` at the target,
    /// whose gossip re-routes them across the group. Returns the new
    /// member plus one subscription per migrated interest, in the
    /// original subscription order.
    ///
    /// `new_id` must not collide with any id live on the shared fabric.
    /// The old id's fabric ring is released when it departs, so a later
    /// member may claim it again.
    ///
    /// This handle is consumed. Handles left over at the old home stay
    /// *safe* but inert: an old `Subscription` drains what it collected
    /// before the move and then stays empty (`cancel` returns `false`,
    /// `invoke`/`get_field` error), an old `Publisher` errors on
    /// publish. Pump both shards afterwards to converge the group's
    /// routing tables.
    pub fn migrate_to(
        self,
        target: &TypedPubSub<T>,
        new_id: PeerId,
    ) -> (Member<T>, Vec<Subscription<T>>) {
        // Lock discipline: detach under the source lock, re-attach under
        // the target's — never both at once (they may be the same group).
        let interests = self.group.detach_member(self.id);
        let member = target.add_member_as(new_id);
        let subscriptions = interests.into_iter().map(|i| member.subscribe(i)).collect();
        (member, subscriptions)
    }
}

/// Builds the fields of one event object before it is broadcast.
///
/// The builder locks the group per operation rather than for the whole
/// construction, so the closure given to [`Publisher::publish_with`] may
/// freely call back into the group (other publishers, `run`, drains)
/// without deadlocking.
pub struct EventBuilder<T: Transport> {
    group: TypedPubSub<T>,
    member: PeerId,
    handle: ObjHandle,
}

impl<T: Transport> EventBuilder<T> {
    /// Sets a field of the event under construction.
    ///
    /// # Errors
    /// Unknown fields or type mismatches.
    pub fn set(&mut self, field: &str, value: impl Into<Value>) -> Result<&mut Self> {
        let mut g = self.group.lock();
        if !g.swarm.has_peer(self.member) {
            return Err(TransportError::UnknownPeer(self.member));
        }
        g.swarm
            .peer_mut(self.member)
            .runtime
            .set_field(self.handle, field, value.into())?;
        drop(g);
        Ok(self)
    }

    /// The handle of the event under construction (for nested
    /// structures).
    pub fn handle(&self) -> ObjHandle {
        self.handle
    }
}

/// Publishes events of one type to the whole group.
pub struct Publisher<T: Transport> {
    group: TypedPubSub<T>,
    member: PeerId,
    event: TypeDef,
}

impl<T: Transport> Clone for Publisher<T> {
    fn clone(&self) -> Self {
        Publisher {
            group: self.group.clone(),
            member: self.member,
            event: self.event.clone(),
        }
    }
}

impl<T: Transport> std::fmt::Debug for Publisher<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Publisher")
            .field("member", &self.member)
            .field("event", &self.event.name)
            .finish()
    }
}

impl<T: Transport> Publisher<T> {
    /// The event type this publisher produces.
    pub fn event_type(&self) -> &TypeDef {
        &self.event
    }

    /// The publishing member's peer id.
    pub fn member_id(&self) -> PeerId {
        self.member
    }

    /// Instantiates one event, hands it to `build` for field assignment,
    /// and broadcasts it to every other member.
    ///
    /// The group lock is *not* held across `build` (each
    /// [`EventBuilder`] operation takes it briefly), so the closure may
    /// call back into the group — publish on another [`Publisher`],
    /// drain a subscription — without deadlocking.
    ///
    /// # Errors
    /// Construction failures from `build`, or serialization/provenance
    /// failures while broadcasting.
    pub fn publish_with(
        &self,
        build: impl FnOnce(&mut EventBuilder<T>) -> Result<()>,
    ) -> Result<()> {
        let handle = {
            let mut g = self.group.lock();
            if !g.swarm.has_peer(self.member) {
                return Err(TransportError::UnknownPeer(self.member));
            }
            g.swarm
                .peer_mut(self.member)
                .runtime
                .instantiate_def(&self.event, &[])?
        };
        build(&mut EventBuilder {
            group: self.group.clone(),
            member: self.member,
            handle,
        })?;
        let mut g = self.group.lock();
        let format = g.format;
        g.publish(self.member, &Value::Obj(handle), format)
    }

    /// Broadcasts a pre-built value (it must live in the publishing
    /// member's runtime and have published provenance).
    ///
    /// # Errors
    /// Serialization or provenance failures.
    pub fn publish_value(&self, event: &Value) -> Result<()> {
        let mut g = self.group.lock();
        let format = g.format;
        g.publish(self.member, event, format)
    }
}

/// A registered type of interest, yielding the events that matched it.
pub struct Subscription<T: Transport> {
    group: TypedPubSub<T>,
    member: PeerId,
    interest: TypeDescription,
}

impl<T: Transport> std::fmt::Debug for Subscription<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subscription")
            .field("member", &self.member)
            .field("interest", &self.interest.name)
            .finish()
    }
}

impl<T: Transport> Subscription<T> {
    /// The type of interest this subscription matches.
    pub fn interest(&self) -> &TypeDescription {
        &self.interest
    }

    /// The subscribing member's peer id.
    pub fn member_id(&self) -> PeerId {
        self.member
    }

    /// Takes the events delivered to this subscription since the last
    /// call. Events that matched *other* subscriptions of the same
    /// member stay queued for them (matching is by interest identity,
    /// so same-named interests from different vendors stay separate).
    pub fn drain(&self) -> Vec<EventNotification> {
        let mut g = self.group.lock();
        g.collect(self.member);
        let Some(inbox) = g.mailbox.get_mut(&self.member) else {
            return Vec::new();
        };
        // Moves this subscription's events out in publish order; the
        // rest stay queued in theirs.
        inbox
            .extract_if(.., |ev| ev.interest_guid == self.interest.guid)
            .collect()
    }

    /// Drains and visits every pending event of this subscription.
    pub fn for_each(&self, mut f: impl FnMut(&EventNotification)) {
        for ev in self.drain() {
            f(&ev);
        }
    }

    /// Invokes a method of the subscription's contract on a delivered
    /// event, through its conformance-translating proxy.
    ///
    /// # Errors
    /// Events without a proxy, out-of-contract methods, or runtime
    /// failures.
    pub fn invoke(&self, event: &EventNotification, method: &str, args: &[Value]) -> Result<Value> {
        let proxy = event.proxy.as_ref().ok_or_else(|| {
            TransportError::Protocol("event has no proxy (primitive payload?)".into())
        })?;
        let mut g = self.group.lock();
        if !g.swarm.has_peer(self.member) {
            return Err(TransportError::UnknownPeer(self.member));
        }
        let rt = &mut g.swarm.peer_mut(self.member).runtime;
        proxy
            .invoke(rt, method, args)
            .map_err(|e| TransportError::Protocol(format!("event invocation failed: {e}")))
    }

    /// Reads a field of a delivered event through its proxy binding.
    ///
    /// # Errors
    /// Events without a proxy or unknown fields.
    pub fn get_field(&self, event: &EventNotification, field: &str) -> Result<Value> {
        let proxy = event.proxy.as_ref().ok_or_else(|| {
            TransportError::Protocol("event has no proxy (primitive payload?)".into())
        })?;
        let mut g = self.group.lock();
        if !g.swarm.has_peer(self.member) {
            return Err(TransportError::UnknownPeer(self.member));
        }
        let rt = &mut g.swarm.peer_mut(self.member).runtime;
        proxy
            .get_field(rt, field)
            .map_err(|e| TransportError::Protocol(format!("event field read failed: {e}")))
    }

    /// Withdraws the interest: it leaves the routing index (routed
    /// publishes stop targeting this member for it) and future events
    /// are no longer matched against it. Returns whether the interest
    /// was still registered — `false` too once the member departed (a
    /// migration already retracted everything).
    pub fn cancel(&self) -> bool {
        let mut g = self.group.lock();
        if !g.swarm.has_peer(self.member) {
            return false;
        }
        g.swarm.unsubscribe(self.member, self.interest.guid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pti_metamodel::{bodies, primitives, TypeDef};

    fn quote_assembly(salt: &str) -> (Assembly, TypeDef) {
        let def = TypeDef::class("StockQuote", salt)
            .field("symbol", primitives::STRING)
            .field("price", primitives::FLOAT64)
            .method("getSymbol", vec![], primitives::STRING)
            .ctor(vec![])
            .build();
        let g = def.guid;
        let asm = Assembly::builder(format!("quotes-{salt}"))
            .ty(def.clone())
            .body(g, "getSymbol", 0, bodies::getter("symbol"))
            .ctor_body(g, 0, bodies::ctor_assign(&[]))
            .build();
        (asm, def)
    }

    fn news_assembly(salt: &str) -> (Assembly, TypeDef) {
        let def = TypeDef::class("NewsFlash", salt)
            .field("headline", primitives::STRING)
            .ctor(vec![])
            .build();
        let g = def.guid;
        let asm = Assembly::builder(format!("news-{salt}"))
            .ty(def.clone())
            .ctor_body(g, 0, bodies::ctor_assign(&[]))
            .build();
        (asm, def)
    }

    fn group() -> TypedPubSub {
        TypedPubSub::builder().build()
    }

    #[test]
    fn matching_subscriber_gets_event_others_do_not() {
        let tps = group();
        let publisher = tps.add_member();
        let quote_fan = tps.add_member();
        let news_fan = tps.add_member();

        let (asm, _) = quote_assembly("pub");
        let quotes = publisher.publisher_for(asm).unwrap();
        let (_, sub_quote) = quote_assembly("quote-fan");
        let quote_sub = quote_fan.subscribe(TypeDescription::from_def(&sub_quote));
        let (_, sub_news) = news_assembly("news-fan");
        let news_sub = news_fan.subscribe(TypeDescription::from_def(&sub_news));

        quotes
            .publish_with(|e| {
                e.set("symbol", "ACME")?;
                Ok(())
            })
            .unwrap();
        tps.run().unwrap();

        let got = quote_sub.drain();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].from, publisher.id());
        assert!(news_sub.drain().is_empty());
        // Interest-indexed routing: the news fan's signature does not
        // match, so the event never even crossed its link.
        assert_eq!(news_fan.stats().objects_received, 0);
        assert_eq!(news_fan.stats().rejected, 0);
        assert_eq!(news_fan.stats().asm_requests, 0, "no code for non-matches");
        assert_eq!(tps.metrics().kind("object").messages, 1, "one link used");
    }

    #[test]
    fn loose_type_name_matchers_keep_flood_semantics_under_routing() {
        // A wildcard type-name profile cannot be modelled by the token
        // prefilter; its subscriber must still receive routed events
        // (catch-all route) and match them through its own checker.
        use pti_conformance::NameMatcher;
        let tps = group();
        let publisher = tps.add_member();
        let wild = tps
            .add_member_with(ConformanceConfig::pragmatic().with_type_names(NameMatcher::Wildcard));
        let (asm, _) = quote_assembly("pub");
        let quotes = publisher.publisher_for(asm).unwrap();
        // Interest named `Stock*` — token-signature routing alone would
        // never match it against `StockQuote`.
        let pattern = TypeDef::class("Stock*", "wild")
            .field("symbol", primitives::STRING)
            .field("price", primitives::FLOAT64)
            .build();
        let sub = wild.subscribe(TypeDescription::from_def(&pattern));
        quotes
            .publish_with(|e| {
                e.set("symbol", "WILD")?;
                Ok(())
            })
            .unwrap();
        tps.run().unwrap();
        assert_eq!(sub.drain().len(), 1, "catch-all route delivered");
    }

    #[test]
    fn routed_publishes_coalesce_per_link() {
        let tps = group();
        let publisher = tps.add_member();
        let subscriber = tps.add_member();
        let spectator = tps.add_member();
        let (asm, _) = quote_assembly("pub");
        let quotes = publisher.publisher_for(asm).unwrap();
        let (_, sub_def) = quote_assembly("sub");
        let sub = subscriber.subscribe(TypeDescription::from_def(&sub_def));

        for i in 0..10 {
            let symbol = format!("B{i}");
            quotes
                .publish_with(|e| {
                    e.set("symbol", symbol.as_str())?;
                    Ok(())
                })
                .unwrap();
        }
        tps.run().unwrap();
        assert_eq!(sub.drain().len(), 10);

        let m = tps.metrics();
        // All ten envelopes crossed the publisher→subscriber link as one
        // coalesced batch message...
        assert_eq!(m.kind("object").messages, 0);
        let link = m.link(publisher.id(), subscriber.id());
        assert_eq!(link.batches, 1);
        assert_eq!(link.frames, 10);
        // ...and the interest-less spectator saw no traffic at all.
        assert_eq!(tps.stats(spectator.id()).objects_received, 0);
        assert_eq!(m.link(publisher.id(), spectator.id()).batches, 0);
    }

    #[test]
    fn subscriber_invokes_event_through_its_own_contract() {
        let tps = group();
        let publisher = tps.add_member();
        let subscriber = tps.add_member();
        let (asm, _) = quote_assembly("pub");
        let quotes = publisher.publisher_for(asm).unwrap();
        // Subscriber's view names the getter differently but conformantly.
        let sub_def = TypeDef::class("StockQuote", "sub")
            .field("symbol", primitives::STRING)
            .field("price", primitives::FLOAT64)
            .method("getSymbol", vec![], primitives::STRING)
            .build();
        let sub = subscriber.subscribe(TypeDescription::from_def(&sub_def));
        quotes
            .publish_with(|e| {
                e.set("symbol", "GLOBEX")?;
                Ok(())
            })
            .unwrap();
        tps.run().unwrap();
        let mut got = sub.drain();
        let ev = got.remove(0);
        let sym = sub.invoke(&ev, "getSymbol", &[]).unwrap();
        assert_eq!(sym.as_str().unwrap(), "GLOBEX");
    }

    #[test]
    fn many_events_amortize_protocol_cost() {
        let tps = group();
        let publisher = tps.add_member();
        let subscriber = tps.add_member();
        let (asm, _) = quote_assembly("pub");
        let quotes = publisher.publisher_for(asm).unwrap();
        let (_, sub_def) = quote_assembly("sub");
        let sub = subscriber.subscribe(TypeDescription::from_def(&sub_def));

        for i in 0..10 {
            let symbol = format!("S{i}");
            quotes
                .publish_with(|e| {
                    e.set("symbol", symbol.as_str())?;
                    Ok(())
                })
                .unwrap();
        }
        tps.run().unwrap();
        assert_eq!(sub.drain().len(), 10);
        // Description and code each crossed the wire exactly once.
        assert_eq!(subscriber.stats().desc_requests, 1);
        assert_eq!(subscriber.stats().asm_requests, 1);
    }

    #[test]
    fn multiple_subscriptions_first_match_wins() {
        let tps = group();
        let publisher = tps.add_member();
        let subscriber = tps.add_member();
        let (asm, pub_def) = quote_assembly("pub");
        let quotes = publisher.publisher_for(asm).unwrap();
        let (_, news) = news_assembly("sub");
        let news_sub = subscriber.subscribe(TypeDescription::from_def(&news));
        let quote_sub = subscriber.subscribe(TypeDescription::from_def(&pub_def));
        quotes
            .publish_with(|e| {
                e.set("symbol", "X")?;
                Ok(())
            })
            .unwrap();
        tps.run().unwrap();
        let got = quote_sub.drain();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].interest.full(), "StockQuote");
        assert!(news_sub.drain().is_empty());
    }

    #[test]
    fn unsubscribe_stops_future_deliveries() {
        let tps = group();
        let publisher = tps.add_member();
        let subscriber = tps.add_member();
        let (asm, _) = quote_assembly("pub");
        let quotes = publisher.publisher_for(asm).unwrap();
        let (_, sub_def) = quote_assembly("sub");
        let sub = subscriber.subscribe(TypeDescription::from_def(&sub_def));

        quotes
            .publish_with(|e| {
                e.set("symbol", "BEFORE")?;
                Ok(())
            })
            .unwrap();
        tps.run().unwrap();
        assert_eq!(sub.drain().len(), 1);

        assert!(sub.cancel());
        assert!(!sub.cancel(), "idempotent");
        let before = tps.metrics().messages;
        quotes
            .publish_with(|e| {
                e.set("symbol", "AFTER")?;
                Ok(())
            })
            .unwrap();
        tps.run().unwrap();
        assert!(sub.drain().is_empty());
        // The retraction reached the router: the second publish found no
        // matching interest and nothing crossed the wire.
        assert_eq!(tps.metrics().messages, before);
    }

    #[test]
    fn publisher_does_not_receive_its_own_events() {
        let tps = group();
        let publisher = tps.add_member();
        let _other = tps.add_member();
        let (asm, def) = quote_assembly("pub");
        let quotes = publisher.publisher_for(asm).unwrap();
        let self_sub = publisher.subscribe(TypeDescription::from_def(&def));
        quotes
            .publish_with(|e| {
                e.set("symbol", "SELF")?;
                Ok(())
            })
            .unwrap();
        tps.run().unwrap();
        assert!(self_sub.drain().is_empty());
    }

    #[test]
    fn empty_assembly_cannot_back_a_publisher() {
        let tps = group();
        let member = tps.add_member();
        let err = member
            .publisher_for(Assembly::builder("empty").build())
            .unwrap_err();
        assert!(err.to_string().contains("no types"), "{err}");
    }

    #[test]
    fn drain_routes_by_subscription_not_arrival_order() {
        // Two interests on one member; events of both types interleaved.
        let tps = group();
        let publisher = tps.add_member();
        let subscriber = tps.add_member();
        let (quote_asm, _) = quote_assembly("pub");
        let quotes = publisher.publisher_for(quote_asm).unwrap();
        let (news_asm, _) = news_assembly("pub");
        let news = publisher.publisher_for(news_asm).unwrap();
        let (_, q_def) = quote_assembly("sub");
        let (_, n_def) = news_assembly("sub");
        let q_sub = subscriber.subscribe(TypeDescription::from_def(&q_def));
        let n_sub = subscriber.subscribe(TypeDescription::from_def(&n_def));

        for i in 0..3 {
            let s = format!("Q{i}");
            quotes
                .publish_with(|e| {
                    e.set("symbol", s.as_str())?;
                    Ok(())
                })
                .unwrap();
            let h = format!("N{i}");
            news.publish_with(|e| {
                e.set("headline", h.as_str())?;
                Ok(())
            })
            .unwrap();
        }
        tps.run().unwrap();
        assert_eq!(q_sub.drain().len(), 3);
        assert_eq!(n_sub.drain().len(), 3);
        assert!(q_sub.drain().is_empty(), "drained once");
    }

    #[test]
    fn drain_keeps_publish_order_and_leaves_other_interests_queued() {
        let tps = group();
        let publisher = tps.add_member();
        let subscriber = tps.add_member();
        let quotes = publisher.publisher_for(quote_assembly("pub").0).unwrap();
        let news = publisher.publisher_for(news_assembly("pub").0).unwrap();
        let q_sub = subscriber.subscribe(TypeDescription::from_def(&quote_assembly("sub").1));
        let n_sub = subscriber.subscribe(TypeDescription::from_def(&news_assembly("sub").1));
        for i in 0..4 {
            let (s, h) = (format!("Q{i}"), format!("N{i}"));
            quotes
                .publish_with(|e| e.set("symbol", s.as_str()).map(drop))
                .unwrap();
            news.publish_with(|e| e.set("headline", h.as_str()).map(drop))
                .unwrap();
        }
        tps.run().unwrap();
        let read = |sub: &Subscription<SimNet>, field: &str| -> Vec<String> {
            sub.drain()
                .iter()
                .map(|ev| {
                    sub.get_field(ev, field)
                        .unwrap()
                        .as_str()
                        .unwrap()
                        .to_string()
                })
                .collect()
        };
        assert_eq!(read(&q_sub, "symbol"), ["Q0", "Q1", "Q2", "Q3"]);
        assert_eq!(read(&n_sub, "headline"), ["N0", "N1", "N2", "N3"]);
    }

    #[test]
    fn publish_with_closure_may_reenter_the_group() {
        // The build closure publishes on a *second* publisher of the same
        // group — this must not deadlock on the group lock.
        let tps = group();
        let publisher = tps.add_member();
        let subscriber = tps.add_member();
        let (quote_asm, _) = quote_assembly("pub");
        let quotes = publisher.publisher_for(quote_asm).unwrap();
        let (news_asm, _) = news_assembly("pub");
        let news = publisher.publisher_for(news_asm).unwrap();
        let (_, q_def) = quote_assembly("sub");
        let (_, n_def) = news_assembly("sub");
        let q_sub = subscriber.subscribe(TypeDescription::from_def(&q_def));
        let n_sub = subscriber.subscribe(TypeDescription::from_def(&n_def));

        quotes
            .publish_with(|e| {
                e.set("symbol", "NESTED")?;
                news.publish_with(|n| {
                    n.set("headline", "from inside another publish")?;
                    Ok(())
                })
            })
            .unwrap();
        tps.run().unwrap();
        assert_eq!(q_sub.drain().len(), 1);
        assert_eq!(n_sub.drain().len(), 1);
    }

    #[test]
    fn same_named_interests_from_different_vendors_stay_separate() {
        // Two subscriptions on one member, both named StockQuote but with
        // different identities; drain must route by identity, not name.
        let tps = group();
        let publisher = tps.add_member();
        let subscriber = tps.add_member();
        let (asm, _) = quote_assembly("pub");
        let quotes = publisher.publisher_for(asm).unwrap();
        let (_, vendor_x) = quote_assembly("vendor-x");
        let (_, vendor_y) = quote_assembly("vendor-y");
        // Subscription order decides the match: vendor-x wins every event.
        let x_sub = subscriber.subscribe(TypeDescription::from_def(&vendor_x));
        let y_sub = subscriber.subscribe(TypeDescription::from_def(&vendor_y));
        quotes
            .publish_with(|e| {
                e.set("symbol", "IDENT")?;
                Ok(())
            })
            .unwrap();
        tps.run().unwrap();
        // The event matched vendor-x's interest; draining vendor-y first
        // must not steal it.
        assert!(y_sub.drain().is_empty(), "same name, different identity");
        let got = x_sub.drain();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].interest_guid, vendor_x.guid);
    }

    #[test]
    fn at_least_once_group_survives_seeded_loss() {
        use pti_net::FaultPlan;
        let tps = TypedPubSub::builder()
            .qos(QoS::AtLeastOnce)
            .credit_window(8)
            .retransmit(2_000, 8)
            .build();
        let publisher = tps.add_member();
        let subscriber = tps.add_member();
        let (asm, _) = quote_assembly("pub");
        let quotes = publisher.publisher_for(asm).unwrap();
        let (_, sub_def) = quote_assembly("sub");
        let sub = subscriber.subscribe(TypeDescription::from_def(&sub_def));

        // Warm up the desc/asm exchange losslessly, then turn on loss:
        // only the reliable OBJECT path is repaired by retransmission.
        quotes
            .publish_with(|e| {
                e.set("symbol", "WARM")?;
                Ok(())
            })
            .unwrap();
        tps.run_durable().unwrap();
        assert_eq!(sub.drain().len(), 1);

        tps.with_swarm(|s| {
            s.net_mut()
                .install_fault_plan(FaultPlan::new(11).with_loss(100))
        });
        for i in 0..20 {
            let symbol = format!("L{i}");
            quotes
                .publish_with(|e| {
                    e.set("symbol", symbol.as_str())?;
                    Ok(())
                })
                .unwrap();
            tps.run().unwrap();
        }
        tps.run_durable().unwrap();

        assert_eq!(sub.drain().len(), 20, "100% delivery despite loss");
        assert!(tps.take_dispatch_errors().is_empty());
        let st = tps.delivery_stats();
        assert_eq!(st.delivered, 21, "each event surfaced exactly once");
        assert!(st.max_inflight <= 8, "credit window bounds queue depth");
        assert!(tps.metrics().faults_dropped > 0, "the plan did drop frames");
    }

    #[test]
    fn a_detached_member_releases_its_ring_and_its_id() {
        use pti_net::{NetError, Payload};
        let tps = group();
        let publisher = tps.add_member();
        let leaver = tps.add_member();
        let (asm, _) = quote_assembly("pub");
        let quotes = publisher.publisher_for(asm).unwrap();
        let (_, sub_def) = quote_assembly("sub");
        let interest = TypeDescription::from_def(&sub_def);
        leaver.subscribe(interest.clone());
        tps.run().unwrap();

        let gone = leaver.id();
        assert_eq!(tps.detach_member(gone), vec![interest.clone()]);
        let (registered, send) = tps.with_swarm(|s| {
            let registered = s.net().registered_peers();
            let send = s
                .net_mut()
                .send(publisher.id(), gone, "object", Payload::empty());
            (registered, send)
        });
        assert_eq!(registered, vec![publisher.id()], "the ring is gone");
        assert_eq!(send, Err(NetError::UnknownPeer(gone)));

        // The id can rejoin the same group, and events reach it again.
        let back = tps.add_member_as(gone);
        let sub = back.subscribe(interest);
        quotes
            .publish_with(|e| {
                e.set("symbol", "BACK")?;
                Ok(())
            })
            .unwrap();
        tps.run().unwrap();
        assert_eq!(sub.drain().len(), 1);
    }

    #[test]
    fn for_each_and_get_field() {
        let tps = TypedPubSub::builder()
            .payload_format(PayloadFormat::Soap)
            .build();
        let publisher = tps.add_member();
        let subscriber = tps.add_member();
        let (asm, _) = quote_assembly("pub");
        let quotes = publisher.publisher_for(asm).unwrap();
        let (_, sub_def) = quote_assembly("sub");
        let sub = subscriber.subscribe(TypeDescription::from_def(&sub_def));
        quotes
            .publish_with(|e| {
                e.set("symbol", "FLD")?.set("price", 9.5)?;
                Ok(())
            })
            .unwrap();
        tps.run().unwrap();
        let mut seen = 0;
        sub.for_each(|ev| {
            seen += 1;
            assert_eq!(sub.get_field(ev, "price").unwrap().as_f64().unwrap(), 9.5);
        });
        assert_eq!(seen, 1);
    }
}
