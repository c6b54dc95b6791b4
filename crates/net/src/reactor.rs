//! The virtual-time fabric: one deterministic, readiness-driven core
//! that serves a single protocol driver and a host running thousands of
//! swarms on one thread alike.
//!
//! Every endpoint has an inbound ring, every ring belongs to a
//! **session** (one swarm's worth of endpoints), and a send marks the
//! destination's session ready on a wakeup queue. A host (see
//! `pti-transport`'s `ReactorHost`) pops ready sessions and pumps only
//! those, with a fairness budget per wakeup, so idle swarms cost
//! nothing — no polling, no per-endpoint thread. A standalone swarm, or
//! several swarms taking turns on clones of one handle, simply use the
//! root session [`ReactorNet::new`] returns.
//!
//! **Link model.** Every send is stamped with a `deliver_at` from the
//! fabric's [`NetConfig`]: `latency` plus `size/bandwidth` transmission
//! time, where a `(from, to)` link transmits one message at a time, so
//! bursts queue behind each other. Each ring stays ordered by
//! `(deliver_at, push order)`, and a receive pops its front and moves
//! the clock to that message's `deliver_at`. [`NetConfig::ideal`] has
//! no link model: every message is due the instant it is sent, so a
//! receive never moves the clock — the configuration `ReactorHost`
//! uses, where time moves only through
//! [`advance_clock_to`](ReactorNet::advance_clock_to), which a durable
//! driver calls to reach its next retransmit deadline. The fabric keeps
//! no timers of its own.
//!
//! The fabric is single-threaded by design (`Rc`, hence `!Send`) and
//! fully deterministic: the same script of sends produces the same
//! delivery order, clock values and fault draws, which is what lets
//! `tests/transport_parity.rs` pin identical protocol decisions across
//! link models and hosts. Reactors on separate threads (the shards of
//! `pti-transport`'s `ShardedHost`, the only place threads run) link up
//! through [`BridgeLink`](crate::BridgeLink) proxies.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use crate::bridge::BridgeTx;
use crate::fault::{FaultDecision, FaultPlan};
use crate::metrics::NetMetrics;
use crate::payload::Payload;
use crate::sim::{Message, NetConfig, NetError, PeerId};
use crate::transport::{BusMessage, Transport};

/// One session on a reactor: the unit of readiness and scheduling. Each
/// swarm mounted on the fabric gets its own session; all endpoints the
/// swarm registers belong to it, and a message for any of them marks the
/// whole session ready.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u32);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "session-{}", self.0)
    }
}

/// Scheduling counters of a reactor — the event loop's own accounting,
/// separate from the traffic counters in [`NetMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReactorStats {
    /// Messages accepted by the fabric.
    pub sends: u64,
    /// Messages popped from inbound rings.
    pub recvs: u64,
    /// Sessions popped from the ready queue (host wakeups).
    pub wakeups: u64,
}

/// Scheduling state of one session; the core keeps one per session id
/// ever handed out, indexed by the id.
#[derive(Debug, Clone, Copy, Default)]
struct SessionState {
    /// Undelivered messages for its endpoints (sum of their rings'
    /// lengths).
    backlog: usize,
    /// Whether it sits on the ready queue — at most one entry each.
    enqueued: bool,
    /// Whether its queue entry is an *explicit* signal (a host mark, or
    /// outbound frames noted by the session's own swarm) rather
    /// than inbound traffic. Explicit signals always wake; traffic
    /// signals are skipped once the ring is already dry — the
    /// burst-coalescing rule that keeps traffic a pump already drained
    /// (it arrived while the session was queued or being pumped) from
    /// turning into a pile of idle wakeups.
    explicit: bool,
}

/// A local endpoint: the session that owns it and its inbound ring, kept
/// in `(deliver_at, push order)` order.
#[derive(Debug)]
struct Mailbox {
    session: SessionId,
    ring: VecDeque<Message>,
}

#[derive(Debug)]
struct Core {
    /// The link model every send is stamped with.
    config: NetConfig,
    /// When each `(from, to)` link finishes its last transmission.
    link_free: HashMap<(PeerId, PeerId), u64>,
    /// Endpoints with a ring on this fabric.
    mailboxes: HashMap<PeerId, Mailbox>,
    /// Peers owned by *another shard*: sends to them forward over the
    /// bridge to the shard that owns their ring.
    proxies: HashMap<PeerId, BridgeTx>,
    /// Every session handed out so far, indexed by id (the root is 0).
    sessions: Vec<SessionState>,
    /// The wakeup queue: sessions with work, in readiness order.
    ready: VecDeque<SessionId>,
    now_us: u64,
    metrics: NetMetrics,
    stats: ReactorStats,
    fault: Option<FaultPlan>,
}

impl Core {
    fn state(&mut self, session: SessionId) -> Option<&mut SessionState> {
        self.sessions.get_mut(session.0 as usize)
    }

    fn mark_ready(&mut self, session: SessionId) {
        let Some(state) = self.state(session) else {
            return;
        };
        if !state.enqueued {
            state.enqueued = true;
            // pti-allow(unbounded-queue): deduplicated by `enqueued`, so at most one entry per session
            self.ready.push_back(session);
        }
    }

    /// An explicit signal: enqueue and remember that this wakeup must
    /// fire even if the session has no backlog when popped.
    fn mark_ready_explicit(&mut self, session: SessionId) {
        if let Some(state) = self.state(session) {
            state.explicit = true;
        }
        self.mark_ready(session);
    }

    /// The one send path. Stamps the link model, lets the fault plan
    /// adjudicate, hands the surviving copies to the destination's
    /// bridge or ring, and records the traffic and the fault outcome
    /// only once the send is accepted: a send that fails (a closed
    /// bridge) leaves no trace in the counters. A dropped message is still
    /// recorded — the bytes hit the wire and occupied the link, they
    /// just never arrive.
    fn send(
        &mut self,
        from: PeerId,
        to: PeerId,
        kind: &'static str,
        payload: Payload,
    ) -> Result<(), NetError> {
        // A peer without a local ring is reached over its shard's bridge.
        let bridge = if self.mailboxes.contains_key(&to) {
            None
        } else {
            Some(self.proxies.get(&to).ok_or(NetError::UnknownPeer(to))?)
        };
        let size = payload.len();
        let tx_us = self.config.tx_us(size);
        let link = self.link_free.entry((from, to)).or_insert(0);
        let start = self.now_us.max(*link);
        *link = start + tx_us;
        let decision = match self.fault.as_mut() {
            Some(plan) => plan.decide(from, to),
            None => FaultDecision::Deliver,
        };
        let copies = match decision {
            FaultDecision::Deliver => 1,
            FaultDecision::Duplicate => 2,
            FaultDecision::Drop | FaultDecision::Partitioned => 0,
        };
        // The send is recorded here (origin-side accounting); the owning
        // shard injects it without re-counting.
        if let Some(bridge) = bridge.filter(|_| copies > 0) {
            let msg = BusMessage {
                from,
                to,
                kind,
                payload: payload.clone(),
            };
            for _ in 0..copies {
                bridge.send(msg.clone())?;
            }
            self.metrics.record_bridge_crossing(size);
        }
        self.metrics.record_send(from, to, kind, &payload);
        self.metrics.record_fault(decision);
        if bridge.is_none() && copies > 0 {
            let msg = Message {
                from,
                to,
                kind,
                payload,
                sent_at: self.now_us,
                deliver_at: start + self.config.latency_us + tx_us,
            };
            self.enqueue(msg, copies);
        }
        self.stats.sends += 1;
        Ok(())
    }

    /// Queues `copies` of `msg` on its destination's ring and signals the
    /// owning session. Each copy goes in after every queued message due
    /// no later than it — a stable insert from the back, so in-order
    /// traffic (all of it under [`NetConfig::ideal`]) is a plain append.
    /// Rings model the network; the delivery layer bounds senders via
    /// credit. Returns `false` when no local endpoint owns `msg.to`.
    fn enqueue(&mut self, msg: Message, copies: usize) -> bool {
        let Some(mailbox) = self.mailboxes.get_mut(&msg.to) else {
            return false;
        };
        let ring = &mut mailbox.ring;
        let at = ring
            .iter()
            .rposition(|m| m.deliver_at <= msg.deliver_at)
            .map_or(0, |i| i + 1);
        for _ in 1..copies {
            ring.insert(at, msg.clone());
        }
        ring.insert(at, msg);
        let session = mailbox.session;
        if let Some(state) = self.state(session) {
            state.backlog += copies;
        }
        self.mark_ready(session);
        true
    }

    /// Pops the front of `peer`'s ring, moving the clock to its delivery
    /// time.
    fn take(&mut self, peer: PeerId) -> Option<Message> {
        let mailbox = self.mailboxes.get_mut(&peer)?;
        let msg = mailbox.ring.pop_front()?;
        let session = mailbox.session;
        if let Some(state) = self.state(session) {
            state.backlog = state.backlog.saturating_sub(1);
        }
        self.now_us = self.now_us.max(msg.deliver_at);
        self.stats.recvs += 1;
        Some(msg)
    }
}

/// A handle onto a shared virtual-time fabric, bound to one
/// [`SessionId`].
///
/// Cloning shares both the fabric *and* the session (the shape a
/// `Swarm` needs: its transport is moved in by value, yet the host — or
/// another swarm taking turns on the same fabric — keeps a handle to it).
/// Fresh sessions come from [`session`](Self::session). The handle is
/// `!Send`: one fabric, one thread — that is the point.
#[derive(Debug)]
pub struct ReactorNet {
    core: Rc<RefCell<Core>>,
    session: SessionId,
    /// Thread the fabric was created on. `Rc` already makes the handle
    /// `!Send`, but an `unsafe impl Send` wrapper (or a future refactor
    /// to `Arc`) would compile and then corrupt the un-synchronized
    /// core; debug builds catch that crossing at the first touch.
    #[cfg(debug_assertions)]
    owner_thread: std::thread::ThreadId,
}

impl Clone for ReactorNet {
    /// Clones share fabric and session; debug builds refuse to mint a
    /// clone from a foreign thread.
    fn clone(&self) -> ReactorNet {
        self.assert_owner_thread();
        ReactorNet {
            core: Rc::clone(&self.core),
            session: self.session,
            #[cfg(debug_assertions)]
            owner_thread: self.owner_thread,
        }
    }
}

impl ReactorNet {
    /// Creates a fresh fabric with the given link model; the returned
    /// handle is the root session (fine for a standalone swarm — a host
    /// allocates one session per mounted swarm via
    /// [`session`](Self::session)).
    pub fn new(config: NetConfig) -> ReactorNet {
        ReactorNet {
            core: Rc::new(RefCell::new(Core {
                config,
                link_free: HashMap::new(),
                mailboxes: HashMap::new(),
                proxies: HashMap::new(),
                sessions: vec![SessionState::default()],
                ready: VecDeque::new(),
                now_us: 0,
                metrics: NetMetrics::default(),
                stats: ReactorStats::default(),
                fault: None,
            })),
            session: SessionId(0),
            #[cfg(debug_assertions)]
            owner_thread: std::thread::current().id(),
        }
    }

    /// Debug-only ownership guard: every handle operation must happen on
    /// the thread that created the fabric. Release builds compile this
    /// to nothing — the `Rc` core already refuses to cross threads in
    /// safe code, so the check only exists to catch unsafe wrappers.
    ///
    /// # Panics
    /// In debug builds, when called from any thread other than the one
    /// that created the fabric.
    #[inline]
    fn assert_owner_thread(&self) {
        #[cfg(debug_assertions)]
        {
            let here = std::thread::current().id();
            assert!(
                here == self.owner_thread,
                "ReactorNet handle touched from {here:?} but its fabric lives on \
                 {:?}; reactor state is single-thread — cross-shard traffic must \
                 ride a BridgeLink",
                self.owner_thread
            );
        }
    }

    /// A new handle onto the same fabric under a fresh session — what a
    /// host hands each swarm it mounts, so their readiness is tracked
    /// independently.
    pub fn session(&self) -> ReactorNet {
        self.assert_owner_thread();
        let mut core = self.core.borrow_mut();
        let id = SessionId(core.sessions.len() as u32);
        core.sessions.push(SessionState::default());
        ReactorNet {
            core: Rc::clone(&self.core),
            session: id,
            #[cfg(debug_assertions)]
            owner_thread: self.owner_thread,
        }
    }

    /// The session this handle registers endpoints under.
    pub fn session_id(&self) -> SessionId {
        self.session
    }

    /// The fabric's virtual clock in microseconds. It moves forward only:
    /// to a received message's delivery time, and by
    /// [`advance_clock_to`](Self::advance_clock_to).
    pub fn now_us(&self) -> u64 {
        self.core.borrow().now_us
    }

    /// Advances the virtual clock to `deadline_us` if it is ahead of the
    /// current time — how a durable-delivery driver reaches its next
    /// retransmit deadline when the fabric is otherwise quiet.
    pub fn advance_clock_to(&self, deadline_us: u64) {
        let mut core = self.core.borrow_mut();
        core.now_us = core.now_us.max(deadline_us);
    }

    /// Installs (or replaces) a seeded fault plan on the whole fabric;
    /// every subsequent send is adjudicated by it. Installing it after
    /// warm-up is the usual way to fault only steady-state traffic.
    pub fn install_fault_plan(&self, plan: FaultPlan) {
        self.core.borrow_mut().fault = Some(plan);
    }

    /// Receives the earliest-deliverable message for `peer`, advancing
    /// the virtual clock to its delivery time. `None` when the ring is
    /// empty or `peer` has no ring here.
    pub fn recv(&mut self, peer: PeerId) -> Option<Message> {
        self.assert_owner_thread();
        self.core.borrow_mut().take(peer)
    }

    /// Number of undelivered messages queued for `peer`.
    pub fn pending(&self, peer: PeerId) -> usize {
        self.core
            .borrow()
            .mailboxes
            .get(&peer)
            .map_or(0, |e| e.ring.len())
    }

    /// A snapshot of the fabric-wide traffic counters.
    pub fn metrics(&self) -> NetMetrics {
        self.core.borrow().metrics.clone()
    }

    /// Scheduling counters (sends, receives, wakeups).
    pub fn stats(&self) -> ReactorStats {
        self.core.borrow().stats
    }

    /// Undelivered messages queued for `session`'s endpoints.
    pub fn backlog(&self, session: SessionId) -> usize {
        self.core
            .borrow()
            .sessions
            .get(session.0 as usize)
            .map_or(0, |s| s.backlog)
    }

    /// Pops the next ready session off the wakeup queue. The session's
    /// queue slot is released before the host pumps it, so traffic
    /// arriving *during* the pump re-enqueues it at the back — that plus
    /// the host's per-wakeup budget is the fairness guarantee.
    ///
    /// A queued **traffic** signal whose ring was already drained (a
    /// burst absorbed by an earlier pump of the same session) is *stale*:
    /// it is discarded without counting a wakeup, so a 1k-session burst
    /// costs each session at most one real wakeup. **Explicit** signals
    /// ([`mark_ready`](Self::mark_ready),
    /// [`note_outbound`](Transport::note_outbound)) always wake — a
    /// marked session expects its turn even with an empty ring.
    pub fn next_ready(&self) -> Option<SessionId> {
        self.assert_owner_thread();
        let mut core = self.core.borrow_mut();
        loop {
            let session = core.ready.pop_front()?;
            let Some(state) = core.state(session) else {
                continue;
            };
            state.enqueued = false;
            let explicit = std::mem::take(&mut state.explicit);
            if explicit || state.backlog > 0 {
                core.stats.wakeups += 1;
                return Some(session);
            }
        }
    }

    /// Whether any session is on the wakeup queue.
    pub fn has_ready(&self) -> bool {
        !self.core.borrow().ready.is_empty()
    }

    /// Re-enqueues a session that still has backlog (or that the caller
    /// wants revisited). Duplicate marks are coalesced. This is an
    /// *explicit* signal: the wakeup fires even if the session's rings
    /// are empty by then (unlike a traffic signal — see
    /// [`next_ready`](Self::next_ready)).
    pub fn mark_ready(&self, session: SessionId) {
        self.core.borrow_mut().mark_ready_explicit(session);
    }

    /// Registers `peer` as a **remote-shard proxy**: sends to it succeed
    /// locally (metrics recorded on this shard) and forward over
    /// `bridge` to the shard that owns the peer's ring. Re-registering
    /// replaces the bridge (the peer migrated).
    ///
    /// # Panics
    /// If `peer` owns a *local* ring — a shard directory bug: the same
    /// id cannot be both local and remote.
    pub fn register_proxy(&self, peer: PeerId, bridge: BridgeTx) {
        let mut core = self.core.borrow_mut();
        assert!(
            !core.mailboxes.contains_key(&peer),
            "{peer} is registered locally on this shard; it cannot also be a remote proxy"
        );
        core.proxies.insert(peer, bridge);
    }

    /// Removes a remote-shard proxy (the peer departed or migrated).
    /// Unknown ids are a no-op.
    pub fn unregister_proxy(&self, peer: PeerId) {
        self.core.borrow_mut().proxies.remove(&peer);
    }

    /// Whether `peer` currently resolves to a remote-shard proxy.
    pub fn is_proxy(&self, peer: PeerId) -> bool {
        self.core.borrow().proxies.contains_key(&peer)
    }

    /// Delivers a message that arrived over a bridge into the owning
    /// ring, due now, exactly as a local send would (backlog, readiness
    /// signal) — but *without* re-recording traffic metrics: the origin
    /// shard already counted the send. Returns `false` when no local
    /// ring owns `msg.to` (the peer unmounted mid-flight; the message is
    /// dropped).
    pub fn inject(&self, msg: BusMessage) -> bool {
        let mut core = self.core.borrow_mut();
        let now = core.now_us;
        let msg = Message {
            from: msg.from,
            to: msg.to,
            kind: msg.kind,
            payload: msg.payload,
            sent_at: now,
            deliver_at: now,
        };
        core.enqueue(msg, 1)
    }

    /// Tears down `peer`'s endpoint regardless of which session owns it:
    /// the ring is dropped (its undelivered messages are discarded and
    /// returned as a count) and the owning session's backlog shrinks to
    /// match. The host-side half of unmounting a swarm.
    pub fn unregister(&self, peer: PeerId) -> usize {
        let mut core = self.core.borrow_mut();
        let Some(mailbox) = core.mailboxes.remove(&peer) else {
            return 0;
        };
        let dropped = mailbox.ring.len();
        if let Some(state) = core.state(mailbox.session) {
            state.backlog = state.backlog.saturating_sub(dropped);
        }
        dropped
    }

    /// Releases a whole session: its backlog entry and any pending
    /// signals go away (queued entries are skipped lazily by
    /// [`next_ready`](Self::next_ready)). Endpoints must already be
    /// [`unregister`](Self::unregister)ed.
    pub fn release_session(&self, session: SessionId) {
        if let Some(state) = self.core.borrow_mut().state(session) {
            state.backlog = 0;
            state.explicit = false;
        }
    }

    /// Every peer with a *local* ring on this fabric, sorted by id —
    /// what a shard directory diffs after a mutation to learn which
    /// peers appeared or vanished (proxies are not included).
    pub fn registered_peers(&self) -> Vec<PeerId> {
        let core = self.core.borrow();
        let mut peers: Vec<PeerId> = core.mailboxes.keys().copied().collect();
        peers.sort_unstable();
        peers
    }
}

impl Transport for ReactorNet {
    /// Creates `peer`'s inbound ring under this handle's session.
    /// Re-registering within the same session is a no-op.
    ///
    /// # Panics
    /// If the id is already registered under *another* session of this
    /// fabric — silently rebinding would hijack the other swarm's
    /// traffic. Give each swarm on a shared fabric its own ids (see
    /// `Swarm::add_peer_as`).
    fn register(&mut self, peer: PeerId) {
        self.assert_owner_thread();
        let mut core = self.core.borrow_mut();
        match core.mailboxes.get(&peer) {
            Some(e) if e.session == self.session => return,
            // pti-allow(panic-policy): peer-id collision across sessions is a wiring bug; rebinding would hijack the other swarm's traffic
            Some(_) => panic!("{peer} is already registered on this reactor fabric"),
            None => {}
        }
        assert!(
            !core.proxies.contains_key(&peer),
            "{peer} is already registered on another shard of this fabric"
        );
        let mailbox = Mailbox {
            session: self.session,
            ring: VecDeque::new(),
        };
        core.mailboxes.insert(peer, mailbox);
    }

    /// Drops `peer`'s ring only when this handle's session owns it, so
    /// a swarm going away can never tear down a ring another session
    /// re-registered under the same id. Tolerates a borrowed core (it
    /// runs from `Swarm`'s `Drop`, possibly while unwinding) by doing
    /// nothing.
    fn unregister(&mut self, peer: PeerId) {
        let owned = self.core.try_borrow().is_ok_and(|core| {
            core.mailboxes
                .get(&peer)
                .is_some_and(|m| m.session == self.session)
        });
        if owned {
            ReactorNet::unregister(self, peer);
        }
    }

    fn send(
        &mut self,
        from: PeerId,
        to: PeerId,
        kind: &'static str,
        payload: Payload,
    ) -> Result<(), NetError> {
        self.assert_owner_thread();
        self.core.borrow_mut().send(from, to, kind, payload)
    }

    fn try_recv(&mut self, peer: PeerId) -> Option<BusMessage> {
        self.assert_owner_thread();
        let msg = self.core.borrow_mut().take(peer);
        msg.map(|m| BusMessage {
            from: m.from,
            to: m.to,
            kind: m.kind,
            payload: m.payload,
        })
    }

    fn metrics(&self) -> NetMetrics {
        ReactorNet::metrics(self)
    }

    fn reset_metrics(&mut self) {
        self.core.borrow_mut().metrics.reset();
    }

    fn record_payload_encode(&mut self) {
        self.core.borrow_mut().metrics.record_payload_encode();
    }

    /// An explicit mark of this handle's own session: frames queued
    /// outside a pump need one turn to ship even though no inbound
    /// traffic will wake the session.
    fn note_outbound(&mut self) {
        self.assert_owner_thread();
        self.core.borrow_mut().mark_ready_explicit(self.session);
    }

    fn now_us(&self) -> u64 {
        ReactorNet::now_us(self)
    }

    fn install_fault_plan(&mut self, plan: FaultPlan) {
        ReactorNet::install_fault_plan(self, plan);
    }

    fn advance_virtual_time(&mut self, deadline_us: u64) {
        self.advance_clock_to(deadline_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{kinds, FrameBatch};

    #[test]
    fn implements_the_transport_contract() {
        let mut t = ReactorNet::new(NetConfig::ideal());
        t.register(PeerId(1));
        t.register(PeerId(2));
        t.send(PeerId(1), PeerId(2), "k", vec![7].into()).unwrap();
        assert_eq!(
            t.send(PeerId(1), PeerId(9), "k", Payload::empty()),
            Err(NetError::UnknownPeer(PeerId(9)))
        );
        let m = t.try_recv(PeerId(2)).expect("queued message");
        assert_eq!(m.from, PeerId(1));
        assert_eq!(m.kind, "k");
        assert_eq!(m.payload, vec![7]);
        assert!(t.try_recv(PeerId(2)).is_none());
        assert_eq!(
            Transport::metrics(&t).messages,
            1,
            "failed send not recorded"
        );
        t.reset_metrics();
        assert_eq!(Transport::metrics(&t).messages, 0);
    }

    #[test]
    fn sends_mark_owning_sessions_ready_in_order_without_duplicates() {
        let hub = ReactorNet::new(NetConfig::ideal());
        let mut a = hub.session();
        let mut b = hub.session();
        a.register(PeerId(1));
        b.register(PeerId(2));
        assert!(hub.next_ready().is_none());
        a.send(PeerId(1), PeerId(2), "k", vec![1].into()).unwrap();
        b.send(PeerId(2), PeerId(1), "k", vec![2].into()).unwrap();
        a.send(PeerId(1), PeerId(2), "k", vec![3].into()).unwrap();
        // b's session became ready first... no wait: a's first send marks
        // b's session, then b's send marks a's, and the repeat coalesces.
        assert_eq!(hub.next_ready(), Some(b.session_id()));
        assert_eq!(hub.next_ready(), Some(a.session_id()));
        assert_eq!(hub.next_ready(), None);
        assert_eq!(hub.backlog(b.session_id()), 2);
        // Draining decrements the backlog; re-marking re-queues once.
        let _ = b.try_recv(PeerId(2)).unwrap();
        assert_eq!(hub.backlog(b.session_id()), 1);
        hub.mark_ready(b.session_id());
        hub.mark_ready(b.session_id());
        assert_eq!(hub.next_ready(), Some(b.session_id()));
        assert_eq!(hub.next_ready(), None);
        assert_eq!(hub.stats().sends, 3);
        assert_eq!(hub.stats().recvs, 1);
        assert_eq!(hub.stats().wakeups, 3);
    }

    #[test]
    fn a_drained_burst_does_not_resignal_its_session() {
        let hub = ReactorNet::new(NetConfig::ideal());
        let mut a = hub.session();
        let mut b = hub.session();
        a.register(PeerId(1));
        b.register(PeerId(2));
        // A three-message burst to one session: the traffic signal
        // coalesces to a single queue entry...
        for i in 0..3u8 {
            a.send(PeerId(1), PeerId(2), "k", vec![i].into()).unwrap();
        }
        // ...and when the ring is drained outside a wakeup (an earlier
        // pump of the same session absorbed the burst), the queued entry
        // is stale: popping it must not produce an idle wakeup.
        while b.try_recv(PeerId(2)).is_some() {}
        assert_eq!(hub.next_ready(), None, "stale traffic signal skipped");
        assert_eq!(hub.stats().wakeups, 0, "no wakeup for a drained burst");
        // Explicit marks still fire on an empty ring — host re-marks
        // (a durable driver's retransmit round) depend on that.
        hub.mark_ready(b.session_id());
        assert_eq!(hub.next_ready(), Some(b.session_id()));
        assert_eq!(hub.stats().wakeups, 1);
        // A partially-drained burst is a *live* signal: backlog remains,
        // so the wakeup fires.
        for i in 0..2u8 {
            a.send(PeerId(1), PeerId(2), "k", vec![i].into()).unwrap();
        }
        let _ = b.try_recv(PeerId(2)).unwrap();
        assert_eq!(hub.next_ready(), Some(b.session_id()));
        assert_eq!(hub.stats().wakeups, 2);
    }

    #[test]
    fn proxied_sends_cross_the_bridge_with_origin_side_accounting() {
        use crate::bridge::BridgeLink;

        let origin = ReactorNet::new(NetConfig::ideal());
        let remote = ReactorNet::new(NetConfig::ideal());
        let mut o = origin.session();
        let mut r = remote.session();
        o.register(PeerId(1));
        r.register(PeerId(9));
        let (tx, rx) = BridgeLink::pair();
        origin.register_proxy(PeerId(9), tx.clone());
        assert!(origin.is_proxy(PeerId(9)));

        o.send(PeerId(1), PeerId(9), "object", vec![1, 2, 3].into())
            .unwrap();
        // Origin shard: send recorded locally, bridge counters ticked.
        let m = Transport::metrics(&o);
        assert_eq!(m.kind("object").messages, 1);
        assert_eq!((m.bridge_crossings, m.bridge_bytes), (1, 3));
        assert_eq!(origin.stats().sends, 1);
        assert_eq!(tx.pending(), 1);

        // Owning shard: inject delivers into the ring and marks the
        // session ready, without double-counting the traffic.
        let msg = rx.try_drain().unwrap();
        assert!(remote.inject(msg));
        assert_eq!(remote.backlog(r.session_id()), 1);
        assert_eq!(remote.next_ready(), Some(r.session_id()));
        assert_eq!(r.try_recv(PeerId(9)).unwrap().payload, vec![1, 2, 3]);
        assert_eq!(Transport::metrics(&r).messages, 0, "no origin recount");
        assert_eq!(remote.stats().recvs, 1);

        // An inject for an unmounted peer is dropped, not misdelivered.
        o.send(PeerId(1), PeerId(9), "object", vec![4].into())
            .unwrap();
        assert_eq!(remote.unregister(PeerId(9)), 0);
        assert!(!remote.inject(rx.try_drain().unwrap()));
        remote.release_session(r.session_id());
        assert_eq!(remote.backlog(r.session_id()), 0);
    }

    #[test]
    fn a_send_the_bridge_refuses_records_no_traffic_and_no_fault() {
        use crate::bridge::BridgeLink;

        let origin = ReactorNet::new(NetConfig::ideal());
        let mut o = origin.session();
        o.register(PeerId(1));
        let (tx, rx) = BridgeLink::pair();
        origin.register_proxy(PeerId(9), tx);
        drop(rx);
        o.install_fault_plan(FaultPlan::new(1).with_duplication(1000));
        assert_eq!(
            o.send(PeerId(1), PeerId(9), "object", vec![1].into()),
            Err(NetError::UnknownPeer(PeerId(9))),
            "a closed bridge refuses the send"
        );
        let m = Transport::metrics(&o);
        assert_eq!(m.messages, 0, "a failed send is not traffic");
        assert_eq!(m.faults_duplicated, 0, "nor is its fault outcome");
        assert_eq!(m.bridge_crossings, 0);
        assert_eq!(origin.stats().sends, 0);
    }

    #[test]
    #[should_panic(expected = "already registered on another shard")]
    fn proxy_collision_panics_instead_of_shadowing_a_remote_peer() {
        let hub = ReactorNet::new(NetConfig::ideal());
        let (tx, _rx) = crate::bridge::BridgeLink::pair();
        hub.register_proxy(PeerId(7), tx);
        let mut s = hub.session();
        s.register(PeerId(7));
    }

    #[test]
    fn unregister_drops_the_ring_and_shrinks_the_backlog() {
        let hub = ReactorNet::new(NetConfig::ideal());
        let mut a = hub.session();
        let mut b = hub.session();
        a.register(PeerId(1));
        b.register(PeerId(2));
        b.register(PeerId(3));
        a.send(PeerId(1), PeerId(2), "k", vec![1].into()).unwrap();
        a.send(PeerId(1), PeerId(2), "k", vec![2].into()).unwrap();
        a.send(PeerId(1), PeerId(3), "k", vec![3].into()).unwrap();
        assert_eq!(hub.backlog(b.session_id()), 3);
        assert_eq!(hub.unregister(PeerId(2)), 2, "two undelivered dropped");
        assert_eq!(hub.backlog(b.session_id()), 1);
        assert_eq!(
            a.send(PeerId(1), PeerId(2), "k", vec![4].into()),
            Err(NetError::UnknownPeer(PeerId(2))),
            "the endpoint is gone"
        );
        // The surviving endpoint still delivers.
        assert_eq!(b.try_recv(PeerId(3)).unwrap().payload, vec![3]);
        assert_eq!(hub.unregister(PeerId(2)), 0, "double unregister no-op");
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn cross_session_id_collision_panics_instead_of_hijacking() {
        let hub = ReactorNet::new(NetConfig::ideal());
        let mut a = hub.session();
        let mut b = hub.session();
        a.register(PeerId(1));
        b.register(PeerId(1));
    }

    /// The ownership guard only exists in debug builds, and the only way
    /// to get a handle across a thread at all is to lie about `Send` —
    /// exactly the wrapper a buggy refactor might introduce.
    #[test]
    #[should_panic(expected = "reactor state is single-thread")]
    #[cfg(debug_assertions)]
    fn a_handle_smuggled_across_a_thread_panics_in_debug_builds() {
        #[allow(unsafe_code)]
        mod smuggle {
            pub(super) struct ForceSend<T>(pub(super) T);
            // SAFETY: deliberately unsound — this test exists to prove
            // the debug guard catches exactly this lie.
            unsafe impl<T> Send for ForceSend<T> {}
        }
        let hub = ReactorNet::new(NetConfig::ideal());
        let contraband = smuggle::ForceSend(hub.clone());
        // pti-allow(thread-confinement): this test proves the ownership guard fires off-thread
        let worker = std::thread::spawn(move || {
            let smuggled = contraband;
            let _clone = smuggled.0.clone(); // guard fires here
        });
        let payload = worker.join().expect_err("guard must have fired");
        std::panic::resume_unwind(payload);
    }

    #[test]
    fn clone_keeps_the_session_fresh_sessions_are_distinct() {
        let hub = ReactorNet::new(NetConfig::ideal());
        let a = hub.session();
        assert_eq!(a.clone().session_id(), a.session_id());
        assert_ne!(hub.session().session_id(), a.session_id());
        assert_ne!(hub.session_id(), a.session_id());
    }

    #[test]
    fn fault_plan_is_honoured_on_the_local_path() {
        let mut t = ReactorNet::new(NetConfig::ideal());
        t.register(PeerId(1));
        t.register(PeerId(2));
        t.install_fault_plan(FaultPlan::new(1).with_loss(1000));
        t.send(PeerId(1), PeerId(2), "k", vec![1].into()).unwrap();
        assert!(t.try_recv(PeerId(2)).is_none(), "dropped before the ring");
        let m = Transport::metrics(&t);
        assert_eq!(m.faults_dropped, 1);
        assert_eq!(m.messages, 1, "the send itself is accounted");
        t.install_fault_plan(FaultPlan::new(1).with_duplication(1000));
        t.send(PeerId(1), PeerId(2), "k", vec![2].into()).unwrap();
        assert_eq!(t.try_recv(PeerId(2)).unwrap().payload, vec![2]);
        assert_eq!(t.try_recv(PeerId(2)).unwrap().payload, vec![2]);
        assert_eq!(Transport::metrics(&t).faults_duplicated, 1);
        assert_eq!(
            t.send(PeerId(1), PeerId(9), "k", Payload::empty()),
            Err(NetError::UnknownPeer(PeerId(9))),
            "unknown peers are rejected before adjudication"
        );
    }

    #[test]
    fn batch_messages_count_frames_like_the_other_fabrics() {
        let mut t = ReactorNet::new(NetConfig::ideal());
        t.register(PeerId(1));
        t.register(PeerId(2));
        let mut batch = FrameBatch::new();
        batch.push("object", vec![1, 2, 3]);
        batch.push("subscribe", vec![4]);
        t.send(PeerId(1), PeerId(2), kinds::BATCH, batch.encode().into())
            .unwrap();
        let m = Transport::metrics(&t);
        assert_eq!(m.batches(), 1);
        assert_eq!(m.batched_frames(), 2);
        assert_eq!(m.link(PeerId(1), PeerId(2)).frames, 2);
        assert_eq!(m.batched_kind("object").bytes, 3);
        assert_eq!(m.batched_kind("subscribe").bytes, 1);
    }
}
