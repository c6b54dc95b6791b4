//! The reactor fabric: a hand-rolled, readiness-driven event core that
//! lets one thread drive thousands of swarms.
//!
//! [`LiveBus`](crate::LiveBus) scales by threads — every driver parks in
//! `recv_deadline` sleeps, so a box tops out at hundreds of members. The
//! [`ReactorNet`] keeps the same [`Transport`] contract but replaces
//! blocking with *readiness*: every endpoint has an inbound ring, every
//! ring belongs to a **session** (one swarm's worth of endpoints), and a
//! send marks the destination's session ready on a wakeup queue. A host
//! (see `pti-transport`'s `ReactorHost`) pops ready sessions and pumps
//! only those, with a fairness budget per wakeup, so idle swarms cost
//! nothing — no polling, no per-endpoint thread.
//!
//! Deadlines are served by a hashed **timer wheel** in virtual time:
//! when no session is ready, the loop jumps the clock straight to the
//! next timer deadline and fires it (idle *parking*, never a busy-wait
//! or an OS sleep). Like [`SharedSimNet`](crate::SharedSimNet), the
//! fabric is single-threaded by design (`Rc`, hence `!Send`) and fully
//! deterministic: the same script of sends produces the same wakeup
//! order, which is what lets `tests/transport_parity.rs` pin identical
//! protocol decisions across all three fabrics.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::Rc;

use crate::bridge::BridgeTx;
use crate::bus::BusMessage;
use crate::fault::{FaultDecision, FaultPlan};
use crate::frame::{kinds, FrameBatch};
use crate::metrics::NetMetrics;
use crate::payload::Payload;
use crate::sim::{NetError, PeerId};
use crate::transport::Transport;

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
    /// Timers fired by the wheel.
    pub timer_fires: u64,
    /// Idle clock jumps straight to the next timer deadline — each one
    /// replaces what a polling loop would spend spinning.
    pub idle_advances: u64,
}

/// Slots in the timer wheel; deadlines hash in by tick modulo this.
const WHEEL_SLOTS: usize = 256;
/// Virtual microseconds per wheel tick.
const WHEEL_TICK_US: u64 = 1 << 10;

/// A single-level hashed timer wheel over virtual microseconds. Entries
/// keep their absolute deadline, so a slot can hold timers several laps
/// apart: advancing fires only those whose deadline has passed and
/// leaves future laps in place.
#[derive(Debug)]
struct TimerWheel {
    slots: Vec<Vec<(u64, SessionId)>>,
    /// Last tick the wheel was advanced to (slots up to and including it
    /// have been serviced for the current clock value).
    cursor_tick: u64,
    len: usize,
}

impl TimerWheel {
    fn new() -> TimerWheel {
        TimerWheel {
            slots: vec![Vec::new(); WHEEL_SLOTS],
            cursor_tick: 0,
            len: 0,
        }
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn schedule(&mut self, deadline_us: u64, session: SessionId) {
        let slot = ((deadline_us / WHEEL_TICK_US) as usize) % WHEEL_SLOTS;
        // pti-allow(unbounded-queue): one wheel entry per scheduled wake; bounded by live sessions
        self.slots[slot].push((deadline_us, session));
        self.len += 1;
    }

    /// Earliest pending deadline — the parking target when nothing is
    /// ready.
    fn next_deadline(&self) -> Option<u64> {
        self.slots.iter().flatten().map(|&(d, _)| d).min()
    }

    /// Advances the wheel to `now_us`, removing and returning every
    /// timer whose deadline has passed, earliest first.
    fn advance_to(&mut self, now_us: u64) -> Vec<(u64, SessionId)> {
        let target_tick = now_us / WHEEL_TICK_US;
        let mut due = Vec::new();
        if self.len > 0 {
            // Scan each slot the cursor crosses; a jump of a full lap or
            // more visits every slot exactly once.
            let span = (target_tick.saturating_sub(self.cursor_tick) as usize + 1).min(WHEEL_SLOTS);
            for i in 0..span {
                let slot = ((self.cursor_tick + i as u64) as usize) % WHEEL_SLOTS;
                let entries = &mut self.slots[slot];
                let mut k = 0;
                while k < entries.len() {
                    if entries[k].0 <= now_us {
                        due.push(entries.swap_remove(k));
                    } else {
                        k += 1;
                    }
                }
            }
            self.len -= due.len();
            // Deterministic fire order regardless of slot hashing.
            due.sort_unstable();
        }
        self.cursor_tick = self.cursor_tick.max(target_tick);
        due
    }
}

#[derive(Debug)]
struct Core {
    /// Per-endpoint inbound rings.
    rings: HashMap<PeerId, VecDeque<BusMessage>>,
    /// Which session each endpoint belongs to.
    owner: HashMap<PeerId, SessionId>,
    /// Peers owned by *another shard*: sends to them forward over the
    /// bridge to the shard that owns their ring.
    proxies: HashMap<PeerId, BridgeTx>,
    /// Undelivered messages per session (sum of its rings' lengths).
    backlog: HashMap<SessionId, usize>,
    /// The wakeup queue: sessions with work, in readiness order.
    ready: VecDeque<SessionId>,
    /// Guards `ready` against duplicate entries.
    enqueued: HashSet<SessionId>,
    /// Sessions whose queue entry is an *explicit* signal (timer fire,
    /// host mark, or outbound frames noted by the session's own swarm)
    /// rather than inbound traffic. Explicit signals always wake; traffic
    /// signals are skipped once the ring is already dry — the
    /// burst-coalescing rule that keeps traffic a pump already drained
    /// (it arrived while the session was queued or being pumped) from
    /// turning into a pile of idle wakeups.
    explicit: HashSet<SessionId>,
    timers: TimerWheel,
    now_us: u64,
    next_session: u32,
    metrics: NetMetrics,
    stats: ReactorStats,
    fault: Option<FaultPlan>,
}

impl Core {
    fn mark_ready(&mut self, session: SessionId) {
        if self.enqueued.insert(session) {
            // pti-allow(unbounded-queue): deduplicated by `enqueued`, so at most one entry per session
            self.ready.push_back(session);
        }
    }

    /// An explicit signal: enqueue and remember that this wakeup must
    /// fire even if the session has no backlog when popped.
    fn mark_ready_explicit(&mut self, session: SessionId) {
        self.explicit.insert(session);
        self.mark_ready(session);
    }
}

/// A handle onto a shared reactor fabric, bound to one [`SessionId`].
///
/// Cloning shares both the fabric *and* the session (the shape a
/// `Swarm` needs: its transport is moved in by value, yet the host keeps
/// a handle to the same session). Fresh sessions come from
/// [`session`](Self::session). Like [`SharedSimNet`](crate::SharedSimNet)
/// the handle is `!Send`: one reactor, one thread — that is the point.
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

impl Default for ReactorNet {
    fn default() -> ReactorNet {
        ReactorNet::new()
    }
}

impl ReactorNet {
    /// Creates a fresh reactor fabric; the returned handle is the root
    /// session (fine for a standalone swarm — a host allocates one
    /// session per mounted swarm via [`session`](Self::session)).
    pub fn new() -> ReactorNet {
        ReactorNet {
            core: Rc::new(RefCell::new(Core {
                rings: HashMap::new(),
                owner: HashMap::new(),
                proxies: HashMap::new(),
                backlog: HashMap::new(),
                ready: VecDeque::new(),
                enqueued: HashSet::new(),
                explicit: HashSet::new(),
                timers: TimerWheel::new(),
                now_us: 0,
                next_session: 1,
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
        let id = SessionId(core.next_session);
        core.next_session += 1;
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

    /// The reactor's virtual clock, advanced only by idle parking.
    pub fn now_us(&self) -> u64 {
        self.core.borrow().now_us
    }

    /// Scheduling counters (wakeups, timer fires, idle jumps).
    pub fn stats(&self) -> ReactorStats {
        self.core.borrow().stats
    }

    /// Undelivered messages queued for `session`'s endpoints.
    pub fn backlog(&self, session: SessionId) -> usize {
        self.core
            .borrow()
            .backlog
            .get(&session)
            .copied()
            .unwrap_or(0)
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
    /// ([`mark_ready`](Self::mark_ready), timer fires,
    /// [`note_outbound`](Transport::note_outbound)) always wake — a
    /// parked session expects its turn even with an empty ring.
    pub fn next_ready(&self) -> Option<SessionId> {
        self.assert_owner_thread();
        let mut core = self.core.borrow_mut();
        loop {
            let session = core.ready.pop_front()?;
            core.enqueued.remove(&session);
            let explicit = core.explicit.remove(&session);
            let has_backlog = core.backlog.get(&session).is_some_and(|n| *n > 0);
            if explicit || has_backlog {
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

    /// Schedules a wakeup for `session` at `delay_us` of virtual time
    /// from now — the timer-wheel half of `recv_deadline`-style waiting:
    /// instead of blocking, a session parks and the wheel makes it ready
    /// when the clock reaches the deadline.
    pub fn schedule_wake(&self, session: SessionId, delay_us: u64) {
        let mut core = self.core.borrow_mut();
        let deadline = core.now_us.saturating_add(delay_us.max(1));
        core.timers.schedule(deadline, session);
    }

    /// Whether any timer is pending on the wheel.
    pub fn timers_pending(&self) -> bool {
        !self.core.borrow().timers.is_empty()
    }

    /// Idle parking: with nothing ready, jump the clock to the next
    /// timer deadline at or before `deadline_us` and fire every timer
    /// that came due (their sessions join the wakeup queue). Returns
    /// `true` if timers fired; `false` when no timer lies within the
    /// window — the clock then rests at `deadline_us` and the caller's
    /// loop is done waiting. Never spins: one call, one jump.
    pub fn advance_idle_until(&self, deadline_us: u64) -> bool {
        let mut core = self.core.borrow_mut();
        match core.timers.next_deadline() {
            Some(next) if next <= deadline_us => {
                core.now_us = core.now_us.max(next);
                let now = core.now_us;
                let due = core.timers.advance_to(now);
                core.stats.idle_advances += 1;
                core.stats.timer_fires += due.len() as u64;
                for (_, session) in due {
                    core.mark_ready_explicit(session);
                }
                true
            }
            _ => {
                core.now_us = core.now_us.max(deadline_us);
                let now = core.now_us;
                core.timers.advance_to(now);
                false
            }
        }
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
            !core.owner.contains_key(&peer),
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
    /// ring, exactly as a local send would (backlog, readiness signal) —
    /// but *without* re-recording traffic metrics: the origin shard
    /// already counted the send. Returns `false` when no local ring owns
    /// `msg.to` (the peer unmounted mid-flight; the message is dropped).
    pub fn inject(&self, msg: BusMessage) -> bool {
        let mut core = self.core.borrow_mut();
        let Some(owner) = core.owner.get(&msg.to).copied() else {
            return false;
        };
        // pti-allow(unbounded-queue): inbound rings model the network; the delivery layer bounds senders via credit
        core.rings
            .get_mut(&msg.to)
            // pti-allow(panic-policy): owner and rings are mutated together, so an owned peer always has a ring
            .expect("registered peer has a ring")
            .push_back(msg);
        *core.backlog.entry(owner).or_insert(0) += 1;
        core.mark_ready(owner);
        true
    }

    /// Tears down `peer`'s endpoint regardless of which session owns it:
    /// the ring is dropped (its undelivered messages are discarded and
    /// returned as a count) and the owning session's backlog shrinks to
    /// match. The host-side half of unmounting a swarm.
    pub fn unregister(&self, peer: PeerId) -> usize {
        let mut core = self.core.borrow_mut();
        let Some(owner) = core.owner.remove(&peer) else {
            return 0;
        };
        let dropped = core.rings.remove(&peer).map_or(0, |ring| ring.len());
        if let Some(n) = core.backlog.get_mut(&owner) {
            *n = n.saturating_sub(dropped);
        }
        dropped
    }

    /// Releases a whole session: its backlog entry and any pending
    /// signals go away (queued entries are skipped lazily by
    /// [`next_ready`](Self::next_ready)). Endpoints must already be
    /// [`unregister`](Self::unregister)ed.
    pub fn release_session(&self, session: SessionId) {
        let mut core = self.core.borrow_mut();
        core.backlog.remove(&session);
        core.explicit.remove(&session);
    }

    /// Every peer with a *local* ring on this fabric, sorted by id —
    /// what a shard directory diffs after a mutation to learn which
    /// peers appeared or vanished (proxies are not included).
    pub fn registered_peers(&self) -> Vec<PeerId> {
        let core = self.core.borrow();
        let mut peers: Vec<PeerId> = core.owner.keys().copied().collect();
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
    /// traffic (same contract as [`LiveBus`](crate::LiveBus)).
    fn register(&mut self, peer: PeerId) {
        self.assert_owner_thread();
        let mut core = self.core.borrow_mut();
        match core.owner.get(&peer) {
            Some(owner) if *owner == self.session => return,
            // pti-allow(panic-policy): peer-id collision across sessions is a wiring bug, same contract as LiveBus::attach
            Some(_) => panic!("{peer} is already registered on this reactor fabric"),
            None => {}
        }
        assert!(
            !core.proxies.contains_key(&peer),
            "{peer} is already registered on another shard of this fabric"
        );
        core.owner.insert(peer, self.session);
        core.rings.insert(peer, VecDeque::new());
    }

    fn send(
        &mut self,
        from: PeerId,
        to: PeerId,
        kind: &'static str,
        payload: Payload,
    ) -> Result<(), NetError> {
        self.assert_owner_thread();
        let mut core = self.core.borrow_mut();
        let local_owner = core.owner.get(&to).copied();
        if local_owner.is_none() && !core.proxies.contains_key(&to) {
            return Err(NetError::UnknownPeer(to));
        }
        // The fault plan adjudicates before delivery: a dropped message
        // is still accounted as sent (the bytes hit the wire), it just
        // never reaches a ring or the bridge.
        let decision = match core.fault.as_mut() {
            Some(plan) => plan.decide(from, to),
            None => FaultDecision::Deliver,
        };
        core.metrics.record_fault(decision);
        if matches!(decision, FaultDecision::Drop | FaultDecision::Partitioned) {
            let size = payload.len();
            core.metrics.record(kind, size);
            if kind == kinds::BATCH {
                let frames = FrameBatch::peek_count(&payload).unwrap_or(0);
                core.metrics.record_batch(from, to, frames, size);
            }
            core.stats.sends += 1;
            return Ok(());
        }
        let copies = if decision == FaultDecision::Duplicate {
            2
        } else {
            1
        };
        let Some(owner) = local_owner else {
            // No local ring: a remote-shard proxy forwards over its
            // bridge; the send is recorded here (origin-side accounting)
            // and the owning shard injects it without re-counting.
            // pti-allow(panic-policy): proxy membership was checked before adjudicating the fault
            let bridge = core.proxies.get(&to).cloned().expect("checked proxy");
            let size = payload.len();
            let batch_frames =
                (kind == kinds::BATCH).then(|| FrameBatch::peek_count(&payload).unwrap_or(0));
            let msg = BusMessage {
                from,
                to,
                kind,
                payload,
            };
            let mut woke = false;
            for _ in 1..copies {
                woke |= bridge.send(msg.clone())?;
            }
            woke |= bridge.send(msg)?;
            // Recorded only after the bridge accepted it — a failed send
            // stays uncounted, same as the local path.
            core.metrics.record(kind, size);
            if let Some(frames) = batch_frames {
                core.metrics.record_batch(from, to, frames, size);
            }
            core.stats.sends += 1;
            core.metrics.record_bridge_crossing(size, woke);
            return Ok(());
        };
        let size = payload.len();
        core.metrics.record(kind, size);
        if kind == kinds::BATCH {
            let frames = FrameBatch::peek_count(&payload).unwrap_or(0);
            core.metrics.record_batch(from, to, frames, size);
        }
        let msg = BusMessage {
            from,
            to,
            kind,
            payload,
        };
        let ring = core
            .rings
            .get_mut(&to)
            // pti-allow(panic-policy): owner and rings are mutated together, so an owned peer always has a ring
            .expect("registered peer has a ring");
        for _ in 1..copies {
            // pti-allow(unbounded-queue): inbound rings model the network; the delivery layer bounds senders via credit
            ring.push_back(msg.clone());
        }
        // pti-allow(unbounded-queue): inbound rings model the network; the delivery layer bounds senders via credit
        ring.push_back(msg);
        *core.backlog.entry(owner).or_insert(0) += copies;
        core.stats.sends += 1;
        core.mark_ready(owner);
        Ok(())
    }

    fn try_recv(&mut self, peer: PeerId) -> Option<BusMessage> {
        self.assert_owner_thread();
        let mut core = self.core.borrow_mut();
        let msg = core.rings.get_mut(&peer)?.pop_front()?;
        if let Some(owner) = core.owner.get(&peer).copied() {
            if let Some(n) = core.backlog.get_mut(&owner) {
                *n = n.saturating_sub(1);
            }
        }
        core.stats.recvs += 1;
        Some(msg)
    }

    fn metrics(&self) -> NetMetrics {
        self.core.borrow().metrics.clone()
    }

    fn reset_metrics(&mut self) {
        self.core.borrow_mut().metrics.reset();
    }

    fn record_batch_splits(&mut self, from: PeerId, to: PeerId, extra: u64) {
        self.core
            .borrow_mut()
            .metrics
            .record_batch_splits(from, to, extra);
    }

    fn record_batched_frame(&mut self, kind: &'static str, bytes: usize) {
        self.core
            .borrow_mut()
            .metrics
            .record_batched_frame(kind, bytes);
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
        self.core.borrow_mut().fault = Some(plan);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn implements_the_transport_contract() {
        let mut t = ReactorNet::new();
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
        let hub = ReactorNet::new();
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
        let hub = ReactorNet::new();
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
        // Explicit marks still fire on an empty ring — the timer path
        // and host re-marks depend on that.
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

        let origin = ReactorNet::new();
        let remote = ReactorNet::new();
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
    #[should_panic(expected = "already registered on another shard")]
    fn proxy_collision_panics_instead_of_shadowing_a_remote_peer() {
        let hub = ReactorNet::new();
        let (tx, _rx) = crate::bridge::BridgeLink::pair();
        hub.register_proxy(PeerId(7), tx);
        let mut s = hub.session();
        s.register(PeerId(7));
    }

    #[test]
    fn unregister_drops_the_ring_and_shrinks_the_backlog() {
        let hub = ReactorNet::new();
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
        let hub = ReactorNet::new();
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
        let hub = ReactorNet::new();
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
        let hub = ReactorNet::new();
        let a = hub.session();
        assert_eq!(a.clone().session_id(), a.session_id());
        assert_ne!(hub.session().session_id(), a.session_id());
        assert_ne!(hub.session_id(), a.session_id());
    }

    #[test]
    fn idle_parking_jumps_to_deadlines_and_fires_in_order() {
        let hub = ReactorNet::new();
        let a = hub.session();
        let b = hub.session();
        let c = hub.session();
        // Out-of-order scheduling; the wheel fires by deadline.
        hub.schedule_wake(c.session_id(), 50_000);
        hub.schedule_wake(a.session_id(), 10_000);
        hub.schedule_wake(b.session_id(), 30_000);
        let mut fired = Vec::new();
        while hub.advance_idle_until(100_000) {
            while let Some(s) = hub.next_ready() {
                fired.push(s);
            }
        }
        assert_eq!(fired, vec![a.session_id(), b.session_id(), c.session_id()]);
        assert_eq!(hub.now_us(), 100_000, "clock rests at the window end");
        let stats = hub.stats();
        assert_eq!(stats.timer_fires, 3);
        assert_eq!(
            stats.idle_advances, 3,
            "one jump per deadline, never a spin"
        );
        assert!(!hub.timers_pending());
    }

    #[test]
    fn far_future_timers_survive_full_wheel_laps() {
        let hub = ReactorNet::new();
        let a = hub.session();
        let b = hub.session();
        let lap_us = WHEEL_SLOTS as u64 * WHEEL_TICK_US;
        // Same slot, different laps: b's deadline is exactly one lap
        // after a's, so both hash to the same wheel slot.
        hub.schedule_wake(a.session_id(), 5_000);
        hub.schedule_wake(b.session_id(), 5_000 + lap_us);
        assert!(hub.advance_idle_until(u64::MAX));
        assert_eq!(hub.next_ready(), Some(a.session_id()));
        assert_eq!(hub.next_ready(), None, "b's lap has not come");
        assert!(hub.timers_pending());
        assert!(hub.advance_idle_until(u64::MAX));
        assert_eq!(hub.next_ready(), Some(b.session_id()));
        assert_eq!(hub.now_us(), 5_000 + lap_us);
        // A window that ends before the next deadline does not fire it.
        hub.schedule_wake(a.session_id(), 10_000);
        assert!(!hub.advance_idle_until(hub.now_us() + 1_000));
        assert!(hub.timers_pending());
    }

    #[test]
    fn fault_plan_is_honoured_on_the_local_path() {
        let mut t = ReactorNet::new();
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
        let mut t = ReactorNet::new();
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
    }
}
