//! The reactor host: one thread, N swarms, readiness-driven stepping.
//!
//! A [`ReactorHost`] owns many [`Swarm<ReactorNet>`] instances mounted
//! on one shared [`ReactorNet`] fabric and runs a cooperative event
//! loop over them:
//!
//! 1. **Drain** — pop the next ready session off the fabric's wakeup
//!    queue and pump its swarm, at most [`fairness
//!    budget`](ReactorHost::set_fairness_budget) messages per wakeup. A
//!    swarm with leftover backlog goes to the *back* of the queue, so a
//!    chatty swarm round-robins with its neighbours instead of
//!    monopolising the thread.
//! 2. **Stop** — with nothing ready,
//!    [`run_until_quiescent`](ReactorHost::run_until_quiescent) returns.
//!    [`run_durable`](ReactorHost::run_durable) first looks for the
//!    earliest retransmit deadline over the mounted swarms; if there is
//!    one, it moves the virtual clock there, marks the swarms now due
//!    and drains again. There is no busy-wait and no OS sleep anywhere
//!    in the loop.
//!
//! A swarm is pumped only through the wakeup queue, and two things put
//! its session there:
//!
//! - **inbound traffic** — a send to any of its endpoints (bridged
//!   traffic included, once the injector is drained);
//! - **outbound frames queued outside a pump** — a publish made through
//!   a session handle queues frames that only a pump ships, so the swarm
//!   signals it with [`Transport::note_outbound`](pti_net::Transport::note_outbound).
//!
//! The only other mark is the host's own: between rounds,
//! [`run_durable`](ReactorHost::run_durable) marks the swarms whose
//! retransmit deadline came due.
//!
//! Mounting, and reading a swarm through
//! [`with_swarm`](ReactorHost::with_swarm), mark nothing: a mutation
//! that leaves work behind always queues a frame or sends one. So ten
//! thousand idle members cost zero cycles between events, and one round
//! costs O(active) swarms, not O(mounted) — which is what lets the R4
//! experiment drive 1k+ members through the interest router on a
//! single thread.

use pti_net::bridge::BridgeRx;
use pti_net::{NetConfig, ReactorNet, SessionId};

use crate::error::Result;
use crate::swarm::Swarm;

/// Default per-wakeup message budget — small enough that a flooded swarm
/// yields quickly, large enough to amortise the scheduling overhead.
pub const DEFAULT_FAIRNESS_BUDGET: usize = 32;

/// Anything a [`ReactorHost`] can mount and pump: the host needs mutable
/// access to the underlying [`Swarm<ReactorNet>`], however the member
/// wraps it (a bare swarm, or a `TypedPubSub` handle from `pti-tps`).
pub trait MountedSwarm {
    /// Runs `f` with the member's swarm. Implementations that guard the
    /// swarm behind a lock acquire it for the duration of the call.
    fn with_swarm_mut(&mut self, f: &mut dyn FnMut(&mut Swarm<ReactorNet>));

    /// The member as `Any`, so callers that know the concrete mounted
    /// type (e.g. a `TypedPubSub` group on a sharded host) can get it
    /// back via [`ReactorHost::with_mounted`].
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

impl MountedSwarm for Swarm<ReactorNet> {
    fn with_swarm_mut(&mut self, f: &mut dyn FnMut(&mut Swarm<ReactorNet>)) {
        f(self);
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

struct Slot {
    session: SessionId,
    member: Box<dyn MountedSwarm>,
}

/// A single-threaded driver for many swarms on one [`ReactorNet`].
///
/// See the [module docs](self) for the event-loop phases. Slots are
/// addressed by the `usize` index [`mount`](Self::mount) returns.
pub struct ReactorHost {
    hub: ReactorNet,
    /// Tombstoned slot table: [`unmount`](Self::unmount) leaves a `None`
    /// behind so every other slot index stays stable.
    slots: Vec<Option<Slot>>,
    /// Which slot each mounted session lives in, indexed by session id
    /// (the fabric hands ids out densely from 0) — the ready queue
    /// names sessions, the slot table is indexed by slot.
    slot_by_session: Vec<Option<usize>>,
    /// Mounted swarm count.
    mounted: usize,
    budget: usize,
    /// When tracing, every pump is recorded as `(slot, handled)`.
    trace: Option<Vec<(usize, usize)>>,
    /// Cross-shard injector: messages other shards bridged over, drained
    /// into the fabric at the top of each run-loop turn.
    injector: Option<BridgeRx>,
    /// Cumulative messages drained off the injector.
    injected: u64,
}

impl std::fmt::Debug for ReactorHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorHost")
            .field("swarms", &self.len())
            .field("budget", &self.budget)
            .finish()
    }
}

impl Default for ReactorHost {
    fn default() -> ReactorHost {
        ReactorHost::new()
    }
}

impl ReactorHost {
    /// Creates a host over a fresh reactor fabric with the ideal link
    /// ([`NetConfig::ideal`]): every message is due when sent, so the
    /// clock moves only when [`run_durable`](Self::run_durable) reaches
    /// a retransmit deadline.
    pub fn new() -> ReactorHost {
        ReactorHost {
            hub: ReactorNet::new(NetConfig::ideal()),
            slots: Vec::new(),
            slot_by_session: Vec::new(),
            mounted: 0,
            budget: DEFAULT_FAIRNESS_BUDGET,
            trace: None,
            injector: None,
            injected: 0,
        }
    }

    /// A handle onto the host's fabric (the hub session — register
    /// nothing on it; use it for metrics, stats, or to open sessions).
    pub fn reactor(&self) -> ReactorNet {
        self.hub.clone()
    }

    /// Mounted swarm count (tombstoned slots excluded).
    pub fn len(&self) -> usize {
        self.mounted
    }

    /// Whether no swarm is mounted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Replaces the per-wakeup fairness budget: how many messages one
    /// swarm may handle per scheduling turn before it must yield.
    pub fn set_fairness_budget(&mut self, budget: usize) {
        self.budget = budget.max(1);
    }

    /// Mounts a member built over a fresh session of the shared fabric
    /// and returns its slot index. The builder receives the session's
    /// [`ReactorNet`] handle and typically moves it into
    /// [`Swarm::over`]/[`Swarm::with_code_registry`].
    pub fn mount<M: MountedSwarm + 'static>(
        &mut self,
        build: impl FnOnce(ReactorNet) -> M,
    ) -> usize {
        let session = self.hub.session();
        let id = session.session_id();
        let member = Box::new(build(session));
        let slot = self.slots.len();
        self.slots.push(Some(Slot {
            session: id,
            member,
        }));
        let index = id.0 as usize;
        if self.slot_by_session.len() <= index {
            self.slot_by_session.resize(index + 1, None);
        }
        self.slot_by_session[index] = Some(slot);
        self.mounted += 1;
        slot
    }

    /// Unmounts the swarm at `slot`: unregisters every endpoint its
    /// swarm owns (dropping whatever sat undelivered in their rings),
    /// releases the session's readiness state, and tombstones the slot
    /// so other slot indices stay stable. Returns the number of
    /// undelivered messages dropped. A later [`mount`](Self::mount)
    /// reuses the fabric, not the slot.
    ///
    /// # Panics
    /// If `slot` is out of range or already unmounted.
    pub fn unmount(&mut self, slot: usize) -> usize {
        // pti-allow(panic-policy): documented `# Panics` contract — slot handles are caller-owned
        let mut taken = self.slots[slot].take().expect("slot is already unmounted");
        let mut peers = Vec::new();
        taken
            .member
            .with_swarm_mut(&mut |swarm| peers = swarm.peer_ids());
        let mut dropped = 0;
        for peer in peers {
            dropped += self.hub.unregister(peer);
        }
        self.hub.release_session(taken.session);
        if let Some(entry) = self.slot_by_session.get_mut(taken.session.0 as usize) {
            *entry = None;
        }
        self.mounted -= 1;
        dropped
    }

    /// Attaches a cross-shard injector: a bridge receiver whose messages
    /// are drained into the fabric at the top of each run-loop turn.
    /// The sharded host gives every shard one.
    pub fn set_injector(&mut self, rx: BridgeRx) {
        self.injector = Some(rx);
    }

    /// Drains the injector into the fabric's inbound rings, marking the
    /// owning sessions ready. Returns how many messages were drained
    /// (injects for unknown peers are drained — and counted — but
    /// dropped by the fabric). The run loops call this each turn; it is
    /// public so a shard's outer driver can pump between loops.
    pub fn drain_injector(&mut self) -> usize {
        let Some(rx) = self.injector.as_ref() else {
            return 0;
        };
        let mut drained = 0;
        while let Some(msg) = rx.try_drain() {
            self.hub.inject(msg);
            drained += 1;
        }
        self.injected += drained as u64;
        drained
    }

    /// Cumulative messages drained off the injector since the host was
    /// created — part of the work delta the sharded drain barrier sums.
    pub fn injected_total(&self) -> u64 {
        self.injected
    }

    /// Runs `f` with the swarm mounted at `slot`.
    ///
    /// # Panics
    /// If `slot` is out of range or unmounted.
    pub fn with_swarm<R>(&mut self, slot: usize, f: impl FnOnce(&mut Swarm<ReactorNet>) -> R) -> R {
        let mut f = Some(f);
        let mut out = None;
        // pti-allow(panic-policy): documented `# Panics` contract — slot handles are caller-owned
        let s = self.slots[slot].as_mut().expect("slot is unmounted");
        s.member.with_swarm_mut(&mut |swarm| {
            if let Some(f) = f.take() {
                out = Some(f(swarm));
            }
        });
        // pti-allow(panic-policy): MountedSwarm implementations always invoke the callback exactly once
        out.expect("with_swarm_mut must invoke its callback")
    }

    /// Runs `f` with the concretely-typed member mounted at `slot` —
    /// how a caller that mounted a wrapper (e.g. a `TypedPubSub` group)
    /// gets the wrapper itself back rather than the inner swarm.
    ///
    /// # Panics
    /// If `slot` is out of range, unmounted, or holds a different type.
    pub fn with_mounted<M: 'static, R>(&mut self, slot: usize, f: impl FnOnce(&mut M) -> R) -> R {
        // pti-allow(panic-policy): documented `# Panics` contract — slot handles are caller-owned
        let s = self.slots[slot].as_mut().expect("slot is unmounted");
        let m = s
            .member
            .as_any_mut()
            .downcast_mut::<M>()
            // pti-allow(panic-policy): documented `# Panics` contract — the caller names the concrete mounted type
            .expect("mounted member has a different concrete type");
        f(m)
    }

    /// Starts recording `(slot, handled)` per pump — how tests assert
    /// fairness and wakeup order.
    pub fn set_pump_trace(&mut self, on: bool) {
        self.trace = if on { Some(Vec::new()) } else { None };
    }

    /// Takes the recorded pump trace (empty if tracing is off).
    pub fn take_pump_trace(&mut self) -> Vec<(usize, usize)> {
        self.trace.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// The fabric session backing `slot`.
    ///
    /// # Panics
    /// If `slot` is out of range or unmounted.
    pub fn session_of(&self, slot: usize) -> SessionId {
        self.slots[slot]
            .as_ref()
            // pti-allow(panic-policy): documented `# Panics` contract — slot handles are caller-owned
            .expect("slot is unmounted")
            .session
    }

    /// One scheduling turn: pump the slot's swarm with the fairness
    /// budget; if backlog remains it rejoins the queue at the back.
    fn pump_slot(&mut self, idx: usize) -> Result<()> {
        let budget = self.budget;
        let handled = self.with_swarm(idx, |swarm| swarm.pump(budget))?;
        if let Some(trace) = self.trace.as_mut() {
            trace.push((idx, handled));
        }
        let session = self.slots[idx]
            .as_ref()
            // pti-allow(panic-policy): the pump queue only holds indices of slots that are still mounted
            .expect("pumped slot exists")
            .session;
        if self.hub.backlog(session) > 0 {
            self.hub.mark_ready(session);
        }
        Ok(())
    }

    /// Pumps every session on the wakeup queue, including the ones the
    /// pumps themselves make ready, until the queue is empty.
    fn drain_ready(&mut self) -> Result<()> {
        while let Some(session) = self.hub.next_ready() {
            if let Some(&Some(idx)) = self.slot_by_session.get(session.0 as usize) {
                self.pump_slot(idx)?;
            }
        }
        Ok(())
    }

    /// Drains the ready queue until no swarm has pending work: the
    /// reactor-host counterpart of [`Swarm::run`]. Only ready swarms are
    /// pumped — those with inbound traffic or frames queued outside a
    /// pump (see the [module docs](self)) — so a call costs O(active)
    /// swarms however many are mounted. The clock does not move: a
    /// reliable frame the fabric lost stays unacknowledged until
    /// [`run_durable`](Self::run_durable) reaches its retransmit
    /// deadline.
    ///
    /// # Errors
    /// Protocol violations or runtime failures inside any swarm.
    pub fn run_until_quiescent(&mut self) -> Result<()> {
        self.drain_injector();
        loop {
            self.drain_ready()?;
            // Bridged traffic may have landed while we pumped; a turn
            // that drains nothing new means this shard is quiescent
            // (the *fabric-wide* barrier is the sharded host's job).
            if self.drain_injector() == 0 {
                return Ok(());
            }
        }
    }

    /// Runs to quiescence *and through every pending retransmit* — the
    /// host form of [`Swarm::run_durable`]. Each round drains the host
    /// with [`run_until_quiescent`](Self::run_until_quiescent), then
    /// takes the earliest retransmit deadline over the mounted swarms:
    /// with none, every reliable link is settled or shed and the call
    /// returns; otherwise the fabric clock moves to that deadline, every
    /// swarm now due is marked ready, and the next round pumps them
    /// (their pumps resend the overdue frames).
    ///
    /// The deadline scan is one pass over the mounted slots per
    /// retransmit round, made only while the host is quiet: O(mounted),
    /// where a round of traffic costs O(active).
    ///
    /// # Errors
    /// Same conditions as [`run_until_quiescent`](Self::run_until_quiescent).
    pub fn run_durable(&mut self) -> Result<()> {
        loop {
            self.run_until_quiescent()?;
            let mut armed = Vec::new();
            for slot in self.slots.iter_mut().flatten() {
                let session = slot.session;
                slot.member.with_swarm_mut(&mut |swarm| {
                    if let Some(deadline) = swarm.next_delivery_deadline_us() {
                        armed.push((session, deadline));
                    }
                });
            }
            let Some(next) = armed.iter().map(|&(_, deadline)| deadline).min() else {
                return Ok(());
            };
            self.hub.advance_clock_to(next);
            let now = self.hub.now_us();
            for (session, deadline) in armed {
                if deadline <= now {
                    self.hub.mark_ready(session);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::swarm::kinds;
    use pti_net::{PeerId, Transport};

    #[test]
    fn mount_allocates_distinct_sessions_and_slots() {
        let mut host = ReactorHost::new();
        assert!(host.is_empty());
        let a = host.mount(Swarm::over);
        let b = host.mount(Swarm::over);
        assert_eq!((a, b), (0, 1));
        assert_eq!(host.len(), 2);
        assert_ne!(host.session_of(a), host.session_of(b));
    }

    #[test]
    fn with_swarm_returns_the_closure_value() {
        let mut host = ReactorHost::new();
        let a = host.mount(Swarm::over);
        let n = host.with_swarm(a, |swarm| {
            swarm.add_peer(pti_conformance::ConformanceConfig::pragmatic());
            swarm.peer_ids().len()
        });
        assert_eq!(n, 1);
    }

    #[test]
    fn len_and_wakeups_follow_unmount_then_mount() {
        let mut host = ReactorHost::new();
        let mount_peer = |host: &mut ReactorHost, id: u32| {
            let slot = host.mount(Swarm::over);
            host.with_swarm(slot, |s| {
                s.add_peer_as(PeerId(id), pti_conformance::ConformanceConfig::pragmatic())
            });
            slot
        };
        let a = mount_peer(&mut host, 1);
        let b = mount_peer(&mut host, 2);
        assert_eq!(host.unmount(a), 0);
        assert_eq!(host.len(), 1);
        let c = mount_peer(&mut host, 3);
        assert_eq!((host.len(), c), (2, 2));
        // Traffic to each mounted peer wakes exactly its own slot.
        host.set_pump_trace(true);
        host.with_swarm(b, |s| {
            s.send_raw(PeerId(2), PeerId(3), "probe", vec![3]).unwrap();
        });
        host.run_until_quiescent().unwrap();
        host.with_swarm(c, |s| {
            s.send_raw(PeerId(3), PeerId(2), "probe", vec![2]).unwrap();
        });
        host.run_until_quiescent().unwrap();
        assert_eq!(host.take_pump_trace(), vec![(c, 1), (b, 1)]);
        assert_eq!(host.unmount(b), 0);
        assert_eq!(host.unmount(c), 0);
        assert!(host.is_empty());
    }

    #[test]
    fn fabric_traffic_wakes_the_owning_slot() {
        let mut host = ReactorHost::new();
        let a = host.mount(Swarm::over);
        let b = host.mount(Swarm::over);
        // Peer ids are global on a shared fabric: each swarm picks its
        // own.
        let pa = host.with_swarm(a, |s| {
            s.add_peer_as(PeerId(1), pti_conformance::ConformanceConfig::pragmatic())
        });
        let pb = host.with_swarm(b, |s| {
            s.add_peer_as(PeerId(2), pti_conformance::ConformanceConfig::pragmatic())
        });
        // A fabric-level send marks b's slot (and only b's) ready; the
        // owning swarm pops it off its ring on its next poll.
        let hub = host.reactor();
        host.with_swarm(a, |s| {
            s.net_mut()
                .send(pa, pb, kinds::OBJECT, vec![1u8].into())
                .unwrap();
        });
        assert!(hub.has_ready());
        assert_eq!(hub.backlog(host.session_of(b)), 1);
        assert_eq!(hub.backlog(host.session_of(a)), 0);
        let got = host.with_swarm(b, |s| s.poll_message().unwrap());
        assert_eq!(got.map(|(at, m)| (at, m.from)), Some((pb, pa)));
        assert_eq!(hub.backlog(host.session_of(b)), 0);
    }
}
