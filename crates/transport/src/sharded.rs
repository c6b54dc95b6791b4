//! The sharded host: M reactor threads, hash-pinned swarms, bridged
//! cross-shard links.
//!
//! A [`ShardedHost`] runs one [`ReactorHost`] per **shard**, each on its
//! own worker thread. The reactor world is `Rc`-based and must never
//! cross threads, so the control thread never touches a shard's host
//! directly: every operation ships as a boxed `FnOnce(&mut ReactorHost)`
//! command over the shard's mpsc channel and runs **on** the owning
//! thread (the run-to-completion sharding idiom — one event loop per
//! core, explicit message passing between them).
//!
//! **Ownership rules.** A peer id lives on exactly one shard: the shard
//! its ring was registered on. [`mount`](ShardedHost::mount) pins a
//! swarm by hashing the caller-chosen primary peer id;
//! [`mount_pinned`](ShardedHost::mount_pinned) overrides the hash for
//! placement experiments. After every mutating operation the control
//! thread diffs the shard's registered peers against its directory and
//! broadcasts the change: new peers become [`BridgeTx`] **proxies** on
//! every other shard, vanished peers have their proxies revoked. A send
//! to a remote peer therefore resolves locally (metrics recorded on the
//! origin shard) and waits on the owning shard's bridge until that
//! shard next pumps — no shard ever blocks on another.
//!
//! **Shards work only inside commands.** A worker runs the commands the
//! control thread posts it and parks otherwise; it never pumps on its
//! own. That makes quiescence exact. One shard looking idle means
//! nothing: a message can be in flight on a bridge between two shards
//! that both report empty queues. [`run_until_quiescent`](ShardedHost::run_until_quiescent)
//! repeats rounds of per-shard drains and only stops when a full round
//! does zero work **and** every bridge reports `pending() == 0`. Since
//! every unit of shard work happens inside a round's `exec`, the round's
//! work count sees all of it, and a zero round with empty bridges means
//! nothing is left anywhere.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::thread::JoinHandle;

use pti_net::bridge::{BridgeRx, BridgeTx};
use pti_net::{BridgeLink, NetMetrics, PeerId, ReactorNet, ReactorStats, Transport};

use crate::error::Result;
use crate::reactor_host::{MountedSwarm, ReactorHost};
use crate::swarm::Swarm;

/// A command executed on a shard's worker thread, with exclusive access
/// to its `ReactorHost`.
type Cmd = Box<dyn FnOnce(&mut ReactorHost) + Send>;

struct ShardHandle {
    /// Command channel into the worker; dropping it shuts the worker
    /// down (after it drains what's queued).
    cmds: Option<Sender<Cmd>>,
    join: Option<JoinHandle<()>>,
    /// Send half of the shard's injector bridge — cloned into every
    /// other shard as the proxy route for this shard's peers.
    bridge: BridgeTx,
}

/// M single-threaded reactor shards behind one control-side facade.
///
/// See the [module docs](self) for the ownership rules and the drain
/// barrier. Mounted swarms are addressed by a *global* slot index; the
/// host maps it to `(shard, local slot)` internally.
pub struct ShardedHost {
    shards: Vec<ShardHandle>,
    /// Which shard owns each registered peer id. Ordered so directory
    /// reconciliation walks peers in id order — proxy registration and
    /// revocation then hit every shard in the same deterministic
    /// sequence on every run (`pti-lint`'s unordered-iter rule).
    directory: BTreeMap<PeerId, usize>,
    /// Global slot → (shard, local slot); tombstoned like the per-shard
    /// tables so indices survive unmounts.
    slots: Vec<Option<(usize, usize)>>,
}

impl std::fmt::Debug for ShardedHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedHost")
            .field("shards", &self.shards.len())
            .field("swarms", &self.slots.iter().filter(|s| s.is_some()).count())
            .finish()
    }
}

/// The work a shard has performed, as a monotone counter: fabric sends +
/// ring pops + bridged messages drained. A drain round that moves this
/// by zero on every shard did nothing.
fn work_of(host: &ReactorHost) -> u64 {
    let stats = host.reactor().stats();
    stats.sends + stats.recvs + host.injected_total()
}

/// A shard's run loop: execute commands in FIFO order, park when none
/// is queued. Bridged traffic waits in the injector until a command
/// pumps the host, so all of a shard's work happens inside commands.
fn worker(cmds: Receiver<Cmd>, injector: BridgeRx) {
    let mut host = ReactorHost::new();
    host.set_injector(injector);
    loop {
        match cmds.try_recv() {
            Ok(cmd) => cmd(&mut host),
            Err(TryRecvError::Disconnected) => return,
            // Nothing queued: sleep until `post` unparks us. Unpark
            // tokens are sticky, so a post racing this park is not lost.
            Err(TryRecvError::Empty) => std::thread::park(),
        }
    }
}

impl ShardedHost {
    /// Spins up `shards` worker threads (at least one), each owning a
    /// private reactor fabric plus the receive half of its bridge.
    pub fn new(shards: usize) -> ShardedHost {
        let shards = (0..shards.max(1))
            .map(|i| {
                let (cmd_tx, cmd_rx) = channel();
                let (bridge_tx, bridge_rx) = BridgeLink::pair();
                let join = std::thread::Builder::new()
                    .name(format!("pti-shard-{i}"))
                    .spawn(move || worker(cmd_rx, bridge_rx))
                    // pti-allow(panic-policy): thread spawn fails only on resource exhaustion at host construction, before any traffic
                    .expect("spawn shard thread");
                ShardHandle {
                    cmds: Some(cmd_tx),
                    join: Some(join),
                    bridge: bridge_tx,
                }
            })
            .collect();
        ShardedHost {
            shards,
            directory: BTreeMap::new(),
            slots: Vec::new(),
        }
    }

    /// Number of shards (== worker threads).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Mounted swarm count (tombstoned slots excluded).
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Whether no swarm is mounted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shard a peer id hash-pins to: `FxHash`-free, allocation-free
    /// multiplicative hashing — stable across runs and platforms, which
    /// the determinism tests rely on.
    pub fn shard_for(&self, peer: PeerId) -> usize {
        let h = (u64::from(peer.0)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) as usize) % self.shards.len()
    }

    /// Runs `f` on `shard`'s worker thread with its `ReactorHost`, and
    /// waits for the result. A panic inside `f` resurfaces here.
    pub fn exec<R: Send + 'static>(
        &self,
        shard: usize,
        f: impl FnOnce(&mut ReactorHost) -> R + Send + 'static,
    ) -> R {
        let (tx, rx) = channel();
        self.post(shard, move |host| {
            let result = catch_unwind(AssertUnwindSafe(|| f(host)));
            let _ = tx.send(result);
        });
        // pti-allow(panic-policy): the worker loop only exits when this host drops its sender, so a dead shard here is unrecoverable
        match rx.recv().expect("shard thread alive") {
            Ok(r) => r,
            Err(panic) => resume_unwind(panic),
        }
    }

    /// Fire-and-forget command: queued in FIFO order with everything
    /// else on the shard, no reply. Proxy broadcasts use this.
    fn post(&self, shard: usize, f: impl FnOnce(&mut ReactorHost) + Send + 'static) {
        let handle = &self.shards[shard];
        handle
            .cmds
            .as_ref()
            // pti-allow(panic-policy): cmds is only taken in shutdown(); posting after that is a stated API misuse
            .expect("host not shut down")
            .send(Box::new(f))
            // pti-allow(panic-policy): the worker loop only exits when this host drops its sender, so a dead shard here is unrecoverable
            .expect("shard thread alive");
        if let Some(join) = handle.join.as_ref() {
            join.thread().unpark();
        }
    }

    /// Re-scans `shard`'s registered peers and reconciles the directory:
    /// new peers are proxied onto every other shard, vanished peers have
    /// their proxies revoked everywhere.
    fn sync_directory(&mut self, shard: usize) {
        let current = self.exec(shard, |host| host.reactor().registered_peers());
        let known: Vec<PeerId> = self
            .directory
            .iter()
            .filter(|(_, s)| **s == shard)
            .map(|(p, _)| *p)
            .collect();
        for &peer in &current {
            if self.directory.insert(peer, shard) != Some(shard) {
                let bridge = self.shards[shard].bridge.clone();
                for other in 0..self.shards.len() {
                    if other != shard {
                        let b = bridge.clone();
                        self.post(other, move |host| host.reactor().register_proxy(peer, b));
                    }
                }
            }
        }
        for peer in known {
            if !current.contains(&peer) {
                self.directory.remove(&peer);
                for other in 0..self.shards.len() {
                    if other != shard {
                        self.post(other, move |host| host.reactor().unregister_proxy(peer));
                    }
                }
            }
        }
    }

    /// Mounts a member on the shard `primary` hash-pins to. The builder
    /// runs on the worker thread; the member never leaves it. Returns
    /// the global slot index.
    pub fn mount<M: MountedSwarm + 'static>(
        &mut self,
        primary: PeerId,
        build: impl FnOnce(ReactorNet) -> M + Send + 'static,
    ) -> usize {
        self.mount_pinned(self.shard_for(primary), build)
    }

    /// Mounts a member on an explicitly chosen shard — the placement
    /// override for experiments that want to control cross-shard edges.
    pub fn mount_pinned<M: MountedSwarm + 'static>(
        &mut self,
        shard: usize,
        build: impl FnOnce(ReactorNet) -> M + Send + 'static,
    ) -> usize {
        let local = self.exec(shard, move |host| host.mount(build));
        self.slots.push(Some((shard, local)));
        self.sync_directory(shard);
        self.slots.len() - 1
    }

    /// Unmounts the member at global `slot` (see
    /// [`ReactorHost::unmount`]); its peers' proxies are revoked on
    /// every other shard. Returns the undelivered messages dropped.
    pub fn unmount(&mut self, slot: usize) -> usize {
        // pti-allow(panic-policy): documented `# Panics` contract — slot handles are caller-owned
        let (shard, local) = self.slots[slot].take().expect("slot is already unmounted");
        let dropped = self.exec(shard, move |host| host.unmount(local));
        self.sync_directory(shard);
        dropped
    }

    /// The shard that owns global `slot`.
    ///
    /// # Panics
    /// If `slot` is out of range or unmounted.
    pub fn shard_of(&self, slot: usize) -> usize {
        // pti-allow(panic-policy): documented `# Panics` contract — slot handles are caller-owned
        self.slots[slot].expect("slot is unmounted").0
    }

    /// The shard that owns `peer`, if it is mounted anywhere.
    pub fn owner_of(&self, peer: PeerId) -> Option<usize> {
        self.directory.get(&peer).copied()
    }

    /// Runs `f` with the swarm at global `slot`, on its owning shard's
    /// thread. Membership changes `f` makes (peers added or removed)
    /// propagate to every other shard's proxy table before this returns.
    pub fn with_swarm<R: Send + 'static>(
        &mut self,
        slot: usize,
        f: impl FnOnce(&mut Swarm<ReactorNet>) -> R + Send + 'static,
    ) -> R {
        // pti-allow(panic-policy): documented `# Panics` contract — slot handles are caller-owned
        let (shard, local) = self.slots[slot].expect("slot is unmounted");
        let out = self.exec(shard, move |host| host.with_swarm(local, f));
        self.sync_directory(shard);
        out
    }

    /// Runs `f` with the concretely-typed member at global `slot` on its
    /// owning shard's thread (see [`ReactorHost::with_mounted`]), then
    /// reconciles the proxy directory like
    /// [`with_swarm`](Self::with_swarm).
    pub fn with_mounted<M: 'static, R: Send + 'static>(
        &mut self,
        slot: usize,
        f: impl FnOnce(&mut M) -> R + Send + 'static,
    ) -> R {
        // pti-allow(panic-policy): documented `# Panics` contract — slot handles are caller-owned
        let (shard, local) = self.slots[slot].expect("slot is unmounted");
        let out = self.exec(shard, move |host| host.with_mounted::<M, R>(local, f));
        self.sync_directory(shard);
        out
    }

    /// Drains every shard and every bridge: rounds of serialized
    /// per-shard `run_until_quiescent` commands, stopping only when a
    /// full round performs zero work **and** all bridges report zero
    /// pending — the two-phase barrier (a message in flight between two
    /// idle-looking shards keeps the loop alive). Shards work only inside
    /// commands, so each round's `work_of` deltas count all of their
    /// work, and reading the bridge counters after a round is sound
    /// because no shard runs between the round's commands. Cross-shard
    /// arrival order is therefore a function of the round order alone.
    ///
    /// No round moves a shard's virtual clock, so the sharded host
    /// drives no at-least-once retransmit deadlines: a reliable frame a
    /// fault plan dropped stays unacknowledged (mount such groups on a
    /// single [`ReactorHost`] and drive them with
    /// [`ReactorHost::run_durable`]).
    ///
    /// # Errors
    /// The first protocol error any shard's swarm raises.
    pub fn run_until_quiescent(&mut self) -> Result<()> {
        loop {
            let mut work = 0u64;
            for shard in 0..self.shards.len() {
                work += self.exec(shard, |host| -> Result<u64> {
                    let before = work_of(host);
                    host.run_until_quiescent()?;
                    Ok(work_of(host) - before)
                })?;
            }
            let in_flight: u64 = self.shards.iter().map(|s| s.bridge.pending()).sum();
            if work == 0 && in_flight == 0 {
                return Ok(());
            }
        }
    }

    /// Per-shard reactor scheduling stats, indexed by shard.
    pub fn shard_stats(&self) -> Vec<ReactorStats> {
        (0..self.shards.len())
            .map(|shard| self.exec(shard, |host| host.reactor().stats()))
            .collect()
    }

    /// Fabric-wide traffic metrics: every shard's [`NetMetrics`] merged,
    /// bridge crossings included.
    pub fn metrics(&self) -> NetMetrics {
        let mut total = NetMetrics::default();
        for shard in 0..self.shards.len() {
            let m = self.exec(shard, |host| Transport::metrics(&host.reactor()));
            total.merge(&m);
        }
        total
    }

    /// Resets every shard's traffic metrics (scheduling stats are
    /// monotone and stay).
    pub fn reset_metrics(&mut self) {
        for shard in 0..self.shards.len() {
            self.exec(shard, |host| host.reactor().reset_metrics());
        }
    }
}

impl Drop for ShardedHost {
    fn drop(&mut self) {
        for shard in &mut self.shards {
            shard.cmds = None;
        }
        for shard in &mut self.shards {
            if let Some(join) = shard.join.take() {
                join.thread().unpark();
                let _ = join.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::swarm::kinds;
    use pti_conformance::ConformanceConfig;

    #[test]
    fn hash_pinning_is_stable_and_in_range() {
        let host = ShardedHost::new(4);
        for id in 0..256 {
            let s = host.shard_for(PeerId(id));
            assert!(s < 4);
            assert_eq!(s, host.shard_for(PeerId(id)), "same id, same shard");
        }
        // The multiplicative hash actually spreads ids around.
        let hit: std::collections::HashSet<usize> =
            (0..256).map(|id| host.shard_for(PeerId(id))).collect();
        assert_eq!(hit.len(), 4, "all shards receive some ids");
    }

    #[test]
    fn exec_runs_on_the_owning_worker_thread() {
        let host = ShardedHost::new(2);
        let name0 = host.exec(0, |_| std::thread::current().name().map(String::from));
        let name1 = host.exec(1, |_| std::thread::current().name().map(String::from));
        assert_eq!(name0.as_deref(), Some("pti-shard-0"));
        assert_eq!(name1.as_deref(), Some("pti-shard-1"));
    }

    #[test]
    fn exec_resurfaces_worker_panics_on_the_control_thread() {
        let host = ShardedHost::new(1);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            host.exec(0, |_| panic!("boom from the shard"));
        }));
        let payload = caught.unwrap_err();
        let text = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(text, "boom from the shard");
        // The worker survives a panicking command.
        assert_eq!(host.exec(0, |host| host.len()), 0);
    }

    #[test]
    fn cross_shard_sends_resolve_through_proxies_and_arrive() {
        let mut host = ShardedHost::new(2);
        let a = host.mount_pinned(0, Swarm::over);
        let b = host.mount_pinned(1, Swarm::over);
        let pa = host.with_swarm(a, |s| {
            s.add_peer_as(PeerId(1), ConformanceConfig::pragmatic())
        });
        let pb = host.with_swarm(b, |s| {
            s.add_peer_as(PeerId(2), ConformanceConfig::pragmatic())
        });
        assert_eq!(host.owner_of(pa), Some(0));
        assert_eq!(host.owner_of(pb), Some(1));

        // A raw fabric send from shard 0 to shard 1 crosses the bridge...
        host.with_swarm(a, move |s| {
            s.net_mut()
                .send(pa, pb, kinds::OBJECT, vec![9u8, 9, 9].into())
                .unwrap();
        });
        assert_eq!(host.shards[1].bridge.pending(), 1);
        // ...and lands in the remote ring once shard 1 drains its
        // injector (poll_message reads the raw ring — the payload here
        // is not a real protocol envelope, so we bypass the pump).
        assert_eq!(host.exec(1, |h| h.drain_injector()), 1);
        assert_eq!(host.shards[1].bridge.pending(), 0);
        let got = host.with_swarm(b, move |s| s.poll_message().unwrap());
        assert_eq!(got.map(|(at, m)| (at, m.from)), Some((pb, pa)));
        let m = host.metrics();
        assert_eq!(m.bridge_crossings, 1, "merged metrics count the crossing");
        assert_eq!(m.bridge_bytes, 3);
        assert_eq!(m.kind(kinds::OBJECT).messages, 1, "no double count");
    }

    #[test]
    fn unmount_revokes_proxies_everywhere() {
        let mut host = ShardedHost::new(2);
        let a = host.mount_pinned(0, Swarm::over);
        let b = host.mount_pinned(1, Swarm::over);
        let pa = host.with_swarm(a, |s| {
            s.add_peer_as(PeerId(1), ConformanceConfig::pragmatic())
        });
        let pb = host.with_swarm(b, |s| {
            s.add_peer_as(PeerId(2), ConformanceConfig::pragmatic())
        });
        assert_eq!(host.len(), 2);
        assert_eq!(host.unmount(b), 0);
        assert_eq!(host.len(), 1);
        assert_eq!(host.owner_of(pb), None);
        // The proxy on shard 0 is gone: the send now fails like any
        // vanished peer, so swarms prune the route.
        let err = host.with_swarm(a, move |s| {
            s.net_mut().send(pa, pb, kinds::OBJECT, vec![1u8].into())
        });
        assert!(err.is_err(), "no proxy, no local ring: unknown peer");
        // Remount reuses the fabric and re-announces the peer.
        let b2 = host.mount_pinned(1, Swarm::over);
        let pb2 = host.with_swarm(b2, |s| {
            s.add_peer_as(PeerId(2), ConformanceConfig::pragmatic())
        });
        assert_eq!(host.owner_of(pb2), Some(1));
        host.with_swarm(a, move |s| {
            s.net_mut()
                .send(pa, pb2, kinds::OBJECT, vec![2u8].into())
                .unwrap();
        });
        assert_eq!(host.exec(1, |h| h.drain_injector()), 1);
        let got = host.with_swarm(b2, move |s| s.poll_message().unwrap());
        assert_eq!(got.map(|(_, m)| m.payload[0]), Some(2));
    }

    #[test]
    fn bridged_traffic_waits_in_the_injector_until_a_command_drains_it() {
        let host = ShardedHost::new(2);
        // Bare fabric endpoints (no mounted swarm): shard 1 owns peer 2,
        // shard 0 routes to it through a hand-registered proxy.
        host.exec(1, |h| {
            let mut hub = h.reactor();
            hub.register(PeerId(2));
        });
        let bridge = host.shards[1].bridge.clone();
        host.exec(0, move |h| {
            let mut hub = h.reactor();
            hub.register(PeerId(1));
            hub.register_proxy(PeerId(2), bridge);
            hub.send(PeerId(1), PeerId(2), kinds::OBJECT, vec![5u8].into())
                .unwrap();
        });
        assert_eq!(host.metrics().bridge_crossings, 1);
        // Shard 1 does no work outside commands: the message stays in
        // flight, even across unrelated commands, until one drains it.
        assert_eq!(host.exec(1, |h| h.reactor().pending(PeerId(2))), 0);
        assert_eq!(host.shards[1].bridge.pending(), 1);
        assert_eq!(host.exec(1, |h| h.drain_injector()), 1);
        assert_eq!(host.shards[1].bridge.pending(), 0);
        let got = host.exec(1, |h| h.reactor().try_recv(PeerId(2)));
        assert_eq!(got.map(|m| (m.from, m.payload[0])), Some((PeerId(1), 5)));
    }
}
