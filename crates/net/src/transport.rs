//! The transport abstraction both fabrics implement.
//!
//! The protocol engine (`pti-transport`'s `Swarm`) is generic over this
//! trait, so the *same* optimistic-exchange state machine runs
//! single-threaded over the deterministic virtual-time [`ReactorNet`]
//! (for reproducible experiments and one-thread hosts) and genuinely
//! concurrently over the threaded [`LiveBus`] (for load and integration
//! tests).
//!
//! [`ReactorNet`]: crate::ReactorNet
//! [`LiveBus`]: crate::LiveBus

use std::time::Instant;

use crate::bus::BusMessage;
use crate::fault::FaultPlan;
use crate::metrics::NetMetrics;
use crate::payload::Payload;
use crate::sim::{NetError, PeerId};

/// A message fabric connecting peers: registration, point-to-point send,
/// per-peer receive, and shared traffic accounting.
///
/// Implementations differ in their notion of time: [`ReactorNet`] is
/// virtual-time and single-threaded (an empty inbox means the network is
/// definitively quiet), while [`LiveBus`] is wall-clock and concurrent
/// (an empty inbox may fill up a microsecond later, so receives take a
/// deadline).
///
/// [`ReactorNet`]: crate::ReactorNet
/// [`LiveBus`]: crate::LiveBus
pub trait Transport {
    /// Registers a peer, creating its inbox. Idempotent.
    fn register(&mut self, peer: PeerId);

    /// Sends a message from one peer to another. The payload is a
    /// shared buffer: fanning the same bytes out to N destinations is N
    /// clones of the handle (refcount bumps), never N byte copies.
    ///
    /// # Errors
    /// [`NetError::UnknownPeer`] when the destination is not registered
    /// on the fabric.
    fn send(
        &mut self,
        from: PeerId,
        to: PeerId,
        kind: &'static str,
        payload: Payload,
    ) -> Result<(), NetError>;

    /// Takes the next available message for `peer` without waiting.
    /// `None` means nothing is deliverable right now; on a virtual-time
    /// fabric that is final until someone sends again.
    fn try_recv(&mut self, peer: PeerId) -> Option<BusMessage>;

    /// Waits until `deadline` for a message addressed to any of `peers`,
    /// polling them in order. The default implementation performs a
    /// single non-blocking pass — correct for virtual-time fabrics where
    /// no message can appear without a local send; concurrent fabrics
    /// override it to actually wait.
    fn recv_deadline(&mut self, peers: &[PeerId], deadline: Instant) -> Option<BusMessage> {
        let _ = deadline;
        peers.iter().find_map(|p| self.try_recv(*p))
    }

    /// A snapshot of the fabric-wide traffic counters.
    fn metrics(&self) -> NetMetrics;

    /// Resets the fabric-wide traffic counters.
    fn reset_metrics(&mut self);

    /// Accounting hook: the layer above encoded one wire payload (e.g.
    /// an object envelope). Comparing this against delivered OBJECT
    /// counts proves the publish path encodes once and *shares* the
    /// bytes across destinations. The default is a no-op.
    ///
    /// This is the one accounting hook: the fabric writes every traffic
    /// counter itself ([`NetMetrics::record_send`]), but an encode
    /// happens above it, and perfbench's fanout reads `payload_encodes`
    /// from the fabric's metrics to check one encode per publish.
    fn record_payload_encode(&mut self) {}

    /// Readiness hook: the layer above queued outbound frames *outside*
    /// its own pump, so nothing will ship them until the owner is
    /// pumped again. A readiness-driven fabric ([`ReactorNet`]) marks the
    /// handle's session ready, which is how a host learns about a
    /// publish made through a session handle instead of by sweeping
    /// every mounted swarm. A fabric whose drivers pump on their own
    /// schedule ([`LiveBus`]) needs no signal — the default is a no-op.
    ///
    /// [`ReactorNet`]: crate::ReactorNet
    /// [`LiveBus`]: crate::LiveBus
    fn note_outbound(&mut self) {}

    /// The fabric's notion of "now" in microseconds — virtual time on
    /// the virtual-time fabric, time since fabric creation on the live
    /// ones. The durability layer stamps retransmit deadlines with it.
    /// The default (a frozen clock) disables time-based retries.
    fn now_us(&self) -> u64 {
        0
    }

    /// Installs a seeded [`FaultPlan`] that adjudicates every subsequent
    /// send (drop / duplicate / partition). Fabrics without fault
    /// support ignore the plan — the default is a no-op.
    fn install_fault_plan(&mut self, plan: FaultPlan) {
        let _ = plan;
    }

    /// Advances a *virtual* clock to `deadline_us`, returning whether
    /// the fabric did so. Virtual-time fabrics use this to reach the
    /// next retransmit deadline when no traffic is in flight; wall-clock
    /// fabrics return `false` (time passes on its own).
    fn advance_virtual_time(&mut self, deadline_us: u64) -> bool {
        let _ = deadline_us;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::LiveBus;
    use crate::sim::{NetConfig, SimNet};
    use std::time::Duration;

    fn exercise<T: Transport>(mut t: T) {
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
    fn simnet_implements_transport() {
        exercise(SimNet::new(NetConfig::default()));
    }

    #[test]
    fn livebus_implements_transport() {
        exercise(LiveBus::new());
    }

    #[test]
    fn recv_deadline_returns_queued_message() {
        let mut t = SimNet::new(NetConfig::default());
        t.register(PeerId(1));
        t.register(PeerId(2));
        t.send(PeerId(1), PeerId(2), "k", Payload::empty()).unwrap();
        let deadline = Instant::now() + Duration::from_millis(1);
        let m = t
            .recv_deadline(&[PeerId(1), PeerId(2)], deadline)
            .expect("one pass finds it");
        assert_eq!(m.to, PeerId(2));
        assert!(t.recv_deadline(&[PeerId(1), PeerId(2)], deadline).is_none());
    }
}
