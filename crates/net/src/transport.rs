//! The transport abstraction the protocol engine is generic over.
//!
//! The protocol engine (`pti-transport`'s `Swarm`) drives peers through
//! this trait. Its one implementation is the deterministic virtual-time
//! [`ReactorNet`], which serves a standalone swarm, several swarms
//! taking turns on sessions of one fabric, and one-thread hosts alike.
//! Real threads exist only in `pti-transport`'s `ShardedHost`, one
//! reactor per thread, bridged.
//!
//! [`ReactorNet`]: crate::ReactorNet

use crate::fault::FaultPlan;
use crate::metrics::NetMetrics;
use crate::payload::Payload;
use crate::sim::{NetError, PeerId};

/// A message as a receiver sees it: who sent it, to whom, its kind and
/// its payload (no timing — the fabric already delivered it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusMessage {
    /// Sending peer.
    pub from: PeerId,
    /// Destination peer.
    pub to: PeerId,
    /// Application-level kind tag. Always a constant — allocation never
    /// rides the send path.
    pub kind: &'static str,
    /// Opaque payload — shared with the sender, never copied per hop.
    pub payload: Payload,
}

/// A message fabric connecting peers: registration, point-to-point send,
/// per-peer receive, a virtual clock, and shared traffic accounting.
///
/// Time is virtual: an empty inbox means the network is definitively
/// quiet until someone sends again, and the clock moves only by
/// receives and explicit advances.
pub trait Transport {
    /// Registers a peer, creating its inbox. Idempotent.
    fn register(&mut self, peer: PeerId);

    /// Removes `peer`'s inbox if this handle's session registered it,
    /// discarding whatever sat undelivered in it, so the id can be
    /// registered again. Unknown ids and ids another session owns are
    /// left alone.
    /// Never panics: a dropping `Swarm` calls it, possibly while
    /// unwinding.
    fn unregister(&mut self, peer: PeerId);

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
    /// `None` is final until someone sends again.
    fn try_recv(&mut self, peer: PeerId) -> Option<BusMessage>;

    /// A snapshot of the fabric-wide traffic counters.
    fn metrics(&self) -> NetMetrics;

    /// Resets the fabric-wide traffic counters.
    fn reset_metrics(&mut self);

    /// Accounting hook: the layer above encoded one wire payload (e.g.
    /// an object envelope). Comparing this against delivered OBJECT
    /// counts proves the publish path encodes once and *shares* the
    /// bytes across destinations.
    ///
    /// This is the one accounting hook: the fabric writes every traffic
    /// counter itself ([`NetMetrics::record_send`]), but an encode
    /// happens above it, and perfbench's fanout reads `payload_encodes`
    /// from the fabric's metrics to check one encode per publish.
    fn record_payload_encode(&mut self);

    /// Readiness hook: the layer above queued outbound frames *outside*
    /// its own pump, so nothing will ship them until the owner is
    /// pumped again. The fabric marks the handle's session ready, which
    /// is how a host learns about a publish made through a session
    /// handle instead of by sweeping every mounted swarm.
    fn note_outbound(&mut self);

    /// The fabric's virtual clock in microseconds. The durability layer
    /// stamps retransmit deadlines with it.
    fn now_us(&self) -> u64;

    /// Installs a seeded [`FaultPlan`] that adjudicates every subsequent
    /// send (drop / duplicate / partition).
    fn install_fault_plan(&mut self, plan: FaultPlan);

    /// Advances the virtual clock to `deadline_us` (never backwards) —
    /// how a durable-delivery driver reaches its next retransmit
    /// deadline when no traffic is in flight.
    fn advance_virtual_time(&mut self, deadline_us: u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{NetConfig, SimNet};

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
        // An unregistered id is unknown until someone registers it again.
        t.unregister(PeerId(2));
        assert_eq!(
            t.send(PeerId(1), PeerId(2), "k", Payload::empty()),
            Err(NetError::UnknownPeer(PeerId(2)))
        );
        t.register(PeerId(2));
        t.send(PeerId(1), PeerId(2), "k", Payload::empty()).unwrap();
    }

    #[test]
    fn simnet_implements_transport() {
        exercise(SimNet::new(NetConfig::default()));
    }
}
