//! A concurrent message bus for multithreaded peer drivers.
//!
//! The virtual-time [`ReactorNet`](crate::ReactorNet) is single-threaded
//! by design (deterministic experiments). Integration tests and examples
//! that want *actually concurrent* peers use this std-channel bus
//! instead: same message shape, real threads, shared traffic metrics.
//!
//! There are two ways to drive it:
//!
//! * [`LiveBus::join`] hands back a raw [`Endpoint`] for manual
//!   send/recv loops;
//! * the [`Transport`](crate::Transport) implementation attaches peer
//!   inboxes to *this handle* of the bus, so a protocol `Swarm` can own
//!   its peers' receive sides while every handle shares one delivery
//!   fabric and one set of metrics. Cloning a `LiveBus` yields a new
//!   handle onto the same fabric with no attached inboxes — hand clones
//!   to threads and let each register its own peers.

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::metrics::NetMetrics;
use crate::payload::Payload;
use crate::sim::{NetError, PeerId};
use crate::transport::Transport;

/// A message on the live bus (no virtual timing — delivery is real).
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

/// Hub creating endpoints and carrying shared metrics.
#[derive(Debug)]
pub struct LiveBus {
    inner: Arc<Mutex<BusInner>>,
    /// Inboxes attached to this handle via [`Transport::register`] —
    /// deliberately not shared between clones: each protocol driver owns
    /// the receive side of its own peers.
    attached: HashMap<PeerId, Receiver<BusMessage>>,
    /// When this fabric was created — `Transport::now_us` reports time
    /// since then, giving the live fabric a monotonic µs clock shaped
    /// like the virtual ones.
    epoch: Instant,
}

impl Default for LiveBus {
    fn default() -> LiveBus {
        LiveBus {
            inner: Arc::default(),
            attached: HashMap::new(),
            epoch: Instant::now(),
        }
    }
}

impl Clone for LiveBus {
    /// Clones the *fabric handle*: the new value shares senders, metrics
    /// and the clock epoch with the original but has no attached inboxes
    /// of its own.
    fn clone(&self) -> LiveBus {
        LiveBus {
            inner: Arc::clone(&self.inner),
            attached: HashMap::new(),
            epoch: self.epoch,
        }
    }
}

#[derive(Debug, Default)]
struct BusInner {
    senders: HashMap<PeerId, SenderSlot>,
    /// Monotonic registration stamp, so pruning a dead sender after a
    /// failed send cannot race a re-joined peer under the same id.
    next_gen: u64,
    metrics: NetMetrics,
}

#[derive(Debug, Clone)]
struct SenderSlot {
    gen: u64,
    tx: Sender<BusMessage>,
}

impl BusInner {
    fn bind(&mut self, id: PeerId, tx: Sender<BusMessage>) {
        assert!(
            !self.senders.contains_key(&id),
            "{id} is already registered on this LiveBus fabric"
        );
        self.next_gen += 1;
        let gen = self.next_gen;
        self.senders.insert(id, SenderSlot { gen, tx });
    }
}

/// One peer's connection to the bus: can send to anyone, receives its own
/// inbox.
#[derive(Debug)]
pub struct Endpoint {
    id: PeerId,
    bus: LiveBus,
    inbox: Receiver<BusMessage>,
}

impl LiveBus {
    /// Creates an empty bus.
    pub fn new() -> LiveBus {
        LiveBus::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BusInner> {
        // pti-allow(panic-policy): a poisoned bus lock means a sender panicked mid-send; every later operation would see torn state
        self.inner.lock().expect("bus lock poisoned")
    }

    /// Registers a peer and returns its endpoint.
    ///
    /// # Panics
    /// If the id is already registered on this fabric (via `join` or the
    /// [`Transport`] impl) — rebinding would silently hijack the
    /// existing owner's traffic.
    pub fn join(&self, id: PeerId) -> Endpoint {
        let (tx, rx) = channel();
        self.lock().bind(id, tx);
        Endpoint {
            id,
            bus: self.clone(),
            inbox: rx,
        }
    }

    /// Snapshot of the traffic counters.
    pub fn metrics(&self) -> NetMetrics {
        self.lock().metrics.clone()
    }

    fn send_msg(&self, msg: BusMessage) -> Result<(), NetError> {
        let slot = {
            let inner = self.lock();
            let Some(slot) = inner.senders.get(&msg.to).cloned() else {
                return Err(NetError::UnknownPeer(msg.to));
            };
            slot
        };
        // A disconnected receiver (peer dropped concurrently) is reported
        // like an unknown peer; only a *delivered* message is recorded,
        // so accounting matches ReactorNet's. The dead sender is pruned (by
        // registration generation, so a re-joined peer under the same id
        // is untouched) so a departed peer does not accumulate queues.
        let (from, to, kind) = (msg.from, msg.to, msg.kind);
        let payload = msg.payload.clone();
        if slot.tx.send(msg).is_err() {
            let mut inner = self.lock();
            if inner
                .senders
                .get(&to)
                .is_some_and(|cur| cur.gen == slot.gen)
            {
                inner.senders.remove(&to);
            }
            return Err(NetError::UnknownPeer(to));
        }
        let mut inner = self.lock();
        inner.metrics.record_send(from, to, kind, &payload);
        Ok(())
    }
}

impl Transport for LiveBus {
    /// Attaches `peer`'s inbox to this handle (send side goes to the
    /// shared fabric so any handle can reach it). Re-registering the
    /// same peer on the same handle is a no-op.
    ///
    /// # Panics
    /// If the id is already registered through *another* handle or
    /// endpoint of this fabric — silently rebinding would hijack the
    /// other owner's traffic. Pick distinct ids per driver (see
    /// `Swarm::add_peer_as`).
    fn register(&mut self, peer: PeerId) {
        if self.attached.contains_key(&peer) {
            return;
        }
        let (tx, rx) = channel();
        self.lock().bind(peer, tx);
        self.attached.insert(peer, rx);
    }

    fn send(
        &mut self,
        from: PeerId,
        to: PeerId,
        kind: &'static str,
        payload: Payload,
    ) -> Result<(), NetError> {
        self.send_msg(BusMessage {
            from,
            to,
            kind,
            payload,
        })
    }

    fn try_recv(&mut self, peer: PeerId) -> Option<BusMessage> {
        self.attached.get(&peer)?.try_recv().ok()
    }

    /// Polls the attached inboxes until a message arrives or the deadline
    /// passes (concurrent senders may deliver at any moment).
    fn recv_deadline(&mut self, peers: &[PeerId], deadline: Instant) -> Option<BusMessage> {
        loop {
            if let Some(m) = peers
                .iter()
                .find_map(|p| self.attached.get(p).and_then(|rx| rx.try_recv().ok()))
            {
                return Some(m);
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn metrics(&self) -> NetMetrics {
        LiveBus::metrics(self)
    }

    fn reset_metrics(&mut self) {
        self.lock().metrics.reset();
    }

    fn record_payload_encode(&mut self) {
        self.lock().metrics.record_payload_encode();
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

impl Endpoint {
    /// This endpoint's peer id.
    pub fn id(&self) -> PeerId {
        self.id
    }

    /// Sends a message to another peer.
    ///
    /// # Errors
    /// [`NetError::UnknownPeer`] when the destination never joined or
    /// already left.
    pub fn send(
        &self,
        to: PeerId,
        kind: &'static str,
        payload: impl Into<Payload>,
    ) -> Result<(), NetError> {
        self.bus.send_msg(BusMessage {
            from: self.id,
            to,
            kind,
            payload: payload.into(),
        })
    }

    /// Blocks until a message arrives.
    pub fn recv(&self) -> Option<BusMessage> {
        self.inbox.recv().ok()
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<BusMessage> {
        self.inbox.try_recv().ok()
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.bus.lock().senders.remove(&self.id);
    }
}

impl Drop for LiveBus {
    /// Unregisters the inboxes attached to this handle so the ids can be
    /// reused (and senders don't pile up) after a driver goes away.
    fn drop(&mut self) {
        if self.attached.is_empty() {
            return;
        }
        // Poison-tolerant: this may run while unwinding another panic.
        if let Ok(mut inner) = self.inner.lock() {
            for peer in self.attached.keys() {
                inner.senders.remove(peer);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn point_to_point_delivery() {
        let bus = LiveBus::new();
        let a = bus.join(PeerId(1));
        let b = bus.join(PeerId(2));
        a.send(PeerId(2), "hello", vec![1, 2, 3]).unwrap();
        let m = b.recv().unwrap();
        assert_eq!(m.from, PeerId(1));
        assert_eq!(m.payload, vec![1, 2, 3]);
    }

    #[test]
    fn unknown_destination_errors() {
        let bus = LiveBus::new();
        let a = bus.join(PeerId(1));
        assert_eq!(
            a.send(PeerId(9), "x", vec![]),
            Err(NetError::UnknownPeer(PeerId(9)))
        );
    }

    #[test]
    fn departed_peer_is_unknown() {
        let bus = LiveBus::new();
        let a = bus.join(PeerId(1));
        {
            let _b = bus.join(PeerId(2));
        }
        assert!(a.send(PeerId(2), "x", vec![]).is_err());
    }

    #[test]
    fn metrics_shared_across_endpoints() {
        let bus = LiveBus::new();
        let a = bus.join(PeerId(1));
        let _b = bus.join(PeerId(2));
        a.send(PeerId(2), "k", vec![0u8; 10]).unwrap();
        a.send(PeerId(2), "k", vec![0u8; 20]).unwrap();
        let m = bus.metrics();
        assert_eq!(m.messages, 2);
        assert_eq!(m.kind("k").bytes, 30);
    }

    #[test]
    fn concurrent_peers_exchange() {
        let bus = LiveBus::new();
        let a = bus.join(PeerId(1));
        let b = bus.join(PeerId(2));
        let t = thread::spawn(move || {
            // Echo server: bounce 100 messages back.
            for _ in 0..100 {
                let m = b.recv().unwrap();
                b.send(m.from, "echo", m.payload).unwrap();
            }
        });
        for i in 0..100u8 {
            a.send(PeerId(2), "ping", vec![i]).unwrap();
        }
        for _ in 0..100 {
            let m = a.recv().unwrap();
            assert_eq!(m.kind, "echo");
        }
        t.join().unwrap();
        assert!(a.try_recv().is_none());
    }

    #[test]
    fn clone_shares_fabric_but_not_inboxes() {
        let mut left = LiveBus::new();
        let mut right = left.clone();
        Transport::register(&mut left, PeerId(1));
        Transport::register(&mut right, PeerId(2));
        // A message sent through either handle reaches the peer attached
        // to the other handle...
        Transport::send(&mut left, PeerId(1), PeerId(2), "k", vec![9].into()).unwrap();
        assert!(
            left.try_recv(PeerId(2)).is_none(),
            "inbox is right's, not left's"
        );
        let m = right.try_recv(PeerId(2)).unwrap();
        assert_eq!(m.payload, vec![9]);
        // ...and both handles see the same metrics.
        assert_eq!(LiveBus::metrics(&left).messages, 1);
        assert_eq!(LiveBus::metrics(&right).messages, 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn cross_handle_id_collision_panics_instead_of_hijacking() {
        let mut left = LiveBus::new();
        let mut right = left.clone();
        Transport::register(&mut left, PeerId(1));
        Transport::register(&mut right, PeerId(1));
    }

    #[test]
    fn dropping_a_handle_releases_its_peer_ids() {
        let hub = LiveBus::new();
        {
            let mut driver = hub.clone();
            Transport::register(&mut driver, PeerId(7));
        }
        // The id is free again once the owning handle is gone.
        let mut next = hub.clone();
        Transport::register(&mut next, PeerId(7));
        Transport::send(&mut next, PeerId(7), PeerId(7), "loop", vec![1].into()).unwrap();
        assert_eq!(next.try_recv(PeerId(7)).unwrap().payload, vec![1]);
    }

    #[test]
    fn failed_send_to_departed_peer_is_not_recorded() {
        let hub = LiveBus::new();
        let a = hub.join(PeerId(1));
        {
            let mut gone = hub.clone();
            Transport::register(&mut gone, PeerId(2));
            // `gone` drops here, unregistering peer 2.
        }
        assert!(a.send(PeerId(2), "x", vec![0u8; 64]).is_err());
        assert_eq!(hub.metrics().messages, 0, "failed sends leave no trace");
    }

    #[test]
    fn dead_channel_is_pruned_on_send_failure() {
        // Force the race window the pruning defends against: a sender
        // entry whose receive side is already gone (no Drop ran for it).
        let bus = LiveBus::new();
        let (tx, rx) = channel();
        bus.lock().bind(PeerId(5), tx);
        drop(rx);
        let a = bus.join(PeerId(1));
        assert!(a.send(PeerId(5), "x", vec![]).is_err());
        assert_eq!(bus.metrics().messages, 0, "failed send leaves no trace");
        // The dead entry was pruned, so the id is free to re-join...
        let e5 = bus.join(PeerId(5));
        // ...and traffic flows to the new owner.
        a.send(PeerId(5), "x", vec![7]).unwrap();
        assert_eq!(e5.try_recv().unwrap().payload, vec![7]);
    }

    #[test]
    fn recv_deadline_waits_for_concurrent_sender() {
        let mut receiver_bus = LiveBus::new();
        Transport::register(&mut receiver_bus, PeerId(2));
        let mut sender_bus = receiver_bus.clone();
        Transport::register(&mut sender_bus, PeerId(1));
        let t = thread::spawn(move || {
            thread::sleep(Duration::from_millis(5));
            Transport::send(
                &mut sender_bus,
                PeerId(1),
                PeerId(2),
                "late",
                Payload::empty(),
            )
            .unwrap();
        });
        let m = receiver_bus
            .recv_deadline(&[PeerId(2)], Instant::now() + Duration::from_secs(5))
            .expect("message arrives within the deadline");
        assert_eq!(m.kind, "late");
        t.join().unwrap();
    }
}
