//! Cross-shard bridges: the only multi-thread surface of the reactor
//! world.
//!
//! A [`ReactorNet`](crate::ReactorNet) is `Rc`-based and must never
//! cross a thread. When several reactors run on separate threads (one
//! shard per core — the `ShardedHost` in `pti-transport`), traffic for a
//! peer owned by *another* shard rides a [`BridgeLink`]: an mpsc channel
//! pair, registered on the sending shard as a **local peer proxy**. A
//! `Transport::send` that resolves to a proxy enqueues the message on
//! the bridge; the owning shard drains it the next time the control
//! thread has it pump. The bridge never wakes a thread: shards work
//! only inside commands.
//!
//! Both endpoints share two atomic counters, crossings and drains, for
//! the *drain barrier*: a sharded host is only quiescent when every
//! shard is idle **and** every bridge reports `pending() == 0` (messages
//! can be in flight between two shards that both look idle). Traffic
//! accounting lives in the origin shard's `NetMetrics`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;

use crate::sim::NetError;
use crate::transport::BusMessage;

/// Counters shared by both endpoints of one bridge.
#[derive(Debug, Default)]
struct BridgeCounters {
    /// Messages enqueued by senders.
    crossings: AtomicU64,
    /// Messages drained by the receiving shard.
    drained: AtomicU64,
}

/// Constructor namespace for bridge endpoint pairs.
#[derive(Debug)]
pub struct BridgeLink;

impl BridgeLink {
    /// Creates a connected sender/receiver endpoint pair. The receiver
    /// belongs to the shard that owns the bridged peers (its host drains
    /// it as an injector queue); clones of the sender are registered as
    /// peer proxies on every other shard.
    pub fn pair() -> (BridgeTx, BridgeRx) {
        let (tx, rx) = channel();
        let counters = Arc::new(BridgeCounters::default());
        (
            BridgeTx {
                tx,
                counters: Arc::clone(&counters),
            },
            BridgeRx { rx, counters },
        )
    }
}

/// The sending half of a bridge: cheap to clone, `Send`, and safe to
/// share — the receiving shard's single-threaded core is never touched,
/// only its channel.
#[derive(Debug, Clone)]
pub struct BridgeTx {
    tx: Sender<BusMessage>,
    counters: Arc<BridgeCounters>,
}

impl BridgeTx {
    /// Enqueues one message for the owning shard.
    ///
    /// # Errors
    /// [`NetError::UnknownPeer`] when the receiving endpoint is gone
    /// (its shard shut down) — the same error a vanished local peer
    /// produces, so senders prune the route identically.
    pub fn send(&self, msg: BusMessage) -> Result<(), NetError> {
        let to = msg.to;
        self.tx.send(msg).map_err(|_| NetError::UnknownPeer(to))?;
        self.counters.crossings.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Messages enqueued but not yet drained by the owning shard. Zero
    /// is only trustworthy from a vantage point that synchronises with
    /// both sides (the sharded host's barrier does — it reads between
    /// serialized pump rounds).
    pub fn pending(&self) -> u64 {
        let crossed = self.counters.crossings.load(Ordering::Acquire);
        let drained = self.counters.drained.load(Ordering::Acquire);
        crossed.saturating_sub(drained)
    }
}

/// The receiving half of a bridge: owned by the shard thread, drained
/// into its reactor's inbound rings as an injector queue.
#[derive(Debug)]
pub struct BridgeRx {
    rx: Receiver<BusMessage>,
    counters: Arc<BridgeCounters>,
}

impl BridgeRx {
    /// Pops the next bridged message, if any. Never blocks.
    pub fn try_drain(&self) -> Option<BusMessage> {
        match self.rx.try_recv() {
            Ok(msg) => {
                self.counters.drained.fetch_add(1, Ordering::Release);
                Some(msg)
            }
            Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::PeerId;

    fn msg(n: u8) -> BusMessage {
        BusMessage {
            from: PeerId(1),
            to: PeerId(2),
            kind: "k",
            payload: vec![n; n as usize].into(),
        }
    }

    #[test]
    fn messages_cross_in_order_with_counted_bytes() {
        let (tx, rx) = BridgeLink::pair();
        tx.send(msg(3)).unwrap();
        tx.send(msg(5)).unwrap();
        assert_eq!(tx.pending(), 2);
        assert_eq!(rx.try_drain().unwrap().payload.len(), 3);
        assert_eq!(tx.pending(), 1, "pending counts the undrained backlog");
        assert_eq!(rx.try_drain().unwrap().payload.len(), 5);
        assert!(rx.try_drain().is_none());
        assert_eq!(tx.pending(), 0);
    }

    #[test]
    fn a_dropped_receiver_reports_unknown_peer() {
        let (tx, rx) = BridgeLink::pair();
        drop(rx);
        assert_eq!(tx.send(msg(1)), Err(NetError::UnknownPeer(PeerId(2))));
        assert_eq!(tx.pending(), 0, "a refused send is not in flight");
    }
}
