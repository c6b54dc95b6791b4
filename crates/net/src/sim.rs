//! The link model and the vocabulary of the virtual-time fabric.
//!
//! The paper measured its prototype on a 2002 Windows laptop; our
//! protocol experiments instead run on a simulated network with explicit
//! latency and bandwidth, which (a) is deterministic, (b) lets the
//! experiments report *bytes* and *virtual time* uninfluenced by host
//! noise, and (c) makes the optimistic-vs-eager comparison (Figure 1)
//! crisp.
//!
//! The model ([`NetConfig`]): each message experiences `latency` plus
//! `size/bandwidth` transmission delay; a (from, to) link transmits one
//! message at a time, so bursts queue behind each other. Time only
//! advances when a receiver takes a delivery. The fabric that applies
//! it is [`ReactorNet`](crate::ReactorNet); [`SimNet`] and
//! [`SharedSimNet`] are its historical names.

use std::fmt;

use crate::payload::Payload;

/// The virtual-time fabric, named for a single protocol driver.
pub type SimNet = crate::ReactorNet;

/// The virtual-time fabric, named for several drivers sharing clones.
pub type SharedSimNet = crate::ReactorNet;

/// Identifies a peer on the simulated network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeerId(pub u32);

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "peer-{}", self.0)
    }
}

/// Link parameters for the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// One-way propagation delay per message, in microseconds.
    pub latency_us: u64,
    /// Link throughput in bytes per second; `u64::MAX` is unlimited.
    pub bandwidth_bps: u64,
}

impl Default for NetConfig {
    /// A 2002-flavoured LAN: 500 µs latency, 100 Mbit/s ≈ 12.5 MB/s.
    fn default() -> Self {
        NetConfig {
            latency_us: 500,
            bandwidth_bps: 12_500_000,
        }
    }
}

impl NetConfig {
    /// A slow wide-area profile (20 ms, 1 MB/s) where the optimistic
    /// protocol's byte savings dominate.
    pub fn wan() -> NetConfig {
        NetConfig {
            latency_us: 20_000,
            bandwidth_bps: 1_000_000,
        }
    }

    /// No link model: zero latency and unlimited bandwidth, so every
    /// message is due the instant it is sent and a receive never moves
    /// the clock. The reactor host's configuration.
    pub fn ideal() -> NetConfig {
        NetConfig {
            latency_us: 0,
            bandwidth_bps: u64::MAX,
        }
    }

    /// Transmission time of `bytes` on this link, in microseconds
    /// (rounded up; zero on an unlimited link).
    pub fn tx_us(&self, bytes: usize) -> u64 {
        if self.bandwidth_bps == u64::MAX {
            return 0;
        }
        (bytes as u64)
            .saturating_mul(1_000_000)
            .div_ceil(self.bandwidth_bps.max(1))
    }
}

/// A delivered message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Sending peer.
    pub from: PeerId,
    /// Destination peer.
    pub to: PeerId,
    /// Application-level kind tag (used for metrics breakdowns). Always
    /// a constant — allocation never rides the send path.
    pub kind: &'static str,
    /// Opaque payload bytes — shared with the sender (and, on a fan-out,
    /// with every sibling destination), never copied per hop.
    pub payload: Payload,
    /// Virtual time (µs) the message was handed to the network.
    pub sent_at: u64,
    /// Virtual time (µs) the message becomes available at `to`.
    pub deliver_at: u64,
}

/// Errors from the simulated network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Destination peer was never registered.
    UnknownPeer(PeerId),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownPeer(p) => write!(f, "unknown peer {p}"),
        }
    }
}

impl std::error::Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::transport::Transport;

    fn net() -> SimNet {
        let mut n = SimNet::new(NetConfig {
            latency_us: 1000,
            bandwidth_bps: 1_000_000,
        });
        n.register(PeerId(1));
        n.register(PeerId(2));
        n
    }

    fn send(n: &mut SimNet, from: u32, to: u32, kind: &'static str, bytes: Vec<u8>) {
        n.send(PeerId(from), PeerId(to), kind, bytes.into())
            .unwrap();
    }

    #[test]
    fn delivery_accounts_latency_and_bandwidth() {
        let mut n = net();
        // 1000 bytes at 1 MB/s = 1000 µs tx + 1000 µs latency.
        send(&mut n, 1, 2, "object", vec![0u8; 1000]);
        assert_eq!(n.now_us(), 0, "sending does not move the clock");
        let m = n.recv(PeerId(2)).unwrap();
        assert_eq!((m.sent_at, m.deliver_at), (0, 2000));
        assert_eq!(n.now_us(), 2000, "clock advanced to delivery");
    }

    #[test]
    fn link_serializes_bursts() {
        let mut n = net();
        send(&mut n, 1, 2, "x", vec![0u8; 1000]);
        send(&mut n, 1, 2, "x", vec![0u8; 1000]);
        assert_eq!(n.recv(PeerId(2)).unwrap().deliver_at, 2000);
        assert_eq!(
            n.recv(PeerId(2)).unwrap().deliver_at,
            3000,
            "second message queues behind the first's tx time"
        );
    }

    #[test]
    fn unknown_peer_rejected() {
        let mut n = net();
        assert_eq!(
            n.send(PeerId(1), PeerId(9), "x", Payload::empty()),
            Err(NetError::UnknownPeer(PeerId(9)))
        );
    }

    #[test]
    fn recv_order_is_by_delivery_time() {
        let mut n = net();
        send(&mut n, 1, 2, "big", vec![0u8; 5000]);
        send(&mut n, 1, 2, "small", vec![0u8; 10]);
        // Same link ⇒ FIFO by construction; but from another peer a small
        // message can overtake.
        n.register(PeerId(3));
        send(&mut n, 3, 2, "tiny", vec![]);
        let order: Vec<_> = std::iter::from_fn(|| n.recv(PeerId(2)))
            .map(|m| m.kind)
            .collect();
        assert_eq!(order, ["tiny", "big", "small"], "independent link first");
    }

    #[test]
    fn metrics_track_traffic() {
        let mut n = net();
        send(&mut n, 1, 2, "object", vec![0u8; 128]);
        send(&mut n, 2, 1, "desc", vec![0u8; 64]);
        assert_eq!(n.metrics().messages, 2);
        assert_eq!(n.metrics().bytes, 192);
        assert_eq!(n.metrics().kind("desc").bytes, 64);
        n.reset_metrics();
        assert_eq!(n.metrics().messages, 0);
    }

    #[test]
    fn empty_inbox_returns_none() {
        let mut n = net();
        assert!(n.recv(PeerId(1)).is_none());
        assert!(n.recv(PeerId(42)).is_none(), "unknown peer inbox is None");
    }

    #[test]
    fn shared_handles_drive_one_fabric() {
        let mut left = SharedSimNet::new(NetConfig::default());
        let mut right = left.clone();
        left.register(PeerId(1));
        right.register(PeerId(2));
        // A send through one handle is received through the other...
        left.send(PeerId(1), PeerId(2), "k", vec![9].into())
            .unwrap();
        let m = right.try_recv(PeerId(2)).expect("shared inboxes");
        assert_eq!(m.from, PeerId(1));
        assert_eq!(m.payload, vec![9]);
        // ...the virtual clock and metrics are shared too.
        assert!(left.now_us() > 0);
        assert_eq!(left.now_us(), right.now_us());
        assert_eq!(left.metrics().messages, 1);
        assert_eq!(right.metrics().messages, 1);
    }

    #[test]
    fn fault_plan_drops_and_duplicates_deterministically() {
        let mut n = net();
        n.install_fault_plan(FaultPlan::new(1).with_loss(1000));
        send(&mut n, 1, 2, "x", vec![1]);
        assert_eq!(n.pending(PeerId(2)), 0, "dropped before the inbox");
        assert_eq!(n.metrics().faults_dropped, 1);
        assert_eq!(n.metrics().messages, 1, "the send itself is accounted");
        n.install_fault_plan(FaultPlan::new(1).with_duplication(1000));
        send(&mut n, 1, 2, "x", vec![2]);
        assert_eq!(n.pending(PeerId(2)), 2, "duplicated into the inbox");
        assert_eq!(n.metrics().faults_duplicated, 1);
        n.install_fault_plan(FaultPlan::new(1));
        send(&mut n, 1, 2, "x", vec![3]);
        assert_eq!(n.pending(PeerId(2)), 3);
    }

    #[test]
    fn fault_partition_blocks_then_heals() {
        let mut n = net();
        n.install_fault_plan(FaultPlan::new(1).with_partition([PeerId(2)], 0, 2));
        send(&mut n, 1, 2, "x", vec![1]);
        send(&mut n, 2, 1, "x", vec![2]);
        assert_eq!(n.pending(PeerId(2)), 0);
        assert_eq!(n.pending(PeerId(1)), 0);
        assert_eq!(n.metrics().faults_partitioned, 2);
        // Step 2: healed.
        send(&mut n, 1, 2, "x", vec![3]);
        assert_eq!(n.pending(PeerId(2)), 1);
    }

    #[test]
    fn advance_clock_only_moves_forward() {
        let n = net();
        n.advance_clock_to(5000);
        assert_eq!(n.now_us(), 5000);
        n.advance_clock_to(100);
        assert_eq!(n.now_us(), 5000, "never rewinds");
    }

    #[test]
    fn wan_profile_slower_than_lan() {
        let lan = NetConfig::default();
        let wan = NetConfig::wan();
        assert!(wan.tx_us(100_000) > lan.tx_us(100_000));
        assert!(wan.latency_us > lan.latency_us);
    }

    #[test]
    fn an_ideal_link_costs_no_time_however_large_the_payload() {
        let ideal = NetConfig::ideal();
        assert_eq!(ideal.tx_us(usize::MAX), 0);
        let mut n = SimNet::new(ideal);
        n.register(PeerId(1));
        n.register(PeerId(2));
        n.advance_clock_to(5000);
        send(&mut n, 1, 2, "x", vec![0u8; 1 << 20]);
        let m = n.recv(PeerId(2)).unwrap();
        assert_eq!((m.sent_at, m.deliver_at), (5000, 5000));
        assert_eq!(n.now_us(), 5000, "a receive never moves the clock");
    }
}
