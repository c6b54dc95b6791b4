//! # pti-net — simulated peers and network
//!
//! The paper evaluates its protocol on a physical 2002 testbed; this
//! crate replaces that hardware with one fabric, [`ReactorNet`]: the
//! deterministic **virtual-time** fabric. A [`NetConfig`] link model
//! (latency, bandwidth, per-link serialization) stamps every message
//! with its delivery time, and all protocol experiments (optimistic vs
//! eager, Figure 1) run on it so results are reproducible and expressed
//! in bytes + virtual microseconds. The same core is readiness-driven
//! (inbound rings and a wakeup queue), which lets one
//! thread drive thousands of swarms; see the [`reactor`] module docs.
//! [`SimNet`] and [`SharedSimNet`] are its historical names, and
//! several swarms share one fabric by taking a
//! [`session`](ReactorNet::session) each.
//!
//! Real threads appear only one level up, in `pti-transport`'s
//! `ShardedHost`: one reactor per thread, linked by [`BridgeLink`]
//! channel pairs (see the [`bridge`] module docs) — the only
//! cross-thread surface of this crate.
//!
//! [`ReactorNet`] implements the [`Transport`] trait — the seam the
//! protocol engine (`pti-transport`'s `Swarm<T: Transport>`) is generic
//! over — and accounts traffic in [`NetMetrics`].
//!
//! ## Lint conventions
//!
//! This crate is deny-tier for the `pti-lint` fabric rules (see
//! `crates/analyze` and the "Static analysis" section of
//! ARCHITECTURE.md): no wall-clock reads and no thread primitives
//! anywhere in the crate, and every
//! `unwrap`/`expect`/`panic!` must state its invariant in a
//! `pti-allow(panic-policy): reason` comment on or directly above the
//! line. The reason is the documentation — write the invariant that
//! makes the panic unreachable, not a restatement of the code.
//!
//! ## Example
//!
//! ```
//! use pti_net::{NetConfig, PeerId, ReactorNet, Transport};
//!
//! let mut net = ReactorNet::new(NetConfig::default());
//! net.register(PeerId(1));
//! net.register(PeerId(2));
//! net.send(PeerId(1), PeerId(2), "object", vec![0u8; 1024].into())
//!     .unwrap();
//! let msg = net.recv(PeerId(2)).unwrap();
//! assert_eq!(msg.kind, "object");
//! assert!(net.now_us() > 0, "virtual time advanced");
//! assert_eq!(net.metrics().bytes, 1024);
//! ```

#![warn(missing_docs)]

pub mod bridge;
mod fault;
mod frame;
mod metrics;
mod payload;
pub mod reactor;
mod sim;
mod transport;

pub use bridge::{BridgeLink, BridgeRx, BridgeTx};
pub use fault::{FaultDecision, FaultPlan, Partition};
pub use frame::{kinds, Frame, FrameBatch, FrameDecodeError};
pub use metrics::{KindMetrics, LinkBatchMetrics, NetMetrics};
pub use payload::Payload;
pub use reactor::{ReactorNet, ReactorStats, SessionId};
pub use sim::{Message, NetConfig, NetError, PeerId, SharedSimNet, SimNet};
pub use transport::{BusMessage, Transport};
