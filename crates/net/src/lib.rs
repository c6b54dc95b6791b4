//! # pti-net — simulated peers and network
//!
//! The paper evaluates its protocol on a physical 2002 testbed; this
//! crate replaces that hardware with two interchangeable fabrics:
//!
//! * [`ReactorNet`] — the deterministic **virtual-time** fabric. A
//!   [`NetConfig`] link model (latency, bandwidth, per-link
//!   serialization) stamps every message with its delivery time, and
//!   all protocol experiments (optimistic vs eager, Figure 1) run on it
//!   so results are reproducible and expressed in bytes + virtual
//!   microseconds. The same core is readiness-driven (inbound rings, a
//!   wakeup queue and a timer heap), which lets one thread drive
//!   thousands of swarms; see the [`reactor`] module docs. [`SimNet`]
//!   and [`SharedSimNet`] are its historical names. Reactors on
//!   separate threads link up through [`BridgeLink`] channel pairs (see
//!   the [`bridge`] module docs) — the only cross-thread surface of the
//!   virtual-time world.
//! * [`LiveBus`] — a std-channel bus for **actually concurrent** peers,
//!   used by stress tests and examples that want real threads.
//!
//! Both implement the [`Transport`] trait — the seam the protocol
//! engine (`pti-transport`'s `Swarm<T: Transport>`) is generic over, so
//! the same optimistic protocol drives either fabric — and share the
//! [`NetMetrics`] accounting shape.
//!
//! ## Lint conventions
//!
//! This crate is deny-tier for the `pti-lint` fabric rules (see
//! `crates/analyze` and the "Static analysis" section of
//! ARCHITECTURE.md): no wall-clock reads outside `bus`/`bridge`, no
//! thread primitives outside `bus`/`bridge`, and every
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
mod bus;
mod fault;
mod frame;
mod metrics;
mod payload;
pub mod reactor;
mod sim;
mod transport;

pub use bridge::{BridgeLink, BridgeRx, BridgeTx};
pub use bus::{BusMessage, Endpoint, LiveBus};
pub use fault::{FaultDecision, FaultPlan, Partition};
pub use frame::{kinds, Frame, FrameBatch, FrameDecodeError};
pub use metrics::{KindMetrics, LinkBatchMetrics, NetMetrics};
pub use payload::Payload;
pub use reactor::{ReactorNet, ReactorStats, SessionId};
pub use sim::{Message, NetConfig, NetError, PeerId, SharedSimNet, SimNet};
pub use transport::Transport;
