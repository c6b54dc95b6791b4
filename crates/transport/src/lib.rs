//! # pti-transport — the optimistic transport protocol (Figure 1)
//!
//! The paper's protocol for exchanging objects of possibly-unknown types
//! between peers, "optimistic in the sense that the code of the object as
//! well as its type representation are not always sent with the object
//! itself, but only when needed":
//!
//! 1. **Receiving an object** — the hybrid envelope arrives (type id +
//!    download paths + payload).
//! 2. **Asking for the new object type information** — only if the type
//!    is unknown locally.
//! 3. **Receiving type information, rules check** — implicit structural
//!    conformance against the peer's *types of interest*.
//! 4. **Types conform, asking for the code** — only after a successful
//!    check.
//! 5. **Receiving the code, object usable** — assembly installed, object
//!    deserialized, wrapped in a dynamic proxy for the matched interest.
//!
//! A [`Swarm`] wires [`Peer`]s to the [`Transport`](pti_net::Transport)
//! fabric and drives this exchange: [`SimSwarm`] (= `Swarm<SimNet>`) is
//! the deterministic virtual-time engine the experiments run on. Several
//! swarms share one fabric through its sessions, a [`ReactorHost`] runs
//! thousands of them on one thread, and a [`ShardedHost`] runs the
//! *identical* state machine on real threads — one reactor per thread,
//! bridged — with a shared [`CodeRegistry`] standing in for a code
//! server. [`Swarm::send_object_eager`] implements the ship-everything
//! baseline the protocol is measured against (experiment F1).
//!
//! ## Lint conventions
//!
//! This crate is deny-tier for the `pti-lint` fabric rules (see
//! `crates/analyze` and the "Static analysis" section of
//! ARCHITECTURE.md): no wall-clock reads on the protocol or codec
//! paths, hash-map iteration is banned in the files whose order reaches
//! the wire or a compared log (`membership`, `routing`, `swarm`,
//! `sharded`, `peer`), thread primitives live only in `sharded`, and
//! every `unwrap`/`expect`/`panic!` needs a
//! `pti-allow(panic-policy): reason` comment stating the invariant that
//! makes it unreachable.
//!
//! ## Example
//!
//! ```
//! use pti_conformance::ConformanceConfig;
//! use pti_metamodel::{Assembly, TypeDef, TypeDescription, Value, bodies, primitives};
//! use pti_net::NetConfig;
//! use pti_serialize::PayloadFormat;
//! use pti_transport::{Delivery, Swarm};
//!
//! let mut swarm = Swarm::new(NetConfig::default());
//! let alice = swarm.add_peer(ConformanceConfig::pragmatic());
//! let bob = swarm.add_peer(ConformanceConfig::pragmatic());
//!
//! // Alice publishes her Person implementation.
//! let person = TypeDef::class("Person", "alice")
//!     .field("name", primitives::STRING)
//!     .method("getName", vec![], primitives::STRING)
//!     .ctor(vec![])
//!     .build();
//! let g = person.guid;
//! swarm.publish(alice, Assembly::builder("alice-person")
//!     .ty(person.clone())
//!     .body(g, "getName", 0, bodies::getter("name"))
//!     .ctor_body(g, 0, bodies::ctor_assign(&[]))
//!     .build())?;
//!
//! // Bob is interested in structurally conformant Persons.
//! let bob_person = TypeDef::class("Person", "bob")
//!     .field("name", primitives::STRING)
//!     .method("getName", vec![], primitives::STRING)
//!     .build();
//! swarm.peer_mut(bob).subscribe(TypeDescription::from_def(&bob_person));
//!
//! // Alice sends an object; the protocol fetches description + code.
//! let h = swarm.peer_mut(alice).runtime.instantiate(&"Person".into(), &[])?;
//! swarm.peer_mut(alice).runtime.set_field(h, "name", Value::from("ada"))?;
//! swarm.send_object(alice, bob, &Value::Obj(h), PayloadFormat::Binary)?;
//! swarm.run()?;
//!
//! let deliveries = swarm.peer_mut(bob).take_deliveries();
//! let Delivery::Accepted { proxy: Some(proxy), .. } = &deliveries[0] else { panic!() };
//! let got = proxy.invoke(&mut swarm.peer_mut(bob).runtime, "getName", &[])?;
//! assert_eq!(got.as_str()?, "ada");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod code;
mod delivery;
mod error;
mod membership;
mod peer;
pub mod reactor_host;
mod routing;
pub mod sharded;
mod swarm;

pub use code::CodeRegistry;
pub use delivery::{
    decode_reliable_header, DeliveryConfig, DeliveryEngine, DeliveryStats, Inbound, PollOutcome,
    QoS, RetainedEvent, RELIABLE_HEADER_LEN,
};
pub use error::{Result, TransportError};
pub use membership::{InterestAnnounce, MembershipView, ViewDelta};
pub use peer::{Delivery, Peer, PeerProvider, ProtocolStats, Published};
pub use reactor_host::{MountedSwarm, ReactorHost, DEFAULT_FAIRNESS_BUDGET};
pub use routing::{RoutingTable, Signature};
pub use sharded::ShardedHost;
pub use swarm::{
    kinds, ReactorSwarm, SimSwarm, Swarm, DEFAULT_WIRE_MAX_BYTES, DEFAULT_WIRE_MAX_FRAMES,
};
