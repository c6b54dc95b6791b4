//! # pti — Pragmatic Type Interoperability
//!
//! A from-scratch Rust reproduction of *Pragmatic Type Interoperability*
//! (Baehni, Eugster, Guerraoui, Altherr; ICDCS 2003): making types that
//! "aim at representing the same software module" — written by different
//! programmers, with different member names, on different platforms —
//! usable as one type in a dynamic distributed system.
//!
//! This umbrella crate re-exports the whole stack:
//!
//! | layer | crate | paper section |
//! |---|---|---|
//! | runtime type system + introspection | [`metamodel`] | §5 (substrate) |
//! | XML substrate | [`xml`] | §5.2 |
//! | implicit structural conformance | [`conformance`] | §4, Figure 2 |
//! | type-description + object serializers | [`serialize`] | §5–6, Figure 3 |
//! | dynamic proxies | [`proxy`] | §6, §7.1 |
//! | virtual-time transport fabric (ReactorNet alias SimNet) | [`net`] | testbed substitute |
//! | optimistic transport protocol | [`transport`] | §3, Figure 1 |
//! | pass-by-reference remoting | [`remoting`] | §6.2 |
//! | type-based publish/subscribe | [`tps`] | §8 |
//! | borrow/lend resources | [`borrowlend`] | §8 |
//!
//! The protocol engine ([`Swarm`](transport::Swarm)) runs over the
//! [`Transport`](net::Transport) trait, implemented by one
//! deterministic virtual-time fabric, [`SimNet`](net::SimNet). The
//! *same* optimistic-exchange state machine runs standalone, on
//! sessions of a shared fabric, on a
//! [`ReactorHost`](transport::ReactorHost) (thousands of swarms, one
//! thread), and on a [`ShardedHost`](transport::ShardedHost), the one
//! place real threads run (one reactor per thread). Applications sit on
//! the typed session layer of [`tps`]: members, publishers and
//! subscriptions, never raw envelopes.
//!
//! The [`samples`] module carries the paper's `Person` types and the
//! seeded workload generators the experiment harness sweeps over;
//! [`prelude`] pulls in the names almost every program needs.
//!
//! ## Quickstart
//!
//! ```
//! use pti_core::prelude::*;
//! use pti_core::samples;
//!
//! // Two members, two vendors, one logical Person module.
//! let tps = TypedPubSub::builder()
//!     .default_conformance(ConformanceConfig::pragmatic())
//!     .build();
//! let alice = tps.add_member();
//! let bob = tps.add_member();
//!
//! // Alice publishes vendor A's implementation and gets a typed
//! // publisher for it; Bob subscribes with vendor B's view.
//! let a_def = samples::person_vendor_a();
//! let people = alice.publisher_for(samples::person_assembly(&a_def))?;
//! let b_def = samples::person_vendor_b();
//! let sub = bob.subscribe(TypeDescription::from_def(&b_def));
//!
//! // One publish; the optimistic protocol fetches description + code.
//! people.publish_with(|p| {
//!     p.set("name", "ada")?;
//!     Ok(())
//! })?;
//! tps.run()?;
//!
//! // Bob reads the event through *his* contract.
//! let events = sub.drain();
//! assert_eq!(sub.invoke(&events[0], "getPersonName", &[])?.as_str()?, "ada");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub use pti_borrowlend as borrowlend;
pub use pti_conformance as conformance;
pub use pti_metamodel as metamodel;
pub use pti_net as net;
pub use pti_proxy as proxy;
pub use pti_remoting as remoting;
pub use pti_serialize as serialize;
pub use pti_tps as tps;
pub use pti_transport as transport;
pub use pti_xml as xml;

pub mod samples;

/// The names almost every PTI program needs.
pub mod prelude {
    pub use pti_borrowlend::{Borrowed, Market};
    pub use pti_conformance::{
        Ambiguity, BehavioralReport, BehavioralTester, Conformance, ConformanceBinding,
        ConformanceChecker, ConformanceConfig, NameMatcher, NonConformance, Variance,
    };
    pub use pti_metamodel::{
        bodies, primitives, Assembly, Guid, MetamodelError, ObjHandle, ParamDef, Runtime, TypeDef,
        TypeDescription, TypeName, TypeRegistry, Value,
    };
    pub use pti_net::{
        BridgeLink, BridgeRx, BridgeTx, BusMessage, FaultDecision, FaultPlan, NetConfig,
        NetMetrics, Partition, Payload, PeerId, ReactorNet, ReactorStats, SessionId, SharedSimNet,
        SimNet, Transport,
    };
    pub use pti_proxy::{invoke_direct, DynamicProxy, ProxyError};
    pub use pti_remoting::{RemoteProxy, RemoteRef, RemotingFabric};
    pub use pti_serialize::{
        description_from_string, description_to_string, from_binary, from_soap_string, to_binary,
        to_soap_string, EnvelopeWireFormat, ObjectEnvelope, PayloadFormat,
    };
    pub use pti_tps::{
        EventBuilder, EventNotification, Member, Publisher, ShardedGroup, Subscription, TypedPubSub,
    };
    pub use pti_transport::{
        CodeRegistry, Delivery, DeliveryConfig, DeliveryStats, MembershipView, MountedSwarm, Peer,
        ProtocolStats, QoS, ReactorHost, ReactorSwarm, RoutingTable, ShardedHost, Signature,
        SimSwarm, Swarm, TransportError, ViewDelta,
    };
}
