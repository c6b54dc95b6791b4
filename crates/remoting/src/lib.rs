//! # pti-remoting — pass-by-reference semantics (paper Section 6.2)
//!
//! The pass-by-value protocol ships an object's *state*; pass-by-reference
//! ships a **remote reference** and routes invocations back to the owner.
//! The paper's key observation is that plain remoting proxies are not
//! enough when the client's expected type `T` only *implicitly* matches
//! the server's type `T'`: "the interposing of a dynamic proxy as a
//! wrapper is necessary since `T` and `T'` are not explicitly
//! compatible". A [`RemoteProxy`] here is exactly that wrapper — a
//! remoting stub whose method table is a [`ConformanceBinding`], so the
//! client invokes under its own contract and the wire carries the
//! server's actual method names.
//!
//! The fabric layers three message kinds over the transport swarm:
//! `remote-ref` (reference transfer, triggering description download and
//! the conformance check), `invoke-request` and `invoke-response`
//! (arguments and results pass by value, SOAP-encoded).
//!
//! Only the type *description* crosses the wire for pass-by-reference —
//! never the code; that is the complementary saving to Figure 1's.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::Arc;

use pti_conformance::{ConformanceBinding, Contract};
use pti_metamodel::{Guid, ObjHandle, TypeDescription, TypeName, Value};
use pti_net::{BusMessage, PeerId, Transport};
use pti_serialize::{from_soap, to_soap};
use pti_transport::{Swarm, TransportError};
use pti_xml::Element;

/// Message kinds added by the remoting layer.
pub mod kinds {
    /// A remote reference being offered to a peer.
    pub const REMOTE_REF: &str = "remote-ref";
    /// An invocation request (client → owner).
    pub const INVOKE_REQUEST: &str = "invoke-request";
    /// An invocation response (owner → client).
    pub const INVOKE_RESPONSE: &str = "invoke-response";
}

/// Result alias reusing the transport error type.
pub type Result<T> = std::result::Result<T, TransportError>;

/// A network-wide reference to an object living on another peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteRef {
    /// The peer owning the object.
    pub owner: PeerId,
    /// The export id on the owner.
    pub object_id: u64,
    /// Identity of the object's type.
    pub type_guid: Guid,
    /// Name of the object's type.
    pub type_name: TypeName,
    /// Where the type's description can be downloaded.
    pub desc_path: String,
}

impl RemoteRef {
    fn to_xml(&self) -> Element {
        Element::new("remoteRef")
            .attr("owner", self.owner.0.to_string())
            .attr("object", self.object_id.to_string())
            .attr("guid", self.type_guid.to_string())
            .attr("type", self.type_name.full())
            .attr("desc", &self.desc_path)
    }

    fn from_xml(el: &Element) -> Result<RemoteRef> {
        let attr = |k: &str| {
            el.get_attr(k)
                .map(str::to_string)
                .ok_or_else(|| TransportError::Protocol(format!("remoteRef missing `{k}`")))
        };
        Ok(RemoteRef {
            owner: PeerId(
                attr("owner")?
                    .parse()
                    .map_err(|_| TransportError::Protocol("bad owner".into()))?,
            ),
            object_id: attr("object")?
                .parse()
                .map_err(|_| TransportError::Protocol("bad object id".into()))?,
            type_guid: attr("guid")?
                .parse()
                .map_err(|_| TransportError::Protocol("bad guid".into()))?,
            type_name: TypeName::new(attr("type")?),
            desc_path: attr("desc")?,
        })
    }
}

/// A client-side stub for a remote object, exposing the *client's*
/// expected contract and translating to the owner's actual type through
/// the conformance binding. The contract is the client checker's cached
/// one for the `(remote type, interest)` pair, shared, not copied.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteProxy {
    /// The wire reference.
    pub remote: RemoteRef,
    contract: Arc<Contract>,
}

impl RemoteProxy {
    /// The expected (client-side) type the proxy exposes.
    pub fn expected(&self) -> &TypeDescription {
        self.contract.expected()
    }

    /// The binding translating expected members to actual ones.
    pub fn binding(&self) -> &ConformanceBinding {
        self.contract.binding()
    }
}

#[derive(Debug, Default)]
struct Exports {
    next_id: u64,
    by_id: HashMap<u64, ObjHandle>,
}

/// The remoting fabric: export tables, in-flight requests and received
/// references, layered over a [`Swarm`].
#[derive(Debug, Default)]
pub struct RemotingFabric {
    exports: HashMap<PeerId, Exports>,
    next_request: u64,
    responses: HashMap<u64, std::result::Result<Vec<u8>, String>>,
    /// References waiting for their type description, per receiving peer.
    pending_refs: Vec<(PeerId, RemoteRef)>,
    requested_descs: HashMap<PeerId, Vec<String>>,
    arrived: HashMap<PeerId, Vec<RemoteProxy>>,
    rejected: HashMap<PeerId, Vec<RemoteRef>>,
}

impl RemotingFabric {
    /// Creates an empty fabric.
    pub fn new() -> RemotingFabric {
        RemotingFabric::default()
    }

    /// Exports an object at its owner, returning the wire reference.
    ///
    /// The object's type must have been *published* on the owner (the
    /// reference carries the description download path).
    ///
    /// # Errors
    /// Dangling handles or unpublished types.
    pub fn export<T: Transport>(
        &mut self,
        swarm: &Swarm<T>,
        owner: PeerId,
        handle: ObjHandle,
    ) -> Result<RemoteRef> {
        let peer = swarm.peer(owner);
        let def = peer.runtime.type_of(handle)?;
        // Find the publication exposing this type's description.
        let env = peer.make_envelope(&Value::Obj(handle), pti_serialize::PayloadFormat::Binary)?;
        let root_asm = env
            .assemblies
            .first()
            .ok_or_else(|| TransportError::NoProvenance(def.name.clone()))?;
        let exports = self.exports.entry(owner).or_default();
        exports.next_id += 1;
        let object_id = exports.next_id;
        exports.by_id.insert(object_id, handle);
        Ok(RemoteRef {
            owner,
            object_id,
            type_guid: def.guid,
            type_name: def.name.clone(),
            desc_path: root_asm.description_path.clone(),
        })
    }

    /// Sends a remote reference to another peer (the "lend" direction).
    ///
    /// # Errors
    /// Unknown destination.
    pub fn offer<T: Transport>(
        &mut self,
        swarm: &mut Swarm<T>,
        from: PeerId,
        to: PeerId,
        rref: &RemoteRef,
    ) -> Result<()> {
        swarm.send_raw(
            from,
            to,
            kinds::REMOTE_REF,
            rref.to_xml().to_compact().into_bytes(),
        )
    }

    /// Drives transport + remoting until the network is quiet.
    ///
    /// # Errors
    /// Protocol violations in either layer.
    pub fn run<T: Transport>(&mut self, swarm: &mut Swarm<T>) -> Result<()> {
        loop {
            // Ship anything the routed publish path queued on the wire;
            // this pump replaces Swarm::run, so it must flush like it.
            swarm.flush_wire();
            let Some((at, msg)) = swarm.poll_message()? else {
                return Ok(());
            };
            if pti_transport::kinds::is_protocol(msg.kind) {
                swarm.dispatch(at, msg)?;
            } else {
                self.handle(swarm, at, msg)?;
            }
            self.settle_refs(swarm)?;
        }
    }

    /// Remote proxies that finished their conformance handshake at `peer`.
    pub fn take_proxies(&mut self, peer: PeerId) -> Vec<RemoteProxy> {
        self.arrived.remove(&peer).unwrap_or_default()
    }

    /// References rejected by the conformance check at `peer`.
    pub fn take_rejected(&mut self, peer: PeerId) -> Vec<RemoteRef> {
        self.rejected.remove(&peer).unwrap_or_default()
    }

    /// Invokes a method on a remote object through its proxy: a
    /// synchronous RPC over the virtual network. Arguments and the result
    /// pass by value.
    ///
    /// # Errors
    /// Out-of-contract methods, transport failures, or server-side
    /// dispatch errors (reported as [`TransportError::Protocol`]).
    pub fn invoke<T: Transport>(
        &mut self,
        swarm: &mut Swarm<T>,
        caller: PeerId,
        proxy: &RemoteProxy,
        method: &str,
        args: &[Value],
    ) -> Result<Value> {
        let mb = proxy.binding().method(method, args.len()).ok_or_else(|| {
            TransportError::Protocol(format!(
                "method `{method}/{}` is not in the expected contract",
                args.len()
            ))
        })?;
        let actual_args = mb.reorder(args);
        self.next_request += 1;
        let request_id = self.next_request;
        let args_xml = to_soap(&swarm.peer(caller).runtime, &Value::Array(actual_args))?;
        let req = Element::new("invokeRequest")
            .attr("id", request_id.to_string())
            .attr("object", proxy.remote.object_id.to_string())
            .attr("method", &mb.actual_name)
            .child(args_xml);
        swarm.send_raw(
            caller,
            proxy.remote.owner,
            kinds::INVOKE_REQUEST,
            req.to_compact().into_bytes(),
        )?;
        // Synchronously pump the network until our response arrives: the
        // virtual-time fabric either answers or is definitively quiet.
        loop {
            if let Some(outcome) = self.responses.remove(&request_id) {
                let xml = outcome.map_err(TransportError::Protocol)?;
                let text = String::from_utf8(xml)
                    .map_err(|_| TransportError::Protocol("response not utf8".into()))?;
                let el = pti_xml::parse(&text).map_err(pti_serialize::SerializeError::from)?;
                return Ok(from_soap(&mut swarm.peer_mut(caller).runtime, &el)?);
            }
            swarm.flush_wire();
            match swarm.poll_message()? {
                Some((at, msg)) => {
                    if pti_transport::kinds::is_protocol(msg.kind) {
                        swarm.dispatch(at, msg)?;
                    } else {
                        self.handle(swarm, at, msg)?;
                    }
                    self.settle_refs(swarm)?;
                }
                None => {
                    return Err(TransportError::Protocol(
                        "network quiet but invocation unanswered".into(),
                    ))
                }
            }
        }
    }

    fn handle<T: Transport>(
        &mut self,
        swarm: &mut Swarm<T>,
        at: PeerId,
        msg: BusMessage,
    ) -> Result<()> {
        match msg.kind {
            kinds::REMOTE_REF => {
                let text = std::str::from_utf8(&msg.payload)
                    .map_err(|_| TransportError::Protocol("ref not utf8".into()))?;
                let el = pti_xml::parse(text).map_err(pti_serialize::SerializeError::from)?;
                let rref = RemoteRef::from_xml(&el)?;
                // Fetch the description if unknown, then settle.
                if !swarm.peer(at).knows_description(rref.type_guid) {
                    let requested = self.requested_descs.entry(at).or_default();
                    if !requested.contains(&rref.desc_path) {
                        requested.push(rref.desc_path.clone());
                        swarm.send_raw(
                            at,
                            rref.owner,
                            pti_transport::kinds::DESC_REQUEST,
                            rref.desc_path.clone().into_bytes(),
                        )?;
                    }
                }
                self.pending_refs.push((at, rref));
                Ok(())
            }
            kinds::INVOKE_REQUEST => {
                let text = std::str::from_utf8(&msg.payload)
                    .map_err(|_| TransportError::Protocol("request not utf8".into()))?;
                let el = pti_xml::parse(text).map_err(pti_serialize::SerializeError::from)?;
                let id: u64 = el
                    .get_attr("id")
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| TransportError::Protocol("request missing id".into()))?;
                let outcome = self.serve(swarm, at, &el);
                let resp = match outcome {
                    Ok(value_xml) => Element::new("invokeResponse")
                        .attr("id", id.to_string())
                        .child(value_xml),
                    Err(e) => Element::new("invokeResponse")
                        .attr("id", id.to_string())
                        .child(Element::new("error").text(e.to_string())),
                };
                swarm.send_raw(
                    at,
                    msg.from,
                    kinds::INVOKE_RESPONSE,
                    resp.to_compact().into_bytes(),
                )?;
                Ok(())
            }
            kinds::INVOKE_RESPONSE => {
                let text = std::str::from_utf8(&msg.payload)
                    .map_err(|_| TransportError::Protocol("response not utf8".into()))?;
                let el = pti_xml::parse(text).map_err(pti_serialize::SerializeError::from)?;
                let id: u64 = el
                    .get_attr("id")
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| TransportError::Protocol("response missing id".into()))?;
                let outcome = match el.find("error") {
                    Some(err) => Err(err.text_content()),
                    None => {
                        let inner = el.elements().next().ok_or_else(|| {
                            TransportError::Protocol("empty invoke response".into())
                        })?;
                        Ok(inner.to_compact().into_bytes())
                    }
                };
                self.responses.insert(id, outcome);
                Ok(())
            }
            other => Err(TransportError::Protocol(format!(
                "unknown message kind `{other}`"
            ))),
        }
    }

    /// Server-side dispatch of one invocation request.
    fn serve<T: Transport>(
        &mut self,
        swarm: &mut Swarm<T>,
        owner: PeerId,
        el: &Element,
    ) -> Result<Element> {
        let object_id: u64 = el
            .get_attr("object")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| TransportError::Protocol("request missing object".into()))?;
        let method = el
            .get_attr("method")
            .ok_or_else(|| TransportError::Protocol("request missing method".into()))?
            .to_string();
        let handle = self
            .exports
            .get(&owner)
            .and_then(|e| e.by_id.get(&object_id))
            .copied()
            .ok_or_else(|| TransportError::Protocol(format!("no export #{object_id}")))?;
        let args_env = el
            .find("Envelope")
            .ok_or_else(|| TransportError::Protocol("request missing args".into()))?;
        let peer = swarm.peer_mut(owner);
        let args_value = from_soap(&mut peer.runtime, args_env)?;
        let args = args_value
            .as_array()
            .map_err(TransportError::Metamodel)?
            .to_vec();
        let result = peer
            .runtime
            .invoke(handle, &method, &args)
            .map_err(TransportError::Metamodel)?;
        Ok(to_soap(&peer.runtime, &result)?)
    }

    /// Completes pending references whose descriptions have arrived:
    /// conformance check against the receiving peer's interests, then a
    /// proxy (accepted) or a rejection record.
    fn settle_refs<T: Transport>(&mut self, swarm: &mut Swarm<T>) -> Result<()> {
        let mut still_pending = Vec::new();
        for (at, rref) in std::mem::take(&mut self.pending_refs) {
            let peer = swarm.peer_mut(at);
            let Some(matched) = peer.match_interest_of(rref.type_guid) else {
                still_pending.push((at, rref));
                continue;
            };
            match matched {
                Some(contract) => {
                    self.arrived.entry(at).or_default().push(RemoteProxy {
                        remote: rref,
                        contract,
                    });
                }
                None => {
                    self.rejected.entry(at).or_default().push(rref);
                }
            }
        }
        self.pending_refs = still_pending;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pti_conformance::ConformanceConfig;
    use pti_metamodel::{bodies, primitives, Assembly, ParamDef, TypeDef};
    use pti_net::NetConfig;

    fn person_assembly(salt: &str, get: &str, set: &str) -> (Assembly, TypeDef) {
        let def = TypeDef::class("Person", salt)
            .field("name", primitives::STRING)
            .method(get, vec![], primitives::STRING)
            .method(
                set,
                vec![ParamDef::new("n", primitives::STRING)],
                primitives::VOID,
            )
            .ctor(vec![])
            .build();
        let g = def.guid;
        let asm = Assembly::builder(format!("person-{salt}"))
            .ty(def.clone())
            .body(g, get, 0, bodies::getter("name"))
            .body(g, set, 1, bodies::setter("name"))
            .ctor_body(g, 0, bodies::ctor_assign(&[]))
            .build();
        (asm, def)
    }

    fn setup() -> (Swarm, RemotingFabric, PeerId, PeerId, RemoteProxy) {
        let mut swarm = Swarm::new(NetConfig::default());
        let server = swarm.add_peer(ConformanceConfig::pragmatic());
        let client = swarm.add_peer(ConformanceConfig::pragmatic());
        let (asm_s, _) = person_assembly("server", "getPersonName", "setPersonName");
        swarm.publish(server, asm_s).unwrap();
        // The client's local view of Person uses different method names.
        let (_, def_c) = person_assembly("client", "getName", "setName");
        swarm
            .peer_mut(client)
            .subscribe(TypeDescription::from_def(&def_c));

        let h = swarm
            .peer_mut(server)
            .runtime
            .instantiate(&"Person".into(), &[])
            .unwrap();
        swarm
            .peer_mut(server)
            .runtime
            .set_field(h, "name", Value::from("remote-ada"))
            .unwrap();

        let mut fabric = RemotingFabric::new();
        let rref = fabric.export(&swarm, server, h).unwrap();
        fabric.offer(&mut swarm, server, client, &rref).unwrap();
        fabric.run(&mut swarm).unwrap();
        let mut proxies = fabric.take_proxies(client);
        assert_eq!(proxies.len(), 1, "reference accepted");
        let proxy = proxies.remove(0);
        (swarm, fabric, server, client, proxy)
    }

    #[test]
    fn remote_invocation_translates_names() {
        let (mut swarm, mut fabric, _server, client, proxy) = setup();
        // The client calls `getName` (its contract); the wire carries
        // `getPersonName` (the server's).
        let got = fabric
            .invoke(&mut swarm, client, &proxy, "getName", &[])
            .unwrap();
        assert_eq!(got.as_str().unwrap(), "remote-ada");
    }

    #[test]
    fn remote_mutation_visible_on_owner() {
        let (mut swarm, mut fabric, server, client, proxy) = setup();
        fabric
            .invoke(
                &mut swarm,
                client,
                &proxy,
                "setName",
                &[Value::from("updated")],
            )
            .unwrap();
        // The owner's object changed — pass-by-reference semantics.
        let exports = &fabric.exports[&server];
        let handle = exports.by_id[&proxy.remote.object_id];
        assert_eq!(
            swarm
                .peer_mut(server)
                .runtime
                .get_field(handle, "name")
                .unwrap()
                .as_str()
                .unwrap(),
            "updated"
        );
    }

    #[test]
    fn no_code_crosses_the_wire_for_references() {
        let (swarm, _fabric, _s, _c, _p) = setup();
        let m = swarm.net().metrics();
        assert_eq!(m.kind(pti_transport::kinds::ASM_REQUEST).messages, 0);
        assert_eq!(m.kind(pti_transport::kinds::DESC_REQUEST).messages, 1);
    }

    #[test]
    fn out_of_contract_method_rejected_client_side() {
        let (mut swarm, mut fabric, _s, client, proxy) = setup();
        let before = swarm.net().metrics().messages;
        let err = fabric
            .invoke(&mut swarm, client, &proxy, "getPersonName", &[])
            .unwrap_err();
        assert!(err.to_string().contains("not in the expected contract"));
        assert_eq!(swarm.net().metrics().messages, before, "nothing was sent");
    }

    #[test]
    fn nonconformant_reference_rejected() {
        let mut swarm = Swarm::new(NetConfig::default());
        let server = swarm.add_peer(ConformanceConfig::pragmatic());
        let client = swarm.add_peer(ConformanceConfig::pragmatic());
        let (asm_s, _) = person_assembly("server", "getPersonName", "setPersonName");
        swarm.publish(server, asm_s).unwrap();
        // Client subscribes to something structurally different.
        let other = TypeDef::class("Rocket", "client")
            .field("thrust", primitives::INT64)
            .method("launch", vec![], primitives::VOID)
            .build();
        swarm
            .peer_mut(client)
            .subscribe(TypeDescription::from_def(&other));
        let h = swarm
            .peer_mut(server)
            .runtime
            .instantiate(&"Person".into(), &[])
            .unwrap();
        let mut fabric = RemotingFabric::new();
        let rref = fabric.export(&swarm, server, h).unwrap();
        fabric.offer(&mut swarm, server, client, &rref).unwrap();
        fabric.run(&mut swarm).unwrap();
        assert!(fabric.take_proxies(client).is_empty());
        assert_eq!(fabric.take_rejected(client).len(), 1);
    }

    #[test]
    fn server_side_error_propagates() {
        let (mut swarm, mut fabric, server, client, proxy) = setup();
        // Sabotage: free the exported object on the server.
        let handle = fabric.exports[&server].by_id[&proxy.remote.object_id];
        swarm.peer_mut(server).runtime.heap.free(handle).unwrap();
        let err = fabric
            .invoke(&mut swarm, client, &proxy, "getName", &[])
            .unwrap_err();
        assert!(err.to_string().contains("dangling"), "{err}");
    }

    #[test]
    fn export_requires_published_type() {
        let mut swarm = Swarm::new(NetConfig::default());
        let server = swarm.add_peer(ConformanceConfig::paper());
        let def = TypeDef::class("Loose", "x").ctor(vec![]).build();
        swarm.peer_mut(server).runtime.register_type(def).unwrap();
        let h = swarm
            .peer_mut(server)
            .runtime
            .instantiate(&"Loose".into(), &[])
            .unwrap();
        let mut fabric = RemotingFabric::new();
        assert!(matches!(
            fabric.export(&swarm, server, h),
            Err(TransportError::NoProvenance(_))
        ));
    }
}
