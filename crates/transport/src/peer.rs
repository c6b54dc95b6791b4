//! A protocol peer: runtime + interests + caches + pending exchanges.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use pti_conformance::{CacheStats, ConformanceChecker, ConformanceConfig, Contract};
use pti_metamodel::{
    Assembly, DescriptionProvider, Guid, Runtime, TypeDescription, TypeName, Value,
};
use pti_net::PeerId;
use pti_proxy::DynamicProxy;
use pti_serialize::{
    AssemblyEntry, AssemblyRef, EnvelopeView, ObjectEnvelope, Payload, PayloadFormat, PayloadView,
};

use crate::error::{Result, TransportError};

/// How an inbound object exchange ended.
#[derive(Debug, Clone)]
pub enum Delivery {
    /// The object was materialized into the local runtime.
    Accepted {
        /// Peer the object came from.
        from: PeerId,
        /// The materialized value (root object handle or primitive).
        value: Value,
        /// Name of the matched type of interest, if conformance-based
        /// matching took place.
        interest: Option<TypeName>,
        /// Identity of the matched interest — distinguishes same-named
        /// interests from different vendors.
        interest_guid: Option<Guid>,
        /// A proxy exposing the matched interest over the object (absent
        /// for primitives or interest-less direct acceptance).
        proxy: Option<DynamicProxy>,
    },
    /// Conformance failed against every local interest; the code was
    /// *not* downloaded (the optimistic saving).
    Rejected {
        /// Peer the object came from.
        from: PeerId,
        /// Type name of the rejected object.
        type_name: TypeName,
    },
}

impl Delivery {
    /// An accepted object: its proxy, for an object matched to an
    /// interest, shares the matched contract.
    pub(crate) fn accepted(from: PeerId, value: Value, matched: Option<Arc<Contract>>) -> Delivery {
        let proxy = match (&matched, &value) {
            (Some(contract), Value::Obj(h)) => {
                Some(DynamicProxy::from_contract(Arc::clone(contract), *h))
            }
            _ => None,
        };
        let (interest, interest_guid) = matched
            .map(|c| (c.expected().name.clone(), c.expected().guid))
            .unzip();
        Delivery::Accepted {
            from,
            value,
            interest,
            interest_guid,
            proxy,
        }
    }

    /// Whether this delivery accepted the object.
    pub fn is_accepted(&self) -> bool {
        matches!(self, Delivery::Accepted { .. })
    }
}

/// Protocol counters per peer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProtocolStats {
    /// Objects received (either protocol).
    pub objects_received: u64,
    /// Objects accepted.
    pub accepted: u64,
    /// Objects rejected after a failed conformance check.
    pub rejected: u64,
    /// Type-description fetches issued.
    pub desc_requests: u64,
    /// Assembly (code) fetches issued.
    pub asm_requests: u64,
    /// Conformance checks run.
    pub conformance_checks: u64,
}

/// One assembly this peer published, with its artifacts and paths.
#[derive(Debug, Clone)]
pub struct Published {
    /// The code bundle.
    pub assembly: Assembly,
    /// Descriptions of every type bundled in the assembly.
    pub descriptions: Vec<TypeDescription>,
    /// The envelope entry announcing this assembly (name, download
    /// paths of its descriptions and code, content hash), built once
    /// and cloned into every envelope that needs it.
    pub assembly_ref: AssemblyRef,
}

/// An inbound object whose exchange is still in flight (waiting on
/// descriptions and/or code). The envelope is kept as its `PTIE` wire
/// bytes; each stage reads it through an [`EnvelopeView`].
#[derive(Debug, Clone)]
pub(crate) struct PendingObject {
    /// Monotonic arrival number (deliveries complete in arrival order
    /// whenever they unblock together).
    pub seq: u64,
    pub from: PeerId,
    pub envelope: pti_net::Payload,
    /// Description paths still outstanding.
    pub awaiting_descs: HashSet<String>,
    /// `Some(paths)` once conformance passed: code paths still missing.
    pub awaiting_asms: Option<HashSet<String>>,
    /// Contract bound by the conformance stage: the matched interest
    /// and its translation table, shared with the checker's cache.
    pub matched: Option<Arc<Contract>>,
}

/// A type whose last delivery was warm, with the conformance stage's
/// outcome for it. Recorded only when every check in that stage was a
/// verdict-cache hit, so replaying `checks` and `hits` counts exactly
/// what re-running the stage would.
#[derive(Debug)]
struct WarmType {
    /// The listed assembly table, found fully present: the path prefix
    /// followed by the table bytes, exactly as on the wire.
    table: Box<[u8]>,
    /// Length of the path prefix at the front of `table`.
    prefix_len: usize,
    /// The contract of the first conforming interest, if any.
    matched: Option<Arc<Contract>>,
    /// Conformance checks the match took.
    checks: u64,
    /// Checker-cache hits those checks counted.
    hits: u64,
}

impl WarmType {
    /// Whether an envelope lists exactly this table.
    fn lists(&self, prefix: &str, table: &[u8]) -> bool {
        let (p, t) = self.table.split_at(self.prefix_len);
        p == prefix.as_bytes() && t == table
    }
}

/// A protocol peer.
///
/// Owns a [`Runtime`] (its types + objects), the set of *types of
/// interest* it is willing to receive, a cache of downloaded type
/// descriptions, the conformance checker with its verdict cache, and a
/// memo of the types whose deliveries are warm.
pub struct Peer {
    /// This peer's network identity.
    pub id: PeerId,
    /// The local object runtime.
    pub runtime: Runtime,
    pub(crate) checker: ConformanceChecker,
    interests: Vec<TypeDescription>,
    /// Downloaded descriptions by GUID (plus name index for provider use).
    desc_cache: HashMap<Guid, TypeDescription>,
    desc_by_name: HashMap<String, Vec<Guid>>,
    /// Everything this peer published, by description path and by code
    /// path.
    published_by_desc: HashMap<String, Published>,
    published_by_asm: HashMap<String, Published>,
    /// Provenance: which published assembly a local type came from.
    path_of_type: HashMap<Guid, String>,
    /// Code paths whose assemblies are installed locally.
    installed: HashSet<String>,
    /// Content hashes of installed assemblies (path-independent identity).
    installed_hashes: HashSet<u64>,
    /// Description paths already requested (suppress duplicates).
    pub(crate) requested_descs: HashSet<String>,
    /// Description paths whose responses were already consumed (their
    /// contents live in the description cache; no further response will
    /// ever arrive for them).
    pub(crate) received_descs: HashSet<String>,
    /// Assembly paths already requested (suppress duplicates).
    pub(crate) requested_asms: HashSet<String>,
    pub(crate) pending: Vec<PendingObject>,
    pub(crate) next_seq: u64,
    deliveries: Vec<Delivery>,
    /// Warm-type memo by root type guid (see [`warm_match`](Self::warm_match)).
    /// Cleared by every method that changes what the warm test reads.
    warm: HashMap<Guid, WarmType>,
    /// Protocol counters.
    pub stats: ProtocolStats,
}

impl std::fmt::Debug for Peer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Peer")
            .field("id", &self.id)
            .field("interests", &self.interests.len())
            .field("desc_cache", &self.desc_cache.len())
            .field("installed", &self.installed.len())
            .field("pending", &self.pending.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Peer {
    /// Creates a peer with the given conformance configuration.
    pub fn new(id: PeerId, config: ConformanceConfig) -> Peer {
        Peer {
            id,
            runtime: Runtime::new(),
            checker: ConformanceChecker::new(config),
            interests: Vec::new(),
            desc_cache: HashMap::new(),
            desc_by_name: HashMap::new(),
            published_by_desc: HashMap::new(),
            published_by_asm: HashMap::new(),
            path_of_type: HashMap::new(),
            installed: HashSet::new(),
            installed_hashes: HashSet::new(),
            requested_descs: HashSet::new(),
            received_descs: HashSet::new(),
            requested_asms: HashSet::new(),
            pending: Vec::new(),
            next_seq: 0,
            deliveries: Vec::new(),
            warm: HashMap::new(),
            stats: ProtocolStats::default(),
        }
    }

    /// Replaces the conformance checker (e.g. with an
    /// [`uncached`](ConformanceChecker::uncached) one). Verdicts cached
    /// by the old checker are dropped with it.
    pub fn set_checker(&mut self, checker: ConformanceChecker) {
        self.warm.clear();
        self.checker = checker;
    }

    /// The conformance checker's cache hit/miss counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.checker.stats()
    }

    /// Publishes an assembly: installs it locally and exposes its
    /// descriptions and code under download paths derived from the peer
    /// id and assembly name. Returns the published record.
    ///
    /// # Errors
    /// Registry conflicts on installation.
    pub fn publish(&mut self, assembly: Assembly) -> Result<Published> {
        self.warm.clear();
        assembly.install(&mut self.runtime)?;
        let desc_path = format!("pti://{}/desc/{}", self.id, assembly.name());
        let asm_path = format!("pti://{}/asm/{}", self.id, assembly.name());
        let descriptions: Vec<TypeDescription> = assembly
            .types()
            .iter()
            .map(TypeDescription::from_def)
            .collect();
        for t in assembly.types() {
            self.path_of_type.insert(t.guid, asm_path.clone());
        }
        self.installed.insert(asm_path.clone());
        self.installed_hashes.insert(assembly.content_hash());
        let assembly_ref = AssemblyRef {
            name: assembly.name().to_string(),
            description_path: desc_path.clone(),
            assembly_path: asm_path.clone(),
            content_hash: format!("{:x}", assembly.content_hash()),
        };
        let published = Published {
            assembly,
            descriptions,
            assembly_ref,
        };
        self.published_by_desc.insert(desc_path, published.clone());
        self.published_by_asm.insert(asm_path, published.clone());
        Ok(published)
    }

    /// Declares a type of interest: inbound objects are matched (by
    /// implicit structural conformance) against these.
    pub fn subscribe(&mut self, interest: TypeDescription) {
        self.warm.clear();
        self.interests.push(interest);
    }

    /// The declared interests.
    pub fn interests(&self) -> &[TypeDescription] {
        &self.interests
    }

    /// Withdraws a previously declared interest by identity. Returns
    /// whether anything was removed. Objects already delivered are
    /// unaffected; future objects are matched against the remaining
    /// interests only.
    pub fn unsubscribe(&mut self, guid: pti_metamodel::Guid) -> bool {
        self.warm.clear();
        let before = self.interests.len();
        self.interests.retain(|d| d.guid != guid);
        before != self.interests.len()
    }

    /// Takes all finished deliveries accumulated so far.
    pub fn take_deliveries(&mut self) -> Vec<Delivery> {
        self.drain_deliveries().collect()
    }

    /// Drains all finished deliveries accumulated so far, in arrival
    /// order; the peer keeps its buffer for the next ones.
    pub fn drain_deliveries(&mut self) -> std::vec::Drain<'_, Delivery> {
        self.deliveries.drain(..)
    }

    pub(crate) fn push_delivery(&mut self, d: Delivery) {
        match &d {
            Delivery::Accepted { .. } => self.stats.accepted += 1,
            Delivery::Rejected { .. } => self.stats.rejected += 1,
        }
        self.deliveries.push(d);
    }

    /// Whether the code for a download path is installed.
    pub fn has_installed(&self, asm_path: &str) -> bool {
        self.installed.contains(asm_path)
    }

    pub(crate) fn mark_installed(&mut self, asm_path: &str, content_hash: u64) {
        self.warm.clear();
        self.installed.insert(asm_path.to_string());
        self.installed_hashes.insert(content_hash);
    }

    /// Whether the code behind an envelope's assembly entry is available
    /// locally — by content identity first, then by download path (the
    /// same assembly may have been installed from a different peer's
    /// path). The path is only built on a content-hash miss.
    pub fn has_assembly_entry(&self, entry: &AssemblyEntry<'_>) -> bool {
        u64::from_str_radix(entry.content_hash, 16)
            .is_ok_and(|h| self.installed_hashes.contains(&h))
            || self.installed.contains(entry.assembly_path().as_ref())
    }

    /// The published record behind a description path, if this peer owns
    /// it.
    pub fn published_by_desc_path(&self, path: &str) -> Option<&Published> {
        self.published_by_desc.get(path)
    }

    /// The published record behind a code path, if this peer owns it.
    pub fn published_by_asm_path(&self, path: &str) -> Option<&Published> {
        self.published_by_asm.get(path)
    }

    /// Caches a downloaded type description.
    pub fn cache_description(&mut self, desc: TypeDescription) {
        self.warm.clear();
        self.desc_by_name
            .entry(desc.name.full().to_ascii_lowercase())
            .or_default()
            .push(desc.guid);
        self.desc_cache.insert(desc.guid, desc);
    }

    /// Whether a description for this GUID is available (downloaded or
    /// derivable from the local registry).
    pub fn knows_description(&self, guid: Guid) -> bool {
        self.desc_cache.contains_key(&guid) || self.runtime.registry.contains(guid)
    }

    /// The description for a GUID, if known: borrowed from the download
    /// cache, or derived from the local registry.
    pub fn description_of(&self, guid: Guid) -> Option<Cow<'_, TypeDescription>> {
        match self.desc_cache.get(&guid) {
            Some(desc) => Some(Cow::Borrowed(desc)),
            None => self
                .runtime
                .registry
                .get(guid)
                .map(|d| Cow::Owned(TypeDescription::from_def(&d))),
        }
    }

    /// A name-resolving provider over the registry plus the download
    /// cache (what conformance checks use on the receiving side).
    pub fn provider(&self) -> PeerProvider<'_> {
        PeerProvider { peer: self }
    }

    /// Runs the conformance stage for the type `guid` names, checked
    /// against its known description in place: the contract bound to
    /// the first interest it conforms to (in subscription order), shared
    /// with the checker's verdict cache. `None` when no description of
    /// `guid` is known. Nothing is cloned: a warm pair's contract comes
    /// out of the checker's cache.
    pub fn match_interest_of(&mut self, guid: Guid) -> Option<Option<Arc<Contract>>> {
        let (matched, checks) = {
            let root = self.description_of(guid)?;
            let provider = self.provider();
            let mut checks = 0;
            let matched = self.interests.iter().find_map(|interest| {
                checks += 1;
                self.checker
                    .bind(&root, interest, &provider, &provider)
                    .ok()
            });
            (matched, checks)
        };
        self.stats.conformance_checks += checks;
        Some(matched)
    }

    /// The warm test and conformance stage of a borrowed envelope.
    /// `None` unless it is warm: its type guid is not nil, its
    /// description is known and every listed assembly is present. Then
    /// `Some` of the contract of the first interest it conforms to, as
    /// [`match_interest_of`](Self::match_interest_of) finds it.
    ///
    /// A repeat of a warm type listing byte-for-byte the same assembly
    /// table is answered from the warm-type memo with one lookup: the
    /// recorded contract, with the recorded checks and cache hits added
    /// to the counters. An entry is recorded only when the checker
    /// computed nothing new during the match, so a depth-bound pair, or
    /// a non-identical pair under an uncached checker, is matched afresh
    /// on every delivery.
    pub fn warm_match(&mut self, view: &EnvelopeView<'_>) -> Option<Option<Arc<Contract>>> {
        let guid = view.type_guid;
        let (prefix, table) = view.assembly_table();
        if let Some(warm) = self.warm.get(&guid).filter(|w| w.lists(prefix, table)) {
            self.stats.conformance_checks += warm.checks;
            self.checker.record_hits(warm.hits);
            return Some(warm.matched.clone());
        }
        let warm = !guid.is_nil()
            && self.knows_description(guid)
            && view.assemblies().all(|e| self.has_assembly_entry(&e));
        if !warm {
            return None;
        }
        let checks = self.stats.conformance_checks;
        let before = self.checker.stats();
        let matched = self.match_interest_of(guid)?;
        let after = self.checker.stats();
        if after.misses == before.misses {
            let mut key = Vec::with_capacity(prefix.len() + table.len());
            key.extend_from_slice(prefix.as_bytes());
            key.extend_from_slice(table);
            self.warm.insert(
                guid,
                WarmType {
                    table: key.into_boxed_slice(),
                    prefix_len: prefix.len(),
                    matched: matched.clone(),
                    checks: self.stats.conformance_checks - checks,
                    hits: after.hits - before.hits,
                },
            );
        }
        Some(matched)
    }

    /// Builds the Figure-3 envelope for a value rooted in this peer's
    /// runtime: payload in the requested format plus assembly download
    /// information for every type reachable from the value.
    ///
    /// # Errors
    /// [`TransportError::NoProvenance`] if a reachable type was never
    /// published.
    pub fn make_envelope(&self, root: &Value, format: PayloadFormat) -> Result<ObjectEnvelope> {
        let guids = self.reachable_type_guids(root)?;
        let (type_name, type_guid) = match root {
            Value::Obj(h) => {
                let def = self.runtime.type_of(*h)?;
                (def.name.clone(), def.guid)
            }
            other => (TypeName::new(other.kind_name()), Guid::NIL),
        };
        let mut assemblies: Vec<AssemblyRef> = Vec::new();
        for guid in &guids {
            let path = self.path_of_type.get(guid).ok_or_else(|| {
                let name = self
                    .runtime
                    .registry
                    .get(*guid)
                    .map(|d| d.name.clone())
                    .unwrap_or_else(|| TypeName::new("<unknown>"));
                TransportError::NoProvenance(name)
            })?;
            // An envelope lists a handful of assemblies: a scan beats a
            // set.
            if assemblies.iter().any(|a| a.assembly_path == *path) {
                continue;
            }
            let published = self
                .published_by_asm
                .get(path)
                .ok_or_else(|| TransportError::UnknownPath(path.clone()))?;
            assemblies.push(published.assembly_ref.clone());
        }
        let payload = match format {
            PayloadFormat::Soap => Payload::Soap(pti_serialize::to_soap(&self.runtime, root)?),
            PayloadFormat::Binary => {
                Payload::Binary(pti_serialize::to_binary(&self.runtime, root)?)
            }
        };
        Ok(ObjectEnvelope {
            type_name,
            type_guid,
            assemblies,
            payload,
        })
    }

    /// Deserializes an envelope's payload into the local runtime: a
    /// binary payload is read straight off the wire bytes.
    ///
    /// # Errors
    /// Any serializer error (unknown types mean the protocol let a
    /// deserialize happen before installing code — a bug).
    pub fn materialize(&mut self, view: &EnvelopeView<'_>) -> Result<Value> {
        Ok(match &view.payload {
            PayloadView::Soap(el) => pti_serialize::from_soap(&mut self.runtime, el)?,
            PayloadView::Binary(bytes) => pti_serialize::from_binary(&mut self.runtime, bytes)?,
        })
    }

    /// GUIDs of the types of all objects reachable from `root`.
    fn reachable_type_guids(&self, root: &Value) -> Result<Vec<Guid>> {
        let mut out = Vec::new();
        let mut seen_objs = HashSet::new();
        let mut stack = vec![root.clone()];
        while let Some(v) = stack.pop() {
            match v {
                Value::Obj(h) => {
                    if !seen_objs.insert(h) {
                        continue;
                    }
                    let obj = self.runtime.heap.get(h)?;
                    if !out.contains(&obj.type_guid) {
                        out.push(obj.type_guid);
                    }
                    for fv in obj.fields.values() {
                        stack.push(fv.clone());
                    }
                }
                Value::Array(items) => stack.extend(items),
                _ => {}
            }
        }
        Ok(out)
    }
}

/// [`DescriptionProvider`] over a peer's registry plus its description
/// download cache.
pub struct PeerProvider<'p> {
    peer: &'p Peer,
}

impl DescriptionProvider for PeerProvider<'_> {
    fn describe(&self, name: &TypeName) -> Option<TypeDescription> {
        // Local registry first (authoritative for installed types)...
        if let Some(d) = self.peer.runtime.registry.resolve(name) {
            return Some(TypeDescription::from_def(&d));
        }
        // ...then the download cache.
        self.peer
            .desc_by_name
            .get(&name.full().to_ascii_lowercase())
            .and_then(|guids| guids.first())
            .and_then(|g| self.peer.desc_cache.get(g))
            .cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pti_metamodel::{bodies, primitives, ParamDef, TypeDef};

    fn person_assembly(salt: &str) -> (Assembly, TypeDef) {
        let def = TypeDef::class("Person", salt)
            .field("name", primitives::STRING)
            .method("getName", vec![], primitives::STRING)
            .ctor(vec![ParamDef::new("n", primitives::STRING)])
            .build();
        let g = def.guid;
        let asm = Assembly::builder(format!("person-{salt}"))
            .ty(def.clone())
            .body(g, "getName", 0, bodies::getter("name"))
            .ctor_body(g, 1, bodies::ctor_assign(&["name"]))
            .build();
        (asm, def)
    }

    #[test]
    fn publish_installs_and_indexes() {
        let mut p = Peer::new(PeerId(1), ConformanceConfig::paper());
        let (asm, def) = person_assembly("a");
        let pubd = p.publish(asm).unwrap();
        assert!(p.runtime.registry.contains(def.guid));
        let aref = &pubd.assembly_ref;
        assert!(p.has_installed(&aref.assembly_path));
        assert!(p.published_by_desc_path(&aref.description_path).is_some());
        assert!(p.published_by_asm_path(&aref.assembly_path).is_some());
        assert_eq!(pubd.descriptions.len(), 1);
    }

    #[test]
    fn envelope_carries_provenance() {
        let mut p = Peer::new(PeerId(1), ConformanceConfig::paper());
        let (asm, _) = person_assembly("a");
        p.publish(asm).unwrap();
        let h = p
            .runtime
            .instantiate(&"Person".into(), &[Value::from("ada")])
            .unwrap();
        let env = p
            .make_envelope(&Value::Obj(h), PayloadFormat::Binary)
            .unwrap();
        assert_eq!(env.type_name.full(), "Person");
        assert_eq!(env.assemblies.len(), 1);
        assert!(env.assemblies[0].assembly_path.contains("peer-1"));
    }

    #[test]
    fn unpublished_type_has_no_provenance() {
        let mut p = Peer::new(PeerId(1), ConformanceConfig::paper());
        let (_, def) = person_assembly("a");
        p.runtime.register_type(def).unwrap();
        let h = p.runtime.instantiate(&"Person".into(), &[Value::from("x")]);
        // ctor body missing (not installed via assembly) — instantiate
        // with 1 arg still works (declared ctor), body absent is allowed.
        let h = h.unwrap();
        let err = p
            .make_envelope(&Value::Obj(h), PayloadFormat::Binary)
            .unwrap_err();
        assert!(matches!(err, TransportError::NoProvenance(_)));
    }

    #[test]
    fn envelope_includes_nested_assemblies() {
        // Person in one assembly, Address in another; a Person holding an
        // Address must list both (Figure 3's A + B information).
        let mut p = Peer::new(PeerId(1), ConformanceConfig::paper());
        let addr = TypeDef::class("Address", "a")
            .field("street", primitives::STRING)
            .ctor(vec![])
            .build();
        let person = TypeDef::class("Person", "a")
            .field("name", primitives::STRING)
            .field("home", "Address")
            .ctor(vec![])
            .build();
        p.publish(Assembly::builder("addr").ty(addr).build())
            .unwrap();
        p.publish(Assembly::builder("person").ty(person).build())
            .unwrap();
        let ah = p.runtime.instantiate(&"Address".into(), &[]).unwrap();
        let ph = p.runtime.instantiate(&"Person".into(), &[]).unwrap();
        p.runtime.set_field(ph, "home", Value::Obj(ah)).unwrap();
        let env = p
            .make_envelope(&Value::Obj(ph), PayloadFormat::Soap)
            .unwrap();
        assert_eq!(env.assemblies.len(), 2);
    }

    #[test]
    fn primitive_envelope_has_no_assemblies() {
        let p = Peer::new(PeerId(1), ConformanceConfig::paper());
        let env = p
            .make_envelope(&Value::I32(42), PayloadFormat::Binary)
            .unwrap();
        assert!(env.assemblies.is_empty());
        assert!(env.type_guid.is_nil());
    }

    #[test]
    fn interest_matching_uses_conformance() {
        let mut p = Peer::new(PeerId(2), ConformanceConfig::paper());
        let (asm_local, local_def) = person_assembly("local");
        p.publish(asm_local).unwrap();
        p.subscribe(TypeDescription::from_def(&local_def));
        let (_, remote_def) = person_assembly("remote");
        assert!(
            p.match_interest_of(remote_def.guid).is_none(),
            "unknown type"
        );
        p.cache_description(TypeDescription::from_def(&remote_def));
        let got = p.match_interest_of(remote_def.guid).unwrap();
        assert!(got.is_some(), "equivalent remote Person matches");
        let alien = TypeDescription::from_def(&TypeDef::class("Alien", "x").build());
        p.cache_description(alien.clone());
        assert!(p.match_interest_of(alien.guid).unwrap().is_none());
        assert!(p.stats.conformance_checks >= 2);
    }

    /// One presence rule for every envelope entry: content hash first,
    /// then download path.
    #[test]
    fn owned_and_borrowed_entries_share_one_presence_rule() {
        let mut p = Peer::new(PeerId(1), ConformanceConfig::paper());
        let (asm, _) = person_assembly("a");
        let installed = p.publish(asm).unwrap().assembly_ref;
        let moved = AssemblyRef {
            assembly_path: "pti://peer-9/asm/person-a".into(),
            ..installed.clone()
        };
        let rehashed = AssemblyRef {
            content_hash: "not-a-hash".into(),
            ..installed.clone()
        };
        let absent = AssemblyRef {
            content_hash: "0".into(),
            ..moved.clone()
        };
        for (aref, present) in [
            (installed, true),
            (moved, true),
            (rehashed, true),
            (absent, false),
        ] {
            let bytes = ObjectEnvelope {
                type_name: TypeName::new("Person"),
                type_guid: Guid::NIL,
                assemblies: vec![aref.clone()],
                payload: Payload::Binary(Vec::new()),
            }
            .to_ptib();
            let view = EnvelopeView::parse(&bytes).unwrap();
            let entry = view.assemblies().next().unwrap();
            assert_eq!(p.has_assembly_entry(&entry), present, "{aref:?}");
        }
    }

    /// The tiny deterministic PRNG driving the memo's differential test
    /// (SplitMix64).
    struct SplitMix64(u64);

    impl SplitMix64 {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next_u64() % n as u64) as usize
        }
    }

    /// The warm test and conformance stage without the memo: nil check,
    /// description, every listed assembly, then the interests in order.
    fn unmemoized_match(peer: &mut Peer, view: &EnvelopeView<'_>) -> Option<Option<Guid>> {
        let guid = view.type_guid;
        let warm = !guid.is_nil()
            && peer.knows_description(guid)
            && view.assemblies().all(|e| peer.has_assembly_entry(&e));
        if !warm {
            return None;
        }
        let matched = peer.match_interest_of(guid)?;
        Some(matched.map(|c| c.expected().guid))
    }

    /// A remote type with the assembly reference its publisher lists.
    struct Remote {
        desc: TypeDescription,
        assembly: Assembly,
        aref: AssemblyRef,
    }

    fn remote(def: TypeDef) -> Remote {
        let name = format!("{}-remote", def.name.full().to_ascii_lowercase());
        let assembly = Assembly::builder(name.clone()).ty(def.clone()).build();
        let aref = AssemblyRef {
            name: name.clone(),
            description_path: format!("pti://peer-9/desc/{name}"),
            assembly_path: format!("pti://peer-9/asm/{name}"),
            content_hash: format!("{:x}", assembly.content_hash()),
        };
        Remote {
            desc: TypeDescription::from_def(&def),
            assembly,
            aref,
        }
    }

    /// The envelope tables a delivery may list for a remote type: its
    /// own entry, the entry moved to another path, the entry with a
    /// hash nobody installed, and the entry plus an uninstalled one.
    fn tables(r: &Remote, absent: &AssemblyRef) -> Vec<Vec<AssemblyRef>> {
        let moved = AssemblyRef {
            assembly_path: r.aref.assembly_path.replace("peer-9", "peer-8"),
            description_path: r.aref.description_path.replace("peer-9", "peer-8"),
            ..r.aref.clone()
        };
        let rehashed = AssemblyRef {
            content_hash: "not-a-hash".into(),
            ..r.aref.clone()
        };
        vec![
            vec![r.aref.clone()],
            vec![moved],
            vec![rehashed],
            vec![r.aref.clone(), absent.clone()],
        ]
    }

    /// Twin peers take the same seeded steps: subscribe, unsubscribe,
    /// `cache_description`, `mark_installed`, `publish` and envelopes
    /// that are warm, list another table or carry a nil guid. One
    /// answers every envelope by the unmemoized rule, the other by
    /// `warm_match`. After every step the answers and both peers'
    /// protocol and checker-cache counters are equal, with a cached and
    /// with an uncached checker.
    #[test]
    fn the_warm_memo_answers_as_the_unmemoized_rule() {
        let remotes: Vec<Remote> = [
            TypeDef::class("Person", "remote")
                .field("name", primitives::STRING)
                .method("getName", vec![], primitives::STRING)
                .build(),
            TypeDef::class("Reading", "remote")
                .field("value", primitives::FLOAT64)
                .build(),
            TypeDef::class("Spaceship", "remote")
                .field("fuel", primitives::INT64)
                .build(),
        ]
        .into_iter()
        .map(remote)
        .collect();
        let absent = remote(TypeDef::class("Absent", "remote").build()).aref;
        let interests: Vec<TypeDescription> = vec![
            TypeDescription::from_def(&person_assembly("local").1),
            TypeDescription::from_def(
                &TypeDef::class("Reading", "local")
                    .field("value", primitives::FLOAT64)
                    .build(),
            ),
            // The very type the remote publishes: an identical pair.
            remotes[1].desc.clone(),
            TypeDescription::from_def(&TypeDef::class("Alien", "local").build()),
        ];

        for (seed, uncached) in [(1u64, false), (2, false), (3, true)] {
            let mut rng = SplitMix64(seed);
            let config = ConformanceConfig::pragmatic;
            let mut unmemoized = Peer::new(PeerId(1), config());
            let mut memoized = Peer::new(PeerId(1), config());
            if uncached {
                unmemoized.set_checker(ConformanceChecker::uncached(config()));
                memoized.set_checker(ConformanceChecker::uncached(config()));
            }
            let (mut memo_hits, mut warm) = (0, 0);
            for step in 0..2000 {
                let ctx = format!("seed {seed}, step {step}");
                match rng.below(32) {
                    0 => {
                        let i = &interests[rng.below(interests.len())];
                        unmemoized.subscribe(i.clone());
                        memoized.subscribe(i.clone());
                    }
                    1 => {
                        let g = interests[rng.below(interests.len())].guid;
                        assert_eq!(unmemoized.unsubscribe(g), memoized.unsubscribe(g), "{ctx}");
                    }
                    2 => {
                        let r = &remotes[rng.below(remotes.len())];
                        unmemoized.cache_description(r.desc.clone());
                        memoized.cache_description(r.desc.clone());
                    }
                    3 => {
                        let r = &remotes[rng.below(remotes.len())];
                        let hash = r.assembly.content_hash();
                        unmemoized.mark_installed(&r.aref.assembly_path, hash);
                        memoized.mark_installed(&r.aref.assembly_path, hash);
                    }
                    4 => {
                        // A remote type installed locally, or a fresh one.
                        let asm = match rng.below(2) {
                            0 => remotes[rng.below(remotes.len())].assembly.clone(),
                            _ => person_assembly(&format!("local-{step}")).0,
                        };
                        let a = unmemoized.publish(asm.clone()).is_ok();
                        assert_eq!(a, memoized.publish(asm).is_ok(), "{ctx}");
                    }
                    _ => {
                        let r = &remotes[rng.below(remotes.len())];
                        let mut tables = tables(r, &absent);
                        let assemblies = tables.swap_remove(rng.below(tables.len()));
                        let type_guid = match rng.below(8) {
                            0 => Guid::NIL,
                            _ => r.desc.guid,
                        };
                        let bytes = ObjectEnvelope {
                            type_name: r.desc.name.clone(),
                            type_guid,
                            assemblies,
                            payload: Payload::Binary(Vec::new()),
                        }
                        .to_ptib();
                        let view = EnvelopeView::parse(&bytes).unwrap();
                        let (prefix, table) = view.assembly_table();
                        if memoized
                            .warm
                            .get(&type_guid)
                            .is_some_and(|w| w.lists(prefix, table))
                        {
                            memo_hits += 1;
                        }
                        let expected = unmemoized_match(&mut unmemoized, &view);
                        let got = memoized
                            .warm_match(&view)
                            .map(|m| m.map(|c| c.expected().guid));
                        assert_eq!(got, expected, "{ctx}");
                        warm += usize::from(expected.is_some());
                    }
                }
                assert_eq!(memoized.stats, unmemoized.stats, "{ctx}");
                assert_eq!(memoized.cache_stats(), unmemoized.cache_stats(), "{ctx}");
            }
            assert!(warm > 100, "seed {seed}: only {warm} warm envelopes");
            // An uncached checker computes every non-identical pair, so
            // only matches made of identical pairs (or of no interests
            // at all) are memoized.
            let floor = if uncached { 1 } else { 50 };
            assert!(
                memo_hits >= floor,
                "seed {seed}: only {memo_hits} memo hits"
            );
        }
    }

    #[test]
    fn description_cache_feeds_provider() {
        let mut p = Peer::new(PeerId(1), ConformanceConfig::paper());
        let remote = TypeDescription::from_def(
            &TypeDef::class("Remote", "r")
                .field("x", primitives::INT32)
                .build(),
        );
        assert!(!p.knows_description(remote.guid));
        p.cache_description(remote.clone());
        assert!(p.knows_description(remote.guid));
        let provider = p.provider();
        let got = provider.describe(&TypeName::new("Remote")).unwrap();
        assert_eq!(got.guid, remote.guid);
    }
}
