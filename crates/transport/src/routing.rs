//! Interest-indexed routing: who wants events of which type?
//!
//! Gryphon/SIENA-style event systems route by *content descriptors*
//! instead of broadcasting; the TPS analogue of a descriptor is the
//! *type-name token signature* — the camel/snake-case tokens of a type's
//! simple name. A subscriber's interest (`StockQuote`) and a publisher's
//! event type (`StockQuote`, `stock_quote`, `StockQuoteV2`…) match when
//! one's token sequence is an ordered subsequence of the other's — the
//! same relaxation [`NameMatcher::TokenSubsequence`] applies to member
//! names, and a strict superset of the `Exact` type-name matching both
//! conformance profiles use. The signature is therefore a *conservative
//! pre-filter*: it may route an event the receiver's conformance check
//! then rejects, but it never starves a subscriber whose interest name
//! matches under the default profiles.
//!
//! The [`RoutingTable`] is replicated per protocol engine: each
//! [`Swarm`](crate::Swarm) applies local subscriptions directly and
//! learns remote ones from `subscribe`/`unsubscribe` gossip messages, so
//! every engine resolves the same subscriber set for a given event type
//! — the decision parity `transport_parity.rs` asserts across fabrics.
//!
//! [`NameMatcher::TokenSubsequence`]: pti_conformance::NameMatcher

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use pti_metamodel::{split_ident_tokens, Guid, TypeDescription};
use pti_net::PeerId;

/// The token signature of a type name: lowercased identifier tokens of
/// the *simple* name (`finance.StockQuote` → `["stock", "quote"]`) —
/// or the *catch-all* signature, which matches every event. Catch-all
/// entries exist for interests whose conformance profile uses a
/// type-name matcher the token prefilter cannot model (Levenshtein,
/// wildcards, synonyms): such subscribers receive everything and filter
/// locally, preserving flood semantics for them while the rest of the
/// group enjoys indexed routing.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Signature {
    tokens: Vec<String>,
    catch_all: bool,
}

impl Signature {
    /// Signature of a bare type name.
    pub fn of_name(name: &str) -> Signature {
        let simple = name.rsplit('.').next().unwrap_or(name);
        Signature {
            tokens: split_ident_tokens(simple),
            catch_all: false,
        }
    }

    /// Signature of a type description (its name's simple part).
    pub fn of_description(desc: &TypeDescription) -> Signature {
        Signature::of_name(desc.name.simple())
    }

    /// The signature that matches every event.
    pub fn catch_all() -> Signature {
        Signature {
            tokens: Vec::new(),
            catch_all: true,
        }
    }

    /// Whether this is the catch-all signature.
    pub fn is_catch_all(&self) -> bool {
        self.catch_all
    }

    /// The tokens (empty for the catch-all signature).
    pub fn tokens(&self) -> &[String] {
        &self.tokens
    }

    /// Whether an event with this signature should be routed to an
    /// interest with signature `interest`: always for a catch-all
    /// interest; otherwise equal token sequences, or either sequence an
    /// ordered subsequence of the other (`setName` ≈ `setPersonName`,
    /// both directions — subscribers may name their interest more or
    /// less specifically than the publisher).
    pub fn matches(&self, interest: &Signature) -> bool {
        interest.catch_all
            || self.tokens == interest.tokens
            || subsequence(&self.tokens, &interest.tokens)
            || subsequence(&interest.tokens, &self.tokens)
    }

    /// Wire form: tokens joined by spaces; `*` for the catch-all.
    pub fn encode(&self) -> String {
        if self.catch_all {
            "*".to_string()
        } else {
            self.tokens.join(" ")
        }
    }

    /// Parses the wire form produced by [`encode`](Self::encode).
    pub fn decode(text: &str) -> Signature {
        if text.trim() == "*" {
            return Signature::catch_all();
        }
        Signature {
            tokens: text.split_whitespace().map(str::to_string).collect(),
            catch_all: false,
        }
    }
}

/// Ordered containment of `needle` in `hay` (both non-empty).
fn subsequence(needle: &[String], hay: &[String]) -> bool {
    if needle.is_empty() {
        return false;
    }
    let mut it = hay.iter();
    needle.iter().all(|t| it.any(|x| x == t))
}

/// Interns signature tokens to `u32` ids, so the inverted index hashes
/// small integers instead of strings and an event token unknown to
/// every interest is recognized (and skipped) with a single lookup.
///
/// Ids come from a monotonic counter (never reused), so evicting a
/// token whose last interest retracted cannot collide with a live id —
/// the table stays bounded by the *current* interests, not by every
/// token ever seen.
#[derive(Debug, Clone, Default)]
struct TokenInterner {
    ids: HashMap<String, u32>,
    next_id: u32,
}

impl TokenInterner {
    /// The id of `token`, minting one on first sight (insert path).
    fn intern(&mut self, token: &str) -> u32 {
        if let Some(&id) = self.ids.get(token) {
            return id;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.ids.insert(token.to_string(), id);
        id
    }

    /// The id of `token` if any interest currently uses it (resolve
    /// path — never allocates).
    fn get(&self, token: &str) -> Option<u32> {
        self.ids.get(token).copied()
    }

    /// Drops a token no interest uses anymore (its id retires with it).
    fn evict(&mut self, token: &str) {
        self.ids.remove(token);
    }
}

/// The memoized results of [`RoutingTable::resolve_name`], valid for one
/// table generation.
#[derive(Debug, Clone, Default)]
struct RouteCache {
    generation: u64,
    by_name: HashMap<String, Arc<[PeerId]>>,
}

/// Upper bound on memoized event names. A stable group (generation
/// never moves) publishing many *distinct* type names — or fed
/// attacker-chosen names — must not grow the memo without limit; at the
/// cap the memo resets wholesale and rebuilds from the live working
/// set. Steady-state workloads publish far fewer distinct names.
const ROUTE_CACHE_MAX_NAMES: usize = 1024;

/// The interest index a protocol engine routes by.
///
/// Keyed by `(subscriber, interest identity)` so the same peer may hold
/// several interests (even same-named ones from different vendors) and
/// retract each independently. A token inverted index keeps
/// [`resolve`](Self::resolve) proportional to the *candidate* interests
/// (those sharing a token with the event) rather than every interest in
/// the group — the publish hot path must not scan all subscribers.
///
/// Two further layers keep steady-state publishing cheap: signature
/// tokens are interned to `u32` ids (the index hashes integers, not
/// strings), and [`resolve_name`](Self::resolve_name) memoizes the full
/// resolution per event type name behind a [`generation`] counter bumped
/// on every subscribe/unsubscribe/prune — a publisher that keeps sending
/// the same event types does one name lookup per event, no token
/// splitting and no signature matching.
///
/// [`generation`]: Self::generation
#[derive(Debug, Clone, Default)]
pub struct RoutingTable {
    entries: BTreeMap<(PeerId, Guid), Signature>,
    /// Token strings interned to the dense ids `by_token` is keyed by.
    interner: TokenInterner,
    /// token id → interests whose signature contains it. A match in
    /// either subsequence direction shares at least one token with the
    /// event, so the union over the event's tokens is a complete
    /// candidate set.
    by_token: HashMap<u32, BTreeSet<(PeerId, Guid)>>,
    /// Catch-all interests: candidates for every event.
    catch_all: BTreeSet<(PeerId, Guid)>,
    /// Bumped on every mutation; invalidates the resolve cache.
    generation: u64,
    /// Per-event-name memo of resolved subscriber sets (interior
    /// mutability: resolving is logically read-only).
    cache: RefCell<RouteCache>,
}

impl PartialEq for RoutingTable {
    fn eq(&self, other: &RoutingTable) -> bool {
        self.entries == other.entries
    }
}

impl Eq for RoutingTable {}

impl RoutingTable {
    /// An empty table.
    pub fn new() -> RoutingTable {
        RoutingTable::default()
    }

    /// The current table generation: bumped whenever a mutation could
    /// change a resolution, so cached routing decisions (here and in
    /// layers above) know when to refresh.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Registers an interest. Returns `false` if the identical entry was
    /// already present (gossip is at-least-once; inserts are idempotent —
    /// and an idempotent re-insert does not invalidate the route cache).
    pub fn insert(&mut self, subscriber: PeerId, interest: Guid, signature: Signature) -> bool {
        let key = (subscriber, interest);
        // Identical re-announcement (at-least-once gossip): nothing
        // changes, the route cache stays warm.
        if self.entries.get(&key) == Some(&signature) {
            return false;
        }
        let fresh = match self.entries.insert(key, signature.clone()) {
            Some(old) => {
                self.unindex(key, &old);
                false
            }
            None => true,
        };
        if signature.is_catch_all() {
            self.catch_all.insert(key);
        }
        for t in signature.tokens() {
            let id = self.interner.intern(t);
            self.by_token.entry(id).or_default().insert(key);
        }
        self.generation += 1;
        fresh
    }

    fn unindex(&mut self, key: (PeerId, Guid), signature: &Signature) {
        self.catch_all.remove(&key);
        for t in signature.tokens() {
            let Some(id) = self.interner.get(t) else {
                continue;
            };
            if let Some(set) = self.by_token.get_mut(&id) {
                set.remove(&key);
                if set.is_empty() {
                    // Last interest using the token: index entry and
                    // interned string retire together, keeping a
                    // long-lived table bounded by current interests.
                    self.by_token.remove(&id);
                    self.interner.evict(t);
                }
            }
        }
    }

    /// Retracts one interest of one subscriber. Returns whether anything
    /// was removed.
    pub fn remove(&mut self, subscriber: PeerId, interest: Guid) -> bool {
        let key = (subscriber, interest);
        let Some(signature) = self.entries.remove(&key) else {
            return false;
        };
        self.unindex(key, &signature);
        self.generation += 1;
        true
    }

    /// Drops every interest of a departed peer.
    pub fn remove_peer(&mut self, subscriber: PeerId) {
        let keys: Vec<(PeerId, Guid)> = self
            .entries
            .range((subscriber, Guid(0))..=(subscriber, Guid(u128::MAX)))
            .map(|(k, _)| *k)
            .collect();
        for (p, g) in keys {
            self.remove(p, g);
        }
    }

    /// The peers whose interests match an event signature, deduplicated
    /// and in ascending id order (deterministic fan-out on every fabric).
    pub fn resolve(&self, event: &Signature) -> Vec<PeerId> {
        // Candidates: every catch-all interest, plus every interest
        // sharing at least one token with the event (a necessary
        // condition for matching in either direction). Tokens no
        // interest ever used miss the interner and are skipped outright.
        let mut candidates: BTreeSet<(PeerId, Guid)> = self.catch_all.clone();
        for t in event.tokens() {
            if let Some(set) = self.interner.get(t).and_then(|id| self.by_token.get(&id)) {
                candidates.extend(set.iter().copied());
            }
        }
        let mut out: Vec<PeerId> = Vec::new();
        for key @ (peer, _) in candidates {
            if out.last() == Some(&peer) {
                continue;
            }
            if event.matches(&self.entries[&key]) {
                out.push(peer);
            }
        }
        out
    }

    /// Memoized [`resolve`](Self::resolve) keyed by the event's *type
    /// name* — the publish hot path. The first event of a name pays the
    /// full resolution (token split, index walk, signature matching);
    /// every further event of that name, until the next table mutation,
    /// is one map lookup returning a shared slice. The memo is
    /// invalidated wholesale when [`generation`](Self::generation)
    /// moves.
    pub fn resolve_name(&self, name: &str) -> Arc<[PeerId]> {
        let mut cache = self.cache.borrow_mut();
        if cache.generation != self.generation {
            cache.by_name.clear();
            cache.generation = self.generation;
        }
        if let Some(hit) = cache.by_name.get(name) {
            return Arc::clone(hit);
        }
        if cache.by_name.len() >= ROUTE_CACHE_MAX_NAMES {
            cache.by_name.clear();
        }
        let resolved: Arc<[PeerId]> = self.resolve(&Signature::of_name(name)).into();
        cache
            .by_name
            .insert(name.to_string(), Arc::clone(&resolved));
        resolved
    }

    /// Number of registered interests.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Number of distinct tokens currently interned (bounded by live
    /// interests — churn test hook).
    #[cfg(test)]
    fn interned_tokens(&self) -> usize {
        self.interner.ids.len()
    }

    /// Whether no interest is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every registered interest: `(subscriber, interest identity,
    /// signature)` in key order — what a membership VIEW re-announces to
    /// a late joiner so it converges to the same table.
    pub fn entries(&self) -> impl Iterator<Item = (PeerId, Guid, &Signature)> {
        self.entries.iter().map(|(&(p, g), s)| (p, g, s))
    }

    /// Peers holding at least one interest.
    pub fn subscribers(&self) -> Vec<PeerId> {
        let mut out: Vec<PeerId> = Vec::new();
        for (peer, _) in self.entries.keys() {
            if out.last() != Some(peer) {
                out.push(*peer);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pti_metamodel::{primitives, TypeDef};

    fn sig(name: &str) -> Signature {
        Signature::of_name(name)
    }

    #[test]
    fn signature_tokens_and_namespaces() {
        assert_eq!(sig("StockQuote").tokens(), ["stock", "quote"]);
        assert_eq!(sig("finance.StockQuote").tokens(), ["stock", "quote"]);
        assert_eq!(sig("stock_quote").tokens(), ["stock", "quote"]);
    }

    #[test]
    fn signature_matching_is_subsequence_both_ways() {
        assert!(sig("StockQuote").matches(&sig("stockQuote")));
        assert!(sig("StockQuoteV2").matches(&sig("StockQuote")));
        assert!(sig("Quote").matches(&sig("StockQuote")), "less specific");
        assert!(!sig("NewsFlash").matches(&sig("StockQuote")));
        assert!(!sig("QuoteStock").matches(&sig("StockQuote")), "ordered");
    }

    #[test]
    fn signature_wire_roundtrip() {
        let s = sig("SensorReading");
        assert_eq!(Signature::decode(&s.encode()), s);
        assert!(Signature::decode("").tokens().is_empty());
        assert!(Signature::decode("*").is_catch_all());
        assert_eq!(
            Signature::decode(&Signature::catch_all().encode()),
            Signature::catch_all()
        );
    }

    #[test]
    fn of_description_uses_simple_name() {
        let def = TypeDef::class("StockQuote", "v")
            .field("price", primitives::FLOAT64)
            .build();
        let d = TypeDescription::from_def(&def);
        assert_eq!(Signature::of_description(&d), sig("StockQuote"));
    }

    #[test]
    fn table_resolves_matching_subscribers_in_order() {
        let mut t = RoutingTable::new();
        let (ga, gb, gc) = (
            Guid::derive("A", "x"),
            Guid::derive("B", "x"),
            Guid::derive("C", "x"),
        );
        t.insert(PeerId(3), ga, sig("StockQuote"));
        t.insert(PeerId(1), gb, sig("StockQuote"));
        t.insert(PeerId(2), gc, sig("NewsFlash"));
        assert_eq!(t.resolve(&sig("StockQuote")), vec![PeerId(1), PeerId(3)]);
        assert_eq!(t.resolve(&sig("NewsFlash")), vec![PeerId(2)]);
        assert!(t.resolve(&sig("Unrelated")).is_empty());
    }

    #[test]
    fn duplicate_interests_resolve_once() {
        let mut t = RoutingTable::new();
        let (ga, gb) = (Guid::derive("A", "x"), Guid::derive("A", "y"));
        assert!(t.insert(PeerId(1), ga, sig("StockQuote")));
        assert!(!t.insert(PeerId(1), ga, sig("StockQuote")), "idempotent");
        t.insert(PeerId(1), gb, sig("StockQuote"));
        assert_eq!(t.resolve(&sig("StockQuote")), vec![PeerId(1)]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn catch_all_interests_resolve_for_every_event() {
        let mut t = RoutingTable::new();
        let (ga, gb) = (Guid::derive("A", "x"), Guid::derive("B", "x"));
        t.insert(PeerId(1), ga, sig("StockQuote"));
        t.insert(PeerId(2), gb, Signature::catch_all());
        assert!(sig("Anything").matches(&Signature::catch_all()));
        assert_eq!(t.resolve(&sig("StockQuote")), vec![PeerId(1), PeerId(2)]);
        assert_eq!(t.resolve(&sig("Unrelated")), vec![PeerId(2)]);
        // Retraction drops it from the every-event candidate set too.
        assert!(t.remove(PeerId(2), gb));
        assert!(t.resolve(&sig("Unrelated")).is_empty());
    }

    #[test]
    fn generation_moves_only_on_real_mutations() {
        let mut t = RoutingTable::new();
        let g = Guid::derive("A", "x");
        let g0 = t.generation();
        t.insert(PeerId(1), g, sig("StockQuote"));
        let g1 = t.generation();
        assert!(g1 > g0, "insert bumps");
        // Idempotent re-announcement (at-least-once gossip) keeps the
        // generation — and therefore the route cache — untouched.
        t.insert(PeerId(1), g, sig("StockQuote"));
        assert_eq!(t.generation(), g1);
        // A changed signature under the same key is a real mutation.
        t.insert(PeerId(1), g, sig("NewsFlash"));
        assert!(t.generation() > g1);
        let g2 = t.generation();
        assert!(!t.remove(PeerId(9), g), "no-op remove");
        assert_eq!(t.generation(), g2);
        assert!(t.remove(PeerId(1), g));
        assert!(t.generation() > g2);
    }

    #[test]
    fn resolve_name_memoizes_until_the_table_changes() {
        let mut t = RoutingTable::new();
        let (ga, gb) = (Guid::derive("A", "x"), Guid::derive("B", "x"));
        t.insert(PeerId(1), ga, sig("StockQuote"));
        let first = t.resolve_name("StockQuote");
        assert_eq!(&first[..], [PeerId(1)]);
        // A repeat is the *same* shared slice, not a recomputation.
        let again = t.resolve_name("StockQuote");
        assert!(std::sync::Arc::ptr_eq(&first, &again));
        // Namespaces resolve like the signature path does.
        assert_eq!(&t.resolve_name("finance.StockQuote")[..], [PeerId(1)]);
        // A mutation invalidates: the new subscriber appears.
        t.insert(PeerId(2), gb, sig("StockQuote"));
        assert_eq!(&t.resolve_name("StockQuote")[..], [PeerId(1), PeerId(2)]);
        // And a retraction does too.
        t.remove(PeerId(1), ga);
        assert_eq!(&t.resolve_name("StockQuote")[..], [PeerId(2)]);
        t.remove_peer(PeerId(2));
        assert!(t.resolve_name("StockQuote").is_empty());
    }

    #[test]
    fn interner_stays_bounded_under_interest_churn() {
        let mut t = RoutingTable::new();
        // Churn 100 uniquely-named interests through the table...
        for i in 0..100 {
            let g = Guid::derive(&format!("T{i}"), "x");
            t.insert(PeerId(1), g, sig(&format!("Generated{i}Event")));
            assert!(t.remove(PeerId(1), g));
        }
        // ...and only the *live* interests' tokens remain interned.
        assert_eq!(t.interned_tokens(), 0, "evicted with their interests");
        let ga = Guid::derive("A", "x");
        t.insert(PeerId(1), ga, sig("StockQuote"));
        assert_eq!(t.interned_tokens(), 2);
        // Reintroducing an evicted token after other mints cannot
        // collide with a live id: resolution stays exact.
        let gb = Guid::derive("B", "x");
        t.insert(PeerId(2), gb, sig("QuoteFlash"));
        t.remove(PeerId(1), ga);
        t.insert(PeerId(1), ga, sig("StockQuote"));
        assert_eq!(t.resolve(&sig("StockQuote")), vec![PeerId(1)]);
        assert_eq!(t.resolve(&sig("QuoteFlash")), vec![PeerId(2)]);
    }

    #[test]
    fn resolve_name_memo_is_bounded_without_mutations() {
        // A stable table (generation never moves) fed a stream of
        // distinct names — the memo resets at the cap instead of
        // growing forever, and stays correct afterwards.
        let mut t = RoutingTable::new();
        t.insert(PeerId(1), Guid::derive("A", "x"), sig("StockQuote"));
        for i in 0..(super::ROUTE_CACHE_MAX_NAMES * 2 + 5) {
            assert!(t.resolve_name(&format!("Unknown{i}Event")).is_empty());
        }
        assert!(t.cache.borrow().by_name.len() <= super::ROUTE_CACHE_MAX_NAMES);
        assert_eq!(&t.resolve_name("StockQuote")[..], [PeerId(1)]);
    }

    #[test]
    fn resolve_name_agrees_with_resolve() {
        let mut t = RoutingTable::new();
        t.insert(PeerId(3), Guid::derive("A", "x"), sig("StockQuote"));
        t.insert(PeerId(1), Guid::derive("B", "x"), Signature::catch_all());
        for name in ["StockQuote", "stock_quote", "Unrelated", "Quote"] {
            assert_eq!(&t.resolve_name(name)[..], t.resolve(&sig(name)), "{name}");
        }
    }

    #[test]
    fn removal_by_identity_and_by_peer() {
        let mut t = RoutingTable::new();
        let (ga, gb) = (Guid::derive("A", "x"), Guid::derive("A", "y"));
        t.insert(PeerId(1), ga, sig("StockQuote"));
        t.insert(PeerId(1), gb, sig("StockQuote"));
        t.insert(PeerId(2), ga, sig("StockQuote"));
        assert!(t.remove(PeerId(1), ga));
        assert!(!t.remove(PeerId(1), ga), "already gone");
        assert_eq!(t.resolve(&sig("StockQuote")), vec![PeerId(1), PeerId(2)]);
        t.remove_peer(PeerId(1));
        assert_eq!(t.resolve(&sig("StockQuote")), vec![PeerId(2)]);
        assert_eq!(t.subscribers(), vec![PeerId(2)]);
        assert!(!t.is_empty());
    }
}
