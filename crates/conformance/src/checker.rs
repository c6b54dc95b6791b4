//! The implicit structural conformance checker (Figure 2 of the paper).
//!
//! A [`ConformanceChecker`] decides `T' ≼IS T` — whether a received type
//! `T'` can be used wherever `T` is expected — by the paper's rule (vi):
//! either `T'` conforms in **all** aspects (name, fields, supertypes,
//! methods, constructors), or `T'` and `T` are *equivalent*, or `T'`
//! conforms *explicitly* (nominal subtyping). A successful check yields a
//! [`ConformanceBinding`] that dynamic proxies use to translate calls.
//!
//! Two structural features go beyond a naive transcription of the rules:
//!
//! * **Member flattening.** .NET reflection reports inherited public
//!   members; descriptions here declare only their own, so the checker
//!   flattens members over the supertype chain through each side's
//!   [`DescriptionProvider`] (constructors are not inherited).
//! * **Coinductive recursion.** Field/argument types recurse; for
//!   recursive types (`Person` with a `Person` field) the pair under test
//!   is assumed conformant when re-encountered — the standard treatment
//!   for structural subtyping — with a hard depth bound as a backstop.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use pti_metamodel::{
    intern_local, DescriptionProvider, Guid, MethodDesc, Pool, TypeDescription, TypeKind, TypeName,
};

use crate::binding::{ConformanceBinding, CtorBinding, FieldBinding, MethodBinding};
use crate::config::{Ambiguity, ConformanceConfig, Unresolved, Variance};
use crate::contract::Contract;
use crate::report::{Aspect, NonConformance, Reason};

/// Maximum recursion depth through referenced types.
const MAX_DEPTH: usize = 64;
/// Maximum supertype-chain length honoured while flattening members.
const MAX_CHAIN: usize = 32;

/// How a successful check was established.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Conformance {
    /// Same GUID — the very same type (`T' == T`).
    Identical,
    /// `T'` is an explicit (nominal) subtype of `T`.
    Explicit,
    /// `T'` and `T` are structurally identical types from different
    /// publishers (the paper's *equivalence*).
    Equivalent,
    /// `T'` implicitly structurally conforms to `T`; the binding carries
    /// the member translation a proxy needs.
    Structural(ConformanceBinding),
    /// Assumed conformant by the coinductive hypothesis: this pair was
    /// already *being* checked further up the recursion (cyclic type
    /// references). Never returned from a top-level [`check`] call.
    ///
    /// [`check`]: ConformanceChecker::check
    Assumed,
}

impl Conformance {
    /// The member translation table for this conformance, given the
    /// expected type. Identity for all non-structural cases.
    pub fn binding(&self, expected: &TypeDescription) -> ConformanceBinding {
        match self {
            Conformance::Structural(b) => b.clone(),
            _ => ConformanceBinding::identity(expected),
        }
    }
}

/// Cache hit/miss counters (ablation A3 reads these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Checks answered from the cache.
    pub hits: u64,
    /// Checks computed from scratch.
    pub misses: u64,
}

/// One cached verdict: a successful one is bound to its expected type.
type Verdict = Result<Arc<Contract>, NonConformance>;

thread_local! {
    /// The contracts every caching checker on this thread keeps, by
    /// `(received guid, expected guid)`.
    static CONTRACTS: Pool<(Guid, Guid), Contract> = Pool::new();
}

/// The contract `conformance` binds for the pair `key`, as the verdict
/// cache keeps it: an equal contract alive on this thread is shared.
fn cached_contract(
    key: (Guid, Guid),
    target: &TypeDescription,
    conformance: Conformance,
) -> Arc<Contract> {
    intern_local(
        &CONTRACTS,
        key,
        Arc::new(Contract::new(target.clone(), conformance)),
    )
}

/// The conformance checker: rules + per-instance verdict cache.
///
/// The cache holds one verdict per `(received guid, expected guid)`
/// pair; a successful one is an `Arc<`[`Contract`]`>` that
/// [`bind`](Self::bind) hands out, so every proxy for the pair shares
/// the same contract. The checker computes and counts its own verdicts,
/// but the contract it caches comes from a per-thread pool keyed by the
/// pair: if an equal contract is alive on this thread (another peer's
/// checker on the same host bound it), the cache keeps that `Arc`, so
/// every peer on a host reads one copy. Create one checker per peer
/// (its cache assumes a stable description environment);
/// [`clear_cache`](Self::clear_cache) resets it if the environment
/// changes.
pub struct ConformanceChecker {
    config: ConformanceConfig,
    cache: Mutex<HashMap<(Guid, Guid), Verdict>>,
    hits: AtomicU64,
    misses: AtomicU64,
    caching: bool,
}

struct State<'a> {
    in_progress: Vec<(Guid, Guid)>,
    depth: usize,
    depth_exceeded: bool,
    src: &'a dyn DescriptionProvider,
    tgt: &'a dyn DescriptionProvider,
}

impl std::fmt::Debug for ConformanceChecker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConformanceChecker")
            .field("config", &self.config)
            .field("cached_pairs", &self.cache().len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for ConformanceChecker {
    fn default() -> Self {
        Self::new(ConformanceConfig::default())
    }
}

impl ConformanceChecker {
    /// Creates a checker with the given rule configuration.
    pub fn new(config: ConformanceConfig) -> ConformanceChecker {
        ConformanceChecker {
            config,
            cache: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            caching: true,
        }
    }

    /// Creates a checker with GUID-pair caching disabled — every check
    /// recomputes from scratch (ablation A3 baseline).
    pub fn uncached(config: ConformanceConfig) -> ConformanceChecker {
        ConformanceChecker {
            caching: false,
            ..Self::new(config)
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ConformanceConfig {
        &self.config
    }

    /// Cache hit/miss counters so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Counts `hits` cache hits answered outside the checker: a caller
    /// that memoizes a run of [`bind`](Self::bind) calls, all of them
    /// hits, replays their count here so [`stats`](Self::stats) reads
    /// as if the calls had been made.
    pub fn record_hits(&self, hits: u64) {
        self.hits.fetch_add(hits, Ordering::Relaxed);
    }

    /// Empties the verdict cache, bound contracts included (use when the
    /// description environment changes, e.g. a new description for a
    /// previously unresolved name). Proxies already handed out keep
    /// their contracts; the per-thread pool holds them only weakly, so a
    /// contract no proxy or cache holds any more is freed.
    pub fn clear_cache(&self) {
        self.cache().clear();
    }

    /// The verdict cache. A panic while it was held cannot leave it
    /// inconsistent (every update is a single insert or clear), so a
    /// poisoned lock is simply taken over.
    fn cache(&self) -> MutexGuard<'_, HashMap<(Guid, Guid), Verdict>> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The cached verdict for a pair, counting a hit when `count_hit`.
    fn cached(&self, key: (Guid, Guid), count_hit: bool) -> Option<Verdict> {
        let hit = self.cache().get(&key).cloned()?;
        if count_hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        Some(hit)
    }

    /// Decides whether `source` (`T'`, the received type) implicitly
    /// structurally conforms to `target` (`T`, the type of interest).
    ///
    /// `src_provider` resolves type names referenced by `source`
    /// (sender-side descriptions); `tgt_provider` resolves names
    /// referenced by `target` (receiver-side types).
    ///
    /// # Errors
    /// [`NonConformance`] lists every violated aspect.
    pub fn check(
        &self,
        source: &TypeDescription,
        target: &TypeDescription,
        src_provider: &dyn DescriptionProvider,
        tgt_provider: &dyn DescriptionProvider,
    ) -> Result<Conformance, NonConformance> {
        let mut state = State {
            in_progress: Vec::new(),
            depth: 0,
            depth_exceeded: false,
            src: src_provider,
            tgt: tgt_provider,
        };
        self.check_descs(source, target, &mut state)
    }

    /// [`check`](Self::check), answered with the verdict cache's bound
    /// contract for the pair: every call for the same pair returns the
    /// same `Arc`, so a proxy built from it shares rather than rebuilds
    /// the expected description and translation table. Hits and misses
    /// count exactly as in `check` (an identical pair counts neither, yet
    /// its contract is cached too).
    ///
    /// # Errors
    /// [`NonConformance`] lists every violated aspect.
    pub fn bind(
        &self,
        source: &TypeDescription,
        target: &TypeDescription,
        src_provider: &dyn DescriptionProvider,
        tgt_provider: &dyn DescriptionProvider,
    ) -> Result<Arc<Contract>, NonConformance> {
        let key = (source.guid, target.guid);
        let identical = is_identical(source, target);
        if self.caching {
            if let Some(hit) = self.cached(key, !identical) {
                return hit;
            }
        }
        let conformance = self.check(source, target, src_provider, tgt_provider)?;
        if self.caching && !identical {
            // `check` cached the pair unless its recursion hit the depth
            // bound.
            if let Some(Ok(bound)) = self.cache().get(&key) {
                return Ok(Arc::clone(bound));
            }
        }
        if self.caching && identical {
            let bound = cached_contract(key, target, conformance);
            self.cache().insert(key, Ok(Arc::clone(&bound)));
            return Ok(bound);
        }
        Ok(Arc::new(Contract::new(target.clone(), conformance)))
    }

    /// Boolean convenience over [`check`](Self::check).
    pub fn conforms(
        &self,
        source: &TypeDescription,
        target: &TypeDescription,
        src_provider: &dyn DescriptionProvider,
        tgt_provider: &dyn DescriptionProvider,
    ) -> bool {
        self.check(source, target, src_provider, tgt_provider)
            .is_ok()
    }

    fn check_descs(
        &self,
        source: &TypeDescription,
        target: &TypeDescription,
        state: &mut State<'_>,
    ) -> Result<Conformance, NonConformance> {
        // Rule: T' == T (identity short-circuits everything).
        if is_identical(source, target) {
            return Ok(Conformance::Identical);
        }
        let key = (source.guid, target.guid);
        if self.caching {
            if let Some(hit) = self.cached(key, true) {
                return hit.map(|bound| bound.conformance().clone());
            }
        }
        // Coinductive hypothesis for cyclic references.
        if state.in_progress.contains(&key) {
            return Ok(Conformance::Assumed);
        }
        if state.depth >= MAX_DEPTH {
            state.depth_exceeded = true;
            return Err(NonConformance {
                expected: target.name.clone(),
                found: source.name.clone(),
                reasons: vec![Reason::DepthExceeded],
            });
        }
        state.in_progress.push(key);
        state.depth += 1;
        let result = self.check_uncached(source, target, state);
        state.depth -= 1;
        state.in_progress.pop();
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Results derived under a coinductive assumption deeper in the
        // stack are still sound to cache: the assumption is discharged by
        // the time the outermost frame for the pair completes, and inner
        // frames only ran within that computation.
        if !self.caching || state.depth_exceeded {
            return result;
        }
        let verdict = result.map(|conformance| cached_contract(key, target, conformance));
        let answer = verdict
            .as_ref()
            .map(|bound| bound.conformance().clone())
            .map_err(NonConformance::clone);
        self.cache().insert(key, verdict);
        answer
    }

    fn check_uncached(
        &self,
        source: &TypeDescription,
        target: &TypeDescription,
        state: &mut State<'_>,
    ) -> Result<Conformance, NonConformance> {
        // Rule: explicit conformance (T' ≤E T).
        if self.is_explicit_subtype(source, target, state) {
            return Ok(Conformance::Explicit);
        }
        // Rule: equivalence (T' ≅ T).
        if self.is_equivalent(source, target, state) {
            return Ok(Conformance::Equivalent);
        }

        let mut reasons = Vec::new();

        // Kind compatibility (implicit in the paper's class-based setting).
        self.check_kind(source, target, &mut reasons);

        // Aspect (i): type name.
        if !self
            .config
            .type_names
            .matches(target.name.simple(), source.name.simple())
        {
            reasons.push(Reason::NameMismatch {
                expected: target.name.clone(),
                found: source.name.clone(),
            });
        }

        // Aspect (iii): supertypes.
        self.check_supertypes(source, target, state, &mut reasons);

        // Flatten inherited members on both sides (ctors not inherited).
        let (src_fields, src_methods) = self.flatten_members(source, state, Side::Src);
        let (tgt_fields, tgt_methods) = self.flatten_members(target, state, Side::Tgt);

        // Aspect (ii): fields.
        let fields = self.bind_fields(&src_fields, &tgt_fields, state, &mut reasons);

        // Aspect (iv): methods.
        let methods = self.bind_methods(&src_methods, &tgt_methods, state, &mut reasons);

        // Aspect (v): constructors.
        let constructors = self.bind_ctors(source, target, state, &mut reasons);

        if reasons.is_empty() {
            Ok(Conformance::Structural(ConformanceBinding {
                methods,
                fields,
                constructors,
            }))
        } else {
            Err(NonConformance {
                expected: target.name.clone(),
                found: source.name.clone(),
                reasons,
            })
        }
    }

    fn check_kind(
        &self,
        source: &TypeDescription,
        target: &TypeDescription,
        reasons: &mut Vec<Reason>,
    ) {
        let ok = match target.kind {
            // A class may stand in for an expected interface (it offers
            // the methods); an interface cannot stand in for a class.
            TypeKind::Interface => {
                matches!(source.kind, TypeKind::Interface | TypeKind::Class)
            }
            TypeKind::Class => source.kind == TypeKind::Class,
            TypeKind::Primitive => source.kind == TypeKind::Primitive,
        };
        if !ok {
            reasons.push(Reason::KindMismatch {
                expected: target.kind.to_string(),
                found: source.kind.to_string(),
            });
        }
    }

    fn check_supertypes(
        &self,
        source: &TypeDescription,
        target: &TypeDescription,
        state: &mut State<'_>,
        reasons: &mut Vec<Reason>,
    ) {
        // Superclass: T'.super must conform to T.super (when T has one).
        if let Some(tsup) = &target.superclass {
            if tsup.full() != pti_metamodel::primitives::OBJECT {
                match &source.superclass {
                    Some(ssup) => {
                        if !self.name_pair(ssup, Side::Src, tsup, Side::Tgt, state) {
                            reasons.push(Reason::SupertypeMismatch {
                                expected: tsup.clone(),
                                found: Some(ssup.clone()),
                            });
                        }
                    }
                    None => reasons.push(Reason::SupertypeMismatch {
                        expected: tsup.clone(),
                        found: None,
                    }),
                }
            }
        }
        // Interfaces: each interface of T needs a conforming interface of
        // T' (searching T's full declared list against T's).
        for ti in &target.interfaces {
            let found = source
                .interfaces
                .iter()
                .any(|si| self.name_pair(si, Side::Src, ti, Side::Tgt, state));
            if !found {
                reasons.push(Reason::SupertypeMismatch {
                    expected: ti.clone(),
                    found: None,
                });
            }
        }
    }

    fn bind_fields(
        &self,
        src_fields: &[pti_metamodel::FieldDesc],
        tgt_fields: &[pti_metamodel::FieldDesc],
        state: &mut State<'_>,
        reasons: &mut Vec<Reason>,
    ) -> Vec<FieldBinding> {
        let mut out = Vec::new();
        for tf in tgt_fields {
            let candidates: Vec<&pti_metamodel::FieldDesc> = src_fields
                .iter()
                .filter(|sf| {
                    self.config.member_names.matches(&tf.name, &sf.name)
                        && self.name_pair(&sf.ty, Side::Src, &tf.ty, Side::Tgt, state)
                })
                .collect();
            match self.pick(&tf.name, &candidates, |c| c.name.clone()) {
                Pick::One(sf) => out.push(FieldBinding {
                    expected_name: tf.name.clone(),
                    actual_name: sf.name.clone(),
                }),
                Pick::None => reasons.push(Reason::MissingMember {
                    aspect: Aspect::Fields,
                    member: format!("{}: {}", tf.name, tf.ty),
                }),
                Pick::Ambiguous(names) => reasons.push(Reason::AmbiguousMember {
                    aspect: Aspect::Fields,
                    member: tf.name.clone(),
                    candidates: names,
                }),
            }
        }
        out
    }

    fn bind_methods(
        &self,
        src_methods: &[MethodDesc],
        tgt_methods: &[MethodDesc],
        state: &mut State<'_>,
        reasons: &mut Vec<Reason>,
    ) -> Vec<MethodBinding> {
        let mut out = Vec::new();
        for tm in tgt_methods {
            // A candidate is a source method plus a working permutation.
            let mut candidates: Vec<(&MethodDesc, Vec<usize>)> = Vec::new();
            for sm in src_methods {
                if !self.config.ignore_modifiers && sm.modifiers != tm.modifiers {
                    continue;
                }
                if sm.arity() != tm.arity() {
                    continue;
                }
                if !self.config.member_names.matches(&tm.name, &sm.name) {
                    continue;
                }
                // Return types: T'.ret ≼IS T.ret (the "real" caller
                // consumes the return value).
                if !self.name_pair(
                    &sm.return_type,
                    Side::Src,
                    &tm.return_type,
                    Side::Tgt,
                    state,
                ) {
                    continue;
                }
                if let Some(perm) = self.find_perm(&sm.params, &tm.params, state) {
                    candidates.push((sm, perm));
                }
            }
            match self.pick(&tm.name, &candidates, |(m, _)| m.name.clone()) {
                Pick::One((sm, perm)) => out.push(MethodBinding {
                    expected_name: tm.name.clone(),
                    actual_name: sm.name.clone(),
                    perm: perm.clone(),
                }),
                Pick::None => reasons.push(Reason::MissingMember {
                    aspect: Aspect::Methods,
                    member: brief(tm),
                }),
                Pick::Ambiguous(names) => reasons.push(Reason::AmbiguousMember {
                    aspect: Aspect::Methods,
                    member: brief(tm),
                    candidates: names,
                }),
            }
        }
        out
    }

    fn bind_ctors(
        &self,
        source: &TypeDescription,
        target: &TypeDescription,
        state: &mut State<'_>,
        reasons: &mut Vec<Reason>,
    ) -> Vec<CtorBinding> {
        let mut out = Vec::new();
        for tc in &target.constructors {
            let mut candidates: Vec<(usize, Vec<usize>)> = Vec::new();
            for (i, sc) in source.constructors.iter().enumerate() {
                if !self.config.ignore_modifiers && sc.modifiers != tc.modifiers {
                    continue;
                }
                if sc.arity() != tc.arity() {
                    continue;
                }
                if let Some(perm) = self.find_perm(&sc.params, &tc.params, state) {
                    candidates.push((i, perm));
                }
            }
            let member = format!("<ctor>/{}", tc.arity());
            match self.pick(&member, &candidates, |(i, _)| format!("ctor#{i}")) {
                Pick::One((i, perm)) => out.push(CtorBinding {
                    arity: tc.arity(),
                    actual_index: *i,
                    perm: perm.clone(),
                }),
                Pick::None => reasons.push(Reason::MissingMember {
                    aspect: Aspect::Constructors,
                    member,
                }),
                Pick::Ambiguous(names) => reasons.push(Reason::AmbiguousMember {
                    aspect: Aspect::Constructors,
                    member,
                    candidates: names,
                }),
            }
        }
        out
    }

    /// Searches for a permutation assigning each expected (target)
    /// parameter position `i` an actual (source) position `perm[i]` such
    /// that the variance-directed conformance holds pairwise. Prefers the
    /// identity permutation; otherwise backtracking bipartite matching.
    fn find_perm(
        &self,
        src_params: &[TypeName],
        tgt_params: &[TypeName],
        state: &mut State<'_>,
    ) -> Option<Vec<usize>> {
        let n = tgt_params.len();
        if src_params.len() != n {
            return None;
        }
        if n == 0 {
            return Some(Vec::new());
        }
        let mut compat = vec![vec![false; n]; n];
        for i in 0..n {
            for j in 0..n {
                compat[i][j] = match self.config.variance {
                    // Paper rule: arg'_{σ(i)} ≼IS arg_i (covariant).
                    Variance::PaperCovariant => {
                        self.name_pair(&src_params[j], Side::Src, &tgt_params[i], Side::Tgt, state)
                    }
                    // Sound rule: arg_i ≼IS arg'_{σ(i)} (contravariant).
                    Variance::Strict => {
                        self.name_pair(&tgt_params[i], Side::Tgt, &src_params[j], Side::Src, state)
                    }
                };
            }
        }
        if (0..n).all(|i| compat[i][i]) {
            return Some((0..n).collect());
        }
        let mut assigned: Vec<Option<usize>> = vec![None; n]; // source slot -> target index
        let mut perm = vec![0usize; n];
        if Self::assign(0, n, &compat, &mut assigned, &mut perm) {
            Some(perm)
        } else {
            None
        }
    }

    fn assign(
        i: usize,
        n: usize,
        compat: &[Vec<bool>],
        assigned: &mut Vec<Option<usize>>,
        perm: &mut Vec<usize>,
    ) -> bool {
        if i == n {
            return true;
        }
        for j in 0..n {
            if compat[i][j] && assigned[j].is_none() {
                assigned[j] = Some(i);
                perm[i] = j;
                if Self::assign(i + 1, n, compat, assigned, perm) {
                    return true;
                }
                assigned[j] = None;
            }
        }
        false
    }

    /// `a ≼IS b` on *referenced type names*, resolving each through its
    /// side's provider.
    fn name_pair(
        &self,
        a: &TypeName,
        a_side: Side,
        b: &TypeName,
        b_side: Side,
        state: &mut State<'_>,
    ) -> bool {
        use pti_metamodel::primitives as prim;
        // Arrays conform element-wise.
        if a.is_array() || b.is_array() {
            return match (a.element(), b.element()) {
                (Some(ae), Some(be)) => self.name_pair(&ae, a_side, &be, b_side, state),
                _ => false,
            };
        }
        // Primitives (and Void) conform only to themselves.
        if prim::is_primitive(a) || prim::is_primitive(b) {
            return a.eq_ignore_case(b);
        }
        // Everything conforms to the root Object.
        if b.full() == prim::OBJECT {
            return true;
        }
        if a.full() == prim::OBJECT {
            return false;
        }
        let ad = self.provider(a_side, state).describe(a);
        let bd = self.provider(b_side, state).describe(b);
        match (ad, bd) {
            (Some(ad), Some(bd)) => {
                let (src, tgt) = (a_side, b_side);
                self.check_pair_sided(&ad, src, &bd, tgt, state)
            }
            _ => match self.config.unresolved {
                Unresolved::NameFallback => self.config.type_names.matches(b.simple(), a.simple()),
                Unresolved::Fail => false,
            },
        }
    }

    /// Runs a nested description-level check with explicit provider sides
    /// (needed because contravariant checks swap the sides).
    fn check_pair_sided(
        &self,
        a: &TypeDescription,
        a_side: Side,
        b: &TypeDescription,
        b_side: Side,
        state: &mut State<'_>,
    ) -> bool {
        if a_side == Side::Src && b_side == Side::Tgt {
            return self.check_descs(a, b, state).is_ok();
        }
        // Swap the provider roles for the duration of the nested check.
        let swapped_src = self.provider(a_side, state);
        let swapped_tgt = self.provider(b_side, state);
        let mut nested = State {
            in_progress: std::mem::take(&mut state.in_progress),
            depth: state.depth,
            depth_exceeded: false,
            src: swapped_src,
            tgt: swapped_tgt,
        };
        let ok = self.check_descs(a, b, &mut nested).is_ok();
        state.in_progress = nested.in_progress;
        state.depth_exceeded |= nested.depth_exceeded;
        ok
    }

    fn provider<'s>(&self, side: Side, state: &State<'s>) -> &'s dyn DescriptionProvider {
        match side {
            Side::Src => state.src,
            Side::Tgt => state.tgt,
        }
    }

    /// The paper's *equivalence*: structurally identical descriptions.
    /// Because descriptions are non-recursive (types referenced by name),
    /// a name-level match alone could equate types whose same-named
    /// component types differ; equivalence therefore additionally
    /// requires every referenced non-builtin name to resolve to the *same
    /// identity* on both sides. When neither side can resolve a name, the
    /// [`Unresolved`] policy decides (optimistically equal under
    /// `NameFallback`). Anything weaker falls through to the structural
    /// aspects, which recurse properly.
    fn is_equivalent(
        &self,
        source: &TypeDescription,
        target: &TypeDescription,
        state: &mut State<'_>,
    ) -> bool {
        use pti_metamodel::primitives as prim;
        if !source.equivalent(target) {
            return false;
        }
        for name in source.referenced_types() {
            // Strip array suffixes down to the element type.
            let mut base = name;
            while let Some(e) = base.element() {
                base = e;
            }
            if prim::is_builtin(&base) {
                continue;
            }
            match (state.src.describe(&base), state.tgt.describe(&base)) {
                (Some(a), Some(b)) if a.guid == b.guid => {}
                (None, None) => {
                    if self.config.unresolved == Unresolved::Fail {
                        return false;
                    }
                }
                _ => return false,
            }
        }
        true
    }

    /// Explicit (nominal) subtyping: walk `source`'s declared supertype
    /// names through the source-side provider looking for `target`'s GUID.
    fn is_explicit_subtype(
        &self,
        source: &TypeDescription,
        target: &TypeDescription,
        state: &mut State<'_>,
    ) -> bool {
        let mut frontier: Vec<TypeName> = Vec::new();
        if let Some(s) = &source.superclass {
            frontier.push(s.clone());
        }
        frontier.extend(source.interfaces.iter().cloned());
        let mut seen: Vec<Guid> = vec![source.guid];
        let mut hops = 0;
        while let Some(name) = frontier.pop() {
            hops += 1;
            if hops > MAX_CHAIN * 4 {
                break;
            }
            let Some(desc) = state.src.describe(&name) else {
                continue;
            };
            if desc.guid == target.guid {
                return true;
            }
            if seen.contains(&desc.guid) {
                continue;
            }
            seen.push(desc.guid);
            if let Some(s) = &desc.superclass {
                frontier.push(s.clone());
            }
            frontier.extend(desc.interfaces.iter().cloned());
        }
        false
    }

    /// Flattens fields and methods over the supertype chain (like .NET
    /// `Type.GetMethods()` reporting inherited public members). Subtype
    /// declarations shadow supertype ones with the same key.
    fn flatten_members(
        &self,
        desc: &TypeDescription,
        state: &mut State<'_>,
        side: Side,
    ) -> (Vec<pti_metamodel::FieldDesc>, Vec<MethodDesc>) {
        let mut fields: Vec<pti_metamodel::FieldDesc> = desc.fields.clone();
        let mut methods: Vec<MethodDesc> = desc.methods.clone();
        let mut cur = desc.superclass.clone();
        let mut interfaces: Vec<TypeName> = desc.interfaces.clone();
        let mut seen: Vec<Guid> = vec![desc.guid];
        let mut hops = 0;
        while hops < MAX_CHAIN {
            hops += 1;
            let Some(name) = cur.take().or_else(|| interfaces.pop()) else {
                break;
            };
            if name.full() == pti_metamodel::primitives::OBJECT {
                continue;
            }
            let Some(sup) = self.provider(side, state).describe(&name) else {
                continue;
            };
            if seen.contains(&sup.guid) {
                continue;
            }
            seen.push(sup.guid);
            for f in &sup.fields {
                if !fields.iter().any(|x| x.name == f.name) {
                    fields.push(f.clone());
                }
            }
            for m in &sup.methods {
                if !methods
                    .iter()
                    .any(|x| x.name == m.name && x.arity() == m.arity())
                {
                    methods.push(m.clone());
                }
            }
            cur = sup.superclass.clone();
            interfaces.extend(sup.interfaces.iter().cloned());
        }
        (fields, methods)
    }

    fn pick<'c, C>(
        &self,
        expected_name: &str,
        candidates: &'c [C],
        name_of: impl Fn(&C) -> String,
    ) -> Pick<'c, C> {
        match candidates {
            [] => Pick::None,
            [only] => Pick::One(only),
            [first, rest @ ..] => match self.config.ambiguity {
                Ambiguity::First => Pick::One(first),
                Ambiguity::Error => Pick::Ambiguous(candidates.iter().map(&name_of).collect()),
                Ambiguity::BestName => {
                    let distance = |c: &C| {
                        self.config
                            .member_names
                            .distance(expected_name, &name_of(c))
                    };
                    // The first candidate at the smallest distance wins.
                    let (best, _) = rest.iter().fold((first, distance(first)), |best, c| {
                        let d = distance(c);
                        if d < best.1 {
                            (c, d)
                        } else {
                            best
                        }
                    });
                    Pick::One(best)
                }
            },
        }
    }
}

enum Pick<'c, C> {
    One(&'c C),
    None,
    Ambiguous(Vec<String>),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Src,
    Tgt,
}

/// `T' == T`: the same non-nil identity.
fn is_identical(source: &TypeDescription, target: &TypeDescription) -> bool {
    source.guid == target.guid && !source.guid.is_nil()
}

fn brief(m: &MethodDesc) -> String {
    let params: Vec<&str> = m.params.iter().map(|p| p.full()).collect();
    format!("{}({}) -> {}", m.name, params.join(", "), m.return_type)
}
