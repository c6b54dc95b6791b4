//! The interprocedural rules: reachability and taint passes over the
//! [call graph](crate::graph), where the line rules in [`crate::rules`]
//! cannot see far enough.
//!
//! All four passes share the same philosophy as the graph itself:
//! over-approximate, then let a finding's *call path* tell the reader
//! which edge is impossible (and a `pti-allow` document it). Only
//! library and binary code participates — test, example and bench
//! functions are neither roots nor traversed, so a test helper sharing
//! a hot-path method name cannot fabricate reachability.

use std::collections::BTreeMap;

use crate::graph::{CallGraph, Prim};
use crate::lexer::Line;
use crate::parser::FileModel;
use crate::rules::{classify, collect_decls, FileClass, Severity};

/// A rule finding before allow-suppression (file index + 0-based line).
#[derive(Debug, Clone)]
pub struct RawFinding {
    /// Index into the workspace file list.
    pub file: usize,
    /// 0-based line.
    pub line: usize,
    /// Rule id.
    pub rule: &'static str,
    /// Tier.
    pub severity: Severity,
    /// Explanation, including the call path.
    pub message: String,
}

/// One panic site reachable from the dispatch root (the
/// `panic-reachability` report).
#[derive(Debug, Clone)]
pub struct RawPanicSite {
    /// Index into the workspace file list.
    pub file: usize,
    /// 0-based line.
    pub line: usize,
    /// The spelling at the site (`.unwrap()`, `panic!`, …).
    pub what: String,
    /// The call path that reaches it.
    pub via: String,
}

/// Shared input to every interprocedural pass.
pub struct IprContext<'a> {
    /// Parsed file models, parallel to `lines`.
    pub files: &'a [FileModel],
    /// Blanked lines per file (for declaration collection).
    pub lines: &'a [Vec<Line>],
    /// The workspace call graph.
    pub graph: &'a CallGraph,
}

impl IprContext<'_> {
    /// Whether fn `id` participates in interprocedural analysis:
    /// library/binary code outside `#[cfg(test)]`.
    fn analyzable(&self, id: usize) -> bool {
        let r = self.graph.fn_ref(self.files, id);
        if r.def.in_test {
            return false;
        }
        matches!(classify(r.relpath), FileClass::Lib | FileClass::Bin)
    }

    fn fns_where(&self, mut pred: impl FnMut(&str, &str, Option<&str>) -> bool) -> Vec<usize> {
        (0..self.graph.fns.len())
            .filter(|&id| {
                let r = self.graph.fn_ref(self.files, id);
                self.analyzable(id) && pred(r.relpath, &r.def.name, r.def.self_ty.as_deref())
            })
            .collect()
    }
}

// ------------------------------------------------------------ reactor-blocking

/// The functions whose bodies *are* the reactor hot path: everything
/// they can transitively reach runs inside a pump turn, where one
/// blocking call stalls every mounted swarm on the shard.
const REACTOR_ROOTS: &[(&str, &str)] = &[
    ("reactor_host.rs", "pump_slot"),
    ("reactor_host.rs", "run_until_quiescent"),
    ("reactor_host.rs", "run_durable"),
    ("sharded.rs", "worker"),
];

/// Deny: a function transitively reachable from the reactor pump loops
/// calls `thread::sleep`, a blocking `recv`, or reads the wall clock.
pub fn reactor_blocking(ctx: &IprContext<'_>) -> Vec<RawFinding> {
    let roots = ctx.fns_where(|path, name, _| {
        REACTOR_ROOTS
            .iter()
            .any(|(file, root)| path.ends_with(file) && name == *root)
    });
    let parents = ctx.graph.reach(&roots, |id| !ctx.analyzable(id));
    let mut out = Vec::new();
    for &id in parents.keys() {
        let node = &ctx.graph.fns[id];
        for p in &node.prims {
            let blocking = matches!(
                p.prim,
                Prim::Sleep | Prim::InstantNow | Prim::SystemTimeNow | Prim::BlockingRecv
            );
            if !blocking || p.in_test {
                continue;
            }
            out.push(RawFinding {
                file: node.file,
                line: p.line,
                rule: "reactor-blocking",
                severity: Severity::Deny,
                message: format!(
                    "`{}` blocks the reactor hot path (reachable: {})",
                    p.what,
                    ctx.graph.path_to(ctx.files, &parents, id, 5)
                ),
            });
        }
    }
    out
}

// --------------------------------------------------------- refcell-reentrancy

/// Advisory: a method of a shared-cell type (a struct holding
/// `Rc<RefCell<…>>`) takes `borrow_mut()` and, while the guard is still
/// live, calls something that can transitively re-enter a method of the
/// same type that borrows the cell again — the shape that panics at
/// runtime with "already borrowed".
///
/// The guard's hold region is approximated from the token stream: a
/// `let`-bound guard lives to the end of its enclosing block, an
/// expression temporary to the end of its statement. Delegation
/// self-loops (`self.inner.borrow_mut().send(…)` resolving back to the
/// holder itself) are skipped.
pub fn refcell_reentrancy(ctx: &IprContext<'_>) -> Vec<RawFinding> {
    let mut cell_types: Vec<&str> = ctx
        .files
        .iter()
        .flat_map(|f| f.cell_types.iter().map(String::as_str))
        .collect();
    cell_types.sort_unstable();
    cell_types.dedup();

    let mut out = Vec::new();
    for id in 0..ctx.graph.fns.len() {
        if !ctx.analyzable(id) {
            continue;
        }
        let r = ctx.graph.fn_ref(ctx.files, id);
        let Some(ty) = r.def.self_ty.as_deref() else {
            continue;
        };
        if !cell_types.contains(&ty) {
            continue;
        }
        let node = &ctx.graph.fns[id];
        let file = &ctx.files[node.file];
        for p in &node.prims {
            if p.prim != Prim::BorrowMut || p.in_test {
                continue;
            }
            let (region_end, guard) = hold_region(file, r.def.body.clone(), p.tok);
            // Calls made while the guard is (conservatively) live.
            // Calls *on the guard itself* (`core.mark_ready(…)`) run on
            // the cell's interior type and cannot re-enter the wrapper,
            // so they are not offenders — even though untyped-receiver
            // resolution would spread them to the wrapper's methods.
            let mut offenders: Vec<usize> = Vec::new();
            for call in &node.calls {
                if call.tok <= p.tok || call.tok >= region_end {
                    continue;
                }
                let on_guard = guard.as_deref().is_some_and(|g| {
                    file.toks
                        .get(call.tok.wrapping_sub(1))
                        .is_some_and(|t| t.text == ".")
                        && file
                            .toks
                            .get(call.tok.wrapping_sub(2))
                            .is_some_and(|t| t.is_ident && t.text == g)
                });
                if on_guard {
                    continue;
                }
                offenders.extend(call.targets.iter().copied().filter(|&t| t != id));
            }
            offenders.sort_unstable();
            offenders.dedup();
            let parents = ctx
                .graph
                .reach(&offenders, |t| t == id || !ctx.analyzable(t));
            let reentry = parents.keys().copied().find(|&t| {
                let rr = ctx.graph.fn_ref(ctx.files, t);
                rr.def.self_ty.as_deref() == Some(ty)
                    && ctx.graph.fns[t]
                        .prims
                        .iter()
                        .any(|q| matches!(q.prim, Prim::Borrow | Prim::BorrowMut) && !q.in_test)
            });
            if let Some(t) = reentry {
                out.push(RawFinding {
                    file: node.file,
                    line: p.line,
                    rule: "refcell-reentrancy",
                    severity: Severity::Advisory,
                    message: format!(
                        "`borrow_mut()` in {}::{} is held across a call that can re-enter \
                         {} (via {}), which borrows the same cell — runtime panic shape",
                        ty,
                        r.def.name,
                        ctx.graph.display(ctx.files, t),
                        ctx.graph.path_to(ctx.files, &parents, t, 4),
                    ),
                });
            }
        }
    }
    out
}

/// The region where the borrow at `at` is held: token index just past
/// the end of the enclosing block for a `let`-bound guard (plus the
/// guard's binding name), end of the statement for an expression
/// temporary.
fn hold_region(
    file: &FileModel,
    body: std::ops::Range<usize>,
    at: usize,
) -> (usize, Option<String>) {
    let toks = &file.toks;
    // statement start: walk back to the previous `;`, `{` or `}`.
    let mut stmt_start = body.start;
    for j in (body.start..at).rev() {
        if matches!(toks[j].text.as_str(), ";" | "{" | "}") {
            stmt_start = j + 1;
            break;
        }
    }
    let let_at = (stmt_start..at).find(|&j| toks[j].is_ident && toks[j].text == "let");
    if let Some(let_at) = let_at {
        let mut k = let_at + 1;
        if toks.get(k).is_some_and(|t| t.text == "mut") {
            k += 1;
        }
        let guard = toks.get(k).filter(|t| t.is_ident).map(|t| t.text.clone());
        // to the close of the enclosing block: depth goes negative
        let mut depth = 0i32;
        for (j, t) in toks.iter().enumerate().take(body.end).skip(at) {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth < 0 {
                        return (j, guard);
                    }
                }
                _ => {}
            }
        }
        (body.end, guard)
    } else {
        // to the end of the statement
        let mut depth = 0i32;
        for (j, t) in toks.iter().enumerate().take(body.end).skip(at) {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ";" if depth <= 0 => return (j, None),
                _ => {}
            }
        }
        (body.end, None)
    }
}

// ---------------------------------------------------- wire-determinism-taint

/// Iterator-producing methods whose order is the hasher's.
const UNORDERED_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

const SORTERS: &[&str] = &[
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_by_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
];

/// Deny: a value produced by `HashMap`/`HashSet` iteration flows — via
/// local def-use inside one body — into a wire sink (`FrameBatch::push`,
/// `encode_wire`, or a `.send(…)` argument). Sorting the carrier or
/// collecting into a BTree container sanitizes the flow.
pub fn wire_determinism_taint(ctx: &IprContext<'_>) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for (fi, file) in ctx.files.iter().enumerate() {
        if classify(&file.relpath) != FileClass::Lib {
            continue;
        }
        let lines = &ctx.lines[fi];
        let mut hash_idents: Vec<String> = Vec::new();
        let mut batch_idents: Vec<String> = Vec::new();
        for line in lines {
            collect_decls(&line.code, &["HashMap", "HashSet"], &mut hash_idents);
            collect_decls(&line.code, &["FrameBatch"], &mut batch_idents);
        }
        if hash_idents.is_empty() {
            continue;
        }
        for def in &file.fns {
            if def.in_test || def.body.is_empty() {
                continue;
            }
            taint_fn(
                file,
                def.body.clone(),
                &hash_idents,
                &batch_idents,
                fi,
                &mut out,
            );
        }
    }
    out
}

/// Runs the def-use walk over one body.
fn taint_fn(
    file: &FileModel,
    body: std::ops::Range<usize>,
    hash_idents: &[String],
    batch_idents: &[String],
    fi: usize,
    out: &mut Vec<RawFinding>,
) {
    let toks = &file.toks;
    // tainted local → the hash ident it came from
    let mut tainted: BTreeMap<String, String> = BTreeMap::new();

    let mut start = body.start;
    let mut j = body.start;
    while j <= body.end {
        let boundary = j == body.end || matches!(toks[j].text.as_str(), ";" | "{" | "}");
        if !boundary {
            j += 1;
            continue;
        }
        let stmt = start..j;
        start = j + 1;
        j += 1;
        if stmt.is_empty() {
            continue;
        }

        // Source scan: `h.keys()`-shaped chains on a known hash ident.
        let stmt_source = |range: &std::ops::Range<usize>| -> Option<String> {
            for k in range.clone() {
                let t = &toks[k];
                if t.is_ident
                    && hash_idents.contains(&t.text)
                    && toks.get(k + 1).is_some_and(|n| n.text == ".")
                    && toks
                        .get(k + 2)
                        .is_some_and(|n| UNORDERED_METHODS.contains(&n.text.as_str()))
                {
                    return Some(t.text.clone());
                }
            }
            None
        };
        // (a fn, not a closure, so `tainted` stays mutably borrowable)
        fn range_tainted(
            toks: &[crate::parser::Tok],
            tainted: &BTreeMap<String, String>,
            range: &std::ops::Range<usize>,
        ) -> Option<String> {
            for k in range.clone() {
                let t = &toks[k];
                if t.is_ident {
                    if let Some(src) = tainted.get(&t.text) {
                        return Some(src.clone());
                    }
                }
            }
            None
        }

        // ---- sinks first (they judge the pre-statement state plus
        // any inline source in their argument list)
        for k in stmt.clone() {
            let t = &toks[k];
            if !t.is_ident || toks.get(k + 1).is_none_or(|n| n.text != "(") {
                continue;
            }
            let is_method = toks.get(k.wrapping_sub(1)).is_some_and(|p| p.text == ".");
            let sink: Option<String> = match t.text.as_str() {
                "encode_wire" => Some("encode_wire(…)".to_string()),
                "send" if is_method => Some(".send(…)".to_string()),
                "push" if is_method => {
                    let recv = toks.get(k.wrapping_sub(2));
                    recv.filter(|r| r.is_ident && batch_idents.contains(&r.text))
                        .map(|r| format!("{}.push(…) [FrameBatch]", r.text))
                }
                _ => None,
            };
            let Some(sink) = sink else { continue };
            // argument span
            let mut depth = 0i32;
            let mut arg_end = k + 1;
            for (m, tok) in toks.iter().enumerate().take(body.end).skip(k + 1) {
                match tok.text.as_str() {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            arg_end = m;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            let args = k + 2..arg_end;
            let origin = stmt_source(&args).or_else(|| range_tainted(toks, &tainted, &args));
            if let Some(origin) = origin {
                out.push(RawFinding {
                    file: fi,
                    line: t.line,
                    rule: "wire-determinism-taint",
                    severity: Severity::Deny,
                    message: format!(
                        "hasher-ordered value from `{origin}` (HashMap/HashSet iteration) \
                         reaches the wire via `{sink}`; sort it or use a BTree container"
                    ),
                });
            }
        }

        // ---- taint updates
        let words: Vec<&str> = stmt
            .clone()
            .filter(|&k| toks[k].is_ident)
            .map(|k| toks[k].text.as_str())
            .collect();
        let sanitized = stmt.clone().any(|k| {
            toks[k].is_ident && (toks[k].text == "BTreeMap" || toks[k].text == "BTreeSet")
        });
        // sanitizer: `x.sort…()` clears x
        if words.len() >= 2 && SORTERS.contains(&words[1]) {
            tainted.remove(words[0]);
        }
        // `let <pat> = RHS` (incl. `if let` / `while let`)
        if let Some(let_at) = stmt
            .clone()
            .find(|&k| toks[k].is_ident && toks[k].text == "let")
        {
            if let Some(eq_at) = (let_at..stmt.end).find(|&k| {
                toks[k].text == "="
                    && toks.get(k + 1).is_none_or(|n| n.text != "=")
                    // skip `==`/`!=`; a type ascription's closing `>` may
                    // directly precede the binding's `=` (`let x: Vec<u64> =`)
                    && toks
                        .get(k.wrapping_sub(1))
                        .is_none_or(|p| p.text != "=" && p.text != "!")
            }) {
                let rhs = eq_at + 1..stmt.end;
                let origin = stmt_source(&rhs).or_else(|| range_tainted(toks, &tainted, &rhs));
                if let Some(origin) = origin {
                    if !sanitized {
                        for t in &toks[let_at + 1..eq_at] {
                            if t.is_ident
                                && t.text != "mut"
                                && t.text.chars().next().is_some_and(char::is_lowercase)
                            {
                                tainted.insert(t.text.clone(), origin.clone());
                            }
                        }
                    }
                }
            }
        } else if words.first() == Some(&"for") {
            // `for <pat> in TAIL` — TAIL includes a bare hash ident too
            if let Some(in_at) = stmt
                .clone()
                .find(|&k| toks[k].is_ident && toks[k].text == "in")
            {
                let tail = in_at + 1..stmt.end;
                let origin = stmt_source(&tail)
                    .or_else(|| range_tainted(toks, &tainted, &tail))
                    .or_else(|| {
                        tail.clone().find_map(|k| {
                            let t = &toks[k];
                            (t.is_ident && hash_idents.contains(&t.text)).then(|| t.text.clone())
                        })
                    });
                if let Some(origin) = origin {
                    for t in &toks[stmt.start + 1..in_at] {
                        if t.is_ident && t.text.chars().next().is_some_and(char::is_lowercase) {
                            tainted.insert(t.text.clone(), origin.clone());
                        }
                    }
                }
            }
        } else if words.len() >= 2 && (words[1] == "push" || words[1] == "extend") {
            // `v.push(tainted)` taints the carrier
            if let Some(origin) =
                stmt_source(&stmt).or_else(|| range_tainted(toks, &tainted, &stmt))
            {
                if words[0] != origin {
                    tainted.insert(words[0].to_string(), origin);
                }
            }
        } else if stmt.clone().any(|k| {
            toks[k].text == "=" && toks.get(k + 1).is_none_or(|n| n.text != "=") && k > stmt.start
        }) {
            // plain reassignment `x = RHS`
            if let Some(eq_at) = stmt.clone().find(|&k| toks[k].text == "=") {
                let rhs = eq_at + 1..stmt.end;
                if let Some(origin) =
                    stmt_source(&rhs).or_else(|| range_tainted(toks, &tainted, &rhs))
                {
                    if !sanitized {
                        if let Some(first) = stmt.clone().next() {
                            if toks[first].is_ident {
                                tainted.insert(toks[first].text.clone(), origin);
                            }
                        }
                    }
                }
            }
        }
    }
}

// -------------------------------------------------------- panic-reachability

/// Advisory report: every `panic!` / `unwrap` / `expect` /
/// `unreachable!` in library code transitively reachable from
/// `Swarm::dispatch` — the set of lines that can tear down a reactor
/// (and every mounted swarm with it) when a hostile frame lands. The
/// count is ceiling-gated in CI via `pti-lint --json`.
pub fn panic_reachability(ctx: &IprContext<'_>) -> Vec<RawPanicSite> {
    let roots = ctx.fns_where(|_, name, self_ty| name == "dispatch" && self_ty == Some("Swarm"));
    let parents = ctx.graph.reach(&roots, |id| !ctx.analyzable(id));
    let mut out = Vec::new();
    for &id in parents.keys() {
        let node = &ctx.graph.fns[id];
        for p in &node.prims {
            if p.prim != Prim::Panic || p.in_test {
                continue;
            }
            out.push(RawPanicSite {
                file: node.file,
                line: p.line,
                what: p.what.clone(),
                via: ctx.graph.path_to(ctx.files, &parents, id, 5),
            });
        }
    }
    out.sort_by_key(|a| (a.file, a.line, a.what.clone()));
    out.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.what == b.what);
    out
}
