//! Workspace item index and over-approximate call graph.
//!
//! Built once per lint run from every file's [`FileModel`]: each
//! function body (a raw token range) is scanned for call shapes and
//! *primitive effects* (blocking calls, panics, `RefCell` borrows), and
//! calls are resolved to candidate callees with deliberately simple
//! rules that **over-approximate** — when resolution is unsure it adds
//! more edges, never fewer, so reachability-based deny rules cannot
//! miss a path (they may report an impossible one, which a `pti-allow`
//! documents away):
//!
//! * `recv.name(…)` — if the receiver's type is known (it is `self`, a
//!   typed parameter, or a `let x = Type::new(…)` local), the call
//!   resolves to that type's method of that name; otherwise it resolves
//!   to **every** method of that name in the workspace (this is the
//!   trait-call rule: calls through `T: Transport` reach all impls) —
//!   except std-trait impls (`Clone`, `Display`, …), which only typed
//!   receivers reach.
//! * `Type::name(…)` — methods of `Type` (through `use` aliases), then
//!   free fns inside a module with that name; qualified paths are
//!   static, so an unresolved one gets no edges rather than all of them.
//! * `name(…)` — every free fn of that name.
//! * prim-shaped methods (`.borrow()`, `.unwrap()`, `.recv()`, …) are
//!   effects, never edges.
//!
//! Reachability queries record parent edges so a finding can print the
//! call path that makes it reachable.

use std::collections::BTreeMap;

use crate::parser::{FileModel, FnDef, Tok};

/// Primitive effects a function body can contain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prim {
    /// `thread::sleep(…)`.
    Sleep,
    /// `Instant::now()`.
    InstantNow,
    /// `SystemTime::now()`.
    SystemTimeNow,
    /// `.recv()`, `.recv_timeout(…)`.
    BlockingRecv,
    /// `panic!`, `unreachable!`, `.unwrap()`, `.expect(…)`.
    Panic,
    /// `.borrow_mut()`.
    BorrowMut,
    /// `.borrow()`.
    Borrow,
}

impl Prim {
    /// Short display form used in finding messages.
    pub fn label(self) -> &'static str {
        match self {
            Prim::Sleep => "thread::sleep",
            Prim::InstantNow => "Instant::now",
            Prim::SystemTimeNow => "SystemTime::now",
            Prim::BlockingRecv => "blocking recv",
            Prim::Panic => "panic site",
            Prim::BorrowMut => "borrow_mut()",
            Prim::Borrow => "borrow()",
        }
    }
}

/// One primitive-effect site inside a function body.
#[derive(Debug, Clone)]
pub struct PrimUse {
    /// Which effect.
    pub prim: Prim,
    /// 0-based source line.
    pub line: usize,
    /// Token index in the file's token stream.
    pub tok: usize,
    /// Whether the site is inside `#[cfg(test)]` code.
    pub in_test: bool,
    /// The exact spelling (`.unwrap()`, `panic!`, …) for messages.
    pub what: String,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name as written.
    pub name: String,
    /// 0-based source line.
    pub line: usize,
    /// Token index of the callee name in the file's token stream.
    pub tok: usize,
    /// Resolved candidate callees (indices into [`CallGraph::fns`]).
    pub targets: Vec<usize>,
}

/// One function in the flattened workspace index.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Index of the owning file in the workspace file list.
    pub file: usize,
    /// Index of the [`FnDef`] within that file's model.
    pub def: usize,
    /// Calls made from the body.
    pub calls: Vec<CallSite>,
    /// Primitive effects in the body.
    pub prims: Vec<PrimUse>,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Flattened function nodes.
    pub fns: Vec<FnNode>,
    /// Parallel adjacency (deduped targets of all call sites).
    pub edges: Vec<Vec<usize>>,
}

/// Borrowed view of one function's identity (for display and rules).
pub struct FnRef<'a> {
    /// Workspace-relative path of the defining file.
    pub relpath: &'a str,
    /// The parsed definition.
    pub def: &'a FnDef,
}

impl CallGraph {
    /// Builds the index and graph from every parsed file.
    pub fn build(files: &[FileModel]) -> CallGraph {
        let mut graph = CallGraph::default();
        // ---- flatten + resolution maps
        let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_type_method: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut mod_fns: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (di, def) in file.fns.iter().enumerate() {
                let id = graph.fns.len();
                graph.fns.push(FnNode {
                    file: fi,
                    def: di,
                    calls: Vec::new(),
                    prims: Vec::new(),
                });
                match &def.self_ty {
                    Some(ty) => {
                        // Untyped method calls spread to every method of
                        // the name — except std-trait impls (`Clone`,
                        // `Display`, …): a bare `.clone()` resolving to
                        // every hand-written `Clone` impl floods the
                        // graph with absurd edges. Typed receivers still
                        // resolve to them through `by_type_method`.
                        if !def
                            .trait_name
                            .as_deref()
                            .is_some_and(|t| STD_TRAITS.contains(&t))
                        {
                            methods_by_name.entry(&def.name).or_default().push(id);
                        }
                        by_type_method
                            .entry((ty.as_str(), &def.name))
                            .or_default()
                            .push(id);
                    }
                    None if def.trait_name.is_some() => {
                        // Trait default method: callable through any impl.
                        // Body-less declarations are interface surface,
                        // not code — the impls are the candidates.
                        if !def.body.is_empty() {
                            methods_by_name.entry(&def.name).or_default().push(id);
                        }
                    }
                    None => {
                        free_by_name.entry(&def.name).or_default().push(id);
                        // A file IS a module: `crate::inner::drain` must
                        // resolve to a top-level fn in `inner.rs` just
                        // like one in an inline `mod inner`.
                        let m = def
                            .module
                            .last()
                            .map(String::as_str)
                            .unwrap_or_else(|| file_stem(&file.relpath));
                        if !m.is_empty() {
                            mod_fns.entry((m, &def.name)).or_default().push(id);
                        }
                    }
                }
            }
        }
        // use-alias maps per file: local name -> final segment
        let alias: Vec<BTreeMap<&str, &str>> = files
            .iter()
            .map(|f| {
                f.uses
                    .iter()
                    .filter_map(|u| Some((u.local.as_str(), u.path.last()?.as_str())))
                    .collect()
            })
            .collect();

        // ---- scan bodies
        let mut id = 0usize;
        for (fi, file) in files.iter().enumerate() {
            for def in &file.fns {
                let locals = local_types(file, def);
                let node = &mut graph.fns[id];
                scan_body(file, def, &locals, node);
                // resolve the recorded call names
                for call in &mut node.calls {
                    call.targets = resolve(
                        &call.resolution_key(file, def, &locals),
                        &alias[fi],
                        &methods_by_name,
                        &by_type_method,
                        &free_by_name,
                        &mod_fns,
                    );
                }
                id += 1;
            }
        }
        graph.edges = graph
            .fns
            .iter()
            .map(|n| {
                let mut e: Vec<usize> = n.calls.iter().flat_map(|c| c.targets.clone()).collect();
                e.sort_unstable();
                e.dedup();
                e
            })
            .collect();
        graph
    }

    /// Identity view of fn `id`.
    pub fn fn_ref<'a>(&'a self, files: &'a [FileModel], id: usize) -> FnRef<'a> {
        let node = &self.fns[id];
        FnRef {
            relpath: &files[node.file].relpath,
            def: &files[node.file].fns[node.def],
        }
    }

    /// Display name: `Type::name` or `name`.
    pub fn display(&self, files: &[FileModel], id: usize) -> String {
        let r = self.fn_ref(files, id);
        match &r.def.self_ty {
            Some(ty) => format!("{ty}::{}", r.def.name),
            None => r.def.name.clone(),
        }
    }

    /// BFS from `roots`, skipping functions for which `exclude` returns
    /// true (they are neither visited nor traversed). Returns, for every
    /// reachable fn, the id of the fn it was first reached from (`None`
    /// for roots).
    pub fn reach(
        &self,
        roots: &[usize],
        mut exclude: impl FnMut(usize) -> bool,
    ) -> BTreeMap<usize, Option<usize>> {
        let mut parent: BTreeMap<usize, Option<usize>> = BTreeMap::new();
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for &r in roots {
            if !exclude(r) && !parent.contains_key(&r) {
                parent.insert(r, None);
                queue.push_back(r);
            }
        }
        while let Some(at) = queue.pop_front() {
            for &next in &self.edges[at] {
                if !parent.contains_key(&next) && !exclude(next) {
                    parent.insert(next, Some(at));
                    queue.push_back(next);
                }
            }
        }
        parent
    }

    /// The call path `root → … → id` implied by a `reach` parent map,
    /// rendered with display names (capped to the last `max` hops).
    pub fn path_to(
        &self,
        files: &[FileModel],
        parents: &BTreeMap<usize, Option<usize>>,
        id: usize,
        max: usize,
    ) -> String {
        let mut hops = vec![self.display(files, id)];
        let mut at = id;
        while let Some(Some(p)) = parents.get(&at) {
            hops.push(self.display(files, *p));
            at = *p;
        }
        hops.reverse();
        if hops.len() > max {
            let skipped = hops.len() - max;
            let tail = hops.split_off(skipped);
            format!("{} → … → {}", hops[0], tail.join(" → "))
        } else {
            hops.join(" → ")
        }
    }

    /// DOT rendering of the whole graph (debug aid for `--graph`).
    pub fn to_dot(&self, files: &[FileModel]) -> String {
        let mut out = String::from("digraph calls {\n  rankdir=LR;\n");
        for id in 0..self.fns.len() {
            let r = self.fn_ref(files, id);
            out.push_str(&format!(
                "  n{id} [label=\"{}\\n{}\"];\n",
                self.display(files, id),
                r.relpath
            ));
        }
        for (id, edges) in self.edges.iter().enumerate() {
            for e in edges {
                out.push_str(&format!("  n{id} -> n{e};\n"));
            }
        }
        out.push_str("}\n");
        out
    }
}

/// The implicit module name a file defines (`…/inner.rs` → `inner`;
/// `lib.rs`/`main.rs`/`mod.rs` name no usable module segment).
fn file_stem(relpath: &str) -> &str {
    let name = relpath.rsplit('/').next().unwrap_or(relpath);
    let stem = name.strip_suffix(".rs").unwrap_or(name);
    match stem {
        "lib" | "main" | "mod" => "",
        s => s,
    }
}

/// Std traits whose impls untyped method calls do NOT spread to (see
/// [`CallGraph::build`]).
const STD_TRAITS: &[&str] = &[
    "Clone",
    "Copy",
    "Default",
    "Drop",
    "Debug",
    "Display",
    "PartialEq",
    "Eq",
    "PartialOrd",
    "Ord",
    "Hash",
    "Iterator",
    "IntoIterator",
    "From",
    "Into",
    "TryFrom",
    "TryInto",
    "FromStr",
    "Deref",
    "DerefMut",
    "Index",
    "IndexMut",
    "Read",
    "Write",
];

/// Keywords that look like calls when followed by `(`.
const NON_CALLS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "let", "in", "move", "fn", "as", "else",
    "break", "continue", "where", "unsafe", "dyn", "impl", "ref", "mut", "self", "Self", "super",
    "crate", "pub", "use", "true", "false",
];

/// How a call site should be resolved.
enum Key<'a> {
    Method {
        name: &'a str,
        recv_ty: Option<String>,
    },
    Qualified {
        name: &'a str,
        qualifier: String,
    },
    Free {
        name: &'a str,
    },
}

impl CallSite {
    /// Re-derives the resolution key from the token context (receiver
    /// shape is recomputed — the site only stores the callee name/tok).
    fn resolution_key<'a>(
        &'a self,
        file: &FileModel,
        def: &FnDef,
        locals: &BTreeMap<String, String>,
    ) -> Key<'a> {
        let j = self.tok;
        let prev = |k: usize| file.toks.get(j.wrapping_sub(k)).map(|t| t.text.as_str());
        if prev(1) == Some(".") {
            // method call: type the receiver if it is a bare ident (or
            // `self`) not itself part of a field chain
            let recv_ty = match prev(2) {
                Some("self") if prev(3) != Some(".") => def.self_ty.clone(),
                Some(id)
                    if file.toks.get(j.wrapping_sub(2)).is_some_and(|t| t.is_ident)
                        && prev(3) != Some(".") =>
                {
                    locals.get(id).cloned()
                }
                _ => None,
            };
            Key::Method {
                name: &self.name,
                recv_ty,
            }
        } else if prev(1) == Some(":") && prev(2) == Some(":") {
            let qualifier = match prev(3) {
                Some("Self") => def.self_ty.clone().unwrap_or_else(|| "Self".to_string()),
                Some(q) => q.to_string(),
                None => String::new(),
            };
            Key::Qualified {
                name: &self.name,
                qualifier,
            }
        } else {
            Key::Free { name: &self.name }
        }
    }
}

fn resolve(
    key: &Key<'_>,
    alias: &BTreeMap<&str, &str>,
    methods_by_name: &BTreeMap<&str, Vec<usize>>,
    by_type_method: &BTreeMap<(&str, &str), Vec<usize>>,
    free_by_name: &BTreeMap<&str, Vec<usize>>,
    mod_fns: &BTreeMap<(&str, &str), Vec<usize>>,
) -> Vec<usize> {
    match key {
        Key::Method { name, recv_ty } => {
            if let Some(ty) = recv_ty {
                let exact = by_type_method.get(&(ty.as_str(), *name));
                if let Some(t) = exact {
                    return t.clone();
                }
            }
            methods_by_name.get(*name).cloned().unwrap_or_default()
        }
        Key::Qualified { name, qualifier } => {
            // Qualified paths are static — resolve exactly (methods of
            // the type, then free fns in a module of that name) or not
            // at all. Falling back to "any fn of this name" would wire
            // every `Vec::new()` to every user constructor.
            let q: &str = alias.get(qualifier.as_str()).copied().unwrap_or(qualifier);
            if let Some(t) = by_type_method.get(&(q, *name)) {
                return t.clone();
            }
            mod_fns.get(&(q, *name)).cloned().unwrap_or_default()
        }
        Key::Free { name } => free_by_name.get(*name).cloned().unwrap_or_default(),
    }
}

/// Builds the local ident → base-type map for a function: `self_ty` for
/// `self`, typed parameters, and `let x: Ty` / `let x = Ty::…(…)` lets.
fn local_types(file: &FileModel, def: &FnDef) -> BTreeMap<String, String> {
    let mut map = BTreeMap::new();
    let toks = &file.toks;
    // parameters: `name: [&][mut] Type` pairs at paren depth 0
    let mut depth = 0i32;
    let mut i = def.params.start;
    while i < def.params.end {
        match toks[i].text.as_str() {
            "(" | "<" | "[" => depth += 1,
            ")" | ">" | "]" => depth -= 1,
            ":" if depth == 0
                && toks.get(i + 1).is_none_or(|t| t.text != ":")
                && toks.get(i.wrapping_sub(1)).is_some_and(|t| t.is_ident) =>
            {
                let name = toks[i - 1].text.clone();
                if let Some(ty) = base_type(toks, i + 1, def.params.end) {
                    map.insert(name, ty);
                }
            }
            _ => {}
        }
        i += 1;
    }
    // lets in the body
    let mut j = def.body.start;
    while j < def.body.end {
        if toks[j].text == "let" && toks[j].is_ident {
            let mut k = j + 1;
            if toks.get(k).is_some_and(|t| t.text == "mut") {
                k += 1;
            }
            if toks.get(k).is_some_and(|t| t.is_ident) {
                let name = toks[k].text.clone();
                let next = toks.get(k + 1).map(|t| t.text.as_str());
                if next == Some(":") && toks.get(k + 2).is_none_or(|t| t.text != ":") {
                    if let Some(ty) = base_type(toks, k + 2, def.body.end) {
                        map.insert(name, ty);
                    }
                } else if next == Some("=") {
                    // `let x = Type::ctor(…)` — a capitalized path head
                    let head = toks.get(k + 2);
                    let is_path = toks.get(k + 3).is_some_and(|t| t.text == ":")
                        && toks.get(k + 4).is_some_and(|t| t.text == ":");
                    if let Some(h) = head {
                        if h.is_ident
                            && is_path
                            && h.text.chars().next().is_some_and(char::is_uppercase)
                        {
                            map.insert(name, h.text.clone());
                        }
                    }
                }
            }
        }
        j += 1;
    }
    map
}

/// The base identifier of the type starting at `i` (`&mut Swarm<T>` →
/// `Swarm`).
fn base_type(toks: &[Tok], mut i: usize, end: usize) -> Option<String> {
    while i < end {
        let t = &toks[i];
        if t.is_ident {
            if matches!(t.text.as_str(), "mut" | "dyn" | "impl" | "const") {
                i += 1;
                continue;
            }
            // walk `a::b::C` to the final segment
            let mut last = t.text.clone();
            let mut j = i + 1;
            while toks.get(j).is_some_and(|t| t.text == ":")
                && toks.get(j + 1).is_some_and(|t| t.text == ":")
                && toks.get(j + 2).is_some_and(|t| t.is_ident)
            {
                last = toks[j + 2].text.clone();
                j += 3;
            }
            return Some(last);
        }
        if matches!(t.text.as_str(), "&" | "'" | "*" | "(") {
            i += 1;
            continue;
        }
        return None;
    }
    None
}

/// Scans a body's tokens for call sites and primitive effects.
fn scan_body(file: &FileModel, def: &FnDef, _locals: &BTreeMap<String, String>, node: &mut FnNode) {
    let toks = &file.toks;
    let mut j = def.body.start;
    while j < def.body.end {
        let t = &toks[j];
        if !t.is_ident {
            j += 1;
            continue;
        }
        let next = toks.get(j + 1).map(|t| t.text.as_str());
        let prev = toks.get(j.wrapping_sub(1)).map(|t| t.text.as_str());
        let is_method = prev == Some(".");
        // ---- primitive effects
        let qualified_by = |q: &str| {
            j >= 3 && toks[j - 1].text == ":" && toks[j - 2].text == ":" && toks[j - 3].text == q
        };
        let prim = match t.text.as_str() {
            "sleep" if qualified_by("thread") => Some((Prim::Sleep, "thread::sleep")),
            "now" if qualified_by("Instant") => Some((Prim::InstantNow, "Instant::now")),
            "now" if qualified_by("SystemTime") => Some((Prim::SystemTimeNow, "SystemTime::now")),
            "recv" if is_method && next == Some("(") => Some((Prim::BlockingRecv, ".recv()")),
            "recv_timeout" if is_method && next == Some("(") => {
                Some((Prim::BlockingRecv, ".recv_timeout(…)"))
            }
            "unwrap" if is_method && next == Some("(") => Some((Prim::Panic, ".unwrap()")),
            "expect" if is_method && next == Some("(") => Some((Prim::Panic, ".expect(…)")),
            "panic" if next == Some("!") => Some((Prim::Panic, "panic!")),
            "unreachable" if next == Some("!") => Some((Prim::Panic, "unreachable!")),
            "borrow_mut" if is_method && next == Some("(") => {
                Some((Prim::BorrowMut, ".borrow_mut()"))
            }
            "borrow" if is_method && next == Some("(") => Some((Prim::Borrow, ".borrow()")),
            _ => None,
        };
        if let Some((prim, what)) = prim {
            node.prims.push(PrimUse {
                prim,
                line: t.line,
                tok: j,
                in_test: t.in_test,
                what: what.to_string(),
            });
        }
        // ---- call sites (a prim-shaped method is an *effect*, not an
        // edge: `.borrow()` must not resolve to some user type's
        // `borrow` method and drag its callees into the graph)
        let prim_shaped = is_method
            && matches!(
                t.text.as_str(),
                "recv" | "recv_timeout" | "unwrap" | "expect" | "borrow" | "borrow_mut"
            );
        if next == Some("(") && !prim_shaped && !NON_CALLS.contains(&t.text.as_str()) {
            node.calls.push(CallSite {
                name: t.text.clone(),
                line: t.line,
                tok: j,
                targets: Vec::new(),
            });
        }
        j += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    fn build(srcs: &[(&str, &str)]) -> (Vec<FileModel>, CallGraph) {
        let files: Vec<FileModel> = srcs.iter().map(|(p, s)| parse_file(p, &lex(s))).collect();
        let graph = CallGraph::build(&files);
        (files, graph)
    }

    fn fid(files: &[FileModel], graph: &CallGraph, name: &str) -> usize {
        (0..graph.fns.len())
            .find(|&i| graph.fn_ref(files, i).def.name == name)
            .unwrap()
    }

    #[test]
    fn free_calls_resolve_across_files() {
        let (files, g) = build(&[
            ("crates/a/src/lib.rs", "fn caller() { helper(); }\n"),
            ("crates/b/src/lib.rs", "fn helper() {}\n"),
        ]);
        let caller = fid(&files, &g, "caller");
        let helper = fid(&files, &g, "helper");
        assert_eq!(g.edges[caller], vec![helper]);
    }

    #[test]
    fn typed_receivers_resolve_to_one_impl_untyped_to_all() {
        let src = "
struct A; struct B;
impl A { fn go(&self) {} }
impl B { fn go(&self) {} }
fn typed() { let a = A::new(); a.go(); }
fn untyped(x: &X) { x.go(); }
";
        let (files, g) = build(&[("crates/a/src/lib.rs", src)]);
        let typed = fid(&files, &g, "typed");
        let untyped = fid(&files, &g, "untyped");
        // a is typed A (let a = A::new()) → only A::go (A::new also
        // recorded as an unresolved qualified call → no targets).
        let a_go = (0..g.fns.len())
            .find(|&i| {
                let r = g.fn_ref(&files, i);
                r.def.name == "go" && r.def.self_ty.as_deref() == Some("A")
            })
            .unwrap();
        assert_eq!(g.edges[typed], vec![a_go]);
        // x's type X has no methods here → every `go` in the workspace.
        assert_eq!(g.edges[untyped].len(), 2);
    }

    #[test]
    fn trait_calls_spread_to_all_impls() {
        let src = "
trait Transport { fn send(&self); }
struct Sim; struct Bus;
impl Transport for Sim { fn send(&self) {} }
impl Transport for Bus { fn send(&self) {} }
fn fan(t: &T) { t.send(); }
";
        let (files, g) = build(&[("crates/a/src/lib.rs", src)]);
        let fan = fid(&files, &g, "fan");
        assert_eq!(g.edges[fan].len(), 2, "both impls are candidates");
    }

    #[test]
    fn prims_are_detected() {
        let src = "
fn blocky(rx: &Receiver<u8>) {
    std::thread::sleep(d);
    let t = Instant::now();
    let _ = rx.recv();
    maybe.unwrap();
    panic!(\"boom\");
}
";
        let (files, g) = build(&[("crates/a/src/lib.rs", src)]);
        let f = fid(&files, &g, "blocky");
        let prims: Vec<Prim> = g.fns[f].prims.iter().map(|p| p.prim).collect();
        assert_eq!(
            prims,
            [
                Prim::Sleep,
                Prim::InstantNow,
                Prim::BlockingRecv,
                Prim::Panic,
                Prim::Panic
            ]
        );
    }

    #[test]
    fn reach_reports_parent_paths_and_respects_exclusion() {
        let (files, g) = build(&[(
            "crates/a/src/lib.rs",
            "fn root() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}\nfn island() {}\n",
        )]);
        let root = fid(&files, &g, "root");
        let mid = fid(&files, &g, "mid");
        let leaf = fid(&files, &g, "leaf");
        let island = fid(&files, &g, "island");
        let parents = g.reach(&[root], |_| false);
        assert!(parents.contains_key(&leaf));
        assert!(!parents.contains_key(&island));
        assert_eq!(g.path_to(&files, &parents, leaf, 8), "root → mid → leaf");
        // Excluding `mid` cuts the path to leaf.
        let parents = g.reach(&[root], |id| id == mid);
        assert!(!parents.contains_key(&leaf));
    }

    #[test]
    fn qualified_calls_resolve_through_use_aliases() {
        let (files, g) = build(&[
            (
                "crates/a/src/lib.rs",
                "use crate::fabric::SimNet as Fabric;\nfn mk() { Fabric::start(); }\n",
            ),
            ("crates/b/src/lib.rs", "impl SimNet { fn start() {} }\n"),
        ]);
        let mk = fid(&files, &g, "mk");
        let start = fid(&files, &g, "start");
        assert_eq!(g.edges[mk], vec![start]);
    }
}
