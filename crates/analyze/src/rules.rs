//! The rule set: each rule encodes one invariant the compiler cannot
//! check, scoped to the paths where the invariant actually holds. The
//! layout follows the checker-with-rule-table shape the conformance
//! solver already borrowed (SNIPPETS.md snippet 1): a static table of
//! rules, each deciding *where* it applies ([`Rule::severity_for`]) and
//! *what* trips it ([`Rule::check`]).
//!
//! Severity has two tiers: [`Severity::Deny`] findings fail `pti-lint`
//! (and CI); [`Severity::Advisory`] findings are reported but do not
//! fail the build. A finding on a line (or directly under a
//! comment-only line) carrying `// pti-allow(rule): reason` is
//! suppressed — the reason is mandatory, and a malformed or unknown
//! allow is itself a deny finding (`allow-syntax`).

use crate::lexer::Line;

/// How a finding counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Fails the lint run (nonzero exit).
    Deny,
    /// Reported, never fails the run.
    Advisory,
}

/// Where a file sits in the workspace — decides which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// `crates/<c>/src/**` (library code).
    Lib,
    /// `crates/<c>/src/bin/**` (binaries — may print).
    Bin,
    /// `crates/<c>/tests/**` (crate integration tests).
    CrateTests,
    /// Workspace `tests/**` (umbrella integration tests).
    IntegrationTests,
    /// Workspace `examples/**`.
    Examples,
    /// `crates/bench/**` (the experiments harness).
    Bench,
}

/// Classifies a workspace-relative path (forward slashes).
pub fn classify(relpath: &str) -> FileClass {
    if relpath.starts_with("crates/bench/") {
        FileClass::Bench
    } else if relpath.starts_with("tests/") {
        FileClass::IntegrationTests
    } else if relpath.starts_with("examples/") {
        FileClass::Examples
    } else if relpath.contains("/src/bin/") {
        FileClass::Bin
    } else if relpath.starts_with("crates/") && relpath.contains("/tests/") {
        FileClass::CrateTests
    } else {
        FileClass::Lib
    }
}

/// How a rule inspects a file.
#[derive(Clone, Copy)]
pub enum Check {
    /// Independent per-line pattern check on blanked code.
    Line(fn(code: &str) -> Option<String>),
    /// Whole-file check (for rules needing cross-line state, like
    /// receiver-type tracking); returns `(zero-based line, message)`.
    File(fn(lines: &[Line]) -> Vec<(usize, String)>),
}

/// One lint rule.
#[derive(Clone, Copy)]
pub struct Rule {
    /// Stable id, used in output and in `pti-allow(<id>)` comments.
    pub id: &'static str,
    /// One-line statement of the invariant.
    pub summary: &'static str,
    /// Whether `#[cfg(test)]` code is exempt.
    pub exempt_tests: bool,
    /// Scope + tier decision for a file.
    pub severity_for: fn(relpath: &str, class: FileClass) -> Option<Severity>,
    /// The pattern check.
    pub check: Check,
}

/// The rule table. Order is the report order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "wall-clock",
        summary: "deterministic fabrics and codecs must not read the wall clock",
        exempt_tests: true,
        severity_for: wall_clock_scope,
        check: Check::Line(wall_clock_check),
    },
    Rule {
        id: "unordered-iter",
        summary: "no HashMap/HashSet iteration on paths that feed byte-identical logs",
        exempt_tests: true,
        severity_for: unordered_iter_scope,
        check: Check::File(unordered_iter_file),
    },
    Rule {
        id: "thread-confinement",
        summary: "thread primitives are confined to sharded.rs",
        exempt_tests: false,
        severity_for: thread_confinement_scope,
        check: Check::Line(thread_confinement_check),
    },
    Rule {
        id: "panic-policy",
        summary: "unwrap/expect/panic! in fabric library code needs a pti-allow reason",
        exempt_tests: true,
        severity_for: panic_policy_scope,
        check: Check::Line(panic_policy_check),
    },
    Rule {
        id: "print-discipline",
        summary: "library crates do not print; use metrics or return values",
        exempt_tests: true,
        severity_for: print_discipline_scope,
        check: Check::Line(print_discipline_check),
    },
    Rule {
        id: "unbounded-queue",
        summary: "wire/inbox queue pushes need a visible bound or a stated reason",
        exempt_tests: true,
        severity_for: unbounded_queue_scope,
        check: Check::File(unbounded_queue_file),
    },
];

/// Looks a rule up by id (for allow-comment validation).
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// The interprocedural rule ids, implemented in [`crate::ipr`] rather
/// than the [`RULES`] table (they need the whole workspace's call
/// graph, not one file's lines).
pub const IPR_RULE_IDS: &[&str] = &[
    "reactor-blocking",
    "refcell-reentrancy",
    "wire-determinism-taint",
    "panic-reachability",
];

/// Whether `id` names any rule a `pti-allow` may reference: a table
/// rule or an interprocedural one.
pub fn known_rule_id(id: &str) -> bool {
    rule_by_id(id).is_some() || IPR_RULE_IDS.contains(&id)
}

/// Whether `needle` occurs in `hay` as a standalone token: the chars on
/// both sides (if any) must not be identifier chars. `::`-qualified
/// callers still match (`:` is not an identifier char).
fn contains_token(hay: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let at = from + pos;
        let before_ok = at == 0
            || !hay[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = hay[at + needle.len()..].chars().next();
        let after_ok = !after.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        from = at + needle.len();
    }
    false
}

// ---------------------------------------------------------------- wall-clock

/// The virtual-time fabric (`ReactorNet`, alias `SimNet`) and the
/// codecs must be pure functions of their inputs; no file of theirs
/// owns real time. `crates/transport` is covered with call-graph
/// precision by the interprocedural `reactor-blocking` rule instead of
/// a blanket file ban.
fn wall_clock_scope(relpath: &str, class: FileClass) -> Option<Severity> {
    if class != FileClass::Lib && class != FileClass::Bin {
        return None;
    }
    let in_scope =
        relpath.starts_with("crates/net/src/") || relpath.starts_with("crates/serialize/src/");
    in_scope.then_some(Severity::Deny)
}

fn wall_clock_check(code: &str) -> Option<String> {
    for pat in ["Instant::now", "SystemTime::now", "thread::sleep"] {
        if code.contains(pat) {
            return Some(format!(
                "`{pat}` reads the wall clock on a virtual-time path; use the fabric clock"
            ));
        }
    }
    None
}

// ------------------------------------------------------------ unordered-iter

/// Files whose iteration order reaches the wire, the gossip codec, or a
/// metrics dump that the byte-identical determinism tests compare.
/// `reactor.rs` dropped out when `wire-determinism-taint` landed — the
/// taint pass tracks hash iteration *flowing to the wire* instead of
/// banning iteration wholesale in a file that sorts before exposing.
const UNORDERED_ITER_FILES: &[&str] = &[
    "crates/net/src/metrics.rs",
    "crates/net/src/frame.rs",
    "crates/transport/src/membership.rs",
    "crates/transport/src/routing.rs",
    "crates/transport/src/swarm.rs",
    "crates/transport/src/sharded.rs",
    "crates/transport/src/peer.rs",
];

fn unordered_iter_scope(relpath: &str, class: FileClass) -> Option<Severity> {
    if class != FileClass::Lib {
        return None;
    }
    let in_scope =
        UNORDERED_ITER_FILES.contains(&relpath) || relpath.starts_with("crates/serialize/src/");
    in_scope.then_some(Severity::Deny)
}

/// Methods whose result order is the hasher's, not the data's.
const UNORDERED_METHODS: &[&str] = &[
    "iter()",
    "iter_mut()",
    "keys()",
    "values()",
    "values_mut()",
    "drain()",
    "into_iter()",
    "into_keys()",
    "into_values()",
    "retain(",
];

/// Two-pass file check: pass one collects every identifier declared
/// with a hash type on some line (`name: HashMap<…>`,
/// `let [mut] name = HashSet::new()` — the only declaration shapes this
/// workspace uses); pass two flags hasher-ordered iteration through any
/// of those names, or through an inline hash value, on any line.
fn unordered_iter_file(lines: &[Line]) -> Vec<(usize, String)> {
    let mut hash_idents: Vec<String> = Vec::new();
    for line in lines {
        collect_hash_idents(&line.code, &mut hash_idents);
    }
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let code = &line.code;
        for m in UNORDERED_METHODS {
            let pat = format!(".{m}");
            let mut from = 0;
            while let Some(pos) = code[from..].find(&pat) {
                let at = from + pos;
                let mut receiver = ident_before(code, at);
                // Rustfmt breaks long chains one link per line: a
                // leading `.iter()` takes its receiver from the tail of
                // the nearest preceding non-blank code line.
                if receiver.is_empty() && code[..at].trim().is_empty() {
                    receiver = lines[..idx]
                        .iter()
                        .rev()
                        .find(|l| !l.code.trim().is_empty())
                        .map(|l| last_ident(&l.code))
                        .unwrap_or("");
                }
                if hash_idents.iter().any(|h| h == receiver) {
                    out.push((
                        idx,
                        format!(
                            "`{receiver}.{m}` iterates a HashMap/HashSet in hasher \
                             order; collect into a BTreeMap/BTreeSet or sort first"
                        ),
                    ));
                    break;
                }
                from = at + pat.len();
            }
        }
        // `for x in &map` / `for x in map` over a known hash ident.
        if code.contains("for ") {
            if let Some(pos) = code.find(" in ") {
                let tail = &code[pos + 4..];
                if let Some(h) = hash_idents.iter().find(|h| contains_token(tail, h)) {
                    // Skip when the hit is a method call already reported.
                    if !tail.contains(&format!("{h}.")) {
                        out.push((
                            idx,
                            format!(
                                "`for … in {h}` iterates a HashMap/HashSet in hasher \
                                 order; collect into a BTreeMap/BTreeSet or sort first"
                            ),
                        ));
                    }
                }
            }
        }
    }
    out
}

/// Records identifiers declared with `HashMap`/`HashSet` types on this
/// line (see [`collect_decls`]).
fn collect_hash_idents(code: &str, out: &mut Vec<String>) {
    collect_decls(code, &["HashMap", "HashSet"], out);
}

/// Records identifiers declared with any of `types` on this line:
/// `name: [&][mut] Type<…>` (fields, params, let-annotations) and
/// `[let [mut]] name = Type::new/with_capacity/from(…)`.
pub(crate) fn collect_decls(code: &str, types: &[&str], out: &mut Vec<String>) {
    for ty in types {
        let mut from = 0;
        while let Some(pos) = code[from..].find(ty) {
            let at = from + pos;
            from = at + ty.len();
            let before_ok = at == 0
                || !code[..at]
                    .chars()
                    .next_back()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_');
            let after_ok = !code[at + ty.len()..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
            if !before_ok || !after_ok {
                continue;
            }
            // `name: &mut HashMap<…>` declares through references too.
            let mut before = code[..at].trim_end();
            loop {
                if let Some(p) = before.strip_suffix('&') {
                    before = p.trim_end();
                } else if let Some(p) = before.strip_suffix("mut") {
                    before = p.trim_end();
                } else {
                    break;
                }
            }
            let name = if let Some(prefix) = before.strip_suffix(':') {
                // `name: HashMap<…>`
                last_ident(prefix)
            } else if let Some(prefix) = before.strip_suffix('=') {
                // `name = HashMap::new()` (only when followed by `::`)
                if code[at + ty.len()..].starts_with("::") {
                    last_ident(prefix)
                } else {
                    ""
                }
            } else {
                ""
            };
            if !name.is_empty() && !out.iter().any(|n| n == name) {
                out.push(name.to_string());
            }
        }
    }
}

/// The identifier ending at the end of `s` (empty if none).
fn last_ident(s: &str) -> &str {
    let trimmed = s.trim_end();
    let start = trimmed
        .rfind(|c: char| !c.is_alphanumeric() && c != '_')
        .map(|p| p + 1)
        .unwrap_or(0);
    &trimmed[start..]
}

/// The identifier ending just before byte `at` (skipping one `.` chain
/// link is not attempted — the direct receiver is what we report).
fn ident_before(code: &str, at: usize) -> &str {
    last_ident(&code[..at])
}

// -------------------------------------------------------- thread-confinement

/// Only the sharded host may touch OS threads; everything else, the
/// shard bridge included (a channel pair with counters), is
/// single-thread deterministic by construction (the `Rc`-based reactor
/// state relies on it).
const THREAD_FILE: &str = "crates/transport/src/sharded.rs";

fn thread_confinement_scope(relpath: &str, _class: FileClass) -> Option<Severity> {
    (relpath != THREAD_FILE).then_some(Severity::Deny)
}

fn thread_confinement_check(code: &str) -> Option<String> {
    for pat in ["thread::spawn", "thread::park", "thread::Builder"] {
        if code.contains(pat) {
            return Some(format!(
                "`{pat}` outside sharded.rs breaks thread confinement"
            ));
        }
    }
    if contains_token(code, "JoinHandle") {
        return Some("`JoinHandle` held outside sharded.rs breaks thread confinement".to_string());
    }
    None
}

// -------------------------------------------------------------- panic-policy

/// A panic in fabric library code tears down a whole reactor (and with
/// it every mounted swarm), so each one must be a stated invariant:
/// deny-tier on the fabric crates, advisory elsewhere. Tests, examples
/// and the bench harness unwrap freely.
fn panic_policy_scope(relpath: &str, class: FileClass) -> Option<Severity> {
    if class != FileClass::Lib && class != FileClass::Bin {
        return None;
    }
    if relpath.starts_with("crates/net/src/") || relpath.starts_with("crates/transport/src/") {
        Some(Severity::Deny)
    } else {
        Some(Severity::Advisory)
    }
}

fn panic_policy_check(code: &str) -> Option<String> {
    for pat in [".unwrap()", ".expect(", "panic!", "unreachable!"] {
        if code.contains(pat) {
            return Some(format!(
                "`{pat}` in library code: return an error, or state the invariant \
                 with a pti-allow reason"
            ));
        }
    }
    None
}

// ---------------------------------------------------------- print-discipline

/// Library crates talk through return values and `NetMetrics`, never
/// stdout/stderr. Binaries, the bench harness, examples and tests may
/// print. Deny-tier since the workspace proved clean under the
/// advisory run: a stray `println!` in library code now fails CI.
fn print_discipline_scope(_relpath: &str, class: FileClass) -> Option<Severity> {
    (class == FileClass::Lib).then_some(Severity::Deny)
}

fn print_discipline_check(code: &str) -> Option<String> {
    for pat in ["println!", "eprintln!", "print!(", "eprint!(", "dbg!"] {
        if code.contains(pat) {
            return Some(format!(
                "`{pat}` in a library crate; route output through the caller"
            ));
        }
    }
    None
}

// ------------------------------------------------------------ unbounded-queue

/// The wire-queue and inbox paths of the fabrics and the delivery
/// layer: the files where an uncapped `push` is how a slow consumer or
/// a fault storm turns into unbounded memory growth. Advisory-tier —
/// the heuristic is lexical, so it asks for a justification rather than
/// failing the build.
const UNBOUNDED_QUEUE_FILES: &[&str] = &[
    "crates/net/src/reactor.rs",
    "crates/net/src/bridge.rs",
    "crates/transport/src/swarm.rs",
    "crates/transport/src/delivery.rs",
];

fn unbounded_queue_scope(relpath: &str, _class: FileClass) -> Option<Severity> {
    UNBOUNDED_QUEUE_FILES
        .contains(&relpath)
        .then_some(Severity::Advisory)
}

/// Tokens that mark a push as visibly bounded when they appear in the
/// push statement or the few code lines leading up to it: an explicit
/// capacity/depth check, or a drain on the same structure.
const CAP_TOKENS: &[&str] = &[
    "cap",
    "limit",
    "bound",
    "depth",
    "pop_front",
    "truncate",
    "drain",
];

fn has_cap_token(code: &str) -> bool {
    let lower = code.to_ascii_lowercase();
    CAP_TOKENS.iter().any(|t| lower.contains(t))
}

/// Flags `.push(…)`/`.push_back(…)` onto queue-like state — any
/// `push_back` (the VecDeque idiom), and `push` when the statement's
/// receiver is a field (`self.…`) rather than a local scratch Vec —
/// unless a cap token is visible in the statement or the six preceding
/// code lines. Chained calls are attributed to the statement's first
/// line, where the receiver (and any `pti-allow`) lives.
fn unbounded_queue_file(lines: &[Line]) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let code = &line.code;
        let is_push_back = code.contains(".push_back(");
        let is_push = code.contains(".push(");
        if !is_push_back && !is_push {
            continue;
        }
        // Walk chained calls back to the statement's first line.
        let mut at = idx;
        while at > 0 && lines[at].code.trim_start().starts_with('.') {
            match lines[..at].iter().rposition(|l| !l.code.trim().is_empty()) {
                Some(prev) => at = prev,
                None => break,
            }
        }
        if !is_push_back && !lines[at].code.contains("self.") {
            continue;
        }
        let bounded = (at..=idx).any(|i| has_cap_token(&lines[i].code))
            || lines[..at]
                .iter()
                .rev()
                .filter(|l| !l.code.trim().is_empty())
                .take(6)
                .any(|l| has_cap_token(&l.code));
        if bounded {
            continue;
        }
        let what = if is_push_back { "push_back" } else { "push" };
        out.push((
            at,
            format!(
                "`.{what}(…)` grows a wire/inbox queue with no visible cap or drain \
                 nearby; bound it (credit window, capacity check) or justify with \
                 pti-allow(unbounded-queue)"
            ),
        ));
    }
    out
}

// -------------------------------------------------------------- allow parser

/// A parsed `pti-allow(rule): reason` suppression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// The suppressed rule id.
    pub rule: String,
    /// The mandatory justification.
    pub reason: String,
}

/// Outcome of scanning one comment for allow syntax.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllowParse {
    /// No `pti-allow` present.
    None,
    /// Well-formed suppressions.
    Allows(Vec<Allow>),
    /// `pti-allow` present but malformed (message explains).
    Malformed(String),
}

/// Parses every `pti-allow(rule): reason` occurrence in a comment.
/// Grammar: `pti-allow(` *rule-id* `):` *non-empty reason*. The rule id
/// must exist; the reason runs to the next `pti-allow` or end of
/// comment.
pub fn parse_allows(comment: &str) -> AllowParse {
    if !comment.contains("pti-allow") {
        return AllowParse::None;
    }
    let mut allows = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find("pti-allow") {
        let after = &rest[pos + "pti-allow".len()..];
        let Some(open) = after.strip_prefix('(') else {
            return AllowParse::Malformed("expected `pti-allow(rule): reason`".to_string());
        };
        let Some(close) = open.find(')') else {
            return AllowParse::Malformed("unclosed `pti-allow(` rule id".to_string());
        };
        let rule = open[..close].trim();
        if !known_rule_id(rule) {
            return AllowParse::Malformed(format!("unknown rule `{rule}` in pti-allow"));
        }
        let Some(tail) = open[close + 1..].strip_prefix(':') else {
            return AllowParse::Malformed(format!(
                "pti-allow({rule}) needs `: reason` — suppressions must be justified"
            ));
        };
        let reason_end = tail.find("pti-allow").unwrap_or(tail.len());
        let reason = tail[..reason_end].trim();
        if reason.is_empty() {
            return AllowParse::Malformed(format!(
                "pti-allow({rule}) has an empty reason — suppressions must be justified"
            ));
        }
        allows.push(Allow {
            rule: rule.to_string(),
            reason: reason.to_string(),
        });
        rest = &tail[reason_end..];
    }
    AllowParse::Allows(allows)
}

/// Whether a blanked code line is effectively empty (comment-only line
/// in the source) — its allows then bind to the next code line.
pub fn code_is_blank(line: &Line) -> bool {
    line.code.trim().is_empty()
}
