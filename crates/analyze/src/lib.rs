//! `pti-analyze`: a zero-dependency workspace lint pass enforcing the
//! invariants no compiler checks.
//!
//! The fabric stack rests on promises the type system cannot state:
//! deterministic fabrics never read the wall clock, the `Rc`-based
//! reactor state never leaves its owning shard thread, nothing whose
//! iteration order reaches the wire iterates a hash container, and no
//! pump turn ever blocks. This crate encodes them as two layers of
//! rules and runs them from the `pti-lint` binary
//! (`cargo run -p pti-analyze --bin pti-lint`), which exits nonzero on
//! any deny-tier finding.
//!
//! **File-granularity rules** pattern-match [lexed](lexer) blanked
//! lines, scoped by path:
//!
//! | rule | tier | scope |
//! |------|------|-------|
//! | `wall-clock` | deny | `crates/net/src`, `crates/serialize/src` |
//! | `unordered-iter` | deny | wire-encode / gossip-codec / metrics files + `crates/serialize/src` |
//! | `thread-confinement` | deny | everywhere except `sharded.rs` |
//! | `panic-policy` | deny on `pti-net`/`pti-transport`, advisory elsewhere | library + bin code |
//! | `print-discipline` | deny | library code (bins, bench, examples, tests exempt) |
//! | `unbounded-queue` | advisory | fabric wire-queue / inbox files |
//!
//! **Interprocedural rules** run over a workspace-wide
//! [call graph](graph) built from a hand-rolled recursive-descent
//! [item parser](parser) (fn/impl/mod/use; bodies kept as token
//! streams). Trait calls resolve to *all* impls — over-approximate, so
//! a clean report is a real guarantee:
//!
//! | rule | tier | what |
//! |------|------|------|
//! | `reactor-blocking` | deny | `thread::sleep` / blocking `recv` / `Instant::now` reachable from the reactor pump loops |
//! | `refcell-reentrancy` | advisory | `borrow_mut()` held across a call that can re-enter the same cell |
//! | `wire-determinism-taint` | deny | HashMap/HashSet iteration values flowing into `FrameBatch::push` / `encode_wire` / `.send(…)` |
//! | `panic-reachability` | report | every panic site reachable from `Swarm::dispatch`, count-gated in CI |
//!
//! A finding is suppressed by `// pti-allow(rule): reason` on the same
//! line, on a comment-only line directly above it, or — for rustfmt-
//! split method chains — on the statement head line. The reason is
//! mandatory; a malformed allow is itself a deny finding
//! (`allow-syntax`), and an allow that suppresses nothing is reported
//! as advisory `unused-allow`. CI gates the total allow count (it can
//! only go down) and the panic-reachability count ceiling via
//! `pti-lint --json`.

pub mod engine;
pub mod graph;
pub mod ipr;
pub mod lexer;
pub mod parser;
pub mod rules;

pub use engine::{analyze_files, analyze_source, analyze_workspace, Analysis, Finding, PanicSite};
pub use graph::CallGraph;
pub use parser::{parse_file, FileModel};
pub use rules::{classify, FileClass, Severity, IPR_RULE_IDS, RULES};
