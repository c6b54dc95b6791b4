//! Fixture tests for the interprocedural rules: each rule gets a firing
//! case, a suppressed case, and a cross-file reachability case (the
//! caller lives in a different module than the offending callee), run
//! through the public [`analyze_files`] entry point exactly as
//! `pti-lint` does.

use pti_analyze::{analyze_files, Analysis, Severity};

fn run(files: &[(&str, &str)]) -> Analysis {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    analyze_files(&owned)
}

fn rule_hits<'a>(a: &'a Analysis, rule: &str) -> Vec<&'a pti_analyze::Finding> {
    a.findings.iter().filter(|f| f.rule == rule).collect()
}

// ------------------------------------------------------------ reactor-blocking

/// The acceptance fixture: a pump loop in one module reaches a blocking
/// call defined in a different file of the crate.
#[test]
fn reactor_blocking_fires_across_modules() {
    let a = run(&[
        (
            "crates/fx/src/reactor_host.rs",
            "pub fn pump_slot(budget: u32) { crate::inner::drain(budget); }\n",
        ),
        (
            "crates/fx/src/inner.rs",
            "pub fn drain(budget: u32) {\n    std::thread::sleep(Duration::from_millis(1));\n}\n",
        ),
    ]);
    let hits = rule_hits(&a, "reactor-blocking");
    assert_eq!(hits.len(), 1, "{:?}", a.findings);
    let f = hits[0];
    assert_eq!(f.severity, Severity::Deny);
    assert_eq!(f.path, "crates/fx/src/inner.rs");
    assert_eq!(f.line, 2);
    assert!(
        f.message.contains("pump_slot") && f.message.contains("drain"),
        "message should carry the call path: {}",
        f.message
    );
}

#[test]
fn reactor_blocking_allow_suppresses_and_is_used() {
    let a = run(&[
        (
            "crates/fx/src/reactor_host.rs",
            "pub fn pump_slot(budget: u32) { crate::inner::drain(budget); }\n",
        ),
        (
            "crates/fx/src/inner.rs",
            "pub fn drain(budget: u32) {\n    \
             // pti-allow(reactor-blocking): startup-only warmup, never on the pump path at steady state\n    \
             std::thread::sleep(Duration::from_millis(1));\n}\n",
        ),
    ]);
    assert!(
        rule_hits(&a, "reactor-blocking").is_empty(),
        "{:?}",
        a.findings
    );
    assert!(rule_hits(&a, "unused-allow").is_empty(), "{:?}", a.findings);
}

/// Blocking prims inside `#[cfg(test)]` code never fire.
#[test]
fn reactor_blocking_ignores_test_code() {
    let a = run(&[(
        "crates/fx/src/reactor_host.rs",
        "pub fn run_durable() { helper(); }\nfn helper() {}\n\
         #[cfg(test)]\nmod tests {\n    fn helper() { std::thread::sleep(d); }\n}\n",
    )]);
    assert!(
        rule_hits(&a, "reactor-blocking").is_empty(),
        "{:?}",
        a.findings
    );
}

// --------------------------------------------------------- refcell-reentrancy

const NET_REENTRANT: &str = "\
pub struct Net {
    core: Rc<RefCell<Core>>,
}
impl Net {
    pub fn depth(&self) -> u64 {
        self.core.borrow().depth
    }
    pub fn pump(&self) {
        let mut core = self.core.borrow_mut();
        let d = self.depth();
        core.advance(d);
    }
}
";

#[test]
fn refcell_reentrancy_fires_on_held_guard() {
    let a = run(&[("crates/fx/src/net.rs", NET_REENTRANT)]);
    let hits = rule_hits(&a, "refcell-reentrancy");
    assert_eq!(hits.len(), 1, "{:?}", a.findings);
    let f = hits[0];
    assert_eq!(f.severity, Severity::Advisory);
    // flagged at the borrow_mut() holder, naming the re-entered method
    assert_eq!(f.line, 9, "{f:?}");
    assert!(f.message.contains("Net::depth"), "{}", f.message);
}

#[test]
fn refcell_reentrancy_allow_suppresses() {
    let src = NET_REENTRANT.replace(
        "let mut core = self.core.borrow_mut();",
        "// pti-allow(refcell-reentrancy): depth() runs before the guard in program order\n        \
         let mut core = self.core.borrow_mut();",
    );
    let a = run(&[("crates/fx/src/net.rs", &src)]);
    assert!(
        rule_hits(&a, "refcell-reentrancy").is_empty(),
        "{:?}",
        a.findings
    );
    assert!(rule_hits(&a, "unused-allow").is_empty(), "{:?}", a.findings);
}

/// Calls on the guard itself run on the cell's interior type — not a
/// re-entry, even when a method name collides with the wrapper's.
#[test]
fn refcell_reentrancy_skips_calls_on_the_guard() {
    let a = run(&[(
        "crates/fx/src/net.rs",
        "\
pub struct Net {
    core: Rc<RefCell<Core>>,
}
impl Net {
    pub fn advance(&self) -> u64 {
        self.core.borrow().depth
    }
    pub fn pump(&self) {
        let mut core = self.core.borrow_mut();
        core.advance(1);
    }
}
",
    )]);
    assert!(
        rule_hits(&a, "refcell-reentrancy").is_empty(),
        "{:?}",
        a.findings
    );
}

/// Cross-file: the holder calls a free fn in another module that calls
/// back into the cell type.
#[test]
fn refcell_reentrancy_reaches_across_files() {
    let a = run(&[
        (
            "crates/fx/src/net.rs",
            "\
pub struct Net {
    core: Rc<RefCell<Core>>,
}
impl Net {
    pub fn depth(&self) -> u64 {
        self.core.borrow().depth
    }
    pub fn pump(&self) {
        let mut core = self.core.borrow_mut();
        crate::relay::observe(self);
    }
}
",
        ),
        (
            "crates/fx/src/relay.rs",
            "pub fn observe(net: &Net) -> u64 { net.depth() }\n",
        ),
    ]);
    let hits = rule_hits(&a, "refcell-reentrancy");
    assert_eq!(hits.len(), 1, "{:?}", a.findings);
    assert!(hits[0].message.contains("observe"), "{}", hits[0].message);
}

// ---------------------------------------------------- wire-determinism-taint

#[test]
fn taint_flows_from_hash_values_to_send() {
    let a = run(&[(
        "crates/fx/src/wire.rs",
        "\
pub fn emit(m: &HashMap<u64, u64>, out: &mut Conn) {
    let vals: Vec<u64> = m.values().copied().collect();
    out.send(vals);
}
",
    )]);
    let hits = rule_hits(&a, "wire-determinism-taint");
    assert_eq!(hits.len(), 1, "{:?}", a.findings);
    let f = hits[0];
    assert_eq!(f.severity, Severity::Deny);
    assert_eq!(f.line, 3);
    assert!(f.message.contains('m'), "{}", f.message);
}

#[test]
fn taint_cleared_by_sort() {
    let a = run(&[(
        "crates/fx/src/wire.rs",
        "\
pub fn emit(m: &HashMap<u64, u64>, out: &mut Conn) {
    let mut vals: Vec<u64> = m.values().copied().collect();
    vals.sort_unstable();
    out.send(vals);
}
",
    )]);
    assert!(
        rule_hits(&a, "wire-determinism-taint").is_empty(),
        "{:?}",
        a.findings
    );
}

#[test]
fn taint_cleared_by_btree_collect() {
    let a = run(&[(
        "crates/fx/src/wire.rs",
        "\
pub fn emit(m: &HashMap<u64, u64>, out: &mut Conn) {
    let vals: BTreeSet<u64> = m.values().copied().collect();
    out.send(vals);
}
",
    )]);
    assert!(
        rule_hits(&a, "wire-determinism-taint").is_empty(),
        "{:?}",
        a.findings
    );
}

#[test]
fn taint_reaches_framebatch_push_through_a_loop() {
    let a = run(&[(
        "crates/fx/src/wire.rs",
        "\
pub fn pack(m: &HashMap<u64, u64>) -> FrameBatch {
    let batch = FrameBatch::new();
    for k in m.keys() {
        batch.push(k);
    }
    batch
}
",
    )]);
    let hits = rule_hits(&a, "wire-determinism-taint");
    assert_eq!(hits.len(), 1, "{:?}", a.findings);
    assert_eq!(hits[0].line, 4, "{:?}", hits[0]);
}

#[test]
fn taint_allow_suppresses() {
    let a = run(&[(
        "crates/fx/src/wire.rs",
        "\
pub fn emit(m: &HashMap<u64, u64>, out: &mut Conn) {
    let vals: Vec<u64> = m.values().copied().collect();
    // pti-allow(wire-determinism-taint): receiver is a local echo harness, bytes never leave the process
    out.send(vals);
}
",
    )]);
    assert!(
        rule_hits(&a, "wire-determinism-taint").is_empty(),
        "{:?}",
        a.findings
    );
    assert!(rule_hits(&a, "unused-allow").is_empty(), "{:?}", a.findings);
}

// -------------------------------------------------------- panic-reachability

#[test]
fn panic_reachability_reports_cross_file_sites() {
    let a = run(&[
        (
            "crates/fx/src/swarm.rs",
            "impl Swarm {\n    pub fn dispatch(&mut self) { crate::codec::decode(); }\n}\n",
        ),
        (
            "crates/fx/src/codec.rs",
            "pub fn decode() {\n    parse_header().unwrap();\n}\n",
        ),
    ]);
    assert_eq!(a.panic_sites.len(), 1, "{:?}", a.panic_sites);
    let s = &a.panic_sites[0];
    assert_eq!(s.path, "crates/fx/src/codec.rs");
    assert_eq!(s.line, 2);
    assert_eq!(s.what, ".unwrap()");
    assert!(s.via.contains("Swarm::dispatch"), "{}", s.via);
}

/// An allowed site drops out of the gated count, and the allow counts
/// as used.
#[test]
fn panic_reachability_allow_excludes_site() {
    let a = run(&[
        (
            "crates/fx/src/swarm.rs",
            "impl Swarm {\n    pub fn dispatch(&mut self) { crate::codec::decode(); }\n}\n",
        ),
        (
            "crates/fx/src/codec.rs",
            "pub fn decode() {\n    \
             // pti-allow(panic-reachability): header length is validated by the frame gate before decode\n    \
             parse_header().unwrap();\n}\n",
        ),
    ]);
    assert!(a.panic_sites.is_empty(), "{:?}", a.panic_sites);
    assert!(rule_hits(&a, "unused-allow").is_empty(), "{:?}", a.findings);
}

/// Functions only reachable outside the dispatch root stay out of the
/// report.
#[test]
fn panic_reachability_is_rooted_at_dispatch() {
    let a = run(&[(
        "crates/fx/src/swarm.rs",
        "impl Swarm {\n    pub fn dispatch(&mut self) {}\n    \
         pub fn shutdown(&mut self) { teardown().unwrap(); }\n}\n",
    )]);
    assert!(a.panic_sites.is_empty(), "{:?}", a.panic_sites);
}
