//! Fixture tests: every rule in the table is proven by one firing case
//! and one suppressed case, against the real engine and real scope
//! decisions (fake workspace paths pick the scope).
//!
//! The fixture sources live in raw strings; the outer lexer blanks
//! string interiors, so the violations (and the allow comments) inside
//! them are invisible when `pti-lint` scans this file itself.

use pti_analyze::engine::{analyze_source, Finding};
use pti_analyze::rules::Severity;

fn deny_hits<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings
        .iter()
        .filter(|f| f.rule == rule && f.severity == Severity::Deny)
        .collect()
}

fn advisory_hits<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings
        .iter()
        .filter(|f| f.rule == rule && f.severity == Severity::Advisory)
        .collect()
}

// ---------------------------------------------------------------- wall-clock

#[test]
fn wall_clock_fires_in_fabric_code() {
    let src = r#"
fn deadline() -> Instant {
    Instant::now() + Duration::from_millis(5)
}
"#;
    let f = analyze_source("crates/net/src/sim.rs", src);
    let hits = deny_hits(&f, "wall-clock");
    assert_eq!(hits.len(), 1, "{f:?}");
    assert_eq!(hits[0].line, 3);
    assert!(hits[0].message.contains("Instant::now"));
}

#[test]
fn wall_clock_suppressed_by_allow() {
    let src = r#"
// pti-allow(wall-clock): a one-off startup timestamp, never on a message path
fn deadline() -> Instant {
    Instant::now() + Duration::from_millis(5)
}
"#;
    // The allow on line 2 binds to line 3 (next code line) — move it
    // onto the violating line's predecessor instead:
    let src2 = r#"
fn deadline() -> Instant {
    // pti-allow(wall-clock): a one-off startup timestamp, never on a message path
    Instant::now() + Duration::from_millis(5)
}
"#;
    let f = analyze_source("crates/net/src/sim.rs", src2);
    assert!(deny_hits(&f, "wall-clock").is_empty(), "{f:?}");
    assert!(advisory_hits(&f, "unused-allow").is_empty(), "{f:?}");
    // The mis-bound variant still fires (allow bound to `fn deadline`).
    let f = analyze_source("crates/net/src/sim.rs", src);
    assert_eq!(deny_hits(&f, "wall-clock").len(), 1);
}

#[test]
fn wall_clock_exempts_tests_only() {
    let src = "fn x() { let t = Instant::now(); }\n";
    assert!(deny_hits(&analyze_source("tests/threaded.rs", src), "wall-clock").is_empty());
    // No file of pti-net owns real time, the bridge included.
    for path in ["crates/net/src/bridge.rs", "crates/net/src/bus.rs"] {
        assert_eq!(
            deny_hits(&analyze_source(path, src), "wall-clock").len(),
            1,
            "{path} is in scope"
        );
    }
    let in_test = "#[cfg(test)]\nmod tests {\n    fn x() { let t = Instant::now(); }\n}\n";
    assert!(deny_hits(
        &analyze_source("crates/net/src/sim.rs", in_test),
        "wall-clock"
    )
    .is_empty());
}

// ------------------------------------------------------------ unordered-iter

#[test]
fn unordered_iter_fires_on_declared_hash_field() {
    let src = r#"
struct Directory {
    routes: HashMap<PeerId, usize>,
}
impl Directory {
    fn dump(&self) -> Vec<usize> {
        self.routes.values().copied().collect()
    }
}
"#;
    let f = analyze_source("crates/transport/src/sharded.rs", src);
    let hits = deny_hits(&f, "unordered-iter");
    assert_eq!(hits.len(), 1, "{f:?}");
    assert_eq!(hits[0].line, 7);
    assert!(hits[0].message.contains("routes"));
}

#[test]
fn unordered_iter_sees_through_rustfmt_chain_breaks() {
    let src = r#"
struct Directory {
    routes: HashMap<PeerId, usize>,
}
impl Directory {
    fn dump(&self) -> Vec<(PeerId, usize)> {
        self.routes
            .iter()
            .map(|(k, v)| (*k, *v))
            .collect()
    }
}
"#;
    let f = analyze_source("crates/transport/src/sharded.rs", src);
    assert_eq!(deny_hits(&f, "unordered-iter").len(), 1, "{f:?}");
}

#[test]
fn unordered_iter_suppressed_by_allow() {
    let src = r#"
struct Directory {
    routes: HashMap<PeerId, usize>,
}
impl Directory {
    fn dump(&self) -> Vec<usize> {
        // pti-allow(unordered-iter): sorted on the next line before use
        let mut v: Vec<usize> = self.routes.values().copied().collect();
        v.sort();
        v
    }
}
"#;
    let f = analyze_source("crates/transport/src/sharded.rs", src);
    assert!(deny_hits(&f, "unordered-iter").is_empty(), "{f:?}");
}

#[test]
fn unordered_iter_ignores_btree_and_out_of_scope_files() {
    let btree = r#"
struct Directory {
    routes: BTreeMap<PeerId, usize>,
}
impl Directory {
    fn dump(&self) -> Vec<usize> {
        self.routes.values().copied().collect()
    }
}
"#;
    let f = analyze_source("crates/transport/src/sharded.rs", btree);
    assert!(deny_hits(&f, "unordered-iter").is_empty(), "{f:?}");
    // Same hash-iterating source in a file whose order never reaches a
    // byte-compared log is out of scope.
    let hash = btree.replace("BTreeMap", "HashMap");
    let f = analyze_source("crates/tps/src/lib.rs", &hash);
    assert!(deny_hits(&f, "unordered-iter").is_empty(), "{f:?}");
}

// -------------------------------------------------------- thread-confinement

#[test]
fn thread_confinement_fires_outside_the_threaded_files() {
    let src = r#"
fn go() {
    std::thread::spawn(move || run());
}
"#;
    let f = analyze_source("crates/net/src/reactor.rs", src);
    let hits = deny_hits(&f, "thread-confinement");
    assert_eq!(hits.len(), 1, "{f:?}");
    assert_eq!(hits[0].line, 3);
}

#[test]
fn thread_confinement_suppressed_by_allow() {
    let src = r#"
fn go() {
    // pti-allow(thread-confinement): integration test drives one swarm per OS thread
    std::thread::spawn(move || run());
}
"#;
    let f = analyze_source("crates/net/src/reactor.rs", src);
    assert!(deny_hits(&f, "thread-confinement").is_empty(), "{f:?}");
}

#[test]
fn thread_confinement_exempts_the_threaded_files_only() {
    let src = "fn go() { std::thread::spawn(move || run()); }\n";
    assert!(deny_hits(
        &analyze_source("crates/transport/src/sharded.rs", src),
        "thread-confinement"
    )
    .is_empty());
    // The bridge is a channel pair with counters: it touches no thread,
    // and no other file of pti-net does either.
    for path in ["crates/net/src/bridge.rs", "crates/net/src/bus.rs"] {
        assert_eq!(
            deny_hits(&analyze_source(path, src), "thread-confinement").len(),
            1,
            "{path} is in scope"
        );
    }
    // The rule is not test-exempt: a spawn in a #[cfg(test)] module of a
    // non-threaded file still fires.
    let in_test = "#[cfg(test)]\nmod tests {\n    fn go() { std::thread::spawn(|| ()); }\n}\n";
    assert_eq!(
        deny_hits(
            &analyze_source("crates/net/src/sim.rs", in_test),
            "thread-confinement"
        )
        .len(),
        1
    );
}

// -------------------------------------------------------------- panic-policy

#[test]
fn panic_policy_is_deny_on_fabric_crates_advisory_elsewhere() {
    let src = "fn take(o: Option<u32>) -> u32 { o.unwrap() }\n";
    let f = analyze_source("crates/net/src/sim.rs", src);
    assert_eq!(deny_hits(&f, "panic-policy").len(), 1, "{f:?}");
    let f = analyze_source("crates/tps/src/lib.rs", src);
    assert!(deny_hits(&f, "panic-policy").is_empty());
    assert_eq!(advisory_hits(&f, "panic-policy").len(), 1, "{f:?}");
    // Tests unwrap freely.
    let f = analyze_source("crates/net/tests/it.rs", src);
    assert!(f.iter().all(|f| f.rule != "panic-policy"), "{f:?}");
}

#[test]
fn panic_policy_suppressed_by_allow() {
    let src = r#"
fn take(o: Option<u32>) -> u32 {
    // pti-allow(panic-policy): caller checked is_some() on the line above
    o.unwrap()
}
"#;
    let f = analyze_source("crates/net/src/sim.rs", src);
    assert!(deny_hits(&f, "panic-policy").is_empty(), "{f:?}");
}

// ---------------------------------------------------------- print-discipline

#[test]
fn print_discipline_fires_in_library_code_only() {
    let src = "fn log(n: u64) { println!(\"sent {n}\"); }\n";
    let f = analyze_source("crates/transport/src/swarm.rs", src);
    assert_eq!(deny_hits(&f, "print-discipline").len(), 1, "{f:?}");
    // Binaries, bench and examples may print.
    for ok in [
        "crates/analyze/src/bin/pti_lint.rs",
        "crates/bench/src/main.rs",
        "examples/demo.rs",
    ] {
        assert!(
            analyze_source(ok, src)
                .iter()
                .all(|f| f.rule != "print-discipline"),
            "{ok} may print"
        );
    }
}

#[test]
fn print_discipline_suppressed_by_allow() {
    let src = r#"
fn log(n: u64) {
    // pti-allow(print-discipline): one-shot startup banner requested by operators
    println!("sent {n}");
}
"#;
    let f = analyze_source("crates/transport/src/swarm.rs", src);
    assert!(f.iter().all(|f| f.rule != "print-discipline"), "{f:?}");
}

// ------------------------------------------------------------ unbounded-queue

#[test]
fn unbounded_queue_fires_on_uncapped_field_pushes() {
    let src = r#"
impl Wire {
    fn enqueue(&mut self, msg: Msg) {
        self.outbox.push_back(msg);
    }
    fn record(&mut self, err: Error) {
        self.errors.push(err);
    }
}
"#;
    let f = analyze_source("crates/transport/src/swarm.rs", src);
    let hits = advisory_hits(&f, "unbounded-queue");
    assert_eq!(hits.len(), 2, "{f:?}");
    assert_eq!(hits[0].line, 4);
    assert_eq!(hits[1].line, 7);
}

#[test]
fn unbounded_queue_attributes_chained_pushes_to_the_statement_head() {
    let src = r#"
impl Wire {
    fn enqueue(&mut self, to: PeerId, msg: Msg) {
        self.outbox
            .entry(to)
            .or_default()
            .push(msg);
    }
}
"#;
    let f = analyze_source("crates/transport/src/swarm.rs", src);
    let hits = advisory_hits(&f, "unbounded-queue");
    assert_eq!(hits.len(), 1, "{f:?}");
    assert_eq!(hits[0].line, 4, "reported where the receiver lives");
}

#[test]
fn unbounded_queue_cleared_by_a_visible_cap_check() {
    let src = r#"
impl Wire {
    fn enqueue(&mut self, msg: Msg) {
        if self.outbox.len() >= self.cap {
            return;
        }
        self.outbox.push_back(msg);
    }
    fn retain_ring(&mut self, msg: Msg) {
        self.ring.push_back(msg);
        while self.ring.len() > self.depth {
            self.ring.pop_front();
        }
    }
}
"#;
    let f = analyze_source("crates/transport/src/delivery.rs", src);
    assert!(advisory_hits(&f, "unbounded-queue").is_empty(), "{f:?}");
}

#[test]
fn unbounded_queue_suppressed_by_allow_and_ignores_scratch_vecs() {
    let src = r#"
impl Wire {
    fn enqueue(&mut self, msg: Msg) {
        // pti-allow(unbounded-queue): drained fully at every flush
        self.outbox.push_back(msg);
    }
    fn collect(&self) -> Vec<u64> {
        let mut out = Vec::new();
        out.push(1);
        out
    }
}
"#;
    let f = analyze_source("crates/net/src/reactor.rs", src);
    assert!(
        f.iter().all(|f| f.rule != "unbounded-queue"),
        "allowed + local scratch Vec: {f:?}"
    );
    assert!(advisory_hits(&f, "unused-allow").is_empty(), "{f:?}");
}

#[test]
fn unbounded_queue_scoped_to_queue_paths_and_exempts_tests() {
    let src = "fn f(&mut self) { self.q.push_back(1); }\n";
    assert!(
        analyze_source("crates/tps/src/lib.rs", src)
            .iter()
            .all(|f| f.rule != "unbounded-queue"),
        "out of scope"
    );
    let in_test = "#[cfg(test)]\nmod tests {\n    fn f(q: &mut Q) { q.inner.push_back(1); }\n}\n";
    assert!(
        analyze_source("crates/net/src/reactor.rs", in_test)
            .iter()
            .all(|f| f.rule != "unbounded-queue"),
        "tests exempt"
    );
}

// -------------------------------------------------------- violations in text

#[test]
fn violations_inside_strings_and_comments_do_not_fire() {
    let src = r##"
fn doc() -> &'static str {
    // Instant::now() in a comment is prose, not code.
    r"Instant::now() and thread::spawn in a string are data"
}
"##;
    let f = analyze_source("crates/net/src/sim.rs", src);
    assert!(
        f.iter()
            .all(|f| f.rule != "wall-clock" && f.rule != "thread-confinement"),
        "{f:?}"
    );
}
