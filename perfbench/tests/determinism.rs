//! Seed determinism: the benchmark's counts are a function of `--seed`
//! alone, so a count that moves between two runs of one seed is a
//! change in the program, not noise. Each run here does a fixed number
//! of rounds, since a timed phase does as many as the machine allows.

use perfbench::churn::ChurnLossy;
use perfbench::fanout::Fanout;
use perfbench::measure::Tally;
use perfbench::novel::NovelTypes;
use perfbench::{run_rounds, Counters, Workload};

/// The counts a seed must fix: wire bytes and deliveries (the bases of
/// `wire_bytes_per_delivery` and `delivery_ratio`), retransmits,
/// suppressed duplicates and fault drops.
#[derive(Debug, PartialEq, Eq)]
struct Counts {
    bytes: u64,
    expected_deliveries: u64,
    expected_verdicts: u64,
    matched_verdicts: u64,
    retransmits: u64,
    duplicates_suppressed: u64,
    faults_dropped: u64,
}

fn counts<W: Workload>(seed: u64, rounds: u64) -> Counts {
    let mut w = W::setup(seed).expect("set-up");
    let (tally, c): (Tally, Counters) = run_rounds(&mut w, rounds).expect("rounds");
    assert_eq!(tally.failed, 0, "checks failed: {:?}", tally.failures);
    assert!(tally.attempted > 0);
    Counts {
        bytes: c.bytes,
        expected_deliveries: tally.expected_deliveries,
        expected_verdicts: tally.expected_verdicts,
        matched_verdicts: tally.matched_verdicts,
        retransmits: c.retransmits,
        duplicates_suppressed: c.duplicates_suppressed,
        faults_dropped: c.faults_dropped,
    }
}

#[test]
fn churn_lossy_repeats_per_seed_and_draws_faults_from_it() {
    let a = counts::<ChurnLossy>(7, 512);
    assert_eq!(a, counts::<ChurnLossy>(7, 512));
    assert!(a.faults_dropped > 0 && a.retransmits > 0, "{a:?}");
    let b = counts::<ChurnLossy>(8, 512);
    assert_ne!(
        (a.faults_dropped, a.retransmits, a.bytes),
        (b.faults_dropped, b.retransmits, b.bytes),
        "another seed drew the same faults"
    );
}

#[test]
fn fanout_repeats_per_seed() {
    let a = counts::<Fanout>(7, 64);
    assert_eq!(a, counts::<Fanout>(7, 64));
    assert_eq!(a.matched_verdicts, a.expected_verdicts);
    assert_eq!(a.faults_dropped + a.retransmits, 0);
}

#[test]
fn novel_types_repeats_per_seed() {
    let a = counts::<NovelTypes>(7, 16);
    assert_eq!(a, counts::<NovelTypes>(7, 16));
    assert_eq!(a.matched_verdicts, a.expected_verdicts);
}
