//! Deterministic, seeded fault injection for the virtual-time fabric.
//!
//! The durability layer (`pti-transport`'s `delivery` module) repairs
//! losses the fabric inflicts; this module is where those losses come
//! from. A [`FaultPlan`] decides, per send, whether the message is
//! delivered, dropped, duplicated, or blocked by an active partition.
//! Every decision is a pure function of `(seed, step, from, to)` — the
//! step counter advances once per send — so the same plan over the same
//! traffic produces the *same* faults, and the byte-identical-log
//! determinism tests keep holding with faults switched on.
//!
//! The fabric consults the plan in its one send path (after the link
//! model, before enqueue) once a plan is installed via
//! [`Transport::install_fault_plan`](crate::Transport::install_fault_plan);
//! the outcome of each decision is counted in
//! [`NetMetrics`](crate::NetMetrics) (`faults_dropped`,
//! `faults_duplicated`, `faults_partitioned`) once the send is
//! accepted.

use std::collections::BTreeSet;

use crate::sim::PeerId;

/// A burst partition: while active, traffic between the `island` and the
/// rest of the fabric is blocked in both directions (traffic wholly
/// inside or wholly outside the island is unaffected). It heals when the
/// plan's step counter reaches `until_step`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Peers on one side of the cut.
    pub island: BTreeSet<PeerId>,
    /// First send step (inclusive) at which the cut is active.
    pub from_step: u64,
    /// Send step (exclusive) at which the cut heals.
    pub until_step: u64,
}

impl Partition {
    /// Whether this cut severs a `from → to` send at `step`.
    fn severs(&self, step: u64, from: PeerId, to: PeerId) -> bool {
        self.from_step <= step
            && step < self.until_step
            && (self.island.contains(&from) != self.island.contains(&to))
    }
}

/// What the plan decided for one send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Deliver normally.
    Deliver,
    /// Deliver twice (the fabric enqueues a second copy).
    Duplicate,
    /// Silently drop (the sender still believes the send succeeded).
    Drop,
    /// Blocked by an active partition (also a silent drop, counted
    /// separately).
    Partitioned,
}

/// A seeded, deterministic fault schedule for a simulated fabric.
///
/// Probabilities are in permille (`50` = 5%). The per-send random draw
/// mixes the seed with the send's step number and endpoints, so the
/// schedule is reproducible yet uncorrelated across links.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    drop_permille: u16,
    dup_permille: u16,
    partitions: Vec<Partition>,
    step: u64,
}

impl FaultPlan {
    /// A fault-free plan with the given seed; compose faults with the
    /// `with_*` builders.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_permille: 0,
            dup_permille: 0,
            partitions: Vec::new(),
            step: 0,
        }
    }

    /// Sets the per-send drop probability in permille (capped at 1000).
    pub fn with_loss(mut self, permille: u16) -> FaultPlan {
        self.drop_permille = permille.min(1000);
        self
    }

    /// Sets the per-send duplication probability in permille (capped at
    /// 1000).
    pub fn with_duplication(mut self, permille: u16) -> FaultPlan {
        self.dup_permille = permille.min(1000);
        self
    }

    /// Adds a burst partition cutting `island` off from the rest of the
    /// fabric for send steps `from_step..until_step`.
    pub fn with_partition(
        mut self,
        island: impl IntoIterator<Item = PeerId>,
        from_step: u64,
        until_step: u64,
    ) -> FaultPlan {
        self.partitions.push(Partition {
            island: island.into_iter().collect(),
            from_step,
            until_step,
        });
        self
    }

    /// How many sends this plan has adjudicated so far.
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// Decides the fate of one `from → to` send and advances the step
    /// counter. Partitions take precedence over probabilistic faults.
    pub fn decide(&mut self, from: PeerId, to: PeerId) -> FaultDecision {
        let step = self.step;
        self.step += 1;
        if self.partitions.iter().any(|p| p.severs(step, from, to)) {
            return FaultDecision::Partitioned;
        }
        if self.drop_permille == 0 && self.dup_permille == 0 {
            return FaultDecision::Deliver;
        }
        let draw = mix(self.seed, step, from.0, to.0);
        if (draw % 1000) < u64::from(self.drop_permille) {
            return FaultDecision::Drop;
        }
        if ((draw / 1000) % 1000) < u64::from(self.dup_permille) {
            return FaultDecision::Duplicate;
        }
        FaultDecision::Deliver
    }
}

/// SplitMix64-style finalizer over the decision inputs: stable across
/// platforms, uncorrelated across neighbouring steps and links.
fn mix(seed: u64, step: u64, from: u32, to: u32) -> u64 {
    let mut z = seed
        .wrapping_add(step.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add((u64::from(from) << 32) | u64::from(to));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_plan_always_delivers() {
        let mut plan = FaultPlan::new(7);
        for step in 0..100 {
            assert_eq!(plan.decide(PeerId(1), PeerId(2)), FaultDecision::Deliver);
            assert_eq!(plan.steps(), step + 1);
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = |seed: u64| -> Vec<FaultDecision> {
            let mut plan = FaultPlan::new(seed).with_loss(100).with_duplication(50);
            (0..200)
                .map(|i| plan.decide(PeerId(i % 3), PeerId(3 + i % 2)))
                .collect()
        };
        assert_eq!(run(42), run(42), "deterministic");
        assert_ne!(run(42), run(43), "seed-sensitive");
    }

    #[test]
    fn loss_rate_is_roughly_honoured() {
        let mut plan = FaultPlan::new(1).with_loss(50); // 5%
        let dropped = (0..10_000)
            .filter(|_| plan.decide(PeerId(1), PeerId(2)) == FaultDecision::Drop)
            .count();
        assert!((300..=700).contains(&dropped), "~5% of 10k, got {dropped}");
    }

    #[test]
    fn duplication_draw_is_independent_of_loss() {
        let mut plan = FaultPlan::new(9).with_duplication(1000);
        assert_eq!(plan.decide(PeerId(1), PeerId(2)), FaultDecision::Duplicate);
        let mut plan = FaultPlan::new(9).with_loss(1000).with_duplication(1000);
        assert_eq!(
            plan.decide(PeerId(1), PeerId(2)),
            FaultDecision::Drop,
            "loss wins when both draws hit"
        );
    }

    #[test]
    fn partition_severs_cross_island_traffic_then_heals() {
        let mut plan = FaultPlan::new(3).with_partition([PeerId(1)], 1, 3);
        // Step 0: not yet active.
        assert_eq!(plan.decide(PeerId(1), PeerId(2)), FaultDecision::Deliver);
        // Steps 1-2: active, both directions blocked.
        assert_eq!(
            plan.decide(PeerId(1), PeerId(2)),
            FaultDecision::Partitioned
        );
        assert_eq!(
            plan.decide(PeerId(2), PeerId(1)),
            FaultDecision::Partitioned
        );
        // Step 3: healed.
        assert_eq!(plan.decide(PeerId(2), PeerId(1)), FaultDecision::Deliver);
    }

    #[test]
    fn partition_spares_same_side_traffic() {
        let mut plan = FaultPlan::new(3).with_partition([PeerId(1), PeerId(2)], 0, 10);
        assert_eq!(plan.decide(PeerId(1), PeerId(2)), FaultDecision::Deliver);
        assert_eq!(plan.decide(PeerId(3), PeerId(4)), FaultDecision::Deliver);
        assert_eq!(
            plan.decide(PeerId(2), PeerId(3)),
            FaultDecision::Partitioned
        );
    }
}
