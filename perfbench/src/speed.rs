//! Machine-speed calibration. On small shared VMs the same code runs
//! faster or slower by tens of percent for seconds to minutes at a time,
//! with no steal time the guest can see and no hardware counters to
//! count work instead of time. The benchmark therefore times a fixed
//! reference kernel (std only, independent of the program under test)
//! between rounds, and scales every timing by how fast that kernel ran
//! around it: a timing is reported in *reference time*, the wall time it
//! would have taken had the kernel run at its nominal [`REFERENCE_NS`].
//! A change to the program moves its reference time; a change in the
//! machine's speed moves the kernel by the same factor and cancels.
//!
//! The kernel does what the program's hot paths do most: it allocates
//! and frees small blocks, formats strings, and builds and probes a hash
//! map. Pure arithmetic or pointer-chasing kernels tracked the drift far
//! worse on the same machine.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::{Duration, Instant};

use crate::measure::median;

/// Nominal duration of one [`kernel`] call: its median on the 2-vCPU
/// Xeon VM the benchmark was tuned on. It only sets the scale of
/// reference time, so it never needs to change.
pub const REFERENCE_NS: f64 = 680_000.0;

/// Minimum busy time between two probes of a timed phase (about 5% of
/// the phase goes to the kernel).
pub const PROBE_EVERY: Duration = Duration::from_millis(12);

/// Kernel calls a one-off calibration (around the replays) takes the
/// median of.
const PROBES: usize = 15;

/// Entries of the kernel's hash map, and blocks it allocates.
const KEYS: u64 = 1000;
const BLOCKS: usize = 1000;

/// The reference kernel: a fixed amount of allocation, formatting and
/// hashing. Deterministic: the hasher has fixed keys.
fn kernel() -> usize {
    let mut map: HashMap<u64, String, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for k in 0..KEYS {
        map.insert(k.wrapping_mul(0x9e37_79b9), format!("key{k}"));
    }
    let mut found = 0;
    for k in 0..2 * KEYS {
        if let Some(v) = map.get(&k.wrapping_mul(0x9e37_79b9)) {
            found += v.len();
        }
    }
    let mut blocks: Vec<Box<[u8]>> = Vec::new();
    let mut x = 7u64;
    for k in 0..BLOCKS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        blocks.push(vec![k as u8; 16 + (x >> 58) as usize * 8].into_boxed_slice());
        if k % 3 == 0 {
            let i = (x >> 33) as usize % blocks.len();
            blocks.swap_remove(i);
        }
    }
    let mut names: Vec<String> = blocks
        .iter()
        .map(|b| format!("{}:{}", b.len(), b[0]))
        .collect();
    names.sort_unstable();
    found + names.len()
}

/// Runs the kernel once and returns the machine's slowdown against the
/// nominal speed (2.0: everything takes twice its reference time).
pub fn probe() -> f64 {
    let start = Instant::now();
    std::hint::black_box(kernel());
    start.elapsed().as_nanos() as f64 / REFERENCE_NS
}

/// The median slowdown of [`PROBES`] kernel calls, for a stretch of work
/// that cannot be interleaved with probes (the layer replays).
pub fn calibrate() -> f64 {
    let mut s: Vec<f64> = (0..PROBES).map(|_| probe()).collect();
    median(&mut s)
}

/// Probes interleaved with a timed phase: [`Probes::due`] after every
/// round, [`Probes::take`] at every window's end.
#[derive(Debug)]
pub struct Probes {
    busy: Duration,
    samples: Vec<f64>,
}

impl Probes {
    /// Starts with one probe, so every window has a sample.
    pub fn new() -> Probes {
        Probes {
            busy: Duration::ZERO,
            samples: vec![probe()],
        }
    }

    /// Counts `busy` time of the phase and probes once [`PROBE_EVERY`]
    /// of it has passed since the last probe.
    pub fn due(&mut self, busy: Duration) {
        self.busy += busy;
        if self.busy >= PROBE_EVERY {
            self.busy = Duration::ZERO;
            self.samples.push(probe());
        }
    }

    /// The window's slowdown (median of its probes); the next window
    /// starts with a fresh probe.
    pub fn take(&mut self) -> f64 {
        let slowdown = median(&mut self.samples);
        self.samples.clear();
        self.samples.push(probe());
        slowdown
    }
}

impl Default for Probes {
    fn default() -> Probes {
        Probes::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_probes_are_positive() {
        assert_eq!(kernel(), kernel());
        assert!(probe() > 0.0);
        let mut p = Probes::new();
        p.due(PROBE_EVERY);
        assert_eq!(p.samples.len(), 2);
        assert!(p.take() > 0.0);
        assert_eq!(p.samples.len(), 1);
    }
}
