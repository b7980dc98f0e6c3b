//! The machine's speed, read beside every measurement.
//!
//! The sandbox's cores are shared: for minutes at a time everything here —
//! a pure-CPU loop as much as a query — runs up to 1.5x slower, and ten
//! runs of one workload then differ by more than any bound this benchmark
//! could set. So between the phases of a run (its set-ups, the slices of
//! its window) a fixed piece of work that shares no code with the engine is
//! timed, and the run's timings are divided by how much slower than
//! [`NOMINAL_MS`] that work ran. A change to the engine moves only the
//! numerator; a slow neighbour moves both.

use crate::stats::{ms_since, quantile};
use std::hint::black_box;
use std::time::Instant;

/// What one reading takes on the sandbox when it is calm. On a slower
/// machine every timing is off by one constant factor, the same for the
/// parent commit and the change; on a faster one only slowdowns beyond the
/// difference are corrected.
pub const NOMINAL_MS: f64 = 1.07;

/// The reference work: a chain of dependent integer operations, all in
/// registers. Interference here is time taken from the core, which slows
/// this as much as it slows a query, while nothing about the process
/// (where its heap landed, what the caches hold) can: when the sandbox is
/// calm, readings agree to 0.3% from one process to the next, where a
/// hash-table build and probe of the engine's own shape differed by 6%.
fn work() -> u64 {
    let mut x = 1u64;
    for i in 0..600_000 {
        x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
        x ^= x >> 29;
    }
    x
}

#[derive(Default)]
pub struct Speedometer {
    readings_ms: Vec<f64>,
}

impl Speedometer {
    /// Time the reference work, three times over.
    pub fn read(&mut self) {
        for _ in 0..3 {
            let t0 = Instant::now();
            black_box(work());
            self.readings_ms.push(ms_since(t0));
        }
    }

    /// How much slower than nominal the machine ran while the readings
    /// were taken: their lower quartile, as for the timings it corrects.
    /// Never under 1: the box also has a fast state (the loop at 0.87 of
    /// nominal, for seconds or for a whole run) from which queries gain
    /// between nothing and two thirds as much, so it is not corrected for.
    pub fn slowdown(&self) -> f64 {
        (quantile(&self.readings_ms, 0.25) / NOMINAL_MS).max(1.0)
    }
}
