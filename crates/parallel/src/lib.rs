//! # vida-parallel
//!
//! Morsel-driven parallel execution for the JIT pipelines.
//!
//! The engine materializes touched columns and streams tuples through
//! generated kernels; both phases decompose naturally into **morsels** —
//! small contiguous runs of retrieval units (rows, objects) that workers
//! claim from a shared dispatcher (Leis et al., "Morsel-Driven
//! Parallelism"). This crate supplies the pieces the executor composes:
//!
//! - [`MorselPlan`]: the morsel grid. Boundaries depend only on the data
//!   (unit counts or raw byte spans), **never** on the worker count, so any
//!   number of workers produces the same per-morsel partial results and the
//!   deterministic merge yields one canonical answer — float folds
//!   included, because a one-worker pool folds the same grid in the same
//!   order.
//! - [`WorkerPool`]: resident workers, started once and parked between
//!   runs, pulling morsel indexes from each attached run's atomic claim
//!   counter, each with private scratch state; results are returned in
//!   morsel order regardless of completion order, and a panicking morsel
//!   fails its run without taking a worker down.
//! - [`dispatcher`]: aligned splitting of raw inputs — newline-aligned CSV
//!   byte ranges and record-aligned JSON spans — via the byte-span hooks on
//!   [`vida_formats::InputPlugin`].
//!
//! Folding partial results uses [`vida_types::Monoid::merge_partials`]: the
//! per-morsel accumulators merge in morsel order, so non-commutative
//! monoids (`list`) see exactly the sequential element order.
//!
//! No external dependencies: `std` threads and atomics plus the
//! `vida_types::sync` lock shim.

pub mod dispatcher;
pub mod morsel;
pub mod pool;

pub use dispatcher::{plan_scan, plan_scan_tail};
pub use morsel::MorselPlan;
pub use pool::WorkerPool;
