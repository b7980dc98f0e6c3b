//! # vida-optimizer
//!
//! The engine's cost-based decision layer (ViDa §5).
//!
//! The paper's optimizer extends classical rule-based optimization with
//! format- and cache-aware decisions. The rule-based half — selection
//! pushdown, select merging, selection-into-join — is `vida_algebra::rewrite`,
//! which callers apply directly. This crate holds the cost-based half:
//!
//! 1. **Cache layout decisions** — the [`cost`] module's [`CostModel`]
//!    scores `(field, layout)` replica candidates from per-field access
//!    statistics recorded by the exec pipeline, deciding which layout each
//!    cached column replica should use (values, binary JSON, or
//!    positions-only — the paper's §5 "re-using and re-shaping results"),
//!    in which order `CacheManager::get_any` should probe layouts, and how
//!    much eviction slack a replica's rebuild cost buys it. Every cache the
//!    engine attaches is steered by one.
//! 2. **Plan-level cost-based optimization** — the [`sketch`] module's
//!    fixed-size distinct-count/selectivity sketches (fed from the same
//!    pipeline hooks as the cost model's `FieldObservation`s) and the
//!    [`plan`] module's [`plan::reorder_joins`] join-order search: greedy
//!    smallest-intermediate-first over estimated cardinalities, which also
//!    chooses hash-join build sides (the pipelines always build the right
//!    side of each join).

pub mod cost;
pub mod plan;
pub mod sketch;

pub use cost::{CostModel, FieldObservation, FieldProfile};
pub use plan::{reorder_joins, PlanOptReport, PlanStats, TableStats};
pub use sketch::{DistinctSketch, PredicateStats, StatsSketch};
