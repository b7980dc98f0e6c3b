//! The cache-layout cost model (ViDa §5, "Re-using and re-shaping results").
//!
//! The paper argues that a just-in-time engine should materialize *per-layout*
//! replicas of accessed fields — fully parsed values, binary-JSON
//! serializations, or positions-only maps — chosen by weighing **build cost**
//! (what it takes to create the replica on top of the raw parse the query
//! performs anyway), **storage footprint** (cache budget is the scarce
//! resource; eagerly caching fat nested objects pollutes it), and **expected
//! reuse** (workload locality is what makes any caching pay off).
//!
//! [`CostModel`] is that decision procedure. The exec pipeline records one
//! [`FieldObservation`] per touched field per query; the model folds them
//! into per-field [`FieldProfile`]s and answers two questions:
//!
//! - [`CostModel::choose_layout`] — which layout should this field's one
//!   replica use *now*, given the observed reuse and the cache's byte
//!   pressure?
//! - [`CostModel::eviction_bonus`] — how much longer should this replica
//!   survive eviction than pure LRU would allow, given what rebuilding it
//!   would cost?
//!
//! All scores are expressed in the paper's *fetch units*: `1.0` is one
//! buffer-pool-resident attribute fetch in a loaded DBMS (the same unit as
//! `InputPlugin::field_cost_factor`). The model is pure arithmetic over the
//! recorded statistics — deterministic, lock-cheap, and unit-testable
//! without an engine attached.
//!
//! # Example
//!
//! ```
//! use vida_optimizer::{CostModel, FieldObservation};
//! use vida_cache::Layout;
//!
//! let model = CostModel::new();
//! // A fat nested column: parsed values are ~700 B/row, binary JSON ~220 B.
//! let obs = FieldObservation {
//!     rows: 1_000,
//!     avg_value_bytes: 700.0,
//!     avg_binary_bytes: 220.0,
//!     raw_cost_factor: 4.0,
//!     has_spans: true,
//! };
//! for _ in 0..4 {
//!     model.observe("Regions", "payload", obs); // four queries touch it
//! }
//! // With reuse established and the cache under some pressure, the model
//! // trades the decode cost of binary JSON for the ~3x smaller footprint
//! // instead of polluting the cache with parsed values.
//! assert_eq!(model.choose_layout("Regions", "payload", 0.3), Layout::BinaryJson);
//! ```

use std::collections::HashMap;
use vida_cache::Layout;
use vida_types::sync::RwLock;

/// Per-row byte footprint of a positions-only replica: one `(start, end)`
/// pair (`CachedData::Positions` stores `(u64, u64)`).
const POSITIONS_BYTES_PER_ROW: f64 = 16.0;

// The three constants below reproduce the paper's qualitative regime: hot
// scalar fields cache as parsed values, fat nested fields as binary JSON,
// and wide text fields degrade to positions-only replicas once the cache
// budget is under pressure.

/// Storage rent in fetch units charged per byte of replica footprint at
/// full cache pressure (scaled down when the cache is empty). Higher values
/// push the model toward compact layouts sooner.
const BYTE_RENT: f64 = 0.03;
/// Rent floor: even an empty cache charges `BYTE_RENT * RENT_FLOOR` per
/// byte, so unbounded footprints never look free.
const RENT_FLOOR: f64 = 0.1;
/// Expected future reuses are capped at this horizon so one hot streak
/// cannot make a replica look infinitely valuable.
const REUSE_HORIZON: f64 = 16.0;

/// One query's worth of access evidence for a single `(dataset, field)`,
/// reported by the exec pipeline after it materialized the column.
#[derive(Debug, Clone, Copy)]
pub struct FieldObservation {
    /// Rows in the column (retrieval units of the dataset).
    pub rows: u64,
    /// Average per-row footprint of a parsed-values replica, in bytes
    /// (`Value::approx_bytes` over a sample).
    pub avg_value_bytes: f64,
    /// Average per-row footprint of a binary-JSON replica, in bytes
    /// (including the per-row buffer overhead the cache accounts for).
    pub avg_binary_bytes: f64,
    /// The input plugin's relative cost of fetching this field fresh from
    /// the raw file (`InputPlugin::field_cost_factor`; 1.0 = loaded DBMS).
    pub raw_cost_factor: f64,
    /// Whether the format can report raw byte spans for this field — the
    /// prerequisite for a positions-only replica.
    pub has_spans: bool,
}

/// Accumulated statistics for one `(dataset, field)`.
#[derive(Debug, Clone, Copy)]
pub struct FieldProfile {
    /// Queries that touched the field so far (the reuse signal).
    pub touches: u64,
    /// Latest observed row count.
    pub rows: u64,
    /// Latest observed per-row parsed-values footprint.
    pub avg_value_bytes: f64,
    /// Latest observed per-row binary-JSON footprint.
    pub avg_binary_bytes: f64,
    /// Latest observed raw fetch cost factor.
    pub raw_cost_factor: f64,
    /// Whether positions-only replicas are feasible for this field.
    pub has_spans: bool,
}

impl FieldProfile {
    fn from_observation(obs: &FieldObservation) -> Self {
        FieldProfile {
            touches: 1,
            rows: obs.rows,
            avg_value_bytes: obs.avg_value_bytes,
            avg_binary_bytes: obs.avg_binary_bytes,
            raw_cost_factor: obs.raw_cost_factor,
            has_spans: obs.has_spans,
        }
    }

    fn absorb(&mut self, obs: &FieldObservation) {
        self.touches += 1;
        self.rows = obs.rows;
        // Exponential smoothing keeps the profile stable while letting the
        // format's costs drift (posmaps populate, files change).
        self.avg_value_bytes = 0.5 * self.avg_value_bytes + 0.5 * obs.avg_value_bytes;
        self.avg_binary_bytes = 0.5 * self.avg_binary_bytes + 0.5 * obs.avg_binary_bytes;
        self.raw_cost_factor = 0.5 * self.raw_cost_factor + 0.5 * obs.raw_cost_factor;
        // Sticky once false: span support is reported per plugin, but a
        // field can be infeasible anyway (optional JSON fields have no
        // span in rows that omit them) — see `mark_spans_infeasible`.
        self.has_spans = self.has_spans && obs.has_spans;
    }
}

/// Cost-model-driven cache layout selection (see the module docs).
#[derive(Default)]
pub struct CostModel {
    profiles: RwLock<HashMap<(String, String), FieldProfile>>,
    /// Cache budget in bytes (0 = unknown). When known, a candidate
    /// replica's rent includes the pressure the replica would *itself*
    /// create — a layout that would fill the cache charges itself full
    /// rent, which keeps decisions stable instead of oscillating with the
    /// footprint of whatever was last written.
    budget_bytes: std::sync::atomic::AtomicU64,
    /// Plan-optimizer statistics (distinct sketches + predicate counters),
    /// fed from the same pipeline hooks that record `FieldObservation`s.
    sketch: crate::sketch::StatsSketch,
}

impl CostModel {
    /// A model with no evidence yet.
    pub fn new() -> Self {
        CostModel::default()
    }

    /// Fold one query's evidence for `(dataset, field)` into the model.
    pub fn observe(&self, dataset: &str, field: &str, obs: FieldObservation) {
        self.profiles
            .write()
            .entry((dataset.to_string(), field.to_string()))
            .and_modify(|p| p.absorb(&obs))
            .or_insert_with(|| FieldProfile::from_observation(&obs));
    }

    /// Record that positions-only replicas cannot represent this field
    /// (some rows have no byte span — e.g. optional JSON fields). The flag
    /// is sticky: later observations never resurrect `Positions` as a
    /// candidate, so the engine does not retry a doomed build every query.
    pub fn mark_spans_infeasible(&self, dataset: &str, field: &str) {
        if let Some(p) = self
            .profiles
            .write()
            .get_mut(&(dataset.to_string(), field.to_string()))
        {
            p.has_spans = false;
        }
    }

    /// Snapshot of the accumulated profile, if the field was ever observed.
    pub fn profile(&self, dataset: &str, field: &str) -> Option<FieldProfile> {
        self.profiles
            .read()
            .get(&(dataset.to_string(), field.to_string()))
            .copied()
    }

    /// Number of `(dataset, field)` pairs the model has evidence for.
    pub fn fields_tracked(&self) -> usize {
        self.profiles.read().len()
    }

    /// Forget everything (benchmark phase boundaries).
    pub fn clear(&self) {
        self.profiles.write().clear();
        self.sketch.clear();
    }

    /// The plan-optimizer statistics registry (distinct-count sketches and
    /// predicate hit counters) carried alongside the layout profiles.
    pub fn sketch(&self) -> &crate::sketch::StatsSketch {
        &self.sketch
    }

    /// Tell the model the cache budget so scores can include the pressure a
    /// candidate replica would itself create (the exec pipeline sets this
    /// from `CacheManager::budget_bytes`; 0 disables the self term).
    pub fn set_budget_bytes(&self, budget: u64) {
        self.budget_bytes
            .store(budget, std::sync::atomic::Ordering::Relaxed);
    }

    /// The configured cache budget (0 = unknown).
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Per-row cost of serving one warm read from a replica in `layout`
    /// (clone for values, decode for binary JSON, an exact-seek raw-file
    /// parse for positions). Decode and re-parse costs scale with the
    /// observed field width: positions-only replicas of fat nested objects
    /// pay the full text parse on every reuse, which is exactly why the
    /// paper prefers binary JSON for them.
    pub fn access_cost(layout: Layout, p: &FieldProfile) -> f64 {
        match layout {
            Layout::Values => 0.2,
            Layout::BinaryJson => 0.5 + 0.002 * p.avg_binary_bytes,
            Layout::Positions => 0.8 + 0.003 * p.avg_value_bytes,
        }
    }

    /// Per-row cost of building a replica in `layout`, on top of the raw
    /// parse the query performs anyway.
    pub fn build_cost(layout: Layout) -> f64 {
        match layout {
            Layout::Values => 0.2,
            Layout::BinaryJson => 1.0,
            Layout::Positions => 0.05,
        }
    }

    /// Estimated per-row byte footprint of a replica in `layout`.
    pub fn per_row_bytes(p: &FieldProfile, layout: Layout) -> f64 {
        match layout {
            Layout::Values => p.avg_value_bytes,
            Layout::BinaryJson => p.avg_binary_bytes,
            Layout::Positions => POSITIONS_BYTES_PER_ROW,
        }
    }

    /// Net benefit, in fetch units, of holding a replica of this field in
    /// `layout`: expected reuse savings minus build cost minus storage rent.
    /// `pressure` is the cache's byte pressure in `[0, 1]`
    /// (`used_bytes / budget_bytes`).
    pub fn score(&self, p: &FieldProfile, layout: Layout, pressure: f64) -> f64 {
        // Expected future reuses ≈ observed touches (workload locality),
        // capped at the horizon.
        let reuse = (p.touches as f64).min(REUSE_HORIZON);
        let save = p.raw_cost_factor - Self::access_cost(layout, p);
        // Rent is charged at the pressure the cache would be under *with*
        // this replica in it: ambient pressure plus the replica's own
        // budget fraction (when the budget is known). Without the self
        // term, a near-budget-sized replica looks cheap whenever the cache
        // happens to be empty, and decisions oscillate.
        let per_row = Self::per_row_bytes(p, layout);
        let self_fraction = match self.budget_bytes() {
            0 => 0.0,
            b => p.rows as f64 * per_row / b as f64,
        };
        let effective = (pressure.clamp(0.0, 1.0) + self_fraction).min(1.0);
        let rent = BYTE_RENT * (RENT_FLOOR + effective) * per_row;
        p.rows as f64 * (reuse * save - Self::build_cost(layout) - rent)
    }

    /// Feasible layouts for a profile (`Positions` needs spans).
    fn candidates(p: &FieldProfile) -> impl Iterator<Item = Layout> + '_ {
        Layout::ALL
            .into_iter()
            .filter(|l| *l != Layout::Positions || p.has_spans)
    }

    /// The layout the field's replica should use, given current evidence and
    /// cache pressure. Unknown fields default to `Values` (the legacy
    /// behaviour before the model existed).
    pub fn choose_layout(&self, dataset: &str, field: &str, pressure: f64) -> Layout {
        let Some(p) = self.profile(dataset, field) else {
            return Layout::Values;
        };
        // Strict-greater fold: ties break toward the earlier
        // (cheaper-to-serve) layout in `Layout::ALL` order.
        let mut best = (Layout::Values, f64::NEG_INFINITY);
        for l in Self::candidates(&p) {
            let s = self.score(&p, l, pressure);
            if s > best.1 {
                best = (l, s);
            }
        }
        best.0
    }

    /// Eviction bonus, in LRU clock ticks, for a replica of this field in
    /// `layout`: replicas that are expensive to rebuild (a fresh raw parse
    /// plus the build step) survive as if they had been touched more
    /// recently. Bounded so no replica becomes unevictable.
    pub fn eviction_bonus(&self, p: &FieldProfile, layout: Layout) -> f64 {
        let per_row = p.raw_cost_factor + Self::build_cost(layout);
        (p.rows as f64 * per_row / EVICTION_SCALE).min(MAX_EVICTION_BONUS)
    }
}

/// Fetch units per LRU tick when converting rebuild cost into an eviction
/// bonus: rebuilding 1k rows of a 3x-cost column buys ~3 ticks of survival.
const EVICTION_SCALE: f64 = 1_000.0;
/// Upper bound on the eviction bonus, in ticks.
const MAX_EVICTION_BONUS: f64 = 64.0;

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(
        rows: u64,
        avg_value_bytes: f64,
        avg_binary_bytes: f64,
        raw: f64,
        spans: bool,
    ) -> FieldObservation {
        FieldObservation {
            rows,
            avg_value_bytes,
            avg_binary_bytes,
            raw_cost_factor: raw,
            has_spans: spans,
        }
    }

    #[test]
    fn unknown_fields_default_to_values() {
        let m = CostModel::new();
        assert_eq!(m.choose_layout("d", "f", 0.0), Layout::Values);
    }

    #[test]
    fn hot_scalar_fields_cache_as_values() {
        let m = CostModel::new();
        for _ in 0..4 {
            m.observe("Patients", "age", obs(1_000, 8.0, 33.0, 3.0, true));
        }
        assert_eq!(m.choose_layout("Patients", "age", 0.0), Layout::Values);
        assert_eq!(m.choose_layout("Patients", "age", 0.9), Layout::Values);
    }

    #[test]
    fn fat_nested_fields_cache_as_binary_json() {
        let m = CostModel::new();
        for _ in 0..4 {
            m.observe("Regions", "payload", obs(1_000, 700.0, 220.0, 4.0, true));
        }
        assert_eq!(
            m.choose_layout("Regions", "payload", 0.3),
            Layout::BinaryJson
        );
    }

    #[test]
    fn wide_text_fields_degrade_to_positions_under_pressure() {
        let m = CostModel::new();
        // A wide string column, touched twice, on a span-capable format.
        m.observe("Notes", "body", obs(1_000, 180.0, 190.0, 3.0, true));
        m.observe("Notes", "body", obs(1_000, 180.0, 190.0, 3.0, true));
        // Empty cache: parsed values still win.
        assert_eq!(m.choose_layout("Notes", "body", 0.0), Layout::Values);
        // Full cache: footprint rent dominates; carry positions only.
        assert_eq!(m.choose_layout("Notes", "body", 1.0), Layout::Positions);
    }

    #[test]
    fn positions_require_spans() {
        let m = CostModel::new();
        m.observe("Mem", "body", obs(1_000, 180.0, 190.0, 3.0, false));
        m.observe("Mem", "body", obs(1_000, 180.0, 190.0, 3.0, false));
        let l = m.choose_layout("Mem", "body", 1.0);
        assert_ne!(l, Layout::Positions, "no spans -> positions infeasible");
    }

    #[test]
    fn spans_infeasibility_is_sticky() {
        let m = CostModel::new();
        m.observe("J", "opt", obs(1_000, 180.0, 190.0, 3.0, true));
        m.observe("J", "opt", obs(1_000, 180.0, 190.0, 3.0, true));
        assert_eq!(m.choose_layout("J", "opt", 1.0), Layout::Positions);
        // The engine discovered a row without a span: positions are out,
        // and later (plugin-level `has_spans=true`) observations must not
        // resurrect them.
        m.mark_spans_infeasible("J", "opt");
        assert_ne!(m.choose_layout("J", "opt", 1.0), Layout::Positions);
        m.observe("J", "opt", obs(1_000, 180.0, 190.0, 3.0, true));
        assert!(!m.profile("J", "opt").unwrap().has_spans);
        assert_ne!(m.choose_layout("J", "opt", 1.0), Layout::Positions);
    }

    #[test]
    fn known_budget_charges_replicas_their_own_pressure() {
        // A column whose parsed-values replica would fill ~80% of the
        // budget: with the budget known, the model avoids it even when the
        // cache is currently empty (ambient pressure 0).
        let m = CostModel::new();
        m.observe("Notes", "body", obs(64, 184.0, 194.0, 1.7, true));
        assert_eq!(m.choose_layout("Notes", "body", 0.0), Layout::Values);
        m.set_budget_bytes(16 << 10);
        assert_eq!(m.budget_bytes(), 16 << 10);
        assert_eq!(m.choose_layout("Notes", "body", 0.0), Layout::Positions);
    }

    #[test]
    fn profiles_accumulate_touches() {
        let m = CostModel::new();
        m.observe("d", "f", obs(10, 8.0, 33.0, 3.0, true));
        m.observe("d", "f", obs(10, 8.0, 33.0, 3.0, true));
        let p = m.profile("d", "f").unwrap();
        assert_eq!(p.touches, 2);
        assert_eq!(m.fields_tracked(), 1);
        m.clear();
        assert_eq!(m.fields_tracked(), 0);
    }

    #[test]
    fn scores_are_deterministic_and_reuse_monotone() {
        let m = CostModel::new();
        m.observe("d", "f", obs(100, 8.0, 33.0, 3.0, true));
        let p1 = m.profile("d", "f").unwrap();
        let s1 = m.score(&p1, Layout::Values, 0.0);
        assert_eq!(s1, m.score(&p1, Layout::Values, 0.0));
        m.observe("d", "f", obs(100, 8.0, 33.0, 3.0, true));
        let p2 = m.profile("d", "f").unwrap();
        assert!(
            m.score(&p2, Layout::Values, 0.0) > s1,
            "more touches must not lower the score"
        );
    }

    #[test]
    fn eviction_bonus_scales_with_rebuild_cost_and_is_bounded() {
        let m = CostModel::new();
        m.observe("d", "cheap", obs(100, 8.0, 33.0, 1.0, true));
        m.observe("d", "dear", obs(1_000_000, 8.0, 33.0, 4.0, true));
        let cheap = m.profile("d", "cheap").unwrap();
        let dear = m.profile("d", "dear").unwrap();
        let b_cheap = m.eviction_bonus(&cheap, Layout::Values);
        let b_dear = m.eviction_bonus(&dear, Layout::BinaryJson);
        assert!(b_cheap < b_dear);
        assert!(b_dear <= 64.0, "bonus must stay bounded");
    }
}
