//! Selectivity and distinct-count sketches — the per-field statistics that
//! feed the plan optimizer (join ordering, build-side choice, conjunct
//! ordering in fused select kernels).
//!
//! Two estimators, both fixed-size and dependency-free:
//!
//! - [`DistinctSketch`] — a probabilistic distinct counter in the
//!   HyperLogLog family: 256 one-byte registers indexed by the low bits of
//!   a 64-bit hash, each holding the maximum leading-zero rank seen. The
//!   estimate's relative standard error is ~`1.04/sqrt(256)` ≈ 6.5%. Its
//!   inserts commute and are idempotent, so a sketch over a column's
//!   prefix plus its appended tail equals a sketch over the whole column.
//! - [`PredicateStats`] — exact hit/eval counters for one predicate,
//!   replayed from sampled scan rows. `selectivity()` is the observed pass
//!   rate.
//!
//! [`StatsSketch`] is the registry the exec pipeline feeds: distinct
//! sketches keyed by `(dataset, field)` (observed alongside the cost
//! model's `FieldObservation`s) and predicate counters keyed by the
//! predicate's canonical display string. All methods take `&self` —
//! interior locking mirrors [`crate::CostModel`].
//!
//! A field's distinct sketch summarizes exactly one file generation of its
//! column — the `(fingerprint, rows)` it last observed — and
//! [`StatsSketch::observe_values`] keeps it that way at the least cost:
//!
//! - the same generation again is skipped under the read lock;
//! - a column grown in place from that generation by a clean append
//!   (`prefix_units == units`) inserts only the appended tail;
//! - anything else (a rewrite, a glued append, a skipped generation)
//!   resets the registers and inserts the whole column.
//!
//! Each case leaves the registers bit-identical to a fresh sketch over the
//! current column, so estimates never depend on the observation history.

use std::collections::HashMap;
use vida_formats::Generation;
use vida_types::sync::RwLock;
use vida_types::Value;

/// Registers in a [`DistinctSketch`]: 2^8, so the register index consumes
/// 8 hash bits and the rank the remaining 56.
const REGISTERS: usize = 256;

/// Bias-correction constant for 256 registers (`0.7213 / (1 + 1.079/m)`).
const ALPHA: f64 = 0.7213 / (1.0 + 1.079 / REGISTERS as f64);

/// SplitMix64 finalizer: a cheap, well-mixed, deterministic 64-bit hash.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a over bytes, then finalized through [`mix64`].
fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    mix64(h)
}

/// Stable hash of a [`Value`] for distinct counting. Distinct values get
/// distinct hashes with overwhelming probability; equal values always hash
/// equally. (Cross-type numeric equality — `1 = 1.0` — hashes per-type,
/// which at worst overcounts by the overlap; fine for an estimator.)
pub fn hash_value(v: &Value) -> u64 {
    match v {
        Value::Null => mix64(0x6E75_6C6C),
        Value::Bool(b) => mix64(0xB001 ^ *b as u64),
        Value::Int(i) => mix64(0x1234_5678 ^ *i as u64),
        // Normalize -0.0 to 0.0 so semantically equal floats hash equally.
        Value::Float(f) => {
            let f = if *f == 0.0 { 0.0 } else { *f };
            mix64(0x000F_10A7 ^ f.to_bits())
        }
        Value::Str(s) => hash_bytes(s.as_bytes()),
        Value::Record(fields) => {
            let mut h = 0x005E_C08D_u64;
            for (n, fv) in fields {
                h = mix64(h ^ hash_bytes(n.as_bytes()) ^ hash_value(fv));
            }
            h
        }
        Value::Collection(kind, items) => {
            let mut h = mix64(0xC0_11EC ^ *kind as u64);
            for it in items {
                h = mix64(h ^ hash_value(it));
            }
            h
        }
        Value::Array(a) => {
            let mut h = mix64(0x000A_88A7_u64 ^ a.dims.len() as u64);
            for d in &a.dims {
                h = mix64(h ^ *d as u64);
            }
            for it in &a.data {
                h = mix64(h ^ hash_value(it));
            }
            h
        }
    }
}

/// Fixed-size probabilistic distinct counter (see the module docs).
#[derive(Clone)]
pub struct DistinctSketch {
    registers: [u8; REGISTERS],
}

impl Default for DistinctSketch {
    fn default() -> Self {
        DistinctSketch {
            registers: [0; REGISTERS],
        }
    }
}

impl DistinctSketch {
    pub fn new() -> Self {
        DistinctSketch::default()
    }

    /// Insert a pre-hashed item. Idempotent: the registers only grow.
    pub fn insert_hash(&mut self, h: u64) {
        let idx = (h & (REGISTERS as u64 - 1)) as usize;
        // Rank = trailing-zero count of the remaining 56 bits, + 1 (capped
        // so an all-zero remainder stays in range).
        let rest = h >> 8;
        let rank = (rest.trailing_zeros() as u8).min(56) + 1;
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }

    /// Insert a value (hashed via [`hash_value`]).
    pub fn insert(&mut self, v: &Value) {
        self.insert_hash(hash_value(v));
    }

    /// True when nothing was ever inserted.
    pub fn is_empty(&self) -> bool {
        self.registers.iter().all(|&r| r == 0)
    }

    /// Estimated distinct count, with the standard small-range (linear
    /// counting) correction — exact-ish for cardinalities well below the
    /// register count, ~6.5% relative error above it.
    pub fn estimate(&self) -> f64 {
        let m = REGISTERS as f64;
        let sum: f64 = self
            .registers
            .iter()
            .map(|&r| 1.0 / (1u64 << r) as f64)
            .sum();
        let raw = ALPHA * m * m / sum;
        let zeros = self.registers.iter().filter(|&&r| r == 0).count();
        if raw <= 2.5 * m && zeros > 0 {
            m * (m / zeros as f64).ln()
        } else {
            raw
        }
    }

    /// Merge another sketch (register-wise max): the estimate of the union.
    pub fn merge(&mut self, other: &DistinctSketch) {
        for (a, b) in self.registers.iter_mut().zip(other.registers.iter()) {
            *a = (*a).max(*b);
        }
    }
}

/// Exact hit/eval counters for one predicate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredicateStats {
    /// Times the predicate was evaluated.
    pub evals: u64,
    /// Of those, times it passed.
    pub hits: u64,
}

impl PredicateStats {
    /// Record one evaluation outcome.
    pub fn record(&mut self, hit: bool) {
        self.evals += 1;
        self.hits += hit as u64;
    }

    /// Fold a batch of outcomes (`hits` of `evals` passed).
    pub fn observe(&mut self, hits: u64, evals: u64) {
        debug_assert!(hits <= evals);
        self.evals += evals;
        self.hits += hits;
    }

    /// Observed pass rate, `None` until at least one evaluation happened.
    pub fn selectivity(&self) -> Option<f64> {
        (self.evals > 0).then(|| self.hits as f64 / self.evals as f64)
    }
}

/// One field's distinct sketch and the column generation it summarizes.
#[derive(Default)]
struct FieldSketch {
    sketch: DistinctSketch,
    /// `(fingerprint, rows)` of the observed column; `None` until the
    /// first observation.
    seen: Option<((u64, u64), u64)>,
}

/// The registry the exec pipeline feeds (see the module docs). Lives inside
/// [`crate::CostModel`] so everything holding a cost model gets plan
/// statistics for free.
#[derive(Default)]
pub struct StatsSketch {
    fields: RwLock<HashMap<(String, String), FieldSketch>>,
    predicates: RwLock<HashMap<(String, String), PredicateStats>>,
}

impl StatsSketch {
    pub fn new() -> Self {
        StatsSketch::default()
    }

    /// Observe one materialized column: `vals` as read at the file
    /// generation `fingerprint`, which grew in place from `grown_from` when
    /// revalidation says so. Afterwards the field's sketch equals a fresh
    /// sketch of `vals` (see the module docs for the three cases).
    pub fn observe_values(
        &self,
        dataset: &str,
        field: &str,
        fingerprint: (u64, u64),
        grown_from: Option<Generation>,
        vals: &[Value],
    ) {
        let current = Some((fingerprint, vals.len() as u64));
        let key = (dataset.to_string(), field.to_string());
        if self.fields.read().get(&key).map(|fs| fs.seen) == Some(current) {
            return;
        }
        let mut fields = self.fields.write();
        let fs = fields.entry(key).or_default();
        if fs.seen == current {
            // Another query observed this generation in between.
            return;
        }
        let new_rows = match grown_from {
            Some(prev)
                if prev.prefix_units == prev.units
                    && prev.units <= vals.len()
                    && fs.seen == Some((prev.fingerprint, prev.units as u64)) =>
            {
                &vals[prev.units..]
            }
            _ => {
                fs.sketch = DistinctSketch::new();
                vals
            }
        };
        for v in new_rows {
            fs.sketch.insert(v);
        }
        fs.seen = current;
    }

    /// Estimated distinct count for `(dataset, field)`, clamped to the
    /// observed row count (a column can't have more distinct values than
    /// rows).
    pub fn distinct(&self, dataset: &str, field: &str) -> Option<f64> {
        let fields = self.fields.read();
        let fs = fields.get(&(dataset.to_string(), field.to_string()))?;
        if fs.sketch.is_empty() {
            return None;
        }
        let rows = fs.seen.map_or(0, |(_, rows)| rows);
        Some(fs.sketch.estimate().min(rows as f64).max(1.0))
    }

    /// Latest observed row count for `(dataset, field)`.
    pub fn rows(&self, dataset: &str, field: &str) -> Option<u64> {
        self.fields
            .read()
            .get(&(dataset.to_string(), field.to_string()))
            .and_then(|fs| fs.seen)
            .map(|(_, rows)| rows)
    }

    /// Fold a batch of evaluation outcomes for a predicate over `dataset`
    /// (keyed by the dataset and the predicate's canonical display string:
    /// the same text over another dataset is another predicate).
    pub fn record_predicate(&self, dataset: &str, predicate: &str, hits: u64, evals: u64) {
        if evals == 0 {
            return;
        }
        self.predicates
            .write()
            .entry((dataset.to_string(), predicate.to_string()))
            .or_default()
            .observe(hits, evals);
    }

    /// Observed pass rate of a predicate over `dataset`, `None` until it
    /// was ever replayed there.
    pub fn predicate_selectivity(&self, dataset: &str, predicate: &str) -> Option<f64> {
        self.predicates
            .read()
            .get(&(dataset.to_string(), predicate.to_string()))
            .and_then(PredicateStats::selectivity)
    }

    /// Number of fields with a distinct sketch.
    pub fn fields_sketched(&self) -> usize {
        self.fields.read().len()
    }

    /// Number of predicates with counters.
    pub fn predicates_tracked(&self) -> usize {
        self.predicates.read().len()
    }

    /// Forget everything (benchmark phase boundaries).
    pub fn clear(&self) {
        self.fields.write().clear();
        self.predicates.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// xorshift64* — the same seeded generator family the fuzzer uses.
    struct Rng(u64);
    impl Rng {
        fn new(seed: u64) -> Self {
            Rng(seed.max(1))
        }
        fn next_u64(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next_u64() % n
        }
        fn unit(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Pinned relative-error bound for the distinct estimator on the seeded
    /// distributions below (the sketch is deterministic, so this is a
    /// regression bound, not a statistical one).
    const REL_ERR: f64 = 0.2;

    fn rel_err(est: f64, truth: f64) -> f64 {
        (est - truth).abs() / truth.max(1.0)
    }

    fn estimate_of(vals: &[Value]) -> (f64, f64) {
        let mut s = DistinctSketch::new();
        let mut exact = std::collections::HashSet::new();
        for v in vals {
            s.insert(v);
            exact.insert(format!("{v}"));
        }
        (s.estimate(), exact.len() as f64)
    }

    #[test]
    fn constant_column_estimates_one() {
        let vals: Vec<Value> = (0..10_000).map(|_| Value::Int(7)).collect();
        let (est, truth) = estimate_of(&vals);
        assert_eq!(truth, 1.0);
        assert!((est - 1.0).abs() < 0.5, "est {est}");
    }

    #[test]
    fn all_distinct_column_within_bound() {
        for seed in [0xDEC0DEu64, 42, 7] {
            let mut rng = Rng::new(seed);
            let base = rng.below(1 << 30) as i64;
            let vals: Vec<Value> = (0..20_000).map(|i| Value::Int(base + i)).collect();
            let (est, truth) = estimate_of(&vals);
            assert_eq!(truth, 20_000.0);
            assert!(
                rel_err(est, truth) < REL_ERR,
                "seed {seed}: est {est} vs {truth}"
            );
        }
    }

    #[test]
    fn uniform_column_within_bound() {
        for seed in [0xDEC0DEu64, 42, 7] {
            let mut rng = Rng::new(seed);
            let vals: Vec<Value> = (0..50_000)
                .map(|_| Value::Int(rng.below(5_000) as i64))
                .collect();
            let (est, truth) = estimate_of(&vals);
            assert!(
                rel_err(est, truth) < REL_ERR,
                "seed {seed}: est {est} vs {truth}"
            );
        }
    }

    #[test]
    fn zipf_column_within_bound() {
        // Log-uniform draw ≈ zipf(1): heavy head, long tail of rare values.
        for seed in [0xDEC0DEu64, 42, 7] {
            let mut rng = Rng::new(seed);
            let n = 100_000f64;
            let vals: Vec<Value> = (0..30_000)
                .map(|_| Value::Int(n.powf(rng.unit()) as i64))
                .collect();
            let (est, truth) = estimate_of(&vals);
            assert!(
                rel_err(est, truth) < REL_ERR,
                "seed {seed}: est {est} vs {truth}"
            );
        }
    }

    #[test]
    fn string_and_mixed_type_columns_within_bound() {
        let mut rng = Rng::new(0xDEC0DE);
        let vals: Vec<Value> = (0..10_000)
            .map(|_| match rng.below(3) {
                0 => Value::str(format!("s{}", rng.below(700))),
                1 => Value::Int(rng.below(700) as i64),
                _ => Value::Null,
            })
            .collect();
        let (est, truth) = estimate_of(&vals);
        assert!(rel_err(est, truth) < REL_ERR, "est {est} vs {truth}");
    }

    const GEN_A: (u64, u64) = (4_000, 1);
    const GEN_B: (u64, u64) = (6_000, 2);

    fn ints(range: std::ops::Range<i64>) -> Vec<Value> {
        range.map(Value::Int).collect()
    }

    /// The registers of `(dataset, field)`'s sketch.
    fn registers(s: &StatsSketch, dataset: &str, field: &str) -> [u8; REGISTERS] {
        let key = (dataset.to_string(), field.to_string());
        s.fields.read()[&key].sketch.registers
    }

    /// The registers of a fresh registry after one observation of `vals`.
    fn fresh_registers(fingerprint: (u64, u64), vals: &[Value]) -> [u8; REGISTERS] {
        let s = StatsSketch::new();
        s.observe_values("D", "k", fingerprint, None, vals);
        registers(&s, "D", "k")
    }

    #[test]
    fn inserts_are_idempotent_across_queries() {
        let vals: Vec<Value> = (0..1_000).map(|i| Value::Int(i % 37)).collect();
        let s = StatsSketch::new();
        s.observe_values("D", "k", GEN_A, None, &vals);
        let (first, estimate) = (registers(&s, "D", "k"), s.distinct("D", "k"));
        // A second sight of the generation is skipped outright: even a
        // different column under the same `(fingerprint, rows)` leaves the
        // registers alone.
        s.observe_values("D", "k", GEN_A, None, &vals);
        s.observe_values("D", "k", GEN_A, None, &ints(5_000..6_000));
        assert_eq!(registers(&s, "D", "k"), first);
        assert_eq!(s.distinct("D", "k"), estimate);
        assert_eq!(s.rows("D", "k"), Some(1_000));
    }

    #[test]
    fn a_clean_append_inserts_only_the_tail() {
        let grown = ints(0..1_500);
        let s = StatsSketch::new();
        s.observe_values("D", "k", GEN_A, None, &grown[..1_000]);
        let prev = Generation {
            fingerprint: GEN_A,
            units: 1_000,
            prefix_units: 1_000,
        };
        s.observe_values("D", "k", GEN_B, Some(prev), &grown);
        assert_eq!(registers(&s, "D", "k"), fresh_registers(GEN_B, &grown));
        assert_eq!(s.rows("D", "k"), Some(1_500));
        // Only the tail was read: a prefix the sketch never saw does not
        // reach the registers.
        let s = StatsSketch::new();
        s.observe_values("D", "k", GEN_A, None, &grown[..1_000]);
        let mut lying = ints(90_000..91_000);
        lying.extend_from_slice(&grown[1_000..]);
        s.observe_values("D", "k", GEN_B, Some(prev), &lying);
        assert_eq!(registers(&s, "D", "k"), fresh_registers(GEN_B, &grown));
    }

    #[test]
    fn a_glued_append_resets_the_sketch() {
        // The append glued onto an unterminated last row, so only the first
        // row's bytes survived: the old registers must not leak through.
        let old = ints(0..1_000);
        let mut grown = vec![Value::Int(0)];
        grown.extend((1..1_500).map(|_| Value::Int(7)));
        let s = StatsSketch::new();
        s.observe_values("D", "k", GEN_A, None, &old);
        let prev = Generation {
            fingerprint: GEN_A,
            units: 1_000,
            prefix_units: 1,
        };
        s.observe_values("D", "k", GEN_B, Some(prev), &grown);
        assert_eq!(registers(&s, "D", "k"), fresh_registers(GEN_B, &grown));
        assert!(s.distinct("D", "k").unwrap() < 3.0);
    }

    #[test]
    fn an_unrelated_generation_resets_the_sketch() {
        let old = ints(0..2_000);
        let new: Vec<Value> = (0..1_500).map(|_| Value::Int(7)).collect();
        // A rewrite (no growth), and an append onto a generation this
        // sketch never saw (the field went untouched in between).
        let skipped = Generation {
            fingerprint: (1, 1),
            units: 1_000,
            prefix_units: 1_000,
        };
        for grown_from in [None, Some(skipped)] {
            let s = StatsSketch::new();
            s.observe_values("D", "k", GEN_A, None, &old);
            s.observe_values("D", "k", GEN_B, grown_from, &new);
            assert_eq!(registers(&s, "D", "k"), fresh_registers(GEN_B, &new));
            assert_eq!(s.rows("D", "k"), Some(1_500));
            assert!((s.distinct("D", "k").unwrap() - 1.0).abs() < 0.5);
        }
    }

    #[test]
    fn merge_equals_union() {
        let mut a = DistinctSketch::new();
        let mut b = DistinctSketch::new();
        let mut u = DistinctSketch::new();
        for i in 0..5_000i64 {
            let v = Value::Int(i);
            if i % 2 == 0 {
                a.insert(&v);
            } else {
                b.insert(&v);
            }
            u.insert(&v);
        }
        a.merge(&b);
        assert_eq!(a.estimate(), u.estimate());
    }

    #[test]
    fn equal_floats_hash_equally() {
        assert_eq!(
            hash_value(&Value::Float(0.0)),
            hash_value(&Value::Float(-0.0))
        );
        assert_ne!(
            hash_value(&Value::Float(1.5)),
            hash_value(&Value::Float(2.5))
        );
    }

    #[test]
    fn predicate_counters_are_exact_on_replay() {
        // Replay a seeded outcome stream through both the incremental and
        // the batched API: the selectivity must be the exact pass rate.
        let mut rng = Rng::new(42);
        let outcomes: Vec<bool> = (0..10_000).map(|_| rng.below(100) < 23).collect();
        let truth_hits = outcomes.iter().filter(|&&b| b).count() as u64;

        let mut p = PredicateStats::default();
        for &o in &outcomes {
            p.record(o);
        }
        assert_eq!(p.evals, 10_000);
        assert_eq!(p.hits, truth_hits);
        assert_eq!(p.selectivity(), Some(truth_hits as f64 / 10_000.0));

        let s = StatsSketch::new();
        assert_eq!(s.predicate_selectivity("P", "(p.age > 40)"), None);
        // Batched in uneven chunks — totals must match the per-outcome replay.
        let mut i = 0usize;
        let mut chunk = 1usize;
        while i < outcomes.len() {
            let end = (i + chunk).min(outcomes.len());
            let hits = outcomes[i..end].iter().filter(|&&b| b).count() as u64;
            s.record_predicate("P", "(p.age > 40)", hits, (end - i) as u64);
            i = end;
            chunk = chunk * 2 + 1;
        }
        assert_eq!(
            s.predicate_selectivity("P", "(p.age > 40)"),
            Some(truth_hits as f64 / 10_000.0)
        );
        // The same text over another dataset has no history.
        assert_eq!(s.predicate_selectivity("Q", "(p.age > 40)"), None);
        assert_eq!(s.predicates_tracked(), 1);
        s.clear();
        assert_eq!(s.predicates_tracked(), 0);
        assert_eq!(s.fields_sketched(), 0);
    }

    #[test]
    fn distinct_is_clamped_to_rows_and_floored_at_one() {
        let s = StatsSketch::new();
        s.observe_values("D", "k", GEN_A, None, &[Value::Int(1), Value::Int(2)]);
        let d = s.distinct("D", "k").unwrap();
        assert!((1.0..=2.0).contains(&d), "{d}");
        assert_eq!(s.distinct("D", "missing"), None);
    }
}
