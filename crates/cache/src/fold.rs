//! Cached fold partials — the incremental-aggregation side table.
//!
//! A warm aggregate over a file that only *grew* does not need to re-fold
//! the prefix: the engine caches the monoid accumulator (pre-finalize!)
//! it produced over rows `0..rows` under the source's fingerprint, and a
//! later run over the extended file folds only the appended tail, then
//! `merge_partials([prefix, tail])`. The entry key is `(dataset, query
//! fingerprint)` where the query fingerprint hashes the bound plan — two
//! textually different queries that lower to the same plan share partials,
//! different plans never collide.
//!
//! The partials live in the [`crate::CacheManager`]'s state, under its one
//! lock ([`crate::CacheManager::fold_partial`],
//! [`crate::CacheManager::put_fold_partial`]). Entries are small (one
//! accumulator value each), so the table is bounded by count rather than
//! bytes.

use vida_types::Value;

/// Upper bound on resident partials; inserting past it evicts an
/// arbitrary entry (the table is a pure performance hint, never a
/// correctness dependency).
pub const MAX_FOLD_ENTRIES: usize = 4096;

/// One cached pre-finalize accumulator.
#[derive(Debug, Clone)]
pub struct FoldPartial {
    /// Monoid accumulator over rows `0..rows`, **before** `finalize` (an
    /// `avg` partial is still its `{__sum, __count}` record).
    pub partial: Value,
    /// Number of source rows the partial covers, counted from row 0.
    pub rows: usize,
    /// Source fingerprint the partial was folded under. Valid for reuse
    /// when it matches the current file, or matches the pre-append
    /// fingerprint of a pure extension with `rows <=` the prefix length.
    pub fingerprint: (u64, u64),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheKey, CacheManager, CachedData, Layout};

    fn partial(rows: usize) -> FoldPartial {
        FoldPartial {
            partial: Value::Int(rows as i64),
            rows,
            fingerprint: (rows as u64, 7),
        }
    }

    #[test]
    fn put_get_round_trip() {
        let c = CacheManager::new(1 << 20);
        assert!(c.fold_partial("d", 1).is_none());
        c.put_fold_partial("d", 1, partial(10));
        let got = c.fold_partial("d", 1).unwrap();
        assert_eq!(got.rows, 10);
        assert_eq!(got.partial, Value::Int(10));
        assert_eq!(got.fingerprint, (10, 7));
        // Same dataset, different query fingerprint: distinct slot.
        c.put_fold_partial("d", 2, partial(20));
        assert_eq!(c.fold_partial("d", 1).unwrap().rows, 10);
        assert_eq!(c.fold_partial("d", 2).unwrap().rows, 20);
        // Replace in place.
        c.put_fold_partial("d", 1, partial(30));
        assert_eq!(c.fold_partial("d", 1).unwrap().rows, 30);
        // Partials are not replicas: they take no budget.
        assert_eq!((c.len(), c.used_bytes()), (0, 0));
    }

    #[test]
    fn invalidation_is_per_dataset() {
        let c = CacheManager::new(1 << 20);
        c.put_fold_partial("d", 1, partial(1));
        c.put_fold_partial("d", 2, partial(2));
        c.put_fold_partial("e", 1, partial(3));
        let col = CachedData::from_values(&[Value::Int(1)], Layout::Values).unwrap();
        c.put(CacheKey::new("d", "x", Layout::Values), col, (1, 7));
        // Nothing stale among the replicas: partials stay.
        c.retain_fingerprints("d", &[(1, 7)]);
        assert!(c.fold_partial("d", 1).is_some());
        assert!(c.fold_partial("d", 2).is_some());
        // A rebuilt file drops the replica and every partial of its
        // dataset that predates the new generation, and nothing else.
        c.retain_fingerprints("d", &[(5, 7)]);
        assert!(c.fold_partial("d", 1).is_none());
        assert!(c.fold_partial("d", 2).is_none());
        assert_eq!(c.fold_partial("e", 1).unwrap().rows, 3);
    }

    #[test]
    fn capacity_is_bounded() {
        let c = CacheManager::new(1 << 20);
        let n = MAX_FOLD_ENTRIES as u64 + 10;
        for q in 0..n {
            c.put_fold_partial("d", q, partial(1));
        }
        let resident = (0..n).filter(|&q| c.fold_partial("d", q).is_some()).count();
        assert_eq!(resident, MAX_FOLD_ENTRIES);
        // The newest partial always lands.
        assert!(c.fold_partial("d", n - 1).is_some());
    }
}
