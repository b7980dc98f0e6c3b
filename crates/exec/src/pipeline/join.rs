//! Join build sides — the pipeline breakers: radix-partitioned hash
//! tables, the sorted band index, and candidate selection for theta probes.

use super::{Band, Tuple};
use crate::stats::ExecStats;
use std::collections::HashMap;
use vida_jit::{CompiledKernel, SlotType};
use vida_lang::BinOp;
use vida_parallel::{partition_of, radix, MorselPlan, WorkerPool};
use vida_types::{Result, VidaError};

/// Materialized build side of one join — the pipeline breaker the
/// streaming engine still pays, constructed once before the push loop and
/// shared (read-only) by every probe morsel.
pub(super) struct JoinBuild {
    pub(super) right_tuples: Vec<Tuple>,
    /// Hash strategy: radix-partitioned tables (`partition_count` depends
    /// only on the build size, so the build is the same at every worker
    /// count) plus the invalid-frame stragglers every probe checks
    /// through the interpreter.
    tables: Vec<HashMap<i64, Vec<usize>>>,
    partitions: usize,
    loose: Vec<usize>,
    /// Band strategy: the sorted key index.
    pub(super) index: Option<BandIndex>,
    /// Cached `0..n` candidate list for block-nested-loop probes, hoisted
    /// so invalid probes and band-less joins do not reallocate it per
    /// tuple.
    pub(super) all: Vec<usize>,
}

impl JoinBuild {
    /// Hash-join build: extract key bits, split by radix partition, and
    /// assemble one table per partition. The extraction runs morsel-wise
    /// and the partition tables build one per pool morsel; visiting morsel
    /// pre-splits in morsel order keeps every bucket's index list
    /// ascending — the build side's scan order.
    pub(super) fn hash(
        right_tuples: Vec<Tuple>,
        right_key: &CompiledKernel,
        right_key_ty: SlotType,
        float_keys: bool,
        pool: &WorkerPool,
        morsel_rows: usize,
        stats: &mut ExecStats,
    ) -> Result<JoinBuild> {
        let partitions = radix::partition_count(right_tuples.len());
        let all = (0..right_tuples.len()).collect();
        let key_of = |t: &Tuple| encode_key(right_key.call(&t.frame), right_key_ty, float_keys);
        if stats.trace.is_some() {
            // The build extracts the key of every valid tuple exactly once.
            let n = right_tuples.iter().filter(|t| t.valid).count() as u64;
            stats.kernel_hits(right_key.id(), n);
        }
        // Phase 1: pre-split key bits by partition, morsel-wise.
        let rplan = MorselPlan::fixed(right_tuples.len(), morsel_rows);
        stats.morsels += rplan.len() as u64;
        let pre = pool.run_morsels(
            rplan.len(),
            |_| (),
            |_, m| {
                let mut parts: Vec<Vec<(i64, usize)>> = vec![Vec::new(); partitions];
                let mut loose: Vec<usize> = Vec::new();
                for i in rplan.range(m) {
                    let t = &right_tuples[i];
                    if t.valid {
                        let k = key_of(t);
                        parts[partition_of(k, partitions)].push((k, i));
                    } else {
                        loose.push(i);
                    }
                }
                Ok::<_, VidaError>((parts, loose))
            },
        )?;
        // Phase 2: one pool morsel per partition assembles that partition's
        // table from the morsel-ordered pre-splits.
        let tables = pool.run_morsels(
            partitions,
            |_| (),
            |_, p| {
                let mut table: HashMap<i64, Vec<usize>> = HashMap::new();
                for (parts, _) in &pre {
                    for &(k, i) in &parts[p] {
                        table.entry(k).or_default().push(i);
                    }
                }
                Ok::<_, VidaError>(table)
            },
        )?;
        let loose = pre.iter().flat_map(|(_, l)| l.iter().copied()).collect();
        Ok(JoinBuild {
            right_tuples,
            tables,
            partitions,
            loose,
            index: None,
            all,
        })
    }

    /// Theta-join build: tuples plus (for band joins) the sorted key index.
    pub(super) fn theta(right_tuples: Vec<Tuple>, index: Option<BandIndex>) -> JoinBuild {
        let all = (0..right_tuples.len()).collect();
        JoinBuild {
            right_tuples,
            tables: Vec::new(),
            partitions: 0,
            loose: Vec::new(),
            index,
            all,
        }
    }

    /// Candidate build-tuple indexes for one hash probe, in ascending
    /// (right-scan) order so non-commutative monoids see the interpreter's
    /// pair order. Invalid probe frames are compared against every build
    /// tuple through the interpreter (null keys join null keys in this
    /// calculus).
    pub(super) fn hash_candidates(
        &self,
        lt: &Tuple,
        left_key: &CompiledKernel,
        left_key_ty: SlotType,
        float_keys: bool,
    ) -> Vec<usize> {
        if !lt.valid {
            return self.all.clone();
        }
        let k = encode_key(left_key.call(&lt.frame), left_key_ty, float_keys);
        let mut c: Vec<usize> = self.tables[partition_of(k, self.partitions)]
            .get(&k)
            .map(|b| b.as_slice())
            .unwrap_or(&[])
            .iter()
            .chain(self.loose.iter())
            .copied()
            .collect();
        c.sort_unstable();
        c
    }
}

/// The sorted key index a band theta join probes: valid right tuples keyed
/// by their compiled band key, plus the tuples the index cannot order
/// (invalid frames, NaN keys) which every probe must still check pairwise.
pub(super) struct BandIndex {
    /// `(key bits, right tuple index)`, sorted by key then index.
    sorted: Vec<(i64, usize)>,
    /// Right-scan-order indexes outside the sorted run.
    unindexed: Vec<usize>,
}

impl BandIndex {
    pub(super) fn build(band: &Band, right_tuples: &[Tuple]) -> BandIndex {
        let mut sorted = Vec::with_capacity(right_tuples.len());
        let mut unindexed = Vec::new();
        for (i, t) in right_tuples.iter().enumerate() {
            if !t.valid {
                unindexed.push(i);
                continue;
            }
            let k = encode_key(
                band.right_key.call(&t.frame),
                band.right_key_ty,
                band.float_keys,
            );
            if band.float_keys && f64::from_bits(k as u64).is_nan() {
                // NaN compares false under every IEEE ordering; keep such
                // keys out of the sorted run (they would break binary
                // search) and let the pairwise predicate reject them.
                unindexed.push(i);
            } else {
                sorted.push((k, i));
            }
        }
        if band.float_keys {
            sorted.sort_unstable_by(|(a, ai), (b, bi)| {
                f64::from_bits(*a as u64)
                    .total_cmp(&f64::from_bits(*b as u64))
                    .then(ai.cmp(bi))
            });
        } else {
            sorted.sort_unstable();
        }
        BandIndex { sorted, unindexed }
    }

    /// Indexes of the sorted run satisfying `left_key op right_key` for one
    /// probe key, as the half-open range binary search finds.
    fn range(&self, band: &Band, lk: i64) -> &[(i64, usize)] {
        let lt = |k: i64| key_lt(k, lk, band.float_keys);
        let le = |k: i64| !key_lt(lk, k, band.float_keys);
        match band.op {
            // left < right: the strict suffix of keys above lk.
            BinOp::Lt => &self.sorted[self.sorted.partition_point(|&(k, _)| le(k))..],
            // left <= right: keys at or above lk.
            BinOp::Le => &self.sorted[self.sorted.partition_point(|&(k, _)| lt(k))..],
            // left > right: the strict prefix of keys below lk.
            BinOp::Gt => &self.sorted[..self.sorted.partition_point(|&(k, _)| lt(k))],
            // left >= right: keys at or below lk.
            BinOp::Ge => &self.sorted[..self.sorted.partition_point(|&(k, _)| le(k))],
            _ => unreachable!("band ops are range comparisons"),
        }
    }
}

/// Strict `a < b` over canonical key bits.
fn key_lt(a: i64, b: i64, float_keys: bool) -> bool {
    if float_keys {
        f64::from_bits(a as u64) < f64::from_bits(b as u64)
    } else {
        a < b
    }
}

/// Candidate right-tuple indexes for one theta probe, in ascending
/// (right-scan) order so non-commutative monoids see the interpreter's pair
/// order. `None` means "every build tuple" — invalid probe frames and
/// band-less joins run the block-nested loop over a candidate list the
/// caller hoisted once, instead of reallocating it per probe. Band probes
/// narrow to the sorted key range plus the unindexed stragglers.
pub(super) fn theta_candidates(
    lt: &Tuple,
    band: Option<&Band>,
    index: Option<&BandIndex>,
) -> Option<Vec<usize>> {
    let (Some(band), Some(index)) = (band, index) else {
        return None;
    };
    if !lt.valid {
        return None;
    }
    let lk = encode_key(
        band.left_key.call(&lt.frame),
        band.left_key_ty,
        band.float_keys,
    );
    let mut c: Vec<usize> = if band.float_keys && f64::from_bits(lk as u64).is_nan() {
        // NaN probe keys satisfy no IEEE range; only the unindexed build
        // tuples (whose comparison runs through the full predicate) remain.
        Vec::new()
    } else {
        index.range(band, lk).iter().map(|&(_, i)| i).collect()
    };
    c.extend(index.unindexed.iter().copied());
    c.sort_unstable();
    Some(c)
}

/// Canonical hash bits for a join key. With `float_keys`, integer keys
/// promote into the float domain so `p.id = g.fid` hashes consistently
/// across the numeric tower (bit equality on floats matches the
/// interpreter's total-order equality).
fn encode_key(raw: i64, ty: SlotType, float_keys: bool) -> i64 {
    if float_keys && ty == SlotType::Int {
        (raw as f64).to_bits() as i64
    } else {
        raw
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{catalog, jit, plan_of};
    use crate::catalog::MemoryCatalog;
    use crate::pipeline::{run_jit, run_jit_with_stats, JitOptions};
    use vida_types::{Schema, Type, Value};

    #[test]
    fn hash_join_on_equi_keys() {
        assert_eq!(
            jit(
                "for { p <- Patients, g <- Genetics, p.id = g.id, p.age > 60 } \
                 yield sum g.snp"
            ),
            Value::Float(1.4)
        );
    }

    #[test]
    fn theta_join_band_and_nested_loop_agree_with_volcano() {
        let cat = catalog();
        let queries = [
            // Band: range comparison between the sides.
            "for { p <- Patients, g <- Genetics, p.id < g.id } yield list p.age",
            "for { p <- Patients, g <- Genetics, p.id <= g.id, p.age > 40 } yield count p",
            "for { p <- Patients, g <- Genetics, p.id >= g.id } yield sum g.id",
            // Block-nested-loop: inequality and products.
            "for { p <- Patients, g <- Genetics, p.id != g.id } yield count p",
            "for { p <- Patients, g <- Genetics } yield count p",
        ];
        for q in queries {
            let plan = plan_of(q);
            let oracle = crate::volcano::run_volcano(&plan, &cat).unwrap();
            for threads in [1usize, 2, 8] {
                let opts = JitOptions {
                    threads,
                    morsel_rows: 1,
                    ..Default::default()
                };
                let (v, stats) = run_jit_with_stats(&plan, &cat, &opts).unwrap();
                assert_eq!(v, oracle, "threads={threads} deviates for {q}");
                assert_eq!(stats.whole_query_fallbacks, 0, "{q}: {stats:?}");
                assert_eq!(stats.theta_pipelines, 1, "{q}: {stats:?}");
            }
        }
    }

    #[test]
    fn null_join_values_preserve_right_scan_order() {
        // Regression: loose (null-frame) build tuples must interleave with
        // hash-bucket matches in right-scan order, or list-monoid results
        // diverge from the oracles.
        let cat = MemoryCatalog::new();
        cat.register_records(
            "P",
            Schema::from_pairs([("id", Type::Int)]),
            &[Value::record([("id", Value::Int(1))])],
        )
        .unwrap();
        cat.register_records(
            "G",
            Schema::from_pairs([("id", Type::Int), ("snp", Type::Float)]),
            &[
                Value::record([("id", Value::Int(1)), ("snp", Value::Null)]),
                Value::record([("id", Value::Int(1)), ("snp", Value::Float(0.2))]),
            ],
        )
        .unwrap();
        let plan = plan_of("for { p <- P, g <- G, p.id = g.id } yield list g.snp");
        let via_volcano = crate::volcano::run_volcano(&plan, &cat).unwrap();
        let via_jit = run_jit(&plan, &cat, &JitOptions::default()).unwrap();
        assert_eq!(via_jit, via_volcano);
        assert_eq!(
            via_jit.elements().unwrap(),
            &[Value::Null, Value::Float(0.2)]
        );
    }
}
