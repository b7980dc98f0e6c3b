//! Join build sides — the pipeline breakers: the right side's flat slot
//! matrix, radix-partitioned CSR hash buckets, the sorted band index, and
//! candidate selection for probes.

use super::{Band, Tuple};
use crate::stats::ExecStats;
use std::collections::HashMap;
use vida_jit::{CompiledKernel, SlotType};
use vida_lang::BinOp;
use vida_parallel::{partition_of, radix, MorselPlan, WorkerPool};
use vida_types::{Result, VidaError};

/// The scanned right side of one join, flat: the right source `src`'s
/// frame slots `rslots` as one row-major matrix, a validity bitmap, each
/// row's source row (its provenance), and — while the index is built — the
/// canonical key of every row the join has a key kernel for. Morsel chunks
/// append in morsel order, so build row `i` is the `i`-th survivor of the
/// right scan at every worker count.
pub(super) struct BuildRows<'p> {
    src: usize,
    rslots: &'p [usize],
    slots: Vec<i64>,
    valid: Vec<u64>,
    rows: Vec<u32>,
    keys: Vec<i64>,
}

impl<'p> BuildRows<'p> {
    /// An empty chunk with room for `rows` rows.
    pub(super) fn new(src: usize, rslots: &'p [usize], rows: usize) -> Self {
        BuildRows {
            src,
            rslots,
            slots: Vec::with_capacity(rows * rslots.len()),
            valid: Vec::with_capacity(rows.div_ceil(64)),
            rows: Vec::with_capacity(rows),
            keys: Vec::with_capacity(rows),
        }
    }

    pub(super) fn len(&self) -> usize {
        self.rows.len()
    }

    fn is_valid(&self, i: usize) -> bool {
        self.valid[i / 64] >> (i % 64) & 1 == 1
    }

    fn set_valid(&mut self, i: usize, valid: bool) {
        if i % 64 == 0 {
            self.valid.push(0);
        }
        self.valid[i / 64] |= (valid as u64) << (i % 64);
    }

    /// Append one surviving right tuple (row ids fit `u32`: the build scan
    /// checks the source size first).
    pub(super) fn push(&mut self, t: &Tuple, key: Option<i64>) {
        self.set_valid(self.len(), t.valid);
        self.slots.extend(self.rslots.iter().map(|&s| t.frame[s]));
        self.rows.push(t.rows[self.src] as u32);
        self.keys.extend(key);
    }

    /// Append the next morsel's chunk.
    pub(super) fn append(&mut self, chunk: BuildRows<'p>) {
        let n = self.len();
        for i in 0..chunk.len() {
            self.set_valid(n + i, chunk.is_valid(i));
        }
        self.slots.extend(chunk.slots);
        self.rows.extend(chunk.rows);
        self.keys.extend(chunk.keys);
    }
}

/// Materialized build side of one join — the pipeline breaker the
/// streaming engine still pays, constructed once before the push loop and
/// shared (read-only) by every probe morsel.
pub(super) struct JoinBuild<'p> {
    rows: BuildRows<'p>,
    /// Hash strategy: one CSR bucket table per radix partition
    /// (`partition_count` depends only on the build size, so the build is
    /// the same at every worker count) plus the invalid-frame stragglers
    /// every probe checks through the interpreter, in build order.
    tables: Vec<Buckets>,
    partitions: usize,
    loose: Vec<u32>,
    /// Band strategy: the sorted key index.
    pub(super) index: Option<BandIndex>,
    /// `0..n`: the candidates of block-nested-loop and invalid-frame
    /// probes, built once and borrowed by every probe.
    all: Vec<u32>,
}

/// One radix partition's hash buckets in CSR form: bucket `ids[key]` holds
/// the build rows `items[offsets[b]..offsets[b + 1]]`, ascending.
#[derive(Default)]
struct Buckets {
    ids: HashMap<i64, u32>,
    offsets: Vec<u32>,
    items: Vec<u32>,
}

impl<'p> JoinBuild<'p> {
    /// Hash-join build, as two counting sorts: each morsel of build rows
    /// sorts its valid rows by radix partition, then one pool morsel per
    /// partition lays out its buckets as CSR — count, prefix-sum, scatter —
    /// visiting the morsels in order, so every bucket lists its rows in
    /// ascending build order (the right scan's order) and no bucket owns a
    /// `Vec`.
    pub(super) fn hash(
        mut rows: BuildRows<'p>,
        pool: &WorkerPool,
        morsel_rows: usize,
        stats: &mut ExecStats,
    ) -> Result<Self> {
        let keys = std::mem::take(&mut rows.keys);
        let partitions = radix::partition_count(rows.len());
        let part = |i: usize| partition_of(keys[i], partitions);
        let rplan = MorselPlan::fixed(rows.len(), morsel_rows);
        stats.morsels += rplan.len() as u64;
        // `order[split[p]..split[p + 1]]`: the morsel's rows of partition p.
        let pre = pool.run_morsels(
            rplan.len(),
            |_| (),
            |_, m| {
                let valid = || rplan.range(m).filter(|&i| rows.is_valid(i));
                let mut split = vec![0u32; partitions + 1];
                valid().for_each(|i| split[part(i) + 1] += 1);
                (0..partitions).for_each(|p| split[p + 1] += split[p]);
                let (mut at, mut order) = (split.clone(), vec![0; split[partitions] as usize]);
                for i in valid() {
                    let p = part(i);
                    order[at[p] as usize] = i as u32;
                    at[p] += 1;
                }
                let loose = rplan.range(m).filter(|&i| !rows.is_valid(i));
                Ok::<_, VidaError>((split, order, loose.map(|i| i as u32).collect::<Vec<_>>()))
            },
        )?;
        let tables = pool.run_morsels(
            partitions,
            |_| (),
            |_, p| {
                let visit = || {
                    let runs = pre
                        .iter()
                        .map(|(s, o, _)| &o[s[p] as usize..s[p + 1] as usize]);
                    runs.flatten().copied()
                };
                let mut b = Buckets::default();
                let n = pre.iter().map(|(s, ..)| s[p + 1] - s[p]).sum::<u32>() as usize;
                let mut counts: Vec<u32> = Vec::with_capacity(n);
                b.ids.reserve(n);
                for i in visit() {
                    let id = *b.ids.entry(keys[i as usize]).or_insert(counts.len() as u32);
                    match counts.get_mut(id as usize) {
                        Some(c) => *c += 1,
                        None => counts.push(1),
                    }
                }
                b.offsets = Vec::with_capacity(counts.len() + 1);
                b.offsets.push(0);
                for c in counts {
                    b.offsets.push(b.offsets[b.offsets.len() - 1] + c);
                }
                let mut cursor = b.offsets.clone();
                b.items = vec![0; n];
                for i in visit() {
                    let at = &mut cursor[b.ids[&keys[i as usize]] as usize];
                    b.items[*at as usize] = i;
                    *at += 1;
                }
                Ok::<_, VidaError>(b)
            },
        )?;
        let loose = pre.iter().flat_map(|(.., l)| l.iter().copied()).collect();
        Ok(JoinBuild {
            tables,
            partitions,
            loose,
            ..JoinBuild::over(rows)
        })
    }

    /// Theta-join build: the rows plus (for band joins) the sorted key index.
    pub(super) fn theta(mut rows: BuildRows<'p>, band: Option<&Band>) -> Self {
        let keys = std::mem::take(&mut rows.keys);
        let index = band.map(|b| BandIndex::build(b, &rows, &keys));
        JoinBuild {
            index,
            ..JoinBuild::over(rows)
        }
    }

    /// A build over `rows` with no index: the block-nested loop's.
    fn over(rows: BuildRows<'p>) -> Self {
        JoinBuild {
            all: (0..rows.len() as u32).collect(),
            rows,
            tables: Vec::new(),
            partitions: 0,
            loose: Vec::new(),
            index: None,
        }
    }

    /// Write build row `i` into a probe's scratch tuple: the right slots
    /// straight from the matrix, the right source's row, and the pair's
    /// validity.
    pub(super) fn fill(&self, i: usize, lvalid: bool, out: &mut Tuple) {
        let r = &self.rows;
        let w = r.rslots.len();
        for (&slot, &bits) in r.rslots.iter().zip(&r.slots[i * w..(i + 1) * w]) {
            out.frame[slot] = bits;
        }
        out.rows[r.src] = r.rows[i] as usize;
        out.valid = lvalid && r.is_valid(i);
    }

    /// Candidate build rows for one hash probe, in ascending (right-scan)
    /// order so non-commutative monoids see the interpreter's pair order:
    /// the probe key's CSR bucket, borrowed — merged with the loose rows in
    /// the probe's `scratch` list only when there are any. Invalid probe
    /// frames are compared against every build row through the interpreter
    /// (null keys join null keys in this calculus).
    pub(super) fn hash_candidates<'a>(
        &'a self,
        lt: &Tuple,
        left_key: &CompiledKernel,
        left_key_ty: SlotType,
        float_keys: bool,
        scratch: &'a mut Vec<u32>,
    ) -> &'a [u32] {
        if !lt.valid {
            return &self.all;
        }
        let k = encode_key(left_key.call(&lt.frame), left_key_ty, float_keys);
        let t = &self.tables[partition_of(k, self.partitions)];
        let bucket = match t.ids.get(&k) {
            Some(&b) => {
                &t.items[t.offsets[b as usize] as usize..t.offsets[b as usize + 1] as usize]
            }
            None => &[],
        };
        if self.loose.is_empty() {
            return bucket;
        }
        sorted_union(bucket.iter().copied(), &self.loose, scratch)
    }

    /// Candidate build rows for one theta probe, ascending like
    /// [`JoinBuild::hash_candidates`]. Invalid probe frames and band-less
    /// joins run the block-nested loop over every row; band probes narrow
    /// to the sorted key range plus the unindexed stragglers, ordered in
    /// the probe's `scratch` list.
    pub(super) fn theta_candidates<'a>(
        &'a self,
        lt: &Tuple,
        band: Option<&Band>,
        scratch: &'a mut Vec<u32>,
    ) -> &'a [u32] {
        let (Some(band), Some(index), true) = (band, &self.index, lt.valid) else {
            return &self.all;
        };
        let lk = encode_key(
            band.left_key.call(&lt.frame),
            band.left_key_ty,
            band.float_keys,
        );
        // NaN probe keys satisfy no IEEE range; only the unindexed build
        // rows (whose comparison runs through the full predicate) remain.
        let range = match band.float_keys && f64::from_bits(lk as u64).is_nan() {
            true => &[],
            false => index.range(band, lk),
        };
        sorted_union(range.iter().map(|&(_, i)| i), &index.unindexed, scratch)
    }
}

/// `a ∪ b` in ascending build order, in a probe's scratch list.
fn sorted_union<'a>(a: impl Iterator<Item = u32>, b: &[u32], out: &'a mut Vec<u32>) -> &'a [u32] {
    out.clear();
    out.extend(a);
    out.extend_from_slice(b);
    out.sort_unstable();
    out
}

/// The sorted key index a band theta join probes: valid build rows keyed
/// by their compiled band key, plus the rows the index cannot order
/// (invalid frames, NaN keys) which every probe must still check pairwise.
pub(super) struct BandIndex {
    /// `(key bits, build row)`, sorted by key then row.
    sorted: Vec<(i64, u32)>,
    /// Build-order rows outside the sorted run.
    unindexed: Vec<u32>,
}

impl BandIndex {
    fn build(band: &Band, rows: &BuildRows, keys: &[i64]) -> BandIndex {
        let mut sorted = Vec::with_capacity(rows.len());
        let mut unindexed = Vec::new();
        for (i, &k) in keys.iter().enumerate() {
            // NaN compares false under every IEEE ordering; keep such keys
            // out of the sorted run (they would break binary search) and
            // let the pairwise predicate reject them.
            if !rows.is_valid(i) || band.float_keys && f64::from_bits(k as u64).is_nan() {
                unindexed.push(i as u32);
            } else {
                sorted.push((k, i as u32));
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
    fn range(&self, band: &Band, lk: i64) -> &[(i64, u32)] {
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

/// Canonical hash bits for a join key. With `float_keys`, integer keys
/// promote into the float domain so `p.id = g.fid` hashes consistently
/// across the numeric tower (bit equality on floats matches the
/// interpreter's total-order equality).
pub(super) fn encode_key(raw: i64, ty: SlotType, float_keys: bool) -> i64 {
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
