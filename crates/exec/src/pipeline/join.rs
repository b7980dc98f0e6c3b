//! Join build sides — the pipeline breakers: the right side's owned slot
//! columns, the CSR hash buckets under an open-addressing id table, and
//! the sorted band index.

use std::cmp::Ordering;
use vida_jit::SlotType;
use vida_lang::BinOp;

/// The scanned right side of one join, column by column: one `i64` column
/// per frame slot of the right source, each row's validity (did
/// every slot encode?), each row's source row (its provenance), and —
/// while the index is built — the canonical key of every row the join has
/// a key kernel for. Morsel chunks append in morsel order, so build row
/// `i` is the `i`-th survivor of the right scan at every worker count.
pub(super) struct BuildCols {
    /// `(frame slot, column)`, one per slot of the right source.
    cols: Vec<(usize, Vec<i64>)>,
    valid: Vec<bool>,
    rows: Vec<u32>,
    keys: Vec<i64>,
}

impl BuildCols {
    /// No rows yet, with a column for each of `slots` and room for `rows`
    /// rows.
    pub(super) fn new(slots: impl Iterator<Item = usize>, rows: usize) -> Self {
        BuildCols {
            cols: slots.map(|s| (s, Vec::with_capacity(rows))).collect(),
            valid: Vec::with_capacity(rows),
            rows: Vec::with_capacity(rows),
            keys: Vec::with_capacity(rows),
        }
    }

    pub(super) fn len(&self) -> usize {
        self.rows.len()
    }

    /// Append the rows `kept` (ascending) of one scan chunk that starts at
    /// source row `base`, column by column: slot `s` reads `chunk[s]` (the
    /// chunk's slot vectors, indexed by frame slot) and the validity reads
    /// `valid`. `keys` holds one build key per kept row, or nothing when
    /// the join has no key kernel. Row ids fit `u32`: the build scan checks
    /// the source size first.
    pub(super) fn extend(
        &mut self,
        chunk: &[Vec<i64>],
        valid: &[bool],
        base: usize,
        kept: &[u32],
        keys: &[i64],
    ) {
        for (slot, col) in &mut self.cols {
            let from = &chunk[*slot];
            col.extend(kept.iter().map(|&r| from[r as usize]));
        }
        self.valid.extend(kept.iter().map(|&r| valid[r as usize]));
        self.rows
            .extend(kept.iter().map(|&r| (base + r as usize) as u32));
        self.keys.extend_from_slice(keys);
    }

    /// Append the next morsel's rows (taking them whole while there are
    /// none yet).
    pub(super) fn append(&mut self, chunk: BuildCols) {
        if self.rows.is_empty() {
            *self = chunk;
            return;
        }
        for ((_, col), (_, more)) in self.cols.iter_mut().zip(chunk.cols) {
            col.extend(more);
        }
        self.valid.extend(chunk.valid);
        self.rows.extend(chunk.rows);
        self.keys.extend(chunk.keys);
    }
}

/// Materialized build side of one join — the pipeline breaker the chunk
/// pipeline still pays, constructed once before the spine runs and shared
/// (read-only) by every probe morsel.
pub(super) struct JoinBuild {
    rows: BuildCols,
    /// Hash strategy: one CSR bucket table over the valid rows.
    table: Buckets,
    /// The invalid build rows, in build order, which every probe pairs
    /// with as rows that take the interpreter.
    loose: Vec<u32>,
    /// Band strategy: the sorted key index.
    pub(super) index: Option<BandIndex>,
    /// `0..n`: the candidates of block-nested-loop probes and of input
    /// rows that could not encode, built once and borrowed by every probe.
    all: Vec<u32>,
}

/// Hash buckets in CSR form: bucket `b = ids.get(key)` holds the build
/// rows `items[offsets[b]..offsets[b + 1]]`, ascending. Bucket 0 is the
/// empty bucket every absent key maps to, and `items` ends in one padding
/// entry, so `items[offsets[b]]` is in bounds for every bucket.
#[derive(Default)]
struct Buckets {
    ids: IdTable,
    offsets: Vec<u32>,
    items: Vec<u32>,
}

/// Key bits → bucket id, by open addressing: linear probing from a
/// multiplicative (Fibonacci) hash of the key bits over 4-byte slots, so
/// the table of a build of tens of thousands of rows stays in cache. The
/// table is at most two-thirds full, so every probe ends at a free slot.
struct IdTable {
    /// The bucket id in each slot, 0 in a free slot.
    slots: Vec<u32>,
    /// `keys[id]` is bucket `id`'s key bits (`keys[0]` stands in for the
    /// empty bucket and matches nothing: its slot id is 0).
    keys: Vec<i64>,
    /// `64 - log2(slots.len())`: the hash keeps the product's top bits.
    shift: u32,
}

impl Default for IdTable {
    fn default() -> Self {
        IdTable::with_capacity(0)
    }
}

impl IdTable {
    /// Room for `n` keys.
    fn with_capacity(n: usize) -> Self {
        let len = (n + n / 2 + 1).next_power_of_two().max(2);
        IdTable {
            slots: vec![0; len],
            keys: vec![0],
            shift: 64 - len.trailing_zeros(),
        }
    }

    #[inline]
    fn home(&self, key: i64) -> usize {
        let x = key as u64;
        ((x ^ (x >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The bucket id of `key`; a new key gets the next id.
    fn get_or_insert(&mut self, key: i64) -> u32 {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            match self.slots[i] {
                0 => {
                    let id = self.keys.len() as u32;
                    self.keys.push(key);
                    self.slots[i] = id;
                    return id;
                }
                id if self.keys[id as usize] == key => return id,
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// The bucket id of every key of `keys` into `ids` (0 for an absent
    /// key), a probe step at a time over the keys still unresolved
    /// (`pending`, with each one's next slot in `at`). A step compacts the
    /// unresolved keys without branching on the outcome, so whether a key
    /// is present — a coin flip in a selective join — costs no branch
    /// miss, where a one-key probe loop pays one.
    fn get_batch(
        &self,
        keys: &[i64],
        ids: &mut Vec<u32>,
        pending: &mut Vec<u32>,
        at: &mut Vec<usize>,
    ) {
        let mask = self.slots.len() - 1;
        ids.clear();
        ids.resize(keys.len(), 0);
        at.clear();
        at.extend(keys.iter().map(|&k| self.home(k)));
        pending.clear();
        pending.extend(0..keys.len() as u32);
        while !pending.is_empty() {
            let mut kept = 0;
            for j in 0..pending.len() {
                let i = pending[j] as usize;
                let id = self.slots[at[i]];
                let hit = self.keys[id as usize] == keys[i];
                ids[i] = id * hit as u32;
                at[i] = (at[i] + 1) & mask;
                pending[kept] = i as u32;
                kept += (id != 0 && !hit) as usize;
            }
            pending.truncate(kept);
        }
    }
}

impl JoinBuild {
    /// Hash-join build, as one counting sort on the coordinator: count
    /// each key's valid rows, prefix-sum the counts into CSR offsets, then
    /// scatter the rows — both passes in build order, so every bucket
    /// lists its rows ascending (the right scan's order) and no bucket
    /// owns a `Vec`. Invalid rows go to `loose`, also in build order.
    pub(super) fn hash(mut rows: BuildCols) -> Self {
        // The count pass overwrites each valid row's key with its bucket
        // id, so the scatter pass probes no table.
        let mut keys = std::mem::take(&mut rows.keys);
        let mut ids = IdTable::with_capacity(rows.len());
        // `counts[0]` is the empty bucket's.
        let (mut counts, mut loose) = (vec![0u32], Vec::new());
        for (i, key) in keys.iter_mut().enumerate() {
            if !rows.valid[i] {
                loose.push(i as u32);
                continue;
            }
            let id = ids.get_or_insert(*key);
            match counts.get_mut(id as usize) {
                Some(c) => *c += 1,
                None => counts.push(1),
            }
            *key = id as i64;
        }
        let mut offsets = Vec::with_capacity(counts.len() + 1);
        offsets.push(0);
        for c in counts {
            offsets.push(offsets[offsets.len() - 1] + c);
        }
        let mut cursor = offsets.clone();
        let mut items = vec![0; rows.len() - loose.len() + 1];
        for (i, &id) in keys.iter().enumerate().filter(|&(i, _)| rows.valid[i]) {
            let at = &mut cursor[id as usize];
            items[*at as usize] = i as u32;
            *at += 1;
        }
        JoinBuild {
            table: Buckets {
                ids,
                offsets,
                items,
            },
            loose,
            ..JoinBuild::over(rows)
        }
    }

    /// Theta-join build: the rows, the invalid ones among them (loose),
    /// and (for band joins, `band` being the comparison and whether keys
    /// compare as floats) the sorted key index over the others.
    pub(super) fn theta(mut rows: BuildCols, band: Option<(BinOp, bool)>) -> Self {
        let keys = std::mem::take(&mut rows.keys);
        let index =
            band.map(|(op, float_keys)| BandIndex::build(op, float_keys, &keys, &rows.valid));
        let loose = invalid_rows(&rows.valid);
        JoinBuild {
            index,
            loose,
            ..JoinBuild::over(rows)
        }
    }

    /// A build over `rows` with no index: the block-nested loop's.
    fn over(rows: BuildCols) -> Self {
        JoinBuild {
            all: (0..rows.len() as u32).collect(),
            rows,
            table: Buckets::default(),
            loose: Vec::new(),
            index: None,
        }
    }

    /// The build columns, as `(frame slot, column)`.
    pub(super) fn columns(&self) -> &[(usize, Vec<i64>)] {
        &self.rows.cols
    }

    /// Every build row, ascending.
    pub(super) fn all(&self) -> &[u32] {
        &self.all
    }

    /// The invalid build rows, ascending.
    pub(super) fn loose(&self) -> &[u32] {
        &self.loose
    }

    /// The bucket id of every probe key of `keys` into `ids` (see
    /// [`JoinBuild::bucket_span`]); `pending` and `at` are scratch.
    pub(super) fn lookup_batch(
        &self,
        keys: &[i64],
        ids: &mut Vec<u32>,
        pending: &mut Vec<u32>,
        at: &mut Vec<usize>,
    ) {
        self.table.ids.get_batch(keys, ids, pending, at)
    }

    /// Where bucket `b`'s rows start in the bucket items
    /// ([`JoinBuild::item`]), and how many there are.
    #[inline]
    pub(super) fn bucket_span(&self, b: u32) -> (usize, usize) {
        let (b, offsets) = (b as usize, &self.table.offsets);
        (offsets[b] as usize, (offsets[b + 1] - offsets[b]) as usize)
    }

    /// The bucket item at `at`, which may be one past the last bucket's
    /// end: that reads the padding entry.
    #[inline]
    pub(super) fn item(&self, at: usize) -> u32 {
        self.table.items[at]
    }

    /// The `n` bucket items from `at`: a bucket's rows, ascending.
    #[inline]
    pub(super) fn items(&self, at: usize, n: usize) -> &[u32] {
        &self.table.items[at..at + n]
    }

    /// The source row of build row `b`.
    pub(super) fn source_row(&self, b: u32) -> usize {
        self.rows.rows[b as usize] as usize
    }
}

/// Visit `a ∪ b` (each ascending, disjoint) in ascending order, telling
/// `f` whether each row came from `b`.
#[inline]
pub(super) fn merge_ascending(a: &[u32], b: &[u32], mut f: impl FnMut(u32, bool)) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] < b[j] {
            f(a[i], false);
            i += 1;
        } else {
            f(b[j], true);
            j += 1;
        }
    }
    a[i..].iter().for_each(|&x| f(x, false));
    b[j..].iter().for_each(|&x| f(x, true));
}

/// The sorted key index a band theta join probes: the valid build rows
/// keyed by their compiled band key (the invalid ones are loose, and every
/// probe checks them pairwise).
pub(super) struct BandIndex {
    /// Key bits, ascending (float keys in IEEE total order, the order the
    /// calculus and the comparison kernels use).
    keys: Vec<i64>,
    /// `rows[i]` is the build row of `keys[i]`; equal keys keep build
    /// order.
    rows: Vec<u32>,
    /// Whether `rows` ascends, i.e. key order is build order: then every
    /// range lists its rows in build order as it stands.
    ordered: bool,
    /// `left_key op right_key`: `Lt`, `Le`, `Gt` or `Ge`.
    op: BinOp,
    float_keys: bool,
}

impl BandIndex {
    /// Index the key `keys[i]` of every valid build row `i`.
    fn build(op: BinOp, float_keys: bool, keys: &[i64], valid: &[bool]) -> BandIndex {
        let mut sorted: Vec<(i64, u32)> = keys
            .iter()
            .enumerate()
            .filter(|&(i, _)| valid[i])
            .map(|(i, &k)| (k, i as u32))
            .collect();
        if float_keys {
            sorted.sort_unstable_by(|(a, ai), (b, bi)| {
                f64::from_bits(*a as u64)
                    .total_cmp(&f64::from_bits(*b as u64))
                    .then(ai.cmp(bi))
            });
        } else {
            sorted.sort_unstable();
        }
        let (keys, rows): (Vec<i64>, Vec<u32>) = sorted.into_iter().unzip();
        BandIndex {
            ordered: rows.windows(2).all(|w| w[0] < w[1]),
            keys,
            rows,
            op,
            float_keys,
        }
    }

    /// The build rows satisfying `left_key op right_key` for the probe key
    /// `lk`, in key order: the half-open range binary search finds.
    pub(super) fn range(&self, lk: i64) -> &[u32] {
        let keys = &self.keys;
        let lt = || keys.partition_point(|&k| key_lt(k, lk, self.float_keys));
        let le = || keys.partition_point(|&k| !key_lt(lk, k, self.float_keys));
        match self.op {
            // left < right: the strict suffix of keys above lk.
            BinOp::Lt => &self.rows[le()..],
            // left <= right: keys at or above lk.
            BinOp::Le => &self.rows[lt()..],
            // left > right: the strict prefix of keys below lk.
            BinOp::Gt => &self.rows[..lt()],
            // left >= right: keys at or below lk.
            BinOp::Ge => &self.rows[..le()],
            _ => unreachable!("band ops are range comparisons"),
        }
    }

    /// The rows of `range` (from [`BandIndex::range`]) in build order:
    /// the range itself when key order is build order, else sorted into
    /// `scratch`.
    pub(super) fn ascending<'a>(&self, range: &'a [u32], scratch: &'a mut Vec<u32>) -> &'a [u32] {
        if self.ordered {
            return range;
        }
        scratch.clear();
        scratch.extend_from_slice(range);
        scratch.sort_unstable();
        scratch
    }
}

/// Strict `a < b` over canonical key bits (floats in IEEE total order).
fn key_lt(a: i64, b: i64, float_keys: bool) -> bool {
    if float_keys {
        f64::from_bits(a as u64).total_cmp(&f64::from_bits(b as u64)) == Ordering::Less
    } else {
        a < b
    }
}

/// The rows whose `valid` is false, ascending.
fn invalid_rows(valid: &[bool]) -> Vec<u32> {
    (0..valid.len() as u32)
        .filter(|&i| !valid[i as usize])
        .collect()
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
    fn id_table_maps_each_key_to_its_bucket() {
        use super::IdTable;
        // Distinct keys with edge bits (0, the empty bucket's stand-in key;
        // i64::MIN; float bits), filling the table to two-thirds.
        let mut keys: Vec<i64> = vec![0, -1, i64::MIN, i64::MAX, 1.5f64.to_bits() as i64];
        keys.extend((1..80).map(|i| i * 1024));
        keys.extend((0..85).map(|i| i * 7 - 300));
        let mut table = IdTable::with_capacity(keys.len());
        assert_eq!((keys.len(), table.slots.len()), (169, 256));
        let ids: Vec<u32> = keys.iter().map(|&k| table.get_or_insert(k)).collect();
        let again: Vec<u32> = keys.iter().map(|&k| table.get_or_insert(k)).collect();
        assert_eq!(ids, again, "a key keeps its bucket");
        assert_eq!(ids, (1..=keys.len() as u32).collect::<Vec<_>>());
        let absent = [
            -1000,
            5000,
            1024 * 81,
            i64::MIN + 1,
            2.5f64.to_bits() as i64,
        ];
        let probes: Vec<i64> = keys.iter().chain(&absent).copied().collect();
        let (mut batch, mut pending, mut at) = (Vec::new(), Vec::new(), Vec::new());
        table.get_batch(&probes, &mut batch, &mut pending, &mut at);
        assert_eq!(&batch[..keys.len()], &ids[..]);
        assert!(
            batch[keys.len()..].iter().all(|&b| b == 0),
            "absent keys: {batch:?}"
        );

        // An empty table knows no key, 0 included.
        let empty = IdTable::default();
        empty.get_batch(&[0, 5], &mut batch, &mut pending, &mut at);
        assert_eq!(batch, [0, 0]);
    }

    #[test]
    fn band_ranges_list_their_rows_in_build_order() {
        use super::BandIndex;
        use vida_lang::BinOp;
        // Build rows 2 and 5 are invalid (loose) in every case.
        let loose = [2u32, 5];
        let valid: Vec<bool> = (0..9).map(|i| !loose.contains(&i)).collect();
        let cases: [(&str, Vec<i64>, bool); 4] = [
            ("sorted", (0..9).collect(), true),
            ("shuffled", vec![4, 0, 7, 2, 8, 1, 6, 3, 5], false),
            ("duplicate", vec![1, 1, 3, 3, 3, 5, 5, 7, 7], true),
            ("shuffled duplicate", vec![3, 1, 3, 5, 1, 3, 7, 5, 1], false),
        ];
        for (name, keys, ordered) in cases {
            for op in [BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge] {
                let index = BandIndex::build(op, false, &keys, &valid);
                assert_eq!(index.ordered, ordered, "{name}");
                for lk in -1..10 {
                    let holds = |k: i64| match op {
                        BinOp::Lt => lk < k,
                        BinOp::Le => lk <= k,
                        BinOp::Gt => lk > k,
                        _ => lk >= k,
                    };
                    let expected: Vec<u32> = (0..keys.len() as u32)
                        .filter(|i| !loose.contains(i) && holds(keys[*i as usize]))
                        .collect();
                    let mut scratch = Vec::new();
                    let range = index.range(lk);
                    let rows = index.ascending(range, &mut scratch);
                    assert_eq!(rows, expected, "{name} {op:?} {lk}");
                }
            }
        }

        // Float keys order as the calculus does: NaN above +inf, -NaN
        // below -inf, -0.0 below 0.0.
        let floats = [
            f64::NAN,
            0.0,
            -0.0,
            f64::NEG_INFINITY,
            -f64::NAN,
            2.5,
            f64::INFINITY,
        ];
        let keys: Vec<i64> = floats.iter().map(|f| f.to_bits() as i64).collect();
        let index = BandIndex::build(BinOp::Lt, true, &keys, &[true; 7]);
        for (i, lk) in floats.iter().enumerate() {
            let mut scratch = Vec::new();
            let rows = index.ascending(index.range(keys[i]), &mut scratch);
            let expected: Vec<u32> = (0..floats.len() as u32)
                .filter(|&j| lk.total_cmp(&floats[j as usize]).is_lt())
                .collect();
            assert_eq!(rows, expected, "{lk} < right");
        }
    }

    #[test]
    fn merge_ascending_interleaves_and_tags_the_second_list() {
        let mut out = Vec::new();
        super::merge_ascending(&[1, 4, 5, 9], &[0, 2, 7, 10, 11], |i, b| out.push((i, b)));
        let expected = [
            (0, true),
            (1, false),
            (2, true),
            (4, false),
            (5, false),
            (7, true),
            (9, false),
            (10, true),
            (11, true),
        ];
        assert_eq!(out, expected);
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
