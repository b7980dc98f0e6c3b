//! Block summaries of `Values` replicas: per [`ZONE_ROWS`]-row block, the
//! min and max of its `Int` cells and whether it holds a cell that is
//! neither `Int` nor `Null` (small materialized aggregates, Moerkotte,
//! VLDB 1998). A scan tests its leading `path op int-literal` selects
//! against the blocks a chunk overlaps and skips the chunk when one of
//! them holds on no row (see `vida-exec`'s pipeline docs for why that is
//! exact).
//!
//! Blocks are absolute: block `b` covers rows `b * ZONE_ROWS ..`, so an
//! append recomputes the last partial block and adds the new ones.

use vida_types::Value;

/// Rows per summarized block.
pub const ZONE_ROWS: usize = 1024;

/// The block summary of one `Values` replica. Built by the cache when it
/// stores the replica, in the pass that sums its footprint, for a column
/// with a block that could skip: one of `Int` and `Null` cells, an `Int`
/// among them.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Zones {
    /// Per block: min and max of its `Int` cells; `min > max` when it has
    /// none (every cell null) or is mixed.
    bounds: Vec<(i64, i64)>,
    /// Per block: it holds a cell that is neither `Int` nor `Null`.
    mixed: Vec<bool>,
}

impl Zones {
    /// Bytes billed per block: two `i64` bounds and one flag.
    pub const BLOCK_BYTES: usize = 17;

    /// The footprint of `values` as a `Values` replica — the cells, the
    /// vector and the summary — and the summary, `None` for a column
    /// without a block that could skip. One pass over the cells, a block
    /// at a time.
    pub fn summarize(values: &[Value]) -> (usize, Option<Zones>) {
        let mut zones = Zones::default();
        let mut bytes = 24;
        for block in values.chunks(ZONE_ROWS) {
            bytes += zones.push(block);
        }
        match zones.has_ints() {
            true => (bytes + zones.bytes(), Some(zones)),
            false => (bytes, None),
        }
    }

    /// Bring `zones` up to date after `values` kept its first `kept` rows
    /// and took new ones after them: the block holding row `kept` is
    /// recomputed and later blocks are added. A column that had no summary
    /// gets one when the new rows hold an `Int`, its older blocks marked
    /// mixed, so they never skip. Returns the summary's byte change.
    pub fn extend(zones: &mut Option<Zones>, values: &[Value], kept: usize) -> isize {
        let before = zones.as_ref().map_or(0, Zones::bytes) as isize;
        let first = kept / ZONE_ROWS;
        let mut tail = Zones::default();
        for block in values[first * ZONE_ROWS..].chunks(ZONE_ROWS) {
            tail.push(block);
        }
        match zones {
            Some(z) => {
                z.bounds.truncate(first);
                z.mixed.truncate(first);
                z.bounds.extend(tail.bounds);
                z.mixed.extend(tail.mixed);
            }
            None if tail.has_ints() => {
                let mut z = Zones::opaque(first);
                z.bounds.extend(tail.bounds);
                z.mixed.extend(tail.mixed);
                *zones = Some(z);
            }
            None => {}
        }
        zones.as_ref().map_or(0, Zones::bytes) as isize - before
    }

    /// Summarize one block of at most [`ZONE_ROWS`] cells; returns the
    /// cells' footprint, summed in the same pass. A mixed block never
    /// skips, so its bounds are left empty once its first mixed cell shows.
    fn push(&mut self, block: &[Value]) -> usize {
        let (mut lo, mut hi, mut bytes) = (i64::MAX, i64::MIN, 0);
        for (i, v) in block.iter().enumerate() {
            bytes += v.approx_bytes();
            match v {
                Value::Int(x) => (lo, hi) = (lo.min(*x), hi.max(*x)),
                Value::Null => {}
                _ => {
                    self.bounds.push((i64::MAX, i64::MIN));
                    self.mixed.push(true);
                    let rest: usize = block[i + 1..].iter().map(Value::approx_bytes).sum();
                    return bytes + rest;
                }
            }
        }
        self.bounds.push((lo, hi));
        self.mixed.push(false);
        bytes
    }

    fn has_ints(&self) -> bool {
        self.bounds.iter().any(|(lo, hi)| lo <= hi)
    }

    /// `n` blocks, each marked mixed.
    fn opaque(n: usize) -> Zones {
        Zones {
            bounds: vec![(i64::MAX, i64::MIN); n],
            mixed: vec![true; n],
        }
    }

    /// Summarized blocks.
    pub fn blocks(&self) -> usize {
        self.bounds.len()
    }

    /// Bytes the summary is billed for.
    pub fn bytes(&self) -> usize {
        self.blocks() * Self::BLOCK_BYTES
    }

    /// Block `b` holds a cell that is neither `Int` nor `Null`.
    pub fn mixed(&self, b: usize) -> bool {
        self.mixed[b]
    }

    /// No cell of block `b`, which holds only `Int` and `Null` cells, is
    /// an `Int` in `lo..=hi` (empty when `lo > hi`), so a conjunct that
    /// holds exactly on those ints is false on every row: an ordered
    /// comparison with `null` is false, and so is `null = lit`.
    pub fn refutes(&self, b: usize, lo: i64, hi: i64) -> bool {
        let (min, max) = self.bounds[b];
        min > max || lo > hi || max < lo || min > hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(range: std::ops::Range<i64>) -> Vec<Value> {
        range.map(Value::Int).collect()
    }

    #[test]
    fn summary_bounds_each_block() {
        let mut vals = ints(0..2500);
        vals[1500] = Value::Null;
        vals[2100] = Value::str("x");
        let (bytes, zones) = Zones::summarize(&vals);
        let z = zones.expect("an int column");
        assert_eq!(z.blocks(), 3);
        // Block 2's string cell marks it mixed, which leaves its bounds empty.
        assert_eq!(
            z.bounds,
            vec![(0, 1023), (1024, 2047), (i64::MAX, i64::MIN)]
        );
        assert_eq!(z.mixed, vec![false, false, true]);
        let cells: usize = vals.iter().map(Value::approx_bytes).sum();
        assert_eq!(bytes, cells + 24 + 3 * Zones::BLOCK_BYTES);
    }

    #[test]
    fn columns_without_ints_get_no_summary() {
        let strs = vec![Value::str("a"), Value::Null];
        assert!(Zones::summarize(&strs).1.is_none());
        assert!(Zones::summarize(&[]).1.is_none());
    }

    #[test]
    fn refutation_at_the_edges() {
        let (_, z) = Zones::summarize(&ints(10..20));
        let z = z.unwrap();
        for (lo, hi, refuted) in [
            (i64::MIN, 9, true),
            (i64::MIN, 10, false),
            (20, i64::MAX, true),
            (19, i64::MAX, false),
            (9, 9, true),
            (20, 20, true),
            (15, 15, false),
            (5, 4, true),
        ] {
            assert_eq!(z.refutes(0, lo, hi), refuted, "{lo}..={hi}");
        }
        // An all-null block refutes every range.
        let mut vals = ints(0..1024);
        vals.extend(std::iter::repeat(Value::Null).take(10));
        let z = Zones::summarize(&vals).1.unwrap();
        assert!(z.refutes(1, 0, 0) && !z.mixed(1));
    }

    #[test]
    fn extend_recomputes_the_partial_block() {
        let mut vals = ints(0..1500);
        let mut z = Zones::summarize(&vals).1;
        vals.truncate(1400);
        vals.extend(ints(-5..700));
        let delta = Zones::extend(&mut z, &vals, 1400);
        assert_eq!(z, Zones::summarize(&vals).1);
        assert_eq!(delta, Zones::BLOCK_BYTES as isize);
    }

    #[test]
    fn extend_gives_an_int_free_column_a_summary() {
        let mut vals: Vec<Value> = (0..1100).map(|_| Value::str("s")).collect();
        let mut z = Zones::summarize(&vals).1;
        assert!(z.is_none());
        vals.extend(ints(0..2000));
        Zones::extend(&mut z, &vals, 1100);
        let z = z.unwrap();
        assert_eq!(z.blocks(), 4);
        assert!(z.mixed(0) && z.mixed(1) && !z.mixed(2));
        assert_eq!(z.bounds[2..], [(948, 1971), (1972, 1999)]);
    }
}
