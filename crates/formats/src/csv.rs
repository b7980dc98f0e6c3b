//! CSV input plugin with NoDB-style positional maps (ViDa §2.1, §5; NoDB \[3\]).
//!
//! Text formats make per-attribute access cost *variable*: reading attribute
//! `k` of a row means tokenizing `k` delimiters from the row start. For wide
//! files (the paper's Genetics table has 17 832 attributes) that dominates
//! query time. The **positional map** remembers the byte offset of each
//! previously-located attribute, so later reads of the same attribute seek
//! directly, and reads of nearby attributes tokenize only the short distance
//! from the nearest known position.
//!
//! The map is populated as a side effect of query execution — exactly the
//! adaptive, query-driven behaviour the paper advocates — never as an
//! up-front pass.

use crate::plugin::FileIndex;
use crate::stats::AccessStats;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};
use vida_io::{bom_len, CsvTokenizer, MapMode, RawFile};
use vida_types::{Result, Schema, Type, Value, VidaError};

/// Sentinel for "offset unknown" inside positional map columns.
const UNKNOWN: u32 = u32::MAX;

/// Lock-free positional map: one lazily-allocated offset array per column.
///
/// The original design kept a `RwLock<BTreeMap<col, Vec<u32>>>`, which put a
/// lock acquisition and a tree walk on **every** field read — enough that a
/// populated map lost to re-tokenizing on small files, and scan workers
/// would have serialized on the lock. Offsets are now plain atomics sharded
/// per column: reads are two relaxed loads, writes are one relaxed store,
/// and concurrent workers race only benignly (a field's offset is a pure
/// function of the bytes, so double-stores write the same value).
struct PosMap {
    cols: Vec<OnceLock<Box<[AtomicU32]>>>,
}

impl PosMap {
    fn new(num_cols: usize) -> Self {
        PosMap {
            cols: (0..num_cols).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Known offset of `(row, col)`, if any.
    #[inline]
    fn get(&self, row: usize, col: usize) -> Option<u32> {
        let arr = self.cols.get(col)?.get()?;
        let off = arr[row].load(Ordering::Relaxed);
        (off != UNKNOWN).then_some(off)
    }

    /// Record the offset of `(row, col)`, allocating the column on first
    /// touch.
    fn set(&self, row: usize, col: usize, off: u32, num_rows: usize) {
        if let Some(slot) = self.cols.get(col) {
            let arr = slot.get_or_init(|| (0..num_rows).map(|_| AtomicU32::new(UNKNOWN)).collect());
            arr[row].store(off, Ordering::Relaxed);
        }
    }

    /// Number of columns with at least one recorded offset.
    fn tracked_columns(&self) -> usize {
        self.cols.iter().filter(|c| c.get().is_some()).count()
    }

    /// Carry the known offsets of the first `prefix_rows` rows into a fresh
    /// map sized for `new_rows` rows — the incremental-extension path:
    /// offsets are absolute byte positions into the file, and the first
    /// `prefix_rows` rows occupy unchanged bytes, so the learned positions
    /// stay exact. Appended rows start unknown.
    fn extended(&self, prefix_rows: usize, new_rows: usize) -> PosMap {
        let map = PosMap::new(self.cols.len());
        for (c, slot) in self.cols.iter().enumerate() {
            if let Some(arr) = slot.get() {
                let fresh: Box<[AtomicU32]> =
                    (0..new_rows).map(|_| AtomicU32::new(UNKNOWN)).collect();
                for r in 0..prefix_rows.min(arr.len()).min(new_rows) {
                    fresh[r].store(arr[r].load(Ordering::Relaxed), Ordering::Relaxed);
                }
                let _ = map.cols[c].set(fresh);
            }
        }
        map
    }
}

/// A CSV file opened for in-situ querying.
pub struct CsvFile {
    name: String,
    /// Raw bytes with their fingerprint and origin, memory-mapped when
    /// opened from disk (scan workers then share one set of pages) with an
    /// owned-buffer fallback.
    raw: RawFile,
    /// The shared quote-aware tokenizer: record/field structure has exactly
    /// one implementation (`vida_io::CsvTokenizer`), used by the row index
    /// build, field location, and schema inference alike.
    tok: CsvTokenizer,
    schema: Schema,
    /// Byte offset of the start of each data row (header excluded), plus a
    /// final entry at end-of-data, so row `i` spans `rows[i]..rows[i+1]-1`.
    rows: Vec<u32>,
    /// Per-column, per-row byte offsets of each column's first byte.
    posmap: PosMap,
    header: bool,
    stats: Arc<AccessStats>,
}

impl CsvFile {
    /// Open a CSV file from disk, memory-mapping it when possible.
    pub fn open(
        name: impl Into<String>,
        path: &Path,
        delimiter: u8,
        header: bool,
        schema: Schema,
    ) -> Result<Self> {
        Self::open_with(name, path, delimiter, header, schema, MapMode::Auto)
    }

    /// [`CsvFile::open`] with an explicit backing policy ([`MapMode::Never`]
    /// is the owned-buffer escape hatch).
    pub fn open_with(
        name: impl Into<String>,
        path: &Path,
        delimiter: u8,
        header: bool,
        schema: Schema,
        mode: MapMode,
    ) -> Result<Self> {
        let raw = RawFile::open(path, mode)?;
        Self::from_raw(name.into(), raw, delimiter, header, schema)
    }

    /// Open from an in-memory byte buffer (tests, generated workloads).
    pub fn from_bytes(
        name: impl Into<String>,
        data: Vec<u8>,
        delimiter: u8,
        header: bool,
        schema: Schema,
    ) -> Result<Self> {
        Self::from_raw(
            name.into(),
            RawFile::from_vec(data),
            delimiter,
            header,
            schema,
        )
    }

    fn from_raw(
        name: String,
        data: RawFile,
        delimiter: u8,
        header: bool,
        schema: Schema,
    ) -> Result<Self> {
        let tok = CsvTokenizer::new(delimiter);
        let mut rows = Vec::new();
        // A UTF-8 BOM is writer metadata, not data: start scanning past it
        // so it never glues onto the first header name or first field.
        let mut pos = bom_len(&data);
        // Skip the header line if present. Record scanning is quote-aware
        // (RFC 4180): a newline inside a quoted field is field content, not
        // a record boundary — so rows with embedded newlines stay one
        // retrieval unit and `unit_byte_span` morsel boundaries never split
        // a record.
        if header {
            pos = tok.record_end(&data, pos);
        }
        // One bulk scan builds the whole index: each record end (except
        // end-of-data) is the next record's start.
        if pos < data.len() {
            rows.push(pos as u32);
            tok.scan_record_ends(&data, pos, &mut |end| {
                if end < data.len() {
                    rows.push(end as u32);
                }
            });
        }
        rows.push(data.len() as u32);
        let posmap = PosMap::new(schema.len());
        Ok(CsvFile {
            name,
            raw: data,
            tok,
            schema,
            rows,
            posmap,
            header,
            stats: Arc::new(AccessStats::new()),
        })
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn num_rows(&self) -> usize {
        self.rows.len() - 1
    }

    pub fn stats(&self) -> Arc<AccessStats> {
        Arc::clone(&self.stats)
    }

    /// Approximate raw size in bytes (the whole file).
    pub fn raw_bytes(&self) -> usize {
        self.raw.len()
    }

    /// Whether the raw bytes are backed by a shared file mapping (vs an
    /// owned copy).
    pub fn is_mapped(&self) -> bool {
        self.raw.is_mapped()
    }

    /// Start offsets of every data row plus a final end-of-data entry —
    /// the record-aligned grid morsel dispatchers partition by raw bytes
    /// (row `i` spans `offsets[i]..offsets[i + 1]`).
    pub fn unit_offsets(&self) -> &[u32] {
        &self.rows
    }

    /// Number of distinct columns currently tracked by the positional map.
    pub fn posmap_columns(&self) -> usize {
        self.posmap.tracked_columns()
    }

    /// Byte span of data row `row` (newline-aligned: starts at the first
    /// byte of the row, ends just past its trailing newline).
    pub fn unit_byte_span(&self, row: usize) -> Option<(usize, usize)> {
        if row + 1 >= self.rows.len() {
            return None;
        }
        Some((self.rows[row] as usize, self.rows[row + 1] as usize))
    }

    fn row_span(&self, row: usize) -> Result<(usize, usize)> {
        if row + 1 >= self.rows.len() {
            return Err(VidaError::format(
                &self.name,
                format!("row {row} out of range ({} rows)", self.num_rows()),
            ));
        }
        let start = self.rows[row] as usize;
        let mut end = self.rows[row + 1] as usize;
        // Trim the trailing newline (and CR) of this row.
        while end > start && (self.raw[end - 1] == b'\n' || self.raw[end - 1] == b'\r') {
            end -= 1;
        }
        Ok((start, end))
    }

    /// Locate the byte span of `(row, col)`: `(field_start, field_end)`.
    ///
    /// Consults the positional map for the nearest known column at or before
    /// `col`, tokenizes forward the remaining distance, and records the
    /// found position back into the map.
    fn locate_field(&self, row: usize, col: usize) -> Result<(usize, usize)> {
        let (row_start, row_end) = self.row_span(row)?;

        // Find the nearest tracked column <= col with a known offset. The
        // exact-hit probe is the hot path: two relaxed atomic loads, no
        // lock, no tree walk.
        if let Some(off) = self.posmap.get(row, col) {
            let off = off as usize;
            self.stats.hit();
            self.stats.add_bytes_skipped((off - row_start) as u64);
            let end = self.field_end(off, row_end);
            return Ok((off, end));
        }
        let (mut cur_col, mut cur_off) = (0usize, row_start);
        for c in (0..col).rev() {
            if let Some(off) = self.posmap.get(row, c) {
                cur_col = c;
                cur_off = off as usize;
                break;
            }
        }
        if cur_off != row_start {
            self.stats.partial();
            self.stats.add_bytes_skipped((cur_off - row_start) as u64);
        } else {
            self.stats.miss();
        }

        // Tokenize forward from (cur_col, cur_off) to col — word-at-a-time
        // via the shared tokenizer.
        let off = match self
            .tok
            .skip_fields(&self.raw, cur_off, row_end, col - cur_col)
        {
            Ok(off) => off,
            Err(found) => {
                return Err(VidaError::format(
                    &self.name,
                    format!(
                        "row {row} has only {} columns, wanted {}",
                        cur_col + found + 1,
                        col + 1
                    ),
                ))
            }
        };
        self.stats.add_bytes_parsed((off - cur_off) as u64);

        self.posmap.set(row, col, off as u32, self.num_rows());
        let end = self.field_end(off, row_end);
        Ok((off, end))
    }

    /// End of the field starting at `start` (respects RFC 4180 quoting:
    /// `""` inside a quoted field is an escaped literal quote, not the
    /// closing one).
    fn field_end(&self, start: usize, row_end: usize) -> usize {
        self.tok.field_end(&self.raw, start, row_end)
    }

    /// Byte span of the raw text of `(row, col)`, as the positional map
    /// records it (Figure 4 (d): positions, not values). Locating the span
    /// feeds the positional map exactly like a read.
    pub fn field_byte_span(&self, row: usize, col: usize) -> Result<(usize, usize)> {
        if col >= self.schema.len() {
            return Err(VidaError::format(
                &self.name,
                format!("column {col} out of range ({} columns)", self.schema.len()),
            ));
        }
        self.locate_field(row, col)
    }

    /// Read one field as a typed value.
    pub fn read_field(&self, row: usize, col: usize) -> Result<Value> {
        if col >= self.schema.len() {
            return Err(VidaError::format(
                &self.name,
                format!("column {col} out of range ({} columns)", self.schema.len()),
            ));
        }
        let (start, end) = self.locate_field(row, col)?;
        self.stats.add_bytes_parsed((end - start) as u64);
        self.stats.add_fields_parsed(1);
        let text = &self.raw[start..end];
        parse_field(text, &self.schema.fields()[col].ty, &self.name)
    }

    /// Read several fields of one row (ascending column order recommended).
    pub fn read_fields(&self, row: usize, cols: &[usize]) -> Result<Vec<Value>> {
        cols.iter().map(|&c| self.read_field(row, c)).collect()
    }

    /// Full-row read in schema order.
    pub fn read_row(&self, row: usize) -> Result<Value> {
        let vals = self.read_fields(row, &(0..self.schema.len()).collect::<Vec<_>>())?;
        self.stats.add_units(1);
        Ok(self.schema.record_value(vals))
    }

    /// Sequentially scan projected columns of all rows, invoking `f` per row.
    ///
    /// This is the plugin code path the generated scan operators use; it
    /// tokenizes each row once, left-to-right, touching only the projected
    /// columns, and feeds the positional map as a side effect.
    pub fn scan_project(
        &self,
        cols: &[usize],
        f: impl FnMut(usize, Vec<Value>) -> Result<()>,
    ) -> Result<()> {
        self.scan_project_range(cols, 0..self.num_rows(), f)
    }

    /// [`CsvFile::scan_project`] restricted to a contiguous row range — the
    /// per-morsel scan of parallel execution. Ranges from
    /// `vida_parallel::plan_scan` are newline-aligned byte spans, so
    /// concurrent workers touch disjoint bytes and only share the (atomic)
    /// positional map.
    pub fn scan_project_range(
        &self,
        cols: &[usize],
        rows: Range<usize>,
        mut f: impl FnMut(usize, Vec<Value>) -> Result<()>,
    ) -> Result<()> {
        let mut sorted = cols.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let in_order = sorted == cols;
        for row in rows {
            let vals = self.read_fields(row, &sorted)?;
            // Deliver in caller order; when the projection is already
            // sorted and duplicate-free (the generated-pipeline case) the
            // values pass through without a per-field clone.
            let delivered = if in_order {
                vals
            } else {
                cols.iter()
                    .map(|c| {
                        let idx = sorted.binary_search(c).expect("col present");
                        vals[idx].clone()
                    })
                    .collect()
            };
            self.stats.add_units(1);
            f(row, delivered)?;
        }
        Ok(())
    }
}

impl FileIndex for CsvFile {
    fn raw(&self) -> &RawFile {
        &self.raw
    }

    fn reindex(&self, raw: RawFile) -> Result<Self> {
        let mut file = Self::from_raw(
            self.name.clone(),
            raw,
            self.tok.delimiter(),
            self.header,
            self.schema.clone(),
        )?;
        file.stats = Arc::clone(&self.stats);
        Ok(file)
    }

    /// Re-tokenize only from the start of the last old row: the row index
    /// and the learned positional-map offsets of every earlier row carry
    /// over verbatim. The last old row may have lacked a trailing newline
    /// or carried an unterminated quote, in which case appended bytes
    /// extend *it* rather than starting a new row; rows before it can never
    /// be affected (an unterminated quote always belongs to the final row).
    fn extend(&self, data: RawFile) -> Result<(Self, Option<usize>)> {
        let n = self.num_rows();
        let old_len = self.raw.len();
        let mut rows: Vec<u32>;
        let rescan_from = if n == 0 {
            // No old data rows (empty or header-only file): index from the
            // top, exactly like a cold build.
            rows = Vec::new();
            let mut pos = bom_len(&data);
            if self.header {
                pos = self.tok.record_end(&data, pos);
            }
            pos
        } else {
            rows = self.rows[..n - 1].to_vec();
            self.rows[n - 1] as usize
        };
        if rescan_from < data.len() {
            rows.push(rescan_from as u32);
            self.tok.scan_record_ends(&data, rescan_from, &mut |end| {
                if end < data.len() {
                    rows.push(end as u32);
                }
            });
        }
        rows.push(data.len() as u32);
        let num_rows = rows.len() - 1;
        // The last old row survives intact iff the re-tokenization still
        // ends it exactly at the old end-of-data (i.e. the appended bytes
        // started a fresh row rather than extending it).
        let prefix_units = if n > 0 && rows.get(n) == Some(&(old_len as u32)) {
            n
        } else {
            n.saturating_sub(1)
        };
        let posmap = self.posmap.extended(prefix_units, num_rows);
        let file = CsvFile {
            name: self.name.clone(),
            raw: data,
            tok: self.tok,
            schema: self.schema.clone(),
            rows,
            posmap,
            header: self.header,
            stats: Arc::clone(&self.stats),
        };
        Ok((file, Some(prefix_units)))
    }
}

/// Parse one raw CSV field into a typed [`Value`].
///
/// Empty text parses as `Null`. Quoted strings lose their quotes and
/// unescape doubled quotes (`""` → `"`). Numeric parse failures are format
/// errors (data cleaning, ViDa §7, hooks in here).
pub fn parse_field(text: &[u8], ty: &Type, source: &str) -> Result<Value> {
    let s = std::str::from_utf8(text)
        .map_err(|_| VidaError::format(source, "invalid UTF-8 in field"))?;
    let s = s.trim();
    if s.is_empty() {
        return Ok(Value::Null);
    }
    let unescaped;
    let unquoted = if s.len() >= 2 && s.starts_with('"') && s.ends_with('"') {
        let inner = &s[1..s.len() - 1];
        if inner.contains("\"\"") {
            unescaped = inner.replace("\"\"", "\"");
            unescaped.as_str()
        } else {
            inner
        }
    } else {
        s
    };
    match ty {
        Type::Int => unquoted
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| VidaError::format(source, format!("bad int: {unquoted:?}"))),
        Type::Float => unquoted
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| VidaError::format(source, format!("bad float: {unquoted:?}"))),
        Type::Bool => match unquoted {
            "true" | "1" | "t" => Ok(Value::Bool(true)),
            "false" | "0" | "f" => Ok(Value::Bool(false)),
            _ => Err(VidaError::format(source, format!("bad bool: {unquoted:?}"))),
        },
        Type::Str | Type::Unknown => Ok(Value::Str(unquoted.to_string())),
        other => Err(VidaError::format(
            source,
            format!("CSV cannot hold values of type {other}"),
        )),
    }
}

/// Infer a schema from the first `sample_rows` data rows.
///
/// Types are inferred per column as the narrowest of int → float → bool →
/// string that parses every sampled value; empty samples infer as nullable
/// strings. Column names come from the header row when `header` is true,
/// else `c0..cN`.
pub fn infer_schema(
    data: &[u8],
    delimiter: u8,
    header: bool,
    sample_rows: usize,
) -> Result<Schema> {
    // Record iteration and field splitting share the quote-aware tokenizer
    // with `CsvFile`, so inference sees the same records a scan would —
    // quoted newlines, doubled-quote escapes, and BOM stripping included.
    let tok = CsvTokenizer::new(delimiter);
    let mut records: Vec<&[u8]> = Vec::new();
    let mut pos = bom_len(data);
    while pos < data.len() {
        let end = tok.record_end(data, pos);
        let mut line = &data[pos..end];
        while matches!(line.last(), Some(&b'\n') | Some(&b'\r')) {
            line = &line[..line.len() - 1];
        }
        if !line.is_empty() {
            records.push(line);
        }
        pos = end;
    }
    let mut records = records.into_iter();
    let names: Vec<String> = if header {
        let h = records
            .next()
            .ok_or_else(|| VidaError::format("<infer>", "empty file"))?;
        tok.split_fields(h)
            .into_iter()
            .map(|f| unquote_name(String::from_utf8_lossy(f).trim()))
            .collect()
    } else {
        Vec::new()
    };

    let mut col_types: Vec<Option<InferredTy>> = Vec::new();
    for (i, line) in records.enumerate() {
        if i >= sample_rows {
            break;
        }
        for (c, field) in tok.split_fields(line).into_iter().enumerate() {
            if col_types.len() <= c {
                col_types.resize(c + 1, None);
            }
            let t = infer_one(field);
            col_types[c] = Some(match (col_types[c], t) {
                (None, t) => t,
                (Some(a), b) => a.widen(b),
            });
        }
    }
    if col_types.is_empty() {
        return Err(VidaError::format("<infer>", "no data rows to infer from"));
    }
    let fields = col_types
        .into_iter()
        .enumerate()
        .map(|(i, t)| {
            let name = names.get(i).cloned().unwrap_or_else(|| format!("c{i}"));
            (name, t.unwrap_or(InferredTy::Str).to_type())
        })
        .collect::<Vec<_>>();
    Ok(Schema::from_pairs(fields))
}

/// Strip surrounding quotes (and unescape `""`) from a header name.
fn unquote_name(name: &str) -> String {
    if name.len() >= 2 && name.starts_with('"') && name.ends_with('"') {
        name[1..name.len() - 1].replace("\"\"", "\"")
    } else {
        name.to_string()
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum InferredTy {
    Int,
    Float,
    Bool,
    Str,
}

impl InferredTy {
    fn widen(self, other: InferredTy) -> InferredTy {
        use InferredTy::*;
        match (self, other) {
            (a, b) if a == b => a,
            (Int, Float) | (Float, Int) => Float,
            _ => Str,
        }
    }

    fn to_type(self) -> Type {
        match self {
            InferredTy::Int => Type::Int,
            InferredTy::Float => Type::Float,
            InferredTy::Bool => Type::Bool,
            InferredTy::Str => Type::Str,
        }
    }
}

fn infer_one(field: &[u8]) -> InferredTy {
    let Ok(s) = std::str::from_utf8(field) else {
        return InferredTy::Str;
    };
    let s = s.trim();
    if s.is_empty() {
        return InferredTy::Str;
    }
    if s.parse::<i64>().is_ok() {
        InferredTy::Int
    } else if s.parse::<f64>().is_ok() {
        InferredTy::Float
    } else if matches!(s, "true" | "false") {
        InferredTy::Bool
    } else {
        InferredTy::Str
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plugin::{CsvPlugin, InputPlugin, Revalidation};

    fn sample() -> CsvFile {
        let data =
            b"id,age,protein,city\n1,64,0.5,geneva\n2,31,1.25,bern\n3,77,2.0,basel\n".to_vec();
        CsvFile::from_bytes(
            "Patients",
            data,
            b',',
            true,
            Schema::from_pairs([
                ("id", Type::Int),
                ("age", Type::Int),
                ("protein", Type::Float),
                ("city", Type::Str),
            ]),
        )
        .unwrap()
    }

    #[test]
    fn reads_typed_fields() {
        let f = sample();
        assert_eq!(f.num_rows(), 3);
        assert_eq!(f.read_field(0, 0).unwrap(), Value::Int(1));
        assert_eq!(f.read_field(1, 2).unwrap(), Value::Float(1.25));
        assert_eq!(f.read_field(2, 3).unwrap(), Value::str("basel"));
    }

    #[test]
    fn read_row_assembles_record() {
        let f = sample();
        let r = f.read_row(1).unwrap();
        assert_eq!(r.field("age"), Some(&Value::Int(31)));
        assert_eq!(r.field("city"), Some(&Value::str("bern")));
    }

    #[test]
    fn posmap_turns_repeat_reads_into_hits() {
        let f = sample();
        // First access to col 3: a miss that tokenizes the row.
        f.read_field(0, 3).unwrap();
        let s1 = f.stats().snapshot();
        assert_eq!(s1.posmap_misses, 1);
        assert_eq!(s1.posmap_hits, 0);
        // Second access to same (row, col): exact hit, no tokenizing.
        f.read_field(0, 3).unwrap();
        let s2 = f.stats().snapshot();
        assert_eq!(s2.posmap_hits, 1);
        assert!(s2.bytes_skipped > s1.bytes_skipped);
    }

    #[test]
    fn posmap_partial_from_nearby_column() {
        let f = sample();
        f.read_field(0, 1).unwrap(); // tracks col 1
        f.read_field(0, 3).unwrap(); // should start from col 1, partial
        let s = f.stats().snapshot();
        assert_eq!(s.posmap_partial, 1);
    }

    #[test]
    fn scan_project_delivers_in_caller_order() {
        let f = sample();
        let mut rows = Vec::new();
        f.scan_project(&[2, 0], |_, vals| {
            rows.push(vals);
            Ok(())
        })
        .unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], vec![Value::Float(0.5), Value::Int(1)]);
    }

    #[test]
    fn unit_spans_are_newline_aligned() {
        let f = sample();
        let (s0, e0) = f.unit_byte_span(0).unwrap();
        let (s1, _) = f.unit_byte_span(1).unwrap();
        assert_eq!(e0, s1);
        assert_eq!(f.raw[e0 - 1], b'\n');
        assert_eq!(&f.raw[s0..s0 + 2], b"1,");
        assert!(f.unit_byte_span(99).is_none());
    }

    #[test]
    fn scan_project_range_matches_full_scan() {
        let f = sample();
        let mut full = Vec::new();
        f.scan_project(&[1, 3], |r, v| {
            full.push((r, v));
            Ok(())
        })
        .unwrap();
        let mut ranged = Vec::new();
        for r in 0..f.num_rows() {
            f.scan_project_range(&[1, 3], r..r + 1, |row, v| {
                ranged.push((row, v));
                Ok(())
            })
            .unwrap();
        }
        assert_eq!(full, ranged);
    }

    #[test]
    fn posmap_is_shared_across_concurrent_scans() {
        // Workers scanning disjoint row ranges populate one positional map
        // without locks; afterwards every (row, col 3) read is an exact hit.
        let f = std::sync::Arc::new(sample());
        std::thread::scope(|s| {
            for r in (0..f.num_rows()).map(|r| r..r + 1) {
                let f = std::sync::Arc::clone(&f);
                s.spawn(move || {
                    f.scan_project_range(&[3], r, |_, _| Ok(())).unwrap();
                });
            }
        });
        let before = f.stats().snapshot();
        for row in 0..f.num_rows() {
            f.read_field(row, 3).unwrap();
        }
        let after = f.stats().snapshot();
        assert_eq!(
            after.posmap_hits - before.posmap_hits,
            f.num_rows() as u64,
            "every re-read should hit the concurrently-populated map"
        );
    }

    #[test]
    fn quoted_fields_and_embedded_delimiters() {
        let data = b"id,name\n1,\"doe, jane\"\n2,plain\n".to_vec();
        let f = CsvFile::from_bytes(
            "T",
            data,
            b',',
            true,
            Schema::from_pairs([("id", Type::Int), ("name", Type::Str)]),
        )
        .unwrap();
        assert_eq!(f.read_field(0, 1).unwrap(), Value::str("doe, jane"));
        assert_eq!(f.read_field(1, 1).unwrap(), Value::str("plain"));
    }

    #[test]
    fn doubled_quotes_unescape_and_do_not_truncate() {
        // RFC 4180: `""` inside a quoted field is a literal quote. The scan
        // must not stop at the first inner quote (which would also mislocate
        // the following delimiter), and the parse must unescape.
        let data =
            b"id,name,tag\n1,\"a\"\"b\",x\n2,\"say \"\"hi\"\", ok\",y\n3,\"\"\"\",z\n".to_vec();
        let f = CsvFile::from_bytes(
            "T",
            data,
            b',',
            true,
            Schema::from_pairs([("id", Type::Int), ("name", Type::Str), ("tag", Type::Str)]),
        )
        .unwrap();
        assert_eq!(f.read_field(0, 1).unwrap(), Value::str("a\"b"));
        assert_eq!(f.read_field(0, 2).unwrap(), Value::str("x"));
        assert_eq!(f.read_field(1, 1).unwrap(), Value::str("say \"hi\", ok"));
        assert_eq!(f.read_field(1, 2).unwrap(), Value::str("y"));
        assert_eq!(f.read_field(2, 1).unwrap(), Value::str("\""));
        assert_eq!(f.read_field(2, 2).unwrap(), Value::str("z"));
    }

    #[test]
    fn escaped_field_spans_cover_the_quoted_text_and_read_unescaped() {
        // Positional-map spans of escaped fields must cover the full quoted
        // text (escapes included), and the read through them yields the
        // unescaped value.
        let data = b"id,name\n1,\"a\"\"b\"\n2,\"plain\"\n".to_vec();
        let f = CsvFile::from_bytes(
            "T",
            data,
            b',',
            true,
            Schema::from_pairs([("id", Type::Int), ("name", Type::Str)]),
        )
        .unwrap();
        let span = f.field_byte_span(0, 1).unwrap();
        assert_eq!(&f.raw[span.0..span.1], b"\"a\"\"b\"");
        assert_eq!(f.read_field(0, 1).unwrap(), Value::str("a\"b"));
        let span = f.field_byte_span(1, 1).unwrap();
        assert_eq!(&f.raw[span.0..span.1], b"\"plain\"");
        assert_eq!(f.read_field(1, 1).unwrap(), Value::str("plain"));
    }

    #[test]
    fn quoted_newlines_stay_one_record() {
        // A quoted field with an embedded newline is ONE record: row
        // indexing (and therefore `unit_byte_span` morsel alignment) must
        // be quote-aware, or parallel scans split the record in half.
        let data = b"id,note\n1,\"line one\nline two\"\n2,flat\n".to_vec();
        let f = CsvFile::from_bytes(
            "T",
            data.clone(),
            b',',
            true,
            Schema::from_pairs([("id", Type::Int), ("note", Type::Str)]),
        )
        .unwrap();
        assert_eq!(f.num_rows(), 2);
        assert_eq!(
            f.read_field(0, 1).unwrap(),
            Value::str("line one\nline two")
        );
        assert_eq!(f.read_field(1, 0).unwrap(), Value::Int(2));
        // The unit span covers the whole logical record, embedded newline
        // included, and the next record starts exactly where it ends.
        let (s0, e0) = f.unit_byte_span(0).unwrap();
        assert_eq!(&data[s0..e0], b"1,\"line one\nline two\"\n");
        let (s1, _) = f.unit_byte_span(1).unwrap();
        assert_eq!(e0, s1);
        // Ranged scans over the quote-aware rows match the full scan.
        let mut full = Vec::new();
        f.scan_project(&[1], |r, v| {
            full.push((r, v));
            Ok(())
        })
        .unwrap();
        let mut ranged = Vec::new();
        for r in 0..f.num_rows() {
            f.scan_project_range(&[1], r..r + 1, |row, v| {
                ranged.push((row, v));
                Ok(())
            })
            .unwrap();
        }
        assert_eq!(full, ranged);
    }

    #[test]
    fn quoted_newline_in_header_is_skipped_whole() {
        let data = b"id,\"na\nme\"\n1,x\n".to_vec();
        let f = CsvFile::from_bytes(
            "T",
            data,
            b',',
            true,
            Schema::from_pairs([("id", Type::Int), ("name", Type::Str)]),
        )
        .unwrap();
        assert_eq!(f.num_rows(), 1);
        assert_eq!(f.read_field(0, 1).unwrap(), Value::str("x"));
    }

    #[test]
    fn unterminated_quote_runs_to_end_of_data() {
        let data = b"a,b\n1,\"open\n".to_vec();
        let f = CsvFile::from_bytes(
            "T",
            data,
            b',',
            true,
            Schema::from_pairs([("a", Type::Int), ("b", Type::Str)]),
        )
        .unwrap();
        assert_eq!(f.num_rows(), 1);
        assert_eq!(f.read_field(0, 0).unwrap(), Value::Int(1));
    }

    #[test]
    fn empty_field_is_null() {
        let data = b"a,b\n1,\n,2\n".to_vec();
        let f = CsvFile::from_bytes(
            "T",
            data,
            b',',
            true,
            Schema::from_pairs([("a", Type::Int), ("b", Type::Int)]),
        )
        .unwrap();
        assert_eq!(f.read_field(0, 1).unwrap(), Value::Null);
        assert_eq!(f.read_field(1, 0).unwrap(), Value::Null);
    }

    #[test]
    fn out_of_range_errors() {
        let f = sample();
        assert!(f.read_field(99, 0).is_err());
        assert!(f.read_field(0, 99).is_err());
    }

    #[test]
    fn short_row_errors() {
        let data = b"a,b,c\n1,2\n".to_vec();
        let f = CsvFile::from_bytes(
            "T",
            data,
            b',',
            true,
            Schema::from_pairs([("a", Type::Int), ("b", Type::Int), ("c", Type::Int)]),
        )
        .unwrap();
        let e = f.read_field(0, 2).unwrap_err();
        assert_eq!(e.kind(), "format");
    }

    #[test]
    fn crlf_handled() {
        let data = b"a,b\r\n1,2\r\n3,4\r\n".to_vec();
        let f = CsvFile::from_bytes(
            "T",
            data,
            b',',
            true,
            Schema::from_pairs([("a", Type::Int), ("b", Type::Int)]),
        )
        .unwrap();
        assert_eq!(f.read_field(0, 1).unwrap(), Value::Int(2));
        assert_eq!(f.read_field(1, 1).unwrap(), Value::Int(4));
    }

    #[test]
    fn bad_number_is_format_error() {
        let data = b"a\nxyz\n".to_vec();
        let f = CsvFile::from_bytes(
            "T",
            data,
            b',',
            true,
            Schema::from_pairs([("a", Type::Int)]),
        )
        .unwrap();
        assert_eq!(f.read_field(0, 0).unwrap_err().kind(), "format");
    }

    #[test]
    fn infer_schema_types_and_names() {
        let data = b"id,score,flag,label\n1,0.5,true,aa\n2,1.5,false,bb\n";
        let s = infer_schema(data, b',', true, 10).unwrap();
        assert_eq!(s.index_of("id"), Some(0));
        assert_eq!(s.field("id").unwrap().ty, Type::Int);
        assert_eq!(s.field("score").unwrap().ty, Type::Float);
        assert_eq!(s.field("flag").unwrap().ty, Type::Bool);
        assert_eq!(s.field("label").unwrap().ty, Type::Str);
    }

    #[test]
    fn infer_widens_int_to_float_to_str() {
        let data = b"x\n1\n2.5\n";
        let s = infer_schema(data, b',', true, 10).unwrap();
        assert_eq!(s.field("x").unwrap().ty, Type::Float);
        let data2 = b"x\n1\nhello\n";
        let s2 = infer_schema(data2, b',', true, 10).unwrap();
        assert_eq!(s2.field("x").unwrap().ty, Type::Str);
    }

    #[test]
    fn infer_schema_is_quote_aware() {
        // Quoted newlines and embedded delimiters must not desync the
        // sampled records from what a scan parses.
        let data = b"id,\"no,te\"\n1,\"line one\nline two\"\n2,\"a\"\"b\"\n";
        let s = infer_schema(data, b',', true, 10).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.index_of("id"), Some(0));
        assert_eq!(s.index_of("no,te"), Some(1));
        assert_eq!(s.field("id").unwrap().ty, Type::Int);
        assert_eq!(s.field("no,te").unwrap().ty, Type::Str);
    }

    #[test]
    fn infer_without_header_names_columns() {
        let data = b"1,a\n2,b\n";
        let s = infer_schema(data, b',', false, 10).unwrap();
        assert_eq!(s.index_of("c0"), Some(0));
        assert_eq!(s.index_of("c1"), Some(1));
    }

    #[test]
    fn utf8_bom_is_stripped() {
        // A BOM must not glue onto the first header name (inference) nor
        // shift the first data row (reads).
        let data = b"\xEF\xBB\xBFid,age\n1,64\n2,31\n".to_vec();
        let s = infer_schema(&data, b',', true, 10).unwrap();
        assert_eq!(s.index_of("id"), Some(0), "BOM glued onto header name");
        let f = CsvFile::from_bytes(
            "T",
            data,
            b',',
            true,
            Schema::from_pairs([("id", Type::Int), ("age", Type::Int)]),
        )
        .unwrap();
        assert_eq!(f.num_rows(), 2);
        assert_eq!(f.read_field(0, 0).unwrap(), Value::Int(1));
        // Headerless files start their first row right after the BOM.
        let f = CsvFile::from_bytes(
            "T",
            b"\xEF\xBB\xBF7,8\n".to_vec(),
            b',',
            false,
            Schema::from_pairs([("a", Type::Int), ("b", Type::Int)]),
        )
        .unwrap();
        assert_eq!(f.read_field(0, 0).unwrap(), Value::Int(7));
    }

    fn temp_csv(name: &str, contents: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("vida-csv-inc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap();
        path
    }

    fn append(path: &std::path::Path, bytes: &[u8]) {
        use std::io::Write;
        let mut fh = std::fs::OpenOptions::new().append(true).open(path).unwrap();
        fh.write_all(bytes).unwrap();
    }

    /// A disk-backed CSV plugin over `path` (revalidation is a plugin
    /// verdict).
    fn open_plugin(path: &std::path::Path, schema: &Schema) -> CsvPlugin {
        CsvPlugin::new(CsvFile::open("T", path, b',', true, schema.clone()).unwrap())
    }

    #[test]
    fn revalidate_extends_on_append_and_rebuilds_on_edit() {
        let path = temp_csv("grow.csv", b"id,age\n1,64\n2,31\n");
        let schema = Schema::from_pairs([("id", Type::Int), ("age", Type::Int)]);
        let f = open_plugin(&path, &schema);
        assert_eq!(f.num_units(), 2);
        f.read_field(1, 1).unwrap(); // teach the positional map an offset
        assert!(matches!(f.revalidate().unwrap(), Revalidation::Unchanged));

        append(&path, b"3,77\n4,12\n");
        let Revalidation::Extended { plugin: g, prev } = f.revalidate().unwrap() else {
            panic!("append must extend");
        };
        // Old file ended in a newline, so every old row survives.
        assert_eq!(prev.prefix_units, 2);
        assert_eq!(g.num_units(), 4);
        assert_eq!(g.read_field(0, 0).unwrap(), Value::Int(1));
        assert_eq!(g.read_field(3, 1).unwrap(), Value::Int(12));
        // The learned offset rode along: re-reading (1, 1) is an exact hit.
        let before = g.stats().snapshot().posmap_hits;
        g.read_field(1, 1).unwrap();
        assert!(g.stats().snapshot().posmap_hits > before);
        // The extended index matches a cold build of the same bytes.
        let cold = CsvFile::open("T", &path, b',', true, schema.clone()).unwrap();
        assert_eq!(g.unit_offsets(), Some(cold.unit_offsets()));

        // An in-place edit (same length as the original prefix region, new
        // content) must trigger a full rebuild, not an extension.
        std::fs::write(&path, b"id,age\n9,99\n8,88\n7,77\n").unwrap();
        let Revalidation::Rebuilt { plugin: h } = g.revalidate().unwrap() else {
            panic!("edit must rebuild");
        };
        assert_eq!(h.num_units(), 3);
        assert_eq!(h.read_field(0, 1).unwrap(), Value::Int(99));

        // A truncation must also rebuild — without touching old pages.
        std::fs::write(&path, b"id,age\n5,50\n").unwrap();
        let Revalidation::Rebuilt { plugin: t } = h.revalidate().unwrap() else {
            panic!("shrink must rebuild");
        };
        assert_eq!(t.num_units(), 1);
        assert_eq!(t.read_field(0, 0).unwrap(), Value::Int(5));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn append_to_unterminated_last_row_extends_that_row() {
        // No trailing newline: the appended bytes glue onto the last old
        // row, so it must be re-tokenized and drops out of the valid
        // prefix.
        let path = temp_csv("ragged.csv", b"a,b\n1,2\n3,4");
        let schema = Schema::from_pairs([("a", Type::Int), ("b", Type::Int)]);
        let f = open_plugin(&path, &schema);
        assert_eq!(f.num_units(), 2);
        append(&path, b"5\n6,7\n");
        let Revalidation::Extended { plugin: g, prev } = f.revalidate().unwrap() else {
            panic!("append must extend");
        };
        assert_eq!(prev.prefix_units, 1, "glued-onto row is not prefix-valid");
        assert_eq!(g.num_units(), 3);
        assert_eq!(g.read_field(1, 1).unwrap(), Value::Int(45));
        assert_eq!(g.read_field(2, 1).unwrap(), Value::Int(7));
        let cold = CsvFile::open("T", &path, b',', true, schema).unwrap();
        assert_eq!(g.unit_offsets(), Some(cold.unit_offsets()));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn extend_from_empty_and_header_only_files() {
        let schema = Schema::from_pairs([("a", Type::Int), ("b", Type::Int)]);
        // Header-only: zero old rows, append creates the first ones.
        let path = temp_csv("headeronly.csv", b"a,b\n");
        let f = open_plugin(&path, &schema);
        assert_eq!(f.num_units(), 0);
        append(&path, b"1,2\n3,4\n");
        let Revalidation::Extended { plugin: g, prev } = f.revalidate().unwrap() else {
            panic!("append must extend");
        };
        assert_eq!(prev.prefix_units, 0);
        assert_eq!(g.num_units(), 2);
        assert_eq!(g.read_field(1, 0).unwrap(), Value::Int(3));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn no_trailing_newline_ok() {
        let data = b"a,b\n1,2".to_vec();
        let f = CsvFile::from_bytes(
            "T",
            data,
            b',',
            true,
            Schema::from_pairs([("a", Type::Int), ("b", Type::Int)]),
        )
        .unwrap();
        assert_eq!(f.num_rows(), 1);
        assert_eq!(f.read_field(0, 1).unwrap(), Value::Int(2));
    }
}
