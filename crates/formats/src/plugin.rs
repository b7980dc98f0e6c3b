//! The input-plugin abstraction (ViDa §4.1, Figure 3).
//!
//! Every ViDa operator obtains its inputs through a *file-format-specific
//! input plugin*. The JIT executor binds one plugin per input at pipeline
//! generation time; the plugin exposes field-granular access so generated
//! scans touch only the attributes a query needs (no "database page" is ever
//! built — §4.1).
//!
//! Plugins also expose a per-column **cost factor** used by the optimizer's
//! format wrappers (§5): text formats report position-dependent costs that
//! shrink once positional structures are populated; binary formats report a
//! constant.

use crate::binarray::ArrayFile;
use crate::csv::CsvFile;
use crate::description::{DataFormat, SourceDescription};
use crate::json::JsonFile;
use crate::stats::AccessStats;
use std::sync::Arc;
use vida_io::{RawFile, Refresh};
use vida_types::{Result, Schema, Value, VidaError};

/// Outcome of re-statting a plugin's backing file — the one verdict on a
/// file generation, which the executor asks for once per dataset per
/// query before trusting any cache.
///
/// Plugins are immutable once bound (scan workers share them through
/// `Arc`s), so a changed file produces a *replacement* plugin rather than
/// mutating in place; the catalog swaps it in and the old one dies with
/// its last in-flight query.
pub enum Revalidation {
    /// Fingerprint unchanged — replicas and positional structures are
    /// current, serve caches as today.
    Unchanged,
    /// The file grew by a pure append. `plugin` is a replacement reader
    /// whose positional structures were extended over only the appended
    /// tail; `prev` is the generation it grew from.
    Extended {
        plugin: Box<dyn InputPlugin>,
        prev: Generation,
    },
    /// The file shrank or changed in place: `plugin` is a fresh reader and
    /// every cache entry for the dataset is stale.
    Rebuilt { plugin: Box<dyn InputPlugin> },
}

/// The generation a grown file extends: replicas and fold partials
/// written under `fingerprint` over exactly `units` units still serve
/// their first `prefix_units` units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Generation {
    /// Fingerprint the previous plugin was opened under.
    pub fingerprint: (u64, u64),
    /// Unit count before the append (the length of prefix replicas).
    pub units: usize,
    /// Units whose byte spans survived unchanged (`units`, or one less when
    /// the append glued onto an unterminated last row).
    pub prefix_units: usize,
}

/// The two steps a file-backed format contributes to revalidation;
/// the re-stat, the reopen and the verdict are [`revalidate_file`]'s.
pub(crate) trait FileIndex: Sized {
    /// The file generation this index was built over.
    fn raw(&self) -> &RawFile;

    /// Index `raw` from scratch, keeping this reader's name, schema and
    /// access statistics.
    fn reindex(&self, raw: RawFile) -> Result<Self>;

    /// Extend the index over `raw`, a grown generation whose leading bytes
    /// are this reader's. Returns the reader and how many leading units
    /// kept their byte spans, or `None` when the format indexes growth from
    /// scratch (the default).
    fn extend(&self, raw: RawFile) -> Result<(Self, Option<usize>)> {
        Ok((self.reindex(raw)?, None))
    }
}

/// The one `InputPlugin::revalidate` body of every file-backed plugin:
/// refresh `current`'s raw file, then extend or re-index the format's
/// structures and wrap the replacement reader with `plugin`.
fn revalidate_file<F: FileIndex>(
    current: &dyn InputPlugin,
    file: &F,
    plugin: fn(F) -> Box<dyn InputPlugin>,
) -> Result<Revalidation> {
    Ok(match file.raw().refresh()? {
        Refresh::Unchanged => Revalidation::Unchanged,
        Refresh::Grown(raw) => match file.extend(raw)? {
            (next, Some(prefix_units)) => Revalidation::Extended {
                plugin: plugin(next),
                prev: Generation {
                    fingerprint: current.fingerprint(),
                    units: current.num_units(),
                    prefix_units,
                },
            },
            (next, None) => Revalidation::Rebuilt {
                plugin: plugin(next),
            },
        },
        Refresh::Changed(raw) => Revalidation::Rebuilt {
            plugin: plugin(file.reindex(raw)?),
        },
    })
}

/// A bound, format-specific reader for one raw dataset.
pub trait InputPlugin: Send + Sync {
    /// Dataset name as registered in the catalog.
    fn name(&self) -> &str;

    /// Schema of one retrieval unit.
    fn schema(&self) -> &Schema;

    /// Number of retrieval units (rows / objects / elements).
    fn num_units(&self) -> usize;

    /// Read one field of one unit, by schema column index.
    fn read_field(&self, row: usize, col: usize) -> Result<Value>;

    /// Read one whole unit as a record in schema order.
    fn read_unit(&self, row: usize) -> Result<Value> {
        let cols: Vec<usize> = (0..self.schema().len()).collect();
        let mut vals = Vec::with_capacity(cols.len());
        for c in cols {
            vals.push(self.read_field(row, c)?);
        }
        Ok(self.schema().record_value(vals))
    }

    /// Scan all units, projecting `cols` (schema indexes, caller order).
    fn scan_project(
        &self,
        cols: &[usize],
        f: &mut dyn FnMut(usize, Vec<Value>) -> Result<()>,
    ) -> Result<()> {
        self.scan_project_range(cols, 0..self.num_units(), f)
    }

    /// [`InputPlugin::scan_project`] restricted to a contiguous unit range
    /// — one morsel of a parallel scan. Implementations must be safe to
    /// call concurrently on disjoint ranges (the text plugins share only
    /// their atomic positional structures).
    fn scan_project_range(
        &self,
        cols: &[usize],
        rows: std::ops::Range<usize>,
        f: &mut dyn FnMut(usize, Vec<Value>) -> Result<()>,
    ) -> Result<()> {
        for row in rows {
            let mut vals = Vec::with_capacity(cols.len());
            for &c in cols {
                vals.push(self.read_field(row, c)?);
            }
            f(row, vals)?;
        }
        Ok(())
    }

    /// Raw byte span of unit `row`, when the format can report one
    /// (newline-aligned rows for CSV, record-aligned objects for JSON).
    /// Morsel dispatchers use it to balance chunks by raw bytes; `None`
    /// (the default) means "no meaningful byte spans" and dispatchers fall
    /// back to unit-count grids.
    fn unit_byte_span(&self, _row: usize) -> Option<(usize, usize)> {
        None
    }

    /// Contiguous unit start offsets — `num_units() + 1` entries where unit
    /// `i` spans `offsets[i]..offsets[i + 1]` — when the format's units
    /// tile the file back to back (CSV rows). Lets morsel dispatchers
    /// binary-search byte-balanced boundaries instead of walking per-unit
    /// spans; `None` (the default) falls back to [`Self::unit_byte_span`].
    fn unit_offsets(&self) -> Option<&[u32]> {
        None
    }

    /// Whether the raw bytes are backed by a shared file mapping (always
    /// false for formats without a raw file).
    fn is_mapped(&self) -> bool {
        false
    }

    /// Shared access-statistics counters.
    fn stats(&self) -> Arc<AccessStats>;

    /// `(len, mtime nanoseconds)` fingerprint for cache invalidation,
    /// captured when the plugin was opened or last revalidated.
    fn fingerprint(&self) -> (u64, u64);

    /// Re-stat the backing file and report how it changed since this
    /// plugin was bound. The default (formats without a backing file, e.g.
    /// in-memory sources) is always [`Revalidation::Unchanged`].
    fn revalidate(&self) -> Result<Revalidation> {
        Ok(Revalidation::Unchanged)
    }

    /// Relative CPU cost of fetching column `col` of a fresh unit, where
    /// `1.0` is one buffer-pool-resident attribute fetch in a loaded DBMS
    /// (the paper's `const_cost`, §5).
    fn field_cost_factor(&self, col: usize) -> f64;

    /// Raw size of the underlying file in bytes.
    fn raw_bytes(&self) -> usize;
}

/// CSV-backed plugin.
pub struct CsvPlugin {
    file: CsvFile,
}

impl CsvPlugin {
    pub fn new(file: CsvFile) -> Self {
        CsvPlugin { file }
    }

    pub fn file(&self) -> &CsvFile {
        &self.file
    }

    pub fn file_mut(&mut self) -> &mut CsvFile {
        &mut self.file
    }
}

impl InputPlugin for CsvPlugin {
    fn name(&self) -> &str {
        self.file.name()
    }

    fn schema(&self) -> &Schema {
        self.file.schema()
    }

    fn num_units(&self) -> usize {
        self.file.num_rows()
    }

    fn read_field(&self, row: usize, col: usize) -> Result<Value> {
        self.file.read_field(row, col)
    }

    fn scan_project(
        &self,
        cols: &[usize],
        f: &mut dyn FnMut(usize, Vec<Value>) -> Result<()>,
    ) -> Result<()> {
        self.file.scan_project(cols, f)
    }

    fn scan_project_range(
        &self,
        cols: &[usize],
        rows: std::ops::Range<usize>,
        f: &mut dyn FnMut(usize, Vec<Value>) -> Result<()>,
    ) -> Result<()> {
        self.file.scan_project_range(cols, rows, f)
    }

    fn unit_byte_span(&self, row: usize) -> Option<(usize, usize)> {
        self.file.unit_byte_span(row)
    }

    fn unit_offsets(&self) -> Option<&[u32]> {
        Some(self.file.unit_offsets())
    }

    fn is_mapped(&self) -> bool {
        self.file.is_mapped()
    }

    fn stats(&self) -> Arc<AccessStats> {
        self.file.stats()
    }

    fn fingerprint(&self) -> (u64, u64) {
        self.file.raw().fingerprint()
    }

    fn revalidate(&self) -> Result<Revalidation> {
        revalidate_file(self, &self.file, |f| Box::new(CsvPlugin::new(f)))
    }

    fn field_cost_factor(&self, col: usize) -> f64 {
        // Tokenize-from-row-start cost grows with column position; the
        // paper's example pegs un-indexed CSV at ~3x a loaded DBMS fetch.
        // Once the positional map tracks this column, cost approaches 1.
        let tracked = self.file.posmap_columns();
        let base = 3.0 + 0.002 * col as f64;
        if tracked > 0 {
            // Positional help: interpolate toward constant cost.
            1.0 + (base - 1.0) / (1.0 + tracked as f64)
        } else {
            base
        }
    }

    fn raw_bytes(&self) -> usize {
        self.file.raw_bytes()
    }
}

/// JSON-backed plugin. Schema columns map to top-level object fields.
pub struct JsonPlugin {
    file: JsonFile,
    /// Column index -> top-level field name (from schema order).
    columns: Vec<String>,
}

impl JsonPlugin {
    pub fn new(file: JsonFile) -> Self {
        let columns = file
            .schema()
            .fields()
            .iter()
            .map(|f| f.name.clone())
            .collect();
        JsonPlugin { file, columns }
    }

    pub fn file(&self) -> &JsonFile {
        &self.file
    }

    pub fn file_mut(&mut self) -> &mut JsonFile {
        &mut self.file
    }
}

impl InputPlugin for JsonPlugin {
    fn name(&self) -> &str {
        self.file.name()
    }

    fn schema(&self) -> &Schema {
        self.file.schema()
    }

    fn num_units(&self) -> usize {
        self.file.num_objects()
    }

    fn read_field(&self, row: usize, col: usize) -> Result<Value> {
        let field = self.columns.get(col).ok_or_else(|| {
            VidaError::format(self.file.name(), format!("column {col} out of range"))
        })?;
        self.file.read_field(row, field)
    }

    fn scan_project_range(
        &self,
        cols: &[usize],
        rows: std::ops::Range<usize>,
        f: &mut dyn FnMut(usize, Vec<Value>) -> Result<()>,
    ) -> Result<()> {
        let fields = cols
            .iter()
            .map(|&c| {
                self.columns.get(c).map(String::as_str).ok_or_else(|| {
                    VidaError::format(self.file.name(), format!("column {c} out of range"))
                })
            })
            .collect::<Result<Vec<_>>>()?;
        self.file.scan_project_range(&fields, rows, f)
    }

    fn unit_byte_span(&self, row: usize) -> Option<(usize, usize)> {
        self.file.unit_byte_span(row)
    }

    fn is_mapped(&self) -> bool {
        self.file.is_mapped()
    }

    fn stats(&self) -> Arc<AccessStats> {
        self.file.stats()
    }

    fn fingerprint(&self) -> (u64, u64) {
        self.file.raw().fingerprint()
    }

    fn revalidate(&self) -> Result<Revalidation> {
        revalidate_file(self, &self.file, |f| Box::new(JsonPlugin::new(f)))
    }

    fn field_cost_factor(&self, _col: usize) -> f64 {
        // Navigating JSON text is costlier than CSV tokenization; the
        // structural index collapses it toward a constant.
        if self.file.semi_index_fields() > 0 {
            1.5
        } else {
            4.0
        }
    }

    fn raw_bytes(&self) -> usize {
        self.file.raw_bytes()
    }
}

/// Binary-array-backed plugin exposing the relational `(i0.., val)` view.
pub struct ArrayPlugin {
    file: ArrayFile,
    schema: Schema,
}

impl ArrayPlugin {
    pub fn new(file: ArrayFile) -> Self {
        let schema = file.relational_schema();
        ArrayPlugin { file, schema }
    }

    pub fn file(&self) -> &ArrayFile {
        &self.file
    }
}

impl InputPlugin for ArrayPlugin {
    fn name(&self) -> &str {
        self.file.name()
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn num_units(&self) -> usize {
        self.file.len()
    }

    fn read_field(&self, row: usize, col: usize) -> Result<Value> {
        let dims = self.file.dims();
        let rank = dims.len();
        if col > rank {
            return Err(VidaError::format(
                self.file.name(),
                format!("column {col} out of range"),
            ));
        }
        if row >= self.file.len() {
            return Err(VidaError::format(
                self.file.name(),
                format!("row {row} out of range ({} elements)", self.file.len()),
            ));
        }
        // Row-major multi-index of element `row`.
        let mut rem = row;
        let mut idx = vec![0usize; rank];
        for d in (0..rank).rev() {
            idx[d] = rem % dims[d];
            rem /= dims[d];
        }
        match idx.get(col) {
            Some(&i) => Ok(Value::Int(i as i64)),
            None => self.file.read_element(&idx),
        }
    }

    fn stats(&self) -> Arc<AccessStats> {
        self.file.stats()
    }

    fn fingerprint(&self) -> (u64, u64) {
        self.file.raw().fingerprint()
    }

    fn revalidate(&self) -> Result<Revalidation> {
        revalidate_file(self, &self.file, |f| Box::new(ArrayPlugin::new(f)))
    }

    fn field_cost_factor(&self, _col: usize) -> f64 {
        1.0 // binary: constant, position-independent (§5)
    }

    fn raw_bytes(&self) -> usize {
        self.file.raw_bytes()
    }
}

/// In-memory plugin over materialized records (tests, caches, literals).
pub struct MemPlugin {
    name: String,
    schema: Schema,
    rows: Vec<Vec<Value>>,
    stats: Arc<AccessStats>,
    /// This generation's [`vida_io::memory_generation`] stamp.
    generation: u64,
}

impl MemPlugin {
    pub fn new(name: impl Into<String>, schema: Schema, rows: Vec<Vec<Value>>) -> Self {
        MemPlugin {
            name: name.into(),
            schema,
            rows,
            stats: Arc::new(AccessStats::new()),
            generation: vida_io::memory_generation(),
        }
    }

    /// Build from record values (each must match the schema's field order).
    pub fn from_records(
        name: impl Into<String>,
        schema: Schema,
        records: &[Value],
    ) -> Result<Self> {
        let name = name.into();
        let rows = records
            .iter()
            .map(|r| match r {
                Value::Record(fields) => Ok(fields.iter().map(|(_, v)| v.clone()).collect()),
                other => Err(VidaError::format(&name, format!("non-record {other}"))),
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(MemPlugin::new(name, schema, rows))
    }
}

impl InputPlugin for MemPlugin {
    fn name(&self) -> &str {
        &self.name
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn num_units(&self) -> usize {
        self.rows.len()
    }

    fn read_field(&self, row: usize, col: usize) -> Result<Value> {
        self.rows
            .get(row)
            .and_then(|r| r.get(col))
            .cloned()
            .ok_or_else(|| VidaError::format(&self.name, format!("({row},{col}) out of range")))
    }

    fn stats(&self) -> Arc<AccessStats> {
        Arc::clone(&self.stats)
    }

    fn fingerprint(&self) -> (u64, u64) {
        (self.rows.len() as u64, self.generation)
    }

    fn field_cost_factor(&self, _col: usize) -> f64 {
        1.0
    }

    fn raw_bytes(&self) -> usize {
        self.rows.len() * self.schema.len() * 8
    }
}

/// Open the right plugin for a source description (the plugin catalog of
/// Figure 3).
pub fn open_plugin(desc: &SourceDescription) -> Result<Box<dyn InputPlugin>> {
    open_plugin_with(desc, vida_io::MapMode::Auto)
}

/// [`open_plugin`] with an explicit raw-data backing policy
/// ([`vida_io::MapMode::Never`] is the owned-buffer escape hatch).
pub fn open_plugin_with(
    desc: &SourceDescription,
    mode: vida_io::MapMode,
) -> Result<Box<dyn InputPlugin>> {
    match &desc.format {
        DataFormat::Csv { delimiter, header } => {
            let file = CsvFile::open_with(
                desc.name.clone(),
                &desc.path,
                *delimiter,
                *header,
                desc.schema.clone(),
                mode,
            )?;
            Ok(Box::new(CsvPlugin::new(file)))
        }
        DataFormat::Json => {
            let file =
                JsonFile::open_with(desc.name.clone(), &desc.path, desc.schema.clone(), mode)?;
            Ok(Box::new(JsonPlugin::new(file)))
        }
        DataFormat::BinaryArray => {
            let file = ArrayFile::open_with(desc.name.clone(), &desc.path, mode)?;
            Ok(Box::new(ArrayPlugin::new(file)))
        }
        DataFormat::InMemory => Err(VidaError::Catalog(
            "in-memory sources are registered directly, not opened from disk".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binarray::{encode_array, ElemType};
    use vida_types::Type;

    fn csv_plugin() -> CsvPlugin {
        let data = b"id,x\n1,10.0\n2,20.0\n".to_vec();
        let file = CsvFile::from_bytes(
            "T",
            data,
            b',',
            true,
            Schema::from_pairs([("id", Type::Int), ("x", Type::Float)]),
        )
        .unwrap();
        CsvPlugin::new(file)
    }

    #[test]
    fn csv_plugin_reads_units() {
        let p = csv_plugin();
        assert_eq!(p.num_units(), 2);
        let u = p.read_unit(1).unwrap();
        assert_eq!(u.field("x"), Some(&Value::Float(20.0)));
    }

    #[test]
    fn csv_cost_factor_drops_with_posmap() {
        let p = csv_plugin();
        let before = p.field_cost_factor(1);
        assert!(before >= 3.0);
        p.read_field(0, 1).unwrap(); // populates positional map
        let after = p.field_cost_factor(1);
        assert!(after < before, "posmap should reduce cost factor");
    }

    #[test]
    fn json_plugin_maps_columns_to_fields() {
        let data = b"{\"a\":1,\"b\":\"x\"}\n{\"a\":2,\"b\":\"y\"}\n".to_vec();
        let file = JsonFile::from_bytes(
            "J",
            data,
            Schema::from_pairs([("a", Type::Int), ("b", Type::Str)]),
        )
        .unwrap();
        let p = JsonPlugin::new(file);
        assert_eq!(p.read_field(1, 0).unwrap(), Value::Int(2));
        assert_eq!(p.read_field(0, 1).unwrap(), Value::str("x"));
        assert!(p.read_field(0, 5).is_err());
        assert!(p.field_cost_factor(0) > 1.0);
    }

    #[test]
    fn array_plugin_relational_view() {
        let vals: Vec<Value> = (0..6).map(|i| Value::Float(i as f64)).collect();
        let bytes = encode_array(ElemType::F64, &[2, 3], &vals).unwrap();
        let p = ArrayPlugin::new(ArrayFile::from_bytes("A", bytes).unwrap());
        assert_eq!(p.num_units(), 6);
        // unit 4 -> (i0=1, i1=1, val=4.0)
        assert_eq!(p.read_field(4, 0).unwrap(), Value::Int(1));
        assert_eq!(p.read_field(4, 1).unwrap(), Value::Int(1));
        assert_eq!(p.read_field(4, 2).unwrap(), Value::Float(4.0));
        assert_eq!(p.field_cost_factor(2), 1.0);
    }

    #[test]
    fn array_plugin_rejects_rows_past_the_end() {
        let vals: Vec<Value> = (1..=4).map(Value::Int).collect();
        let bytes = encode_array(ElemType::I64, &[2, 2], &vals).unwrap();
        let p = ArrayPlugin::new(ArrayFile::from_bytes("A", bytes).unwrap());
        // Index and value columns alike: rows past the 4 elements are
        // format errors, not reads reduced modulo the dims.
        for row in [4, 5, 100] {
            for col in 0..3 {
                assert!(p.read_field(row, col).is_err(), "row {row} col {col}");
            }
        }
        assert!(p.read_field(0, 3).is_err());
        // In-range reads are unchanged: unit 3 -> (i0=1, i1=1, val=4).
        assert_eq!(p.read_field(3, 0).unwrap(), Value::Int(1));
        assert_eq!(p.read_field(3, 1).unwrap(), Value::Int(1));
        assert_eq!(p.read_field(3, 2).unwrap(), Value::Int(4));
        assert_eq!(p.read_field(2, 0).unwrap(), Value::Int(1));
        assert_eq!(p.read_field(2, 1).unwrap(), Value::Int(0));
        assert_eq!(p.read_field(0, 2).unwrap(), Value::Int(1));
    }

    #[test]
    fn mem_plugin_round_trip() {
        let schema = Schema::from_pairs([("id", Type::Int)]);
        let recs = vec![
            Value::record([("id", Value::Int(1))]),
            Value::record([("id", Value::Int(2))]),
        ];
        let p = MemPlugin::from_records("M", schema, &recs).unwrap();
        assert_eq!(p.num_units(), 2);
        assert_eq!(p.read_unit(0).unwrap(), recs[0]);
    }

    #[test]
    fn scan_project_default_impl() {
        let p = csv_plugin();
        let mut got = Vec::new();
        p.scan_project(&[1], &mut |_, vals| {
            got.push(vals);
            Ok(())
        })
        .unwrap();
        assert_eq!(
            got,
            vec![vec![Value::Float(10.0)], vec![Value::Float(20.0)]]
        );
    }

    #[test]
    fn scan_project_range_restricts_rows() {
        let p = csv_plugin();
        let mut got = Vec::new();
        p.scan_project_range(&[0], 1..2, &mut |row, vals| {
            got.push((row, vals));
            Ok(())
        })
        .unwrap();
        assert_eq!(got, vec![(1, vec![Value::Int(2)])]);
        // JSON plugin maps columns to field names in its ranged scan too.
        let data = b"{\"a\":1}\n{\"a\":2}\n{\"a\":3}\n".to_vec();
        let jp = JsonPlugin::new(
            JsonFile::from_bytes("J", data, Schema::from_pairs([("a", Type::Int)])).unwrap(),
        );
        let mut j = Vec::new();
        jp.scan_project_range(&[0], 0..2, &mut |row, vals| {
            j.push((row, vals));
            Ok(())
        })
        .unwrap();
        assert_eq!(j, vec![(0, vec![Value::Int(1)]), (1, vec![Value::Int(2)])]);
    }

    #[test]
    fn resident_plugin_notices_disk_mutations() {
        // Regression: fingerprints used to be captured once at open and
        // never re-stat'd, so a resident plugin kept vouching for stale
        // replicas forever. `revalidate` must see the change.
        let dir = std::env::temp_dir().join(format!("vida-plugin-inc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resident.csv");
        std::fs::write(&path, b"id,x\n1,10\n2,20\n").unwrap();
        let schema = Schema::from_pairs([("id", Type::Int), ("x", Type::Int)]);
        let p = CsvPlugin::new(CsvFile::open("T", &path, b',', true, schema.clone()).unwrap());
        let opened = p.fingerprint();
        assert!(matches!(p.revalidate().unwrap(), Revalidation::Unchanged));

        // Same-length in-place edit: only the ns-mtime can catch it. The
        // kernel file clock ticks coarsely, so rewrite until it moves.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        let mut current = opened;
        while current == opened && std::time::Instant::now() < deadline {
            std::fs::write(&path, b"id,x\n1,10\n2,99\n").unwrap();
            current = vida_io::RawFile::open(&path, vida_io::MapMode::Never)
                .unwrap()
                .fingerprint();
        }
        assert_ne!(current, opened, "ns-mtime must distinguish the rewrite");
        assert_eq!(
            p.fingerprint(),
            opened,
            "resident plugin holds open-time fp"
        );
        let Revalidation::Rebuilt { plugin } = p.revalidate().unwrap() else {
            panic!("in-place edit must rebuild");
        };
        assert_eq!(plugin.read_field(1, 1).unwrap(), Value::Int(99));
        assert_ne!(plugin.fingerprint(), opened);

        // Append on the fresh plugin: extension with prefix bookkeeping.
        use std::io::Write;
        let mut fh = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        fh.write_all(b"3,30\n").unwrap();
        drop(fh);
        let Revalidation::Extended {
            plugin: grown,
            prev,
        } = plugin.revalidate().unwrap()
        else {
            panic!("append must extend");
        };
        assert_eq!(prev.fingerprint, plugin.fingerprint());
        assert_eq!(prev.units, 2);
        assert_eq!(prev.prefix_units, 2);
        assert_eq!(grown.num_units(), 3);
        assert_eq!(grown.read_field(2, 1).unwrap(), Value::Int(30));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn array_plugin_rebuilds_on_any_change() {
        let dir = std::env::temp_dir().join(format!("vida-plugin-inc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resident.arr");
        let vals: Vec<Value> = (0..4).map(Value::Int).collect();
        std::fs::write(&path, encode_array(ElemType::I64, &[4], &vals).unwrap()).unwrap();
        let p = ArrayPlugin::new(ArrayFile::open("A", &path).unwrap());
        assert!(matches!(p.revalidate().unwrap(), Revalidation::Unchanged));
        // Even a well-formed growth (more elements, bigger dims header) is
        // a rebuild — the header changed, nothing is prefix-stable.
        let vals: Vec<Value> = (0..6).map(Value::Int).collect();
        std::fs::write(&path, encode_array(ElemType::I64, &[6], &vals).unwrap()).unwrap();
        let Revalidation::Rebuilt { plugin } = p.revalidate().unwrap() else {
            panic!("array growth must rebuild");
        };
        assert_eq!(plugin.num_units(), 6);
        assert_eq!(plugin.read_field(5, 1).unwrap(), Value::Int(5));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn byte_spans_exposed_for_text_formats() {
        let p = csv_plugin();
        assert!(p.unit_byte_span(0).is_some());
        let schema = Schema::from_pairs([("id", Type::Int)]);
        let recs = vec![Value::record([("id", Value::Int(1))])];
        let mem = MemPlugin::from_records("M", schema, &recs).unwrap();
        assert!(mem.unit_byte_span(0).is_none());
    }
}
