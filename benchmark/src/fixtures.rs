//! Seeded raw inputs as real files, and the benchmark's own reading of
//! them.
//!
//! Bytes come from the repository's generators (`vida_bench::fixtures`,
//! `vida_workload::generate_wide_*`); the engine only ever sees the files.
//! The oracle needs the same data as plain arrays, and must not get them
//! through the engine's readers, so [`Tables`] re-reads the generated
//! bytes with the few lines of format knowledge below.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use vida_bench::fixtures;
use vida_formats::csv::CsvFile;
use vida_formats::json::JsonFile;
use vida_formats::plugin::{CsvPlugin, JsonPlugin};
use vida_formats::{InputPlugin, MapMode};
use vida_types::Schema;
use vida_workload::{generate_wide_csv, generate_wide_ndjson, wide_schema};

/// Columns of the wide fixtures (the issue's 32).
pub const WIDE_COLS: usize = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Patients,
    Genetics,
    Regions,
    WideCsv,
    WideJson,
}

impl Kind {
    /// The dataset name queries use.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Patients => "Patients",
            Kind::Genetics => "Genetics",
            Kind::Regions => "Regions",
            Kind::WideCsv => "WideCsv",
            Kind::WideJson => "WideJson",
        }
    }

    fn file_name(self) -> &'static str {
        match self {
            Kind::Patients => "patients.csv",
            Kind::Genetics => "genetics.json",
            Kind::Regions => "regions.json",
            Kind::WideCsv => "wide.csv",
            Kind::WideJson => "wide.json",
        }
    }

    fn is_csv(self) -> bool {
        matches!(self, Kind::Patients | Kind::WideCsv)
    }

    pub fn schema(self) -> Schema {
        match self {
            Kind::Patients => fixtures::patients_schema(),
            Kind::Genetics => fixtures::genetics_schema(),
            Kind::Regions => fixtures::regions_schema(),
            Kind::WideCsv | Kind::WideJson => wide_schema(WIDE_COLS),
        }
    }

    /// The first `rows` rows of this dataset. Every generator draws its
    /// random numbers row by row, so a longer render starts with the
    /// shorter one — which is what lets [`Dataset::append`] grow a file by
    /// writing only the new suffix.
    fn render(self, rows: usize, seed: u64) -> Vec<u8> {
        match self {
            Kind::Patients => fixtures::patients_csv(rows, seed),
            Kind::Genetics => fixtures::genetics_json(rows, seed),
            Kind::Regions => fixtures::regions_json(rows, seed),
            Kind::WideCsv => generate_wide_csv(rows, WIDE_COLS, seed),
            Kind::WideJson => generate_wide_ndjson(rows, WIDE_COLS, seed),
        }
    }
}

/// One raw input file on disk.
#[derive(Debug, Clone)]
pub struct Dataset {
    pub kind: Kind,
    pub path: PathBuf,
    pub rows: usize,
    seed: u64,
    bytes: usize,
}

impl Dataset {
    /// Generate `rows` rows and write them as a fresh file under `dir`.
    /// Returns the dataset and its bytes (for the oracle's tables).
    pub fn create(kind: Kind, dir: &Path, rows: usize, seed: u64) -> (Dataset, Vec<u8>) {
        let path = dir.join(kind.file_name());
        let data = kind.render(rows, seed);
        std::fs::write(&path, &data).expect("write fixture file");
        let dataset = Dataset {
            kind,
            path,
            rows,
            seed,
            bytes: data.len(),
        };
        (dataset, data)
    }

    /// Grow the file on disk by `extra` rows; returns the appended bytes.
    pub fn append(&mut self, extra: usize) -> Vec<u8> {
        let grown = self.kind.render(self.rows + extra, self.seed);
        let tail = grown[self.bytes..].to_vec();
        let mut fh = std::fs::OpenOptions::new()
            .append(true)
            .open(&self.path)
            .expect("reopen fixture for append");
        fh.write_all(&tail).expect("append fixture rows");
        self.rows += extra;
        self.bytes = grown.len();
        tail
    }

    pub fn raw_bytes(&self) -> usize {
        self.bytes
    }

    /// Open the file the way a user would: `open_with`, memory-mapped.
    pub fn open(&self) -> Arc<dyn InputPlugin> {
        let name = self.kind.name();
        let schema = self.kind.schema();
        if self.kind.is_csv() {
            let file = CsvFile::open_with(name, &self.path, b',', true, schema, MapMode::Auto)
                .expect("generated CSV opens");
            Arc::new(CsvPlugin::new(file))
        } else {
            let file = JsonFile::open_with(name, &self.path, schema, MapMode::Auto)
                .expect("generated NDJSON opens");
            Arc::new(JsonPlugin::new(file))
        }
    }
}

/// One cell of a wide fixture, as the oracle sees it. Strings keep their
/// raw text (quotes and escapes included): the oracle only ever tests them
/// for equality with a plain literal, which a quoted cell never equals.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    Int(i64),
    Float(f64),
    Text(String),
}

/// The generated data as plain arrays, indexed by row id (every fixture's
/// key column is the row index).
#[derive(Debug, Default)]
pub struct Tables {
    pub age: Vec<i64>,
    pub snp: Vec<f64>,
    pub voxels: Vec<Vec<i64>>,
    /// `wide_csv[col][row]`.
    pub wide_csv: Vec<Vec<Cell>>,
    pub wide_json: Vec<Vec<Cell>>,
}

impl Tables {
    /// Read `data` — a whole file or an appended suffix of one — into the
    /// arrays of `kind`.
    pub fn extend(&mut self, kind: Kind, data: &[u8]) {
        let text = std::str::from_utf8(data).expect("fixtures are UTF-8");
        for line in text.lines() {
            match kind {
                Kind::Patients => {
                    if let Some(age) = line.split(',').nth(1).and_then(|a| a.parse().ok()) {
                        self.age.push(age); // the header's "age" does not parse
                    }
                }
                Kind::Genetics => {
                    let snp = line
                        .rsplit_once("\"snp\":")
                        .and_then(|(_, v)| v.trim_end_matches('}').parse().ok())
                        .expect("genetics row has a snp");
                    self.snp.push(snp);
                }
                Kind::Regions => {
                    let inner = line
                        .split_once('[')
                        .and_then(|(_, rest)| rest.split_once(']'))
                        .expect("regions row has a voxels array")
                        .0;
                    let voxels = inner
                        .split(',')
                        .filter(|v| !v.is_empty())
                        .map(|v| v.parse().expect("voxel is an int"))
                        .collect();
                    self.voxels.push(voxels);
                }
                Kind::WideCsv => {
                    if !line.starts_with("c0,") {
                        push_wide_row(&mut self.wide_csv, split_csv(line));
                    }
                }
                Kind::WideJson => push_wide_row(&mut self.wide_json, split_json(line)),
            }
        }
    }

    pub fn rows(&self, kind: Kind) -> usize {
        match kind {
            Kind::Patients => self.age.len(),
            Kind::Genetics => self.snp.len(),
            Kind::Regions => self.voxels.len(),
            Kind::WideCsv => self.wide_csv.first().map_or(0, Vec::len),
            Kind::WideJson => self.wide_json.first().map_or(0, Vec::len),
        }
    }
}

fn push_wide_row(columns: &mut Vec<Vec<Cell>>, cells: Vec<&str>) {
    assert_eq!(cells.len(), WIDE_COLS, "wide row has {WIDE_COLS} cells");
    columns.resize_with(WIDE_COLS, Vec::new);
    for (c, raw) in cells.into_iter().enumerate() {
        // `wide_schema`: c0 and every third column are ints, c%3==1 floats.
        let cell = match c % 3 {
            0 => Cell::Int(raw.parse().expect("int cell")),
            1 => Cell::Float(raw.parse().expect("float cell")),
            _ => Cell::Text(raw.to_string()),
        };
        columns[c].push(cell);
    }
}

/// Split one CSV record into raw cells; a cell that starts with `"` runs
/// to its closing quote (`""` is an escaped quote), commas included.
fn split_csv(line: &str) -> Vec<&str> {
    let bytes = line.as_bytes();
    let mut cells = Vec::new();
    let mut start = 0;
    while start <= bytes.len() {
        let mut end = start;
        if bytes.get(start) == Some(&b'"') {
            end += 1;
            while end < bytes.len() {
                if bytes[end] == b'"' {
                    if bytes.get(end + 1) == Some(&b'"') {
                        end += 1;
                    } else {
                        break;
                    }
                }
                end += 1;
            }
        }
        while end < bytes.len() && bytes[end] != b',' {
            end += 1;
        }
        cells.push(&line[start..end]);
        start = end + 1;
    }
    cells
}

/// Split one flat NDJSON object into its raw values, in field order; a
/// string value runs to its unescaped closing quote.
fn split_json(line: &str) -> Vec<&str> {
    let bytes = line.as_bytes();
    let mut cells = Vec::new();
    let mut i = 1; // past '{'
    while i < bytes.len() && bytes[i] == b'"' {
        // Field name: generated names never contain escapes.
        i = i + 1 + line[i + 1..].find('"').expect("closing name quote") + 2; // past `":`
        let start = i;
        if bytes[i] == b'"' {
            i += 1;
            while bytes[i] != b'"' {
                i += if bytes[i] == b'\\' { 2 } else { 1 };
            }
            i += 1;
        } else {
            while bytes[i] != b',' && bytes[i] != b'}' {
                i += 1;
            }
        }
        cells.push(&line[start..i]);
        i += 1; // past ',' or '}'
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitters_keep_quoted_cells_whole() {
        assert_eq!(
            split_csv("7,0.5000,\"v1,2\",9,\"q\"\"3\",w4"),
            vec!["7", "0.5000", "\"v1,2\"", "9", "\"q\"\"3\"", "w4"]
        );
        assert_eq!(
            split_json("{\"c0\":7,\"c1\":0.5000,\"c2\":\"s\\\"12\",\"c3\":9}"),
            vec!["7", "0.5000", "\"s\\\"12\"", "9"]
        );
    }

    #[test]
    fn tables_follow_files_across_appends() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-fixtures");
        std::fs::create_dir_all(&dir).unwrap();
        for kind in [
            Kind::Patients,
            Kind::Genetics,
            Kind::Regions,
            Kind::WideCsv,
            Kind::WideJson,
        ] {
            let mut tables = Tables::default();
            let (mut ds, data) = Dataset::create(kind, &dir, 50, 9);
            tables.extend(kind, &data);
            tables.extend(kind, &ds.append(7));
            assert_eq!(tables.rows(kind), 57, "{kind:?}");
            // The grown file is exactly the 57-row render, and the engine's
            // reader agrees on the row count.
            assert_eq!(std::fs::read(&ds.path).unwrap(), kind.render(57, 9));
            assert_eq!(ds.open().num_units(), 57);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
