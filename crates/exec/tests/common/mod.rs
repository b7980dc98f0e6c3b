//! Shared raw fixtures for the exec integration tests: the PR-5 fuzzer's
//! null-riddled CSV/JSON files with hostile strings (RFC 4180 escapes,
//! quoted newlines, surrogate pairs) and one nested JSON table, buildable
//! on either `RawData` backing — owned bytes via `from_bytes`, or real
//! files under `CARGO_TARGET_TMPDIR` opened through the mmap path.
//!
//! Each integration-test binary compiles its own copy of this module and
//! uses a different subset of it, so unused items are expected.
#![allow(dead_code)]

use std::path::PathBuf;
use std::sync::Arc;
use vida_exec::MemoryCatalog;
use vida_formats::csv::CsvFile;
use vida_formats::json::JsonFile;
use vida_formats::plugin::{CsvPlugin, JsonPlugin};
use vida_formats::MapMode;
use vida_types::{CollectionKind, Schema, Type, Value};

/// `A.s` values as parsed — each one exercises RFC 4180 quoting: an
/// embedded delimiter, a doubled-quote escape, and a quoted newline.
pub const COLORS: [&str; 3] = ["re,d", "gr\"een", "bl\nue"];
/// `A.s` raw CSV fields encoding [`COLORS`].
pub const COLORS_RAW: [&str; 3] = ["\"re,d\"", "\"gr\"\"een\"", "\"bl\nue\""];

/// `B.s` values as parsed — astral-plane and BMP chars.
pub const EMOJIS: [&str; 3] = ["\u{1F600}!", "snow\u{2603}", "plain"];
/// `B.s` raw JSON string bodies encoding [`EMOJIS`]: the astral char as a
/// `\uXXXX` surrogate pair, the BMP char as a single escape.
pub const EMOJIS_RAW: [&str; 3] = ["\\ud83d\\ude00!", "snow\\u2603", "plain"];

/// `A(k, x, f, s)` raw CSV bytes: x is null (empty field) on every 5th-ish
/// row; f is dyadic; s carries the quoted/escaped strings, so every scan
/// (serial and morsel-aligned parallel) runs through the quote-aware
/// format layer.
pub fn csv_a_bytes() -> Vec<u8> {
    csv_a_rows(0, 16)
}

/// Rows `lo..hi` of the `A` fixture — the suffix is appendable to a file
/// holding rows `0..lo` (the append-mutation fuzzer grows fixtures with
/// the same row formulas the cold oracle regenerates).
pub fn csv_a_rows(lo: i64, hi: i64) -> Vec<u8> {
    let mut csv = if lo == 0 {
        String::from("k,x,f,s\n")
    } else {
        String::new()
    };
    for i in lo..hi {
        let x = if i % 5 == 3 {
            String::new()
        } else {
            ((i * 3) % 20).to_string()
        };
        let f = (i % 16) as f64 / 16.0;
        let s = COLORS_RAW[(i % 3) as usize];
        csv.push_str(&format!("{i},{x},{f},{s}\n"));
    }
    csv.into_bytes()
}

pub fn a_schema() -> Schema {
    Schema::from_pairs([
        ("k", Type::Int),
        ("x", Type::Int),
        ("f", Type::Float),
        ("s", Type::Str),
    ])
}

/// `B(k, y, s)` raw newline-delimited JSON bytes: duplicate keys
/// (k = i % 8), nulls in y, and surrogate-pair-escaped strings in s.
pub fn json_b_bytes() -> Vec<u8> {
    json_b_rows(0, 12)
}

/// Rows `lo..hi` of the `B` fixture (see [`csv_a_rows`]).
pub fn json_b_rows(lo: i64, hi: i64) -> Vec<u8> {
    let mut json = String::new();
    for i in lo..hi {
        let y = if i % 7 == 2 {
            "null".to_string()
        } else {
            ((i * 5) % 30).to_string()
        };
        let s = EMOJIS_RAW[(i % 3) as usize];
        json.push_str(&format!("{{\"k\":{},\"y\":{y},\"s\":\"{s}\"}}\n", i % 8));
    }
    json.into_bytes()
}

pub fn b_schema() -> Schema {
    Schema::from_pairs([("k", Type::Int), ("y", Type::Int), ("s", Type::Str)])
}

/// `N(id, xs, ys, mat)` raw nested JSON bytes: scalar lists, record lists
/// (with an occasional null element field), and lists of lists.
pub fn json_n_bytes() -> Vec<u8> {
    json_n_rows(0, 10)
}

/// Rows `lo..hi` of the nested `N` fixture (see [`csv_a_rows`]).
pub fn json_n_rows(lo: i64, hi: i64) -> Vec<u8> {
    let mut json = String::new();
    for i in lo..hi {
        let xs: Vec<String> = (0..(i % 4)).map(|j| (i + 2 * j).to_string()).collect();
        let ys: Vec<String> = (0..(i % 3))
            .map(|j| {
                let u = if (i + j) % 6 == 4 {
                    "null".to_string()
                } else {
                    (i + j).to_string()
                };
                // Forced decimals keep w a Float at parse time; eighths are
                // exact in both decimal and binary.
                format!("{{\"u\":{u},\"w\":{:.4}}}", ((i + j) % 8) as f64 / 8.0)
            })
            .collect();
        let mat: Vec<String> = (0..(i % 3))
            .map(|j| {
                let inner: Vec<String> = ((i + j) % 3..3).map(|v| v.to_string()).collect();
                format!("[{}]", inner.join(","))
            })
            .collect();
        json.push_str(&format!(
            "{{\"id\":{i},\"xs\":[{}],\"ys\":[{}],\"mat\":[{}]}}\n",
            xs.join(","),
            ys.join(","),
            mat.join(",")
        ));
    }
    json.into_bytes()
}

pub fn n_schema() -> Schema {
    let rec_ty = Type::record([("u", Type::Int), ("w", Type::Float)]);
    Schema::from_pairs([
        ("id", Type::Int),
        (
            "xs",
            Type::Collection(CollectionKind::List, Box::new(Type::Int)),
        ),
        (
            "ys",
            Type::Collection(CollectionKind::List, Box::new(rec_ty)),
        ),
        (
            "mat",
            Type::Collection(
                CollectionKind::List,
                Box::new(Type::Collection(CollectionKind::List, Box::new(Type::Int))),
            ),
        ),
    ])
}

/// The fixture catalog over owned in-memory bytes (`RawData::Owned`).
pub fn owned_catalog() -> MemoryCatalog {
    let cat = MemoryCatalog::new();
    let a = CsvFile::from_bytes("A", csv_a_bytes(), b',', true, a_schema()).unwrap();
    cat.register(Arc::new(CsvPlugin::new(a)));
    let b = JsonFile::from_bytes("B", json_b_bytes(), b_schema()).unwrap();
    cat.register(Arc::new(JsonPlugin::new(b)));
    let n = JsonFile::from_bytes("N", json_n_bytes(), n_schema()).unwrap();
    cat.register(Arc::new(JsonPlugin::new(n)));
    cat
}

/// Write fixture `name` into `CARGO_TARGET_TMPDIR`, namespaced by `tag` so
/// concurrently-running tests never race on a path.
pub fn fixture_path(tag: &str, name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("exec_fixture_{tag}_{name}"))
}

/// The same catalog over real files opened with an explicit backing
/// policy: `MapMode::Auto` maps the files (`RawData::Mapped` on unix),
/// `MapMode::Never` reads them into owned buffers.
pub fn file_catalog(tag: &str, mode: MapMode) -> MemoryCatalog {
    let a_path = fixture_path(tag, "A.csv");
    let b_path = fixture_path(tag, "B.json");
    let n_path = fixture_path(tag, "N.json");
    std::fs::write(&a_path, csv_a_bytes()).unwrap();
    std::fs::write(&b_path, json_b_bytes()).unwrap();
    std::fs::write(&n_path, json_n_bytes()).unwrap();

    let cat = MemoryCatalog::new();
    let a = CsvFile::open_with("A", &a_path, b',', true, a_schema(), mode).unwrap();
    cat.register(Arc::new(CsvPlugin::new(a)));
    let b = JsonFile::open_with("B", &b_path, b_schema(), mode).unwrap();
    cat.register(Arc::new(JsonPlugin::new(b)));
    let n = JsonFile::open_with("N", &n_path, n_schema(), mode).unwrap();
    cat.register(Arc::new(JsonPlugin::new(n)));
    cat
}

/// Register `N(id, xs)` over 150 rows: row `i` holds `i % 5` int elements
/// in `0..70`, with a null element wherever `(i + j) % 9 == 4`.
pub fn register_nested_ints(cat: &MemoryCatalog) {
    let rows: Vec<Value> = (0..150i64)
        .map(|i| {
            let xs = (0..i % 5)
                .map(|j| match (i + j) % 9 {
                    4 => Value::Null,
                    _ => Value::Int((i * 3 + j * 11) % 70),
                })
                .collect();
            Value::record([("id", Value::Int(i)), ("xs", Value::bag(xs))])
        })
        .collect();
    let schema = Schema::from_pairs([("id", Type::Int), ("xs", Type::bag(Type::Int))]);
    cat.register_records("N", schema, &rows).unwrap();
}
