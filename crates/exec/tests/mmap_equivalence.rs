//! Mmap-vs-owned differential tests over the fuzzer fixtures.
//!
//! The ingest refactor made every raw reader generic over its
//! [`vida_formats::MapMode`] backing: `RawData::Mapped` (shared read-only
//! file mapping) or `RawData::Owned` (a heap buffer, from `from_bytes` or
//! the `MapMode::Never` escape hatch). The backing must be *unobservable* above
//! the byte layer. These tests pin that down on the PR-5 fuzzer fixtures —
//! RFC 4180 escapes, quoted newlines, surrogate pairs, nested lists:
//!
//! - CSV positional-map offsets (`field_byte_span`) and the row index
//!   (`unit_offsets`) are identical on all three backings,
//! - JSON semi-index spans (`field_span`) are identical,
//! - query results agree at 1 and 8 worker threads on every backing.

mod common;

use common::{
    a_schema, b_schema, csv_a_bytes, file_catalog, fixture_path, json_b_bytes, json_n_bytes,
    n_schema, owned_catalog,
};
use vida_algebra::{rewrite, Plan};
use vida_exec::{run_jit_with_stats, run_volcano, JitOptions, SourceProvider};
use vida_formats::csv::CsvFile;
use vida_formats::json::JsonFile;
use vida_formats::MapMode;
use vida_lang::{BinOp, Expr};
use vida_types::{CollectionKind, Monoid, PrimitiveMonoid};

#[test]
fn csv_posmap_offsets_identical_across_backings() {
    let path = fixture_path("posmap", "A.csv");
    std::fs::write(&path, csv_a_bytes()).unwrap();
    let owned = CsvFile::from_bytes("A", csv_a_bytes(), b',', true, a_schema()).unwrap();
    let mapped = CsvFile::open_with("A", &path, b',', true, a_schema(), MapMode::Auto).unwrap();
    let unmapped = CsvFile::open_with("A", &path, b',', true, a_schema(), MapMode::Never).unwrap();
    #[cfg(unix)]
    assert!(mapped.is_mapped(), "Auto must map a regular file on unix");
    assert!(!unmapped.is_mapped());
    assert!(!owned.is_mapped());

    // The quote-aware row index (morsel grid) is byte-identical.
    assert_eq!(mapped.unit_offsets(), owned.unit_offsets());
    assert_eq!(unmapped.unit_offsets(), owned.unit_offsets());

    // Every field's positional-map span is byte-identical — locating them
    // also populates each file's posmap through the same SWAR scan path.
    for row in 0..owned.num_rows() {
        for col in 0..a_schema().len() {
            let span = owned.field_byte_span(row, col).unwrap();
            assert_eq!(
                mapped.field_byte_span(row, col).unwrap(),
                span,
                "row {row} col {col}: mapped posmap deviates"
            );
            assert_eq!(
                unmapped.field_byte_span(row, col).unwrap(),
                span,
                "row {row} col {col}: owned-file posmap deviates"
            );
        }
    }
}

#[test]
fn json_semi_index_spans_identical_across_backings() {
    for (name, bytes, schema) in [
        ("B.json", json_b_bytes(), b_schema()),
        ("N.json", json_n_bytes(), n_schema()),
    ] {
        let path = fixture_path("semiindex", name);
        std::fs::write(&path, &bytes).unwrap();
        let owned = JsonFile::from_bytes(name, bytes, schema.clone()).unwrap();
        let mapped = JsonFile::open_with(name, &path, schema.clone(), MapMode::Auto).unwrap();
        let unmapped = JsonFile::open_with(name, &path, schema.clone(), MapMode::Never).unwrap();
        #[cfg(unix)]
        assert!(mapped.is_mapped(), "Auto must map a regular file on unix");
        assert!(!unmapped.is_mapped());

        let fields: Vec<String> = schema.fields().iter().map(|f| f.name.clone()).collect();
        for row in 0..owned.num_objects() {
            for field in &fields {
                let span = owned.field_span(row, field).unwrap();
                assert_eq!(
                    mapped.field_span(row, field).unwrap(),
                    span,
                    "{name} row {row} field {field}: mapped semi-index deviates"
                );
                assert_eq!(
                    unmapped.field_span(row, field).unwrap(),
                    span,
                    "{name} row {row} field {field}: owned-file semi-index deviates"
                );
            }
        }
    }
}

/// Representative plans over every fixture: quoted-CSV strings, escaped
/// JSON strings, an unnest, and a cross-format equi join.
fn plans() -> Vec<(&'static str, Plan)> {
    let list_of = |dataset: &str, binding: &str, field: &str| Plan::Reduce {
        input: Box::new(Plan::Scan {
            dataset: dataset.into(),
            binding: binding.into(),
        }),
        monoid: Monoid::Collection(CollectionKind::List),
        head: Expr::var(binding).proj(field),
    };
    let unnest_sum = Plan::Reduce {
        input: Box::new(Plan::Unnest {
            input: Box::new(Plan::Scan {
                dataset: "N".into(),
                binding: "n".into(),
            }),
            binding: "v".into(),
            path: Expr::var("n").proj("xs"),
        }),
        monoid: Monoid::Primitive(PrimitiveMonoid::Sum),
        head: Expr::var("v"),
    };
    let join_count = Plan::Reduce {
        input: Box::new(Plan::Join {
            left: Box::new(Plan::Scan {
                dataset: "A".into(),
                binding: "a".into(),
            }),
            right: Box::new(Plan::Scan {
                dataset: "B".into(),
                binding: "b".into(),
            }),
            predicate: Expr::bin(
                BinOp::Eq,
                Expr::var("a").proj("k"),
                Expr::var("b").proj("k"),
            ),
        }),
        monoid: Monoid::Primitive(PrimitiveMonoid::Count),
        head: Expr::int(1),
    };
    vec![
        ("list A.s", list_of("A", "a", "s")),
        ("list B.s", list_of("B", "b", "s")),
        ("sum unnest N.xs", unnest_sum),
        ("count A join B", join_count),
    ]
}

#[test]
fn query_results_identical_across_backings_at_1_and_8_threads() {
    let owned = owned_catalog();
    let auto = file_catalog("query_auto", MapMode::Auto);
    let never = file_catalog("query_never", MapMode::Never);
    #[cfg(unix)]
    for name in ["A", "B", "N"] {
        assert!(auto.plugin(name).unwrap().is_mapped(), "{name} not mapped");
        assert!(!never.plugin(name).unwrap().is_mapped());
    }

    for (what, raw) in plans() {
        let plan = rewrite(&raw);
        let oracle = run_volcano(&plan, &owned).unwrap();
        for (backing, cat) in [("owned", &owned), ("mapped", &auto), ("no-mmap", &never)] {
            for threads in [1usize, 8] {
                let opts = JitOptions {
                    threads,
                    morsel_rows: 2,
                    ..Default::default()
                };
                let (v, stats) = run_jit_with_stats(&plan, cat, &opts)
                    .unwrap_or_else(|e| panic!("{what} [{backing} x{threads}]: {e}"));
                assert_eq!(v, oracle, "{what} [{backing} x{threads}] deviates");
                assert!(
                    stats.fused_stage_depth >= 2,
                    "{what} [{backing} x{threads}] reported no fused chain"
                );
            }
        }
    }
}
