//! The benchmark's own checks: the names the runner emits are exactly the
//! ones `BENCHMARK.json` lists, everything it writes parses with the
//! engine's JSON reader, and the oracle agrees with the independent
//! interpreter (`run_volcano` over a fresh catalog) on every query shape.

use std::path::{Path, PathBuf};
use std::process::Command;
use vida_formats::json::parse_json;
use vida_types::Value;

use vida_benchmark::{fixtures, names, oracle};

fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn parse(text: &str, what: &str) -> Value {
    let (value, end) =
        parse_json(text.as_bytes(), 0, what).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert!(text[end..].trim().is_empty(), "{what}: trailing bytes");
    value
}

fn strs<'a>(list: &'a Value, key: &str) -> Vec<&'a str> {
    list.elements()
        .expect("a list")
        .iter()
        .map(|item| item.field(key).and_then(Value::as_str).expect("a string"))
        .collect()
}

fn field_names(record: &Value) -> Vec<&str> {
    match record {
        Value::Record(fields) => fields.iter().map(|(n, _)| n.as_str()).collect(),
        other => panic!("expected an object, got {other}"),
    }
}

#[test]
fn benchmark_json_lists_exactly_the_runners_names() {
    let text = std::fs::read_to_string(bench_dir().join("../BENCHMARK.json")).unwrap();
    let contract = parse(&text, "BENCHMARK.json");
    let workloads = contract.field("workloads").unwrap();
    assert_eq!(
        strs(workloads, "name"),
        names::WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
    );
    assert_eq!(
        strs(workloads, "why"),
        names::WORKLOADS.iter().map(|w| w.why).collect::<Vec<_>>()
    );
    for (key, table) in [
        ("end_to_end", names::END_TO_END),
        ("per_layer", names::PER_LAYER),
    ] {
        let listed = contract.field(key).unwrap();
        for (what, of) in [
            ("name", (|m| m.name) as fn(&names::Metric) -> &'static str),
            ("unit", |m| m.unit),
            ("better", |m| m.better),
        ] {
            assert_eq!(
                strs(listed, what),
                table.iter().map(of).collect::<Vec<_>>(),
                "{key}.{what}"
            );
        }
    }
    // The driver's limits on what the file may say.
    for w in names::WORKLOADS {
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "{}: why too long",
            w.name
        );
    }
    for m in names::END_TO_END.iter().chain(names::PER_LAYER) {
        assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
    }
    let bounds = contract.field("end_to_end").unwrap().elements().unwrap();
    for b in bounds {
        let bound = b.field("bound").and_then(Value::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "bound out of range: {b}");
    }
    let setup = bounds
        .iter()
        .find(|b| b.field("name").and_then(Value::as_str) == Some("setup_s"))
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.field("unit").and_then(Value::as_str), Some("s"));
    assert_eq!(
        contract.field("run_seconds").and_then(Value::as_f64),
        Some(10.0),
        "set::RUN_SECONDS and BENCHMARK.json disagree"
    );
}

/// Run the built runner; returns its stdout lines.
fn runner(args: &[&str]) -> Vec<String> {
    let output = Command::new(env!("CARGO_BIN_EXE_vida-benchmark"))
        .args(args)
        .env("VIDA_BENCHMARK_DIR", bench_dir())
        .output()
        .expect("runner starts");
    assert!(
        output.status.success(),
        "runner failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

#[test]
fn a_run_emits_exactly_the_listed_metrics_and_parses() {
    for (trace, table) in [("0", names::END_TO_END), ("1", names::PER_LAYER)] {
        let lines = runner(&[
            "--workload",
            "append_requery",
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--quick",
        ]);
        let last = parse(lines.last().unwrap(), "the driver's line");
        assert_eq!(
            field_names(&last),
            ["correct", "attempted", "failed", "metrics"]
        );
        assert_eq!(last.field("correct"), Some(&Value::Bool(true)));
        assert_eq!(last.field("failed"), Some(&Value::Int(0)));
        assert!(last.field("attempted").and_then(Value::as_i64).unwrap() >= 1);
        let metrics = last.field("metrics").unwrap();
        assert_eq!(
            field_names(metrics),
            table.iter().map(|m| m.name).collect::<Vec<_>>(),
            "trace {trace}"
        );
        for m in table {
            let entry = metrics.field(m.name).unwrap();
            assert_eq!(field_names(entry), ["value", "unit"]);
            assert_eq!(entry.field("unit").and_then(Value::as_str), Some(m.unit));
            let value = entry.field("value").and_then(Value::as_f64).unwrap();
            assert!(value.is_finite(), "{}", m.name);
            if trace == "0" {
                assert!(value > 0.0, "end-to-end metric {} must never be 0", m.name);
            }
        }
        // One human-readable line per metric as well.
        for m in table {
            let prefix = format!("append_requery {} ", m.name);
            assert!(
                lines.iter().any(|l| l.starts_with(&prefix)),
                "no line for {}",
                m.name
            );
        }
    }
    let trace = std::fs::read_to_string(bench_dir().join("out/trace_append_requery.json")).unwrap();
    parse(&trace, "trace_append_requery.json");
}

#[test]
fn the_quick_set_writes_results_the_engine_can_read() {
    let lines = runner(&["--quick", "--seed", "3"]);
    for w in names::WORKLOADS {
        for m in names::END_TO_END {
            let prefix = format!("{} {} ", w.name, m.name);
            assert!(
                lines.iter().any(|l| l.starts_with(&prefix)),
                "no line {prefix}"
            );
        }
    }
    let text = std::fs::read_to_string(bench_dir().join("out/results.json")).unwrap();
    let results = parse(&text, "results.json");
    assert_eq!(results.field("seed"), Some(&Value::Int(3)));
    for key in ["git_sha", "rustc", "nproc", "workloads"] {
        assert!(results.field(key).is_some(), "results.json lacks {key}");
    }
    for w in names::WORKLOADS {
        let run = results
            .field("workloads")
            .and_then(|ws| ws.field(w.name))
            .unwrap();
        assert_eq!(run.field("why").and_then(Value::as_str), Some(w.why));
        let e2e = run.field("end_to_end").unwrap();
        for key in [
            "threads",
            "clients",
            "latency_samples",
            "slowdown",
            "attempted",
            "failed",
        ] {
            assert!(
                e2e.field(key).and_then(Value::as_f64).is_some(),
                "{}: no {key}",
                w.name
            );
        }
        assert_eq!(e2e.field("failed"), Some(&Value::Int(0)), "{}", w.name);
        for m in names::END_TO_END {
            let entry = e2e
                .field("metrics")
                .and_then(|ms| ms.field(m.name))
                .unwrap();
            assert_eq!(field_names(entry), ["value", "unit", "n", "q1", "q3"]);
        }
    }
}

/// Every shape the workloads send, over fixtures small enough for the
/// nested-loop interpreter: the oracle must give `run_volcano`'s answer.
#[test]
fn the_oracle_agrees_with_the_volcano_interpreter() {
    use fixtures::{Dataset, Kind, Tables};
    use oracle::{values_match, Oracle, Query, WideOp, WideSpec};
    use vida_exec::{run_volcano, MemoryCatalog};
    use vida_workload::{
        generate, generate_append_replay, generate_join_heavy, generate_nested_heavy,
        WorkloadConfig,
    };

    let dir: PathBuf = bench_dir().join("out/test-oracle");
    std::fs::create_dir_all(&dir).unwrap();
    let mut tables = Tables::default();
    let catalog = MemoryCatalog::new();
    // Uneven sizes, so every `min(..)` in the oracle is exercised.
    for (kind, rows) in [
        (Kind::Patients, 90),
        (Kind::Genetics, 60),
        (Kind::Regions, 40),
        (Kind::WideCsv, 50),
        (Kind::WideJson, 50),
    ] {
        let (ds, data) = Dataset::create(kind, &dir, rows, 21);
        tables.extend(kind, &data);
        catalog.register(ds.open());
    }
    let oracle = Oracle { tables };
    let mut queries: Vec<Query> = Vec::new();
    // Keys over (and past) the row counts, including 0: empty selections.
    for (seed, key_space) in [(1, 100), (2, 30), (3, 1)] {
        let config = WorkloadConfig {
            seed,
            queries: 60,
            locality: 0.5,
            key_space,
            hot_keys: (key_space / 4).max(1),
        };
        for mix in [
            generate(&config),
            generate_join_heavy(&config),
            generate_nested_heavy(&config),
            generate_append_replay(&config),
        ] {
            queries.extend(mix.into_iter().map(Query::from));
        }
    }
    for kind in [Kind::WideCsv, Kind::WideJson] {
        for col in 1..fixtures::WIDE_COLS {
            for key in [0, 7, 50, 80] {
                let op = match col % 3 {
                    0 => WideOp::SumBelow(key),
                    1 => WideOp::AvgBelow(key),
                    // 1 in 3 string cells is a plain `w<n>` / `p<n>`.
                    _ if kind == Kind::WideCsv => WideOp::CountEq(format!("w{}", key * 7)),
                    _ => WideOp::CountEq(format!("p{}", key * 7)),
                };
                queries.push(WideSpec { kind, col, op }.into_query());
            }
        }
    }
    // ... and literals that do occur, so the equality filters hit rows.
    for (kind, columns) in [
        (Kind::WideCsv, &oracle.tables.wide_csv),
        (Kind::WideJson, &oracle.tables.wide_json),
    ] {
        for col in (2..fixtures::WIDE_COLS).step_by(3) {
            let plain = columns[col].iter().find_map(|cell| match cell {
                fixtures::Cell::Text(t) => Some(t.trim_matches('"'))
                    .filter(|t| t.starts_with(['w', 'p']) && t[1..].parse::<u32>().is_ok()),
                _ => None,
            });
            let lit = plain.expect("a plain string cell in 50 rows").to_string();
            queries.push(
                WideSpec {
                    kind,
                    col,
                    op: WideOp::CountEq(lit),
                }
                .into_query(),
            );
        }
    }

    let mut shapes = std::collections::BTreeSet::new();
    for query in &queries {
        let expr = vida_lang::parse(&query.text).unwrap();
        let plan = vida_algebra::rewrite(&vida_algebra::lower(&expr).unwrap());
        let want = run_volcano(&plan, &catalog).unwrap();
        let got = oracle.expected(query).unwrap();
        assert!(
            values_match(&got, &want),
            "{}\n oracle {got}\n volcano {want}",
            query.text
        );
        shapes.insert(oracle::shape_of(&query.text).0);
    }
    // 4 HBP + 4 scan/append + 3 join-heavy (its JoinSum is the HBP one) + 5
    // nested shapes, and the 3 wide operators over 2 files x 31 columns.
    assert!(
        shapes.len() >= 16 + 62,
        "only {} shapes were checked",
        shapes.len()
    );
    let hits = queries
        .iter()
        .filter(|q| q.text.contains("count w"))
        .filter(|q| oracle.expected(q).unwrap() != Value::Int(0));
    assert!(
        hits.count() >= 20,
        "the wide string filters must match rows"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
