//! `reproduce bench-compare A.json B.json`: the regression gate over two
//! `bash benchmark/run.sh` set artifacts (the `BENCH_<pr>.json` files at
//! the repo root), judged by the bounds and directions of `BENCHMARK.json`.
//! Either side may be several runs (`A1.json,A2.json`): each metric is then
//! judged on the median of the runs and on the spread between them. With
//! `--claim <workload>/<metric>` it also checks a claimed gain: that row
//! must be `ok` — resolved, not `unresolved` — and B better than A.

use vida_formats::json::parse_json;
use vida_types::Value;

fn parse(text: &str, what: &str) -> Result<Value, String> {
    parse_json(text.as_bytes(), 0, what)
        .map(|(v, _)| v)
        .map_err(|e| format!("{what} does not parse: {e}"))
}

fn number(v: &Value, path: &[&str]) -> Result<f64, String> {
    path.iter()
        .try_fold(v, |v, key| v.field(key))
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("no number at {}", path.join(".")))
}

fn list<'a>(contract: &'a Value, key: &str) -> Result<&'a [Value], String> {
    contract
        .field(key)
        .and_then(Value::elements)
        .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))
}

fn name_of(item: &Value) -> Result<&str, String> {
    item.field("name")
        .and_then(Value::as_str)
        .ok_or_else(|| "BENCHMARK.json entry without a name".to_string())
}

/// One artifact's reading of one metric: its value and its quartiles.
fn reading(doc: &Value, workload: &str, metric: &str) -> Result<(f64, [f64; 2]), String> {
    let at = |leaf| {
        number(
            doc,
            &["workloads", workload, "end_to_end", "metrics", metric, leaf],
        )
    };
    let (value, q1, q3) = (at("value")?, at("q1")?, at("q3")?);
    if value <= 0.0 || !value.is_finite() {
        return Err(format!(
            "{workload}.{metric} is {value}, not a positive number"
        ));
    }
    Ok((value, [q1, q3]))
}

/// One side's reading of one metric: the median of its runs' values, its
/// spread as a share of that median — a single run's quartile spread, or
/// (max − min) across several runs — and a single run's `[q1, q3]`.
fn median_reading(
    docs: &[Value],
    workload: &str,
    metric: &str,
) -> Result<(f64, f64, Option<[f64; 2]>), String> {
    let runs = docs
        .iter()
        .map(|doc| reading(doc, workload, metric))
        .collect::<Result<Vec<_>, _>>()?;
    let mut values: Vec<f64> = runs.iter().map(|r| r.0).collect();
    values.sort_by(f64::total_cmp);
    let n = values.len();
    let median = (values[(n - 1) / 2] + values[n / 2]) / 2.0;
    match runs[..] {
        [(_, [q1, q3])] => Ok((median, (q3 - q1) / median, Some([q1, q3]))),
        _ => Ok((median, (values[n - 1] - values[0]) / median, None)),
    }
}

/// Failed over attempted, each summed across a side's runs.
fn failed_share(docs: &[Value], workload: &str) -> Result<f64, String> {
    let sum = |leaf| {
        docs.iter()
            .map(|doc| number(doc, &["workloads", workload, "end_to_end", leaf]))
            .sum::<Result<f64, String>>()
    };
    Ok(sum("failed")? / sum("attempted")?.max(1.0))
}

fn runs(texts: &[impl AsRef<str>], what: &str) -> Result<Vec<Value>, String> {
    match texts {
        [] => Err(format!("no {what}")),
        _ => texts.iter().map(|t| parse(t.as_ref(), what)).collect(),
    }
}

/// Compare the runs `b` (the change) with the runs `a` (the parent) under
/// `contract` (`BENCHMARK.json`); each side holds at least one artifact.
/// Returns the table — one row per workload × end-to-end metric — and
/// whether `b` passes: no metric's median worse than `a`'s beyond its bound
/// and no workload's `failed_share` risen. A metric inside its bound whose
/// spread (on either side) exceeds the bound is `unresolved`, not `ok`: the
/// runs are too wide to tell. So is a metric beyond its bound when each
/// side is one artifact, the two `[q1, q3]` ranges overlap and either is
/// wider than the bound.
pub fn compare(
    contract: &str,
    a: &[impl AsRef<str>],
    b: &[impl AsRef<str>],
) -> Result<(String, bool), String> {
    judge(contract, a, b).map(|(table, pass, _)| (table, pass))
}

/// [`compare`], plus the verdict on one claimed gain, `claim` naming a row
/// as `<workload>/<metric>`: the claim holds when that row's verdict is
/// `ok` and B's median is better than A's. Returns the table with a closing
/// claim line, whether `b` passes the gate, and whether the claim holds; a
/// claim that names no row of the contract is an error.
pub fn compare_claim(
    contract: &str,
    a: &[impl AsRef<str>],
    b: &[impl AsRef<str>],
    claim: &str,
) -> Result<(String, bool, bool), String> {
    let (mut table, pass, rows) = judge(contract, a, b)?;
    let row = claim
        .split_once('/')
        .and_then(|(w, m)| rows.iter().find(|r| r.workload == w && r.metric == m))
        .ok_or_else(|| format!("claim {claim} names no <workload>/<metric> of BENCHMARK.json"))?;
    let holds = row.verdict == "ok" && row.improved;
    table.push_str(&format!(
        "claim {claim}: {:.4} -> {:.4} ({:+.1}%), verdict {}: {}\n",
        row.a,
        row.b,
        (row.b / row.a - 1.0) * 100.0,
        row.verdict,
        if holds { "holds" } else { "does not hold" }
    ));
    Ok((table, pass, holds))
}

/// One workload × end-to-end metric row of the table.
struct Row {
    workload: String,
    metric: String,
    a: f64,
    b: f64,
    verdict: &'static str,
    /// B's median is better than A's in the metric's direction.
    improved: bool,
}

/// The table, the gate, and the metric rows behind them.
fn judge(
    contract: &str,
    a: &[impl AsRef<str>],
    b: &[impl AsRef<str>],
) -> Result<(String, bool, Vec<Row>), String> {
    let contract = parse(contract, "BENCHMARK.json")?;
    let (a, b) = (runs(a, "first artifact")?, runs(b, "second artifact")?);
    let mut table = format!(
        "{:<18} {:<26} {:>12} {:>12} {:>7} {:>6}  verdict\n",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    let mut pass = true;
    let mut rows = Vec::new();
    let metrics = list(&contract, "end_to_end")?;
    for workload in list(&contract, "workloads")? {
        let workload = name_of(workload)?;
        for metric in metrics {
            let name = name_of(metric)?;
            let bound = number(metric, &["bound"])?;
            let higher = metric.field("better").and_then(Value::as_str) == Some("higher");
            let (va, sa, qa) = median_reading(&a, workload, name)?;
            let (vb, sb, qb) = median_reading(&b, workload, name)?;
            let worse = if higher { va / vb } else { vb / va } - 1.0;
            let wide = sa.max(sb) > bound;
            let overlap = match (qa, qb) {
                (Some([a1, a3]), Some([b1, b3])) => a1 <= b3 && b1 <= a3,
                _ => false,
            };
            let verdict = if worse > bound && !(wide && overlap) {
                pass = false;
                "WORSE"
            } else if wide {
                "unresolved"
            } else {
                "ok"
            };
            table.push_str(&format!(
                "{workload:<18} {name:<26} {va:>12.4} {vb:>12.4} {:>7.3} {bound:>6.2}  {verdict}\n",
                vb / va
            ));
            rows.push(Row {
                workload: workload.to_string(),
                metric: name.to_string(),
                a: va,
                b: vb,
                verdict,
                improved: if higher { vb > va } else { vb < va },
            });
        }
        let (fa, fb) = (failed_share(&a, workload)?, failed_share(&b, workload)?);
        let rose = fb > fa;
        pass &= !rose;
        let verdict = if rose { "WORSE" } else { "ok" };
        table.push_str(&format!(
            "{workload:<18} {:<26} {fa:>12.4} {fb:>12.4} {:>7} {:>6}  {verdict}\n",
            "failed_share", "-", "-"
        ));
    }
    Ok((table, pass, rows))
}

#[cfg(test)]
mod tests {
    use super::{compare, compare_claim};

    const CONTRACT: &str = r#"{"workloads":[{"name":"w"}],"end_to_end":[
        {"name":"lat_ms","better":"lower","bound":0.25},
        {"name":"qps","better":"higher","bound":0.25}]}"#;

    /// A one-workload artifact; `lat` is (value, q3) with q1 == value.
    fn artifact(lat: (f64, f64), qps: f64, failed: u32) -> String {
        format!(
            r#"{{"workloads":{{"w":{{"end_to_end":{{"attempted":100,"failed":{failed},"metrics":{{
            "lat_ms":{{"value":{0},"q1":{0},"q3":{1}}},
            "qps":{{"value":{qps},"q1":{qps},"q3":{qps}}}}}}}}}}}}}"#,
            lat.0, lat.1
        )
    }

    #[test]
    fn within_bounds_passes_and_wide_spread_is_unresolved() {
        let a = artifact((10.0, 10.5), 100.0, 0);
        let (table, pass) = compare(CONTRACT, &[&a], &[&artifact((12.0, 12.5), 90.0, 0)]).unwrap();
        assert!(pass, "{table}");
        assert_eq!(table.matches(" ok\n").count(), 3, "{table}");
        // Inside the bound, but the change's own quartiles are 40% apart.
        let (table, pass) = compare(CONTRACT, &[&a], &[&artifact((10.0, 14.0), 100.0, 0)]).unwrap();
        assert!(pass && table.contains("unresolved"), "{table}");
    }

    #[test]
    fn regression_in_either_direction_or_new_failures_fail() {
        let a = artifact((10.0, 10.5), 100.0, 0);
        for b in [
            artifact((13.0, 13.5), 100.0, 0),
            artifact((10.0, 10.5), 75.0, 0),
            artifact((10.0, 10.5), 100.0, 1),
        ] {
            let (table, pass) = compare(CONTRACT, &[&a], &[&b]).unwrap();
            assert!(!pass && table.matches("WORSE").count() == 1, "{table}");
        }
        // Better beyond the bound is not a regression.
        assert!(
            compare(CONTRACT, &[&a], &[&artifact((5.0, 5.2), 200.0, 0)])
                .unwrap()
                .1
        );
    }

    #[test]
    fn single_runs_beyond_the_bound_inside_wide_overlapping_quartiles_are_unresolved() {
        // `cache_pressure` `cache_bytes_per_raw_byte` takes three values
        // across a run's slices, so one run's quartiles span them all.
        let contract = r#"{"workloads":[{"name":"cache_pressure"}],"end_to_end":[
            {"name":"cache_bytes_per_raw_byte","better":"lower","bound":0.05}]}"#;
        let run = |value: f64, q1: f64, q3: f64| {
            format!(
                r#"{{"workloads":{{"cache_pressure":{{"end_to_end":{{"attempted":100,"failed":0,
                "metrics":{{"cache_bytes_per_raw_byte":{{"value":{value},"q1":{q1},"q3":{q3}}}}}}}}}}}}}"#
            )
        };
        let (a, b) = (run(0.2902, 0.290, 0.310), run(0.3102, 0.290, 0.310));
        let (table, pass) = compare(contract, &[&a], &[&b]).unwrap();
        assert!(pass && table.contains("unresolved"), "{table}");
        // Disjoint quartiles, or overlapping ones inside the bound, fail.
        let narrow = run(0.2902, 0.3000, 0.3012);
        for (a, b) in [
            (&a, run(0.3302, 0.320, 0.340)),
            (&narrow, run(0.3102, 0.3005, 0.3015)),
        ] {
            let (table, pass) = compare(contract, &[a], &[&b]).unwrap();
            assert!(!pass && table.contains("WORSE"), "{table}");
        }
    }

    #[test]
    fn missing_or_zero_metric_is_an_error() {
        let a = artifact((10.0, 10.5), 100.0, 0);
        assert!(compare(CONTRACT, &[&a], &[r#"{"workloads":{}}"#]).is_err());
        assert!(compare(CONTRACT, &[&a], &[&artifact((0.0, 0.0), 100.0, 0)]).is_err());
        assert!(compare(CONTRACT, &[&a], &[] as &[&str]).is_err());
    }

    #[test]
    fn repeated_runs_compare_medians_and_between_run_spread() {
        // In-run quartiles 40% apart, but the two runs agree: resolved.
        let runs = [
            artifact((10.0, 14.0), 100.0, 0),
            artifact((10.2, 14.2), 100.0, 1),
        ];
        let (table, pass) = compare(CONTRACT, &runs, &runs).unwrap();
        assert!(pass && table.matches(" ok\n").count() == 3, "{table}");
        assert!(table.contains("0.0050"), "failed_share sums runs: {table}");
        // The same data as a single run falls back to its quartiles.
        let (table, pass) = compare(CONTRACT, &runs[..1], &runs[..1]).unwrap();
        assert!(pass && table.contains("unresolved"), "{table}");
        // Runs that disagree by more than the bound are unresolved.
        let far = [runs[0].clone(), artifact((13.0, 13.0), 100.0, 0)];
        let (table, _) = compare(CONTRACT, &runs, &far).unwrap();
        assert!(table.contains("unresolved"), "{table}");
    }

    #[test]
    fn a_claim_holds_only_on_a_resolved_gain() {
        let a = [
            artifact((10.0, 10.5), 100.0, 0),
            artifact((10.2, 10.6), 100.0, 0),
        ];
        let faster = [
            artifact((7.0, 7.5), 100.0, 0),
            artifact((7.1, 7.4), 100.0, 0),
        ];
        let (table, pass, holds) = compare_claim(CONTRACT, &a, &faster, "w/lat_ms").unwrap();
        assert!(pass && holds, "{table}");
        assert!(
            table.contains("claim w/lat_ms: 10.1000 -> 7.0500"),
            "{table}"
        );
        // Unchanged is no gain; slower is none either, and fails the gate.
        let (_, pass, holds) = compare_claim(CONTRACT, &a, &a, "w/lat_ms").unwrap();
        assert!(pass && !holds);
        let (_, pass, holds) = compare_claim(CONTRACT, &faster, &a, "w/lat_ms").unwrap();
        assert!(!pass && !holds);
        // Better in the median, but runs that disagree beyond the bound
        // leave the row unresolved: the claim does not hold.
        let wide = [
            artifact((5.0, 5.0), 100.0, 0),
            artifact((9.0, 9.0), 100.0, 0),
        ];
        let (table, pass, holds) = compare_claim(CONTRACT, &a, &wide, "w/lat_ms").unwrap();
        assert!(pass && !holds && table.contains("unresolved"), "{table}");
        // A higher-is-better metric claims a rise.
        let more = [artifact((10.0, 10.5), 120.0, 0)];
        let (table, _, holds) = compare_claim(CONTRACT, &a[..1], &more, "w/qps").unwrap();
        assert!(holds, "{table}");
    }

    #[test]
    fn a_claim_must_name_a_row() {
        let a = artifact((10.0, 10.5), 100.0, 0);
        for claim in ["w/nope", "nope/lat_ms", "lat_ms", "w/failed_share"] {
            assert!(
                compare_claim(CONTRACT, &[&a], &[&a], claim).is_err(),
                "{claim}"
            );
        }
    }
}
