//! `reproduce bench-compare A.json B.json`: the regression gate over two
//! `bash benchmark/run.sh` set artifacts (the `BENCH_<pr>.json` files at
//! the repo root), judged by the bounds and directions of `BENCHMARK.json`.

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

/// One artifact's reading of one metric: its value and the distance
/// between its quartiles as a share of the value.
fn reading(doc: &Value, workload: &str, metric: &str) -> Result<(f64, f64), String> {
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
    Ok((value, (q3 - q1) / value))
}

fn failed_share(doc: &Value, workload: &str) -> Result<f64, String> {
    let at = |leaf| number(doc, &["workloads", workload, "end_to_end", leaf]);
    Ok(at("failed")? / at("attempted")?.max(1.0))
}

/// Compare artifact `b` (the change) with artifact `a` (the parent) under
/// `contract` (`BENCHMARK.json`). Returns the table — one row per workload
/// × end-to-end metric — and whether `b` passes: no metric worse than `a`
/// beyond its bound and no workload's `failed_share` risen. A metric inside
/// its bound whose quartile spread (in either artifact) exceeds the bound
/// is `unresolved`, not `ok`: the runs are too wide to tell.
pub fn compare(contract: &str, a: &str, b: &str) -> Result<(String, bool), String> {
    let contract = parse(contract, "BENCHMARK.json")?;
    let (a, b) = (parse(a, "first artifact")?, parse(b, "second artifact")?);
    let mut table = format!(
        "{:<18} {:<26} {:>12} {:>12} {:>7} {:>6}  verdict\n",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    let mut pass = true;
    let metrics = list(&contract, "end_to_end")?;
    for workload in list(&contract, "workloads")? {
        let workload = name_of(workload)?;
        for metric in metrics {
            let name = name_of(metric)?;
            let bound = number(metric, &["bound"])?;
            let higher = metric.field("better").and_then(Value::as_str) == Some("higher");
            let ((va, sa), (vb, sb)) = (reading(&a, workload, name)?, reading(&b, workload, name)?);
            let worse = if higher { va / vb } else { vb / va } - 1.0;
            let verdict = if worse > bound {
                pass = false;
                "WORSE"
            } else if sa.max(sb) > bound {
                "unresolved"
            } else {
                "ok"
            };
            table.push_str(&format!(
                "{workload:<18} {name:<26} {va:>12.4} {vb:>12.4} {:>7.3} {bound:>6.2}  {verdict}\n",
                vb / va
            ));
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
    Ok((table, pass))
}

#[cfg(test)]
mod tests {
    use super::compare;

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
        let (table, pass) = compare(CONTRACT, &a, &artifact((12.0, 12.5), 90.0, 0)).unwrap();
        assert!(pass, "{table}");
        assert_eq!(table.matches(" ok\n").count(), 3, "{table}");
        // Inside the bound, but the change's own quartiles are 40% apart.
        let (table, pass) = compare(CONTRACT, &a, &artifact((10.0, 14.0), 100.0, 0)).unwrap();
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
            let (table, pass) = compare(CONTRACT, &a, &b).unwrap();
            assert!(!pass && table.matches("WORSE").count() == 1, "{table}");
        }
        // Better beyond the bound is not a regression.
        assert!(
            compare(CONTRACT, &a, &artifact((5.0, 5.2), 200.0, 0))
                .unwrap()
                .1
        );
    }

    #[test]
    fn missing_or_zero_metric_is_an_error() {
        let a = artifact((10.0, 10.5), 100.0, 0);
        assert!(compare(CONTRACT, &a, r#"{"workloads":{}}"#).is_err());
        assert!(compare(CONTRACT, &a, &artifact((0.0, 0.0), 100.0, 0)).is_err());
    }
}
