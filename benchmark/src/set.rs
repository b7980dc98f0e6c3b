//! The whole set: every workload in a child process of this binary, one
//! `workload metric value unit` line per metric, `out/results.json` with
//! provenance, and `--selfcheck` (the set twice, compared with the bounds
//! `BENCHMARK.json` gives each end-to-end metric).

use crate::names::{END_TO_END, WORKLOADS};
use crate::{bench_dir, Args};
use std::process::Command;
use vida_formats::json::parse_json;
use vida_types::Value;

/// `run_seconds` of `BENCHMARK.json`: how long one run measures.
pub const RUN_SECONDS: f64 = 10.0;

/// First line of a command's stdout, or "unknown" (the driver's checkout
/// is not a git repository).
fn tool_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(bench_dir())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Run one workload in a child process; echo its metric lines; return its
/// `detail` object (JSON text).
fn run_child(workload: &str, args: &Args, traced: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()]);
    cmd.args(["--trace", if traced { "1" } else { "0" }]);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = None;
    for line in stdout.lines() {
        if let Some(d) = line.strip_prefix("detail ") {
            detail = Some(d.to_string());
        } else if !line.starts_with('{') {
            println!("{line}");
        }
    }
    detail.ok_or(format!("{workload} printed no detail line"))
}

/// One pass over all workloads. Returns `results.json` as text.
fn run_set(args: &Args) -> Result<String, String> {
    let mut entries = Vec::new();
    for w in WORKLOADS {
        let end_to_end = run_child(w.name, args, false)?;
        let per_layer = if args.traced {
            run_child(w.name, args, true)?
        } else {
            "null".to_string()
        };
        entries.push(format!(
            "\"{}\":{{\"why\":\"{}\",\"end_to_end\":{end_to_end},\"per_layer\":{per_layer}}}",
            w.name, w.why
        ));
    }
    Ok(format!(
        "{{\"seed\":{},\"git_sha\":\"{}\",\"rustc\":\"{}\",\"nproc\":{},\"quick\":{},\
         \"workloads\":{{{}}}}}\n",
        args.seed,
        tool_output("git", &["rev-parse", "HEAD"]),
        tool_output("rustc", &["-V"]),
        crate::harness::nproc(),
        args.quick,
        entries.join(",")
    ))
}

fn parse(text: &str, what: &str) -> Result<Value, String> {
    parse_json(text.as_bytes(), 0, what)
        .map(|(v, _)| v)
        .map_err(|e| format!("{what} does not parse: {e}"))
}

fn number(v: &Value, path: &[&str]) -> Result<f64, String> {
    path.iter()
        .try_fold(v, |v, key| v.field(key))
        .and_then(Value::as_f64)
        .ok_or(format!("no number at {}", path.join(".")))
}

/// Failed operations over all workloads of a results document.
fn failures(results: &Value) -> Result<f64, String> {
    WORKLOADS
        .iter()
        .map(|w| number(results, &["workloads", w.name, "end_to_end", "failed"]))
        .sum()
}

pub fn run(args: &Args) -> Result<bool, String> {
    let out = bench_dir().join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let first = run_set(args)?;
    let path = out.join("results.json");
    std::fs::write(&path, &first).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("results written to {}", path.display());
    let first = parse(&first, "results.json")?;
    let mut ok = failures(&first)? == 0.0;
    if !ok {
        eprintln!("FAIL: some answers were wrong, refused or errors (failed_share > 0)");
    }
    if !args.selfcheck {
        return Ok(ok);
    }

    // Same commit, same seed, again: every end-to-end metric must agree
    // with the first pass within its own bound.
    let second = parse(&run_set(args)?, "second results")?;
    ok &= failures(&second)? == 0.0;
    let contract = bench_dir().join("../BENCHMARK.json");
    let contract = std::fs::read_to_string(&contract)
        .map_err(|e| format!("read {}: {e}", contract.display()))?;
    let contract = parse(&contract, "BENCHMARK.json")?;
    let bounds = contract
        .field("end_to_end")
        .and_then(Value::elements)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    for w in WORKLOADS {
        for metric in END_TO_END {
            let bound = bounds
                .iter()
                .find(|b| b.field("name").and_then(Value::as_str) == Some(metric.name))
                .map(|b| number(b, &["bound"]))
                .ok_or(format!("BENCHMARK.json has no bound for {}", metric.name))??;
            let path = [
                "workloads",
                w.name,
                "end_to_end",
                "metrics",
                metric.name,
                "value",
            ];
            let (a, b) = (number(&first, &path)?, number(&second, &path)?);
            // How much worse the worse of the two is, as a share of the
            // better: the order of the passes must not matter.
            let worse = (a.max(b) / a.min(b)) - 1.0;
            let verdict = if worse <= bound { "ok" } else { "FAIL" };
            println!(
                "selfcheck {} {} {a} {b} {} spread {worse:.4} bound {bound} {verdict}",
                w.name, metric.name, metric.unit
            );
            ok &= worse <= bound;
        }
    }
    Ok(ok)
}
