//! The repo benchmark's runner (`src/main.rs` only calls [`main`]). See
//! `README.md`.
//!
//! Two modes. With `--workload` it is the driver's contract: one workload,
//! one process, one JSON object on the last line of stdout. Without, it
//! runs the whole set (each workload in a child process of this same
//! binary, so `peak_rss_mb` is per workload) and writes
//! `out/results.json`.

pub mod fixtures;
pub mod harness;
pub mod layers;
pub mod names;
pub mod oracle;
pub mod perlayer;
pub mod served;
pub mod set;
pub mod spans;
pub mod speed;
pub mod stats;
pub mod workloads;

use std::path::{Path, PathBuf};

const USAGE: &str = "\
usage: run.sh --workload NAME --seed N --seconds S --trace 0|1    one run (the driver's contract)
       run.sh [--seed N] [--seconds S] [--traced] [--quick]       the whole set -> out/results.json
       run.sh --selfcheck [--seed N] [--seconds S]                the set twice, compared to the bounds";

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    /// `--trace 1` (one run) or `--traced` (the set).
    pub traced: bool,
    pub quick: bool,
    pub selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        traced: false,
        quick: false,
        selfcheck: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds expects a number in (0, 60]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => match value()?.as_str() {
                "0" => args.traced = false,
                "1" => args.traced = true,
                other => return Err(format!("--trace expects 0 or 1, got '{other}'")),
            },
            "--traced" => args.traced = true,
            "--quick" => args.quick = true,
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    Ok(args)
}

/// The benchmark's directory: `run.sh` exports it; a bare `cargo run`
/// falls back to where the source was built.
pub fn bench_dir() -> PathBuf {
    std::env::var_os("VIDA_BENCHMARK_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// One workload in this process. Prints one `workload metric value unit`
/// line per metric, a `detail` line for the set runner, and — last — the
/// driver's JSON object.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let mut plan = workloads::plan(name).ok_or(format!("unknown workload '{name}'"))?;
    if args.quick {
        plan.setups = 1;
    }
    let seconds = args
        .seconds
        .unwrap_or(if args.quick { 1.0 } else { set::RUN_SECONDS });
    let out = bench_dir().join("out");
    let dir = out.join(format!("data-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let result = measure(&plan, args, seconds, &dir, &out);
    let _ = std::fs::remove_dir_all(&dir);
    let Measured {
        report,
        tally,
        wanted,
        samples,
        slowdown,
    } = result?;

    for metric in wanted {
        let m = report
            .get(metric.name)
            .ok_or(format!("{} not measured", metric.name))?;
        println!("{name} {} {} {}", metric.name, m.value, metric.unit);
    }
    println!(
        "detail {{\"workload\":\"{name}\",\"threads\":{},\"clients\":{},\"setups\":{},\
         \"seconds\":{seconds},\"attempted\":{},\"failed\":{},\"latency_samples\":{samples},\
         \"slowdown\":{slowdown},\"metrics\":{}}}",
        plan.sizing.threads,
        plan.clients,
        plan.setups,
        tally.attempted,
        tally.failed,
        report.metrics_json(wanted, true)?
    );
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        report.metrics_json(wanted, false)?
    );
    // Wrong answers are reported in the object above, not by the exit
    // code: the driver reads `correct`; the set runner reads `failed`.
    Ok(true)
}

struct Measured {
    report: stats::Report,
    tally: harness::Tally,
    wanted: &'static [names::Metric],
    /// Latency samples, and the machine's slowdown (`speed`), of an
    /// end-to-end run.
    samples: usize,
    slowdown: f64,
}

fn measure(
    plan: &workloads::Plan,
    args: &Args,
    seconds: f64,
    dir: &Path,
    out: &Path,
) -> Result<Measured, String> {
    if !args.traced {
        let o = workloads::run_end_to_end(plan, args.seed, seconds, dir);
        return Ok(Measured {
            report: o.report,
            tally: o.tally,
            wanted: names::END_TO_END,
            samples: o.samples,
            slowdown: o.slowdown,
        });
    }
    let o = perlayer::run(plan, args.seed, seconds, dir);
    let trace_path = out.join(format!("trace_{}.json", plan.name));
    std::fs::write(&trace_path, o.chrome_json)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    eprint!("{}", o.table);
    eprintln!("trace written to {}", trace_path.display());
    Ok(Measured {
        report: o.report,
        tally: o.tally,
        wanted: names::PER_LAYER,
        samples: 0,
        slowdown: 1.0,
    })
}

pub fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let ok = match &args.workload {
        Some(name) => run_one(name, &args),
        None => set::run(&args),
    };
    match ok {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            std::process::exit(1);
        }
    }
}
