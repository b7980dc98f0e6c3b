//! `reproduce` — compare checked-in benchmark artifacts.
//!
//! The paper's experiments are workloads of the repo benchmark
//! (`bash benchmark/run.sh`): the cold-to-warm query mix of §6 / Fig. 5 is
//! `fig5_cold` and `warm_mix`, and every workload checks each answer
//! against an oracle. This binary hosts the gate over their artifacts,
//! `bench-compare`.

const USAGE: &str = "\
reproduce — compare ViDa (CIDR'15) benchmark artifacts

USAGE:
    reproduce bench-compare [--claim <workload>/<metric>]
                            <A.json[,A2.json..]> <B.json[,B2.json..]>

    bench-compare     compare two `bash benchmark/run.sh` set artifacts
                      (BENCH_<pr>.json) under BENCHMARK.json's bounds: one
                      row per workload x end-to-end metric (A, B, B/A,
                      bound, verdict); exits 1 if B is worse than A beyond
                      a bound or a workload's failed share rose, 2 if the
                      arguments or files are unusable. Either side may list
                      several runs, comma-separated: medians are compared
                      and the spread between runs decides whether a metric
                      is resolved

    --claim W/M       also check a claimed gain on workload W's metric M:
                      exits 1 unless that row's verdict is `ok` (resolved,
                      not `unresolved`) and B is better than A; a W/M that
                      names no row exits 2

    The experiments themselves are the repo benchmark's workloads:
    `bash benchmark/run.sh --workload fig5_cold` replays the paper's
    Figure 5, `--workload warm_mix` its ~80%-served-from-caches mix.

Run with no arguments to print this message.";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("bench-compare") => bench_compare(&argv[1..]),
        None | Some("-h" | "--help") => println!("{USAGE}"),
        Some(other) => {
            eprintln!("unknown command '{other}'\n\n{USAGE}");
            std::process::exit(2);
        }
    }
}

/// Print the comparison table of two sides of benchmark artifacts (each a
/// comma-separated list of runs); exit 1 when the second regressed or a
/// `--claim`ed gain does not hold, 2 when the arguments or files are
/// unusable.
fn bench_compare(args: &[String]) {
    let (claim, paths) = match args {
        [flag, claim, rest @ ..] if flag == "--claim" => (Some(claim), rest),
        _ => (None, args),
    };
    let [a, b] = paths else {
        eprintln!("bench-compare expects exactly two paths\n\n{USAGE}");
        std::process::exit(2);
    };
    let read = |list: &String| -> Vec<String> {
        list.split(',')
            .map(|path| {
                std::fs::read_to_string(path).unwrap_or_else(|e| {
                    eprintln!("FAIL: {path}: {e}");
                    std::process::exit(2);
                })
            })
            .collect()
    };
    // The contract is the one this binary was built beside.
    let contract = include_str!("../../../../BENCHMARK.json");
    let (a_runs, b_runs) = (read(a), read(b));
    let judged = match claim {
        None => vida_bench::compare::compare(contract, &a_runs, &b_runs)
            .map(|(table, pass)| (table, pass, true)),
        Some(claim) => vida_bench::compare::compare_claim(contract, &a_runs, &b_runs, claim),
    };
    match judged {
        Ok((table, pass, holds)) => {
            print!("{table}");
            if !pass {
                eprintln!("FAIL: {b} is worse than {a} beyond a BENCHMARK.json bound");
            }
            if !holds {
                let claim = claim.expect("only a claim can fail to hold");
                eprintln!("FAIL: the claimed gain {claim} is not a resolved improvement");
            }
            if !(pass && holds) {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("FAIL: {e}");
            std::process::exit(2);
        }
    }
}
