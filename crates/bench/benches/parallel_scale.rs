//! Morsel-driven parallel scaling: the same JIT pipelines at 1, 2, 4, and 8
//! workers over raw CSV/JSON.
//!
//! Three cases: a parse-dominated scan+fold, a cross-format hash join, and
//! a scan-heavy query mix from `vida-workload`. Speedups are reported
//! against the single-thread run; expect ~linear scaling for scan+fold on
//! multi-core hardware (a single-core container timeslices the workers and
//! reports ~1x).

use std::sync::Arc;
use vida_bench::{case, fixtures};
use vida_exec::{run_jit, JitOptions, MemoryCatalog};
use vida_formats::csv::CsvFile;
use vida_formats::json::JsonFile;
use vida_formats::plugin::{CsvPlugin, JsonPlugin};
use vida_workload::{generate_scan_heavy, WorkloadConfig};

const ROWS: usize = 60_000;
const THREADS: [usize; 4] = [1, 2, 4, 8];

fn catalog() -> MemoryCatalog {
    let cat = MemoryCatalog::new();
    let patients = CsvFile::from_bytes(
        "Patients",
        fixtures::patients_csv(ROWS, 7),
        b',',
        true,
        fixtures::patients_schema(),
    )
    .expect("fixture parses");
    cat.register(Arc::new(CsvPlugin::new(patients)));
    let genetics = JsonFile::from_bytes(
        "Genetics",
        fixtures::genetics_json(ROWS, 9),
        fixtures::genetics_schema(),
    )
    .expect("fixture parses");
    cat.register(Arc::new(JsonPlugin::new(genetics)));
    cat
}

fn plan(q: &str) -> vida_algebra::Plan {
    vida_algebra::rewrite(&vida_algebra::lower(&vida_lang::parse(q).expect("parses")).unwrap())
}

fn sweep(name: &str, cat: &MemoryCatalog, plans: &[vida_algebra::Plan]) {
    let mut base = None;
    for threads in THREADS {
        // The sweep measures scheduling itself: `threads` is honoured as
        // given, so oversubscribed counts really run that many workers even
        // on small machines.
        let opts = JitOptions {
            threads,
            ..Default::default()
        };
        let d = case(&format!("{name}, {threads} worker(s)"), 3, 1, || {
            for p in plans {
                run_jit(p, cat, &opts).expect("runs");
            }
        });
        match base {
            None => base = Some(d),
            Some(b) => println!(
                "{:<44} {:>11.2}x vs 1 worker",
                "", // speedup row aligns under its case
                b.as_secs_f64() / d.as_secs_f64()
            ),
        }
    }
}

fn main() {
    let cat = catalog();

    sweep(
        "scan+fold (sum over raw CSV)",
        &cat,
        &[plan("for { p <- Patients } yield sum p.age")],
    );

    sweep(
        "scan+fold (avg over raw JSON)",
        &cat,
        &[plan("for { g <- Genetics } yield avg g.snp")],
    );

    sweep(
        "cross-format hash join",
        &cat,
        &[plan(
            "for { p <- Patients, g <- Genetics, p.id = g.id, p.age > 40 } yield sum g.snp",
        )],
    );

    let mix: Vec<_> = generate_scan_heavy(&WorkloadConfig {
        queries: 8,
        ..Default::default()
    })
    .iter()
    .map(|q| plan(&q.text))
    .collect();
    sweep("scan-heavy query mix (8 queries)", &cat, &mix);
}
