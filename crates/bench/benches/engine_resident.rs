//! Per-call `run_jit` vs resident `Engine::execute` on a warm 500-query
//! mix.
//!
//! The per-call path pays per query for everything the resident engine
//! keeps alive: worker threads are spawned and joined, a fresh string
//! interner is built, and kernel string ids are re-interned. Both paths
//! here share the *same* replica cache arrangement (each gets its own
//! long-lived `CacheManager`), so the delta isolates engine residency —
//! pool attach/park vs spawn/join — rather than cache warmth.
//!
//! The bench reports total wall time plus **per-query p50/p99** for both
//! paths. Like the other benches in this crate it prints rather than
//! hard-fails (shared runners are too noisy for a latency assert), but
//! the p50 gap is the headline number: resident execution should win
//! visibly at any worker count > 1.

use std::sync::Arc;
use std::time::{Duration, Instant};
use vida_algebra::{lower, rewrite, Plan};
use vida_bench::fixtures;
use vida_cache::CacheManager;
use vida_exec::{run_jit, Engine, JitOptions, MemoryCatalog};
use vida_formats::csv::CsvFile;
use vida_formats::json::JsonFile;
use vida_formats::plugin::{CsvPlugin, JsonPlugin};
use vida_lang::parse;

const QUERIES: usize = 500;
const THREADS: usize = 4;

fn plan_of(q: &str) -> Plan {
    rewrite(&lower(&parse(q).expect("parses")).expect("lowers"))
}

fn catalog() -> Arc<MemoryCatalog> {
    let catalog = MemoryCatalog::new();
    let patients = CsvFile::from_bytes(
        "Patients",
        fixtures::patients_csv(5_000, 7),
        b',',
        true,
        fixtures::patients_schema(),
    )
    .expect("fixture parses");
    catalog.register(Arc::new(CsvPlugin::new(patients)));
    let genetics = JsonFile::from_bytes(
        "Genetics",
        fixtures::genetics_json(5_000, 13),
        fixtures::genetics_schema(),
    )
    .expect("fixture parses");
    catalog.register(Arc::new(JsonPlugin::new(genetics)));
    Arc::new(catalog)
}

/// The warm mix: point-ish filters, a join, and an aggregation — the
/// repeated-workload shape the paper's caches assume (HBP locality).
fn mix() -> Vec<Plan> {
    [
        "for { p <- Patients, p.age > 40 } yield sum p.age",
        "for { p <- Patients, p.age > 60 } yield count p",
        "for { p <- Patients, g <- Genetics, p.id = g.id, p.age > 40 } yield sum g.snp",
        "for { g <- Genetics, g.snp > 50 } yield count g",
        "for { p <- Patients, p.age < 30 } yield max p.age",
    ]
    .iter()
    .map(|q| plan_of(q))
    .collect()
}

fn percentile(sorted: &[Duration], pct: f64) -> Duration {
    let idx = ((sorted.len() as f64 - 1.0) * pct / 100.0).round() as usize;
    sorted[idx]
}

fn report(name: &str, total: Duration, mut lat: Vec<Duration>) {
    lat.sort();
    println!(
        "{name:<28} total {:>9.1} ms   p50 {:>9.3} µs   p99 {:>9.3} µs",
        total.as_secs_f64() * 1e3,
        percentile(&lat, 50.0).as_secs_f64() * 1e6,
        percentile(&lat, 99.0).as_secs_f64() * 1e6,
    );
}

fn main() {
    let cat = catalog();
    let plans = mix();
    // The contrast under test is spawn/join per query vs a parked pool, so
    // the worker count stays above 1 even on small CI boxes (where inline
    // single-thread runs on both paths would measure nothing).
    let opts = |cache: Arc<CacheManager>| JitOptions {
        threads: THREADS,
        cache: Some(cache),
        ..Default::default()
    };

    // --- Per-call path: spawn/join a pool and rebuild the interner per
    // query; the cache Arc is the only thing surviving between calls.
    let per_call_opts = opts(Arc::new(CacheManager::new(1 << 26)));
    let expected: Vec<_> = plans
        .iter()
        .map(|p| run_jit(p, &*cat, &per_call_opts).expect("runs"))
        .collect();
    // (That pass also warmed the per-call cache.)
    let mut per_call_lat = Vec::with_capacity(QUERIES);
    let per_call_start = Instant::now();
    for i in 0..QUERIES {
        let plan = &plans[i % plans.len()];
        let t = Instant::now();
        let v = run_jit(plan, &*cat, &per_call_opts).expect("runs");
        per_call_lat.push(t.elapsed());
        assert_eq!(&v, &expected[i % plans.len()]);
    }
    let per_call_total = per_call_start.elapsed();

    // --- Resident path: same worker count, same cache budget, but the
    // pool is parked between queries and the interner persists.
    let engine = Engine::new(cat.clone(), opts(Arc::new(CacheManager::new(1 << 26))));
    for plan in &plans {
        engine.execute(plan).expect("runs"); // warm its cache too
    }
    let mut resident_lat = Vec::with_capacity(QUERIES);
    let resident_start = Instant::now();
    let mut session = engine.session();
    for i in 0..QUERIES {
        let plan = &plans[i % plans.len()];
        let t = Instant::now();
        let v = session.execute(plan).expect("runs");
        resident_lat.push(t.elapsed());
        assert_eq!(&v, &expected[i % plans.len()]);
    }
    let resident_total = resident_start.elapsed();

    println!(
        "warm mix: {QUERIES} queries over {} plan shapes, {THREADS} workers",
        plans.len()
    );
    report("per-call run_jit", per_call_total, per_call_lat);
    report("resident Engine::execute", resident_total, resident_lat);
    println!(
        "resident speedup: {:.2}x total",
        per_call_total.as_secs_f64() / resident_total.as_secs_f64().max(1e-12)
    );
}
