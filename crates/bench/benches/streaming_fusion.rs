//! The chunk pipeline on warm scan→select→join→fold and
//! scan→select→fold chains: wall time, and — through a counting global
//! allocator — the **peak bytes live** and the **allocations per query**,
//! which is where fusion shows up even when the operator work itself
//! dominates time.
//!
//! The asserted contract: a warm (cache-served) query allocates per morsel,
//! never per row. Each chain runs on a resident engine over `N` and over
//! `2N` rows, and the extra rows may add fewer than `N / 100` allocations;
//! a pipeline that boxed one tuple per row would add `2N` and fail.
//!
//! Recorded baselines (frozen): the deleted pull-and-materialize executor,
//! which handed a full tuple vector from every operator stage to the next,
//! measured against the streaming push loop that preceded the chunk
//! pipeline, on cold 20k x 20k runs:
//!
//! | chain | time, materializing / streaming | peak allocation drop |
//! |---|---|---|
//! | scan → select → hash-join probe → fold | 1.20x | 1.34x |
//! | scan → select → fold | 1.14x | 1.72x |
//!
//! Before scratch tuples, the push loop itself still allocated a frame and
//! a provenance vector per scanned row — two allocations per row on the
//! scan→select→fold chain, which the assert below rejects.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use vida_algebra::{lower, rewrite, Plan};
use vida_bench::{case, fixtures};
use vida_cache::CacheManager;
use vida_exec::{Engine, JitOptions, MemoryCatalog};
use vida_formats::csv::CsvFile;
use vida_formats::json::JsonFile;
use vida_formats::plugin::{CsvPlugin, JsonPlugin};
use vida_lang::parse;

/// Counting allocator: tracks live bytes, their high-water mark, and the
/// number of allocations (`realloc` included — the default implementation
/// allocates through `alloc`).
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Rows per input table of the smaller engine.
const N: usize = 20_000;

/// Peak live bytes (relative to the bytes live at entry) and allocations
/// while running `f`.
fn measure<F: FnMut()>(mut f: F) -> (usize, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    (
        PEAK.load(Ordering::Relaxed).saturating_sub(base),
        ALLOCATIONS.load(Ordering::Relaxed) - allocations,
    )
}

/// A resident engine with a replica cache over `n`-row `Patients` (CSV)
/// and `Genetics` (JSON) tables.
fn engine(n: usize) -> Engine {
    let catalog = MemoryCatalog::new();
    let patients = CsvFile::from_bytes(
        "Patients",
        fixtures::patients_csv(n, 7),
        b',',
        true,
        fixtures::patients_schema(),
    )
    .expect("fixture parses");
    catalog.register(Arc::new(CsvPlugin::new(patients)));
    let genetics = JsonFile::from_bytes(
        "Genetics",
        fixtures::genetics_json(n, 13),
        fixtures::genetics_schema(),
    )
    .expect("fixture parses");
    catalog.register(Arc::new(JsonPlugin::new(genetics)));
    let opts = JitOptions::with_cache(Arc::new(CacheManager::new(256 << 20)));
    Engine::new(Arc::new(catalog), opts)
}

fn plan_of(q: &str) -> Plan {
    rewrite(&lower(&parse(q).expect("parses")).expect("lowers"))
}

fn kib(bytes: usize) -> f64 {
    bytes as f64 / 1024.0
}

fn main() {
    let (small, large) = (engine(N), engine(2 * N));

    // The headline chain: scan → select → hash-join probe → fold.
    let chain =
        plan_of("for { p <- Patients, g <- Genetics, p.id = g.id, p.age > 40 } yield sum g.snp");
    let (_, stats) = small.execute_with_stats(&chain).expect("runs");
    assert!(stats.fused_stage_depth >= 3, "the chain must fuse");
    println!(
        "join+fold chain ({N} x {N} rows): fused depth {}",
        stats.fused_stage_depth
    );

    // A selective select→fold chain, where a materializing executor would
    // buffer every surviving tuple before folding.
    let fold = plan_of("for { p <- Patients, p.age > 30 } yield sum p.age");
    for (name, plan) in [("chain", &chain), ("scan+select+fold", &fold)] {
        // Warm both engines: every later run is served from the cache.
        for engine in [&small, &large] {
            engine.execute(plan).expect("runs");
            let (_, stats) = engine.execute_with_stats(plan).expect("runs");
            assert!(
                stats.served_from_cache,
                "{name}: the warm run must hit the cache"
            );
        }
        case(&format!("{name}: chunk pipeline, warm"), 3, 5, || {
            small.execute(plan).expect("runs");
        });
        // One untimed run per engine, post-warmup.
        let (peak, at_n) = measure(|| {
            small.execute(plan).expect("runs");
        });
        let (_, at_2n) = measure(|| {
            large.execute(plan).expect("runs");
        });
        println!(
            "{name}: peak allocation {:.1} KiB, {at_n} allocations per query \
             ({at_2n} at {} rows)",
            kib(peak),
            2 * N
        );
        assert!(
            at_2n.saturating_sub(at_n) < N / 100,
            "{name}: {N} more rows cost {} more allocations — the pipeline \
             allocates per row again",
            at_2n.saturating_sub(at_n)
        );
    }
}
