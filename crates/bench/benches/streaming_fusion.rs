//! Streaming push pipelines on a scan→select→join→fold chain: wall time
//! and — through a counting global allocator — the **peak bytes live during
//! execution**, which is where fusion shows up even when the operator work
//! itself dominates time.
//!
//! Recorded baseline (frozen): until PR 12 this bench also ran the legacy
//! pull-and-materialize executor, which handed a full `Vec<Tuple>` from
//! every operator stage to the next. Its last measured numbers against the
//! push loop (PR 5, 20k x 20k rows, single-core container) were
//!
//! | chain | time, materializing / streaming | peak allocation drop |
//! |---|---|---|
//! | scan → select → hash-join probe → fold | 1.20x | 1.34x |
//! | scan → select → fold | 1.14x | 1.72x |
//!
//! The executor and its `materialize_stages` switch are deleted; a change
//! that makes the numbers below worse by those factors has given the
//! fusion win back.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use vida_algebra::{lower, rewrite, Plan};
use vida_bench::{case, fixtures};
use vida_exec::{run_jit_with_stats, JitOptions, MemoryCatalog};
use vida_formats::csv::CsvFile;
use vida_formats::json::JsonFile;
use vida_formats::plugin::{CsvPlugin, JsonPlugin};
use vida_lang::parse;

/// Counting allocator: tracks live bytes and the high-water mark so the
/// bench can report peak allocation per execution mode.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
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

/// Peak live bytes while running `f` (relative to the bytes live at entry).
fn peak_during<F: FnMut()>(mut f: F) -> usize {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    f();
    PEAK.load(Ordering::Relaxed).saturating_sub(base)
}

fn plan_of(q: &str) -> Plan {
    rewrite(&lower(&parse(q).expect("parses")).expect("lowers"))
}

fn kib(bytes: usize) -> f64 {
    bytes as f64 / 1024.0
}

fn main() {
    let catalog = MemoryCatalog::new();
    let patients = CsvFile::from_bytes(
        "Patients",
        fixtures::patients_csv(20_000, 7),
        b',',
        true,
        fixtures::patients_schema(),
    )
    .expect("fixture parses");
    catalog.register(Arc::new(CsvPlugin::new(patients)));
    let genetics = JsonFile::from_bytes(
        "Genetics",
        fixtures::genetics_json(20_000, 13),
        fixtures::genetics_schema(),
    )
    .expect("fixture parses");
    catalog.register(Arc::new(JsonPlugin::new(genetics)));

    // The chain the issue names: scan → select → hash-join probe → fold.
    let chain =
        plan_of("for { p <- Patients, g <- Genetics, p.id = g.id, p.age > 40 } yield sum g.snp");

    let opts = JitOptions::default();
    let (_, stats) = run_jit_with_stats(&chain, &catalog, &opts).expect("runs");
    assert!(stats.fused_stage_depth >= 3, "the chain must fuse");
    println!(
        "join+fold chain (20k x 20k rows): fused depth {}",
        stats.fused_stage_depth
    );

    // A selective select→fold chain, where a materializing executor would
    // buffer every surviving tuple before folding.
    let fold = plan_of("for { p <- Patients, p.age > 30 } yield sum p.age");
    for (name, plan) in [("chain", &chain), ("scan+select+fold", &fold)] {
        case(&format!("{name}: streaming push"), 3, 5, || {
            run_jit_with_stats(plan, &catalog, &opts).expect("runs");
        });
        // One untimed run, post-warmup.
        let peak = peak_during(|| {
            run_jit_with_stats(plan, &catalog, &opts).expect("runs");
        });
        println!("{name}: peak allocation {:.1} KiB", kib(peak));
    }
}
