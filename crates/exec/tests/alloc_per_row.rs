//! The chunk pipeline's allocation contract, as a hard assert: a warm query
//! allocates per worker and per morsel (chunk buffers, partials, build-side
//! chunks), never per scanned row, per join candidate or per unnest
//! element.
//!
//! A counting global allocator measures the second (warm, cache-served) run
//! of each covered shape on a resident engine over `N` and over `2N` rows;
//! the extra rows may add fewer than `N / 100` allocations. A loop that
//! allocated once per row would add `N`. Collection outputs are exempt —
//! their `Value`s are the result — so every shape here folds a primitive
//! monoid.
//!
//! The allocator also tracks live and peak bytes, because one allocation
//! can still grow with the rows: a warm scan-only query must not build a
//! per-row buffer (say, an encoded copy of a cached column) at all, so its
//! peak at `2N` rows may exceed its peak at `N` by less than `N` bytes —
//! under one byte per extra row.
//!
//! This binary holds a single test so no concurrent test pollutes the
//! process-wide count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use vida_algebra::{lower, rewrite, Plan};
use vida_cache::CacheManager;
use vida_exec::{Engine, JitOptions, MemoryCatalog};
use vida_lang::parse;
use vida_types::{Schema, Type, Value};

/// Counts every allocation and the bytes live, and keeps the peak of the
/// latter (`realloc` included: the default implementation allocates
/// through `alloc` and frees through `dealloc`).
struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let live = LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const N: usize = 20_000;

/// `P(id, age, f)` and `G(id, snp)` with `n` rows each, `R(id, xs)` with
/// `n` rows of up to three-element int lists, and a fixed 8-row `T(lim)`
/// band side (so the band join's output grows with `n`, not `n²`). One
/// null age routes one row through the interpreted fallback, which does
/// allocate — bindings are rebuilt as `Value`s — at every `n` alike.
fn catalog(n: usize) -> MemoryCatalog {
    let cat = MemoryCatalog::new();
    let p: Vec<Value> = (0..n as i64)
        .map(|i| {
            let age = match i {
                3 => Value::Null,
                _ => Value::Int(18 + i * 7 % 70),
            };
            let f = Value::Float((i % 64) as f64 / 8.0);
            Value::record([("id", Value::Int(i)), ("age", age), ("f", f)])
        })
        .collect();
    let p_schema = [("id", Type::Int), ("age", Type::Int), ("f", Type::Float)];
    cat.register_records("P", Schema::from_pairs(p_schema), &p)
        .unwrap();
    let g: Vec<Value> = (0..n as i64)
        .map(|i| {
            let snp = Value::Float((i % 16) as f64 / 16.0);
            Value::record([("id", Value::Int(i * 2)), ("snp", snp)])
        })
        .collect();
    let g_schema = [("id", Type::Int), ("snp", Type::Float)];
    cat.register_records("G", Schema::from_pairs(g_schema), &g)
        .unwrap();
    let t: Vec<Value> = (0..8)
        .map(|i| Value::record([("lim", Value::Int(20 + 8 * i))]))
        .collect();
    cat.register_records("T", Schema::from_pairs([("lim", Type::Int)]), &t)
        .unwrap();
    let r: Vec<Value> = (0..n as i64)
        .map(|i| {
            let xs = (0..i % 4).map(|j| Value::Int(i % 7 + j)).collect();
            Value::record([("id", Value::Int(i)), ("xs", Value::bag(xs))])
        })
        .collect();
    let r_schema = [("id", Type::Int), ("xs", Type::bag(Type::Int))];
    cat.register_records("R", Schema::from_pairs(r_schema), &r)
        .unwrap();
    cat
}

fn engine(n: usize) -> Engine {
    let opts = JitOptions::with_cache(Arc::new(CacheManager::new(256 << 20)));
    Engine::new(Arc::new(catalog(n)), opts)
}

fn plan_of(q: &str) -> Plan {
    rewrite(&lower(&parse(q).expect("parses")).expect("lowers"))
}

/// What the warm run of a plan allocated.
struct Warm {
    allocations: usize,
    /// Peak bytes live during the run beyond those live when it started.
    peak_bytes: usize,
    value: Value,
}

/// Measure the warm run of `plan` (one warm-up run first).
fn warm_run(engine: &Engine, plan: &Plan) -> Warm {
    engine.execute(plan).expect("warm-up runs");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(live, Ordering::Relaxed);
    let value = engine.execute(plan).expect("warm run");
    Warm {
        allocations: ALLOCATIONS.load(Ordering::Relaxed) - before,
        peak_bytes: PEAK_BYTES.load(Ordering::Relaxed) - live,
        value,
    }
}

#[test]
fn warm_allocations_grow_with_morsels_not_rows() {
    // (query, scan-only: held to the peak-bytes bound too)
    let shapes = [
        ("for { p <- P, p.age > 40 } yield count p", true),
        ("for { p <- P, p.age > 40 } yield sum p.age", true),
        ("for { p <- P, p.age > 40 } yield avg p.f", true),
        ("for { p <- P, p.age > 40 } yield any p.f > 7.5", true),
        (
            "for { p <- P, g <- G, p.id = g.id, p.age > 30 } yield sum g.snp",
            false,
        ),
        ("for { p <- P, t <- T, p.age < t.lim } yield count p", false),
        ("for { r <- R, v <- r.xs, v > 2 } yield sum v", false),
        (
            "for { r <- R, v <- r.xs, g <- G, v = g.id } yield count v",
            false,
        ),
        (
            "for { p <- P, g <- G, q <- P, p.id = g.id, g.id = q.id } yield sum g.snp",
            false,
        ),
    ];
    let (small, large) = (engine(N), engine(2 * N));
    for (q, scan_only) in shapes {
        let plan = plan_of(q);
        let at_n = warm_run(&small, &plan);
        let at_2n = warm_run(&large, &plan);
        assert!(
            !matches!(at_2n.value, Value::Collection(..)),
            "{q}: collection outputs are exempt from this contract"
        );
        let (a_n, a_2n) = (at_n.allocations, at_2n.allocations);
        let (p_n, p_2n) = (at_n.peak_bytes, at_2n.peak_bytes);
        println!(
            "{q}: {a_n} allocations / {p_n} peak bytes at {N} rows, \
             {a_2n} / {p_2n} at {} rows",
            2 * N
        );
        let extra = a_2n.saturating_sub(a_n);
        assert!(
            extra < N / 100,
            "{q}: {N} more rows cost {extra} more allocations ({a_n} -> {a_2n})"
        );
        if scan_only {
            let extra = p_2n.saturating_sub(p_n);
            assert!(
                extra < N,
                "{q}: {N} more rows raised the peak by {extra} bytes ({p_n} -> {p_2n})"
            );
        }
    }
}
