//! Incremental re-query over growing files: the end-to-end contract.
//!
//! A resident catalog (plugins + cache + fold partials held across
//! queries, as the engine facade holds them) must never serve data the
//! backing file no longer contains, and after a pure append it must pay
//! only for the appended suffix. These tests pin the whole protocol from
//! the executor's side:
//!
//! - **stale-fingerprint regression** — mutating the file between two
//!   queries on one resident plugin yields the *fresh* answer (before the
//!   fix, fingerprints were captured once at `open_with` and never
//!   re-stat'd, so cached replicas were vouched for forever);
//! - **mutation matrix** — append / same-length in-place edit / truncate,
//!   on both raw-data backings (`MapMode::Auto` mmap and `MapMode::Never`
//!   owned buffers), at 1/2/8 worker threads, for CSV and JSON: every
//!   warm incremental result is bit-identical to a cold full re-scan of
//!   the current file (int aggregates only — exact at any merge order);
//! - **O(delta) counters** — after an append, `tail_rows_scanned` equals
//!   the appended row count, a cached fold partial is resumed
//!   (`partials_reused`), and no column is re-read from the prefix
//!   (`raw_columns == 0`);
//! - **shrink safety** — truncating a file while its pages are mmap'd
//!   must not let a later scan touch the defunct mapping (SIGBUS); the
//!   re-stat at query description time reopens before any scan runs, and
//!   the owned `MapMode::Never` backing takes the identical protocol path;
//! - **one generation per query** — a dataset read twice in one query (a
//!   self-join) is re-stat'd once and read at one generation even when the
//!   file grows mid-build, and a dataset read only by a nested
//!   comprehension is re-stat'd like a scanned one, on both engines;
//! - **distinct sketches follow the file** — after every append or rewrite
//!   the resident cost model's distinct counts equal a fresh model's after
//!   one query over the file as it stands.

mod common;

use common::fixture_path;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vida_algebra::{lower, rewrite, Plan};
use vida_cache::{CacheManager, CachedData, Layout};
use vida_exec::{
    run_jit, run_jit_with_stats, run_volcano, Engine, JitOptions, MemoryCatalog, SourceProvider,
};
use vida_formats::csv::CsvFile;
use vida_formats::json::JsonFile;
use vida_formats::plugin::{CsvPlugin, JsonPlugin};
use vida_formats::{AccessStats, InputPlugin, MapMode, Revalidation};
use vida_lang::{parse, Expr};
use vida_optimizer::CostModel;
use vida_types::{Monoid, PrimitiveMonoid, Result, Schema, Type, Value};

// ---------------------------------------------------------------------------
// Fixture: one table T(id, v) in either format. `v` is always two digits
// so a "same-length in-place edit" is constructible by swapping values.
// ---------------------------------------------------------------------------

fn schema() -> Schema {
    Schema::from_pairs([("id", Type::Int), ("v", Type::Int)])
}

fn v_of(i: i64) -> i64 {
    10 + (i * 7) % 80
}

/// Rows `lo..hi` of the fixture. `bump` replaces row 0's value with 99 —
/// the same byte length, so only the ns-mtime distinguishes the edit.
fn csv_rows(lo: i64, hi: i64, bump: bool) -> Vec<u8> {
    let mut s = if lo == 0 {
        String::from("id,v\n")
    } else {
        String::new()
    };
    for i in lo..hi {
        let v = if bump && i == 0 { 99 } else { v_of(i) };
        s.push_str(&format!("{i},{v}\n"));
    }
    s.into_bytes()
}

fn json_rows(lo: i64, hi: i64, bump: bool) -> Vec<u8> {
    let mut s = String::new();
    for i in lo..hi {
        let v = if bump && i == 0 { 99 } else { v_of(i) };
        s.push_str(&format!("{{\"id\":{i},\"v\":{v}}}\n"));
    }
    s.into_bytes()
}

fn rows_for(format: &str, lo: i64, hi: i64, bump: bool) -> Vec<u8> {
    match format {
        "csv" => csv_rows(lo, hi, bump),
        _ => json_rows(lo, hi, bump),
    }
}

fn open_plugin(format: &str, path: &Path, mode: MapMode) -> Arc<dyn vida_formats::InputPlugin> {
    match format {
        "csv" => Arc::new(CsvPlugin::new(
            CsvFile::open_with("T", path, b',', true, schema(), mode).unwrap(),
        )),
        _ => Arc::new(JsonPlugin::new(
            JsonFile::open_with("T", path, schema(), mode).unwrap(),
        )),
    }
}

/// (len, ns-mtime) as the executor sees it — for the edit deadline loop.
fn fp(path: &Path) -> (u64, u64) {
    let md = std::fs::metadata(path).unwrap();
    let ns = md
        .modified()
        .unwrap()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_nanos() as u64;
    (md.len(), ns)
}

/// Rewrite `path` until the fingerprint moves. A same-length rewrite is
/// only visible through the ns-mtime, and the kernel file clock ticks
/// coarsely — so rewrite in a bounded loop instead of sleeping once.
fn rewrite_until_fingerprint_moves(path: &Path, bytes: &[u8]) {
    let before = fp(path);
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        std::fs::write(path, bytes).unwrap();
        if fp(path) != before {
            return;
        }
        assert!(Instant::now() < deadline, "file clock never advanced");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn append(path: &Path, bytes: &[u8]) {
    use std::io::Write;
    let mut fh = std::fs::OpenOptions::new().append(true).open(path).unwrap();
    fh.write_all(bytes).unwrap();
}

/// Aggregates that are exact at every merge order — the matrix demands
/// bit-identity between incremental and cold execution.
fn plans() -> Vec<(&'static str, Plan)> {
    let reduce = |monoid, head| Plan::Reduce {
        input: Box::new(Plan::Scan {
            dataset: "T".into(),
            binding: "t".into(),
        }),
        monoid: Monoid::Primitive(monoid),
        head,
    };
    vec![
        (
            "sum v",
            reduce(PrimitiveMonoid::Sum, Expr::var("t").proj("v")),
        ),
        ("count", reduce(PrimitiveMonoid::Count, Expr::int(1))),
        (
            "max v",
            reduce(PrimitiveMonoid::Max, Expr::var("t").proj("v")),
        ),
    ]
}

/// The cold oracle: a fresh plugin over the file's *current* bytes, no
/// cache, interpreted Volcano engine.
fn cold_rescan(plan: &Plan, format: &str, path: &Path) -> Value {
    let cat = MemoryCatalog::new();
    cat.register(open_plugin(format, path, MapMode::Never));
    run_volcano(plan, &cat).unwrap()
}

// ---------------------------------------------------------------------------
// The mutation matrix
// ---------------------------------------------------------------------------

/// append / edit / truncate × {mmap, no-mmap} × {1, 2, 8} threads × {csv,
/// json}: every warm result on the resident catalog is bit-identical to a
/// cold full re-scan of the file as it stands.
#[test]
fn mutation_matrix_matches_cold_rescan() {
    for (mode, mode_tag) in [(MapMode::Auto, "mmap"), (MapMode::Never, "nommap")] {
        for threads in [1usize, 2, 8] {
            for format in ["csv", "json"] {
                let tag = format!("inc_{mode_tag}_{threads}");
                let name = format!("T.{format}");
                let path = fixture_path(&tag, &name);
                std::fs::write(&path, rows_for(format, 0, 24, false)).unwrap();

                let cat = MemoryCatalog::new();
                cat.register(open_plugin(format, &path, mode));
                let opts = JitOptions {
                    cache: Some(Arc::new(CacheManager::new(1 << 20))),
                    threads,
                    morsel_rows: 4,
                    ..Default::default()
                };
                let ctx = |what: &str, plan: &str| {
                    format!("{format} [{mode_tag} x{threads}] {what}: {plan}")
                };

                // Cold pass warms replicas and fold partials.
                for (what, raw) in plans() {
                    let plan = rewrite(&raw);
                    let (v, _) = run_jit_with_stats(&plan, &cat, &opts).unwrap();
                    assert_eq!(
                        v,
                        cold_rescan(&plan, format, &path),
                        "{}",
                        ctx("cold", what)
                    );
                }

                // Append: grow by 8 rows, results must match a cold
                // re-scan and the engine may only scan the tail.
                append(&path, &rows_for(format, 24, 32, false));
                for (i, (what, raw)) in plans().into_iter().enumerate() {
                    let plan = rewrite(&raw);
                    let (v, stats) = run_jit_with_stats(&plan, &cat, &opts).unwrap();
                    assert_eq!(
                        v,
                        cold_rescan(&plan, format, &path),
                        "{}",
                        ctx("after append", what)
                    );
                    if i == 0 {
                        // Only the first query after the append sees the
                        // Extended verdict (it installs the fresh plugin);
                        // it must pay for exactly the appended suffix.
                        assert_eq!(
                            stats.tail_rows_scanned,
                            8,
                            "{}",
                            ctx("tail scan width", what)
                        );
                        assert_eq!(stats.raw_columns, 0, "{}", ctx("prefix re-read", what));
                    }
                }

                // Same-length in-place edit: only the ns-mtime changes.
                // Serving the cached answer here is the PR's headline bug.
                rewrite_until_fingerprint_moves(&path, &rows_for(format, 0, 32, true));
                for (what, raw) in plans() {
                    let plan = rewrite(&raw);
                    let (v, _) = run_jit_with_stats(&plan, &cat, &opts).unwrap();
                    assert_eq!(
                        v,
                        cold_rescan(&plan, format, &path),
                        "{}",
                        ctx("after edit", what)
                    );
                }

                // Truncate to 6 rows: full invalidation + re-scan, and on
                // the mmap backing the old (longer) mapping must not be
                // touched by the new scans.
                rewrite_until_fingerprint_moves(&path, &rows_for(format, 0, 6, false));
                for (what, raw) in plans() {
                    let plan = rewrite(&raw);
                    let (v, _) = run_jit_with_stats(&plan, &cat, &opts).unwrap();
                    assert_eq!(
                        v,
                        cold_rescan(&plan, format, &path),
                        "{}",
                        ctx("after truncate", what)
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Stale-fingerprint regression (the headline bugfix)
// ---------------------------------------------------------------------------

/// Two queries on one resident plugin with the file mutated in between:
/// the second answer must reflect the file, not the cache. On pre-fix
/// code the plugin's open-time fingerprint kept matching the replica's,
/// so the stale sum came back from cache and this test fails.
#[test]
fn resident_catalog_serves_fresh_data_after_disk_edit() {
    let path = fixture_path("stale_fp", "T.csv");
    std::fs::write(&path, b"id,v\n1,10\n2,20\n").unwrap();
    let cat = MemoryCatalog::new();
    cat.register(open_plugin("csv", &path, MapMode::Auto));
    let opened_fp = cat.plugin("T").unwrap().fingerprint();
    let opts = JitOptions::with_cache(Arc::new(CacheManager::new(1 << 20)));

    let plan = rewrite(&plans()[0].1);
    let (v1, _) = run_jit_with_stats(&plan, &cat, &opts).unwrap();
    assert_eq!(v1, Value::Int(30));

    // Same-length edit — only the ns-mtime can betray it.
    rewrite_until_fingerprint_moves(&path, b"id,v\n1,10\n2,99\n");
    let (v2, stats) = run_jit_with_stats(&plan, &cat, &opts).unwrap();
    assert_eq!(v2, Value::Int(109), "stale cached sum served after edit");
    assert!(!stats.served_from_cache, "edit must invalidate the replica");
    // Revalidation installed the reopened plugin: the catalog now vouches
    // for the current file generation, not the open-time one.
    assert_ne!(cat.plugin("T").unwrap().fingerprint(), opened_fp);

    // And a third run serves the refreshed replica from cache again.
    let (v3, stats) = run_jit_with_stats(&plan, &cat, &opts).unwrap();
    assert_eq!(v3, Value::Int(109));
    assert!(stats.served_from_cache);
}

// ---------------------------------------------------------------------------
// O(delta) counters
// ---------------------------------------------------------------------------

/// After an append, the warm re-query resumes the cached fold partial and
/// scans exactly the appended rows; once the replicas are refreshed, the
/// next unchanged run is a plain full cache hit again. Both backings: growth
/// detection and tail-only scanning must not depend on mmap. The prefix
/// replica comes in both layouts: a `Values` replica takes the tail in
/// place, a `BinaryJson` one decodes its prefix and stitches on the tail.
#[test]
fn append_requery_scans_only_the_tail() {
    for (mode, threads, layout) in [
        (MapMode::Auto, 1usize, Layout::Values),
        (MapMode::Auto, 8, Layout::Values),
        (MapMode::Never, 1, Layout::Values),
        (MapMode::Never, 8, Layout::Values),
        (MapMode::Auto, 1, Layout::BinaryJson),
        (MapMode::Never, 8, Layout::BinaryJson),
    ] {
        let path = fixture_path(
            &format!("odelta_{mode:?}_{threads}_{}", layout.name()),
            "T.csv",
        );
        std::fs::write(&path, csv_rows(0, 64, false)).unwrap();
        let cat = MemoryCatalog::new();
        cat.register(open_plugin("csv", &path, mode));
        let tag = format!("{mode:?} x{threads} {layout:?}");
        let cache = Arc::new(CacheManager::new(1 << 20));
        let opts = JitOptions {
            cache: Some(Arc::clone(&cache)),
            threads,
            morsel_rows: 4,
            ..Default::default()
        };
        let plan = rewrite(&plans()[0].1);
        let expected_cold: i64 = (0..64).map(v_of).sum();
        let expected_warm: i64 = (0..68).map(v_of).sum();

        // Cold: full raw scan, nothing incremental yet.
        let (v, stats) = run_jit_with_stats(&plan, &cat, &opts).unwrap();
        assert_eq!(v, Value::Int(expected_cold), "{tag}");
        assert_eq!(stats.tail_rows_scanned, 0, "{tag}");
        assert_eq!(stats.partials_reused, 0, "{tag}");
        assert!(stats.raw_columns > 0, "{tag}");
        let old = cat.plugin("T").unwrap().fingerprint();
        if layout == Layout::BinaryJson {
            // Re-shape the touched column's replica at the old generation.
            let vals: Vec<Value> = (0..64).map(|i| Value::Int(v_of(i))).collect();
            let replica = CachedData::from_values(&vals, layout).unwrap();
            cache.put(vida_cache::CacheKey::new("T", "v", layout), replica, old);
        }
        assert_eq!(cache.get_any("T", "v", &Layout::ALL).unwrap().0, layout);

        // Append 4 rows; the warm run pays for 4 rows, not 68.
        append(&path, &csv_rows(64, 68, false));
        let (v, stats) = run_jit_with_stats(&plan, &cat, &opts).unwrap();
        assert_eq!(v, Value::Int(expected_warm), "{tag}");
        assert_eq!(v, cold_rescan(&plan, "csv", &path), "{tag}");
        assert_eq!(stats.tail_rows_scanned, 4, "{tag}: tail width");
        assert_eq!(stats.partials_reused, 1, "{tag}: fold not resumed");
        assert_eq!(stats.raw_columns, 0, "{tag}: prefix re-read raw");
        assert_eq!(stats.cached_columns, 1, "{tag}: prefix not served");
        // The field's one replica now vouches for the grown file.
        let current = cat.plugin("T").unwrap().fingerprint();
        assert_ne!(current, old, "{tag}");
        let (_, data, stored) = cache.get_any("T", "v", &Layout::ALL).unwrap();
        assert_eq!((stored, data.len()), (current, 68), "{tag}");
        assert_eq!(cache.cached_fields("T"), vec!["v".to_string()], "{tag}");

        // Unchanged third run: ordinary full cache service.
        let (v, stats) = run_jit_with_stats(&plan, &cat, &opts).unwrap();
        assert_eq!(v, Value::Int(expected_warm), "{tag}");
        assert!(stats.served_from_cache, "{tag}");
        assert_eq!(stats.tail_rows_scanned, 0, "{tag}");
        assert_eq!(stats.partials_reused, 0, "{tag}");
    }
}

/// After an append, the first query may touch only some columns. The
/// others keep their previous-generation replicas, and a later query
/// extends each one by the appended tail instead of re-reading it raw.
#[test]
fn columns_untouched_by_the_first_query_after_an_append_still_extend() {
    for threads in [1usize, 8] {
        let path = fixture_path(&format!("late_extend_{threads}"), "T.csv");
        std::fs::write(&path, csv_rows(0, 64, false)).unwrap();
        let cat = MemoryCatalog::new();
        cat.register(open_plugin("csv", &path, MapMode::Auto));
        let opts = JitOptions {
            cache: Some(Arc::new(CacheManager::new(1 << 20))),
            threads,
            morsel_rows: 4,
            ..Default::default()
        };
        let run = |q: &str| run_jit_with_stats(&plan_of(q), &cat, &opts).unwrap();
        let sum_v = "for { t <- T } yield sum t.v";
        let sum_id = "for { t <- T } yield sum t.id";
        for q in [sum_v, sum_id] {
            assert!(run(q).1.raw_columns > 0, "{q}: cold");
        }
        append(&path, &csv_rows(64, 68, false));
        for (q, expected) in [(sum_v, (0..68).map(v_of).sum()), (sum_id, (0..68).sum())] {
            let (v, stats) = run(q);
            assert_eq!(v, Value::Int(expected), "{q} x{threads}");
            assert_eq!(v, cold_rescan(&plan_of(q), "csv", &path), "{q} x{threads}");
            assert_eq!(stats.raw_columns, 0, "{q} x{threads}: re-read raw");
            assert_eq!(stats.tail_rows_scanned, 4, "{q} x{threads}: tail width");
        }
        // Both columns now hold the grown generation: a full hit.
        let (_, stats) = run(sum_id);
        assert!(stats.served_from_cache, "x{threads}");
        assert_eq!(stats.tail_rows_scanned, 0, "x{threads}");
    }
}

// ---------------------------------------------------------------------------
// Shrink safety
// ---------------------------------------------------------------------------

/// Truncating a file while a resident plugin holds its mmap must not let
/// any later scan touch pages past the new EOF (SIGBUS on unix). The
/// description-time re-stat reopens the file before scans run; the
/// `MapMode::Never` backing runs the same protocol over owned buffers.
#[test]
fn truncation_while_resident_is_safe_on_both_backings() {
    for (mode, mode_tag) in [(MapMode::Auto, "mmap"), (MapMode::Never, "nommap")] {
        let path = fixture_path(&format!("shrink_{mode_tag}"), "T.csv");
        std::fs::write(&path, csv_rows(0, 512, false)).unwrap();
        let cat = MemoryCatalog::new();
        cat.register(open_plugin("csv", &path, mode));
        #[cfg(unix)]
        assert_eq!(cat.plugin("T").unwrap().is_mapped(), mode == MapMode::Auto);
        let opts = JitOptions {
            cache: Some(Arc::new(CacheManager::new(1 << 20))),
            threads: 2,
            morsel_rows: 8,
            ..Default::default()
        };
        let plan = rewrite(&plans()[0].1);
        let (v, _) = run_jit_with_stats(&plan, &cat, &opts).unwrap();
        assert_eq!(v, Value::Int((0..512).map(v_of).sum()), "{mode_tag}");

        // Shrink far below the mapped length, then query the resident
        // catalog: scans must only see the reopened 3-row file.
        rewrite_until_fingerprint_moves(&path, &csv_rows(0, 3, false));
        let (v, stats) = run_jit_with_stats(&plan, &cat, &opts).unwrap();
        assert_eq!(v, Value::Int((0..3).map(v_of).sum()), "{mode_tag}");
        assert!(
            !stats.served_from_cache,
            "{mode_tag}: shrunk file from cache"
        );
        assert_eq!(cat.plugin("T").unwrap().num_units(), 3, "{mode_tag}");
    }
}

// ---------------------------------------------------------------------------
// One generation per query
// ---------------------------------------------------------------------------

fn plan_of(q: &str) -> Plan {
    rewrite(&lower(&parse(q).unwrap()).unwrap())
}

/// A CSV plugin over `path` that appends rows 3..5 to its file right after
/// its first `revalidate` returns — a writer racing one query's build.
struct AppendsAfterRevalidate {
    inner: Arc<dyn InputPlugin>,
    path: PathBuf,
    calls: AtomicUsize,
}

impl InputPlugin for AppendsAfterRevalidate {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn num_units(&self) -> usize {
        self.inner.num_units()
    }

    fn read_field(&self, row: usize, col: usize) -> Result<Value> {
        self.inner.read_field(row, col)
    }

    fn scan_project_range(
        &self,
        cols: &[usize],
        rows: std::ops::Range<usize>,
        f: &mut dyn FnMut(usize, Vec<Value>) -> Result<()>,
    ) -> Result<()> {
        self.inner.scan_project_range(cols, rows, f)
    }

    fn stats(&self) -> Arc<AccessStats> {
        self.inner.stats()
    }

    fn fingerprint(&self) -> (u64, u64) {
        self.inner.fingerprint()
    }

    fn revalidate(&self) -> Result<Revalidation> {
        let verdict = self.inner.revalidate();
        if self.calls.fetch_add(1, Ordering::SeqCst) == 0 {
            append(&self.path, &csv_rows(3, 5, false));
        }
        verdict
    }

    fn field_cost_factor(&self, col: usize) -> f64 {
        self.inner.field_cost_factor(col)
    }

    fn raw_bytes(&self) -> usize {
        self.inner.raw_bytes()
    }
}

/// A self-join reads its dataset twice while the query is built. The file
/// grows between the two reads, and both must still see the 3-row
/// generation the first re-stat fixed: 3 × 3 pairs, one re-stat, 6 tuples.
/// Before the per-query binding, the second read re-stat'd and joined 3
/// rows against 5 (`Int(15)`, 2 re-stats, 8 tuples).
#[test]
fn each_dataset_is_read_at_one_generation_per_query() {
    let path = fixture_path("one_generation", "T.csv");
    std::fs::write(&path, csv_rows(0, 3, false)).unwrap();
    let plugin = Arc::new(AppendsAfterRevalidate {
        inner: open_plugin("csv", &path, MapMode::Auto),
        path: path.clone(),
        calls: AtomicUsize::new(0),
    });
    let cat = MemoryCatalog::new();
    cat.register(Arc::clone(&plugin) as Arc<dyn InputPlugin>);
    let plan = plan_of("for { p <- T, q <- T } yield count p");
    let (v, stats) = run_jit_with_stats(&plan, &cat, &JitOptions::default()).unwrap();
    assert_eq!(v, Value::Int(9));
    assert_eq!(
        plugin.calls.load(Ordering::SeqCst),
        1,
        "one re-stat per query"
    );
    assert_eq!(stats.tuples_scanned, 6, "{stats:?}");
}

/// A dataset read only by a nested comprehension is re-stat'd like a
/// scanned one: after an append to `P`, both engines count the new rows,
/// on both backings. Before the per-query binding only scans re-stat'd,
/// so both returned the stale `Int(3)`.
#[test]
fn nested_comprehension_datasets_see_appends() {
    let plan = plan_of("for { g <- G } yield sum (for { p <- P } yield count p)");
    for (mode, mode_tag) in [(MapMode::Auto, "mmap"), (MapMode::Never, "nommap")] {
        for engine in ["jit", "volcano"] {
            let tag = format!("nested_{mode_tag}_{engine}");
            let open = |name: &str, rows: i64| -> Arc<dyn InputPlugin> {
                let path = fixture_path(&tag, &format!("{name}.csv"));
                std::fs::write(&path, csv_rows(0, rows, false)).unwrap();
                let file = CsvFile::open_with(name, &path, b',', true, schema(), mode).unwrap();
                Arc::new(CsvPlugin::new(file))
            };
            let cat = MemoryCatalog::new();
            cat.register(open("G", 1));
            cat.register(open("P", 3));
            let run = |cat: &MemoryCatalog| match engine {
                "jit" => run_jit(&plan, cat, &JitOptions::default()).unwrap(),
                _ => run_volcano(&plan, cat).unwrap(),
            };
            assert_eq!(run(&cat), Value::Int(3), "{engine} [{mode_tag}]");
            append(&fixture_path(&tag, "P.csv"), &csv_rows(3, 5, false));
            assert_eq!(run(&cat), Value::Int(5), "{engine} [{mode_tag}]: stale P");
        }
    }
}

// ---------------------------------------------------------------------------
// Distinct sketches across file generations
// ---------------------------------------------------------------------------

/// Rows `lo..hi` of `T(id, v)` with `v = v_at(id)`, in either format (a
/// CSV header only when `lo == 0`).
fn table_rows(format: &str, lo: i64, hi: i64, v_at: impl Fn(i64) -> i64) -> Vec<u8> {
    let mut s = match (format, lo) {
        ("csv", 0) => String::from("id,v\n"),
        _ => String::new(),
    };
    for i in lo..hi {
        s.push_str(&match format {
            "csv" => format!("{i},{}\n", v_at(i)),
            _ => format!("{{\"id\":{i},\"v\":{}}}\n", v_at(i)),
        });
    }
    s.into_bytes()
}

/// A resident engine over `T` at `path`, its cache steered by `model`.
fn sketched_engine(format: &str, path: &Path, model: &Arc<CostModel>, threads: usize) -> Engine {
    let cat = MemoryCatalog::new();
    cat.register(open_plugin(format, path, MapMode::Auto));
    let cache = Arc::new(CacheManager::new(64 << 20));
    let opts = JitOptions {
        threads,
        morsel_rows: 64,
        ..JitOptions::with_cost_model(cache, Arc::clone(model))
    };
    Engine::new(Arc::new(cat), opts)
}

/// A file rewritten under a resident engine must not leave its old values
/// in the field's distinct sketch: 2000 distinct `v`s rewritten as 1500
/// rows of `v = 7` count 1 distinct value. Before sketches tracked the
/// file generation they only ever unioned, and reported 1500 (the union,
/// clamped to the row count).
#[test]
fn a_rewritten_file_resets_its_distinct_sketch() {
    let path = fixture_path("sketch_rewrite", "T.csv");
    std::fs::write(&path, table_rows("csv", 0, 2_000, |i| i)).unwrap();
    let model = Arc::new(CostModel::new());
    let engine = sketched_engine("csv", &path, &model, 1);
    let plan = plan_of("for { t <- T } yield sum t.v");
    engine.execute(&plan).unwrap();
    let before = model.sketch().distinct("T", "v").unwrap();
    assert!(before > 1_800.0, "2000 distinct values estimate {before}");

    rewrite_until_fingerprint_moves(&path, &table_rows("csv", 0, 1_500, |_| 7));
    assert_eq!(engine.execute(&plan).unwrap(), Value::Int(7 * 1_500));
    let after = model.sketch().distinct("T", "v").unwrap();
    assert!(
        (after - 1.0).abs() < 0.5,
        "one distinct value estimates {after}"
    );
    assert_eq!(model.sketch().rows("T", "v"), Some(1_500));
}

/// Append, rewrite, append — on CSV and JSON, at 1 and 8 threads: after
/// every step the resident model's distinct counts are exactly those of a
/// fresh model after one query over the current file (the sketch
/// registers are bit-identical, so the estimates are equal as floats).
#[test]
fn distinct_sketches_match_a_fresh_model_after_every_file_change() {
    let plan = plan_of("for { t <- T, t.id >= 0 } yield sum t.v");
    for format in ["csv", "json"] {
        for threads in [1usize, 8] {
            let tag = format!("sketch_steps_{format}_{threads}");
            let path = fixture_path(&tag, &format!("T.{format}"));
            std::fs::write(&path, table_rows(format, 0, 1_000, |i| i % 300)).unwrap();
            let model = Arc::new(CostModel::new());
            let engine = sketched_engine(format, &path, &model, threads);
            for step in ["open", "append", "rewrite", "append again"] {
                match step {
                    "append" => append(&path, &table_rows(format, 1_000, 1_400, |i| i)),
                    "rewrite" => {
                        let bytes = table_rows(format, 0, 600, |_| 7);
                        rewrite_until_fingerprint_moves(&path, &bytes);
                    }
                    "append again" => append(&path, &table_rows(format, 600, 900, |i| i % 50)),
                    _ => {}
                }
                let (value, stats) = engine.execute_with_stats(&plan).unwrap();
                // Appends take the incremental path, whose sketch update
                // inserts only the tail.
                let grown = stats.tail_rows_scanned > 0;
                assert_eq!(grown, step.starts_with("append"), "{tag} after {step}");
                let fresh_model = Arc::new(CostModel::new());
                let cat = MemoryCatalog::new();
                cat.register(open_plugin(format, &path, MapMode::Never));
                let cache = Arc::new(CacheManager::new(64 << 20));
                let opts = JitOptions::with_cost_model(cache, Arc::clone(&fresh_model));
                let (fresh_value, _) = run_jit_with_stats(&plan, &cat, &opts).unwrap();
                assert_eq!(value, fresh_value, "{tag} after {step}");
                for field in ["id", "v"] {
                    let (resident, fresh) = (model.sketch(), fresh_model.sketch());
                    assert_eq!(
                        resident.distinct("T", field),
                        fresh.distinct("T", field),
                        "{tag} after {step}: distinct({field})"
                    );
                    assert_eq!(resident.rows("T", field), fresh.rows("T", field));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Block summaries follow the file
// ---------------------------------------------------------------------------

/// Rows `lo..hi` of `T(id, v)` as CSV with `id = id_at(i)` and `v = i`.
fn keyed_rows(lo: i64, hi: i64, id_at: impl Fn(i64) -> i64) -> Vec<u8> {
    let mut s = match lo {
        0 => String::from("id,v\n"),
        _ => String::new(),
    };
    for i in lo..hi {
        s.push_str(&format!("{},{i}\n", id_at(i)));
    }
    s.into_bytes()
}

/// Ascending ids `0..3000`, then appended rows whose ids (`i % 50`) fall
/// below the old maximum — into the partial last block (2048..3071) and a
/// new one. The block summary the append extends must find them: every
/// warm `id < 40` equals a cold re-scan, on both backings at 1/2/8
/// threads, and once the grown column is served whole only block 1
/// (1024..2047) is still refuted.
#[test]
fn appended_ids_below_the_old_maximum_are_found_by_the_extended_summary() {
    let id_at = |i: i64| if i < 3_000 { i } else { i % 50 };
    let plans = [
        plan_of("for { t <- T, t.id < 40 } yield sum t.v"),
        plan_of("for { t <- T, t.id < 40 } yield list t.v"),
    ];
    for mode in [MapMode::Auto, MapMode::Never] {
        for threads in [1usize, 2, 8] {
            let tag = format!("zones_append_{mode:?}_{threads}");
            let path = fixture_path(&tag, "T.csv");
            std::fs::write(&path, keyed_rows(0, 3_000, id_at)).unwrap();
            let cat = MemoryCatalog::new();
            cat.register(open_plugin("csv", &path, mode));
            let opts = JitOptions {
                cache: Some(Arc::new(CacheManager::new(64 << 20))),
                threads,
                ..Default::default()
            };
            let engine = Engine::new(Arc::new(cat), opts);
            for plan in &plans {
                engine.execute(plan).unwrap();
                let (v, stats) = engine.execute_with_stats(plan).unwrap();
                assert_eq!(v, cold_rescan(plan, "csv", &path), "{tag}");
                assert_eq!(stats.rows_skipped, 3_000 - 1_024, "{tag}: blocks 1 and 2");
            }
            append(&path, &keyed_rows(3_000, 3_500, id_at));
            for plan in &plans {
                let (v, _) = engine.execute_with_stats(plan).unwrap();
                assert_eq!(
                    v,
                    cold_rescan(plan, "csv", &path),
                    "{tag}: after the append"
                );
            }
            for plan in &plans {
                let (v, stats) = engine.execute_with_stats(plan).unwrap();
                assert_eq!(v, cold_rescan(plan, "csv", &path), "{tag}: served whole");
                assert!(stats.served_from_cache, "{tag}");
                assert_eq!(stats.rows_skipped, 1_024, "{tag}: block 1 alone");
            }
        }
    }
}

/// A rewritten file drops its replicas and their block summaries: the old
/// summary (ids `0..3000`) would refute `id = 5` on every block past the
/// first, but the new file holds `id = 5` on every row.
#[test]
fn a_rewritten_file_drops_the_block_summary_with_its_replica() {
    let path = fixture_path("zones_rewrite", "T.csv");
    std::fs::write(&path, keyed_rows(0, 3_000, |i| i)).unwrap();
    let cat = MemoryCatalog::new();
    cat.register(open_plugin("csv", &path, MapMode::Auto));
    let cache = Arc::new(CacheManager::new(64 << 20));
    let engine = Engine::new(Arc::new(cat), JitOptions::with_cache(Arc::clone(&cache)));
    let plan = plan_of("for { t <- T, t.id = 5 } yield count t");
    engine.execute(&plan).unwrap();
    let (v, stats) = engine.execute_with_stats(&plan).unwrap();
    assert_eq!((v, stats.rows_skipped), (Value::Int(1), 3_000 - 1_024));

    rewrite_until_fingerprint_moves(&path, &keyed_rows(0, 3_000, |_| 5));
    let (v, stats) = engine.execute_with_stats(&plan).unwrap();
    assert_eq!(v, Value::Int(3_000));
    assert_eq!(v, cold_rescan(&plan, "csv", &path));
    assert_eq!(
        (stats.rows_skipped, stats.raw_columns),
        (0, 2),
        "read raw, unsummarized"
    );
    let (v, stats) = engine.execute_with_stats(&plan).unwrap();
    assert_eq!(
        (v, stats.rows_skipped),
        (Value::Int(3_000), 0),
        "the new summary"
    );
    assert!(stats.served_from_cache);
}
