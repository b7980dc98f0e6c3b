//! Resident-engine integration tests: concurrent client threads over one
//! shared [`Engine`] — one parked worker pool, one interner, one replica
//! cache — must be **bit-identical** to per-call `run_jit` runs, at every
//! swept worker count (1/2/8) and on both raw-data backings (owned bytes
//! and mmap'd files). On top of value identity, the metrics registry pins
//! the two structural claims of the resident path:
//!
//! - **zero per-query thread spawns** (`pool_thread_spawns` delta is 0
//!   across any number of resident queries — workers were counted once,
//!   at engine construction, and a 1-worker engine starts none at all), and
//! - **morsel-granularity time slicing** (`pool_multiplexed_claims` goes
//!   nonzero when ≥2 sessions' runs are in flight on one pool).
//!
//! A query that panics inside a plugin fails with an `exec` error for its
//! own session; the workers survive and sibling sessions stay bit-identical.
//!
//! The metrics registry is process-global and other tests in this binary
//! also run pool work, so every test that reads a metrics *delta* (or
//! whose per-call baseline starts pool threads) serializes on a file-local
//! lock.

mod common;

use common::{file_catalog, owned_catalog};
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;
use vida_algebra::{rewrite, Plan};
use vida_cache::CacheManager;
use vida_exec::{global_metrics, run_jit, Engine, JitOptions, MemoryCatalog, SourceProvider};
use vida_formats::{AccessStats, InputPlugin, MapMode};
use vida_lang::{BinOp, Expr};
use vida_types::{CollectionKind, Monoid, PrimitiveMonoid, Result, Schema, Value};

/// Serializes the metrics-sensitive tests of this binary (see module doc).
static METRICS_LOCK: Mutex<()> = Mutex::new(());

fn metrics_guard() -> MutexGuard<'static, ()> {
    METRICS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn scan(dataset: &str, binding: &str) -> Plan {
    Plan::Scan {
        dataset: dataset.into(),
        binding: binding.into(),
    }
}

fn reduce(input: Plan, monoid: Monoid, head: Expr) -> Plan {
    Plan::Reduce {
        input: Box::new(input),
        monoid,
        head,
    }
}

/// A fixed plan set spanning the pipeline shapes: filtered scans,
/// order-sensitive string collection (hostile CSV/JSON strings), an equi
/// join, a theta join, an unnest chain, and an exact dyadic float sum.
fn plans() -> Vec<Plan> {
    let sum = Monoid::Primitive(PrimitiveMonoid::Sum);
    let count = Monoid::Primitive(PrimitiveMonoid::Count);
    let list = Monoid::Collection(CollectionKind::List);
    let raw = [
        // Filtered scan, nullable column.
        reduce(
            Plan::Select {
                input: Box::new(scan("A", "a")),
                predicate: Expr::bin(BinOp::Gt, Expr::var("a").proj("x"), Expr::int(5)),
            },
            sum,
            Expr::var("a").proj("k"),
        ),
        // Order-sensitive list of escaped CSV strings: any morsel
        // misalignment or interner corruption changes the value.
        reduce(scan("A", "a"), list, Expr::var("a").proj("s")),
        // Same over surrogate-pair JSON strings.
        reduce(scan("B", "b"), list, Expr::var("b").proj("s")),
        // Equi join (hash pipeline).
        reduce(
            Plan::Join {
                left: Box::new(scan("A", "a")),
                right: Box::new(scan("B", "b")),
                predicate: Expr::bin(
                    BinOp::Eq,
                    Expr::var("a").proj("k"),
                    Expr::var("b").proj("k"),
                ),
            },
            sum,
            // `b.k` rather than the nullable `b.y`: sum over null errors.
            Expr::var("b").proj("k"),
        ),
        // Band join (sort-probe theta pipeline).
        reduce(
            Plan::Join {
                left: Box::new(scan("A", "a")),
                right: Box::new(scan("B", "b")),
                predicate: Expr::bin(
                    BinOp::Lt,
                    Expr::var("a").proj("k"),
                    Expr::var("b").proj("k"),
                ),
            },
            count,
            Expr::int(1),
        ),
        // Unnest over the nested table.
        reduce(
            Plan::Unnest {
                input: Box::new(scan("N", "n")),
                binding: "e".into(),
                path: Expr::var("n").proj("xs"),
            },
            sum,
            Expr::var("e"),
        ),
        // Exact dyadic float sum: bit-identity catches merge-order drift.
        reduce(scan("A", "a"), sum, Expr::var("a").proj("f")),
    ];
    raw.iter().map(rewrite).collect()
}

fn opts_for(workers: usize, cache: Option<Arc<CacheManager>>) -> JitOptions {
    JitOptions {
        threads: workers,
        morsel_rows: 4,
        cache,
        ..Default::default()
    }
}

/// N client threads over one shared engine (pool + cache + interner),
/// swept at 1/2/8 workers on both backings: every concurrent result must
/// equal the serial per-call `run_jit` baseline bit for bit.
#[test]
fn concurrent_clients_bit_identical_to_serial_across_workers_and_backings() {
    let _guard = metrics_guard();
    let plans = plans();
    let backings: [(&str, Arc<MemoryCatalog>); 2] = [
        ("owned", Arc::new(owned_catalog())),
        (
            "mmap",
            Arc::new(file_catalog("resident_engine", MapMode::Auto)),
        ),
    ];
    for (backing, cat) in &backings {
        for workers in [1usize, 2, 8] {
            // Serial baseline: the per-call path with its own cache.
            let baseline_opts = opts_for(workers, Some(Arc::new(CacheManager::new(1 << 22))));
            let expected: Vec<Value> = plans
                .iter()
                .map(|p| run_jit(p, &**cat, &baseline_opts).unwrap())
                .collect();

            let engine = Engine::new(
                cat.clone(),
                opts_for(workers, Some(Arc::new(CacheManager::new(1 << 22)))),
            );
            std::thread::scope(|scope| {
                for client in 0..4 {
                    let engine = &engine;
                    let plans = &plans;
                    let expected = &expected;
                    scope.spawn(move || {
                        let mut session = engine.session();
                        // Three passes: the second and third run against a
                        // warm cache and interner.
                        for pass in 0..3 {
                            for (i, plan) in plans.iter().enumerate() {
                                let v = session.execute(plan).unwrap();
                                assert_eq!(
                                    v, expected[i],
                                    "client {client} pass {pass} plan#{i} \
                                     ({backing}, x{workers}) deviates from serial"
                                );
                            }
                        }
                    });
                }
            });
            assert_eq!(engine.stats().queries as usize, 4 * 3 * plans.len());
        }
    }
}

/// The no-per-query-spawn claim: after engine construction, any number of
/// resident queries adds **zero** to `pool_thread_spawns`, while the
/// parallel ones attach runs to the parked pool instead.
#[test]
fn resident_queries_spawn_zero_threads() {
    let _guard = metrics_guard();
    let plans = plans();
    let cat = Arc::new(owned_catalog());
    let engine = Engine::new(cat, opts_for(2, None));
    let before = global_metrics().snapshot();
    let mut session = engine.session();
    for _ in 0..4 {
        for plan in &plans {
            session.execute(plan).unwrap();
        }
    }
    let delta = global_metrics().snapshot().since(&before);
    assert_eq!(
        delta.pool_thread_spawns, 0,
        "resident queries must not spawn per-query threads"
    );
    assert!(
        delta.pool_runs > 0,
        "2-worker queries should attach runs to the parked pool"
    );
}

/// A 1-worker engine runs every morsel grid inline on the caller, so it
/// must start no OS thread at all — not at construction (the regression: a
/// parked `vida-worker-0` nothing could ever wake), not per query.
#[test]
fn single_threaded_engine_spawns_zero_threads() {
    let _guard = metrics_guard();
    let plans = plans();
    let before = global_metrics().snapshot();
    let engine = Engine::new(Arc::new(owned_catalog()), opts_for(1, None));
    let mut session = engine.session();
    for plan in &plans {
        session.execute(plan).unwrap();
    }
    let delta = global_metrics().snapshot().since(&before);
    assert_eq!(
        delta.pool_thread_spawns, 0,
        "a threads: 1 engine has no use for a worker thread"
    );
    assert_eq!(session.stats().queries as usize, plans.len());
}

/// The time-slicing claim: two sessions driving the same 2-worker pool
/// from different client threads interleave at morsel granularity —
/// `pool_multiplexed_claims` (claims taken while ≥2 runs were attached)
/// goes nonzero. Scheduling noise can serialize any single round, so the
/// probe retries until the counter moves.
#[test]
fn concurrent_sessions_multiplex_one_pool() {
    let _guard = metrics_guard();
    let cat = Arc::new(owned_catalog());
    // 1-row morsels: every query becomes many claim points.
    let engine = Engine::new(
        cat,
        JitOptions {
            threads: 2,
            morsel_rows: 1,
            ..Default::default()
        },
    );
    let plan = rewrite(&reduce(
        Plan::Join {
            left: Box::new(scan("A", "a")),
            right: Box::new(scan("B", "b")),
            predicate: Expr::bin(
                BinOp::Ne,
                Expr::var("a").proj("k"),
                Expr::var("b").proj("k"),
            ),
        },
        Monoid::Primitive(PrimitiveMonoid::Count),
        Expr::int(1),
    ));
    let expected = engine.execute(&plan).unwrap();

    let mut multiplexed = 0u64;
    for _round in 0..200 {
        let before = global_metrics().snapshot();
        std::thread::scope(|scope| {
            for _client in 0..2 {
                let engine = &engine;
                let plan = &plan;
                let expected = &expected;
                scope.spawn(move || {
                    let mut session = engine.session();
                    for _ in 0..4 {
                        assert_eq!(&session.execute(plan).unwrap(), expected);
                    }
                });
            }
        });
        multiplexed = global_metrics()
            .snapshot()
            .since(&before)
            .pool_multiplexed_claims;
        if multiplexed > 0 {
            break;
        }
    }
    assert!(
        multiplexed > 0,
        "two concurrent sessions never interleaved morsels on the shared pool"
    );
}

/// A test-only wrapper over the `A` fixture, registered as `name`, that
/// calls `fault` whenever a scan or a field read reaches row
/// [`FAULT_ROW`] — a panic or a stall planted in the middle of one morsel.
struct FaultyPlugin {
    inner: Arc<dyn InputPlugin>,
    name: &'static str,
    fault: fn(),
}

const FAULT_ROW: usize = 9;

fn with_faulty(cat: MemoryCatalog, name: &'static str, fault: fn()) -> Arc<MemoryCatalog> {
    let inner = cat.plugin("A").unwrap();
    cat.register(Arc::new(FaultyPlugin { inner, name, fault }));
    Arc::new(cat)
}

impl InputPlugin for FaultyPlugin {
    fn name(&self) -> &str {
        self.name
    }

    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn num_units(&self) -> usize {
        self.inner.num_units()
    }

    fn read_field(&self, row: usize, col: usize) -> Result<Value> {
        if row == FAULT_ROW {
            (self.fault)();
        }
        self.inner.read_field(row, col)
    }

    fn scan_project_range(
        &self,
        cols: &[usize],
        rows: Range<usize>,
        f: &mut dyn FnMut(usize, Vec<Value>) -> Result<()>,
    ) -> Result<()> {
        if rows.contains(&FAULT_ROW) {
            (self.fault)();
        }
        self.inner.scan_project_range(cols, rows, f)
    }

    fn stats(&self) -> Arc<AccessStats> {
        self.inner.stats()
    }

    fn fingerprint(&self) -> (u64, u64) {
        self.inner.fingerprint()
    }

    fn field_cost_factor(&self, col: usize) -> f64 {
        self.inner.field_cost_factor(col)
    }

    fn raw_bytes(&self) -> usize {
        self.inner.raw_bytes()
    }
}

/// `sum p.k` over the faulty dataset `name`.
fn sum_k_of(name: &str) -> Plan {
    rewrite(&reduce(
        scan(name, "p"),
        Monoid::Primitive(PrimitiveMonoid::Sum),
        Expr::var("p").proj("k"),
    ))
}

/// Fault containment: a query whose plugin panics mid-scan fails with an
/// `exec` error on its own session while sibling sessions run healthy
/// plans concurrently, at 1/2/8 workers. Siblings and every later query on
/// the same engine stay bit-identical to serial, and no worker thread is
/// started after `Engine::new` — the pool's workers survived.
#[test]
fn a_panicking_query_fails_alone_and_the_engine_survives() {
    let _guard = metrics_guard();
    let plans = plans();
    let poisoned = sum_k_of("P");
    for workers in [1usize, 2, 8] {
        let cat = with_faulty(owned_catalog(), "P", || panic!("injected plugin panic"));
        let expected: Vec<Value> = plans
            .iter()
            .map(|p| run_jit(p, &*cat, &opts_for(workers, None)).unwrap())
            .collect();
        let cache = Arc::new(CacheManager::new(1 << 22));
        let engine = Engine::new(cat, opts_for(workers, Some(cache)));
        let before = global_metrics().snapshot();
        std::thread::scope(|scope| {
            for client in 0..2 {
                let (engine, plans, expected) = (&engine, &plans, &expected);
                scope.spawn(move || {
                    let mut session = engine.session();
                    for pass in 0..3 {
                        for (i, plan) in plans.iter().enumerate() {
                            assert_eq!(
                                session.execute(plan).unwrap(),
                                expected[i],
                                "client {client} pass {pass} plan#{i} (x{workers})"
                            );
                        }
                    }
                });
            }
            let (engine, poisoned) = (&engine, &poisoned);
            scope.spawn(move || {
                let mut session = engine.session();
                for _ in 0..3 {
                    let err = session.execute(poisoned).unwrap_err();
                    assert_eq!(err.kind(), "exec", "x{workers}: {err}");
                    assert!(err.to_string().contains("panicked"), "x{workers}: {err}");
                }
            });
        });
        for (i, plan) in plans.iter().enumerate() {
            assert_eq!(
                engine.execute(plan).unwrap(),
                expected[i],
                "x{workers} #{i}"
            );
        }
        let delta = global_metrics().snapshot().since(&before);
        assert_eq!(delta.pool_thread_spawns, 0, "x{workers}: a worker died");
    }
}

/// Regression: attached runs fed `worker_busy_ns` but never
/// `worker_idle_ns`, so `busy / (busy + idle)` read exactly 1 on every
/// multi-worker engine. One morsel of a 2-worker scan stalls for 20 ms
/// while the others are instant: its sibling's wait is idle time.
#[test]
fn attached_runs_report_worker_idle_time() {
    let _guard = metrics_guard();
    let cat = with_faulty(owned_catalog(), "S", || {
        std::thread::sleep(Duration::from_millis(20))
    });
    let engine = Engine::new(cat, opts_for(2, None));
    let before = global_metrics().snapshot();
    engine.execute(&sum_k_of("S")).unwrap();
    let delta = global_metrics().snapshot().since(&before);
    assert!(delta.worker_busy_ns > 0);
    assert!(delta.worker_idle_ns > 0, "{delta:?}");
}
