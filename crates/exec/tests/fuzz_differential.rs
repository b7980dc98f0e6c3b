//! Seeded differential query fuzzer.
//!
//! Each fixed seed drives a deterministic xorshift generator through ~200
//! random algebra plans spanning *every* pipeline shape: scans, selects,
//! equi / theta / product joins, left-deep and bushy join trees, single and
//! chained unnests over nested columns (scalar, record, and
//! list-of-list elements), and every monoid — over null-riddled **raw
//! CSV/JSON files** whose strings exercise the format layer's hard cases:
//! RFC 4180 doubled-quote escapes, embedded delimiters, quoted newlines
//! (morsel alignment must be quote-aware), and astral-plane `\uXXXX`
//! surrogate pairs.
//! Every plan runs through two independent evaluators, one of them over
//! two sources:
//!
//! 1. the plan interpreter (`vida_algebra::interp`) over the raw plugins
//!    (`run_volcano`) — the oracle — and over the same datasets
//!    materialized as values (`execute_plan`), which pins the plugins'
//!    `read_unit` path;
//! 2. the JIT pipelines (`run_jit`) at 1, 2, and 8 worker threads with
//!    shrunken morsels,
//!
//! and all results must agree (when the oracle errors — e.g. a plan the
//! generator built over a path that is not a collection — the JIT engine
//! must error too). The JIT sweep runs on **both raw-data backings**: the
//! owned in-memory fixture bytes and the same bytes as mmap'd files — the
//! backing must be unobservable. The cost-based plan optimizer always
//! runs: join reordering, build-side swaps, and conjunct reordering must
//! never change a result, and the matrix asserts it actually reorders
//! plans (a sweep that never triggers the optimizer would pin nothing). Because every
//! generated shape is inside the pipeline coverage, the fuzzer also
//! asserts that **no plan takes the whole-query Volcano fallback**
//! (unnests, theta joins, bushy trees, and *reordered* joins all compile)
//! and that **every plan runs as one fused chunk pipeline**
//! (`ExecStats::fused_stage_depth >= 2`: at least a scan and the fold,
//! with no operator between them outside the pipeline).
//!
//! Seeds are fixed in code, so a failure replays exactly: the panic message
//! carries the seed, the plan index, and the plan itself.
//!
//! Float columns hold dyadic rationals (k/16), whose sums are exact in
//! `f64` at any merge order — so thread-count sweeps catch real
//! parallelism bugs rather than benign reassociation ulps.

mod common;

use common::{
    a_schema, b_schema, csv_a_rows, file_catalog, fixture_path, json_b_rows, json_n_rows, n_schema,
    owned_catalog, COLORS, EMOJIS,
};
use std::sync::Arc;
use vida_algebra::{execute_plan, rewrite, Plan};
use vida_cache::CacheManager;
use vida_exec::{
    run_jit_with_stats, run_volcano, Engine, JitOptions, MemoryCatalog, SourceProvider,
};
use vida_formats::csv::CsvFile;
use vida_formats::json::JsonFile;
use vida_formats::plugin::{CsvPlugin, JsonPlugin};
use vida_formats::MapMode;
use vida_lang::{BinOp, Bindings, Expr};
use vida_types::{CollectionKind, Monoid, PrimitiveMonoid, Value};
use vida_workload::Rng;

/// Seeds for the fuzz matrix; CI runs the same set in release mode.
const SEEDS: [u64; 3] = [0xDEC0DE, 42, 7];
/// Plans generated per seed.
const PLANS_PER_SEED: usize = 200;

// ---------------------------------------------------------------------------
// Fixture catalogs — built in tests/common: raw CSV/JSON files
// (null-riddled, with hostile strings) and one nested JSON table, on the
// owned-bytes backing and as mmap'd files under CARGO_TARGET_TMPDIR.
// ---------------------------------------------------------------------------

fn catalog() -> MemoryCatalog {
    owned_catalog()
}

// ---------------------------------------------------------------------------
// Plan generator
// ---------------------------------------------------------------------------

/// What a generated binding ranges over — determines which predicate and
/// head templates are valid for it.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    FlatA,
    FlatB,
    NestedN,
    /// Unnested scalar element (from `xs` or an inner `mat` list).
    ElemInt,
    /// Unnested record element (from `ys`).
    ElemRec,
    /// Unnested list element (from `mat`): collection-valued, only useful
    /// as the source of a further unnest.
    ElemList,
}

struct Gen {
    rng: Rng,
    bound: Vec<(String, Kind)>,
    next_id: usize,
}

impl Gen {
    fn new(rng: Rng) -> Self {
        Gen {
            rng,
            bound: Vec::new(),
            next_id: 0,
        }
    }

    fn fresh(&mut self, kind: Kind) -> String {
        let name = format!("t{}", self.next_id);
        self.next_id += 1;
        self.bound.push((name.clone(), kind));
        name
    }

    fn scan(&mut self) -> (Plan, Kind) {
        let (dataset, kind) = match self.rng.below(3) {
            0 => ("A", Kind::FlatA),
            1 => ("B", Kind::FlatB),
            _ => ("N", Kind::NestedN),
        };
        let binding = self.fresh(kind);
        (
            Plan::Scan {
                dataset: dataset.into(),
                binding,
            },
            kind,
        )
    }

    /// An int-valued path of a binding (some nullable — that is the point).
    fn int_path(&mut self, name: &str, kind: Kind) -> Expr {
        let var = Expr::var(name);
        match kind {
            Kind::FlatA => {
                if self.rng.below(2) == 0 {
                    var.proj("k")
                } else {
                    var.proj("x")
                }
            }
            Kind::FlatB => {
                if self.rng.below(2) == 0 {
                    var.proj("k")
                } else {
                    var.proj("y")
                }
            }
            Kind::NestedN => var.proj("id"),
            Kind::ElemInt => var,
            Kind::ElemRec => var.proj("u"),
            Kind::ElemList => unreachable!("list elements have no int path"),
        }
    }

    /// A random scalar-bearing binding (anything but `ElemList`).
    fn scalar_binding(&mut self) -> (String, Kind) {
        let scalars: Vec<(String, Kind)> = self
            .bound
            .iter()
            .filter(|(_, k)| *k != Kind::ElemList)
            .cloned()
            .collect();
        scalars[self.rng.below(scalars.len() as u64) as usize].clone()
    }

    /// A one-sided filter predicate over `name`.
    fn filter_pred(&mut self, name: &str, kind: Kind) -> Expr {
        let c = Expr::int(self.rng.below(20) as i64);
        match kind {
            Kind::FlatA => match self.rng.below(4) {
                0 => Expr::bin(BinOp::Gt, Expr::var(name).proj("x"), c),
                1 => Expr::bin(BinOp::Lt, Expr::var(name).proj("k"), c),
                2 => Expr::bin(
                    BinOp::Eq,
                    Expr::var(name).proj("s"),
                    // Escaped-CSV strings: the constant only matches when
                    // the format layer unescaped the raw field correctly.
                    Expr::str(COLORS[self.rng.below(3) as usize]),
                ),
                _ => Expr::bin(
                    BinOp::Le,
                    Expr::var(name).proj("f"),
                    Expr::float(self.rng.below(16) as f64 / 16.0),
                ),
            },
            Kind::FlatB => match self.rng.below(3) {
                // Astral-plane strings: the constant only matches when the
                // \uXXXX surrogate pairs decoded to real chars.
                0 => Expr::bin(
                    BinOp::Eq,
                    Expr::var(name).proj("s"),
                    Expr::str(EMOJIS[self.rng.below(3) as usize]),
                ),
                _ => {
                    let p = self.int_path(name, kind);
                    Expr::bin(
                        if self.rng.below(2) == 0 {
                            BinOp::Gt
                        } else {
                            BinOp::Le
                        },
                        p,
                        c,
                    )
                }
            },
            Kind::NestedN => Expr::bin(BinOp::Gt, Expr::var(name).proj("id"), c),
            Kind::ElemInt => Expr::bin(
                if self.rng.below(2) == 0 {
                    BinOp::Gt
                } else {
                    BinOp::Ne
                },
                Expr::var(name),
                Expr::int(self.rng.below(8) as i64),
            ),
            Kind::ElemRec => {
                if self.rng.below(2) == 0 {
                    Expr::bin(BinOp::Gt, Expr::var(name).proj("u"), c)
                } else {
                    Expr::bin(
                        BinOp::Le,
                        Expr::var(name).proj("w"),
                        Expr::float(self.rng.below(8) as f64 / 8.0),
                    )
                }
            }
            Kind::ElemList => unreachable!("no filters over list elements"),
        }
    }

    /// A join predicate between `left` bindings and the `right` binding.
    fn join_pred(&mut self, left: &[(String, Kind)], right: &(String, Kind)) -> Expr {
        let li = self.rng.below(left.len() as u64) as usize;
        let (ln, lk) = left[li].clone();
        let lp = self.int_path(&ln, lk);
        let (rn, rk) = right.clone();
        let rp = self.int_path(&rn, rk);
        let band = [BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge];
        match self.rng.below(7) {
            // Equi join (hash pipeline).
            0 | 1 => Expr::bin(BinOp::Eq, lp, rp),
            // Band (sort-probe theta pipeline).
            2 | 3 => Expr::bin(band[self.rng.below(4) as usize], lp, rp),
            // Band + a residual conjunct over both sides, which selection
            // pushdown cannot move into a scan: a pair in the band range
            // may still fail the predicate, so a `count` must not add up
            // range lengths.
            6 => {
                let op = band[self.rng.below(4) as usize];
                let residual = [BinOp::Ne, BinOp::Le, BinOp::Gt][self.rng.below(3) as usize];
                let (lq, rq) = (self.int_path(&ln, lk), self.int_path(&rn, rk));
                Expr::bin(
                    BinOp::And,
                    Expr::bin(op, lp, rp),
                    Expr::bin(residual, lq, rq),
                )
            }
            // Inequality (block-nested-loop theta pipeline).
            4 => Expr::bin(BinOp::Ne, lp, rp),
            // Equi + extra conjunct, or the bare product.
            _ => {
                if self.rng.below(3) == 0 {
                    Expr::bool(true)
                } else {
                    let extra = self.filter_pred(&rn, rk);
                    Expr::bin(BinOp::And, Expr::bin(BinOp::Eq, lp, rp), extra)
                }
            }
        }
    }

    /// Unnest a nested binding's collection path on top of `input`.
    /// Occasionally chains: `mat` unnests to a list element which unnests
    /// again to its ints.
    fn unnest_over(&mut self, input: Plan, nested: &str) -> Plan {
        match self.rng.below(4) {
            0 | 1 => {
                let v = self.fresh(Kind::ElemInt);
                Plan::Unnest {
                    input: Box::new(input),
                    binding: v,
                    path: Expr::var(nested).proj("xs"),
                }
            }
            2 => {
                let v = self.fresh(Kind::ElemRec);
                Plan::Unnest {
                    input: Box::new(input),
                    binding: v,
                    path: Expr::var(nested).proj("ys"),
                }
            }
            _ => {
                let row = self.fresh(Kind::ElemList);
                let outer = Plan::Unnest {
                    input: Box::new(input),
                    binding: row.clone(),
                    path: Expr::var(nested).proj("mat"),
                };
                let v = self.fresh(Kind::ElemInt);
                Plan::Unnest {
                    input: Box::new(outer),
                    binding: v,
                    path: Expr::var(&row),
                }
            }
        }
    }

    /// The generator's source tree: scans, joins (left-deep and bushy),
    /// and unnests.
    fn source_tree(&mut self) -> Plan {
        match self.rng.below(8) {
            // Single scan.
            0 => self.scan().0,
            // Two-way join.
            1 | 2 => {
                let (l, lk) = self.scan();
                let lvars = vec![(self.bound.last().unwrap().0.clone(), lk)];
                let (r, rk) = self.scan();
                let rname = self.bound.last().unwrap().0.clone();
                let predicate = self.join_pred(&lvars, &(rname, rk));
                Plan::Join {
                    left: Box::new(l),
                    right: Box::new(r),
                    predicate,
                }
            }
            // Three-way join, left-deep or bushy.
            3 | 4 => {
                let (s1, k1) = self.scan();
                let n1 = self.bound.last().unwrap().0.clone();
                let (s2, k2) = self.scan();
                let n2 = self.bound.last().unwrap().0.clone();
                let (s3, k3) = self.scan();
                let n3 = self.bound.last().unwrap().0.clone();
                if self.rng.below(2) == 0 {
                    // Left-deep: (s1 ⋈ s2) ⋈ s3.
                    let p12 = self.join_pred(&[(n1.clone(), k1)], &(n2.clone(), k2));
                    let p3 = self.join_pred(&[(n1, k1), (n2, k2)], &(n3, k3));
                    Plan::Join {
                        left: Box::new(Plan::Join {
                            left: Box::new(s1),
                            right: Box::new(s2),
                            predicate: p12,
                        }),
                        right: Box::new(s3),
                        predicate: p3,
                    }
                } else {
                    // Bushy: s1 ⋈ (s2 ⋈ s3) — the shape `left_deepen`
                    // rotates. The outer predicate links s1 to either
                    // binding of the right subtree.
                    let p23 = self.join_pred(&[(n2.clone(), k2)], &(n3.clone(), k3));
                    let right_pick = if self.rng.below(2) == 0 {
                        (n2, k2)
                    } else {
                        (n3, k3)
                    };
                    let p1 = self.join_pred(&[(n1, k1)], &right_pick);
                    Plan::Join {
                        left: Box::new(s1),
                        right: Box::new(Plan::Join {
                            left: Box::new(s2),
                            right: Box::new(s3),
                            predicate: p23,
                        }),
                        predicate: p1,
                    }
                }
            }
            // Unnest chain over a nested scan.
            5 | 6 => {
                let cat_scan = Plan::Scan {
                    dataset: "N".into(),
                    binding: self.fresh(Kind::NestedN),
                };
                let nested = self.bound.last().unwrap().0.clone();
                self.unnest_over(cat_scan, &nested)
            }
            // Unnest, then join the elements against a flat table.
            _ => {
                let scan_n = Plan::Scan {
                    dataset: "N".into(),
                    binding: self.fresh(Kind::NestedN),
                };
                let nested = self.bound.last().unwrap().0.clone();
                let left = self.unnest_over(scan_n, &nested);
                let lvars: Vec<(String, Kind)> = self
                    .bound
                    .iter()
                    .filter(|(_, k)| *k != Kind::ElemList)
                    .cloned()
                    .collect();
                let (r, rk) = self.scan();
                let rname = self.bound.last().unwrap().0.clone();
                let predicate = self.join_pred(&lvars, &(rname, rk));
                Plan::Join {
                    left: Box::new(left),
                    right: Box::new(r),
                    predicate,
                }
            }
        }
    }

    /// A scalar head expression over the bound variables.
    fn head(&mut self) -> Expr {
        let (name, kind) = self.scalar_binding();
        self.int_path(&name, kind)
    }

    fn reduce(&mut self, input: Plan) -> Plan {
        let head_path = self.head();
        let (monoid, head) = match self.rng.below(9) {
            0 => (Monoid::Primitive(PrimitiveMonoid::Count), Expr::int(1)),
            1 => (Monoid::Primitive(PrimitiveMonoid::Sum), head_path),
            2 => (Monoid::Primitive(PrimitiveMonoid::Max), head_path),
            3 => (Monoid::Primitive(PrimitiveMonoid::Min), head_path),
            4 => (
                Monoid::Primitive(PrimitiveMonoid::Any),
                Expr::bin(BinOp::Gt, head_path, Expr::int(5)),
            ),
            5 => (Monoid::Collection(CollectionKind::List), head_path),
            6 => (Monoid::Collection(CollectionKind::Set), head_path),
            7 => {
                let (n2, k2) = self.scalar_binding();
                let second = self.int_path(&n2, k2);
                (
                    Monoid::Collection(CollectionKind::Bag),
                    Expr::Record(vec![("a".into(), head_path), ("b".into(), second)]),
                )
            }
            _ => {
                // Dyadic float sums are exact at every merge order.
                let (name, kind) = self.scalar_binding();
                let float_head = match kind {
                    Kind::FlatA => Expr::var(&name).proj("f"),
                    Kind::ElemRec => Expr::var(&name).proj("w"),
                    _ => self.int_path(&name, kind),
                };
                (Monoid::Primitive(PrimitiveMonoid::Sum), float_head)
            }
        };
        Plan::Reduce {
            input: Box::new(input),
            monoid,
            head,
        }
    }

    fn plan(&mut self) -> Plan {
        self.bound.clear();
        self.next_id = 0;
        let mut tree = self.source_tree();
        // 0–2 extra selects over any scalar binding.
        for _ in 0..self.rng.below(3) {
            let (name, kind) = self.scalar_binding();
            let predicate = self.filter_pred(&name, kind);
            tree = Plan::Select {
                input: Box::new(tree),
                predicate,
            };
        }
        self.reduce(tree)
    }
}

// ---------------------------------------------------------------------------
// The differential harness
// ---------------------------------------------------------------------------

#[test]
fn fuzz_all_shapes_agree_across_engines_and_thread_counts() {
    let cat = Arc::new(catalog());
    // The same fixtures as mmap'd files: the JIT sweep runs on both
    // backings and may not observe the difference.
    let mapped = Arc::new(file_catalog("fuzz_shapes", MapMode::Auto));
    let mut env = Bindings::new();
    for name in cat.dataset_names() {
        env.insert(name.clone(), cat.materialize(&name).unwrap());
    }

    // The resident-engine mode: one `Engine` per (threads × backing) cell,
    // created once and reused for every plan of every seed — parked pools,
    // shared interners, and accumulated caches may never change a result
    // relative to the per-call `run_jit` path.
    let residents: Vec<(String, Engine)> = [1usize, 2, 8]
        .into_iter()
        .flat_map(|threads| {
            let opts = JitOptions {
                threads,
                morsel_rows: 4,
                ..Default::default()
            };
            [
                (
                    format!("engine x{threads} owned"),
                    Engine::new(cat.clone(), opts.clone()),
                ),
                (
                    format!("engine x{threads} mmap"),
                    Engine::new(mapped.clone(), opts),
                ),
            ]
        })
        .collect();

    // Across the whole matrix the optimizer must reorder *some* plans — a
    // sweep where it never fires would pin nothing.
    let mut total_reordered = 0u64;
    for seed in SEEDS {
        let mut g = Gen::new(Rng::new(seed));
        let mut fallbacks = 0u32;
        for i in 0..PLANS_PER_SEED {
            let raw = g.plan();
            let plan = rewrite(&raw);
            let ctx = |engine: &str| format!("seed={seed:#x} plan#{i} [{engine}]\n{plan}");

            let oracle = run_volcano(&plan, &*cat);
            let algebra = execute_plan(&plan, &env);
            match &oracle {
                Ok(expected) => {
                    let got = algebra.unwrap_or_else(|e| panic!("{}: {e}", ctx("algebra")));
                    assert_eq!(&got, expected, "{}", ctx("algebra deviates"));
                    for threads in [1usize, 2, 8] {
                        let opts = JitOptions {
                            threads,
                            morsel_rows: 4,
                            ..Default::default()
                        };
                        for (backing, provider) in [("owned", &*cat), ("mmap", &*mapped)] {
                            let tag = format!("jit x{threads} {backing}");
                            let (v, stats) = run_jit_with_stats(&plan, provider, &opts)
                                .unwrap_or_else(|e| panic!("{}: {e}", ctx(&tag)));
                            assert_eq!(&v, expected, "{}", ctx(&format!("{tag} deviates")));
                            fallbacks += stats.whole_query_fallbacks;
                            total_reordered += stats.joins_reordered as u64;
                            // Reordered plans stay inside the pipelines: a
                            // reorder that forced the Volcano fallback would
                            // be a shape bug.
                            if stats.joins_reordered > 0 {
                                assert_eq!(
                                    stats.whole_query_fallbacks,
                                    0,
                                    "{}",
                                    ctx(&format!("{tag} reordered then fell back"))
                                );
                            }
                            // Every covered shape fuses end to end into
                            // the chunk pipeline.
                            assert!(
                                stats.fused_stage_depth >= 2,
                                "{}",
                                ctx(&format!("{tag} reported no fused chain"))
                            );
                        }
                    }
                    // Resident-engine mode: the same plan through every
                    // long-lived engine must match the per-call runs.
                    for (tag, engine) in &residents {
                        let v = engine
                            .execute(&plan)
                            .unwrap_or_else(|e| panic!("{}: {e}", ctx(tag)));
                        assert_eq!(&v, expected, "{}", ctx(&format!("{tag} deviates")));
                    }
                }
                Err(_) => {
                    // The oracle rejected the plan (e.g. unnesting a path
                    // that is not a collection); every engine must reject
                    // it too — silently succeeding would be a bug.
                    assert!(algebra.is_err(), "{}", ctx("algebra accepted"));
                    for threads in [1usize, 2, 8] {
                        let opts = JitOptions {
                            threads,
                            morsel_rows: 4,
                            ..Default::default()
                        };
                        for (backing, provider) in [("owned", &*cat), ("mmap", &*mapped)] {
                            assert!(
                                run_jit_with_stats(&plan, provider, &opts).is_err(),
                                "{}",
                                ctx(&format!("jit x{threads} {backing} accepted"))
                            );
                        }
                    }
                    for (tag, engine) in &residents {
                        assert!(
                            engine.execute(&plan).is_err(),
                            "{}",
                            ctx(&format!("{tag} accepted"))
                        );
                    }
                }
            }
        }
        // Every generated shape is inside the pipeline coverage: scans of
        // real datasets, joins with scan right sides, unnests over bound
        // paths. Nothing may take the whole-query Volcano fallback.
        assert_eq!(fallbacks, 0, "seed={seed:#x}: whole-query fallbacks");
    }
    assert!(
        total_reordered > 0,
        "the sweep never reordered a join — the optimizer is dead"
    );
}

/// The append-mutation step: a **resident** mmap'd catalog with a shared
/// replica cache survives the fixture files growing on disk between query
/// batches. A fixed generated plan set re-runs after every append and each
/// result must match the interpreted oracle over a *fresh* catalog built
/// from the file's current bytes — incremental extension (positional-map /
/// semi-index growth, prefix-served replicas, resumed fold partials) is
/// never allowed to be observable in a result. The sweep also asserts the
/// incremental machinery actually fired: the post-append probes must scan
/// exactly the appended suffix and resume a cached fold partial.
#[test]
fn fuzz_append_mutations_between_query_batches() {
    let a_path = fixture_path("fuzz_append", "A.csv");
    let b_path = fixture_path("fuzz_append", "B.json");
    let n_path = fixture_path("fuzz_append", "N.json");
    // Row counts per batch: every file grows twice with the same row
    // formulas the cold oracle regenerates from.
    let sizes: [(i64, i64, i64); 3] = [(16, 12, 10), (21, 16, 13), (27, 20, 17)];
    std::fs::write(&a_path, csv_a_rows(0, sizes[0].0)).unwrap();
    std::fs::write(&b_path, json_b_rows(0, sizes[0].1)).unwrap();
    std::fs::write(&n_path, json_n_rows(0, sizes[0].2)).unwrap();

    // The resident catalog: plugins stay registered across batches, so
    // every stale read would come from here.
    let cat = Arc::new(MemoryCatalog::new());
    cat.register(Arc::new(CsvPlugin::new(
        CsvFile::open_with("A", &a_path, b',', true, a_schema(), MapMode::Auto).unwrap(),
    )));
    cat.register(Arc::new(JsonPlugin::new(
        JsonFile::open_with("B", &b_path, b_schema(), MapMode::Auto).unwrap(),
    )));
    cat.register(Arc::new(JsonPlugin::new(
        JsonFile::open_with("N", &n_path, n_schema(), MapMode::Auto).unwrap(),
    )));
    let cache = Arc::new(CacheManager::new(1 << 22));

    // The resident-engine mode of the mutation fuzzer: one `Engine` over
    // the growing files and the same shared cache, created before the
    // first batch and reused after every append — stale-served state
    // inside the engine would deviate from the cold oracle here.
    let engine = Engine::new(
        cat.clone(),
        JitOptions {
            cache: Some(Arc::clone(&cache)),
            threads: 8,
            morsel_rows: 4,
            ..Default::default()
        },
    );

    // Fresh interpreted oracle over the bytes currently on disk.
    let oracle_catalog = || {
        let fresh = MemoryCatalog::new();
        fresh.register(Arc::new(CsvPlugin::new(
            CsvFile::from_bytes("A", std::fs::read(&a_path).unwrap(), b',', true, a_schema())
                .unwrap(),
        )));
        fresh.register(Arc::new(JsonPlugin::new(
            JsonFile::from_bytes("B", std::fs::read(&b_path).unwrap(), b_schema()).unwrap(),
        )));
        fresh.register(Arc::new(JsonPlugin::new(
            JsonFile::from_bytes("N", std::fs::read(&n_path).unwrap(), n_schema()).unwrap(),
        )));
        fresh
    };

    // Per-dataset probes: single-scan int sums, re-run as the *first*
    // queries after each append. The first query over a grown dataset is
    // the one whose description sees the `Extended` verdict, so the
    // O(delta) counters are observable on it.
    let probe = |dataset: &str| {
        rewrite(&Plan::Reduce {
            input: Box::new(Plan::Scan {
                dataset: dataset.into(),
                binding: "p".into(),
            }),
            monoid: Monoid::Primitive(PrimitiveMonoid::Sum),
            head: Expr::var("p").proj("k"),
        })
    };
    let probes = [probe("A"), probe("B")];

    // One fixed plan set for the whole run: partial-fold keys repeat
    // across batches only if the identical plan runs again.
    let mut g = Gen::new(Rng::new(0xA99E7D));
    let plans: Vec<Plan> = (0..40).map(|_| rewrite(&g.plan())).collect();

    let mut tail_scanned = 0u64;
    let mut partials_reused = 0u64;
    for (batch, &(na, nb, nn)) in sizes.iter().enumerate() {
        if batch > 0 {
            use std::io::Write;
            let (pa, pb, pn) = sizes[batch - 1];
            for (path, bytes) in [
                (&a_path, csv_a_rows(pa, na)),
                (&b_path, json_b_rows(pb, nb)),
                (&n_path, json_n_rows(pn, nn)),
            ] {
                let mut fh = std::fs::OpenOptions::new().append(true).open(path).unwrap();
                fh.write_all(&bytes).unwrap();
            }
        }
        let oracle_cat = oracle_catalog();

        let serial = JitOptions {
            cache: Some(Arc::clone(&cache)),
            threads: 1,
            morsel_rows: 4,
            ..Default::default()
        };
        for (probe_plan, appended) in probes.iter().zip([
            (na - sizes[batch.saturating_sub(1)].0) as u64,
            (nb - sizes[batch.saturating_sub(1)].1) as u64,
        ]) {
            let expected = run_volcano(probe_plan, &oracle_cat).unwrap();
            let (v, stats) = run_jit_with_stats(probe_plan, &*cat, &serial).unwrap();
            assert_eq!(v, expected, "batch {batch} probe deviates\n{probe_plan}");
            assert_eq!(
                stats.tail_rows_scanned, appended,
                "batch {batch} probe must scan exactly the appended suffix"
            );
            if batch > 0 {
                assert_eq!(
                    stats.partials_reused, 1,
                    "batch {batch} probe must resume the cached fold partial"
                );
            }
            tail_scanned += stats.tail_rows_scanned;
            partials_reused += stats.partials_reused;
        }

        for (i, plan) in plans.iter().enumerate() {
            let oracle = run_volcano(plan, &oracle_cat);
            for threads in [1usize, 8] {
                let opts = JitOptions {
                    cache: Some(Arc::clone(&cache)),
                    threads,
                    morsel_rows: 4,
                    ..Default::default()
                };
                let got = run_jit_with_stats(plan, &*cat, &opts);
                match &oracle {
                    Ok(expected) => {
                        let (v, _) = got.unwrap_or_else(|e| {
                            panic!("batch {batch} plan#{i} x{threads}: {e}\n{plan}")
                        });
                        assert_eq!(
                            &v, expected,
                            "batch {batch} plan#{i} x{threads} deviates from a cold \
                             re-scan of the grown file\n{plan}"
                        );
                    }
                    Err(_) => assert!(
                        got.is_err(),
                        "batch {batch} plan#{i} x{threads} accepted a plan the oracle \
                         rejects\n{plan}"
                    ),
                }
            }
            // The engine created before batch 0 re-runs the plan after
            // every append: resident pool + interner + shared cache, and
            // still nothing stale may be observable.
            match &oracle {
                Ok(expected) => {
                    let v = engine.execute(plan).unwrap_or_else(|e| {
                        panic!("batch {batch} plan#{i} [resident engine]: {e}\n{plan}")
                    });
                    assert_eq!(
                        &v, expected,
                        "batch {batch} plan#{i} [resident engine] deviates from a cold \
                         re-scan of the grown file\n{plan}"
                    );
                }
                Err(_) => assert!(
                    engine.execute(plan).is_err(),
                    "batch {batch} plan#{i} [resident engine] accepted a plan the \
                     oracle rejects\n{plan}"
                ),
            }
        }
    }
    // The sweep must have exercised the incremental path, not just the
    // full-rebuild fallback: both appends on both probed datasets.
    assert_eq!(tail_scanned, (21 - 16) + (27 - 21) + (16 - 12) + (20 - 16));
    assert_eq!(partials_reused, 4);
}

/// The differential engines all read through the same plugins, so they
/// would agree even on corrupted decodes. This test pins the raw fixtures
/// to values built from Rust literals: escaped CSV fields must unescape,
/// surrogate pairs must combine, and an 8-worker morsel-aligned scan over
/// the embedded-newline CSV must match the serial scan exactly.
#[test]
fn escaped_fixtures_decode_exactly_serial_and_parallel() {
    let cat = catalog();
    let list_of = |dataset: &str, binding: &str, field: &str| Plan::Reduce {
        input: Box::new(Plan::Scan {
            dataset: dataset.into(),
            binding: binding.into(),
        }),
        monoid: Monoid::Collection(CollectionKind::List),
        head: Expr::var(binding).proj(field),
    };

    // A.s: quoted/escaped CSV strings (embedded comma, doubled quote,
    // quoted newline).
    let plan = list_of("A", "a", "s");
    let expected: Vec<Value> = (0..16)
        .map(|i| Value::str(COLORS[(i % 3) as usize]))
        .collect();
    let serial = run_volcano(&plan, &cat).unwrap();
    assert_eq!(serial.elements().unwrap(), &expected);

    // B.s: surrogate-pair-escaped JSON strings.
    let plan_b = list_of("B", "b", "s");
    let expected_b: Vec<Value> = (0..12)
        .map(|i| Value::str(EMOJIS[(i % 3) as usize]))
        .collect();
    let serial_b = run_volcano(&plan_b, &cat).unwrap();
    assert_eq!(serial_b.elements().unwrap(), &expected_b);

    // Parallel morsel-aligned scans (tiny morsels, 8 oversubscribed
    // workers) must reproduce the serial decode bit for bit — on owned
    // bytes and on shared mmap'd pages alike.
    let mapped = file_catalog("fuzz_escaped", MapMode::Auto);
    for (plan, oracle) in [(&plan, &serial), (&plan_b, &serial_b)] {
        for threads in [2usize, 8] {
            let opts = JitOptions {
                threads,
                morsel_rows: 1,
                ..Default::default()
            };
            for provider in [&cat, &mapped] {
                let (v, stats) = run_jit_with_stats(plan, provider, &opts).unwrap();
                assert_eq!(&v, oracle, "threads={threads}");
                assert_eq!(stats.fused_stage_depth, 2, "{stats:?}");
            }
        }
    }
}
