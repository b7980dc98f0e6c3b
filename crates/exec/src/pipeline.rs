//! The JIT executor — per-query generated pipelines (ViDa §4.1).
//!
//! [`run_jit`] turns a `Reduce`-rooted algebra plan into a specialized
//! pipeline at query time:
//!
//! - **input plugins bound to exactly the touched attributes**: the analysis
//!   pass collects every `binding.field` path the query references and the
//!   generated scans read only those columns — no "database page" of unused
//!   attributes is ever built;
//! - **register frames**: each touched scalar attribute gets one 64-bit slot
//!   in a query-wide [`FrameLayout`]; columns are pre-encoded to their slot
//!   representation at pipeline-generation time, so per-tuple work in the
//!   hot loop is a flat `i64` copy plus kernel calls;
//! - **compiled kernels**: filter predicates, join keys, and head
//!   expressions inside the compilable subset become fused
//!   [`CompiledKernel`]s (type dispatch resolved at generation time);
//!   everything else — and every tuple whose frame cannot encode (nulls,
//!   non-scalars) — takes the interpreted fallback path, the hybrid
//!   execution §6 describes;
//! - **hash joins when equi-keys exist**: `Plan::equi_join_keys` supplies
//!   the build/probe key expressions, compiled against the shared frame;
//! - **theta-join pipelines otherwise**: a range predicate
//!   (`Plan::band_join_keys`) compiles into band key kernels and probes a
//!   sorted key index; any other predicate (including the constant-`true`
//!   product) runs block-nested-loop with the predicate compiled into one
//!   fused kernel;
//! - **unnest stages**: `Plan::Unnest` flattens collection-valued paths
//!   (nested JSON columns, including cached `BinaryJson` replicas) into the
//!   flat register frames — scalar elements get their own slots (strings
//!   intern through the shared lock-guarded interner) so inner predicates
//!   compile to kernels, and everything else takes the per-tuple
//!   interpreted fallback;
//! - **bushy joins lowered**: `vida_algebra::lower::left_deepen` rotates
//!   bushy join trees into the left-deep chains the pipelines execute
//!   before shape analysis, so directly-constructed bushy plans compile
//!   too;
//! - **cost-model-driven cache replicas**: with a [`CacheManager`] attached,
//!   touched columns are served from cached replicas and raw-file reads
//!   populate the cache for the next query. With a
//!   [`CostModel`] attached too, the pipeline
//!   records per-field access statistics after every query and the model
//!   decides each replica's layout — parsed `Values`, compact `BinaryJson`,
//!   or `Positions` (raw byte spans rehydrated by exact-seek parses) — plus
//!   the `get_any` probe order and a rebuild-cost eviction bonus (§5);
//! - **monoid folding**: results fold with the output monoid; collection
//!   monoids accumulate and canonicalize once at the end, and `count` with a
//!   total head skips head evaluation entirely.
//!
//! Only genuinely degenerate plans fall back to the interpreted Volcano
//! engine wholesale — constant queries over the unit dataset, unnests whose
//! input is the unit row (literal collections), and joins whose right side
//! is not a scan — so `run_jit` is total over all valid plans and
//! `ExecStats::whole_query_fallbacks` records when the fallback engine ran.
//!
//! Execution is a **streaming push loop** (HyPer-style data-centric
//! pipelines): each compiled stage consumes one tuple at a time and pushes
//! it into the next stage's consumer closure, so
//! select→project→unnest→probe→fold chains fuse end to end with **no
//! intermediate `Vec<Tuple>`** between operators. The only pipeline
//! breakers are join build sides (hash tables / band indexes), which
//! materialize once per join before the loop starts;
//! `ExecStats::fused_stage_depth` reports the fused chain length.
//!
//! One **morsel driver** (`vida-parallel`) runs every phase at every
//! worker count: raw scans split into aligned byte ranges, replica decodes
//! and join builds (radix-partitioned) into unit morsels, and the leftmost
//! scan's rows into morsels that each drive through the whole stage chain
//! into a private partial fold; partials merge in morsel order. Morsel
//! boundaries depend only on the data — never the worker count — so every
//! thread count produces the same result bit for bit, float folds
//! included. Serial execution is the one-worker grid: the pool runs it
//! inline on the caller and folds each partial as it is produced.

use crate::catalog::SourceProvider;
use crate::stats::ExecStats;
use crate::volcano::run_volcano;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use vida_algebra::lower::{left_deepen, split_conjuncts, UNIT_DATASET};
use vida_algebra::Plan;
use vida_cache::{bson, CacheKey, CacheManager, CachedData, FoldPartial, Layout};
use vida_formats::Revalidation;
use vida_jit::compile::path_of;
use vida_jit::frame::{decode_output, StringInterner};
use vida_jit::{CompiledKernel, FrameLayout, JitCompiler, SelectKernel, SharedInterner, SlotType};
use vida_lang::{eval, BinOp, Bindings, Expr, Qualifier};
use vida_optimizer::{CostModel, FieldObservation};
use vida_parallel::{partition_of, plan_scan_tail, radix, MorselPlan, WorkerPool};
use vida_trace::{stage, QueryTrace};
use vida_types::{CollectionKind, Monoid, PrimitiveMonoid, Result, Type, Value, VidaError};

/// Options controlling pipeline generation.
///
/// # Example
///
/// Attach a cache and the optimizer's cost model, then run the same query
/// twice: the second run is served from adaptively-chosen column replicas.
///
/// ```
/// use std::sync::Arc;
/// use vida_algebra::{lower, rewrite};
/// use vida_cache::CacheManager;
/// use vida_exec::{run_jit_with_stats, JitOptions, MemoryCatalog};
/// use vida_lang::parse;
/// use vida_optimizer::CostModel;
/// use vida_types::{Schema, Type, Value};
///
/// let cat = MemoryCatalog::new();
/// cat.register_records(
///     "T",
///     Schema::from_pairs([("x", Type::Int)]),
///     &[Value::record([("x", Value::Int(41))])],
/// )
/// .unwrap();
/// let opts = JitOptions::with_cost_model(
///     Arc::new(CacheManager::new(1 << 20)),
///     Arc::new(CostModel::new()),
/// );
/// let plan = rewrite(&lower(&parse("for { t <- T } yield sum t.x").unwrap()).unwrap());
/// let (_, cold) = run_jit_with_stats(&plan, &cat, &opts).unwrap();
/// let (v, warm) = run_jit_with_stats(&plan, &cat, &opts).unwrap();
/// assert_eq!(v, Value::Int(41));
/// assert!(!cold.served_from_cache && warm.served_from_cache);
/// ```
#[derive(Clone)]
pub struct JitOptions {
    /// Cache consulted for column replicas and populated on raw reads.
    pub cache: Option<Arc<CacheManager>>,
    /// Cost model deciding replica layouts (§5). With a model attached the
    /// pipeline records per-field access statistics after every query,
    /// writes replicas in the layout the model chooses (`Values`,
    /// `BinaryJson`, or `Positions`), probes `get_any` in model order, and
    /// weighs eviction by rebuild cost. Without one, raw reads always write
    /// `Values` replicas (the pre-model behaviour). Ignored unless `cache`
    /// is also set.
    pub cost_model: Option<Arc<CostModel>>,
    /// Worker threads of the morsel driver, honoured as given (`0` means
    /// 1; callers that want a machine-sized pool pass
    /// `std::thread::available_parallelism()`). One worker runs the morsel
    /// grid inline on the caller; more split scans, decodes, join builds,
    /// and folds across workers. The grid depends only on the data and
    /// partial folds merge in morsel order, so every thread count —
    /// including 1 — produces the same result bit for bit, float
    /// aggregates included. A resident `Engine` fixes the count at
    /// construction; its sessions ignore later edits.
    pub threads: usize,
    /// Units per morsel for unit-count morsel plans (`0` = the
    /// `vida-parallel` default). Mainly for tests, which shrink it to force
    /// multi-morsel coverage on small fixtures.
    pub morsel_rows: usize,
    /// Record a per-query span trace (opt-in observability): nested stage
    /// spans on the coordinator track, per-morsel spans on worker tracks,
    /// and per-kernel invocation counts, all collected into
    /// `ExecStats::trace`. Export with [`vida_trace::chrome_trace_json`] or
    /// render with `QueryTrace::explain_analyze`. Off (the default) the
    /// tracing hooks compile to single `Option` checks.
    pub trace: bool,
    /// Cost-based plan optimization (default `true`; `--no-plan-opt` is the
    /// escape hatch): join reordering + build-side choice by estimated
    /// cardinality via `vida_optimizer::reorder_joins`, and selectivity-
    /// ordered conjunct evaluation inside fused select kernels. Applied
    /// only where provably result-invariant (order-insensitive monoids,
    /// total-safe conjuncts — see the optimizer's `plan` module docs);
    /// estimates come from catalog row counts plus the cost model's
    /// distinct/selectivity sketches when one is attached.
    pub plan_opt: bool,
}

impl Default for JitOptions {
    fn default() -> Self {
        JitOptions {
            cache: None,
            cost_model: None,
            threads: 0,
            morsel_rows: 0,
            trace: false,
            plan_opt: true,
        }
    }
}

impl JitOptions {
    /// Options with a cache attached.
    pub fn with_cache(cache: Arc<CacheManager>) -> Self {
        JitOptions {
            cache: Some(cache),
            ..JitOptions::default()
        }
    }

    /// Options with a cache and the cost model steering its replica
    /// layouts.
    pub fn with_cost_model(cache: Arc<CacheManager>, model: Arc<CostModel>) -> Self {
        JitOptions {
            cache: Some(cache),
            cost_model: Some(model),
            ..JitOptions::default()
        }
    }

    /// Options running `threads` morsel-driven workers.
    pub fn with_threads(threads: usize) -> Self {
        JitOptions {
            threads,
            ..JitOptions::default()
        }
    }

    /// Enable per-query span tracing on these options.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }
}

/// Execute a plan with the JIT engine.
///
/// The plan must be `Reduce`-rooted (every lowered comprehension is); plan
/// shapes outside the generated pipelines transparently fall back to the
/// interpreted Volcano engine, so `run_jit` is total over valid plans.
///
/// # Example
///
/// ```
/// use vida_algebra::{lower, rewrite};
/// use vida_exec::{run_jit, JitOptions, MemoryCatalog};
/// use vida_lang::parse;
/// use vida_types::{Schema, Type, Value};
///
/// let cat = MemoryCatalog::new();
/// cat.register_records(
///     "Patients",
///     Schema::from_pairs([("id", Type::Int), ("age", Type::Int)]),
///     &[
///         Value::record([("id", Value::Int(1)), ("age", Value::Int(71))]),
///         Value::record([("id", Value::Int(2)), ("age", Value::Int(34))]),
///     ],
/// )
/// .unwrap();
/// let expr = parse("for { p <- Patients, p.age > 60 } yield count p").unwrap();
/// let plan = rewrite(&lower(&expr).unwrap());
/// assert_eq!(run_jit(&plan, &cat, &JitOptions::default()).unwrap(), Value::Int(1));
/// ```
pub fn run_jit(plan: &Plan, catalog: &dyn SourceProvider, opts: &JitOptions) -> Result<Value> {
    run_jit_with_stats(plan, catalog, opts).map(|(v, _)| v)
}

/// Execute a plan with the JIT engine, returning execution statistics.
///
/// This is the compatibility shim over the resident-engine execution path:
/// it synthesizes a per-call spawn-mode pool and a private interner, so
/// behaviour matches the pre-resident engine exactly (worker threads spawn
/// per multi-worker phase and string ids start at zero every call). Long-lived
/// callers should hold an [`Engine`](crate::engine::Engine) instead and let
/// its sessions share one parked worker pool, cache, and interner.
pub fn run_jit_with_stats(
    plan: &Plan,
    catalog: &dyn SourceProvider,
    opts: &JitOptions,
) -> Result<(Value, ExecStats)> {
    let ctx = ExecContext {
        pool: WorkerPool::new(opts.threads),
        interner: Arc::new(SharedInterner::new()),
        tenant: None,
    };
    execute_with_context(plan, catalog, opts, &ctx)
}

/// Cross-query execution state threaded from the resident engine (or
/// synthesized per call by the [`run_jit`] shim): the worker pool every
/// phase submits its morsels to, the interner string slots resolve through,
/// and the tenant that cache replica writes are billed to.
pub(crate) struct ExecContext {
    pub(crate) pool: WorkerPool,
    pub(crate) interner: Arc<SharedInterner>,
    pub(crate) tenant: Option<String>,
}

/// The one execution path both [`run_jit_with_stats`] and
/// `Engine::execute` funnel into.
pub(crate) fn execute_with_context(
    plan: &Plan,
    catalog: &dyn SourceProvider,
    opts: &JitOptions,
    ctx: &ExecContext,
) -> Result<(Value, ExecStats)> {
    let mut stats = ExecStats {
        queries: 1,
        trace: opts.trace.then(|| Box::new(QueryTrace::start())),
        ..Default::default()
    };
    let t0 = Instant::now();
    let built = PipelineBuilder::new(catalog, opts, ctx, &mut stats).build(plan)?;
    stats.codegen = t0.elapsed();
    let t1 = Instant::now();
    let Some(pipeline) = built else {
        // Whole-query fallback: shape outside the generated pipelines. The
        // declined build is the query's codegen time, Volcano its execution.
        stats.whole_query_fallbacks = 1;
        let v = run_volcano(plan, catalog)?;
        stats.execution = t1.elapsed();
        return Ok((v, stats));
    };
    let value = pipeline.execute(&mut stats)?;
    stats.execution = t1.elapsed();
    // Pair the optimizer's estimate with the observed pipeline output so
    // `cardinality_error` compares like with like after accumulation.
    if stats.estimated_rows > 0 {
        stats.estimated_rows_actual = stats.actual_rows;
    }
    stats.served_from_cache = stats.raw_columns == 0 && stats.cached_columns > 0;
    stats.queries_served_from_cache = stats.served_from_cache as u32;
    if let Some(trace) = stats.query_trace() {
        let hits: u64 = trace.kernel_invocations().iter().sum();
        vida_trace::global_metrics().kernel_invocations.add(hits);
    }
    Ok((value, stats))
}

/// One boolean evaluation step: a compiled kernel (with its source
/// expression for null-tuple fallback) or an interpreted expression.
enum Step {
    Kernel(CompiledKernel, Expr),
    Interp(Expr),
}

/// How the reduce head is evaluated per surviving tuple. Compiled variants
/// carry the source expression for tuples on the fallback path.
enum HeadPlan {
    /// `count` with a total head: no evaluation needed at all.
    CountOnly,
    /// Scalar head compiled to one kernel.
    Kernel(CompiledKernel, Expr),
    /// Record head with every field compiled.
    RecordKernels(Vec<(String, CompiledKernel)>, Expr),
    /// Everything else: the reference interpreter.
    Interp(Expr),
}

impl HeadPlan {
    fn source_expr(&self) -> Option<&Expr> {
        match self {
            HeadPlan::CountOnly => None,
            HeadPlan::Kernel(_, e) | HeadPlan::RecordKernels(_, e) | HeadPlan::Interp(e) => Some(e),
        }
    }
}

/// A bound input: one scanned dataset with its materialized touched columns.
struct Source {
    binding: String,
    nrows: usize,
    /// Fields materialized for binding-record reconstruction, schema order.
    env_fields: Vec<(String, Arc<Vec<Value>>)>,
    /// `(global slot, encoded column)`; `None` cells mark tuples that must
    /// take the interpreted fallback (nulls, type mismatches).
    slot_cols: Vec<(usize, Vec<Option<i64>>)>,
    /// All global slot indexes owned by this source (for frame merging).
    slots: Vec<usize>,
    /// Selection steps applied as tuples leave the scan.
    selects: Vec<Step>,
    /// Fast path: when every select compiled, the chain is fused into one
    /// [`SelectKernel`] evaluated short-circuit per valid frame (invalid
    /// frames still walk `selects` through the interpreter).
    fused_selects: Option<SelectKernel>,
}

/// Pipeline tree: left-deep joins and unnest stages over bound sources.
///
/// The tree's left spine is one fused push pipeline: tuples stream from the
/// leftmost scan through every stage's sink without intermediate buffers.
/// Join right sides are the pipeline breakers — each is materialized once
/// into [`JoinBuild`] slot `build` before the push loop starts.
enum Node {
    Source(usize),
    HashJoin {
        left: Box<Node>,
        right: usize,
        /// Index into the prepared [`JoinBuild`] list (DFS order).
        build: usize,
        left_key: CompiledKernel,
        right_key: CompiledKernel,
        left_key_ty: SlotType,
        right_key_ty: SlotType,
        /// Promote int keys to float bits so `p.id = g.fid` hashes
        /// consistently across the numeric tower.
        float_keys: bool,
        /// Full join predicate, checked per candidate pair.
        predicate: Step,
        /// Selects sitting above this join.
        selects: Vec<Step>,
    },
    /// Non-equi join: band sort-probe when the predicate contains a range
    /// comparison between the two sides, block-nested-loop (with the
    /// predicate compiled into one fused kernel) otherwise.
    ThetaJoin {
        left: Box<Node>,
        right: usize,
        /// Index into the prepared [`JoinBuild`] list (DFS order).
        build: usize,
        band: Option<Band>,
        /// Full join predicate, checked per candidate pair.
        predicate: Step,
        /// Selects sitting above this join.
        selects: Vec<Step>,
    },
    /// Flatten a collection-valued path of earlier bindings; one output
    /// tuple per element, frame extended with the element's slots.
    Unnest {
        input: Box<Node>,
        /// Index into [`Pipeline::unnests`].
        stage: usize,
        /// Selects sitting above this unnest (may reference the element).
        selects: Vec<Step>,
    },
}

/// Sort-probe strategy for a range theta join: both band keys compile to
/// kernels; the right side sorts by key once and each probe narrows its
/// candidates to the half-open range satisfying `left_key op right_key`.
struct Band {
    left_key: CompiledKernel,
    right_key: CompiledKernel,
    /// Comparison with the left key on the left: `Lt`, `Le`, `Gt`, or `Ge`.
    op: BinOp,
    /// Compare keys in the float domain (the numeric tower mixed).
    float_keys: bool,
    left_key_ty: SlotType,
    right_key_ty: SlotType,
}

/// One compiled unnest stage: where the collection comes from and which
/// frame slots its elements fill.
struct UnnestStage {
    binding: String,
    path: Expr,
    /// Fast path: `(source index, touched-column position)` when the path
    /// is a single projection off a scanned source — the collection is read
    /// straight from the materialized column, no interpreter environment.
    src_col: Option<(usize, usize)>,
    /// Element slots: `None` = the element itself (scalar collections),
    /// `Some(field)` = a record element's field. `Str` slots intern their
    /// elements through the pipeline's shared interner at runtime.
    slots: Vec<(Option<String>, usize, SlotType)>,
}

/// One in-flight tuple: its register frame, whether every slot encoded, and
/// the provenance used to rebuild bindings on the fallback path — `(source,
/// row)` pairs for scans plus `(unnest stage, element)` values for unnests.
struct Tuple {
    frame: Vec<i64>,
    valid: bool,
    rows: Vec<(usize, usize)>,
    unnest_vals: Vec<(usize, Value)>,
}

struct Pipeline {
    sources: Vec<Source>,
    /// Unnest stages in plan DFS order (indexed by `Node::Unnest::stage`).
    unnests: Vec<UnnestStage>,
    root: Node,
    monoid: Monoid,
    head: HeadPlan,
    frame_width: usize,
    /// String table kernel constants were interned into and string frame
    /// slots resolve through. Shared with the engine on the resident path
    /// (so ids are stable across sessions) and lock-guarded, which is what
    /// lets `Str` unnest elements intern from parallel workers.
    interner: Arc<SharedInterner>,
    /// Datasets referenced inside nested head/predicate comprehensions,
    /// materialized up front (mirrors the Volcano engine).
    base_env: Bindings,
    /// The pool every phase submits its morsels to: the engine's resident
    /// pool (workers parked between queries, runs attached) or a per-query
    /// spawn-mode pool under the `run_jit` shim.
    pool: WorkerPool,
    /// Units per morsel (0 = `vida-parallel` default).
    morsel_rows: usize,
    /// Fold-partial cache seam for single-source primitive folds (`None`
    /// for every other shape — they always run the plain full fold).
    fold_seam: Option<FoldSeam>,
}

/// Where cached pre-finalize fold partials are looked up and refreshed,
/// for queries that qualify: one scanned source (selects allowed), no
/// joins/unnests, a primitive output monoid, and no free datasets. When
/// revalidation proved the source grew in
/// place and the cached partial covers exactly the unchanged prefix,
/// `reuse` carries it — the executor then drives only rows
/// `reuse.rows..nrows` and merges the partial in front (ViDa's O(delta)
/// warm re-query). After every qualifying fold the refreshed accumulator
/// is stored back under the current fingerprint.
struct FoldSeam {
    cache: Arc<CacheManager>,
    dataset: String,
    /// FNV-1a over the plan's debug rendering — the query half of the
    /// fold-cache key.
    query_hash: u64,
    /// Current source fingerprint, stamped on the refreshed partial.
    fingerprint: (u64, u64),
    /// Rows the refreshed partial will cover (the whole source).
    nrows: usize,
    reuse: Option<FoldPartial>,
}

/// Per-dataset revalidation verdict for one query, recorded when the
/// builder binds the scan and consumed by the cache protocol in
/// `materialize_columns`. Unchanged datasets have no entry.
#[derive(Clone, Copy)]
enum Freshness {
    /// The file grew in place: replicas and fold partials written under
    /// `prev_fingerprint` are still valid for the unchanged prefix.
    Extended {
        prev_fingerprint: (u64, u64),
        /// Unit count of the previous generation (validates that a retained
        /// replica really is the old column, not some other length).
        prev_units: usize,
        /// Leading units of the previous index the re-scan reproduced
        /// verbatim (one less than the old count when the old file ended
        /// mid-record and the append glued onto its last unit).
        prefix_units: usize,
    },
    /// Shrunk or edited in place: full invalidation, full re-scan.
    Rebuilt,
}

// ---------------------------------------------------------------------------
// Analysis + pipeline generation
// ---------------------------------------------------------------------------

/// Plan shape accepted by the generated pipelines.
enum Shape {
    Scan {
        binding: String,
        dataset: String,
        selects: Vec<Expr>,
    },
    Join {
        left: Box<Shape>,
        right: Box<Shape>, // always a Scan (Shape::of enforces it)
        predicate: Expr,
        selects: Vec<Expr>,
    },
    Unnest {
        input: Box<Shape>,
        binding: String,
        path: Expr,
        selects: Vec<Expr>,
    },
}

impl Shape {
    fn of(plan: &Plan) -> Option<Shape> {
        match plan {
            Plan::Scan { dataset, binding } => {
                if dataset == UNIT_DATASET {
                    return None;
                }
                Some(Shape::Scan {
                    dataset: dataset.clone(),
                    binding: binding.clone(),
                    selects: Vec::new(),
                })
            }
            Plan::Select { input, predicate } => {
                let mut inner = Shape::of(input)?;
                // Split `p1 and p2` into separate select steps: kernels
                // compile per conjunct (so the plan optimizer can rank
                // them) and the step chain short-circuits left-to-right
                // exactly like the interpreter's `and`.
                let mut conjuncts = Vec::new();
                split_conjuncts(predicate, &mut conjuncts);
                match &mut inner {
                    Shape::Scan { selects, .. }
                    | Shape::Join { selects, .. }
                    | Shape::Unnest { selects, .. } => selects.extend(conjuncts),
                }
                Some(inner)
            }
            Plan::Join {
                left,
                right,
                predicate,
            } => {
                let l = Shape::of(left)?;
                let r = Shape::of(right)?;
                if !matches!(r, Shape::Scan { .. }) {
                    // Bushy trees were already rotated left-deep by
                    // `left_deepen`; what remains here is a right side that
                    // is itself an unnest — stay interpreted.
                    return None;
                }
                Some(Shape::Join {
                    left: Box::new(l),
                    right: Box::new(r),
                    predicate: predicate.clone(),
                    selects: Vec::new(),
                })
            }
            Plan::Unnest {
                input,
                binding,
                path,
            } => {
                let inner = Shape::of(input)?;
                Some(Shape::Unnest {
                    input: Box::new(inner),
                    binding: binding.clone(),
                    path: path.clone(),
                    selects: Vec::new(),
                })
            }
            Plan::Reduce { .. } => None,
        }
    }

    fn exprs<'s>(&'s self, out: &mut Vec<&'s Expr>) {
        match self {
            Shape::Scan { selects, .. } => out.extend(selects.iter()),
            Shape::Join {
                left,
                right,
                predicate,
                selects,
            } => {
                left.exprs(out);
                right.exprs(out);
                out.push(predicate);
                out.extend(selects.iter());
            }
            Shape::Unnest {
                input,
                path,
                selects,
                ..
            } => {
                input.exprs(out);
                out.push(path);
                out.extend(selects.iter());
            }
        }
    }

    fn bound_vars(&self) -> Vec<String> {
        match self {
            Shape::Scan { binding, .. } => vec![binding.clone()],
            Shape::Join { left, right, .. } => {
                let mut v = left.bound_vars();
                v.extend(right.bound_vars());
                v
            }
            Shape::Unnest { input, binding, .. } => {
                let mut v = input.bound_vars();
                v.push(binding.clone());
                v
            }
        }
    }
}

/// Collect every maximal variable/projection path in an expression
/// (including inside nested comprehensions).
fn collect_paths(e: &Expr, out: &mut Vec<String>) {
    if let Some(p) = path_of(e) {
        out.push(p);
        return;
    }
    match e {
        Expr::Const(_) | Expr::Var(_) | Expr::Zero(_) => {}
        Expr::Proj(inner, _) | Expr::UnOp(_, inner) | Expr::Singleton(_, inner) => {
            collect_paths(inner, out)
        }
        Expr::Lambda(_, body) => collect_paths(body, out),
        Expr::Record(fields) => {
            for (_, f) in fields {
                collect_paths(f, out);
            }
        }
        Expr::If(a, b, c) => {
            collect_paths(a, out);
            collect_paths(b, out);
            collect_paths(c, out);
        }
        Expr::BinOp(_, l, r) | Expr::Merge(_, l, r) | Expr::App(l, r) => {
            collect_paths(l, out);
            collect_paths(r, out);
        }
        Expr::Comprehension {
            head, qualifiers, ..
        } => {
            collect_paths(head, out);
            for q in qualifiers {
                match q {
                    Qualifier::Generator(_, src) => collect_paths(src, out),
                    Qualifier::Filter(f) => collect_paths(f, out),
                }
            }
        }
        Expr::ListLit(items) => {
            for i in items {
                collect_paths(i, out);
            }
        }
    }
}

/// Encode one value into its slot representation (the runtime half of
/// `FrameBuilder::fill_slot`, applied column-wise at generation time).
fn encode_cell(ty: SlotType, v: &Value, interner: &mut StringInterner) -> Option<i64> {
    match (ty, v) {
        (SlotType::Int, Value::Int(x)) => Some(*x),
        (SlotType::Float, Value::Float(x)) => Some(x.to_bits() as i64),
        (SlotType::Float, Value::Int(x)) => Some((*x as f64).to_bits() as i64),
        (SlotType::Bool, Value::Bool(b)) => Some(*b as i64),
        (SlotType::Str, Value::Str(s)) => Some(interner.intern(s)),
        _ => None,
    }
}

/// Encode one unnest element (or element field) into a non-string slot —
/// the interner-free half of [`encode_elem`], shared by every non-`Str`
/// element type.
fn encode_scalar(ty: SlotType, v: &Value) -> Option<i64> {
    match (ty, v) {
        (SlotType::Int, Value::Int(x)) => Some(*x),
        (SlotType::Float, Value::Float(x)) => Some(x.to_bits() as i64),
        (SlotType::Float, Value::Int(x)) => Some((*x as f64).to_bits() as i64),
        (SlotType::Bool, Value::Bool(b)) => Some(*b as i64),
        _ => None,
    }
}

/// Encode one unnest element (or element field) into a slot at runtime.
/// `Str` elements intern through the shared interner — safe from parallel
/// workers because the table is lock-guarded, and cheap because the build
/// pre-interned every string reachable through the direct-column path.
fn encode_elem(ty: SlotType, v: &Value, interner: &SharedInterner) -> Option<i64> {
    match (ty, v) {
        (SlotType::Str, Value::Str(s)) => Some(interner.intern(s)),
        _ => encode_scalar(ty, v),
    }
}

/// Static element type of an unnest path, plus the direct-column fast path
/// when the path is a single projection off a scanned source. Paths the
/// type walk cannot resolve (literal collections, nested comprehensions)
/// come back `Unknown` — the stage still runs, with every element-typed
/// expression interpreted.
fn unnest_elem_type(
    path: &Expr,
    specs: &[SourceSpec],
    unnests: &[UnnestSpec],
) -> (Type, Option<(usize, usize)>) {
    let Some(p) = path_of(path) else {
        return (Type::Unknown, None);
    };
    let mut segs = p.split('.');
    let root = segs.next().expect("paths are non-empty");
    let segs: Vec<&str> = segs.collect();
    let (mut ty, src) =
        if let Some((i, spec)) = specs.iter().enumerate().find(|(_, s)| s.binding == root) {
            let schema = spec.plugin.schema();
            let record = Type::record(
                schema
                    .fields()
                    .iter()
                    .map(|f| (f.name.clone(), f.ty.clone())),
            );
            (record, Some(i))
        } else if let Some(u) = unnests.iter().find(|u| u.binding == root) {
            (u.elem_ty.clone(), None)
        } else {
            return (Type::Unknown, None);
        };
    for s in &segs {
        match ty.field(s) {
            Some(t) => ty = t.clone(),
            None => return (Type::Unknown, None),
        }
    }
    let elem = ty.elem().cloned().unwrap_or(Type::Unknown);
    let src_col = match (src, segs.as_slice()) {
        (Some(i), [field]) => {
            let schema = specs[i].plugin.schema();
            specs[i]
                .touched
                .iter()
                .position(|&c| schema.fields()[c].name == *field)
                .map(|pos| (i, pos))
        }
        _ => None,
    };
    (elem, src_col)
}

/// One unnest stage bound during analysis: the element type steers slot
/// claiming, and later stages resolve paths rooted at this binding.
struct UnnestSpec {
    binding: String,
    path: Expr,
    elem_ty: Type,
    src_col: Option<(usize, usize)>,
    slots: Vec<(Option<String>, usize, SlotType)>,
}

/// One scan bound during analysis: plugin, touched columns, and claimed
/// slots. No column data is read until the whole plan is known to be
/// JIT-able — fallback queries must not pay for a scan the Volcano engine
/// will redo.
struct SourceSpec {
    binding: String,
    dataset: String,
    nrows: usize,
    plugin: Arc<dyn vida_formats::InputPlugin>,
    /// Touched schema column indexes, schema order.
    touched: Vec<usize>,
    /// `(position into touched, global slot, slot type)` for scalar fields.
    slot_meta: Vec<(usize, usize, SlotType)>,
}

/// Adapts the catalog + cost-model sketches to the optimizer's `PlanStats`:
/// base cardinalities come from plugin unit counts (known without scanning
/// — positional maps / semi-indexes are built at description time), and
/// distinct counts / predicate selectivities from the sketches the pipeline
/// feeds after each query. Without a cost model only base cardinalities are
/// available, which still orders joins by relation size.
struct CatalogEstimates<'a> {
    catalog: &'a dyn SourceProvider,
    model: Option<&'a CostModel>,
}

impl vida_optimizer::PlanStats for CatalogEstimates<'_> {
    fn base_rows(&self, dataset: &str) -> Option<f64> {
        let plugin = self.catalog.plugin(dataset).ok()?;
        Some(plugin.num_units() as f64)
    }

    fn distinct(&self, dataset: &str, field: &str) -> Option<f64> {
        self.model?.sketch().distinct(dataset, field)
    }

    fn predicate_selectivity(&self, predicate: &str) -> Option<f64> {
        self.model?.sketch().predicate_selectivity(predicate)
    }
}

struct PipelineBuilder<'a> {
    catalog: &'a dyn SourceProvider,
    opts: &'a JitOptions,
    ctx: &'a ExecContext,
    stats: &'a mut ExecStats,
    /// Revalidation verdicts of the datasets this query binds (absent =
    /// unchanged on disk, serve caches as usual).
    freshness: HashMap<String, Freshness>,
}

impl<'a> PipelineBuilder<'a> {
    fn new(
        catalog: &'a dyn SourceProvider,
        opts: &'a JitOptions,
        ctx: &'a ExecContext,
        stats: &'a mut ExecStats,
    ) -> Self {
        PipelineBuilder {
            catalog,
            opts,
            ctx,
            stats,
            freshness: HashMap::new(),
        }
    }

    /// `Ok(None)` = shape outside the generated pipelines (use the fallback
    /// engine); errors are real (catalog failures, kernel bugs).
    fn build(mut self, plan: &Plan) -> Result<Option<Pipeline>> {
        let Plan::Reduce {
            input,
            monoid,
            head,
        } = plan
        else {
            return Err(VidaError::Plan(
                "jit executor expects a Reduce-rooted plan".into(),
            ));
        };
        // Bushy join trees rotate into left-deep chains before shape
        // analysis (inner join predicates fuse into the outer join, result
        // and tuple order preserved).
        self.stats.span_begin(stage::LOWER);
        let (mut input, rotations) = left_deepen(input);
        // Cost-based join reordering (build-side choice rides along: the
        // pipelines always build the right side of each join). Gated to
        // order-insensitive monoids — `List`/`Bag`/`Array` results observe
        // tuple order, so those plans keep their syntactic order. The
        // optimizer itself declines anything it cannot prove
        // result-invariant (see `vida_optimizer::plan`).
        let mut reorder_report = None;
        if self.opts.plan_opt
            && matches!(
                monoid,
                Monoid::Primitive(_) | Monoid::Collection(CollectionKind::Set)
            )
        {
            let est = CatalogEstimates {
                catalog: self.catalog,
                model: self.opts.cost_model.as_deref(),
            };
            let (reordered, report) = vida_optimizer::reorder_joins(&input, &est);
            if report.eligible {
                input = reordered;
                reorder_report = Some(report);
            }
        }
        let shape = Shape::of(&input);
        self.stats.span_end();
        let Some(shape) = shape else {
            return Ok(None);
        };

        // Touched paths, grouped per scanned binding.
        self.stats.span_begin(stage::CODEGEN);
        let mut exprs: Vec<&Expr> = Vec::new();
        shape.exprs(&mut exprs);
        exprs.push(head);
        let mut paths: Vec<String> = Vec::new();
        for e in &exprs {
            collect_paths(e, &mut paths);
        }
        let bindings = shape.bound_vars();
        let mut fields_of: HashMap<String, Vec<String>> = HashMap::new();
        let mut whole_record: HashMap<String, bool> = HashMap::new();
        for p in &paths {
            let (first, rest) = match p.split_once('.') {
                Some((f, r)) => (f, Some(r)),
                None => (p.as_str(), None),
            };
            if !bindings.iter().any(|b| b == first) {
                continue; // dataset reference or nested-comprehension local
            }
            match rest {
                None => {
                    whole_record.insert(first.to_string(), true);
                }
                Some(rest) => {
                    let field = rest.split('.').next().expect("non-empty rest");
                    let fs = fields_of.entry(first.to_string()).or_default();
                    if !fs.iter().any(|f| f == field) {
                        fs.push(field.to_string());
                    }
                }
            }
        }

        // Bind plugins and claim frame slots (no column reads yet). Unnest
        // stages claim element slots in the same walk, typed from the
        // source schemas.
        let mut layout = FrameLayout::new();
        let mut specs: Vec<SourceSpec> = Vec::new();
        let mut unnests: Vec<UnnestSpec> = Vec::new();
        self.bind_layout(
            &shape,
            &fields_of,
            &whole_record,
            &mut layout,
            &mut specs,
            &mut unnests,
        )?;
        let order: Vec<String> = specs.iter().map(|s| s.binding.clone()).collect();

        // Compile the operator tree (keys, predicates, selects). Bails
        // before any column is materialized, so fallback queries are not
        // scanned twice. String constants intern into the context's shared
        // table — per-call and private under `run_jit`, engine-wide (ids
        // stable across sessions) on the resident path.
        let interner = Arc::clone(&self.ctx.interner);
        let mut unnest_cursor = 0usize;
        let mut join_cursor = 0usize;
        let root = self.assemble(
            &shape,
            &order,
            &layout,
            &interner,
            &mut unnest_cursor,
            &mut join_cursor,
        )?;
        self.stats.span_end();
        self.stats.bushy_lowered += rotations;
        if let Some(r) = reorder_report {
            self.stats.joins_reordered += r.joins_reordered;
            self.stats.estimated_rows += r.estimated_rows.round().max(1.0) as u64;
        }
        count_stages(&root, self.stats);

        // The plan is JIT-able: materialize touched columns (cache-first)
        // and encode them into slot representation.
        //
        // Fold-partial cache identity of a single-source plan, captured
        // before the specs are consumed below.
        let seam_src = (specs.len() == 1).then(|| {
            (
                specs[0].dataset.clone(),
                specs[0].plugin.fingerprint(),
                specs[0].nrows,
            )
        });
        let mut sources: Vec<Source> = Vec::with_capacity(specs.len());
        for spec in specs {
            self.stats.tuples_scanned += spec.nrows as u64;
            let columns =
                self.materialize_columns(&spec.dataset, &spec.plugin, &spec.touched, spec.nrows)?;
            let schema = spec.plugin.schema();
            let env_fields = spec
                .touched
                .iter()
                .zip(&columns)
                .map(|(&c, data)| (schema.fields()[c].name.clone(), Arc::clone(data)))
                .collect();
            let slot_cols = interner.with_mut(|int| {
                spec.slot_meta
                    .iter()
                    .map(|&(ti, slot, ty)| {
                        (
                            slot,
                            columns[ti]
                                .iter()
                                .map(|v| encode_cell(ty, v, int))
                                .collect::<Vec<_>>(),
                        )
                    })
                    .collect()
            });
            let slots = spec.slot_meta.iter().map(|&(_, s, _)| s).collect();
            sources.push(Source {
                binding: spec.binding,
                nrows: spec.nrows,
                env_fields,
                slot_cols,
                slots,
                selects: Vec::new(),
                fused_selects: None,
            });
        }
        // Pre-intern string unnest elements reachable through the
        // direct-column fast path: the per-element intern in the (possibly
        // parallel) hot loop then almost always hits the read-locked
        // lookup instead of contending on the write lock.
        for u in &unnests {
            if u.src_col.is_none() || !u.slots.iter().any(|&(_, _, t)| t == SlotType::Str) {
                continue;
            }
            let (src, col) = u.src_col.expect("checked above");
            interner.with_mut(|int| {
                for coll in sources[src].env_fields[col].1.iter() {
                    let Some(items) = coll.elements() else {
                        continue;
                    };
                    for item in items {
                        for (field, _, ty) in &u.slots {
                            if *ty != SlotType::Str {
                                continue;
                            }
                            let v = match field {
                                None => Some(item),
                                Some(f) => item.field(f),
                            };
                            if let Some(Value::Str(s)) = v {
                                int.intern(s);
                            }
                        }
                    }
                }
            });
        }
        self.stats.span_begin(stage::CODEGEN);
        self.attach_selects(&mut sources, &shape, &layout, &interner)?;
        self.observe_select_stats(&sources, &shape);

        let head_plan = self.plan_head(*monoid, head, &layout, &interner);
        self.stats.span_end();

        // Base environment: datasets referenced by nested comprehensions
        // (shared helper with the Volcano engine).
        let base_env = crate::volcano::materialize_free_datasets(&exprs, &bindings, self.catalog)?;

        let unnests: Vec<UnnestStage> = unnests
            .into_iter()
            .map(|u| UnnestStage {
                binding: u.binding,
                path: u.path,
                src_col: u.src_col,
                slots: u.slots,
            })
            .collect();

        // Aggregate partial reuse (the warm half of O(delta) re-query):
        // qualifying folds cache their pre-finalize accumulator, and when
        // revalidation proved the source grew in place with the cached
        // partial covering exactly the unchanged prefix, this run seeds
        // from it and folds only the appended rows.
        let fold_seam = match (&self.opts.cache, seam_src) {
            (Some(cache), Some((dataset, fingerprint, nrows)))
                if matches!(*monoid, Monoid::Primitive(_))
                    && matches!(root, Node::Source(_))
                    && unnests.is_empty()
                    && base_env.is_empty() =>
            {
                let query_hash = fnv1a(&format!("{plan:?}"));
                let reuse = match self.freshness.get(&dataset) {
                    Some(&Freshness::Extended {
                        prev_fingerprint,
                        prefix_units,
                        ..
                    }) => cache.folds().get(&dataset, query_hash).filter(|p| {
                        p.fingerprint == prev_fingerprint
                            && p.rows == prefix_units
                            && p.rows <= nrows
                    }),
                    _ => None,
                };
                Some(FoldSeam {
                    cache: Arc::clone(cache),
                    dataset,
                    query_hash,
                    fingerprint,
                    nrows,
                    reuse,
                })
            }
            _ => None,
        };

        Ok(Some(Pipeline {
            sources,
            unnests,
            root,
            monoid: *monoid,
            head: head_plan,
            frame_width: layout.len(),
            interner,
            base_env,
            pool: self.ctx.pool.clone(),
            morsel_rows: self.opts.morsel_rows,
            fold_seam,
        }))
    }

    /// Walk the shape and bind one source per scan: resolve the plugin,
    /// work out the touched columns, and claim frame slots. Unnest stages
    /// claim element slots in the same walk (typed from the schemas of the
    /// bindings their paths root at). Column data is deliberately not read
    /// here — see [`SourceSpec`].
    fn bind_layout(
        &mut self,
        shape: &Shape,
        fields_of: &HashMap<String, Vec<String>>,
        whole_record: &HashMap<String, bool>,
        layout: &mut FrameLayout,
        specs: &mut Vec<SourceSpec>,
        unnests: &mut Vec<UnnestSpec>,
    ) -> Result<()> {
        match shape {
            Shape::Scan {
                dataset, binding, ..
            } => {
                // Re-stat the backing file before trusting the resident
                // plugin (fingerprints used to be captured once at open and
                // never checked again, so a mutated file served stale
                // replicas forever). A changed file swaps a fresh reader
                // into the catalog; the verdict steers the cache protocol
                // in `materialize_columns`.
                let mut plugin = self.catalog.plugin(dataset)?;
                if !self.freshness.contains_key(dataset) {
                    match plugin.revalidate()? {
                        Revalidation::Unchanged => {}
                        Revalidation::Extended {
                            plugin: fresh,
                            prev_fingerprint,
                            prev_units,
                            prefix_units,
                        } => {
                            let fresh: Arc<dyn vida_formats::InputPlugin> = Arc::from(fresh);
                            self.catalog.install(dataset, Arc::clone(&fresh));
                            plugin = fresh;
                            self.freshness.insert(
                                dataset.clone(),
                                Freshness::Extended {
                                    prev_fingerprint,
                                    prev_units,
                                    prefix_units,
                                },
                            );
                        }
                        Revalidation::Rebuilt { plugin: fresh } => {
                            let fresh: Arc<dyn vida_formats::InputPlugin> = Arc::from(fresh);
                            self.catalog.install(dataset, Arc::clone(&fresh));
                            plugin = fresh;
                            self.freshness.insert(dataset.clone(), Freshness::Rebuilt);
                        }
                    }
                }
                let schema = plugin.schema().clone();
                let nrows = plugin.num_units();

                // Touched fields in schema order; whole-record usage touches
                // everything.
                let touched: Vec<usize> = schema
                    .fields()
                    .iter()
                    .enumerate()
                    .filter(|(_, f)| {
                        whole_record.get(binding).copied().unwrap_or(false)
                            || fields_of
                                .get(binding)
                                .is_some_and(|fs| fs.contains(&f.name))
                    })
                    .map(|(i, _)| i)
                    .collect();

                let mut slot_meta = Vec::new();
                for (ti, &col) in touched.iter().enumerate() {
                    let field = &schema.fields()[col];
                    if let Some(st) = SlotType::of_type(&field.ty) {
                        let slot = layout.slot(format!("{binding}.{}", field.name), st);
                        slot_meta.push((ti, slot, st));
                    }
                }
                specs.push(SourceSpec {
                    binding: binding.clone(),
                    dataset: dataset.clone(),
                    nrows,
                    plugin,
                    touched,
                    slot_meta,
                });
                Ok(())
            }
            Shape::Join { left, right, .. } => {
                self.bind_layout(left, fields_of, whole_record, layout, specs, unnests)?;
                self.bind_layout(right, fields_of, whole_record, layout, specs, unnests)
            }
            Shape::Unnest {
                input,
                binding,
                path,
                ..
            } => {
                self.bind_layout(input, fields_of, whole_record, layout, specs, unnests)?;
                let (elem_ty, src_col) = unnest_elem_type(path, specs, unnests);
                // Every slot type frames — including `Str`, whose elements
                // intern at runtime through the lock-guarded shared
                // interner (pre-populated at build time, so the hot loop
                // mostly takes the read-locked lookup).
                let frameable = |t: &Type| SlotType::of_type(t).is_some();
                let mut slots = Vec::new();
                match &elem_ty {
                    t if frameable(t) && whole_record.get(binding).copied().unwrap_or(false) => {
                        let st = SlotType::of_type(t).expect("frameable");
                        slots.push((None, layout.slot(binding.clone(), st), st));
                    }
                    Type::Record(fields) => {
                        if let Some(fs) = fields_of.get(binding) {
                            for (name, fty) in fields {
                                if fs.contains(name) && frameable(fty) {
                                    let st = SlotType::of_type(fty).expect("frameable");
                                    let slot = layout.slot(format!("{binding}.{name}"), st);
                                    slots.push((Some(name.clone()), slot, st));
                                }
                            }
                        }
                    }
                    _ => {}
                }
                unnests.push(UnnestSpec {
                    binding: binding.clone(),
                    path: path.clone(),
                    elem_ty,
                    src_col,
                    slots,
                });
                Ok(())
            }
        }
    }

    /// Touched columns, cache-first: replicas in any storable layout are
    /// rehydrated (parsed values directly, binary JSON by decoding,
    /// positions by exact-seek raw parses), anything missing is read from
    /// the raw file in one projected scan. With a cost model attached, the
    /// probe order comes from [`CostModel::read_preference`] and the
    /// post-query [`PipelineBuilder::sync_replicas`] step decides which
    /// replicas to (re-)write; without one, raw reads write `Values`
    /// replicas as before.
    fn materialize_columns(
        &mut self,
        dataset: &str,
        plugin: &Arc<dyn vida_formats::InputPlugin>,
        touched: &[usize],
        nrows: usize,
    ) -> Result<Vec<Arc<Vec<Value>>>> {
        let schema = plugin.schema();
        let fingerprint = plugin.fingerprint();
        let freshness = self.freshness.get(dataset).copied();
        // Prefix-validity window when the file grew in place: replicas of
        // `prev_fingerprint` with exactly `prev_units` rows still serve
        // their first `prefix_units` rows.
        let grown_info = match freshness {
            Some(Freshness::Extended {
                prev_fingerprint,
                prev_units,
                prefix_units,
            }) if prefix_units > 0 => Some((prev_fingerprint, prev_units, prefix_units)),
            _ => None,
        };
        let mut out: Vec<Option<Arc<Vec<Value>>>> = vec![None; touched.len()];
        // Positions into `touched` that need a full raw scan.
        let mut missing: Vec<usize> = Vec::new();
        // Prefix-served columns awaiting the appended rows from one shared
        // tail scan: `(position into touched, decoded prefix)`, where the
        // prefix is `None` for `Values` replicas — those splice the tail
        // into the resident vector instead of decoding row by row.
        let mut grown: Vec<(usize, Option<Vec<Value>>)> = Vec::new();

        if let Some(cache) = &self.opts.cache {
            // Counts live on the span that did the work: this span carries
            // the pointer-shared `Values` replicas (one "tuple" per served
            // row, one "morsel" per column); decoded replicas are counted
            // by `decode_replica`'s per-morsel worker spans.
            self.stats.span_begin(stage::CACHE_PROBE);
            let mut shared = 0u64;
            let mut shared_rows = 0u64;
            // Revalidation verdict → invalidation protocol. Unchanged
            // files drop stale strangers as before; grown files retain the
            // previous generation (its prefix still serves); shrunk or
            // edited files lose everything, fold partials included.
            match freshness {
                None => {
                    cache.invalidate_stale(dataset, fingerprint);
                }
                Some(Freshness::Extended {
                    prev_fingerprint, ..
                }) => {
                    cache.retain_fingerprints(dataset, &[prev_fingerprint, fingerprint]);
                }
                Some(Freshness::Rebuilt) => {
                    cache.invalidate_dataset(dataset);
                }
            }
            let pressure = cache_pressure(cache);
            for (i, &col) in touched.iter().enumerate() {
                let field = &schema.fields()[col].name;
                // Without a model, probe every storable layout cheapest
                // decode first; the model reorders by its chosen layout.
                let preference = match &self.opts.cost_model {
                    Some(model) => model.read_preference(dataset, field, pressure),
                    None => vec![Layout::Values, Layout::BinaryJson, Layout::Positions],
                };
                match cache.get_any_versioned(dataset, field, &preference) {
                    Some((_, data, fp)) if fp == fingerprint && data.len() == nrows => {
                        let vals = match &*data {
                            // Parsed replicas serve by pointer share — no
                            // per-row decode, no copy.
                            CachedData::Values(v) => {
                                shared += 1;
                                shared_rows += nrows as u64;
                                Arc::clone(v)
                            }
                            _ => Arc::new(self.decode_replica(plugin, col, &data, nrows)?),
                        };
                        out[i] = Some(vals);
                        self.stats.cached_columns += 1;
                    }
                    Some((_, data, fp))
                        if grown_info.is_some_and(|(pf, pu, _)| fp == pf && data.len() == pu) =>
                    {
                        // Old-generation replica over a grown file: the
                        // appended rows come from one shared tail scan
                        // below. A `Values` replica needs no prefix work at
                        // all (the tail splices into the resident vector);
                        // other layouts decode only the proven prefix (byte
                        // spans of `Positions` replicas still point at
                        // unchanged bytes).
                        let (_, _, prefix_units) = grown_info.expect("guard");
                        let prefix = match &*data {
                            CachedData::Values(_) => {
                                shared += 1;
                                shared_rows += prefix_units as u64;
                                None
                            }
                            _ => Some(self.decode_replica(plugin, col, &data, prefix_units)?),
                        };
                        grown.push((i, prefix));
                        self.stats.cached_columns += 1;
                    }
                    _ => missing.push(i),
                }
            }
            self.stats.span_end_counted(shared_rows, shared);
        } else {
            missing = (0..touched.len()).collect();
        }

        if !grown.is_empty() {
            let (_, _, prefix_units) = grown_info.expect("grown implies Extended");
            let from = prefix_units;
            self.stats.span_begin(stage::SCAN);
            let cols: Vec<usize> = grown.iter().map(|&(i, _)| touched[i]).collect();
            let tails = self.scan_columns(plugin, &cols, from)?;
            self.stats.tail_rows_scanned += (nrows - from) as u64;
            self.stats.span_end();
            let (prev_fingerprint, _, _) = grown_info.expect("grown implies Extended");
            for ((i, prefix), tail) in grown.into_iter().zip(tails) {
                let cache = self.opts.cache.as_ref().expect("grown implies cache");
                let field = &schema.fields()[touched[i]].name;
                let key = CacheKey::new(dataset, field.clone(), Layout::Values);
                let full = match prefix {
                    // `Values` replica: splice the tail into the resident
                    // vector under the cache lock — O(delta), and the entry
                    // is promoted to the current generation in the same
                    // step, so the next query is a plain full hit.
                    None => {
                        match cache.extend_values(&key, prev_fingerprint, from, tail, fingerprint) {
                            Some(full) => full,
                            None => {
                                // The replica vanished between probe and splice
                                // (concurrent eviction): re-read the whole
                                // column from raw — correctness over speed on
                                // this rare race.
                                let vals = self.scan_columns(plugin, &[touched[i]], 0)?;
                                let full = Arc::new(vals.into_iter().next().expect("one column"));
                                if self.opts.cost_model.is_none() {
                                    cache.put(
                                        key,
                                        CachedData::Values(Arc::clone(&full)),
                                        fingerprint,
                                    );
                                }
                                full
                            }
                        }
                    }
                    // Other layouts: stitch decoded prefix + scanned tail
                    // and refresh the replica to the current generation
                    // (with a cost model the refresh happens in
                    // `sync_replicas` instead, in its chosen layout).
                    Some(mut vals) => {
                        vals.extend(tail);
                        let full = Arc::new(vals);
                        if self.opts.cost_model.is_none() {
                            cache.put(key, CachedData::Values(Arc::clone(&full)), fingerprint);
                        }
                        full
                    }
                };
                out[i] = Some(full);
            }
        }

        if !missing.is_empty() {
            self.stats.span_begin(stage::SCAN);
            let cols: Vec<usize> = missing.iter().map(|&i| touched[i]).collect();
            let read = self.scan_columns(plugin, &cols, 0)?;
            self.stats.span_end();
            for (&i, col_vals) in missing.iter().zip(read) {
                let field = &schema.fields()[touched[i]].name;
                let full = Arc::new(col_vals);
                // Without a model, keep the legacy eager-Values put — the
                // replica shares storage with the served column. With a
                // model, sync_replicas below writes the chosen layout.
                if self.opts.cost_model.is_none() {
                    if let Some(cache) = &self.opts.cache {
                        cache.put(
                            CacheKey::new(dataset, field.clone(), Layout::Values),
                            CachedData::Values(Arc::clone(&full)),
                            fingerprint,
                        );
                    }
                }
                out[i] = Some(full);
                self.stats.raw_columns += 1;
            }
        }

        let columns: Vec<Arc<Vec<Value>>> = out
            .into_iter()
            .map(|c| c.expect("all columns filled"))
            .collect();
        self.sync_replicas(dataset, plugin, touched, &columns, fingerprint)?;
        Ok(columns)
    }

    /// Rehydrate one cached replica into a parsed column, morsel by morsel
    /// (the warm-cache half of the morsel driver). `Positions` replicas
    /// seek straight into the raw file via the plugin's span parser;
    /// everything else decodes in memory.
    fn decode_replica(
        &mut self,
        plugin: &Arc<dyn vida_formats::InputPlugin>,
        col: usize,
        data: &CachedData,
        nrows: usize,
    ) -> Result<Vec<Value>> {
        let plan = MorselPlan::fixed(nrows, self.opts.morsel_rows);
        let mut out = Vec::with_capacity(nrows);
        self.run_chunks(
            &plan,
            stage::CACHE_PROBE,
            |range| {
                range
                    .map(|r| match data {
                        CachedData::Positions(spans) => plugin.parse_field_span(col, spans[r]),
                        other => other.get(r),
                    })
                    .collect::<Result<Vec<Value>>>()
            },
            |chunk| out.extend(chunk),
        )?;
        Ok(out)
    }

    /// The post-query cost-model step (§5): fold this query's access
    /// evidence into the model, then make the cache hold each touched
    /// field's replica in the layout the model now prefers — building it
    /// from the materialized column (or from raw-file field spans for
    /// `Positions`) and retiring a superseded `Values` replica. No-op
    /// without both a cache and a model.
    fn sync_replicas(
        &mut self,
        dataset: &str,
        plugin: &Arc<dyn vida_formats::InputPlugin>,
        touched: &[usize],
        columns: &[Arc<Vec<Value>>],
        fingerprint: (u64, u64),
    ) -> Result<()> {
        let (Some(cache), Some(model)) = (&self.opts.cache, &self.opts.cost_model) else {
            return Ok(());
        };
        self.stats.span_begin(stage::REPLICA_SYNC);
        let written_before = self.stats.replicas_written;
        model.set_budget_bytes(cache.budget_bytes() as u64);
        let schema = plugin.schema();
        for (i, &col) in touched.iter().enumerate() {
            let field = &schema.fields()[col].name;
            model.observe(dataset, field, observe_column(plugin, col, &columns[i]));
            // Same hook feeds the plan optimizer's distinct sketch (inserts
            // are idempotent, so re-scans don't drift the estimate).
            model.sketch().observe_values(dataset, field, &columns[i]);
            let pressure = cache_pressure(cache);
            let mut chosen = model.choose_layout(dataset, field, pressure);
            let mut key = CacheKey::new(dataset, field.clone(), chosen);
            // Fingerprint-aware guard: a retained prior-generation replica
            // (kept for prefix serving over a grown file) counts as
            // missing, so the stitched column replaces it under the
            // current generation instead of being invalidated next query.
            if !cache.contains_fresh(&key, fingerprint) {
                let mut replica = self.build_replica(plugin, col, &columns[i], chosen)?;
                if replica.is_none() && chosen == Layout::Positions {
                    // Some rows have no byte span (optional JSON fields):
                    // positions are infeasible for this field. Tell the
                    // model — the flag is sticky, so it never retries the
                    // doomed build — and fall back to its next choice so
                    // the field still gets cached.
                    model.mark_spans_infeasible(dataset, field);
                    chosen = model.choose_layout(dataset, field, pressure);
                    key = CacheKey::new(dataset, field.clone(), chosen);
                    replica = if cache.contains_fresh(&key, fingerprint) {
                        None
                    } else {
                        self.build_replica(plugin, col, &columns[i], chosen)?
                    };
                }
                if let Some(replica) = replica {
                    let bonus = model
                        .profile(dataset, field)
                        .map(|p| model.eviction_bonus(&p, chosen))
                        .unwrap_or(0.0);
                    // Replica storage is billed to the session's tenant:
                    // its budget sheds its own coldest entries first, and
                    // in-quota strangers are never victimized.
                    if cache.put_with_cost_for(
                        self.ctx.tenant.as_deref(),
                        key.clone(),
                        replica,
                        fingerprint,
                        bonus,
                    ) {
                        self.stats.replicas_written += 1;
                    }
                }
            }
            // Once the chosen layout is in place, replicas of the field in
            // every other storable layout are superseded dead weight: drop
            // them to free budget (the re-shaping half of "re-using and
            // re-shaping results").
            if cache.contains(&key) {
                for layout in vida_optimizer::STORABLE_LAYOUTS {
                    if layout != chosen
                        && cache.remove(&CacheKey::new(dataset, field.clone(), layout))
                    {
                        self.stats.replicas_dropped += 1;
                    }
                }
            }
        }
        let written = (self.stats.replicas_written - written_before) as u64;
        self.stats.span_end_counted(written, 0);
        Ok(())
    }

    /// Build one replica of a column in `layout`. Returns `None` when the
    /// layout cannot represent the column (`Positions` needs a byte span
    /// for every row; JSON objects missing the field have none).
    fn build_replica(
        &mut self,
        plugin: &Arc<dyn vida_formats::InputPlugin>,
        col: usize,
        vals: &Arc<Vec<Value>>,
        layout: Layout,
    ) -> Result<Option<CachedData>> {
        match layout {
            Layout::Positions => {
                let mut spans = Vec::with_capacity(vals.len());
                for row in 0..vals.len() {
                    match plugin.field_byte_span(row, col)? {
                        Some(span) => spans.push(span),
                        None => return Ok(None),
                    }
                }
                Ok(Some(CachedData::Positions(spans)))
            }
            // The values replica shares storage with the materialized
            // column instead of copying it.
            Layout::Values => Ok(Some(CachedData::Values(Arc::clone(vals)))),
            layout => Ok(CachedData::from_values(vals, layout).ok()),
        }
    }

    /// The raw scan: the dispatcher splits the file into aligned morsels
    /// (newline-aligned CSV byte ranges, record-aligned JSON spans) and
    /// workers parse disjoint ranges, sharing only the atomic positional
    /// structures. `from` restricts the scan to units `from..num_units()`
    /// — the appended tail of a grown file (`0` scans everything).
    fn scan_columns(
        &mut self,
        plugin: &Arc<dyn vida_formats::InputPlugin>,
        cols: &[usize],
        from: usize,
    ) -> Result<Vec<Vec<Value>>> {
        let plan = plan_scan_tail(plugin.as_ref(), self.opts.morsel_rows, from);
        let mut out: Vec<Vec<Value>> = vec![Vec::with_capacity(plan.units()); cols.len()];
        self.run_chunks(
            &plan,
            stage::SCAN,
            |range| {
                let mut chunk: Vec<Vec<Value>> = vec![Vec::with_capacity(range.len()); cols.len()];
                plugin.scan_project_range(cols, range, &mut |_, vals| {
                    for (c, v) in chunk.iter_mut().zip(vals) {
                        c.push(v);
                    }
                    Ok(())
                })?;
                Ok(chunk)
            },
            |chunk| {
                for (o, c) in out.iter_mut().zip(chunk) {
                    o.extend(c);
                }
            },
        )?;
        Ok(out)
    }

    /// Run `work` over every morsel of `plan` on the query's pool and hand
    /// the chunks to `append` in morsel order, so the assembled column is
    /// the same at every worker count. Each morsel runs inside a
    /// worker-track `stage` span carrying its row count.
    fn run_chunks<T: Send>(
        &mut self,
        plan: &MorselPlan,
        stage: &'static str,
        work: impl Fn(std::ops::Range<usize>) -> Result<T> + Sync,
        mut append: impl FnMut(T),
    ) -> Result<()> {
        self.stats.morsels += plan.len() as u64;
        let epoch = self.stats.trace_epoch();
        let stats = &mut *self.stats;
        self.ctx.pool.fold_morsels(
            plan.len(),
            |w, m| {
                let range = plan.range(m);
                let rows = range.len() as u64;
                let mut wt = epoch.map(|e| {
                    let mut t = QueryTrace::with_epoch(w as u32 + 1, e);
                    t.begin(stage);
                    t
                });
                let chunk = work(range)?;
                if let Some(t) = wt.as_mut() {
                    t.end_counted(rows, 1);
                }
                Ok::<_, VidaError>((chunk, wt))
            },
            (),
            |(), (chunk, wt)| {
                if let (Some(mine), Some(wt)) = (stats.trace.as_deref_mut(), wt) {
                    mine.absorb(wt);
                }
                append(chunk);
                Ok(())
            },
        )
    }

    /// Compile a boolean step (kernel when possible).
    fn step(
        &mut self,
        predicate: &Expr,
        layout: &FrameLayout,
        interner: &SharedInterner,
    ) -> Result<Step> {
        if JitCompiler::try_prepare(predicate, layout) == Some(SlotType::Bool) {
            // Kernel ids are the query's dense compile order — the trace
            // layer's per-kernel invocation index.
            let k = interner
                .with_mut(|i| JitCompiler::new().and_then(|c| c.compile(predicate, layout, i)))?
                .with_id(self.stats.kernels_compiled);
            self.stats.kernels_compiled += 1;
            return Ok(Step::Kernel(k, predicate.clone()));
        }
        Ok(Step::Interp(predicate.clone()))
    }

    /// Build the operator tree. Joins pick their strategy here: hash join
    /// on compilable equi-keys, band sort-probe on a compilable range
    /// predicate, block-nested-loop otherwise (with the predicate compiled
    /// into one fused kernel when possible).
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        &mut self,
        shape: &Shape,
        order: &[String],
        layout: &FrameLayout,
        interner: &SharedInterner,
        unnest_cursor: &mut usize,
        join_cursor: &mut usize,
    ) -> Result<Node> {
        match shape {
            Shape::Scan { binding, .. } => {
                let idx = order.iter().position(|b| b == binding).expect("bound");
                Ok(Node::Source(idx))
            }
            Shape::Unnest { input, selects, .. } => {
                let inner =
                    self.assemble(input, order, layout, interner, unnest_cursor, join_cursor)?;
                // Specs were pushed in the same DFS order bind_layout used.
                let stage = *unnest_cursor;
                *unnest_cursor += 1;
                let selects = selects
                    .iter()
                    .map(|s| self.step(s, layout, interner))
                    .collect::<Result<Vec<_>>>()?;
                Ok(Node::Unnest {
                    input: Box::new(inner),
                    stage,
                    selects,
                })
            }
            Shape::Join {
                left,
                right,
                predicate,
                selects,
            } => {
                let lnode =
                    self.assemble(left, order, layout, interner, unnest_cursor, join_cursor)?;
                let Shape::Scan {
                    binding: rbinding, ..
                } = right.as_ref()
                else {
                    unreachable!("Shape::of enforces scan right sides");
                };
                let ridx = order.iter().position(|b| b == rbinding).expect("bound");

                // Claim this join's build slot (same DFS order
                // `Pipeline::prepare_builds` walks).
                let build = *join_cursor;
                *join_cursor += 1;
                let lvars = left.bound_vars();
                let rvars = vec![rbinding.clone()];
                let numeric = |t: SlotType| matches!(t, SlotType::Int | SlotType::Float);

                let predicate_step = self.step(predicate, layout, interner)?;
                let selects = selects
                    .iter()
                    .map(|s| self.step(s, layout, interner))
                    .collect::<Result<Vec<_>>>()?;

                // Strategy 1: hash join on compilable equi-keys.
                if let Some((lk_expr, rk_expr)) = Plan::equi_join_keys(predicate, &lvars, &rvars) {
                    if let (Some(lt), Some(rt)) = (
                        JitCompiler::try_prepare(&lk_expr, layout),
                        JitCompiler::try_prepare(&rk_expr, layout),
                    ) {
                        let float_keys = match (lt, rt) {
                            (a, b) if a == b => Some(a == SlotType::Float),
                            (a, b) if numeric(a) && numeric(b) => Some(true),
                            _ => None, // incomparable key types
                        };
                        if let Some(float_keys) = float_keys {
                            let left_key = interner
                                .with_mut(|i| {
                                    JitCompiler::new().and_then(|c| c.compile(&lk_expr, layout, i))
                                })?
                                .with_id(self.stats.kernels_compiled);
                            let right_key = interner
                                .with_mut(|i| {
                                    JitCompiler::new().and_then(|c| c.compile(&rk_expr, layout, i))
                                })?
                                .with_id(self.stats.kernels_compiled + 1);
                            self.stats.kernels_compiled += 2;
                            return Ok(Node::HashJoin {
                                left: Box::new(lnode),
                                right: ridx,
                                build,
                                left_key,
                                right_key,
                                left_key_ty: lt,
                                right_key_ty: rt,
                                float_keys,
                                predicate: predicate_step,
                                selects,
                            });
                        }
                    }
                }

                // Strategy 2: band sort-probe on a compilable numeric range
                // comparison between the sides.
                let mut band = None;
                if let Some((lk_expr, rk_expr, op)) =
                    Plan::band_join_keys(predicate, &lvars, &rvars)
                {
                    if let (Some(lt), Some(rt)) = (
                        JitCompiler::try_prepare(&lk_expr, layout),
                        JitCompiler::try_prepare(&rk_expr, layout),
                    ) {
                        if numeric(lt) && numeric(rt) {
                            let float_keys = lt == SlotType::Float || rt == SlotType::Float;
                            let left_key = interner
                                .with_mut(|i| {
                                    JitCompiler::new().and_then(|c| c.compile(&lk_expr, layout, i))
                                })?
                                .with_id(self.stats.kernels_compiled);
                            let right_key = interner
                                .with_mut(|i| {
                                    JitCompiler::new().and_then(|c| c.compile(&rk_expr, layout, i))
                                })?
                                .with_id(self.stats.kernels_compiled + 1);
                            self.stats.kernels_compiled += 2;
                            band = Some(Band {
                                left_key,
                                right_key,
                                op,
                                float_keys,
                                left_key_ty: lt,
                                right_key_ty: rt,
                            });
                        }
                    }
                }

                // Strategy 3 (band = None): block-nested-loop over morsels
                // with the fused predicate kernel.
                Ok(Node::ThetaJoin {
                    left: Box::new(lnode),
                    right: ridx,
                    build,
                    band,
                    predicate: predicate_step,
                    selects,
                })
            }
        }
    }

    /// Attach per-scan selection steps to their sources.
    fn attach_selects(
        &mut self,
        sources: &mut [Source],
        shape: &Shape,
        layout: &FrameLayout,
        interner: &SharedInterner,
    ) -> Result<()> {
        match shape {
            Shape::Scan {
                binding,
                dataset,
                selects,
            } => {
                let src = sources
                    .iter_mut()
                    .find(|s| &s.binding == binding)
                    .expect("source bound");
                for sel in selects {
                    let step = self.step(sel, layout, interner)?;
                    src.selects.push(step);
                }
                // When the whole chain compiled, fuse it into one
                // short-circuit select stage for valid frames; tuples whose
                // frame could not encode still walk `selects` through the
                // interpreter.
                if !src.selects.is_empty() {
                    let kernels: Vec<CompiledKernel> = src
                        .selects
                        .iter()
                        .filter_map(|s| match s {
                            Step::Kernel(k, _) => Some(k.clone()),
                            Step::Interp(_) => None,
                        })
                        .collect();
                    if kernels.len() == src.selects.len() {
                        // Compiled kernels are pure and total, so any
                        // evaluation order admits the same frames — rank
                        // cheapest-and-most-selective first when the plan
                        // optimizer is on. The interpreted `src.selects`
                        // path keeps syntactic order: interpreted conjuncts
                        // can error, and error order is observable.
                        let order = if self.opts.plan_opt && kernels.len() > 1 {
                            let order =
                                rank_conjuncts(selects, dataset, self.opts.cost_model.as_deref());
                            self.stats.conjuncts_reordered += order
                                .iter()
                                .enumerate()
                                .filter(|&(pos, &i)| pos != i)
                                .count()
                                as u32;
                            order
                        } else {
                            (0..kernels.len()).collect()
                        };
                        src.fused_selects = Some(SelectKernel::with_order(kernels, &order));
                    }
                }
                Ok(())
            }
            Shape::Join { left, right, .. } => {
                self.attach_selects(sources, left, layout, interner)?;
                self.attach_selects(sources, right, layout, interner)
            }
            // Unnest selects were compiled onto the node in `assemble`
            // (they may reference the element binding).
            Shape::Unnest { input, .. } => self.attach_selects(sources, input, layout, interner),
        }
    }

    /// Replay each scan-level conjunct over a small row sample and fold the
    /// outcomes into the cost model's predicate counters — the selectivity
    /// evidence behind conjunct ordering and join-order search on later
    /// queries. Uses the reference interpreter, so the counters reflect the
    /// engine's real predicate semantics (including null behavior); errors
    /// and non-boolean results count as evaluations that did not pass.
    fn observe_select_stats(&mut self, sources: &[Source], shape: &Shape) {
        /// Sampled rows per scan — matches `observe_column`'s budget.
        const SAMPLE_ROWS: usize = 64;
        if !self.opts.plan_opt {
            return;
        }
        let Some(model) = &self.opts.cost_model else {
            return;
        };
        let mut scans: Vec<(&String, &Vec<Expr>)> = Vec::new();
        fn collect<'s>(shape: &'s Shape, out: &mut Vec<(&'s String, &'s Vec<Expr>)>) {
            match shape {
                Shape::Scan {
                    binding, selects, ..
                } => {
                    if !selects.is_empty() {
                        out.push((binding, selects));
                    }
                }
                Shape::Join { left, right, .. } => {
                    collect(left, out);
                    collect(right, out);
                }
                Shape::Unnest { input, .. } => collect(input, out),
            }
        }
        collect(shape, &mut scans);
        for (binding, selects) in scans {
            let Some(src) = sources.iter().find(|s| &s.binding == binding) else {
                continue;
            };
            let sample = src.nrows.min(SAMPLE_ROWS);
            if sample == 0 {
                continue;
            }
            let mut hits = vec![0u64; selects.len()];
            let mut env = Bindings::new();
            for row in 0..sample {
                let rec: Vec<(String, Value)> = src
                    .env_fields
                    .iter()
                    .map(|(name, col)| (name.clone(), col[row].clone()))
                    .collect();
                env.insert(binding.clone(), Value::Record(rec));
                for (i, sel) in selects.iter().enumerate() {
                    if matches!(eval(sel, &env), Ok(Value::Bool(true))) {
                        hits[i] += 1;
                    }
                }
            }
            for (sel, &h) in selects.iter().zip(&hits) {
                model
                    .sketch()
                    .record_predicate(&sel.to_string(), h, sample as u64);
            }
        }
    }

    fn plan_head(
        &mut self,
        monoid: Monoid,
        head: &Expr,
        layout: &FrameLayout,
        interner: &SharedInterner,
    ) -> HeadPlan {
        // `count` ignores head values entirely when the head is total.
        if monoid == Monoid::Primitive(PrimitiveMonoid::Count)
            && (matches!(head, Expr::Const(_)) || path_of(head).is_some())
        {
            return HeadPlan::CountOnly;
        }
        if JitCompiler::try_prepare(head, layout).is_some() {
            if let Ok(k) =
                interner.with_mut(|i| JitCompiler::new().and_then(|c| c.compile(head, layout, i)))
            {
                let k = k.with_id(self.stats.kernels_compiled);
                self.stats.kernels_compiled += 1;
                return HeadPlan::Kernel(k, head.clone());
            }
        }
        if let Expr::Record(fields) = head {
            if matches!(monoid, Monoid::Collection(_))
                && fields
                    .iter()
                    .all(|(_, e)| JitCompiler::try_prepare(e, layout).is_some())
            {
                let mut ks = Vec::with_capacity(fields.len());
                let mut ok = true;
                for (n, e) in fields {
                    match interner
                        .with_mut(|i| JitCompiler::new().and_then(|c| c.compile(e, layout, i)))
                    {
                        Ok(k) => {
                            let id = self.stats.kernels_compiled + ks.len() as u32;
                            ks.push((n.clone(), k.with_id(id)));
                        }
                        Err(_) => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    self.stats.kernels_compiled += ks.len() as u32;
                    return HeadPlan::RecordKernels(ks, head.clone());
                }
            }
        }
        HeadPlan::Interp(head.clone())
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

// One morsel driver runs the fused push pipeline at every worker count:
// join build sides materialize first (the pipeline breakers), then the
// leftmost scan's rows split into morsels and each morsel drives through
// the whole stage chain into a private partial fold. Three invariants keep
// every thread count result-identical:
//
// 1. Morsel grids depend only on the leftmost scan's row count (and the
//    `morsel_rows` knob), never on the worker count, so the partial-result
//    sequence is fixed.
// 2. Per-morsel partials merge — and collection chunks concatenate — in
//    morsel order (`WorkerPool::fold_morsels`), so element order is the
//    scan order and float folds associate the same way everywhere.
// 3. The radix-partitioned build assigns partitions by key bits alone
//    (partition count is a function of the build size, not the worker
//    count), and bucket lists keep ascending build-tuple order, so every
//    probe sees the same candidate set in the same order.

impl Pipeline {
    fn execute(self, stats: &mut ExecStats) -> Result<Value> {
        stats.threads = self.pool.threads() as u32;
        stats.fused_stage_depth = fused_depth(&self.root) + 1; // + the fold
        let joins = has_join(&self.root);
        if joins {
            stats.span_begin(stage::BUILD_SIDE);
        }
        let builds = self.prepare_builds(stats)?;
        if joins {
            stats.span_end();
        }
        let nrows = self.sources[leftmost_source(&self.root)].nrows;
        // A reusable cached prefix partial shrinks the morsel grid to the
        // appended rows (`from = 0` is the ordinary whole-source grid).
        let from = self.fold_reuse_rows();
        let plan = MorselPlan::fixed(nrows - from, self.morsel_rows).shifted(from);
        stats.morsels += plan.len() as u64;

        stats.span_begin(stage::FOLD);
        let value = match self.monoid {
            Monoid::Collection(kind) => {
                // Per-morsel head values, concatenated in morsel order (the
                // scan's element sequence), then one canonicalization.
                let items = self.fold_drive(
                    &plan,
                    &builds,
                    stats,
                    Vec::new,
                    |items, t, ws| {
                        items.push(self.head_value(t, ws)?);
                        Ok(())
                    },
                    Vec::new(),
                    |mut all: Vec<Value>, chunk| {
                        all.extend(chunk);
                        Ok(all)
                    },
                )?;
                match kind {
                    CollectionKind::Set => Value::set(items),
                    k => Value::Collection(k, items),
                }
            }
            Monoid::Primitive(PrimitiveMonoid::Count)
                if matches!(self.head, HeadPlan::CountOnly) =>
            {
                // `count` with a total head just counts. A reused partial
                // in this arm is always the plain count (the same plan hash
                // always lands in the same arm).
                let base = match self.fold_reuse_partial(stats) {
                    Some(Value::Int(k)) => k,
                    _ => 0,
                };
                let n = self.fold_drive(
                    &plan,
                    &builds,
                    stats,
                    || 0i64,
                    |n, _, _| {
                        *n += 1;
                        Ok(())
                    },
                    base,
                    |acc, n| Ok(acc + n),
                )?;
                self.store_fold_partial(&Value::Int(n));
                Value::Int(n)
            }
            m => {
                // Per-morsel partial folds (merging incrementally preserves
                // overflow and type-error semantics), merged in morsel
                // order via `Monoid::merge_partials`. A reused cached
                // prefix partial goes in front — the prefix plus morsel
                // order over the tail is exactly the whole-source order.
                let prefix = self.fold_reuse_partial(stats);
                let merged = self.fold_drive(
                    &plan,
                    &builds,
                    stats,
                    || m.zero(),
                    |acc, t, ws| {
                        let v = self.head_value(t, ws)?;
                        *acc = m.merge(std::mem::replace(acc, Value::Null), m.unit(v))?;
                        Ok(())
                    },
                    prefix,
                    |acc: Option<Value>, p| m.merge_partials(acc.into_iter().chain([p])).map(Some),
                )?;
                let merged = merged.unwrap_or_else(|| m.zero());
                self.store_fold_partial(&merged);
                m.finalize(merged)?
            }
        };
        stats.span_end();
        Ok(value)
    }

    /// Drive every morsel of `plan` through the fused stage chain on the
    /// pool. Each morsel folds its surviving tuples into a private partial
    /// (`new` + `push`) on worker-local stats inside a per-morsel drive
    /// span; `merge` folds the partials into `init` in morsel order and the
    /// worker stats are absorbed alongside.
    #[allow(clippy::too_many_arguments)]
    fn fold_drive<P: Send, A>(
        &self,
        plan: &MorselPlan,
        builds: &[JoinBuild],
        stats: &mut ExecStats,
        new: impl Fn() -> P + Sync,
        push: impl Fn(&mut P, &Tuple, &mut ExecStats) -> Result<()> + Sync,
        init: A,
        mut merge: impl FnMut(A, P) -> Result<A>,
    ) -> Result<A> {
        let epoch = stats.trace_epoch();
        let dstage = drive_stage(&self.root);
        self.pool.fold_morsels(
            plan.len(),
            |w, m| {
                let mut ws = worker_stats(w, epoch);
                ws.span_begin(dstage);
                let mut partial = new();
                self.drive(&self.root, plan.range(m), builds, &mut ws, &mut |ws, t| {
                    ws.actual_rows += 1;
                    push(&mut partial, &t, ws)
                })?;
                ws.span_end_counted(ws.actual_rows, 1);
                Ok::<_, VidaError>((partial, ws))
            },
            init,
            |acc, (partial, ws)| {
                stats.absorb_worker(ws);
                merge(acc, partial)
            },
        )
    }

    /// Rows covered by a reusable cached prefix partial — the drive starts
    /// there (0 = no reuse, fold everything).
    fn fold_reuse_rows(&self) -> usize {
        self.fold_seam
            .as_ref()
            .and_then(|s| s.reuse.as_ref())
            .map(|p| p.rows)
            .unwrap_or(0)
    }

    /// The cached prefix partial for this run, counting the reuse.
    fn fold_reuse_partial(&self, stats: &mut ExecStats) -> Option<Value> {
        let p = self.fold_seam.as_ref()?.reuse.as_ref()?;
        stats.partials_reused += 1;
        Some(p.partial.clone())
    }

    /// Refresh the cached partial: the pre-finalize accumulator now covers
    /// the whole source at its current fingerprint.
    fn store_fold_partial(&self, partial: &Value) {
        if let Some(seam) = &self.fold_seam {
            seam.cache.folds().put(
                &seam.dataset,
                seam.query_hash,
                FoldPartial {
                    partial: partial.clone(),
                    rows: seam.nrows,
                    fingerprint: seam.fingerprint,
                },
            );
        }
    }

    fn head_value(&self, t: &Tuple, stats: &mut ExecStats) -> Result<Value> {
        match &self.head {
            HeadPlan::CountOnly => Ok(Value::Int(1)),
            HeadPlan::Kernel(k, _) if t.valid => {
                stats.kernel_hit(k.id());
                Ok(self.decode(k, &t.frame))
            }
            HeadPlan::RecordKernels(ks, _) if t.valid => {
                if stats.trace.is_some() {
                    for (_, k) in ks {
                        stats.kernel_hit(k.id());
                    }
                }
                Ok(Value::Record(
                    ks.iter()
                        .map(|(n, k)| (n.clone(), self.decode(k, &t.frame)))
                        .collect(),
                ))
            }
            other => {
                // Interpreted head, or a compiled head over a tuple whose
                // frame could not encode (nulls): exact interpreter
                // semantics over rebuilt bindings.
                stats.fallback_tuples += 1;
                let e = other.source_expr().expect("CountOnly handled above");
                eval(e, &self.env_for(t))
            }
        }
    }

    /// Decode a kernel result, resolving interned string ids.
    fn decode(&self, k: &CompiledKernel, frame: &[i64]) -> Value {
        let bits = k.call(frame);
        match k.output() {
            SlotType::Str => self
                .interner
                .resolve(bits)
                .map(Value::str)
                .unwrap_or(Value::Null),
            ty => decode_output(bits, ty),
        }
    }

    /// Rebuild interpreter bindings for a tuple from its provenance: source
    /// rows first, then unnest element values.
    fn env_for(&self, t: &Tuple) -> Bindings {
        let mut env = self.base_env.clone();
        for &(src, row) in &t.rows {
            let s = &self.sources[src];
            env.insert(
                s.binding.clone(),
                Value::Record(
                    s.env_fields
                        .iter()
                        .map(|(n, col)| (n.clone(), col[row].clone()))
                        .collect(),
                ),
            );
        }
        for (stage, v) in &t.unnest_vals {
            env.insert(self.unnests[*stage].binding.clone(), v.clone());
        }
        env
    }

    /// Evaluate a boolean step: the kernel on valid frames, the interpreter
    /// otherwise (nulls route through exact null semantics).
    fn apply_step(
        &self,
        step: &Step,
        t: &Tuple,
        stats: &mut ExecStats,
        context: &str,
    ) -> Result<bool> {
        if let Step::Kernel(k, _) = step {
            if t.valid {
                stats.kernel_hit(k.id());
                return Ok(k.call_bool(&t.frame));
            }
        }
        let expr = match step {
            Step::Kernel(_, e) | Step::Interp(e) => e,
        };
        stats.fallback_tuples += 1;
        match eval(expr, &self.env_for(t))? {
            Value::Bool(b) => Ok(b),
            other => Err(VidaError::Exec(format!(
                "{context} predicate not boolean: {other}"
            ))),
        }
    }

    /// Scan-side tuple production over a contiguous row range, pushed one
    /// tuple at a time into `sink` — the head of every fused pipeline.
    /// Valid frames run the fused [`SelectKernel`] chain; frames that could
    /// not encode (nulls) walk the selects through the interpreter.
    fn push_source(
        &self,
        idx: usize,
        rows: std::ops::Range<usize>,
        stats: &mut ExecStats,
        sink: TupleSink<'_>,
    ) -> Result<()> {
        let s = &self.sources[idx];
        'rows: for row in rows {
            let mut frame = vec![0i64; self.frame_width];
            let mut valid = true;
            for (slot, col) in &s.slot_cols {
                match col[row] {
                    Some(bits) => frame[*slot] = bits,
                    None => valid = false,
                }
            }
            let t = Tuple {
                frame,
                valid,
                rows: vec![(idx, row)],
                unnest_vals: Vec::new(),
            };
            if valid {
                if let Some(fused) = &s.fused_selects {
                    if stats.trace.is_some() {
                        // Attribute one hit per chained kernel — admit()
                        // short-circuits, so this over-counts rejected
                        // tails slightly; close enough for a hotness rank.
                        for id in fused.kernel_ids() {
                            stats.kernel_hit(id);
                        }
                    }
                    if fused.admit(&t.frame) {
                        sink(stats, t)?;
                    }
                    continue;
                }
            }
            for sel in &s.selects {
                if !self.apply_step(sel, &t, stats, "selection")? {
                    continue 'rows;
                }
            }
            sink(stats, t)?;
        }
        Ok(())
    }

    /// Drive the push loop: stream `range` rows of the pipeline's leftmost
    /// scan through every fused stage, handing each surviving tuple to
    /// `sink`. Each operator arm wraps `sink` in its own consumer closure,
    /// so a select→unnest→probe→fold chain executes as one loop nest with
    /// **no intermediate `Vec<Tuple>`**; the join build sides arrive
    /// pre-materialized in `builds` (the only pipeline breakers).
    fn drive(
        &self,
        node: &Node,
        range: std::ops::Range<usize>,
        builds: &[JoinBuild],
        stats: &mut ExecStats,
        sink: TupleSink<'_>,
    ) -> Result<()> {
        match node {
            Node::Source(idx) => self.push_source(*idx, range, stats, sink),
            Node::Unnest {
                input,
                stage,
                selects,
            } => self.drive(input, range, builds, stats, &mut |stats, t| {
                self.unnest_tuple(*stage, selects, &t, stats, sink)
            }),
            Node::HashJoin {
                left,
                right,
                build,
                left_key,
                left_key_ty,
                float_keys,
                predicate,
                selects,
                ..
            } => {
                let jb = &builds[*build];
                let rslots = &self.sources[*right].slots;
                self.drive(left, range, builds, stats, &mut |stats, lt| {
                    if lt.valid {
                        stats.kernel_hit(left_key.id());
                    }
                    let candidates = jb.hash_candidates(&lt, left_key, *left_key_ty, *float_keys);
                    self.probe_pairs(
                        &lt,
                        &candidates,
                        &jb.right_tuples,
                        rslots,
                        predicate,
                        selects,
                        stats,
                        sink,
                    )
                })
            }
            Node::ThetaJoin {
                left,
                right,
                build,
                band,
                predicate,
                selects,
            } => {
                let jb = &builds[*build];
                let rslots = &self.sources[*right].slots;
                self.drive(left, range, builds, stats, &mut |stats, lt| {
                    if let Some(b) = band {
                        if lt.valid && jb.index.is_some() {
                            stats.kernel_hit(b.left_key.id());
                        }
                    }
                    let candidates = theta_candidates(&lt, band.as_ref(), jb.index.as_ref());
                    self.probe_pairs(
                        &lt,
                        candidates.as_deref().unwrap_or(&jb.all),
                        &jb.right_tuples,
                        rslots,
                        predicate,
                        selects,
                        stats,
                        sink,
                    )
                })
            }
        }
    }

    /// Materialize the build side of every join in the tree, in the DFS
    /// order `assemble` assigned build slots. These are the pipeline
    /// breakers of push execution: each right side scans into a tuple
    /// buffer once, morsel by morsel, then hashes into radix-partitioned
    /// tables or sorts into a band index. Partition counts and bucket order
    /// depend only on the data, so every thread count probes identical
    /// candidate sets.
    fn prepare_builds(&self, stats: &mut ExecStats) -> Result<Vec<JoinBuild>> {
        let mut builds = Vec::new();
        self.prepare_builds_node(&self.root, stats, &mut builds)?;
        Ok(builds)
    }

    fn prepare_builds_node(
        &self,
        node: &Node,
        stats: &mut ExecStats,
        builds: &mut Vec<JoinBuild>,
    ) -> Result<()> {
        match node {
            Node::Source(_) => Ok(()),
            Node::Unnest { input, .. } => self.prepare_builds_node(input, stats, builds),
            Node::HashJoin {
                left,
                right,
                build,
                right_key,
                right_key_ty,
                float_keys,
                ..
            } => {
                self.prepare_builds_node(left, stats, builds)?;
                let right_tuples = self.build_side_tuples(*right, stats)?;
                let jb = JoinBuild::hash(
                    right_tuples,
                    right_key,
                    *right_key_ty,
                    *float_keys,
                    &self.pool,
                    self.morsel_rows,
                    stats,
                )?;
                debug_assert_eq!(builds.len(), *build);
                builds.push(jb);
                Ok(())
            }
            Node::ThetaJoin {
                left,
                right,
                build,
                band,
                ..
            } => {
                self.prepare_builds_node(left, stats, builds)?;
                let right_tuples = self.build_side_tuples(*right, stats)?;
                if let Some(b) = band {
                    if stats.trace.is_some() {
                        // BandIndex::build invokes the band key kernel once
                        // per valid build tuple.
                        let n = right_tuples.iter().filter(|t| t.valid).count() as u64;
                        stats.kernel_hits(b.right_key.id(), n);
                    }
                }
                let index = band.as_ref().map(|b| BandIndex::build(b, &right_tuples));
                debug_assert_eq!(builds.len(), *build);
                builds.push(JoinBuild::theta(right_tuples, index));
                Ok(())
            }
        }
    }

    /// Build-side scan, morsel by morsel: chunks concatenate in morsel
    /// order, so the buffer is the source's scan order at every worker
    /// count.
    fn build_side_tuples(&self, idx: usize, stats: &mut ExecStats) -> Result<Vec<Tuple>> {
        let plan = MorselPlan::fixed(self.sources[idx].nrows, self.morsel_rows);
        stats.morsels += plan.len() as u64;
        let epoch = stats.trace_epoch();
        self.pool.fold_morsels(
            plan.len(),
            |w, m| {
                let mut ws = worker_stats(w, epoch);
                ws.span_begin(stage::BUILD_SIDE);
                let mut out = Vec::new();
                self.push_source(idx, plan.range(m), &mut ws, &mut |_, t| {
                    out.push(t);
                    Ok(())
                })?;
                ws.span_end_counted(out.len() as u64, 1);
                Ok::<_, VidaError>((out, ws))
            },
            Vec::new(),
            |mut all, (chunk, ws)| {
                all.extend(chunk);
                stats.absorb_worker(ws);
                Ok(all)
            },
        )
    }

    /// Emit the surviving join pairs of one probe tuple against its
    /// candidate build tuples, pushing each straight into `sink`.
    #[allow(clippy::too_many_arguments)]
    fn probe_pairs(
        &self,
        lt: &Tuple,
        candidates: &[usize],
        right_tuples: &[Tuple],
        rslots: &[usize],
        predicate: &Step,
        selects: &[Step],
        stats: &mut ExecStats,
        sink: TupleSink<'_>,
    ) -> Result<()> {
        'pairs: for &ri in candidates {
            let rt = &right_tuples[ri];
            let mut frame = lt.frame.clone();
            for &slot in rslots {
                frame[slot] = rt.frame[slot];
            }
            let merged = Tuple {
                frame,
                valid: lt.valid && rt.valid,
                rows: lt.rows.iter().chain(rt.rows.iter()).copied().collect(),
                unnest_vals: lt
                    .unnest_vals
                    .iter()
                    .chain(rt.unnest_vals.iter())
                    .cloned()
                    .collect(),
            };
            if !self.apply_step(predicate, &merged, stats, "join")? {
                continue;
            }
            for sel in selects {
                if !self.apply_step(sel, &merged, stats, "selection")? {
                    continue 'pairs;
                }
            }
            sink(stats, merged)?;
        }
        Ok(())
    }

    /// Flatten one input tuple through an unnest stage: one output tuple
    /// per collection element, frames extended with the element slots,
    /// stage selects applied, survivors pushed into `sink`.
    fn unnest_tuple(
        &self,
        stage: usize,
        selects: &[Step],
        t: &Tuple,
        stats: &mut ExecStats,
        sink: TupleSink<'_>,
    ) -> Result<()> {
        let u = &self.unnests[stage];
        let evaluated;
        let coll: &Value = match u.src_col {
            Some((src, col)) => {
                let (_, row) = t
                    .rows
                    .iter()
                    .find(|(s, _)| *s == src)
                    .copied()
                    .expect("unnest source bound upstream");
                &self.sources[src].env_fields[col].1[row]
            }
            None => {
                evaluated = eval(&u.path, &self.env_for(t))?;
                &evaluated
            }
        };
        let items = coll.elements().ok_or_else(|| {
            VidaError::Exec(format!("unnest path {} produced non-collection", u.path))
        })?;
        'items: for item in items {
            let mut frame = t.frame.clone();
            let mut valid = t.valid;
            for (field, slot, ty) in &u.slots {
                let v = match field {
                    None => Some(item),
                    Some(f) => item.field(f),
                };
                match v.and_then(|v| encode_elem(*ty, v, &self.interner)) {
                    Some(bits) => frame[*slot] = bits,
                    None => valid = false,
                }
            }
            let mut unnest_vals = t.unnest_vals.clone();
            unnest_vals.push((stage, item.clone()));
            let nt = Tuple {
                frame,
                valid,
                rows: t.rows.clone(),
                unnest_vals,
            };
            for sel in selects {
                if !self.apply_step(sel, &nt, stats, "selection")? {
                    continue 'items;
                }
            }
            sink(stats, nt)?;
        }
        Ok(())
    }
}

/// The consumer side of one pipeline stage: receives each surviving tuple
/// (plus the worker-local stats) and forwards it — into the next stage's
/// closure, the fold, or a build buffer. Passing stats through the sink
/// keeps one mutable path through the whole recursive loop nest.
type TupleSink<'a> = &'a mut dyn FnMut(&mut ExecStats, Tuple) -> Result<()>;

/// Materialized build side of one join — the pipeline breaker the
/// streaming engine still pays, constructed once before the push loop and
/// shared (read-only) by every probe morsel.
struct JoinBuild {
    right_tuples: Vec<Tuple>,
    /// Hash strategy: radix-partitioned tables (`partition_count` depends
    /// only on the build size, so the build is the same at every worker
    /// count) plus the invalid-frame stragglers every probe checks
    /// through the interpreter.
    tables: Vec<HashMap<i64, Vec<usize>>>,
    partitions: usize,
    loose: Vec<usize>,
    /// Band strategy: the sorted key index.
    index: Option<BandIndex>,
    /// Cached `0..n` candidate list for block-nested-loop probes, hoisted
    /// so invalid probes and band-less joins do not reallocate it per
    /// tuple.
    all: Vec<usize>,
}

impl JoinBuild {
    /// Hash-join build: extract key bits, split by radix partition, and
    /// assemble one table per partition. The extraction runs morsel-wise
    /// and the partition tables build one per pool morsel; visiting morsel
    /// pre-splits in morsel order keeps every bucket's index list
    /// ascending — the build side's scan order.
    fn hash(
        right_tuples: Vec<Tuple>,
        right_key: &CompiledKernel,
        right_key_ty: SlotType,
        float_keys: bool,
        pool: &WorkerPool,
        morsel_rows: usize,
        stats: &mut ExecStats,
    ) -> Result<JoinBuild> {
        let partitions = radix::partition_count(right_tuples.len());
        let all = (0..right_tuples.len()).collect();
        let key_of = |t: &Tuple| encode_key(right_key.call(&t.frame), right_key_ty, float_keys);
        if stats.trace.is_some() {
            // The build extracts the key of every valid tuple exactly once.
            let n = right_tuples.iter().filter(|t| t.valid).count() as u64;
            stats.kernel_hits(right_key.id(), n);
        }
        // Phase 1: pre-split key bits by partition, morsel-wise.
        let rplan = MorselPlan::fixed(right_tuples.len(), morsel_rows);
        stats.morsels += rplan.len() as u64;
        let pre = pool.run_morsels(
            rplan.len(),
            |_| (),
            |_, m| {
                let mut parts: Vec<Vec<(i64, usize)>> = vec![Vec::new(); partitions];
                let mut loose: Vec<usize> = Vec::new();
                for i in rplan.range(m) {
                    let t = &right_tuples[i];
                    if t.valid {
                        let k = key_of(t);
                        parts[partition_of(k, partitions)].push((k, i));
                    } else {
                        loose.push(i);
                    }
                }
                Ok::<_, VidaError>((parts, loose))
            },
        )?;
        // Phase 2: one pool morsel per partition assembles that partition's
        // table from the morsel-ordered pre-splits.
        let tables = pool.run_morsels(
            partitions,
            |_| (),
            |_, p| {
                let mut table: HashMap<i64, Vec<usize>> = HashMap::new();
                for (parts, _) in &pre {
                    for &(k, i) in &parts[p] {
                        table.entry(k).or_default().push(i);
                    }
                }
                Ok::<_, VidaError>(table)
            },
        )?;
        let loose = pre.iter().flat_map(|(_, l)| l.iter().copied()).collect();
        Ok(JoinBuild {
            right_tuples,
            tables,
            partitions,
            loose,
            index: None,
            all,
        })
    }

    /// Theta-join build: tuples plus (for band joins) the sorted key index.
    fn theta(right_tuples: Vec<Tuple>, index: Option<BandIndex>) -> JoinBuild {
        let all = (0..right_tuples.len()).collect();
        JoinBuild {
            right_tuples,
            tables: Vec::new(),
            partitions: 0,
            loose: Vec::new(),
            index,
            all,
        }
    }

    /// Candidate build-tuple indexes for one hash probe, in ascending
    /// (right-scan) order so non-commutative monoids see the interpreter's
    /// pair order. Invalid probe frames are compared against every build
    /// tuple through the interpreter (null keys join null keys in this
    /// calculus).
    fn hash_candidates(
        &self,
        lt: &Tuple,
        left_key: &CompiledKernel,
        left_key_ty: SlotType,
        float_keys: bool,
    ) -> Vec<usize> {
        if !lt.valid {
            return self.all.clone();
        }
        let k = encode_key(left_key.call(&lt.frame), left_key_ty, float_keys);
        let mut c: Vec<usize> = self.tables[partition_of(k, self.partitions)]
            .get(&k)
            .map(|b| b.as_slice())
            .unwrap_or(&[])
            .iter()
            .chain(self.loose.iter())
            .copied()
            .collect();
        c.sort_unstable();
        c
    }
}

/// Leftmost scan of the pipeline tree — the source whose rows the push
/// loop (and its morsel grid) ranges over.
fn leftmost_source(node: &Node) -> usize {
    match node {
        Node::Source(idx) => *idx,
        Node::HashJoin { left, .. } | Node::ThetaJoin { left, .. } => leftmost_source(left),
        Node::Unnest { input, .. } => leftmost_source(input),
    }
}

/// Whether the pipeline tree contains any join (and therefore a build
/// side worth its own trace span).
fn has_join(node: &Node) -> bool {
    match node {
        Node::Source(_) => false,
        Node::HashJoin { .. } | Node::ThetaJoin { .. } => true,
        Node::Unnest { input, .. } => has_join(input),
    }
}

/// Trace stage name of the drive loop: a probe when any join is fused into
/// the push pipeline, otherwise a plain scan.
fn drive_stage(node: &Node) -> &'static str {
    if has_join(node) {
        stage::PROBE
    } else {
        stage::SCAN
    }
}

/// Scratch stats for one worker, carrying a trace buffer on the worker's
/// own track (`worker + 1`; track 0 is the coordinator) when tracing.
fn worker_stats(worker: usize, epoch: Option<Instant>) -> ExecStats {
    let mut ws = ExecStats::default();
    if let Some(e) = epoch {
        ws.trace = Some(Box::new(QueryTrace::with_epoch(worker as u32 + 1, e)));
    }
    ws
}

/// Operator stages fused into the push loop (scan = 1, +1 per join probe
/// and unnest stage; the caller adds 1 for the fold).
fn fused_depth(node: &Node) -> u32 {
    match node {
        Node::Source(_) => 1,
        Node::HashJoin { left, .. } | Node::ThetaJoin { left, .. } => 1 + fused_depth(left),
        Node::Unnest { input, .. } => 1 + fused_depth(input),
    }
}

/// The sorted key index a band theta join probes: valid right tuples keyed
/// by their compiled band key, plus the tuples the index cannot order
/// (invalid frames, NaN keys) which every probe must still check pairwise.
struct BandIndex {
    /// `(key bits, right tuple index)`, sorted by key then index.
    sorted: Vec<(i64, usize)>,
    /// Right-scan-order indexes outside the sorted run.
    unindexed: Vec<usize>,
}

impl BandIndex {
    fn build(band: &Band, right_tuples: &[Tuple]) -> BandIndex {
        let mut sorted = Vec::with_capacity(right_tuples.len());
        let mut unindexed = Vec::new();
        for (i, t) in right_tuples.iter().enumerate() {
            if !t.valid {
                unindexed.push(i);
                continue;
            }
            let k = encode_key(
                band.right_key.call(&t.frame),
                band.right_key_ty,
                band.float_keys,
            );
            if band.float_keys && f64::from_bits(k as u64).is_nan() {
                // NaN compares false under every IEEE ordering; keep such
                // keys out of the sorted run (they would break binary
                // search) and let the pairwise predicate reject them.
                unindexed.push(i);
            } else {
                sorted.push((k, i));
            }
        }
        if band.float_keys {
            sorted.sort_unstable_by(|(a, ai), (b, bi)| {
                f64::from_bits(*a as u64)
                    .total_cmp(&f64::from_bits(*b as u64))
                    .then(ai.cmp(bi))
            });
        } else {
            sorted.sort_unstable();
        }
        BandIndex { sorted, unindexed }
    }

    /// Indexes of the sorted run satisfying `left_key op right_key` for one
    /// probe key, as the half-open range binary search finds.
    fn range(&self, band: &Band, lk: i64) -> &[(i64, usize)] {
        let lt = |k: i64| key_lt(k, lk, band.float_keys);
        let le = |k: i64| !key_lt(lk, k, band.float_keys);
        match band.op {
            // left < right: the strict suffix of keys above lk.
            BinOp::Lt => &self.sorted[self.sorted.partition_point(|&(k, _)| le(k))..],
            // left <= right: keys at or above lk.
            BinOp::Le => &self.sorted[self.sorted.partition_point(|&(k, _)| lt(k))..],
            // left > right: the strict prefix of keys below lk.
            BinOp::Gt => &self.sorted[..self.sorted.partition_point(|&(k, _)| lt(k))],
            // left >= right: keys at or below lk.
            BinOp::Ge => &self.sorted[..self.sorted.partition_point(|&(k, _)| le(k))],
            _ => unreachable!("band ops are range comparisons"),
        }
    }
}

/// Strict `a < b` over canonical key bits.
fn key_lt(a: i64, b: i64, float_keys: bool) -> bool {
    if float_keys {
        f64::from_bits(a as u64) < f64::from_bits(b as u64)
    } else {
        a < b
    }
}

/// Candidate right-tuple indexes for one theta probe, in ascending
/// (right-scan) order so non-commutative monoids see the interpreter's pair
/// order. `None` means "every build tuple" — invalid probe frames and
/// band-less joins run the block-nested loop over a candidate list the
/// caller hoisted once, instead of reallocating it per probe. Band probes
/// narrow to the sorted key range plus the unindexed stragglers.
fn theta_candidates(
    lt: &Tuple,
    band: Option<&Band>,
    index: Option<&BandIndex>,
) -> Option<Vec<usize>> {
    let (Some(band), Some(index)) = (band, index) else {
        return None;
    };
    if !lt.valid {
        return None;
    }
    let lk = encode_key(
        band.left_key.call(&lt.frame),
        band.left_key_ty,
        band.float_keys,
    );
    let mut c: Vec<usize> = if band.float_keys && f64::from_bits(lk as u64).is_nan() {
        // NaN probe keys satisfy no IEEE range; only the unindexed build
        // tuples (whose comparison runs through the full predicate) remain.
        Vec::new()
    } else {
        index.range(band, lk).iter().map(|&(_, i)| i).collect()
    };
    c.extend(index.unindexed.iter().copied());
    c.sort_unstable();
    Some(c)
}

/// Record the pipeline stages a fully-assembled operator tree will execute
/// (`unnest_pipelines` / `theta_pipelines`).
fn count_stages(node: &Node, stats: &mut ExecStats) {
    match node {
        Node::Source(_) => {}
        Node::HashJoin { left, .. } => count_stages(left, stats),
        Node::ThetaJoin { left, .. } => {
            stats.theta_pipelines += 1;
            count_stages(left, stats);
        }
        Node::Unnest { input, .. } => {
            stats.unnest_pipelines += 1;
            count_stages(input, stats);
        }
    }
}

/// Cache byte pressure in `[0, 1]` — the cost model's storage-rent signal.
fn cache_pressure(cache: &CacheManager) -> f64 {
    cache.used_bytes() as f64 / cache.budget_bytes().max(1) as f64
}

/// FNV-1a over the plan's debug rendering — the query half of the
/// fold-partial cache key. Deterministic across runs (derived `Debug` is
/// stable), and distinct plans only collide on a 64-bit hash collision.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in s.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Expression size in AST nodes — the per-tuple evaluation-cost proxy used
/// to rank fused conjuncts.
fn expr_size(e: &Expr) -> usize {
    1 + match e {
        Expr::Const(_) | Expr::Var(_) | Expr::Zero(_) => 0,
        Expr::Proj(i, _) | Expr::UnOp(_, i) | Expr::Lambda(_, i) | Expr::Singleton(_, i) => {
            expr_size(i)
        }
        Expr::BinOp(_, l, r) | Expr::App(l, r) | Expr::Merge(_, l, r) => {
            expr_size(l) + expr_size(r)
        }
        Expr::If(c, t, f) => expr_size(c) + expr_size(t) + expr_size(f),
        Expr::Record(fs) => fs.iter().map(|(_, e)| expr_size(e)).sum(),
        Expr::ListLit(es) => es.iter().map(expr_size).sum(),
        Expr::Comprehension {
            head, qualifiers, ..
        } => expr_size(head) + qualifiers.len(),
    }
}

/// Estimated pass rate of one scan-level conjunct: observed predicate
/// counters first, then a distinct-sketch / shape heuristic (mirroring the
/// join optimizer's defaults).
fn conjunct_selectivity(e: &Expr, dataset: &str, model: Option<&CostModel>) -> f64 {
    if let Some(m) = model {
        if let Some(s) = m.sketch().predicate_selectivity(&e.to_string()) {
            return s.clamp(0.0, 1.0);
        }
    }
    match e {
        Expr::BinOp(BinOp::Eq, l, r) => {
            let d = model.and_then(|m| {
                [l.as_ref(), r.as_ref()].iter().find_map(|s| match s {
                    Expr::Proj(inner, f) if matches!(inner.as_ref(), Expr::Var(_)) => {
                        m.sketch().distinct(dataset, f)
                    }
                    _ => None,
                })
            });
            match d {
                Some(d) => (1.0 / d.max(1.0)).min(1.0),
                None => 0.1,
            }
        }
        Expr::BinOp(BinOp::Ne, ..) => 0.9,
        Expr::BinOp(BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge, ..) => 1.0 / 3.0,
        _ => 0.5,
    }
}

/// Evaluation order for a fused conjunct chain: ascending
/// `cost / (1 - selectivity)` — the classic rank that puts cheap, highly
/// selective predicates first so later (costlier) ones run on fewer tuples.
/// Stable on ties, so unranked chains keep syntactic order.
fn rank_conjuncts(selects: &[Expr], dataset: &str, model: Option<&CostModel>) -> Vec<usize> {
    let ranks: Vec<f64> = selects
        .iter()
        .map(|e| {
            let sel = conjunct_selectivity(e, dataset, model);
            expr_size(e) as f64 / (1.0 - sel).max(1e-3)
        })
        .collect();
    let mut order: Vec<usize> = (0..selects.len()).collect();
    order.sort_by(|&a, &b| ranks[a].total_cmp(&ranks[b]).then(a.cmp(&b)));
    order
}

/// One query's access evidence for a column: sampled per-row footprints of
/// the candidate layouts plus the plugin's raw fetch cost.
fn observe_column(
    plugin: &Arc<dyn vida_formats::InputPlugin>,
    col: usize,
    vals: &[Value],
) -> FieldObservation {
    /// Sampled rows per observation: enough to estimate footprints, cheap
    /// enough to run after every query.
    const SAMPLE_ROWS: usize = 64;
    /// Per-row container overhead `CachedData::approx_bytes` charges for a
    /// binary-JSON replica (one `Vec<u8>` per row).
    const BINARY_ROW_OVERHEAD: usize = 24;
    let n = vals.len().min(SAMPLE_ROWS);
    let (mut value_bytes, mut binary_bytes) = (0usize, 0usize);
    for v in vals.iter().take(n) {
        value_bytes += v.approx_bytes();
        binary_bytes += bson::to_bytes(v).len() + BINARY_ROW_OVERHEAD;
    }
    let denom = n.max(1) as f64;
    FieldObservation {
        rows: vals.len() as u64,
        avg_value_bytes: value_bytes as f64 / denom,
        avg_binary_bytes: binary_bytes as f64 / denom,
        raw_cost_factor: plugin.field_cost_factor(col),
        has_spans: plugin.supports_field_spans(),
    }
}

/// Canonical hash bits for a join key. With `float_keys`, integer keys
/// promote into the float domain so `p.id = g.fid` hashes consistently
/// across the numeric tower (bit equality on floats matches the
/// interpreter's total-order equality).
fn encode_key(raw: i64, ty: SlotType, float_keys: bool) -> i64 {
    if float_keys && ty == SlotType::Int {
        (raw as f64).to_bits() as i64
    } else {
        raw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::MemoryCatalog;
    use vida_algebra::{lower, rewrite};
    use vida_lang::parse;
    use vida_types::{Schema, Type};

    fn catalog() -> MemoryCatalog {
        let cat = MemoryCatalog::new();
        cat.register_records(
            "Patients",
            Schema::from_pairs([("id", Type::Int), ("age", Type::Int), ("city", Type::Str)]),
            &[
                Value::record([
                    ("id", Value::Int(1)),
                    ("age", Value::Int(71)),
                    ("city", Value::str("geneva")),
                ]),
                Value::record([
                    ("id", Value::Int(2)),
                    ("age", Value::Int(34)),
                    ("city", Value::str("bern")),
                ]),
                Value::record([
                    ("id", Value::Int(3)),
                    ("age", Value::Int(65)),
                    ("city", Value::str("geneva")),
                ]),
            ],
        )
        .unwrap();
        cat.register_records(
            "Genetics",
            Schema::from_pairs([("id", Type::Int), ("snp", Type::Float)]),
            &[
                Value::record([("id", Value::Int(1)), ("snp", Value::Float(0.9))]),
                Value::record([("id", Value::Int(2)), ("snp", Value::Float(0.1))]),
                Value::record([("id", Value::Int(3)), ("snp", Value::Float(0.5))]),
            ],
        )
        .unwrap();
        cat
    }

    fn plan_of(q: &str) -> Plan {
        rewrite(&lower(&parse(q).unwrap()).unwrap())
    }

    fn jit(q: &str) -> Value {
        run_jit(&plan_of(q), &catalog(), &JitOptions::default()).unwrap()
    }

    #[test]
    fn scan_filter_aggregate() {
        assert_eq!(
            jit("for { p <- Patients, p.age > 60 } yield count p"),
            Value::Int(2)
        );
        assert_eq!(jit("for { p <- Patients } yield max p.age"), Value::Int(71));
        assert_eq!(
            jit("for { p <- Patients, p.city = \"geneva\" } yield sum p.age"),
            Value::Int(136)
        );
    }

    #[test]
    fn hash_join_on_equi_keys() {
        assert_eq!(
            jit(
                "for { p <- Patients, g <- Genetics, p.id = g.id, p.age > 60 } \
                 yield sum g.snp"
            ),
            Value::Float(1.4)
        );
    }

    #[test]
    fn record_projection_compiles_per_field() {
        let v = jit("for { p <- Patients, p.age > 60 } yield bag (i := p.id, a := p.age)");
        assert_eq!(v.elements().unwrap().len(), 2);
        assert_eq!(
            v.elements().unwrap()[0],
            Value::record([("i", Value::Int(1)), ("a", Value::Int(71))])
        );
    }

    #[test]
    fn string_head_decodes_through_interner() {
        let v = jit("for { p <- Patients, p.age > 60 } yield set p.city");
        assert_eq!(v.elements().unwrap(), &[Value::str("geneva")]);
    }

    #[test]
    fn agrees_with_volcano_engine() {
        let queries = [
            "for { p <- Patients } yield avg p.age",
            "for { p <- Patients, p.city != \"bern\" } yield list p.id",
            "for { p <- Patients, g <- Genetics, p.id = g.id } \
             yield bag (a := p.age, s := g.snp)",
            "for { p <- Patients } yield all p.age > 20",
            "for { p <- Patients, p.age > 40, p.age < 70 } yield count p",
        ];
        let cat = catalog();
        for q in queries {
            let plan = plan_of(q);
            let via_volcano = crate::volcano::run_volcano(&plan, &cat).unwrap();
            let via_jit = run_jit(&plan, &cat, &JitOptions::default()).unwrap();
            assert_eq!(via_jit, via_volcano, "jit deviates for {q}");
        }
    }

    #[test]
    fn null_tuples_take_interpreted_fallback() {
        let cat = MemoryCatalog::new();
        cat.register_records(
            "T",
            Schema::from_pairs([("x", Type::Int)]),
            &[
                Value::record([("x", Value::Int(5))]),
                Value::record([("x", Value::Null)]),
                Value::record([("x", Value::Int(7))]),
            ],
        )
        .unwrap();
        let plan = plan_of("for { t <- T, t.x > 4 } yield count t");
        let (v, stats) = run_jit_with_stats(&plan, &cat, &JitOptions::default()).unwrap();
        // null > 4 is false in this calculus; the null row must not count.
        assert_eq!(v, Value::Int(2));
        assert!(stats.fallback_tuples >= 1);
    }

    #[test]
    fn kernels_are_counted() {
        let plan = plan_of("for { p <- Patients, p.age > 60 } yield sum p.age");
        let (_, stats) = run_jit_with_stats(&plan, &catalog(), &JitOptions::default()).unwrap();
        assert!(stats.kernels_compiled >= 2, "{stats:?}");
        assert_eq!(stats.tuples_scanned, 3);
    }

    #[test]
    fn declined_expressions_run_interpreted_steps() {
        // The compiler declines `Str` ordering and division, so the select
        // becomes a `Step::Interp` and the head a `HeadPlan::Interp`: the
        // pipeline still binds only the touched columns, but every tuple
        // evaluates through the interpreter.
        let plan = plan_of("for { p <- Patients, p.city < \"c\" } yield sum p.age / 2");
        let (v, stats) = run_jit_with_stats(&plan, &catalog(), &JitOptions::default()).unwrap();
        assert_eq!(v, Value::Int(17)); // bern only: 34 / 2
        assert_eq!(v, crate::volcano::run_volcano(&plan, &catalog()).unwrap());
        assert_eq!(stats.kernels_compiled, 0, "{stats:?}");
        assert_eq!(stats.whole_query_fallbacks, 0, "{stats:?}");
        // Three select evaluations plus one head evaluation.
        assert_eq!(stats.fallback_tuples, 4, "{stats:?}");
    }

    #[test]
    fn cache_serves_second_run() {
        let cache = Arc::new(CacheManager::new(1 << 20));
        let opts = JitOptions::with_cache(Arc::clone(&cache));
        let cat = catalog();
        let plan = plan_of("for { p <- Patients, p.age > 60 } yield sum p.age");
        let (v1, s1) = run_jit_with_stats(&plan, &cat, &opts).unwrap();
        assert_eq!(v1, Value::Int(136));
        assert!(s1.raw_columns > 0);
        assert!(!s1.served_from_cache);
        let (v2, s2) = run_jit_with_stats(&plan, &cat, &opts).unwrap();
        assert_eq!(v2, v1);
        assert_eq!(s2.raw_columns, 0);
        assert!(s2.served_from_cache, "{s2:?}");
        assert!(cache.stats().hits > 0);
    }

    fn nested_catalog() -> MemoryCatalog {
        let cat = MemoryCatalog::new();
        cat.register_records(
            "Regions",
            Schema::from_pairs([("id", Type::Int), ("voxels", Type::bag(Type::Int))]),
            &[
                Value::record([
                    ("id", Value::Int(1)),
                    ("voxels", Value::bag(vec![Value::Int(5), Value::Int(15)])),
                ]),
                Value::record([
                    ("id", Value::Int(2)),
                    (
                        "voxels",
                        Value::bag(vec![Value::Int(30), Value::Int(7), Value::Int(12)]),
                    ),
                ]),
                Value::record([("id", Value::Int(3)), ("voxels", Value::bag(vec![]))]),
            ],
        )
        .unwrap();
        cat
    }

    #[test]
    fn unnest_runs_through_generated_pipeline() {
        let cat = nested_catalog();
        let plan = plan_of("for { r <- Regions, v <- r.voxels, v > 10 } yield sum v");
        let (v, stats) = run_jit_with_stats(&plan, &cat, &JitOptions::default()).unwrap();
        assert_eq!(v, Value::Int(15 + 30 + 12));
        assert_eq!(stats.whole_query_fallbacks, 0, "{stats:?}");
        assert_eq!(stats.unnest_pipelines, 1);
        // The element slot compiled the inner predicate: no per-tuple
        // interpretation beyond nulls (of which this fixture has none).
        assert_eq!(stats.fallback_tuples, 0, "{stats:?}");
        assert!(stats.kernels_compiled >= 1);
        // Element order is preserved (list monoid).
        let plan = plan_of("for { r <- Regions, v <- r.voxels } yield list v");
        let (v, _) = run_jit_with_stats(&plan, &cat, &JitOptions::default()).unwrap();
        assert_eq!(
            v.elements().unwrap(),
            &[5, 15, 30, 7, 12].map(Value::Int) as &[Value]
        );
    }

    #[test]
    fn constant_queries_still_fall_back() {
        let cat = nested_catalog();
        let plan = plan_of("1 + 2");
        let (v, stats) = run_jit_with_stats(&plan, &cat, &JitOptions::default()).unwrap();
        assert_eq!(v, Value::Int(3));
        assert_eq!(stats.whole_query_fallbacks, 1);
        // Literal-collection generators unnest over the unit row: also
        // degenerate, also the fallback engine.
        let plan = plan_of("for { x <- [1, 2, 3] } yield sum x");
        let (v, stats) = run_jit_with_stats(&plan, &cat, &JitOptions::default()).unwrap();
        assert_eq!(v, Value::Int(6));
        assert_eq!(stats.whole_query_fallbacks, 1);
    }

    #[test]
    fn fallback_queries_report_their_time() {
        // Regression: the whole-query-fallback branch used to return before
        // the timers were read, so Volcano-fallback queries contributed
        // 0 ns to `ExecStats`.
        let plan = plan_of("1 + 2");
        let (_, stats) =
            run_jit_with_stats(&plan, &nested_catalog(), &JitOptions::default()).unwrap();
        assert_eq!(stats.whole_query_fallbacks, 1);
        assert!(stats.codegen > std::time::Duration::ZERO, "{stats:?}");
        assert!(stats.execution > std::time::Duration::ZERO, "{stats:?}");
    }

    #[test]
    fn unnest_agrees_with_volcano_at_every_thread_count() {
        let cat = nested_catalog();
        let queries = [
            "for { r <- Regions, v <- r.voxels } yield list v",
            "for { r <- Regions, v <- r.voxels, v > 10 } yield count v",
            "for { r <- Regions, v <- r.voxels, r.id > 1 } yield sum (v + r.id)",
            "for { r <- Regions, v <- r.voxels } yield bag (id := r.id, v := v)",
            "for { r <- Regions, v <- r.voxels } yield set v",
        ];
        for q in queries {
            let plan = plan_of(q);
            let oracle = crate::volcano::run_volcano(&plan, &cat).unwrap();
            for threads in [1usize, 2, 8] {
                let opts = JitOptions {
                    threads,
                    morsel_rows: 1,
                    ..Default::default()
                };
                let v = run_jit(&plan, &cat, &opts).unwrap();
                assert_eq!(v, oracle, "threads={threads} deviates for {q}");
            }
        }
    }

    #[test]
    fn theta_join_band_and_nested_loop_agree_with_volcano() {
        let cat = catalog();
        let queries = [
            // Band: range comparison between the sides.
            "for { p <- Patients, g <- Genetics, p.id < g.id } yield list p.age",
            "for { p <- Patients, g <- Genetics, p.id <= g.id, p.age > 40 } yield count p",
            "for { p <- Patients, g <- Genetics, p.id >= g.id } yield sum g.id",
            // Block-nested-loop: inequality and products.
            "for { p <- Patients, g <- Genetics, p.id != g.id } yield count p",
            "for { p <- Patients, g <- Genetics } yield count p",
        ];
        for q in queries {
            let plan = plan_of(q);
            let oracle = crate::volcano::run_volcano(&plan, &cat).unwrap();
            for threads in [1usize, 2, 8] {
                let opts = JitOptions {
                    threads,
                    morsel_rows: 1,
                    ..Default::default()
                };
                let (v, stats) = run_jit_with_stats(&plan, &cat, &opts).unwrap();
                assert_eq!(v, oracle, "threads={threads} deviates for {q}");
                assert_eq!(stats.whole_query_fallbacks, 0, "{q}: {stats:?}");
                assert_eq!(stats.theta_pipelines, 1, "{q}: {stats:?}");
            }
        }
    }

    #[test]
    fn bushy_join_tree_lowers_to_pipeline() {
        use vida_algebra::Plan as P;
        let cat = catalog();
        let scan = |d: &str, b: &str| P::Scan {
            dataset: d.into(),
            binding: b.into(),
        };
        // Patients ⋈[p.id = g.id] (Patients ⋈[q.id = g.id] Genetics),
        // directly constructed (comprehension lowering is always
        // left-deep).
        let bushy = P::Reduce {
            input: Box::new(P::Join {
                left: Box::new(scan("Patients", "p")),
                right: Box::new(P::Join {
                    left: Box::new(scan("Patients", "q")),
                    right: Box::new(scan("Genetics", "g")),
                    predicate: vida_lang::parse("q.id = g.id").unwrap(),
                }),
                predicate: vida_lang::parse("p.id = g.id").unwrap(),
            }),
            monoid: Monoid::Collection(CollectionKind::List),
            head: vida_lang::parse("p.age + q.age + g.id").unwrap(),
        };
        let oracle = crate::volcano::run_volcano(&bushy, &cat).unwrap();
        let (v, stats) = run_jit_with_stats(&bushy, &cat, &JitOptions::default()).unwrap();
        assert_eq!(v, oracle);
        assert_eq!(stats.whole_query_fallbacks, 0, "{stats:?}");
        assert_eq!(stats.bushy_lowered, 1, "{stats:?}");
        for threads in [2usize, 8] {
            let opts = JitOptions {
                threads,
                morsel_rows: 1,
                ..Default::default()
            };
            assert_eq!(run_jit(&bushy, &cat, &opts).unwrap(), oracle);
        }
    }

    #[test]
    fn nested_head_materializes_dataset() {
        let v = jit("for { g <- Genetics } yield bag \
             (id := g.id, \
              meta := for { p <- Patients, p.id = g.id } yield list p.city)");
        let items = v.elements().unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(
            items[0].field("meta").unwrap().elements().unwrap(),
            &[Value::str("geneva")]
        );
    }

    #[test]
    fn null_join_values_preserve_right_scan_order() {
        // Regression: loose (null-frame) build tuples must interleave with
        // hash-bucket matches in right-scan order, or list-monoid results
        // diverge from the oracles.
        let cat = MemoryCatalog::new();
        cat.register_records(
            "P",
            Schema::from_pairs([("id", Type::Int)]),
            &[Value::record([("id", Value::Int(1))])],
        )
        .unwrap();
        cat.register_records(
            "G",
            Schema::from_pairs([("id", Type::Int), ("snp", Type::Float)]),
            &[
                Value::record([("id", Value::Int(1)), ("snp", Value::Null)]),
                Value::record([("id", Value::Int(1)), ("snp", Value::Float(0.2))]),
            ],
        )
        .unwrap();
        let plan = plan_of("for { p <- P, g <- G, p.id = g.id } yield list g.snp");
        let via_volcano = crate::volcano::run_volcano(&plan, &cat).unwrap();
        let via_jit = run_jit(&plan, &cat, &JitOptions::default()).unwrap();
        assert_eq!(via_jit, via_volcano);
        assert_eq!(
            via_jit.elements().unwrap(),
            &[Value::Null, Value::Float(0.2)]
        );
    }

    #[test]
    fn non_equi_join_compiles_to_band_pipeline() {
        // Non-equi joins used to bail to the Volcano engine wholesale; the
        // mixed-tower range predicate now compiles into a band sort-probe
        // pipeline over materialized columns.
        let plan = plan_of("for { p <- Patients, g <- Genetics, p.age > g.snp } yield count p");
        let (v, stats) = run_jit_with_stats(&plan, &catalog(), &JitOptions::default()).unwrap();
        assert_eq!(v, Value::Int(9)); // every (p, g) pair: ages dwarf snps
        assert_eq!(stats.whole_query_fallbacks, 0, "{stats:?}");
        assert_eq!(stats.theta_pipelines, 1, "{stats:?}");
        assert!(stats.raw_columns > 0, "{stats:?}");
    }

    #[test]
    fn joins_on_declined_predicates_run_interpreted_nested_loops() {
        // A join predicate the compiler declines (`Str` ordering, division
        // in the key) has no key kernels: it runs block-nested-loop with
        // the predicate as a `Step::Interp` — inside the pipeline, not as a
        // whole-query fallback.
        let cat = catalog();
        for q in [
            "for { p <- Patients, q <- Patients, p.city < q.city } yield list p.id",
            "for { p <- Patients, g <- Genetics, p.id / 1 = g.id } yield list g.snp",
        ] {
            let plan = plan_of(q);
            let (v, stats) = run_jit_with_stats(&plan, &cat, &JitOptions::default()).unwrap();
            assert_eq!(v, crate::volcano::run_volcano(&plan, &cat).unwrap(), "{q}");
            assert_eq!(stats.whole_query_fallbacks, 0, "{q}: {stats:?}");
            assert_eq!(stats.theta_pipelines, 1, "{q}: {stats:?}");
            // Every candidate pair evaluated the predicate interpreted.
            assert!(stats.fallback_tuples >= 9, "{q}: {stats:?}");
        }
    }

    #[test]
    fn every_thread_count_runs_the_same_grid() {
        // Tiny morsels force genuine multi-morsel scheduling even on the
        // 3-row fixtures; results and morsel counts must be identical at
        // every thread count.
        let queries = [
            "for { p <- Patients, p.age > 40 } yield count p",
            "for { p <- Patients } yield max p.age",
            "for { p <- Patients, p.city != \"bern\" } yield list p.id",
            "for { p <- Patients, p.age > 30 } yield set p.city",
            "for { p <- Patients, g <- Genetics, p.id = g.id } \
             yield bag (a := p.age, s := g.snp)",
        ];
        let cat = catalog();
        for q in queries {
            let plan = plan_of(q);
            let oracle = crate::volcano::run_volcano(&plan, &cat).unwrap();
            let mut morsels = None;
            for threads in [1, 2, 8] {
                let opts = JitOptions {
                    threads,
                    morsel_rows: 1,
                    ..Default::default()
                };
                let (v, stats) = run_jit_with_stats(&plan, &cat, &opts).unwrap();
                assert_eq!(v, oracle, "threads={threads} deviates for {q}");
                assert_eq!(stats.threads, threads as u32);
                assert!(stats.morsels >= 2, "{q}: expected multi-morsel run");
                assert_eq!(*morsels.get_or_insert(stats.morsels), stats.morsels, "{q}");
            }
        }
    }

    #[test]
    fn parallel_null_tuples_take_fallback() {
        let cat = MemoryCatalog::new();
        cat.register_records(
            "T",
            Schema::from_pairs([("x", Type::Int)]),
            &[
                Value::record([("x", Value::Int(5))]),
                Value::record([("x", Value::Null)]),
                Value::record([("x", Value::Int(7))]),
            ],
        )
        .unwrap();
        let plan = plan_of("for { t <- T, t.x > 4 } yield count t");
        let opts = JitOptions {
            threads: 4,
            morsel_rows: 1,
            ..Default::default()
        };
        let (v, stats) = run_jit_with_stats(&plan, &cat, &opts).unwrap();
        assert_eq!(v, Value::Int(2));
        assert!(stats.fallback_tuples >= 1);
    }

    #[test]
    fn default_options_run_one_worker() {
        let plan = plan_of("for { p <- Patients } yield sum p.age");
        let (_, stats) = run_jit_with_stats(&plan, &catalog(), &JitOptions::default()).unwrap();
        assert_eq!(stats.threads, 1);
        let (_, stats) =
            run_jit_with_stats(&plan, &catalog(), &JitOptions::with_threads(0)).unwrap();
        assert_eq!(stats.threads, 1);
    }

    #[test]
    fn cost_model_reshapes_wide_text_column_to_positions() {
        use vida_formats::csv::CsvFile;
        use vida_formats::plugin::CsvPlugin;
        use vida_optimizer::CostModel;

        // A CSV with a wide text column next to a scalar: under byte
        // pressure the model should re-shape the text column to a
        // positions-only replica while the scalar stays parsed values.
        let mut csv = String::from("id,body\n");
        for i in 0..64 {
            csv.push_str(&format!("{i},{}\n", "x".repeat(160)));
        }
        let file = CsvFile::from_bytes(
            "Notes",
            csv.into_bytes(),
            b',',
            true,
            Schema::from_pairs([("id", Type::Int), ("body", Type::Str)]),
        )
        .unwrap();
        let cat = MemoryCatalog::new();
        cat.register(Arc::new(CsvPlugin::new(file)));

        // Budget a whisker above the parsed-values footprint of both
        // columns, so pressure is near 1.0 once the first run caches them.
        let budget = 16 << 10;
        let cache = Arc::new(CacheManager::new(budget));
        let model = Arc::new(CostModel::new());
        let opts = JitOptions::with_cost_model(Arc::clone(&cache), Arc::clone(&model));
        let plan = plan_of("for { n <- Notes, n.id >= 0 } yield count n.body");

        let (v1, s1) = run_jit_with_stats(&plan, &cat, &opts).unwrap();
        assert_eq!(v1, Value::Int(64));
        assert!(s1.replicas_written > 0, "{s1:?}");
        let (v2, s2) = run_jit_with_stats(&plan, &cat, &opts).unwrap();
        assert_eq!(v2, v1);
        assert!(s2.served_from_cache, "{s2:?}");
        // After two runs the cache holds the wide column positions-only —
        // its parsed-values replica would fill ~80% of the budget — while
        // the scalar column stays parsed values.
        assert!(
            cache.contains(&CacheKey::new("Notes", "body", Layout::Positions)),
            "layouts: {:?}, stats: {s2:?}",
            cache.layout_counts()
        );
        assert!(!cache.contains(&CacheKey::new("Notes", "body", Layout::Values)));
        assert!(cache.contains(&CacheKey::new("Notes", "id", Layout::Values)));
        // get_any in model order serves the positions replica.
        let model_pref = model.read_preference("Notes", "body", 0.0);
        let (layout, _) = cache.get_any("Notes", "body", &model_pref).unwrap();
        assert_eq!(layout, Layout::Positions);
        // A third run rehydrates through the positions replica and still
        // counts as fully cache-served.
        let (v3, s3) = run_jit_with_stats(&plan, &cat, &opts).unwrap();
        assert_eq!(v3, v1);
        assert!(s3.served_from_cache, "{s3:?}");
    }

    #[test]
    fn cost_model_retires_legacy_values_replicas() {
        use vida_formats::csv::CsvFile;
        use vida_formats::plugin::CsvPlugin;
        use vida_optimizer::CostModel;

        let mut csv = String::from("id,body\n");
        for i in 0..64 {
            csv.push_str(&format!("{i},{}\n", "y".repeat(160)));
        }
        let file = CsvFile::from_bytes(
            "Notes",
            csv.into_bytes(),
            b',',
            true,
            Schema::from_pairs([("id", Type::Int), ("body", Type::Str)]),
        )
        .unwrap();
        let plugin = Arc::new(CsvPlugin::new(file));
        let cat = MemoryCatalog::new();
        cat.register(Arc::clone(&plugin) as Arc<dyn vida_formats::InputPlugin>);

        let cache = Arc::new(CacheManager::new(16 << 10));
        let plan = plan_of("for { n <- Notes, n.id >= 0 } yield count n.body");
        // A model-less run leaves the legacy eager parsed-values replicas;
        // additionally plant a stray binary-JSON replica of the same field
        // (as if the model had chosen differently in the past).
        let legacy = JitOptions::with_cache(Arc::clone(&cache));
        run_jit(&plan, &cat, &legacy).unwrap();
        assert!(cache.contains(&CacheKey::new("Notes", "body", Layout::Values)));
        cache.put(
            CacheKey::new("Notes", "body", Layout::BinaryJson),
            CachedData::from_values(&[Value::str("stale")], Layout::BinaryJson).unwrap(),
            vida_formats::InputPlugin::fingerprint(plugin.as_ref()),
        );

        // The first model-driven run re-shapes the wide column to positions
        // and retires every superseded replica, not just the values one.
        let opts = JitOptions::with_cost_model(Arc::clone(&cache), Arc::new(CostModel::new()));
        let (_, stats) = run_jit_with_stats(&plan, &cat, &opts).unwrap();
        assert!(stats.replicas_dropped >= 2, "{stats:?}");
        assert!(cache.contains(&CacheKey::new("Notes", "body", Layout::Positions)));
        assert!(!cache.contains(&CacheKey::new("Notes", "body", Layout::Values)));
        assert!(!cache.contains(&CacheKey::new("Notes", "body", Layout::BinaryJson)));
    }

    #[test]
    fn optional_json_field_falls_back_when_positions_infeasible() {
        use vida_formats::json::JsonFile;
        use vida_formats::plugin::JsonPlugin;
        use vida_optimizer::CostModel;

        // A wide optional field: row 40 omits it, so a positions replica
        // (the model's pick under pressure) cannot represent the column.
        // The engine must fall back to another layout instead of leaving
        // the field permanently uncached.
        let mut json = String::new();
        for i in 0..64 {
            if i == 40 {
                json.push_str(&format!("{{\"id\":{i}}}\n"));
            } else {
                json.push_str(&format!(
                    "{{\"id\":{i},\"body\":\"{}\"}}\n",
                    "z".repeat(150)
                ));
            }
        }
        let file = JsonFile::from_bytes(
            "Docs",
            json.into_bytes(),
            Schema::from_pairs([("id", Type::Int), ("body", Type::Str)]),
        )
        .unwrap();
        let cat = MemoryCatalog::new();
        cat.register(Arc::new(JsonPlugin::new(file)));

        let cache = Arc::new(CacheManager::new(16 << 10));
        let model = Arc::new(CostModel::new());
        let opts = JitOptions::with_cost_model(Arc::clone(&cache), Arc::clone(&model));
        let plan = plan_of("for { d <- Docs, d.id >= 0 } yield count d.body");
        let (v1, _) = run_jit_with_stats(&plan, &cat, &opts).unwrap();
        assert_eq!(v1, Value::Int(64));
        // Some replica of body exists despite the positions failure…
        assert!(
            cache.cached_fields("Docs").contains(&"body".to_string()),
            "body left uncached: {:?}",
            cache.layout_counts()
        );
        assert!(!cache.contains(&CacheKey::new("Docs", "body", Layout::Positions)));
        // …the model remembers the infeasibility, and warm runs are served.
        assert!(!model.profile("Docs", "body").unwrap().has_spans);
        let (v2, s2) = run_jit_with_stats(&plan, &cat, &opts).unwrap();
        assert_eq!(v2, v1);
        assert!(s2.served_from_cache, "{s2:?}");
    }

    #[test]
    fn cost_model_default_keeps_scalar_columns_as_values() {
        use vida_optimizer::CostModel;
        let cache = Arc::new(CacheManager::new(1 << 20));
        let model = Arc::new(CostModel::new());
        let opts = JitOptions::with_cost_model(Arc::clone(&cache), Arc::clone(&model));
        let cat = catalog();
        let plan = plan_of("for { p <- Patients, p.age > 60 } yield sum p.age");
        for _ in 0..3 {
            assert_eq!(run_jit(&plan, &cat, &opts).unwrap(), Value::Int(136));
        }
        // Roomy budget, hot scalar field: parsed values stay the layout.
        assert!(cache.contains(&CacheKey::new("Patients", "age", Layout::Values)));
        let p = model.profile("Patients", "age").unwrap();
        assert_eq!(p.touches, 3);
    }

    #[test]
    fn warm_cache_decode_is_morselized() {
        use vida_optimizer::CostModel;
        let cache = Arc::new(CacheManager::new(1 << 20));
        let model = Arc::new(CostModel::new());
        let opts = JitOptions {
            cache: Some(Arc::clone(&cache)),
            cost_model: Some(model),
            threads: 2,
            morsel_rows: 1,
            ..Default::default()
        };
        let cat = catalog();
        let plan = plan_of("for { p <- Patients } yield sum p.age");
        let (v1, _) = run_jit_with_stats(&plan, &cat, &opts).unwrap();
        let (v2, s2) = run_jit_with_stats(&plan, &cat, &opts).unwrap();
        assert_eq!(v1, v2);
        assert!(s2.served_from_cache, "{s2:?}");
        // The warm run decoded the replica morsel-wise (3 rows, 1-row
        // morsels) in addition to the execution-phase morsels.
        assert!(s2.morsels >= 3, "{s2:?}");
    }

    #[test]
    fn push_loop_fuses_every_covered_shape() {
        // The push loop must fuse every covered shape end to end: scans,
        // joins (build sides are breakers, not stages), unnests, selects,
        // every monoid.
        let cat = catalog();
        let nested = nested_catalog();
        let cases: Vec<(&MemoryCatalog, &str, u32)> = vec![
            // (catalog, query, expected fused depth incl. the fold)
            (&cat, "for { p <- Patients, p.age > 60 } yield sum p.age", 2),
            (
                &cat,
                "for { p <- Patients, g <- Genetics, p.id = g.id } yield list g.snp",
                3,
            ),
            (
                &cat,
                "for { p <- Patients, g <- Genetics, p.id < g.id } yield count p",
                3,
            ),
            (
                &nested,
                "for { r <- Regions, v <- r.voxels, v > 10 } yield sum v",
                3,
            ),
        ];
        for (cat, q, depth) in cases {
            let plan = plan_of(q);
            for threads in [1usize, 2, 8] {
                let opts = JitOptions {
                    threads,
                    morsel_rows: 1,
                    ..Default::default()
                };
                let (_, stats) = run_jit_with_stats(&plan, cat, &opts).unwrap();
                assert_eq!(
                    stats.fused_stage_depth, depth,
                    "{q} at {threads} threads: {stats:?}"
                );
            }
        }
    }

    #[test]
    fn fused_selects_compile_into_one_stage() {
        // Two compiled selects on one scan fuse into a SelectKernel; the
        // result is unchanged and no per-tuple interpretation happens.
        let plan = plan_of("for { p <- Patients, p.age > 40, p.age < 70 } yield count p");
        let (v, stats) = run_jit_with_stats(&plan, &catalog(), &JitOptions::default()).unwrap();
        assert_eq!(v, Value::Int(1)); // only age 65 is in (40, 70)
        assert_eq!(stats.fallback_tuples, 0, "{stats:?}");
        assert_eq!(stats.fused_stage_depth, 2, "{stats:?}");
    }

    #[test]
    fn unknown_dataset_is_catalog_error() {
        let plan = plan_of("for { x <- Missing } yield sum x.a");
        assert_eq!(
            run_jit(&plan, &catalog(), &JitOptions::default())
                .unwrap_err()
                .kind(),
            "catalog"
        );
    }
}
