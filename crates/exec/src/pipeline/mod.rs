//! The JIT executor — per-query generated pipelines (ViDa §4.1).
//!
//! [`Session::execute`](crate::Session::execute) turns a `Reduce`-rooted
//! algebra plan into a specialized pipeline at query time:
//!
//! - **input plugins bound to exactly the touched attributes**: the analysis
//!   pass collects every `binding.field` path the query references and the
//!   generated scans read only those columns — no "database page" of unused
//!   attributes is ever built;
//! - **register frames**: each touched scalar attribute gets one 64-bit slot
//!   in a query-wide [`vida_jit::FrameLayout`]; the scan stage encodes each
//!   touched cell straight from the materialized column into a slot vector
//!   of at most 1024 rows (`SlotType::encode_cells`, strings through the
//!   shared interner under one read guard per vector), so a warm query
//!   builds no encoded copy of a cached column;
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
//!   before the lowering walk, so directly-constructed bushy plans compile
//!   too;
//! - **cost-model-driven cache replicas**: with a [`CacheManager`] attached,
//!   touched columns are served from cached replicas and raw-file reads
//!   populate the cache for the next query. A cache is always steered by a
//!   [`vida_optimizer::CostModel`] — the session's, else the engine's
//!   shared one: the pipeline records per-field access statistics after
//!   every query and the model decides each replica's layout — parsed
//!   `Values` or compact `BinaryJson` — plus a rebuild-cost eviction bonus
//!   (§5); raw byte positions stay in the format layer's positional map and
//!   semi-index;
//! - **monoid folding**: results fold with the output monoid; collection
//!   monoids accumulate and canonicalize once at the end, and `count` with a
//!   total head skips head evaluation entirely.
//!
//! Only genuinely degenerate plans fall back to the interpreted Volcano
//! engine wholesale — constant queries over the unit dataset, unnests whose
//! input is the unit row (literal collections), and joins whose right side
//! is not a scan — so execution is total over all valid plans and
//! `ExecStats::whole_query_fallbacks` records when the fallback engine ran.
//!
//! The leftmost scan runs **a vector at a time** (MonetDB/X100-style):
//! per chunk of at most 1024 rows, the fused selects refine a selection
//! vector with batch kernels, and a primitive fold straight over the scan
//! runs its head kernel over the selection and folds the outputs in a
//! typed loop. Every other pipeline takes the selected rows one at a time
//! from there.
//!
//! Execution above the scan is a **streaming push loop** (HyPer-style
//! data-centric pipelines): each compiled stage consumes one tuple at a
//! time and pushes it into the next stage's consumer closure, so
//! select→project→unnest→probe→fold chains fuse end to end with no
//! intermediate buffer between operators and **no allocation per row**:
//! each stage overwrites one scratch tuple per morsel and its sink borrows
//! it, provenance is a fixed array of row and element indexes, and
//! primitive folds keep unboxed [`Partial`](vida_types::Partial)
//! accumulators until the morsel boundary. The only pipeline breakers are
//! join build sides — a row-major slot matrix with CSR hash buckets or a
//! sorted band index — which materialize once per join before the loop
//! starts; `ExecStats::fused_stage_depth` reports the fused chain length.
//!
//! One **morsel driver** (`vida-parallel`) runs every scan at every
//! worker count: raw scans split into aligned byte ranges, replica decodes
//! and build-side scans into unit morsels (the join's bucket table or band
//! index is then laid out serially), and the leftmost
//! scan's rows into morsels that each drive through the whole stage chain
//! into a private partial fold; partials merge in morsel order. Morsel
//! boundaries depend only on the data — never the worker count — so every
//! thread count produces the same result bit for bit, float folds
//! included. Serial execution is the one-worker grid: the pool runs it
//! inline on the caller and folds each partial as it is produced.
//!
//! Module map, in the order a query passes through: `options`
//! ([`JitOptions`]), `shape` (which plans the pipelines accept, touched
//! paths), `bind` (one post-order walk from the plan to the operator tree
//! — sources, slots, selects, join strategies, unnest stages — then select
//! fusion and head planning), `columns` (cache probe, raw scan, replica
//! decode and sync, incremental tail), `join` (build sides: slot matrix,
//! CSR hash buckets, band index), `drive` (the morsel driver: push loop,
//! fold, fold-partial seam). This file holds the entry points and the
//! pipeline IR those modules share.

mod bind;
mod columns;
mod drive;
mod join;
mod options;
mod shape;

pub use options::JitOptions;

use crate::catalog::{QueryBinding, SourceProvider};
use crate::stats::ExecStats;
use crate::volcano::run_bound;
use bind::PipelineBuilder;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use vida_algebra::Plan;
use vida_cache::{CacheManager, FoldPartial};
use vida_jit::{CompiledKernel, SelectKernel, SharedInterner, SlotType};
use vida_lang::{BinOp, Bindings, Expr};
use vida_optimizer::CostModel;
use vida_parallel::WorkerPool;
use vida_trace::QueryTrace;
use vida_types::{Monoid, Result, Type, Value, VidaError};

/// Per-call compatibility wrapper (see [`run_jit_with_stats`]).
#[doc(hidden)]
pub fn run_jit(plan: &Plan, catalog: &dyn SourceProvider, opts: &JitOptions) -> Result<Value> {
    run_jit_with_stats(plan, catalog, opts).map(|(v, _)| v)
}

/// Per-call compatibility wrapper over the path `Session::execute` runs:
/// one query on a throwaway pool (its workers start once per call), a
/// private interner and a private fallback cost model. Kept for the call
/// sites that predate [`Engine`](crate::Engine) (the frozen `benchmark/`
/// package, differential tests); new code opens a session.
#[doc(hidden)]
pub fn run_jit_with_stats(
    plan: &Plan,
    catalog: &dyn SourceProvider,
    opts: &JitOptions,
) -> Result<(Value, ExecStats)> {
    let ctx = ExecContext {
        pool: WorkerPool::new(opts.threads),
        interner: Arc::new(SharedInterner::new()),
        tenant: None,
        cost_model: Arc::default(),
    };
    execute_with_context(plan, catalog, opts, &ctx)
}

/// Cross-query execution state threaded from the resident engine (or
/// synthesized per call by the `run_jit` wrapper): the worker pool every
/// phase submits its morsels to, the interner string slots resolve through,
/// the tenant that cache replica writes are billed to, and the cost model
/// that steers the cache when the session's options carry none.
pub(crate) struct ExecContext {
    pub(crate) pool: WorkerPool,
    pub(crate) interner: Arc<SharedInterner>,
    pub(crate) tenant: Option<String>,
    pub(crate) cost_model: Arc<CostModel>,
}

/// The one execution path: `Session::execute_with_stats` and the hidden
/// `run_jit_with_stats` wrapper both funnel into it.
///
/// It is also the one query boundary that catches a panic: whether it
/// unwound on the caller or was re-raised from a pool worker, a panicking
/// query becomes `VidaError::Exec("query panicked: ..")` for its caller
/// alone — the pool, the engine and sibling sessions carry on.
pub(crate) fn execute_with_context(
    plan: &Plan,
    catalog: &dyn SourceProvider,
    opts: &JitOptions,
    ctx: &ExecContext,
) -> Result<(Value, ExecStats)> {
    // Unwind safety: the query's own state dies with it, and the shared
    // state it touched sits behind locks that poison instead of exposing a
    // half-updated value.
    let payload = match catch_unwind(AssertUnwindSafe(|| execute(plan, catalog, opts, ctx))) {
        Ok(result) => return result,
        Err(payload) => payload,
    };
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string payload");
    Err(VidaError::Exec(format!("query panicked: {message}")))
}

fn execute(
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
    // The builder adds its lowering and kernel-compile stretches to
    // `stats.codegen`; the rest of the query's wall time — cache probes,
    // raw scans, replica sync, the drive (slot encoding included) — is
    // execution.
    let t0 = Instant::now();
    let binding = QueryBinding::new(catalog);
    let built = PipelineBuilder::new(&binding, opts, ctx, &mut stats).build(plan)?;
    let Some(pipeline) = built else {
        // Whole-query fallback: shape outside the generated pipelines. The
        // declined lowering is the query's codegen time, Volcano its
        // execution, over the datasets this query already bound.
        stats.whole_query_fallbacks = 1;
        let v = run_bound(plan, &binding)?;
        stats.execution = t0.elapsed().saturating_sub(stats.codegen);
        return Ok((v, stats));
    };
    let value = pipeline.execute(&mut stats)?;
    stats.execution = t0.elapsed().saturating_sub(stats.codegen);
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

impl Step {
    /// The step's source expression (what the interpreter evaluates).
    fn expr(&self) -> &Expr {
        match self {
            Step::Kernel(_, e) | Step::Interp(e) => e,
        }
    }
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
    dataset: String,
    nrows: usize,
    /// Fields materialized for binding-record reconstruction, schema order.
    env_fields: Vec<(String, Arc<Vec<Value>>)>,
    /// `(global slot, materialized column, slot type)`: the columns shared
    /// with `env_fields`, encoded cell by cell in the morsel loop. A cell
    /// that cannot encode (null, type mismatch) sends its tuple down the
    /// interpreted fallback.
    slot_cols: Vec<(usize, Arc<Vec<Value>>, SlotType)>,
    /// All global slot indexes owned by this source (for frame merging).
    slots: Vec<usize>,
    /// Selection steps applied as tuples leave the scan, syntactic order.
    selects: Vec<Step>,
    /// When every select compiled, the chain fused into one
    /// [`SelectKernel`], which refines each scan chunk's selection vector
    /// of valid rows (rows that could not encode still walk `selects`
    /// through the interpreter).
    fused_selects: Option<SelectKernel>,
}

/// Pipeline tree: left-deep joins and unnest stages over bound sources,
/// built by the builder's one lowering walk.
///
/// The tree's left spine is one fused push pipeline: tuples stream from the
/// leftmost scan (source 0) through every stage's sink without intermediate
/// buffers. Join right sides are always scans and the pipeline breakers:
/// source `right` is materialized once into the prepared [`JoinBuild`] at
/// `right - 1` before the push loop starts (the sources after the leftmost
/// are exactly the join right sides, bottom-up).
enum Node {
    Source(usize),
    HashJoin {
        left: Box<Node>,
        right: usize,
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
    /// Static element type; later stages resolve paths rooted at this
    /// binding through it.
    elem_ty: Type,
    /// Fast path: `(source index, touched-column position)` when the path
    /// is a single projection off a scanned source — the collection is read
    /// straight from the materialized column, no interpreter environment.
    src_col: Option<(usize, usize)>,
    /// Element slots: `None` = the element itself (scalar collections),
    /// `Some(field)` = a record element's field. `Str` slots intern their
    /// elements through the pipeline's shared interner at runtime.
    slots: Vec<(Option<String>, usize, SlotType)>,
}

/// Provenance entry of a source or unnest stage not bound upstream.
const UNBOUND: usize = usize::MAX;

/// The in-flight tuple of one push stage: a scratch state the stage
/// allocates once per morsel and overwrites in place for every tuple it
/// emits, so rows, join pairs and unnest elements flow through the chain
/// without a heap object each. It holds the register frame, whether every
/// slot bound so far encoded, and the provenance `Pipeline::env_for`
/// rebuilds bindings from on the fallback path, sized at bind time:
/// `rows[source]` is each upstream source's row and `elems[stage]` each
/// upstream unnest's element index (`UNBOUND` elsewhere), plus the
/// collection itself when the interpreter evaluated the unnest path
/// (direct-column unnests find it at `(column, rows[source])`).
struct Tuple {
    frame: Vec<i64>,
    valid: bool,
    rows: Vec<usize>,
    elems: Vec<(usize, Option<Arc<Value>>)>,
}

impl Tuple {
    /// Overwrite this scratch tuple with `t` — once per input tuple of a
    /// probe or unnest stage, without allocating.
    fn copy_from(&mut self, t: &Tuple) {
        self.frame.copy_from_slice(&t.frame);
        self.valid = t.valid;
        self.rows.copy_from_slice(&t.rows);
        self.elems.clone_from_slice(&t.elems);
    }
}

/// The consumer side of one pipeline stage: borrows each surviving tuple
/// (plus the worker-local stats) and forwards it — into the next stage's
/// closure, the fold, or a build side. Passing stats through the sink
/// keeps one mutable path through the whole recursive loop nest.
type TupleSink<'a> = &'a mut dyn FnMut(&mut ExecStats, &Tuple) -> Result<()>;

struct Pipeline {
    /// Sources in walk order: the leftmost scan first, then each join's
    /// right side, bottom-up.
    sources: Vec<Source>,
    /// Unnest stages in walk order (indexed by `Node::Unnest::stage`).
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
    /// The pool every phase submits its morsels to: the engine's pool, or a
    /// per-call one under the `run_jit` wrapper. Either way its workers
    /// park between runs and each phase attaches a run.
    pool: WorkerPool,
    /// Units per morsel (0 = `vida-parallel` default).
    morsel_rows: usize,
    /// Fold-partial cache seam for single-source primitive folds (`None`
    /// for every other shape — they always run the plain full fold).
    fold_seam: Option<FoldSeam>,
}

impl Pipeline {
    /// A scratch tuple sized for this pipeline: one per stage per morsel.
    fn scratch(&self) -> Tuple {
        Tuple {
            frame: vec![0; self.frame_width],
            valid: true,
            rows: vec![UNBOUND; self.sources.len()],
            elems: vec![(UNBOUND, None); self.unnests.len()],
        }
    }

    /// Rebuild interpreter bindings from a tuple's provenance — its only
    /// reader, called on the fallback path alone: a record per bound source
    /// row, then each bound unnest's element, read back from its
    /// collection.
    fn env_for(&self, t: &Tuple) -> Bindings {
        let mut env = self.base_env.clone();
        for (s, &row) in self.sources.iter().zip(&t.rows) {
            if row == UNBOUND {
                continue;
            }
            let fields = s
                .env_fields
                .iter()
                .map(|(n, c)| (n.clone(), c[row].clone()));
            env.insert(s.binding.clone(), Value::Record(fields.collect()));
        }
        for (u, (i, evaluated)) in self.unnests.iter().zip(&t.elems) {
            let coll = match (*i, evaluated, u.src_col) {
                (UNBOUND, ..) => continue,
                (_, Some(c), _) => c,
                (_, None, Some((src, col))) => &self.sources[src].env_fields[col].1[t.rows[src]],
                (_, None, None) => continue,
            };
            if let Some(item) = coll.elements().and_then(|e| e.get(*i)) {
                env.insert(u.binding.clone(), item.clone());
            }
        }
        env
    }
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

/// Fixtures shared by the unit tests of every pipeline module.
#[cfg(test)]
mod testutil {
    use super::*;
    use crate::catalog::MemoryCatalog;
    use vida_algebra::{lower, rewrite};
    use vida_lang::parse;
    use vida_types::{Schema, Type};

    pub(super) fn catalog() -> MemoryCatalog {
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

    pub(super) fn plan_of(q: &str) -> Plan {
        rewrite(&lower(&parse(q).unwrap()).unwrap())
    }

    pub(super) fn jit(q: &str) -> Value {
        run_jit(&plan_of(q), &catalog(), &JitOptions::default()).unwrap()
    }

    pub(super) fn nested_catalog() -> MemoryCatalog {
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
}

#[cfg(test)]
mod tests {
    use super::testutil::{catalog, nested_catalog, plan_of};
    use super::*;

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
    fn codegen_excludes_the_raw_scan() {
        // Regression: `codegen` was the wall time of the whole pipeline
        // build, cache probes and raw scans included, so a cold scan read
        // as mostly code generation.
        use vida_formats::csv::CsvFile;
        use vida_formats::plugin::CsvPlugin;
        use vida_types::{Schema, Type};
        let mut csv = String::from("id,age\n");
        for i in 0..100_000 {
            csv.push_str(&format!("{i},{}\n", i % 70));
        }
        let file = CsvFile::from_bytes(
            "Big",
            csv.into_bytes(),
            b',',
            true,
            Schema::from_pairs([("id", Type::Int), ("age", Type::Int)]),
        )
        .unwrap();
        let cat = crate::catalog::MemoryCatalog::new();
        cat.register(Arc::new(CsvPlugin::new(file)));
        let opts = JitOptions::with_cache(Arc::new(CacheManager::new(64 << 20)));
        let plan = plan_of("for { b <- Big, b.age > 30 } yield count b.id");
        let (_, stats) = run_jit_with_stats(&plan, &cat, &opts).unwrap();
        assert!(stats.raw_columns > 0, "{stats:?}");
        assert!(stats.codegen * 10 < stats.execution, "{stats:?}");
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
