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
//! The left spine runs as **one chunk pipeline** (MonetDB/X100-style
//! vectors, staged only at pipeline breakers as in relaxed operator
//! fusion): the leftmost scan, then every join and unnest above it in walk
//! order, then the fold, each mapping a chunk of at most 1024 rows to the
//! next. A chunk holds slot columns and its surviving rows split by
//! validity — `sel`, the rows whose every slot encoded, and `rest`, the
//! rows that could not (nulls, non-scalars) — both ascending; a join's or
//! unnest's chunk also records, per row, its input row and its own index
//! (the build row or the element index), so provenance is a chain of
//! back-references to the chunks below. The stages:
//!
//! - the **scan** encodes each slot column of the chunk into a vector —
//!   unless its **block skip** refutes the chunk first: a scan whose
//!   columns came from cached `Values` replicas has each one's block
//!   summary ([`Zones`]: per 1,024-row block, the min and max of its
//!   `Int` cells and whether a cell is neither `Int` nor `Null`), and the
//!   leading run of its selects of the form `path op int-literal` (`<`,
//!   `<=`, `>`, `>=`, `=`, either side) is tested against every block the
//!   chunk overlaps. When one of them is false on every block, and no
//!   block holds a non-`Int`, non-`Null` cell in the run's columns, the
//!   chunk is skipped whole (`ZoneCheck`). That is exact: under the
//!   interpreter's null rules an ordered comparison with `null` is false
//!   and so is `null = c`; over `Int`/`Null` cells those comparisons
//!   cannot error; and the selects evaluate left to right, so every row
//!   of the chunk drops before it reaches a step that could error. The
//!   skip covers the leftmost scan and every join build scan, and keeps
//!   the grid and every row order; a column read raw or decoded has no
//!   summary and never skips;
//! - a **join** pairs each input row with its candidate build rows,
//!   ascending: its hash bucket (the key kernel runs over `sel` and the
//!   keys look up their buckets in one batch), its band range (one binary
//!   search per key), or every build row (a block-nested loop). A row that
//!   could not encode pairs with every build row, and loose (invalid)
//!   build rows pair in their place, as `rest` rows. Pairs gather their
//!   slots from the input chunk and the build columns;
//! - an **unnest** expands each input row into one row per element,
//!   gathering the input row's slots the same way and encoding the
//!   element's slots as it goes;
//! - the **fold** runs the head kernels over `sel`; a primitive fold with a
//!   kernel or `count` head steps through their outputs in a typed loop,
//!   and any other head builds one `Value` per row. A `count` right over a
//!   band join whose predicate is the band comparison expands no valid
//!   pair: each row adds its range's length.
//!
//! Every stage then narrows its chunk with its step chain — a scan's
//! selects, a join's predicate and the selects above it, an unnest's
//! selects: compiled steps refine `sel` by batch (a chain of compiled
//! steps as one fused select kernel), interpreted steps run per row, in
//! syntactic order. Rows in `rest` walk every step, and the head, through
//! `vida_lang::eval`, over bindings rebuilt from their provenance. Errors
//! keep row order: a stage that fails at row *r* first hands the rows
//! before *r* to the rest of the pipeline, then returns its error, so the
//! first error in row order wins, as in the interpreter. Chunk buffers
//! are allocated per worker and reused for every morsel — **no allocation
//! per row** — and primitive folds keep unboxed
//! [`Partial`](vida_types::Partial) accumulators until the morsel
//! boundary. The only pipeline breakers are join build sides — owned slot
//! columns with CSR hash buckets under an open-addressing id table, or a
//! sorted band index — which materialize once per join before the spine
//! runs; `ExecStats::fused_stage_depth` reports the spine's length.
//!
//! One **morsel driver** (`vida-parallel`) runs every scan at every
//! worker count: raw scans split into aligned byte ranges, replica decodes
//! and build-side scans into unit morsels (the join's bucket table or band
//! index is then laid out serially), and the leftmost
//! scan's rows into morsels that each run through the whole spine into a
//! private partial fold; partials merge in morsel order. Morsel
//! boundaries depend only on the data — never the worker count — so every
//! thread count produces the same result bit for bit, float folds
//! included. Serial execution is the one-worker grid: the pool runs it
//! inline on the caller and folds each partial as it is produced.
//!
//! Module map, in the order a query passes through: `options`
//! ([`JitOptions`]), `shape` (which plans the pipelines accept, touched
//! paths), `bind` (one post-order walk from the plan to sources and spine
//! stages — slots, selects, join probes, unnest stages — then step fusion
//! and head planning), `columns` (cache probe, raw scan, replica decode
//! and sync, incremental tail), `join` (build sides: slot columns, CSR
//! hash buckets, band index), `drive` (the morsel driver: the chunk
//! pipeline's stages and fold, fold-partial seam). This file holds the entry points and the
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
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;
use vida_algebra::Plan;
use vida_cache::{CacheManager, FoldPartial, Zones, ZONE_ROWS};
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
/// expression for the rows that could not encode) or an interpreted
/// expression.
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

/// A chain of boolean steps in syntactic order — a scan's selects, a
/// join's predicate and the selects above the join, or an unnest's
/// selects — with its batch form over a chunk's valid rows.
struct Steps {
    list: Vec<Step>,
    /// The first step is a join predicate (its errors say so).
    join: bool,
    /// The batch form, in order: each run of compiled steps fused into one
    /// select kernel, and each interpreted step by its index in `list`. A
    /// scan whose every select compiled has one kernel, ranked (see
    /// `PipelineBuilder::fuse_selects`).
    batch: Vec<Batch>,
}

enum Batch {
    Kernels(SelectKernel),
    Interp(usize),
}

impl Steps {
    fn new(list: Vec<Step>, join: bool) -> Self {
        Steps {
            list,
            join,
            batch: Vec::new(),
        }
    }

    /// Every step's kernel, in syntactic order, when every step compiled.
    fn kernels(&self) -> Option<Vec<CompiledKernel>> {
        self.list
            .iter()
            .map(|s| match s {
                Step::Kernel(k, _) => Some(k.clone()),
                Step::Interp(_) => None,
            })
            .collect()
    }

    /// Lay out the batch form in syntactic order.
    fn fuse(&mut self) {
        let mut run = Vec::new();
        for (i, step) in self.list.iter().enumerate() {
            match step {
                Step::Kernel(k, _) => run.push(k.clone()),
                Step::Interp(_) => {
                    if !run.is_empty() {
                        let run = SelectKernel::new(std::mem::take(&mut run));
                        self.batch.push(Batch::Kernels(run));
                    }
                    self.batch.push(Batch::Interp(i));
                }
            }
        }
        if !run.is_empty() {
            self.batch.push(Batch::Kernels(SelectKernel::new(run)));
        }
    }
}

/// How the reduce head is evaluated per surviving row. Compiled variants
/// carry the source expression for rows on the fallback path.
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
    /// with `env_fields`, encoded a chunk at a time. A cell that cannot
    /// encode (null, type mismatch) makes its row take the interpreter.
    slot_cols: Vec<(usize, Arc<Vec<Value>>, SlotType)>,
    /// Selection steps applied as rows leave the scan.
    selects: Steps,
    /// The block skip of the scan's leading selects, when it has any over
    /// a summarized column.
    zone: Option<ZoneCheck>,
}

/// A scan's block skip: the leading run of its selects of the form `path
/// op int-literal` (`<`, `<=`, `>`, `>=`, `=`, either side) over a column a
/// `Values` replica served with its block summary. A chunk is skipped
/// when one of them is refuted on every block the chunk overlaps and none
/// of those blocks holds a cell that is neither `Int` nor `Null` in any of
/// the run's columns. Exact: over `Int`/`Null` cells these comparisons
/// cannot error, and the interpreter evaluates the selects left to right,
/// so every row of such a chunk drops before it reaches a step that could.
struct ZoneCheck {
    /// One per leading select: test `t` is `Source::selects`' step `t`.
    tests: Vec<ZoneTest>,
    /// Rows skipped per test, summed over the workers that scanned.
    skipped: Vec<AtomicU64>,
}

/// One leading select of a [`ZoneCheck`]: its column's block summary and
/// the ints it holds on, `lo..=hi` (empty when `lo > hi`).
struct ZoneTest {
    zones: Arc<Zones>,
    lo: i64,
    hi: i64,
}

impl ZoneCheck {
    /// The test that refutes every block rows `rows` overlap, when no
    /// block there holds a cell other than `Int` or `Null` in one of the
    /// tests' columns.
    fn refuted(&self, rows: Range<usize>) -> Option<usize> {
        let blocks = rows.start / ZONE_ROWS..=(rows.end - 1) / ZONE_ROWS;
        let clean = |t: &ZoneTest| blocks.clone().all(|b| !t.zones.mixed(b));
        if !self.tests.iter().all(clean) {
            return None;
        }
        let refutes = |t: &ZoneTest| blocks.clone().all(|b| t.zones.refutes(b, t.lo, t.hi));
        self.tests.iter().position(refutes)
    }
}

/// One stage of the left spine above the leftmost scan (source 0). The
/// builder's walk lists them bottom-up, so a chunk of the scan's surviving
/// rows passes through each in turn into the fold. Join right sides are
/// scans and the pipeline breakers: source `right` is materialized once
/// into the prepared [`JoinBuild`](join::JoinBuild) at `right - 1` before
/// the spine runs (the sources after the leftmost are exactly the join
/// right sides, bottom-up).
struct Stage {
    kind: StageKind,
    /// A join's predicate, then the selects above the stage.
    steps: Steps,
    /// The frame slots the stage copies from its input rows: every slot
    /// bound below it, except the ones it binds itself.
    carried: Vec<usize>,
}

enum StageKind {
    /// A join: each input row pairs with its candidate build rows.
    Join { right: usize, probe: Probe },
    /// Flatten a collection-valued path (index into
    /// [`Pipeline::unnests`]): one row per element, frame extended with
    /// the element's slots.
    Unnest(usize),
}

/// Where a join takes each input row's candidate build rows from.
enum Probe {
    /// Equi-keys: the bucket of the left key.
    Hash(Keys),
    /// A range comparison between the sides: the build sorts by key once
    /// and each probe narrows its candidates to the half-open range
    /// satisfying `left_key op right_key`.
    Band {
        keys: Keys,
        /// `Lt`, `Le`, `Gt`, or `Ge`, with the left key on the left.
        op: BinOp,
        /// The join predicate is this comparison itself, not one conjunct
        /// of an `and`. The predicate kernel compares the same key values
        /// in the same domain (an int key against a float one promotes as
        /// `encode_key` does), so a pair is in a probe's range exactly
        /// when the predicate holds.
        exact: bool,
    },
    /// Any other predicate: every build row (a block-nested loop).
    Loop,
}

impl Probe {
    fn keys(&self) -> Option<&Keys> {
        match self {
            Probe::Hash(keys) | Probe::Band { keys, .. } => Some(keys),
            Probe::Loop => None,
        }
    }
}

/// The compiled join keys of a hash or band join.
struct Keys {
    left: CompiledKernel,
    right: CompiledKernel,
    left_ty: SlotType,
    right_ty: SlotType,
    /// Compare keys in the float domain: int keys promote to float bits,
    /// so `p.id = g.fid` hashes consistently across the numeric tower.
    float_keys: bool,
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

struct Pipeline {
    /// Sources in walk order: the leftmost scan first, then each join's
    /// right side, bottom-up.
    sources: Vec<Source>,
    /// Unnest stages in walk order (indexed by `StageKind::Unnest`).
    unnests: Vec<UnnestStage>,
    stages: Vec<Stage>,
    /// Join build sides, filled when the pipeline executes: the build of
    /// source `right` at `right - 1`.
    builds: Vec<join::JoinBuild>,
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
