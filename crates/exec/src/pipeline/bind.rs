//! Pipeline generation: one post-order walk over the plan binds a source
//! per scan, claims frame slots, compiles selects onto the node below them,
//! picks each join's strategy and claims unnest slots; then the touched
//! columns are materialized, each scan's select chain fused, and the reduce
//! head planned.

use super::shape::{collect_paths, pipelinable};
use super::{
    Batch, ExecContext, FoldSeam, HeadPlan, JitOptions, Keys, Pipeline, Probe, Source, Stage,
    StageKind, Step, Steps, UnnestStage, ZoneCheck, ZoneTest,
};
use crate::catalog::{QueryBinding, SourceProvider};
use crate::stats::ExecStats;
use crate::volcano::collect_exprs;
use std::collections::HashSet;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;
use vida_algebra::lower::{left_deepen, split_conjuncts};
use vida_algebra::Plan;
use vida_cache::{Zones, ZONE_ROWS};
use vida_jit::compile::path_of;
use vida_jit::{CompiledKernel, FrameLayout, JitCompiler, SelectKernel, SlotType};
use vida_lang::{eval, BinOp, Bindings, Expr};
use vida_optimizer::CostModel;
use vida_trace::stage;
use vida_types::{CollectionKind, Monoid, PrimitiveMonoid, Result, Type, Value, VidaError};

/// Static element type of an unnest path, plus the direct-column fast path
/// when the path is a single projection off a scanned source. Paths the
/// type walk cannot resolve (literal collections, nested comprehensions)
/// come back `Unknown` — the stage still runs, with every element-typed
/// expression interpreted.
fn unnest_elem_type(
    path: &Expr,
    specs: &[SourceSpec],
    unnests: &[UnnestStage],
) -> (Type, Option<(usize, usize)>) {
    let Some(p) = path_of(path) else {
        return (Type::Unknown, None);
    };
    let mut segs = p.split('.');
    let root = segs.next().expect("paths are non-empty");
    let segs: Vec<&str> = segs.collect();
    let (mut ty, src) = match specs.iter().position(|s| s.binding == root) {
        Some(i) => {
            let fields = specs[i].plugin.schema().fields().iter();
            let record = Type::record(fields.map(|f| (f.name.clone(), f.ty.clone())));
            (record, Some(i))
        }
        None => match unnests.iter().find(|u| u.binding == root) {
            Some(u) => (u.elem_ty.clone(), None),
            None => return (Type::Unknown, None),
        },
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

/// One scan bound by the walk: plugin, touched columns, claimed slots, and
/// the compiled steps of the selects directly above it. No column data is
/// read until the whole plan is lowered.
struct SourceSpec {
    binding: String,
    dataset: String,
    nrows: usize,
    plugin: Arc<dyn vida_formats::InputPlugin>,
    /// Touched schema column indexes, schema order.
    touched: Vec<usize>,
    /// `(position into touched, global slot, slot type)` for scalar fields.
    slot_meta: Vec<(usize, usize, SlotType)>,
    /// Selection steps in syntactic order; ranked and fused once the
    /// source's columns exist.
    selects: Vec<Step>,
}

/// What the lowering walk accumulates: the query-wide frame layout, and
/// the sources, unnest stages and spine stages in walk order. It reads
/// `touched`: every plan-bound variable the query uses whole (`p`) and
/// every field it reaches into (`p.age`), named like their frame slots.
#[derive(Default)]
struct Lowering {
    touched: HashSet<String>,
    layout: FrameLayout,
    specs: Vec<SourceSpec>,
    unnests: Vec<UnnestStage>,
    stages: Vec<Stage>,
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

    fn predicate_selectivity(&self, dataset: &str, predicate: &str) -> Option<f64> {
        self.model?
            .sketch()
            .predicate_selectivity(dataset, predicate)
    }
}

pub(super) struct PipelineBuilder<'a> {
    /// The query's binding: every dataset read (scans, estimates, nested
    /// comprehensions) at one generation, with the revalidation verdict the
    /// cache protocol reads.
    pub(super) catalog: &'a QueryBinding<'a>,
    pub(super) opts: &'a JitOptions,
    pub(super) ctx: &'a ExecContext,
    pub(super) stats: &'a mut ExecStats,
}

impl<'a> PipelineBuilder<'a> {
    pub(super) fn new(
        catalog: &'a QueryBinding<'a>,
        opts: &'a JitOptions,
        ctx: &'a ExecContext,
        stats: &'a mut ExecStats,
    ) -> Self {
        PipelineBuilder {
            catalog,
            opts,
            ctx,
            stats,
        }
    }

    /// The cost model steering the attached cache: the session's own, else
    /// the context's shared fallback — a cache is never left unsteered.
    pub(super) fn cache_model(&self) -> &'a CostModel {
        self.opts
            .cost_model
            .as_deref()
            .unwrap_or(&self.ctx.cost_model)
    }

    /// The model whose sketches inform plan optimization: the cache's model
    /// when a cache is attached, otherwise the session's, if any.
    fn sketch_model(&self) -> Option<&'a CostModel> {
        match self.opts.cache {
            Some(_) => Some(self.cache_model()),
            None => self.opts.cost_model.as_deref(),
        }
    }

    /// Open one of the build's compile stretches (`LOWER`/`CODEGEN`): its
    /// trace span, and the clock `ExecStats::codegen` sums. Everything else
    /// the build does — cache probes, raw scans, replica sync — is
    /// execution, as is the slot encoding the morsel loop does per cell.
    fn compile_begin(&mut self, stage: &'static str) -> Instant {
        self.stats.span_begin(stage);
        Instant::now()
    }

    fn compile_end(&mut self, started: Instant) {
        self.stats.codegen += started.elapsed();
        self.stats.span_end();
    }

    /// `Ok(None)` = shape outside the generated pipelines (use the fallback
    /// engine); errors are real (catalog failures, kernel bugs).
    pub(super) fn build(mut self, plan: &Plan) -> Result<Option<Pipeline>> {
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
        // Bushy join trees rotate into left-deep chains before the walk
        // (inner join predicates fuse into the outer join, result and tuple
        // order preserved).
        let lower = self.compile_begin(stage::LOWER);
        let (mut input, rotations) = left_deepen(input);
        // Cost-based join reordering (build-side choice rides along: the
        // pipelines always build the right side of each join). Gated to
        // order-insensitive monoids — `List`/`Bag`/`Array` results observe
        // tuple order, so those plans keep their syntactic order. The
        // optimizer itself declines anything it cannot prove
        // result-invariant (see `vida_optimizer::plan`).
        let mut reorder_report = None;
        if matches!(
            monoid,
            Monoid::Primitive(_) | Monoid::Collection(CollectionKind::Set)
        ) {
            let est = CatalogEstimates {
                catalog: self.catalog,
                model: self.sketch_model(),
            };
            let (reordered, report) = vida_optimizer::reorder_joins(&input, &est);
            if report.eligible {
                input = reordered;
                reorder_report = Some(report);
            }
        }
        let accepted = pipelinable(&input);
        self.compile_end(lower);
        if !accepted {
            return Ok(None);
        }

        // Touched paths: the plan-bound variables used whole, and the
        // fields reached into.
        let codegen = self.compile_begin(stage::CODEGEN);
        let mut exprs: Vec<&Expr> = Vec::new();
        collect_exprs(&input, &mut exprs);
        exprs.push(head);
        let mut paths: Vec<String> = Vec::new();
        for e in &exprs {
            collect_paths(e, &mut paths);
        }
        let bindings = input.bound_vars();
        let mut walk = Lowering::default();
        for p in &paths {
            let mut segs = p.split('.');
            let first = segs.next().expect("paths are non-empty");
            // Skip dataset references and nested-comprehension locals.
            if bindings.iter().any(|b| b == first) {
                let used = segs.next().map_or(first.into(), |f| format!("{first}.{f}"));
                walk.touched.insert(used);
            }
        }
        self.lower(&input, &mut walk)?;
        self.compile_end(codegen);
        self.stats.bushy_lowered += rotations;
        if let Some(r) = reorder_report {
            self.stats.joins_reordered += r.joins_reordered;
            self.stats.estimated_rows += r.estimated_rows.round().max(1.0) as u64;
        }

        // The plan is JIT-able: materialize touched columns (cache-first);
        // the morsel loop encodes their cells into the frame slots.
        //
        // Fold-partial cache identity of a single-source plan, captured
        // before the specs are consumed below.
        let specs = walk.specs;
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
            let (columns, zones): (Vec<_>, Vec<_>) = self
                .materialize_columns(&spec.dataset, &spec.plugin, &spec.touched, spec.nrows)?
                .into_iter()
                .unzip();
            let schema = spec.plugin.schema();
            let zone = zone_check(&spec, |field| {
                let pos = spec
                    .touched
                    .iter()
                    .position(|&c| schema.fields()[c].name == field)?;
                zones[pos].clone()
            });
            let env_fields = spec
                .touched
                .iter()
                .zip(&columns)
                .map(|(&c, data)| (schema.fields()[c].name.clone(), Arc::clone(data)))
                .collect();
            let slot_cols = spec
                .slot_meta
                .iter()
                .map(|&(ti, slot, ty)| (slot, Arc::clone(&columns[ti]), ty))
                .collect();
            sources.push(Source {
                binding: spec.binding,
                dataset: spec.dataset,
                nrows: spec.nrows,
                env_fields,
                slot_cols,
                selects: Steps::new(spec.selects, false),
                zone,
            });
        }
        let codegen = self.compile_begin(stage::CODEGEN);
        for src in &mut sources {
            self.fuse_selects(&mut src.selects, &src.dataset);
        }
        // Each stage carries the slots bound below it, except the ones it
        // binds itself.
        let mut stages = walk.stages;
        let mut bound: Vec<usize> = sources[0].slot_cols.iter().map(|c| c.0).collect();
        for stage in &mut stages {
            let own: Vec<usize> = match stage.kind {
                StageKind::Join { right, .. } => {
                    sources[right].slot_cols.iter().map(|c| c.0).collect()
                }
                StageKind::Unnest(u) => walk.unnests[u].slots.iter().map(|s| s.1).collect(),
            };
            bound.retain(|s| !own.contains(s));
            stage.carried = bound.clone();
            bound.extend(own);
            stage.steps.fuse();
        }
        self.observe_select_stats(&sources);
        let head_plan = self.plan_head(*monoid, head, &walk.layout);
        self.compile_end(codegen);

        // Base environment: datasets referenced by nested comprehensions
        // (shared helper with the Volcano engine).
        let base_env = crate::volcano::materialize_free_datasets(&exprs, &bindings, self.catalog)?;

        // Aggregate partial reuse (the warm half of O(delta) re-query):
        // qualifying folds cache their pre-finalize accumulator, and when
        // revalidation proved the source grew in place with the cached
        // partial covering exactly the unchanged prefix, this run seeds
        // from it and folds only the appended rows: a scan with no join and
        // no unnest above it.
        let fold_seam = match (&self.opts.cache, seam_src) {
            (Some(cache), Some((dataset, fingerprint, nrows)))
                if matches!(*monoid, Monoid::Primitive(_))
                    && stages.is_empty()
                    && base_env.is_empty() =>
            {
                let query_hash = fnv1a(&format!("{plan:?}"));
                let reuse = self.catalog.grown_from(&dataset).and_then(|prev| {
                    cache.fold_partial(&dataset, query_hash).filter(|p| {
                        p.fingerprint == prev.fingerprint
                            && p.rows == prev.prefix_units
                            && p.rows <= nrows
                    })
                });
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
            unnests: walk.unnests,
            stages,
            builds: Vec::new(),
            monoid: *monoid,
            head: head_plan,
            frame_width: walk.layout.len(),
            interner: Arc::clone(&self.ctx.interner),
            base_env,
            pool: self.ctx.pool.clone(),
            morsel_rows: self.opts.morsel_rows,
            fold_seam,
        }))
    }

    /// Lower an accepted plan (see [`pipelinable`]) into sources and spine
    /// stages in one post-order walk; returns the source a scan bound, or
    /// `None` for a join or unnest, which it appends to `walk.stages`. A
    /// scan binds its plugin, works out its touched columns and claims
    /// their frame slots — column data is not read here. A select compiles
    /// its conjuncts onto what is below it: a scan keeps them on its
    /// [`SourceSpec`], a join or unnest on its stage. A join picks its
    /// probe: hash on compilable equi-keys, band sort-probe on a
    /// compilable range predicate, block-nested-loop otherwise (with the
    /// predicate compiled into one fused kernel when possible). An unnest
    /// claims element slots, typed from the schemas of the bindings its
    /// path roots at. Every join's right side is a scan, so the walk meets
    /// the leftmost scan first and every join and unnest sits on the left
    /// spine, bottom-up.
    fn lower(&mut self, plan: &Plan, walk: &mut Lowering) -> Result<Option<usize>> {
        match plan {
            Plan::Scan { dataset, binding } => {
                // The binding re-stats the file on the query's first read
                // of the dataset and hands every later read the same plugin.
                let plugin = self.catalog.plugin(dataset)?;
                let schema = plugin.schema().clone();
                let nrows = plugin.num_units();

                // Touched fields in schema order; whole-record usage touches
                // everything.
                let whole = walk.touched.contains(binding);
                let touched: Vec<usize> = schema
                    .fields()
                    .iter()
                    .enumerate()
                    .filter(|(_, f)| {
                        whole || walk.touched.contains(&format!("{binding}.{}", f.name))
                    })
                    .map(|(i, _)| i)
                    .collect();

                let mut slot_meta = Vec::new();
                for (ti, &col) in touched.iter().enumerate() {
                    let field = &schema.fields()[col];
                    if let Some(st) = SlotType::of_type(&field.ty) {
                        let slot = walk.layout.slot(format!("{binding}.{}", field.name), st);
                        slot_meta.push((ti, slot, st));
                    }
                }
                walk.specs.push(SourceSpec {
                    binding: binding.clone(),
                    dataset: dataset.clone(),
                    nrows,
                    plugin,
                    touched,
                    slot_meta,
                    selects: Vec::new(),
                });
                Ok(Some(walk.specs.len() - 1))
            }
            Plan::Select { input, predicate } => {
                let below = self.lower(input, walk)?;
                // Split `p1 and p2` into separate select steps: kernels
                // compile per conjunct (so the plan optimizer can rank
                // them) and the step chain short-circuits left-to-right
                // exactly like the interpreter's `and`.
                let mut conjuncts = Vec::new();
                split_conjuncts(predicate, &mut conjuncts);
                let steps = conjuncts
                    .iter()
                    .map(|c| self.step(c, &walk.layout))
                    .collect::<Result<Vec<_>>>()?;
                match below {
                    Some(i) => walk.specs[i].selects.extend(steps),
                    None => {
                        let top = walk.stages.last_mut().expect("a stage below");
                        top.steps.list.extend(steps);
                    }
                }
                Ok(below)
            }
            Plan::Join {
                left,
                right,
                predicate,
            } => {
                self.lower(left, walk)?;
                let Some(right_src) = self.lower(right, walk)? else {
                    unreachable!("`pipelinable` accepts only scans as join right sides");
                };
                let lvars = left.bound_vars();
                let rvars = right.bound_vars();
                let numeric = |t: SlotType| matches!(t, SlotType::Int | SlotType::Float);
                let layout = &walk.layout;
                let steps = Steps::new(vec![self.step(predicate, layout)?], true);
                let join = |probe| {
                    let kind = StageKind::Join {
                        right: right_src,
                        probe,
                    };
                    walk.stages.push(Stage {
                        kind,
                        steps,
                        carried: Vec::new(),
                    });
                    Ok(None)
                };

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
                            return join(Probe::Hash(Keys {
                                left: self.compile(&lk_expr, layout)?,
                                right: self.compile(&rk_expr, layout)?,
                                left_ty: lt,
                                right_ty: rt,
                                float_keys,
                            }));
                        }
                    }
                }

                // Strategy 2: band sort-probe on a compilable numeric range
                // comparison between the sides.
                self.stats.theta_pipelines += 1;
                if let Some((lk_expr, rk_expr, op)) =
                    Plan::band_join_keys(predicate, &lvars, &rvars)
                {
                    if let (Some(lt), Some(rt)) = (
                        JitCompiler::try_prepare(&lk_expr, layout),
                        JitCompiler::try_prepare(&rk_expr, layout),
                    ) {
                        if numeric(lt) && numeric(rt) {
                            let keys = Keys {
                                left: self.compile(&lk_expr, layout)?,
                                right: self.compile(&rk_expr, layout)?,
                                left_ty: lt,
                                right_ty: rt,
                                float_keys: lt == SlotType::Float || rt == SlotType::Float,
                            };
                            // `band_join_keys` found the comparison at the
                            // top, or in one conjunct of an `and`.
                            let exact = matches!(
                                predicate,
                                Expr::BinOp(BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge, ..)
                            );
                            return join(Probe::Band { keys, op, exact });
                        }
                    }
                }

                // Strategy 3: block-nested-loop over morsels with the fused
                // predicate kernel.
                join(Probe::Loop)
            }
            Plan::Unnest {
                input,
                binding,
                path,
            } => {
                self.lower(input, walk)?;
                let (elem_ty, src_col) = unnest_elem_type(path, &walk.specs, &walk.unnests);
                // Every slot type frames — including `Str`, whose elements
                // intern at runtime through the lock-guarded shared
                // interner (pre-populated at build time, so the hot loop
                // mostly takes the read-locked lookup).
                let mut slots = Vec::new();
                match (SlotType::of_type(&elem_ty), &elem_ty) {
                    (Some(st), _) if walk.touched.contains(binding) => {
                        slots.push((None, walk.layout.slot(binding.clone(), st), st));
                    }
                    (_, Type::Record(fields)) => {
                        for (name, fty) in fields {
                            let path = format!("{binding}.{name}");
                            if let (Some(st), true) =
                                (SlotType::of_type(fty), walk.touched.contains(&path))
                            {
                                slots.push((Some(name.clone()), walk.layout.slot(path, st), st));
                            }
                        }
                    }
                    _ => {}
                }
                walk.unnests.push(UnnestStage {
                    binding: binding.clone(),
                    path: path.clone(),
                    elem_ty,
                    src_col,
                    slots,
                });
                self.stats.unnest_pipelines += 1;
                walk.stages.push(Stage {
                    kind: StageKind::Unnest(walk.unnests.len() - 1),
                    steps: Steps::new(Vec::new(), false),
                    carried: Vec::new(),
                });
                Ok(None)
            }
            Plan::Reduce { .. } => unreachable!("`pipelinable` declines nested reduces"),
        }
    }

    /// Compile a boolean step (kernel when possible).
    fn step(&mut self, predicate: &Expr, layout: &FrameLayout) -> Result<Step> {
        if JitCompiler::try_prepare(predicate, layout) == Some(SlotType::Bool) {
            let k = self.compile(predicate, layout)?;
            return Ok(Step::Kernel(k, predicate.clone()));
        }
        Ok(Step::Interp(predicate.clone()))
    }

    /// Compile one kernel under the interner lock (string constants intern
    /// into the context's shared table — per-call and private under
    /// `run_jit`, engine-wide and stable across sessions on the resident
    /// path) and tag it with the query's next dense id — kernel ids are the
    /// compile order, the trace layer's per-kernel invocation index.
    fn compile(&mut self, e: &Expr, layout: &FrameLayout) -> Result<CompiledKernel> {
        let k = self
            .ctx
            .interner
            .with_mut(|i| JitCompiler::new().and_then(|c| c.compile(e, layout, i)))?
            .with_id(self.stats.kernels_compiled);
        self.stats.kernels_compiled += 1;
        Ok(k)
    }

    /// Lay out a scan's select chain (see [`Steps`]). When every step
    /// compiled, the chain fuses into one select kernel, ranked: compiled
    /// kernels are pure and total, so any evaluation order keeps the same
    /// rows — cheapest-and-most-selective first. A chain with an
    /// interpreted step keeps syntactic order: interpreted conjuncts can
    /// error, and error order is observable.
    fn fuse_selects(&mut self, selects: &mut Steps, dataset: &str) {
        let Some(kernels) = selects.kernels().filter(|k| k.len() > 1) else {
            return selects.fuse();
        };
        let order = rank_conjuncts(&selects.list, dataset, self.sketch_model());
        self.stats.conjuncts_reordered += order
            .iter()
            .enumerate()
            .filter(|&(pos, &i)| pos != i)
            .count() as u32;
        let fused = SelectKernel::with_order(kernels, &order);
        selects.batch = vec![Batch::Kernels(fused)];
    }

    /// Replay each scan-level conjunct over a small row sample and fold the
    /// outcomes into the cost model's predicate counters — the selectivity
    /// evidence behind conjunct ordering and join-order search on later
    /// queries. Uses the reference interpreter, so the counters reflect the
    /// engine's real predicate semantics (including null behavior); errors
    /// and non-boolean results count as evaluations that did not pass.
    fn observe_select_stats(&mut self, sources: &[Source]) {
        /// Sampled rows per scan — matches `observe_column`'s budget.
        const SAMPLE_ROWS: usize = 64;
        let Some(model) = self.sketch_model() else {
            return;
        };
        for src in sources {
            let sample = src.nrows.min(SAMPLE_ROWS);
            if src.selects.list.is_empty() || sample == 0 {
                continue;
            }
            let mut hits = vec![0u64; src.selects.list.len()];
            let mut env = Bindings::new();
            for row in 0..sample {
                let rec = src
                    .env_fields
                    .iter()
                    .map(|(name, col)| (name.clone(), col[row].clone()));
                env.insert(src.binding.clone(), Value::Record(rec.collect()));
                for (hit, sel) in hits.iter_mut().zip(&src.selects.list) {
                    *hit += matches!(eval(sel.expr(), &env), Ok(Value::Bool(true))) as u64;
                }
            }
            for (sel, hits) in src.selects.list.iter().zip(hits) {
                let predicate = sel.expr().to_string();
                model
                    .sketch()
                    .record_predicate(&src.dataset, &predicate, hits, sample as u64);
            }
        }
    }

    fn plan_head(&mut self, monoid: Monoid, head: &Expr, layout: &FrameLayout) -> HeadPlan {
        // `count` ignores head values entirely when the head is total.
        if monoid == Monoid::Primitive(PrimitiveMonoid::Count)
            && (matches!(head, Expr::Const(_)) || path_of(head).is_some())
        {
            return HeadPlan::CountOnly;
        }
        if JitCompiler::try_prepare(head, layout).is_some() {
            if let Ok(k) = self.compile(head, layout) {
                return HeadPlan::Kernel(k, head.clone());
            }
        }
        if let Expr::Record(fields) = head {
            if matches!(monoid, Monoid::Collection(_))
                && fields
                    .iter()
                    .all(|(_, e)| JitCompiler::try_prepare(e, layout).is_some())
            {
                // All fields or none: a field that fails to compile leaves
                // the whole head interpreted and its siblings uncounted.
                let compiled = self.stats.kernels_compiled;
                let ks = fields
                    .iter()
                    .map(|(n, e)| Ok((n.clone(), self.compile(e, layout)?)))
                    .collect::<Result<Vec<_>>>();
                match ks {
                    Ok(ks) => return HeadPlan::RecordKernels(ks, head.clone()),
                    Err(_) => self.stats.kernels_compiled = compiled,
                }
            }
        }
        HeadPlan::Interp(head.clone())
    }
}

/// The block skip of a scan (see [`ZoneCheck`]): the leading run of its
/// selects that compare a column of its own with an int literal, while
/// `zones` has that column's block summary.
fn zone_check(spec: &SourceSpec, zones: impl Fn(&str) -> Option<Arc<Zones>>) -> Option<ZoneCheck> {
    let blocks = spec.nrows.div_ceil(ZONE_ROWS);
    let mut tests = Vec::new();
    for step in &spec.selects {
        let Expr::BinOp(op, l, r) = step.expr() else {
            break;
        };
        // The column on the left: `lit < p.id` is `p.id > lit`.
        let (op, var, field, lit) = match (&**l, &**r) {
            (Expr::Proj(v, f), Expr::Const(Value::Int(c))) => (*op, v, f, *c),
            (Expr::Const(Value::Int(c)), Expr::Proj(v, f)) => {
                let op = match op {
                    BinOp::Lt => BinOp::Gt,
                    BinOp::Le => BinOp::Ge,
                    BinOp::Gt => BinOp::Lt,
                    BinOp::Ge => BinOp::Le,
                    op => *op,
                };
                (op, v, f, *c)
            }
            _ => break,
        };
        let own = matches!(&**var, Expr::Var(b) if *b == spec.binding);
        let (lo, hi) = match op {
            BinOp::Lt => (Some(i64::MIN), lit.checked_sub(1)),
            BinOp::Le => (Some(i64::MIN), Some(lit)),
            BinOp::Gt => (lit.checked_add(1), Some(i64::MAX)),
            BinOp::Ge => (Some(lit), Some(i64::MAX)),
            BinOp::Eq => (Some(lit), Some(lit)),
            _ => break,
        };
        let Some(zones) = zones(field).filter(|z| own && z.blocks() == blocks) else {
            break;
        };
        // A bound past the ints leaves the range empty.
        let (lo, hi) = match (lo, hi) {
            (Some(lo), Some(hi)) => (lo, hi),
            _ => (1, 0),
        };
        tests.push(ZoneTest { zones, lo, hi });
    }
    (!tests.is_empty()).then(|| ZoneCheck {
        skipped: tests.iter().map(|_| AtomicU64::new(0)).collect(),
        tests,
    })
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
        if let Some(s) = m.sketch().predicate_selectivity(dataset, &e.to_string()) {
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
fn rank_conjuncts(selects: &[Step], dataset: &str, model: Option<&CostModel>) -> Vec<usize> {
    let ranks: Vec<f64> = selects
        .iter()
        .map(|s| {
            let e = s.expr();
            let sel = conjunct_selectivity(e, dataset, model);
            expr_size(e) as f64 / (1.0 - sel).max(1e-3)
        })
        .collect();
    let mut order: Vec<usize> = (0..selects.len()).collect();
    order.sort_by(|&a, &b| ranks[a].total_cmp(&ranks[b]).then(a.cmp(&b)));
    order
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{catalog, jit, plan_of};
    use super::*;
    use crate::pipeline::{run_jit, run_jit_with_stats};

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
    fn fused_selects_compile_into_one_stage() {
        // Two compiled selects on one scan fuse into a SelectKernel; the
        // result is unchanged and no per-tuple interpretation happens.
        let plan = plan_of("for { p <- Patients, p.age > 40, p.age < 70 } yield count p");
        let (v, stats) = run_jit_with_stats(&plan, &catalog(), &JitOptions::default()).unwrap();
        assert_eq!(v, Value::Int(1)); // only age 65 is in (40, 70)
        assert_eq!(stats.fallback_tuples, 0, "{stats:?}");
        assert_eq!(stats.fused_stage_depth, 2, "{stats:?}");
    }
}
