//! Pipeline generation: bind one source per scan, claim frame slots,
//! assemble the operator tree (join strategies, kernels, fused selects),
//! and plan the reduce head.

use super::shape::{collect_paths, Shape};
use super::{
    Band, ExecContext, FoldSeam, HeadPlan, JitOptions, Node, Pipeline, Source, Step, UnnestStage,
};
use crate::catalog::{QueryBinding, SourceProvider};
use crate::stats::ExecStats;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use vida_algebra::lower::left_deepen;
use vida_algebra::Plan;
use vida_jit::compile::path_of;
use vida_jit::{CompiledKernel, FrameLayout, JitCompiler, SelectKernel, SharedInterner, SlotType};
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
    /// the build does — cache probes, raw scans, replica sync, slot
    /// encoding — is execution.
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
        // Bushy join trees rotate into left-deep chains before shape
        // analysis (inner join predicates fuse into the outer join, result
        // and tuple order preserved).
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
        let shape = Shape::of(&input);
        self.compile_end(lower);
        let Some(shape) = shape else {
            return Ok(None);
        };

        // Touched paths, grouped per scanned binding.
        let codegen = self.compile_begin(stage::CODEGEN);
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
        self.compile_end(codegen);
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
                                .map(|v| ty.encode(v, |s| int.intern(s)))
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
        let codegen = self.compile_begin(stage::CODEGEN);
        self.attach_selects(&mut sources, &shape, &layout, &interner)?;
        self.observe_select_stats(&sources, &shape);

        let head_plan = self.plan_head(*monoid, head, &layout, &interner);
        self.compile_end(codegen);

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
                // The binding re-stats the file on the query's first read
                // of the dataset and hands every later read the same plugin.
                let plugin = self.catalog.plugin(dataset)?;
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

    /// Compile a boolean step (kernel when possible).
    fn step(
        &mut self,
        predicate: &Expr,
        layout: &FrameLayout,
        interner: &SharedInterner,
    ) -> Result<Step> {
        if JitCompiler::try_prepare(predicate, layout) == Some(SlotType::Bool) {
            let k = self.compile(predicate, layout, interner)?;
            return Ok(Step::Kernel(k, predicate.clone()));
        }
        Ok(Step::Interp(predicate.clone()))
    }

    /// Compile one kernel under the interner lock (string constants intern
    /// into the shared table) and tag it with the query's next dense id —
    /// kernel ids are the compile order, the trace layer's per-kernel
    /// invocation index.
    fn compile(
        &mut self,
        e: &Expr,
        layout: &FrameLayout,
        interner: &SharedInterner,
    ) -> Result<CompiledKernel> {
        let k = interner
            .with_mut(|i| JitCompiler::new().and_then(|c| c.compile(e, layout, i)))?
            .with_id(self.stats.kernels_compiled);
        self.stats.kernels_compiled += 1;
        Ok(k)
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
                            let left_key = self.compile(&lk_expr, layout, interner)?;
                            let right_key = self.compile(&rk_expr, layout, interner)?;
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
                            let left_key = self.compile(&lk_expr, layout, interner)?;
                            let right_key = self.compile(&rk_expr, layout, interner)?;
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
                        // cheapest-and-most-selective first. The
                        // interpreted `src.selects` path keeps syntactic
                        // order: interpreted conjuncts can error, and error
                        // order is observable.
                        let order = if kernels.len() > 1 {
                            let order = rank_conjuncts(selects, dataset, self.sketch_model());
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
        let Some(model) = self.sketch_model() else {
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
            if let Ok(k) = self.compile(head, layout, interner) {
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
                    .map(|(n, e)| Ok((n.clone(), self.compile(e, layout, interner)?)))
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
