//! The morsel driver: join builds, the fused push loop over the morsel
//! grid, the monoid fold, and the fold-partial cache seam.

use super::join::{encode_key, BuildRows, JoinBuild};
use super::{HeadPlan, Node, Pipeline, Source, Step, Tuple, TupleSink};
use crate::stats::ExecStats;
use std::ops::Range;
use std::sync::Arc;
use vida_cache::FoldPartial;
use vida_jit::frame::decode_output;
use vida_jit::{BatchScratch, CompiledKernel, SlotType};
use vida_lang::eval;
use vida_parallel::{MorselPlan, WorkerPool};
use vida_trace::{stage, QueryTrace};
use vida_types::{CollectionKind, Monoid, Partial, PrimitiveMonoid, Result, Value, VidaError};

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
// 3. Hash joins preserve candidate order: the build rows are the right
//    scan's order (invariant 2), and the one CSR table is laid out
//    serially in that order, so every bucket lists its rows ascending and
//    every probe sees the same candidate set in the same order.

impl Pipeline {
    pub(super) fn execute(self, stats: &mut ExecStats) -> Result<Value> {
        stats.threads = self.pool.threads() as u32;
        // Every join builds a scan of its own, so the sources past the
        // leftmost are the joins, and every join and unnest is a stage on
        // the left spine: scan + probes + unnests + the fold.
        let joins = self.sources.len() - 1;
        stats.fused_stage_depth = (joins + self.unnests.len() + 2) as u32;
        if joins > 0 {
            stats.span_begin(stage::BUILD_SIDE);
        }
        let mut builds = Vec::new();
        self.prepare_builds(&self.root, stats, &mut builds)?;
        if joins > 0 {
            stats.span_end();
        }
        // The walk met the leftmost scan first.
        let nrows = self.sources[0].nrows;
        // A reusable cached prefix partial shrinks the morsel grid to the
        // appended rows (`from = 0` is the ordinary whole-source grid).
        let reuse = self.fold_seam.as_ref().and_then(|s| s.reuse.as_ref());
        let from = reuse.map_or(0, |p| p.rows);
        let plan = MorselPlan::fixed(nrows - from, self.morsel_rows).shifted(from);

        stats.span_begin(stage::FOLD);
        let value = match self.monoid {
            Monoid::Collection(kind) => {
                // Per-morsel head values, concatenated in morsel order (the
                // scan's element sequence), then one canonicalization.
                let items = self.fold_drive(
                    &plan,
                    &builds,
                    stats,
                    |range, ws| {
                        self.drive_rows(range, &builds, ws, Vec::new(), |items, t, ws| {
                            items.push(self.head_value(t, ws)?);
                            Ok(())
                        })
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
            Monoid::Primitive(p) => {
                // Per-morsel typed partials (`i64`/`f64`/`bool`, `avg`'s
                // `(f64, i64)`) folded through `PrimitiveMonoid::step`,
                // which keeps the overflow, promotion and type-error
                // semantics of `Monoid::merge`. A `Value` appears only at
                // the morsel boundary: partials merge in morsel order via
                // `Monoid::merge_partials`, behind a reused cached prefix
                // partial — the prefix plus morsel order over the tail is
                // exactly the whole-source order.
                let m = self.monoid;
                let prefix = self.fold_reuse_partial(stats);
                let vector_source = self.vector_fold_source();
                let merged = self.fold_drive(
                    &plan,
                    &builds,
                    stats,
                    |range, ws| match vector_source {
                        Some(idx) => self.fold_source(idx, p, range, ws),
                        None => self.drive_rows(range, &builds, ws, p.zero(), |acc, t, ws| {
                            p.step(acc, self.head_value(t, ws)?.into())
                        }),
                    },
                    prefix,
                    |acc: Option<Value>, part: Partial| {
                        m.merge_partials(acc.into_iter().chain([part.into_value()]))
                            .map(Some)
                    },
                )?;
                let merged = merged.unwrap_or_else(|| m.zero());
                self.store_fold_partial(&merged);
                m.finalize(merged)?
            }
        };
        stats.span_end();
        Ok(value)
    }

    /// Run `work` over every morsel of `plan` — the morsel's private
    /// partial, with the tuples it folded counted in `actual_rows` — and
    /// fold the partials into `init` in morsel order with `merge`.
    fn fold_drive<P: Send, A>(
        &self,
        plan: &MorselPlan,
        builds: &[JoinBuild],
        stats: &mut ExecStats,
        work: impl Fn(Range<usize>, &mut ExecStats) -> Result<P> + Sync,
        init: A,
        merge: impl FnMut(A, P) -> Result<A>,
    ) -> Result<A> {
        morsel_fold(
            &self.pool,
            plan,
            match builds.is_empty() {
                true => stage::SCAN,
                false => stage::PROBE,
            },
            stats,
            |range, ws| Ok((work(range, ws)?, ws.actual_rows)),
            init,
            merge,
        )
    }

    /// Drive `range` through the fused stage chain a tuple at a time,
    /// pushing every tuple that reaches the fold into `partial`.
    fn drive_rows<P>(
        &self,
        range: Range<usize>,
        builds: &[JoinBuild],
        stats: &mut ExecStats,
        mut partial: P,
        push: impl Fn(&mut P, &Tuple, &mut ExecStats) -> Result<()>,
    ) -> Result<P> {
        self.drive(&self.root, range, builds, stats, &mut |ws, t| {
            ws.actual_rows += 1;
            push(&mut partial, t, ws)
        })?;
        Ok(partial)
    }

    /// The source a primitive fold reads a vector at a time: a scan with
    /// no join or unnest above it, whose selects are fused (or absent) and
    /// whose head is one kernel or no head at all. Anything else folds row
    /// by row: an interpreted select or head may error, and its error
    /// must surface in row order relative to the fold's own.
    fn vector_fold_source(&self) -> Option<usize> {
        let Node::Source(idx) = self.root else {
            return None;
        };
        let s = &self.sources[idx];
        let selects_fused = s.fused_selects.is_some() || s.selects.is_empty();
        let head = matches!(self.head, HeadPlan::Kernel(..) | HeadPlan::CountOnly);
        (selects_fused && head).then_some(idx)
    }

    /// A scan-rooted primitive fold over `rows` of source `idx`, a chunk
    /// at a time: the head kernel runs once over the chunk's selected rows,
    /// and the fold steps through its outputs in a typed loop, in ascending
    /// row order, interleaved with the rows that could not encode, which
    /// take the interpreted selects and head exactly as on the row path.
    /// Row order is the row path's, so float association, overflow and
    /// error order are unchanged.
    fn fold_source(
        &self,
        idx: usize,
        p: PrimitiveMonoid,
        rows: Range<usize>,
        stats: &mut ExecStats,
    ) -> Result<Partial> {
        let s = &self.sources[idx];
        let (mut acc, mut t) = (p.zero(), self.scratch());
        t.valid = false;
        self.scan_chunks(s, rows, stats, |c, base, stats| {
            let head_ty = match &self.head {
                HeadPlan::Kernel(k, _) => {
                    k.call_batch(&c.cols, &c.sel, &mut c.heads, &mut c.scratch);
                    stats.kernel_hits(k.id(), c.sel.len() as u64);
                    Some(k.output())
                }
                _ => None,
            };
            stats.actual_rows += c.sel.len() as u64;
            in_row_order(&c.sel, &c.rest, |run| match run {
                Run::Selected(i) => {
                    let heads = || c.heads[i.clone()].iter();
                    match head_ty {
                        Some(SlotType::Int) => {
                            fold_run(p, &mut acc, heads().map(|&b| Partial::Int(b)))
                        }
                        Some(SlotType::Float) => fold_run(
                            p,
                            &mut acc,
                            heads().map(|&b| Partial::Float(f64::from_bits(b as u64))),
                        ),
                        Some(ty) => fold_run(
                            p,
                            &mut acc,
                            heads().map(|&b| self.decode_bits(b, ty).into()),
                        ),
                        None => fold_run(p, &mut acc, i.clone().map(|_| Partial::Int(1))),
                    }
                }
                Run::Rest(row) => {
                    t.rows[idx] = base + row as usize;
                    if !self.pass_steps(&s.selects, &t, stats)? {
                        return Ok(());
                    }
                    let x = self.head_value(&t, stats)?;
                    stats.actual_rows += 1;
                    p.step(&mut acc, x.into())
                }
            })
        })?;
        Ok(acc)
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
            seam.cache.put_fold_partial(
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

    /// Encode one cell into its slot's bits, `None` when it cannot (null,
    /// type mismatch). `Str` cells intern through the shared interner: safe
    /// from parallel workers because the table is lock-guarded, and a
    /// read-locked lookup once a dataset's strings were seen by an earlier
    /// query.
    #[inline]
    fn encode(&self, ty: SlotType, v: &Value) -> Option<i64> {
        ty.encode(v, |s| self.interner.intern(s))
    }

    /// Decode a kernel result, resolving interned string ids.
    fn decode(&self, k: &CompiledKernel, frame: &[i64]) -> Value {
        self.decode_bits(k.call(frame), k.output())
    }

    fn decode_bits(&self, bits: i64, ty: SlotType) -> Value {
        match ty {
            SlotType::Str => self
                .interner
                .resolve(bits)
                .map(Value::str)
                .unwrap_or(Value::Null),
            ty => decode_output(bits, ty),
        }
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
        stats.fallback_tuples += 1;
        match eval(step.expr(), &self.env_for(t))? {
            Value::Bool(b) => Ok(b),
            other => Err(VidaError::Exec(format!(
                "{context} predicate not boolean: {other}"
            ))),
        }
    }

    /// Does `t` pass every select step, in order? Stops at the first
    /// rejection, like the interpreter's `and`.
    fn pass_steps(&self, steps: &[Step], t: &Tuple, stats: &mut ExecStats) -> Result<bool> {
        for step in steps {
            if !self.apply_step(step, t, stats, "selection")? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The scan stage over `rows` of source `s`, a chunk of at most
    /// [`CHUNK_ROWS`] rows at a time: each slot column of the chunk encodes
    /// into a vector (`Str` cells under one interner read guard), the rows
    /// whose every slot encoded form the selection vector, and the fused
    /// select stage refines it, crediting each conjunct with the rows it
    /// received. `each` then consumes the chunk starting at row `base`:
    /// `sel` holds the rows that passed, `rest` the rows that could not
    /// encode (nulls), which must take the interpreted path.
    fn scan_chunks(
        &self,
        s: &Source,
        rows: Range<usize>,
        stats: &mut ExecStats,
        mut each: impl FnMut(&mut ScanChunk, usize, &mut ExecStats) -> Result<()>,
    ) -> Result<()> {
        let mut c = ScanChunk::new(self.frame_width, s, rows.len().min(CHUNK_ROWS));
        for base in rows.clone().step_by(CHUNK_ROWS) {
            let end = (base + CHUNK_ROWS).min(rows.end);
            let n = end - base;
            c.valid.clear();
            c.valid.resize(n, true);
            for (slot, col, ty) in &s.slot_cols {
                let out = &mut c.cols[*slot][..n];
                ty.encode_cells(&col[base..end], &self.interner, out, &mut c.valid);
            }
            c.sel.clear();
            c.rest.clear();
            match c.valid.contains(&false) {
                false => c.sel.extend(0..n as u32),
                true => {
                    for (row, &ok) in c.valid.iter().enumerate() {
                        match ok {
                            true => c.sel.push(row as u32),
                            false => c.rest.push(row as u32),
                        }
                    }
                }
            }
            if let Some(fused) = &s.fused_selects {
                fused.refine(&c.cols, &mut c.sel, &mut c.scratch, |id, n| {
                    stats.kernel_hits(id, n)
                });
            }
            each(&mut c, base, stats)?;
        }
        Ok(())
    }

    /// Scan-side tuple production over a contiguous row range, pushed one
    /// tuple at a time into `sink` — the head of every fused pipeline that
    /// is not a vector fold. The scan stage ([`Pipeline::scan_chunks`])
    /// encodes and selects a chunk at a time; then, in row order, each
    /// selected row fills the scratch tuple `t` from the chunk's vectors
    /// and goes to the sink, and each row that could not encode walks the
    /// selects through the interpreter first. A scan whose selects did not
    /// all compile walks them per row on valid frames too.
    fn push_source(
        &self,
        idx: usize,
        rows: Range<usize>,
        t: &mut Tuple,
        stats: &mut ExecStats,
        sink: TupleSink<'_>,
    ) -> Result<()> {
        let s = &self.sources[idx];
        let fused = s.fused_selects.is_some();
        self.scan_chunks(s, rows, stats, |c, base, stats| {
            let mut push = |row: u32, valid: bool, stats: &mut ExecStats| {
                for (slot, _, _) in &s.slot_cols {
                    t.frame[*slot] = c.cols[*slot][row as usize];
                }
                t.valid = valid;
                t.rows[idx] = base + row as usize;
                if (valid && fused) || self.pass_steps(&s.selects, t, stats)? {
                    sink(stats, t)?;
                }
                Ok(())
            };
            in_row_order(&c.sel, &c.rest, |run| match run {
                Run::Selected(i) => c.sel[i].iter().try_for_each(|&row| push(row, true, stats)),
                Run::Rest(row) => push(row, false, stats),
            })
        })
    }

    /// Drive the push loop: stream `range` rows of the pipeline's leftmost
    /// scan through every fused stage, handing each surviving tuple to
    /// `sink`. Each operator arm wraps `sink` in its own consumer closure
    /// around one scratch tuple (and a probe's candidate list), so a
    /// select→unnest→probe→fold chain executes as one loop nest with no
    /// intermediate buffer and no per-row allocation; the join build sides
    /// arrive pre-materialized in `builds` (the only pipeline breakers).
    fn drive(
        &self,
        node: &Node,
        range: Range<usize>,
        builds: &[JoinBuild],
        stats: &mut ExecStats,
        sink: TupleSink<'_>,
    ) -> Result<()> {
        let (mut out, mut scratch) = (self.scratch(), Vec::new());
        match node {
            Node::Source(idx) => self.push_source(*idx, range, &mut out, stats, sink),
            Node::Unnest {
                input,
                stage,
                selects,
            } => self.drive(input, range, builds, stats, &mut |stats, t| {
                self.unnest_tuple(*stage, selects, t, &mut out, stats, sink)
            }),
            Node::HashJoin {
                left,
                right,
                left_key,
                left_key_ty,
                float_keys,
                predicate,
                selects,
                ..
            } => {
                let jb = &builds[*right - 1];
                self.drive(left, range, builds, stats, &mut |stats, lt| {
                    if lt.valid {
                        stats.kernel_hit(left_key.id());
                    }
                    let c =
                        jb.hash_candidates(lt, left_key, *left_key_ty, *float_keys, &mut scratch);
                    self.probe_pairs(lt, c, jb, predicate, selects, &mut out, stats, sink)
                })
            }
            Node::ThetaJoin {
                left,
                right,
                band,
                predicate,
                selects,
            } => {
                let jb = &builds[*right - 1];
                self.drive(left, range, builds, stats, &mut |stats, lt| {
                    if let (Some(b), true, true) = (band, lt.valid, jb.index.is_some()) {
                        stats.kernel_hit(b.left_key.id());
                    }
                    let c = jb.theta_candidates(lt, band.as_ref(), &mut scratch);
                    self.probe_pairs(lt, c, jb, predicate, selects, &mut out, stats, sink)
                })
            }
        }
    }

    /// Materialize the build side of every join in the tree, bottom-up: the
    /// build of source `right` lands at `right - 1`. These are the pipeline
    /// breakers of push execution: each right side scans into flat build
    /// rows once, morsel by morsel, then lays out one CSR bucket table or
    /// sorts into a band index on the coordinator. Bucket order is build
    /// order, so every thread count probes identical candidate sets.
    fn prepare_builds<'p>(
        &'p self,
        node: &Node,
        stats: &mut ExecStats,
        builds: &mut Vec<JoinBuild<'p>>,
    ) -> Result<()> {
        let (right, jb) = match node {
            Node::Source(_) => return Ok(()),
            Node::Unnest { input, .. } => return self.prepare_builds(input, stats, builds),
            Node::HashJoin {
                left,
                right,
                right_key,
                right_key_ty,
                float_keys,
                ..
            } => {
                self.prepare_builds(left, stats, builds)?;
                let key = Some((right_key, *right_key_ty, *float_keys));
                let rows = self.build_rows(*right, key, stats)?;
                (right, JoinBuild::hash(rows))
            }
            Node::ThetaJoin {
                left, right, band, ..
            } => {
                self.prepare_builds(left, stats, builds)?;
                let key = band
                    .as_ref()
                    .map(|b| (&b.right_key, b.right_key_ty, b.float_keys));
                let rows = self.build_rows(*right, key, stats)?;
                (right, JoinBuild::theta(rows, band.as_ref()))
            }
        };
        debug_assert_eq!(builds.len(), *right - 1, "builds follow the walk order");
        builds.push(jb);
        Ok(())
    }

    /// Build-side scan, morsel by morsel: each surviving right tuple
    /// appends its slots, validity, source row and — when the join has a
    /// build key kernel — its canonical key to the morsel's chunk; chunks
    /// concatenate in morsel order, so the rows are the source's scan order
    /// at every worker count.
    fn build_rows(
        &self,
        idx: usize,
        key: Option<(&CompiledKernel, SlotType, bool)>,
        stats: &mut ExecStats,
    ) -> Result<BuildRows<'_>> {
        let s = &self.sources[idx];
        u32::try_from(s.nrows).map_err(|_| VidaError::Exec("build side over 2^32 rows".into()))?;
        let plan = MorselPlan::fixed(s.nrows, self.morsel_rows);
        morsel_fold(
            &self.pool,
            &plan,
            stage::BUILD_SIDE,
            stats,
            |range, ws| {
                let mut out = BuildRows::new(idx, &s.slots, range.len());
                self.push_source(idx, range, &mut self.scratch(), ws, &mut |ws, t| {
                    let key = key.map(|(k, ty, float_keys)| match t.valid {
                        true => {
                            ws.kernel_hit(k.id());
                            encode_key(k.call(&t.frame), ty, float_keys)
                        }
                        false => 0,
                    });
                    out.push(t, key);
                    Ok(())
                })?;
                let n = out.len() as u64;
                Ok((out, n))
            },
            BuildRows::new(idx, &s.slots, 0),
            |mut all, chunk| {
                all.append(chunk);
                Ok(all)
            },
        )
    }

    /// Emit the surviving join pairs of one probe tuple against its
    /// candidate build rows, pushing each straight into `sink`. The probe
    /// copies the left tuple into its scratch tuple once; per candidate it
    /// writes only the right slots, and the predicate runs before anything
    /// is forwarded.
    #[allow(clippy::too_many_arguments)]
    fn probe_pairs(
        &self,
        lt: &Tuple,
        candidates: &[u32],
        jb: &JoinBuild,
        predicate: &Step,
        selects: &[Step],
        out: &mut Tuple,
        stats: &mut ExecStats,
        sink: TupleSink<'_>,
    ) -> Result<()> {
        out.copy_from(lt);
        'pairs: for &ri in candidates {
            jb.fill(ri as usize, lt.valid, out);
            if !self.apply_step(predicate, out, stats, "join")? {
                continue;
            }
            for sel in selects {
                if !self.apply_step(sel, out, stats, "selection")? {
                    continue 'pairs;
                }
            }
            sink(stats, out)?;
        }
        Ok(())
    }

    /// Flatten one input tuple through an unnest stage: one output tuple
    /// per collection element in the stage's scratch tuple `out` (input
    /// copied once, then only the element slots and index written per
    /// element), stage selects applied, survivors pushed into `sink`.
    fn unnest_tuple(
        &self,
        stage: usize,
        selects: &[Step],
        t: &Tuple,
        out: &mut Tuple,
        stats: &mut ExecStats,
        sink: TupleSink<'_>,
    ) -> Result<()> {
        let u = &self.unnests[stage];
        out.copy_from(t);
        let evaluated;
        let coll: &Value = match u.src_col {
            Some((src, col)) => &self.sources[src].env_fields[col].1[t.rows[src]],
            None => {
                // Interpreted path: the stage keeps the collection, which
                // downstream fallback bindings read their element from.
                evaluated = Arc::new(eval(&u.path, &self.env_for(t))?);
                out.elems[stage].1 = Some(Arc::clone(&evaluated));
                &evaluated
            }
        };
        let items = coll.elements().ok_or_else(|| {
            VidaError::Exec(format!("unnest path {} produced non-collection", u.path))
        })?;
        'items: for (i, item) in items.iter().enumerate() {
            out.valid = t.valid;
            for (field, slot, ty) in &u.slots {
                let v = match field {
                    None => Some(item),
                    Some(f) => item.field(f),
                };
                match v.and_then(|v| self.encode(*ty, v)) {
                    Some(bits) => out.frame[*slot] = bits,
                    None => out.valid = false,
                }
            }
            out.elems[stage].0 = i;
            for sel in selects {
                if !self.apply_step(sel, out, stats, "selection")? {
                    continue 'items;
                }
            }
            sink(stats, out)?;
        }
        Ok(())
    }
}

/// Rows per vector of the scan stage. A morsel's rows are encoded,
/// selected and folded this many at a time, so the vectors stay in cache
/// whatever the morsel size.
const CHUNK_ROWS: usize = 1024;

/// The vectors of one scan chunk, allocated once per morsel and
/// overwritten chunk after chunk.
struct ScanChunk {
    /// Encoded slot columns indexed by frame slot: `CHUNK_ROWS` long for
    /// the scanned source's slots, empty for every other slot.
    cols: Vec<Vec<i64>>,
    /// Per chunk row: did every slot encode?
    valid: Vec<bool>,
    /// Chunk rows that encoded and passed the fused selects, ascending.
    sel: Vec<u32>,
    /// Chunk rows that could not encode, ascending.
    rest: Vec<u32>,
    /// Head kernel outputs, one per `sel` row.
    heads: Vec<i64>,
    scratch: BatchScratch,
}

impl ScanChunk {
    fn new(frame_width: usize, s: &Source, rows: usize) -> Self {
        let mut cols = vec![Vec::new(); frame_width];
        for (slot, _, _) in &s.slot_cols {
            cols[*slot] = vec![0; rows];
        }
        ScanChunk {
            cols,
            valid: Vec::with_capacity(rows),
            sel: Vec::with_capacity(rows),
            rest: Vec::new(),
            heads: Vec::new(),
            scratch: BatchScratch::default(),
        }
    }
}

/// Step `acc` through `xs` in order — a typed loop over one run of head
/// outputs. The accumulator is held in a local for the run's length, so
/// it can stay in registers instead of going through `acc` every step.
#[inline]
fn fold_run(
    p: PrimitiveMonoid,
    acc: &mut Partial,
    xs: impl Iterator<Item = Partial>,
) -> Result<()> {
    let mut local = std::mem::take(acc);
    for x in xs {
        p.step(&mut local, x)?;
    }
    *acc = local;
    Ok(())
}

/// A stretch of one chunk's rows in ascending order: a run of selected
/// rows (`sel[i]` for `i` in the range), or one row that could not encode.
enum Run {
    Selected(Range<usize>),
    Rest(u32),
}

/// Visit the rows of `sel` and `rest` (both ascending, disjoint) in one
/// ascending sequence, as runs of selected rows between the rows of `rest`.
fn in_row_order(sel: &[u32], rest: &[u32], mut f: impl FnMut(Run) -> Result<()>) -> Result<()> {
    let mut from = 0;
    for &row in rest {
        let to = from + sel[from..].partition_point(|&r| r < row);
        if from < to {
            f(Run::Selected(from..to))?;
        }
        f(Run::Rest(row))?;
        from = to;
    }
    match from < sel.len() {
        true => f(Run::Selected(from..sel.len())),
        false => Ok(()),
    }
}

/// The one way a phase runs on the pool: `work` processes each morsel of
/// `plan` on scratch stats of its own, inside a `stage` span on the
/// worker's track (`worker + 1`; track 0 is the coordinator) that carries
/// the tuple count `work` reports and 1 morsel. `merge` folds the partials
/// into `init` in morsel order — absorbing each morsel's stats and spans
/// into `stats` alongside — so results, counters, and traces are the same
/// at every worker count.
pub(super) fn morsel_fold<P: Send, A>(
    pool: &WorkerPool,
    plan: &MorselPlan,
    stage: &'static str,
    stats: &mut ExecStats,
    work: impl Fn(Range<usize>, &mut ExecStats) -> Result<(P, u64)> + Sync,
    init: A,
    mut merge: impl FnMut(A, P) -> Result<A>,
) -> Result<A> {
    stats.morsels += plan.len() as u64;
    let epoch = stats.trace_epoch();
    pool.fold_morsels(
        plan.len(),
        |w, m| {
            let mut ws = ExecStats::default();
            if let Some(e) = epoch {
                ws.trace = Some(Box::new(QueryTrace::with_epoch(w as u32 + 1, e)));
            }
            ws.span_begin(stage);
            let (partial, tuples) = work(plan.range(m), &mut ws)?;
            ws.span_end_counted(tuples, 1);
            Ok::<_, VidaError>((partial, ws))
        },
        init,
        |acc, (partial, ws)| {
            stats.absorb_worker(ws);
            merge(acc, partial)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{catalog, jit, nested_catalog, plan_of};
    use super::*;
    use crate::catalog::{MemoryCatalog, SourceProvider};
    use crate::pipeline::{run_jit, run_jit_with_stats, JitOptions};
    use vida_types::{Schema, Type};

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
    fn string_head_decodes_through_interner() {
        let v = jit("for { p <- Patients, p.age > 60 } yield set p.city");
        assert_eq!(v.elements().unwrap(), &[Value::str("geneva")]);
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

    /// `Str` slot columns encode inside the morsel grid, where workers
    /// intern strings the engine has not seen yet. On a fresh engine the
    /// first run (strings interned by the workers) and the second (all
    /// hits) must both equal the interpreter at every thread count, and
    /// exactly the null cells must take the fallback.
    #[test]
    fn str_slots_encode_inside_the_grid() {
        const NULLS: u64 = 2;
        let cat = MemoryCatalog::new();
        let cities = ["geneva", "bern", "lausanne", "geneva", "bern"];
        let p: Vec<Value> = (0..12i64)
            .map(|i| {
                let city = match i {
                    4 | 9 => Value::Null,
                    _ => Value::str(cities[i as usize % cities.len()]),
                };
                Value::record([("id", Value::Int(i)), ("city", city)])
            })
            .collect();
        let p_schema = [("id", Type::Int), ("city", Type::Str)];
        cat.register_records("P", Schema::from_pairs(p_schema), &p)
            .unwrap();
        let c: Vec<Value> = [("bern", 1), ("geneva", 2), ("zurich", 3)]
            .into_iter()
            .map(|(city, zone)| {
                Value::record([("city", Value::str(city)), ("zone", Value::Int(zone))])
            })
            .collect();
        let c_schema = [("city", Type::Str), ("zone", Type::Int)];
        cat.register_records("C", Schema::from_pairs(c_schema), &c)
            .unwrap();
        let cat = Arc::new(cat);
        // (query, fallback tuples): a null city fails to encode once per
        // row in a select or head, and a null probe row meets each of the
        // three build rows in the interpreter.
        let queries = [
            ("for { p <- P, p.city = \"geneva\" } yield count p", NULLS),
            ("for { p <- P } yield set p.city", NULLS),
            (
                "for { p <- P, c <- C, p.city = c.city } yield sum c.zone",
                NULLS * 3,
            ),
        ];
        for (q, fallbacks) in queries {
            let plan = plan_of(q);
            let oracle = crate::volcano::run_volcano(&plan, cat.as_ref()).unwrap();
            for threads in [1usize, 2, 8] {
                let opts = JitOptions {
                    threads,
                    morsel_rows: 1,
                    ..Default::default()
                };
                let engine = crate::Engine::new(Arc::clone(&cat) as _, opts);
                for run in ["first", "second"] {
                    let (v, stats) = engine.execute_with_stats(&plan).unwrap();
                    assert_eq!(v, oracle, "{q}: {run} run at {threads} threads");
                    assert_eq!(stats.fallback_tuples, fallbacks, "{q}: {run} run");
                }
            }
        }
    }

    #[test]
    fn push_loop_fuses_every_covered_shape() {
        // The push loop must fuse every covered shape end to end: scans,
        // joins (build sides are breakers, not stages), unnests, selects,
        // every monoid.
        let cat = catalog();
        let nested = nested_catalog();
        nested.register(cat.plugin("Patients").unwrap());
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
            (
                &nested,
                "for { r <- Regions, v <- r.voxels, p <- Patients, p.id = r.id } yield sum v",
                4,
            ),
            (
                &cat,
                "for { p <- Patients, g <- Genetics, q <- Patients, p.id = g.id, g.id = q.id } \
                 yield count p",
                4,
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
}
