//! The morsel driver: join builds, then one chunk pipeline over the morsel
//! grid — the leftmost scan, the spine's joins and unnests, the fold — and
//! the fold-partial cache seam.

use super::join::{encode_key, merge_ascending, BuildCols, JoinBuild};
use super::{Batch, HeadPlan, Pipeline, Probe, Source, StageKind, Step, Steps};
use crate::stats::ExecStats;
use std::mem::take;
use std::ops::Range;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use vida_cache::FoldPartial;
use vida_jit::frame::decode_output;
use vida_jit::{BatchScratch, CompiledKernel, SlotType};
use vida_lang::{eval, Bindings};
use vida_parallel::{MorselPlan, WorkerPool};
use vida_trace::{stage, QueryTrace};
use vida_types::{CollectionKind, Monoid, Partial, PrimitiveMonoid, Result, Value, VidaError};

// One morsel driver runs the chunk pipeline at every worker count: join
// build sides materialize first (the pipeline breakers), then the leftmost
// scan's rows split into morsels and each morsel runs through the whole
// spine, a chunk at a time, into a private partial fold. Three invariants
// keep every thread count result-identical:
//
// 1. Morsel grids depend only on the leftmost scan's row count (and the
//    `morsel_rows` knob), never on the worker count, so the partial-result
//    sequence is fixed.
// 2. Per-morsel partials merge — and collection chunks concatenate — in
//    morsel order (`WorkerPool::fold_morsels`), so element order is the
//    scan order and float folds associate the same way everywhere.
// 3. Every stage keeps row order: a join lists each input row's pairs in
//    ascending build order (the build rows are the right scan's order, by
//    invariant 2, and the one CSR table and band index are laid out
//    serially in that order), an unnest each row's elements in collection
//    order, and a chunk's rows that take the interpreter stay in their
//    place.

impl Pipeline {
    pub(super) fn execute(mut self, stats: &mut ExecStats) -> Result<Value> {
        stats.threads = self.pool.threads() as u32;
        // The spine is the scan, its joins and unnests, and the fold.
        stats.fused_stage_depth = (self.stages.len() + 2) as u32;
        // Every join builds a scan of its own: the sources past the
        // leftmost.
        let joins = self.sources.len() > 1;
        if joins {
            stats.span_begin(stage::BUILD_SIDE);
        }
        self.builds = self.prepare_builds(stats)?;
        if joins {
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
                let items = self.fold_spine(&plan, stats, Vec::new(), |mut all, acc| {
                    all.extend(acc.items);
                    Ok(all)
                })?;
                match kind {
                    CollectionKind::Set => Value::set(items),
                    k => Value::Collection(k, items),
                }
            }
            Monoid::Primitive(_) => {
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
                let merged = self.fold_spine(&plan, stats, prefix, |acc, part| {
                    m.merge_partials(acc.into_iter().chain([part.partial.into_value()]))
                        .map(Some)
                })?;
                let merged = merged.unwrap_or_else(|| m.zero());
                self.store_fold_partial(&merged);
                m.finalize(merged)?
            }
        };
        stats.span_end();
        self.report_skips(stats);
        Ok(value)
    }

    /// Add the rows each source's block skip refuted to `rows_skipped`,
    /// and give the trace one decision line per source.
    fn report_skips(&self, stats: &mut ExecStats) {
        for s in &self.sources {
            let (binding, dataset) = (&s.binding, &s.dataset);
            let Some(z) = &s.zone else {
                stats.trace_note(|| {
                    format!(
                        "block skip {binding} <- {dataset}: \
                         no leading int-literal select on a summarized column"
                    )
                });
                continue;
            };
            for (step, skipped) in s.selects.list.iter().zip(&z.skipped) {
                let rows = skipped.load(Relaxed);
                stats.rows_skipped += rows;
                stats.trace_note(|| {
                    let select = step.expr();
                    format!(
                        "block skip {binding} <- {dataset}: {select} refuted {rows} of {} rows",
                        s.nrows
                    )
                });
            }
        }
    }

    /// Drive every morsel of `plan` through the spine — its private
    /// partial, with the rows it folded counted in `actual_rows` — on the
    /// executing worker's buffers, and fold the partials into `init` in
    /// morsel order with `merge`.
    fn fold_spine<A>(
        &self,
        plan: &MorselPlan,
        stats: &mut ExecStats,
        init: A,
        merge: impl FnMut(A, Acc) -> Result<A>,
    ) -> Result<A> {
        morsel_fold(
            &self.pool,
            plan,
            match self.builds.is_empty() {
                true => stage::SCAN,
                false => stage::PROBE,
            },
            stats,
            || self.buffers(),
            |w, range, ws| Ok((self.run_morsel(range, w, ws)?, ws.actual_rows)),
            init,
            merge,
        )
    }

    /// One worker's buffers for the spine: the scan's, one per stage, and
    /// the fold's.
    fn buffers(&self) -> Vec<Buf> {
        let mut bufs = vec![Buf::scan(self.frame_width, &self.sources[0])];
        bufs.extend((0..=self.stages.len()).map(|_| Buf::new(self.frame_width)));
        bufs
    }

    /// Run `rows` of the leftmost scan through the spine into the fold, a
    /// chunk at a time, on the worker's buffers `w`; the morsel's partial.
    fn run_morsel(&self, rows: Range<usize>, w: &mut [Buf], stats: &mut ExecStats) -> Result<Acc> {
        let (scan, bufs) = w.split_first_mut().expect("a scan buffer");
        if let Monoid::Primitive(p) = self.monoid {
            bufs.last_mut().expect("a fold buffer").acc.partial = p.zero();
        }
        let selects = &self.sources[0].selects;
        self.scan_chunks(0, rows, scan, stats, |buf, stats| {
            let (chunk, scratch) = (&mut buf.chunk, &mut buf.scratch);
            self.emit(Origin::Scan(0), chunk, scratch, selects, bufs, stats)
        })?;
        Ok(take(&mut bufs.last_mut().expect("a fold buffer").acc))
    }

    /// Narrow chunk `out` — made by `origin` — to the rows that pass
    /// `steps`, and hand them to the rest of the spine: the stages whose
    /// buffers are `bufs`, then the fold. A step that fails at row *r*
    /// hands the rows before *r* on first, then returns its error, so the
    /// first error in row order wins, as in the interpreter.
    fn emit(
        &self,
        origin: Origin,
        out: &mut Chunk,
        scratch: &mut BatchScratch,
        steps: &Steps,
        bufs: &mut [Buf],
        stats: &mut ExecStats,
    ) -> Result<()> {
        let (mut sel, mut rest) = (take(&mut out.sel), take(&mut out.rest));
        let c = Chain { chunk: out, origin };
        let failed = self.filter(steps, &c, &mut sel, &mut rest, scratch, stats);
        (out.sel, out.rest) = (sel, rest);
        if !out.sel.is_empty() || !out.rest.is_empty() {
            self.push(&Chain { chunk: out, origin }, bufs, stats)?;
        }
        failed.map_or(Ok(()), Err)
    }

    /// Hand chunk `c` to the next stage of the spine, whose buffer leads
    /// `bufs` — or, past the last stage, to the fold.
    fn push(&self, c: &Chain, bufs: &mut [Buf], stats: &mut ExecStats) -> Result<()> {
        let (buf, below) = bufs
            .split_first_mut()
            .expect("the fold's buffer ends the list");
        let k = match c.origin {
            Origin::Scan(_) => 0,
            Origin::Stage(k, _) => k + 1,
        };
        let origin = Origin::Stage(k, c);
        match self.stages.get(k).map(|s| &s.kind) {
            None => self.fold_chunk(c, buf, stats),
            Some(StageKind::Join { .. }) => self.probe(origin, buf, below, stats),
            Some(StageKind::Unnest(_)) => self.unnest(origin, buf, below, stats),
        }
    }

    /// Narrow the rows of chunk `c` — its valid rows `sel` and the rows
    /// that could not encode `rest`, each ascending — to those that pass
    /// every step of `steps`, in order. Valid rows take the batch form:
    /// each compiled run refines `sel`, crediting every kernel with the
    /// rows it received, and each interpreted step evaluates the remaining
    /// rows in row order. Rows in `rest` walk every step through the
    /// interpreter. Returns the error of the first row, in row order, that
    /// failed a step, with `sel` and `rest` cut to the rows before it.
    fn filter(
        &self,
        steps: &Steps,
        c: &Chain,
        sel: &mut Vec<u32>,
        rest: &mut Vec<u32>,
        scratch: &mut BatchScratch,
        stats: &mut ExecStats,
    ) -> Option<VidaError> {
        let mut failed = None;
        for batch in &steps.batch {
            match batch {
                Batch::Kernels(k) => k.refine(&c.chunk.cols, sel, scratch, |id, n| {
                    stats.kernel_hits(id, n)
                }),
                Batch::Interp(i) => retain(sel, &mut failed, |row| {
                    self.interpret(steps, *i, c, row, stats)
                }),
            }
        }
        retain(rest, &mut failed, |row| {
            for i in 0..steps.list.len() {
                if !self.interpret(steps, i, c, row, stats)? {
                    return Ok(false);
                }
            }
            Ok(true)
        });
        let (row, e) = failed?;
        sel.truncate(sel.partition_point(|&r| r < row));
        Some(e)
    }

    /// Step `i` of `steps` on row `row` of chunk `c`, through the
    /// interpreter over the row's rebuilt bindings.
    fn interpret(
        &self,
        steps: &Steps,
        i: usize,
        c: &Chain,
        row: u32,
        stats: &mut ExecStats,
    ) -> Result<bool> {
        stats.fallback_tuples += 1;
        match eval(steps.list[i].expr(), &self.env_for(c, row))? {
            Value::Bool(b) => Ok(b),
            other => {
                let context = match steps.join && i == 0 {
                    true => "join",
                    false => "selection",
                };
                Err(VidaError::Exec(format!(
                    "{context} predicate not boolean: {other}"
                )))
            }
        }
    }

    /// A join stage over chunk `c` (`origin` is `Stage(k, c)`). Each
    /// surviving input row pairs, in row order, with its candidate build
    /// rows, ascending: its left key's hash bucket (the key kernel runs
    /// over `sel` and the keys look up their buckets in one batch), its
    /// band key's range (one binary search per row), or every build row (a
    /// block-nested loop). A row that could not encode pairs with every
    /// build row, and loose build rows pair in their place; those pairs
    /// take the interpreter. The pairs buffer in `buf` and flush (see
    /// [`Pipeline::flush`]) whenever they reach [`CHUNK_ROWS`] and at the
    /// end of the chunk. A `count` fold right over a band join whose
    /// predicate is the band comparison, over a build without loose rows,
    /// expands no valid row's pairs: each pair of a range passes, so the
    /// row adds its range's length.
    fn probe(
        &self,
        origin: Origin,
        buf: &mut Buf,
        bufs: &mut [Buf],
        stats: &mut ExecStats,
    ) -> Result<()> {
        let Origin::Stage(k, c) = origin else {
            unreachable!("a join takes its input from the spine")
        };
        let stage = &self.stages[k];
        let StageKind::Join { right, probe } = &stage.kind else {
            unreachable!("stage {k} is a join")
        };
        let jb = &self.builds[right - 1];
        let Buf {
            chunk: out,
            scratch,
            keys,
            ids,
            pending,
            at,
            kept,
            ..
        } = buf;
        let (sel, rest) = (&c.chunk.sel[..], &c.chunk.rest[..]);
        if let Some(key) = probe.keys() {
            key.left.call_batch(&c.chunk.cols, sel, keys, scratch);
            stats.kernel_hits(key.left.id(), sel.len() as u64);
            for bits in keys.iter_mut() {
                *bits = encode_key(*bits, key.left_ty, key.float_keys);
            }
        }
        if let Probe::Hash(_) = probe {
            jb.lookup_batch(keys, ids, pending, at);
        }
        let count = match (probe, &stage.steps.list[..]) {
            (Probe::Band { exact: true, .. }, [Step::Kernel(k, _)])
                if bufs.len() == 1
                    && matches!(self.head, HeadPlan::CountOnly)
                    && jb.loose().is_empty() =>
            {
                Some(k)
            }
            _ => None,
        };
        let (loose, index) = (jb.loose(), jb.index.as_ref());
        let mut flush = |out: &mut Chunk, bufs: &mut [Buf], stats: &mut ExecStats| {
            self.flush(origin, Some(jb), out, scratch, bufs, stats)
        };
        in_row_order(
            sel,
            rest,
            |&r| r,
            |run| {
                let i = match run {
                    Run::Selected(i) => i,
                    Run::Rest(&row) => {
                        let sink = &mut |out: &mut Chunk| flush(out, bufs, stats);
                        return out.pair(row, jb.all(), false, sink);
                    }
                };
                let rows = sel[i.clone()].iter().copied();
                if let Some(predicate) = count {
                    // The rows before these go first. Credit the predicate
                    // kernel with the pairs it would have received.
                    flush(out, bufs, stats)?;
                    let index = index.expect("a band join builds a band index");
                    let n: usize = keys[i].iter().map(|&k| index.range(k).len()).sum();
                    stats.kernel_hits(predicate.id(), n as u64);
                    stats.actual_rows += n as u64;
                    return count_rows(&mut bufs[0].acc.partial, n);
                }
                let sink = &mut |out: &mut Chunk| flush(out, bufs, stats);
                match probe {
                    Probe::Hash(_) => {
                        for (row, j) in rows.zip(i) {
                            let (at, n) = jb.bucket_span(ids[j]);
                            if n <= 1 && loose.is_empty() && out.parent.len() < CHUNK_ROWS {
                                // At most one match: append the pair and keep it
                                // only if there is a match, with no branch on
                                // that.
                                out.push_first(row, jb.item(at), n);
                                continue;
                            }
                            out.expand(row, jb.items(at, n), loose, sink)?;
                        }
                        Ok(())
                    }
                    Probe::Band { .. } => {
                        let index = index.expect("a band join builds a band index");
                        for (row, &key) in rows.zip(&keys[i]) {
                            let build = index.ascending(index.range(key), kept);
                            out.expand(row, build, loose, sink)?;
                        }
                        Ok(())
                    }
                    Probe::Loop => rows
                        .into_iter()
                        .try_for_each(|row| out.expand(row, jb.all(), loose, sink)),
                }
            },
        )?;
        flush(out, bufs, stats)
    }

    /// An unnest stage over chunk `c` (`origin` is `Stage(k, c)`). Each
    /// surviving input row expands, in row order, into one row per element
    /// of its collection — read straight from a materialized column, or
    /// evaluated by the interpreter — whose element slots encode as it is
    /// appended; the input row's slots are gathered at flush (see
    /// [`Pipeline::flush`]). An input row whose collection fails to
    /// evaluate, or is no collection, hands the rows before it on first,
    /// then returns its error.
    fn unnest(
        &self,
        origin: Origin,
        buf: &mut Buf,
        bufs: &mut [Buf],
        stats: &mut ExecStats,
    ) -> Result<()> {
        let Origin::Stage(k, c) = origin else {
            unreachable!("an unnest takes its input from the spine")
        };
        let StageKind::Unnest(u) = self.stages[k].kind else {
            unreachable!("stage {k} is an unnest")
        };
        let u = &self.unnests[u];
        let Buf {
            chunk: out,
            scratch,
            ..
        } = buf;
        let mut flush = |out: &mut Chunk, bufs: &mut [Buf], stats: &mut ExecStats| {
            self.flush(origin, None, out, scratch, bufs, stats)
        };
        in_row_order(
            &c.chunk.sel,
            &c.chunk.rest,
            |&r| r,
            |run| {
                let (rows, valid) = match run {
                    Run::Selected(i) => (&c.chunk.sel[i], true),
                    Run::Rest(row) => (std::slice::from_ref(row), false),
                };
                for &row in rows {
                    // The interpreter's collection stays with the rows, which
                    // rebuild their bindings from it.
                    let evaluated = match u.src_col {
                        Some(_) => None,
                        None => match eval(&u.path, &self.env_for(c, row)) {
                            Ok(coll) => Some(Arc::new(coll)),
                            Err(e) => return flush(out, bufs, stats).and(Err(e)),
                        },
                    };
                    let coll = match (&evaluated, u.src_col) {
                        (Some(coll), _) => coll,
                        (None, Some((src, col))) => {
                            let at = self.source_row(c, row, src);
                            &self.sources[src].env_fields[col].1[at.expect("a bound source")]
                        }
                        (None, None) => unreachable!("an unnest reads a column or evaluates"),
                    };
                    let Some(items) = coll.elements() else {
                        let e = format!("unnest path {} produced non-collection", u.path);
                        return flush(out, bufs, stats).and(Err(VidaError::Exec(e)));
                    };
                    for (i, item) in items.iter().enumerate() {
                        if out.parent.len() >= CHUNK_ROWS {
                            flush(out, bufs, stats)?;
                        }
                        let mut ok = valid;
                        for (field, slot, ty) in &u.slots {
                            let v = match field {
                                None => Some(item),
                                Some(f) => item.field(f),
                            };
                            let bits = v.and_then(|v| self.encode(*ty, v));
                            ok &= bits.is_some();
                            out.cols[*slot].push(bits.unwrap_or(0));
                        }
                        if !ok {
                            out.rest.push(out.parent.len() as u32);
                        }
                        out.parent.push(row);
                        out.own.push(i as u32);
                        if let Some(coll) = &evaluated {
                            out.colls.push(Arc::clone(coll));
                        }
                    }
                }
                Ok(())
            },
        )?;
        flush(out, bufs, stats)
    }

    /// Complete the rows buffered in `out` — stage k's rows over chunk `c`,
    /// `origin` being `Stage(k, c)` — and emit them (see
    /// [`Pipeline::emit`]): gather the slots they carry from their input
    /// rows and a join's slots from their build rows, select every row not
    /// in `rest`, then clear the buffer.
    fn flush(
        &self,
        origin: Origin,
        build: Option<&JoinBuild>,
        out: &mut Chunk,
        scratch: &mut BatchScratch,
        bufs: &mut [Buf],
        stats: &mut ExecStats,
    ) -> Result<()> {
        let Origin::Stage(k, c) = origin else {
            unreachable!("a stage's rows come from the spine")
        };
        let n = out.parent.len();
        if n == 0 {
            return Ok(());
        }
        let stage = &self.stages[k];
        for &slot in &stage.carried {
            gather(&mut out.cols[slot], &c.chunk.cols[slot], &out.parent);
        }
        for (slot, col) in build.map_or(&[][..], JoinBuild::columns) {
            gather(&mut out.cols[*slot], col, &out.own);
        }
        out.sel.clear();
        let mut next = 0;
        for &r in &out.rest {
            out.sel.extend(next..r);
            next = r + 1;
        }
        out.sel.extend(next..n as u32);
        let emitted = self.emit(origin, out, scratch, &stage.steps, bufs, stats);
        out.clear();
        emitted
    }

    /// The fold over the surviving rows of chunk `c`, in row order: the
    /// head kernels run over `sel` by batch, credited with those rows; a
    /// primitive fold with a kernel or `count` head steps through their
    /// outputs in a typed loop, and any other fold takes one head `Value`
    /// per row. The rows in `rest` evaluate the head through the
    /// interpreter in their place. Row order is the interpreter's, so
    /// float association, overflow and error order are unchanged.
    fn fold_chunk(&self, c: &Chain, buf: &mut Buf, stats: &mut ExecStats) -> Result<()> {
        let Buf {
            heads,
            scratch,
            acc,
            ..
        } = buf;
        let (sel, rest) = (&c.chunk.sel, &c.chunk.rest);
        for (i, k) in self.head_kernels().enumerate() {
            if heads.len() == i {
                heads.push(Vec::new());
            }
            k.call_batch(&c.chunk.cols, sel, &mut heads[i], scratch);
            stats.kernel_hits(k.id(), sel.len() as u64);
        }
        stats.actual_rows += (sel.len() + rest.len()) as u64;
        let typed = match (self.monoid, &self.head) {
            (Monoid::Primitive(p), HeadPlan::Kernel(k, _)) => Some((p, Some(k.output()))),
            (Monoid::Primitive(p), HeadPlan::CountOnly) => Some((p, None)),
            _ => None,
        };
        let heads = &heads[..];
        in_row_order(
            sel,
            rest,
            |&r| r,
            |run| match (run, typed) {
                (Run::Selected(i), Some((p, ty))) => {
                    let outputs = heads.first().map_or(&[][..], Vec::as_slice);
                    self.fold_heads(p, &mut acc.partial, ty, outputs, i)
                }
                (Run::Selected(i), None) => i.into_iter().try_for_each(|j| {
                    let x = self.head_value(c, sel[j], Some(j), heads, stats)?;
                    acc.step(self.monoid, x)
                }),
                (Run::Rest(&row), _) => {
                    let x = self.head_value(c, row, None, heads, stats)?;
                    acc.step(self.monoid, x)
                }
            },
        )
    }

    /// The head's kernels: one for a scalar head, one per field of a
    /// record head, none otherwise.
    fn head_kernels(&self) -> impl Iterator<Item = &CompiledKernel> {
        let (one, fields) = match &self.head {
            HeadPlan::Kernel(k, _) => (Some(k), &[][..]),
            HeadPlan::RecordKernels(ks, _) => (None, &ks[..]),
            _ => (None, &[][..]),
        };
        one.into_iter().chain(fields.iter().map(|(_, k)| k))
    }

    /// The head's value on row `row` of chunk `c`: decoded from the head
    /// kernels' outputs at `at` for a selected row, else evaluated by the
    /// interpreter (an interpreted head, or a row that could not encode).
    fn head_value(
        &self,
        c: &Chain,
        row: u32,
        at: Option<usize>,
        heads: &[Vec<i64>],
        stats: &mut ExecStats,
    ) -> Result<Value> {
        match (&self.head, at) {
            (HeadPlan::CountOnly, _) => Ok(Value::Int(1)),
            (HeadPlan::Kernel(k, _), Some(j)) => Ok(self.decode_bits(heads[0][j], k.output())),
            (HeadPlan::RecordKernels(ks, _), Some(j)) => Ok(Value::Record(
                ks.iter()
                    .zip(heads)
                    .map(|((n, k), h)| (n.clone(), self.decode_bits(h[j], k.output())))
                    .collect(),
            )),
            (head, _) => {
                stats.fallback_tuples += 1;
                let e = head.source_expr().expect("CountOnly handled above");
                eval(e, &self.env_for(c, row))
            }
        }
    }

    /// Step `acc` through the head outputs `heads[run]` of a head kernel
    /// with output type `ty` in a typed loop — or, for `count` (`ty` is
    /// `None`), add the run's length.
    fn fold_heads(
        &self,
        p: PrimitiveMonoid,
        acc: &mut Partial,
        ty: Option<SlotType>,
        heads: &[i64],
        run: Range<usize>,
    ) -> Result<()> {
        let heads = || heads[run.clone()].iter();
        match ty {
            Some(SlotType::Int) => fold_run(p, acc, heads().map(|&b| Partial::Int(b))),
            Some(SlotType::Float) => fold_run(
                p,
                acc,
                heads().map(|&b| Partial::Float(f64::from_bits(b as u64))),
            ),
            Some(ty) => fold_run(p, acc, heads().map(|&b| self.decode_bits(b, ty).into())),
            None => count_rows(acc, run.len()),
        }
    }

    /// Rebuild interpreter bindings for row `row` of chunk `c` from its
    /// provenance — read on the fallback path alone: a record per bound
    /// source row, then each bound unnest's element, read back from its
    /// collection.
    fn env_for(&self, c: &Chain, row: u32) -> Bindings {
        let mut env = self.base_env.clone();
        let rows: Vec<Option<usize>> = (0..self.sources.len())
            .map(|src| self.source_row(c, row, src))
            .collect();
        for (s, row) in self.sources.iter().zip(&rows) {
            let Some(row) = *row else { continue };
            let fields = s
                .env_fields
                .iter()
                .map(|(n, col)| (n.clone(), col[row].clone()));
            env.insert(s.binding.clone(), Value::Record(fields.collect()));
        }
        for (ui, u) in self.unnests.iter().enumerate() {
            let bound = trace(c, row as usize, |c, row| {
                let Origin::Stage(k, _) = c.origin else {
                    return None;
                };
                let element = (c.chunk.own[row] as usize, c.chunk.colls.get(row));
                matches!(self.stages[k].kind, StageKind::Unnest(v) if v == ui).then_some(element)
            });
            let (i, coll) = match (bound, u.src_col) {
                (Some((i, Some(coll))), _) => (i, &**coll),
                (Some((i, None)), Some((src, col))) => match rows[src] {
                    Some(r) => (i, &self.sources[src].env_fields[col].1[r]),
                    None => continue,
                },
                _ => continue,
            };
            if let Some(item) = coll.elements().and_then(|e| e.get(i)) {
                env.insert(u.binding.clone(), item.clone());
            }
        }
        env
    }

    /// The row of source `src` that row `row` of chunk `c` descends from,
    /// if it descends from one.
    fn source_row(&self, c: &Chain, row: u32, src: usize) -> Option<usize> {
        trace(c, row as usize, |c, row| match c.origin {
            Origin::Scan(s) => (s == src).then_some(c.chunk.base + row),
            Origin::Stage(k, _) => match self.stages[k].kind {
                StageKind::Join { right, .. } if right == src => {
                    Some(self.builds[right - 1].source_row(c.chunk.own[row]))
                }
                _ => None,
            },
        })
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

    /// Encode one cell into its slot's bits, `None` when it cannot (null,
    /// type mismatch). `Str` cells intern through the shared interner: safe
    /// from parallel workers because the table is lock-guarded, and a
    /// read-locked lookup once a dataset's strings were seen by an earlier
    /// query.
    #[inline]
    fn encode(&self, ty: SlotType, v: &Value) -> Option<i64> {
        ty.encode(v, |s| self.interner.intern(s))
    }

    /// Decode a kernel output, resolving interned string ids.
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

    /// The scan stage over `rows` of source `idx`, a chunk of at most
    /// [`CHUNK_ROWS`] rows at a time: a chunk the source's block skip
    /// refutes (see [`ZoneCheck`](super::ZoneCheck)) goes no further; each
    /// slot column of any other chunk encodes into a vector (`Str` cells
    /// under one interner read guard), the rows whose every slot encoded
    /// form `sel` and the others (nulls) `rest`, and `each` takes the chunk
    /// from there.
    fn scan_chunks(
        &self,
        idx: usize,
        rows: Range<usize>,
        buf: &mut Buf,
        stats: &mut ExecStats,
        mut each: impl FnMut(&mut Buf, &mut ExecStats) -> Result<()>,
    ) -> Result<()> {
        let s = &self.sources[idx];
        for base in rows.clone().step_by(CHUNK_ROWS) {
            let end = (base + CHUNK_ROWS).min(rows.end);
            let n = end - base;
            if let Some(z) = &s.zone {
                if let Some(t) = z.refuted(base..end) {
                    z.skipped[t].fetch_add(n as u64, Relaxed);
                    continue;
                }
            }
            let c = &mut buf.chunk;
            c.base = base;
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
            each(buf, stats)?;
        }
        Ok(())
    }

    /// Materialize the build side of every join, bottom-up: the build of
    /// source `right` lands at `right - 1`. These are the pipeline
    /// breakers: each right side scans into owned build columns once,
    /// morsel by morsel, then lays out one CSR bucket table or sorts into a
    /// band index on the coordinator. Bucket order is build order, so
    /// every thread count probes identical candidate sets.
    fn prepare_builds(&self, stats: &mut ExecStats) -> Result<Vec<JoinBuild>> {
        let mut builds = Vec::new();
        for stage in &self.stages {
            let StageKind::Join { right, probe } = &stage.kind else {
                continue;
            };
            let key = probe.keys().map(|k| (&k.right, k.right_ty, k.float_keys));
            let rows = self.build_rows(*right, key, stats)?;
            debug_assert_eq!(builds.len(), right - 1, "builds follow the walk order");
            builds.push(match probe {
                Probe::Hash(_) => JoinBuild::hash(rows),
                Probe::Band { keys, op, .. } => {
                    JoinBuild::theta(rows, Some((*op, keys.float_keys)))
                }
                Probe::Loop => JoinBuild::theta(rows, None),
            });
        }
        Ok(builds)
    }

    /// Build-side scan, morsel by morsel and a chunk at a time: the rows
    /// that leave the scan (see [`Pipeline::filter`]) get the build key
    /// from one batch kernel call, when the join has a build key, and
    /// append column by column — slots, validity, source row and key — to
    /// the morsel's columns; morsels concatenate in morsel order, so the
    /// rows are the source's scan order at every worker count.
    fn build_rows(
        &self,
        idx: usize,
        key: Option<(&CompiledKernel, SlotType, bool)>,
        stats: &mut ExecStats,
    ) -> Result<BuildCols> {
        let s = &self.sources[idx];
        u32::try_from(s.nrows).map_err(|_| VidaError::Exec("build side over 2^32 rows".into()))?;
        let plan = MorselPlan::fixed(s.nrows, self.morsel_rows);
        let slots = || s.slot_cols.iter().map(|(slot, ..)| *slot);
        morsel_fold(
            &self.pool,
            &plan,
            stage::BUILD_SIDE,
            stats,
            || Buf::scan(self.frame_width, s),
            |buf, range, ws| {
                let mut out = BuildCols::new(slots(), range.len());
                self.scan_chunks(idx, range, buf, ws, |buf, ws| {
                    let Buf {
                        chunk: c,
                        scratch,
                        keys,
                        kept,
                        ..
                    } = buf;
                    let (mut sel, mut rest) = (take(&mut c.sel), take(&mut c.rest));
                    let origin = Origin::Scan(idx);
                    let chain = Chain { chunk: c, origin };
                    if let Some(e) =
                        self.filter(&s.selects, &chain, &mut sel, &mut rest, scratch, ws)
                    {
                        return Err(e);
                    }
                    // The rows that leave the scan, valid or not.
                    let kept: &[u32] = match rest.is_empty() {
                        true => &sel,
                        false => {
                            kept.clear();
                            merge_ascending(&sel, &rest, |r, _| kept.push(r));
                            kept
                        }
                    };
                    let keys: &[i64] = match key {
                        Some((k, ty, float_keys)) => {
                            // A row that could not encode gets a key too,
                            // but no probe reads it: the row is loose or
                            // unindexed.
                            k.call_batch(&c.cols, kept, keys, scratch);
                            ws.kernel_hits(k.id(), sel.len() as u64);
                            for bits in keys.iter_mut() {
                                *bits = encode_key(*bits, ty, float_keys);
                            }
                            keys
                        }
                        None => &[],
                    };
                    out.extend(&c.cols, &c.valid, c.base, kept, keys);
                    (c.sel, c.rest) = (sel, rest);
                    Ok(())
                })?;
                let n = out.len() as u64;
                Ok((out, n))
            },
            BuildCols::new(slots(), 0),
            |mut all, chunk| {
                all.append(chunk);
                Ok(all)
            },
        )
    }
}

/// Rows per chunk. A morsel's rows are encoded, selected, expanded and
/// folded this many at a time, so the vectors stay in cache whatever the
/// morsel size.
const CHUNK_ROWS: usize = 1024;

/// The rows one spot of the spine hands the next — at most [`CHUNK_ROWS`]
/// of them: their slot columns, the surviving rows split by validity,
/// and, from a join or an unnest, each row's provenance by back-reference.
#[derive(Default)]
struct Chunk {
    /// Slot columns indexed by frame slot, one entry per row; empty for
    /// every slot not bound here.
    cols: Vec<Vec<i64>>,
    /// Surviving rows whose every slot encoded, ascending.
    sel: Vec<u32>,
    /// Surviving rows that could not encode (nulls), ascending: they take
    /// the interpreter.
    rest: Vec<u32>,
    /// A scan chunk's first source row, and per row: did every slot
    /// encode?
    base: usize,
    valid: Vec<bool>,
    /// A join's or unnest's rows: each one's input row, and its build row
    /// or element index.
    parent: Vec<u32>,
    own: Vec<u32>,
    /// An unnest whose path the interpreter evaluated: each row's
    /// collection.
    colls: Vec<Arc<Value>>,
}

impl Chunk {
    /// Append rows pairing input row `row` with each build row of
    /// `build`, valid or not, in pieces that keep the chunk within
    /// [`CHUNK_ROWS`] (`flush` empties it).
    fn pair(
        &mut self,
        row: u32,
        mut build: &[u32],
        valid: bool,
        flush: &mut dyn FnMut(&mut Chunk) -> Result<()>,
    ) -> Result<()> {
        loop {
            if self.parent.len() >= CHUNK_ROWS {
                flush(self)?;
            }
            if build.is_empty() {
                return Ok(());
            }
            let (now, later) = build.split_at(build.len().min(CHUNK_ROWS - self.parent.len()));
            if !valid {
                let at = self.parent.len() as u32;
                self.rest.extend(at..at + now.len() as u32);
            }
            self.parent.extend(std::iter::repeat(row).take(now.len()));
            self.own.extend_from_slice(now);
            build = later;
        }
    }

    /// Pair valid input row `row` with each build row of `build`
    /// (ascending), the rows of `loose` (ascending) — invalid build rows,
    /// which `build` may hold or not — as invalid rows in their place.
    fn expand(
        &mut self,
        row: u32,
        mut build: &[u32],
        loose: &[u32],
        flush: &mut dyn FnMut(&mut Chunk) -> Result<()>,
    ) -> Result<()> {
        for &b in loose {
            let below = build.partition_point(|&r| r < b);
            self.pair(row, &build[..below], true, flush)?;
            self.pair(row, &[b], false, flush)?;
            build = &build[below..];
            build = build.strip_prefix(&[b]).unwrap_or(build);
        }
        self.pair(row, build, true, flush)
    }

    /// Pair input row `row` with build row `b` if `n` (0 or 1) is 1.
    #[inline]
    fn push_first(&mut self, row: u32, b: u32, n: usize) {
        let len = self.parent.len() + n;
        self.parent.push(row);
        self.own.push(b);
        self.parent.truncate(len);
        self.own.truncate(len);
    }

    /// Empty a join's or unnest's buffered rows.
    fn clear(&mut self) {
        self.cols.iter_mut().for_each(Vec::clear);
        self.sel.clear();
        self.rest.clear();
        self.parent.clear();
        self.own.clear();
        self.colls.clear();
    }
}

/// One worker's vectors for one spot of the spine — the scan, a stage or
/// the fold — built on the worker's first morsel of a phase and reused for
/// the rest (`WorkerPool::fold_morsels`' per-worker scratch), so a phase
/// allocates them per worker, not per morsel or row.
#[derive(Default)]
struct Buf {
    /// The rows this spot hands on.
    chunk: Chunk,
    scratch: BatchScratch,
    /// A join's canonical left key per selected input row, each key's
    /// bucket id and the lookup's scratch (see
    /// [`JoinBuild::lookup_batch`]); a band range sorted into build order,
    /// or a build chunk's surviving rows.
    keys: Vec<i64>,
    ids: Vec<u32>,
    pending: Vec<u32>,
    at: Vec<usize>,
    kept: Vec<u32>,
    /// The fold's head kernel outputs (one vector per kernel) and partial.
    heads: Vec<Vec<i64>>,
    acc: Acc,
}

impl Buf {
    fn new(frame_width: usize) -> Self {
        let chunk = Chunk {
            cols: vec![Vec::new(); frame_width],
            ..Chunk::default()
        };
        Buf {
            chunk,
            ..Buf::default()
        }
    }

    /// A scan's buffer over source `s`: its slot columns hold a chunk.
    fn scan(frame_width: usize, s: &Source) -> Self {
        let mut buf = Buf::new(frame_width);
        for (slot, ..) in &s.slot_cols {
            buf.chunk.cols[*slot] = vec![0; s.nrows.min(CHUNK_ROWS)];
        }
        buf
    }
}

/// A morsel's private fold: a primitive monoid's partial, or a collection
/// monoid's head values.
#[derive(Default)]
struct Acc {
    partial: Partial,
    items: Vec<Value>,
}

impl Acc {
    fn step(&mut self, monoid: Monoid, x: Value) -> Result<()> {
        match monoid {
            Monoid::Primitive(p) => p.step(&mut self.partial, x.into()),
            Monoid::Collection(_) => {
                self.items.push(x);
                Ok(())
            }
        }
    }
}

/// A chunk and where it came from: the provenance that rows taking the
/// interpreter rebuild their bindings from.
struct Chain<'a> {
    chunk: &'a Chunk,
    origin: Origin<'a>,
}

#[derive(Clone, Copy)]
enum Origin<'a> {
    /// The scan of a source.
    Scan(usize),
    /// Stage `k` of the spine, over the chunk of the chain.
    Stage(usize, &'a Chain<'a>),
}

/// Walk from row `row` of chunk `c` down its provenance — each chunk, with
/// the row of it that `row` descends from — to the first that `f` finds
/// something in.
fn trace<'a, T>(
    mut c: &Chain<'a>,
    mut row: usize,
    f: impl Fn(&Chain<'a>, usize) -> Option<T>,
) -> Option<T> {
    loop {
        if let Some(found) = f(c, row) {
            return Some(found);
        }
        let Origin::Stage(_, up) = c.origin else {
            return None;
        };
        row = c.chunk.parent[row] as usize;
        c = up;
    }
}

/// `to` becomes `from` at each index of `at`.
fn gather(to: &mut Vec<i64>, from: &[i64], at: &[u32]) {
    to.clear();
    to.extend(at.iter().map(|&r| from[r as usize]));
}

/// Keep the rows of `rows` (ascending) that `keep` holds for, up to the
/// row of `failed`: the first row that `keep` fails on becomes `failed`,
/// and the rows from it on are dropped.
fn retain(
    rows: &mut Vec<u32>,
    failed: &mut Option<(u32, VidaError)>,
    mut keep: impl FnMut(u32) -> Result<bool>,
) {
    let mut kept = 0;
    for i in 0..rows.len() {
        let row = rows[i];
        if failed.as_ref().is_some_and(|(at, _)| *at <= row) {
            break;
        }
        match keep(row) {
            Ok(pass) => {
                rows[kept] = row;
                kept += pass as usize;
            }
            Err(e) => {
                *failed = Some((row, e));
                break;
            }
        }
    }
    rows.truncate(kept);
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

/// Add `n` rows to a `count` accumulator at once: the checked addition
/// the fold's `count` steps make a row at a time, with the same overflow
/// error.
fn count_rows(acc: &mut Partial, n: usize) -> Result<()> {
    *acc = PrimitiveMonoid::Count.merge(std::mem::take(acc), Partial::Int(n as i64))?;
    Ok(())
}

/// A stretch of one chunk's rows in ascending order: a run of selected
/// rows (`sel[i]` for `i` in the range), or one row off the selection.
enum Run<'a, T> {
    Selected(Range<usize>),
    Rest(&'a T),
}

/// Visit the rows of `sel` (ascending) and `rest` (ascending by `at`) in
/// one ascending sequence, as runs of selected rows between the items of
/// `rest`: an item at `at` comes after every selected row below `at`.
fn in_row_order<'a, T>(
    sel: &[u32],
    rest: &'a [T],
    at: impl Fn(&T) -> u32,
    mut f: impl FnMut(Run<'a, T>) -> Result<()>,
) -> Result<()> {
    let mut from = 0;
    for item in rest {
        let to = from + sel[from..].partition_point(|&r| r < at(item));
        if from < to {
            f(Run::Selected(from..to))?;
        }
        f(Run::Rest(item))?;
        from = to;
    }
    match from < sel.len() {
        true => f(Run::Selected(from..sel.len())),
        false => Ok(()),
    }
}

/// The one way a phase runs on the pool: `work` processes each morsel of
/// `plan` on the executing worker's `scratch` (built once per worker and
/// reused across its morsels) and on stats of its own, inside a `stage` span on the
/// worker's track (`worker + 1`; track 0 is the coordinator) that carries
/// the tuple count `work` reports and 1 morsel. `merge` folds the partials
/// into `init` in morsel order — absorbing each morsel's stats and spans
/// into `stats` alongside — so results, counters, and traces are the same
/// at every worker count.
#[allow(clippy::too_many_arguments)]
pub(super) fn morsel_fold<S: Send, P: Send, A>(
    pool: &WorkerPool,
    plan: &MorselPlan,
    stage: &'static str,
    stats: &mut ExecStats,
    scratch: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, Range<usize>, &mut ExecStats) -> Result<(P, u64)> + Sync,
    init: A,
    mut merge: impl FnMut(A, P) -> Result<A>,
) -> Result<A> {
    stats.morsels += plan.len() as u64;
    let epoch = stats.trace_epoch();
    pool.fold_morsels(
        plan.len(),
        |w| (w, scratch()),
        |(w, scratch), m| {
            let mut ws = ExecStats::default();
            if let Some(e) = epoch {
                ws.trace = Some(Box::new(QueryTrace::with_epoch(*w as u32 + 1, e)));
            }
            ws.span_begin(stage);
            let (partial, tuples) = work(scratch, plan.range(m), &mut ws)?;
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
        // The chunk pipeline must fuse every covered shape end to end:
        // scans, joins (build sides are breakers, not stages), unnests,
        // selects, every monoid.
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
