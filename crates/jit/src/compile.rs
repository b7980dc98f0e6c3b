//! Portable compilation of scalar expressions.
//!
//! [`JitCompiler::compile`] turns a calculus expression over a
//! [`FrameLayout`] into a *fused kernel*: a tree of monomorphic closures
//! specialized at compile time to the slot types the expression touches.
//! All type dispatch, slot resolution, and string interning happen once,
//! at compilation — the per-tuple call path contains no type tags, no hash
//! lookups, and allocates nothing, which is the §4.1 property the paper's
//! LLVM backend provides.
//!
//! Every kernel comes in two forms built from the same expression tree and
//! the same per-node operations: a row form over one register frame
//! ([`CompiledKernel::call`]) and a batch form over a vector of rows of
//! slot columns ([`CompiledKernel::call_batch`]), which pays one closure
//! call per node per vector instead of per row (vectorized interpretation,
//! MonetDB/X100). A `slot ⊙ const` or `slot ⊙ slot` node reads its columns
//! in the same pass that applies the operator. Both forms give the same
//! bits on every row.
//!
//! The compilable subset is pure and total (no division, no collection
//! operations). Expressions outside it return `None` from
//! [`JitCompiler::try_prepare`] and stay interpreted. Kernel semantics match
//! native code, not the interpreter: integer arithmetic wraps rather than
//! erroring on overflow, and floats use IEEE comparison (ordered, so
//! `NaN != NaN`).

use crate::frame::{FrameLayout, SlotType, StringInterner};
use std::sync::Arc;
use vida_lang::{BinOp, Expr, UnOp};
use vida_types::{Result, Value, VidaError};

/// Declared output encoding of a compiled kernel.
pub type KernelOutput = SlotType;

/// Row form of a kernel node: `fn(&[i64]) -> i64` over a frame laid out
/// according to the [`FrameLayout`] it was compiled against.
type Kern = Box<dyn Fn(&[i64]) -> i64 + Send + Sync>;

/// Batch form of a kernel node: evaluates the node on the rows `sel` of
/// the slot columns `cols` (indexed by frame slot), writing the result for
/// `sel[i]` to `out[i]`; `out.len() == sel.len()`.
type BatchKern = Box<dyn Fn(&[Vec<i64>], &[u32], &mut [i64], &mut BatchScratch) + Send + Sync>;

/// Intermediate vectors of batch kernels, owned by the caller and reused
/// across calls, so a batch evaluation allocates only until the scratch
/// holds a vector per live intermediate of the widest batch.
#[derive(Debug, Default)]
pub struct BatchScratch {
    free: Vec<Vec<i64>>,
}

impl BatchScratch {
    /// A vector of length `n` with unspecified contents.
    fn take(&mut self, n: usize) -> Vec<i64> {
        let mut v = self.free.pop().unwrap_or_default();
        v.resize(n, 0);
        v
    }

    fn give(&mut self, v: Vec<i64>) {
        self.free.push(v);
    }
}

/// The two forms of one compiled expression.
struct Forms {
    row: Kern,
    batch: BatchKern,
}

/// A finalized kernel. Cheap to clone and safe to call from any thread.
#[derive(Clone)]
pub struct CompiledKernel {
    forms: Arc<Forms>,
    output: KernelOutput,
    id: u32,
}

impl CompiledKernel {
    /// Id of a kernel that was never tagged with [`CompiledKernel::with_id`].
    /// Trace consumers skip it — only pipeline-owned kernels get dense ids.
    pub const UNASSIGNED: u32 = u32::MAX;

    /// Tag this kernel with a query-dense id (assigned at compile time by
    /// the pipeline builder; the hook per-kernel invocation counts key on).
    pub fn with_id(mut self, id: u32) -> Self {
        self.id = id;
        self
    }

    /// The kernel's id, or [`CompiledKernel::UNASSIGNED`].
    #[inline]
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Run the kernel over a frame. The frame must match the layout the
    /// kernel was compiled against.
    #[inline]
    pub fn call(&self, frame: &[i64]) -> i64 {
        (self.forms.row)(frame)
    }

    /// Run the kernel over the rows `sel` of `cols` — column `s` holds frame
    /// slot `s` of consecutive rows, and a slot the kernel does not read may
    /// be empty. `out` becomes one result per selected row, in `sel` order:
    /// `out[i]` has the bits [`CompiledKernel::call`] returns on the frame
    /// of row `sel[i]`. Intermediates come from `scratch`.
    pub fn call_batch(
        &self,
        cols: &[Vec<i64>],
        sel: &[u32],
        out: &mut Vec<i64>,
        scratch: &mut BatchScratch,
    ) {
        out.resize(sel.len(), 0);
        (self.forms.batch)(cols, sel, out, scratch)
    }

    /// Run a boolean kernel over a frame (`0` = false, anything else true).
    #[inline]
    pub fn call_bool(&self, frame: &[i64]) -> bool {
        self.call(frame) != 0
    }

    /// Run and decode into a [`Value`].
    pub fn call_value(&self, frame: &[i64]) -> Value {
        crate::frame::decode_output(self.call(frame), self.output)
    }

    pub fn output(&self) -> KernelOutput {
        self.output
    }
}

/// A fused select stage: the conjunction of compiled boolean kernels in a
/// ranked order, evaluated a vector at a time.
///
/// [`SelectKernel::refine`] narrows a selection vector conjunct by
/// conjunct, so each predicate runs only on the rows every earlier one
/// kept — the batch form of a short-circuit filter chain, producing no
/// boolean column or filtered tuple vector per predicate.
#[derive(Clone)]
pub struct SelectKernel {
    preds: Vec<CompiledKernel>,
}

impl SelectKernel {
    /// Fuse `preds` (each a boolean kernel) in the order given: a join
    /// predicate and the selects above the join, which run in syntactic
    /// order so each kernel sees the pairs a short-circuit chain would
    /// give it. Scan stages rank their conjuncts with
    /// [`SelectKernel::with_order`].
    pub fn new(preds: Vec<CompiledKernel>) -> Self {
        debug_assert!(preds.iter().all(|k| k.output() == SlotType::Bool));
        SelectKernel { preds }
    }

    /// Fuse `preds` evaluating in `order` (a permutation of `0..preds.len()`
    /// ranked by the plan optimizer: cheapest-and-most-selective first).
    /// Compiled predicate kernels are pure and total, so any evaluation
    /// order keeps exactly the same rows; only the rows each predicate
    /// sees change.
    pub fn with_order(preds: Vec<CompiledKernel>, order: &[usize]) -> Self {
        debug_assert_eq!(order.len(), preds.len());
        debug_assert!({
            let mut seen = vec![false; preds.len()];
            order
                .iter()
                .all(|&i| i < seen.len() && !std::mem::replace(&mut seen[i], true))
        });
        let preds = order.iter().map(|&i| preds[i].clone()).collect();
        SelectKernel::new(preds)
    }

    /// Number of fused predicates.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Does one frame satisfy every predicate? Short-circuits on the first
    /// failure. Pipelines run [`SelectKernel::refine`]; this row form is
    /// kept for callers outside the workspace.
    #[doc(hidden)]
    #[inline]
    pub fn admit(&self, frame: &[i64]) -> bool {
        self.preds.iter().all(|k| k.call_bool(frame))
    }

    /// Narrow `sel` (rows of `cols`, see [`CompiledKernel::call_batch`]) to
    /// the rows every predicate accepts, keeping their order. Predicates run
    /// in evaluation order, each over the rows the ones before it kept, and
    /// `ran(id, rows)` reports each predicate that ran with the number of
    /// rows it received — per row, exactly the predicates a short-circuit
    /// conjunction evaluates.
    pub fn refine(
        &self,
        cols: &[Vec<i64>],
        sel: &mut Vec<u32>,
        scratch: &mut BatchScratch,
        mut ran: impl FnMut(u32, u64),
    ) {
        let mut pass = scratch.take(0);
        for k in &self.preds {
            if sel.is_empty() {
                break;
            }
            ran(k.id(), sel.len() as u64);
            k.call_batch(cols, sel, &mut pass, scratch);
            let mut kept = 0;
            for i in 0..sel.len() {
                sel[kept] = sel[i];
                kept += (pass[i] != 0) as usize;
            }
            sel.truncate(kept);
        }
        scratch.give(pass);
    }
}

/// Per-query compiler.
///
/// Stateless: one compiler value is consumed per compiled kernel.
pub struct JitCompiler {
    _private: (),
}

impl JitCompiler {
    pub fn new() -> Result<Self> {
        Ok(JitCompiler { _private: () })
    }

    /// Static check + output type inference: can `expr` compile against
    /// `layout`? Returns the output slot type if yes.
    pub fn try_prepare(expr: &Expr, layout: &FrameLayout) -> Option<SlotType> {
        infer(expr, layout)
    }

    /// Compile `expr` into both kernel forms. String constants are interned
    /// through `interner` — the same interner the frame builder uses at
    /// runtime.
    pub fn compile(
        self,
        expr: &Expr,
        layout: &FrameLayout,
        interner: &mut StringInterner,
    ) -> Result<CompiledKernel> {
        let output = infer(expr, layout)
            .ok_or_else(|| VidaError::Codegen(format!("expression not compilable: {expr}")))?;
        let node = emit(expr, layout, interner)?;
        debug_assert_eq!(node.ty, output);
        Ok(CompiledKernel {
            forms: Arc::new(Forms {
                row: node.row,
                batch: node.batch,
            }),
            output,
            id: CompiledKernel::UNASSIGNED,
        })
    }
}

/// Output type inference over the compilable subset; `None` = fallback to
/// the interpreter.
fn infer(expr: &Expr, layout: &FrameLayout) -> Option<SlotType> {
    match expr {
        Expr::Const(Value::Int(_)) => Some(SlotType::Int),
        Expr::Const(Value::Float(_)) => Some(SlotType::Float),
        Expr::Const(Value::Bool(_)) => Some(SlotType::Bool),
        Expr::Const(Value::Str(_)) => Some(SlotType::Str),
        Expr::Var(_) | Expr::Proj(..) => {
            let path = path_of(expr)?;
            layout.lookup(&path).map(|(_, t)| t)
        }
        Expr::BinOp(op, l, r) => {
            let lt = infer(l, layout)?;
            let rt = infer(r, layout)?;
            match op {
                BinOp::Add | BinOp::Sub | BinOp::Mul => match (lt, rt) {
                    (SlotType::Int, SlotType::Int) => Some(SlotType::Int),
                    (SlotType::Int | SlotType::Float, SlotType::Int | SlotType::Float) => {
                        Some(SlotType::Float)
                    }
                    _ => None,
                },
                // Division/modulo keep interpreter error semantics.
                BinOp::Div | BinOp::Mod => None,
                BinOp::Eq | BinOp::Ne => match (lt, rt) {
                    (SlotType::Str, SlotType::Str) => Some(SlotType::Bool),
                    (SlotType::Bool, SlotType::Bool) => Some(SlotType::Bool),
                    (SlotType::Int | SlotType::Float, SlotType::Int | SlotType::Float) => {
                        Some(SlotType::Bool)
                    }
                    _ => None,
                },
                BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => match (lt, rt) {
                    (SlotType::Int | SlotType::Float, SlotType::Int | SlotType::Float) => {
                        Some(SlotType::Bool)
                    }
                    _ => None, // string ordering stays interpreted
                },
                BinOp::And | BinOp::Or => {
                    if lt == SlotType::Bool && rt == SlotType::Bool {
                        Some(SlotType::Bool)
                    } else {
                        None
                    }
                }
            }
        }
        Expr::UnOp(UnOp::Not, e) => (infer(e, layout)? == SlotType::Bool).then_some(SlotType::Bool),
        Expr::UnOp(UnOp::Neg, e) => match infer(e, layout)? {
            SlotType::Int => Some(SlotType::Int),
            SlotType::Float => Some(SlotType::Float),
            _ => None,
        },
        Expr::If(c, t, f) => {
            if infer(c, layout)? != SlotType::Bool {
                return None;
            }
            let tt = infer(t, layout)?;
            let ft = infer(f, layout)?;
            match (tt, ft) {
                (a, b) if a == b => Some(a),
                (SlotType::Int, SlotType::Float) | (SlotType::Float, SlotType::Int) => {
                    Some(SlotType::Float)
                }
                _ => None,
            }
        }
        _ => None,
    }
}

/// Dotted path string of a variable/projection chain (`p.age`).
pub fn path_of(expr: &Expr) -> Option<String> {
    match expr {
        Expr::Var(v) => Some(v.clone()),
        Expr::Proj(e, f) => Some(format!("{}.{f}", path_of(e)?)),
        _ => None,
    }
}

#[inline]
fn bits(x: f64) -> i64 {
    x.to_bits() as i64
}

#[inline]
fn fval(b: i64) -> f64 {
    f64::from_bits(b as u64)
}

/// The float bits `b` as an integer whose order is the IEEE total order
/// of the floats (`f64::total_cmp`'s key): negative floats flip every bit
/// below the sign.
#[inline]
fn ford(b: i64) -> i64 {
    b ^ (((b >> 63) as u64) >> 1) as i64
}

/// What a node reads, which picks its batch specialisation: a slot column
/// or a constant is read inside its parent's pass, not gathered first.
#[derive(Clone, Copy)]
enum Leaf {
    Slot(usize),
    Const(i64),
    Tree,
}

/// One emitted node: both forms, its shape, and its slot type.
struct Node {
    row: Kern,
    batch: BatchKern,
    leaf: Leaf,
    ty: SlotType,
}

fn slot_node(slot: usize, ty: SlotType) -> Node {
    Node {
        row: Box::new(move |f| f[slot]),
        batch: Box::new(move |cols, sel, out, _| {
            let col = &cols[slot];
            for (o, &r) in out.iter_mut().zip(sel) {
                *o = col[r as usize];
            }
        }),
        leaf: Leaf::Slot(slot),
        ty,
    }
}

fn const_node(c: i64, ty: SlotType) -> Node {
    Node {
        row: Box::new(move |_| c),
        batch: Box::new(move |_, _, out, _| out.fill(c)),
        leaf: Leaf::Const(c),
        ty,
    }
}

/// `f(e)`, both forms from the one operation `f`.
fn unary<F>(e: Node, ty: SlotType, f: F) -> Node
where
    F: Fn(i64) -> i64 + Copy + Send + Sync + 'static,
{
    let (k, b) = (e.row, e.batch);
    let batch: BatchKern = match e.leaf {
        Leaf::Const(c) => return const_node(f(c), ty),
        Leaf::Slot(s) => Box::new(move |cols, sel, out, _| {
            let col = &cols[s];
            for (o, &r) in out.iter_mut().zip(sel) {
                *o = f(col[r as usize]);
            }
        }),
        Leaf::Tree => Box::new(move |cols, sel, out, scratch| {
            b(cols, sel, out, scratch);
            for o in out.iter_mut() {
                *o = f(*o);
            }
        }),
    };
    Node {
        row: Box::new(move |fr| f(k(fr))),
        batch,
        leaf: Leaf::Tree,
        ty,
    }
}

/// `f(l, r)`, both forms from the one operation `f`. The batch form reads
/// slot and constant operands in the pass that applies `f`.
fn binary<F>(l: Node, r: Node, ty: SlotType, f: F) -> Node
where
    F: Fn(i64, i64) -> i64 + Copy + Send + Sync + 'static,
{
    let (lk, rk) = (l.row, r.row);
    let (lb, rb) = (l.batch, r.batch);
    let batch: BatchKern = match (l.leaf, r.leaf) {
        (Leaf::Slot(a), Leaf::Const(c)) => Box::new(move |cols, sel, out, _| {
            let col = &cols[a];
            for (o, &i) in out.iter_mut().zip(sel) {
                *o = f(col[i as usize], c);
            }
        }),
        (Leaf::Const(c), Leaf::Slot(b)) => Box::new(move |cols, sel, out, _| {
            let col = &cols[b];
            for (o, &i) in out.iter_mut().zip(sel) {
                *o = f(c, col[i as usize]);
            }
        }),
        (Leaf::Slot(a), Leaf::Slot(b)) => Box::new(move |cols, sel, out, _| {
            let (ca, cb) = (&cols[a], &cols[b]);
            for (o, &i) in out.iter_mut().zip(sel) {
                *o = f(ca[i as usize], cb[i as usize]);
            }
        }),
        (Leaf::Slot(a), _) => Box::new(move |cols, sel, out, scratch| {
            rb(cols, sel, out, scratch);
            let col = &cols[a];
            for (o, &i) in out.iter_mut().zip(sel) {
                *o = f(col[i as usize], *o);
            }
        }),
        (_, Leaf::Slot(b)) => Box::new(move |cols, sel, out, scratch| {
            lb(cols, sel, out, scratch);
            let col = &cols[b];
            for (o, &i) in out.iter_mut().zip(sel) {
                *o = f(*o, col[i as usize]);
            }
        }),
        (Leaf::Const(c), _) => Box::new(move |cols, sel, out, scratch| {
            rb(cols, sel, out, scratch);
            for o in out.iter_mut() {
                *o = f(c, *o);
            }
        }),
        (_, Leaf::Const(c)) => Box::new(move |cols, sel, out, scratch| {
            lb(cols, sel, out, scratch);
            for o in out.iter_mut() {
                *o = f(*o, c);
            }
        }),
        (Leaf::Tree, Leaf::Tree) => Box::new(move |cols, sel, out, scratch| {
            lb(cols, sel, out, scratch);
            let mut rv = scratch.take(out.len());
            rb(cols, sel, &mut rv, scratch);
            for (o, &y) in out.iter_mut().zip(&rv) {
                *o = f(*o, y);
            }
            scratch.give(rv);
        }),
    };
    Node {
        row: Box::new(move |fr| f(lk(fr), rk(fr))),
        batch,
        leaf: Leaf::Tree,
        ty,
    }
}

/// `if c then t else f`. The row form runs one branch; the batch form runs
/// both over the whole vector and picks per row — the same bits, because
/// kernels are pure and total.
fn choose(c: Node, t: Node, f: Node, ty: SlotType) -> Node {
    let (ck, tk, fk) = (c.row, t.row, f.row);
    let (cb, tb, fb) = (c.batch, t.batch, f.batch);
    Node {
        row: Box::new(move |fr| if ck(fr) != 0 { tk(fr) } else { fk(fr) }),
        batch: Box::new(move |cols, sel, out, scratch| {
            cb(cols, sel, out, scratch);
            let mut tv = scratch.take(out.len());
            tb(cols, sel, &mut tv, scratch);
            let mut fv = scratch.take(out.len());
            fb(cols, sel, &mut fv, scratch);
            for ((o, &t), &f) in out.iter_mut().zip(&tv).zip(&fv) {
                *o = if *o != 0 { t } else { f };
            }
            scratch.give(tv);
            scratch.give(fv);
        }),
        leaf: Leaf::Tree,
        ty,
    }
}

/// Widen a node to produce float bits regardless of its numeric type.
fn as_float(e: Node) -> Node {
    match e.ty {
        SlotType::Int => unary(e, SlotType::Float, |x| bits(x as f64)),
        _ => e,
    }
}

fn emit(expr: &Expr, layout: &FrameLayout, interner: &mut StringInterner) -> Result<Node> {
    match expr {
        Expr::Const(Value::Int(i)) => Ok(const_node(*i, SlotType::Int)),
        Expr::Const(Value::Float(x)) => Ok(const_node(bits(*x), SlotType::Float)),
        Expr::Const(Value::Bool(b)) => Ok(const_node(*b as i64, SlotType::Bool)),
        Expr::Const(Value::Str(s)) => Ok(const_node(interner.intern(s), SlotType::Str)),
        Expr::Var(_) | Expr::Proj(..) => {
            let path =
                path_of(expr).ok_or_else(|| VidaError::Codegen(format!("bad path {expr}")))?;
            let (slot, ty) = layout
                .lookup(&path)
                .ok_or_else(|| VidaError::Codegen(format!("path '{path}' not in frame layout")))?;
            Ok(slot_node(slot, ty))
        }
        Expr::BinOp(op, l, r) => {
            let l = emit(l, layout, interner)?;
            let r = emit(r, layout, interner)?;
            emit_binop(*op, l, r)
        }
        Expr::UnOp(UnOp::Not, e) => {
            let e = emit(e, layout, interner)?;
            Ok(unary(e, SlotType::Bool, |x| x ^ 1))
        }
        Expr::UnOp(UnOp::Neg, e) => {
            let e = emit(e, layout, interner)?;
            Ok(match e.ty {
                SlotType::Float => unary(e, SlotType::Float, |x| bits(-fval(x))),
                _ => unary(e, SlotType::Int, i64::wrapping_neg),
            })
        }
        Expr::If(c, t, f) => {
            let c = emit(c, layout, interner)?;
            let t = emit(t, layout, interner)?;
            let f = emit(f, layout, interner)?;
            // Unify numeric branches.
            match (t.ty, f.ty) {
                (a, b) if a == b => Ok(choose(c, t, f, a)),
                (SlotType::Int, SlotType::Float) | (SlotType::Float, SlotType::Int) => {
                    Ok(choose(c, as_float(t), as_float(f), SlotType::Float))
                }
                _ => Err(VidaError::Codegen(
                    "if branches with incompatible slot types".into(),
                )),
            }
        }
        other => Err(VidaError::Codegen(format!("not compilable: {other}"))),
    }
}

fn emit_binop(op: BinOp, l: Node, r: Node) -> Result<Node> {
    let both_int = l.ty == SlotType::Int && r.ty == SlotType::Int;
    let numeric = |t: SlotType| matches!(t, SlotType::Int | SlotType::Float);
    let float_domain = numeric(l.ty) && numeric(r.ty) && !both_int;
    use SlotType::{Bool, Float, Int};
    Ok(match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul if both_int => match op {
            BinOp::Add => binary(l, r, Int, i64::wrapping_add),
            BinOp::Sub => binary(l, r, Int, i64::wrapping_sub),
            _ => binary(l, r, Int, i64::wrapping_mul),
        },
        BinOp::Add | BinOp::Sub | BinOp::Mul => {
            let (l, r) = (as_float(l), as_float(r));
            match op {
                BinOp::Add => binary(l, r, Float, |x, y| bits(fval(x) + fval(y))),
                BinOp::Sub => binary(l, r, Float, |x, y| bits(fval(x) - fval(y))),
                _ => binary(l, r, Float, |x, y| bits(fval(x) * fval(y))),
            }
        }
        // Floats compare in IEEE total order, as the calculus does
        // (`Value::total_cmp`): NaN sorts above +inf (below -inf when
        // negative) and equals itself, and -0.0 sorts below 0.0.
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge if float_domain => {
            let (l, r) = (as_float(l), as_float(r));
            match op {
                BinOp::Eq => binary(l, r, Bool, |x, y| (ford(x) == ford(y)) as i64),
                BinOp::Ne => binary(l, r, Bool, |x, y| (ford(x) != ford(y)) as i64),
                BinOp::Lt => binary(l, r, Bool, |x, y| (ford(x) < ford(y)) as i64),
                BinOp::Le => binary(l, r, Bool, |x, y| (ford(x) <= ford(y)) as i64),
                BinOp::Gt => binary(l, r, Bool, |x, y| (ford(x) > ford(y)) as i64),
                _ => binary(l, r, Bool, |x, y| (ford(x) >= ford(y)) as i64),
            }
        }
        // Ints, interned strings (eq/ne only), bools.
        BinOp::Eq => binary(l, r, Bool, |x, y| (x == y) as i64),
        BinOp::Ne => binary(l, r, Bool, |x, y| (x != y) as i64),
        BinOp::Lt => binary(l, r, Bool, |x, y| (x < y) as i64),
        BinOp::Le => binary(l, r, Bool, |x, y| (x <= y) as i64),
        BinOp::Gt => binary(l, r, Bool, |x, y| (x > y) as i64),
        BinOp::Ge => binary(l, r, Bool, |x, y| (x >= y) as i64),
        BinOp::And => binary(l, r, Bool, |x, y| x & y),
        BinOp::Or => binary(l, r, Bool, |x, y| x | y),
        BinOp::Div | BinOp::Mod => {
            return Err(VidaError::Codegen(
                "division stays on the interpreted path".into(),
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vida_lang::parse;

    /// Compile `expr` against a layout derived from `slots`, run on `frame`
    /// values, return the decoded result.
    fn run(src: &str, slots: &[(&str, SlotType)], values: &[Value]) -> Value {
        let mut layout = FrameLayout::new();
        for (p, t) in slots {
            layout.slot(*p, *t);
        }
        let mut interner = StringInterner::new();
        let expr = parse(src).unwrap();
        let kernel = JitCompiler::new()
            .unwrap()
            .compile(&expr, &layout, &mut interner)
            .unwrap();
        // Build the frame with the same interner.
        let mut fb = crate::frame::FrameBuilder::new(layout);
        std::mem::swap(fb.interner_mut(), &mut interner);
        let frame = fb.build(&values.iter().collect::<Vec<_>>()).unwrap();
        kernel.call_value(&frame)
    }

    #[test]
    fn integer_arithmetic() {
        assert_eq!(
            run(
                "x + y * 2",
                &[("x", SlotType::Int), ("y", SlotType::Int)],
                &[Value::Int(3), Value::Int(4)]
            ),
            Value::Int(11)
        );
        assert_eq!(
            run("-(x - 1)", &[("x", SlotType::Int)], &[Value::Int(5)]),
            Value::Int(-4)
        );
    }

    #[test]
    fn float_arithmetic_and_promotion() {
        assert_eq!(
            run(
                "x + y",
                &[("x", SlotType::Float), ("y", SlotType::Int)],
                &[Value::Float(1.5), Value::Int(2)]
            ),
            Value::Float(3.5)
        );
        assert_eq!(
            run("x * 0.5", &[("x", SlotType::Float)], &[Value::Float(5.0)]),
            Value::Float(2.5)
        );
    }

    #[test]
    fn comparisons() {
        assert_eq!(
            run("x > 40", &[("x", SlotType::Int)], &[Value::Int(45)]),
            Value::Bool(true)
        );
        assert_eq!(
            run("x <= 2.5", &[("x", SlotType::Float)], &[Value::Float(2.5)]),
            Value::Bool(true)
        );
        assert_eq!(
            run(
                "x != y",
                &[("x", SlotType::Int), ("y", SlotType::Float)],
                &[Value::Int(2), Value::Float(2.0)]
            ),
            Value::Bool(false)
        );
    }

    #[test]
    fn projection_paths() {
        assert_eq!(
            run(
                "p.age > 60 and g.v < 0.5",
                &[("p.age", SlotType::Int), ("g.v", SlotType::Float)],
                &[Value::Int(70), Value::Float(0.25)]
            ),
            Value::Bool(true)
        );
    }

    #[test]
    fn boolean_connectives_and_not() {
        assert_eq!(
            run(
                "not (a and b) or b",
                &[("a", SlotType::Bool), ("b", SlotType::Bool)],
                &[Value::Bool(true), Value::Bool(false)]
            ),
            Value::Bool(true)
        );
    }

    #[test]
    fn string_equality_via_interning() {
        assert_eq!(
            run("s = \"HR\"", &[("s", SlotType::Str)], &[Value::str("HR")]),
            Value::Bool(true)
        );
        assert_eq!(
            run("s != \"HR\"", &[("s", SlotType::Str)], &[Value::str("Eng")]),
            Value::Bool(true)
        );
    }

    #[test]
    fn if_select() {
        assert_eq!(
            run(
                "if x > 0 then x else -x",
                &[("x", SlotType::Int)],
                &[Value::Int(-7)]
            ),
            Value::Int(7)
        );
        // Mixed branches widen to float.
        assert_eq!(
            run(
                "if x > 0 then 1 else 0.5",
                &[("x", SlotType::Int)],
                &[Value::Int(3)]
            ),
            Value::Float(1.0)
        );
    }

    #[test]
    fn non_compilable_expressions_rejected() {
        let mut layout = FrameLayout::new();
        layout.slot("x", SlotType::Int);
        layout.slot("s", SlotType::Str);
        for src in [
            "x / 2",                       // division semantics
            "x % 2",                       // modulo
            "s < \"a\"",                   // string ordering
            "for { y <- xs } yield sum y", // comprehension
            "y + 1",                       // unknown path
        ] {
            let e = parse(src).unwrap();
            assert!(
                JitCompiler::try_prepare(&e, &layout).is_none(),
                "{src} should not be compilable"
            );
        }
    }

    #[test]
    fn kernel_matches_interpreter_on_sweep() {
        // Differential test against the calculus interpreter.
        use vida_lang::{eval, Bindings};
        let exprs = [
            "x * 3 - y",
            "x > y",
            "x >= y and x - y < 10",
            "if x = y then x + 1 else y - 1",
            "not (x < y) or x = 0",
        ];
        for src in exprs {
            let expr = parse(src).unwrap();
            let mut layout = FrameLayout::new();
            layout.slot("x", SlotType::Int);
            layout.slot("y", SlotType::Int);
            let mut interner = StringInterner::new();
            let kernel = JitCompiler::new()
                .unwrap()
                .compile(&expr, &layout, &mut interner)
                .unwrap();
            for x in [-3i64, 0, 1, 7, 100] {
                for y in [-2i64, 0, 7, 50] {
                    let frame = [x, y];
                    let jit = kernel.call_value(&frame);
                    let mut env = Bindings::new();
                    env.insert("x".into(), Value::Int(x));
                    env.insert("y".into(), Value::Int(y));
                    let interp = eval(&expr, &env).unwrap();
                    assert!(
                        jit.sem_eq(&interp),
                        "{src} at x={x}, y={y}: jit={jit}, interp={interp}"
                    );
                }
            }
        }
    }

    #[test]
    fn float_comparisons_follow_the_interpreters_total_order() {
        // NaN, signed zeros and infinities, against floats and ints: a
        // comparison kernel answers what the calculus interpreter answers.
        use vida_lang::{eval, Bindings};
        let floats = [
            f64::NAN,
            -f64::NAN,
            -0.0,
            0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.5,
            -2.0,
        ];
        let mut layout = FrameLayout::new();
        layout.slot("f", SlotType::Float);
        layout.slot("g", SlotType::Float);
        layout.slot("i", SlotType::Int);
        let mut interner = StringInterner::new();
        for src in [
            "f < g", "f <= g", "f > g", "f >= g", "f = g", "f != g", "f < i", "i >= f",
        ] {
            let expr = parse(src).unwrap();
            let kernel = JitCompiler::new()
                .unwrap()
                .compile(&expr, &layout, &mut interner)
                .unwrap();
            for f in floats {
                for g in floats {
                    for i in [-2i64, 0, 1] {
                        let jit = kernel.call_value(&[bits(f), bits(g), i]);
                        let mut env = Bindings::new();
                        env.insert("f".into(), Value::Float(f));
                        env.insert("g".into(), Value::Float(g));
                        env.insert("i".into(), Value::Int(i));
                        let interp = eval(&expr, &env).unwrap();
                        assert_eq!(jit, interp, "{src} at f={f}, g={g}, i={i}");
                    }
                }
            }
        }
    }

    #[test]
    fn select_kernel_fuses_predicate_chain() {
        let mut layout = FrameLayout::new();
        layout.slot("x", SlotType::Int);
        layout.slot("y", SlotType::Int);
        let mut interner = StringInterner::new();
        let compile = |src: &str, interner: &mut StringInterner| {
            JitCompiler::new()
                .unwrap()
                .compile(&parse(src).unwrap(), &layout, interner)
                .unwrap()
        };
        let stage = SelectKernel::new(vec![
            compile("x > 2", &mut interner),
            compile("y < 10", &mut interner),
            compile("x != y", &mut interner),
        ]);
        assert_eq!(stage.len(), 3);
        assert!(!stage.is_empty());
        assert!(stage.admit(&[5, 3]));
        assert!(!stage.admit(&[1, 3])); // fails first predicate
        assert!(!stage.admit(&[5, 11])); // fails second
        assert!(!stage.admit(&[5, 5])); // fails third
                                        // An empty stage admits everything (no selects on the scan).
        assert!(SelectKernel::new(Vec::new()).admit(&[0, 0]));
        // call_bool is the predicate form of call.
        let pred = compile("x > 2", &mut interner);
        assert!(pred.call_bool(&[3, 0]));
        assert!(!pred.call_bool(&[2, 0]));
    }

    #[test]
    fn select_kernel_with_order_admits_identically() {
        let mut layout = FrameLayout::new();
        layout.slot("x", SlotType::Int);
        layout.slot("y", SlotType::Int);
        let mut interner = StringInterner::new();
        let compile = |src: &str, interner: &mut StringInterner| {
            JitCompiler::new()
                .unwrap()
                .compile(&parse(src).unwrap(), &layout, interner)
                .unwrap()
        };
        let preds = vec![
            compile("x > 2", &mut interner).with_id(0),
            compile("y < 10", &mut interner).with_id(1),
            compile("x != y", &mut interner).with_id(2),
        ];
        let syntactic = SelectKernel::new(preds.clone());
        let reordered = SelectKernel::with_order(preds, &[2, 0, 1]);
        assert_eq!(reordered.len(), 3);
        // Evaluation order follows the permutation (observable via the ids
        // reported as each predicate runs), and the short-circuit stops the
        // report at the first rejecting predicate...
        let ran = |stage: &SelectKernel, frame: [i64; 2]| {
            let (cols, mut sel, mut ids) = (frame.map(|v| vec![v]), vec![0], Vec::new());
            stage.refine(&cols, &mut sel, &mut BatchScratch::default(), |id, n| {
                assert_eq!(n, 1);
                ids.push(id)
            });
            assert_eq!(sel.len() == 1, stage.admit(&frame));
            ids
        };
        assert_eq!(ran(&reordered, [5, 3]), vec![2, 0, 1]);
        assert_eq!(ran(&reordered, [1, 3]), vec![2, 0]);
        assert_eq!(ran(&syntactic, [1, 3]), vec![0]);
        // ...but admission is identical on every frame: the kernels are
        // pure and total, so only the short-circuit point moves.
        for x in -2..12 {
            for y in -2..12 {
                assert_eq!(
                    syntactic.admit(&[x, y]),
                    reordered.admit(&[x, y]),
                    "x={x} y={y}"
                );
            }
        }
        // Identity permutation is a no-op.
        let same = SelectKernel::with_order(vec![compile("x > 2", &mut interner)], &[0]);
        assert!(same.admit(&[3, 0]) && !same.admit(&[2, 0]));
    }

    /// Slot columns over every slot type, with the values where the two
    /// kernel forms could part: the `i64` edges (wrapping), NaN, ±0.0 and
    /// ±inf, and interned strings. Row `r` is frame `cols[..][r]`.
    fn edge_columns(interner: &mut StringInterner) -> (FrameLayout, Vec<Vec<i64>>) {
        let mut layout = FrameLayout::new();
        for (p, t) in [
            ("i", SlotType::Int),
            ("j", SlotType::Int),
            ("f", SlotType::Float),
            ("g", SlotType::Float),
            ("b", SlotType::Bool),
            ("c", SlotType::Bool),
            ("s", SlotType::Str),
            ("t", SlotType::Str),
        ] {
            layout.slot(p, t);
        }
        let ints = [i64::MAX, i64::MIN, -1, 0, 1, 7, i64::MAX - 1, -(1 << 40)];
        let floats = [
            f64::NAN,
            -0.0,
            0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.5,
            -2.25,
            7.0,
            1e300,
        ]
        .map(bits);
        let strs = ["a", "b", "c"].map(|s| interner.intern(s));
        const ROWS: usize = 97;
        // Co-prime strides walk every pairing of the small value sets.
        let col = |vals: &[i64], stride: usize| {
            (0..ROWS)
                .map(|r| vals[(r * stride + r / vals.len()) % vals.len()])
                .collect::<Vec<_>>()
        };
        let cols = vec![
            col(&ints, 1),
            col(&ints, 3),
            col(&floats, 1),
            col(&floats, 2),
            col(&[0, 1], 1),
            col(&[0, 1], 3),
            col(&strs, 1),
            col(&strs, 2),
        ];
        (layout, cols)
    }

    /// Empty, full, and sparse non-contiguous selection vectors over
    /// `rows` rows.
    fn selections(rows: usize) -> Vec<Vec<u32>> {
        let sparse = (0..rows as u32)
            .filter(|r| r % 7 == 1 || r % 11 == 4)
            .collect();
        vec![
            Vec::new(),
            (0..rows as u32).collect(),
            sparse,
            vec![rows as u32 - 1],
        ]
    }

    fn frame_of(cols: &[Vec<i64>], row: u32) -> Vec<i64> {
        cols.iter().map(|c| c[row as usize]).collect()
    }

    #[test]
    fn batch_and_row_kernels_agree_bit_for_bit() {
        let mut interner = StringInterner::new();
        let (layout, cols) = edge_columns(&mut interner);
        let exprs = [
            // Leaves of every slot type.
            "i",
            "f",
            "b",
            "s",
            "42",
            "0.5",
            // Integer arithmetic at the edges (wrapping), slot ⊙ const and
            // slot ⊙ slot, const ⊙ slot, and trees on either side.
            "i + j",
            "i - j",
            "i * j",
            "i + 1",
            "1 - i",
            "i * 3 - j",
            "3 * (i + j)",
            "(i + j) * (i - j)",
            "-i",
            "-(i - j)",
            "-(-(1))",
            // Mixed-type widening and float arithmetic.
            "f + g",
            "f * i",
            "i - f",
            "2 * f",
            "f - 0.5",
            "i + 0.5",
            "-f",
            "-(f * g)",
            "(i + 1) * f",
            "f * (j - 2)",
            // Comparisons: ints, floats (NaN, ±0.0), mixed, bools, strings.
            "i < j",
            "i <= 7",
            "7 > i",
            "i = j",
            "i != 3",
            "i >= j + 1",
            "j + 1 > i",
            "f < g",
            "f = g",
            "f != g",
            "f >= 0.0",
            "0.0 = f",
            "i < f",
            "f > i",
            "i = f",
            "1.5 <= f",
            "(f + g) < (f * g)",
            "b = c",
            "b != true",
            "s = t",
            "s = \"a\"",
            "\"b\" != s",
            "s != \"zz\"",
            // Connectives and negation.
            "b and c",
            "b or i < j",
            "not b",
            "not (f < g) and c",
            "(i > 0) = b",
            "not (s = t) or (b and not c)",
            // `if` with same-type and mixed branches.
            "if b then i else j",
            "if i > j then f else 1",
            "if c then 2 else f * 2.0",
            "if not b then s else t",
            "if f = g then b else not c",
            "if i < 0 then -i else i * 2",
        ];
        let mut scratch = BatchScratch::default();
        let mut out = Vec::new();
        for src in exprs {
            let expr = parse(src).unwrap();
            let kernel = JitCompiler::new()
                .unwrap()
                .compile(&expr, &layout, &mut interner)
                .unwrap_or_else(|e| panic!("{src}: {e}"));
            for sel in selections(cols[0].len()) {
                kernel.call_batch(&cols, &sel, &mut out, &mut scratch);
                assert_eq!(out.len(), sel.len(), "{src}");
                for (&bits, &row) in out.iter().zip(&sel) {
                    let want = kernel.call(&frame_of(&cols, row));
                    assert_eq!(bits, want, "{src} at row {row}");
                }
            }
        }
    }

    #[test]
    fn refine_credits_what_a_short_circuit_conjunction_runs() {
        let mut interner = StringInterner::new();
        let (layout, cols) = edge_columns(&mut interner);
        let preds: Vec<CompiledKernel> = ["i > 0", "f < g", "s != t", "b or c", "i + j < 5"]
            .iter()
            .enumerate()
            .map(|(id, src)| {
                JitCompiler::new()
                    .unwrap()
                    .compile(&parse(src).unwrap(), &layout, &mut interner)
                    .unwrap()
                    .with_id(id as u32)
            })
            .collect();
        let mut scratch = BatchScratch::default();
        for order in [[0, 1, 2, 3, 4], [3, 4, 1, 0, 2], [2, 0, 4, 3, 1]] {
            let stage = SelectKernel::with_order(preds.clone(), &order);
            for sel in selections(cols[0].len()) {
                // What a frame-at-a-time short-circuit conjunction runs.
                let mut want_hits = [0u64; 5];
                let mut want_rows = Vec::new();
                for &row in &sel {
                    let frame = frame_of(&cols, row);
                    let kept = stage.preds.iter().all(|k| {
                        want_hits[k.id() as usize] += 1;
                        k.call_bool(&frame)
                    });
                    if kept {
                        want_rows.push(row);
                    }
                }
                let mut hits = [0u64; 5];
                let mut rows = sel.clone();
                stage.refine(&cols, &mut rows, &mut scratch, |id, n| {
                    hits[id as usize] += n
                });
                assert_eq!(rows, want_rows, "order {order:?}");
                assert_eq!(hits, want_hits, "order {order:?}");
            }
        }
    }

    #[test]
    fn kernels_are_send_and_reusable() {
        let mut layout = FrameLayout::new();
        layout.slot("x", SlotType::Int);
        let mut interner = StringInterner::new();
        let kernel = JitCompiler::new()
            .unwrap()
            .compile(&parse("x + 1").unwrap(), &layout, &mut interner)
            .unwrap();
        let k2 = kernel.clone();
        let h = std::thread::spawn(move || k2.call(&[41]));
        assert_eq!(h.join().unwrap(), 42);
        assert_eq!(kernel.call(&[1]), 2);
    }
}
