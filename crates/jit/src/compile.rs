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

/// One fused scalar kernel: `fn(&[i64]) -> i64` over a frame laid out
/// according to the [`FrameLayout`] it was compiled against.
type Kern = Box<dyn Fn(&[i64]) -> i64 + Send + Sync>;

/// A finalized kernel. Cheap to clone and safe to call from any thread.
#[derive(Clone)]
pub struct CompiledKernel {
    func: Arc<Kern>,
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
        (self.func)(frame)
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

/// A fused select stage for push pipelines: the conjunction of compiled
/// boolean kernels, evaluated short-circuit over one frame.
///
/// This is the kernel-level form of a filter chain in streaming execution:
/// instead of producing a boolean column (or a filtered tuple vector) per
/// predicate, the stage decides per frame and the caller forwards
/// survivors straight into the next stage's sink — no intermediate
/// materialization.
#[derive(Clone)]
pub struct SelectKernel {
    preds: Vec<CompiledKernel>,
}

impl SelectKernel {
    /// Fuse `preds` (each a boolean kernel) into one select stage.
    pub fn new(preds: Vec<CompiledKernel>) -> Self {
        debug_assert!(preds.iter().all(|k| k.output() == SlotType::Bool));
        SelectKernel { preds }
    }

    /// Fuse `preds` evaluating in `order` (a permutation of `0..preds.len()`
    /// ranked by the plan optimizer: cheapest-and-most-selective first).
    /// Compiled predicate kernels are pure and total, so any evaluation
    /// order admits exactly the same frames; only the short-circuit point
    /// moves.
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

    /// Does `frame` satisfy every predicate? Short-circuits on the first
    /// failure, like the chained serial selects it replaces.
    #[inline]
    pub fn admit(&self, frame: &[i64]) -> bool {
        self.admit_reporting(frame, |_| ())
    }

    /// [`SelectKernel::admit`] that reports the id of each predicate it
    /// actually ran, in evaluation order — the conjuncts after a rejecting
    /// one are not reported, because they did not run.
    #[inline]
    pub fn admit_reporting(&self, frame: &[i64], mut ran: impl FnMut(u32)) -> bool {
        self.preds.iter().all(|k| {
            ran(k.id());
            k.call_bool(frame)
        })
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

    /// Compile `expr`. String constants are interned through `interner` —
    /// the same interner the frame builder uses at runtime.
    pub fn compile(
        self,
        expr: &Expr,
        layout: &FrameLayout,
        interner: &mut StringInterner,
    ) -> Result<CompiledKernel> {
        let output = infer(expr, layout)
            .ok_or_else(|| VidaError::Codegen(format!("expression not compilable: {expr}")))?;
        let (func, ty) = emit(expr, layout, interner)?;
        debug_assert_eq!(ty, output);
        Ok(CompiledKernel {
            func: Arc::new(func),
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

/// Widen a kernel to produce float bits regardless of its numeric type.
fn as_float(k: Kern, ty: SlotType) -> Kern {
    match ty {
        SlotType::Int => Box::new(move |f| bits(k(f) as f64)),
        _ => k,
    }
}

fn emit(
    expr: &Expr,
    layout: &FrameLayout,
    interner: &mut StringInterner,
) -> Result<(Kern, SlotType)> {
    match expr {
        Expr::Const(Value::Int(i)) => {
            let i = *i;
            Ok((Box::new(move |_| i), SlotType::Int))
        }
        Expr::Const(Value::Float(x)) => {
            let b = bits(*x);
            Ok((Box::new(move |_| b), SlotType::Float))
        }
        Expr::Const(Value::Bool(b)) => {
            let b = *b as i64;
            Ok((Box::new(move |_| b), SlotType::Bool))
        }
        Expr::Const(Value::Str(s)) => {
            let id = interner.intern(s);
            Ok((Box::new(move |_| id), SlotType::Str))
        }
        Expr::Var(_) | Expr::Proj(..) => {
            let path =
                path_of(expr).ok_or_else(|| VidaError::Codegen(format!("bad path {expr}")))?;
            let (slot, ty) = layout
                .lookup(&path)
                .ok_or_else(|| VidaError::Codegen(format!("path '{path}' not in frame layout")))?;
            Ok((Box::new(move |f: &[i64]| f[slot]), ty))
        }
        Expr::BinOp(op, l, r) => {
            let (lk, lt) = emit(l, layout, interner)?;
            let (rk, rt) = emit(r, layout, interner)?;
            emit_binop(*op, lk, lt, rk, rt)
        }
        Expr::UnOp(UnOp::Not, e) => {
            let (k, _) = emit(e, layout, interner)?;
            Ok((Box::new(move |f| k(f) ^ 1), SlotType::Bool))
        }
        Expr::UnOp(UnOp::Neg, e) => {
            let (k, t) = emit(e, layout, interner)?;
            Ok(match t {
                SlotType::Float => (
                    Box::new(move |f: &[i64]| bits(-fval(k(f)))) as Kern,
                    SlotType::Float,
                ),
                _ => (Box::new(move |f| k(f).wrapping_neg()), SlotType::Int),
            })
        }
        Expr::If(c, t, f) => {
            let (ck, _) = emit(c, layout, interner)?;
            let (tk, tt) = emit(t, layout, interner)?;
            let (fk, ft) = emit(f, layout, interner)?;
            // Unify numeric branches.
            let (tk, fk, ty) = match (tt, ft) {
                (a, b) if a == b => (tk, fk, a),
                (SlotType::Int, SlotType::Float) => {
                    (as_float(tk, SlotType::Int), fk, SlotType::Float)
                }
                (SlotType::Float, SlotType::Int) => {
                    (tk, as_float(fk, SlotType::Int), SlotType::Float)
                }
                _ => {
                    return Err(VidaError::Codegen(
                        "if branches with incompatible slot types".into(),
                    ))
                }
            };
            Ok((
                Box::new(move |f| if ck(f) != 0 { tk(f) } else { fk(f) }),
                ty,
            ))
        }
        other => Err(VidaError::Codegen(format!("not compilable: {other}"))),
    }
}

fn emit_binop(
    op: BinOp,
    lk: Kern,
    lt: SlotType,
    rk: Kern,
    rt: SlotType,
) -> Result<(Kern, SlotType)> {
    let both_int = lt == SlotType::Int && rt == SlotType::Int;
    let numeric = |t: SlotType| matches!(t, SlotType::Int | SlotType::Float);
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul => {
            if both_int {
                let k: Kern = match op {
                    BinOp::Add => Box::new(move |f| lk(f).wrapping_add(rk(f))),
                    BinOp::Sub => Box::new(move |f| lk(f).wrapping_sub(rk(f))),
                    _ => Box::new(move |f| lk(f).wrapping_mul(rk(f))),
                };
                Ok((k, SlotType::Int))
            } else {
                let a = as_float(lk, lt);
                let b = as_float(rk, rt);
                let k: Kern = match op {
                    BinOp::Add => Box::new(move |f| bits(fval(a(f)) + fval(b(f)))),
                    BinOp::Sub => Box::new(move |f| bits(fval(a(f)) - fval(b(f)))),
                    _ => Box::new(move |f| bits(fval(a(f)) * fval(b(f)))),
                };
                Ok((k, SlotType::Float))
            }
        }
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let k: Kern = if numeric(lt) && numeric(rt) && !both_int {
                let a = as_float(lk, lt);
                let b = as_float(rk, rt);
                match op {
                    BinOp::Eq => Box::new(move |f| (fval(a(f)) == fval(b(f))) as i64),
                    BinOp::Ne => Box::new(move |f| (fval(a(f)) != fval(b(f))) as i64),
                    BinOp::Lt => Box::new(move |f| (fval(a(f)) < fval(b(f))) as i64),
                    BinOp::Le => Box::new(move |f| (fval(a(f)) <= fval(b(f))) as i64),
                    BinOp::Gt => Box::new(move |f| (fval(a(f)) > fval(b(f))) as i64),
                    _ => Box::new(move |f| (fval(a(f)) >= fval(b(f))) as i64),
                }
            } else {
                // Ints, interned strings (eq/ne only), bools.
                match op {
                    BinOp::Eq => Box::new(move |f| (lk(f) == rk(f)) as i64),
                    BinOp::Ne => Box::new(move |f| (lk(f) != rk(f)) as i64),
                    BinOp::Lt => Box::new(move |f| (lk(f) < rk(f)) as i64),
                    BinOp::Le => Box::new(move |f| (lk(f) <= rk(f)) as i64),
                    BinOp::Gt => Box::new(move |f| (lk(f) > rk(f)) as i64),
                    _ => Box::new(move |f| (lk(f) >= rk(f)) as i64),
                }
            };
            Ok((k, SlotType::Bool))
        }
        BinOp::And => Ok((Box::new(move |f| lk(f) & rk(f)), SlotType::Bool)),
        BinOp::Or => Ok((Box::new(move |f| lk(f) | rk(f)), SlotType::Bool)),
        BinOp::Div | BinOp::Mod => Err(VidaError::Codegen(
            "division stays on the interpreted path".into(),
        )),
    }
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
        let ran = |stage: &SelectKernel, frame: &[i64]| {
            let mut ids = Vec::new();
            let admitted = stage.admit_reporting(frame, |id| ids.push(id));
            assert_eq!(admitted, stage.admit(frame));
            ids
        };
        assert_eq!(ran(&reordered, &[5, 3]), vec![2, 0, 1]);
        assert_eq!(ran(&reordered, &[1, 3]), vec![2, 0]);
        assert_eq!(ran(&syntactic, &[1, 3]), vec![0]);
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
