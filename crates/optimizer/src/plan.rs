//! Plan-level cost-based optimization: join-order search over estimated
//! cardinalities.
//!
//! [`reorder_joins`] takes the left-deepened input of a `Reduce` (the shape
//! the exec pipeline lowers), decomposes it into scan leaves plus a pool of
//! conjuncts, estimates per-leaf and per-join cardinalities from a
//! [`PlanStats`] source (base row counts, distinct sketches, observed
//! predicate selectivities), and greedily rebuilds the cheapest left-deep
//! order. Because the streaming pipelines always build a hash table on the
//! *right* side of each join, choosing the join order *is* choosing the
//! build sides: the greedy step picks the smallest estimated relation as
//! the first build.
//!
//! ## When reordering is skipped
//!
//! Reordering changes which tuples each conjunct is evaluated against, so
//! it is only applied when the result is provably invariant:
//!
//! - the reduce monoid is order-insensitive (`Primitive` or `Set`) — the
//!   caller gates this;
//! - every conjunct in the pool is **total-safe**: a comparison
//!   (`= != < <= > >=`) or boolean literal over variables, single-level
//!   projections, and scalar constants. Under the engine's null semantics
//!   those never error (ordered comparisons with null are `false`, `=`/`!=`
//!   treat null as a comparable value), so evaluating them against a
//!   different tuple set cannot introduce or suppress an error;
//! - the spine is pure scans/selects/joins (no `Unnest`), with 2–8 leaves,
//!   and every leaf has a known base cardinality.
//!
//! Anything else returns the plan untouched with
//! [`PlanOptReport::eligible`] `= false` — correctness is never traded for
//! coverage.

use std::collections::HashMap;

use vida_algebra::lower::{conjoin_all, split_conjuncts, UNIT_DATASET};
use vida_algebra::Plan;
use vida_lang::{BinOp, Expr};
use vida_types::Value;

/// Maximum number of scan leaves the greedy search will consider. Beyond
/// this the O(n²) pairwise scan still works, but plans that large never
/// come out of the front end; bail rather than trust unexercised code.
const MAX_LEAVES: usize = 8;

/// Default selectivities when no observed statistics exist for a conjunct.
const SEL_RANGE: f64 = 1.0 / 3.0;
const SEL_NE: f64 = 0.9;
const SEL_UNKNOWN: f64 = 0.5;

/// Statistics source for cardinality estimation. The exec crate adapts its
/// catalog + [`crate::CostModel`] sketches to this; tests use a plain map.
pub trait PlanStats {
    /// Base row count of a dataset (`None` = unknown → reordering bails).
    fn base_rows(&self, dataset: &str) -> Option<f64>;
    /// Estimated distinct count of a field (`None` = no sketch yet).
    fn distinct(&self, dataset: &str, field: &str) -> Option<f64>;
    /// Observed pass rate of a predicate over `dataset`, keyed by the
    /// dataset and the predicate's display string.
    fn predicate_selectivity(&self, dataset: &str, predicate: &str) -> Option<f64>;
}

/// Map-backed [`PlanStats`] for tests and offline experiments.
#[derive(Default)]
pub struct TableStats {
    pub rows: HashMap<String, f64>,
    pub distincts: HashMap<(String, String), f64>,
    /// Keyed by `(dataset, predicate display string)`.
    pub selectivities: HashMap<(String, String), f64>,
}

impl TableStats {
    pub fn with_rows(pairs: &[(&str, f64)]) -> Self {
        TableStats {
            rows: pairs.iter().map(|(d, r)| (d.to_string(), *r)).collect(),
            ..TableStats::default()
        }
    }
}

impl PlanStats for TableStats {
    fn base_rows(&self, dataset: &str) -> Option<f64> {
        self.rows.get(dataset).copied()
    }
    fn distinct(&self, dataset: &str, field: &str) -> Option<f64> {
        self.distincts
            .get(&(dataset.to_string(), field.to_string()))
            .copied()
    }
    fn predicate_selectivity(&self, dataset: &str, predicate: &str) -> Option<f64> {
        self.selectivities
            .get(&(dataset.to_string(), predicate.to_string()))
            .copied()
    }
}

/// What the optimizer did (or why it declined).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlanOptReport {
    /// Number of leaves moved away from their original position (0 when
    /// the original order was already optimal).
    pub joins_reordered: u32,
    /// Estimated output cardinality of the chosen order (rows before the
    /// reduce head), 0.0 when ineligible.
    pub estimated_rows: f64,
    /// False when the plan shape / conjunct pool / statistics made
    /// reordering unsafe or impossible — the plan was returned untouched.
    pub eligible: bool,
}

/// One scan leaf of the decomposed spine.
struct Leaf {
    dataset: String,
    binding: String,
    /// Conjuncts referencing only this leaf (plus free-variable-less ones
    /// parked on the first leaf).
    local: Vec<Expr>,
    /// Base rows × Π local selectivities.
    card: f64,
}

/// A conjunct spanning ≥2 leaves, with the leaf indices it references.
struct CrossConjunct {
    expr: Expr,
    leaves: Vec<usize>,
}

/// Cost-based join reordering (see the module docs). Returns the possibly
/// rebuilt plan and a report; when `report.eligible` is false (or
/// `joins_reordered` is 0) the returned plan is structurally identical to
/// the input.
pub fn reorder_joins(plan: &Plan, stats: &dyn PlanStats) -> (Plan, PlanOptReport) {
    let untouched = || (plan.clone(), PlanOptReport::default());

    // ---- Decompose the left-deep spine into leaves + conjunct pool. ----
    let mut scans: Vec<(String, String)> = Vec::new(); // (dataset, binding)
    let mut pool: Vec<Expr> = Vec::new();
    if !decompose(plan, &mut scans, &mut pool) {
        return untouched();
    }
    if scans.len() < 2 || scans.len() > MAX_LEAVES {
        return untouched();
    }
    if scans.iter().any(|(d, _)| d == UNIT_DATASET) {
        return untouched();
    }
    // Reordering moves conjuncts across evaluation sets; require totality.
    if !pool.iter().all(total_safe) {
        return untouched();
    }

    // ---- Build leaves with known base cardinalities. ----
    let binding_of: HashMap<&str, usize> = scans
        .iter()
        .enumerate()
        .map(|(i, (_, b))| (b.as_str(), i))
        .collect();
    let mut leaves: Vec<Leaf> = Vec::with_capacity(scans.len());
    for (dataset, binding) in &scans {
        let Some(rows) = stats.base_rows(dataset) else {
            return untouched();
        };
        leaves.push(Leaf {
            dataset: dataset.clone(),
            binding: binding.clone(),
            local: Vec::new(),
            card: rows.max(1.0),
        });
    }

    // ---- Assign conjuncts: local to one leaf, or cross-leaf. ----
    let mut cross: Vec<CrossConjunct> = Vec::new();
    for c in pool {
        let fv = c.free_vars();
        let mut touched: Vec<usize> = Vec::new();
        for v in &fv {
            match binding_of.get(v.as_str()) {
                Some(&i) if !touched.contains(&i) => touched.push(i),
                Some(_) => {}
                // A free variable that is not a leaf binding (outer dataset
                // reference) — evaluation depends on context we don't model.
                None => return untouched(),
            }
        }
        match touched.len() {
            // No free variables: constant predicate, park on the first leaf.
            0 => leaves[0].local.push(c),
            1 => {
                let i = touched[0];
                leaves[i].card *= local_selectivity(&c, &leaves[i], stats);
                leaves[i].local.push(c);
            }
            _ => {
                touched.sort_unstable();
                cross.push(CrossConjunct {
                    expr: c,
                    leaves: touched,
                });
            }
        }
    }
    for l in &mut leaves {
        l.card = l.card.max(1.0);
    }

    // ---- Greedy order search over estimated cardinalities. ----
    let n = leaves.len();
    let order = greedy_order(&leaves, &cross, stats);
    debug_assert_eq!(order.len(), n);
    let est = estimate_order(&order, &leaves, &cross, stats);

    let moved = order.iter().enumerate().filter(|&(k, &i)| k != i).count() as u32;
    if moved == 0 {
        return (
            plan.clone(),
            PlanOptReport {
                joins_reordered: 0,
                estimated_rows: est,
                eligible: true,
            },
        );
    }

    // ---- Rebuild a left-deep plan in the chosen order. ----
    let rebuilt = rebuild(&order, leaves, cross);
    (
        rebuilt,
        PlanOptReport {
            joins_reordered: moved,
            estimated_rows: est,
            eligible: true,
        },
    )
}

/// Walk a left-deep select/join/scan spine, collecting `(dataset, binding)`
/// leaves in binding order and all predicates into `pool`. Returns false on
/// any shape reordering can't handle (`Unnest`, nested `Reduce`).
fn decompose(plan: &Plan, scans: &mut Vec<(String, String)>, pool: &mut Vec<Expr>) -> bool {
    match plan {
        Plan::Scan { dataset, binding } => {
            scans.push((dataset.clone(), binding.clone()));
            true
        }
        Plan::Select { input, predicate } => {
            split_conjuncts(predicate, pool);
            decompose(input, scans, pool)
        }
        Plan::Join {
            left,
            right,
            predicate,
        } => {
            split_conjuncts(predicate, pool);
            decompose(left, scans, pool) && decompose(right, scans, pool)
        }
        Plan::Unnest { .. } | Plan::Reduce { .. } => false,
    }
}

/// A conjunct is total-safe when moving it to a different evaluation set
/// cannot change error behavior: comparisons and boolean literals over
/// variables, single-level projections, and scalar constants (see module
/// docs for the null-semantics argument).
fn total_safe(e: &Expr) -> bool {
    fn safe_operand(e: &Expr) -> bool {
        match e {
            Expr::Const(v) => matches!(
                v,
                Value::Null | Value::Bool(_) | Value::Int(_) | Value::Float(_) | Value::Str(_)
            ),
            Expr::Var(_) => true,
            Expr::Proj(inner, _) => matches!(inner.as_ref(), Expr::Var(_)),
            _ => false,
        }
    }
    match e {
        Expr::Const(Value::Bool(_)) => true,
        Expr::BinOp(op, l, r) => {
            matches!(
                op,
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
            ) && safe_operand(l)
                && safe_operand(r)
        }
        _ => false,
    }
}

/// Estimated pass rate of a single-leaf conjunct: observed counters first,
/// then a distinct-sketch / shape heuristic.
fn local_selectivity(c: &Expr, leaf: &Leaf, stats: &dyn PlanStats) -> f64 {
    if let Some(s) = stats.predicate_selectivity(&leaf.dataset, &c.to_string()) {
        return s.clamp(0.0, 1.0).max(1.0 / leaf.card.max(1.0));
    }
    match c {
        Expr::BinOp(BinOp::Eq, l, r) => {
            // `x.f = const` → 1/distinct(f), defaulting to 1/rows.
            let d = [l.as_ref(), r.as_ref()]
                .iter()
                .find_map(|e| proj_field(e).and_then(|f| stats.distinct(&leaf.dataset, f)))
                .unwrap_or(leaf.card);
            (1.0 / d.max(1.0)).clamp(1.0 / leaf.card.max(1.0), 1.0)
        }
        Expr::BinOp(BinOp::Ne, ..) => SEL_NE,
        Expr::BinOp(BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge, ..) => SEL_RANGE,
        _ => SEL_UNKNOWN,
    }
}

/// `x.f` → `Some("f")`.
fn proj_field(e: &Expr) -> Option<&str> {
    match e {
        Expr::Proj(inner, field) if matches!(inner.as_ref(), Expr::Var(_)) => Some(field),
        _ => None,
    }
}

/// Selectivity of one cross conjunct once all its leaves are bound.
fn join_selectivity(c: &CrossConjunct, leaves: &[Leaf], stats: &dyn PlanStats) -> f64 {
    match &c.expr {
        Expr::BinOp(BinOp::Eq, l, r) => {
            // Equi-join: 1 / max(distinct(left key), distinct(right key)),
            // falling back to the (filtered) leaf cardinality per side.
            let mut dmax = 1.0f64;
            for side in [l.as_ref(), r.as_ref()] {
                if let Expr::Proj(inner, field) = side {
                    if let Expr::Var(b) = inner.as_ref() {
                        if let Some(i) = leaves.iter().position(|lf| &lf.binding == b) {
                            let d = stats
                                .distinct(&leaves[i].dataset, field)
                                .unwrap_or(leaves[i].card);
                            dmax = dmax.max(d);
                        }
                    }
                }
            }
            1.0 / dmax.max(1.0)
        }
        Expr::BinOp(BinOp::Ne, ..) => SEL_NE,
        Expr::BinOp(BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge, ..) => {
            // Band/range join.
            0.25
        }
        _ => SEL_UNKNOWN,
    }
}

/// Estimated cardinality of joining `joined_set` (cardinality `card`) with
/// leaf `j`, applying every cross conjunct that becomes fully bound.
fn extend_card(
    card: f64,
    joined: &[usize],
    j: usize,
    leaves: &[Leaf],
    cross: &[CrossConjunct],
    stats: &dyn PlanStats,
) -> f64 {
    let mut out = card * leaves[j].card;
    for c in cross {
        let bound_now = c.leaves.iter().all(|&i| i == j || joined.contains(&i));
        let bound_before = c.leaves.iter().all(|&i| joined.contains(&i));
        if bound_now && !bound_before {
            out *= join_selectivity(c, leaves, stats);
        }
    }
    out.max(1.0)
}

/// Greedy smallest-intermediate-first order. Deterministic: ties break on
/// smaller leaf cardinality, then original position.
fn greedy_order(leaves: &[Leaf], cross: &[CrossConjunct], stats: &dyn PlanStats) -> Vec<usize> {
    let n = leaves.len();
    // Seed: the ordered pair (probe, build) with the smallest join output;
    // ties prefer the smaller build side, then original positions.
    let mut best: Option<(f64, f64, usize, usize)> = None;
    for a in 0..n {
        for b in 0..n {
            if a == b {
                continue;
            }
            let card = extend_card(leaves[a].card, &[a], b, leaves, cross, stats);
            let key = (card, leaves[b].card, a, b);
            let better = match &best {
                None => true,
                Some((c0, b0, a0, b1)) => (key.0, key.1, key.2, key.3) < (*c0, *b0, *a0, *b1),
            };
            if better {
                best = Some(key);
            }
        }
    }
    let (mut card, _, a, b) = best.expect("n >= 2");
    let mut order = vec![a, b];
    while order.len() < n {
        let mut next: Option<(f64, f64, usize)> = None;
        for (j, leaf) in leaves.iter().enumerate() {
            if order.contains(&j) {
                continue;
            }
            let c = extend_card(card, &order, j, leaves, cross, stats);
            let key = (c, leaf.card, j);
            if next.map_or(true, |k| key < k) {
                next = Some(key);
            }
        }
        let (c, _, j) = next.expect("unplaced leaf exists");
        card = c;
        order.push(j);
    }
    order
}

/// Estimated output cardinality of a full order.
fn estimate_order(
    order: &[usize],
    leaves: &[Leaf],
    cross: &[CrossConjunct],
    stats: &dyn PlanStats,
) -> f64 {
    let mut card = leaves[order[0]].card;
    let mut joined = vec![order[0]];
    for &j in &order[1..] {
        card = extend_card(card, &joined, j, leaves, cross, stats);
        joined.push(j);
    }
    card
}

/// Rebuild a left-deep plan in `order`: local conjuncts become `Select`s
/// directly above their scan (filtering before any build materializes),
/// cross conjuncts attach at the first join where all their leaves are
/// bound.
fn rebuild(order: &[usize], mut leaves: Vec<Leaf>, cross: Vec<CrossConjunct>) -> Plan {
    let leaf_plan = |leaf: &mut Leaf| -> Plan {
        let scan = Plan::Scan {
            dataset: std::mem::take(&mut leaf.dataset),
            binding: std::mem::take(&mut leaf.binding),
        };
        let local = std::mem::take(&mut leaf.local);
        if local.is_empty() {
            scan
        } else {
            Plan::Select {
                input: Box::new(scan),
                predicate: conjoin_all(local),
            }
        }
    };

    let mut used = vec![false; cross.len()];
    let mut bound: Vec<usize> = vec![order[0]];
    let mut plan = leaf_plan(&mut leaves[order[0]]);
    for &j in &order[1..] {
        bound.push(j);
        let mut preds: Vec<Expr> = Vec::new();
        for (k, c) in cross.iter().enumerate() {
            if !used[k] && c.leaves.iter().all(|i| bound.contains(i)) {
                used[k] = true;
                preds.push(c.expr.clone());
            }
        }
        plan = Plan::Join {
            left: Box::new(plan),
            right: Box::new(leaf_plan(&mut leaves[j])),
            predicate: conjoin_all(preds),
        };
    }
    debug_assert!(used.iter().all(|&u| u));
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use vida_lang::parse;

    fn scan(ds: &str, b: &str) -> Plan {
        Plan::Scan {
            dataset: ds.into(),
            binding: b.into(),
        }
    }

    fn join(l: Plan, r: Plan, pred: &str) -> Plan {
        Plan::Join {
            left: Box::new(l),
            right: Box::new(r),
            predicate: parse(pred).unwrap(),
        }
    }

    #[test]
    fn two_way_join_swaps_to_small_build_side() {
        // Fact ⋈ Dim with Fact as build side (right): swap so the tiny
        // dimension is built instead.
        let plan = join(scan("Dim", "d"), scan("Fact", "f"), "d.id = f.id");
        let stats = TableStats::with_rows(&[("Dim", 10.0), ("Fact", 100_000.0)]);
        let (out, report) = reorder_joins(&plan, &stats);
        assert!(report.eligible);
        assert_eq!(report.joins_reordered, 2);
        assert_eq!(out.bound_vars(), vec!["f".to_string(), "d".to_string()]);
    }

    #[test]
    fn misordered_three_way_reorders_to_smallest_intermediates() {
        // ((Dim ⋈ F1) ⋈ F2): building both facts is the worst order.
        let plan = join(
            join(scan("Dim", "d"), scan("F1", "a"), "d.id = a.id"),
            scan("F2", "b"),
            "a.id = b.id",
        );
        let stats = TableStats::with_rows(&[("Dim", 50.0), ("F1", 20_000.0), ("F2", 20_000.0)]);
        let (out, report) = reorder_joins(&plan, &stats);
        assert!(report.eligible);
        assert!(report.joins_reordered >= 1);
        // The large fact probes, the tiny dimension is the first build.
        assert_eq!(
            out.bound_vars(),
            vec!["a".to_string(), "d".to_string(), "b".to_string()]
        );
        assert!(report.estimated_rows >= 1.0);
    }

    #[test]
    fn already_optimal_plan_is_untouched() {
        let plan = join(scan("Fact", "f"), scan("Dim", "d"), "f.id = d.id");
        let stats = TableStats::with_rows(&[("Dim", 10.0), ("Fact", 100_000.0)]);
        let (out, report) = reorder_joins(&plan, &stats);
        assert!(report.eligible);
        assert_eq!(report.joins_reordered, 0);
        assert_eq!(out, plan);
    }

    #[test]
    fn local_conjuncts_move_below_the_build() {
        // A filter on the dimension sits at join level; after reordering it
        // must sit directly above the Dim scan so the build is filtered.
        let plan = Plan::Select {
            input: Box::new(join(scan("Dim", "d"), scan("Fact", "f"), "d.id = f.id")),
            predicate: parse("d.kind = 3").unwrap(),
        };
        let stats = TableStats::with_rows(&[("Dim", 10.0), ("Fact", 100_000.0)]);
        let (out, report) = reorder_joins(&plan, &stats);
        assert!(report.eligible && report.joins_reordered > 0);
        let Plan::Join { right, .. } = &out else {
            panic!("expected join root, got {out}");
        };
        let Plan::Select { input, predicate } = right.as_ref() else {
            panic!("expected filtered build side, got {right}");
        };
        assert_eq!(predicate.to_string(), "(d.kind = 3)");
        assert!(matches!(input.as_ref(), Plan::Scan { binding, .. } if binding == "d"));
    }

    #[test]
    fn selectivity_estimates_shift_the_order() {
        // Both relations same size, but an observed highly-selective filter
        // on B makes it the cheaper build side.
        let plan = Plan::Select {
            input: Box::new(join(scan("B", "b"), scan("A", "a"), "b.k = a.k")),
            predicate: parse("b.x = 1").unwrap(),
        };
        let mut stats = TableStats::with_rows(&[("A", 1_000.0), ("B", 1_000.0)]);
        stats
            .selectivities
            .insert(("B".to_string(), "(b.x = 1)".to_string()), 0.001);
        let (out, report) = reorder_joins(&plan, &stats);
        assert!(report.eligible);
        assert_eq!(report.joins_reordered, 2);
        assert_eq!(out.bound_vars(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn distinct_sketch_drives_equi_join_selectivity() {
        // X joins Y on a low-distinct key (fan-out) and Z on a near-unique
        // key. Without sketches the two joins look identical and the
        // original order stands; with them the optimizer joins Z first.
        let plan = join(
            join(scan("X", "x"), scan("Y", "y"), "x.j = y.j"),
            scan("Z", "z"),
            "x.k = z.k",
        );
        let blind = TableStats::with_rows(&[("X", 1_000.0), ("Y", 1_000.0), ("Z", 1_000.0)]);
        let (_, base) = reorder_joins(&plan, &blind);
        assert!(base.eligible);
        assert_eq!(base.joins_reordered, 0);

        let mut stats = TableStats::with_rows(&[("X", 1_000.0), ("Y", 1_000.0), ("Z", 1_000.0)]);
        stats.distincts.insert(("X".into(), "j".into()), 10.0);
        stats.distincts.insert(("Y".into(), "j".into()), 10.0);
        stats.distincts.insert(("X".into(), "k".into()), 1_000.0);
        stats.distincts.insert(("Z".into(), "k".into()), 1_000.0);
        let (out, report) = reorder_joins(&plan, &stats);
        assert!(report.eligible);
        assert_eq!(report.joins_reordered, 2);
        assert_eq!(
            out.bound_vars(),
            vec!["x".to_string(), "z".to_string(), "y".to_string()]
        );
    }

    #[test]
    fn bails_on_unnest_unknown_rows_unsafe_conjuncts_and_unit() {
        let stats = TableStats::with_rows(&[("A", 10.0), ("B", 1_000.0)]);

        // Unnest anywhere in the spine.
        let with_unnest = join(
            Plan::Unnest {
                input: Box::new(scan("A", "a")),
                binding: "e".into(),
                path: parse("a.xs").unwrap(),
            },
            scan("B", "b"),
            "e.k = b.k",
        );
        assert!(!reorder_joins(&with_unnest, &stats).1.eligible);

        // Unknown base rows.
        let unknown = join(scan("A", "a"), scan("Mystery", "m"), "a.k = m.k");
        assert!(!reorder_joins(&unknown, &stats).1.eligible);

        // Arithmetic inside a conjunct is not total-safe (can overflow).
        let unsafe_pred = join(scan("A", "a"), scan("B", "b"), "a.k + 1 = b.k");
        assert!(!reorder_joins(&unsafe_pred, &stats).1.eligible);

        // Unit-dataset leaves never reorder.
        let mut stats2 = TableStats::with_rows(&[("A", 10.0), ("B", 1_000.0)]);
        stats2.rows.insert(UNIT_DATASET.to_string(), 1.0);
        let unit = join(scan(UNIT_DATASET, "u"), scan("B", "b"), "true");
        assert!(!reorder_joins(&unit, &stats2).1.eligible);

        // Single scan: nothing to reorder.
        assert!(!reorder_joins(&scan("A", "a"), &stats).1.eligible);
    }

    #[test]
    fn cross_join_without_connector_orders_by_size() {
        // Small already on the build (right) side → untouched.
        let stats = TableStats::with_rows(&[("Big", 10_000.0), ("Small", 3.0)]);
        let good = join(scan("Big", "b"), scan("Small", "s"), "true");
        let (_, report) = reorder_joins(&good, &stats);
        assert!(report.eligible);
        assert_eq!(report.joins_reordered, 0);

        // Big on the build side → swapped.
        let bad = join(scan("Small", "s"), scan("Big", "b"), "true");
        let (out, report) = reorder_joins(&bad, &stats);
        assert!(report.eligible);
        assert_eq!(report.joins_reordered, 2);
        assert_eq!(out.bound_vars(), vec!["b".to_string(), "s".to_string()]);
    }
}
