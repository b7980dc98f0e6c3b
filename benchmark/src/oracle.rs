//! The correctness oracle: every timed answer is compared with one
//! computed here, from the generated data, by plain loops.
//!
//! The issue asked for `run_volcano` over a fresh catalog as the oracle.
//! Its joins are nested loops — 40 HBP queries over 3 000 rows take 33 s —
//! so it cannot check a run that has to finish in seconds. The oracle below
//! shares no code with any engine path (it does not even use the engine's
//! file readers), and `tests/contract.rs` pins it to `run_volcano` on
//! fixtures small enough for the interpreter.

use crate::fixtures::{Cell, Kind, Tables};
use vida_types::Value;
use vida_workload::QuerySpec;

/// One query of a workload stream: the text the engine gets, and what the
/// oracle needs to answer it.
#[derive(Debug, Clone)]
pub struct Query {
    pub text: String,
    pub spec: Spec,
}

#[derive(Debug, Clone)]
pub enum Spec {
    /// A `vida_workload` template, recognised by the shape of its text.
    Template,
    /// A filter+aggregate over one column of a wide fixture.
    Wide(WideSpec),
}

#[derive(Debug, Clone)]
pub struct WideSpec {
    pub kind: Kind,
    pub col: usize,
    pub op: WideOp,
}

#[derive(Debug, Clone)]
pub enum WideOp {
    /// `c0 < key`, `sum` of an int column.
    SumBelow(i64),
    /// `c0 < key`, `avg` of a float column.
    AvgBelow(i64),
    /// `count` of the rows whose string column equals a plain literal.
    CountEq(String),
}

impl From<QuerySpec> for Query {
    fn from(q: QuerySpec) -> Self {
        Query {
            text: q.text,
            spec: Spec::Template,
        }
    }
}

impl WideSpec {
    pub fn into_query(self) -> Query {
        let (ds, c) = (self.kind.name(), self.col);
        let text = match &self.op {
            WideOp::SumBelow(k) => format!("for {{ w <- {ds}, w.c0 < {k} }} yield sum w.c{c}"),
            WideOp::AvgBelow(k) => format!("for {{ w <- {ds}, w.c0 < {k} }} yield avg w.c{c}"),
            WideOp::CountEq(lit) => {
                format!("for {{ w <- {ds}, w.c{c} = \"{lit}\" }} yield count w")
            }
        };
        Query {
            text,
            spec: Spec::Wide(self),
        }
    }
}

/// Split a template text into its shape (numbers replaced by `#`) and the
/// numbers. Digits glued to a name (`c12`) are part of the name.
pub fn shape_of(text: &str) -> (String, Vec<f64>) {
    let mut shape = String::with_capacity(text.len());
    let mut numbers = Vec::new();
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let in_name = i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_');
        if c.is_ascii_digit() && !in_name {
            let start = i;
            while i < chars.len() && chars[i].is_ascii_digit() {
                i += 1;
            }
            if chars.get(i) == Some(&'.') && chars.get(i + 1).is_some_and(char::is_ascii_digit) {
                i += 1;
                while i < chars.len() && chars[i].is_ascii_digit() {
                    i += 1;
                }
            }
            let literal: String = chars[start..i].iter().collect();
            numbers.push(literal.parse().expect("numeric literal"));
            shape.push('#');
        } else {
            if !(c.is_whitespace() && shape.ends_with(' ')) {
                shape.push(if c.is_whitespace() { ' ' } else { c });
            }
            i += 1;
        }
    }
    (shape, numbers)
}

pub struct Oracle {
    pub tables: Tables,
}

impl Oracle {
    /// The answer to `query` over the data as it is on disk now.
    pub fn expected(&self, query: &Query) -> Result<Value, String> {
        match &query.spec {
            Spec::Template => self.template(&query.text),
            Spec::Wide(spec) => Ok(self.wide(spec)),
        }
    }

    fn template(&self, text: &str) -> Result<Value, String> {
        let t = &self.tables;
        let (np, ng, nr) = (t.age.len(), t.snp.len(), t.voxels.len());
        let (shape, n) = shape_of(text);
        let below = |i: usize, len: usize| (n[i].max(0.0) as usize).min(len);
        let sum_f = |it: &mut dyn Iterator<Item = f64>| {
            // `sum` starts from the integer zero: an empty float sum is 0.
            let mut acc: Option<f64> = None;
            for x in it {
                acc = Some(acc.unwrap_or(0.0) + x);
            }
            acc.map_or(Value::Int(0), Value::Float)
        };
        let avg = |sum: f64, count: usize| {
            if count == 0 {
                Value::Null
            } else {
                Value::Float(sum / count as f64)
            }
        };
        let voxels = || t.voxels.iter().flatten().copied();
        Ok(match shape.as_str() {
            // vida_workload::generate (the HBP mix)
            "for { p <- Patients, p.id < # } yield avg p.age" => {
                let k = below(0, np);
                avg(t.age[..k].iter().sum::<i64>() as f64, k)
            }
            "for { p <- Patients, p.id < # } yield bag (id := p.id, age := p.age)" => Value::bag(
                (0..below(0, np))
                    .map(|i| {
                        Value::record([("id", Value::Int(i as i64)), ("age", Value::Int(t.age[i]))])
                    })
                    .collect(),
            ),
            "for { p <- Patients, g <- Genetics, p.id = g.id, p.age > # } yield sum g.snp" => {
                let m = np.min(ng);
                sum_f(&mut (0..m).filter(|&i| (t.age[i] as f64) > n[0]).map(|i| t.snp[i]))
            }
            "for { g <- Genetics, g.id < # } yield any g.snp > #" => {
                Value::Bool(t.snp[..below(0, ng)].iter().any(|&s| s > n[1]))
            }
            // generate_scan_heavy / generate_append_replay
            "for { p <- Patients } yield sum p.age" => Value::Int(t.age.iter().sum()),
            "for { g <- Genetics } yield count g" => Value::Int(ng as i64),
            "for { g <- Genetics } yield avg g.snp" => avg(t.snp.iter().sum(), ng),
            "for { p <- Patients, p.age > # } yield count p" => {
                Value::Int(t.age.iter().filter(|&&a| (a as f64) > n[0]).count() as i64)
            }
            // generate_join_heavy
            "for { p <- Patients, g <- Genetics, p.id < #, p.id = g.id } yield sum g.snp" => {
                sum_f(&mut t.snp[..below(0, np.min(ng))].iter().copied())
            }
            "for { g <- Genetics, p <- Patients, g.id < #, g.id = p.id } yield count p" => {
                Value::Int(below(0, np.min(ng)) as i64)
            }
            "for { g <- Genetics, p <- Patients, r <- Regions, p.id = g.id, p.id = r.id, p.id < # } yield count p" => {
                Value::Int(below(0, np.min(ng).min(nr)) as i64)
            }
            // generate_nested_heavy
            "for { r <- Regions, v <- r.voxels, v > # } yield sum v" => {
                Value::Int(voxels().filter(|&v| (v as f64) > n[0]).sum())
            }
            "for { r <- Regions, v <- r.voxels, g <- Genetics, v = g.id, r.id < # } yield count v" => {
                let hits = t.voxels[..below(0, nr)]
                    .iter()
                    .flatten()
                    .filter(|&&v| v >= 0 && (v as usize) < ng);
                Value::Int(hits.count() as i64)
            }
            "for { p <- Patients, g <- Genetics, p.id < g.id, p.age > # } yield count p" => {
                let pairs = (0..np)
                    .filter(|&p| (t.age[p] as f64) > n[0])
                    .map(|p| ng.saturating_sub(p + 1));
                Value::Int(pairs.sum::<usize>() as i64)
            }
            "for { p <- Patients, g <- Genetics, p.id != g.id, g.id < # } yield count g" => {
                let pairs = (0..below(0, ng)).map(|g| np - usize::from(g < np));
                Value::Int(pairs.sum::<usize>() as i64)
            }
            "for { r <- Regions, v <- r.voxels, p <- Patients, v < p.id, p.id < # } yield count v" => {
                let k = below(0, np) as i64;
                // Each voxel v pairs with the patients v+1 .. k-1.
                Value::Int(voxels().map(|v| (k - 1 - v).max(0)).sum())
            }
            _ => return Err(format!("oracle does not know the query shape: {text}")),
        })
    }

    fn wide(&self, spec: &WideSpec) -> Value {
        let columns = match spec.kind {
            Kind::WideJson => &self.tables.wide_json,
            _ => &self.tables.wide_csv,
        };
        let col = &columns[spec.col];
        let below = |k: i64| (k.max(0) as usize).min(col.len());
        match &spec.op {
            WideOp::SumBelow(k) => Value::Int(
                col[..below(*k)]
                    .iter()
                    .map(|c| match c {
                        Cell::Int(i) => *i,
                        other => panic!("sum over a non-int cell {other:?}"),
                    })
                    .sum(),
            ),
            WideOp::AvgBelow(k) => {
                let cells = &col[..below(*k)];
                let sum: f64 = cells
                    .iter()
                    .map(|c| match c {
                        Cell::Float(f) => *f,
                        other => panic!("avg over a non-float cell {other:?}"),
                    })
                    .sum();
                if cells.is_empty() {
                    Value::Null
                } else {
                    Value::Float(sum / cells.len() as f64)
                }
            }
            WideOp::CountEq(lit) => {
                // Raw text: bare in CSV, double-quoted in JSON.
                let raw = match spec.kind {
                    Kind::WideJson => format!("\"{lit}\""),
                    _ => lit.clone(),
                };
                let hits = col
                    .iter()
                    .filter(|c| matches!(c, Cell::Text(t) if *t == raw));
                Value::Int(hits.count() as i64)
            }
        }
    }
}

/// Float aggregates may differ from the oracle in the last place (the
/// engine reassociates float sums at morsel boundaries — documented on
/// `JitOptions::threads`), so floats compare to 1e-9 relative.
fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

/// Does the engine's `got` equal the oracle's `want`? Collections compare
/// as bags: in order first (the engine's order is deterministic and the
/// oracle's is file order), sorted only if that fails.
pub fn values_match(got: &Value, want: &Value) -> bool {
    match (got, want) {
        (Value::Int(a), Value::Int(b)) => a == b,
        (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_)) => close(
            got.as_f64().unwrap_or(f64::NAN),
            want.as_f64().unwrap_or(f64::NAN),
        ),
        (Value::Record(a), Value::Record(b)) => {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|((na, va), (nb, vb))| na == nb && values_match(va, vb))
        }
        (Value::Collection(_, a), Value::Collection(_, b)) => {
            if a.len() != b.len() {
                return false;
            }
            if a.iter().zip(b).all(|(x, y)| values_match(x, y)) {
                return true;
            }
            let (mut a, mut b) = (a.clone(), b.clone());
            a.sort_by(Value::total_cmp);
            b.sort_by(Value::total_cmp);
            a.iter().zip(&b).all(|(x, y)| values_match(x, y))
        }
        _ => got == want,
    }
}

/// Does a served response (row frames, as `read_response` decoded them)
/// equal `encoded`, the oracle value written by the same `OutputFormat`?
pub fn frames_match(frames: &[Vec<u8>], encoded: &[u8]) -> bool {
    let mut want: Vec<&[u8]> = encoded
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .collect();
    let mut got: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
    if got.len() != want.len() {
        return false;
    }
    let same = |g: &[u8], w: &[u8]| {
        g == w || {
            let num = |b: &[u8]| {
                std::str::from_utf8(b)
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
            };
            matches!((num(g), num(w)), (Some(x), Some(y)) if close(x, y))
        }
    };
    if got.iter().zip(&want).all(|(g, w)| same(g, w)) {
        return true;
    }
    got.sort_unstable();
    want.sort_unstable();
    got.iter().zip(&want).all(|(g, w)| same(g, w))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_replace_free_numbers_only() {
        let (shape, n) = shape_of("for { g <- Genetics,  g.id < 42 } yield any g.snp > 0.5");
        assert_eq!(shape, "for { g <- Genetics, g.id < # } yield any g.snp > #");
        assert_eq!(n, vec![42.0, 0.5]);
        assert_eq!(shape_of("w.c12 < 3").0, "w.c12 < #");
    }

    #[test]
    fn matching_tolerates_last_place_and_bag_order() {
        assert!(values_match(&Value::Float(0.1 + 0.2), &Value::Float(0.3)));
        assert!(!values_match(&Value::Float(0.3001), &Value::Float(0.3)));
        assert!(!values_match(&Value::Int(3), &Value::Int(4)));
        let a = Value::bag(vec![Value::Int(1), Value::Int(2)]);
        let b = Value::bag(vec![Value::Int(2), Value::Int(1)]);
        assert!(values_match(&a, &b));
        assert!(!values_match(&a, &Value::bag(vec![Value::Int(1)])));
        assert!(frames_match(
            &[b"id,age".to_vec(), b"0,33".to_vec()],
            b"id,age\n0,33\n"
        ));
        assert!(frames_match(&[b"0.30000000000000004".to_vec()], b"0.3\n"));
        assert!(!frames_match(&[b"0,34".to_vec()], b"0,33\n"));
    }

    #[test]
    fn unknown_shapes_are_an_error_not_a_pass() {
        let oracle = Oracle {
            tables: Tables::default(),
        };
        assert!(oracle
            .template("for { x <- Nowhere } yield count x")
            .is_err());
    }
}
