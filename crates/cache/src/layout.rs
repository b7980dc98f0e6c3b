//! Cache layouts (Figure 4).
//!
//! A tuple carrying a JSON object can be materialized as (b) a binary-JSON
//! serialization, (c) a fully parsed in-memory object, or (d) just the
//! `(start, end)` byte positions into the raw file. The figure's (a), the
//! object's raw text, is not a replica layout: it does not round-trip typed
//! values (`"3"` rehydrates as a string, not an int), and the raw file
//! already holds it. The optimizer's cost model picks one layout per cached
//! field (§5); this module gives each choice a concrete representation and
//! the conversion from parsed values.

use crate::bson;
use std::sync::Arc;
use vida_types::{Result, Value, VidaError};

/// The replica layouts of Figure 4 the engine stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layout {
    /// Parsed in-memory values, one per row (Figure 4 (c)).
    Values,
    /// Binary-JSON serialization of each value (Figure 4 (b)).
    BinaryJson,
    /// `(start, end)` byte positions into the raw file (Figure 4 (d)).
    Positions,
}

impl Layout {
    /// Every layout, in ascending order of baseline serving cost (a
    /// pointer-shared values hit < a binary-JSON decode < an exact-seek raw
    /// parse).
    pub const ALL: [Layout; 3] = [Layout::Values, Layout::BinaryJson, Layout::Positions];

    pub fn name(&self) -> &'static str {
        match self {
            Layout::Values => "values",
            Layout::BinaryJson => "binary-json",
            Layout::Positions => "positions",
        }
    }
}

/// Cached column data in one concrete layout. One `CachedData` covers one
/// field of one dataset, with one entry per retrieval unit.
///
/// `Values` holds its rows behind an `Arc` so a warm full hit serves the
/// whole column by pointer share instead of a per-row decode, and a pure
/// append extends the resident vector in place
/// ([`crate::CacheManager::extend_values`]) — the two moves that make warm
/// re-query cost proportional to the delta, not the file.
#[derive(Debug, Clone, PartialEq)]
pub enum CachedData {
    Values(Arc<Vec<Value>>),
    BinaryJson(Vec<Vec<u8>>),
    Positions(Vec<(u64, u64)>),
}

impl CachedData {
    pub fn layout(&self) -> Layout {
        match self {
            CachedData::Values(_) => Layout::Values,
            CachedData::BinaryJson(_) => Layout::BinaryJson,
            CachedData::Positions(_) => Layout::Positions,
        }
    }

    pub fn len(&self) -> usize {
        match self {
            CachedData::Values(v) => v.len(),
            CachedData::BinaryJson(v) => v.len(),
            CachedData::Positions(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Memory footprint used against the cache budget.
    pub fn approx_bytes(&self) -> usize {
        match self {
            CachedData::Values(v) => v.iter().map(Value::approx_bytes).sum::<usize>() + 24,
            CachedData::BinaryJson(v) => v.iter().map(|b| b.len() + 24).sum::<usize>() + 24,
            CachedData::Positions(v) => v.len() * 16 + 24,
        }
    }

    /// Fetch one row as a [`Value`].
    ///
    /// `Positions` entries cannot rehydrate without the raw file, so they
    /// return an error here; callers holding the file use the positions
    /// directly (that is the point of the layout).
    pub fn get(&self, row: usize) -> Result<Value> {
        let oob = || VidaError::Exec(format!("cache row {row} out of range"));
        match self {
            CachedData::Values(v) => v.get(row).cloned().ok_or_else(oob),
            CachedData::BinaryJson(v) => {
                let bytes = v.get(row).ok_or_else(oob)?;
                bson::decode_value(bytes, 0).map(|(val, _)| val)
            }
            CachedData::Positions(_) => Err(VidaError::Exec(
                "positions-only cache entry cannot materialize values without the raw file".into(),
            )),
        }
    }

    /// Convert a parsed-values column into another layout.
    ///
    /// `Positions` cannot be derived from values (it needs raw-file byte
    /// offsets), so that conversion is an error.
    pub fn from_values(values: &[Value], target: Layout) -> Result<CachedData> {
        match target {
            Layout::Values => Ok(CachedData::Values(Arc::new(values.to_vec()))),
            Layout::BinaryJson => Ok(CachedData::BinaryJson(
                values.iter().map(bson::to_bytes).collect(),
            )),
            Layout::Positions => Err(VidaError::Plan(
                "positions layout requires raw-file offsets, not values".into(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals() -> Vec<Value> {
        vec![
            Value::record([("id", Value::Int(1)), ("x", Value::Float(0.5))]),
            Value::record([("id", Value::Int(2)), ("x", Value::Float(1.5))]),
        ]
    }

    #[test]
    fn values_layout_round_trip() {
        let c = CachedData::Values(Arc::new(vals()));
        assert_eq!(c.layout(), Layout::Values);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(1).unwrap().field("id"), Some(&Value::Int(2)));
        assert!(c.get(2).is_err());
    }

    #[test]
    fn binary_json_layout_round_trip() {
        let c = CachedData::from_values(&vals(), Layout::BinaryJson).unwrap();
        assert_eq!(c.layout(), Layout::BinaryJson);
        assert_eq!(c.get(0).unwrap(), vals()[0]);
    }

    #[test]
    fn positions_layout_cannot_materialize() {
        let c = CachedData::Positions(vec![(0, 10), (10, 25)]);
        assert!(c.get(0).is_err());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn positions_cannot_come_from_values() {
        assert!(CachedData::from_values(&vals(), Layout::Positions).is_err());
    }

    #[test]
    fn footprints_rank_as_figure4_expects() {
        // Positions are the smallest; parsed values the largest for nested
        // records — the cache-pollution argument of §5.
        let big_objects: Vec<Value> = (0..50)
            .map(|i| {
                Value::record(
                    (0..20)
                        .map(|j| (format!("f{j}"), Value::str(format!("payload-{i}-{j}"))))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let values = CachedData::from_values(&big_objects, Layout::Values)
            .unwrap()
            .approx_bytes();
        let binary = CachedData::from_values(&big_objects, Layout::BinaryJson)
            .unwrap()
            .approx_bytes();
        let positions = CachedData::Positions(vec![(0, 100); 50]).approx_bytes();
        assert!(
            positions < binary,
            "positions {positions} < binary {binary}"
        );
        assert!(binary < values, "binary {binary} < values {values}");
    }

    #[test]
    fn layout_names_unique() {
        let names = Layout::ALL.map(|l| l.name());
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }
}
