//! The morsel dispatcher: aligned splitting of raw inputs.
//!
//! Raw files have variable-width retrieval units (CSV rows, JSON objects),
//! so splitting by row count alone can hand one worker all the wide rows.
//! When a plugin can report unit byte spans, morsels are balanced by raw
//! bytes instead — and because boundaries always fall between units, CSV
//! morsels are newline-aligned byte ranges and JSON morsels are
//! record-aligned spans. Plugins without byte spans (in-memory tables) fall
//! back to a fixed unit grid.
//!
//! Either way the plan depends only on the data and the target sizes, never
//! on the worker count — the determinism contract of [`MorselPlan`].

use crate::morsel::{MorselPlan, DEFAULT_MORSEL_BYTES};
use vida_formats::InputPlugin;

/// Build the morsel plan for scanning `plugin`.
///
/// `morsel_units` overrides the fallback unit grid (0 = default); byte
/// balancing uses [`DEFAULT_MORSEL_BYTES`] per morsel, and an explicit unit
/// override wins when it asks for finer morsels than the byte target would
/// produce (tests use tiny overrides to force multi-morsel coverage on
/// small fixtures).
pub fn plan_scan(plugin: &dyn InputPlugin, morsel_units: usize) -> MorselPlan {
    plan_scan_tail(plugin, morsel_units, 0)
}

/// [`plan_scan`] restricted to units `from_unit..num_units()` — the morsel
/// grid of an incremental re-scan that only needs the rows appended since
/// the last query. Ranges address absolute unit numbers (the first starts
/// at `from_unit`), so scan workers and replica stitching need no special
/// casing. `from_unit = 0` degenerates to a whole-file plan.
pub fn plan_scan_tail(
    plugin: &dyn InputPlugin,
    morsel_units: usize,
    from_unit: usize,
) -> MorselPlan {
    let units = plugin.num_units();
    let from = from_unit.min(units);
    let tail_units = units - from;
    let by_bytes = if let Some(offsets) = plugin.unit_offsets() {
        // The offset table's suffix is itself a valid offset table of the
        // tail (unit starts + terminal end entry).
        MorselPlan::byte_aligned_offsets(&offsets[from..], DEFAULT_MORSEL_BYTES)
    } else if tail_units > 0 && plugin.unit_byte_span(from).is_some() {
        MorselPlan::byte_aligned(tail_units, DEFAULT_MORSEL_BYTES, |i| {
            plugin
                .unit_byte_span(from + i)
                .map(|(s, e)| e.saturating_sub(s))
                .unwrap_or(1)
        })
    } else {
        return MorselPlan::fixed(tail_units, morsel_units).shifted(from);
    };
    let by_bytes = by_bytes.shifted(from);
    if morsel_units != 0 {
        let fixed = MorselPlan::fixed(tail_units, morsel_units).shifted(from);
        if fixed.len() > by_bytes.len() {
            return fixed;
        }
    }
    by_bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use vida_formats::csv::CsvFile;
    use vida_formats::json::JsonFile;
    use vida_formats::plugin::{CsvPlugin, JsonPlugin, MemPlugin};
    use vida_types::{Schema, Type, Value};

    fn csv(rows: usize) -> CsvPlugin {
        let mut data = String::from("id,pad\n");
        for i in 0..rows {
            data.push_str(&format!("{i},{}\n", "x".repeat(16)));
        }
        CsvPlugin::new(
            CsvFile::from_bytes(
                "T",
                data.into_bytes(),
                b',',
                true,
                Schema::from_pairs([("id", Type::Int), ("pad", Type::Str)]),
            )
            .unwrap(),
        )
    }

    #[test]
    fn csv_morsels_are_newline_aligned() {
        let p = csv(50);
        let plan = plan_scan(&p, 0);
        assert_eq!(plan.units(), 50);
        // Every morsel boundary is a unit boundary: byte spans of adjacent
        // units in different morsels do not overlap.
        let covered: usize = plan.iter().map(|r| r.len()).sum();
        assert_eq!(covered, 50);
        for r in plan.iter().filter(|r| r.start > 0) {
            let (start, _) = p.unit_byte_span(r.start).unwrap();
            let (_, prev_end) = p.unit_byte_span(r.start - 1).unwrap();
            // The previous row's span (incl. its newline) ends exactly where
            // this morsel's first row begins.
            assert_eq!(start, prev_end);
        }
    }

    #[test]
    fn json_morsels_are_record_aligned() {
        let mut data = String::new();
        for i in 0..40 {
            data.push_str(&format!("{{\"id\":{i},\"blob\":\"{}\"}}\n", "y".repeat(32)));
        }
        let p = JsonPlugin::new(
            JsonFile::from_bytes(
                "J",
                data.into_bytes(),
                Schema::from_pairs([("id", Type::Int)]),
            )
            .unwrap(),
        );
        let plan = plan_scan(&p, 8);
        let covered: usize = plan.iter().map(|r| r.len()).sum();
        assert_eq!(covered, 40);
        assert!(plan.len() >= 5, "unit override should force fine morsels");
    }

    #[test]
    fn quoted_newlines_do_not_split_records_across_morsels() {
        // Regression: a quoted CSV field containing `\n` is ONE retrieval
        // unit. Row indexing is quote-aware, so every morsel boundary falls
        // between logical records and ranged scans reassemble the full
        // table regardless of the grid.
        let mut data = String::from("id,note\n");
        for i in 0..32 {
            data.push_str(&format!("{i},\"line one of {i}\nline two of {i}\"\n"));
        }
        let p = CsvPlugin::new(
            CsvFile::from_bytes(
                "Q",
                data.into_bytes(),
                b',',
                true,
                Schema::from_pairs([("id", Type::Int), ("note", Type::Str)]),
            )
            .unwrap(),
        );
        assert_eq!(p.num_units(), 32);
        let plan = plan_scan(&p, 3);
        assert!(plan.len() >= 5, "unit override should force fine morsels");
        let covered: usize = plan.iter().map(|r| r.len()).sum();
        assert_eq!(covered, 32);
        // Morsel boundaries sit exactly between logical records (embedded
        // newlines are inside the spans, never at a boundary).
        for r in plan.iter().filter(|r| r.start > 0) {
            let (start, _) = p.unit_byte_span(r.start).unwrap();
            let (_, prev_end) = p.unit_byte_span(r.start - 1).unwrap();
            assert_eq!(start, prev_end);
        }
        // Scanning the morsel grid reproduces the serial scan exactly.
        let mut serial = Vec::new();
        p.scan_project(&[0, 1], &mut |row, vals| {
            serial.push((row, vals));
            Ok(())
        })
        .unwrap();
        let mut chunked = Vec::new();
        for r in plan.iter() {
            p.scan_project_range(&[0, 1], r, &mut |row, vals| {
                chunked.push((row, vals));
                Ok(())
            })
            .unwrap();
        }
        assert_eq!(serial, chunked);
        assert_eq!(
            serial[5].1[1],
            Value::str("line one of 5\nline two of 5"),
            "embedded newline must survive the parse"
        );
    }

    #[test]
    fn offset_fast_path_matches_span_walk_plan() {
        // The CSV offset-table fast path must produce the identical plan to
        // the per-unit span walk (what JSON still uses) on the same file —
        // the determinism contract across format capabilities.
        let p = csv(5000);
        assert!(p.unit_offsets().is_some());
        let fast = plan_scan(&p, 0);
        let walk = MorselPlan::byte_aligned(p.num_units(), DEFAULT_MORSEL_BYTES, |i| {
            p.unit_byte_span(i).map(|(s, e)| e - s).unwrap()
        });
        assert_eq!(fast, walk);
        assert!(fast.len() > 1, "fixture should span several morsels");
    }

    #[test]
    fn tail_plan_covers_exactly_the_appended_suffix() {
        let p = csv(200);
        for from in [0usize, 1, 57, 199, 200] {
            let plan = plan_scan_tail(&p, 0, from);
            let covered: usize = plan.iter().map(|r| r.len()).sum();
            assert_eq!(covered, 200 - from, "from {from}");
            if from < 200 {
                assert_eq!(plan.iter().next().unwrap().start, from);
                assert_eq!(plan.iter().last().unwrap().end, 200);
            } else {
                assert!(plan.is_empty());
            }
            // Ranges are disjoint, ordered, and unit-aligned.
            let mut prev_end = from;
            for r in plan.iter() {
                assert_eq!(r.start, prev_end);
                prev_end = r.end;
            }
        }
        // from = 0 degenerates to the whole-file plan.
        assert_eq!(plan_scan_tail(&p, 0, 0), plan_scan(&p, 0));
        // Past-the-end clamps to empty rather than panicking.
        assert!(plan_scan_tail(&p, 0, 500).is_empty());
    }

    #[test]
    fn tail_plan_fixed_fallback_is_shifted() {
        let rows: Vec<Value> = (0..10)
            .map(|i| Value::record([("x", Value::Int(i))]))
            .collect();
        let p =
            MemPlugin::from_records("M", Schema::from_pairs([("x", Type::Int)]), &rows).unwrap();
        let plan = plan_scan_tail(&p, 4, 6);
        let ranges: Vec<_> = plan.iter().collect();
        assert_eq!(ranges, vec![6..10]);
    }

    #[test]
    fn mem_plugin_falls_back_to_fixed_grid() {
        let rows: Vec<Value> = (0..10)
            .map(|i| Value::record([("x", Value::Int(i))]))
            .collect();
        let p =
            MemPlugin::from_records("M", Schema::from_pairs([("x", Type::Int)]), &rows).unwrap();
        let plan = plan_scan(&p, 4);
        assert_eq!(plan.len(), 3); // 4 + 4 + 2
    }
}
