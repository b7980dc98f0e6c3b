//! JSON input plugin with a structural (semi-)index (ViDa §2.1, §5;
//! Ottaviano & Grossi \[43\]).
//!
//! The file layout is newline-delimited JSON: one object per line — the
//! shape of the paper's BrainRegions dataset (17 000 objects from an MRI
//! processing pipeline). The **structural index** stores, per object, the
//! byte span of the object itself and the spans of top-level field values
//! discovered while answering earlier queries. A later query projecting
//! `b.volume` seeks straight to the recorded span instead of re-parsing the
//! whole (potentially deeply nested) object.
//!
//! Carrying only `(start, end)` positions — rather than eagerly
//! materializing large objects — is ViDa's cache-pollution avoidance
//! strategy (§5, Figure 4 layout (d)). The semi-index is where the engine
//! keeps those positions: [`JsonFile::field_span`] reads and feeds it, and
//! no cache replica duplicates it.

use crate::plugin::FileIndex;
use crate::stats::AccessStats;
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vida_io::json::{next_composite_special, next_record_boundary, next_string_special};
use vida_io::{bom_len, MapMode, RawFile};
use vida_types::sync::RwLock;
use vida_types::{CollectionKind, Result, Schema, Value, VidaError};

/// A newline-delimited JSON file opened for in-situ querying.
pub struct JsonFile {
    name: String,
    /// Raw bytes with their fingerprint and origin, memory-mapped when
    /// opened from disk (scan workers then share one set of pages) with an
    /// owned-buffer fallback.
    raw: RawFile,
    /// Byte span (start, end-exclusive) of each top-level object.
    objects: Vec<(u32, u32)>,
    /// field name -> per-object value spans. Spans are packed `(start <<
    /// 32) | end` atomics so populating a known field takes no lock: the
    /// map's write lock is held only to create a field's span array, and
    /// concurrent stores race benignly (a span is a pure function of the
    /// bytes). Scan workers therefore share one semi-index without
    /// serializing on it.
    semi_index: RwLock<BTreeMap<String, Arc<[AtomicU64]>>>,
    schema: Schema,
    stats: Arc<AccessStats>,
}

/// Packed "span unknown" sentinel.
const NO_SPAN: u64 = u64::MAX;

#[inline]
fn pack_span(s: usize, e: usize) -> u64 {
    ((s as u64) << 32) | e as u64
}

#[inline]
fn unpack_span(packed: u64) -> Option<(usize, usize)> {
    (packed != NO_SPAN).then_some(((packed >> 32) as usize, (packed & 0xFFFF_FFFF) as usize))
}

/// Append the span of every non-blank NDJSON line of `data` from `pos` on.
fn index_objects(data: &[u8], mut pos: usize, objects: &mut Vec<(u32, u32)>) {
    while pos < data.len() {
        let end = next_record_boundary(data, pos).unwrap_or(data.len());
        let line = &data[pos..end];
        if !line.iter().all(|b| b.is_ascii_whitespace()) {
            objects.push((pos as u32, end as u32));
        }
        pos = end + 1;
    }
}

impl JsonFile {
    pub fn open(name: impl Into<String>, path: &Path, schema: Schema) -> Result<Self> {
        Self::open_with(name, path, schema, MapMode::Auto)
    }

    /// [`JsonFile::open`] with an explicit backing policy ([`MapMode::Never`]
    /// is the owned-buffer escape hatch).
    pub fn open_with(
        name: impl Into<String>,
        path: &Path,
        schema: Schema,
        mode: MapMode,
    ) -> Result<Self> {
        Self::from_raw(name.into(), RawFile::open(path, mode)?, schema)
    }

    pub fn from_bytes(name: impl Into<String>, data: Vec<u8>, schema: Schema) -> Result<Self> {
        Self::from_raw(name.into(), RawFile::from_vec(data), schema)
    }

    fn from_raw(name: String, raw: RawFile, schema: Schema) -> Result<Self> {
        // Skip a UTF-8 BOM so it never becomes part of the first record.
        let mut objects = Vec::new();
        index_objects(&raw, bom_len(&raw), &mut objects);
        Ok(JsonFile {
            name,
            raw,
            objects,
            semi_index: RwLock::new(BTreeMap::new()),
            schema,
            stats: Arc::new(AccessStats::new()),
        })
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn num_objects(&self) -> usize {
        self.objects.len()
    }

    pub fn stats(&self) -> Arc<AccessStats> {
        Arc::clone(&self.stats)
    }

    pub fn raw_bytes(&self) -> usize {
        self.raw.len()
    }

    /// Whether the raw bytes are backed by a shared file mapping (vs an
    /// owned copy).
    pub fn is_mapped(&self) -> bool {
        self.raw.is_mapped()
    }

    /// Byte span of object `row` including its trailing newline — the
    /// record-aligned unit parallel scans split on.
    pub fn unit_byte_span(&self, row: usize) -> Option<(usize, usize)> {
        let &(s, e) = self.objects.get(row)?;
        Some((s as usize, (e as usize + 1).min(self.raw.len())))
    }

    /// Byte span of object `row` (Figure 4 layout (d): carry positions, not
    /// objects).
    pub fn object_span(&self, row: usize) -> Result<(usize, usize)> {
        self.objects
            .get(row)
            .map(|&(s, e)| (s as usize, e as usize))
            .ok_or_else(|| {
                VidaError::format(
                    &self.name,
                    format!("object {row} out of range ({} objects)", self.num_objects()),
                )
            })
    }

    /// Raw text of object `row` (Figure 4 layout (a)).
    pub fn object_text(&self, row: usize) -> Result<&str> {
        let (s, e) = self.object_span(row)?;
        std::str::from_utf8(&self.raw[s..e])
            .map_err(|_| VidaError::format(&self.name, "invalid UTF-8 in object"))
    }

    /// Fully parse object `row` into a [`Value`] (Figure 4 layout (c)).
    pub fn read_object(&self, row: usize) -> Result<Value> {
        let (s, e) = self.object_span(row)?;
        self.stats.add_bytes_parsed((e - s) as u64);
        self.stats.add_units(1);
        let (v, _) = parse_json(&self.raw[s..e], 0, &self.name)?;
        Ok(v)
    }

    /// Byte span of a top-level field's **value** within object `row`,
    /// using (and feeding) the structural index.
    pub fn field_span(&self, row: usize, field: &str) -> Result<Option<(usize, usize)>> {
        // The one range check: every span array has one slot per object.
        let (os, oe) = self.object_span(row)?;
        let idx = self.semi_index.read();
        if let Some(spans) = idx.get(field) {
            if let Some((s, e)) = unpack_span(spans[row].load(Ordering::Relaxed)) {
                self.stats.hit();
                self.stats.add_bytes_skipped((s - os) as u64);
                return Ok(Some((s, e)));
            }
        }
        drop(idx);
        self.stats.miss();
        let found = locate_top_level_field(&self.raw[os..oe], field, &self.name)?;
        self.stats.add_bytes_parsed(match found {
            Some((_, e)) => e as u64,
            None => (oe - os) as u64,
        });
        let abs = found.map(|(s, e)| (os + s, os + e));
        if let Some((s, e)) = abs {
            // Common case: the span array exists — store under the shared
            // read lock. The write lock is only for the first sighting of
            // a field name.
            let idx = self.semi_index.read();
            if let Some(spans) = idx.get(field) {
                spans[row].store(pack_span(s, e), Ordering::Relaxed);
            } else {
                drop(idx);
                let mut idx = self.semi_index.write();
                let spans = idx.entry(field.to_string()).or_insert_with(|| {
                    (0..self.num_objects())
                        .map(|_| AtomicU64::new(NO_SPAN))
                        .collect()
                });
                spans[row].store(pack_span(s, e), Ordering::Relaxed);
            }
        }
        Ok(abs)
    }

    /// Read one top-level field of object `row` as a typed value.
    /// Missing fields read as `Null`.
    pub fn read_field(&self, row: usize, field: &str) -> Result<Value> {
        match self.field_span(row, field)? {
            None => Ok(Value::Null),
            Some((s, e)) => {
                self.stats.add_bytes_parsed((e - s) as u64);
                self.stats.add_fields_parsed(1);
                let (v, _) = parse_json(&self.raw[s..e], 0, &self.name)?;
                Ok(v)
            }
        }
    }

    /// Number of fields currently tracked by the structural index.
    pub fn semi_index_fields(&self) -> usize {
        self.semi_index.read().len()
    }

    /// Scan all objects, projecting the given top-level fields.
    pub fn scan_project(
        &self,
        fields: &[&str],
        f: impl FnMut(usize, Vec<Value>) -> Result<()>,
    ) -> Result<()> {
        self.scan_project_range(fields, 0..self.num_objects(), f)
    }

    /// [`JsonFile::scan_project`] restricted to a contiguous object range —
    /// the per-morsel scan of parallel execution. Ranges from
    /// `vida_parallel::plan_scan` are record-aligned, so workers parse
    /// disjoint bytes and share only the atomic semi-index.
    pub fn scan_project_range(
        &self,
        fields: &[&str],
        rows: Range<usize>,
        mut f: impl FnMut(usize, Vec<Value>) -> Result<()>,
    ) -> Result<()> {
        for row in rows {
            let vals = fields
                .iter()
                .map(|name| self.read_field(row, name))
                .collect::<Result<Vec<_>>>()?;
            self.stats.add_units(1);
            f(row, vals)?;
        }
        Ok(())
    }
}

impl FileIndex for JsonFile {
    fn raw(&self) -> &RawFile {
        &self.raw
    }

    fn reindex(&self, raw: RawFile) -> Result<Self> {
        let mut file = Self::from_raw(self.name.clone(), raw, self.schema.clone())?;
        file.stats = Arc::clone(&self.stats);
        Ok(file)
    }

    /// Reuse every old object span except the last (appended bytes may glue
    /// onto an unterminated final line), rescan only from the start of that
    /// last object, and copy semi-index span arrays for the prefix objects
    /// — absolute byte offsets stay valid because the old bytes are a
    /// prefix of the new.
    fn extend(&self, raw: RawFile) -> Result<(Self, Option<usize>)> {
        let n = self.num_objects();
        let (mut objects, pos) = match n {
            0 => (Vec::new(), bom_len(&raw)),
            _ => (
                self.objects[..n - 1].to_vec(),
                self.objects[n - 1].0 as usize,
            ),
        };
        index_objects(&raw, pos, &mut objects);
        // The last old object stays prefix-valid only if the rescan
        // reproduced it exactly (i.e. the old file ended in a newline).
        let prefix_units = if n > 0 && objects.get(n - 1) == Some(&self.objects[n - 1]) {
            n
        } else {
            n.saturating_sub(1)
        };
        let semi_index = self
            .semi_index
            .read()
            .iter()
            .map(|(field, spans)| {
                let fresh: Arc<[AtomicU64]> = (0..objects.len())
                    .map(|i| {
                        AtomicU64::new(if i < prefix_units {
                            spans[i].load(Ordering::Relaxed)
                        } else {
                            NO_SPAN
                        })
                    })
                    .collect();
                (field.clone(), fresh)
            })
            .collect();
        let file = JsonFile {
            name: self.name.clone(),
            raw,
            objects,
            semi_index: RwLock::new(semi_index),
            schema: self.schema.clone(),
            stats: Arc::clone(&self.stats),
        };
        Ok((file, Some(prefix_units)))
    }
}

/// Find the value span of a top-level `field` inside one serialized object.
/// Returns byte offsets relative to `obj`.
fn locate_top_level_field(obj: &[u8], field: &str, source: &str) -> Result<Option<(usize, usize)>> {
    let mut i = skip_ws(obj, 0);
    if i >= obj.len() || obj[i] != b'{' {
        return Err(VidaError::format(source, "expected top-level object"));
    }
    i += 1;
    loop {
        i = skip_ws(obj, i);
        if i >= obj.len() {
            return Err(VidaError::format(source, "unterminated object"));
        }
        if obj[i] == b'}' {
            return Ok(None);
        }
        // Parse key string.
        let (key, after_key) = parse_string_raw(obj, i, source)?;
        i = skip_ws(obj, after_key);
        if i >= obj.len() || obj[i] != b':' {
            return Err(VidaError::format(source, "expected ':' after key"));
        }
        i = skip_ws(obj, i + 1);
        let value_start = i;
        let value_end = skip_value(obj, i, source)?;
        if key == field {
            return Ok(Some((value_start, value_end)));
        }
        i = skip_ws(obj, value_end);
        if i < obj.len() && obj[i] == b',' {
            i += 1;
        } else if i < obj.len() && obj[i] == b'}' {
            return Ok(None);
        } else if i >= obj.len() {
            return Err(VidaError::format(source, "unterminated object"));
        }
    }
}

fn skip_ws(data: &[u8], mut i: usize) -> usize {
    while i < data.len() && data[i].is_ascii_whitespace() {
        i += 1;
    }
    i
}

/// Parse a JSON string starting at `i` (must be a `"`), returning the decoded
/// text and the offset just past the closing quote.
fn parse_string_raw(data: &[u8], i: usize, source: &str) -> Result<(String, usize)> {
    if i >= data.len() || data[i] != b'"' {
        return Err(VidaError::format(source, "expected string"));
    }
    let mut out = String::new();
    let mut j = i + 1;
    while j < data.len() {
        match data[j] {
            b'"' => return Ok((out, j + 1)),
            b'\\' => {
                j += 1;
                if j >= data.len() {
                    break;
                }
                match data[j] {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        if j + 4 >= data.len() {
                            return Err(VidaError::format(source, "bad \\u escape"));
                        }
                        let hex = std::str::from_utf8(&data[j + 1..j + 5])
                            .map_err(|_| VidaError::format(source, "bad \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| VidaError::format(source, "bad \\u escape"))?;
                        if (0xD800..=0xDBFF).contains(&code) {
                            // High surrogate: JSON encodes astral-plane
                            // characters as a \uXXXX\uXXXX pair. Combine
                            // with an immediately following low surrogate;
                            // a lone half stays U+FFFD.
                            let low = (data.get(j + 5) == Some(&b'\\')
                                && data.get(j + 6) == Some(&b'u')
                                && j + 10 < data.len())
                            .then(|| &data[j + 7..j + 11])
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .filter(|c| (0xDC00..=0xDFFF).contains(c));
                            match low {
                                Some(low) => {
                                    let c = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    out.push(char::from_u32(c).unwrap_or('\u{fffd}'));
                                    j += 10; // both escapes consumed
                                }
                                None => {
                                    out.push('\u{fffd}');
                                    j += 4;
                                }
                            }
                        } else {
                            // Lone low surrogates fall out of from_u32 as
                            // None and stay U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            j += 4;
                        }
                    }
                    c => {
                        return Err(VidaError::format(
                            source,
                            format!("bad escape \\{}", c as char),
                        ))
                    }
                }
                j += 1;
            }
            _ => {
                // Collect a run of plain bytes (fast path for long
                // strings): jump straight to the next `"` or `\`
                // word-at-a-time.
                let start = j;
                j = next_string_special(data, j).unwrap_or(data.len());
                out.push_str(
                    std::str::from_utf8(&data[start..j])
                        .map_err(|_| VidaError::format(source, "invalid UTF-8 in string"))?,
                );
            }
        }
    }
    Err(VidaError::format(source, "unterminated string"))
}

/// Skip over one JSON value starting at `i`, returning the end offset.
/// Used by the structural index to avoid materializing skipped values.
fn skip_value(data: &[u8], i: usize, source: &str) -> Result<usize> {
    let i = skip_ws(data, i);
    if i >= data.len() {
        return Err(VidaError::format(source, "expected value"));
    }
    match data[i] {
        b'"' => parse_string_raw(data, i, source).map(|(_, e)| e),
        b'{' | b'[' => {
            let (open, close) = if data[i] == b'{' {
                (b'{', b'}')
            } else {
                (b'[', b']')
            };
            // Balance brackets by hopping between structural bytes — `"`
            // (whose contents must not count), `open`, `close` — with the
            // word-at-a-time scanner; everything in between is skipped
            // without inspection.
            let mut depth = 0usize;
            let mut j = i;
            while let Some(k) = next_composite_special(data, j, open, close) {
                match data[k] {
                    b'"' => {
                        j = parse_string_raw(data, k, source)?.1;
                        continue;
                    }
                    c if c == open => depth += 1,
                    _ => {
                        depth -= 1;
                        if depth == 0 {
                            return Ok(k + 1);
                        }
                    }
                }
                j = k + 1;
            }
            Err(VidaError::format(source, "unterminated composite"))
        }
        _ => {
            let mut j = i;
            while j < data.len()
                && !matches!(data[j], b',' | b'}' | b']')
                && !data[j].is_ascii_whitespace()
            {
                j += 1;
            }
            Ok(j)
        }
    }
}

/// Recursive-descent JSON parser producing ViDa [`Value`]s.
///
/// JSON arrays become `List` collections; numbers parse as `Int` when they
/// contain no fraction/exponent, else `Float`.
pub fn parse_json(data: &[u8], i: usize, source: &str) -> Result<(Value, usize)> {
    let i = skip_ws(data, i);
    if i >= data.len() {
        return Err(VidaError::format(source, "unexpected end of JSON"));
    }
    match data[i] {
        b'{' => {
            let mut fields = Vec::new();
            let mut j = skip_ws(data, i + 1);
            if j < data.len() && data[j] == b'}' {
                return Ok((Value::Record(fields), j + 1));
            }
            loop {
                let (key, after) = parse_string_raw(data, skip_ws(data, j), source)?;
                let k = skip_ws(data, after);
                if k >= data.len() || data[k] != b':' {
                    return Err(VidaError::format(source, "expected ':'"));
                }
                let (val, end) = parse_json(data, k + 1, source)?;
                fields.push((key, val));
                j = skip_ws(data, end);
                if j < data.len() && data[j] == b',' {
                    j += 1;
                } else if j < data.len() && data[j] == b'}' {
                    return Ok((Value::Record(fields), j + 1));
                } else {
                    return Err(VidaError::format(source, "expected ',' or '}'"));
                }
            }
        }
        b'[' => {
            let mut items = Vec::new();
            let mut j = skip_ws(data, i + 1);
            if j < data.len() && data[j] == b']' {
                return Ok((Value::Collection(CollectionKind::List, items), j + 1));
            }
            loop {
                let (val, end) = parse_json(data, j, source)?;
                items.push(val);
                j = skip_ws(data, end);
                if j < data.len() && data[j] == b',' {
                    j += 1;
                } else if j < data.len() && data[j] == b']' {
                    return Ok((Value::Collection(CollectionKind::List, items), j + 1));
                } else {
                    return Err(VidaError::format(source, "expected ',' or ']'"));
                }
            }
        }
        b'"' => {
            let (s, end) = parse_string_raw(data, i, source)?;
            Ok((Value::Str(s), end))
        }
        b't' if data[i..].starts_with(b"true") => Ok((Value::Bool(true), i + 4)),
        b'f' if data[i..].starts_with(b"false") => Ok((Value::Bool(false), i + 5)),
        b'n' if data[i..].starts_with(b"null") => Ok((Value::Null, i + 4)),
        _ => {
            let end = skip_value(data, i, source)?;
            let text = std::str::from_utf8(&data[i..end])
                .map_err(|_| VidaError::format(source, "invalid UTF-8 in number"))?;
            if text.contains(['.', 'e', 'E']) {
                text.parse::<f64>()
                    .map(|f| (Value::Float(f), end))
                    .map_err(|_| VidaError::format(source, format!("bad number {text:?}")))
            } else {
                text.parse::<i64>()
                    .map(|n| (Value::Int(n), end))
                    .map_err(|_| VidaError::format(source, format!("bad number {text:?}")))
            }
        }
    }
}

/// Serialize a [`Value`] as JSON text (output plugin for Figure 4 layout
/// (a) and the docstore loader).
pub fn to_json(v: &Value) -> String {
    let mut out = String::new();
    write_json(v, &mut out);
    out
}

fn write_json(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => {
            if f.fract() == 0.0 && f.is_finite() && f.abs() < 1e15 {
                out.push_str(&format!("{f:.1}"));
            } else {
                out.push_str(&f.to_string());
            }
        }
        Value::Str(s) => {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\r' => out.push_str("\\r"),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        Value::Record(fields) => {
            out.push('{');
            for (i, (n, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(n);
                out.push_str("\":");
                write_json(v, out);
            }
            out.push('}');
        }
        Value::Collection(_, items) => {
            out.push('[');
            for (i, v) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json(v, out);
            }
            out.push(']');
        }
        Value::Array(a) => {
            out.push('[');
            for (i, v) in a.data.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json(v, out);
            }
            out.push(']');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plugin::{InputPlugin, JsonPlugin, Revalidation};
    use vida_types::Type;

    fn sample() -> JsonFile {
        let data = concat!(
            "{\"id\":1,\"region\":\"hippocampus\",\"volume\":4.25,\"voxels\":[1,2,3],\"meta\":{\"scan\":\"mri-7\",\"depth\":{\"a\":1}}}\n",
            "{\"id\":2,\"region\":\"cortex\",\"volume\":9.5,\"voxels\":[],\"meta\":{\"scan\":\"mri-9\",\"depth\":{\"a\":2}}}\n",
            "{\"id\":3,\"region\":\"thalamus\",\"volume\":1.75,\"voxels\":[7],\"meta\":null}\n",
        )
        .as_bytes()
        .to_vec();
        JsonFile::from_bytes(
            "BrainRegions",
            data,
            Schema::from_pairs([
                ("id", Type::Int),
                ("region", Type::Str),
                ("volume", Type::Float),
            ]),
        )
        .unwrap()
    }

    #[test]
    fn counts_objects() {
        assert_eq!(sample().num_objects(), 3);
    }

    #[test]
    fn reads_scalar_fields() {
        let f = sample();
        assert_eq!(f.read_field(0, "id").unwrap(), Value::Int(1));
        assert_eq!(f.read_field(1, "region").unwrap(), Value::str("cortex"));
        assert_eq!(f.read_field(2, "volume").unwrap(), Value::Float(1.75));
        assert_eq!(f.read_field(0, "missing").unwrap(), Value::Null);
    }

    #[test]
    fn reads_nested_values() {
        let f = sample();
        let meta = f.read_field(0, "meta").unwrap();
        assert_eq!(meta.field("scan"), Some(&Value::str("mri-7")));
        let voxels = f.read_field(0, "voxels").unwrap();
        assert_eq!(voxels.elements().unwrap().len(), 3);
    }

    #[test]
    fn full_object_parse() {
        let f = sample();
        let obj = f.read_object(2).unwrap();
        assert_eq!(obj.field("meta"), Some(&Value::Null));
        assert_eq!(obj.field("id"), Some(&Value::Int(3)));
    }

    #[test]
    fn semi_index_hits_on_repeat() {
        let f = sample();
        f.read_field(0, "volume").unwrap();
        let s1 = f.stats().snapshot();
        assert_eq!(s1.posmap_misses, 1);
        f.read_field(0, "volume").unwrap();
        let s2 = f.stats().snapshot();
        assert_eq!(s2.posmap_hits, 1);
        assert_eq!(f.semi_index_fields(), 1);
    }

    #[test]
    fn out_of_range_rows_fail_once_the_field_is_indexed() {
        let f = JsonFile::from_bytes(
            "T",
            b"{\"a\":1}\n{\"a\":2}\n".to_vec(),
            Schema::from_pairs([("a", Type::Int)]),
        )
        .unwrap();
        assert!(f.read_field(5, "a").is_err());
        // Indexing `a` creates its span array; a later out-of-range read
        // must still be a format error, not an index panic.
        assert_eq!(f.read_field(0, "a").unwrap(), Value::Int(1));
        assert_eq!(f.semi_index_fields(), 1);
        let err = f.read_field(5, "a").unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        assert!(f.field_span(2, "a").is_err());
    }

    #[test]
    fn unit_spans_are_record_aligned() {
        let f = sample();
        let (s, e) = f.unit_byte_span(0).unwrap();
        assert_eq!(s, 0);
        assert_eq!(f.raw[e - 1], b'\n');
        let (s1, _) = f.unit_byte_span(1).unwrap();
        assert_eq!(s1, e);
    }

    #[test]
    fn scan_project_range_matches_full_scan() {
        let f = sample();
        let mut full = Vec::new();
        f.scan_project(&["id", "volume"], |r, v| {
            full.push((r, v));
            Ok(())
        })
        .unwrap();
        let mut ranged = Vec::new();
        for r in 0..f.num_objects() {
            f.scan_project_range(&["id", "volume"], r..r + 1, |row, v| {
                ranged.push((row, v));
                Ok(())
            })
            .unwrap();
        }
        assert_eq!(full, ranged);
    }

    #[test]
    fn semi_index_is_shared_across_concurrent_scans() {
        let f = std::sync::Arc::new(sample());
        std::thread::scope(|s| {
            for r in (0..f.num_objects()).map(|r| r..r + 1) {
                let f = std::sync::Arc::clone(&f);
                s.spawn(move || {
                    f.scan_project_range(&["volume"], r, |_, _| Ok(())).unwrap();
                });
            }
        });
        let before = f.stats().snapshot();
        for row in 0..f.num_objects() {
            f.read_field(row, "volume").unwrap();
        }
        let after = f.stats().snapshot();
        assert_eq!(
            after.posmap_hits - before.posmap_hits,
            f.num_objects() as u64
        );
    }

    #[test]
    fn object_span_and_text() {
        let f = sample();
        let t = f.object_text(1).unwrap();
        assert!(t.starts_with("{\"id\":2"));
        let (s, e) = f.object_span(1).unwrap();
        assert!(e > s);
        assert!(f.object_span(99).is_err());
    }

    #[test]
    fn scan_project_all_rows() {
        let f = sample();
        let mut seen = Vec::new();
        f.scan_project(&["id", "volume"], |_, vals| {
            seen.push(vals);
            Ok(())
        })
        .unwrap();
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[1], vec![Value::Int(2), Value::Float(9.5)]);
    }

    #[test]
    fn parse_json_scalars() {
        let src = "BR";
        assert_eq!(parse_json(b"42", 0, src).unwrap().0, Value::Int(42));
        assert_eq!(parse_json(b"-7", 0, src).unwrap().0, Value::Int(-7));
        assert_eq!(parse_json(b"2.5", 0, src).unwrap().0, Value::Float(2.5));
        assert_eq!(parse_json(b"1e3", 0, src).unwrap().0, Value::Float(1000.0));
        assert_eq!(parse_json(b"true", 0, src).unwrap().0, Value::Bool(true));
        assert_eq!(parse_json(b"null", 0, src).unwrap().0, Value::Null);
        assert_eq!(
            parse_json(br#""a\nb""#, 0, src).unwrap().0,
            Value::str("a\nb")
        );
    }

    #[test]
    fn parse_json_unicode_escape() {
        let v = parse_json(b"\"\\u00e9\"", 0, "t").unwrap().0;
        assert_eq!(v, Value::str("\u{e9}"));
    }

    #[test]
    fn surrogate_pairs_decode_to_astral_chars() {
        // U+1F600 GRINNING FACE encodes as \ud83d\ude00 — it must decode to
        // one astral char, not two replacement chars.
        let v = parse_json(b"\"\\ud83d\\ude00\"", 0, "t").unwrap().0;
        assert_eq!(v, Value::str("\u{1F600}"));
        // Surrounding text and multiple pairs survive intact.
        let v = parse_json(b"\"a\\ud83d\\ude00b\\ud83e\\udd14c\"", 0, "t")
            .unwrap()
            .0;
        assert_eq!(v, Value::str("a\u{1F600}b\u{1F914}c"));
        // Raw (unescaped) astral UTF-8 passes through the fast path too.
        let v = parse_json("\"\u{1F600}\"".as_bytes(), 0, "t").unwrap().0;
        assert_eq!(v, Value::str("\u{1F600}"));
    }

    #[test]
    fn lone_surrogates_stay_replacement_chars() {
        // A high surrogate with no low half, a bare low surrogate, and a
        // high surrogate followed by a non-surrogate escape.
        let v = parse_json(b"\"\\ud83dx\"", 0, "t").unwrap().0;
        assert_eq!(v, Value::str("\u{fffd}x"));
        let v = parse_json(b"\"\\ude00x\"", 0, "t").unwrap().0;
        assert_eq!(v, Value::str("\u{fffd}x"));
        let v = parse_json(b"\"\\ud83d\\u0041\"", 0, "t").unwrap().0;
        assert_eq!(v, Value::str("\u{fffd}A"));
        // Two high surrogates in a row: each is lone.
        let v = parse_json(b"\"\\ud83d\\ud83d\"", 0, "t").unwrap().0;
        assert_eq!(v, Value::str("\u{fffd}\u{fffd}"));
    }

    #[test]
    fn astral_strings_round_trip_through_writer() {
        let v = Value::record([("emoji", Value::str("hi \u{1F600}\u{2603}"))]);
        let text = to_json(&v);
        let (back, _) = parse_json(text.as_bytes(), 0, "t").unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn json_round_trip() {
        let v = Value::record([
            ("id", Value::Int(1)),
            ("name", Value::str("a \"b\"")),
            (
                "xs",
                Value::list(vec![Value::Float(1.5), Value::Null, Value::Bool(false)]),
            ),
        ]);
        let text = to_json(&v);
        let (back, _) = parse_json(text.as_bytes(), 0, "t").unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn malformed_json_is_format_error() {
        assert_eq!(parse_json(b"{\"a\":", 0, "t").unwrap_err().kind(), "format");
        assert_eq!(parse_json(b"[1,", 0, "t").unwrap_err().kind(), "format");
        assert_eq!(
            parse_json(b"\"unterminated", 0, "t").unwrap_err().kind(),
            "format"
        );
    }

    #[test]
    fn utf8_bom_is_stripped() {
        // A BOM must not become part of the first record (it would make
        // `{"a":1}` unparseable as a top-level object).
        let data = b"\xEF\xBB\xBF{\"a\":1}\n{\"a\":2}\n".to_vec();
        let f = JsonFile::from_bytes("T", data, Schema::default()).unwrap();
        assert_eq!(f.num_objects(), 2);
        assert_eq!(f.read_field(0, "a").unwrap(), Value::Int(1));
        assert_eq!(f.read_field(1, "a").unwrap(), Value::Int(2));
        let t = f.object_text(0).unwrap();
        assert!(t.starts_with('{'), "BOM leaked into first object: {t:?}");
    }

    #[test]
    fn blank_lines_skipped() {
        let data = b"{\"a\":1}\n\n{\"a\":2}\n  \n".to_vec();
        let f = JsonFile::from_bytes("T", data, Schema::default()).unwrap();
        assert_eq!(f.num_objects(), 2);
        assert_eq!(f.read_field(1, "a").unwrap(), Value::Int(2));
    }

    /// Every unit's byte span — the object index as a plugin exposes it.
    fn unit_spans(p: &dyn InputPlugin) -> Vec<Option<(usize, usize)>> {
        (0..p.num_units()).map(|i| p.unit_byte_span(i)).collect()
    }

    #[test]
    fn revalidate_extends_on_append_and_rebuilds_on_edit() {
        let dir = std::env::temp_dir().join(format!("vida-json-inc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("grow.ndjson");
        std::fs::write(&path, b"{\"id\":1,\"v\":10}\n{\"id\":2,\"v\":20}\n").unwrap();
        let schema = Schema::from_pairs([("id", Type::Int), ("v", Type::Int)]);
        let f = JsonPlugin::new(JsonFile::open("T", &path, schema.clone()).unwrap());
        assert_eq!(f.num_units(), 2);
        f.read_field(1, 1).unwrap(); // seed the semi-index
        assert!(matches!(f.revalidate().unwrap(), Revalidation::Unchanged));

        use std::io::Write;
        let mut fh = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        fh.write_all(b"{\"id\":3,\"v\":30}\n").unwrap();
        drop(fh);
        let Revalidation::Extended { plugin: g, prev } = f.revalidate().unwrap() else {
            panic!("append must extend");
        };
        assert_eq!(prev.prefix_units, 2);
        assert_eq!(g.num_units(), 3);
        assert_eq!(g.read_field(2, 1).unwrap(), Value::Int(30));
        // The seeded span rode along into the extended semi-index.
        let before = g.stats().snapshot().posmap_hits;
        g.read_field(1, 1).unwrap();
        assert!(g.stats().snapshot().posmap_hits > before);
        // Extended object index matches a cold build of the same bytes.
        let cold = JsonPlugin::new(JsonFile::open("T", &path, schema.clone()).unwrap());
        assert_eq!(unit_spans(g.as_ref()), unit_spans(&cold));

        // In-place edit → full rebuild.
        std::fs::write(&path, b"{\"id\":9,\"v\":90}\n{\"id\":8,\"v\":80}\n").unwrap();
        let Revalidation::Rebuilt { plugin: h } = g.revalidate().unwrap() else {
            panic!("edit must rebuild");
        };
        assert_eq!(h.num_units(), 2);
        assert_eq!(h.read_field(0, 1).unwrap(), Value::Int(90));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn revalidate_append_onto_unterminated_line() {
        let dir = std::env::temp_dir().join(format!("vida-json-inc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ragged.ndjson");
        // Last line lacks its newline; the append completes it and adds one
        // more object, so the glued row drops out of the valid prefix.
        std::fs::write(&path, b"{\"id\":1}\n{\"id\":2").unwrap();
        let schema = Schema::from_pairs([("id", Type::Int)]);
        let f = JsonPlugin::new(JsonFile::open("T", &path, schema.clone()).unwrap());
        assert_eq!(f.num_units(), 2);
        use std::io::Write;
        let mut fh = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        fh.write_all(b"2}\n{\"id\":3}\n").unwrap();
        drop(fh);
        let Revalidation::Extended { plugin: g, prev } = f.revalidate().unwrap() else {
            panic!("append must extend");
        };
        assert_eq!(prev.prefix_units, 1);
        assert_eq!(g.num_units(), 3);
        assert_eq!(g.read_field(1, 0).unwrap(), Value::Int(22));
        assert_eq!(g.read_field(2, 0).unwrap(), Value::Int(3));
        let cold = JsonPlugin::new(JsonFile::open("T", &path, schema).unwrap());
        assert_eq!(unit_spans(g.as_ref()), unit_spans(&cold));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn field_span_positions_are_usable() {
        let f = sample();
        let (s, e) = f.field_span(0, "meta").unwrap().unwrap();
        // The span must parse standalone to the same value as read_field.
        let direct = f.read_field(0, "meta").unwrap();
        let data = f.object_text(0).unwrap().as_bytes();
        let (os, _) = f.object_span(0).unwrap();
        let (via_span, _) = parse_json(&data[s - os..e - os], 0, "t").unwrap();
        assert_eq!(via_span, direct);
    }
}
