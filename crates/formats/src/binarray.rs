//! Binary dense-array container (stand-in for ROOT / FITS / NetCDF / HDF5
//! array data, ViDa §3.1).
//!
//! The paper's motivating sources include scientific array formats whose
//! defining properties are (i) binary encoding — per-element access cost is
//! *constant*, unlike text (§5) — and (ii) a choice of retrieval units:
//! element, row, column, or an `n × m` chunk. This module implements a
//! minimal such container:
//!
//! ```text
//! magic "VIDARR01" | elem_type u32 (0=i64, 1=f64) | ndims u32 | dims u64[ndims] | data LE
//! ```
//!
//! All multi-byte values are little-endian; data is row-major.

use crate::plugin::FileIndex;
use crate::stats::AccessStats;
use std::path::Path;
use std::sync::Arc;
use vida_io::{MapMode, RawFile};
use vida_types::{Result, Schema, Type, Value, VidaError};

const MAGIC: &[u8; 8] = b"VIDARR01";

/// Element type tag stored in the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElemType {
    I64,
    F64,
}

impl ElemType {
    fn tag(self) -> u32 {
        match self {
            ElemType::I64 => 0,
            ElemType::F64 => 1,
        }
    }

    fn from_tag(tag: u32) -> Option<Self> {
        match tag {
            0 => Some(ElemType::I64),
            1 => Some(ElemType::F64),
            _ => None,
        }
    }

    pub fn to_type(self) -> Type {
        match self {
            ElemType::I64 => Type::Int,
            ElemType::F64 => Type::Float,
        }
    }
}

/// Serialize a dense array into the container format.
pub fn encode_array(elem: ElemType, dims: &[usize], data: &[Value]) -> Result<Vec<u8>> {
    let expected: usize = dims.iter().product();
    if data.len() != expected {
        return Err(VidaError::format(
            "<encode>",
            format!(
                "dims {dims:?} imply {expected} elements, got {}",
                data.len()
            ),
        ));
    }
    let mut out = Vec::with_capacity(16 + dims.len() * 8 + data.len() * 8);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&elem.tag().to_le_bytes());
    out.extend_from_slice(&(dims.len() as u32).to_le_bytes());
    for &d in dims {
        out.extend_from_slice(&(d as u64).to_le_bytes());
    }
    for v in data {
        match elem {
            ElemType::I64 => {
                let x = v
                    .as_i64()
                    .ok_or_else(|| VidaError::format("<encode>", format!("non-int {v}")))?;
                out.extend_from_slice(&x.to_le_bytes());
            }
            ElemType::F64 => {
                let x = v
                    .as_f64()
                    .ok_or_else(|| VidaError::format("<encode>", format!("non-float {v}")))?;
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
    }
    Ok(out)
}

/// A binary array file opened for querying.
pub struct ArrayFile {
    name: String,
    /// Raw bytes with their fingerprint and origin, memory-mapped when
    /// opened from disk with an owned-buffer fallback. Binary formats
    /// benefit doubly: elements decode straight from the mapped pages with
    /// no copy at all.
    raw: RawFile,
    elem: ElemType,
    dims: Vec<usize>,
    data_offset: usize,
    stats: Arc<AccessStats>,
}

impl ArrayFile {
    pub fn open(name: impl Into<String>, path: &Path) -> Result<Self> {
        Self::open_with(name, path, MapMode::Auto)
    }

    /// [`ArrayFile::open`] with an explicit backing policy
    /// ([`MapMode::Never`] is the `--no-mmap` escape hatch).
    pub fn open_with(name: impl Into<String>, path: &Path, mode: MapMode) -> Result<Self> {
        Self::from_raw(name.into(), RawFile::open(path, mode)?)
    }

    pub fn from_bytes(name: impl Into<String>, data: Vec<u8>) -> Result<Self> {
        Self::from_raw(name.into(), RawFile::from_vec(data))
    }

    fn from_raw(name: String, data: RawFile) -> Result<Self> {
        if data.len() < 16 || &data[0..8] != MAGIC {
            return Err(VidaError::format(&name, "bad magic (not a VIDARR01 file)"));
        }
        let tag = u32::from_le_bytes(data[8..12].try_into().unwrap());
        let elem = ElemType::from_tag(tag)
            .ok_or_else(|| VidaError::format(&name, format!("unknown element type {tag}")))?;
        let ndims = u32::from_le_bytes(data[12..16].try_into().unwrap()) as usize;
        if ndims == 0 || data.len() < 16 + ndims * 8 {
            return Err(VidaError::format(&name, "truncated header"));
        }
        let mut dims = Vec::with_capacity(ndims);
        for i in 0..ndims {
            let off = 16 + i * 8;
            dims.push(u64::from_le_bytes(data[off..off + 8].try_into().unwrap()) as usize);
        }
        let data_offset = 16 + ndims * 8;
        let expected: usize = dims.iter().product::<usize>() * 8;
        if data.len() < data_offset + expected {
            return Err(VidaError::format(
                &name,
                format!(
                    "truncated data: need {expected} bytes, have {}",
                    data.len() - data_offset
                ),
            ));
        }
        Ok(ArrayFile {
            name,
            raw: data,
            elem,
            dims,
            data_offset,
            stats: Arc::new(AccessStats::new()),
        })
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    pub fn elem_type(&self) -> ElemType {
        self.elem
    }

    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

    /// The dataset schema when the array is viewed as a relation: one `int`
    /// index column per dimension plus a `val` column.
    pub fn relational_schema(&self) -> Schema {
        let mut pairs: Vec<(String, Type)> = (0..self.dims.len())
            .map(|d| (format!("i{d}"), Type::Int))
            .collect();
        pairs.push(("val".to_string(), self.elem.to_type()));
        Schema::from_pairs(pairs)
    }

    fn decode_at(&self, flat: usize) -> Value {
        let off = self.data_offset + flat * 8;
        let bytes: [u8; 8] = self.raw[off..off + 8].try_into().unwrap();
        match self.elem {
            ElemType::I64 => Value::Int(i64::from_le_bytes(bytes)),
            ElemType::F64 => Value::Float(f64::from_le_bytes(bytes)),
        }
    }

    /// Read one element by multi-dimensional index. Constant cost — this is
    /// what the optimizer's binary-format wrapper models (§5).
    pub fn read_element(&self, idx: &[usize]) -> Result<Value> {
        if idx.len() != self.dims.len() {
            return Err(VidaError::format(
                &self.name,
                format!("index rank {} != array rank {}", idx.len(), self.dims.len()),
            ));
        }
        let mut flat = 0usize;
        for (i, (&x, &d)) in idx.iter().zip(self.dims.iter()).enumerate() {
            if x >= d {
                return Err(VidaError::format(
                    &self.name,
                    format!("index {x} out of range for dim {i} (size {d})"),
                ));
            }
            flat = flat * d + x;
        }
        self.stats.add_bytes_parsed(8);
        self.stats.add_fields_parsed(1);
        Ok(self.decode_at(flat))
    }

    /// Read a full row (first-dimension slice) of a 2-D array.
    pub fn read_row(&self, row: usize) -> Result<Vec<Value>> {
        if self.dims.len() != 2 {
            return Err(VidaError::format(&self.name, "read_row requires rank 2"));
        }
        let (rows, cols) = (self.dims[0], self.dims[1]);
        if row >= rows {
            return Err(VidaError::format(
                &self.name,
                format!("row {row} out of range"),
            ));
        }
        self.stats.add_bytes_parsed(cols as u64 * 8);
        self.stats.add_units(1);
        Ok((0..cols).map(|c| self.decode_at(row * cols + c)).collect())
    }

    /// Read an `n × m` chunk of a 2-D array (array-database retrieval unit).
    pub fn read_chunk(
        &self,
        row0: usize,
        col0: usize,
        n: usize,
        m: usize,
    ) -> Result<Vec<Vec<Value>>> {
        if self.dims.len() != 2 {
            return Err(VidaError::format(&self.name, "read_chunk requires rank 2"));
        }
        let (rows, cols) = (self.dims[0], self.dims[1]);
        if row0 + n > rows || col0 + m > cols {
            return Err(VidaError::format(
                &self.name,
                format!("chunk [{row0}+{n}, {col0}+{m}] exceeds dims {rows}x{cols}"),
            ));
        }
        self.stats.add_bytes_parsed((n * m * 8) as u64);
        self.stats.add_units(1);
        Ok((row0..row0 + n)
            .map(|r| {
                (col0..col0 + m)
                    .map(|c| self.decode_at(r * cols + c))
                    .collect()
            })
            .collect())
    }

    /// Iterate the whole array as relational records `(i0.., val)`.
    pub fn scan_relational(
        &self,
        mut f: impl FnMut(usize, Vec<Value>) -> Result<()>,
    ) -> Result<()> {
        let total = self.len();
        let mut idx = vec![0usize; self.dims.len()];
        for flat in 0..total {
            let mut rec: Vec<Value> = idx.iter().map(|&i| Value::Int(i as i64)).collect();
            rec.push(self.decode_at(flat));
            self.stats.add_units(1);
            self.stats.add_bytes_parsed(8);
            f(flat, rec)?;
            // Increment the multi-index, last dimension fastest.
            for d in (0..idx.len()).rev() {
                idx[d] += 1;
                if idx[d] < self.dims[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        Ok(())
    }

    /// Materialize the full array as a ViDa [`Value::Array`].
    pub fn to_value(&self) -> Value {
        let data = (0..self.len()).map(|i| self.decode_at(i)).collect();
        Value::Array {
            dims: self.dims.clone(),
            data,
        }
    }
}

/// Arrays fix their dims in the header, so growth takes the default
/// re-index: a grown file means a rewritten header, and a fresh index is as
/// cheap as an extension would be (the header parse is O(rank)).
impl FileIndex for ArrayFile {
    fn raw(&self) -> &RawFile {
        &self.raw
    }

    fn reindex(&self, raw: RawFile) -> Result<Self> {
        let mut file = Self::from_raw(self.name.clone(), raw)?;
        file.stats = Arc::clone(&self.stats);
        Ok(file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> ArrayFile {
        // 3x4 f64 matrix: value = 10*row + col.
        let data: Vec<Value> = (0..3)
            .flat_map(|r| (0..4).map(move |c| Value::Float((10 * r + c) as f64)))
            .collect();
        let bytes = encode_array(ElemType::F64, &[3, 4], &data).unwrap();
        ArrayFile::from_bytes("M", bytes).unwrap()
    }

    #[test]
    fn round_trip_elements() {
        let m = matrix();
        assert_eq!(m.dims(), &[3, 4]);
        assert_eq!(m.read_element(&[0, 0]).unwrap(), Value::Float(0.0));
        assert_eq!(m.read_element(&[2, 3]).unwrap(), Value::Float(23.0));
        assert_eq!(m.read_element(&[1, 2]).unwrap(), Value::Float(12.0));
    }

    #[test]
    fn rows_and_chunks() {
        let m = matrix();
        let row = m.read_row(1).unwrap();
        assert_eq!(
            row,
            vec![
                Value::Float(10.0),
                Value::Float(11.0),
                Value::Float(12.0),
                Value::Float(13.0)
            ]
        );
        let chunk = m.read_chunk(1, 1, 2, 2).unwrap();
        assert_eq!(chunk[0], vec![Value::Float(11.0), Value::Float(12.0)]);
        assert_eq!(chunk[1], vec![Value::Float(21.0), Value::Float(22.0)]);
    }

    #[test]
    fn bounds_errors() {
        let m = matrix();
        assert!(m.read_element(&[3, 0]).is_err());
        assert!(m.read_element(&[0]).is_err());
        assert!(m.read_row(5).is_err());
        assert!(m.read_chunk(2, 2, 2, 3).is_err());
    }

    #[test]
    fn i64_arrays() {
        let data: Vec<Value> = (0..6).map(Value::Int).collect();
        let bytes = encode_array(ElemType::I64, &[6], &data).unwrap();
        let a = ArrayFile::from_bytes("V", bytes).unwrap();
        assert_eq!(a.read_element(&[4]).unwrap(), Value::Int(4));
        assert_eq!(a.elem_type(), ElemType::I64);
    }

    #[test]
    fn relational_scan_emits_indexes() {
        let m = matrix();
        let mut recs = Vec::new();
        m.scan_relational(|_, r| {
            recs.push(r);
            Ok(())
        })
        .unwrap();
        assert_eq!(recs.len(), 12);
        assert_eq!(
            recs[5],
            vec![Value::Int(1), Value::Int(1), Value::Float(11.0)]
        );
        let s = m.relational_schema();
        assert_eq!(s.index_of("i0"), Some(0));
        assert_eq!(s.index_of("val"), Some(2));
    }

    #[test]
    fn bad_files_rejected() {
        assert!(ArrayFile::from_bytes("B", b"nope".to_vec()).is_err());
        let mut ok =
            encode_array(ElemType::F64, &[2], &[Value::Float(1.0), Value::Float(2.0)]).unwrap();
        ok.truncate(ok.len() - 4); // truncated data
        assert!(ArrayFile::from_bytes("B", ok).is_err());
    }

    #[test]
    fn encode_validates_shape() {
        assert!(encode_array(ElemType::F64, &[3], &[Value::Float(1.0)]).is_err());
        assert!(encode_array(ElemType::I64, &[1], &[Value::str("x")]).is_err());
    }

    #[test]
    fn to_value_matches() {
        let m = matrix();
        let v = m.to_value();
        let Value::Array { dims, data } = v else {
            panic!()
        };
        assert_eq!(dims, vec![3, 4]);
        assert_eq!(data.len(), 12);
        assert_eq!(data[7], Value::Float(13.0));
    }

    #[test]
    fn constant_cost_counters() {
        let m = matrix();
        m.read_element(&[0, 0]).unwrap();
        m.read_element(&[2, 2]).unwrap();
        let s = m.stats().snapshot();
        assert_eq!(s.bytes_parsed, 16); // 8 bytes per element, position-independent
    }
}
