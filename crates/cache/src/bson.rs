//! A compact binary serialization of [`Value`] — ViDa's "binary JSON"
//! (Figure 4 layout (b)).
//!
//! The paper notes binary JSON serializations are more compact than JSON
//! text and cheaper to re-read; ViDa materializes intermediate results this
//! way when an application wants JSON-shaped output repeatedly (§5). The
//! encoding is a simple tag-length-value scheme:
//!
//! ```text
//! 0x00 null | 0x01 bool u8 | 0x02 int i64 | 0x03 float f64
//! 0x04 str (u32 len, bytes) | 0x05 record (u32 n, n × (str name, value))
//! 0x06..0x09 set/bag/list/array-collection (u32 n, n × value)
//! 0x0A array (u32 ndims, ndims × u64, u32 n, n × value)
//! ```

use vida_types::{CollectionKind, Result, Value, VidaError};

/// Append the encoding of `v` to `out`.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(0x00),
        Value::Bool(b) => {
            out.push(0x01);
            out.push(*b as u8);
        }
        Value::Int(i) => {
            out.push(0x02);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(0x03);
            out.extend_from_slice(&f.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(0x04);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Record(fields) => {
            out.push(0x05);
            out.extend_from_slice(&(fields.len() as u32).to_le_bytes());
            for (n, v) in fields {
                out.extend_from_slice(&(n.len() as u32).to_le_bytes());
                out.extend_from_slice(n.as_bytes());
                encode_value(v, out);
            }
        }
        Value::Collection(kind, items) => {
            out.push(match kind {
                CollectionKind::Set => 0x06,
                CollectionKind::Bag => 0x07,
                CollectionKind::List => 0x08,
                CollectionKind::Array => 0x09,
            });
            out.extend_from_slice(&(items.len() as u32).to_le_bytes());
            for v in items {
                encode_value(v, out);
            }
        }
        Value::Array(a) => {
            out.push(0x0A);
            out.extend_from_slice(&(a.dims.len() as u32).to_le_bytes());
            for &d in &a.dims {
                out.extend_from_slice(&(d as u64).to_le_bytes());
            }
            out.extend_from_slice(&(a.data.len() as u32).to_le_bytes());
            for v in &a.data {
                encode_value(v, out);
            }
        }
    }
}

/// Decode one value starting at `pos`; returns the value and the offset just
/// past it.
pub fn decode_value(buf: &[u8], pos: usize) -> Result<(Value, usize)> {
    let err = || VidaError::Exec("truncated binary value".into());
    let tag = *buf.get(pos).ok_or_else(err)?;
    let mut p = pos + 1;
    let take = |p: &mut usize, n: usize| -> Result<&[u8]> {
        let s = buf.get(*p..*p + n).ok_or_else(err)?;
        *p += n;
        Ok(s)
    };
    match tag {
        0x00 => Ok((Value::Null, p)),
        0x01 => {
            let b = take(&mut p, 1)?[0];
            Ok((Value::Bool(b != 0), p))
        }
        0x02 => {
            let b: [u8; 8] = take(&mut p, 8)?.try_into().unwrap();
            Ok((Value::Int(i64::from_le_bytes(b)), p))
        }
        0x03 => {
            let b: [u8; 8] = take(&mut p, 8)?.try_into().unwrap();
            Ok((Value::Float(f64::from_le_bytes(b)), p))
        }
        0x04 => {
            let n = u32::from_le_bytes(take(&mut p, 4)?.try_into().unwrap()) as usize;
            let s = std::str::from_utf8(take(&mut p, n)?)
                .map_err(|_| VidaError::Exec("invalid UTF-8 in binary value".into()))?
                .to_string();
            Ok((Value::Str(s), p))
        }
        0x05 => {
            let n = u32::from_le_bytes(take(&mut p, 4)?.try_into().unwrap()) as usize;
            let mut fields = Vec::with_capacity(n);
            for _ in 0..n {
                let ln = u32::from_le_bytes(take(&mut p, 4)?.try_into().unwrap()) as usize;
                let name = std::str::from_utf8(take(&mut p, ln)?)
                    .map_err(|_| VidaError::Exec("invalid UTF-8 in field name".into()))?
                    .to_string();
                let (v, np) = decode_value(buf, p)?;
                p = np;
                fields.push((name, v));
            }
            Ok((Value::Record(fields), p))
        }
        0x06..=0x09 => {
            let kind = match tag {
                0x06 => CollectionKind::Set,
                0x07 => CollectionKind::Bag,
                0x08 => CollectionKind::List,
                _ => CollectionKind::Array,
            };
            let n = u32::from_le_bytes(take(&mut p, 4)?.try_into().unwrap()) as usize;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                let (v, np) = decode_value(buf, p)?;
                p = np;
                items.push(v);
            }
            Ok((Value::Collection(kind, items), p))
        }
        0x0A => {
            let nd = u32::from_le_bytes(take(&mut p, 4)?.try_into().unwrap()) as usize;
            let mut dims = Vec::with_capacity(nd);
            for _ in 0..nd {
                dims.push(u64::from_le_bytes(take(&mut p, 8)?.try_into().unwrap()) as usize);
            }
            let n = u32::from_le_bytes(take(&mut p, 4)?.try_into().unwrap()) as usize;
            let mut data = Vec::with_capacity(n);
            for _ in 0..n {
                let (v, np) = decode_value(buf, p)?;
                p = np;
                data.push(v);
            }
            Ok((Value::array(dims, data), p))
        }
        t => Err(VidaError::Exec(format!("unknown binary value tag {t:#x}"))),
    }
}

/// Encode a value into a fresh buffer.
pub fn to_bytes(v: &Value) -> Vec<u8> {
    let mut out = Vec::new();
    encode_value(v, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: Value) {
        let bytes = to_bytes(&v);
        let (back, end) = decode_value(&bytes, 0).unwrap();
        assert_eq!(back, v);
        assert_eq!(end, bytes.len());
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(Value::Null);
        round_trip(Value::Bool(true));
        round_trip(Value::Int(-42));
        round_trip(Value::Float(2.5));
        round_trip(Value::str("héllo\nworld"));
    }

    #[test]
    fn nested_round_trip() {
        round_trip(Value::record([
            ("id", Value::Int(1)),
            (
                "inner",
                Value::record([("xs", Value::list(vec![Value::Int(1), Value::Null]))]),
            ),
            ("s", Value::set(vec![Value::Int(2), Value::Int(1)])),
        ]));
        round_trip(Value::array(
            vec![2, 2],
            vec![
                Value::Float(1.0),
                Value::Float(2.0),
                Value::Float(3.0),
                Value::Float(4.0),
            ],
        ));
    }

    #[test]
    fn binary_is_more_compact_than_json_for_numbers() {
        // The Figure-4 motivation: binary JSON beats text for numeric data.
        let v = Value::record(
            (0..20)
                .map(|i| {
                    (
                        format!("field_number_{i}"),
                        Value::Float(i as f64 * 1.123456789),
                    )
                })
                .collect::<Vec<_>>(),
        );
        let bin = to_bytes(&v).len();
        // JSON text of the same record (rough expansion).
        let json: usize = 2 + 20 * (18 + 3 + 18);
        assert!(bin < json, "binary {bin} should beat text {json}");
    }

    #[test]
    fn truncated_buffers_error() {
        let bytes = to_bytes(&Value::str("hello"));
        for cut in 1..bytes.len() {
            assert!(decode_value(&bytes[..cut], 0).is_err());
        }
    }

    #[test]
    fn unknown_tag_errors() {
        assert!(decode_value(&[0xFF], 0).is_err());
        assert!(decode_value(&[], 0).is_err());
    }

    #[test]
    fn sequential_values_decode_in_order() {
        let mut buf = Vec::new();
        encode_value(&Value::Int(1), &mut buf);
        encode_value(&Value::str("two"), &mut buf);
        encode_value(&Value::Bool(false), &mut buf);
        let (a, p1) = decode_value(&buf, 0).unwrap();
        let (b, p2) = decode_value(&buf, p1).unwrap();
        let (c, p3) = decode_value(&buf, p2).unwrap();
        assert_eq!(
            (a, b, c),
            (Value::Int(1), Value::str("two"), Value::Bool(false))
        );
        assert_eq!(p3, buf.len());
    }
}
