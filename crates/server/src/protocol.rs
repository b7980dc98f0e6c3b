//! The length-prefixed streaming result protocol.
//!
//! Every message is a frame: a little-endian `u32` payload length followed
//! by the payload bytes. One query response is:
//!
//! 1. a **status frame** — `+` on success, or `-` followed by the error
//!    message;
//! 2. zero or more **row frames**, one encoded result row each (the
//!    encoding is whatever [`vida_exec::OutputFormat`] the request named);
//! 3. the **zero-length terminator frame**.
//!
//! The server writes frames with `Write::write_all` into the request's
//! sink (a socket, pipe, or buffer), several rows' frames per write, so a
//! slow consumer applies backpressure to the executor thread serving it.

use std::io::{self, Read, Write};

/// Upper bound accepted by [`read_frame`]: a corrupt length prefix must
/// not make the reader allocate gigabytes.
pub const MAX_FRAME_LEN: u32 = 1 << 28;

/// Write one frame (length prefix + payload) to `sink`.
pub fn write_frame(sink: &mut dyn Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!((payload.len() as u64) <= MAX_FRAME_LEN as u64);
    sink.write_all(&(payload.len() as u32).to_le_bytes())?;
    sink.write_all(payload)
}

/// Terminate a response: the zero-length frame, then a flush.
pub fn finish_response(sink: &mut dyn Write) -> io::Result<()> {
    sink.write_all(&0u32.to_le_bytes())?;
    sink.flush()
}

/// Read one frame from `src`; `Ok(None)` is the zero-length terminator.
pub fn read_frame(src: &mut dyn Read) -> io::Result<Option<Vec<u8>>> {
    let mut prefix = [0u8; 4];
    src.read_exact(&mut prefix)?;
    let len = u32::from_le_bytes(prefix);
    if len == 0 {
        return Ok(None);
    }
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds protocol limit"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    src.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// A fully-read response: status parsed, row frames collected in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResponse {
    /// `None` on success; the server's error message otherwise.
    pub error: Option<String>,
    /// The encoded row frames (empty on error).
    pub rows: Vec<Vec<u8>>,
}

impl QueryResponse {
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }
}

/// Read one whole response off `src`, blocking until the terminator.
pub fn read_response(src: &mut dyn Read) -> io::Result<QueryResponse> {
    let status = read_frame(src)?.ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidData, "response missing status frame")
    })?;
    let error = match status.first() {
        Some(b'+') => None,
        Some(b'-') => Some(String::from_utf8_lossy(&status[1..]).into_owned()),
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "status frame must start with '+' or '-'",
            ))
        }
    };
    let mut rows = Vec::new();
    while let Some(row) = read_frame(src)? {
        rows.push(row);
    }
    Ok(QueryResponse { error, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"row one").unwrap();
        let back = read_frame(&mut Cursor::new(buf)).unwrap();
        assert_eq!(back.as_deref(), Some(&b"row one"[..]));
    }

    #[test]
    fn response_round_trips() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"+").unwrap();
        write_frame(&mut buf, b"a").unwrap();
        write_frame(&mut buf, b"bb").unwrap();
        finish_response(&mut buf).unwrap();
        let resp = read_response(&mut Cursor::new(buf)).unwrap();
        assert!(resp.is_ok());
        assert_eq!(resp.rows, vec![b"a".to_vec(), b"bb".to_vec()]);
    }

    #[test]
    fn error_response_carries_message() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"-no such dataset").unwrap();
        finish_response(&mut buf).unwrap();
        let resp = read_response(&mut Cursor::new(buf)).unwrap();
        assert_eq!(resp.error.as_deref(), Some("no such dataset"));
        assert!(resp.rows.is_empty());
    }

    #[test]
    fn corrupt_length_prefix_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(b"junk");
        assert!(read_frame(&mut Cursor::new(buf)).is_err());
    }

    #[test]
    fn truncated_stream_is_an_error_not_a_hang() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"+").unwrap();
        write_frame(&mut buf, b"partial row").unwrap();
        // No terminator: the reader hits EOF and reports it.
        assert!(read_response(&mut Cursor::new(buf)).is_err());
    }

    #[test]
    fn bad_status_marker_is_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"?what").unwrap();
        finish_response(&mut buf).unwrap();
        assert!(read_response(&mut Cursor::new(buf)).is_err());
    }
}
