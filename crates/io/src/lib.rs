//! # vida-io
//!
//! The raw-data ingest substrate shared by every format plugin.
//!
//! The paper's premise (querying raw files in situ) makes cold-run parsing
//! and positional-structure construction the dominant cost, so the two
//! things this crate provides are exactly the two levers on that cost:
//!
//! - [`RawData`]: the bytes of an input file, memory-mapped when the
//!   platform allows it ([`raw`]). Plugins borrow `&[u8]` views of one
//!   shared mapping instead of copying files into private `Vec<u8>`
//!   buffers, so concurrent scan workers read the same pages and cold
//!   opens pay no up-front copy. An owned-buffer backing remains both the
//!   non-unix fallback and an explicit escape hatch ([`MapMode::Never`]).
//! - [`RawFile`]: one generation of an input — its bytes, the `(len,
//!   ns-mtime)` fingerprint they were read under, and their origin.
//!   [`RawFile::refresh`] is the one re-stat in the tree: it answers
//!   `Unchanged`, `Grown` (old bytes a prefix of the new) or `Changed`.
//! - **SWAR scanners** ([`swar`]): word-at-a-time byte search built on
//!   `u64` broadcast-compare — no SIMD intrinsics, no dependencies, and
//!   exact per-byte match masks (not just first-match) so tokenizers can
//!   count several delimiters per loaded word.
//! - Format tokenizers built on those scanners: the quote-aware CSV
//!   tokenizer ([`csv::CsvTokenizer`] — RFC 4180 doubled quotes and
//!   embedded newlines preserved, quote state carried across words) and
//!   the JSON structural scanners ([`json`]) for `"` `\` `{}` `[]` and
//!   NDJSON record boundaries.
//!
//! A UTF-8 byte-order mark at the start of a text file is metadata, not
//! data; [`bom_len`] lets readers skip it uniformly.

pub mod csv;
pub mod json;
pub mod raw;
pub mod swar;

pub use csv::CsvTokenizer;
pub use raw::{memory_generation, MapMode, RawData, RawFile, Refresh};

/// The UTF-8 byte-order mark some writers put at the start of text files.
pub const UTF8_BOM: [u8; 3] = [0xEF, 0xBB, 0xBF];

/// Length of the UTF-8 BOM prefix of `data` (3 if present, else 0).
///
/// Text readers start scanning at this offset so the BOM is never glued
/// onto the first CSV header name or the first JSON record.
#[inline]
pub fn bom_len(data: &[u8]) -> usize {
    if data.starts_with(&UTF8_BOM) {
        3
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bom_detection() {
        assert_eq!(bom_len(b"\xEF\xBB\xBFid,age"), 3);
        assert_eq!(bom_len(b"id,age"), 0);
        assert_eq!(bom_len(b""), 0);
        assert_eq!(bom_len(b"\xEF\xBB"), 0);
    }
}
