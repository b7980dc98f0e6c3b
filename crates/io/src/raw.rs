//! Raw input backing: memory-mapped files with an owned-buffer fallback.
//!
//! On unix targets [`RawData::open`] maps the file read-only with
//! `mmap(2)` so scan workers share one set of physical pages and a cold
//! open pays no up-front copy; the kernel pages data in as the scanners
//! walk it. Everywhere else — and whenever the map fails (pipes, special
//! files, zero-length files) — it falls back to reading the file into an
//! owned `Vec<u8>`, so callers never observe a difference beyond
//! [`RawData::is_mapped`].
//!
//! [`RawFile`] pairs those bytes with the fingerprint they were read under
//! and their origin; [`RawFile::refresh`] is the one place a file change
//! is detected and classified.
//!
//! The syscalls are declared directly via `extern "C"`: libc is already
//! linked by `std` on unix, so this adds no dependency.

use std::fmt;
use std::io;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// How [`RawData::open_with`] should back the bytes of a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MapMode {
    /// Memory-map when the platform supports it, falling back to an owned
    /// read on any failure. The default.
    #[default]
    Auto,
    /// Always read into an owned buffer (the escape hatch for
    /// filesystems where mmap misbehaves).
    Never,
}

/// The bytes of one raw input, either borrowed from a shared file mapping
/// or held in an owned buffer. Derefs to `&[u8]`, so format code indexes
/// it exactly like the `Vec<u8>` it replaces.
pub enum RawData {
    /// Bytes copied into process-private memory.
    Owned(Vec<u8>),
    /// Bytes backed by a read-only, private file mapping.
    #[cfg(unix)]
    Mapped(Mmap),
}

impl RawData {
    /// Wrap an in-memory buffer (the `from_bytes` construction path).
    pub fn from_vec(data: Vec<u8>) -> Self {
        RawData::Owned(data)
    }

    /// Open `path` with the default [`MapMode::Auto`] policy.
    pub fn open(path: &Path) -> io::Result<Self> {
        Self::open_with(path, MapMode::Auto)
    }

    /// Open `path` under an explicit backing policy.
    pub fn open_with(path: &Path, mode: MapMode) -> io::Result<Self> {
        #[cfg(unix)]
        if mode == MapMode::Auto {
            if let Ok(map) = Mmap::map(path) {
                return Ok(RawData::Mapped(map));
            }
            // Fall through: unmappable inputs (zero-length files report
            // EINVAL, pipes/sockets ENODEV) still open as owned buffers.
        }
        let _ = mode;
        std::fs::read(path).map(RawData::Owned)
    }

    /// Whether the bytes are backed by a file mapping.
    pub fn is_mapped(&self) -> bool {
        match self {
            RawData::Owned(_) => false,
            #[cfg(unix)]
            RawData::Mapped(_) => true,
        }
    }
}

/// One generation of a raw input: its bytes, the `(byte length, mtime in
/// nanoseconds)` fingerprint they were read under, and where they came
/// from. Every file-backed reader holds one, and [`RawFile::refresh`] is
/// the one place that decides whether the file on disk is still that
/// generation. Derefs to its [`RawData`].
pub struct RawFile {
    data: RawData,
    fingerprint: (u64, u64),
    /// Path, backing policy, and the [`edges`] of the bytes, copied at open:
    /// a mapping follows in-place writes to its file, so the mapped bytes
    /// cannot witness what this generation held. `None` for in-memory
    /// bytes, which never change.
    origin: Option<(PathBuf, MapMode, Vec<u8>)>,
}

/// A process-unique stamp for data that has no file behind it: the second
/// half of an in-memory fingerprint, where a file has its mtime. Every
/// in-memory generation gets its own, so a replacement of the same size
/// never passes for the data it replaced.
pub fn memory_generation() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// What [`RawFile::refresh`] found on disk.
pub enum Refresh {
    /// Same fingerprint (or in-memory bytes): keep the current generation.
    Unchanged,
    /// The file grew and the old bytes are its prefix (a sampled check of
    /// the first and last 4 KiB): indexes over the old bytes extend.
    Grown(RawFile),
    /// Shrunk, edited in place, or grown under a different prefix: indexes
    /// over the old bytes are void.
    Changed(RawFile),
}

impl RawFile {
    /// Open `path` under `mode`. The stat comes before the map, so an
    /// append that lands in between is newer than the fingerprint and the
    /// next [`RawFile::refresh`] reads it.
    pub fn open(path: &Path, mode: MapMode) -> io::Result<Self> {
        let fingerprint = file_fingerprint(path)?;
        let data = RawData::open_with(path, mode)?;
        let origin = Some((path.to_path_buf(), mode, edges(&data)));
        Ok(RawFile {
            data,
            fingerprint,
            origin,
        })
    }

    /// Wrap an in-memory buffer: fingerprint `(len, memory_generation())`,
    /// never refreshed.
    pub fn from_vec(data: Vec<u8>) -> Self {
        RawFile {
            fingerprint: (data.len() as u64, memory_generation()),
            data: RawData::from_vec(data),
            origin: None,
        }
    }

    /// The `(byte length, mtime nanoseconds)` this generation was read
    /// under — the staleness token cache replicas are stamped with.
    pub fn fingerprint(&self) -> (u64, u64) {
        self.fingerprint
    }

    /// Re-stat the backing file and, if its fingerprint moved, reopen it
    /// and classify the change: the only stat → compare → reopen → prefix
    /// check in the tree. The old bytes are never read, so a truncated file
    /// cannot fault the check. A missing file is an `Err`.
    pub fn refresh(&self) -> io::Result<Refresh> {
        let Some((path, mode, old_edges)) = &self.origin else {
            return Ok(Refresh::Unchanged);
        };
        if file_fingerprint(path)? == self.fingerprint {
            return Ok(Refresh::Unchanged);
        }
        let next = RawFile::open(path, *mode)?;
        Ok(
            if next.len() > self.len() && edges(&next[..self.len()]) == *old_edges {
                Refresh::Grown(next)
            } else {
                Refresh::Changed(next)
            },
        )
    }
}

impl Deref for RawFile {
    type Target = RawData;

    #[inline]
    fn deref(&self) -> &RawData {
        &self.data
    }
}

/// Bytes [`edges`] keeps from each end of a generation — enough to catch
/// truncate-and-rewrite cycles that happen to land on a larger size, cheap
/// enough to copy at every open.
const PREFIX_CHECK_BYTES: usize = 4096;

/// The first and last [`PREFIX_CHECK_BYTES`] of `data`: the sampled
/// witness [`RawFile::refresh`] compares a grown file's prefix against.
/// Exact for files up to twice the window; for larger files it is the
/// growth heuristic the incremental re-query path accepts — an in-place
/// edit confined to the uncompared middle *and* accompanied by an append
/// is indistinguishable from a pure append.
fn edges(data: &[u8]) -> Vec<u8> {
    let k = PREFIX_CHECK_BYTES.min(data.len());
    [&data[..k], &data[data.len() - k..]].concat()
}

/// Stat-based change fingerprint of a file: `(byte length, mtime in
/// nanoseconds since the unix epoch)`.
///
/// Nanosecond precision matters: a same-length in-place rewrite lands
/// within one second of the original write on any real workload, so a
/// seconds-truncated mtime would produce an identical fingerprint and the
/// engine would keep serving replicas of the old bytes. Filesystems that
/// only store coarser mtimes degrade gracefully (the fingerprint is only
/// ever compared for equality).
fn file_fingerprint(path: &Path) -> io::Result<(u64, u64)> {
    let meta = std::fs::metadata(path)?;
    let mtime = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    Ok((meta.len(), mtime))
}

impl Deref for RawData {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        match self {
            RawData::Owned(v) => v,
            #[cfg(unix)]
            RawData::Mapped(m) => m.as_slice(),
        }
    }
}

impl AsRef<[u8]> for RawData {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl fmt::Debug for RawData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RawData")
            .field("len", &self.len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

#[cfg(unix)]
pub use unix::Mmap;

#[cfg(unix)]
mod unix {
    use std::ffi::c_void;
    use std::io;
    use std::os::unix::io::AsRawFd;
    use std::path::Path;

    // libc is linked by std on unix; declaring the three calls we need
    // avoids adding a crate dependency.
    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
        fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
    }

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;
    const MADV_WILLNEED: i32 = 3;

    /// A read-only, private memory mapping of a whole file.
    ///
    /// # Safety invariants
    ///
    /// `ptr` points at a live `len`-byte mapping created by `mmap` and is
    /// unmapped exactly once, in `Drop`. The mapping is `PROT_READ` +
    /// `MAP_PRIVATE`, so the pages are immutable from this process and
    /// safe to share across threads (`Send`/`Sync` below).
    ///
    /// # Truncation
    ///
    /// Touching a mapped page past the file's current EOF raises `SIGBUS`
    /// — the contract every mmap'd reader accepts. The engine handles it
    /// at the *revalidation* layer: each query re-stats every input it
    /// reads once, before any scan ([`super::RawFile::refresh`]), and a
    /// shrunk file makes the format plugin drop this mapping and reopen the
    /// file fresh (owned read fallback included) **before** any scan
    /// dereferences the old pages. A truncation racing the stat-then-scan
    /// window remains fatal, as it is for every mmap consumer;
    /// `MapMode::Never` removes the hazard entirely for
    /// hostile filesystems.
    pub struct Mmap {
        ptr: *mut c_void,
        len: usize,
    }

    // The mapping is read-only and owned uniquely by this struct.
    unsafe impl Send for Mmap {}
    unsafe impl Sync for Mmap {}

    impl Mmap {
        /// Map `path` read-only. Fails (letting the caller fall back to an
        /// owned read) for zero-length files — `mmap` with `len == 0` is
        /// `EINVAL` — and for any file the kernel refuses to map.
        pub fn map(path: &Path) -> io::Result<Self> {
            let file = std::fs::File::open(path)?;
            let len = file.metadata()?.len();
            if len == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "cannot map zero-length file",
                ));
            }
            let len = usize::try_from(len)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "file too large"))?;
            // SAFETY: fd is a valid open file, len is its nonzero size;
            // a PROT_READ + MAP_PRIVATE mapping aliases no Rust memory.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            // Sequential scans benefit from read-ahead; purely advisory.
            // SAFETY: ptr/len describe the mapping created above.
            unsafe {
                let _ = madvise(ptr, len, MADV_WILLNEED);
            }
            Ok(Mmap { ptr, len })
        }

        #[inline]
        pub fn as_slice(&self) -> &[u8] {
            // SAFETY: ptr is a live PROT_READ mapping of exactly len bytes
            // (struct invariant); the lifetime is tied to &self.
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }

        #[inline]
        pub fn len(&self) -> usize {
            self.len
        }

        #[inline]
        pub fn is_empty(&self) -> bool {
            self.len == 0
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            // SAFETY: ptr/len came from a successful mmap and are unmapped
            // only here.
            unsafe {
                let _ = munmap(self.ptr, self.len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `refresh`'s growth test over two in-memory generations.
    fn prefix_matches(old: &[u8], new: &[u8]) -> bool {
        new.len() > old.len() && edges(&new[..old.len()]) == edges(old)
    }

    #[test]
    fn prefix_matches_accepts_pure_appends() {
        let old = b"id,age\n1,70\n2,31\n".to_vec();
        let mut new = old.clone();
        new.extend_from_slice(b"3,45\n");
        assert!(prefix_matches(&old, &new));
        // Growth is what the check witnesses: an equal-length file whose
        // fingerprint moved was rewritten, whatever its sampled edges say.
        assert!(!prefix_matches(&old, &old), "equal length is not growth");
        assert!(prefix_matches(b"", &old), "empty is a prefix of anything");
    }

    #[test]
    fn prefix_matches_rejects_edits_and_shrinks() {
        let old = b"id,age\n1,70\n2,31\n".to_vec();
        // Shrunk: old cannot be a prefix of something shorter.
        assert!(!prefix_matches(&old, &old[..5]));
        // Head edit within the window.
        let mut head = old.clone();
        head[0] = b'X';
        head.extend_from_slice(b"3,45\n");
        assert!(!prefix_matches(&old, &head));
        // Tail edit within the window.
        let mut tail = old.clone();
        let n = tail.len();
        tail[n - 2] = b'9';
        tail.extend_from_slice(b"3,45\n");
        assert!(!prefix_matches(&old, &tail));
    }

    #[test]
    fn file_fingerprint_tracks_length_and_mtime() {
        let dir = std::env::temp_dir().join(format!("vida-io-fp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f.csv");
        std::fs::write(&path, b"a,b\n1,2\n").unwrap();
        let fp1 = file_fingerprint(&path).unwrap();
        assert_eq!(fp1.0, 8);
        // Same-length in-place rewrite, no sleep: length ties, so only a
        // sub-second mtime can tell the versions apart. The kernel's file
        // clock has coarse granularity (one tick, typically ≤10ms), so
        // rewrite until the stamp moves — still far inside one second,
        // which is the precision the fingerprint must beat.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        let mut fp2 = fp1;
        while fp2 == fp1 && std::time::Instant::now() < deadline {
            std::fs::write(&path, b"a,b\n9,8\n").unwrap();
            fp2 = file_fingerprint(&path).unwrap();
        }
        assert_eq!(fp2.0, 8);
        assert_ne!(fp1, fp2, "nanosecond mtime must distinguish rewrites");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Overwrite `path` until its fingerprint moves off `prev` (the file
    /// clock ticks coarsely; a same-length rewrite is only visible there).
    fn rewrite(path: &Path, bytes: &[u8], prev: (u64, u64)) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        loop {
            std::fs::write(path, bytes).unwrap();
            if file_fingerprint(path).unwrap() != prev {
                return;
            }
            assert!(std::time::Instant::now() < deadline, "file clock stuck");
        }
    }

    fn append(path: &Path, bytes: &[u8]) {
        use std::io::Write;
        let mut fh = std::fs::OpenOptions::new().append(true).open(path).unwrap();
        fh.write_all(bytes).unwrap();
    }

    #[test]
    fn refresh_classifies_every_change_on_both_backings() {
        assert!(matches!(
            RawFile::from_vec(b"a\n".to_vec()).refresh().unwrap(),
            Refresh::Unchanged
        ));
        for mode in [MapMode::Auto, MapMode::Never] {
            let dir = std::env::temp_dir()
                .join(format!("vida-io-refresh-{}-{mode:?}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("f.csv");
            std::fs::write(&path, b"id\n1\n2\n").unwrap();
            let f = RawFile::open(&path, mode).unwrap();
            assert_eq!(&f[..], b"id\n1\n2\n");
            assert!(
                matches!(f.refresh().unwrap(), Refresh::Unchanged),
                "{mode:?}"
            );

            append(&path, b"3\n");
            let Refresh::Grown(g) = f.refresh().unwrap() else {
                panic!("{mode:?}: append must grow");
            };
            assert_eq!(&g[..], b"id\n1\n2\n3\n");
            assert_eq!(g.fingerprint(), file_fingerprint(&path).unwrap());
            assert!(matches!(g.refresh().unwrap(), Refresh::Unchanged));

            // Same length, new bytes: only the ns-mtime tells them apart.
            rewrite(&path, b"id\n9\n2\n3\n", g.fingerprint());
            let Refresh::Changed(e) = g.refresh().unwrap() else {
                panic!("{mode:?}: same-length rewrite must change");
            };
            assert_eq!(&e[..], b"id\n9\n2\n3\n");

            rewrite(&path, b"id\n9\n", e.fingerprint());
            let Refresh::Changed(t) = e.refresh().unwrap() else {
                panic!("{mode:?}: truncate must change");
            };
            assert_eq!(&t[..], b"id\n9\n");

            // Longer, but the old head no longer matches.
            rewrite(&path, b"ix\n9\n4\n", t.fingerprint());
            assert!(
                matches!(t.refresh().unwrap(), Refresh::Changed(_)),
                "{mode:?}: head edit plus append must change"
            );

            std::fs::remove_file(&path).unwrap();
            assert!(t.refresh().is_err(), "{mode:?}: deleted file is an error");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
