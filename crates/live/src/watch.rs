//! The corpus-file append watcher.
//!
//! RIPE-Atlas-style corpora are JSON Lines files that only ever grow:
//! collectors append newline-terminated records. The watcher polls the
//! file's length (no inotify — portable and cheap at live-intake
//! rates), and on growth slurps the appended bytes up to the **last
//! newline** — a partial tail line stays on disk for the next poll, so
//! a record mid-append is never framed early and arbitrary append
//! chunkings converge on the same byte stream. On shrink (truncation or
//! rotation-in-place) it moves to the replacement's newline-aligned
//! length without reading its records, signalling the caller to fall
//! back to a full re-ingest.
//!
//! A watcher starts at the newline-aligned length the caller's startup
//! analysis read ([`newline_aligned_len`]): a restarted daemon analyses
//! the whole corpus at startup, so nothing before that length is ever
//! re-signalled.
//!
//! Length alone cannot catch a rotation that swaps in a file at least
//! as long as the consumed offset, so the watcher also tracks the
//! file's identity — `(dev, inode)` on Unix — per poll: any identity
//! change reads as a truncation and triggers the same full re-ingest
//! fallback.

use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// A filesystem identity for the watched file: `(device, inode)` where
/// the platform exposes them, `None` elsewhere (detection then falls
/// back to length-only).
type FileIdentity = Option<(u64, u64)>;

#[cfg(unix)]
fn file_identity(meta: &std::fs::Metadata) -> FileIdentity {
    use std::os::unix::fs::MetadataExt;
    Some((meta.dev(), meta.ino()))
}

#[cfg(not(unix))]
fn file_identity(_meta: &std::fs::Metadata) -> FileIdentity {
    None
}

/// Outcome of one [`AppendWatcher::poll`].
#[derive(Debug, PartialEq, Eq)]
pub enum WatchPoll {
    /// No complete new record since the last poll.
    Unchanged,
    /// Newline-terminated bytes appended since the last poll.
    Appended(Vec<u8>),
    /// The file shrank or was replaced (truncation/rotation). The
    /// watcher moved to the replacement's newline-aligned length, which
    /// this carries. The caller must treat this as a full re-ingest
    /// (every memoized series is suspect).
    Truncated(u64),
}

/// Polls one append-only corpus file; see the module docs.
pub struct AppendWatcher {
    path: PathBuf,
    offset: u64,
    /// Identity of the file the offset refers to (`None` until the
    /// file has been observed).
    identity: FileIdentity,
}

impl AppendWatcher {
    /// Watch `path` from byte `start`: the newline-aligned corpus length
    /// the caller's startup analysis covered.
    pub fn new(path: impl Into<PathBuf>, start: u64) -> AppendWatcher {
        let path = path.into();
        let identity = std::fs::metadata(&path)
            .ok()
            .as_ref()
            .and_then(file_identity);
        AppendWatcher {
            path,
            offset: start,
            identity,
        }
    }

    /// The consumed byte offset (everything before it has been
    /// delivered through [`AppendWatcher::poll`] or was covered by the
    /// caller's startup analysis).
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Check the file once. I/O errors (file momentarily absent during
    /// a rotation, permissions hiccup) read as [`WatchPoll::Unchanged`]
    /// so the engine just retries next interval.
    pub fn poll(&mut self) -> WatchPoll {
        let meta = match std::fs::metadata(&self.path) {
            Ok(meta) => meta,
            Err(_) => return WatchPoll::Unchanged,
        };
        let len = meta.len();
        let identity = file_identity(&meta);
        // A new identity is a rotation even when the replacement is as
        // long as the consumed offset — the bytes behind the offset are
        // a different file's, so a length-only check would silently
        // slurp from mid-record.
        let rotated = matches!((self.identity, identity), (Some(was), Some(now)) if was != now);
        self.identity = identity;
        if rotated || len < self.offset {
            // Truncated or rotated: everything we thought we had
            // consumed may be gone, and the caller re-reads the
            // replacement in full. Resume after its last newline.
            self.offset = std::fs::File::open(&self.path)
                .and_then(|file| aligned_prefix(file, len))
                .unwrap_or(0);
            return WatchPoll::Truncated(self.offset);
        }
        if len == self.offset {
            return WatchPoll::Unchanged;
        }
        let bytes = match self.read_new_bytes(len) {
            Ok(bytes) => bytes,
            Err(_) => return WatchPoll::Unchanged,
        };
        let consumed = consumed_len(&bytes);
        if consumed == 0 {
            // Only a partial line so far; wait for its newline.
            return WatchPoll::Unchanged;
        }
        self.offset += consumed as u64;
        WatchPoll::Appended(bytes[..consumed].to_vec())
    }

    /// Read `[offset, len)` from the file (clamped to `len` even if the
    /// file grew between the stat and the read, keeping the slurp
    /// newline-aligned with what the stat promised).
    fn read_new_bytes(&self, len: u64) -> std::io::Result<Vec<u8>> {
        let mut file = std::fs::File::open(&self.path)?;
        file.seek(SeekFrom::Start(self.offset))?;
        let mut bytes = Vec::with_capacity((len - self.offset) as usize);
        file.take(len - self.offset).read_to_end(&mut bytes)?;
        Ok(bytes)
    }
}

/// Length of the newline-terminated prefix of `bytes` (0 when no
/// newline: the whole slice is a partial tail line).
fn consumed_len(bytes: &[u8]) -> usize {
    bytes
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |pos| pos + 1)
}

/// The length of the newline-terminated prefix of the file at `path`
/// (0 on any I/O error or when the file holds no newline at all).
///
/// `serve --watch` uses this for the watcher's start offset:
/// a collector append can be mid-record when the daemon starts, and a
/// bare `metadata().len()` would then park the offset inside that
/// record, making the first poll deliver a record *tail* that gets
/// quarantined as framing junk. Aligning to the last newline mirrors
/// the framing the watcher itself uses; the partial record is simply
/// redelivered whole once its newline lands.
pub fn newline_aligned_len(path: impl AsRef<Path>) -> u64 {
    std::fs::File::open(path)
        .and_then(|file| {
            let len = file.metadata()?.len();
            aligned_prefix(file, len)
        })
        .unwrap_or(0)
}

/// The length of the newline-terminated prefix of `file`'s first `len`
/// bytes, scanning backwards a chunk at a time.
fn aligned_prefix(mut file: std::fs::File, len: u64) -> std::io::Result<u64> {
    let mut buf = [0u8; 64 * 1024];
    let mut end = len;
    while end > 0 {
        let start = end.saturating_sub(buf.len() as u64);
        let chunk = &mut buf[..(end - start) as usize];
        file.seek(SeekFrom::Start(start))?;
        file.read_exact(chunk)?;
        if let Some(pos) = chunk.iter().rposition(|&b| b == b'\n') {
            return Ok(start + pos as u64 + 1);
        }
        end = start;
    }
    Ok(0)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::io::Write;

    /// A per-process scratch dir, removed on drop so a failed assertion
    /// leaks nothing.
    pub(crate) struct TempDir(PathBuf);
    impl TempDir {
        pub(crate) fn new(tag: &str) -> TempDir {
            let dir =
                std::env::temp_dir().join(format!("lastmile-watch-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
        pub(crate) fn path(&self, name: &str) -> PathBuf {
            self.0.join(name)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn append(path: &Path, bytes: &[u8]) {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .unwrap();
        f.write_all(bytes).unwrap();
    }

    #[test]
    fn appends_are_delivered_only_at_newline_boundaries() {
        let dir = TempDir::new("newline");
        let corpus = dir.path("corpus.jsonl");
        append(&corpus, b"one\n");
        let mut w = AppendWatcher::new(&corpus, 4);
        assert_eq!(w.poll(), WatchPoll::Unchanged);
        // A partial line is held back...
        append(&corpus, b"tw");
        assert_eq!(w.poll(), WatchPoll::Unchanged);
        assert_eq!(w.offset(), 4);
        // ...and delivered once its newline lands, as one delta.
        append(&corpus, b"o\nthree\n");
        assert_eq!(w.poll(), WatchPoll::Appended(b"two\nthree\n".to_vec()));
        assert_eq!(w.offset(), 14);
        // A delta with a trailing partial line delivers only the
        // terminated prefix.
        append(&corpus, b"four\npart");
        assert_eq!(w.poll(), WatchPoll::Appended(b"four\n".to_vec()));
        assert_eq!(w.offset(), 19);
    }

    #[test]
    fn truncation_resumes_after_the_replacements_last_newline() {
        let dir = TempDir::new("trunc");
        let corpus = dir.path("corpus.jsonl");
        append(&corpus, b"aaa\nbbb\n");
        let mut w = AppendWatcher::new(&corpus, 8);
        // Rotation: replaced by a shorter file with different content,
        // its last record still mid-write.
        std::fs::write(&corpus, b"ccc\npa").unwrap();
        assert_eq!(w.poll(), WatchPoll::Truncated(4));
        assert_eq!(w.offset(), 4);
        // Appends after the rotation resume normal delivery, the partial
        // record whole: the file is its first 4 bytes plus the delta.
        append(&corpus, b"rt\n");
        assert_eq!(w.poll(), WatchPoll::Appended(b"part\n".to_vec()));
        assert_eq!(std::fs::read(&corpus).unwrap(), b"ccc\npart\n");
    }

    #[test]
    fn truncation_to_empty_still_signals() {
        let dir = TempDir::new("empty");
        let corpus = dir.path("corpus.jsonl");
        append(&corpus, b"aaa\n");
        let mut w = AppendWatcher::new(&corpus, 4);
        std::fs::write(&corpus, b"").unwrap();
        assert_eq!(w.poll(), WatchPoll::Truncated(0));
        assert_eq!(w.offset(), 0);
    }

    #[test]
    fn missing_file_reads_as_unchanged() {
        let dir = TempDir::new("missing");
        let mut w = AppendWatcher::new(dir.path("nope.jsonl"), 0);
        assert_eq!(w.poll(), WatchPoll::Unchanged);
    }

    #[cfg(unix)]
    #[test]
    fn same_length_rotation_is_detected_by_identity() {
        let dir = TempDir::new("rotate-id");
        let corpus = dir.path("corpus.jsonl");
        append(&corpus, b"aaa\nbbb\n");
        let mut w = AppendWatcher::new(&corpus, 8);
        assert_eq!(w.poll(), WatchPoll::Unchanged);
        // Rotation via rename: the replacement is exactly as long as
        // the consumed offset, so a length-only check would see
        // "unchanged" and keep serving series memoized from the old
        // file's bytes.
        let staging = dir.path("corpus.jsonl.new");
        std::fs::write(&staging, b"ccc\nddd\n").unwrap();
        std::fs::rename(&staging, &corpus).unwrap();
        assert_eq!(w.poll(), WatchPoll::Truncated(8));
        assert_eq!(w.offset(), 8);
        // And a *longer* replacement is caught too.
        let staging = dir.path("corpus.jsonl.new");
        std::fs::write(&staging, b"eee\nfff\nggg\n").unwrap();
        std::fs::rename(&staging, &corpus).unwrap();
        assert_eq!(w.poll(), WatchPoll::Truncated(12));
        append(&corpus, b"hhh\n");
        assert_eq!(w.poll(), WatchPoll::Appended(b"hhh\n".to_vec()));
    }

    #[test]
    fn newline_aligned_len_backs_off_to_the_last_newline() {
        let dir = TempDir::new("aligned");
        let corpus = dir.path("corpus.jsonl");
        assert_eq!(newline_aligned_len(&corpus), 0, "missing file");
        append(&corpus, b"one\ntwo\n");
        assert_eq!(newline_aligned_len(&corpus), 8);
        // A mid-write partial record doesn't count.
        append(&corpus, b"par");
        assert_eq!(newline_aligned_len(&corpus), 8);
        append(&corpus, b"t\n");
        assert_eq!(newline_aligned_len(&corpus), 13);
        // No newline anywhere: nothing is safely framed yet.
        std::fs::write(&corpus, b"unterminated").unwrap();
        assert_eq!(newline_aligned_len(&corpus), 0);
    }

    #[test]
    fn newline_aligned_len_scans_past_one_chunk() {
        let dir = TempDir::new("aligned-big");
        let corpus = dir.path("corpus.jsonl");
        // One newline followed by a >64 KiB partial tail: the scan must
        // cross the chunk boundary to find it.
        let mut bytes = b"head\n".to_vec();
        bytes.extend(std::iter::repeat_n(b'x', 100 * 1024));
        append(&corpus, &bytes);
        assert_eq!(newline_aligned_len(&corpus), 5);
    }
}
