//! Property-based tests for the append watcher: the delivered byte
//! stream must be invariant to how appends are chunked and to watcher
//! restarts, and truncation/rotation must recover to exactly the new
//! file content.

use lastmile_live::{newline_aligned_len, AppendWatcher, WatchPoll};
use proptest::prelude::*;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static CASE: AtomicU64 = AtomicU64::new(0);

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "lastmile-watchprop-{tag}-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn append(path: &std::path::Path, bytes: &[u8]) {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .unwrap();
    f.write_all(bytes).unwrap();
}

/// Newline-terminated corpus content from generated line bodies.
fn content_of(lines: &[Vec<u8>]) -> Vec<u8> {
    let mut content = Vec::new();
    for line in lines {
        content.extend_from_slice(line);
        content.push(b'\n');
    }
    content
}

/// Strategy: a batch of line bodies (lowercase, possibly empty).
fn arb_lines(
    max_line: usize,
    count: std::ops::Range<usize>,
) -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(b'a'..=b'z', 0..max_line), count)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// However the appended bytes are chunked — including cuts in the
    /// middle of a line — and however often the watcher is torn down
    /// and rebuilt the way a restarted daemon builds it, the delivered
    /// deltas plus what each restart's startup analysis read are
    /// exactly the corpus bytes, each exactly once.
    #[test]
    fn chunked_appends_and_restarts_deliver_every_byte_exactly_once(
        lines in arb_lines(12, 1..24),
        chunk_sizes in prop::collection::vec(1usize..9, 1..12),
        restart_every in 1usize..5,
    ) {
        let dir = TempDir::new("chunks");
        let corpus = dir.path("corpus.jsonl");
        std::fs::write(&corpus, b"").unwrap();
        let content = content_of(&lines);

        let mut watcher = AppendWatcher::new(&corpus, 0);
        let mut delivered: Vec<u8> = Vec::new();
        let mut at = 0;
        let mut step_index = 0;
        while at < content.len() {
            let step = chunk_sizes[step_index % chunk_sizes.len()].min(content.len() - at);
            step_index += 1;
            append(&corpus, &content[at..at + step]);
            at += step;
            match watcher.poll() {
                WatchPoll::Unchanged => {}
                WatchPoll::Appended(bytes) => delivered.extend_from_slice(&bytes),
                WatchPoll::Truncated(_) => prop_assert!(false, "append misread as truncation"),
            }
            // Periodic restart: the startup analysis reads the corpus up
            // to its last newline, and the replacement watcher starts
            // there, so nothing is re-delivered or skipped.
            if step_index % restart_every == 0 {
                let analysed = newline_aligned_len(&corpus);
                prop_assert!(analysed >= watcher.offset());
                delivered.extend_from_slice(&content[watcher.offset() as usize..analysed as usize]);
                drop(watcher);
                watcher = AppendWatcher::new(&corpus, analysed);
                // Never past the last newline, so a fresh watcher can
                // still see the partial tail.
                prop_assert!(analysed <= std::fs::metadata(&corpus).unwrap().len());
            }
        }
        // Final poll flushes any terminated tail.
        if let WatchPoll::Appended(bytes) = watcher.poll() {
            delivered.extend_from_slice(&bytes);
        }
        prop_assert_eq!(delivered, content);
        prop_assert_eq!(watcher.offset(), std::fs::metadata(&corpus).unwrap().len());
    }

    /// Rotation to a shorter file: the watcher reports the replacement's
    /// newline-aligned length and resumes there, and subsequent appends
    /// continue normally — so the replacement's first `len` bytes plus
    /// the later deltas are exactly the final file.
    #[test]
    fn truncation_recovers_to_the_replacement_content(
        old_lines in arb_lines(10, 1..8),
        new_lines in arb_lines(4, 0..4),
        later_lines in arb_lines(8, 0..6),
    ) {
        let dir = TempDir::new("trunc");
        let corpus = dir.path("corpus.jsonl");
        let mut old = content_of(&old_lines);
        let new = content_of(&new_lines);
        // Pad the original so the replacement is strictly shorter —
        // length polling cannot detect same-or-longer rotations (a
        // documented limitation of the watcher).
        while old.len() <= new.len() {
            old.extend_from_slice(b"padpadpad\n");
        }
        std::fs::write(&corpus, &old).unwrap();
        let mut watcher = AppendWatcher::new(&corpus, old.len() as u64);
        prop_assert_eq!(watcher.poll(), WatchPoll::Unchanged);

        std::fs::write(&corpus, &new).unwrap();
        let len = match watcher.poll() {
            WatchPoll::Truncated(len) => len as usize,
            other => panic!("expected truncation, got {other:?}"),
        };
        prop_assert_eq!(len, new.len());
        let mut view = std::fs::read(&corpus).unwrap()[..len].to_vec();
        for line in &later_lines {
            let mut delta = line.clone();
            delta.push(b'\n');
            append(&corpus, &delta);
            match watcher.poll() {
                WatchPoll::Appended(bytes) => view.extend_from_slice(&bytes),
                WatchPoll::Unchanged => prop_assert!(false, "newline-terminated append not delivered"),
                WatchPoll::Truncated(_) => prop_assert!(false, "spurious truncation"),
            }
        }
        let final_file = std::fs::read(&corpus).unwrap();
        prop_assert_eq!(view, final_file);
    }
}
