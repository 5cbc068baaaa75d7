//! Shared `--cache-dir` / `--cache` plumbing for the subcommands that can
//! reuse per-probe median series across runs.
//!
//! A cache directory holds one snapshot file (`series.lmss`) and is valid
//! for exactly one data source: the snapshot records a fingerprint of the
//! traceroute file it was built from, and a snapshot from a different
//! source (or a corrupt/truncated/old-format file) is reported and
//! ignored — the run recomputes everything, and in `rw` mode rewrites the
//! snapshot.

use crate::Flags;
use lastmile_repro::obs::{trace, RunMetrics, StageTimer, StoreStats};
use lastmile_repro::store::{CacheMode, SeriesStore, StoreConfig};
use std::io::Read;
use std::path::PathBuf;

/// Snapshot file name inside `--cache-dir`.
pub const SNAPSHOT_FILE: &str = "series.lmss";

/// An active series cache: the (possibly snapshot-loaded) store plus
/// where and how to persist it.
pub struct Cache {
    pub store: SeriesStore,
    pub path: PathBuf,
    pub fingerprint: u64,
}

/// Build the cache from `--cache-dir DIR` and `--cache ro|rw` (default
/// `rw`). Returns `None` when no `--cache-dir` was given: that run is
/// uncached. `fingerprint` identifies the data source (see
/// [`file_fingerprint`]); it is computed lazily so an uncached run never
/// pays for it.
pub fn from_flags(
    flags: &Flags,
    fingerprint: impl FnOnce() -> Result<u64, String>,
    metrics: Option<&RunMetrics>,
) -> Result<Option<Cache>, String> {
    let mode: CacheMode = flags
        .optional("cache")
        .map(str::parse)
        .transpose()?
        .unwrap_or_default();
    let Some(dir) = flags.optional("cache-dir") else {
        if flags.optional("cache").is_some() {
            return Err("--cache needs --cache-dir".into());
        }
        return Ok(None);
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("create --cache-dir {dir}: {e}"))?;
    let path = PathBuf::from(dir).join(SNAPSHOT_FILE);
    let span = trace::span("fingerprint");
    let fingerprint_timer = StageTimer::start();
    let fingerprint = fingerprint()?;
    let fingerprint_nanos = fingerprint_timer.elapsed_nanos();
    drop(span);
    let span = trace::span_with("snapshot_load", |a| {
        a.str("path", path.display().to_string());
    });
    let load_timer = StageTimer::start();
    let (store, bytes, error) =
        SeriesStore::load_snapshot_or_empty(&path, fingerprint, StoreConfig { mode });
    drop(span);
    if let Some(m) = metrics {
        m.store.add(&StoreStats {
            snapshot_load_nanos: load_timer.elapsed_nanos(),
            fingerprint_nanos,
            snapshot_bytes_read: bytes,
            ..StoreStats::default()
        });
    }
    match &error {
        Some(e) => eprintln!("[cache] ignoring {}: {e} (recomputing)", path.display()),
        None if bytes > 0 => eprintln!(
            "[cache] loaded {} ({} series, {bytes} bytes)",
            path.display(),
            store.len()
        ),
        None => {}
    }
    Ok(Some(Cache {
        store,
        path,
        fingerprint,
    }))
}

impl Cache {
    /// Persist the store back to the snapshot (no-op unless `rw`),
    /// stamped with [`Cache::fingerprint`], the source it was opened over.
    pub fn persist(&self, metrics: Option<&RunMetrics>) -> Result<(), String> {
        if self.store.config().mode != CacheMode::ReadWrite {
            return Ok(());
        }
        let span = trace::span_with("snapshot_save", |a| {
            a.str("path", self.path.display().to_string());
        });
        let save_timer = StageTimer::start();
        let bytes = self
            .store
            .save_snapshot(&self.path, self.fingerprint)
            .map_err(|e| format!("save cache snapshot {}: {e}", self.path.display()))?;
        drop(span);
        if let Some(m) = metrics {
            m.store.add(&StoreStats {
                snapshot_save_nanos: save_timer.elapsed_nanos(),
                snapshot_bytes_written: bytes,
                ..StoreStats::default()
            });
        }
        eprintln!(
            "[cache] saved {} ({} series, {bytes} bytes)",
            self.path.display(),
            self.store.len()
        );
        Ok(())
    }
}

/// Mix a second fingerprint into a first, order-sensitively: used when
/// the cached series depend on more than one input (e.g. `--bgp`
/// classification, where the table decides which traceroutes are
/// ingested), so snapshots from different input combinations — or the
/// same files in different roles — never match.
pub fn combine_fingerprints(a: u64, b: u64) -> u64 {
    // FNV-1a over a's bytes then b's: position-sensitive, so swapping
    // the inputs gives a different result.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in a.to_le_bytes().into_iter().chain(b.to_le_bytes()) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Fingerprint a data file by content: the same bytes give the same
/// fingerprint wherever the file lives, and any content change
/// invalidates snapshots built from it. Streams the file through one
/// fixed buffer (no mapping, no whole-file read: peak RSS stays flat).
pub fn file_fingerprint(path: &str) -> Result<u64, String> {
    let mut file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    content_fingerprint(&mut file).map_err(|e| format!("read {path}: {e}"))
}

/// Odd multiplier of the fingerprint's multiply-mix (2^64 / golden ratio).
const MIX_K: u64 = 0x9e37_79b9_7f4a_7c15;

/// One multiply-mix step. A bijection in `acc` for a fixed `word` and in
/// `word` for a fixed `acc`, so a change to any one input word always
/// reaches the final value.
fn mix(acc: u64, word: u64) -> u64 {
    (acc ^ word).wrapping_mul(MIX_K).rotate_left(29)
}

/// [`file_fingerprint`] of a byte stream: four independent mix lanes over
/// the little-endian u64 words of each 32-byte block (the lanes overlap
/// in the CPU, where byte-at-a-time hashing waits on one multiply per
/// byte), the final partial block zero-padded to whole words, then the
/// lanes folded into the stream length. The buffer is filled before it
/// is hashed, so blocks sit at fixed offsets whatever chunking `Read`
/// returns.
fn content_fingerprint(reader: &mut impl Read) -> std::io::Result<u64> {
    let mut lanes: [u64; 4] = [
        0x243f_6a88_85a3_08d3,
        0x1319_8a2e_0370_7344,
        0xa409_3822_299f_31d0,
        0x082e_fa98_ec4e_6c89,
    ];
    let mut len = 0u64;
    let mut buf = [0u8; 64 * 1024];
    loop {
        let mut n = 0;
        while n < buf.len() {
            match reader.read(&mut buf[n..]) {
                Ok(0) => break,
                Ok(k) => n += k,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        len += n as u64;
        let mut blocks = buf[..n].chunks_exact(32);
        for block in &mut blocks {
            for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
                *lane = mix(
                    *lane,
                    u64::from_le_bytes(word.try_into().expect("8-byte word")),
                );
            }
        }
        if n < buf.len() {
            for (lane, tail) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
                let mut word = [0u8; 8];
                word[..tail.len()].copy_from_slice(tail);
                *lane = mix(*lane, u64::from_le_bytes(word));
            }
            return Ok(lanes.iter().fold(len, |h, &lane| mix(h, lane)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_tracks_content_not_name() {
        let dir = crate::Scratch::new("cache-test");
        let a = dir.join("a.jsonl");
        let b = dir.join("b.jsonl");
        std::fs::write(&a, "same bytes").unwrap();
        std::fs::write(&b, "same bytes").unwrap();
        let fa = file_fingerprint(a.to_str().unwrap()).unwrap();
        let fb = file_fingerprint(b.to_str().unwrap()).unwrap();
        assert_eq!(fa, fb);
        std::fs::write(&b, "other bytes").unwrap();
        assert_ne!(fa, file_fingerprint(b.to_str().unwrap()).unwrap());
        assert!(file_fingerprint("/does/not/exist").is_err());
    }

    /// A reader that hands out its bytes in short reads of varying size.
    struct Trickle<'a> {
        data: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            self.step = self.step % 13 + 1;
            let n = self.step.min(out.len()).min(self.data.len());
            out[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    fn fingerprint_of(data: &[u8]) -> u64 {
        content_fingerprint(&mut &data[..]).unwrap()
    }

    fn sample(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 % 251) as u8).collect()
    }

    #[test]
    fn fingerprint_changes_on_any_one_byte_flip() {
        // 101 bytes: three whole blocks plus a tail that is not a
        // multiple of 8, every offset flipped.
        let data = sample(101);
        let base = fingerprint_of(&data);
        for at in 0..data.len() {
            let mut flipped = data.clone();
            flipped[at] ^= 0x01;
            assert_ne!(fingerprint_of(&flipped), base, "flip at {at}");
        }
        // Across the buffer boundary of a stream longer than the buffer.
        let data = sample(64 * 1024 + 13);
        let base = fingerprint_of(&data);
        for at in [0, 7, 8, 31, 32, 65_535, 65_536, 65_543, data.len() - 1] {
            let mut flipped = data.clone();
            flipped[at] ^= 0x80;
            assert_ne!(fingerprint_of(&flipped), base, "flip at {at}");
        }
    }

    #[test]
    fn fingerprint_changes_when_zero_bytes_are_appended() {
        for len in [0, 5, 8, 32, 101] {
            let data = sample(len);
            let mut seen = vec![fingerprint_of(&data)];
            for extra in 1..=40 {
                let mut longer = data.clone();
                longer.resize(len + extra, 0);
                let f = fingerprint_of(&longer);
                assert!(!seen.contains(&f), "{len} + {extra} zero bytes collide");
                seen.push(f);
            }
        }
    }

    #[test]
    fn fingerprint_ignores_read_chunking() {
        for len in [0, 3, 101, 64 * 1024, 2 * 64 * 1024 + 77] {
            let data = sample(len);
            let trickled = content_fingerprint(&mut Trickle {
                data: &data,
                step: 0,
            })
            .unwrap();
            assert_eq!(trickled, fingerprint_of(&data), "len {len}");
        }
    }

    #[test]
    fn combine_is_order_sensitive_and_changes_both_inputs() {
        assert_ne!(combine_fingerprints(1, 2), combine_fingerprints(2, 1));
        assert_ne!(combine_fingerprints(1, 2), 1);
        assert_ne!(combine_fingerprints(1, 2), 2);
        assert_eq!(combine_fingerprints(1, 2), combine_fingerprints(1, 2));
    }
}
