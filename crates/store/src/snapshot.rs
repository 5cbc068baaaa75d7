//! The on-disk snapshot format: a versioned binary columnar encoding of a
//! whole [`SeriesStore`](crate::SeriesStore).
//!
//! ```text
//! offset  size  field
//!      0     4  magic  b"LMSS"
//!      4     4  format version, u32 LE (currently 2)
//!      8     8  source fingerprint, u64 LE (caller-chosen data-source id)
//!     16     8  payload length, u64 LE
//!     24     4  payload CRC-32 (IEEE), u32 LE
//!     28     -  payload
//! ```
//!
//! The payload is a u64 entry count followed by one record per entry,
//! sorted by [`StoreKey`] so identical store states produce identical
//! bytes (then by window). Each record stores the key, the window the
//! series was built over, the discarded-bin count, and the median series
//! in *columnar* form — all bin indices, then all values (f64 bit
//! patterns, so RTTs survive the round trip bit-for-bit):
//!
//! ```text
//! u32 probe · i64 bin_width_secs · u32 min_traceroutes_per_bin
//! i64 window start · i64 window end   (unix seconds, start < end)
//! u64 discarded-bin count
//! u64 n_bins     · n × i64 (bin index)  · n × u64 (f64 bits)
//! ```
//!
//! Version 1 (per-probe coverage intervals and discarded-bin indices)
//! is refused as [`SnapshotError::UnsupportedVersion`]; the run
//! recomputes.
//!
//! Writes are atomic: the snapshot is assembled in a uniquely named temp
//! file next to the target (pid + sequence suffix, so concurrent writers
//! never share one) and renamed over it, so readers never observe a
//! partial file and the last rename wins whole-file. Loads verify magic,
//! version, fingerprint, length and checksum
//! before parsing, and every parse failure is a typed [`SnapshotError`] —
//! callers degrade to an empty store and recompute instead of aborting.

use crate::StoreKey;
use lastmile_atlas::ProbeId;
use std::io::Write;
use std::path::Path;

/// File magic: "Last-Mile Series Snapshot".
pub const MAGIC: [u8; 4] = *b"LMSS";
/// Current format version.
pub const VERSION: u32 = 2;
/// Bytes before the payload.
pub const HEADER_LEN: usize = 28;

/// One store entry in codec form.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotEntry {
    pub key: StoreKey,
    /// The window the series was built over, `(start, end)` in unix
    /// seconds.
    pub window: (i64, i64),
    /// How many bins the sanity filter discarded in the build.
    pub discarded: u64,
    /// Bin indices of the median series (sorted ascending).
    pub bins: Vec<i64>,
    /// Median values, parallel to `bins`.
    pub values: Vec<f64>,
}

/// Why a snapshot failed to save or load.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem failure (open, read, write, rename).
    Io(std::io::Error),
    /// The file does not start with the `LMSS` magic.
    BadMagic,
    /// The file's format version is one this build cannot read.
    UnsupportedVersion { found: u32, supported: u32 },
    /// The snapshot was written for a different data source.
    SourceMismatch { found: u64, expected: u64 },
    /// The file ends before the declared payload does.
    Truncated { needed: u64, available: u64 },
    /// The payload bytes do not match the stored checksum.
    ChecksumMismatch { stored: u32, computed: u32 },
    /// The payload decoded to structurally invalid data.
    Corrupt(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a series snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot version {found} (this build reads {supported})"
            ),
            SnapshotError::SourceMismatch { found, expected } => write!(
                f,
                "snapshot belongs to a different data source \
                 (fingerprint {found:#018x}, expected {expected:#018x})"
            ),
            SnapshotError::Truncated { needed, available } => write!(
                f,
                "snapshot truncated: needs {needed} bytes, {available} available"
            ),
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            SnapshotError::Corrupt(why) => write!(f, "snapshot corrupt: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> SnapshotError {
        SnapshotError::Io(e)
    }
}

/// CRC-32 (IEEE 802.3, reflected), table-driven; the table is computed at
/// compile time.
pub fn crc32(data: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut crc = !0u32;
    for &b in data {
        crc = TABLE[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Encode entries into a payload (no header).
fn encode_payload(entries: &[SnapshotEntry]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for e in entries {
        out.extend_from_slice(&e.key.probe.0.to_le_bytes());
        out.extend_from_slice(&e.key.bin_width_secs.to_le_bytes());
        out.extend_from_slice(&e.key.min_traceroutes_per_bin.to_le_bytes());
        out.extend_from_slice(&e.window.0.to_le_bytes());
        out.extend_from_slice(&e.window.1.to_le_bytes());
        out.extend_from_slice(&e.discarded.to_le_bytes());
        out.extend_from_slice(&(e.bins.len() as u64).to_le_bytes());
        for &b in &e.bins {
            out.extend_from_slice(&b.to_le_bytes());
        }
        for &v in &e.values {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    out
}

/// A bounds-checked little-endian payload reader.
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let available = self.data.len() - self.pos;
        if n > available {
            return Err(SnapshotError::Truncated {
                needed: (self.pos + n) as u64,
                available: self.data.len() as u64,
            });
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(self.u64()? as i64)
    }

    /// A count that must plausibly fit in the remaining payload (each
    /// element occupies at least `elem_size` bytes) — rejects absurd
    /// counts before any allocation.
    fn count(&mut self, elem_size: usize) -> Result<usize, SnapshotError> {
        let n = self.u64()?;
        let remaining = (self.data.len() - self.pos) as u64;
        if n.saturating_mul(elem_size as u64) > remaining {
            return Err(SnapshotError::Truncated {
                needed: (self.pos as u64).saturating_add(n.saturating_mul(elem_size as u64)),
                available: self.data.len() as u64,
            });
        }
        Ok(n as usize)
    }
}

fn decode_payload(payload: &[u8]) -> Result<Vec<SnapshotEntry>, SnapshotError> {
    let mut r = Reader {
        data: payload,
        pos: 0,
    };
    let n_entries = r.count(8)?; // each entry is ≥ 8 bytes of fixed fields
    let mut entries = Vec::with_capacity(n_entries.min(1 << 20));
    for _ in 0..n_entries {
        let probe = ProbeId(r.u32()?);
        let bin_width_secs = r.i64()?;
        if bin_width_secs <= 0 {
            return Err(SnapshotError::Corrupt(format!(
                "non-positive bin width {bin_width_secs}"
            )));
        }
        let min_traceroutes_per_bin = r.u32()?;
        let key = StoreKey {
            bin_width_secs,
            min_traceroutes_per_bin,
            probe,
        };

        let window = (r.i64()?, r.i64()?);
        if window.0 >= window.1 {
            return Err(SnapshotError::Corrupt(format!(
                "empty or inverted window {window:?} of probe {probe}"
            )));
        }
        let discarded = r.u64()?;

        let n_bins = r.count(16)?; // bin index + value
        let mut bins = Vec::with_capacity(n_bins);
        for _ in 0..n_bins {
            bins.push(r.i64()?);
        }
        if bins.windows(2).any(|w| w[0] >= w[1]) {
            return Err(SnapshotError::Corrupt(format!(
                "series bins of probe {probe} not strictly ascending"
            )));
        }
        let mut values = Vec::with_capacity(n_bins);
        for _ in 0..n_bins {
            values.push(f64::from_bits(r.u64()?));
        }

        entries.push(SnapshotEntry {
            key,
            window,
            discarded,
            bins,
            values,
        });
    }
    if r.pos != payload.len() {
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing payload bytes after the last entry",
            payload.len() - r.pos
        )));
    }
    Ok(entries)
}

/// Serialize `entries` to `path` atomically. Returns total bytes written
/// (header + payload).
pub fn write_snapshot(
    path: &Path,
    source_fingerprint: u64,
    entries: &[SnapshotEntry],
) -> Result<u64, SnapshotError> {
    let payload = encode_payload(entries);
    let mut file_bytes = Vec::with_capacity(HEADER_LEN + payload.len());
    file_bytes.extend_from_slice(&MAGIC);
    file_bytes.extend_from_slice(&VERSION.to_le_bytes());
    file_bytes.extend_from_slice(&source_fingerprint.to_le_bytes());
    file_bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    file_bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
    file_bytes.extend_from_slice(&payload);

    // Atomic publish: same-directory temp file, flush, durable rename.
    // The temp name is unique per writer (pid + per-process sequence):
    // concurrent runs sharing a cache dir each assemble their own file,
    // so one writer can neither rename another's half-written bytes over
    // the target nor delete its in-progress temp file on error cleanup.
    static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let tmp = path.with_extension(format!(
        "tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let result = (|| -> Result<(), SnapshotError> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&file_bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result.map(|()| file_bytes.len() as u64)
}

/// Read and validate a snapshot. Returns the entries and the bytes read.
pub fn read_snapshot(
    path: &Path,
    expected_fingerprint: u64,
) -> Result<(Vec<SnapshotEntry>, u64), SnapshotError> {
    let bytes = std::fs::read(path)?;
    if bytes.len() < HEADER_LEN {
        if bytes.len() < 4 || bytes[..4] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        return Err(SnapshotError::Truncated {
            needed: HEADER_LEN as u64,
            available: bytes.len() as u64,
        });
    }
    if bytes[..4] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            supported: VERSION,
        });
    }
    let fingerprint = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    if fingerprint != expected_fingerprint {
        return Err(SnapshotError::SourceMismatch {
            found: fingerprint,
            expected: expected_fingerprint,
        });
    }
    let payload_len = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    let stored_crc = u32::from_le_bytes(bytes[24..28].try_into().unwrap());
    let available = (bytes.len() - HEADER_LEN) as u64;
    if payload_len != available {
        return Err(SnapshotError::Truncated {
            needed: HEADER_LEN as u64 + payload_len,
            available: bytes.len() as u64,
        });
    }
    let payload = &bytes[HEADER_LEN..];
    let computed = crc32(payload);
    if computed != stored_crc {
        return Err(SnapshotError::ChecksumMismatch {
            stored: stored_crc,
            computed,
        });
    }
    let entries = decode_payload(payload)?;
    Ok((entries, bytes.len() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entries() -> Vec<SnapshotEntry> {
        vec![
            SnapshotEntry {
                key: StoreKey {
                    bin_width_secs: 1800,
                    min_traceroutes_per_bin: 3,
                    probe: ProbeId(7),
                },
                window: (0, 48 * 1800),
                discarded: 2,
                bins: vec![0, 1, 47, 100],
                values: vec![5.25, 6.5, 0.1, 9.75],
            },
            SnapshotEntry {
                key: StoreKey {
                    bin_width_secs: 1800,
                    min_traceroutes_per_bin: 3,
                    probe: ProbeId(9),
                },
                window: (900, 7200),
                discarded: 0,
                bins: vec![],
                values: vec![],
            },
        ]
    }

    /// A scratch dir of its own for one test's snapshot files.
    fn scratch(test: &str) -> crate::Scratch {
        crate::Scratch::new(&format!("snapshot-{test}"))
    }

    #[test]
    fn crc32_reference_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn roundtrip_preserves_everything_bitwise() {
        let dir = scratch("roundtrip");
        let path = dir.join("roundtrip.bin");
        let entries = sample_entries();
        let written = write_snapshot(&path, 0xFEED, &entries).unwrap();
        let (loaded, read) = read_snapshot(&path, 0xFEED).unwrap();
        assert_eq!(written, read);
        assert_eq!(loaded, entries);
    }

    #[test]
    fn header_rejections_are_typed() {
        let dir = scratch("typed");
        let path = dir.join("typed.bin");
        write_snapshot(&path, 1, &sample_entries()).unwrap();
        let good = std::fs::read(&path).unwrap();

        // Wrong magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            read_snapshot(&path, 1),
            Err(SnapshotError::BadMagic)
        ));

        // A version-1 file (coverage intervals) is refused, not parsed.
        let mut bad = good.clone();
        bad[4..8].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            read_snapshot(&path, 1),
            Err(SnapshotError::UnsupportedVersion {
                found: 1,
                supported: 2
            })
        ));

        // Wrong version.
        let mut bad = good.clone();
        bad[4] = 99;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            read_snapshot(&path, 1),
            Err(SnapshotError::UnsupportedVersion { found: 99, .. })
        ));

        // Wrong source fingerprint.
        std::fs::write(&path, &good).unwrap();
        assert!(matches!(
            read_snapshot(&path, 2),
            Err(SnapshotError::SourceMismatch {
                found: 1,
                expected: 2
            })
        ));

        // Truncation: drop trailing payload bytes.
        std::fs::write(&path, &good[..good.len() - 5]).unwrap();
        assert!(matches!(
            read_snapshot(&path, 1),
            Err(SnapshotError::Truncated { .. })
        ));

        // Flipped payload byte: checksum catches it.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            read_snapshot(&path, 1),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));

        // Missing file is an Io error.
        assert!(matches!(
            read_snapshot(&dir.join("does-not-exist.bin"), 1),
            Err(SnapshotError::Io(_))
        ));
    }

    /// A file around `payload` with a valid header and checksum.
    fn file_with_payload(payload: &[u8]) -> Vec<u8> {
        let mut file = Vec::new();
        file.extend_from_slice(&MAGIC);
        file.extend_from_slice(&VERSION.to_le_bytes());
        file.extend_from_slice(&7u64.to_le_bytes());
        file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        file.extend_from_slice(&crc32(payload).to_le_bytes());
        file.extend_from_slice(payload);
        file
    }

    #[test]
    fn structural_corruption_is_caught_after_checksum() {
        // Hand-build a payload with an absurd entry count and a valid
        // checksum: the count guard must reject it without allocating.
        let dir = scratch("corrupt");
        let path = dir.join("absurd-count.bin");
        std::fs::write(&path, file_with_payload(&u64::MAX.to_le_bytes())).unwrap();
        assert!(matches!(
            read_snapshot(&path, 7),
            Err(SnapshotError::Truncated { .. })
        ));

        // An empty or inverted window is corrupt, whatever the checksum.
        for window in [(3600, 3600), (7200, 3600)] {
            let mut entries = sample_entries();
            entries[1].window = window;
            let path = dir.join("bad-window.bin");
            std::fs::write(&path, file_with_payload(&encode_payload(&entries))).unwrap();
            assert!(matches!(
                read_snapshot(&path, 7),
                Err(SnapshotError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn deterministic_bytes_for_same_entries() {
        let dir = scratch("det");
        let a = dir.join("det-a.bin");
        let b = dir.join("det-b.bin");
        write_snapshot(&a, 5, &sample_entries()).unwrap();
        write_snapshot(&b, 5, &sample_entries()).unwrap();
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
    }

    #[test]
    fn no_temp_file_left_behind() {
        let dir = scratch("clean");
        let path = dir.join("clean.bin");
        write_snapshot(&path, 1, &sample_entries()).unwrap();
        let leftovers: Vec<String> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("clean.") && n.contains("tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
    }

    #[test]
    fn concurrent_writers_publish_one_complete_snapshot() {
        // Writers racing on the same target must each use their own temp
        // file: whichever rename lands last, the result is one of the
        // written states in full, never an interleaving.
        let dir = scratch("race");
        let path = dir.join("race.bin");
        let variants: Vec<Vec<SnapshotEntry>> = (0..8u32)
            .map(|i| {
                let mut entries = sample_entries();
                entries[0].key.probe = ProbeId(100 + i);
                entries.sort_by_key(|e| e.key);
                entries
            })
            .collect();
        std::thread::scope(|scope| {
            for entries in &variants {
                let path = &path;
                scope.spawn(move || {
                    for _ in 0..4 {
                        write_snapshot(path, 7, entries).unwrap();
                    }
                });
            }
        });
        let (loaded, _) = read_snapshot(&path, 7).unwrap();
        assert!(
            variants.contains(&loaded),
            "snapshot is not any single writer's state"
        );
    }

    #[test]
    fn error_messages_are_readable() {
        let e = SnapshotError::SourceMismatch {
            found: 1,
            expected: 2,
        };
        assert!(e.to_string().contains("different data source"));
        let e = SnapshotError::ChecksumMismatch {
            stored: 0xAB,
            computed: 0xCD,
        };
        assert!(e.to_string().contains("checksum"));
    }
}
