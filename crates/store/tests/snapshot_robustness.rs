//! Snapshot robustness: property-based round-trips and adversarial
//! corruption.
//!
//! The contract under test: a saved store always loads back exactly
//! (bit-for-bit medians, same windows, same discarded-bin counts), the byte
//! format is canonical (save ∘ load ∘ save is the identity on files), and
//! *any* single-byte corruption or truncation is rejected with a typed
//! [`SnapshotError`] — never silently absorbed — after which the caller
//! degrades to an empty store and recomputes.

use lastmile_atlas::ProbeId;
use lastmile_core::series::{BuiltSeries, ProbeSeries};
use lastmile_store::snapshot::SnapshotError;
use lastmile_store::{CacheMode, Lookup, SeriesStore, StoreConfig, StoreKey};
use lastmile_timebase::{BinSpec, TimeRange, UnixTime};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const FINGERPRINT: u64 = 0xF00D_F00D;

/// A scratch file of this process, removed when dropped.
struct ScratchFile(PathBuf);

impl ScratchFile {
    fn new(tag: &str) -> ScratchFile {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        ScratchFile(std::env::temp_dir().join(format!(
            "lastmile-snapshot-{tag}-{}-{}.lmss",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        )))
    }
}

impl std::ops::Deref for ScratchFile {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for ScratchFile {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// One synthetic insert: a probe, an aligned bin span, which bins of the
/// span carry medians, and how many bins were discarded.
#[derive(Clone, Debug)]
struct InsertOp {
    probe: u32,
    start_bin: i64,
    len: i64,
    medians: Vec<(i64, f64)>,
    discarded: u64,
}

fn insert_op() -> impl Strategy<Value = InsertOp> {
    (
        0u32..24,
        -20i64..80,
        1i64..24,
        prop::collection::vec((0u32..64, any::<u32>()), 0..12),
        0u64..4,
    )
        .prop_map(|(probe, start_bin, len, raw_bins, discarded)| {
            // Bin offsets land inside the span via modulo; BTree
            // collections dedupe and sort them. Medians derive from the
            // raw u32s (NaN is not a legal median).
            let medians: std::collections::BTreeMap<i64, f64> = raw_bins
                .into_iter()
                .map(|(off, v)| {
                    (
                        start_bin + i64::from(off) % len,
                        f64::from(v) * 1e-3 + 0.001,
                    )
                })
                .collect();
            InsertOp {
                probe,
                start_bin,
                len,
                medians: medians.into_iter().collect(),
                discarded,
            }
        })
}

fn build_store(ops: &[InsertOp]) -> SeriesStore {
    let store = SeriesStore::default();
    let bin = BinSpec::thirty_minutes();
    for op in ops {
        let key = StoreKey::new(ProbeId(op.probe), bin, 3);
        let range = TimeRange::new(
            UnixTime::from_secs(op.start_bin * 1800),
            UnixTime::from_secs((op.start_bin + op.len) * 1800),
        );
        let medians: BTreeMap<i64, f64> = op.medians.iter().copied().collect();
        let built = BuiltSeries {
            series: ProbeSeries::from_parts(ProbeId(op.probe), bin, medians),
            discarded_bins: op.discarded,
        };
        assert!(store.insert(&key, &range, &built));
    }
    store
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Round trip: load(save(store)) serves every lookup the original
    /// served, bit for bit, and re-saving yields the identical
    /// file (the format is canonical).
    #[test]
    fn roundtrip_is_exact_and_canonical(ops in prop::collection::vec(insert_op(), 0..12)) {
        let store = build_store(&ops);
        let path = ScratchFile::new("roundtrip");
        store.save_snapshot(&path, FINGERPRINT).unwrap();
        let (loaded, _) =
            SeriesStore::load_snapshot(&path, FINGERPRINT, StoreConfig::default()).unwrap();
        prop_assert_eq!(store.len(), loaded.len());

        // Every op's range must replay identically from the loaded store.
        let bin = BinSpec::thirty_minutes();
        for op in &ops {
            let key = StoreKey::new(ProbeId(op.probe), bin, 3);
            let range = TimeRange::new(
                UnixTime::from_secs(op.start_bin * 1800),
                UnixTime::from_secs((op.start_bin + op.len) * 1800),
            );
            match (store.lookup(&key, &range), loaded.lookup(&key, &range)) {
                (Lookup::Hit(a), Lookup::Hit(b)) => {
                    let a_bins: Vec<(i64, u64)> =
                        a.series.iter_bins().map(|(i, v)| (i, v.to_bits())).collect();
                    let b_bins: Vec<(i64, u64)> =
                        b.series.iter_bins().map(|(i, v)| (i, v.to_bits())).collect();
                    prop_assert_eq!(a_bins, b_bins);
                    prop_assert_eq!(a.discarded_bins, b.discarded_bins);
                }
                (a, b) => prop_assert!(false, "lookup diverged: {:?} vs {:?}", a, b),
            }
        }

        // Canonical bytes: saving the loaded store reproduces the file.
        let path2 = ScratchFile::new("canonical");
        loaded.save_snapshot(&path2, FINGERPRINT).unwrap();
        prop_assert_eq!(std::fs::read(&path).unwrap(), std::fs::read(&path2).unwrap());
    }

    /// Any single corrupted byte makes the load fail with a typed error —
    /// corruption is never absorbed into plausible data.
    #[test]
    fn any_flipped_byte_is_rejected(
        ops in prop::collection::vec(insert_op(), 1..6),
        pos_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let store = build_store(&ops);
        let path = ScratchFile::new("flip");
        store.save_snapshot(&path, FINGERPRINT).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();

        let result = SeriesStore::load_snapshot(&path, FINGERPRINT, StoreConfig::default());
        prop_assert!(result.is_err(), "flipped byte {} accepted", pos);
        // And the graceful path degrades to an empty store, not a panic.
        let (empty, read, err) =
            SeriesStore::load_snapshot_or_empty(&path, FINGERPRINT, StoreConfig::default());
        prop_assert!(empty.is_empty());
        prop_assert_eq!(read, 0);
        prop_assert!(err.is_some());
    }

    /// Any strict prefix of a snapshot is rejected (truncated download,
    /// interrupted copy, partial write of a non-atomic writer).
    #[test]
    fn any_truncation_is_rejected(
        ops in prop::collection::vec(insert_op(), 1..6),
        cut_seed in any::<u64>(),
    ) {
        let store = build_store(&ops);
        let path = ScratchFile::new("cut");
        store.save_snapshot(&path, FINGERPRINT).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let cut = (cut_seed % bytes.len() as u64) as usize;
        std::fs::write(&path, &bytes[..cut]).unwrap();
        prop_assert!(
            SeriesStore::load_snapshot(&path, FINGERPRINT, StoreConfig::default()).is_err(),
            "prefix of {} bytes accepted",
            cut
        );
    }
}

#[test]
fn typed_errors_for_the_named_failure_modes() {
    let store = build_store(&[InsertOp {
        probe: 1,
        start_bin: 0,
        len: 8,
        medians: vec![(0, 5.0), (3, 7.25)],
        discarded: 1,
    }]);
    let path = ScratchFile::new("typed");
    store.save_snapshot(&path, FINGERPRINT).unwrap();
    let good = std::fs::read(&path).unwrap();

    // Wrong version.
    let mut bad = good.clone();
    bad[4] = 0xEE;
    std::fs::write(&path, &bad).unwrap();
    assert!(matches!(
        SeriesStore::load_snapshot(&path, FINGERPRINT, StoreConfig::default()),
        Err(SnapshotError::UnsupportedVersion { .. })
    ));

    // Another data source's snapshot.
    std::fs::write(&path, &good).unwrap();
    assert!(matches!(
        SeriesStore::load_snapshot(&path, FINGERPRINT + 1, StoreConfig::default()),
        Err(SnapshotError::SourceMismatch { .. })
    ));

    // Truncated mid-payload.
    std::fs::write(&path, &good[..good.len() - 3]).unwrap();
    assert!(matches!(
        SeriesStore::load_snapshot(&path, FINGERPRINT, StoreConfig::default()),
        Err(SnapshotError::Truncated { .. })
    ));

    // Flipped payload byte.
    let mut bad = good.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0x10;
    std::fs::write(&path, &bad).unwrap();
    assert!(matches!(
        SeriesStore::load_snapshot(&path, FINGERPRINT, StoreConfig::default()),
        Err(SnapshotError::ChecksumMismatch { .. })
    ));

    // Not a snapshot at all.
    std::fs::write(&path, b"definitely,not,a,snapshot\n").unwrap();
    assert!(matches!(
        SeriesStore::load_snapshot(&path, FINGERPRINT, StoreConfig::default()),
        Err(SnapshotError::BadMagic)
    ));

    // Every failure degrades to a working empty read-write store.
    let (empty, _, err) =
        SeriesStore::load_snapshot_or_empty(&path, FINGERPRINT, StoreConfig::default());
    assert!(err.is_some());
    assert!(empty.is_empty());
    assert_eq!(empty.config().mode, CacheMode::ReadWrite);
}
