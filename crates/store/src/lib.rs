//! # lastmile-store
//!
//! A memo of per-probe binned median-RTT series.
//!
//! Every analysis bins each probe's traceroutes into its [`BuiltSeries`]
//! over one window: the median series plus the count of bins the sanity
//! filter discarded. That one value is what a build returns, what the
//! store holds and what a hit hands back, keyed by ([`StoreKey`], window)
//! — `(probe, bin width, sanity threshold)` plus the exact window the
//! series was built over. A lookup hits only when an insert recorded
//! that same window, and a hit returns the value as it was built: no
//! merge, no slice. Repeated batch runs over one window therefore pay
//! the binning cost once per probe instead of once per run. The one caller is the CLI's
//! `--cache-dir` path: the start-up analysis of `classify`, `hygiene`
//! and a non-live `serve`, which loads the snapshot, serves its hits,
//! inserts what it built and saves once. A live daemon keeps no store.
//!
//! The store only stores: it keeps no traffic counters. [`Lookup`] and
//! [`SeriesStore::insert`]'s result tell the caller what happened, and
//! the caller counts it (`classify` adds the run's hits, misses,
//! bypasses and inserts to its `RunMetrics.store`).
//!
//! Only the *median* series is stored. The paper's queuing-delay baseline
//! ("the minimum median RTT is computed separately for each measurement
//! period", §2.1) is recomputed from it by the pipeline, which keeps
//! reports byte-identical to a cache-free run.
//!
//! ## Correctness rules
//!
//! * A window need not sit on bin boundaries: a partial edge bin is
//!   exactly what a build over that same window produces, and no other
//!   window is ever served from the entry.
//! * A store is valid for exactly **one data source** (one simulated
//!   world, or one traceroute file): the key does not identify the
//!   source. On-disk snapshots carry a caller-supplied 64-bit source
//!   fingerprint and refuse to load under a different one
//!   ([`SnapshotError::SourceMismatch`]).
//! * A hit consumes no traceroute but reproduces the sanity filter's
//!   discarded-bin count of the build, so pipeline statistics stay
//!   meaningful warm or cold.
//!
//! ## Concurrency
//!
//! Every entry sits in one `RwLock`-protected map, and all methods take
//! `&self`, so a store is safe to share between threads. Nothing
//! contends on it in practice: `classify` looks probes up under its own
//! probe-table lock and inserts on one thread after the read, and
//! snapshots load and save on one thread.
//!
//! ## Persistence
//!
//! [`SeriesStore::save_snapshot`] writes a versioned binary columnar
//! snapshot (`snapshot` module) atomically — temp file + rename — and
//! [`SeriesStore::load_snapshot`] restores it, returning typed errors
//! (bad magic, version or fingerprint mismatch, truncation, checksum
//! failure) that callers degrade to an empty store + recomputation.

pub mod snapshot;

use lastmile_atlas::ProbeId;
use lastmile_core::pipeline::PipelineConfig;
use lastmile_core::series::{BuiltSeries, ProbeSeries};
use lastmile_timebase::{BinSpec, TimeRange, UnixTime};
pub use snapshot::SnapshotError;
use std::collections::HashMap;
use std::path::Path;
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Identity of one memoized series: the probe plus every binning
/// parameter that shapes its values. Two analyses with different bin
/// widths or sanity thresholds must never share an entry.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct StoreKey {
    /// Bin width in seconds (from [`BinSpec::width_secs`]; kept as the
    /// raw integer so the key is totally ordered for snapshot layout).
    pub bin_width_secs: i64,
    /// Sanity-filter threshold: minimum traceroutes per bin.
    pub min_traceroutes_per_bin: u32,
    /// The probe.
    pub probe: ProbeId,
}

impl StoreKey {
    /// A key from explicit binning parameters.
    pub fn new(probe: ProbeId, bin: BinSpec, min_traceroutes_per_bin: usize) -> StoreKey {
        StoreKey {
            bin_width_secs: bin.width_secs(),
            min_traceroutes_per_bin: min_traceroutes_per_bin as u32,
            probe,
        }
    }

    /// The key a pipeline with this configuration would use for `probe`.
    pub fn for_pipeline(probe: ProbeId, cfg: &PipelineConfig) -> StoreKey {
        StoreKey::new(probe, cfg.bin, cfg.min_traceroutes_per_bin)
    }
}

/// How a run may use a store. A run that should not cache at all has
/// no store.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CacheMode {
    /// Serve hits, never mutate (`--cache ro`).
    ReadOnly,
    /// Serve hits and memoize fresh builds (`--cache rw`).
    #[default]
    ReadWrite,
}

impl std::str::FromStr for CacheMode {
    type Err = String;

    fn from_str(s: &str) -> Result<CacheMode, String> {
        match s {
            "ro" => Ok(CacheMode::ReadOnly),
            "rw" => Ok(CacheMode::ReadWrite),
            other => Err(format!("invalid cache mode {other} (ro|rw)")),
        }
    }
}

/// Store construction parameters.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreConfig {
    /// Usage mode.
    pub mode: CacheMode,
}

/// Every memoized build, by key and window.
type Entries = HashMap<(StoreKey, TimeRange), BuiltSeries>;

/// Outcome of [`SeriesStore::lookup`].
#[derive(Debug)]
pub enum Lookup {
    /// An insert recorded this exact window; here is its series.
    Hit(BuiltSeries),
    /// Not computed for this window — build it and
    /// [`SeriesStore::insert`] it.
    Miss,
}

/// The series store. Share between threads by reference (or `Arc`); all
/// methods take `&self`.
pub struct SeriesStore {
    entries: RwLock<Entries>,
    config: StoreConfig,
}

impl std::fmt::Debug for SeriesStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeriesStore")
            .field("entries", &self.len())
            .field("config", &self.config)
            .finish()
    }
}

impl Default for SeriesStore {
    fn default() -> SeriesStore {
        SeriesStore::new(StoreConfig::default())
    }
}

impl SeriesStore {
    /// An empty store.
    pub fn new(config: StoreConfig) -> SeriesStore {
        SeriesStore {
            entries: RwLock::default(),
            config,
        }
    }

    /// The configuration the store was built with.
    pub fn config(&self) -> StoreConfig {
        self.config
    }

    /// Total resident entries (probes × parameterisations × windows).
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Whether no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn read(&self) -> RwLockReadGuard<'_, Entries> {
        self.entries.read().expect("store lock poisoned")
    }

    fn write(&self) -> RwLockWriteGuard<'_, Entries> {
        self.entries.write().expect("store lock poisoned")
    }

    /// Fetch the series an earlier insert recorded for exactly `range`.
    pub fn lookup(&self, key: &StoreKey, range: &TimeRange) -> Lookup {
        match self.read().get(&(*key, *range)) {
            Some(built) => Lookup::Hit(built.clone()),
            None => Lookup::Miss,
        }
    }

    /// Memoize a freshly built series for `range`, as it was built. The
    /// series must have been built from exactly the traceroutes of
    /// `range` with the key's binning parameters; a later insert of the
    /// same window replaces it. Returns whether the series was stored:
    /// `false` in `ro` mode or for an empty window.
    pub fn insert(&self, key: &StoreKey, range: &TimeRange, built: &BuiltSeries) -> bool {
        if self.config.mode != CacheMode::ReadWrite || range.start() >= range.end() {
            return false;
        }
        assert_eq!(
            built.series.probe(),
            key.probe,
            "series probe differs from store key"
        );
        assert_eq!(
            built.series.bin().width_secs(),
            key.bin_width_secs,
            "series bin width differs from store key"
        );
        self.write().insert((*key, *range), built.clone());
        true
    }

    /// Write the whole store to `path` as a versioned snapshot, atomically
    /// (temp file in the same directory, then rename). Returns the bytes
    /// written. Entry order in the file is sorted by key, then window, so
    /// the same store state always produces the same bytes.
    pub fn save_snapshot(
        &self,
        path: &Path,
        source_fingerprint: u64,
    ) -> Result<u64, SnapshotError> {
        let mut entries: Vec<snapshot::SnapshotEntry> = self
            .read()
            .iter()
            .map(|((key, window), built)| snapshot::SnapshotEntry {
                key: *key,
                window: (window.start().as_secs(), window.end().as_secs()),
                discarded: built.discarded_bins,
                bins: built.series.iter_bins().map(|(b, _)| b).collect(),
                values: built.series.iter_bins().map(|(_, v)| v).collect(),
            })
            .collect();
        entries.sort_by_key(|e| (e.key, e.window));
        snapshot::write_snapshot(path, source_fingerprint, &entries)
    }

    /// Load a snapshot written by [`SeriesStore::save_snapshot`].
    ///
    /// `source_fingerprint` must match the one the snapshot was saved
    /// with — it identifies the data source (world seed, traceroute
    /// file), and serving series from a different source would be silent
    /// corruption. Returns the store and the bytes read.
    pub fn load_snapshot(
        path: &Path,
        source_fingerprint: u64,
        config: StoreConfig,
    ) -> Result<(SeriesStore, u64), SnapshotError> {
        let (entries, bytes) = snapshot::read_snapshot(path, source_fingerprint)?;
        let mut store = SeriesStore::new(config);
        let map = store.entries.get_mut().expect("store lock poisoned");
        for e in entries {
            let bin = BinSpec::new(e.key.bin_width_secs);
            let medians = e
                .bins
                .iter()
                .copied()
                .zip(e.values.iter().copied())
                .collect();
            let window = TimeRange::new(
                UnixTime::from_secs(e.window.0),
                UnixTime::from_secs(e.window.1),
            );
            let built = BuiltSeries {
                series: ProbeSeries::from_parts(e.key.probe, bin, medians),
                discarded_bins: e.discarded,
            };
            map.insert((e.key, window), built);
        }
        Ok((store, bytes))
    }

    /// Like [`SeriesStore::load_snapshot`], degrading every failure —
    /// including a missing file — to an empty store plus the error (when
    /// there was one), so callers fall back to recomputation instead of
    /// aborting. A missing file is reported as `(empty store, None)`.
    pub fn load_snapshot_or_empty(
        path: &Path,
        source_fingerprint: u64,
        config: StoreConfig,
    ) -> (SeriesStore, u64, Option<SnapshotError>) {
        if !path.exists() {
            return (SeriesStore::new(config), 0, None);
        }
        match SeriesStore::load_snapshot(path, source_fingerprint, config) {
            Ok((store, bytes)) => (store, bytes, None),
            Err(e) => (SeriesStore::new(config), 0, Some(e)),
        }
    }
}

/// A scratch directory of this process's tests, `lastmile-TAG-PID` in
/// the temp dir, removed when dropped.
#[cfg(test)]
pub(crate) struct Scratch(std::path::PathBuf);

#[cfg(test)]
impl Scratch {
    pub(crate) fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("lastmile-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

#[cfg(test)]
impl std::ops::Deref for Scratch {
    type Target = std::path::Path;

    fn deref(&self) -> &std::path::Path {
        &self.0
    }
}

#[cfg(test)]
impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lastmile_timebase::UnixTime;
    use std::collections::BTreeMap;

    fn aligned(start_bins: i64, end_bins: i64) -> TimeRange {
        TimeRange::new(
            UnixTime::from_secs(start_bins * 1800),
            UnixTime::from_secs(end_bins * 1800),
        )
    }

    fn built(probe: u32, bins: &[(i64, f64)], discarded: u64) -> BuiltSeries {
        let medians: BTreeMap<i64, f64> = bins.iter().copied().collect();
        BuiltSeries {
            series: ProbeSeries::from_parts(ProbeId(probe), BinSpec::thirty_minutes(), medians),
            discarded_bins: discarded,
        }
    }

    fn key(probe: u32) -> StoreKey {
        StoreKey::new(ProbeId(probe), BinSpec::thirty_minutes(), 3)
    }

    #[test]
    fn miss_insert_hit_roundtrip() {
        let store = SeriesStore::default();
        let range = aligned(0, 4);
        assert!(matches!(store.lookup(&key(1), &range), Lookup::Miss));
        assert!(store.insert(&key(1), &range, &built(1, &[(0, 5.0), (2, 7.5)], 1)));
        match store.lookup(&key(1), &range) {
            Lookup::Hit(pre) => {
                assert_eq!(pre.discarded_bins, 1);
                let got: Vec<(i64, f64)> = pre.series.iter_bins().collect();
                assert_eq!(got, vec![(0, 5.0), (2, 7.5)]);
            }
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn hits_only_its_own_window_aligned_or_not() {
        let store = SeriesStore::default();
        let whole = aligned(0, 10);
        // A window starting mid-bin: its partial first bin is part of
        // the build, and is served back as built.
        let mid = TimeRange::new(UnixTime::from_secs(900), UnixTime::from_secs(18_000));
        assert!(store.insert(&key(1), &whole, &built(1, &[(0, 5.0), (4, 9.0)], 2)));
        assert!(store.insert(&key(1), &mid, &built(1, &[(0, 4.0), (4, 9.0)], 1)));
        assert_eq!(store.len(), 2);
        for (range, bins, discarded) in [
            (whole, vec![(0, 5.0), (4, 9.0)], 2),
            (mid, vec![(0, 4.0), (4, 9.0)], 1),
        ] {
            match store.lookup(&key(1), &range) {
                Lookup::Hit(pre) => {
                    let got: Vec<(i64, f64)> = pre.series.iter_bins().collect();
                    assert_eq!(got, bins);
                    assert_eq!(pre.discarded_bins, discarded);
                }
                other => panic!("expected hit for {range:?}, got {other:?}"),
            }
        }
        // A sub-window, a superset and an overlapping window all miss.
        for range in [aligned(4, 8), aligned(0, 11), aligned(2, 12)] {
            assert!(matches!(store.lookup(&key(1), &range), Lookup::Miss));
        }
    }

    #[test]
    fn empty_window_is_never_stored() {
        let store = SeriesStore::default();
        assert!(!store.insert(&key(1), &aligned(4, 4), &built(1, &[], 0)));
        assert!(store.is_empty());
    }

    #[test]
    fn keys_isolate_binning_parameters() {
        let store = SeriesStore::default();
        let range = aligned(0, 4);
        store.insert(&key(1), &range, &built(1, &[(0, 5.0)], 0));
        // Same probe, different sanity threshold: separate entry.
        let other = StoreKey::new(ProbeId(1), BinSpec::thirty_minutes(), 5);
        assert!(matches!(store.lookup(&other, &range), Lookup::Miss));
    }

    #[test]
    fn read_only_serves_hits_but_never_mutates() {
        let rw = SeriesStore::default();
        let range = aligned(0, 4);
        rw.insert(&key(1), &range, &built(1, &[(0, 5.0)], 0));
        let dir = Scratch::new("store-ro-test");
        let path = dir.join("snap.bin");
        rw.save_snapshot(&path, 42).unwrap();

        let (ro, _) = SeriesStore::load_snapshot(
            &path,
            42,
            StoreConfig {
                mode: CacheMode::ReadOnly,
            },
        )
        .unwrap();
        assert!(matches!(ro.lookup(&key(1), &range), Lookup::Hit(_)));
        assert!(!ro.insert(&key(2), &range, &built(2, &[(0, 1.0)], 0)));
        assert_eq!(ro.len(), 1);
    }

    #[test]
    fn cache_mode_parses() {
        assert_eq!("ro".parse::<CacheMode>().unwrap(), CacheMode::ReadOnly);
        assert_eq!("rw".parse::<CacheMode>().unwrap(), CacheMode::ReadWrite);
        assert_eq!(
            "off".parse::<CacheMode>().unwrap_err(),
            "invalid cache mode off (ro|rw)"
        );
        assert!("banana".parse::<CacheMode>().is_err());
    }

    #[test]
    fn concurrent_mixed_use_is_safe_and_deterministic() {
        let store = SeriesStore::default();
        let range = aligned(0, 48);
        std::thread::scope(|scope| {
            for t in 0..8u32 {
                let store = &store;
                scope.spawn(move || {
                    for p in 0..50u32 {
                        let probe = p % 25; // heavy key overlap across threads
                        match store.lookup(&key(probe), &range) {
                            Lookup::Hit(pre) => {
                                let v: Vec<(i64, f64)> = pre.series.iter_bins().collect();
                                assert_eq!(v, vec![(0, f64::from(probe)), (5, 1.0)]);
                            }
                            _ => {
                                store.insert(
                                    &key(probe),
                                    &range,
                                    &built(probe, &[(0, f64::from(probe)), (5, 1.0)], 0),
                                );
                            }
                        }
                        let _ = t;
                    }
                });
            }
        });
        assert_eq!(store.len(), 25);
    }
}
