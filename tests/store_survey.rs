//! Store-backed survey acceptance.
//!
//! The contract of `lastmile-store` inside the §3 survey driver:
//!
//! * **Byte identity** — the `SurveyReport` is identical whether the
//!   store is absent, cold, warm, or loaded from an on-disk snapshot, at
//!   every thread count. The store hands back the median series built
//!   over exactly the requested period and the period-scoped
//!   queuing-delay baseline is recomputed per call, so caching cannot
//!   change a single value.
//! * **Zero re-ingest when warm** — a warm run over stored probes
//!   consumes no traceroutes at all (`RunMetrics.traceroutes_ingested ==
//!   0`, `store.hits > 0`, `store.misses == 0`).
//! * **Graceful snapshot failure** — a snapshot from another data source
//!   is refused with a typed error and the run recomputes, still
//!   producing the identical report.

use lastmile_repro::core::report::SurveyReport;
use lastmile_repro::netsim::scenarios::survey::{survey_world, SurveyConfig, SurveyScenario};
use lastmile_repro::obs::{RunMetrics, RunMetricsSnapshot};
use lastmile_repro::runner::{eyeballs_from_ground_truth, run_survey, SurveyOptions};
use lastmile_repro::store::{SeriesStore, SnapshotError, StoreConfig};
use lastmile_repro::timebase::MeasurementPeriod;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const WORLD_SEED: u64 = 11;

fn small_survey() -> SurveyScenario {
    survey_world(&SurveyConfig {
        seed: WORLD_SEED,
        n_ases: 20,
        max_probes_per_as: 3,
    })
}

/// `Debug` of every row is shortest-roundtrip for floats, so equal
/// strings mean bit-identical reports.
fn fingerprint(report: &SurveyReport) -> String {
    format!("{:?} | failures: {:?}", report.rows(), report.failures())
}

fn run_with(
    scenario: &SurveyScenario,
    threads: usize,
    store: Option<Arc<SeriesStore>>,
) -> (String, RunMetricsSnapshot) {
    let eyeballs = eyeballs_from_ground_truth(&scenario.ground_truth);
    let metrics = Arc::new(RunMetrics::new());
    let report = run_survey(
        &scenario.world,
        &MeasurementPeriod::survey_periods(),
        &eyeballs,
        &SurveyOptions {
            threads,
            metrics: Some(Arc::clone(&metrics)),
            store,
            ..Default::default()
        },
    );
    (fingerprint(&report), metrics.snapshot())
}

/// A snapshot file of this process, removed when dropped.
struct ScratchFile(PathBuf);

impl ScratchFile {
    fn new(tag: &str) -> ScratchFile {
        ScratchFile(std::env::temp_dir().join(format!(
            "lastmile-store-survey-{tag}-{}.lmss",
            std::process::id()
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

#[test]
fn warm_survey_skips_all_ingest_and_reports_identically() {
    let scenario = small_survey();

    // Reference: no store at all.
    let (plain, plain_m) = run_with(&scenario, 2, None);
    assert!(plain_m.traceroutes_ingested > 0);
    assert_eq!(plain_m.store.hits + plain_m.store.misses, 0, "no store");

    // Cold store: every (probe, period) series misses once, then fills.
    let store = Arc::new(SeriesStore::default());
    let (cold, cold_m) = run_with(&scenario, 2, Some(Arc::clone(&store)));
    assert_eq!(cold, plain, "cold store vs no store");
    assert_eq!(
        cold_m.traceroutes_ingested, plain_m.traceroutes_ingested,
        "a cold store cannot save ingest"
    );
    assert!(cold_m.store.misses > 0);
    assert_eq!(cold_m.store.hits, 0, "7 disjoint periods cannot hit cold");
    assert!(cold_m.store.inserts > 0);

    // Warm store, two thread counts: zero traceroutes touched.
    for threads in [1, 4] {
        let (warm, warm_m) = run_with(&scenario, threads, Some(Arc::clone(&store)));
        assert_eq!(warm, plain, "warm store vs no store ({threads} threads)");
        assert_eq!(
            warm_m.traceroutes_ingested, 0,
            "warm run must not re-ingest a single traceroute ({threads} threads)"
        );
        assert_eq!(warm_m.traceroutes_out_of_period, 0);
        assert_eq!(warm_m.store.misses, 0, "{threads} threads");
        assert!(warm_m.store.hits > 0, "{threads} threads");
        // Filter statistics survive the cache: discarded-bin counts are
        // replayed from the store, not recomputed.
        assert_eq!(warm_m.bins_discarded_sanity, plain_m.bins_discarded_sanity);
        assert_eq!(warm_m.populations_analyzed, plain_m.populations_analyzed);
        assert_eq!(warm_m.welch_segments, plain_m.welch_segments);
    }

    // Disk round trip: save, load into a fresh store, run again.
    let path = ScratchFile::new("roundtrip");
    store.save_snapshot(&path, WORLD_SEED).unwrap();
    let (loaded, _) =
        SeriesStore::load_snapshot(&path, WORLD_SEED, StoreConfig::default()).unwrap();
    assert_eq!(loaded.len(), store.len());
    for threads in [1, 4] {
        let (disk, disk_m) = run_with(&scenario, threads, Some(Arc::new(SeriesStore::default())));
        // A fresh empty store recomputes -- sanity-check the baseline...
        assert_eq!(disk, plain);
        assert!(disk_m.traceroutes_ingested > 0);
    }
    let loaded = Arc::new(loaded);
    for threads in [1, 4] {
        let (disk, disk_m) = run_with(&scenario, threads, Some(Arc::clone(&loaded)));
        assert_eq!(
            disk, plain,
            "snapshot-loaded vs no store ({threads} threads)"
        );
        assert_eq!(disk_m.traceroutes_ingested, 0, "{threads} threads");
        assert_eq!(disk_m.store.misses, 0, "{threads} threads");
    }
}

#[test]
fn foreign_snapshot_is_refused_and_survey_recomputes() {
    let scenario = small_survey();
    let (plain, _) = run_with(&scenario, 2, None);

    // Build and save a store under the true world seed.
    let store = Arc::new(SeriesStore::default());
    run_with(&scenario, 2, Some(Arc::clone(&store)));
    let path = ScratchFile::new("foreign");
    store.save_snapshot(&path, WORLD_SEED).unwrap();

    // A different source fingerprint must be refused, typed.
    let err = SeriesStore::load_snapshot(&path, WORLD_SEED + 1, StoreConfig::default())
        .expect_err("foreign snapshot accepted");
    assert!(
        matches!(err, SnapshotError::SourceMismatch { found, expected }
            if found == WORLD_SEED && expected == WORLD_SEED + 1),
        "{err}"
    );

    // The graceful loader degrades to an empty store; the survey then
    // recomputes and still produces the identical report.
    let (empty, bytes, load_err) =
        SeriesStore::load_snapshot_or_empty(&path, WORLD_SEED + 1, StoreConfig::default());
    assert!(empty.is_empty());
    assert_eq!(bytes, 0);
    assert!(matches!(
        load_err,
        Some(SnapshotError::SourceMismatch { .. })
    ));
    let (recomputed, m) = run_with(&scenario, 2, Some(Arc::new(empty)));
    assert_eq!(recomputed, plain);
    assert!(m.traceroutes_ingested > 0, "recomputation ingests");
    assert!(m.store.inserts > 0, "and refills the store");
}
