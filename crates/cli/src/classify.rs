//! `lastmile classify`: per-AS persistent-congestion classification from
//! Atlas-format traceroute data on disk.

use crate::bgp::load_table;
use crate::cache::{self, Cache};
use crate::input::{
    flag_window, group_by_asn, ingest_options, ingest_traffic, load_probes, resolve_window,
    write_quarantine,
};
use crate::progress::Heartbeat;
use crate::stats::{emit_stats, wants_stats};
use crate::Flags;
use lastmile_repro::atlas::{LastMile, ProbeId};
use lastmile_repro::core::pipeline::{AsPipeline, PipelineConfig, PopulationAnalysis};
use lastmile_repro::core::series::BuiltSeries;
use lastmile_repro::ingest::fold_file;
use lastmile_repro::obs::{trace, LiveProgress, RunMetrics, StageTimer};
use lastmile_repro::prefix::Asn;
use lastmile_repro::runner::record_population_metrics;
use lastmile_repro::store::{CacheMode, Lookup, StoreKey};
use lastmile_repro::timebase::UnixTime;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

/// One [`PopulationAnalysis`] per ASN, in ASN order.
pub type Analyses = Vec<(Asn, PopulationAnalysis)>;

/// What one ingest worker folds the corpus rows it decoded into; the
/// workers' folds merge into one after the read.
#[derive(Default)]
struct Fold {
    /// Earliest and latest timestamps of every decoded row.
    data_span: Option<(UnixTime, UnixTime)>,
    /// Per-AS pipelines fed the routed rows (except served probes').
    pipelines: BTreeMap<Asn, AsPipeline>,
    /// Every routed probe, when a cache is engaged.
    routed: BTreeMap<ProbeId, Sight>,
}

/// A routed probe, as one worker saw it.
struct Sight {
    /// The one ASN all its routed rows went to; `None` once they split.
    asn: Option<Asn>,
    /// Whether the cache serves it (decided once, for every worker).
    served: bool,
}

impl Fold {
    /// Take over `other`'s rows, counts and sightings.
    fn merge(&mut self, other: Fold) {
        if let Some((lo, hi)) = other.data_span {
            self.data_span = Some(
                self.data_span
                    .map_or((lo, hi), |(a, b)| (a.min(lo), b.max(hi))),
            );
        }
        for (asn, pipeline) in other.pipelines {
            match self.pipelines.entry(asn) {
                Entry::Occupied(mut e) => e.get_mut().merge(pipeline),
                Entry::Vacant(e) => drop(e.insert(pipeline)),
            }
        }
        for (probe, sight) in other.routed {
            match self.routed.entry(probe) {
                Entry::Occupied(mut e) if e.get().asn != sight.asn => e.get_mut().asn = None,
                Entry::Occupied(_) => {}
                Entry::Vacant(e) => drop(e.insert(sight)),
            }
        }
    }
}

/// The one start-up analysis of `classify`, `hygiene` and `serve`:
/// stream the corpus `paths` once (in order, as if concatenated),
/// decoding each record once, and return one [`PopulationAnalysis`] per
/// ASN (ASN 0 = "all probes" when no metadata is given) plus the active
/// series cache (when `--cache-dir` was given), whose snapshot is
/// already persisted — the `serve` daemon keeps it for re-analysis and
/// re-persists it at shutdown. When `metrics` is given, pipeline
/// counters and stage timings are accumulated into it.
///
/// With `--cache-dir` the per-probe median series are served from /
/// memoized into a `lastmile-store` snapshot: a probe whose series the
/// cache holds for exactly this analysis window skips ingestion
/// entirely, and freshly built series are written back (`--cache rw`, the
/// default). The classification output is byte-identical either way. The
/// cache only engages when the window is known before the file is read —
/// pass `--start` AND `--end`. A window with a bound left to the data
/// span is never served or memoized; its probes count as store bypasses.
///
/// Under per-traceroute ASN attribution (`--bgp` without `--probes`) a
/// probe can legitimately split across AS pipelines, but the store holds
/// ONE series per probe — so only probes whose routed traceroutes all
/// resolve to a single ASN are memoized (the read records the
/// attribution), and the snapshot's source fingerprint mixes in the BGP
/// table (the table decides which traceroutes are ingested), so `--bgp`
/// snapshots never cross with `--probes`/ASN-0 ones.
pub fn analyze_paths(
    flags: &Flags,
    paths: &[String],
    metrics: Option<&RunMetrics>,
) -> Result<(Analyses, Option<Cache>), String> {
    // An empty flag window fails before the fingerprint reads the corpus.
    flag_window(flags)?;
    let cache = cache::from_flags(flags, || corpus_fingerprint(flags, paths), metrics)?;
    let results = analyze_corpus(flags, paths, metrics, cache.as_ref())?;
    if let Some(c) = &cache {
        c.persist(c.fingerprint, metrics)?;
    }
    Ok((results, cache))
}

/// The source fingerprint for a (possibly multi-file) corpus: the files'
/// content fingerprints folded left-to-right, plus the BGP table under
/// per-traceroute attribution (the table decides which traceroutes are
/// ingested). One file gives exactly [`cache::file_fingerprint`] of it.
/// Snapshots stamped under the earlier byte-at-a-time FNV-1a fingerprint
/// no longer match: they fall back to one cold recompute (which `rw`
/// mode then persists under the new fingerprint).
pub fn corpus_fingerprint(flags: &Flags, paths: &[String]) -> Result<u64, String> {
    let mut f = cache::file_fingerprint(&paths[0])?;
    for path in &paths[1..] {
        f = cache::combine_fingerprints(f, cache::file_fingerprint(path)?);
    }
    let per_traceroute_asn = flags.optional("probes").is_none();
    if let (true, Some(table_path)) = (per_traceroute_asn, flags.optional("bgp")) {
        f = cache::combine_fingerprints(f, cache::file_fingerprint(table_path)?);
    }
    Ok(f)
}

/// The core analysis over a corpus of one or more traceroute files
/// (streamed in order, as if concatenated), decoding each record once.
/// Serves from / memoizes into `cache` when one is given, but neither
/// builds nor persists it — a long-lived caller (the `serve` daemon's
/// re-analysis engine) owns the cache across many calls and persists
/// once at shutdown.
pub fn analyze_corpus(
    flags: &Flags,
    paths: &[String],
    metrics: Option<&RunMetrics>,
    cache: Option<&Cache>,
) -> Result<Analyses, String> {
    let known_window = flag_window(flags)?;
    let start = flags.parsed::<i64>("start")?;
    let end = flags.parsed::<i64>("end")?;
    let mut ingest_opts = ingest_options(flags)?;
    // `--progress` gauges are shared with the ingest workers; the
    // heartbeat thread lives for the whole analysis and is stopped and
    // joined when this function returns.
    let progress = flags
        .switch("progress")
        .then(|| Arc::new(LiveProgress::default()));
    let _heartbeat = progress.clone().map(Heartbeat::start);
    ingest_opts.progress = progress.clone();
    ingest_opts.record_latency = metrics.is_some();
    let probes = flags.optional("probes").map(load_probes).transpose()?;
    let bgp = flags.optional("bgp").map(load_table).transpose()?;
    let anchors_only = flags.switch("anchors-only");

    // Probe → ASN routing.
    let probe_to_asn: Option<BTreeMap<ProbeId, Asn>> = probes.as_ref().map(|list| {
        group_by_asn(list, anchors_only)
            .into_iter()
            .flat_map(|(asn, ids)| ids.into_iter().map(move |id| (id, asn)))
            .collect()
    });

    let mut cfg = PipelineConfig::paper();
    if let Some(min_probes) = flags.parsed::<usize>("min-probes")? {
        cfg.min_probes = min_probes;
        cfg.min_probes_per_bin = min_probes.min(cfg.min_probes_per_bin);
    }

    // Retaining built series costs memory; only pay when write-back can
    // accept them (rw mode, a window known before the read).
    let retain = cache.is_some_and(|c| c.store.config().mode == CacheMode::ReadWrite)
        && known_window.is_some();
    let (bound_start, bound_end) = (start.map(UnixTime::from_secs), end.map(UnixTime::from_secs));
    let new_pipeline = move || {
        let mut p = AsPipeline::with_bounds(cfg, bound_start, bound_end);
        p.retain_median_series(retain);
        p
    };

    // One read. Each ingest worker decodes records to their last-mile
    // rows and folds them into its own [`Fold`]: the data span, and
    // per-AS pipelines the row is routed into. Probe metadata wins;
    // otherwise the BGP table maps the first public hop (the paper's ISP
    // edge) to its origin ASN; otherwise everything is one population
    // (ASN 0). Pipelines drop what the flag bounds exclude as they
    // stream; a bound left to the data span excludes nothing, so it is
    // closed after the read, once the workers' folds are merged.
    //
    // With a cache, a probe is looked up once, on its first routed row
    // in any worker (`served`, shared; `Some` = served), and the lookup
    // is counted there as a store hit or miss, so the counts are the
    // same at any thread count. A served probe's series was built over
    // this window: its rows are skipped, never binned, and the prebuilt
    // series is fed to its population after the read. Only a window
    // known before the read can be served.
    let served: Mutex<BTreeMap<ProbeId, Option<(Asn, BuiltSeries)>>> = Mutex::new(BTreeMap::new());
    let fold_row = |fold: &mut Fold, row: LastMile| {
        let t = row.timestamp;
        fold.data_span = Some(
            fold.data_span
                .map_or((t, t), |(lo, hi)| (lo.min(t), hi.max(t))),
        );
        let asn = match (&probe_to_asn, &bgp) {
            (Some(map), _) => match map.get(&row.probe) {
                Some(&asn) => asn,
                None => return, // unknown or filtered probe
            },
            (None, Some(table)) => match row.edge.and_then(|a| table.lookup(a)) {
                Some((_, &asn)) => asn,
                None => return, // no public hop or unrouted edge
            },
            (None, None) => 0,
        };
        if let Some(c) = cache {
            let sight = fold.routed.entry(row.probe).or_insert_with(|| Sight {
                asn: Some(asn),
                served: known_window.is_some_and(|window| {
                    let mut served = served.lock().expect("served-probe table lock");
                    let decision = served.entry(row.probe).or_insert_with(|| {
                        let key = StoreKey::for_pipeline(row.probe, &cfg);
                        let decision = match c.store.lookup(&key, &window) {
                            Lookup::Hit(pre) => Some((asn, pre)),
                            Lookup::Miss => None,
                        };
                        if let Some(m) = metrics {
                            let s = &m.store;
                            let counter = if decision.is_some() {
                                &s.hits
                            } else {
                                &s.misses
                            };
                            counter.fetch_add(1, Ordering::Relaxed);
                        }
                        decision
                    });
                    decision.is_some()
                }),
            });
            if sight.asn != Some(asn) {
                sight.asn = None;
            }
            if sight.served {
                return;
            }
        }
        fold.pipelines
            .entry(asn)
            .or_insert_with(new_pipeline)
            .ingest_row(&row);
    };
    let mut read = Fold::default();
    let mut parsed = 0u64;
    let mut quarantined_all = Vec::new();
    let ingest_timer = StageTimer::start();
    for path in paths {
        let (summary, folds) = fold_file(path, &ingest_opts, Fold::default, fold_row)?;
        for fold in folds {
            read.merge(fold);
        }
        parsed += summary.parsed;
        if let Some(m) = metrics {
            m.ingest.add(&ingest_traffic(&summary));
            m.latency.decode.merge(&summary.decode_hist);
        }
        quarantined_all.extend(summary.quarantined);
    }
    let Fold {
        data_span,
        mut pipelines,
        routed,
    } = read;
    // Whether a probe's series may be cached at all: only when all its
    // routed rows went to one ASN. Under probe metadata or ASN 0 that
    // holds for every probe; under per-traceroute BGP attribution a
    // probe's rows can split across AS pipelines, and each pipeline's
    // partial series under the store's one key per probe would poison
    // the snapshot. Serving needs no such check: a hit under the
    // snapshot's source fingerprint (which mixes in the table) was
    // inserted from this same corpus, where the probe was single-ASN,
    // and live passes invalidate every probe with new records before
    // they read.
    let cacheable = |probe: ProbeId| matches!(routed.get(&probe), Some(Sight { asn: Some(_), .. }));
    for (_, decision) in served.into_inner().expect("served-probe table lock") {
        if let Some((asn, pre)) = decision {
            pipelines
                .entry(asn)
                .or_insert_with(new_pipeline)
                .ingest_series(pre);
        }
    }
    // Probes looked up under no window (it was resolved only after the
    // read) are ones the store could not serve: bypasses.
    let unasked = if known_window.is_none() {
        routed.keys().filter(|&&probe| cacheable(probe)).count() as u64
    } else {
        0
    };
    if let Some(m) = metrics {
        m.store.bypasses.fetch_add(unasked, Ordering::Relaxed);
        m.stage_nanos
            .ingest
            .fetch_add(ingest_timer.elapsed_nanos(), Ordering::Relaxed);
    }
    eprintln!(
        "[input] {parsed} traceroutes parsed, {} skipped",
        quarantined_all.len()
    );
    if let Some(qpath) = flags.optional("quarantine") {
        write_quarantine(qpath, &quarantined_all)?;
        eprintln!(
            "[input] {} quarantined record(s) written to {qpath}",
            quarantined_all.len()
        );
    }
    let window = resolve_window(
        start,
        end,
        data_span.map(|(lo, _)| lo),
        data_span.map(|(_, hi)| hi),
    )?;

    // The population table keys on (ASN, period); a file run has no
    // named measurement period, so the analysis window stands in.
    let window_label = format!("{}..{}", window.start().as_secs(), window.end().as_secs());
    if let Some(p) = &progress {
        p.populations_total
            .store(pipelines.len() as u64, Ordering::Relaxed);
    }
    let results: Analyses = pipelines
        .into_iter()
        .map(|(asn, p)| {
            let span = trace::span_with("population", |a| {
                a.u64("asn", u64::from(asn))
                    .str("period", window_label.as_str());
            });
            let analysis = p.finish_in(window);
            if let Some(m) = metrics {
                // Streaming interleaves populations, so ingest time is
                // accounted once above; per-task wall = pipeline stages.
                let s = &analysis.stats;
                record_population_metrics(
                    m,
                    asn,
                    &window_label,
                    &analysis,
                    s.series_nanos + s.aggregate_nanos + s.detect_nanos,
                );
            }
            drop(span);
            if let Some(p) = &progress {
                p.populations_done.fetch_add(1, Ordering::Relaxed);
            }
            (asn, analysis)
        })
        .collect();

    if let Some(c) = cache {
        let mut inserts = 0;
        for (_, analysis) in &results {
            for built in &analysis.built_series {
                // A multi-ASN probe's series here is the partial view of
                // one pipeline; inserting it would claim full-window
                // coverage for a subset of the probe's traceroutes.
                if !cacheable(built.series.probe()) {
                    continue;
                }
                let key = StoreKey::for_pipeline(built.series.probe(), &cfg);
                inserts += u64::from(c.store.insert(&key, &window, built));
            }
        }
        if let Some(m) = metrics {
            m.store.inserts.fetch_add(inserts, Ordering::Relaxed);
        }
    }
    Ok(results)
}

/// One ASN's classification document. Shared by `classify --json` and
/// the serve daemon's `/v1/classify` endpoints so their bytes cannot
/// drift apart.
pub fn classification_doc(asn: Asn, a: &PopulationAnalysis) -> serde_json::Value {
    let d = a.detection.as_ref();
    serde_json::json!({
        "asn": asn,
        "probes": a.probes_used(),
        "class": a.class().name(),
        "daily_amplitude_ms": d.map(|d| d.daily_amplitude_ms),
        "prominent_frequency_cph": d.and_then(|d| d.prominent_frequency()),
        "prominent_is_daily": d.map(|d| d.prominent_is_daily),
        "max_agg_delay_ms": a.aggregated.max(),
        "coverage": a.aggregated.coverage(),
    })
}

/// The exact bytes `classify --json` prints: a pretty array of
/// [`classification_doc`]s with a trailing newline.
pub fn classification_json(results: &[(Asn, PopulationAnalysis)]) -> String {
    let docs: Vec<serde_json::Value> = results
        .iter()
        .map(|(asn, a)| classification_doc(*asn, a))
        .collect();
    let mut s = serde_json::to_string_pretty(&docs).expect("json encodes");
    s.push('\n');
    s
}

pub fn run(flags: &Flags) -> Result<(), String> {
    let metrics = wants_stats(flags).then(RunMetrics::new);
    let run_timer = StageTimer::start();
    let corpus = [flags.required("traceroutes")?.to_string()];
    let (results, _cache) = analyze_paths(flags, &corpus, metrics.as_ref())?;
    if let Some(m) = &metrics {
        m.set_wall(&run_timer);
    }
    if results.is_empty() {
        return Err("no analysable traceroutes in the window".into());
    }
    if flags.switch("json") {
        print!("{}", classification_json(&results));
    } else {
        println!(
            "{:<10} {:>7} {:>8} {:>12} {:>12} {:>9}",
            "asn", "probes", "class", "daily amp", "max delay", "coverage"
        );
        for (asn, a) in &results {
            let amp = a
                .detection
                .as_ref()
                .map(|d| format!("{:.2} ms", d.daily_amplitude_ms))
                .unwrap_or_else(|| "-".into());
            println!(
                "{:<10} {:>7} {:>8} {:>12} {:>9.2} ms {:>9.2}",
                if *asn == 0 {
                    "all".to_string()
                } else {
                    format!("AS{asn}")
                },
                a.probes_used(),
                a.class().name(),
                amp,
                a.aggregated.max().unwrap_or(0.0),
                a.aggregated.coverage(),
            );
        }
    }
    if let Some(m) = &metrics {
        emit_stats(flags, m)?;
    }
    Ok(())
}
