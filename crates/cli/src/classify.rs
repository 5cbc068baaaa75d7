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
use lastmile_repro::ingest::{fold_reader, ingest_slice, IngestSummary, Quarantined};
use lastmile_repro::live::newline_aligned_len;
use lastmile_repro::obs::{trace, LiveProgress, RunMetrics, StageTimer};
use lastmile_repro::prefix::{Asn, PrefixTrie};
use lastmile_repro::runner::{record_population_metrics, record_reused_population};
use lastmile_repro::store::{CacheMode, Lookup, StoreKey};
use lastmile_repro::timebase::{TimeRange, UnixTime};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Seek, SeekFrom};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

/// One [`PopulationAnalysis`] per ASN, in ASN order, shared with the
/// corpus's memo ([`Corpus::analyze`]).
pub type Analyses = Vec<(Asn, Arc<PopulationAnalysis>)>;

/// What one [`Corpus::analyze`] computed afresh.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Recomputed {
    /// Populations analysed; the others kept their last analysis.
    pub populations: u64,
    /// Probes binned from their columns; the other probes of those
    /// populations kept their last series.
    pub probes: u64,
}

/// What the flags fix before a corpus is read: the window bounds, how a
/// row is routed to its population, and the pipeline each population
/// streams into.
struct Routing {
    start: Option<i64>,
    end: Option<i64>,
    /// The window, when `--start` and `--end` give it before the read.
    known_window: Option<TimeRange>,
    /// Probe → ASN from `--probes` metadata.
    probe_to_asn: Option<BTreeMap<ProbeId, Asn>>,
    /// Edge address → origin ASN from `--bgp`.
    bgp: Option<PrefixTrie<Asn>>,
    cfg: PipelineConfig,
    /// Pipelines keep each built series, for store write-back or for
    /// the next live analysis to reuse.
    retain: bool,
    /// Record every routed probe's ASNs ([`Fold::routed`]): a store is
    /// engaged, and only single-ASN probes may enter it.
    track_routes: bool,
}

impl Routing {
    /// `retain` in live mode, whose analyses reuse the series of probes
    /// no pass fed, and otherwise only when write-back can accept the
    /// built series: a read-write store and a window known before the
    /// read.
    fn from_flags(flags: &Flags, cache: Option<&Cache>, live: bool) -> Result<Routing, String> {
        let known_window = flag_window(flags)?;
        let anchors_only = flags.switch("anchors-only");
        let probe_to_asn = flags
            .optional("probes")
            .map(load_probes)
            .transpose()?
            .map(|list| {
                group_by_asn(&list, anchors_only)
                    .into_iter()
                    .flat_map(|(asn, ids)| ids.into_iter().map(move |id| (id, asn)))
                    .collect()
            });
        let mut cfg = PipelineConfig::paper();
        if let Some(min_probes) = flags.parsed::<usize>("min-probes")? {
            cfg.min_probes = min_probes;
            cfg.min_probes_per_bin = min_probes.min(cfg.min_probes_per_bin);
        }
        Ok(Routing {
            start: flags.parsed::<i64>("start")?,
            end: flags.parsed::<i64>("end")?,
            known_window,
            probe_to_asn,
            bgp: flags.optional("bgp").map(load_table).transpose()?,
            cfg,
            retain: live
                || cache.is_some_and(|c| c.store.config().mode == CacheMode::ReadWrite)
                    && known_window.is_some(),
            track_routes: cache.is_some(),
        })
    }

    /// The population of `row`: probe metadata wins; otherwise the BGP
    /// table maps the first public hop (the paper's ISP edge) to its
    /// origin ASN; otherwise everything is one population (ASN 0).
    /// `None` for an unknown or filtered probe, or a row with no public
    /// hop or an unrouted edge.
    fn route(&self, row: &LastMile) -> Option<Asn> {
        match (&self.probe_to_asn, &self.bgp) {
            (Some(map), _) => map.get(&row.probe).copied(),
            (None, Some(table)) => row.edge.and_then(|a| table.lookup(a)).map(|(_, &asn)| asn),
            (None, None) => Some(0),
        }
    }

    /// A population's pipeline. It drops what the flag bounds exclude as
    /// it streams; a bound left to the data span excludes nothing, so it
    /// is closed at analysis.
    fn pipeline(&self) -> AsPipeline {
        let bound = |secs: Option<i64>| secs.map(UnixTime::from_secs);
        let mut p = AsPipeline::with_bounds(self.cfg, bound(self.start), bound(self.end));
        p.retain_median_series(self.retain);
        p
    }
}

/// What the corpus rows were folded into: each ingest worker folds into
/// its own, and the workers' folds merge into one after the read.
#[derive(Default)]
struct Fold {
    /// Earliest and latest timestamps of every decoded row.
    data_span: Option<(UnixTime, UnixTime)>,
    /// Per-AS pipelines fed the routed rows (except served probes').
    pipelines: BTreeMap<Asn, AsPipeline>,
    /// Every routed probe, when a store is engaged.
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
            self.data_span = widen(widen(self.data_span, lo), hi);
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

    /// Fold one decoded row: widen the data span, route the row and feed
    /// it to its population's pipeline — unless its probe is served, as
    /// `serves` decides on the probe's first routed row (only asked when
    /// a store is engaged). Returns the population fed, if any.
    fn fold_row(
        &mut self,
        routing: &Routing,
        row: &LastMile,
        serves: impl FnOnce(Asn) -> bool,
    ) -> Option<Asn> {
        self.data_span = widen(self.data_span, row.timestamp);
        let asn = routing.route(row)?;
        if routing.track_routes {
            let sight = self.routed.entry(row.probe).or_insert_with(|| Sight {
                asn: Some(asn),
                served: serves(asn),
            });
            if sight.asn != Some(asn) {
                sight.asn = None;
            }
            if sight.served {
                return None;
            }
        }
        self.pipelines
            .entry(asn)
            .or_insert_with(|| routing.pipeline())
            .ingest_row(row);
        Some(asn)
    }
}

/// `span` widened to take in `t`.
fn widen(span: Option<(UnixTime, UnixTime)>, t: UnixTime) -> Option<(UnixTime, UnixTime)> {
    Some(span.map_or((t, t), |(lo, hi)| (lo.min(t), hi.max(t))))
}

/// The bytes of a watched file past its last newline: a last record
/// whose newline has not landed yet, decoded but never folded, since
/// its line may still grow ([`Corpus::read_tail`]).
#[derive(Default)]
struct Tail {
    /// The bytes it covers (0: no tail).
    len: u64,
    /// The record's row, when the bytes decode.
    rows: Vec<LastMile>,
    /// The record, when they do not, at its offset in the file.
    quarantined: Vec<Quarantined>,
}

/// The last analyses of a corpus's populations: each one still holds
/// for the folded columns unless rows reached its population since (a
/// provisional tail's row counts as reaching it until the tail is read
/// again).
struct Memo {
    /// The resolved window they were analysed over.
    window: TimeRange,
    analyses: BTreeMap<Asn, Arc<PopulationAnalysis>>,
}

/// A corpus of one or more traceroute files read into per-population
/// columns: the one read behind `classify`, `hygiene` and `serve`
/// start-up. A live daemon keeps it, folds each pass's rows in
/// ([`Corpus::fold_rows`]) instead of reading the files again, and
/// analyses again only what those rows reached ([`Corpus::analyze`]).
pub struct Corpus {
    routing: Routing,
    fold: Fold,
    /// Each file's quarantined records, in file order.
    quarantined: Vec<Vec<Quarantined>>,
    /// Records decoded by the read.
    parsed: u64,
    /// The store's hits, by the population their probe's first routed
    /// row went to: analysed as kept series, never binned.
    served: BTreeMap<Asn, Vec<BuiltSeries>>,
    /// The watched file's provisional last record, analysed with the
    /// folded rows.
    tail: Tail,
    /// The last analysis of each population, and the window it used.
    memo: Option<Memo>,
    /// The probes each population was fed since its memoized analysis.
    reached: BTreeMap<Asn, BTreeSet<ProbeId>>,
}

impl Corpus {
    /// Stream `paths` once, in order, as if concatenated, decoding each
    /// record once. Each ingest worker decodes records to their last-mile
    /// rows and folds them into its own [`Fold`].
    ///
    /// `bounds` makes this a live read: each file is read only up to its
    /// bound (so bytes appended during the read are left to live intake),
    /// every row is folded, and no store is consulted — a live daemon
    /// writes its store only at shutdown. Otherwise each file is read to
    /// its end, and with a `cache` a probe is looked up once, on its
    /// first routed row in any worker, counted there as a store hit or
    /// miss (so the counts are the same at any thread count). A served
    /// probe's series was built over this window: its rows are skipped,
    /// never binned, and its population's analysis takes the series as
    /// kept ([`Corpus::analyze`]). Only a window known before the read
    /// can be served.
    pub fn read(
        flags: &Flags,
        paths: &[String],
        bounds: Option<&[u64]>,
        metrics: Option<&RunMetrics>,
        cache: Option<&Cache>,
        progress: Option<Arc<LiveProgress>>,
    ) -> Result<Corpus, String> {
        let routing = Routing::from_flags(flags, cache, bounds.is_some())?;
        let lookups = cache.filter(|_| bounds.is_none());
        let mut ingest_opts = ingest_options(flags)?;
        ingest_opts.progress = progress;
        ingest_opts.record_latency = metrics.is_some();
        let decided: Mutex<BTreeMap<ProbeId, Option<(Asn, BuiltSeries)>>> =
            Mutex::new(BTreeMap::new());
        let serves = |probe: ProbeId, asn: Asn| {
            let (Some(c), Some(window)) = (lookups, routing.known_window) else {
                return false;
            };
            let mut decided = decided.lock().expect("served-probe table lock");
            let decision = decided.entry(probe).or_insert_with(|| {
                let key = StoreKey::for_pipeline(probe, &routing.cfg);
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
        };
        let fold_row = |fold: &mut Fold, row: LastMile| {
            fold.fold_row(&routing, &row, |asn| serves(row.probe, asn));
        };
        let mut read = Fold::default();
        let mut parsed = 0u64;
        let mut quarantined = Vec::new();
        let ingest_timer = StageTimer::start();
        for (i, path) in paths.iter().enumerate() {
            let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
            let bound = bounds.map_or(u64::MAX, |b| b[i]);
            let (summary, folds) =
                fold_reader(file.take(bound), &ingest_opts, Fold::default, fold_row)
                    .map_err(|e| format!("{path}: {e}"))?;
            for fold in folds {
                read.merge(fold);
            }
            parsed += summary.parsed;
            if let Some(m) = metrics {
                m.ingest.add(&ingest_traffic(&summary));
                m.latency.decode.merge(&summary.decode_hist);
            }
            quarantined.push(summary.quarantined);
        }
        if bounds.is_some() {
            // A live read's columns are kept and fed more rows.
            read.pipelines.values_mut().for_each(AsPipeline::seal);
        }
        let mut served: BTreeMap<Asn, Vec<BuiltSeries>> = BTreeMap::new();
        let decided = decided.into_inner().expect("served-probe table lock");
        for (asn, built) in decided.into_values().flatten() {
            // A population whose every probe was served is analysed too.
            read.pipelines
                .entry(asn)
                .or_insert_with(|| routing.pipeline());
            served.entry(asn).or_default().push(built);
        }
        let corpus = Corpus {
            routing,
            fold: read,
            quarantined,
            parsed,
            served,
            tail: Tail::default(),
            memo: None,
            reached: BTreeMap::new(),
        };
        if let Some(m) = metrics {
            // Probes looked up under no window (it was resolved only
            // after the read) are ones the store could not serve:
            // bypasses.
            if lookups.is_some() && corpus.routing.known_window.is_none() {
                let unasked = corpus.cacheable().count() as u64;
                m.store.bypasses.fetch_add(unasked, Ordering::Relaxed);
            }
            m.stage_nanos
                .ingest
                .fetch_add(ingest_timer.elapsed_nanos(), Ordering::Relaxed);
        }
        eprintln!(
            "[input] {parsed} traceroutes parsed, {} skipped",
            corpus.quarantined.iter().map(Vec::len).sum::<usize>()
        );
        Ok(corpus)
    }

    /// Records the read decoded, a provisional tail's included.
    pub fn records_read(&self) -> u64 {
        self.parsed + self.tail.rows.len() as u64
    }

    /// The bytes the provisional tail covers past the folded ones.
    pub fn tail_len(&self) -> u64 {
        self.tail.len
    }

    /// Replace the provisional tail with the bytes of the first (watched)
    /// file past `from`, when they hold no newline: a last record whose
    /// newline has not landed, which a cold read of the file decodes but
    /// the watcher leaves until it does. Its row is analysed and never
    /// folded, so when the watcher delivers the finished line, the next
    /// tail read drops it. Bytes holding a newline are records the
    /// watcher has yet to deliver, and an unreadable file is the
    /// watcher's to report: neither keeps a tail. Returns the records
    /// decoded, which `metrics` counts.
    pub fn read_tail(&mut self, path: &str, from: u64, metrics: Option<&RunMetrics>) -> u64 {
        self.tail = Tail::default();
        if newline_aligned_len(path) > from {
            return 0;
        }
        let mut bytes = Vec::new();
        let read = std::fs::File::open(path).and_then(|mut file| {
            let len = file.metadata()?.len();
            file.seek(SeekFrom::Start(from))?;
            file.take(len.saturating_sub(from)).read_to_end(&mut bytes)
        });
        if read.is_err() || bytes.is_empty() || bytes.contains(&b'\n') {
            return 0;
        }
        let mut rows = Vec::new();
        let mut quarantined = ingest_slice(&bytes, |_, _, row: LastMile| rows.push(row));
        for q in &mut quarantined {
            q.offset += from;
        }
        let summary = IngestSummary {
            parsed: rows.len() as u64,
            bytes_read: bytes.len() as u64,
            quarantined,
            ..IngestSummary::default()
        };
        if let Some(m) = metrics {
            m.ingest.add(&ingest_traffic(&summary));
        }
        self.tail = Tail {
            len: summary.bytes_read,
            rows,
            quarantined: summary.quarantined,
        };
        summary.parsed
    }

    /// The probes whose series a write-back inserts: those the store
    /// did not serve (it holds their series already), and whose routed
    /// rows all went to one ASN. Under probe metadata or ASN 0 the
    /// latter holds for every probe; under per-traceroute BGP
    /// attribution a probe's rows can split across AS pipelines, and
    /// each pipeline's partial series under the store's one key per
    /// probe would poison the snapshot. Serving needs no such check: a
    /// hit under the snapshot's source fingerprint (which mixes in the
    /// table) was inserted from this same corpus, where the probe was
    /// single-ASN.
    fn cacheable(&self) -> impl Iterator<Item = ProbeId> + '_ {
        self.fold
            .routed
            .iter()
            .filter(|(_, sight)| sight.asn.is_some() && !sight.served)
            .map(|(&probe, _)| probe)
    }

    /// Fold one row that arrived after the read, marking the probe it
    /// fed as reached.
    fn fold_late(&mut self, row: &LastMile) {
        if let Some(asn) = self.fold.fold_row(&self.routing, row, |_| false) {
            self.reached.entry(asn).or_default().insert(row.probe);
        }
    }

    /// Mark the population and probe the provisional tail reaches, as a
    /// folded row would.
    fn mark_tail(&mut self) {
        for row in &self.tail.rows {
            if let Some(asn) = self.routing.route(row) {
                self.reached.entry(asn).or_default().insert(row.probe);
            }
        }
    }

    /// Fold rows that live intake decoded, as if the files had held them
    /// all along, marking the population and probe each row feeds for
    /// the next analysis; `quarantined` are the records intake
    /// quarantined in the first (watched) file, at offsets in it.
    /// Returns the records folded, which `metrics` counts as the pass's
    /// decoded records.
    pub fn fold_rows(
        &mut self,
        rows: Vec<LastMile>,
        quarantined: Vec<Quarantined>,
        metrics: &RunMetrics,
    ) -> u64 {
        let timer = StageTimer::start();
        rows.iter().for_each(|row| self.fold_late(row));
        let summary = IngestSummary {
            parsed: rows.len() as u64,
            quarantined,
            ..IngestSummary::default()
        };
        metrics.ingest.add(&ingest_traffic(&summary));
        metrics
            .stage_nanos
            .ingest
            .fetch_add(timer.elapsed_nanos(), Ordering::Relaxed);
        self.quarantined[0].extend(summary.quarantined);
        summary.parsed
    }

    /// Write the `--quarantine` dump, when asked for: every file's
    /// quarantined records, in file order.
    pub fn write_quarantine(&self, flags: &Flags) -> Result<(), String> {
        let Some(qpath) = flags.optional("quarantine") else {
            return Ok(());
        };
        let (watched, rest) = self.quarantined.split_first().expect("one list per file");
        let all = watched
            .iter()
            .chain(&self.tail.quarantined)
            .chain(rest.iter().flatten());
        write_quarantine(qpath, all.clone())?;
        eprintln!(
            "[input] {} quarantined record(s) written to {qpath}",
            all.count()
        );
        Ok(())
    }

    /// Analyse every population over the window: the flag bounds, with a
    /// side left open closed at the data span. A provisional tail is
    /// analysed as if folded. When `metrics` is given, pipeline counters
    /// and stage timings are accumulated into it.
    ///
    /// The analyses are memoized, so the next call recomputes only what
    /// rows folded since reached: a population no row reached hands back
    /// its last analysis, and in one that was reached only the probes fed
    /// are binned again, the others keeping their last series (or, before
    /// any analysis, the store's). The memo is dropped when the window
    /// moves. A provisional tail marks its population and probe like a
    /// folded row, and the marks stay set after the analysis: the memo
    /// holds the tail's row, which the next call must take back.
    pub fn analyze(
        &mut self,
        metrics: Option<&RunMetrics>,
        progress: Option<&LiveProgress>,
    ) -> Result<(Analyses, Recomputed), String> {
        self.mark_tail();
        let routing = &self.routing;
        let tail = &self.tail.rows[..];
        let span = tail
            .iter()
            .fold(self.fold.data_span, |span, row| widen(span, row.timestamp));
        let tail_asn = tail.first().and_then(|row| routing.route(row));
        let fresh = tail_asn
            .filter(|asn| !self.fold.pipelines.contains_key(asn))
            .map(|asn| (asn, routing.pipeline()));
        let mut pipelines: BTreeMap<Asn, &AsPipeline> = self
            .fold
            .pipelines
            .iter()
            .map(|(&asn, p)| (asn, p))
            .collect();
        if let Some((asn, p)) = &fresh {
            pipelines.insert(*asn, p);
        }
        let window = resolve_window(
            routing.start,
            routing.end,
            span.map(|(lo, _)| lo),
            span.map(|(_, hi)| hi),
        )?;
        // The population table keys on (ASN, period); a file run has no
        // named measurement period, so the analysis window stands in.
        let window_label = format!("{}..{}", window.start().as_secs(), window.end().as_secs());
        if let Some(p) = progress {
            p.populations_total
                .store(pipelines.len() as u64, Ordering::Relaxed);
        }
        let memo = match self.memo.take() {
            Some(memo) if memo.window == window => memo,
            _ => Memo {
                window,
                analyses: BTreeMap::new(),
            },
        };
        let reached = &self.reached;
        let mut recomputed = Recomputed::default();
        let mut results = Vec::with_capacity(pipelines.len());
        for (asn, p) in pipelines {
            let last = memo.analyses.get(&asn);
            let fed = reached.get(&asn);
            let analysis = match last {
                Some(last) if fed.is_none() => {
                    if let Some(m) = metrics {
                        record_reused_population(m, asn, &window_label, last);
                    }
                    Arc::clone(last)
                }
                _ => {
                    let span = trace::span_with("population", |a| {
                        a.u64("asn", u64::from(asn))
                            .str("period", window_label.as_str());
                    });
                    let extra = if Some(asn) == tail_asn { tail } else { &[] };
                    // A probe fed nothing since the last analysis keeps
                    // its series; before one, a served probe its hit.
                    let kept = last
                        .map(|last| &last.built_series)
                        .or_else(|| self.served.get(&asn))
                        .into_iter()
                        .flatten()
                        .filter(|b| fed.is_none_or(|probes| !probes.contains(&b.series.probe())));
                    let analysis = Arc::new(p.finish_in_with(window, extra, kept));
                    recomputed.populations += 1;
                    recomputed.probes += analysis.stats.probes_binned;
                    if let Some(m) = metrics {
                        // Streaming interleaves populations, so ingest
                        // time is accounted once, by the read; per-task
                        // wall = pipeline stages.
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
                    analysis
                }
            };
            if let Some(p) = progress {
                p.populations_done.fetch_add(1, Ordering::Relaxed);
            }
            results.push((asn, analysis));
        }
        self.reached.clear();
        self.mark_tail();
        self.memo = Some(Memo {
            window,
            analyses: results.iter().cloned().collect(),
        });
        Ok((results, recomputed))
    }

    /// Memoize the retained series of `results` — every cacheable probe's
    /// — into `cache` under the window known before the read.
    fn insert_series(&self, cache: &Cache, results: &Analyses, metrics: Option<&RunMetrics>) {
        let Some(window) = self.routing.known_window else {
            return;
        };
        let cacheable: Vec<ProbeId> = self.cacheable().collect();
        let mut inserts = 0;
        for built in results.iter().flat_map(|(_, a)| &a.built_series) {
            // A multi-ASN probe's series here is the partial view of one
            // pipeline; inserting it would claim full-window coverage for
            // a subset of the probe's traceroutes.
            let probe = built.series.probe();
            if cacheable.binary_search(&probe).is_ok() {
                let key = StoreKey::for_pipeline(probe, &self.routing.cfg);
                inserts += u64::from(cache.store.insert(&key, &window, built));
            }
        }
        if let Some(m) = metrics {
            m.store.inserts.fetch_add(inserts, Ordering::Relaxed);
        }
    }

    /// Replace everything `cache` holds with the current window's series
    /// of every cacheable probe: a live daemon's shutdown write-back. No
    /// entry built before intake survives, in any window; with a window
    /// left to the data span nothing is memoized, as in `classify`. The
    /// provisional tail is folded first: nothing follows it any more.
    /// The series written are the ones the last analysis kept; only a
    /// population the tail reached is analysed again.
    pub fn refill(&mut self, cache: &Cache) -> Result<(), String> {
        for row in std::mem::take(&mut self.tail).rows {
            self.fold_late(&row);
        }
        cache.store.clear();
        if self.routing.known_window.is_none() {
            return Ok(());
        }
        let (results, _) = self.analyze(None, None)?;
        self.insert_series(cache, &results, None);
        Ok(())
    }
}

/// Read `paths` (up to `bounds`, when given: see [`Corpus::read`]),
/// write the `--quarantine` dump and analyse: the start-up of every
/// subcommand, and a live rebuild. A live read under `--watch` also
/// takes the watched file's provisional tail past its bound
/// ([`Corpus::read_tail`]). `--progress` gauges are shared with the
/// ingest workers; the heartbeat thread lives for the read and the
/// analysis.
pub fn read_and_analyze(
    flags: &Flags,
    paths: &[String],
    bounds: Option<&[u64]>,
    metrics: Option<&RunMetrics>,
    cache: Option<&Cache>,
) -> Result<(Corpus, Analyses, Recomputed), String> {
    let progress = flags
        .switch("progress")
        .then(|| Arc::new(LiveProgress::default()));
    let _heartbeat = progress.clone().map(Heartbeat::start);
    let mut corpus = Corpus::read(flags, paths, bounds, metrics, cache, progress.clone())?;
    if let (Some(bounds), true) = (bounds, flags.switch("watch")) {
        corpus.read_tail(&paths[0], bounds[0], metrics);
    }
    corpus.write_quarantine(flags)?;
    let (results, recomputed) = corpus.analyze(metrics, progress.as_deref())?;
    Ok((corpus, results, recomputed))
}

/// The one start-up analysis of `classify`, `hygiene` and a non-live
/// `serve`: read the corpus `paths` once ([`read_and_analyze`]) and
/// return one [`PopulationAnalysis`] per ASN (ASN 0 = "all probes" when
/// no metadata is given) plus the active series cache (when
/// `--cache-dir` was given), whose snapshot is already persisted.
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
    let (corpus, results, _) = read_and_analyze(flags, paths, None, metrics, cache.as_ref())?;
    if let Some(c) = &cache {
        corpus.insert_series(c, &results, metrics);
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
pub fn classification_json(results: &[(Asn, Arc<PopulationAnalysis>)]) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scratch;
    use lastmile_repro::live::newline_aligned_len;
    use std::io::Write;
    use std::sync::atomic::AtomicBool;

    /// Record `i` of a three-probe corpus: probes 1–3 each measure every
    /// 200 s, so every 30-minute bin holds nine traceroutes per probe.
    fn record(i: u64) -> String {
        format!(
            r#"{{"fw":5020,"af":4,"dst_addr":"20.99.0.1","src_addr":"192.168.1.10","from":"20.0.0.1","msm_id":5001,"prb_id":{},"timestamp":{},"proto":"ICMP","type":"traceroute","result":[{{"hop":1,"result":[{{"from":"192.168.1.1","rtt":1.0}}]}},{{"hop":2,"result":[{{"from":"20.0.0.1","rtt":{}}}]}}]}}"#,
            1 + i % 3,
            (i / 3) * 200,
            5.0 + (i % 17) as f64
        ) + "\n"
    }

    /// The `classify --json` bytes of `corpus`'s analysis.
    fn json(corpus: &mut Corpus) -> String {
        classification_json(&corpus.analyze(None, None).unwrap().0)
    }

    fn flags(path: &std::path::Path) -> Flags {
        let args = ["--traceroutes", path.to_str().unwrap(), "--min-probes", "1"];
        Flags::parse(&args.map(String::from)).unwrap()
    }

    #[test]
    fn a_fold_rebins_only_the_probes_it_fed() {
        // Probes 1 and 2 route to AS64500 and probe 3 to AS64501. Some of
        // probe 1's records, from inside the data span (so the window
        // stays put), arrive after the read.
        let dir = Scratch::new("partial-pass");
        let bgp = dir.join("bgp.csv");
        std::fs::write(&bgp, "20.0.0.0/16,64500\n20.1.0.0/16,64501\n").unwrap();
        let line = |i: u64| match i % 3 {
            2 => record(i).replace("20.0.0.1", "20.1.0.1"),
            _ => record(i),
        };
        let late = |i: &u64| i.is_multiple_of(3) && (150..180).contains(i);
        let read: String = (0..300).filter(|i| !late(i)).map(line).collect();
        let arrived: String = (0..300).filter(late).map(line).collect();
        let path = dir.join("corpus.jsonl");
        let whole = dir.join("whole.jsonl");
        std::fs::write(&path, &read).unwrap();
        std::fs::write(&whole, format!("{read}{arrived}")).unwrap();
        let flags = |path: &std::path::Path| {
            let args = [
                "--traceroutes",
                path.to_str().unwrap(),
                "--bgp",
                bgp.to_str().unwrap(),
                "--min-probes",
                "1",
            ];
            Flags::parse(&args.map(String::from)).unwrap()
        };
        let paths = [path.display().to_string()];
        let bound = [read.len() as u64];
        let mut live = Corpus::read(&flags(&path), &paths, Some(&bound), None, None, None).unwrap();
        let (before, all) = live.analyze(None, None).unwrap();
        assert_eq!(
            all,
            Recomputed {
                populations: 2,
                probes: 3
            }
        );
        assert_eq!(live.analyze(None, None).unwrap().1, Recomputed::default());

        let mut rows = Vec::new();
        assert!(ingest_slice(arrived.as_bytes(), |_, _, row: LastMile| rows.push(row)).is_empty());
        assert_eq!(live.fold_rows(rows, Vec::new(), &RunMetrics::new()), 10);
        let (after, recomputed) = live.analyze(None, None).unwrap();
        assert_eq!(
            recomputed,
            Recomputed {
                populations: 1,
                probes: 1
            }
        );
        assert!(
            Arc::ptr_eq(&before[1].1, &after[1].1),
            "AS64501 was reached"
        );
        assert_eq!(after[0].1.stats.probes_binned, 1);

        // The bytes of a fresh corpus over the same records.
        let paths = [whole.display().to_string()];
        let mut fresh = Corpus::read(&flags(&whole), &paths, None, None, None, None).unwrap();
        let fresh = json(&mut fresh);
        assert_eq!(classification_json(&after), fresh);
        assert_ne!(classification_json(&before), fresh);
    }

    #[test]
    fn a_tail_without_newline_is_analysed_and_never_folded() {
        let dir = Scratch::new("tail");
        let path = dir.join("corpus.jsonl");
        // Two days past the rest, so it widens the window; then inside
        // the data span, so the window and the memo stay put.
        let inside = 150;
        for (body, last) in [
            ((0..300).map(record).collect::<String>(), record(3000)),
            (
                (0..300).filter(|&i| i != inside).map(record).collect(),
                record(inside),
            ),
        ] {
            std::fs::write(&path, format!("{body}{}", last.trim_end())).unwrap();
            let paths = [path.display().to_string()];
            let len = newline_aligned_len(&path);
            assert_eq!(len, body.len() as u64);
            let read = |bound: Option<&[u64]>| {
                Corpus::read(&flags(&path), &paths, bound, None, None, None).unwrap()
            };
            let mut live = read(Some(&[len]));
            let folded = json(&mut live);
            assert_eq!(live.read_tail(&paths[0], len, None), 1);
            assert_eq!(live.tail_len(), last.len() as u64 - 1);
            assert_eq!(live.records_read(), body.lines().count() as u64 + 1);
            // A cold read of the file decodes the unterminated record too.
            let cold = json(&mut read(None));
            assert_eq!(json(&mut live), cold);
            assert_ne!(folded, cold, "the last record changes nothing");
            // Once its newline lands, the bytes are the watcher's to
            // deliver: the tail is dropped, and the folded columns never
            // held it.
            std::fs::write(&path, format!("{body}{last}")).unwrap();
            assert_eq!(live.read_tail(&paths[0], len, None), 0);
            assert_eq!(live.tail_len(), 0);
            assert_eq!(json(&mut live), folded);
            // Once the watcher delivers it, it is folded once.
            let mut rows = Vec::new();
            assert!(ingest_slice(last.as_bytes(), |_, _, row: LastMile| rows.push(row)).is_empty());
            assert_eq!(live.fold_rows(rows, Vec::new(), &RunMetrics::new()), 1);
            assert_eq!(live.read_tail(&paths[0], len + last.len() as u64, None), 0);
            assert_eq!(json(&mut live), cold);
        }
    }

    #[test]
    fn a_bounded_read_folds_exactly_the_bytes_before_its_bound() {
        let dir = Scratch::new("bounded-read");
        let path = dir.join("corpus.jsonl");
        std::fs::write(&path, (0..300).map(record).collect::<String>()).unwrap();
        // A collector keeps appending while the bound is taken and the
        // read runs.
        let stop = AtomicBool::new(false);
        let (len, corpus) = std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut file = std::fs::OpenOptions::new()
                    .append(true)
                    .open(&path)
                    .unwrap();
                for i in 300..20_000 {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    file.write_all(record(i).as_bytes()).unwrap();
                }
            });
            let len = newline_aligned_len(&path);
            let paths = [path.display().to_string()];
            let corpus = Corpus::read(&flags(&path), &paths, Some(&[len]), None, None, None);
            stop.store(true, Ordering::Relaxed);
            (len, corpus.unwrap())
        });
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap()
            .write_all(record(20_000).as_bytes())
            .unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let prefix = &bytes[..len as usize];
        assert!(bytes.len() > prefix.len(), "the file grew past the bound");
        let records = prefix.iter().filter(|&&b| b == b'\n').count() as u64;
        assert!(records >= 300);
        assert_eq!(corpus.records_read(), records);

        // The analysis equals a whole read of exactly `[0, len)`.
        let whole = dir.join("prefix.jsonl");
        std::fs::write(&whole, prefix).unwrap();
        let paths = [whole.display().to_string()];
        let mut expected = Corpus::read(&flags(&whole), &paths, None, None, None, None).unwrap();
        let (mut corpus, expected) = (corpus, json(&mut expected));
        assert_eq!(json(&mut corpus), expected);
        assert!(expected.contains("\"probes\": 3"));
    }
}
