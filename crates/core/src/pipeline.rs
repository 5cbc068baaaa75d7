//! The end-to-end per-population pipeline.
//!
//! An [`AsPipeline`] analyses one probe *population* over one measurement
//! period — an AS (§3) or an AS restricted to a metro area (§4's Greater
//! Tokyo selection; the caller chooses which probes' traceroutes to feed).
//! It routes traceroutes to per-probe series builders, then on
//! [`AsPipeline::finish`] runs binning → sanity filter → queuing delay →
//! population median → Welch detection, yielding a
//! [`PopulationAnalysis`].
//!
//! The caller is responsible for pre-filtering (exclude anchors, area
//! selection) — the pipeline analyses exactly what it is fed, mirroring
//! how the paper's tooling takes a probe set as input.

use crate::aggregate::{aggregate_median, AggregatedSignal};
use crate::detect::{detect, CongestionClass, Detection};
use crate::series::{BuiltSeries, ProbeSeriesBuilder, QueuingDelaySeries};
use lastmile_atlas::{LastMile, ProbeId, TracerouteResult};
use lastmile_obs::{trace, Histogram};
use lastmile_timebase::{BinSpec, TimeRange, UnixTime};
use std::borrow::Cow;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::time::Instant;

/// Pipeline parameters.
///
/// `Copy`: four plain words, so per-task propagation in the survey
/// executor is free — no per-(AS, period) clone in the hot loop.
#[derive(Clone, Copy, Debug)]
pub struct PipelineConfig {
    /// Bin width (paper: 30 minutes).
    pub bin: BinSpec,
    /// Sanity filter: minimum traceroutes per probe-bin (paper: 3).
    pub min_traceroutes_per_bin: usize,
    /// Minimum probes reporting in a bin for the aggregate to hold a value.
    pub min_probes_per_bin: usize,
    /// Minimum probes with data for the population to be analysable
    /// (paper monitors "ASes hosting at least three Atlas probes").
    pub min_probes: usize,
}

impl PipelineConfig {
    /// The paper's parameters.
    pub fn paper() -> PipelineConfig {
        PipelineConfig {
            bin: BinSpec::thirty_minutes(),
            min_traceroutes_per_bin: 3,
            min_probes_per_bin: 2,
            min_probes: 3,
        }
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig::paper()
    }
}

/// Counters and stage timings from one population analysis — the §2
/// filters made observable. Aggregated across a survey into the run's
/// `RunMetrics` (see the `lastmile-obs` crate).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PopulationStats {
    /// Traceroutes offered to [`AsPipeline::ingest`] (including dropped).
    pub traceroutes_ingested: u64,
    /// Subset dropped for falling outside the measurement period.
    pub traceroutes_out_of_period: u64,
    /// Probe-bins discarded by the sanity filter (§2: fewer than the
    /// minimum traceroutes in the bin).
    pub bins_discarded_sanity: u64,
    /// Bins of the aggregated signal filled by interpolation/padding
    /// before spectral analysis.
    pub bins_interpolated: u64,
    /// Welch segments averaged by the detector (0 when detection was
    /// skipped).
    pub welch_segments: u64,
    /// Probes whose series this analysis binned from their columns; a
    /// kept series is not binned.
    pub probes_binned: u64,
    /// Wall time spent binning probe series and computing queuing delay.
    pub series_nanos: u64,
    /// Per-probe series-build latency distribution (one sample per probe
    /// fed to the series stage, binned or kept). A `Default` histogram
    /// is one unallocated `Vec`, so carrying it here is effectively free.
    pub series_hist: Histogram,
    /// Wall time spent in cross-probe median aggregation.
    pub aggregate_nanos: u64,
    /// Wall time spent in gap filling + Welch detection.
    pub detect_nanos: u64,
}

/// Streams traceroutes of a probe population into an analysis. Series
/// built earlier (a store hit, or a live caller's last analysis) join
/// at analysis, as kept series ([`AsPipeline::finish_in_with`]), and are
/// retained like binned ones.
pub struct AsPipeline {
    cfg: PipelineConfig,
    /// The period's bounds as known while streaming; a `None` side is
    /// closed only by [`AsPipeline::finish_in`].
    start: Option<UnixTime>,
    end: Option<UnixTime>,
    /// Earliest and latest timestamps of the in-period traceroutes fed.
    fed_span: Option<(UnixTime, UnixTime)>,
    builders: BTreeMap<ProbeId, ProbeSeriesBuilder>,
    retain_median_series: bool,
    ingested: u64,
    ignored_out_of_period: usize,
}

impl AsPipeline {
    /// A pipeline over one measurement period.
    pub fn new(cfg: PipelineConfig, period: TimeRange) -> AsPipeline {
        AsPipeline::with_bounds(cfg, Some(period.start()), Some(period.end()))
    }

    /// A pipeline whose period is only partly known while it streams:
    /// traceroutes before `start` or at/after `end` are dropped as out of
    /// period, and a side given as `None` is closed once the whole input
    /// has been read, by [`AsPipeline::finish_in`]. This is how a file
    /// run bounded by flags on one side (or none) and by the data span
    /// on the other analyses its input in a single read.
    pub fn with_bounds(
        cfg: PipelineConfig,
        start: Option<UnixTime>,
        end: Option<UnixTime>,
    ) -> AsPipeline {
        AsPipeline {
            cfg,
            start,
            end,
            fed_span: None,
            builders: BTreeMap::new(),
            retain_median_series: false,
            ingested: 0,
            ignored_out_of_period: 0,
        }
    }

    /// Keep each probe's median series (and its discarded bins), binned
    /// or kept, in the analysis result, so the caller can insert them
    /// into a series store after [`AsPipeline::finish`], or offer them to
    /// a later analysis ([`AsPipeline::finish_in_with`]). Off by default —
    /// the retained copies roughly double the per-probe memory.
    pub fn retain_median_series(&mut self, on: bool) {
        self.retain_median_series = on;
    }

    /// Ingest one traceroute: [`AsPipeline::ingest_row`] of its last-mile
    /// row.
    pub fn ingest(&mut self, tr: &TracerouteResult) {
        self.ingest_row(&LastMile::of(tr));
    }

    /// Ingest one traceroute's last-mile row. Traceroutes outside the
    /// period are counted and dropped (period boundaries are exact, §2's
    /// dates are UTC).
    pub fn ingest_row(&mut self, row: &LastMile) {
        self.ingested += 1;
        let t = row.timestamp;
        if self.start.is_some_and(|s| t < s) || self.end.is_some_and(|e| t >= e) {
            self.ignored_out_of_period += 1;
            return;
        }
        self.fed_span = Some(
            self.fed_span
                .map_or((t, t), |(lo, hi)| (lo.min(t), hi.max(t))),
        );
        let cfg = &self.cfg;
        self.builders
            .entry(row.probe)
            .or_insert_with(|| {
                ProbeSeriesBuilder::new(row.probe, cfg.bin, cfg.min_traceroutes_per_bin)
            })
            .ingest_row(row);
    }

    /// Take over everything `other` was fed, as if it had been fed to
    /// this pipeline after its own input: counters add up, and a probe
    /// both fed keeps both feeds ([`ProbeSeriesBuilder::absorb`] moves
    /// the columns). This is how pipelines filled on separate ingest
    /// threads become one. Panics unless both were built over the same
    /// bounds.
    pub fn merge(&mut self, other: AsPipeline) {
        assert!(
            (self.start, self.end) == (other.start, other.end),
            "merging pipelines over different periods"
        );
        self.ingested += other.ingested;
        self.ignored_out_of_period += other.ignored_out_of_period;
        self.retain_median_series |= other.retain_median_series;
        if let Some((lo, hi)) = other.fed_span {
            self.fed_span = Some(
                self.fed_span
                    .map_or((lo, hi), |(a, b)| (a.min(lo), b.max(hi))),
            );
        }
        for (probe, builder) in other.builders {
            match self.builders.entry(probe) {
                Entry::Occupied(mut e) => e.get_mut().absorb(builder),
                Entry::Vacant(e) => drop(e.insert(builder)),
            }
        }
    }

    /// [`ProbeSeriesBuilder::seal`] every probe's columns: for a pipeline
    /// kept alive to be fed more rows after a bulk read.
    pub fn seal(&mut self) {
        self.builders
            .values_mut()
            .for_each(ProbeSeriesBuilder::seal);
    }

    /// Number of traceroutes dropped for being outside the period.
    pub fn ignored_out_of_period(&self) -> usize {
        self.ignored_out_of_period
    }

    /// Number of probes seen so far.
    pub fn probe_count(&self) -> usize {
        self.builders.len()
    }

    /// Run the full analysis. Panics on a pipeline built with an open
    /// bound; close it with [`AsPipeline::finish_in`].
    pub fn finish(&self) -> PopulationAnalysis {
        let (Some(start), Some(end)) = (self.start, self.end) else {
            panic!("pipeline period has an open bound: finish it with finish_in");
        };
        self.finish_in(TimeRange::new(start, end))
    }

    /// Close the period and run the full analysis. `period` must keep
    /// every bound the pipeline was built with and contain every
    /// traceroute it accepted, so closing it excludes nothing after the
    /// fact: the analysis and its counters equal those of a pipeline
    /// built over `period` from the start. Panics otherwise.
    ///
    /// The pipeline keeps what it was fed, so a live caller can feed it
    /// more rows and analyse again; the result equals that of one
    /// pipeline fed everything once.
    pub fn finish_in(&self, period: TimeRange) -> PopulationAnalysis {
        self.finish_in_with(period, &[], [])
    }

    /// [`AsPipeline::finish_in`] as if `extra` had been fed last, without
    /// keeping it: a probe `extra` reaches is binned from a copy of its
    /// columns. A live caller analyses so the rows it may have to take
    /// back (a record whose line is still growing).
    ///
    /// `kept` yields series built earlier over `period`, in any order:
    /// a store hit, whose probe was never fed, or a fed probe's series
    /// from an earlier analysis. Each is taken as built, not binned,
    /// unless `extra` reaches its probe; then the probe is binned from
    /// its columns and `extra`. The caller vouches that a kept series is
    /// what a build of everything its probe was fed (or, for a store
    /// hit, would have been fed) gives; the result then equals a full
    /// build's. Panics if a kept series' bin width differs from the
    /// pipeline's.
    pub fn finish_in_with<'s>(
        &self,
        period: TimeRange,
        extra: &[LastMile],
        kept: impl IntoIterator<Item = &'s BuiltSeries>,
    ) -> PopulationAnalysis {
        let mut over = AsPipeline::with_bounds(self.cfg, self.start, self.end);
        extra.iter().for_each(|row| over.ingest_row(row));
        assert!(
            self.start.is_none_or(|s| s == period.start())
                && self.end.is_none_or(|e| e == period.end()),
            "finish period {period:?} moves a bound the pipeline streamed with"
        );
        for (lo, hi) in [self.fed_span, over.fed_span].into_iter().flatten() {
            assert!(
                period.contains(lo) && period.contains(hi),
                "finish period {period:?} excludes traceroutes the pipeline accepted"
            );
        }
        let cfg = self.cfg;
        let mut stats = PopulationStats {
            traceroutes_ingested: self.ingested + over.ingested,
            traceroutes_out_of_period: (self.ignored_out_of_period + over.ignored_out_of_period)
                as u64,
            ..PopulationStats::default()
        };

        let t = Instant::now();
        let span = trace::span("series");
        // Merge binned and kept probes in ProbeId order — the same order
        // a raw-only run produces, so downstream aggregation (and
        // therefore the report) is byte-identical however each probe's
        // series arrived.
        enum Source<'a> {
            Raw(Cow<'a, ProbeSeriesBuilder>),
            Kept(&'a BuiltSeries),
        }
        let mut merged: BTreeMap<ProbeId, Source> = self
            .builders
            .iter()
            .map(|(&probe, b)| (probe, Source::Raw(Cow::Borrowed(b))))
            .collect();
        for series in kept {
            assert_eq!(
                series.series.bin(),
                cfg.bin,
                "kept series bin width differs from the pipeline's"
            );
            let probe = series.series.probe();
            if !over.builders.contains_key(&probe) {
                merged.insert(probe, Source::Kept(series));
            }
        }
        for (probe, rows) in over.builders {
            match merged.entry(probe) {
                Entry::Occupied(mut e) => match e.get_mut() {
                    Source::Raw(b) => b.to_mut().absorb(rows),
                    Source::Kept(_) => unreachable!("a probe extra reaches is never kept"),
                },
                Entry::Vacant(e) => drop(e.insert(Source::Raw(Cow::Owned(rows)))),
            }
        }
        let retain = self.retain_median_series;
        let mut built_series: Vec<BuiltSeries> = Vec::new();
        let probe_series: Vec<QueuingDelaySeries> = merged
            .into_values()
            .map(|src| {
                let t_probe = Instant::now();
                let q = match src {
                    Source::Raw(b) => {
                        let built = b.finish_detailed();
                        stats.probes_binned += 1;
                        stats.bins_discarded_sanity += built.discarded_bins;
                        let q = built.series.queuing_delay();
                        if retain {
                            built_series.push(built);
                        }
                        q
                    }
                    Source::Kept(kept) => {
                        stats.bins_discarded_sanity += kept.discarded_bins;
                        if retain {
                            built_series.push(kept.clone());
                        }
                        kept.series.queuing_delay()
                    }
                };
                stats.series_hist.record(elapsed_nanos(t_probe));
                q
            })
            .filter(|s| !s.is_empty())
            .collect();
        drop(span);
        stats.series_nanos = elapsed_nanos(t);

        let t = Instant::now();
        let span = trace::span("aggregate");
        let aggregated = aggregate_median(&probe_series, &period, cfg.bin, cfg.min_probes_per_bin);
        drop(span);
        stats.aggregate_nanos = elapsed_nanos(t);

        let enough_probes = probe_series.len() >= cfg.min_probes;
        let t = Instant::now();
        let span = trace::span("detect");
        let detection = if enough_probes {
            aggregated
                .contiguous_with_stats()
                .and_then(|(signal, interpolated)| {
                    stats.bins_interpolated = interpolated;
                    detect(&signal, cfg.bin).ok()
                })
        } else {
            None
        };
        drop(span);
        stats.welch_segments = detection.as_ref().map(|d| d.segments as u64).unwrap_or(0);
        stats.detect_nanos = elapsed_nanos(t);

        PopulationAnalysis {
            probe_series,
            aggregated,
            detection,
            enough_probes,
            stats,
            built_series,
        }
    }
}

fn elapsed_nanos(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The result of analysing one probe population over one period.
#[derive(Clone, Debug)]
pub struct PopulationAnalysis {
    /// Per-probe queuing-delay series (probes that survived filtering).
    pub probe_series: Vec<QueuingDelaySeries>,
    /// The population-median aggregated signal.
    pub aggregated: AggregatedSignal,
    /// Detection outcome; `None` when the population is too small or the
    /// signal too sparse to analyse.
    pub detection: Option<Detection>,
    /// Whether the population met the minimum probe count.
    pub enough_probes: bool,
    /// Counters and stage timings from this analysis.
    pub stats: PopulationStats,
    /// Median series of every probe, binned or kept, in probe order,
    /// retained only when [`AsPipeline::retain_median_series`] was
    /// enabled (for insertion into a series store, or reuse by a later
    /// analysis: see [`AsPipeline::finish_in_with`]); empty otherwise.
    pub built_series: Vec<BuiltSeries>,
}

impl PopulationAnalysis {
    /// The congestion class ([`CongestionClass::None`] when no detection
    /// ran — an unanalysable AS is simply not reported, as in the paper).
    pub fn class(&self) -> CongestionClass {
        self.detection
            .as_ref()
            .map(|d| d.class)
            .unwrap_or(CongestionClass::None)
    }

    /// Probes contributing data.
    pub fn probes_used(&self) -> usize {
        self.probe_series.len()
    }

    /// Fraction of contributing probes whose own queuing delay exceeds
    /// `threshold_ms` in at least `fraction_of_bins` of their bins — the
    /// §2.2 per-probe view ("the proportion of probes that experience
    /// daily queuing delay over 5 ms has tripled").
    pub fn fraction_of_probes_above(&self, threshold_ms: f64, fraction_of_bins: f64) -> f64 {
        if self.probe_series.is_empty() {
            return 0.0;
        }
        let hit = self
            .probe_series
            .iter()
            .filter(|s| s.fraction_above(threshold_ms) >= fraction_of_bins)
            .count();
        hit as f64 / self.probe_series.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lastmile_atlas::{Hop, Reply};
    use lastmile_timebase::UnixTime;
    use std::net::IpAddr;

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    fn tr(probe: u32, t: i64, last_mile_ms: f64) -> TracerouteResult {
        TracerouteResult {
            probe: ProbeId(probe),
            msm_id: 5001,
            timestamp: UnixTime::from_secs(t),
            dst: ip("20.9.9.9"),
            src: ip("192.168.1.10"),
            hops: vec![
                Hop {
                    hop: 1,
                    replies: vec![Reply::answered(ip("192.168.1.1"), 1.0); 3],
                },
                Hop {
                    hop: 2,
                    replies: vec![Reply::answered(ip("20.0.0.1"), 1.0 + last_mile_ms); 3],
                },
            ],
        }
    }

    /// Fifteen days, `n_probes`, each with a diurnal last-mile delay of
    /// peak-to-peak `pp` ms on top of a 5 ms base.
    fn feed_diurnal(pipeline: &mut AsPipeline, n_probes: u32, pp: f64) {
        for probe in 1..=n_probes {
            for bin in 0..(15 * 48) {
                let phase = core::f64::consts::TAU * bin as f64 / 48.0;
                let rtt = 5.0 + pp / 2.0 + pp / 2.0 * phase.sin();
                for i in 0..3 {
                    pipeline.ingest(&tr(probe, bin * 1800 + i * 400, rtt));
                }
            }
        }
    }

    fn period_15d() -> TimeRange {
        TimeRange::new(UnixTime::from_secs(0), UnixTime::from_secs(15 * 86_400))
    }

    #[test]
    fn diurnal_population_is_detected() {
        let mut p = AsPipeline::new(PipelineConfig::paper(), period_15d());
        feed_diurnal(&mut p, 5, 2.0);
        let analysis = p.finish();
        assert_eq!(analysis.probes_used(), 5);
        assert!(analysis.enough_probes);
        let d = analysis.detection.as_ref().expect("detection must run");
        assert!(d.prominent_is_daily);
        assert_eq!(analysis.class(), CongestionClass::Mild);
        assert!(
            (d.daily_amplitude_ms - 2.0).abs() < 0.2,
            "{}",
            d.daily_amplitude_ms
        );
    }

    #[test]
    fn flat_population_is_none() {
        let mut p = AsPipeline::new(PipelineConfig::paper(), period_15d());
        feed_diurnal(&mut p, 4, 0.0);
        let analysis = p.finish();
        assert_eq!(analysis.class(), CongestionClass::None);
    }

    #[test]
    fn too_few_probes_skip_detection() {
        let mut p = AsPipeline::new(PipelineConfig::paper(), period_15d());
        feed_diurnal(&mut p, 2, 3.0);
        let analysis = p.finish();
        assert!(!analysis.enough_probes);
        assert!(analysis.detection.is_none());
        assert_eq!(analysis.class(), CongestionClass::None);
    }

    #[test]
    fn finish_reports_population_stats() {
        let mut p = AsPipeline::new(PipelineConfig::paper(), period_15d());
        feed_diurnal(&mut p, 5, 2.0);
        p.ingest(&tr(1, -100, 5.0)); // outside the period
        p.ingest(&tr(9, 0, 5.0)); // only two traceroutes in probe 9's
        p.ingest(&tr(9, 400, 5.0)); // single bin: sanity filter discards
        let analysis = p.finish();
        let s = analysis.stats;
        assert_eq!(s.traceroutes_ingested, 5 * 720 * 3 + 3);
        assert_eq!(s.traceroutes_out_of_period, 1);
        assert_eq!(s.bins_discarded_sanity, 1);
        assert_eq!(s.bins_interpolated, 0, "feed has full coverage");
        assert!(s.welch_segments > 0, "detection ran");
        assert_eq!(
            s.series_hist.count(),
            6,
            "one series-build latency sample per probe fed"
        );
    }

    #[test]
    fn merged_pipelines_analyse_as_one() {
        // One feed, split record by record across three pipelines that
        // are then merged: the analysis and counters of one pipeline fed
        // everything.
        let mut records = Vec::new();
        for probe in 1..=4 {
            for bin in 0..(15 * 48) {
                let phase = core::f64::consts::TAU * bin as f64 / 48.0;
                let rtt = 5.0 + 1.0 + phase.sin();
                records.extend((0..3).map(|i| tr(probe, bin * 1800 + i * 400, rtt)));
            }
        }
        records.push(tr(1, -100, 5.0));
        let mut whole = AsPipeline::new(PipelineConfig::paper(), period_15d());
        let mut parts: Vec<AsPipeline> = (0..3)
            .map(|_| AsPipeline::new(PipelineConfig::paper(), period_15d()))
            .collect();
        for (i, record) in records.iter().enumerate() {
            whole.ingest(record);
            parts[i % 3].ingest(record);
        }
        let mut merged = parts.remove(0);
        for part in parts {
            merged.merge(part);
        }
        let (merged, whole) = (merged.finish(), whole.finish());
        assert_eq!(merged.aggregated, whole.aggregated);
        assert_eq!(merged.probe_series, whole.probe_series);
        assert_eq!(merged.stats.traceroutes_ingested, records.len() as u64);
        assert_eq!(merged.stats.traceroutes_out_of_period, 1);
        assert_eq!(
            merged.stats.bins_discarded_sanity,
            whole.stats.bins_discarded_sanity
        );
        assert_eq!(
            merged.detection.map(|d| d.daily_amplitude_ms),
            whole.detection.map(|d| d.daily_amplitude_ms)
        );
    }

    #[test]
    fn extra_rows_analyse_as_fed_and_are_not_kept() {
        // Extra rows for a fed probe, a new probe and outside the period:
        // the analysis of one pipeline fed them, and the pipeline after
        // is as before.
        let mut p = AsPipeline::new(PipelineConfig::paper(), period_15d());
        feed_diurnal(&mut p, 3, 2.0);
        let before = p.finish();
        let extra: Vec<TracerouteResult> = (0..3)
            .flat_map(|i| [tr(1, 5 + i * 400, 9.0), tr(7, 3600 + i * 400, 4.0)])
            .chain([tr(2, -100, 5.0)])
            .collect();
        let rows: Vec<LastMile> = extra.iter().map(LastMile::of).collect();
        let with = p.finish_in_with(period_15d(), &rows, []);
        let mut fed = AsPipeline::new(PipelineConfig::paper(), period_15d());
        feed_diurnal(&mut fed, 3, 2.0);
        extra.iter().for_each(|t| fed.ingest(t));
        let fed = fed.finish();
        assert_eq!(with.probe_series, fed.probe_series);
        assert_eq!(with.aggregated, fed.aggregated);
        assert_eq!(with.probes_used(), 4);
        assert_eq!(with.stats.traceroutes_ingested, 3 * 720 * 3 + 7);
        assert_eq!(with.stats.traceroutes_out_of_period, 1);
        let after = p.finish();
        assert_eq!(after.probe_series, before.probe_series);
        assert_eq!(after.stats.traceroutes_ingested, 3 * 720 * 3);
    }

    #[test]
    fn reused_series_analyse_like_a_full_build() {
        let mut p = AsPipeline::new(PipelineConfig::paper(), period_15d());
        p.retain_median_series(true);
        feed_diurnal(&mut p, 4, 2.0);
        let first = p.finish();
        assert_eq!(first.stats.probes_binned, 4);
        // Probe 2 is fed more, and a tail row reaches probe 3: only they
        // are binned again; probes 1 and 4 reuse their series.
        (0..3).for_each(|i| p.ingest(&tr(2, 86_400 + i * 400, 9.0)));
        let extra = [LastMile::of(&tr(3, 7_200, 4.0))];
        let earlier = first
            .built_series
            .iter()
            .filter(|b| b.series.probe() != ProbeId(2));
        let reused = p.finish_in_with(period_15d(), &extra, earlier);
        let full = p.finish_in_with(period_15d(), &extra, []);
        assert_eq!(reused.stats.probes_binned, 2);
        assert_eq!(full.stats.probes_binned, 4);
        assert_eq!(reused.probe_series, full.probe_series);
        assert_eq!(reused.aggregated, full.aggregated);
        assert_eq!(reused.built_series, full.built_series);
        assert_eq!(
            reused.stats.bins_discarded_sanity,
            full.stats.bins_discarded_sanity
        );
        assert_ne!(reused.probe_series, first.probe_series);
    }

    #[test]
    fn kept_series_analyse_like_a_full_build() {
        // Probe 9 has a bin the sanity filter discards.
        let feed = |p: &mut AsPipeline| {
            feed_diurnal(p, 4, 2.0);
            p.ingest(&tr(9, 0, 5.0));
            p.ingest(&tr(9, 400, 5.0));
            for bin in 1..(15 * 48) {
                (0..3).for_each(|i| p.ingest(&tr(9, bin * 1800 + i * 400, 6.0)));
            }
        };
        let retained = || {
            let mut p = AsPipeline::new(PipelineConfig::paper(), period_15d());
            p.retain_median_series(true);
            p
        };
        let mut earlier = retained();
        feed(&mut earlier);
        let earlier = earlier.finish();
        let extra: Vec<LastMile> = (0..3)
            .map(|i| LastMile::of(&tr(3, 7_200 + i * 400, 4.0)))
            .collect();
        let mut full = retained();
        feed(&mut full);
        extra.iter().for_each(|row| full.ingest_row(row));
        let full = full.finish();

        // Probe 9 is never fed and comes only as a kept series, as a
        // store hit does; probe 1 is fed and kept, as a memo's is; probe
        // 3 is fed and kept, but `extra` reaches it. Probes 2, 3 and 4
        // are binned.
        let mut p = retained();
        feed_diurnal(&mut p, 4, 2.0);
        let kept = earlier
            .built_series
            .iter()
            .filter(|b| [1, 3, 9].contains(&b.series.probe().0));
        let with = p.finish_in_with(period_15d(), &extra, kept);
        assert_eq!(with.stats.probes_binned, 3);
        assert_eq!(with.probe_series, full.probe_series);
        assert_eq!(with.aggregated, full.aggregated);
        assert_eq!(with.built_series, full.built_series);
        assert_eq!(with.built_series.len(), 5);
        assert_eq!(
            with.stats.bins_discarded_sanity,
            full.stats.bins_discarded_sanity
        );
        assert_eq!(full.stats.bins_discarded_sanity, 1);
        assert_eq!(
            with.stats.series_hist.count(),
            full.stats.series_hist.count()
        );
        assert_ne!(with.probe_series, earlier.probe_series, "extra shows");
    }

    #[test]
    fn out_of_period_traceroutes_are_dropped() {
        let mut p = AsPipeline::new(PipelineConfig::paper(), period_15d());
        p.ingest(&tr(1, -100, 5.0));
        p.ingest(&tr(1, 16 * 86_400, 5.0));
        assert_eq!(p.ignored_out_of_period(), 2);
        assert_eq!(p.probe_count(), 0);
    }

    #[test]
    fn open_bounds_closed_at_finish_match_a_known_period() {
        // Feed 15 days, plus a stray beyond each bounded side, and close
        // the period only at finish.
        let period = period_15d();
        let mut known = AsPipeline::new(PipelineConfig::paper(), period);
        feed_diurnal(&mut known, 4, 2.0);
        let known = known.finish();
        for (start, end) in [
            (None, None),
            (Some(period.start()), None),
            (None, Some(period.end())),
            (Some(period.start()), Some(period.end())),
        ] {
            let mut open = AsPipeline::with_bounds(PipelineConfig::paper(), start, end);
            feed_diurnal(&mut open, 4, 2.0);
            // A bounded side drops its stray while streaming. (An open
            // side never sees one: the caller closes it at the data span.)
            if start.is_some() {
                open.ingest(&tr(1, -100, 5.0));
            }
            if end.is_some() {
                open.ingest(&tr(2, 15 * 86_400, 5.0));
            }
            let strays = u64::from(start.is_some()) + u64::from(end.is_some());
            let open = open.finish_in(period);
            assert_eq!(open.aggregated, known.aggregated, "{start:?}..{end:?}");
            assert_eq!(open.stats.traceroutes_out_of_period, strays);
            assert_eq!(
                open.stats.traceroutes_ingested,
                known.stats.traceroutes_ingested + strays
            );
            assert_eq!(
                open.stats.bins_discarded_sanity,
                known.stats.bins_discarded_sanity
            );
            assert_eq!(
                open.detection.map(|d| d.daily_amplitude_ms),
                known.detection.as_ref().map(|d| d.daily_amplitude_ms)
            );
        }
    }

    #[test]
    #[should_panic(expected = "excludes traceroutes")]
    fn closing_a_period_that_excludes_fed_traceroutes_panics() {
        let mut p = AsPipeline::with_bounds(PipelineConfig::paper(), None, None);
        p.ingest(&tr(1, 100, 5.0));
        p.finish_in(TimeRange::new(
            UnixTime::from_secs(200),
            UnixTime::from_secs(300),
        ));
    }

    #[test]
    #[should_panic(expected = "moves a bound")]
    fn closing_a_period_that_moves_a_streamed_bound_panics() {
        let p =
            AsPipeline::with_bounds(PipelineConfig::paper(), Some(UnixTime::from_secs(0)), None);
        p.finish_in(TimeRange::new(
            UnixTime::from_secs(10),
            UnixTime::from_secs(300),
        ));
    }

    #[test]
    fn empty_pipeline_finishes_cleanly() {
        let analysis = AsPipeline::new(PipelineConfig::paper(), period_15d()).finish();
        assert_eq!(analysis.probes_used(), 0);
        assert!(analysis.detection.is_none());
        assert_eq!(analysis.class(), CongestionClass::None);
        assert_eq!(analysis.fraction_of_probes_above(5.0, 0.1), 0.0);
    }

    #[test]
    fn probes_above_threshold_fraction() {
        let mut p = AsPipeline::new(PipelineConfig::paper(), period_15d());
        // Three quiet probes, one severely congested.
        feed_diurnal(&mut p, 3, 0.2);
        for bin in 0..(15 * 48) {
            let phase = core::f64::consts::TAU * bin as f64 / 48.0;
            let rtt = 5.0 + 6.0 + 6.0 * phase.sin(); // pp = 12ms
            for i in 0..3 {
                p.ingest(&tr(99, bin * 1800 + i * 400, rtt));
            }
        }
        let analysis = p.finish();
        // Exactly 1 of 4 probes spends >10% of bins above 5 ms.
        let f = analysis.fraction_of_probes_above(5.0, 0.1);
        assert!((f - 0.25).abs() < 1e-12, "{f}");
        // And the aggregate stays quiet: majority rules.
        assert_eq!(analysis.class(), CongestionClass::None);
    }
}
