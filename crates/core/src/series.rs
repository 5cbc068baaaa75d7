//! Per-probe time series: binned medians and queuing delay.
//!
//! §2 of the paper, step by step:
//!
//! * "for each probe, we group its traceroutes into 30-minute time-bins
//!   and discard traceroutes in bins that have less than 3 traceroutes" —
//!   the *sanity filter* against disconnected probes
//!   ([`ProbeSeriesBuilder`], which counts traceroutes per bin, not
//!   samples);
//! * "we compute the median RTT per probe in 30-minute time-bins" —
//!   [`ProbeSeries`], the noise filter;
//! * "we subtract the minimum median RTT value from all median RTT values
//!   for each probe. The minimum median RTT is computed separately for
//!   each measurement period" — [`ProbeSeries::queuing_delay`], yielding a
//!   [`QueuingDelaySeries`] whose "lowest point is set to zero and other
//!   values correspond to delay increase in milliseconds".

use lastmile_atlas::{LastMile, ProbeId, TracerouteResult};
use lastmile_stats::median_in_place;
use lastmile_timebase::{BinIndex, BinSpec, UnixTime};
use std::collections::BTreeMap;

/// Accumulates one probe's last-mile rows, to be binned on finish.
///
/// The builder stores columns, not samples: one row per traceroute
/// (its bin and how many private and public RTTs it kept) and one flat
/// RTT column those counts index into. The §2.1 pairwise samples are
/// expanded bin by bin only when the bin's median is computed, so a
/// traceroute costs its RTTs, not the product of them. Builders of one
/// probe filled on different threads merge with
/// [`ProbeSeriesBuilder::absorb`], which moves their columns instead of
/// copying them.
///
/// The columns grow in parts of at most [`PART_ROWS`] rows, each closed
/// at its length: feeding a builder never copies more than one part,
/// and a builder kept alive to take more rows (a live daemon's) holds
/// little unused capacity. A row keeps its bin as a 16-bit offset from
/// its part's first bin and its reply counts as bytes (4 bytes a row).
/// A row too far from that bin starts a new part, and a row of more than
/// 255 private or public replies gets a part of its own that keeps its
/// counts whole: no row is clamped, dropped or moved out of feed order.
#[derive(Clone, Debug)]
pub struct ProbeSeriesBuilder {
    probe: ProbeId,
    bin: BinSpec,
    min_traceroutes: usize,
    /// Column sets in feed order: a new one every [`PART_ROWS`] rows,
    /// per row whose bin offset would not fit, per wide row and the row
    /// after it, per builder absorbed and per
    /// [`ProbeSeriesBuilder::seal`].
    parts: Vec<Columns>,
}

/// Rows per column part of a [`ProbeSeriesBuilder`].
const PART_ROWS: usize = 1024;

#[derive(Clone, Debug, Default)]
struct Columns {
    /// The bin its rows' offsets count from: its first row's.
    base: BinIndex,
    rows: Vec<Row>,
    /// A wide part's one row, binned at `base`: private and public reply
    /// counts too large for a [`Row`]. A wide part has no `rows`.
    wide: Option<[u32; 2]>,
    /// Each row's private RTTs then its public ones, row after row.
    rtts: Vec<f64>,
}

impl Columns {
    /// The offset `bin` is stored at in this part, when the part can take
    /// another row: it is not full or wide, and the offset fits. An empty
    /// part takes its base from `bin`.
    fn offset_of(&mut self, bin: BinIndex) -> Option<i16> {
        if self.rows.len() >= PART_ROWS || self.wide.is_some() {
            return None;
        }
        if self.rows.is_empty() {
            self.base = bin;
        }
        // ±32767 bins: `i16::MIN` is left out, so a reversed feed splits
        // its parts where a forward one does.
        bin.checked_sub(self.base)
            .and_then(|offset| i16::try_from(offset).ok())
            .filter(|&offset| offset != i16::MIN)
    }

    /// Payload bytes: its rows as stored, plus 8 per RTT.
    fn bytes(&self) -> u64 {
        let rows = self.rows.len() * size_of::<Row>();
        let wide = self.wide.map_or(0, |counts| size_of_val(&counts));
        (rows + wide + self.rtts.len() * size_of::<f64>()) as u64
    }
}

/// One traceroute in the columns: 4 bytes.
#[derive(Clone, Copy, Debug)]
struct Row {
    /// Its bin, as an offset from its part's [`Columns::base`].
    bin: i16,
    private: u8,
    public: u8,
}

const _: () = assert!(size_of::<Row>() == 4);

impl ProbeSeriesBuilder {
    /// A builder using the paper's parameters: 30-minute bins, at least 3
    /// traceroutes per bin.
    pub fn paper(probe: ProbeId) -> ProbeSeriesBuilder {
        ProbeSeriesBuilder::new(probe, BinSpec::thirty_minutes(), 3)
    }

    /// A builder with custom binning (used by the ablation benchmarks).
    pub fn new(probe: ProbeId, bin: BinSpec, min_traceroutes: usize) -> ProbeSeriesBuilder {
        ProbeSeriesBuilder {
            probe,
            bin,
            min_traceroutes,
            parts: Vec::new(),
        }
    }

    /// The probe this builder belongs to.
    pub fn probe(&self) -> ProbeId {
        self.probe
    }

    /// Ingest one traceroute: [`ProbeSeriesBuilder::ingest_row`] of its
    /// last-mile row.
    pub fn ingest(&mut self, tr: &TracerouteResult) {
        self.ingest_row(&LastMile::of(tr));
    }

    /// Ingest one traceroute's last-mile row. Rows from other probes are
    /// rejected with a panic (routing them is the caller's job and mixing
    /// probes would corrupt the series silently).
    pub fn ingest_row(&mut self, row: &LastMile) {
        assert_eq!(row.probe, self.probe, "traceroute from wrong probe");
        let bin = self.bin.bin_index(row.timestamp);
        let (private, public) = (row.private, row.rtts.len() - row.private);
        let narrow = u8::try_from(private).ok().zip(u8::try_from(public).ok());
        let offset = narrow
            .and(self.parts.last_mut())
            .and_then(|part| part.offset_of(bin));
        // A full or wide part, or one whose base is too far from this
        // bin, is closed at its length, as is any part before a wide row;
        // the row starts a part based at its bin.
        let offset = offset.unwrap_or_else(|| {
            if let Some(closed) = self.parts.last_mut() {
                closed.rows.shrink_to_fit();
                closed.rtts.shrink_to_fit();
            }
            self.parts.push(Columns {
                base: bin,
                ..Columns::default()
            });
            0
        });
        let part = self.parts.last_mut().expect("a part was just ensured");
        // Every traceroute counts toward the sanity threshold, with or
        // without usable samples: the probe was demonstrably online.
        match narrow {
            Some((private, public)) => part.rows.push(Row {
                bin: offset,
                private,
                public,
            }),
            None => {
                let count = |n: usize| u32::try_from(n).expect("a hop's replies fit in u32");
                part.wide = Some([count(private), count(public)]);
            }
        }
        part.rtts.extend_from_slice(&row.rtts);
    }

    /// Take over `other`'s traceroutes, fed to it after this builder's:
    /// its columns are moved, not copied. Panics unless both builders
    /// are for the same probe with the same binning.
    pub fn absorb(&mut self, other: ProbeSeriesBuilder) {
        assert_eq!(other.probe, self.probe, "builders of different probes");
        assert_eq!(
            (other.bin, other.min_traceroutes),
            (self.bin, self.min_traceroutes),
            "builders with different binning"
        );
        self.parts.extend(other.parts);
    }

    /// Close the columns as they are: rows fed later start a new part.
    /// A builder kept alive to take more rows then never copies, or
    /// doubles, what it already holds.
    pub fn seal(&mut self) {
        if !self.parts.is_empty() {
            self.parts.push(Columns::default());
        }
    }

    /// Payload bytes of the columns: each row as stored (4 bytes, or 8
    /// for a wide row's counts) plus 8 per RTT. Capacity and part
    /// headers are not counted.
    pub fn column_bytes(&self) -> u64 {
        self.parts.iter().map(Columns::bytes).sum()
    }

    /// Apply the sanity filter and compute per-bin medians.
    pub fn finish(&self) -> ProbeSeries {
        self.finish_detailed().series
    }

    /// Like [`ProbeSeriesBuilder::finish`], also counting the bins the
    /// sanity filter discarded (§2's "discard traceroutes in bins that
    /// have less than 3 traceroutes"). The series store keeps that count
    /// with the series, so a hit reports the statistics of a fresh build.
    ///
    /// Rows are grouped by bin with a stable sort, so each bin's samples
    /// come out in feed order, each traceroute's in the order
    /// [`crate::estimator::last_mile_samples`] gives them. The builder
    /// keeps its columns, so a live caller can feed it more rows and
    /// build again.
    pub fn finish_detailed(&self) -> BuiltSeries {
        // (bin, how many RTTs are private, the row's RTTs), feed order,
        // in one buffer of exactly the row count.
        let total = self
            .parts
            .iter()
            .map(|part| part.rows.len() + usize::from(part.wide.is_some()))
            .sum();
        let mut rows: Vec<(BinIndex, u32, &[f64])> = Vec::with_capacity(total);
        for part in &self.parts {
            let mut rtts = &part.rtts[..];
            let narrow = part
                .rows
                .iter()
                .map(|row| (row.bin, u32::from(row.private), u32::from(row.public)));
            let wide = part.wide.map(|[private, public]| (0, private, public));
            rows.extend(narrow.chain(wide).map(|(offset, private, public)| {
                let (own, rest) = rtts.split_at(private as usize + public as usize);
                rtts = rest;
                (part.base + BinIndex::from(offset), private, own)
            }));
        }
        // Stable: parallel ingest leaves a probe's rows in a few runs
        // each in time order, which a stable sort merges in linear time.
        rows.sort_by_key(|&(bin, _, _)| bin);

        let mut medians = BTreeMap::new();
        let mut discarded_bins = 0;
        let mut samples = Vec::new();
        for group in rows.chunk_by(|a, b| a.0 == b.0) {
            let bin = group[0].0;
            if group.len() < self.min_traceroutes {
                discarded_bins += 1; // disconnected probe: discard the whole bin
                continue;
            }
            samples.clear();
            for &(_, private, rtts) in group {
                let (near, far) = rtts.split_at(private as usize);
                for &pu in far {
                    samples.extend(near.iter().map(|&pr| pu - pr));
                }
            }
            if let Some(m) = median_in_place(&mut samples) {
                medians.insert(bin, m);
            }
        }
        BuiltSeries {
            series: ProbeSeries {
                probe: self.probe,
                bin: self.bin,
                medians,
            },
            discarded_bins,
        }
    }
}

/// A built [`ProbeSeries`] together with how many bins the sanity
/// filter discarded: the one value a build returns, the series store
/// holds and a store hit hands back, so a hit reports the statistics of
/// a fresh build.
#[derive(Clone, Debug, PartialEq)]
pub struct BuiltSeries {
    /// The surviving per-bin medians.
    pub series: ProbeSeries,
    /// Bins dropped by the sanity filter (held data, but fewer than the
    /// minimum traceroutes).
    pub discarded_bins: u64,
}

/// One probe's median last-mile RTT per time bin.
#[derive(Clone, Debug, PartialEq)]
pub struct ProbeSeries {
    probe: ProbeId,
    bin: BinSpec,
    medians: BTreeMap<BinIndex, f64>,
}

impl ProbeSeries {
    /// Reassemble a series from its parts (the series store's snapshot
    /// loader uses this; values must be per-bin medians that already
    /// passed the sanity filter).
    pub fn from_parts(
        probe: ProbeId,
        bin: BinSpec,
        medians: BTreeMap<BinIndex, f64>,
    ) -> ProbeSeries {
        ProbeSeries {
            probe,
            bin,
            medians,
        }
    }

    /// The probe.
    pub fn probe(&self) -> ProbeId {
        self.probe
    }

    /// The bin width.
    pub fn bin(&self) -> BinSpec {
        self.bin
    }

    /// Number of bins with a median.
    pub fn len(&self) -> usize {
        self.medians.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.medians.is_empty()
    }

    /// Iterate `(bin start, median RTT)` in time order.
    pub fn iter(&self) -> impl Iterator<Item = (UnixTime, f64)> + '_ {
        self.medians
            .iter()
            .map(|(&b, &v)| (self.bin.index_start(b), v))
    }

    /// Iterate `(bin index, median RTT)` in time order — the raw storage
    /// view used by the series store's snapshot codec.
    pub fn iter_bins(&self) -> impl Iterator<Item = (BinIndex, f64)> + '_ {
        self.medians.iter().map(|(&b, &v)| (b, v))
    }

    /// The minimum median RTT of the period — the propagation-delay
    /// baseline.
    pub fn min_rtt(&self) -> Option<f64> {
        self.medians.values().copied().reduce(f64::min)
    }

    /// Convert to queuing delay: subtract the period minimum.
    ///
    /// Empty series convert to empty series.
    pub fn queuing_delay(&self) -> QueuingDelaySeries {
        let base = self.min_rtt().unwrap_or(0.0);
        QueuingDelaySeries {
            probe: self.probe,
            bin: self.bin,
            values: self.medians.iter().map(|(&b, &v)| (b, v - base)).collect(),
        }
    }
}

/// One probe's estimated last-mile queuing delay per time bin — minimum
/// zero by construction.
#[derive(Clone, Debug, PartialEq)]
pub struct QueuingDelaySeries {
    probe: ProbeId,
    bin: BinSpec,
    values: BTreeMap<BinIndex, f64>,
}

impl QueuingDelaySeries {
    /// The probe.
    pub fn probe(&self) -> ProbeId {
        self.probe
    }

    /// The bin width.
    pub fn bin(&self) -> BinSpec {
        self.bin
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Value at a bin, if present.
    pub fn get(&self, bin: BinIndex) -> Option<f64> {
        self.values.get(&bin).copied()
    }

    /// Iterate `(bin index, queuing delay)` in time order.
    pub fn iter(&self) -> impl Iterator<Item = (BinIndex, f64)> + '_ {
        self.values.iter().map(|(&b, &v)| (b, v))
    }

    /// The maximum queuing delay of the period.
    pub fn max_delay(&self) -> Option<f64> {
        self.values.values().copied().reduce(f64::max)
    }

    /// Fraction of bins exceeding a threshold — the paper's "proportion of
    /// probes that experience daily queuing delay over 5 ms" uses this
    /// per-probe measure.
    pub fn fraction_above(&self, threshold_ms: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.values().filter(|&&v| v > threshold_ms).count() as f64
            / self.values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lastmile_atlas::{Hop, Reply};
    use std::net::IpAddr;

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    /// A traceroute with the given last-mile RTT at time `t`.
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

    #[test]
    fn bins_collect_medians() {
        let mut b = ProbeSeriesBuilder::paper(ProbeId(1));
        // Bin 0: three traceroutes at 5, 6, 100 ms -> median 6.
        b.ingest(&tr(1, 0, 5.0));
        b.ingest(&tr(1, 600, 6.0));
        b.ingest(&tr(1, 1200, 100.0));
        // Bin 1: three traceroutes all at 5 ms.
        for i in 0..3 {
            b.ingest(&tr(1, 1800 + i * 300, 5.0));
        }
        let s = b.finish();
        assert_eq!(s.len(), 2);
        let vals: Vec<f64> = s.iter().map(|(_, v)| v).collect();
        assert_eq!(vals, vec![6.0, 5.0]);
    }

    #[test]
    fn sanity_filter_drops_sparse_bins() {
        let mut b = ProbeSeriesBuilder::paper(ProbeId(1));
        b.ingest(&tr(1, 0, 5.0));
        b.ingest(&tr(1, 600, 5.0)); // only 2 traceroutes in bin 0
        for i in 0..3 {
            b.ingest(&tr(1, 1800 + i * 300, 7.0));
        }
        let s = b.finish();
        assert_eq!(s.len(), 1, "bin with <3 traceroutes must be dropped");
        assert_eq!(s.iter().next().unwrap().1, 7.0);
    }

    #[test]
    fn unusable_traceroutes_count_toward_sanity_threshold() {
        // A traceroute with no last-mile span still proves the probe was
        // online; the bin keeps its remaining samples.
        let mut b = ProbeSeriesBuilder::paper(ProbeId(1));
        b.ingest(&tr(1, 0, 4.0));
        b.ingest(&tr(1, 600, 4.0));
        let no_span = TracerouteResult {
            hops: vec![],
            ..tr(1, 1200, 0.0)
        };
        b.ingest(&no_span);
        let s = b.finish();
        assert_eq!(s.len(), 1);
        assert_eq!(s.iter().next().unwrap().1, 4.0);
    }

    #[test]
    fn queuing_delay_zeroes_the_minimum() {
        let mut b = ProbeSeriesBuilder::paper(ProbeId(1));
        for (bin, rtt) in [(0i64, 5.0), (1, 9.0), (2, 6.5)] {
            for i in 0..3 {
                b.ingest(&tr(1, bin * 1800 + i * 300, rtt));
            }
        }
        let q = b.finish().queuing_delay();
        let vals: Vec<f64> = q.iter().map(|(_, v)| v).collect();
        assert_eq!(vals, vec![0.0, 4.0, 1.5]);
        assert_eq!(q.max_delay(), Some(4.0));
        assert!((q.fraction_above(1.0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn min_rtt_is_period_scoped() {
        // Same probe, two separate builders = two measurement periods with
        // independent baselines (the paper recomputes the minimum per
        // period to absorb deployment changes).
        let mut p1 = ProbeSeriesBuilder::paper(ProbeId(1));
        let mut p2 = ProbeSeriesBuilder::paper(ProbeId(1));
        for i in 0..3 {
            p1.ingest(&tr(1, i * 300, 5.0));
            p2.ingest(&tr(1, 10_000_000 + i * 300, 8.0));
        }
        assert_eq!(p1.finish().min_rtt(), Some(5.0));
        assert_eq!(p2.finish().min_rtt(), Some(8.0));
    }

    #[test]
    fn empty_builder_finishes_empty() {
        let s = ProbeSeriesBuilder::paper(ProbeId(9)).finish();
        assert!(s.is_empty());
        assert_eq!(s.min_rtt(), None);
        let q = s.queuing_delay();
        assert!(q.is_empty());
        assert_eq!(q.max_delay(), None);
        assert_eq!(q.fraction_above(0.0), 0.0);
    }

    #[test]
    fn absorbed_builders_bin_as_one_fed_in_order() {
        // Two halves of one probe's feed, built apart and merged, give
        // the series and discarded bins of one builder fed everything.
        let feed: Vec<TracerouteResult> = (0..40)
            .map(|i| tr(1, i * 250, 5.0 + (i % 7) as f64))
            .collect();
        let mut whole = ProbeSeriesBuilder::paper(ProbeId(1));
        feed.iter().for_each(|t| whole.ingest(t));
        let mut front = ProbeSeriesBuilder::paper(ProbeId(1));
        let mut back = ProbeSeriesBuilder::paper(ProbeId(1));
        for (i, t) in feed.iter().enumerate() {
            if i % 3 == 0 {
                front.ingest(t)
            } else {
                back.ingest(t)
            }
        }
        front.absorb(back);
        assert_eq!(front.finish_detailed(), whole.finish_detailed());
    }

    #[test]
    fn bins_the_same_whatever_the_feed_order_or_part_count() {
        // Three parts' worth of rows in time order, the same rows
        // reversed, and two time-ordered halves absorbed one after the
        // other.
        let feed: Vec<TracerouteResult> = (0..3000)
            .map(|i| tr(1, i * 50, 5.0 + (i % 11) as f64))
            .collect();
        let mut ordered = ProbeSeriesBuilder::paper(ProbeId(1));
        feed.iter().for_each(|t| ordered.ingest(t));
        assert_eq!(ordered.parts.len(), 3);
        let mut reversed = ProbeSeriesBuilder::paper(ProbeId(1));
        feed.iter().rev().for_each(|t| reversed.ingest(t));
        let mut halves = ProbeSeriesBuilder::paper(ProbeId(1));
        let mut odd = ProbeSeriesBuilder::paper(ProbeId(1));
        for (i, t) in feed.iter().enumerate() {
            if i % 2 == 0 {
                halves.ingest(t)
            } else {
                odd.ingest(t)
            }
        }
        halves.absorb(odd);
        let built = ordered.finish_detailed();
        assert_eq!(built.series.len(), 84);
        assert_eq!(reversed.finish_detailed(), built);
        assert_eq!(halves.finish_detailed(), built);
    }

    #[test]
    fn bins_too_far_for_an_offset_start_a_part_and_are_kept() {
        // One-second bins: rows 2^31 and 2^32 bins apart cannot share a
        // part's 16-bit offsets, yet each keeps its own bin.
        let mut b = ProbeSeriesBuilder::new(ProbeId(1), BinSpec::new(1), 1);
        let far = 1i64 << 31;
        for (t, rtt) in [(0, 5.0), (far, 7.0), (2 * far, 6.0), (1, 8.0)] {
            b.ingest(&tr(1, t, rtt));
        }
        assert_eq!(b.parts.len(), 4);
        let bins: Vec<(BinIndex, f64)> = b.finish().iter_bins().collect();
        assert_eq!(bins, vec![(0, 5.0), (1, 8.0), (far, 7.0), (2 * far, 6.0)]);
    }

    #[test]
    fn a_hop_of_many_replies_expands_every_sample() {
        // 300 private replies × 2 public ones: 600 samples, none lost to
        // a narrow count.
        let mut b = ProbeSeriesBuilder::new(ProbeId(1), BinSpec::thirty_minutes(), 1);
        let mut rtts = vec![1.0; 300];
        rtts.extend([2.0, 4.0]);
        b.ingest_row(&LastMile {
            probe: ProbeId(1),
            timestamp: UnixTime::from_secs(0),
            edge: Some(ip("20.0.0.1")),
            rtts,
            private: 300,
        });
        // Samples are 300 × 1.0 and 300 × 3.0: the median is 2.0.
        assert_eq!(b.finish().iter().next().unwrap().1, 2.0);
    }

    /// A last-mile row of probe 1 at `t`: `near.0` private RTTs of
    /// `near.1` ms, then `far.0` public ones of `far.1` ms.
    fn lm(t: i64, near: (usize, f64), far: (usize, f64)) -> LastMile {
        let mut rtts = vec![near.1; near.0];
        rtts.extend(vec![far.1; far.0]);
        LastMile {
            probe: ProbeId(1),
            timestamp: UnixTime::from_secs(t),
            edge: Some(ip("20.0.0.1")),
            rtts,
            private: near.0,
        }
    }

    /// Each part's narrow row count and wide counts, in feed order.
    fn layout(b: &ProbeSeriesBuilder) -> Vec<(usize, Option<[u32; 2]>)> {
        b.parts.iter().map(|p| (p.rows.len(), p.wide)).collect()
    }

    /// The medians `b` must give for `feed`, computed the plain way: group
    /// the rows by bin, drop bins of fewer than the minimum traceroutes,
    /// take every public-minus-private difference and the sorted middle.
    fn assert_reference_medians(b: &ProbeSeriesBuilder, feed: &[LastMile]) {
        let mut bins: BTreeMap<BinIndex, Vec<&LastMile>> = BTreeMap::new();
        for row in feed {
            let bin = b.bin.bin_index(row.timestamp);
            bins.entry(bin).or_default().push(row);
        }
        let mut expected = Vec::new();
        for (bin, rows) in bins {
            if rows.len() < b.min_traceroutes {
                continue;
            }
            let mut samples = Vec::new();
            for row in rows {
                let (near, far) = row.rtts.split_at(row.private);
                for pu in far {
                    for pr in near {
                        samples.push(pu - pr);
                    }
                }
            }
            samples.sort_by(f64::total_cmp);
            let n = samples.len();
            if n > 0 {
                let mid = if n % 2 == 1 {
                    samples[n / 2]
                } else {
                    (samples[n / 2 - 1] + samples[n / 2]) / 2.0
                };
                expected.push((bin, mid));
            }
        }
        let got: Vec<(BinIndex, f64)> = b.finish().iter_bins().collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn offsets_of_32767_bins_share_a_part_and_32768_start_one() {
        // One-second bins from a base of 100000.
        let base = 100_000;
        let row = |t| lm(t, (1, 1.0), (1, 2.0));
        let mut b = ProbeSeriesBuilder::new(ProbeId(1), BinSpec::new(1), 1);
        for t in [base, base + 32_767, base - 32_767] {
            b.ingest_row(&row(t));
        }
        assert_eq!(layout(&b), vec![(3, None)]);
        b.ingest_row(&row(base + 32_768));
        assert_eq!(layout(&b), vec![(3, None), (1, None)]);
        let mut below = ProbeSeriesBuilder::new(ProbeId(1), BinSpec::new(1), 1);
        below.ingest_row(&row(base));
        below.ingest_row(&row(base - 32_768));
        assert_eq!(layout(&below), vec![(1, None), (1, None)]);
        let bins: Vec<BinIndex> = b.finish().iter_bins().map(|(bin, _)| bin).collect();
        assert_eq!(
            bins,
            vec![base - 32_767, base, base + 32_767, base + 32_768]
        );
    }

    #[test]
    fn a_reversed_feed_stays_in_one_part() {
        // 1000 bins in descending order: every offset but the first is
        // negative, and all fit the first row's part.
        let feed: Vec<LastMile> = (0..1000)
            .rev()
            .map(|i| lm(i * 1800, (1, 1.0), (1, 2.0 + (i % 5) as f64)))
            .collect();
        let mut b = ProbeSeriesBuilder::new(ProbeId(1), BinSpec::thirty_minutes(), 1);
        feed.iter().for_each(|row| b.ingest_row(row));
        assert_eq!(layout(&b), vec![(1000, None)]);
        assert_reference_medians(&b, &feed);
    }

    #[test]
    fn counts_past_a_byte_get_a_wide_part_of_one_row() {
        let mut b = ProbeSeriesBuilder::new(ProbeId(1), BinSpec::thirty_minutes(), 1);
        b.ingest_row(&lm(0, (255, 1.0), (255, 2.0)));
        assert_eq!(layout(&b), vec![(1, None)]);
        b.ingest_row(&lm(60, (256, 1.0), (3, 2.0)));
        b.ingest_row(&lm(120, (3, 1.0), (3, 2.0)));
        b.ingest_row(&lm(180, (3, 1.0), (256, 2.0)));
        b.ingest_row(&lm(240, (3, 1.0), (3, 2.0)));
        assert_eq!(
            layout(&b),
            vec![
                (1, None),
                (0, Some([256, 3])),
                (1, None),
                (0, Some([3, 256])),
                (1, None),
            ]
        );
        // 3 narrow rows (the 255-reply one included), 2 wide ones and
        // their RTTs.
        assert_eq!(
            b.column_bytes(),
            3 * 4 + 2 * 8 + (510 + 259 * 2 + 6 * 2) * 8
        );
    }

    #[test]
    fn wide_rows_bin_like_the_plain_method() {
        // Bin 0: a wide row between narrow rows; bin 1: narrow rows then
        // a wide one; bin 2: narrow rows. The wide rows' samples
        // outnumber the rest, so a wide row lost, misread or moved
        // changes the medians.
        let feed = vec![
            lm(0, (3, 1.0), (3, 6.0)),
            lm(100, (3, 1.5), (2, 6.0)),
            lm(200, (256, 1.0), (3, 101.0)),
            lm(300, (3, 1.0), (3, 6.5)),
            lm(1800, (3, 2.0), (3, 7.0)),
            lm(1900, (2, 2.0), (3, 7.5)),
            lm(2000, (3, 2.0), (256, 4.0)),
            lm(3600, (3, 1.0), (3, 5.0)),
            lm(3700, (3, 1.0), (3, 5.5)),
            lm(3800, (3, 1.0), (3, 6.0)),
        ];
        let mut b = ProbeSeriesBuilder::paper(ProbeId(1));
        feed.iter().for_each(|row| b.ingest_row(row));
        assert_reference_medians(&b, &feed);
        let bins: Vec<(BinIndex, f64)> = b.finish().iter_bins().collect();
        assert_eq!(bins, vec![(0, 100.0), (1, 2.0), (2, 4.5)]);

        // A builder that ends in a wide part, absorbed, then fed on.
        let mut whole = ProbeSeriesBuilder::paper(ProbeId(1));
        feed[..6].iter().for_each(|row| whole.ingest_row(row));
        let mut wide = ProbeSeriesBuilder::paper(ProbeId(1));
        wide.ingest_row(&feed[6]);
        whole.absorb(wide);
        feed[7..].iter().for_each(|row| whole.ingest_row(row));
        assert_reference_medians(&whole, &feed);

        // Sealed after a wide part, then fed on.
        let mut sealed = ProbeSeriesBuilder::paper(ProbeId(1));
        feed[..7].iter().for_each(|row| sealed.ingest_row(row));
        sealed.seal();
        feed[7..].iter().for_each(|row| sealed.ingest_row(row));
        assert_reference_medians(&sealed, &feed);
    }

    #[test]
    #[should_panic(expected = "wrong probe")]
    fn rejects_foreign_traceroutes() {
        let mut b = ProbeSeriesBuilder::paper(ProbeId(1));
        b.ingest(&tr(2, 0, 5.0));
    }

    #[test]
    fn custom_bin_width() {
        // 5-minute bins (the ablation case): same data lands in more bins.
        let mut b = ProbeSeriesBuilder::new(ProbeId(1), BinSpec::new(300), 1);
        b.ingest(&tr(1, 0, 5.0));
        b.ingest(&tr(1, 300, 6.0));
        let s = b.finish();
        assert_eq!(s.len(), 2);
    }
}
