//! # lastmile-core
//!
//! The analysis pipeline of *"Persistent Last-mile Congestion: Not so
//! Uncommon"* (IMC 2020), reimplemented as a library. Starting from raw
//! RIPE-Atlas-style traceroutes it produces per-AS congestion
//! classifications:
//!
//! ```text
//!  traceroutes ──► last-mile RTT samples        (estimator, §2.1)
//!              ──► per-probe 30-min median bins (series, §2.1)
//!              ──► queuing-delay signals        (series, §2.1)
//!              ──► population median aggregate  (aggregate, §2.1)
//!              ──► Welch periodogram + classes  (detect, §2.3)
//!              ──► survey rollups and churn     (report, §3)
//! ```
//!
//! Each stage is usable on its own; [`pipeline`] wires them together for
//! one probe population (an AS, or an AS restricted to a metro area as in
//! the paper's Tokyo case study), and [`report`] aggregates many ASes and
//! periods into the survey statistics of §3. The throughput side of the
//! validation (§4.2–4.3) lives in `lastmile-cdnlog`; [`correlate`]
//! provides the delay-vs-throughput join and Spearman correlation of §4.3.
//!
//! ## Quickstart
//!
//! ```
//! use lastmile_core::pipeline::{AsPipeline, PipelineConfig};
//! use lastmile_core::detect::CongestionClass;
//! use lastmile_atlas::json::decode_last_mile;
//! use lastmile_timebase::{TimeRange, UnixTime};
//!
//! // Decode one Atlas-format record to the row the analysis reads: the
//! // last private hop's RTTs and the first public hop's.
//! let record = br#"{"fw":5080,"af":4,"dst_addr":"193.0.14.129","src_addr":"192.168.1.10",
//!     "from":"20.0.0.55","msm_id":5001,"prb_id":6042,"timestamp":86400,"proto":"ICMP",
//!     "type":"traceroute","result":[
//!     {"hop":1,"result":[{"from":"192.168.1.1","rtt":0.5},{"x":"*"}]},
//!     {"hop":2,"result":[{"from":"20.0.0.1","rtt":5.1},{"from":"20.0.0.1","rtt":4.9}]}]}"#;
//! let row = decode_last_mile(record).unwrap();
//! assert_eq!((row.private_rtts(), row.public_rtts()), (&[0.5][..], &[5.1, 4.9][..]));
//!
//! // Feed it to the pipeline of one probe population.
//! let period = TimeRange::new(UnixTime::from_secs(0), UnixTime::from_secs(15 * 86_400));
//! let mut pipeline = AsPipeline::new(PipelineConfig::paper(), period);
//! pipeline.ingest_row(&row);
//! let analysis = pipeline.finish();
//! // One traceroute is far too little to detect anything: classified
//! // None by convention.
//! assert_eq!(analysis.class(), CongestionClass::None);
//! ```

pub mod aggregate;
pub mod correlate;
pub mod detect;
pub mod estimator;
pub mod hygiene;
pub mod longitudinal;
pub mod pipeline;
pub mod report;
pub mod series;

pub use aggregate::AggregatedSignal;
pub use detect::{detect, CongestionClass, Detection};
pub use estimator::last_mile_samples;
pub use hygiene::{advise, HygieneAdvisory};
pub use pipeline::{AsPipeline, PipelineConfig, PopulationAnalysis};
pub use report::{AsClassification, SurveyReport};
pub use series::{BuiltSeries, ProbeSeries, ProbeSeriesBuilder, QueuingDelaySeries};
