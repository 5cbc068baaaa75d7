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
//! use lastmile_atlas::json::parse_traceroutes;
//! use lastmile_timebase::{TimeRange, UnixTime};
//!
//! // Parse Atlas-format JSON (here: an empty array) and feed the pipeline.
//! let traceroutes = parse_traceroutes("[]").unwrap();
//! let period = TimeRange::new(UnixTime::from_secs(0), UnixTime::from_secs(15 * 86_400));
//! let mut pipeline = AsPipeline::new(PipelineConfig::paper(), period);
//! for tr in &traceroutes {
//!     pipeline.ingest(tr);
//! }
//! let analysis = pipeline.finish();
//! // No data -> no detection, classified as None by convention.
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
