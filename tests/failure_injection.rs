//! Failure injection: the pipeline must degrade gracefully — never panic,
//! never fabricate detections — under the pathologies real measurement
//! data exhibits.

use lastmile_repro::atlas::{Hop, ProbeId, Reply, TracerouteResult};
use lastmile_repro::cdnlog::{binned_median_throughput, AccessLogRecord, CacheStatus};
use lastmile_repro::core::detect::CongestionClass;
use lastmile_repro::core::pipeline::{AsPipeline, PipelineConfig};
use lastmile_repro::timebase::{BinSpec, TimeRange, UnixTime};
use std::net::IpAddr;

fn ip(s: &str) -> IpAddr {
    s.parse().unwrap()
}

fn period() -> TimeRange {
    TimeRange::new(UnixTime::from_secs(0), UnixTime::from_secs(15 * 86_400))
}

fn good_tr(probe: u32, t: i64, last_mile_ms: f64) -> TracerouteResult {
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
fn pathological_traceroutes_do_not_panic_or_pollute() {
    let mut p = AsPipeline::new(PipelineConfig::paper(), period());

    // A healthy baseline population.
    for probe in 1..=3 {
        for bin in 0..(15 * 48) {
            for i in 0..3 {
                p.ingest(&good_tr(probe, bin * 1800 + i * 400, 5.0));
            }
        }
    }

    // Pathology 1: empty traceroute (no hops at all).
    p.ingest(&TracerouteResult {
        hops: vec![],
        ..good_tr(1, 100, 0.0)
    });

    // Pathology 2: every hop timed out.
    p.ingest(&TracerouteResult {
        hops: vec![
            Hop {
                hop: 1,
                replies: vec![Reply::timeout(); 3],
            },
            Hop {
                hop: 2,
                replies: vec![Reply::timeout(); 3],
            },
        ],
        ..good_tr(1, 200, 0.0)
    });

    // Pathology 3: private-only path (no public hop ever).
    p.ingest(&TracerouteResult {
        hops: vec![
            Hop {
                hop: 1,
                replies: vec![Reply::answered(ip("192.168.1.1"), 0.5); 3],
            },
            Hop {
                hop: 2,
                replies: vec![Reply::answered(ip("10.0.0.1"), 1.0); 3],
            },
        ],
        ..good_tr(2, 300, 0.0)
    });

    // Pathology 4: public from the first hop (no last-mile span).
    p.ingest(&TracerouteResult {
        hops: vec![Hop {
            hop: 1,
            replies: vec![Reply::answered(ip("20.0.0.1"), 0.5); 3],
        }],
        ..good_tr(3, 400, 0.0)
    });

    // Pathology 5: wild RTT outliers in an otherwise sane traceroute.
    p.ingest(&TracerouteResult {
        hops: vec![
            Hop {
                hop: 1,
                replies: vec![Reply::answered(ip("192.168.1.1"), 1.0); 3],
            },
            Hop {
                hop: 2,
                replies: vec![Reply::answered(ip("20.0.0.1"), 90_000.0); 3],
            },
        ],
        ..good_tr(1, 500, 0.0)
    });

    let analysis = p.finish();
    // The flat population classifies None; the garbage changed nothing.
    assert_eq!(analysis.class(), CongestionClass::None);
    assert_eq!(analysis.probes_used(), 3);
    // The outlier traceroute was absorbed by the per-bin median.
    let max = analysis.aggregated.max().unwrap();
    assert!(max < 1.0, "outlier leaked into the aggregate: {max} ms");
}

#[test]
fn probe_that_vanishes_mid_period_is_handled() {
    let mut p = AsPipeline::new(PipelineConfig::paper(), period());
    // Three full-period probes plus one that dies after 3 days.
    for probe in 1..=3 {
        for bin in 0..(15 * 48) {
            for i in 0..3 {
                p.ingest(&good_tr(probe, bin * 1800 + i * 400, 5.0));
            }
        }
    }
    for bin in 0..(3 * 48) {
        for i in 0..3 {
            p.ingest(&good_tr(99, bin * 1800 + i * 400, 5.0));
        }
    }
    let analysis = p.finish();
    assert_eq!(analysis.probes_used(), 4);
    // Detection still runs on the surviving coverage.
    assert!(analysis.detection.is_some());
    assert_eq!(analysis.class(), CongestionClass::None);
}

#[test]
fn population_of_only_unusable_probes_yields_no_detection() {
    let mut p = AsPipeline::new(PipelineConfig::paper(), period());
    // Anchor-like paths only: public first hop, never a last-mile span.
    for probe in 1..=4 {
        for bin in 0..(15 * 48) {
            for i in 0..3 {
                p.ingest(&TracerouteResult {
                    hops: vec![Hop {
                        hop: 1,
                        replies: vec![Reply::answered(ip("20.0.0.1"), 0.5); 3],
                    }],
                    ..good_tr(probe, bin * 1800 + i * 400, 0.0)
                });
            }
        }
    }
    let analysis = p.finish();
    assert_eq!(analysis.probes_used(), 0, "no probe produced samples");
    assert!(analysis.detection.is_none());
    assert_eq!(analysis.class(), CongestionClass::None);
}

#[test]
fn sparse_population_keeps_aggregate_empty() {
    // Every probe reports only one bin in the whole period: coverage is
    // far below the spectral minimum; detection must refuse.
    let mut p = AsPipeline::new(PipelineConfig::paper(), period());
    for probe in 1..=5 {
        for i in 0..3 {
            p.ingest(&good_tr(probe, i * 400, 5.0));
        }
    }
    let analysis = p.finish();
    assert_eq!(analysis.probes_used(), 5);
    assert!(analysis.aggregated.coverage() < 0.01);
    assert!(analysis.detection.is_none());
}

#[test]
fn cdn_records_with_zero_or_negative_duration_are_skipped() {
    let mk = |t: i64, dur: f64| AccessLogRecord {
        client: ip("20.0.0.1"),
        timestamp: UnixTime::from_secs(t),
        bytes: 5_000_000,
        duration_ms: dur,
        cache: CacheStatus::Hit,
    };
    let records = vec![mk(0, 0.0), mk(1, -5.0), mk(2, 1000.0)];
    let series = binned_median_throughput(&records, BinSpec::fifteen_minutes());
    assert_eq!(series.len(), 1);
    assert!(
        (series[0].1 - 40.0).abs() < 1e-9,
        "only the valid record counts"
    );
}

#[test]
fn malformed_atlas_json_is_rejected_not_panicked() {
    use lastmile_repro::atlas::json::{decode_last_mile, decode_with_serde};
    for bad in [
        "",
        "{",
        "[]",
        r#"{"type":"traceroute"}"#,
        r#"{"fw":1,"af":4,"dst_addr":"x","src_addr":"y","from":"z","msm_id":1,"prb_id":1,"timestamp":0,"proto":"ICMP","type":"traceroute","result":[]}"#,
    ] {
        assert!(
            decode_with_serde(bad.as_bytes()).is_err(),
            "{bad:?} must fail to parse"
        );
        assert!(
            decode_last_mile(bad.as_bytes()).is_err(),
            "{bad:?} must fail to parse"
        );
    }
}
