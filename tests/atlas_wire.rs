//! Wire-format compatibility: simulated traceroutes survive a round trip
//! through the RIPE Atlas JSON format without changing any analysis
//! result — so the pipeline can be pointed at real Atlas dumps.

use lastmile_repro::atlas::json::to_atlas_json;
use lastmile_repro::atlas::LastMile;
use lastmile_repro::core::pipeline::{AsPipeline, PipelineConfig};
use lastmile_repro::ingest::ingest_slice;
use lastmile_repro::netsim::world::ProbeSpec;
use lastmile_repro::netsim::{IspConfig, TracerouteEngine, World};
use lastmile_repro::timebase::{MeasurementPeriod, TimeRange, TzOffset};

#[test]
fn analysis_is_invariant_under_json_round_trip() {
    let mut b = World::builder(77);
    b.add_isp(IspConfig::legacy_pppoe(
        65001,
        "WIRE",
        "JP",
        TzOffset::JST,
        5.0,
    ));
    b.add_probes(65001, 4, &ProbeSpec::simple());
    let w = b.build();
    let engine = TracerouteEngine::new(&w);
    let period = MeasurementPeriod::september_2019();
    // Use the first 5 days to keep the JSON corpus small.
    let window = TimeRange::new(period.start(), period.start() + 5 * 86_400);

    let mut direct = AsPipeline::new(PipelineConfig::paper(), window);
    let mut json_lines = Vec::new();
    for probe in w.probes() {
        engine.for_each_traceroute(probe, &window, |tr| {
            json_lines.push(to_atlas_json(&tr, probe.meta.public_addr));
            direct.ingest(&tr);
        });
    }
    assert!(
        json_lines.len() > 10_000,
        "corpus size {}",
        json_lines.len()
    );

    // Re-read the whole corpus as one Atlas API array, through the
    // framing and row decoder the CLI runs.
    let corpus = format!("[{}]", json_lines.join(","));
    let mut from_json = AsPipeline::new(PipelineConfig::paper(), window);
    let mut rows = 0;
    let quarantined = ingest_slice(corpus.as_bytes(), |_, _, row: LastMile| {
        from_json.ingest_row(&row);
        rows += 1;
    });
    assert!(quarantined.is_empty(), "corpus must decode");
    assert_eq!(rows, json_lines.len());

    let a = direct.finish();
    let b = from_json.finish();
    assert_eq!(a.probes_used(), b.probes_used());
    let av: Vec<_> = a.aggregated.iter().collect();
    let bv: Vec<_> = b.aggregated.iter().collect();
    assert_eq!(av, bv, "aggregated signals must match bit for bit");
    match (&a.detection, &b.detection) {
        (Some(da), Some(db)) => {
            assert_eq!(da.class, db.class);
            assert_eq!(da.daily_amplitude_ms, db.daily_amplitude_ms);
        }
        (None, None) => {}
        _ => panic!("detection presence differs"),
    }
}

#[test]
fn probe_address_resolves_to_asn_via_registry() {
    // §2.1: when the first public hop is not announced, the probe's own
    // public address resolves the last-mile ASN by longest prefix match.
    let mut b = World::builder(3);
    b.add_isp(IspConfig::clean(65001, "A", "DE", TzOffset::CET));
    b.add_isp(IspConfig::clean(65002, "B", "FR", TzOffset::CET));
    b.add_probes(65001, 3, &ProbeSpec::simple());
    b.add_probes(65002, 3, &ProbeSpec::simple());
    let w = b.build();
    for p in w.probes() {
        assert_eq!(w.registry().asn_of(p.meta.public_addr), Some(p.meta.asn));
        // The edge address also belongs to the same AS (infrastructure).
        assert_eq!(w.registry().asn_of(p.edge), Some(p.meta.asn));
    }
}
