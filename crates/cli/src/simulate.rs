//! `lastmile simulate`: export a scenario's datasets to disk —
//! Atlas-format traceroutes (JSON Lines), probe metadata (JSON), and for
//! the Tokyo scenario the CDN access logs (TSV) — so external tools (or
//! the paper's original pipeline) can be pointed at the simulated data.

use crate::Flags;
use lastmile_repro::atlas::json::write_traceroute;
use lastmile_repro::cdnlog::{CdnGeneratorConfig, CdnLogGenerator};
use lastmile_repro::netsim::scenarios::{anchor, examples, tokyo};
use lastmile_repro::netsim::{ServiceClass, TracerouteEngine, World};
use lastmile_repro::obs::trace;
use lastmile_repro::timebase::{MeasurementPeriod, TimeRange};
use std::io::Write;

pub fn run(flags: &Flags) -> Result<(), String> {
    let scenario = flags.required("scenario")?;
    let out_dir = flags.required("out")?;
    let seed: u64 = flags.parsed("seed")?.unwrap_or(20190919);
    let days: i64 = flags.parsed("days")?.unwrap_or(8);
    if days <= 0 {
        return Err("--days must be positive".into());
    }
    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {out_dir}: {e}"))?;

    let (world, default_period, with_cdn): (World, MeasurementPeriod, bool) = match scenario {
        "tokyo" => (
            tokyo::tokyo_world(seed),
            MeasurementPeriod::tokyo_cdn_2019(),
            true,
        ),
        "fig1" => (
            examples::fig1_world(seed),
            MeasurementPeriod::september_2019(),
            false,
        ),
        "anchor" => (
            anchor::anchor_world(seed),
            MeasurementPeriod::september_2019(),
            false,
        ),
        other => return Err(format!("unknown scenario {other} (tokyo|fig1|anchor)")),
    };
    let window = TimeRange::new(
        default_period.start(),
        (default_period.start() + days * 86_400).min(default_period.end()),
    );

    // Probe metadata.
    let span = trace::span("export_probes");
    let probes: Vec<_> = world.probes().iter().map(|p| p.meta.clone()).collect();
    let probes_path = format!("{out_dir}/probes.json");
    let json = serde_json::to_string_pretty(&probes).expect("probes encode");
    std::fs::write(&probes_path, json).map_err(|e| format!("write {probes_path}: {e}"))?;
    eprintln!("[out] {probes_path} ({} probes)", probes.len());

    // The routing table, for metadata-free classification (--bgp).
    let table_path = format!("{out_dir}/bgp.csv");
    std::fs::write(&table_path, crate::bgp::table_to_csv(world.registry()))
        .map_err(|e| format!("write {table_path}: {e}"))?;
    eprintln!("[out] {table_path}");
    drop(span);

    // Traceroutes as JSON Lines.
    let span = trace::span("export_traceroutes");
    let engine = TracerouteEngine::new(&world);
    let trs_path = format!("{out_dir}/traceroutes.jsonl");
    let count = export_traceroutes(&trs_path, &engine, &window, false)?;
    eprintln!("[out] {trs_path} ({count} traceroutes)");
    drop(span);

    // IPv6 built-ins, when any AS offers an IPv6 service. Kept in a
    // separate file: the paper's delay analysis is per-family (v6 rides
    // IPoE with a different RTT baseline).
    if world.ases().iter().any(|a| a.v6_prefix.is_some()) {
        let _span = trace::span("export_traceroutes_v6");
        let v6_path = format!("{out_dir}/traceroutes_v6.jsonl");
        let v6_count = export_traceroutes(&v6_path, &engine, &window, true)?;
        eprintln!("[out] {v6_path} ({v6_count} traceroutes)");
    }

    // CDN logs for the Tokyo scenario.
    if with_cdn {
        let _span = trace::span("export_cdn");
        let cdn_path = format!("{out_dir}/cdn_access.tsv");
        let file =
            std::fs::File::create(&cdn_path).map_err(|e| format!("create {cdn_path}: {e}"))?;
        let mut w = std::io::BufWriter::new(file);
        let cdn = CdnLogGenerator::new(&world, CdnGeneratorConfig::default_tokyo(seed ^ 0xCD));
        let mut lines = 0usize;
        for asn in [tokyo::ISP_A_ASN, tokyo::ISP_B_ASN, tokyo::ISP_C_ASN] {
            for class in [
                ServiceClass::BroadbandV4,
                ServiceClass::BroadbandV6,
                ServiceClass::Mobile,
            ] {
                for rec in cdn.generate(asn, class, &window) {
                    writeln!(w, "{}", rec.to_tsv())
                        .map_err(|e| format!("write {cdn_path}: {e}"))?;
                    lines += 1;
                }
            }
        }
        w.flush().map_err(|e| format!("flush {cdn_path}: {e}"))?;
        eprintln!("[out] {cdn_path} ({lines} records)");
    }
    Ok(())
}

/// Export every probe's traceroutes over `window` (the IPv6 built-ins
/// when `v6`) to the file `path` as JSON Lines; how many.
fn export_traceroutes(
    path: &str,
    engine: &TracerouteEngine,
    window: &TimeRange,
    v6: bool,
) -> Result<usize, String> {
    let file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
    write_traceroutes(std::io::BufWriter::new(file), engine, window, v6)
        .map_err(|e| format!("write {path}: {e}"))
}

/// [`export_traceroutes`] into `w`, through one reused line buffer. The
/// first write error ends the export and is the one returned.
fn write_traceroutes(
    mut w: impl Write,
    engine: &TracerouteEngine,
    window: &TimeRange,
    v6: bool,
) -> std::io::Result<usize> {
    let mut line = String::new();
    let mut count = 0usize;
    for probe in engine.world().probes() {
        let traceroutes = if v6 {
            engine.probe_traceroutes_v6(probe, window)
        } else {
            engine.probe_traceroutes(probe, window)
        };
        for tr in &traceroutes {
            line.clear();
            write_traceroute(tr, probe.meta.public_addr, &mut line);
            line.push('\n');
            w.write_all(line.as_bytes())?;
        }
        count += traceroutes.len();
    }
    w.flush()?;
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink whose every write fails, with the failure's number.
    struct Failing(u32);

    impl Write for Failing {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            self.0 += 1;
            Err(std::io::Error::other(format!("failure {}", self.0)))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn the_first_write_error_ends_the_export() {
        let world = anchor::anchor_world(1);
        let engine = TracerouteEngine::new(&world);
        let start = MeasurementPeriod::september_2019().start();
        let window = TimeRange::new(start, start + 86_400);
        let mut sink = Failing(0);
        let err = write_traceroutes(&mut sink, &engine, &window, false).unwrap_err();
        assert_eq!(err.to_string(), "failure 1");
        assert_eq!(sink.0, 1, "the export wrote on after its first failure");
    }
}
