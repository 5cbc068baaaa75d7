//! Figure 5: aggregated last-mile queuing delay for the three major
//! Tokyo eyeball networks, September 19–26 2019, with markers on daily
//! maxima.
//!
//! Output: `results/fig5.csv` (time series) and
//! `results/fig5_maxima.csv` (daily maxima).

use crate::common::{analyze_many, Ctx};
use lastmile_repro::core::pipeline::PipelineConfig;
use lastmile_repro::netsim::scenarios::tokyo::*;
use lastmile_repro::runner::ProbeSelection;
use lastmile_repro::timebase::{CivilDateTime, MeasurementPeriod};

pub fn run(ctx: &Ctx) {
    let world = tokyo_world(ctx.seed);
    let period = MeasurementPeriod::tokyo_cdn_2019();
    let isps = [
        ("ISP_A", ISP_A_ASN),
        ("ISP_B", ISP_B_ASN),
        ("ISP_C", ISP_C_ASN),
    ];
    let jobs: Vec<_> = isps
        .iter()
        .map(|&(_, asn)| (asn, period, ProbeSelection::in_area("Tokyo")))
        .collect();
    eprintln!("[fig5] analysing the Tokyo populations...");
    let analyses = analyze_many(ctx.threads, &world, &jobs, &PipelineConfig::paper());

    let mut rows = Vec::new();
    let mut max_rows = Vec::new();
    println!(
        "Figure 5 — aggregated queuing delay in Tokyo ({})\n",
        period.label()
    );
    println!(
        "{:<8} {:>7} {:>12} {:>14}",
        "ISP", "probes", "peak (ms)", "daily maxima"
    );
    for ((name, _), analysis) in isps.iter().zip(&analyses) {
        for (t, v) in analysis.aggregated.iter() {
            if let Some(v) = v {
                rows.push(format!("{name},{},{v:.4}", t.as_secs()));
            }
        }
        let maxima = analysis.aggregated.daily_maxima();
        for (day, v) in &maxima {
            max_rows.push(format!(
                "{name},{},{v:.4}",
                CivilDateTime::from_unix(*day).date
            ));
        }
        let maxima_str: Vec<String> = maxima.iter().map(|(_, v)| format!("{v:.1}")).collect();
        println!(
            "{:<8} {:>7} {:>10.2}ms   [{}]",
            name,
            analysis.probes_used(),
            analysis.aggregated.max().unwrap_or(0.0),
            maxima_str.join(", "),
        );
    }
    ctx.write_csv("fig5.csv", "isp,unix_time,agg_queuing_ms", &rows);
    ctx.write_csv("fig5_maxima.csv", "isp,date,daily_max_ms", &max_rows);
    println!("\npaper's shape: ISP_A (8 probes) and ISP_B (5 probes) rise to several ms at");
    println!("peak hours every day; ISP_C (8 probes) stays an order of magnitude lower.");
}
