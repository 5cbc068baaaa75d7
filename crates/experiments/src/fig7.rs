//! Figure 7: aggregated queuing delay vs throughput scatter for ISP_A and
//! ISP_C, with Spearman's ρ (paper: −0.6 and 0.0) and the ">1 ms delay ⇒
//! low throughput" observation.
//!
//! Output: `results/fig7.csv` (isp, delay, throughput pairs).

use crate::common::{analyze_many, Ctx};
use lastmile_repro::cdnlog::{
    binned_median_throughput, CdnGeneratorConfig, CdnLogGenerator, LogFilter,
};
use lastmile_repro::core::correlate::{
    delay_throughput_rho, join_by_time, max_throughput_above_delay,
};
use lastmile_repro::core::pipeline::PipelineConfig;
use lastmile_repro::netsim::scenarios::tokyo::*;
use lastmile_repro::netsim::ServiceClass;
use lastmile_repro::runner::ProbeSelection;
use lastmile_repro::timebase::{BinSpec, MeasurementPeriod};

pub fn run(ctx: &Ctx) {
    let world = tokyo_world(ctx.seed);
    let period = MeasurementPeriod::tokyo_cdn_2019();
    let cdn = CdnLogGenerator::new(&world, CdnGeneratorConfig::default_tokyo(ctx.seed ^ 0xCD));
    let isps = [("ISP_A", ISP_A_ASN), ("ISP_C", ISP_C_ASN)];
    let jobs: Vec<_> = isps
        .iter()
        .map(|&(_, asn)| (asn, period, ProbeSelection::in_area("Tokyo")))
        .collect();
    eprintln!("[fig7] analysing delay and generating CDN logs...");
    let analyses = analyze_many(ctx.threads, &world, &jobs, &PipelineConfig::paper());

    let mut rows = Vec::new();
    println!("Figure 7 — delay vs throughput\n");
    println!(
        "{:<8} {:>7} {:>9} {:>24}",
        "ISP", "pairs", "rho", "max thpt @ delay>1ms"
    );
    for ((name, asn), analysis) in isps.iter().zip(&analyses) {
        let logs = cdn.generate(*asn, ServiceClass::BroadbandV4, &period.range());
        let filter = LogFilter::paper_broadband();
        let kept: Vec<_> = filter.apply(&logs, world.registry()).cloned().collect();
        let thr = binned_median_throughput(kept.iter(), BinSpec::fifteen_minutes());
        let pairs = join_by_time(&analysis.aggregated, thr);
        for &(d, t) in &pairs {
            rows.push(format!("{name},{d:.4},{t:.3}"));
        }
        let rho = delay_throughput_rho(&pairs).unwrap_or(f64::NAN);
        let above = max_throughput_above_delay(&pairs, 1.0);
        println!(
            "{:<8} {:>7} {:>9.2} {:>20}",
            name,
            pairs.len(),
            rho,
            above
                .map(|v| format!("{v:.1} Mbps"))
                .unwrap_or_else(|| "n/a (never)".into()),
        );
    }
    ctx.write_csv(
        "fig7.csv",
        "isp,agg_queuing_ms,median_throughput_mbps",
        &rows,
    );
    println!("\npaper's shape: ISP_A rho = -0.6 with throughput always low above 1 ms of");
    println!("delay; ISP_C rho = 0.0 (no relationship).");
}
