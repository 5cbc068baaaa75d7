//! `lastmile hygiene`: the §6 advisory for latency-sensitive studies —
//! which hours and probes to avoid per AS.

use crate::classify::analyze_file;
use crate::stats::{emit_stats, wants_stats};
use crate::Flags;
use lastmile_repro::core::hygiene::advise;
use lastmile_repro::obs::{RunMetrics, StageTimer};

pub fn run(flags: &Flags) -> Result<(), String> {
    let threshold: f64 = flags.parsed("threshold")?.unwrap_or(0.5);
    if threshold <= 0.0 {
        return Err("--threshold must be positive".into());
    }
    let metrics = wants_stats(flags).then(RunMetrics::new);
    let run_timer = StageTimer::start();
    let results = analyze_file(flags, flags.required("traceroutes")?, metrics.as_ref())?;
    if let Some(m) = &metrics {
        m.set_wall(&run_timer);
    }
    if results.is_empty() {
        return Err("no analysable traceroutes in the window".into());
    }
    for (asn, analysis) in &results {
        let advisory = advise(analysis, threshold);
        let label = if *asn == 0 {
            "all probes".to_string()
        } else {
            format!("AS{asn}")
        };
        println!("{label}:");
        println!(
            "  persistent congestion : {}",
            if advisory.affected { "YES" } else { "no" }
        );
        if advisory.avoid_hours_utc.is_empty() {
            println!("  avoid hours (UTC)     : none");
        } else {
            let hours: Vec<String> = advisory
                .avoid_hours_utc
                .iter()
                .map(|h| format!("{h:02}"))
                .collect();
            println!("  avoid hours (UTC)     : {}", hours.join(", "));
            println!(
                "  bias if ignored       : +{:.2} ms median inflation",
                advisory.bias_ms
            );
        }
        if advisory.affected_probes.is_empty() {
            println!("  biased probes         : none");
        } else {
            let ids: Vec<String> = advisory
                .affected_probes
                .iter()
                .map(|p| p.0.to_string())
                .collect();
            println!("  biased probes         : {}", ids.join(", "));
        }
        println!();
    }
    println!("recommendation (paper §6): exclude the listed hours and probes from");
    println!("latency-based inferences (geolocation, anycast mapping, SLA baselines).");
    if let Some(m) = &metrics {
        emit_stats(flags, m)?;
    }
    Ok(())
}
