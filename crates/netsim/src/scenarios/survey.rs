//! The §3 survey scenario: 646 ASes, 98 countries (Figures 3 and 4).
//!
//! Ground-truth targets, straight from the paper:
//!
//! * ~90% of monitored ASes classify **None**; on average **47** ASes per
//!   period are reported (prominent daily pattern with amplitude > 0.5 ms);
//! * among ASes with a prominent *daily* component, the amplitude CDF
//!   splits ~83% < 0.5 ms / ~7% in 0.5–1 / ~6% in 1–3 / ~4% > 3 (Fig. 3);
//! * other ASes' prominent frequencies spread across the spectrum (noise);
//! * congestion concentrates in large eyeballs (top-1000 APNIC ranks,
//!   Fig. 4); Japan holds the most Severe reports (~18% over two years),
//!   then the U.S. (~8%); of Japan's top-10 eyeballs, 5 are reported at
//!   least once and 3 constantly;
//! * under COVID-19 (April 2020) the number of reported ASes grows ~55%
//!   (45 → 70 in the paper) — modeled as a cohort of borderline ASes whose
//!   lockdown factor pushes them over the reporting threshold.
//!
//! The generator plants classes per AS with amplitudes drawn inside each
//! class band (borderline values produce the period-to-period churn §3.1
//! reports), assigns countries and APNIC-style ranks with the paper's
//! biases, and sizes probe counts by rank (every AS hosts ≥ 3 probes, the
//! paper's inclusion threshold).

use crate::demand::DiurnalProfile;
use crate::isp::IspConfig;
use crate::rng;
use crate::scenarios::{AsGroundTruth, GroundTruthClass, LOCKDOWN_WIDENING_GAIN};
use crate::world::{ProbeSpec, World};
use crate::AccessTech;
use lastmile_prefix::Asn;
use lastmile_timebase::{MeasurementPeriod, TzOffset};

/// The 98 monitored countries (ISO 3166-1 alpha-2).
pub const COUNTRIES: [&str; 98] = [
    "JP", "US", "DE", "GB", "FR", "NL", "RU", "IT", "ES", "SE", "CH", "BE", "AT", "PL", "CZ", "DK",
    "NO", "FI", "IE", "PT", "GR", "HU", "RO", "BG", "HR", "SI", "SK", "LT", "LV", "EE", "UA", "BY",
    "RS", "TR", "IL", "SA", "AE", "IN", "CN", "KR", "TW", "HK", "SG", "MY", "TH", "VN", "ID", "PH",
    "AU", "NZ", "CA", "MX", "BR", "AR", "CL", "CO", "PE", "VE", "UY", "EC", "ZA", "EG", "MA", "TN",
    "KE", "NG", "GH", "SN", "CI", "TZ", "IS", "LU", "MT", "CY", "AL", "MK", "BA", "ME", "MD", "GE",
    "AM", "AZ", "KZ", "UZ", "KG", "MN", "NP", "LK", "BD", "PK", "IR", "IQ", "JO", "LB", "KW", "QA",
    "OM", "BH",
];

/// The fewest ASes a survey may have: below it the scaled class counts
/// cannot plant every class.
pub const MIN_SURVEY_ASES: usize = 20;

/// Survey generation parameters.
#[derive(Clone, Debug)]
pub struct SurveyConfig {
    /// World seed.
    pub seed: u64,
    /// Number of monitored ASes (paper: 646, at least
    /// [`MIN_SURVEY_ASES`]). Class counts scale with it.
    pub n_ases: usize,
    /// Cap on probes per AS (simulation cost control; every AS keeps the
    /// paper's ≥ 3 minimum).
    pub max_probes_per_as: usize,
}

impl SurveyConfig {
    /// The paper-scale survey: 646 ASes.
    pub fn paper_scale(seed: u64) -> SurveyConfig {
        SurveyConfig {
            seed,
            n_ases: 646,
            max_probes_per_as: 20,
        }
    }

    /// A reduced survey for tests: same structure, fewer ASes.
    pub fn test_scale(seed: u64, n_ases: usize) -> SurveyConfig {
        SurveyConfig {
            seed,
            n_ases,
            max_probes_per_as: 6,
        }
    }
}

/// A built survey world plus its planted ground truth.
pub struct SurveyScenario {
    /// The simulated Internet.
    pub world: World,
    /// Per-AS ground truth, in AS order.
    pub ground_truth: Vec<AsGroundTruth>,
}

impl SurveyScenario {
    /// Ground truth for an ASN.
    pub fn truth_for(&self, asn: Asn) -> Option<&AsGroundTruth> {
        self.ground_truth.iter().find(|g| g.asn == asn)
    }

    /// Number of ASes the paper would report in normal times.
    pub fn expected_reported(&self) -> usize {
        self.ground_truth
            .iter()
            .filter(|g| g.class.is_reported())
            .count()
    }

    /// Number of ASes the paper would report during the lockdown.
    pub fn expected_reported_lockdown(&self) -> usize {
        self.ground_truth
            .iter()
            .filter(|g| g.lockdown_class.is_reported())
            .count()
    }
}

/// Plant one AS's class given its index within the survey.
struct Plan {
    class: GroundTruthClass,
    lockdown_class: GroundTruthClass,
    amplitude: f64,
    lockdown_factor: f64,
    country: &'static str,
    rank: u32,
}

/// Build the survey world. The lockdown window is April 2020.
pub fn survey_world(cfg: &SurveyConfig) -> SurveyScenario {
    assert!(
        cfg.n_ases >= MIN_SURVEY_ASES,
        "survey needs at least {MIN_SURVEY_ASES} ASes to be meaningful"
    );
    let n = cfg.n_ases;
    let scale = n as f64 / 646.0;
    // Paper-derived class counts at 646 ASes (see module docs).
    let n_severe = ((11.0 * scale).round() as usize).max(1);
    let n_mild = ((17.0 * scale).round() as usize).max(1);
    let n_low = ((20.0 * scale).round() as usize).max(1);
    let n_weak = ((232.0 * scale).round() as usize).max(2);
    // COVID cohort: enough WeakDaily ASes cross the threshold to lift the
    // reported count by ~55%.
    let n_covid_crossers = (((n_severe + n_mild + n_low) as f64) * 0.55).round() as usize;

    let mut plans: Vec<Plan> = Vec::with_capacity(n);
    let u = |i: usize, tag: u64| rng::unit_f64(cfg.seed, &[i as u64, tag, 0x50AB]);

    for i in 0..n {
        let (class, amplitude) = if i < n_severe {
            (GroundTruthClass::Severe, 3.3 + 8.0 * u(i, 1))
        } else if i < n_severe + n_mild {
            (GroundTruthClass::Mild, 1.15 + 1.6 * u(i, 1))
        } else if i < n_severe + n_mild + n_low {
            (GroundTruthClass::Low, 0.56 + 0.38 * u(i, 1))
        } else if i < n_severe + n_mild + n_low + n_weak {
            (GroundTruthClass::WeakDaily, 0.06 + 0.33 * u(i, 1))
        } else {
            (GroundTruthClass::NoDaily, 0.0)
        };

        // COVID behaviour: the first `n_covid_crossers` WeakDaily ASes are
        // pushed into a reported class; already-reported ASes intensify.
        // Net lockdown severity targets; the widening gain of the
        // lockdown demand curve is divided out so the planted target is
        // what the detector measures.
        let weak_idx = i as isize - (n_severe + n_mild + n_low) as isize;
        let (lockdown_class, net_lockdown) = match class {
            GroundTruthClass::Severe | GroundTruthClass::Mild => (class, 1.3 + 0.8 * u(i, 2)),
            GroundTruthClass::Low => (GroundTruthClass::Mild, 1.8 + 0.8 * u(i, 2)),
            GroundTruthClass::WeakDaily if (0..n_covid_crossers as isize).contains(&weak_idx) => {
                // Target a lockdown amplitude in (0.65, 1.65] ms.
                let target = 0.65 + u(i, 2);
                (
                    if target > 1.0 {
                        GroundTruthClass::Mild
                    } else {
                        GroundTruthClass::Low
                    },
                    target / amplitude.max(0.05),
                )
            }
            // Non-crossing weak ASes stay roughly where they are.
            GroundTruthClass::WeakDaily => (class, 0.9 + 0.2 * u(i, 2)),
            GroundTruthClass::NoDaily => (class, 1.0),
        };
        let lockdown_factor = net_lockdown / LOCKDOWN_WIDENING_GAIN;

        let country = pick_country(cfg.seed, i, class);
        let rank = pick_rank(cfg.seed, i, class);
        plans.push(Plan {
            class,
            lockdown_class,
            amplitude,
            lockdown_factor,
            country,
            rank,
        });
    }

    // Guarantee full country coverage: the tail of unreported ASes cycles
    // through all 98 codes so every country is monitored.
    let first_filler = n_severe + n_mild + n_low + n_weak;
    for (j, plan) in plans[first_filler..].iter_mut().enumerate() {
        plan.country = COUNTRIES[j % COUNTRIES.len()];
    }

    let mut b = World::builder(cfg.seed);
    let mut ground_truth = Vec::with_capacity(n);
    for (i, plan) in plans.iter().enumerate() {
        let asn: Asn = 100 + i as Asn;
        let name = format!("AS{asn}");
        let demand = DiurnalProfile {
            peak_hour: 20.0 + 2.0 * u(i, 3),
            peak_width_hours: 2.0 + 1.2 * u(i, 4),
            ..DiurnalProfile::residential()
        };
        let access = match plan.class {
            GroundTruthClass::NoDaily => AccessTech::DedicatedFiber,
            GroundTruthClass::WeakDaily | GroundTruthClass::Low => {
                if u(i, 5) < 0.5 {
                    AccessTech::CableDocsis
                } else {
                    AccessTech::SharedLegacyPppoe
                }
            }
            _ => AccessTech::SharedLegacyPppoe,
        };
        let subscribers = rank_to_population(plan.rank);
        b.add_isp(IspConfig {
            asn,
            name: name.clone(),
            country: plan.country.to_string(),
            tz: country_tz(plan.country),
            access,
            demand,
            peak_queuing_ms: (plan.amplitude * crate::scenarios::peak_delay_per_amplitude(access))
                .max(0.02),
            lockdown_factor: plan.lockdown_factor,
            subscribers,
            mobile: None,
            v6: None,
            peering_peak_ms: 0.0,
            route_shift: None,
            active_window: None,
        });
        let probes = probe_count(plan.rank).min(cfg.max_probes_per_as).max(3);
        b.add_probes(asn, probes, &ProbeSpec::simple().with_old_versions(0.3));
        ground_truth.push(AsGroundTruth {
            asn,
            name,
            country: plan.country.to_string(),
            rank: plan.rank,
            class: plan.class,
            lockdown_class: plan.lockdown_class,
            amplitude_ms: plan.amplitude,
        });
    }

    let world = b.lockdown(MeasurementPeriod::april_2020().range()).build();
    SurveyScenario {
        world,
        ground_truth,
    }
}

/// Country assignment with the paper's biases: Japan leads Severe, the
/// U.S. follows; reported classes spread over many distinct countries.
fn pick_country(seed: u64, i: usize, class: GroundTruthClass) -> &'static str {
    let u = rng::unit_f64(seed, &[i as u64, 0xC0]);
    match class {
        GroundTruthClass::Severe => {
            // ~30% Japan, ~15% US, rest spread.
            if u < 0.30 {
                "JP"
            } else if u < 0.45 {
                "US"
            } else {
                COUNTRIES[2 + (u * 1000.0) as usize % 60]
            }
        }
        GroundTruthClass::Mild | GroundTruthClass::Low => {
            if u < 0.12 {
                "JP"
            } else if u < 0.30 {
                "US"
            } else {
                COUNTRIES[(u * 997.0) as usize % COUNTRIES.len()]
            }
        }
        _ => {
            // Eyeball-heavy countries host more monitored ASes.
            const WEIGHTED: [&str; 12] = [
                "US", "US", "DE", "DE", "GB", "FR", "RU", "NL", "JP", "IT", "BR", "IN",
            ];
            if u < 0.5 {
                WEIGHTED[(u * 2.0 * WEIGHTED.len() as f64) as usize % WEIGHTED.len()]
            } else {
                COUNTRIES[(u * 991.0) as usize % COUNTRIES.len()]
            }
        }
    }
}

/// Rank assignment: congestion concentrates in large eyeballs (Fig. 4).
fn pick_rank(seed: u64, i: usize, class: GroundTruthClass) -> u32 {
    let u = rng::unit_f64(seed, &[i as u64, 0xAA]);
    let span = |lo: f64, hi: f64| (lo + (hi - lo) * u * u) as u32; // skew small
    match class {
        GroundTruthClass::Severe => span(30.0, 900.0),
        GroundTruthClass::Mild => span(50.0, 2_500.0),
        GroundTruthClass::Low => span(80.0, 6_000.0),
        GroundTruthClass::WeakDaily => span(50.0, 20_000.0),
        GroundTruthClass::NoDaily => span(10.0, 50_000.0),
    }
    .max(1)
}

/// APNIC-style population estimate from a rank (Zipf-ish).
fn rank_to_population(rank: u32) -> u64 {
    (2.0e8 / (rank as f64).powf(0.85)).max(500.0) as u64
}

/// Probes hosted by an AS of a given rank (≥ 3, more in large eyeballs).
fn probe_count(rank: u32) -> usize {
    3 + (1200.0 / (rank as f64 + 40.0)).round() as usize
}

/// Timezone of a country (fixed offsets; DST ignored).
pub fn country_tz(country: &str) -> TzOffset {
    match country {
        "JP" | "KR" => TzOffset::hours(9),
        "CN" | "TW" | "HK" | "SG" | "MY" | "PH" | "AU" => TzOffset::hours(8),
        "TH" | "VN" | "ID" => TzOffset::hours(7),
        "IN" | "LK" => TzOffset::seconds(5 * 3600 + 1800),
        "US" | "CA" => TzOffset::hours(-5),
        "MX" => TzOffset::hours(-6),
        "BR" | "AR" | "CL" | "UY" => TzOffset::hours(-3),
        "CO" | "PE" | "EC" => TzOffset::hours(-5),
        "GB" | "IE" | "PT" | "IS" => TzOffset::hours(0),
        "RU" | "TR" | "SA" | "KE" | "IQ" => TzOffset::hours(3),
        "AE" | "OM" | "GE" | "AM" | "AZ" => TzOffset::hours(4),
        "KZ" | "UZ" | "PK" => TzOffset::hours(5),
        "BD" | "KG" => TzOffset::hours(6),
        "MN" => TzOffset::hours(8),
        "NZ" => TzOffset::hours(12),
        "EG" | "ZA" | "GR" | "RO" | "BG" | "FI" | "EE" | "LV" | "LT" | "UA" | "IL" | "JO"
        | "LB" | "CY" | "MD" | "BY" => TzOffset::hours(2),
        _ => TzOffset::hours(1), // central Europe and west Africa default
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_counts() {
        let cfg = SurveyConfig::paper_scale(42);
        assert_eq!(cfg.n_ases, 646);
        let s = survey_world(&SurveyConfig::test_scale(42, 100));
        assert_eq!(s.ground_truth.len(), 100);
        assert_eq!(s.world.ases().len(), 100);
    }

    #[test]
    fn class_mix_scales() {
        let s = survey_world(&SurveyConfig::test_scale(42, 100));
        let count = |c: GroundTruthClass| s.ground_truth.iter().filter(|g| g.class == c).count();
        // 646-scale: 11/17/20/232/366 -> 100-scale: ~2/3/3/36/56.
        assert_eq!(count(GroundTruthClass::Severe), 2);
        assert_eq!(count(GroundTruthClass::Mild), 3);
        assert_eq!(count(GroundTruthClass::Low), 3);
        assert!((30..=42).contains(&count(GroundTruthClass::WeakDaily)));
        let reported = s.expected_reported();
        assert_eq!(reported, 8);
    }

    #[test]
    fn covid_increases_reported_by_about_55_percent() {
        let s = survey_world(&SurveyConfig::paper_scale(42));
        let normal = s.expected_reported() as f64;
        let covid = s.expected_reported_lockdown() as f64;
        let growth = covid / normal - 1.0;
        assert!(
            (0.40..=0.70).contains(&growth),
            "reported {normal} -> {covid} (+{:.0}%)",
            growth * 100.0
        );
    }

    #[test]
    fn every_as_hosts_at_least_three_probes() {
        let s = survey_world(&SurveyConfig::test_scale(7, 60));
        for g in &s.ground_truth {
            assert!(s.world.probes_in(g.asn).count() >= 3, "AS{}", g.asn);
        }
    }

    #[test]
    fn amplitudes_sit_inside_class_bands() {
        let s = survey_world(&SurveyConfig::paper_scale(3));
        for g in &s.ground_truth {
            match g.class {
                GroundTruthClass::Severe => assert!(g.amplitude_ms > 3.0, "{}", g.amplitude_ms),
                GroundTruthClass::Mild => {
                    assert!((1.0..=3.0).contains(&g.amplitude_ms), "{}", g.amplitude_ms)
                }
                GroundTruthClass::Low => {
                    assert!((0.5..=1.0).contains(&g.amplitude_ms), "{}", g.amplitude_ms)
                }
                GroundTruthClass::WeakDaily => {
                    assert!(
                        g.amplitude_ms > 0.0 && g.amplitude_ms < 0.5,
                        "{}",
                        g.amplitude_ms
                    )
                }
                GroundTruthClass::NoDaily => assert_eq!(g.amplitude_ms, 0.0),
            }
        }
    }

    #[test]
    fn japan_leads_severe_assignments() {
        let s = survey_world(&SurveyConfig::paper_scale(42));
        let severe: Vec<_> = s
            .ground_truth
            .iter()
            .filter(|g| g.class == GroundTruthClass::Severe)
            .collect();
        let jp = severe.iter().filter(|g| g.country == "JP").count();
        assert!(jp >= 2, "Japan must hold multiple Severe ASes, got {jp}");
        assert!(jp as f64 / severe.len() as f64 >= 0.15);
    }

    #[test]
    fn congested_classes_have_better_ranks() {
        let s = survey_world(&SurveyConfig::paper_scale(5));
        let mean_rank = |c: GroundTruthClass| {
            let v: Vec<f64> = s
                .ground_truth
                .iter()
                .filter(|g| g.class == c)
                .map(|g| g.rank as f64)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(mean_rank(GroundTruthClass::Severe) < mean_rank(GroundTruthClass::NoDaily));
        // All severe ASes are in the top 1000.
        for g in &s.ground_truth {
            if g.class == GroundTruthClass::Severe {
                assert!(g.rank <= 1000, "severe AS{} at rank {}", g.asn, g.rank);
            }
        }
    }

    #[test]
    fn all_98_countries_are_monitored_at_paper_scale() {
        let s = survey_world(&SurveyConfig::paper_scale(42));
        let mut seen: Vec<&str> = s.ground_truth.iter().map(|g| g.country.as_str()).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 98, "{seen:?}");
    }

    #[test]
    fn determinism() {
        let a = survey_world(&SurveyConfig::test_scale(9, 40));
        let b = survey_world(&SurveyConfig::test_scale(9, 40));
        for (x, y) in a.ground_truth.iter().zip(&b.ground_truth) {
            assert_eq!(x.asn, y.asn);
            assert_eq!(x.class, y.class);
            assert_eq!(x.amplitude_ms, y.amplitude_ms);
            assert_eq!(x.country, y.country);
        }
    }

    #[test]
    #[should_panic(expected = "at least 20")]
    fn tiny_surveys_rejected() {
        let _ = survey_world(&SurveyConfig::test_scale(1, 5));
    }
}
