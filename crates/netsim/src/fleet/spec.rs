//! The declarative fleet specification.
//!
//! A [`FleetSpec`] states *what internet to synthesize*: how many ASes of
//! each ground-truth class, how long the measurement window runs, and how
//! many probes each AS hosts. It deliberately carries no randomness — the
//! spec plus a seed fully determine the world (see `build.rs`), which is
//! what makes fleet corpora reproducible and lintable offline.

use lastmile_timebase::{CivilDate, TimeRange};

/// Bounds every spec must satisfy. The Welch detector averages 4-day
/// segments, so anything under 5 days cannot produce a spectral estimate;
/// 60 days keeps worst-case corpus sizes sane.
pub const MIN_DAYS: u32 = 5;
/// Upper bound on the measurement window, days.
pub const MAX_DAYS: u32 = 60;
/// The paper's inclusion threshold: an AS needs ≥ 3 probes.
pub const MIN_PROBES_PER_AS: usize = 3;
/// Upper bound on probes per AS (simulation cost control).
pub const MAX_PROBES_PER_AS: usize = 2000;

/// How many ASes of each class the fleet plants. Every count may be zero;
/// the total must not be.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClassMix {
    /// Persistently congested, daily amplitude > 3 ms.
    pub severe: usize,
    /// Persistently congested, daily amplitude in (1, 3] ms.
    pub mild: usize,
    /// Persistently congested, daily amplitude in (0.5, 1] ms.
    pub low: usize,
    /// Clean fiber eyeballs — no congestion anywhere.
    pub clean: usize,
    /// A short congestion episode inside the window, flat otherwise —
    /// real congestion, but not the paper's *persistent* kind.
    pub transient: usize,
    /// Adversarial: demand peaks only on weekends (weekly periodicity,
    /// no daily component).
    pub adversarial_weekly: usize,
    /// Adversarial: the congested queue sits on the upstream *peering*
    /// link, beyond the ISP edge ("Where in the Internet is
    /// congestion?") — invisible to the last-mile estimator.
    pub adversarial_peering: usize,
    /// Adversarial: a route change steps every RTT from the edge outward
    /// mid-window ("From BGP to RTT and Beyond") — an aperiodic level
    /// shift, not congestion.
    pub adversarial_route_shift: usize,
}

impl ClassMix {
    /// Total ASes across all classes.
    pub fn total(&self) -> usize {
        self.severe
            + self.mild
            + self.low
            + self.clean
            + self.transient
            + self.adversarial_weekly
            + self.adversarial_peering
            + self.adversarial_route_shift
    }

    /// ASes the detector *should* report (persistently congested).
    pub fn expected_reported(&self) -> usize {
        self.severe + self.mild + self.low
    }
}

/// A declarative fleet scenario specification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FleetSpec {
    /// Scenario name (free-form, recorded in the ground-truth sidecar).
    pub name: String,
    /// Measurement window length, days (`MIN_DAYS..=MAX_DAYS`).
    pub days: u32,
    /// Per-class AS counts.
    pub classes: ClassMix,
    /// Minimum probes hosted per AS (≥ `MIN_PROBES_PER_AS`).
    pub probes_min: usize,
    /// Maximum probes hosted per AS (≥ `probes_min`).
    pub probes_max: usize,
}

impl FleetSpec {
    /// A small well-formed spec, useful as a starting point and in tests.
    pub fn example() -> FleetSpec {
        FleetSpec {
            name: "example".to_string(),
            days: 7,
            classes: ClassMix {
                severe: 2,
                mild: 2,
                low: 2,
                clean: 4,
                transient: 1,
                adversarial_weekly: 1,
                adversarial_peering: 2,
                adversarial_route_shift: 2,
            },
            probes_min: 3,
            probes_max: 8,
        }
    }

    /// Validate the spec, returning *all* violations (empty = valid).
    pub fn validate(&self) -> Vec<String> {
        let mut violations = Vec::new();
        if self.name.trim().is_empty() {
            violations.push("name must not be empty".to_string());
        }
        if self.days < MIN_DAYS {
            violations.push(format!(
                "days {} below minimum {MIN_DAYS} (the Welch detector needs 4-day segments)",
                self.days
            ));
        }
        if self.days > MAX_DAYS {
            violations.push(format!("days {} above maximum {MAX_DAYS}", self.days));
        }
        if self.classes.total() == 0 {
            violations.push("classes are all zero: the fleet would be empty".to_string());
        }
        if self.probes_min < MIN_PROBES_PER_AS {
            violations.push(format!(
                "probes_min {} below the paper's ≥ {MIN_PROBES_PER_AS} inclusion threshold",
                self.probes_min
            ));
        }
        if self.probes_max < self.probes_min {
            violations.push(format!(
                "probes_max {} below probes_min {}",
                self.probes_max, self.probes_min
            ));
        }
        if self.probes_max > MAX_PROBES_PER_AS {
            violations.push(format!(
                "probes_max {} above maximum {MAX_PROBES_PER_AS}",
                self.probes_max
            ));
        }
        violations
    }

    /// The measurement window: `days` days from Sunday 2019-09-01 UTC
    /// midnight. Anchoring at a day-aligned instant guarantees any
    /// window ≥ 7 days contains a weekend — which the weekly-only
    /// adversarial ASes need.
    pub fn window(&self) -> TimeRange {
        let start = CivilDate::new(2019, 9, 1).midnight();
        TimeRange::new(start, start + i64::from(self.days) * 86_400)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_is_valid() {
        assert!(FleetSpec::example().validate().is_empty());
    }

    #[test]
    fn all_violations_are_collected() {
        let spec = FleetSpec {
            name: "  ".to_string(),
            days: 2,
            classes: ClassMix::default(),
            probes_min: 1,
            probes_max: 0,
        };
        let v = spec.validate();
        assert!(v.len() >= 4, "{v:?}");
        assert!(v.iter().any(|m| m.contains("name")));
        assert!(v.iter().any(|m| m.contains("Welch")));
        assert!(v.iter().any(|m| m.contains("empty")));
        assert!(v.iter().any(|m| m.contains("inclusion threshold")));
    }

    #[test]
    fn window_is_day_aligned_and_sized() {
        let spec = FleetSpec::example();
        let w = spec.window();
        assert_eq!(w.duration_secs(), 7 * 86_400);
        assert_eq!(w.start().as_secs() % 86_400, 0);
        // 2019-09-01 is a Sunday: a 7-day window holds a full weekend.
        assert_eq!(w.start(), CivilDate::new(2019, 9, 1).midnight());
    }

    #[test]
    fn class_totals() {
        let c = FleetSpec::example().classes;
        assert_eq!(c.total(), 16);
        assert_eq!(c.expected_reported(), 6);
    }
}
