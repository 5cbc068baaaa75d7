//! Weighted endpoint mixes, scheduled deterministically.
//!
//! A load run may need "1 part classify, 4 parts series, 2 parts
//! intake"-style traffic. Rather than an RNG (whose seed would have to
//! be plumbed, logged, and defended), the schedule is *smooth weighted
//! round-robin*: each pick adds every endpoint's weight to its credit,
//! takes the endpoint with the most credit, and charges it the total
//! weight. The resulting sequence is deterministic, hits exact ratios
//! over every window of `total_weight` picks, and interleaves (for
//! weights 1,1,2: `C A B C` repeating — never `A B C C`), which is what
//! an arrival process should look like.

use std::time::Duration;

/// The daemon endpoints the generator can aim at.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Endpoint {
    /// `GET /v1/classify` — the heavy full-classification document.
    Classify,
    /// `GET /v1/classify/{asn}` — one pre-rendered document.
    ClassifyAsn,
    /// `GET /v1/series/{asn}` — the aggregated signal.
    Series,
    /// `GET /v1/populations` — the per-population table.
    Populations,
    /// `GET /healthz` — the probe.
    Healthz,
    /// `POST /v1/traceroutes` — live intake.
    Intake,
}

/// All endpoints, in the stable order reports use.
pub const ENDPOINTS: [Endpoint; 6] = [
    Endpoint::Classify,
    Endpoint::ClassifyAsn,
    Endpoint::Series,
    Endpoint::Populations,
    Endpoint::Healthz,
    Endpoint::Intake,
];

impl Endpoint {
    /// Stable name: mix-spec key and report key.
    pub fn key(self) -> &'static str {
        match self {
            Endpoint::Classify => "classify",
            Endpoint::ClassifyAsn => "classify_asn",
            Endpoint::Series => "series",
            Endpoint::Populations => "populations",
            Endpoint::Healthz => "healthz",
            Endpoint::Intake => "intake",
        }
    }

    /// Dense index into per-endpoint tables.
    pub fn index(self) -> usize {
        match self {
            Endpoint::Classify => 0,
            Endpoint::ClassifyAsn => 1,
            Endpoint::Series => 2,
            Endpoint::Populations => 3,
            Endpoint::Healthz => 4,
            Endpoint::Intake => 5,
        }
    }

    fn from_key(key: &str) -> Option<Endpoint> {
        ENDPOINTS.into_iter().find(|e| e.key() == key)
    }
}

/// Everything endpoint templates need beyond the path shape: which ASN
/// the per-ASN endpoints hit, and the body an intake POST carries.
#[derive(Clone, Debug, Default)]
pub struct Plan {
    /// Target for `classify_asn` / `series` (0 ⇒ those endpoints 404,
    /// which the tallies would surface as errors — callers should
    /// discover a real one via [`crate::discover_asn`]).
    pub asn: u32,
    /// One intake POST body (JSONL records). Empty + an `intake` weight
    /// is a config error caught by [`Mix::validate`].
    pub post_body: Vec<u8>,
    /// Timeout for every request.
    pub timeout: Duration,
}

impl Plan {
    /// The `(method, path, body)` of one request against `endpoint`.
    pub fn request(&self, endpoint: Endpoint) -> (&'static str, String, &[u8]) {
        match endpoint {
            Endpoint::Classify => ("GET", "/v1/classify".to_string(), &[][..]),
            Endpoint::ClassifyAsn => ("GET", format!("/v1/classify/{}", self.asn), &[][..]),
            Endpoint::Series => ("GET", format!("/v1/series/{}", self.asn), &[][..]),
            Endpoint::Populations => ("GET", "/v1/populations".to_string(), &[][..]),
            Endpoint::Healthz => ("GET", "/healthz".to_string(), &[][..]),
            Endpoint::Intake => ("POST", "/v1/traceroutes".to_string(), &self.post_body[..]),
        }
    }
}

/// A weighted endpoint mix plus its smooth-WRR scheduling state.
#[derive(Clone, Debug)]
pub struct Mix {
    /// `(endpoint, weight)`, weights ≥ 1.
    entries: Vec<(Endpoint, u64)>,
    /// Current credit per entry (smooth WRR state).
    credit: Vec<i64>,
}

impl Mix {
    /// Parse `"classify=1,series=4,intake=2"`. Order in the spec is
    /// preserved (it breaks credit ties).
    pub fn parse(spec: &str) -> Result<Mix, String> {
        let mut entries = Vec::new();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, weight) = part
                .split_once('=')
                .ok_or_else(|| format!("mix entry '{part}': expected endpoint=weight"))?;
            let endpoint = Endpoint::from_key(key.trim()).ok_or_else(|| {
                let known: Vec<_> = ENDPOINTS.iter().map(|e| e.key()).collect();
                format!(
                    "mix entry '{part}': unknown endpoint (known: {})",
                    known.join(", ")
                )
            })?;
            let weight: u64 = weight
                .trim()
                .parse()
                .map_err(|_| format!("mix entry '{part}': weight must be a number"))?;
            if weight == 0 {
                return Err(format!("mix entry '{part}': weight must be ≥ 1"));
            }
            if entries.iter().any(|(e, _)| *e == endpoint) {
                return Err(format!("mix entry '{part}': endpoint repeated"));
            }
            entries.push((endpoint, weight));
        }
        if entries.is_empty() {
            return Err("mix is empty".to_string());
        }
        let credit = vec![0; entries.len()];
        Ok(Mix { entries, credit })
    }

    /// A mix of exactly one endpoint.
    pub fn single(endpoint: Endpoint) -> Mix {
        Mix {
            entries: vec![(endpoint, 1)],
            credit: vec![0],
        }
    }

    /// Whether the mix sends intake POSTs (which need a `post_body`).
    pub fn wants_intake(&self) -> bool {
        self.entries.iter().any(|(e, _)| *e == Endpoint::Intake)
    }

    /// Reject plans the mix cannot be driven with.
    pub fn validate(&self, plan: &Plan) -> Result<(), String> {
        if self.wants_intake() && plan.post_body.is_empty() {
            return Err("mix includes intake but no POST body was provided (--post-file)".into());
        }
        let per_asn = [Endpoint::ClassifyAsn, Endpoint::Series];
        if plan.asn == 0 && self.entries.iter().any(|(e, _)| per_asn.contains(e)) {
            return Err("mix includes per-ASN endpoints but no ASN is known".into());
        }
        Ok(())
    }

    /// The next endpoint in the smooth-WRR sequence.
    pub fn pick(&mut self) -> Endpoint {
        let total: i64 = self.entries.iter().map(|(_, w)| *w as i64).sum();
        let mut best = 0;
        for (i, (_, weight)) in self.entries.iter().enumerate() {
            self.credit[i] += *weight as i64;
            if self.credit[i] > self.credit[best] {
                best = i;
            }
        }
        self.credit[best] -= total;
        self.entries[best].0
    }

    /// `"classify=1,series=4"` — the canonical spec of this mix.
    pub fn spec(&self) -> String {
        self.entries
            .iter()
            .map(|(e, w)| format!("{}={w}", e.key()))
            .collect::<Vec<_>>()
            .join(",")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_and_rejects_nonsense() {
        let mix = Mix::parse("classify=1, series=4,intake=2").expect("parses");
        assert_eq!(mix.spec(), "classify=1,series=4,intake=2");
        assert!(mix.wants_intake());
        assert!(Mix::parse("").is_err());
        assert!(Mix::parse("classify").is_err());
        assert!(Mix::parse("warp=1").is_err());
        assert!(Mix::parse("classify=0").is_err());
        assert!(Mix::parse("classify=x").is_err());
        assert!(Mix::parse("classify=1,classify=2").is_err());
    }

    #[test]
    fn smooth_wrr_hits_exact_ratios_and_interleaves() {
        let mut mix = Mix::parse("classify=1,series=2,healthz=1").expect("parses");
        let picks: Vec<Endpoint> = (0..400).map(|_| mix.pick()).collect();
        let count = |e: Endpoint| picks.iter().filter(|p| **p == e).count();
        assert_eq!(count(Endpoint::Classify), 100);
        assert_eq!(count(Endpoint::Series), 200);
        assert_eq!(count(Endpoint::Healthz), 100);
        // Smoothness: the weight-2 endpoint never runs 3+ in a row.
        let mut run = 0;
        for p in &picks {
            run = if *p == Endpoint::Series { run + 1 } else { 0 };
            assert!(run <= 2, "series clustered: {picks:?}");
        }
        // Deterministic: a fresh mix replays the same sequence.
        let mut again = Mix::parse("classify=1,series=2,healthz=1").unwrap();
        let replay: Vec<Endpoint> = (0..400).map(|_| again.pick()).collect();
        assert_eq!(picks, replay);
    }

    #[test]
    fn plan_builds_requests_and_validate_catches_gaps() {
        let plan = Plan {
            asn: 3215,
            post_body: b"{}\n".to_vec(),
            timeout: Duration::from_secs(1),
        };
        assert_eq!(
            plan.request(Endpoint::ClassifyAsn).1,
            "/v1/classify/3215".to_string()
        );
        let (method, path, body) = plan.request(Endpoint::Intake);
        assert_eq!((method, path.as_str()), ("POST", "/v1/traceroutes"));
        assert_eq!(body, b"{}\n");
        let intake = Mix::single(Endpoint::Intake);
        assert!(intake.validate(&plan).is_ok());
        assert!(intake.validate(&Plan::default()).is_err());
        let series = Mix::single(Endpoint::Series);
        assert!(series.validate(&Plan::default()).is_err());
        assert!(Mix::single(Endpoint::Classify)
            .validate(&Plan::default())
            .is_ok());
    }
}
