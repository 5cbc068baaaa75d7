//! Criterion benchmark crate — see `benches/`: `executor` (the survey
//! executor's schedule model, static chunks vs work stealing, plus its
//! wall time) and `obs_overhead` (what a span and a histogram record
//! cost with tracing off and on).
