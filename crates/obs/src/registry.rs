//! The machinery behind the metric declarations.
//!
//! Every metric is declared once, as one line of a `metrics!` table in
//! the crate root. A table declares one metric group and generates:
//!
//! * the atomic struct the writers share (`pub` fields: an `AtomicU64`
//!   per counter, max or internal value, a [`Gauge`] per gauge, an
//!   [`AtomicHistogram`](crate::AtomicHistogram) per histogram, the
//!   nested group's atomic struct per group);
//! * the plain-value snapshot struct, the same fields in the same order,
//!   which serializes to the `/metrics` and `--stats` JSON;
//! * `snapshot()`, which loads every field and then computes the
//!   derived ones from the loaded values;
//! * `add(&delta)`, which folds a snapshot-shaped delta in by each
//!   kind's merge: counters and gauges sum, maxes take `fetch_max`,
//!   histograms merge, groups recurse;
//! * `visit()` on the snapshot, which hands each metric's JSON path,
//!   kind, Prometheus family, help, labels and value to a renderer.
//!
//! One entry reads `KIND FIELD(ARGS);`:
//!
//! ```text
//! counter hits("lastmile_run_store_lookups_total" {result: "hit"}, "Series-store lookups by result.");
//! counter misses("lastmile_run_store_lookups_total" {result: "miss"});
//! gauge in_flight("lastmile_serve_in_flight", "Requests being handled right now.");
//! max queue_max_depth("lastmile_run_ingest_queue_max_depth", "High-water mark …");
//! hist classify("lastmile_serve_request_duration_nanos" {endpoint: "classify"}, "Request latency …");
//! hist decode("lastmile_run_latency_nanos" / "lastmile_run_latency_samples_total" {loop: "decode"}, "…", "…");
//! group store(StoreMetrics => StoreStats);
//! group cheap(AdmissionClassMetrics => AdmissionClassSnapshot {cost_class: "cheap"});
//! derived ingest_lag(u64 = |m, s| …, "lastmile_live_ingest_lag", "Records ingested but …");
//! internal records_analyzed();
//! table populations(PopulationRow);
//! ```
//!
//! The Prometheus part is a family name, optional labels and the
//! family's `# HELP` text. Several fields may share a family, told apart
//! by a label; the help is written on the family's first entry only. A
//! `hist` renders as a Prometheus histogram, or — written `"A" / "B"` —
//! as quantile gauges under `A` plus its sample count under counter `B`.
//! A `derived` value is a gauge computed by `|atomics, snapshot|` after
//! every other field is loaded. An `internal` value is writer state the
//! derivations read; it is in neither the JSON nor the exposition. A
//! `table` is a `Mutex<Vec<Row>>` copied into the snapshot as is: a
//! table, not a metric.

use crate::hist::{Histogram, HistogramSummary};
use serde::{Content, Serialize};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};

/// A level that goes up and down (queue depth, requests in flight) with
/// its high-water mark. `dec` saturates at zero: a racing reader can
/// account a pop before the push it pairs with lands. Derefs to the
/// level, so set-once gauges keep plain `store`/`load`.
#[derive(Debug, Default)]
pub struct Gauge {
    level: AtomicU64,
    high_water: AtomicU64,
}

impl Gauge {
    /// Raise the level by one and the high-water mark with it.
    pub fn inc(&self) {
        let level = self.level.fetch_add(1, Ordering::Relaxed) + 1;
        self.high_water.fetch_max(level, Ordering::Relaxed);
    }

    /// [`inc`](Gauge::inc) unless the level has reached `limit`; `true`
    /// when it rose.
    pub fn inc_below(&self, limit: u64) -> bool {
        match self
            .level
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < limit).then_some(n + 1)
            }) {
            Ok(before) => {
                self.high_water.fetch_max(before + 1, Ordering::Relaxed);
                true
            }
            Err(_) => false,
        }
    }

    /// Lower the level by one, saturating at zero.
    pub fn dec(&self) {
        let _ = self
            .level
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                Some(n.saturating_sub(1))
            });
    }

    /// The highest level `inc` has reached.
    pub fn high_water(&self) -> u64 {
        self.high_water.load(Ordering::Relaxed)
    }
}

impl Deref for Gauge {
    type Target = AtomicU64;

    fn deref(&self) -> &AtomicU64 {
        &self.level
    }
}

/// A histogram's plain-value copy. It serializes as (and derefs to) its
/// [`HistogramSummary`], and keeps the buckets the Prometheus histogram
/// families are rendered from.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistogramSnapshot {
    summary: HistogramSummary,
    histogram: Histogram,
}

impl HistogramSnapshot {
    pub fn histogram(&self) -> &Histogram {
        &self.histogram
    }
}

impl From<Histogram> for HistogramSnapshot {
    fn from(histogram: Histogram) -> HistogramSnapshot {
        HistogramSnapshot {
            summary: histogram.summary(),
            histogram,
        }
    }
}

impl Deref for HistogramSnapshot {
    type Target = HistogramSummary;

    fn deref(&self) -> &HistogramSummary {
        &self.summary
    }
}

impl Serialize for HistogramSnapshot {
    fn to_content(&self) -> Content {
        self.summary.to_content()
    }
}

/// How a declared metric accumulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Monotone total; deltas sum.
    Counter,
    /// Instantaneous level (derived values are gauges too).
    Gauge,
    /// High-water mark; merges by `fetch_max`.
    Max,
    /// Log-linear latency histogram; merges bucket-wise.
    Hist,
}

/// A visited metric's value.
#[derive(Clone, Copy, Debug)]
pub enum Value<'a> {
    U64(u64),
    F64(f64),
    /// Full buckets: rendered as a Prometheus histogram.
    Histogram(&'a Histogram),
    /// Rendered as one gauge per quantile.
    Quantiles(&'a HistogramSummary),
}

impl Value<'_> {
    /// The value as one number; `None` for histograms.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::U64(v) => Some(v as f64),
            Value::F64(v) => Some(v),
            Value::Histogram(_) | Value::Quantiles(_) => None,
        }
    }
}

impl From<u64> for Value<'_> {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<f64> for Value<'_> {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

/// The Prometheus side of one declaration.
#[derive(Clone, Copy, Debug)]
pub struct Prom {
    pub family: &'static str,
    pub labels: &'static [(&'static str, &'static str)],
    /// Empty on every entry of a shared family but the first.
    pub help: &'static str,
}

/// One declared metric as a renderer sees it.
#[derive(Clone, Copy, Debug)]
pub struct Metric<'a> {
    /// JSON path from the visited root, e.g. `["run", "store", "hits"]`.
    pub path: &'a [&'static str],
    pub kind: Kind,
    pub family: &'static str,
    pub help: &'static str,
    /// Enclosing groups' labels, then the entry's own.
    pub labels: &'a [(&'static str, &'static str)],
    pub value: Value<'a>,
}

impl Metric<'_> {
    /// Whether the path spells `dotted` (`"serve.admission.cheap.shed"`).
    pub fn path_is(&self, dotted: &str) -> bool {
        dotted.split('.').eq(self.path.iter().copied())
    }
}

/// Walks generated snapshots, handing each declared metric to a sink
/// with its full path and labels.
pub struct Visitor<'s> {
    path: Vec<&'static str>,
    labels: Vec<(&'static str, &'static str)>,
    sink: &'s mut dyn FnMut(&Metric),
}

impl<'s> Visitor<'s> {
    pub fn new(sink: &'s mut dyn FnMut(&Metric)) -> Visitor<'s> {
        Visitor {
            path: Vec::new(),
            labels: Vec::new(),
            sink,
        }
    }

    /// Visit a nested group under `field`, adding `labels` to its metrics.
    pub fn group(
        &mut self,
        field: &'static str,
        labels: &'static [(&'static str, &'static str)],
        visit: impl FnOnce(&mut Self),
    ) {
        self.path.push(field);
        let depth = self.labels.len();
        self.labels.extend_from_slice(labels);
        visit(self);
        self.labels.truncate(depth);
        self.path.pop();
    }

    /// Hand one metric to the sink.
    pub fn metric(&mut self, field: &'static str, kind: Kind, value: Value, prom: Prom) {
        self.group(field, prom.labels, |v| {
            (v.sink)(&Metric {
                path: &v.path,
                kind,
                family: prom.family,
                help: prom.help,
                labels: &v.labels,
                value,
            })
        });
    }
}

/// The [`Prom`] of one entry: `"family" {label: "value"}, "help"`, the
/// labels and the help optional.
macro_rules! prom {
    ($family:literal $({ $($k:ident: $v:literal),* })? $(, $help:literal)?) => {
        $crate::Prom {
            family: $family,
            labels: &[$($((stringify!($k), $v)),*)?],
            help: concat!("" $(, $help)?),
        }
    };
}

/// One entry's share of `snapshot`, the derivation pass, `add` and
/// `visit`; see `metrics!`.
macro_rules! metric_entry {
    // --- snapshot: load every stored field ---
    (load counter $me:ident $s:ident $f:ident $args:tt) => { $s.$f = $me.$f.load(::std::sync::atomic::Ordering::Relaxed) };
    (load gauge $me:ident $s:ident $f:ident $args:tt) => { $s.$f = $me.$f.load(::std::sync::atomic::Ordering::Relaxed) };
    (load max $me:ident $s:ident $f:ident $args:tt) => { $s.$f = $me.$f.load(::std::sync::atomic::Ordering::Relaxed) };
    (load hist $me:ident $s:ident $f:ident $args:tt) => { $s.$f = $crate::HistogramSnapshot::from($me.$f.snapshot()) };
    (load group $me:ident $s:ident $f:ident $args:tt) => { $s.$f = $me.$f.snapshot() };
    (load table $me:ident $s:ident $f:ident $args:tt) => { $s.$f = $me.$f.lock().expect("metrics table lock").clone() };
    (load $kind:ident $me:ident $s:ident $f:ident $args:tt) => {};

    // --- snapshot: then compute the derived ones ---
    (derive derived $me:ident $s:ident $f:ident ($ty:ident = $derive:expr, $($prom:tt)*) $A:ident $S:ident) => {{
        let derive: fn(&$A, &$S) -> $ty = $derive;
        $s.$f = derive($me, &$s);
    }};
    (derive $kind:ident $me:ident $s:ident $f:ident $args:tt $A:ident $S:ident) => {};

    // --- add: fold a delta in ---
    (add counter $me:ident $d:ident $f:ident $args:tt) => { $me.$f.fetch_add($d.$f, ::std::sync::atomic::Ordering::Relaxed); };
    (add gauge $me:ident $d:ident $f:ident $args:tt) => { $me.$f.fetch_add($d.$f, ::std::sync::atomic::Ordering::Relaxed); };
    (add max $me:ident $d:ident $f:ident $args:tt) => { $me.$f.fetch_max($d.$f, ::std::sync::atomic::Ordering::Relaxed); };
    (add hist $me:ident $d:ident $f:ident $args:tt) => { $me.$f.merge($d.$f.histogram()) };
    (add group $me:ident $d:ident $f:ident $args:tt) => { $me.$f.add(&$d.$f) };
    (add $kind:ident $me:ident $d:ident $f:ident $args:tt) => {};

    // --- visit: hand the snapshot's values to a renderer ---
    (visit counter $me:ident $v:ident $f:ident ($($prom:tt)*)) => {
        $v.metric(stringify!($f), $crate::Kind::Counter, $me.$f.into(), prom!($($prom)*))
    };
    (visit gauge $me:ident $v:ident $f:ident ($($prom:tt)*)) => {
        $v.metric(stringify!($f), $crate::Kind::Gauge, $me.$f.into(), prom!($($prom)*))
    };
    (visit max $me:ident $v:ident $f:ident ($($prom:tt)*)) => {
        $v.metric(stringify!($f), $crate::Kind::Max, $me.$f.into(), prom!($($prom)*))
    };
    (visit derived $me:ident $v:ident $f:ident ($ty:ident = $derive:expr, $($prom:tt)*)) => {
        $v.metric(stringify!($f), $crate::Kind::Gauge, $me.$f.into(), prom!($($prom)*))
    };
    (visit hist $me:ident $v:ident $f:ident
        ($family:literal / $samples:literal $({ $($k:ident: $l:literal),* })? $(, $help:literal, $samples_help:literal)?)) => {{
        $v.metric(stringify!($f), $crate::Kind::Hist, $crate::Value::Quantiles(&$me.$f), prom!($family $({ $($k: $l),* })? $(, $help)?));
        $v.group(stringify!($f), &[], |v| {
            v.metric("count", $crate::Kind::Counter, $me.$f.count.into(), prom!($samples $({ $($k: $l),* })? $(, $samples_help)?))
        });
    }};
    (visit hist $me:ident $v:ident $f:ident ($($prom:tt)*)) => {
        $v.metric(stringify!($f), $crate::Kind::Hist, $crate::Value::Histogram($me.$f.histogram()), prom!($($prom)*))
    };
    (visit group $me:ident $v:ident $f:ident ($A:ident => $S:ident $({ $($k:ident: $l:literal),* })?)) => {
        $v.group(stringify!($f), &[$($((stringify!($k), $l)),*)?], |v| $me.$f.visit(v))
    };
    (visit $kind:ident $me:ident $v:ident $f:ident $args:tt) => {};
}

/// Declare one metric group; see the [module docs](self).
macro_rules! metrics {
    (
        $(#[$am:meta])* pub struct $A:ident;
        $(#[$sm:meta])* pub struct $S:ident { $($body:tt)* }
    ) => {
        metrics!(@fields [$(#[$am])* pub struct $A] [$(#[$sm])* pub struct $S] [] [] $($body)*);
        metrics!(@impl $A $S $($body)*);
    };

    // Munch the entries into the two structs' field lists.
    (@fields [$($ah:tt)*] [$($sh:tt)*] [$($af:tt)*] [$($sf:tt)*]) => {
        #[derive(Debug, Default)]
        $($ah)* { $($af)* }
        #[derive(Clone, Debug, Default, PartialEq, ::serde::Serialize)]
        $($sh)* { $($sf)* }
    };
    (@fields $ah:tt $sh:tt [$($af:tt)*] [$($sf:tt)*] $(#[$m:meta])* counter $f:ident $args:tt; $($rest:tt)*) => {
        metrics!(@fields $ah $sh [$($af)* $(#[$m])* pub $f: ::std::sync::atomic::AtomicU64,] [$($sf)* $(#[$m])* pub $f: u64,] $($rest)*);
    };
    (@fields $ah:tt $sh:tt [$($af:tt)*] [$($sf:tt)*] $(#[$m:meta])* gauge $f:ident $args:tt; $($rest:tt)*) => {
        metrics!(@fields $ah $sh [$($af)* $(#[$m])* pub $f: $crate::Gauge,] [$($sf)* $(#[$m])* pub $f: u64,] $($rest)*);
    };
    (@fields $ah:tt $sh:tt [$($af:tt)*] [$($sf:tt)*] $(#[$m:meta])* max $f:ident $args:tt; $($rest:tt)*) => {
        metrics!(@fields $ah $sh [$($af)* $(#[$m])* pub $f: ::std::sync::atomic::AtomicU64,] [$($sf)* $(#[$m])* pub $f: u64,] $($rest)*);
    };
    (@fields $ah:tt $sh:tt [$($af:tt)*] [$($sf:tt)*] $(#[$m:meta])* hist $f:ident $args:tt; $($rest:tt)*) => {
        metrics!(@fields $ah $sh [$($af)* $(#[$m])* pub $f: $crate::AtomicHistogram,] [$($sf)* $(#[$m])* pub $f: $crate::HistogramSnapshot,] $($rest)*);
    };
    (@fields $ah:tt $sh:tt [$($af:tt)*] [$($sf:tt)*] $(#[$m:meta])* group $f:ident ($GA:ident => $GS:ident $($labels:tt)?); $($rest:tt)*) => {
        metrics!(@fields $ah $sh [$($af)* $(#[$m])* pub $f: $GA,] [$($sf)* $(#[$m])* pub $f: $GS,] $($rest)*);
    };
    (@fields $ah:tt $sh:tt [$($af:tt)*] [$($sf:tt)*] $(#[$m:meta])* derived $f:ident ($ty:ident = $($args:tt)*); $($rest:tt)*) => {
        metrics!(@fields $ah $sh [$($af)*] [$($sf)* $(#[$m])* pub $f: $ty,] $($rest)*);
    };
    (@fields $ah:tt $sh:tt [$($af:tt)*] [$($sf:tt)*] $(#[$m:meta])* internal $f:ident (); $($rest:tt)*) => {
        metrics!(@fields $ah $sh [$($af)* $(#[$m])* pub $f: ::std::sync::atomic::AtomicU64,] [$($sf)*] $($rest)*);
    };
    (@fields $ah:tt $sh:tt [$($af:tt)*] [$($sf:tt)*] $(#[$m:meta])* table $f:ident ($Row:ident); $($rest:tt)*) => {
        metrics!(@fields $ah $sh [$($af)* $(#[$m])* $f: ::std::sync::Mutex<Vec<$Row>>,] [$($sf)* $(#[$m])* pub $f: Vec<$Row>,] $($rest)*);
    };

    (@impl $A:ident $S:ident $($(#[$m:meta])* $kind:ident $f:ident $args:tt;)*) => {
        impl $A {
            pub fn new() -> $A {
                $A::default()
            }

            /// A plain-value copy of every field; derived fields are
            /// computed from the loaded values.
            // Each derivation is a closure typed as a `fn` and called once.
            #[allow(clippy::redundant_closure_call)]
            pub fn snapshot(&self) -> $S {
                let mut s = $S::default();
                $(metric_entry!(load $kind self s $f $args);)*
                $(metric_entry!(derive $kind self s $f $args $A $S);)*
                s
            }

            /// Fold `delta` in: counters and gauges sum, maxes take the
            /// larger, histograms merge. Derived fields are ignored.
            pub fn add(&self, delta: &$S) {
                $(metric_entry!(add $kind self delta $f $args);)*
            }
        }

        impl $S {
            /// Hand every declared metric to `v`, in declaration order.
            pub fn visit(&self, v: &mut $crate::Visitor) {
                $(metric_entry!(visit $kind self v $f $args);)*
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_tracks_high_water_and_saturates() {
        let g = Gauge::default();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.load(Ordering::Relaxed), 1);
        assert_eq!(g.high_water(), 2);
        g.dec();
        g.dec();
        assert_eq!(g.load(Ordering::Relaxed), 0);
        assert!(g.inc_below(1));
        assert!(!g.inc_below(1));
        assert_eq!(g.high_water(), 2);
    }

    #[test]
    fn histogram_snapshot_serializes_as_its_summary() {
        let mut h = Histogram::new();
        h.record(1_000);
        h.record(5_000);
        let snap = HistogramSnapshot::from(h.clone());
        assert_eq!(*snap, h.summary());
        assert_eq!(
            serde_json::to_string(&snap).expect("encodes"),
            serde_json::to_string(&h.summary()).expect("encodes")
        );
    }
}
