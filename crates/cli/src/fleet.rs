//! `lastmile fleet`: scenario-fleet generation and detector scoring.
//!
//! * `fleet gen` renders a [`FleetSpec`] world into the same artifact
//!   layout `simulate` exports — `probes.json`, `bgp.csv`,
//!   `traceroutes.jsonl` — plus a ground-truth sidecar (`truth.json`)
//!   labeling every AS. Generation is deterministic: identical spec +
//!   seed give byte-identical corpus and sidecar regardless of
//!   `--threads`.
//! * `fleet score` joins `classify --json` output against the sidecar
//!   into a per-label confusion matrix with precision/recall, and can
//!   gate CI via `--min-recall` / `--max-peering-fp`.
//!
//! The spec file is declarative JSON (see `FleetSpec`); validate it
//! offline with `lastmile lint --fleet SPEC.json`.

use crate::Flags;
use lastmile_repro::atlas::json::write_traceroute;
use lastmile_repro::netsim::fleet::{
    build_fleet, select_probes, ClassMix, FleetLabel, FleetScenario, FleetSpec, SampleMode,
};
use lastmile_repro::netsim::{SimProbe, TracerouteEngine};
use lastmile_repro::obs::trace;
use lastmile_repro::prefix::Asn;
use lastmile_repro::runner::{run_tasks, worker_count};
use lastmile_repro::timebase::TimeRange;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Condvar, Mutex, PoisonError};

pub fn run(action: Option<&str>, flags: &Flags) -> Result<(), String> {
    match action {
        Some("gen") => gen(flags),
        Some("score") => score(flags),
        Some(other) => Err(format!("unknown fleet action {other} (gen|score)")),
        None => Err("fleet needs an action: gen|score".into()),
    }
}

/// Parse and validate a fleet spec file's text. Returns *all* problems —
/// JSON syntax, unknown keys, structural violations — not just the first.
pub fn parse_spec(text: &str) -> Result<FleetSpec, Vec<String>> {
    let value: serde_json::Value =
        serde_json::from_str(text).map_err(|e| vec![format!("not valid JSON: {e}")])?;
    let Some(obj) = value.as_object() else {
        return Err(vec!["spec must be a JSON object".to_string()]);
    };
    let mut problems = Vec::new();
    for (key, _) in obj {
        if !matches!(key.as_str(), "name" | "days" | "classes" | "probes_per_as") {
            problems.push(format!("unknown key {key:?}"));
        }
    }
    let name = match value.get("name").and_then(|v| v.as_str()) {
        Some(s) => s.to_string(),
        None => {
            problems.push("\"name\" must be a string".to_string());
            String::new()
        }
    };
    let days = match value.get("days").and_then(|v| v.as_u64()) {
        Some(d) => d as u32,
        None => {
            problems.push("\"days\" must be a positive integer".to_string());
            0
        }
    };
    let mut classes = ClassMix::default();
    match value.get("classes").and_then(|v| v.as_object()) {
        Some(map) => {
            for (key, count) in map {
                let Some(n) = count.as_u64() else {
                    problems.push(format!("classes.{key} must be a non-negative integer"));
                    continue;
                };
                let n = n as usize;
                let Some(label) = FleetLabel::parse(key) else {
                    problems.push(format!(
                        "unknown class {key:?} (expected one of: {})",
                        FleetLabel::ALL.map(|l| l.as_str()).join(", ")
                    ));
                    continue;
                };
                match label {
                    FleetLabel::Severe => classes.severe = n,
                    FleetLabel::Mild => classes.mild = n,
                    FleetLabel::Low => classes.low = n,
                    FleetLabel::Clean => classes.clean = n,
                    FleetLabel::Transient => classes.transient = n,
                    FleetLabel::AdversarialWeekly => classes.adversarial_weekly = n,
                    FleetLabel::AdversarialPeering => classes.adversarial_peering = n,
                    FleetLabel::AdversarialRouteShift => classes.adversarial_route_shift = n,
                }
            }
        }
        None => problems.push("\"classes\" must be an object of label: count".to_string()),
    }
    let (probes_min, probes_max) = match value.get("probes_per_as") {
        None => (3, 8),
        Some(v) => match v.as_object() {
            Some(map) => {
                for (key, _) in map {
                    if !matches!(key.as_str(), "min" | "max") {
                        problems.push(format!("unknown key probes_per_as.{key}"));
                    }
                }
                let get = |k: &str| v.get(k).and_then(|n| n.as_u64()).map(|n| n as usize);
                match (get("min"), get("max")) {
                    (Some(lo), Some(hi)) => (lo, hi),
                    _ => {
                        problems
                            .push("probes_per_as needs integer \"min\" and \"max\"".to_string());
                        (3, 8)
                    }
                }
            }
            None => {
                problems.push("probes_per_as must be an object".to_string());
                (3, 8)
            }
        },
    };
    let spec = FleetSpec {
        name,
        days,
        classes,
        probes_min,
        probes_max,
    };
    problems.extend(spec.validate());
    if problems.is_empty() {
        Ok(spec)
    } else {
        Err(problems)
    }
}

/// Load and validate `--spec FILE`, folding all problems into one error.
fn load_spec(path: &str) -> Result<FleetSpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read --spec {path}: {e}"))?;
    parse_spec(&text)
        .map_err(|problems| format!("invalid fleet spec {path}:\n  {}", problems.join("\n  ")))
}

/// `--probes-per-as` subsampling config: (count, mode, sample seed).
type Subsample = (usize, SampleMode, u64);

/// The per-AS probe subset to emit, honoring `--probes-per-as`.
fn emitted_probes<'w>(
    scenario: &'w FleetScenario,
    flags: &Flags,
) -> Result<(Vec<&'w SimProbe>, Option<Subsample>), String> {
    let subsample = match flags.parsed::<usize>("probes-per-as")? {
        None => {
            if flags.optional("sample-mode").is_some() || flags.optional("sample-seed").is_some() {
                return Err("--sample-mode/--sample-seed need --probes-per-as".into());
            }
            None
        }
        Some(0) => return Err("--probes-per-as must be positive".into()),
        Some(n) => {
            let mode = match flags.optional("sample-mode") {
                None => SampleMode::Biased,
                Some(s) => SampleMode::parse(s)
                    .ok_or_else(|| format!("invalid --sample-mode {s} (uniform|biased)"))?,
            };
            let sample_seed = flags.parsed::<u64>("sample-seed")?.unwrap_or(1);
            Some((n, mode, sample_seed))
        }
    };
    let probes = match subsample {
        None => scenario.world.probes().iter().collect(),
        Some((n, mode, sample_seed)) => {
            let mut out: Vec<&SimProbe> = Vec::new();
            for t in &scenario.truth {
                for id in select_probes(&scenario.world, t.asn, n, mode, sample_seed) {
                    out.push(
                        scenario
                            .world
                            .probes()
                            .iter()
                            .find(|p| p.meta.id == id)
                            .expect("selected probe exists"),
                    );
                }
            }
            out
        }
    };
    Ok((probes, subsample))
}

fn gen(flags: &Flags) -> Result<(), String> {
    let spec = load_spec(flags.required("spec")?)?;
    let out_dir = flags.required("out")?;
    let seed: u64 = flags.parsed("seed")?.unwrap_or(20200646);
    let threads = worker_count(flags.thread_count("threads")?.unwrap_or(0));
    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {out_dir}: {e}"))?;

    let span = trace::span("fleet_build");
    let scenario = build_fleet(&spec, seed);
    let window = scenario.window;
    let (probes, subsample) = emitted_probes(&scenario, flags)?;
    drop(span);
    eprintln!(
        "[fleet] {} ({} ASes, {} of {} probes emitted, {} days)",
        spec.name,
        scenario.truth.len(),
        probes.len(),
        scenario.world.probes().len(),
        spec.days
    );

    // Probe metadata: the emitted subset only, so downstream `classify
    // --probes` sees the same population the corpus carries.
    let span = trace::span("fleet_export_meta");
    let metas: Vec<_> = probes.iter().map(|p| p.meta.clone()).collect();
    let probes_path = format!("{out_dir}/probes.json");
    let json = serde_json::to_string_pretty(&metas).expect("probes encode");
    std::fs::write(&probes_path, json).map_err(|e| format!("write {probes_path}: {e}"))?;
    eprintln!("[out] {probes_path} ({} probes)", metas.len());

    let table_path = format!("{out_dir}/bgp.csv");
    std::fs::write(
        &table_path,
        crate::bgp::table_to_csv(scenario.world.registry()),
    )
    .map_err(|e| format!("write {table_path}: {e}"))?;
    eprintln!("[out] {table_path}");

    // Ground-truth sidecar, the scorer's join input.
    let truth_path = format!("{out_dir}/truth.json");
    let truth_doc = serde_json::json!({
        "spec_name": spec.name,
        "seed": seed,
        "window": serde_json::json!({
            "start": window.start().as_secs(),
            "end": window.end().as_secs()
        }),
        "probes_per_as": subsample.map(|(n, mode, sample_seed)| serde_json::json!({
            "n": n,
            "mode": mode.as_str(),
            "seed": sample_seed
        })),
        "ases": scenario.truth.iter().map(|t| serde_json::json!({
            "asn": t.asn,
            "name": t.name,
            "country": t.country,
            "label": t.label.as_str(),
            "expected_class": expected_class_name(t.label),
            "amplitude_ms": t.amplitude_ms,
            "probes": t.probes,
            "probes_emitted": probes.iter().filter(|p| p.meta.asn == t.asn).count()
        })).collect::<Vec<_>>()
    });
    let mut truth_text = serde_json::to_string_pretty(&truth_doc).expect("truth encodes");
    truth_text.push('\n');
    std::fs::write(&truth_path, truth_text).map_err(|e| format!("write {truth_path}: {e}"))?;
    eprintln!("[out] {truth_path} ({} ASes)", scenario.truth.len());
    drop(span);

    // Traceroutes, probe-major, in one pass of the executor. Each worker
    // simulates and renders the probe it claims into a buffer it reuses,
    // waits for the probe's turn, and appends the buffer to the file
    // itself: the file is assembled strictly in probe order, so thread
    // count can never move a byte, and at most one rendered probe per
    // worker is held at once.
    let span = trace::span("fleet_export_traceroutes");
    let trs_path = format!("{out_dir}/traceroutes.jsonl");
    let file = std::fs::File::create(&trs_path).map_err(|e| format!("create {trs_path}: {e}"))?;
    let engine = TracerouteEngine::new(&scenario.world);
    let order = InOrder::new(std::io::BufWriter::new(file));
    let rendered = run_tasks(threads, "fleet-render", probes.len(), |i| {
        let turn = order.turn(i);
        RENDERED.with_borrow_mut(|buf| {
            buf.clear();
            let records = render_probe(&engine, probes[i], &window, buf);
            let span = trace::span_with("write_probe", |a| {
                a.u64("probe", u64::from(probes[i].meta.id.0))
                    .u64("bytes", buf.len() as u64);
            });
            turn.append(buf.as_bytes());
            drop(span);
            records
        })
    });
    let mut w = match order.finish() {
        Ok(w) => w,
        Err(Failure::Write(e)) => return Err(format!("write {trs_path}: {e}")),
        Err(Failure::Render(i)) => {
            let why = rendered[i].as_ref().err().map_or("", String::as_str);
            return Err(format!("render traceroutes: {why}"));
        }
    };
    w.flush().map_err(|e| format!("flush {trs_path}: {e}"))?;
    // With no failure in the pass, every probe rendered.
    let count: usize = rendered.into_iter().flatten().sum();
    eprintln!("[out] {trs_path} ({count} traceroutes)");
    drop(span);

    Ok(())
}

thread_local! {
    /// A `fleet gen` worker's render buffer, reused from probe to probe.
    static RENDERED: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Appends to `W` in task order from the executor's workers: task `i`
/// appends once tasks `0..i` have appended (or failed), and the first
/// failure in that order stops every later append.
struct InOrder<W> {
    state: Mutex<Order<W>>,
    turn_passed: Condvar,
}

struct Order<W> {
    /// The task whose turn it is.
    next: usize,
    out: W,
    failure: Option<Failure>,
}

/// Why an ordered pass stopped appending.
enum Failure {
    /// The first append that failed.
    Write(std::io::Error),
    /// Task `i` ended (panicked) without appending.
    Render(usize),
}

/// Task `i`'s place in an [`InOrder`]. Dropping it without
/// [`Turn::append`] (a panic on the way) still waits for the turn and
/// passes it on, so no later task waits forever.
struct Turn<'a, W: Write> {
    order: &'a InOrder<W>,
    /// `None` once the turn is passed on.
    task: Option<usize>,
}

impl<W: Write> InOrder<W> {
    fn new(out: W) -> Self {
        InOrder {
            state: Mutex::new(Order {
                next: 0,
                out,
                failure: None,
            }),
            turn_passed: Condvar::new(),
        }
    }

    fn turn(&self, task: usize) -> Turn<'_, W> {
        Turn {
            order: self,
            task: Some(task),
        }
    }

    /// The writer, or the first failure in task order.
    fn finish(self) -> Result<W, Failure> {
        let order = self
            .state
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        match order.failure {
            None => Ok(order.out),
            Some(failure) => Err(failure),
        }
    }
}

impl<W: Write> Turn<'_, W> {
    /// Wait for this task's turn, append `bytes` unless an earlier task
    /// failed, and pass the turn on.
    fn append(mut self, bytes: &[u8]) {
        self.pass(Some(bytes));
    }

    fn pass(&mut self, bytes: Option<&[u8]>) {
        let Some(task) = self.task.take() else {
            return;
        };
        let InOrder { state, turn_passed } = self.order;
        // Passing a turn runs in `drop`, so it must not panic, and every
        // update under the lock leaves the order valid: recover a
        // poisoned lock.
        let mut order = state.lock().unwrap_or_else(PoisonError::into_inner);
        while order.next != task {
            order = turn_passed
                .wait(order)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if order.failure.is_none() {
            order.failure = match bytes {
                Some(bytes) => order.out.write_all(bytes).err().map(Failure::Write),
                None => Some(Failure::Render(task)),
            };
        }
        order.next += 1;
        drop(order);
        turn_passed.notify_all();
    }
}

impl<W: Write> Drop for Turn<'_, W> {
    fn drop(&mut self) {
        self.pass(None);
    }
}

/// Append one probe's traceroutes over `window` to `buf` as JSON Lines;
/// how many. Each traceroute is written as it is simulated, so no
/// probe's models are held at once. The `render_probe` span covers both
/// (the `simulate_probe` span nests inside it) and names its `records`
/// and `bytes` on its end.
fn render_probe(
    engine: &TracerouteEngine,
    probe: &SimProbe,
    window: &TimeRange,
    buf: &mut String,
) -> usize {
    let span = trace::span_with("render_probe", |a| {
        a.u64("probe", u64::from(probe.meta.id.0));
    });
    let start = buf.len();
    let mut records = 0;
    engine.for_each_traceroute(probe, window, |tr| {
        write_traceroute(&tr, probe.meta.public_addr, buf);
        buf.push('\n');
        records += 1;
    });
    if let Some(span) = span {
        span.end_with(|a| {
            a.u64("records", records as u64)
                .u64("bytes", (buf.len() - start) as u64);
        });
    }
    records
}

/// The class name `classify` should print for ASes of a label.
fn expected_class_name(label: FleetLabel) -> &'static str {
    match label {
        FleetLabel::Severe => "Severe",
        FleetLabel::Mild => "Mild",
        FleetLabel::Low => "Low",
        _ => "None",
    }
}

/// One AS's scored outcome: what the detector said.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Outcome {
    None,
    Low,
    Mild,
    Severe,
    /// The ASN never appeared in the classify output.
    Unanalyzed,
}

impl Outcome {
    const COLUMNS: [Outcome; 5] = [
        Outcome::None,
        Outcome::Low,
        Outcome::Mild,
        Outcome::Severe,
        Outcome::Unanalyzed,
    ];

    fn parse(class: &str) -> Option<Outcome> {
        match class {
            "None" => Some(Outcome::None),
            "Low" => Some(Outcome::Low),
            "Mild" => Some(Outcome::Mild),
            "Severe" => Some(Outcome::Severe),
            _ => None,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            Outcome::None => "None",
            Outcome::Low => "Low",
            Outcome::Mild => "Mild",
            Outcome::Severe => "Severe",
            Outcome::Unanalyzed => "unanalyzed",
        }
    }

    fn reported(self) -> bool {
        matches!(self, Outcome::Low | Outcome::Mild | Outcome::Severe)
    }
}

fn score(flags: &Flags) -> Result<(), String> {
    let truth_path = flags.required("truth")?;
    let classified_path = flags.required("classified")?;
    let truth_text = std::fs::read_to_string(truth_path)
        .map_err(|e| format!("read --truth {truth_path}: {e}"))?;
    let truth: serde_json::Value = serde_json::from_str(&truth_text)
        .map_err(|e| format!("--truth {truth_path} is not valid JSON: {e}"))?;
    let ases = truth
        .get("ases")
        .and_then(|v| v.as_array())
        .ok_or_else(|| format!("--truth {truth_path} has no \"ases\" array"))?;

    let classified_text = std::fs::read_to_string(classified_path)
        .map_err(|e| format!("read --classified {classified_path}: {e}"))?;
    let classified: serde_json::Value = serde_json::from_str(&classified_text)
        .map_err(|e| format!("--classified {classified_path} is not valid JSON: {e}"))?;
    let docs = classified
        .as_array()
        .ok_or_else(|| format!("--classified {classified_path} must be a classify --json array"))?;
    let mut detected: BTreeMap<Asn, Outcome> = BTreeMap::new();
    for doc in docs {
        let asn = doc
            .get("asn")
            .and_then(|v| v.as_u64())
            .ok_or("classified entry without numeric \"asn\"")? as Asn;
        let class = doc
            .get("class")
            .and_then(|v| v.as_str())
            .ok_or("classified entry without \"class\"")?;
        let outcome =
            Outcome::parse(class).ok_or_else(|| format!("AS{asn}: unknown class {class:?}"))?;
        detected.insert(asn, outcome);
    }

    // The confusion matrix: label rows × outcome columns.
    let mut rows: BTreeMap<&'static str, BTreeMap<&'static str, usize>> = BTreeMap::new();
    let mut persistent_total = 0usize;
    let mut persistent_detected = 0usize;
    let mut persistent_exact = 0usize;
    let mut reported_total = 0usize;
    let mut true_positives = 0usize;
    let mut false_positives: BTreeMap<&'static str, usize> = BTreeMap::new();
    for as_truth in ases {
        let asn = as_truth
            .get("asn")
            .and_then(|v| v.as_u64())
            .ok_or("truth entry without numeric \"asn\"")? as Asn;
        let label_name = as_truth
            .get("label")
            .and_then(|v| v.as_str())
            .ok_or("truth entry without \"label\"")?;
        let label = FleetLabel::parse(label_name)
            .ok_or_else(|| format!("AS{asn}: unknown label {label_name:?}"))?;
        let outcome = detected.get(&asn).copied().unwrap_or(Outcome::Unanalyzed);
        *rows
            .entry(label.as_str())
            .or_default()
            .entry(outcome.as_str())
            .or_default() += 1;
        if outcome.reported() {
            reported_total += 1;
            if label.expect_reported() {
                true_positives += 1;
            } else {
                *false_positives.entry(label.as_str()).or_default() += 1;
            }
        }
        if label.expect_reported() {
            persistent_total += 1;
            if outcome.reported() {
                persistent_detected += 1;
            }
            if outcome.as_str() == expected_class_name(label) {
                persistent_exact += 1;
            }
        }
    }
    let recall = if persistent_total > 0 {
        persistent_detected as f64 / persistent_total as f64
    } else {
        1.0
    };
    let precision = if reported_total > 0 {
        true_positives as f64 / reported_total as f64
    } else {
        1.0
    };
    let exact = if persistent_total > 0 {
        persistent_exact as f64 / persistent_total as f64
    } else {
        1.0
    };
    let fp_of = |label: FleetLabel| false_positives.get(label.as_str()).copied().unwrap_or(0);
    let peering_fp = fp_of(FleetLabel::AdversarialPeering);

    // Threshold gates (checked after printing, so a failing run still
    // shows its matrix).
    let min_recall = flags.parsed::<f64>("min-recall")?;
    let max_peering_fp = flags.parsed::<usize>("max-peering-fp")?;
    let mut gate_failures = Vec::new();
    if let Some(min) = min_recall {
        if recall < min {
            gate_failures.push(format!("recall {recall:.3} below --min-recall {min}"));
        }
    }
    if let Some(max) = max_peering_fp {
        if peering_fp > max {
            gate_failures.push(format!(
                "{peering_fp} peering false positive(s) above --max-peering-fp {max}"
            ));
        }
    }

    if flags.switch("json") {
        let doc = serde_json::json!({
            "spec_name": truth.get("spec_name"),
            "seed": truth.get("seed"),
            "ases": ases.len(),
            "matrix": FleetLabel::ALL.iter().filter_map(|label| {
                let row = rows.get(label.as_str())?;
                Some(serde_json::json!({
                    "label": label.as_str(),
                    "total": row.values().sum::<usize>(),
                    "outcomes": Outcome::COLUMNS.iter().map(|o| {
                        (o.as_str().to_string(), row.get(o.as_str()).copied().unwrap_or(0))
                    }).collect::<BTreeMap<String, usize>>()
                }))
            }).collect::<Vec<_>>(),
            "recall": recall,
            "precision": precision,
            "exact_class_accuracy": exact,
            "false_positives": FleetLabel::ALL.iter()
                .filter(|l| !l.expect_reported())
                .map(|l| (l.as_str().to_string(), fp_of(*l)))
                .collect::<BTreeMap<String, usize>>(),
            "passed": gate_failures.is_empty()
        });
        let mut s = serde_json::to_string_pretty(&doc).expect("score encodes");
        s.push('\n');
        print!("{s}");
    } else {
        println!(
            "{:<24} {:>6} {:>6} {:>6} {:>6} {:>6} {:>11}",
            "label", "total", "None", "Low", "Mild", "Severe", "unanalyzed"
        );
        for label in FleetLabel::ALL {
            let Some(row) = rows.get(label.as_str()) else {
                continue;
            };
            let cell = |o: Outcome| row.get(o.as_str()).copied().unwrap_or(0);
            println!(
                "{:<24} {:>6} {:>6} {:>6} {:>6} {:>6} {:>11}",
                label.as_str(),
                row.values().sum::<usize>(),
                cell(Outcome::None),
                cell(Outcome::Low),
                cell(Outcome::Mild),
                cell(Outcome::Severe),
                cell(Outcome::Unanalyzed),
            );
        }
        println!(
            "recall {recall:.3}  precision {precision:.3}  exact-class {exact:.3}  \
             false positives: clean {} transient {} weekly {} peering {} route-shift {}",
            fp_of(FleetLabel::Clean),
            fp_of(FleetLabel::Transient),
            fp_of(FleetLabel::AdversarialWeekly),
            peering_fp,
            fp_of(FleetLabel::AdversarialRouteShift),
        );
    }

    if !gate_failures.is_empty() {
        return Err(format!(
            "fleet score gates failed: {}",
            gate_failures.join("; ")
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer that fails its `fail_at`-th write (counting from 1) and
    /// every one after, numbering the failures.
    struct FailsFrom {
        fail_at: u32,
        writes: u32,
        kept: Vec<u8>,
    }

    impl Write for FailsFrom {
        fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            if self.writes >= self.fail_at {
                return Err(std::io::Error::other(format!("write {}", self.writes)));
            }
            self.kept.extend_from_slice(bytes);
            Ok(bytes.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// What an ordered pass appended, or its failure, and each task's
    /// outcome.
    type Pass = (Result<Vec<u8>, Failure>, Vec<Result<(), String>>);

    /// Run `tasks` tasks on 3 workers, each appending its index and a
    /// newline in order; task `panics_at` panics before appending.
    fn ordered_pass(tasks: usize, panics_at: Option<usize>) -> Pass {
        let order = InOrder::new(Vec::new());
        let outcomes = run_tasks(3, "ordered-test", tasks, |i| {
            let turn = order.turn(i);
            // Later tasks often finish first.
            std::thread::sleep(std::time::Duration::from_micros(((tasks - i) * 50) as u64));
            if Some(i) == panics_at {
                panic!("task {i} failed");
            }
            turn.append(format!("{i}\n").as_bytes());
        });
        (order.finish(), outcomes)
    }

    #[test]
    fn ordered_appends_land_in_task_order() {
        let (out, outcomes) = ordered_pass(40, None);
        let want: String = (0..40).map(|i| format!("{i}\n")).collect();
        assert_eq!(String::from_utf8(out.ok().unwrap()).unwrap(), want);
        assert!(outcomes.iter().all(Result::is_ok));
    }

    #[test]
    fn a_panicking_task_ends_the_pass_without_stalling_later_ones() {
        let (out, outcomes) = ordered_pass(40, Some(7));
        assert!(matches!(out, Err(Failure::Render(7))));
        assert_eq!(outcomes[7].as_ref().unwrap_err(), "task 7 failed");
        assert_eq!(outcomes.iter().filter(|o| o.is_err()).count(), 1);
    }

    #[test]
    fn the_first_write_error_ends_the_pass() {
        let order = InOrder::new(FailsFrom {
            fail_at: 5,
            writes: 0,
            kept: Vec::new(),
        });
        run_tasks(3, "ordered-test", 20, |i| {
            order.turn(i).append(format!("{i}\n").as_bytes());
        });
        let state = order.state.into_inner().unwrap();
        let Some(Failure::Write(e)) = &state.failure else {
            panic!("the pass hid its write error");
        };
        assert_eq!(e.to_string(), "write 5");
        // Every turn passed, and no append was tried after the failure.
        assert_eq!((state.next, state.out.writes), (20, 5));
        assert_eq!(state.out.kept, b"0\n1\n2\n3\n");
    }

    #[test]
    fn example_spec_round_trips() {
        let text = r#"{
            "name": "smoke",
            "days": 7,
            "classes": {"severe": 2, "clean": 3, "adversarial_peering": 1},
            "probes_per_as": {"min": 3, "max": 6}
        }"#;
        let spec = parse_spec(text).unwrap();
        assert_eq!(spec.name, "smoke");
        assert_eq!(spec.days, 7);
        assert_eq!(spec.classes.severe, 2);
        assert_eq!(spec.classes.clean, 3);
        assert_eq!(spec.classes.adversarial_peering, 1);
        assert_eq!(spec.classes.mild, 0);
        assert_eq!((spec.probes_min, spec.probes_max), (3, 6));
    }

    #[test]
    fn probes_per_as_defaults_when_omitted() {
        let spec = parse_spec(r#"{"name":"x","days":5,"classes":{"clean":1}}"#).unwrap();
        assert_eq!((spec.probes_min, spec.probes_max), (3, 8));
    }

    #[test]
    fn all_spec_problems_are_reported_together() {
        let text = r#"{
            "name": "bad",
            "days": 2,
            "classes": {"severe": 1, "bogus_label": 3},
            "probes_per_as": {"min": 1, "max": 0},
            "surprise": true
        }"#;
        let problems = parse_spec(text).unwrap_err();
        assert!(problems.len() >= 5, "{problems:?}");
        assert!(problems
            .iter()
            .any(|p| p.contains("unknown key \"surprise\"")));
        assert!(problems.iter().any(|p| p.contains("bogus_label")));
        assert!(problems.iter().any(|p| p.contains("Welch")));
        assert!(problems.iter().any(|p| p.contains("inclusion threshold")));
        assert!(problems.iter().any(|p| p.contains("probes_max")));
    }

    #[test]
    fn non_json_spec_is_one_clear_problem() {
        let problems = parse_spec("not json at all").unwrap_err();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("not valid JSON"));
    }

    #[test]
    fn outcome_names_cover_the_detector_classes() {
        for class in ["None", "Low", "Mild", "Severe"] {
            assert_eq!(Outcome::parse(class).unwrap().as_str(), class);
        }
        assert!(Outcome::parse("bogus").is_none());
        assert!(Outcome::Severe.reported() && !Outcome::None.reported());
        assert!(!Outcome::Unanalyzed.reported());
    }
}
