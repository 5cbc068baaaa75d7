//! The four workloads: how each is set up, measured and checked.
//!
//! All of them run the release `lastmile` binary as a user would, over
//! one corpus `lastmile fleet gen` makes from the benchmark's spec and
//! the run's seed. A workload runs its set-up, then one or more
//! measured phases (an untraced run has one; a traced run adds traced
//! ones), then its correctness gates. A phase that needs a daemon gets
//! its own daemon, so a traced phase can switch on the program's access
//! log without disturbing the untraced one.

use crate::client::{self, Request, Sample};
use crate::metrics::Values;
use crate::proc::{self, Exit, Proc};
use crate::stats::{median, percentile};
use lastmile_loadgen::{Mix, Plan};
use serde_json::Value;
use std::cell::{OnceCell, RefCell};
use std::io::{BufRead, Read, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ClassifyCold,
    ClassifyWarm,
    ServeRead,
    LiveIntake,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ClassifyCold,
        Workload::ClassifyWarm,
        Workload::ServeRead,
        Workload::LiveIntake,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ClassifyCold => "classify_cold",
            Workload::ClassifyWarm => "classify_warm",
            Workload::ServeRead => "serve_read",
            Workload::LiveIntake => "live_intake",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Runs of a batch workload per phase, at least; more while the phase
/// lasts.
const MIN_REPS: usize = 3;
/// Daemon worker threads (`--serve-workers`).
const SERVE_WORKERS: &str = "2";
/// The read mix and fixed offered rate (requests per second) both
/// daemon workloads send, so `live_intake` minus `serve_read` is what
/// intake costs readers. 1000 reads in a 10 s run leave ten beyond p99.
const READ_MIX: &str = "classify=4,classify_asn=2,series=2,populations=1,healthz=1";
const READ_RATE: f64 = 100.0;
/// Seconds between intake POSTs in `live_intake`, and records per POST.
/// Spaced wider than one re-analysis pass takes here, so each POST
/// triggers a pass of its own: time to visibility is the debounce plus
/// one pass, and the daemon's CPU is what the passes cost rather than
/// both cores pinned by back-to-back passes.
const POST_INTERVAL_S: f64 = 2.5;
const RECORDS_PER_POST: usize = 25;
/// `live_intake` serves the corpus minus every `HOLDOUT_EVERY`-th line
/// and POSTs the held-out lines.
const HOLDOUT_EVERY: usize = 100;
/// The rate ladder: p99 limit, rung length, growth per rung, the
/// bisection's stopping resolution, and a cap on rungs.
const P99_LIMIT_MS: f64 = 10.0;
const RUNG: Duration = Duration::from_secs(2);
const RUNG_GROWTH: f64 = 1.5;
const RUNG_RESOLUTION: f64 = 0.06;
const MAX_RUNGS: usize = 10;
/// `fleet score` gate every classification must pass.
const SCORE_GATES: [&str; 2] = ["--min-recall", "0.7"];
const READY_TIMEOUT: Duration = Duration::from_secs(120);
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// One measured phase of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    pub secs: f64,
    pub traced: bool,
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end and `program.*` values, one map per phase in phase
    /// order.
    pub phases: Vec<Values>,
    /// Layer values from the traced phases.
    pub layers: Values,
}

/// The generated corpus every workload reads.
#[derive(Default)]
pub struct Corpus {
    pub traceroutes: PathBuf,
    pub probes: PathBuf,
    pub truth: PathBuf,
    pub start: i64,
    pub end: i64,
    pub records: u64,
    /// FNV-1a over the traceroute and probe files.
    pub digest: u64,
    pub gen_wall_s: f64,
}

/// `live_intake`'s inputs: the served base corpus and the POST bodies.
struct LiveInput {
    base: PathBuf,
    posts: Vec<Vec<u8>>,
    digest: u64,
}

/// One benchmark invocation's shared state: the program, the corpus,
/// outputs several workloads compare against, and failed gates.
pub struct Bench {
    bin: PathBuf,
    work: PathBuf,
    spec: PathBuf,
    seed: u64,
    connections: usize,
    pub corpus: Corpus,
    cold: OnceCell<Vec<u8>>,
    live: OnceCell<LiveInput>,
    problems: RefCell<Vec<String>>,
}

/// One finished `lastmile` run.
struct Run {
    exit: Exit,
    stdout: Vec<u8>,
    /// The `--stats-out` document, when asked for.
    stats: Option<Value>,
}

impl Run {
    /// The `--stats-out` document of a traced run.
    fn stats(&self) -> &Value {
        self.stats.as_ref().expect("traced runs carry stats")
    }
}

impl Bench {
    /// Generate the corpus for `seed` into `work`.
    pub fn new(
        bin: PathBuf,
        work: PathBuf,
        spec: PathBuf,
        seed: u64,
        connections: usize,
    ) -> Result<Bench, String> {
        let mut bench = Bench {
            bin,
            work,
            spec,
            seed,
            connections,
            corpus: Corpus::default(),
            cold: OnceCell::new(),
            live: OnceCell::new(),
            problems: RefCell::new(Vec::new()),
        };
        let dir = bench.work.join("corpus");
        let gen_wall_s = bench.generate(&dir, "gen")?;
        let truth_path = dir.join("truth.json");
        let truth: Value = serde_json::from_str(&read_text(&truth_path)?)
            .map_err(|e| format!("{}: {e}", truth_path.display()))?;
        let window = |k: &str| {
            truth["window"][k]
                .as_i64()
                .ok_or_else(|| format!("truth.json has no window.{k}"))
        };
        let traceroutes = dir.join("traceroutes.jsonl");
        let probes = dir.join("probes.json");
        sync(&[&traceroutes, &probes])?;
        bench.corpus = Corpus {
            start: window("start")?,
            end: window("end")?,
            records: count_lines(&traceroutes)?,
            digest: digest(&[&traceroutes, &probes])?,
            traceroutes,
            probes,
            truth: truth_path,
            gen_wall_s,
        };
        Ok(bench)
    }

    /// Gates that failed so far.
    pub fn problems(&self) -> Vec<String> {
        self.problems.borrow().clone()
    }

    /// Record a failed gate unless `ok`.
    pub fn check(&self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let what = what();
            eprintln!("[bench] gate failed: {what}");
            self.problems.borrow_mut().push(what);
        }
    }

    /// The digest of every input `w` reads.
    pub fn input_digest(&self, w: Workload) -> Result<u64, String> {
        Ok(match w {
            Workload::LiveIntake => self.live_input()?.digest,
            _ => self.corpus.digest,
        })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }

    /// Run `lastmile args` to completion, stdout and stderr to files
    /// named after `tag`.
    fn lastmile(&self, args: &[&str], tag: &str) -> Result<(Exit, Vec<u8>), String> {
        let out = self.path(&format!("{tag}.out"));
        let err = self.path(&format!("{tag}.err"));
        let mut cmd = Command::new(&self.bin);
        cmd.args(args)
            .stdin(Stdio::null())
            .stdout(create(&out)?)
            .stderr(create(&err)?);
        let exit = Proc::spawn(cmd)?.wait();
        let stdout = std::fs::read(&out).map_err(|e| format!("read {}: {e}", out.display()))?;
        Ok((exit, stdout))
    }

    /// [`Bench::lastmile`], failing unless it exits 0.
    fn lastmile_ok(&self, args: &[&str], tag: &str) -> Result<(Exit, Vec<u8>), String> {
        let (exit, stdout) = self.lastmile(args, tag)?;
        if exit.code != Some(0) {
            return Err(format!(
                "lastmile {} ({tag}) exited {:?}: {}",
                args[0],
                exit.code,
                tail(&self.path(&format!("{tag}.err")))
            ));
        }
        Ok((exit, stdout))
    }

    /// `fleet gen` the benchmark's corpus into `dir`; its wall time.
    fn generate(&self, dir: &Path, tag: &str) -> Result<f64, String> {
        let threads = available_cores().to_string();
        let seed = self.seed.to_string();
        let (exit, _) = self.lastmile_ok(
            &[
                "fleet",
                "gen",
                "--spec",
                &path_str(&self.spec)?,
                "--out",
                &path_str(dir)?,
                "--seed",
                &seed,
                "--threads",
                &threads,
            ],
            tag,
        )?;
        Ok(exit.wall_s)
    }

    /// `classify --json` over `traceroutes` with `extra` flags, and
    /// `--stats-out` when `stats`. Quarantined records fail a gate.
    fn classify(
        &self,
        traceroutes: &Path,
        extra: &[&str],
        stats: bool,
        tag: &str,
    ) -> Result<Run, String> {
        let quarantine = self.path(&format!("{tag}.quarantine"));
        let stats_path = self.path(&format!("{tag}.stats.json"));
        let (start, end) = (self.corpus.start.to_string(), self.corpus.end.to_string());
        let (trs, probes) = (path_str(traceroutes)?, path_str(&self.corpus.probes)?);
        let quarantine_arg = path_str(&quarantine)?;
        let stats_arg = path_str(&stats_path)?;
        let mut args = vec![
            "classify",
            "--traceroutes",
            &trs,
            "--probes",
            &probes,
            "--start",
            &start,
            "--end",
            &end,
            "--json",
            "--quarantine",
            &quarantine_arg,
        ];
        args.extend_from_slice(extra);
        if stats {
            args.extend_from_slice(&["--stats-out", &stats_arg]);
        }
        let (exit, stdout) = self.lastmile_ok(&args, tag)?;
        self.check_quarantine(&quarantine, tag);
        let stats = stats
            .then(|| {
                serde_json::from_str::<Value>(&read_text(&stats_path)?)
                    .map_err(|e| format!("{}: {e}", stats_path.display()))
            })
            .transpose()?;
        Ok(Run {
            exit,
            stdout,
            stats,
        })
    }

    fn check_quarantine(&self, path: &Path, tag: &str) {
        let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        self.check(bytes == 0, || format!("{tag}: records were quarantined"));
    }

    /// `classify --json` of the corpus with no cache: the bytes every
    /// other classification must equal. Computed once, untimed, unless
    /// `classify_cold` supplied it.
    pub fn cold_json(&self) -> Result<&[u8], String> {
        if self.cold.get().is_none() {
            let run = self.classify(&self.corpus.traceroutes, &[], false, "cold-reference")?;
            let _ = self.cold.set(run.stdout);
        }
        Ok(self.cold.get().expect("set above"))
    }

    /// `fleet score` a classification against the truth sidecar; a
    /// failing score gate fails the run. Returns (recall, precision).
    fn score(&self, classified: &[u8], tag: &str) -> Result<(f64, f64), String> {
        let path = self.path(&format!("{tag}.classified.json"));
        std::fs::write(&path, classified).map_err(|e| format!("write {}: {e}", path.display()))?;
        let (truth, classified) = (path_str(&self.corpus.truth)?, path_str(&path)?);
        let mut args = vec![
            "fleet",
            "score",
            "--truth",
            &truth,
            "--classified",
            &classified,
            "--json",
        ];
        args.extend(SCORE_GATES);
        let (exit, stdout) = self.lastmile(&args, &format!("{tag}-score"))?;
        self.check(exit.code == Some(0), || {
            format!("{tag}: fleet score gates failed")
        });
        let doc: Value =
            parse_json(&stdout).map_err(|e| format!("{tag}: fleet score output: {e}"))?;
        let get = |k: &str| {
            doc[k]
                .as_f64()
                .ok_or_else(|| format!("{tag}: fleet score has no {k}"))
        };
        Ok((get("recall")?, get("precision")?))
    }

    /// Start `serve` over `traceroutes` and wait until its ready file
    /// names the address.
    fn launch(
        &self,
        traceroutes: &Path,
        live: bool,
        access_log: bool,
        tag: &str,
    ) -> Result<Daemon, String> {
        let spool = live.then(|| self.path(&format!("{tag}.spool.jsonl")));
        let ready = self.path(&format!("{tag}.ready"));
        let quarantine = self.path(&format!("{tag}.quarantine"));
        let access = self.path(&format!("{tag}.access.jsonl"));
        let err = self.path(&format!("{tag}.err"));
        let mut cmd = Command::new(&self.bin);
        cmd.args(["serve", "--traceroutes"])
            .arg(traceroutes)
            .arg("--probes")
            .arg(&self.corpus.probes)
            .args(["--start", &self.corpus.start.to_string()])
            .args(["--end", &self.corpus.end.to_string()])
            .args(["--addr", "127.0.0.1:0", "--serve-workers", SERVE_WORKERS])
            .arg("--ready-file")
            .arg(&ready)
            .arg("--quarantine")
            .arg(&quarantine);
        if let Some(spool) = &spool {
            cmd.arg("--live-spool").arg(spool);
        }
        if access_log {
            cmd.arg("--access-log").arg(&access);
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(create(&err)?);
        let mut proc = Proc::spawn(cmd)?;
        let addr_text = || {
            std::fs::read_to_string(&ready)
                .ok()
                .filter(|s| s.ends_with('\n'))
        };
        proc::wait_until(&mut proc, READY_TIMEOUT, || addr_text().is_some())
            .map_err(|e| format!("serve ({tag}) {e}: {}", tail(&err)))?;
        let ready_s = proc.elapsed_s();
        let addr = lastmile_loadgen::resolve(addr_text().expect("ready").trim())?;
        Ok(Daemon {
            proc,
            addr,
            ready_s,
            access: access_log.then_some(access),
            spool,
            quarantine,
            err,
            tag: tag.to_string(),
        })
    }

    /// Launch `reps` daemons one after another, timing each until
    /// ready; all but the last are stopped. Returns the last and the
    /// median time to ready.
    fn launch_reps(
        &self,
        traceroutes: &Path,
        live: bool,
        reps: usize,
        access_log: bool,
        tag: &str,
    ) -> Result<(Daemon, f64), String> {
        let mut ready = Vec::new();
        let mut daemon = None;
        for i in 0..reps.max(1) {
            let d = self.launch(traceroutes, live, access_log, &format!("{tag}-setup{i}"))?;
            ready.push(d.ready_s);
            if let Some(previous) = daemon.replace(d) {
                previous.stop(self);
            }
        }
        Ok((daemon.expect("at least one launch"), median(&ready)))
    }

    fn live_input(&self) -> Result<&LiveInput, String> {
        if self.live.get().is_none() {
            let input = split_holdout(&self.corpus.traceroutes, &self.path("live-base.jsonl"))?;
            let _ = self.live.set(input);
        }
        Ok(self.live.get().expect("set above"))
    }
}

/// A running `serve` daemon.
struct Daemon {
    proc: Proc,
    addr: SocketAddr,
    ready_s: f64,
    access: Option<PathBuf>,
    /// The `--live-spool` file, in live mode.
    spool: Option<PathBuf>,
    quarantine: PathBuf,
    err: PathBuf,
    tag: String,
}

impl Daemon {
    /// SIGTERM and wait; the daemon must drain and exit 0 without
    /// having quarantined anything.
    fn stop(self, bench: &Bench) {
        let Daemon {
            proc,
            quarantine,
            err,
            tag,
            ..
        } = self;
        let exit = proc.terminate();
        bench.check(exit.code == Some(0), || {
            format!("serve ({tag}) exited {:?}: {}", exit.code, tail(&err))
        });
        bench.check_quarantine(&quarantine, &tag);
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        Ok(self.proc.vm_hwm_kb()? as f64 / 1024.0)
    }
}

/// Run workload `w`: set-up (timed `setup_reps` times), then `phases`.
pub fn run(b: &Bench, w: Workload, setup_reps: usize, phases: &[Phase]) -> Result<Report, String> {
    let mut r = Report::default();
    match w {
        Workload::ClassifyCold => classify_cold(b, setup_reps, phases, &mut r)?,
        Workload::ClassifyWarm => classify_warm(b, setup_reps, phases, &mut r)?,
        Workload::ServeRead => serve_read(b, setup_reps, phases, &mut r)?,
        Workload::LiveIntake => live_intake(b, setup_reps, phases, &mut r)?,
    }
    Ok(r)
}

/// Repeat `f` at least [`MIN_REPS`] times and until `secs` have passed.
fn repeat<T>(secs: f64, mut f: impl FnMut(usize) -> Result<T, String>) -> Result<Vec<T>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_REPS || start.elapsed().as_secs_f64() < secs {
        out.push(f(out.len())?);
    }
    Ok(out)
}

/// End-to-end values of a batch phase: each run is one operation.
fn batch_values(setup_s: f64, runs: &[Run], recall: f64, precision: f64) -> Values {
    let walls_ms: Vec<f64> = runs.iter().map(|r| r.exit.wall_s * 1e3).collect();
    let cpu: Vec<f64> = runs.iter().map(|r| r.exit.cpu_s).collect();
    let rss: Vec<f64> = runs
        .iter()
        .map(|r| r.exit.maxrss_kb as f64 / 1024.0)
        .collect();
    Values::from([
        ("setup_s", setup_s),
        ("peak_rss_mb", median(&rss)),
        ("recall", recall),
        ("precision", precision),
        ("program.p50_ms", median(&walls_ms)),
        ("program.p99_ms", percentile(&walls_ms, 0.99)),
        ("program.cpu_s", median(&cpu)),
        ("program.visible_p50_s", median(&walls_ms) / 1e3),
    ])
}

/// The number at `path` in a `--stats-out` or `/metrics` document.
fn counter(doc: &Value, path: &[&str]) -> Result<f64, String> {
    path.iter()
        .fold(doc, |v, k| &v[*k])
        .as_f64()
        .ok_or_else(|| format!("stats document has no {}", path.join(".")))
}

/// A classify run's wall time not covered by the stages its
/// `--stats-out` accounts for (both ingest passes, series, aggregate,
/// detect, snapshot load and save): process start, probe loading,
/// fingerprinting, rendering.
fn unattributed_ms(run: &Run) -> Result<f64, String> {
    let s = run.stats();
    let modelled_ns = counter(s, &["ingest", "wall_nanos"])?
        + counter(s, &["stage_nanos", "series"])?
        + counter(s, &["stage_nanos", "aggregate"])?
        + counter(s, &["stage_nanos", "detect"])?
        + counter(s, &["store", "snapshot_load_nanos"])?
        + counter(s, &["store", "snapshot_save_nanos"])?;
    Ok(run.exit.wall_s * 1e3 - modelled_ns / 1e6)
}

/// Records a run decoded per corpus record.
fn decodes_per_record(b: &Bench, run: &Run) -> Result<f64, String> {
    Ok(counter(run.stats(), &["ingest", "records_decoded"])? / b.corpus.records as f64)
}

fn median_of(runs: &[Run], f: impl Fn(&Run) -> Result<f64, String>) -> Result<f64, String> {
    Ok(median(&runs.iter().map(f).collect::<Result<Vec<_>, _>>()?))
}

/// The researcher's batch run: `classify --json`, no cache. Set-up is
/// generating the corpus, so work moved into `fleet gen` shows.
fn classify_cold(
    b: &Bench,
    setup_reps: usize,
    phases: &[Phase],
    r: &mut Report,
) -> Result<(), String> {
    let mut gen_walls = vec![b.corpus.gen_wall_s];
    for i in 1..setup_reps {
        let dir = b.path(&format!("regen-{i}"));
        gen_walls.push(b.generate(&dir, &format!("regen-{i}"))?);
        let again = digest(&[&dir.join("traceroutes.jsonl"), &dir.join("probes.json")])?;
        b.check(again == b.corpus.digest, || {
            format!("fleet gen run {i} differs from the first for the same seed")
        });
        remove_dir(&dir);
    }
    let setup_s = median(&gen_walls);
    for (k, phase) in phases.iter().enumerate() {
        let runs = repeat(phase.secs, |n| {
            b.classify(
                &b.corpus.traceroutes,
                &[],
                phase.traced,
                &format!("cold-{k}-{n}"),
            )
        })?;
        r.attempted += runs.len() as u64;
        let _ = b.cold.set(runs[0].stdout.clone());
        let cold = b.cold_json()?;
        for run in &runs {
            b.check(run.stdout == cold, || {
                "cold classify --json differs between runs".into()
            });
        }
        let (recall, precision) = b.score(&runs[0].stdout, &format!("cold-{k}"))?;
        r.phases
            .push(batch_values(setup_s, &runs, recall, precision));
        if phase.traced {
            r.layers.insert(
                "cli.decodes_per_record",
                median_of(&runs, |run| decodes_per_record(b, run))?,
            );
            r.layers.insert(
                "cli.cold_unattributed_ms",
                median_of(&runs, unattributed_ms)?,
            );
        }
    }
    Ok(())
}

/// Repeated classification with a primed series cache read-only. Set-up
/// is the `--cache rw` priming run.
fn classify_warm(
    b: &Bench,
    setup_reps: usize,
    phases: &[Phase],
    r: &mut Report,
) -> Result<(), String> {
    let cold = b.cold_json()?.to_vec();
    let mut prime_walls = Vec::new();
    let mut cache = String::new();
    for i in 0..setup_reps.max(1) {
        cache = path_str(&b.path(&format!("cache-{i}")))?;
        let run = b.classify(
            &b.corpus.traceroutes,
            &["--cache-dir", &cache, "--cache", "rw"],
            false,
            &format!("prime-{i}"),
        )?;
        b.check(run.stdout == cold, || {
            "classify --cache rw from an empty cache differs from cold".into()
        });
        prime_walls.push(run.exit.wall_s);
    }
    let setup_s = median(&prime_walls);
    for (k, phase) in phases.iter().enumerate() {
        let runs = repeat(phase.secs, |n| {
            b.classify(
                &b.corpus.traceroutes,
                &["--cache-dir", &cache, "--cache", "ro"],
                phase.traced,
                &format!("warm-{k}-{n}"),
            )
        })?;
        r.attempted += runs.len() as u64;
        for run in &runs {
            b.check(run.stdout == cold, || {
                "warm classify --json differs from cold".into()
            });
        }
        let (recall, precision) = b.score(&runs[0].stdout, &format!("warm-{k}"))?;
        r.phases
            .push(batch_values(setup_s, &runs, recall, precision));
        if phase.traced {
            r.layers.insert(
                "cli.warm_decodes_per_record",
                median_of(&runs, |run| decodes_per_record(b, run))?,
            );
            r.layers
                .insert("cli.unattributed_ms", median_of(&runs, unattributed_ms)?);
            let hit_ratio = median_of(&runs, |run| {
                let s = run.stats();
                let hits = counter(s, &["store", "hits"])?;
                let all =
                    hits + counter(s, &["store", "misses"])? + counter(s, &["store", "bypasses"])?;
                Ok(if all > 0.0 { hits / all } else { 0.0 })
            })?;
            r.layers.insert("store.hit_ratio", hit_ratio);
        }
    }
    Ok(())
}

/// Read requests at `rate` per second for `secs`, endpoints picked by
/// the read mix's deterministic weighted round robin.
fn reads(rate: f64, secs: f64, asn: u32) -> Vec<Request> {
    let mut mix = Mix::parse(READ_MIX).expect("read mix parses");
    let plan = Plan {
        asn,
        ..Plan::default()
    };
    let n = (rate * secs).round() as usize;
    (0..n)
        .map(|i| {
            let (_, path, _) = plan.request(mix.pick());
            Request::get(Duration::from_secs_f64(i as f64 / rate), path)
        })
        .collect()
}

/// First requests against a fresh daemon: every read endpoint once, so
/// lazily built state is in place before timing. Returns the ASN the
/// per-ASN endpoints target.
fn warm_up(addr: SocketAddr) -> Result<u32, String> {
    client::get(addr, "/healthz")?;
    let asn = lastmile_loadgen::discover_asn(addr, client::TIMEOUT)
        .ok_or("the daemon lists no population")?;
    for req in reads(10.0, 1.0, asn) {
        client::get(addr, &req.path)?;
    }
    Ok(asn)
}

/// Latency, attempt and failure accounting of scheduled requests.
fn tally(r: &mut Report, samples: &[Sample]) {
    r.attempted += samples.len() as u64;
    r.failed += samples.iter().filter(|s| !s.ok()).count() as u64;
}

fn latencies(samples: &[&Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.latency_ms()).collect()
}

/// Client-side layer numbers of read requests.
fn client_layers(layers: &mut Values, reads: &[&Sample]) {
    let of = |f: fn(&Sample) -> f64| reads.iter().map(|s| f(s)).collect::<Vec<f64>>();
    layers.insert("client.connect_us_p50", median(&of(Sample::connect_us)));
    layers.insert("client.ttfb_ms_p50", median(&of(Sample::ttfb_ms)));
    layers.insert("client.ttfb_ms_p99", percentile(&of(Sample::ttfb_ms), 0.99));
    layers.insert("client.body_us_p50", median(&of(Sample::body_us)));
    layers.insert(
        "client.lateness_ms_p99",
        percentile(&of(Sample::lateness_ms), 0.99),
    );
}

/// Server-side time of each request (dequeue to written) from the
/// access log, joined to the schedule by request id.
fn server_micros(access: &Path, label: &str, samples: usize) -> Result<Vec<Option<f64>>, String> {
    let mut by_request = vec![None; samples];
    for line in read_text(access)?.lines() {
        let doc: Value = serde_json::from_str(line).map_err(|e| format!("access log: {e}"))?;
        let id = doc["request_id"].as_str().unwrap_or("");
        let index = id
            .strip_prefix(label)
            .and_then(|rest| rest.strip_prefix('-'))
            .and_then(|n| n.parse::<usize>().ok());
        if let Some(i) = index {
            if i < samples {
                by_request[i] = doc["latency_micros"].as_f64();
            }
        }
    }
    Ok(by_request)
}

/// Open-loop reads of the pre-rendered epoch: the accept, parse and
/// write path, with the analysis layers idle.
fn serve_read(
    b: &Bench,
    setup_reps: usize,
    phases: &[Phase],
    r: &mut Report,
) -> Result<(), String> {
    let cold = b.cold_json()?.to_vec();
    let trs = b.corpus.traceroutes.clone();
    let (first, setup_s) = b.launch_reps(&trs, false, setup_reps, phases[0].traced, "serve")?;
    let mut first = Some(first);
    for (k, phase) in phases.iter().enumerate() {
        let daemon = match first.take() {
            Some(d) => d,
            None => b.launch(&trs, false, phase.traced, &format!("serve-{k}"))?,
        };
        let asn = warm_up(daemon.addr)?;
        let schedule = reads(READ_RATE, phase.secs, asn);
        let cpu0 = daemon.proc.cpu_s()?;
        let samples = client::run(daemon.addr, &schedule, b.connections, "read");
        let cpu_s = daemon.proc.cpu_s()? - cpu0;
        tally(r, &samples);
        let classified = client::get(daemon.addr, "/v1/classify")?;
        b.check(classified == cold, || {
            "serve GET /v1/classify differs from cold classify --json".into()
        });
        let (recall, precision) = b.score(&classified, &format!("serve-{k}"))?;
        let all: Vec<&Sample> = samples.iter().collect();
        let lat = latencies(&all);
        if phase.traced {
            client_layers(&mut r.layers, &all);
            let m = client::get_json(daemon.addr, "/metrics")?;
            r.layers.insert(
                "serve.queue_max_depth",
                counter(&m, &["serve", "queue_max_depth"])?,
            );
            let shed = counter(&m, &["serve", "rejected_busy"])?
                + ["cheap", "heavy", "intake"]
                    .iter()
                    .map(|c| counter(&m, &["serve", "admission", *c, "shed"]))
                    .sum::<Result<f64, String>>()?;
            r.layers.insert("serve.shed", shed);
            r.layers.insert(
                "setup.analysis_ms",
                counter(&m, &["run", "stage_nanos", "wall"])? / 1e6,
            );
            let max_rps =
                client::max_rate(READ_RATE, RUNG_GROWTH, RUNG_RESOLUTION, MAX_RUNGS, |rate| {
                    let rung = reads(rate, RUNG.as_secs_f64(), asn);
                    let samples = client::run(daemon.addr, &rung, b.connections, "rung");
                    client::rung_holds(&samples, P99_LIMIT_MS)
                });
            r.layers.insert("serve.max_rps", max_rps);
        }
        let peak_rss_mb = daemon.peak_rss_mb()?;
        let access = daemon.access.clone();
        daemon.stop(b);
        if let (true, Some(access)) = (phase.traced, access) {
            let server = server_micros(&access, "read", samples.len())?;
            let handler: Vec<f64> = server.iter().flatten().copied().collect();
            b.check(handler.len() == samples.len(), || {
                format!(
                    "access log covers {} of {} requests",
                    handler.len(),
                    samples.len()
                )
            });
            r.layers.insert("serve.handler_us_p50", median(&handler));
            r.layers
                .insert("serve.handler_us_p99", percentile(&handler, 0.99));
            let unattributed: Vec<f64> = samples
                .iter()
                .zip(&server)
                .filter_map(|(s, us)| us.map(|us| s.ttfb_ms() - us / 1e3))
                .collect();
            r.layers
                .insert("serve.unattributed_ms_p50", median(&unattributed));
        }
        r.phases.push(Values::from([
            ("setup_s", setup_s),
            ("peak_rss_mb", peak_rss_mb),
            ("recall", recall),
            ("precision", precision),
            ("program.p50_ms", median(&lat)),
            ("program.p99_ms", percentile(&lat, 0.99)),
            ("program.cpu_s", cpu_s),
            // A reader's answer is visible when its response completes.
            ("program.visible_p50_s", median(&lat) / 1e3),
        ]));
    }
    Ok(())
}

/// One published re-analysis pass from `/v1/ops/epochs`, unix ms.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pass {
    pub start_ms: f64,
    pub end_ms: f64,
    pub records_ingested: u64,
    pub swap_nanos: f64,
}

fn published_passes(doc: &Value) -> Result<Vec<Pass>, String> {
    let epochs = doc["epochs"]
        .as_array()
        .ok_or("/v1/ops/epochs has no epochs array")?;
    let mut passes = Vec::new();
    for e in epochs {
        if e["outcome"].as_str() != Some("published") {
            continue;
        }
        let num = |k: &str| {
            e[k].as_f64()
                .ok_or_else(|| format!("epoch record has no {k}"))
        };
        let end_ms = num("unix_ms")?;
        passes.push(Pass {
            start_ms: end_ms - num("pass_nanos")? / 1e6,
            end_ms,
            records_ingested: e["records_ingested"].as_u64().unwrap_or(0),
            swap_nanos: num("swap_nanos")?,
        });
    }
    passes.sort_by(|a, b| a.start_ms.total_cmp(&b.start_ms));
    Ok(passes)
}

/// For each POST acknowledged at `acks_ms`, the first pass that started
/// after the acknowledgement — the pass that makes its records visible.
pub fn visible_pass(acks_ms: &[f64], passes: &[Pass]) -> Vec<Option<Pass>> {
    acks_ms
        .iter()
        .map(|&ack| passes.iter().find(|p| p.start_ms >= ack).copied())
        .collect()
}

/// The write path beside reads: held-out records POSTed into the live
/// spool while reads continue, each POST timed until the first epoch
/// that reflects it is published.
fn live_intake(
    b: &Bench,
    setup_reps: usize,
    phases: &[Phase],
    r: &mut Report,
) -> Result<(), String> {
    let live = b.live_input()?;
    // Live layers come from /metrics and /v1/ops/epochs; no access log.
    let (first, setup_s) = b.launch_reps(&live.base, true, setup_reps, false, "live")?;
    let mut first = Some(first);
    for (k, phase) in phases.iter().enumerate() {
        let tag = format!("live-{k}");
        let daemon = match first.take() {
            Some(d) => d,
            None => b.launch(&live.base, true, false, &tag)?,
        };
        let spool = daemon.spool.clone().expect("live daemons have a spool");
        let asn = warm_up(daemon.addr)?;
        let mut schedule = reads(READ_RATE, phase.secs, asn);
        // Due mid-interval: at 1.25, 3.75, 6.25 and 8.75 s of a 10 s phase.
        let posts =
            ((phase.secs / POST_INTERVAL_S - 0.5).ceil().max(1.0) as usize).min(live.posts.len());
        for (i, body) in live.posts.iter().take(posts).enumerate() {
            schedule.push(Request {
                due: Duration::from_secs_f64((i as f64 + 0.5) * POST_INTERVAL_S),
                method: "POST",
                path: "/v1/traceroutes".into(),
                body: body.clone(),
            });
        }
        schedule.sort_by_key(|req| req.due);
        let cpu0 = daemon.proc.cpu_s()?;
        let samples = client::run(daemon.addr, &schedule, b.connections, "live");
        tally(r, &samples);
        let (post_samples, read_samples): (Vec<(&Request, &Sample)>, Vec<_>) = schedule
            .iter()
            .zip(&samples)
            .partition(|(req, _)| req.is_post());
        let read_samples: Vec<&Sample> = read_samples.into_iter().map(|(_, s)| s).collect();
        let post_samples: Vec<&Sample> = post_samples.into_iter().map(|(_, s)| s).collect();
        let posted: u64 = post_samples
            .iter()
            .filter(|s| s.ok())
            .map(|s| {
                let doc = parse_json(&s.body).unwrap_or(Value::Null);
                b.check(
                    doc["rejected"].as_array().is_some_and(|r| r.is_empty()),
                    || "a POST had records rejected".into(),
                );
                doc["accepted"].as_u64().unwrap_or(0)
            })
            .sum();

        // Drain: every acknowledged record analysed and its epoch
        // published.
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        let passes = loop {
            let m = client::get_json(daemon.addr, "/metrics")?;
            let lag = counter(&m, &["live", "ingest_lag"])?;
            if lag == 0.0 {
                let passes = published_passes(&client::get_json(daemon.addr, "/v1/ops/epochs")?)?;
                if passes.last().is_some_and(|p| p.records_ingested >= posted) {
                    break passes;
                }
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "{tag}: live engine did not drain within {DRAIN_TIMEOUT:?}"
                ));
            }
            std::thread::sleep(Duration::from_millis(100));
        };
        // Through the drain, so the window holds every pass whole.
        let cpu_s = daemon.proc.cpu_s()? - cpu0;
        let acks: Vec<f64> = post_samples
            .iter()
            .filter(|s| s.ok())
            .map(|s| s.done_unix_ms)
            .collect();
        let matched = visible_pass(&acks, &passes);
        b.check(matched.iter().all(Option::is_some), || {
            format!("{tag}: a POST was never followed by a published pass")
        });
        let visible_s: Vec<f64> = acks
            .iter()
            .zip(&matched)
            .filter_map(|(ack, p)| p.map(|p| (p.end_ms - ack) / 1e3))
            .collect();

        // Gate: after the drain, live /v1/classify is byte-identical to
        // a cold classify over base + spool.
        let union = b.path(&format!("{tag}.union.jsonl"));
        concat(&[&live.base, &spool], &union)?;
        let expected = b
            .classify(&union, &[], false, &format!("{tag}-union"))?
            .stdout;
        let classified = client::get(daemon.addr, "/v1/classify")?;
        b.check(classified == expected, || {
            "live GET /v1/classify differs from cold classify over base + spool".into()
        });
        let (recall, precision) = b.score(&classified, &tag)?;

        if phase.traced {
            // Only this phase's POSTs trigger passes, so every pass in
            // the ring belongs to the phase.
            let pass_ms: Vec<f64> = passes.iter().map(|p| p.end_ms - p.start_ms).collect();
            let m = client::get_json(daemon.addr, "/metrics")?;
            let decoded_per_pass = counter(&m, &["run", "ingest", "records_decoded"])?;
            r.layers.insert("live.pass_ms_p50", median(&pass_ms));
            r.layers.insert("live.passes", passes.len() as f64);
            r.layers.insert(
                "live.decoded_per_appended",
                passes.len() as f64 * decoded_per_pass / posted.max(1) as f64,
            );
            r.layers.insert(
                "live.swap_us_p50",
                median(
                    &passes
                        .iter()
                        .map(|p| p.swap_nanos / 1e3)
                        .collect::<Vec<_>>(),
                ),
            );
            r.layers
                .insert("live.visible_p90_s", percentile(&visible_s, 0.9));
            let waited: Vec<f64> = acks
                .iter()
                .zip(&matched)
                .filter_map(|(ack, p)| p.map(|p| p.start_ms - ack))
                .collect();
            r.layers.insert("live.unattributed_ms_p50", median(&waited));
            r.layers
                .insert("client.post_ack_ms_p50", median(&latencies(&post_samples)));
        }
        let peak_rss_mb = daemon.peak_rss_mb()?;
        daemon.stop(b);
        let lat = latencies(&read_samples);
        r.phases.push(Values::from([
            ("setup_s", setup_s),
            ("peak_rss_mb", peak_rss_mb),
            ("recall", recall),
            ("precision", precision),
            ("program.p50_ms", median(&lat)),
            ("program.p99_ms", percentile(&lat, 0.99)),
            ("program.cpu_s", cpu_s),
            ("program.visible_p50_s", median(&visible_s)),
        ]));
    }
    Ok(())
}

/// Split `corpus` into the served base (every line but each
/// `HOLDOUT_EVERY`-th) written to `base`, and POST bodies of
/// `RECORDS_PER_POST` held-out lines each.
fn split_holdout(corpus: &Path, base: &Path) -> Result<LiveInput, String> {
    let file =
        std::fs::File::open(corpus).map_err(|e| format!("open {}: {e}", corpus.display()))?;
    let mut out = std::io::BufWriter::new(create(base)?);
    let mut held: Vec<Vec<u8>> = Vec::new();
    for (i, line) in std::io::BufReader::new(file).split(b'\n').enumerate() {
        let mut line = line.map_err(|e| format!("read {}: {e}", corpus.display()))?;
        line.push(b'\n');
        if i % HOLDOUT_EVERY == HOLDOUT_EVERY - 1 {
            held.push(line);
        } else {
            out.write_all(&line)
                .map_err(|e| format!("write {}: {e}", base.display()))?;
        }
    }
    out.flush()
        .map_err(|e| format!("write {}: {e}", base.display()))?;
    sync(&[base])?;
    let posts: Vec<Vec<u8>> = held.chunks(RECORDS_PER_POST).map(|c| c.concat()).collect();
    let mut h = fnv_file(base, FNV_OFFSET)?;
    for p in &posts {
        h = fnv(h, p);
    }
    Ok(LiveInput {
        base: base.to_path_buf(),
        posts,
        digest: h,
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

fn fnv_file(path: &Path, mut h: u64) -> Result<u64, String> {
    let mut file =
        std::fs::File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let mut buf = vec![0u8; 1 << 16];
    loop {
        let n = file
            .read(&mut buf)
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        if n == 0 {
            return Ok(h);
        }
        h = fnv(h, &buf[..n]);
    }
}

/// FNV-1a over the files' bytes, in order.
fn digest(paths: &[&Path]) -> Result<u64, String> {
    paths.iter().try_fold(FNV_OFFSET, |h, p| fnv_file(p, h))
}

/// Flush freshly written inputs to disk now, so their writeback does not
/// land in a later timed phase (or the next run).
fn sync(paths: &[&Path]) -> Result<(), String> {
    for p in paths {
        std::fs::File::open(p)
            .and_then(|f| f.sync_all())
            .map_err(|e| format!("sync {}: {e}", p.display()))?;
    }
    Ok(())
}

fn count_lines(path: &Path) -> Result<u64, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let mut n = 0u64;
    for line in std::io::BufReader::new(file).split(b'\n') {
        line.map_err(|e| format!("read {}: {e}", path.display()))?;
        n += 1;
    }
    Ok(n)
}

fn concat(parts: &[&Path], out: &Path) -> Result<(), String> {
    let mut w = create(out)?;
    for p in parts {
        let mut f = std::fs::File::open(p).map_err(|e| format!("open {}: {e}", p.display()))?;
        std::io::copy(&mut f, &mut w).map_err(|e| format!("write {}: {e}", out.display()))?;
    }
    Ok(())
}

fn parse_json(bytes: &[u8]) -> Result<Value, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
    serde_json::from_str(text).map_err(|e| e.to_string())
}

fn create(path: &Path) -> Result<std::fs::File, String> {
    std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))
}

fn read_text(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))
}

fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

fn path_str(path: &Path) -> Result<String, String> {
    path.to_str()
        .map(str::to_string)
        .ok_or_else(|| format!("non-UTF-8 path {}", path.display()))
}

/// The last lines of a child's stderr, for error messages.
fn tail(path: &Path) -> String {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let lines: Vec<&str> = text.lines().collect();
    lines[lines.len().saturating_sub(5)..].join(" | ")
}

pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(start_ms: f64, end_ms: f64) -> Pass {
        Pass {
            start_ms,
            end_ms,
            records_ingested: 0,
            swap_nanos: 0.0,
        }
    }

    #[test]
    fn a_post_is_visible_at_the_end_of_the_first_pass_started_after_its_ack() {
        let passes = [
            pass(100.0, 900.0),
            pass(950.0, 1700.0),
            pass(1800.0, 2500.0),
        ];
        let got = visible_pass(&[50.0, 100.0, 120.0, 1750.0, 2600.0], &passes);
        assert_eq!(
            got,
            vec![
                Some(passes[0]),
                Some(passes[0]),
                // A pass already running at the ack may have read the
                // spool before the record landed: wait for the next.
                Some(passes[1]),
                Some(passes[2]),
                None,
            ]
        );
    }

    #[test]
    fn epochs_document_yields_published_passes_in_start_order() {
        let doc: Value = serde_json::from_str(
            r#"{"epochs":[
                {"epoch":3,"outcome":"published","unix_ms":5000,"pass_nanos":2000000000,"swap_nanos":1500,"records_ingested":50},
                {"epoch":3,"outcome":"error","unix_ms":5100,"pass_nanos":1000000,"swap_nanos":0,"records_ingested":75},
                {"epoch":2,"outcome":"published","unix_ms":2500,"pass_nanos":500000000,"swap_nanos":900,"records_ingested":25}
            ]}"#,
        )
        .unwrap();
        let passes = published_passes(&doc).unwrap();
        assert_eq!(
            passes,
            vec![
                Pass {
                    start_ms: 2000.0,
                    end_ms: 2500.0,
                    records_ingested: 25,
                    swap_nanos: 900.0
                },
                Pass {
                    start_ms: 3000.0,
                    end_ms: 5000.0,
                    records_ingested: 50,
                    swap_nanos: 1500.0
                },
            ]
        );
    }

    #[test]
    fn read_schedule_is_evenly_spaced_and_follows_the_mix() {
        let reqs = reads(100.0, 1.0, 64500);
        assert_eq!(reqs.len(), 100);
        assert_eq!(reqs[10].due, Duration::from_millis(100));
        let count = |p: &str| reqs.iter().filter(|r| r.path == p).count();
        assert_eq!(count("/v1/classify"), 40);
        assert_eq!(count("/v1/classify/64500"), 20);
        assert_eq!(count("/v1/series/64500"), 20);
        assert_eq!(count("/v1/populations"), 10);
        assert_eq!(count("/healthz"), 10);
    }

    #[test]
    fn holdout_split_keeps_every_line_exactly_once() {
        let dir =
            std::env::temp_dir().join(format!("lastmile-benchmark-split-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let corpus = dir.join("c.jsonl");
        let lines: Vec<String> = (0..260).map(|i| format!("{{\"n\":{i}}}\n")).collect();
        std::fs::write(&corpus, lines.concat()).unwrap();
        let input = split_holdout(&corpus, &dir.join("base.jsonl")).unwrap();
        let base = std::fs::read_to_string(&input.base).unwrap();
        assert_eq!(base.lines().count(), 258);
        assert_eq!(input.posts.len(), 1);
        assert_eq!(
            input.posts[0],
            [lines[99].as_bytes(), lines[199].as_bytes()].concat()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
