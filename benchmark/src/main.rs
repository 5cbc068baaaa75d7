//! `lastmile-benchmark`: the end-to-end benchmark of the lastmile
//! observatory. It builds the release `lastmile` binary from the
//! checkout it lives in, generates a corpus with `lastmile fleet gen`,
//! drives the binary as a user would, checks every output, and prints
//! each metric by name with its unit. See README.md.
//!
//! ```text
//! lastmile-benchmark --workload NAME --seed N [--seconds S] [--trace 0|1] [--smoke]
//! lastmile-benchmark run [--seed N] [--reps R] [--seconds S] [--traced] [--smoke] [--out FILE]
//! lastmile-benchmark compare A.json B.json
//! ```
//!
//! The first form is one run of one workload; its last line of standard
//! output is the JSON result `{"correct", "attempted", "failed",
//! "metrics"}`. `run` repeats it over every workload and `R` seeds
//! starting at `N` (plus one traced run per workload with `--traced`)
//! and writes a results file that `compare` judges against another.

mod client;
mod compare;
mod layers;
mod metrics;
mod proc;
mod stats;
mod workloads;

use metrics::{result_line, Metric, Values, END_TO_END, PER_LAYER, PROGRAM};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{available_cores, Bench, Phase, Workload};

/// Seconds one run measures unless `--seconds` says otherwise; equal to
/// `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 10.0;
/// Phase length of `--smoke` runs, which also set up only once.
const SMOKE_SECONDS: f64 = 3.0;
/// Times a run repeats its workload's set-up to report the median.
const SETUP_REPS: usize = 3;
/// Phase length of the other workloads' traced phases in a traced run.
const COMPANION_SECONDS: f64 = 3.0;
/// Connections (and client threads) the open-loop client may use, at
/// most; never more than the host's cores.
const CONNECTIONS: usize = 2;
/// Run times whose traced-minus-untraced difference a traced run reports
/// as tracing overhead.
const OVERHEAD: [(&str, &str); 3] = [
    ("overhead.p50_ms", "program.p50_ms"),
    ("overhead.p99_ms", "program.p99_ms"),
    ("overhead.cpu_s", "program.cpu_s"),
];

fn usage() -> String {
    "usage:\n  \
     lastmile-benchmark --workload classify_cold|classify_warm|serve_read|live_intake --seed N [--seconds S] [--trace 0|1] [--smoke]\n  \
     lastmile-benchmark run [--seed N] [--reps R] [--seconds S] [--traced] [--smoke] [--out FILE]\n  \
     lastmile-benchmark compare A.json B.json"
        .to_string()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_sets(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        Some(_) => one_run(&args),
        None => Err(usage()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--name value` flags plus the named boolean `switches`.
struct Flags {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], switches: &[&str]) -> Result<Flags, String> {
        let mut flags = Flags {
            values: BTreeMap::new(),
            switches: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {arg}\n{}", usage()))?;
            if switches.contains(&name) {
                flags.switches.push(name.to_string());
            } else {
                let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                flags.values.insert(name.to_string(), value.clone());
            }
        }
        Ok(flags)
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.values.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("invalid --{name} {v}")),
        }
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// `--seconds`, a positive number, defaulting by mode.
    fn seconds(&self, smoke: bool) -> Result<f64, String> {
        let default = if smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        };
        let seconds: f64 = self.get("seconds", default)?;
        if seconds.is_finite() && seconds > 0.0 {
            Ok(seconds)
        } else {
            Err(format!("--seconds must be positive, got {seconds}"))
        }
    }
}

/// This package's directory; the repository root is its parent.
fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// A scratch directory removed (with everything in it) on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(path: PathBuf) -> Result<WorkDir, String> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent); // only if now empty
        }
    }
}

/// Build the release `lastmile` binary of the checkout at `root` and
/// return its path (under `CARGO_TARGET_DIR` when that is set).
fn build_program(root: &Path) -> Result<PathBuf, String> {
    let out = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "lastmile-cli",
        ])
        .arg("--message-format=json-render-diagnostics")
        .current_dir(root)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("run cargo build: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "cargo build of lastmile-cli failed ({})",
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .filter_map(|line| serde_json::from_str::<Value>(line).ok())
        .find(|msg| {
            msg["reason"].as_str() == Some("compiler-artifact")
                && msg["target"]["name"].as_str() == Some("lastmile")
        })
        .and_then(|msg| msg["executable"].as_str().map(PathBuf::from))
        .ok_or_else(|| "cargo build reported no lastmile executable".to_string())
}

/// One run of one workload: the form `BENCHMARK.json`'s command runs.
fn one_run(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["smoke"])?;
    let name = flags
        .values
        .get("workload")
        .ok_or_else(|| format!("missing --workload\n{}", usage()))?;
    let w = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}\n{}", usage()))?;
    let seed: u64 = flags
        .values
        .get("seed")
        .ok_or("missing --seed")?
        .parse()
        .map_err(|_| "invalid --seed")?;
    let smoke = flags.switch("smoke");
    let seconds = flags.seconds(smoke)?;
    let traced = match flags.get("trace", 0u8)? {
        0 => false,
        1 => true,
        t => return Err(format!("invalid --trace {t} (0|1)")),
    };

    let dir = bench_dir();
    let root = dir
        .parent()
        .ok_or("the benchmark has no parent directory")?;
    let bin = build_program(root)?;
    let work = WorkDir::create(dir.join("work").join(format!(
        "{}-{seed}-{}",
        w.name(),
        std::process::id()
    )))?;
    let spec = dir.join("fleet.json");
    let connections = CONNECTIONS.min(available_cores());
    let bench = Bench::new(bin, work.0.clone(), spec, seed, connections)?;
    let digest = bench.input_digest(w)?;
    eprintln!(
        "[bench] {} seed {seed}: {} traceroutes, input digest {digest:016x}",
        w.name(),
        bench.corpus.records
    );

    // An untraced run also prints its run times, which its result line
    // leaves to the layer metrics.
    let (declared, also_shown, values, attempted, failed) = if traced {
        let (values, attempted, failed) = traced_run(&bench, w, seconds, &work.0)?;
        (PER_LAYER, &[][..], values, attempted, failed)
    } else {
        let setup_reps = if smoke { 1 } else { SETUP_REPS };
        let r = workloads::run(
            &bench,
            w,
            setup_reps,
            &[Phase {
                secs: seconds,
                traced: false,
            }],
        )?;
        (
            END_TO_END,
            PROGRAM,
            r.phases[0].clone(),
            r.attempted,
            r.failed,
        )
    };
    let correct = bench.problems().is_empty();
    println!("input_digest {digest:016x}");
    for m in declared.iter().chain(also_shown) {
        let v = values.get(m.name).copied().unwrap_or(f64::NAN);
        println!("{:<32} {v:>16.6} {}", m.name, m.unit);
    }
    println!(
        "{}",
        result_line(correct, attempted, failed, declared, &values)?
    );
    Ok(correct)
}

/// A traced run of `w`: its untraced and traced phases back to back
/// (their difference is the tracing overhead), a traced phase of every
/// other workload for the layers `w` does not reach, and the in-process
/// layer pass. Returns the layer values, attempted and failed counts.
fn traced_run(
    bench: &Bench,
    w: Workload,
    seconds: f64,
    work: &Path,
) -> Result<(Values, u64, u64), String> {
    let half = seconds / 2.0;
    let own = workloads::run(
        bench,
        w,
        1,
        &[
            Phase {
                secs: half,
                traced: false,
            },
            Phase {
                secs: half,
                traced: true,
            },
        ],
    )?;
    let (mut attempted, mut failed) = (own.attempted, own.failed);
    let mut layers = own.layers;
    for m in PROGRAM {
        layers.insert(m.name, own.phases[0][m.name]);
    }
    for (name, metric) in OVERHEAD {
        layers.insert(name, own.phases[1][metric] - own.phases[0][metric]);
    }
    for other in Workload::ALL.into_iter().filter(|o| *o != w) {
        let r = workloads::run(
            bench,
            other,
            1,
            &[Phase {
                secs: COMPANION_SECONDS,
                traced: true,
            }],
        )?;
        attempted += r.attempted;
        failed += r.failed;
        for (k, v) in r.layers {
            layers.entry(k).or_insert(v);
        }
    }
    let pass = layers::measure(&bench.corpus, &work.join("layer-pass.lmss"))?;
    let cold: Value =
        serde_json::from_str(std::str::from_utf8(bench.cold_json()?).map_err(|e| e.to_string())?)
            .map_err(|e| format!("classify --json output: {e}"))?;
    let cli: Vec<(u64, String, u64)> = cold
        .as_array()
        .map(|docs| {
            docs.iter()
                .map(|d| {
                    (
                        d["asn"].as_u64().unwrap_or(0),
                        d["class"].as_str().unwrap_or("").to_string(),
                        d["probes"].as_u64().unwrap_or(0),
                    )
                })
                .collect()
        })
        .unwrap_or_default();
    bench.check(pass.classes == cli, || {
        "the in-process layer pass classifies differently from classify --json".into()
    });
    layers.extend(pass.values);
    Ok((layers, attempted, failed))
}

/// `run`: one-run invocations of this binary over every workload and
/// `--reps` seeds, plus one traced run per workload with `--traced`.
/// Prints the median of each metric and writes `--out`.
fn run_sets(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["traced", "smoke"])?;
    let seed: u64 = flags.get("seed", 646)?;
    let reps: u64 = flags.get("reps", 1)?;
    let smoke = flags.switch("smoke");
    let seconds = flags.seconds(smoke)?;
    let exe = std::env::current_exe().map_err(|e| format!("locate this binary: {e}"))?;
    let mut plan: Vec<(Workload, u64, bool)> = Vec::new();
    for s in seed..seed + reps {
        plan.extend(Workload::ALL.map(|w| (w, s, false)));
    }
    if flags.switch("traced") {
        plan.extend(Workload::ALL.map(|w| (w, seed, true)));
    }
    let mut runs = Vec::new();
    let mut all_correct = true;
    for (w, s, traced) in plan {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name(), "--seed", &s.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }]);
        if smoke {
            cmd.arg("--smoke");
        }
        let out = cmd
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("run {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let result: Value = stdout
            .lines()
            .last()
            .and_then(|l| serde_json::from_str(l).ok())
            .ok_or_else(|| format!("{} seed {s}: no result ({})", w.name(), out.status))?;
        let digest = stdout
            .lines()
            .find_map(|l| l.strip_prefix("input_digest "))
            .unwrap_or("")
            .to_string();
        all_correct &= out.status.success() && result["correct"] == Value::Bool(true);
        let mut fields = vec![
            ("workload", Value::String(w.name().into())),
            ("seed", serde_json::to_value(&s)),
            ("trace", Value::Bool(traced)),
            ("input_digest", Value::String(digest)),
            ("result", result),
        ];
        if !traced {
            fields.push(("program", program_times(&stdout)));
        }
        runs.push(obj(fields));
    }
    print_medians(&runs);
    if let Some(path) = flags.values.get("out") {
        let doc = obj(vec![
            ("host", host_context()),
            ("smoke", Value::Bool(smoke)),
            ("seconds", serde_json::to_value(&seconds)),
            ("runs", Value::Array(runs)),
        ]);
        let mut text = serde_json::to_string_pretty(&doc).expect("results encode");
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("[bench] wrote {path}");
    }
    Ok(all_correct)
}

/// The `program.*` run times an untraced run printed, by name.
fn program_times(stdout: &str) -> Value {
    let times = stdout.lines().filter_map(|line| {
        let mut words = line.split_whitespace();
        let name = words.next()?;
        let m = PROGRAM.iter().find(|m| m.name == name)?;
        let value: f64 = words.next()?.parse().ok()?;
        Some((m.name, serde_json::to_value(&value)))
    });
    obj(times.collect())
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Cores, toolchain and source revision the results were measured on.
fn host_context() -> Value {
    let output = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .current_dir(bench_dir())
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    obj(vec![
        ("cores", serde_json::to_value(&(available_cores() as u64))),
        ("rustc", Value::String(output("rustc", &["--version"]))),
        (
            "git_rev",
            Value::String(output("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

/// Median of every metric per workload and run kind, with units.
fn print_medians(runs: &[Value]) {
    for traced in [false, true] {
        for w in Workload::ALL {
            let of_kind: Vec<&Value> = runs
                .iter()
                .filter(|r| {
                    r["workload"].as_str() == Some(w.name()) && r["trace"] == Value::Bool(traced)
                })
                .collect();
            if of_kind.is_empty() {
                continue;
            }
            println!(
                "{}{} ({} run(s)):",
                w.name(),
                if traced { " traced" } else { "" },
                of_kind.len()
            );
            let shown: Vec<&Metric> = if traced {
                PER_LAYER.iter().collect()
            } else {
                END_TO_END.iter().chain(PROGRAM).collect()
            };
            for m in shown {
                let vals: Vec<f64> = of_kind
                    .iter()
                    .filter_map(|r| {
                        r["result"]["metrics"][m.name]["value"]
                            .as_f64()
                            .or_else(|| r["program"][m.name].as_f64())
                    })
                    .collect();
                println!("  {:<32} {:>16.6} {}", m.name, stats::median(&vals), m.unit);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seconds_equal_benchmark_json_run_seconds() {
        let doc: Value = serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(doc["run_seconds"].as_f64(), Some(DEFAULT_SECONDS));
    }

    #[test]
    fn flags_parse_values_and_switches() {
        let args: Vec<String> = ["--seed", "7", "--smoke", "--trace", "1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = Flags::parse(&args, &["smoke"]).unwrap();
        assert_eq!(f.get("seed", 0u64).unwrap(), 7);
        assert_eq!(f.get("trace", 0u8).unwrap(), 1);
        assert_eq!(f.seconds(false).unwrap(), 10.0);
        assert_eq!(f.seconds(true).unwrap(), 3.0);
        let zero: Vec<String> = ["--seconds", "0"].iter().map(|s| s.to_string()).collect();
        assert!(Flags::parse(&zero, &[]).unwrap().seconds(false).is_err());
        assert!(f.switch("smoke"));
        assert!(Flags::parse(&args[..1], &[]).is_err());
        assert!(Flags::parse(&["seed".to_string()], &[]).is_err());
    }
}
