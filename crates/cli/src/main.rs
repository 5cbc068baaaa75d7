//! `lastmile` — the command-line face of the reproduction, in the spirit
//! of the paper's released tooling (raclette): point it at RIPE-Atlas-
//! format traceroute data and get per-AS persistent-congestion
//! classifications, serve them from a live daemon, or export simulated
//! datasets for downstream tools. [`usage`] lists every subcommand and
//! its flags; each subcommand accepts only the flags in its
//! [`accepted_flags`] list.

mod bgp;
mod cache;
mod classify;
mod fleet;
mod hygiene;
mod input;
mod lint;
mod loadgen;
mod progress;
mod serve;
mod simulate;
mod stats;
mod throughput;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Parsed command-line flags: `--name value` pairs after the subcommand.
/// `Clone` so a long-lived daemon can hand a copy to its re-analysis
/// engine.
#[derive(Clone)]
pub struct Flags {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut values = BTreeMap::new();
        let mut switches = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument {arg}"));
            };
            // Boolean switches take no value.
            if matches!(
                name,
                "json" | "anchors-only" | "stats" | "progress" | "watch"
            ) {
                switches.push(name.to_string());
                i += 1;
                continue;
            }
            // Every other flag takes a value, and a value never starts
            // with `--`: a removed or mistyped switch must not swallow
            // the flag after it.
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("--{name} needs a value"))?;
            if value.starts_with("--") {
                return Err(format!("--{name} needs a value, got {value}"));
            }
            values.insert(name.to_string(), value.clone());
            i += 2;
        }
        Ok(Flags { values, switches })
    }

    /// A required string flag.
    pub fn required(&self, name: &str) -> Result<&str, String> {
        self.values
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{name}"))
    }

    /// An optional string flag.
    pub fn optional(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// An optional parsed flag.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.values.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid value for --{name}: {v}")),
        }
    }

    /// An optional thread-count flag, refused above
    /// [`lastmile_repro::runner::MAX_WORKERS`] before any thread starts:
    /// a mistyped count is a usage error, not a failed spawn.
    pub fn thread_count(&self, name: &str) -> Result<Option<usize>, String> {
        let max = lastmile_repro::runner::MAX_WORKERS;
        match self.parsed::<usize>(name)? {
            Some(n) if n > max => Err(format!("--{name} {n} is above the limit of {max}")),
            n => Ok(n),
        }
    }

    /// Whether a boolean switch is present.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// Every flag given, value flags and switches alike.
    fn names(&self) -> impl Iterator<Item = &str> {
        self.values.keys().chain(&self.switches).map(String::as_str)
    }
}

fn usage() -> &'static str {
    "usage:\n  \
     lastmile classify --traceroutes FILE [--probes FILE [--anchors-only] | --bgp TABLE.csv] [--start UNIX --end UNIX] [--min-probes N] [--cache-dir DIR [--cache ro|rw]] [--ingest-threads N] [--quarantine FILE] [--json] [--stats | --stats-out FILE] [--populations-csv FILE] [--progress]\n  \
     lastmile hygiene  --traceroutes FILE [classify flags except --json] [--threshold MS]\n  \
     lastmile throughput --cdn FILE.tsv --bgp TABLE.csv [--bin-minutes 15] [--view broadband|mobile|v4|v6] [--csv OUT]\n  \
     lastmile simulate --scenario tokyo|fig1|anchor --out DIR [--seed N] [--days N]\n  \
     lastmile fleet gen --spec SPEC.json --out DIR [--seed N] [--threads N (default 0 = one per core)] [--probes-per-as N [--sample-mode biased|uniform] [--sample-seed N]]\n  \
     lastmile fleet score --truth DIR/truth.json --classified FILE.json [--min-recall F] [--max-peering-fp N] [--json]\n  \
     lastmile serve    --traceroutes FILE [classify flags except --json] [--addr HOST:PORT] [--serve-workers N] [--serve-queue N] [--retry-after SECS] [--ready-file FILE]\n                       \
[--serve-budget-heavy N (0 = workers)]\n                       \
[--watch [--watch-poll-ms MS (min 10)]] [--live-spool FILE] (live: no --cache-dir/--cache)\n                       \
[--ops-sample-ms MS (default 1000, 0 = off)] [--access-log FILE]\n  \
     lastmile loadgen  --addr HOST:PORT [--profile ladder|burst] [--mix classify=4,series=1,...] [--concurrency N] [--timeout-ms MS]\n                       \
[ladder: --rates 25,50,100 --dwell-ms MS] [burst: --requests N --bursts B]\n                       \
[--asn N] [--post-file FILE.jsonl [--post-batch N]] [--out FILE] [--json]\n  \
     lastmile lint     [--prom FILE] [--access-log FILE] [--fleet SPEC.json] (validate Prometheus exposition / access-log JSON lines / fleet specs)\n\n\
     any subcommand also takes --trace FILE to write a Chrome/Perfetto trace of the run\n\
     (streamed to disk as the run goes; serve drains it incrementally until shutdown)"
}

/// The flags the shared corpus analysis reads (`classify`, `hygiene`
/// and `serve` start-up all run it), space-separated.
const ANALYSIS_FLAGS: &str = "traceroutes probes anchors-only bgp start end min-probes \
    cache-dir cache ingest-threads quarantine stats stats-out populations-csv progress";

/// `serve`'s own flags, on top of the classify list. The two
/// `--serve-*delay-ms` hooks slow handlers down for the load tests and
/// stay out of [`usage`].
const SERVE_FLAGS: &str = "addr serve-workers serve-queue retry-after serve-budget-heavy \
    ready-file watch watch-poll-ms live-spool \
    ops-sample-ms access-log serve-delay-ms serve-heavy-delay-ms";

/// The flags `cmd` (with its `fleet` action) accepts, `--trace` aside
/// (it is global); `None` for an unknown subcommand or action, which
/// dispatch reports.
fn accepted_flags(cmd: &str, action: Option<&str>) -> Option<impl Iterator<Item = &'static str>> {
    let lists: &[&str] = match (cmd, action) {
        ("classify", _) => &[ANALYSIS_FLAGS, "json"],
        ("hygiene", _) => &[ANALYSIS_FLAGS, "threshold"],
        ("serve", _) => &[ANALYSIS_FLAGS, SERVE_FLAGS],
        ("simulate", _) => &["scenario out seed days"],
        ("throughput", _) => &["cdn bgp bin-minutes view csv"],
        ("fleet", Some("gen")) => &["spec out seed threads probes-per-as sample-mode sample-seed"],
        ("fleet", Some("score")) => &["truth classified min-recall max-peering-fp json"],
        ("loadgen", _) => &[
            "addr profile mix concurrency timeout-ms requests bursts rates \
            dwell-ms asn post-file post-batch out json",
        ],
        ("lint", _) => &["prom access-log fleet"],
        _ => return None,
    };
    Some(lists.iter().flat_map(|list| list.split_whitespace()))
}

/// Refuse the first flag `cmd` does not accept, as `unknown flag
/// --NAME for SUBCOMMAND`.
fn check_flags(cmd: &str, action: Option<&str>, flags: &Flags) -> Result<(), String> {
    let Some(accepted) = accepted_flags(cmd, action) else {
        return Ok(());
    };
    let accepted: Vec<&str> = accepted.chain(["trace"]).collect();
    match flags.names().find(|name| !accepted.contains(name)) {
        Some(name) => {
            let subcommand = action.map_or(cmd.to_string(), |action| format!("{cmd} {action}"));
            Err(format!("unknown flag --{name} for {subcommand}"))
        }
        // Thread counts are checked here, before any thread starts.
        None => THREAD_FLAGS
            .iter()
            .try_for_each(|name| flags.thread_count(name).map(drop)),
    }
}

/// The flags that set how many threads a subcommand starts.
const THREAD_FLAGS: [&str; 3] = ["ingest-threads", "serve-workers", "threads"];

/// How often the `--trace` stream drains ring buffers to disk. Long
/// commands (a `serve` daemon running for days) persist spans as they
/// go instead of losing the oldest to wrap-around at exit; short
/// commands just get one final drain at finish.
const TRACE_DRAIN_EVERY: std::time::Duration = std::time::Duration::from_millis(500);

/// Install the tracer and start streaming it to a Chrome trace-event
/// JSON file (load it at <https://ui.perfetto.dev> or chrome://tracing).
fn start_trace(path: &str) -> Result<lastmile_repro::obs::trace::TraceStream, String> {
    lastmile_repro::obs::trace::install();
    lastmile_repro::obs::trace::TraceStream::start(path, TRACE_DRAIN_EVERY)
        .map_err(|e| format!("create --trace {path}: {e}"))
}

/// Final drain + footer; the file is a complete document after this.
fn finish_trace(stream: lastmile_repro::obs::trace::TraceStream, path: &str) -> Result<(), String> {
    stream
        .finish()
        .map_err(|e| format!("write --trace {path}: {e}"))?;
    eprintln!("[trace] wrote {path}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    // `fleet` takes an action word (`gen`|`score`) before its flags;
    // peel it off so the strictly `--name value` flag parser never sees
    // a positional.
    let fleet_action = (cmd == "fleet")
        .then(|| args.get(1).filter(|a| !a.starts_with("--")).cloned())
        .flatten();
    let flag_start = if fleet_action.is_some() { 2 } else { 1 };
    let flags = match Flags::parse(&args[flag_start..])
        .and_then(|f| check_flags(cmd, fleet_action.as_deref(), &f).map(|()| f))
    {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // `--trace` installs the tracer and starts the disk stream before
    // dispatch so every span of the run is captured, and finishes it
    // after — even when the subcommand fails, since a trace of a failing
    // run is exactly what you want to look at.
    let trace_path = flags.optional("trace").map(str::to_string);
    let trace_stream = match trace_path.as_deref().map(start_trace).transpose() {
        Ok(stream) => stream,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "classify" => classify::run(&flags),
        "hygiene" => hygiene::run(&flags),
        "simulate" => simulate::run(&flags),
        "fleet" => fleet::run(fleet_action.as_deref(), &flags),
        "throughput" => throughput::run(&flags),
        "serve" => serve::run(&flags),
        "loadgen" => loadgen::run(&flags),
        "lint" => lint::run(&flags),
        other => Err(format!("unknown subcommand {other}\n{}", usage())),
    };
    let finished = trace_stream
        .map(|stream| finish_trace(stream, trace_path.as_deref().expect("stream implies path")));
    let result = match (result, finished) {
        (Ok(()), Some(Err(e))) => Err(e),
        (Err(e), Some(Err(te))) => {
            eprintln!("error: {te}");
            Err(e)
        }
        (r, _) => r,
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A scratch directory of this process's tests, `lastmile-TAG-PID` in
/// the temp dir, removed when dropped.
#[cfg(test)]
pub(crate) struct Scratch(std::path::PathBuf);

#[cfg(test)]
impl Scratch {
    pub(crate) fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("lastmile-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

#[cfg(test)]
impl std::ops::Deref for Scratch {
    type Target = std::path::Path;

    fn deref(&self) -> &std::path::Path {
        &self.0
    }
}

#[cfg(test)]
impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::{accepted_flags, check_flags, usage, Flags};

    fn parse(args: &[&str]) -> Result<Flags, String> {
        Flags::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn values_and_switches() {
        let f = parse(&["--traceroutes", "a.jsonl", "--json", "--seed", "42"]).unwrap();
        assert_eq!(f.required("traceroutes").unwrap(), "a.jsonl");
        assert_eq!(f.parsed::<u64>("seed").unwrap(), Some(42));
        assert!(f.switch("json"));
        assert!(!f.switch("anchors-only"));
        assert_eq!(f.optional("missing"), None);
        assert!(f.required("missing").is_err());
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["positional"]).is_err());
    }

    #[test]
    fn a_value_flag_never_swallows_the_next_flag() {
        // An unknown (mistyped or removed) switch is read as a value
        // flag; it must fail rather than eat `--json` as its value.
        let err = parse(&["--traceroutes", "a.jsonl", "--progres", "--json"])
            .err()
            .expect("switch-like value flag is rejected");
        assert_eq!(err, "--progres needs a value, got --json");
        // Single-dash values (negative numbers) still parse.
        let f = parse(&["--start", "-5"]).unwrap();
        assert_eq!(f.parsed::<i64>("start").unwrap(), Some(-5));
    }

    #[test]
    fn thread_counts_are_bounded_by_name() {
        let max = lastmile_repro::runner::MAX_WORKERS;
        let f = parse(&["--ingest-threads", &max.to_string()]).unwrap();
        assert_eq!(f.thread_count("ingest-threads").unwrap(), Some(max));
        assert_eq!(f.thread_count("threads").unwrap(), None);
        let f = parse(&["--ingest-threads", "100000"]).unwrap();
        assert_eq!(
            f.thread_count("ingest-threads").unwrap_err(),
            format!("--ingest-threads 100000 is above the limit of {max}")
        );
        let f = parse(&["--serve-workers", "-1"]).unwrap();
        assert_eq!(
            f.thread_count("serve-workers").unwrap_err(),
            "invalid value for --serve-workers: -1"
        );
    }

    #[test]
    fn bad_parse_is_an_error() {
        let f = parse(&["--seed", "banana"]).unwrap();
        assert!(f.parsed::<u64>("seed").is_err());
    }

    /// Every subcommand (and `fleet` action) `main` dispatches.
    const SUBCOMMANDS: [(&str, Option<&str>); 9] = [
        ("classify", None),
        ("hygiene", None),
        ("throughput", None),
        ("simulate", None),
        ("fleet", Some("gen")),
        ("fleet", Some("score")),
        ("serve", None),
        ("loadgen", None),
        ("lint", None),
    ];

    /// Flags a subcommand accepts that [`usage`] leaves out: test hooks.
    const HIDDEN_FLAGS: [&str; 2] = ["serve-delay-ms", "serve-heavy-delay-ms"];

    fn usage_flags() -> Vec<&'static str> {
        usage()
            .split("--")
            .skip(1)
            .map(|rest| {
                let end = rest
                    .find(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'))
                    .unwrap_or(rest.len());
                &rest[..end]
            })
            .collect()
    }

    fn accepted_anywhere(name: &str) -> bool {
        name == "trace"
            || SUBCOMMANDS.iter().any(|(cmd, action)| {
                accepted_flags(cmd, *action)
                    .expect("dispatched subcommand has a flag list")
                    .any(|flag| flag == name)
            })
    }

    #[test]
    fn usage_and_flag_lists_agree() {
        let listed = usage_flags();
        for name in &listed {
            assert!(
                accepted_anywhere(name),
                "usage shows --{name}, no subcommand accepts it"
            );
        }
        for (cmd, action) in SUBCOMMANDS {
            for name in accepted_flags(cmd, action).unwrap() {
                assert!(
                    listed.contains(&name) || HIDDEN_FLAGS.contains(&name),
                    "{cmd} accepts --{name}, usage does not show it"
                );
            }
        }
    }

    #[test]
    fn unknown_flags_are_named_with_their_subcommand() {
        let f = parse(&["--traceroutes", "a.jsonl", "--serve-budget-cheap", "2"]).unwrap();
        assert_eq!(
            check_flags("serve", None, &f).unwrap_err(),
            "unknown flag --serve-budget-cheap for serve"
        );
        // serve renders no classify document on stdout.
        let f = parse(&["--traceroutes", "a.jsonl", "--json"]).unwrap();
        assert_eq!(
            check_flags("serve", None, &f).unwrap_err(),
            "unknown flag --json for serve"
        );
        assert!(check_flags(
            "classify",
            None,
            &parse(&["--json", "--trace", "t"]).unwrap()
        )
        .is_ok());
        let f = parse(&["--spec", "s.json", "--json"]).unwrap();
        assert_eq!(
            check_flags("fleet", Some("gen"), &f).unwrap_err(),
            "unknown flag --json for fleet gen"
        );
        assert!(check_flags("fleet", Some("score"), &parse(&["--json"]).unwrap()).is_ok());
        // A thread count past the limit is a usage error naming its flag.
        let f = parse(&["--traceroutes", "a.jsonl", "--ingest-threads", "99999"]).unwrap();
        assert!(check_flags("classify", None, &f)
            .unwrap_err()
            .starts_with("--ingest-threads 99999 is above the limit"));
        // Unknown subcommands and actions are left to dispatch.
        assert!(check_flags("nonsense", None, &f).is_ok());
    }
}
