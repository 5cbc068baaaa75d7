//! `lastmile` — the command-line face of the reproduction, in the spirit
//! of the paper's released tooling (raclette): point it at RIPE-Atlas-
//! format traceroute data and get per-AS persistent-congestion
//! classifications, or export simulated datasets for downstream tools.
//!
//! ```text
//! lastmile classify --traceroutes FILE [--probes FILE] [--start T --end T] [--json]
//! lastmile hygiene  --traceroutes FILE [--probes FILE] [--start T --end T] [--threshold MS]
//! lastmile simulate --scenario tokyo|fig1|anchor --out DIR [--seed N] [--days N]
//! ```
//!
//! Traceroute input is Atlas wire format: either a JSON array or JSON
//! Lines (one document per line — the format of `magellan`/Atlas dumps).
//! Probe metadata (`--probes`) is a JSON array of probe objects carrying
//! `id`, `asn`, `country`, `area`, `is_anchor`, `version`, `public_addr`;
//! without it, all traceroutes are analysed as a single population and
//! anchors cannot be excluded.

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

    /// Whether a boolean switch is present.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

fn usage() -> &'static str {
    "usage:\n  \
     lastmile classify --traceroutes FILE [--probes FILE | --bgp TABLE.csv] [--start UNIX --end UNIX] [--min-probes N] [--cache-dir DIR [--cache off|ro|rw]] [--ingest-threads N] [--quarantine FILE] [--json] [--stats | --stats-out FILE] [--populations-csv FILE] [--progress]\n  \
     lastmile hygiene  --traceroutes FILE [--probes FILE] [--start UNIX --end UNIX] [--threshold MS] [--ingest-threads N] [--quarantine FILE] [--stats | --stats-out FILE] [--populations-csv FILE] [--progress]\n  \
     lastmile throughput --cdn FILE.tsv --bgp TABLE.csv [--bin-minutes 15] [--view broadband|mobile|v4|v6] [--csv OUT]\n  \
     lastmile simulate --scenario tokyo|fig1|anchor --out DIR [--seed N] [--days N] [--cache-dir DIR [--cache off|ro|rw]]\n  \
     lastmile fleet gen --spec SPEC.json --out DIR [--seed N] [--threads N] [--probes-per-as N [--sample-mode biased|uniform] [--sample-seed N]]\n                       \
[--cache-dir DIR [--cache off|ro|rw]]\n  \
     lastmile fleet score --truth DIR/truth.json --classified FILE.json [--min-recall F] [--max-peering-fp N] [--json]\n  \
     lastmile serve    --traceroutes FILE [classify flags] [--addr HOST:PORT] [--serve-workers N] [--serve-queue N] [--retry-after SECS] [--ready-file FILE]\n                       \
[--serve-budget-cheap N --serve-budget-heavy N --serve-budget-intake N (0 = workers)]\n                       \
[--watch [--watch-poll-ms MS] [--live-offset-file FILE]] [--live-spool FILE] [--reanalyze-debounce-ms MS]\n                       \
[--ops-sample-ms MS (default 1000, 0 = off)] [--access-log FILE]\n  \
     lastmile loadgen  --addr HOST:PORT --profile burst|ladder|fanout [--mix classify=4,series=1,...] [--concurrency N] [--timeout-ms MS]\n                       \
[burst: --requests N --bursts B] [ladder: --rates 25,50,100 --dwell-ms MS] [fanout: --rate RPS --duration-ms MS]\n                       \
[--asn N] [--post-file FILE.jsonl [--post-batch N]] [--out FILE] [--json]\n  \
     lastmile lint     [--prom FILE] [--access-log FILE] [--fleet SPEC.json] (validate Prometheus exposition / access-log JSON lines / fleet specs)\n\n\
     any subcommand also takes --trace FILE to write a Chrome/Perfetto trace of the run\n\
     (streamed to disk as the run goes; serve drains it incrementally until shutdown)"
}

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
    let flags = match Flags::parse(&args[flag_start..]) {
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

#[cfg(test)]
mod tests {
    use super::Flags;

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
    fn bad_parse_is_an_error() {
        let f = parse(&["--seed", "banana"]).unwrap();
        assert!(f.parsed::<u64>("seed").is_err());
    }
}
