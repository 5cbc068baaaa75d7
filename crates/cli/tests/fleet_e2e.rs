//! End-to-end tests of the `lastmile fleet` subcommand: spec linting,
//! byte-exact determinism of generated corpora (and golden digests of
//! `fleet gen` and `simulate` output), snapshot priming for
//! zero-re-ingest warm classification, the truth-joined scorer with
//! its CI gates, and `fleet gen`'s failure and streaming paths (a full
//! disk, a FIFO into `classify`).

mod common;

use common::{lastmile_bin, run};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// A fresh scratch dir per test (parallel tests must not collide).
fn scratch(tag: &str) -> Scratch {
    let dir = std::env::temp_dir().join(format!("lastmile-fleet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    Scratch(dir)
}

/// A scratch dir, removed when the test that made it ends. A failed
/// test keeps it, and names it, for a look at what the run left.
struct Scratch(PathBuf);

impl std::ops::Deref for Scratch {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("kept scratch dir {}", self.0.display());
        } else {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

/// A small spec covering a persistent, a clean, and an adversarial AS.
fn write_spec(dir: &Path) -> PathBuf {
    let spec = dir.join("spec.json");
    std::fs::write(
        &spec,
        r#"{
            "name": "e2e",
            "days": 5,
            "classes": {"severe": 1, "clean": 1, "adversarial_peering": 1},
            "probes_per_as": {"min": 3, "max": 4}
        }"#,
    )
    .unwrap();
    spec
}

/// The `--start`/`--end` instants recorded in a truth sidecar.
fn truth_window(truth_path: &Path) -> (i64, i64) {
    let truth: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(truth_path).unwrap()).unwrap();
    (
        truth["window"]["start"].as_i64().unwrap(),
        truth["window"]["end"].as_i64().unwrap(),
    )
}

#[test]
fn lint_validates_fleet_specs() {
    let dir = scratch("lint");
    let spec = write_spec(&dir);
    let (_, err, ok) = run(&["lint", "--fleet", spec.to_str().unwrap()]);
    assert!(ok, "lint rejected a valid spec: {err}");
    assert!(err.contains("fleet spec ok (3 ASes, 5 days)"), "{err}");

    // A broken spec fails with *every* problem listed, not just the first.
    let bad = dir.join("bad.json");
    std::fs::write(
        &bad,
        r#"{"name": "bad", "days": 2, "classes": {"severe": 1}, "surprise": true}"#,
    )
    .unwrap();
    let (_, err, ok) = run(&["lint", "--fleet", bad.to_str().unwrap()]);
    assert!(!ok, "lint accepted an invalid spec");
    assert!(err.contains("unknown key \"surprise\""), "{err}");
    assert!(err.contains("Welch"), "{err}");
}

#[test]
fn fleet_corpus_is_byte_identical_across_threads_and_runs() {
    let dir = scratch("determinism");
    let spec = write_spec(&dir);
    let spec_s = spec.to_str().unwrap();
    for (out, threads) in [("a", "1"), ("b", "1"), ("c", "3")] {
        let out_dir = dir.join(out);
        let (_, err, ok) = run(&[
            "fleet",
            "gen",
            "--spec",
            spec_s,
            "--out",
            out_dir.to_str().unwrap(),
            "--seed",
            "11",
            "--threads",
            threads,
        ]);
        assert!(ok, "fleet gen --threads {threads} failed: {err}");
    }
    for artifact in ["traceroutes.jsonl", "probes.json", "bgp.csv", "truth.json"] {
        let a = std::fs::read(dir.join("a").join(artifact)).unwrap();
        let b = std::fs::read(dir.join("b").join(artifact)).unwrap();
        let c = std::fs::read(dir.join("c").join(artifact)).unwrap();
        assert!(a == b, "{artifact} differs between identical runs");
        assert!(
            a == c,
            "{artifact} differs between --threads 1 and --threads 3"
        );
        assert!(!a.is_empty(), "{artifact} is empty");
    }

    // A different seed moves the corpus (the knob is live).
    let other = dir.join("other");
    let (_, err, ok) = run(&[
        "fleet",
        "gen",
        "--spec",
        spec_s,
        "--out",
        other.to_str().unwrap(),
        "--seed",
        "12",
    ]);
    assert!(ok, "fleet gen failed: {err}");
    let a = std::fs::read(dir.join("a/traceroutes.jsonl")).unwrap();
    let d = std::fs::read(other.join("traceroutes.jsonl")).unwrap();
    assert!(a != d, "different seeds must move the corpus");
}

/// FNV-1a (64-bit) of a file's bytes: a dependency-free content digest.
fn fnv1a(path: &Path) -> u64 {
    std::fs::read(path)
        .unwrap()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Generated records are pinned byte for byte across builds, not only
/// across runs of one binary: a digest that moves means `fleet gen` or
/// `simulate` now writes different bytes. Change a pinned value only
/// with an intended change of the output.
#[test]
fn generated_corpora_match_their_golden_digests() {
    let dir = scratch("golden");
    let spec = write_spec(&dir);
    let (fleet, anchor, tokyo) = (dir.join("fleet"), dir.join("anchor"), dir.join("tokyo"));
    let runs: [&[&str]; 3] = [
        &[
            "fleet",
            "gen",
            "--spec",
            spec.to_str().unwrap(),
            "--out",
            fleet.to_str().unwrap(),
            "--seed",
            "11",
            "--threads",
            "2",
        ],
        &[
            "simulate",
            "--scenario",
            "anchor",
            "--out",
            anchor.to_str().unwrap(),
            "--days",
            "2",
        ],
        &[
            "simulate",
            "--scenario",
            "tokyo",
            "--out",
            tokyo.to_str().unwrap(),
            "--days",
            "1",
        ],
    ];
    for args in runs {
        let (_, err, ok) = run(args);
        assert!(ok, "{args:?} failed: {err}");
    }
    let pinned = [
        (fleet.join("traceroutes.jsonl"), 0x2f26_2ab8_8307_9510),
        (anchor.join("traceroutes.jsonl"), 0x6032_8eb7_4ce0_e2f1),
        (tokyo.join("traceroutes_v6.jsonl"), 0xf854_1efb_b8e0_03e3),
    ];
    let moved: Vec<String> = pinned
        .iter()
        .filter_map(|(path, want)| {
            let got = fnv1a(path);
            (got != *want).then(|| format!("{}: {got:#018x}, pinned {want:#018x}", path.display()))
        })
        .collect();
    assert!(
        moved.is_empty(),
        "generated bytes moved:\n{}",
        moved.join("\n")
    );
}

#[test]
fn rw_classify_primes_cache_for_zero_reingest_warm_classify() {
    let dir = scratch("warm");
    let spec = write_spec(&dir);
    let world = dir.join("world");
    let cache = dir.join("cache");
    let (_, err, ok) = run(&[
        "fleet",
        "gen",
        "--spec",
        spec.to_str().unwrap(),
        "--out",
        world.to_str().unwrap(),
        "--seed",
        "5",
    ]);
    assert!(ok, "fleet gen failed: {err}");

    let (start, end) = truth_window(&world.join("truth.json"));
    let trs = world.join("traceroutes.jsonl");
    let probes_path = world.join("probes.json");
    let probes: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&probes_path).unwrap()).unwrap();
    let probe_count = probes.as_array().unwrap().len();

    let classify = |extra: &[&str]| -> (String, String, bool) {
        let mut args = vec![
            "classify",
            "--traceroutes",
            trs.to_str().unwrap(),
            "--probes",
            probes_path.to_str().unwrap(),
            "--json",
        ];
        let (start_s, end_s) = (start.to_string(), end.to_string());
        args.extend(["--start", &start_s, "--end", &end_s]);
        args.extend(extra);
        run(&args)
    };

    // Cold baseline: no cache flags at all.
    let (cold, err, ok) = classify(&[]);
    assert!(ok, "cold classify failed: {err}");

    // Prime with an rw classify over the exported corpus, the one
    // snapshot writer. The export must pass its own ingest: nothing is
    // quarantined.
    let quarantine = dir.join("quarantine.jsonl");
    let (primed, err, ok) = classify(&[
        "--cache-dir",
        cache.to_str().unwrap(),
        "--quarantine",
        quarantine.to_str().unwrap(),
    ]);
    assert!(ok, "priming classify failed: {err}");
    assert!(err.contains("[cache] saved"), "{err}");
    assert!(cache.join("series.lmss").exists());
    assert_eq!(
        std::fs::read(&quarantine).unwrap(),
        b"",
        "exported corpus failed its own ingest"
    );
    assert_eq!(cold, primed, "priming verdicts must match cold verdicts");

    // Warm run against the primed snapshot, read-only: every series is a
    // hit, nothing is re-ingested, nothing is re-inserted — and the
    // verdicts are byte-identical to the cold run.
    let stats = dir.join("stats.json");
    let (warm, err, ok) = classify(&[
        "--cache-dir",
        cache.to_str().unwrap(),
        "--cache",
        "ro",
        "--stats-out",
        stats.to_str().unwrap(),
    ]);
    assert!(ok, "warm classify failed: {err}");
    assert_eq!(cold, warm, "warm verdicts must match cold verdicts");
    let stats: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&stats).unwrap()).unwrap();
    assert_eq!(
        stats["store"]["hits"].as_u64().unwrap(),
        probe_count as u64,
        "every probe series must come from the snapshot: {stats}"
    );
    assert_eq!(stats["store"]["misses"].as_u64(), Some(0), "{stats}");
    assert_eq!(stats["store"]["inserts"].as_u64(), Some(0), "{stats}");
    assert_eq!(
        stats["traceroutes_ingested"].as_u64(),
        Some(0),
        "a warm fleet survey must re-ingest nothing: {stats}"
    );
}

#[test]
fn fleet_score_joins_truth_and_enforces_gates() {
    let dir = scratch("score");
    let spec = write_spec(&dir);
    let world = dir.join("world");
    let (_, err, ok) = run(&[
        "fleet",
        "gen",
        "--spec",
        spec.to_str().unwrap(),
        "--out",
        world.to_str().unwrap(),
        "--seed",
        "9",
    ]);
    assert!(ok, "fleet gen failed: {err}");
    let (start, end) = truth_window(&world.join("truth.json"));

    let (classified, err, ok) = run(&[
        "classify",
        "--traceroutes",
        world.join("traceroutes.jsonl").to_str().unwrap(),
        "--probes",
        world.join("probes.json").to_str().unwrap(),
        "--start",
        &start.to_string(),
        "--end",
        &end.to_string(),
        "--json",
    ]);
    assert!(ok, "classify failed: {err}");
    let classified_path = dir.join("classified.json");
    std::fs::write(&classified_path, &classified).unwrap();

    // Gates that must hold by construction: the severe AS is found
    // (recall 1.0) and the peering AS — congested *beyond* the edge — is
    // never a false positive.
    let truth_s = world.join("truth.json");
    let (stdout, err, ok) = run(&[
        "fleet",
        "score",
        "--truth",
        truth_s.to_str().unwrap(),
        "--classified",
        classified_path.to_str().unwrap(),
        "--min-recall",
        "0.99",
        "--max-peering-fp",
        "0",
    ]);
    assert!(ok, "score gates failed: {err}\n{stdout}");
    assert!(stdout.contains("severe"), "{stdout}");
    assert!(stdout.contains("adversarial_peering"), "{stdout}");
    assert!(stdout.contains("recall 1.000"), "{stdout}");

    // The JSON form carries the full matrix.
    let (stdout, err, ok) = run(&[
        "fleet",
        "score",
        "--truth",
        truth_s.to_str().unwrap(),
        "--classified",
        classified_path.to_str().unwrap(),
        "--json",
    ]);
    assert!(ok, "score --json failed: {err}");
    let doc: serde_json::Value = serde_json::from_str(&stdout).expect("score json");
    assert_eq!(doc["spec_name"], "e2e");
    assert_eq!(doc["ases"].as_u64(), Some(3));
    assert_eq!(doc["recall"].as_f64(), Some(1.0));
    assert_eq!(
        doc["false_positives"]["adversarial_peering"].as_u64(),
        Some(0)
    );
    let matrix = doc["matrix"].as_array().unwrap();
    assert_eq!(matrix.len(), 3, "{stdout}");
    assert_eq!(matrix[0]["label"], "severe");
    assert_eq!(matrix[0]["outcomes"]["Severe"].as_u64(), Some(1));

    // An impossible gate fails loudly (nonzero exit, matrix still shown).
    let (stdout, err, ok) = run(&[
        "fleet",
        "score",
        "--truth",
        truth_s.to_str().unwrap(),
        "--classified",
        classified_path.to_str().unwrap(),
        "--min-recall",
        "1.01",
    ]);
    assert!(!ok, "impossible gate must fail");
    assert!(err.contains("below --min-recall"), "{err}");
    assert!(
        stdout.contains("severe"),
        "matrix must print even on gate failure"
    );
}

/// `fleet gen --spec SPEC --out OUT --seed 7 --threads 2` as an
/// unstarted command, its stderr into `err`.
fn gen_command(spec: &Path, out: &Path, err: &Path) -> Command {
    let mut cmd = Command::new(lastmile_bin());
    cmd.args(["fleet", "gen", "--spec"])
        .arg(spec)
        .arg("--out")
        .arg(out)
        .args(["--seed", "7", "--threads", "2"])
        .stdout(Stdio::null())
        .stderr(File::create(err).unwrap());
    cmd
}

/// Wait for every child to exit; past `limit`, kill them all and fail.
fn finish_within<const N: usize>(limit: Duration, mut children: [Child; N]) -> [ExitStatus; N] {
    let deadline = Instant::now() + limit;
    let mut statuses = [None; N];
    while statuses.iter().any(Option::is_none) {
        for (child, status) in children.iter_mut().zip(&mut statuses) {
            if status.is_none() {
                *status = child.try_wait().expect("try_wait");
            }
        }
        if statuses.iter().any(Option::is_none) && Instant::now() > deadline {
            for child in &mut children {
                let _ = child.kill();
                let _ = child.wait();
            }
            panic!("still running after {limit:?}: {statuses:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    statuses.map(|s| s.expect("exited"))
}

/// A failed append ends `fleet gen` with the error, naming the file,
/// and no worker is left waiting for its turn: the run exits.
#[test]
fn fleet_gen_exits_with_the_write_error_when_the_corpus_cannot_be_written() {
    let dir = scratch("full");
    let spec = write_spec(&dir);
    let out = dir.join("out");
    std::fs::create_dir_all(&out).unwrap();
    let trs = out.join("traceroutes.jsonl");
    std::os::unix::fs::symlink("/dev/full", &trs).unwrap();
    let err_path = dir.join("gen.err");
    let gen = gen_command(&spec, &out, &err_path).spawn().unwrap();
    let [status] = finish_within(Duration::from_secs(120), [gen]);
    let err = std::fs::read_to_string(&err_path).unwrap();
    assert!(
        !status.success(),
        "fleet gen into /dev/full succeeded: {err}"
    );
    assert!(err.contains(&format!("write {}: ", trs.display())), "{err}");
}

/// `fleet gen` streams its corpus through a FIFO at
/// `OUT/traceroutes.jsonl` into `classify`, which reads it as it is
/// written, and the verdicts are byte-identical to `classify` over the
/// same corpus on disk: a streamed run is the same computation.
#[test]
fn classify_over_a_fifo_from_fleet_gen_matches_the_file_on_disk() {
    let dir = scratch("fifo");
    let spec = write_spec(&dir);
    let (disk, streamed) = (dir.join("disk"), dir.join("streamed"));
    let gen = gen_command(&spec, &disk, &dir.join("disk.err"))
        .spawn()
        .unwrap();
    let [status] = finish_within(Duration::from_secs(120), [gen]);
    assert!(status.success(), "fleet gen to disk failed");
    let (start, end) = truth_window(&disk.join("truth.json"));
    // Both runs read the on-disk probe metadata: the streamed gen writes
    // an identical copy, but classify may start before it is complete.
    let classify = |traceroutes: &Path, out: &Path| {
        let mut cmd = Command::new(lastmile_bin());
        cmd.args(["classify", "--traceroutes"])
            .arg(traceroutes)
            .arg("--probes")
            .arg(disk.join("probes.json"))
            .args(["--start", &start.to_string(), "--end", &end.to_string()])
            .arg("--json")
            .stdout(File::create(out).unwrap())
            .stderr(Stdio::null());
        cmd
    };
    let from_disk = dir.join("disk.json");
    let child = classify(&disk.join("traceroutes.jsonl"), &from_disk)
        .spawn()
        .unwrap();
    let [status] = finish_within(Duration::from_secs(120), [child]);
    assert!(status.success(), "classify over the file failed");

    std::fs::create_dir_all(&streamed).unwrap();
    let fifo = streamed.join("traceroutes.jsonl");
    let made = Command::new("mkfifo").arg(&fifo).status().unwrap();
    assert!(made.success(), "mkfifo failed");
    let from_fifo = dir.join("fifo.json");
    let gen_err = dir.join("streamed.err");
    let gen = gen_command(&spec, &streamed, &gen_err).spawn().unwrap();
    let reader = classify(&fifo, &from_fifo).spawn().unwrap();
    let [gen_status, classify_status] = finish_within(Duration::from_secs(120), [gen, reader]);
    let err = std::fs::read_to_string(&gen_err).unwrap();
    assert!(
        gen_status.success(),
        "fleet gen into the FIFO failed: {err}"
    );
    assert!(classify_status.success(), "classify over the FIFO failed");
    let (want, got) = (
        std::fs::read(&from_disk).unwrap(),
        std::fs::read(&from_fifo).unwrap(),
    );
    assert!(!want.is_empty());
    assert!(
        want == got,
        "classify over the FIFO differs from over the file"
    );
    assert_eq!(
        std::fs::read(streamed.join("probes.json")).unwrap(),
        std::fs::read(disk.join("probes.json")).unwrap()
    );
}
