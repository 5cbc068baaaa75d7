#!/bin/sh
# Pre-merge gate: formatting, lints (deny warnings, all targets so the
# benches compile too), then the full test suite. Run from anywhere in
# the repository; everything is offline (deps are vendored in vendor/).
set -eu
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Covers both [[bench]] targets in crates/bench (executor,
# obs_overhead). End-to-end numbers come from the benchmark package
# (benchmark/, BENCHMARK.json); scripts/bench_ingest.sh and
# scripts/bench_fleet.sh record BENCH_ingest.json / BENCH_fleet.json.
echo "==> cargo build --workspace --benches --examples"
cargo build --workspace --benches --examples

# The suite gets a temp dir of its own, so any scratch file or dir
# (lastmile-*) that a test leaves behind shows, and fails the gate. A
# failing suite keeps the dir for a look at what it left. A process a
# test spawned and never stopped (a `serve` daemon) names that dir on
# its command line: any still running fails the gate too, and is
# killed.
echo "==> cargo test -q --workspace (TMPDIR checked for scratch and process leaks)"
test_tmp=$(mktemp -d)
suite_ok=1
TMPDIR=$test_tmp cargo test -q --workspace || suite_ok=
strays=$(pgrep -af "$test_tmp" || true)
if [ -n "$strays" ]; then
    echo "tests left processes running (killed):" >&2
    echo "$strays" >&2
    pkill -KILL -f "$test_tmp" || true
fi
if [ -z "$suite_ok" ]; then
    echo "test scratch kept in $test_tmp" >&2
    exit 1
fi
[ -z "$strays" ] || exit 1
leaks=$(find "$test_tmp" -mindepth 1 -maxdepth 1 -name 'lastmile-*')
rm -rf "$test_tmp"
if [ -n "$leaks" ]; then
    echo "tests left scratch behind:" >&2
    echo "$leaks" >&2
    exit 1
fi

# The release sweep: 10^8 values through the Atlas writer's RTT
# formatter and `{:?}`, which must agree byte for byte.
echo "==> cargo test -q --release -p lastmile-atlas -- --ignored (RTT writer sweep)"
cargo test -q --release -p lastmile-atlas -- --ignored

# The end-to-end benchmark is a package of its own (outside the
# workspace); its unit tests include the check that the metrics its
# driver declares equal those in BENCHMARK.json. Cargo may rewrite its
# lock file when the workspace's dependencies have moved on; the gate
# leaves the file as it found it, pass or fail.
echo "==> cargo test -q --manifest-path benchmark/Cargo.toml"
bench_lock=$(mktemp)
cp benchmark/Cargo.lock "$bench_lock"
bench_ok=1
cargo test -q --manifest-path benchmark/Cargo.toml || bench_ok=
cp "$bench_lock" benchmark/Cargo.lock
rm -f "$bench_lock"
[ -n "$bench_ok" ] || exit 1

# Ingest smoke: every form × mode combination of classify over a small
# corpus (plus a corrupted copy) must produce --json output and a
# quarantine dump byte-identical to inline decode (--ingest-threads 1) —
# the invariant the parallel zero-copy worker pipeline is held to.
echo "==> ingest smoke (BENCH_SMOKE=1 scripts/bench_ingest.sh)"
BENCH_SMOKE=1 sh scripts/bench_ingest.sh

# Fleet smoke: generate a small scenario fleet from the checked-in spec
# (deterministic corpus + primed snapshot), classify it cold and warm
# (byte-identical, the warm run served by the store), and score the verdicts against the ground-truth
# sidecar with the CI gates armed — recall >= 0.7 on the planted
# congested ASes, zero false positives on the adversarial
# peering-congestion ASes.
echo "==> fleet smoke (BENCH_SMOKE=1 scripts/bench_fleet.sh)"
BENCH_SMOKE=1 sh scripts/bench_fleet.sh

# Experiments smoke: fig3 (the §3 survey, on run_survey) at the
# smallest survey scale and fig5 (three Tokyo populations, on
# analyze_many) must print the same stdout and write the same CSVs at
# --threads 1 and --threads 2. About 40 s on 2 cores, nearly all of it
# fig3's survey; a failure keeps the outputs for a look.
echo "==> experiments smoke (fig3 --scale 20 + fig5, --threads 1 vs 2)"
cargo build -q -p lastmile-experiments
exp=$(mktemp -d)
for t in 1 2; do
    mkdir "$exp/t$t"
    for fig in fig3 fig5; do
        target/debug/experiments "$fig" --scale 20 --threads "$t" --out "$exp/t$t" \
            >"$exp/t$t/$fig.out" 2>/dev/null
    done
done
diff -r "$exp/t1" "$exp/t2" || {
    echo "experiments output differs across --threads; kept in $exp" >&2
    exit 1
}
rm -rf "$exp"

# Observability smoke: simulate a small fixture and classify it with
# --trace/--stats-out/--populations-csv, validating the artefacts (valid
# trace JSON, balanced spans, golden stats key set) in-process — no jq.
echo "==> observability smoke (cargo test -p lastmile-cli --test observability)"
cargo test -q -p lastmile-cli --test observability

# Serve smoke: the daemon on a fixture corpus — /healthz, one classify,
# then a clean SIGTERM shutdown. The full serving contract (byte
# identity, backpressure, drain) is pinned by the serve_e2e test run
# above; this step proves the shipped binary serves over a real socket.
if command -v curl >/dev/null 2>&1; then
    echo "==> serve smoke (daemon + curl /healthz + classify + SIGTERM)"
    smoke=$(mktemp -d)
    serve_pid=
    smoke_cleanup() {
        [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null && wait "$serve_pid" 2>/dev/null
        rm -rf "$smoke"
    }
    trap smoke_cleanup EXIT
    # start_serve NAME WHAT [serve flags]: launch the daemon in the
    # background, stderr to $smoke/serve$NAME.log; wait (up to 300 polls)
    # for it to write its address to $smoke/ready$NAME and set $addr,
    # dumping the log if it never does ("WHAT never became ready") or
    # dies first.
    start_serve() {
        ready="$smoke/ready$1" log="$smoke/serve$1.log" what=$2
        shift 2
        : >"$ready"
        target/debug/lastmile serve --addr 127.0.0.1:0 --ready-file "$ready" \
            "$@" >/dev/null 2>"$log" &
        serve_pid=$!
        i=0
        while [ ! -s "$ready" ]; do
            i=$((i + 1))
            [ "$i" -le 300 ] || { echo "$what never became ready" >&2; cat "$log" >&2; exit 1; }
            kill -0 "$serve_pid" 2>/dev/null || { cat "$log" >&2; exit 1; }
            sleep 0.1
        done
        addr=$(head -n1 "$ready")
    }
    # stop_serve NAME: SIGTERM the daemon, wait for it, and require the
    # clean-drain line in its log.
    stop_serve() {
        kill "$serve_pid"
        wait "$serve_pid"
        serve_pid=
        grep -q "\[serve\] shutdown: drained" "$smoke/serve$1.log"
    }
    cargo build -q -p lastmile-cli
    target/debug/lastmile simulate --scenario anchor --out "$smoke" --days 3 >/dev/null 2>&1
    start_serve "" serve --traceroutes "$smoke/traceroutes.jsonl" \
        --probes "$smoke/probes.json"
    curl -sf "http://$addr/healthz" | grep -q '"status": *"ok"'
    curl -sf "http://$addr/v1/classify" | grep -q '"class"'
    # The idle daemon must stop within 2 s of SIGTERM: the stop wakes
    # the acceptor blocked in accept, with no poll to wait out.
    stop_started=$(date +%s%N)
    stop_serve ""
    stop_ms=$((($(date +%s%N) - stop_started) / 1000000))
    [ "$stop_ms" -le 2000 ] || { echo "idle serve took $stop_ms ms to stop (limit 2000)" >&2; exit 1; }

    # Live-ingest smoke: restart the daemon in live mode with one probe's
    # records withheld, feed them back through BOTH intake paths (corpus
    # append + POST), wait for the re-analysis epoch to land, and require
    # /v1/classify to be byte-identical to a cold classify --json over
    # the union corpus — the observatory's core contract.
    echo "==> live-ingest smoke (watch + POST -> epoch swap -> cold-union byte identity)"
    grep -v '"prb_id":6005' "$smoke/traceroutes.jsonl" >"$smoke/live.jsonl"
    grep '"prb_id":6005' "$smoke/traceroutes.jsonl" >"$smoke/withheld.jsonl"
    head -n 200 "$smoke/withheld.jsonl" >"$smoke/post.jsonl"
    tail -n +201 "$smoke/withheld.jsonl" >"$smoke/append.jsonl"
    start_serve -live "live serve" --traceroutes "$smoke/live.jsonl" \
        --probes "$smoke/probes.json" --watch --watch-poll-ms 50 \
        --live-spool "$smoke/spool.jsonl"
    curl -sf "http://$addr/v1/classify" >"$smoke/baseline.json"
    cat "$smoke/append.jsonl" >>"$smoke/live.jsonl"
    # The POST returns only after the records hit the spool, so the union
    # corpus (and its cold reference output) is final from here on.
    curl -sf -X POST --data-binary @"$smoke/post.jsonl" \
        "http://$addr/v1/traceroutes" | grep -q '"accepted": *200'
    cat "$smoke/live.jsonl" "$smoke/spool.jsonl" >"$smoke/union.jsonl"
    target/debug/lastmile classify --traceroutes "$smoke/union.jsonl" \
        --probes "$smoke/probes.json" --json 2>/dev/null >"$smoke/cold.json"
    cmp -s "$smoke/baseline.json" "$smoke/cold.json" && {
        echo "live smoke is vacuous: union output equals baseline" >&2
        exit 1
    }
    i=0
    while :; do
        curl -sf "http://$addr/v1/classify" >"$smoke/live-now.json"
        cmp -s "$smoke/live-now.json" "$smoke/cold.json" && break
        i=$((i + 1))
        [ "$i" -le 600 ] || { echo "live /v1/classify never converged to cold union classify" >&2; cat "$smoke/serve-live.log" >&2; exit 1; }
        sleep 0.1
    done
    # A pass folds only what arrived: the epoch's run decoded at most the
    # POSTed and appended records, never the union corpus again.
    arrived=$((200 + $(wc -l <"$smoke/append.jsonl")))
    decoded=$(curl -sf "http://$addr/metrics" | grep -o '"records_decoded": *[0-9]*' | head -n 1 | grep -o '[0-9]*$')
    [ -n "$decoded" ] && [ "$decoded" -le "$arrived" ] || {
        echo "live pass decoded ${decoded:-?} records; at most $arrived arrived" >&2
        exit 1
    }
    stop_serve -live

    # Loadgen smoke: a tight heavy budget plus a slowed heavy handler
    # force real admission sheds; the loadgen binary itself exits
    # nonzero unless attempted == ok + shed + errors, so a plain run is
    # the accounting assertion. The burst report must show sheds (the
    # budget engaged) and the ladder report must carry rungs.
    echo "==> loadgen smoke (burst + ladder vs a budgeted daemon; shed accounting must balance)"
    start_serve -lg "budgeted serve" --traceroutes "$smoke/traceroutes.jsonl" \
        --probes "$smoke/probes.json" --serve-workers 2 \
        --serve-budget-heavy 1 --serve-heavy-delay-ms 50
    target/debug/lastmile loadgen --addr "$addr" --profile burst \
        --requests 16 --bursts 2 --out "$smoke/burst.json" 2>/dev/null
    grep -q '"shed": [1-9]' "$smoke/burst.json" || {
        echo "loadgen burst never hit the heavy budget" >&2
        cat "$smoke/burst.json" >&2
        exit 1
    }
    target/debug/lastmile loadgen --addr "$addr" --profile ladder \
        --rates 40,80 --dwell-ms 400 --mix classify=2,series=1,healthz=1 \
        --out "$smoke/ladder.json" 2>/dev/null
    grep -q '"offered_rps"' "$smoke/ladder.json" || {
        echo "loadgen ladder report has no rungs" >&2
        cat "$smoke/ladder.json" >&2
        exit 1
    }
    stop_serve -lg

    # Ops-plane smoke: the daemon with the self-scraper and access log
    # armed, a loadgen burst to move the counters, then validate the
    # artefacts with the repo's own `lastmile lint` (no jq/promtool):
    # the Prometheus exposition must lint clean, the self-scraped
    # timeline must hold at least two samples, and every access-log
    # line must be a well-formed JSON object.
    echo "==> ops smoke (prom exposition + timeline + access log, all linted)"
    start_serve -ops "ops serve" --traceroutes "$smoke/traceroutes.jsonl" \
        --probes "$smoke/probes.json" --serve-workers 2 \
        --serve-budget-heavy 1 --serve-heavy-delay-ms 50 \
        --ops-sample-ms 100 --access-log "$smoke/access.jsonl"
    target/debug/lastmile loadgen --addr "$addr" --profile burst \
        --requests 16 --bursts 2 --out "$smoke/ops-burst.json" 2>/dev/null
    sleep 0.3
    curl -sf "http://$addr/metrics?format=prom" >"$smoke/metrics.prom"
    target/debug/lastmile lint --prom "$smoke/metrics.prom"
    # The run's per-layer ingest timers are declared metrics, so the
    # shipped binary exposes them too (not only the JSON).
    grep -q '^lastmile_run_ingest_decode_nanos_total ' "$smoke/metrics.prom"
    samples=$(curl -sf "http://$addr/v1/ops/timeline?metric=request_rate" | grep -o '"t":' | wc -l)
    [ "${samples:-0}" -ge 2 ] || {
        echo "ops timeline too sparse ($samples samples)" >&2
        exit 1
    }
    stop_serve -ops
    [ -s "$smoke/access.jsonl" ] || { echo "access log is empty" >&2; exit 1; }
    target/debug/lastmile lint --access-log "$smoke/access.jsonl"
    smoke_cleanup
    trap - EXIT
else
    echo "==> serve smoke skipped (curl not found)"
fi

echo "OK: fmt, clippy, benches, tests, benchmark, experiments, observability, fleet, serve, loadgen and ops smoke all green"
