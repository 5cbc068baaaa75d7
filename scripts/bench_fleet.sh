#!/bin/sh
# Fleet perf record: the multi-AS scaling curve of the scenario-fleet
# pipeline. For each rung of an AS-count ladder (16 / 40 / 100 ASes)
# the script generates the corpus (`fleet gen`), runs a cold `classify`
# over it, primes the series cache with an untimed `classify
# --cache-dir` (rw) run, runs a warm `--cache ro` classify, scores the
# verdicts against the ground-truth sidecar, and records wall times, the
# score document and the cold and warm classify's --stats-out documents
# (per-layer nanos) into BENCH_fleet.json under the shared "host" object
# of scripts/bench_host.sh. `gen_ms` is corpus generation alone; it does
# not include priming. Offline; uses only the repo's own binary.
#
# BENCH_SMOKE=1 runs a fast correctness-only pass instead: the 9-AS
# scripts/fleet_smoke.json spec end-to-end with the scorer's CI gates
# armed (recall >= 0.7, zero peering false positives), and the warm
# run's --stats-out must show it was served by the store (no miss, no
# bypass, at least one hit). No timings are recorded and
# BENCH_fleet.json is not touched.
set -eu
cd "$(dirname "$0")/.."
. ./scripts/bench_host.sh

echo "==> cargo build --release -q -p lastmile-cli"
cargo build --release -q -p lastmile-cli
bin=target/release/lastmile

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

now_ms() {
    # Millisecond wall clock (GNU date; the CI container has it).
    date +%s%3N
}

# run_rung NAME SPEC: gen + cold classify + priming + warm classify +
# score.
run_rung() {
    rung_name=$1
    rung_spec=$2
    rung_dir="$work/$rung_name"
    "$bin" lint --fleet "$rung_spec" 2>/dev/null

    t0=$(now_ms)
    "$bin" fleet gen --spec "$rung_spec" --out "$rung_dir" --seed 646 >/dev/null 2>&1
    t1=$(now_ms)
    rung_gen_ms=$((t1 - t0))

    start=$(grep -o '"start": *[0-9]*' "$rung_dir/truth.json" | head -n1 | grep -o '[0-9]*')
    end=$(grep -o '"end": *[0-9]*' "$rung_dir/truth.json" | head -n1 | grep -o '[0-9]*')
    rung_traceroutes=$(wc -l <"$rung_dir/traceroutes.jsonl")
    rung_probes=$(grep -c '"id"' "$rung_dir/probes.json")

    t0=$(now_ms)
    "$bin" classify --traceroutes "$rung_dir/traceroutes.jsonl" \
        --probes "$rung_dir/probes.json" --start "$start" --end "$end" \
        --stats-out "$rung_dir/stats_cold.json" \
        --json >"$rung_dir/classified.json" 2>/dev/null
    t1=$(now_ms)
    rung_cold_ms=$((t1 - t0))

    # Untimed: the one snapshot writer, an rw classify over the corpus.
    "$bin" classify --traceroutes "$rung_dir/traceroutes.jsonl" \
        --probes "$rung_dir/probes.json" --start "$start" --end "$end" \
        --cache-dir "$rung_dir/cache" --json >/dev/null 2>&1

    t0=$(now_ms)
    "$bin" classify --traceroutes "$rung_dir/traceroutes.jsonl" \
        --probes "$rung_dir/probes.json" --start "$start" --end "$end" \
        --cache-dir "$rung_dir/cache" --cache ro \
        --stats-out "$rung_dir/stats_warm.json" \
        --json >"$rung_dir/classified_warm.json" 2>/dev/null
    t1=$(now_ms)
    rung_warm_ms=$((t1 - t0))

    cmp "$rung_dir/classified.json" "$rung_dir/classified_warm.json" || {
        echo "FAIL: $rung_name warm classify differs from cold" >&2
        exit 1
    }

    "$bin" fleet score --truth "$rung_dir/truth.json" \
        --classified "$rung_dir/classified.json" \
        --json >"$rung_dir/score.json"
}

if [ "${BENCH_SMOKE:-0}" = "1" ]; then
    echo "==> smoke: scripts/fleet_smoke.json end-to-end with gates armed"
    run_rung smoke scripts/fleet_smoke.json
    "$bin" fleet score --truth "$work/smoke/truth.json" \
        --classified "$work/smoke/classified.json" \
        --min-recall 0.7 --max-peering-fp 0 >/dev/null
    # Equal bytes alone would also pass a store that misses everything.
    store_count() {
        { grep -o "\"$1\": *[0-9]*" "$work/smoke/stats_warm.json" || echo missing; } |
            head -n1 | grep -o '[0-9a-z]*$'
    }
    hits=$(store_count hits)
    misses=$(store_count misses)
    bypasses=$(store_count bypasses)
    if [ "$misses" != 0 ] || [ "$bypasses" != 0 ] || [ "$hits" = 0 ] || [ "$hits" = missing ]; then
        echo "FAIL: smoke warm classify not served by the store (hits=$hits misses=$misses bypasses=$bypasses)" >&2
        exit 1
    fi
    echo "OK: fleet smoke passed (gen deterministic corpus, warm==cold classify, warm served by the store ($hits hits), score gates green)"
    exit 0
fi

# The ladder: 16- and 40-AS specs generated here, the 100-AS spec is the
# checked-in scripts/fleet_100as.json (EXPERIMENTS.md's recipe).
cat >"$work/fleet_16as.json" <<'EOF'
{
    "name": "fleet-16as",
    "days": 7,
    "classes": {
        "severe": 2, "mild": 2, "low": 2, "clean": 6,
        "transient": 1, "adversarial_weekly": 1,
        "adversarial_peering": 1, "adversarial_route_shift": 1
    },
    "probes_per_as": {"min": 3, "max": 6}
}
EOF
cat >"$work/fleet_40as.json" <<'EOF'
{
    "name": "fleet-40as",
    "days": 7,
    "classes": {
        "severe": 3, "mild": 3, "low": 3, "clean": 24,
        "transient": 2, "adversarial_weekly": 1,
        "adversarial_peering": 2, "adversarial_route_shift": 2
    },
    "probes_per_as": {"min": 3, "max": 6}
}
EOF

out=BENCH_fleet.json
printf '{\n  "bench": "fleet",\n  "host": %s,\n  "rungs": [\n' "$(host_json)" >"$out"
first=1
for rung in 16:$work/fleet_16as.json 40:$work/fleet_40as.json 100:scripts/fleet_100as.json; do
    ases=${rung%%:*}
    spec=${rung#*:}
    echo "==> rung: $ases ASes ($spec)"
    run_rung "as$ases" "$spec"
    [ "$first" -eq 1 ] || printf ',\n' >>"$out"
    first=0
    printf '    {"ases": %s, "probes": %s, "traceroutes": %s, "gen_ms": %s, "classify_cold_ms": %s, "classify_warm_ms": %s,\n     "score": ' \
        "$ases" "$rung_probes" "$rung_traceroutes" \
        "$rung_gen_ms" "$rung_cold_ms" "$rung_warm_ms" >>"$out"
    inline_json "$work/as$ases/score.json" >>"$out"
    printf ',\n     "stats_cold": ' >>"$out"
    inline_json "$work/as$ases/stats_cold.json" >>"$out"
    printf ',\n     "stats_warm": ' >>"$out"
    inline_json "$work/as$ases/stats_warm.json" >>"$out"
    printf '}' >>"$out"
done
printf '\n  ]\n}\n' >>"$out"
echo "OK: wrote $out"
