#!/bin/sh
# Ingest perf record: classify a simulated dataset in both wire forms
# (JSON Lines and top-level array) at --ingest-threads 1 (inline decode
# on the framing thread), 2 and 3 (the worker pipeline, also on a
# one-core host) and auto, collecting each run's --stats-out document
# into BENCH_ingest.json under the shared "host" object of
# scripts/bench_host.sh. Offline; uses only the repo's own binary.
#
# BENCH_SMOKE=1 runs a fast correctness-only pass instead: a one-day
# corpus (plus a deliberately corrupted copy) is classified in every
# form × routing (--probes, --bgp, none) × mode combination and each
# worker mode's --json output and quarantine dump must be byte-identical
# to the inline (threads1) run of the same form and routing.
# No timings are recorded and BENCH_ingest.json is not touched — this is
# the cross-mode identity check scripts/check.sh runs on every change.
set -eu
cd "$(dirname "$0")/.."
. ./scripts/bench_host.sh

echo "==> cargo build --release -q -p lastmile-cli"
cargo build --release -q -p lastmile-cli
bin=target/release/lastmile

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

if [ "${BENCH_SMOKE:-0}" = "1" ]; then
    echo "==> smoke: simulate 1 day of the anchor scenario"
    "$bin" simulate --scenario anchor --out "$work" --days 1 >/dev/null 2>&1
    jsonl="$work/traceroutes.jsonl"
    array="$work/traceroutes.json"
    { printf '['; sed '$!s/$/,/' "$jsonl"; printf ']'; } >"$array"
    # A corrupted copy exercises quarantine identity: a torn record, a
    # non-JSON line and a record nested 100,000 arrays deep (past the
    # parser's recursion limit, so it must quarantine, not overflow the
    # stack) spliced between intact records.
    corrupt="$work/corrupt.jsonl"
    {
        head -n 3 "$jsonl"
        printf '{"torn": \nnot json at all\n'
        printf '{"deep":'
        head -c 100000 /dev/zero | tr '\0' '['
        head -c 100000 /dev/zero | tr '\0' ']'
        printf '}\n'
        tail -n +4 "$jsonl"
    } >"$corrupt"
    # Routing runs in the ingest workers, so each form is classified
    # under every routing mode: probe metadata, the BGP table simulate
    # writes (per-record ASN from the first public hop), and none (one
    # population, ASN 0).
    for form in lines array corrupt; do
        case $form in
            lines) file=$jsonl ;;
            array) file=$array ;;
            corrupt) file=$corrupt ;;
        esac
        for routing in probes bgp none; do
            case $routing in
                probes) route="--probes $work/probes.json" ;;
                bgp) route="--bgp $work/bgp.csv" ;;
                none) route="" ;;
            esac
            for mode in 1 2 3 0; do
                label="$routing.threads$mode"
                echo "==> smoke: classify $form $label"
                # shellcheck disable=SC2086 # $route is a flag and its value
                "$bin" classify --traceroutes "$file" $route \
                    --ingest-threads "$mode" --json --quarantine "$work/q.$form.$label.jsonl" \
                    >"$work/out.$form.$label.json" 2>/dev/null
                if [ "$mode" != 1 ]; then
                    cmp "$work/out.$form.$routing.threads1.json" "$work/out.$form.$label.json" || {
                        echo "FAIL: $form $label classify --json differs from threads1" >&2
                        exit 1
                    }
                    cmp "$work/q.$form.$routing.threads1.jsonl" "$work/q.$form.$label.jsonl" || {
                        echo "FAIL: $form $label quarantine dump differs from threads1" >&2
                        exit 1
                    }
                fi
            done
        done
    done
    # The corrupted corpus must actually have quarantined something, or
    # the quarantine identity above is vacuous.
    [ -s "$work/q.corrupt.probes.threads1.jsonl" ] || {
        echo "FAIL: corrupted corpus produced an empty quarantine dump" >&2
        exit 1
    }
    grep -q '"kind":"json".*recursion limit exceeded' "$work/q.corrupt.probes.threads1.jsonl" || {
        echo "FAIL: the deeply nested record was not quarantined as json" >&2
        exit 1
    }
    echo "OK: ingest smoke passed (classify --json and quarantine byte-identical across modes and routings)"
    exit 0
fi

echo "==> simulate 3 days of the anchor scenario"
"$bin" simulate --scenario anchor --out "$work" --days 3 >/dev/null 2>&1
jsonl="$work/traceroutes.jsonl"
array="$work/traceroutes.json"
# Same records as a top-level JSON array.
{ printf '['; sed '$!s/$/,/' "$jsonl"; printf ']'; } >"$array"

out=BENCH_ingest.json
printf '{\n  "bench": "ingest",\n  "host": %s,\n  "cases": [\n' "$(host_json)" >"$out"
first=1
for form in lines array; do
    case $form in
        lines) file=$jsonl ;;
        array) file=$array ;;
    esac
    for mode in 1 2 3 0; do
        label="threads$mode"
        echo "==> classify $form $label"
        "$bin" classify --traceroutes "$file" --probes "$work/probes.json" \
            --ingest-threads "$mode" --stats-out "$work/stats.json" >/dev/null 2>&1
        [ "$first" -eq 1 ] || printf ',\n' >>"$out"
        first=0
        printf '    {"form": "%s", "mode": "%s", "stats": ' "$form" "$label" >>"$out"
        inline_json "$work/stats.json" >>"$out"
        printf '}' >>"$out"
    done
done
printf '\n  ]\n}\n' >>"$out"
echo "OK: wrote $out"
