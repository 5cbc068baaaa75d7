# Sourced by the BENCH_*.json recorders (scripts/bench_ingest.sh,
# scripts/bench_fleet.sh) so every record carries one schema.

# host_json: the record's "host" object — cores, toolchain, commit and
# UTC time — so numbers from different machines, toolchains or commits
# are never compared as if they were one series.
host_json() {
    cores=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)
    rustc_version=$(rustc --version 2>/dev/null || echo unknown)
    git_rev=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
    timestamp=$(date -u +%Y-%m-%dT%H:%M:%SZ)
    printf '{"cores": %s, "rustc": "%s", "git_rev": "%s", "timestamp_utc": "%s"}' \
        "$cores" "$rustc_version" "$git_rev" "$timestamp"
}

# inline_json FILE: FILE's JSON document on one line, for embedding.
inline_json() {
    tr -d '\n' <"$1" | sed 's/  */ /g'
}
