#!/bin/sh
# Tier-1 gate: build, test, docs, simulator-throughput regression
# check, observability schema validation, and the host-profile smoke.
set -eu
cd "$(dirname "$0")"

cargo build --release
# The default test run includes the worker-count determinism battery
# (tests/parallel_determinism.rs): byte-identical schema-v4 exports
# for --threads 1/2/4/8, exact and sampled.
cargo test -q --workspace

# The benchmark (perfbench/) is a package of its own, outside the
# workspace, that drives the simulator crates through their public
# API: build and test it so an API change there cannot break it unseen.
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

# Rustdoc must build warning-free (the workspace warns on
# missing_docs: every public item is documented).
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q

# Simulator throughput + determinism anchor (BENCH_sim_throughput.json).
cargo run --release -p gtr-bench --bin perf -- --check

# Multi-thread anchor gate: the tiny matrix swept under an explicit
# worker count must reproduce the frozen cycle total bit for bit —
# parallelism must never change what is computed.
mkdir -p target/ci-observability
cargo run --release -q -p gtr-bench --bin perf -- --dry-run --threads 4 \
    > target/ci-observability/perf_t4.json
grep -q '"sim_cycles": 3977625' target/ci-observability/perf_t4.json || {
    echo "tiny matrix at --threads 4 lost the 3,977,625 cycle anchor:" >&2
    cat target/ci-observability/perf_t4.json >&2
    exit 1
}

# Observability schema gate: export a tiny matrix, a single traced run
# with epoch sampling + distribution recording, and a JSONL event
# stream, then validate all three against the stats schema / event
# vocabulary (including the schema-v2 distribution invariants). The
# `all` invocation runs the full 17-figure battery in exact mode and
# attaches the schema-v4 `figures` array to the matrix export.
CI_OUT=target/ci-observability
mkdir -p "$CI_OUT"
cargo run --release -q -p gtr-bench --bin all -- --tiny --percentiles --stats-out "$CI_OUT/matrix.json"
cargo run --release -q -p gtr-bench --bin run_app -- GUPS ic+lds --tiny --percentiles \
    --epochs 50000 --stats-out "$CI_OUT/run.json" --trace "$CI_OUT/trace.jsonl"
cargo run --release -q -p gtr-bench --bin validate_stats -- \
    "$CI_OUT/matrix.json" "$CI_OUT/run.json"
cargo run --release -q -p gtr-bench --bin validate_stats -- --jsonl "$CI_OUT/trace.jsonl"

# Trace-replay consistency oracle: the fresh trace must independently
# reproduce the fresh stats, and the fresh stats must match the
# committed golden fixture exactly (the simulator is deterministic).
cargo run --release -q -p gtr-bench --bin gtr-analyze -- \
    --replay "$CI_OUT/trace.jsonl" --stats "$CI_OUT/run.json"
cargo run --release -q -p gtr-bench --bin gtr-analyze -- \
    --diff "$CI_OUT/run.json" experiments/gups_ic_lds_tiny.json

# Tenancy smoke: the 2-tenant tiny sweep under all three sharing
# policies (TENANCY.md) plus the shootdown-storm churn scenario. The
# sweep matrices export as schema-v5 documents whose per-tenant
# records validate_stats checks against the tenancy invariants
# (counters sum to run totals, VM-IDs ordered, slowdowns finite); the
# untenanted solo anchor must still stamp schema v4. Budget-gated
# like the other smokes (locally ~4 s).
TENANCY_BUDGET_S=120
TENANCY_START=$(date +%s)
rm -rf "$CI_OUT/tenancy"
cargo run --release -q -p gtr-bench --bin tenancy -- --tiny --tenants 2 --policy all \
    --stats-out "$CI_OUT/tenancy" > "$CI_OUT/tenancy_smoke.txt" 2>/dev/null
TENANCY_ELAPSED=$(( $(date +%s) - TENANCY_START ))
grep -q "pages migrated" "$CI_OUT/tenancy_smoke.txt" || {
    echo "tenancy smoke output is missing the shootdown storm" >&2; exit 1; }
grep -q '"schema_version":5' "$CI_OUT/tenancy/tenancy_2t_subentry.json" || {
    echo "tenanted matrix export lost its schema-v5 stamp" >&2; exit 1; }
grep -q '"schema_version":4' "$CI_OUT/tenancy/tenancy_solo.json" || {
    echo "untenanted solo export must stay schema v4" >&2; exit 1; }
cargo run --release -q -p gtr-bench --bin validate_stats -- "$CI_OUT"/tenancy/*.json
if [ "$TENANCY_ELAPSED" -gt "$TENANCY_BUDGET_S" ]; then
    echo "tenancy smoke took ${TENANCY_ELAPSED}s (budget ${TENANCY_BUDGET_S}s)" >&2
    exit 1
fi
echo "tenancy smoke: ${TENANCY_ELAPSED}s (budget ${TENANCY_BUDGET_S}s)"

# Contiguity smoke: the page-backing-mode comparison ({4 KB, 2 MB,
# fragmented-2 MB, coalesced} x {baseline, LDS, IC, IC+LDS}) at tiny
# scale under a pinned 4-worker pool. The coalesced matrix must stamp
# schema v6 and carry the `coalescing` object validate_stats checks
# against the coalescing invariants; the plain-4K matrix must stay
# schema v4 — coalescing is strictly opt-in. Budget-gated (locally
# ~3 s).
CONTIG_BUDGET_S=120
CONTIG_START=$(date +%s)
rm -rf "$CI_OUT/contiguity"
cargo run --release -q -p gtr-bench --bin contiguity -- --tiny --no-sweep --threads 4 \
    --stats-out "$CI_OUT/contiguity" > "$CI_OUT/contiguity_smoke.txt" 2>/dev/null
CONTIG_ELAPSED=$(( $(date +%s) - CONTIG_START ))
grep -q "^coalesced" "$CI_OUT/contiguity_smoke.txt" || {
    echo "contiguity smoke output is missing the coalesced mode row" >&2; exit 1; }
grep -q '"schema_version":6' "$CI_OUT/contiguity/contiguity_coalesced.json" || {
    echo "coalesced matrix export lost its schema-v6 stamp" >&2; exit 1; }
grep -q '"coalescing":{' "$CI_OUT/contiguity/contiguity_coalesced.json" || {
    echo "coalesced matrix export carries no coalescing stats" >&2; exit 1; }
grep -q '"schema_version":4' "$CI_OUT/contiguity/contiguity_4K.json" || {
    echo "plain-4K contiguity export must stay schema v4" >&2; exit 1; }
cargo run --release -q -p gtr-bench --bin validate_stats -- "$CI_OUT"/contiguity/*.json
if [ "$CONTIG_ELAPSED" -gt "$CONTIG_BUDGET_S" ]; then
    echo "contiguity smoke took ${CONTIG_ELAPSED}s (budget ${CONTIG_BUDGET_S}s)" >&2
    exit 1
fi
echo "contiguity smoke: ${CONTIG_ELAPSED}s (budget ${CONTIG_BUDGET_S}s)"

# Sampled paper-scale smoke cell: one app, two variants, full paper
# scale under interval sampling. The first run captures the warmup
# checkpoint, the second must reuse it from the cache; both stats
# records carry a schema-v3 `sampling` object that validate_stats
# checks. Budget-gated so the paper-scale fast path can't silently
# rot (locally both cells finish in ~2 s; the budget leaves headroom
# for loaded CI hosts).
SMOKE_BUDGET_S=60
SMOKE_START=$(date +%s)
rm -rf "$CI_OUT/ckpt"
cargo run --release -q -p gtr-bench --bin run_app -- GUPS baseline \
    --sample --checkpoint-dir "$CI_OUT/ckpt" --stats-out "$CI_OUT/gups_sampled_base.json"
cargo run --release -q -p gtr-bench --bin run_app -- GUPS ic+lds \
    --sample --checkpoint-dir "$CI_OUT/ckpt" --stats-out "$CI_OUT/gups_sampled_iclds.json"
SMOKE_ELAPSED=$(( $(date +%s) - SMOKE_START ))
[ "$(ls "$CI_OUT/ckpt" | wc -l)" -eq 1 ] || {
    echo "sampled smoke: expected exactly one shared checkpoint in $CI_OUT/ckpt" >&2; exit 1; }
cargo run --release -q -p gtr-bench --bin validate_stats -- \
    "$CI_OUT/gups_sampled_base.json" "$CI_OUT/gups_sampled_iclds.json"
if [ "$SMOKE_ELAPSED" -gt "$SMOKE_BUDGET_S" ]; then
    echo "sampled paper-scale smoke took ${SMOKE_ELAPSED}s (budget ${SMOKE_BUDGET_S}s)" >&2
    exit 1
fi
echo "sampled paper-scale smoke: ${SMOKE_ELAPSED}s (budget ${SMOKE_BUDGET_S}s)"

# Sampled full-battery smoke: the complete 17-figure battery at tiny
# scale under checkpointed interval sampling (the exact-mode battery
# already ran above for the matrix export). The export's `figures`
# array must validate — validate_stats checks every figure sampled
# every cell it simulated, so a silent fallback to exact simulation
# fails here. The same run records a host-side span profile
# (`--prof`, ARCHITECTURE's host-side profiling section) under a
# pinned 4-worker pool — profiling must not perturb the export, and
# the emitted Chrome trace must be well-formed. Budget-gated like the
# cell smoke (locally ~12 s).
BATTERY_BUDGET_S=300
BATTERY_START=$(date +%s)
rm -rf "$CI_OUT/battery-ckpt"
cargo run --release -q -p gtr-bench --bin all -- --scale tiny --sample --threads 4 \
    --checkpoint-dir "$CI_OUT/battery-ckpt" --stats-out "$CI_OUT/matrix_sampled.json" \
    --prof "$CI_OUT/prof_trace.json" \
    > "$CI_OUT/battery_sampled.txt"
BATTERY_ELAPSED=$(( $(date +%s) - BATTERY_START ))
cargo run --release -q -p gtr-bench --bin validate_stats -- "$CI_OUT/matrix_sampled.json"
grep -q "### Sampling summary" "$CI_OUT/battery_sampled.txt" || {
    echo "sampled battery output is missing its sampling summary" >&2; exit 1; }
if [ "$BATTERY_ELAPSED" -gt "$BATTERY_BUDGET_S" ]; then
    echo "sampled full battery took ${BATTERY_ELAPSED}s (budget ${BATTERY_BUDGET_S}s)" >&2
    exit 1
fi
echo "sampled full battery: ${BATTERY_ELAPSED}s (budget ${BATTERY_BUDGET_S}s)"

# Host-profile smoke: the battery's Chrome trace must be non-empty,
# parseable (balanced B/E per lane — gtr-analyze re-parses it with
# the repo's own JSON machinery), and carry at least one span on each
# of the four pinned worker lanes. The summary must render the
# per-phase breakdown it promises.
[ -s "$CI_OUT/prof_trace.json" ] || {
    echo "battery --prof run produced no trace" >&2; exit 1; }
cargo run --release -q -p gtr-bench --bin gtr-analyze -- \
    --prof-summary "$CI_OUT/prof_trace.json" --expect-workers 4 \
    > "$CI_OUT/prof_summary.txt"
grep -q "per-phase breakdown" "$CI_OUT/prof_summary.txt" || {
    echo "profile summary is missing its per-phase breakdown" >&2; exit 1; }

# BENCH-history rot gate: the committed perf baselines must stay
# parseable end to end — gtr-analyze fails on any record that does
# not round-trip through the report schemas (e.g. a hand-edit that
# breaks the history's JSON shape). With no file arguments the tool
# discovers every BENCH_*.json at the repo root by glob, so new
# baseline families are gated automatically.
cargo run --release -q -p gtr-bench --bin gtr-analyze -- --bench-history

# gtr-serve smoke: start the sweep service on a loopback port, submit
# a tiny batch containing a duplicate cell, and prove the dedupe
# layer end to end: the counters must show exactly one simulation for
# the duplicated pair, every streamed stats document must validate,
# and a resubmission must be answered 100% from the cache without
# re-entering the simulator. The server binary is invoked directly
# from target/release — a background `cargo run` would contend on the
# build lock, so build it by name first (the root `cargo build` only
# covers the root package's targets). Budget-gated (locally ~1 s).
cargo build --release -q -p gtr-bench --bin gtr-serve
SERVE_BUDGET_S=120
SERVE_START=$(date +%s)
rm -rf "$CI_OUT/serve" "$CI_OUT/serve-cache"
mkdir -p "$CI_OUT/serve"
target/release/gtr-serve --listen 127.0.0.1:0 --port-file "$CI_OUT/serve/addr" \
    --cache-dir "$CI_OUT/serve-cache" 2> "$CI_OUT/serve/server.log" &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
i=0
while [ ! -s "$CI_OUT/serve/addr" ] && [ "$i" -lt 100 ]; do sleep 0.1; i=$((i + 1)); done
[ -s "$CI_OUT/serve/addr" ] || {
    echo "gtr-serve never wrote its --port-file" >&2; exit 1; }
SERVE_ADDR=$(cat "$CI_OUT/serve/addr")

# One batch: two distinct cells plus an exact duplicate, then a
# counters probe. The blank line flushes the batch before the probe.
printf '%s\n' \
    '{"app":"GUPS","config":"baseline","scale":"tiny","mode":"exact"}' \
    '{"app":"GUPS","config":"ic+lds","scale":"tiny","mode":"exact"}' \
    '{"app":"GUPS","config":"ic+lds","scale":"tiny","mode":"exact"}' \
    '' \
    '{"cmd":"stats"}' > "$CI_OUT/serve/batch.jsonl"
target/release/gtr-serve --connect "$SERVE_ADDR" --submit "$CI_OUT/serve/batch.jsonl" \
    --out-dir "$CI_OUT/serve/cold" > "$CI_OUT/serve/cold.txt"
grep -q '"source":"coalesced"' "$CI_OUT/serve/cold.txt" || {
    echo "serve smoke: the duplicate cell did not coalesce" >&2
    cat "$CI_OUT/serve/cold.txt" >&2; exit 1; }
grep -q '"simulations":2' "$CI_OUT/serve/cold.txt" || {
    echo "serve smoke: expected exactly one simulation for the duplicated pair" >&2
    cat "$CI_OUT/serve/cold.txt" >&2; exit 1; }
[ "$(ls "$CI_OUT/serve/cold" | wc -l)" -eq 3 ] || {
    echo "serve smoke: expected three streamed documents" >&2; exit 1; }
cargo run --release -q -p gtr-bench --bin validate_stats -- "$CI_OUT"/serve/cold/resp_*.json

# Resubmission: 100% cache hits, and the simulation counter is frozen
# — memoized cells never re-enter the simulator.
target/release/gtr-serve --connect "$SERVE_ADDR" --submit "$CI_OUT/serve/batch.jsonl" \
    --out-dir "$CI_OUT/serve/hot" > "$CI_OUT/serve/hot.txt"
if grep -q '"source":"computed"\|"source":"coalesced"' "$CI_OUT/serve/hot.txt"; then
    echo "serve smoke: resubmitted cells must be pure cache hits" >&2
    cat "$CI_OUT/serve/hot.txt" >&2; exit 1
fi
[ "$(grep -c '"source":"cache"' "$CI_OUT/serve/hot.txt")" -eq 3 ] || {
    echo "serve smoke: expected three cache-sourced responses" >&2; exit 1; }
grep -q '"simulations":2' "$CI_OUT/serve/hot.txt" || {
    echo "serve smoke: the hot pass re-entered the simulator" >&2
    cat "$CI_OUT/serve/hot.txt" >&2; exit 1; }
cargo run --release -q -p gtr-bench --bin validate_stats -- "$CI_OUT"/serve/hot/resp_*.json
cmp -s "$CI_OUT/serve/cold/resp_000.json" "$CI_OUT/serve/hot/resp_000.json" || {
    echo "serve smoke: cached response bytes differ from the computed ones" >&2; exit 1; }

printf '{"cmd":"shutdown"}\n' > "$CI_OUT/serve/shutdown.jsonl"
target/release/gtr-serve --connect "$SERVE_ADDR" --submit "$CI_OUT/serve/shutdown.jsonl" \
    > "$CI_OUT/serve/shutdown.txt"
grep -q '"ok":"shutdown"' "$CI_OUT/serve/shutdown.txt" || {
    echo "serve smoke: shutdown was not acknowledged" >&2; exit 1; }
wait "$SERVE_PID" || { echo "gtr-serve exited non-zero" >&2; exit 1; }
trap - EXIT
SERVE_ELAPSED=$(( $(date +%s) - SERVE_START ))
if [ "$SERVE_ELAPSED" -gt "$SERVE_BUDGET_S" ]; then
    echo "serve smoke took ${SERVE_ELAPSED}s (budget ${SERVE_BUDGET_S}s)" >&2
    exit 1
fi
echo "serve smoke: ${SERVE_ELAPSED}s (budget ${SERVE_BUDGET_S}s)"

# Serve-latency invariants (BENCH_serve_latency.json): the tiny exact
# sweep served cold then hot, gated on machine-independent facts —
# 100% hot hit rate, one simulation per distinct cell, hot p50 at
# least 100x faster than cold.
cargo run --release -p gtr-bench --bin perf -- --serve --check

# Paper-scale anchors: the sampled main-matrix cycle sum must match
# the committed BENCH_matrix_paper.json bit for bit, and --exact
# additionally sweeps the unsampled paper matrix and gates its own
# cycle anchor + cells/sec against the last committed record.
# Budget-gated: every exact cell simulates in full (locally the
# sampled + exact pair is ~35 s; the budget leaves headroom).
PAPER_BUDGET_S=600
PAPER_START=$(date +%s)
cargo run --release -p gtr-bench --bin perf -- --paper --exact --check
PAPER_ELAPSED=$(( $(date +%s) - PAPER_START ))
if [ "$PAPER_ELAPSED" -gt "$PAPER_BUDGET_S" ]; then
    echo "paper-scale perf gate took ${PAPER_ELAPSED}s (budget ${PAPER_BUDGET_S}s)" >&2
    exit 1
fi
echo "paper-scale perf gate: ${PAPER_ELAPSED}s (budget ${PAPER_BUDGET_S}s)"
