//! Integration tests for the trace-replay analyzer: a real simulated
//! run, traced to JSONL and exported to stats JSON, must be exactly
//! reproducible from the trace alone — and every committed fixture
//! must keep parsing.

use std::sync::atomic::{AtomicU64, Ordering};

use gpu_translation_reach::bench::analyze::{
    check_against_stats, diff_stats, missing_metrics, replay_jsonl,
};
use gpu_translation_reach::core_arch::config::ReachConfig;
use gpu_translation_reach::core_arch::export::{
    run_stats_from_json, run_stats_to_json_string, STATS_SCHEMA_VERSION,
    STATS_SCHEMA_VERSION_UNTENANTED,
};
use gpu_translation_reach::core_arch::stats::RunStats;
use gpu_translation_reach::core_arch::system::System;
use gpu_translation_reach::gpu::config::GpuConfig;
use gpu_translation_reach::sim::json::Json;
use gpu_translation_reach::sim::trace::JsonlSink;
use gpu_translation_reach::workloads::{scale::Scale, suite};

/// Runs one app under one config with tracing + distributions armed,
/// returning the stats and the trace text. Every call traces to its
/// own file, so tests running in parallel never remove each other's
/// trace.
fn traced_run(app_name: &str, reach: ReachConfig) -> (RunStats, String) {
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join("gtr_analyze_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("{app_name}_{}_{call}.jsonl", std::process::id()));
    let app = suite::by_name(app_name, Scale::tiny()).expect("known app");
    let sink = JsonlSink::create(&path).expect("create trace file");
    let stats = System::new(GpuConfig::default(), reach)
        .with_trace(Box::new(sink))
        .with_distributions()
        .run(&app);
    let text = std::fs::read_to_string(&path).expect("trace readable");
    let _ = std::fs::remove_file(&path);
    (stats, text)
}

fn fixture(name: &str) -> String {
    let path = format!("{}/experiments/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {path}: {e}"))
}

#[test]
fn replay_reproduces_tiny_gups_exactly() {
    let (stats, text) = traced_run("GUPS", ReachConfig::ic_plus_lds());
    let replay = replay_jsonl(&text).expect("trace replays");
    assert_eq!(replay.translations, stats.translation_requests);
    let problems = check_against_stats(&replay, &stats, STATS_SCHEMA_VERSION);
    assert!(problems.is_empty(), "replay diverged: {problems:?}");
}

#[test]
fn replay_reproduces_other_apps_and_configs() {
    // A second cell of the matrix with a different workload shape and
    // a different reach config exercises different event mixes.
    for (app, reach) in [("ATAX", ReachConfig::lds_only()), ("MVT", ReachConfig::ic_only())] {
        let (stats, text) = traced_run(app, reach);
        let replay = replay_jsonl(&text).expect("trace replays");
        let problems = check_against_stats(&replay, &stats, STATS_SCHEMA_VERSION);
        assert!(problems.is_empty(), "{app}: replay diverged: {problems:?}");
    }
}

#[test]
fn mutated_stats_are_flagged_as_divergence() {
    let (mut stats, text) = traced_run("GUPS", ReachConfig::ic_plus_lds());
    let replay = replay_jsonl(&text).expect("trace replays");
    stats.translation_requests += 1;
    stats.attribution.slots[5].cycles += 100;
    let problems = check_against_stats(&replay, &stats, STATS_SCHEMA_VERSION);
    assert!(
        problems.iter().any(|p| p.contains("translation_requests")),
        "mutated request count must be flagged: {problems:?}"
    );
    assert!(
        problems.iter().any(|p| p.contains("attribution[walk].cycles")),
        "mutated attribution must be flagged: {problems:?}"
    );
}

#[test]
fn truncated_real_trace_is_rejected() {
    let (_, text) = traced_run("GUPS", ReachConfig::ic_plus_lds());
    // Drop the tail: the final kernel_end disappears, leaving an open
    // kernel.
    let n = text.lines().count();
    let cut: String = text.lines().take(n - 3).collect::<Vec<_>>().join("\n");
    let err = replay_jsonl(&cut).unwrap_err();
    assert!(err.contains("truncated"), "got: {err}");
    // Cut mid-line: the dangling partial JSON fails with its line
    // number.
    let mid = &text[..text.len() - 7];
    let err2 = replay_jsonl(mid).unwrap_err();
    assert!(err2.contains(&format!("line {n}")), "got: {err2}");
}

#[test]
fn v1_stats_check_reports_clear_error() {
    let (stats, text) = traced_run("GUPS", ReachConfig::ic_plus_lds());
    let replay = replay_jsonl(&text).expect("trace replays");
    let problems = check_against_stats(&replay, &stats, 1);
    assert_eq!(problems.len(), 1);
    assert!(problems[0].contains("schema v1"), "got: {}", problems[0]);
}

#[test]
fn committed_v2_fixture_is_byte_stable_and_replay_consistent() {
    let text = fixture("gups_ic_lds_tiny.json");
    let j = Json::parse(&text).expect("fixture parses");
    // An untenanted document stamps the untenanted version (TENANCY.md
    // §4): committed pre-tenancy fixtures stay byte-identical.
    assert_eq!(
        j.get("schema_version").and_then(Json::as_u64),
        Some(STATS_SCHEMA_VERSION_UNTENANTED)
    );
    let s = run_stats_from_json(&j).expect("fixture matches schema");
    assert!(s.dist_enabled, "committed fixture records distributions");
    assert_eq!(run_stats_to_json_string(&s), text, "fixture must be byte-stable");
    // The simulator is deterministic, so a fresh run reproduces the
    // committed document — and its trace reproduces both.
    let (fresh, trace) = traced_run("GUPS", ReachConfig::ic_plus_lds());
    let replay = replay_jsonl(&trace).expect("trace replays");
    let problems = check_against_stats(&replay, &s, STATS_SCHEMA_VERSION);
    assert!(problems.is_empty(), "fresh trace diverges from committed stats: {problems:?}");
    assert_eq!(fresh.total_cycles, s.total_cycles);
}

#[test]
fn committed_v1_fixture_still_parses() {
    let text = fixture("gups_ic_lds_tiny_v1.json");
    let j = Json::parse(&text).expect("v1 fixture parses");
    assert_eq!(j.get("schema_version").and_then(Json::as_u64), Some(1));
    let v1 = run_stats_from_json(&j).expect("v1 fixture matches schema");
    assert!(!v1.dist_enabled, "v1 documents carry no distributions");
    assert!(v1.latency_hists.iter().all(|h| h.is_empty()));
    // Same run, older schema: the scalar counters agree with the v2
    // fixture.
    let v2 = run_stats_from_json(&Json::parse(&fixture("gups_ic_lds_tiny.json")).unwrap())
        .expect("v2 fixture matches schema");
    assert_eq!(v1.total_cycles, v2.total_cycles);
    assert_eq!(v1.translation_requests, v2.translation_requests);
    assert_eq!(v1.page_walks, v2.page_walks);
}

#[test]
fn diff_is_zero_on_self_and_nonzero_on_mutation() {
    let s = run_stats_from_json(&Json::parse(&fixture("gups_ic_lds_tiny.json")).unwrap())
        .expect("fixture matches schema");
    assert!(diff_stats(&s, &s).iter().all(|r| r.rel == 0.0));
    let mut mutated = s.clone();
    mutated.total_cycles += mutated.total_cycles / 10;
    let rows = diff_stats(&s, &mutated);
    let row = rows.iter().find(|r| r.metric == "total_cycles").unwrap();
    assert!(row.rel > 0.09 && row.rel < 0.11, "≈+10%: {}", row.rel);
    // Distribution quantiles appear because both sides recorded them.
    assert!(rows.iter().any(|r| r.metric.starts_with("latency.walk.")));
}

/// Regression: a diff between a document with distributions and one
/// without used to silently compare only the scalar intersection.
/// [`missing_metrics`] must flag the asymmetry so `gtr-analyze --diff`
/// can exit non-zero instead.
#[test]
fn diff_against_scalar_only_document_is_flagged_incomplete() {
    let with_dists = run_stats_from_json(&Json::parse(&fixture("gups_ic_lds_tiny.json")).unwrap())
        .expect("v2 fixture matches schema");
    let scalar_only = run_stats_from_json(&Json::parse(&fixture("gups_ic_lds_tiny_v1.json")).unwrap())
        .expect("v1 fixture matches schema");
    assert!(with_dists.dist_enabled && !scalar_only.dist_enabled);
    // Same run: the headline counters agree (v1 predates cycle
    // attribution, so those rows legitimately differ)...
    let rows = diff_stats(&with_dists, &scalar_only);
    for metric in ["total_cycles", "translation_requests", "page_walks"] {
        let row = rows.iter().find(|r| r.metric == metric).unwrap();
        assert_eq!(row.rel, 0.0, "{metric} should match across schema versions");
    }
    // ...but the documents are not equivalent, and that must be visible.
    let missing = missing_metrics(&with_dists, &scalar_only);
    assert!(
        missing.iter().any(|m| m.contains("distribution") && m.contains("first document")),
        "asymmetric distributions must be reported: {missing:?}"
    );
    assert!(missing_metrics(&with_dists, &with_dists).is_empty());
}
