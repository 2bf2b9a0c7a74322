//! Host-profile analysis: the `--prof` CLI plumbing, Chrome-trace
//! summarization (`gtr-analyze --prof-summary`) and BENCH-history
//! trend reporting (`gtr-analyze --bench-history`).
//!
//! The recording half lives in [`gtr_sim::prof`]; this module is the
//! consuming half. [`arm_from_args`]/[`finish`] give every binary the
//! same `--prof <out.json>` flag. [`parse_chrome_trace`] re-parses an
//! emitted trace back into spans (via [`gtr_sim::json`] — the same
//! parser CI uses to prove the trace is well-formed), and
//! [`summary`] renders the three views a slow run needs first: top
//! spans by aggregate time, per-worker lane utilization, and the
//! critical path of top-level spans. [`bench_history_report`] reads
//! the committed `BENCH_*.json` history arrays and prints a
//! per-commit trend with threshold-based regression verdicts, so the
//! perf history stays consumable (and parseable — CI runs it as a
//! rot gate) without leaving the repo.

use std::path::{Path, PathBuf};

use gtr_sim::json::Json;
use gtr_sim::prof;

use crate::perf::{self, MatrixPerfReport, PerfReport};

// ---------------------------------------------------------------------------
// The `--prof <out.json>` flag.
// ---------------------------------------------------------------------------

/// Parses `--prof <out.json>` from `args` and, when present, enables
/// the host profiler and returns the output path. Call once at
/// binary startup, before any work worth timing.
pub fn arm_from_args(args: &[String]) -> Option<PathBuf> {
    let i = args.iter().position(|a| a == "--prof")?;
    let path = args.get(i + 1).unwrap_or_else(|| {
        eprintln!("--prof needs an output path for the Chrome trace");
        std::process::exit(2);
    });
    prof::enable();
    Some(PathBuf::from(path))
}

/// Writes the Chrome trace recorded since [`arm_from_args`] to
/// `path` (a no-op when `path` is `None`) and reports what was
/// written on stderr. Call once at binary exit, after the last span
/// has closed.
pub fn finish(path: Option<&Path>) {
    let Some(path) = path else { return };
    match prof::write_chrome_trace(path) {
        Ok(stats) => eprintln!(
            "profile written to {} ({} spans on {} lanes; load in Perfetto or chrome://tracing)",
            path.display(),
            stats.spans,
            stats.lanes
        ),
        Err(e) => {
            eprintln!("failed to write profile {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

// ---------------------------------------------------------------------------
// Chrome-trace parsing.
// ---------------------------------------------------------------------------

/// One completed span reconstructed from a Chrome trace.
#[derive(Debug, Clone)]
pub struct ProfSpan {
    /// Aggregation key (the recorder's static span name, from `cat`).
    pub cat: String,
    /// Display name (`name` or `name:label`).
    pub name: String,
    /// Timeline lane (thread) the span ran on.
    pub lane: String,
    /// Start timestamp, µs since the trace epoch.
    pub start_us: f64,
    /// Duration, µs.
    pub dur_us: f64,
    /// Nesting depth on its lane (0 = top-level).
    pub depth: usize,
}

/// A parsed Chrome trace: spans, lane names, counter totals.
#[derive(Debug, Clone)]
pub struct ProfTrace {
    /// Lane names in `tid` order.
    pub lanes: Vec<String>,
    /// All completed spans, in document order.
    pub spans: Vec<ProfSpan>,
    /// Aggregate counter totals (the writer's `gtrCounters` block).
    pub counters: Vec<(String, u64)>,
    /// Earliest event timestamp, µs.
    pub begin_us: f64,
    /// Latest event timestamp, µs.
    pub end_us: f64,
}

impl ProfTrace {
    /// Trace wall-clock extent in milliseconds.
    pub fn wall_ms(&self) -> f64 {
        ((self.end_us - self.begin_us) / 1e3).max(0.0)
    }
}

/// Parses a Chrome Trace Event Format document (as written by
/// [`gtr_sim::prof::write_chrome_trace`]) back into spans. Fails on
/// malformed JSON, a missing `traceEvents` array, or unbalanced
/// `B`/`E` events on any lane — the properties CI's smoke asserts.
pub fn parse_chrome_trace(text: &str) -> Result<ProfTrace, String> {
    let doc = Json::parse(text).map_err(|e| format!("trace is not valid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("trace has no traceEvents array")?;
    let mut lanes: Vec<(u64, String)> = Vec::new();
    let mut stacks: Vec<(u64, Vec<(String, String, f64)>)> = Vec::new();
    let mut spans: Vec<ProfSpan> = Vec::new();
    let mut begin_us = f64::INFINITY;
    let mut end_us = f64::NEG_INFINITY;
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i} has no ph"))?;
        let tid = e.get("tid").and_then(Json::as_u64).unwrap_or(0);
        if let Some(ts) = e.get("ts").and_then(Json::as_f64) {
            begin_us = begin_us.min(ts);
            end_us = end_us.max(ts);
        }
        match ph {
            "M" => {
                if e.get("name").and_then(Json::as_str) == Some("thread_name") {
                    if let Some(name) =
                        e.get("args").and_then(|a| a.get("name")).and_then(Json::as_str)
                    {
                        lanes.push((tid, name.to_string()));
                    }
                }
            }
            "B" => {
                let name = e
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("B event {i} has no name"))?
                    .to_string();
                let cat = e
                    .get("cat")
                    .and_then(Json::as_str)
                    .unwrap_or(name.split(':').next().unwrap_or(&name))
                    .to_string();
                let ts = e
                    .get("ts")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("B event {i} has no ts"))?;
                let idx = match stacks.iter().position(|(t, _)| *t == tid) {
                    Some(i) => i,
                    None => {
                        stacks.push((tid, Vec::new()));
                        stacks.len() - 1
                    }
                };
                stacks[idx].1.push((name, cat, ts));
            }
            "E" => {
                let ts = e
                    .get("ts")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("E event {i} has no ts"))?;
                let stack = stacks
                    .iter_mut()
                    .find(|(t, _)| *t == tid)
                    .map(|(_, s)| s)
                    .filter(|s| !s.is_empty())
                    .ok_or_else(|| format!("unbalanced E event {i} on tid {tid}"))?;
                let depth = stack.len() - 1;
                let (name, cat, start) = stack.pop().expect("non-empty checked");
                let lane = lanes
                    .iter()
                    .find(|(t, _)| *t == tid)
                    .map(|(_, n)| n.clone())
                    .unwrap_or_else(|| format!("tid-{tid}"));
                spans.push(ProfSpan {
                    cat,
                    name,
                    lane,
                    start_us: start,
                    dur_us: ts - start,
                    depth,
                });
            }
            _ => {}
        }
    }
    for (tid, stack) in &stacks {
        if !stack.is_empty() {
            return Err(format!(
                "unbalanced trace: {} B event(s) never closed on tid {tid}",
                stack.len()
            ));
        }
    }
    let counters = doc
        .get("gtrCounters")
        .and_then(Json::fields)
        .map(|fields| {
            fields
                .iter()
                .filter_map(|(n, v)| Some((n.clone(), v.as_u64()?)))
                .collect()
        })
        .unwrap_or_default();
    if begin_us > end_us {
        (begin_us, end_us) = (0.0, 0.0);
    }
    Ok(ProfTrace {
        lanes: lanes.into_iter().map(|(_, n)| n).collect(),
        spans,
        counters,
        begin_us,
        end_us,
    })
}

/// Checks that at least `n` `worker-*` lanes carry at least one span
/// each — the CI smoke's shape gate for a `--threads n` run.
pub fn expect_workers(trace: &ProfTrace, n: usize) -> Result<(), String> {
    let populated = trace
        .lanes
        .iter()
        .filter(|l| l.starts_with("worker-"))
        .filter(|l| trace.spans.iter().any(|s| &&s.lane == l))
        .count();
    if populated >= n {
        Ok(())
    } else {
        Err(format!(
            "expected >= {n} populated worker lanes, found {populated} \
             (lanes: {})",
            trace.lanes.join(", ")
        ))
    }
}

// ---------------------------------------------------------------------------
// Summary rendering.
// ---------------------------------------------------------------------------

fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole * 100.0
    } else {
        0.0
    }
}

/// Renders the human summary of a parsed trace: top span names by
/// aggregate time, per-lane utilization, the main lane's top-level
/// phase breakdown (with its coverage of the trace wall), counter
/// totals, and the critical path.
pub fn summary(trace: &ProfTrace) -> String {
    let wall_ms = trace.wall_ms();
    let mut out = format!(
        "trace: {} spans on {} lanes, {:.1} ms wall\n",
        trace.spans.len(),
        trace.lanes.len(),
        wall_ms
    );

    // Top span names by aggregate time. Aggregation is by `cat` (the
    // recorder's static span name); totals sum across lanes, so
    // parallel phases can exceed 100% of wall (thread-ms).
    let mut by_cat: Vec<(String, u64, f64)> = Vec::new();
    for s in &trace.spans {
        match by_cat.iter_mut().find(|(c, _, _)| *c == s.cat) {
            Some((_, n, total)) => {
                *n += 1;
                *total += s.dur_us / 1e3;
            }
            None => by_cat.push((s.cat.clone(), 1, s.dur_us / 1e3)),
        }
    }
    by_cat.sort_by(|a, b| b.2.total_cmp(&a.2));
    out.push_str("\ntop spans (aggregated over lanes; thread-ms):\n");
    out.push_str(&format!(
        "  {:<24} {:>7} {:>12} {:>10} {:>7}\n",
        "name", "count", "total ms", "avg ms", "% wall"
    ));
    for (cat, n, total) in by_cat.iter().take(10) {
        out.push_str(&format!(
            "  {:<24} {:>7} {:>12.1} {:>10.2} {:>6.1}%\n",
            cat,
            n,
            total,
            total / *n as f64,
            pct(*total, wall_ms)
        ));
    }

    // Per-lane utilization: the fraction of the trace wall each lane
    // spent inside a top-level span.
    out.push_str("\nper-worker utilization (top-level span time / trace wall):\n");
    for lane in &trace.lanes {
        let busy_ms: f64 = trace
            .spans
            .iter()
            .filter(|s| &s.lane == lane && s.depth == 0)
            .map(|s| s.dur_us / 1e3)
            .sum();
        let count = trace.spans.iter().filter(|s| &s.lane == lane).count();
        out.push_str(&format!(
            "  {:<12} {:>6.1}% busy  ({count} spans, {busy_ms:.1} ms)\n",
            lane,
            pct(busy_ms, wall_ms)
        ));
    }

    // Phase breakdown: the main lane's top-level spans are the run's
    // sequential phases (figures, exports); their sum over the trace
    // wall is the breakdown's coverage of measured wall time.
    let mut phases: Vec<(String, f64)> = Vec::new();
    for s in trace.spans.iter().filter(|s| s.lane == "main" && s.depth == 0) {
        match phases.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, total)) => *total += s.dur_us / 1e3,
            None => phases.push((s.name.clone(), s.dur_us / 1e3)),
        }
    }
    phases.sort_by(|a, b| b.1.total_cmp(&a.1));
    let covered_ms: f64 = phases.iter().map(|(_, t)| t).sum();
    out.push_str("\nper-phase breakdown (main lane, top-level spans):\n");
    for (name, total) in &phases {
        out.push_str(&format!(
            "  {:<32} {:>10.1} ms {:>6.1}%\n",
            name,
            total,
            pct(*total, wall_ms)
        ));
    }
    out.push_str(&format!(
        "  phase total: {covered_ms:.1} ms = {:.1}% of trace wall ({wall_ms:.1} ms)\n",
        pct(covered_ms, wall_ms)
    ));

    if !trace.counters.is_empty() {
        out.push_str("\ncounters:\n");
        for (name, v) in &trace.counters {
            out.push_str(&format!("  {name:<24} {v}\n"));
        }
    }

    // Critical path: walk backward from the latest-ending top-level
    // span to the span that ends nearest before it starts — the chain
    // of work nothing else could have hidden.
    let mut top: Vec<&ProfSpan> = trace.spans.iter().filter(|s| s.depth == 0).collect();
    top.sort_by(|a, b| (a.start_us + a.dur_us).total_cmp(&(b.start_us + b.dur_us)));
    let mut chain: Vec<&ProfSpan> = Vec::new();
    let mut cur = top.last().copied();
    while let Some(s) = cur {
        chain.push(s);
        cur = top
            .iter()
            .rev()
            .find(|c| c.start_us + c.dur_us <= s.start_us)
            .copied();
    }
    chain.reverse();
    out.push_str(&format!("\ncritical path ({} links):\n", chain.len()));
    let show = 12usize;
    let skipped = chain.len().saturating_sub(show);
    if skipped > 0 {
        out.push_str(&format!("  ... {skipped} earlier links elided ...\n"));
    }
    let mut prev_end: Option<f64> = None;
    for s in chain.iter().rev().take(show).rev() {
        let gap = prev_end.map_or(0.0, |e| (s.start_us - e) / 1e3);
        out.push_str(&format!(
            "  {:<32} {:<12} {:>10.1} ms  (+{:.1} ms gap)\n",
            s.name,
            s.lane,
            s.dur_us / 1e3,
            gap.max(0.0)
        ));
        prev_end = Some(s.start_us + s.dur_us);
    }
    out
}

// ---------------------------------------------------------------------------
// BENCH-history trend reporting.
// ---------------------------------------------------------------------------

fn fmt_cpu(cpu_ms: Option<f64>) -> String {
    match cpu_ms {
        Some(ms) => format!("{:.1}s cpu", ms / 1e3),
        None => "cpu n/a".to_string(),
    }
}

fn verdict(delta_pct: f64, tolerance_pct: f64) -> &'static str {
    if delta_pct < -tolerance_pct {
        "REGRESS"
    } else if delta_pct > tolerance_pct {
        "improved"
    } else {
        "ok"
    }
}

fn phases_line(phases: &[perf::PhaseTotal]) -> String {
    phases
        .iter()
        .map(|p| format!("{} {:.0}ms", p.name, p.wall_ms))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Renders the per-commit trend of one committed BENCH history file.
/// Record kind is detected per record by a marker key —
/// `cells_per_sec` for matrix-throughput records, `hot_p50_us` for
/// serve-latency records, plain throughput otherwise; each line
/// carries the delta against the previous record and a verdict
/// against `tolerance_pct` (the regression gate's threshold). Fails —
/// the CI rot gate — when the document contains no records or any
/// record does not parse.
pub fn bench_history_report(label: &str, text: &str, tolerance_pct: f64) -> Result<String, String> {
    let records = perf::split_history(text);
    if records.is_empty() {
        return Err(format!("{label}: no records"));
    }
    let mut out = format!("{label}: {} record(s)\n", records.len());
    let mut prev_rate: Option<f64> = None;
    let mut last_phases: Vec<perf::PhaseTotal> = Vec::new();
    for (i, rec) in records.iter().enumerate() {
        let parsed =
            Json::parse(rec).map_err(|e| format!("{label}: record {i} is not valid JSON: {e}"))?;
        if parsed.get("hot_p50_us").is_some() {
            // Serve-latency record: the tracked rate is the hot/cold
            // speedup (higher is better, like every other rate here);
            // the anchor column carries the distinct-cell count.
            let r = perf::ServePerfReport::from_json(rec)
                .ok_or_else(|| format!("{label}: record {i} does not match the serve schema"))?;
            let delta = prev_rate.map(|p| (r.speedup_p50 / p - 1.0) * 100.0);
            let trend = match delta {
                Some(d) => format!("{d:+7.1}%  {}", verdict(d, tolerance_pct)),
                None => "      —  (first)".to_string(),
            };
            let rtt = match (r.hot_rtt_p50_us, r.hot_rtt_p99_us) {
                (Some(p50), Some(p99)) => format!("; client rtt p50 {p50}us p99 {p99}us"),
                _ => String::new(),
            };
            out.push_str(&format!(
                "  {i:>2}  {:<9} {:<6} {:>12.1} {:<8} {trend:<18} \
                 [cold p50 {}us -> hot p50 {}us; cells {}{rtt}]\n",
                r.commit, r.scale, r.speedup_p50, "x hot", r.cold_p50_us, r.hot_p50_us, r.cells
            ));
            prev_rate = Some(r.speedup_p50);
            last_phases = Vec::new();
            continue;
        }
        let is_matrix = parsed.get("cells_per_sec").is_some();
        let (commit, scale, rate, unit, cpu, anchor, extra, phases) = if is_matrix {
            let r = MatrixPerfReport::from_json(rec)
                .ok_or_else(|| format!("{label}: record {i} does not match the matrix schema"))?;
            let extra = match (r.exact_sim_cycles, r.exact_cells_per_sec) {
                (Some(c), Some(v)) => format!("  exact {v:.2} cells/s ({c} cycles)"),
                _ => String::new(),
            };
            (
                r.commit,
                r.scale,
                r.cells_per_sec,
                "cells/s",
                r.cpu_ms,
                r.sim_cycles,
                extra,
                r.phases,
            )
        } else {
            let r = PerfReport::from_json(rec)
                .ok_or_else(|| format!("{label}: record {i} does not match the perf schema"))?;
            (
                r.commit,
                r.scale,
                r.cycles_per_sec,
                "cycles/s",
                r.cpu_ms,
                r.sim_cycles,
                String::new(),
                r.phases,
            )
        };
        let delta = prev_rate.map(|p| (rate / p - 1.0) * 100.0);
        let trend = match delta {
            Some(d) => format!("{d:+7.1}%  {}", verdict(d, tolerance_pct)),
            None => "      —  (first)".to_string(),
        };
        out.push_str(&format!(
            "  {i:>2}  {commit:<9} {scale:<6} {rate:>12.2} {unit:<8} {trend:<18} \
             [{}; anchor {anchor}]{extra}\n",
            fmt_cpu(cpu)
        ));
        prev_rate = Some(rate);
        last_phases = phases;
    }
    if !last_phases.is_empty() {
        out.push_str(&format!("  latest phases: {}\n", phases_line(&last_phases)));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::PhaseTotal;

    fn sample_trace_doc() -> String {
        let snap = prof::ProfSnapshot {
            lanes: vec![
                prof::LaneSnapshot {
                    name: "main".to_string(),
                    spans: vec![
                        prof::SpanRec {
                            name: "figure",
                            label: "fig02_03".into(),
                            start_us: 0.0,
                            end_us: 60_000.0,
                            cpu_ms: Some(1.0),
                        },
                        prof::SpanRec {
                            name: "export",
                            label: String::new(),
                            start_us: 60_000.0,
                            end_us: 100_000.0,
                            cpu_ms: None,
                        },
                    ],
                    samples: vec![],
                    marks: vec![],
                },
                prof::LaneSnapshot {
                    name: "worker-0".to_string(),
                    spans: vec![
                        prof::SpanRec {
                            name: "cell",
                            label: "GUPSxIC+LDS#3".into(),
                            start_us: 5_000.0,
                            end_us: 50_000.0,
                            cpu_ms: Some(44.0),
                        },
                        prof::SpanRec {
                            name: "ckpt:replay",
                            label: "GUPS".into(),
                            start_us: 6_000.0,
                            end_us: 9_000.0,
                            cpu_ms: Some(3.0),
                        },
                    ],
                    samples: vec![prof::CounterSample { name: "pool.queue_depth", ts_us: 5_000.0, value: 4 }],
                    marks: vec![prof::MarkRec { name: "sample:detail", ts_us: 10_000.0 }],
                },
            ],
            counters: vec![("ckpt.cache_hit".to_string(), 3), ("pool.steals".to_string(), 1)],
        };
        let mut doc = String::new();
        prof::chrome_trace(&snap).write_compact(&mut doc);
        doc
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let trace = parse_chrome_trace(&sample_trace_doc()).expect("parses");
        assert_eq!(trace.lanes, vec!["main".to_string(), "worker-0".to_string()]);
        assert_eq!(trace.spans.len(), 4);
        let replay = trace
            .spans
            .iter()
            .find(|s| s.cat == "ckpt:replay")
            .expect("nested replay span");
        assert_eq!(replay.depth, 1, "replay nests inside the cell span");
        assert_eq!(replay.lane, "worker-0");
        let cell = trace.spans.iter().find(|s| s.cat == "cell").expect("cell span");
        assert_eq!(cell.depth, 0);
        assert_eq!(cell.name, "cell:GUPSxIC+LDS#3");
        assert!((trace.wall_ms() - 100.0).abs() < 1e-6);
        assert_eq!(trace.counters.len(), 2);
        assert!(expect_workers(&trace, 1).is_ok());
        assert!(expect_workers(&trace, 2).is_err());
    }

    #[test]
    fn summary_reports_phase_coverage_and_critical_path() {
        let trace = parse_chrome_trace(&sample_trace_doc()).expect("parses");
        let text = summary(&trace);
        assert!(text.contains("per-phase breakdown"), "{text}");
        // Main lane covers the full 100 ms wall: 60 ms figure + 40 ms
        // export = 100% coverage.
        assert!(text.contains("100.0% of trace wall"), "{text}");
        assert!(text.contains("critical path"), "{text}");
        assert!(text.contains("per-worker utilization"), "{text}");
        assert!(text.contains("ckpt.cache_hit"), "{text}");
    }

    #[test]
    fn malformed_traces_are_rejected() {
        assert!(parse_chrome_trace("not json").is_err());
        assert!(parse_chrome_trace("{}").is_err());
        // An E without a B is unbalanced.
        let bad = r#"{"traceEvents":[{"ph":"E","pid":1,"tid":0,"ts":1.0}]}"#;
        assert!(parse_chrome_trace(bad).unwrap_err().contains("unbalanced"));
        // A B without an E is unbalanced too.
        let bad = r#"{"traceEvents":[{"ph":"B","name":"x","pid":1,"tid":0,"ts":1.0}]}"#;
        assert!(parse_chrome_trace(bad).unwrap_err().contains("unbalanced"));
    }

    #[test]
    fn bench_history_trend_flags_regressions() {
        let mk = |commit: &str, rate: f64| MatrixPerfReport {
            commit: commit.into(),
            scale: "paper".into(),
            wall_ms: 1000.0,
            cpu_ms: Some(980.0),
            cells: 40,
            sim_cycles: 44_523_456,
            cells_per_sec: rate,
            exact_sim_cycles: Some(44_430_672),
            exact_cells_per_sec: Some(rate * 0.9),
            phases: vec![PhaseTotal { name: "cells".into(), wall_ms: 900.0, cpu_ms: Some(890.0) }],
        };
        let mut doc = perf::append_history("", &mk("aaa", 4.0).to_json());
        doc = perf::append_history(&doc, &mk("bbb", 5.0).to_json());
        doc = perf::append_history(&doc, &mk("ccc", 2.0).to_json());
        let report = bench_history_report("BENCH_matrix_paper.json", &doc, 20.0).expect("parses");
        assert!(report.contains("3 record(s)"), "{report}");
        assert!(report.contains("REGRESS"), "2.0 after 5.0 is beyond 20%: {report}");
        assert!(report.contains("improved"), "5.0 after 4.0 is +25%: {report}");
        assert!(report.contains("latest phases: cells 900ms"), "{report}");
        assert!(report.contains("anchor 44523456"), "{report}");
        // The rot gate: an unparseable record fails the whole report.
        assert!(bench_history_report("x", "[{\"commit\": 3}]", 20.0).is_err());
        assert!(bench_history_report("x", "", 20.0).is_err());
    }

    #[test]
    fn serve_history_tracks_speedup() {
        let mk = |commit: &str, speedup: f64| perf::ServePerfReport {
            commit: commit.into(),
            scale: "tiny".into(),
            cells: 40,
            cold_p50_us: 120_000,
            cold_p90_us: 250_000,
            cold_p99_us: 400_000,
            hot_p50_us: (120_000.0 / speedup) as u64,
            hot_p90_us: 200,
            hot_p99_us: 500,
            hot_hit_rate_pct: 100.0,
            simulations: 40,
            speedup_p50: speedup,
            hot_rtt_p50_us: None,
            hot_rtt_p99_us: None,
        };
        let mut doc = perf::append_history("", &mk("aaa", 1500.0).to_json());
        let mut timed = mk("bbb", 900.0);
        timed.hot_rtt_p50_us = Some(70);
        timed.hot_rtt_p99_us = Some(300);
        doc = perf::append_history(&doc, &timed.to_json());
        let report = bench_history_report("BENCH_serve_latency.json", &doc, 20.0).expect("parses");
        assert!(report.contains("2 record(s)"), "{report}");
        assert!(report.contains("x hot"), "{report}");
        assert!(report.contains("cold p50 120000us"), "{report}");
        assert!(report.contains("cells 40"), "{report}");
        assert!(report.contains("client rtt p50 70us p99 300us"), "{report}");
        assert!(report.contains("REGRESS"), "900 after 1500 is beyond 20%: {report}");
    }

    #[test]
    fn throughput_history_uses_cycles_per_sec() {
        let r = PerfReport {
            commit: "abc".into(),
            scale: "tiny".into(),
            wall_ms: 700.0,
            cpu_ms: None,
            sim_cycles: 3_977_625,
            cycles_per_sec: 5_600_000.0,
            phases: Vec::new(),
        };
        let doc = perf::append_history("", &r.to_json());
        let report = bench_history_report("BENCH_sim_throughput.json", &doc, 20.0).expect("parses");
        assert!(report.contains("cycles/s"), "{report}");
        assert!(report.contains("cpu n/a"), "null cpu_ms must be stated: {report}");
        assert!(report.contains("anchor 3977625"), "{report}");
    }
}
