//! Simulator-throughput measurement: the perf regression harness.
//!
//! Every figure of the paper reproduction is a sweep of the app ×
//! variant matrix through the cycle-level simulator, so the number
//! that gates iteration speed is *simulated cycles per second* on the
//! main matrix. Each measurement runs the sweep [`MEASURE_PASSES`]
//! times and keeps the fastest pass by process CPU time (wall clock
//! is also recorded), making the gate robust to co-tenant machine
//! load. This module measures it on a fixed
//! tiny-scale workload and serializes the result to
//! `BENCH_sim_throughput.json` at the repository root, giving every
//! future PR a committed baseline to compare against (`perf --check`
//! fails CI when throughput regresses more than
//! [`REGRESSION_TOLERANCE_PCT`]).
//!
//! No external dependencies: JSON is emitted by hand and parsed
//! through [`gtr_sim::json`] (the schema is owned by this module), so
//! the harness works in fully offline environments.
//!
//! Baseline files hold a **history**: a JSON array of records, one
//! per measured commit, newest last. `--check` gates against the last
//! record; the default (re-baseline) mode appends a record instead of
//! overwriting, so throughput evolution stays reviewable in-repo
//! (`gtr-analyze --bench-history` prints the trend). Files written
//! before the history format (a bare object) still parse as a
//! one-record history.
//!
//! Measurements run with the host profiler ([`gtr_sim::prof`])
//! enabled, and each record carries a `phases` object — the fastest
//! pass's wall/CPU time attributed to checkpoint acquisition, cell
//! simulation, and result merging — so a regression can be localized
//! from the committed history alone. On platforms without CPU clocks
//! the `cpu_ms` fields are an explicit JSON `null` (the gate falls
//! back to wall time and warns once); older records without a
//! `cpu_ms` key parse as CPU = wall, matching how they were measured.

use std::path::{Path, PathBuf};
use std::time::Instant;

use gtr_sim::json::Json;
use gtr_sim::prof;
use gtr_workloads::scale::Scale;

use crate::figures;
use crate::harness::RunMode;

/// File name of the committed throughput baseline, at the repo root.
pub const BASELINE_FILE: &str = "BENCH_sim_throughput.json";

/// `--check` fails when measured throughput falls more than this far
/// below the committed baseline.
pub const REGRESSION_TOLERANCE_PCT: f64 = 20.0;

/// Number of back-to-back sweeps per measurement; the fastest is
/// reported. Repeating suppresses one-off scheduler/co-tenant noise.
pub const MEASURE_PASSES: usize = 3;

/// Wall/CPU time attributed to one named phase of a measured sweep
/// (the fastest pass), from host-profiler span totals.
///
/// `wall_ms` sums span durations **across worker threads**, so on a
/// parallel sweep it is thread-milliseconds, not elapsed wall clock
/// (the `replay` phase additionally nests inside `cells` — phases
/// attribute time, they do not partition it).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTotal {
    /// Phase name (`"checkpoint"`, `"cells"`, `"replay"`, `"merge"`).
    pub name: String,
    /// Summed span wall time, ms.
    pub wall_ms: f64,
    /// Summed per-thread CPU time, ms; `None` where the platform has
    /// no per-thread CPU clocks (serialized as JSON `null`).
    pub cpu_ms: Option<f64>,
}

/// One throughput measurement of the tiny-scale main matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Git commit the measurement was taken at (or `"unknown"`).
    pub commit: String,
    /// Workload scale label (`"tiny"` for the committed baseline).
    pub scale: String,
    /// Wall-clock time of the fastest sweep in milliseconds.
    pub wall_ms: f64,
    /// Process CPU time (utime + stime) of the fastest sweep in
    /// milliseconds; `None` (serialized as JSON `null`) where the
    /// platform exposes no CPU clocks. CPU time is what the
    /// regression gate tracks when present: unlike wall clock it is
    /// insensitive to co-tenant machine load.
    pub cpu_ms: Option<f64>,
    /// Total simulated cycles across every matrix cell.
    pub sim_cycles: u64,
    /// `sim_cycles / cpu seconds` (wall seconds where CPU time is
    /// unavailable) — the tracked throughput metric.
    pub cycles_per_sec: f64,
    /// Per-phase breakdown of the fastest pass. Empty when measured
    /// with the profiler off (records older than the `phases` field).
    pub phases: Vec<PhaseTotal>,
}

fn fmt_opt_ms(v: Option<f64>) -> String {
    match v {
        Some(ms) => format!("{ms:.1}"),
        None => "null".to_string(),
    }
}

fn phases_json(phases: &[PhaseTotal]) -> String {
    let body: Vec<String> = phases
        .iter()
        .map(|p| {
            format!(
                "    \"{}\": {{\"wall_ms\": {:.1}, \"cpu_ms\": {}}}",
                p.name,
                p.wall_ms,
                fmt_opt_ms(p.cpu_ms)
            )
        })
        .collect();
    format!(",\n  \"phases\": {{\n{}\n  }}", body.join(",\n"))
}

fn parse_opt_ms(j: &Json, key: &str, legacy: Option<f64>) -> Option<Option<f64>> {
    match j.get(key) {
        None => Some(legacy),     // key absent: pre-CPU-tracking record
        Some(Json::Null) => Some(None), // explicit null: no CPU clocks
        Some(v) => Some(Some(v.as_f64()?)),
    }
}

fn parse_phases(j: &Json) -> Vec<PhaseTotal> {
    let Some(fields) = j.get("phases").and_then(Json::fields) else {
        return Vec::new();
    };
    fields
        .iter()
        .filter_map(|(name, v)| {
            Some(PhaseTotal {
                name: name.clone(),
                wall_ms: v.get("wall_ms")?.as_f64()?,
                cpu_ms: match v.get("cpu_ms") {
                    None | Some(Json::Null) => None,
                    Some(c) => Some(c.as_f64()?),
                },
            })
        })
        .collect()
}

impl PerfReport {
    /// Serializes the report as pretty-printed JSON (stable key order).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\n  \"commit\": \"{}\",\n  \"scale\": \"{}\",\n  \"wall_ms\": {:.1},\n  \"cpu_ms\": {},\n  \"sim_cycles\": {},\n  \"cycles_per_sec\": {:.0}",
            self.commit,
            self.scale,
            self.wall_ms,
            fmt_opt_ms(self.cpu_ms),
            self.sim_cycles,
            self.cycles_per_sec
        );
        if !self.phases.is_empty() {
            s.push_str(&phases_json(&self.phases));
        }
        s.push_str("\n}\n");
        s
    }

    /// Parses a report written by [`PerfReport::to_json`]. Returns
    /// `None` when a field is missing or malformed. A record without
    /// a `cpu_ms` key predates CPU tracking and parses as CPU = wall
    /// (how it was measured); an explicit `null` parses as `None`.
    pub fn from_json(s: &str) -> Option<Self> {
        let j = Json::parse(s).ok()?;
        let wall_ms = j.get("wall_ms")?.as_f64()?;
        Some(Self {
            commit: j.get("commit")?.as_str()?.to_string(),
            scale: j.get("scale")?.as_str()?.to_string(),
            wall_ms,
            cpu_ms: parse_opt_ms(&j, "cpu_ms", Some(wall_ms))?,
            sim_cycles: j.get("sim_cycles")?.as_u64()?,
            cycles_per_sec: j.get("cycles_per_sec")?.as_f64()?,
            phases: parse_phases(&j),
        })
    }
}

/// Splits a baseline document into per-record object substrings, in
/// file order (oldest first, newest last). Accepts both the history
/// format (a JSON array of records) and the pre-history format (one
/// bare object, which yields a one-element history). Brace depth is
/// tracked (records contain a nested `phases` object) and string
/// contents are skipped, so any record this module emits splits
/// exactly.
pub fn split_history(s: &str) -> Vec<&str> {
    let mut records = Vec::new();
    let mut start = None;
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        if in_str {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' => {
                if depth == 0 {
                    start = Some(i);
                }
                depth += 1;
            }
            '}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    if let Some(b) = start.take() {
                        records.push(&s[b..=i]);
                    }
                }
            }
            _ => {}
        }
    }
    records
}

/// Appends `record` (one object, as emitted by a `to_json`) to a
/// baseline history document, returning the new document. When the
/// last existing record was taken at the same commit it is replaced
/// instead — re-measuring on a dirty tree keeps one record per
/// commit, as the history is meant to read as one point per PR.
pub fn append_history(existing: &str, record: &str) -> String {
    fn record_commit(s: &str) -> Option<String> {
        Some(Json::parse(s).ok()?.get("commit")?.as_str()?.to_string())
    }
    let mut records: Vec<String> =
        split_history(existing).into_iter().map(str::to_string).collect();
    let same_commit = records
        .last()
        .zip(record_commit(record))
        .is_some_and(|(last, commit)| record_commit(last).as_ref() == Some(&commit));
    if same_commit {
        records.pop();
    }
    records.push(record.trim().to_string());
    let mut doc = String::from("[\n");
    doc.push_str(&records.join(",\n"));
    doc.push_str("\n]\n");
    doc
}

/// The newest (last) record of a [`PerfReport`] history document.
pub fn latest_report(s: &str) -> Option<PerfReport> {
    PerfReport::from_json(split_history(s).last()?)
}

/// The newest (last) record of a [`MatrixPerfReport`] history document.
pub fn latest_matrix_report(s: &str) -> Option<MatrixPerfReport> {
    MatrixPerfReport::from_json(split_history(s).last()?)
}

/// Process CPU time in milliseconds ([`prof::process_cpu_ms`]).
/// `None` on platforms without CPU clocks — warned about once, and
/// recorded as an explicit `null` rather than silently substituting
/// wall time into a field named "cpu".
fn cpu_time_ms() -> Option<f64> {
    let v = prof::process_cpu_ms();
    if v.is_none() {
        static WARNED: std::sync::Once = std::sync::Once::new();
        WARNED.call_once(|| {
            eprintln!(
                "warning: process CPU time is unavailable on this platform; \
                 BENCH records will carry \"cpu_ms\": null and throughput \
                 gates fall back to wall clock"
            );
        });
    }
    v
}

/// `sim_cycles`- or `cells`-per-second denominator: CPU seconds when
/// available, wall seconds otherwise.
fn rate_seconds(wall_ms: f64, cpu_ms: Option<f64>) -> f64 {
    (cpu_ms.unwrap_or(wall_ms) / 1e3).max(1e-9)
}

/// The phase attribution of one measured pass: the delta of
/// [`prof::totals_by_name`] across the pass, mapped onto the stable
/// BENCH phase names. Span names nested inside `ckpt:acquire`
/// (probe/decode/capture) are not double-counted; `replay` nests
/// inside `cells` by construction (documented on [`PhaseTotal`]).
fn phase_delta(before: &[prof::NameTotal], after: &[prof::NameTotal]) -> Vec<PhaseTotal> {
    let find = |set: &[prof::NameTotal], name: &str| -> (f64, Option<f64>) {
        set.iter()
            .find(|t| t.name == name)
            .map_or((0.0, None), |t| (t.wall_ms, t.cpu_ms))
    };
    let mut out = Vec::new();
    for (phase, span) in [
        ("checkpoint", "ckpt:acquire"),
        ("cells", "cell"),
        ("replay", "ckpt:replay"),
        ("merge", "pool:merge"),
    ] {
        let (w0, c0) = find(before, span);
        let (w1, c1) = find(after, span);
        let wall_ms = w1 - w0;
        let cpu_ms = c1.map(|c1| c1 - c0.unwrap_or(0.0));
        if wall_ms > 0.0 {
            out.push(PhaseTotal { name: phase.to_string(), wall_ms, cpu_ms });
        }
    }
    out
}

/// One timed sweep result: fastest pass of `passes` runs of the main
/// matrix at `scale` under `mode`, with cycle totals asserted
/// identical across passes.
struct SweepTiming {
    wall_ms: f64,
    cpu_ms: Option<f64>,
    cells: u64,
    sim_cycles: u64,
    phases: Vec<PhaseTotal>,
}

fn timed_sweeps(scale: Scale, mode: &RunMode, passes: usize, what: &str) -> SweepTiming {
    // Measurements profile themselves so every BENCH record carries a
    // phase breakdown. The profiler only observes host time — it
    // cannot perturb the simulated cycle totals asserted below.
    prof::enable();
    let mut best: Option<(f64, Option<f64>, Vec<PhaseTotal>)> = None;
    let mut sim_cycles = 0u64;
    let mut cells = 0u64;
    for pass in 0..passes {
        let totals0 = prof::totals_by_name();
        let cpu0 = cpu_time_ms();
        let t = Instant::now();
        let m = figures::main_matrix_mode(scale, false, mode);
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        let cpu_ms = match (cpu0, cpu_time_ms()) {
            (Some(a), Some(b)) => Some(b - a),
            _ => None,
        };
        let phases = phase_delta(&totals0, &prof::totals_by_name());
        let cycles: u64 = m
            .baseline
            .iter()
            .chain(m.variants.iter().flat_map(|(_, stats)| stats.iter()))
            .map(|s| s.total_cycles)
            .sum();
        if pass == 0 {
            sim_cycles = cycles;
            cells = (m.baseline.len() * (1 + m.variants.len())) as u64;
        } else {
            assert_eq!(cycles, sim_cycles, "non-deterministic {what} sweep");
        }
        // Fastest pass by CPU time (wall where CPU is unavailable).
        let cost = cpu_ms.unwrap_or(wall_ms);
        if best
            .as_ref()
            .is_none_or(|(w, c, _)| cost < c.unwrap_or(*w))
        {
            best = Some((wall_ms, cpu_ms, phases));
        }
    }
    let (wall_ms, cpu_ms, phases) = best.expect("at least one measurement pass");
    SweepTiming { wall_ms, cpu_ms, cells, sim_cycles, phases }
}

/// Runs the main (Fig 13/14/15) matrix at `scale` [`MEASURE_PASSES`]
/// times and reports the fastest pass by CPU time (wall clock where
/// CPU time is unavailable). Simulated cycle counts are asserted
/// identical across passes — the sweep is deterministic. `workers`
/// pins the matrix worker-thread count (0 = available parallelism);
/// the results are bit-identical for any value.
pub fn measure_workers(scale: Scale, scale_label: &str, workers: usize) -> PerfReport {
    let mode = RunMode::exact().with_workers(workers);
    let t = timed_sweeps(scale, &mode, MEASURE_PASSES, "exact");
    PerfReport {
        commit: git_commit(),
        scale: scale_label.to_string(),
        wall_ms: t.wall_ms,
        cpu_ms: t.cpu_ms,
        sim_cycles: t.sim_cycles,
        cycles_per_sec: t.sim_cycles as f64 / rate_seconds(t.wall_ms, t.cpu_ms),
        phases: t.phases,
    }
}

/// [`measure_workers`] with the default worker count.
pub fn measure(scale: Scale, scale_label: &str) -> PerfReport {
    measure_workers(scale, scale_label, 0)
}

/// The standard committed measurement: tiny scale.
pub fn measure_tiny() -> PerfReport {
    measure(Scale::tiny(), "tiny")
}

/// File name of the committed paper-scale sampled-matrix baseline, at
/// the repo root.
pub const PAPER_BASELINE_FILE: &str = "BENCH_matrix_paper.json";

/// Passes for the paper-scale sampled measurement. The sweep is an
/// order of magnitude bigger than the tiny matrix, so fewer
/// repetitions; the second pass reuses the first pass's disk-cached
/// checkpoints, which is the steady-state cost being tracked.
pub const PAPER_MEASURE_PASSES: usize = 2;

/// One throughput measurement of the paper-scale sampled main matrix
/// (checkpointed warmup + interval sampling — the `all --sample`
/// path).
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixPerfReport {
    /// Git commit the measurement was taken at (or `"unknown"`).
    pub commit: String,
    /// Workload scale label (`"paper"` for the committed baseline).
    pub scale: String,
    /// Wall-clock time of the fastest pass in milliseconds.
    pub wall_ms: f64,
    /// Process CPU time of the fastest pass in milliseconds; `None`
    /// (JSON `null`) where the platform exposes no CPU clocks. The
    /// regression gate tracks cells/sec derived from this when
    /// present (wall time otherwise).
    pub cpu_ms: Option<f64>,
    /// Matrix cells simulated per pass (apps × variants).
    pub cells: u64,
    /// Sum of every cell's `total_cycles` — the determinism anchor:
    /// sampled runs are bit-deterministic, so any drift means the
    /// model (not the machine) changed.
    pub sim_cycles: u64,
    /// `cells / cpu seconds` — the tracked throughput metric.
    pub cells_per_sec: f64,
    /// Cycle total of the **exact** (unsampled) paper-scale matrix —
    /// a second determinism anchor, recorded by `perf --paper
    /// --exact`. `None` in records measured without `--exact`.
    pub exact_sim_cycles: Option<u64>,
    /// Exact-mode matrix throughput in cells per CPU second, recorded
    /// by `perf --paper --exact`.
    pub exact_cells_per_sec: Option<f64>,
    /// Per-phase breakdown of the fastest **sampled** pass (the
    /// steady-state `all --sample` cost this baseline tracks). Empty
    /// in records older than the `phases` field.
    pub phases: Vec<PhaseTotal>,
}

impl MatrixPerfReport {
    /// Serializes the report as pretty-printed JSON (stable key order).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\n  \"commit\": \"{}\",\n  \"scale\": \"{}\",\n  \"wall_ms\": {:.1},\n  \"cpu_ms\": {},\n  \"cells\": {},\n  \"sim_cycles\": {},\n  \"cells_per_sec\": {:.2}",
            self.commit,
            self.scale,
            self.wall_ms,
            fmt_opt_ms(self.cpu_ms),
            self.cells,
            self.sim_cycles,
            self.cells_per_sec
        );
        if let (Some(cycles), Some(rate)) = (self.exact_sim_cycles, self.exact_cells_per_sec) {
            s.push_str(&format!(
                ",\n  \"exact_sim_cycles\": {cycles},\n  \"exact_cells_per_sec\": {rate:.2}"
            ));
        }
        if !self.phases.is_empty() {
            s.push_str(&phases_json(&self.phases));
        }
        s.push_str("\n}\n");
        s
    }

    /// Parses a report written by [`MatrixPerfReport::to_json`]. The
    /// `cpu_ms` compatibility contract matches
    /// [`PerfReport::from_json`].
    pub fn from_json(s: &str) -> Option<Self> {
        let j = Json::parse(s).ok()?;
        let wall_ms = j.get("wall_ms")?.as_f64()?;
        Some(Self {
            commit: j.get("commit")?.as_str()?.to_string(),
            scale: j.get("scale")?.as_str()?.to_string(),
            wall_ms,
            cpu_ms: parse_opt_ms(&j, "cpu_ms", Some(wall_ms))?,
            cells: j.get("cells")?.as_u64()?,
            sim_cycles: j.get("sim_cycles")?.as_u64()?,
            cells_per_sec: j.get("cells_per_sec")?.as_f64()?,
            exact_sim_cycles: j.get("exact_sim_cycles").and_then(Json::as_u64),
            exact_cells_per_sec: j.get("exact_cells_per_sec").and_then(Json::as_f64),
            phases: parse_phases(&j),
        })
    }
}

/// Measures the paper-scale sampled main matrix (shared warmup
/// checkpoints, cached on disk under `target/ckpt-cache`) and reports
/// the fastest of [`PAPER_MEASURE_PASSES`] passes. Cycle counts are
/// asserted identical across passes — checkpointed sampling is as
/// deterministic as exact simulation.
///
/// `workers` pins the matrix worker-thread count (0 = available
/// parallelism). With `exact` set the **exact** (unsampled) matrix is
/// additionally swept and its cell throughput and cycle anchor are
/// recorded in the report's `exact_*` fields — this is the `perf
/// --paper --exact` path, budget-gated in CI because it simulates
/// every cell in full.
pub fn measure_paper_workers(workers: usize, exact: bool) -> MatrixPerfReport {
    let scale = Scale::paper();
    let ckpt_dir = repo_root().join("target").join("ckpt-cache");
    let mode = RunMode::sampled(figures::sampling_for(scale))
        .with_checkpoint_dir(&ckpt_dir)
        .with_workers(workers);
    let t = timed_sweeps(scale, &mode, PAPER_MEASURE_PASSES, "sampled");
    let (exact_sim_cycles, exact_cells_per_sec) = if exact {
        let mode = RunMode::exact().with_workers(workers);
        let e = timed_sweeps(scale, &mode, PAPER_MEASURE_PASSES, "exact paper");
        (Some(e.sim_cycles), Some(e.cells as f64 / rate_seconds(e.wall_ms, e.cpu_ms)))
    } else {
        (None, None)
    };
    MatrixPerfReport {
        commit: git_commit(),
        scale: "paper".to_string(),
        wall_ms: t.wall_ms,
        cpu_ms: t.cpu_ms,
        cells: t.cells,
        sim_cycles: t.sim_cycles,
        cells_per_sec: t.cells as f64 / rate_seconds(t.wall_ms, t.cpu_ms),
        exact_sim_cycles,
        exact_cells_per_sec,
        phases: t.phases,
    }
}

/// [`measure_paper_workers`] with the default worker count, sampled
/// only — the pre-`--exact` behaviour.
pub fn measure_paper() -> MatrixPerfReport {
    measure_paper_workers(0, false)
}

/// Compares a paper-scale measurement against the committed baseline;
/// same contract as [`check_against`].
pub fn check_matrix_against(
    baseline: Option<&MatrixPerfReport>,
    measured: &MatrixPerfReport,
) -> Result<String, String> {
    let Some(base) = baseline else {
        return Ok(format!(
            "no committed paper baseline; measured {:.2} cells/s",
            measured.cells_per_sec
        ));
    };
    if measured.sim_cycles != base.sim_cycles {
        return Err(format!(
            "sampled cycle total changed: baseline {} (commit {}), measured {} — \
             the model's behaviour changed; re-baseline deliberately with `--bin perf -- --paper`",
            base.sim_cycles, base.commit, measured.sim_cycles
        ));
    }
    if let (Some(b), Some(m)) = (base.exact_sim_cycles, measured.exact_sim_cycles) {
        if b != m {
            return Err(format!(
                "exact cycle total changed: baseline {b} (commit {}), measured {m} — \
                 the model's behaviour changed; re-baseline deliberately with \
                 `--bin perf -- --paper --exact`",
                base.commit
            ));
        }
    }
    let floor = base.cells_per_sec * (1.0 - REGRESSION_TOLERANCE_PCT / 100.0);
    let delta_pct = (measured.cells_per_sec / base.cells_per_sec - 1.0) * 100.0;
    let mut verdict = format!(
        "baseline {:.2} cells/s (commit {}), measured {:.2} cells/s ({:+.1}%)",
        base.cells_per_sec, base.commit, measured.cells_per_sec, delta_pct
    );
    if let (Some(b), Some(m)) = (base.exact_cells_per_sec, measured.exact_cells_per_sec) {
        verdict.push_str(&format!("; exact {b:.2} -> {m:.2} cells/s"));
        if m < b * (1.0 - REGRESSION_TOLERANCE_PCT / 100.0) {
            return Err(format!(
                "{verdict}: exact-mode regression exceeds {REGRESSION_TOLERANCE_PCT}% tolerance"
            ));
        }
    }
    if measured.cells_per_sec < floor {
        Err(format!(
            "{verdict}: regression exceeds {REGRESSION_TOLERANCE_PCT}% tolerance"
        ))
    } else {
        Ok(verdict)
    }
}

/// File name of the committed serve-latency baseline, at the repo
/// root.
pub const SERVE_BASELINE_FILE: &str = "BENCH_serve_latency.json";

/// Hot cells must answer at least this many times faster than cold
/// cells at the median — the headline `gtr-serve` invariant: a hot
/// cell is one cache probe, never a simulation.
pub const SERVE_SPEEDUP_FLOOR: u64 = 100;

/// One latency measurement of the `gtr-serve` result cache: the tiny
/// exact (app × config) sweep submitted cell-by-cell against an
/// in-process server, cold (empty cache) then hot (fully memoized).
#[derive(Debug, Clone, PartialEq)]
pub struct ServePerfReport {
    /// Git commit the measurement was taken at (or `"unknown"`).
    pub commit: String,
    /// Workload scale label (`"tiny"` for the committed baseline).
    pub scale: String,
    /// Distinct cells submitted per pass.
    pub cells: u64,
    /// Cold-pass per-cell service latency, median, microseconds.
    pub cold_p50_us: u64,
    /// Cold-pass p90 latency, microseconds.
    pub cold_p90_us: u64,
    /// Cold-pass p99 latency, microseconds.
    pub cold_p99_us: u64,
    /// Hot-pass (memoized) median latency, microseconds — the
    /// record-kind marker `gtr-analyze --bench-history` detects serve
    /// records by.
    pub hot_p50_us: u64,
    /// Hot-pass p90 latency, microseconds.
    pub hot_p90_us: u64,
    /// Hot-pass p99 latency, microseconds.
    pub hot_p99_us: u64,
    /// Percentage of hot-pass requests answered from the cache
    /// (anything under 100 means a memoized cell re-entered the
    /// simulator — a correctness failure, not a perf number).
    pub hot_hit_rate_pct: f64,
    /// Simulations the server ran across both passes; equals `cells`
    /// when dedupe/memoization worked perfectly.
    pub simulations: u64,
    /// `cold_p50_us / hot_p50_us` — the headline speedup.
    pub speedup_p50: f64,
    /// Hot-cell client round trip, median, microseconds: one request
    /// per write on one `TCP_NODELAY` connection, from the write to
    /// the document's last byte. Unlike the header's `micros`, which
    /// starts after admission, this is everything a client waits for.
    /// `None` in records that predate the field.
    pub hot_rtt_p50_us: Option<u64>,
    /// Hot-cell client round trip, p99, microseconds.
    pub hot_rtt_p99_us: Option<u64>,
}

fn fmt_opt_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |v| v.to_string())
}

/// An optional count: absent (older records) and `null` both parse as
/// `None`, anything else must be a count.
fn parse_opt_u64(j: &Json, key: &str) -> Option<Option<u64>> {
    match j.get(key) {
        None | Some(Json::Null) => Some(None),
        Some(v) => Some(Some(v.as_u64()?)),
    }
}

impl ServePerfReport {
    /// Serializes the report as pretty-printed JSON (stable key order).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"commit\": \"{}\",\n  \"scale\": \"{}\",\n  \"cells\": {},\n  \
             \"cold_p50_us\": {},\n  \"cold_p90_us\": {},\n  \"cold_p99_us\": {},\n  \
             \"hot_p50_us\": {},\n  \"hot_p90_us\": {},\n  \"hot_p99_us\": {},\n  \
             \"hot_hit_rate_pct\": {:.1},\n  \"simulations\": {},\n  \"speedup_p50\": {:.1},\n  \
             \"hot_rtt_p50_us\": {},\n  \"hot_rtt_p99_us\": {}\n}}\n",
            self.commit,
            self.scale,
            self.cells,
            self.cold_p50_us,
            self.cold_p90_us,
            self.cold_p99_us,
            self.hot_p50_us,
            self.hot_p90_us,
            self.hot_p99_us,
            self.hot_hit_rate_pct,
            self.simulations,
            self.speedup_p50,
            fmt_opt_u64(self.hot_rtt_p50_us),
            fmt_opt_u64(self.hot_rtt_p99_us)
        )
    }

    /// Parses a report written by [`ServePerfReport::to_json`].
    pub fn from_json(s: &str) -> Option<Self> {
        let j = Json::parse(s).ok()?;
        let u = |k: &str| j.get(k)?.as_u64();
        Some(Self {
            commit: j.get("commit")?.as_str()?.to_string(),
            scale: j.get("scale")?.as_str()?.to_string(),
            cells: u("cells")?,
            cold_p50_us: u("cold_p50_us")?,
            cold_p90_us: u("cold_p90_us")?,
            cold_p99_us: u("cold_p99_us")?,
            hot_p50_us: u("hot_p50_us")?,
            hot_p90_us: u("hot_p90_us")?,
            hot_p99_us: u("hot_p99_us")?,
            hot_hit_rate_pct: j.get("hot_hit_rate_pct")?.as_f64()?,
            simulations: u("simulations")?,
            speedup_p50: j.get("speedup_p50")?.as_f64()?,
            hot_rtt_p50_us: parse_opt_u64(&j, "hot_rtt_p50_us")?,
            hot_rtt_p99_us: parse_opt_u64(&j, "hot_rtt_p99_us")?,
        })
    }
}

/// The newest (last) record of a [`ServePerfReport`] history document.
pub fn latest_serve_report(s: &str) -> Option<ServePerfReport> {
    ServePerfReport::from_json(split_history(s).last()?)
}

/// Parses the cell-response header lines out of one pass's response
/// stream into a latency histogram plus the count of cache-sourced
/// answers.
fn serve_pass_latencies(responses: &[String]) -> (gtr_sim::hist::Hist, u64) {
    let mut hist = gtr_sim::hist::Hist::default();
    let mut cache_hits = 0u64;
    for line in responses {
        let Ok(j) = Json::parse(line) else { continue };
        if j.get("cell").is_none() {
            continue; // stats documents and control lines
        }
        if let Some(us) = j.get("micros").and_then(Json::as_u64) {
            hist.record(us);
        }
        if j.get("source").and_then(Json::as_str) == Some("cache") {
            cache_hits += 1;
        }
    }
    (hist, cache_hits)
}

/// Passes over the cells that [`measure_serve`] times from the client.
const SERVE_RTT_PASSES: usize = 5;

/// Client round trips in microseconds, one sample per cell request
/// in `lines` (blank lines skipped), [`SERVE_RTT_PASSES`] times on one
/// `TCP_NODELAY` connection: each request is written as one line plus
/// the blank line that flushes it, and timed until the header and
/// document lines have both arrived.
fn client_round_trips(
    addr: std::net::SocketAddr,
    lines: &[String],
) -> std::io::Result<gtr_sim::stats::Sampler> {
    use std::io::{BufRead, Write};
    let stream = std::net::TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = std::io::BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut reply = String::new();
    let mut rtts = gtr_sim::stats::Sampler::new();
    for _ in 0..SERVE_RTT_PASSES {
        for line in lines.iter().filter(|l| !l.is_empty()) {
            let request = format!("{line}\n\n");
            let start = Instant::now();
            writer.write_all(request.as_bytes())?;
            for _ in 0..2 {
                reply.clear();
                if reader.read_line(&mut reply)? == 0 {
                    return Err(std::io::ErrorKind::UnexpectedEof.into());
                }
            }
            rtts.record(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    Ok(rtts)
}

/// Measures `gtr-serve` cell latency against an in-process server on
/// a loopback port: the tiny exact (Table-2 suite × 4 configs) sweep,
/// submitted one cell per batch so every response header's `micros`
/// is that cell's own service time. The cold pass starts from an
/// empty result cache (`target/serve-perf-cache` is cleared first);
/// the hot pass resubmits the identical cells and must be answered
/// entirely from the memo. A last set of hot passes times each
/// request's client round trip ([`ServePerfReport::hot_rtt_p50_us`]).
pub fn measure_serve(workers: usize) -> ServePerfReport {
    use crate::serve::{run_server, submit_lines, ServeState};
    use gtr_workloads::suite;

    let cache_dir = repo_root().join("target").join("serve-perf-cache");
    let _ = std::fs::remove_dir_all(&cache_dir); // the cold pass must be cold
    let state = std::sync::Arc::new(ServeState::new(workers, Some(cache_dir), None));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound listener has an address");
    let server = {
        let state = std::sync::Arc::clone(&state);
        std::thread::spawn(move || run_server(state, listener))
    };
    // One request per batch — a blank line flushes after every cell —
    // so latency percentiles measure cells, not whole-batch waits.
    let mut lines = Vec::new();
    for app in suite::all(Scale::tiny()) {
        for config in ["baseline", "lds", "ic", "ic+lds"] {
            lines.push(format!(
                "{{\"app\":\"{}\",\"config\":\"{config}\",\"scale\":\"tiny\",\"mode\":\"exact\"}}",
                app.name()
            ));
            lines.push(String::new());
        }
    }
    let cold = submit_lines(addr, &lines).expect("cold serve pass");
    let hot = submit_lines(addr, &lines).expect("hot serve pass");
    let mut rtts = client_round_trips(addr, &lines).expect("round-trip passes");
    let ctl = submit_lines(
        addr,
        &["{\"cmd\":\"stats\"}".to_string(), "{\"cmd\":\"shutdown\"}".to_string()],
    )
    .expect("stats + shutdown");
    let _ = server.join();
    let (cold_hist, _) = serve_pass_latencies(&cold);
    let (hot_hist, hot_hits) = serve_pass_latencies(&hot);
    let simulations = ctl
        .first()
        .and_then(|l| Json::parse(l).ok())
        .and_then(|j| j.get("counters")?.get("simulations")?.as_u64())
        .unwrap_or(0);
    let cells = cold_hist.count();
    let hot_p50 = hot_hist.p50();
    ServePerfReport {
        commit: git_commit(),
        scale: "tiny".to_string(),
        cells,
        cold_p50_us: cold_hist.p50(),
        cold_p90_us: cold_hist.p90(),
        cold_p99_us: cold_hist.p99(),
        hot_p50_us: hot_p50,
        hot_p90_us: hot_hist.p90(),
        hot_p99_us: hot_hist.p99(),
        hot_hit_rate_pct: if cells == 0 { 0.0 } else { hot_hits as f64 * 100.0 / cells as f64 },
        simulations,
        speedup_p50: cold_hist.p50() as f64 / hot_p50.max(1) as f64,
        hot_rtt_p50_us: Some(rtts.quantile(0.50).round() as u64),
        hot_rtt_p99_us: Some(rtts.quantile(0.99).round() as u64),
    }
}

/// Gates a serve measurement. Unlike the throughput gates this checks
/// *invariants of the measured record itself* — they must hold on any
/// machine, so a slow CI box cannot mask a caching bug:
///
/// * the hot pass is 100% cache hits,
/// * the server ran exactly one simulation per distinct cell
///   (memoized cells never re-entered the simulator),
/// * hot-cell p50 is at least [`SERVE_SPEEDUP_FLOOR`]× faster than
///   cold-cell p50.
///
/// The committed baseline is reported for context but not gated on —
/// microsecond-scale latencies are machine noise, not regressions.
pub fn check_serve_against(
    baseline: Option<&ServePerfReport>,
    measured: &ServePerfReport,
) -> Result<String, String> {
    if measured.cells == 0 {
        return Err("serve measurement answered zero cells".to_string());
    }
    if measured.hot_hit_rate_pct < 100.0 {
        return Err(format!(
            "hot pass hit rate {:.1}% — memoized cells re-entered the simulator",
            measured.hot_hit_rate_pct
        ));
    }
    if measured.simulations != measured.cells {
        return Err(format!(
            "{} simulations for {} distinct cells — dedupe/memoization leaked",
            measured.simulations, measured.cells
        ));
    }
    if measured.hot_p50_us.max(1).saturating_mul(SERVE_SPEEDUP_FLOOR) > measured.cold_p50_us {
        return Err(format!(
            "hot p50 {} us vs cold p50 {} us — under the {SERVE_SPEEDUP_FLOOR}x floor",
            measured.hot_p50_us, measured.cold_p50_us
        ));
    }
    let mut verdict = format!(
        "cold p50 {} us -> hot p50 {} us ({:.0}x), {} cells, hot hits 100%",
        measured.cold_p50_us, measured.hot_p50_us, measured.speedup_p50, measured.cells
    );
    if let Some(base) = baseline {
        verdict.push_str(&format!(
            "; baseline hot p50 {} us (commit {})",
            base.hot_p50_us, base.commit
        ));
    }
    Ok(verdict)
}

/// Current `HEAD` commit hash, or `"unknown"` outside a git checkout.
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(repo_root())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The workspace root (two levels above this crate's manifest).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."))
}

/// Compares `measured` against the committed baseline. Returns
/// `Err(message)` when throughput regressed beyond the tolerance, and
/// `Ok(message)` (a human-readable verdict) otherwise — including when
/// no baseline exists yet.
pub fn check_against(baseline: Option<&PerfReport>, measured: &PerfReport) -> Result<String, String> {
    let Some(base) = baseline else {
        return Ok(format!(
            "no committed baseline; measured {:.0} cycles/s",
            measured.cycles_per_sec
        ));
    };
    if measured.sim_cycles != base.sim_cycles {
        return Err(format!(
            "simulated cycle count changed: baseline {} (commit {}), measured {} — \
             the model's behaviour changed; re-baseline deliberately with `--bin perf`",
            base.sim_cycles, base.commit, measured.sim_cycles
        ));
    }
    let floor = base.cycles_per_sec * (1.0 - REGRESSION_TOLERANCE_PCT / 100.0);
    let delta_pct = (measured.cycles_per_sec / base.cycles_per_sec - 1.0) * 100.0;
    let verdict = format!(
        "baseline {:.0} cycles/s (commit {}), measured {:.0} cycles/s ({:+.1}%)",
        base.cycles_per_sec, base.commit, measured.cycles_per_sec, delta_pct
    );
    if measured.cycles_per_sec < floor {
        Err(format!(
            "{verdict}: regression exceeds {REGRESSION_TOLERANCE_PCT}% tolerance"
        ))
    } else {
        Ok(verdict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip() {
        let r = PerfReport {
            commit: "abc1234".into(),
            scale: "tiny".into(),
            wall_ms: 1234.5,
            cpu_ms: Some(1200.0),
            sim_cycles: 987_654_321,
            cycles_per_sec: 800_000_000.0,
            phases: vec![
                PhaseTotal { name: "checkpoint".into(), wall_ms: 34.5, cpu_ms: Some(30.0) },
                PhaseTotal { name: "cells".into(), wall_ms: 1100.0, cpu_ms: Some(1080.0) },
            ],
        };
        let parsed = PerfReport::from_json(&r.to_json()).expect("round trip");
        assert_eq!(parsed.commit, r.commit);
        assert_eq!(parsed.scale, r.scale);
        assert_eq!(parsed.sim_cycles, r.sim_cycles);
        assert!((parsed.wall_ms - r.wall_ms).abs() < 0.1);
        assert!((parsed.cycles_per_sec - r.cycles_per_sec).abs() < 1.0);
        assert_eq!(parsed.phases.len(), 2);
        assert_eq!(parsed.phases[0].name, "checkpoint");
        assert!((parsed.phases[1].wall_ms - 1100.0).abs() < 0.1);
        assert_eq!(parsed.phases[1].cpu_ms, Some(1080.0));
    }

    #[test]
    fn cpu_ms_null_and_legacy_shapes() {
        // Explicit null (platform without CPU clocks) parses as None…
        let mut r = PerfReport {
            commit: "abc".into(),
            scale: "tiny".into(),
            wall_ms: 100.0,
            cpu_ms: None,
            sim_cycles: 1,
            cycles_per_sec: 10.0,
            phases: vec![PhaseTotal { name: "cells".into(), wall_ms: 90.0, cpu_ms: None }],
        };
        let json = r.to_json();
        assert!(json.contains("\"cpu_ms\": null"), "explicit null, not an omitted key: {json}");
        let parsed = PerfReport::from_json(&json).expect("null cpu_ms parses");
        assert_eq!(parsed.cpu_ms, None);
        assert_eq!(parsed.phases[0].cpu_ms, None);
        // …while a record with no cpu_ms key at all (pre-CPU-tracking
        // baseline) parses as CPU = wall, how it was measured.
        r.phases.clear();
        let legacy = r.to_json().replace("  \"cpu_ms\": null,\n", "");
        assert!(!legacy.contains("cpu_ms"));
        let parsed = PerfReport::from_json(&legacy).expect("legacy record parses");
        assert_eq!(parsed.cpu_ms, Some(100.0));
    }

    #[test]
    fn history_splits_records_with_nested_phases() {
        let mut r1 = matrix_report("aaa1111");
        r1.phases = vec![
            PhaseTotal { name: "checkpoint".into(), wall_ms: 50.0, cpu_ms: Some(48.0) },
            PhaseTotal { name: "cells".into(), wall_ms: 9000.0, cpu_ms: Some(8800.0) },
        ];
        let mut r2 = matrix_report("bbb2222");
        r2.phases = r1.phases.clone();
        let doc = append_history(&r1.to_json(), &r2.to_json());
        let records = split_history(&doc);
        assert_eq!(records.len(), 2, "nested phases object must not split records: {doc}");
        let parsed = MatrixPerfReport::from_json(records[1]).expect("record parses");
        assert_eq!(parsed.commit, "bbb2222");
        assert_eq!(parsed.phases.len(), 2);
    }

    fn matrix_report(commit: &str) -> MatrixPerfReport {
        MatrixPerfReport {
            commit: commit.into(),
            scale: "paper".into(),
            wall_ms: 10000.0,
            cpu_ms: Some(9800.0),
            cells: 40,
            sim_cycles: 44_523_456,
            cells_per_sec: 4.08,
            exact_sim_cycles: None,
            exact_cells_per_sec: None,
            phases: Vec::new(),
        }
    }

    #[test]
    fn history_appends_newest_last_and_reads_legacy_single_object() {
        let r1 = matrix_report("aaa1111");
        let mut r2 = matrix_report("bbb2222");
        r2.cells_per_sec = 5.0;
        // Legacy file: a bare object is a one-record history.
        let legacy = r1.to_json();
        assert_eq!(split_history(&legacy).len(), 1);
        assert_eq!(latest_matrix_report(&legacy).unwrap().commit, "aaa1111");
        // Appending wraps into an array, newest last.
        let doc = append_history(&legacy, &r2.to_json());
        let records = split_history(&doc);
        assert_eq!(records.len(), 2);
        assert_eq!(MatrixPerfReport::from_json(records[0]).unwrap().commit, "aaa1111");
        let last = latest_matrix_report(&doc).unwrap();
        assert_eq!(last.commit, "bbb2222");
        assert!((last.cells_per_sec - 5.0).abs() < 1e-9);
        // Re-measuring at the same commit replaces the last record
        // rather than growing the history.
        let mut r2b = r2.clone();
        r2b.cells_per_sec = 6.0;
        let doc = append_history(&doc, &r2b.to_json());
        assert_eq!(split_history(&doc).len(), 2);
        assert!((latest_matrix_report(&doc).unwrap().cells_per_sec - 6.0).abs() < 1e-9);
    }

    #[test]
    fn empty_history_accepts_first_record() {
        let doc = append_history("", &matrix_report("abc").to_json());
        assert_eq!(split_history(&doc).len(), 1);
        assert_eq!(latest_matrix_report(&doc).unwrap().commit, "abc");
        assert!(latest_matrix_report("").is_none());
    }

    #[test]
    fn exact_fields_round_trip_and_stay_optional() {
        let plain = matrix_report("abc");
        let parsed = MatrixPerfReport::from_json(&plain.to_json()).unwrap();
        assert_eq!(parsed.exact_sim_cycles, None);
        assert_eq!(parsed.exact_cells_per_sec, None);
        let mut exact = plain.clone();
        exact.exact_sim_cycles = Some(123_456_789);
        exact.exact_cells_per_sec = Some(3.25);
        let parsed = MatrixPerfReport::from_json(&exact.to_json()).unwrap();
        assert_eq!(parsed.exact_sim_cycles, Some(123_456_789));
        assert!((parsed.exact_cells_per_sec.unwrap() - 3.25).abs() < 1e-9);
    }

    #[test]
    fn exact_anchor_drift_fails_matrix_check() {
        let mut base = matrix_report("base");
        base.exact_sim_cycles = Some(1000);
        base.exact_cells_per_sec = Some(4.0);
        let mut m = base.clone();
        m.commit = "head".into();
        assert!(check_matrix_against(Some(&base), &m).is_ok());
        m.exact_sim_cycles = Some(1001);
        assert!(check_matrix_against(Some(&base), &m).is_err(), "exact drift must fail");
        m.exact_sim_cycles = Some(1000);
        m.exact_cells_per_sec = Some(4.0 * 0.79);
        assert!(check_matrix_against(Some(&base), &m).is_err(), "exact slowdown must fail");
        // A baseline without exact fields never gates them.
        m.exact_cells_per_sec = Some(0.01);
        assert!(check_matrix_against(Some(&matrix_report("base")), &m).is_ok());
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(PerfReport::from_json("{}").is_none());
        assert!(PerfReport::from_json("not json").is_none());
        assert!(PerfReport::from_json("{\"commit\": \"x\"}").is_none());
    }

    #[test]
    fn regression_check_thresholds() {
        let base = PerfReport {
            commit: "base".into(),
            scale: "tiny".into(),
            wall_ms: 1000.0,
            cpu_ms: Some(1000.0),
            sim_cycles: 1_000_000,
            cycles_per_sec: 1000.0,
            phases: Vec::new(),
        };
        let mut m = base.clone();
        m.cycles_per_sec = 900.0; // -10%: within tolerance
        assert!(check_against(Some(&base), &m).is_ok());
        m.cycles_per_sec = 799.0; // -20.1%: regression
        assert!(check_against(Some(&base), &m).is_err());
        m.cycles_per_sec = 2000.0; // improvement
        assert!(check_against(Some(&base), &m).is_ok());
        assert!(check_against(None, &m).is_ok(), "missing baseline is not a failure");
        m.sim_cycles = 1_000_001; // determinism anchor moved
        assert!(check_against(Some(&base), &m).is_err(), "cycle drift must fail");
    }

    fn serve_report(commit: &str) -> ServePerfReport {
        ServePerfReport {
            commit: commit.into(),
            scale: "tiny".into(),
            cells: 40,
            cold_p50_us: 120_000,
            cold_p90_us: 300_000,
            cold_p99_us: 500_000,
            hot_p50_us: 80,
            hot_p90_us: 150,
            hot_p99_us: 400,
            hot_hit_rate_pct: 100.0,
            simulations: 40,
            speedup_p50: 1500.0,
            hot_rtt_p50_us: Some(60),
            hot_rtt_p99_us: Some(250),
        }
    }

    #[test]
    fn serve_records_without_round_trips_still_parse() {
        // A record written before the round-trip fields existed.
        let legacy = "{\"commit\": \"ad9cc39\", \"scale\": \"tiny\", \"cells\": 40, \
            \"cold_p50_us\": 16384, \"cold_p90_us\": 32768, \"cold_p99_us\": 32768, \
            \"hot_p50_us\": 0, \"hot_p90_us\": 1, \"hot_p99_us\": 1, \
            \"hot_hit_rate_pct\": 100.0, \"simulations\": 40, \"speedup_p50\": 16384.0}";
        let r = ServePerfReport::from_json(legacy).expect("legacy record parses");
        assert_eq!((r.hot_rtt_p50_us, r.hot_rtt_p99_us), (None, None));
        assert_eq!(r.cells, 40);
        // And `None` round-trips as an explicit null.
        assert_eq!(ServePerfReport::from_json(&r.to_json()), Some(r));
        let mut bad = serve_report("x").to_json();
        bad = bad.replace("\"hot_rtt_p50_us\": 60", "\"hot_rtt_p50_us\": \"fast\"");
        assert!(ServePerfReport::from_json(&bad).is_none(), "a non-count is rejected");
    }

    #[test]
    fn serve_report_round_trips_through_history() {
        let r1 = serve_report("aaa1111");
        let mut r2 = serve_report("bbb2222");
        r2.hot_p50_us = 95;
        let doc = append_history(&r1.to_json(), &r2.to_json());
        let records = split_history(&doc);
        assert_eq!(records.len(), 2);
        let parsed = ServePerfReport::from_json(records[0]).expect("record parses");
        assert_eq!(parsed, r1);
        assert_eq!(latest_serve_report(&doc).unwrap().hot_p50_us, 95);
        // Serve records are not mistakable for the other two kinds.
        assert!(PerfReport::from_json(records[0]).is_none());
        assert!(MatrixPerfReport::from_json(records[0]).is_none());
    }

    #[test]
    fn serve_check_gates_invariants_not_machines() {
        let good = serve_report("head");
        assert!(check_serve_against(None, &good).is_ok());
        assert!(check_serve_against(Some(&serve_report("base")), &good).is_ok());
        let mut m = good.clone();
        m.hot_hit_rate_pct = 97.5;
        assert!(check_serve_against(None, &m).is_err(), "hot miss must fail");
        let mut m = good.clone();
        m.simulations = 41;
        assert!(check_serve_against(None, &m).is_err(), "dedupe leak must fail");
        let mut m = good.clone();
        m.hot_p50_us = m.cold_p50_us / (SERVE_SPEEDUP_FLOOR - 1);
        assert!(check_serve_against(None, &m).is_err(), "under the speedup floor");
        let mut m = good.clone();
        m.cells = 0;
        m.simulations = 0;
        assert!(check_serve_against(None, &m).is_err(), "empty measurement");
        // A slow machine that preserves the invariants still passes:
        // the baseline is context, not a gate.
        let mut slow = good.clone();
        slow.hot_p50_us = 300;
        slow.cold_p50_us = 3_000_000;
        let mut base = serve_report("base");
        base.hot_p50_us = 10;
        assert!(check_serve_against(Some(&base), &slow).is_ok());
    }

    /// Satellite: the measurement path at tiny scale emits well-formed
    /// JSON with the full schema.
    #[test]
    fn throughput_smoke_produces_well_formed_json() {
        let report = measure_tiny();
        assert!(report.wall_ms > 0.0);
        assert!(report.sim_cycles > 0);
        assert!(report.cycles_per_sec > 0.0);
        let json = report.to_json();
        for field in ["commit", "scale", "wall_ms", "sim_cycles", "cycles_per_sec"] {
            assert!(json.contains(&format!("\"{field}\"")), "missing {field} in {json}");
        }
        let parsed = PerfReport::from_json(&json).expect("schema round-trips");
        assert_eq!(parsed.sim_cycles, report.sim_cycles);
        assert_eq!(parsed.scale, "tiny");
        // Measurements self-profile: the record must attribute the
        // sweep's cost to phases, with cell simulation dominating.
        assert!(
            parsed.phases.iter().any(|p| p.name == "cells" && p.wall_ms > 0.0),
            "missing cells phase in {json}"
        );
    }
}
