//! `perf` — the simulator-throughput regression harness.
//!
//! Measures wall-clock time and simulated-cycles-per-second for the
//! fixed tiny-scale main matrix (the sweep behind Figs 13-15) and
//! writes `BENCH_sim_throughput.json` at the repository root. The
//! baseline file is a **history**: a JSON array with one record per
//! measured commit, newest last; re-measuring appends (or replaces
//! the last record when HEAD hasn't moved), and `--check` gates
//! against the last committed record.
//!
//! Modes:
//!
//! * `cargo run --release -p gtr-bench --bin perf` — measure and
//!   append to the baseline history.
//! * `... --bin perf -- --check` — measure and compare against the
//!   last committed record without rewriting it; exits non-zero when
//!   throughput regressed more than the tolerance (used by `ci.sh`).
//! * `... --bin perf -- --dry-run` — measure and print only.
//! * `... --bin perf -- --paper [...]` — same three modes, but for the
//!   checkpointed interval-sampled paper-scale matrix; the baseline is
//!   `BENCH_matrix_paper.json` and the throughput unit is matrix
//!   cells per second. Adding `--exact` additionally sweeps the
//!   **unsampled** paper-scale matrix and records its cell throughput
//!   and cycle anchor in the report's `exact_*` fields (budget-gated
//!   in CI — every cell simulates in full).
//! * `... --bin perf -- --serve` — same three modes for `gtr-serve`
//!   result-cache latency: the tiny exact sweep is submitted
//!   cell-by-cell against an in-process server, cold (empty cache)
//!   then hot (memoized); the baseline is `BENCH_serve_latency.json`
//!   and `--check` gates machine-independent invariants (100% hot hit
//!   rate, one simulation per distinct cell, hot p50 >= 100x faster
//!   than cold).
//!
//! Any mode accepts `--threads N` to pin the matrix worker-thread
//! count (default: available parallelism; results are bit-identical
//! for any value), `--stats-out <path>` to write the measured
//! report JSON to a chosen file (the repo-root baseline is only
//! touched by the default measure mode), and `--prof <out.json>` to
//! write the measurement's host-profile Chrome trace (the harness
//! self-profiles either way — that's where the report's `phases`
//! come from — `--prof` just exports the timeline).

use gtr_bench::perf::{
    append_history, check_against, check_matrix_against, check_serve_against,
    latest_matrix_report, latest_report, latest_serve_report, measure_paper_workers,
    measure_serve, measure_workers, BASELINE_FILE, PAPER_BASELINE_FILE,
    REGRESSION_TOLERANCE_PCT, SERVE_BASELINE_FILE,
};
use gtr_workloads::scale::Scale;

/// `cpu_ms` is `None` when the platform can't separate CPU from wall
/// time; print that honestly instead of a fabricated number.
fn fmt_cpu_ms(cpu_ms: Option<f64>) -> String {
    match cpu_ms {
        Some(ms) => format!("{ms:.1} ms"),
        None => "n/a".to_string(),
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let prof_out = args.iter().position(|a| a == "--prof").map(|i| {
        if i + 1 >= args.len() {
            eprintln!("--prof needs an output path for the Chrome trace");
            std::process::exit(2);
        }
        let path = args.remove(i + 1);
        args.remove(i);
        std::path::PathBuf::from(path)
    });
    let stats_out = args.iter().position(|a| a == "--stats-out").map(|i| {
        if i + 1 >= args.len() {
            eprintln!("--stats-out needs a path");
            std::process::exit(2);
        }
        let path = args.remove(i + 1);
        args.remove(i);
        path
    });
    let workers = args
        .iter()
        .position(|a| a == "--threads")
        .map(|i| {
            if i + 1 >= args.len() {
                eprintln!("--threads needs a worker count");
                std::process::exit(2);
            }
            let n = args.remove(i + 1);
            args.remove(i);
            n.parse::<usize>().unwrap_or_else(|_| {
                eprintln!("--threads needs a numeric worker count (got {n:?})");
                std::process::exit(2);
            })
        })
        .unwrap_or(0);
    let check = args.iter().any(|a| a == "--check");
    let dry_run = args.iter().any(|a| a == "--dry-run");
    let paper = args.iter().any(|a| a == "--paper");
    let exact = args.iter().any(|a| a == "--exact");
    let serve = args.iter().any(|a| a == "--serve");
    if let Some(bad) = args.iter().find(|a| {
        *a != "--check" && *a != "--dry-run" && *a != "--paper" && *a != "--exact" && *a != "--serve"
    }) {
        eprintln!(
            "unknown argument `{bad}` (expected --check, --dry-run, --paper, --exact, \
             --serve, --threads <N>, --stats-out <path> or --prof <out.json>)"
        );
        std::process::exit(2);
    }
    if exact && !paper {
        eprintln!("--exact only applies to --paper (tiny measurements are always exact)");
        std::process::exit(2);
    }
    if serve && paper {
        eprintln!("--serve and --paper are separate measurements; pick one");
        std::process::exit(2);
    }
    if serve {
        run_serve(check, dry_run, stats_out, workers);
        return;
    }
    if paper {
        run_paper(check, dry_run, stats_out, prof_out, workers, exact);
        return;
    }

    let path = gtr_bench::perf::repo_root().join(BASELINE_FILE);
    let history = std::fs::read_to_string(&path).unwrap_or_default();
    let baseline = latest_report(&history);

    eprintln!("measuring tiny-scale main matrix (4 variants x Table-2 suite)...");
    let report = measure_workers(Scale::tiny(), "tiny", workers);
    println!(
        "wall {:.1} ms | cpu {} | {} simulated cycles | {:.2} M simulated cycles/s (commit {})",
        report.wall_ms,
        fmt_cpu_ms(report.cpu_ms),
        report.sim_cycles,
        report.cycles_per_sec / 1e6,
        report.commit
    );
    gtr_bench::profile::finish(prof_out.as_deref());

    if let Some(out) = &stats_out {
        std::fs::write(out, report.to_json()).expect("write --stats-out JSON");
        eprintln!("report written to {out}");
    }

    if check {
        match check_against(baseline.as_ref(), &report) {
            Ok(verdict) => println!("OK: {verdict} (tolerance {REGRESSION_TOLERANCE_PCT}%)"),
            Err(msg) => {
                eprintln!("PERF REGRESSION: {msg}");
                std::process::exit(1);
            }
        }
        return;
    }
    if dry_run {
        print!("{}", report.to_json());
        return;
    }
    if let Some(base) = &baseline {
        let delta = (report.cycles_per_sec / base.cycles_per_sec - 1.0) * 100.0;
        println!("previous record: {:.2} M cycles/s ({delta:+.1}%)", base.cycles_per_sec / 1e6);
    }
    std::fs::write(&path, append_history(&history, &report.to_json()))
        .expect("write baseline JSON");
    println!("appended to {}", path.display());
}

/// The `--serve` variant of the harness: `gtr-serve` result-cache
/// latency, cold pass vs hot pass against an in-process server. The
/// gate checks invariants of the measured record (100% hot hit rate,
/// one simulation per distinct cell, hot p50 at least 100x faster
/// than cold) rather than machine-dependent latencies.
fn run_serve(check: bool, dry_run: bool, stats_out: Option<String>, workers: usize) {
    let path = gtr_bench::perf::repo_root().join(SERVE_BASELINE_FILE);
    let history = std::fs::read_to_string(&path).unwrap_or_default();
    let baseline = latest_serve_report(&history);

    eprintln!("measuring gtr-serve latency (tiny exact sweep, cold then hot)...");
    let report = measure_serve(workers);
    let fmt_us = |v: Option<u64>| v.map_or_else(|| "n/a".to_string(), |us| format!("{us} us"));
    println!(
        "{} cells | cold p50 {} us | hot p50 {} us ({:.0}x) | hot client rtt p50 {} p99 {} | \
         hot hits {:.1}% | {} simulations (commit {})",
        report.cells,
        report.cold_p50_us,
        report.hot_p50_us,
        report.speedup_p50,
        fmt_us(report.hot_rtt_p50_us),
        fmt_us(report.hot_rtt_p99_us),
        report.hot_hit_rate_pct,
        report.simulations,
        report.commit
    );

    if let Some(out) = &stats_out {
        std::fs::write(out, report.to_json()).expect("write --stats-out JSON");
        eprintln!("report written to {out}");
    }

    if check {
        match check_serve_against(baseline.as_ref(), &report) {
            Ok(verdict) => println!("OK: {verdict}"),
            Err(msg) => {
                eprintln!("SERVE REGRESSION: {msg}");
                std::process::exit(1);
            }
        }
        return;
    }
    if dry_run {
        print!("{}", report.to_json());
        return;
    }
    if let Some(base) = &baseline {
        println!("previous record: hot p50 {} us (commit {})", base.hot_p50_us, base.commit);
    }
    std::fs::write(&path, append_history(&history, &report.to_json()))
        .expect("write baseline JSON");
    println!("appended to {}", path.display());
}

/// The `--paper` variant of the harness: the checkpointed sampled
/// paper-scale matrix, measured in matrix cells per second, with an
/// optional exact-mode sweep alongside.
fn run_paper(
    check: bool,
    dry_run: bool,
    stats_out: Option<String>,
    prof_out: Option<std::path::PathBuf>,
    workers: usize,
    exact: bool,
) {
    let path = gtr_bench::perf::repo_root().join(PAPER_BASELINE_FILE);
    let history = std::fs::read_to_string(&path).unwrap_or_default();
    let baseline = latest_matrix_report(&history);

    eprintln!("measuring sampled paper-scale main matrix (shared warmup checkpoints)...");
    if exact {
        eprintln!("(--exact: the full unsampled matrix is swept as well)");
    }
    let report = measure_paper_workers(workers, exact);
    println!(
        "wall {:.1} ms | cpu {} | {} cells | {} simulated cycles | {:.2} cells/s (commit {})",
        report.wall_ms,
        fmt_cpu_ms(report.cpu_ms),
        report.cells,
        report.sim_cycles,
        report.cells_per_sec,
        report.commit
    );
    if let (Some(cycles), Some(rate)) = (report.exact_sim_cycles, report.exact_cells_per_sec) {
        println!("exact: {cycles} simulated cycles | {rate:.2} cells/s");
    }
    gtr_bench::profile::finish(prof_out.as_deref());

    if let Some(out) = &stats_out {
        std::fs::write(out, report.to_json()).expect("write --stats-out JSON");
        eprintln!("report written to {out}");
    }

    if check {
        match check_matrix_against(baseline.as_ref(), &report) {
            Ok(verdict) => println!("OK: {verdict} (tolerance {REGRESSION_TOLERANCE_PCT}%)"),
            Err(msg) => {
                eprintln!("PERF REGRESSION: {msg}");
                std::process::exit(1);
            }
        }
        return;
    }
    if dry_run {
        print!("{}", report.to_json());
        return;
    }
    if let Some(base) = &baseline {
        let delta = (report.cells_per_sec / base.cells_per_sec - 1.0) * 100.0;
        println!("previous record: {:.2} cells/s ({delta:+.1}%)", base.cells_per_sec);
    }
    std::fs::write(&path, append_history(&history, &report.to_json()))
        .expect("write baseline JSON");
    println!("appended to {}", path.display());
}
