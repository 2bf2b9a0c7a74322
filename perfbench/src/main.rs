//! The repository's benchmark: runs one named workload of the GPU
//! translation-reach simulator or its `gtr-serve` service from a seed,
//! checks the outputs, and ends with one JSON result line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload matrix-irregular --seed 1 --seconds 10 --trace 0
//! ```
//!
//! See `perfbench/README.md` for the workloads, the metrics and the
//! traced run.

mod checks;
mod host;
mod measure;
mod replay;
mod report;
mod serve_mix;
mod sim;
mod spans;

use std::path::PathBuf;
use std::time::Instant;

use measure::Outcome;

const USAGE: &str =
    "usage: gtr-perfbench --workload <matrix-irregular|matrix-regular|reach-axes|serve-mix> \
--seed <n> --seconds <n> --trace <0|1>";

/// The irregular half of the suite (translation-bound).
const IRREGULAR: [&str; 5] = ["ATAX", "GEV", "MVT", "BICG", "GUPS"];
/// The regular half of the suite (execution-bound).
const REGULAR: [&str; 5] = ["NW", "SRAD", "BFS", "SSSP", "PRK"];

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for (whole rounds, at least one).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let workload = workload.ok_or("missing --workload")?;
        if ![
            "matrix-irregular",
            "matrix-regular",
            "reach-axes",
            "serve-mix",
        ]
        .contains(&workload.as_str())
        {
            return Err(format!("unknown workload {workload:?}"));
        }
        let seconds = seconds.ok_or("missing --seconds")?;
        if !(seconds > 0.0 && seconds.is_finite()) {
            return Err("--seconds must be positive".to_string());
        }
        Ok(Self {
            workload,
            seed: seed.ok_or("missing --seed")?,
            seconds,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

/// Where runs write (serve caches, span files): `.bench_run/` under
/// the current directory, the checkout root.
pub fn run_dir() -> PathBuf {
    PathBuf::from(".bench_run")
}

/// Writes the traced run's spans to
/// `.bench_run/spans-<workload>-<seed>.json`.
pub fn write_spans(rec: &spans::Recorder, args: &Args) {
    let path = run_dir().join(format!("spans-{}-{}.json", args.workload, args.seed));
    let mut doc = String::new();
    rec.to_json().write_compact(&mut doc);
    let written = std::fs::create_dir_all(run_dir()).and_then(|_| std::fs::write(&path, doc));
    match written {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn main() {
    let start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gtr-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let setup_s = || start.elapsed().as_secs_f64();
    let outcome: Outcome = match args.workload.as_str() {
        "matrix-irregular" => sim::run(
            &sim::matrix_plan(&IRREGULAR, args.seed, true),
            &args,
            setup_s(),
        ),
        "matrix-regular" => sim::run(
            &sim::matrix_plan(&REGULAR, args.seed, false),
            &args,
            setup_s(),
        ),
        "reach-axes" => sim::run(&sim::reach_plan(args.seed), &args, setup_s()),
        _ => serve_mix::run(&args, start),
    };
    for v in &outcome.violations {
        eprintln!("CHECK FAILED: {v}");
    }
    println!(
        "workload {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    println!("attempted {} failed {}", outcome.attempted, outcome.failed);
    for m in &outcome.metrics {
        println!("{:<28} {:>14.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.result_line());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = Args::parse(&argv(
            "--workload serve-mix --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "serve-mix".to_string(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload serve-mix --seed x --seconds 1 --trace 0",
            "--workload serve-mix --seed 1 --seconds 0 --trace 0",
            "--workload serve-mix --seed 1 --seconds 1 --trace 2",
            "--workload serve-mix --seed 1 --seconds 1",
            "--workload serve-mix --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(Args::parse(&argv(bad)).is_err(), "accepted {bad:?}");
        }
    }
}
