//! The `serve-mix` workload: a seeded closed-loop request stream from
//! two connections to an in-process `gtr-serve`.
//!
//! A round owns fresh result-cache and checkpoint directories. Server
//! A starts empty: both connections request every cell of the mix in
//! the same seeded order, so duplicates meet in flight (coalesced) or
//! just after (memo hit), then each repeats the mix in its own seeded
//! orders (memo hits). Server A is shut down with `{"cmd":"shutdown"}`
//! and joined; server B starts on the same directories, so its first
//! answer for each cell is a disk-cache hit, and the connections repeat
//! the mix again. B is shut down and joined and the directories are
//! removed. An operation is one request.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use gtr_bench::serve::{
    self, decode_result, parse_request, run_server, CellRequest, Request, ServeState,
};
use gtr_core::checkpoint::Checkpoint;
use gtr_core::config::ReachConfig;
use gtr_core::export::{run_stats_from_json, run_stats_to_json_string};
use gtr_core::stats::RunStats;
use gtr_core::system::System;
use gtr_gpu::kernel::AppTrace;
use gtr_sim::json::Json;
use gtr_sim::rng::SplitMix64;
use gtr_vm::tenancy::SharingPolicy;
use gtr_workloads::scale::Scale;
use gtr_workloads::suite;

use crate::checks;
use crate::host;
use crate::measure::{beyond, median, percentile, Outcome};
use crate::report::{ratio, Values, END_TO_END, PER_LAYER};
use crate::spans::Recorder;
use crate::{run_dir, Args};

/// Client connections (one per core).
const CONNECTIONS: usize = 2;
/// Server worker threads for cold cells.
const SERVER_WORKERS: usize = 2;
/// Hot passes per connection on server A after the cold pass, and on
/// server B after the disk-hit pass.
const HOT_PASSES: usize = 2;
/// Hot samples a run collects at least, so `hot_p99_ms` has ten or
/// more samples beyond it.
const MIN_HOT_SAMPLES: usize = 1000;

/// One distinct cell of the mix.
#[derive(Debug, Clone, PartialEq)]
pub struct MixCell {
    /// The request as sent on the wire.
    pub req: CellRequest,
    /// Index of this sampled cell's exact twin in the mix.
    pub twin: Option<usize>,
}

impl MixCell {
    fn new(app: &str, config: &str, scale: &str, mode: &str) -> Self {
        Self {
            req: CellRequest {
                app: app.to_string(),
                config: config.to_string(),
                scale: scale.to_string(),
                mode: mode.to_string(),
                tenants: 0,
                policy: None,
                page_mode: None,
            },
            twin: None,
        }
    }

    /// The JSON request line.
    pub fn line(&self) -> String {
        let r = &self.req;
        let mut f = vec![
            ("app".to_string(), Json::from(r.app.as_str())),
            ("config".to_string(), Json::from(r.config.as_str())),
            ("scale".to_string(), Json::from(r.scale.as_str())),
            ("mode".to_string(), Json::from(r.mode.as_str())),
        ];
        if r.tenants > 1 {
            f.push(("tenants".to_string(), Json::from(r.tenants)));
        }
        if let Some(p) = &r.policy {
            f.push(("policy".to_string(), Json::from(p.as_str())));
        }
        if let Some(p) = &r.page_mode {
            f.push(("page_mode".to_string(), Json::from(p.as_str())));
        }
        let mut s = String::new();
        Json::Obj(f).write_compact(&mut s);
        s
    }
}

fn pick<'a>(rng: &mut SplitMix64, options: &[&'a str]) -> &'a str {
    options[rng.next_below(options.len() as u64) as usize]
}

/// The cell mix of one seed. Its make-up is fixed, so every seed asks
/// the service for the same work: tiny exact cells covering the four
/// reach configurations, sampled cells, a tenanted cell (with an
/// internal solo basis), a page-mode cell and two paper-scale cells.
/// The seed picks the tenanted cell's sharing policy and the page-mode
/// cell's backing. The GUPS pair (exact and sampled, IC+LDS) is the
/// sampled cell compared with its exact twin. The three MVT cells cost
/// about the same and sit in the middle of the cold latencies, with an
/// odd cell count, so the cold median lands inside their group rather
/// than on a gap between two cells.
pub fn mix(seed: u64) -> Vec<MixCell> {
    let mut rng = SplitMix64::new(seed);
    let tiny_exact = [
        ("ATAX", "baseline"),
        ("MVT", "lds"),
        ("MVT", "ic"),
        ("MVT", "ic+lds"),
        ("NW", "ic"),
        ("SRAD", "ic+lds"),
        ("SSSP", "lds"),
    ];
    let mut cells: Vec<MixCell> = tiny_exact
        .iter()
        .map(|&(app, config)| MixCell::new(app, config, "tiny", "exact"))
        .collect();
    cells.push(MixCell::new("GUPS", "ic+lds", "tiny", "exact"));
    let mut twin = MixCell::new("GUPS", "ic+lds", "tiny", "sampled");
    twin.twin = Some(cells.len() - 1);
    cells.push(twin);
    cells.push(MixCell::new("ATAX", "ic+lds", "tiny", "sampled"));
    cells.push(MixCell::new("NW", "baseline", "tiny", "sampled"));
    let mut tenanted = MixCell::new("BICG", "ic+lds", "tiny", "exact");
    tenanted.req.tenants = 2;
    tenanted.req.policy = Some(pick(&mut rng, &["partitioned", "shared", "subentry"]).to_string());
    cells.push(tenanted);
    let mut paged = MixCell::new("GEV", "ic+lds", "tiny", "exact");
    paged.req.page_mode = Some(pick(&mut rng, &["frag2m", "coalesced"]).to_string());
    cells.push(paged);
    cells.push(MixCell::new("SRAD", "ic", "paper", "exact"));
    cells.push(MixCell::new("PRK", "lds", "paper", "exact"));
    cells
}

fn scale_of(cell: &MixCell) -> Scale {
    match cell.req.scale.as_str() {
        "paper" => Scale::paper(),
        "quick" => Scale::quick(),
        _ => Scale::tiny(),
    }
}

/// The app trace of every mix cell, generated once in set-up for the
/// direct computations (the server regenerates its own per request).
fn generate(cells: &[MixCell]) -> Vec<AppTrace> {
    cells
        .iter()
        .map(|c| suite::by_name(&c.req.app, scale_of(c)).expect("mix apps are suite apps"))
        .collect()
}

/// Solo bases the server computes without a request of their own:
/// one per tenanted cell whose untenanted twin is not in the mix.
fn solo_bases(cells: &[MixCell]) -> u64 {
    cells
        .iter()
        .filter(|c| c.req.tenants > 1)
        .filter(|c| {
            !cells.iter().any(|o| {
                o.req.tenants <= 1
                    && o.req.app == c.req.app
                    && o.req.config == c.req.config
                    && o.req.scale == c.req.scale
                    && o.req.mode == c.req.mode
                    && o.req.page_mode == c.req.page_mode
            })
        })
        .count() as u64
}

/// A seeded permutation of `0..n`.
fn shuffled(rng: &mut SplitMix64, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    v
}

/// The requests (cell indices) of every connection on each server.
#[derive(Debug, Clone, PartialEq)]
pub struct Script {
    /// Per connection, per server (A then B): cell indices in order.
    pub conns: Vec<[Vec<usize>; 2]>,
}

/// Copies of each tiny cell per hot pass (a paper-scale cell appears
/// once). The paper cells' answers are the costliest; PRK's make up
/// about 1.3% of the hot samples, so `hot_p99_ms` falls in the lower
/// part of PRK's latencies, which on a shared host are steadier than
/// its upper tail.
const TINY_WEIGHT: usize = 7;

/// The request order of a round. On server A both connections first
/// send every cell in the same seeded order, then `HOT_PASSES` seeded
/// hot passes each; on server B each connection sends every cell once
/// in its own seeded order (disk hits) and then its hot passes.
pub fn script(seed: u64, cells: &[MixCell]) -> Script {
    let mut rng = SplitMix64::new(seed ^ 0x5E12_7E00);
    let n = cells.len();
    let hot_set: Vec<usize> = (0..n)
        .flat_map(|i| {
            std::iter::repeat_n(
                i,
                if cells[i].req.scale == "tiny" {
                    TINY_WEIGHT
                } else {
                    1
                },
            )
        })
        .collect();
    let hot_pass = |rng: &mut SplitMix64| -> Vec<usize> {
        shuffled(rng, hot_set.len())
            .into_iter()
            .map(|k| hot_set[k])
            .collect()
    };
    let cold = shuffled(&mut rng, n);
    let conns = (0..CONNECTIONS)
        .map(|_| {
            let mut a = cold.clone();
            let mut b = shuffled(&mut rng, n);
            for _ in 0..HOT_PASSES {
                a.extend(hot_pass(&mut rng));
                b.extend(hot_pass(&mut rng));
            }
            [a, b]
        })
        .collect();
    Script { conns }
}

/// One answered request.
#[derive(Debug, Clone)]
struct Answer {
    cell: usize,
    source: String,
    ms: f64,
    doc: String,
}

/// A running in-process server.
struct Server {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Server {
    fn start(dir: &Path) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ServeState::new(
            SERVER_WORKERS,
            Some(dir.join("results")),
            Some(dir.join("checkpoints")),
        ));
        let thread = std::thread::spawn(move || run_server(state, listener));
        Ok(Self { addr, thread })
    }

    /// Reads the counters, shuts the server down and joins it.
    fn stop(self) -> Result<Json, String> {
        let lines = serve::submit_lines(
            self.addr,
            &[
                "{\"cmd\":\"stats\"}".to_string(),
                "{\"cmd\":\"shutdown\"}".to_string(),
            ],
        )
        .map_err(|e| format!("control connection: {e}"))?;
        self.thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server: {e}"))?;
        let stats = lines.first().and_then(|l| Json::parse(l).ok());
        let ok = lines.get(1).is_some_and(|l| l.contains("shutdown"));
        match (stats.and_then(|j| j.get("counters").cloned()), ok) {
            (Some(c), true) => Ok(c),
            _ => Err(format!("unexpected control answers {lines:?}")),
        }
    }
}

/// Sends `order` one request at a time (closed loop) and collects the
/// answers; a malformed answer ends the connection with an error.
fn client(
    addr: SocketAddr,
    lines: &[String],
    order: &[usize],
    rec: &Recorder,
    id0: u64,
) -> Result<Vec<Answer>, String> {
    let io = |e: std::io::Error| format!("client: {e}");
    let stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    let mut reader = BufReader::new(stream.try_clone().map_err(io)?);
    let mut writer = stream;
    let mut out = Vec::with_capacity(order.len());
    let (mut header, mut doc) = (String::new(), String::new());
    for (k, &cell) in order.iter().enumerate() {
        let _span = rec.span("serve.request", id0 + k as u64);
        let t0 = Instant::now();
        writer
            .write_all(format!("{}\n\n", lines[cell]).as_bytes())
            .map_err(io)?;
        header.clear();
        doc.clear();
        reader.read_line(&mut header).map_err(io)?;
        reader.read_line(&mut doc).map_err(io)?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let h =
            Json::parse(header.trim_end()).map_err(|e| format!("bad header {header:?}: {e}"))?;
        let source = h
            .get("source")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("no answer for {}: {header:?}", lines[cell]))?;
        out.push(Answer {
            cell,
            source: source.to_string(),
            ms,
            doc: doc.clone(),
        });
    }
    Ok(out)
}

/// Runs both connections against one server phase.
fn phase(
    addr: SocketAddr,
    lines: &[String],
    orders: &[&[usize]],
    rec: &Recorder,
) -> Result<Vec<Answer>, String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = orders
            .iter()
            .enumerate()
            .map(|(c, order)| s.spawn(move || client(addr, lines, order, rec, (c as u64) << 32)))
            .collect();
        let mut all = Vec::new();
        for h in handles {
            all.extend(
                h.join()
                    .map_err(|_| "client thread panicked".to_string())??,
            );
        }
        Ok(all)
    })
}

/// One round's observations.
struct RoundOut {
    answers_a: Vec<Answer>,
    answers_b: Vec<Answer>,
    counters: [Json; 2],
    wall_s: f64,
    cpu_s: f64,
    /// Result-cache file sizes and decode times (traced rounds only).
    decode_us: Vec<f64>,
}

fn counter(j: &Json, k: &str) -> u64 {
    j.get(k).and_then(Json::as_u64).unwrap_or(0)
}

/// A run's inputs, made in set-up.
struct Inputs {
    cells: Vec<MixCell>,
    /// Request line of each cell.
    lines: Vec<String>,
    script: Script,
    /// App trace of each cell, for the direct computations.
    apps: Vec<AppTrace>,
    /// The round's own result-cache and checkpoint directory.
    dir: PathBuf,
}

impl Inputs {
    fn new(seed: u64, dir: PathBuf) -> Self {
        let cells = mix(seed);
        Self {
            lines: cells.iter().map(MixCell::line).collect(),
            script: script(seed, &cells),
            apps: generate(&cells),
            cells,
            dir,
        }
    }

    fn requests_per_round(&self) -> u64 {
        self.script
            .conns
            .iter()
            .map(|c| (c[0].len() + c[1].len()) as u64)
            .sum()
    }
}

fn round(inputs: &Inputs, rec: &Recorder) -> Result<RoundOut, String> {
    let (dir, lines, script) = (
        inputs.dir.as_path(),
        inputs.lines.as_slice(),
        &inputs.script,
    );
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let (t0, c0) = (Instant::now(), host::process_cpu_s());
    let orders = |server: usize| -> Vec<&[usize]> {
        script.conns.iter().map(|c| c[server].as_slice()).collect()
    };
    let a = Server::start(dir).map_err(|e| format!("server A: {e}"))?;
    let answers_a = phase(a.addr, lines, &orders(0), rec);
    let counters_a = a.stop()?;
    let answers_a = answers_a?;
    let b = Server::start(dir).map_err(|e| format!("server B: {e}"))?;
    let answers_b = phase(b.addr, lines, &orders(1), rec);
    let counters_b = b.stop()?;
    let answers_b = answers_b?;
    let (wall_s, cpu_s) = (t0.elapsed().as_secs_f64(), host::process_cpu_s() - c0);
    let mut decode_us = Vec::new();
    if rec.enabled() {
        for entry in std::fs::read_dir(dir.join("results"))
            .map_err(|e| e.to_string())?
            .flatten()
        {
            let name = entry.file_name().to_string_lossy().to_string();
            let Some(fp) = name
                .strip_prefix("cell_")
                .and_then(|n| n.strip_suffix(".bin"))
            else {
                continue;
            };
            let fp = u64::from_str_radix(fp, 16).map_err(|e| e.to_string())?;
            let bytes = std::fs::read(entry.path()).map_err(|e| e.to_string())?;
            let t = Instant::now();
            let decoded = decode_result(&bytes, fp);
            decode_us.push(t.elapsed().as_secs_f64() * 1e6);
            if decoded.is_none() {
                return Err(format!("result-cache entry {name} does not decode"));
            }
        }
    }
    std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(RoundOut {
        answers_a,
        answers_b,
        counters: [counters_a, counters_b],
        wall_s,
        cpu_s,
        decode_us,
    })
}

/// Checks one round: every answer for a cell is byte-identical to the
/// one cold answer, server A simulated each distinct cell once (plus
/// solo bases), server B answered everything from its caches, and the
/// counters add up. Returns each cell's document.
fn check_round(cells: &[MixCell], r: &RoundOut, out: &mut Outcome) -> Vec<Option<String>> {
    let n = cells.len();
    let label = |i: usize| cells[i].line();
    let mut docs: Vec<Option<String>> = vec![None; n];
    for a in r.answers_a.iter().filter(|a| a.source == "computed") {
        if docs[a.cell].replace(a.doc.clone()).is_some() {
            out.check(Err(format!("{}: computed twice", label(a.cell))));
        }
    }
    for (i, d) in docs.iter().enumerate() {
        if d.is_none() {
            out.check(Err(format!(
                "{}: never computed on a cold server",
                label(i)
            )));
        }
    }
    for a in r.answers_a.iter().chain(&r.answers_b) {
        match a.source.as_str() {
            "computed" | "coalesced" | "cache" => {}
            other => out.check(Err(format!("{}: unknown source {other}", label(a.cell)))),
        }
        if let Some(expected) = &docs[a.cell] {
            out.check(checks::same_document(
                &format!("{} ({})", label(a.cell), a.source),
                expected,
                &a.doc,
            ));
        }
    }
    if let Some(a) = r.answers_b.iter().find(|a| a.source != "cache") {
        out.check(Err(format!(
            "{}: answered {} after a restart on a full cache",
            label(a.cell),
            a.source
        )));
    }
    let [ca, cb] = &r.counters;
    out.check(checks::one_simulation_per_cell(
        "server A",
        counter(ca, "simulations"),
        n as u64,
        solo_bases(cells),
    ));
    out.check(checks::one_simulation_per_cell(
        "server B",
        counter(cb, "simulations"),
        0,
        0,
    ));
    for (c, answers, name) in [(ca, &r.answers_a, "A"), (cb, &r.answers_b, "B")] {
        let by = |s: &str| answers.iter().filter(|a| a.source == s).count() as u64;
        let ok = counter(c, "requests") == answers.len() as u64
            && counter(c, "cache_hits") == by("cache")
            && counter(c, "coalesced") == by("coalesced");
        if !ok {
            out.check(Err(format!(
                "server {name}: counters {c:?} disagree with the answers"
            )));
        }
    }
    docs
}

/// A mix cell computed outside the server.
struct Direct {
    stats: RunStats,
    doc: String,
    /// Serialized warmup checkpoint size (sampled cells).
    checkpoint_bytes: Option<usize>,
}

/// Runs one mix cell directly — `System::run` and
/// `run_stats_to_json_string`, outside the server.
fn direct(cell: &MixCell, app: &AppTrace, rec: &Recorder, id: u64) -> Result<Direct, String> {
    let r = &cell.req;
    let scale = scale_of(cell);
    let mut reach = match r.config.as_str() {
        "baseline" => ReachConfig::baseline(),
        "lds" => ReachConfig::lds_only(),
        "ic" => ReachConfig::ic_only(),
        _ => ReachConfig::ic_plus_lds(),
    };
    let gpu = match &r.page_mode {
        None => Default::default(),
        Some(pm) => {
            let (gpu, coalesce) =
                gtr_bench::figures::page_mode_config(pm).ok_or("unknown page mode")?;
            if let Some(max) = coalesce {
                reach = reach.with_tlb_coalescing(max);
            }
            gpu
        }
    };
    let mut checkpoint_bytes = None;
    let stats = if r.tenants > 1 {
        let policy = SharingPolicy::parse(r.policy.as_deref().unwrap_or("")).ok_or("bad policy")?;
        let replicated = AppTrace::replicate(app, r.tenants as u8);
        let solo = rec.time("system.run", id, || {
            System::new(gpu.clone(), reach).run(app)
        });
        let mut s = rec.time("system.run", id, || {
            System::new(gpu.clone(), reach.with_tenancy(r.tenants as u8, policy)).run(&replicated)
        });
        let solo_cycles: u64 = solo.kernels.iter().map(|k| k.cycles).sum();
        s.tenants
            .iter_mut()
            .for_each(|t| t.solo_cycles = solo_cycles);
        s
    } else if r.mode == "sampled" {
        let cfg = gtr_bench::figures::sampling_for(scale);
        let ck = rec.time("checkpoint.capture", id, || {
            Checkpoint::capture(app, &gpu, cfg.warmup)
        });
        let bytes = ck.to_bytes();
        let ck = Checkpoint::from_bytes(&bytes).ok_or("checkpoint does not round-trip")?;
        let mut sys = System::new(gpu.clone(), reach);
        rec.time("checkpoint.restore", id, || sys.restore_checkpoint(&ck));
        checkpoint_bytes = Some(bytes.len());
        rec.time("system.run", id, || {
            sys.with_sampling(cfg.without_warmup()).run(app)
        })
    } else {
        rec.time("system.run", id, || {
            System::new(gpu.clone(), reach).run(app)
        })
    };
    let doc = rec.time("export.encode", id, || run_stats_to_json_string(&stats));
    Ok(Direct {
        stats,
        doc,
        checkpoint_bytes,
    })
}

/// Compares every distinct cell's served document with a direct
/// computation.
fn check_direct(
    inputs: &Inputs,
    docs: &[Option<String>],
    rec: &Recorder,
    out: &mut Outcome,
) -> Vec<Direct> {
    let cells = &inputs.cells;
    let mut computed = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        match direct(cell, &inputs.apps[i], rec, i as u64) {
            Ok(d) => {
                if let Some(served) = &docs[i] {
                    out.check(checks::same_document(
                        &format!("{} (direct)", cell.line()),
                        &d.doc,
                        served,
                    ));
                }
                computed.push(d);
            }
            Err(e) => {
                out.check(Err(format!("{}: {e}", cell.line())));
                return computed;
            }
        }
    }
    for (i, d) in computed.iter().enumerate() {
        let label = cells[i].line();
        out.check(checks::attribution_partitions_requests(&label, &d.stats));
        if cells[i].req.mode == "exact" {
            out.check(checks::levels_probed_in_order(&label, &d.stats));
        }
        if cells[i].req.tenants > 1 {
            out.check(checks::tenants_sum_to_globals(&label, &d.stats));
        }
    }
    computed
}

/// The sampled-twin comparisons of one round, on the served
/// documents: each is one operation, failed when the sampled cell lies
/// outside its own error bound of its exact twin. Returns (attempted,
/// failed, first failure).
fn twin_ops(cells: &[MixCell], docs: &[Option<String>]) -> (u64, u64, Option<String>) {
    let parse = |i: usize| {
        docs[i]
            .as_deref()
            .and_then(|d| Json::parse(d).ok())
            .as_ref()
            .and_then(run_stats_from_json)
    };
    let (mut attempted, mut failed, mut first) = (0, 0, None);
    for (i, cell) in cells.iter().enumerate() {
        let Some(t) = cell.twin else { continue };
        attempted += 1;
        let r = match (parse(i), parse(t)) {
            (Some(sampled), Some(exact)) => {
                checks::sampled_within_bound(&cell.line(), &sampled, &exact)
            }
            _ => Err(format!("{}: twin documents missing", cell.line())),
        };
        if let Err(e) = r {
            failed += 1;
            first.get_or_insert(e);
        }
    }
    (attempted, failed, first)
}

/// Runs `serve-mix`.
pub fn run(args: &Args, start: Instant) -> Outcome {
    let mut out = Outcome::default();
    let t_gen = Instant::now();
    let inputs = Inputs::new(
        args.seed,
        run_dir().join(format!("serve-{}", std::process::id())),
    );
    let tracegen_s = t_gen.elapsed().as_secs_f64();
    let setup_s = start.elapsed().as_secs_f64();
    let cells = &inputs.cells;
    let off = Recorder::new(false);
    let mut v = Values::default();
    if args.trace {
        v.set("workloads.tracegen_ms", tracegen_s * 1e3);
        traced(args, &inputs, &mut out, &mut v);
        out.metrics = v.metrics(&PER_LAYER);
        return out;
    }
    let t0 = Instant::now();
    let (mut hot, mut cold, mut walls, mut cpus) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut first_docs: Option<Vec<Option<String>>> = None;
    while walls.is_empty()
        || t0.elapsed().as_secs_f64() < args.seconds
        || hot.len() < MIN_HOT_SAMPLES
    {
        out.attempted += inputs.requests_per_round();
        let r = match round(&inputs, &off) {
            Ok(r) => r,
            Err(e) => {
                out.failed += inputs.requests_per_round();
                out.check(Err(e));
                let _ = std::fs::remove_dir_all(&inputs.dir);
                break;
            }
        };
        let docs = check_round(cells, &r, &mut out);
        let (attempted, failed, first) = twin_ops(cells, &docs);
        out.attempted += attempted;
        out.failed += failed;
        if let (Some(e), None) = (first, &first_docs) {
            eprintln!("FAILED OPERATION (every round): {e}");
        }
        match &first_docs {
            None => first_docs = Some(docs),
            Some(first) => {
                if *first != docs {
                    out.check(Err("cell documents changed between rounds".to_string()));
                }
            }
        }
        for a in r.answers_a.iter().chain(&r.answers_b) {
            if a.source == "cache" {
                hot.push(a.ms)
            } else {
                cold.push(a.ms)
            }
        }
        walls.push(r.wall_s);
        cpus.push(r.cpu_s);
    }
    let peak_rss = host::peak_rss_mb();
    if let Some(docs) = &first_docs {
        check_direct(&inputs, docs, &off, &mut out);
    }
    if beyond(&hot, 99.0) < 10 {
        out.check(Err(format!(
            "only {} hot samples; p99 needs ten beyond it",
            hot.len()
        )));
    }
    v.set("setup_s", setup_s);
    v.set("wall_s", median(&walls).unwrap_or(0.0));
    v.set("cpu_s", median(&cpus).unwrap_or(0.0));
    v.set("peak_rss_mb", peak_rss);
    v.set("hot_p50_ms", percentile(&hot, 50.0).unwrap_or(0.0));
    v.set("hot_p99_ms", percentile(&hot, 99.0).unwrap_or(0.0));
    v.set("cold_p50_ms", median(&cold).unwrap_or(0.0));
    out.metrics = v.metrics(&END_TO_END);
    out
}

/// The traced run: an untraced reference round, a traced round (a span
/// per request), then the layer calls a request makes, timed directly.
fn traced(args: &Args, inputs: &Inputs, out: &mut Outcome, v: &mut Values) {
    let (cells, lines, script) = (&inputs.cells, &inputs.lines, &inputs.script);
    let rec = Recorder::new(true);
    let plain = round(inputs, &Recorder::new(false));
    let traced = round(inputs, &rec);
    let (plain, traced) = match (plain, traced) {
        (Ok(p), Ok(t)) => (p, t),
        (p, t) => {
            let _ = std::fs::remove_dir_all(&inputs.dir);
            out.attempted += 2 * inputs.requests_per_round();
            out.failed += 2 * inputs.requests_per_round();
            out.check(p.err().or(t.err()).map_or(Ok(()), Err));
            return;
        }
    };
    out.attempted += (plain.answers_a.len() + plain.answers_b.len()) as u64 * 2;
    let docs = check_round(cells, &plain, out);
    let traced_docs = check_round(cells, &traced, out);
    for d in [&docs, &traced_docs] {
        let (attempted, failed, _) = twin_ops(cells, d);
        out.attempted += attempted;
        out.failed += failed;
    }
    v.set(
        "trace.overhead_pct",
        (traced.wall_s / plain.wall_s - 1.0) * 100.0,
    );
    for (name, key) in [
        ("serve.cache_hits", "cache_hits"),
        ("serve.coalesced", "coalesced"),
        ("serve.simulations", "simulations"),
    ] {
        v.set(
            name,
            traced.counters.iter().map(|c| counter(c, key)).sum::<u64>() as f64,
        );
    }
    v.set(
        "serve.result_decode_us",
        median(&traced.decode_us).unwrap_or(0.0),
    );

    // Direct computations: system, checkpoint and export layers.
    let computed = check_direct(inputs, &docs, &rec, out);
    let (sim_s, _) = rec.total("system.run");
    let sum = |f: fn(&RunStats) -> u64| computed.iter().map(|d| f(&d.stats)).sum::<u64>() as f64;
    let insts = sum(|s| s.instructions);
    let translations = sum(|s| s.translation_requests);
    v.set("system.cell_ms_sum", sim_s * 1e3);
    v.set("system.insts", insts);
    v.set("system.translations", translations);
    v.set("system.sim_cycles", sum(|s| s.total_cycles));
    v.set("system.ns_per_inst", ratio(sim_s * 1e9, insts));
    v.set(
        "system.ns_per_translation",
        ratio(sim_s * 1e9, translations),
    );
    v.set(
        "checkpoint.capture_ms",
        rec.mean("checkpoint.capture") * 1e3,
    );
    v.set(
        "checkpoint.restore_ms",
        rec.mean("checkpoint.restore") * 1e3,
    );
    let ck: Vec<f64> = computed
        .iter()
        .filter_map(|d| d.checkpoint_bytes)
        .map(|b| b as f64)
        .collect();
    v.set("checkpoint.bytes", ratio(ck.iter().sum(), ck.len() as f64));
    for (i, d) in computed.iter().enumerate() {
        let back = rec.time("export.decode", i as u64, || {
            Json::parse(&d.doc)
                .ok()
                .as_ref()
                .and_then(run_stats_from_json)
        });
        if back.is_none() {
            out.check(Err(format!(
                "{}: document does not parse back",
                cells[i].line()
            )));
        }
    }
    v.set("export.encode_us", rec.mean("export.encode") * 1e6);
    v.set("export.decode_us", rec.mean("export.decode") * 1e6);
    v.set(
        "export.doc_bytes",
        ratio(
            computed.iter().map(|d| d.doc.len() as f64).sum(),
            computed.len() as f64,
        ),
    );

    // The service's own per-request layers, called in-process: every
    // request of one connection's stream is parsed and resolved, and
    // answered by `handle_batch` on a warm state.
    let state = ServeState::new(SERVER_WORKERS, None, None);
    let resolved: Vec<_> = lines
        .iter()
        .enumerate()
        .filter_map(|(i, l)| match parse_request(l) {
            Ok(Request::Cell(req)) => req.resolve().ok(),
            _ => {
                out.check(Err(format!("request {i} does not parse")));
                None
            }
        })
        .collect();
    state.handle_batch(&resolved);
    let stream: Vec<usize> = script.conns[0].iter().flatten().copied().collect();
    for (k, &i) in stream.iter().enumerate() {
        let cell = rec.time("serve.resolve", k as u64, || {
            match parse_request(&lines[i]) {
                Ok(Request::Cell(req)) => req.resolve().ok(),
                _ => None,
            }
        });
        let Some(cell) = cell else {
            out.check(Err(format!("{} does not resolve", lines[i])));
            continue;
        };
        let answers = rec.time("serve.handle_batch", k as u64, || {
            state.handle_batch(std::slice::from_ref(&cell))
        });
        if answers.first().map(|a| a.source) != Some("cache") {
            out.check(Err(format!(
                "{}: warm state did not answer from its memo",
                lines[i]
            )));
        }
    }
    v.set("serve.resolve_ms", rec.mean("serve.resolve") * 1e3);
    v.set("serve.batch_us", rec.mean("serve.handle_batch") * 1e6);
    v.set("trace.spans", rec.spans().len() as f64);
    crate::write_spans(&rec, args);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtr_core::stats::SamplingMeta;

    #[test]
    fn the_seed_shapes_the_mix_but_not_its_make_up() {
        assert_eq!(mix(1), mix(1));
        assert_eq!(mix(1).len() % 2, 1, "odd cell count");
        let shape = |m: Vec<MixCell>| {
            m.into_iter()
                .map(|c| (c.req.app, c.req.scale, c.req.mode, c.twin))
                .collect::<Vec<_>>()
        };
        assert_eq!(shape(mix(1)), shape(mix(2)));
        assert!(
            (0..16).map(mix).any(|m| m != mix(0)),
            "seeds pick policies and page modes"
        );
        let m = mix(3);
        let twin = m.iter().find_map(|c| c.twin).expect("one exact twin");
        assert_eq!(m[twin].req.mode, "exact");
        assert_eq!(solo_bases(&m), 1, "the tenanted cell needs its own basis");
        for c in &m {
            let parsed = parse_request(&c.line()).expect("request line parses");
            assert_eq!(parsed, Request::Cell(c.req.clone()));
            assert!(c.req.resolve().is_ok(), "{} resolves", c.line());
        }
    }

    #[test]
    fn the_script_is_seeded_and_covers_every_cell() {
        let cells = mix(5);
        let n = cells.len();
        let s = script(5, &cells);
        assert_eq!(s, script(5, &cells));
        assert_ne!(s, script(6, &cells));
        assert_eq!(s.conns.len(), CONNECTIONS);
        assert_eq!(
            s.conns[0][0][..n],
            s.conns[1][0][..n],
            "same cold order on both connections"
        );
        for conn in &s.conns {
            for server in conn {
                let mut first: Vec<usize> = server[..n].to_vec();
                first.sort_unstable();
                assert_eq!(
                    first,
                    (0..n).collect::<Vec<_>>(),
                    "each server pass starts with every cell once"
                );
            }
        }
        let prk = s.conns[0][1]
            .iter()
            .filter(|&&i| cells[i].req.app == "PRK")
            .count() as f64;
        let share = prk / s.conns[0][1].len() as f64;
        assert!(
            share > 0.011 && share < 0.02,
            "PRK answers are {share} of the stream, so p99 falls inside them"
        );
    }

    fn answer(cell: usize, source: &str, doc: &str) -> Answer {
        Answer {
            cell,
            source: source.to_string(),
            ms: 1.0,
            doc: doc.to_string(),
        }
    }

    fn counters(requests: u64, cache_hits: u64, coalesced: u64, simulations: u64) -> Json {
        Json::Obj(vec![
            ("requests".to_string(), Json::from(requests)),
            ("cache_hits".to_string(), Json::from(cache_hits)),
            ("coalesced".to_string(), Json::from(coalesced)),
            ("simulations".to_string(), Json::from(simulations)),
        ])
    }

    /// A consistent two-cell round: server A computes both (one
    /// tenanted, with a solo basis), coalesces one duplicate and hits
    /// its memo once; server B answers both from its caches.
    fn good_round() -> (Vec<MixCell>, RoundOut) {
        let mut cells = vec![
            MixCell::new("GUPS", "ic+lds", "tiny", "exact"),
            MixCell::new("BICG", "ic", "tiny", "exact"),
        ];
        cells[1].req.tenants = 2;
        cells[1].req.policy = Some("shared".to_string());
        let r = RoundOut {
            answers_a: vec![
                answer(0, "computed", "{\"a\":1}\n"),
                answer(0, "coalesced", "{\"a\":1}\n"),
                answer(1, "computed", "{\"b\":2}\n"),
                answer(1, "cache", "{\"b\":2}\n"),
            ],
            answers_b: vec![
                answer(0, "cache", "{\"a\":1}\n"),
                answer(1, "cache", "{\"b\":2}\n"),
            ],
            counters: [counters(4, 1, 1, 3), counters(2, 2, 0, 0)],
            wall_s: 1.0,
            cpu_s: 1.0,
            decode_us: Vec::new(),
        };
        (cells, r)
    }

    fn violations(cells: &[MixCell], r: &RoundOut) -> usize {
        let mut out = Outcome::default();
        check_round(cells, r, &mut out);
        out.violations.len()
    }

    #[test]
    fn a_consistent_round_passes() {
        let (cells, r) = good_round();
        assert_eq!(violations(&cells, &r), 0);
    }

    #[test]
    fn a_corrupted_document_byte_is_rejected() {
        let (cells, mut r) = good_round();
        r.answers_b[1].doc = "{\"b\":3}\n".to_string();
        assert_eq!(violations(&cells, &r), 1);
    }

    #[test]
    fn a_second_simulation_or_a_miss_after_restart_is_rejected() {
        let (cells, mut r) = good_round();
        r.answers_a[1].source = "computed".to_string();
        assert!(violations(&cells, &r) > 0, "duplicate computed");
        let (cells, mut r) = good_round();
        r.answers_b[0].source = "computed".to_string();
        assert!(violations(&cells, &r) > 0, "restart lost the disk cache");
    }

    #[test]
    fn a_corrupted_counter_is_rejected() {
        let (cells, mut r) = good_round();
        r.counters[0] = counters(4, 1, 1, 4);
        assert!(violations(&cells, &r) > 0, "an extra simulation");
        let (cells, mut r) = good_round();
        r.counters[1] = counters(2, 1, 0, 0);
        assert!(
            violations(&cells, &r) > 0,
            "cache hits disagree with the answers"
        );
    }

    #[test]
    fn twin_ops_count_out_of_bound_samples_as_failed() {
        let exact = RunStats {
            total_cycles: 1000,
            ..Default::default()
        };
        let mut sampled = RunStats {
            total_cycles: 1010,
            ..Default::default()
        };
        sampled.sampling = Some(SamplingMeta {
            error_bound_pct: 2.0,
            ..Default::default()
        });
        let mut cells = vec![
            MixCell::new("GUPS", "ic+lds", "tiny", "exact"),
            MixCell::new("GUPS", "ic+lds", "tiny", "sampled"),
        ];
        cells[1].twin = Some(0);
        let docs = |s: &RunStats| {
            vec![
                Some(run_stats_to_json_string(&exact)),
                Some(run_stats_to_json_string(s)),
            ]
        };
        assert_eq!(
            twin_ops(&cells, &docs(&sampled)).0,
            1,
            "one comparison per twin"
        );
        assert_eq!(twin_ops(&cells, &docs(&sampled)).1, 0, "1% is within 2%");
        sampled.total_cycles = 1100;
        assert_eq!(twin_ops(&cells, &docs(&sampled)).1, 1, "10% is outside 2%");
        assert_eq!(
            twin_ops(&cells, &[docs(&sampled)[0].clone(), None]).1,
            1,
            "missing document"
        );
    }

    /// One real round against in-process servers: every check holds
    /// and the round leaves no directory behind.
    #[test]
    fn a_real_round_passes_its_checks_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!("perfbench-serve-test-{}", std::process::id()));
        let inputs = Inputs::new(1, dir);
        let r = round(&inputs, &Recorder::new(false)).expect("round runs");
        assert!(!inputs.dir.exists(), "round removed its directories");
        let mut out = Outcome::default();
        let docs = check_round(&inputs.cells, &r, &mut out);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(docs.iter().all(Option::is_some));
        let computed = check_direct(&inputs, &docs, &Recorder::new(false), &mut out);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(
            computed.len(),
            inputs.cells.len(),
            "direct documents match the served ones"
        );
    }
}
