//! The `gtr-serve` sweep service: experiment cells as queries.
//!
//! Turns the batch harness inside out — instead of regenerating whole
//! figure matrices, clients submit individual experiment cells
//! `(app, config, scale, mode, tenancy, page mode)` over a
//! line-delimited JSONL protocol and get schema-v4/v5/v6 stats
//! documents streamed back. Three layers (ARCHITECTURE's serving
//! section):
//!
//! 1. **Admission/dedupe** — every request is validated and resolved
//!    to a [`CellKey`](gtr_core::cell::CellKey) from names and
//!    configs alone ([`CellRequest::resolve`]): no trace is generated
//!    at admission. Completed cells are memoized in memory and in a
//!    versioned, checksummed on-disk result cache, and identical
//!    in-flight requests coalesce onto one computation ([`Flight`]
//!    condvars), so a hot cell is one map probe plus a document write
//!    — neither the workload generator nor the simulator is entered.
//! 2. **Execution** — cold cells batch onto the existing
//!    work-stealing [`pool`](crate::pool) with warmup checkpoints
//!    shared through the acquire/return [`CheckpointShards`] tracker.
//!    The pool worker running a cold cell is the only place its trace
//!    is generated (and replicated, for tenanted cells); the trace is
//!    dropped when the cell finishes. Every cell is an independent
//!    deterministic simulation, so a served document is
//!    byte-identical to the same cell exported by `all`/`run_app` in
//!    batch mode.
//! 3. **Streaming** — responses stream back per cell: a small header
//!    line (`cell`, `source`, `schema_version`, `micros`) followed by
//!    the stats document, exactly as
//!    [`run_stats_to_json_string`](gtr_core::export::run_stats_to_json_string)
//!    renders it.
//!
//! # Protocol
//!
//! One JSON object per request line:
//!
//! ```text
//! {"app":"GUPS","config":"ic+lds","scale":"tiny","mode":"exact"}
//! {"app":"ATAX","config":"baseline","scale":"tiny","mode":"sampled","tenants":2,"policy":"subentry"}
//! {"app":"GUPS","config":"ic+lds","scale":"tiny","mode":"exact","page_mode":"coalesced"}
//! {"cmd":"stats"}      -> one {"counters":{...}} line
//! {"cmd":"shutdown"}   -> one {"ok":"shutdown"} line; the listener stops
//! ```
//!
//! Cell requests accumulate into a batch; a blank line or the
//! client's write-side EOF flushes it. Responses come back in request
//! order. Invalid requests produce one `{"error":...}` line (flushing
//! the batch collected so far, so ordering stays request-relative). A
//! line longer than [`MAX_REQUEST_LINE`] bytes gets one error line and
//! the connection closes.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use gtr_core::cell::CellKey;
use gtr_core::checkpoint::{fingerprint_bytes, Checkpoint, CheckpointKey};
use gtr_core::config::{ReachConfig, SamplingConfig};
use gtr_core::export::{run_stats_from_json, run_stats_schema_version, run_stats_to_json_string};
use gtr_core::stats::RunStats;
use gtr_gpu::config::GpuConfig;
use gtr_gpu::kernel::AppTrace;
use gtr_sim::arena::{ArenaReader, ArenaWriter};
use gtr_sim::json::Json;
use gtr_sim::prof;
use gtr_vm::tenancy::{SharingPolicy, MAX_TENANTS};
use gtr_workloads::scale::Scale;
use gtr_workloads::suite;

use crate::harness::{self, Variant};

/// Result-cache wire-format version. Bumping it orphans every cached
/// entry at once: [`decode_result`] rejects other versions and the
/// serve layer recomputes, exactly like the checkpoint cache's
/// version discipline.
pub const RESULT_CACHE_VERSION: u32 = 1;

/// Result-cache serialization magic (`GTRR`).
const RESULT_MAGIC: u32 = 0x4754_5252;

/// A memoized cell result: the streamed stats document plus its
/// stamped schema version (4 untenanted, 5 tenanted, 6 when the cell
/// ran with coalesced TLB entries).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedResult {
    /// Schema version the document carries.
    pub schema_version: u64,
    /// The full stats document, byte-identical to
    /// [`run_stats_to_json_string`] output (compact, one trailing
    /// newline).
    pub doc: String,
}

/// Serializes one result-cache entry in the arena wire format:
/// magic, `version`, the cell fingerprint, the schema version, the
/// document, and a trailing FNV-1a checksum over everything before
/// it. `version` is a parameter (rather than baked to
/// [`RESULT_CACHE_VERSION`]) so tests can fabricate stale-version
/// entries and prove the bump invalidates them.
pub fn encode_result(version: u32, cell_fingerprint: u64, result: &CachedResult) -> Vec<u8> {
    let mut w = ArenaWriter::with_capacity(40 + result.doc.len());
    w.put_u32(RESULT_MAGIC);
    w.put_u32(version);
    w.put_u64(cell_fingerprint);
    w.put_u64(result.schema_version);
    w.put_str(&result.doc);
    let mut bytes = w.into_bytes();
    let sum = fingerprint_bytes(&bytes);
    bytes.extend_from_slice(&sum.to_le_bytes());
    bytes
}

/// Deserializes a result-cache entry; `None` on checksum mismatch,
/// wrong magic or version, truncation, trailing bytes, or a
/// fingerprint that does not match `cell_fingerprint` (a renamed or
/// misfiled entry). Any `None` is treated as a cache miss — the cell
/// recomputes; a damaged file can never poison a response.
pub fn decode_result(bytes: &[u8], cell_fingerprint: u64) -> Option<CachedResult> {
    let (payload, sum_bytes) = bytes.split_at_checked(bytes.len().checked_sub(8)?)?;
    if u64::from_le_bytes(sum_bytes.try_into().ok()?) != fingerprint_bytes(payload) {
        return None;
    }
    let mut r = ArenaReader::new(payload);
    if r.get_u32()? != RESULT_MAGIC || r.get_u32()? != RESULT_CACHE_VERSION {
        return None;
    }
    if r.get_u64()? != cell_fingerprint {
        return None;
    }
    let schema_version = r.get_u64()?;
    let doc = r.get_str()?.to_string();
    if r.remaining() != 0 {
        return None;
    }
    Some(CachedResult { schema_version, doc })
}

/// The on-disk file a cell's result is cached in.
pub fn result_path(dir: &Path, cell_fingerprint: u64) -> PathBuf {
    dir.join(format!("cell_{cell_fingerprint:016x}.bin"))
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// An experiment-cell query.
    Cell(CellRequest),
    /// `{"cmd":"stats"}` — report the admission counters.
    Stats,
    /// `{"cmd":"shutdown"}` — stop the listener after acknowledging.
    Shutdown,
}

/// An experiment-cell request as it arrives on the wire (unvalidated
/// strings; [`CellRequest::resolve`] turns it into a runnable cell).
#[derive(Debug, Clone, PartialEq)]
pub struct CellRequest {
    /// Application name (Table-2 suite).
    pub app: String,
    /// Reach configuration: `baseline | lds | ic | ic+lds`.
    pub config: String,
    /// Workload scale: `tiny | quick | paper`.
    pub scale: String,
    /// Execution mode: `exact | sampled`.
    pub mode: String,
    /// Concurrent tenants; `0`/`1` (or absent) = untenanted.
    pub tenants: u64,
    /// Sharing policy, required when `tenants >= 2`:
    /// `partitioned | shared | subentry`.
    pub policy: Option<String>,
    /// Page-backing mode (absent = plain 4 KB pages on scattered
    /// frames): `4k | 2m | frag2m | coalesced`, the contiguity figure
    /// family's vocabulary
    /// ([`page_mode_config`](crate::figures::page_mode_config)). The
    /// coalescing modes switch coalesced TLB entries on, so their
    /// documents stamp schema v6.
    pub page_mode: Option<String>,
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let j = Json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
    if let Some(cmd) = j.get("cmd").and_then(Json::as_str) {
        return match cmd {
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown cmd {other:?} (expected \"stats\" or \"shutdown\")")),
        };
    }
    let field = |k: &str| j.get(k).and_then(Json::as_str).map(str::to_string);
    let Some(app) = field("app") else {
        return Err("cell requests need an \"app\" field".to_string());
    };
    Ok(Request::Cell(CellRequest {
        app,
        config: field("config").unwrap_or_else(|| "ic+lds".to_string()),
        scale: field("scale").unwrap_or_else(|| "tiny".to_string()),
        mode: field("mode").unwrap_or_else(|| "exact".to_string()),
        tenants: j.get("tenants").and_then(Json::as_u64).unwrap_or(0),
        policy: field("policy"),
        page_mode: field("page_mode"),
    }))
}

/// The execution-mode descriptor entering [`CellKey`] — the one place
/// it is rendered, so every layer keys identically. Sampling windows
/// are spelled out in full: two scales with different windows are
/// different cells even if their label strings matched.
fn mode_descriptor(scale_label: &str, sampling: Option<&SamplingConfig>) -> String {
    match sampling {
        None => format!("scale={scale_label} exact"),
        Some(cfg) => format!("scale={scale_label} sampled {cfg:?}"),
    }
}

/// How to build a cell's trace: a suite application at a scale,
/// replicated across `tenants` address spaces when tenanted. Admission
/// needs only its [`name`](Self::name); the trace itself is generated
/// by [`build`](Self::build) on the cold path.
#[derive(Debug, Clone, Copy)]
struct TraceRecipe {
    app: &'static str,
    scale: Scale,
    tenants: u8,
}

impl TraceRecipe {
    /// The name the built trace carries — what [`CellKey`] keys on.
    fn name(&self) -> String {
        if self.tenants <= 1 {
            self.app.to_string()
        } else {
            AppTrace::replicated_name(self.app, self.tenants)
        }
    }

    /// Generates the trace (and replicates it for tenanted cells).
    fn build(&self) -> AppTrace {
        let base = suite::by_name(self.app, self.scale).expect("app validated at resolve");
        if self.tenants <= 1 {
            base
        } else {
            AppTrace::replicate(&base, self.tenants)
        }
    }
}

/// A validated, runnable experiment cell. It carries the recipe for
/// its trace, not the trace: admitting a cell (and answering it from
/// the cache) never generates a workload.
#[derive(Debug, Clone)]
pub struct ResolvedCell {
    /// Human-readable cell label (`app/config/scale/mode[...]`),
    /// echoed in response headers and prof span labels.
    pub label: String,
    /// The cell's identity — the result-cache key.
    pub key: CellKey,
    trace: TraceRecipe,
    gpu: GpuConfig,
    reach: ReachConfig,
    sampling: Option<SamplingConfig>,
    /// The untenanted twin whose kernel cycles are the per-tenant
    /// slowdown basis ([`harness::fill_solo_cycles`]); `None` for
    /// untenanted cells. Itself a full cell: it is admitted through
    /// the same cache, so a sweep over tenant counts computes its
    /// solo anchor once.
    solo: Option<Box<ResolvedCell>>,
}

impl CellRequest {
    /// Validates the request against the suite/config/scale/mode
    /// vocabularies and resolves it into a runnable cell. Resolution
    /// works from names and configs alone — no trace is generated.
    pub fn resolve(&self) -> Result<ResolvedCell, String> {
        let scale = match self.scale.as_str() {
            "tiny" => Scale::tiny(),
            "quick" => Scale::quick(),
            "paper" => Scale::paper(),
            other => return Err(format!("unknown scale {other:?} (tiny|quick|paper)")),
        };
        let mut reach_solo = match self.config.as_str() {
            "baseline" => ReachConfig::baseline(),
            "lds" => ReachConfig::lds_only(),
            "ic" => ReachConfig::ic_only(),
            "ic+lds" | "ic_lds" => ReachConfig::ic_plus_lds(),
            other => return Err(format!("unknown config {other:?} (baseline|lds|ic|ic+lds)")),
        };
        let gpu = match self.page_mode.as_deref() {
            None => GpuConfig::default(),
            Some(pm) => {
                let Some((gpu, coalesce)) = crate::figures::page_mode_config(pm) else {
                    return Err(format!("unknown page_mode {pm:?} (4k|2m|frag2m|coalesced)"));
                };
                if let Some(max) = coalesce {
                    reach_solo = reach_solo.with_tlb_coalescing(max);
                }
                gpu
            }
        };
        let Some(info) = suite::info(&self.app) else {
            return Err(format!("unknown app {:?}", self.app));
        };
        let sampling = match self.mode.as_str() {
            "exact" => None,
            "sampled" => Some(crate::figures::sampling_for(scale)),
            other => return Err(format!("unknown mode {other:?} (exact|sampled)")),
        };
        let mode_desc = mode_descriptor(&self.scale, sampling.as_ref());
        let mut solo_label =
            format!("{}/{}/{}/{}", self.app, self.config, self.scale, self.mode);
        if let Some(pm) = &self.page_mode {
            solo_label.push('/');
            solo_label.push_str(pm);
        }
        let solo_trace = TraceRecipe { app: info.name, scale, tenants: 1 };
        let solo = ResolvedCell {
            label: solo_label,
            key: CellKey::new(info.name, &gpu, &reach_solo, &mode_desc),
            trace: solo_trace,
            gpu,
            reach: reach_solo,
            sampling,
            solo: None,
        };
        if self.tenants <= 1 {
            if self.policy.is_some() {
                return Err("\"policy\" only applies to tenanted requests".to_string());
            }
            return Ok(solo);
        }
        if self.tenants > MAX_TENANTS as u64 {
            return Err(format!("tenants must be <= {MAX_TENANTS} (got {})", self.tenants));
        }
        let policy = match self.policy.as_deref() {
            Some("partitioned") => SharingPolicy::Partitioned,
            Some("shared") => SharingPolicy::Shared,
            Some("subentry") | Some("sub-entry") => SharingPolicy::SubEntry,
            Some(other) => {
                return Err(format!(
                    "unknown policy {other:?} (partitioned|shared|subentry)"
                ))
            }
            None => return Err("tenanted requests need a \"policy\" field".to_string()),
        };
        let tenants = self.tenants as u8;
        let trace = TraceRecipe { tenants, ..solo_trace };
        let reach = reach_solo.with_tenancy(tenants, policy);
        Ok(ResolvedCell {
            label: format!("{}/{tenants}t-{}", solo.label, self.policy.as_deref().unwrap_or("")),
            key: CellKey::new(&trace.name(), &solo.gpu, &reach, &mode_desc),
            trace,
            gpu: solo.gpu.clone(),
            reach,
            sampling,
            solo: Some(Box::new(solo)),
        })
    }
}

/// Admission counters, exposed on the `{"cmd":"stats"}` control line.
/// `requests = cache_hits + coalesced + simulations` over any quiesced
/// window that contained no internal solo-basis computations (those
/// add to `simulations` without a request of their own).
#[derive(Debug, Default)]
pub struct Counters {
    /// Cell requests admitted.
    pub requests: AtomicU64,
    /// Requests answered from the memo or the on-disk result cache.
    pub cache_hits: AtomicU64,
    /// Requests that coalesced onto an identical in-flight
    /// computation (same batch or another connection).
    pub coalesced: AtomicU64,
    /// Simulations actually run (cold cells plus internal solo
    /// bases) — the dedupe proof: duplicates never increment this.
    pub simulations: AtomicU64,
}

impl Counters {
    /// The `{"counters":{...}}` control-response document.
    pub fn to_json(&self) -> Json {
        let n = |v: &AtomicU64| Json::from(v.load(Ordering::Relaxed));
        Json::Obj(vec![(
            "counters".to_string(),
            Json::Obj(vec![
                ("requests".to_string(), n(&self.requests)),
                ("cache_hits".to_string(), n(&self.cache_hits)),
                ("coalesced".to_string(), n(&self.coalesced)),
                ("simulations".to_string(), n(&self.simulations)),
            ]),
        )])
    }
}

/// A one-shot rendezvous for an in-flight cell computation: the
/// computing worker fills it once; duplicate requests block on the
/// condvar instead of re-entering the simulator.
struct Flight {
    slot: Mutex<Option<Arc<CachedResult>>>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Self {
        Self { slot: Mutex::new(None), cv: Condvar::new() }
    }

    fn fill(&self, result: Arc<CachedResult>) {
        *self.slot.lock().expect("flight lock") = Some(result);
        self.cv.notify_all();
    }

    fn wait(&self) -> Arc<CachedResult> {
        let mut g = self.slot.lock().expect("flight lock");
        loop {
            if let Some(r) = g.as_ref() {
                return Arc::clone(r);
            }
            g = self.cv.wait(g).expect("flight wait");
        }
    }
}

/// Warmup-checkpoint shards shared across concurrent serve workers
/// via acquire/return leases (the `GpuResourceTracker` idiom): the
/// first acquirer of a [`CheckpointKey`] captures (or disk-loads) the
/// shard while later acquirers wait on the condvar, then every lease
/// shares one `Arc`'d checkpoint. Shards stay resident after release
/// — they are a cache, the lease count only tracks concurrent use.
pub struct CheckpointShards {
    dir: Option<PathBuf>,
    inner: Mutex<HashMap<CheckpointKey, ShardSlot>>,
    cv: Condvar,
}

struct ShardSlot {
    ck: Option<Arc<Checkpoint>>,
    leases: u64,
}

/// An acquired checkpoint shard; dropping it returns the lease.
pub struct ShardLease<'a> {
    shards: &'a CheckpointShards,
    key: CheckpointKey,
    ck: Arc<Checkpoint>,
}

impl ShardLease<'_> {
    /// The shared checkpoint.
    pub fn checkpoint(&self) -> &Checkpoint {
        &self.ck
    }
}

impl Drop for ShardLease<'_> {
    fn drop(&mut self) {
        self.shards.release(&self.key);
    }
}

impl CheckpointShards {
    /// A tracker backed by the on-disk checkpoint cache in `dir`
    /// (`None` keeps shards in memory only).
    pub fn new(dir: Option<PathBuf>) -> Self {
        Self { dir, inner: Mutex::new(HashMap::new()), cv: Condvar::new() }
    }

    /// Acquires the shard for `(app, gpu, warmup)`, capturing or
    /// disk-loading it if this is the first acquisition. Concurrent
    /// acquirers of the same key block until the capture finishes —
    /// one capture, many leases.
    pub fn acquire(&self, app: &AppTrace, gpu: &GpuConfig, warmup: u64) -> ShardLease<'_> {
        let key = CheckpointKey::new(app.name(), gpu, warmup);
        {
            let mut g = self.inner.lock().expect("shards lock");
            loop {
                match g.get_mut(&key) {
                    Some(slot) => {
                        if let Some(ck) = &slot.ck {
                            slot.leases += 1;
                            prof::add("serve.shard_reuse", 1);
                            return ShardLease { shards: self, key, ck: Arc::clone(ck) };
                        }
                        // Another worker is capturing this shard.
                        g = self.cv.wait(g).expect("shards wait");
                    }
                    None => {
                        g.insert(key.clone(), ShardSlot { ck: None, leases: 0 });
                        break;
                    }
                }
            }
        }
        let ck = Arc::new(harness::load_or_capture(app, gpu, warmup, self.dir.as_deref()));
        let mut g = self.inner.lock().expect("shards lock");
        let slot = g.get_mut(&key).expect("loading marker present");
        slot.ck = Some(Arc::clone(&ck));
        slot.leases += 1;
        self.cv.notify_all();
        ShardLease { shards: self, key, ck }
    }

    fn release(&self, key: &CheckpointKey) {
        let mut g = self.inner.lock().expect("shards lock");
        if let Some(slot) = g.get_mut(key) {
            slot.leases = slot.leases.saturating_sub(1);
        }
    }

    /// Shards currently resident (captured and shareable).
    pub fn resident(&self) -> usize {
        self.inner
            .lock()
            .expect("shards lock")
            .values()
            .filter(|s| s.ck.is_some())
            .count()
    }

    /// Leases currently outstanding across all shards.
    pub fn outstanding(&self) -> u64 {
        self.inner.lock().expect("shards lock").values().map(|s| s.leases).sum()
    }
}

/// One streamed cell response: the header metadata plus the shared
/// result document.
#[derive(Debug, Clone)]
pub struct CellResponse {
    /// The request's cell label.
    pub label: String,
    /// `"cache"` (memo or disk hit), `"coalesced"` (rode an identical
    /// in-flight computation), or `"computed"` (this request ran the
    /// simulation).
    pub source: &'static str,
    /// Service time for this request in microseconds, admission to
    /// result availability.
    pub micros: u64,
    /// The memoized stats document.
    pub result: Arc<CachedResult>,
}

impl CellResponse {
    /// The response header line (no trailing newline).
    pub fn header(&self) -> String {
        let j = Json::Obj(vec![
            ("cell".to_string(), Json::from(self.label.as_str())),
            ("source".to_string(), Json::from(self.source)),
            ("schema_version".to_string(), Json::from(self.result.schema_version)),
            ("micros".to_string(), Json::from(self.micros)),
        ]);
        let mut s = String::new();
        j.write_compact(&mut s);
        s
    }
}

/// The shared server state: caches, coalescing table, checkpoint
/// shards, and counters. One instance serves every connection.
pub struct ServeState {
    workers: usize,
    cache_dir: Option<PathBuf>,
    memo: Mutex<HashMap<u64, Arc<CachedResult>>>,
    inflight: Mutex<HashMap<u64, Arc<Flight>>>,
    shards: CheckpointShards,
    /// Admission counters (the `{"cmd":"stats"}` document).
    pub counters: Counters,
}

impl ServeState {
    /// A fresh server state. `workers = 0` sizes the cold-cell pool to
    /// the machine; `cache_dir` holds the on-disk result cache
    /// (entries named by [`result_path`]); `checkpoint_dir` backs the
    /// shard tracker's checkpoint cache.
    pub fn new(
        workers: usize,
        cache_dir: Option<PathBuf>,
        checkpoint_dir: Option<PathBuf>,
    ) -> Self {
        Self {
            workers: if workers == 0 { crate::pool::default_workers() } else { workers },
            cache_dir,
            memo: Mutex::new(HashMap::new()),
            inflight: Mutex::new(HashMap::new()),
            shards: CheckpointShards::new(checkpoint_dir),
            counters: Counters::default(),
        }
    }

    /// The shard tracker (tests observe residency/leases through it).
    pub fn shards(&self) -> &CheckpointShards {
        &self.shards
    }

    /// Memo probe, falling through to the on-disk result cache. A
    /// disk hit is promoted into the memo so the next probe is a pure
    /// map lookup.
    fn lookup(&self, fp: u64) -> Option<Arc<CachedResult>> {
        if let Some(r) = self.memo.lock().expect("memo lock").get(&fp) {
            return Some(Arc::clone(r));
        }
        let dir = self.cache_dir.as_deref()?;
        let bytes = std::fs::read(result_path(dir, fp)).ok()?;
        let r = Arc::new(decode_result(&bytes, fp)?);
        self.memo.lock().expect("memo lock").insert(fp, Arc::clone(&r));
        Some(r)
    }

    /// Runs one cold cell's simulation (no cache interaction). This is
    /// the only place a served cell's trace is generated.
    fn simulate(&self, cell: &ResolvedCell) -> RunStats {
        let app = cell.trace.build();
        let mut stats = match cell.sampling {
            None => harness::run_one(&app, cell.gpu.clone(), cell.reach),
            Some(cfg) => {
                let lease = self.shards.acquire(&app, &cell.gpu, cfg.warmup);
                Variant::with_gpu(cell.label.clone(), cell.gpu.clone(), cell.reach)
                    .run_with_mode(&app, Some(cfg), Some(lease.checkpoint()))
            }
        };
        if let Some(solo) = &cell.solo {
            let entry = self
                .lookup(solo.key.fingerprint())
                .expect("solo basis materialized by the dependency phase");
            let parsed = Json::parse(&entry.doc)
                .ok()
                .and_then(|j| run_stats_from_json(&j))
                .expect("cached solo document parses back");
            harness::fill_solo_cycles(&mut stats, &parsed);
        }
        stats
    }

    /// Computes one cold cell, memoizes it (memory + disk), resolves
    /// its flight, and retires its coalescing entry.
    fn compute_and_fill(&self, cell: &ResolvedCell, flight: &Flight) {
        let fp = cell.key.fingerprint();
        let stats = {
            let _span = prof::span_with("serve:cell", || cell.label.clone());
            self.simulate(cell)
        };
        let result = Arc::new(CachedResult {
            schema_version: run_stats_schema_version(&stats),
            doc: run_stats_to_json_string(&stats),
        });
        self.counters.simulations.fetch_add(1, Ordering::Relaxed);
        self.memo.lock().expect("memo lock").insert(fp, Arc::clone(&result));
        if let Some(dir) = &self.cache_dir {
            let _ = std::fs::create_dir_all(dir);
            let _ = harness::atomic_write(
                &result_path(dir, fp),
                &encode_result(RESULT_CACHE_VERSION, fp, &result),
            );
        }
        // Fill before retiring the coalescing entry: a request that
        // found the flight always resolves, and one that misses both
        // the flight and the memo cannot exist (memo was written
        // above, before this remove).
        flight.fill(result);
        self.inflight.lock().expect("inflight lock").remove(&fp);
    }

    /// Admits and answers one batch of resolved cells. Cold distinct
    /// cells run on the work-stealing pool in two phases —
    /// solo-basis/untenanted cells first, then tenanted cells that
    /// consume those bases — so a tenanted cell never blocks a pool
    /// worker on work queued behind it. Responses come back in
    /// request order.
    pub fn handle_batch(&self, cells: &[ResolvedCell]) -> Vec<CellResponse> {
        let start = Instant::now();
        enum Slot {
            Ready(Arc<CachedResult>, u64),
            Pending(Arc<Flight>, &'static str),
        }
        let mut slots: Vec<Slot> = Vec::with_capacity(cells.len());
        // (cell, flight) pairs this batch must compute; phase A =
        // untenanted + internal solo bases, phase B = tenanted.
        let mut phase_a: Vec<(&ResolvedCell, Arc<Flight>)> = Vec::new();
        let mut phase_b: Vec<(&ResolvedCell, Arc<Flight>)> = Vec::new();
        for cell in cells {
            self.counters.requests.fetch_add(1, Ordering::Relaxed);
            let _adm = prof::span_with("serve:admit", || cell.label.clone());
            let fp = cell.key.fingerprint();
            if let Some(r) = self.lookup(fp) {
                let _hit = prof::span_with("serve:cache_hit", || cell.label.clone());
                prof::add("serve.cache_hit", 1);
                self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                slots.push(Slot::Ready(r, start.elapsed().as_micros() as u64));
                continue;
            }
            let mut inflight = self.inflight.lock().expect("inflight lock");
            if let Some(fl) = inflight.get(&fp) {
                prof::add("serve.coalesced", 1);
                self.counters.coalesced.fetch_add(1, Ordering::Relaxed);
                slots.push(Slot::Pending(Arc::clone(fl), "coalesced"));
                continue;
            }
            let fl = Arc::new(Flight::new());
            inflight.insert(fp, Arc::clone(&fl));
            drop(inflight);
            if cell.solo.is_some() {
                phase_b.push((cell, Arc::clone(&fl)));
            } else {
                phase_a.push((cell, Arc::clone(&fl)));
            }
            slots.push(Slot::Pending(fl, "computed"));
        }
        // Admit the solo bases the tenanted cold cells depend on.
        // Already-cached or in-flight bases need no work here: the
        // tenanted compute's lookup finds them (in-flight ones are
        // guaranteed filled-and-memoized before phase B runs only if
        // they belong to this batch's phase A; foreign flights are
        // awaited below, before phase B starts).
        let mut foreign_bases: Vec<Arc<Flight>> = Vec::new();
        let mut internal_bases: Vec<&ResolvedCell> = Vec::new();
        for (cell, _) in &phase_b {
            let solo = cell.solo.as_deref().expect("phase B cells carry a solo twin");
            let sfp = solo.key.fingerprint();
            if self.lookup(sfp).is_some()
                || internal_bases.iter().any(|c| c.key.fingerprint() == sfp)
            {
                continue;
            }
            let mut inflight = self.inflight.lock().expect("inflight lock");
            if let Some(fl) = inflight.get(&sfp) {
                foreign_bases.push(Arc::clone(fl));
                continue;
            }
            let fl = Arc::new(Flight::new());
            inflight.insert(sfp, Arc::clone(&fl));
            drop(inflight);
            internal_bases.push(solo);
            phase_a.push((solo, fl));
        }
        if !phase_a.is_empty() {
            crate::pool::run_indexed(phase_a.len(), self.workers, |i| {
                let (cell, fl) = &phase_a[i];
                self.compute_and_fill(cell, fl);
            });
        }
        for fl in foreign_bases {
            let _ = fl.wait();
        }
        if !phase_b.is_empty() {
            crate::pool::run_indexed(phase_b.len(), self.workers, |i| {
                let (cell, fl) = &phase_b[i];
                self.compute_and_fill(cell, fl);
            });
        }
        cells
            .iter()
            .zip(slots)
            .map(|(cell, slot)| match slot {
                Slot::Ready(result, micros) => CellResponse {
                    label: cell.label.clone(),
                    source: "cache",
                    micros,
                    result,
                },
                Slot::Pending(fl, source) => {
                    let result = fl.wait();
                    CellResponse {
                        label: cell.label.clone(),
                        source,
                        micros: start.elapsed().as_micros() as u64,
                        result,
                    }
                }
            })
            .collect()
    }
}

/// Writes one `{"error":...}` line.
fn write_error(out: &mut impl Write, msg: &str) -> std::io::Result<()> {
    let j = Json::Obj(vec![("error".to_string(), Json::from(msg))]);
    let mut s = String::new();
    j.write_compact(&mut s);
    writeln!(out, "{s}")
}

/// Flushes a collected batch: answers it and streams header + stats
/// document per cell.
fn flush_batch(
    state: &ServeState,
    batch: &mut Vec<ResolvedCell>,
    out: &mut impl Write,
) -> std::io::Result<()> {
    if batch.is_empty() {
        return Ok(());
    }
    let responses = state.handle_batch(batch);
    batch.clear();
    for r in responses {
        writeln!(out, "{}", r.header())?;
        // The document already ends with exactly one newline
        // (run_stats_to_json_string) — stream it byte-for-byte.
        out.write_all(r.result.doc.as_bytes())?;
    }
    out.flush()
}

/// Longest request line a connection may send, newline included.
/// A longer line is refused with one `{"error":...}` line and the
/// connection closes, so no client can make the server buffer an
/// unbounded line.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// How long a refused connection may keep sending before it is closed.
const REFUSE_LINGER: Duration = Duration::from_secs(2);

/// Serves one connection: accumulates cell requests, flushes on blank
/// lines / EOF, answers control commands inline. Returns `true` when
/// the client requested shutdown.
fn handle_conn(state: &ServeState, stream: TcpStream) -> std::io::Result<bool> {
    if prof::is_enabled() {
        prof::set_lane("serve");
    }
    // Responses are buffered here and flushed once per batch, so
    // Nagle's algorithm only delays them: a response larger than the
    // write buffer leaves in two writes, and with Nagle on the second
    // waits for the client's delayed ACK (about 40 ms on Linux).
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = std::io::BufWriter::new(stream);
    let mut batch: Vec<ResolvedCell> = Vec::new();
    let mut buf: Vec<u8> = Vec::new();
    loop {
        buf.clear();
        let n = (&mut reader).take(MAX_REQUEST_LINE as u64).read_until(b'\n', &mut buf)?;
        if n == 0 {
            break;
        }
        if n == MAX_REQUEST_LINE && buf.last() != Some(&b'\n') {
            flush_batch(state, &mut batch, &mut out)?;
            write_error(&mut out, &format!("request line exceeds {MAX_REQUEST_LINE} bytes"))?;
            out.flush()?;
            discard_input(&mut reader, out.get_ref());
            return Ok(false);
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            flush_batch(state, &mut batch, &mut out)?;
            write_error(&mut out, "request line is not UTF-8")?;
            out.flush()?;
            continue;
        };
        let line = line.trim();
        if line.is_empty() {
            flush_batch(state, &mut batch, &mut out)?;
            continue;
        }
        match parse_request(line) {
            Ok(Request::Cell(req)) => match req.resolve() {
                Ok(cell) => batch.push(cell),
                Err(e) => {
                    flush_batch(state, &mut batch, &mut out)?;
                    write_error(&mut out, &e)?;
                    out.flush()?;
                }
            },
            Ok(Request::Stats) => {
                flush_batch(state, &mut batch, &mut out)?;
                let mut s = String::new();
                state.counters.to_json().write_compact(&mut s);
                writeln!(out, "{s}")?;
                out.flush()?;
            }
            Ok(Request::Shutdown) => {
                flush_batch(state, &mut batch, &mut out)?;
                let mut s = String::new();
                Json::Obj(vec![("ok".to_string(), Json::from("shutdown"))])
                    .write_compact(&mut s);
                writeln!(out, "{s}")?;
                out.flush()?;
                return Ok(true);
            }
            Err(e) => {
                flush_batch(state, &mut batch, &mut out)?;
                write_error(&mut out, &e)?;
                out.flush()?;
            }
        }
    }
    flush_batch(state, &mut batch, &mut out)
        .map(|_| false)
}

/// Closes a refused connection gracefully: ends the write side, then
/// reads and drops whatever the client still sends, for at most
/// [`REFUSE_LINGER`]. Closing a socket with unread input resets the
/// connection, and a reset can discard the error line before the
/// client reads it.
fn discard_input(reader: &mut impl Read, stream: &TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(REFUSE_LINGER));
    let deadline = Instant::now() + REFUSE_LINGER;
    let mut sink = [0u8; 8192];
    while Instant::now() < deadline {
        match reader.read(&mut sink) {
            Ok(n) if n > 0 => {}
            _ => break,
        }
    }
}

/// Runs the accept loop until a client sends `{"cmd":"shutdown"}`.
/// Each connection is served on its own thread against the shared
/// state; the shutdown handler wakes the (blocking) accept with a
/// loopback dial so the listener can observe the stop flag.
///
/// On stop, every connection still open has its read side shut down:
/// a reader blocked on an idle client sees end-of-input, flushes its
/// batch and ends, while a response being written still completes. So
/// the call returns once in-flight work is done, however long other
/// clients keep their connections open.
pub fn run_server(state: Arc<ServeState>, listener: TcpListener) -> std::io::Result<()> {
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    // A clone of each open connection's stream, for the read-side
    // shutdown at stop. A connection thread removes its own clone as
    // it ends, so the socket closes as soon as its handler is done.
    let open: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::default();
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for (id, stream) in (0u64..).zip(listener.incoming()) {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = stream?;
        conns.retain(|c| !c.is_finished());
        open.lock().expect("connection registry").insert(id, stream.try_clone()?);
        let state = Arc::clone(&state);
        let stop = Arc::clone(&stop);
        let open = Arc::clone(&open);
        conns.push(std::thread::spawn(move || {
            let result = handle_conn(&state, stream);
            open.lock().expect("connection registry").remove(&id);
            match result {
                Ok(true) => {
                    stop.store(true, Ordering::SeqCst);
                    // Wake the accept loop so it can see the flag.
                    let _ = TcpStream::connect(addr);
                }
                Ok(false) => {}
                Err(e) => eprintln!("gtr-serve: connection error: {e}"),
            }
        }));
    }
    for stream in open.lock().expect("connection registry").values() {
        let _ = stream.shutdown(Shutdown::Read);
    }
    for c in conns {
        let _ = c.join();
    }
    Ok(())
}

/// Client helper: submits `lines` as one write (then closes the write
/// half, which flushes the final batch) and returns every response
/// line. Used by the `gtr-serve --connect` client, `perf --serve`,
/// and the tests.
pub fn submit_lines(addr: SocketAddr, lines: &[String]) -> std::io::Result<Vec<String>> {
    let mut stream = TcpStream::connect(addr)?;
    for l in lines {
        writeln!(stream, "{l}")?;
    }
    stream.shutdown(Shutdown::Write)?;
    BufReader::new(stream).lines().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell_line(app: &str, config: &str) -> CellRequest {
        CellRequest {
            app: app.to_string(),
            config: config.to_string(),
            scale: "tiny".to_string(),
            mode: "exact".to_string(),
            tenants: 0,
            policy: None,
            page_mode: None,
        }
    }

    #[test]
    fn parse_vocabulary() {
        assert_eq!(parse_request("{\"cmd\":\"stats\"}"), Ok(Request::Stats));
        assert_eq!(parse_request("{\"cmd\":\"shutdown\"}"), Ok(Request::Shutdown));
        assert!(parse_request("{\"cmd\":\"reboot\"}").is_err());
        assert!(parse_request("not json").is_err());
        assert!(parse_request("{\"config\":\"lds\"}").is_err(), "app is required");
        let r = parse_request("{\"app\":\"GUPS\"}").expect("defaults fill in");
        assert_eq!(
            r,
            Request::Cell(CellRequest {
                app: "GUPS".to_string(),
                config: "ic+lds".to_string(),
                scale: "tiny".to_string(),
                mode: "exact".to_string(),
                tenants: 0,
                policy: None,
                page_mode: None,
            })
        );
        let r = parse_request("{\"app\":\"GUPS\",\"page_mode\":\"coalesced\"}")
            .expect("page_mode parses");
        let Request::Cell(req) = r else { panic!("cell request") };
        assert_eq!(req.page_mode.as_deref(), Some("coalesced"));
    }

    #[test]
    fn page_modes_resolve_to_distinct_cells() {
        let mut r = cell_line("GUPS", "ic+lds");
        r.page_mode = Some("turbo".to_string());
        assert!(r.resolve().is_err(), "unknown page mode");

        let base = cell_line("GUPS", "ic+lds").resolve().expect("valid");
        let mut fingerprints = vec![base.key.fingerprint()];
        for pm in ["2m", "frag2m", "coalesced"] {
            let mut r = cell_line("GUPS", "ic+lds");
            r.page_mode = Some(pm.to_string());
            let cell = r.resolve().expect("valid page mode");
            assert!(cell.label.ends_with(pm), "page mode labels the cell");
            fingerprints.push(cell.key.fingerprint());
        }
        fingerprints.sort_unstable();
        fingerprints.dedup();
        assert_eq!(fingerprints.len(), 4, "every page mode is its own cell");

        // `4k` is spelled-out default: same machine, same result
        // identity, so it shares the default mode's cache entries.
        let mut r = cell_line("GUPS", "ic+lds");
        r.page_mode = Some("4k".to_string());
        let four_k = r.resolve().expect("valid");
        assert_eq!(four_k.key.fingerprint(), base.key.fingerprint());

        // The coalescing modes must produce schema-v6 documents end to
        // end: run one and check the stamped version.
        let state = ServeState::new(2, None, None);
        let mut r = cell_line("GUPS", "ic+lds");
        r.page_mode = Some("coalesced".to_string());
        let responses = state.handle_batch(&[r.resolve().expect("valid")]);
        assert_eq!(responses[0].result.schema_version, 6);
        assert!(responses[0].result.doc.contains("\"coalescing\""));
    }

    #[test]
    fn resolve_rejects_bad_fields() {
        assert!(cell_line("NOPE", "ic+lds").resolve().is_err());
        assert!(cell_line("GUPS", "turbo").resolve().is_err());
        let mut r = cell_line("GUPS", "ic+lds");
        r.scale = "huge".to_string();
        assert!(r.resolve().is_err());
        let mut r = cell_line("GUPS", "ic+lds");
        r.mode = "fast".to_string();
        assert!(r.resolve().is_err());
        let mut r = cell_line("GUPS", "ic+lds");
        r.tenants = 2;
        assert!(r.resolve().is_err(), "tenanted without policy");
        r.tenants = 99;
        r.policy = Some("shared".to_string());
        assert!(r.resolve().is_err(), "tenant count over MAX_TENANTS");
        let mut r = cell_line("GUPS", "ic+lds");
        r.policy = Some("shared".to_string());
        assert!(r.resolve().is_err(), "policy without tenants");
    }

    #[test]
    fn result_entry_round_trips_and_rejects_damage() {
        use gtr_sim::arena::{corrupt, Corruption};
        let r = CachedResult { schema_version: 4, doc: "{\"x\":1}\n".to_string() };
        let fp = 0xDEAD_BEEF_u64;
        let bytes = encode_result(RESULT_CACHE_VERSION, fp, &r);
        assert_eq!(decode_result(&bytes, fp), Some(r.clone()));
        assert_eq!(decode_result(&bytes, fp + 1), None, "misfiled entry");
        for way in [Corruption::Truncate(5), Corruption::FlipBit(16), Corruption::Trailing(3)] {
            assert_eq!(decode_result(&corrupt(&bytes, way), fp), None, "{way:?}");
        }
        let stale = encode_result(RESULT_CACHE_VERSION + 1, fp, &r);
        assert_eq!(decode_result(&stale, fp), None, "version bump invalidates");
    }

    #[test]
    fn duplicate_cells_coalesce_onto_one_simulation() {
        let state = ServeState::new(2, None, None);
        let cells: Vec<ResolvedCell> = [
            cell_line("GUPS", "baseline"),
            cell_line("GUPS", "ic+lds"),
            cell_line("GUPS", "ic+lds"),
        ]
        .iter()
        .map(|r| r.resolve().expect("valid"))
        .collect();
        let responses = state.handle_batch(&cells);
        assert_eq!(responses.len(), 3);
        assert_eq!(responses[0].source, "computed");
        assert_eq!(responses[1].source, "computed");
        assert_eq!(responses[2].source, "coalesced");
        assert_eq!(responses[1].result.doc, responses[2].result.doc);
        assert_eq!(state.counters.simulations.load(Ordering::Relaxed), 2);
        assert_eq!(state.counters.coalesced.load(Ordering::Relaxed), 1);
        // Resubmitting is all cache hits — the simulator is not
        // re-entered (the dedupe/memo proof the CI smoke relies on).
        let again = state.handle_batch(&cells);
        assert!(again.iter().all(|r| r.source == "cache"));
        assert_eq!(state.counters.simulations.load(Ordering::Relaxed), 2);
        assert_eq!(state.counters.cache_hits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn shard_tracker_shares_one_capture() {
        let shards = CheckpointShards::new(None);
        let app = suite::by_name("GUPS", Scale::tiny()).expect("known app");
        let gpu = GpuConfig::default();
        let a = shards.acquire(&app, &gpu, 1_000);
        let b = shards.acquire(&app, &gpu, 1_000);
        assert_eq!(shards.resident(), 1, "one shared shard");
        assert_eq!(shards.outstanding(), 2, "two live leases");
        assert_eq!(a.checkpoint(), b.checkpoint());
        drop(a);
        drop(b);
        assert_eq!(shards.outstanding(), 0, "leases returned");
        assert_eq!(shards.resident(), 1, "shard stays resident (cache)");
    }
}
