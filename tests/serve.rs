//! `gtr-serve` end-to-end guarantees: served results are byte-identical
//! to batch-mode exports, memoized cells never re-enter the simulator,
//! and a damaged result-cache entry recomputes instead of poisoning a
//! response.
//!
//! The serve path reorders everything about *how* cells execute
//! (admission, coalescing, caching, pooled workers) but must change
//! nothing about *what* they compute: each cell is the same
//! deterministic simulation the `all`/`run_app` harnesses run, and the
//! streamed document is exactly `run_stats_to_json_string` output.

use std::io::{BufRead, BufReader, Write};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use gpu_translation_reach::bench::figures;
use gpu_translation_reach::bench::harness::{self, Variant};
use gpu_translation_reach::bench::serve::{
    decode_result, encode_result, result_path, run_server, submit_lines, CachedResult,
    CellRequest, ServeState, MAX_REQUEST_LINE, RESULT_CACHE_VERSION,
};
use gpu_translation_reach::core_arch::cell::CellKey;
use gpu_translation_reach::core_arch::config::ReachConfig;
use gpu_translation_reach::core_arch::export::run_stats_to_json_string;
use gpu_translation_reach::gpu::config::GpuConfig;
use gpu_translation_reach::gpu::kernel::AppTrace;
use gpu_translation_reach::sim::arena::{corrupt, Corruption};
use gpu_translation_reach::sim::json::Json;
use gpu_translation_reach::vm::tenancy::SharingPolicy;
use gpu_translation_reach::workloads::scale::Scale;
use gpu_translation_reach::workloads::suite;

/// A unique, self-cleaning scratch directory per test.
struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("gtr-serve-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Self(dir)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn request(app: &str, config: &str, mode: &str) -> CellRequest {
    CellRequest {
        app: app.to_string(),
        config: config.to_string(),
        scale: "tiny".to_string(),
        mode: mode.to_string(),
        tenants: 0,
        policy: None,
        page_mode: None,
    }
}

/// A served **exact untenanted** cell streams the exact bytes
/// `run_app --stats-out` would write for the same cell (schema v4).
#[test]
fn served_exact_doc_is_byte_identical_to_batch_export() {
    let state = ServeState::new(2, None, None);
    let cell = request("GUPS", "ic+lds", "exact").resolve().expect("valid request");
    let responses = state.handle_batch(std::slice::from_ref(&cell));
    let app = suite::by_name("GUPS", Scale::tiny()).expect("known app");
    let expected = run_stats_to_json_string(&harness::run_one(
        &app,
        GpuConfig::default(),
        ReachConfig::ic_plus_lds(),
    ));
    assert_eq!(responses[0].result.schema_version, 4, "untenanted cells are schema v4");
    assert_eq!(responses[0].result.doc, expected, "served bytes must equal the batch export");
}

/// A served **sampled** cell matches the checkpointed batch path
/// (`load_or_capture` + `run_with_mode`) byte for byte, and the warmup
/// shard is shared through the tracker, not re-captured per request.
#[test]
fn served_sampled_doc_matches_checkpointed_batch_path() {
    let scratch = ScratchDir::new("sampled");
    let state = ServeState::new(2, None, Some(scratch.path().to_path_buf()));
    let cells = vec![
        request("GUPS", "baseline", "sampled").resolve().expect("valid"),
        request("GUPS", "ic+lds", "sampled").resolve().expect("valid"),
    ];
    let responses = state.handle_batch(&cells);
    assert_eq!(
        state.shards().resident(),
        1,
        "both variants share one warmup shard (same translation stream)"
    );
    assert_eq!(state.shards().outstanding(), 0, "leases returned after the batch");

    let app = suite::by_name("GUPS", Scale::tiny()).expect("known app");
    let gpu = GpuConfig::default();
    let cfg = figures::sampling_for(Scale::tiny());
    let ck = harness::load_or_capture(&app, &gpu, cfg.warmup, Some(scratch.path()));
    for (response, reach) in
        responses.iter().zip([ReachConfig::baseline(), ReachConfig::ic_plus_lds()])
    {
        let expected = run_stats_to_json_string(
            &Variant::with_gpu("cell", gpu.clone(), reach).run_with_mode(
                &app,
                Some(cfg),
                Some(&ck),
            ),
        );
        assert_eq!(response.result.doc, expected, "sampled serve path must match batch");
    }
}

/// A served **tenanted** cell streams a schema-v5 document identical
/// to the batch tenancy path: replicated trace, tenanted reach config,
/// and per-tenant slowdown bases stamped from the untenanted twin —
/// which the server computes (and memoizes) as an internal dependency.
#[test]
fn served_tenanted_doc_is_byte_identical_to_batch_v5_export() {
    let state = ServeState::new(2, None, None);
    let mut req = request("GUPS", "ic+lds", "exact");
    req.tenants = 2;
    req.policy = Some("subentry".to_string());
    let cell = req.resolve().expect("valid tenanted request");
    let responses = state.handle_batch(std::slice::from_ref(&cell));
    assert_eq!(responses[0].result.schema_version, 5, "tenanted cells are schema v5");
    assert_eq!(
        state.counters.simulations.load(Ordering::Relaxed),
        2,
        "the tenanted cell plus its internal solo basis"
    );

    let base_app = suite::by_name("GUPS", Scale::tiny()).expect("known app");
    let gpu = GpuConfig::default();
    let solo = harness::run_one(&base_app, gpu.clone(), ReachConfig::ic_plus_lds());
    let tenanted_app = AppTrace::replicate(&base_app, 2);
    let tenanted_reach = ReachConfig::ic_plus_lds().with_tenancy(2, SharingPolicy::SubEntry);
    let mut stats = harness::run_one(&tenanted_app, gpu, tenanted_reach);
    harness::fill_solo_cycles(&mut stats, &solo);
    let expected = run_stats_to_json_string(&stats);
    assert_eq!(responses[0].result.doc, expected, "served v5 bytes must equal the batch path");

    // The internal solo basis is a first-class cached cell: asking for
    // it now is a hit, not a computation.
    let solo_cell = request("GUPS", "ic+lds", "exact").resolve().expect("valid");
    let solo_responses = state.handle_batch(std::slice::from_ref(&solo_cell));
    assert_eq!(solo_responses[0].source, "cache");
    assert_eq!(solo_responses[0].result.doc, run_stats_to_json_string(&solo));
    assert_eq!(state.counters.simulations.load(Ordering::Relaxed), 2, "still two");
}

/// Damaged on-disk result entries — every corruption `gtr_sim::arena`
/// can inflict, plus a stale cache version — behave exactly like a
/// miss: the cell recomputes, streams correct bytes, and the entry is
/// rewritten whole. A damaged cache can never poison a response.
#[test]
fn damaged_result_entries_recompute_and_never_poison() {
    let scratch = ScratchDir::new("damage");
    let cell = request("GUPS", "baseline", "exact").resolve().expect("valid");
    let fp = cell.key.fingerprint();
    let file = result_path(scratch.path(), fp);

    let cold = ServeState::new(1, Some(scratch.path().to_path_buf()), None);
    let expected = cold.handle_batch(std::slice::from_ref(&cell))[0].result.doc.clone();
    let good_bytes = std::fs::read(&file).expect("cold pass wrote the entry");
    assert!(decode_result(&good_bytes, fp).is_some(), "fresh entry must decode");

    let stale_version = encode_result(
        RESULT_CACHE_VERSION + 1,
        fp,
        &CachedResult { schema_version: 4, doc: expected.clone() },
    );
    let damage: Vec<(String, Vec<u8>)> = [
        Corruption::Truncate(0),
        Corruption::Truncate(good_bytes.len() / 2),
        Corruption::FlipBit(64),
        Corruption::FlipBit(good_bytes.len() * 8 - 1),
        Corruption::Trailing(7),
    ]
    .into_iter()
    .map(|way| (format!("{way:?}"), corrupt(&good_bytes, way)))
    .chain([("stale version".to_string(), stale_version)])
    .collect();
    for (label, bytes) in damage {
        std::fs::write(&file, &bytes).expect("write damaged entry");
        // A fresh state per round: the in-memory memo must not mask
        // the disk probe.
        let state = ServeState::new(1, Some(scratch.path().to_path_buf()), None);
        let responses = state.handle_batch(std::slice::from_ref(&cell));
        assert_eq!(responses[0].source, "computed", "{label}: damaged entry must miss");
        assert_eq!(responses[0].result.doc, expected, "{label}: recompute must be exact");
        assert_eq!(state.counters.simulations.load(Ordering::Relaxed), 1, "{label}");
        let rewritten = std::fs::read(&file).expect("entry rewritten");
        assert!(decode_result(&rewritten, fp).is_some(), "{label}: rewritten entry decodes");
    }

    // Undamaged, a fresh process answers from disk without simulating.
    std::fs::write(&file, &good_bytes).expect("restore good entry");
    let warm = ServeState::new(1, Some(scratch.path().to_path_buf()), None);
    let responses = warm.handle_batch(std::slice::from_ref(&cell));
    assert_eq!(responses[0].source, "cache", "disk entries survive process restarts");
    assert_eq!(responses[0].result.doc, expected);
    assert_eq!(warm.counters.simulations.load(Ordering::Relaxed), 0);
}

/// Full TCP round trip: duplicate cells in one batch coalesce onto a
/// single simulation, every streamed document is an exact batch-mode
/// export, a resubmission is 100% cache hits (the simulator is never
/// re-entered), errors come back as `{"error":...}` lines, and
/// `{"cmd":"shutdown"}` stops the listener.
#[test]
fn tcp_round_trip_dedupes_and_shuts_down() {
    let scratch = ScratchDir::new("tcp");
    let state = Arc::new(ServeState::new(2, Some(scratch.path().to_path_buf()), None));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    let server = {
        let state = Arc::clone(&state);
        std::thread::spawn(move || run_server(state, listener))
    };

    let batch: Vec<String> = [
        r#"{"app":"GUPS","config":"baseline","scale":"tiny","mode":"exact"}"#,
        r#"{"app":"GUPS","config":"ic+lds","scale":"tiny","mode":"exact"}"#,
        r#"{"app":"GUPS","config":"ic+lds","scale":"tiny","mode":"exact"}"#,
    ]
    .map(str::to_string)
    .into();
    let cold = submit_lines(addr, &batch).expect("cold submission");
    assert_eq!(cold.len(), 6, "three header lines + three documents: {cold:?}");
    let sources: Vec<&str> = cold
        .iter()
        .step_by(2)
        .map(|h| {
            let j = Json::parse(h).expect("header parses");
            assert!(j.get("cell").is_some() && j.get("micros").is_some(), "header shape: {h}");
            match j.get("source").and_then(Json::as_str).expect("source") {
                "computed" => "computed",
                "coalesced" => "coalesced",
                "cache" => "cache",
                other => panic!("unknown source {other:?}"),
            }
        })
        .collect();
    assert_eq!(sources, ["computed", "computed", "coalesced"], "duplicate cell coalesces");
    let app = suite::by_name("GUPS", Scale::tiny()).expect("known app");
    let expected_base = run_stats_to_json_string(&harness::run_one(
        &app,
        GpuConfig::default(),
        ReachConfig::baseline(),
    ));
    assert_eq!(format!("{}\n", cold[1]), expected_base, "streamed doc is the batch export");
    assert_eq!(cold[3], cold[5], "coalesced duplicate streams identical bytes");

    // Resubmit plus a stats probe: all hits, and the simulation
    // counter proves the simulator was never re-entered.
    let mut again = batch.clone();
    again.push(String::new());
    again.push(r#"{"cmd":"stats"}"#.to_string());
    let hot = submit_lines(addr, &again).expect("hot submission");
    assert_eq!(hot.len(), 7, "three headers + three documents + counters: {hot:?}");
    for h in hot.iter().take(6).step_by(2) {
        let j = Json::parse(h).expect("header parses");
        assert_eq!(j.get("source").and_then(Json::as_str), Some("cache"), "hot pass: {h}");
    }
    let counters = Json::parse(&hot[6]).expect("counters parse");
    let counter = |k: &str| counters.get("counters").and_then(|c| c.get(k)).and_then(Json::as_u64);
    assert_eq!(counter("requests"), Some(6));
    assert_eq!(counter("simulations"), Some(2), "one simulation per distinct cell, ever");
    assert_eq!(counter("coalesced"), Some(1));
    assert_eq!(counter("cache_hits"), Some(3));

    // Bad requests answer with an error line and leave the server up.
    let errs = submit_lines(addr, &[r#"{"app":"NOPE"}"#.to_string(), "not json".to_string()])
        .expect("error submission");
    assert_eq!(errs.len(), 2, "{errs:?}");
    for e in &errs {
        assert!(
            Json::parse(e).expect("error parses").get("error").is_some(),
            "expected an error line: {e}"
        );
    }

    let bye = submit_lines(addr, &[r#"{"cmd":"shutdown"}"#.to_string()]).expect("shutdown");
    assert_eq!(bye, [r#"{"ok":"shutdown"}"#.to_string()]);
    server.join().expect("server thread").expect("clean server exit");
}

/// Admission resolves keys from names and configs alone, yet every key
/// equals the one derived from the generated (and replicated) trace,
/// so every result cache written before stays valid. Covers the whole
/// request vocabulary: each suite app at tiny and paper scale, every
/// config, exact and sampled, untenanted and 2/8 tenants under every
/// policy, and every page mode.
#[test]
fn resolved_keys_equal_keys_from_generated_traces() {
    let configs = [
        ("baseline", ReachConfig::baseline()),
        ("lds", ReachConfig::lds_only()),
        ("ic", ReachConfig::ic_only()),
        ("ic+lds", ReachConfig::ic_plus_lds()),
    ];
    let policies = [
        ("partitioned", SharingPolicy::Partitioned),
        ("shared", SharingPolicy::Shared),
        ("subentry", SharingPolicy::SubEntry),
    ];
    let page_modes = [None, Some("4k"), Some("2m"), Some("frag2m"), Some("coalesced")];
    let mut checked = 0;
    for info in &suite::TABLE2 {
        for (scale_name, scale) in [("tiny", Scale::tiny()), ("paper", Scale::paper())] {
            // The names of the generated (and replicated) traces
            // these requests run.
            let base = suite::by_name(info.name, scale).expect("suite app");
            let trace_names: Vec<(u64, String)> = [1u8, 2, 8]
                .into_iter()
                .map(|t| {
                    let name = match t {
                        1 => base.name().to_string(),
                        _ => AppTrace::replicate(&base, t).name().to_string(),
                    };
                    (u64::from(t), name)
                })
                .collect();
            drop(base);
            for (config, solo_reach) in configs {
                for mode in ["exact", "sampled"] {
                    let mode_desc = match mode {
                        "exact" => format!("scale={scale_name} exact"),
                        _ => format!("scale={scale_name} sampled {:?}", figures::sampling_for(scale)),
                    };
                    for pm in page_modes {
                        let (gpu, solo_reach) = match pm {
                            None => (GpuConfig::default(), solo_reach),
                            Some(pm) => {
                                let (gpu, coalesce) =
                                    figures::page_mode_config(pm).expect("page mode");
                                (gpu, coalesce.map_or(solo_reach, |m| solo_reach.with_tlb_coalescing(m)))
                            }
                        };
                        for (tenants, trace_name) in &trace_names {
                            let tenanted: Vec<(Option<&str>, ReachConfig)> = if *tenants == 1 {
                                vec![(None, solo_reach)]
                            } else {
                                policies
                                    .iter()
                                    .map(|&(p, policy)| {
                                        (Some(p), solo_reach.with_tenancy(*tenants as u8, policy))
                                    })
                                    .collect()
                            };
                            for (policy, reach) in tenanted {
                                let req = CellRequest {
                                    app: info.name.to_string(),
                                    config: config.to_string(),
                                    scale: scale_name.to_string(),
                                    mode: mode.to_string(),
                                    tenants: *tenants,
                                    policy: policy.map(str::to_string),
                                    page_mode: pm.map(str::to_string),
                                };
                                let cell = req.resolve().expect("valid request");
                                let expected = CellKey::new(trace_name, &gpu, &reach, &mode_desc);
                                assert_eq!(cell.key, expected, "{req:?}");
                                assert_eq!(cell.key.fingerprint(), expected.fingerprint());
                                checked += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!(checked, 10 * 2 * 4 * 2 * 5 * (1 + 2 * 3));

    // Names and vocabularies are still checked at resolve time.
    let bad = |f: &dyn Fn(&mut CellRequest)| {
        let mut r = request("GUPS", "ic+lds", "exact");
        f(&mut r);
        r.resolve().is_err()
    };
    assert!(bad(&|r| r.app = "NOPE".to_string()), "unknown app");
    assert!(bad(&|r| r.app = "gups".to_string()), "app names are case-sensitive");
    assert!(bad(&|r| r.config = "turbo".to_string()), "unknown config");
    assert!(bad(&|r| r.scale = "huge".to_string()), "unknown scale");
    assert!(bad(&|r| r.mode = "fast".to_string()), "unknown mode");
    assert!(bad(&|r| r.page_mode = Some("1g".to_string())), "unknown page mode");
    assert!(
        bad(&|r| {
            r.tenants = 2;
            r.policy = Some("greedy".to_string());
        }),
        "unknown policy"
    );
    assert!(bad(&|r| r.tenants = 9), "tenant count over the limit");
}

/// A request line over [`MAX_REQUEST_LINE`] bytes gets one error line
/// and its connection closes; the server keeps serving new
/// connections.
#[test]
fn oversized_request_line_is_refused_and_server_survives() {
    let state = Arc::new(ServeState::new(1, None, None));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    let server = {
        let state = Arc::clone(&state);
        std::thread::spawn(move || run_server(state, listener))
    };

    let stream = std::net::TcpStream::connect(addr).expect("connect");
    let writer = {
        let mut stream = stream.try_clone().expect("clone stream");
        std::thread::spawn(move || {
            let mut line = vec![b'x'; 1 << 20];
            line.push(b'\n');
            // The server may stop reading once it has refused the
            // line; a failed write is fine.
            let _ = stream.write_all(&line);
            let _ = stream.shutdown(std::net::Shutdown::Write);
        })
    };
    let replies: Vec<String> =
        BufReader::new(stream).lines().collect::<Result<_, _>>().expect("read replies");
    writer.join().expect("writer thread");
    assert_eq!(replies.len(), 1, "one error line, then the connection closes: {replies:?}");
    let err = Json::parse(&replies[0]).expect("error parses");
    let msg = err.get("error").and_then(Json::as_str).expect("an error line");
    assert!(msg.contains(&MAX_REQUEST_LINE.to_string()), "{msg}");

    // A line just under the bound is still read (and rejected as
    // JSON, not for its length), and a fresh connection is served.
    let near = format!("{{\"app\":\"{}\"}}", "y".repeat(MAX_REQUEST_LINE - 20));
    let replies = submit_lines(addr, &[near]).expect("near-limit line");
    assert_eq!(replies.len(), 1, "{replies:?}");
    assert!(replies[0].contains("unknown app"), "{}", replies[0]);
    // A line that is not UTF-8 gets an error line, and the connection
    // keeps serving.
    let mut raw = std::net::TcpStream::connect(addr).expect("connect");
    raw.write_all(b"\xff\xfe\n{\"cmd\":\"stats\"}\n").expect("send");
    raw.shutdown(std::net::Shutdown::Write).expect("half-close");
    let replies: Vec<String> =
        BufReader::new(raw).lines().collect::<Result<_, _>>().expect("read replies");
    assert_eq!(replies.len(), 2, "{replies:?}");
    assert!(replies[0].contains("not UTF-8"), "{}", replies[0]);
    assert!(replies[1].contains("counters"), "{}", replies[1]);

    let ok = submit_lines(
        addr,
        &[r#"{"app":"GUPS","config":"baseline","scale":"tiny","mode":"exact"}"#.to_string()],
    )
    .expect("fresh connection");
    assert_eq!(ok.len(), 2, "header + document: {ok:?}");
    assert_eq!(
        Json::parse(&ok[0]).expect("header").get("source").and_then(Json::as_str),
        Some("computed")
    );

    let bye = submit_lines(addr, &[r#"{"cmd":"shutdown"}"#.to_string()]).expect("shutdown");
    assert_eq!(bye, [r#"{"ok":"shutdown"}"#.to_string()]);
    server.join().expect("server thread").expect("clean server exit");
}

/// A response larger than the server's write buffer (tiny SSSP's IC
/// document is over 8 KB) leaves in more than one write. With Nagle's
/// algorithm on, the last write waited for the client's delayed ACK,
/// about 40 ms on every such request; the server disables it.
#[test]
fn large_responses_are_not_held_back() {
    let state = Arc::new(ServeState::new(1, None, None));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    let server = {
        let state = Arc::clone(&state);
        std::thread::spawn(move || run_server(state, listener))
    };
    let line = r#"{"app":"SSSP","config":"ic","scale":"tiny","mode":"exact"}"#;
    let stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("client nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let mut round_trip = || {
        let start = std::time::Instant::now();
        writer.write_all(format!("{line}\n\n").as_bytes()).expect("send request");
        let (mut header, mut doc) = (String::new(), String::new());
        reader.read_line(&mut header).expect("header");
        reader.read_line(&mut doc).expect("document");
        (start.elapsed(), doc.len())
    };
    let (_, doc_len) = round_trip(); // cold: computes the cell
    assert!(doc_len > 8 * 1024, "the document must exceed the write buffer: {doc_len} bytes");
    let fastest = (0..5).map(|_| round_trip().0).min().expect("five hot requests");
    assert!(
        fastest < std::time::Duration::from_millis(20),
        "every hot round trip took at least {fastest:?}: the response was held back"
    );
    let bye = submit_lines(addr, &[r#"{"cmd":"shutdown"}"#.to_string()]).expect("shutdown");
    assert_eq!(bye, [r#"{"ok":"shutdown"}"#.to_string()]);
    server.join().expect("server thread").expect("clean server exit");
}

/// `{"cmd":"shutdown"}` stops the server even while another client
/// keeps an idle connection open: the server ends that connection's
/// blocked read instead of waiting for the client to close it.
#[test]
fn shutdown_returns_while_an_idle_client_stays_connected() {
    let state = Arc::new(ServeState::new(1, None, None));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = done_tx.send(run_server(state, listener));
    });
    // Connected, answered once, then idle: the server's reader for
    // this connection is blocked when the shutdown arrives.
    let mut idle = std::net::TcpStream::connect(addr).expect("connect idle client");
    idle.write_all(b"{\"cmd\":\"stats\"}\n").expect("send");
    let mut reader = BufReader::new(idle.try_clone().expect("clone stream"));
    let mut counters = String::new();
    reader.read_line(&mut counters).expect("counters");
    assert!(counters.contains("counters"), "{counters}");

    let bye = submit_lines(addr, &[r#"{"cmd":"shutdown"}"#.to_string()]).expect("shutdown");
    assert_eq!(bye, [r#"{"ok":"shutdown"}"#.to_string()]);
    let result = done_rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("run_server must return while the idle client is still connected");
    result.expect("clean server exit");
    // The idle client's connection was ended by the server.
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).expect("read after stop"), 0, "{rest}");
}
