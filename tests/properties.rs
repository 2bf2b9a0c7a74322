//! Randomized property tests over the core data structures'
//! invariants.
//!
//! Formerly written with `proptest`; now driven by the workspace's own
//! seeded [`SplitMix64`] generator so the test suite builds and runs
//! with no registry access. Each property samples many random cases
//! per run and every case is fully determined by its seed, so a
//! failure message's seed reproduces the exact failing input.

use gpu_translation_reach::core_arch::compress::TagGroup;
use gpu_translation_reach::core_arch::config::{Replacement, SegmentSize, TxPerLine};
use gpu_translation_reach::core_arch::icache_tx::TxIcache;
use gpu_translation_reach::core_arch::lds_tx::{SegmentMode, TxLds};
use gpu_translation_reach::core_arch::tx_ways::TxInsert;
use gpu_translation_reach::sim::resource::Timeline;
use gpu_translation_reach::sim::rng::SplitMix64;
use gpu_translation_reach::vm::addr::{PageSize, Ppn, Translation, TranslationKey, VirtAddr, Vpn};
use gpu_translation_reach::vm::coalescer::CoalescedAccess;
use gpu_translation_reach::vm::page_table::PageTable;
use gpu_translation_reach::vm::tlb::{Tlb, TlbConfig};

fn tx(v: u64) -> Translation {
    Translation::new(TranslationKey::for_vpn(Vpn(v)), Ppn(v ^ 0xABCD))
}

/// Runs `case` once per seed; panics carry the seed for replay.
fn check_cases(cases: u64, case: impl Fn(&mut SplitMix64)) {
    for seed in 0..cases {
        let mut rng = SplitMix64::new(0xC0FFEE ^ seed);
        case(&mut rng);
    }
}

/// A random vector of `1..max_len` values drawn from `[lo, hi)`.
fn random_vec(rng: &mut SplitMix64, max_len: u64, lo: u64, hi: u64) -> Vec<u64> {
    let len = 1 + rng.next_below(max_len.max(2) - 1);
    (0..len).map(|_| lo + rng.next_below(hi - lo)).collect()
}

/// Every admitted tag lies within the signed delta window of the
/// group's base; conflicts are rejected, never mis-stored.
#[test]
fn tag_group_window_invariant() {
    check_cases(64, |rng| {
        let delta_bits = 2 + rng.next_below(22) as u32;
        let tags = random_vec(rng, 64, 0, 1 << 40);
        let mut g = TagGroup::new(delta_bits);
        for t in tags {
            let admitted = g.try_admit(t);
            if admitted {
                let base = g.base().expect("non-empty group has a base");
                let delta = t as i128 - base as i128;
                let half = 1i128 << (delta_bits - 1);
                assert!(
                    (-half..half).contains(&delta),
                    "admitted tag {t} outside window of base {base} ({delta_bits} bits)"
                );
            }
        }
    });
}

/// A TLB never exceeds its capacity, and a just-inserted key is
/// always findable.
#[test]
fn tlb_capacity_and_residency() {
    check_cases(64, |rng| {
        let entries = 1usize << (2 + rng.next_below(5));
        let assoc = (1usize << rng.next_below(4)).min(entries);
        let keys = random_vec(rng, 300, 0, 10_000);
        let mut tlb = Tlb::new(TlbConfig::set_associative(entries, assoc, 1));
        for v in keys {
            tlb.insert(tx(v));
            assert!(tlb.len() <= entries);
            assert!(
                tlb.lookup(TranslationKey::for_vpn(Vpn(v))).is_some(),
                "freshly inserted key must be resident"
            );
        }
    });
}

/// Timeline reservations never overlap, regardless of arrival order
/// and skew.
#[test]
fn timeline_reservations_disjoint() {
    check_cases(48, |rng| {
        let n = 1 + rng.next_below(199);
        let mut tl = Timeline::new();
        let mut intervals: Vec<(u64, u64)> = Vec::new();
        for _ in 0..n {
            let at = rng.next_below(100_000);
            let service = 1 + rng.next_below(199);
            let start = tl.reserve(at, service);
            assert!(start >= at, "reservation cannot start before arrival");
            let end = start + service;
            for &(s, e) in &intervals {
                assert!(end <= s || start >= e, "overlap: [{start},{end}) with [{s},{e})");
            }
            intervals.push((start, end));
        }
    });
}

/// Coalescing yields unique pages covering exactly the lanes' pages.
#[test]
fn coalescer_pages_exact() {
    check_cases(64, |rng| {
        let addrs = random_vec(rng, 64, 0, 1 << 44);
        let lanes: Vec<VirtAddr> = addrs.iter().map(|&a| VirtAddr::new(a)).collect();
        let c = CoalescedAccess::from_lanes(&lanes, PageSize::Size4K);
        let expected: std::collections::HashSet<u64> =
            lanes.iter().map(|a| a.vpn(PageSize::Size4K).0).collect();
        let got: std::collections::HashSet<u64> = c.pages.iter().map(|p| p.0).collect();
        assert_eq!(expected, got);
        assert_eq!(c.pages.len(), expected.len(), "no duplicates");
    });
}

/// Page-table mapping is a bijection onto distinct frames, and walk
/// paths always end at the mapped frame.
#[test]
fn page_table_bijective_and_walkable() {
    check_cases(32, |rng| {
        let vpns: std::collections::HashSet<u64> =
            random_vec(rng, 100, 0, 1 << 30).into_iter().collect();
        let mut pt = PageTable::new(PageSize::Size4K);
        let mut frames = std::collections::HashSet::new();
        for &v in &vpns {
            let t = pt.map_vpn(Vpn(v));
            assert!(frames.insert(t.ppn), "frame reused");
        }
        for &v in &vpns {
            let path = pt.walk_path(Vpn(v)).expect("mapped");
            assert_eq!(path.steps().len(), 4);
            assert_eq!(Some(path.ppn), pt.translate(Vpn(v)));
        }
    });
}

/// The reconfigurable LDS never stores translations in App-mode
/// segments and never exceeds its way capacity; app allocate /
/// release round-trips restore usable capacity.
#[test]
fn tx_lds_mode_safety() {
    check_cases(48, |rng| {
        let n = 1 + rng.next_below(399);
        let mut lds = TxLds::new(16 * 1024, SegmentSize::Bytes32);
        let cap = lds.segment_count() * lds.ways();
        // Live application allocations, mirroring the front-end
        // scheduler's contract: only allocated blocks are released.
        let mut live: std::collections::HashSet<u32> = std::collections::HashSet::new();
        for _ in 0..n {
            let v = rng.next_below(4096);
            match rng.next_below(4) {
                0 | 1 => {
                    let _ = lds.insert(tx(v));
                }
                2 => {
                    let base = (((v as u32) % 512) * 32) & !255;
                    if live.insert(base) {
                        lds.on_app_allocate(base, 256);
                    }
                }
                _ => {
                    let base = (((v as u32) % 512) * 32) & !255;
                    if live.remove(&base) {
                        lds.on_app_release(base, 256);
                    }
                }
            }
            assert!(lds.resident() <= cap);
            // An App segment must always bypass inserts.
            if lds.segment_mode(tx(v).key) == SegmentMode::App {
                assert_eq!(lds.insert(tx(v)), TxInsert::Bypassed);
            }
        }
    });
}

/// The reconfigurable I-cache keeps instruction fetches correct no
/// matter how translations churn: a fetched line always hits
/// immediately afterwards.
#[test]
fn tx_icache_instruction_correctness() {
    check_cases(48, |rng| {
        let n = 1 + rng.next_below(399);
        let mut ic = TxIcache::new(16 * 1024, 8, TxPerLine::Eight, Replacement::InstructionAware);
        for _ in 0..n {
            let v = rng.next_below(2048);
            if rng.next_below(2) == 0 {
                ic.fetch(v);
                assert!(ic.fetch(v), "immediate refetch must hit");
            } else {
                let _ = ic.insert_tx(tx(v));
            }
            assert!(ic.resident_tx() <= ic.line_count() * ic.tx_slots());
        }
    });
}

/// Under the instruction-aware policy translations NEVER evict
/// instruction lines (§4.3.2 rule 2).
#[test]
fn instruction_aware_never_evicts_instructions() {
    check_cases(48, |rng| {
        let inst_lines = random_vec(rng, 64, 0, 2048);
        let tx_vpns = random_vec(rng, 256, 0, 1 << 20);
        let mut ic = TxIcache::new(16 * 1024, 8, TxPerLine::Eight, Replacement::InstructionAware);
        for &l in &inst_lines {
            ic.fetch(l);
        }
        let inst_before = ic.inst_lines();
        for v in tx_vpns {
            let _ = ic.insert_tx(tx(v));
        }
        assert_eq!(ic.inst_lines(), inst_before);
        assert_eq!(ic.stats().inst_evicted_by_tx, 0);
    });
}

// ---------------------------------------------------------------------------
// CheckpointKey: which config fields invalidate a warmup capture.
// ---------------------------------------------------------------------------

use gpu_translation_reach::core_arch::checkpoint::{stream_fingerprint, Checkpoint, CheckpointKey};
use gpu_translation_reach::gpu::config::GpuConfig;
use gpu_translation_reach::vm::alloc::PageLayout;
use gpu_translation_reach::workloads::scale::Scale;
use gpu_translation_reach::workloads::suite;

/// Capture window for the stream-comparison properties, in wavefront
/// instructions (small: functional warming only, no timing).
const CAPTURE_WARMUP: u64 = 2_000;

/// Applies one random timing-side perturbation — config changes that
/// by design must NOT invalidate a capture.
fn perturb_timing_side(gpu: &mut GpuConfig, rng: &mut SplitMix64) {
    match rng.next_below(6) {
        0 => gpu.l2_tlb.entries = 1 << (8 + rng.next_below(9)),
        1 => *gpu = gpu.clone().with_perfect_l2_tlb(),
        2 => *gpu = gpu.clone().with_icache_sharers(1 << rng.next_below(4)),
        3 => *gpu = gpu.clone().without_page_walk_caches(),
        4 => gpu.l1_tlb.latency = 1 + rng.next_below(20),
        _ => gpu.l2_tlb.latency = 1 + rng.next_below(50),
    }
}

/// The apps the stream-comparison properties sample (cheap at tiny
/// scale, spanning latency-bound, irregular and regular behavior).
const STREAM_APPS: [&str; 3] = ["ATAX", "GUPS", "SRAD"];

fn capture_stream(app: &str, gpu: &GpuConfig) -> Vec<u8> {
    let trace = suite::by_name(app, Scale::tiny()).expect("known app");
    Checkpoint::capture(&trace, gpu, CAPTURE_WARMUP).to_bytes()
}

/// Timing-side sweeps never invalidate a capture: any stack of
/// timing-side perturbations keys identically to the default machine.
#[test]
fn checkpoint_key_ignores_timing_side_config() {
    let base = CheckpointKey::new("GUPS", &GpuConfig::default(), CAPTURE_WARMUP);
    check_cases(64, |rng| {
        let mut gpu = GpuConfig::default();
        for _ in 0..=rng.next_below(3) {
            perturb_timing_side(&mut gpu, rng);
        }
        assert_eq!(
            CheckpointKey::new("GUPS", &gpu, CAPTURE_WARMUP),
            base,
            "timing-side perturbation changed the key: {gpu:?}"
        );
    });
}

/// The safety direction of sharing: whenever two random
/// configurations agree on the key, their captured translation
/// streams are bit-identical — a shared checkpoint can never feed a
/// variant a stream it would not have produced itself.
#[test]
fn checkpoint_key_equality_implies_identical_streams() {
    check_cases(8, |rng| {
        let app = STREAM_APPS[rng.next_below(STREAM_APPS.len() as u64) as usize];
        let mut a = GpuConfig::default();
        let mut b = GpuConfig::default();
        perturb_timing_side(&mut a, rng);
        perturb_timing_side(&mut b, rng);
        perturb_timing_side(&mut b, rng);
        assert_eq!(
            CheckpointKey::new(app, &a, CAPTURE_WARMUP),
            CheckpointKey::new(app, &b, CAPTURE_WARMUP),
            "timing-side machines must share a key"
        );
        let (sa, sb) = (capture_stream(app, &a), capture_stream(app, &b));
        assert_eq!(sa, sb, "{app}: equal keys must capture identical streams");
    });
}

/// The necessity direction of invalidation: page-size changes (and
/// the other stream-shaping knobs, coalescing and CU count) always
/// change the key AND provably change the captured stream — the
/// invalidation is empirical fact, not assumption.
#[test]
fn stream_shaping_config_changes_key_and_stream() {
    let default_gpu = GpuConfig::default();
    let shaped: Vec<(&str, GpuConfig)> = vec![
        ("page_size=64K", GpuConfig::default().with_page_size(PageSize::Size64K)),
        ("page_size=2M", GpuConfig::default().with_page_size(PageSize::Size2M)),
        ("coalescing=off", GpuConfig::default().without_coalescing()),
        ("cus=4", {
            let mut g = GpuConfig::default();
            g.cus = 4;
            g
        }),
        ("layout=contig(0)", GpuConfig::default().with_page_layout(PageLayout::contig(0.0, 1))),
        (
            "layout=contig(0.25)",
            GpuConfig::default().with_page_layout(PageLayout::contig(0.25, 1)),
        ),
    ];
    for app in STREAM_APPS {
        let base_key = CheckpointKey::new(app, &default_gpu, CAPTURE_WARMUP);
        let base_stream = capture_stream(app, &default_gpu);
        for (what, gpu) in &shaped {
            assert_ne!(
                CheckpointKey::new(app, gpu, CAPTURE_WARMUP),
                base_key,
                "{app}: {what} must invalidate the checkpoint key"
            );
            assert_ne!(
                capture_stream(app, gpu),
                base_stream,
                "{app}: {what} keyed differently but captured the same \
                 stream — invalidation would be unnecessary"
            );
        }
    }
}

/// The allocator's fragmentation fraction AND its break-out seed are
/// both stream-shaping: any two distinct `(f, seed)` layouts key
/// differently and provably capture different translation streams — a
/// checkpoint captured under one layout can never warm a run under
/// another (the PPNs themselves differ).
#[test]
fn page_layout_fraction_and_seed_are_stream_shaping() {
    let layouts: Vec<(String, GpuConfig)> = [(0.0, 7u64), (0.25, 7), (0.25, 8), (0.5, 7)]
        .iter()
        .map(|&(f, seed)| {
            (
                format!("contig({f}, seed {seed})"),
                GpuConfig::default().with_page_layout(PageLayout::contig(f, seed)),
            )
        })
        .collect();
    for app in STREAM_APPS {
        let mut seen: Vec<(String, CheckpointKey, Vec<u8>)> = vec![(
            "scatter".to_string(),
            CheckpointKey::new(app, &GpuConfig::default(), CAPTURE_WARMUP),
            capture_stream(app, &GpuConfig::default()),
        )];
        for (what, gpu) in &layouts {
            let key = CheckpointKey::new(app, gpu, CAPTURE_WARMUP);
            let stream = capture_stream(app, gpu);
            for (prev, pkey, pstream) in &seen {
                assert_ne!(&key, pkey, "{app}: {what} must key differently from {prev}");
                assert_ne!(
                    &stream, pstream,
                    "{app}: {what} keyed differently from {prev} but captured \
                     the same stream — invalidation would be unnecessary"
                );
            }
            seen.push((what.clone(), key, stream));
        }
    }
}

/// The coalesced-TLB-entry knob is timing-side: it changes which
/// entries the TLBs *hold*, never which translations the workload
/// *requests* — so it shares warmup checkpoints (same
/// `stream_fingerprint`) while producing its own result-cache entries
/// (different `timing_fingerprint`). This is the CheckpointKey hazard
/// the contiguity sweep rests on: page layouts capture per-layout
/// checkpoints, the coalescing sweep on top of each layout reuses
/// them.
#[test]
fn coalescing_knob_is_timing_side_in_the_cell_key() {
    use gpu_translation_reach::core_arch::cell::CellKey;
    use gpu_translation_reach::core_arch::config::ReachConfig;
    for gpu in [
        GpuConfig::default(),
        GpuConfig::default().with_page_layout(PageLayout::contig(0.25, 7)),
    ] {
        let plain = CellKey::new("GUPS", &gpu, &ReachConfig::ic_plus_lds(), "exact");
        for max in [1u8, 9] {
            let co = CellKey::new(
                "GUPS",
                &gpu,
                &ReachConfig::ic_plus_lds().with_tlb_coalescing(max),
                "exact",
            );
            assert_eq!(
                co.stream_fingerprint, plain.stream_fingerprint,
                "coalescing (max {max}) must stay in the checkpoint-sharing class"
            );
            assert_ne!(
                co.fingerprint(),
                plain.fingerprint(),
                "coalescing (max {max}) must be its own result cell"
            );
        }
    }
}

/// Conservative over-invalidation is allowed (a redundant capture is
/// safe; a wrong share is not) — but the fingerprint must stay a pure
/// function of the configuration: equal configs, equal fingerprints.
#[test]
fn stream_fingerprint_is_deterministic() {
    check_cases(32, |rng| {
        let mut gpu = GpuConfig::default();
        perturb_timing_side(&mut gpu, rng);
        assert_eq!(stream_fingerprint(&gpu), stream_fingerprint(&gpu.clone()));
    });
}
