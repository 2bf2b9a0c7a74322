//! Invariant battery for coalesced (variable-reach) TLB entries: a
//! covering entry answers exactly like the 4 KB entries it replaces,
//! never spans a permission or VM boundary, and splits correctly when
//! a single covered page is shot down — at the structure level and
//! end to end through the runtime shootdown-storm scenario.

use gpu_translation_reach::core_arch::config::ReachConfig;
use gpu_translation_reach::core_arch::driver::{DriverSchedule, MigrationEvent};
use gpu_translation_reach::core_arch::system::System;
use gpu_translation_reach::gpu::config::GpuConfig;
use gpu_translation_reach::vm::addr::{PageSize, Translation, TranslationKey, VmId, Vpn, VrfId};
use gpu_translation_reach::vm::alloc::{PageLayout, REGION_PAGES_LOG2};
use gpu_translation_reach::vm::page_table::PageTable;
use gpu_translation_reach::vm::tlb::{Tlb, TlbConfig};
use gpu_translation_reach::workloads::{scale::Scale, suite};

/// The figure family's frozen allocator seed (`figures.rs`).
const FRAG_SEED: u64 = 0xC0A1_E5CE;

const MAX_SPAN: u8 = REGION_PAGES_LOG2 as u8;

fn coalescing_tlb(max: u8) -> Tlb {
    let mut tlb = Tlb::new(TlbConfig::fully_associative(4096, 1));
    tlb.set_coalescing(Some(max));
    tlb
}

fn contig_table(f: f64) -> PageTable {
    PageTable::new(PageSize::Size4K).with_layout(PageLayout::contig(f, FRAG_SEED))
}

/// Inserts the page table's coalesced view of `vpns` into `tlb`: one
/// base-normalized covering entry per maximal aligned block, exactly
/// as the system's walk path synthesizes them (`attach_span`).
fn insert_coalesced(tlb: &mut Tlb, pt: &PageTable, vpns: impl Iterator<Item = u64>) {
    for v in vpns {
        let vpn = Vpn(v);
        let span = pt.contiguity_span(vpn, MAX_SPAN);
        let base = Vpn(v & !((1u64 << span) - 1));
        let tx = Translation::with_span(
            TranslationKey::for_vpn(base),
            pt.translate(base).expect("mapped"),
            span,
        );
        tlb.insert(tx);
    }
}

/// Equivalence: for every page of a (partially fragmented) region, a
/// coalescing TLB loaded with covering entries reports exactly the
/// frame that a plain TLB loaded with per-page 4 KB entries reports.
#[test]
fn covering_probe_equals_4kb_probe_for_every_covered_page() {
    let region_pages = 1u64 << REGION_PAGES_LOG2;
    for f in [0.0, 0.1, 0.4] {
        let mut pt = contig_table(f);
        let base = 7 * region_pages;
        for v in 0..region_pages {
            pt.map_vpn(Vpn(base + v));
        }
        let mut coalesced = coalescing_tlb(MAX_SPAN);
        insert_coalesced(&mut coalesced, &pt, (base..base + region_pages).rev());
        let mut plain = Tlb::new(TlbConfig::fully_associative(4096, 1));
        for v in base..base + region_pages {
            let vpn = Vpn(v);
            plain.insert(Translation::new(
                TranslationKey::for_vpn(vpn),
                pt.translate(vpn).expect("mapped"),
            ));
        }
        for v in base..base + region_pages {
            let key = TranslationKey::for_vpn(Vpn(v));
            let via_covering = coalesced
                .lookup(key)
                .unwrap_or_else(|| panic!("f={f}: covered page {v:#x} must be resident"));
            assert!(via_covering.covers(Vpn(v)));
            assert_eq!(
                via_covering.ppn_for(Vpn(v)),
                plain.lookup(key).expect("resident").ppn_for(Vpn(v)),
                "f={f}: covering entry disagrees with 4 KB entry at {v:#x}"
            );
        }
        if f == 0.0 {
            assert_eq!(coalesced.len(), 1, "f=0: one entry maps the whole region");
            assert_eq!(plain.len(), region_pages as usize);
            let co = coalesced.coalescing_counters();
            assert!(co.coalesced > 0);
            assert_eq!(
                co.hits,
                region_pages - 1,
                "f=0: every page but the base hits through the covering entry"
            );
        }
    }
}

/// A span never crosses a permission boundary: `contiguity_span` stops
/// at pages whose protection bits differ, so a protection change in
/// the middle of a physically contiguous region caps every page's span
/// at the boundary — on both sides.
#[test]
fn spans_never_cross_permission_boundaries() {
    let region_pages = 1u64 << REGION_PAGES_LOG2;
    let mut pt = contig_table(0.0);
    for v in 0..region_pages {
        pt.map_vpn(Vpn(v));
    }
    // Make the upper half of the region read-only.
    for v in region_pages / 2..region_pages {
        pt.set_prot(Vpn(v), 1);
    }
    for v in 0..region_pages {
        let span = pt.contiguity_span(Vpn(v), MAX_SPAN);
        assert!(span < MAX_SPAN, "prot fence must cap the region-wide span");
        let base = v & !((1u64 << span) - 1);
        let prot = pt.prot(Vpn(v));
        for o in 0..(1u64 << span) {
            assert_eq!(
                pt.prot(Vpn(base + o)),
                prot,
                "span at {v:#x} covers a page with different protection"
            );
        }
    }
    // Exactly at the boundary the halves coalesce maximally among
    // themselves: page 0 and the first read-only page each get half.
    assert_eq!(pt.contiguity_span(Vpn(0), MAX_SPAN), MAX_SPAN - 1);
    assert_eq!(pt.contiguity_span(Vpn(region_pages / 2), MAX_SPAN), MAX_SPAN - 1);
}

/// A covering entry never answers for another VM: the VM id is part of
/// the probed key at every span level, so tenant B misses on a run
/// tenant A coalesced — per-table spans can never leak across vmids.
#[test]
fn covering_entries_are_vmid_local() {
    let region_pages = 1u64 << REGION_PAGES_LOG2;
    let mut pt = PageTable::with_ids(PageSize::Size4K, VmId::new(1), VrfId::new(0))
        .with_layout(PageLayout::contig(0.0, FRAG_SEED));
    for v in 0..region_pages {
        pt.map_vpn(Vpn(v));
    }
    let mut tlb = coalescing_tlb(MAX_SPAN);
    let base_key = pt.key_for(Vpn(0).base(PageSize::Size4K), VmId::new(1), VrfId::new(0));
    tlb.insert(Translation::with_span(
        base_key,
        pt.translate(Vpn(0)).expect("mapped"),
        MAX_SPAN,
    ));
    for v in [0u64, 1, region_pages / 2, region_pages - 1] {
        let own = TranslationKey { vpn: Vpn(v), ..base_key };
        assert!(tlb.lookup(own).is_some(), "owner must hit its own run");
        let foreign = TranslationKey { vpn: Vpn(v), vmid: VmId::new(2), ..base_key };
        assert!(
            tlb.lookup(foreign).is_none(),
            "vmid 2 must not hit vmid 1's covering entry at {v:#x}"
        );
    }
}

/// Single-page shootdown splits a covering entry correctly: the shot
/// page misses afterwards, every *other* covered page still hits with
/// its exact frame, and no surviving entry covers the shot page.
#[test]
fn single_page_shootdown_splits_covering_entries() {
    let region_pages = 1u64 << REGION_PAGES_LOG2;
    let mut pt = contig_table(0.0);
    for v in 0..region_pages {
        pt.map_vpn(Vpn(v));
    }
    // Shoot a few representative pages: run interior, block edges,
    // the base page itself, and the last page.
    for victim in [0u64, 1, 137, region_pages / 2, region_pages - 1] {
        let mut tlb = coalescing_tlb(MAX_SPAN);
        insert_coalesced(&mut tlb, &pt, std::iter::once(0));
        assert_eq!(tlb.len(), 1);
        let vkey = TranslationKey::for_vpn(Vpn(victim));
        assert!(tlb.invalidate(vkey), "covered page must be invalidatable");
        assert!(tlb.lookup(vkey).is_none(), "no stale translation for {victim:#x}");
        let mut covered = 0u64;
        for v in 0..region_pages {
            let vpn = Vpn(v);
            match tlb.lookup(TranslationKey::for_vpn(vpn)) {
                Some(tx) => {
                    assert_ne!(v, victim, "stale translation survives the shootdown");
                    assert!(tx.covers(vpn));
                    assert_eq!(
                        tx.ppn_for(vpn),
                        pt.translate(vpn).expect("mapped"),
                        "fragment at {v:#x} reports the wrong frame"
                    );
                    covered += 1;
                }
                None => assert_eq!(v, victim, "page {v:#x} lost by the split"),
            }
        }
        assert_eq!(covered, region_pages - 1, "split must preserve all other pages");
        // Buddy decomposition: one fragment per span level.
        assert_eq!(tlb.len(), MAX_SPAN as usize, "victim {victim:#x}");
        let co = tlb.coalescing_counters();
        assert_eq!(co.splits, 1, "one covering entry was split");
        assert_eq!(co.inserts, 1, "fragment reinserts must not count as inserts");
        // No surviving entry's span reaches the victim.
        for tx in tlb.iter() {
            assert!(!tx.covers(Vpn(victim)), "{tx:?} still covers the shot page");
        }
    }
}

/// The runtime shootdown-storm scenario of `shootdown_runtime.rs`,
/// re-run with the contiguity-aware allocator and coalesced entries
/// in every structure: migrations must leave no stale translation
/// anywhere (the system's own coherence audit), splits must show up
/// in the exported stats, and the whole run stays deterministic.
#[test]
fn shootdown_storm_with_coalescing_is_coherent_and_deterministic() {
    let atax_first_vpn = 0x1_0000_0000u64 / 4096;
    let app = suite::by_name("ATAX", Scale::tiny()).unwrap();
    let gpu =
        GpuConfig::default().with_page_layout(PageLayout::contig(0.0, FRAG_SEED));
    let reach = ReachConfig::ic_plus_lds().with_tlb_coalescing(MAX_SPAN);
    let run = || {
        let schedule = DriverSchedule::new()
            .migrate(MigrationEvent::new(5_000, atax_first_vpn..atax_first_vpn + 64))
            .migrate(MigrationEvent::new(20_000, atax_first_vpn..atax_first_vpn + 64));
        let mut sys =
            System::new(gpu.clone(), reach).with_driver_schedule(schedule);
        let stats = sys.run(&app);
        let checked = sys.check_translation_coherence();
        (stats, checked)
    };
    let (stats, checked) = run();
    assert!(checked > 1000, "expected warm structures, checked {checked}");
    let co = stats.coalescing.as_ref().expect("coalescing stats exported");
    assert!(co.entries_coalesced > 0, "contiguous layout must coalesce");
    assert!(co.reach_multiplier() > 1.0);
    assert!(
        co.shootdown_splits > 0,
        "migrating covered pages must split covering entries: {co:?}"
    );
    let (stats2, checked2) = run();
    assert_eq!(stats.total_cycles, stats2.total_cycles);
    assert_eq!(stats.page_walks, stats2.page_walks);
    assert_eq!(stats.coalescing, stats2.coalescing);
    assert_eq!(checked, checked2);
}
