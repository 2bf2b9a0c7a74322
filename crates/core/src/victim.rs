//! The translation fill and lookup flows of Figure 12.
//!
//! After an L1-TLB miss the reconfigurable structures are probed in
//! LDS (§4.2) → I-cache (§4.3) order (LDS first: private and closer).
//! On an L1-TLB eviction the victim tries the LDS segment for its VPN;
//! if that segment is App-mode (or the LDS itself displaces a
//! translation) the candidate continues to the direct-mapped I-cache
//! line; whatever falls out of the I-cache (or bypasses it) lands in
//! the L2 TLB. The `_traced` variant additionally narrates every hop
//! through a [`TraceSink`].

use gtr_sim::trace::{TraceEvent, TraceSink, TxStructure};
use gtr_sim::Cycle;
use gtr_vm::addr::{Translation, TranslationKey};
use gtr_vm::tlb::Tlb;

use crate::config::ReachConfig;
use crate::icache_tx::TxIcache;
use crate::lds_tx::{SegmentMode, TxLds};
use crate::obs::VictimLifetimes;
use crate::tx_ways::TxInsert;

/// Which reconfigurable structure produced a victim-cache hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VictimHit {
    /// Hit in the CU's reconfigurable LDS.
    Lds(Translation),
    /// Hit in the CU group's reconfigurable I-cache.
    Icache(Translation),
}

impl VictimHit {
    /// The translation regardless of source.
    pub fn translation(&self) -> Translation {
        match *self {
            VictimHit::Lds(t) | VictimHit::Icache(t) => t,
        }
    }
}

/// Probes the reconfigurable structures for `key` (Fig 12 lookup
/// order). A hit returns a copy (the entry stays resident for the
/// other CUs) — the caller promotes it into the L1 TLB and routes the
/// displaced L1 victim through [`fill_l1_victim`].
pub fn lookup_victim(
    cfg: &ReachConfig,
    lds: &mut TxLds,
    icache: &mut TxIcache,
    key: TranslationKey,
) -> Option<VictimHit> {
    if cfg.lds_enabled {
        if let Some(t) = lds.lookup(key) {
            return Some(VictimHit::Lds(t));
        }
    }
    if cfg.icache_enabled {
        if let Some(t) = icache.lookup_tx(key) {
            return Some(VictimHit::Icache(t));
        }
    }
    None
}

/// Routes an L1-TLB victim through the Fig 12 fill flow, terminating
/// in the L2 TLB. Returns the number of structures the victim (or a
/// displaced translation) was written into.
///
/// Untraced convenience over [`fill_l1_victim_traced`] — identical
/// behaviour with tracing permanently off.
pub fn fill_l1_victim(
    cfg: &ReachConfig,
    lds: &mut TxLds,
    icache: &mut TxIcache,
    l2_tlb: &mut Tlb,
    victim: Translation,
) -> usize {
    fill_l1_victim_traced(cfg, lds, icache, l2_tlb, victim, 0, None, None)
}

/// [`fill_l1_victim`] with an optional [`TraceSink`]: every insert,
/// displacement and bypass along the ❶→❻ flow is emitted as a
/// [`TraceEvent::VictimInsert`] / [`TraceEvent::VictimBypass`], with
/// `mode_flip` marking writes that claimed new Tx capacity (an Idle
/// LDS segment or a non-Tx I-cache line switching to Tx mode).
///
/// Passing `None` compiles to the untraced flow: the pre-insert mode
/// probes that feed `mode_flip` are themselves gated on the sink, so a
/// disabled trace costs one branch per structure and nothing else.
///
/// `now` stamps the emitted events (and the lifetime records) with the
/// simulation cycle of the fill; `obs`, when present, opens/closes
/// victim-entry lifetime records in a [`VictimLifetimes`] tracker in
/// lock-step with the emitted events.
#[allow(clippy::too_many_arguments)]
pub fn fill_l1_victim_traced(
    cfg: &ReachConfig,
    lds: &mut TxLds,
    icache: &mut TxIcache,
    l2_tlb: &mut Tlb,
    victim: Translation,
    now: Cycle,
    mut sink: Option<&mut dyn TraceSink>,
    mut obs: Option<&mut VictimLifetimes>,
) -> usize {
    let mut writes = 0;
    // ❶→❷: try the LDS segment for this VPN; ❸ an App segment passes
    // the victim on, ❹ an LDS insert passes on what it displaced.
    let mut candidate = Some(victim);
    if cfg.lds_enabled {
        let flip = sink.is_some() && lds.segment_mode(victim.key) == SegmentMode::Idle;
        let outcome = lds.insert(victim);
        writes += usize::from(outcome != TxInsert::Bypassed);
        candidate = record(TxStructure::Lds, victim, outcome, flip, now, &mut sink, &mut obs);
    }
    // ❺: the surviving candidate tries its direct-mapped I-cache line;
    // ❻ what it displaces (or the bypassed candidate) falls to the L2.
    let Some(cand) = candidate else { return writes };
    let mut to_l2 = Some(cand);
    if cfg.icache_enabled {
        let flip = sink.is_some() && !icache.is_tx_line(cand.key);
        let outcome = icache.insert_tx(cand);
        writes += usize::from(outcome != TxInsert::Bypassed);
        to_l2 = record(TxStructure::Icache, cand, outcome, flip, now, &mut sink, &mut obs);
    }
    // ❻: terminate in the L2 TLB (its own victim is simply dropped —
    // there is nothing below it but the page tables).
    if let Some(t) = to_l2 {
        let displaced = l2_tlb.insert(t);
        writes += 1;
        if let Some(s) = sink {
            s.emit(&TraceEvent::VictimInsert {
                cycle: now,
                structure: TxStructure::L2Tlb,
                vpn: t.key.vpn.0,
                vmid: t.key.vmid.raw(),
                evicted_vpn: displaced.map(|e| e.key.vpn.0),
                evicted_vmid: displaced.map(|e| e.key.vmid.raw()),
                mode_flip: false,
            });
        }
    }
    writes
}

/// Narrates one victim store's insert `outcome` for `tx` to the trace
/// sink and the lifetime tracker; returns the translation that
/// continues down the fill flow: the displaced victim, or `tx` itself
/// when the store bypassed it.
fn record(
    structure: TxStructure,
    tx: Translation,
    outcome: TxInsert,
    mode_flip: bool,
    now: Cycle,
    sink: &mut Option<&mut dyn TraceSink>,
    obs: &mut Option<&mut VictimLifetimes>,
) -> Option<Translation> {
    let (vpn, vmid) = (tx.key.vpn.0, tx.key.vmid.raw());
    match outcome {
        TxInsert::Inserted { evicted } => {
            if let Some(s) = sink.as_deref_mut() {
                s.emit(&TraceEvent::VictimInsert {
                    cycle: now,
                    structure,
                    vpn,
                    vmid,
                    evicted_vpn: evicted.map(|e| e.key.vpn.0),
                    evicted_vmid: evicted.map(|e| e.key.vmid.raw()),
                    mode_flip,
                });
            }
            if let Some(o) = obs.as_deref_mut() {
                o.insert(structure, vpn, vmid, evicted.map(|e| (e.key.vpn.0, e.key.vmid.raw())), now);
            }
            evicted
        }
        TxInsert::Bypassed => {
            if let Some(s) = sink.as_deref_mut() {
                s.emit(&TraceEvent::VictimBypass { cycle: now, structure, vpn, vmid });
            }
            Some(tx)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Replacement, SegmentSize, TxPerLine};
    use gtr_vm::addr::{Ppn, Vpn};
    use gtr_vm::tlb::TlbConfig;

    fn parts() -> (TxLds, TxIcache, Tlb) {
        (
            TxLds::new(16 * 1024, SegmentSize::Bytes32),
            TxIcache::new(16 * 1024, 8, TxPerLine::Eight, Replacement::InstructionAware),
            Tlb::new(TlbConfig::set_associative(512, 16, 188)),
        )
    }

    fn tx(v: u64) -> Translation {
        Translation::new(TranslationKey::for_vpn(Vpn(v)), Ppn(v + 1))
    }

    #[test]
    fn victim_lands_in_lds_first() {
        let cfg = ReachConfig::ic_plus_lds();
        let (mut lds, mut ic, mut l2) = parts();
        fill_l1_victim(&cfg, &mut lds, &mut ic, &mut l2, tx(42));
        assert_eq!(lds.resident(), 1);
        assert_eq!(ic.resident_tx(), 0);
        assert!(l2.lookup(tx(42).key).is_none());
    }

    #[test]
    fn app_mode_segment_routes_to_icache() {
        let cfg = ReachConfig::ic_plus_lds();
        let (mut lds, mut ic, mut l2) = parts();
        lds.on_app_allocate(0, 16 * 1024); // whole LDS app-owned
        fill_l1_victim(&cfg, &mut lds, &mut ic, &mut l2, tx(42));
        assert_eq!(lds.resident(), 0);
        assert_eq!(ic.resident_tx(), 1);
    }

    #[test]
    fn ic_mode_line_routes_to_l2_tlb() {
        let cfg = ReachConfig::ic_plus_lds();
        let (mut lds, mut ic, mut l2) = parts();
        lds.on_app_allocate(0, 16 * 1024);
        // Fill the whole I-cache with instructions so every line is IC-mode.
        for set in 0..32u64 {
            for way in 0..8u64 {
                ic.fetch(set + way * 32);
            }
        }
        fill_l1_victim(&cfg, &mut lds, &mut ic, &mut l2, tx(42));
        assert_eq!(ic.resident_tx(), 0);
        assert!(l2.lookup(tx(42).key).is_some());
    }

    #[test]
    fn lds_eviction_cascades_into_icache() {
        let cfg = ReachConfig::ic_plus_lds();
        let (mut lds, mut ic, mut l2) = parts();
        let n = lds.segment_count() as u64;
        // Fill one LDS segment's 3 ways, then a 4th to the same segment.
        for i in 0..3 {
            fill_l1_victim(&cfg, &mut lds, &mut ic, &mut l2, tx(9 + i * n));
        }
        fill_l1_victim(&cfg, &mut lds, &mut ic, &mut l2, tx(9 + 3 * n));
        assert_eq!(lds.resident(), 3);
        assert_eq!(ic.resident_tx(), 1, "LDS LRU victim moved into the I-cache");
        assert_eq!(ic.iter_tx().next().unwrap().key.vpn, Vpn(9));
    }

    #[test]
    fn lds_only_terminates_in_l2() {
        let cfg = ReachConfig::lds_only();
        let (mut lds, mut ic, mut l2) = parts();
        lds.on_app_allocate(0, 16 * 1024);
        fill_l1_victim(&cfg, &mut lds, &mut ic, &mut l2, tx(7));
        assert_eq!(ic.resident_tx(), 0, "I-cache disabled");
        assert!(l2.lookup(tx(7).key).is_some());
    }

    #[test]
    fn baseline_goes_straight_to_l2() {
        let cfg = ReachConfig::baseline();
        let (mut lds, mut ic, mut l2) = parts();
        let writes = fill_l1_victim(&cfg, &mut lds, &mut ic, &mut l2, tx(5));
        assert_eq!(writes, 1);
        assert_eq!(lds.resident(), 0);
        assert_eq!(ic.resident_tx(), 0);
        assert!(l2.lookup(tx(5).key).is_some());
    }

    #[test]
    fn lookup_order_lds_then_icache() {
        let cfg = ReachConfig::ic_plus_lds();
        let (mut lds, mut ic, _l2) = parts();
        let t = tx(3);
        ic.insert_tx(t);
        // Only in the I-cache: the LDS misses first, then the IC hits.
        match lookup_victim(&cfg, &mut lds, &mut ic, t.key) {
            Some(VictimHit::Icache(found)) => assert_eq!(found, t),
            other => panic!("expected I-cache hit: {other:?}"),
        }
        // Present in both: the (private, closer) LDS answers first.
        lds.insert(t);
        match lookup_victim(&cfg, &mut lds, &mut ic, t.key) {
            Some(VictimHit::Lds(found)) => assert_eq!(found, t),
            other => panic!("expected LDS hit first: {other:?}"),
        }
    }

    #[test]
    fn disabled_structures_never_hit() {
        let cfg = ReachConfig::baseline();
        let (mut lds, mut ic, _l2) = parts();
        lds.insert(tx(1));
        ic.insert_tx(tx(1));
        assert!(lookup_victim(&cfg, &mut lds, &mut ic, tx(1).key).is_none());
    }
}
