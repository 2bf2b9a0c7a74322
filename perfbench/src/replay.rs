//! Per-layer host cost by replay.
//!
//! The layers inside `System::run` cannot be timed from outside
//! without perturbing the simulation, so the traced run records each
//! cell's own event stream (through `System::with_trace`) and then
//! replays each layer's op stream through that layer's public
//! functions, timing every call:
//!
//! * `Tlb::lookup/insert/invalidate` — the per-CU L1 TLBs and the L2;
//! * `TxLds::lookup/insert` — the per-CU reconfigurable LDS;
//! * `TxIcache::lookup_tx/insert_tx` — the shared reconfigurable
//!   I-caches;
//! * `Iommu::translate_functional` — device TLBs, walk caches, walker;
//! * `CoalescedAccess::assign_from_lanes` — from the app trace itself.
//!
//! The op stream follows the Fig-12 order the simulator uses: every
//! translation probes its L1; a request that missed past level *k*
//! probes level *k+1*; walks fill the L2 and every non-L1 resolution
//! fills the L1, whose victim cascade (the `VictimInsert` events that
//! precede the translation in the stream) is replayed after it. The
//! replayed structures evolve like the simulated ones, so per-op costs
//! are measured on realistic occupancy; host ns/op × ops/cell gives
//! each layer's share of a cell.

use std::cell::RefCell;
use std::rc::Rc;

use gtr_core::config::ReachConfig;
use gtr_core::icache_tx::TxIcache;
use gtr_core::lds_tx::TxLds;
use gtr_gpu::config::GpuConfig;
use gtr_gpu::kernel::AppTrace;
use gtr_gpu::ops::Op;
use gtr_sim::trace::{TraceEvent, TracePath, TraceSink, TxStructure};
use gtr_vm::addr::{Translation, TranslationKey, VirtAddr, VmId, Vpn, VrfId};
use gtr_vm::coalescer::CoalescedAccess;
use gtr_vm::iommu::Iommu;
use gtr_vm::page_table::PageTable;
use gtr_vm::tlb::Tlb;

use crate::host::ticks;

/// One captured event, compacted to what the replays need.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Ev {
    /// A translation resolved at `path` (Fig-12 order, 0 = L1 hit).
    Tx {
        cu: u16,
        path: u8,
        vmid: u8,
        vpn: u64,
    },
    /// A victim written into `structure` by the fill flow.
    Victim {
        structure: TxStructure,
        vmid: u8,
        vpn: u64,
    },
    /// An LDS range changed owner (application allocate / release).
    LdsMode {
        cu: u16,
        base: u32,
        size: u32,
        to_app: bool,
    },
    /// A kernel launch began.
    KernelBegin,
    /// A kernel-boundary instruction flush of one I-cache.
    KernelFlush { icache: u32 },
    /// A driver shootdown of one page.
    Shootdown { vmid: u8, vpn: u64 },
}

/// A [`TraceSink`] that keeps a compact copy of the event stream the
/// cell's `System` emits; the shared buffer stays readable after the
/// system (which owns the sink) is done.
#[derive(Debug, Clone, Default)]
pub struct CaptureSink(pub Rc<RefCell<Vec<Ev>>>);

impl TraceSink for CaptureSink {
    fn emit(&mut self, event: &TraceEvent) {
        let ev = match *event {
            TraceEvent::Translation {
                cu,
                vpn,
                vmid,
                path,
                ..
            } => {
                let path = TracePath::ALL.iter().position(|&p| p == path).unwrap_or(0) as u8;
                Ev::Tx {
                    cu: cu as u16,
                    path,
                    vmid,
                    vpn,
                }
            }
            TraceEvent::VictimInsert {
                structure,
                vpn,
                vmid,
                ..
            } => Ev::Victim {
                structure,
                vmid,
                vpn,
            },
            TraceEvent::LdsMode {
                cu,
                base,
                size,
                to_app,
            } => Ev::LdsMode {
                cu: cu as u16,
                base,
                size,
                to_app,
            },
            TraceEvent::KernelBegin { .. } => Ev::KernelBegin,
            TraceEvent::KernelFlush { icache, .. } => Ev::KernelFlush { icache },
            TraceEvent::Shootdown { vpn, vmid, .. } => Ev::Shootdown { vmid, vpn },
            TraceEvent::VictimBypass { .. } | TraceEvent::KernelEnd { .. } => return,
        };
        self.0.borrow_mut().push(ev);
    }
}

/// Calls and summed timer ticks of one replayed operation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpCost {
    /// Calls replayed.
    pub n: u64,
    /// Timer ticks inside those calls.
    pub ticks: u64,
}

impl OpCost {
    fn add(&mut self, o: OpCost) {
        self.n += o.n;
        self.ticks += o.ticks;
    }
}

macro_rules! timed {
    ($cost:expr, $e:expr) => {{
        let t0 = ticks();
        let r = $e;
        $cost.ticks += ticks() - t0;
        $cost.n += 1;
        r
    }};
}

/// Replayed per-layer costs of one or more cells.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerCosts {
    /// L1 + L2 TLB lookups.
    pub tlb_lookup: OpCost,
    /// L1 + L2 TLB inserts.
    pub tlb_insert: OpCost,
    /// L1 + L2 TLB shootdown invalidations.
    pub tlb_invalidate: OpCost,
    /// Reconfigurable-LDS lookups (mode check included).
    pub lds_lookup: OpCost,
    /// Reconfigurable-LDS victim inserts.
    pub lds_insert: OpCost,
    /// Reconfigurable-I-cache lookups (mode check included).
    pub ic_lookup: OpCost,
    /// Reconfigurable-I-cache victim inserts.
    pub ic_insert: OpCost,
    /// IOMMU functional translations (one per simulated walk request).
    pub iommu_walk: OpCost,
    /// Driver shootdowns in the stream.
    pub shootdowns: u64,
}

impl LayerCosts {
    /// Adds another cell's costs.
    pub fn merge(&mut self, o: &LayerCosts) {
        self.tlb_lookup.add(o.tlb_lookup);
        self.tlb_insert.add(o.tlb_insert);
        self.tlb_invalidate.add(o.tlb_invalidate);
        self.lds_lookup.add(o.lds_lookup);
        self.lds_insert.add(o.lds_insert);
        self.ic_lookup.add(o.ic_lookup);
        self.ic_insert.add(o.ic_insert);
        self.iommu_walk.add(o.iommu_walk);
        self.shootdowns += o.shootdowns;
    }
}

/// The replayed hierarchy of one cell, built like the simulator's.
struct Replay<'a> {
    gpu: &'a GpuConfig,
    reach: &'a ReachConfig,
    l1: Vec<Tlb>,
    l2: Tlb,
    lds: Vec<TxLds>,
    ics: Vec<TxIcache>,
    iommu: Iommu,
    tables: Vec<PageTable>,
    costs: LayerCosts,
}

impl<'a> Replay<'a> {
    fn new(gpu: &'a GpuConfig, reach: &'a ReachConfig) -> Self {
        let shift = if reach.lds_home_hashing {
            (gpu.cus as u32).trailing_zeros()
        } else {
            0
        };
        let mut l1: Vec<Tlb> = (0..gpu.cus).map(|_| Tlb::new(gpu.l1_tlb)).collect();
        let mut l2 = Tlb::new(gpu.l2_tlb);
        let mut lds: Vec<TxLds> = (0..gpu.cus)
            .map(|_| TxLds::new(gpu.lds_bytes, reach.segment_size).with_index_shift(shift))
            .collect();
        let mut ics: Vec<TxIcache> = (0..gpu.icache_count())
            .map(|_| {
                TxIcache::new(
                    gpu.icache_bytes,
                    gpu.icache_assoc,
                    reach.tx_per_line,
                    reach.replacement,
                )
            })
            .collect();
        if let Some(t) = reach.tenancy {
            l1.iter_mut().for_each(|x| x.set_tenancy(Some(t)));
            l2.set_tenancy(Some(t));
            lds.iter_mut().for_each(|x| x.set_tenancy(t));
            ics.iter_mut().for_each(|x| x.set_tenancy(t));
        }
        if let Some(max) = reach.tlb_coalescing {
            l1.iter_mut().for_each(|x| x.set_coalescing(Some(max)));
            l2.set_coalescing(Some(max));
            lds.iter_mut().for_each(|x| x.set_coalescing(Some(max)));
            ics.iter_mut().for_each(|x| x.set_coalescing(Some(max)));
        }
        let tables = (0..8)
            .map(|i| {
                PageTable::with_ids(gpu.page_size, VmId::new(i), VrfId::default())
                    .with_layout(gpu.page_layout)
            })
            .collect();
        Self {
            gpu,
            reach,
            l1,
            l2,
            lds,
            ics,
            iommu: Iommu::new(gpu.iommu),
            tables,
            costs: LayerCosts::default(),
        }
    }

    fn key(vmid: u8, vpn: u64) -> TranslationKey {
        TranslationKey {
            vpn: Vpn(vpn),
            vmid: VmId::new(vmid),
            vrf: VrfId::default(),
        }
    }

    /// The translation the simulator would install for `key`: the
    /// demand-mapped frame, widened to its contiguous span when
    /// coalesced entries are on.
    fn translation(&mut self, key: TranslationKey) -> Translation {
        let table = &mut self.tables[key.vmid.raw() as usize];
        let ppn = table
            .translate(key.vpn)
            .unwrap_or_else(|| table.map_vpn(key.vpn).ppn);
        match self.reach.tlb_coalescing {
            Some(max) if max > 0 => match table.contiguity_span(key.vpn, max) {
                0 => Translation::new(key, ppn),
                span => Translation::with_span(key, ppn, span),
            },
            _ => Translation::new(key, ppn),
        }
    }

    fn lds_home(&self, vpn: u64, cu: usize) -> usize {
        if self.reach.lds_home_hashing {
            vpn as usize % self.gpu.cus
        } else {
            cu
        }
    }

    fn translate(&mut self, cu: usize, path: u8, key: TranslationKey, victims: &[Ev]) {
        let home = self.lds_home(key.vpn.0, cu);
        let c = &mut self.costs;
        timed!(c.tlb_lookup, self.l1[cu].lookup(key));
        if path < 2 {
            return; // L1 hit, or merged into an in-flight miss
        }
        let ic = cu / self.gpu.cus_per_icache;
        if self.reach.lds_enabled {
            let lds = &mut self.lds[home];
            timed!(
                c.lds_lookup,
                if lds.may_hold(key) {
                    lds.lookup(key)
                } else {
                    None
                }
            );
        }
        if path >= 3 && self.reach.icache_enabled {
            let icache = &mut self.ics[ic];
            timed!(
                c.ic_lookup,
                if icache.may_hold_tx(key) {
                    icache.lookup_tx(key)
                } else {
                    None
                }
            );
        }
        if path >= 4 {
            timed!(c.tlb_lookup, self.l2.lookup(key));
        }
        let tx = self.translation(key);
        let c = &mut self.costs;
        if path == 5 {
            let table = &self.tables[key.vmid.raw() as usize];
            timed!(c.iommu_walk, self.iommu.translate_functional(key, table));
            timed!(c.tlb_insert, self.l2.insert(tx));
        }
        timed!(c.tlb_insert, self.l1[cu].insert(tx));
        for &v in victims {
            let Ev::Victim {
                structure,
                vmid,
                vpn,
            } = v
            else {
                continue;
            };
            let tx = self.translation(Self::key(vmid, vpn));
            let home = self.lds_home(vpn, cu);
            let c = &mut self.costs;
            match structure {
                TxStructure::Lds => {
                    timed!(c.lds_insert, self.lds[home].insert(tx));
                }
                TxStructure::Icache => {
                    timed!(c.ic_insert, self.ics[ic].insert_tx(tx));
                }
                TxStructure::L2Tlb => {
                    timed!(c.tlb_insert, self.l2.insert(tx));
                }
            }
        }
    }

    fn shootdown(&mut self, key: TranslationKey) {
        let table = &mut self.tables[key.vmid.raw() as usize];
        if table.translate(key.vpn).is_none() {
            return;
        }
        table.migrate(key.vpn);
        let c = &mut self.costs;
        c.shootdowns += 1;
        for l1 in &mut self.l1 {
            timed!(c.tlb_invalidate, l1.invalidate(key));
        }
        timed!(c.tlb_invalidate, self.l2.invalidate(key));
        for lds in &mut self.lds {
            lds.shootdown(key);
        }
        for ic in &mut self.ics {
            ic.shootdown(key);
        }
        self.iommu.invalidate(key);
    }
}

/// Replays one cell's captured event stream through fresh structures
/// configured like the cell's machine.
pub fn replay_cell(gpu: &GpuConfig, reach: &ReachConfig, events: &[Ev]) -> LayerCosts {
    let mut r = Replay::new(gpu, reach);
    let mut victims_from = 0;
    for (i, &ev) in events.iter().enumerate() {
        match ev {
            Ev::Tx {
                cu,
                path,
                vmid,
                vpn,
            } => {
                r.translate(
                    cu as usize,
                    path,
                    Replay::key(vmid, vpn),
                    &events[victims_from..i],
                );
                victims_from = i + 1;
            }
            // Applied with the translation whose fill flow wrote it.
            Ev::Victim { .. } => {}
            Ev::LdsMode {
                cu,
                base,
                size,
                to_app,
            } => {
                let lds = &mut r.lds[cu as usize];
                if to_app {
                    lds.on_app_allocate(base, size);
                } else {
                    lds.on_app_release(base, size);
                }
            }
            Ev::KernelBegin => r.ics.iter_mut().for_each(TxIcache::begin_kernel),
            Ev::KernelFlush { icache } => {
                r.ics[icache as usize].flush_instructions();
            }
            Ev::Shootdown { vmid, vpn } => r.shootdown(Replay::key(vmid, vpn)),
        }
    }
    r.costs
}

/// Coalescer cost over one app trace: every global memory op's lanes
/// through `CoalescedAccess::assign_from_lanes`. Returns the cost and
/// the pages the ops coalesced to.
pub fn replay_coalescer(app: &AppTrace, gpu: &GpuConfig) -> (OpCost, u64) {
    let mut cost = OpCost::default();
    let mut pages = 0u64;
    let mut access = CoalescedAccess::default();
    let mut lanes: Vec<VirtAddr> = Vec::with_capacity(64);
    for kernel in app.kernels() {
        for wave in kernel.workgroups().iter().flat_map(|wg| wg.waves()) {
            for op in wave.ops() {
                if let Op::Global { pattern, .. } = op {
                    pattern.expand(&mut lanes);
                    timed!(cost, access.assign_from_lanes(&lanes, gpu.page_size));
                    pages += access.pages.len() as u64;
                }
            }
        }
    }
    (cost, pages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtr_core::system::System;
    use gtr_workloads::scale::Scale;
    use gtr_workloads::suite;

    fn capture(app: &AppTrace, reach: ReachConfig) -> (gtr_core::stats::RunStats, Vec<Ev>) {
        let sink = CaptureSink::default();
        let stats = System::new(GpuConfig::default(), reach)
            .with_trace(Box::new(sink.clone()))
            .run(app);
        let events = sink.0.borrow().clone();
        (stats, events)
    }

    #[test]
    fn replayed_op_counts_follow_the_simulated_counters() {
        let app = suite::by_name("GUPS", Scale::tiny()).expect("known app");
        let reach = ReachConfig::ic_plus_lds();
        let (stats, events) = capture(&app, reach);
        let txs = events.iter().filter(|e| matches!(e, Ev::Tx { .. })).count() as u64;
        assert_eq!(txs, stats.translation_requests, "one event per request");
        let c = replay_cell(&GpuConfig::default(), &reach, &events);
        // Lookups: one L1 probe per request, plus one L2 probe per
        // request that reached it.
        let l2_reached = stats.attribution.slots[4].count + stats.attribution.slots[5].count;
        assert_eq!(c.tlb_lookup.n, stats.translation_requests + l2_reached);
        assert_eq!(c.iommu_walk.n, stats.attribution.slots[5].count);
        let victims = |s: TxStructure| {
            events
                .iter()
                .filter(|e| matches!(e, Ev::Victim { structure, .. } if *structure == s))
                .count() as u64
        };
        assert_eq!(c.lds_insert.n, victims(TxStructure::Lds));
        assert_eq!(c.ic_insert.n, victims(TxStructure::Icache));
        assert!(c.lds_lookup.n > 0 && c.ic_lookup.n > 0);
        assert!(c.lds_lookup.n <= stats.lds_tx.hits + stats.lds_tx.misses + stats.l1_tlb.misses);
    }

    #[test]
    fn baseline_replay_touches_no_victim_structure() {
        let app = suite::by_name("ATAX", Scale::tiny()).expect("known app");
        let (_, events) = capture(&app, ReachConfig::baseline());
        let c = replay_cell(&GpuConfig::default(), &ReachConfig::baseline(), &events);
        assert_eq!(
            (c.lds_lookup.n, c.lds_insert.n, c.ic_lookup.n, c.ic_insert.n),
            (0, 0, 0, 0)
        );
        assert!(c.iommu_walk.n > 0);
    }

    #[test]
    fn coalescer_replay_sees_every_global_op() {
        let app = suite::by_name("ATAX", Scale::tiny()).expect("known app");
        let (cost, pages) = replay_coalescer(&app, &GpuConfig::default());
        assert!(
            cost.n > 0 && pages >= cost.n,
            "every access touches at least one page"
        );
    }
}
