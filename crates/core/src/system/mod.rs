//! The full GPU system simulator.
//!
//! Executes an [`AppTrace`] on the Table-1 machine with the
//! reconfigurable translation-reach architecture switched on or off,
//! producing the [`RunStats`] behind every figure of the paper.
//!
//! ## Timing model
//!
//! Resource-reservation discrete-event simulation: wavefronts advance
//! through their op streams, and each component (SIMD issue pipelines,
//! LDS/I-cache ports, TLB ports, IOMMU walkers, DRAM banks) answers
//! "when is this request done?" while recording its own occupancy.
//! Functional state (cache/TLB contents) updates in event order, which
//! — together with seeded workload generation — makes runs bit-for-bit
//! reproducible.
//!
//! ## Translation path (the paper's Fig 12)
//!
//! ```text
//! coalesced VPN -> L1 TLB (108cy)
//!     miss -> reconfigurable LDS  (35+1+4 cy, private per CU)
//!     miss -> reconfigurable IC   (20+16+1+4 cy, shared per 4 CUs)
//!     miss -> L2 TLB (188cy, GPU-shared)
//!     miss -> [side cache, e.g. DUCATI]
//!     miss -> IOMMU (device TLBs, PWCs, 32 walkers, DRAM PTE reads)
//! ```
//!
//! A victim-structure or L2 hit promotes the entry to the L1 TLB; the
//! displaced L1 victim re-enters the Fig-12 fill flow.
//!
//! ## Module layout
//!
//! The system is split along the parallelism boundary (ARCHITECTURE
//! §8): [`cu`] holds state private to one compute unit (free for a CU
//! shard to mutate), [`shared`] holds the GPU-shared hierarchy every
//! shard's requests must reach in deterministic merge order, and this
//! module owns the run loop and the Fig-12 translate path that stitch
//! the two together.

mod cu;
mod shared;

pub use shared::TranslationSideCache;

use std::collections::HashMap;

use gtr_gpu::config::GpuConfig;
use gtr_gpu::dispatch::Dispatcher;
use gtr_gpu::kernel::{AppTrace, KernelDesc, INSTS_PER_LINE};
use gtr_gpu::lds::LdsAllocator;
use gtr_gpu::ops::Op;
use gtr_sim::divisor::Divisor;
use gtr_sim::event::EventQueue;
use gtr_sim::fastmap::FastMap;
use gtr_sim::hist::CycleAttribution;
use gtr_sim::stats::Sampler;
use gtr_sim::trace::{NullSink, TraceEvent, TracePath, TraceSink, TxStructure};
use gtr_sim::Cycle;
use gtr_vm::addr::{Ppn, Translation, TranslationKey, VirtAddr, Vpn};
use gtr_vm::coalescer::CoalescedAccess;
use gtr_vm::page_table::PageTable;
use gtr_vm::tlb::Tlb;

use crate::checkpoint::CheckpointEntry;
use crate::config::{ReachConfig, SamplingConfig};
use crate::driver::{DriverSchedule, ShootdownReport};
use crate::icache_tx::TxIcache;
use crate::obs::{ObsRecorder, VictimLifetimes};
use crate::stats::{EpochStats, KernelStats, RunStats, SamplingMeta, TenantStats};
use crate::victim;

use cu::{Cu, KernelCode, SampleMode, WaveRt, WgRt};
use shared::{PteMem, SharedHierarchy};

/// Physical region instruction code occupies (disjoint from data
/// frames and page-table nodes).
const CODE_PHYS_BASE_LINE: u64 = (1u64 << 45) / 64;

/// Cumulative translation-side counters read at kernel boundaries for
/// per-tenant attribution (TENANCY.md §4). Kernels run serially, so
/// the delta between two boundary snapshots belongs entirely to the
/// kernel in between — the hot translate paths never touch per-tenant
/// state, and per-tenant sums telescope to the run's global totals.
#[derive(Debug, Clone, Copy, Default)]
struct TenantSnap {
    requests: u64,
    l1_hits: u64,
    l1_misses: u64,
    lds_hits: u64,
    lds_misses: u64,
    ic_hits: u64,
    ic_misses: u64,
    l2_hits: u64,
    l2_misses: u64,
    walks: u64,
}

/// The complete simulated system.
#[derive(Debug)]
pub struct System {
    gpu: GpuConfig,
    reach: ReachConfig,
    /// The GPU-shared half of the hierarchy: page tables, IOMMU, L2
    /// TLB + port, memory system, reconfigurable I-caches and their
    /// fill engines, and the optional side cache. Every access from a
    /// CU shard crosses the §8 synchronization boundary.
    shared: SharedHierarchy,
    cus: Vec<Cu>,
    lds_allocs: Vec<LdsAllocator>,
    dispatcher: Dispatcher,
    driver: DriverSchedule,
    next_driver_event: usize,
    shootdown_report: ShootdownReport,
    // measurement
    translation_requests: u64,
    merged_requests: u64,
    tx_latency_sum: u64,
    tx_latency_max: u64,
    op_latency_sum: u64,
    op_count: u64,
    fetch_wait_sum: u64,
    fetch_count: u64,
    path_stats: [(u64, u64); 6], // (count, latency sum) per resolution path
    instructions: u64,
    /// Sharing analysis: bitmask of CU groups that missed on each VPN.
    /// Touched on every L1 miss, hence open-addressed and pre-sized.
    vpn_cus: FastMap<u64, u8>,
    peak_tx_entries: usize,
    sample_countdown: u32,
    /// Side-cache lookups/hits split by execution mode (detailed vs
    /// functional fast-forward). The hit-rate divergence between the
    /// two feeds `SamplingMeta::side_cache_error_bound_pct`: the
    /// functional path resolves from the same resident set but at
    /// zero cost, so a large divergence flags that the sampled DUCATI
    /// estimate leans on intervals whose side-cache behavior the
    /// detail windows did not witness.
    sc_detail_lookups: u64,
    sc_detail_hits: u64,
    sc_ff_lookups: u64,
    sc_ff_hits: u64,
    code_bases: HashMap<String, u64>,
    next_code_line: u64,
    // multi-tenancy (TENANCY.md §4)
    /// Cached `reach.tenancy.is_some()`, mirroring `trace_on`: the
    /// per-kernel attribution sites cost one predictable branch on a
    /// plain bool for the (default) untenanted case.
    tenancy_on: bool,
    /// Per-tenant accumulators, indexed by VM-ID; grown on first
    /// attribution and padded to the configured tenant count in
    /// `finalize`. Empty unless `tenancy_on`.
    tenant_acc: Vec<TenantStats>,
    /// Counter snapshot at the last kernel boundary: kernels run
    /// serially, so the delta since this snapshot belongs entirely to
    /// the kernel that just retired (its launching tenant).
    last_tenant_snap: TenantSnap,
    /// Reused by `global_access` so the per-access coalescing result
    /// and per-page completion times never reallocate.
    scratch_coalesced: CoalescedAccess,
    scratch_page_done: Vec<(Vpn, Cycle, Ppn)>,
    // observability
    /// Structured-event sink ([`NullSink`] unless [`Self::with_trace`]
    /// attached a real one).
    trace: Box<dyn TraceSink>,
    /// Cached `trace.enabled()` so every hot-path emission site is one
    /// predictable branch on a plain bool, not a virtual call.
    trace_on: bool,
    /// Epoch sampling period in cycles; 0 disables the sampler.
    epoch_len: Cycle,
    /// First cycle at or after which the next epoch snapshot fires.
    next_epoch: Cycle,
    epochs: Vec<EpochStats>,
    /// Cached "distribution recording armed" flag, mirroring
    /// `trace_on`: every recording site is one predictable branch on a
    /// plain bool when disabled.
    obs_on: bool,
    /// Latency / lifetime distribution recorders (only driven when
    /// `obs_on`).
    obs: ObsRecorder,
    // interval sampling / checkpointing
    /// Interval-sampling windows; `None` runs fully detailed (exact).
    sampling: Option<SamplingConfig>,
    /// Cached "currently fast-forwarding" flag, mirroring `trace_on`:
    /// every functional-warming site is one predictable branch on a
    /// plain bool when sampling is off.
    ff_on: bool,
    /// Instruction count at which the next sampling transition fires;
    /// `u64::MAX` when sampling is off, so exact runs pay one
    /// never-taken compare per event.
    sample_boundary: u64,
    sample_mode: SampleMode,
    span_start_cycle: Cycle,
    span_start_insts: u64,
    warmup_cycles: Cycle,
    warmup_insts_acc: u64,
    ff_cycles: Cycle,
    ff_insts_acc: u64,
    /// `(instructions, cycles)` of each completed detail interval.
    detail_spans: Vec<(u64, Cycle)>,
    /// Piecewise extrapolation: CPI of the latest non-degenerate
    /// detail interval (0.0 until one closes).
    last_detail_cpi: f64,
    /// Skipped instructions awaiting a CPI (warmup and any
    /// fast-forward span that closed before the first detail CPI).
    ff_pending_insts: u64,
    /// Accumulated piecewise-extrapolated cycles for skipped spans.
    extrapolated_acc: f64,
    /// Warm state was replayed from a `Checkpoint` before this run.
    checkpoint_restored: bool,
    /// Translation-stream capture armed (checkpoint production).
    capture_on: bool,
    /// The capture window ended; the run loop unwinds early.
    capture_done: bool,
    capture_log: Vec<CheckpointEntry>,
}

impl System {
    /// Builds a cold system from a machine configuration and a
    /// reconfigurable-architecture configuration.
    pub fn new(gpu: GpuConfig, reach: ReachConfig) -> Self {
        let cus = (0..gpu.cus).map(|i| Cu::new(i, &gpu, &reach)).collect();
        Self {
            shared: SharedHierarchy::new(&gpu, &reach),
            cus,
            lds_allocs: (0..gpu.cus).map(|_| LdsAllocator::new(gpu.lds_bytes)).collect(),
            dispatcher: Dispatcher::new(gpu.cus, gpu.waves_per_cu()),
            driver: DriverSchedule::new(),
            next_driver_event: 0,
            shootdown_report: ShootdownReport::default(),
            translation_requests: 0,
            merged_requests: 0,
            tx_latency_sum: 0,
            tx_latency_max: 0,
            op_latency_sum: 0,
            op_count: 0,
            fetch_wait_sum: 0,
            fetch_count: 0,
            path_stats: [(0, 0); 6],
            instructions: 0,
            vpn_cus: FastMap::with_capacity(4096),
            peak_tx_entries: 0,
            sample_countdown: 4096,
            sc_detail_lookups: 0,
            sc_detail_hits: 0,
            sc_ff_lookups: 0,
            sc_ff_hits: 0,
            code_bases: HashMap::new(),
            next_code_line: CODE_PHYS_BASE_LINE,
            tenancy_on: reach.tenancy.is_some(),
            tenant_acc: Vec::new(),
            last_tenant_snap: TenantSnap::default(),
            scratch_coalesced: CoalescedAccess::default(),
            scratch_page_done: Vec::with_capacity(64),
            trace: Box::new(NullSink),
            trace_on: false,
            epoch_len: 0,
            next_epoch: 0,
            epochs: Vec::new(),
            obs_on: false,
            obs: ObsRecorder::default(),
            sampling: None,
            ff_on: false,
            sample_boundary: u64::MAX,
            sample_mode: SampleMode::Detail,
            span_start_cycle: 0,
            span_start_insts: 0,
            warmup_cycles: 0,
            warmup_insts_acc: 0,
            ff_cycles: 0,
            ff_insts_acc: 0,
            detail_spans: Vec::new(),
            last_detail_cpi: 0.0,
            ff_pending_insts: 0,
            extrapolated_acc: 0.0,
            checkpoint_restored: false,
            capture_on: false,
            capture_done: false,
            capture_log: Vec::new(),
            gpu,
            reach,
        }
    }

    /// Attaches a structured-event [`TraceSink`]. The sink's
    /// `enabled()` answer is cached once here: a disabled sink (e.g.
    /// [`NullSink`]) keeps the simulation loop allocation- and
    /// formatting-free, bit-for-bit identical to an untraced run.
    pub fn with_trace(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.trace_on = sink.enabled();
        self.trace = sink;
        self
    }

    /// Enables the epoch sampler: cumulative counter snapshots (an
    /// [`EpochStats`] each) are taken every `epoch_len` cycles of
    /// simulated time and returned in [`RunStats::epochs`]. A final
    /// snapshot is always taken at the end of the run, so the last
    /// epoch equals the run totals. `0` disables sampling (the
    /// default).
    pub fn with_epochs(mut self, epoch_len: Cycle) -> Self {
        self.epoch_len = epoch_len;
        self.next_epoch = epoch_len;
        self
    }

    /// Arms distribution recording: per-path translation-latency
    /// histograms, per-IOMMU-level walk latencies, and victim-entry
    /// lifetime/reuse histograms are recorded during the run and
    /// returned through the distribution fields of [`RunStats`]
    /// (`latency_hists`, `iommu_latency`, `victim_lifetime_*`,
    /// `victim_reuse_*`, with [`RunStats::dist_enabled`] set).
    ///
    /// Off by default; like [`Self::with_trace`], the disabled state
    /// costs one predictable branch per recording site — the perf gate
    /// runs with distributions off and asserts the anchor cycle count.
    pub fn with_distributions(mut self) -> Self {
        self.obs_on = true;
        self
    }

    /// Arms SMARTS-style interval sampling: after `cfg.warmup`
    /// functionally-warmed instructions, the run alternates detailed
    /// windows of `cfg.detail` instructions with functional
    /// fast-forward windows of `cfg.fastforward` instructions
    /// (translations still update every TLB / victim structure, at
    /// zero modeled latency). [`RunStats::total_cycles`] becomes the
    /// detail-interval cycles plus a CPI extrapolation over the skipped
    /// windows, and [`RunStats::sampling`] carries the full interval
    /// accounting including an error bound derived from the
    /// inter-interval CPI spread. Off by default — an exact run pays a
    /// single never-taken compare per event.
    pub fn with_sampling(mut self, cfg: SamplingConfig) -> Self {
        if cfg.warmup > 0 {
            self.sample_mode = SampleMode::Warmup;
            self.ff_on = true;
            self.sample_boundary = self.instructions + cfg.warmup;
        } else {
            self.sample_mode = SampleMode::Detail;
            self.ff_on = false;
            self.sample_boundary = self.instructions + cfg.detail;
        }
        self.sampling = Some(cfg);
        self
    }

    /// Runs `app` in pure functional-warming mode for the first
    /// `warmup_insts` instructions, recording the translation request
    /// stream — the raw material of a
    /// [`Checkpoint`](crate::checkpoint::Checkpoint). The system's
    /// timing state is meaningless afterwards; capture systems are
    /// discarded, the stream is replayed into fresh ones.
    pub fn run_functional_capture(
        &mut self,
        app: &AppTrace,
        warmup_insts: u64,
    ) -> Vec<CheckpointEntry> {
        self.ff_on = true;
        self.capture_on = true;
        self.capture_done = false;
        self.sample_boundary = warmup_insts;
        let _ = self.run(app);
        self.capture_on = false;
        self.sample_boundary = u64::MAX;
        std::mem::take(&mut self.capture_log)
    }

    /// Replays a [`Checkpoint`](crate::checkpoint::Checkpoint)'s
    /// translation stream through *this* system's own hierarchy in
    /// functional-warming mode: page tables demand-map in first-touch
    /// order (reproducing the capture run's deterministic frame
    /// placement, which a debug assertion checks), and the L1 TLBs,
    /// victim LDS / I-cache structures, L2 TLB and IOMMU all warm
    /// through their own fill flows — so one checkpoint restores into
    /// any [`ReachConfig`] variant. Measurement state is then reset so
    /// a subsequent [`Self::run`] measures only post-warmup behavior.
    pub fn restore_checkpoint(&mut self, ck: &crate::checkpoint::Checkpoint) {
        let _span = gtr_sim::prof::span_with("ckpt:replay", || ck.app().to_string());
        let saved = (self.trace_on, self.obs_on, self.ff_on);
        self.trace_on = false;
        self.obs_on = false;
        self.ff_on = true;
        let n_cus = self.cus.len();
        for e in &ck.stream {
            let table = &mut self.shared.page_tables[e.key.vmid.raw() as usize];
            if table.translate(e.key.vpn).is_none() {
                table.map_vpn(e.key.vpn);
            }
            let (ppn, _path) = self.translate_ff((e.cu as usize) % n_cus, 0, e.key);
            debug_assert_eq!(ppn, e.ppn, "checkpoint replay must reproduce frame placement");
        }
        self.trace_on = saved.0;
        self.obs_on = saved.1;
        self.ff_on = saved.2;
        self.checkpoint_restored = true;
        self.reset_measurement_state();
    }

    /// Zeroes every measurement accumulator while leaving functional
    /// state (TLB / cache / victim contents, page tables) warm — the
    /// boundary between a checkpoint restore and the measured run.
    fn reset_measurement_state(&mut self) {
        self.translation_requests = 0;
        self.merged_requests = 0;
        self.tx_latency_sum = 0;
        self.tx_latency_max = 0;
        self.op_latency_sum = 0;
        self.op_count = 0;
        self.fetch_wait_sum = 0;
        self.fetch_count = 0;
        self.path_stats = [(0, 0); 6];
        self.instructions = 0;
        self.vpn_cus.clear();
        self.peak_tx_entries = 0;
        self.sample_countdown = 4096;
        self.sc_detail_lookups = 0;
        self.sc_detail_hits = 0;
        self.sc_ff_lookups = 0;
        self.sc_ff_hits = 0;
        self.epochs.clear();
        self.next_epoch = self.epoch_len;
        self.shootdown_report = ShootdownReport::default();
        self.obs = ObsRecorder::default();
        self.tenant_acc.clear();
        self.last_tenant_snap = TenantSnap::default();
        for cu in &mut self.cus {
            cu.l1_tlb.reset_stats();
            cu.tx_lds.reset_stats();
        }
        self.shared.reset_stats();
    }

    /// Attaches a side translation cache (DUCATI).
    pub fn with_side_cache(mut self, sc: Box<dyn TranslationSideCache>) -> Self {
        self.shared.side_cache = Some(sc);
        self
    }

    /// Attaches a driver schedule of runtime page migrations with TLB
    /// shootdowns (§7.1).
    pub fn with_driver_schedule(mut self, schedule: DriverSchedule) -> Self {
        self.driver = schedule;
        self
    }

    /// Counters from executed driver events.
    pub fn shootdown_report(&self) -> ShootdownReport {
        self.shootdown_report
    }

    /// The demand-mapped pages of one address space, sorted by VPN —
    /// the deterministic victim pool for driver-event scenarios (the
    /// tenancy shootdown storm migrates a slice of these; migrating
    /// an unmapped page is a silent no-op).
    pub fn mapped_vpns(&self, vmid: gtr_vm::addr::VmId) -> Vec<Vpn> {
        self.shared.page_tables[vmid.raw() as usize].mapped_vpns()
    }

    /// Verifies that every translation cached anywhere (L1 TLBs, L2
    /// TLB, reconfigurable LDS and I-cache) agrees with the current
    /// page tables. After the shootdown protocol has run, no stale
    /// frame may survive. Returns the number of entries checked.
    ///
    /// # Panics
    ///
    /// Panics on the first incoherent entry (debugging aid; used by the
    /// integration tests).
    pub fn check_translation_coherence(&self) -> usize {
        let mut checked = 0;
        let check = |tx: Translation| {
            let table = &self.shared.page_tables[tx.key.vmid.raw() as usize];
            let current = table.translate(tx.key.vpn);
            assert_eq!(
                current,
                Some(tx.ppn),
                "stale translation cached for {}: cached {:?}, table {:?}",
                tx.key,
                tx.ppn,
                current
            );
        };
        for cu in &self.cus {
            for tx in cu.l1_tlb.iter() {
                check(tx);
                checked += 1;
            }
            for tx in cu.tx_lds.iter() {
                check(tx);
                checked += 1;
            }
        }
        for tx in self.shared.l2_tlb.iter() {
            check(tx);
            checked += 1;
        }
        for ic in &self.shared.icaches {
            for tx in ic.iter_tx() {
                check(tx);
                checked += 1;
            }
        }
        checked
    }

    /// Executes every driver event whose trigger has passed: migrate
    /// the pages in their page tables and invalidate the stale
    /// translations in the L1 TLBs, the L2 TLB, the IOMMU, and the
    /// reconfigurable LDS/I-cache structures.
    fn run_driver_events(&mut self) {
        // Split the borrow so events are iterated in place: the driver
        // schedule is read-only here, and an event's page list can be
        // large (bulk migrations), so cloning it per event would put
        // an allocation on the translate path.
        let Self {
            driver,
            next_driver_event,
            shootdown_report,
            shared,
            cus,
            translation_requests,
            trace,
            trace_on,
            obs,
            obs_on,
            tenancy_on,
            tenant_acc,
            ..
        } = self;
        let SharedHierarchy { page_tables, l2_tlb, icaches, iommu, .. } = shared;
        let events = driver.events();
        while *next_driver_event < events.len()
            && events[*next_driver_event].after_translations <= *translation_requests
        {
            let event = &events[*next_driver_event];
            *next_driver_event += 1;
            shootdown_report.events += 1;
            for (vmid, vpn) in &event.pages {
                if page_tables[vmid.raw() as usize].migrate(*vpn).is_none() {
                    continue; // page was never touched: nothing to shoot down
                }
                shootdown_report.pages_migrated += 1;
                if *tenancy_on {
                    // Shootdowns hit an address space, not a kernel:
                    // attribute by the migrated page's VM-ID directly
                    // (may precede that tenant's first kernel boundary).
                    let idx = vmid.raw() as usize;
                    if tenant_acc.len() <= idx {
                        tenant_acc.resize_with(idx + 1, TenantStats::default);
                    }
                    tenant_acc[idx].shootdowns += 1;
                }
                let key = TranslationKey {
                    vpn: *vpn,
                    vmid: *vmid,
                    vrf: gtr_vm::addr::VrfId::default(),
                };
                let mut l1_hits = 0u32;
                let mut lds_hits = 0u32;
                for cu in cus.iter_mut() {
                    if cu.l1_tlb.invalidate(key) {
                        l1_hits += 1;
                    }
                    if cu.tx_lds.shootdown(key) {
                        lds_hits += 1;
                    }
                    cu.pending.remove(key);
                }
                shootdown_report.l1_hits += l1_hits as u64;
                shootdown_report.lds_hits += lds_hits as u64;
                let l2_hit = l2_tlb.invalidate(key);
                if l2_hit {
                    shootdown_report.l2_hits += 1;
                }
                let mut ic_hits = 0u32;
                for ic in icaches.iter_mut() {
                    if ic.shootdown(key) {
                        ic_hits += 1;
                    }
                }
                shootdown_report.ic_hits += ic_hits as u64;
                iommu.invalidate(key);
                if *obs_on {
                    // Invalidated victim entries are censored, not
                    // counted as capacity evictions.
                    obs.victim.shootdown(vpn.0, vmid.raw());
                }
                if *trace_on {
                    trace.emit(&TraceEvent::Shootdown {
                        vpn: vpn.0,
                        vmid: vmid.raw(),
                        l1: l1_hits,
                        l2: l2_hit,
                        lds: lds_hits,
                        ic: ic_hits,
                    });
                }
            }
        }
    }

    /// The machine configuration.
    pub fn gpu_config(&self) -> &GpuConfig {
        &self.gpu
    }

    /// The reconfigurable-architecture configuration.
    pub fn reach_config(&self) -> &ReachConfig {
        &self.reach
    }

    /// Pre-maps `pages` consecutive pages starting at `start` in
    /// address space 0 (demand mapping also happens automatically
    /// during the run).
    pub fn map_footprint(&mut self, start: VirtAddr, pages: u64) {
        self.shared.page_tables[0].map_range(start, pages);
    }

    /// Pre-maps a footprint in a specific address space (§7.2).
    pub fn map_footprint_in(&mut self, vm: gtr_vm::addr::VmId, start: VirtAddr, pages: u64) {
        self.shared.page_tables[vm.raw() as usize].map_range(start, pages);
    }

    /// Executes the application end-to-end and returns the run's
    /// measurements.
    pub fn run(&mut self, app: &AppTrace) -> RunStats {
        let mut t: Cycle = 0;
        let mut kernels_out: Vec<KernelStats> = Vec::with_capacity(app.kernels().len());
        let mut prev_kernel: Option<&str> = None;
        for (k_idx, kernel) in app.kernels().iter().enumerate() {
            let walks_before = self.shared.iommu.walks();
            let insts_before = self.instructions;
            for ic in &mut self.shared.icaches {
                ic.begin_kernel();
            }
            if self.reach.flush_opt
                && self.reach.icache_enabled
                && prev_kernel != Some(kernel.name())
            {
                for (ic_idx, ic) in self.shared.icaches.iter_mut().enumerate() {
                    let lines = ic.flush_instructions();
                    if self.trace_on {
                        self.trace.emit(&TraceEvent::KernelFlush {
                            cycle: t,
                            icache: ic_idx as u32,
                            lines,
                        });
                    }
                }
            }
            if self.trace_on {
                self.trace.emit(&TraceEvent::KernelBegin {
                    cycle: t,
                    index: k_idx as u32,
                    name: kernel.name().to_string(),
                });
            }
            let end = self.run_kernel(t, kernel);
            if self.trace_on {
                self.trace.emit(&TraceEvent::KernelEnd {
                    cycle: end,
                    index: k_idx as u32,
                    name: kernel.name().to_string(),
                });
            }
            let util = self
                .shared
                .icaches
                .iter()
                .map(TxIcache::end_kernel_utilization)
                .sum::<f64>()
                / self.shared.icaches.len() as f64;
            kernels_out.push(KernelStats {
                name: kernel.name().to_string(),
                cycles: end - t,
                instructions: self.instructions - insts_before,
                page_walks: self.shared.iommu.walks() - walks_before,
                icache_utilization_pct: util,
                lds_bytes_per_wg: kernel.lds_bytes_per_wg(),
            });
            if self.tenancy_on {
                self.attribute_kernel_to_tenant(
                    kernel,
                    end - t,
                    self.instructions - insts_before,
                );
            }
            t = end;
            prev_kernel = Some(kernel.name());
            self.sample_peak_entries();
            if self.capture_done {
                break;
            }
        }
        self.finalize(app, t, kernels_out)
    }

    fn code_base(&mut self, kernel: &KernelDesc) -> u64 {
        if let Some(&b) = self.code_bases.get(kernel.name()) {
            return b;
        }
        let base = self.next_code_line;
        // 16 KB of slack between kernels' code regions.
        self.next_code_line += kernel.code_lines() as u64 + 256;
        self.code_bases.insert(kernel.name().to_string(), base);
        base
    }

    fn run_kernel(&mut self, start: Cycle, kernel: &KernelDesc) -> Cycle {
        if kernel.total_waves() == 0 {
            return start;
        }
        let code = KernelCode {
            base: self.code_base(kernel),
            lines: Divisor::new(kernel.code_lines().into()),
        };
        let mut waves: Vec<WaveRt> = Vec::new();
        let mut wgs: Vec<WgRt> = Vec::new();
        let mut events: EventQueue<usize> = EventQueue::with_capacity(kernel.total_waves());
        let mut next_wg = 0usize;
        let mut t_end = start;

        let dispatch = |s: &mut Self,
                            now: Cycle,
                            next_wg: &mut usize,
                            waves: &mut Vec<WaveRt>,
                            wgs: &mut Vec<WgRt>,
                            events: &mut EventQueue<usize>| {
            while *next_wg < kernel.workgroups().len() {
                let wg_desc = &kernel.workgroups()[*next_wg];
                if wg_desc.wave_count() == 0 {
                    *next_wg += 1;
                    continue;
                }
                assert!(
                    wg_desc.wave_count() <= s.gpu.waves_per_cu(),
                    "workgroup of {} waves can never fit a CU with {} slots",
                    wg_desc.wave_count(),
                    s.gpu.waves_per_cu()
                );
                assert!(
                    kernel.lds_bytes_per_wg() <= s.gpu.lds_bytes,
                    "workgroup requests {} B of LDS but a CU has {} B",
                    kernel.lds_bytes_per_wg(),
                    s.gpu.lds_bytes
                );
                let Some(p) = s.dispatcher.try_place(
                    wg_desc.wave_count(),
                    kernel.lds_bytes_per_wg(),
                    &mut s.lds_allocs,
                ) else {
                    break;
                };
                let lds_block = p.lds.and_then(|id| {
                    s.lds_allocs[p.cu].block(id).map(|b| (b.base, b.size))
                });
                if let Some((base, size)) = lds_block {
                    s.cus[p.cu].tx_lds.on_app_allocate(base, size);
                    if s.trace_on {
                        s.trace.emit(&TraceEvent::LdsMode {
                            cu: p.cu as u32,
                            base,
                            size,
                            to_app: true,
                        });
                    }
                }
                // Dispatch-time code warm-up: the command processor
                // prefetches the kernel's first lines into the group's
                // I-cache while the waves are being launched, so a
                // post-flush cold start does not stall the first ops.
                let ic_idx = s.cus[p.cu].ic_idx;
                for l in 0..8u64.min(kernel.code_lines() as u64) {
                    if s.shared.icaches[ic_idx].prefetch(code.base + l) && !s.ff_on {
                        s.shared.mem.read(now, (code.base + l) * 64);
                    }
                }
                let wg_rt = wgs.len();
                wgs.push(WgRt {
                    placement: p,
                    lds_block,
                    waves_total: wg_desc.wave_count(),
                    waves_done: 0,
                    barrier_arrived: 0,
                    parked: Vec::new(),
                });
                for wave_idx in 0..wg_desc.wave_count() {
                    let simd = s.cus[p.cu].next_simd;
                    s.cus[p.cu].next_simd = (simd + 1) % s.gpu.simds_per_cu;
                    let id = waves.len();
                    waves.push(WaveRt {
                        wg_rt,
                        kernel_wg: *next_wg,
                        wave_idx,
                        cu: p.cu,
                        simd,
                        op_idx: 0,
                        inst_idx: 0,
                        cur_line: None,
                    });
                    events.push(now, id);
                }
                *next_wg += 1;
            }
        };

        dispatch(self, start, &mut next_wg, &mut waves, &mut wgs, &mut events);

        let mut lane_buf: Vec<VirtAddr> = Vec::with_capacity(self.gpu.threads_per_wave);
        while let Some((now, wave_id)) = events.pop() {
            if self.epoch_len > 0 && now >= self.next_epoch {
                self.snapshot_epoch(now);
            }
            if self.instructions >= self.sample_boundary {
                self.sample_tick(now);
                if self.capture_done {
                    return t_end.max(now);
                }
            }
            let finished =
                self.step_wave(now, wave_id, kernel, code, &mut waves, &mut wgs, &mut events, &mut lane_buf);
            if let Some(done_at) = finished {
                t_end = t_end.max(done_at);
                let wg_rt = waves[wave_id].wg_rt;
                let wg = &mut wgs[wg_rt];
                wg.waves_done += 1;
                if wg.waves_done == wg.waves_total {
                    if let Some((base, size)) = wg.lds_block {
                        self.cus[wg.placement.cu].tx_lds.on_app_release(base, size);
                        if self.trace_on {
                            self.trace.emit(&TraceEvent::LdsMode {
                                cu: wg.placement.cu as u32,
                                base,
                                size,
                                to_app: false,
                            });
                        }
                    }
                    let placement = wg.placement;
                    let total = wg.waves_total;
                    self.dispatcher.complete(placement, total, &mut self.lds_allocs);
                    dispatch(self, done_at, &mut next_wg, &mut waves, &mut wgs, &mut events);
                }
            }
        }
        debug_assert_eq!(next_wg, kernel.workgroups().len(), "all workgroups dispatched");
        t_end
    }

    /// Advances one wavefront from `now`; returns `Some(t)` when the
    /// wave retired at cycle `t`.
    #[allow(clippy::too_many_arguments)]
    fn step_wave(
        &mut self,
        now: Cycle,
        wave_id: usize,
        kernel: &KernelDesc,
        code: KernelCode,
        waves: &mut [WaveRt],
        wgs: &mut [WgRt],
        events: &mut EventQueue<usize>,
        lane_buf: &mut Vec<VirtAddr>,
    ) -> Option<Cycle> {
        let mut t = now;
        let mut budget = 64u32;
        // The wave's program never changes while it runs: resolve the
        // nested kernel structure once per step instead of per op.
        let program = {
            let w = &waves[wave_id];
            kernel.workgroups()[w.kernel_wg].waves()[w.wave_idx].ops()
        };
        loop {
            let (cu_idx, simd, op_idx, wg_rt) = {
                let w = &waves[wave_id];
                (w.cu, w.simd, w.op_idx, w.wg_rt)
            };
            if op_idx >= program.len() {
                return Some(t);
            }
            // Instruction fetch: each op consumes one instruction slot;
            // the wave's IB holds one I-cache line.
            let inst_idx = waves[wave_id].inst_idx;
            let line = code.base + code.lines.rem(inst_idx / INSTS_PER_LINE as u64);
            if waves[wave_id].cur_line != Some(line) {
                t = self.fetch_instruction(cu_idx, t, line, code);
                waves[wave_id].cur_line = Some(line);
            }
            waves[wave_id].inst_idx += 1;
            self.instructions += 1;

            // Borrow the op in place: cloning would copy the boxed
            // per-lane address array of every irregular global access.
            let op = &program[op_idx];
            waves[wave_id].op_idx += 1;
            match op {
                Op::Compute { latency } => {
                    if !self.ff_on {
                        t = self.cus[cu_idx].simds[simd].issue(t) + *latency as Cycle;
                    }
                }
                Op::Lds { .. } => {
                    if !self.ff_on {
                        t = self.cus[cu_idx].simds[simd].issue(t);
                        let occupancy = 2;
                        let port_done = self.cus[cu_idx].lds_port.access(t, occupancy);
                        t = port_done - occupancy + self.gpu.lds_latency;
                    }
                }
                Op::Barrier => {
                    let wg = &mut wgs[wg_rt];
                    wg.barrier_arrived += 1;
                    if wg.barrier_arrived + wg.waves_done == wg.waves_total {
                        // Last arrival releases everyone at its time.
                        wg.barrier_arrived = 0;
                        for parked in wg.parked.drain(..) {
                            events.push(t, parked);
                        }
                        // This wave continues in place.
                    } else {
                        wg.parked.push(wave_id);
                        return None;
                    }
                }
                Op::Global { pattern, write } => {
                    if !self.ff_on {
                        t = self.cus[cu_idx].simds[simd].issue(t);
                    }
                    pattern.expand(lane_buf);
                    let done = self.global_access(cu_idx, t, kernel.vm_id(), lane_buf, *write);
                    events.push(done, wave_id);
                    return None;
                }
            }
            budget -= 1;
            if budget == 0 {
                events.push(t, wave_id);
                return None;
            }
        }
    }

    fn fetch_instruction(&mut self, cu_idx: usize, now: Cycle, line: u64, code: KernelCode) -> Cycle {
        let ic_idx = self.cus[cu_idx].ic_idx;
        if self.ff_on {
            // Functional warming: keep I-cache contents (including the
            // next-line prefetcher's footprint) evolving, with no port,
            // fill-engine, or DRAM timing.
            if !self.shared.icaches[ic_idx].fetch(line) {
                for ahead in 1..=3u64 {
                    let next = code.base + code.lines.rem(line - code.base + ahead);
                    if next != line {
                        self.shared.icaches[ic_idx].prefetch(next);
                    }
                }
            }
            return now;
        }
        let ic = &mut self.shared.icaches[ic_idx];
        let occupancy = 2;
        let port_done = ic.port_mut().access(now, occupancy);
        self.fetch_wait_sum += port_done - occupancy - now;
        self.fetch_count += 1;
        let t = port_done - occupancy + self.gpu.ic_tag_latency;
        if ic.fetch(line) {
            t
        } else {
            // Instruction miss: fill from the shared L2 / DRAM through
            // the group's single fill engine (misses serialize), and
            // run the next-line prefetcher (the `IC_prefetches` of
            // Eq 1) three lines deep so a straight-line fetch stream
            // misses once per four lines — fetch units race ahead of
            // the instruction buffers on real GPUs.
            let fill = self.shared.mem.read(t, line * 64);
            let duration = fill - t;
            let start = self.shared.fetch_fill[ic_idx].reserve(t, duration);
            let done = start + duration;
            for ahead in 1..=3u64 {
                let next = code.base + code.lines.rem(line - code.base + ahead);
                if next != line && self.shared.icaches[ic_idx].prefetch(next) {
                    // Prefetches consume memory bandwidth in the
                    // background but do not block the wave.
                    self.shared.mem.read(t, next * 64);
                }
            }
            done
        }
    }

    fn global_access(
        &mut self,
        cu_idx: usize,
        now: Cycle,
        vm: gtr_vm::addr::VmId,
        lanes: &[VirtAddr],
        write: bool,
    ) -> Cycle {
        let page_size = self.gpu.page_size;
        // Take the scratch buffers out of `self` so they can be read
        // while `self.translate` is borrowed mutably below; they are
        // put back (with their grown capacity) before returning.
        let mut coalesced = std::mem::take(&mut self.scratch_coalesced);
        let mut page_done = std::mem::take(&mut self.scratch_page_done);
        coalesced.assign_from_lanes(lanes, page_size);
        if !self.gpu.coalescing {
            // Ablation: without the SIMT coalescer every lane issues
            // its own translation request, duplicates included.
            coalesced.pages.clear();
            coalesced.pages.extend(lanes.iter().map(|a| a.vpn(page_size)));
        }
        // Demand-map the footprint (no fault cost: workloads model
        // already-resident data).
        let table = &mut self.shared.page_tables[vm.raw() as usize];
        for &vpn in &coalesced.pages {
            if table.translate(vpn).is_none() {
                table.map_vpn(vpn);
            }
        }
        // Translate each unique page.
        page_done.clear();
        for &vpn in &coalesced.pages {
            let key = TranslationKey { vpn, vmid: vm, vrf: gtr_vm::addr::VrfId::default() };
            let (done, ppn) = self.translate(cu_idx, now, key);
            page_done.push((vpn, done, ppn));
        }
        if self.ff_on {
            // Functional warming: keep L1D contents moving (so a
            // following detail window sees a warm cache) with no
            // writeback or DRAM timing.
            for (li, &vline) in coalesced.lines.iter().enumerate() {
                let va = VirtAddr::new(vline * 64);
                // With the coalescer on, the line→page index computed
                // during lane dedup replaces the per-line page rescan;
                // the ablation rebuilt `pages` with duplicates, so its
                // indices are stale and the scan stays.
                let &(_, _, ppn) = if self.gpu.coalescing {
                    &page_done[coalesced.line_pages[li] as usize]
                } else {
                    let vpn = va.vpn(page_size);
                    page_done
                        .iter()
                        .find(|(p, _, _)| *p == vpn)
                        .expect("every line's page was translated")
                };
                let pa = ppn.base(page_size).raw() + va.page_offset(page_size);
                let _ = self.cus[cu_idx].l1d.access(pa / 64, write);
            }
            self.op_count += 1;
            self.scratch_coalesced = coalesced;
            self.scratch_page_done = page_done;
            return now;
        }
        let mut max_tx = now;
        for &(_, done, _) in &page_done {
            max_tx = max_tx.max(done);
        }
        // Data accesses per unique line, dependent on their page's
        // translation.
        let mut op_done = now;
        for (li, &vline) in coalesced.lines.iter().enumerate() {
            let va = VirtAddr::new(vline * 64);
            let &(_, tx_done, ppn) = if self.gpu.coalescing {
                &page_done[coalesced.line_pages[li] as usize]
            } else {
                let vpn = va.vpn(page_size);
                page_done
                    .iter()
                    .find(|(p, _, _)| *p == vpn)
                    .expect("every line's page was translated")
            };
            let pa = ppn.base(page_size).raw() + va.page_offset(page_size);
            let t0 = tx_done + self.cus[cu_idx].l1d.latency();
            let res = self.cus[cu_idx].l1d.access(pa / 64, write);
            let done = if res.hit {
                t0
            } else {
                if let Some(victim_line) = res.writeback {
                    self.shared.mem.write(t0, victim_line * 64);
                }
                if write {
                    self.shared.mem.write(t0, pa)
                } else {
                    self.shared.mem.read(t0, pa)
                }
            };
            op_done = op_done.max(done);
        }
        for &(_, done, _) in &page_done {
            op_done = op_done.max(done);
        }
        let _ = max_tx;
        self.op_latency_sum += op_done - now;
        self.op_count += 1;
        self.scratch_coalesced = coalesced;
        self.scratch_page_done = page_done;
        op_done
    }

    fn translate(&mut self, cu_idx: usize, now: Cycle, key: TranslationKey) -> (Cycle, Ppn) {
        if self.next_driver_event < self.driver.events().len() {
            self.run_driver_events();
        }
        let (done, ppn, path) = if self.ff_on {
            let (ppn, path) = self.translate_ff(cu_idx, now, key);
            (now, ppn, path)
        } else {
            self.translate_inner(cu_idx, now, key)
        };
        if self.capture_on {
            self.capture_log.push(CheckpointEntry { cu: cu_idx as u32, key, ppn });
        }
        let lat = done.saturating_sub(now);
        self.tx_latency_sum += lat;
        self.tx_latency_max = self.tx_latency_max.max(lat);
        self.path_stats[path].0 += 1;
        self.path_stats[path].1 += lat;
        if self.obs_on {
            self.obs.lat[path].record(lat);
            // Victim-structure hits count as reuse of the live entry.
            // Recorded here — after `translate_inner` ran the promote
            // fill flow — which matches the trace's event order, so the
            // replayer reconstructs identical reuse histograms.
            match path {
                2 => self.obs.victim.hit(TxStructure::Lds, key.vpn.0, key.vmid.raw()),
                3 => self.obs.victim.hit(TxStructure::Icache, key.vpn.0, key.vmid.raw()),
                _ => {}
            }
        }
        if self.trace_on {
            self.trace.emit(&TraceEvent::Translation {
                cycle: now,
                cu: cu_idx as u32,
                vpn: key.vpn.0,
                vmid: key.vmid.raw(),
                path: TracePath::ALL[path],
                latency: lat,
            });
        }
        (done, ppn)
    }

    /// The heart of the model: one translation request through the
    /// Fig-12 lookup path.
    fn translate_inner(&mut self, cu_idx: usize, now: Cycle, key: TranslationKey) -> (Cycle, Ppn, usize) {
        // Split the borrow of `self` into disjoint component borrows.
        let Self {
            gpu,
            reach,
            shared,
            cus,
            translation_requests,
            merged_requests,
            sc_detail_lookups,
            sc_detail_hits,
            vpn_cus,
            peak_tx_entries,
            sample_countdown,
            trace,
            trace_on,
            obs,
            obs_on,
            ..
        } = self;
        let SharedHierarchy {
            page_tables,
            iommu,
            l2_tlb,
            l2_port,
            mem,
            icaches,
            side_cache,
            ..
        } = shared;
        *translation_requests += 1;
        if *sample_countdown == 0 {
            let resident: usize = cus.iter().map(|c| c.tx_lds.resident()).sum::<usize>()
                + icaches.iter().map(TxIcache::resident_tx).sum::<usize>();
            *peak_tx_entries = (*peak_tx_entries).max(resident);
            *sample_countdown = 4096;
        } else {
            *sample_countdown -= 1;
        }

        let ic_idx = cus[cu_idx].ic_idx;

        let start = cus[cu_idx].l1_port.acquire(now, 1);
        let t0 = start + gpu.l1_tlb.latency;
        if let Some(tx) = cus[cu_idx].l1_tlb.lookup(key) {
            // A hit on an entry whose miss is still in flight waits for it.
            let done = cus[cu_idx].pending.get(key).map_or(t0, |&(d, _)| t0.max(d));
            return (done, tx.ppn_for(key.vpn), 0);
        }
        // L1 miss: sharing analysis tracks which CUs want each VPN.
        *vpn_cus.get_or_insert(key.vpn.0, 0) |= 1 << (cu_idx % 8);
        // Merge with an in-flight miss to the same page.
        if let Some(&(d, ppn)) = cus[cu_idx].pending.get(key) {
            if d > t0 {
                *merged_requests += 1;
                return (d, ppn, 1);
            }
            cus[cu_idx].pending.remove(key);
        }

        let mut t = t0;
        // --- Reconfigurable LDS (looked up first: §4.4) ---
        // The segment's mode bit is checked first (a 1-cycle MUX on the
        // mode-bit array): only Tx-mode segments pay the full Tx access
        // latency and consume LDS port bandwidth, so applications whose
        // segments hold no translations see negligible overhead. Under
        // home-node hashing the VPN's home CU is probed instead of the
        // requester's own LDS, with a remote-hop penalty.
        if reach.lds_enabled {
            t += reach.mux_latency;
            let home = Self::lds_home(reach, cus, key, cu_idx);
            let remote = if home == cu_idx { 0 } else { reach.lds_remote_latency };
            if cus[home].tx_lds.may_hold(key) {
                let occupancy = 1;
                let port_done = cus[home].lds_port.access(t + remote, occupancy);
                t = port_done - occupancy + reach.lds_tx_lookup_latency() + remote;
                if let Some(tx) = cus[home].tx_lds.lookup(key) {
                    let ppn = tx.ppn_for(key.vpn);
                    let sink = Self::sink_opt(trace, *trace_on);
                    let vl = Self::obs_opt(obs, *obs_on);
                    Self::promote(reach, cus, cu_idx, &mut icaches[ic_idx], l2_tlb, tx, t, sink, vl);
                    cus[cu_idx].pending.insert(key, (t, ppn));
                    return (t, ppn, 2);
                }
            }
        }
        // --- Reconfigurable I-cache (shared by the CU group) ---
        // Same mode-bit fast path for the direct-mapped line.
        if reach.icache_enabled {
            t += reach.mux_latency;
            let ic = &mut icaches[ic_idx];
            if ic.may_hold_tx(key) {
                let occupancy = 1;
                let port_done = ic.port_mut().access(t, occupancy);
                t = port_done - occupancy + reach.ic_tx_lookup_latency();
                if let Some(tx) = ic.lookup_tx(key) {
                    let ppn = tx.ppn_for(key.vpn);
                    let sink = Self::sink_opt(trace, *trace_on);
                    let vl = Self::obs_opt(obs, *obs_on);
                    Self::promote(reach, cus, cu_idx, ic, l2_tlb, tx, t, sink, vl);
                    cus[cu_idx].pending.insert(key, (t, ppn));
                    return (t, ppn, 3);
                }
            }
        }
        // --- L2 TLB ---
        let l2_start = l2_port.reserve(t, 1);
        t = l2_start + 1 + gpu.l2_tlb.latency;
        let page_table = &page_tables[key.vmid.raw() as usize];
        if gpu.l2_tlb_perfect {
            // Upper bound of Figs 2-3: every request hits in the L2 TLB.
            let ppn = page_table
                .translate(key.vpn)
                .expect("footprint is demand-mapped before translation");
            let tx = Self::attach_span(reach, page_table, Translation::new(key, ppn));
            l2_tlb.lookup(key); // count the access
            let sink = Self::sink_opt(trace, *trace_on);
            let vl = Self::obs_opt(obs, *obs_on);
            Self::promote(reach, cus, cu_idx, &mut icaches[ic_idx], l2_tlb, tx, t, sink, vl);
            cus[cu_idx].pending.insert(key, (t, ppn));
            return (t, ppn, 4);
        }
        if let Some(tx) = l2_tlb.lookup(key) {
            let ppn = tx.ppn_for(key.vpn);
            let sink = Self::sink_opt(trace, *trace_on);
            let vl = Self::obs_opt(obs, *obs_on);
            Self::promote(reach, cus, cu_idx, &mut icaches[ic_idx], l2_tlb, tx, t, sink, vl);
            cus[cu_idx].pending.insert(key, (t, ppn));
            return (t, ppn, 4);
        }
        // --- Side cache (DUCATI) ---
        if let Some(sc) = side_cache.as_mut() {
            *sc_detail_lookups += 1;
            if let Some((done, ppn)) = sc.lookup(t, key, mem) {
                *sc_detail_hits += 1;
                let tx = Translation::new(key, ppn);
                if let Some(l2_victim) = l2_tlb.insert(tx) {
                    sc.fill(done, l2_victim, mem);
                }
                let sink = Self::sink_opt(trace, *trace_on);
                let vl = Self::obs_opt(obs, *obs_on);
                Self::promote(reach, cus, cu_idx, &mut icaches[ic_idx], l2_tlb, tx, done, sink, vl);
                cus[cu_idx].pending.insert(key, (done, ppn));
                return (done, ppn, 4);
            }
        }
        // --- IOMMU page walk ---
        let iommu_start = t;
        let outcome = {
            let mut pte = PteMem(mem);
            iommu.translate(t, key, page_table, &mut pte)
        };
        let tx = Self::attach_span(
            reach,
            page_table,
            outcome
                .translation
                .expect("footprint is demand-mapped before translation"),
        );
        t = outcome.done;
        if *obs_on {
            // Walk-latency tagging: attribute the IOMMU service time to
            // the level that resolved it (device TLBs vs a real walk).
            obs.iommu_lat[outcome.level.index()].record(t.saturating_sub(iommu_start));
        }
        if let Some(l2_victim) = l2_tlb.insert(tx) {
            if let Some(sc) = side_cache.as_mut() {
                sc.fill(t, l2_victim, mem);
            }
        }
        if reach.fill_policy == crate::config::TxFillPolicy::PrefetchBuffer
            && reach.any_enabled()
        {
            // Ablation (§4.1): prefetch the next two pages' translations
            // into the reconfigurable structures instead of caching
            // victims. Only already-mapped neighbours are prefetched.
            for ahead in 1..=2u64 {
                let nkey = TranslationKey { vpn: Vpn(key.vpn.0 + ahead), ..key };
                if let Some(ppn) = page_table.translate(nkey.vpn) {
                    let home = Self::lds_home(reach, cus, nkey, cu_idx);
                    victim::fill_l1_victim_traced(
                        reach,
                        &mut cus[home].tx_lds,
                        &mut icaches[ic_idx],
                        l2_tlb,
                        Translation::new(nkey, ppn),
                        t,
                        Self::sink_opt(trace, *trace_on),
                        Self::obs_opt(obs, *obs_on),
                    );
                }
            }
        }
        let sink = Self::sink_opt(trace, *trace_on);
        let vl = Self::obs_opt(obs, *obs_on);
        Self::promote(reach, cus, cu_idx, &mut icaches[ic_idx], l2_tlb, tx, t, sink, vl);
        let ppn = tx.ppn_for(key.vpn);
        cus[cu_idx].pending.insert(key, (t, ppn));
        if cus[cu_idx].pending.len() > 512 {
            let horizon = now;
            cus[cu_idx].pending.retain(|_, (d, _)| *d > horizon);
        }
        (t, ppn, 5)
    }

    /// The functional-warming twin of [`Self::translate_inner`]: walks
    /// the same Fig-12 hierarchy and runs the same promote / victim
    /// fill flows so every structure's *contents* evolve exactly as a
    /// detailed warmup would demand, but consumes no port or walker
    /// bandwidth and models zero latency. Request merging never fires
    /// (there are no in-flight misses at zero latency), and the side
    /// cache is consulted through its *functional* twin methods — its
    /// resident set keeps evolving (so DUCATI's comparison point runs
    /// under sampling) while its timed DRAM traffic stays off.
    fn translate_ff(&mut self, cu_idx: usize, now: Cycle, key: TranslationKey) -> (Ppn, usize) {
        let Self {
            gpu,
            reach,
            shared,
            cus,
            translation_requests,
            sc_ff_lookups,
            sc_ff_hits,
            vpn_cus,
            peak_tx_entries,
            sample_countdown,
            trace,
            trace_on,
            obs,
            obs_on,
            ..
        } = self;
        let SharedHierarchy { page_tables, iommu, l2_tlb, icaches, side_cache, .. } = shared;
        *translation_requests += 1;
        if *sample_countdown == 0 {
            let resident: usize = cus.iter().map(|c| c.tx_lds.resident()).sum::<usize>()
                + icaches.iter().map(TxIcache::resident_tx).sum::<usize>();
            *peak_tx_entries = (*peak_tx_entries).max(resident);
            *sample_countdown = 4096;
        } else {
            *sample_countdown -= 1;
        }

        let ic_idx = cus[cu_idx].ic_idx;
        if let Some(tx) = cus[cu_idx].l1_tlb.lookup(key) {
            return (tx.ppn_for(key.vpn), 0);
        }
        *vpn_cus.get_or_insert(key.vpn.0, 0) |= 1 << (cu_idx % 8);
        if reach.lds_enabled {
            let home = Self::lds_home(reach, cus, key, cu_idx);
            if cus[home].tx_lds.may_hold(key) {
                if let Some(tx) = cus[home].tx_lds.lookup(key) {
                    let ppn = tx.ppn_for(key.vpn);
                    let sink = Self::sink_opt(trace, *trace_on);
                    let vl = Self::obs_opt(obs, *obs_on);
                    Self::promote(reach, cus, cu_idx, &mut icaches[ic_idx], l2_tlb, tx, now, sink, vl);
                    return (ppn, 2);
                }
            }
        }
        if reach.icache_enabled {
            let ic = &mut icaches[ic_idx];
            if ic.may_hold_tx(key) {
                if let Some(tx) = ic.lookup_tx(key) {
                    let ppn = tx.ppn_for(key.vpn);
                    let sink = Self::sink_opt(trace, *trace_on);
                    let vl = Self::obs_opt(obs, *obs_on);
                    Self::promote(reach, cus, cu_idx, ic, l2_tlb, tx, now, sink, vl);
                    return (ppn, 3);
                }
            }
        }
        let page_table = &page_tables[key.vmid.raw() as usize];
        if gpu.l2_tlb_perfect {
            let ppn = page_table
                .translate(key.vpn)
                .expect("footprint is demand-mapped before translation");
            let tx = Self::attach_span(reach, page_table, Translation::new(key, ppn));
            l2_tlb.lookup(key); // count the access
            let sink = Self::sink_opt(trace, *trace_on);
            let vl = Self::obs_opt(obs, *obs_on);
            Self::promote(reach, cus, cu_idx, &mut icaches[ic_idx], l2_tlb, tx, now, sink, vl);
            return (ppn, 4);
        }
        if let Some(tx) = l2_tlb.lookup(key) {
            let ppn = tx.ppn_for(key.vpn);
            let sink = Self::sink_opt(trace, *trace_on);
            let vl = Self::obs_opt(obs, *obs_on);
            Self::promote(reach, cus, cu_idx, &mut icaches[ic_idx], l2_tlb, tx, now, sink, vl);
            return (ppn, 4);
        }
        // --- Side cache (DUCATI), functional twin of the timed path ---
        if let Some(sc) = side_cache.as_mut() {
            *sc_ff_lookups += 1;
            if let Some(ppn) = sc.lookup_functional(key) {
                *sc_ff_hits += 1;
                let tx = Translation::new(key, ppn);
                if let Some(l2_victim) = l2_tlb.insert(tx) {
                    sc.fill_functional(l2_victim);
                }
                let sink = Self::sink_opt(trace, *trace_on);
                let vl = Self::obs_opt(obs, *obs_on);
                Self::promote(reach, cus, cu_idx, &mut icaches[ic_idx], l2_tlb, tx, now, sink, vl);
                return (ppn, 4);
            }
        }
        let outcome = iommu.translate_functional(key, page_table);
        let tx = Self::attach_span(
            reach,
            page_table,
            outcome
                .translation
                .expect("footprint is demand-mapped before translation"),
        );
        if *obs_on {
            obs.iommu_lat[outcome.level.index()].record(0);
        }
        if let Some(l2_victim) = l2_tlb.insert(tx) {
            if let Some(sc) = side_cache.as_mut() {
                sc.fill_functional(l2_victim);
            }
        }
        if reach.fill_policy == crate::config::TxFillPolicy::PrefetchBuffer && reach.any_enabled()
        {
            for ahead in 1..=2u64 {
                let nkey = TranslationKey { vpn: Vpn(key.vpn.0 + ahead), ..key };
                if let Some(ppn) = page_table.translate(nkey.vpn) {
                    let home = Self::lds_home(reach, cus, nkey, cu_idx);
                    victim::fill_l1_victim_traced(
                        reach,
                        &mut cus[home].tx_lds,
                        &mut icaches[ic_idx],
                        l2_tlb,
                        Translation::new(nkey, ppn),
                        now,
                        Self::sink_opt(trace, *trace_on),
                        Self::obs_opt(obs, *obs_on),
                    );
                }
            }
        }
        let sink = Self::sink_opt(trace, *trace_on);
        let vl = Self::obs_opt(obs, *obs_on);
        Self::promote(reach, cus, cu_idx, &mut icaches[ic_idx], l2_tlb, tx, now, sink, vl);
        (tx.ppn_for(key.vpn), 5)
    }

    /// Reborrows the trace sink as the `Option` the fill-flow helpers
    /// take: `None` when tracing is disabled, so callees never pay a
    /// virtual `enabled()` query per event site.
    fn sink_opt(trace: &mut Box<dyn TraceSink>, on: bool) -> Option<&mut dyn TraceSink> {
        if on {
            Some(trace.as_mut())
        } else {
            None
        }
    }

    /// Reborrows the victim-lifetime tracker the same way: `None` when
    /// distribution recording is disarmed, so the fill-flow helpers
    /// stay zero-cost.
    fn obs_opt(obs: &mut ObsRecorder, on: bool) -> Option<&mut VictimLifetimes> {
        if on {
            Some(&mut obs.victim)
        } else {
            None
        }
    }

    /// Upgrades a freshly walked translation to a coalesced
    /// (variable-reach) entry when `reach.tlb_coalescing` is enabled:
    /// the page table reports the largest power-of-two-aligned
    /// contiguous run containing the page (uniform protection, one
    /// address space by construction), and the translation is
    /// normalized to that run's base. With coalescing off this is the
    /// identity, keeping the baseline path bit-exact.
    fn attach_span(reach: &ReachConfig, page_table: &PageTable, tx: Translation) -> Translation {
        match reach.tlb_coalescing {
            Some(max) if max > 0 => {
                let span = page_table.contiguity_span(tx.key.vpn, max);
                if span > 0 {
                    Translation::with_span(tx.key, tx.ppn, span)
                } else {
                    tx
                }
            }
            _ => tx,
        }
    }

    /// Installs `tx` into the CU's L1 TLB and routes the displaced
    /// victim through the Fig-12 fill flow (fills happen off the
    /// request's critical path). Under the prefetch-buffer ablation
    /// victims skip the reconfigurable structures entirely.
    #[allow(clippy::too_many_arguments)]
    fn promote(
        reach: &ReachConfig,
        cus: &mut [Cu],
        cu_idx: usize,
        ic: &mut TxIcache,
        l2: &mut Tlb,
        tx: Translation,
        now: Cycle,
        sink: Option<&mut dyn TraceSink>,
        obs: Option<&mut VictimLifetimes>,
    ) {
        if let Some(victim) = cus[cu_idx].l1_tlb.insert(tx) {
            match reach.fill_policy {
                crate::config::TxFillPolicy::VictimCache => {
                    let home = Self::lds_home(reach, cus, victim.key, cu_idx);
                    victim::fill_l1_victim_traced(
                        reach,
                        &mut cus[home].tx_lds,
                        ic,
                        l2,
                        victim,
                        now,
                        sink,
                        obs,
                    );
                }
                crate::config::TxFillPolicy::PrefetchBuffer => {
                    let displaced = l2.insert(victim);
                    if let Some(s) = sink {
                        s.emit(&TraceEvent::VictimInsert {
                            cycle: now,
                            structure: TxStructure::L2Tlb,
                            vpn: victim.key.vpn.0,
                            vmid: victim.key.vmid.raw(),
                            evicted_vpn: displaced.map(|e| e.key.vpn.0),
                            evicted_vmid: displaced.map(|e| e.key.vmid.raw()),
                            mode_flip: false,
                        });
                    }
                }
            }
        }
    }

    /// Which CU's LDS stores a translation: the requester's own under
    /// the paper's design, or `vpn % CUs` under home-node hashing (the
    /// duplication-limiting optimization the paper defers).
    fn lds_home(reach: &ReachConfig, cus: &[Cu], key: TranslationKey, requester: usize) -> usize {
        if reach.lds_home_hashing {
            cus[requester].homes.rem(key.vpn.0) as usize
        } else {
            requester
        }
    }

    fn sample_peak_entries(&mut self) {
        let resident: usize = self.cus.iter().map(|c| c.tx_lds.resident()).sum::<usize>()
            + self.shared.resident_tx_icache();
        self.peak_tx_entries = self.peak_tx_entries.max(resident);
    }

    /// One sampling transition at an instruction boundary: closes the
    /// current window, accounts its instructions / cycles to the right
    /// bucket, and arms the next window (or ends a capture run).
    fn sample_tick(&mut self, now: Cycle) {
        if self.capture_on {
            self.capture_done = true;
            self.sample_boundary = u64::MAX;
            return;
        }
        let Some(cfg) = self.sampling else {
            self.sample_boundary = u64::MAX;
            return;
        };
        self.close_span(now);
        match self.sample_mode {
            SampleMode::Warmup | SampleMode::Fastforward => {
                self.sample_mode = SampleMode::Detail;
                self.ff_on = false;
                self.sample_boundary = self.instructions + cfg.detail;
                // Host-profiler instant mark (guest state untouched):
                // interval transitions paint the detail/fast-forward
                // cadence onto the worker's timeline lane.
                gtr_sim::prof::mark("sample:detail");
            }
            SampleMode::Detail => {
                self.sample_mode = SampleMode::Fastforward;
                self.ff_on = true;
                self.sample_boundary = self.instructions + cfg.fastforward;
                gtr_sim::prof::mark("sample:ff");
            }
        }
    }

    /// Closes the span running up to `now` into the current mode's
    /// accumulators. Detail spans additionally update the running CPI
    /// used to extrapolate neighbouring skipped spans (SMARTS-style
    /// piecewise extrapolation: each skipped span is costed at the CPI
    /// of its nearest measured interval, so phase behaviour survives
    /// into the estimate); skipped spans with no preceding detail CPI
    /// (the warmup window) wait in `ff_pending_insts` and are costed
    /// backward from the first interval that closes.
    fn close_span(&mut self, now: Cycle) {
        let span_insts = self.instructions - self.span_start_insts;
        let span_cycles = now.saturating_sub(self.span_start_cycle);
        match self.sample_mode {
            SampleMode::Warmup => {
                self.warmup_insts_acc += span_insts;
                self.warmup_cycles += span_cycles;
                self.ff_pending_insts += span_insts;
            }
            SampleMode::Detail => {
                // Zero-instruction spans still close: the cycle
                // partition invariant needs every span accounted.
                self.detail_spans.push((span_insts, span_cycles));
                if span_insts > 0 && span_cycles > 0 {
                    let cpi = span_cycles as f64 / span_insts as f64;
                    self.last_detail_cpi = cpi;
                    if self.ff_pending_insts > 0 {
                        self.extrapolated_acc += self.ff_pending_insts as f64 * cpi;
                        self.ff_pending_insts = 0;
                    }
                }
            }
            SampleMode::Fastforward => {
                self.ff_insts_acc += span_insts;
                self.ff_cycles += span_cycles;
                if self.last_detail_cpi > 0.0 {
                    self.extrapolated_acc += span_insts as f64 * self.last_detail_cpi;
                } else {
                    self.ff_pending_insts += span_insts;
                }
            }
        }
        self.span_start_insts = self.instructions;
        self.span_start_cycle = now;
    }

    /// Closes the window the run ended inside and reduces the interval
    /// record to a [`SamplingMeta`]: per-interval CPI extrapolation
    /// over the skipped instructions, plus an error bound = the
    /// detail-interval CPI spread weighted by the extrapolated share.
    /// `None` when sampling was never armed.
    fn finish_sampling(&mut self, t_end: Cycle) -> Option<SamplingMeta> {
        let cfg = self.sampling?;
        self.close_span(t_end);
        let detail_insts: u64 = self.detail_spans.iter().map(|&(i, _)| i).sum();
        let detail_cycles: Cycle = self.detail_spans.iter().map(|&(_, c)| c).sum();
        let cpi = if detail_insts > 0 {
            detail_cycles as f64 / detail_insts as f64
        } else {
            0.0
        };
        // Skipped instructions that never saw a usable interval CPI
        // fall back to the global detail CPI.
        if self.ff_pending_insts > 0 {
            self.extrapolated_acc += self.ff_pending_insts as f64 * cpi;
            self.ff_pending_insts = 0;
        }
        let extrapolated_cycles = self.extrapolated_acc.round() as u64;
        let mut min_cpi = f64::INFINITY;
        let mut max_cpi = 0.0f64;
        let mut measured_intervals = 0u32;
        for &(i, c) in &self.detail_spans {
            if i > 0 {
                let v = c as f64 / i as f64;
                min_cpi = min_cpi.min(v);
                max_cpi = max_cpi.max(v);
                measured_intervals += 1;
            }
        }
        let spread = if measured_intervals >= 2 && cpi > 0.0 {
            (max_cpi - min_cpi) / cpi
        } else {
            0.0
        };
        let total = detail_cycles + extrapolated_cycles;
        let share = if total > 0 {
            extrapolated_cycles as f64 / total as f64
        } else {
            0.0
        };
        // Side-cache (DUCATI) divergence: how far the functional
        // fast-forward hit rate drifted from the detailed one, weighted
        // by the extrapolated share. Zero when no side cache is
        // attached or it was never consulted.
        let hr = |hits: u64, lookups: u64| {
            if lookups > 0 {
                hits as f64 / lookups as f64
            } else {
                0.0
            }
        };
        let sc_divergence = if self.sc_detail_lookups > 0 && self.sc_ff_lookups > 0 {
            (hr(self.sc_detail_hits, self.sc_detail_lookups)
                - hr(self.sc_ff_hits, self.sc_ff_lookups))
            .abs()
        } else {
            0.0
        };
        Some(SamplingMeta {
            warmup_window: cfg.warmup,
            detail_window: cfg.detail,
            fastforward_window: cfg.fastforward,
            detail_intervals: self.detail_spans.len() as u64,
            warmup_insts: self.warmup_insts_acc,
            detail_insts,
            fastforward_insts: self.ff_insts_acc,
            warmup_cycles: self.warmup_cycles,
            detail_cycles,
            fastforward_cycles: self.ff_cycles,
            extrapolated_cycles,
            measured_cycles: t_end,
            error_bound_pct: spread * share * 100.0,
            side_cache_error_bound_pct: sc_divergence * share * 100.0,
            checkpoint_restored: self.checkpoint_restored,
        })
    }

    /// Records one epoch sample at `now` and arms the next period
    /// boundary. Sparse phases may skip whole periods (the sampler
    /// fires on the first event at or after a boundary), so epochs are
    /// spaced *at least* `epoch_len` cycles apart.
    fn snapshot_epoch(&mut self, now: Cycle) {
        let snap = self.epoch_snapshot(now);
        self.epochs.push(snap);
        self.next_epoch = (now / self.epoch_len + 1) * self.epoch_len;
    }

    /// A cumulative counter snapshot at `cycle`. Reads the same
    /// sources `finalize` aggregates into [`RunStats`], so the final
    /// snapshot (taken at `t_end`) equals the run totals field for
    /// field — the invariant `export::check_epoch_invariants` gates.
    fn epoch_snapshot(&self, cycle: Cycle) -> EpochStats {
        let mut l1 = gtr_sim::stats::HitMiss::new();
        let mut lds = gtr_sim::stats::HitMiss::new();
        let mut lds_resident = 0u64;
        for cu in &self.cus {
            l1.merge(cu.l1_tlb.stats());
            lds.merge(cu.tx_lds.stats().tx.lookups);
            lds_resident += cu.tx_lds.resident() as u64;
        }
        let mut ic = gtr_sim::stats::HitMiss::new();
        let mut ic_resident = 0u64;
        for icache in &self.shared.icaches {
            ic.merge(icache.stats().tx.lookups);
            ic_resident += icache.resident_tx() as u64;
        }
        let l2 = self.shared.l2_tlb.stats();
        EpochStats {
            cycle,
            translation_requests: self.translation_requests,
            l1_hits: l1.hits,
            l1_misses: l1.misses,
            l2_hits: l2.hits,
            l2_misses: l2.misses,
            lds_tx_hits: lds.hits,
            lds_tx_misses: lds.misses,
            ic_tx_hits: ic.hits,
            ic_tx_misses: ic.misses,
            page_walks: self.shared.iommu.walks(),
            instructions: self.instructions,
            dram_accesses: self.shared.mem.dram().reads() + self.shared.mem.dram().writes(),
            resident_tx: lds_resident + ic_resident,
            lds_resident_tx: lds_resident,
            ic_resident_tx: ic_resident,
        }
    }

    /// Reads the cumulative counters the per-tenant attribution deltas
    /// against — the same sources `epoch_snapshot` and `finalize`
    /// aggregate, so the tenancy sums-to-globals invariant holds by
    /// construction.
    fn tenant_snapshot(&self) -> TenantSnap {
        let mut s = TenantSnap {
            requests: self.translation_requests,
            walks: self.shared.iommu.walks(),
            ..TenantSnap::default()
        };
        for cu in &self.cus {
            let l1 = cu.l1_tlb.stats();
            s.l1_hits += l1.hits;
            s.l1_misses += l1.misses;
            let lds = cu.tx_lds.stats().tx.lookups;
            s.lds_hits += lds.hits;
            s.lds_misses += lds.misses;
        }
        for ic in &self.shared.icaches {
            let tx = ic.stats().tx.lookups;
            s.ic_hits += tx.hits;
            s.ic_misses += tx.misses;
        }
        let l2 = self.shared.l2_tlb.stats();
        s.l2_hits += l2.hits;
        s.l2_misses += l2.misses;
        s
    }

    /// Credits the counter movement since the last kernel boundary to
    /// the retired kernel's tenant. Called from [`Self::run`] only when
    /// `tenancy_on`; the accumulator grows on demand and is padded to
    /// the configured tenant count in `finalize`.
    fn attribute_kernel_to_tenant(&mut self, kernel: &KernelDesc, cycles: Cycle, instructions: u64) {
        let snap = self.tenant_snapshot();
        let prev = self.last_tenant_snap;
        self.last_tenant_snap = snap;
        let idx = kernel.vm_id().raw() as usize;
        if self.tenant_acc.len() <= idx {
            self.tenant_acc.resize_with(idx + 1, TenantStats::default);
        }
        let t = &mut self.tenant_acc[idx];
        if t.app.is_empty() {
            t.app = kernel.name().to_string();
        }
        t.cycles += cycles;
        t.instructions += instructions;
        t.translation_requests += snap.requests - prev.requests;
        t.l1_tlb.hits += snap.l1_hits - prev.l1_hits;
        t.l1_tlb.misses += snap.l1_misses - prev.l1_misses;
        t.lds_tx.hits += snap.lds_hits - prev.lds_hits;
        t.lds_tx.misses += snap.lds_misses - prev.lds_misses;
        t.ic_tx.hits += snap.ic_hits - prev.ic_hits;
        t.ic_tx.misses += snap.ic_misses - prev.ic_misses;
        t.l2_tlb.hits += snap.l2_hits - prev.l2_hits;
        t.l2_tlb.misses += snap.l2_misses - prev.l2_misses;
        t.page_walks += snap.walks - prev.walks;
    }

    fn finalize(&mut self, app: &AppTrace, t_end: Cycle, kernels: Vec<KernelStats>) -> RunStats {
        self.sample_peak_entries();
        let sampling_meta = self.finish_sampling(t_end);
        if self.epoch_len > 0 {
            // The closing snapshot at t_end makes the last epoch equal
            // the run totals (deduplicated if the final event already
            // landed exactly on a period boundary).
            let snap = self.epoch_snapshot(t_end);
            if self.epochs.last() != Some(&snap) {
                self.epochs.push(snap);
            }
        }
        self.trace.flush();
        let mut l1 = gtr_sim::stats::HitMiss::new();
        let mut lds_tx = gtr_sim::stats::HitMiss::new();
        let mut lds_req = Sampler::new();
        let mut lds_idle = Sampler::new();
        for (cu, alloc) in self.cus.iter().zip(&self.lds_allocs) {
            l1.merge(cu.l1_tlb.stats());
            lds_tx.merge(cu.tx_lds.stats().tx.lookups);
            for &v in alloc.request_sizes().samples() {
                lds_req.record(v);
            }
            for &v in cu.lds_port.idle_gaps().samples() {
                lds_idle.record(v);
            }
        }
        let mut ic_tx = gtr_sim::stats::HitMiss::new();
        let mut inst_fetch = gtr_sim::stats::HitMiss::new();
        let mut ic_idle = Sampler::new();
        for ic in &self.shared.icaches {
            ic_tx.merge(ic.stats().tx.lookups);
            inst_fetch.merge(ic.stats().inst);
            for &v in ic.port().idle_gaps().samples() {
                ic_idle.record(v);
            }
        }
        let mut util = Sampler::new();
        for k in &kernels {
            util.record(k.icache_utilization_pct);
        }
        let shared = if self.vpn_cus.is_empty() {
            0.0
        } else {
            self.vpn_cus.values().filter(|m| m.count_ones() > 1).count() as f64
                / self.vpn_cus.len() as f64
        };
        // Entries still resident stay censored: only completed
        // lifetimes made it into the histograms.
        let obs = std::mem::take(&mut self.obs);
        let coalescing = self.reach.tlb_coalescing.map(|_| {
            let mut co = self.shared.l2_tlb.coalescing_counters();
            for cu in &self.cus {
                co.merge(&cu.l1_tlb.coalescing_counters());
                co.merge(&cu.tx_lds.stats().tx.coalescing);
            }
            for ic in &self.shared.icaches {
                co.merge(&ic.stats().tx.coalescing);
            }
            crate::stats::CoalescingStats::from_counters(&co)
        });
        let tenants = if let Some(tc) = self.reach.tenancy {
            // Pad to the configured tenant count (a tenant whose
            // workload never launched still appears, zeroed) and stamp
            // the VM-IDs the index order implies.
            if self.tenant_acc.len() < tc.tenants as usize {
                self.tenant_acc.resize_with(tc.tenants as usize, TenantStats::default);
            }
            for (i, t) in self.tenant_acc.iter_mut().enumerate() {
                t.vmid = i as u8;
            }
            std::mem::take(&mut self.tenant_acc)
        } else {
            Vec::new()
        };
        RunStats {
            app: app.name().to_string(),
            // A sampled run reports detail cycles + CPI extrapolation
            // over the skipped windows (the paper-scale estimate); the
            // raw event-clock end lives in `sampling.measured_cycles`.
            total_cycles: match &sampling_meta {
                Some(m) if m.detail_insts > 0 => m.detail_cycles + m.extrapolated_cycles,
                _ => t_end,
            },
            instructions: self.instructions,
            thread_instructions: self.instructions * self.gpu.threads_per_wave as u64,
            translation_requests: self.translation_requests,
            l1_tlb: l1,
            l2_tlb: self.shared.l2_tlb.stats(),
            lds_tx,
            ic_tx,
            inst_fetch,
            page_walks: self.shared.iommu.walks(),
            pte_accesses: self.shared.iommu.stats().pte_accesses,
            dev_l1_tlb: self.shared.iommu.stats().dev_l1,
            dev_l2_tlb: self.shared.iommu.stats().dev_l2,
            pwc_pmd: self.shared.iommu.pwc_stats().2,
            dram_accesses: self.shared.mem.dram().reads() + self.shared.mem.dram().writes(),
            dram_energy_nj: self.shared.mem.dram_energy_nj(t_end),
            peak_tx_entries: self.peak_tx_entries,
            tx_shared_fraction: shared,
            kernels,
            lds_request_summary: lds_req.five_number_summary(),
            lds_idle_summary: lds_idle.five_number_summary(),
            icache_idle_summary: ic_idle.five_number_summary(),
            icache_utilization_summary: util.five_number_summary(),
            epoch_len: self.epoch_len,
            epochs: std::mem::take(&mut self.epochs),
            attribution: CycleAttribution::from_counts(&self.path_stats),
            dist_enabled: self.obs_on,
            latency_hists: obs.lat,
            iommu_latency: obs.iommu_lat,
            victim_lifetime_lds: obs.victim.lifetime_lds,
            victim_lifetime_ic: obs.victim.lifetime_ic,
            victim_reuse_lds: obs.victim.reuse_lds,
            victim_reuse_ic: obs.victim.reuse_ic,
            sampling: sampling_meta,
            tenants,
            coalescing,
        }
    }
}

impl System {
    /// Diagnostic summary of component occupancy (for calibration and
    /// bottleneck analysis; not part of the stable API surface).
    pub fn debug_busy(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "l2_tlb_port intervals={} | walks={}\n",
            self.shared.l2_port.interval_count(),
            self.shared.iommu.walks(),
        ));
        for (i, cu) in self.cus.iter().enumerate() {
            out.push_str(&format!(
                "cu{i}: l1port busy={} req={} ldsport acc={} pending={}\n",
                cu.l1_port.busy_cycles(),
                cu.l1_port.requests(),
                cu.lds_port.accesses(),
                cu.pending.len(),
            ));
        }
        for (i, ic) in self.shared.icaches.iter().enumerate() {
            out.push_str(&format!("ic{i}: port acc={}\n", ic.port().accesses()));
        }
        let names = ["l1hit", "merged", "lds", "ic", "l2", "walk"];
        for (i, (c, sum)) in self.path_stats.iter().enumerate() {
            if *c > 0 {
                out.push_str(&format!("path {}: n={} avg={}\n", names[i], c, sum / c));
            }
        }
        out.push_str(&format!(
            "oplat avg={} n={} | fetchwait avg={} n={}\n",
            self.op_latency_sum / self.op_count.max(1),
            self.op_count,
            self.fetch_wait_sum / self.fetch_count.max(1),
            self.fetch_count,
        ));
        out.push_str(&format!(
            "txlat avg={} max={}\n",
            self.tx_latency_sum / self.translation_requests.max(1),
            self.tx_latency_max,
        ));
        out.push_str(&format!(
            "dram reads={} writes={} rowhit={:.2} | merged={} treq={}\n",
            self.shared.mem.dram().reads(),
            self.shared.mem.dram().writes(),
            self.shared.mem.dram().row_hit_rate(),
            self.merged_requests,
            self.translation_requests,
        ));
        out
    }

}

/// Convenience: run `app` under `reach` on a default Table-1 machine.
pub fn run_app(app: &AppTrace, reach: ReachConfig) -> RunStats {
    System::new(GpuConfig::default(), reach).run(app)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtr_gpu::kernel::{WaveProgram, WorkgroupDesc};

    fn simple_app(pages: u64, ops_per_wave: usize, waves: usize) -> AppTrace {
        // Each op reads 64 lanes scattered over `pages` pages.
        let mut progs = Vec::new();
        for w in 0..waves {
            let ops = (0..ops_per_wave)
                .map(|i| {
                    let base = ((w * ops_per_wave + i) as u64 * 64) % pages * 4096;
                    Op::global_read_strided(base, 4096, 64)
                })
                .collect();
            progs.push(WaveProgram::new(ops));
        }
        let wgs = progs
            .chunks(4)
            .map(|c| WorkgroupDesc::new(c.to_vec()))
            .collect();
        AppTrace::new("test", vec![KernelDesc::new("k", 8, 0, wgs)])
    }

    #[test]
    fn runs_to_completion_and_counts() {
        let app = simple_app(256, 4, 8);
        let stats = run_app(&app, ReachConfig::baseline());
        assert!(stats.total_cycles > 0);
        assert_eq!(stats.instructions, app.total_ops());
        assert!(stats.translation_requests > 0);
        assert!(stats.page_walks > 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let app = simple_app(512, 8, 16);
        let a = run_app(&app, ReachConfig::ic_plus_lds());
        let b = run_app(&app, ReachConfig::ic_plus_lds());
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.page_walks, b.page_walks);
        assert_eq!(a.dram_accesses, b.dram_accesses);
    }

    #[test]
    fn victim_structures_reduce_page_walks_when_thrashing() {
        // Footprint far beyond L1 (32) and L2 (512) TLB reach, revisited
        // repeatedly: the victim structures should capture the reuse.
        let pages = 2048u64;
        let mut progs = Vec::new();
        for w in 0..16usize {
            let mut ops = Vec::new();
            for rep in 0..6 {
                let _ = rep;
                for i in 0..8usize {
                    let first = (w * 8 + i) as u64 * 97 % pages;
                    ops.push(Op::global_read_strided(first * 4096, 4096 * 8, 64));
                }
            }
            progs.push(WaveProgram::new(ops));
        }
        let wgs = progs.chunks(4).map(|c| WorkgroupDesc::new(c.to_vec())).collect();
        let app = AppTrace::new("thrash", vec![KernelDesc::new("k", 8, 0, wgs)]);
        let base = run_app(&app, ReachConfig::baseline());
        let reach = run_app(&app, ReachConfig::ic_plus_lds());
        assert!(
            reach.page_walks < base.page_walks,
            "victim caching should cut walks: base={} reach={}",
            base.page_walks,
            reach.page_walks
        );
        assert!(reach.victim_hits() > 0);
    }

    #[test]
    fn baseline_unaffected_structures_stay_empty() {
        let app = simple_app(64, 2, 4);
        let mut sys = System::new(GpuConfig::default(), ReachConfig::baseline());
        let stats = sys.run(&app);
        assert_eq!(stats.victim_hits(), 0);
        assert_eq!(stats.peak_tx_entries, 0);
    }

    #[test]
    fn lds_using_workgroups_block_tx_capacity() {
        // One workgroup per CU holding the whole LDS: Tx inserts bypass.
        let wave = WaveProgram::new(vec![
            Op::lds_write(0),
            Op::global_read_strided(0, 4096, 64),
            Op::lds_read(0),
        ]);
        let wgs = (0..8).map(|_| WorkgroupDesc::new(vec![wave.clone()])).collect();
        let app = AppTrace::new("ldsy", vec![KernelDesc::new("k", 4, 16 * 1024, wgs)]);
        let stats = run_app(&app, ReachConfig::lds_only());
        assert_eq!(stats.lds_tx.hits, 0, "whole LDS app-owned: no tx capacity");
    }

    #[test]
    fn barrier_synchronizes_waves() {
        let fast = WaveProgram::new(vec![Op::compute(1), Op::Barrier, Op::compute(1)]);
        let slow = WaveProgram::new(vec![Op::compute(10_000), Op::Barrier, Op::compute(1)]);
        let app = AppTrace::new(
            "bar",
            vec![KernelDesc::new("k", 1, 0, vec![WorkgroupDesc::new(vec![fast, slow])])],
        );
        let stats = run_app(&app, ReachConfig::baseline());
        assert!(stats.total_cycles >= 10_000, "fast wave must wait at the barrier");
    }

    #[test]
    fn larger_l2_tlb_reduces_walks() {
        let app = simple_app(4096, 16, 32);
        let small = System::new(GpuConfig::default(), ReachConfig::baseline()).run(&app);
        let big = System::new(
            GpuConfig::default().with_l2_tlb_entries(64 * 1024),
            ReachConfig::baseline(),
        )
        .run(&app);
        assert!(big.page_walks < small.page_walks);
        // Cycle time may wobble slightly from second-order interleaving
        // effects; allow 5% slack on top of the walk reduction.
        assert!(big.total_cycles as f64 <= small.total_cycles as f64 * 1.05);
    }

    #[test]
    fn tenant_sums_telescope_to_globals_under_every_policy() {
        use gtr_vm::tenancy::SharingPolicy;
        let solo = simple_app(512, 8, 16);
        for policy in SharingPolicy::all() {
            let app = AppTrace::replicate(&solo, 2);
            let stats = run_app(&app, ReachConfig::ic_plus_lds().with_tenancy(2, policy));
            assert_eq!(stats.tenants.len(), 2, "{policy}: one record per tenant");
            assert!(
                stats.tenants.iter().all(|t| t.instructions > 0 && t.cycles > 0),
                "{policy}: both tenants executed"
            );
            let problems = crate::export::check_tenancy_invariants(&stats);
            assert!(problems.is_empty(), "{policy}: {problems:?}");
        }
    }

    #[test]
    fn single_tenant_run_matches_untenanted_bit_for_bit() {
        use gtr_vm::tenancy::SharingPolicy;
        let app = simple_app(512, 8, 16);
        let base = run_app(&app, ReachConfig::ic_plus_lds());
        let untenanted = crate::export::run_stats_to_json_string(&base);
        for policy in SharingPolicy::all() {
            let mut t1 = run_app(&app, ReachConfig::ic_plus_lds().with_tenancy(1, policy));
            assert_eq!(t1.tenants.len(), 1, "{policy}");
            assert_eq!(t1.tenants[0].instructions, t1.instructions, "{policy}");
            // After dropping the per-tenant appendix, the export must
            // be byte-identical to the tenancy-off run: one tenant
            // shares nothing, partitions nothing, and sub-entry masks
            // collapse to plain vmid tags.
            t1.tenants.clear();
            assert_eq!(
                crate::export::run_stats_to_json_string(&t1),
                untenanted,
                "{policy}: single-tenant run must not perturb the model"
            );
        }
    }

    #[test]
    fn shootdowns_attributed_to_the_owning_tenant() {
        use crate::driver::MigrationEvent;
        use gtr_vm::addr::VmId;
        use gtr_vm::tenancy::SharingPolicy;
        let app = AppTrace::replicate(&simple_app(256, 4, 8), 2);
        // Migrate pages only in tenant 1's address space, triggered
        // deep enough into the run that tenant 1's kernel (launched
        // second) has demand-mapped them.
        let schedule = DriverSchedule::new().migrate(MigrationEvent {
            after_translations: 3000,
            pages: (0..16).map(|v| (VmId::new(1), Vpn(v))).collect(),
        });
        let mut sys = System::new(
            GpuConfig::default(),
            ReachConfig::ic_plus_lds().with_tenancy(2, SharingPolicy::SubEntry),
        )
        .with_driver_schedule(schedule);
        let stats = sys.run(&app);
        let report = sys.shootdown_report();
        assert!(report.pages_migrated > 0, "some touched pages migrated");
        assert_eq!(stats.tenants[0].shootdowns, 0);
        assert_eq!(stats.tenants[1].shootdowns, report.pages_migrated);
        sys.check_translation_coherence();
    }

    #[test]
    fn kernel_stats_cover_all_launches() {
        let k = |n: &str| {
            KernelDesc::new(
                n,
                4,
                0,
                vec![WorkgroupDesc::new(vec![WaveProgram::new(vec![Op::compute(1)])])],
            )
        };
        let app = AppTrace::new("multi", vec![k("a"), k("b"), k("a")]);
        let stats = run_app(&app, ReachConfig::ic_plus_lds());
        assert_eq!(stats.kernels.len(), 3);
        assert_eq!(stats.kernels[0].name, "a");
        assert!(stats.kernels.iter().all(|k| k.cycles > 0));
    }
}
