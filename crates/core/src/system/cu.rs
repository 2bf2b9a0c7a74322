//! Per-compute-unit state and wavefront runtime records.
//!
//! Everything in this module is private to one CU: its L1 TLB and
//! port, the in-flight miss table, its L1 data cache, its
//! reconfigurable LDS, and its SIMD issue pipelines. A CU shard may
//! mutate this state freely without synchronizing — only the
//! [`SharedHierarchy`](super::shared::SharedHierarchy) boundary
//! requires the deterministic epoch-barrier merge (ARCHITECTURE §8).

use gtr_gpu::config::GpuConfig;
use gtr_gpu::dispatch::Placement;
use gtr_mem::cache::Cache;
use gtr_sim::divisor::Divisor;
use gtr_sim::fastmap::FastMap;
use gtr_sim::resource::{Pipeline, Server, TrackedPort};
use gtr_sim::Cycle;
use gtr_vm::addr::{Ppn, TranslationKey};
use gtr_vm::tlb::Tlb;

use crate::config::ReachConfig;
use crate::lds_tx::TxLds;

/// Per-CU state.
#[derive(Debug)]
pub(super) struct Cu {
    pub(super) l1_tlb: Tlb,
    pub(super) l1_port: Server,
    /// In-flight L1 misses (for request merging). Open-addressed and
    /// pre-sized: probed on every translation, so SipHash and rehash
    /// stalls are off the critical path.
    pub(super) pending: FastMap<TranslationKey, (Cycle, Ppn)>,
    pub(super) l1d: Cache,
    pub(super) tx_lds: TxLds,
    pub(super) lds_port: TrackedPort,
    pub(super) simds: Vec<Pipeline>,
    pub(super) next_simd: usize,
    /// The I-cache this CU fetches through (`cu / cus_per_icache`).
    pub(super) ic_idx: usize,
    /// The CU count, dividing a VPN into its home CU under LDS
    /// home-node hashing (`System::lds_home`).
    pub(super) homes: Divisor,
}

impl Cu {
    /// Builds cold compute unit `idx` for the machine configuration.
    /// With `reach.tenancy` set, the CU's L1 TLB and reconfigurable
    /// LDS are born under that sharing policy (TENANCY.md §3).
    pub(super) fn new(idx: usize, gpu: &GpuConfig, reach: &ReachConfig) -> Self {
        let mut l1_tlb = Tlb::new(gpu.l1_tlb);
        let mut tx_lds = TxLds::new(gpu.lds_bytes, reach.segment_size).with_index_shift(
            if reach.lds_home_hashing {
                (gpu.cus as u32).trailing_zeros()
            } else {
                0
            },
        );
        if let Some(tenancy) = reach.tenancy {
            l1_tlb.set_tenancy(Some(tenancy));
            tx_lds.set_tenancy(tenancy);
        }
        if let Some(max) = reach.tlb_coalescing {
            l1_tlb.set_coalescing(Some(max));
            tx_lds.set_coalescing(Some(max));
        }
        Cu {
            l1_tlb,
            l1_port: Server::new(1),
            pending: FastMap::with_capacity(1024),
            l1d: Cache::new(gpu.l1d),
            tx_lds,
            lds_port: TrackedPort::new(),
            simds: (0..gpu.simds_per_cu).map(|_| Pipeline::new(4, 4)).collect(),
            next_simd: 0,
            ic_idx: idx / gpu.cus_per_icache,
            homes: Divisor::new(gpu.cus as u64),
        }
    }
}

/// Where a running kernel's code lives: its first global I-cache line,
/// and its line count, which wraps an instruction's line offset.
#[derive(Debug, Clone, Copy)]
pub(super) struct KernelCode {
    pub(super) base: u64,
    pub(super) lines: Divisor,
}

/// Runtime state of one in-flight wavefront.
#[derive(Debug, Clone)]
pub(super) struct WaveRt {
    pub(super) wg_rt: usize,
    pub(super) kernel_wg: usize,
    pub(super) wave_idx: usize,
    pub(super) cu: usize,
    pub(super) simd: usize,
    pub(super) op_idx: usize,
    pub(super) inst_idx: u64,
    pub(super) cur_line: Option<u64>,
}

/// Runtime state of one in-flight workgroup.
#[derive(Debug, Clone)]
pub(super) struct WgRt {
    pub(super) placement: Placement,
    pub(super) lds_block: Option<(u32, u32)>,
    pub(super) waves_total: usize,
    pub(super) waves_done: usize,
    pub(super) barrier_arrived: usize,
    pub(super) parked: Vec<usize>,
}

/// Which interval-sampling window the simulation is currently inside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum SampleMode {
    Warmup,
    Detail,
    Fastforward,
}
