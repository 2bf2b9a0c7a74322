//! # gtr-core
//!
//! The primary contribution of *"Increasing GPU Translation Reach by
//! Leveraging Under-Utilized On-Chip Resources"* (MICRO'21): a
//! reconfigurable architecture that opportunistically stores L1-TLB
//! victim translations in idle LDS segments and idle I-cache lines,
//! organized as a victim cache between the L1 and L2 TLBs.
//!
//! * [`config`] — the [`config::ReachConfig`] knob set (which
//!   structures participate, packing density, replacement policy,
//!   kernel-boundary flush, wire latency, LDS segment size).
//! * [`compress`] — base-delta tag compression (Figs 7 and 10c).
//! * [`tx_ways`] — the victim-store core both reconfigurable
//!   structures share: way groups under one compressed tag, lookup,
//!   fill, shootdown, tenancy and coalesced spans.
//! * [`lds_tx`] — reconfigurable LDS: 32-byte segments with mode bits,
//!   co-located compressed tags + 3-way translation storage (§4.2).
//! * [`icache_tx`] — reconfigurable I-cache: per-line mode bits,
//!   direct-mapped Tx indexing, 1 or 8 translations per line,
//!   instruction-aware replacement, kernel-boundary flush (§4.3).
//! * [`driver`] — runtime page migrations + TLB shootdowns (§7.1).
//! * [`obs`] — opt-in distribution recording (per-path latency
//!   histograms, IOMMU walk-latency tagging, victim-entry
//!   lifetime/reuse tracking) behind the schema-v2 stats export.
//! * [`victim`] — the fill/lookup flows of Figure 12.
//! * [`system`] — the full timing simulator (CUs, wavefronts, TLBs,
//!   IOMMU, caches, DRAM) that every experiment harness drives.
//! * [`stats`] — per-run and per-kernel measurements behind every
//!   figure in the paper.
//!
//! # Example: baseline vs reconfigurable run
//!
//! ```
//! use gtr_core::config::ReachConfig;
//! use gtr_core::system::System;
//! use gtr_gpu::config::GpuConfig;
//! use gtr_gpu::kernel::{AppTrace, KernelDesc, WaveProgram, WorkgroupDesc};
//! use gtr_gpu::ops::Op;
//!
//! let wave = WaveProgram::new(vec![Op::global_read_strided(0, 4096, 64)]);
//! let app = AppTrace::new(
//!     "tiny",
//!     vec![KernelDesc::new("k", 4, 0, vec![WorkgroupDesc::new(vec![wave])])],
//! );
//! let base = System::new(GpuConfig::default(), ReachConfig::baseline()).run(&app);
//! let reach = System::new(GpuConfig::default(), ReachConfig::ic_plus_lds()).run(&app);
//! assert!(reach.total_cycles <= base.total_cycles * 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod checkpoint;
pub mod compress;
pub mod config;
pub mod driver;
pub mod export;
pub mod icache_tx;
pub mod lds_tx;
pub mod obs;
pub mod stats;
pub mod system;
pub mod tx_ways;
pub mod victim;
