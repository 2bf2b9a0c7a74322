//! # gtr-sim
//!
//! Deterministic discrete-event simulation engine underpinning the
//! `gpu-translation-reach` workspace.
//!
//! The engine follows a *resource-reservation* style of timing
//! simulation: model components are passive objects that own a
//! timeline of busy intervals (see [`resource::Server`]), and active
//! entities (wavefronts, page-table walkers, ...) advance by asking
//! components "given that I arrive at cycle `t`, when am I done?".
//! Completion events are ordered through [`event::EventQueue`], which
//! breaks ties with a monotonically increasing sequence number so that
//! simulations are bit-for-bit reproducible.
//!
//! The crate deliberately contains **no** GPU- or VM-specific logic;
//! it only provides:
//!
//! * [`divisor`] — exact division by a run-time invariant divisor
//!   (multiply-high and shifts), precomputed once per structure for
//!   every per-access set, bank, group and tag computation,
//! * [`event`] — a generic time-ordered event queue,
//! * [`fastmap`] — an open-addressed hash map for hot simulation
//!   state (no SipHash overhead, pre-sizable, allocation-free lookups),
//! * [`resource`] — contention models (multi-unit servers, ports with
//!   idle-gap tracking, pipelines),
//! * [`stats`] — counters, log-scale histograms, box-and-whisker
//!   samplers and geometric-mean helpers used by the experiment
//!   harnesses,
//! * [`hist`] — mergeable log-linear latency histograms and
//!   per-component cycle attribution (the distribution-metrics layer
//!   behind the schema-v2 stats export),
//! * [`rng`] — a tiny seeded `SplitMix64` generator so that core
//!   simulation code does not need an external RNG dependency,
//! * [`prof`] — a zero-cost-when-off *host-side* span profiler
//!   (RAII spans, per-worker timeline lanes, Chrome Trace Event
//!   Format writer) for the experiment harness — guest cycles are
//!   covered by [`trace`]/`hist`, host wall/CPU time by this,
//! * [`shard`] — per-shard ordered buffers with a deterministic
//!   epoch-barrier merge (`(cycle, shard, seq)` total order), the
//!   discipline that keeps partitioned simulation bit-reproducible
//!   for any worker count,
//! * [`trace`] — the zero-cost-when-disabled structured-event tracing
//!   hook ([`trace::TraceSink`], JSONL sink, typed lifecycle events),
//! * [`json`] — a dependency-free JSON tree/parser backing the JSONL
//!   trace encoding and the machine-readable stats export.
//!
//! # Example
//!
//! ```
//! use gtr_sim::resource::Server;
//!
//! // Two DMA engines, each transfer takes 100 cycles.
//! let mut dma = Server::new(2);
//! assert_eq!(dma.acquire(0, 100), 100);
//! assert_eq!(dma.acquire(0, 100), 100); // second unit, in parallel
//! assert_eq!(dma.acquire(0, 100), 200); // queues behind the first
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod divisor;
pub mod event;
pub mod fastmap;
pub mod hist;
pub mod json;
pub mod prof;
pub mod resource;
pub mod rng;
pub mod shard;
pub mod stats;
pub mod trace;

/// Simulation time, measured in GPU core cycles.
pub type Cycle = u64;
