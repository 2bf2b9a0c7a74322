//! TLB shootdown plumbing (§7.1 of the paper).
//!
//! The GPU driver enqueues a PM4-like command packet; the packet
//! processor parses it and broadcasts the victim VPN to every structure
//! that may cache the translation — the TLBs *and*, with the
//! reconfigurable architecture, the LDS and I-cache controllers.
//!
//! Under multi-tenancy ([`crate::tenancy`]) the shootdown key carries
//! the shooting tenant's VM-ID, so a broadcast only invalidates that
//! tenant's visibility: full-key-tagged structures drop exactly the
//! matching entry, and sub-entry-shared structures (arXiv 2404.18361
//! §4.3) clear one bit of the shared entry's per-tenant valid mask,
//! leaving co-sharers hitting. This is what makes tenant churn — one
//! client's pages migrating mid-kernel — an *isolation* stress rather
//! than a broadcast flush: see the shootdown-storm scenario in
//! EXPERIMENTS.md and `examples/shootdown_storm.rs`.

use gtr_sim::Cycle;

use crate::addr::TranslationKey;

/// A structure that can invalidate cached translations.
///
/// Implemented by TLBs, the IOMMU, and the reconfigurable LDS/I-cache
/// controllers in `gtr-core`.
pub trait TranslationSink {
    /// Invalidates `key`; returns `true` if an entry was present.
    fn shootdown(&mut self, key: TranslationKey) -> bool;

    /// A short name for diagnostics.
    fn sink_name(&self) -> &'static str {
        "sink"
    }
}

impl TranslationSink for crate::tlb::Tlb {
    fn shootdown(&mut self, key: TranslationKey) -> bool {
        self.invalidate(key)
    }

    fn sink_name(&self) -> &'static str {
        "tlb"
    }
}

impl TranslationSink for crate::iommu::Iommu {
    fn shootdown(&mut self, key: TranslationKey) -> bool {
        self.invalidate(key);
        true
    }

    fn sink_name(&self) -> &'static str {
        "iommu"
    }
}

/// Latency parameters of the shootdown command path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShootdownConfig {
    /// Driver → command-queue enqueue latency.
    pub enqueue_latency: Cycle,
    /// Packet-processor parse latency.
    pub parse_latency: Cycle,
    /// Per-sink broadcast/invalidate latency.
    pub per_sink_latency: Cycle,
}

impl Default for ShootdownConfig {
    fn default() -> Self {
        Self { enqueue_latency: 500, parse_latency: 100, per_sink_latency: 20 }
    }
}

/// Outcome of one shootdown broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShootdownOutcome {
    /// Cycle the shootdown fully completed.
    pub done: Cycle,
    /// Sinks that actually held the translation.
    pub sinks_hit: usize,
    /// Sinks probed.
    pub sinks_probed: usize,
}

/// Executes a shootdown of `key` across `sinks`, charging the PM4
/// command-path latencies serially per sink (the packet processor
/// notifies controllers one at a time).
pub fn run_shootdown(
    now: Cycle,
    key: TranslationKey,
    config: &ShootdownConfig,
    sinks: &mut [&mut dyn TranslationSink],
) -> ShootdownOutcome {
    let mut t = now + config.enqueue_latency + config.parse_latency;
    let mut hit = 0;
    for sink in sinks.iter_mut() {
        t += config.per_sink_latency;
        if sink.shootdown(key) {
            hit += 1;
        }
    }
    ShootdownOutcome { done: t, sinks_hit: hit, sinks_probed: sinks.len() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Ppn, Translation, Vpn};
    use crate::tlb::{Tlb, TlbConfig};

    fn k(v: u64) -> TranslationKey {
        TranslationKey::for_vpn(Vpn(v))
    }

    #[test]
    fn shootdown_invalidates_all_sinks() {
        let mut a = Tlb::new(TlbConfig::fully_associative(4, 1));
        let mut b = Tlb::new(TlbConfig::fully_associative(4, 1));
        a.insert(Translation::new(k(7), Ppn(1)));
        b.insert(Translation::new(k(7), Ppn(1)));
        let cfg = ShootdownConfig::default();
        let out = run_shootdown(0, k(7), &cfg, &mut [&mut a, &mut b]);
        assert_eq!(out.sinks_hit, 2);
        assert_eq!(out.sinks_probed, 2);
        assert!(a.lookup(k(7)).is_none());
        assert!(b.lookup(k(7)).is_none());
    }

    #[test]
    fn latency_scales_with_sink_count() {
        let cfg = ShootdownConfig { enqueue_latency: 10, parse_latency: 5, per_sink_latency: 3 };
        let mut a = Tlb::new(TlbConfig::fully_associative(2, 1));
        let mut b = Tlb::new(TlbConfig::fully_associative(2, 1));
        let mut c = Tlb::new(TlbConfig::fully_associative(2, 1));
        let out = run_shootdown(100, k(1), &cfg, &mut [&mut a, &mut b, &mut c]);
        assert_eq!(out.done, 100 + 10 + 5 + 3 * 3);
        assert_eq!(out.sinks_hit, 0);
    }

    #[test]
    fn absent_key_reports_zero_hits() {
        let mut a = Tlb::new(TlbConfig::fully_associative(2, 1));
        a.insert(Translation::new(k(1), Ppn(1)));
        let out = run_shootdown(0, k(2), &ShootdownConfig::default(), &mut [&mut a]);
        assert_eq!(out.sinks_hit, 0);
        assert!(a.lookup(k(1)).is_some(), "other entries untouched");
    }
}
