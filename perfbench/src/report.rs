//! The metric vocabulary: every end-to-end and per-layer metric the
//! benchmark reports, with its unit, in `BENCHMARK.json` order.

use std::collections::HashMap;

use crate::measure::Metric;

/// End-to-end metrics (untraced runs, `--trace 0`).
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("hot_p50_ms", "ms"),
    ("hot_p99_ms", "ms"),
    ("cold_p50_ms", "ms"),
];

/// Per-layer metrics (traced runs, `--trace 1`), named by module.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("workloads.tracegen_ms", "ms"),
    ("serve.resolve_ms", "ms"),
    ("serve.batch_us", "us"),
    ("serve.cache_hits", "count"),
    ("serve.coalesced", "count"),
    ("serve.simulations", "count"),
    ("serve.result_decode_us", "us"),
    ("system.cell_ms_sum", "ms"),
    ("system.ns_per_inst", "ns"),
    ("system.ns_per_translation", "ns"),
    ("system.insts", "count"),
    ("system.translations", "count"),
    ("system.sim_cycles", "cycles"),
    ("tlb.lookup_ns", "ns"),
    ("tlb.insert_ns", "ns"),
    ("tlb.ms_per_cell", "ms"),
    ("tlb.l1_hits", "count"),
    ("tlb.l1_misses", "count"),
    ("tlb.l2_hits", "count"),
    ("tlb.l2_misses", "count"),
    ("tlb.invalidate_ns", "ns"),
    ("tlb.shootdowns", "count"),
    ("tlb.coalesced_hits", "count"),
    ("tlb.shootdown_splits", "count"),
    ("coalescer.assign_ns", "ns"),
    ("coalescer.pages_per_op", "pages/op"),
    ("coalescer.ms_per_cell", "ms"),
    ("lds_tx.lookup_ns", "ns"),
    ("lds_tx.insert_ns", "ns"),
    ("lds_tx.ms_per_cell", "ms"),
    ("lds_tx.hits", "count"),
    ("lds_tx.misses", "count"),
    ("lds_tx.hit_ratio", "ratio"),
    ("icache_tx.lookup_ns", "ns"),
    ("icache_tx.insert_ns", "ns"),
    ("icache_tx.ms_per_cell", "ms"),
    ("icache_tx.hits", "count"),
    ("icache_tx.misses", "count"),
    ("icache_tx.hit_ratio", "ratio"),
    ("icache_tx.fetch_misses", "count"),
    ("iommu.walk_ns", "ns"),
    ("iommu.ms_per_cell", "ms"),
    ("iommu.walks", "count"),
    ("iommu.pte_accesses", "count"),
    ("iommu.pwc_hit_ratio", "ratio"),
    ("mem.dram_accesses", "count"),
    ("harness.pool_idle_s", "s"),
    ("checkpoint.capture_ms", "ms"),
    ("checkpoint.restore_ms", "ms"),
    ("checkpoint.bytes", "bytes"),
    ("export.encode_us", "us"),
    ("export.decode_us", "us"),
    ("export.doc_bytes", "bytes"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("trace.events", "count"),
];

/// Measured values by metric name; [`Values::metrics`] lays them out
/// in vocabulary order. A per-layer metric a workload does not
/// exercise reads 0.
#[derive(Debug, Default)]
pub struct Values(HashMap<&'static str, f64>);

impl Values {
    /// Sets one value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The metrics of `vocabulary`, in order.
    pub fn metrics(&self, vocabulary: &[(&'static str, &'static str)]) -> Vec<Metric> {
        vocabulary
            .iter()
            .map(|&(name, unit)| Metric::new(name, unit, self.0.get(name).copied().unwrap_or(0.0)))
            .collect()
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "duplicate metric name");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }

    #[test]
    fn unset_metrics_read_zero_in_vocabulary_order() {
        let mut v = Values::default();
        v.set("wall_s", 2.5);
        let m = v.metrics(&END_TO_END);
        assert_eq!(m.len(), END_TO_END.len());
        assert_eq!((m[1].name, m[1].value), ("wall_s", 2.5));
        assert_eq!(m[0].value, 0.0);
    }

    #[test]
    #[should_panic(expected = "unknown metric")]
    fn unknown_names_are_refused() {
        Values::default().set("no.such_metric", 1.0);
    }
}

#[cfg(test)]
mod benchmark_json {
    use super::*;
    use gtr_sim::json::Json;

    /// `BENCHMARK.json` at the repository root lists exactly this
    /// vocabulary, in this order, with these units.
    #[test]
    fn benchmark_json_matches_the_vocabulary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("valid JSON");
        for (key, vocabulary) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(&str, &str)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).expect("name"),
                        m.get("unit").and_then(Json::as_str).expect("unit"),
                    )
                })
                .collect();
            assert_eq!(listed, vocabulary, "{key}");
        }
    }
}
