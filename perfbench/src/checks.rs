//! Correctness checks every run performs on the program's outputs.
//!
//! Each check compares an output against a property the method must
//! have, or against a total reached by an independent path — never
//! against a stored copy of an earlier run's output. A check returns
//! `Err` with a one-line description of the first violation.

use gtr_core::stats::RunStats;

fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg())
    }
}

/// The six Fig-12 resolution paths partition the translation requests:
/// every request resolves exactly once.
pub fn attribution_partitions_requests(label: &str, s: &RunStats) -> Result<(), String> {
    let paths: u64 = s.attribution.slots.iter().map(|p| p.count).sum();
    ensure(paths == s.translation_requests, || {
        format!(
            "{label}: path counts sum to {paths}, not {} requests",
            s.translation_requests
        )
    })
}

/// Each level of the Fig-12 lookup path is probed no more often than
/// requests missed every level before it: L1 at most once per request,
/// the LDS at most once per unmerged L1 miss, the I-cache at most once
/// per LDS miss, the L2 TLB at most once per I-cache miss, and the
/// IOMMU walks at most once per L2 miss.
pub fn levels_probed_in_order(label: &str, s: &RunStats) -> Result<(), String> {
    let merged = s.attribution.slots[1].count;
    let l1_probes = s.l1_tlb.hits + s.l1_tlb.misses;
    ensure(l1_probes <= s.translation_requests, || {
        format!(
            "{label}: {l1_probes} L1 probes for {} requests",
            s.translation_requests
        )
    })?;
    let past_l1 = s.l1_tlb.misses.checked_sub(merged).ok_or_else(|| {
        format!(
            "{label}: {merged} merged requests exceed {} L1 misses",
            s.l1_tlb.misses
        )
    })?;
    let lds_probes = s.lds_tx.hits + s.lds_tx.misses;
    ensure(lds_probes <= past_l1, || {
        format!("{label}: {lds_probes} LDS probes for {past_l1} unmerged L1 misses")
    })?;
    let past_lds = past_l1 - s.lds_tx.hits.min(past_l1);
    let ic_probes = s.ic_tx.hits + s.ic_tx.misses;
    ensure(ic_probes <= past_lds, || {
        format!("{label}: {ic_probes} I-cache probes for {past_lds} LDS misses")
    })?;
    let past_ic = past_lds - s.ic_tx.hits.min(past_lds);
    let l2_probes = s.l2_tlb.hits + s.l2_tlb.misses;
    ensure(l2_probes <= past_ic, || {
        format!("{label}: {l2_probes} L2 TLB probes for {past_ic} I-cache misses")
    })?;
    ensure(s.page_walks <= s.l2_tlb.misses, || {
        format!(
            "{label}: {} walks for {} L2 TLB misses",
            s.page_walks, s.l2_tlb.misses
        )
    })
}

/// A baseline machine has no reconfigurable structures, so it must
/// never probe the LDS or the I-cache for a translation.
pub fn baseline_makes_no_tx_lookups(label: &str, s: &RunStats) -> Result<(), String> {
    let probes = s.lds_tx.hits + s.lds_tx.misses + s.ic_tx.hits + s.ic_tx.misses;
    ensure(probes == 0, || {
        format!("{label}: baseline made {probes} Tx lookups")
    })
}

/// The reach variants change where translations are found, never what
/// the application executes: instructions and translation requests
/// are identical across the variants of one app.
pub fn variants_execute_the_same_work(app: &str, cells: &[&RunStats]) -> Result<(), String> {
    let Some(first) = cells.first() else {
        return Ok(());
    };
    for s in &cells[1..] {
        ensure(
            s.instructions == first.instructions
                && s.translation_requests == first.translation_requests,
            || {
                format!(
                    "{app}: variants disagree on work ({} insts / {} requests vs {} / {})",
                    s.instructions,
                    s.translation_requests,
                    first.instructions,
                    first.translation_requests
                )
            },
        )?;
    }
    Ok(())
}

/// The paper's mechanism: with both the LDS and the I-cache holding
/// L1 victims, an irregular app makes fewer page walks than baseline.
pub fn victim_caching_saves_walks(
    app: &str,
    baseline: &RunStats,
    ic_lds: &RunStats,
) -> Result<(), String> {
    ensure(ic_lds.page_walks < baseline.page_walks, || {
        format!(
            "{app}: IC+LDS made {} walks, baseline {}",
            ic_lds.page_walks, baseline.page_walks
        )
    })
}

/// Kernels run serially, so per-tenant counters are a partition of
/// the run: each sums to its global counterpart.
pub fn tenants_sum_to_globals(label: &str, s: &RunStats) -> Result<(), String> {
    ensure(!s.tenants.is_empty(), || {
        format!("{label}: tenanted cell has no tenant rows")
    })?;
    let sum = |f: fn(&gtr_core::stats::TenantStats) -> u64| s.tenants.iter().map(f).sum::<u64>();
    let pairs: [(&str, u64, u64); 13] = [
        ("instructions", sum(|t| t.instructions), s.instructions),
        (
            "translation_requests",
            sum(|t| t.translation_requests),
            s.translation_requests,
        ),
        ("l1_hits", sum(|t| t.l1_tlb.hits), s.l1_tlb.hits),
        ("l1_misses", sum(|t| t.l1_tlb.misses), s.l1_tlb.misses),
        ("lds_hits", sum(|t| t.lds_tx.hits), s.lds_tx.hits),
        ("lds_misses", sum(|t| t.lds_tx.misses), s.lds_tx.misses),
        ("ic_hits", sum(|t| t.ic_tx.hits), s.ic_tx.hits),
        ("ic_misses", sum(|t| t.ic_tx.misses), s.ic_tx.misses),
        ("l2_hits", sum(|t| t.l2_tlb.hits), s.l2_tlb.hits),
        ("l2_misses", sum(|t| t.l2_tlb.misses), s.l2_tlb.misses),
        ("page_walks", sum(|t| t.page_walks), s.page_walks),
        (
            "kernel_cycles",
            sum(|t| t.cycles),
            s.kernels.iter().map(|k| k.cycles).sum(),
        ),
        (
            "kernel_instructions",
            sum(|t| t.instructions),
            s.kernels.iter().map(|k| k.instructions).sum(),
        ),
    ];
    for (name, tenants, global) in pairs {
        ensure(tenants == global, || {
            format!("{label}: per-tenant {name} sums to {tenants}, global is {global}")
        })?;
    }
    Ok(())
}

/// Per-tenant shootdown attribution sums to the pages the driver
/// actually migrated.
pub fn tenant_shootdowns_sum(label: &str, s: &RunStats, pages_migrated: u64) -> Result<(), String> {
    let sum: u64 = s.tenants.iter().map(|t| t.shootdowns).sum();
    ensure(sum == pages_migrated, || {
        format!("{label}: per-tenant shootdowns sum to {sum}, driver migrated {pages_migrated}")
    })
}

/// Two answers for the same cell must be byte-identical.
pub fn same_document(label: &str, expected: &str, got: &str) -> Result<(), String> {
    if expected == got {
        return Ok(());
    }
    let at = expected
        .bytes()
        .zip(got.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(expected.len().min(got.len()));
    Err(format!(
        "{label}: documents differ at byte {at} ({} vs {} bytes)",
        expected.len(),
        got.len()
    ))
}

/// A sampled cell's extrapolated cycles lie within its own reported
/// error bound of the exact run of the same cell.
pub fn sampled_within_bound(
    label: &str,
    sampled: &RunStats,
    exact: &RunStats,
) -> Result<(), String> {
    let meta = sampled
        .sampling
        .ok_or_else(|| format!("{label}: sampled cell carries no sampling record"))?;
    let err_pct = (sampled.total_cycles as f64 - exact.total_cycles as f64).abs() * 100.0
        / exact.total_cycles.max(1) as f64;
    ensure(err_pct <= meta.error_bound_pct, || {
        format!(
            "{label}: sampled cycles {} are {err_pct:.2}% from exact {}, bound {:.2}%",
            sampled.total_cycles, exact.total_cycles, meta.error_bound_pct
        )
    })
}

/// The service simulates each distinct cell once, plus one solo basis
/// per tenanted cell whose basis was not itself requested.
pub fn one_simulation_per_cell(
    label: &str,
    simulations: u64,
    distinct: u64,
    solo_bases: u64,
) -> Result<(), String> {
    ensure(simulations == distinct + solo_bases, || {
        format!("{label}: {simulations} simulations for {distinct} distinct cells + {solo_bases} solo bases")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtr_core::config::ReachConfig;
    use gtr_core::system::System;
    use gtr_gpu::config::GpuConfig;
    use gtr_gpu::kernel::AppTrace;
    use gtr_vm::tenancy::SharingPolicy;
    use gtr_workloads::scale::Scale;
    use gtr_workloads::suite;
    use std::sync::OnceLock;

    fn gups() -> &'static AppTrace {
        static APP: OnceLock<AppTrace> = OnceLock::new();
        APP.get_or_init(|| suite::by_name("GUPS", Scale::tiny()).expect("known app"))
    }

    fn run(reach: ReachConfig) -> RunStats {
        System::new(GpuConfig::default(), reach).run(gups())
    }

    fn baseline() -> &'static RunStats {
        static S: OnceLock<RunStats> = OnceLock::new();
        S.get_or_init(|| run(ReachConfig::baseline()))
    }

    fn ic_lds() -> &'static RunStats {
        static S: OnceLock<RunStats> = OnceLock::new();
        S.get_or_init(|| run(ReachConfig::ic_plus_lds()))
    }

    fn tenanted() -> &'static RunStats {
        static S: OnceLock<RunStats> = OnceLock::new();
        S.get_or_init(|| {
            System::new(
                GpuConfig::default(),
                ReachConfig::ic_plus_lds().with_tenancy(2, SharingPolicy::SubEntry),
            )
            .run(&AppTrace::replicate(gups(), 2))
        })
    }

    #[test]
    fn real_cells_pass_every_check() {
        for (label, s) in [
            ("baseline", baseline()),
            ("ic+lds", ic_lds()),
            ("tenanted", tenanted()),
        ] {
            attribution_partitions_requests(label, s).unwrap();
            levels_probed_in_order(label, s).unwrap();
        }
        baseline_makes_no_tx_lookups("baseline", baseline()).unwrap();
        variants_execute_the_same_work("GUPS", &[baseline(), ic_lds()]).unwrap();
        victim_caching_saves_walks("GUPS", baseline(), ic_lds()).unwrap();
        tenants_sum_to_globals("tenanted", tenanted()).unwrap();
        tenant_shootdowns_sum("tenanted", tenanted(), 0).unwrap();
    }

    #[test]
    fn corrupted_path_count_is_rejected() {
        let mut s = ic_lds().clone();
        s.attribution.slots[5].count += 1;
        assert!(attribution_partitions_requests("x", &s).is_err());
    }

    #[test]
    fn over_probed_levels_are_rejected() {
        let mutate: [fn(&mut RunStats); 5] = [
            |s| s.l1_tlb.hits = s.translation_requests + 1,
            |s| s.lds_tx.misses = s.l1_tlb.misses + 1,
            |s| s.ic_tx.misses = s.l1_tlb.misses + 1,
            |s| s.l2_tlb.misses = s.l1_tlb.misses + 1,
            |s| s.page_walks = s.l2_tlb.misses + 1,
        ];
        for (i, m) in mutate.iter().enumerate() {
            let mut s = ic_lds().clone();
            m(&mut s);
            assert!(
                levels_probed_in_order("x", &s).is_err(),
                "mutation {i} accepted"
            );
        }
    }

    #[test]
    fn baseline_tx_lookup_is_rejected() {
        let mut s = baseline().clone();
        s.ic_tx.misses = 1;
        assert!(baseline_makes_no_tx_lookups("x", &s).is_err());
        assert!(
            baseline_makes_no_tx_lookups("x", ic_lds()).is_err(),
            "IC+LDS does probe"
        );
    }

    #[test]
    fn variant_work_mismatch_is_rejected() {
        let mut s = ic_lds().clone();
        s.instructions += 1;
        assert!(variants_execute_the_same_work("x", &[baseline(), &s]).is_err());
        let mut s = ic_lds().clone();
        s.translation_requests -= 1;
        assert!(variants_execute_the_same_work("x", &[baseline(), &s]).is_err());
    }

    #[test]
    fn lost_walk_savings_are_rejected() {
        let mut s = ic_lds().clone();
        s.page_walks = baseline().page_walks;
        assert!(victim_caching_saves_walks("x", baseline(), &s).is_err());
    }

    #[test]
    fn corrupted_tenant_row_is_rejected() {
        let mut s = tenanted().clone();
        s.tenants[1].l2_tlb.hits += 1;
        assert!(tenants_sum_to_globals("x", &s).is_err());
        let mut s = tenanted().clone();
        s.tenants.pop();
        assert!(tenants_sum_to_globals("x", &s).is_err());
        let mut s = tenanted().clone();
        s.tenants[0].shootdowns = 3;
        assert!(tenant_shootdowns_sum("x", &s, 2).is_err());
        s.tenants.clear();
        assert!(
            tenants_sum_to_globals("x", &s).is_err(),
            "rows missing entirely"
        );
    }

    #[test]
    fn one_flipped_byte_is_rejected() {
        let doc = gtr_core::export::run_stats_to_json_string(ic_lds());
        assert!(same_document("x", &doc, &doc.clone()).is_ok());
        let mut bytes = doc.clone().into_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        let bad = String::from_utf8(bytes).expect("ascii document");
        assert!(same_document("x", &doc, &bad).is_err());
        assert!(
            same_document("x", &doc, &doc[..doc.len() - 1]).is_err(),
            "truncated"
        );
    }

    #[test]
    fn sampled_bound_is_enforced() {
        let exact = ic_lds();
        let mut sampled = exact.clone();
        assert!(
            sampled_within_bound("x", &sampled, exact).is_err(),
            "no sampling record"
        );
        sampled.sampling = Some(gtr_core::stats::SamplingMeta {
            error_bound_pct: 1.0,
            ..Default::default()
        });
        sampled.total_cycles = exact.total_cycles + exact.total_cycles / 200;
        assert!(
            sampled_within_bound("x", &sampled, exact).is_ok(),
            "0.5% is within 1%"
        );
        sampled.total_cycles = exact.total_cycles + exact.total_cycles / 50;
        assert!(
            sampled_within_bound("x", &sampled, exact).is_err(),
            "2% is outside 1%"
        );
    }

    #[test]
    fn duplicate_simulations_are_rejected() {
        assert!(one_simulation_per_cell("x", 13, 12, 1).is_ok());
        assert!(one_simulation_per_cell("x", 14, 12, 1).is_err());
        assert!(one_simulation_per_cell("x", 12, 12, 1).is_err());
    }
}
