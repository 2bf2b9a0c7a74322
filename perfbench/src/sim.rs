//! The simulated workloads: `matrix-irregular`, `matrix-regular` and
//! `reach-axes`. An operation is one simulated cell; a round runs every
//! cell of the workload once on a two-worker pool.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use gtr_core::config::ReachConfig;
use gtr_core::driver::{DriverSchedule, MigrationEvent};
use gtr_core::export::{run_stats_from_json, run_stats_to_json_string};
use gtr_core::stats::RunStats;
use gtr_core::system::System;
use gtr_gpu::config::GpuConfig;
use gtr_gpu::kernel::AppTrace;
use gtr_sim::json::Json;
use gtr_vm::addr::{VmId, Vpn};
use gtr_vm::alloc::PageLayout;
use gtr_vm::tenancy::SharingPolicy;
use gtr_workloads::scale::Scale;
use gtr_workloads::suite;

use crate::checks;
use crate::host::{self, TickScale};
use crate::measure::{median, percentile, Outcome};
use crate::replay::{self, CaptureSink, LayerCosts, OpCost};
use crate::report::{ratio, Values};
use crate::spans::Recorder;
use crate::Args;

/// Worker threads: the machine's two cores.
pub const WORKERS: usize = 2;

/// One simulated cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// `app/variant` label.
    pub label: String,
    /// Index into [`Plan::apps`].
    pub app: usize,
    /// Machine configuration.
    pub gpu: GpuConfig,
    /// Reach configuration.
    pub reach: ReachConfig,
    /// Run the tenant-churn shootdown storm on this cell.
    pub storm: bool,
}

/// A workload's inputs: its app traces (generated in set-up) and cells.
#[derive(Debug)]
pub struct Plan {
    /// App traces by index.
    pub apps: Vec<AppTrace>,
    /// Cells in run order.
    pub cells: Vec<Cell>,
    /// Seconds spent generating the app traces.
    pub tracegen_s: f64,
    /// Whether the paper's walk-savings check applies (irregular apps).
    pub expect_walk_savings: bool,
}

/// The four reach variants of the main matrix, baseline first.
pub fn variants() -> [(&'static str, ReachConfig); 4] {
    [
        ("baseline", ReachConfig::baseline()),
        ("LDS", ReachConfig::lds_only()),
        ("IC", ReachConfig::ic_only()),
        ("IC+LDS", ReachConfig::ic_plus_lds()),
    ]
}

fn generate(names: &[(&str, u8)], scale: Scale) -> (Vec<AppTrace>, f64) {
    let t0 = Instant::now();
    let apps = names
        .iter()
        .map(|&(name, tenants)| {
            let app = suite::by_name(name, scale).expect("suite app");
            if tenants > 1 {
                AppTrace::replicate(&app, tenants)
            } else {
                app
            }
        })
        .collect();
    (apps, t0.elapsed().as_secs_f64())
}

/// `apps` × the four variants at paper scale, exact.
pub fn matrix_plan(names: &[&str], seed: u64, expect_walk_savings: bool) -> Plan {
    matrix_plan_at(names, Scale::paper().with_seed(seed), expect_walk_savings)
}

fn matrix_plan_at(names: &[&str], scale: Scale, expect_walk_savings: bool) -> Plan {
    let with_tenants: Vec<(&str, u8)> = names.iter().map(|&n| (n, 1)).collect();
    let (apps, tracegen_s) = generate(&with_tenants, scale);
    let mut cells = Vec::new();
    for (a, name) in names.iter().enumerate() {
        for (label, reach) in variants() {
            cells.push(Cell {
                label: format!("{name}/{label}"),
                app: a,
                gpu: GpuConfig::default(),
                reach,
                storm: false,
            });
        }
    }
    Plan {
        apps,
        cells,
        tracegen_s,
        expect_walk_savings,
    }
}

/// Work multiplier of `reach-axes`, sized so a round takes about as
/// long as a `matrix-irregular` round.
pub const REACH_SCALE: f64 = 0.25;

/// Coalesced-entry reach: one entry may map a whole 2 MB region.
const COALESCE_MAX_SPAN_LOG2: u8 = 9;

/// Allocator seed of the page-mode cells (fixed, like the contiguity
/// figures'); the app traces still follow `--seed`.
const FRAG_SEED: u64 = 0xC0A1_E5CE;

/// Tenanted cells (2 and 8 tenants × partitioned and sub-entry), the
/// page-mode cells (fragmented-2MB and fully coalesced) and the
/// shootdown storm (two sub-entry tenants on coalesced entries), all
/// on IC+LDS machines.
pub fn reach_plan(seed: u64) -> Plan {
    reach_plan_at(Scale::custom(REACH_SCALE).with_seed(seed))
}

fn reach_plan_at(scale: Scale) -> Plan {
    let names: [(&str, u8); 7] = [
        ("ATAX", 2),
        ("ATAX", 8),
        ("GUPS", 2),
        ("GUPS", 8),
        ("ATAX", 1),
        ("BICG", 1),
        ("GUPS", 1),
    ];
    let (apps, tracegen_s) = generate(&names, scale);
    let mut cells = Vec::new();
    // The storm runs on coalesced entries, so single-page shootdowns
    // split (TLBs) or drop (victim structures) covering entries.
    // It is the longest cell, so it goes first: the pool then packs
    // the rest around it.
    cells.push(Cell {
        label: "ATAXx2/storm".to_string(),
        app: 0,
        gpu: GpuConfig::default().with_page_layout(PageLayout::contig(0.0, FRAG_SEED)),
        reach: ReachConfig::ic_plus_lds()
            .with_tenancy(2, SharingPolicy::SubEntry)
            .with_tlb_coalescing(COALESCE_MAX_SPAN_LOG2),
        storm: true,
    });
    for (a, &(name, tenants)) in names.iter().enumerate().take(4) {
        for policy in [SharingPolicy::Partitioned, SharingPolicy::SubEntry] {
            cells.push(Cell {
                label: format!("{name}x{tenants}/{policy}"),
                app: a,
                gpu: GpuConfig::default(),
                reach: ReachConfig::ic_plus_lds().with_tenancy(tenants, policy),
                storm: false,
            });
        }
    }
    for (a, &(name, _)) in names.iter().enumerate().skip(4) {
        for (mode, frag) in [("frag2M", 0.25), ("coalesced", 0.0)] {
            cells.push(Cell {
                label: format!("{name}/{mode}"),
                app: a,
                gpu: GpuConfig::default().with_page_layout(PageLayout::contig(frag, FRAG_SEED)),
                reach: ReachConfig::ic_plus_lds().with_tlb_coalescing(COALESCE_MAX_SPAN_LOG2),
                storm: false,
            });
        }
    }
    Plan {
        apps,
        cells,
        tracegen_s,
        expect_walk_savings: false,
    }
}

/// What the storm cell observed beyond its stats.
struct StormOut {
    pages_migrated: u64,
    /// The stale translation the coherence check found, if any.
    coherence: Result<(), String>,
}

/// One cell's result.
struct CellOut {
    stats: RunStats,
    /// Host seconds inside the simulation call(s).
    secs: f64,
    storm: Option<StormOut>,
    /// Replayed layer costs and captured events (traced rounds only).
    layers: Option<(LayerCosts, u64)>,
}

fn system(cell: &Cell, sink: Option<&CaptureSink>) -> System {
    let sys = System::new(cell.gpu.clone(), cell.reach);
    match sink {
        Some(s) => sys.with_trace(Box::new(s.clone())),
        None => sys,
    }
}

/// Tenant churn as in the repository's storm scenario: tenant 1 is
/// evicted and readmitted four times, each time migrating 32 of its
/// resident pages, at 2/6 .. 5/6 of an undisturbed run's requests.
fn simulate_storm(cell: &Cell, app: &AppTrace, sink: Option<&CaptureSink>) -> (RunStats, StormOut) {
    let mut quiet_sys = system(cell, None);
    let quiet = quiet_sys.run(app);
    let pool = quiet_sys.mapped_vpns(VmId::new(1));
    let stride = (pool.len() / 32).max(1);
    let pages: Vec<(VmId, Vpn)> = pool
        .iter()
        .step_by(stride)
        .take(32)
        .map(|&v| (VmId::new(1), v))
        .collect();
    let mut schedule = DriverSchedule::new();
    for k in 2..=5u64 {
        schedule = schedule.migrate(MigrationEvent {
            after_translations: quiet.translation_requests * k / 6,
            pages: pages.clone(),
        });
    }
    let mut sys = system(cell, sink).with_driver_schedule(schedule);
    let stats = sys.run(app);
    let coherence = catch_unwind(AssertUnwindSafe(|| {
        sys.check_translation_coherence();
    }))
    .map_err(|e| {
        let msg = e
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "incoherent".to_string());
        format!("{}: {msg}", cell.label)
    });
    (
        stats,
        StormOut {
            pages_migrated: sys.shootdown_report().pages_migrated,
            coherence,
        },
    )
}

fn run_cell(plan: &Plan, i: usize, rec: Option<&Recorder>) -> CellOut {
    let cell = &plan.cells[i];
    let app = &plan.apps[cell.app];
    let id = i as u64;
    let sink = rec.map(|_| CaptureSink::default());
    let _span = rec.and_then(|r| r.span("cell", id));
    let t0 = Instant::now();
    let (stats, storm) = {
        let _sim = rec.and_then(|r| r.span("system.run", id));
        if cell.storm {
            let (s, o) = simulate_storm(cell, app, sink.as_ref());
            (s, Some(o))
        } else {
            (system(cell, sink.as_ref()).run(app), None)
        }
    };
    let secs = t0.elapsed().as_secs_f64();
    let layers = rec.zip(sink).map(|(r, sink)| {
        let events = sink.0.take();
        let costs = r.time("replay.layers", id, || {
            replay::replay_cell(&cell.gpu, &cell.reach, &events)
        });
        (costs, events.len() as u64)
    });
    CellOut {
        stats,
        secs,
        storm,
        layers,
    }
}

struct Round {
    outs: Vec<CellOut>,
    wall_s: f64,
    cpu_s: f64,
}

fn round(plan: &Plan, rec: Option<&Recorder>) -> Round {
    let (t0, c0) = (Instant::now(), host::process_cpu_s());
    let outs = gtr_bench::pool::run_indexed(plan.cells.len(), WORKERS, |i| run_cell(plan, i, rec));
    Round {
        outs,
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: host::process_cpu_s() - c0,
    }
}

/// Checks one round's outputs; `first` is the first round's (a cell's
/// stats must not change between rounds of one run).
fn check_round(plan: &Plan, r: &Round, first: Option<&Round>, out: &mut Outcome) {
    for (i, (cell, o)) in plan.cells.iter().zip(&r.outs).enumerate() {
        let s = &o.stats;
        out.check(checks::attribution_partitions_requests(&cell.label, s));
        out.check(checks::levels_probed_in_order(&cell.label, s));
        if !cell.reach.any_enabled() {
            out.check(checks::baseline_makes_no_tx_lookups(&cell.label, s));
        }
        if cell.reach.tenancy.is_some() {
            out.check(checks::tenants_sum_to_globals(&cell.label, s));
        }
        if let Some(storm) = &o.storm {
            out.check(checks::tenant_shootdowns_sum(
                &cell.label,
                s,
                storm.pages_migrated,
            ));
            out.check(storm.coherence.clone());
            if storm.pages_migrated == 0 {
                out.check(Err(format!("{}: the storm migrated no page", cell.label)));
            }
        }
        if let Some(f) = first {
            if f.outs[i].stats != *s {
                out.check(Err(format!("{}: stats changed between rounds", cell.label)));
            }
        }
    }
    for a in 0..plan.apps.len() {
        let group: Vec<(&Cell, &RunStats)> = plan
            .cells
            .iter()
            .zip(&r.outs)
            .filter(|(c, _)| c.app == a)
            .map(|(c, o)| (c, &o.stats))
            .collect();
        let name = plan.apps[a].name();
        let stats: Vec<&RunStats> = group.iter().map(|(_, s)| *s).collect();
        out.check(checks::variants_execute_the_same_work(name, &stats));
        if plan.expect_walk_savings {
            let find = |want: &ReachConfig| {
                group
                    .iter()
                    .find(|(c, _)| c.reach == *want)
                    .map(|(_, s)| *s)
            };
            match (
                find(&ReachConfig::baseline()),
                find(&ReachConfig::ic_plus_lds()),
            ) {
                (Some(b), Some(v)) => out.check(checks::victim_caching_saves_walks(name, b, v)),
                _ => out.check(Err(format!("{name}: baseline or IC+LDS cell missing"))),
            }
        }
    }
}

/// Runs a simulated workload: whole rounds for `--seconds` (at least
/// two), the checks on every round, and the metrics of `--trace`.
///
/// There is no result cache here, so every cell is a cold computation.
/// `cold_p50_ms` is the median over all rounds of a round's mean cell
/// latency, `hot_p50_ms` the same over the rounds after the first (a
/// warm process), and `hot_p99_ms` the slowest cell, by its median
/// latency over those rounds. The mean over a round's cells is taken
/// before the median because the median cell of a matrix is one app
/// (BFS, ATAX) whose cost moves with the seed's graph or access
/// pattern by more than the round as a whole does.
pub fn run(plan: &Plan, args: &Args, setup_s: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut v = Values::default();
    if args.trace {
        traced(plan, args, &mut out, &mut v);
        out.metrics = v.metrics(&crate::report::PER_LAYER);
        return out;
    }
    let t0 = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); plan.cells.len()];
    while rounds.len() < 2 || t0.elapsed().as_secs_f64() < args.seconds {
        let r = round(plan, None);
        check_round(plan, &r, rounds.first(), &mut out);
        out.attempted += plan.cells.len() as u64;
        for (l, o) in latencies.iter_mut().zip(&r.outs) {
            l.push(o.secs * 1e3);
        }
        // Keep only the timings of later rounds; their stats are
        // compared against the first round's.
        if rounds.is_empty() {
            rounds.push(r);
        } else {
            rounds.push(Round {
                outs: Vec::new(),
                ..r
            });
        }
    }
    let cell_medians = |from: usize| -> Vec<f64> {
        latencies
            .iter()
            .filter_map(|l| median(&l[from..]))
            .collect()
    };
    let round_means: Vec<f64> = (0..rounds.len())
        .map(|k| latencies.iter().map(|l| l[k]).sum::<f64>() / latencies.len() as f64)
        .collect();
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    let cpus: Vec<f64> = rounds.iter().map(|r| r.cpu_s).collect();
    v.set("setup_s", setup_s);
    v.set("wall_s", median(&walls).unwrap_or(0.0));
    v.set("cpu_s", median(&cpus).unwrap_or(0.0));
    v.set("peak_rss_mb", host::peak_rss_mb());
    v.set("hot_p50_ms", median(&round_means[1..]).unwrap_or(0.0));
    v.set(
        "hot_p99_ms",
        percentile(&cell_medians(1), 99.0).unwrap_or(0.0),
    );
    v.set("cold_p50_ms", median(&round_means).unwrap_or(0.0));
    out.metrics = v.metrics(&crate::report::END_TO_END);
    out
}

fn net(scale: &TickScale, c: OpCost) -> f64 {
    scale.net_ns(c.ticks, c.n)
}

/// The traced run: one untraced round as the reference, one traced
/// round (spans, event capture, layer replays), then per-layer metrics.
fn traced(plan: &Plan, args: &Args, out: &mut Outcome, v: &mut Values) {
    let rec = Recorder::new(true);
    let plain = round(plan, None);
    let traced = round(plan, Some(&rec));
    check_round(plan, &plain, None, out);
    check_round(plan, &traced, Some(&plain), out);
    out.attempted += 2 * plan.cells.len() as u64;
    let n_cells = plan.cells.len() as f64;
    let scale = TickScale::calibrate();

    let plain_s: f64 = plain.outs.iter().map(|o| o.secs).sum();
    let traced_s: f64 = traced.outs.iter().map(|o| o.secs).sum();
    v.set("trace.overhead_pct", (traced_s / plain_s - 1.0) * 100.0);
    v.set(
        "harness.pool_idle_s",
        (WORKERS as f64 * plain.wall_s - plain_s).max(0.0),
    );
    v.set("workloads.tracegen_ms", plan.tracegen_s * 1e3);

    let sum = |f: fn(&RunStats) -> u64| traced.outs.iter().map(|o| f(&o.stats)).sum::<u64>() as f64;
    let insts = sum(|s| s.instructions);
    let translations = sum(|s| s.translation_requests);
    v.set("system.cell_ms_sum", plain_s * 1e3);
    v.set("system.insts", insts);
    v.set("system.translations", translations);
    v.set("system.sim_cycles", sum(|s| s.total_cycles));
    v.set("system.ns_per_inst", ratio(plain_s * 1e9, insts));
    v.set(
        "system.ns_per_translation",
        ratio(plain_s * 1e9, translations),
    );
    v.set("tlb.l1_hits", sum(|s| s.l1_tlb.hits));
    v.set("tlb.l1_misses", sum(|s| s.l1_tlb.misses));
    v.set("tlb.l2_hits", sum(|s| s.l2_tlb.hits));
    v.set("tlb.l2_misses", sum(|s| s.l2_tlb.misses));
    v.set(
        "tlb.coalesced_hits",
        sum(|s| s.coalescing.map_or(0, |c| c.coalesced_hits)),
    );
    v.set(
        "tlb.shootdown_splits",
        sum(|s| s.coalescing.map_or(0, |c| c.shootdown_splits)),
    );
    let (lds_h, lds_m) = (sum(|s| s.lds_tx.hits), sum(|s| s.lds_tx.misses));
    v.set("lds_tx.hits", lds_h);
    v.set("lds_tx.misses", lds_m);
    v.set("lds_tx.hit_ratio", ratio(lds_h, lds_h + lds_m));
    let (ic_h, ic_m) = (sum(|s| s.ic_tx.hits), sum(|s| s.ic_tx.misses));
    v.set("icache_tx.hits", ic_h);
    v.set("icache_tx.misses", ic_m);
    v.set("icache_tx.hit_ratio", ratio(ic_h, ic_h + ic_m));
    v.set("icache_tx.fetch_misses", sum(|s| s.inst_fetch.misses));
    v.set("iommu.walks", sum(|s| s.page_walks));
    v.set("iommu.pte_accesses", sum(|s| s.pte_accesses));
    let (pwc_h, pwc_m) = (sum(|s| s.pwc_pmd.hits), sum(|s| s.pwc_pmd.misses));
    v.set("iommu.pwc_hit_ratio", ratio(pwc_h, pwc_h + pwc_m));
    v.set("mem.dram_accesses", sum(|s| s.dram_accesses));

    let mut costs = LayerCosts::default();
    let mut events = 0u64;
    for (c, e) in traced.outs.iter().filter_map(|o| o.layers.as_ref()) {
        costs.merge(c);
        events += e;
    }
    let per_op = |c: OpCost| ratio(net(&scale, c), c.n as f64);
    let per_cell_ms =
        |cs: &[OpCost]| cs.iter().map(|&c| net(&scale, c)).sum::<f64>() / n_cells / 1e6;
    v.set("tlb.lookup_ns", per_op(costs.tlb_lookup));
    v.set("tlb.insert_ns", per_op(costs.tlb_insert));
    v.set("tlb.invalidate_ns", per_op(costs.tlb_invalidate));
    v.set("tlb.shootdowns", costs.shootdowns as f64);
    v.set(
        "tlb.ms_per_cell",
        per_cell_ms(&[costs.tlb_lookup, costs.tlb_insert, costs.tlb_invalidate]),
    );
    v.set("lds_tx.lookup_ns", per_op(costs.lds_lookup));
    v.set("lds_tx.insert_ns", per_op(costs.lds_insert));
    v.set(
        "lds_tx.ms_per_cell",
        per_cell_ms(&[costs.lds_lookup, costs.lds_insert]),
    );
    v.set("icache_tx.lookup_ns", per_op(costs.ic_lookup));
    v.set("icache_tx.insert_ns", per_op(costs.ic_insert));
    v.set(
        "icache_tx.ms_per_cell",
        per_cell_ms(&[costs.ic_lookup, costs.ic_insert]),
    );
    v.set("iommu.walk_ns", per_op(costs.iommu_walk));
    v.set("iommu.ms_per_cell", per_cell_ms(&[costs.iommu_walk]));
    v.set("trace.events", events as f64);

    // The coalescer runs once per app trace, whatever the variant.
    let mut co = OpCost::default();
    let mut co_ms_per_cell = 0.0;
    let mut pages = 0u64;
    for (a, app) in plan.apps.iter().enumerate() {
        let (c, p) = rec.time("replay.coalescer", a as u64, || {
            replay::replay_coalescer(app, &GpuConfig::default())
        });
        let cells = plan.cells.iter().filter(|c| c.app == a).count() as f64;
        co_ms_per_cell += net(&scale, c) / 1e6 * cells / n_cells;
        co.n += c.n;
        co.ticks += c.ticks;
        pages += p;
    }
    v.set("coalescer.assign_ns", per_op(co));
    v.set("coalescer.pages_per_op", ratio(pages as f64, co.n as f64));
    v.set("coalescer.ms_per_cell", co_ms_per_cell);

    let mut doc_bytes = 0usize;
    for (i, o) in traced.outs.iter().enumerate() {
        let doc = rec.time("export.encode", i as u64, || {
            run_stats_to_json_string(&o.stats)
        });
        let back = rec.time("export.decode", i as u64, || {
            Json::parse(&doc)
                .ok()
                .as_ref()
                .and_then(run_stats_from_json)
        });
        if back.is_none() {
            out.check(Err(format!(
                "{}: exported document does not parse back",
                plan.cells[i].label
            )));
        }
        doc_bytes += doc.len();
    }
    v.set("export.encode_us", rec.mean("export.encode") * 1e6);
    v.set("export.decode_us", rec.mean("export.decode") * 1e6);
    v.set("export.doc_bytes", doc_bytes as f64 / n_cells);
    v.set("trace.spans", rec.spans().len() as f64);
    crate::write_spans(&rec, args);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn violations(plan: &Plan, r: &Round, first: Option<&Round>) -> Vec<String> {
        let mut out = Outcome::default();
        check_round(plan, r, first, &mut out);
        out.violations
    }

    #[test]
    fn plans_follow_the_seed() {
        let a = matrix_plan_at(&["GUPS"], Scale::tiny().with_seed(1), true);
        let b = matrix_plan_at(&["GUPS"], Scale::tiny().with_seed(1), true);
        let c = matrix_plan_at(&["GUPS"], Scale::tiny().with_seed(2), true);
        assert_eq!(a.apps, b.apps);
        assert_ne!(a.apps, c.apps);
        assert_eq!(a.cells.len(), 4);
        let r = reach_plan_at(Scale::tiny().with_seed(1));
        assert_eq!(
            r.cells.iter().filter(|c| c.reach.tenancy.is_some()).count(),
            9
        );
        assert_eq!(
            r.cells
                .iter()
                .filter(|c| c.reach.tlb_coalescing.is_some())
                .count(),
            7
        );
        assert_eq!(r.cells.iter().filter(|c| c.storm).count(), 1);
    }

    #[test]
    fn a_matrix_round_passes_and_corruption_is_caught() {
        let plan = matrix_plan_at(&["GUPS", "ATAX"], Scale::tiny().with_seed(3), true);
        let r = round(&plan, None);
        assert_eq!(violations(&plan, &r, None), Vec::<String>::new());
        let again = round(&plan, None);
        assert_eq!(
            violations(&plan, &again, Some(&r)),
            Vec::<String>::new(),
            "deterministic"
        );
        let mut bad = round(&plan, None);
        bad.outs[5].stats.page_walks += 1; // ATAX/LDS
        assert!(!violations(&plan, &bad, Some(&r)).is_empty());
        let mut bad = round(&plan, None);
        bad.outs[3].stats.page_walks = bad.outs[0].stats.page_walks; // GUPS/IC+LDS
        assert!(
            !violations(&plan, &bad, None).is_empty(),
            "walk savings lost"
        );
    }

    #[test]
    fn a_reach_round_passes_and_a_corrupted_tenant_row_is_caught() {
        let plan = reach_plan_at(Scale::tiny().with_seed(4));
        let mut r = round(&plan, None);
        assert_eq!(violations(&plan, &r, None), Vec::<String>::new());
        let storm = r
            .outs
            .iter()
            .find_map(|o| o.storm.as_ref())
            .expect("storm cell");
        assert!(storm.pages_migrated > 0 && storm.coherence.is_ok());
        r.outs[0].stats.tenants[1].l1_tlb.hits += 1;
        assert!(!violations(&plan, &r, None).is_empty());
    }

    #[test]
    fn the_traced_round_captures_and_replays_every_cell() {
        let plan = matrix_plan_at(&["GUPS"], Scale::tiny().with_seed(5), true);
        let rec = Recorder::new(true);
        let plain = round(&plan, None);
        let traced = round(&plan, Some(&rec));
        assert_eq!(
            violations(&plan, &traced, Some(&plain)),
            Vec::<String>::new(),
            "tracing changes no result"
        );
        assert!(traced.outs.iter().all(|o| o
            .layers
            .is_some_and(|(c, events)| events > 0 && c.tlb_lookup.n > 0)));
        assert_eq!(rec.total("system.run").1, 4);
    }
}
