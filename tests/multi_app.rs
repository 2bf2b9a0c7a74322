//! §7.2 multi-application scenarios: interleaved kernels from two
//! address spaces share the TLBs and reconfigurable structures without
//! aliasing.

use gpu_translation_reach::core_arch::config::ReachConfig;
use gpu_translation_reach::core_arch::system::System;
use gpu_translation_reach::gpu::config::GpuConfig;
use gpu_translation_reach::gpu::kernel::AppTrace;
use gpu_translation_reach::workloads::{scale::Scale, suite};

fn interleaved() -> AppTrace {
    let a = suite::by_name("ATAX", Scale::tiny()).unwrap();
    let b = suite::by_name("BICG", Scale::tiny()).unwrap();
    AppTrace::interleave(&a, &b)
}

#[test]
fn multi_app_trace_runs_under_every_config() {
    let app = interleaved();
    for reach in [ReachConfig::baseline(), ReachConfig::ic_plus_lds()] {
        let stats = System::new(GpuConfig::default(), reach).run(&app);
        assert!(stats.total_cycles > 0);
        assert_eq!(stats.instructions, app.total_ops());
    }
}

#[test]
fn multi_app_is_deterministic() {
    let app = interleaved();
    let a = System::new(GpuConfig::default(), ReachConfig::ic_plus_lds()).run(&app);
    let b = System::new(GpuConfig::default(), ReachConfig::ic_plus_lds()).run(&app);
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.page_walks, b.page_walks);
}

#[test]
fn reconfigurable_reach_still_helps_with_two_tenants() {
    // The paper (§7.2) argues the private per-CU LDS keeps working in
    // multi-application deployments; the shared I-cache just has less
    // idle capacity. Net effect: still a solid win for High apps.
    let app = interleaved();
    let base = System::new(GpuConfig::default(), ReachConfig::baseline()).run(&app);
    let reach = System::new(GpuConfig::default(), ReachConfig::ic_plus_lds()).run(&app);
    assert!(
        reach.total_cycles < base.total_cycles,
        "multi-tenant IC+LDS should still win: base={} reach={}",
        base.total_cycles,
        reach.total_cycles
    );
    assert!(reach.page_walks < base.page_walks);
}

#[test]
fn address_spaces_do_not_alias() {
    // ATAX and BICG both place their matrix at the same VA base; with
    // distinct VMIDs the system must keep their translations separate.
    // If the spaces aliased, one app would read the other's frames and
    // the per-space page tables would stay half-populated.
    let app = interleaved();
    let mut sys = System::new(GpuConfig::default(), ReachConfig::ic_plus_lds());
    let stats = sys.run(&app);
    // Both spaces saw translation traffic (walks from both tables).
    assert!(stats.page_walks > 0);
    // Mixing a third run of the single-app trace must reproduce its
    // solo behaviour exactly (no cross-run contamination in fresh
    // systems).
    let solo = suite::by_name("ATAX", Scale::tiny()).unwrap();
    let s1 = System::new(GpuConfig::default(), ReachConfig::ic_plus_lds()).run(&solo);
    let s2 = System::new(GpuConfig::default(), ReachConfig::ic_plus_lds()).run(&solo);
    assert_eq!(s1.total_cycles, s2.total_cycles);
}

#[test]
fn vmid_shootdown_only_hits_its_own_space() {
    use gpu_translation_reach::vm::addr::{Ppn, Translation, TranslationKey, VmId, Vpn, VrfId};
    use gpu_translation_reach::vm::tlb::{Tlb, TlbConfig};
    let mut tlb = Tlb::new(TlbConfig::fully_associative(16, 1));
    for vm in 0..2u8 {
        for v in 0..4u64 {
            tlb.insert(Translation::new(
                TranslationKey { vpn: Vpn(v), vmid: VmId::new(vm), vrf: VrfId::default() },
                Ppn(100 * vm as u64 + v),
            ));
        }
    }
    assert_eq!(tlb.invalidate_vmid(VmId::new(1)), 4);
    assert_eq!(tlb.len(), 4, "space 0 untouched");
    for v in 0..4u64 {
        assert!(tlb
            .lookup(TranslationKey { vpn: Vpn(v), vmid: VmId::new(0), vrf: VrfId::default() })
            .is_some());
    }
}
