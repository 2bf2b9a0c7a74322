//! Kernel, workgroup and wavefront descriptors.
//!
//! An [`AppTrace`] is a sequence of kernel launches (the unit of the
//! paper's Figure 11 and of the I-cache flush optimization §4.3.3).
//! Each kernel carries its instruction footprint (`code_lines`), its
//! per-workgroup LDS request (Figure 4a), and the wavefront op streams.

use gtr_vm::addr::VmId;

use crate::ops::Op;

/// Instructions per 64-byte I-cache line (8-byte instructions).
pub const INSTS_PER_LINE: u32 = 8;

/// The op stream of one wavefront.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WaveProgram {
    ops: Vec<Op>,
}

impl WaveProgram {
    /// Creates a wave program from its op list.
    pub fn new(ops: Vec<Op>) -> Self {
        Self { ops }
    }

    /// The ops, in program order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of ops (instructions).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// A workgroup: wavefronts guaranteed to run on the same CU, sharing
/// one LDS allocation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WorkgroupDesc {
    waves: Vec<WaveProgram>,
}

impl WorkgroupDesc {
    /// Creates a workgroup from its wavefronts.
    pub fn new(waves: Vec<WaveProgram>) -> Self {
        Self { waves }
    }

    /// The wavefront programs.
    pub fn waves(&self) -> &[WaveProgram] {
        &self.waves
    }

    /// Number of wavefronts.
    pub fn wave_count(&self) -> usize {
        self.waves.len()
    }
}

/// One kernel launch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelDesc {
    name: String,
    /// Instruction footprint in 64-byte I-cache lines.
    code_lines: u32,
    /// LDS bytes requested per workgroup.
    lds_bytes_per_wg: u32,
    /// Address space this kernel translates in (§7.2 multi-application
    /// scenarios; single-app traces use the default space 0).
    vm_id: VmId,
    workgroups: Vec<WorkgroupDesc>,
}

impl KernelDesc {
    /// Creates a kernel descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `code_lines == 0` (every kernel has at least one line
    /// of code).
    pub fn new(
        name: impl Into<String>,
        code_lines: u32,
        lds_bytes_per_wg: u32,
        workgroups: Vec<WorkgroupDesc>,
    ) -> Self {
        assert!(code_lines > 0, "a kernel needs at least one instruction line");
        Self {
            name: name.into(),
            code_lines,
            lds_bytes_per_wg,
            vm_id: VmId::default(),
            workgroups,
        }
    }

    /// Assigns this kernel to a different address space (§7.2).
    pub fn with_vm_id(mut self, vm_id: VmId) -> Self {
        self.vm_id = vm_id;
        self
    }

    /// The address space this kernel runs in.
    pub fn vm_id(&self) -> VmId {
        self.vm_id
    }

    /// Kernel name (used for back-to-back detection, Table 2).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Instruction footprint in I-cache lines.
    pub fn code_lines(&self) -> u32 {
        self.code_lines
    }

    /// LDS bytes requested per workgroup.
    pub fn lds_bytes_per_wg(&self) -> u32 {
        self.lds_bytes_per_wg
    }

    /// The workgroups to dispatch.
    pub fn workgroups(&self) -> &[WorkgroupDesc] {
        &self.workgroups
    }

    /// Total wavefronts across all workgroups.
    pub fn total_waves(&self) -> usize {
        self.workgroups.iter().map(WorkgroupDesc::wave_count).sum()
    }

    /// Total ops across all wavefronts.
    pub fn total_ops(&self) -> u64 {
        self.workgroups
            .iter()
            .flat_map(|wg| wg.waves())
            .map(|w| w.len() as u64)
            .sum()
    }
}

/// A full application: an ordered sequence of kernel launches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppTrace {
    name: String,
    kernels: Vec<KernelDesc>,
}

impl AppTrace {
    /// Creates an application trace.
    pub fn new(name: impl Into<String>, kernels: Vec<KernelDesc>) -> Self {
        Self { name: name.into(), kernels }
    }

    /// Application name (e.g. "ATAX").
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The kernel launches, in order.
    pub fn kernels(&self) -> &[KernelDesc] {
        &self.kernels
    }

    /// Total ops across the whole application.
    pub fn total_ops(&self) -> u64 {
        self.kernels.iter().map(KernelDesc::total_ops).sum()
    }

    /// Whether any kernel is launched back-to-back with itself
    /// (Table 2's "B-2-B Kernels?" column; governs the flush
    /// optimization §4.3.3).
    pub fn has_back_to_back_kernels(&self) -> bool {
        self.kernels.windows(2).any(|w| w[0].name() == w[1].name())
    }

    /// Interleaves two applications' kernel launches into one trace for
    /// §7.2 multi-application studies: kernels alternate, each keeps
    /// (or is assigned) its own address space, and names are prefixed
    /// with the source application so instruction footprints stay
    /// distinct.
    pub fn interleave(a: &AppTrace, b: &AppTrace) -> AppTrace {
        let tag = |app: &AppTrace, k: &KernelDesc, vm: u8| {
            KernelDesc::new(
                format!("{}::{}", app.name(), k.name()),
                k.code_lines(),
                k.lds_bytes_per_wg(),
                k.workgroups().to_vec(),
            )
            .with_vm_id(VmId::new(vm))
        };
        let mut kernels = Vec::with_capacity(a.kernels.len() + b.kernels.len());
        let mut ia = a.kernels.iter();
        let mut ib = b.kernels.iter();
        loop {
            match (ia.next(), ib.next()) {
                (None, None) => break,
                (ka, kb) => {
                    if let Some(k) = ka {
                        kernels.push(tag(a, k, 0));
                    }
                    if let Some(k) = kb {
                        kernels.push(tag(b, k, 1));
                    }
                }
            }
        }
        AppTrace::new(format!("{}+{}", a.name(), b.name()), kernels)
    }

    /// Generalizes [`Self::interleave`] to up to eight co-resident
    /// applications (the `gtr_vm::tenancy` tenant limit): kernel
    /// launches round-robin across the inputs, tenant *i*'s kernels
    /// run in address space *i*, and names are prefixed with the
    /// source application so instruction footprints stay distinct.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice or more than eight applications.
    pub fn interleave_many(apps: &[&AppTrace]) -> AppTrace {
        assert!(
            !apps.is_empty() && apps.len() <= 8,
            "tenancy supports 1..=8 co-resident applications, got {}",
            apps.len()
        );
        let mut kernels = Vec::with_capacity(apps.iter().map(|a| a.kernels.len()).sum());
        let mut iters: Vec<_> = apps.iter().map(|a| a.kernels.iter()).collect();
        loop {
            let mut any = false;
            for (vm, it) in iters.iter_mut().enumerate() {
                if let Some(k) = it.next() {
                    any = true;
                    kernels.push(
                        KernelDesc::new(
                            format!("{}::{}", apps[vm].name(), k.name()),
                            k.code_lines(),
                            k.lds_bytes_per_wg(),
                            k.workgroups().to_vec(),
                        )
                        .with_vm_id(VmId::new(vm as u8)),
                    );
                }
            }
            if !any {
                break;
            }
        }
        let name = apps.iter().map(|a| a.name()).collect::<Vec<_>>().join("+");
        AppTrace::new(name, kernels)
    }

    /// `tenants` co-resident copies of the same workload, one per
    /// address space — the homogeneous tenant-count sweep of the
    /// tenancy figures. Each copy's kernels are re-tagged with the
    /// tenant index (distinct processes don't share code regions),
    /// and the trace name encodes the tenant count so checkpoint
    /// caching never conflates different sweep points.
    pub fn replicate(app: &AppTrace, tenants: u8) -> AppTrace {
        assert!(
            (1..=8).contains(&tenants),
            "tenancy supports 1..=8 tenants, got {tenants}"
        );
        let copies: Vec<AppTrace> = (0..tenants)
            .map(|t| AppTrace::new(format!("{}@t{}", app.name(), t), app.kernels.clone()))
            .collect();
        let refs: Vec<&AppTrace> = copies.iter().collect();
        let mut out = Self::interleave_many(&refs);
        out.name = Self::replicated_name(app.name(), tenants);
        out
    }

    /// The name [`Self::replicate`] gives `tenants` copies of the
    /// application called `base`, available without building either
    /// trace (cache keys are derived from names alone).
    pub fn replicated_name(base: &str, tenants: u8) -> String {
        format!("{base}x{tenants}")
    }

    /// Number of distinct kernel names.
    pub fn distinct_kernels(&self) -> usize {
        let mut names: Vec<&str> = self.kernels.iter().map(KernelDesc::name).collect();
        names.sort_unstable();
        names.dedup();
        names.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave(n: usize) -> WaveProgram {
        WaveProgram::new(vec![Op::compute(1); n])
    }

    #[test]
    fn counts_roll_up() {
        let wg = WorkgroupDesc::new(vec![wave(3), wave(5)]);
        let k = KernelDesc::new("k", 4, 256, vec![wg.clone(), wg]);
        assert_eq!(k.total_waves(), 4);
        assert_eq!(k.total_ops(), 16);
        let app = AppTrace::new("a", vec![k.clone(), k]);
        assert_eq!(app.total_ops(), 32);
    }

    #[test]
    fn back_to_back_detection() {
        let k = |n: &str| KernelDesc::new(n, 1, 0, vec![]);
        let b2b = AppTrace::new("nw", vec![k("nw_kernel1"), k("nw_kernel1"), k("nw_kernel2")]);
        assert!(b2b.has_back_to_back_kernels());
        let alt = AppTrace::new("atax", vec![k("k1"), k("k2"), k("k1")]);
        assert!(!alt.has_back_to_back_kernels());
        assert_eq!(alt.distinct_kernels(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one instruction line")]
    fn zero_code_lines_rejected() {
        let _ = KernelDesc::new("bad", 0, 0, vec![]);
    }

    #[test]
    fn interleave_alternates_and_tags_address_spaces() {
        let k = |n: &str| KernelDesc::new(n, 1, 0, vec![]);
        let a = AppTrace::new("A", vec![k("x"), k("x"), k("x")]);
        let b = AppTrace::new("B", vec![k("y")]);
        let m = AppTrace::interleave(&a, &b);
        assert_eq!(m.name(), "A+B");
        assert_eq!(m.kernels().len(), 4);
        assert_eq!(m.kernels()[0].name(), "A::x");
        assert_eq!(m.kernels()[1].name(), "B::y");
        assert_eq!(m.kernels()[0].vm_id(), VmId::new(0));
        assert_eq!(m.kernels()[1].vm_id(), VmId::new(1));
        // The tail of the longer app keeps flowing.
        assert_eq!(m.kernels()[3].name(), "A::x");
    }

    #[test]
    fn interleave_many_round_robins_up_to_eight_tenants() {
        let k = |n: &str| KernelDesc::new(n, 1, 0, vec![]);
        let apps: Vec<AppTrace> = (0..4)
            .map(|i| AppTrace::new(format!("A{i}"), vec![k("x"), k("x")]))
            .collect();
        let refs: Vec<&AppTrace> = apps.iter().collect();
        let m = AppTrace::interleave_many(&refs);
        assert_eq!(m.name(), "A0+A1+A2+A3");
        assert_eq!(m.kernels().len(), 8);
        for (i, kd) in m.kernels().iter().enumerate() {
            assert_eq!(kd.vm_id(), VmId::new((i % 4) as u8));
        }
        // Two apps reproduces `interleave`'s schedule.
        let two = AppTrace::interleave_many(&refs[..2]);
        let legacy = AppTrace::interleave(&apps[0], &apps[1]);
        assert_eq!(two.kernels(), legacy.kernels());
    }

    #[test]
    fn replicate_tags_copies_with_tenant_index() {
        let k = |n: &str| KernelDesc::new(n, 1, 0, vec![]);
        let app = AppTrace::new("G", vec![k("k1"), k("k2")]);
        let r = AppTrace::replicate(&app, 3);
        assert_eq!(r.name(), "Gx3");
        assert_eq!(AppTrace::replicated_name("G", 3), r.name());
        assert_eq!(r.kernels().len(), 6);
        assert_eq!(r.kernels()[0].name(), "G@t0::k1");
        assert_eq!(r.kernels()[1].name(), "G@t1::k1");
        assert_eq!(r.kernels()[2].name(), "G@t2::k1");
        assert_eq!(r.kernels()[4].vm_id(), VmId::new(1));
        // Code regions stay distinct across tenants (separate
        // processes), so all 6 launches carry distinct names modulo
        // the per-tenant pair.
        assert_eq!(r.distinct_kernels(), 6);
    }

    #[test]
    #[should_panic(expected = "1..=8")]
    fn interleave_many_rejects_more_than_eight() {
        let k = KernelDesc::new("k", 1, 0, vec![]);
        let apps: Vec<AppTrace> =
            (0..9).map(|i| AppTrace::new(format!("A{i}"), vec![k.clone()])).collect();
        let refs: Vec<&AppTrace> = apps.iter().collect();
        let _ = AppTrace::interleave_many(&refs);
    }
}
