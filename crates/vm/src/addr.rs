//! Address-space newtypes: virtual/physical addresses, page numbers,
//! page sizes, and the address-space identifiers the paper's tag
//! layouts carry (Fig 7a / Fig 10b: a VM-ID and a 2-bit VRF-ID).
//!
//! The paper's tag layout reserves 2 bits of VM-ID; the tenancy model
//! ([`crate::tenancy`], after arXiv 2404.18361's MIG-style
//! multi-instance scenarios) widens it to 3 bits so up to eight
//! concurrent address spaces fit. The widening is hash-compatible:
//! VM-IDs below 4 produce exactly the [`FastKey::hash64`] values the
//! 2-bit layout produced.

use std::fmt;

use gtr_sim::fastmap::FastKey;

/// Width of the virtual address space in bits (x86-64 canonical, as
/// assumed by the paper's 25-bit VA tags after removing offset/index).
pub const VA_BITS: u32 = 48;

/// Bytes in a cache line throughout the system.
pub const CACHE_LINE_BYTES: u64 = 64;

/// A 48-bit virtual address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(u64);

impl VirtAddr {
    /// Creates a virtual address, masking to [`VA_BITS`].
    pub fn new(raw: u64) -> Self {
        Self(raw & ((1u64 << VA_BITS) - 1))
    }

    /// Raw address value.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Virtual page number at the given page size.
    pub fn vpn(self, size: PageSize) -> Vpn {
        Vpn(self.0 >> size.bits())
    }

    /// Offset within the page at the given page size.
    pub fn page_offset(self, size: PageSize) -> u64 {
        self.0 & (size.bytes() - 1)
    }

    /// Index of the 64-byte cache line containing this address.
    pub fn line(self) -> u64 {
        self.0 / CACHE_LINE_BYTES
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VA:{:#x}", self.0)
    }
}

impl fmt::LowerHex for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for VirtAddr {
    fn from(raw: u64) -> Self {
        Self::new(raw)
    }
}

/// A physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(u64);

impl PhysAddr {
    /// Creates a physical address.
    pub fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// Raw address value.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Index of the 64-byte cache line containing this address.
    pub fn line(self) -> u64 {
        self.0 / CACHE_LINE_BYTES
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PA:{:#x}", self.0)
    }
}

impl fmt::LowerHex for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// A virtual page number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Vpn(pub u64);

impl Vpn {
    /// Base virtual address of this page at the given page size.
    pub fn base(self, size: PageSize) -> VirtAddr {
        VirtAddr::new(self.0 << size.bits())
    }
}

impl fmt::Display for Vpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VPN:{:#x}", self.0)
    }
}

impl FastKey for Vpn {
    fn hash64(self) -> u64 {
        self.0
    }
}

/// A physical page number (frame number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ppn(pub u64);

impl Ppn {
    /// Base physical address of this frame at the given page size.
    pub fn base(self, size: PageSize) -> PhysAddr {
        PhysAddr::new(self.0 << size.bits())
    }
}

impl fmt::Display for Ppn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PPN:{:#x}", self.0)
    }
}

/// Page granularities evaluated by the paper (§6.2): the 4 KB default,
/// the 64 KB dGPU size, and 2 MB large pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PageSize {
    /// 4 KiB pages (baseline).
    #[default]
    Size4K,
    /// 64 KiB pages (discrete-GPU granularity).
    Size64K,
    /// 2 MiB large pages.
    Size2M,
}

impl PageSize {
    /// log2 of the page size in bytes.
    pub fn bits(self) -> u32 {
        match self {
            PageSize::Size4K => 12,
            PageSize::Size64K => 16,
            PageSize::Size2M => 21,
        }
    }

    /// Page size in bytes.
    pub fn bytes(self) -> u64 {
        1u64 << self.bits()
    }

    /// Number of radix levels a full page walk traverses. A 2 MB
    /// mapping terminates at the PMD (3 levels); 4 KB and 64 KB walk
    /// all four levels (64 KB pages are PTE-level blocks on AMD GPUs).
    pub fn walk_levels(self) -> usize {
        match self {
            PageSize::Size4K | PageSize::Size64K => 4,
            PageSize::Size2M => 3,
        }
    }

    /// All supported sizes, smallest first.
    pub fn all() -> [PageSize; 3] {
        [PageSize::Size4K, PageSize::Size64K, PageSize::Size2M]
    }
}

impl fmt::Display for PageSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageSize::Size4K => write!(f, "4KB"),
            PageSize::Size64K => write!(f, "64KB"),
            PageSize::Size2M => write!(f, "2MB"),
        }
    }
}

/// Address-space identifier carried in every translation tag (Fig 7a;
/// 2 bits in the paper, widened to 3 bits for the tenancy model of
/// [`crate::tenancy`] so up to [`crate::tenancy::MAX_TENANTS`] address
/// spaces coexist).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VmId(u8);

impl VmId {
    /// Creates a VM-ID, keeping the low 3 bits.
    pub fn new(raw: u8) -> Self {
        Self(raw & 0b111)
    }

    /// Raw 3-bit value.
    pub fn raw(self) -> u8 {
        self.0
    }
}

/// 2-bit SR-IOV virtual-function identifier (Fig 7a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VrfId(u8);

impl VrfId {
    /// Creates a VRF-ID, keeping the low 2 bits.
    pub fn new(raw: u8) -> Self {
        Self(raw & 0b11)
    }

    /// Raw 2-bit value.
    pub fn raw(self) -> u8 {
        self.0
    }
}

/// The lookup key of a translation: VPN plus the address-space
/// identifiers that must match for a tag hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TranslationKey {
    /// Virtual page number.
    pub vpn: Vpn,
    /// Address-space (process) identifier.
    pub vmid: VmId,
    /// SR-IOV virtual-function identifier.
    pub vrf: VrfId,
}

impl TranslationKey {
    /// Convenience constructor with zero VM-ID/VRF-ID (the
    /// single-tenant case used by most experiments).
    pub fn for_vpn(vpn: Vpn) -> Self {
        Self { vpn, vmid: VmId::default(), vrf: VrfId::default() }
    }
}

impl fmt::Display for TranslationKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/vm{}/vrf{}", self.vpn, self.vmid.raw(), self.vrf.raw())
    }
}

impl FastKey for TranslationKey {
    fn hash64(self) -> u64 {
        // VPNs are at most 36 bits (48-bit VA, >=4 KB pages), so the
        // identifiers pack losslessly into the top byte. The VM-ID's
        // low 2 bits keep the paper's Fig-7a positions (bits 56-57);
        // the tenancy widening's third bit goes to bit 61 so every
        // VM-ID < 4 hashes exactly as it did under the 2-bit layout.
        self.vpn.0
            ^ (((self.vmid.raw() & 0b11) as u64) << 56)
            ^ ((self.vrf.raw() as u64) << 58)
            ^ (((self.vmid.raw() >> 2) as u64) << 61)
    }
}

/// A completed translation: key plus the physical frame it maps to.
///
/// A translation may be *coalesced* (arXiv 2110.08613): `span_log2`
/// says it covers the whole power-of-two-aligned run of
/// `2^span_log2` contiguous pages starting at `key.vpn`, with
/// physically contiguous frames starting at `ppn`. The stored form is
/// always *base-normalized* — `key.vpn` is aligned to the span and
/// `ppn` is the base page's frame — so `span_log2 == 0` (the value
/// [`Translation::new`] produces) is exactly the classic one-page
/// translation and every pre-coalescing call site is unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Translation {
    /// The virtual side (the base page of the covered run).
    pub key: TranslationKey,
    /// The physical frame of the base page.
    pub ppn: Ppn,
    /// log2 of the number of contiguous pages this entry covers.
    pub span_log2: u8,
}

impl Translation {
    /// Creates a classic single-page translation (`span_log2 == 0`).
    pub fn new(key: TranslationKey, ppn: Ppn) -> Self {
        Self { key, ppn, span_log2: 0 }
    }

    /// Creates a coalesced translation covering `2^span_log2` pages,
    /// normalizing `(key, ppn)` to the base of the aligned run the
    /// page belongs to (so any covered page may be passed in).
    pub fn with_span(key: TranslationKey, ppn: Ppn, span_log2: u8) -> Self {
        debug_assert!(span_log2 < 32, "span exceeds any plausible region");
        let base = key.vpn.0 & !((1u64 << span_log2) - 1);
        let delta = key.vpn.0 - base;
        Self {
            key: TranslationKey { vpn: Vpn(base), ..key },
            ppn: Ppn(ppn.0 - delta),
            span_log2,
        }
    }

    /// Number of pages this entry covers (`2^span_log2`).
    pub fn pages(&self) -> u64 {
        1u64 << self.span_log2
    }

    /// Whether `vpn` falls inside the covered run.
    pub fn covers(&self, vpn: Vpn) -> bool {
        vpn.0.wrapping_sub(self.key.vpn.0) < self.pages()
    }

    /// The frame of a covered page (contiguity arithmetic).
    ///
    /// # Panics
    ///
    /// Panics (debug) if `vpn` is outside the covered run.
    pub fn ppn_for(&self, vpn: Vpn) -> Ppn {
        debug_assert!(self.covers(vpn), "page outside coalesced span");
        Ppn(self.ppn.0 + (vpn.0 - self.key.vpn.0))
    }

    /// Translates a full virtual address to its physical counterpart.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `va` is not inside this translation's span.
    pub fn apply(&self, va: VirtAddr, size: PageSize) -> PhysAddr {
        let vpn = va.vpn(size);
        debug_assert!(self.covers(vpn), "address outside mapped span");
        PhysAddr::new(self.ppn_for(vpn).base(size).raw() + va.page_offset(size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virt_addr_masks_to_48_bits() {
        let va = VirtAddr::new(u64::MAX);
        assert_eq!(va.raw(), (1u64 << 48) - 1);
    }

    #[test]
    fn vpn_and_offset_roundtrip() {
        let va = VirtAddr::new(0x1234_5678);
        for size in PageSize::all() {
            let reassembled = va.vpn(size).base(size).raw() + va.page_offset(size);
            assert_eq!(reassembled, va.raw(), "size {size}");
        }
    }

    #[test]
    fn page_size_properties() {
        assert_eq!(PageSize::Size4K.bytes(), 4096);
        assert_eq!(PageSize::Size64K.bytes(), 65536);
        assert_eq!(PageSize::Size2M.bytes(), 2 * 1024 * 1024);
        assert_eq!(PageSize::Size4K.walk_levels(), 4);
        assert_eq!(PageSize::Size64K.walk_levels(), 4);
        assert_eq!(PageSize::Size2M.walk_levels(), 3);
    }

    #[test]
    fn vmid_vrf_clamp() {
        assert_eq!(VmId::new(0xFF).raw(), 0b111, "VM-ID is 3 bits");
        assert_eq!(VmId::new(0b1000).raw(), 0);
        assert_eq!(VrfId::new(0b100).raw(), 0, "VRF-ID stays 2 bits");
    }

    #[test]
    fn widened_vmid_hash_is_backward_compatible() {
        // The 3-bit widening must not move any hash the old 2-bit
        // layout produced, so single-tenant and 4-way multi-app keys
        // take the same FastMap home slots as before. No simulated
        // result depends on those slots (maps are iterated only for
        // order-independent aggregation); keeping them keeps the
        // maps' probe chains, and so their host cost, unchanged.
        for vm in 0..4u8 {
            for vrf in 0..4u8 {
                let key = TranslationKey {
                    vpn: Vpn(0xABCD),
                    vmid: VmId::new(vm),
                    vrf: VrfId::new(vrf),
                };
                let legacy = 0xABCDu64 ^ ((vm as u64) << 56) ^ ((vrf as u64) << 58);
                assert_eq!(key.hash64(), legacy, "vm{vm}/vrf{vrf}");
            }
        }
        // And VM-IDs 4..8 must not collide with their low-2-bit twins.
        for vm in 4..8u8 {
            let hi = TranslationKey { vpn: Vpn(1), vmid: VmId::new(vm), vrf: VrfId::new(0) };
            let lo = TranslationKey { vpn: Vpn(1), vmid: VmId::new(vm - 4), vrf: VrfId::new(0) };
            assert_ne!(hi.hash64(), lo.hash64(), "vm{vm} aliases vm{}", vm - 4);
        }
    }

    #[test]
    fn translation_apply() {
        let key = TranslationKey::for_vpn(Vpn(5));
        let tx = Translation::new(key, Ppn(9));
        let va = VirtAddr::new(5 * 4096 + 123);
        assert_eq!(tx.apply(va, PageSize::Size4K).raw(), 9 * 4096 + 123);
    }

    #[test]
    fn with_span_normalizes_to_the_aligned_base() {
        // Page 6 inside a 4-page run [4..8) mapped at frames [90..94).
        let tx = Translation::with_span(TranslationKey::for_vpn(Vpn(6)), Ppn(92), 2);
        assert_eq!(tx.key.vpn, Vpn(4));
        assert_eq!(tx.ppn, Ppn(90));
        assert_eq!(tx.pages(), 4);
        for (v, p) in [(4u64, 90u64), (5, 91), (6, 92), (7, 93)] {
            assert!(tx.covers(Vpn(v)));
            assert_eq!(tx.ppn_for(Vpn(v)), Ppn(p));
        }
        assert!(!tx.covers(Vpn(3)));
        assert!(!tx.covers(Vpn(8)));
        // Applying an address of a non-base covered page works.
        let va = VirtAddr::new(5 * 4096 + 7);
        assert_eq!(tx.apply(va, PageSize::Size4K).raw(), 91 * 4096 + 7);
        // Span 0 via with_span is exactly `new`.
        let single = Translation::with_span(TranslationKey::for_vpn(Vpn(9)), Ppn(3), 0);
        assert_eq!(single, Translation::new(TranslationKey::for_vpn(Vpn(9)), Ppn(3)));
    }

    #[test]
    fn cache_line_index() {
        assert_eq!(VirtAddr::new(0).line(), 0);
        assert_eq!(VirtAddr::new(63).line(), 0);
        assert_eq!(VirtAddr::new(64).line(), 1);
        assert_eq!(PhysAddr::new(128).line(), 2);
    }

    #[test]
    fn display_impls_nonempty() {
        assert!(!format!("{}", VirtAddr::new(1)).is_empty());
        assert!(!format!("{}", PhysAddr::new(1)).is_empty());
        assert!(!format!("{}", Vpn(1)).is_empty());
        assert!(!format!("{}", Ppn(1)).is_empty());
        assert!(!format!("{}", PageSize::Size64K).is_empty());
        assert!(!format!("{}", TranslationKey::for_vpn(Vpn(3))).is_empty());
    }
}
