//! The multi-tenancy model: how victim structures share capacity
//! between concurrent address spaces.
//!
//! One GPU serving several untrusted clients gives every tenant its
//! own VM-ID ([`crate::addr::VmId`]) and page table; the question this
//! module answers is what happens when their translations compete for
//! the same L1/L2 TLBs and reconfigurable LDS/I-cache victim
//! structures. Three policies are modeled (TENANCY.md §3):
//!
//! * [`SharingPolicy::Partitioned`] — victim capacity is statically
//!   divided: each tenant owns `capacity / tenants` of every structure
//!   (per-set quotas in the TLBs, a segment/line stripe in the
//!   reconfigurable structures) and can never evict another tenant's
//!   entries. The MIG-style hard-isolation baseline of arXiv
//!   2404.18361 §2.
//! * [`SharingPolicy::Shared`] — free-for-all capacity with VM-ID
//!   checked hits: every entry carries its tenant's VM-ID in the tag
//!   (Fig 7a) and a hit requires a full-key match. This is exactly the
//!   behavior of the untenanted structures — a 1-tenant `Shared`
//!   configuration is bit-identical to tenancy-off.
//! * [`SharingPolicy::SubEntry`] — sub-entry sharing after arXiv
//!   2404.18361 §4: entries are tagged by a canonical key (VM-ID
//!   zeroed, see [`canonical`]) plus a per-tenant valid mask; tenants
//!   whose VPN maps to the *same* PPN share one physical entry, each
//!   owning one mask bit. A hit requires both the canonical tag match
//!   and the requester's mask bit; a shootdown clears only the
//!   shooting tenant's bit and the entry dies when its mask empties.
//!
//! Determinism: all three policies are pure functions of the structure
//! state and the request stream — no randomness, no wall-clock — so
//! multi-tenant matrix cells stay bit-identical for any `--threads N`
//! (ARCHITECTURE §8).

use std::fmt;

use crate::addr::{Ppn, Translation, TranslationKey, VmId, Vpn};

/// Maximum concurrent tenants: one per 3-bit VM-ID.
pub const MAX_TENANTS: usize = 8;

/// How victim-structure capacity is shared between tenants
/// (TENANCY.md §3; see the module docs for the model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SharingPolicy {
    /// Static partitioning: per-tenant capacity quotas, no cross-tenant
    /// eviction (arXiv 2404.18361 §2's MIG baseline).
    Partitioned,
    /// Free sharing with VM-ID-checked hits (the untenanted tag check,
    /// Fig 7a).
    #[default]
    Shared,
    /// Sub-entry sharing: PPN-matching tenants share one entry under a
    /// per-tenant valid mask (arXiv 2404.18361 §4).
    SubEntry,
}

impl SharingPolicy {
    /// All policies, in the order figures sweep them.
    pub fn all() -> [SharingPolicy; 3] {
        [SharingPolicy::Partitioned, SharingPolicy::Shared, SharingPolicy::SubEntry]
    }

    /// Parses a CLI spelling (`partitioned` | `shared` | `subentry`).
    pub fn parse(s: &str) -> Option<SharingPolicy> {
        match s {
            "partitioned" => Some(SharingPolicy::Partitioned),
            "shared" => Some(SharingPolicy::Shared),
            "subentry" | "sub-entry" => Some(SharingPolicy::SubEntry),
            _ => None,
        }
    }
}

impl fmt::Display for SharingPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SharingPolicy::Partitioned => write!(f, "partitioned"),
            SharingPolicy::Shared => write!(f, "shared"),
            SharingPolicy::SubEntry => write!(f, "subentry"),
        }
    }
}

/// One tenancy configuration: how many concurrent tenants share the
/// GPU and under which [`SharingPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenancyConfig {
    /// Concurrent tenants (1..=[`MAX_TENANTS`]); tenant *i* runs in
    /// address space [`VmId::new`]`(i)`.
    pub tenants: u8,
    /// Capacity-sharing policy of every tagged structure.
    pub policy: SharingPolicy,
}

impl TenancyConfig {
    /// Creates a tenancy configuration.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= tenants <= MAX_TENANTS`.
    pub fn new(tenants: u8, policy: SharingPolicy) -> Self {
        assert!(
            (1..=MAX_TENANTS as u8).contains(&tenants),
            "tenants must be 1..={MAX_TENANTS}, got {tenants}"
        );
        Self { tenants, policy }
    }

    /// The per-tenant valid-mask bit of a VM-ID (sub-entry sharing).
    pub fn mask_bit(vmid: VmId) -> u8 {
        1u8 << vmid.raw()
    }

    /// Whether this configuration tags entries with a canonical key
    /// plus per-tenant mask instead of a full per-tenant key.
    pub fn sub_entry(&self) -> bool {
        self.policy == SharingPolicy::SubEntry
    }

    /// Whether this configuration statically partitions capacity.
    /// A single tenant owns everything, so partitioning degenerates to
    /// free sharing and is treated as such.
    pub fn partitioned(&self) -> bool {
        self.policy == SharingPolicy::Partitioned && self.tenants > 1
    }
}

/// The canonical (VM-ID-zeroed) form of a key: the shared tag under
/// [`SharingPolicy::SubEntry`]. Tenants that map the same VPN to the
/// same PPN collapse onto one canonical entry; the VRF-ID stays in the
/// tag because SR-IOV functions never share mappings.
pub fn canonical(key: TranslationKey) -> TranslationKey {
    TranslationKey { vpn: key.vpn, vmid: VmId::new(0), vrf: key.vrf }
}

/// Reconstructs the representative owner of a sub-entry victim: when a
/// shared entry with valid mask `mask` is evicted, it is forwarded
/// down the victim chain (L1 TLB → LDS → I-cache → L2 TLB, Fig 12) on
/// behalf of its lowest-numbered sharer; the other sharers re-merge on
/// their next miss. Forwarding one copy per sharer would multiply
/// victim traffic by the sharing degree — the opposite of what
/// sub-entry sharing buys (TENANCY.md §3.3).
pub fn representative(key: TranslationKey, mask: u8) -> TranslationKey {
    let vm = if mask == 0 { 0 } else { mask.trailing_zeros() as u8 };
    TranslationKey { vpn: key.vpn, vmid: VmId::new(vm), vrf: key.vrf }
}

/// The logical single-page translations one stored entry stands for,
/// for coherence checks and sharing analysis: one per covered page of
/// its `2^span` run (base `key`, frames from `ppn`) and, under
/// sub-entry sharing (`sharers = Some(valid mask)`), one per sharing
/// tenant, the canonical key retagged with that tenant's VM-ID. Pages
/// are the outer order, tenants ascend within a page.
pub fn expand(
    key: TranslationKey,
    ppn: Ppn,
    span: u8,
    sharers: Option<u8>,
) -> impl Iterator<Item = Translation> {
    let mask = sharers.unwrap_or(1 << key.vmid.raw());
    (0..1u64 << span).flat_map(move |o| {
        (0..MAX_TENANTS as u8).filter(move |b| mask & (1 << b) != 0).map(move |b| {
            let vmid = if sharers.is_some() { VmId::new(b) } else { key.vmid };
            Translation::new(TranslationKey { vpn: Vpn(key.vpn.0 + o), vmid, ..key }, Ppn(ppn.0 + o))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Vpn, VrfId};

    #[test]
    fn policy_parse_round_trips() {
        for p in SharingPolicy::all() {
            assert_eq!(SharingPolicy::parse(&p.to_string()), Some(p));
        }
        assert_eq!(SharingPolicy::parse("sub-entry"), Some(SharingPolicy::SubEntry));
        assert_eq!(SharingPolicy::parse("nope"), None);
    }

    #[test]
    fn config_validates_tenant_range() {
        let t = TenancyConfig::new(4, SharingPolicy::SubEntry);
        assert!(t.sub_entry());
        assert!(!t.partitioned());
        assert!(TenancyConfig::new(2, SharingPolicy::Partitioned).partitioned());
        assert!(
            !TenancyConfig::new(1, SharingPolicy::Partitioned).partitioned(),
            "a single tenant owns all capacity"
        );
    }

    #[test]
    #[should_panic(expected = "tenants must be")]
    fn config_rejects_zero_tenants() {
        let _ = TenancyConfig::new(0, SharingPolicy::Shared);
    }

    #[test]
    #[should_panic(expected = "tenants must be")]
    fn config_rejects_too_many_tenants() {
        let _ = TenancyConfig::new(9, SharingPolicy::Shared);
    }

    #[test]
    fn canonical_zeroes_vmid_only() {
        let key = TranslationKey { vpn: Vpn(9), vmid: VmId::new(5), vrf: VrfId::new(1) };
        let c = canonical(key);
        assert_eq!(c.vpn, key.vpn);
        assert_eq!(c.vmid.raw(), 0);
        assert_eq!(c.vrf, key.vrf, "VRF stays in the tag");
    }

    #[test]
    fn representative_is_lowest_sharer() {
        let key = canonical(TranslationKey::for_vpn(Vpn(3)));
        assert_eq!(representative(key, 0b0110).vmid.raw(), 1);
        assert_eq!(representative(key, 0b1000_0000).vmid.raw(), 7);
        assert_eq!(representative(key, 0).vmid.raw(), 0, "empty mask defaults to 0");
    }

    #[test]
    fn mask_bits_cover_all_tenants() {
        let seen: u8 = (0..MAX_TENANTS as u8)
            .map(|i| TenancyConfig::mask_bit(VmId::new(i)))
            .fold(0, |a, b| a | b);
        assert_eq!(seen, 0xFF);
    }
}
