//! The Tx-mode core shared by the reconfigurable LDS (§4.2) and
//! I-cache (§4.3).
//!
//! Both victim stores keep L1-TLB victims in groups of ways sharing one
//! base-delta compressed tag word: 3 or 6 ways per LDS segment, 1 or 8
//! per Tx-mode I-cache line. Everything inside such a group lives here
//! once: the struct-of-arrays way group `TxWays`, the tagging state
//! (tenancy, coalesced spans, LRU tick, partitioned stripe index) and
//! every algorithm over it — span-covering lookup, the routing gate,
//! fill, shootdown, tenant teardown and the per-page/per-sharer
//! iterator — ticking one set of [`TxCounters`]. A structure supplies
//! its group container (`TxGroup`): whether a group is in Tx mode and
//! what else a hit refreshes. Mode transitions stay with each
//! structure.
//!
//! With a [`TenancyConfig`] installed, *partitioned* stripes the groups
//! across tenants (tenant *i* owns every group ≡ *i* mod `tenants`, so
//! no tenant can evict another's translations); *shared* is the
//! untenanted full-key tag check; *sub-entry* (arXiv 2404.18361 §4)
//! tags ways with a canonical VM-ID-zeroed key plus a per-tenant valid
//! mask, so PPN-matching tenants collapse onto one way each owning one
//! mask bit, and a victim is forwarded for its lowest-numbered sharer.
//!
//! With coalescing on (arXiv 2110.08613), one way may cover `2^span`
//! contiguous pages and lives in its *base* VPN's group, so a lookup
//! that misses on the exact key probes the base of every span level
//! ([`TranslationKey::span_bases`]). A shootdown drops every covering
//! way *whole* — unlike the TLB's buddy split, a victim cache holds
//! clean copies, so losing the run's other pages is always safe (they
//! refill on the next walk).

use gtr_sim::stats::HitMiss;
use gtr_vm::addr::{Ppn, Translation, TranslationKey, VmId, Vpn};
use gtr_vm::tenancy::{self, TenancyConfig};
use gtr_vm::tlb::CoalescingCounters;

use crate::compress::{match_mask, TagGroup};

/// One group of translation ways sharing a compressed tag word.
#[derive(Debug, Clone)]
pub(crate) struct TxWays<const N: usize> {
    tags: TagGroup,
    /// Decoded full VPNs per way — the compare lane. Full VPNs, not
    /// compressed deltas: shootdown probes arrive at every CU's LDS
    /// under home hashing, where a delta-only compare against a foreign
    /// base would false-hit (see [`match_mask`]).
    vpns: [u64; N],
    /// Full keys per way, consulted only on a VPN lane match to settle
    /// the VM-ID/VRF-ID identity (§7.2 SR-IOV spaces).
    keys: [TranslationKey; N],
    ppns: [Ppn; N],
    last_use: [u64; N],
    /// Per-tenant valid masks per way, meaningful only under sub-entry
    /// sharing: bit *t* set means tenant *t* shares the way's
    /// canonical-key translation.
    tmasks: [u8; N],
    /// Coalesced reach per way: the way covers `2^span` contiguous
    /// pages from its (span-aligned) base VPN. Always 0 with
    /// coalescing off.
    spans: [u8; N],
    /// Occupancy bitmask over the first `ways` lanes.
    valid: u32,
}

impl<const N: usize> TxWays<N> {
    /// An empty group compressing its tags with `tags`' layout.
    pub(crate) fn new(tags: TagGroup) -> Self {
        Self {
            tags,
            vpns: [0; N],
            keys: [TranslationKey::for_vpn(Vpn(0)); N],
            ppns: [Ppn(0); N],
            last_use: [0; N],
            tmasks: [0; N],
            spans: [0; N],
            valid: 0,
        }
    }

    /// Index of the way holding `key`, in slot order, or `None`.
    fn find(&self, ways: usize, key: TranslationKey) -> Option<usize> {
        let mut m = match_mask(&self.vpns[..ways], self.valid, key.vpn.0);
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            if self.keys[i] == key {
                return Some(i);
            }
            m &= m - 1;
        }
        None
    }

    fn set(&mut self, i: usize, key: TranslationKey, ppn: Ppn, tick: u64, tmask: u8, span: u8) {
        self.vpns[i] = key.vpn.0;
        self.keys[i] = key;
        self.ppns[i] = ppn;
        self.last_use[i] = tick;
        self.tmasks[i] = tmask;
        self.spans[i] = span;
        self.valid |= 1 << i;
    }

    /// The translation forwarded when way `i` is displaced: the full
    /// key, or under sub-entry sharing the canonical key retagged with
    /// its lowest-numbered sharer ([`tenancy::representative`]). A
    /// coalesced way forwards its whole span — the Fig-12 fill flow
    /// moves the covered run downstream in one entry.
    fn victim(&self, i: usize, sub: bool) -> Translation {
        let key =
            if sub { tenancy::representative(self.keys[i], self.tmasks[i]) } else { self.keys[i] };
        Translation::with_span(key, self.ppns[i], self.spans[i])
    }

    /// Frees way `i`.
    fn remove(&mut self, i: usize) {
        self.valid &= !(1 << i);
        self.tags.retire();
    }

    /// Clears sharer `bit` from way `i`'s sub-entry mask, freeing the
    /// way once the mask empties; returns whether the bit was set.
    fn unshare(&mut self, i: usize, bit: u8) -> bool {
        if self.tmasks[i] & bit == 0 {
            return false;
        }
        self.tmasks[i] &= !bit;
        if self.tmasks[i] == 0 {
            self.remove(i);
        }
        true
    }

    /// Resident translations (occupied ways).
    pub(crate) fn resident(&self) -> usize {
        self.valid.count_ones() as usize
    }

    /// Drops every way and the tag base; returns how many were resident.
    pub(crate) fn clear(&mut self) -> usize {
        let n = self.resident();
        self.valid = 0;
        self.tags.clear();
        n
    }
}

/// Iterates the set-bit positions of an occupancy mask in ascending
/// (slot) order.
fn ones(mask: u32) -> impl Iterator<Item = usize> {
    (0..u32::BITS as usize).filter(move |i| mask & (1 << i) != 0)
}

/// A structure's group container: an LDS segment or an I-cache line,
/// which holds a way group only while it operates in Tx mode.
pub(crate) trait TxGroup<const N: usize> {
    /// The way group, if this group is in Tx mode.
    fn tx(&self) -> Option<&TxWays<N>>;
    /// Mutable access to the way group, if this group is in Tx mode.
    fn tx_mut(&mut self) -> Option<&mut TxWays<N>>;
    /// Container-level bookkeeping of a translation hit at `tick`.
    fn touch(&mut self, _tick: u64) {}
}

/// Outcome of a translation insert into either victim store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxInsert {
    /// Stored; `evicted` holds a displaced translation that continues
    /// down the Fig-12 fill flow.
    Inserted {
        /// Victim displaced by this insert, if any.
        evicted: Option<Translation>,
    },
    /// The target group holds no Tx capacity: the candidate bypasses
    /// this store and continues down the fill flow.
    Bypassed,
}

/// Counters shared by both victim stores.
#[derive(Debug, Clone, Default)]
pub struct TxCounters {
    /// Translation lookup hits/misses (a lookup the structure's mode
    /// bits rule out is a miss).
    pub lookups: HitMiss,
    /// Successful inserts (fills, refreshes and merges).
    pub inserts: u64,
    /// Inserts bypassed because the target group held no Tx capacity
    /// (an App-mode LDS segment, an instruction I-cache line).
    pub bypassed: u64,
    /// Translations evicted by newer translations.
    pub evictions: u64,
    /// Base-delta compression conflicts on insert.
    pub compression_conflicts: u64,
    /// Translations silently dropped during conflict re-basing (only
    /// one victim can be forwarded per insert).
    pub conflict_drops: u64,
    /// Shootdown invalidations that found an entry.
    pub shootdowns: u64,
    /// Coalesced-entry counters (all zero with coalescing off). Here
    /// `splits` counts covering ways conservatively *dropped* whole by
    /// a single-page shootdown.
    pub coalescing: CoalescingCounters,
}

/// The group array of one victim store plus its tagging state.
#[derive(Debug, Clone)]
pub(crate) struct TxCore<G, const N: usize> {
    /// The structure's groups, indexed by [`TxCore::index`].
    pub(crate) groups: Vec<G>,
    /// Translation ways in use per group (at most `N`).
    pub(crate) ways: usize,
    /// VPN bits skipped before indexing and tagging (see
    /// `TxLds::with_index_shift`; 0 for the I-cache).
    pub(crate) index_shift: u32,
    /// Capacity-sharing policy between concurrent tenants; `None`
    /// (the default) is bit-identical to the untenanted structure.
    tenancy: Option<TenancyConfig>,
    /// Coalesced (variable-reach) ways: `Some(max)` lets one way map up
    /// to `2^max` contiguous pages; `None` is the classic
    /// one-page-per-way default.
    coalescing: Option<u8>,
    /// LRU clock, advanced once per structure access.
    tick: u64,
}

impl<G: TxGroup<N>, const N: usize> TxCore<G, N> {
    pub(crate) fn new(groups: Vec<G>, ways: usize) -> Self {
        assert!(ways <= N, "ways exceed the group's SoA lanes");
        Self { groups, ways, index_shift: 0, tenancy: None, coalescing: None, tick: 0 }
    }

    /// Advances the LRU clock and returns the new tick.
    pub(crate) fn tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Installs a tenancy policy; panics once translations are resident.
    pub(crate) fn set_tenancy(&mut self, tenancy: TenancyConfig) {
        assert!(self.resident() == 0, "tenancy policy must be set before first insert");
        self.tenancy = Some(tenancy);
    }

    /// Enables or disables coalesced ways; panics once translations
    /// are resident.
    pub(crate) fn set_coalescing(&mut self, max_span_log2: Option<u8>) {
        assert!(self.resident() == 0, "coalescing must be set before first insert");
        self.coalescing = max_span_log2;
    }

    fn sub_entry(&self) -> bool {
        self.tenancy.is_some_and(|t| t.sub_entry())
    }

    /// The key stored in the tag lanes: canonical (VM-ID-zeroed) under
    /// sub-entry sharing, the full key otherwise.
    fn store_key(&self, key: TranslationKey) -> TranslationKey {
        if self.sub_entry() { tenancy::canonical(key) } else { key }
    }

    /// The group `key` maps to.
    pub(crate) fn index(&self, key: TranslationKey) -> usize {
        let vpn = (key.vpn.0 >> self.index_shift) as usize;
        let len = self.groups.len();
        match self.tenancy {
            // Partitioned: tenant `t` owns the group stripe ≡ `t`
            // (mod tenants); any remainder groups when the count does
            // not divide go unused (they are nobody's quota).
            Some(t) if t.partitioned() => {
                let tenants = t.tenants as usize;
                let per = (len / tenants).max(1);
                ((vpn % per) * tenants + key.vmid.raw() as usize) % len
            }
            _ => vpn % len,
        }
    }

    /// The tag `key` is compressed under within its group.
    fn tag(&self, key: TranslationKey) -> u64 {
        (key.vpn.0 >> self.index_shift) / self.groups.len() as u64
    }

    /// Whether a lookup for `key` could possibly hit: the key's own
    /// group is in Tx mode, or — under coalescing — any span-base group
    /// is. With coalescing off this is exactly the own-group mode test.
    pub(crate) fn may_hold(&self, key: TranslationKey) -> bool {
        key.span_bases(self.coalescing.unwrap_or(0))
            .any(|(_, bkey)| self.groups[self.index(bkey)].tx().is_some())
    }

    /// Looks up `key`; a hit refreshes the way's LRU position (and
    /// [`TxGroup::touch`]es its container) and returns a copy. Under
    /// coalescing a miss on the exact key falls back to the masked base
    /// of every span level and hits iff a resident way's span covers
    /// `key`; the hit is the base-normalized run entry.
    pub(crate) fn lookup(&mut self, key: TranslationKey, c: &mut TxCounters) -> Option<Translation> {
        let tick = self.tick();
        let ways = self.ways;
        let sub = self.sub_entry();
        let bit = TenancyConfig::mask_bit(key.vmid);
        for (k, bkey) in key.span_bases(self.coalescing.unwrap_or(0)) {
            let idx = self.index(bkey);
            let skey = self.store_key(bkey);
            let Some(g) = self.groups[idx].tx_mut() else { continue };
            // A sub-entry hit needs the requester's valid-mask bit on
            // top of the canonical tag match; a bare tag match without
            // the bit misses (and does not refresh LRU — the requester
            // holds no stake in the entry yet). A covering match must
            // additionally reach the probed page.
            let Some(i) = g.find(ways, skey) else { continue };
            if (sub && g.tmasks[i] & bit == 0) || key.vpn.0 - bkey.vpn.0 >= (1u64 << g.spans[i]) {
                continue;
            }
            g.last_use[i] = tick;
            let hit_key = if sub { bkey } else { g.keys[i] };
            let hit = Translation::with_span(hit_key, g.ppns[i], g.spans[i]);
            self.groups[idx].touch(tick);
            c.lookups.hit();
            if k > 0 {
                c.coalescing.hits += 1;
            }
            return Some(hit);
        }
        c.lookups.miss();
        None
    }

    /// Fills `tx` into its group `idx` (`self.index(tx.key)`), which
    /// the caller has already put in Tx mode (clearing it when it was
    /// not), stamping it with the insert's `tick` (from [`Self::tick`]).
    /// Returns the translation displaced to continue down the Fig-12
    /// fill flow, if any. A coalesced translation occupies one way
    /// covering its whole span.
    pub(crate) fn fill(
        &mut self,
        idx: usize,
        tx: Translation,
        tick: u64,
        c: &mut TxCounters,
    ) -> Option<Translation> {
        let tag = self.tag(tx.key);
        let ways = self.ways;
        let skey = self.store_key(tx.key);
        let sub = self.sub_entry();
        let bit = TenancyConfig::mask_bit(tx.key.vmid);
        if self.coalescing.is_some() {
            c.coalescing.inserts += 1;
            c.coalescing.span_pages += 1u64 << tx.span_log2;
            if tx.span_log2 > 0 {
                c.coalescing.coalesced += 1;
            }
        }
        c.inserts += 1;
        let g = self.groups[idx].tx_mut().expect("fill targets a Tx-mode group");
        // Refresh on re-insert of the same key; under sub-entry sharing
        // a PPN-matching insert *merges* (the tenant joins the way's
        // valid mask, arXiv 2404.18361 §4) while a PPN conflict rebases
        // the way to the inserting tenant alone — the old sharers'
        // mapping is stale.
        if let Some(i) = g.find(ways, skey) {
            if sub && g.ppns[i] == tx.ppn {
                g.tmasks[i] |= bit;
            } else {
                if sub {
                    g.tmasks[i] = bit;
                }
                g.ppns[i] = tx.ppn;
            }
            // The refresh's span wins (the newest walk knows best
            // whether the run widened or narrowed).
            g.spans[i] = tx.span_log2;
            g.last_use[i] = tick;
            return None;
        }
        let mut evicted = None;
        if !g.tags.fits(tag) {
            // Compression conflict: the residents' base cannot express
            // the new tag. Evict everything and re-base; only the
            // most-recently-used victim is forwarded.
            c.compression_conflicts += 1;
            evicted = ones(g.valid).max_by_key(|&i| g.last_use[i]).map(|i| g.victim(i, sub));
            let dropped = g.clear();
            c.evictions += dropped as u64;
            c.conflict_drops += dropped.saturating_sub(1) as u64;
        } else if g.resident() == ways {
            // Group full: evict the LRU way.
            let i = ones(g.valid).min_by_key(|&i| g.last_use[i]).expect("full group non-empty");
            evicted = Some(g.victim(i, sub));
            g.remove(i);
            c.evictions += 1;
        }
        assert!(g.tags.try_admit(tag), "tag checked to fit");
        let free = (!g.valid).trailing_zeros() as usize;
        debug_assert!(free < ways, "a way was freed or available");
        g.set(free, skey, tx.ppn, tick, bit, tx.span_log2);
        evicted
    }

    /// Shootdown: invalidates `key` if present; returns whether any
    /// way was hit. Under sub-entry sharing only the shooting tenant's
    /// valid-mask bit is cleared; the way survives for its co-sharers
    /// and is freed only when the mask empties (arXiv 2404.18361
    /// §4.3). Under coalescing every way whose span covers `key` is
    /// dropped whole; with coalescing off only the exact key is probed.
    pub(crate) fn shootdown(&mut self, key: TranslationKey, c: &mut TxCounters) -> bool {
        let ways = self.ways;
        let sub = self.sub_entry();
        let bit = TenancyConfig::mask_bit(key.vmid);
        let mut any = false;
        for (_, bkey) in key.span_bases(self.coalescing.unwrap_or(0)) {
            let idx = self.index(bkey);
            let skey = self.store_key(bkey);
            let Some(g) = self.groups[idx].tx_mut() else { continue };
            let Some(i) = g.find(ways, skey) else { continue };
            let span = g.spans[i];
            if key.vpn.0 - bkey.vpn.0 >= (1u64 << span) {
                continue; // resident way does not reach the shot page
            }
            if !sub {
                g.remove(i);
            } else if !g.unshare(i, bit) {
                continue;
            }
            c.shootdowns += 1;
            if span > 0 {
                c.coalescing.splits += 1;
            }
            any = true;
        }
        any
    }

    /// Drops every translation visible to `vmid` (tenant teardown /
    /// churn); returns the number of visibility losses. Under
    /// sub-entry sharing this clears the tenant's bit across all ways,
    /// freeing only ways whose mask empties.
    pub(crate) fn invalidate_vmid(&mut self, vmid: VmId) -> usize {
        let sub = self.sub_entry();
        let bit = TenancyConfig::mask_bit(vmid);
        let mut lost = 0;
        for g in self.groups.iter_mut().filter_map(G::tx_mut) {
            for i in ones(g.valid) {
                if sub {
                    lost += usize::from(g.unshare(i, bit));
                } else if g.keys[i].vmid == vmid {
                    g.remove(i);
                    lost += 1;
                }
            }
        }
        lost
    }

    /// Translations currently resident.
    pub(crate) fn resident(&self) -> usize {
        self.groups.iter().filter_map(G::tx).map(TxWays::resident).sum()
    }

    /// Iterates over resident translations. Under sub-entry sharing
    /// each way expands to one translation per set mask bit, with the
    /// canonical key retagged by that sharer's VM-ID — so coherence
    /// checks can validate the mapping against every sharing tenant's
    /// page table. A coalesced way expands to one single-page
    /// translation per covered page, so coherence checks validate the
    /// run arithmetic page by page.
    pub(crate) fn iter(&self) -> impl Iterator<Item = Translation> + '_ {
        let sub = self.sub_entry();
        self.groups.iter().filter_map(G::tx).flat_map(move |g| {
            ones(g.valid).flat_map(move |i| {
                tenancy::expand(g.keys[i], g.ppns[i], g.spans[i], sub.then_some(g.tmasks[i]))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    //! The Tx-mode suite, run once per victim store: every behaviour
    //! the core implements for both structures is checked through each
    //! structure's public API.
    use super::*;
    use crate::config::{Replacement, SegmentSize, TxPerLine};
    use crate::icache_tx::TxIcache;
    use crate::lds_tx::{SegmentMode, TxLds};
    use gtr_sim::rng::SplitMix64;
    use gtr_vm::addr::VrfId;
    use gtr_vm::tenancy::SharingPolicy;

    /// One victim store seen through its public API.
    trait Store: Sized {
        /// The paper's default geometry.
        fn paper() -> Self;
        /// Inserts `tx`: `None` if bypassed, else the displaced victim.
        fn put(&mut self, tx: Translation) -> Option<Option<Translation>>;
        fn get(&mut self, key: TranslationKey) -> Option<Translation>;
        fn may_hold(&self, key: TranslationKey) -> bool;
        /// The mode-bit gate of `key`'s own group.
        fn own_group_is_tx(&self, key: TranslationKey) -> bool;
        fn shoot(&mut self, key: TranslationKey) -> bool;
        fn drop_vmid(&mut self, vmid: VmId) -> usize;
        fn entries(&self) -> Vec<Translation>;
        fn resident(&self) -> usize;
        fn counters(&self) -> &TxCounters;
        /// Groups: keys `v` and `v + groups()` share a group.
        fn groups(&self) -> usize;
        fn ways(&self) -> usize;
        fn tenancy(&mut self, t: TenancyConfig);
        fn coalescing(&mut self, max: Option<u8>);
        /// Takes the Tx capacity of (at least) groups `0..n` away — App
        /// segments, instruction lines — so inserts there bypass.
        fn block(&mut self, n: usize);
    }

    fn outcome(r: TxInsert) -> Option<Option<Translation>> {
        match r {
            TxInsert::Inserted { evicted } => Some(evicted),
            TxInsert::Bypassed => None,
        }
    }

    impl Store for TxLds {
        fn paper() -> Self {
            TxLds::new(16 * 1024, SegmentSize::Bytes32)
        }
        fn put(&mut self, tx: Translation) -> Option<Option<Translation>> {
            outcome(self.insert(tx))
        }
        fn get(&mut self, key: TranslationKey) -> Option<Translation> {
            self.lookup(key)
        }
        fn may_hold(&self, key: TranslationKey) -> bool {
            TxLds::may_hold(self, key)
        }
        fn own_group_is_tx(&self, key: TranslationKey) -> bool {
            self.segment_mode(key) == SegmentMode::Tx
        }
        fn shoot(&mut self, key: TranslationKey) -> bool {
            self.shootdown(key)
        }
        fn drop_vmid(&mut self, vmid: VmId) -> usize {
            self.invalidate_vmid(vmid)
        }
        fn entries(&self) -> Vec<Translation> {
            self.iter().collect()
        }
        fn resident(&self) -> usize {
            TxLds::resident(self)
        }
        fn counters(&self) -> &TxCounters {
            &self.stats().tx
        }
        fn groups(&self) -> usize {
            self.segment_count()
        }
        fn ways(&self) -> usize {
            TxLds::ways(self)
        }
        fn tenancy(&mut self, t: TenancyConfig) {
            self.set_tenancy(t);
        }
        fn coalescing(&mut self, max: Option<u8>) {
            self.set_coalescing(max);
        }
        fn block(&mut self, n: usize) {
            self.on_app_allocate(0, (n * 16 * 1024 / self.segment_count()) as u32);
        }
    }

    impl Store for TxIcache {
        fn paper() -> Self {
            TxIcache::new(16 * 1024, 8, TxPerLine::Eight, Replacement::InstructionAware)
        }
        fn put(&mut self, tx: Translation) -> Option<Option<Translation>> {
            outcome(self.insert_tx(tx))
        }
        fn get(&mut self, key: TranslationKey) -> Option<Translation> {
            self.lookup_tx(key)
        }
        fn may_hold(&self, key: TranslationKey) -> bool {
            self.may_hold_tx(key)
        }
        fn own_group_is_tx(&self, key: TranslationKey) -> bool {
            self.is_tx_line(key)
        }
        fn shoot(&mut self, key: TranslationKey) -> bool {
            self.shootdown(key)
        }
        fn drop_vmid(&mut self, vmid: VmId) -> usize {
            self.invalidate_vmid(vmid)
        }
        fn entries(&self) -> Vec<Translation> {
            self.iter_tx().collect()
        }
        fn resident(&self) -> usize {
            self.resident_tx()
        }
        fn counters(&self) -> &TxCounters {
            &self.stats().tx
        }
        fn groups(&self) -> usize {
            self.line_count()
        }
        fn ways(&self) -> usize {
            self.tx_slots()
        }
        fn tenancy(&mut self, t: TenancyConfig) {
            self.set_tenancy(t);
        }
        fn coalescing(&mut self, max: Option<u8>) {
            self.set_coalescing(max);
        }
        fn block(&mut self, n: usize) {
            // Eight instruction lines fill one set: lines 8s..8s+8.
            let sets = self.line_count() as u64 / 8;
            for set in 0..(n as u64).div_ceil(8) {
                for way in 0..8 {
                    self.fetch(set + way * sets);
                }
            }
        }
    }

    fn tx(v: u64) -> Translation {
        Translation::new(TranslationKey::for_vpn(Vpn(v)), Ppn(v + 1))
    }

    fn key(v: u64) -> TranslationKey {
        TranslationKey::for_vpn(Vpn(v))
    }

    fn keyed(v: u64, vm: u8) -> Translation {
        let key = TranslationKey { vpn: Vpn(v), vmid: VmId::new(vm), vrf: VrfId::new(0) };
        Translation::new(key, Ppn(v + 1))
    }

    fn tenanted<S: Store>(policy: SharingPolicy, tenants: u8) -> S {
        let mut s = S::paper();
        s.tenancy(TenancyConfig::new(tenants, policy));
        s
    }

    fn coalescing<S: Store>(max: u8) -> S {
        let mut s = S::paper();
        s.coalescing(Some(max));
        s
    }

    /// One span-3 run: vpns 40..48 -> ppns 500..508.
    fn span3() -> Translation {
        Translation::with_span(key(40), Ppn(500), 3)
    }

    fn insert_lookup_promote_cycle<S: Store>() {
        let mut s = S::paper();
        let t = tx(42);
        assert_eq!(s.put(t), Some(None));
        assert_eq!(s.resident(), 1);
        assert_eq!(s.get(t.key), Some(t));
        assert_eq!(s.resident(), 1, "hit copies out; the entry stays");
        assert_eq!(s.get(t.key), Some(t), "still resident");
        assert_eq!(s.counters().lookups.hits, 2);
    }

    fn full_group_evicts_lru<S: Store>() {
        let mut s = S::paper();
        let n = s.groups() as u64;
        let ways = s.ways() as u64;
        let v = |i: u64| tx(5 + i * n);
        for i in 0..ways {
            assert_eq!(s.put(v(i)), Some(None));
        }
        assert_eq!(s.resident(), ways as usize);
        // LRU is v(0); one more key in the same group evicts it.
        assert_eq!(s.put(v(ways)), Some(Some(v(0))));
        assert_eq!(s.resident(), ways as usize);
        assert_eq!(s.counters().evictions, 1);
    }

    fn lookup_refreshes_lru<S: Store>() {
        let mut s = S::paper();
        let n = s.groups() as u64;
        let ways = s.ways() as u64;
        let v = |i: u64| tx(5 + i * n);
        for i in 0..ways {
            s.put(v(i));
        }
        s.get(v(0).key); // v(0) becomes MRU; LRU is v(1)
        assert_eq!(s.put(v(ways)), Some(Some(v(1))));
    }

    fn compression_conflict_evicts_and_rebases<S: Store>() {
        let mut s = S::paper();
        let n = s.groups() as u64;
        // Tags 0 and 1 coexist; tag 1<<20 fits neither delta width.
        s.put(tx(7));
        s.put(tx(7 + n));
        s.get(tx(7).key); // the MRU victim is forwarded
        let far = tx(7 + (1 << 20) * n);
        assert_eq!(s.put(far), Some(Some(tx(7))), "conflict forwards the MRU resident");
        let c = s.counters();
        assert_eq!((c.compression_conflicts, c.evictions, c.conflict_drops), (1, 2, 1));
        assert_eq!(s.resident(), 1);
        assert_eq!(s.get(far.key), Some(far));
    }

    fn reinsert_refreshes_ppn<S: Store>() {
        let mut s = S::paper();
        let k = key(9);
        s.put(Translation::new(k, Ppn(1)));
        s.put(Translation::new(k, Ppn(2)));
        assert_eq!(s.resident(), 1);
        assert_eq!(s.get(k).unwrap().ppn, Ppn(2));
        assert_eq!(s.counters().inserts, 2);
    }

    fn shootdown_removes_entry<S: Store>() {
        let mut s = S::paper();
        let t = tx(11);
        s.put(t);
        assert!(s.shoot(t.key));
        assert!(!s.shoot(t.key));
        assert_eq!(s.get(t.key), None);
        assert_eq!(s.resident(), 0);
        assert_eq!(s.counters().shootdowns, 1);
    }

    fn sriov_identities_do_not_alias<S: Store>() {
        let mut s = S::paper();
        let mk = |vm: u8, vrf: u8| TranslationKey {
            vpn: Vpn(7),
            vmid: VmId::new(vm),
            vrf: VrfId::new(vrf),
        };
        s.put(Translation::new(mk(0, 0), Ppn(1)));
        s.put(Translation::new(mk(1, 1), Ppn(2)));
        assert_eq!(s.get(mk(0, 0)).unwrap().ppn, Ppn(1));
        assert_eq!(s.get(mk(1, 1)).unwrap().ppn, Ppn(2));
        assert_eq!(s.get(mk(1, 0)), None, "unseen identity must miss");
        assert!(s.shoot(mk(0, 0)));
        assert_eq!(s.get(mk(0, 0)), None);
        assert!(s.get(mk(1, 1)).is_some(), "other identity survives");
    }

    fn iter_reports_residents<S: Store>() {
        let mut s = S::paper();
        s.put(tx(1));
        s.put(tx(2));
        assert_eq!(s.entries(), vec![tx(1), tx(2)]);
    }

    fn partitioned_stripes_groups_by_tenant<S: Store>() {
        let mut s: S = tenanted(SharingPolicy::Partitioned, 2);
        // Same VPN, two tenants: the stripe remap must land them in
        // different groups, so neither can evict the other.
        s.put(keyed(7, 0));
        s.put(keyed(7, 1));
        assert_eq!(s.resident(), 2);
        assert!(s.own_group_is_tx(keyed(7, 0).key), "mode gate follows the remap");
        assert_eq!(s.get(keyed(7, 0).key), Some(keyed(7, 0)));
        assert_eq!(s.get(keyed(7, 1).key), Some(keyed(7, 1)));
        // Overflow tenant 0's group: victims must all be tenant 0's.
        let per = s.groups() as u64 / 2;
        let mut evicted = 0;
        for i in 1..=2 * s.ways() as u64 {
            if let Some(Some(e)) = s.put(keyed(7 + i * per, 0)) {
                assert_eq!(e.key.vmid.raw(), 0, "no cross-tenant eviction");
                evicted += 1;
            }
        }
        assert!(evicted > 0, "tenant 0's group overflowed");
        assert!(s.get(keyed(7, 1).key).is_some(), "tenant 1 untouched");
    }

    fn shared_policy_checks_vmid_on_hit<S: Store>() {
        let mut s: S = tenanted(SharingPolicy::Shared, 2);
        s.put(keyed(3, 0));
        assert!(s.get(keyed(3, 0).key).is_some());
        assert!(s.get(keyed(3, 1).key).is_none(), "foreign vmid must miss");
    }

    fn sub_entry_merges_and_shoots_per_tenant<S: Store>() {
        let mut s: S = tenanted(SharingPolicy::SubEntry, 3);
        let k = |vm| keyed(5, vm).key;
        s.put(Translation::new(k(0), Ppn(42)));
        assert!(s.get(k(1)).is_none(), "no hit before the tenant merges");
        s.put(Translation::new(k(1), Ppn(42)));
        s.put(Translation::new(k(2), Ppn(42)));
        assert_eq!(s.resident(), 1, "PPN-matching tenants share one way");
        assert_eq!(s.get(k(1)), Some(Translation::new(k(1), Ppn(42))), "requester's key");
        let mut vms: Vec<u8> = s.entries().iter().map(|e| e.key.vmid.raw()).collect();
        vms.sort_unstable();
        assert_eq!(vms, vec![0, 1, 2], "iter expands one entry per sharer");
        assert!(s.shoot(k(1)));
        assert!(s.get(k(1)).is_none());
        assert!(!s.shoot(k(1)), "bit already clear");
        assert!(s.get(k(0)).is_some(), "co-sharers survive the shootdown");
        assert!(s.get(k(2)).is_some());
        assert!(s.shoot(k(0)));
        assert!(s.shoot(k(2)));
        assert_eq!(s.resident(), 0, "the way dies when its mask empties");
    }

    fn sub_entry_ppn_conflict_rebases<S: Store>() {
        let mut s: S = tenanted(SharingPolicy::SubEntry, 2);
        let (k0, k1) = (keyed(5, 0).key, keyed(5, 1).key);
        s.put(Translation::new(k0, Ppn(42)));
        s.put(Translation::new(k1, Ppn(99)));
        assert_eq!(s.resident(), 1);
        assert!(s.get(k0).is_none(), "stale sharer evicted from the mask");
        assert_eq!(s.get(k1), Some(Translation::new(k1, Ppn(99))));
    }

    fn sub_entry_victim_carries_representative_vmid<S: Store>() {
        let mut s: S = tenanted(SharingPolicy::SubEntry, 2);
        let n = s.groups() as u64;
        let at = |i: u64, vm: u8| keyed(5 + i * n, vm);
        // One shared way (tenants 0+1) plus singles fills the group.
        s.put(Translation::new(at(0, 0).key, Ppn(42)));
        s.put(Translation::new(at(0, 1).key, Ppn(42)));
        for i in 1..s.ways() as u64 {
            s.put(at(i, 1));
        }
        // The next insert evicts the LRU (the shared way), forwarded on
        // behalf of its lowest sharer, tenant 0.
        let e = s.put(at(s.ways() as u64, 1)).flatten().expect("eviction");
        assert_eq!(e.key.vpn, Vpn(5));
        assert_eq!(e.key.vmid.raw(), 0, "lowest-numbered sharer");
    }

    fn invalidate_vmid_counts_visibility_losses<S: Store>() {
        let mut s: S = tenanted(SharingPolicy::SubEntry, 2);
        s.put(Translation::new(keyed(5, 0).key, Ppn(42)));
        s.put(Translation::new(keyed(5, 1).key, Ppn(42)));
        s.put(keyed(9, 0));
        assert_eq!(s.drop_vmid(VmId::new(0)), 2);
        assert_eq!(s.resident(), 1, "shared way survives for tenant 1");
        assert!(s.get(keyed(5, 1).key).is_some());
        // Full-key tagging drops the tenant's ways outright.
        let mut s: S = tenanted(SharingPolicy::Shared, 2);
        s.put(keyed(5, 0));
        s.put(keyed(5, 1));
        s.put(keyed(9, 0));
        assert_eq!(s.drop_vmid(VmId::new(0)), 2);
        assert_eq!(s.entries(), vec![keyed(5, 1)]);
    }

    fn single_tenant_shared_matches_untenanted<S: Store>() {
        let mut plain = S::paper();
        let mut shared: S = tenanted(SharingPolicy::Shared, 1);
        for i in 0..2048u64 {
            assert_eq!(plain.put(tx(i * 3)), shared.put(tx(i * 3)));
            assert_eq!(plain.get(tx(i).key), shared.get(tx(i).key));
        }
        assert_eq!(plain.resident(), shared.resident());
        assert_eq!(plain.counters().evictions, shared.counters().evictions);
    }

    fn set_tenancy_rejects_warm_structure<S: Store>() {
        let mut s = S::paper();
        s.put(tx(1));
        s.tenancy(TenancyConfig::new(2, SharingPolicy::Shared));
    }

    fn covered_pages_hit_through_base_group<S: Store>() {
        let mut s: S = coalescing(4);
        s.put(span3());
        assert_eq!(s.resident(), 1, "one way holds the whole run");
        for v in 40..48u64 {
            assert!(s.may_hold(key(v)), "routing gate must see the run at vpn {v}");
            let hit = s.get(key(v)).expect("covered page must hit");
            assert_eq!(hit.key.vpn, Vpn(40));
            assert_eq!(hit.ppn_for(Vpn(v)), Ppn(500 + (v - 40)));
        }
        assert!(s.get(key(48)).is_none());
        assert_eq!(s.counters().lookups.hits, 8);
        assert_eq!(s.counters().coalescing.hits, 7, "exact-base hit is not a covering hit");
    }

    fn insert_counters_measure_reach<S: Store>() {
        let mut s: S = coalescing(4);
        s.put(span3());
        s.put(tx(100));
        let co = s.counters().coalescing;
        assert_eq!((co.inserts, co.coalesced, co.span_pages), (2, 1, 9));
    }

    fn bypassed_inserts_do_not_count_reach<S: Store>() {
        let mut s: S = coalescing(4);
        s.block(s.groups());
        assert_eq!(s.put(span3()), None);
        assert_eq!(s.counters().bypassed, 1);
        assert_eq!(s.counters().coalescing, CoalescingCounters::default());
    }

    fn shootdown_drops_the_whole_covering_way<S: Store>() {
        let mut s: S = coalescing(4);
        s.put(span3());
        assert!(s.shoot(key(42)));
        for v in 40..48u64 {
            assert!(s.get(key(v)).is_none(), "victim caches drop the run whole ({v})");
        }
        assert_eq!(s.resident(), 0);
        assert_eq!(s.counters().coalescing.splits, 1);
        assert!(!s.shoot(key(42)));
    }

    fn iter_expands_covered_pages<S: Store>() {
        let mut s: S = coalescing(4);
        s.put(span3());
        let pages: Vec<(u64, u64)> = s.entries().iter().map(|e| (e.key.vpn.0, e.ppn.0)).collect();
        assert_eq!(pages, (40..48).map(|v| (v, v + 460)).collect::<Vec<_>>());
    }

    fn victims_keep_their_span<S: Store>() {
        let mut s: S = coalescing(4);
        let n = s.groups() as u64;
        // `ways` runs in the base group of vpn 40 fill it; one more
        // evicts the LRU run, forwarded whole.
        let run = |i: u64| Translation::with_span(key(40 + i * 8 * n), Ppn(500), 3);
        for i in 0..s.ways() as u64 {
            assert_eq!(s.put(run(i)), Some(None));
        }
        let e = s.put(run(s.ways() as u64)).flatten().expect("eviction");
        assert_eq!(e.key, run(0).key);
        assert_eq!(e.span_log2, 3, "Fig-12 victims carry the whole run");
    }

    fn may_hold_is_the_mode_gate_when_off<S: Store>() {
        let mut s = S::paper();
        s.put(tx(7));
        for v in 0..64u64 {
            assert_eq!(s.may_hold(key(v)), s.own_group_is_tx(key(v)), "vpn {v}");
        }
    }

    fn set_coalescing_rejects_warm_structure<S: Store>() {
        let mut s = S::paper();
        s.put(tx(1));
        s.coalescing(Some(4));
    }

    /// A seeded random stream of inserts, lookups, shootdowns and
    /// tenant teardowns under every tagging scheme, checking the
    /// invariants any victim store must keep.
    fn random_op_stream_keeps_invariants<S: Store>() {
        let policies =
            [None, Some(SharingPolicy::Partitioned), Some(SharingPolicy::Shared), Some(SharingPolicy::SubEntry)];
        for policy in policies {
            for co in [None, Some(4u8)] {
                let mut s = S::paper();
                if let Some(p) = policy {
                    s.tenancy(TenancyConfig::new(2, p));
                }
                s.coalescing(co);
                s.block(s.groups() / 8);
                let cap = s.groups() * s.ways();
                let mut rng = SplitMix64::new(0x5eed ^ cap as u64);
                let mut seen: Vec<TranslationKey> = Vec::new();
                let mut snapshot: Option<Vec<Translation>> = None;
                for op in 0..600 {
                    let vm = rng.next_below(2) as u8;
                    // Half the time a page near an earlier insert (so
                    // lookups and shootdowns find residents), else
                    // mostly a small window (associativity pressure),
                    // sometimes far away (compression conflicts).
                    let vpn = match rng.next_below(16) {
                        0..=7 if !seen.is_empty() => {
                            seen[rng.next_below(seen.len() as u64) as usize].vpn.0 + rng.next_below(4)
                        }
                        8 | 9 => rng.next_below(1 << 28),
                        _ => rng.next_below(1 << 10),
                    };
                    let k = TranslationKey { vpn: Vpn(vpn), vmid: VmId::new(vm), vrf: VrfId::new(0) };
                    let ctx = format!("{policy:?} co={co:?} op {op} {k}");
                    match rng.next_below(20) {
                        0..=7 => {
                            let span = co.map_or(0, |m| rng.next_below(u64::from(m) + 1) as u8);
                            // Two candidate frames per page: sub-entry
                            // sharers both merge and rebase.
                            let ppn = Ppn((vpn << 4) + rng.next_below(2));
                            let t = Translation::with_span(k, ppn, span);
                            if s.put(t).is_some() {
                                assert_eq!(s.get(t.key), Some(t), "{ctx}: fill must hit next");
                            }
                            seen.push(t.key);
                            snapshot = None;
                        }
                        8..=14 => {
                            if let Some(h) = s.get(k) {
                                assert!(h.covers(k.vpn), "{ctx}: hit must cover the page");
                                let page = Translation::new(k, h.ppn_for(k.vpn));
                                let all = snapshot.get_or_insert_with(|| s.entries());
                                assert!(all.contains(&page), "{ctx}: hit {h:?} not in iter()");
                            }
                        }
                        15..=18 => {
                            s.shoot(k);
                            assert_eq!(s.get(k), None, "{ctx}: shot page still hits");
                            snapshot = None;
                        }
                        _ => {
                            let vmid = VmId::new(vm);
                            s.drop_vmid(vmid);
                            assert!(s.entries().iter().all(|e| e.key.vmid != vmid), "{ctx}");
                            for &old in seen.iter().filter(|o| o.vmid == vmid) {
                                assert_eq!(s.get(old), None, "{ctx}: {old} survived teardown");
                            }
                            snapshot = None;
                        }
                    }
                    assert!(s.resident() <= cap, "{ctx}: over capacity");
                }
            }
        }
    }

    /// Instantiates the suite for one structure: one `#[test]` per
    /// suite function.
    macro_rules! suite {
        ($store:ident: $ty:ty; $($test:ident),*; panics: $($panics:ident),*) => {
            mod $store {
                use super::*;
                $(
                    #[test]
                    fn $test() {
                        super::$test::<$ty>();
                    }
                )*
                $(
                    #[test]
                    #[should_panic(expected = "before first insert")]
                    fn $panics() {
                        super::$panics::<$ty>();
                    }
                )*
            }
        };
        ($($store:ident: $ty:ty),*) => {
            $(suite!($store: $ty;
                insert_lookup_promote_cycle, full_group_evicts_lru, lookup_refreshes_lru,
                compression_conflict_evicts_and_rebases, reinsert_refreshes_ppn,
                shootdown_removes_entry, sriov_identities_do_not_alias, iter_reports_residents,
                partitioned_stripes_groups_by_tenant, shared_policy_checks_vmid_on_hit,
                sub_entry_merges_and_shoots_per_tenant, sub_entry_ppn_conflict_rebases,
                sub_entry_victim_carries_representative_vmid,
                invalidate_vmid_counts_visibility_losses, single_tenant_shared_matches_untenanted,
                covered_pages_hit_through_base_group, insert_counters_measure_reach,
                bypassed_inserts_do_not_count_reach, shootdown_drops_the_whole_covering_way,
                iter_expands_covered_pages, victims_keep_their_span,
                may_hold_is_the_mode_gate_when_off, random_op_stream_keeps_invariants;
                panics: set_tenancy_rejects_warm_structure, set_coalescing_rejects_warm_structure);)*
        };
    }

    suite!(lds: TxLds, icache: TxIcache);
}
