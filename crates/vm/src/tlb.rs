//! Generic set-associative TLB with true-LRU replacement.
//!
//! Instantiated as the paper's per-CU fully-associative 32-entry L1
//! TLB, the GPU-shared 16-way 512-entry L2 TLB, and the IOMMU's device
//! TLBs (Table 1). Evictions are surfaced to the caller because the
//! reconfigurable architecture routes L1-TLB victims into the idle
//! LDS segments (§4.2) and I-cache lines (§4.3) organized as a victim
//! cache between the two TLB levels (Fig 12).
//!
//! Multi-tenancy ([`Tlb::set_tenancy`], TENANCY.md): under
//! [`Partitioned`](crate::tenancy::SharingPolicy::Partitioned) each
//! tenant holds at most `assoc / tenants` ways of every set and
//! evictions never cross VM-IDs; under
//! [`SubEntry`](crate::tenancy::SharingPolicy::SubEntry) (arXiv
//! 2404.18361 §4) entries are tagged by the canonical VM-ID-zeroed key
//! plus a per-tenant valid mask, so tenants whose mappings agree on
//! the PPN share one physical entry. The default
//! ([`Shared`](crate::tenancy::SharingPolicy::Shared), or no tenancy
//! at all) is the paper's full-key tag check.

use gtr_sim::fastmap::FastMap;
use gtr_sim::stats::HitMiss;

use crate::addr::{Ppn, Translation, TranslationKey, VmId, Vpn};
use crate::tenancy::{self, TenancyConfig};

/// Counters for coalesced (variable-reach) entries, ticked only while
/// coalescing is enabled on the owning structure — with coalescing off
/// no branch that touches them is ever taken, preserving the
/// zero-cost-when-off discipline. Shared by the TLBs and the
/// reconfigurable LDS/I-cache victim structures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoalescingCounters {
    /// Total entry inserts while coalescing was enabled.
    pub inserts: u64,
    /// Inserts whose entry covered more than one page.
    pub coalesced: u64,
    /// Total pages covered across all inserts (sum of `2^span`); the
    /// ratio `span_pages / inserts` is the structure's reach
    /// multiplier.
    pub span_pages: u64,
    /// Lookup hits served through a covering (non-exact-base) probe.
    pub hits: u64,
    /// Covering entries split (TLBs) or conservatively dropped (victim
    /// structures) by a single-page shootdown.
    pub splits: u64,
}

impl CoalescingCounters {
    /// Accumulates another structure's counters into this one.
    pub fn merge(&mut self, o: &CoalescingCounters) {
        self.inserts += o.inserts;
        self.coalesced += o.coalesced;
        self.span_pages += o.span_pages;
        self.hits += o.hits;
        self.splits += o.splits;
    }
}

/// Configuration of one TLB instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Total entries.
    pub entries: usize,
    /// Associativity; `entries` for fully associative.
    pub assoc: usize,
    /// Access latency in cycles (hit latency; charged by the caller).
    pub latency: u64,
}

impl TlbConfig {
    /// Fully-associative configuration.
    pub fn fully_associative(entries: usize, latency: u64) -> Self {
        Self { entries, assoc: entries, latency }
    }

    /// Set-associative configuration.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` divides evenly into sets of `assoc`.
    pub fn set_associative(entries: usize, assoc: usize, latency: u64) -> Self {
        assert!(assoc > 0 && entries.is_multiple_of(assoc), "entries must be a multiple of assoc");
        Self { entries, assoc, latency }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        (self.entries / self.assoc).max(1)
    }
}

/// Sentinel for "no slot" in the intrusive LRU lists.
const NIL: u32 = u32::MAX;

/// One TLB way: the entry plus its position in the owning set's
/// doubly-linked recency list (or the free list when unused).
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: TranslationKey,
    ppn: Ppn,
    prev: u32,
    next: u32,
    used: bool,
    /// Per-tenant valid mask (sub-entry sharing, TENANCY.md §3.3):
    /// bit *i* means tenant *i* may hit this entry. Always a single
    /// bit outside sub-entry sharing.
    mask: u8,
    /// Coalesced reach: this entry covers `2^span` contiguous pages
    /// starting at the (span-aligned) `key.vpn`. Always 0 outside
    /// coalescing mode.
    span: u8,
}

impl Slot {
    fn empty() -> Self {
        Self {
            key: TranslationKey::default(),
            ppn: Ppn::default(),
            prev: NIL,
            next: NIL,
            used: false,
            mask: 0,
            span: 0,
        }
    }
}

/// A set-associative, true-LRU TLB.
///
/// # Example
///
/// ```
/// use gtr_vm::tlb::{Tlb, TlbConfig};
/// use gtr_vm::addr::{Ppn, Translation, TranslationKey, Vpn};
///
/// let mut tlb = Tlb::new(TlbConfig::fully_associative(2, 1));
/// let k = |v| TranslationKey::for_vpn(Vpn(v));
/// tlb.insert(Translation::new(k(1), Ppn(10)));
/// tlb.insert(Translation::new(k(2), Ppn(20)));
/// assert!(tlb.lookup(k(1)).is_some());
/// // inserting a third entry evicts the LRU (vpn 2)
/// let victim = tlb.insert(Translation::new(k(3), Ppn(30))).unwrap();
/// assert_eq!(victim.key, k(2));
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    nsets: usize,
    /// Flat slot arena: set `s` owns slots `s*assoc .. (s+1)*assoc`.
    slots: Vec<Slot>,
    /// Per-set MRU end of the recency list.
    head: Vec<u32>,
    /// Per-set LRU end of the recency list (the eviction victim).
    tail: Vec<u32>,
    /// Per-set free-list head (unused slots chained through `next`).
    free: Vec<u32>,
    /// key -> slot id, so lookups never scan ways. Under sub-entry
    /// sharing the key is the canonical (VM-ID-zeroed) form.
    index: FastMap<TranslationKey, u32>,
    len: usize,
    stats: HitMiss,
    evictions: u64,
    /// Multi-tenant sharing policy; `None` = the untenanted default.
    tenancy: Option<TenancyConfig>,
    /// Coalesced (variable-reach) entries: `Some(max)` lets one entry
    /// map up to `2^max` contiguous pages; `None` = the classic
    /// one-page-per-entry default.
    coalescing: Option<u8>,
    /// Coalescing counters (only ticked while `coalescing` is on).
    co: CoalescingCounters,
}

impl Tlb {
    /// Creates an empty TLB.
    pub fn new(config: TlbConfig) -> Self {
        let nsets = config.sets();
        let cap = nsets * config.assoc;
        let mut tlb = Self {
            config,
            nsets,
            slots: vec![Slot::empty(); cap],
            head: vec![NIL; nsets],
            tail: vec![NIL; nsets],
            free: vec![NIL; nsets],
            index: FastMap::with_capacity(cap.min(1 << 16)),
            len: 0,
            stats: HitMiss::new(),
            evictions: 0,
            tenancy: None,
            coalescing: None,
            co: CoalescingCounters::default(),
        };
        tlb.init_lists();
        tlb
    }

    /// Resets every slot to empty and rebuilds the per-set free lists.
    fn init_lists(&mut self) {
        let assoc = self.config.assoc;
        for s in 0..self.nsets {
            self.head[s] = NIL;
            self.tail[s] = NIL;
            let base = (s * assoc) as u32;
            self.free[s] = if assoc == 0 { NIL } else { base };
            for j in 0..assoc {
                let i = base + j as u32;
                self.slots[i as usize] = Slot::empty();
                if j + 1 < assoc {
                    self.slots[i as usize].next = i + 1;
                }
            }
        }
    }

    /// Unlinks a used slot from its set's recency list.
    fn detach(&mut self, s: usize, i: u32) {
        let (p, n) = {
            let sl = &self.slots[i as usize];
            (sl.prev, sl.next)
        };
        if p != NIL {
            self.slots[p as usize].next = n;
        } else {
            self.head[s] = n;
        }
        if n != NIL {
            self.slots[n as usize].prev = p;
        } else {
            self.tail[s] = p;
        }
    }

    /// Links a slot at the MRU end of its set's recency list.
    fn push_mru(&mut self, s: usize, i: u32) {
        let h = self.head[s];
        self.slots[i as usize].prev = NIL;
        self.slots[i as usize].next = h;
        if h != NIL {
            self.slots[h as usize].prev = i;
        } else {
            self.tail[s] = i;
        }
        self.head[s] = i;
    }

    /// This TLB's configuration.
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// Access latency in cycles.
    pub fn latency(&self) -> u64 {
        self.config.latency
    }

    fn set_index(&self, key: TranslationKey) -> usize {
        // XOR-folded index (commercial TLBs hash set bits) so that
        // power-of-two VPN strides — page-sized matrix rows above all —
        // do not collapse onto a handful of sets.
        let v = key.vpn.0;
        ((v ^ (v >> 7) ^ (v >> 14)) as usize) % self.nsets
    }

    /// Sets the multi-tenant sharing policy (TENANCY.md). Must be
    /// called on an empty TLB: the policy decides the tag form
    /// (full-key vs canonical+mask), which cannot change under live
    /// entries.
    ///
    /// # Panics
    ///
    /// Panics if the TLB already holds entries.
    pub fn set_tenancy(&mut self, tenancy: Option<TenancyConfig>) {
        assert!(self.is_empty(), "tenancy policy must be set before first insert");
        self.tenancy = tenancy;
    }

    /// Enables coalesced (variable-reach) entries: one entry may map up
    /// to `2^max_span_log2` physically contiguous pages (arXiv
    /// 2110.08613). Must be called on an empty TLB — the tag form
    /// (base-masked probes on lookup) cannot change under live entries.
    ///
    /// # Panics
    ///
    /// Panics if the TLB already holds entries.
    pub fn set_coalescing(&mut self, max_span_log2: Option<u8>) {
        assert!(self.is_empty(), "coalescing must be set before first insert");
        self.coalescing = max_span_log2;
    }

    /// The coalescing limit in effect (`None` = off).
    pub fn coalescing(&self) -> Option<u8> {
        self.coalescing
    }

    /// Coalescing counters (all zero unless coalescing is enabled).
    pub fn coalescing_counters(&self) -> CoalescingCounters {
        self.co
    }

    /// The tag under which `key` is stored: canonical under sub-entry
    /// sharing, the full key otherwise.
    fn store_key(&self, key: TranslationKey) -> TranslationKey {
        match &self.tenancy {
            Some(t) if t.sub_entry() => tenancy::canonical(key),
            _ => key,
        }
    }

    /// Whether slot `i` is visible to `key`'s tenant (sub-entry valid
    /// mask; always true outside sub-entry sharing).
    fn mask_allows(&self, i: u32, key: TranslationKey) -> bool {
        match &self.tenancy {
            Some(t) if t.sub_entry() => {
                self.slots[i as usize].mask & TenancyConfig::mask_bit(key.vmid) != 0
            }
            _ => true,
        }
    }

    /// Looks up a key, updating LRU state and hit/miss counters. Under
    /// coalescing a miss on the exact tag falls back to base-masked
    /// probes at every span level, so one wide entry answers for every
    /// page it covers.
    pub fn lookup(&mut self, key: TranslationKey) -> Option<Translation> {
        match self.index.get(self.store_key(key)).copied() {
            Some(i) if self.mask_allows(i, key) => {
                let s = i as usize / self.config.assoc;
                self.detach(s, i);
                self.push_mru(s, i);
                self.stats.hit();
                let sl = &self.slots[i as usize];
                // Return the requester's key (== the stored key except
                // under sub-entry canonicalization) so promotions
                // upstream carry the right tenant.
                Some(self.hit_translation(key, sl.key, sl.ppn, sl.span))
            }
            // Canonical tag present but the tenant's mask bit is
            // clear: a miss (modulo a covering span entry), and no LRU
            // refresh (the entry is not this tenant's to warm).
            Some(_) | None => self.lookup_covering(key),
        }
    }

    /// The coalescing fall-back of [`Self::lookup`]: probes the base
    /// key of every span level and hits iff a resident entry's span
    /// covers `key`. Counts the terminal miss, so lookup counters stay
    /// one-tick-per-call exactly as before.
    fn lookup_covering(&mut self, key: TranslationKey) -> Option<Translation> {
        if let Some(max) = self.coalescing {
            // Level 0 (the exact key) already missed in `lookup`.
            for (_, bkey) in key.span_bases(max).skip(1) {
                let Some(&i) = self.index.get(self.store_key(bkey)) else { continue };
                if !self.mask_allows(i, key) {
                    continue;
                }
                let sl = self.slots[i as usize];
                if key.vpn.0 - bkey.vpn.0 >= (1u64 << sl.span) {
                    continue;
                }
                let s = i as usize / self.config.assoc;
                self.detach(s, i);
                self.push_mru(s, i);
                self.stats.hit();
                self.co.hits += 1;
                return Some(self.hit_translation(key, sl.key, sl.ppn, sl.span));
            }
        }
        self.stats.miss();
        None
    }

    /// The translation a hit reports back: the *base-normalized* entry
    /// (callers derive a covered page's frame via
    /// [`Translation::ppn_for`]), keyed by the stored key normally and
    /// by the requester's identifiers under sub-entry canonicalization.
    fn hit_translation(
        &self,
        request: TranslationKey,
        stored: TranslationKey,
        ppn: Ppn,
        span: u8,
    ) -> Translation {
        let key = match &self.tenancy {
            Some(t) if t.sub_entry() => TranslationKey { vpn: stored.vpn, ..request },
            _ => stored,
        };
        Translation::with_span(key, ppn, span)
    }

    /// Inserts a translation, returning the evicted victim if the set
    /// was full. Re-inserting an existing key refreshes its frame and
    /// LRU position without eviction.
    ///
    /// The returned victim is what the reconfigurable architecture
    /// feeds into the Fig-12 fill flow: an L1-TLB eviction tries the
    /// victim's LDS segment (§4.2), then its direct-mapped I-cache
    /// line (§4.3), then the L2 TLB.
    pub fn insert(&mut self, tx: Translation) -> Option<Translation> {
        if self.coalescing.is_some() {
            self.co.inserts += 1;
            self.co.span_pages += 1u64 << tx.span_log2;
            if tx.span_log2 > 0 {
                self.co.coalesced += 1;
            }
        }
        self.insert_inner(tx)
    }

    /// [`Self::insert`] without the coalescing counters — shootdown
    /// buddy-fragment reinserts go through here so a storm of splits
    /// does not masquerade as allocator-produced reach.
    fn insert_inner(&mut self, tx: Translation) -> Option<Translation> {
        let skey = self.store_key(tx.key);
        let bit = TenancyConfig::mask_bit(tx.key.vmid);
        let sub_entry = matches!(&self.tenancy, Some(t) if t.sub_entry());
        if let Some(&i) = self.index.get(skey) {
            let s = i as usize / self.config.assoc;
            {
                let sl = &mut self.slots[i as usize];
                if sub_entry {
                    if sl.ppn == tx.ppn {
                        // PPN-aligned mappings merge: the tenant joins
                        // the entry's sharer mask (2404.18361 §4).
                        sl.mask |= bit;
                    } else {
                        // Conflicting frame: the entry is rebased to
                        // the inserting tenant's mapping and every
                        // previous sharer loses visibility.
                        sl.ppn = tx.ppn;
                        sl.mask = bit;
                    }
                } else {
                    sl.ppn = tx.ppn;
                }
                // The refresh's span wins (a refresh may widen a
                // single-page entry into a coalesced one or narrow a
                // stale wide one — the newest walk knows best).
                sl.span = tx.span_log2;
            }
            self.detach(s, i);
            self.push_mru(s, i);
            return None;
        }
        let s = self.set_index(skey);
        // Static partitioning: a tenant at its per-set quota replaces
        // its own LRU entry even when free ways remain — those ways
        // are other tenants' reserved capacity (TENANCY.md §3.1).
        let forced = match &self.tenancy {
            Some(t) if t.partitioned() => {
                let quota = (self.config.assoc / t.tenants as usize).max(1);
                if self.count_in_set(s, tx.key.vmid) >= quota {
                    self.lru_in_set(s, |sl| sl.key.vmid == tx.key.vmid)
                } else {
                    None
                }
            }
            _ => None,
        };
        let v = match forced {
            Some(v) => v,
            None => {
                let fi = self.free[s];
                if fi != NIL {
                    self.free[s] = self.slots[fi as usize].next;
                    let sl = &mut self.slots[fi as usize];
                    sl.key = skey;
                    sl.ppn = tx.ppn;
                    sl.used = true;
                    sl.mask = bit;
                    sl.span = tx.span_log2;
                    self.push_mru(s, fi);
                    self.index.insert(skey, fi);
                    self.len += 1;
                    return None;
                }
                match &self.tenancy {
                    // Set full while this tenant is under quota: some
                    // tenant is over its quota (quota remainders are
                    // first-come) — reclaim that tenant's LRU entry.
                    Some(t) if t.partitioned() => {
                        let quota = (self.config.assoc / t.tenants as usize).max(1);
                        self.lru_over_quota(s, quota).unwrap_or(self.tail[s])
                    }
                    _ => self.tail[s],
                }
            }
        };
        debug_assert_ne!(v, NIL, "full set is non-empty");
        let victim = {
            let sl = &self.slots[v as usize];
            // A sub-entry victim is forwarded on behalf of its
            // lowest-numbered sharer (tenancy::representative). A
            // coalesced victim keeps its span — the Fig-12 fill flow
            // moves the whole covered run downstream in one entry.
            let vkey = if sub_entry {
                tenancy::representative(sl.key, sl.mask)
            } else {
                sl.key
            };
            (Translation::with_span(vkey, sl.ppn, sl.span), sl.key)
        };
        self.index.remove(victim.1);
        self.detach(s, v);
        {
            let sl = &mut self.slots[v as usize];
            sl.key = skey;
            sl.ppn = tx.ppn;
            sl.mask = bit;
            sl.span = tx.span_log2;
        }
        self.push_mru(s, v);
        self.index.insert(skey, v);
        self.evictions += 1;
        Some(victim.0)
    }

    /// Used entries in set `s` owned by `vmid` (recency-list walk; the
    /// associativity is small, Table 1).
    fn count_in_set(&self, s: usize, vmid: VmId) -> usize {
        let mut n = 0;
        let mut i = self.head[s];
        while i != NIL {
            if self.slots[i as usize].key.vmid == vmid {
                n += 1;
            }
            i = self.slots[i as usize].next;
        }
        n
    }

    /// The least-recently-used slot in set `s` matching `pred`, walking
    /// from the LRU end.
    fn lru_in_set(&self, s: usize, pred: impl Fn(&Slot) -> bool) -> Option<u32> {
        let mut i = self.tail[s];
        while i != NIL {
            if pred(&self.slots[i as usize]) {
                return Some(i);
            }
            i = self.slots[i as usize].prev;
        }
        None
    }

    /// The LRU slot of any tenant holding more than `quota` entries in
    /// set `s`.
    fn lru_over_quota(&self, s: usize, quota: usize) -> Option<u32> {
        self.lru_in_set(s, |sl| self.count_in_set(s, sl.key.vmid) > quota)
    }

    /// Invalidates a single key (TLB shootdown, §7.1 — the runtime
    /// page-migration protocol must also reach translations cached in
    /// the reconfigurable structures); returns whether it was present.
    ///
    /// Under sub-entry sharing only the shooting tenant's mask bit is
    /// cleared; the physical entry survives while other tenants still
    /// share it (2404.18361 §4.3) and dies when the mask empties.
    pub fn invalidate(&mut self, key: TranslationKey) -> bool {
        // The page may be covered by its exact-key entry AND by wider
        // entries at the masked bases of every span level (a split
        // fragment and a covering run can coexist) — never
        // early-return; scan all distinct bases. With coalescing off
        // only the exact key is visited.
        let mut any = false;
        for (_, bkey) in key.span_bases(self.coalescing.unwrap_or(0)) {
            let bvpn = bkey.vpn.0;
            let skey = self.store_key(bkey);
            let Some(&i) = self.index.get(skey) else { continue };
            let sl = self.slots[i as usize];
            if key.vpn.0 - bvpn >= (1u64 << sl.span) {
                continue; // resident entry does not reach the shot page
            }
            if let Some(t) = self.tenancy {
                if t.sub_entry() {
                    // Conservative under sub-entry sharing: clear the
                    // shooter's bit on the whole covering entry (no
                    // per-tenant fragment bookkeeping in the mask form).
                    let bit = TenancyConfig::mask_bit(key.vmid);
                    let slm = &mut self.slots[i as usize];
                    if slm.mask & bit == 0 {
                        continue;
                    }
                    slm.mask &= !bit;
                    if slm.mask == 0 {
                        self.remove_slot(skey, i);
                    }
                    if sl.span > 0 {
                        self.co.splits += 1;
                    }
                    any = true;
                    continue;
                }
            }
            self.remove_slot(skey, i);
            any = true;
            if sl.span > 0 {
                // Split on shootdown (2110.08613): drop only the shot
                // page by decomposing the remainder into its buddy
                // blocks — for every level j below the span, the
                // 2^j-aligned buddy of the shot page within the run
                // survives as its own (narrower) entry.
                self.co.splits += 1;
                for j in 0..sl.span {
                    let bb = (key.vpn.0 ^ (1u64 << j)) & !((1u64 << j) - 1);
                    let frag = Translation::with_span(
                        TranslationKey { vpn: Vpn(bb), ..sl.key },
                        Ppn(sl.ppn.0 + (bb - bvpn)),
                        j,
                    );
                    // Fragment reinserts may evict unrelated entries;
                    // those victims are simply dropped (dropping a
                    // cached translation is always safe).
                    let _ = self.insert_inner(frag);
                }
            }
        }
        any
    }

    /// Unlinks slot `i` (whose index key is `skey`) and returns it to
    /// its set's free list.
    fn remove_slot(&mut self, skey: TranslationKey, i: u32) {
        self.index.remove(skey);
        self.free_slot(i);
    }

    fn free_slot(&mut self, i: u32) {
        let s = i as usize / self.config.assoc;
        self.detach(s, i);
        let sl = &mut self.slots[i as usize];
        sl.used = false;
        sl.mask = 0;
        sl.prev = NIL;
        sl.next = self.free[s];
        self.free[s] = i;
        self.len -= 1;
    }

    /// Invalidates every entry belonging to an address space. Under
    /// sub-entry sharing this clears the tenant's bit from every
    /// shared entry (freeing those it was the last sharer of) and
    /// returns the number of entries the tenant lost visibility to.
    pub fn invalidate_vmid(&mut self, vmid: VmId) -> usize {
        if let Some(t) = self.tenancy {
            if t.sub_entry() {
                let bit = TenancyConfig::mask_bit(vmid);
                let doomed: Vec<(TranslationKey, u32)> = self
                    .slots
                    .iter()
                    .enumerate()
                    .filter(|(_, sl)| sl.used && sl.mask & bit != 0)
                    .map(|(i, sl)| (sl.key, i as u32))
                    .collect();
                let n = doomed.len();
                for (skey, i) in doomed {
                    let sl = &mut self.slots[i as usize];
                    sl.mask &= !bit;
                    if sl.mask == 0 {
                        self.remove_slot(skey, i);
                    }
                }
                return n;
            }
        }
        // Whole-tenant teardown removes entries outright (never the
        // coalescing split path: buddy fragments would resurrect pages
        // of the very address space being torn down).
        let doomed: Vec<(TranslationKey, u32)> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, sl)| sl.used && sl.key.vmid == vmid)
            .map(|(i, sl)| (sl.key, i as u32))
            .collect();
        for &(key, i) in &doomed {
            self.remove_slot(key, i);
        }
        doomed.len()
    }

    /// Removes all entries.
    pub fn flush(&mut self) {
        self.index.clear();
        self.len = 0;
        self.init_lists();
    }

    /// Current number of valid entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the TLB holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum entries.
    pub fn capacity(&self) -> usize {
        self.config.entries
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> HitMiss {
        self.stats
    }

    /// Number of evictions performed.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Resets counters (not contents).
    pub fn reset_stats(&mut self) {
        self.stats = HitMiss::new();
        self.evictions = 0;
        self.co = CoalescingCounters::default();
    }

    /// Iterates over all resident translations (for duplication
    /// analysis, Fig 14a, and coherence checks). Under sub-entry
    /// sharing each physical entry expands to one logical translation
    /// per set mask bit, with the sharer's VM-ID reconstructed — so a
    /// shared entry checks against *every* sharer's page table. A
    /// coalesced entry likewise expands to one logical single-page
    /// translation per covered page, so coherence checks validate the
    /// contiguity arithmetic against the page table page by page.
    pub fn iter(&self) -> impl Iterator<Item = Translation> + '_ {
        let sub_entry = matches!(&self.tenancy, Some(t) if t.sub_entry());
        self.slots.iter().filter(|sl| sl.used).flat_map(move |sl| {
            tenancy::expand(sl.key, sl.ppn, sl.span, sub_entry.then_some(sl.mask))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Vpn;

    fn k(v: u64) -> TranslationKey {
        TranslationKey::for_vpn(Vpn(v))
    }

    fn tx(v: u64) -> Translation {
        Translation::new(k(v), Ppn(v + 1000))
    }

    #[test]
    fn hit_and_miss_counters() {
        let mut t = Tlb::new(TlbConfig::fully_associative(4, 1));
        assert!(t.lookup(k(1)).is_none());
        t.insert(tx(1));
        assert!(t.lookup(k(1)).is_some());
        assert_eq!(t.stats().hits, 1);
        assert_eq!(t.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut t = Tlb::new(TlbConfig::fully_associative(3, 1));
        t.insert(tx(1));
        t.insert(tx(2));
        t.insert(tx(3));
        t.lookup(k(1)); // 1 is now MRU; LRU is 2
        let victim = t.insert(tx(4)).unwrap();
        assert_eq!(victim.key, k(2));
        assert_eq!(t.evictions(), 1);
    }

    #[test]
    fn set_associative_conflicts() {
        // 4 entries, 2-way => 2 sets; vpns 0,2,4 all map to set 0.
        let mut t = Tlb::new(TlbConfig::set_associative(4, 2, 1));
        assert!(t.insert(tx(0)).is_none());
        assert!(t.insert(tx(2)).is_none());
        let victim = t.insert(tx(4)).unwrap();
        assert_eq!(victim.key, k(0));
        // Set 1 still has room.
        assert!(t.insert(tx(1)).is_none());
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let mut t = Tlb::new(TlbConfig::fully_associative(2, 1));
        t.insert(tx(1));
        t.insert(tx(2));
        assert!(t.insert(Translation::new(k(1), Ppn(77))).is_none());
        assert_eq!(t.lookup(k(1)).unwrap().ppn, Ppn(77));
        // vpn 2 became LRU after the vpn-1 refresh + lookup
        let v = t.insert(tx(3)).unwrap();
        assert_eq!(v.key, k(2));
    }

    #[test]
    fn invalidate_and_flush() {
        let mut t = Tlb::new(TlbConfig::set_associative(8, 4, 1));
        for v in 0..8 {
            t.insert(tx(v));
        }
        assert!(t.invalidate(k(3)));
        assert!(!t.invalidate(k(3)));
        assert_eq!(t.len(), 7);
        t.flush();
        assert!(t.is_empty());
    }

    #[test]
    fn invalidate_vmid_scopes_to_address_space() {
        use crate::addr::{VmId, VrfId};
        let mut t = Tlb::new(TlbConfig::fully_associative(8, 1));
        for v in 0..4 {
            t.insert(Translation::new(
                TranslationKey { vpn: Vpn(v), vmid: VmId::new(1), vrf: VrfId::default() },
                Ppn(v),
            ));
        }
        t.insert(tx(100)); // vmid 0
        assert_eq!(t.invalidate_vmid(VmId::new(1)), 4);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn vrf_and_vmid_distinguish_same_vpn() {
        use crate::addr::{VmId, VrfId};
        let mut t = Tlb::new(TlbConfig::fully_associative(8, 1));
        let mk = |vm: u8, vrf: u8| TranslationKey {
            vpn: Vpn(7),
            vmid: VmId::new(vm),
            vrf: VrfId::new(vrf),
        };
        t.insert(Translation::new(mk(0, 0), Ppn(1)));
        t.insert(Translation::new(mk(1, 0), Ppn(2)));
        t.insert(Translation::new(mk(0, 1), Ppn(3)));
        // Same VPN, three address-space identities: three entries.
        assert_eq!(t.len(), 3);
        assert_eq!(t.lookup(mk(0, 0)).unwrap().ppn, Ppn(1));
        assert_eq!(t.lookup(mk(1, 0)).unwrap().ppn, Ppn(2));
        assert_eq!(t.lookup(mk(0, 1)).unwrap().ppn, Ppn(3));
    }

    #[test]
    fn iter_covers_all_entries() {
        let mut t = Tlb::new(TlbConfig::set_associative(16, 4, 1));
        for v in 0..10 {
            t.insert(tx(v));
        }
        let keys: std::collections::HashSet<_> = t.iter().map(|e| e.key.vpn.0).collect();
        assert_eq!(keys.len(), 10);
    }

    #[test]
    #[should_panic(expected = "multiple of assoc")]
    fn bad_geometry_panics() {
        let _ = TlbConfig::set_associative(10, 4, 1);
    }

    mod tenancy {
        use super::*;
        use crate::addr::{VmId, VrfId};
        use crate::tenancy::{SharingPolicy, TenancyConfig};

        fn key(vm: u8, v: u64) -> TranslationKey {
            TranslationKey { vpn: Vpn(v), vmid: VmId::new(vm), vrf: VrfId::default() }
        }

        fn tenant_tlb(entries: usize, tenants: u8, policy: SharingPolicy) -> Tlb {
            let mut t = Tlb::new(TlbConfig::fully_associative(entries, 1));
            t.set_tenancy(Some(TenancyConfig::new(tenants, policy)));
            t
        }

        #[test]
        fn partitioned_never_evicts_across_vmid() {
            // 4 ways, 2 tenants => 2-way quota each. Tenant 0 fills its
            // quota and keeps inserting: only its own entries may die.
            let mut t = tenant_tlb(4, 2, SharingPolicy::Partitioned);
            t.insert(Translation::new(key(1, 100), Ppn(100)));
            t.insert(Translation::new(key(1, 101), Ppn(101)));
            for v in 0..8u64 {
                if let Some(victim) = t.insert(Translation::new(key(0, v), Ppn(v))) {
                    assert_eq!(victim.key.vmid.raw(), 0, "evicted a co-tenant's entry");
                }
            }
            // Tenant 1's reserved ways survived the storm.
            assert!(t.lookup(key(1, 100)).is_some());
            assert!(t.lookup(key(1, 101)).is_some());
            // Tenant 0 holds exactly its quota.
            let t0 = t.iter().filter(|e| e.key.vmid.raw() == 0).count();
            assert_eq!(t0, 2);
        }

        #[test]
        fn partitioned_quota_applies_even_with_free_ways() {
            // 8 ways, 4 tenants => 2-way quota. A lone tenant at quota
            // must recycle its own LRU entry, not claim idle ways that
            // belong to absent tenants.
            let mut t = tenant_tlb(8, 4, SharingPolicy::Partitioned);
            for v in 0..5u64 {
                t.insert(Translation::new(key(2, v), Ppn(v)));
            }
            assert_eq!(t.len(), 2, "static partition caps the tenant at its quota");
            assert!(t.lookup(key(2, 3)).is_some());
            assert!(t.lookup(key(2, 4)).is_some());
        }

        #[test]
        fn shared_policy_checks_vmid_on_hit() {
            let mut t = tenant_tlb(4, 2, SharingPolicy::Shared);
            t.insert(Translation::new(key(0, 7), Ppn(70)));
            assert!(t.lookup(key(0, 7)).is_some());
            assert!(t.lookup(key(1, 7)).is_none(), "full-key tag check crosses no VM-ID");
        }

        #[test]
        fn sub_entry_hit_requires_ppn_match_at_merge() {
            let mut t = tenant_tlb(4, 2, SharingPolicy::SubEntry);
            t.insert(Translation::new(key(0, 7), Ppn(70)));
            // Tenant 1 cannot hit before merging.
            assert!(t.lookup(key(1, 7)).is_none());
            // Same PPN: merges into the same physical entry.
            t.insert(Translation::new(key(1, 7), Ppn(70)));
            assert_eq!(t.len(), 1, "PPN-aligned mappings share one entry");
            assert_eq!(t.lookup(key(0, 7)).unwrap().ppn, Ppn(70));
            let hit = t.lookup(key(1, 7)).unwrap();
            assert_eq!(hit.ppn, Ppn(70));
            assert_eq!(hit.key.vmid.raw(), 1, "hit reports the requester's tenant");
        }

        #[test]
        fn sub_entry_ppn_conflict_rebases_entry() {
            let mut t = tenant_tlb(4, 2, SharingPolicy::SubEntry);
            t.insert(Translation::new(key(0, 7), Ppn(70)));
            t.insert(Translation::new(key(1, 7), Ppn(71))); // different frame
            assert_eq!(t.len(), 1);
            assert!(t.lookup(key(0, 7)).is_none(), "conflicting sharer lost visibility");
            assert_eq!(t.lookup(key(1, 7)).unwrap().ppn, Ppn(71));
        }

        #[test]
        fn sub_entry_shootdown_clears_one_tenant_bit() {
            let mut t = tenant_tlb(4, 2, SharingPolicy::SubEntry);
            t.insert(Translation::new(key(0, 7), Ppn(70)));
            t.insert(Translation::new(key(1, 7), Ppn(70)));
            assert!(t.invalidate(key(0, 7)));
            assert!(t.lookup(key(0, 7)).is_none());
            assert!(t.lookup(key(1, 7)).is_some(), "co-sharer survives the shootdown");
            assert_eq!(t.len(), 1);
            assert!(t.invalidate(key(1, 7)));
            assert_eq!(t.len(), 0, "entry dies when its mask empties");
            assert!(!t.invalidate(key(1, 7)));
        }

        #[test]
        fn sub_entry_iter_expands_sharers() {
            let mut t = tenant_tlb(4, 3, SharingPolicy::SubEntry);
            t.insert(Translation::new(key(0, 7), Ppn(70)));
            t.insert(Translation::new(key(2, 7), Ppn(70)));
            let mut vms: Vec<u8> = t.iter().map(|e| e.key.vmid.raw()).collect();
            vms.sort_unstable();
            assert_eq!(vms, vec![0, 2], "one logical translation per sharer");
        }

        #[test]
        fn sub_entry_victim_carries_representative_tenant() {
            let mut t = tenant_tlb(1, 2, SharingPolicy::SubEntry);
            t.insert(Translation::new(key(1, 7), Ppn(70)));
            let victim = t.insert(Translation::new(key(0, 9), Ppn(90))).unwrap();
            assert_eq!(victim.key.vpn, Vpn(7));
            assert_eq!(victim.key.vmid.raw(), 1, "victim forwarded for its lowest sharer");
        }

        #[test]
        fn sub_entry_invalidate_vmid_keeps_co_sharers() {
            let mut t = tenant_tlb(8, 2, SharingPolicy::SubEntry);
            t.insert(Translation::new(key(0, 1), Ppn(10)));
            t.insert(Translation::new(key(1, 1), Ppn(10)));
            t.insert(Translation::new(key(1, 2), Ppn(20)));
            assert_eq!(t.invalidate_vmid(VmId::new(1)), 2);
            assert_eq!(t.len(), 1, "shared entry survives, solo entry dies");
            assert!(t.lookup(key(0, 1)).is_some());
            assert!(t.lookup(key(1, 1)).is_none());
        }

        #[test]
        fn single_tenant_shared_matches_untenanted_behavior() {
            // The solo-equivalence anchor: 1-tenant Shared must walk
            // the exact same states as no tenancy at all.
            let mut plain = Tlb::new(TlbConfig::set_associative(8, 4, 1));
            let mut solo = Tlb::new(TlbConfig::set_associative(8, 4, 1));
            solo.set_tenancy(Some(TenancyConfig::new(1, SharingPolicy::Shared)));
            for v in 0..32u64 {
                let tx = Translation::new(key(0, v * 3), Ppn(v));
                assert_eq!(plain.insert(tx), solo.insert(tx), "insert {v}");
                assert_eq!(plain.lookup(key(0, v)), solo.lookup(key(0, v)));
            }
            assert_eq!(plain.stats().hits, solo.stats().hits);
            assert_eq!(plain.len(), solo.len());
        }

        #[test]
        #[should_panic(expected = "before first insert")]
        fn tenancy_rejects_live_entries() {
            let mut t = Tlb::new(TlbConfig::fully_associative(2, 1));
            t.insert(Translation::new(key(0, 1), Ppn(1)));
            t.set_tenancy(Some(TenancyConfig::new(2, SharingPolicy::SubEntry)));
        }
    }

    mod coalescing {
        use super::*;

        fn co_tlb(entries: usize, max: u8) -> Tlb {
            let mut t = Tlb::new(TlbConfig::fully_associative(entries, 1));
            t.set_coalescing(Some(max));
            t
        }

        /// One span-3 entry: vpns 40..48 -> ppns 500..508.
        fn span3() -> Translation {
            Translation::with_span(k(40), Ppn(500), 3)
        }

        #[test]
        fn covered_pages_hit_with_run_arithmetic() {
            let mut t = co_tlb(8, 4);
            t.insert(span3());
            assert_eq!(t.len(), 1);
            for v in 40..48u64 {
                let hit = t.lookup(k(v)).expect("covered page must hit");
                assert_eq!(hit.key.vpn, Vpn(40), "hit reports the base entry");
                assert_eq!(hit.ppn_for(Vpn(v)), Ppn(500 + (v - 40)));
            }
            assert!(t.lookup(k(39)).is_none());
            assert!(t.lookup(k(48)).is_none());
            assert_eq!(t.stats().hits, 8);
            assert_eq!(t.stats().misses, 2);
            // Exact-base hit is not a covering hit; the other 7 are.
            assert_eq!(t.coalescing_counters().hits, 7);
        }

        #[test]
        fn insert_counters_measure_reach() {
            let mut t = co_tlb(8, 4);
            t.insert(span3());
            t.insert(Translation::new(k(100), Ppn(9)));
            let co = t.coalescing_counters();
            assert_eq!(co.inserts, 2);
            assert_eq!(co.coalesced, 1);
            assert_eq!(co.span_pages, 8 + 1);
            t.reset_stats();
            assert_eq!(t.coalescing_counters(), CoalescingCounters::default());
        }

        #[test]
        fn single_page_shootdown_splits_into_buddies() {
            let mut t = co_tlb(16, 4);
            t.insert(span3());
            // Shoot vpn 42 out of the 40..48 run.
            assert!(t.invalidate(k(42)));
            assert!(t.lookup(k(42)).is_none(), "shot page must not survive");
            for v in (40..48u64).filter(|&v| v != 42) {
                let hit = t.lookup(k(v)).expect("survivor lost");
                assert_eq!(hit.ppn_for(Vpn(v)), Ppn(500 + (v - 40)), "survivor remapped");
            }
            // Buddy decomposition of 8 minus one page: spans {0,1,2}.
            assert_eq!(t.len(), 3);
            assert_eq!(t.coalescing_counters().splits, 1);
            // Splitting must not count as allocator-produced reach.
            assert_eq!(t.coalescing_counters().inserts, 1);
        }

        #[test]
        fn shooting_the_base_page_also_splits() {
            let mut t = co_tlb(16, 4);
            t.insert(span3());
            assert!(t.invalidate(k(40)));
            assert!(t.lookup(k(40)).is_none());
            for v in 41..48u64 {
                assert_eq!(t.lookup(k(v)).unwrap().ppn_for(Vpn(v)), Ppn(500 + (v - 40)));
            }
        }

        #[test]
        fn repeated_shootdowns_drain_the_run_completely() {
            let mut t = co_tlb(16, 4);
            t.insert(span3());
            for v in 40..48u64 {
                assert!(t.invalidate(k(v)), "page {v} already gone");
                for w in 40..48u64 {
                    assert_eq!(t.lookup(k(w)).is_some(), w > v, "page {w} after shooting {v}");
                }
            }
            assert!(t.is_empty());
        }

        #[test]
        fn fragment_and_covering_entry_can_both_die() {
            // An exact single-page entry AND a covering wide entry for
            // the same vpn can coexist (e.g. after a refresh); one
            // shootdown must reach both.
            let mut t = co_tlb(16, 4);
            t.insert(span3());
            t.insert(Translation::new(k(42), Ppn(777)));
            assert!(t.invalidate(k(42)));
            assert!(t.lookup(k(42)).is_none(), "stale translation survived the shootdown");
        }

        #[test]
        fn victims_keep_their_span() {
            let mut t = co_tlb(1, 4);
            t.insert(span3());
            let victim = t.insert(Translation::new(k(100), Ppn(9))).unwrap();
            assert_eq!(victim.key.vpn, Vpn(40));
            assert_eq!(victim.span_log2, 3, "Fig-12 victims carry the whole run");
        }

        #[test]
        fn iter_expands_covered_pages() {
            let mut t = co_tlb(8, 4);
            t.insert(span3());
            let pages: Vec<(u64, u64)> = t.iter().map(|e| (e.key.vpn.0, e.ppn.0)).collect();
            assert_eq!(pages.len(), 8);
            for (vpn, ppn) in pages {
                assert_eq!(ppn - 500, vpn - 40);
            }
        }

        #[test]
        fn invalidate_vmid_never_resurrects_fragments() {
            use crate::addr::{VmId, VrfId};
            let mut t = co_tlb(8, 4);
            let key1 = TranslationKey { vpn: Vpn(40), vmid: VmId::new(1), vrf: VrfId::default() };
            t.insert(Translation::with_span(key1, Ppn(500), 3));
            assert_eq!(t.invalidate_vmid(VmId::new(1)), 1);
            assert!(t.is_empty(), "teardown must not buddy-split the dying tenant");
        }

        #[test]
        fn coalescing_off_never_coalesces() {
            let mut t = Tlb::new(TlbConfig::fully_associative(8, 1));
            // span-0 inserts only (the system never builds spans with
            // coalescing off); no covering scan happens on lookup.
            t.insert(tx(40));
            assert!(t.lookup(k(41)).is_none());
            assert_eq!(t.coalescing_counters(), CoalescingCounters::default());
        }

        #[test]
        fn sub_entry_covering_shootdown_clears_only_the_shooter() {
            use crate::addr::{VmId, VrfId};
            use crate::tenancy::{SharingPolicy, TenancyConfig};
            let mut t = Tlb::new(TlbConfig::fully_associative(8, 1));
            t.set_tenancy(Some(TenancyConfig::new(2, SharingPolicy::SubEntry)));
            t.set_coalescing(Some(4));
            let key = |vm: u8| TranslationKey {
                vpn: Vpn(40),
                vmid: VmId::new(vm),
                vrf: VrfId::default(),
            };
            t.insert(Translation::with_span(key(0), Ppn(500), 3));
            t.insert(Translation::with_span(key(1), Ppn(500), 3));
            // Tenant 0 shoots a covered page: conservatively loses the
            // whole run, tenant 1 keeps it.
            let shot = TranslationKey { vpn: Vpn(42), ..key(0) };
            assert!(t.invalidate(shot));
            assert!(t.lookup(shot).is_none());
            assert!(t.lookup(TranslationKey { vpn: Vpn(41), ..key(0) }).is_none());
            assert!(t.lookup(TranslationKey { vpn: Vpn(42), ..key(1) }).is_some());
            assert_eq!(t.coalescing_counters().splits, 1);
        }

        #[test]
        #[should_panic(expected = "before first insert")]
        fn coalescing_rejects_live_entries() {
            let mut t = Tlb::new(TlbConfig::fully_associative(2, 1));
            t.insert(tx(1));
            t.set_coalescing(Some(4));
        }
    }
}
