//! Reconfigurable LDS: translation victim storage in idle scratchpad
//! segments (§4.2).
//!
//! The LDS is divided into 32-byte segments (64-byte in the §6.3.1
//! ablation). Each segment carries a mode bit: **App** segments belong
//! to a live workgroup allocation and are untouchable; **Tx** segments
//! co-locate one compressed tag word (16-bit deltas, Fig 7b) with 3 (or
//! 6) eight-byte translations; **Idle** segments belong to nobody. Mode
//! transitions follow §4.2.4: an application allocation may overwrite
//! Tx segments at any time (no data movement — translations are clean),
//! but a translation insert can never claim an App segment.
//!
//! Everything inside a Tx segment — the way group, lookup, fill,
//! shootdown, tenancy and coalescing — is the victim-store core of
//! [`crate::tx_ways`], shared with the reconfigurable I-cache. This
//! module adds the segment modes, the app allocation override, and the
//! home-hashing index shift.

use gtr_vm::addr::{Translation, TranslationKey, VmId};
use gtr_vm::tenancy::TenancyConfig;

use crate::compress::TagGroup;
use crate::config::SegmentSize;
use crate::tx_ways::{TxCore, TxCounters, TxGroup, TxInsert, TxWays};

/// Operating mode of one LDS segment (the mode bit of §4.2.4, with
/// "Idle" distinguishing never/no-longer-allocated capacity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SegmentMode {
    /// No live workgroup allocation and no translations.
    #[default]
    Idle,
    /// Owned by an application workgroup allocation (LDS-mode).
    App,
    /// Holding translations (Tx-mode).
    Tx,
}

/// Upper bound on translation ways per segment (6 for 64-byte
/// segments, 3 for 32-byte); fixed-size lanes keep every segment's
/// whole tag vector in two cache lines with no per-segment heap.
const MAX_WAYS: usize = 6;

/// One LDS segment: its mode bit and its way group (empty unless Tx).
#[derive(Debug, Clone)]
struct Segment {
    mode: SegmentMode,
    ways: TxWays<MAX_WAYS>,
}

impl TxGroup<MAX_WAYS> for Segment {
    fn tx(&self) -> Option<&TxWays<MAX_WAYS>> {
        (self.mode == SegmentMode::Tx).then_some(&self.ways)
    }

    fn tx_mut(&mut self) -> Option<&mut TxWays<MAX_WAYS>> {
        (self.mode == SegmentMode::Tx).then_some(&mut self.ways)
    }
}

/// Statistics of one CU's reconfigurable LDS.
#[derive(Debug, Clone, Default)]
pub struct TxLdsStats {
    /// The Tx-mode counters shared with the I-cache (lookup misses
    /// include App-mode segments; `bypassed` counts inserts refused by
    /// an App-mode segment).
    pub tx: TxCounters,
    /// Translations dropped when an app allocation overwrote their
    /// segment.
    pub overwritten_by_app: u64,
}

/// One CU's reconfigurable LDS.
///
/// # Example
///
/// ```
/// use gtr_core::lds_tx::TxLds;
/// use gtr_core::tx_ways::TxInsert;
/// use gtr_core::config::SegmentSize;
/// use gtr_vm::addr::{Ppn, Translation, TranslationKey, Vpn};
///
/// let mut lds = TxLds::new(16 * 1024, SegmentSize::Bytes32);
/// let tx = Translation::new(TranslationKey::for_vpn(Vpn(7)), Ppn(70));
/// assert!(matches!(lds.insert(tx), TxInsert::Inserted { evicted: None }));
/// assert_eq!(lds.lookup(tx.key), Some(tx)); // copy promoted to the L1 TLB
/// assert_eq!(lds.lookup(tx.key), Some(tx)); // entry stays resident
/// ```
#[derive(Debug, Clone)]
pub struct TxLds {
    core: TxCore<Segment, MAX_WAYS>,
    segment_bytes: u32,
    stats: TxLdsStats,
}

impl TxLds {
    /// Creates a reconfigurable LDS over `lds_bytes` of scratchpad.
    ///
    /// # Panics
    ///
    /// Panics if `lds_bytes` is not a multiple of the segment size.
    pub fn new(lds_bytes: u32, segment_size: SegmentSize) -> Self {
        let seg = segment_size.bytes();
        assert!(lds_bytes.is_multiple_of(seg), "LDS must divide into segments");
        let segments = (0..lds_bytes / seg)
            .map(|_| Segment { mode: SegmentMode::Idle, ways: TxWays::new(TagGroup::lds()) })
            .collect();
        Self {
            core: TxCore::new(segments, segment_size.ways()),
            segment_bytes: seg,
            stats: TxLdsStats::default(),
        }
    }

    /// Enables coalesced ways of up to `2^max_span_log2` pages (see
    /// [`crate::tx_ways`]).
    ///
    /// # Panics
    ///
    /// Panics if any translation is already resident.
    pub fn set_coalescing(&mut self, max_span_log2: Option<u8>) {
        self.core.set_coalescing(max_span_log2);
    }

    /// Installs a tenancy policy (TENANCY.md §3; see [`crate::tx_ways`]).
    ///
    /// # Panics
    ///
    /// Panics if any translation is already resident.
    pub fn set_tenancy(&mut self, tenancy: TenancyConfig) {
        self.core.set_tenancy(tenancy);
    }

    /// Sets the number of low VPN bits to skip before segment indexing
    /// and tagging (0 unless home hashing distributes VPNs across CUs;
    /// see `ReachConfig::lds_home_hashing`). Without the shift, a home
    /// LDS would only ever see VPNs congruent to its CU id and leave
    /// 7/8 of its segments idle.
    pub fn with_index_shift(mut self, shift: u32) -> Self {
        self.core.index_shift = shift;
        self
    }

    /// Number of segments.
    pub fn segment_count(&self) -> usize {
        self.core.groups.len()
    }

    /// Translation ways per segment.
    pub fn ways(&self) -> usize {
        self.core.ways
    }

    /// Mode of the segment a key maps to (drives the Fig 12 routing).
    pub fn segment_mode(&self, key: TranslationKey) -> SegmentMode {
        self.core.groups[self.core.index(key)].mode
    }

    /// Whether a lookup for `key` could possibly hit: the Fig-12
    /// routing gate the system charges LDS lookup latency against. With
    /// coalescing off it is `segment_mode(key) == Tx`; under coalescing
    /// any span-base segment in Tx mode counts.
    pub fn may_hold(&self, key: TranslationKey) -> bool {
        self.core.may_hold(key)
    }

    /// Looks up a translation. A hit refreshes the entry's LRU
    /// position and returns a copy for promotion into the L1 TLB; the
    /// entry itself stays resident (translations are clean, so
    /// duplication between the LDS and a TLB is harmless, Fig 14a).
    /// A covering hit returns the whole run (see [`Translation::ppn_for`]).
    pub fn lookup(&mut self, key: TranslationKey) -> Option<Translation> {
        self.core.lookup(key, &mut self.stats.tx)
    }

    /// Inserts an L1-TLB victim: an Idle segment switches to Tx mode
    /// and what the insert displaces continues down the fill flow (Fig
    /// 12 flow ❶→❷→❹→❻); an App segment refuses the victim, which
    /// skips the LDS (flow ❶→❷→❸→❺).
    pub fn insert(&mut self, tx: Translation) -> TxInsert {
        let tick = self.core.tick();
        let idx = self.core.index(tx.key);
        let seg = &mut self.core.groups[idx];
        match seg.mode {
            SegmentMode::App => {
                self.stats.tx.bypassed += 1;
                return TxInsert::Bypassed;
            }
            SegmentMode::Idle => {
                seg.mode = SegmentMode::Tx;
                seg.ways.clear();
            }
            SegmentMode::Tx => {}
        }
        TxInsert::Inserted { evicted: self.core.fill(idx, tx, tick, &mut self.stats.tx) }
    }

    /// A workgroup allocation claimed `[base, base+size)`: covered
    /// segments switch to App mode, dropping any translations
    /// (overwrite without data movement, §4.2.3).
    pub fn on_app_allocate(&mut self, base: u32, size: u32) {
        for i in self.covered(base, size) {
            let seg = &mut self.core.groups[i];
            if seg.mode == SegmentMode::Tx {
                self.stats.overwritten_by_app += seg.ways.clear() as u64;
            }
            seg.mode = SegmentMode::App;
        }
    }

    /// A workgroup allocation over `[base, base+size)` was released:
    /// covered segments become Idle.
    pub fn on_app_release(&mut self, base: u32, size: u32) {
        for i in self.covered(base, size) {
            let seg = &mut self.core.groups[i];
            debug_assert_ne!(seg.mode, SegmentMode::Tx, "Tx can never overwrite App");
            seg.ways.clear();
            seg.mode = SegmentMode::Idle;
        }
    }

    fn covered(&self, base: u32, size: u32) -> std::ops::Range<usize> {
        if size == 0 {
            return 0..0;
        }
        let first = (base / self.segment_bytes) as usize;
        let last = ((base + size - 1) / self.segment_bytes) as usize + 1;
        first..last.min(self.segment_count())
    }

    /// Shootdown: invalidates `key` if present; returns whether it was
    /// (sub-entry and coalescing rules in [`crate::tx_ways`]).
    pub fn shootdown(&mut self, key: TranslationKey) -> bool {
        self.core.shootdown(key, &mut self.stats.tx)
    }

    /// Drops every translation visible to `vmid` (tenant teardown);
    /// returns the number of visibility losses.
    pub fn invalidate_vmid(&mut self, vmid: VmId) -> usize {
        self.core.invalidate_vmid(vmid)
    }

    /// Translations currently resident (Fig 15's "entries gained").
    pub fn resident(&self) -> usize {
        self.core.resident()
    }

    /// Iterates over resident translations (Fig 14a sharing analysis),
    /// one per covered page and sharing tenant.
    pub fn iter(&self) -> impl Iterator<Item = Translation> + '_ {
        self.core.iter()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &TxLdsStats {
        &self.stats
    }

    /// Zeroes the statistics while keeping resident translations
    /// (checkpoint restore re-baselines measurement on warm state).
    pub fn reset_stats(&mut self) {
        self.stats = TxLdsStats::default();
    }

    /// Drops every translation (used between independent runs); App
    /// segments keep their allocation.
    pub fn clear_tx(&mut self) {
        for seg in &mut self.core.groups {
            if seg.mode == SegmentMode::Tx {
                seg.ways.clear();
                seg.mode = SegmentMode::Idle;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    //! LDS-only behaviour; the Tx-mode behaviour shared with the
    //! I-cache is the suite in `tx_ways`, run once per structure.
    use super::*;
    use gtr_vm::addr::{Ppn, Vpn};

    fn tx(v: u64) -> Translation {
        Translation::new(TranslationKey::for_vpn(Vpn(v)), Ppn(v + 1))
    }

    fn lds() -> TxLds {
        TxLds::new(16 * 1024, SegmentSize::Bytes32)
    }

    #[test]
    fn geometry_matches_paper() {
        let l = lds();
        assert_eq!(l.segment_count(), 512); // 16 KB / 32 B
        assert_eq!(l.ways(), 3);
        // 512 segments × 3 ways = 1536 entries per CU; ×8 CUs = 12 K
        // (Fig 15: "12K from LDS").
        assert_eq!(l.segment_count() * l.ways(), 1536);
    }

    #[test]
    fn app_mode_bypasses_and_drops() {
        let mut l = lds();
        let t = tx(3);
        l.insert(t);
        // Allocation covering segment 3 (bytes [96,128)).
        l.on_app_allocate(0, 256); // segments 0..8
        assert_eq!(l.resident(), 0, "app overwrite drops translations");
        assert_eq!(l.stats().overwritten_by_app, 1);
        assert_eq!(l.insert(t), TxInsert::Bypassed);
        assert_eq!(l.stats().tx.bypassed, 1);
        assert_eq!(l.segment_mode(t.key), SegmentMode::App);
        // Release frees the capacity again.
        l.on_app_release(0, 256);
        assert_eq!(l.segment_mode(t.key), SegmentMode::Idle);
        assert!(matches!(l.insert(t), TxInsert::Inserted { .. }));
    }

    #[test]
    fn clear_tx_leaves_app_segments() {
        let mut l = lds();
        l.insert(tx(0));
        l.on_app_allocate(512, 512); // segments 16..32
        let modes = |l: &TxLds| (0..512).map(|v| l.segment_mode(tx(v).key)).collect::<Vec<_>>();
        let before = modes(&l);
        assert_eq!(before[0], SegmentMode::Tx);
        assert_eq!(before.iter().filter(|&&m| m == SegmentMode::App).count(), 16); // 512 B / 32
        l.clear_tx();
        assert_eq!(l.resident(), 0);
        for (v, (old, new)) in before.into_iter().zip(modes(&l)).enumerate() {
            let want = if old == SegmentMode::Tx { SegmentMode::Idle } else { old };
            assert_eq!(new, want, "segment {v}: clear_tx leaves app segments");
        }
    }

    #[test]
    fn index_shift_spreads_strided_vpns() {
        // VPNs all ≡ 3 (mod 8), as a home LDS sees under home hashing.
        let mut plain = lds();
        let mut shifted = TxLds::new(16 * 1024, SegmentSize::Bytes32).with_index_shift(3);
        for i in 0..512u64 {
            plain.insert(tx(3 + i * 8));
            shifted.insert(tx(3 + i * 8));
        }
        assert!(plain.resident() < 256, "unshifted: 7/8 of segments unused");
        assert_eq!(shifted.resident(), 512, "shifted: every VPN gets a slot");
        assert_eq!(shifted.lookup(tx(3).key), Some(tx(3)));
    }

    #[test]
    fn sixty_four_byte_segments_double_ways() {
        let l = TxLds::new(16 * 1024, SegmentSize::Bytes64);
        assert_eq!(l.segment_count(), 256);
        assert_eq!(l.ways(), 6);
        // Same total capacity in entries.
        assert_eq!(l.segment_count() * l.ways(), 1536);
    }
}
