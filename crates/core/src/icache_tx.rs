//! Reconfigurable instruction cache (§4.3).
//!
//! A 16 KB, 8-way I-cache shared by a group of CUs. Every line carries
//! a mode bit: **IC-mode** lines hold instructions, **Tx-mode** lines
//! hold 1 or 8 translations (Fig 8) under one compressed tag (8-bit
//! deltas, Fig 10c). Translations are indexed *direct-mapped* over the
//! whole line array (Fig 9) so the existing per-way comparators are
//! reused; the price is a serialized way scan (+16 cycles) and
//! base-delta decompression (+4 cycles), charged by the timing layer
//! from [`crate::config::ReachConfig`].
//!
//! Replacement follows §4.3.2: instruction fills prefer invalid lines,
//! then the LRU *Tx-mode* line, then the LRU instruction line; a
//! translation fill may claim only an invalid line or its own
//! direct-mapped Tx line (instruction-aware), unless the naive policy
//! of Fig 13a's second bar is selected, which lets translations evict
//! instructions. §4.3.3's kernel-boundary flush invalidates instruction
//! lines so the next kernel starts with reclaimable capacity.
//!
//! Everything inside a Tx line — the way group, lookup, fill,
//! shootdown, tenancy and coalescing — is the victim-store core of
//! [`crate::tx_ways`], shared with the reconfigurable LDS. This module
//! adds the instruction side, the line states, the line-level LRU a
//! translation hit or insert refreshes, the kernel-boundary flush and
//! Eq 1's utilization. Tenancy applies to the *translation* side only:
//! the instruction side is never partitioned — concurrent kernels
//! already share fetch capacity set-associatively and instruction lines
//! carry no address-space state to isolate.

use gtr_sim::divisor::Divisor;
use gtr_sim::resource::TrackedPort;
use gtr_sim::stats::HitMiss;
use gtr_vm::addr::{Translation, TranslationKey, VmId};
use gtr_vm::tenancy::TenancyConfig;

use crate::compress::TagGroup;
use crate::config::{Replacement, TxPerLine};
use crate::tx_ways::{TxCore, TxCounters, TxGroup, TxInsert, TxWays};

/// Delta lanes per Tx line: the Fig 10c layout packs eight 8-bit
/// deltas beside the 32-bit base, so the whole-line compare is one
/// 8-wide decode-and-match pass.
const TX_LANES: usize = 8;

#[derive(Debug, Clone)]
enum LineState {
    Invalid,
    Inst { tag: u64 },
    /// Boxed so IC-mode lines stay two words and the fetch way-scan
    /// stays dense.
    Tx(Box<TxWays<TX_LANES>>),
}

#[derive(Debug, Clone)]
struct Line {
    state: LineState,
    last_use: u64,
}

impl TxGroup<TX_LANES> for Line {
    fn tx(&self) -> Option<&TxWays<TX_LANES>> {
        match &self.state {
            LineState::Tx(ways) => Some(ways),
            _ => None,
        }
    }

    fn tx_mut(&mut self) -> Option<&mut TxWays<TX_LANES>> {
        match &mut self.state {
            LineState::Tx(ways) => Some(ways),
            _ => None,
        }
    }

    /// A translation hit also refreshes the line against instruction
    /// fills (§4.3.2's LRU Tx-line victim choice).
    fn touch(&mut self, tick: u64) {
        self.last_use = tick;
    }
}

/// Statistics of one reconfigurable I-cache instance.
#[derive(Debug, Clone, Default)]
pub struct TxIcacheStats {
    /// The translation-side counters shared with the LDS (`bypassed`
    /// counts inserts refused by an IC-mode direct-mapped line).
    pub tx: TxCounters,
    /// Instruction fetch hits/misses.
    pub inst: HitMiss,
    /// Translations evicted by instruction fills.
    pub tx_evicted_by_inst: u64,
    /// Instruction lines evicted by translations (naive policy only).
    pub inst_evicted_by_tx: u64,
    /// Prefetch fills (next-line prefetcher; counted by Eq 1).
    pub prefetches: u64,
    /// Instruction lines invalidated by kernel-boundary flushes.
    pub flushed_lines: u64,
}

/// One reconfigurable I-cache instance (shared by a group of CUs).
///
/// # Example
///
/// ```
/// use gtr_core::icache_tx::TxIcache;
/// use gtr_core::tx_ways::TxInsert;
/// use gtr_core::config::{Replacement, TxPerLine};
/// use gtr_vm::addr::{Ppn, Translation, TranslationKey, Vpn};
///
/// let mut ic = TxIcache::new(16 * 1024, 8, TxPerLine::Eight, Replacement::InstructionAware);
/// let tx = Translation::new(TranslationKey::for_vpn(Vpn(3)), Ppn(30));
/// assert!(matches!(ic.insert_tx(tx), TxInsert::Inserted { evicted: None }));
/// assert_eq!(ic.lookup_tx(tx.key), Some(tx));
/// ```
#[derive(Debug, Clone)]
pub struct TxIcache {
    /// The line array (index = set * assoc + way), shared by the
    /// set-associative instruction side and the direct-mapped Tx side.
    core: TxCore<Line, TX_LANES>,
    /// The instruction side's set count.
    sets: Divisor,
    assoc: usize,
    replacement: Replacement,
    fills_this_kernel: u64,
    port: TrackedPort,
    stats: TxIcacheStats,
}

impl TxIcache {
    /// Creates an empty reconfigurable I-cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide into whole sets.
    pub fn new(bytes: u32, assoc: usize, tx_per_line: TxPerLine, replacement: Replacement) -> Self {
        let line_count = (bytes / 64) as usize;
        assert!(assoc > 0 && line_count.is_multiple_of(assoc), "lines must divide into ways");
        let lines =
            (0..line_count).map(|_| Line { state: LineState::Invalid, last_use: 0 }).collect();
        Self {
            core: TxCore::new(lines, tx_per_line.slots()),
            sets: Divisor::new((line_count / assoc) as u64),
            assoc,
            replacement,
            fills_this_kernel: 0,
            port: TrackedPort::new(),
            stats: TxIcacheStats::default(),
        }
    }

    /// Installs a tenancy policy on the translation side (TENANCY.md
    /// §3; see [`crate::tx_ways`]).
    ///
    /// # Panics
    ///
    /// Panics if any translation is already resident.
    pub fn set_tenancy(&mut self, tenancy: TenancyConfig) {
        self.core.set_tenancy(tenancy);
    }

    /// Enables coalesced lanes of up to `2^max_span_log2` pages (see
    /// [`crate::tx_ways`]).
    ///
    /// # Panics
    ///
    /// Panics if any translation is already resident.
    pub fn set_coalescing(&mut self, max_span_log2: Option<u8>) {
        self.core.set_coalescing(max_span_log2);
    }

    /// Total lines.
    pub fn line_count(&self) -> usize {
        self.core.groups.len()
    }

    /// Translation slots per Tx line.
    pub fn tx_slots(&self) -> usize {
        self.core.ways
    }

    /// The shared fetch/translation port (Fig 5b idle-gap tracking).
    pub fn port_mut(&mut self) -> &mut TrackedPort {
        &mut self.port
    }

    /// Immutable view of the port.
    pub fn port(&self) -> &TrackedPort {
        &self.port
    }

    // ----- instruction side ------------------------------------------------

    /// Fetches the instruction line with global index `line_addr`;
    /// returns `true` on hit. A miss fills the line according to the
    /// replacement rules.
    pub fn fetch(&mut self, line_addr: u64) -> bool {
        let tick = self.core.tick();
        let (base, tag) = self.inst_set(line_addr);
        if let Some(way) = self.inst_way(base, tag) {
            self.core.groups[base + way].last_use = tick;
            self.stats.inst.hit();
            return true;
        }
        self.stats.inst.miss();
        self.fill_inst(base, tag, tick);
        false
    }

    /// Prefetches an instruction line (next-line prefetcher): fills it
    /// if absent without touching the hit/miss counters. Fills count
    /// toward Eq 1's utilization exactly as the paper's
    /// `IC_prefetches` term does. Returns whether a fill occurred.
    pub fn prefetch(&mut self, line_addr: u64) -> bool {
        let tick = self.core.tick();
        let (base, tag) = self.inst_set(line_addr);
        if self.inst_way(base, tag).is_some() {
            return false; // already resident
        }
        self.stats.prefetches += 1;
        self.fill_inst(base, tag, tick);
        true
    }

    /// The first line of `line_addr`'s set and its instruction tag.
    fn inst_set(&self, line_addr: u64) -> (usize, u64) {
        (self.sets.rem(line_addr) as usize * self.assoc, self.sets.div(line_addr))
    }

    /// The way of the set at `base` holding instruction tag `tag`.
    fn inst_way(&self, base: usize, tag: u64) -> Option<usize> {
        self.core.groups[base..base + self.assoc]
            .iter()
            .position(|l| matches!(l.state, LineState::Inst { tag: t } if t == tag))
    }

    /// Fills instruction tag `tag` into the set at `base`; the victim
    /// is an invalid line, else the LRU Tx line, else the LRU
    /// instruction line (§4.3.2 rule 1).
    fn fill_inst(&mut self, base: usize, tag: u64, tick: u64) {
        self.fills_this_kernel += 1;
        let ways = &self.core.groups[base..base + self.assoc];
        let lru_of = |pred: fn(&LineState) -> bool| {
            ways.iter()
                .enumerate()
                .filter(|(_, l)| pred(&l.state))
                .min_by_key(|(_, l)| l.last_use)
                .map(|(i, _)| i)
        };
        let victim = ways
            .iter()
            .position(|l| matches!(l.state, LineState::Invalid))
            .or_else(|| lru_of(|s| matches!(s, LineState::Tx(_))))
            .or_else(|| lru_of(|s| matches!(s, LineState::Inst { .. })))
            .expect("set is full of inst lines");
        let line = &mut self.core.groups[base + victim];
        if let LineState::Tx(ways) = &line.state {
            self.stats.tx_evicted_by_inst += ways.resident() as u64;
        }
        line.state = LineState::Inst { tag };
        line.last_use = tick;
    }

    /// Invalidates all instruction lines (§4.3.3 kernel-boundary
    /// flush); Tx lines are untouched. Returns the number of
    /// instruction lines invalidated.
    pub fn flush_instructions(&mut self) -> u64 {
        let mut flushed = 0;
        for line in &mut self.core.groups {
            if matches!(line.state, LineState::Inst { .. }) {
                line.state = LineState::Invalid;
                flushed += 1;
            }
        }
        self.stats.flushed_lines += flushed;
        flushed
    }

    // ----- translation side -------------------------------------------------

    /// Whether the direct-mapped line for `key` currently operates in
    /// Tx-mode (the 1-cycle mode-bit check that gates the full Tx
    /// lookup). Follows the partitioned stripe remap.
    pub fn is_tx_line(&self, key: TranslationKey) -> bool {
        self.core.groups[self.core.index(key)].tx().is_some()
    }

    /// Whether a translation lookup for `key` could possibly hit: the
    /// routing gate the system charges the Tx-lookup latency against.
    /// With coalescing off it is [`Self::is_tx_line`]; under coalescing
    /// any span-base line in Tx mode counts.
    pub fn may_hold_tx(&self, key: TranslationKey) -> bool {
        self.core.may_hold(key)
    }

    /// Looks up a translation. A hit refreshes LRU (the lane's and the
    /// line's) and returns a copy for promotion to the requesting CU's
    /// L1 TLB; the entry stays resident so the other CUs sharing this
    /// I-cache can still hit it. A covering hit returns the whole run
    /// (see [`Translation::ppn_for`]).
    pub fn lookup_tx(&mut self, key: TranslationKey) -> Option<Translation> {
        self.core.lookup(key, &mut self.stats.tx)
    }

    /// Inserts a translation candidate (an L1-TLB or LDS victim) into
    /// its direct-mapped line: an invalid line switches to Tx mode, and
    /// what the insert displaces is forwarded to the L2 TLB (Fig 12
    /// flow ❶→❷→❸→❺→❻). An instruction line refuses the candidate,
    /// which itself goes to the L2 TLB, unless the naive policy lets the
    /// translation evict the instructions.
    pub fn insert_tx(&mut self, tx: Translation) -> TxInsert {
        let tick = self.core.tick();
        let idx = self.core.index(tx.key);
        let naive = self.replacement == Replacement::NaiveLru;
        let fresh = || LineState::Tx(Box::new(TxWays::new(TagGroup::icache())));
        let line = &mut self.core.groups[idx];
        match line.state {
            LineState::Tx(_) => {}
            LineState::Invalid => line.state = fresh(),
            LineState::Inst { .. } if naive => {
                // Fig 13a bar 2: translations may evict instructions.
                self.stats.inst_evicted_by_tx += 1;
                line.state = fresh();
            }
            LineState::Inst { .. } => {
                self.stats.tx.bypassed += 1;
                return TxInsert::Bypassed;
            }
        }
        line.last_use = tick;
        TxInsert::Inserted { evicted: self.core.fill(idx, tx, tick, &mut self.stats.tx) }
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

    // ----- measurement ------------------------------------------------------

    /// Begins a kernel: resets the Eq-1 fill counter.
    pub fn begin_kernel(&mut self) {
        self.fills_this_kernel = 0;
    }

    /// Ends a kernel and returns its Eq-1 I-cache utilization in
    /// percent: `fills * 100 / lines`, capped at 100.
    pub fn end_kernel_utilization(&self) -> f64 {
        (self.fills_this_kernel as f64 * 100.0 / self.line_count() as f64).min(100.0)
    }

    /// Translations currently resident.
    pub fn resident_tx(&self) -> usize {
        self.core.resident()
    }

    /// Lines currently holding instructions.
    pub fn inst_lines(&self) -> usize {
        self.core.groups.iter().filter(|l| matches!(l.state, LineState::Inst { .. })).count()
    }

    /// Iterates over resident translations (sharing analysis), one per
    /// covered page and sharing tenant.
    pub fn iter_tx(&self) -> impl Iterator<Item = Translation> + '_ {
        self.core.iter()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &TxIcacheStats {
        &self.stats
    }

    /// Zeroes the statistics while keeping resident instruction lines
    /// and translations (checkpoint restore re-baselines measurement on
    /// warm state).
    pub fn reset_stats(&mut self) {
        self.stats = TxIcacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    //! Instruction-side and line-state behaviour; the Tx-mode behaviour
    //! shared with the LDS is the suite in `tx_ways`, run once per
    //! structure.
    use super::*;
    use gtr_vm::addr::{Ppn, Vpn};

    fn tx(v: u64) -> Translation {
        Translation::new(TranslationKey::for_vpn(Vpn(v)), Ppn(v + 1))
    }

    fn ic(policy: Replacement, pack: TxPerLine) -> TxIcache {
        TxIcache::new(16 * 1024, 8, pack, policy)
    }

    #[test]
    fn geometry_matches_paper() {
        let c = ic(Replacement::InstructionAware, TxPerLine::Eight);
        assert_eq!(c.line_count(), 256);
        // 256 lines × 8 tx = 2048 per instance; 2 instances = 4K
        // (Fig 15: "4K from I-caches").
        assert_eq!(c.line_count() * c.tx_slots(), 2048);
    }

    #[test]
    fn instruction_fetch_miss_then_hit() {
        let mut c = ic(Replacement::InstructionAware, TxPerLine::Eight);
        assert!(!c.fetch(100));
        assert!(c.fetch(100));
        assert_eq!(c.stats().inst.hits, 1);
        assert_eq!(c.inst_lines(), 1);
    }

    #[test]
    fn instruction_fill_prefers_tx_victims() {
        let mut c = ic(Replacement::InstructionAware, TxPerLine::Eight);
        // Fill set 0's ways: 7 instruction lines + 1 tx line.
        for i in 0..7u64 {
            c.fetch(i * 32); // set 0, distinct tags
        }
        // vpn 0 maps to line 0 (set 0, way 0 region). Use a vpn whose
        // direct-mapped line sits in set 0: any vpn % 256 < 8.
        c.insert_tx(tx(7)); // line 7 -> set 0, way 7
        assert_eq!(c.resident_tx(), 1);
        // Next instruction miss in set 0 must evict the tx line, not
        // an instruction line.
        assert!(!c.fetch(7 * 32));
        assert_eq!(c.resident_tx(), 0);
        assert_eq!(c.stats().tx_evicted_by_inst, 1);
        assert_eq!(c.inst_lines(), 8);
    }

    #[test]
    fn instruction_aware_tx_never_evicts_instructions() {
        let mut c = ic(Replacement::InstructionAware, TxPerLine::Eight);
        // Fill every line of the cache with instructions.
        for set in 0..32u64 {
            for way in 0..8u64 {
                c.fetch(set + way * 32);
            }
        }
        assert_eq!(c.inst_lines(), 256);
        assert_eq!(c.insert_tx(tx(5)), TxInsert::Bypassed);
        assert_eq!(c.stats().tx.bypassed, 1);
        assert_eq!(c.inst_lines(), 256);
    }

    #[test]
    fn naive_policy_lets_tx_evict_instructions() {
        let mut c = ic(Replacement::NaiveLru, TxPerLine::Eight);
        c.fetch(5); // instruction in set 5... which line? set=5, first way.
        // Find a vpn direct-mapped onto that very line: line index of the
        // filled line is set 5, way 0 => global line idx 40.
        let vpn = 40u64;
        assert!(matches!(c.insert_tx(tx(vpn)), TxInsert::Inserted { .. }));
        assert_eq!(c.stats().inst_evicted_by_tx, 1);
    }

    #[test]
    fn one_per_line_design_holds_single_entry() {
        let mut c = ic(Replacement::InstructionAware, TxPerLine::One);
        let n = c.line_count() as u64;
        c.insert_tx(tx(3));
        match c.insert_tx(tx(3 + n)) {
            TxInsert::Inserted { evicted: Some(e) } => assert_eq!(e.key.vpn, Vpn(3)),
            other => panic!("expected displacement: {other:?}"),
        }
        assert_eq!(c.resident_tx(), 1);
    }

    #[test]
    fn flush_clears_instructions_only() {
        let mut c = ic(Replacement::InstructionAware, TxPerLine::Eight);
        c.fetch(0);
        c.fetch(1);
        c.insert_tx(tx(77));
        c.flush_instructions();
        assert_eq!(c.inst_lines(), 0);
        assert_eq!(c.resident_tx(), 1);
        assert_eq!(c.stats().flushed_lines, 2);
        // Flushed lines are reclaimable by translations.
        assert!(matches!(c.insert_tx(tx(0)), TxInsert::Inserted { .. }));
    }

    #[test]
    fn utilization_eq1_per_kernel() {
        let mut c = ic(Replacement::InstructionAware, TxPerLine::Eight);
        c.begin_kernel();
        for i in 0..64u64 {
            c.fetch(i);
        }
        assert!((c.end_kernel_utilization() - 25.0).abs() < 1e-9); // 64/256
        c.begin_kernel();
        for i in 0..1000u64 {
            c.fetch(i + 1000);
        }
        assert_eq!(c.end_kernel_utilization(), 100.0, "capped at 100%");
    }
}
