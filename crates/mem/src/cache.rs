//! Generic set-associative, write-back, write-allocate cache.
//!
//! Instantiated as the per-CU 32 KB 8-way L1 data cache and the
//! GPU-shared 4 MB 16-way L2 (Table 1). Addresses are 64-byte line
//! indices; the cache itself is data-less (timing/occupancy only).

use gtr_sim::divisor::Divisor;
use gtr_sim::stats::HitMiss;

/// Cache geometry and latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Ways per set.
    pub assoc: usize,
    /// Hit latency in cycles.
    pub latency: u64,
}

impl CacheConfig {
    /// GPU L1 data cache per Table 1: 32 KB, 8-way.
    pub fn gpu_l1d() -> Self {
        Self { capacity_bytes: 32 * 1024, line_bytes: 64, assoc: 8, latency: 28 }
    }

    /// GPU shared L2 per Table 1: 4 MB, 16-way.
    pub fn gpu_l2() -> Self {
        Self { capacity_bytes: 4 * 1024 * 1024, line_bytes: 64, assoc: 16, latency: 120 }
    }

    /// Number of lines.
    pub fn lines(&self) -> usize {
        (self.capacity_bytes / self.line_bytes) as usize
    }

    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly.
    pub fn sets(&self) -> usize {
        let lines = self.lines();
        assert!(self.assoc > 0 && lines.is_multiple_of(self.assoc), "lines must divide into ways");
        lines / self.assoc
    }
}

/// Empty-way sentinel: a way's tag is its full line index (a byte
/// address / 64), far below `u64::MAX` for any address.
const EMPTY: u64 = u64::MAX;

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// Whether the line was resident.
    pub hit: bool,
    /// A dirty victim line (by line index) that must be written back.
    pub writeback: Option<u64>,
}

/// A set-associative LRU cache addressed by line index.
///
/// # Example
///
/// ```
/// use gtr_mem::cache::{Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig { capacity_bytes: 256, line_bytes: 64, assoc: 2, latency: 4 });
/// assert!(!c.access(7, false).hit);
/// assert!(c.access(7, false).hit);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Set count, dividing the folded line into a set index.
    sets: Divisor,
    /// Way tags, one flat arena (`set * assoc + way`): the full line
    /// index, or [`EMPTY`] when the way is invalid. The set is a
    /// function of the line, so matching the line is matching (set,
    /// tag), and a writeback reports the tag itself. Kept separate from
    /// the other per-way arrays so the hit-path scan touches the
    /// fewest host cache lines.
    tags: Vec<u64>,
    /// LRU ticks, parallel to `tags`; 0 for an invalid way. Ticks
    /// start at 1 and are unique, so the smallest stamp of a set is its
    /// first invalid way if it has one, else its LRU way.
    last_use: Vec<u64>,
    /// Dirty bits, parallel to `tags`.
    dirty: Vec<bool>,
    resident: usize,
    tick: u64,
    stats: HitMiss,
    writebacks: u64,
}

impl Cache {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        let n = config.sets() * config.assoc;
        Self {
            sets: Divisor::new(config.sets() as u64),
            config,
            tags: vec![EMPTY; n],
            last_use: vec![0; n],
            dirty: vec![false; n],
            resident: 0,
            tick: 0,
            stats: HitMiss::new(),
            writebacks: 0,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Hit latency in cycles.
    pub fn latency(&self) -> u64 {
        self.config.latency
    }

    /// The arena range of `line`'s set.
    fn ways(&self, line: u64) -> std::ops::Range<usize> {
        // XOR-folded set index: without it, every page's line `c`
        // (fixed in-page offset) lands in sets `{64k + c}` only —
        // column-strided kernels would thrash 64 of 4096 L2 sets while
        // the rest idle. Real LLCs hash their index bits for the same
        // reason.
        let hashed = line ^ (line >> 7) ^ (line >> 14);
        let base = self.sets.rem(hashed) as usize * self.config.assoc;
        base..base + self.config.assoc
    }

    /// Accesses `line` (a 64-byte line index), allocating on miss.
    pub fn access(&mut self, line: u64, is_write: bool) -> CacheAccess {
        self.tick += 1;
        let tick = self.tick;
        let ways = self.ways(line);
        let base = ways.start;
        if let Some(i) = self.tags[ways.clone()].iter().position(|&t| t == line) {
            let i = base + i;
            self.last_use[i] = tick;
            self.dirty[i] |= is_write;
            self.stats.hit();
            return CacheAccess { hit: true, writeback: None };
        }
        self.stats.miss();
        // First invalid way (stamp 0), else the LRU way.
        let (i, _) = self.last_use[ways]
            .iter()
            .enumerate()
            .min_by_key(|&(_, &stamp)| stamp)
            .expect("assoc > 0");
        let slot = base + i;
        let mut writeback = None;
        if self.tags[slot] == EMPTY {
            self.resident += 1;
        } else if self.dirty[slot] {
            writeback = Some(self.tags[slot]);
            self.writebacks += 1;
        }
        self.tags[slot] = line;
        self.dirty[slot] = is_write;
        self.last_use[slot] = tick;
        CacheAccess { hit: false, writeback }
    }

    /// Checks residency without updating LRU or counters.
    pub fn probe(&self, line: u64) -> bool {
        self.tags[self.ways(line)].contains(&line)
    }

    /// Invalidates one line; returns whether it was present (dirty data
    /// is dropped — used for functional invalidations only).
    pub fn invalidate(&mut self, line: u64) -> bool {
        let ways = self.ways(line);
        match self.tags[ways.clone()].iter().position(|&t| t == line) {
            Some(i) => {
                self.tags[ways.start + i] = EMPTY;
                self.last_use[ways.start + i] = 0;
                self.resident -= 1;
                true
            }
            None => false,
        }
    }

    /// Flushes everything (no writeback accounting — kernel-boundary
    /// flushes in GPUs invalidate clean instruction/data state).
    pub fn flush(&mut self) {
        self.tags.fill(EMPTY);
        self.last_use.fill(0);
        self.resident = 0;
    }

    /// Valid lines resident.
    pub fn len(&self) -> usize {
        self.resident
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> HitMiss {
        self.stats
    }

    /// Dirty writebacks generated.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Resets counters, keeping contents.
    pub fn reset_stats(&mut self) {
        self.stats = HitMiss::new();
        self.writebacks = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtr_sim::rng::SplitMix64;

    /// `Cache` as it was before the line-as-tag layout — tags
    /// `line / sets`, a separate per-way line array, and a first-empty
    /// scan ahead of the LRU scan — kept as the differential test's
    /// reference.
    struct Reference {
        assoc: usize,
        nsets: usize,
        tags: Vec<u64>,
        last_use: Vec<u64>,
        lines: Vec<u64>,
        dirty: Vec<bool>,
        resident: usize,
        tick: u64,
        stats: HitMiss,
        writebacks: u64,
    }

    impl Reference {
        fn new(config: CacheConfig) -> Self {
            let n = config.sets() * config.assoc;
            Self {
                assoc: config.assoc,
                nsets: config.sets(),
                tags: vec![EMPTY; n],
                last_use: vec![0; n],
                lines: vec![0; n],
                dirty: vec![false; n],
                resident: 0,
                tick: 0,
                stats: HitMiss::new(),
                writebacks: 0,
            }
        }

        fn split(&self, line: u64) -> (usize, u64) {
            let sets = self.nsets as u64;
            let hashed = line ^ (line >> 7) ^ (line >> 14);
            ((hashed % sets) as usize, line / sets)
        }

        fn access(&mut self, line: u64, is_write: bool) -> CacheAccess {
            self.tick += 1;
            let tick = self.tick;
            let (set_idx, tag) = self.split(line);
            let base = set_idx * self.assoc;
            let ways = base..base + self.assoc;
            if let Some(i) = self.tags[ways.clone()].iter().position(|&t| t == tag) {
                let i = base + i;
                self.last_use[i] = tick;
                self.dirty[i] |= is_write;
                self.stats.hit();
                return CacheAccess { hit: true, writeback: None };
            }
            self.stats.miss();
            let mut writeback = None;
            let slot = match self.tags[ways.clone()].iter().position(|&t| t == EMPTY) {
                Some(i) => {
                    self.resident += 1;
                    base + i
                }
                None => {
                    let lru = ways.min_by_key(|&i| self.last_use[i]).expect("assoc > 0");
                    if self.dirty[lru] {
                        writeback = Some(self.lines[lru]);
                        self.writebacks += 1;
                    }
                    lru
                }
            };
            self.tags[slot] = tag;
            self.lines[slot] = line;
            self.dirty[slot] = is_write;
            self.last_use[slot] = tick;
            CacheAccess { hit: false, writeback }
        }

        fn probe(&self, line: u64) -> bool {
            let (set_idx, tag) = self.split(line);
            let base = set_idx * self.assoc;
            self.tags[base..base + self.assoc].contains(&tag)
        }

        fn invalidate(&mut self, line: u64) -> bool {
            let (set_idx, tag) = self.split(line);
            let base = set_idx * self.assoc;
            match self.tags[base..base + self.assoc].iter().position(|&t| t == tag) {
                Some(i) => {
                    self.tags[base + i] = EMPTY;
                    self.resident -= 1;
                    true
                }
                None => false,
            }
        }

        fn flush(&mut self) {
            self.tags.fill(EMPTY);
            self.resident = 0;
        }
    }

    #[test]
    fn line_tagged_cache_matches_reference() {
        // (sets, assoc): power-of-two and odd set counts, direct-mapped
        // through 16-way.
        let shapes = [(4, 1), (7, 1), (16, 2), (12, 2), (8, 8), (5, 8), (64, 8), (4, 16), (3, 16)];
        for (n, &(sets, assoc)) in shapes.iter().enumerate() {
            let config = CacheConfig {
                capacity_bytes: (sets * assoc * 64) as u64,
                line_bytes: 64,
                assoc,
                latency: 1,
            };
            let mut c = Cache::new(config);
            let mut r = Reference::new(config);
            let mut rng = SplitMix64::new(0xCAC4E + n as u64);
            // A footprint a few times the capacity keeps every set
            // cycling through hits, fills and evictions. With a
            // power-of-two set count a rare far line exercises large
            // tags; otherwise lines stay below 128, where the index fold
            // adds nothing and the reference's (set, tag) pairs are
            // unique (see `odd_set_counts_never_alias_lines`).
            let pow2 = sets.is_power_of_two();
            let footprint = if pow2 { sets * assoc * 3 } else { (sets * assoc * 3).min(128) };
            for step in 0..40_000 {
                let line = match rng.next_below(64) {
                    0 if pow2 => rng.next_u64() >> 6,
                    _ => rng.next_below(footprint as u64),
                };
                match rng.next_below(100) {
                    0 => {
                        c.flush();
                        r.flush();
                    }
                    1..=5 => assert_eq!(c.invalidate(line), r.invalidate(line), "step {step}"),
                    6..=10 => assert_eq!(c.probe(line), r.probe(line), "step {step}"),
                    k => {
                        let write = k % 3 == 0;
                        assert_eq!(c.access(line, write), r.access(line, write), "step {step}");
                    }
                }
                assert_eq!(c.len(), r.resident, "step {step}");
            }
            assert_eq!(c.stats(), r.stats, "{sets}x{assoc}");
            assert_eq!(c.writebacks(), r.writebacks, "{sets}x{assoc}");
            assert!(c.writebacks() > 0 && c.stats().hits > 0, "{sets}x{assoc} stream too tame");
        }
    }

    #[test]
    fn odd_set_counts_never_alias_lines() {
        // With 7 sets, lines 126 and 132 fold to the same set and share
        // `line / sets` = 18: the reference's (set, tag) pair took one
        // for the other. A stored line cannot.
        let config = CacheConfig { capacity_bytes: 7 * 64, line_bytes: 64, assoc: 1, latency: 1 };
        let mut r = Reference::new(config);
        r.access(126, false);
        assert!(r.probe(132), "reference aliases the two lines");
        let mut c = Cache::new(config);
        c.access(126, true);
        assert!(!c.probe(132));
        assert_eq!(c.access(132, false), CacheAccess { hit: false, writeback: Some(126) });
    }

    fn tiny() -> Cache {
        Cache::new(CacheConfig { capacity_bytes: 512, line_bytes: 64, assoc: 2, latency: 1 })
    }

    #[test]
    fn geometry() {
        let c = CacheConfig::gpu_l2();
        assert_eq!(c.lines(), 65536);
        assert_eq!(c.sets(), 4096);
        assert_eq!(CacheConfig::gpu_l1d().sets(), 64);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(42, false).hit);
        assert!(c.access(42, false).hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_within_set() {
        let mut c = tiny(); // 4 sets, 2-way: lines 0,4,8 share set 0
        c.access(0, false);
        c.access(4, false);
        c.access(0, false); // 4 is now LRU
        c.access(8, false); // evicts 4
        assert!(c.probe(0));
        assert!(!c.probe(4));
        assert!(c.probe(8));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.access(0, true); // dirty
        c.access(4, false);
        let res = c.access(8, false); // evicts line 0 (dirty)
        assert_eq!(res.writeback, Some(0));
        assert_eq!(c.writebacks(), 1);
    }

    #[test]
    fn clean_eviction_no_writeback() {
        let mut c = tiny();
        c.access(0, false);
        c.access(4, false);
        let res = c.access(8, false);
        assert_eq!(res.writeback, None);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.access(0, false);
        c.access(0, true); // hit, now dirty
        c.access(4, false);
        let res = c.access(8, false);
        assert_eq!(res.writeback, Some(0));
    }

    #[test]
    fn writeback_reconstructs_correct_line_index() {
        let mut c = tiny(); // 4 sets
        c.access(5, true); // set 1, tag 1
        c.access(9, false); // set 1, tag 2
        let res = c.access(13, false); // set 1, tag 3: evicts 5
        assert_eq!(res.writeback, Some(5));
    }

    #[test]
    fn invalidate_and_flush() {
        let mut c = tiny();
        c.access(1, false);
        c.access(2, false);
        assert!(c.invalidate(1));
        assert!(!c.invalidate(1));
        assert_eq!(c.len(), 1);
        c.flush();
        assert!(c.is_empty());
    }
}
