//! Contention models: multi-unit servers, tracked ports, pipelines.
//!
//! These are the building blocks of the resource-reservation timing
//! model. A request never "occupies" a component via callbacks;
//! instead the component records when each of its internal units next
//! becomes free and answers scheduling queries in amortized
//! `O(log units)`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::stats::Sampler;
use crate::Cycle;

/// A component with `units` identical service units and an implicit
/// unbounded FIFO queue (e.g. a pool of page-table walkers, DMA
/// engines, or TLB ports).
///
/// # Example
///
/// ```
/// use gtr_sim::resource::Server;
/// let mut walkers = Server::new(32);
/// let done = walkers.acquire(1_000, 500);
/// assert_eq!(done, 1_500);
/// ```
#[derive(Debug, Clone)]
pub struct Server {
    free_at: BinaryHeap<Reverse<Cycle>>,
    units: usize,
    busy_cycles: u64,
    requests: u64,
}

impl Server {
    /// Creates a server with `units` parallel service units.
    ///
    /// # Panics
    ///
    /// Panics if `units == 0`.
    pub fn new(units: usize) -> Self {
        assert!(units > 0, "a server needs at least one unit");
        let mut free_at = BinaryHeap::with_capacity(units);
        for _ in 0..units {
            free_at.push(Reverse(0));
        }
        Self { free_at, units, busy_cycles: 0, requests: 0 }
    }

    /// Reserves one unit for `service` cycles for a request arriving at
    /// `now`; returns the completion cycle (`start + service` where
    /// `start = max(now, earliest unit free time)`).
    pub fn acquire(&mut self, now: Cycle, service: Cycle) -> Cycle {
        let Reverse(free) = self.free_at.pop().expect("server always has units");
        let start = now.max(free);
        let done = start + service;
        self.free_at.push(Reverse(done));
        self.busy_cycles += service;
        self.requests += 1;
        done
    }

    /// Earliest cycle at which some unit is free.
    pub fn earliest_free(&self) -> Cycle {
        self.free_at.peek().map(|Reverse(c)| *c).unwrap_or(0)
    }

    /// Number of parallel units.
    pub fn units(&self) -> usize {
        self.units
    }

    /// Total busy cycles accumulated across all units.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Total requests serviced.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Resets unit availability and counters (used at kernel
    /// boundaries when components are drained).
    pub fn reset(&mut self) {
        self.free_at.clear();
        for _ in 0..self.units {
            self.free_at.push(Reverse(0));
        }
        self.busy_cycles = 0;
        self.requests = 0;
    }
}

/// A single port that additionally records the distribution of idle
/// gaps between consecutive accesses — exactly the measurement behind
/// Figures 4b and 5b of the paper ("idle cycles at each LDS/I-cache
/// port").
///
/// Reservations are gap-filling ([`Timeline`]): a request arriving
/// slightly later in processing order but earlier in simulated time
/// slots into idle cycles instead of queueing behind a future
/// reservation.
#[derive(Debug, Clone)]
pub struct TrackedPort {
    timeline: Timeline,
    busy_end: Cycle,
    any_access: bool,
    idle_gaps: Sampler,
    accesses: u64,
}

impl TrackedPort {
    /// Creates an idle port.
    pub fn new() -> Self {
        Self {
            timeline: Timeline::new(),
            busy_end: 0,
            any_access: false,
            idle_gaps: Sampler::new(),
            accesses: 0,
        }
    }

    /// Accesses the port at `now` for `service` cycles, returning the
    /// completion cycle and recording the idle gap since the previous
    /// access.
    pub fn access(&mut self, now: Cycle, service: Cycle) -> Cycle {
        let start = self.timeline.reserve(now, service);
        if self.any_access {
            self.idle_gaps.record(start.saturating_sub(self.busy_end) as f64);
        }
        self.any_access = true;
        self.busy_end = self.busy_end.max(start + service);
        self.accesses += 1;
        start + service
    }

    /// Distribution of idle gaps observed between consecutive accesses.
    pub fn idle_gaps(&self) -> &Sampler {
        &self.idle_gaps
    }

    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Latest end of any reservation made so far.
    pub fn free_at(&self) -> Cycle {
        self.busy_end
    }
}

impl Default for TrackedPort {
    fn default() -> Self {
        Self::new()
    }
}

/// A fully pipelined unit: a new request may start every
/// `initiation_interval` cycles and completes `latency` cycles after it
/// starts (e.g. a SIMD issue slot: one 64-wide wave instruction issues
/// over 4 cycles on a 16-lane SIMD).
#[derive(Debug, Clone)]
pub struct Pipeline {
    next_issue: Cycle,
    initiation_interval: Cycle,
    latency: Cycle,
    issued: u64,
}

impl Pipeline {
    /// Creates a pipeline with the given initiation interval and
    /// start-to-finish latency.
    pub fn new(initiation_interval: Cycle, latency: Cycle) -> Self {
        Self { next_issue: 0, initiation_interval, latency, issued: 0 }
    }

    /// Issues a request arriving at `now`; returns its completion time.
    pub fn issue(&mut self, now: Cycle) -> Cycle {
        let start = now.max(self.next_issue);
        self.next_issue = start + self.initiation_interval;
        self.issued += 1;
        start + self.latency
    }

    /// Total requests issued.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Start-to-finish latency of one request.
    pub fn latency(&self) -> Cycle {
        self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_single_unit_serializes() {
        let mut s = Server::new(1);
        assert_eq!(s.acquire(0, 10), 10);
        assert_eq!(s.acquire(0, 10), 20);
        assert_eq!(s.acquire(100, 10), 110);
        assert_eq!(s.requests(), 3);
        assert_eq!(s.busy_cycles(), 30);
    }

    #[test]
    fn server_multi_unit_parallelism() {
        let mut s = Server::new(3);
        assert_eq!(s.acquire(0, 50), 50);
        assert_eq!(s.acquire(0, 50), 50);
        assert_eq!(s.acquire(0, 50), 50);
        // fourth request queues behind whichever unit frees first
        assert_eq!(s.acquire(0, 50), 100);
    }

    #[test]
    fn server_idle_gap_no_penalty() {
        let mut s = Server::new(1);
        s.acquire(0, 10);
        // long idle period; arrival dominates
        assert_eq!(s.acquire(1_000, 5), 1_005);
    }

    #[test]
    fn server_reset_restores_availability() {
        let mut s = Server::new(2);
        s.acquire(0, 1_000);
        s.reset();
        assert_eq!(s.acquire(0, 1), 1);
        assert_eq!(s.requests(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn server_zero_units_panics() {
        let _ = Server::new(0);
    }

    #[test]
    fn tracked_port_records_idle_gaps() {
        let mut p = TrackedPort::new();
        p.access(0, 4); // busy [0,4)
        p.access(20, 4); // idle gap 20-4 = 16
        p.access(24, 4); // back-to-back: gap 0
        let s = p.idle_gaps();
        assert_eq!(s.count(), 2);
        assert_eq!(s.max(), 16.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(p.accesses(), 3);
    }

    #[test]
    fn tracked_port_busy_pushback() {
        let mut p = TrackedPort::new();
        assert_eq!(p.access(0, 10), 10);
        // arrives while busy: starts at 10
        assert_eq!(p.access(5, 10), 20);
    }

    #[test]
    fn pipeline_initiation_interval() {
        let mut pl = Pipeline::new(4, 40);
        assert_eq!(pl.issue(0), 40);
        assert_eq!(pl.issue(0), 44); // starts at 4
        assert_eq!(pl.issue(100), 140);
        assert_eq!(pl.issued(), 3);
    }
}

/// A gap-filling busy-interval timeline for one service unit.
///
/// Unlike [`Server`], whose units only track "next free time" and
/// therefore let a reservation made *for the far future* block
/// requests that arrive later in processing order but earlier in
/// simulated time, `Timeline` keeps the set of future busy intervals
/// and places each request in the earliest gap at or after its arrival
/// — so out-of-time-order reservations (e.g. page-walker PTE reads
/// scheduled at a queued walker's future start time) cannot starve
/// earlier traffic.
///
/// Intervals that end more than [`Timeline::PRUNE_MARGIN`] before the
/// latest arrival are dropped from the front (amortized O(1));
/// arrival-time skew in this workspace is far below that margin.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Sorted, disjoint busy intervals `(start, end)`.
    busy: std::collections::VecDeque<(Cycle, Cycle)>,
    max_arrival: Cycle,
}

impl Timeline {
    /// How far behind the newest arrival an interval may end before it
    /// is pruned.
    pub const PRUNE_MARGIN: Cycle = 1_000_000;

    /// How many intervals [`Self::reserve`] steps back from the newest
    /// one before it bisects the whole list.
    const TAIL_SCAN: usize = 8;

    /// Creates an idle timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves `service` cycles at the earliest gap at or after `at`;
    /// returns the start cycle of the reservation.
    pub fn reserve(&mut self, at: Cycle, service: Cycle) -> Cycle {
        self.max_arrival = self.max_arrival.max(at);
        let horizon = self.max_arrival.saturating_sub(Self::PRUNE_MARGIN);
        while let Some(&(_, e)) = self.busy.front() {
            if e <= horizon {
                self.busy.pop_front();
            } else {
                break;
            }
        }
        if service == 0 {
            return at;
        }
        let mut i = self.first_live(at);
        let mut cursor = at;
        while i < self.busy.len() {
            let (s, e) = self.busy[i];
            if s >= cursor + service {
                break;
            }
            cursor = cursor.max(e);
            i += 1;
        }
        let start = cursor;
        let end = start + service;
        // Merge with neighbors where contiguous.
        let merge_prev = i > 0 && self.busy[i - 1].1 == start;
        let merge_next = i < self.busy.len() && self.busy[i].0 == end;
        match (merge_prev, merge_next) {
            (true, true) => {
                self.busy[i - 1].1 = self.busy[i].1;
                self.busy.remove(i);
            }
            (true, false) => self.busy[i - 1].1 = end,
            (false, true) => self.busy[i].0 = start,
            (false, false) => self.busy.insert(i, (start, end)),
        }
        start
    }

    /// Index of the first interval ending after `at` — the first that
    /// could interact with an arrival at `at`. Arrivals land almost
    /// always within an interval or two of the newest one, so this
    /// steps back from the tail and bisects only after
    /// [`Self::TAIL_SCAN`] steps. Ends are strictly increasing, so
    /// both searches return the same index.
    #[inline]
    fn first_live(&self, at: Cycle) -> usize {
        let n = self.busy.len();
        let scan_from = n.saturating_sub(Self::TAIL_SCAN);
        match (scan_from..n).rev().find(|&i| self.busy[i].1 <= at) {
            Some(i) => i + 1,
            None if scan_from == 0 => 0,
            None => self.busy.partition_point(|&(_, e)| e <= at),
        }
    }

    /// Number of tracked future intervals (diagnostics).
    pub fn interval_count(&self) -> usize {
        self.busy.len()
    }
}

#[cfg(test)]
mod timeline_tests {
    use super::*;
    use crate::rng::SplitMix64;
    use std::collections::VecDeque;

    /// `Timeline::reserve` with the whole-list bisection it used before
    /// the tail-anchored search, kept as the property tests' reference.
    #[derive(Default)]
    struct Reference {
        busy: VecDeque<(Cycle, Cycle)>,
        max_arrival: Cycle,
    }

    impl Reference {
        fn reserve(&mut self, at: Cycle, service: Cycle) -> Cycle {
            self.max_arrival = self.max_arrival.max(at);
            let horizon = self.max_arrival.saturating_sub(Timeline::PRUNE_MARGIN);
            while self.busy.front().is_some_and(|&(_, e)| e <= horizon) {
                self.busy.pop_front();
            }
            if service == 0 {
                return at;
            }
            let mut i = self.busy.partition_point(|&(_, e)| e <= at);
            let mut cursor = at;
            while i < self.busy.len() {
                let (s, e) = self.busy[i];
                if s >= cursor + service {
                    break;
                }
                cursor = cursor.max(e);
                i += 1;
            }
            let start = cursor;
            let end = start + service;
            let merge_prev = i > 0 && self.busy[i - 1].1 == start;
            let merge_next = i < self.busy.len() && self.busy[i].0 == end;
            match (merge_prev, merge_next) {
                (true, true) => {
                    self.busy[i - 1].1 = self.busy[i].1;
                    self.busy.remove(i);
                }
                (true, false) => self.busy[i - 1].1 = end,
                (false, true) => self.busy[i].0 = start,
                (false, false) => self.busy.insert(i, (start, end)),
            }
            start
        }
    }

    #[test]
    fn tail_anchored_search_matches_bisection() {
        let mut deep = 0; // arrivals whose first live interval lies past the tail scan
        for seed in 0..8 {
            let mut rng = SplitMix64::new(0x71E1 + seed);
            let mut t = Timeline::new();
            let mut r = Reference::default();
            let mut newest: Cycle = 0;
            for step in 0..20_000 {
                let at = match rng.next_below(8) {
                    // A rare jump far ahead exercises pruning.
                    0 if step % 500 == 0 => newest + Timeline::PRUNE_MARGIN / 2,
                    0..=2 => newest + rng.next_below(64),
                    3..=5 => newest.saturating_sub(rng.next_below(64)),
                    6 => newest.saturating_sub(rng.next_below(50_000)),
                    _ => newest.saturating_sub(rng.next_below(2 * Timeline::PRUNE_MARGIN)),
                };
                let service = match rng.next_below(4) {
                    0 => 0,
                    1 => 1,
                    _ => 1 + rng.next_below(40),
                };
                let live = r.busy.partition_point(|&(_, e)| e <= at);
                if r.busy.len() - live > Timeline::TAIL_SCAN {
                    deep += 1;
                }
                assert_eq!(t.reserve(at, service), r.reserve(at, service), "seed {seed} step {step}");
                assert_eq!(t.busy, r.busy, "seed {seed} step {step}");
                newest = newest.max(at);
            }
        }
        assert!(deep > 1_000, "only {deep} arrivals reached the bisection fallback");
    }

    #[test]
    fn back_to_back_reservations_merge() {
        let mut t = Timeline::new();
        assert_eq!(t.reserve(0, 10), 0);
        assert_eq!(t.reserve(0, 10), 10);
        assert_eq!(t.reserve(0, 10), 20);
        assert_eq!(t.interval_count(), 1);
    }

    #[test]
    fn earlier_request_fills_gap_before_future_reservation() {
        let mut t = Timeline::new();
        // A far-future reservation (e.g. a queued page walker).
        assert_eq!(t.reserve(100_000, 50), 100_000);
        // An earlier request must not wait behind it.
        assert_eq!(t.reserve(10, 50), 10);
        assert_eq!(t.interval_count(), 2);
    }

    #[test]
    fn gap_too_small_skips_to_next() {
        let mut t = Timeline::new();
        t.reserve(0, 10); // [0,10)
        t.reserve(15, 10); // [15,25)
        // Gap [10,15) is too small for 10 cycles: lands at 25.
        assert_eq!(t.reserve(0, 10), 25);
    }

    #[test]
    fn exact_fit_in_gap() {
        let mut t = Timeline::new();
        t.reserve(0, 10); // [0,10)
        t.reserve(20, 10); // [20,30)
        assert_eq!(t.reserve(5, 10), 10); // fills [10,20) exactly
        assert_eq!(t.interval_count(), 1, "all three merged");
    }

    #[test]
    fn zero_service_is_free() {
        let mut t = Timeline::new();
        t.reserve(0, 100);
        assert_eq!(t.reserve(50, 0), 50);
    }

    #[test]
    fn pruning_bounds_interval_list() {
        let mut t = Timeline::new();
        for i in 0..100_000u64 {
            t.reserve(i * 200, 10);
        }
        assert!(t.interval_count() <= 5_001, "old intervals pruned");
    }

    #[test]
    fn overlapping_future_and_past_requests() {
        let mut t = Timeline::new();
        let far = t.reserve(50_000, 100);
        assert_eq!(far, 50_000);
        // Many earlier requests pack densely without touching it.
        let mut prev = 0;
        for _ in 0..10 {
            let s = t.reserve(0, 100);
            assert!(s >= prev);
            prev = s;
        }
        assert!(prev + 100 <= 50_000 || prev >= 50_100);
    }
}
