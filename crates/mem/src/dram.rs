//! DDR3-1600 DRAM timing model.
//!
//! Table 1: DDR3-1600 (800 MHz bus), 2 channels, 2 ranks per channel,
//! 16 banks per rank, with the GPU core at 2 GHz. The model tracks
//! per-bank row-buffer state and ready times, a per-channel data bus,
//! and open-page row-buffer policy; latencies are expressed in GPU
//! cycles (1 DRAM cycle = 2.5 GPU cycles).

use gtr_sim::divisor::Divisor;
use gtr_sim::resource::Timeline;
use gtr_sim::Cycle;

use crate::energy::EnergyCounters;

/// DRAM organization and timing (all latencies in GPU cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Independent channels.
    pub channels: usize,
    /// Ranks per channel.
    pub ranks: usize,
    /// Banks per rank.
    pub banks: usize,
    /// Lines (64 B) per row buffer — DDR3 2 KB rows hold 32 lines.
    pub lines_per_row: u64,
    /// Activate (tRCD) latency.
    pub t_rcd: Cycle,
    /// Precharge (tRP) latency.
    pub t_rp: Cycle,
    /// Column access (CAS) latency.
    pub t_cas: Cycle,
    /// Data-burst occupancy of the channel bus per 64-byte line.
    pub t_burst: Cycle,
    /// Fixed controller/queueing overhead per request.
    pub t_controller: Cycle,
}

impl Default for DramConfig {
    /// DDR3-1600 per Table 1, converted at 2.5 GPU cycles per DRAM
    /// cycle (11-11-11 timing).
    fn default() -> Self {
        Self {
            channels: 2,
            ranks: 2,
            banks: 16,
            lines_per_row: 32,
            t_rcd: 28,
            t_rp: 28,
            t_cas: 28,
            t_burst: 10,
            t_controller: 20,
        }
    }
}

impl DramConfig {
    /// Total banks across the device.
    pub fn total_banks(&self) -> usize {
        self.channels * self.ranks * self.banks
    }
}

#[derive(Debug, Clone, Default)]
struct Bank {
    open_row: Option<u64>,
    timeline: Timeline,
}

/// Classification of one DRAM access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOutcome {
    /// Row buffer hit: CAS only.
    Hit,
    /// Bank had no open row: ACT + CAS.
    Empty,
    /// Conflict: PRE + ACT + CAS.
    Conflict,
}

/// The DRAM device: banks, buses, counters.
///
/// # Example
///
/// ```
/// use gtr_mem::dram::{Dram, DramConfig};
/// let mut d = Dram::new(DramConfig::default());
/// let first = d.read(0, 0);   // row empty: ACT + CAS
/// let again = d.read(first, 1); // same row: CAS only
/// assert!(again - first < first);
/// ```
#[derive(Debug, Clone)]
pub struct Dram {
    config: DramConfig,
    /// [`Self::map`]'s divisors: channels, lines per row, banks per
    /// channel.
    channels: Divisor,
    lines_per_row: Divisor,
    banks_per_ch: Divisor,
    banks: Vec<Bank>,
    bus: Vec<Timeline>,
    energy: EnergyCounters,
    reads: u64,
    writes: u64,
    row_hits: u64,
    row_conflicts: u64,
    last_cycle: Cycle,
}

impl Dram {
    /// Creates an idle DRAM device.
    pub fn new(config: DramConfig) -> Self {
        Self {
            banks: vec![Bank::default(); config.total_banks()],
            bus: vec![Timeline::new(); config.channels],
            channels: Divisor::new(config.channels as u64),
            lines_per_row: Divisor::new(config.lines_per_row),
            banks_per_ch: Divisor::new((config.ranks * config.banks) as u64),
            config,
            energy: EnergyCounters::default(),
            reads: 0,
            writes: 0,
            row_hits: 0,
            row_conflicts: 0,
            last_cycle: 0,
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Maps a line index to `(channel, global bank index, row)`.
    ///
    /// Channels interleave on the lowest line bit; whole row-buffers
    /// (32 lines) then interleave across banks with the row bits XORed
    /// into the bank index (permutation-based page interleaving, Zhang
    /// et al. MICRO'00). The XOR prevents structures with
    /// power-of-two-aligned hot lines — page-table nodes above all —
    /// from aliasing onto a single bank and serializing the machine.
    pub fn map(&self, line: u64) -> (usize, usize, u64) {
        let ch = self.channels.rem(line) as usize;
        let chunk = self.lines_per_row.div(self.channels.div(line));
        let row = self.banks_per_ch.div(chunk);
        let bank_in_ch = self.banks_per_ch.rem(chunk ^ row) as usize;
        (ch, ch * self.banks_per_ch.get() as usize + bank_in_ch, row)
    }

    fn access(&mut self, now: Cycle, line: u64, is_write: bool) -> (Cycle, RowOutcome) {
        let (ch, bank_idx, row) = self.map(line);
        let cfg = self.config;
        let bank = &mut self.banks[bank_idx];
        // Note: with gap-filling reservation the row-buffer outcome is
        // classified by request-processing order, a deliberate
        // approximation that keeps out-of-order arrivals from blocking
        // earlier traffic (see `gtr_sim::resource::Timeline`).
        let (array_cycles, outcome) = match bank.open_row {
            Some(open) if open == row => (cfg.t_cas, RowOutcome::Hit),
            Some(_) => (cfg.t_rp + cfg.t_rcd + cfg.t_cas, RowOutcome::Conflict),
            None => (cfg.t_rcd + cfg.t_cas, RowOutcome::Empty),
        };
        bank.open_row = Some(row);
        let start = bank.timeline.reserve(now + cfg.t_controller, array_cycles);
        let array_done = start + array_cycles;
        // Data burst on the channel bus.
        let bus_start = self.bus[ch].reserve(array_done, cfg.t_burst);
        let done = bus_start + cfg.t_burst;
        // Bookkeeping.
        match outcome {
            RowOutcome::Hit => self.row_hits += 1,
            RowOutcome::Conflict => {
                self.row_conflicts += 1;
                self.energy.precharges += 1;
                self.energy.activates += 1;
            }
            RowOutcome::Empty => self.energy.activates += 1,
        }
        if is_write {
            self.writes += 1;
            self.energy.writes += 1;
        } else {
            self.reads += 1;
            self.energy.reads += 1;
        }
        self.last_cycle = self.last_cycle.max(done);
        (done, outcome)
    }

    /// Reads the line containing `addr` (byte address); returns the
    /// completion cycle.
    pub fn read(&mut self, now: Cycle, addr: u64) -> Cycle {
        self.access(now, addr / 64, false).0
    }

    /// Writes the line containing `addr`; returns the completion cycle.
    pub fn write(&mut self, now: Cycle, addr: u64) -> Cycle {
        self.access(now, addr / 64, true).0
    }

    /// Reads a line by line index, also reporting the row outcome.
    pub fn read_line(&mut self, now: Cycle, line: u64) -> (Cycle, RowOutcome) {
        self.access(now, line, false)
    }

    /// Writes a line by line index, also reporting the row outcome.
    pub fn write_line(&mut self, now: Cycle, line: u64) -> (Cycle, RowOutcome) {
        self.access(now, line, true)
    }

    /// Total reads serviced.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Total writes serviced.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Row-buffer hit count.
    pub fn row_hits(&self) -> u64 {
        self.row_hits
    }

    /// Row-buffer conflict count.
    pub fn row_conflicts(&self) -> u64 {
        self.row_conflicts
    }

    /// Row-buffer hit rate over all accesses.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.reads + self.writes;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Energy-relevant event counters.
    pub fn energy_counters(&self) -> &EnergyCounters {
        &self.energy
    }

    /// Latest completion cycle observed (for background energy).
    pub fn last_cycle(&self) -> Cycle {
        self.last_cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_hit_faster_than_conflict() {
        let mut d = Dram::new(DramConfig::default());
        let (t1, o1) = d.read_line(0, 0);
        assert_eq!(o1, RowOutcome::Empty);
        let (t2, o2) = d.read_line(t1, 0); // same line, same row
        assert_eq!(o2, RowOutcome::Hit);
        // conflict: same bank, different row (search via the mapping)
        let (_, bank0, row0) = d.map(0);
        let far = (1..1_000_000u64)
            .find(|&l| {
                let (_, b, r) = d.map(l);
                b == bank0 && r != row0
            })
            .expect("a conflicting line exists");
        let (_, o3) = d.read_line(t2, far);
        assert_eq!(o3, RowOutcome::Conflict);
        let hit_cost = t2 - t1;
        let cfg = *d.config();
        assert_eq!(hit_cost, cfg.t_controller + cfg.t_cas + cfg.t_burst);
    }

    #[test]
    fn banks_operate_in_parallel() {
        let mut d = Dram::new(DramConfig::default());
        // Two accesses to different channels at cycle 0 complete at the
        // same time.
        let (ta, _) = d.read_line(0, 0);
        let (tb, _) = d.read_line(0, 1);
        assert_eq!(ta, tb);
    }

    #[test]
    fn same_bank_serializes() {
        let mut d = Dram::new(DramConfig::default());
        let (ta, _) = d.read_line(0, 0);
        // Same channel+bank, different row => waits for bank ready.
        let (_, bank0, row0) = d.map(0);
        let far = (1..1_000_000u64)
            .find(|&l| {
                let (_, b, r) = d.map(l);
                b == bank0 && r != row0
            })
            .expect("a conflicting line exists");
        let (tb, o) = d.read_line(0, far);
        assert_eq!(o, RowOutcome::Conflict);
        assert!(tb > ta);
    }

    #[test]
    fn mapping_is_stable_and_in_range() {
        let d = Dram::new(DramConfig::default());
        for line in 0..10_000u64 {
            let (ch, bank, _row) = d.map(line);
            assert!(ch < d.config().channels);
            assert!(bank < d.config().total_banks());
            assert_eq!(d.map(line), d.map(line));
        }
    }

    #[test]
    fn energy_counters_track_events() {
        let mut d = Dram::new(DramConfig::default());
        d.read(0, 0);
        d.write(0, 64);
        let e = d.energy_counters();
        assert_eq!(e.reads, 1);
        assert_eq!(e.writes, 1);
        assert!(e.activates >= 1);
    }

    #[test]
    fn streaming_gets_row_hits() {
        let mut d = Dram::new(DramConfig::default());
        let mut t = 0;
        for line in 0..256 {
            t = d.read_line(t, line).0;
        }
        assert!(d.row_hit_rate() > 0.5, "streaming should hit rows: {}", d.row_hit_rate());
    }
}
