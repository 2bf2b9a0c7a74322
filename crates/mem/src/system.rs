//! The shared back end of the memory hierarchy: GPU L2 data cache +
//! DRAM. Every request below the per-CU L1s — data misses, instruction
//! misses, and IOMMU page-table reads — funnels through here.

use gtr_sim::divisor::Divisor;
use gtr_sim::Cycle;

use crate::cache::{Cache, CacheConfig};
use crate::dram::{Dram, DramConfig};
use crate::energy::{EnergyCounters, EnergyModel};

/// Configuration for [`MemorySystem`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemorySystemConfig {
    /// L2 data cache geometry (Table 1: 4 MB, 16-way).
    pub l2: CacheConfig,
    /// DRAM organization and timing.
    pub dram: DramConfig,
    /// Energy model for Figure 13c.
    pub energy: EnergyModel,
}

impl Default for MemorySystemConfig {
    fn default() -> Self {
        Self { l2: CacheConfig::gpu_l2(), dram: DramConfig::default(), energy: EnergyModel::default() }
    }
}

/// L2 data cache backed by DRAM.
///
/// # Example
///
/// ```
/// use gtr_mem::system::{MemorySystem, MemorySystemConfig};
/// let mut mem = MemorySystem::new(MemorySystemConfig::default());
/// let t1 = mem.read(0, 4096);
/// let t2 = mem.read(t1, 4096);
/// assert!(t2 - t1 < t1, "second access hits in L2");
/// ```
#[derive(Debug, Clone)]
pub struct MemorySystem {
    l2: Cache,
    /// The L2's line size, dividing byte addresses into line indices.
    line_bytes: Divisor,
    dram: Dram,
    energy_model: EnergyModel,
}

impl MemorySystem {
    /// Creates a cold memory system.
    pub fn new(config: MemorySystemConfig) -> Self {
        Self {
            l2: Cache::new(config.l2),
            line_bytes: Divisor::new(config.l2.line_bytes),
            dram: Dram::new(config.dram),
            energy_model: config.energy,
        }
    }

    fn access(&mut self, now: Cycle, addr: u64, is_write: bool) -> Cycle {
        let line = self.line_bytes.div(addr);
        let t = now + self.l2.latency();
        let res = self.l2.access(line, is_write);
        if res.hit {
            return t;
        }
        if let Some(victim) = res.writeback {
            // Writeback drains in the background; it occupies DRAM but
            // does not delay this request's critical path.
            let _ = self.dram.write_line(t, victim);
        }
        self.dram.read_line(t, line).0
    }

    /// Reads the line containing byte address `addr`.
    pub fn read(&mut self, now: Cycle, addr: u64) -> Cycle {
        self.access(now, addr, false)
    }

    /// Writes the line containing byte address `addr`.
    pub fn write(&mut self, now: Cycle, addr: u64) -> Cycle {
        self.access(now, addr, true)
    }

    /// The L2 data cache.
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// Mutable access to the L2 (DUCATI steals capacity here).
    pub fn l2_mut(&mut self) -> &mut Cache {
        &mut self.l2
    }

    /// The DRAM device.
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// Mutable access to DRAM (DUCATI's part-of-memory TLB reads it
    /// directly).
    pub fn dram_mut(&mut self) -> &mut Dram {
        &mut self.dram
    }

    /// Total DRAM energy in nanojoules given total elapsed `cycles`.
    pub fn dram_energy_nj(&self, cycles: u64) -> f64 {
        self.energy_model.total_nj(self.dram.energy_counters(), cycles)
    }

    /// Raw DRAM energy counters.
    pub fn dram_energy_counters(&self) -> &EnergyCounters {
        self.dram.energy_counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_hit_is_cheap() {
        let mut m = MemorySystem::new(MemorySystemConfig::default());
        let cold = m.read(0, 0x8000);
        let warm_done = m.read(cold, 0x8000);
        assert_eq!(warm_done - cold, m.l2().latency());
    }

    #[test]
    fn miss_goes_to_dram() {
        let mut m = MemorySystem::new(MemorySystemConfig::default());
        let before = m.dram().reads();
        m.read(0, 0x10_000);
        assert_eq!(m.dram().reads(), before + 1);
    }

    #[test]
    fn dirty_victims_write_back_to_dram() {
        let cfg = MemorySystemConfig {
            l2: CacheConfig { capacity_bytes: 128, line_bytes: 64, assoc: 1, latency: 2 },
            ..Default::default()
        };
        let mut m = MemorySystem::new(cfg);
        let t = m.write(0, 0); // line 0, set 0, dirty
        let t = m.read(t, 128); // line 2, set 0: evicts dirty line 0
        let _ = t;
        assert_eq!(m.dram().writes(), 1);
    }

    #[test]
    fn energy_grows_with_traffic() {
        let mut m = MemorySystem::new(MemorySystemConfig::default());
        let e0 = m.dram_energy_nj(0);
        let mut t = 0;
        for i in 0..100u64 {
            t = m.read(t, i * 4096);
        }
        assert!(m.dram_energy_nj(0) > e0);
    }
}
