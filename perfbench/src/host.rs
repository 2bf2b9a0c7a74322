//! Host-side measurements of this process: CPU time, peak resident
//! memory, and a cheap cycle-accurate clock for per-op replay timing.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by every thread of this process, in seconds, with
/// nanosecond resolution (procfs ticks would quantize to 10 ms).
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process so far, in MB (the kernel's
/// `VmHWM` high-water mark, kB resolution).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A timestamp counter for timing single operations: the TSC on
/// x86-64 (a few ns per read), a monotonic clock elsewhere.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub fn ticks() -> u64 {
    // SAFETY: `rdtsc` has no preconditions on x86-64.
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// A timestamp counter for timing single operations: the TSC on
/// x86-64 (a few ns per read), a monotonic clock elsewhere.
#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
pub fn ticks() -> u64 {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Converts [`ticks`] to nanoseconds and removes the cost of reading
/// the counter itself from each timed operation.
#[derive(Debug, Clone, Copy)]
pub struct TickScale {
    /// Nanoseconds per tick.
    pub ns_per_tick: f64,
    /// Ticks an empty timed region costs (subtracted per operation).
    pub overhead_ticks: f64,
}

impl TickScale {
    /// Calibrates against the monotonic clock over ~20 ms.
    pub fn calibrate() -> Self {
        let (t0, c0) = (Instant::now(), ticks());
        while t0.elapsed().as_millis() < 20 {
            std::hint::spin_loop();
        }
        let (ns, c) = (t0.elapsed().as_nanos() as f64, ticks() - c0);
        let n = 100_000u64;
        let mut empty = 0u64;
        for _ in 0..n {
            let a = ticks();
            empty += ticks() - a;
        }
        Self {
            ns_per_tick: ns / c.max(1) as f64,
            overhead_ticks: empty as f64 / n as f64,
        }
    }

    /// Nanoseconds spent in `ops` operations whose timed regions summed
    /// to `total_ticks`, net of the counter overhead.
    pub fn net_ns(&self, total_ticks: u64, ops: u64) -> f64 {
        ((total_ticks as f64 - self.overhead_ticks * ops as f64) * self.ns_per_tick).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let a = process_cpu_s();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(process_cpu_s() > a);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn tick_scale_is_sane() {
        let s = TickScale::calibrate();
        assert!(s.ns_per_tick > 0.0 && s.ns_per_tick < 100.0, "{s:?}");
        assert_eq!(s.net_ns(0, 10), 0.0, "never negative");
    }
}
