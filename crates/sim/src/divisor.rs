//! Exact division by a run-time invariant divisor.
//!
//! Every simulated access to a cache, TLB, DRAM map or victim store
//! computes its set, bank, group or tag by dividing by a geometry that
//! is fixed when the structure is built. A 64-bit hardware `div` costs
//! tens of cycles; a [`Divisor`] precomputed once per structure answers
//! the same quotient with one multiply-high and two shifts, and a power
//! of two with one shift or mask. The result is exact for every `u64`
//! numerator, so swapping one in changes no simulated result.
//!
//! The general path is the round-up multiply-high method of Granlund &
//! Montgomery, "Division by Invariant Integers using Multiplication"
//! (PLDI 1994, Fig 4.1): with `l = ceil(log2 d)` and the 64-bit
//! multiplier `m = floor(2^64 * (2^l - d) / d) + 1`, the quotient is
//! `(t + ((n - t) >> 1)) >> (l - 1)` where `t = mulhi(m, n)`.

/// A divisor fixed at construction, dividing any `u64` exactly.
///
/// A zero divisor constructs, so a structure that may be built with no
/// sets or groups still builds; dividing by it is a logic error (a
/// debug assertion fires, and release builds return the numerator from
/// both [`Divisor::div`] and [`Divisor::rem`]).
///
/// # Example
///
/// ```
/// use gtr_sim::divisor::Divisor;
/// let d = Divisor::new(12);
/// assert_eq!(d.div(100), 8);
/// assert_eq!(d.rem(100), 4);
/// assert_eq!(Divisor::new(64).rem(100), 36); // power of two: a mask
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divisor {
    d: u64,
    /// Granlund–Montgomery multiplier; 0 marks a power of two (and
    /// zero), which divides by shifting alone.
    mul: u64,
    /// `log2 d` for a power of two, `ceil(log2 d) - 1` otherwise.
    shift: u32,
}

impl Divisor {
    /// Precomputes division by `d`.
    pub fn new(d: u64) -> Self {
        if d.is_power_of_two() || d == 0 {
            return Self { d, mul: 0, shift: d.trailing_zeros() % 64 };
        }
        // d >= 3 and not a power of two, so 2 <= l <= 64 and
        // 2^l - d < d: the multiplier fits in 64 bits.
        let l = 64 - (d - 1).leading_zeros();
        let mul = ((((1u128 << l) - u128::from(d)) << 64) / u128::from(d) + 1) as u64;
        Self { d, mul, shift: l - 1 }
    }

    /// The divisor.
    pub fn get(&self) -> u64 {
        self.d
    }

    /// `n / d`.
    #[inline]
    pub fn div(&self, n: u64) -> u64 {
        debug_assert_ne!(self.d, 0, "division by a zero Divisor");
        if self.mul == 0 {
            n >> self.shift
        } else {
            let t = ((u128::from(self.mul) * u128::from(n)) >> 64) as u64;
            (t + ((n - t) >> 1)) >> self.shift
        }
    }

    /// `n % d`.
    #[inline]
    pub fn rem(&self, n: u64) -> u64 {
        if self.mul == 0 {
            debug_assert_ne!(self.d, 0, "division by a zero Divisor");
            n & self.d.wrapping_sub(1)
        } else {
            n - self.div(n) * self.d
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn check(d: u64, n: u64) {
        let x = Divisor::new(d);
        assert_eq!(x.div(n), n / d, "{n} / {d}");
        assert_eq!(x.rem(n), n % d, "{n} % {d}");
    }

    #[test]
    fn matches_hardware_division() {
        let mut rng = SplitMix64::new(0xD1_5150);
        let divisors = (1..=4096u64).chain([1 << 31, u64::from(u32::MAX), 1 << 63, u64::MAX]);
        for d in divisors {
            for n in [0, d - 1, d, d.wrapping_add(1), u64::MAX] {
                check(d, n);
            }
            for _ in 0..64 {
                let n = rng.next_u64();
                check(d, n);
                // Small numerators too: index arithmetic rarely uses
                // all 64 bits.
                check(d, n >> 40);
            }
        }
    }

    #[test]
    fn random_divisors() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..20_000 {
            let d = rng.next_u64() >> rng.next_below(64);
            if d != 0 {
                check(d, rng.next_u64());
            }
        }
    }

    #[test]
    fn zero_divisor_constructs() {
        assert_eq!(Divisor::new(0).get(), 0);
    }
}
