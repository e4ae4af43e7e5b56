//! The workspace's one PRNG (splitmix64).
//!
//! The workspace builds fully offline, so instead of pulling in `rand` the
//! program generator, the interpreter's schedules, the fuzz and chaos
//! harnesses, the property tests and the router's hash ring all share this
//! splitmix64 implementation. It is *not* cryptographic — it only needs to
//! be fast, well-distributed, and bit-for-bit reproducible from a `u64`
//! seed on every platform.
//!
//! Sequences are stable: changing the output for a given seed invalidates
//! recorded schedules (see `mpi_dfa_lang::fault`), so treat the stream as
//! a compatibility surface.

/// The stream's increment: each step adds it to the state, then finalizes.
pub const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Splitmix64 stream. `Clone` copies the full state, so forked generators
/// replay identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seed the stream. Every distinct seed yields an independent-looking
    /// sequence; seed 0 is fine.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Derive a decorrelated child stream (e.g. one per rank) from this
    /// stream's seed and a stream index.
    pub fn fork(seed: u64, stream: u64) -> Self {
        let mut base = SplitMix64::new(seed ^ stream.wrapping_mul(GAMMA));
        // Burn one output so `fork(s, 0)` differs from `new(s)`.
        base.next_u64();
        base
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`. `n = 0` returns 0.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        // Multiply-shift range reduction (Lemire); bias is negligible for
        // the small ranges used here and determinism is what matters.
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[lo, hi)`; requires `lo < hi`.
    #[inline]
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// Uniform in `[lo, hi)` over `i64`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below((hi - lo) as usize) as i64
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Pick one element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(7);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(7);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = SplitMix64::new(8);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn fork_streams_differ() {
        let mut a = SplitMix64::fork(1, 0);
        let mut b = SplitMix64::fork(1, 1);
        let mut c = SplitMix64::new(1);
        let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_ne!(x, y);
        assert_ne!(x, z);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = SplitMix64::new(42);
        for _ in 0..10_000 {
            let v = r.range(3, 9);
            assert!((3..9).contains(&v));
            let w = r.range_i64(-4, 5);
            assert!((-4..5).contains(&w));
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
        assert_eq!(r.below(0), 0);
    }

    #[test]
    fn below_covers_every_residue() {
        let mut r = SplitMix64::new(3);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            seen[r.below(7)] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SplitMix64::new(9);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2_000..4_000).contains(&hits), "{hits}");
    }
}
