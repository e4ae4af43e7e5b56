//! The host-speed reference that end-to-end timings are scaled by.
//!
//! On a shared machine the same code runs up to ~1.7× slower for stretches
//! of seconds to minutes (README.md shows a trace), and a whole run can land
//! in such a stretch. So the benchmark times a fixed reference kernel
//! between operations and scales each window's timings by
//! [`REF_MS`] / (mean kernel time in that window): the figures read as if
//! the host ran at the speed at which the kernel takes [`REF_MS`]. The
//! kernel lives in this crate and uses only `std`, so no change to the
//! program under test can change it.

use std::time::Instant;

/// The kernel's time on a quiet 2-core VM; the scale of every reported
/// timing.
pub const REF_MS: f64 = 0.55;

/// Op time (ms) between two kernel samples in the in-process workloads.
pub const EVERY_MS: f64 = 10.0;

/// Kernel samples taken around each set-up, and before and after each
/// `serve-mixed` window.
pub const BLOCK: usize = 8;

/// Sizes of the kernel; its working set is ~220 KiB.
const NODES: usize = 2000;
const WORDS: usize = 4;
const SLOTS: usize = 16384;

/// A fixed amount of the kinds of work the analyses do: a bit-vector
/// fixpoint over adjacency lists, hashing into an open-addressed table,
/// and a sort. Its buffers are allocated once, outside the timed part, so
/// samples do not depend on the allocator's state.
struct Kernel {
    succ: Vec<u32>,
    facts: Vec<[u64; WORDS]>,
    table: Vec<u64>,
    keys: Vec<u64>,
}

/// xorshift64 from a fixed seed: the same inputs every call.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

impl Kernel {
    fn new() -> Kernel {
        let mut state = 0x9e37_79b9_7f4a_7c15;
        Kernel {
            succ: (0..3 * NODES)
                .map(|_| (xorshift(&mut state) % NODES as u64) as u32)
                .collect(),
            facts: vec![[0; WORDS]; NODES],
            table: vec![0; SLOTS],
            keys: Vec::with_capacity(SLOTS),
        }
    }

    fn run(&mut self) -> u64 {
        for (i, f) in self.facts.iter_mut().enumerate() {
            *f = [0; WORDS];
            if i < 64 {
                f[i % WORDS] = 1 << i;
            }
        }
        let mut passes = 0u64;
        let mut changed = true;
        while changed {
            changed = false;
            passes += 1;
            for v in 0..NODES {
                let fv = self.facts[v];
                for &s in &self.succ[3 * v..3 * v + 3] {
                    let fs = &mut self.facts[s as usize];
                    for k in 0..WORDS {
                        let joined = fs[k] | fv[k];
                        changed |= joined != fs[k];
                        fs[k] = joined;
                    }
                }
            }
        }
        self.table.fill(0);
        let mut state = 0x2545_f491_4f6c_dd1d;
        for _ in 0..2 * SLOTS / 3 {
            let key = xorshift(&mut state) | 1;
            let mut slot = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 50) as usize;
            while self.table[slot] != 0 && self.table[slot] != key {
                slot = (slot + 1) % SLOTS;
            }
            self.table[slot] = key;
        }
        self.keys.clear();
        self.keys.extend(self.table.iter().filter(|&&k| k != 0));
        self.keys.sort_unstable();
        passes + self.keys[self.keys.len() / 2] % 1024
    }
}

/// One timed run of the kernel, in ms. An untimed run first warms the
/// caches, so the sample does not depend on what the op before it left in
/// them.
pub fn sample_ms() -> f64 {
    let mut k = Kernel::new();
    std::hint::black_box(k.run());
    let t0 = Instant::now();
    std::hint::black_box(k.run());
    t0.elapsed().as_secs_f64() * 1e3
}

/// `n` samples.
pub fn block(n: usize) -> Vec<f64> {
    (0..n).map(|_| sample_ms()).collect()
}

/// The scale factor for timings made while `samples` were taken
/// (1 without samples).
pub fn factor(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 1.0;
    }
    REF_MS * samples.len() as f64 / samples.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        let a = Kernel::new().run();
        let mut k = Kernel::new();
        assert_eq!(k.run(), a);
        assert_eq!(k.run(), a);
    }

    #[test]
    fn factor_scales_to_the_reference() {
        assert_eq!(factor(&[]), 1.0);
        assert!((factor(&[2.0 * REF_MS, 2.0 * REF_MS]) - 0.5).abs() < 1e-12);
    }
}
