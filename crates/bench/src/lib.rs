//! Minimal benchmark harness (criterion-compatible surface).
//!
//! The workspace builds fully offline, so instead of depending on
//! `criterion` this crate provides the tiny subset of its API the bench
//! targets in `benches/` actually use: `Criterion::benchmark_group`,
//! `BenchmarkGroup::{sample_size, bench_function, bench_with_input,
//! finish}`, `Bencher::iter`, `BenchmarkId::from_parameter`, and the
//! `criterion_group!`/`criterion_main!` macros. Timing is wall-clock via
//! `std::time::Instant`: each benchmark runs one warm-up iteration then
//! `sample_size` timed iterations and reports min/median/mean.
//!
//! This is deliberately not a statistics engine — it exists so
//! `cargo bench` keeps producing the paper-table printouts and order-of-
//! magnitude timings in a dependency-free build.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Top-level driver handed to each `criterion_group!` target.
#[derive(Debug, Default)]
pub struct Criterion {
    _priv: (),
}

impl Criterion {
    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 10,
        }
    }
}

/// A named benchmark identifier (`group/param` style labels).
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// Identifier from a bare parameter value, mirroring criterion.
    pub fn from_parameter(p: impl Display) -> Self {
        BenchmarkId(p.to_string())
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

/// A group of benchmarks sharing a prefix and a sample size.
#[derive(Debug)]
pub struct BenchmarkGroup {
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup {
    /// Number of timed iterations per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Run one benchmark closure.
    pub fn bench_function<F>(&mut self, label: impl Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher {
            samples: Vec::new(),
            sample_size: self.sample_size,
        };
        f(&mut b);
        b.report(&self.name, &label.to_string());
        self
    }

    /// Run one benchmark closure parameterised by `input`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut b = Bencher {
            samples: Vec::new(),
            sample_size: self.sample_size,
        };
        f(&mut b, input);
        b.report(&self.name, &id.to_string());
        self
    }

    /// End the group (no-op; kept for criterion API compatibility).
    pub fn finish(self) {}
}

/// Timing context passed to each benchmark closure.
#[derive(Debug)]
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    /// Time `routine`: one warm-up call, then `sample_size` timed calls.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up (also catches panics before timing starts).
        let _ = routine();
        self.samples.clear();
        for _ in 0..self.sample_size {
            let start = Instant::now();
            let out = routine();
            self.samples.push(start.elapsed());
            drop(out);
        }
    }

    fn report(&self, group: &str, label: &str) {
        if self.samples.is_empty() {
            println!("{group}/{label:<24} (no samples)");
            return;
        }
        let mut sorted = self.samples.clone();
        sorted.sort();
        let min = sorted[0];
        let median = sorted[sorted.len() / 2];
        let mean = sorted.iter().sum::<Duration>() / sorted.len() as u32;
        println!(
            "{group}/{label:<24} min {min:>12?}  median {median:>12?}  mean {mean:>12?}  ({n} samples)",
            n = sorted.len()
        );
    }
}

/// Mirror of `criterion::criterion_group!`: defines a function running each
/// target with a fresh [`Criterion`].
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Mirror of `criterion::criterion_main!`: defines `main` invoking each
/// group. Command-line arguments (e.g. cargo's `--bench`) are ignored.
#[macro_export]
macro_rules! criterion_main {
    ($($group:ident),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_collects_samples_and_reports() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("harness");
        group.sample_size(3);
        let mut calls = 0u32;
        group.bench_function("counting", |b| {
            b.iter(|| {
                calls += 1;
                calls
            });
        });
        group.bench_with_input(BenchmarkId::from_parameter(7), &7usize, |b, &n| {
            b.iter(|| n * 2);
        });
        group.finish();
        // 1 warm-up + 3 samples.
        assert_eq!(calls, 4);
    }
}
