//! Quantiles, seeded orders, and per-process readings from `/proc`.

use mpi_dfa_lang::rng::SplitMix64;

/// Linear-interpolation quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Harrell–Davis estimate of quantile `q` of an ascending slice: the mean
/// of all order statistics weighted by a Beta(q(n+1), (1-q)(n+1))
/// distribution. A workload's latencies cluster around its fixed inputs'
/// times; when `q` falls between two clusters, the single interpolated
/// order statistic of [`quantile`] is the edge of a cluster and jumps from
/// run to run, while this weighted mean moves smoothly.
pub fn hd_quantile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n < 2 {
        return sorted.first().copied().unwrap_or(0.0);
    }
    let m = n as f64 + 1.0;
    let (a, b) = (q * m, (1.0 - q) * m);
    let mut below = 0.0;
    let mut sum = 0.0;
    for (i, x) in sorted.iter().enumerate() {
        let cdf = beta_cdf(a, b, (i + 1) as f64 / n as f64);
        sum += (cdf - below) * x;
        below = cdf;
    }
    sum
}

/// `ln Γ(x)` for `x > 0` (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let s = C[1..]
        .iter()
        .enumerate()
        .fold(C[0], |s, (i, c)| s + c / (x + i as f64 + 1.0));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + s.ln()
}

/// The regularised incomplete beta function `I_x(a, b)`: the CDF of
/// Beta(a, b) at `x` (continued fraction, modified Lentz).
fn beta_cdf(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_fraction(a, b, x) / a
    } else {
        1.0 - front * beta_fraction(b, a, 1.0 - x) / b
    }
}

fn beta_fraction(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let clamp = |v: f64| if v.abs() < TINY { TINY } else { v };
    let mut c = 1.0;
    let mut d = 1.0 / clamp(1.0 - (a + b) * x / (a + 1.0));
    let mut h = d;
    for m in 1..100_000 {
        let m = m as f64;
        let even = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
        d = 1.0 / clamp(1.0 + even * d);
        c = clamp(1.0 + even / c);
        h *= d * c;
        let odd = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
        d = 1.0 / clamp(1.0 + odd * d);
        c = clamp(1.0 + odd / c);
        let step = d * c;
        h *= step;
        if (step - 1.0).abs() < 1e-13 {
            break;
        }
    }
    h
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The seeded visiting order of `n` inputs in cycle `cycle`: a
/// Fisher-Yates shuffle driven by the workload seed forked per cycle.
pub fn permutation(n: usize, seed: u64, cycle: u64) -> Vec<usize> {
    let mut rng = SplitMix64::fork(seed, cycle);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.range(0, i + 1));
    }
    order
}

fn proc_path(pid: Option<u32>, file: &str) -> String {
    match pid {
        Some(p) => format!("/proc/{p}/{file}"),
        None => format!("/proc/self/{file}"),
    }
}

/// Fields of `/proc/<pid>/stat` after the command name (index 0 is the
/// state, 1 the parent pid, 11 utime, 12 stime).
fn stat_fields(pid: Option<u32>) -> Option<Vec<String>> {
    let s = std::fs::read_to_string(proc_path(pid, "stat")).ok()?;
    let rest = s.get(s.rfind(')')? + 1..)?;
    Some(rest.split_whitespace().map(String::from).collect())
}

/// Clock ticks per second of `/proc/<pid>/stat` CPU times (`USER_HZ`,
/// fixed at 100 by the Linux ABI).
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds a process (all its threads) has used.
pub fn cpu_seconds(pid: Option<u32>) -> Option<f64> {
    let f = stat_fields(pid)?;
    let utime: f64 = f.get(11)?.parse().ok()?;
    let stime: f64 = f.get(12)?.parse().ok()?;
    Some((utime + stime) / CLK_TCK)
}

/// Peak resident set size (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let s = std::fs::read_to_string(proc_path(pid, "status")).ok()?;
    let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Pids of the live children of `pid`.
pub fn children(pid: u32) -> Vec<u32> {
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&p| {
            stat_fields(Some(p)).is_some_and(|f| f.get(1).and_then(|v| v.parse().ok()) == Some(pid))
        })
        .collect()
}

/// Whether a process still exists (zombies count as ended).
pub fn alive(pid: u32) -> bool {
    stat_fields(Some(pid)).is_some_and(|f| f.first().is_some_and(|s| s != "Z"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = sorted(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn beta_cdf_matches_closed_forms() {
        // Beta(1, 1) is uniform; Beta(2, 1) has CDF x².
        for x in [0.1, 0.5, 0.9] {
            assert!((beta_cdf(1.0, 1.0, x) - x).abs() < 1e-12);
            assert!((beta_cdf(2.0, 1.0, x) - x * x).abs() < 1e-12);
        }
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-12);
        assert!((beta_cdf(20_000.0, 20_000.0, 0.5) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn hd_quantile_is_smooth_across_a_gap() {
        // Two clusters: the interpolated median is a cluster edge, the
        // Harrell–Davis median lies between the clusters.
        let mut v: Vec<f64> = (0..50).map(|i| 1.0 + i as f64 * 1e-3).collect();
        v.extend((0..50).map(|i| 2.0 + i as f64 * 1e-3));
        let hd = hd_quantile(&v, 0.5);
        assert!(hd > 1.3 && hd < 1.7, "{hd}");
        let same: Vec<f64> = vec![3.0; 10];
        assert!((hd_quantile(&same, 0.9) - 3.0).abs() < 1e-9);
        let ramp: Vec<f64> = (0..=1000).map(f64::from).collect();
        assert!((hd_quantile(&ramp, 0.5) - 500.0).abs() < 1e-6);
    }

    #[test]
    fn permutations_are_seeded_and_complete() {
        let a = permutation(13, 7, 0);
        assert_eq!(a, permutation(13, 7, 0));
        assert_ne!(a, permutation(13, 7, 1));
        let mut s = a.clone();
        s.sort();
        assert_eq!(s, (0..13).collect::<Vec<_>>());
    }

    #[test]
    fn proc_readings_work_for_self() {
        assert!(cpu_seconds(None).is_some());
        assert!(peak_rss_mb(None).unwrap() > 0.0);
    }
}
