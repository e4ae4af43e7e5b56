//! Zero-dependency log-bucketed latency histograms (HDR-style).
//!
//! SLO reporting for the serving layer needs three things a plain
//! min/mean/max cannot give: **quantiles** (p50/p95/p99), **bounded
//! memory** regardless of sample count, and an **order-independent
//! merge** so per-shard histograms collected in any arrival order render
//! byte-identical cluster aggregates.
//!
//! ## Bucket layout
//!
//! Values (microseconds, `u64`) are assigned to buckets the way
//! HdrHistogram does with 5 significant bits:
//!
//! * values `< 32` are stored exactly — bucket index = value;
//! * larger values keep their top 5 bits after the leading 1: with
//!   `msb = 63 - leading_zeros(v)`, the bucket is
//!   `(msb - 4) * 32 + ((v >> (msb - 5)) & 31)`.
//!
//! That yields 32 sub-buckets per power-of-two octave, i.e. a worst-case
//! relative error of 1/32 ≈ 3.1%, in at most [`BUCKETS`] = 1920 buckets
//! covering all of `u64`. The mapping is monotone, so bucketing preserves
//! sample order — which is what makes the quantile query *rank-exact*:
//! [`LogHistogram::quantile`] returns [`bucket_floor`] of the bucket
//! holding the true rank-⌈q·n⌉ sample (the property tests assert this
//! against a fully sorted reference).
//!
//! ## Merge semantics
//!
//! [`LogHistogram::absorb`] is a commutative, associative bucket-wise sum
//! (plus sum/count addition and min/max extremes), so any merge order over
//! any partition of the samples produces the same histogram — the
//! serving layer relies on this to merge shard reports in arrival order.

use std::fmt::Write as _;

/// Sub-bucket bits per octave (HdrHistogram "significant figures" knob).
const SUB_BITS: u32 = 5;
/// Sub-buckets per octave.
const SUBS: usize = 1 << SUB_BITS; // 32
/// Total bucket count covering the full `u64` range.
pub const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUBS; // 1920

/// Map a value to its bucket index. Monotone in `v`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUBS as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let sub = ((v >> (msb - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
    (msb - SUB_BITS + 1) as usize * SUBS + sub
}

/// The smallest value that maps to bucket `idx` (the bucket's
/// "representative": quantile queries report this lower bound).
#[inline]
pub fn bucket_floor(idx: usize) -> u64 {
    if idx < SUBS {
        return idx as u64;
    }
    let msb = (idx / SUBS) as u32 + SUB_BITS - 1;
    let sub = (idx % SUBS) as u64;
    (SUBS as u64 + sub) << (msb - SUB_BITS)
}

/// A log-bucketed histogram of `u64` samples with exact count/sum/min/max.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    /// Sparse-ish dense storage: most workloads touch a few dozen buckets,
    /// but 1920 × 8 bytes is cheap enough to keep indexing branch-free.
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    pub fn new() -> LogHistogram {
        LogHistogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` identical samples.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_index(v)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact maximum recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact minimum recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Merge `other` into `self`. Commutative and associative: any merge
    /// order over any partition of the samples yields the same histogram.
    pub fn absorb(&mut self, other: &LogHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The rank-exact quantile: for `q ∈ [0, 1]`, the [`bucket_floor`] of
    /// the bucket containing the sample of rank `⌈q·count⌉` (1-based,
    /// clamped to `[1, count]`). Returns 0 on an empty histogram.
    ///
    /// Because bucketing is monotone, this equals
    /// `bucket_floor(bucket_index(sorted_samples[rank-1]))` — i.e. the true
    /// quantile sample rounded down to its bucket boundary (≤ 3.1% off).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_floor(idx);
            }
        }
        bucket_floor(bucket_index(self.max))
    }

    /// Serialize to the compact JSON wire form used by the telemetry
    /// stream: `{"n":count,"s":sum,"lo":min,"hi":max,"b":[[idx,n],...]}`
    /// with only non-empty buckets listed, in index order.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64);
        let _ = write!(
            out,
            "{{\"n\":{},\"s\":{},\"lo\":{},\"hi\":{},\"b\":[",
            self.count,
            self.sum,
            self.min(),
            self.max
        );
        let mut first = true;
        for (idx, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "[{idx},{n}]");
        }
        out.push_str("]}");
        out
    }

    /// Rebuild from the parts of the wire form. Bucket indexes out of
    /// range are rejected with `None` (corrupt input must not panic).
    pub fn from_parts(
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
        buckets: &[(usize, u64)],
    ) -> Option<LogHistogram> {
        let mut h = LogHistogram::new();
        for &(idx, n) in buckets {
            if idx >= BUCKETS {
                return None;
            }
            h.buckets[idx] += n;
        }
        h.count = count;
        h.sum = sum;
        h.min = if count == 0 { u64::MAX } else { min };
        h.max = max;
        Some(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// A latency-shaped sample set: mixed magnitudes from sub-µs to tens
    /// of seconds, plus exact small values and octave boundaries.
    fn samples(seed: u64, n: usize) -> Vec<u64> {
        let mut rng = SplitMix64::new(seed);
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let v = match i % 4 {
                0 => rng.next_u64() % 32,           // exact range
                1 => 100 + rng.next_u64() % 10_000, // typical request
                2 => rng.next_u64() % 50_000_000,   // long tail
                _ => 1u64 << (rng.next_u64() % 40), // octave boundaries
            };
            out.push(v);
        }
        out
    }

    #[test]
    fn bucket_mapping_is_monotone_and_floor_inverts() {
        let mut prev = 0usize;
        for v in (0u64..4096).chain([u64::MAX / 2, u64::MAX - 1, u64::MAX]) {
            let idx = bucket_index(v);
            assert!(idx >= prev, "non-monotone at {v}");
            prev = idx;
            assert!(idx < BUCKETS);
            let floor = bucket_floor(idx);
            assert!(floor <= v, "floor {floor} above value {v}");
            assert_eq!(bucket_index(floor), idx, "floor of {v} changed bucket");
        }
        // Exact below 32.
        for v in 0u64..32 {
            assert_eq!(bucket_floor(bucket_index(v)), v);
        }
        // Relative error bound above 32: next bucket's floor is within
        // 1/32 of this bucket's floor.
        for idx in SUBS..BUCKETS - 1 {
            let lo = bucket_floor(idx);
            let next = bucket_floor(idx + 1);
            assert!(next > lo);
            assert!(next - lo <= lo / SUBS as u64 + 1, "bucket {idx} too wide");
        }
    }

    #[test]
    fn quantiles_are_rank_exact_vs_sorted_reference() {
        for seed in [1u64, 42, 0xdead_beef] {
            let vals = samples(seed, 10_000);
            let mut h = LogHistogram::new();
            for &v in &vals {
                h.record(v);
            }
            let mut sorted = vals.clone();
            sorted.sort_unstable();
            for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
                let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                let reference = sorted[rank - 1];
                let expected = bucket_floor(bucket_index(reference));
                assert_eq!(
                    h.quantile(q),
                    expected,
                    "seed {seed} q {q}: reference sample {reference}"
                );
            }
            assert_eq!(h.count(), vals.len() as u64);
            assert_eq!(h.max(), *sorted.last().unwrap());
            assert_eq!(h.min(), sorted[0]);
        }
    }

    #[test]
    fn absorb_is_order_independent() {
        // Partition one sample set into 7 shards, merge the shard
        // histograms in several different orders (and groupings): every
        // result must equal the histogram of the whole set, byte for byte
        // in the wire form.
        let vals = samples(7, 9_731);
        let mut whole = LogHistogram::new();
        for &v in &vals {
            whole.record(v);
        }
        let mut shards: Vec<LogHistogram> = (0..7).map(|_| LogHistogram::new()).collect();
        for (i, &v) in vals.iter().enumerate() {
            shards[i % 7].record(v);
        }
        let merge = |order: &[usize]| {
            let mut acc = LogHistogram::new();
            for &i in order {
                acc.absorb(&shards[i]);
            }
            acc
        };
        let forward = merge(&[0, 1, 2, 3, 4, 5, 6]);
        let backward = merge(&[6, 5, 4, 3, 2, 1, 0]);
        let shuffled = merge(&[3, 0, 6, 1, 5, 2, 4]);
        // Grouped merge: (0+1) + ((2+3) + (4+5+6)).
        let mut left = LogHistogram::new();
        left.absorb(&shards[0]);
        left.absorb(&shards[1]);
        let mut mid = LogHistogram::new();
        mid.absorb(&shards[2]);
        mid.absorb(&shards[3]);
        let mut right = LogHistogram::new();
        right.absorb(&shards[4]);
        right.absorb(&shards[5]);
        right.absorb(&shards[6]);
        mid.absorb(&right);
        left.absorb(&mid);
        for (name, h) in [
            ("forward", &forward),
            ("backward", &backward),
            ("shuffled", &shuffled),
            ("grouped", &left),
        ] {
            assert_eq!(h, &whole, "{name} merge diverged");
            assert_eq!(h.to_json(), whole.to_json(), "{name} wire form diverged");
        }
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(forward.quantile(q), whole.quantile(q));
        }
    }

    #[test]
    fn wire_form_round_trips() {
        let vals = samples(99, 1000);
        let mut h = LogHistogram::new();
        for &v in &vals {
            h.record(v);
        }
        let json = h.to_json();
        assert!(json.starts_with("{\"n\":1000,\"s\":"));
        // Parse the wire form back with the service-layer conventions:
        // extract the fields by hand here (core has no JSON parser).
        let grab = |key: &str| -> u64 {
            let pat = format!("\"{key}\":");
            let at = json.find(&pat).unwrap() + pat.len();
            json[at..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>()
                .parse()
                .unwrap()
        };
        let b_at = json.find("\"b\":[").unwrap() + 5;
        let b_end = json.rfind("]}").unwrap();
        let mut pairs = Vec::new();
        for part in json[b_at..b_end].split("],") {
            let part = part.trim_start_matches('[').trim_end_matches(']');
            if part.is_empty() {
                continue;
            }
            let (i, n) = part.split_once(',').unwrap();
            pairs.push((i.parse::<usize>().unwrap(), n.parse::<u64>().unwrap()));
        }
        let back =
            LogHistogram::from_parts(grab("n"), grab("s"), grab("lo"), grab("hi"), &pairs).unwrap();
        assert_eq!(back, h);
        // Corrupt index is rejected, not a panic.
        assert!(LogHistogram::from_parts(1, 1, 1, 1, &[(BUCKETS, 1)]).is_none());
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = LogHistogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert!(h.is_empty());
        assert_eq!(h.to_json(), "{\"n\":0,\"s\":0,\"lo\":0,\"hi\":0,\"b\":[]}");
    }
}
