//! SLO latency accounting: log-bucketed histograms per
//! (verb × cache outcome × shard), with Prometheus rendering and an
//! order-independent cluster merge.
//!
//! The serving layer records one sample per answered request — on the
//! worker (its own view) and on the router (end-to-end, attributed to the
//! shard that answered). The two views render as DISTINCT metric
//! families — [`METRIC`] for the answering process's own latency,
//! [`E2E_METRIC`] for the router round-trip including retries, hedges,
//! and queueing — so no request is ever double-counted within one
//! series. Histograms are [`mpi_dfa_core::hist::LogHistogram`],
//! so `absorb` is commutative/associative and the rendered cluster
//! quantiles are byte-identical no matter which order shard reports
//! arrived in (asserted by tests here and in `obs`).
//!
//! Latency never flows through response lines (hit ≡ recompute must stay
//! byte-identical); it only exists here, in the access log, and in the
//! `metrics` verb output.

use mpi_dfa_core::hist::LogHistogram;
use mpi_dfa_core::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

/// Series identity: (verb, cache outcome, shard label). Shard label is the
/// decimal shard id, or `-` for an unsharded process (single-box server,
/// router-local view).
pub type SloKey = (String, String, String);

/// A point-in-time copy of the registry, merge- and render-friendly.
pub type SloSnapshot = BTreeMap<SloKey, LogHistogram>;

/// Thread-safe latency histogram registry.
#[derive(Debug, Default)]
pub struct SloRegistry {
    inner: Mutex<SloSnapshot>,
}

impl SloRegistry {
    pub fn new() -> SloRegistry {
        SloRegistry::default()
    }

    /// Record one request latency sample.
    pub fn record(&self, verb: &str, cache: &str, shard: &str, latency_us: u64) {
        let mut map = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        map.entry((verb.to_string(), cache.to_string(), shard.to_string()))
            .or_default()
            .record(latency_us);
    }

    /// Copy the current state.
    pub fn snapshot(&self) -> SloSnapshot {
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }
}

/// Merge `from` into `into`, histogram-wise. Commutative over report
/// order because [`LogHistogram::absorb`] is.
pub fn absorb(into: &mut SloSnapshot, from: &SloSnapshot) {
    for (key, hist) in from {
        into.entry(key.clone()).or_default().absorb(hist);
    }
}

/// Serialize a snapshot as a JSON array (wire form for the telemetry
/// stream and the worker `metrics` verb):
/// `[{"verb":"analyze","cache":"hit","shard":"0","h":{...}},...]`.
pub fn to_json(snap: &SloSnapshot) -> String {
    let mut out = String::from("[");
    for (i, ((verb, cache, shard), hist)) in snap.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"verb\":\"{}\",\"cache\":\"{}\",\"shard\":\"{}\",\"h\":{}}}",
            mpi_dfa_core::json::escape(verb),
            mpi_dfa_core::json::escape(cache),
            mpi_dfa_core::json::escape(shard),
            hist.to_json()
        );
    }
    out.push(']');
    out
}

/// Parse the wire form back. Returns `None` on any shape violation —
/// corrupt telemetry must never panic the supervisor.
pub fn from_json(v: &Json) -> Option<SloSnapshot> {
    let mut snap = SloSnapshot::new();
    for entry in v.as_array()? {
        let verb = entry.get("verb")?.as_str()?.to_string();
        let cache = entry.get("cache")?.as_str()?.to_string();
        let shard = entry.get("shard")?.as_str()?.to_string();
        let h = entry.get("h")?;
        let mut buckets = Vec::new();
        for pair in h.get("b")?.as_array()? {
            let pair = pair.as_array()?;
            if pair.len() != 2 {
                return None;
            }
            buckets.push((pair[0].as_u64()? as usize, pair[1].as_u64()?));
        }
        let hist = LogHistogram::from_parts(
            h.get("n")?.as_u64()?,
            h.get("s")?.as_u64()?,
            h.get("lo")?.as_u64()?,
            h.get("hi")?.as_u64()?,
            &buckets,
        )?;
        snap.insert((verb, cache, shard), hist);
    }
    Some(snap)
}

/// The quantiles every series reports.
pub const QUANTILES: [(f64, &str); 3] = [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")];

/// Metric family for latency measured by the process that answered (a
/// worker's or single-box server's own view).
pub const METRIC: &str = "mpidfa_request_latency_us";

/// Metric family for the router's end-to-end view: round-trip latency
/// including connect, retries, hedges, and brownout waits, attributed to
/// the shard that answered.
pub const E2E_METRIC: &str = "mpidfa_request_e2e_latency_us";

/// [`render_prometheus_named`] under the default [`METRIC`] family.
pub fn render_prometheus(snap: &SloSnapshot, out: &mut String) {
    render_prometheus_named(METRIC, snap, out);
}

/// Render a snapshot as Prometheus series under the `metric` family,
/// sorted (BTreeMap order), with a per-verb cluster aggregate
/// (`cache="all",shard="all"`) appended after the exact series.
/// Deterministic for a given merged snapshot, which together with
/// [`absorb`]'s commutativity gives the byte-identical-regardless-of-
/// arrival-order property.
pub fn render_prometheus_named(metric: &str, snap: &SloSnapshot, out: &mut String) {
    // Per-verb aggregates (merged across cache outcome and shard).
    let mut per_verb: BTreeMap<&str, LogHistogram> = BTreeMap::new();
    for ((verb, _, _), hist) in snap {
        per_verb.entry(verb).or_default().absorb(hist);
    }
    let mut emit = |verb: &str, cache: &str, shard: &str, hist: &LogHistogram| {
        for (q, label) in QUANTILES {
            let _ = writeln!(
                out,
                "{metric}{{verb=\"{verb}\",cache=\"{cache}\",shard=\"{shard}\",quantile=\"{label}\"}} {}",
                hist.quantile(q)
            );
        }
        let _ = writeln!(
            out,
            "{metric}_count{{verb=\"{verb}\",cache=\"{cache}\",shard=\"{shard}\"}} {}",
            hist.count()
        );
        let _ = writeln!(
            out,
            "{metric}_sum{{verb=\"{verb}\",cache=\"{cache}\",shard=\"{shard}\"}} {}",
            hist.sum()
        );
    };
    for ((verb, cache, shard), hist) in snap {
        emit(verb, cache, shard, hist);
    }
    for (verb, hist) in &per_verb {
        emit(verb, "all", "all", hist);
    }
}

/// Classify a rendered response line into the cache-outcome label used as
/// a histogram dimension: `hit` | `miss` | `bypass` for successes,
/// `error` for structured failures (including sheds).
pub fn cache_outcome(resp: &str) -> &'static str {
    if resp.contains("\"ok\":true") {
        if resp.contains("\"cache\":\"hit\"") {
            "hit"
        } else if resp.contains("\"cache\":\"miss\"") {
            "miss"
        } else {
            "bypass"
        }
    } else {
        "error"
    }
}

/// Extract the governor tier from a response's provenance (`T0`..`T2`),
/// `-` when the response carries none (errors, control verbs).
pub fn tier_of(resp: &str) -> &'static str {
    // Static needles: this runs on every answered request, so it must not
    // allocate.
    for (needle, t) in [
        ("\"tier\":\"T0\"", "T0"),
        ("\"tier\":\"T1\"", "T1"),
        ("\"tier\":\"T2\"", "T2"),
    ] {
        if resp.contains(needle) {
            return t;
        }
    }
    "-"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot(seed: u64, n: u64) -> SloSnapshot {
        let reg = SloRegistry::new();
        let mut x = seed;
        for i in 0..n {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let verb = if i % 3 == 0 { "analyze" } else { "table1-row" };
            let cache = ["hit", "miss", "bypass", "error"][(i % 4) as usize];
            let shard = ["0", "1", "2"][(i % 3) as usize];
            reg.record(verb, cache, shard, x % 1_000_000);
        }
        reg.snapshot()
    }

    #[test]
    fn record_snapshot_and_wire_round_trip() {
        let snap = sample_snapshot(42, 500);
        assert!(!snap.is_empty());
        let json = to_json(&snap);
        let parsed = mpi_dfa_core::json::parse(&json).unwrap();
        let back = from_json(&parsed).unwrap();
        assert_eq!(back, snap);
        assert_eq!(to_json(&back), json);
    }

    #[test]
    fn prometheus_render_is_byte_identical_across_merge_orders() {
        // Three "shard reports" merged in every arrival order must render
        // the same text — the acceptance criterion for cluster metrics.
        let reports = [
            sample_snapshot(1, 300),
            sample_snapshot(2, 200),
            sample_snapshot(3, 400),
        ];
        let render = |order: &[usize]| {
            let mut merged = SloSnapshot::new();
            for &i in order {
                absorb(&mut merged, &reports[i]);
            }
            let mut out = String::new();
            render_prometheus(&merged, &mut out);
            out
        };
        let baseline = render(&[0, 1, 2]);
        for order in [[0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            assert_eq!(render(&order), baseline, "order {order:?} diverged");
        }
        assert!(baseline.contains("quantile=\"0.99\""));
        assert!(baseline.contains("cache=\"all\",shard=\"all\""));
        assert!(baseline.contains("mpidfa_request_latency_us_count"));
    }

    #[test]
    fn outcome_and_tier_classification() {
        assert_eq!(
            cache_outcome(r#"{"id":1,"ok":true,"kind":"analyze","cache":"hit","result":{}}"#),
            "hit"
        );
        assert_eq!(
            cache_outcome(r#"{"id":1,"ok":true,"kind":"ping","cache":"bypass","result":{}}"#),
            "bypass"
        );
        assert_eq!(
            cache_outcome(r#"{"id":1,"ok":false,"error":{"code":"overloaded","message":"x"}}"#),
            "error"
        );
        assert_eq!(tier_of(r#"..."provenance":{"tier":"T1",...}"#), "T1");
        assert_eq!(tier_of(r#"{"id":1,"ok":false}"#), "-");
    }
}
