//! The measurement loop shared by the in-process workloads, and the
//! per-layer ledger derived from a traced run.

use crate::alloc;
use crate::speed;
use crate::stats::{hd_quantile, median, permutation, sorted};
use crate::trace::{self, LayerCost, Tracer};
use mpi_dfa_core::hash::Hasher128;
use mpi_dfa_core::solver::ConvergenceStats;
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-up (input generation, warm-up, daemon start) is repeated this many
/// times per run and its median reported, so a few slow starts cannot move
/// `setup_s`.
pub const SETUP_REPS: usize = 9;

/// Seconds per measurement window: each window's timings are scaled by the
/// host speed measured in it (see [`speed`]).
pub const WINDOW_S: f64 = 1.0;

/// At most this many spans are written to the trace file of a run.
pub const TRACE_FILE_SPANS: usize = 200_000;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    /// Stop after this many measured ops (tests); `None` runs until the
    /// time is up.
    pub max_ops: Option<u64>,
    pub trace: bool,
    /// Directory for the trace file and the daemon's cache directory.
    pub scratch: PathBuf,
    /// The `mpidfa` binary (serve-mixed only).
    pub mpidfa: Option<PathBuf>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// Solver and graph work of one op; every field repeats exactly for the
/// same input.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    pub node_visits: u64,
    pub comm_evals: u64,
    pub meets: u64,
    pub passes: u64,
    /// Σ `pass_deltas`: node visits that changed a fact.
    pub useful_visits: u64,
    pub comm_edges: u64,
    pub schedules: u64,
}

impl Work {
    pub fn of(stats: &[&ConvergenceStats]) -> Work {
        let mut w = Work::default();
        for s in stats {
            w.node_visits += s.node_visits;
            w.comm_evals += s.comm_evals;
            w.meets += s.meets;
            w.passes += s.passes as u64;
            w.useful_visits += s.pass_deltas.iter().sum::<u64>();
        }
        w
    }

    pub fn add(&mut self, o: &Work) {
        self.node_visits += o.node_visits;
        self.comm_evals += o.comm_evals;
        self.meets += o.meets;
        self.passes += o.passes;
        self.useful_visits += o.useful_visits;
        self.comm_edges += o.comm_edges;
        self.schedules += o.schedules;
    }
}

/// What a run reports besides its metrics: the digest of every answer in
/// op order and the summed work, which two runs of the same seed and op
/// count must reproduce exactly.
#[derive(Debug, Clone)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub digest: u128,
    pub work: Work,
    pub metrics: Vec<Metric>,
    pub spans: Vec<trace::Span>,
}

/// Per-run sums of layer counts, keyed by name (see [`layer_metrics`]).
#[derive(Debug, Default)]
pub struct Ledger {
    sums: BTreeMap<&'static str, f64>,
}

impl Ledger {
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.sums.entry(key).or_default() += v;
    }

    pub fn get(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }
}

/// One in-process workload: a fixed set of inputs visited in seeded
/// order, each op run either plainly (untraced) or through the public
/// layer entry points inside spans (traced), with the same answer.
pub trait InProcess: Sized {
    /// The part of an op's result that is checked and digested.
    type Answer;
    /// Ops run as warm-up in each set-up.
    const WARMUP: usize;
    /// Input generation from the workload seed.
    fn setup(seed: u64) -> Self;
    fn inputs(&self) -> usize;
    /// The end-to-end op, exactly as a user runs it.
    fn run(&mut self, i: usize) -> Self::Answer;
    /// The same op, one span per layer call, recording counts in `l`.
    fn run_traced(&mut self, i: usize, t: &mut Tracer, l: &mut Ledger) -> Self::Answer;
    /// Traced-run measurements kept out of the op's spans.
    fn side(&mut self, i: usize, l: &mut Ledger);
    fn digest(a: &Self::Answer) -> u128;
    fn work(a: &Self::Answer) -> Work;
    /// Check the first answer for input `i` against the known answer.
    fn check(&mut self, i: usize, a: &Self::Answer) -> Result<(), String>;
}

/// Run `setup` [`SETUP_REPS`] times, dropping each result before the next
/// starts. Returns the last result and the set-up times, each scaled by
/// kernel samples taken just before and after it.
pub fn repeat_setup<T>(
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        drop(last.take());
        let mut samples = speed::block(speed::BLOCK);
        let t0 = Instant::now();
        let done = setup(rep)?;
        let secs = t0.elapsed().as_secs_f64();
        samples.extend(speed::block(speed::BLOCK));
        times.push(secs * speed::factor(&samples));
        last = Some(done);
    }
    Ok((last.expect("SETUP_REPS > 0"), times))
}

/// The window being filled by an in-process run.
struct OpenWindow {
    t0: Instant,
    cpu0: f64,
    first_op: usize,
    samples: Vec<f64>,
    since_sample_ms: f64,
}

impl OpenWindow {
    fn start(first_op: usize) -> OpenWindow {
        OpenWindow {
            t0: Instant::now(),
            cpu0: own_cpu(),
            first_op,
            samples: Vec::new(),
            since_sample_ms: 0.0,
        }
    }

    /// Count `ms` of op time; take a kernel sample every
    /// [`speed::EVERY_MS`] of it.
    fn op(&mut self, ms: f64) {
        self.since_sample_ms += ms;
        if self.since_sample_ms >= speed::EVERY_MS {
            self.samples.push(speed::sample_ms());
            self.since_sample_ms = 0.0;
        }
    }

    fn close(mut self, op_ms: &[f64]) -> Window {
        if self.samples.is_empty() {
            self.samples.push(speed::sample_ms());
        }
        let sampling_s = self.samples.iter().sum::<f64>() / 1e3;
        Window {
            op_ms: op_ms[self.first_op..].to_vec(),
            wall_s: self.t0.elapsed().as_secs_f64() - sampling_s,
            cpu_s: (own_cpu() - self.cpu0 - sampling_s).max(0.0),
            factor: speed::factor(&self.samples),
        }
    }
}

fn own_cpu() -> f64 {
    crate::stats::cpu_seconds(None).unwrap_or(0.0)
}

/// Run one in-process workload for `cfg.seconds`, rounded up to whole
/// cycles over the inputs (or for `cfg.max_ops` ops).
///
/// Untraced runs report the end-to-end metrics. Traced runs alternate
/// cycles: even cycles untraced, odd cycles traced, so the tracing overhead
/// is measured on the same inputs within one run; they report the
/// per-layer metrics. An op that panics counts as failed.
pub fn run_in_process<W: InProcess>(cfg: &Cfg) -> Report {
    let (mut w, setups) = repeat_setup(|_| {
        let mut inst = W::setup(cfg.seed);
        // The same inputs every seed, so set-up cost does not vary by seed.
        for k in 0..W::WARMUP {
            std::hint::black_box(inst.run(k % inst.inputs()));
        }
        Ok(inst)
    })
    .expect("in-process set-up returns no errors");

    let mut tracer = Tracer::default();
    let mut ledger = Ledger::default();
    let mut plain_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut seen: Vec<(usize, u128)> = Vec::new();
    let mut first: HashMap<usize, W::Answer> = HashMap::new();
    let mut work = Work::default();
    let mut digest = Hasher128::new();
    let mut errors = Vec::new();
    let mut panicked = 0;

    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let mut windows = Vec::new();
    let mut open = OpenWindow::start(0);
    let mut ops: u64 = 0;
    // Whole cycles only, so every input is measured equally often and the
    // quantiles do not depend on where the time ran out.
    let min_cycles = if cfg.trace { 2 } else { 1 };
    'run: for cycle in 0.. {
        let now = Instant::now();
        if plain_ms.len() > open.first_op && (now - open.t0).as_secs_f64() >= WINDOW_S {
            windows.push(open.close(&plain_ms));
            open = OpenWindow::start(plain_ms.len());
        }
        if cfg.max_ops.is_none() && cycle >= min_cycles && now >= deadline {
            break;
        }
        let traced = cfg.trace && cycle % 2 == 1;
        // Count allocations in traced cycles only, so the untraced ones
        // match an untraced run.
        alloc::set_counting(traced);
        for i in permutation(w.inputs(), cfg.seed, cycle) {
            if cfg.max_ops.is_some_and(|max| ops >= max) {
                break 'run;
            }
            ops += 1;
            let result = catch_unwind(AssertUnwindSafe(|| {
                if traced {
                    let (a, ms) = tracer.op(ops as u32 - 1, |t| w.run_traced(i, t, &mut ledger));
                    traced_ms.push(ms);
                    w.side(i, &mut ledger);
                    a
                } else {
                    let t0 = Instant::now();
                    let a = w.run(i);
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    plain_ms.push(ms);
                    if !cfg.trace {
                        open.op(ms);
                    }
                    a
                }
            }));
            let Ok(answer) = result else {
                panicked += 1;
                if errors.len() < 8 {
                    errors.push(format!("input {i} panicked"));
                }
                continue;
            };
            let d = W::digest(&answer);
            digest.write_u64(d as u64).write_u64((d >> 64) as u64);
            work.add(&W::work(&answer));
            seen.push((i, d));
            first.entry(i).or_insert(answer);
        }
    }
    alloc::set_counting(false);
    if plain_ms.len() > open.first_op {
        windows.push(open.close(&plain_ms));
    }
    let peak = crate::stats::peak_rss_mb(None).unwrap_or(0.0);

    // Correctness, outside the measured loop: the first answer for each
    // input against the known answer, every later one against the first.
    let mut bad_inputs = std::collections::HashSet::new();
    let mut inputs: Vec<usize> = first.keys().copied().collect();
    inputs.sort_unstable();
    for i in inputs {
        if let Err(e) = w.check(i, &first[&i]) {
            errors.push(format!("input {i}: {e}"));
            bad_inputs.insert(i);
        }
    }
    let mut failed = panicked;
    let mut changed = 0;
    for &(i, d) in &seen {
        if d != W::digest(&first[&i]) {
            changed += 1;
        }
        if bad_inputs.contains(&i) || d != W::digest(&first[&i]) {
            failed += 1;
        }
    }
    if changed > 0 {
        errors.push(format!(
            "{changed} ops answered differently from their input's first op"
        ));
    }

    let metrics = if cfg.trace {
        let mut m = layer_metrics(&trace::by_layer(&tracer.spans), &ledger, &traced_ms);
        m.extend(trace_metrics(&tracer.spans, &plain_ms, &traced_ms));
        m
    } else {
        end_to_end(&setups, &windows, peak, ops, failed)
    };
    Report {
        attempted: ops,
        failed,
        errors,
        digest: digest.finish(),
        work,
        metrics,
        spans: tracer.spans,
    }
}

/// One measurement window: its raw op latencies, the wall and CPU time its
/// ops took (kernel samples excluded), and its host-speed factor.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    pub op_ms: Vec<f64>,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub factor: f64,
}

/// The end-to-end metrics of an untraced run. Every timing is scaled by
/// its window's speed factor (see [`speed`]); latency quantiles are taken
/// over the scaled latencies of all windows. The unscaled figures and the
/// median factor are reported too (as `raw.*` and `speed.factor`; printed,
/// not part of the result line).
pub fn end_to_end(
    setups: &[f64],
    windows: &[Window],
    peak_rss_mb: f64,
    attempted: u64,
    failed: u64,
) -> Vec<Metric> {
    let raw: Vec<f64> = windows.iter().flat_map(|w| w.op_ms.clone()).collect();
    let scaled: Vec<f64> = windows
        .iter()
        .flat_map(|w| w.op_ms.iter().map(move |ms| ms * w.factor))
        .collect();
    let (raw, scaled) = (sorted(&raw), sorted(&scaled));
    let done = raw.len().max(1) as f64;
    let sum = |f: fn(&Window) -> f64| windows.iter().map(f).sum::<f64>();
    let wall = sum(|w| w.wall_s * w.factor);
    let cpu = sum(|w| w.cpu_s * w.factor);
    let factors: Vec<f64> = windows.iter().map(|w| w.factor).collect();
    let n = attempted.max(1) as f64;
    vec![
        metric("setup_s", median(setups), "s"),
        metric("op_ms_p50", hd_quantile(&scaled, 0.50), "ms"),
        metric("op_ms_p90", hd_quantile(&scaled, 0.90), "ms"),
        metric("op_ms_p99", hd_quantile(&scaled, 0.99), "ms"),
        metric("ops_per_s", raw.len() as f64 / wall, "1/s"),
        metric("cpu_ms_per_op", cpu * 1e3 / done, "ms"),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
        metric("ok_ratio", (n - failed as f64) / n, "ratio"),
        metric("raw.op_ms_p50", hd_quantile(&raw, 0.50), "ms"),
        metric("raw.op_ms_p90", hd_quantile(&raw, 0.90), "ms"),
        metric("raw.ops_per_s", raw.len() as f64 / sum(|w| w.wall_s), "1/s"),
        metric("raw.cpu_ms_per_op", sum(|w| w.cpu_s) * 1e3 / done, "ms"),
        metric("speed.factor", median(&factors), "ratio"),
    ]
}

/// `trace.overhead_pct` (traced vs untraced op p50) and
/// `trace.accounted_pct` (median per-op sum of layer self times as a share
/// of the untraced op p50).
pub fn trace_metrics(spans: &[trace::Span], plain_ms: &[f64], traced_ms: &[f64]) -> Vec<Metric> {
    let plain = median(plain_ms);
    let costs = trace::self_costs(spans);
    let layers_ms: Vec<f64> = spans
        .iter()
        .zip(&costs)
        .filter(|(s, _)| s.name == trace::OP)
        .map(|(s, c)| (s.dur_ns() - c.0) as f64 / 1e6)
        .collect();
    vec![
        metric(
            "trace.overhead_pct",
            100.0 * (median(traced_ms) - plain) / plain,
            "%",
        ),
        metric(
            "trace.accounted_pct",
            100.0 * median(&layers_ms) / plain,
            "%",
        ),
    ]
}

/// Per-layer metrics of an in-process traced run, from span self costs and
/// the ledger's counts. Layers a workload never calls come out as 0.
pub fn layer_metrics(
    layers: &BTreeMap<&'static str, LayerCost>,
    l: &Ledger,
    traced_ms: &[f64],
) -> Vec<Metric> {
    let ops = traced_ms.len().max(1) as f64;
    let total_ns: f64 = traced_ms.iter().sum::<f64>() * 1e6;
    let cost = |name: &str| layers.get(name).copied().unwrap_or_default();
    let ms = |name: &str| cost(name).self_ns as f64 / 1e6 / ops;
    let share = |name: &str| 100.0 * cost(name).self_ns as f64 / total_ns;
    let allocs = |name: &str| cost(name).self_allocs as f64 / ops;
    let per_op = |key: &str| l.get(key) / ops;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let parts_ms =
        ms("graph.icfg") + ms("analyses.consts") + ms("graph.mpi") + ms("analyses.activity");
    let governor = if l.get("governor_ms") > 0.0 {
        per_op("governor_ms") - parts_ms
    } else {
        0.0
    };
    let visits = l.get("node_visits");
    vec![
        metric("lang.compile.ms_per_op", ms("lang.compile"), "ms"),
        metric("lang.compile.share", share("lang.compile"), "%"),
        metric(
            "lang.compile.allocs_per_op",
            allocs("lang.compile"),
            "count",
        ),
        metric(
            "lang.compile.src_kb_per_ms",
            ratio(l.get("src_bytes") / 1024.0, ms("lang.compile") * ops),
            "KiB/ms",
        ),
        metric("graph.lower.ms_per_op", ms("graph.lower"), "ms"),
        metric("graph.lower.share", share("graph.lower"), "%"),
        metric("graph.lower.allocs_per_op", allocs("graph.lower"), "count"),
        metric("graph.cfg_nodes", per_op("cfg_nodes"), "count"),
        metric("graph.icfg.ms_per_op", ms("graph.icfg"), "ms"),
        metric("graph.icfg.share", share("graph.icfg"), "%"),
        metric("graph.icfg.nodes", per_op("icfg_nodes"), "count"),
        metric("graph.icfg.edges", per_op("icfg_edges"), "count"),
        metric("analyses.consts.ms_per_op", ms("analyses.consts"), "ms"),
        metric("analyses.consts.share", share("analyses.consts"), "%"),
        metric(
            "analyses.consts.node_visits",
            per_op("consts_visits"),
            "count",
        ),
        metric("graph.mpi.ms_per_op", ms("graph.mpi"), "ms"),
        metric("graph.mpi.share", share("graph.mpi"), "%"),
        metric("graph.mpi.comm_edges", per_op("comm_edges"), "count"),
        metric(
            "graph.mpi.kept_ratio",
            ratio(l.get("comm_edges"), l.get("naive_edges")),
            "ratio",
        ),
        metric("analyses.activity.ms_per_op", ms("analyses.activity"), "ms"),
        metric("analyses.activity.share", share("analyses.activity"), "%"),
        metric(
            "analyses.activity.allocs_per_op",
            allocs("analyses.activity"),
            "count",
        ),
        metric("analyses.baseline.ms_per_op", ms("analyses.baseline"), "ms"),
        metric("analyses.governor.overhead_ms_per_op", governor, "ms"),
        metric("core.solver.node_visits", per_op("node_visits"), "count"),
        metric("core.solver.comm_evals", per_op("comm_evals"), "count"),
        metric("core.solver.meets", per_op("meets"), "count"),
        metric("core.solver.passes", per_op("passes"), "count"),
        metric(
            "core.solver.ns_per_visit",
            ratio(cost("analyses.activity").self_ns as f64, visits),
            "ns",
        ),
        metric(
            "core.solver.useful_visit_ratio",
            ratio(l.get("useful_visits"), visits),
            "ratio",
        ),
        metric("mem.free.ms_per_op", ms("mem.free"), "ms"),
        metric("mem.free.share", share("mem.free"), "%"),
        metric("verify.static.ms_per_op", ms("verify.static"), "ms"),
        metric("verify.crosscheck.ms_per_op", ms("verify.crosscheck"), "ms"),
        metric("verify.crosscheck.share", share("verify.crosscheck"), "%"),
        metric("verify.crosscheck.schedules", per_op("schedules"), "count"),
        metric(
            "verify.crosscheck.ms_per_schedule",
            ratio(ms("verify.crosscheck") * ops, l.get("schedules")),
            "ms",
        ),
    ]
}

/// Record a solve's counters in the ledger.
pub fn ledger_work(l: &mut Ledger, w: &Work) {
    l.add("node_visits", w.node_visits as f64);
    l.add("comm_evals", w.comm_evals as f64);
    l.add("meets", w.meets as f64);
    l.add("passes", w.passes as f64);
    l.add("useful_visits", w.useful_visits as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_scales_each_window_by_its_factor() {
        // Ten 1 ms ops, then the same ops at half speed (2 ms each, with
        // the kernel twice as slow, so a factor of 0.5).
        let window = |ms: f64, factor: f64| Window {
            op_ms: vec![ms; 10],
            wall_s: ms * 10.0 / 1e3,
            cpu_s: ms * 10.0 / 1e3,
            factor,
        };
        let m = end_to_end(&[0.1], &[window(1.0, 1.0), window(2.0, 0.5)], 5.0, 20, 0);
        let get = |name: &str| m.iter().find(|x| x.name == name).unwrap().value;
        for name in ["op_ms_p50", "op_ms_p99", "cpu_ms_per_op"] {
            assert!((get(name) - 1.0).abs() < 1e-9, "{name} {}", get(name));
        }
        assert!((get("ops_per_s") - 1000.0).abs() < 1e-6);
        assert!((get("raw.ops_per_s") - 20.0 / 0.03).abs() < 1e-6);
        assert!((get("speed.factor") - 0.75).abs() < 1e-12);
        assert_eq!(get("ok_ratio"), 1.0);
    }
}
