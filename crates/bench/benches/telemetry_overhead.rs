//! Telemetry overhead guard: the disabled sink must be (near-)free.
//!
//! The observability layer promises that when no sink is installed every
//! probe is one relaxed atomic load and an early return — i.e. solver
//! wall-clock with telemetry compiled in but disabled stays within 5% of
//! the un-probed cost. Since the probes cannot be compiled out, the guard
//! is established from two directions:
//!
//! 1. **end-to-end**: median solver wall-clock with the sink disabled vs
//!    at `spans` vs at `full` on a generated mid-size MPI-ICFG, and
//! 2. **first-principles**: the measured per-probe cost of a disabled
//!    `span()`/`is_enabled()` pair times the probes one solve runs, as a
//!    fraction of the solver's measured cost. The probe count is measured,
//!    not assumed: it is the span opens, counters and instants one solve
//!    records with the sink at `full` (an over-count of the disabled path,
//!    which skips the traced-only headroom samples). Round-robin runs no
//!    probe per visit, only a handful per solve.
//!
//! The bench *asserts* bound (2) at ≤ 5% — a regression that makes the
//! disabled path allocate or lock, or that adds a probe to every visit,
//! shows in it.
//!
//! A third section guards the *always-on* serving observability: the
//! per-request SLO accounting (cache-outcome classification, histogram
//! record, access-line render) must stay ≤ 10% of the cheapest real
//! request the service answers — a warm in-memory cache hit. The final
//! line is a machine-readable JSON summary; the checked-in
//! `BENCH_telemetry.json` baseline is exactly that line.

use mpi_dfa_analyses::consts::ReachingConsts;
use mpi_dfa_analyses::mpi_match::{build_mpi_icfg, Matching};
use mpi_dfa_bench::{criterion_group, criterion_main, Criterion};
use mpi_dfa_core::solver::Solver;
use mpi_dfa_core::telemetry::{self, EventKind, TraceLevel};
use mpi_dfa_graph::icfg::ProgramIr;
use mpi_dfa_graph::mpi::MpiIcfg;
use mpi_dfa_service::obs::AccessRecord;
use mpi_dfa_service::{parse_request, slo, Engine, EngineConfig, SloRegistry};
use mpi_dfa_suite::gen::{generate, GenConfig};
use std::hint::black_box;
use std::time::Instant;

fn median_ns(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    samples[samples.len() / 2]
}

/// Median wall-clock (ns) of `samples` solver runs under the *current*
/// sink state, plus the (deterministic) visit count.
/// The probes one solve over `mpi` runs: every event it records at
/// `full` except span ends (a span is one probe). Leaves the sink off.
fn probes_per_solve(mpi: &MpiIcfg) -> usize {
    let p = ReachingConsts::new(mpi.icfg());
    telemetry::install(TraceLevel::Full);
    black_box(Solver::new(&p, mpi).run());
    let report = telemetry::finish();
    report
        .events
        .iter()
        .filter(|e| !matches!(e.kind, EventKind::SpanEnd { .. }))
        .count()
}

fn time_solver(mpi: &MpiIcfg, samples: usize) -> (f64, u64) {
    let p = ReachingConsts::new(mpi.icfg());
    let mut times = Vec::with_capacity(samples);
    let mut visits = 0;
    for _ in 0..samples {
        let t = Instant::now();
        let sol = black_box(Solver::new(&p, mpi).run());
        times.push(t.elapsed().as_secs_f64() * 1e9);
        assert!(sol.stats.converged, "bench graph must reach a fixpoint");
        visits = sol.stats.node_visits;
    }
    (median_ns(times), visits)
}

fn bench_overhead(c: &mut Criterion) {
    let src = generate(42, &GenConfig::scaled(3));
    let ir = ProgramIr::from_source(&src).expect("generated program compiles");
    let mpi = build_mpi_icfg(ir, "main", 1, Matching::ReachingConstants).expect("graph");

    // Standard printout via the criterion-compatible harness.
    let mut group = c.benchmark_group("telemetry_overhead/solver");
    group.sample_size(10);
    let p = ReachingConsts::new(mpi.icfg());
    group.bench_function("disabled", |b| {
        b.iter(|| black_box(Solver::new(&p, &mpi).run()));
    });
    telemetry::install(TraceLevel::Full);
    group.bench_function("full", |b| {
        b.iter(|| black_box(Solver::new(&p, &mpi).run()));
    });
    let full_report = telemetry::finish();
    group.finish();

    // Precise medians for the baseline JSON (sink state per block).
    let (disabled_ns, visits) = time_solver(&mpi, 15);
    telemetry::install(TraceLevel::Spans);
    let (spans_ns, _) = time_solver(&mpi, 15);
    telemetry::finish();
    telemetry::install(TraceLevel::Full);
    let (full_ns, _) = time_solver(&mpi, 15);
    telemetry::finish();

    // First-principles disabled-probe cost: a span open/drop plus an
    // is_enabled check, against a sink that is genuinely disabled.
    const PROBE_ITERS: u32 = 1_000_000;
    let t = Instant::now();
    for _ in 0..PROBE_ITERS {
        black_box(telemetry::is_enabled());
        let s = telemetry::span("bench", "probe");
        black_box(&s);
    }
    let probe_ns = t.elapsed().as_secs_f64() * 1e9 / f64::from(PROBE_ITERS);
    let probes = probes_per_solve(&mpi);
    let probes_per_visit = probes as f64 / visits as f64;
    let per_visit_ns = disabled_ns / visits as f64;
    let guard_pct = 100.0 * probe_ns * probes_per_visit / per_visit_ns;

    println!(
        "telemetry_overhead: disabled {disabled_ns:.0}ns, spans {spans_ns:.0}ns, \
         full {full_ns:.0}ns over {visits} visits; {probes} probes per solve \
         ({probes_per_visit:.5} per visit), disabled probe {probe_ns:.1}ns \
         => {guard_pct:.4}% of per-visit cost (bound 5%)"
    );
    assert!(
        guard_pct <= 5.0,
        "disabled telemetry probes cost {guard_pct:.4}% of solver per-visit time (> 5%); \
         the disabled path must stay a bare atomic load"
    );
    assert!(
        !full_report.events.is_empty(),
        "the full-level run must have recorded events"
    );

    // SLO hot path: the serving layer classifies the response, records a
    // latency sample into the log-bucketed histogram, and (when tracing)
    // renders one access-log line — on EVERY answered request, sink on or
    // off. That per-request cost must stay a small fraction of the
    // cheapest request the service answers: a warm in-memory cache hit.
    let engine = Engine::new(EngineConfig::default()).unwrap();
    let warm_req = parse_request(r#"{"id":1,"kind":"table1-row","row":"CG"}"#).unwrap();
    let warm_resp = engine.handle(&warm_req);
    assert!(warm_resp.contains("\"cache\":\"miss\""), "{warm_resp:.200}");
    let mut times = Vec::with_capacity(200);
    let mut hit_resp = String::new();
    for _ in 0..200 {
        let t = Instant::now();
        hit_resp = black_box(engine.handle(&warm_req));
        times.push(t.elapsed().as_secs_f64() * 1e9);
    }
    assert!(hit_resp.contains("\"cache\":\"hit\""), "{hit_resp:.200}");
    let warm_hit_ns = median_ns(times);

    const SLO_ITERS: u32 = 100_000;
    let reg = SloRegistry::new();
    let t = Instant::now();
    for i in 0..SLO_ITERS {
        let cache = black_box(slo::cache_outcome(&hit_resp));
        let tier = black_box(slo::tier_of(&hit_resp));
        reg.record("table1-row", cache, "0", u64::from(i % 1024) + 1);
        let line = AccessRecord {
            trace: 0xfeed_0000_c1a0_u128 + u128::from(i),
            verb: "table1-row".to_string(),
            shard: Some(0),
            epoch: 1,
            attempts: 1,
            cache: cache.to_string(),
            tier: tier.to_string(),
            latency_us: u64::from(i % 1024) + 1,
        }
        .render();
        black_box(&line);
    }
    let slo_ns = t.elapsed().as_secs_f64() * 1e9 / f64::from(SLO_ITERS);
    let slo_pct = 100.0 * slo_ns / warm_hit_ns;
    println!(
        "slo_hot_path: {slo_ns:.0}ns per request (histogram record + access render) \
         vs warm hit {warm_hit_ns:.0}ns => {slo_pct:.2}% (bound 10%)"
    );
    assert!(
        slo_pct <= 10.0,
        "per-request SLO accounting costs {slo_pct:.2}% of a warm cache hit (> 10%); \
         the histogram/access-log hot path must stay cheap"
    );
    assert!(reg.snapshot().values().map(|h| h.count()).sum::<u64>() == u64::from(SLO_ITERS));

    // Machine-readable baseline — `BENCH_telemetry.json` is this line.
    println!(
        "{{\"bench\":\"telemetry_overhead\",\"nodes\":{},\"node_visits\":{},\
         \"solver_ns_median\":{{\"disabled\":{:.0},\"spans\":{:.0},\"full\":{:.0}}},\
         \"probes_per_solve\":{},\
         \"disabled_probe_ns\":{:.2},\"disabled_overhead_bound_pct\":{:.4},\
         \"full_level_events\":{},\
         \"slo_hot_path_ns\":{:.0},\"warm_hit_ns\":{:.0},\"slo_overhead_pct\":{:.3}}}",
        mpi_dfa_core::FlowGraph::num_nodes(&mpi),
        visits,
        disabled_ns,
        spans_ns,
        full_ns,
        probes,
        probe_ns,
        guard_pct,
        full_report.events.len(),
        slo_ns,
        warm_hit_ns,
        slo_pct,
    );
}

criterion_group!(benches, bench_overhead);
criterion_main!(benches);
