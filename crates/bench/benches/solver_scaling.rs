//! Solver scaling ablation (Section 4.2's complexity discussion).
//!
//! The paper bounds convergence by graph depth × number of variables and
//! observes that real iteration counts stay far below the bound. This bench
//! measures how the two solver strategies scale with generated-program size
//! and quantifies the round-robin vs worklist gap on a fixed program.

use mpi_dfa_analyses::activity::{self, ActivityConfig};
use mpi_dfa_analyses::consts::ReachingConsts;
use mpi_dfa_analyses::mpi_match::{build_mpi_icfg, Matching};
use mpi_dfa_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mpi_dfa_core::solver::{Solver, Strategy};
use mpi_dfa_graph::icfg::ProgramIr;
use mpi_dfa_graph::mpi::MpiIcfg;
use mpi_dfa_suite::gen::{generate, GenConfig};
use std::hint::black_box;

fn graph_for(factor: usize) -> MpiIcfg {
    let src = generate(42, &GenConfig::scaled(factor));
    let ir = ProgramIr::from_source(&src).expect("generated program compiles");
    build_mpi_icfg(ir, "main", 1, Matching::ReachingConstants).expect("graph")
}

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver_scaling/activity");
    group.sample_size(10);
    // Collective matching is all-pairs (quadratic in same-root collective
    // count), so generated-program factors stay modest; factor 5 already
    // yields a ~7k-node graph with hundreds of thousands of communication edges.
    for factor in [1usize, 2, 3, 4, 5] {
        let mpi = graph_for(factor);
        let nodes = mpi_dfa_core::FlowGraph::num_nodes(&mpi);
        let config = ActivityConfig::new(["s0"], ["s1"]);
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &mpi, |b, mpi| {
            b.iter(|| black_box(activity::analyze_mpi(mpi, &config).unwrap()));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("solver_scaling/strategy");
    group.sample_size(10);
    let mpi = graph_for(4);
    group.bench_function("round_robin", |b| {
        let p = ReachingConsts::new(mpi.icfg());
        b.iter(|| black_box(Solver::new(&p, &mpi).strategy(Strategy::RoundRobin).run()));
    });
    group.bench_function("worklist", |b| {
        let p = ReachingConsts::new(mpi.icfg());
        b.iter(|| black_box(Solver::new(&p, &mpi).strategy(Strategy::Worklist).run()));
    });
    group.finish();

    // Budget headroom: both strategies report the same consumption schema
    // (node visits, `f_comm` evaluations, elapsed), so the work-unit cost
    // of a full fixpoint — i.e. the budget a production caller must grant
    // before the degradation ladder kicks in — can be charted per strategy.
    let p = ReachingConsts::new(mpi.icfg());
    let rr = Solver::new(&p, &mpi).strategy(Strategy::RoundRobin).run();
    let wl = Solver::new(&p, &mpi).strategy(Strategy::Worklist).run();
    for (name, stats) in [("round_robin", &rr.stats), ("worklist", &wl.stats)] {
        println!(
            "solver_scaling/budget_headroom/{name}: {} node visits, {} comm evals, \
             {} passes, {:?} (converged={})",
            stats.node_visits, stats.comm_evals, stats.passes, stats.elapsed, stats.converged
        );
    }
}

criterion_group!(benches, bench_scaling);
criterion_main!(benches);
