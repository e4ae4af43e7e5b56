//! Solver scaling ablation (Section 4.2's complexity discussion).
//!
//! The paper bounds convergence by graph depth × number of variables and
//! observes that real iteration counts stay far below the bound. This bench
//! measures how activity solving scales with generated-program size and
//! times the round-robin sweep on a fixed program (the region engine's
//! gate on the same generator is `solver_parallel`).

use mpi_dfa_analyses::activity::{self, ActivityConfig};
use mpi_dfa_analyses::consts::ReachingConsts;
use mpi_dfa_analyses::mpi_match::{build_mpi_icfg, Matching};
use mpi_dfa_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mpi_dfa_core::solver::Solver;
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

    let mut group = c.benchmark_group("solver_scaling/sweep");
    group.sample_size(10);
    let mpi = graph_for(4);
    group.bench_function("round_robin", |b| {
        let p = ReachingConsts::new(mpi.icfg());
        b.iter(|| black_box(Solver::new(&p, &mpi).run()));
    });
    group.finish();

    // Budget headroom: the work-unit cost of a full fixpoint (node visits,
    // `f_comm` evaluations, elapsed) — i.e. the budget a production caller
    // must grant before the degradation ladder kicks in.
    let p = ReachingConsts::new(mpi.icfg());
    let stats = Solver::new(&p, &mpi).run().stats;
    println!(
        "solver_scaling/budget_headroom/round_robin: {} node visits, {} comm evals, \
         {} passes, {:?} (converged={})",
        stats.node_visits, stats.comm_evals, stats.passes, stats.elapsed, stats.converged
    );
}

criterion_group!(benches, bench_scaling);
criterion_main!(benches);
