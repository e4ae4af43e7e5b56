//! Region engine gate: a deterministic visit-ratio floor, not a timing one.
//!
//! On the largest `suite::gen` multi-procedure program (seed 42,
//! `GenConfig::scaled(5)` — the top end of the `solver_scaling` sweep)
//! three problems are solved by both engines — the round-robin full solve
//! and the region engine as a demand for every node: reaching constants
//! (forward, nonseparable) and the Vary/Useful activity pair (both solver
//! directions). For each problem the bench asserts that
//!
//! * the region engine's facts equal round-robin's, byte for byte,
//! * region `node_visits` / round-robin `node_visits` stays at or below
//!   the problem's `*_CEILING` constant, and
//! * the transfers round-robin runs (`evaluated_visits`: its sweep
//!   positions minus the ones it skips because no input changed) stay
//!   within [`EVALUATED_TOLERANCE`] of the region engine's visits.
//!
//! Visit counts are exact, so the gate does not depend on the host. The
//! ceilings are the measured ratios (20,307/64,680, 14,157/34,650 and
//! 6,817/13,860) rounded up to two decimals. Medians of wall-clock time
//! and the visits that changed a fact (`changed_visits`, Σ `pass_deltas`)
//! are printed but not asserted: timing belongs to `perfbench/`.
//!
//! The final line is a machine-readable JSON summary; the checked-in
//! `BENCH_solver.json` baseline is that line plus the date, git rev, host
//! and command it was recorded with.

use mpi_dfa_analyses::activity::{vary_useful_problems, ActivityConfig, Mode};
use mpi_dfa_analyses::consts::ReachingConsts;
use mpi_dfa_analyses::mpi_match::{build_mpi_icfg, Matching};
use mpi_dfa_bench::{criterion_group, criterion_main, Criterion};
use mpi_dfa_core::graph::{FlowGraph, NodeId};
use mpi_dfa_core::problem::Dataflow;
use mpi_dfa_core::scc::condense;
use mpi_dfa_core::solver::{Solution, Solver};
use mpi_dfa_graph::icfg::ProgramIr;
use mpi_dfa_graph::mpi::MpiIcfg;
use mpi_dfa_suite::gen::{generate, GenConfig};
use std::hint::black_box;
use std::time::Instant;

/// Asserted ceilings on region / round-robin node visits, per problem.
const CONSTS_CEILING: f64 = 0.32;
const VARY_CEILING: f64 = 0.41;
const USEFUL_CEILING: f64 = 0.50;

/// Asserted bound on |round-robin `evaluated_visits` / region
/// `node_visits` - 1|: both engines run a node only when an input of it
/// changed, in different orders.
const EVALUATED_TOLERANCE: f64 = 0.01;

/// Timed iterations per (problem, strategy) cell.
const SAMPLES: usize = 9;

/// The largest generated program in the scaling sweep.
fn graph() -> MpiIcfg {
    let src = generate(42, &GenConfig::scaled(5));
    let ir = ProgramIr::from_source(&src).expect("generated program compiles");
    build_mpi_icfg(ir, "main", 1, Matching::ReachingConstants).expect("graph")
}

/// The two engines a cell can run.
#[derive(Clone, Copy)]
enum Engine {
    RoundRobin,
    /// The region engine over the whole graph: a demand for every node.
    Region,
}

impl Engine {
    fn run<P: Dataflow>(self, problem: &P, mpi: &MpiIcfg) -> Solution<P::Fact> {
        let solver = Solver::new(problem, mpi);
        match self {
            Engine::RoundRobin => solver.run(),
            Engine::Region => {
                let first = solver.demand(NodeId(0)).expect("a node");
                (1..mpi.num_nodes() as u32)
                    .try_fold(first, |d, n| d.demand(NodeId(n)))
                    .expect("every node is in range")
                    .run()
                    .solution
            }
        }
    }
}

/// One engine's cell: its solution, median wall-clock and visits.
struct Cell<F> {
    solution: Solution<F>,
    median_ns: f64,
}

impl<F> Cell<F> {
    fn visits(&self) -> u64 {
        self.solution.stats.node_visits
    }

    fn evaluated_visits(&self) -> u64 {
        self.solution.stats.evaluated_visits
    }

    fn changed_visits(&self) -> u64 {
        self.solution.stats.pass_deltas.iter().sum()
    }

    fn json(&self, strategy: &str) -> String {
        format!(
            "{{\"strategy\":\"{strategy}\",\"node_visits\":{},\"evaluated_visits\":{},\
             \"changed_visits\":{},\"ns_median\":{:.0}}}",
            self.visits(),
            self.evaluated_visits(),
            self.changed_visits(),
            self.median_ns
        )
    }
}

fn solve<P: Dataflow>(mpi: &MpiIcfg, problem: &P, engine: Engine) -> Cell<P::Fact> {
    let mut times = Vec::with_capacity(SAMPLES);
    let mut last = None;
    for _ in 0..SAMPLES {
        let t = Instant::now();
        let sol = black_box(engine.run(problem, mpi));
        times.push(t.elapsed().as_secs_f64() * 1e9);
        assert!(sol.stats.converged, "every engine must converge");
        last = Some(sol);
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    Cell {
        solution: last.expect("at least one sample"),
        median_ns: times[SAMPLES / 2],
    }
}

/// Solve `problem` both ways, assert the gate, and return its JSON object.
fn gate<P: Dataflow>(name: &str, ceiling: f64, mpi: &MpiIcfg, problem: &P) -> String
where
    P::Fact: std::fmt::Debug,
{
    let rr = solve(mpi, problem, Engine::RoundRobin);
    let rg = solve(mpi, problem, Engine::Region);
    assert_eq!(
        rg.solution.input, rr.solution.input,
        "{name}: region IN facts must match round-robin"
    );
    assert_eq!(
        rg.solution.output, rr.solution.output,
        "{name}: region OUT facts must match round-robin"
    );
    let ratio = rg.visits() as f64 / rr.visits() as f64;
    let evaluated = rr.evaluated_visits() as f64 / rg.visits() as f64;
    println!(
        "solver_parallel {name}: region {}/{} visits = {ratio:.4} (ceiling {ceiling}); \
         round-robin evaluated {} = {evaluated:.4} of region; \
         changed {}/{}; median {:.0}ns vs round-robin {:.0}ns",
        rg.visits(),
        rr.visits(),
        rr.evaluated_visits(),
        rg.changed_visits(),
        rr.changed_visits(),
        rg.median_ns,
        rr.median_ns
    );
    assert!(
        ratio <= ceiling,
        "{name}: region makes {ratio:.4} of round-robin's node visits (ceiling {ceiling})"
    );
    assert!(
        (evaluated - 1.0).abs() <= EVALUATED_TOLERANCE,
        "{name}: round-robin evaluates {evaluated:.4} of the region engine's visits \
         (tolerance {EVALUATED_TOLERANCE})"
    );
    format!(
        "{{\"problem\":\"{name}\",\"visit_ratio\":{ratio:.4},\"max_visit_ratio\":{ceiling},\
         \"strategies\":[{},{}]}}",
        rr.json("round_robin"),
        rg.json("region")
    )
}

fn bench_solver_parallel(c: &mut Criterion) {
    let mpi = graph();
    let nodes = mpi.num_nodes();
    let cond = condense(&mpi);
    println!(
        "solver_parallel graph: {nodes} nodes, {} regions (largest {})",
        cond.num_regions(),
        cond.largest_region()
    );

    let consts = ReachingConsts::new(mpi.icfg());
    let config = ActivityConfig::new(["s0"], ["s1"]);
    let (vary_p, useful_p) =
        vary_useful_problems(mpi.icfg(), Mode::MpiIcfg, &config).expect("problems");

    // Standard printout via the criterion-compatible harness (consts only).
    let mut group = c.benchmark_group("solver_parallel/consts");
    group.sample_size(10);
    for (label, engine) in [
        ("round_robin", Engine::RoundRobin),
        ("region", Engine::Region),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| black_box(engine.run(&consts, &mpi)));
        });
    }
    group.finish();

    let problems = [
        gate("consts", CONSTS_CEILING, &mpi, &consts),
        gate("vary", VARY_CEILING, &mpi, &vary_p),
        gate("useful", USEFUL_CEILING, &mpi, &useful_p),
    ];

    // Machine-readable baseline — `BENCH_solver.json` is this line.
    println!(
        "{{\"bench\":\"solver_parallel\",\"graph\":{{\"generator\":\
         \"gen::GenConfig::scaled(5), seed 42\",\"nodes\":{nodes},\"regions\":{},\
         \"largest_region\":{}}},\"problems\":[{}]}}",
        cond.num_regions(),
        cond.largest_region(),
        problems.join(","),
    );
}

criterion_group!(benches, bench_solver_parallel);
criterion_main!(benches);
