//! Cross-strategy equivalence on the Table-1 benchmarks, checked against
//! an independent oracle.
//!
//! Every Table-1 program (Biostat, SOR, CG, LU, MG, Sweep3d) × the two
//! nonseparable analyses the paper runs (reaching constants; Vary/Useful
//! activity, i.e. both solver directions) × both strategies must produce
//! exactly the facts of the naive reference solver in `oracle/`. The two
//! engines share their node update, so their agreement with each other
//! could not catch a bug in it; the oracle shares no code with either. The
//! same runs also re-check the `ConvergenceStats` bookkeeping invariants
//! under every strategy.

mod oracle;

use mpi_dfa_analyses::activity::{vary_useful_problems, ActivityConfig, Mode};
use mpi_dfa_analyses::consts::ReachingConsts;
use mpi_dfa_analyses::mpi_match::{build_mpi_icfg, Matching};
use mpi_dfa_core::problem::Dataflow;
use mpi_dfa_core::solver::{ConvergenceStats, Solver, Strategy};
use mpi_dfa_graph::mpi::MpiIcfg;
use mpi_dfa_suite::{all_experiments, programs};

/// One row per distinct benchmark program — together these cover every
/// program in Table 1.
const ROWS: &[&str] = &["Biostat", "SOR", "CG", "LU-1", "MG-1", "Sw-1"];

fn check_stats_invariants(id: &str, label: &str, strategy: Strategy, stats: &ConvergenceStats) {
    assert!(stats.converged, "{id} {label} [{strategy}] must converge");
    assert_eq!(
        stats.per_node_visits.iter().sum::<u64>(),
        stats.node_visits,
        "{id} {label} [{strategy}]: per-node visits must sum to the total"
    );
    assert!(
        stats.pass_deltas.iter().sum::<u64>() > 0,
        "{id} {label} [{strategy}]: some node must change before the fixpoint"
    );
    assert!(
        stats.node_visits > 0,
        "{id} {label} [{strategy}]: a solve must visit nodes"
    );
}

/// Solve `problem` over `mpi` under both strategies and assert the facts
/// are identical to the oracle's, byte for byte.
fn assert_strategies_match_oracle<P>(id: &str, label: &str, mpi: &MpiIcfg, problem: &P)
where
    P: Dataflow,
    P::Fact: std::fmt::Debug,
{
    let reference = oracle::solve(problem, mpi, 10_000);
    for strategy in [Strategy::RoundRobin, Strategy::Region] {
        let sol = Solver::new(problem, mpi).strategy(strategy).run();
        check_stats_invariants(id, label, strategy, &sol.stats);
        assert_eq!(
            sol.input, reference.input,
            "{id} {label} [{strategy}]: IN facts must match the oracle"
        );
        assert_eq!(
            sol.output, reference.output,
            "{id} {label} [{strategy}]: OUT facts must match the oracle"
        );
    }
}

#[test]
fn every_table1_program_and_analysis_matches_the_oracle() {
    for spec in all_experiments().iter().filter(|s| ROWS.contains(&s.id)) {
        let ir = programs::ir(spec.program);
        let mpi = build_mpi_icfg(
            ir,
            spec.context,
            spec.clone_level,
            Matching::ReachingConstants,
        )
        .unwrap_or_else(|e| panic!("{}: {e}", spec.id));

        // Reaching constants over the MPI-ICFG (forward, nonseparable).
        let consts = ReachingConsts::new(mpi.icfg());
        assert_strategies_match_oracle(spec.id, "consts", &mpi, &consts);

        // Activity: Vary (forward) and Useful (backward) — both solver
        // directions over communication edges.
        let config = ActivityConfig::new(spec.independents.to_vec(), spec.dependents.to_vec());
        let (vary_p, useful_p) =
            vary_useful_problems(mpi.icfg(), Mode::MpiIcfg, &config).expect("problems");
        assert_strategies_match_oracle(spec.id, "vary", &mpi, &vary_p);
        assert_strategies_match_oracle(spec.id, "useful", &mpi, &useful_p);
    }
}
