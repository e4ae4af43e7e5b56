//! `ConvergenceStats` invariants on the real benchmark programs.
//!
//! The unit tests in `mpi-dfa-core` pin the counter semantics on toy
//! graphs; these tests re-check them where it matters — the Table 1
//! benchmarks — and add the cross-engine bound the region engine's design
//! promises: a region's round-separated dirty sweeps never do more work
//! than a round-robin sweep restricted to that region, so on every program
//! a demand for every node visits no more nodes than round-robin, while
//! producing the identical fixpoint.

use mpi_dfa_analyses::activity::{vary_useful_problems, ActivityConfig, Mode};
use mpi_dfa_analyses::mpi_match::{build_mpi_icfg, Matching};
use mpi_dfa_core::graph::{FlowGraph, NodeId};
use mpi_dfa_core::problem::Dataflow;
use mpi_dfa_core::solver::{ConvergenceStats, Solution, Solver};
use mpi_dfa_graph::mpi::MpiIcfg;
use mpi_dfa_suite::all_experiments;
use mpi_dfa_suite::programs;

/// Row IDs to exercise: one per distinct benchmark program (running every
/// LU/Sw variant re-checks the same graphs with different seeds).
const ROWS: &[&str] = &["Biostat", "SOR", "CG", "LU-1", "MG-1", "Sw-1"];

/// The region engine over the whole graph: a demand for every node.
fn region<P: Dataflow>(problem: &P, mpi: &MpiIcfg) -> Solution<P::Fact> {
    let first = Solver::new(problem, mpi).demand(NodeId(0)).expect("a node");
    (1..mpi.num_nodes() as u32)
        .try_fold(first, |d, n| d.demand(NodeId(n)))
        .expect("every node is in range")
        .run()
        .solution
}

fn suite_graphs() -> Vec<(&'static str, MpiIcfg, ActivityConfig)> {
    all_experiments()
        .iter()
        .filter(|s| ROWS.contains(&s.id))
        .map(|spec| {
            let ir = programs::ir(spec.program);
            let mpi = build_mpi_icfg(
                ir,
                spec.context,
                spec.clone_level,
                Matching::ReachingConstants,
            )
            .unwrap_or_else(|e| panic!("{}: {e}", spec.id));
            let config = ActivityConfig::new(spec.independents.to_vec(), spec.dependents.to_vec());
            (spec.id, mpi, config)
        })
        .collect()
}

#[test]
fn region_visits_bounded_by_round_robin_on_suite_programs() {
    for (id, mpi, config) in suite_graphs() {
        let (vary_p, useful_p) =
            vary_useful_problems(mpi.icfg(), Mode::MpiIcfg, &config).expect("problems");

        for (phase, rr, rg) in [
            (
                "vary",
                Solver::new(&vary_p, &mpi).run(),
                region(&vary_p, &mpi),
            ),
            (
                "useful",
                Solver::new(&useful_p, &mpi).run(),
                region(&useful_p, &mpi),
            ),
        ] {
            assert!(rr.stats.converged && rg.stats.converged, "{id}");
            assert_eq!(
                rr.input, rg.input,
                "{id} {phase}: the engines must agree on the fixpoint"
            );
            assert_eq!(rr.output, rg.output, "{id} {phase}");
            assert!(
                rg.stats.node_visits <= rr.stats.node_visits,
                "{id} {phase}: region {} visits > round-robin {}",
                rg.stats.node_visits,
                rr.stats.node_visits
            );
            // Counter bookkeeping holds on real graphs, not just toys.
            for s in [&rr.stats, &rg.stats] {
                assert_eq!(
                    s.per_node_visits.iter().sum::<u64>(),
                    s.node_visits,
                    "{id} {phase}: per-node visits must sum to the total"
                );
                assert!(
                    s.pass_deltas.iter().sum::<u64>() > 0,
                    "{id} {phase}: some node must change before the fixpoint"
                );
            }
            assert_eq!(
                rr.stats.pass_deltas.len(),
                rr.stats.passes,
                "{id} {phase}: one delta recorded per round-robin pass"
            );
            assert_eq!(
                *rr.stats.pass_deltas.last().expect("at least one pass"),
                0,
                "{id} {phase}: a converged round-robin run ends with a zero-delta pass"
            );
            assert!(
                rg.stats.worklist_peak > 0 && rr.stats.worklist_peak == 0,
                "{id} {phase}: only the region engine has a queue"
            );
        }
    }
}

#[test]
fn absorb_is_order_independent_across_benchmark_stats() {
    // Absorbing the per-benchmark stats in any order yields the same
    // counters — the property that makes cross-run metric aggregation in
    // the telemetry sink well-defined. Mixing in stats produced by the
    // region engine (which itself merges per-region stats in region-id
    // order) extends the property to region-merged inputs.
    let mut stats: Vec<ConvergenceStats> = Vec::new();
    for (_, mpi, config) in suite_graphs().iter() {
        let (vary_p, _) = vary_useful_problems(mpi.icfg(), Mode::MpiIcfg, config).unwrap();
        stats.push(Solver::new(&vary_p, mpi).run().stats);
        stats.push(region(&vary_p, mpi).stats);
        // Record a graph-size witness so zero-padding in absorb is hit.
        assert!(mpi.num_nodes() > 0);
    }
    assert!(stats.len() >= 6);

    let absorb_all = |order: &[usize]| {
        let mut acc = ConvergenceStats::default();
        for &i in order {
            acc.absorb(&stats[i]);
        }
        (
            acc.passes,
            acc.node_visits,
            acc.comm_evals,
            acc.meets,
            acc.worklist_peak,
            acc.pass_deltas.clone(),
            acc.per_node_visits.clone(),
        )
    };
    let forward: Vec<usize> = (0..stats.len()).collect();
    let backward: Vec<usize> = (0..stats.len()).rev().collect();
    assert_eq!(
        absorb_all(&forward),
        absorb_all(&backward),
        "absorb must be order-independent on the counters"
    );
}
