//! Cross-engine equivalence on the Table-1 benchmarks, checked against
//! an independent oracle.
//!
//! Every Table-1 program (Biostat, SOR, CG, LU, MG, Sweep3d) × the two
//! nonseparable analyses the paper runs (reaching constants; Vary/Useful
//! activity, i.e. both solver directions) × both engines (the round-robin
//! full solve, and the region engine as a demand for every node) must
//! produce exactly the facts of the naive reference solver in `oracle/`.
//! The two engines share their node update, so their agreement with each
//! other could not catch a bug in it; the oracle shares no code with
//! either. The same runs also re-check the `ConvergenceStats` bookkeeping
//! invariants under both engines. A hand-built graph covers the receiver-class
//! shapes the benchmarks may not: classes that share a source, a clique
//! with self edges, and a source that changes only on a late loop trip.

mod oracle;

use mpi_dfa_analyses::activity::{vary_useful_problems, ActivityConfig, Mode};
use mpi_dfa_analyses::consts::ReachingConsts;
use mpi_dfa_analyses::mpi_match::{build_mpi_icfg, Matching};
use mpi_dfa_core::graph::{FlowGraph, NodeId, SimpleGraph};
use mpi_dfa_core::lattice::MeetSemiLattice;
use mpi_dfa_core::problem::{Dataflow, Direction};
use mpi_dfa_core::solver::{ConvergenceStats, Solution, Solver};
use mpi_dfa_suite::{all_experiments, programs};

/// One row per distinct benchmark program — together these cover every
/// program in Table 1.
const ROWS: &[&str] = &["Biostat", "SOR", "CG", "LU-1", "MG-1", "Sw-1"];

fn check_stats_invariants(id: &str, label: &str, engine: &str, stats: &ConvergenceStats) {
    assert!(stats.converged, "{id} {label} [{engine}] must converge");
    assert_eq!(
        stats.per_node_visits.iter().sum::<u64>(),
        stats.node_visits,
        "{id} {label} [{engine}]: per-node visits must sum to the total"
    );
    assert!(
        stats.pass_deltas.iter().sum::<u64>() > 0,
        "{id} {label} [{engine}]: some node must change before the fixpoint"
    );
    assert!(
        stats.node_visits > 0,
        "{id} {label} [{engine}]: a solve must visit nodes"
    );
}

/// Both engines over the whole graph: the round-robin full solve, and the
/// region engine as a demand for every node.
fn engines<P: Dataflow, G: FlowGraph>(
    problem: &P,
    graph: &G,
) -> [(&'static str, Solution<P::Fact>); 2] {
    let first = Solver::new(problem, graph)
        .demand(NodeId(0))
        .expect("a node");
    let demand = (1..graph.num_nodes() as u32)
        .try_fold(first, |d, n| d.demand(NodeId(n)))
        .expect("every node is in range")
        .run();
    [
        ("round-robin", Solver::new(problem, graph).run()),
        ("demand", demand.solution),
    ]
}

/// Solve `problem` over `graph` with both engines and assert the facts
/// are identical to the oracle's, byte for byte.
fn assert_engines_match_oracle<P, G>(id: &str, label: &str, graph: &G, problem: &P)
where
    P: Dataflow,
    P::Fact: std::fmt::Debug,
    G: FlowGraph,
{
    let reference = oracle::solve(problem, graph, 10_000);
    for (engine, sol) in engines(problem, graph) {
        check_stats_invariants(id, label, engine, &sol.stats);
        assert_eq!(
            sol.input, reference.input,
            "{id} {label} [{engine}]: IN facts must match the oracle"
        );
        assert_eq!(
            sol.output, reference.output,
            "{id} {label} [{engine}]: OUT facts must match the oracle"
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
        assert_engines_match_oracle(spec.id, "consts", &mpi, &consts);

        // Activity: Vary (forward) and Useful (backward) — both solver
        // directions over communication edges.
        let config = ActivityConfig::new(spec.independents.to_vec(), spec.dependents.to_vec());
        let (vary_p, useful_p) =
            vary_useful_problems(mpi.icfg(), Mode::MpiIcfg, &config).expect("problems");
        assert_engines_match_oracle(spec.id, "vary", &mpi, &vary_p);
        assert_engines_match_oracle(spec.id, "useful", &mpi, &useful_p);
    }
}

/// A `u16` bitset whose meet is union: the comm fact of [`Doubling`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct Bits(u16);

impl MeetSemiLattice for Bits {
    fn top() -> Self {
        Bits(0)
    }

    fn meet_with(&mut self, other: &Self) -> bool {
        let before = self.0;
        self.0 |= other.0;
        self.0 != before
    }
}

/// Forward union over `u16` bitsets: `gen` bits, a latch that doubles its
/// set on every loop trip, a gate that passes its input only once bit 8
/// has arrived (eight trips in), and every node unions in its comm meet.
/// `f_comm` sends the source's input.
struct Doubling {
    gen: Vec<u16>,
    latch: usize,
    gate: usize,
}

impl Dataflow for Doubling {
    type Fact = u16;
    type CommFact = Bits;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn top(&self) -> u16 {
        0
    }

    fn boundary(&self) -> u16 {
        0
    }

    fn meet_into(&self, dst: &mut u16, src: &u16) -> bool {
        let before = *dst;
        *dst |= *src;
        *dst != before
    }

    fn transfer(&self, node: NodeId, input: &u16, comm: &Bits, out: &mut u16) {
        let i = node.index();
        if i == self.gate && input & (1 << 8) == 0 {
            *out = 0;
        }
        *out |= self.gen[i] | comm.0;
        if i == self.latch {
            *out |= *out << 1;
        }
    }

    fn comm_transfer(&self, _node: NodeId, input: &u16) -> Bits {
        Bits(*input)
    }
}

#[test]
fn receiver_classes_match_the_oracle_on_a_hand_built_graph() {
    // Loop: header 1 -> latch 2 -> 1, and 1 -> gate 3 -> late source 4
    // -> 1. Source 5 hangs off the header, source 6 off the entry.
    // Receiver 7 (in the loop, 7 -> 1) hears {4, 5}; receiver 8 hears
    // {5, 6}: two classes sharing source 5. Nodes 9, 10, 11 form an
    // all-pairs clique with self edges, fed by 7, 8 and the latch; all of
    // them reach the exit 12.
    let mut g = SimpleGraph::new(13);
    for (a, b) in [
        (0, 1),
        (1, 2),
        (2, 1),
        (1, 3),
        (3, 4),
        (4, 1),
        (1, 5),
        (0, 6),
        (1, 7),
        (7, 1),
        (0, 8),
        (7, 9),
        (8, 10),
        (2, 11),
        (9, 12),
        (10, 12),
        (11, 12),
        (1, 12),
    ] {
        g.flow(a, b);
    }
    let comm = |g: &mut SimpleGraph, a: u32, b: u32| g.comm(a, b);
    for (a, b) in [(4, 7), (5, 7), (5, 8), (6, 8)] {
        comm(&mut g, a, b);
    }
    for a in 9..=11 {
        for b in 9..=11 {
            comm(&mut g, a, b);
        }
    }
    g.set_entry(0);
    g.set_exit(12);
    let mut gen = vec![0u16; 13];
    gen[0] = 1;
    gen[5] = 1 << 12;
    gen[6] = 1 << 15;
    let problem = Doubling {
        gen,
        latch: 2,
        gate: 3,
    };

    let reference = oracle::solve(&problem, &g, 1_000);
    assert_ne!(reference.input[4], 0, "the gate opens on a late trip");
    assert_ne!(reference.output[7] & 1 << 8, 0, "7 hears the late source");
    assert_ne!(reference.output[8] & 1 << 15, 0, "8 hears source 6");
    assert_ne!(
        reference.output[9] & 1 << 15,
        0,
        "the clique spreads 8's bit"
    );
    let late = Solver::new(&problem, &g).run();
    assert!(late.stats.passes >= 9, "{} passes", late.stats.passes);
    assert_engines_match_oracle("hand-built", "doubling", &g, &problem);
}
