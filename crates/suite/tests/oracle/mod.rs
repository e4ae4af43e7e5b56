//! A deliberately naive reference solver for the equivalence tests.
//!
//! It shares no code with `mpi_dfa_core::solver`: it iterates the
//! equations of DESIGN.md §1 exactly as the `Dataflow` trait documents
//! them. One round recomputes every node in index order (reverse index
//! order for backward problems, so information still flows with the
//! loop):
//!
//! 1. control meet: the boundary fact at boundary nodes and lattice top
//!    elsewhere, met with the output of every upstream control edge's
//!    source, translated (on a fresh copy) across call/return edges;
//! 2. communication: `f_comm` evaluated afresh at every upstream
//!    communication neighbour (the graph's pairs, expanded), on that
//!    neighbour's *input* fact, in ascending node id, and folded with
//!    `meet_with` from `CommFact::top()` (the paper's ⊓ over
//!    `commpred(n)`);
//! 3. transfer: the node transfer function of the met input and the
//!    communication meet, applied to a fresh copy of the met input.
//!
//! Rounds repeat until none changes a fact. There is no memo, no visit
//! order beyond node ids, and no regions. For a monotone problem the
//! maximal fixpoint is unique, so both engines must land on exactly these
//! facts.

use mpi_dfa_core::graph::{Edge, EdgeKind, FlowGraph, NodeId};
use mpi_dfa_core::lattice::MeetSemiLattice;
use mpi_dfa_core::problem::{Dataflow, Direction};

/// The oracle's fixpoint, oriented like a solver `Solution`: `input` feeds
/// each node's transfer and `output` is what the transfer produces.
pub struct Facts<F> {
    pub input: Vec<F>,
    pub output: Vec<F>,
}

/// Iterate the equations until no fact changes. Panics after `max_rounds`
/// rounds: a monotone problem over a finite-height lattice never gets
/// there.
pub fn solve<P: Dataflow, G: FlowGraph>(
    problem: &P,
    graph: &G,
    max_rounds: usize,
) -> Facts<P::Fact> {
    let n = graph.num_nodes();
    let backward = problem.direction() == Direction::Backward;
    let boundary = if backward {
        graph.exits()
    } else {
        graph.entries()
    };
    // Under the analysis direction: the control edges whose facts flow
    // into a node, and the node each of them comes from.
    let upstream = |node: NodeId| {
        if backward {
            graph.out_edges(node)
        } else {
            graph.in_edges(node)
        }
    };
    let source = |e: &Edge| if backward { e.to } else { e.from };
    let order: Vec<usize> = if backward {
        (0..n).rev().collect()
    } else {
        (0..n).collect()
    };

    let mut input = vec![problem.top(); n];
    let mut output = vec![problem.top(); n];
    for _ in 0..max_rounds {
        let mut changed = false;
        for &i in &order {
            let node = NodeId(i as u32);
            let mut met = if boundary.contains(&node) {
                problem.boundary()
            } else {
                problem.top()
            };
            let mut comm = P::CommFact::top();
            let classes = graph.comm_classes();
            let comm_upstream = if backward {
                classes.succs(node)
            } else {
                classes.preds(node).to_vec()
            };
            for src in comm_upstream {
                comm.meet_with(&problem.comm_transfer(src, &input[src.index()]));
            }
            for e in upstream(node) {
                let src = source(e);
                if e.kind == EdgeKind::Flow {
                    problem.meet_into(&mut met, &output[src.index()]);
                } else {
                    let fact = &output[src.index()];
                    let mut translated = fact.clone();
                    problem.translate_into(e, fact, &mut translated);
                    problem.meet_into(&mut met, &translated);
                }
            }
            let mut out = met.clone();
            problem.transfer(node, &met, &comm, &mut out);
            if met != input[i] {
                input[i] = met;
                changed = true;
            }
            if out != output[i] {
                output[i] = out;
                changed = true;
            }
        }
        if !changed {
            return Facts { input, output };
        }
    }
    panic!("oracle: no fixpoint after {max_rounds} rounds");
}
