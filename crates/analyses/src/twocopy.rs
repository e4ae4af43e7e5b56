//! The two-copy CFG alternative (Section 2 related work).
//!
//! The paper discusses an approach due to Krishnamurthy & Yelick: replicate
//! the control-flow graph, give each copy its own namespace, and let
//! communication edges cross between the copies — properly modeling the
//! disjoint memory spaces of SPMD processes. It is precise but doubles the
//! graph; the paper's claim is that the one-copy MPI-ICFG framework
//! "provides results with equivalent precision".
//!
//! This module implements the two-copy construction so that claim can be
//! *measured*: [`TwoCopyGraph`] duplicates any MPI-ICFG (flow/call/return
//! edges within each copy, communication edges crossing copies), and
//! [`rebase`] adapts any node-indexed problem to run over it. Because
//! communication facts are lattice summaries rather than variable sets, the
//! two namespaces never mix through the crossing edges, so both copies can
//! share one location universe.

use mpi_dfa_core::graph::{CommClasses, Edge, FlowGraph, NodeId};
use mpi_dfa_core::problem::{Dataflow, Direction};
use mpi_dfa_graph::mpi::MpiIcfg;

/// Two disjoint copies of a base graph with communication crossing
/// between the copies. Node `i + N` is copy B's instance of base node `i`.
#[derive(Debug)]
pub struct TwoCopyGraph {
    base_nodes: usize,
    in_edges: Vec<Vec<Edge>>,
    out_edges: Vec<Vec<Edge>>,
    entries: Vec<NodeId>,
    exits: Vec<NodeId>,
    /// Each base class twice: copy A's sources feeding copy B's receivers
    /// and the other way round.
    comm: CommClasses,
}

impl TwoCopyGraph {
    /// Duplicate `g`.
    pub fn build(g: &MpiIcfg) -> TwoCopyGraph {
        let n = g.num_nodes();
        let shift = |node: NodeId| NodeId(node.0 + n as u32);
        let mut in_edges = vec![Vec::new(); 2 * n];
        let mut out_edges = vec![Vec::new(); 2 * n];
        let push = |e: Edge, ins: &mut Vec<Vec<Edge>>, outs: &mut Vec<Vec<Edge>>| {
            outs[e.from.index()].push(e);
            ins[e.to.index()].push(e);
        };
        for i in 0..n {
            for e in g.out_edges(NodeId(i as u32)) {
                push(*e, &mut in_edges, &mut out_edges);
                push(
                    Edge {
                        from: shift(e.from),
                        to: shift(e.to),
                        kind: e.kind,
                    },
                    &mut in_edges,
                    &mut out_edges,
                );
            }
        }
        // Crossing classes only: copy A sends to copy B and vice versa (the
        // two simulated processes).
        let base = g.comm_classes();
        let shifted = |list: &[NodeId]| list.iter().map(|&m| shift(m)).collect::<Vec<_>>();
        let comm = CommClasses::new(
            2 * n,
            (0..base.num_classes()).flat_map(|c| {
                let (srcs, rcvs) = (base.sources(c), base.receivers(c));
                [
                    (srcs.to_vec(), shifted(rcvs)),
                    (shifted(srcs), rcvs.to_vec()),
                ]
            }),
        );
        let entries = g.entries().iter().flat_map(|&e| [e, shift(e)]).collect();
        let exits = g.exits().iter().flat_map(|&e| [e, shift(e)]).collect();
        TwoCopyGraph {
            base_nodes: n,
            in_edges,
            out_edges,
            entries,
            exits,
            comm,
        }
    }

    /// Number of base-graph nodes (half the total).
    pub fn base_nodes(&self) -> usize {
        self.base_nodes
    }

    /// Map a doubled node back to its base node.
    pub fn to_base(&self, node: NodeId) -> NodeId {
        if (node.index()) < self.base_nodes {
            node
        } else {
            NodeId(node.0 - self.base_nodes as u32)
        }
    }
}

impl FlowGraph for TwoCopyGraph {
    fn num_nodes(&self) -> usize {
        2 * self.base_nodes
    }

    fn in_edges(&self, n: NodeId) -> &[Edge] {
        &self.in_edges[n.index()]
    }

    fn out_edges(&self, n: NodeId) -> &[Edge] {
        &self.out_edges[n.index()]
    }

    fn entries(&self) -> &[NodeId] {
        &self.entries
    }

    fn exits(&self) -> &[NodeId] {
        &self.exits
    }

    fn comm_classes(&self) -> &CommClasses {
        &self.comm
    }
}

/// Adapt a base-graph problem to the doubled node space: node ids are
/// rebased before reaching the inner problem, so its payload lookups work
/// unchanged.
pub struct Rebased<'a, P> {
    inner: &'a P,
    base_nodes: u32,
}

/// Wrap `inner` for solving over `graph`.
pub fn rebase<'a, P: Dataflow>(inner: &'a P, graph: &TwoCopyGraph) -> Rebased<'a, P> {
    Rebased {
        inner,
        base_nodes: graph.base_nodes as u32,
    }
}

impl<P: Dataflow> Rebased<'_, P> {
    fn base(&self, n: NodeId) -> NodeId {
        if n.0 < self.base_nodes {
            n
        } else {
            NodeId(n.0 - self.base_nodes)
        }
    }
}

impl<P: Dataflow> Dataflow for Rebased<'_, P> {
    type Fact = P::Fact;
    type CommFact = P::CommFact;

    fn direction(&self) -> Direction {
        self.inner.direction()
    }

    fn top(&self) -> Self::Fact {
        self.inner.top()
    }

    fn boundary(&self) -> Self::Fact {
        self.inner.boundary()
    }

    fn meet_into(&self, dst: &mut Self::Fact, src: &Self::Fact) -> bool {
        self.inner.meet_into(dst, src)
    }

    fn transfer(
        &self,
        node: NodeId,
        input: &Self::Fact,
        comm: &Self::CommFact,
        out: &mut Self::Fact,
    ) {
        self.inner.transfer(self.base(node), input, comm, out)
    }

    fn comm_transfer(&self, node: NodeId, input: &Self::Fact) -> Self::CommFact {
        self.inner.comm_transfer(self.base(node), input)
    }

    fn translate_into(&self, edge: &Edge, fact: &Self::Fact, out: &mut Self::Fact) {
        let rebased = Edge {
            from: self.base(edge.from),
            to: self.base(edge.to),
            kind: edge.kind,
        };
        self.inner.translate_into(&rebased, fact, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::{self, ActivityConfig, Mode};
    use crate::mpi_match::{build_mpi_icfg, Matching};
    use mpi_dfa_graph::icfg::ProgramIr;

    const FIGURE1: &str = "program fig1\n\
        global x: real; global z: real; global b: real; global y: real;\n\
        global f: real;\n\
        sub main() {\n\
          x = 0.0; z = 2.0; b = 7.0;\n\
          if (rank() == 0) {\n\
            x = x + 1.0; b = x * 3.0; send(x, 1, 9);\n\
          } else {\n\
            recv(y, 0, 9); z = b * y;\n\
          }\n\
          reduce(SUM, z, f, 0);\n\
        }";

    fn two_copy_active(src: &str, context: &str, ind: &[&str], dep: &[&str]) -> (u64, u64) {
        use mpi_dfa_core::solver::Solver;
        use mpi_dfa_core::varset::VarSet;

        let ir = ProgramIr::from_source(src).unwrap();
        let mpi = build_mpi_icfg(ir.clone(), context, 0, Matching::ReachingConstants).unwrap();
        let config = ActivityConfig::new(ind.to_vec(), dep.to_vec());

        // One-copy framework result.
        let one = activity::analyze_mpi(&mpi, &config).unwrap();

        // Two-copy result computed through the public per-phase problems:
        // reuse the framework's own vary/useful by running analyze over the
        // doubled graph via the Rebased adapter. The activity module does
        // not expose its problem structs, so we use the equivalent public
        // entry point below.
        let doubled = TwoCopyGraph::build(&mpi);
        let (vary, useful) =
            activity::vary_useful_problems(mpi.icfg(), Mode::MpiIcfg, &config).expect("problems");
        let v = Solver::new(&rebase(&vary, &doubled), &doubled).run();
        let u = Solver::new(&rebase(&useful, &doubled), &doubled).run();
        let mut active = VarSet::empty(ir.locs.len());
        for n in 0..doubled.num_nodes() {
            let node = NodeId(n as u32);
            active.union_into(&v.before(node).intersection(u.before(node)));
            active.union_into(&v.after(node).intersection(u.after(node)));
        }
        let bytes = activity::active_bytes(&ir.locs, &active);
        (one.active_bytes, bytes)
    }

    #[test]
    fn two_copy_matches_one_copy_on_figure1() {
        // The paper's Section 2 claim: the one-copy MPI-ICFG framework has
        // precision equivalent to the two-copy construction.
        let (one, two) = two_copy_active(FIGURE1, "main", &["x"], &["f"]);
        assert_eq!(one, two);
        assert_eq!(one, 32);
    }

    #[test]
    fn doubled_graph_structure() {
        let ir = ProgramIr::from_source(FIGURE1).unwrap();
        let mpi = build_mpi_icfg(ir, "main", 0, Matching::ReachingConstants).unwrap();
        let n = mpi.num_nodes();
        let comm = mpi.comm_edges.len();
        let doubled = TwoCopyGraph::build(&mpi);
        assert_eq!(doubled.num_nodes(), 2 * n);
        assert_eq!(doubled.entries().len(), 2);
        assert_eq!(doubled.exits().len(), 2);
        // Every comm pair crosses, once in each direction; control edges
        // stay inside their copy.
        let doubled_comm: Vec<(NodeId, NodeId)> = doubled.comm_classes().pairs().collect();
        assert_eq!(doubled_comm.len(), 2 * comm);
        for (from, to) in doubled_comm {
            assert_ne!(from.index() < n, to.index() < n, "comm pairs cross");
        }
        for i in 0..doubled.num_nodes() {
            for e in doubled.out_edges(NodeId(i as u32)) {
                assert_eq!(e.from.index() < n, e.to.index() < n, "control edges stay");
            }
        }
    }

    #[test]
    fn to_base_roundtrip() {
        let ir = ProgramIr::from_source(FIGURE1).unwrap();
        let mpi = build_mpi_icfg(ir, "main", 0, Matching::ReachingConstants).unwrap();
        let doubled = TwoCopyGraph::build(&mpi);
        let n = doubled.base_nodes();
        assert_eq!(doubled.to_base(NodeId(3)), NodeId(3));
        assert_eq!(doubled.to_base(NodeId(3 + n as u32)), NodeId(3));
    }
}
