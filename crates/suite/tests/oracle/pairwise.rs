//! The pairwise communication matcher the class matcher replaced, kept as
//! the reference the equivalence tests compare against.
//!
//! It checks every send against every receive, and every call of a
//! collective kind against every call of that kind (itself included),
//! charging one work unit per check, and lists each compatible pair in
//! that order. A constant argument matches only an equal constant; a
//! wildcard or statically unknown argument matches everything; a missing
//! communicator is the constant 0.

use mpi_dfa_core::graph::{Edge, EdgeKind, FlowGraph, NodeId};
use mpi_dfa_graph::icfg::Icfg;
use mpi_dfa_graph::mpi::{CommEdgeInfo, ConstQuery};
use mpi_dfa_graph::node::{MatchExpr, MpiKind, NodeKind};

/// The pairs a pairwise matcher lists, and the checks it charges.
pub struct Pairwise {
    pub edges: Vec<CommEdgeInfo>,
    pub checks: u64,
}

#[derive(Clone, Copy)]
enum Arg {
    Any,
    Const(i64),
    Unknown,
}

fn arg(m: &Option<MatchExpr>, node: NodeId, consts: &dyn ConstQuery) -> Arg {
    match m {
        None => Arg::Unknown,
        Some(me) if me.is_any => Arg::Any,
        Some(me) => match me.expr.as_ref().and_then(|e| consts.eval_int(node, e)) {
            Some(v) => Arg::Const(v),
            None => Arg::Unknown,
        },
    }
}

fn compatible(a: Arg, b: Arg) -> bool {
    match (a, b) {
        (Arg::Const(x), Arg::Const(y)) => x == y,
        _ => true,
    }
}

/// Match `icfg`'s MPI nodes pairwise.
pub fn match_pairs(icfg: &Icfg, consts: &dyn ConstQuery) -> Pairwise {
    // (node, kind, key, communicator) per MPI node, ascending.
    let nodes: Vec<(NodeId, MpiKind, Arg, Arg)> = icfg
        .mpi_nodes()
        .iter()
        .filter_map(|&n| match &icfg.payload(n).kind {
            NodeKind::Mpi(info) => {
                let key = if info.kind.is_p2p_send() || info.kind.is_p2p_recv() {
                    arg(&info.tag, n, consts)
                } else {
                    arg(&info.root, n, consts)
                };
                let comm = match &info.comm {
                    None => Arg::Const(0),
                    some => arg(some, n, consts),
                };
                Some((n, info.kind, key, comm))
            }
            _ => None,
        })
        .collect();
    let mut out = Pairwise {
        edges: Vec::new(),
        checks: 0,
    };
    let pair =
        |out: &mut Pairwise, a: &(NodeId, MpiKind, Arg, Arg), b: &(NodeId, MpiKind, Arg, Arg)| {
            out.checks += 1;
            if compatible(a.2, b.2) && compatible(a.3, b.3) {
                out.edges.push(CommEdgeInfo { from: a.0, to: b.0 });
            }
        };
    for s in nodes.iter().filter(|m| m.1.is_p2p_send()) {
        for r in nodes.iter().filter(|m| m.1.is_p2p_recv()) {
            pair(&mut out, s, r);
        }
    }
    for kind in [MpiKind::Bcast, MpiKind::Reduce, MpiKind::Allreduce] {
        let group: Vec<_> = nodes.iter().filter(|m| m.1 == kind).collect();
        for a in &group {
            for b in &group {
                pair(&mut out, a, b);
            }
        }
    }
    out
}

/// A graph with `icfg`'s control edges and each pair drawn as one more
/// out-edge of its source, after the control edges, in pair order: the
/// shape the MPI-ICFG had when it stored pairs as edges.
pub struct PairGraph {
    in_edges: Vec<Vec<Edge>>,
    out_edges: Vec<Vec<Edge>>,
    entries: Vec<NodeId>,
    exits: Vec<NodeId>,
}

impl PairGraph {
    pub fn new(icfg: &Icfg, pairs: &[CommEdgeInfo]) -> Self {
        let n = icfg.num_nodes();
        let mut g = PairGraph {
            in_edges: (0..n)
                .map(|i| icfg.in_edges(NodeId(i as u32)).to_vec())
                .collect(),
            out_edges: (0..n)
                .map(|i| icfg.out_edges(NodeId(i as u32)).to_vec())
                .collect(),
            entries: icfg.entries().to_vec(),
            exits: icfg.exits().to_vec(),
        };
        for p in pairs {
            let e = Edge {
                from: p.from,
                to: p.to,
                kind: EdgeKind::Flow,
            };
            g.out_edges[p.from.index()].push(e);
            g.in_edges[p.to.index()].push(e);
        }
        g
    }
}

impl FlowGraph for PairGraph {
    fn num_nodes(&self) -> usize {
        self.out_edges.len()
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
}
