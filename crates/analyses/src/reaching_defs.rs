//! Reaching definitions — the second *separable* control analysis.
//!
//! Per the paper's Section 1: "reaching definitions do not flow between a
//! send and a receive since the send and receive may be in different
//! processes, and the variable that receives the sent value is defined at
//! the receive statement." A receive is therefore a *definition site* of its
//! buffer, and communication edges carry nothing.
//!
//! Facts are sets of definition sites (graph nodes that define a location).

use mpi_dfa_core::graph::{FlowGraph, NodeId};
use mpi_dfa_core::problem::{Dataflow, Direction};
use mpi_dfa_core::solver::{Solution, Solver};
use mpi_dfa_core::varset::VarSet;
use mpi_dfa_graph::icfg::Icfg;
use mpi_dfa_graph::loc::Loc;
use mpi_dfa_graph::node::{MpiKind, NodeKind};

/// A definition site: the defining node and the location it defines,
/// with whether the write is strong (whole variable) or weak (element).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DefSite {
    pub node: NodeId,
    pub loc: Loc,
    pub strong: bool,
}

/// Enumerate the definition sites of a graph. Call-site write-backs are not
/// def sites themselves — the defining node inside the callee is.
pub fn collect_def_sites(icfg: &Icfg) -> Vec<DefSite> {
    let mut defs = Vec::new();
    for n in icfg.nodes() {
        match &icfg.payload(n).kind {
            NodeKind::Assign { lhs, .. } => {
                defs.push(DefSite {
                    node: n,
                    loc: lhs.loc,
                    strong: lhs.is_strong_def(),
                });
            }
            NodeKind::Read { target } => {
                defs.push(DefSite {
                    node: n,
                    loc: target.loc,
                    strong: target.is_strong_def(),
                });
            }
            NodeKind::Mpi(m) if m.kind.receives_data() => {
                // Receives always carry a buffer; a malformed node simply
                // defines nothing.
                let Some(buf) = m.buf.as_ref() else { continue };
                // bcast/reduce roots keep their local value: weak defs.
                let strong = buf.is_strong_def()
                    && matches!(m.kind, MpiKind::Recv | MpiKind::Irecv | MpiKind::Allreduce);
                defs.push(DefSite {
                    node: n,
                    loc: buf.loc,
                    strong,
                });
            }
            _ => {}
        }
    }
    defs
}

/// The reaching-definitions problem: forward, union meet, gen/kill over
/// definition-site indices.
pub struct ReachingDefs<'g> {
    icfg: &'g Icfg,
    pub defs: Vec<DefSite>,
    /// Definition-site indices generated by each node.
    gen_at: Vec<Vec<usize>>,
    /// Definition-site indices killed by each node (strong defs kill all
    /// other defs of the same location).
    kill_at: Vec<Vec<usize>>,
}

impl<'g> ReachingDefs<'g> {
    pub fn new(icfg: &'g Icfg) -> Self {
        let defs = collect_def_sites(icfg);
        let n = icfg.num_nodes();
        let mut gen_at = vec![Vec::new(); n];
        let mut kill_at = vec![Vec::new(); n];
        for (i, d) in defs.iter().enumerate() {
            gen_at[d.node.index()].push(i);
        }
        for (i, d) in defs.iter().enumerate() {
            if !d.strong {
                continue;
            }
            for (j, other) in defs.iter().enumerate() {
                if i != j && other.loc == d.loc {
                    kill_at[d.node.index()].push(j);
                }
            }
        }
        ReachingDefs {
            icfg,
            defs,
            gen_at,
            kill_at,
        }
    }

    /// Indices of definitions of `loc` reaching *into* `node`.
    pub fn reaching(&self, sol: &Solution<VarSet>, node: NodeId, loc: Loc) -> Vec<usize> {
        sol.before(node)
            .iter()
            .filter(|&i| self.defs[i].loc == loc)
            .collect()
    }
}

impl Dataflow for ReachingDefs<'_> {
    type Fact = VarSet;
    type CommFact = ();

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn top(&self) -> VarSet {
        VarSet::empty(self.defs.len())
    }

    fn boundary(&self) -> VarSet {
        VarSet::empty(self.defs.len())
    }

    fn meet_into(&self, dst: &mut VarSet, src: &VarSet) -> bool {
        dst.union_into(src)
    }

    fn transfer(&self, node: NodeId, _input: &VarSet, _comm: &(), out: &mut VarSet) {
        let _ = self.icfg;
        for &k in &self.kill_at[node.index()] {
            out.remove(k);
        }
        for &g in &self.gen_at[node.index()] {
            out.insert(g);
        }
    }

    fn comm_transfer(&self, _node: NodeId, _input: &VarSet) {}

    // `translate_into` keeps its default: definition sites are global node
    // ids, so they pass through calls unchanged (the classic ICFG
    // formulation).
}

/// Solve reaching definitions over `graph` (ICFG or MPI-ICFG; results are
/// identical — separable).
pub fn analyze<'g, G: FlowGraph>(
    graph: &G,
    icfg: &'g Icfg,
) -> (ReachingDefs<'g>, Solution<VarSet>) {
    let problem = ReachingDefs::new(icfg);
    let sol = Solver::new(&problem, graph).run();
    (problem, sol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_dfa_graph::icfg::ProgramIr;
    use mpi_dfa_graph::mpi::{MpiIcfg, SyntacticConsts};

    fn build(src: &str) -> Icfg {
        let ir = ProgramIr::from_source(src).unwrap();
        Icfg::build(ir, "main", 0).unwrap()
    }

    #[test]
    fn strong_defs_kill_earlier_ones() {
        let icfg = build(
            "program p global x: real;\n\
             sub main() { x = 1.0; x = 2.0; print(x); }",
        );
        let (rd, sol) = analyze(&icfg, &icfg);
        let x = icfg.ir.locs.global("x").unwrap();
        let print_node = icfg
            .nodes()
            .find(|&n| matches!(icfg.payload(n).kind, NodeKind::Print { .. }))
            .unwrap();
        let reaching = rd.reaching(&sol, print_node, x);
        assert_eq!(reaching.len(), 1, "only the second definition reaches");
        assert!(rd.defs[reaching[0]].strong);
    }

    #[test]
    fn weak_defs_accumulate() {
        let icfg = build(
            "program p global a: real[4]; global i: int;\n\
             sub main() { a[1] = 1.0; a[i] = 2.0; print(a[1]); }",
        );
        let (rd, sol) = analyze(&icfg, &icfg);
        let a = icfg.ir.locs.global("a").unwrap();
        let print_node = icfg
            .nodes()
            .find(|&n| matches!(icfg.payload(n).kind, NodeKind::Print { .. }))
            .unwrap();
        assert_eq!(rd.reaching(&sol, print_node, a).len(), 2);
    }

    #[test]
    fn branches_merge_definitions() {
        let icfg = build(
            "program p global x: real;\n\
             sub main() { if (rank() == 0) { x = 1.0; } else { x = 2.0; } print(x); }",
        );
        let (rd, sol) = analyze(&icfg, &icfg);
        let x = icfg.ir.locs.global("x").unwrap();
        let print_node = icfg
            .nodes()
            .find(|&n| matches!(icfg.payload(n).kind, NodeKind::Print { .. }))
            .unwrap();
        assert_eq!(rd.reaching(&sol, print_node, x).len(), 2);
    }

    #[test]
    fn receive_is_a_definition_site() {
        let icfg = build(
            "program p global x: real; global y: real;\n\
             sub main() { y = 1.0; if (rank() == 0) { send(x, 1, 1); } else { recv(y, 0, 1); } print(y); }",
        );
        let (rd, sol) = analyze(&icfg, &icfg);
        let y = icfg.ir.locs.global("y").unwrap();
        let print_node = icfg
            .nodes()
            .find(|&n| matches!(icfg.payload(n).kind, NodeKind::Print { .. }))
            .unwrap();
        let reaching = rd.reaching(&sol, print_node, y);
        // Both y = 1.0 (then-path) and the recv definition (else-path).
        assert_eq!(reaching.len(), 2);
        assert!(reaching
            .iter()
            .any(|&i| matches!(icfg.payload(rd.defs[i].node).kind, NodeKind::Mpi(_))));
    }

    #[test]
    fn definitions_do_not_flow_over_comm_edges() {
        // The paper's separability argument, verified directly: adding
        // communication edges leaves reaching definitions unchanged.
        let src = "program p global x: real; global y: real;\n\
             sub main() { x = 1.0; if (rank() == 0) { send(x, 1, 1); } else { recv(y, 0, 1); } print(y); }";
        let ir = ProgramIr::from_source(src).unwrap();
        let icfg = Icfg::build(ir.clone(), "main", 0).unwrap();
        let (_, plain) = analyze(&icfg, &icfg);
        let mpi = MpiIcfg::build(Icfg::build(ir, "main", 0).unwrap(), &SyntacticConsts);
        let (_, with_comm) = analyze(&mpi, mpi.icfg());
        assert_eq!(mpi.comm_edges.len(), 1);
        assert_eq!(plain.input, with_comm.input);
        assert_eq!(plain.output, with_comm.output);
    }

    #[test]
    fn loop_defs_reach_header() {
        let icfg = build(
            "program p global s: real;\n\
             sub main() { var i: int; s = 0.0; for i = 1, 3 { s = s + 1.0; } print(s); }",
        );
        let (rd, sol) = analyze(&icfg, &icfg);
        let s = icfg.ir.locs.global("s").unwrap();
        let print_node = icfg
            .nodes()
            .find(|&n| matches!(icfg.payload(n).kind, NodeKind::Print { .. }))
            .unwrap();
        // Both s = 0.0 and the in-loop s = s + 1.0 reach the print.
        assert_eq!(rd.reaching(&sol, print_node, s).len(), 2);
    }
}
