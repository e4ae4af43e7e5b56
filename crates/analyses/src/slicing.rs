//! Forward data slicing over the MPI-ICFG.
//!
//! The paper's Section 1 motivating client: "if one attempts to take a
//! forward slice to identify all statements influenced by the assignment
//! `x = 0` in statement 1, using an analysis framework that does not
//! consider the SPMD nature of the program, an erroneous result will be
//! obtained" — statements 9, 10, and 12 (the receive and everything it
//! feeds) are missed without communication edges.
//!
//! This is a *data* slice (transitive flow dependences, including through
//! messages); control dependences are deliberately excluded, matching the
//! statement sets the paper quotes for Figure 1.

use crate::interproc::{call_forward, return_forward, BindMaps, UseSelector};
use mpi_dfa_core::graph::{Edge, EdgeKind, FlowGraph, NodeId};
use mpi_dfa_core::lattice::BoolOr;
use mpi_dfa_core::problem::{Dataflow, Direction};
use mpi_dfa_core::solver::Solver;
use mpi_dfa_core::varset::VarSet;
use mpi_dfa_graph::icfg::Icfg;
use mpi_dfa_graph::node::{MpiKind, NodeKind};
use mpi_dfa_lang::ast::StmtId;
use std::collections::BTreeSet;

/// The "influenced" forward analysis: locations carrying data influenced by
/// the seed statement's definition.
struct Influence<'g> {
    icfg: &'g Icfg,
    maps: BindMaps,
    /// Nodes whose definitions seed the slice.
    seeds: Vec<NodeId>,
    universe: usize,
    /// Whether communication edges participate (MPI-ICFG vs plain graph).
    use_comm: bool,
}

impl Influence<'_> {
    fn is_seed(&self, node: NodeId) -> bool {
        self.seeds.contains(&node)
    }
}

impl Dataflow for Influence<'_> {
    type Fact = VarSet;
    type CommFact = BoolOr;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn top(&self) -> VarSet {
        VarSet::empty(self.universe)
    }

    fn boundary(&self) -> VarSet {
        VarSet::empty(self.universe)
    }

    fn meet_into(&self, dst: &mut VarSet, src: &VarSet) -> bool {
        dst.union_into(src)
    }

    fn transfer(&self, node: NodeId, input: &VarSet, comm: &BoolOr, out: &mut VarSet) {
        let seeded = self.is_seed(node);
        match &self.icfg.payload(node).kind {
            NodeKind::Assign { lhs, rhs } => {
                let influenced = seeded
                    || UseSelector::All.reads_from(rhs, input)
                    || lhs.index_uses.iter().any(|l| input.contains(l.index()));
                if influenced {
                    out.insert(lhs.loc.index());
                } else if lhs.is_strong_def() {
                    out.remove(lhs.loc.index());
                }
            }
            NodeKind::Read { target } => {
                if seeded {
                    out.insert(target.loc.index());
                } else if target.is_strong_def() {
                    out.remove(target.loc.index());
                }
            }
            NodeKind::Mpi(m) if m.kind.receives_data() => {
                // Receives always carry a buffer; a malformed node has
                // nothing to gen or kill and transfers as the identity.
                let Some(buf) = m.buf.as_ref() else {
                    return;
                };
                let arriving = self.use_comm && comm.0;
                let gen = arriving || seeded;
                match m.kind {
                    MpiKind::Recv | MpiKind::Irecv | MpiKind::Allreduce => {
                        if gen {
                            out.insert(buf.loc.index());
                        } else if buf.is_strong_def() {
                            out.remove(buf.loc.index());
                        }
                    }
                    _ => {
                        if gen {
                            out.insert(buf.loc.index());
                        }
                    }
                }
            }
            _ => {}
        }
    }

    fn comm_transfer(&self, node: NodeId, input: &VarSet) -> BoolOr {
        match &self.icfg.payload(node).kind {
            // A malformed send missing its payload counts as relevant
            // (`true`): over-approximating keeps the slice sound.
            NodeKind::Mpi(m) if m.kind.sends_data() => BoolOr(match m.kind {
                MpiKind::Reduce | MpiKind::Allreduce => m
                    .value
                    .as_ref()
                    .is_none_or(|v| UseSelector::All.reads_from(v, input)),
                _ => m
                    .buf
                    .as_ref()
                    .is_none_or(|buf| input.contains(buf.loc.index())),
            }),
            _ => BoolOr(false),
        }
    }

    fn translate_into(&self, edge: &Edge, fact: &VarSet, out: &mut VarSet) {
        match edge.kind {
            EdgeKind::Call { site } => {
                call_forward(self.icfg, &self.maps, site, fact, out, UseSelector::All)
            }
            EdgeKind::Return { site } => return_forward(self.icfg, &self.maps, site, fact, out),
            EdgeKind::Flow => {}
        }
    }
}

/// Compute the forward data slice from the statement(s) `seed`.
/// Returns the set of statement ids in the slice (the seed included).
///
/// `graph` may be the plain ICFG (no communication modeling — reproduces
/// the paper's "erroneous result") or the MPI-ICFG.
pub fn forward_slice<G: FlowGraph>(graph: &G, icfg: &Icfg, seed: StmtId) -> BTreeSet<StmtId> {
    let seeds: Vec<NodeId> = icfg
        .nodes()
        .filter(|&n| icfg.payload(n).stmt == Some(seed))
        .collect();
    // Whether the graph we were given models communication at all.
    let use_comm = !graph.comm_classes().is_empty();
    let problem = Influence {
        icfg,
        maps: BindMaps::build(icfg),
        seeds,
        universe: icfg.ir.locs.len(),
        use_comm,
    };
    let sol = Solver::new(&problem, graph).run();

    let mut slice = BTreeSet::new();
    slice.insert(seed);
    for n in icfg.nodes() {
        let Some(stmt) = icfg.payload(n).stmt else {
            continue;
        };
        let input = sol.before(n);
        let in_slice = match &icfg.payload(n).kind {
            NodeKind::Assign { lhs, rhs } => {
                UseSelector::All.reads_from(rhs, input)
                    || lhs.index_uses.iter().any(|l| input.contains(l.index()))
            }
            NodeKind::Branch { cond } => UseSelector::All.reads_from(cond, input),
            NodeKind::Print { value } => UseSelector::All.reads_from(value, input),
            NodeKind::Mpi(m) => {
                let sends_influenced = m.kind.sends_data()
                    && match m.kind {
                        MpiKind::Reduce | MpiKind::Allreduce => m
                            .value
                            .as_ref()
                            .is_some_and(|v| UseSelector::All.reads_from(v, input)),
                        _ => m
                            .buf
                            .as_ref()
                            .is_some_and(|b| input.contains(b.loc.index())),
                    };
                // A receive is in the slice when influenced data arrives:
                // detectable as its buffer being influenced *after* it.
                let recvs_influenced = m.kind.receives_data()
                    && m.buf.as_ref().is_some_and(|b| {
                        sol.after(n).contains(b.loc.index()) && !input.contains(b.loc.index())
                    });
                let recv_kept = m.kind.receives_data()
                    && m.buf.as_ref().is_some_and(|b| {
                        input.contains(b.loc.index()) && sol.after(n).contains(b.loc.index())
                    });
                sends_influenced || recvs_influenced || recv_kept
            }
            _ => false,
        };
        if in_slice {
            slice.insert(stmt);
        }
    }
    slice
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_dfa_graph::icfg::ProgramIr;
    use mpi_dfa_graph::mpi::{MpiIcfg, SyntacticConsts};

    /// Figure 1, with statement ids annotated. SMPL statement ids count
    /// from 0 in parse order:
    ///   s0: x = 0      s1: z = 2      s2: b = 7
    ///   s3: if (rank() == 0)
    ///   s4: x = x + 1  s5: b = x * 3  s6: send(x)
    ///   s7: recv(y)    s8: z = b * y
    ///   s9: f = reduce(SUM, z)
    const FIGURE1: &str = "program fig1\n\
        global x: real; global z: real; global b: real; global y: real;\n\
        global f: real;\n\
        sub main() {\n\
          x = 0.0;\n\
          z = 2.0;\n\
          b = 7.0;\n\
          if (rank() == 0) {\n\
            x = x + 1.0;\n\
            b = x * 3.0;\n\
            send(x, 1, 9);\n\
          } else {\n\
            recv(y, 0, 9);\n\
            z = b * y;\n\
          }\n\
          reduce(SUM, z, f, 0);\n\
        }";

    fn ids(set: &BTreeSet<StmtId>) -> Vec<u32> {
        set.iter().map(|s| s.0).collect()
    }

    #[test]
    fn figure1_slice_without_comm_edges_is_wrong() {
        // The paper: "The framework will identify statements 1, 5, 6, and 7
        // as the only statements in the slice" (their 1-based numbering of
        // x=0, x=x+1, b=x*3, send(x)) — our s0, s4, s5, s6.
        let ir = ProgramIr::from_source(FIGURE1).unwrap();
        let icfg = Icfg::build(ir, "main", 0).unwrap();
        let slice = forward_slice(&icfg, &icfg, StmtId(0));
        assert_eq!(ids(&slice), vec![0, 4, 5, 6]);
    }

    #[test]
    fn figure1_slice_with_comm_edges_is_complete() {
        // "when in fact statements 1, 5, 6, 7, 9, 10, and 12 should be in
        // the slice" — our s0, s4, s5, s6, s7, s8, s9.
        let ir = ProgramIr::from_source(FIGURE1).unwrap();
        let mpi = MpiIcfg::build(Icfg::build(ir, "main", 0).unwrap(), &SyntacticConsts);
        let slice = forward_slice(&mpi, mpi.icfg(), StmtId(0));
        assert_eq!(ids(&slice), vec![0, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn slice_from_uninvolved_statement_is_minimal() {
        // Slicing from z = 2: z is overwritten on the else path and feeds
        // only the reduce.
        let ir = ProgramIr::from_source(FIGURE1).unwrap();
        let mpi = MpiIcfg::build(Icfg::build(ir, "main", 0).unwrap(), &SyntacticConsts);
        let slice = forward_slice(&mpi, mpi.icfg(), StmtId(1));
        assert_eq!(
            ids(&slice),
            vec![1, 9],
            "z = 2 reaches the reduce on the then-path"
        );
    }

    #[test]
    fn slice_crosses_procedures() {
        let src = "program p global g: real; global h: real;\n\
             sub dbl(v: real) { v = v * 2.0; }\n\
             sub main() { g = 1.0; call dbl(g); h = g + 1.0; }";
        let ir = ProgramIr::from_source(src).unwrap();
        let icfg = Icfg::build(ir, "main", 0).unwrap();
        let slice = forward_slice(&icfg, &icfg, StmtId(1)); // g = 1.0
                                                            // dbl's v = v*2 (s0) and h = g+1 (s3) are influenced.
        assert!(
            slice.contains(&StmtId(0)),
            "callee statement in slice: {slice:?}"
        );
        assert!(slice.contains(&StmtId(3)));
    }

    #[test]
    fn overwritten_influence_stops() {
        let src = "program p global a: real; global b: real;\n\
             sub main() { a = 1.0; a = 2.0; b = a + 1.0; }";
        let ir = ProgramIr::from_source(src).unwrap();
        let icfg = Icfg::build(ir, "main", 0).unwrap();
        let slice = forward_slice(&icfg, &icfg, StmtId(0));
        assert_eq!(ids(&slice), vec![0], "strong redefinition cuts the slice");
    }
}
