//! Trust (taint) analysis over the MPI-ICFG.
//!
//! The paper's second example client (Sections 2 and 5.2): trust analysis
//! marks data from untrusted sources and reports where it reaches sensitive
//! sinks. For MPI programs the conservative treatment makes *every* received
//! value untrusted (the global-buffer assumption: "the global variable
//! modeling communication between sends and receives is untrusted"); over
//! the MPI-ICFG a receive is only tainted when some matching send actually
//! transmits tainted data.

use crate::interproc::{call_forward, return_forward, BindMaps, UseSelector};
use mpi_dfa_core::graph::{Edge, EdgeKind, FlowGraph, NodeId};
use mpi_dfa_core::lattice::BoolOr;
use mpi_dfa_core::problem::{Dataflow, Direction};
use mpi_dfa_core::solver::{Solution, Solver};
use mpi_dfa_core::varset::VarSet;
use mpi_dfa_graph::icfg::Icfg;
use mpi_dfa_graph::loc::{Loc, LocTable};
use mpi_dfa_graph::mpi::MpiIcfg;
use mpi_dfa_graph::node::{MpiKind, NodeKind};

/// How communication affects taint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaintMode {
    /// All receives produce untrusted data (conservative ICFG treatment).
    AllReceivesUntrusted,
    /// Taint crosses only the matched communication edges.
    MpiIcfg,
}

/// Taint sources.
#[derive(Debug, Clone, Default)]
pub struct TaintConfig {
    /// Variables untrusted from the start (resolved in context scope).
    pub tainted_vars: Vec<String>,
    /// Treat `read(...)` targets as untrusted external input.
    pub reads_are_tainted: bool,
}

/// Result: tainted locations at every point plus the summary set.
#[derive(Debug)]
pub struct TaintResult {
    pub solution: Solution<VarSet>,
    /// Locations tainted at some program point.
    pub ever_tainted: VarSet,
}

impl TaintResult {
    pub fn tainted_locs(&self) -> Vec<Loc> {
        self.ever_tainted.iter().map(|i| Loc(i as u32)).collect()
    }
}

struct Taint<'g> {
    icfg: &'g Icfg,
    maps: BindMaps,
    mode: TaintMode,
    seed: VarSet,
    reads_tainted: bool,
}

impl Dataflow for Taint<'_> {
    type Fact = VarSet;
    type CommFact = BoolOr;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn top(&self) -> VarSet {
        VarSet::empty(self.seed.universe())
    }

    fn boundary(&self) -> VarSet {
        self.seed.clone()
    }

    fn meet_into(&self, dst: &mut VarSet, src: &VarSet) -> bool {
        dst.union_into(src)
    }

    fn transfer(&self, node: NodeId, input: &VarSet, comm: &BoolOr, out: &mut VarSet) {
        match &self.icfg.payload(node).kind {
            NodeKind::Assign { lhs, rhs } => {
                // Taint flows through every use, including subscripts.
                let tainted = UseSelector::All.reads_from(rhs, input)
                    || lhs.index_uses.iter().any(|l| input.contains(l.index()));
                if tainted {
                    out.insert(lhs.loc.index());
                } else if lhs.is_strong_def() {
                    out.remove(lhs.loc.index());
                }
            }
            NodeKind::Read { target } => {
                if self.reads_tainted {
                    out.insert(target.loc.index());
                } else if target.is_strong_def() {
                    out.remove(target.loc.index());
                }
            }
            NodeKind::Mpi(m) if m.kind.receives_data() => {
                // Receives always carry a buffer; a malformed node writes
                // nothing and transfers as the identity (it cannot launder
                // taint because it cannot kill anything either).
                let Some(buf) = m.buf.as_ref() else {
                    return;
                };
                let arriving = match self.mode {
                    TaintMode::AllReceivesUntrusted => true,
                    TaintMode::MpiIcfg => comm.0,
                };
                match m.kind {
                    MpiKind::Recv | MpiKind::Irecv | MpiKind::Allreduce => {
                        if arriving {
                            out.insert(buf.loc.index());
                        } else if buf.is_strong_def() {
                            out.remove(buf.loc.index());
                        }
                    }
                    _ => {
                        if arriving {
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
            // A malformed send missing its payload is treated as tainted
            // (`true`): over-approximating keeps the analysis sound.
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

/// Run trust analysis.
pub fn analyze<G: FlowGraph>(
    graph: &G,
    icfg: &Icfg,
    mode: TaintMode,
    config: &TaintConfig,
) -> Result<TaintResult, String> {
    let universe = icfg.ir.locs.len();
    let mut seed = VarSet::empty(universe);
    for name in &config.tainted_vars {
        let loc = icfg
            .ir
            .locs
            .resolve(icfg.context, name)
            .ok_or_else(|| format!("unknown variable `{name}` in context routine"))?;
        seed.insert(loc.index());
    }
    let problem = Taint {
        icfg,
        maps: BindMaps::build(icfg),
        mode,
        seed,
        reads_tainted: config.reads_are_tainted,
    };
    let solution = Solver::new(&problem, graph).run();
    let mut ever = VarSet::empty(universe);
    for n in 0..graph.num_nodes() {
        ever.union_into(&solution.output[n]);
    }
    ever.remove(LocTable::MPI_BUFFER.index());
    Ok(TaintResult {
        solution,
        ever_tainted: ever,
    })
}

/// Convenience: run over the MPI-ICFG in precise mode.
pub fn analyze_mpi(mpi: &MpiIcfg, config: &TaintConfig) -> Result<TaintResult, String> {
    analyze(mpi, mpi.icfg(), TaintMode::MpiIcfg, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_dfa_graph::icfg::ProgramIr;
    use mpi_dfa_graph::mpi::SyntacticConsts;

    fn names(icfg: &Icfg, r: &TaintResult) -> Vec<String> {
        r.tainted_locs()
            .iter()
            .map(|&l| icfg.ir.locs.info(l).name.clone())
            .collect()
    }

    const TWO_CHANNELS: &str = "program p\n\
        global evil: real; global pure: real;\n\
        global a: real; global b: real; global sink: real;\n\
        sub main() {\n\
          if (rank() == 0) { send(evil, 1, 1); send(pure, 1, 2); }\n\
          else { recv(a, 0, 1); recv(b, 0, 2); }\n\
          sink = b * 2.0;\n\
        }";

    #[test]
    fn conservative_mode_taints_every_receive() {
        let ir = ProgramIr::from_source(TWO_CHANNELS).unwrap();
        let icfg = Icfg::build(ir, "main", 0).unwrap();
        let cfg = TaintConfig {
            tainted_vars: vec!["evil".into()],
            reads_are_tainted: false,
        };
        let r = analyze(&icfg, &icfg, TaintMode::AllReceivesUntrusted, &cfg).unwrap();
        let t = names(&icfg, &r);
        assert!(t.contains(&"a".to_string()));
        assert!(
            t.contains(&"b".to_string()),
            "conservatively tainted: {t:?}"
        );
        assert!(t.contains(&"sink".to_string()));
    }

    #[test]
    fn mpi_icfg_separates_trusted_channel() {
        let ir = ProgramIr::from_source(TWO_CHANNELS).unwrap();
        let mpi = MpiIcfg::build(Icfg::build(ir, "main", 0).unwrap(), &SyntacticConsts);
        assert_eq!(mpi.comm_edges.len(), 2, "tags separate the channels");
        let cfg = TaintConfig {
            tainted_vars: vec!["evil".into()],
            reads_are_tainted: false,
        };
        let r = analyze_mpi(&mpi, &cfg).unwrap();
        let t = names(&mpi, &r);
        assert!(
            t.contains(&"a".to_string()),
            "tainted channel received: {t:?}"
        );
        assert!(
            !t.contains(&"b".to_string()),
            "trusted channel stays clean: {t:?}"
        );
        assert!(
            !t.contains(&"sink".to_string()),
            "sink fed only by the clean channel"
        );
    }

    #[test]
    fn taint_flows_through_subscripts() {
        let src = "program p\n\
            global idx: int; global table: real[4]; global out: real;\n\
            sub main() { table[idx] = 1.0; out = table[1]; }";
        let ir = ProgramIr::from_source(src).unwrap();
        let icfg = Icfg::build(ir, "main", 0).unwrap();
        let cfg = TaintConfig {
            tainted_vars: vec!["idx".into()],
            reads_are_tainted: false,
        };
        let r = analyze(&icfg, &icfg, TaintMode::MpiIcfg, &cfg).unwrap();
        let t = names(&icfg, &r);
        assert!(
            t.contains(&"table".to_string()),
            "tainted index taints the write: {t:?}"
        );
        assert!(t.contains(&"out".to_string()));
    }

    #[test]
    fn reads_as_sources() {
        let src = "program p global x: real; global y: real;\n\
             sub main() { read(x); y = x + 1.0; }";
        let ir = ProgramIr::from_source(src).unwrap();
        let icfg = Icfg::build(ir.clone(), "main", 0).unwrap();
        let on = analyze(
            &icfg,
            &icfg,
            TaintMode::MpiIcfg,
            &TaintConfig {
                tainted_vars: vec![],
                reads_are_tainted: true,
            },
        )
        .unwrap();
        assert!(names(&icfg, &on).contains(&"y".to_string()));
        let off = analyze(
            &icfg,
            &icfg,
            TaintMode::MpiIcfg,
            &TaintConfig {
                tainted_vars: vec![],
                reads_are_tainted: false,
            },
        )
        .unwrap();
        assert!(off.ever_tainted.is_empty());
    }

    #[test]
    fn sanitization_by_overwrite() {
        let src = "program p global x: real; global y: real;\n\
             sub main() { y = x * 2.0; y = 1.0; }";
        let ir = ProgramIr::from_source(src).unwrap();
        let icfg = Icfg::build(ir, "main", 0).unwrap();
        let cfg = TaintConfig {
            tainted_vars: vec!["x".into()],
            reads_are_tainted: false,
        };
        let r = analyze(&icfg, &icfg, TaintMode::MpiIcfg, &cfg).unwrap();
        // y is tainted at some point (after the first assign) even though
        // the constant overwrites it later.
        assert!(names(&icfg, &r).contains(&"y".to_string()));
        // But not at the exit.
        let y = icfg.ir.locs.global("y").unwrap();
        assert!(!r.solution.before(icfg.context_exit()).contains(y.index()));
    }

    #[test]
    fn taint_crosses_collectives() {
        let src = "program p global x: real; global s: real;\n\
             sub main() { allreduce(SUM, x, s); }";
        let ir = ProgramIr::from_source(src).unwrap();
        let mpi = MpiIcfg::build(Icfg::build(ir, "main", 0).unwrap(), &SyntacticConsts);
        let cfg = TaintConfig {
            tainted_vars: vec!["x".into()],
            reads_are_tainted: false,
        };
        let r = analyze_mpi(&mpi, &cfg).unwrap();
        assert!(names(&mpi, &r).contains(&"s".to_string()));
    }
}
