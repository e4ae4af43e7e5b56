//! Rank-sensitive may-happen-in-parallel over the MPI-ICFG.
//!
//! SPMD execution means every rank runs the whole program concurrently;
//! what limits parallelism is synchronization. We model the blocking
//! collectives (`barrier`, `bcast`, `reduce`, `allreduce`) as global
//! synchronization points and compute, per node, the set of *phases*
//! (inter-synchronization regions) the node can execute in. The phase
//! computation is an ordinary forward may-analysis run through the
//! [`Solver`] builder, so it inherits strategy selection, budget
//! metering, and fixpoint telemetry like every other analysis client.
//!
//! Two communication statements may happen in parallel on ranks `(a, b)`
//! iff they share a phase and their [`RankGuard`]s admit `a` and `b`
//! respectively. Soundness direction: *may* — the verdict
//! over-approximates concurrency **under the assumption that collectives
//! are textually aligned across ranks** (every rank passes the same
//! collective node between phases). Programs that violate that
//! assumption are exactly the ones the match-set and deadlock passes
//! flag, so a clean verify report makes the MHP assumption checkable.

use crate::guard::{Guards, RankGuard};
use crate::report::Diag;
use crate::VerifyConfig;
use mpi_dfa_core::budget::Budget;
use mpi_dfa_core::graph::NodeId;
use mpi_dfa_core::problem::{Dataflow, Direction};
use mpi_dfa_core::solver::{Solution, Solver};
use mpi_dfa_core::varset::VarSet;
use mpi_dfa_graph::icfg::Icfg;
use mpi_dfa_graph::mpi::MpiIcfg;
use mpi_dfa_graph::node::{MpiKind, NodeKind};

/// Cap on sample pairs included in reports (counts are always exact).
pub const SAMPLE_CAP: usize = 12;

/// One concurrent statement pair on one rank pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MhpPair {
    pub a: Diag,
    pub b: Diag,
    pub ranks: (usize, usize),
}

/// Concurrency per rank pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankPairMhp {
    pub ranks: (usize, usize),
    pub pairs: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MhpReport {
    pub nprocs: usize,
    /// Number of synchronization phases discovered (≥ 1).
    pub phases: usize,
    pub per_rank_pair: Vec<RankPairMhp>,
    pub total_pairs: u64,
    pub sample: Vec<MhpPair>,
}

/// True for operations modelled as rank-synchronizing.
fn is_sync(kind: MpiKind) -> bool {
    matches!(
        kind,
        MpiKind::Barrier | MpiKind::Bcast | MpiKind::Reduce | MpiKind::Allreduce
    )
}

/// Forward may-analysis: the set of phases that can reach each node.
/// Phase 0 is the entry phase; each synchronization node begins a fresh
/// phase numbered after itself.
struct PhaseReach {
    /// `phase_of[node.index()]` = the phase this node *starts*, if any.
    phase_of: Vec<u32>,
    universe: usize,
}

const NO_PHASE: u32 = u32::MAX;

impl PhaseReach {
    fn new(icfg: &Icfg) -> Self {
        let mut phase_of = vec![NO_PHASE; mpi_dfa_core::graph::FlowGraph::num_nodes(icfg)];
        let mut next = 1u32;
        for &n in icfg.mpi_nodes() {
            if let NodeKind::Mpi(m) = &icfg.payload(n).kind {
                if is_sync(m.kind) {
                    phase_of[n.index()] = next;
                    next += 1;
                }
            }
        }
        PhaseReach {
            phase_of,
            universe: next as usize,
        }
    }
}

impl Dataflow for PhaseReach {
    type Fact = VarSet;
    type CommFact = ();

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn top(&self) -> VarSet {
        VarSet::empty(self.universe)
    }

    fn boundary(&self) -> VarSet {
        let mut f = VarSet::empty(self.universe);
        f.insert(0);
        f
    }

    fn meet_into(&self, dst: &mut VarSet, src: &VarSet) -> bool {
        dst.union_into(src)
    }

    fn transfer(&self, node: NodeId, _input: &VarSet, _comm: &(), out: &mut VarSet) {
        let p = self.phase_of[node.index()];
        if p != NO_PHASE {
            out.clear();
            out.insert(p as usize);
        }
    }

    fn comm_transfer(&self, _node: NodeId, _input: &VarSet) {}

    // Phases are global: call/return edges carry the fact unchanged, so
    // the default identity `translate_into` is exactly right.
}

pub struct MhpError(pub String);

/// Run the phase solve and derive the per-rank-pair MHP relation over the
/// communication statements.
pub fn analyze(
    g: &MpiIcfg,
    guards: &Guards,
    reachable: &[bool],
    cfg: &VerifyConfig,
    budget: &Budget,
) -> Result<MhpReport, MhpError> {
    let mut span = mpi_dfa_core::telemetry::span("verify", "mhp");
    let icfg = g.icfg();
    let problem = PhaseReach::new(icfg);
    let phases = problem.universe;
    let sol: Solution<VarSet> = Solver::new(&problem, g)
        .max_passes(cfg.max_passes)
        .budget(budget.clone())
        .run();
    sol.stats.publish_metrics("verify_mhp");
    if !sol.stats.converged {
        let why = match &sol.stats.exhausted {
            Some(e) => format!("budget exhausted: {e:?}"),
            None => "pass bound hit".to_string(),
        };
        return Err(MhpError(format!(
            "mhp phase solve did not converge ({why})"
        )));
    }

    // Candidate statements: reachable communication operations.
    let stmts: Vec<NodeId> = icfg
        .mpi_nodes()
        .iter()
        .copied()
        .filter(|n| reachable.get(n.index()).copied().unwrap_or(false))
        .collect();
    let guard_of = |n: NodeId| -> &RankGuard {
        match icfg.payload(n).stmt {
            Some(sid) => guards.of(sid),
            None => {
                static ANY: RankGuard = RankGuard::any_const();
                &ANY
            }
        }
    };

    let nprocs = cfg.nprocs;
    let mut per_pair: Vec<RankPairMhp> = Vec::new();
    for a in 0..nprocs {
        for b in (a + 1)..nprocs {
            per_pair.push(RankPairMhp {
                ranks: (a, b),
                pairs: 0,
            });
        }
    }
    let mut total = 0u64;
    let mut sample: Vec<MhpPair> = Vec::new();

    let sync_of = |n: NodeId| match &icfg.payload(n).kind {
        NodeKind::Mpi(m) => is_sync(m.kind),
        _ => false,
    };
    for (i, &n1) in stmts.iter().enumerate() {
        let p1 = sol.before(n1);
        let g1 = guard_of(n1);
        let s1 = sync_of(n1);
        for &n2 in &stmts[i..] {
            // A rank parked *at* a synchronization point is not executing
            // in a race-relevant sense: cross pairs between a sync node
            // and an ordinary statement are noise, so only sync‖sync and
            // plain‖plain pairs are reported.
            if s1 != sync_of(n2) {
                continue;
            }
            let p2 = sol.before(n2);
            if p1.intersection(p2).is_empty() {
                continue;
            }
            let g2 = guard_of(n2);
            let mut slot = 0usize;
            for a in 0..nprocs {
                for b in (a + 1)..nprocs {
                    let forward = g1.admits(a, nprocs) && g2.admits(b, nprocs);
                    let backward = g1.admits(b, nprocs) && g2.admits(a, nprocs);
                    if forward || backward {
                        per_pair[slot].pairs += 1;
                        total += 1;
                        if sample.len() < SAMPLE_CAP {
                            sample.push(MhpPair {
                                a: Diag::at(g, n1, String::new()),
                                b: Diag::at(g, n2, String::new()),
                                ranks: (a, b),
                            });
                        }
                    }
                    slot += 1;
                }
            }
        }
    }

    span.arg("phases", phases.to_string());
    span.arg("pairs", total.to_string());
    Ok(MhpReport {
        nprocs,
        phases,
        per_rank_pair: per_pair,
        total_pairs: total,
        sample,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{build, reachable_from_entry};

    fn run(src: &str, nprocs: usize) -> MhpReport {
        let g = build(src);
        let guards = Guards::build(&g.icfg().ir.unit.program);
        let reach = reachable_from_entry(&g);
        let cfg = VerifyConfig {
            nprocs,
            ..VerifyConfig::default()
        };
        analyze(&g, &guards, &reach, &cfg, &Budget::unlimited())
            .map_err(|e| e.0)
            .unwrap()
    }

    #[test]
    fn disjoint_rank_branches_are_not_self_parallel() {
        // send runs only on rank 0, recv only on rank 1: the send can
        // never happen in parallel with *itself* on two ranks, but it can
        // with the recv.
        let r = run(
            "program p global x: real; global y: real;\n\
             sub main() { if (rank() == 0) { send(x, 1, 7); } else { recv(y, 0, 7); } }",
            2,
        );
        assert_eq!(r.phases, 1);
        assert_eq!(r.per_rank_pair.len(), 1);
        // Exactly one concurrent pair: (send, recv).
        assert_eq!(r.total_pairs, 1, "{r:?}");
    }

    #[test]
    fn barrier_separates_phases() {
        let r = run(
            "program p global x: real; global y: real;\n\
             sub main() {\n\
               if (rank() == 0) { send(x, 1, 7); } else { recv(y, 0, 7); }\n\
               barrier();\n\
               if (rank() == 0) { send(x, 1, 8); } else { recv(y, 0, 8); }\n\
             }",
            2,
        );
        assert_eq!(r.phases, 2);
        // send/recv across the barrier never overlap: 1 pair per phase,
        // plus the barrier itself is concurrent with nothing p2p... the
        // barrier statement pairs with itself on the two ranks.
        let pre_post_cross: Vec<&MhpPair> = r
            .sample
            .iter()
            .filter(|p| {
                p.a.span != p.b.span && (p.a.op.contains("barrier") || p.b.op.contains("barrier"))
            })
            .collect();
        assert!(pre_post_cross.is_empty(), "{r:#?}");
        assert_eq!(r.total_pairs, 3, "{r:#?}");
    }

    #[test]
    fn unsynchronized_statements_all_overlap() {
        let r = run(
            "program p global x: real; global y: real;\n\
             sub main() { send(x, 1 - rank(), 5); recv(y, 1 - rank(), 5); }",
            2,
        );
        // send‖send, send‖recv, recv‖recv on the single rank pair.
        assert_eq!(r.total_pairs, 3, "{r:#?}");
    }
}
