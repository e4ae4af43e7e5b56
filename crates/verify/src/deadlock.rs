//! Predictive deadlock detection: cycle search over the static wait-for
//! graph induced by blocking communication.
//!
//! Blocking model (matching the interpreter): `send`/`isend` are eager
//! and never block; `recv` blocks until a matching send has executed;
//! the collectives (`barrier`, `bcast`, `reduce`, `allreduce`) block
//! until every participating rank arrives; `irecv`/`wait` never block.
//!
//! The wait-for graph quotients the SPMD execution onto program nodes:
//!
//! * **comm-wait** `R → S`: blocking receive `R` cannot complete before
//!   some matched send `S` executes (one edge per comm predecessor);
//! * **order-wait** `X → B`: operation `X` cannot start before blocking
//!   op `B` completes, where `B` *must-precede* `X` — `B` lies on every
//!   control path from the context entry to `X` — and the two can
//!   execute on a common rank (their [`RankGuard`]s overlap).
//!
//! Must-precedence (rather than may-precedence) is what keeps a lone
//! receive inside a loop from waiting on itself through the back edge;
//! it is computed as an intersection-meet forward analysis through the
//! [`Solver`] builder. A strongly connected component in the wait-for
//! graph is a **candidate** deadlock cycle: the verdict is predictive in
//! both directions (neither sound nor complete — rank-dependent sends,
//! wildcard receives, and message counts are abstracted away), which is
//! why every flagged cycle gets a schedule-explorer realization attempt
//! (see `crosscheck`).

use crate::guard::Guards;
use crate::report::Diag;
use crate::VerifyConfig;
use mpi_dfa_core::budget::Budget;
use mpi_dfa_core::graph::NodeId;
use mpi_dfa_core::problem::{Dataflow, Direction};
use mpi_dfa_core::solver::Solver;
use mpi_dfa_core::varset::VarSet;
use mpi_dfa_graph::icfg::Icfg;
use mpi_dfa_graph::mpi::MpiIcfg;
use mpi_dfa_graph::node::{MpiKind, NodeKind};
use mpi_dfa_lang::arith;
use std::collections::HashMap;

/// Cap on reported cycles (the count of SCCs is always exact).
pub const CYCLE_CAP: usize = 8;

/// One candidate deadlock cycle, as a closed walk of wait-for edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cycle {
    /// The participating operations in walk order; the last waits on the
    /// first.
    pub nodes: Vec<Diag>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockReport {
    /// Operations participating in at least one wait-for edge.
    pub waitfor_nodes: usize,
    pub waitfor_edges: usize,
    /// Number of cyclic strongly connected components found.
    pub cyclic_sccs: usize,
    pub cycles: Vec<Cycle>,
}

impl DeadlockReport {
    pub fn is_clean(&self) -> bool {
        self.cyclic_sccs == 0
    }
}

/// True for operations that can block a rank.
fn is_blocking(kind: MpiKind) -> bool {
    matches!(
        kind,
        MpiKind::Recv | MpiKind::Barrier | MpiKind::Bcast | MpiKind::Reduce | MpiKind::Allreduce
    )
}

/// Intersection-meet forward analysis: the set of blocking operations on
/// *every* path from the context entry to each node.
struct MustBlockReach {
    /// `bit_of[node.index()]` = universe index of a blocking node.
    bit_of: Vec<u32>,
    universe: usize,
}

const NO_BIT: u32 = u32::MAX;

impl MustBlockReach {
    fn new(icfg: &Icfg, blocking: &[NodeId]) -> Self {
        let mut bit_of = vec![NO_BIT; mpi_dfa_core::graph::FlowGraph::num_nodes(icfg)];
        for (i, &n) in blocking.iter().enumerate() {
            bit_of[n.index()] = i as u32;
        }
        MustBlockReach {
            bit_of,
            universe: blocking.len(),
        }
    }
}

impl Dataflow for MustBlockReach {
    type Fact = VarSet;
    type CommFact = ();

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn top(&self) -> VarSet {
        VarSet::full(self.universe)
    }

    fn boundary(&self) -> VarSet {
        VarSet::empty(self.universe)
    }

    fn meet_into(&self, dst: &mut VarSet, src: &VarSet) -> bool {
        dst.intersect_into(src)
    }

    fn transfer(&self, node: NodeId, _input: &VarSet, _comm: &(), out: &mut VarSet) {
        let b = self.bit_of[node.index()];
        if b != NO_BIT {
            out.insert(b as usize);
        }
    }

    fn comm_transfer(&self, _node: NodeId, _input: &VarSet) {}

    // Must-precedence is a global property of the interprocedural paths;
    // the identity `translate_into` across call/return edges is exact here.
}

pub struct DeadlockError(pub String);

pub fn analyze(
    g: &MpiIcfg,
    guards: &Guards,
    reachable: &[bool],
    cfg: &VerifyConfig,
    budget: &Budget,
) -> Result<DeadlockReport, DeadlockError> {
    let mut span = mpi_dfa_core::telemetry::span("verify", "deadlock");
    let icfg = g.icfg();
    let live = |n: NodeId| reachable.get(n.index()).copied().unwrap_or(false);

    let blocking: Vec<NodeId> = icfg
        .mpi_nodes()
        .iter()
        .copied()
        .filter(|&n| {
            live(n) && matches!(&icfg.payload(n).kind, NodeKind::Mpi(m) if is_blocking(m.kind))
        })
        .collect();

    let problem = MustBlockReach::new(icfg, &blocking);
    let sol = Solver::new(&problem, g)
        .max_passes(cfg.max_passes)
        .budget(budget.clone())
        .run();
    sol.stats.publish_metrics("verify_deadlock");
    if !sol.stats.converged {
        let why = match &sol.stats.exhausted {
            Some(e) => format!("budget exhausted: {e:?}"),
            None => "pass bound hit".to_string(),
        };
        return Err(DeadlockError(format!(
            "deadlock must-precede solve did not converge ({why})"
        )));
    }

    let guard_of = |n: NodeId| match icfg.payload(n).stmt {
        Some(sid) => guards.of(sid).clone(),
        None => crate::guard::RankGuard::any(),
    };
    let info = |n: NodeId| match &icfg.payload(n).kind {
        NodeKind::Mpi(m) => m,
        _ => unreachable!("mpi_nodes() yields MPI payloads"),
    };

    // Wait-for adjacency over MPI nodes, deduplicated and deterministic.
    let mut adj: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
    let mut edges = 0usize;
    let mut add = |adj: &mut HashMap<NodeId, Vec<NodeId>>, from: NodeId, to: NodeId| {
        let v = adj.entry(from).or_default();
        if !v.contains(&to) {
            v.push(to);
            edges += 1;
        }
    };
    let nprocs = cfg.nprocs;

    // comm-wait: receive → matched send, filtered by constant-rank
    // feasibility when the peer expressions fold.
    for &r in icfg.mpi_nodes() {
        if !live(r) {
            continue;
        }
        let rm = info(r);
        if rm.kind != MpiKind::Recv {
            continue;
        }
        let r_guard = guard_of(r);
        let r_src = rm
            .peer
            .as_ref()
            .filter(|p| !p.is_any)
            .and_then(|p| p.expr.as_ref())
            .and_then(arith::literal)
            .map(arith::to_int);
        for s in g.comm_preds(r) {
            if !live(s) {
                continue;
            }
            let sm = info(s);
            if !sm.kind.is_p2p_send() {
                continue;
            }
            // The awaited send runs on rank `r_src` (if constant): drop the
            // edge when the send's guard excludes that rank.
            if let Some(src) = r_src {
                if src < 0 || src >= nprocs as i64 {
                    continue;
                }
                if !guard_of(s).admits(src as usize, nprocs) {
                    continue;
                }
            }
            // Symmetrically, the receive runs on the send's destination.
            let s_dst = sm
                .peer
                .as_ref()
                .filter(|p| !p.is_any)
                .and_then(|p| p.expr.as_ref())
                .and_then(arith::literal)
                .map(arith::to_int);
            if let Some(dst) = s_dst {
                if dst < 0 || dst >= nprocs as i64 {
                    continue;
                }
                if !r_guard.admits(dst as usize, nprocs) {
                    continue;
                }
            }
            add(&mut adj, r, s);
        }
    }

    // order-wait: operation → blocking op that must precede it on a
    // common rank.
    for &x in icfg.mpi_nodes() {
        if !live(x) {
            continue;
        }
        let x_guard = guard_of(x);
        let must = sol.before(x);
        for bit in must.iter() {
            let b = blocking[bit];
            if b == x {
                continue;
            }
            if x_guard.overlaps(&guard_of(b), nprocs) {
                add(&mut adj, x, b);
            }
        }
    }

    // Cycle search: Tarjan SCC over the wait-for adjacency.
    let mut order: Vec<NodeId> = adj.keys().copied().collect();
    for targets in adj.values() {
        order.extend(targets.iter().copied());
    }
    order.sort_unstable_by_key(|n| n.0);
    order.dedup();
    let sccs = tarjan(&order, &adj);

    let mut cycles = Vec::new();
    let mut cyclic = 0usize;
    for scc in &sccs {
        let is_cycle = scc.len() > 1 || adj.get(&scc[0]).is_some_and(|ts| ts.contains(&scc[0]));
        if !is_cycle {
            continue;
        }
        cyclic += 1;
        if cycles.len() < CYCLE_CAP {
            let walk = extract_cycle(scc, &adj);
            cycles.push(Cycle {
                nodes: walk
                    .into_iter()
                    .map(|n| {
                        let reason = match info(n).kind {
                            MpiKind::Recv => "waits for a matched send".to_string(),
                            k if is_blocking(k) => "all ranks must arrive".to_string(),
                            _ => "must execute after the next entry".to_string(),
                        };
                        Diag::at(g, n, reason)
                    })
                    .collect(),
            });
        }
    }

    span.arg("edges", edges.to_string());
    span.arg("cycles", cyclic.to_string());
    Ok(DeadlockReport {
        waitfor_nodes: order.len(),
        waitfor_edges: edges,
        cyclic_sccs: cyclic,
        cycles,
    })
}

/// Iterative Tarjan over the wait-for adjacency; SCCs come out in a
/// deterministic order (roots visited in ascending node id).
fn tarjan(order: &[NodeId], adj: &HashMap<NodeId, Vec<NodeId>>) -> Vec<Vec<NodeId>> {
    #[derive(Clone, Copy)]
    struct Meta {
        index: u32,
        low: u32,
        on_stack: bool,
        visited: bool,
    }
    let mut meta: HashMap<NodeId, Meta> = HashMap::new();
    let mut stack: Vec<NodeId> = Vec::new();
    let mut sccs: Vec<Vec<NodeId>> = Vec::new();
    let mut counter = 0u32;
    let empty: Vec<NodeId> = Vec::new();

    for &root in order {
        if meta.get(&root).is_some_and(|m| m.visited) {
            continue;
        }
        // Explicit DFS frame: (node, next child index).
        let mut frames: Vec<(NodeId, usize)> = vec![(root, 0)];
        while let Some(&mut (n, ref mut next)) = frames.last_mut() {
            if *next == 0 {
                meta.insert(
                    n,
                    Meta {
                        index: counter,
                        low: counter,
                        on_stack: true,
                        visited: true,
                    },
                );
                counter += 1;
                stack.push(n);
            }
            let succs = adj.get(&n).unwrap_or(&empty);
            if *next < succs.len() {
                let child = succs[*next];
                *next += 1;
                match meta.get(&child) {
                    Some(cm) if cm.visited => {
                        if cm.on_stack {
                            let cl = cm.index;
                            let m = meta.get_mut(&n).unwrap();
                            m.low = m.low.min(cl);
                        }
                    }
                    _ => frames.push((child, 0)),
                }
            } else {
                frames.pop();
                let m = *meta.get(&n).unwrap();
                if let Some(&mut (parent, _)) = frames.last_mut() {
                    let pl = meta.get_mut(&parent).unwrap();
                    pl.low = pl.low.min(m.low);
                }
                if m.low == m.index {
                    let mut scc = Vec::new();
                    while let Some(top) = stack.pop() {
                        meta.get_mut(&top).unwrap().on_stack = false;
                        scc.push(top);
                        if top == n {
                            break;
                        }
                    }
                    scc.sort_unstable_by_key(|x| x.0);
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

/// Extract one concrete closed walk inside an SCC, starting from its
/// smallest node id.
fn extract_cycle(scc: &[NodeId], adj: &HashMap<NodeId, Vec<NodeId>>) -> Vec<NodeId> {
    let inside = |n: NodeId| scc.contains(&n);
    let start = scc[0];
    let mut walk = vec![start];
    let mut cur = start;
    loop {
        let next = adj
            .get(&cur)
            .and_then(|ts| ts.iter().copied().find(|&t| inside(t)));
        match next {
            Some(t) if t == start => break,
            Some(t) if walk.contains(&t) => break, // inner loop; close here
            Some(t) => {
                walk.push(t);
                cur = t;
            }
            None => break,
        }
    }
    walk
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{build, reachable_from_entry};

    fn run(src: &str, nprocs: usize) -> DeadlockReport {
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
    fn head_to_head_receives_cycle() {
        let r = run(
            "program p global x: real; global y: real;\n\
             sub main() { recv(y, 1 - rank(), 5); send(x, 1 - rank(), 5); }",
            2,
        );
        assert_eq!(r.cyclic_sccs, 1, "{r:#?}");
        let cycle = &r.cycles[0];
        let ops: Vec<&str> = cycle.nodes.iter().map(|d| d.op.as_str()).collect();
        assert!(ops.iter().any(|o| o.starts_with("recv")), "{ops:?}");
        assert!(ops.iter().any(|o| o.starts_with("send")), "{ops:?}");
    }

    #[test]
    fn figure1_pattern_is_safe() {
        let r = run(
            "program p global x: real; global y: real;\n\
             sub main() { if (rank() == 0) { send(x, 1, 7); } else { recv(y, 0, 7); } }",
            2,
        );
        assert!(r.is_clean(), "{r:#?}");
    }

    #[test]
    fn send_before_recv_is_safe() {
        // Eager sends: both ranks send first, then receive — no cycle.
        let r = run(
            "program p global x: real; global y: real;\n\
             sub main() { send(x, 1 - rank(), 5); recv(y, 1 - rank(), 5); }",
            2,
        );
        assert!(r.is_clean(), "{r:#?}");
    }

    #[test]
    fn recv_in_loop_does_not_wait_on_itself() {
        // The loop back edge must not manufacture a self-wait: the first
        // iteration's receive has no blocking must-predecessor.
        let r = run(
            "program p global x: real; global y: real; global i: int;\n\
             sub main() {\n\
               if (rank() == 0) {\n\
                 for i = 1, 3 { send(x, 1, 5); }\n\
               } else {\n\
                 for i = 1, 3 { recv(y, 0, 5); }\n\
               }\n\
             }",
            2,
        );
        assert!(r.is_clean(), "{r:#?}");
    }

    #[test]
    fn rank_guards_break_false_cycles() {
        // recv-then-send under rank 0, send-then-recv under rank 1: the
        // rank-0 receive waits on the rank-1 send, which has no blocking
        // must-predecessor on rank 1 — no cycle.
        let r = run(
            "program p global x: real; global y: real;\n\
             sub main() {\n\
               if (rank() == 0) { recv(y, 1, 5); send(x, 1, 6); }\n\
               else { send(x, 0, 5); recv(y, 0, 6); }\n\
             }",
            2,
        );
        assert!(r.is_clean(), "{r:#?}");
    }
}
