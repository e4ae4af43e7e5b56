//! Match-set verification over the MPI-ICFG communication edges.
//!
//! The matcher (`mpi_dfa_graph::mpi`) already connects every send to the
//! receives it may feasibly pair with (tag and communicator agree under
//! the configured constant query). This pass turns the *absence* of such
//! edges into structured diagnostics: an unmatched send can never be
//! consumed, an unmatched receive can never be satisfied — the latter is
//! a guaranteed runtime deadlock if the receive executes. Each diagnostic
//! explains *why* nothing matched (no counterpart at all, disjoint tags,
//! disjoint communicators) and carries clone-context provenance so the
//! report points at the precise instantiation.
//!
//! Soundness direction: "matched" is a *may* verdict (some feasible
//! counterpart exists along some path); "unmatched" is definite with
//! respect to the graph — no context of the program can pair the
//! operation. Constant peer ranks outside `0..nprocs` are additionally
//! reported as rank diagnostics.
//!
//! The pass also reports **supply exhaustion**: a receive sitting in a
//! control-flow loop whose every matched send executes at most once per
//! run (no send lies in any loop). The matcher abstracts message counts,
//! so such a receive looks matched, yet repeated iterations can consume
//! more messages than the senders ever produce — a deadlock the comm
//! edges cannot show. Loop membership follows realizable paths only: a
//! node repeats if it lies on a flow cycle (a call site counts as one
//! step to its return site) or in a callee entered from a repeating call
//! site. A send also inside *some* loop silences the diagnostic (its
//! supply is unbounded too), which keeps iterative exchange patterns
//! (send-in-loop / recv-in-loop) quiet.
//!
//! Finally, **collective participation**: each collective kind
//! (`barrier`, `bcast`, `reduce`, `allreduce`) requires *every* rank to
//! arrive. If the union of the [`RankGuard`]s over all call sites of a
//! kind excludes some rank in `0..nprocs`, no execution can complete
//! that collective — whichever ranks do reach it block forever. Guards
//! are intra-procedural and one-sided toward `Any`, so this check can
//! only miss violations (a site in a rank-guarded *caller* looks
//! unguarded), never invent them for rank-unconstrained collectives.
//!
//! [`RankGuard`]: crate::guard::RankGuard

use crate::guard::Guards;
use crate::report::Diag;
use crate::VerifyConfig;
use mpi_dfa_core::graph::{Edge, EdgeKind, FlowGraph, NodeId};
use mpi_dfa_graph::icfg::Icfg;
use mpi_dfa_graph::mpi::MpiIcfg;
use mpi_dfa_graph::node::{MatchExpr, MpiInfo, MpiKind, NodeKind};
use mpi_dfa_lang::arith;

/// Outcome of the match-set pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchReport {
    pub sends: usize,
    pub recvs: usize,
    pub collectives: usize,
    pub comm_edges: usize,
    pub unmatched_sends: Vec<Diag>,
    pub unmatched_recvs: Vec<Diag>,
    /// Constant peer/root ranks outside `0..nprocs`.
    pub rank_diags: Vec<Diag>,
    /// Receives that repeat in a loop while every matched send executes
    /// at most once — the senders can be exhausted mid-loop.
    pub loop_diags: Vec<Diag>,
    /// Collective kinds some rank can never participate in.
    pub collective_diags: Vec<Diag>,
}

impl MatchReport {
    pub fn is_clean(&self) -> bool {
        self.unmatched_sends.is_empty()
            && self.unmatched_recvs.is_empty()
            && self.rank_diags.is_empty()
            && self.loop_diags.is_empty()
            && self.collective_diags.is_empty()
    }
}

/// The tag or communicator value of a point-to-point operation, as far as
/// literal folding can tell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ArgAbs {
    Any,
    Const(i64),
    Unknown,
}

fn abs_of(m: Option<&MatchExpr>, default: i64) -> ArgAbs {
    match m {
        None => ArgAbs::Const(default),
        Some(me) if me.is_any => ArgAbs::Any,
        Some(me) => match me.expr.as_ref().and_then(arith::literal).map(arith::to_int) {
            Some(v) => ArgAbs::Const(v),
            None => ArgAbs::Unknown,
        },
    }
}

fn describe(a: ArgAbs) -> String {
    match a {
        ArgAbs::Any => "ANY".to_string(),
        ArgAbs::Const(v) => v.to_string(),
        ArgAbs::Unknown => "?".to_string(),
    }
}

/// Distinct described values, sorted, for "counterpart uses …" messages.
fn described_set(vals: impl Iterator<Item = ArgAbs>) -> String {
    let mut out: Vec<String> = Vec::new();
    for v in vals {
        let d = describe(v);
        if !out.contains(&d) {
            out.push(d);
        }
    }
    out.sort();
    if out.is_empty() {
        "none".to_string()
    } else {
        out.join(", ")
    }
}

fn mpi_info(g: &MpiIcfg, n: NodeId) -> Option<&MpiInfo> {
    match &g.icfg().payload(n).kind {
        NodeKind::Mpi(m) => Some(m),
        _ => None,
    }
}

/// Run the pass. `cfg.nprocs` feeds the rank-range and collective
/// participation diagnostics; `guards` feeds participation only.
pub fn check(g: &MpiIcfg, guards: &Guards, cfg: &VerifyConfig) -> MatchReport {
    let mut span = mpi_dfa_core::telemetry::span("verify", "matchset");
    let stats = g.stats();
    let icfg = g.icfg();

    let mut sends: Vec<NodeId> = Vec::new();
    let mut recvs: Vec<NodeId> = Vec::new();
    let mut collectives = 0usize;
    for &n in icfg.mpi_nodes() {
        let Some(m) = mpi_info(g, n) else { continue };
        if m.kind.is_p2p_send() {
            sends.push(n);
        } else if m.kind.is_p2p_recv() {
            recvs.push(n);
        } else if m.kind.sends_data() || m.kind.receives_data() {
            collectives += 1;
        }
    }

    let mut report = MatchReport {
        sends: sends.len(),
        recvs: recvs.len(),
        collectives,
        comm_edges: stats.comm_edges,
        unmatched_sends: Vec::new(),
        unmatched_recvs: Vec::new(),
        rank_diags: Vec::new(),
        loop_diags: Vec::new(),
        collective_diags: Vec::new(),
    };

    for &s in &sends {
        if g.comm_succs(s).next().is_none() {
            let m = mpi_info(g, s).expect("send node has MpiInfo");
            let reason = unmatched_reason(m, &recvs, g, "receive");
            report.unmatched_sends.push(Diag::at(g, s, reason));
        }
    }
    for &r in &recvs {
        if g.comm_preds(r).next().is_none() {
            let m = mpi_info(g, r).expect("recv node has MpiInfo");
            let reason = unmatched_reason(m, &sends, g, "send");
            report.unmatched_recvs.push(Diag::at(g, r, reason));
        }
    }

    // Constant peer / root ranks that no process can ever have.
    for &n in icfg.mpi_nodes() {
        let Some(m) = mpi_info(g, n) else { continue };
        for (what, me) in [("peer", m.peer.as_ref()), ("root", m.root.as_ref())] {
            let Some(me) = me else { continue };
            if me.is_any {
                continue;
            }
            if let Some(v) = me.expr.as_ref().and_then(arith::literal).map(arith::to_int) {
                if v < 0 || v >= cfg.nprocs as i64 {
                    report.rank_diags.push(Diag::at(
                        g,
                        n,
                        format!("{what} rank {v} outside 0..{}", cfg.nprocs),
                    ));
                }
            }
        }
    }

    // Supply exhaustion: a looping receive whose matched sends all run
    // at most once. A callee instance shared by several call sites (clone
    // level 0) repeats when any of its call sites does, so sharing merges
    // contexts both ways: a receive counts as looped if it repeats under
    // some caller, and a send that repeats under one caller silences the
    // diagnostic for a receive it matches under another.
    let looped = in_loop(icfg);
    for &r in &recvs {
        if !looped[r.index()] {
            continue;
        }
        let mut preds = g.comm_preds(r).peekable();
        if preds.peek().is_none() {
            continue; // already reported unmatched
        }
        if preds.all(|s| !looped[s.index()]) {
            report.loop_diags.push(Diag::at(
                g,
                r,
                "receive repeats in a loop but every matched send executes at most \
                 once: later iterations can exhaust the senders"
                    .to_string(),
            ));
        }
    }

    // Collective participation: every rank must be admitted by at least
    // one call site of each collective kind that appears at all.
    for kind in [
        MpiKind::Barrier,
        MpiKind::Bcast,
        MpiKind::Reduce,
        MpiKind::Allreduce,
    ] {
        let sites: Vec<NodeId> = icfg
            .mpi_nodes()
            .iter()
            .copied()
            .filter(|&n| mpi_info(g, n).is_some_and(|m| m.kind == kind))
            .collect();
        if sites.is_empty() {
            continue;
        }
        let guard_of = |n: NodeId| match icfg.payload(n).stmt {
            Some(sid) => guards.of(sid).clone(),
            None => crate::guard::RankGuard::any(),
        };
        let missing: Vec<String> = (0..cfg.nprocs)
            .filter(|&rho| !sites.iter().any(|&n| guard_of(n).admits(rho, cfg.nprocs)))
            .map(|rho| rho.to_string())
            .collect();
        if !missing.is_empty() {
            let anchor = *sites.iter().min_by_key(|n| n.0).expect("nonempty sites");
            report.collective_diags.push(Diag::at(
                g,
                anchor,
                format!(
                    "no {} site admits rank {} (of {} site{}): ranks that do \
                     arrive block forever",
                    format!("{kind:?}").to_lowercase(),
                    missing.join(", "),
                    sites.len(),
                    if sites.len() == 1 { "" } else { "s" },
                ),
            ));
        }
    }

    span.arg("unmatched_sends", report.unmatched_sends.len().to_string());
    span.arg("unmatched_recvs", report.unmatched_recvs.len().to_string());
    span.arg("loop_diags", report.loop_diags.len().to_string());
    span.arg(
        "collective_diags",
        report.collective_diags.len().to_string(),
    );
    report
}

/// `true` for nodes that can execute more than once per run along a
/// realizable path: members of a nontrivial strongly connected component
/// of the flow edges plus one call → after-call summary edge per call
/// site (iterative Tarjan over the dense node ids), and every node of a
/// callee instance entered from such a node, transitively. Taking SCCs
/// over call and return edges instead would close cycles no run takes:
/// with a shared callee, returning to another call site's after-call
/// node.
fn in_loop(icfg: &Icfg) -> Vec<bool> {
    const UNVISITED: u32 = u32::MAX;
    let n = FlowGraph::num_nodes(icfg);
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut looped = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut counter = 0u32;

    // The successor an out-edge stands for: a flow edge's target, a call
    // edge's after-call node (the call summarised), none for a return.
    let target = |e: &Edge| match e.kind {
        EdgeKind::Flow => Some(e.to.index()),
        EdgeKind::Call { site } => Some(icfg.call_site(site).after_node.index()),
        EdgeKind::Return { .. } => None,
    };
    let out = |i: usize| icfg.out_edges(NodeId(i as u32));

    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        let mut frames: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut next)) = frames.last_mut() {
            if *next == 0 {
                index[v] = counter;
                low[v] = counter;
                counter += 1;
                on_stack[v] = true;
                stack.push(v);
            }
            if let Some(e) = out(v).get(*next) {
                *next += 1;
                match target(e) {
                    Some(w) if index[w] == UNVISITED => frames.push((w, 0)),
                    Some(w) if on_stack[w] => low[v] = low[v].min(index[w]),
                    _ => {}
                }
            } else {
                frames.pop();
                if let Some(&mut (parent, _)) = frames.last_mut() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    // Root of an SCC: pop it; nontrivial iff >1 member or
                    // a self-edge.
                    let start = stack.iter().rposition(|&x| x == v).expect("v on stack");
                    let members = &stack[start..];
                    let nontrivial =
                        members.len() > 1 || out(v).iter().any(|e| target(e) == Some(v));
                    for &m in members {
                        on_stack[m] = false;
                        looped[m] = nontrivial;
                    }
                    stack.truncate(start);
                }
            }
        }
    }

    // A callee entered from a repeating call site repeats whole. Each
    // sweep marks a new instance or is the last.
    let mut marked = vec![false; icfg.instances.len()];
    let mut changed = true;
    while changed {
        changed = false;
        for cs in &icfg.call_sites {
            let callee = icfg.instance_of(cs.callee_entry) as usize;
            if looped[cs.call_node.index()] && !marked[callee] {
                marked[callee] = true;
                changed = true;
                let inst = &icfg.instances[callee];
                let base = inst.base as usize;
                let len = icfg.ir.cfgs[inst.proc.index()].num_nodes();
                looped[base..base + len].fill(true);
            }
        }
    }
    looped
}

/// Explain why `m` paired with none of `others` (the opposite-direction
/// point-to-point operations).
fn unmatched_reason(m: &MpiInfo, others: &[NodeId], g: &MpiIcfg, word: &str) -> String {
    if others.is_empty() {
        return format!("no {word} anywhere in the program");
    }
    let tag = abs_of(m.tag.as_ref(), 0);
    let comm = abs_of(m.comm.as_ref(), 0);
    let other_infos: Vec<&MpiInfo> = others.iter().filter_map(|&n| mpi_info(g, n)).collect();

    let comm_ok = |o: &MpiInfo| {
        !matches!(
            (comm, abs_of(o.comm.as_ref(), 0)),
            (ArgAbs::Const(a), ArgAbs::Const(b)) if a != b
        )
    };
    let same_comm: Vec<&MpiInfo> = other_infos.iter().copied().filter(|o| comm_ok(o)).collect();
    if same_comm.is_empty() {
        return format!(
            "communicator {} matches no {word} (counterpart communicators: {})",
            describe(comm),
            described_set(other_infos.iter().map(|o| abs_of(o.comm.as_ref(), 0)))
        );
    }
    format!(
        "tag {} matches no {word} (counterpart tags on this communicator: {})",
        describe(tag),
        described_set(same_comm.iter().map(|o| abs_of(o.tag.as_ref(), 0)))
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::build;

    fn check(g: &MpiIcfg, cfg: &VerifyConfig) -> MatchReport {
        let guards = Guards::build(&g.icfg().ir.unit.program);
        super::check(g, &guards, cfg)
    }

    #[test]
    fn figure1_is_fully_matched() {
        let g = build(
            "program p global x: real; global y: real;\n\
             sub main() { if (rank() == 0) { send(x, 1, 7); } else { recv(y, 0, 7); } }",
        );
        let r = check(&g, &VerifyConfig::default());
        assert_eq!((r.sends, r.recvs), (1, 1));
        assert!(r.is_clean(), "{r:?}");
    }

    #[test]
    fn tag_mismatch_is_diagnosed_both_ways() {
        let g = build(
            "program p global x: real; global y: real;\n\
             sub main() { send(x, 1 - rank(), 1); recv(y, 1 - rank(), 2); }",
        );
        let r = check(&g, &VerifyConfig::default());
        assert_eq!(r.unmatched_sends.len(), 1);
        assert_eq!(r.unmatched_recvs.len(), 1);
        assert!(
            r.unmatched_sends[0].reason.contains("tag 1"),
            "{}",
            r.unmatched_sends[0].reason
        );
        assert!(
            r.unmatched_recvs[0].reason.contains("tag 2"),
            "{}",
            r.unmatched_recvs[0].reason
        );
    }

    #[test]
    fn lonely_recv_reports_no_send() {
        let g = build(
            "program p global y: real;\n\
             sub main() { recv(y, 0, 3); }",
        );
        let r = check(&g, &VerifyConfig::default());
        assert_eq!(r.unmatched_recvs.len(), 1);
        assert!(r.unmatched_recvs[0]
            .reason
            .contains("no send anywhere in the program"));
    }

    #[test]
    fn looping_recv_with_one_shot_send_is_flagged() {
        // One send, three receive iterations: the matcher pairs them, but
        // iterations two and three have nothing left to consume.
        let g = build(
            "program p global x: real; global y: real; global i: int;\n\
             sub main() {\n\
               if (rank() == 0) { send(x, 1, 5); }\n\
               else { for i = 1, 3 { recv(y, 0, 5); } }\n\
             }",
        );
        let r = check(&g, &VerifyConfig::default());
        assert_eq!(r.loop_diags.len(), 1, "{r:?}");
        assert!(r.loop_diags[0].reason.contains("exhaust"), "{r:?}");
        assert!(!r.is_clean());
    }

    #[test]
    fn loop_to_loop_exchange_is_quiet() {
        // Send and receive both iterate: supply matches demand shape, so
        // no supply-exhaustion diagnostic (the classic exchange pattern).
        let g = build(
            "program p global x: real; global y: real; global i: int;\n\
             sub main() {\n\
               if (rank() == 0) { for i = 1, 3 { send(x, 1, 5); } }\n\
               else { for i = 1, 3 { recv(y, 0, 5); } }\n\
             }",
        );
        let r = check(&g, &VerifyConfig::default());
        assert!(r.loop_diags.is_empty(), "{r:?}");
        assert!(r.is_clean(), "{r:?}");
    }

    #[test]
    fn straight_line_recv_is_quiet() {
        let g = build(
            "program p global x: real; global y: real;\n\
             sub main() { if (rank() == 0) { send(x, 1, 5); } else { recv(y, 0, 5); } }",
        );
        let r = check(&g, &VerifyConfig::default());
        assert!(r.loop_diags.is_empty(), "{r:?}");
    }

    #[test]
    fn rank_excluded_collective_is_flagged() {
        // Every bcast site excludes rank 0, the only possible root: rank 1
        // arrives and waits for a participant that never comes.
        let g = build(
            "program p global x: real;\n\
             sub main() { if (rank() > 0) { bcast(x, 0); } }",
        );
        let r = check(&g, &VerifyConfig::default());
        assert_eq!(r.collective_diags.len(), 1, "{r:?}");
        assert!(
            r.collective_diags[0].reason.contains("bcast")
                && r.collective_diags[0].reason.contains("rank 0"),
            "{r:?}"
        );
        assert!(!r.is_clean());
    }

    #[test]
    fn split_collective_sites_cover_all_ranks() {
        // Per-site guards each exclude ranks, but together every rank can
        // reach *a* barrier — no participation diagnostic.
        let g = build(
            "program p\n\
             sub main() { if (rank() == 0) { barrier(); } else { barrier(); } }",
        );
        let r = check(&g, &VerifyConfig::default());
        assert!(r.collective_diags.is_empty(), "{r:?}");
    }

    #[test]
    fn unguarded_collective_is_quiet() {
        let g = build(
            "program p global z: real; global f: real;\n\
             sub main() { reduce(SUM, z, f, 0); }",
        );
        let r = check(&g, &VerifyConfig::default());
        assert!(r.collective_diags.is_empty(), "{r:?}");
        assert!(r.is_clean(), "{r:?}");
    }

    #[test]
    fn out_of_range_peer_rank_is_flagged() {
        let g = build(
            "program p global x: real; global y: real;\n\
             sub main() { if (rank() == 0) { send(x, 9, 7); } else { recv(y, 0, 7); } }",
        );
        let r = check(&g, &VerifyConfig::default());
        assert_eq!(r.rank_diags.len(), 1, "{r:?}");
        assert!(r.rank_diags[0].reason.contains("9 outside 0..2"));
    }
}
