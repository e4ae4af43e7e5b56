//! MPI-ICFG construction: communication-edge matching.
//!
//! Following Section 4.1 of the paper, communication edges are added
//! between possible `send`/`isend` → `recv`/`irecv` pairs, among all calls
//! to `bcast`, and among all calls to `reduce` (we also cover `allreduce`).
//! An interprocedural reaching-constants analysis evaluates the tag,
//! communicator, and root arguments; when both sides evaluate to constants
//! they must match, otherwise the pair is kept conservatively.
//!
//! The constant evaluation is abstracted behind [`ConstQuery`] so that the
//! matcher can run with
//!
//! * [`NoConsts`] — never resolves anything: full conservative connectivity
//!   (the ablation baseline);
//! * [`SyntacticConsts`] — folds literal expressions only;
//! * the interprocedural reaching-constants query from `mpi-dfa-analyses`
//!   (the configuration the paper uses).

use crate::icfg::{Icfg, IcfgError};
use crate::node::{MatchExpr, MpiInfo, MpiKind, NodeKind};
use mpi_dfa_core::budget::{Budget, BudgetMeter};
use mpi_dfa_core::graph::{Edge, FlowGraph, NodeId};
use mpi_dfa_lang::ast::{BinOp, Expr, ExprKind, Intrinsic, UnOp};
use std::ops::Deref;

/// Resolves MPI match arguments to integer constants where possible.
pub trait ConstQuery {
    /// Evaluate `expr` at program point `node` to a single known integer, or
    /// `None` if it is not provably constant there.
    fn eval_int(&self, node: NodeId, expr: &Expr) -> Option<i64>;
}

/// Resolves nothing: every pair of communication calls of compatible kinds
/// is connected.
pub struct NoConsts;

impl ConstQuery for NoConsts {
    fn eval_int(&self, _node: NodeId, _expr: &Expr) -> Option<i64> {
        None
    }
}

/// Folds expressions built from integer literals (no variables, no
/// `rank()`/`nprocs()`). Covers the common literal-tag/root/communicator
/// case without running any data-flow analysis.
pub struct SyntacticConsts;

impl ConstQuery for SyntacticConsts {
    fn eval_int(&self, _node: NodeId, expr: &Expr) -> Option<i64> {
        fold_int(expr)
    }
}

/// Literal constant folding shared by [`SyntacticConsts`] and the tests.
pub fn fold_int(e: &Expr) -> Option<i64> {
    match &e.kind {
        ExprKind::IntLit(v) => Some(*v),
        ExprKind::Unary(UnOp::Neg, inner) => fold_int(inner).map(|v| -v),
        ExprKind::Binary(op, a, b) => {
            let (a, b) = (fold_int(a)?, fold_int(b)?);
            match op {
                BinOp::Add => Some(a + b),
                BinOp::Sub => Some(a - b),
                BinOp::Mul => Some(a * b),
                BinOp::Div => (b != 0).then(|| a / b),
                _ => None,
            }
        }
        ExprKind::Intrinsic(Intrinsic::Mod, args) => {
            let (a, m) = (fold_int(&args[0])?, fold_int(&args[1])?);
            (m != 0).then(|| a.rem_euclid(m))
        }
        _ => None,
    }
}

/// One communication edge: `from` sends data that `to` may receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommEdgeInfo {
    pub from: NodeId,
    pub to: NodeId,
}

/// Per-kind counts of MPI nodes and the resulting edge count, for reports
/// and the matching ablation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommStats {
    pub p2p_sends: usize,
    pub p2p_recvs: usize,
    pub bcasts: usize,
    pub reduces: usize,
    pub allreduces: usize,
    pub comm_edges: usize,
}

/// The MPI-ICFG: an [`Icfg`] whose edge lists additionally contain
/// communication edges. Dereferences to the underlying ICFG.
#[derive(Debug)]
pub struct MpiIcfg {
    icfg: Icfg,
    pub comm_edges: Vec<CommEdgeInfo>,
}

impl MpiIcfg {
    /// Add communication edges to `icfg` using `consts` for argument
    /// matching.
    pub fn build(icfg: Icfg, consts: &dyn ConstQuery) -> MpiIcfg {
        match Self::build_metered(icfg, consts, None) {
            Ok(g) => g,
            // `build_metered` can only fail when a meter is attached.
            Err(_) => unreachable!("unmetered MPI-ICFG construction is infallible"),
        }
    }

    /// Like [`MpiIcfg::build`], but charges one work unit per candidate
    /// pair checked during send/receive and collective matching; returns
    /// [`IcfgError::Budget`] if matching exhausts `budget`.
    pub fn try_build(
        icfg: Icfg,
        consts: &dyn ConstQuery,
        budget: &Budget,
    ) -> Result<MpiIcfg, IcfgError> {
        let mut meter = budget.meter();
        Self::build_metered(icfg, consts, Some(&mut meter))
    }

    fn build_metered(
        mut icfg: Icfg,
        consts: &dyn ConstQuery,
        mut meter: Option<&mut BudgetMeter>,
    ) -> Result<MpiIcfg, IcfgError> {
        let mut span = mpi_dfa_core::telemetry::span("pipeline", "mpi_matching");
        let mut charge = move |units: u64| -> Result<(), IcfgError> {
            match meter.as_deref_mut() {
                Some(m) => m.charge(units).map_err(IcfgError::Budget),
                None => Ok(()),
            }
        };
        let mut edges = Vec::new();
        // Each MPI node's match arguments are evaluated once, here, not per
        // candidate pair. Non-MPI payloads in `mpi_nodes()` would be an
        // internal inconsistency; they are skipped rather than panicked on.
        let nodes: Vec<MatchNode> = icfg
            .mpi_nodes()
            .iter()
            .filter_map(|&n| match &icfg.payload(n).kind {
                NodeKind::Mpi(info) => Some(MatchNode::new(n, info, consts)),
                _ => None,
            })
            .collect();

        // Point-to-point: sends × receives on tag and communicator.
        for s in nodes.iter().filter(|m| m.kind.is_p2p_send()) {
            for r in nodes.iter().filter(|m| m.kind.is_p2p_recv()) {
                charge(1)?;
                if s.matches(r) {
                    edges.push(CommEdgeInfo {
                        from: s.node,
                        to: r.node,
                    });
                }
            }
        }

        // Collectives: all ordered pairs (including self) of the same kind
        // with compatible root (bcast/reduce) and communicator.
        for kind in [MpiKind::Bcast, MpiKind::Reduce, MpiKind::Allreduce] {
            let group: Vec<&MatchNode> = nodes.iter().filter(|m| m.kind == kind).collect();
            for a in &group {
                for b in &group {
                    charge(1)?;
                    if a.matches(b) {
                        edges.push(CommEdgeInfo {
                            from: a.node,
                            to: b.node,
                        });
                    }
                }
            }
        }

        for (pair, e) in edges.iter().enumerate() {
            icfg.push_comm_edge(e.from, e.to, pair as u32);
        }
        span.arg("mpi_nodes", nodes.len());
        span.arg("comm_edges", edges.len());
        Ok(MpiIcfg {
            icfg,
            comm_edges: edges,
        })
    }

    /// Full conservative connectivity (no constant matching).
    pub fn build_naive(icfg: Icfg) -> MpiIcfg {
        Self::build(icfg, &NoConsts)
    }

    /// The underlying ICFG (without communication edges it would be the
    /// baseline graph; note the edge lists here *include* comm edges).
    pub fn icfg(&self) -> &Icfg {
        &self.icfg
    }

    /// Communication predecessors of a node (sources of incoming comm
    /// edges) — the paper's `commpred(n)`.
    pub fn comm_preds(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.icfg
            .in_edges(n)
            .iter()
            .filter(|e| e.kind.is_comm())
            .map(|e| e.from)
    }

    /// Communication successors of a node.
    pub fn comm_succs(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.icfg
            .out_edges(n)
            .iter()
            .filter(|e| e.kind.is_comm())
            .map(|e| e.to)
    }

    /// Count MPI node kinds and edges.
    pub fn stats(&self) -> CommStats {
        let mut s = CommStats {
            comm_edges: self.comm_edges.len(),
            ..Default::default()
        };
        for &n in self.icfg.mpi_nodes() {
            let NodeKind::Mpi(info) = &self.icfg.payload(n).kind else {
                continue; // skip inconsistent entries instead of panicking
            };
            match info.kind {
                MpiKind::Send | MpiKind::Isend => s.p2p_sends += 1,
                MpiKind::Recv | MpiKind::Irecv => s.p2p_recvs += 1,
                MpiKind::Bcast => s.bcasts += 1,
                MpiKind::Reduce => s.reduces += 1,
                MpiKind::Allreduce => s.allreduces += 1,
                MpiKind::Barrier | MpiKind::Wait => {}
            }
        }
        s
    }
}

impl Deref for MpiIcfg {
    type Target = Icfg;

    fn deref(&self) -> &Icfg {
        &self.icfg
    }
}

impl FlowGraph for MpiIcfg {
    fn num_nodes(&self) -> usize {
        self.icfg.num_nodes()
    }

    fn in_edges(&self, n: NodeId) -> &[Edge] {
        self.icfg.in_edges(n)
    }

    fn out_edges(&self, n: NodeId) -> &[Edge] {
        self.icfg.out_edges(n)
    }

    fn entries(&self) -> &[NodeId] {
        self.icfg.entries()
    }

    fn exits(&self) -> &[NodeId] {
        self.icfg.exits()
    }
}

/// One MPI node as matching sees it.
struct MatchNode {
    node: NodeId,
    kind: MpiKind,
    /// The tag of a point-to-point operation, the root of a collective.
    key: ArgVal,
    comm: ArgVal,
}

impl MatchNode {
    fn new(node: NodeId, info: &MpiInfo, consts: &dyn ConstQuery) -> MatchNode {
        let kind = info.kind;
        let key = match kind {
            MpiKind::Send | MpiKind::Isend | MpiKind::Recv | MpiKind::Irecv => &info.tag,
            MpiKind::Bcast | MpiKind::Reduce | MpiKind::Allreduce => &info.root,
            // Never matched: nothing to evaluate.
            MpiKind::Barrier | MpiKind::Wait => {
                let (key, comm) = (ArgVal::Unknown, ArgVal::Unknown);
                return MatchNode {
                    node,
                    kind,
                    key,
                    comm,
                };
            }
        };
        MatchNode {
            node,
            kind,
            key: ArgVal::of(key, node, consts),
            comm: match &info.comm {
                // A missing communicator argument *is* the constant
                // COMM_WORLD (0).
                None => ArgVal::Const(0),
                some => ArgVal::of(some, node, consts),
            },
        }
    }

    fn matches(&self, other: &MatchNode) -> bool {
        self.key.compatible(&other.key) && self.comm.compatible(&other.comm)
    }
}

/// The matchable value of one argument: wildcard, known constant, or
/// statically unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ArgVal {
    Any,
    Const(i64),
    Unknown,
}

impl ArgVal {
    fn of(m: &Option<MatchExpr>, node: NodeId, consts: &dyn ConstQuery) -> ArgVal {
        match m {
            None => ArgVal::Unknown,
            Some(me) if me.is_any => ArgVal::Any,
            Some(me) => match me.expr.as_ref().and_then(|e| consts.eval_int(node, e)) {
                Some(v) => ArgVal::Const(v),
                None => ArgVal::Unknown,
            },
        }
    }

    fn compatible(&self, other: &ArgVal) -> bool {
        match (self, other) {
            (ArgVal::Const(a), ArgVal::Const(b)) => a == b,
            _ => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::icfg::ProgramIr;
    use mpi_dfa_lang::parser::parse;

    fn mpi_icfg(src: &str, context: &str) -> MpiIcfg {
        let ir = ProgramIr::from_source(src).expect("compile");
        MpiIcfg::build(Icfg::build(ir, context, 0).expect("icfg"), &SyntacticConsts)
    }

    fn edge_count(g: &MpiIcfg) -> usize {
        g.comm_edges.len()
    }

    #[test]
    fn fold_int_cases() {
        let e = |src: &str| {
            let p = parse(&format!("program t sub f() {{ var q: int; q = {src}; }}")).unwrap();
            match &p.subs[0].body.stmts[1].kind {
                mpi_dfa_lang::ast::StmtKind::Assign { rhs, .. } => rhs.clone(),
                _ => unreachable!(),
            }
        };
        assert_eq!(fold_int(&e("7")), Some(7));
        assert_eq!(fold_int(&e("2 + 3 * 4")), Some(14));
        assert_eq!(fold_int(&e("-(5)")), Some(-5));
        assert_eq!(fold_int(&e("mod(10, 3)")), Some(1));
        assert_eq!(fold_int(&e("10 / 0")), None);
        assert_eq!(fold_int(&e("rank()")), None);
        assert_eq!(fold_int(&e("q")), None);
    }

    #[test]
    fn try_build_respects_pair_budget() {
        let src = "program p global x: real; global y: real;\n\
             sub main() { send(x, 1, 7); send(x, 1, 8); recv(y, 0, 7); recv(y, 0, 8); }";
        let ir = ProgramIr::from_source(src).unwrap();
        let icfg = || Icfg::build(ir.clone(), "main", 0).unwrap();
        // 2 sends × 2 recvs = 4 pair checks; a 1-unit budget exhausts.
        let tiny = mpi_dfa_core::budget::Budget::unlimited().with_max_work(1);
        assert!(matches!(
            MpiIcfg::try_build(icfg(), &SyntacticConsts, &tiny),
            Err(IcfgError::Budget(_))
        ));
        // A sufficient budget matches identically to the unmetered build.
        let enough = mpi_dfa_core::budget::Budget::unlimited().with_max_work(100);
        let metered = MpiIcfg::try_build(icfg(), &SyntacticConsts, &enough).unwrap();
        let plain = MpiIcfg::build(icfg(), &SyntacticConsts);
        assert_eq!(metered.comm_edges, plain.comm_edges);
    }

    #[test]
    fn matching_tags_connect() {
        let g = mpi_icfg(
            "program p global x: real; global y: real;\n\
             sub main() { if (rank() == 0) { send(x, 1, 7); } else { recv(y, 0, 7); } }",
            "main",
        );
        assert_eq!(edge_count(&g), 1);
        let e = g.comm_edges[0];
        assert!(matches!(g.payload(e.from).kind, NodeKind::Mpi(ref m) if m.kind == MpiKind::Send));
        assert!(matches!(g.payload(e.to).kind, NodeKind::Mpi(ref m) if m.kind == MpiKind::Recv));
    }

    #[test]
    fn mismatched_tags_pruned() {
        let g = mpi_icfg(
            "program p global x: real; global y: real;\n\
             sub main() { send(x, 1, 7); recv(y, 0, 8); send(x, 1, 8); }",
            "main",
        );
        // Only the tag-8 send matches the tag-8 recv.
        assert_eq!(edge_count(&g), 1);
    }

    #[test]
    fn any_tag_matches_everything() {
        let g = mpi_icfg(
            "program p global x: real; global y: real;\n\
             sub main() { send(x, 1, 7); send(x, 1, 8); recv(y, ANY, ANY); }",
            "main",
        );
        assert_eq!(edge_count(&g), 2);
    }

    #[test]
    fn unknown_tag_is_conservative() {
        let g = mpi_icfg(
            "program p global x: real; global y: real; global t: int;\n\
             sub main() { send(x, 1, t); recv(y, 0, 8); }",
            "main",
        );
        assert_eq!(edge_count(&g), 1, "non-constant tag cannot be pruned");
    }

    #[test]
    fn communicators_must_match_when_constant() {
        let g = mpi_icfg(
            "program p global x: real; global y: real;\n\
             sub main() { send(x, 1, 7, 1); recv(y, 0, 7, 2); recv(y, 0, 7, 1); }",
            "main",
        );
        assert_eq!(edge_count(&g), 1);
    }

    #[test]
    fn default_comm_matches_explicit_zero() {
        let g = mpi_icfg(
            "program p global x: real; global y: real;\n\
             sub main() { send(x, 1, 7); recv(y, 0, 7, 0); }",
            "main",
        );
        assert_eq!(edge_count(&g), 1);
    }

    #[test]
    fn bcast_group_includes_self_edges() {
        let g = mpi_icfg(
            "program p global a: real[4];\n\
             sub main() { bcast(a, 0); bcast(a, 0); }",
            "main",
        );
        // 2 bcasts, all ordered pairs incl. self: 4 edges.
        assert_eq!(edge_count(&g), 4);
    }

    #[test]
    fn bcast_roots_partition_groups() {
        let g = mpi_icfg(
            "program p global a: real[4];\n\
             sub main() { bcast(a, 0); bcast(a, 1); }",
            "main",
        );
        // Different constant roots: only the two self edges remain.
        assert_eq!(edge_count(&g), 2);
    }

    #[test]
    fn reduce_and_allreduce_groups_are_separate() {
        let g = mpi_icfg(
            "program p global s: real;\n\
             sub main() { reduce(SUM, s, s, 0); allreduce(SUM, s, s); }",
            "main",
        );
        // One self edge each; no cross edges between reduce and allreduce.
        assert_eq!(edge_count(&g), 2);
        for e in &g.comm_edges {
            assert_eq!(e.from, e.to);
        }
    }

    #[test]
    fn sends_never_match_collectives() {
        let g = mpi_icfg(
            "program p global x: real;\n\
             sub main() { send(x, 1, 7); bcast(x, 0); }",
            "main",
        );
        assert_eq!(edge_count(&g), 1, "only the bcast self edge");
    }

    #[test]
    fn naive_matching_is_full_connectivity() {
        let src = "program p global x: real; global y: real;\n\
             sub main() { send(x, 1, 7); send(x, 1, 8); recv(y, 0, 7); recv(y, 0, 8); }";
        let ir = ProgramIr::from_source(src).unwrap();
        let refined = MpiIcfg::build(
            Icfg::build(ir.clone(), "main", 0).unwrap(),
            &SyntacticConsts,
        );
        let naive = MpiIcfg::build_naive(Icfg::build(ir, "main", 0).unwrap());
        assert_eq!(refined.comm_edges.len(), 2);
        assert_eq!(naive.comm_edges.len(), 4);
    }

    #[test]
    fn comm_preds_and_succs() {
        let g = mpi_icfg(
            "program p global x: real; global y: real;\n\
             sub main() { send(x, 1, 7); recv(y, ANY, 7); }",
            "main",
        );
        let e = g.comm_edges[0];
        assert_eq!(g.comm_preds(e.to).collect::<Vec<_>>(), vec![e.from]);
        assert_eq!(g.comm_succs(e.from).collect::<Vec<_>>(), vec![e.to]);
        assert_eq!(g.comm_preds(e.from).count(), 0);
    }

    #[test]
    fn stats_count_kinds() {
        let g = mpi_icfg(
            "program p global x: real; global s: real;\n\
             sub main() {\n\
               send(x, 1, 1); isend(x, 1, 2); recv(x, 0, 1); irecv(x, 0, 2);\n\
               bcast(x, 0); reduce(SUM, s, s, 0); allreduce(MAX, s, s);\n\
               barrier(); wait();\n\
             }",
            "main",
        );
        let st = g.stats();
        assert_eq!(st.p2p_sends, 2);
        assert_eq!(st.p2p_recvs, 2);
        assert_eq!(st.bcasts, 1);
        assert_eq!(st.reduces, 1);
        assert_eq!(st.allreduces, 1);
    }
}
