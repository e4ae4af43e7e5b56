//! MPI-ICFG construction: communication matching.
//!
//! Following Section 4.1 of the paper, communication connects possible
//! `send`/`isend` → `recv`/`irecv` pairs, all calls to `bcast` with each
//! other, and all calls to `reduce` with each other (we also cover
//! `allreduce`). An interprocedural reaching-constants analysis evaluates
//! the tag, communicator, and root arguments; when both sides evaluate to
//! constants they must match, otherwise the pair is kept conservatively.
//!
//! Matching never enumerates pairs. Nodes of one kind with equal (key,
//! communicator) values form a group; every receiver in a group has the
//! same sources — the members of the compatible sender groups — so each
//! receiver group becomes one communication class of the graph
//! ([`CommClasses`]). A collective group of k members is one class of k
//! sources and k receivers, where the paper draws k² edges.
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
use mpi_dfa_core::graph::{CommClasses, Edge, FlowGraph, NodeId};
use mpi_dfa_lang::ast::{BinOp, Expr, ExprKind, Intrinsic, UnOp};
use std::collections::HashMap;
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

/// `a / b` as the interpreter computes it, when that is an integer. The
/// interpreter divides in `f64`, so `7 / 2` is 3.5, not 3: only an exact
/// quotient folds to an integer constant. Division by zero and overflow
/// are not constants either.
pub fn exact_quotient(a: i64, b: i64) -> Option<i64> {
    (a.checked_rem(b)? == 0).then(|| a / b)
}

/// Literal constant folding shared by [`SyntacticConsts`], the verify
/// passes and the tests. An operation that overflows `i64`, divides by
/// zero or leaves a remainder is not a constant.
pub fn fold_int(e: &Expr) -> Option<i64> {
    match &e.kind {
        ExprKind::IntLit(v) => Some(*v),
        ExprKind::Unary(UnOp::Neg, inner) => fold_int(inner)?.checked_neg(),
        ExprKind::Binary(op, a, b) => {
            let (a, b) = (fold_int(a)?, fold_int(b)?);
            match op {
                BinOp::Add => a.checked_add(b),
                BinOp::Sub => a.checked_sub(b),
                BinOp::Mul => a.checked_mul(b),
                BinOp::Div => exact_quotient(a, b),
                _ => None,
            }
        }
        ExprKind::Intrinsic(Intrinsic::Mod, args) => {
            let (a, m) = (fold_int(&args[0])?, fold_int(&args[1])?);
            a.checked_rem_euclid(m)
        }
        _ => None,
    }
}

/// One communication pair: `from` sends data that `to` may receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CommEdgeInfo {
    pub from: NodeId,
    pub to: NodeId,
}

/// Per-kind counts of MPI nodes and the resulting pair count, for reports
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

/// The communication edges of an MPI-ICFG, held as classes. `len()` is the
/// number of (source, receiver) pairs the classes stand for, and `iter()`
/// expands them in matching order: point-to-point pairs, then `bcast`,
/// `reduce` and `allreduce` pairs, each by source and then receiver in
/// ascending node id. Storage grows with the classes, not the pairs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommEdges {
    classes: CommClasses,
    /// Every source, in pair order.
    sources: Vec<NodeId>,
}

impl CommEdges {
    /// Number of communication pairs: Σ |sources| × |receivers|.
    pub fn len(&self) -> usize {
        self.classes.num_pairs()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The pairs, expanded in matching order.
    pub fn iter(&self) -> impl Iterator<Item = CommEdgeInfo> + '_ {
        self.sources.iter().flat_map(move |&from| {
            self.classes
                .succs(from)
                .into_iter()
                .map(move |to| CommEdgeInfo { from, to })
        })
    }
}

/// The MPI-ICFG: an [`Icfg`] plus its communication classes. Dereferences
/// to the underlying ICFG, which has control edges only.
#[derive(Debug)]
pub struct MpiIcfg {
    icfg: Icfg,
    pub comm_edges: CommEdges,
}

impl MpiIcfg {
    /// Match `icfg`'s communication using `consts` for argument matching.
    pub fn build(icfg: Icfg, consts: &dyn ConstQuery) -> MpiIcfg {
        match Self::build_metered(icfg, consts, None) {
            Ok(g) => g,
            // `build_metered` can only fail when a meter is attached.
            Err(_) => unreachable!("unmetered MPI-ICFG construction is infallible"),
        }
    }

    /// Like [`MpiIcfg::build`], but charges `budget` one work unit per
    /// candidate pair a pairwise matcher would check (|sends| × |recvs| +
    /// Σ over collective kinds of |calls|², charged at once); returns
    /// [`IcfgError::Budget`] if that exhausts it.
    pub fn try_build(
        icfg: Icfg,
        consts: &dyn ConstQuery,
        budget: &Budget,
    ) -> Result<MpiIcfg, IcfgError> {
        let mut meter = budget.meter();
        Self::build_metered(icfg, consts, Some(&mut meter))
    }

    fn build_metered(
        icfg: Icfg,
        consts: &dyn ConstQuery,
        meter: Option<&mut BudgetMeter>,
    ) -> Result<MpiIcfg, IcfgError> {
        let mut span = mpi_dfa_core::telemetry::span("pipeline", "mpi_matching");
        // Each MPI node's match arguments are evaluated once, here. Non-MPI
        // payloads in `mpi_nodes()` would be an internal inconsistency;
        // they are skipped rather than panicked on.
        let nodes: Vec<MatchNode> = icfg
            .mpi_nodes()
            .iter()
            .filter_map(|&n| match &icfg.payload(n).kind {
                NodeKind::Mpi(info) => Some(MatchNode::new(n, info, consts)),
                _ => None,
            })
            .collect();

        // Matching order: point-to-point (sends feed receives), then each
        // collective kind (every call feeds every call, itself included).
        let of = |pick: &dyn Fn(MpiKind) -> bool| -> Vec<&MatchNode> {
            nodes.iter().filter(|m| pick(m.kind)).collect()
        };
        let mut stages = vec![(of(&|k| k.is_p2p_send()), of(&|k| k.is_p2p_recv()))];
        for kind in [MpiKind::Bcast, MpiKind::Reduce, MpiKind::Allreduce] {
            let group = of(&|k| k == kind);
            stages.push((group.clone(), group));
        }
        if let Some(m) = meter {
            let checks = stages.iter().fold(0u64, |acc, (s, r)| {
                acc.saturating_add((s.len() as u64).saturating_mul(r.len() as u64))
            });
            m.charge(checks).map_err(IcfgError::Budget)?;
        }

        let mut classes = Vec::new();
        let mut sources = Vec::new();
        for (senders, receivers) in &stages {
            classes.extend(match_groups(senders, receivers));
            sources.extend(senders.iter().map(|m| m.node));
        }
        let comm_edges = CommEdges {
            classes: CommClasses::new(icfg.num_nodes(), classes),
            sources,
        };
        span.arg("mpi_nodes", nodes.len());
        span.arg("comm_edges", comm_edges.len());
        Ok(MpiIcfg { icfg, comm_edges })
    }

    /// Full conservative connectivity (no constant matching).
    pub fn build_naive(icfg: Icfg) -> MpiIcfg {
        Self::build(icfg, &NoConsts)
    }

    /// The underlying ICFG: control edges only, no communication. Pass the
    /// `MpiIcfg` itself as the graph of a solve that should see
    /// communication.
    pub fn icfg(&self) -> &Icfg {
        &self.icfg
    }

    /// Communication predecessors of a node, ascending — the paper's
    /// `commpred(n)`.
    pub fn comm_preds(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.comm_edges.classes.preds(n).iter().copied()
    }

    /// Communication successors of a node, ascending.
    pub fn comm_succs(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.comm_edges.classes.succs(n).into_iter()
    }

    /// Count MPI node kinds and communication pairs.
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

    fn comm_classes(&self) -> &CommClasses {
        &self.comm_edges.classes
    }
}

/// Group `senders` and `receivers` by (key, communicator) and return one
/// (sources, receivers) class per receiver group: its sources are the
/// members of every compatible sender group. A constant is compatible only
/// with itself, a wildcard or unknown value with everything, so a receiver
/// group with a constant key looks up three sender keys and any other
/// scans every sender group; either way the work is bounded by the
/// sources it collects, not by pairs.
fn match_groups(
    senders: &[&MatchNode],
    receivers: &[&MatchNode],
) -> Vec<(Vec<NodeId>, Vec<NodeId>)> {
    type Groups = Vec<((ArgVal, ArgVal), Vec<NodeId>)>;
    let group = |members: &[&MatchNode]| -> Groups {
        let mut index: HashMap<(ArgVal, ArgVal), usize> = HashMap::new();
        let mut groups: Groups = Vec::new();
        for m in members {
            let g = *index.entry((m.key, m.comm)).or_insert_with(|| {
                groups.push(((m.key, m.comm), Vec::new()));
                groups.len() - 1
            });
            groups[g].1.push(m.node);
        }
        groups
    };
    let send_groups = group(senders);
    let mut by_key: HashMap<ArgVal, Vec<usize>> = HashMap::new();
    for (g, ((key, _), _)) in send_groups.iter().enumerate() {
        by_key.entry(*key).or_default().push(g);
    }
    let all: Vec<usize> = (0..send_groups.len()).collect();
    let none = Vec::new();
    group(receivers)
        .into_iter()
        .map(|((key, comm), members)| {
            let candidates: Vec<&Vec<usize>> = match key {
                ArgVal::Const(_) => [key, ArgVal::Any, ArgVal::Unknown]
                    .iter()
                    .map(|k| by_key.get(k).unwrap_or(&none))
                    .collect(),
                ArgVal::Any | ArgVal::Unknown => vec![&all],
            };
            let sources = candidates
                .into_iter()
                .flatten()
                .map(|&g| &send_groups[g])
                .filter(|((_, c), _)| c.compatible(&comm))
                .flat_map(|(_, nodes)| nodes.iter().copied())
                .collect();
            (sources, members)
        })
        .collect()
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
}

/// The matchable value of one argument: wildcard, known constant, or
/// statically unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
        // The interpreter divides in f64: only an exact quotient folds.
        assert_eq!(fold_int(&e("8 / 2 * 2")), Some(8));
        assert_eq!(fold_int(&e("7 / 2 * 2")), None);
        assert_eq!(fold_int(&e("-(7) / 7")), Some(-1));
        // Overflow is "not a constant", never a panic or a wrapped value.
        assert_eq!(fold_int(&e("9223372036854775807 + 1")), None);
        assert_eq!(fold_int(&e("9223372036854775807 + 2")), None);
        let min = "(0 - 9223372036854775807 - 1)";
        assert_eq!(fold_int(&e(min)), Some(i64::MIN));
        assert_eq!(fold_int(&e(&format!("{min} / (0 - 1)"))), None);
        assert_eq!(fold_int(&e(&format!("mod({min}, 0 - 1)"))), None);
        assert_eq!(fold_int(&e(&format!("-({min})"))), None);
        assert_eq!(fold_int(&e("3037000500 * 3037000500")), None);
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
        let e = g.comm_edges.iter().next().unwrap();
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
        for e in g.comm_edges.iter() {
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
        let e = g.comm_edges.iter().next().unwrap();
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
