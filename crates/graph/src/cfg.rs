//! Per-procedure control-flow graphs and AST lowering.
//!
//! Each procedure lowers to a statement-level CFG with dedicated `Entry`
//! (local node 0) and `Exit` (local node 1) nodes. `for` loops desugar into
//! init-assign → header-branch → body → increment-assign → header. Call
//! statements produce a `CallSite`/`AfterCall` node pair with **no**
//! intraprocedural edge between them — the ICFG connects them through the
//! callee, so facts cannot bypass it.

use crate::loc::{Loc, LocTable, ProcId};
use crate::node::*;
use mpi_dfa_lang::ast::{
    self, BinOp, Block, Expr, ExprKind, LValue, MpiStmt, Stmt, StmtId, StmtKind, UnOp,
};
use mpi_dfa_lang::span::Span;
use mpi_dfa_lang::CompiledUnit;

/// Local ids of the distinguished nodes.
pub const ENTRY: u32 = 0;
pub const EXIT: u32 = 1;

/// The CFG of a single procedure.
#[derive(Debug)]
pub struct ProcCfg {
    pub proc: ProcId,
    pub name: String,
    pub nodes: Vec<CfgNode>,
    pub call_sites: Vec<CallSiteInfo>,
    succs: Vec<Vec<u32>>,
    preds: Vec<Vec<u32>>,
}

impl ProcCfg {
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    pub fn succs(&self, n: u32) -> &[u32] {
        &self.succs[n as usize]
    }

    pub fn preds(&self, n: u32) -> &[u32] {
        &self.preds[n as usize]
    }

    /// All local flow edges.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.succs
            .iter()
            .enumerate()
            .flat_map(|(from, tos)| tos.iter().map(move |&to| (from as u32, to)))
    }
}

/// Lower every procedure of `unit` against `locs`, in declaration order
/// (procedure `i` is `unit.program.subs[i]`). Statement ids and source
/// spans are copied from the AST, so the CFGs belong to this program only.
pub fn lower_program(unit: &CompiledUnit, locs: &LocTable) -> Vec<ProcCfg> {
    unit.program
        .subs
        .iter()
        .enumerate()
        .map(|(i, sub)| {
            Lowerer {
                unit,
                locs,
                proc: ProcId(i as u32),
                nodes: vec![
                    CfgNode {
                        kind: NodeKind::Entry,
                        stmt: None,
                        span: sub.span,
                    },
                    CfgNode {
                        kind: NodeKind::Exit,
                        stmt: None,
                        span: sub.span,
                    },
                ],
                edges: Vec::new(),
                call_sites: Vec::new(),
            }
            .lower(sub)
        })
        .collect()
}

struct Lowerer<'a> {
    unit: &'a CompiledUnit,
    locs: &'a LocTable,
    proc: ProcId,
    nodes: Vec<CfgNode>,
    edges: Vec<(u32, u32)>,
    call_sites: Vec<CallSiteInfo>,
}

impl<'a> Lowerer<'a> {
    fn lower(mut self, sub: &ast::SubDecl) -> ProcCfg {
        let ends = self.lower_block(&sub.body, vec![ENTRY]);
        for e in ends {
            self.edges.push((e, EXIT));
        }
        let n = self.nodes.len();
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        self.edges.sort_unstable();
        self.edges.dedup();
        for &(a, b) in &self.edges {
            succs[a as usize].push(b);
            preds[b as usize].push(a);
        }
        ProcCfg {
            proc: self.proc,
            name: sub.name.clone(),
            nodes: self.nodes,
            call_sites: self.call_sites,
            succs,
            preds,
        }
    }

    fn push_node(
        &mut self,
        kind: NodeKind,
        stmt: Option<StmtId>,
        span: Span,
        preds: &[u32],
    ) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push(CfgNode { kind, stmt, span });
        for &p in preds {
            self.edges.push((p, id));
        }
        id
    }

    /// Lower a block; `preds` are the dangling predecessors flowing in.
    /// Returns the dangling exits of the block (empty after `return`).
    fn lower_block(&mut self, block: &Block, mut preds: Vec<u32>) -> Vec<u32> {
        for stmt in &block.stmts {
            preds = self.lower_stmt(stmt, preds);
        }
        preds
    }

    fn lower_stmt(&mut self, stmt: &Stmt, preds: Vec<u32>) -> Vec<u32> {
        let sid = Some(stmt.id);
        match &stmt.kind {
            StmtKind::Local { decl, init } => {
                let kind = match init {
                    Some(e) => NodeKind::Assign {
                        lhs: self.whole_ref(&decl.name),
                        rhs: self.expr_info(e, true),
                    },
                    None => NodeKind::Nop,
                };
                vec![self.push_node(kind, sid, stmt.span, &preds)]
            }
            StmtKind::Assign { lhs, rhs } => {
                let kind = NodeKind::Assign {
                    lhs: self.ref_info(lhs),
                    rhs: self.expr_info(rhs, true),
                };
                vec![self.push_node(kind, sid, stmt.span, &preds)]
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let b = self.push_node(
                    NodeKind::Branch {
                        cond: self.expr_info(cond, false),
                    },
                    sid,
                    stmt.span,
                    &preds,
                );
                let mut ends = self.lower_block(then_blk, vec![b]);
                match else_blk {
                    Some(e) => ends.extend(self.lower_block(e, vec![b])),
                    None => ends.push(b),
                }
                ends
            }
            StmtKind::While { cond, body } => {
                let b = self.push_node(
                    NodeKind::Branch {
                        cond: self.expr_info(cond, false),
                    },
                    sid,
                    stmt.span,
                    &preds,
                );
                let body_ends = self.lower_block(body, vec![b]);
                for e in body_ends {
                    self.edges.push((e, b));
                }
                vec![b]
            }
            StmtKind::For {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                // init: var = lo
                let init = self.push_node(
                    NodeKind::Assign {
                        lhs: self.whole_ref(var),
                        rhs: self.expr_info(lo, false),
                    },
                    sid,
                    stmt.span,
                    &preds,
                );
                // header: branch on var <= hi (uses var, hi non-differentiably)
                let cond_expr = Expr {
                    kind: ExprKind::Binary(
                        BinOp::Le,
                        Box::new(Expr {
                            kind: ExprKind::Var(LValue::var(var.clone(), Span::DUMMY)),
                            span: Span::DUMMY,
                        }),
                        Box::new(hi.clone()),
                    ),
                    span: hi.span,
                };
                let header = self.push_node(
                    NodeKind::Branch {
                        cond: self.expr_info(&cond_expr, false),
                    },
                    sid,
                    stmt.span,
                    &[init],
                );
                let body_ends = self.lower_block(body, vec![header]);
                // increment: var = var + step
                let step_expr = step.clone().unwrap_or(Expr::int(1, Span::DUMMY));
                let incr_expr = Expr {
                    kind: ExprKind::Binary(
                        BinOp::Add,
                        Box::new(Expr {
                            kind: ExprKind::Var(LValue::var(var.clone(), Span::DUMMY)),
                            span: Span::DUMMY,
                        }),
                        Box::new(step_expr),
                    ),
                    span: Span::DUMMY,
                };
                let incr = self.push_node(
                    NodeKind::Assign {
                        lhs: self.whole_ref(var),
                        rhs: self.expr_info(&incr_expr, false),
                    },
                    sid,
                    stmt.span,
                    &body_ends,
                );
                self.edges.push((incr, header));
                vec![header]
            }
            StmtKind::Call { name, args } => {
                // Infallible by construction: a `CompiledUnit` only exists
                // after sema, which rejects calls to undefined subroutines.
                let callee = self
                    .unit
                    .program
                    .subs
                    .iter()
                    .position(|s| s.name == *name)
                    .expect("sema guarantees callee exists");
                let actuals: Vec<ActualArg> = args
                    .iter()
                    .map(|a| {
                        let reference = a.as_lvalue().map(|lv| self.ref_info(lv));
                        ActualArg {
                            reference,
                            value: self.expr_info(a, true),
                        }
                    })
                    .collect();
                let site = self.call_sites.len() as u32;
                let call = self.push_node(NodeKind::CallSite { site }, sid, stmt.span, &preds);
                // No flow edge call -> after; the ICFG routes through the callee.
                let after = self.push_node(NodeKind::AfterCall { site }, sid, stmt.span, &[]);
                self.call_sites.push(CallSiteInfo {
                    callee: ProcId(callee as u32),
                    args: actuals,
                    stmt: stmt.id,
                    call_node: call,
                    after_node: after,
                });
                vec![after]
            }
            StmtKind::Return => {
                for p in preds {
                    self.edges.push((p, EXIT));
                }
                Vec::new()
            }
            StmtKind::Mpi(m) => {
                let info = self.mpi_info(m);
                vec![self.push_node(NodeKind::Mpi(info), sid, stmt.span, &preds)]
            }
            StmtKind::Read(lv) => {
                let kind = NodeKind::Read {
                    target: self.ref_info(lv),
                };
                vec![self.push_node(kind, sid, stmt.span, &preds)]
            }
            StmtKind::Print(e) => {
                let kind = NodeKind::Print {
                    value: self.expr_info(e, true),
                };
                vec![self.push_node(kind, sid, stmt.span, &preds)]
            }
        }
    }

    fn mpi_info(&self, m: &MpiStmt) -> MpiInfo {
        let none = MpiInfo {
            kind: MpiKind::Barrier,
            buf: None,
            value: None,
            peer: None,
            tag: None,
            root: None,
            comm: None,
            op: None,
        };
        match m {
            MpiStmt::Send {
                buf,
                dest,
                tag,
                comm,
                blocking,
            } => MpiInfo {
                kind: if *blocking {
                    MpiKind::Send
                } else {
                    MpiKind::Isend
                },
                buf: Some(self.ref_info(buf)),
                peer: Some(self.match_expr(dest)),
                tag: Some(self.match_expr(tag)),
                comm: comm.as_ref().map(|c| self.match_expr(c)),
                ..none
            },
            MpiStmt::Recv {
                buf,
                src,
                tag,
                comm,
                blocking,
            } => MpiInfo {
                kind: if *blocking {
                    MpiKind::Recv
                } else {
                    MpiKind::Irecv
                },
                buf: Some(self.ref_info(buf)),
                peer: Some(self.match_expr(src)),
                tag: Some(self.match_expr(tag)),
                comm: comm.as_ref().map(|c| self.match_expr(c)),
                ..none
            },
            MpiStmt::Bcast { buf, root, comm } => MpiInfo {
                kind: MpiKind::Bcast,
                buf: Some(self.ref_info(buf)),
                root: Some(self.match_expr(root)),
                comm: comm.as_ref().map(|c| self.match_expr(c)),
                ..none
            },
            MpiStmt::Reduce {
                op,
                send,
                recv,
                root,
                comm,
            } => MpiInfo {
                kind: MpiKind::Reduce,
                buf: Some(self.ref_info(recv)),
                value: Some(self.expr_info(send, true)),
                root: Some(self.match_expr(root)),
                comm: comm.as_ref().map(|c| self.match_expr(c)),
                op: Some(*op),
                ..none
            },
            MpiStmt::Allreduce {
                op,
                send,
                recv,
                comm,
            } => MpiInfo {
                kind: MpiKind::Allreduce,
                buf: Some(self.ref_info(recv)),
                value: Some(self.expr_info(send, true)),
                comm: comm.as_ref().map(|c| self.match_expr(c)),
                op: Some(*op),
                ..none
            },
            MpiStmt::Barrier => MpiInfo {
                kind: MpiKind::Barrier,
                ..none
            },
            MpiStmt::Wait => MpiInfo {
                kind: MpiKind::Wait,
                ..none
            },
        }
    }

    // ---- reference / expression resolution --------------------------------

    // Infallible by construction: a `CompiledUnit` only exists after sema,
    // which rejects references to undeclared names, and `LocTable::build`
    // enumerates every declared name of every procedure.
    fn resolve(&self, name: &str) -> Loc {
        self.locs
            .resolve(self.proc, name)
            .unwrap_or_else(|| panic!("unresolved name `{name}` in proc {}", self.proc.0))
    }

    fn whole_ref(&self, name: &str) -> RefInfo {
        RefInfo {
            loc: self.resolve(name),
            whole: true,
            index_uses: Vec::new(),
        }
    }

    fn ref_info(&self, lv: &LValue) -> RefInfo {
        let mut index_uses = Vec::new();
        for ix in &lv.indices {
            collect_uses(
                ix,
                false,
                &mut UseSetSink::NonDiffOnly(&mut index_uses),
                &|n| self.resolve(n),
            );
        }
        RefInfo {
            loc: self.resolve(&lv.name),
            whole: lv.indices.is_empty(),
            index_uses,
        }
    }

    fn expr_info(&self, e: &Expr, diff_root: bool) -> ExprInfo {
        let mut uses = UseSet::default();
        collect_uses(e, diff_root, &mut UseSetSink::Full(&mut uses), &|n| {
            self.resolve(n)
        });
        dedup(&mut uses.diff);
        dedup(&mut uses.nondiff);
        let mut operands = Vec::new();
        collect_operands(e, &mut operands, &|n| self.resolve(n));
        ExprInfo {
            expr: e.clone(),
            uses,
            operands,
        }
    }

    fn match_expr(&self, e: &Expr) -> MatchExpr {
        if matches!(e.kind, ExprKind::AnyWildcard) {
            return MatchExpr::any();
        }
        let mut uses = Vec::new();
        collect_uses(e, false, &mut UseSetSink::NonDiffOnly(&mut uses), &|n| {
            self.resolve(n)
        });
        dedup(&mut uses);
        MatchExpr {
            expr: Some(e.clone()),
            is_any: false,
            uses,
        }
    }
}

fn dedup(v: &mut Vec<Loc>) {
    v.sort_unstable();
    v.dedup();
}

/// Where collected uses go: the full diff/nondiff split, or a flat
/// non-differentiable list (for subscripts and match expressions).
enum UseSetSink<'a> {
    Full(&'a mut UseSet),
    NonDiffOnly(&'a mut Vec<Loc>),
}

impl UseSetSink<'_> {
    fn push(&mut self, loc: Loc, diff: bool) {
        match self {
            UseSetSink::Full(u) => {
                if diff {
                    u.diff.push(loc);
                } else {
                    u.nondiff.push(loc);
                }
            }
            UseSetSink::NonDiffOnly(v) => v.push(loc),
        }
    }
}

/// Push the location of every `Var` leaf of `e` in evaluation order: the
/// order a constant evaluator meets them, so it can read them by position.
/// Subscripts are not evaluated there, so they are not walked here.
fn collect_operands(e: &Expr, out: &mut Vec<Loc>, resolve: &impl Fn(&str) -> Loc) {
    match &e.kind {
        ExprKind::Var(lv) => out.push(resolve(&lv.name)),
        ExprKind::Unary(_, inner) => collect_operands(inner, out, resolve),
        ExprKind::Binary(_, a, b) => {
            collect_operands(a, out, resolve);
            collect_operands(b, out, resolve);
        }
        ExprKind::Intrinsic(_, args) => {
            for a in args {
                collect_operands(a, out, resolve);
            }
        }
        ExprKind::IntLit(_)
        | ExprKind::RealLit(_)
        | ExprKind::BoolLit(_)
        | ExprKind::Rank
        | ExprKind::Nprocs
        | ExprKind::AnyWildcard => {}
    }
}

/// Walk an expression, classifying each variable use. `diff` is true while
/// the current position flows differentiably into the expression value.
fn collect_uses(e: &Expr, diff: bool, sink: &mut UseSetSink<'_>, resolve: &impl Fn(&str) -> Loc) {
    match &e.kind {
        ExprKind::Var(lv) => {
            sink.push(resolve(&lv.name), diff);
            for ix in &lv.indices {
                collect_uses(ix, false, sink, resolve);
            }
        }
        ExprKind::Unary(op, inner) => {
            let d = diff && *op == UnOp::Neg;
            collect_uses(inner, d, sink, resolve);
        }
        ExprKind::Binary(op, a, b) => {
            let d = diff && op.is_arith();
            collect_uses(a, d, sink, resolve);
            collect_uses(b, d, sink, resolve);
        }
        ExprKind::Intrinsic(i, args) => {
            let d = diff && i.is_differentiable();
            for a in args {
                collect_uses(a, d, sink, resolve);
            }
        }
        ExprKind::IntLit(_)
        | ExprKind::RealLit(_)
        | ExprKind::BoolLit(_)
        | ExprKind::Rank
        | ExprKind::Nprocs
        | ExprKind::AnyWildcard => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_dfa_lang::compile;

    fn lower(src: &str) -> (CompiledUnit, LocTable, Vec<ProcCfg>) {
        let unit = compile(src).expect("compile");
        let locs = LocTable::build(&unit);
        let cfgs = lower_program(&unit, &locs);
        (unit, locs, cfgs)
    }

    fn find_nodes(cfg: &ProcCfg, pred: impl Fn(&NodeKind) -> bool) -> Vec<(u32, &CfgNode)> {
        cfg.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| pred(&n.kind))
            .map(|(i, n)| (i as u32, n))
            .collect()
    }

    #[test]
    fn straight_line_shape() {
        let (_, _, cfgs) = lower("program p sub main() { var x: real; x = 1.0; x = x + 1.0; }");
        let cfg = &cfgs[0];
        // entry, exit, nop(decl), assign, assign
        assert_eq!(cfg.num_nodes(), 5);
        assert_eq!(cfg.succs(ENTRY).len(), 1);
        assert_eq!(cfg.preds(EXIT).len(), 1);
        // Linear chain entry -> 2 -> 3 -> 4 -> exit.
        assert_eq!(cfg.succs(2), &[3]);
        assert_eq!(cfg.succs(3), &[4]);
        assert_eq!(cfg.succs(4), &[EXIT]);
    }

    #[test]
    fn if_else_diamond() {
        let (_, _, cfgs) = lower(
            "program p global x: real; sub main() { if (x > 0.0) { x = 1.0; } else { x = 2.0; } x = 3.0; }",
        );
        let cfg = &cfgs[0];
        let branches = find_nodes(cfg, |k| matches!(k, NodeKind::Branch { .. }));
        assert_eq!(branches.len(), 1);
        let b = branches[0].0;
        assert_eq!(cfg.succs(b).len(), 2, "branch has two successors");
        // The merge assign has two predecessors.
        let merge = find_nodes(cfg, |k| matches!(k, NodeKind::Assign { .. }))
            .into_iter()
            .find(|(i, _)| cfg.preds(*i).len() == 2)
            .expect("merge node");
        assert_eq!(cfg.succs(merge.0), &[EXIT]);
    }

    #[test]
    fn if_without_else_falls_through() {
        let (_, _, cfgs) =
            lower("program p global x: real; sub main() { if (x > 0.0) { x = 1.0; } x = 2.0; }");
        let cfg = &cfgs[0];
        let b = find_nodes(cfg, |k| matches!(k, NodeKind::Branch { .. }))[0].0;
        // Branch succ contains both the then-assign and the following assign.
        assert_eq!(cfg.succs(b).len(), 2);
    }

    #[test]
    fn while_loop_back_edge() {
        let (_, _, cfgs) =
            lower("program p global x: real; sub main() { while (x > 0.0) { x = x - 1.0; } }");
        let cfg = &cfgs[0];
        let b = find_nodes(cfg, |k| matches!(k, NodeKind::Branch { .. }))[0].0;
        let body = find_nodes(cfg, |k| matches!(k, NodeKind::Assign { .. }))[0].0;
        assert!(cfg.succs(b).contains(&body));
        assert!(cfg.succs(body).contains(&b), "back edge to header");
        assert!(cfg.succs(b).contains(&EXIT));
    }

    #[test]
    fn for_desugars_to_init_header_incr() {
        let (_, _, cfgs) = lower(
            "program p global a: real[5]; sub main() { var i: int; for i = 1, 5 { a[i] = 0.0; } }",
        );
        let cfg = &cfgs[0];
        // nop(decl), init assign, header branch, body assign, incr assign
        let assigns = find_nodes(cfg, |k| matches!(k, NodeKind::Assign { .. }));
        assert_eq!(assigns.len(), 3, "init + body + increment");
        let header = find_nodes(cfg, |k| matches!(k, NodeKind::Branch { .. }))[0].0;
        assert!(cfg.succs(header).contains(&EXIT));
        // Exactly one incoming back edge to the header from the increment.
        assert_eq!(cfg.preds(header).len(), 2);
    }

    #[test]
    fn return_cuts_flow() {
        let (_, _, cfgs) = lower("program p global x: real; sub main() { return; x = 1.0; }");
        let cfg = &cfgs[0];
        let assign = find_nodes(cfg, |k| matches!(k, NodeKind::Assign { .. }))[0].0;
        assert!(
            cfg.preds(assign).is_empty(),
            "code after return is unreachable"
        );
        // The return edge goes straight from entry to exit; the dead assign
        // keeps its structural edge to exit but can never execute.
        assert!(cfg.preds(EXIT).contains(&ENTRY));
    }

    #[test]
    fn call_site_has_no_local_edge_to_after() {
        let (_, _, cfgs) = lower("program p sub f() { } sub main() { call f(); }");
        let cfg = &cfgs[1];
        assert_eq!(cfg.call_sites.len(), 1);
        let cs = &cfg.call_sites[0];
        assert!(
            cfg.succs(cs.call_node).is_empty(),
            "call connects only via ICFG"
        );
        assert!(cfg.preds(cs.after_node).is_empty());
        assert_eq!(cfg.succs(cs.after_node), &[EXIT]);
    }

    #[test]
    fn use_classification_diff_vs_nondiff() {
        let (_, locs, cfgs) = lower(
            "program p global a: real[9]; global b: real; global i: int;\n\
             sub main() { b = a[i] * 2.0 + b; }",
        );
        let cfg = &cfgs[0];
        let (_, node) = cfg
            .nodes
            .iter()
            .enumerate()
            .find(|(_, n)| matches!(n.kind, NodeKind::Assign { .. }))
            .unwrap();
        let NodeKind::Assign { lhs, rhs } = &node.kind else {
            unreachable!()
        };
        let a = locs.global("a").unwrap();
        let b = locs.global("b").unwrap();
        let i = locs.global("i").unwrap();
        assert_eq!(lhs.loc, b);
        assert!(lhs.whole);
        assert!(rhs.uses.diff.contains(&a));
        assert!(rhs.uses.diff.contains(&b));
        assert!(
            rhs.uses.nondiff.contains(&i),
            "subscript use is non-differentiable"
        );
        assert!(!rhs.uses.diff.contains(&i));
        assert_eq!(rhs.operands, [a, b], "an element read is its array");
    }

    #[test]
    fn operands_follow_evaluation_order_with_repeats() {
        let (_, locs, cfgs) = lower(
            "program p global x: real; global k: int; global a: real[4];\n\
             sub main() { var y: real; y = max(x, -k) * x + mod(k, 3) + a[k]; }",
        );
        let (_, node) = find_nodes(&cfgs[0], |k| matches!(k, NodeKind::Assign { .. }))[0];
        let NodeKind::Assign { rhs, .. } = &node.kind else {
            unreachable!()
        };
        let x = locs.global("x").unwrap();
        let k = locs.global("k").unwrap();
        let a = locs.global("a").unwrap();
        assert_eq!(rhs.operands, [x, k, x, k, a]);
    }

    #[test]
    fn mod_and_conditions_are_nondiff() {
        let (_, locs, cfgs) = lower(
            "program p global x: real; global k: int;\n\
             sub main() { if (x > 0.0) { k = mod(k, 4); } }",
        );
        let cfg = &cfgs[0];
        let NodeKind::Branch { cond } = &find(cfg, |k| matches!(k, NodeKind::Branch { .. })).kind
        else {
            unreachable!()
        };
        assert!(cond.uses.diff.is_empty(), "condition uses are control uses");
        assert!(cond.uses.nondiff.contains(&locs.global("x").unwrap()));
        let NodeKind::Assign { rhs, .. } =
            &find(cfg, |k| matches!(k, NodeKind::Assign { .. })).kind
        else {
            unreachable!()
        };
        assert!(rhs.uses.diff.is_empty(), "mod args are non-differentiable");
        assert!(rhs.uses.nondiff.contains(&locs.global("k").unwrap()));
    }

    fn find(cfg: &ProcCfg, pred: impl Fn(&NodeKind) -> bool) -> &CfgNode {
        cfg.nodes.iter().find(|n| pred(&n.kind)).expect("node")
    }

    #[test]
    fn mpi_lowering_captures_match_args() {
        let (_, locs, cfgs) = lower(
            "program p global u: real[8]; global s: real;\n\
             sub main() {\n\
               send(u, rank() + 1, 7, 0);\n\
               recv(u, ANY, 7);\n\
               bcast(u, 0);\n\
               reduce(SUM, s * 2.0, s, 0);\n\
               allreduce(MAX, s, s);\n\
             }",
        );
        let cfg = &cfgs[0];
        let mpis: Vec<&MpiInfo> = cfg
            .nodes
            .iter()
            .filter_map(|n| match &n.kind {
                NodeKind::Mpi(m) => Some(m),
                _ => None,
            })
            .collect();
        assert_eq!(mpis.len(), 5);
        let send = mpis[0];
        assert_eq!(send.kind, MpiKind::Send);
        assert_eq!(send.buf.as_ref().unwrap().loc, locs.global("u").unwrap());
        assert!(!send.tag.as_ref().unwrap().is_any);
        assert!(send.comm.is_some());
        let recv = mpis[1];
        assert!(recv.peer.as_ref().unwrap().is_any);
        assert!(!recv.tag.as_ref().unwrap().is_any);
        assert!(recv.comm.is_none(), "default communicator");
        let reduce = mpis[3];
        assert_eq!(reduce.kind, MpiKind::Reduce);
        assert!(reduce
            .value
            .as_ref()
            .unwrap()
            .uses
            .diff
            .contains(&locs.global("s").unwrap()));
        assert_eq!(reduce.buf.as_ref().unwrap().loc, locs.global("s").unwrap());
    }

    #[test]
    fn array_element_ref_is_weak() {
        let (_, _, cfgs) =
            lower("program p global a: real[4]; global i: int; sub main() { a[i] = 1.0; }");
        let NodeKind::Assign { lhs, .. } =
            &find(&cfgs[0], |k| matches!(k, NodeKind::Assign { .. })).kind
        else {
            unreachable!()
        };
        assert!(!lhs.is_strong_def());
        assert_eq!(lhs.index_uses.len(), 1);
    }

    #[test]
    fn every_node_reachable_in_structured_code() {
        let (_, _, cfgs) = lower(
            "program p global x: real; sub main() {\n\
               var i: int;\n\
               for i = 1, 3 { if (x > 0.0) { x = x - 1.0; } else { x = x + 1.0; } }\n\
               while (x > 0.0) { x = x / 2.0; }\n\
             }",
        );
        let cfg = &cfgs[0];
        // BFS from entry reaches everything including exit.
        let mut seen = vec![false; cfg.num_nodes()];
        let mut stack = vec![ENTRY];
        seen[ENTRY as usize] = true;
        while let Some(n) = stack.pop() {
            for &s in cfg.succs(n) {
                if !seen[s as usize] {
                    seen[s as usize] = true;
                    stack.push(s);
                }
            }
        }
        assert!(
            seen.iter().all(|&b| b),
            "unreachable nodes in structured code"
        );
    }
}
