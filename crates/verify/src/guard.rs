//! Rank guards: which ranks can execute a statement.
//!
//! The verify passes are *rank-sensitive*: a statement nested under
//! `if (rank() == 0) { .. }` only ever executes on rank 0, so it cannot
//! happen in parallel with itself on another rank and cannot satisfy a
//! wait on any other rank. This module extracts that information purely
//! syntactically from the AST — every statement gets a conjunction of
//! *rank atoms* harvested from the `if`/`while` conditions enclosing it.
//!
//! The abstraction is deliberately one-sided: when a condition does not
//! compare `rank()` against a foldable bound the guard stays `Any`, which
//! over-approximates the executing-rank set. That is the conservative
//! direction for both consumers — MHP keeps the pair (may-happen), the
//! wait-for builder keeps the edge (candidate cycle survives).

use mpi_dfa_graph::mpi::fold_int;
use mpi_dfa_lang::ast::{BinOp, Block, Expr, ExprKind, Program, Stmt, StmtKind, UnOp};

/// Comparison operator of a rank atom (a strict subset of [`BinOp`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Cmp {
    fn negate(self) -> Cmp {
        match self {
            Cmp::Eq => Cmp::Ne,
            Cmp::Ne => Cmp::Eq,
            Cmp::Lt => Cmp::Ge,
            Cmp::Le => Cmp::Gt,
            Cmp::Gt => Cmp::Le,
            Cmp::Ge => Cmp::Lt,
        }
    }

    /// Mirror the comparison for a flipped operand order (`c op rank()`
    /// becomes `rank() mirror(op) c`).
    fn mirror(self) -> Cmp {
        match self {
            Cmp::Eq => Cmp::Eq,
            Cmp::Ne => Cmp::Ne,
            Cmp::Lt => Cmp::Gt,
            Cmp::Le => Cmp::Ge,
            Cmp::Gt => Cmp::Lt,
            Cmp::Ge => Cmp::Le,
        }
    }

    fn holds(self, lhs: i64, rhs: i64) -> bool {
        match self {
            Cmp::Eq => lhs == rhs,
            Cmp::Ne => lhs != rhs,
            Cmp::Lt => lhs < rhs,
            Cmp::Le => lhs <= rhs,
            Cmp::Gt => lhs > rhs,
            Cmp::Ge => lhs >= rhs,
        }
    }
}

/// Right-hand side of a rank atom: a constant, or `nprocs() + offset`
/// (covering the ubiquitous `rank() < nprocs() - 1` boundary guards).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    Const(i64),
    NprocsPlus(i64),
}

impl Bound {
    fn eval(self, nprocs: i64) -> i64 {
        match self {
            Bound::Const(c) => c,
            // Saturating: ranks are small, so a saturated bound compares
            // with every rank as the exact one would.
            Bound::NprocsPlus(off) => nprocs.saturating_add(off),
        }
    }
}

/// One conjunct: `rank() cmp bound`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Atom {
    pub cmp: Cmp,
    pub bound: Bound,
}

impl Atom {
    fn admits(&self, rank: i64, nprocs: i64) -> bool {
        self.cmp.holds(rank, self.bound.eval(nprocs))
    }
}

/// A conjunction of rank atoms; the empty conjunction admits every rank.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RankGuard {
    atoms: Vec<Atom>,
}

/// Cap on tracked conjuncts — deeper nesting degrades to the (sound)
/// over-approximation of dropping further atoms.
const MAX_ATOMS: usize = 6;

impl RankGuard {
    /// The unconstrained guard (any rank may execute).
    pub fn any() -> Self {
        RankGuard::default()
    }

    /// `const` form of [`RankGuard::any`] for use in `static` items.
    pub const fn any_const() -> Self {
        RankGuard { atoms: Vec::new() }
    }

    pub fn is_any(&self) -> bool {
        self.atoms.is_empty()
    }

    fn and(&self, atom: Atom) -> Self {
        let mut atoms = self.atoms.clone();
        if atoms.len() < MAX_ATOMS {
            atoms.push(atom);
        }
        RankGuard { atoms }
    }

    /// True when `rank` may execute a statement under this guard, with
    /// `nprocs` processes.
    pub fn admits(&self, rank: usize, nprocs: usize) -> bool {
        self.atoms
            .iter()
            .all(|a| a.admits(rank as i64, nprocs as i64))
    }

    /// True when some rank in `0..nprocs` is admitted by *both* guards —
    /// i.e. the two statements can execute on a common rank.
    pub fn overlaps(&self, other: &RankGuard, nprocs: usize) -> bool {
        (0..nprocs).any(|r| self.admits(r, nprocs) && other.admits(r, nprocs))
    }
}

/// Per-statement rank guards for a whole program, indexed by `StmtId`.
#[derive(Debug, Clone)]
pub struct Guards {
    by_stmt: Vec<RankGuard>,
}

impl Guards {
    /// Harvest guards from every subroutine body. Statements in
    /// subroutines *called from* guarded contexts keep `Any` — the guard
    /// is intra-procedural, which only ever widens the admitted set.
    pub fn build(program: &Program) -> Guards {
        let mut by_stmt = vec![RankGuard::any(); program.stmt_count as usize];
        for sub in &program.subs {
            walk_block(&sub.body, &RankGuard::any(), &mut by_stmt);
        }
        Guards { by_stmt }
    }

    pub fn of(&self, stmt: mpi_dfa_lang::ast::StmtId) -> &RankGuard {
        static ANY: RankGuard = RankGuard::any_const();
        self.by_stmt.get(stmt.0 as usize).unwrap_or(&ANY)
    }
}

fn walk_block(block: &Block, guard: &RankGuard, out: &mut [RankGuard]) {
    for stmt in &block.stmts {
        walk_stmt(stmt, guard, out);
    }
}

fn walk_stmt(stmt: &Stmt, guard: &RankGuard, out: &mut [RankGuard]) {
    if let Some(slot) = out.get_mut(stmt.id.0 as usize) {
        *slot = guard.clone();
    }
    match &stmt.kind {
        StmtKind::If {
            cond,
            then_blk,
            else_blk,
        } => {
            let (then_g, else_g) = match rank_atom(cond) {
                Some(atom) => (
                    guard.and(atom),
                    guard.and(Atom {
                        cmp: atom.cmp.negate(),
                        bound: atom.bound,
                    }),
                ),
                None => (guard.clone(), guard.clone()),
            };
            walk_block(then_blk, &then_g, out);
            if let Some(e) = else_blk {
                walk_block(e, &else_g, out);
            }
        }
        StmtKind::While { cond, body } => {
            let body_g = match rank_atom(cond) {
                Some(atom) => guard.and(atom),
                None => guard.clone(),
            };
            walk_block(body, &body_g, out);
        }
        StmtKind::For { body, .. } => walk_block(body, guard, out),
        _ => {}
    }
}

/// Recognise `rank() cmp bound` (either operand order) where `bound` is a
/// foldable constant or `nprocs() ± const`.
fn rank_atom(cond: &Expr) -> Option<Atom> {
    let ExprKind::Binary(op, lhs, rhs) = &cond.kind else {
        return None;
    };
    let cmp = match op {
        BinOp::Eq => Cmp::Eq,
        BinOp::Ne => Cmp::Ne,
        BinOp::Lt => Cmp::Lt,
        BinOp::Le => Cmp::Le,
        BinOp::Gt => Cmp::Gt,
        BinOp::Ge => Cmp::Ge,
        _ => return None,
    };
    if is_rank(lhs) {
        bound_of(rhs).map(|bound| Atom { cmp, bound })
    } else if is_rank(rhs) {
        bound_of(lhs).map(|bound| Atom {
            cmp: cmp.mirror(),
            bound,
        })
    } else {
        None
    }
}

fn is_rank(e: &Expr) -> bool {
    matches!(e.kind, ExprKind::Rank)
}

fn bound_of(e: &Expr) -> Option<Bound> {
    if let Some(c) = fold_int(e) {
        return Some(Bound::Const(c));
    }
    match &e.kind {
        ExprKind::Nprocs => Some(Bound::NprocsPlus(0)),
        ExprKind::Binary(BinOp::Add, a, b) => match (&a.kind, fold_int(b)) {
            (ExprKind::Nprocs, Some(c)) => Some(Bound::NprocsPlus(c)),
            _ => match (fold_int(a), &b.kind) {
                (Some(c), ExprKind::Nprocs) => Some(Bound::NprocsPlus(c)),
                _ => None,
            },
        },
        ExprKind::Binary(BinOp::Sub, a, b) => match (&a.kind, fold_int(b)) {
            (ExprKind::Nprocs, Some(c)) => c.checked_neg().map(Bound::NprocsPlus),
            _ => None,
        },
        ExprKind::Unary(UnOp::Neg, inner) => match bound_of(inner)? {
            Bound::Const(c) => c.checked_neg().map(Bound::Const),
            Bound::NprocsPlus(_) => None,
        },
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_dfa_graph::icfg::ProgramIr;

    fn guards_of(src: &str) -> (Guards, Program) {
        let ir = ProgramIr::from_source(src).unwrap();
        let g = Guards::build(&ir.unit.program);
        (g, ir.unit.program.clone())
    }

    /// StmtIds of every MPI statement, in program order.
    fn mpi_stmts(p: &Program) -> Vec<mpi_dfa_lang::ast::StmtId> {
        fn blk(b: &Block, out: &mut Vec<mpi_dfa_lang::ast::StmtId>) {
            for s in &b.stmts {
                match &s.kind {
                    StmtKind::Mpi(_) => out.push(s.id),
                    StmtKind::If {
                        then_blk, else_blk, ..
                    } => {
                        blk(then_blk, out);
                        if let Some(e) = else_blk {
                            blk(e, out);
                        }
                    }
                    StmtKind::While { body, .. } | StmtKind::For { body, .. } => blk(body, out),
                    _ => {}
                }
            }
        }
        let mut out = Vec::new();
        for sub in &p.subs {
            blk(&sub.body, &mut out);
        }
        out
    }

    #[test]
    fn branch_guards_split_ranks() {
        let (g, p) = guards_of(
            "program p global x: real; global y: real;\n\
             sub main() { if (rank() == 0) { send(x, 1, 7); } else { recv(y, 0, 7); } }",
        );
        let mpi = mpi_stmts(&p);
        assert_eq!(mpi.len(), 2);
        let send = g.of(mpi[0]);
        let recv = g.of(mpi[1]);
        assert!(send.admits(0, 2) && !send.admits(1, 2));
        assert!(!recv.admits(0, 2) && recv.admits(1, 2));
        assert!(!send.overlaps(recv, 2));
    }

    #[test]
    fn nprocs_bounds_fold() {
        let (g, p) = guards_of(
            "program p global x: real;\n\
             sub main() { if (rank() < nprocs() - 1) { send(x, 1, 7); } }",
        );
        let mpi = mpi_stmts(&p);
        let send = g.of(mpi[0]);
        assert!(send.admits(0, 2) && !send.admits(1, 2));
        assert!(send.admits(2, 4) && !send.admits(3, 4));
    }

    #[test]
    fn unparseable_conditions_stay_any() {
        let (g, p) = guards_of(
            "program p global x: real; global k: int;\n\
             sub main() { if (k == 0) { send(x, 1, 7); } }",
        );
        let mpi = mpi_stmts(&p);
        assert!(g.of(mpi[0]).is_any());
    }
}
