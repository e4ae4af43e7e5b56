//! Abstract syntax tree for SMPL programs.
//!
//! Every statement carries a program-unique [`StmtId`] assigned by the parser;
//! the CFG builder, slicer, and test assertions key off these ids. Expressions
//! carry spans only.

use crate::span::Span;
use crate::types::Type;
use std::fmt;

/// Program-unique statement identifier (dense, assigned in parse order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StmtId(pub u32);

impl StmtId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StmtId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A whole SMPL compilation unit.
#[derive(Debug, Clone)]
pub struct Program {
    pub name: String,
    pub globals: Vec<VarDecl>,
    pub subs: Vec<SubDecl>,
    /// Total number of statements; `StmtId`s are `0..stmt_count`.
    pub stmt_count: u32,
}

impl Program {
    /// Look up a subroutine by name.
    pub fn sub(&self, name: &str) -> Option<&SubDecl> {
        self.subs.iter().find(|s| s.name == name)
    }
}

/// A variable declaration (global, parameter, or local).
#[derive(Debug, Clone)]
pub struct VarDecl {
    pub name: String,
    pub ty: Type,
    pub span: Span,
}

/// A subroutine definition. All parameters are passed by reference
/// (Fortran semantics), which is what the interprocedural caller/callee
/// fact mapping in the analysis crates models.
#[derive(Debug, Clone)]
pub struct SubDecl {
    pub name: String,
    pub params: Vec<VarDecl>,
    pub body: Block,
    pub span: Span,
}

/// A `{ ... }` sequence of statements.
#[derive(Debug, Clone, Default)]
pub struct Block {
    pub stmts: Vec<Stmt>,
}

/// A statement with identity and location.
#[derive(Debug, Clone)]
pub struct Stmt {
    pub id: StmtId,
    pub kind: StmtKind,
    pub span: Span,
}

/// Statement forms.
#[derive(Debug, Clone)]
pub enum StmtKind {
    /// `var x: ty;` or `var x: ty = init;`
    Local { decl: VarDecl, init: Option<Expr> },
    /// `lhs = rhs;`
    Assign { lhs: LValue, rhs: Expr },
    /// `if (cond) { .. } else { .. }`
    If {
        cond: Expr,
        then_blk: Block,
        else_blk: Option<Block>,
    },
    /// `while (cond) { .. }`
    While { cond: Expr, body: Block },
    /// `for i = lo, hi[, step] { .. }` — inclusive bounds, Fortran `do`.
    For {
        var: String,
        lo: Expr,
        hi: Expr,
        step: Option<Expr>,
        body: Block,
    },
    /// `call f(a, b, ...);` — lvalue arguments bind by reference.
    Call { name: String, args: Vec<Expr> },
    /// `return;`
    Return,
    /// An MPI communication statement.
    Mpi(MpiStmt),
    /// `read(x);` — external input (e.g. file read on the root process).
    Read(LValue),
    /// `print(e);` — external output; not a dependent unless selected.
    Print(Expr),
}

/// Reduction operators accepted by `reduce`/`allreduce`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RedOp {
    Sum,
    Prod,
    Max,
    Min,
}

impl fmt::Display for RedOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RedOp::Sum => write!(f, "SUM"),
            RedOp::Prod => write!(f, "PROD"),
            RedOp::Max => write!(f, "MAX"),
            RedOp::Min => write!(f, "MIN"),
        }
    }
}

/// MPI statements. Point-to-point carries destination/source rank, a tag, and
/// an optional communicator (defaulting to `COMM_WORLD`, spelled `0`).
/// Collectives carry a root rank (where applicable) and optional communicator.
#[derive(Debug, Clone)]
pub enum MpiStmt {
    /// `send(buf, dest, tag[, comm]);` / `isend(...)`.
    Send {
        buf: LValue,
        dest: Expr,
        tag: Expr,
        comm: Option<Expr>,
        blocking: bool,
    },
    /// `recv(buf, src, tag[, comm]);` / `irecv(...)`. `src`/`tag` may be `ANY`.
    Recv {
        buf: LValue,
        src: Expr,
        tag: Expr,
        comm: Option<Expr>,
        blocking: bool,
    },
    /// `bcast(buf, root[, comm]);` — root sends, everyone else receives.
    Bcast {
        buf: LValue,
        root: Expr,
        comm: Option<Expr>,
    },
    /// `reduce(OP, sendval, recvbuf, root[, comm]);`
    Reduce {
        op: RedOp,
        send: Expr,
        recv: LValue,
        root: Expr,
        comm: Option<Expr>,
    },
    /// `allreduce(OP, sendval, recvbuf[, comm]);`
    Allreduce {
        op: RedOp,
        send: Expr,
        recv: LValue,
        comm: Option<Expr>,
    },
    /// `barrier();`
    Barrier,
    /// `wait();` — completes the most recent nonblocking operation.
    Wait,
}

impl MpiStmt {
    /// Short mnemonic for display/debugging.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            MpiStmt::Send { blocking: true, .. } => "send",
            MpiStmt::Send {
                blocking: false, ..
            } => "isend",
            MpiStmt::Recv { blocking: true, .. } => "recv",
            MpiStmt::Recv {
                blocking: false, ..
            } => "irecv",
            MpiStmt::Bcast { .. } => "bcast",
            MpiStmt::Reduce { .. } => "reduce",
            MpiStmt::Allreduce { .. } => "allreduce",
            MpiStmt::Barrier => "barrier",
            MpiStmt::Wait => "wait",
        }
    }
}

/// A storage reference: a bare variable or an array element.
#[derive(Debug, Clone)]
pub struct LValue {
    pub name: String,
    /// Empty for whole-variable references; one expression per dimension
    /// for element references.
    pub indices: Vec<Expr>,
    pub span: Span,
}

impl LValue {
    pub fn var(name: impl Into<String>, span: Span) -> Self {
        LValue {
            name: name.into(),
            indices: Vec::new(),
            span,
        }
    }

    pub fn is_whole(&self) -> bool {
        self.indices.is_empty()
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    Neg,
    Not,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl BinOp {
    /// True for `+ - * /`, whose operands flow differentiably to the result.
    pub fn is_arith(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div)
    }
}

/// Intrinsic functions usable inside expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Intrinsic {
    Sqrt,
    Exp,
    Log,
    Sin,
    Cos,
    Abs,
    Max,
    Min,
    /// Integer modulus, common in rank arithmetic; non-differentiable.
    Mod,
}

impl Intrinsic {
    pub fn name(self) -> &'static str {
        match self {
            Intrinsic::Sqrt => "sqrt",
            Intrinsic::Exp => "exp",
            Intrinsic::Log => "log",
            Intrinsic::Sin => "sin",
            Intrinsic::Cos => "cos",
            Intrinsic::Abs => "abs",
            Intrinsic::Max => "max",
            Intrinsic::Min => "min",
            Intrinsic::Mod => "mod",
        }
    }

    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "sqrt" => Intrinsic::Sqrt,
            "exp" => Intrinsic::Exp,
            "log" => Intrinsic::Log,
            "sin" => Intrinsic::Sin,
            "cos" => Intrinsic::Cos,
            "abs" => Intrinsic::Abs,
            "max" => Intrinsic::Max,
            "min" => Intrinsic::Min,
            "mod" => Intrinsic::Mod,
            _ => return None,
        })
    }

    /// Number of arguments the intrinsic takes.
    pub fn arity(self) -> usize {
        match self {
            Intrinsic::Max | Intrinsic::Min | Intrinsic::Mod => 2,
            _ => 1,
        }
    }

    /// Whether derivatives flow through this intrinsic's arguments.
    /// `mod` is treated as non-differentiable (integer arithmetic).
    pub fn is_differentiable(self) -> bool {
        !matches!(self, Intrinsic::Mod)
    }
}

/// An expression with its source span.
#[derive(Debug, Clone)]
pub struct Expr {
    pub kind: ExprKind,
    pub span: Span,
}

/// Expression forms.
#[derive(Debug, Clone)]
pub enum ExprKind {
    IntLit(i64),
    RealLit(f64),
    BoolLit(bool),
    /// A scalar read or array-element read.
    Var(LValue),
    Unary(UnOp, Box<Expr>),
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// The calling process's rank in `COMM_WORLD`.
    Rank,
    /// The number of processes.
    Nprocs,
    /// The `ANY` wildcard, valid only as a `recv` source or tag.
    AnyWildcard,
    Intrinsic(Intrinsic, Vec<Expr>),
}

impl Expr {
    pub fn int(v: i64, span: Span) -> Self {
        Expr {
            kind: ExprKind::IntLit(v),
            span,
        }
    }

    /// If this expression is a bare variable reference (no indices), its name.
    pub fn as_bare_var(&self) -> Option<&str> {
        match &self.kind {
            ExprKind::Var(lv) if lv.is_whole() => Some(&lv.name),
            _ => None,
        }
    }

    /// If this expression is a variable or array-element reference, the lvalue.
    pub fn as_lvalue(&self) -> Option<&LValue> {
        match &self.kind {
            ExprKind::Var(lv) => Some(lv),
            _ => None,
        }
    }

    /// Collect the names of every variable mentioned anywhere in the
    /// expression, including inside array indices.
    pub fn collect_vars(&self, out: &mut Vec<String>) {
        match &self.kind {
            ExprKind::Var(lv) => {
                out.push(lv.name.clone());
                for ix in &lv.indices {
                    ix.collect_vars(out);
                }
            }
            ExprKind::Unary(_, e) => e.collect_vars(out),
            ExprKind::Binary(_, a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            ExprKind::Intrinsic(_, args) => {
                for a in args {
                    a.collect_vars(out);
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
}

/// Walk every statement in a block in source order, recursing into nested
/// blocks, and apply `f`.
pub fn visit_stmts<'a>(block: &'a Block, f: &mut impl FnMut(&'a Stmt)) {
    for stmt in &block.stmts {
        f(stmt);
        match &stmt.kind {
            StmtKind::If {
                then_blk, else_blk, ..
            } => {
                visit_stmts(then_blk, f);
                if let Some(e) = else_blk {
                    visit_stmts(e, f);
                }
            }
            StmtKind::While { body, .. } | StmtKind::For { body, .. } => visit_stmts(body, f),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp() -> Span {
        Span::DUMMY
    }

    #[test]
    fn bare_var_detection() {
        let e = Expr {
            kind: ExprKind::Var(LValue::var("x", sp())),
            span: sp(),
        };
        assert_eq!(e.as_bare_var(), Some("x"));
        let idx = Expr {
            kind: ExprKind::Var(LValue {
                name: "a".into(),
                indices: vec![Expr::int(1, sp())],
                span: sp(),
            }),
            span: sp(),
        };
        assert_eq!(idx.as_bare_var(), None);
        assert_eq!(idx.as_lvalue().unwrap().name, "a");
    }

    #[test]
    fn collect_vars_includes_indices() {
        let e = Expr {
            kind: ExprKind::Binary(
                BinOp::Add,
                Box::new(Expr {
                    kind: ExprKind::Var(LValue {
                        name: "a".into(),
                        indices: vec![Expr {
                            kind: ExprKind::Var(LValue::var("i", sp())),
                            span: sp(),
                        }],
                        span: sp(),
                    }),
                    span: sp(),
                }),
                Box::new(Expr {
                    kind: ExprKind::Var(LValue::var("b", sp())),
                    span: sp(),
                }),
            ),
            span: sp(),
        };
        let mut vars = Vec::new();
        e.collect_vars(&mut vars);
        assert_eq!(
            vars,
            vec!["a".to_string(), "i".to_string(), "b".to_string()]
        );
    }

    #[test]
    fn intrinsic_properties() {
        assert_eq!(Intrinsic::from_name("sqrt"), Some(Intrinsic::Sqrt));
        assert_eq!(Intrinsic::from_name("nope"), None);
        assert_eq!(Intrinsic::Max.arity(), 2);
        assert_eq!(Intrinsic::Sin.arity(), 1);
        assert!(Intrinsic::Exp.is_differentiable());
        assert!(!Intrinsic::Mod.is_differentiable());
    }

    #[test]
    fn mnemonics() {
        let lv = LValue::var("x", sp());
        let e = || Expr::int(0, sp());
        let s = MpiStmt::Send {
            buf: lv.clone(),
            dest: e(),
            tag: e(),
            comm: None,
            blocking: true,
        };
        assert_eq!(s.mnemonic(), "send");
        let i = MpiStmt::Send {
            buf: lv,
            dest: e(),
            tag: e(),
            comm: None,
            blocking: false,
        };
        assert_eq!(i.mnemonic(), "isend");
        assert_eq!(MpiStmt::Barrier.mnemonic(), "barrier");
    }

    #[test]
    fn binop_arith_classification() {
        assert!(BinOp::Add.is_arith());
        assert!(BinOp::Div.is_arith());
        assert!(!BinOp::Lt.is_arith());
        assert!(!BinOp::And.is_arith());
    }
}
