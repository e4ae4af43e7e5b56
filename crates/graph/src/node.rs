//! Lowered CFG node payloads.
//!
//! Lowering resolves every variable reference to a [`Loc`] and classifies
//! uses as *differentiable* (value flows arithmetically into the result) or
//! *non-differentiable* (array subscripts, branch conditions, integer `mod`
//! arithmetic) — the distinction Section 3 of the paper relies on for the
//! Vary/Useful transfer functions. The original expression ASTs are kept so
//! reaching constants can evaluate right-hand sides and MPI match arguments.

use crate::loc::{Loc, ProcId};
use mpi_dfa_lang::ast::{Expr, RedOp, StmtId};
use mpi_dfa_lang::span::Span;

/// Classified uses of one expression.
#[derive(Debug, Clone, Default)]
pub struct UseSet {
    /// Value uses through differentiable operations.
    pub diff: Vec<Loc>,
    /// Index, control, and integer-only uses.
    pub nondiff: Vec<Loc>,
}

/// An expression with resolved, classified uses.
#[derive(Debug, Clone)]
pub struct ExprInfo {
    pub expr: Expr,
    pub uses: UseSet,
}

/// A resolved storage reference (assignment target, MPI buffer, `read`
/// target, or by-reference actual).
#[derive(Debug, Clone)]
pub struct RefInfo {
    pub loc: Loc,
    /// True when the whole variable is referenced (no subscripts): a *strong*
    /// definition. Element references are weak definitions of the array.
    pub whole: bool,
    /// Locations used in subscript expressions (always non-differentiable).
    pub index_uses: Vec<Loc>,
}

impl RefInfo {
    /// Whether a write through this reference overwrites all storage.
    pub fn is_strong_def(&self) -> bool {
        self.whole
    }
}

/// One by-reference-capable actual argument at a call site.
#[derive(Debug, Clone)]
pub struct ActualArg {
    /// `Some` when the actual is an lvalue: a whole variable (true aliasing)
    /// or an array element (conservatively aliased to the whole array).
    pub reference: Option<RefInfo>,
    /// The argument expression with classified uses (covers the by-value
    /// case and the subscript uses of the lvalue case).
    pub value: ExprInfo,
}

/// A call site within a procedure CFG.
#[derive(Debug, Clone)]
pub struct CallSiteInfo {
    pub callee: ProcId,
    pub args: Vec<ActualArg>,
    pub stmt: StmtId,
    /// Local node id of the call node.
    pub call_node: u32,
    /// Local node id of the matching after-call (return-point) node.
    pub after_node: u32,
}

/// MPI operation category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MpiKind {
    Send,
    Isend,
    Recv,
    Irecv,
    Bcast,
    Reduce,
    Allreduce,
    Barrier,
    Wait,
}

impl MpiKind {
    /// Operations whose buffer contents leave this process.
    pub fn sends_data(self) -> bool {
        matches!(
            self,
            MpiKind::Send | MpiKind::Isend | MpiKind::Bcast | MpiKind::Reduce | MpiKind::Allreduce
        )
    }

    /// Operations whose buffer is (possibly) written with remote data.
    pub fn receives_data(self) -> bool {
        matches!(
            self,
            MpiKind::Recv | MpiKind::Irecv | MpiKind::Bcast | MpiKind::Reduce | MpiKind::Allreduce
        )
    }

    /// Point-to-point message source (matched against receives).
    pub fn is_p2p_send(self) -> bool {
        matches!(self, MpiKind::Send | MpiKind::Isend)
    }

    /// Point-to-point message sink.
    pub fn is_p2p_recv(self) -> bool {
        matches!(self, MpiKind::Recv | MpiKind::Irecv)
    }

    pub fn mnemonic(self) -> &'static str {
        match self {
            MpiKind::Send => "send",
            MpiKind::Isend => "isend",
            MpiKind::Recv => "recv",
            MpiKind::Irecv => "irecv",
            MpiKind::Bcast => "bcast",
            MpiKind::Reduce => "reduce",
            MpiKind::Allreduce => "allreduce",
            MpiKind::Barrier => "barrier",
            MpiKind::Wait => "wait",
        }
    }
}

/// An MPI match argument (tag / communicator / root / rank expression),
/// kept as AST for constant evaluation during communication-edge matching.
#[derive(Debug, Clone)]
pub struct MatchExpr {
    pub expr: Option<Expr>,
    /// True when the argument is the `ANY` wildcard.
    pub is_any: bool,
    /// Locations the expression reads (all non-differentiable).
    pub uses: Vec<Loc>,
}

impl MatchExpr {
    pub fn any() -> Self {
        MatchExpr {
            expr: None,
            is_any: true,
            uses: Vec::new(),
        }
    }
}

/// Lowered MPI operation.
#[derive(Debug, Clone)]
pub struct MpiInfo {
    pub kind: MpiKind,
    /// The message buffer: send/recv/bcast payload, or the reduce/allreduce
    /// *receive* buffer.
    pub buf: Option<RefInfo>,
    /// The reduce/allreduce contributed value.
    pub value: Option<ExprInfo>,
    /// Destination rank (sends) or source rank (receives).
    pub peer: Option<MatchExpr>,
    /// Message tag (point-to-point only).
    pub tag: Option<MatchExpr>,
    /// Collective root (bcast/reduce).
    pub root: Option<MatchExpr>,
    /// Communicator; never `ANY`. `None` means the default `COMM_WORLD`.
    pub comm: Option<MatchExpr>,
    pub op: Option<RedOp>,
}

/// The payload of one CFG node.
///
/// `Mpi` dominates the size; nodes are built once per procedure and shared
/// by all clones, so boxing it would only add indirection on the analysis
/// hot path.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
pub enum NodeKind {
    /// Procedure entry (local node 0).
    Entry,
    /// Procedure exit (local node 1).
    Exit,
    /// `lhs = rhs`.
    Assign { lhs: RefInfo, rhs: ExprInfo },
    /// A branch / loop-header condition evaluation (control uses only).
    Branch { cond: ExprInfo },
    /// A call site; index into [`crate::cfg::ProcCfg::call_sites`].
    CallSite { site: u32 },
    /// The return point of a call site.
    AfterCall { site: u32 },
    /// An MPI operation.
    Mpi(MpiInfo),
    /// External input into a reference.
    Read { target: RefInfo },
    /// External output of an expression.
    Print { value: ExprInfo },
    /// No effect (declaration without initializer).
    Nop,
}

/// One lowered CFG node.
#[derive(Debug, Clone)]
pub struct CfgNode {
    pub kind: NodeKind,
    /// Originating statement, when there is one (used by slicing and the
    /// pretty dumps). Synthetic loop bookkeeping nodes inherit the loop's id.
    pub stmt: Option<StmtId>,
    pub span: Span,
}

impl CfgNode {
    pub fn synthetic(kind: NodeKind) -> Self {
        CfgNode {
            kind,
            stmt: None,
            span: Span::DUMMY,
        }
    }

    /// Short label for dumps and DOT output.
    pub fn label(&self) -> String {
        match &self.kind {
            NodeKind::Entry => "entry".into(),
            NodeKind::Exit => "exit".into(),
            NodeKind::Assign { lhs, .. } => format!("assign {}", lhs.loc),
            NodeKind::Branch { .. } => "branch".into(),
            NodeKind::CallSite { site } => format!("call#{site}"),
            NodeKind::AfterCall { site } => format!("after#{site}"),
            NodeKind::Mpi(m) => m.kind.mnemonic().into(),
            NodeKind::Read { .. } => "read".into(),
            NodeKind::Print { .. } => "print".into(),
            NodeKind::Nop => "nop".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mpi_kind_directionality() {
        assert!(MpiKind::Send.sends_data() && !MpiKind::Send.receives_data());
        assert!(!MpiKind::Recv.sends_data() && MpiKind::Recv.receives_data());
        assert!(MpiKind::Bcast.sends_data() && MpiKind::Bcast.receives_data());
        assert!(MpiKind::Reduce.sends_data() && MpiKind::Reduce.receives_data());
        assert!(MpiKind::Allreduce.sends_data() && MpiKind::Allreduce.receives_data());
        assert!(!MpiKind::Barrier.sends_data() && !MpiKind::Barrier.receives_data());
        assert!(MpiKind::Isend.is_p2p_send());
        assert!(MpiKind::Irecv.is_p2p_recv());
        assert!(!MpiKind::Bcast.is_p2p_send());
    }

    #[test]
    fn strong_def_is_whole_reference() {
        let strong = RefInfo {
            loc: Loc(3),
            whole: true,
            index_uses: vec![],
        };
        let weak = RefInfo {
            loc: Loc(3),
            whole: false,
            index_uses: vec![Loc(4)],
        };
        assert!(strong.is_strong_def());
        assert!(!weak.is_strong_def());
    }
}
