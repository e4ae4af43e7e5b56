//! A rank-simulating SPMD interpreter for SMPL.
//!
//! The paper's analyses are purely static — MPI calls are analyzed, never
//! executed. This interpreter exists so the test suite can demonstrate that
//! the benchmark programs are *meaningful* SPMD programs: they run to
//! completion under P processes, communicate, and produce deterministic
//! results.
//!
//! Each process runs on its own OS thread; all communication goes through a
//! [`Transport`] (see [`crate::fault`]) — by default per-rank mailboxes with
//! a blocked-rank registry that detects genuine deadlocks immediately, and
//! optionally a seeded [`FaultPlan`] that perturbs delivery for adversarial
//! schedule exploration. `send` is eager/buffered (never blocks); `recv`
//! blocks until a matching message arrives, the registry proves a deadlock,
//! or the fallback timeout expires. Collectives are lowered onto
//! point-to-point transfers using a reserved tag space keyed by a
//! per-process collective sequence number, which is valid because SMPL
//! programs (like the paper's benchmarks) execute collectives in the same
//! order on every process.
//!
//! A run costs the statements it executes and the elements it writes, not
//! the sizes the program declares. The program is lowered once per run into
//! a tree with every name resolved to a frame slot or global index, shared
//! by all rank threads. Arrays are a whole-array fill plus only the pages
//! written, so declaring, filling or `read`ing one is O(1) whatever its
//! length; building a whole-array value costs its length and fails the rank
//! with an error, not an abort, when the allocation is refused.
//!
//! Semantics notes:
//! * numbers are stored as `f64` (exact for the integer ranges used);
//! * names resolve by scope at run time: a local binds when its `var`
//!   statement executes, and until then a reference falls through to the
//!   same-named global;
//! * whole-array assignment is elementwise; scalar-to-array assignment
//!   broadcasts the scalar;
//! * `read(x)` produces deterministic pseudo-inputs from a per-process
//!   counter, so runs are reproducible;
//! * array-element actuals bind by value; whole-array and scalar-variable
//!   actuals bind by reference (Fortran style);
//! * nonblocking `isend`/`irecv` are executed eagerly and `wait()` is a
//!   no-op, which preserves SMPL's value semantics because `irecv` blocks
//!   like `recv` (a deliberate simplification; the *analyses* treat them
//!   distinctly where it matters).

use crate::ast::{
    self, visit_stmts, BinOp, Intrinsic, LValue, MpiStmt, Program, RedOp, SubDecl, UnOp, VarDecl,
};
use crate::fault::{ChannelTransport, FaultPlan, RankWait, RecvError, Transport};
use crate::span::Span;
use crate::types::Type;
use mpi_dfa_core::telemetry::{self, ArgValue, TraceLevel};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

/// Runtime failure during interpretation. Communication deadlocks carry a
/// structured per-rank wait-for report from the transport's blocked-rank
/// registry; everything else is a per-rank failure with a source span.
#[derive(Debug, Clone)]
pub enum RuntimeError {
    /// A rank failed executing a statement (bad index, budget exceeded,
    /// arity mismatch, receive timeout, ...).
    Failed {
        rank: usize,
        span: Span,
        message: String,
    },
    /// Every live rank was blocked with no matching message in flight.
    Deadlock { waiting: Vec<RankWait> },
}

impl RuntimeError {
    /// The rank that reported the error (the lowest blocked rank for a
    /// deadlock).
    pub fn rank(&self) -> usize {
        match self {
            RuntimeError::Failed { rank, .. } => *rank,
            RuntimeError::Deadlock { waiting } => {
                waiting.first().map(|w| w.rank).unwrap_or(usize::MAX)
            }
        }
    }

    /// True for the structured deadlock report.
    pub fn is_deadlock(&self) -> bool {
        matches!(self, RuntimeError::Deadlock { .. })
    }

    /// Render the per-rank wait-for cycle of a deadlock, when one is
    /// recoverable from the blocked set: follow each rank's awaited
    /// source rank until the walk closes. Wildcard receives (`src=ANY`)
    /// have no concrete awaited peer and break the chain; a deadlock
    /// without any closed chain (e.g. all-wildcard) returns `None`.
    ///
    /// The rendering mirrors the static wait-for cycles of the verify
    /// subsystem (`rank → blocked op → awaited rank → …`), so dynamic
    /// and static reports read side by side.
    pub fn waitfor_cycle(&self) -> Option<String> {
        let RuntimeError::Deadlock { waiting } = self else {
            return None;
        };
        let wait_of = |rank: usize| waiting.iter().find(|w| w.rank == rank);
        // Start the walk from the lowest blocked rank that participates
        // in a closed chain, so the rendering is deterministic.
        for start in waiting.iter().map(|w| w.rank) {
            let mut path: Vec<usize> = vec![start];
            let mut cur = start;
            while let Some(next) = wait_of(cur).and_then(|w| w.src) {
                if next == start {
                    // Closed: render the cycle.
                    let mut out = String::from("wait-for cycle:");
                    for &r in &path {
                        let w = wait_of(r).expect("path ranks are blocked");
                        let tag = match w.tag {
                            Some(t) => t.to_string(),
                            None => "ANY".to_string(),
                        };
                        let peer = match w.src {
                            Some(s) => s.to_string(),
                            None => "ANY".to_string(),
                        };
                        out.push_str(&format!(
                            "\n  rank {r} -> blocked recv(src={peer}, tag={tag}) at {} -> rank {peer}",
                            w.span
                        ));
                    }
                    out.push_str(&format!("\n  rank {start} closes the cycle"));
                    return Some(out);
                }
                if path.contains(&next) || wait_of(next).is_none() {
                    break;
                }
                path.push(next);
                cur = next;
            }
        }
        None
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Failed {
                rank,
                span,
                message,
            } => {
                write!(f, "runtime error on rank {rank} at {span}: {message}")
            }
            RuntimeError::Deadlock { waiting } => {
                write!(
                    f,
                    "deadlock detected: every live rank is blocked with no matching message in flight"
                )?;
                for w in waiting {
                    write!(f, "\n  {w}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Execution limits that keep interpreter runs bounded.
///
/// Every "magic" safety constant of the runtime lives here, so library
/// callers, the test suites, and `mpidfa run` all draw from one documented
/// source instead of scattering literals. The named presets cover the
/// recurring configurations:
///
/// * [`RuntimeLimits::default`] — production defaults, generous enough for
///   the full benchmark suite (20 M steps, 10 s receive backstop);
/// * [`RuntimeLimits::quick_test`] — a shorter receive backstop for fast
///   in-process unit tests that are not expected to block;
/// * [`RuntimeLimits::detector_backstop`] — a deliberately *long* receive
///   timeout for tests asserting the structural deadlock detector fires
///   (a test that finishes quickly under this limit proves the detector,
///   not the timeout, reported the deadlock).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeLimits {
    /// Per-process statement execution budget (guards infinite loops).
    pub max_steps: u64,
    /// How long a blocked `recv` waits before reporting deadlock. The
    /// structural deadlock detector normally fires long before this; the
    /// timeout is the backstop for schedules the detector cannot prove.
    pub recv_timeout: Duration,
}

impl RuntimeLimits {
    /// Default per-process statement budget.
    pub const DEFAULT_MAX_STEPS: u64 = 20_000_000;
    /// Default receive-timeout backstop.
    pub const DEFAULT_RECV_TIMEOUT: Duration = Duration::from_secs(10);

    /// Short receive backstop (5 s) for unit tests that should never block.
    pub fn quick_test() -> Self {
        RuntimeLimits {
            recv_timeout: Duration::from_secs(5),
            ..RuntimeLimits::default()
        }
    }

    /// Patient receive backstop (30 s) for tests asserting that the
    /// structural deadlock detector — not the timeout — reports deadlocks.
    pub fn detector_backstop() -> Self {
        RuntimeLimits {
            recv_timeout: Duration::from_secs(30),
            ..RuntimeLimits::default()
        }
    }
}

impl Default for RuntimeLimits {
    fn default() -> Self {
        RuntimeLimits {
            max_steps: Self::DEFAULT_MAX_STEPS,
            recv_timeout: Self::DEFAULT_RECV_TIMEOUT,
        }
    }
}

/// Interpreter configuration.
#[derive(Debug, Clone)]
pub struct InterpConfig {
    /// Number of simulated MPI processes.
    pub nprocs: usize,
    /// Entry subroutine (must take no parameters).
    pub entry: String,
    /// Step and timeout limits; see [`RuntimeLimits`].
    pub limits: RuntimeLimits,
    /// Initial values for global scalars (arrays are filled elementwise),
    /// applied identically on every rank before the entry runs. Used by the
    /// dynamic-vs-static cross-validation tests to perturb independents.
    pub init_globals: Vec<(String, f64)>,
    /// Capture every global's final value into
    /// [`ProcessResult::final_globals`].
    pub capture_globals: bool,
    /// Optional seeded fault-injection / adversarial-schedule plan applied
    /// by the transport (see [`crate::fault::FaultPlan`]).
    pub fault_plan: Option<FaultPlan>,
}

impl Default for InterpConfig {
    fn default() -> Self {
        InterpConfig {
            nprocs: 4,
            entry: "main".to_string(),
            limits: RuntimeLimits::default(),
            init_globals: Vec::new(),
            capture_globals: false,
            fault_plan: None,
        }
    }
}

/// The observable result of one process.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProcessResult {
    /// Values passed to `print`, in order. Whole arrays are flattened.
    pub printed: Vec<f64>,
    /// Number of statements executed.
    pub steps: u64,
    /// Messages sent / received (point-to-point + lowered collectives).
    pub sends: u64,
    pub recvs: u64,
    /// Final global values (flattened arrays), when
    /// [`InterpConfig::capture_globals`] is set. Sorted by name.
    pub final_globals: Vec<(String, Vec<f64>)>,
}

/// Run `program` under `config`, returning per-rank results. Uses the
/// default [`ChannelTransport`], configured with `config.fault_plan`.
pub fn run(program: &Program, config: &InterpConfig) -> Result<Vec<ProcessResult>, RuntimeError> {
    let transport = ChannelTransport::new(config.nprocs.max(1), config.fault_plan.clone());
    run_with_transport(program, config, &transport)
}

/// Run `program` with an explicit [`Transport`] implementation.
pub fn run_with_transport(
    program: &Program,
    config: &InterpConfig,
    transport: &(dyn Transport + Sync),
) -> Result<Vec<ProcessResult>, RuntimeError> {
    let nprocs = config.nprocs.max(1);
    let code = Code::lower(program);
    let mut run_span = telemetry::span("runtime", "interp:run");
    run_span.arg("nprocs", nprocs);
    run_span.arg("entry", config.entry.as_str());

    std::thread::scope(|scope| {
        let code = &code;
        let mut handles = Vec::with_capacity(nprocs);
        for rank in 0..nprocs {
            handles.push(scope.spawn(move || {
                transport.rank_started(rank);
                let mut proc = Process {
                    code,
                    rank,
                    nprocs,
                    transport,
                    result: ProcessResult::default(),
                    read_counter: rank as u64,
                    coll_seq: 0,
                    config,
                    depth: 0,
                };
                let outcome = proc.run_entry().map(|_| proc.result);
                // Always unregister from the wait graph, success or not, so
                // the deadlock detector never counts a dead rank as live.
                transport.rank_finished(rank);
                outcome
            }));
        }
        let mut results = Vec::with_capacity(nprocs);
        let mut errors: Vec<RuntimeError> = Vec::new();
        for h in handles {
            match h.join() {
                Ok(Ok(r)) => results.push(r),
                Ok(Err(e)) => errors.push(e),
                Err(_) => errors.push(RuntimeError::Failed {
                    rank: usize::MAX,
                    span: Span::DUMMY,
                    message: "interpreter thread panicked".to_string(),
                }),
            }
        }
        // A deadlock report is often the *consequence* of another rank's
        // failure (it died and left its peers stranded); prefer the root
        // cause when both kinds are present.
        match errors.iter().position(|e| !e.is_deadlock()) {
            Some(pos) => Err(errors.swap_remove(pos)),
            None => match errors.into_iter().next() {
                Some(e) => Err(e),
                None => Ok(results),
            },
        }
    })
}

/// Tag space reserved for lowered collectives; user tags must stay below.
const COLLECTIVE_TAG_BASE: i64 = 1 << 40;

/// Deepest chain of nested subroutine calls a rank may run. Sema rejects
/// recursion but not depth, and each level costs interpreter stack: about
/// 10 KiB in a debug build, under 1 KiB in release. At this bound a chain
/// still fits a rank thread's default 2 MiB stack in either build; one
/// call deeper fails the rank with [`RuntimeError::Failed`].
pub const MAX_CALL_DEPTH: usize = 128;

// ---- the lowered program ------------------------------------------------------

/// `program` with every name resolved, built once per run and shared
/// read-only by every rank thread.
struct Code {
    /// One entry per global name, in name order; a redeclared name keeps
    /// its last declaration.
    globals: Vec<Global>,
    subs: Vec<Sub>,
}

struct Global {
    name: String,
    span: Span,
    shape: Shape,
}

/// A declared variable's shape.
struct Shape {
    /// Array extents; empty for a scalar.
    dims: Box<[i64]>,
    /// Element count of an array.
    len: usize,
}

struct Sub {
    name: String,
    span: Span,
    /// Frame slot and shape of each parameter, in order.
    params: Vec<(u32, Shape)>,
    /// Frame size: one slot per distinct parameter or local name.
    slots: usize,
    body: Vec<Stmt>,
}

/// A resolved variable reference. A local binds only when its `var`
/// statement executes; until then the reference falls through to the
/// same-named global.
struct Var {
    /// Frame slot of the enclosing subroutine's same-named parameter or local.
    local: Option<u32>,
    /// Index of the same-named global.
    global: Option<u32>,
    name: Box<str>,
}

/// A storage reference: a variable plus one subscript per dimension (none
/// for the whole variable).
struct Place {
    var: Var,
    indices: Vec<Expr>,
    span: Span,
}

struct Expr {
    kind: ExprKind,
    span: Span,
}

impl Expr {
    fn num(&self) -> Option<f64> {
        match self.kind {
            ExprKind::Num(x) => Some(x),
            _ => None,
        }
    }
}

enum ExprKind {
    /// A literal, or an operator applied to literals, folded to its value.
    Num(f64),
    Rank,
    Nprocs,
    Any,
    Load(Place),
    Unary(UnOp, Box<Expr>),
    Binary(BinOp, Box<Expr>, Box<Expr>),
    Intrinsic(Intrinsic, Vec<Expr>),
}

struct Stmt {
    kind: StmtKind,
    span: Span,
}

enum StmtKind {
    Local {
        slot: u32,
        shape: Shape,
        init: Option<Expr>,
    },
    Assign {
        lhs: Place,
        rhs: Expr,
    },
    If {
        cond: Expr,
        then_blk: Vec<Stmt>,
        else_blk: Option<Vec<Stmt>>,
    },
    While {
        cond: Expr,
        body: Vec<Stmt>,
    },
    For {
        var: Var,
        lo: Expr,
        hi: Expr,
        step: Option<Expr>,
        body: Vec<Stmt>,
    },
    Call {
        name: String,
        /// Index of the first subroutine named `name`.
        callee: Option<u32>,
        args: Vec<Arg>,
    },
    Return,
    Mpi(Mpi),
    Read(Place),
    Print(Expr),
}

/// An actual argument: a whole variable binds by reference, anything else
/// (an expression or an array element) by value.
enum Arg {
    Ref(Var, Span),
    Value(Expr),
}

enum Mpi {
    Send {
        buf: Place,
        dest: Expr,
        tag: Expr,
        comm: Option<Expr>,
    },
    /// A `None` source or tag is `ANY`.
    Recv {
        buf: Place,
        src: Option<Expr>,
        tag: Option<Expr>,
        comm: Option<Expr>,
    },
    Bcast {
        buf: Place,
        root: Expr,
        comm: Option<Expr>,
    },
    Reduce {
        op: RedOp,
        send: Expr,
        recv: Place,
        root: Expr,
        comm: Option<Expr>,
    },
    Allreduce {
        op: RedOp,
        send: Expr,
        recv: Place,
        comm: Option<Expr>,
    },
    Barrier,
    Wait,
}

impl Code {
    fn lower(program: &Program) -> Code {
        let mut by_name: BTreeMap<&str, &VarDecl> = BTreeMap::new();
        for g in &program.globals {
            by_name.insert(&g.name, g);
        }
        let globals = by_name
            .values()
            .map(|g| Global {
                name: g.name.clone(),
                span: g.span,
                shape: Shape::of(&g.ty),
            })
            .collect();
        let global_index: HashMap<&str, u32> =
            by_name.keys().zip(0..).map(|(n, i)| (*n, i)).collect();
        let mut sub_index: HashMap<&str, u32> = HashMap::new();
        for (s, i) in program.subs.iter().zip(0..) {
            sub_index.entry(s.name.as_str()).or_insert(i);
        }
        let subs = program
            .subs
            .iter()
            .map(|s| Lower::sub(s, &global_index, &sub_index))
            .collect();
        Code { globals, subs }
    }
}

impl Shape {
    fn of(ty: &Type) -> Shape {
        Shape {
            dims: ty.dims.clone().into_boxed_slice(),
            len: usize::try_from(ty.elem_count()).unwrap_or(usize::MAX),
        }
    }

    /// Fresh storage holding `x` in every element, O(1) whatever the
    /// declared length.
    fn filled(&self, x: f64) -> Storage<'_> {
        if self.dims.is_empty() {
            Storage::Scalar(x)
        } else {
            Storage::Array(Array::new(&self.dims, self.len, Fill::Const(x)))
        }
    }
}

/// Name resolution for one subroutine.
struct Lower<'p> {
    globals: &'p HashMap<&'p str, u32>,
    subs: &'p HashMap<&'p str, u32>,
    locals: HashMap<&'p str, u32>,
}

impl<'p> Lower<'p> {
    fn sub(
        sub: &'p SubDecl,
        globals: &'p HashMap<&'p str, u32>,
        subs: &'p HashMap<&'p str, u32>,
    ) -> Sub {
        let mut cx = Lower {
            globals,
            subs,
            locals: HashMap::new(),
        };
        let params = sub
            .params
            .iter()
            .map(|p| (cx.bind(&p.name), Shape::of(&p.ty)))
            .collect();
        visit_stmts(&sub.body, &mut |s| {
            if let ast::StmtKind::Local { decl, .. } = &s.kind {
                cx.bind(&decl.name);
            }
        });
        Sub {
            name: sub.name.clone(),
            span: sub.span,
            params,
            slots: cx.locals.len(),
            body: cx.block(&sub.body),
        }
    }

    /// The frame slot of a parameter or local; a repeated name shares it.
    fn bind(&mut self, name: &'p str) -> u32 {
        let next = self.locals.len() as u32;
        *self.locals.entry(name).or_insert(next)
    }

    fn var(&self, name: &str) -> Var {
        Var {
            local: self.locals.get(name).copied(),
            global: self.globals.get(name).copied(),
            name: name.into(),
        }
    }

    fn place(&self, lv: &LValue) -> Place {
        Place {
            var: self.var(&lv.name),
            indices: lv.indices.iter().map(|e| self.expr(e)).collect(),
            span: lv.span,
        }
    }

    fn expr(&self, e: &ast::Expr) -> Expr {
        let kind = match &e.kind {
            ast::ExprKind::IntLit(v) => ExprKind::Num(*v as f64),
            ast::ExprKind::RealLit(v) => ExprKind::Num(*v),
            ast::ExprKind::BoolLit(b) => ExprKind::Num(if *b { 1.0 } else { 0.0 }),
            ast::ExprKind::Rank => ExprKind::Rank,
            ast::ExprKind::Nprocs => ExprKind::Nprocs,
            ast::ExprKind::AnyWildcard => ExprKind::Any,
            ast::ExprKind::Var(lv) => ExprKind::Load(self.place(lv)),
            ast::ExprKind::Unary(op, inner) => {
                let inner = self.expr(inner);
                match inner.num() {
                    Some(x) => ExprKind::Num(unary(*op, x)),
                    None => ExprKind::Unary(*op, Box::new(inner)),
                }
            }
            ast::ExprKind::Binary(op, a, b) => {
                let (a, b) = (self.expr(a), self.expr(b));
                match (a.num(), b.num()) {
                    (Some(x), Some(y)) => ExprKind::Num(scalar(*op, x, y)),
                    _ => ExprKind::Binary(*op, Box::new(a), Box::new(b)),
                }
            }
            ast::ExprKind::Intrinsic(i, args) => {
                ExprKind::Intrinsic(*i, args.iter().map(|a| self.expr(a)).collect())
            }
        };
        Expr { kind, span: e.span }
    }

    /// `None` for the `ANY` wildcard.
    fn wildcard(&self, e: &ast::Expr) -> Option<Expr> {
        match e.kind {
            ast::ExprKind::AnyWildcard => None,
            _ => Some(self.expr(e)),
        }
    }

    fn comm(&self, comm: &Option<ast::Expr>) -> Option<Expr> {
        comm.as_ref().map(|c| self.expr(c))
    }

    fn block(&self, b: &ast::Block) -> Vec<Stmt> {
        b.stmts.iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&self, s: &ast::Stmt) -> Stmt {
        let kind = match &s.kind {
            ast::StmtKind::Local { decl, init } => StmtKind::Local {
                slot: self.locals[decl.name.as_str()],
                shape: Shape::of(&decl.ty),
                init: init.as_ref().map(|e| self.expr(e)),
            },
            ast::StmtKind::Assign { lhs, rhs } => StmtKind::Assign {
                lhs: self.place(lhs),
                rhs: self.expr(rhs),
            },
            ast::StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => StmtKind::If {
                cond: self.expr(cond),
                then_blk: self.block(then_blk),
                else_blk: else_blk.as_ref().map(|b| self.block(b)),
            },
            ast::StmtKind::While { cond, body } => StmtKind::While {
                cond: self.expr(cond),
                body: self.block(body),
            },
            ast::StmtKind::For {
                var,
                lo,
                hi,
                step,
                body,
            } => StmtKind::For {
                var: self.var(var),
                lo: self.expr(lo),
                hi: self.expr(hi),
                step: step.as_ref().map(|e| self.expr(e)),
                body: self.block(body),
            },
            ast::StmtKind::Call { name, args } => StmtKind::Call {
                name: name.clone(),
                callee: self.subs.get(name.as_str()).copied(),
                args: args
                    .iter()
                    .map(|a| match a.as_lvalue() {
                        Some(lv) if lv.is_whole() => Arg::Ref(self.var(&lv.name), lv.span),
                        _ => Arg::Value(self.expr(a)),
                    })
                    .collect(),
            },
            ast::StmtKind::Return => StmtKind::Return,
            ast::StmtKind::Mpi(m) => StmtKind::Mpi(self.mpi(m)),
            ast::StmtKind::Read(lv) => StmtKind::Read(self.place(lv)),
            ast::StmtKind::Print(e) => StmtKind::Print(self.expr(e)),
        };
        Stmt { kind, span: s.span }
    }

    fn mpi(&self, m: &MpiStmt) -> Mpi {
        match m {
            MpiStmt::Send {
                buf,
                dest,
                tag,
                comm,
                ..
            } => Mpi::Send {
                buf: self.place(buf),
                dest: self.expr(dest),
                tag: self.expr(tag),
                comm: self.comm(comm),
            },
            MpiStmt::Recv {
                buf,
                src,
                tag,
                comm,
                ..
            } => Mpi::Recv {
                buf: self.place(buf),
                src: self.wildcard(src),
                tag: self.wildcard(tag),
                comm: self.comm(comm),
            },
            MpiStmt::Bcast { buf, root, comm } => Mpi::Bcast {
                buf: self.place(buf),
                root: self.expr(root),
                comm: self.comm(comm),
            },
            MpiStmt::Reduce {
                op,
                send,
                recv,
                root,
                comm,
            } => Mpi::Reduce {
                op: *op,
                send: self.expr(send),
                recv: self.place(recv),
                root: self.expr(root),
                comm: self.comm(comm),
            },
            MpiStmt::Allreduce {
                op,
                send,
                recv,
                comm,
            } => Mpi::Allreduce {
                op: *op,
                send: self.expr(send),
                recv: self.place(recv),
                comm: self.comm(comm),
            },
            MpiStmt::Barrier => Mpi::Barrier,
            MpiStmt::Wait => Mpi::Wait,
        }
    }
}

// ---- values and storage -----------------------------------------------------

/// Elements per array page.
const PAGE: usize = 1 << 10;

/// The value of every array element that no page overrides.
#[derive(Clone, Copy)]
enum Fill {
    Const(f64),
    /// `read`'s deterministic ramp: element `k` holds `v + (k % 97) * 0.001`.
    Ramp(f64),
}

impl Fill {
    fn at(self, k: usize) -> f64 {
        match self {
            Fill::Const(c) => c,
            Fill::Ramp(v) => v + (k % 97) as f64 * 0.001,
        }
    }

    /// Append elements `from..to`.
    fn extend(self, out: &mut Vec<f64>, from: usize, to: usize) {
        match self {
            Fill::Const(c) => out.resize(out.len() + (to - from), c),
            Fill::Ramp(_) => out.extend((from..to).map(|k| self.at(k))),
        }
    }
}

/// A flattened array: a whole-array fill plus only the pages written
/// since, keyed by page number. Declaring, filling and `read`ing an
/// array cost O(1) whatever its length, and so does an element access.
struct Array<'a> {
    dims: &'a [i64],
    /// Element count. Differs from the product of `dims` when a by-value
    /// actual of another length binds an array parameter.
    len: usize,
    fill: Fill,
    pages: BTreeMap<usize, Box<[f64]>>,
}

impl<'a> Array<'a> {
    fn new(dims: &'a [i64], len: usize, fill: Fill) -> Self {
        Array {
            dims,
            len,
            fill,
            pages: BTreeMap::new(),
        }
    }

    fn from_vec(dims: &'a [i64], xs: &[f64]) -> Self {
        let mut a = Array::new(dims, xs.len(), Fill::Const(0.0));
        a.assign(xs);
        a
    }

    fn get(&self, k: usize) -> f64 {
        match self.pages.get(&(k / PAGE)) {
            Some(page) => page[k % PAGE],
            None => self.fill.at(k),
        }
    }

    fn set(&mut self, k: usize, x: f64) {
        let (len, fill) = (self.len, self.fill);
        let page = self.pages.entry(k / PAGE).or_insert_with(|| {
            let start = k - k % PAGE;
            let mut elems = Vec::new();
            fill.extend(&mut elems, start, len.min(start.saturating_add(PAGE)));
            elems.into_boxed_slice()
        });
        page[k % PAGE] = x;
    }

    fn fill(&mut self, fill: Fill) {
        self.fill = fill;
        self.pages.clear();
    }

    /// Overwrite every element; `xs.len()` must equal `self.len`.
    fn assign(&mut self, xs: &[f64]) {
        self.fill = Fill::Const(0.0);
        self.pages = xs.chunks(PAGE).map(Box::from).enumerate().collect();
    }

    /// The whole array as one value, built page by page. The allocation is
    /// reserved up front and refused with an error rather than aborting.
    fn to_vec(&self) -> Result<Vec<f64>, String> {
        let mut out = Vec::new();
        out.try_reserve_exact(self.len).map_err(|_| {
            format!(
                "cannot materialise a whole array of {} elements: allocation refused",
                self.len
            )
        })?;
        let mut next = 0;
        for (&p, page) in &self.pages {
            let start = p * PAGE;
            self.fill.extend(&mut out, next, start);
            out.extend_from_slice(page);
            next = start + page.len();
        }
        self.fill.extend(&mut out, next, self.len);
        Ok(out)
    }
}

/// Runtime storage: a scalar or an array. The kind can change at run time
/// (a `for` loop stores a scalar into its variable's slot).
enum Storage<'a> {
    Scalar(f64),
    Array(Array<'a>),
}

type Slot<'a> = Rc<RefCell<Storage<'a>>>;

/// One call frame, indexed by [`Var::local`]. A slot is bound by a
/// parameter or an executed `var`; parameters may alias caller slots.
type Frame<'a> = Vec<Option<Slot<'a>>>;

/// A value produced by expression evaluation.
enum Val {
    Num(f64),
    Arr(Vec<f64>),
}

impl Val {
    fn as_num(&self, err: impl FnOnce() -> RuntimeError) -> Result<f64, RuntimeError> {
        match self {
            Val::Num(v) => Ok(*v),
            Val::Arr(_) => Err(err()),
        }
    }

    /// A received or reduced payload: one element is a scalar.
    fn from_payload(payload: Vec<f64>) -> Val {
        if payload.len() == 1 {
            Val::Num(payload[0])
        } else {
            Val::Arr(payload)
        }
    }

    fn into_payload(self) -> Vec<f64> {
        match self {
            Val::Num(x) => vec![x],
            Val::Arr(xs) => xs,
        }
    }
}

/// Where a [`Place`] points once its subscripts are evaluated.
enum At {
    Whole,
    /// An element of an array (never produced for a scalar).
    Elem(usize),
    /// Subscripts that do not fit the storage; the caller reports the
    /// message at its own span.
    Misfit(String),
}

// ---- the per-process interpreter --------------------------------------------

/// Control-flow signal from statement execution.
enum Flow {
    Normal,
    Return,
}

struct Process<'a> {
    code: &'a Code,
    rank: usize,
    nprocs: usize,
    transport: &'a (dyn Transport + Sync),
    result: ProcessResult,
    read_counter: u64,
    coll_seq: i64,
    config: &'a InterpConfig,
    /// Subroutine calls currently open on this rank (`main` is depth 0).
    depth: usize,
}

impl<'a> Process<'a> {
    fn run_entry(&mut self) -> Result<(), RuntimeError> {
        let code = self.code;
        let entry = code
            .subs
            .iter()
            .find(|s| s.name == self.config.entry)
            .ok_or_else(|| {
                self.err(
                    Span::DUMMY,
                    format!("entry subroutine `{}` not found", self.config.entry),
                )
            })?;
        if !entry.params.is_empty() {
            return Err(self.err(entry.span, "entry subroutine must take no parameters"));
        }
        let globals: Vec<Slot<'a>> = code
            .globals
            .iter()
            .map(|g| {
                let init = self
                    .config
                    .init_globals
                    .iter()
                    .find(|(name, _)| *name == g.name)
                    .map_or(0.0, |(_, v)| *v);
                Rc::new(RefCell::new(g.shape.filled(init)))
            })
            .collect();
        let mut frame = vec![None; entry.slots];
        self.exec_block(&entry.body, &mut frame, &globals)?;
        if self.config.capture_globals {
            let mut finals = Vec::with_capacity(globals.len());
            for (g, slot) in code.globals.iter().zip(&globals) {
                let values = match &*slot.borrow() {
                    Storage::Scalar(v) => vec![*v],
                    Storage::Array(a) => a.to_vec().map_err(|m| self.err(g.span, m))?,
                };
                finals.push((g.name.clone(), values));
            }
            self.result.final_globals = finals;
        }
        Ok(())
    }

    fn err(&self, span: Span, msg: impl Into<String>) -> RuntimeError {
        RuntimeError::Failed {
            rank: self.rank,
            span,
            message: msg.into(),
        }
    }

    /// The slot `var` names: the enclosing subroutine's binding once it
    /// exists, else the same-named global.
    fn slot<'f>(
        &self,
        var: &Var,
        frame: &'f Frame<'a>,
        globals: &'f [Slot<'a>],
        span: Span,
    ) -> Result<&'f Slot<'a>, RuntimeError> {
        if let Some(slot) = var.local.and_then(|l| frame[l as usize].as_ref()) {
            return Ok(slot);
        }
        var.global
            .map(|g| &globals[g as usize])
            .ok_or_else(|| self.err(span, format!("undefined variable `{}`", var.name)))
    }

    fn tick(&mut self, span: Span) -> Result<(), RuntimeError> {
        self.result.steps += 1;
        if self.result.steps > self.config.limits.max_steps {
            return Err(self.err(span, "statement budget exceeded (possible infinite loop)"));
        }
        Ok(())
    }

    fn exec_block(
        &mut self,
        block: &'a [Stmt],
        frame: &mut Frame<'a>,
        globals: &[Slot<'a>],
    ) -> Result<Flow, RuntimeError> {
        for stmt in block {
            if let Flow::Return = self.exec_stmt(stmt, frame, globals)? {
                return Ok(Flow::Return);
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(
        &mut self,
        stmt: &'a Stmt,
        frame: &mut Frame<'a>,
        globals: &[Slot<'a>],
    ) -> Result<Flow, RuntimeError> {
        self.tick(stmt.span)?;
        match &stmt.kind {
            StmtKind::Local { slot, shape, init } => {
                let fresh = Rc::new(RefCell::new(shape.filled(0.0)));
                if let Some(e) = init {
                    let v = self.eval(e, frame, globals)?;
                    self.store(&fresh, At::Whole, v, stmt.span)?;
                }
                frame[*slot as usize] = Some(fresh);
            }
            StmtKind::Assign { lhs, rhs } => {
                let v = self.eval(rhs, frame, globals)?;
                self.assign(lhs, v, stmt.span, frame, globals)?;
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let c = self
                    .eval(cond, frame, globals)?
                    .as_num(|| self.err(cond.span, "array condition"))?;
                if c != 0.0 {
                    return self.exec_block(then_blk, frame, globals);
                } else if let Some(e) = else_blk {
                    return self.exec_block(e, frame, globals);
                }
            }
            StmtKind::While { cond, body } => loop {
                self.tick(stmt.span)?;
                let c = self
                    .eval(cond, frame, globals)?
                    .as_num(|| self.err(cond.span, "array condition"))?;
                if c == 0.0 {
                    break;
                }
                if let Flow::Return = self.exec_block(body, frame, globals)? {
                    return Ok(Flow::Return);
                }
            },
            StmtKind::For {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                let lo = self
                    .eval(lo, frame, globals)?
                    .as_num(|| self.err(stmt.span, "array loop bound"))?;
                let hi = self
                    .eval(hi, frame, globals)?
                    .as_num(|| self.err(stmt.span, "array loop bound"))?;
                let st = match step {
                    Some(s) => self
                        .eval(s, frame, globals)?
                        .as_num(|| self.err(stmt.span, "array step"))?,
                    None => 1.0,
                };
                if st == 0.0 {
                    return Err(self.err(stmt.span, "zero loop step"));
                }
                // Held across the body: a `var` of the same name in the body
                // binds a new slot but does not redirect the loop.
                let slot = Rc::clone(self.slot(var, frame, globals, stmt.span)?);
                let mut i = lo;
                while (st > 0.0 && i <= hi) || (st < 0.0 && i >= hi) {
                    self.tick(stmt.span)?;
                    *slot.borrow_mut() = Storage::Scalar(i);
                    if let Flow::Return = self.exec_block(body, frame, globals)? {
                        return Ok(Flow::Return);
                    }
                    // Re-read in case the body modified the loop variable.
                    i = match *slot.borrow() {
                        Storage::Scalar(v) => v + st,
                        _ => return Err(self.err(stmt.span, "loop variable became an array")),
                    };
                }
            }
            StmtKind::Call { name, callee, args } => {
                self.exec_call(name, *callee, args, stmt.span, frame, globals)?;
            }
            StmtKind::Return => return Ok(Flow::Return),
            StmtKind::Mpi(m) => self.exec_mpi(m, stmt.span, frame, globals)?,
            StmtKind::Read(place) => {
                let slot = self.slot(&place.var, frame, globals, place.span)?;
                let at = self.locate(place, slot, frame, globals)?;
                let v = self.next_input();
                match at {
                    // Whole-variable read: fill arrays elementwise with a
                    // deterministic ramp.
                    At::Whole => match &mut *slot.borrow_mut() {
                        Storage::Scalar(x) => *x = v,
                        Storage::Array(a) => a.fill(Fill::Ramp(v)),
                    },
                    at => self.store(slot, at, Val::Num(v), stmt.span)?,
                }
            }
            StmtKind::Print(e) => match self.eval(e, frame, globals)? {
                Val::Num(x) => self.result.printed.push(x),
                Val::Arr(xs) => self.result.printed.extend(xs),
            },
        }
        Ok(Flow::Normal)
    }

    /// Deterministic pseudo-input stream, distinct per rank.
    fn next_input(&mut self) -> f64 {
        self.read_counter = self
            .read_counter
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // Map to a small stable range to keep arithmetic well-behaved.
        ((self.read_counter >> 33) % 1000) as f64 / 100.0 + 1.0
    }

    fn exec_call(
        &mut self,
        name: &str,
        callee: Option<u32>,
        args: &'a [Arg],
        span: Span,
        frame: &Frame<'a>,
        globals: &[Slot<'a>],
    ) -> Result<(), RuntimeError> {
        let code = self.code;
        let callee = callee
            .map(|c| &code.subs[c as usize])
            .ok_or_else(|| self.err(span, format!("call to unknown subroutine `{name}`")))?;
        if callee.params.len() != args.len() {
            return Err(self.err(span, format!("arity mismatch calling `{name}`")));
        }
        if self.depth >= MAX_CALL_DEPTH {
            return Err(self.err(
                span,
                format!("call depth exceeds {MAX_CALL_DEPTH} at call to `{name}`"),
            ));
        }
        let mut new_frame = vec![None; callee.slots];
        for ((slot, shape), arg) in callee.params.iter().zip(args) {
            let bound = match arg {
                // Whole variable: alias the caller's storage (by reference).
                Arg::Ref(var, vspan) => Rc::clone(self.slot(var, frame, globals, *vspan)?),
                // Expression or array element: fresh storage (by value).
                Arg::Value(e) => {
                    let storage = match self.eval(e, frame, globals)? {
                        Val::Num(x) => shape.filled(x),
                        Val::Arr(xs) => Storage::Array(Array::from_vec(&shape.dims, &xs)),
                    };
                    Rc::new(RefCell::new(storage))
                }
            };
            new_frame[*slot as usize] = Some(bound);
        }
        self.depth += 1;
        let done = self.exec_block(&callee.body, &mut new_frame, globals);
        self.depth -= 1;
        done.map(|_| ())
    }

    // ---- MPI -----------------------------------------------------------

    fn exec_mpi(
        &mut self,
        m: &'a Mpi,
        span: Span,
        frame: &Frame<'a>,
        globals: &[Slot<'a>],
    ) -> Result<(), RuntimeError> {
        match m {
            Mpi::Send {
                buf,
                dest,
                tag,
                comm,
            } => {
                let payload = self.load(buf, frame, globals)?.into_payload();
                let dest = self.eval_rank(dest, frame, globals)?;
                let tag = self.eval_int(tag, frame, globals)?;
                let comm = self.eval_comm(comm, frame, globals)?;
                self.post(dest, tag, comm, payload, span)?;
            }
            Mpi::Recv {
                buf,
                src,
                tag,
                comm,
            } => {
                let src = match src {
                    Some(e) => Some(self.eval_rank(e, frame, globals)?),
                    None => None,
                };
                let tag = match tag {
                    Some(e) => Some(self.eval_int(e, frame, globals)?),
                    None => None,
                };
                let comm = self.eval_comm(comm, frame, globals)?;
                let msg = self.take(src, tag, comm, span)?;
                self.assign(buf, Val::from_payload(msg.payload), span, frame, globals)?;
            }
            Mpi::Bcast { buf, root, comm } => {
                let root = self.eval_rank(root, frame, globals)?;
                let comm = self.eval_comm(comm, frame, globals)?;
                let tag = self.next_coll_tag();
                self.trace_collective("bcast", root);
                if self.rank == root {
                    let payload = self.load(buf, frame, globals)?.into_payload();
                    let dests = (0..self.nprocs).filter(|&d| d != root);
                    self.fan_out(dests, tag, comm, payload, span)?;
                } else {
                    let msg = self.take(Some(root), Some(tag), comm, span)?;
                    self.assign(buf, Val::from_payload(msg.payload), span, frame, globals)?;
                }
            }
            Mpi::Reduce {
                op,
                send,
                recv,
                root,
                comm,
            } => {
                let root = self.eval_rank(root, frame, globals)?;
                let comm = self.eval_comm(comm, frame, globals)?;
                let tag = self.next_coll_tag();
                self.trace_collective("reduce", root);
                let mine = self.eval(send, frame, globals)?.into_payload();
                if self.rank == root {
                    let mut acc = mine;
                    // Combine in rank order for determinism.
                    for src in 0..self.nprocs {
                        if src == root {
                            continue;
                        }
                        let msg = self.take(Some(src), Some(tag), comm, span)?;
                        if msg.payload.len() != acc.len() {
                            return Err(self.err(span, "reduce payload length mismatch"));
                        }
                        for (a, b) in acc.iter_mut().zip(msg.payload) {
                            *a = combine(*op, *a, b);
                        }
                    }
                    self.assign(recv, Val::from_payload(acc), span, frame, globals)?;
                } else {
                    self.post(root, tag, comm, mine, span)?;
                }
            }
            Mpi::Allreduce {
                op,
                send,
                recv,
                comm,
            } => {
                // Lower to reduce-to-0 + bcast using two collective tags.
                let comm_v = self.eval_comm(comm, frame, globals)?;
                let tag_r = self.next_coll_tag();
                let tag_b = self.next_coll_tag();
                self.trace_collective("allreduce", 0);
                let mine = self.eval(send, frame, globals)?.into_payload();
                let result = if self.rank == 0 {
                    let mut acc = mine;
                    for src in 1..self.nprocs {
                        let msg = self.take(Some(src), Some(tag_r), comm_v, span)?;
                        if msg.payload.len() != acc.len() {
                            return Err(self.err(span, "allreduce payload length mismatch"));
                        }
                        for (a, b) in acc.iter_mut().zip(msg.payload) {
                            *a = combine(*op, *a, b);
                        }
                    }
                    // The root keeps its own copy; the last peer takes `acc`.
                    let own = Val::from_payload(acc.clone());
                    self.fan_out(1..self.nprocs, tag_b, comm_v, acc, span)?;
                    own
                } else {
                    self.post(0, tag_r, comm_v, mine, span)?;
                    Val::from_payload(self.take(Some(0), Some(tag_b), comm_v, span)?.payload)
                };
                self.assign(recv, result, span, frame, globals)?;
            }
            Mpi::Barrier => {
                // All-to-root gather of empty payloads, then root broadcast.
                let tag_r = self.next_coll_tag();
                let tag_b = self.next_coll_tag();
                self.trace_collective("barrier", 0);
                if self.rank == 0 {
                    for src in 1..self.nprocs {
                        self.take(Some(src), Some(tag_r), 0, span)?;
                    }
                    self.fan_out(1..self.nprocs, tag_b, 0, Vec::new(), span)?;
                } else {
                    self.post(0, tag_r, 0, Vec::new(), span)?;
                    self.take(Some(0), Some(tag_b), 0, span)?;
                }
            }
            Mpi::Wait => {}
        }
        Ok(())
    }

    fn next_coll_tag(&mut self) -> i64 {
        self.coll_seq += 1;
        COLLECTIVE_TAG_BASE + self.coll_seq
    }

    /// Emit a collective-entry event on the communication timeline (the
    /// lowered point-to-point traffic appears as individual send/recv
    /// events from the transport). No-op below [`TraceLevel::Full`].
    fn trace_collective(&self, name: &str, root: usize) {
        if telemetry::level() < TraceLevel::Full {
            return;
        }
        telemetry::comm_event(
            name,
            vec![
                ("rank", ArgValue::U64(self.rank as u64)),
                ("root", ArgValue::U64(root as u64)),
                ("seq", ArgValue::I64(self.coll_seq)),
            ],
        );
    }

    /// Post `payload` to each of `dests` in order, cloning it for all but
    /// the last, which takes it by move.
    fn fan_out(
        &mut self,
        dests: impl Iterator<Item = usize>,
        tag: i64,
        comm: i64,
        mut payload: Vec<f64>,
        span: Span,
    ) -> Result<(), RuntimeError> {
        let mut dests = dests.peekable();
        while let Some(dest) = dests.next() {
            let copy = match dests.peek() {
                Some(_) => payload.clone(),
                None => std::mem::take(&mut payload),
            };
            self.post(dest, tag, comm, copy, span)?;
        }
        Ok(())
    }

    fn post(
        &mut self,
        dest: usize,
        tag: i64,
        comm: i64,
        payload: Vec<f64>,
        span: Span,
    ) -> Result<(), RuntimeError> {
        if dest >= self.nprocs {
            return Err(self.err(
                span,
                format!("send to invalid rank {dest} (nprocs={})", self.nprocs),
            ));
        }
        self.result.sends += 1;
        self.transport.send(self.rank, dest, tag, comm, payload);
        Ok(())
    }

    fn take(
        &mut self,
        src: Option<usize>,
        tag: Option<i64>,
        comm: i64,
        span: Span,
    ) -> Result<crate::fault::Message, RuntimeError> {
        match self.transport.recv(
            self.rank,
            src,
            tag,
            comm,
            span,
            self.config.limits.recv_timeout,
        ) {
            Ok(m) => {
                self.result.recvs += 1;
                Ok(m)
            }
            Err(RecvError::Timeout) => Err(self.err(
                span,
                "recv timed out: missing matching send (no deadlock proven)",
            )),
            Err(RecvError::Deadlock(waiting)) => Err(RuntimeError::Deadlock { waiting }),
        }
    }

    fn eval_rank(
        &self,
        e: &Expr,
        frame: &Frame<'a>,
        globals: &[Slot<'a>],
    ) -> Result<usize, RuntimeError> {
        let v = self.eval_int(e, frame, globals)?;
        usize::try_from(v).map_err(|_| self.err(e.span, format!("negative rank {v}")))
    }

    fn eval_int(
        &self,
        e: &Expr,
        frame: &Frame<'a>,
        globals: &[Slot<'a>],
    ) -> Result<i64, RuntimeError> {
        let v = self
            .eval(e, frame, globals)?
            .as_num(|| self.err(e.span, "expected scalar"))?;
        Ok(v as i64)
    }

    fn eval_comm(
        &self,
        comm: &Option<Expr>,
        frame: &Frame<'a>,
        globals: &[Slot<'a>],
    ) -> Result<i64, RuntimeError> {
        match comm {
            Some(c) => self.eval_int(c, frame, globals),
            None => Ok(0),
        }
    }

    // ---- places ----------------------------------------------------------

    /// Evaluate `place`'s subscripts and flatten them column-major
    /// (Fortran order, 1-based) against the storage in `slot`. A subscript
    /// that fails to evaluate is an error here; one that does not fit the
    /// storage is reported by the caller, after every subscript is
    /// evaluated, so subscripts are read in order without a buffer.
    fn locate(
        &self,
        place: &Place,
        slot: &Slot<'a>,
        frame: &Frame<'a>,
        globals: &[Slot<'a>],
    ) -> Result<At, RuntimeError> {
        if place.indices.is_empty() {
            return Ok(At::Whole);
        }
        // Expressions cannot write, so the shape stays put while the
        // subscripts are evaluated.
        let shape = match &*slot.borrow() {
            Storage::Scalar(_) => None,
            Storage::Array(a) => Some((a.dims, a.len)),
        };
        let dims = shape.map_or(&[][..], |(dims, _)| dims);
        let (mut off, mut stride, mut outside) = (0i64, 1i64, None);
        for (k, e) in place.indices.iter().enumerate() {
            let i = self.eval_int(e, frame, globals)?;
            if let (Some(&d), None) = (dims.get(k), outside) {
                if i < 1 || i > d {
                    outside = Some((i, d));
                } else {
                    off = off.wrapping_add((i - 1).wrapping_mul(stride));
                    stride = stride.wrapping_mul(d);
                }
            }
        }
        let Some((dims, len)) = shape else {
            return Ok(At::Misfit("cannot index scalar".to_string()));
        };
        if dims.len() != place.indices.len() {
            return Ok(At::Misfit("subscript count mismatch".to_string()));
        }
        if let Some((i, d)) = outside {
            return Ok(At::Misfit(format!("index {i} out of bounds 1..={d}")));
        }
        Ok(match usize::try_from(off) {
            Ok(k) if k < len => At::Elem(k),
            _ => At::Misfit(format!(
                "element {} out of bounds of the {len} stored elements",
                off.wrapping_add(1)
            )),
        })
    }

    /// The value at `place`.
    fn load(
        &self,
        place: &Place,
        frame: &Frame<'a>,
        globals: &[Slot<'a>],
    ) -> Result<Val, RuntimeError> {
        let slot = self.slot(&place.var, frame, globals, place.span)?;
        let at = self.locate(place, slot, frame, globals)?;
        let s = slot.borrow();
        match (&*s, at) {
            (_, At::Misfit(m)) => Err(self.err(place.span, m)),
            (Storage::Scalar(v), _) => Ok(Val::Num(*v)),
            (Storage::Array(a), At::Whole) => a
                .to_vec()
                .map(Val::Arr)
                .map_err(|m| self.err(place.span, m)),
            (Storage::Array(a), At::Elem(k)) => Ok(Val::Num(a.get(k))),
        }
    }

    /// Store `v` at `place`, reporting a misfit at `span`.
    fn assign(
        &self,
        place: &Place,
        v: Val,
        span: Span,
        frame: &Frame<'a>,
        globals: &[Slot<'a>],
    ) -> Result<(), RuntimeError> {
        let slot = self.slot(&place.var, frame, globals, place.span)?;
        let at = self.locate(place, slot, frame, globals)?;
        self.store(slot, at, v, span)
    }

    fn store(&self, slot: &Slot<'a>, at: At, v: Val, span: Span) -> Result<(), RuntimeError> {
        let mut s = slot.borrow_mut();
        match (&mut *s, at, v) {
            (Storage::Array(_), At::Elem(_) | At::Misfit(_), Val::Arr(_)) => {
                Err(self.err(span, "cannot assign array to array element"))
            }
            (_, At::Misfit(m), _) => Err(self.err(span, m)),
            (Storage::Scalar(dst), _, Val::Num(x)) => {
                *dst = x;
                Ok(())
            }
            (Storage::Scalar(_), _, Val::Arr(_)) => {
                Err(self.err(span, "cannot assign array to scalar"))
            }
            (Storage::Array(a), At::Whole, Val::Num(x)) => {
                a.fill(Fill::Const(x));
                Ok(())
            }
            (Storage::Array(a), At::Whole, Val::Arr(xs)) => {
                if xs.len() != a.len {
                    return Err(self.err(
                        span,
                        format!("array length mismatch: {} vs {}", xs.len(), a.len),
                    ));
                }
                a.assign(&xs);
                Ok(())
            }
            (Storage::Array(a), At::Elem(k), Val::Num(x)) => {
                a.set(k, x);
                Ok(())
            }
        }
    }

    // ---- expressions -----------------------------------------------------

    fn eval(&self, e: &Expr, frame: &Frame<'a>, globals: &[Slot<'a>]) -> Result<Val, RuntimeError> {
        match &e.kind {
            ExprKind::Num(v) => Ok(Val::Num(*v)),
            ExprKind::Rank => Ok(Val::Num(self.rank as f64)),
            ExprKind::Nprocs => Ok(Val::Num(self.nprocs as f64)),
            ExprKind::Any => Err(self.err(e.span, "`ANY` has no value")),
            ExprKind::Load(place) => self.load(place, frame, globals),
            ExprKind::Unary(op, inner) => match (op, self.eval(inner, frame, globals)?) {
                (_, Val::Num(x)) => Ok(Val::Num(unary(*op, x))),
                (UnOp::Neg, Val::Arr(xs)) => Ok(Val::Arr(xs.into_iter().map(|x| -x).collect())),
                (UnOp::Not, Val::Arr(_)) => Err(self.err(e.span, "cannot negate array logically")),
            },
            ExprKind::Binary(op, a, b) => {
                let va = self.eval(a, frame, globals)?;
                let vb = self.eval(b, frame, globals)?;
                self.binop(*op, va, vb, e.span)
            }
            ExprKind::Intrinsic(i, args) => {
                // The parser fixes the arity (at most two arguments).
                let mut vals = [0.0; 2];
                for (k, a) in args.iter().enumerate() {
                    let v = self
                        .eval(a, frame, globals)?
                        .as_num(|| self.err(a.span, "array intrinsic arg"))?;
                    if let Some(slot) = vals.get_mut(k) {
                        *slot = v;
                    }
                }
                let r = match i {
                    Intrinsic::Sqrt => vals[0].abs().sqrt(),
                    Intrinsic::Exp => vals[0].min(50.0).exp(),
                    Intrinsic::Log => vals[0].abs().max(1e-12).ln(),
                    Intrinsic::Sin => vals[0].sin(),
                    Intrinsic::Cos => vals[0].cos(),
                    Intrinsic::Abs => vals[0].abs(),
                    Intrinsic::Max => vals[0].max(vals[1]),
                    Intrinsic::Min => vals[0].min(vals[1]),
                    Intrinsic::Mod => {
                        let m = vals[1] as i64;
                        if m == 0 {
                            return Err(self.err(e.span, "mod by zero"));
                        }
                        ((vals[0] as i64).rem_euclid(m)) as f64
                    }
                };
                Ok(Val::Num(r))
            }
        }
    }

    fn binop(&self, op: BinOp, a: Val, b: Val, span: Span) -> Result<Val, RuntimeError> {
        Ok(match (a, b) {
            (Val::Num(x), Val::Num(y)) => Val::Num(scalar(op, x, y)),
            (Val::Arr(xs), Val::Num(y)) => {
                Val::Arr(xs.into_iter().map(|x| scalar(op, x, y)).collect())
            }
            (Val::Num(x), Val::Arr(ys)) => {
                Val::Arr(ys.into_iter().map(|y| scalar(op, x, y)).collect())
            }
            (Val::Arr(xs), Val::Arr(ys)) => {
                if xs.len() != ys.len() {
                    return Err(self.err(span, "elementwise op on arrays of different lengths"));
                }
                Val::Arr(
                    xs.into_iter()
                        .zip(ys)
                        .map(|(x, y)| scalar(op, x, y))
                        .collect(),
                )
            }
        })
    }
}

fn unary(op: UnOp, x: f64) -> f64 {
    match op {
        UnOp::Neg => -x,
        UnOp::Not => {
            if x == 0.0 {
                1.0
            } else {
                0.0
            }
        }
    }
}

fn scalar(op: BinOp, x: f64, y: f64) -> f64 {
    use BinOp::*;
    match op {
        Add => x + y,
        Sub => x - y,
        Mul => x * y,
        Div => {
            if y == 0.0 {
                0.0 // benign: benchmarks guard real divisions
            } else {
                x / y
            }
        }
        Eq => (x == y) as i64 as f64,
        Ne => (x != y) as i64 as f64,
        Lt => (x < y) as i64 as f64,
        Le => (x <= y) as i64 as f64,
        Gt => (x > y) as i64 as f64,
        Ge => (x >= y) as i64 as f64,
        And => ((x != 0.0) && (y != 0.0)) as i64 as f64,
        Or => ((x != 0.0) || (y != 0.0)) as i64 as f64,
    }
}

fn combine(op: RedOp, a: f64, b: f64) -> f64 {
    match op {
        RedOp::Sum => a + b,
        RedOp::Prod => a * b,
        RedOp::Max => a.max(b),
        RedOp::Min => a.min(b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn run_src(src: &str, nprocs: usize) -> Vec<ProcessResult> {
        let p = parse(src).expect("parse");
        crate::sema::check(&p).expect("sema");
        run(
            &p,
            &InterpConfig {
                nprocs,
                limits: RuntimeLimits::quick_test(),
                ..Default::default()
            },
        )
        .expect("run")
    }

    #[test]
    fn sequential_arithmetic() {
        let r = run_src(
            "program t sub main() { var x: real; x = 2.0 * 3.0 + 1.0; print(x); }",
            1,
        );
        assert_eq!(r[0].printed, vec![7.0]);
    }

    #[test]
    fn rank_branching_and_p2p() {
        let r = run_src(
            "program t sub main() {\n\
               var x: real; var y: real;\n\
               x = 0.0; y = 0.0;\n\
               if (rank() == 0) { x = 41.0 + 1.0; send(x, 1, 5); }\n\
               else { recv(y, 0, 5); }\n\
               print(y);\n\
             }",
            2,
        );
        assert_eq!(r[0].printed, vec![0.0]);
        assert_eq!(r[1].printed, vec![42.0]);
        assert_eq!(r[0].sends, 1);
        assert_eq!(r[1].recvs, 1);
    }

    #[test]
    fn wildcard_recv() {
        let r = run_src(
            "program t sub main() {\n\
               var x: real; var y: real; x = rank() * 1.0 + 10.0; y = 0.0 - 1.0;\n\
               if (rank() > 0) { send(x, 0, rank()); }\n\
               else { var k: int; for k = 1, nprocs() - 1 { recv(y, ANY, ANY); print(y); } }\n\
             }",
            4,
        );
        let mut got = r[0].printed.clone();
        got.sort_by(f64::total_cmp);
        assert_eq!(got, vec![11.0, 12.0, 13.0]);
    }

    #[test]
    fn bcast_distributes_root_value() {
        let r = run_src(
            "program t sub main() {\n\
               var a: real[4];\n\
               if (rank() == 0) { a = 3.0; } else { a = 0.0; }\n\
               bcast(a, 0);\n\
               print(a[2]);\n\
             }",
            3,
        );
        for pr in &r {
            assert_eq!(pr.printed, vec![3.0]);
        }
    }

    #[test]
    fn reduce_and_allreduce() {
        let r = run_src(
            "program t sub main() {\n\
               var s: real; var t: real; s = 0.0; t = 0.0;\n\
               reduce(SUM, rank() * 1.0 + 1.0, s, 0);\n\
               allreduce(MAX, rank() * 1.0, t);\n\
               print(s); print(t);\n\
             }",
            4,
        );
        assert_eq!(r[0].printed, vec![10.0, 3.0]); // 1+2+3+4, max rank
        assert_eq!(r[3].printed, vec![0.0, 3.0]);
    }

    #[test]
    fn barrier_all_ranks_pass() {
        let r = run_src("program t sub main() { barrier(); print(1.0); }", 5);
        assert_eq!(r.len(), 5);
        for pr in r {
            assert_eq!(pr.printed, vec![1.0]);
        }
    }

    #[test]
    fn by_reference_parameters_mutate_caller() {
        let r = run_src(
            "program t\n\
             sub inc(v: real) { v = v + 1.0; }\n\
             sub main() { var x: real; x = 1.0; call inc(x); call inc(x); print(x); }",
            1,
        );
        assert_eq!(r[0].printed, vec![3.0]);
    }

    #[test]
    fn array_element_actual_is_by_value() {
        let r = run_src(
            "program t\n\
             sub clobber(v: real) { v = 99.0; }\n\
             sub main() { var a: real[2]; a = 5.0; call clobber(a[1]); print(a[1]); }",
            1,
        );
        assert_eq!(r[0].printed, vec![5.0]);
    }

    #[test]
    fn whole_array_aliasing() {
        let r = run_src(
            "program t\n\
             sub fill(v: real[3]) { var i: int; for i = 1, 3 { v[i] = i * 1.0; } }\n\
             sub main() { var a: real[3]; call fill(a); print(a[3]); }",
            1,
        );
        assert_eq!(r[0].printed, vec![3.0]);
    }

    /// Run expecting a structured deadlock; the detector (not the timeout)
    /// must fire, so a generous timeout still finishes almost instantly.
    fn expect_deadlock(src: &str, nprocs: usize) -> Vec<crate::fault::RankWait> {
        let p = parse(src).unwrap();
        let cfg = InterpConfig {
            nprocs,
            limits: RuntimeLimits::detector_backstop(),
            ..Default::default()
        };
        let started = std::time::Instant::now();
        let e = run(&p, &cfg).unwrap_err();
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "deadlock took {:?} — detector did not fire, timeout did",
            started.elapsed()
        );
        match e {
            RuntimeError::Deadlock { waiting } => waiting,
            other => panic!("expected structured deadlock, got: {other}"),
        }
    }

    #[test]
    fn deadlock_is_detected_structurally() {
        let waiting = expect_deadlock("program t sub main() { var x: real; recv(x, 0, 1); }", 2);
        assert_eq!(waiting.len(), 2);
        assert_eq!(waiting[0].rank, 0);
        assert_eq!(waiting[0].src, Some(0), "rank 0 waits on itself");
        assert_eq!(waiting[1].rank, 1);
        assert_eq!(waiting[1].src, Some(0));
    }

    #[test]
    fn self_recv_deadlocks() {
        let waiting = expect_deadlock(
            "program t sub main() { var x: real; recv(x, rank(), 7); }",
            1,
        );
        assert_eq!(waiting.len(), 1);
        assert_eq!(
            waiting[0],
            crate::fault::RankWait {
                rank: 0,
                src: Some(0),
                tag: Some(7),
                comm: 0,
                span: waiting[0].span,
            }
        );
    }

    #[test]
    fn cyclic_recv_before_send_deadlocks() {
        // Classic head-to-head: both ranks recv first, send after. With a
        // rendezvous send this deadlocks in real MPI; our sends are eager,
        // but the recv-before-send cycle still blocks both ranks forever.
        let waiting = expect_deadlock(
            "program t sub main() {\n\
               var x: real; var y: real; x = 1.0;\n\
               recv(y, 1 - rank(), 5);\n\
               send(x, 1 - rank(), 5);\n\
             }",
            2,
        );
        assert_eq!(waiting.len(), 2);
        assert_eq!(waiting[0].src, Some(1));
        assert_eq!(waiting[1].src, Some(0));
    }

    #[test]
    fn mismatched_collective_deadlocks() {
        // Rank 1 skips the barrier and exits; rank 0 is stranded inside the
        // lowered collective. The finished rank must trigger detection.
        let waiting = expect_deadlock(
            "program t sub main() { if (rank() == 0) { barrier(); } }",
            2,
        );
        assert_eq!(waiting.len(), 1);
        assert_eq!(waiting[0].rank, 0);
        assert_eq!(waiting[0].src, Some(1), "waiting on rank 1's barrier token");
    }

    #[test]
    fn deadlock_report_formats_per_rank_lines() {
        let p = parse("program t sub main() { var x: real; recv(x, 0, 1); }").unwrap();
        let e = run(
            &p,
            &InterpConfig {
                nprocs: 2,
                ..Default::default()
            },
        )
        .unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("deadlock detected"), "{msg}");
        assert!(msg.contains("rank 0 waiting for recv(src=0"), "{msg}");
        assert!(msg.contains("rank 1 waiting for recv(src=0"), "{msg}");
    }

    #[test]
    fn infinite_loop_is_bounded() {
        let p = parse("program t sub main() { while (true) { } }").unwrap();
        let cfg = InterpConfig {
            nprocs: 1,
            limits: RuntimeLimits {
                max_steps: 1000,
                ..RuntimeLimits::default()
            },
            ..Default::default()
        };
        let e = run(&p, &cfg).unwrap_err();
        assert!(e.to_string().contains("budget"), "{e}");
    }

    #[test]
    fn failed_rank_wins_over_consequent_deadlock() {
        // Rank 1 dies on an out-of-bounds store; rank 0 is left waiting and
        // the registry reports a deadlock — but the *root cause* must be
        // the failure, not the deadlock it caused.
        let p = parse(
            "program t sub main() {\n\
               var a: real[2]; var x: real;\n\
               if (rank() == 0) { recv(x, 1, 1); } else { a[3] = 1.0; }\n\
             }",
        )
        .unwrap();
        let e = run(
            &p,
            &InterpConfig {
                nprocs: 2,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(!e.is_deadlock(), "root cause must win: {e}");
        assert_eq!(e.rank(), 1);
        assert!(e.to_string().contains("out of bounds"), "{e}");
    }

    #[test]
    fn out_of_bounds_index() {
        let p = parse("program t sub main() { var a: real[2]; a[3] = 1.0; }").unwrap();
        let e = run(
            &p,
            &InterpConfig {
                nprocs: 1,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(e.to_string().contains("out of bounds"), "{e}");
    }

    #[test]
    fn column_major_indexing() {
        let r = run_src(
            "program t sub main() {\n\
               var a: real[2,3]; var i: int; var j: int; var k: real; k = 0.0;\n\
               for j = 1, 3 { for i = 1, 2 { k = k + 1.0; a[i, j] = k; } }\n\
               print(a[1, 1]); print(a[2, 1]); print(a[1, 2]); print(a[2, 3]);\n\
             }",
            1,
        );
        assert_eq!(r[0].printed, vec![1.0, 2.0, 3.0, 6.0]);
    }

    #[test]
    fn ring_pipeline() {
        // Each rank sends to the next; value accumulates around the ring.
        let r = run_src(
            "program t sub main() {\n\
               var v: real; v = 0.0;\n\
               if (rank() == 0) {\n\
                 v = 1.0; send(v, 1, 9); recv(v, nprocs() - 1, 9); print(v);\n\
               } else {\n\
                 recv(v, rank() - 1, 9); v = v + 1.0;\n\
                 send(v, mod(rank() + 1, nprocs()), 9);\n\
               }\n\
             }",
            4,
        );
        assert_eq!(r[0].printed, vec![4.0]);
    }

    #[test]
    fn determinism_across_runs() {
        let src = "program t sub main() {\n\
             var a: real[8]; var s: real; read(a); reduce(SUM, a[1], s, 0);\n\
             if (rank() == 0) { print(s); } }";
        let a = run_src(src, 3);
        let b = run_src(src, 3);
        assert_eq!(a[0].printed, b[0].printed);
        assert!(!a[0].printed.is_empty());
    }
}

#[cfg(test)]
mod capture_tests {
    use super::*;
    use crate::parser::parse;

    fn run_cfg(src: &str, cfg: &InterpConfig) -> Vec<ProcessResult> {
        let p = parse(src).expect("parse");
        crate::sema::check(&p).expect("sema");
        run(&p, cfg).expect("run")
    }

    #[test]
    fn init_globals_sets_scalars_and_fills_arrays() {
        let src = "program t global s: real; global a: real[3];\n\
             sub main() { print(s); print(a[2]); }";
        let cfg = InterpConfig {
            nprocs: 2,
            init_globals: vec![("s".into(), 5.5), ("a".into(), 2.0)],
            ..Default::default()
        };
        let r = run_cfg(src, &cfg);
        for pr in &r {
            assert_eq!(pr.printed, vec![5.5, 2.0]);
        }
    }

    #[test]
    fn capture_globals_reports_finals_sorted() {
        let src = "program t global b: real; global a: real[2];\n\
             sub main() { b = 3.0; a[1] = 1.0; a[2] = 2.0; }";
        let cfg = InterpConfig {
            nprocs: 1,
            capture_globals: true,
            ..Default::default()
        };
        let r = run_cfg(src, &cfg);
        let finals = &r[0].final_globals;
        assert_eq!(finals.len(), 2);
        assert_eq!(finals[0], ("a".to_string(), vec![1.0, 2.0]));
        assert_eq!(finals[1], ("b".to_string(), vec![3.0]));
    }

    #[test]
    fn capture_off_by_default() {
        let src = "program t global b: real; sub main() { b = 1.0; }";
        let r = run_cfg(
            src,
            &InterpConfig {
                nprocs: 1,
                ..Default::default()
            },
        );
        assert!(r[0].final_globals.is_empty());
    }

    #[test]
    fn init_globals_apply_before_entry_on_every_rank() {
        // A perturbed independent visibly flows through communication.
        let src = "program t global x: real; global y: real;\n\
             sub main() {\n\
               if (rank() == 0) { x = x * 10.0; send(x, 1, 1); } else { recv(y, 0, 1); }\n\
               print(y);\n\
             }";
        let mk = |v: f64| InterpConfig {
            nprocs: 2,
            init_globals: vec![("x".into(), v)],
            ..Default::default()
        };
        let a = run_cfg(src, &mk(1.0));
        let b = run_cfg(src, &mk(2.0));
        assert_eq!(a[1].printed, vec![10.0]);
        assert_eq!(b[1].printed, vec![20.0]);
    }

    #[test]
    fn whole_array_reduce_payloads() {
        // Reducing an array value: elementwise SUM across ranks.
        let src = "program t global a: real[3]; global r: real[3];\n\
             sub main() { a = rank() * 1.0 + 1.0; reduce(SUM, a, r, 0); print(r[1]); }";
        let out = run_cfg(
            src,
            &InterpConfig {
                nprocs: 3,
                ..Default::default()
            },
        );
        // 1 + 2 + 3 on the root; others untouched (0).
        assert_eq!(out[0].printed, vec![6.0]);
        assert_eq!(out[1].printed, vec![0.0]);
    }

    #[test]
    fn allreduce_array_agrees_everywhere() {
        let src = "program t global a: real[2]; global r: real[2];\n\
             sub main() { a = rank() * 1.0; allreduce(MAX, a, r); print(r[2]); }";
        let out = run_cfg(
            src,
            &InterpConfig {
                nprocs: 4,
                ..Default::default()
            },
        );
        for pr in &out {
            assert_eq!(pr.printed, vec![3.0]);
        }
    }

    #[test]
    fn collectives_interleave_with_p2p_without_crosstalk() {
        // User tags share the mailbox with lowered collective tags; the
        // reserved tag space must keep them apart.
        let src = "program t global x: real; global s: real;\n\
             sub main() {\n\
               x = rank() * 1.0 + 1.0;\n\
               if (rank() == 0) { send(x, 1, 3); }\n\
               allreduce(SUM, x, s);\n\
               if (rank() == 1) { recv(x, 0, 3); }\n\
               print(s); print(x);\n\
             }";
        let out = run_cfg(
            src,
            &InterpConfig {
                nprocs: 2,
                ..Default::default()
            },
        );
        assert_eq!(out[0].printed, vec![3.0, 1.0]);
        assert_eq!(
            out[1].printed,
            vec![3.0, 1.0],
            "recv got the p2p message, not a collective"
        );
    }

    #[test]
    fn nested_by_reference_chains() {
        let src = "program t\n\
             sub add1(v: real) { v = v + 1.0; }\n\
             sub add2(v: real) { call add1(v); call add1(v); }\n\
             sub main() { var x: real; x = 0.0; call add2(x); call add2(x); print(x); }";
        let out = run_cfg(
            src,
            &InterpConfig {
                nprocs: 1,
                ..Default::default()
            },
        );
        assert_eq!(out[0].printed, vec![4.0]);
    }
}

#[cfg(test)]
mod sparse_tests {
    use super::*;
    use crate::parser::parse;

    /// 10^11 declared reals (800 GB) on every rank.
    fn huge(tail: &str) -> Program {
        let src = format!(
            "program huge global a: real[100000000000]; global x: real;\n\
             sub main() {{\n\
               a[5] = 1.0;\n\
               if (rank() == 0) {{ send(x, 1, 7); }} else {{ recv(x, 0, 7); }}\n\
               {tail}\n\
             }}"
        );
        let p = parse(&src).expect("parse");
        crate::sema::check(&p).expect("sema");
        p
    }

    fn two_ranks() -> InterpConfig {
        InterpConfig {
            nprocs: 2,
            limits: RuntimeLimits::quick_test(),
            ..Default::default()
        }
    }

    #[test]
    fn declared_length_costs_nothing() {
        let out = run(&huge("print(a[5]); print(a[99999999999]);"), &two_ranks()).unwrap();
        for pr in &out {
            assert_eq!(pr.printed, vec![1.0, 0.0]);
        }
    }

    #[test]
    fn refused_whole_array_fails_the_rank_with_its_element_count() {
        // Materialising `a` reserves 800 GB up front, which the allocator
        // refuses: the rank fails with a structured error, not an abort.
        let e = run(&huge("print(a);"), &two_ranks()).unwrap_err();
        match e {
            RuntimeError::Failed { rank, message, .. } => {
                assert_eq!(rank, 0);
                assert!(message.contains("100000000000 elements"), "{message}");
            }
            other => panic!("expected a structured failure, got: {other}"),
        }
    }

    #[test]
    fn short_by_value_actual_is_an_error_not_a_panic() {
        // Sema does not compare actual and parameter shapes: `v` holds two
        // elements under a three-element declaration.
        let p = parse(
            "program t sub f(v: real[3]) { print(v[3]); }\n\
             sub main() { var a: real[2]; call f(a + 1.0); }",
        )
        .unwrap();
        crate::sema::check(&p).expect("sema");
        let e = run(&p, &two_ranks()).unwrap_err();
        assert_eq!(e.rank(), 0);
        assert!(
            e.to_string()
                .contains("element 3 out of bounds of the 2 stored elements"),
            "{e}"
        );
    }

    #[test]
    fn pages_agree_with_a_dense_array() {
        // 3000 elements span three pages, the last one partial. Writes land
        // in the first and third page over `read`'s ramp; a whole copy and
        // an element write then diverge `b` from `a`.
        let src = "program t global a: real[3000]; global b: real[3000];\n\
             sub main() { read(a); print(a[1]); a[1] = 5.0; a[2048] = 6.0; a[3000] = 7.0;\n\
               b = a; b[1025] = 8.0; }";
        let p = parse(src).unwrap();
        let cfg = InterpConfig {
            nprocs: 1,
            capture_globals: true,
            ..Default::default()
        };
        let out = run(&p, &cfg).unwrap();
        // The ramp's first element is the value `read` drew.
        let v = out[0].printed[0];
        let mut a: Vec<f64> = (0..3000).map(|k| v + (k % 97) as f64 * 0.001).collect();
        a[0] = 5.0;
        a[2047] = 6.0;
        a[2999] = 7.0;
        let mut b = a.clone();
        b[1024] = 8.0;
        let finals = &out[0].final_globals;
        assert_eq!(finals[0], ("a".to_string(), a));
        assert_eq!(finals[1], ("b".to_string(), b));
    }
}
