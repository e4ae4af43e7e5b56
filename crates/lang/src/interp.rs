//! A rank-simulating SPMD interpreter for SMPL.
//!
//! The paper's analyses are purely static — MPI calls are analyzed, never
//! executed. This interpreter exists so the test suite can demonstrate that
//! the benchmark programs are *meaningful* SPMD programs: they run to
//! completion under P processes, communicate, and produce deterministic
//! results.
//!
//! [`run`] runs every rank of a run on the calling thread under one
//! scheduler loop. A rank is its interpreter state plus an explicit
//! activation stack (block cursors, loop state, call frames), so it can
//! stop at an MPI statement and resume there. Every send and every receive
//! is a scheduling point: the loop moves on round-robin, or, under a
//! [`FaultPlan`], to a rank drawn from the plan's seeded stream, so a
//! schedule is a pure function of the program, the configuration and the
//! seed. `send` is eager/buffered (never blocks); a `recv` with no matching
//! queued message leaves its rank blocked on the statement. A run in which
//! no rank can step while one is blocked is deadlocked, exactly and at
//! once. Collectives are lowered onto point-to-point transfers using a
//! reserved tag space keyed by a per-process collective sequence number,
//! which is valid because SMPL programs (like the paper's benchmarks)
//! execute collectives in the same order on every process.
//!
//! A run costs the statements it executes and the elements it writes, not
//! the sizes the program declares. The program is lowered once per run into
//! a tree with every name resolved to a frame slot or global index, shared
//! by all ranks. Arrays are a whole-array fill plus only the pages written,
//! so declaring, filling, `read`ing or sending one is O(1) whatever its
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
use crate::fault::{FaultPlan, Mailboxes, Message, RankWait};
use crate::span::Span;
use crate::types::Type;
use mpi_dfa_core::rng::SplitMix64;
use mpi_dfa_core::telemetry::{self, ArgValue, TraceLevel};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::rc::Rc;

/// Runtime failure during interpretation. Communication deadlocks carry a
/// structured per-rank wait-for report; everything else is a per-rank
/// failure with a source span.
#[derive(Debug, Clone)]
pub enum RuntimeError {
    /// A rank failed executing a statement (bad index, budget exceeded,
    /// arity mismatch, ...).
    Failed {
        rank: usize,
        span: Span,
        message: String,
    },
    /// No rank could step while at least one was blocked on a receive.
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
/// Every safety constant of the runtime lives here, so library callers,
/// the test suites, and `mpidfa run` all draw from one documented source
/// instead of scattering literals. A run needs no time limit: one in which
/// no rank can step ends at once with a deadlock report, and `max_steps`
/// bounds the work of each rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeLimits {
    /// Per-process statement execution budget (guards infinite loops).
    pub max_steps: u64,
}

impl RuntimeLimits {
    /// Default per-process statement budget.
    pub const DEFAULT_MAX_STEPS: u64 = 20_000_000;
}

impl Default for RuntimeLimits {
    fn default() -> Self {
        RuntimeLimits {
            max_steps: Self::DEFAULT_MAX_STEPS,
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
    /// Step limit; see [`RuntimeLimits`].
    pub limits: RuntimeLimits,
    /// Initial values for global scalars (arrays are filled elementwise),
    /// applied identically on every rank before the entry runs. Used by the
    /// dynamic-vs-static cross-validation tests to perturb independents.
    pub init_globals: Vec<(String, f64)>,
    /// Capture every global's final value into
    /// [`ProcessResult::final_globals`].
    pub capture_globals: bool,
    /// Optional seeded fault-injection / adversarial-schedule plan applied
    /// by the scheduler (see [`crate::fault::FaultPlan`]).
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

// ---- the scheduler ------------------------------------------------------------

/// Where a rank stands between two turns.
enum State {
    Ready,
    Blocked(RankWait),
    Done,
    Failed(RuntimeError),
}

/// Why a rank handed control back to the scheduler.
enum Yield {
    /// It sent a message with this destination, tag and communicator.
    Sent {
        dest: usize,
        tag: i64,
        comm: i64,
    },
    Received,
    Blocked(RankWait),
    Done,
}

/// Run `program` under `config`, returning per-rank results. Every rank
/// runs on the calling thread; see the module documentation for the
/// schedule.
pub fn run(program: &Program, config: &InterpConfig) -> Result<Vec<ProcessResult>, RuntimeError> {
    let nprocs = config.nprocs.max(1);
    let code = Code::lower(program);
    let mut run_span = telemetry::span("runtime", "interp:run");
    run_span.arg("nprocs", nprocs);
    run_span.arg("entry", config.entry.as_str());

    let mut net = Net {
        mailboxes: Mailboxes::new(nprocs),
        plan: config
            .fault_plan
            .as_ref()
            .map(|p| (p, SplitMix64::new(p.seed))),
        clock: 0,
    };
    let mut procs = Vec::with_capacity(nprocs);
    let mut states = Vec::with_capacity(nprocs);
    for rank in 0..nprocs {
        trace(&mut net.clock, "rank_start", rank, Vec::new);
        let mut proc = Process::new(&code, config, rank, nprocs);
        states.push(match proc.enter() {
            Ok(()) => State::Ready,
            Err(e) => {
                trace(&mut net.clock, "rank_finish", rank, Vec::new);
                State::Failed(e)
            }
        });
        procs.push(proc);
    }

    let mut ready = Vec::with_capacity(nprocs);
    let mut last = nprocs - 1;
    loop {
        ready.clear();
        ready.extend((0..nprocs).filter(|&r| matches!(states[r], State::Ready)));
        let Some(&first) = ready.first() else {
            break;
        };
        let rank = match &mut net.plan {
            Some((_, rng)) => ready[rng.below(ready.len())],
            None => ready.iter().copied().find(|&r| r > last).unwrap_or(first),
        };
        last = rank;
        states[rank] = match procs[rank].resume(&mut net) {
            Ok(Yield::Sent { dest, tag, comm }) => {
                // Only the new message can end the wait; the queue is
                // searched only when its envelope fits (a plan may have
                // dropped it).
                if let State::Blocked(wait) = &states[dest] {
                    if wait.accepts(rank, tag, comm) && net.mailboxes.has_match(wait) {
                        trace(&mut net.clock, "unblock", dest, Vec::new);
                        states[dest] = State::Ready;
                    }
                }
                State::Ready
            }
            Ok(Yield::Received) => State::Ready,
            Ok(Yield::Blocked(wait)) => {
                trace(&mut net.clock, "block", rank, || {
                    let any = || ArgValue::Str("ANY".to_string());
                    vec![
                        (
                            "src",
                            wait.src.map_or_else(any, |s| ArgValue::U64(s as u64)),
                        ),
                        ("tag", wait.tag.map_or_else(any, ArgValue::I64)),
                        ("comm", ArgValue::I64(wait.comm)),
                    ]
                });
                State::Blocked(wait)
            }
            Ok(Yield::Done) => {
                trace(&mut net.clock, "rank_finish", rank, Vec::new);
                State::Done
            }
            Err(e) => {
                trace(&mut net.clock, "rank_finish", rank, Vec::new);
                State::Failed(e)
            }
        };
    }

    // No rank can step. A deadlock is often the *consequence* of another
    // rank's failure (it died and left its peers stranded), so the lowest
    // failed rank's error wins over it.
    let mut waiting = Vec::new();
    let mut failure = None;
    for (rank, state) in states.into_iter().enumerate() {
        match state {
            State::Blocked(wait) => {
                trace(&mut net.clock, "deadlock", rank, Vec::new);
                waiting.push(wait);
            }
            State::Failed(e) => failure = failure.or(Some(e)),
            State::Ready | State::Done => {}
        }
    }
    match failure {
        Some(e) => Err(e),
        None if !waiting.is_empty() => Err(RuntimeError::Deadlock { waiting }),
        None => Ok(procs.into_iter().map(|p| p.result).collect()),
    }
}

/// The communication fabric of one run.
struct Net<'c> {
    mailboxes: Mailboxes,
    /// The fault plan, and the stream every scheduling and delivery
    /// decision under it is drawn from.
    plan: Option<(&'c FaultPlan, SplitMix64)>,
    /// The run's event counter: communication-timeline events recorded so
    /// far, which stamps the next one's `lt`.
    clock: u64,
}

impl Net<'_> {
    /// Deliver a message, subject to the fault plan.
    fn send(&mut self, src: usize, dest: usize, tag: i64, comm: i64, payload: Payload) {
        trace(&mut self.clock, "send", src, || {
            vec![
                ("dest", ArgValue::U64(dest as u64)),
                ("tag", ArgValue::I64(tag)),
                ("comm", ArgValue::I64(comm)),
                ("len", ArgValue::U64(payload.len() as u64)),
            ]
        });
        let msg = Message {
            src,
            tag,
            comm,
            payload,
        };
        let Some((plan, rng)) = &mut self.plan else {
            self.mailboxes.deliver(dest, msg, None);
            return;
        };
        let dropped = rng.chance(plan.drop);
        let duplicated = rng.chance(plan.duplicate);
        let reorder = rng.chance(plan.reorder);
        if dropped || duplicated {
            let name = if dropped {
                "fault:drop"
            } else {
                "fault:duplicate"
            };
            trace(&mut self.clock, name, src, || {
                vec![
                    ("dest", ArgValue::U64(dest as u64)),
                    ("tag", ArgValue::I64(tag)),
                ]
            });
        }
        if dropped {
            return;
        }
        if duplicated {
            self.mailboxes
                .deliver(dest, msg.clone(), reorder.then_some(&mut *rng));
        }
        self.mailboxes.deliver(dest, msg, reorder.then_some(rng));
    }
}

/// Record one communication-timeline event at [`TraceLevel::Full`],
/// stamped with the run's event counter as `lt`. The argument list is only
/// built when the sink records, so the disabled path allocates nothing.
#[inline]
fn trace(
    clock: &mut u64,
    name: &str,
    rank: usize,
    extra: impl FnOnce() -> Vec<(&'static str, ArgValue)>,
) {
    if telemetry::level() < TraceLevel::Full {
        return;
    }
    let mut args = vec![
        ("rank", ArgValue::U64(rank as u64)),
        ("lt", ArgValue::U64(*clock)),
    ];
    *clock += 1;
    args.extend(extra());
    telemetry::comm_event(name, args);
}

/// Tag space reserved for lowered collectives; user tags must stay below.
const COLLECTIVE_TAG_BASE: i64 = 1 << 40;

/// Deepest chain of nested subroutine calls a rank may run. Sema rejects
/// recursion but not depth. A call costs no native stack (it is a frame on
/// the rank's activation stack), so the bound only keeps a run's memory in
/// proportion to the program; one call deeper fails the rank with
/// [`RuntimeError::Failed`].
pub const MAX_CALL_DEPTH: usize = 128;

// ---- the lowered program ------------------------------------------------------

/// `program` with every name resolved, built once per run and shared
/// read-only by every rank.
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

/// Is `e` the `ANY` wildcard itself? Only a receive's source or tag in
/// that form lowers to "any"; an `ANY` anywhere else fails the rank when
/// it is evaluated.
fn is_any(e: &ast::Expr) -> bool {
    matches!(e.kind, ast::ExprKind::AnyWildcard)
}

/// Does some `recv` or `irecv` of `program` take `ANY` as its source?
///
/// Without one, a run cannot depend on its schedule: `send` never blocks,
/// every receive names its source, a legal plan keeps each (source,
/// communicator) stream in order, collectives take from named ranks in
/// rank order, and `read` and the step limit are per rank. Each rank then
/// executes the same statements on the same values under every legal
/// schedule, so every such run ends as the fault-free run ends.
pub fn has_wildcard_source(program: &Program) -> bool {
    let mut found = false;
    for sub in &program.subs {
        visit_stmts(&sub.body, &mut |s| {
            if let ast::StmtKind::Mpi(MpiStmt::Recv { src, .. }) = &s.kind {
                found |= is_any(src);
            }
        });
    }
    found
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
        (!is_any(e)).then(|| self.expr(e))
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
pub(crate) enum Fill {
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

    /// The whole array as one value, built page by page.
    fn to_vec(&self) -> Result<Vec<f64>, String> {
        let mut out = with_room(self.len)?;
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

/// An empty vector with room for `len` elements, reserved up front and
/// refused with an error rather than aborting.
fn with_room(len: usize) -> Result<Vec<f64>, String> {
    let mut out = Vec::new();
    out.try_reserve_exact(len).map_err(|_| {
        format!("cannot materialise a whole array of {len} elements: allocation refused")
    })?;
    Ok(out)
}

/// A message payload: elements, or the fill of a whole array none of whose
/// elements was written since, which travels as it is whatever its length.
#[derive(Clone)]
pub(crate) enum Payload {
    Elems(Vec<f64>),
    Filled(Fill, usize),
}

impl Default for Payload {
    fn default() -> Self {
        Payload::Elems(Vec::new())
    }
}

impl Payload {
    pub(crate) fn len(&self) -> usize {
        match self {
            Payload::Elems(xs) => xs.len(),
            Payload::Filled(_, len) => *len,
        }
    }

    fn into_elems(self) -> Result<Vec<f64>, String> {
        match self {
            Payload::Elems(xs) => Ok(xs),
            Payload::Filled(fill, len) => {
                let mut out = with_room(len)?;
                fill.extend(&mut out, 0, len);
                Ok(out)
            }
        }
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

/// One entry of a rank's activation stack.
enum Act<'a> {
    /// The statements of a block still to run.
    Block(std::slice::Iter<'a, Stmt>),
    /// A `while` loop, whose condition is tested each time it is on top.
    While {
        cond: &'a Expr,
        body: &'a [Stmt],
        span: Span,
    },
    /// A `for` loop whose body just ran.
    For(ForLoop<'a>),
    /// An open call: leaving it closes the callee's frame.
    Call,
}

struct ForLoop<'a> {
    /// Held across the body: a `var` of the same name in the body binds a
    /// new slot but does not redirect the loop.
    slot: Slot<'a>,
    hi: f64,
    step: f64,
    body: &'a [Stmt],
    span: Span,
}

/// One communication step of an MPI statement. A statement is turned into
/// its steps once, so a rank that blocks on a step resumes there without
/// repeating a tick, a collective tag or a send.
enum Step<'a> {
    /// Send `payload`, or a copy of the accumulator for `None`.
    Post {
        dest: usize,
        tag: i64,
        comm: i64,
        payload: Option<Payload>,
    },
    /// Receive a matching message into the accumulator, or, with `fold`,
    /// combine it elementwise into the accumulator (the name is the
    /// collective's, for a length mismatch).
    Take {
        src: Option<usize>,
        tag: Option<i64>,
        comm: i64,
        fold: Option<(RedOp, &'static str)>,
    },
    /// Store the accumulator at a place.
    Store(&'a Place),
}

struct Process<'a> {
    code: &'a Code,
    config: &'a InterpConfig,
    rank: usize,
    nprocs: usize,
    result: ProcessResult,
    read_counter: u64,
    coll_seq: i64,
    globals: Vec<Slot<'a>>,
    /// One frame per open call, innermost last; `main`'s is the first.
    frames: Vec<Frame<'a>>,
    /// What runs next, innermost last.
    stack: Vec<Act<'a>>,
    /// The steps left of the MPI statement in progress, and its span.
    steps: VecDeque<Step<'a>>,
    at: Span,
    /// The payload a receive delivers or a reduction combines into.
    acc: Payload,
}

impl<'a> Process<'a> {
    fn new(code: &'a Code, config: &'a InterpConfig, rank: usize, nprocs: usize) -> Self {
        Process {
            code,
            config,
            rank,
            nprocs,
            result: ProcessResult::default(),
            read_counter: rank as u64,
            coll_seq: 0,
            globals: Vec::new(),
            frames: Vec::new(),
            stack: Vec::new(),
            steps: VecDeque::new(),
            at: Span::DUMMY,
            acc: Payload::default(),
        }
    }

    /// Bind the globals and open the entry subroutine.
    fn enter(&mut self) -> Result<(), RuntimeError> {
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
        self.globals = code
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
        self.open(vec![None; entry.slots], &entry.body);
        Ok(())
    }

    /// Push a call of `body` with `frame`.
    fn open(&mut self, frame: Frame<'a>, body: &'a [Stmt]) {
        self.frames.push(frame);
        self.stack.push(Act::Call);
        self.stack.push(Act::Block(body.iter()));
    }

    /// Run until the next send or receive, a receive that must wait, or
    /// the end of the entry subroutine.
    fn resume(&mut self, net: &mut Net) -> Result<Yield, RuntimeError> {
        loop {
            if let Some(step) = self.steps.pop_front() {
                match self.communicate(step, net)? {
                    Some(y) => return Ok(y),
                    None => continue,
                }
            }
            // The common case, the next statement of a block, steps the
            // cursor in place.
            if let Some(Act::Block(stmts)) = self.stack.last_mut() {
                if let Some(stmt) = stmts.next() {
                    self.exec(stmt)?;
                    continue;
                }
            }
            let Some(act) = self.stack.pop() else {
                self.capture()?;
                return Ok(Yield::Done);
            };
            match act {
                // An exhausted block.
                Act::Block(_) => {}
                Act::While { cond, body, span } => {
                    self.tick(span)?;
                    if self.truth(cond)? {
                        self.stack.push(Act::While { cond, body, span });
                        self.stack.push(Act::Block(body.iter()));
                    }
                }
                Act::For(lp) => {
                    // Re-read in case the body modified the loop variable.
                    let next = match *lp.slot.borrow() {
                        Storage::Scalar(v) => v + lp.step,
                        _ => return Err(self.err(lp.span, "loop variable became an array")),
                    };
                    self.iterate(lp, next)?;
                }
                Act::Call => {
                    self.frames.pop();
                }
            }
        }
    }

    /// Record every global's final value, when the configuration asks.
    fn capture(&mut self) -> Result<(), RuntimeError> {
        if !self.config.capture_globals {
            return Ok(());
        }
        let mut finals = Vec::with_capacity(self.globals.len());
        for (g, slot) in self.code.globals.iter().zip(&self.globals) {
            let values = match &*slot.borrow() {
                Storage::Scalar(v) => vec![*v],
                Storage::Array(a) => a.to_vec().map_err(|m| self.err(g.span, m))?,
            };
            finals.push((g.name.clone(), values));
        }
        self.result.final_globals = finals;
        Ok(())
    }

    fn err(&self, span: Span, msg: impl Into<String>) -> RuntimeError {
        RuntimeError::Failed {
            rank: self.rank,
            span,
            message: msg.into(),
        }
    }

    fn frame(&self) -> &Frame<'a> {
        self.frames.last().expect("a running rank has an open call")
    }

    /// The slot `var` names: the enclosing subroutine's binding once it
    /// exists, else the same-named global.
    fn slot(&self, var: &Var, span: Span) -> Result<&Slot<'a>, RuntimeError> {
        if let Some(slot) = var.local.and_then(|l| self.frame()[l as usize].as_ref()) {
            return Ok(slot);
        }
        var.global
            .map(|g| &self.globals[g as usize])
            .ok_or_else(|| self.err(span, format!("undefined variable `{}`", var.name)))
    }

    fn tick(&mut self, span: Span) -> Result<(), RuntimeError> {
        self.result.steps += 1;
        if self.result.steps > self.config.limits.max_steps {
            return Err(self.err(span, "statement budget exceeded (possible infinite loop)"));
        }
        Ok(())
    }

    /// A condition's truth.
    fn truth(&self, cond: &Expr) -> Result<bool, RuntimeError> {
        let c = self
            .eval(cond)?
            .as_num(|| self.err(cond.span, "array condition"))?;
        Ok(c != 0.0)
    }

    /// Run one statement: a simple one to completion; a compound one by
    /// pushing what it runs next; an MPI one by queueing its steps.
    fn exec(&mut self, stmt: &'a Stmt) -> Result<(), RuntimeError> {
        self.tick(stmt.span)?;
        match &stmt.kind {
            StmtKind::Local { slot, shape, init } => {
                let fresh = Rc::new(RefCell::new(shape.filled(0.0)));
                if let Some(e) = init {
                    let v = self.eval(e)?;
                    self.store(&fresh, At::Whole, v, stmt.span)?;
                }
                let frame = self
                    .frames
                    .last_mut()
                    .expect("a running rank has an open call");
                frame[*slot as usize] = Some(fresh);
            }
            StmtKind::Assign { lhs, rhs } => {
                let v = self.eval(rhs)?;
                self.assign(lhs, v, stmt.span)?;
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                if self.truth(cond)? {
                    self.stack.push(Act::Block(then_blk.iter()));
                } else if let Some(e) = else_blk {
                    self.stack.push(Act::Block(e.iter()));
                }
            }
            StmtKind::While { cond, body } => self.stack.push(Act::While {
                cond,
                body,
                span: stmt.span,
            }),
            StmtKind::For {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                let lo = self
                    .eval(lo)?
                    .as_num(|| self.err(stmt.span, "array loop bound"))?;
                let hi = self
                    .eval(hi)?
                    .as_num(|| self.err(stmt.span, "array loop bound"))?;
                let step = match step {
                    Some(s) => self.eval(s)?.as_num(|| self.err(stmt.span, "array step"))?,
                    None => 1.0,
                };
                if step == 0.0 {
                    return Err(self.err(stmt.span, "zero loop step"));
                }
                let slot = Rc::clone(self.slot(var, stmt.span)?);
                let lp = ForLoop {
                    slot,
                    hi,
                    step,
                    body,
                    span: stmt.span,
                };
                self.iterate(lp, lo)?;
            }
            StmtKind::Call { name, callee, args } => {
                self.call(name, *callee, args, stmt.span)?;
            }
            StmtKind::Return => {
                while let Some(act) = self.stack.pop() {
                    if let Act::Call = act {
                        self.frames.pop();
                        break;
                    }
                }
            }
            StmtKind::Mpi(m) => self.mpi(m, stmt.span)?,
            StmtKind::Read(place) => {
                let v = self.next_input();
                let slot = self.slot(&place.var, place.span)?;
                match self.locate(place, slot)? {
                    // Whole-variable read: fill arrays elementwise with a
                    // deterministic ramp.
                    At::Whole => match &mut *slot.borrow_mut() {
                        Storage::Scalar(x) => *x = v,
                        Storage::Array(a) => a.fill(Fill::Ramp(v)),
                    },
                    at => self.store(slot, at, Val::Num(v), stmt.span)?,
                }
            }
            StmtKind::Print(e) => match self.eval(e)? {
                Val::Num(x) => self.result.printed.push(x),
                Val::Arr(xs) => self.result.printed.extend(xs),
            },
        }
        Ok(())
    }

    /// Start the iteration of `lp` in which its variable holds `i`, or
    /// leave the loop when `i` is past the bound.
    fn iterate(&mut self, lp: ForLoop<'a>, i: f64) -> Result<(), RuntimeError> {
        if (lp.step > 0.0 && i <= lp.hi) || (lp.step < 0.0 && i >= lp.hi) {
            self.tick(lp.span)?;
            *lp.slot.borrow_mut() = Storage::Scalar(i);
            let body = lp.body.iter();
            self.stack.push(Act::For(lp));
            self.stack.push(Act::Block(body));
        }
        Ok(())
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

    fn call(
        &mut self,
        name: &str,
        callee: Option<u32>,
        args: &'a [Arg],
        span: Span,
    ) -> Result<(), RuntimeError> {
        let code = self.code;
        let callee = callee
            .map(|c| &code.subs[c as usize])
            .ok_or_else(|| self.err(span, format!("call to unknown subroutine `{name}`")))?;
        if callee.params.len() != args.len() {
            return Err(self.err(span, format!("arity mismatch calling `{name}`")));
        }
        // `main`'s frame is the first, at depth 0.
        if self.frames.len() > MAX_CALL_DEPTH {
            return Err(self.err(
                span,
                format!("call depth exceeds {MAX_CALL_DEPTH} at call to `{name}`"),
            ));
        }
        let mut frame = vec![None; callee.slots];
        for ((slot, shape), arg) in callee.params.iter().zip(args) {
            let bound = match arg {
                // Whole variable: alias the caller's storage (by reference).
                Arg::Ref(var, vspan) => Rc::clone(self.slot(var, *vspan)?),
                // Expression or array element: fresh storage (by value).
                Arg::Value(e) => {
                    let storage = match self.eval(e)? {
                        Val::Num(x) => shape.filled(x),
                        Val::Arr(xs) => Storage::Array(Array::from_vec(&shape.dims, &xs)),
                    };
                    Rc::new(RefCell::new(storage))
                }
            };
            frame[*slot as usize] = Some(bound);
        }
        self.open(frame, &callee.body);
        Ok(())
    }

    // ---- MPI -----------------------------------------------------------

    /// Evaluate an MPI statement's operands, draw its collective tags, and
    /// queue its communication steps.
    fn mpi(&mut self, m: &'a Mpi, span: Span) -> Result<(), RuntimeError> {
        self.at = span;
        match m {
            Mpi::Send {
                buf,
                dest,
                tag,
                comm,
            } => {
                let payload = self.payload(buf)?;
                let dest = self.eval_rank(dest)?;
                let tag = self.eval_int(tag)?;
                let comm = self.eval_comm(comm)?;
                self.post(dest, tag, comm, Some(payload));
            }
            Mpi::Recv {
                buf,
                src,
                tag,
                comm,
            } => {
                let src = src.as_ref().map(|e| self.eval_rank(e)).transpose()?;
                let tag = tag.as_ref().map(|e| self.eval_int(e)).transpose()?;
                let comm = self.eval_comm(comm)?;
                self.take(src, tag, comm, None);
                self.steps.push_back(Step::Store(buf));
            }
            Mpi::Bcast { buf, root, comm } => {
                let root = self.eval_rank(root)?;
                let comm = self.eval_comm(comm)?;
                let tag = self.next_coll_tag();
                self.trace_collective("bcast", root);
                if self.rank == root {
                    let payload = self.payload(buf)?;
                    let dests = (0..self.nprocs).filter(|&d| d != root);
                    self.fan_out(dests, tag, comm, payload);
                } else {
                    self.take(Some(root), Some(tag), comm, None);
                    self.steps.push_back(Step::Store(buf));
                }
            }
            Mpi::Reduce {
                op,
                send,
                recv,
                root,
                comm,
            } => {
                let root = self.eval_rank(root)?;
                let comm = self.eval_comm(comm)?;
                let tag = self.next_coll_tag();
                self.trace_collective("reduce", root);
                let mine = self.eval(send)?.into_payload();
                if self.rank == root {
                    self.acc = Payload::Elems(mine);
                    // Combine in rank order for determinism.
                    for src in (0..self.nprocs).filter(|&s| s != root) {
                        self.take(Some(src), Some(tag), comm, Some((*op, "reduce")));
                    }
                    self.steps.push_back(Step::Store(recv));
                } else {
                    self.post(root, tag, comm, Some(Payload::Elems(mine)));
                }
            }
            Mpi::Allreduce {
                op,
                send,
                recv,
                comm,
            } => {
                // Lower to reduce-to-0 + bcast using two collective tags.
                let comm = self.eval_comm(comm)?;
                let tag_r = self.next_coll_tag();
                let tag_b = self.next_coll_tag();
                self.trace_collective("allreduce", 0);
                let mine = self.eval(send)?.into_payload();
                if self.rank == 0 {
                    self.acc = Payload::Elems(mine);
                    for src in 1..self.nprocs {
                        self.take(Some(src), Some(tag_r), comm, Some((*op, "allreduce")));
                    }
                    for dest in 1..self.nprocs {
                        self.post(dest, tag_b, comm, None);
                    }
                } else {
                    self.post(0, tag_r, comm, Some(Payload::Elems(mine)));
                    self.take(Some(0), Some(tag_b), comm, None);
                }
                self.steps.push_back(Step::Store(recv));
            }
            Mpi::Barrier => {
                // All-to-root gather of empty payloads, then root broadcast.
                let tag_r = self.next_coll_tag();
                let tag_b = self.next_coll_tag();
                self.trace_collective("barrier", 0);
                if self.rank == 0 {
                    for src in 1..self.nprocs {
                        self.take(Some(src), Some(tag_r), 0, None);
                    }
                    self.fan_out(1..self.nprocs, tag_b, 0, Payload::default());
                } else {
                    self.post(0, tag_r, 0, Some(Payload::default()));
                    self.take(Some(0), Some(tag_b), 0, None);
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
    /// events). No-op below [`TraceLevel::Full`].
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

    /// Queue a send.
    fn post(&mut self, dest: usize, tag: i64, comm: i64, payload: Option<Payload>) {
        self.steps.push_back(Step::Post {
            dest,
            tag,
            comm,
            payload,
        });
    }

    /// Queue a receive.
    fn take(
        &mut self,
        src: Option<usize>,
        tag: Option<i64>,
        comm: i64,
        fold: Option<(RedOp, &'static str)>,
    ) {
        self.steps.push_back(Step::Take {
            src,
            tag,
            comm,
            fold,
        });
    }

    /// Queue a send of `payload` to each of `dests` in order, cloning it
    /// for all but the last, which takes it by move.
    fn fan_out(
        &mut self,
        dests: impl Iterator<Item = usize>,
        tag: i64,
        comm: i64,
        mut payload: Payload,
    ) {
        let mut dests = dests.peekable();
        while let Some(dest) = dests.next() {
            let copy = match dests.peek() {
                Some(_) => payload.clone(),
                None => std::mem::take(&mut payload),
            };
            self.post(dest, tag, comm, Some(copy));
        }
    }

    /// Carry out one step of the MPI statement in progress. Returns how
    /// the rank yields, or `None` to carry on.
    fn communicate(
        &mut self,
        step: Step<'a>,
        net: &mut Net,
    ) -> Result<Option<Yield>, RuntimeError> {
        match step {
            Step::Post {
                dest,
                tag,
                comm,
                payload,
            } => {
                if dest >= self.nprocs {
                    return Err(self.err(
                        self.at,
                        format!("send to invalid rank {dest} (nprocs={})", self.nprocs),
                    ));
                }
                let payload = payload.unwrap_or_else(|| self.acc.clone());
                self.result.sends += 1;
                net.send(self.rank, dest, tag, comm, payload);
                Ok(Some(Yield::Sent { dest, tag, comm }))
            }
            Step::Take {
                src,
                tag,
                comm,
                fold,
            } => {
                let wait = RankWait {
                    rank: self.rank,
                    src,
                    tag,
                    comm,
                    span: self.at,
                };
                let Some(msg) = net.mailboxes.take(&wait) else {
                    self.steps.push_front(step);
                    return Ok(Some(Yield::Blocked(wait)));
                };
                trace(&mut net.clock, "recv", self.rank, || {
                    vec![
                        ("src", ArgValue::U64(msg.src as u64)),
                        ("tag", ArgValue::I64(msg.tag)),
                        ("comm", ArgValue::I64(msg.comm)),
                        ("len", ArgValue::U64(msg.payload.len() as u64)),
                    ]
                });
                self.result.recvs += 1;
                match fold {
                    None => self.acc = msg.payload,
                    Some((op, what)) => {
                        if msg.payload.len() != self.acc.len() {
                            return Err(
                                self.err(self.at, format!("{what} payload length mismatch"))
                            );
                        }
                        let acc = std::mem::take(&mut self.acc);
                        let (acc, theirs) = match (acc.into_elems(), msg.payload.into_elems()) {
                            (Ok(acc), Ok(theirs)) => (acc, theirs),
                            (Err(m), _) | (_, Err(m)) => return Err(self.err(self.at, m)),
                        };
                        self.acc = Payload::Elems(
                            acc.into_iter()
                                .zip(theirs)
                                .map(|(a, b)| combine(op, a, b))
                                .collect(),
                        );
                    }
                }
                Ok(Some(Yield::Received))
            }
            Step::Store(place) => {
                let payload = std::mem::take(&mut self.acc);
                let slot = self.slot(&place.var, place.span)?;
                let at = self.locate(place, slot)?;
                // A fill arriving for a whole array of its length is adopted
                // as it is.
                if let (Payload::Filled(fill, len), At::Whole) = (&payload, &at) {
                    if let Storage::Array(a) = &mut *slot.borrow_mut() {
                        if a.len == *len {
                            a.fill(*fill);
                            return Ok(None);
                        }
                    }
                }
                let elems = payload.into_elems().map_err(|m| self.err(self.at, m))?;
                self.store(slot, at, Val::from_payload(elems), self.at)?;
                Ok(None)
            }
        }
    }

    /// What sending `place` carries. A whole array none of whose elements
    /// was written travels as its fill; it is refused exactly where
    /// building its elements would be, so such a send fails as it always
    /// did.
    fn payload(&self, place: &Place) -> Result<Payload, RuntimeError> {
        if place.indices.is_empty() {
            let slot = self.slot(&place.var, place.span)?;
            if let Storage::Array(Array {
                len, fill, pages, ..
            }) = &*slot.borrow()
            {
                if pages.is_empty() {
                    with_room(*len).map_err(|m| self.err(place.span, m))?;
                    return Ok(Payload::Filled(*fill, *len));
                }
            }
        }
        Ok(Payload::Elems(self.load(place)?.into_payload()))
    }

    fn eval_rank(&self, e: &Expr) -> Result<usize, RuntimeError> {
        let v = self.eval_int(e)?;
        usize::try_from(v).map_err(|_| self.err(e.span, format!("negative rank {v}")))
    }

    fn eval_int(&self, e: &Expr) -> Result<i64, RuntimeError> {
        let v = self
            .eval(e)?
            .as_num(|| self.err(e.span, "expected scalar"))?;
        Ok(v as i64)
    }

    fn eval_comm(&self, comm: &Option<Expr>) -> Result<i64, RuntimeError> {
        match comm {
            Some(c) => self.eval_int(c),
            None => Ok(0),
        }
    }

    // ---- places ----------------------------------------------------------

    /// Evaluate `place`'s subscripts and flatten them column-major
    /// (Fortran order, 1-based) against the storage in `slot`. A subscript
    /// that fails to evaluate is an error here; one that does not fit the
    /// storage is reported by the caller, after every subscript is
    /// evaluated, so subscripts are read in order without a buffer.
    fn locate(&self, place: &Place, slot: &Slot<'a>) -> Result<At, RuntimeError> {
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
            let i = self.eval_int(e)?;
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
    fn load(&self, place: &Place) -> Result<Val, RuntimeError> {
        let slot = self.slot(&place.var, place.span)?;
        let at = self.locate(place, slot)?;
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
    fn assign(&self, place: &Place, v: Val, span: Span) -> Result<(), RuntimeError> {
        let slot = self.slot(&place.var, place.span)?;
        let at = self.locate(place, slot)?;
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

    fn eval(&self, e: &Expr) -> Result<Val, RuntimeError> {
        match &e.kind {
            ExprKind::Num(v) => Ok(Val::Num(*v)),
            ExprKind::Rank => Ok(Val::Num(self.rank as f64)),
            ExprKind::Nprocs => Ok(Val::Num(self.nprocs as f64)),
            ExprKind::Any => Err(self.err(e.span, "`ANY` has no value")),
            ExprKind::Load(place) => self.load(place),
            ExprKind::Unary(op, inner) => match (op, self.eval(inner)?) {
                (_, Val::Num(x)) => Ok(Val::Num(unary(*op, x))),
                (UnOp::Neg, Val::Arr(xs)) => Ok(Val::Arr(xs.into_iter().map(|x| -x).collect())),
                (UnOp::Not, Val::Arr(_)) => Err(self.err(e.span, "cannot negate array logically")),
            },
            ExprKind::Binary(op, a, b) => {
                let va = self.eval(a)?;
                let vb = self.eval(b)?;
                self.binop(*op, va, vb, e.span)
            }
            ExprKind::Intrinsic(i, args) => {
                // The parser fixes the arity (at most two arguments).
                let mut vals = [0.0; 2];
                for (k, a) in args.iter().enumerate() {
                    let v = self
                        .eval(a)?
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

    /// Run expecting a structured deadlock report.
    fn expect_deadlock(src: &str, nprocs: usize) -> Vec<crate::fault::RankWait> {
        expect_deadlock_under(src, nprocs, None)
    }

    fn expect_deadlock_under(
        src: &str,
        nprocs: usize,
        fault_plan: Option<FaultPlan>,
    ) -> Vec<crate::fault::RankWait> {
        let p = parse(src).unwrap();
        let cfg = InterpConfig {
            nprocs,
            fault_plan,
            ..Default::default()
        };
        match run(&p, &cfg).unwrap_err() {
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
            limits: RuntimeLimits { max_steps: 1000 },
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

    /// Ranks 1–3 each send their rank to rank 0, which receives from `ANY`
    /// and prints the senders in arrival order.
    const THREE_SENDERS: &str = "program t sub main() {\n\
           var y: real; var k: int;\n\
           if (rank() > 0) { y = rank() * 1.0; send(y, 0, 5); }\n\
           else { for k = 1, 3 { recv(y, ANY, 5); print(y); } }\n\
         }";

    #[test]
    fn a_seed_replays_its_schedule() {
        let p = parse(THREE_SENDERS).unwrap();
        let mut orders = std::collections::BTreeSet::new();
        for seed in 0..20 {
            for plan in [FaultPlan::adversarial(seed), FaultPlan::chaotic(seed)] {
                let cfg = InterpConfig {
                    nprocs: 4,
                    fault_plan: Some(plan.clone()),
                    ..Default::default()
                };
                let runs = [run(&p, &cfg), run(&p, &cfg)].map(|r| format!("{r:?}"));
                assert_eq!(runs[0], runs[1], "{plan:?} must replay");
                if plan.is_legal() {
                    let order = run(&p, &cfg).unwrap()[0].printed.clone();
                    orders.insert(order.iter().map(|&x| x as u8).collect::<Vec<_>>());
                }
            }
        }
        assert!(
            orders.len() >= 2,
            "adversarial schedules never changed the arrival order: {orders:?}"
        );
        // Without a plan the scheduler is round-robin: senders arrive in
        // rank order.
        assert_eq!(run_src(THREE_SENDERS, 4)[0].printed, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn only_an_any_source_receive_is_a_wildcard_source() {
        let has = |body: &str| {
            let src = format!(
                "program t global y: real;\n\
                 sub f() {{ {body} }}\n\
                 sub main() {{ call f(); }}"
            );
            has_wildcard_source(&parse(&src).unwrap())
        };
        assert!(has_wildcard_source(&parse(THREE_SENDERS).unwrap()));
        assert!(has(
            "if (rank() == 0) { while (y < 1.0) { irecv(y, ANY, 1); } }"
        ));
        assert!(has("recv(y, ANY, ANY, 2);"));
        assert!(!has("recv(y, 0, ANY);"));
        assert!(!has("recv(y, 1 - rank(), 5); send(y, 1 - rank(), 5);"));
        assert!(!has("bcast(y, 0); allreduce(MAX, y, y); barrier();"));
    }

    #[test]
    fn a_dropped_message_is_a_deadlock_while_the_sender_computes() {
        // Rank 0's only send is dropped and it then keeps computing; rank 1
        // waits for it. Once rank 0 is done no rank can step.
        let src = "program t sub main() {\n\
               var x: real; var i: int; x = 1.0;\n\
               if (rank() == 0) { send(x, 1, 5); for i = 1, 20000 { x = x + 1.0; } }\n\
               else { recv(x, 0, 5); }\n\
             }";
        let plan = FaultPlan {
            drop: 1.0,
            ..FaultPlan::chaotic(1)
        };
        let waiting = expect_deadlock_under(src, 2, Some(plan));
        assert_eq!(waiting.len(), 1);
        assert_eq!((waiting[0].rank, waiting[0].src), (1, Some(0)));
    }

    #[test]
    fn a_peer_that_finishes_without_sending_strands_its_receiver() {
        let waiting = expect_deadlock(
            "program t sub main() { var x: real; if (rank() == 0) { recv(x, 1, 9); } }",
            2,
        );
        assert_eq!(waiting.len(), 1);
        assert_eq!((waiting[0].rank, waiting[0].src), (0, Some(1)));
    }

    #[test]
    fn a_queued_match_is_not_a_deadlock() {
        // Rank 1 sends and then waits; rank 0 finds the message already
        // queued, so no schedule may report a deadlock.
        let src = "program t sub main() {\n\
               var x: real; x = 9.0;\n\
               if (rank() == 1) { send(x, 0, 3); recv(x, 0, 4); print(x); }\n\
               else { recv(x, 1, 3); x = x + 1.0; send(x, 1, 4); }\n\
             }";
        let p = parse(src).unwrap();
        for seed in 0..20 {
            let cfg = InterpConfig {
                nprocs: 2,
                fault_plan: Some(FaultPlan::adversarial(seed)),
                ..Default::default()
            };
            assert_eq!(run(&p, &cfg).unwrap()[1].printed, vec![10.0], "seed {seed}");
        }
    }

    #[test]
    fn a_late_send_is_received() {
        // The receiver blocks first and waits however long the sender
        // computes.
        let r = run_src(
            "program t sub main() {\n\
               var x: real; var i: int; x = 0.0;\n\
               if (rank() == 0) { for i = 1, 20000 { x = x + 1.0; } send(x, 1, 11); }\n\
               else { recv(x, 0, 11); print(x); }\n\
             }",
            2,
        );
        assert_eq!(r[1].printed, vec![20000.0]);
    }

    #[test]
    fn duplicated_messages_arrive_twice() {
        let src = "program t sub main() {\n\
               var x: real; x = 4.0;\n\
               if (rank() == 1) { send(x, 0, 5); } else { recv(x, 1, 5); recv(x, 1, 5); print(x); }\n\
             }";
        let cfg = InterpConfig {
            nprocs: 2,
            fault_plan: Some(FaultPlan {
                duplicate: 1.0,
                drop: 0.0,
                ..FaultPlan::chaotic(1)
            }),
            ..Default::default()
        };
        let r = run(&parse(src).unwrap(), &cfg).unwrap();
        assert_eq!((r[0].recvs, r[0].printed.clone()), (2, vec![4.0]));
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
    fn an_untouched_array_travels_as_its_fill() {
        // Rank 1 adopts rank 0's `read` ramp without either side building
        // the array; a send that could not be built still fails as before.
        let src = "program t global a: real[300000]; global b: real[100000000000];\n\
             sub main() { if (rank() == 0) { read(a); } bcast(a, 0); print(a[299999]);\n\
               if (nprocs() > 2) { bcast(b, 0); } }";
        let p = parse(src).unwrap();
        let out = run(&p, &two_ranks()).unwrap();
        assert_eq!(out[0].printed, out[1].printed);
        let cfg = InterpConfig {
            nprocs: 3,
            ..Default::default()
        };
        let e = run(&p, &cfg).unwrap_err();
        assert_eq!(e.rank(), 0);
        assert!(e.to_string().contains("100000000000 elements"), "{e}");
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
