//! Interprocedural reaching constants over the ICFG and MPI-ICFG.
//!
//! The canonical nonseparable data-flow analysis from Section 3 of the paper.
//! Each location is paired with a value from the constant lattice
//! (⊤ / Const c / ⊥). Over the MPI-ICFG, the communication transfer function
//! propagates the *lattice value of the sent variable* over each
//! communication edge, and the receive transfer meets those values into the
//! received variable — so a constant sent by one branch of an SPMD program
//! reaches the receiving branch, which no CFG-only analysis can see.
//!
//! SPMD subtlety: `rank()` evaluates differently on every process, so it is
//! ⊥, never a constant; `nprocs()` is uniform but statically unknown, also ⊥.
//!
//! A constant is a [`Value`], the `f64` a run holds, folded with the run's
//! own arithmetic ([`mpi_dfa_lang::arith::fold`]), so a location claimed
//! constant holds that value on every rank of every run.
//!
//! Encoding: a fact holds one `u32` [`ConstCell`] per location (0 = ⊤,
//! 1 = ⊥, k ≥ 2 = the k-th constant of the solve's [`ConstPool`]). The pool
//! gives equal constants one cell, except that `0.0` and `-0.0` keep a cell
//! each, so the meet is integer compares and fact equality a slice compare
//! (with a second look at the two zeros when the slices differ). Readers
//! decode cells through the pool: a [`ConstSolution`] carries it, and so
//! does a [`ConstsQuery`].

use crate::interproc::BindMaps;
use mpi_dfa_core::graph::{Edge, EdgeKind, FlowGraph, NodeId};
use mpi_dfa_core::lattice::{ConstLattice, MeetSemiLattice};
use mpi_dfa_core::problem::{Dataflow, Direction};
use mpi_dfa_core::solver::{ConvergenceStats, Solution, SolveParams, Solver};
use mpi_dfa_graph::icfg::{ActualBinding, Icfg, ProgramIr};
use mpi_dfa_graph::loc::{Loc, ProcId};
use mpi_dfa_graph::mpi::{ConstQuery, MpiIcfg};
use mpi_dfa_graph::node::{ExprInfo, MpiKind, NodeKind, RefInfo};
pub use mpi_dfa_lang::arith::Value;
use mpi_dfa_lang::arith::{self, fold};
use mpi_dfa_lang::ast::{Expr, RedOp};
use std::cell::{Ref, RefCell};
use std::collections::HashMap;
use std::sync::Arc;

/// The pool key of a constant: its bits, with every NaN as one NaN. Equal
/// [`Value`]s share a key, except `0.0` and `-0.0`, which print differently.
fn key(v: Value) -> u64 {
    if v.0.is_nan() {
        f64::NAN.to_bits()
    } else {
        v.0.to_bits()
    }
}

/// One location's value in a [`ConstEnv`]: ⊤, ⊥, or the index of a
/// constant in the solve's [`ConstPool`]. `==` compares cells, so the two
/// zeros (equal constants, see [`ConstPool`]) are unequal cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstCell(u32);

impl ConstCell {
    pub const TOP: ConstCell = ConstCell(0);
    pub const BOTTOM: ConstCell = ConstCell(1);
}

/// Every pool interns `0.0` as cell 2 and `-0.0` as cell 3.
#[inline]
fn is_zero(cell: u32) -> bool {
    cell >> 1 == 1
}

/// Whether two cells of one pool hold equal constants (or are both ⊤ or
/// both ⊥): the same cell, or the two zeros.
#[inline]
fn same_cells(a: u32, b: u32) -> bool {
    a == b || (is_zero(a) && is_zero(b))
}

/// `a ⊓ b` on cells of one pool. Equal constants share a cell (but for
/// the two zeros, which keep `a`), so other constant cells meet to ⊥.
#[inline]
fn meet_cells(a: u32, b: u32) -> u32 {
    if b == 0 || a == 1 || same_cells(a, b) {
        a
    } else if a == 0 {
        b
    } else {
        1
    }
}

/// The constant lattice on cells (and the communication fact: the value
/// of the sent data).
impl MeetSemiLattice for ConstCell {
    fn top() -> Self {
        ConstCell::TOP
    }

    fn meet_with(&mut self, other: &Self) -> bool {
        let before = self.0;
        self.0 = meet_cells(before, other.0);
        self.0 != before
    }
}

/// The constants of one solve, each interned once: cell `k ≥ 2` stands
/// for the k-th. Constants share a cell when they are equal as [`Value`]s
/// (all NaNs share one), except `0.0` and `-0.0`: cells 2 and 3, which the
/// meet and fact compare treat as one constant, so each location keeps the
/// sign of the zero that reached it first.
#[derive(Debug, Clone)]
pub struct ConstPool {
    /// Indexed by cell: ⊤, ⊥, then the constants in interning order.
    values: Vec<ConstLattice<Value>>,
    cells: HashMap<u64, ConstCell>,
}

impl Default for ConstPool {
    fn default() -> Self {
        let mut pool = ConstPool {
            values: vec![ConstLattice::Top, ConstLattice::Bottom],
            cells: HashMap::new(),
        };
        pool.intern(ConstLattice::Const(Value(0.0)));
        pool.intern(ConstLattice::Const(Value(-0.0)));
        pool
    }
}

impl ConstPool {
    /// The value `cell` stands for.
    pub fn value(&self, cell: ConstCell) -> &ConstLattice<Value> {
        &self.values[cell.0 as usize]
    }

    /// The cell of `v`, interning a constant not seen before.
    fn intern(&mut self, v: ConstLattice<Value>) -> ConstCell {
        match v {
            ConstLattice::Top => ConstCell::TOP,
            ConstLattice::Bottom => ConstCell::BOTTOM,
            ConstLattice::Const(c) => {
                let values = &mut self.values;
                *self.cells.entry(key(c)).or_insert_with(|| {
                    values.push(v);
                    let k = u32::try_from(values.len() - 1);
                    ConstCell(k.expect("a solve interns fewer than 2^32 constants"))
                })
            }
        }
    }
}

/// Per-location constant lattice values, one [`ConstCell`] each: the fact
/// type.
///
/// Indexed densely by [`Loc`]. An array location's value models "every
/// element holds this constant" (whole-array assignment of a scalar); any
/// element write meets the element's value into the array's value.
#[derive(Debug)]
pub struct ConstEnv(Vec<ConstCell>);

/// Equal when every location holds an equal value: a slice compare, and a
/// second pass (reading the two zeros as one constant) only when it fails.
impl PartialEq for ConstEnv {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
            || (self.0.len() == other.0.len()
                && self
                    .0
                    .iter()
                    .zip(&other.0)
                    .all(|(a, b)| same_cells(a.0, b.0)))
    }
}

impl Clone for ConstEnv {
    fn clone(&self) -> Self {
        ConstEnv(self.0.clone())
    }

    /// Reuses the existing buffer (a derived `Clone` would reallocate).
    fn clone_from(&mut self, source: &Self) {
        self.0.clone_from(&source.0);
    }
}

impl ConstEnv {
    pub fn top(universe: usize) -> Self {
        ConstEnv(vec![ConstCell::TOP; universe])
    }

    pub fn bottom(universe: usize) -> Self {
        ConstEnv(vec![ConstCell::BOTTOM; universe])
    }

    pub fn get(&self, loc: Loc) -> ConstCell {
        self.0[loc.index()]
    }

    pub fn set(&mut self, loc: Loc, cell: ConstCell) {
        self.0[loc.index()] = cell;
    }

    /// Weak update: meet `cell` into the existing value.
    pub fn weaken(&mut self, loc: Loc, cell: ConstCell) {
        self.0[loc.index()].meet_with(&cell);
    }

    fn meet_env(&mut self, other: &ConstEnv) -> bool {
        let mut changed = false;
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            let next = meet_cells(a.0, b.0);
            changed |= next != a.0;
            a.0 = next;
        }
        changed
    }
}

/// Evaluate a lowered expression under `env`, reading its operands by
/// position; no name is looked up.
fn eval_expr(e: &ExprInfo, env: &ConstEnv, pool: &ConstPool) -> ConstLattice<Value> {
    let mut operands = e.operands.iter();
    fold(&e.expr, &mut |_| match operands.next() {
        Some(&loc) => *pool.value(env.get(loc)),
        // Lowering records one operand per leaf; ⊥ keeps a mismatch sound.
        None => ConstLattice::Bottom,
    })
}

/// The reaching-constants problem. Borrow the ICFG (for payloads/bindings)
/// and solve over either the ICFG itself or its MPI-ICFG. The problem owns
/// the pool its facts' cells index; read it with [`ReachingConsts::pool`].
pub struct ReachingConsts<'g> {
    icfg: &'g Icfg,
    maps: BindMaps,
    universe: usize,
    pool: RefCell<ConstPool>,
}

impl<'g> ReachingConsts<'g> {
    pub fn new(icfg: &'g Icfg) -> Self {
        ReachingConsts {
            icfg,
            maps: BindMaps::build(icfg),
            universe: icfg.ir.locs.len(),
            pool: RefCell::default(),
        }
    }

    /// The pool decoding this problem's cells.
    pub fn pool(&self) -> Ref<'_, ConstPool> {
        self.pool.borrow()
    }

    /// The cell of `e`'s value under `env`.
    fn eval(&self, e: &ExprInfo, env: &ConstEnv) -> ConstCell {
        let mut pool = self.pool.borrow_mut();
        let v = eval_expr(e, env, &pool);
        pool.intern(v)
    }

    fn assign(&self, env: &mut ConstEnv, lhs: &RefInfo, v: ConstCell) {
        if lhs.is_strong_def() {
            env.set(lhs.loc, v);
        } else {
            env.weaken(lhs.loc, v);
        }
    }
}

impl Dataflow for ReachingConsts<'_> {
    type Fact = ConstEnv;
    type CommFact = ConstCell;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn top(&self) -> ConstEnv {
        ConstEnv::top(self.universe)
    }

    fn boundary(&self) -> ConstEnv {
        // Nothing is known at the context entry.
        ConstEnv::bottom(self.universe)
    }

    fn meet_into(&self, dst: &mut ConstEnv, src: &ConstEnv) -> bool {
        dst.meet_env(src)
    }

    fn transfer(&self, node: NodeId, input: &ConstEnv, comm: &Self::CommFact, out: &mut ConstEnv) {
        match &self.icfg.payload(node).kind {
            NodeKind::Assign { lhs, rhs } => {
                let v = self.eval(rhs, input);
                self.assign(out, lhs, v);
            }
            NodeKind::Read { target } => {
                self.assign(out, target, ConstCell::BOTTOM);
            }
            NodeKind::Mpi(m) if m.kind.receives_data() => {
                // A malformed receive with no recorded buffer updates
                // nothing (reported elsewhere; never panic here).
                if let Some(buf) = m.buf.as_ref() {
                    // `comm` is the meet of the values arriving over all
                    // communication edges (the paper's ⊓ over commpred(n));
                    // with no incoming edges it is ⊤ (unreachable receive).
                    let v = *comm;
                    match m.kind {
                        MpiKind::Recv | MpiKind::Irecv => self.assign(out, buf, v),
                        // The root of a bcast/reduce keeps its local value,
                        // so the received value can only be met in weakly.
                        MpiKind::Bcast => out.weaken(buf.loc, v),
                        MpiKind::Reduce | MpiKind::Allreduce => {
                            // The reduction result is the operator applied
                            // across processes: only idempotent operators
                            // (MAX/MIN) preserve a shared constant.
                            let r = match m.op {
                                Some(RedOp::Max | RedOp::Min) => v,
                                _ => ConstCell::BOTTOM,
                            };
                            if m.kind == MpiKind::Allreduce {
                                self.assign(out, buf, r);
                            } else {
                                out.weaken(buf.loc, r);
                            }
                        }
                        _ => {}
                    }
                }
            }
            // Entry/Exit/Branch/Print/Nop/CallSite/AfterCall: identity.
            _ => {}
        }
    }

    fn comm_transfer(&self, node: NodeId, input: &ConstEnv) -> Self::CommFact {
        // commOUT(n) = f_comm(IN(n)): the lattice value of the sent data.
        match &self.icfg.payload(node).kind {
            NodeKind::Mpi(m) if m.kind.sends_data() => match m.kind {
                // Malformed nodes with a missing operand send ⊥ — the
                // conservative value that never enables edge pruning.
                MpiKind::Reduce | MpiKind::Allreduce => match m.value.as_ref() {
                    Some(value) => self.eval(value, input),
                    None => ConstCell::BOTTOM,
                },
                _ => match m.buf.as_ref() {
                    Some(buf) => input.get(buf.loc),
                    None => ConstCell::BOTTOM,
                },
            },
            // Receive-only nodes can be comm-edge *sources* in backward
            // problems, never here; other nodes have no comm edges.
            _ => ConstCell::TOP,
        }
    }

    fn translate_into(&self, edge: &Edge, fact: &ConstEnv, out: &mut ConstEnv) {
        match edge.kind {
            EdgeKind::Call { site } => {
                let cs = self.icfg.call_site(site);
                let args = self.icfg.call_args(site);
                // Fresh locals of the callee hold no known constant.
                for &l in self.maps.locals_of(cs.callee) {
                    out.set(l, ConstCell::BOTTOM);
                }
                for b in &cs.bindings {
                    let v = match b.actual {
                        ActualBinding::RefWhole(a) | ActualBinding::RefElement(a) => fact.get(a),
                        ActualBinding::Value => self.eval(&args.args[b.arg_idx].value, fact),
                    };
                    out.set(b.formal, v);
                }
            }
            EdgeKind::Return { site } => {
                let cs = self.icfg.call_site(site);
                for b in &cs.bindings {
                    match b.actual {
                        ActualBinding::RefWhole(a) => out.set(a, fact.get(b.formal)),
                        ActualBinding::RefElement(a) => out.weaken(a, fact.get(b.formal)),
                        ActualBinding::Value => {}
                    }
                }
                // Callee frame is dead past the return.
                for &l in self.maps.frame_of(cs.callee) {
                    out.set(l, ConstCell::TOP);
                }
            }
            EdgeKind::Flow => {}
        }
    }
}

/// A reaching-constants fixpoint: each node's packed facts, the solve's
/// counters, and the pool that decodes the facts' cells. The facts are
/// read through [`ConstSolution::before`] and [`ConstSolution::after`].
#[derive(Debug, Clone)]
pub struct ConstSolution {
    /// The environment flowing into each node's transfer (its IN set).
    input: Vec<ConstEnv>,
    /// The environment each node's transfer produces (its OUT set).
    output: Vec<ConstEnv>,
    pool: ConstPool,
    pub stats: ConvergenceStats,
}

impl ConstSolution {
    fn solve<G: FlowGraph>(icfg: &Icfg, graph: &G) -> ConstSolution {
        let problem = ReachingConsts::new(icfg);
        let sol = Solver::new(&problem, graph).run();
        ConstSolution {
            input: sol.input,
            output: sol.output,
            stats: sol.stats,
            pool: problem.pool.into_inner(),
        }
    }

    /// The values holding before node `n`.
    pub fn before(&self, n: NodeId) -> ConstView<'_> {
        ConstView {
            env: &self.input[n.index()],
            pool: &self.pool,
        }
    }

    /// The values holding after node `n`.
    pub fn after(&self, n: NodeId) -> ConstView<'_> {
        ConstView {
            env: &self.output[n.index()],
            pool: &self.pool,
        }
    }
}

/// One program point of a [`ConstSolution`], decoded on read.
#[derive(Debug, Clone, Copy)]
pub struct ConstView<'a> {
    env: &'a ConstEnv,
    pool: &'a ConstPool,
}

impl<'a> ConstView<'a> {
    /// The constant lattice value of `loc`.
    pub fn get(&self, loc: Loc) -> &'a ConstLattice<Value> {
        self.pool.value(self.env.get(loc))
    }
}

/// Solve reaching constants over the plain ICFG.
pub fn analyze_icfg(icfg: &Icfg) -> ConstSolution {
    ConstSolution::solve(icfg, icfg)
}

/// Solve reaching constants over the MPI-ICFG (communication edges active).
pub fn analyze_mpi(mpi: &MpiIcfg) -> ConstSolution {
    ConstSolution::solve(mpi.icfg(), mpi)
}

/// A self-contained constant query for MPI-edge matching: snapshots the
/// per-node input environments and their pool so it can outlive the ICFG
/// it was computed from (the ICFG is consumed by `MpiIcfg::build`).
pub struct ConstsQuery {
    ir: Arc<ProgramIr>,
    node_proc: Vec<ProcId>,
    env_at: Vec<ConstEnv>,
    pool: ConstPool,
    /// Round-robin passes the underlying solve took (reported in stats).
    pub passes: usize,
}

impl ConstsQuery {
    /// Run reaching constants over `icfg` (no communication edges — this is
    /// the bootstrap analysis the paper uses for matching) and snapshot.
    pub fn compute(icfg: &Icfg) -> ConstsQuery {
        let problem = ReachingConsts::new(icfg);
        let sol = Solver::new(&problem, icfg).run();
        Self::snapshot(icfg, sol, problem.pool.into_inner())
    }

    /// Budget-aware [`ConstsQuery::compute`]. A non-fixpoint constant
    /// snapshot could *unsoundly* prune communication edges (a location may
    /// still look constant before the meet that would have lowered it to
    /// ⊥), so if the solve does not converge within `params` the query is
    /// refused and the caller must fall back to a cheaper matching.
    pub fn compute_with(
        icfg: &Icfg,
        params: &SolveParams,
    ) -> Result<ConstsQuery, mpi_dfa_core::budget::Exhaustion> {
        let problem = ReachingConsts::new(icfg);
        let sol = {
            let mut span = mpi_dfa_core::telemetry::span("analysis", "consts:bootstrap");
            let sol = Solver::new(&problem, icfg).params(params.clone()).run();
            span.arg("converged", sol.stats.converged);
            sol
        };
        sol.stats.publish_metrics("consts");
        if !sol.stats.converged {
            return Err(sol
                .stats
                .exhausted
                .unwrap_or(mpi_dfa_core::budget::Exhaustion::WorkUnits));
        }
        Ok(Self::snapshot(icfg, sol, problem.pool.into_inner()))
    }

    fn snapshot(icfg: &Icfg, sol: Solution<ConstEnv>, pool: ConstPool) -> ConstsQuery {
        ConstsQuery {
            ir: icfg.ir.clone(),
            node_proc: icfg.nodes().map(|n| icfg.proc_of(n)).collect(),
            passes: sol.stats.passes,
            env_at: sol.input,
            pool,
        }
    }
}

impl ConstQuery for ConstsQuery {
    fn eval_int(&self, node: NodeId, expr: &Expr) -> Option<i64> {
        let proc = self.node_proc[node.index()];
        let env = &self.env_at[node.index()];
        // Match arguments are kept as bare ASTs, so their names are
        // resolved here.
        let v = fold(expr, &mut |lv| match self.ir.locs.resolve(proc, &lv.name) {
            Some(loc) => *self.pool.value(env.get(loc)),
            None => ConstLattice::Bottom,
        });
        match v {
            ConstLattice::Const(c) => Some(arith::to_int(c.0)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_dfa_graph::icfg::Icfg;
    use mpi_dfa_graph::mpi::SyntacticConsts;

    fn icfg(src: &str, context: &str) -> Icfg {
        let ir = ProgramIr::from_source(src).expect("compile");
        Icfg::build(ir, context, 0).expect("icfg")
    }

    /// Constant value of `name` at the context exit.
    fn const_at_exit(src: &str, name: &str) -> ConstLattice<Value> {
        let g = icfg(src, "main");
        let mpi = MpiIcfg::build(g, &SyntacticConsts);
        let sol = analyze_mpi(&mpi);
        let loc = mpi.resolve_at(mpi.context_exit(), name).expect("name");
        *sol.before(mpi.context_exit()).get(loc)
    }

    #[test]
    fn straight_line_constants() {
        let v = const_at_exit(
            "program p global x: real; sub main() { x = 2.0; x = x * 3.0; }",
            "x",
        );
        assert_eq!(v, ConstLattice::Const(Value(6.0)));
    }

    #[test]
    fn branch_merge_conflicts() {
        let v = const_at_exit(
            "program p global x: real;\n\
             sub main() { if (rank() == 0) { x = 1.0; } else { x = 2.0; } }",
            "x",
        );
        assert!(v.is_bottom());
        let same = const_at_exit(
            "program p global x: real;\n\
             sub main() { if (rank() == 0) { x = 5.0; } else { x = 5.0; } }",
            "x",
        );
        assert_eq!(same, ConstLattice::Const(Value(5.0)));
    }

    #[test]
    fn nan_constant_reaches_a_fixpoint() {
        // inf - inf: a NaN constant must equal itself, or the node holding
        // it changes on every pass and the solve never converges.
        let src = "program p global x: real; global y: real;\n\
                   sub main() { x = 1e308 * 10.0 - 1e308 * 10.0; y = x + 1.0; print(y); }";
        let mpi = MpiIcfg::build(icfg(src, "main"), &SyntacticConsts);
        let sol = analyze_mpi(&mpi);
        assert!(sol.stats.converged, "{:?}", sol.stats.passes);
        let exit = mpi.context_exit();
        let x = mpi.resolve_at(exit, "x").expect("x");
        match sol.before(exit).get(x) {
            ConstLattice::Const(Value(v)) => assert!(v.is_nan(), "{v}"),
            other => panic!("x should be the NaN constant, got {other:?}"),
        }
    }

    #[test]
    fn a_quotient_folds_as_a_run_divides() {
        // A run divides in f64 and by zero to 0: `7 / 2 * 2` is 7, not 6.
        let v = |rhs: &str| {
            const_at_exit(
                &format!("program p global k: int; sub main() {{ k = {rhs}; }}"),
                "k",
            )
        };
        assert_eq!(v("8 / 2 * 2"), ConstLattice::Const(Value(8.0)));
        assert_eq!(v("7 / 2 * 2"), ConstLattice::Const(Value(7.0)));
        assert_eq!(v("7 / 0"), ConstLattice::Const(Value(0.0)));
    }

    #[test]
    fn rank_is_never_constant() {
        let v = const_at_exit("program p global k: int; sub main() { k = rank(); }", "k");
        assert!(v.is_bottom());
        let n = const_at_exit("program p global k: int; sub main() { k = nprocs(); }", "k");
        assert!(n.is_bottom());
    }

    #[test]
    fn read_kills_constants() {
        let v = const_at_exit(
            "program p global x: real; sub main() { x = 1.0; read(x); }",
            "x",
        );
        assert!(v.is_bottom());
    }

    #[test]
    fn array_whole_assign_is_strong_element_weak() {
        let whole = const_at_exit("program p global a: real[4]; sub main() { a = 3.0; }", "a");
        assert_eq!(whole, ConstLattice::Const(Value(3.0)));
        let elem = const_at_exit(
            "program p global a: real[4]; global i: int;\n\
             sub main() { a = 3.0; a[i] = 3.0; }",
            "a",
        );
        assert_eq!(elem, ConstLattice::Const(Value(3.0)), "same value stays");
        let clobber = const_at_exit(
            "program p global a: real[4]; global i: int;\n\
             sub main() { a = 3.0; a[i] = 4.0; }",
            "a",
        );
        assert!(clobber.is_bottom(), "weak update meets 3 and 4");
    }

    #[test]
    fn figure1_constant_flows_over_comm_edge() {
        // The paper's Figure 1 program. send(x) where x = 0 + 1 = 1; the
        // comm edge gives y the constant 1 at the receive.
        let src = "program fig1\n\
            global x: real; global z: real; global b: real; global y: real;\n\
            global f: real;\n\
            sub main() {\n\
              x = 0.0; z = 2.0; b = 7.0;\n\
              if (rank() == 0) {\n\
                x = x + 1.0; b = x * 3.0; send(x, 1, 9);\n\
              } else {\n\
                recv(y, 0, 9); z = b * y;\n\
              }\n\
              reduce(SUM, z, f, 0);\n\
            }";
        let g = icfg(src, "main");
        let mpi = MpiIcfg::build(g, &SyntacticConsts);
        assert_eq!(mpi.comm_edges.len() - /* reduce self-edge */ 1, 1);
        let sol = analyze_mpi(&mpi);
        // Find the recv node and check y's OUT value.
        let recv = mpi
            .mpi_nodes()
            .iter()
            .copied()
            .find(|&n| matches!(&mpi.payload(n).kind, NodeKind::Mpi(m) if m.kind == MpiKind::Recv))
            .unwrap();
        let y = mpi.resolve_at(recv, "y").unwrap();
        assert_eq!(
            sol.after(recv).get(y),
            &ConstLattice::Const(Value(1.0)),
            "y receives the constant 1 over the communication edge"
        );
        // z = b * y = 7 * 1 = 7 after the else branch, but the merge with
        // the then branch (z = 2) makes z non-constant at exit.
        let z = mpi.resolve_at(mpi.context_exit(), "z").unwrap();
        assert!(sol.before(mpi.context_exit()).get(z).is_bottom());
    }

    #[test]
    fn without_comm_edges_receive_is_unknown() {
        let src = "program p global x: real; global y: real;\n\
             sub main() { x = 4.0; if (rank() == 0) { send(x, 1, 9); } else { recv(y, 0, 9); } }";
        let g = icfg(src, "main");
        let sol_plain = analyze_icfg(&g);
        let y = g.resolve_at(g.context_exit(), "y").unwrap();
        // Plain ICFG: the receive node has no comm preds; the meet over the
        // empty set is ⊤ on the recv path, merged with ⊤ from the other
        // branch (y untouched at entry = ⊥ boundary)... boundary makes y ⊥.
        assert!(sol_plain.before(g.context_exit()).get(y).is_bottom());

        let mpi = MpiIcfg::build(icfg(src, "main"), &SyntacticConsts);
        let sol = analyze_mpi(&mpi);
        let y = mpi.resolve_at(mpi.context_exit(), "y").unwrap();
        // With the comm edge, the else-branch OUT has y = 4; the merge with
        // the then-branch (y = ⊥ from entry) is ⊥ at exit — but at the recv
        // node itself y is the constant.
        let recv = mpi
            .mpi_nodes()
            .iter()
            .copied()
            .find(|&n| matches!(&mpi.payload(n).kind, NodeKind::Mpi(m) if m.kind == MpiKind::Recv))
            .unwrap();
        assert_eq!(sol.after(recv).get(y), &ConstLattice::Const(Value(4.0)));
    }

    #[test]
    fn conflicting_sends_meet_to_bottom() {
        let src = "program p global x: real; global w: real; global y: real;\n\
             sub main() {\n\
               x = 1.0; w = 2.0;\n\
               if (rank() == 0) { send(x, 2, 5); }\n\
               if (rank() == 1) { send(w, 2, 5); }\n\
               if (rank() == 2) { recv(y, ANY, 5); }\n\
             }";
        let mpi = MpiIcfg::build(icfg(src, "main"), &SyntacticConsts);
        assert_eq!(mpi.comm_edges.len(), 2);
        let sol = analyze_mpi(&mpi);
        let recv = mpi
            .mpi_nodes()
            .iter()
            .copied()
            .find(|&n| matches!(&mpi.payload(n).kind, NodeKind::Mpi(m) if m.kind == MpiKind::Recv))
            .unwrap();
        let y = mpi.resolve_at(recv, "y").unwrap();
        assert!(sol.after(recv).get(y).is_bottom(), "1 ⊓ 2 = ⊥");
    }

    #[test]
    fn agreeing_sends_stay_constant() {
        let src = "program p global x: real; global y: real;\n\
             sub main() {\n\
               x = 9.0;\n\
               if (rank() == 0) { send(x, 2, 5); }\n\
               if (rank() == 1) { send(x, 2, 5); }\n\
               if (rank() == 2) { recv(y, ANY, 5); }\n\
             }";
        let mpi = MpiIcfg::build(icfg(src, "main"), &SyntacticConsts);
        let sol = analyze_mpi(&mpi);
        let recv = mpi
            .mpi_nodes()
            .iter()
            .copied()
            .find(|&n| matches!(&mpi.payload(n).kind, NodeKind::Mpi(m) if m.kind == MpiKind::Recv))
            .unwrap();
        let y = mpi.resolve_at(recv, "y").unwrap();
        assert_eq!(sol.after(recv).get(y), &ConstLattice::Const(Value(9.0)));
    }

    #[test]
    fn bcast_propagates_constant_to_receivers() {
        let src = "program p global c: real;\n\
             sub main() { if (rank() == 0) { c = 3.5; } bcast(c, 0); }";
        let mpi = MpiIcfg::build(icfg(src, "main"), &SyntacticConsts);
        let sol = analyze_mpi(&mpi);
        let bcast = mpi.mpi_nodes()[0];
        let c = mpi.resolve_at(bcast, "c").unwrap();
        // At the bcast, IN(c) = 3.5 ⊓ ⊥ (branch not taken) = ⊥, so even the
        // comm edge carries ⊥: correct, non-root processes had c unset.
        assert!(sol.after(bcast).get(c).is_bottom());

        // When every process sets the same constant first, it survives.
        let src2 = "program p global c: real;\n\
             sub main() { c = 3.5; bcast(c, 0); }";
        let mpi2 = MpiIcfg::build(icfg(src2, "main"), &SyntacticConsts);
        let sol2 = analyze_mpi(&mpi2);
        let bcast2 = mpi2.mpi_nodes()[0];
        let c2 = mpi2.resolve_at(bcast2, "c").unwrap();
        assert_eq!(sol2.after(bcast2).get(c2), &ConstLattice::Const(Value(3.5)));
    }

    #[test]
    fn reduce_max_of_shared_constant_survives_sum_does_not() {
        let max = "program p global s: real; global r: real;\n\
             sub main() { s = 2.0; reduce(MAX, s, r, 0); }";
        let mpi = MpiIcfg::build(icfg(max, "main"), &SyntacticConsts);
        let sol = analyze_mpi(&mpi);
        let node = mpi.mpi_nodes()[0];
        let r = mpi.resolve_at(node, "r").unwrap();
        // Weak on reduce (root-only write): r was ⊥ from entry; stays ⊥.
        assert!(sol.after(node).get(r).is_bottom());

        let allmax = "program p global s: real; global r: real;\n\
             sub main() { s = 2.0; allreduce(MAX, s, r); }";
        let mpi2 = MpiIcfg::build(icfg(allmax, "main"), &SyntacticConsts);
        let sol2 = analyze_mpi(&mpi2);
        let node2 = mpi2.mpi_nodes()[0];
        let r2 = mpi2.resolve_at(node2, "r").unwrap();
        assert_eq!(
            sol2.after(node2).get(r2),
            &ConstLattice::Const(Value(2.0)),
            "allreduce MAX writes everywhere: strong update with shared constant"
        );

        let allsum = "program p global s: real; global r: real;\n\
             sub main() { s = 2.0; allreduce(SUM, s, r); }";
        let mpi3 = MpiIcfg::build(icfg(allsum, "main"), &SyntacticConsts);
        let sol3 = analyze_mpi(&mpi3);
        let node3 = mpi3.mpi_nodes()[0];
        let r3 = mpi3.resolve_at(node3, "r").unwrap();
        assert!(
            sol3.after(node3).get(r3).is_bottom(),
            "SUM depends on nprocs"
        );
    }

    #[test]
    fn constants_cross_call_boundaries() {
        let src = "program p global g: real;\n\
             sub setit(v: real) { v = 8.0; }\n\
             sub main() { g = 1.0; call setit(g); }";
        let v = {
            let g = icfg(src, "main");
            let sol = analyze_icfg(&g);
            let loc = g.resolve_at(g.context_exit(), "g").unwrap();
            *sol.before(g.context_exit()).get(loc)
        };
        assert_eq!(
            v,
            ConstLattice::Const(Value(8.0)),
            "by-ref write propagates back"
        );
    }

    #[test]
    fn value_args_do_not_write_back() {
        let src = "program p global g: real;\n\
             sub f(v: real) { v = 8.0; }\n\
             sub main() { g = 1.0; call f(g + 0.0); }";
        let g = icfg(src, "main");
        let sol = analyze_icfg(&g);
        let loc = g.resolve_at(g.context_exit(), "g").unwrap();
        assert_eq!(
            sol.before(g.context_exit()).get(loc),
            &ConstLattice::Const(Value(1.0))
        );
    }

    #[test]
    fn callee_sees_actual_constant() {
        let src = "program p global g: real; global out: real;\n\
             sub f(v: real) { out = v * 2.0; }\n\
             sub main() { g = 3.0; call f(g); }";
        let g = icfg(src, "main");
        let sol = analyze_icfg(&g);
        let loc = g.resolve_at(g.context_exit(), "out").unwrap();
        assert_eq!(
            sol.before(g.context_exit()).get(loc),
            &ConstLattice::Const(Value(6.0))
        );
    }

    #[test]
    fn two_call_sites_merge_at_shared_instance() {
        let src = "program p global a: real; global b: real;\n\
             sub f(v: real) { v = v + 1.0; }\n\
             sub main() { a = 1.0; b = 10.0; call f(a); call f(b); }";
        let g = icfg(src, "main");
        let sol = analyze_icfg(&g);
        let exit = g.context_exit();
        let a = g.resolve_at(exit, "a").unwrap();
        // Context-insensitive: f's formal merges 1 and 10 → ⊥ inside f,
        // so a's written-back value is ⊥ (the paper's ICFG imprecision).
        assert!(sol.before(exit).get(a).is_bottom());
    }

    #[test]
    fn consts_query_resolves_computed_tags() {
        let src = "program p global x: real; global y: real; global t: int;\n\
             sub main() { t = 3 + 4; send(x, 1, t); recv(y, 0, 7); recv(y, 0, 8); }";
        let g = icfg(src, "main");
        let q = ConstsQuery::compute(&g);
        assert!(q.passes > 0);
        let mpi = MpiIcfg::build(g, &q);
        // t = 7 matches only the tag-7 recv.
        assert_eq!(mpi.comm_edges.len(), 1);
    }

    #[test]
    fn fold_handles_intrinsics() {
        let e = mpi_dfa_lang::parser::parse(
            "program t sub f() { var q: real; q = max(2.0, 3.0) + abs(-(1)); }",
        )
        .unwrap();
        let mpi_dfa_lang::ast::StmtKind::Assign { rhs, .. } = &e.subs[0].body.stmts[1].kind else {
            unreachable!()
        };
        assert_eq!(
            fold(rhs, &mut |_| ConstLattice::Bottom),
            ConstLattice::Const(Value(4.0))
        );
    }

    fn cells(pool: &mut ConstPool, vals: &[f64]) -> Vec<ConstCell> {
        vals.iter()
            .map(|&c| pool.intern(ConstLattice::Const(Value(c))))
            .collect()
    }

    #[test]
    fn nan_has_one_cell_and_meets_itself_unchanged() {
        let mut pool = ConstPool::default();
        let nan = cells(&mut pool, &[f64::NAN, -f64::NAN]);
        assert_eq!(nan[0], nan[1], "every NaN is one constant");
        let mut c = nan[0];
        assert!(!c.meet_with(&nan[1]), "NaN ⊓ NaN = NaN, unchanged");
        let mut env = ConstEnv::top(1);
        assert!(env.meet_env(&ConstEnv(vec![nan[0]])));
        assert!(!env.meet_env(&ConstEnv(vec![nan[1]])), "so a solve settles");
        assert!(matches!(pool.value(env.get(Loc(0))), ConstLattice::Const(Value(v)) if v.is_nan()));
    }

    #[test]
    fn zero_meets_negative_zero_keeping_its_own_sign() {
        let mut pool = ConstPool::default();
        let z = cells(&mut pool, &[0.0, -0.0]);
        assert_ne!(z[0], z[1], "the zeros print differently, so keep apart");
        for (a, b, printed) in [(z[0], z[1], "0"), (z[1], z[0], "-0")] {
            let mut c = a;
            assert!(!c.meet_with(&b), "{printed} ⊓ its twin stays constant");
            assert_eq!(pool.value(c).to_string(), printed);
            assert_eq!(ConstEnv(vec![a]), ConstEnv(vec![b]), "equal facts");
        }

        // In a solve each location prints the zero that reached it, and a
        // merge of the two stays constant.
        let line = "program p global x: real; global y: real;\n\
                    sub main() { x = -(0.0); y = 0.0; }";
        assert_eq!(const_at_exit(line, "x").to_string(), "-0");
        assert_eq!(const_at_exit(line, "y").to_string(), "0");
        for (then, other) in [("0.0", "-(0.0)"), ("-(0.0)", "0.0")] {
            let merge = format!(
                "program p global x: real;\n\
                 sub main() {{ if (rank() == 0) {{ x = {then}; }} else {{ x = {other}; }} }}"
            );
            let v = const_at_exit(&merge, "x");
            assert!(
                matches!(v, ConstLattice::Const(Value(z)) if z == 0.0),
                "{v:?}"
            );
        }
    }

    #[test]
    fn an_int_a_real_and_a_true_one_are_one_constant() {
        let merge = |a: &str, b: &str| {
            const_at_exit(
                &format!(
                    "program p global x: real;\n\
                     sub main() {{ if (rank() == 0) {{ x = {a}; }} else {{ x = {b}; }} }}"
                ),
                "x",
            )
        };
        assert_eq!(merge("1", "1.0"), ConstLattice::Const(Value(1.0)));
        assert_eq!(merge("true", "2 > 1"), ConstLattice::Const(Value(1.0)));
        assert!(merge("1", "2.0").is_bottom());
    }

    #[test]
    fn cell_meet_is_the_constant_lattice() {
        let mut pool = ConstPool::default();
        let k = cells(&mut pool, &[7.0, 8.0]);
        let z = cells(&mut pool, &[0.0, -0.0]);
        let (t, b) = (ConstCell::TOP, ConstCell::BOTTOM);
        for (x, y, want) in [
            (z[0], z[1], z[0]),
            (z[1], z[0], z[1]),
            (z[0], k[0], b),
            (t, z[1], z[1]),
            (t, t, t),
            (t, k[0], k[0]),
            (k[0], t, k[0]),
            (k[0], k[0], k[0]),
            (k[0], k[1], b),
            (k[0], b, b),
            (b, k[0], b),
            (b, t, b),
        ] {
            let mut m = x;
            assert_eq!(m.meet_with(&y), want != x, "{x:?} ⊓ {y:?}");
            assert_eq!(m, want, "{x:?} ⊓ {y:?}");
            let old = pool.value(x).meet(pool.value(y));
            assert_eq!(&old, pool.value(want), "agrees with ConstLattice<Value>");
        }
    }

    #[test]
    fn i64_overflow_folds_to_what_a_run_computes() {
        // f64 arithmetic: a sum past i64::MAX rounds to 2^63, and the
        // truncated operands of `mod(i64::MIN, -1)` leave no remainder.
        let two_63 = 9223372036854775808.0;
        for (expr, want) in [
            ("9223372036854775807 + 1", two_63),
            ("-9223372036854775807 - 2", -two_63),
            ("4611686018427387904 * 2", two_63),
            ("abs(-9223372036854775807 - 1)", two_63),
            ("mod(-9223372036854775807 - 1, -1)", 0.0),
            ("9223372036854775806 + 1", two_63),
        ] {
            let src = format!("program p global k: int; sub main() {{ k = {expr}; }}");
            assert_eq!(
                const_at_exit(&src, "k"),
                ConstLattice::Const(Value(want)),
                "{expr}"
            );
        }
    }
}
