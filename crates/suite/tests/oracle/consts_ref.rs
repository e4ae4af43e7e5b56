//! The reaching-constants problem in its unpacked encoding, kept as the
//! reference for the packed one in `mpi_dfa_analyses::consts`.
//!
//! A fact holds one `ConstLattice<CVal>` per location, meets and compares
//! element by element, and every variable is resolved by name at its node
//! (`LocTable::resolve`), so it shares neither the constant pool, the cell
//! meet, nor the operand lists recorded at lowering with the code under
//! test. Constant folding (`consts::fold`) is shared: it is the semantics
//! both encodings implement, not the encoding.

use mpi_dfa_analyses::consts::{fold, CVal};
use mpi_dfa_analyses::interproc::BindMaps;
use mpi_dfa_core::graph::{Edge, EdgeKind, NodeId};
use mpi_dfa_core::lattice::{ConstLattice, MeetSemiLattice};
use mpi_dfa_core::problem::{Dataflow, Direction};
use mpi_dfa_graph::icfg::{ActualBinding, Icfg};
use mpi_dfa_graph::mpi::ConstQuery;
use mpi_dfa_graph::node::{MpiKind, NodeKind, RefInfo};
use mpi_dfa_lang::ast::{Expr, RedOp};

type Value = ConstLattice<CVal>;

/// One lattice value per location, indexed by `Loc`.
#[derive(Debug, Clone, PartialEq)]
pub struct Env(pub Vec<Value>);

pub struct RefConsts<'g> {
    icfg: &'g Icfg,
    maps: BindMaps,
    universe: usize,
}

impl<'g> RefConsts<'g> {
    pub fn new(icfg: &'g Icfg) -> Self {
        RefConsts {
            icfg,
            maps: BindMaps::build(icfg),
            universe: icfg.ir.locs.len(),
        }
    }

    /// `e` under `env`, its names resolved in `node`'s procedure.
    fn eval(&self, node: NodeId, e: &Expr, env: &Env) -> Value {
        let proc = self.icfg.proc_of(node);
        fold(
            e,
            &mut |lv| match self.icfg.ir.locs.resolve(proc, &lv.name) {
                Some(loc) => env.0[loc.index()],
                None => ConstLattice::Bottom,
            },
        )
    }

    fn assign(&self, env: &mut Env, lhs: &RefInfo, v: Value) {
        if lhs.is_strong_def() {
            env.0[lhs.loc.index()] = v;
        } else {
            env.0[lhs.loc.index()].meet_with(&v);
        }
    }
}

impl Dataflow for RefConsts<'_> {
    type Fact = Env;
    type CommFact = Value;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn top(&self) -> Env {
        Env(vec![ConstLattice::Top; self.universe])
    }

    fn boundary(&self) -> Env {
        Env(vec![ConstLattice::Bottom; self.universe])
    }

    fn meet_into(&self, dst: &mut Env, src: &Env) -> bool {
        let mut changed = false;
        for (a, b) in dst.0.iter_mut().zip(&src.0) {
            changed |= a.meet_with(b);
        }
        changed
    }

    fn transfer(&self, node: NodeId, input: &Env, comm: &Value, out: &mut Env) {
        match &self.icfg.payload(node).kind {
            NodeKind::Assign { lhs, rhs } => {
                let v = self.eval(node, &rhs.expr, input);
                self.assign(out, lhs, v);
            }
            NodeKind::Read { target } => self.assign(out, target, ConstLattice::Bottom),
            NodeKind::Mpi(m) if m.kind.receives_data() => {
                let Some(buf) = m.buf.as_ref() else { return };
                match m.kind {
                    MpiKind::Recv | MpiKind::Irecv => self.assign(out, buf, *comm),
                    MpiKind::Bcast => {
                        out.0[buf.loc.index()].meet_with(comm);
                    }
                    MpiKind::Reduce | MpiKind::Allreduce => {
                        let r = match m.op {
                            Some(RedOp::Max | RedOp::Min) => *comm,
                            _ => ConstLattice::Bottom,
                        };
                        if m.kind == MpiKind::Allreduce {
                            self.assign(out, buf, r);
                        } else {
                            out.0[buf.loc.index()].meet_with(&r);
                        }
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }

    fn comm_transfer(&self, node: NodeId, input: &Env) -> Value {
        match &self.icfg.payload(node).kind {
            NodeKind::Mpi(m) if m.kind.sends_data() => match m.kind {
                MpiKind::Reduce | MpiKind::Allreduce => match m.value.as_ref() {
                    Some(value) => self.eval(node, &value.expr, input),
                    None => ConstLattice::Bottom,
                },
                _ => match m.buf.as_ref() {
                    Some(buf) => input.0[buf.loc.index()],
                    None => ConstLattice::Bottom,
                },
            },
            _ => ConstLattice::Top,
        }
    }

    fn translate_into(&self, edge: &Edge, fact: &Env, out: &mut Env) {
        match edge.kind {
            EdgeKind::Call { site } => {
                let cs = self.icfg.call_site(site);
                let args = self.icfg.call_args(site);
                for &l in self.maps.locals_of(cs.callee) {
                    out.0[l.index()] = ConstLattice::Bottom;
                }
                for b in &cs.bindings {
                    out.0[b.formal.index()] = match b.actual {
                        ActualBinding::RefWhole(a) | ActualBinding::RefElement(a) => {
                            fact.0[a.index()]
                        }
                        ActualBinding::Value => {
                            self.eval(cs.call_node, &args.args[b.arg_idx].value.expr, fact)
                        }
                    };
                }
            }
            EdgeKind::Return { site } => {
                let cs = self.icfg.call_site(site);
                for b in &cs.bindings {
                    let v = fact.0[b.formal.index()];
                    match b.actual {
                        ActualBinding::RefWhole(a) => out.0[a.index()] = v,
                        ActualBinding::RefElement(a) => {
                            out.0[a.index()].meet_with(&v);
                        }
                        ActualBinding::Value => {}
                    }
                }
                for &l in self.maps.frame_of(cs.callee) {
                    out.0[l.index()] = ConstLattice::Top;
                }
            }
            EdgeKind::Flow => {}
        }
    }
}

/// Communication-edge matching over the reference facts (the role
/// `ConstsQuery` plays for the packed ones).
pub struct RefQuery<'g> {
    pub problem: RefConsts<'g>,
    pub env_at: Vec<Env>,
}

impl ConstQuery for RefQuery<'_> {
    fn eval_int(&self, node: NodeId, expr: &Expr) -> Option<i64> {
        match self.problem.eval(node, expr, &self.env_at[node.index()]) {
            ConstLattice::Const(c) => c.as_int(),
            _ => None,
        }
    }
}
