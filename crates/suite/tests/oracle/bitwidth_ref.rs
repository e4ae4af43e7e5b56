//! The bitwidth problem with every variable resolved by name at its node
//! (`Icfg::resolve_at`), kept as the reference for
//! `mpi_dfa_analyses::bitwidth`, which reads each expression's operands by
//! position from the locations recorded at lowering. The lattice, the
//! widths of literals and operators, and the fact type are shared: they are
//! the semantics both implement, not the operand lookup.

use mpi_dfa_analyses::bitwidth::{bits_for, Width, WidthEnv, WidthMode, FULL};
use mpi_dfa_analyses::consts::fold;
use mpi_dfa_analyses::interproc::BindMaps;
use mpi_dfa_core::graph::{Edge, EdgeKind, NodeId};
use mpi_dfa_core::lattice::ConstLattice;
use mpi_dfa_core::problem::{Dataflow, Direction};
use mpi_dfa_graph::icfg::{ActualBinding, Icfg};
use mpi_dfa_graph::loc::Loc;
use mpi_dfa_graph::node::{MpiKind, NodeKind, RefInfo};
use mpi_dfa_lang::ast::{BinOp, Expr, ExprKind, Intrinsic, UnOp};

pub struct RefBitwidth<'g> {
    icfg: &'g Icfg,
    maps: BindMaps,
    mode: WidthMode,
    universe: usize,
}

const RANK_BITS: u8 = 16;

fn set(env: &mut WidthEnv, loc: Loc, w: u8) {
    env.0[loc.index()] = w.min(FULL);
}

fn widen(env: &mut WidthEnv, loc: Loc, w: u8) {
    let cur = env.0[loc.index()];
    env.0[loc.index()] = cur.max(w.min(FULL));
}

impl<'g> RefBitwidth<'g> {
    pub fn new(icfg: &'g Icfg, mode: WidthMode) -> Self {
        RefBitwidth {
            icfg,
            maps: BindMaps::build(icfg),
            mode,
            universe: icfg.ir.locs.len(),
        }
    }

    fn eval(&self, e: &Expr, env: &WidthEnv, node: NodeId) -> u8 {
        match &e.kind {
            ExprKind::IntLit(v) => bits_for(*v),
            ExprKind::RealLit(_) | ExprKind::AnyWildcard => FULL,
            ExprKind::BoolLit(_) => 1,
            ExprKind::Rank | ExprKind::Nprocs => RANK_BITS,
            ExprKind::Var(lv) => match self.icfg.resolve_at(node, &lv.name) {
                Some(loc) if !self.icfg.ir.locs.info(loc).is_float() => env.get(loc),
                _ => FULL,
            },
            ExprKind::Unary(op, inner) => {
                let w = self.eval(inner, env, node);
                match op {
                    UnOp::Neg => w,
                    UnOp::Not => 1,
                }
            }
            ExprKind::Binary(op, a, b) => {
                let (wa, wb) = (self.eval(a, env, node), self.eval(b, env, node));
                match op {
                    BinOp::Add | BinOp::Sub => wa.max(wb).saturating_add(1).min(FULL),
                    BinOp::Mul => wa.saturating_add(wb).min(FULL),
                    BinOp::Div => wa,
                    _ => 1,
                }
            }
            ExprKind::Intrinsic(i, args) => match i {
                Intrinsic::Mod => match fold(&args[1], &mut |_| ConstLattice::Bottom) {
                    ConstLattice::Const(c) => match c.as_int() {
                        Some(m) if m > 0 => bits_for(m - 1),
                        _ => self.eval(&args[0], env, node),
                    },
                    _ => self.eval(&args[0], env, node),
                },
                Intrinsic::Abs => self.eval(&args[0], env, node),
                Intrinsic::Max | Intrinsic::Min => self
                    .eval(&args[0], env, node)
                    .max(self.eval(&args[1], env, node)),
                _ => FULL,
            },
        }
    }

    fn assign(&self, env: &mut WidthEnv, lhs: &RefInfo, w: u8) {
        if lhs.is_strong_def() {
            set(env, lhs.loc, w);
        } else {
            widen(env, lhs.loc, w);
        }
    }
}

impl Dataflow for RefBitwidth<'_> {
    type Fact = WidthEnv;
    type CommFact = Width;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn top(&self) -> WidthEnv {
        WidthEnv::top(self.universe)
    }

    fn boundary(&self) -> WidthEnv {
        WidthEnv(vec![1; self.universe])
    }

    fn meet_into(&self, dst: &mut WidthEnv, src: &WidthEnv) -> bool {
        let mut changed = false;
        for (a, &b) in dst.0.iter_mut().zip(src.0.iter()) {
            if b > *a {
                *a = b;
                changed = true;
            }
        }
        changed
    }

    fn transfer(&self, node: NodeId, input: &WidthEnv, comm: &Width, out: &mut WidthEnv) {
        match &self.icfg.payload(node).kind {
            NodeKind::Assign { lhs, rhs } => {
                let w = self.eval(&rhs.expr, input, node);
                self.assign(out, lhs, w);
            }
            NodeKind::Read { target } => self.assign(out, target, FULL),
            NodeKind::Mpi(m) if m.kind.receives_data() => {
                let Some(buf) = m.buf.as_ref() else {
                    return;
                };
                let arriving = match self.mode {
                    WidthMode::Conservative => FULL,
                    WidthMode::MpiIcfg => comm.0,
                };
                match m.kind {
                    MpiKind::Recv | MpiKind::Irecv | MpiKind::Allreduce => {
                        self.assign(out, buf, arriving)
                    }
                    _ => widen(out, buf.loc, arriving),
                }
            }
            _ => {}
        }
    }

    fn comm_transfer(&self, node: NodeId, input: &WidthEnv) -> Width {
        Width(match &self.icfg.payload(node).kind {
            NodeKind::Mpi(m) if m.kind.sends_data() => match m.kind {
                MpiKind::Reduce | MpiKind::Allreduce => match m.value.as_ref() {
                    Some(v) => self
                        .eval(&v.expr, input, node)
                        .saturating_add(RANK_BITS)
                        .min(FULL),
                    None => FULL,
                },
                _ => match m.buf.as_ref() {
                    Some(buf) if !self.icfg.ir.locs.info(buf.loc).is_float() => input.get(buf.loc),
                    _ => FULL,
                },
            },
            _ => 0,
        })
    }

    fn translate_into(&self, edge: &Edge, fact: &WidthEnv, out: &mut WidthEnv) {
        match edge.kind {
            EdgeKind::Call { site } => {
                let cs = self.icfg.call_site(site);
                let args = self.icfg.call_args(site);
                for &l in self.maps.locals_of(cs.callee) {
                    set(out, l, 0);
                }
                for b in &cs.bindings {
                    let w = match b.actual {
                        ActualBinding::RefWhole(a) | ActualBinding::RefElement(a) => fact.get(a),
                        ActualBinding::Value => {
                            self.eval(&args.args[b.arg_idx].value.expr, fact, cs.call_node)
                        }
                    };
                    set(out, b.formal, w);
                }
            }
            EdgeKind::Return { site } => {
                let cs = self.icfg.call_site(site);
                for b in &cs.bindings {
                    match b.actual {
                        ActualBinding::RefWhole(a) => set(out, a, fact.get(b.formal)),
                        ActualBinding::RefElement(a) => widen(out, a, fact.get(b.formal)),
                        ActualBinding::Value => {}
                    }
                }
                for &l in self.maps.frame_of(cs.callee) {
                    set(out, l, 0);
                }
            }
            EdgeKind::Flow => {}
        }
    }
}
