//! Bitwidth analysis over the MPI-ICFG.
//!
//! The third nonseparable client the paper names (Section 1, citing
//! Stephenson et al.'s bitwidth analysis for silicon compilation): determine
//! how many bits each variable actually needs, so hardware synthesis or
//! packed-storage transformations can narrow them.
//!
//! The analysis is a forward problem with the per-location lattice
//! "required width in bits", ordered 0 (⊤, no information) ⊑ … ⊑ 64 (⊥,
//! full width); meet is `max`. It is nonseparable: the width of `y` after
//! `y = a + b` depends on the widths of `a` and `b`.
//!
//! MPI semantics make it interesting: a received variable's width is the
//! maximum over the widths transmitted by the *matching* sends. Without
//! communication edges a receive must be assumed full-width, which poisons
//! every variable computed from received data — the same precision collapse
//! activity analysis suffers (and the same fix).

use crate::interproc::BindMaps;
use mpi_dfa_core::graph::{Edge, EdgeKind, FlowGraph, NodeId};
use mpi_dfa_core::lattice::MeetSemiLattice;
use mpi_dfa_core::problem::{Dataflow, Direction};
use mpi_dfa_core::solver::{Solution, Solver};
use mpi_dfa_graph::icfg::{ActualBinding, Icfg};
use mpi_dfa_graph::loc::{Loc, LocTable};
use mpi_dfa_graph::mpi::MpiIcfg;
use mpi_dfa_graph::node::{ExprInfo, MpiKind, NodeKind, RefInfo};
use mpi_dfa_lang::arith;
use mpi_dfa_lang::ast::{BinOp, Expr, ExprKind, Intrinsic, UnOp};

/// Bits required to represent a variable's value. 0 = no information (⊤);
/// 64 = full machine width (⊥). Floating-point data is always 64.
pub const FULL: u8 = 64;

/// Bits needed for the non-negative integer magnitude `v` (plus sign).
pub fn bits_for(v: i64) -> u8 {
    let mag = v.unsigned_abs();
    let bits = 64 - mag.leading_zeros() as u8;
    // one sign bit; zero still takes one bit of storage
    (bits + 1).clamp(1, FULL)
}

/// Per-location widths: the fact type.
#[derive(Debug, PartialEq, Eq)]
pub struct WidthEnv(pub Vec<u8>);

impl Clone for WidthEnv {
    fn clone(&self) -> Self {
        WidthEnv(self.0.clone())
    }

    /// Reuses the existing buffer (a derived `Clone` would reallocate).
    fn clone_from(&mut self, source: &Self) {
        self.0.clone_from(&source.0);
    }
}

/// The width a send transmits: the communication fact. Its meet is `max`
/// with top 0, so the meet over a receive's matching sends is the widest
/// of them (0 for a receive nothing matches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Width(pub u8);

impl MeetSemiLattice for Width {
    fn top() -> Self {
        Width(0)
    }

    fn meet_with(&mut self, other: &Self) -> bool {
        let changed = other.0 > self.0;
        self.0 = self.0.max(other.0);
        changed
    }
}

impl WidthEnv {
    pub fn top(universe: usize) -> Self {
        WidthEnv(vec![0; universe])
    }

    pub fn get(&self, loc: Loc) -> u8 {
        self.0[loc.index()]
    }

    fn set(&mut self, loc: Loc, w: u8) {
        self.0[loc.index()] = w.min(FULL);
    }

    fn widen(&mut self, loc: Loc, w: u8) {
        let cur = self.0[loc.index()];
        self.0[loc.index()] = cur.max(w.min(FULL));
    }
}

/// How communication affects widths (mirrors the activity modes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WidthMode {
    /// Receives produce full-width data (no communication model).
    Conservative,
    /// Received width = max over matching sends' transmitted widths.
    MpiIcfg,
}

/// The bitwidth problem.
pub struct Bitwidth<'g> {
    icfg: &'g Icfg,
    maps: BindMaps,
    mode: WidthMode,
    universe: usize,
    /// Width assumed for `rank()` / `nprocs()` (bits for the largest
    /// supported process count; 16 allows 32767 ranks).
    pub rank_bits: u8,
}

impl<'g> Bitwidth<'g> {
    pub fn new(icfg: &'g Icfg, mode: WidthMode) -> Self {
        Bitwidth {
            icfg,
            maps: BindMaps::build(icfg),
            mode,
            universe: icfg.ir.locs.len(),
            rank_bits: 16,
        }
    }

    /// The width of a lowered expression under `env`, reading its operands
    /// by position; no name is looked up.
    fn eval_info(&self, e: &ExprInfo, env: &WidthEnv) -> u8 {
        self.eval(&e.expr, &mut e.operands.iter(), env)
    }

    /// The width of `e`, taking each `Var` leaf's location from `ops` in
    /// evaluation order (the order of [`ExprInfo::operands`]). A branch
    /// whose value is not needed still advances `ops` past its leaves.
    fn eval(&self, e: &Expr, ops: &mut std::slice::Iter<'_, Loc>, env: &WidthEnv) -> u8 {
        match &e.kind {
            ExprKind::IntLit(v) => bits_for(*v),
            ExprKind::RealLit(_) => FULL,
            ExprKind::BoolLit(_) => 1,
            ExprKind::Rank | ExprKind::Nprocs => self.rank_bits,
            ExprKind::AnyWildcard => FULL,
            ExprKind::Var(_) => match ops.next() {
                Some(&loc) if !self.icfg.ir.locs.info(loc).is_float() => env.get(loc),
                // Lowering records one operand per leaf; full width keeps a
                // mismatch sound.
                _ => FULL,
            },
            ExprKind::Unary(op, inner) => {
                let w = self.eval(inner, ops, env);
                match op {
                    UnOp::Neg => w, // sign bit already accounted
                    UnOp::Not => 1,
                }
            }
            ExprKind::Binary(op, a, b) => {
                let wa = self.eval(a, ops, env);
                let wb = self.eval(b, ops, env);
                match op {
                    BinOp::Add | BinOp::Sub => wa.max(wb).saturating_add(1).min(FULL),
                    BinOp::Mul => wa.saturating_add(wb).min(FULL),
                    BinOp::Div => wa,
                    BinOp::Eq
                    | BinOp::Ne
                    | BinOp::Lt
                    | BinOp::Le
                    | BinOp::Gt
                    | BinOp::Ge
                    | BinOp::And
                    | BinOp::Or => 1,
                }
            }
            ExprKind::Intrinsic(i, args) => match i {
                // The divisor folds with every variable ⊥: only literal
                // arithmetic bounds the result.
                Intrinsic::Mod => {
                    let divisor = arith::literal(&args[1])
                        .map(arith::to_int)
                        .filter(|&m| m > 0);
                    let w = match divisor {
                        // `mod(x, m)` with literal m: result < m.
                        Some(m) => {
                            skip(&args[0], ops);
                            bits_for(m - 1)
                        }
                        None => self.eval(&args[0], ops, env),
                    };
                    skip(&args[1], ops);
                    w
                }
                Intrinsic::Abs => self.eval(&args[0], ops, env),
                Intrinsic::Max | Intrinsic::Min => {
                    let w0 = self.eval(&args[0], ops, env);
                    w0.max(self.eval(&args[1], ops, env))
                }
                _ => {
                    // Transcendental intrinsics are floating point.
                    for a in args {
                        skip(a, ops);
                    }
                    FULL
                }
            },
        }
    }

    fn assign(&self, env: &mut WidthEnv, lhs: &RefInfo, w: u8) {
        if lhs.is_strong_def() {
            env.set(lhs.loc, w);
        } else {
            env.widen(lhs.loc, w);
        }
    }

    fn sent_width(&self, node: NodeId, input: &WidthEnv) -> u8 {
        match &self.icfg.payload(node).kind {
            NodeKind::Mpi(m) if m.kind.sends_data() => match m.kind {
                MpiKind::Reduce | MpiKind::Allreduce => {
                    // Lowering always attaches a value to reductions; a
                    // malformed node degrades to full width (sound).
                    let Some(v) = m.value.as_ref() else {
                        return FULL;
                    };
                    // Reductions accumulate across nprocs processes: a SUM
                    // can grow by log2(nprocs) bits.
                    self.eval_info(v, input)
                        .saturating_add(self.rank_bits)
                        .min(FULL)
                }
                _ => {
                    // Sends always carry a buffer; degrade to full width if
                    // one is ever missing rather than unwinding.
                    let Some(buf) = m.buf.as_ref() else {
                        return FULL;
                    };
                    if self.icfg.ir.locs.info(buf.loc).is_float() {
                        FULL
                    } else {
                        input.get(buf.loc)
                    }
                }
            },
            _ => 0,
        }
    }
}

/// Advance `ops` past the `Var` leaves of `e` (subscripts are not leaves).
fn skip(e: &Expr, ops: &mut std::slice::Iter<'_, Loc>) {
    match &e.kind {
        ExprKind::Var(_) => {
            ops.next();
        }
        ExprKind::Unary(_, inner) => skip(inner, ops),
        ExprKind::Binary(_, a, b) => {
            skip(a, ops);
            skip(b, ops);
        }
        ExprKind::Intrinsic(_, args) => args.iter().for_each(|a| skip(a, ops)),
        ExprKind::IntLit(_)
        | ExprKind::RealLit(_)
        | ExprKind::BoolLit(_)
        | ExprKind::Rank
        | ExprKind::Nprocs
        | ExprKind::AnyWildcard => {}
    }
}

impl Dataflow for Bitwidth<'_> {
    type Fact = WidthEnv;
    /// The width of the transmitted data.
    type CommFact = Width;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn top(&self) -> WidthEnv {
        WidthEnv::top(self.universe)
    }

    fn boundary(&self) -> WidthEnv {
        // SMPL storage is zero-initialized (the interpreter guarantees it),
        // so every location needs exactly one bit at the context entry;
        // genuine external inputs are modeled by `read`, which is
        // full-width.
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
                let w = self.eval_info(rhs, input);
                self.assign(out, lhs, w);
            }
            NodeKind::Read { target } => self.assign(out, target, FULL),
            NodeKind::Mpi(m) if m.kind.receives_data() => {
                // Receives always carry a buffer; a malformed node has
                // nothing to write and transfers as the identity.
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
                    // Roots keep their local value: widen only. The widen
                    // is also the conservative catch-all for any other
                    // data-receiving kind (it never strong-kills).
                    _ => out.widen(buf.loc, arriving),
                }
            }
            _ => {}
        }
    }

    fn comm_transfer(&self, node: NodeId, input: &WidthEnv) -> Width {
        Width(self.sent_width(node, input))
    }

    fn translate_into(&self, edge: &Edge, fact: &WidthEnv, out: &mut WidthEnv) {
        match edge.kind {
            EdgeKind::Call { site } => {
                let cs = self.icfg.call_site(site);
                let args = self.icfg.call_args(site);
                for &l in self.maps.locals_of(cs.callee) {
                    out.set(l, 0);
                }
                for b in &cs.bindings {
                    let w = match b.actual {
                        ActualBinding::RefWhole(a) | ActualBinding::RefElement(a) => fact.get(a),
                        ActualBinding::Value => self.eval_info(&args.args[b.arg_idx].value, fact),
                    };
                    out.set(b.formal, w);
                }
            }
            EdgeKind::Return { site } => {
                let cs = self.icfg.call_site(site);
                for b in &cs.bindings {
                    match b.actual {
                        ActualBinding::RefWhole(a) => out.set(a, fact.get(b.formal)),
                        ActualBinding::RefElement(a) => out.widen(a, fact.get(b.formal)),
                        ActualBinding::Value => {}
                    }
                }
                for &l in self.maps.frame_of(cs.callee) {
                    out.set(l, 0);
                }
            }
            EdgeKind::Flow => {}
        }
    }
}

/// Summary of one bitwidth run.
#[derive(Debug)]
pub struct BitwidthResult {
    pub solution: Solution<WidthEnv>,
    /// Maximum width observed per location over all program points.
    pub max_width: Vec<u8>,
}

impl BitwidthResult {
    /// Integer locations provably narrower than the full machine width.
    pub fn narrowed(&self, locs: &LocTable) -> Vec<(Loc, u8)> {
        self.max_width
            .iter()
            .enumerate()
            .map(|(i, &w)| (Loc(i as u32), w))
            .filter(|&(l, w)| {
                l != LocTable::MPI_BUFFER && !locs.info(l).is_float() && w > 0 && w < FULL
            })
            .collect()
    }
}

/// Run bitwidth analysis over `graph` (ICFG for [`WidthMode::Conservative`],
/// MPI-ICFG for [`WidthMode::MpiIcfg`]).
pub fn analyze<G: FlowGraph>(graph: &G, icfg: &Icfg, mode: WidthMode) -> BitwidthResult {
    let problem = Bitwidth::new(icfg, mode);
    let solution = Solver::new(&problem, graph).run();
    let mut max_width = vec![0u8; icfg.ir.locs.len()];
    for env in solution.output.iter().chain(solution.input.iter()) {
        for (slot, &w) in max_width.iter_mut().zip(env.0.iter()) {
            *slot = (*slot).max(w);
        }
    }
    BitwidthResult {
        solution,
        max_width,
    }
}

/// Convenience: run in MPI-ICFG mode.
pub fn analyze_mpi(mpi: &MpiIcfg) -> BitwidthResult {
    analyze(mpi, mpi.icfg(), WidthMode::MpiIcfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpi_match::{build_mpi_icfg, Matching};
    use mpi_dfa_graph::icfg::ProgramIr;
    use std::sync::Arc;

    fn build(src: &str) -> (Arc<ProgramIr>, MpiIcfg) {
        let ir = ProgramIr::from_source(src).unwrap();
        let mpi = build_mpi_icfg(ir.clone(), "main", 0, Matching::ReachingConstants).unwrap();
        (ir, mpi)
    }

    fn width_at_exit(ir: &ProgramIr, mpi: &MpiIcfg, r: &BitwidthResult, name: &str) -> u8 {
        let loc = ir.locs.global(name).unwrap();
        r.solution.before(mpi.context_exit()).get(loc)
    }

    #[test]
    fn bits_for_magnitudes() {
        assert_eq!(bits_for(0), 1);
        assert_eq!(bits_for(1), 2);
        assert_eq!(bits_for(7), 4);
        assert_eq!(bits_for(8), 5);
        assert_eq!(bits_for(-8), 5);
        assert_eq!(bits_for(i64::MAX), 64);
    }

    #[test]
    fn literal_widths_flow_through_arithmetic() {
        let (ir, mpi) = build(
            "program p global a: int; global b: int; global c: int;\n\
             sub main() { a = 3; b = a + 1; c = a * b; }",
        );
        let r = analyze_mpi(&mpi);
        assert_eq!(width_at_exit(&ir, &mpi, &r, "a"), 3); // |3| + sign
        assert_eq!(width_at_exit(&ir, &mpi, &r, "b"), 4); // add grows by one
        assert_eq!(width_at_exit(&ir, &mpi, &r, "c"), 7); // mul adds widths
    }

    #[test]
    fn branches_take_the_max() {
        let (ir, mpi) = build(
            "program p global a: int;\n\
             sub main() { if (rank() == 0) { a = 3; } else { a = 300; } }",
        );
        let r = analyze_mpi(&mpi);
        assert_eq!(width_at_exit(&ir, &mpi, &r, "a"), bits_for(300));
    }

    #[test]
    fn mod_bounds_the_result() {
        let (ir, mpi) = build(
            "program p global a: int;\n\
             sub main() { read(a); a = mod(a, 16); }",
        );
        let r = analyze_mpi(&mpi);
        assert_eq!(width_at_exit(&ir, &mpi, &r, "a"), bits_for(15));
    }

    #[test]
    fn mod_folds_only_literal_divisors() {
        // The divisor folds with every variable ⊥: literal arithmetic and
        // intrinsics bound the result, a variable (even a constant one)
        // leaves the dividend's width.
        for (divisor, want) in [
            ("max(2, 3)", bits_for(2)),
            ("4 * 2", bits_for(7)),
            ("-(4)", 17),
            ("m", 17),
            ("m + 1", 17),
        ] {
            let src = format!(
                "program p global a: int; global b: int; global m: int;\n\
                 sub main() {{ m = 8; a = 65535; b = mod(a, {divisor}); }}"
            );
            let (ir, mpi) = build(&src);
            let r = analyze_mpi(&mpi);
            assert_eq!(width_at_exit(&ir, &mpi, &r, "b"), want, "mod(a, {divisor})");
        }
    }

    #[test]
    fn narrow_width_crosses_the_communication_edge() {
        // The nonseparable payoff: a 4-bit counter stays 4 bits at the
        // receiver under the MPI-ICFG, but is full width conservatively.
        let src = "program p global ctr: int; global got: int;\n\
             sub main() {\n\
               ctr = mod(ctr, 10);\n\
               if (rank() == 0) { send(ctr, 1, 5); } else { recv(got, 0, 5); }\n\
             }";
        let (ir, mpi) = build(src);
        let precise = analyze_mpi(&mpi);
        assert_eq!(width_at_exit(&ir, &mpi, &precise, "got"), bits_for(9));

        let icfg = Icfg::build(ir.clone(), "main", 0).unwrap();
        let conservative = analyze(&icfg, &icfg, WidthMode::Conservative);
        let got = ir.locs.global("got").unwrap();
        assert_eq!(
            conservative.solution.before(icfg.context_exit()).get(got),
            FULL
        );
    }

    #[test]
    fn mismatched_tags_do_not_leak_width() {
        let src = "program p global wide: int; global narrow: int; global got: int;\n\
             sub main() {\n\
               read(wide);\n\
               narrow = 3;\n\
               send(wide, 1, 1);\n\
               send(narrow, 1, 2);\n\
               recv(got, 0, 2);\n\
             }";
        let (ir, mpi) = build(src);
        let r = analyze_mpi(&mpi);
        assert_eq!(
            width_at_exit(&ir, &mpi, &r, "got"),
            bits_for(3),
            "only the tag-2 send matches"
        );
    }

    #[test]
    fn reductions_grow_by_the_process_bits() {
        let src = "program p global part: int; global total: int;\n\
             sub main() { part = mod(part, 8); reduce(SUM, part, total, 0); }";
        let (ir, mpi) = build(src);
        let r = analyze_mpi(&mpi);
        let w = width_at_exit(&ir, &mpi, &r, "total");
        assert_eq!(w, bits_for(7) + 16, "sum over up to 2^16 ranks");
    }

    #[test]
    fn floats_are_always_full_width() {
        let (ir, mpi) = build("program p global x: real; sub main() { x = 1.0; }");
        let r = analyze_mpi(&mpi);
        // RealLit evaluates to FULL regardless.
        assert_eq!(width_at_exit(&ir, &mpi, &r, "x"), FULL);
    }

    #[test]
    fn widths_cross_call_boundaries() {
        let src = "program p global out: int;\n\
             sub double(v: int) { out = v * 2; }\n\
             sub main() { call double(5); }";
        let ir = ProgramIr::from_source(src).unwrap();
        let icfg = Icfg::build(ir.clone(), "main", 0).unwrap();
        let r = analyze(&icfg, &icfg, WidthMode::MpiIcfg);
        let out = ir.locs.global("out").unwrap();
        // 5 needs 4 bits; *2 (literal 2 = 3 bits) → 7 bits.
        assert_eq!(r.solution.before(icfg.context_exit()).get(out), 7);
    }

    #[test]
    fn narrowed_report_excludes_floats_and_untouched() {
        let (ir, mpi) = build(
            "program p global a: int; global x: real; global unused: int;\n\
             sub main() { a = 3; x = 1.0; }",
        );
        let r = analyze_mpi(&mpi);
        let narrowed = r.narrowed(&ir.locs);
        let names: Vec<&str> = narrowed
            .iter()
            .map(|(l, _)| ir.locs.info(*l).name.as_str())
            .collect();
        assert!(names.contains(&"a"));
        assert!(!names.contains(&"x"), "floats never narrow");
        // Zero-initialized and never written: provably a single bit.
        assert!(names.contains(&"unused"));
        let unused_width = narrowed
            .iter()
            .find(|(l, _)| ir.locs.info(*l).name == "unused")
            .unwrap()
            .1;
        assert_eq!(unused_width, 1);
    }

    #[test]
    fn loop_counters_stabilize() {
        let (ir, mpi) = build(
            "program p global s: int;\n\
             sub main() { var i: int; s = 0; for i = 1, 100 { s = s + 1; } }",
        );
        let r = analyze_mpi(&mpi);
        // s = s + 1 in a loop: each meet adds one bit until saturation; the
        // analysis must terminate at FULL, not diverge.
        let w = width_at_exit(&ir, &mpi, &r, "s");
        assert_eq!(w, FULL);
    }
}
