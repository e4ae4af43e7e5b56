//! Shared interprocedural fact mapping for set-based analyses.
//!
//! The Vary, Useful, liveness, taint, and slicing analyses all use
//! [`VarSet`] facts and the same caller↔callee renaming discipline over
//! call/return edges (Fortran by-reference semantics):
//!
//! * **forward across `Call`**: formal ∈ set ⇔ its actual (or, for by-value
//!   arguments, some *relevant use* in the argument expression) ∈ set;
//!   callee locals are cleared (fresh frame);
//! * **forward across `Return`**: whole-variable actuals take the formal's
//!   membership (strong), element actuals union it in (weak); the callee
//!   frame is cleared;
//! * **backward across `Return`** (traversed against flow): formals take
//!   their actuals' membership;
//! * **backward across `Call`**: actuals take the formals' membership; for
//!   by-value arguments a member formal marks the argument's relevant uses.
//!
//! "Relevant uses" differ per analysis (differentiable-only for activity,
//! all uses for taint/liveness), so the helpers take a [`UseSelector`].

use mpi_dfa_core::varset::VarSet;
use mpi_dfa_graph::icfg::{ActualBinding, Icfg};
use mpi_dfa_graph::loc::{Loc, ProcId};
use mpi_dfa_graph::node::ExprInfo;

/// Which uses of an expression participate in the analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UseSelector {
    /// Only differentiable value uses (activity analysis).
    Differentiable,
    /// Every use, including subscripts (taint, slicing, liveness).
    All,
}

impl UseSelector {
    /// Iterate the selected uses of `e`, differentiable first (no
    /// allocation: this runs inside transfer functions).
    pub fn uses<'a>(self, e: &'a ExprInfo) -> impl Iterator<Item = Loc> + 'a {
        let nondiff: &[Loc] = match self {
            UseSelector::Differentiable => &[],
            UseSelector::All => &e.uses.nondiff,
        };
        e.uses.diff.iter().chain(nondiff).copied()
    }

    /// Does `e` read any location in `set` (under this selector)?
    pub fn reads_from(self, e: &ExprInfo, set: &VarSet) -> bool {
        self.uses(e).any(|l| set.contains(l.index()))
    }

    /// Insert all selected uses of `e` into `set`.
    pub fn insert_uses(self, e: &ExprInfo, set: &mut VarSet) {
        for l in self.uses(e) {
            set.insert(l.index());
        }
    }
}

/// Precomputed per-procedure frame information.
#[derive(Debug, Clone)]
pub struct BindMaps {
    /// Locations of each procedure's locals (not formals).
    locals: Vec<Vec<Loc>>,
    /// Locations of each procedure's formals + locals (the whole frame).
    frames: Vec<Vec<Loc>>,
}

impl BindMaps {
    pub fn build(icfg: &Icfg) -> Self {
        let nprocs = icfg.ir.cfgs.len();
        let mut locals = vec![Vec::new(); nprocs];
        let mut frames = vec![Vec::new(); nprocs];
        for (pi, sub) in icfg.ir.unit.program.subs.iter().enumerate() {
            let proc = ProcId(pi as u32);
            for p in &sub.params {
                if let Some(l) = icfg.ir.locs.resolve(proc, &p.name) {
                    frames[pi].push(l);
                }
            }
            let ss = icfg.ir.unit.symbols.sub(&sub.name);
            for lv in &ss.locals {
                if let Some(l) = icfg.ir.locs.resolve(proc, &lv.name) {
                    locals[pi].push(l);
                    frames[pi].push(l);
                }
            }
        }
        BindMaps { locals, frames }
    }

    pub fn locals_of(&self, proc: ProcId) -> &[Loc] {
        &self.locals[proc.index()]
    }

    pub fn frame_of(&self, proc: ProcId) -> &[Loc] {
        &self.frames[proc.index()]
    }
}

/// Forward translation across a `Call` edge. Like every translation here,
/// it edits `out`, which arrives equal to `fact`, and reads `fact`.
pub fn call_forward(
    icfg: &Icfg,
    maps: &BindMaps,
    site: u32,
    fact: &VarSet,
    out: &mut VarSet,
    sel: UseSelector,
) {
    let cs = icfg.call_site(site);
    let args = icfg.call_args(site);
    for &l in maps.locals_of(cs.callee) {
        out.remove(l.index());
    }
    for b in &cs.bindings {
        let member = match b.actual {
            ActualBinding::RefWhole(a) | ActualBinding::RefElement(a) => fact.contains(a.index()),
            ActualBinding::Value => sel.reads_from(&args.args[b.arg_idx].value, fact),
        };
        if member {
            out.insert(b.formal.index());
        } else {
            out.remove(b.formal.index());
        }
    }
}

/// Forward translation across a `Return` edge.
pub fn return_forward(icfg: &Icfg, maps: &BindMaps, site: u32, fact: &VarSet, out: &mut VarSet) {
    let cs = icfg.call_site(site);
    for b in &cs.bindings {
        match b.actual {
            ActualBinding::RefWhole(a) => {
                if fact.contains(b.formal.index()) {
                    out.insert(a.index());
                } else {
                    out.remove(a.index());
                }
            }
            ActualBinding::RefElement(a) => {
                if fact.contains(b.formal.index()) {
                    out.insert(a.index());
                }
            }
            ActualBinding::Value => {}
        }
    }
    for &l in maps.frame_of(cs.callee) {
        out.remove(l.index());
    }
}

/// Backward translation across a `Return` edge (fact flows after-node →
/// callee exit).
pub fn return_backward(icfg: &Icfg, maps: &BindMaps, site: u32, fact: &VarSet, out: &mut VarSet) {
    let cs = icfg.call_site(site);
    for &l in maps.locals_of(cs.callee) {
        out.remove(l.index());
    }
    for b in &cs.bindings {
        let member = match b.actual {
            ActualBinding::RefWhole(a) | ActualBinding::RefElement(a) => fact.contains(a.index()),
            // Writes through a by-value formal never escape.
            ActualBinding::Value => false,
        };
        if member {
            out.insert(b.formal.index());
        } else {
            out.remove(b.formal.index());
        }
    }
}

/// Backward translation across a `Call` edge (fact flows callee entry →
/// call node).
pub fn call_backward(
    icfg: &Icfg,
    maps: &BindMaps,
    site: u32,
    fact: &VarSet,
    out: &mut VarSet,
    sel: UseSelector,
) {
    let cs = icfg.call_site(site);
    let args = icfg.call_args(site);
    for b in &cs.bindings {
        let member = fact.contains(b.formal.index());
        match b.actual {
            ActualBinding::RefWhole(a) => {
                if member {
                    out.insert(a.index());
                } else {
                    out.remove(a.index());
                }
            }
            ActualBinding::RefElement(a) => {
                if member {
                    out.insert(a.index());
                }
            }
            ActualBinding::Value => {
                if member {
                    sel.insert_uses(&args.args[b.arg_idx].value, out);
                }
            }
        }
    }
    for &l in maps.frame_of(cs.callee) {
        out.remove(l.index());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_dfa_graph::icfg::ProgramIr;

    const SRC: &str = "program p\n\
        global g: real; global arr: real[4]; global i: int;\n\
        sub f(x: real, a: real[4], v: real) { x = a[1] + v; g = x; }\n\
        sub main() { call f(g, arr, arr[i] * 2.0); }";

    fn setup() -> (Icfg, BindMaps) {
        let ir = ProgramIr::from_source(SRC).unwrap();
        let icfg = Icfg::build(ir, "main", 0).unwrap();
        let maps = BindMaps::build(&icfg);
        (icfg, maps)
    }

    /// Run an in-place translation on a copy of `fact`.
    fn translated(fact: &VarSet, translate: impl FnOnce(&mut VarSet)) -> VarSet {
        let mut out = fact.clone();
        translate(&mut out);
        out
    }

    fn set_of(icfg: &Icfg, names: &[(&str, &str)]) -> VarSet {
        let mut s = VarSet::empty(icfg.ir.locs.len());
        for (proc, name) in names {
            let p = icfg.ir.proc_id(proc).unwrap();
            s.insert(icfg.ir.locs.resolve(p, name).unwrap().index());
        }
        s
    }

    #[test]
    fn use_selector_yields_differentiable_uses_first() {
        let (icfg, _) = setup();
        // `arr[i] * 2.0`: `arr` is a differentiable use, the subscript `i`
        // is not.
        let e = &icfg.call_args(0).args[2].value;
        let arr = icfg.ir.locs.global("arr").unwrap();
        let i = icfg.ir.locs.global("i").unwrap();
        let diff: Vec<Loc> = UseSelector::Differentiable.uses(e).collect();
        assert_eq!(diff, vec![arr]);
        let all: Vec<Loc> = UseSelector::All.uses(e).collect();
        assert_eq!(all, vec![arr, i]);
    }

    #[test]
    fn call_forward_maps_actuals_to_formals() {
        let (icfg, maps) = setup();
        let fact = set_of(&icfg, &[("main", "g"), ("main", "arr")]);
        let out = translated(&fact, |out| {
            call_forward(&icfg, &maps, 0, &fact, out, UseSelector::Differentiable)
        });
        let f = icfg.ir.proc_id("f").unwrap();
        let x = icfg.ir.locs.resolve(f, "x").unwrap();
        let a = icfg.ir.locs.resolve(f, "a").unwrap();
        let v = icfg.ir.locs.resolve(f, "v").unwrap();
        assert!(out.contains(x.index()), "g member → formal x member");
        assert!(out.contains(a.index()), "arr member → formal a member");
        assert!(out.contains(v.index()), "value arg reads arr (diff use)");
        // Globals pass through.
        assert!(out.contains(icfg.ir.locs.global("g").unwrap().index()));
    }

    #[test]
    fn call_forward_clears_unbound_formals() {
        let (icfg, maps) = setup();
        let fact = VarSet::empty(icfg.ir.locs.len());
        let out = translated(&fact, |out| {
            call_forward(&icfg, &maps, 0, &fact, out, UseSelector::Differentiable)
        });
        assert!(out.is_empty());
    }

    #[test]
    fn value_arg_selector_matters() {
        let (icfg, maps) = setup();
        // Only `i` (the subscript) is in the set: a differentiable selector
        // does not bind v; an All selector does.
        let fact = set_of(&icfg, &[("main", "i")]);
        let f = icfg.ir.proc_id("f").unwrap();
        let v = icfg.ir.locs.resolve(f, "v").unwrap();
        let diff = translated(&fact, |out| {
            call_forward(&icfg, &maps, 0, &fact, out, UseSelector::Differentiable)
        });
        assert!(!diff.contains(v.index()));
        let all = translated(&fact, |out| {
            call_forward(&icfg, &maps, 0, &fact, out, UseSelector::All)
        });
        assert!(all.contains(v.index()));
    }

    #[test]
    fn return_forward_writes_back_by_ref_only() {
        let (icfg, maps) = setup();
        let f = icfg.ir.proc_id("f").unwrap();
        let mut fact = VarSet::empty(icfg.ir.locs.len());
        fact.insert(icfg.ir.locs.resolve(f, "x").unwrap().index());
        fact.insert(icfg.ir.locs.resolve(f, "v").unwrap().index());
        let out = translated(&fact, |out| return_forward(&icfg, &maps, 0, &fact, out));
        assert!(
            out.contains(icfg.ir.locs.global("g").unwrap().index()),
            "x → g (whole ref)"
        );
        // The callee frame is cleared.
        assert!(!out.contains(icfg.ir.locs.resolve(f, "x").unwrap().index()));
        assert!(!out.contains(icfg.ir.locs.resolve(f, "v").unwrap().index()));
    }

    #[test]
    fn return_forward_strong_kill_for_whole_ref() {
        let (icfg, maps) = setup();
        // g in the caller set but formal x NOT in the exit fact: the callee
        // (re)defined it to something non-member, so g is killed.
        let fact = set_of(&icfg, &[("main", "g")]);
        // fact here plays the role of the callee exit fact; g is a global
        // so it passes through, but the binding for x strong-updates g.
        let out = translated(&fact, |out| return_forward(&icfg, &maps, 0, &fact, out));
        assert!(!out.contains(icfg.ir.locs.global("g").unwrap().index()));
    }

    #[test]
    fn element_binding_is_weak_on_return() {
        let (icfg, maps) = setup();
        let src2 = "program p global arr: real[4]; global i: int;\n\
             sub f(e: real) { e = 1.0; }\n\
             sub main() { call f(arr[i]); }";
        let ir = ProgramIr::from_source(src2).unwrap();
        let icfg2 = Icfg::build(ir, "main", 0).unwrap();
        let maps2 = BindMaps::build(&icfg2);
        let _ = (icfg, maps);
        // arr member, formal not member: weak binding must NOT kill arr.
        let mut fact = VarSet::empty(icfg2.ir.locs.len());
        fact.insert(icfg2.ir.locs.global("arr").unwrap().index());
        let out = translated(&fact, |out| return_forward(&icfg2, &maps2, 0, &fact, out));
        assert!(out.contains(icfg2.ir.locs.global("arr").unwrap().index()));
    }

    #[test]
    fn backward_translations_mirror_forward() {
        let (icfg, maps) = setup();
        let f = icfg.ir.proc_id("f").unwrap();
        // Backward across Return: actual g member → formal x member.
        let fact = set_of(&icfg, &[("main", "g")]);
        let out = translated(&fact, |out| return_backward(&icfg, &maps, 0, &fact, out));
        assert!(out.contains(icfg.ir.locs.resolve(f, "x").unwrap().index()));
        // Backward across Call: formal v member → value-arg uses marked.
        let mut fact2 = VarSet::empty(icfg.ir.locs.len());
        fact2.insert(icfg.ir.locs.resolve(f, "v").unwrap().index());
        let out2 = translated(&fact2, |out| {
            call_backward(&icfg, &maps, 0, &fact2, out, UseSelector::All)
        });
        assert!(out2.contains(icfg.ir.locs.global("arr").unwrap().index()));
        assert!(
            out2.contains(icfg.ir.locs.global("i").unwrap().index()),
            "All selector includes index"
        );
        let out3 = translated(&fact2, |out| {
            call_backward(&icfg, &maps, 0, &fact2, out, UseSelector::Differentiable)
        });
        assert!(!out3.contains(icfg.ir.locs.global("i").unwrap().index()));
    }

    #[test]
    fn frames_and_locals() {
        let (icfg, maps) = setup();
        let f = icfg.ir.proc_id("f").unwrap();
        assert_eq!(maps.locals_of(f).len(), 0);
        assert_eq!(maps.frame_of(f).len(), 3, "three formals");
        let main = icfg.ir.proc_id("main").unwrap();
        assert!(maps.frame_of(main).is_empty());
    }
}
