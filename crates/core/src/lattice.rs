//! Lattice abstractions used by the framework's fact types.
//!
//! The framework itself (see [`crate::problem`]) only needs a meet operation
//! with change reporting, but the canonical analyses share a few standard
//! lattices defined here:
//!
//! * [`ConstLattice`] — the three-level constant lattice (⊤ / const c / ⊥)
//!   used by reaching constants, both as the per-variable lattice and as the
//!   *communication fact* propagated over communication edges (Section 3 of
//!   the paper);
//! * [`BoolOr`] / [`BoolAnd`] — the two boolean semilattices; `BoolOr` is the
//!   communication fact for Vary/Useful ("some matching send's value
//!   varies" / "some matching receive's target is useful");
//! * `()` — the one-point lattice, the communication fact of analyses that
//!   ignore communication edges.

use std::fmt;

/// A bounded meet-semilattice. `meet` must be idempotent, commutative,
/// associative, with `top()` as the identity. Finite height is required for
/// solver termination (asserted structurally by the property tests).
pub trait MeetSemiLattice: Clone + PartialEq {
    /// The identity of meet: "no information yet".
    fn top() -> Self;

    /// `self ⊓= other`; returns true if `self` changed (i.e. moved down).
    fn meet_with(&mut self, other: &Self) -> bool;

    /// Convenience non-mutating meet.
    fn meet(mut self, other: &Self) -> Self
    where
        Self: Sized,
    {
        self.meet_with(other);
        self
    }
}

/// The constant-propagation lattice over values `T`.
///
/// Ordering: `Top ⊒ Const(c) ⊒ Bottom`, with distinct constants incomparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstLattice<T> {
    /// No information: every execution seen so far agrees vacuously.
    Top,
    /// All executions produce this one value.
    Const(T),
    /// Conflicting values: not a constant.
    Bottom,
}

impl<T: Clone + PartialEq> ConstLattice<T> {
    /// The constant value, if exactly one.
    pub fn as_const(&self) -> Option<&T> {
        match self {
            ConstLattice::Const(c) => Some(c),
            _ => None,
        }
    }

    pub fn is_bottom(&self) -> bool {
        matches!(self, ConstLattice::Bottom)
    }

    pub fn is_top(&self) -> bool {
        matches!(self, ConstLattice::Top)
    }
}

impl<T: Clone + PartialEq> MeetSemiLattice for ConstLattice<T> {
    fn top() -> Self {
        ConstLattice::Top
    }

    fn meet_with(&mut self, other: &Self) -> bool {
        use ConstLattice::*;
        let next = match (&*self, other) {
            (Top, x) => x.clone(),
            (x, Top) => (*x).clone(),
            (Bottom, _) | (_, Bottom) => Bottom,
            (Const(a), Const(b)) => {
                if a == b {
                    Const(a.clone())
                } else {
                    Bottom
                }
            }
        };
        let changed = next != *self;
        *self = next;
        changed
    }
}

impl<T: fmt::Display> fmt::Display for ConstLattice<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstLattice::Top => write!(f, "⊤"),
            ConstLattice::Const(c) => write!(f, "{c}"),
            ConstLattice::Bottom => write!(f, "⊥"),
        }
    }
}

/// The one-point lattice: the communication fact of analyses that send
/// nothing over communication edges.
impl MeetSemiLattice for () {
    fn top() -> Self {}

    fn meet_with(&mut self, _other: &Self) -> bool {
        false
    }
}

/// Boolean disjunction semilattice: top = `false`, meet = OR.
///
/// This is the communication-edge fact for forward Vary ("does any possible
/// matching send transmit a varying value?") and backward Useful.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct BoolOr(pub bool);

impl MeetSemiLattice for BoolOr {
    fn top() -> Self {
        BoolOr(false)
    }

    fn meet_with(&mut self, other: &Self) -> bool {
        let changed = !self.0 && other.0;
        self.0 |= other.0;
        changed
    }
}

/// Boolean conjunction semilattice: top = `true`, meet = AND.
///
/// Used by must-analyses (e.g. "every matching send transmits a trusted
/// value" in trust analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BoolAnd(pub bool);

impl Default for BoolAnd {
    fn default() -> Self {
        BoolAnd(true)
    }
}

impl MeetSemiLattice for BoolAnd {
    fn top() -> Self {
        BoolAnd(true)
    }

    fn meet_with(&mut self, other: &Self) -> bool {
        let changed = self.0 && !other.0;
        self.0 &= other.0;
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type CL = ConstLattice<i64>;

    #[test]
    fn const_meet_table() {
        use ConstLattice::*;
        // Reproduces the paper's meet definition verbatim:
        // c1==c2 -> c1; c1==T -> c2; c2==T -> c1; otherwise Bottom.
        let cases: Vec<(CL, CL, CL)> = vec![
            (Top, Top, Top),
            (Top, Const(2), Const(2)),
            (Const(2), Top, Const(2)),
            (Const(2), Const(2), Const(2)),
            (Const(2), Const(3), Bottom),
            (Bottom, Const(2), Bottom),
            (Const(2), Bottom, Bottom),
            (Bottom, Top, Bottom),
            (Bottom, Bottom, Bottom),
        ];
        for (mut a, b, want) in cases {
            a.meet_with(&b);
            assert_eq!(a, want);
        }
    }

    #[test]
    fn const_meet_reports_change() {
        let mut a = CL::Top;
        assert!(a.meet_with(&CL::Const(5)));
        assert!(!a.meet_with(&CL::Const(5)));
        assert!(a.meet_with(&CL::Const(6)));
        assert!(a.is_bottom());
        assert!(!a.meet_with(&CL::Top));
    }

    #[test]
    fn meet_is_commutative_and_idempotent() {
        use ConstLattice::*;
        let vals: Vec<CL> = vec![Top, Const(1), Const(2), Bottom];
        for a in &vals {
            for b in &vals {
                let ab = (*a).meet(b);
                let ba = (*b).meet(a);
                assert_eq!(ab, ba, "commutativity {a:?} {b:?}");
                assert_eq!((*a).meet(a), *a, "idempotence {a:?}");
                // associativity with a third element
                for c in &vals {
                    let l = (*a).meet(b).meet(c);
                    let r = (*a).meet(&(*b).meet(c));
                    assert_eq!(l, r, "associativity {a:?} {b:?} {c:?}");
                }
            }
        }
    }

    #[test]
    fn bool_or_lattice() {
        let mut x = BoolOr::top();
        assert!(!x.0);
        assert!(!x.meet_with(&BoolOr(false)));
        assert!(x.meet_with(&BoolOr(true)));
        assert!(!x.meet_with(&BoolOr(true)));
        assert!(x.0);
    }

    #[test]
    fn bool_and_lattice() {
        let mut x = BoolAnd::top();
        assert!(x.0);
        assert!(!x.meet_with(&BoolAnd(true)));
        assert!(x.meet_with(&BoolAnd(false)));
        assert!(!x.meet_with(&BoolAnd(false)));
        assert!(!x.0);
    }

    #[test]
    fn unit_lattice_never_changes() {
        <() as MeetSemiLattice>::top();
        assert!(!().meet_with(&()));
    }

    #[test]
    fn display_uses_lattice_glyphs() {
        assert_eq!(CL::Top.to_string(), "⊤");
        assert_eq!(CL::Const(7).to_string(), "7");
        assert_eq!(CL::Bottom.to_string(), "⊥");
    }
}
