//! Property-based tests for the core framework data structures:
//! the dense bitset and the lattices must satisfy their algebraic laws for
//! the solver's fixpoint argument to hold.
//!
//! The workspace builds fully offline, so instead of `proptest` these are
//! seeded exhaustive-ish sweeps over the workspace's splitmix64 stream
//! ([`mpi_dfa_core::rng::SplitMix64`]). Each law is checked over `CASES`
//! independently drawn inputs; a failing case prints its seed so it can be
//! replayed.

use mpi_dfa_core::lattice::{BoolAnd, BoolOr, ConstLattice, MeetSemiLattice};
use mpi_dfa_core::rng::SplitMix64;
use mpi_dfa_core::varset::VarSet;

const UNIVERSE: usize = 200;
const CASES: u64 = 256;

fn varset(rng: &mut SplitMix64) -> VarSet {
    let mut s = VarSet::empty(UNIVERSE);
    for _ in 0..rng.below(40) {
        s.insert(rng.below(UNIVERSE));
    }
    s
}

fn const_lattice(rng: &mut SplitMix64) -> ConstLattice<i64> {
    match rng.below(3) {
        0 => ConstLattice::Top,
        1 => ConstLattice::Const(rng.below(6) as i64 - 3),
        _ => ConstLattice::Bottom,
    }
}

/// Run `f` over `CASES` seeded draws, reporting the failing seed.
fn for_cases(f: impl Fn(&mut SplitMix64)) {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed.wrapping_mul(0x5851F42D4C957F2D) ^ 0xDEADBEEF);
        f(&mut rng);
    }
}

// ---- VarSet --------------------------------------------------------------

#[test]
fn union_is_commutative() {
    for_cases(|rng| {
        let (a, b) = (varset(rng), varset(rng));
        assert_eq!(a.union(&b), b.union(&a));
    });
}

#[test]
fn union_is_associative() {
    for_cases(|rng| {
        let (a, b, c) = (varset(rng), varset(rng), varset(rng));
        assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
    });
}

#[test]
fn union_is_idempotent_and_monotone() {
    for_cases(|rng| {
        let (a, b) = (varset(rng), varset(rng));
        assert_eq!(a.union(&a), a.clone());
        assert!(a.is_subset(&a.union(&b)));
        assert!(b.is_subset(&a.union(&b)));
    });
}

#[test]
fn intersection_laws() {
    for_cases(|rng| {
        let (a, b) = (varset(rng), varset(rng));
        let i = a.intersection(&b);
        assert!(i.is_subset(&a));
        assert!(i.is_subset(&b));
        assert_eq!(a.intersection(&b), b.intersection(&a));
        // absorption: a ∩ (a ∪ b) = a
        assert_eq!(a.intersection(&a.union(&b)), a.clone());
    });
}

#[test]
fn de_morgan_via_subtraction() {
    for_cases(|rng| {
        let (a, b) = (varset(rng), varset(rng));
        // (a - b) ∪ (a ∩ b) = a, disjointly.
        let mut diff = a.clone();
        diff.subtract_into(&b);
        let inter = a.intersection(&b);
        assert!(diff.intersection(&inter).is_empty());
        assert_eq!(diff.union(&inter), a.clone());
    });
}

#[test]
fn change_reporting_is_accurate() {
    for_cases(|rng| {
        let (a, b) = (varset(rng), varset(rng));
        let mut x = a.clone();
        let changed = x.union_into(&b);
        assert_eq!(changed, x != a, "union_into change flag");
        let mut y = a.clone();
        let changed = y.intersect_into(&b);
        assert_eq!(changed, y != a, "intersect_into change flag");
    });
}

#[test]
fn cardinality_inclusion_exclusion() {
    for_cases(|rng| {
        let (a, b) = (varset(rng), varset(rng));
        assert_eq!(
            a.union(&b).len() + a.intersection(&b).len(),
            a.len() + b.len()
        );
    });
}

#[test]
fn iter_roundtrip() {
    for_cases(|rng| {
        let a = varset(rng);
        let mut rebuilt = VarSet::empty(UNIVERSE);
        for id in a.iter() {
            rebuilt.insert(id);
        }
        assert_eq!(rebuilt, a);
    });
}

// ---- lattices ------------------------------------------------------------

#[test]
fn const_lattice_laws() {
    for_cases(|rng| {
        let (a, b, c) = (const_lattice(rng), const_lattice(rng), const_lattice(rng));
        // commutativity
        assert_eq!(a.meet(&b), b.meet(&a));
        // associativity
        assert_eq!(a.meet(&b).meet(&c), a.meet(&b.meet(&c)));
        // idempotence & identity
        assert_eq!(a.meet(&a), a);
        assert_eq!(a.meet(&ConstLattice::Top), a);
        assert_eq!(a.meet(&ConstLattice::Bottom), ConstLattice::Bottom);
    });
}

#[test]
fn const_lattice_meet_descends() {
    for_cases(|rng| {
        let (a, b) = (const_lattice(rng), const_lattice(rng));
        // meet(a, b) never moves *up*: meeting the result again changes nothing.
        let m = a.meet(&b);
        let mut again = m;
        assert!(!again.meet_with(&a));
        assert!(!again.meet_with(&b));
    });
}

#[test]
fn bool_lattices_are_bounded() {
    for x in [false, true] {
        for y in [false, true] {
            let mut o = BoolOr(x);
            o.meet_with(&BoolOr(y));
            assert_eq!(o.0, x || y);
            let mut a = BoolAnd(x);
            a.meet_with(&BoolAnd(y));
            assert_eq!(a.0, x && y);
        }
    }
}

/// The finite-descent property the solver's termination depends on: any
/// chain of meets over a VarSet-with-union fact can only grow, and is
/// bounded by the universe.
#[test]
fn union_chains_terminate() {
    let mut s = VarSet::empty(UNIVERSE);
    let mut changes = 0;
    for step in 0..10 * UNIVERSE {
        let mut delta = VarSet::empty(UNIVERSE);
        delta.insert(step % UNIVERSE);
        if s.union_into(&delta) {
            changes += 1;
        }
    }
    assert_eq!(
        changes, UNIVERSE,
        "each element can change the set exactly once"
    );
    assert_eq!(s.len(), UNIVERSE);
}
