//! Dense bit sets over interned variable ids.
//!
//! Data-flow facts for the set-based analyses (Vary, Useful, liveness, taint,
//! slicing) are sets of abstract locations. A dense `u64`-word bitset makes
//! meet (union/intersection) a word-parallel loop, which is what keeps the
//! solver fast on the larger benchmarks (hundreds of locations × thousands of
//! CFG nodes).
//!
//! All sets share a fixed universe size chosen at construction; operations on
//! sets of different universe sizes panic in debug builds.

use std::fmt;

/// A dense bitset over `0..universe` variable ids.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct VarSet {
    words: Box<[u64]>,
    universe: usize,
}

const BITS: usize = 64;

impl VarSet {
    /// The empty set over a universe of `universe` ids.
    pub fn empty(universe: usize) -> Self {
        VarSet {
            words: vec![0; universe.div_ceil(BITS)].into_boxed_slice(),
            universe,
        }
    }

    /// The full set over a universe of `universe` ids.
    pub fn full(universe: usize) -> Self {
        let mut s = Self::empty(universe);
        for i in 0..universe {
            s.insert(i);
        }
        s
    }

    /// Number of ids in the universe (not the set's cardinality).
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Insert `id`; returns true if it was newly inserted.
    pub fn insert(&mut self, id: usize) -> bool {
        debug_assert!(
            id < self.universe,
            "id {id} outside universe {}",
            self.universe
        );
        let w = &mut self.words[id / BITS];
        let mask = 1u64 << (id % BITS);
        let fresh = *w & mask == 0;
        *w |= mask;
        fresh
    }

    /// Remove `id`; returns true if it was present.
    pub fn remove(&mut self, id: usize) -> bool {
        debug_assert!(id < self.universe);
        let w = &mut self.words[id / BITS];
        let mask = 1u64 << (id % BITS);
        let present = *w & mask != 0;
        *w &= !mask;
        present
    }

    /// Membership test.
    pub fn contains(&self, id: usize) -> bool {
        debug_assert!(id < self.universe);
        self.words[id / BITS] & (1u64 << (id % BITS)) != 0
    }

    /// `self ∪= other`; returns true if `self` changed.
    pub fn union_into(&mut self, other: &VarSet) -> bool {
        debug_assert_eq!(self.universe, other.universe);
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            let before = *a;
            *a |= b;
            changed |= *a != before;
        }
        changed
    }

    /// `self ∩= other`; returns true if `self` changed.
    pub fn intersect_into(&mut self, other: &VarSet) -> bool {
        debug_assert_eq!(self.universe, other.universe);
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            let before = *a;
            *a &= b;
            changed |= *a != before;
        }
        changed
    }

    /// `self ∪= a ∩ b` without materialising the intersection; returns true
    /// if `self` changed.
    pub fn union_intersection_into(&mut self, a: &VarSet, b: &VarSet) -> bool {
        debug_assert_eq!(self.universe, a.universe);
        debug_assert_eq!(self.universe, b.universe);
        let mut changed = false;
        for ((d, x), y) in self
            .words
            .iter_mut()
            .zip(a.words.iter())
            .zip(b.words.iter())
        {
            let before = *d;
            *d |= x & y;
            changed |= *d != before;
        }
        changed
    }

    /// `self -= other` (set difference); returns true if `self` changed.
    pub fn subtract_into(&mut self, other: &VarSet) -> bool {
        debug_assert_eq!(self.universe, other.universe);
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            let before = *a;
            *a &= !b;
            changed |= *a != before;
        }
        changed
    }

    /// The intersection as a new set.
    pub fn intersection(&self, other: &VarSet) -> VarSet {
        let mut out = self.clone();
        out.intersect_into(other);
        out
    }

    /// The union as a new set.
    pub fn union(&self, other: &VarSet) -> VarSet {
        let mut out = self.clone();
        out.union_into(other);
        out
    }

    /// True if `self ⊆ other`.
    pub fn is_subset(&self, other: &VarSet) -> bool {
        debug_assert_eq!(self.universe, other.universe);
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(a, b)| a & !b == 0)
    }

    /// Cardinality.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Remove every element.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Iterate set members in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * BITS + b)
                }
            })
        })
    }
}

impl fmt::Debug for VarSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for VarSet {
    /// Collect ids into a set whose universe is one more than the max id.
    /// Mostly useful in tests; analysis code should size the universe from
    /// the location table.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let ids: Vec<usize> = iter.into_iter().collect();
        let universe = ids.iter().max().map_or(0, |m| m + 1);
        let mut s = VarSet::empty(universe);
        for id in ids {
            s.insert(id);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = VarSet::empty(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64), "double insert reports no change");
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert!(!s.contains(64));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn union_reports_change() {
        let mut a = VarSet::empty(100);
        let mut b = VarSet::empty(100);
        b.insert(3);
        b.insert(99);
        assert!(a.union_into(&b));
        assert!(!a.union_into(&b), "second union is a no-op");
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn intersect_and_subtract() {
        let mut a: VarSet = [1usize, 2, 3, 64, 65].into_iter().collect();
        let b: VarSet = [2usize, 64]
            .into_iter()
            .collect::<Vec<_>>()
            .into_iter()
            .collect();
        // align universes
        let mut b2 = VarSet::empty(a.universe());
        for id in b.iter() {
            b2.insert(id);
        }
        let mut c = a.clone();
        assert!(c.intersect_into(&b2));
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![2, 64]);
        assert!(a.subtract_into(&b2));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 3, 65]);
    }

    #[test]
    fn union_intersection_matches_union_of_intersection() {
        let set = |ids: &[usize]| {
            let mut s = VarSet::empty(130);
            for &i in ids {
                s.insert(i);
            }
            s
        };
        let (a, b) = (set(&[1, 64, 100, 129]), set(&[64, 99, 129]));
        let mut fused = set(&[1, 5]);
        let mut want = fused.clone();
        want.union_into(&a.intersection(&b));
        assert!(fused.union_intersection_into(&a, &b));
        assert_eq!(fused, want);
        assert!(
            !fused.union_intersection_into(&a, &b),
            "no-op reports no change"
        );
    }

    #[test]
    fn subset_relation() {
        let mut a = VarSet::empty(70);
        let mut b = VarSet::empty(70);
        a.insert(5);
        b.insert(5);
        b.insert(69);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.is_subset(&a));
        assert!(VarSet::empty(70).is_subset(&a));
    }

    #[test]
    fn full_and_clear() {
        let mut s = VarSet::full(67);
        assert_eq!(s.len(), 67);
        assert!(s.contains(66));
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn iter_order_is_ascending() {
        let s: VarSet = [100usize, 3, 64, 7].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 7, 64, 100]);
    }

    #[test]
    fn zero_universe() {
        let s = VarSet::empty(0);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn debug_format() {
        let s: VarSet = [1usize, 2].into_iter().collect();
        assert_eq!(format!("{s:?}"), "{1, 2}");
    }
}
