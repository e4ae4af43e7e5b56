//! The data-flow problem specification trait.
//!
//! Following the paper (Section 4.3), a client specifies:
//!
//! * the usual ingredients — direction, lattice top, boundary fact, meet,
//!   and per-node transfer function;
//! * interprocedural fact *translation* across call/return edges
//!   (caller↔callee mapping), in place like the transfer;
//! * and, new for the MPI-ICFG, a **communication transfer function**
//!   `f_comm` producing the fact propagated over communication edges, plus
//!   the receive-side use of those facts: the solver meets `f_comm` over a
//!   node's communication predecessors (the paper's ⊓ over `commpred(n)`)
//!   and hands that one fact to `transfer` as its `comm` argument.
//!
//! Analyses that do not use communication edges set `CommFact = ()` (the
//! one-point lattice) and make `comm_transfer` a no-op.

use crate::graph::{Edge, NodeId};
use crate::lattice::MeetSemiLattice;

/// Direction of propagation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    Forward,
    Backward,
}

/// A data-flow analysis over a [`crate::graph::FlowGraph`].
///
/// `Fact` is the per-program-point value (the IN/OUT set); `CommFact` is the
/// value `f_comm` computes at a communication source, met over all of a
/// node's communication predecessors before the node's transfer reads it.
///
/// Monotonicity contract: `transfer` and `translate_into` must be monotone in
/// their fact arguments and the fact lattice must have finite height,
/// otherwise the solver may hit its pass bound and report non-convergence.
pub trait Dataflow {
    /// The per-node data-flow fact. The solver rebuilds facts in reusable
    /// buffers with `Clone::clone_from`, so a fact type that owns heap
    /// storage should implement it without reallocating.
    type Fact: Clone + PartialEq;

    /// The fact propagated over communication edges (`()` when unused). Its
    /// meet is the communication meet; `CommFact::top()` is what a node with
    /// no communication predecessor receives.
    type CommFact: MeetSemiLattice;

    /// Propagation direction.
    fn direction(&self) -> Direction;

    /// Lattice top: the initial value of every IN/OUT set.
    fn top(&self) -> Self::Fact;

    /// Fact at the analysis boundary: the IN set of entry nodes (forward) or
    /// the OUT set of exit nodes (backward).
    fn boundary(&self) -> Self::Fact;

    /// `dst ⊓= src`; must return true iff `dst` changed.
    fn meet_into(&self, dst: &mut Self::Fact, src: &Self::Fact) -> bool;

    /// The node transfer function, applied in place. `input` is the IN set
    /// (forward) or OUT set (backward); `comm` is the meet of
    /// [`Dataflow::comm_transfer`] over the node's incoming
    /// (direction-adjusted) communication edges, or `CommFact::top()` when
    /// it has none. `out` arrives equal to `input`; the transfer edits it
    /// into the node's output fact.
    ///
    /// The output must depend only on `node`, `input` and `comm`: a
    /// round-robin sweep skips a node whose input facts and communication
    /// meet have not changed since its last transfer, keeping the output
    /// that transfer produced.
    fn transfer(
        &self,
        node: NodeId,
        input: &Self::Fact,
        comm: &Self::CommFact,
        out: &mut Self::Fact,
    );

    /// The communication transfer function `f_comm`: computes the fact sent
    /// over outgoing (direction-adjusted) communication edges from this
    /// node's `input` fact. Only called for nodes that have communication
    /// edges.
    ///
    /// The result must depend only on `node` and `input`: both solver
    /// engines memoise it per source node and re-evaluate it only after
    /// that node's input fact changes, memoise the communication meet per
    /// set of sources until one of them changes, and a round-robin sweep
    /// skips a receiver none of whose sources' inputs changed.
    fn comm_transfer(&self, node: NodeId, input: &Self::Fact) -> Self::CommFact;

    /// Translate a fact across a call or return edge (actual↔formal
    /// mapping), in place. `out` is a scratch fact the solver reuses; it
    /// arrives equal to `fact`, and the translation edits it into the fact
    /// the edge delivers. The default delivers `fact` unchanged. Only
    /// `Call` and `Return` edges are passed here: a `Flow` edge delivers
    /// its source's fact as it is.
    ///
    /// The result must depend only on `edge` and `fact`: a round-robin
    /// sweep skips a node none of whose upstream outputs changed, keeping
    /// the input met from the last translations.
    fn translate_into(&self, edge: &Edge, fact: &Self::Fact, out: &mut Self::Fact) {
        let _ = (edge, fact, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EdgeKind;

    /// A trivial reachability problem used to exercise defaults.
    struct Reach;

    impl Dataflow for Reach {
        type Fact = bool;
        type CommFact = ();

        fn direction(&self) -> Direction {
            Direction::Forward
        }

        fn top(&self) -> bool {
            false
        }

        fn boundary(&self) -> bool {
            true
        }

        fn meet_into(&self, dst: &mut bool, src: &bool) -> bool {
            let changed = !*dst && *src;
            *dst |= *src;
            changed
        }

        fn transfer(&self, _node: NodeId, _input: &bool, _comm: &(), _out: &mut bool) {}

        fn comm_transfer(&self, _node: NodeId, _input: &bool) {}
    }

    #[test]
    fn default_translate_is_identity() {
        let p = Reach;
        let e = Edge {
            from: NodeId(0),
            to: NodeId(1),
            kind: EdgeKind::Call { site: 0 },
        };
        let mut out = true;
        p.translate_into(&e, &true, &mut out);
        assert!(out);
    }

    #[test]
    fn meet_contract() {
        let p = Reach;
        let mut d = false;
        assert!(p.meet_into(&mut d, &true));
        assert!(!p.meet_into(&mut d, &true));
        assert!(!p.meet_into(&mut d, &false));
    }
}
