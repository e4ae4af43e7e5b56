//! The data-flow problem specification trait.
//!
//! Following the paper (Section 4.3), a client specifies:
//!
//! * the usual ingredients — direction, lattice top, boundary fact, meet,
//!   and per-node transfer function;
//! * interprocedural fact *translation* across call/return edges
//!   (caller↔callee mapping);
//! * and, new for the MPI-ICFG, a **communication transfer function**
//!   `f_comm` producing the fact propagated over communication edges, plus
//!   the receive-side use of those facts (folded into `transfer` via the
//!   `comm` argument).
//!
//! Analyses that do not use communication edges set `CommFact = ()` and keep
//! the default `comm_transfer`; the solver then never materializes comm facts.

use crate::graph::{Edge, NodeId};

/// Direction of propagation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    Forward,
    Backward,
}

/// A data-flow analysis over a [`crate::graph::FlowGraph`].
///
/// `Fact` is the per-program-point value (the IN/OUT set); `CommFact` is the
/// value `f_comm` computes at a communication source and the receive
/// transfer consumes.
///
/// Monotonicity contract: `transfer` and `translate` must be monotone in
/// their fact argument and the fact lattice must have finite height,
/// otherwise the solver may hit its pass bound and report non-convergence.
pub trait Dataflow {
    /// The per-node data-flow fact.
    type Fact: Clone + PartialEq;

    /// The fact propagated over communication edges (`()` when unused).
    type CommFact: Clone;

    /// Propagation direction.
    fn direction(&self) -> Direction;

    /// Lattice top: the initial value of every IN/OUT set.
    fn top(&self) -> Self::Fact;

    /// Fact at the analysis boundary: the IN set of entry nodes (forward) or
    /// the OUT set of exit nodes (backward).
    fn boundary(&self) -> Self::Fact;

    /// `dst ⊓= src`; must return true iff `dst` changed.
    fn meet_into(&self, dst: &mut Self::Fact, src: &Self::Fact) -> bool;

    /// The node transfer function. `input` is the IN set (forward) or OUT
    /// set (backward); `comm` holds one entry per incoming communication
    /// edge (direction-adjusted), produced by [`Dataflow::comm_transfer`] at
    /// the other endpoint. Non-communication nodes receive an empty slice.
    fn transfer(&self, node: NodeId, input: &Self::Fact, comm: &[Self::CommFact]) -> Self::Fact;

    /// The communication transfer function `f_comm`: computes the fact sent
    /// over outgoing (direction-adjusted) communication edges from this
    /// node's `input` fact. Only called for nodes that have communication
    /// edges.
    ///
    /// The result must depend only on `node` and `input`: every solver
    /// strategy memoises it per source node and re-evaluates it only after
    /// that node's input fact changes, handing clones of the memoised fact
    /// to every comm edge leaving the node.
    fn comm_transfer(&self, node: NodeId, input: &Self::Fact) -> Self::CommFact;

    /// Translate a fact across a call or return edge (actual↔formal
    /// mapping). `None` means "use the fact unchanged" and lets the solver
    /// skip a clone. `Flow` edges are never passed here.
    fn translate(&self, edge: &Edge, fact: &Self::Fact) -> Option<Self::Fact> {
        let _ = (edge, fact);
        None
    }

    /// Stable content fingerprint of node `n`'s transfer semantics, used by
    /// the incremental solver (`Solver::seed`) to recognize unchanged SCC
    /// regions across two builds of "the same" graph.
    ///
    /// The contract: if two nodes (possibly in different graphs) return the
    /// same fingerprint, their `transfer`, `comm_transfer`, and `translate`
    /// behavior must be identical for identical inputs. The fingerprint must
    /// therefore cover everything those functions read for the node —
    /// operand locations, callee identity, argument bindings — while
    /// excluding unstable identifiers (raw statement ids, spans, node ids)
    /// that shift under unrelated edits.
    ///
    /// Returning `None` (the default) declares the problem non-fingerprintable
    /// and disables incremental seeding: `Solver::seed` fails with
    /// [`crate::solver::SolverConfigError::FingerprintsUnavailable`].
    fn node_fingerprint(&self, n: NodeId) -> Option<u64> {
        let _ = n;
        None
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

        fn transfer(&self, _node: NodeId, input: &bool, _comm: &[()]) -> bool {
            *input
        }

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
        assert_eq!(p.translate(&e, &true), None);
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
