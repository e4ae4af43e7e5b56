//! A solver visit allocates nothing: the node update builds its met input
//! and transfer output in reusable buffers, reads the communication meet
//! from its receiver class, and installs facts by swapping. So when a solve
//! runs more passes, the allocations `Solver::run` makes stay flat; only
//! the per-pass `pass_deltas` vector grows (a few reallocations).
//!
//! The problem is a forward union over `VarSet` on a flow loop whose latch
//! shifts its set up by one bit per trip (so the pass count follows the
//! shift limit), with an all-pairs communication clique, self edges
//! included, inside the loop.

use mpi_dfa_core::graph::{NodeId, SimpleGraph};
use mpi_dfa_core::lattice::BoolOr;
use mpi_dfa_core::problem::{Dataflow, Direction};
use mpi_dfa_core::solver::{Solution, Solver, Strategy};
use mpi_dfa_core::varset::VarSet;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Wraps [`System`], counting the allocations (fresh, zeroed and resized)
/// made by a thread while its `COUNTING` flag is set.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn bump() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the only additions are a
// const-initialised thread-local read and a relaxed atomic counter update,
// neither of which allocates or touches the memory being managed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const UNIVERSE: usize = 128;
/// Set by every clique member whose class meet says some member's input
/// holds [`SIGNAL`].
const HEARD: usize = 127;
const SIGNAL: usize = 3;

/// Entry 0 → header 1 → clique 2..=7 (a flow chain) → latch 8 → header;
/// header → exit 9. Nodes 2..=7 are an all-pairs comm clique with self
/// edges (36 comm edges, one receiver class).
fn graph() -> SimpleGraph {
    let mut g = SimpleGraph::new(10);
    g.flow(0, 1);
    for i in 1..8 {
        g.flow(i, i + 1);
    }
    g.flow(8, 1);
    g.flow(1, 9);
    for i in 2..=7 {
        for j in 2..=7 {
            g.comm(i, j, 0);
        }
    }
    g.set_entry(0);
    g.set_exit(9);
    g
}

struct Shift {
    /// The latch shifts bits below `limit` up by one per visit, so the
    /// solve needs about `limit` passes.
    limit: usize,
}

impl Dataflow for Shift {
    type Fact = VarSet;
    type CommFact = BoolOr;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn top(&self) -> VarSet {
        VarSet::empty(UNIVERSE)
    }

    fn boundary(&self) -> VarSet {
        VarSet::empty(UNIVERSE)
    }

    fn meet_into(&self, dst: &mut VarSet, src: &VarSet) -> bool {
        dst.union_into(src)
    }

    fn transfer(&self, node: NodeId, _input: &VarSet, comm: &BoolOr, out: &mut VarSet) {
        match node.0 {
            0 => {
                out.insert(0);
            }
            2..=7 if comm.0 => {
                out.insert(HEARD);
            }
            8 => {
                for i in (0..self.limit).rev() {
                    if out.contains(i) {
                        out.insert(i + 1);
                    }
                }
            }
            _ => {}
        }
    }

    fn comm_transfer(&self, _node: NodeId, input: &VarSet) -> BoolOr {
        BoolOr(input.contains(SIGNAL))
    }
}

/// Solve with allocation counting on; returns the solution and the
/// allocations `Solver::run` made.
fn counted_run(problem: &Shift, g: &SimpleGraph, strategy: Strategy) -> (Solution<VarSet>, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let sol = Solver::new(problem, g).strategy(strategy).run();
    COUNTING.with(|c| c.set(false));
    (sol, ALLOCS.load(Ordering::Relaxed) - before)
}

#[test]
fn more_passes_cost_no_more_allocations() {
    let g = graph();
    for strategy in [Strategy::RoundRobin, Strategy::Region] {
        let (short, short_allocs) = counted_run(&Shift { limit: 8 }, &g, strategy);
        let (long, long_allocs) = counted_run(&Shift { limit: 100 }, &g, strategy);
        for sol in [&short, &long] {
            assert!(sol.stats.converged, "{strategy}");
            assert!(
                sol.output[9].contains(HEARD),
                "{strategy}: the clique spoke"
            );
        }
        assert!(
            long.stats.node_visits >= 5 * short.stats.node_visits,
            "{strategy}: {} vs {} visits",
            long.stats.node_visits,
            short.stats.node_visits
        );
        assert!(
            long_allocs <= short_allocs + 8,
            "{strategy}: {short_allocs} allocations for {} visits, {long_allocs} for {}",
            short.stats.node_visits,
            long.stats.node_visits
        );
    }
}
