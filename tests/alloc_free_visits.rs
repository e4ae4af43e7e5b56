//! A solver visit allocates nothing: the node update builds its met input,
//! its call/return translations and its transfer output in reusable
//! buffers, reads the communication meet from its receiver class, and
//! installs facts by swapping or copying. So when a solve runs more
//! passes, the allocations a round-robin run or a demand for every node
//! makes stay flat; only the per-pass `pass_deltas` vector grows (a few
//! reallocations).
//!
//! Two problems: a forward union over `VarSet` on a flow loop whose latch
//! shifts its set up by one bit per trip (so the pass count follows the
//! shift limit), once with an all-pairs communication clique inside the
//! loop and once with a call and a return edge in it; and reaching
//! constants over the ICFG of a program whose loop, which calls a
//! subroutine, hands ⊥ down a chain of copies one link per trip.

use mpi_dfa_analyses::consts::ReachingConsts;
use mpi_dfa_core::graph::{Edge, EdgeKind, FlowGraph, NodeId, SimpleGraph};
use mpi_dfa_core::lattice::BoolOr;
use mpi_dfa_core::problem::{Dataflow, Direction};
use mpi_dfa_core::solver::{Solution, Solver};
use mpi_dfa_core::varset::VarSet;
use mpi_dfa_graph::icfg::{Icfg, ProgramIr};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Wraps [`System`], counting the allocations (fresh, zeroed and resized)
/// made by a thread while its `COUNTING` flag is set. The count is per
/// thread too, so tests running in parallel do not see each other's.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the only additions are
// reads and writes of two const-initialised thread-local cells, neither of
// which allocates or touches the memory being managed.
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
/// Added by every translation across a call edge, and a return edge.
const CALLED: usize = 126;
const RETURNED: usize = 125;

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
            g.comm(i, j);
        }
    }
    g.set_entry(0);
    g.set_exit(9);
    g
}

/// The same loop with a call instead of the clique: entry 0 → header 1 →
/// call site 2 =call=> callee entry 3 → callee exit 4 =return=> after-call
/// 5 → 6 → 7 → latch 8 → header; header → exit 9.
fn call_graph() -> SimpleGraph {
    let mut g = SimpleGraph::new(10);
    for (a, b) in [
        (0, 1),
        (1, 2),
        (3, 4),
        (5, 6),
        (6, 7),
        (7, 8),
        (8, 1),
        (1, 9),
    ] {
        g.flow(a, b);
    }
    g.add_edge(2, 3, EdgeKind::Call { site: 0 });
    g.add_edge(4, 5, EdgeKind::Return { site: 0 });
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

    fn translate_into(&self, edge: &Edge, _fact: &VarSet, out: &mut VarSet) {
        match edge.kind {
            EdgeKind::Call { .. } => out.insert(CALLED),
            EdgeKind::Return { .. } => out.insert(RETURNED),
            EdgeKind::Flow => unreachable!("only call/return"),
        };
    }
}

/// The two engines: the round-robin full solve, and the region engine as
/// a demand for every node.
const ENGINES: [&str; 2] = ["round-robin", "demand"];

/// Solve with allocation counting on; returns the solution and the
/// allocations the solve made.
fn counted_run<P: Dataflow, G: FlowGraph>(
    problem: &P,
    g: &G,
    engine: &str,
) -> (Solution<P::Fact>, u64) {
    let before = ALLOCS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    let solver = Solver::new(problem, g);
    let sol = match engine {
        "round-robin" => solver.run(),
        _ => {
            (1..g.num_nodes() as u32)
                .try_fold(solver.demand(NodeId(0)).unwrap(), |d, n| {
                    d.demand(NodeId(n))
                })
                .unwrap()
                .run()
                .solution
        }
    };
    COUNTING.with(|c| c.set(false));
    (sol, ALLOCS.with(Cell::get) - before)
}

/// The allocation bound: a solve with at least five times the visits makes
/// at most 8 more allocations than the short one.
fn assert_flat(label: &str, short: (u64, u64), long: (u64, u64)) {
    let ((short_visits, short_allocs), (long_visits, long_allocs)) = (short, long);
    assert!(
        long_visits >= 5 * short_visits,
        "{label}: {long_visits} vs {short_visits} visits"
    );
    assert!(
        long_allocs <= short_allocs + 8,
        "{label}: {short_allocs} allocations for {short_visits} visits, \
         {long_allocs} for {long_visits}"
    );
}

#[test]
fn more_passes_cost_no_more_allocations() {
    let g = graph();
    for strategy in ENGINES {
        let (short, short_allocs) = counted_run(&Shift { limit: 8 }, &g, strategy);
        let (long, long_allocs) = counted_run(&Shift { limit: 100 }, &g, strategy);
        for sol in [&short, &long] {
            assert!(sol.stats.converged, "{strategy}");
            assert!(
                sol.output[9].contains(HEARD),
                "{strategy}: the clique spoke"
            );
        }
        assert_flat(
            strategy,
            (short.stats.node_visits, short_allocs),
            (long.stats.node_visits, long_allocs),
        );
    }
}

#[test]
fn call_and_return_translations_allocate_nothing() {
    let g = call_graph();
    for strategy in ENGINES {
        let (short, short_allocs) = counted_run(&Shift { limit: 8 }, &g, strategy);
        let (long, long_allocs) = counted_run(&Shift { limit: 100 }, &g, strategy);
        for (sol, limit) in [(&short, 8), (&long, 100)] {
            assert!(sol.stats.converged, "{strategy}");
            for bit in [limit, CALLED, RETURNED] {
                assert!(sol.output[9].contains(bit), "{strategy}: bit {bit}");
            }
        }
        assert_flat(
            &format!("calls, {strategy}"),
            (short.stats.node_visits, short_allocs),
            (long.stats.node_visits, long_allocs),
        );
    }
}

/// A program whose loop copies `c0` (⊥, it is read) down a chain
/// `c1..c40` of constants and calls `bump` by reference and by value. With
/// the copies in `reverse` order, ⊥ moves one link per trip around the
/// loop; in forward order it runs the whole chain in one. Both programs
/// have the same nodes, locations and constants.
fn chain_program(reverse: bool) -> String {
    const LINKS: usize = 40;
    let mut src = String::from("program chain\nglobal s: real;\n");
    for j in 0..=LINKS {
        src += &format!("global c{j}: real;\n");
    }
    src += "sub bump(v: real, w: real) { v = v + w; }\nsub main() {\n  var i: int;\n  read(c0);\n  s = 0.0;\n";
    for j in 1..=LINKS {
        src += &format!("  c{j} = 1.0;\n");
    }
    src += "  for i = 1, 3 {\n";
    let mut links: Vec<usize> = (1..=LINKS).collect();
    if reverse {
        links.reverse();
    }
    for j in links {
        src += &format!("    c{j} = c{};\n", j - 1);
    }
    src += "    call bump(s, c1 * 2.0);\n  }\n  print(c40);\n}\n";
    src
}

#[test]
fn reaching_constants_visits_allocate_nothing() {
    let icfg = |reverse| {
        let ir = ProgramIr::from_source(&chain_program(reverse)).expect("compile");
        Icfg::build(ir, "main", 0).expect("icfg")
    };
    let (fast, slow) = (icfg(false), icfg(true));
    for strategy in ENGINES {
        let (short, short_allocs) = counted_run(&ReachingConsts::new(&fast), &fast, strategy);
        let (long, long_allocs) = counted_run(&ReachingConsts::new(&slow), &slow, strategy);
        for (sol, g) in [(&short, &fast), (&long, &slow)] {
            assert!(sol.stats.converged, "{strategy}");
            let c40 = g.resolve_at(g.context_exit(), "c40").expect("c40");
            assert_eq!(
                sol.input[g.context_exit().index()].get(c40),
                mpi_dfa_analyses::consts::ConstCell::BOTTOM,
                "{strategy}: ⊥ reached the end of the chain"
            );
        }
        assert_flat(
            &format!("consts, {strategy}"),
            (short.stats.node_visits, short_allocs),
            (long.stats.node_visits, long_allocs),
        );
    }
}
