//! The IR layer's size estimate against the bytes a `ProgramIr` really
//! holds.
//!
//! The service's IR cache is bounded in bytes, and it weighs each
//! `ProgramIr` by [`ir_weight`], an estimate from the IR's own CFG node
//! count rather than a walk over its allocations. This test builds each
//! bundled program and three generated sizes under a counting allocator,
//! keeps the IR alive, and requires the estimate to stay within 2× of the
//! live bytes the build left behind, either way. A layer budget then
//! means what it says to within that factor.

use mpi_dfa_graph::icfg::ProgramIr;
use mpi_dfa_service::cache::ir_weight;
use mpi_dfa_suite::gen::{generate, GenConfig};
use mpi_dfa_suite::programs;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Wraps [`System`], keeping a per-thread running sum of the bytes the
/// thread allocated minus the bytes it freed, while its `COUNTING` flag is
/// set. Per thread, so the test harness's own threads do not disturb it.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn account(delta: i64) {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = LIVE.try_with(|n| n.set(n.get() + delta));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the only additions are
// reads and writes of two const-initialised thread-local cells, neither of
// which allocates or touches the memory being managed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        account(layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        account(layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        account(new_size as i64 - layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        account(-(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Build `source`'s IR and return it with the bytes still allocated once
/// compilation's temporaries are gone.
fn live_bytes(source: &str) -> (std::sync::Arc<ProgramIr>, i64) {
    LIVE.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let ir = ProgramIr::from_source(source).expect("program compiles");
    COUNTING.with(|c| c.set(false));
    (ir, LIVE.with(Cell::get))
}

#[test]
fn the_ir_estimate_stays_within_twice_the_live_bytes() {
    let mut inputs: Vec<(String, String)> = programs::ALL
        .iter()
        .map(|(name, src)| (name.to_string(), src.to_string()))
        .collect();
    for factor in [1, 2, 4] {
        inputs.push((
            format!("generate(0, scaled({factor}))"),
            generate(0, &GenConfig::scaled(factor)),
        ));
    }
    let mut report = String::new();
    for (name, source) in &inputs {
        let (ir, live) = live_bytes(source);
        let estimate = ir_weight(&ir) as f64;
        let nodes: usize = ir.cfgs.iter().map(|c| c.num_nodes()).sum();
        let ratio = estimate / live as f64;
        report.push_str(&format!(
            "{name}: {nodes} nodes, live {live} B ({:.0} B/node), estimate {estimate} B, ratio {ratio:.2}\n",
            live as f64 / nodes as f64
        ));
        assert!(
            (0.5..=2.0).contains(&ratio),
            "{name}: estimate {estimate} B is not within 2x of {live} live bytes\n{report}"
        );
    }
    println!("{report}");
}
