//! Bitwidth reads each expression's operands by position; the reference
//! (`oracle/bitwidth_ref.rs`) resolves every variable by name. Both must
//! reach the same fact at every node, under both width modes, on the
//! bundled programs and on generated programs at clone levels 0–2.

#[path = "oracle/bitwidth_ref.rs"]
mod bitwidth_ref;

use bitwidth_ref::RefBitwidth;
use mpi_dfa_analyses::bitwidth::{self, WidthMode};
use mpi_dfa_analyses::mpi_match::{build_mpi_icfg, Matching};
use mpi_dfa_core::graph::{FlowGraph, NodeId};
use mpi_dfa_core::solver::Solver;
use mpi_dfa_graph::icfg::ProgramIr;
use mpi_dfa_suite::gen::{generate, GenConfig};
use mpi_dfa_suite::programs;

fn assert_same_widths(label: &str, ir: std::sync::Arc<ProgramIr>, context: &str, level: usize) {
    let mpi = build_mpi_icfg(ir, context, level, Matching::ReachingConstants).unwrap();
    for mode in [WidthMode::Conservative, WidthMode::MpiIcfg] {
        let got = bitwidth::analyze(&mpi, mpi.icfg(), mode).solution;
        let want = Solver::new(&RefBitwidth::new(mpi.icfg(), mode), &mpi).run();
        for i in 0..mpi.num_nodes() {
            let n = NodeId(i as u32);
            assert_eq!(got.before(n), want.before(n), "{label} {mode:?} before {n}");
            assert_eq!(got.after(n), want.after(n), "{label} {mode:?} after {n}");
        }
        assert_eq!(got.stats.node_visits, want.stats.node_visits, "{label}");
    }
}

#[test]
fn bundled_programs_have_equal_widths_at_every_node() {
    for spec in mpi_dfa_suite::experiments::all() {
        for level in 0..=2 {
            let label = format!("{} level {level}", spec.id);
            assert_same_widths(&label, programs::ir(spec.program), spec.context, level);
        }
    }
}

#[test]
fn generated_programs_have_equal_widths_at_every_node() {
    for seed in 0..60u64 {
        let src = generate(seed, &GenConfig::default());
        let ir = ProgramIr::from_source(&src).unwrap();
        assert_same_widths(&format!("gen seed {seed}"), ir, "main", (seed % 3) as usize);
    }
}
