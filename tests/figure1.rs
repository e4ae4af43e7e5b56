//! End-to-end integration test on the paper's Figure 1 program: every claim
//! the paper makes about this example, checked across all crates at once.

use mpi_dfa::analyses::consts::{self, Value};
use mpi_dfa::analyses::slicing::forward_slice;
use mpi_dfa::core::lattice::ConstLattice;
use mpi_dfa::graph::node::{MpiKind, NodeKind};
use mpi_dfa::lang::interp::{self, InterpConfig};
use mpi_dfa::prelude::*;

fn figure1_src() -> &'static str {
    mpi_dfa::suite::programs::FIGURE1
}

fn mpi_icfg() -> MpiIcfg {
    let ir = ProgramIr::from_source(figure1_src()).unwrap();
    build_mpi_icfg(ir, "main", 0, Matching::ReachingConstants).unwrap()
}

fn find_mpi(g: &MpiIcfg, kind: MpiKind) -> mpi_dfa::core::NodeId {
    g.mpi_nodes()
        .iter()
        .copied()
        .find(|&n| matches!(&g.payload(n).kind, NodeKind::Mpi(m) if m.kind == kind))
        .unwrap_or_else(|| panic!("no {kind:?} node"))
}

#[test]
fn graph_has_one_p2p_communication_edge() {
    let g = mpi_icfg();
    let stats = g.stats();
    assert_eq!(stats.p2p_sends, 1);
    assert_eq!(stats.p2p_recvs, 1);
    assert_eq!(stats.reduces, 1);
    // One send→recv edge plus the reduce self edge.
    assert_eq!(g.comm_edges.len(), 2);
}

#[test]
fn reaching_constants_propagate_one_over_the_comm_edge() {
    // x = 0; x = x + 1 → the send transmits the constant 1, and y receives
    // it (the paper walks through exactly this lattice value flow).
    let g = mpi_icfg();
    let sol = consts::analyze_mpi(&g);
    let recv = find_mpi(&g, MpiKind::Recv);
    let y = g.resolve_at(recv, "y").unwrap();
    assert_eq!(sol.after(recv).get(y), &ConstLattice::Const(Value(1.0)));
    // And b = 7 ⊓ (x*3 = 3) merges to ⊥ at the reduce.
    let reduce = find_mpi(&g, MpiKind::Reduce);
    let b = g.resolve_at(reduce, "b").unwrap();
    assert!(sol.before(reduce).get(b).is_bottom());
}

#[test]
fn activity_naive_is_incorrect_framework_is_correct() {
    let ir = ProgramIr::from_source(figure1_src()).unwrap();
    let config = ActivityConfig::new(["x"], ["f"]);

    let icfg = Icfg::build(ir.clone(), "main", 0).unwrap();
    let naive = activity::analyze_icfg(&icfg, Mode::Naive, &config).unwrap();
    assert!(
        naive.active.is_empty(),
        "paper: naive analysis concludes no active variables"
    );

    let g = mpi_icfg();
    let fw = activity::analyze_mpi(&g, &config).unwrap();
    let names: Vec<String> = fw
        .active_locs()
        .iter()
        .map(|&l| ir.locs.info(l).name.clone())
        .collect();
    for v in ["x", "y", "z", "f"] {
        assert!(
            names.contains(&v.to_string()),
            "{v} must be active, got {names:?}"
        );
    }
    assert_eq!(fw.active_bytes, 32);
}

#[test]
fn forward_vary_set_matches_paper() {
    // "the forward analysis should determine that the variables x, y, z, b,
    // and f depend on the input x"
    let ir = ProgramIr::from_source(figure1_src()).unwrap();
    let g = mpi_icfg();
    let fw = activity::analyze_mpi(&g, &ActivityConfig::new(["x"], ["f"])).unwrap();
    let exit = g.context_exit();
    let vary_names: Vec<String> = fw
        .vary
        .before(exit)
        .iter()
        .map(|i| ir.locs.info(mpi_dfa::graph::Loc(i as u32)).name.clone())
        .collect();
    for v in ["x", "y", "z", "b", "f"] {
        assert!(
            vary_names.contains(&v.to_string()),
            "{v} should vary at exit: {vary_names:?}"
        );
    }
}

#[test]
fn backward_useful_set_matches_paper() {
    // "the backward analysis should determine that variables x, y, b, and z
    // are needed for the computation of f"
    let ir = ProgramIr::from_source(figure1_src()).unwrap();
    let g = mpi_icfg();
    let fw = activity::analyze_mpi(&g, &ActivityConfig::new(["x"], ["f"])).unwrap();
    // Union over all program points (x's usefulness starts below its own
    // `x = 0` initialization, so the entry point alone would miss it).
    let mut ever = mpi_dfa::core::VarSet::empty(ir.locs.len());
    for n in 0..mpi_dfa::core::FlowGraph::num_nodes(&g) {
        ever.union_into(&fw.useful.input[n]);
        ever.union_into(&fw.useful.output[n]);
    }
    let useful_names: Vec<String> = ever
        .iter()
        .map(|i| ir.locs.info(mpi_dfa::graph::Loc(i as u32)).name.clone())
        .collect();
    for v in ["x", "y", "b", "z", "f"] {
        assert!(
            useful_names.contains(&v.to_string()),
            "{v} should be useful somewhere: {useful_names:?}"
        );
    }
}

#[test]
fn forward_slice_statement_sets_match_paper() {
    // Paper numbering 1..13 with code statements 1,5,6,7,9,10,12 maps to
    // SMPL ids 0,4,5,6,7,8,9 (plus the trailing print, id 10, which uses f).
    let ir = ProgramIr::from_source(figure1_src()).unwrap();
    let icfg = Icfg::build(ir.clone(), "main", 0).unwrap();
    let wrong: Vec<u32> = forward_slice(&icfg, &icfg, StmtId(0))
        .iter()
        .map(|s| s.0)
        .collect();
    assert_eq!(
        wrong,
        vec![0, 4, 5, 6],
        "CFG-only slice misses the receive side"
    );

    let g = mpi_icfg();
    let right: Vec<u32> = forward_slice(&g, g.icfg(), StmtId(0))
        .iter()
        .map(|s| s.0)
        .collect();
    assert_eq!(right, vec![0, 4, 5, 6, 7, 8, 9, 10]);
}

#[test]
fn program_executes_correctly_under_the_interpreter() {
    let unit = compile(figure1_src()).unwrap();
    let results = interp::run(
        &unit.program,
        &InterpConfig {
            nprocs: 2,
            ..Default::default()
        },
    )
    .unwrap();
    // rank 0: x=1, sends it; z stays 2. rank 1: y=1, z = b*y = 7.
    // f = reduce(SUM, z) on root = 2 + 7 = 9.
    assert_eq!(results[0].printed, vec![9.0]);
    // Non-root's f is untouched (reduce writes the root only).
    assert_eq!(results[1].printed, vec![0.0]);
    assert_eq!(results[0].sends, 1);
    assert!(results[1].recvs >= 1);
}

#[test]
fn dot_export_shows_the_communication_edge() {
    let g = mpi_icfg();
    let dot = mpi_dfa::graph::dot::mpi_icfg_to_dot(&g, "figure1");
    assert!(dot.contains("send(x)"));
    assert!(dot.contains("recv(y)"));
    assert!(dot.contains("style=dashed"));
}
