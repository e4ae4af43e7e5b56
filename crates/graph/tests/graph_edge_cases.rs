//! Edge-case integration tests for graph construction: cloning explosion
//! guards, deep wrapper chains, graph statistics, and DOT output on the
//! real benchmark programs.

use mpi_dfa_core::graph::{EdgeKind, FlowGraph, NodeId};
use mpi_dfa_graph::icfg::{Icfg, IcfgError, ProgramIr};
use mpi_dfa_graph::mpi::{MpiIcfg, SyntacticConsts};

/// A chain of wrappers that fans out 3× per level: cloning at high levels
/// multiplies instances 3^k.
fn fanout_src(levels: usize) -> String {
    let mut s = String::from("program fan\nglobal x: real;\nsub l0() { send(x, 1, 1); }\n");
    for i in 1..=levels {
        s.push_str(&format!(
            "sub l{i}() {{ call l{}(); call l{}(); call l{}(); }}\n",
            i - 1,
            i - 1,
            i - 1
        ));
    }
    s.push_str(&format!("sub main() {{ call l{levels}(); }}\n"));
    s
}

#[test]
fn exponential_cloning_is_bounded_by_the_node_cap() {
    // 3^13 leaf instances would be ~1.6M × 3+ nodes — beyond the cap.
    let ir = ProgramIr::from_source(&fanout_src(13)).unwrap();
    match Icfg::build(ir, "main", 14) {
        Err(IcfgError::TooManyNodes(n)) => assert!(n > 1_000_000),
        other => panic!("expected TooManyNodes, got {other:?}"),
    }
}

#[test]
fn moderate_cloning_multiplies_instances_exactly() {
    let ir = ProgramIr::from_source(&fanout_src(3)).unwrap();
    // Level 4 clones l0..l3 (distances 0..3): instances are
    // main + l3 + 3×l2 + 9×l1 + 27×l0.
    let g = Icfg::build(ir.clone(), "main", 4).unwrap();
    assert_eq!(g.instances.len(), 1 + 1 + 3 + 9 + 27);
    assert_eq!(g.mpi_nodes().len(), 27);
    // Level 1 clones only l0 — but each is reached from a single shared l1
    // call site, so there are exactly 3 clones (l1's three sites).
    let g1 = Icfg::build(ir, "main", 1).unwrap();
    assert_eq!(g1.mpi_nodes().len(), 3);
}

#[test]
fn num_edges_counts_every_kind() {
    let ir = ProgramIr::from_source(
        "program p global x: real;\n\
         sub f() { send(x, 1, 1); }\n\
         sub main() { call f(); recv(x, 0, 1); }",
    )
    .unwrap();
    let icfg = Icfg::build(ir, "main", 0).unwrap();
    let plain = icfg.num_edges();
    let mpi = MpiIcfg::build(icfg, &SyntacticConsts);
    // Matching adds classes, not edges: the edge count stays the control
    // count and the pair count is `comm_edges.len()`.
    assert_eq!(mpi.num_edges(), plain);
    assert_eq!(mpi.comm_edges.len(), 1);
}

#[test]
fn in_and_out_edge_tables_are_consistent() {
    for (name, context, clone) in [
        ("lu", "ssor", 2),
        ("mg", "mg3P", 3),
        ("sweep3d", "sweep", 2),
    ] {
        let ir = mpi_dfa_suite::programs::ir(name);
        let g = MpiIcfg::build(Icfg::build(ir, context, clone).unwrap(), &SyntacticConsts);
        let mut out_count = 0usize;
        for i in 0..g.num_nodes() {
            let n = NodeId(i as u32);
            for e in g.out_edges(n) {
                assert_eq!(e.from, n);
                assert!(
                    g.in_edges(e.to).contains(e),
                    "{name}: missing mirror in-edge"
                );
                out_count += 1;
            }
        }
        let in_count: usize = (0..g.num_nodes())
            .map(|i| g.in_edges(NodeId(i as u32)).len())
            .sum();
        assert_eq!(out_count, in_count, "{name}");
    }
}

#[test]
fn call_and_return_edges_pair_up() {
    let ir = mpi_dfa_suite::programs::ir("mg");
    let g = Icfg::build(ir, "mg3P", 3).unwrap();
    let mut calls = std::collections::HashMap::new();
    let mut returns = std::collections::HashMap::new();
    for i in 0..g.num_nodes() {
        for e in g.out_edges(NodeId(i as u32)) {
            match e.kind {
                EdgeKind::Call { site } => {
                    assert!(
                        calls.insert(site, *e).is_none(),
                        "duplicate call edge for site"
                    );
                }
                EdgeKind::Return { site } => {
                    assert!(returns.insert(site, *e).is_none());
                }
                _ => {}
            }
        }
    }
    assert_eq!(calls.len(), returns.len());
    assert_eq!(calls.len(), g.call_sites.len());
    for (site, call) in &calls {
        let ret = &returns[site];
        let cs = g.call_site(*site);
        assert_eq!(call.to, cs.callee_entry);
        assert_eq!(ret.from, cs.callee_exit);
        assert_eq!(g.proc_of(call.to), cs.callee);
    }
}

#[test]
fn dot_renders_every_benchmark() {
    for (name, _) in mpi_dfa_suite::programs::ALL {
        // Use the shallowest experiment config for each program.
        let (context, clone) = mpi_dfa_suite::all_experiments()
            .into_iter()
            .find(|e| e.program == *name)
            .map(|e| (e.context, e.clone_level))
            .unwrap_or(("main", 0));
        let ir = mpi_dfa_suite::programs::ir(name);
        let g = MpiIcfg::build(Icfg::build(ir, context, clone).unwrap(), &SyntacticConsts);
        let dot = mpi_dfa_graph::dot::mpi_icfg_to_dot(&g, name);
        assert!(dot.starts_with("digraph"), "{name}");
        assert_eq!(dot.matches('{').count(), dot.matches('}').count(), "{name}");
    }
}

#[test]
fn context_entry_exit_are_stable_across_rebuilds() {
    let ir = mpi_dfa_suite::programs::ir("cg");
    let a = Icfg::build(ir.clone(), "conj_grad", 0).unwrap();
    let b = Icfg::build(ir, "conj_grad", 0).unwrap();
    assert_eq!(a.context_entry(), b.context_entry());
    assert_eq!(a.context_exit(), b.context_exit());
    assert_eq!(a.num_nodes(), b.num_nodes());
    assert_eq!(a.num_edges(), b.num_edges());
}
