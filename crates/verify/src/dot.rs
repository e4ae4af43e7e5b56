//! DOT overlay of verify findings on the MPI-ICFG.
//!
//! Same layout conventions as `mpi_dfa_graph::dot` (boxes clustered by
//! procedure instance, comm edges dashed red), plus:
//!
//! * unmatched sends/receives and out-of-range ranks fill **light red**;
//! * candidate deadlock-cycle members fill **orange**;
//! * the wait-for edges of each reported cycle are drawn as bold red
//!   `waits` edges (they are analysis edges, not graph edges).

use crate::VerifyReport;
use mpi_dfa_core::graph::{EdgeKind, FlowGraph, NodeId};
use mpi_dfa_graph::dot::escape;
use mpi_dfa_graph::mpi::MpiIcfg;
use std::collections::HashSet;
use std::fmt::Write;

/// Render the MPI-ICFG with verify findings highlighted.
pub fn overlay(g: &MpiIcfg, report: &VerifyReport, title: &str) -> String {
    let icfg = g.icfg();
    let mut unmatched: HashSet<u32> = HashSet::new();
    for d in report
        .matchset
        .unmatched_sends
        .iter()
        .chain(&report.matchset.unmatched_recvs)
        .chain(&report.matchset.rank_diags)
        .chain(&report.matchset.loop_diags)
        .chain(&report.matchset.collective_diags)
    {
        unmatched.insert(d.node);
    }
    let mut cyclic: HashSet<u32> = HashSet::new();
    let mut wait_edges: Vec<(u32, u32)> = Vec::new();
    for cycle in &report.deadlock.cycles {
        for (i, n) in cycle.nodes.iter().enumerate() {
            cyclic.insert(n.node);
            let next = &cycle.nodes[(i + 1) % cycle.nodes.len()];
            wait_edges.push((n.node, next.node));
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", escape(title));
    let _ = writeln!(
        out,
        "  node [shape=box, fontname=\"monospace\", fontsize=10];"
    );
    let _ = writeln!(
        out,
        "  // verify overlay: red = unmatched/range finding, orange = deadlock-cycle member;"
    );
    let _ = writeln!(
        out,
        "  // bold red \"waits\" edges trace each candidate wait-for cycle."
    );

    for (i, inst) in icfg.instances.iter().enumerate() {
        let name = icfg.ir.proc_name(inst.proc);
        let _ = writeln!(out, "  subgraph \"cluster_{i}\" {{");
        let _ = writeln!(out, "    label=\"{} (inst {i})\";", escape(name));
        let len = icfg.ir.cfgs[inst.proc.index()].num_nodes();
        for local in 0..len {
            let n = NodeId(inst.base + local as u32);
            let style = if unmatched.contains(&n.0) {
                ", style=filled, fillcolor=lightcoral"
            } else if cyclic.contains(&n.0) {
                ", style=filled, fillcolor=orange"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "    n{} [label=\"{}\"{style}];",
                n.0,
                escape(&icfg.payload(n).label())
            );
        }
        let _ = writeln!(out, "  }}");
    }

    for n in icfg.nodes() {
        for e in icfg.out_edges(n) {
            let (style, extra) = match e.kind {
                EdgeKind::Flow => ("solid", ""),
                EdgeKind::Call { .. } | EdgeKind::Return { .. } => ("dotted", ""),
                EdgeKind::Comm { .. } => ("dashed", ", color=red, constraint=false"),
            };
            let _ = writeln!(
                out,
                "  n{} -> n{} [style={style}{extra}];",
                e.from.0, e.to.0
            );
        }
    }
    for (from, to) in &wait_edges {
        let _ = writeln!(
            out,
            "  n{from} -> n{to} [style=bold, color=red, constraint=false, label=\"waits\", fontcolor=red];"
        );
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::build;
    use crate::{verify_static, VerifyConfig};
    use mpi_dfa_core::budget::Budget;

    #[test]
    fn overlay_highlights_cycles_and_unmatched() {
        let g = build(crate::corpus::HEAD_TO_HEAD);
        let r = verify_static(&g, &VerifyConfig::default(), &Budget::unlimited())
            .map_err(|e| e.to_string())
            .unwrap();
        let dot = overlay(&g, &r, "head-to-head");
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("fillcolor=orange"), "{dot}");
        assert!(dot.contains("label=\"waits\""), "{dot}");
        assert_eq!(dot.matches('{').count(), dot.matches('}').count());

        let g2 = build(crate::corpus::TAG_MISMATCH);
        let r2 = verify_static(&g2, &VerifyConfig::default(), &Budget::unlimited())
            .map_err(|e| e.to_string())
            .unwrap();
        let dot2 = overlay(&g2, &r2, "tag-mismatch");
        assert!(dot2.contains("fillcolor=lightcoral"), "{dot2}");
    }
}
