//! Graphviz (DOT) export of ICFGs and MPI-ICFGs.
//!
//! Control-flow edges render solid, call/return edges dotted, and
//! communication edges dashed — matching the figures in the paper. Used by
//! the examples and handy when debugging benchmark programs.
//!
//! [`mpi_icfg_to_dot_heat`] additionally colours nodes by solver visit
//! count (a white→red ramp) and highlights communication edges that the
//! fixpoint never exercised, using the `per_node_visits` counters from
//! `ConvergenceStats` — the DOT face of the telemetry layer.

use crate::icfg::Icfg;
use crate::mpi::MpiIcfg;
use crate::node::NodeKind;
use mpi_dfa_core::graph::{EdgeKind, FlowGraph, NodeId};
use mpi_dfa_lang::pretty;
use std::fmt::Write;

/// Render an ICFG (optionally with its communication edges) to DOT.
pub fn icfg_to_dot(g: &Icfg, title: &str) -> String {
    render(g, title, None)
}

/// Render an MPI-ICFG to DOT (communication edges dashed red).
pub fn mpi_icfg_to_dot(g: &MpiIcfg, title: &str) -> String {
    icfg_to_dot(g.icfg(), title)
}

/// Render an MPI-ICFG with a heat overlay: each node is filled on a
/// white→red ramp proportional to `visits[node]` (typically
/// `ConvergenceStats::per_node_visits`, absorbed across the analyses of
/// interest), and communication edges whose endpoints the solver never
/// visited render grey and bold-labelled `never` so unmatched or
/// unreachable communication stands out. `visits` shorter than the node
/// count is treated as zero-extended.
pub fn mpi_icfg_to_dot_heat(g: &MpiIcfg, title: &str, visits: &[u64]) -> String {
    render(g.icfg(), title, Some(visits))
}

fn heat_fill(v: u64, max: u64) -> String {
    if v == 0 {
        return "gray92".to_string();
    }
    // HSV red ramp: saturation grows with relative heat, value stays high
    // so labels remain readable.
    let ratio = (v as f64 / max.max(1) as f64).clamp(0.0, 1.0);
    let sat = 0.12 + 0.88 * ratio;
    format!("0.000 {sat:.3} 1.000")
}

fn render(g: &Icfg, title: &str, heat: Option<&[u64]>) -> String {
    let visit = |n: NodeId| -> u64 {
        heat.and_then(|v| v.get(n.index()).copied())
            .unwrap_or_default()
    };
    let max_visits = heat
        .map(|v| v.iter().copied().max().unwrap_or(0))
        .unwrap_or(0);

    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", escape(title));
    let _ = writeln!(
        out,
        "  node [shape=box, fontname=\"monospace\", fontsize=10];"
    );
    if heat.is_some() {
        let _ = writeln!(
            out,
            "  // heat overlay: fill saturation ~ solver visit count (max {max_visits});"
        );
        let _ = writeln!(
            out,
            "  // grey nodes and grey comm edges were never visited by the fixpoint."
        );
    }

    // Cluster nodes by instance.
    for (i, inst) in g.instances.iter().enumerate() {
        let name = g.ir.proc_name(inst.proc);
        let _ = writeln!(out, "  subgraph \"cluster_{i}\" {{");
        let _ = writeln!(out, "    label=\"{} (inst {i})\";", escape(name));
        let len = g.ir.cfgs[inst.proc.index()].num_nodes();
        for local in 0..len {
            let n = NodeId(inst.base + local as u32);
            if heat.is_some() {
                let v = visit(n);
                let _ = writeln!(
                    out,
                    "    n{} [label=\"{}\", style=filled, fillcolor=\"{}\", tooltip=\"{} visits\"];",
                    n.0,
                    escape(&node_label(g, n)),
                    heat_fill(v, max_visits),
                    v
                );
            } else {
                let _ = writeln!(
                    out,
                    "    n{} [label=\"{}\"];",
                    n.0,
                    escape(&node_label(g, n))
                );
            }
        }
        let _ = writeln!(out, "  }}");
    }

    for n in g.nodes() {
        for e in g.out_edges(n) {
            let style = match e.kind {
                EdgeKind::Flow => "solid",
                EdgeKind::Call { .. } | EdgeKind::Return { .. } => "dotted",
                EdgeKind::Comm { .. } => "dashed",
            };
            let extra = if e.kind.is_comm() {
                if heat.is_some() && visit(e.from).min(visit(e.to)) == 0 {
                    // A comm edge whose endpoints the solver never reached:
                    // either dead code or a pairing no schedule exercises.
                    ", color=gray55, constraint=false, label=\"never\", fontcolor=gray40"
                } else {
                    ", color=red, constraint=false"
                }
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "  n{} -> n{} [style={style}{extra}];",
                e.from.0, e.to.0
            );
        }
    }
    let _ = writeln!(out, "}}");
    out
}

fn node_label(g: &Icfg, n: NodeId) -> String {
    let payload = g.payload(n);
    match &payload.kind {
        NodeKind::Entry => format!("entry {}", g.ir.proc_name(g.proc_of(n))),
        NodeKind::Exit => format!("exit {}", g.ir.proc_name(g.proc_of(n))),
        NodeKind::Assign { lhs, rhs } => {
            let name = &g.ir.locs.info(lhs.loc).name;
            format!("{name} = {}", pretty::expr_to_string(&rhs.expr))
        }
        NodeKind::Branch { cond } => format!("if ({})", pretty::expr_to_string(&cond.expr)),
        NodeKind::CallSite { site } => format!("call site {site}"),
        NodeKind::AfterCall { site } => format!("after call {site}"),
        NodeKind::Mpi(m) => {
            let buf = m
                .buf
                .as_ref()
                .map(|b| g.ir.locs.info(b.loc).name.clone())
                .unwrap_or_default();
            format!("{}({buf})", m.kind.mnemonic())
        }
        NodeKind::Read { target } => format!("read({})", g.ir.locs.info(target.loc).name),
        NodeKind::Print { value } => format!("print({})", pretty::expr_to_string(&value.expr)),
        NodeKind::Nop => "nop".to_string(),
    }
}

/// Escape a string for a double-quoted DOT ID. Backslashes and quotes get
/// backslash escapes; newlines become the DOT line-break escape `\n` and
/// other ASCII control characters are replaced with spaces — a raw newline
/// or control byte inside a quoted ID produces invalid `.dot` output in
/// several Graphviz consumers.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => {}
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out
}

/// Invert [`escape`] (modulo the lossy control-character replacement):
/// `\\` → `\`, `\"` → `"`, `\n` → newline. Used by the round-trip test to
/// prove escaping is injective on the printable + newline alphabet.
#[cfg(test)]
fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('\\') => out.push('\\'),
                Some('"') => out.push('"'),
                Some('n') => out.push('\n'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::icfg::ProgramIr;
    use crate::mpi::SyntacticConsts;

    fn figure1() -> MpiIcfg {
        let ir = ProgramIr::from_source(
            "program p global x: real; global y: real;\n\
             sub main() { if (rank() == 0) { send(x, 1, 7); } else { recv(y, 0, 7); } }",
        )
        .unwrap();
        MpiIcfg::build(
            crate::icfg::Icfg::build(ir, "main", 0).unwrap(),
            &SyntacticConsts,
        )
    }

    #[test]
    fn dot_output_is_well_formed() {
        let dot = mpi_icfg_to_dot(&figure1(), "figure1");
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("style=dashed"), "comm edge rendered dashed");
        assert!(dot.contains("send(x)"));
        assert!(dot.contains("recv(y)"));
        assert!(dot.ends_with("}\n"));
        // Balanced braces.
        assert_eq!(dot.matches('{').count(), dot.matches('}').count());
    }

    #[test]
    fn quotes_escaped() {
        assert_eq!(escape("a\"b"), "a\\\"b");
    }

    #[test]
    fn newlines_and_controls_cannot_leak_into_quoted_ids() {
        // Regression: a raw newline or control byte inside a quoted DOT ID
        // is invalid output for several Graphviz consumers.
        let e = escape("line1\nline2\r\tx\u{1}y\"q\"\\z");
        assert!(!e.contains('\n'), "{e:?}");
        assert!(!e.contains('\r'), "{e:?}");
        assert!(!e.chars().any(|c| (c as u32) < 0x20), "{e:?}");
        assert_eq!(e, "line1\\nline2 x y\\\"q\\\"\\\\z");
    }

    #[test]
    fn escape_round_trips_on_printables_and_newlines() {
        // On the alphabet actually produced by node labels (printable chars
        // plus newline), escape must be invertible — i.e. lossless.
        let cases = [
            "plain",
            "with \"quotes\"",
            "back\\slash",
            "multi\nline\nlabel",
            "mix \"q\" and \\ and \n end",
            "trailing backslash \\",
            "x = \"a\\nb\"", // literal backslash-n in the source label
        ];
        for case in cases {
            assert_eq!(unescape(&escape(case)), case, "round trip of {case:?}");
        }
    }

    #[test]
    fn titles_with_quotes_produce_balanced_quote_count() {
        let dot = mpi_icfg_to_dot(&figure1(), "a \"quoted\"\ntitle");
        // Every line must have an even number of unescaped quotes.
        for line in dot.lines() {
            let mut unescaped = 0;
            let mut prev_backslash = false;
            for c in line.chars() {
                if c == '"' && !prev_backslash {
                    unescaped += 1;
                }
                prev_backslash = c == '\\' && !prev_backslash;
            }
            assert_eq!(unescaped % 2, 0, "unbalanced quotes in line: {line}");
        }
    }

    #[test]
    fn heat_overlay_colours_nodes_and_flags_cold_comm_edges() {
        let g = figure1();
        let n = mpi_dfa_core::graph::FlowGraph::num_nodes(g.icfg());
        // Everything visited twice except node 0, plus make every comm
        // endpoint hot so no comm edge is "never".
        let visits = vec![2u64; n];
        let dot = mpi_icfg_to_dot_heat(&g, "heat", &visits);
        assert!(dot.contains("style=filled"));
        assert!(dot.contains("fillcolor="));
        assert!(dot.contains("2 visits"));
        assert!(!dot.contains("label=\"never\""));
        // All-cold: every node grey, comm edges flagged.
        let cold = mpi_icfg_to_dot_heat(&g, "heat", &vec![0u64; n]);
        assert!(cold.contains("gray92"));
        assert!(cold.contains("label=\"never\""), "{cold}");
        // Short visit slices are zero-extended, not a panic.
        let short = mpi_icfg_to_dot_heat(&g, "heat", &[1]);
        assert!(short.contains("style=filled"));
        assert_eq!(
            short.matches('{').count(),
            short.matches('}').count(),
            "balanced braces"
        );
    }
}
