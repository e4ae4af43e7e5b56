//! Table 1 and Figure 4, byte for byte. The renderings of all 13 rows must
//! equal `repro table1` / `repro fig4` as recorded in `tests/golden/`, and
//! each row's Iter, node-visit and meet counts must equal
//! `tests/golden/table1_counters.txt` for both modes. The round-robin
//! solver is pinned explicitly (its pass count is the paper's Iter column),
//! so the test holds under any `MPIDFA_SOLVER` default. `comm_evals` is
//! deliberately not pinned: it counts memoised `f_comm` evaluations, an
//! implementation cost rather than a reproduced figure.

use mpi_dfa::core::solver::{SolveParams, Strategy};
use mpi_dfa::suite::experiments::all;
use mpi_dfa::suite::runner::{render_figure4, render_table1, run_experiment_with, MeasuredRow};

fn rows() -> Vec<MeasuredRow> {
    let params = SolveParams::with_strategy(Strategy::RoundRobin);
    all()
        .iter()
        .map(|spec| run_experiment_with(spec, spec.clone_level, &params))
        .collect()
}

/// Compare line by line first so a mismatch names the row, then the bytes.
fn assert_golden(what: &str, got: &str, want: &str) {
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "{what}: line {} differs", i + 1);
    }
    assert_eq!(got, want, "{what}: output differs from the golden file");
}

#[test]
fn table1_and_figure4_render_byte_for_byte() {
    let rows = rows();
    assert_eq!(rows.len(), 13);
    assert_golden(
        "Table 1",
        &render_table1(&rows),
        include_str!("golden/table1.txt"),
    );
    assert_golden(
        "Figure 4",
        &render_figure4(&rows),
        include_str!("golden/fig4.txt"),
    );
}

#[test]
fn per_row_solver_counters_are_pinned() {
    let want: Vec<&str> = include_str!("golden/table1_counters.txt")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .collect();
    let got: Vec<String> = rows()
        .iter()
        .map(|r| {
            format!(
                "{} {} {} {} {} {} {}",
                r.spec.id,
                r.icfg.iterations,
                r.icfg.node_visits,
                r.icfg.meets,
                r.mpi.iterations,
                r.mpi.node_visits,
                r.mpi.meets
            )
        })
        .collect();
    assert_eq!(got.len(), want.len(), "one counter line per Table-1 row");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(
            g, w,
            "columns: id, then iterations node_visits meets for ICFG and MPI-ICFG"
        );
    }
}
