//! Table 1 and Figure 4, byte for byte. The renderings of all 13 rows must
//! equal `repro table1` / `repro fig4` as recorded in `tests/golden/`, and
//! each row's Iter, node-visit, meet and `f_comm` evaluation counts and its
//! number of fact-changing visits (Σ `pass_deltas`) must equal
//! `tests/golden/table1_counters.txt` for both modes (every full solve is
//! round-robin, whose pass count is the paper's Iter column). The last two
//! pin *when* the solver evaluates: a change to which visits run their
//! transfer that kept every fact could still move them.

use mpi_dfa::analyses::activity::{self, ActivityConfig, ActivityResult, Mode};
use mpi_dfa::analyses::mpi_match::{build_mpi_icfg, Matching};
use mpi_dfa::core::solver::SolveParams;
use mpi_dfa::graph::icfg::Icfg;
use mpi_dfa::suite::experiments::{all, ExperimentSpec};
use mpi_dfa::suite::programs;
use mpi_dfa::suite::runner::{render_figure4, render_table1, run_experiment_with, MeasuredRow};

fn rows() -> Vec<MeasuredRow> {
    let params = SolveParams::default();
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

/// Σ `pass_deltas` over the Vary and Useful solves of the row's ICFG and
/// MPI-ICFG modes, built as `run_experiment_with` builds them.
fn changed_visits(spec: &ExperimentSpec) -> (u64, u64) {
    let ir = programs::ir(spec.program);
    let config = ActivityConfig::new(spec.independents.to_vec(), spec.dependents.to_vec());
    let params = SolveParams::default();
    let icfg = Icfg::build(ir.clone(), spec.context, spec.clone_level).unwrap();
    let icfg = activity::analyze_icfg_with(&icfg, Mode::GlobalBuffer, &config, &params).unwrap();
    let mpi = build_mpi_icfg(
        ir,
        spec.context,
        spec.clone_level,
        Matching::ReachingConstants,
    )
    .unwrap();
    let mpi = activity::analyze_mpi_with(&mpi, &config, &params).unwrap();
    let sum = |r: &ActivityResult| -> u64 {
        [&r.vary, &r.useful]
            .iter()
            .flat_map(|s| &s.stats.pass_deltas)
            .sum()
    };
    (sum(&icfg), sum(&mpi))
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
            let (icfg_changed, mpi_changed) = changed_visits(&r.spec);
            format!(
                "{} {} {} {} {} {} {} {} {} {} {}",
                r.spec.id,
                r.icfg.iterations,
                r.icfg.node_visits,
                r.icfg.meets,
                r.icfg.comm_evals,
                icfg_changed,
                r.mpi.iterations,
                r.mpi.node_visits,
                r.mpi.meets,
                r.mpi.comm_evals,
                mpi_changed
            )
        })
        .collect();
    assert_eq!(got.len(), want.len(), "one counter line per Table-1 row");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(
            g, w,
            "columns: id, then iterations node_visits meets comm_evals changed_visits \
             for ICFG and MPI-ICFG"
        );
    }
}
