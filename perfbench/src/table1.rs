//! `table1`: each op is one Table-1 row, cold from source text, exactly as
//! `repro` runs it (`suite::runner::run_experiment`).

use crate::harness::{ledger_work, InProcess, Ledger, Work};
use crate::trace::Tracer;
use mpi_dfa_analyses::activity::{self, ActivityConfig, Mode};
use mpi_dfa_analyses::consts::{self, ConstsQuery};
use mpi_dfa_core::hash::Hasher128;
use mpi_dfa_core::solver::SolveParams;
use mpi_dfa_graph::icfg::{Icfg, ProgramIr};
use mpi_dfa_graph::mpi::MpiIcfg;
use mpi_dfa_suite::experiments::{all, ExperimentSpec};
use mpi_dfa_suite::programs;
use mpi_dfa_suite::runner::run_experiment;
use std::collections::HashMap;

/// ICFG ActiveBytes deviations of the SMPL port from the paper's cells
/// (EXPERIMENTS.md, "Known deviations"); every other byte cell must match
/// exactly.
const ICFG_DEVIATION: &[(&str, i64)] = &[("LU-1", 24), ("LU-3", -24), ("Sw-1", 40), ("Sw-6", -144)];

/// One row's answer, the same whether measured plainly or traced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    pub icfg_iterations: u64,
    pub icfg_active_bytes: u64,
    pub mpi_iterations: u64,
    pub mpi_active_bytes: u64,
    pub comm_edges: u64,
    /// Work of both modes' solves (baseline + framework).
    pub work: Work,
}

pub struct Table1 {
    specs: Vec<ExperimentSpec>,
    /// Per-row counts that need extra solves (consts visits, naive comm
    /// edges), computed once per row in traced runs.
    side_counts: HashMap<usize, (u64, u64)>,
}

fn config(spec: &ExperimentSpec) -> ActivityConfig {
    ActivityConfig::new(spec.independents.to_vec(), spec.dependents.to_vec())
}

fn source(spec: &ExperimentSpec) -> &'static str {
    programs::source(spec.program).expect("every Table-1 row names a bundled program")
}

impl InProcess for Table1 {
    type Answer = Row;
    /// Three cycles over the rows.
    const WARMUP: usize = 39;

    fn setup(_seed: u64) -> Self {
        Table1 {
            specs: all(),
            side_counts: HashMap::new(),
        }
    }

    fn inputs(&self) -> usize {
        self.specs.len()
    }

    fn run(&mut self, i: usize) -> Row {
        let r = run_experiment(&self.specs[i]);
        let mut work = Work {
            comm_edges: r.comm_edges as u64,
            ..Work::default()
        };
        for m in [&r.icfg, &r.mpi] {
            work.node_visits += m.node_visits;
            work.comm_evals += m.comm_evals;
            work.meets += m.meets;
        }
        Row {
            icfg_iterations: r.icfg.iterations,
            icfg_active_bytes: r.icfg.active_bytes,
            mpi_iterations: r.mpi.iterations,
            mpi_active_bytes: r.mpi.active_bytes,
            comm_edges: r.comm_edges as u64,
            work,
        }
    }

    fn run_traced(&mut self, i: usize, t: &mut Tracer, l: &mut Ledger) -> Row {
        let spec = &self.specs[i];
        let src = source(spec);
        let params = SolveParams::default();
        let cfg = config(spec);
        let unit = t
            .span("lang.compile", |_| mpi_dfa_lang::compile(src))
            .expect("bundled programs compile");
        let ir = t.span("graph.lower", |_| ProgramIr::build(unit));
        let build = |t: &mut Tracer| {
            t.span("graph.icfg", |_| {
                Icfg::build(ir.clone(), spec.context, spec.clone_level)
            })
            .expect("Table-1 contexts exist")
        };
        let base_icfg = build(t);
        let baseline = t
            .span("analyses.baseline", |_| {
                activity::analyze_icfg_with(&base_icfg, Mode::GlobalBuffer, &cfg, &params)
            })
            .expect("Table-1 variables resolve");
        let icfg = build(t);
        let (nodes, edges) = (icfg.nodes().count(), icfg.num_edges());
        let query = t.span("analyses.consts", |_| ConstsQuery::compute(&icfg));
        let mpi = t.span("graph.mpi", |_| MpiIcfg::build(icfg, &query));
        let framework = t
            .span("analyses.activity", |_| {
                activity::analyze_mpi_with(&mpi, &cfg, &params)
            })
            .expect("Table-1 variables resolve");

        l.add("src_bytes", src.len() as f64);
        l.add(
            "cfg_nodes",
            ir.cfgs.iter().map(|c| c.num_nodes()).sum::<usize>() as f64,
        );
        l.add("icfg_nodes", nodes as f64);
        l.add("icfg_edges", edges as f64);
        l.add("comm_edges", mpi.comm_edges.len() as f64);
        let fw = Work::of(&[&framework.vary.stats, &framework.useful.stats]);
        ledger_work(l, &fw);
        let base = Work::of(&[&baseline.vary.stats, &baseline.useful.stats]);
        let mut work = Work {
            comm_edges: mpi.comm_edges.len() as u64,
            ..Work::default()
        };
        for w in [base, fw] {
            work.node_visits += w.node_visits;
            work.comm_evals += w.comm_evals;
            work.meets += w.meets;
        }
        let row = Row {
            icfg_iterations: baseline.iterations as u64,
            icfg_active_bytes: baseline.active_bytes,
            mpi_iterations: framework.iterations as u64,
            mpi_active_bytes: framework.active_bytes,
            comm_edges: mpi.comm_edges.len() as u64,
            work,
        };
        t.span("mem.free", |_| {
            drop((framework, mpi, query, baseline, base_icfg, ir))
        });
        row
    }

    fn side(&mut self, i: usize, l: &mut Ledger) {
        let spec = &self.specs[i];
        let (visits, naive) = *self.side_counts.entry(i).or_insert_with(|| {
            let ir = programs::ir(spec.program);
            let build =
                || Icfg::build(ir.clone(), spec.context, spec.clone_level).expect("context");
            let visits = consts::analyze_icfg(&build()).stats.node_visits;
            (
                visits,
                MpiIcfg::build_naive(build()).comm_edges.len() as u64,
            )
        });
        l.add("consts_visits", visits as f64);
        l.add("naive_edges", naive as f64);
    }

    fn digest(r: &Row) -> u128 {
        Hasher128::new()
            .write_u64(r.icfg_iterations)
            .write_u64(r.icfg_active_bytes)
            .write_u64(r.mpi_iterations)
            .write_u64(r.mpi_active_bytes)
            .write_u64(r.comm_edges)
            .write_u64(r.work.node_visits)
            .write_u64(r.work.comm_evals)
            .write_u64(r.work.meets)
            .finish()
    }

    fn work(r: &Row) -> Work {
        r.work
    }

    fn check(&mut self, i: usize, r: &Row) -> Result<(), String> {
        let spec = &self.specs[i];
        let p = &spec.paper;
        let dev = ICFG_DEVIATION
            .iter()
            .find(|(id, _)| *id == spec.id)
            .map_or(0, |d| d.1);
        let want_icfg = p.icfg.active_bytes as i64 + dev;
        let mut errs = Vec::new();
        if r.icfg_active_bytes as i64 != want_icfg {
            errs.push(format!(
                "ICFG ActiveBytes {} != {want_icfg}",
                r.icfg_active_bytes
            ));
        }
        if r.mpi_active_bytes != p.mpi.active_bytes {
            errs.push(format!(
                "MPI-ICFG ActiveBytes {} != paper {}",
                r.mpi_active_bytes, p.mpi.active_bytes
            ));
        }
        // The Iter column is systematically lower (RPO round-robin).
        if r.icfg_iterations > p.icfg.iterations || r.mpi_iterations > p.mpi.iterations {
            errs.push(format!(
                "iterations {}/{} exceed the paper's {}/{}",
                r.icfg_iterations, r.mpi_iterations, p.icfg.iterations, p.mpi.iterations
            ));
        }
        if errs.is_empty() {
            Ok(())
        } else {
            Err(format!("{}: {}", spec.id, errs.join("; ")))
        }
    }
}
