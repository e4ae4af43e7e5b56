//! `verify`: each op is `verify::verify` (static passes plus the
//! 8-schedule cross-check) on one of the 7 bundled programs or the 5
//! deadlock-corpus programs, from source text.

use crate::harness::{InProcess, Ledger, Work};
use crate::trace::Tracer;
use mpi_dfa_analyses::consts::{self, ConstsQuery};
use mpi_dfa_analyses::mpi_match::{build_mpi_icfg, Matching};
use mpi_dfa_core::budget::Budget;
use mpi_dfa_core::hash::fnv128;
use mpi_dfa_graph::icfg::{Icfg, ProgramIr};
use mpi_dfa_graph::mpi::MpiIcfg;
use mpi_dfa_verify::{
    crosscheck, render_json, verify, verify_static, Outcome, Verdict, VerifyConfig,
};
use std::collections::HashMap;

const CONTEXT: &str = "main";

/// A verify report reduced to what is checked and digested.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    pub verdict: Verdict,
    pub outcome: Outcome,
    /// Hash of the canonical JSON report (deterministic by design).
    pub report: u128,
    pub work: Work,
}

pub struct VerifyWorkload {
    /// (name, source, is a deadlock-corpus program)
    programs: Vec<(&'static str, &'static str, bool)>,
    cfg: VerifyConfig,
    /// Per-program consts visits and naive comm edges (traced runs).
    side_counts: HashMap<usize, (u64, u64)>,
}

fn answer(report: &mpi_dfa_verify::VerifyReport, comm_edges: usize) -> Answer {
    Answer {
        verdict: report.verdict,
        outcome: report.crosscheck.outcome,
        report: fnv128(render_json(report).as_bytes()),
        work: Work {
            comm_edges: comm_edges as u64,
            schedules: u64::from(report.crosscheck.attempted),
            ..Work::default()
        },
    }
}

impl InProcess for VerifyWorkload {
    type Answer = Answer;
    /// `figure1`, the smallest program.
    const WARMUP: usize = 1;

    fn setup(_seed: u64) -> Self {
        let bundled = mpi_dfa_suite::programs::ALL
            .iter()
            .map(|&(n, s)| (n, s, false));
        let corpus = mpi_dfa_verify::corpus::ALL
            .iter()
            .map(|&(n, s)| (n, s, true));
        VerifyWorkload {
            programs: bundled.chain(corpus).collect(),
            cfg: VerifyConfig::default(),
            side_counts: HashMap::new(),
        }
    }

    fn inputs(&self) -> usize {
        self.programs.len()
    }

    fn run(&mut self, i: usize) -> Answer {
        let ir = ProgramIr::from_source(self.programs[i].1).expect("verify programs compile");
        let g = build_mpi_icfg(ir, CONTEXT, 0, Matching::ReachingConstants).expect("main exists");
        let report = verify(&g, &self.cfg, &Budget::unlimited()).expect("unlimited budget");
        answer(&report, g.comm_edges.len())
    }

    fn run_traced(&mut self, i: usize, t: &mut Tracer, l: &mut Ledger) -> Answer {
        let src = self.programs[i].1;
        let unit = t
            .span("lang.compile", |_| mpi_dfa_lang::compile(src))
            .expect("verify programs compile");
        let ir = t.span("graph.lower", |_| ProgramIr::build(unit));
        let icfg = t
            .span("graph.icfg", |_| Icfg::build(ir.clone(), CONTEXT, 0))
            .expect("main exists");
        let (nodes, edges) = (icfg.nodes().count(), icfg.num_edges());
        let query = t.span("analyses.consts", |_| ConstsQuery::compute(&icfg));
        let g = t.span("graph.mpi", |_| MpiIcfg::build(icfg, &query));
        let cfg = &self.cfg;
        let mut report = t
            .span("verify.static", |_| {
                verify_static(&g, cfg, &Budget::unlimited())
            })
            .expect("unlimited budget");
        let flagged = report.verdict == Verdict::Flagged;
        report.crosscheck = t.span("verify.crosscheck", |_| {
            crosscheck::run(&g.icfg().ir.unit.program, flagged, cfg)
        });

        l.add("src_bytes", src.len() as f64);
        l.add(
            "cfg_nodes",
            ir.cfgs.iter().map(|c| c.num_nodes()).sum::<usize>() as f64,
        );
        l.add("icfg_nodes", nodes as f64);
        l.add("icfg_edges", edges as f64);
        l.add("comm_edges", g.comm_edges.len() as f64);
        l.add("schedules", f64::from(report.crosscheck.attempted));
        let a = answer(&report, g.comm_edges.len());
        t.span("mem.free", |_| drop((report, g, query, ir)));
        a
    }

    fn side(&mut self, i: usize, l: &mut Ledger) {
        let (visits, naive) = *self.side_counts.entry(i).or_insert_with(|| {
            let ir = ProgramIr::from_source(self.programs[i].1).expect("verify programs compile");
            let build = || Icfg::build(ir.clone(), CONTEXT, 0).expect("main exists");
            let visits = consts::analyze_icfg(&build()).stats.node_visits;
            (
                visits,
                MpiIcfg::build_naive(build()).comm_edges.len() as u64,
            )
        });
        l.add("consts_visits", visits as f64);
        l.add("naive_edges", naive as f64);
    }

    fn digest(a: &Answer) -> u128 {
        a.report
    }

    fn work(a: &Answer) -> Work {
        a.work
    }

    /// Bundled programs must be `safe` and `consistent-safe`; corpus
    /// programs `flagged` and `confirmed`.
    fn check(&mut self, i: usize, a: &Answer) -> Result<(), String> {
        let (name, _, corpus) = self.programs[i];
        let want = if corpus {
            (Verdict::Flagged, Outcome::Confirmed)
        } else {
            (Verdict::Safe, Outcome::ConsistentSafe)
        };
        if (a.verdict, a.outcome) == want {
            Ok(())
        } else {
            Err(format!(
                "{name}: {}/{} (want {}/{})",
                a.verdict.as_str(),
                a.outcome.as_str(),
                want.0.as_str(),
                want.1.as_str()
            ))
        }
    }
}
