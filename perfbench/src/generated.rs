//! `generated`: each op is the `mpidfa activity` path
//! (`ProgramIr::from_source` + `governed_activity`, clone level 1) on one
//! program of a pinned pool of `gen::GenConfig::scaled(4)` programs.
//!
//! The pool's generator seeds and each program's node, comm-edge and
//! active-byte counts are pinned in `pins/generated.tsv`; the workload seed
//! draws the visiting order. `perfbench pin-generated` regenerates the
//! file (see README.md).

use crate::harness::{ledger_work, InProcess, Ledger, Work};
use crate::trace::Tracer;
use mpi_dfa_analyses::activity::{self, ActivityConfig, Mode};
use mpi_dfa_analyses::consts::{self, ConstsQuery};
use mpi_dfa_analyses::governor::{governed_activity, GovernedActivity, GovernorConfig};
use mpi_dfa_core::hash::Hasher128;
use mpi_dfa_core::solver::SolveParams;
use mpi_dfa_core::varset::VarSet;
use mpi_dfa_graph::icfg::{Icfg, ProgramIr};
use mpi_dfa_graph::mpi::MpiIcfg;
use mpi_dfa_suite::gen::{generate, GenConfig};
use std::collections::HashMap;
use std::time::Instant;

pub const PINS: &str = include_str!("../pins/generated.tsv");
pub const SCALE: usize = 4;
pub const CLONE_LEVEL: usize = 1;
const CONTEXT: &str = "main";

/// One pinned pool program: generator seed and expected counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pin {
    pub gen_seed: u64,
    pub nodes: u64,
    pub comm_edges: u64,
    pub active_bytes: u64,
}

pub fn pins() -> Vec<Pin> {
    PINS.lines()
        .filter_map(|l| Some(l.split('#').next()?.trim()).filter(|l| !l.is_empty()))
        .map(|l| {
            let f: Vec<u64> = l
                .split_whitespace()
                .map(|x| x.parse().expect("pins/generated.tsv holds integers"))
                .collect();
            Pin {
                gen_seed: f[0],
                nodes: f[1],
                comm_edges: f[2],
                active_bytes: f[3],
            }
        })
        .collect()
}

fn config() -> ActivityConfig {
    ActivityConfig::new(["s0"], ["s1"])
}

fn governor() -> GovernorConfig {
    GovernorConfig {
        clone_level: CLONE_LEVEL,
        ..GovernorConfig::default()
    }
}

/// The governed analysis, as `mpidfa activity --clone 1` runs it.
pub fn analyze(src: &str) -> GovernedActivity {
    let ir = ProgramIr::from_source(src).expect("generated programs compile");
    governed_activity(&ir, CONTEXT, &config(), &governor()).expect("generated programs analyze")
}

/// One program's answer, the same whether measured plainly or traced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    pub active: VarSet,
    pub active_bytes: u64,
    pub nodes: u64,
    pub iterations: u64,
    /// False if the governor published anything but the precise T0 answer.
    pub precise: bool,
    pub work: Work,
}

pub struct Generated {
    pins: Vec<Pin>,
    sources: Vec<String>,
    side_counts: HashMap<usize, (u64, u64)>,
}

impl InProcess for Generated {
    type Answer = Answer;
    const WARMUP: usize = 1;

    fn setup(_seed: u64) -> Self {
        let pins = pins();
        let sources = pins
            .iter()
            .map(|p| generate(p.gen_seed, &GenConfig::scaled(SCALE)))
            .collect();
        Generated {
            pins,
            sources,
            side_counts: HashMap::new(),
        }
    }

    fn inputs(&self) -> usize {
        self.pins.len()
    }

    fn run(&mut self, i: usize) -> Answer {
        let g = analyze(&self.sources[i]);
        let r = &g.result;
        Answer {
            active: r.active.clone(),
            active_bytes: r.active_bytes,
            nodes: r.vary.input.len() as u64,
            iterations: r.iterations as u64,
            precise: g.provenance.is_precise() && !g.provenance.saturated,
            work: Work {
                comm_edges: g.comm_edges.unwrap_or(0) as u64,
                ..Work::of(&[&r.vary.stats, &r.useful.stats])
            },
        }
    }

    fn run_traced(&mut self, i: usize, t: &mut Tracer, l: &mut Ledger) -> Answer {
        let src = &self.sources[i];
        let unit = t
            .span("lang.compile", |_| mpi_dfa_lang::compile(src))
            .expect("generated programs compile");
        let ir = t.span("graph.lower", |_| ProgramIr::build(unit));
        let icfg = t
            .span("graph.icfg", |_| {
                Icfg::build(ir.clone(), CONTEXT, CLONE_LEVEL)
            })
            .expect("main exists");
        let (nodes, edges) = (icfg.nodes().count(), icfg.num_edges());
        let query = t.span("analyses.consts", |_| ConstsQuery::compute(&icfg));
        let mpi = t.span("graph.mpi", |_| MpiIcfg::build(icfg, &query));
        let r = t
            .span("analyses.activity", |_| {
                activity::analyze_mpi_with(&mpi, &config(), &SolveParams::default())
            })
            .expect("s0/s1 resolve");

        l.add("src_bytes", src.len() as f64);
        l.add(
            "cfg_nodes",
            ir.cfgs.iter().map(|c| c.num_nodes()).sum::<usize>() as f64,
        );
        l.add("icfg_nodes", nodes as f64);
        l.add("icfg_edges", edges as f64);
        l.add("comm_edges", mpi.comm_edges.len() as f64);
        let work = Work {
            comm_edges: mpi.comm_edges.len() as u64,
            ..Work::of(&[&r.vary.stats, &r.useful.stats])
        };
        ledger_work(l, &work);
        let answer = Answer {
            active: r.active.clone(),
            active_bytes: r.active_bytes,
            nodes: r.vary.input.len() as u64,
            iterations: r.iterations as u64,
            precise: r.converged(),
            work,
        };
        t.span("mem.free", |_| drop((r, mpi, query, ir)));
        answer
    }

    /// Times `governed_activity` on its own (its overhead over the parts the
    /// op spans), and counts consts visits and naive comm edges once per
    /// program.
    fn side(&mut self, i: usize, l: &mut Ledger) {
        let ir = ProgramIr::from_source(&self.sources[i]).expect("generated programs compile");
        let t0 = Instant::now();
        let g = governed_activity(&ir, CONTEXT, &config(), &governor());
        l.add("governor_ms", t0.elapsed().as_secs_f64() * 1e3);
        drop(g);
        let (visits, naive) = *self.side_counts.entry(i).or_insert_with(|| {
            let build = || Icfg::build(ir.clone(), CONTEXT, CLONE_LEVEL).expect("main exists");
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
        let mut h = Hasher128::new();
        for v in a.active.iter() {
            h.write_u64(v as u64);
        }
        h.write_u64(a.active_bytes)
            .write_u64(a.nodes)
            .write_u64(a.iterations)
            .write_bool(a.precise)
            .write_u64(a.work.node_visits)
            .write_u64(a.work.comm_evals)
            .write_u64(a.work.comm_edges)
            .finish()
    }

    fn work(a: &Answer) -> Work {
        a.work
    }

    /// Pinned counts, the precise tier, and MPI-ICFG active ⊆ sound
    /// global-buffer ICFG active.
    fn check(&mut self, i: usize, a: &Answer) -> Result<(), String> {
        let p = self.pins[i];
        let got = (a.nodes, a.work.comm_edges, a.active_bytes);
        let want = (p.nodes, p.comm_edges, p.active_bytes);
        if got != want {
            return Err(format!(
                "gen seed {}: (nodes, comm edges, active bytes) {got:?} != pinned {want:?}",
                p.gen_seed
            ));
        }
        if !a.precise {
            return Err(format!(
                "gen seed {}: not the precise T0 answer",
                p.gen_seed
            ));
        }
        let ir = ProgramIr::from_source(&self.sources[i]).expect("generated programs compile");
        let icfg = Icfg::build(ir, CONTEXT, CLONE_LEVEL).expect("main exists");
        // The sound global-buffer model, not `Mode::GlobalBuffer`: the
        // latter's buffer kills make it a baseline, not a superset.
        let baseline = activity::analyze_icfg(&icfg, Mode::GlobalBufferSound, &config())
            .map_err(|e| format!("gen seed {}: baseline: {e}", p.gen_seed))?;
        if !a.active.is_subset(&baseline.active) {
            return Err(format!(
                "gen seed {}: MPI-ICFG active set is not within the sound global-buffer ICFG's",
                p.gen_seed
            ));
        }
        Ok(())
    }
}

/// `pin-generated N`: time and count the first `N` generator seeds, one
/// line per program (counts, then milliseconds for the op), for choosing
/// and refreshing the pinned pool.
pub fn pin(n: u64) -> String {
    let mut out = String::from("# gen_seed nodes comm_edges active_bytes   (ms)\n");
    for seed in 0..n {
        let src = generate(seed, &GenConfig::scaled(SCALE));
        let t0 = Instant::now();
        let g = analyze(&src);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        out.push_str(&format!(
            "{seed} {} {} {}   # {ms:.1} ms\n",
            g.result.vary.input.len(),
            g.comm_edges.unwrap_or(0),
            g.result.active_bytes
        ));
    }
    out
}
