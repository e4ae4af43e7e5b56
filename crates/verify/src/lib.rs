//! Static correctness suite over the MPI-ICFG.
//!
//! Three cooperating passes (docs/VERIFY.md has the full semantics):
//!
//! 1. **match-set verification** ([`matchset`]) — every send pairs with
//!    a feasible receive along the communication edges, with structured
//!    unmatched/mismatch diagnostics and clone-context provenance;
//! 2. **may-happen-in-parallel** ([`mhp`]) — rank-sensitive MHP run
//!    through the `Solver` builder, reporting concurrent statement
//!    pairs per rank pair;
//! 3. **predictive deadlock detection** ([`deadlock`]) — cycle search
//!    over the static wait-for graph induced by blocking communication.
//!
//! The combined verdict is cross-checked against the schedule explorer
//! ([`crosscheck`]): static-safe programs must survive K adversarial
//! schedules, and every static-flagged cycle gets a realization
//! attempt whose outcome (confirmed / unrealized) is part of the
//! report. All reports are deterministic — seeded exploration, no
//! wall-clock fields — so the `verify` service verb is fully
//! content-addressable.

#![forbid(unsafe_code)]

pub mod corpus;
pub mod crosscheck;
pub mod deadlock;
pub mod dot;
pub mod guard;
pub mod matchset;
pub mod mhp;
pub mod report;

use mpi_dfa_core::budget::Budget;
use mpi_dfa_core::graph::FlowGraph;
use mpi_dfa_core::telemetry::{self, json_escape};
use mpi_dfa_graph::mpi::MpiIcfg;
use mpi_dfa_lang::interp::RuntimeLimits;

pub use crosscheck::{CrossCheck, Outcome};
pub use deadlock::DeadlockReport;
pub use guard::Guards;
pub use matchset::MatchReport;
pub use mhp::MhpReport;
pub use report::Diag;

/// Tuning knobs for a verify run. All fields are part of the service
/// cache key — two runs with equal config and source must produce
/// byte-identical reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyConfig {
    /// Simulated process count for rank guards, range diagnostics, and
    /// the schedule explorer.
    pub nprocs: usize,
    /// Adversarial schedules per cross-check (0 disables exploration).
    pub schedules: u32,
    /// Seed forked per schedule (mirrors `suite::schedules`).
    pub base_seed: u64,
    /// Entry subroutine for the explorer.
    pub entry: String,
    /// Interpreter limits for each explored schedule.
    pub limits: RuntimeLimits,
    /// Pass bound for the verify solver runs.
    pub max_passes: usize,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            nprocs: 2,
            schedules: 8,
            base_seed: 0xFA017,
            entry: "main".to_string(),
            limits: RuntimeLimits { max_steps: 500_000 },
            max_passes: 10_000,
        }
    }
}

/// Combined verdict of the static passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No unmatched operations, no out-of-range ranks, no wait-for
    /// cycles.
    Safe,
    /// At least one pass produced a finding.
    Flagged,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Safe => "safe",
            Verdict::Flagged => "flagged",
        }
    }
}

/// The full verify report (JSON schema in docs/VERIFY.md).
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyReport {
    pub verdict: Verdict,
    pub matchset: MatchReport,
    pub mhp: MhpReport,
    pub deadlock: DeadlockReport,
    pub crosscheck: CrossCheck,
}

/// A verify run failed before producing a verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// A solver pass hit its budget or pass bound; facts would be
    /// unsound, so no report is produced.
    Exhausted(String),
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Exhausted(m) => write!(f, "verify deadline exhausted: {m}"),
        }
    }
}

/// Nodes reachable from the context entry along non-communication
/// edges. Unreachable nodes keep lattice-top facts in the must-analyses
/// and would pollute diagnostics; every pass filters through this.
pub fn reachable_from_entry(g: &MpiIcfg) -> Vec<bool> {
    let icfg = g.icfg();
    let n = FlowGraph::num_nodes(icfg);
    let mut seen = vec![false; n];
    let mut stack = vec![icfg.context_entry()];
    while let Some(cur) = stack.pop() {
        if std::mem::replace(&mut seen[cur.index()], true) {
            continue;
        }
        for e in icfg.out_edges(cur) {
            if !e.kind.is_comm() && !seen[e.to.index()] {
                stack.push(e.to);
            }
        }
    }
    seen
}

/// Run only the static passes (no schedule exploration). Used by the
/// fuzz harness, which must never spawn interpreter threads per case.
pub fn verify_static(
    g: &MpiIcfg,
    cfg: &VerifyConfig,
    budget: &Budget,
) -> Result<VerifyReport, VerifyError> {
    let guards = Guards::build(&g.icfg().ir.unit.program);
    let reachable = reachable_from_entry(g);
    let matchset = matchset::check(g, &guards, cfg);
    let mhp = mhp::analyze(g, &guards, &reachable, cfg, budget)
        .map_err(|e| VerifyError::Exhausted(e.0))?;
    let deadlock = deadlock::analyze(g, &guards, &reachable, cfg, budget)
        .map_err(|e| VerifyError::Exhausted(e.0))?;
    let verdict = if matchset.is_clean() && deadlock.is_clean() {
        Verdict::Safe
    } else {
        Verdict::Flagged
    };
    Ok(VerifyReport {
        verdict,
        matchset,
        mhp,
        deadlock,
        crosscheck: CrossCheck {
            baseline_ok: false,
            attempted: 0,
            completed: 0,
            deadlocked: 0,
            first_deadlock: None,
            baseline_error: None,
            outcome: Outcome::Skipped,
        },
    })
}

/// Run the full suite: static passes plus the schedule-explorer
/// cross-check. Emits `verify_*_total` metrics when telemetry is
/// installed.
pub fn verify(
    g: &MpiIcfg,
    cfg: &VerifyConfig,
    budget: &Budget,
) -> Result<VerifyReport, VerifyError> {
    let mut report = verify_static(g, cfg, budget)?;
    report.crosscheck = crosscheck::run(
        &g.icfg().ir.unit.program,
        report.verdict == Verdict::Flagged,
        cfg,
    );

    telemetry::metric_add("verify_runs_total", 1.0);
    match report.verdict {
        Verdict::Safe => telemetry::metric_add("verify_safe_total", 1.0),
        Verdict::Flagged => telemetry::metric_add("verify_flagged_total", 1.0),
    }
    let unmatched = report.matchset.unmatched_sends.len() + report.matchset.unmatched_recvs.len();
    if unmatched > 0 {
        telemetry::metric_add("verify_unmatched_total", unmatched as f64);
    }
    if report.deadlock.cyclic_sccs > 0 {
        telemetry::metric_add("verify_cycles_total", report.deadlock.cyclic_sccs as f64);
    }
    if report.mhp.total_pairs > 0 {
        telemetry::metric_add("verify_mhp_pairs_total", report.mhp.total_pairs as f64);
    }
    match report.crosscheck.outcome {
        Outcome::Confirmed => telemetry::metric_add("verify_confirmed_total", 1.0),
        Outcome::Unrealized => telemetry::metric_add("verify_unrealized_total", 1.0),
        Outcome::Contradiction => telemetry::metric_add("verify_contradictions_total", 1.0),
        _ => {}
    }
    Ok(report)
}

// ---------------------------------------------------------------------
// Rendering

fn diag_json(d: &Diag) -> String {
    format!(
        "{{\"node\":{},\"op\":\"{}\",\"proc\":\"{}\",\"instance\":{},\"span\":\"{}\",\"reason\":\"{}\"}}",
        d.node,
        json_escape(&d.op),
        json_escape(&d.proc),
        d.instance,
        json_escape(&d.span),
        json_escape(&d.reason)
    )
}

fn diag_list_json(ds: &[Diag]) -> String {
    let items: Vec<String> = ds.iter().map(diag_json).collect();
    format!("[{}]", items.join(","))
}

/// Render the report as canonical JSON: fixed key order, no wall-clock
/// fields, byte-identical for identical inputs.
pub fn render_json(r: &VerifyReport) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str(&format!("{{\"verdict\":\"{}\"", r.verdict.as_str()));

    let m = &r.matchset;
    out.push_str(&format!(
        ",\"match\":{{\"sends\":{},\"recvs\":{},\"collectives\":{},\"comm_edges\":{},\"unmatched_sends\":{},\"unmatched_recvs\":{},\"rank_diags\":{},\"loop_diags\":{},\"collective_diags\":{}}}",
        m.sends,
        m.recvs,
        m.collectives,
        m.comm_edges,
        diag_list_json(&m.unmatched_sends),
        diag_list_json(&m.unmatched_recvs),
        diag_list_json(&m.rank_diags),
        diag_list_json(&m.loop_diags),
        diag_list_json(&m.collective_diags)
    ));

    let h = &r.mhp;
    let pairs: Vec<String> = h
        .per_rank_pair
        .iter()
        .map(|p| {
            format!(
                "{{\"ranks\":[{},{}],\"pairs\":{}}}",
                p.ranks.0, p.ranks.1, p.pairs
            )
        })
        .collect();
    let sample: Vec<String> = h
        .sample
        .iter()
        .map(|p| {
            format!(
                "{{\"a\":{},\"b\":{},\"ranks\":[{},{}]}}",
                diag_json(&p.a),
                diag_json(&p.b),
                p.ranks.0,
                p.ranks.1
            )
        })
        .collect();
    out.push_str(&format!(
        ",\"mhp\":{{\"nprocs\":{},\"phases\":{},\"total_pairs\":{},\"rank_pairs\":[{}],\"sample\":[{}]}}",
        h.nprocs,
        h.phases,
        h.total_pairs,
        pairs.join(","),
        sample.join(",")
    ));

    let d = &r.deadlock;
    let cycles: Vec<String> = d
        .cycles
        .iter()
        .map(|c| format!("{{\"nodes\":{}}}", diag_list_json(&c.nodes)))
        .collect();
    out.push_str(&format!(
        ",\"deadlock\":{{\"waitfor_nodes\":{},\"waitfor_edges\":{},\"cyclic_sccs\":{},\"cycles\":[{}]}}",
        d.waitfor_nodes,
        d.waitfor_edges,
        d.cyclic_sccs,
        cycles.join(",")
    ));

    let c = &r.crosscheck;
    let first = match &c.first_deadlock {
        Some(s) => format!("\"{}\"", json_escape(s)),
        None => "null".to_string(),
    };
    out.push_str(&format!(
        ",\"crosscheck\":{{\"outcome\":\"{}\",\"baseline_ok\":{},\"attempted\":{},\"completed\":{},\"deadlocked\":{},\"first_deadlock\":{}}}",
        c.outcome.as_str(),
        c.baseline_ok,
        c.attempted,
        c.completed,
        c.deadlocked,
        first
    ));
    out.push('}');
    out
}

/// Render the report for terminal consumption.
pub fn render_text(r: &VerifyReport, title: &str, cfg: &VerifyConfig) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "verify {title} (nprocs {}, {} schedules)\n",
        cfg.nprocs, cfg.schedules
    ));

    let m = &r.matchset;
    out.push_str(&format!(
        "  match: {} sends, {} recvs, {} collectives, {} comm edges\n",
        m.sends, m.recvs, m.collectives, m.comm_edges
    ));
    for d in &m.unmatched_sends {
        out.push_str(&format!("    unmatched send {}: {}\n", d.locus(), d.reason));
    }
    for d in &m.unmatched_recvs {
        out.push_str(&format!("    unmatched recv {}: {}\n", d.locus(), d.reason));
    }
    for d in &m.rank_diags {
        out.push_str(&format!("    rank range {}: {}\n", d.locus(), d.reason));
    }
    for d in &m.loop_diags {
        out.push_str(&format!("    loop supply {}: {}\n", d.locus(), d.reason));
    }
    for d in &m.collective_diags {
        out.push_str(&format!("    collective {}: {}\n", d.locus(), d.reason));
    }
    if m.is_clean() {
        out.push_str("    all operations matched\n");
    }

    let h = &r.mhp;
    out.push_str(&format!(
        "  mhp: {} concurrent pairs across {} phase(s)\n",
        h.total_pairs, h.phases
    ));
    for p in &h.per_rank_pair {
        out.push_str(&format!(
            "    ranks ({},{}): {} pairs\n",
            p.ranks.0, p.ranks.1, p.pairs
        ));
    }

    let d = &r.deadlock;
    if d.is_clean() {
        out.push_str(&format!(
            "  deadlock: no wait-for cycles ({} edges over {} ops)\n",
            d.waitfor_edges, d.waitfor_nodes
        ));
    } else {
        out.push_str(&format!(
            "  deadlock: {} candidate cycle(s) in the wait-for graph\n",
            d.cyclic_sccs
        ));
        for (i, c) in d.cycles.iter().enumerate() {
            out.push_str(&format!("    cycle {}:\n", i + 1));
            for n in &c.nodes {
                out.push_str(&format!("      {} — {}\n", n.locus(), n.reason));
            }
        }
    }

    let c = &r.crosscheck;
    match c.outcome {
        Outcome::Skipped => match &c.baseline_error {
            Some(e) => out.push_str(&format!("  crosscheck: skipped (baseline failed: {e})\n")),
            None => out.push_str("  crosscheck: skipped\n"),
        },
        _ => {
            out.push_str(&format!(
                "  crosscheck: baseline {}; {}/{} schedules completed, {} deadlocked -> {}\n",
                if c.baseline_ok { "ok" } else { "deadlocked" },
                c.completed,
                c.attempted,
                c.deadlocked,
                c.outcome.as_str()
            ));
            if let Some(first) = &c.first_deadlock {
                for line in first.lines() {
                    out.push_str(&format!("    {line}\n"));
                }
            }
        }
    }

    out.push_str(&format!("verdict: {}\n", r.verdict.as_str().to_uppercase()));
    out
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::*;
    use mpi_dfa_analyses::{build_mpi_icfg, Matching};
    use mpi_dfa_graph::icfg::ProgramIr;

    pub fn build(src: &str) -> MpiIcfg {
        let ir = ProgramIr::from_source(src).expect("test program compiles");
        build_mpi_icfg(ir, "main", 1, Matching::ReachingConstants).expect("icfg builds")
    }

    pub use super::reachable_from_entry;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::build;

    const SAFE: &str = "program p global x: real; global y: real;\n\
         sub main() { if (rank() == 0) { send(x, 1, 7); } else { recv(y, 0, 7); } }";

    #[test]
    fn safe_program_end_to_end() {
        let g = build(SAFE);
        let cfg = VerifyConfig {
            schedules: 2,
            ..VerifyConfig::default()
        };
        let r = verify(&g, &cfg, &Budget::unlimited())
            .map_err(|e| e.to_string())
            .unwrap();
        assert_eq!(r.verdict, Verdict::Safe);
        assert_eq!(r.crosscheck.outcome, Outcome::ConsistentSafe);
    }

    #[test]
    fn corpus_programs_are_flagged() {
        for (name, src) in corpus::ALL {
            let g = build(src);
            let cfg = VerifyConfig {
                schedules: 2,
                ..VerifyConfig::default()
            };
            let r = verify(&g, &cfg, &Budget::unlimited())
                .map_err(|e| e.to_string())
                .unwrap();
            assert_eq!(r.verdict, Verdict::Flagged, "{name} must be flagged");
            assert!(
                matches!(r.crosscheck.outcome, Outcome::Confirmed | Outcome::Skipped),
                "{name}: corpus deadlocks should realize (or not run): {:?}",
                r.crosscheck
            );
        }
    }

    #[test]
    fn json_is_deterministic_and_sane() {
        let g = build(SAFE);
        let cfg = VerifyConfig::default();
        let a = render_json(
            &verify(&g, &cfg, &Budget::unlimited())
                .map_err(|e| e.to_string())
                .unwrap(),
        );
        let b = render_json(
            &verify(&g, &cfg, &Budget::unlimited())
                .map_err(|e| e.to_string())
                .unwrap(),
        );
        assert_eq!(a, b);
        assert!(a.starts_with("{\"verdict\":\"safe\""), "{a}");
        assert!(a.contains("\"crosscheck\":{\"outcome\":\"consistent-safe\""));
        assert!(!a.contains("elapsed"), "no wall-clock fields in reports");
    }
}
