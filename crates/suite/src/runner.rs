//! Runs the experiments and renders Table 1 / Figure 4.
//!
//! For each row the runner builds the ICFG at the configured clone level,
//! runs the conservative global-buffer activity analysis (the paper's ICFG
//! baseline), then builds the MPI-ICFG (reaching-constants matching) and
//! runs the framework analysis — recording solver iterations, active bytes,
//! and the `DerivBytes = #indeps × ActiveBytes` model.

use crate::experiments::{all, ExperimentSpec};
use crate::programs;
use mpi_dfa_analyses::activity::{self, ActivityConfig, Mode};
use mpi_dfa_analyses::governor::{governed_activity, AnalysisProvenance, GovernorConfig};
use mpi_dfa_analyses::mpi_match::{build_mpi_icfg, Matching};
use mpi_dfa_core::json::escape as json_escape;
use mpi_dfa_core::solver::{ConvergenceStats, SolveParams};
use mpi_dfa_graph::icfg::Icfg;
use std::fmt::Write as _;

/// Measured values for one analysis mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeasuredMode {
    pub iterations: u64,
    pub active_bytes: u64,
    pub deriv_bytes: u64,
    /// Number of active locations (set cardinality; not in the paper's
    /// table but useful for the clone ablation).
    pub active_locs: u64,
    /// Did both fixpoint phases converge within the pass budget? `false`
    /// means the row is a non-fixpoint snapshot and is flagged in every
    /// rendering (and fails the `repro` binary).
    pub converged: bool,
    /// Solver counters absorbed across the Vary and Useful phases (see
    /// `ConvergenceStats`); rendered by [`render_json`] in a fixed field
    /// order so CI diffs are stable.
    pub node_visits: u64,
    pub meets: u64,
    pub comm_evals: u64,
    pub worklist_peak: u64,
}

/// Whether a row was served from the on-disk row cache
/// (`repro --cache-dir`, see [`crate::rowcache`]) or freshly measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowCacheStatus {
    Hit,
    Miss,
}

impl RowCacheStatus {
    pub fn as_str(self) -> &'static str {
        match self {
            RowCacheStatus::Hit => "hit",
            RowCacheStatus::Miss => "miss",
        }
    }
}

/// Measured values for one experiment.
#[derive(Debug, Clone)]
pub struct MeasuredRow {
    pub spec: ExperimentSpec,
    pub icfg: MeasuredMode,
    pub mpi: MeasuredMode,
    /// Number of communication edges in the MPI-ICFG (0 when a governed
    /// run degraded past the MPI-ICFG tiers and no such graph exists).
    pub comm_edges: usize,
    /// Provenance of the framework-side result when the row was produced
    /// under the resource governor; `None` for ungoverned runs.
    pub provenance: Option<AnalysisProvenance>,
    /// Row-cache disposition: `None` when caching is disabled (no
    /// `--cache-dir`), otherwise hit or miss.
    pub cache: Option<RowCacheStatus>,
}

impl MeasuredRow {
    /// True when every analysis mode in this row reached its fixpoint.
    pub fn converged(&self) -> bool {
        self.icfg.converged && self.mpi.converged
    }

    /// Active-byte decrease, as the paper computes it.
    pub fn pct_decrease(&self) -> f64 {
        if self.icfg.active_bytes == 0 {
            return 0.0;
        }
        100.0 * (self.icfg.active_bytes.saturating_sub(self.mpi.active_bytes)) as f64
            / self.icfg.active_bytes as f64
    }

    /// Megabytes of active storage saved (Figure 4, "Active" series).
    pub fn active_mb_saved(&self) -> f64 {
        (self.icfg.active_bytes.saturating_sub(self.mpi.active_bytes)) as f64 / 1.0e6
    }

    /// Megabytes of derivative storage saved (Figure 4, "Derivative"
    /// series).
    pub fn deriv_mb_saved(&self) -> f64 {
        (self.icfg.deriv_bytes.saturating_sub(self.mpi.deriv_bytes)) as f64 / 1.0e6
    }
}

/// Project an [`activity::ActivityResult`] onto the row representation,
/// absorbing the Vary and Useful solver counters into one set.
fn to_mode(r: &activity::ActivityResult, num_indeps: u64) -> MeasuredMode {
    let mut stats = ConvergenceStats::default();
    stats.absorb(&r.vary.stats);
    stats.absorb(&r.useful.stats);
    MeasuredMode {
        iterations: r.iterations as u64,
        active_bytes: r.active_bytes,
        deriv_bytes: r.deriv_bytes(num_indeps),
        active_locs: r.active.len() as u64,
        converged: r.converged(),
        node_visits: stats.node_visits,
        meets: stats.meets,
        comm_evals: stats.comm_evals,
        worklist_peak: stats.worklist_peak as u64,
    }
}

/// Run one experiment spec.
pub fn run_experiment(spec: &ExperimentSpec) -> MeasuredRow {
    run_experiment_at(spec, spec.clone_level)
}

/// Run one experiment spec at an explicit clone level (for the ablation).
pub fn run_experiment_at(spec: &ExperimentSpec, clone_level: usize) -> MeasuredRow {
    run_experiment_with(spec, clone_level, &SolveParams::default())
}

/// Run one experiment with explicit solver parameters. A pass budget too
/// small for the fixpoint yields `converged == false` on the affected
/// mode; the row is flagged rather than silently published, and a warning
/// goes to stderr.
pub fn run_experiment_with(
    spec: &ExperimentSpec,
    clone_level: usize,
    params: &SolveParams,
) -> MeasuredRow {
    let ir = programs::ir(spec.program);
    let config = ActivityConfig::new(spec.independents.to_vec(), spec.dependents.to_vec());

    let icfg = Icfg::build(ir.clone(), spec.context, clone_level)
        .unwrap_or_else(|e| panic!("{}: {e}", spec.id));
    let baseline = activity::analyze_icfg_with(&icfg, Mode::GlobalBuffer, &config, params)
        .unwrap_or_else(|e| panic!("{}: {e}", spec.id));

    let mpi = build_mpi_icfg(ir, spec.context, clone_level, Matching::ReachingConstants)
        .unwrap_or_else(|e| panic!("{}: {e}", spec.id));
    let framework = activity::analyze_mpi_with(&mpi, &config, params)
        .unwrap_or_else(|e| panic!("{}: {e}", spec.id));

    let row = MeasuredRow {
        spec: spec.clone(),
        icfg: to_mode(&baseline, spec.num_indeps),
        mpi: to_mode(&framework, spec.num_indeps),
        comm_edges: mpi.comm_edges.len(),
        provenance: None,
        cache: None,
    };
    if !row.converged() {
        eprintln!(
            "warning: {}: solver did not reach a fixpoint within {} passes \
             (ICFG converged: {}, MPI-ICFG converged: {}) — row flagged",
            spec.id, params.max_passes, row.icfg.converged, row.mpi.converged
        );
    }
    row
}

/// Run one experiment under the resource governor. The ICFG baseline runs
/// ungoverned (it is itself essentially the fallback tier and is needed as
/// the comparison reference); the framework side goes through the
/// degradation ladder within `gov.budget` and tags the row with its
/// [`AnalysisProvenance`]. The spec's clone level overrides the governor's
/// so Table-1 rows keep their configured context sensitivity at T0.
pub fn run_experiment_governed(
    spec: &ExperimentSpec,
    gov: &GovernorConfig,
) -> Result<MeasuredRow, String> {
    let ir = programs::ir(spec.program);
    let config = ActivityConfig::new(spec.independents.to_vec(), spec.dependents.to_vec());
    let params = SolveParams {
        max_passes: gov.max_passes,
        ..SolveParams::default()
    };

    let icfg = Icfg::build(ir.clone(), spec.context, spec.clone_level)
        .map_err(|e| format!("{}: {e}", spec.id))?;
    let baseline = activity::analyze_icfg_with(&icfg, Mode::GlobalBuffer, &config, &params)
        .map_err(|e| format!("{}: {e}", spec.id))?;

    let gov = GovernorConfig {
        clone_level: spec.clone_level,
        ..gov.clone()
    };
    let governed = governed_activity(&ir, spec.context, &config, &gov)
        .map_err(|e| format!("{}: {e}", spec.id))?;

    Ok(MeasuredRow {
        spec: spec.clone(),
        icfg: to_mode(&baseline, spec.num_indeps),
        mpi: to_mode(&governed.result, spec.num_indeps),
        comm_edges: governed.comm_edges.unwrap_or(0),
        provenance: Some(governed.provenance),
        cache: None,
    })
}

/// Run every Table 1 row.
pub fn run_all() -> Vec<MeasuredRow> {
    all().iter().map(run_experiment).collect()
}

/// Render the Table 1 reproduction: measured next to paper values.
pub fn render_table1(rows: &[MeasuredRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 1 — activity analysis over the ICFG (global-buffer baseline) vs the MPI-ICFG"
    );
    let _ = writeln!(
        out,
        "{:<8} {:<9} {:>5} {:<9} {:>6} {:>14} {:>14} {:>16} {:>16} {:>9} {:>9}",
        "Bench",
        "Analysis",
        "Clone",
        "IND",
        "Iter",
        "ActiveBytes",
        "(paper)",
        "DerivBytes",
        "(paper)",
        "%Dec",
        "(paper)"
    );
    for r in rows {
        let ind = r.spec.independents.join(",");
        let _ = writeln!(
            out,
            "{:<8} {:<9} {:>5} {:<9} {:>6} {:>14} {:>14} {:>16} {:>16} {:>9} {:>9}",
            r.spec.id,
            "ICFG",
            r.spec.clone_level,
            ind,
            r.icfg.iterations,
            r.icfg.active_bytes,
            r.spec.paper.icfg.active_bytes,
            r.icfg.deriv_bytes,
            r.spec.paper.icfg.deriv_bytes,
            "",
            ""
        );
        let _ = writeln!(
            out,
            "{:<8} {:<9} {:>5} {:<9} {:>6} {:>14} {:>14} {:>16} {:>16} {:>8.2}% {:>8.2}%",
            "",
            "MPI-ICFG",
            "",
            "",
            r.mpi.iterations,
            r.mpi.active_bytes,
            r.spec.paper.mpi.active_bytes,
            r.mpi.deriv_bytes,
            r.spec.paper.mpi.deriv_bytes,
            r.pct_decrease(),
            r.spec.paper.pct_decrease
        );
        if !r.converged() {
            let _ = writeln!(
                out,
                "{:<8} *** NOT CONVERGED — non-fixpoint snapshot, do not publish ***",
                ""
            );
        }
        if let Some(p) = &r.provenance {
            if p.is_precise() {
                let _ = writeln!(
                    out,
                    "{:<8} governed: tier {} (precise), {} work units, {:?}",
                    "", p.tier, p.budget_spent.work, p.budget_spent.elapsed
                );
            } else {
                let _ = writeln!(
                    out,
                    "{:<8} *** DEGRADED to tier {}{} — {} ***",
                    "",
                    p.tier,
                    if p.saturated { " (saturated ⊤)" } else { "" },
                    p.degradation_reason
                        .as_deref()
                        .unwrap_or("budget exhausted")
                );
            }
        }
        if let Some(c) = r.cache {
            let _ = writeln!(
                out,
                "{:<8} cache: {} (content-addressed row store)",
                "",
                c.as_str()
            );
        }
        if let Some(note) = r.spec.note {
            let _ = writeln!(out, "{:<8} note: {}", "", note);
        }
    }
    out
}

/// Render the Figure 4 data: MB saved per benchmark, Active set and
/// Derivative code series.
pub fn render_figure4(rows: &[MeasuredRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 4 — megabytes saved by MPI-ICFG over ICFG activity analysis"
    );
    let _ = writeln!(
        out,
        "{:<8} {:>14} {:>14} {:>16} {:>16}",
        "Bench", "Active MB", "(paper)", "Deriv MB", "(paper)"
    );
    for r in rows {
        let paper_active =
            (r.spec.paper.icfg.active_bytes - r.spec.paper.mpi.active_bytes) as f64 / 1.0e6;
        let paper_deriv =
            (r.spec.paper.icfg.deriv_bytes - r.spec.paper.mpi.deriv_bytes) as f64 / 1.0e6;
        let degraded = r.provenance.as_ref().is_some_and(|p| !p.is_precise());
        let _ = writeln!(
            out,
            "{:<8} {:>14.3} {:>14.3} {:>16.3} {:>16.3}{}",
            r.spec.id,
            r.active_mb_saved(),
            paper_active,
            r.deriv_mb_saved(),
            paper_deriv,
            if degraded {
                "  [degraded — savings not comparable]"
            } else {
                ""
            }
        );
    }
    out
}

/// The fixed key order of one experiment object in [`render_json`], shared
/// with the determinism test so a reordering cannot slip in silently.
pub const JSON_EXPERIMENT_KEYS: [&str; 15] = [
    "id",
    "program",
    "context",
    "clone_level",
    "independents",
    "dependents",
    "num_indeps",
    "comm_edges",
    "converged",
    "icfg",
    "mpi_icfg",
    "pct_decrease",
    "paper",
    "provenance",
    "cache",
];

/// Render the full result set as JSON (hand-rolled writer: the structure is
/// flat and the workspace avoids a JSON dependency for one report).
///
/// The output is **deterministic**: every object emits its keys in a fixed,
/// documented order ([`JSON_EXPERIMENT_KEYS`] at the experiment level;
/// `iterations, active_bytes, deriv_bytes, solver` inside each mode;
/// `node_visits, meets, comm_evals, worklist_peak` inside `solver`;
/// `tier, saturated, work_units, elapsed_ms, degradation_reason` inside
/// `provenance`; `cache` last — `null` without `--cache-dir`, else
/// `"hit"`/`"miss"`). Rendering the same rows twice is byte-identical, so
/// CI can diff reports. The only fields that vary *between* runs of the
/// same experiment are wall-clock measurements (`elapsed_ms`).
pub fn render_json(rows: &[MeasuredRow]) -> String {
    fn mode_json(m: &MeasuredMode) -> String {
        format!(
            "{{\"iterations\": {}, \"active_bytes\": {}, \"deriv_bytes\": {}, \
             \"solver\": {{\"node_visits\": {}, \"meets\": {}, \"comm_evals\": {}, \
             \"worklist_peak\": {}}}}}",
            m.iterations,
            m.active_bytes,
            m.deriv_bytes,
            m.node_visits,
            m.meets,
            m.comm_evals,
            m.worklist_peak,
        )
    }
    let mut out = String::from("{\n  \"experiments\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let provenance = match &r.provenance {
            None => "null".to_string(),
            Some(p) => format!(
                "{{\"tier\": \"{}\", \"saturated\": {}, \"work_units\": {}, \"elapsed_ms\": {}, \"degradation_reason\": {}}}",
                p.tier,
                p.saturated,
                p.budget_spent.work,
                p.budget_spent.elapsed.as_millis(),
                match &p.degradation_reason {
                    None => "null".to_string(),
                    Some(s) => format!("\"{}\"", json_escape(s)),
                }
            ),
        };
        let cache = match r.cache {
            None => "null".to_string(),
            Some(c) => format!("\"{}\"", c.as_str()),
        };
        let _ = write!(
            out,
            "    {{\"id\": \"{}\", \"program\": \"{}\", \"context\": \"{}\", \"clone_level\": {}, \"independents\": [{}], \"dependents\": [{}], \"num_indeps\": {}, \"comm_edges\": {}, \"converged\": {}, \"icfg\": {}, \"mpi_icfg\": {}, \"pct_decrease\": {:.4}, \"paper\": {{\"icfg_active_bytes\": {}, \"mpi_active_bytes\": {}, \"pct_decrease\": {}}}, \"provenance\": {provenance}, \"cache\": {cache}}}",
            json_escape(r.spec.id),
            json_escape(r.spec.program),
            json_escape(r.spec.context),
            r.spec.clone_level,
            r.spec.independents.iter().map(|s| format!("\"{}\"", json_escape(s))).collect::<Vec<_>>().join(", "),
            r.spec.dependents.iter().map(|s| format!("\"{}\"", json_escape(s))).collect::<Vec<_>>().join(", "),
            r.spec.num_indeps,
            r.comm_edges,
            r.converged(),
            mode_json(&r.icfg),
            mode_json(&r.mpi),
            r.pct_decrease(),
            r.spec.paper.icfg.active_bytes,
            r.spec.paper.mpi.active_bytes,
            r.spec.paper.pct_decrease,
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::by_id;

    #[test]
    fn biostat_matches_paper_exactly() {
        let row = run_experiment(&by_id("Biostat").unwrap());
        assert_eq!(row.icfg.active_bytes, 1_441_632);
        assert_eq!(row.mpi.active_bytes, 9_016);
        assert_eq!(row.icfg.deriv_bytes, 1_569_937_248);
        assert_eq!(row.mpi.deriv_bytes, 9_818_424);
        assert!((row.pct_decrease() - 99.37).abs() < 0.01);
    }

    #[test]
    fn sor_matches_paper_exactly() {
        let row = run_experiment(&by_id("SOR").unwrap());
        assert_eq!(row.icfg.active_bytes, 3_038_136);
        assert_eq!(row.mpi.active_bytes, 3_030_104);
        assert!((row.pct_decrease() - 0.26).abs() < 0.01);
    }

    #[test]
    fn cg_shows_no_savings() {
        let row = run_experiment(&by_id("CG").unwrap());
        assert_eq!(row.icfg.active_bytes, 240_048);
        assert_eq!(row.mpi.active_bytes, 240_048);
        assert_eq!(row.pct_decrease(), 0.0);
    }

    #[test]
    fn lu_rows_match_shape() {
        let lu1 = run_experiment(&by_id("LU-1").unwrap());
        assert_eq!(lu1.mpi.active_bytes, 93_636_000);
        assert!(
            (lu1.pct_decrease() - 49.98).abs() < 0.05,
            "{}",
            lu1.pct_decrease()
        );

        let lu2 = run_experiment(&by_id("LU-2").unwrap());
        assert_eq!(lu2.mpi.active_bytes, 145_901_168);
        assert_eq!(lu2.icfg.active_bytes, 145_901_208);

        let lu3 = run_experiment(&by_id("LU-3").unwrap());
        assert_eq!(lu3.mpi.active_bytes, 46_818_016);
        assert!(
            (lu3.pct_decrease() - 66.65).abs() < 0.05,
            "{}",
            lu3.pct_decrease()
        );
    }

    #[test]
    fn mg_rows_match_paper_exactly() {
        let mg1 = run_experiment(&by_id("MG-1").unwrap());
        assert_eq!(mg1.icfg.active_bytes, 647_487_912);
        assert_eq!(mg1.mpi.active_bytes, 647_487_896);

        let mg2 = run_experiment(&by_id("MG-2").unwrap());
        assert_eq!(mg2.icfg.active_bytes, 16_908_656);
        assert_eq!(mg2.mpi.active_bytes, 16_908_640);
    }

    #[test]
    fn sweep_rows_match() {
        let sw1 = run_experiment(&by_id("Sw-1").unwrap());
        // Paper: 18,120,784 — the SMPL port's leakage intermediates add 40
        // bytes under the global-buffer baseline (see the spec note).
        assert_eq!(sw1.icfg.active_bytes, 18_120_824);
        assert_eq!(sw1.mpi.active_bytes, 18_000_048);

        let sw3 = run_experiment(&by_id("Sw-3").unwrap());
        assert_eq!(sw3.icfg.active_bytes, 120_984);
        assert_eq!(sw3.mpi.active_bytes, 248);

        let sw4 = run_experiment(&by_id("Sw-4").unwrap());
        assert_eq!(sw4.mpi.active_bytes, 104);

        let sw5 = run_experiment(&by_id("Sw-5").unwrap());
        assert_eq!(sw5.mpi.active_bytes, 296);
        assert_eq!(sw5.icfg.active_bytes, 121_032);

        let sw6 = run_experiment(&by_id("Sw-6").unwrap());
        // Paper ICFG: 18,120,840; the port comes in 144 bytes lower.
        assert_eq!(sw6.icfg.active_bytes, 18_120_696);
        assert_eq!(sw6.mpi.active_bytes, 104);
        assert!((sw6.pct_decrease() - 100.0).abs() < 0.01);
    }

    #[test]
    fn non_convergence_is_flagged_not_silent() {
        // A one-pass budget cannot reach the Biostat fixpoint; the row must
        // say so loudly instead of publishing non-fixpoint numbers.
        let spec = by_id("Biostat").unwrap();
        let row = run_experiment_with(
            &spec,
            spec.clone_level,
            &SolveParams {
                max_passes: 1,
                ..SolveParams::default()
            },
        );
        assert!(!row.converged(), "1 pass cannot be a fixpoint on Biostat");
        let table = render_table1(std::slice::from_ref(&row));
        assert!(table.contains("NOT CONVERGED"), "{table}");
        let json = render_json(&[row]);
        assert!(json.contains("\"converged\": false"), "{json}");

        // And the default budget does converge, unflagged.
        let row = run_experiment(&spec);
        assert!(row.converged());
        assert!(!render_table1(&[row]).contains("NOT CONVERGED"));
    }

    #[test]
    fn governed_row_with_unlimited_budget_is_precise_and_tagged() {
        let spec = by_id("Biostat").unwrap();
        let row = run_experiment_governed(&spec, &GovernorConfig::default()).unwrap();
        let p = row.provenance.as_ref().unwrap();
        assert!(p.is_precise(), "{p:?}");
        // Same numbers as the ungoverned run.
        let plain = run_experiment(&spec);
        assert_eq!(row.mpi.active_bytes, plain.mpi.active_bytes);
        assert_eq!(row.comm_edges, plain.comm_edges);
        let table = render_table1(std::slice::from_ref(&row));
        assert!(table.contains("governed: tier T0"), "{table}");
        let json = render_json(&[row]);
        assert!(json.contains("\"tier\": \"T0\""), "{json}");
        assert!(json.contains("\"saturated\": false"), "{json}");
    }

    #[test]
    fn governed_row_under_tiny_budget_degrades_and_is_flagged_everywhere() {
        use mpi_dfa_core::budget::Budget;
        let spec = by_id("LU-1").unwrap();
        let gov = GovernorConfig {
            budget: Budget::unlimited().with_max_work(10),
            ..GovernorConfig::default()
        };
        let row = run_experiment_governed(&spec, &gov).unwrap();
        let p = row.provenance.clone().unwrap();
        assert!(!p.is_precise());
        assert!(p.degradation_reason.is_some());
        // The degraded result over-approximates the full-budget T0 result.
        let full = run_experiment(&spec);
        assert!(
            row.mpi.active_bytes >= full.mpi.active_bytes,
            "degraded {} < precise {}",
            row.mpi.active_bytes,
            full.mpi.active_bytes
        );
        let table = render_table1(std::slice::from_ref(&row));
        assert!(table.contains("DEGRADED"), "{table}");
        let fig = render_figure4(std::slice::from_ref(&row));
        assert!(fig.contains("degraded"), "{fig}");
        let json = render_json(&[row]);
        assert!(json.contains("\"degradation_reason\": \""), "{json}");
    }

    #[test]
    fn json_render_is_parsable_shape() {
        let rows = vec![run_experiment(&by_id("Biostat").unwrap())];
        let j = render_json(&rows);
        assert!(j.starts_with('{') && j.trim_end().ends_with('}'));
        assert!(j.contains("\"id\": \"Biostat\""));
        assert!(j.contains("\"active_bytes\": 9016"));
        // Balanced braces and brackets (a cheap well-formedness check).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn json_render_is_deterministic_and_keys_are_ordered() {
        // Satellite: CI diffs the JSON report, so rendering the same rows
        // twice must be byte-identical, and every experiment object must
        // emit its keys in the documented fixed order.
        let rows = vec![
            run_experiment(&by_id("Biostat").unwrap()),
            run_experiment(&by_id("SOR").unwrap()),
        ];
        let a = render_json(&rows);
        let b = render_json(&rows);
        assert_eq!(a, b, "same rows must render byte-identically");

        for line in a.lines().filter(|l| l.trim_start().starts_with("{\"id\"")) {
            let mut last = 0usize;
            for key in JSON_EXPERIMENT_KEYS {
                let needle = format!("\"{key}\":");
                let pos = line[last..]
                    .find(&needle)
                    .unwrap_or_else(|| panic!("key `{key}` missing or out of order in {line}"));
                last += pos + needle.len();
            }
        }

        // Solver stats appear in their fixed order inside each mode object.
        let stats_order = "\"solver\": {\"node_visits\": ";
        assert!(a.contains(stats_order), "{a}");
        let after = a.split(stats_order).nth(1).unwrap();
        let head: String = after.chars().take(120).collect();
        let m = head.find("\"meets\":").expect("meets after node_visits");
        let c = head
            .find("\"comm_evals\":")
            .expect("comm_evals after meets");
        let w = head.find("\"worklist_peak\":").expect("worklist_peak last");
        assert!(m < c && c < w, "stats key order drifted: {head}");
    }

    #[test]
    fn json_cache_key_renders_all_three_states() {
        // The 15th key: `null` without --cache-dir, "hit"/"miss" with it.
        let mut row = run_experiment(&by_id("Biostat").unwrap());
        assert!(render_json(std::slice::from_ref(&row)).contains("\"cache\": null"));
        row.cache = Some(RowCacheStatus::Miss);
        assert!(render_json(std::slice::from_ref(&row)).contains("\"cache\": \"miss\""));
        let table = render_table1(std::slice::from_ref(&row));
        assert!(table.contains("cache: miss"), "{table}");
        row.cache = Some(RowCacheStatus::Hit);
        assert!(render_json(std::slice::from_ref(&row)).contains("\"cache\": \"hit\""));
        assert!(render_table1(std::slice::from_ref(&row)).contains("cache: hit"));
    }

    #[test]
    fn json_solver_stats_are_populated() {
        let row = run_experiment(&by_id("Biostat").unwrap());
        assert!(row.mpi.node_visits > 0);
        assert!(row.mpi.meets > 0);
        assert!(row.mpi.comm_evals > 0, "MPI-ICFG mode evaluates f_comm");
        let j = render_json(std::slice::from_ref(&row));
        assert!(j.contains("\"node_visits\": "), "{j}");
    }

    #[test]
    fn renders_are_nonempty_and_mention_every_row() {
        let rows: Vec<MeasuredRow> = ["Biostat", "SOR"]
            .iter()
            .map(|id| run_experiment(&by_id(id).unwrap()))
            .collect();
        let t = render_table1(&rows);
        assert!(t.contains("Biostat") && t.contains("SOR"));
        let f = render_figure4(&rows);
        assert!(f.contains("Biostat"));
    }
}
