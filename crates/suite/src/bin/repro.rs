//! Reproduction driver: regenerates the paper's Table 1 and Figure 4.
//!
//! ```text
//! repro table1          # full Table 1, paper values alongside
//! repro fig4            # Figure 4 series (MB saved per benchmark)
//! repro all             # both
//! repro row <ID>        # one row, e.g. `repro row LU-1`
//! repro dot <program>   # DOT dump of a benchmark's MPI-ICFG
//! ```
//!
//! Every row-producing command accepts the resource-governor flags
//! `--budget-ms MS`, `--max-visits N`, `--max-fact-bytes B`, and
//! `--degrade auto|off`. With any of them present the framework side of
//! each row runs under the degradation ladder and the rendered output
//! (including the JSON report) carries the provenance tier.
//!
//! Row-producing commands also accept `--cache-dir DIR`: a
//! content-addressed on-disk row cache (keyed by spec, program source, and
//! every governor knob — see `mpi_dfa_suite::rowcache`). Cached rows are
//! labelled `cache: hit|miss` in Table 1 and the JSON report; runs under a
//! wall-clock `--budget-ms` bypass the cache.
//!
//! Every command additionally accepts the telemetry flags `--trace-out
//! FILE.json` (Chrome-trace of the whole reproduction), `--metrics-out
//! FILE.txt` (Prometheus-style text metrics), and `--trace-level
//! off|spans|full` — see docs/OBSERVABILITY.md.
//!
//! Exit status: 0 on success, 1 when any rendered row failed to reach its
//! solver fixpoint (the row is also flagged inline — non-fixpoint numbers
//! must never be published silently), 2 on usage errors.

use mpi_dfa_analyses::governor::{DegradeMode, GovernorConfig};
use mpi_dfa_analyses::mpi_match::{build_mpi_icfg, Matching};
use mpi_dfa_core::budget::Budget;
use mpi_dfa_core::telemetry::CliTelemetry;
use mpi_dfa_suite::rowcache::RowCache;
use mpi_dfa_suite::runner::{MeasuredRow, RowCacheStatus};
use mpi_dfa_suite::{all_experiments, by_id, runner, ExperimentSpec};
use std::io::Write as _;
use std::process::ExitCode;

/// 1 when any row is a non-fixpoint snapshot, else 0.
fn convergence_exit(rows: &[MeasuredRow]) -> ExitCode {
    let bad: Vec<&str> = rows
        .iter()
        .filter(|r| !r.converged())
        .map(|r| r.spec.id)
        .collect();
    if bad.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "repro: {} row(s) did not converge ({}); numbers above are non-fixpoint snapshots",
            bad.len(),
            bad.join(", ")
        );
        ExitCode::FAILURE
    }
}

/// Split the telemetry flags (`--trace-out`, `--metrics-out`,
/// `--trace-level`) out of `args` *before* governor parsing — every command
/// accepts them, and [`governor_from_args`] rejects flags it does not know.
fn telemetry_from_args(args: &[String]) -> Result<(CliTelemetry, Vec<String>), String> {
    let mut trace_out = None;
    let mut metrics_out = None;
    let mut level = None;
    let mut rest = Vec::with_capacity(args.len());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let target = match a.as_str() {
            "--trace-out" => &mut trace_out,
            "--metrics-out" => &mut metrics_out,
            "--trace-level" => &mut level,
            _ => {
                rest.push(a.clone());
                continue;
            }
        };
        *target = Some(
            it.next()
                .ok_or_else(|| format!("{a} needs a value"))?
                .clone(),
        );
    }
    let tel = CliTelemetry::resolve(trace_out, metrics_out, level.as_deref())?;
    Ok((tel, rest))
}

/// Split `--cache-dir DIR` out of `args` (same pattern as
/// [`telemetry_from_args`]: [`governor_from_args`] rejects unknown flags).
/// Returns the opened row cache, if requested.
fn cache_from_args(args: &[String]) -> Result<(Option<RowCache>, Vec<String>), String> {
    let mut dir = None;
    let mut rest = Vec::with_capacity(args.len());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--cache-dir" {
            dir = Some(
                it.next()
                    .ok_or_else(|| format!("{a} needs a value"))?
                    .clone(),
            );
        } else {
            rest.push(a.clone());
        }
    }
    let cache = dir.map(|d| RowCache::open(&d)).transpose()?;
    Ok((cache, rest))
}

/// Run one spec through the optional row cache: consult it, label the row
/// hit/miss, and populate it on a miss. Deadline-budgeted runs have no key
/// (their tier outcome is timing-dependent); they always recompute and
/// keep `cache: None` even when a cache directory is configured — the
/// same contract as the service's `bypass` label.
fn run_one(
    spec: &ExperimentSpec,
    gov: &Option<GovernorConfig>,
    cache: &Option<RowCache>,
) -> Result<MeasuredRow, String> {
    let key = cache
        .as_ref()
        .and_then(|_| RowCache::key(spec, gov.as_ref()));
    if let (Some(c), Some(k)) = (cache, key) {
        if let Some(mut row) = c.get(k, spec) {
            row.cache = Some(RowCacheStatus::Hit);
            return Ok(row);
        }
    }
    let mut row = match gov {
        None => runner::run_experiment(spec),
        Some(g) => runner::run_experiment_governed(spec, g)?,
    };
    if let (Some(c), Some(k)) = (cache, key) {
        c.put(k, &row);
        row.cache = Some(RowCacheStatus::Miss);
    }
    Ok(row)
}

/// Parse the optional governor flags; `Ok(None)` when none are present
/// (the historical ungoverned behavior).
fn governor_from_args(args: &[String]) -> Result<Option<GovernorConfig>, String> {
    let mut budget = Budget::unlimited();
    let mut degrade = DegradeMode::Auto;
    let mut seen = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(name) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument `{a}`"));
        };
        let mut value = || -> Result<&String, String> {
            it.next().ok_or_else(|| format!("--{name} needs a value"))
        };
        match name {
            "budget-ms" => {
                budget = budget
                    .with_deadline_ms(value()?.parse().map_err(|e| format!("--budget-ms: {e}"))?);
            }
            "max-visits" => {
                budget = budget
                    .with_max_work(value()?.parse().map_err(|e| format!("--max-visits: {e}"))?);
            }
            "max-fact-bytes" => {
                budget = budget.with_max_fact_bytes(
                    value()?
                        .parse()
                        .map_err(|e| format!("--max-fact-bytes: {e}"))?,
                );
            }
            "degrade" => {
                degrade = match value()?.as_str() {
                    "auto" => DegradeMode::Auto,
                    "off" => DegradeMode::Off,
                    other => return Err(format!("unknown --degrade `{other}` (auto|off)")),
                };
            }
            other => return Err(format!("unknown flag --{other}")),
        }
        seen = true;
    }
    Ok(seen.then_some(GovernorConfig {
        budget,
        degrade,
        ..GovernorConfig::default()
    }))
}

/// All Table 1 rows, governed when `gov` is set, cached when `cache` is.
fn all_rows(
    gov: &Option<GovernorConfig>,
    cache: &Option<RowCache>,
) -> Result<Vec<MeasuredRow>, String> {
    all_experiments()
        .iter()
        .map(|spec| run_one(spec, gov, cache))
        .collect()
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (tel, args) = match telemetry_from_args(&raw) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("repro: {e}");
            return ExitCode::from(2);
        }
    };
    tel.install();
    let code = drive(&args);
    // Telemetry files are written even when the command failed: a trace of
    // a failing reproduction is exactly when you want one.
    if let Err(e) = tel.write() {
        eprintln!("repro: {e}");
        return ExitCode::FAILURE;
    }
    code
}

fn drive(args: &[String]) -> ExitCode {
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    let stdout = std::io::stdout();
    let mut out = stdout.lock();

    // Row-producing commands share the governor flags; `row` consumes one
    // positional ID first.
    let flag_args = match cmd {
        "table1" | "json" | "fig4" | "all" => &args[1.min(args.len())..],
        "row" => &args[2.min(args.len())..],
        _ => &[],
    };
    // `--cache-dir` is stripped first (like the telemetry flags in `main`),
    // then the remainder must be governor flags.
    let (cache, flag_args) = match cache_from_args(flag_args) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("repro: {e}");
            return ExitCode::from(2);
        }
    };
    let gov = match governor_from_args(&flag_args) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("repro: {e}");
            return ExitCode::from(2);
        }
    };

    match cmd {
        "table1" | "json" | "fig4" | "all" => {
            let rows = match all_rows(&gov, &cache) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("repro: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match cmd {
                "table1" => {
                    let _ = write!(out, "{}", runner::render_table1(&rows));
                }
                "json" => {
                    let _ = write!(out, "{}", runner::render_json(&rows));
                }
                "fig4" => {
                    let _ = write!(out, "{}", runner::render_figure4(&rows));
                }
                _ => {
                    let _ = write!(out, "{}", runner::render_table1(&rows));
                    let _ = writeln!(out);
                    let _ = write!(out, "{}", runner::render_figure4(&rows));
                }
            }
            convergence_exit(&rows)
        }
        "row" => {
            let id = args.get(1).map(String::as_str).unwrap_or("");
            match by_id(id) {
                Some(spec) => {
                    let row = match run_one(&spec, &gov, &cache) {
                        Ok(r) => r,
                        Err(e) => {
                            eprintln!("repro: {e}");
                            return ExitCode::FAILURE;
                        }
                    };
                    let _ = write!(out, "{}", runner::render_table1(std::slice::from_ref(&row)));
                    convergence_exit(std::slice::from_ref(&row))
                }
                None => {
                    let ids: Vec<&str> = all_experiments().iter().map(|e| e.id).collect();
                    eprintln!("unknown row `{id}`; known rows: {}", ids.join(", "));
                    ExitCode::from(2)
                }
            }
        }
        "dot" => {
            // `dot` reads no flags: refuse whatever follows the program
            // name instead of ignoring it.
            if let Some(extra) = args.get(2) {
                match extra.strip_prefix("--") {
                    Some(flag) => eprintln!("repro: unknown flag --{flag} for `dot`"),
                    None => eprintln!("repro: unexpected argument `{extra}`"),
                }
                return ExitCode::from(2);
            }
            let name = args.get(1).map(String::as_str).unwrap_or("figure1");
            let spec = all_experiments().into_iter().find(|e| e.program == name);
            let (context, clone) = spec
                .as_ref()
                .map(|s| (s.context, s.clone_level))
                .unwrap_or(("main", 0));
            let Some(src) = mpi_dfa_suite::programs::source(name) else {
                eprintln!("repro: unknown benchmark program `{name}`");
                return ExitCode::from(2);
            };
            let ir = match mpi_dfa_graph::icfg::ProgramIr::from_source(src) {
                Ok(ir) => ir,
                Err(e) => {
                    eprintln!("repro: `{name}` failed to compile: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match build_mpi_icfg(ir, context, clone, Matching::ReachingConstants) {
                Ok(mpi) => {
                    let _ = write!(out, "{}", mpi_dfa_graph::dot::mpi_icfg_to_dot(&mpi, name));
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("repro: graph construction for `{name}` failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        other => {
            eprintln!(
                "unknown command `{other}`; try: table1 | fig4 | json | all | row <ID> | dot <program>\n\
                 governor flags: --budget-ms MS --max-visits N --max-fact-bytes B --degrade auto|off\n\
                 caching (row commands): --cache-dir DIR — content-addressed on-disk row store;\n\
                 rows render `cache: hit|miss` and the JSON report gains a `cache` key\n\
                 (--budget-ms runs bypass the cache; see docs/SERVING.md)\n\
                 telemetry flags (any command): --trace-out FILE.json --metrics-out FILE.txt\n\
                 --trace-level off|spans|full (see docs/OBSERVABILITY.md)"
            );
            ExitCode::from(2)
        }
    }
}
