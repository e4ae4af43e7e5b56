//! `mpidfa` — command-line front end for the MPI data-flow analyses.
//!
//! ```text
//! mpidfa activity  <file.smpl> --context main --ind x[,y] --dep f [--clone N] [--mode mpi|global|naive]
//! mpidfa constants <file.smpl> --context main [--clone N]
//! mpidfa slice     <file.smpl> --context main --stmt 0 [--no-comm]
//! mpidfa taint     <file.smpl> --context main --source x [--reads-tainted] [--conservative]
//! mpidfa bitwidth  <file.smpl> --context main [--conservative]
//! mpidfa graph     <file.smpl> --context main [--clone N] [--matching naive|syntactic|consts]
//! mpidfa verify    <file.smpl> --context main [--nprocs N] [--schedules K] [--seed N] [--json] [--dot]
//! mpidfa run       <file.smpl> [--nprocs N] [--entry main] [--faults seed=N[,...]] [--schedules K]
//! mpidfa batch     <requests.jsonl | -> [--pool N] [--cache-mem MIB] [--cache-dir D]
//! mpidfa serve     [--addr 127.0.0.1:PORT] [--shards N] [--cache-mem MIB] [--cache-dir D] [--max-inflight N] [--idle-timeout-ms MS] [--log-dir D]
//! mpidfa trace     <trace-id> --log-dir D
//! ```
//!
//! Every command prints a human-readable report to stdout; parse/sema errors
//! carry line:column locations and exit with status 1, as does a flag the
//! command does not read.

use mpi_dfa::analyses::bitwidth::{self, WidthMode, FULL};
use mpi_dfa::analyses::consts;
use mpi_dfa::analyses::governor::{governed_activity, DegradeMode, GovernorConfig};
use mpi_dfa::analyses::slicing::forward_slice;
use mpi_dfa::analyses::taint::{self, TaintConfig, TaintMode};
use mpi_dfa::core::budget::Budget;
use mpi_dfa::core::lattice::ConstLattice;
use mpi_dfa::core::solver::ConvergenceStats;
use mpi_dfa::core::telemetry;
use mpi_dfa::lang::fault::FaultPlan;
use mpi_dfa::lang::interp::{self, InterpConfig, RuntimeLimits};
use mpi_dfa::prelude::*;
use mpi_dfa::suite::schedules::ScheduleConfig;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("mpidfa: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Minimal flag parser: positional file + `--key value` / `--switch` pairs.
struct Opts {
    file: Option<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Opts {
    fn parse(args: &[String]) -> Opts {
        let mut file = None;
        let mut flags = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                // Take the following token as this flag's value unless it
                // looks like another flag; `it.next()` cannot panic here
                // because the peek succeeded, but avoid relying on that.
                let value = if it.peek().is_some_and(|v| !v.starts_with("--")) {
                    it.next().cloned()
                } else {
                    None
                };
                flags.push((name.to_string(), value));
            } else if file.is_none() {
                file = Some(a.clone());
            }
        }
        Opts { file, flags }
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn switch(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn list(&self, name: &str) -> Vec<String> {
        self.value(name)
            .map(|v| v.split(',').map(|s| s.trim().to_string()).collect())
            .unwrap_or_default()
    }

    /// Fail on the first flag `cmd` does not read, naming it. Unknown
    /// commands pass: `dispatch` answers them with the usage text.
    fn reject_unknown(&self, cmd: &str) -> Result<(), String> {
        let Some(groups) = command_flags(cmd) else {
            return Ok(());
        };
        let known = |name: &str| {
            TELEMETRY_FLAGS
                .iter()
                .chain(groups.iter().copied().flatten())
                .any(|&f| f == name)
        };
        match self.flags.iter().find(|(name, _)| !known(name)) {
            Some((name, _)) => Err(format!(
                "unknown flag --{name} for `{cmd}` (run `mpidfa` for each command's flags)"
            )),
            None => Ok(()),
        }
    }
}

/// Flags every command reads.
const TELEMETRY_FLAGS: &[&str] = &["trace-out", "metrics-out", "trace-level"];
/// Flags every single-program command reads (see `dispatch`).
const PROGRAM_FLAGS: &[&str] = &["context", "clone"];
/// The budget flags [`governor_config`] reads.
const BUDGET_FLAGS: &[&str] = &["budget-ms", "max-visits", "max-fact-bytes", "degrade"];
/// The flags [`service_engine`] reads.
const ENGINE_FLAGS: &[&str] = &["cache-mem", "cache-dir", "max-inflight", "shard-id"];

/// The flags `cmd` reads besides [`TELEMETRY_FLAGS`], or `None` for an
/// unknown command. `serve` includes the flags the cluster supervisor
/// passes to its workers (`--shard-id`, `--addr`, `--telemetry-stream`).
fn command_flags(cmd: &str) -> Option<&'static [&'static [&'static str]]> {
    Some(match cmd {
        "activity" => &[PROGRAM_FLAGS, &["ind", "dep", "mode"], BUDGET_FLAGS],
        "constants" => &[PROGRAM_FLAGS],
        "slice" => &[PROGRAM_FLAGS, &["stmt", "no-comm"]],
        "taint" => &[PROGRAM_FLAGS, &["source", "reads-tainted", "conservative"]],
        "bitwidth" => &[PROGRAM_FLAGS, &["conservative"]],
        "graph" => &[PROGRAM_FLAGS, &["matching", "heat", "ind", "dep"]],
        "verify" => &[
            PROGRAM_FLAGS,
            &[
                "matching",
                "nprocs",
                "schedules",
                "seed",
                "json",
                "dot",
                "max-steps",
            ],
            BUDGET_FLAGS,
        ],
        "run" => &[
            PROGRAM_FLAGS,
            &["nprocs", "entry", "faults", "schedules", "max-steps"],
        ],
        "batch" => &[ENGINE_FLAGS, &["pool"]],
        "serve" => &[
            ENGINE_FLAGS,
            &[
                "addr",
                "shards",
                "idle-timeout-ms",
                "log-dir",
                "telemetry-stream",
            ],
        ],
        "trace" => &[&["log-dir"]],
        "help" | "--help" | "-h" => &[],
        _ => return None,
    })
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err(usage());
    };
    let opts = Opts::parse(&args[1..]);
    opts.reject_unknown(cmd)?;
    let tel = telemetry::CliTelemetry::resolve(
        opts.value("trace-out").map(String::from),
        opts.value("metrics-out").map(String::from),
        opts.value("trace-level"),
    )?;
    tel.install();
    let result = dispatch(cmd, &opts);
    // Telemetry files are written even when the command fails: a trace of a
    // failing run is exactly when you want one. Exception: a serve that
    // exports through a `TelemetryHub` writes its own files. A cluster
    // serve writes the merged cross-process trace and cluster metrics, a
    // supervisor-managed worker streams upward, and a single-box serve
    // with --trace-out writes the spans its flusher drained from the sink,
    // which holds nothing to write here.
    let serve_owns_telemetry = cmd == "serve"
        && (opts.value("shards").is_some()
            || opts.switch("telemetry-stream")
            || opts.value("trace-out").is_some());
    let tel_result = if serve_owns_telemetry {
        Ok(())
    } else {
        tel.write()
    };
    result.and(tel_result)
}

fn dispatch(cmd: &str, opts: &Opts) -> Result<(), String> {
    // Service front ends take a JSONL stream / a socket address, and help
    // takes nothing — route them before the source loader runs.
    match cmd {
        "batch" => return cmd_batch(opts),
        "serve" => return cmd_serve(opts),
        "trace" => return cmd_trace(opts),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            return Ok(());
        }
        _ => {}
    }
    let src = load(opts)?;
    let context = opts.value("context").unwrap_or("main").to_string();
    let clone_level: usize = opts
        .value("clone")
        .map(|v| v.parse().map_err(|e| format!("--clone: {e}")))
        .transpose()?
        .unwrap_or(0);

    let ir = || ProgramIr::from_source(&src).map_err(|e| e.to_string());
    let graph = |matching: Matching| -> Result<MpiIcfg, String> {
        build_mpi_icfg(ir()?, &context, clone_level, matching).map_err(|e| e.to_string())
    };

    match cmd {
        "activity" => {
            let ind = opts.list("ind");
            let dep = opts.list("dep");
            if ind.is_empty() || dep.is_empty() {
                return Err("activity requires --ind and --dep".into());
            }
            let config = ActivityConfig::new(ind.clone(), dep.clone());
            let mode = opts.value("mode").unwrap_or("mpi");
            let ir = ir()?;
            let (result, provenance) = match mode {
                "mpi" => {
                    // The MPI-ICFG path runs under the resource governor:
                    // with the default unlimited budget it is exactly the
                    // precise T0 analysis; with --budget-ms / --max-visits
                    // it degrades soundly instead of hanging.
                    let gov = governor_config(opts, clone_level)?;
                    let g = governed_activity(&ir, &context, &config, &gov)?;
                    (g.result, Some(g.provenance))
                }
                "global" | "naive" => {
                    let icfg = Icfg::build(ir.clone(), &context, clone_level)
                        .map_err(|e| e.to_string())?;
                    let m = if mode == "global" {
                        Mode::GlobalBuffer
                    } else {
                        Mode::Naive
                    };
                    (activity::analyze_icfg(&icfg, m, &config)?, None)
                }
                other => return Err(format!("unknown --mode `{other}` (mpi|global|naive)")),
            };
            println!(
                "activity analysis over {} (context `{context}`, clone level {clone_level})",
                match mode {
                    "mpi" => "the MPI-ICFG",
                    "global" => "the ICFG with global-buffer assumptions",
                    _ => "a naive CFG (no communication model)",
                }
            );
            if let Some(p) = &provenance {
                println!(
                    "  provenance: tier {}{} ({} solver work units, {:?})",
                    p.tier,
                    if p.saturated {
                        " — saturated ⊤"
                    } else {
                        ""
                    },
                    p.budget_spent.work,
                    p.budget_spent.elapsed
                );
                if let Some(reason) = &p.degradation_reason {
                    println!("  degraded: {reason}");
                }
            }
            println!("  independents: {ind:?}\n  dependents:   {dep:?}");
            println!("  solver passes: {}", result.iterations);
            println!("  active storage: {} bytes", result.active_bytes);
            println!(
                "  derivative storage ({} independents): {} bytes",
                ind.len(),
                result.deriv_bytes(ind.len() as u64)
            );
            println!("  active symbols:");
            for loc in result.active_locs() {
                if loc == mpi_dfa::graph::LocTable::MPI_BUFFER {
                    continue;
                }
                let info = ir.locs.info(loc);
                println!(
                    "    {:<24} {:>12} bytes",
                    ir.locs.qualified_name(loc),
                    info.byte_size()
                );
            }
        }
        "constants" => {
            let g = graph(Matching::ReachingConstants)?;
            let sol = consts::analyze_mpi(&g);
            let env = sol.before(g.context_exit());
            println!("reaching constants at the exit of `{context}` (MPI-ICFG):");
            let ir = ir()?;
            for (loc, info) in ir.locs.iter() {
                if info.name == "__mpi_buffer" {
                    continue;
                }
                if let ConstLattice::Const(v) = env.get(loc) {
                    let name = ir.locs.qualified_name(loc);
                    // A run holds `true` as 1 and `false` as 0.
                    match (info.ty.base, v.0) {
                        (mpi_dfa::lang::BaseType::Logical, x) if x == 0.0 || x == 1.0 => {
                            println!("  {name:<24} = {}", x == 1.0)
                        }
                        _ => println!("  {name:<24} = {v}"),
                    }
                }
            }
            println!("(unlisted locations are not provably constant)");
        }
        "slice" => {
            let stmt: u32 = opts
                .value("stmt")
                .ok_or("slice requires --stmt <id>")?
                .parse()
                .map_err(|e| format!("--stmt: {e}"))?;
            let ids: Vec<u32> = if opts.switch("no-comm") {
                let icfg = Icfg::build(ir()?, &context, clone_level).map_err(|e| e.to_string())?;
                forward_slice(&icfg, &icfg, StmtId(stmt))
                    .iter()
                    .map(|s| s.0)
                    .collect()
            } else {
                let g = graph(Matching::ReachingConstants)?;
                forward_slice(&g, g.icfg(), StmtId(stmt))
                    .iter()
                    .map(|s| s.0)
                    .collect()
            };
            println!(
                "forward data slice from statement s{stmt}{}:",
                if opts.switch("no-comm") {
                    " (communication edges disabled)"
                } else {
                    ""
                }
            );
            println!("  statements: {ids:?}");
        }
        "taint" => {
            let sources = opts.list("source");
            let config = TaintConfig {
                tainted_vars: sources.clone(),
                reads_are_tainted: opts.switch("reads-tainted"),
            };
            let ir2 = ir()?;
            let result = if opts.switch("conservative") {
                let icfg =
                    Icfg::build(ir2.clone(), &context, clone_level).map_err(|e| e.to_string())?;
                taint::analyze(&icfg, &icfg, TaintMode::AllReceivesUntrusted, &config)?
            } else {
                let g = graph(Matching::ReachingConstants)?;
                taint::analyze_mpi(&g, &config)?
            };
            println!("trust analysis (sources: {sources:?}):");
            for loc in result.tainted_locs() {
                println!("  untrusted: {}", ir2.locs.qualified_name(loc));
            }
        }
        "bitwidth" => {
            let ir2 = ir()?;
            let result = if opts.switch("conservative") {
                let icfg =
                    Icfg::build(ir2.clone(), &context, clone_level).map_err(|e| e.to_string())?;
                bitwidth::analyze(&icfg, &icfg, WidthMode::Conservative)
            } else {
                let g = graph(Matching::ReachingConstants)?;
                bitwidth::analyze_mpi(&g)
            };
            println!("bitwidth analysis (maximum bits needed per integer location):");
            for (loc, w) in result.narrowed(&ir2.locs) {
                println!(
                    "  {:<24} {w:>3} / {FULL} bits",
                    ir2.locs.qualified_name(loc)
                );
            }
        }
        "graph" => {
            let matching = match opts.value("matching").unwrap_or("consts") {
                "naive" => Matching::Naive,
                "syntactic" => Matching::Syntactic,
                "consts" => Matching::ReachingConstants,
                other => return Err(format!("unknown --matching `{other}`")),
            };
            let g = graph(matching)?;
            if opts.switch("heat") {
                // Colour nodes by solver visit counts: an activity run when
                // --ind/--dep are given, otherwise the reaching-constants
                // bootstrap — the cheapest fixpoint that touches every node.
                let ind = opts.list("ind");
                let dep = opts.list("dep");
                let mut stats = ConvergenceStats::default();
                if !ind.is_empty() && !dep.is_empty() {
                    let config = ActivityConfig::new(ind, dep);
                    let r = activity::analyze_mpi(&g, &config)?;
                    stats.absorb(&r.vary.stats);
                    stats.absorb(&r.useful.stats);
                } else {
                    stats.absorb(&consts::analyze_mpi(&g).stats);
                }
                print!(
                    "{}",
                    mpi_dfa::graph::dot::mpi_icfg_to_dot_heat(&g, &context, &stats.per_node_visits)
                );
            } else {
                print!("{}", mpi_dfa::graph::dot::mpi_icfg_to_dot(&g, &context));
            }
        }
        "verify" => {
            let matching = match opts.value("matching").unwrap_or("consts") {
                "naive" => Matching::Naive,
                "syntactic" => Matching::Syntactic,
                "consts" => Matching::ReachingConstants,
                other => return Err(format!("unknown --matching `{other}`")),
            };
            let nprocs: usize = opts
                .value("nprocs")
                .map(|v| v.parse().map_err(|e| format!("--nprocs: {e}")))
                .transpose()?
                .unwrap_or(2);
            let schedules: u32 = opts
                .value("schedules")
                .map(|v| v.parse().map_err(|e| format!("--schedules: {e}")))
                .transpose()?
                .unwrap_or(8);
            let mut cfg = mpi_dfa::verify::VerifyConfig {
                nprocs,
                schedules,
                entry: context.clone(),
                limits: runtime_limits(opts)?,
                ..mpi_dfa::verify::VerifyConfig::default()
            };
            if let Some(v) = opts.value("seed") {
                cfg.base_seed = v.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            let budget = governor_config(opts, clone_level)?.budget;
            let g = graph(matching)?;
            let report = mpi_dfa::verify::verify(&g, &cfg, &budget).map_err(|e| e.to_string())?;
            let title = opts.file.as_deref().unwrap_or("program");
            if opts.switch("dot") {
                print!("{}", mpi_dfa::verify::dot::overlay(&g, &report, title));
            } else if opts.switch("json") {
                println!("{}", mpi_dfa::verify::render_json(&report));
            } else {
                print!("{}", mpi_dfa::verify::render_text(&report, title, &cfg));
            }
            if report.verdict == mpi_dfa::verify::Verdict::Flagged {
                return Err("verification flagged findings (see report above)".into());
            }
        }
        "run" => {
            let nprocs: usize = opts
                .value("nprocs")
                .map(|v| v.parse().map_err(|e| format!("--nprocs: {e}")))
                .transpose()?
                .unwrap_or(4);
            let unit = compile(&src).map_err(|e| e.to_string())?;
            let entry = opts.value("entry").unwrap_or("main").to_string();
            let plan = opts
                .value("faults")
                .map(FaultPlan::from_spec)
                .transpose()
                .map_err(|e| format!("--faults: {e}"))?;
            let schedules: usize = opts
                .value("schedules")
                .map(|v| v.parse().map_err(|e| format!("--schedules: {e}")))
                .transpose()?
                .unwrap_or(0);
            let limits = runtime_limits(opts)?;
            if schedules > 0 {
                // Schedule-exploration mode: replay the program under K
                // fault plans derived from the base seed and report each.
                let base = plan.unwrap_or_else(|| FaultPlan::adversarial(0));
                let sc = ScheduleConfig {
                    schedules,
                    base_seed: base.seed,
                    plan: base.clone(),
                    nprocs,
                    limits: limits.clone(),
                };
                println!(
                    "exploring {schedules} {} schedules (base seed {})",
                    if base.is_legal() {
                        "adversarial"
                    } else {
                        "chaotic"
                    },
                    base.seed
                );
                let mut failed = 0usize;
                for i in 0..schedules {
                    let p = sc.plan_for(i);
                    let seed = p.seed;
                    let cfg = InterpConfig {
                        nprocs,
                        entry: entry.clone(),
                        limits: limits.clone(),
                        fault_plan: Some(p),
                        ..Default::default()
                    };
                    match interp::run(&unit.program, &cfg) {
                        Ok(results) => {
                            let steps: u64 = results.iter().map(|r| r.steps).sum();
                            let sends: u64 = results.iter().map(|r| r.sends).sum();
                            println!(
                                "  schedule {i} (seed {seed}): ok — {steps} steps, {sends} sends"
                            );
                        }
                        Err(e) => {
                            failed += 1;
                            println!("  schedule {i} (seed {seed}): FAILED");
                            for line in e.to_string().lines() {
                                println!("    {line}");
                            }
                            if let Some(cycle) = e.waitfor_cycle() {
                                for line in cycle.lines() {
                                    println!("    {line}");
                                }
                            }
                        }
                    }
                }
                if failed > 0 {
                    return Err(format!("{failed}/{schedules} schedules failed"));
                }
                println!("all {schedules} schedules completed");
            } else {
                let cfg = InterpConfig {
                    nprocs,
                    entry,
                    limits,
                    fault_plan: plan,
                    ..Default::default()
                };
                let results = interp::run(&unit.program, &cfg).map_err(|e| {
                    // A deadlock report names each blocked rank; when the
                    // blocked set closes a wait-for cycle, render it so the
                    // user sees *who waits on whom*, not just who is stuck.
                    match e.waitfor_cycle() {
                        Some(cycle) => format!("{e}\n{cycle}"),
                        None => e.to_string(),
                    }
                })?;
                for (rank, r) in results.iter().enumerate() {
                    println!(
                        "rank {rank}: printed {:?}  ({} steps, {} sends, {} recvs)",
                        r.printed, r.steps, r.sends, r.recvs
                    );
                }
            }
        }
        other => return Err(format!("unknown command `{other}`\n{}", usage())),
    }
    Ok(())
}

/// Build the shared service [`Engine`](mpi_dfa::service::Engine) from the
/// cache flags (`--cache-mem` MiB per in-memory layer, `--cache-dir`
/// on-disk result store).
fn service_engine(opts: &Opts) -> Result<mpi_dfa::service::Engine, String> {
    let cache_mib: usize = opts
        .value("cache-mem")
        .map(|v| v.parse().map_err(|e| format!("--cache-mem: {e}")))
        .transpose()?
        .unwrap_or(mpi_dfa::service::DEFAULT_CACHE_MIB);
    let admission = opts
        .value("max-inflight")
        .map(|v| v.parse().map_err(|e| format!("--max-inflight: {e}")))
        .transpose()?
        .map(mpi_dfa::service::AdmissionConfig::for_max_inflight)
        .unwrap_or_default();
    let shard_id = opts
        .value("shard-id")
        .map(|v| v.parse().map_err(|e| format!("--shard-id: {e}")))
        .transpose()?;
    mpi_dfa::service::Engine::new(mpi_dfa::service::EngineConfig {
        cache_bytes: cache_mib.saturating_mul(1 << 20),
        cache_dir: opts.value("cache-dir").map(String::from),
        admission,
        shard_id,
    })
}

/// `mpidfa batch requests.jsonl [--pool N] [--cache-mem MIB] [--cache-dir D]`
/// — answer a JSONL request file on stdout, responses in input order,
/// byte-identical for any `--pool` size.
fn cmd_batch(opts: &Opts) -> Result<(), String> {
    let path = opts
        .file
        .as_deref()
        .ok_or("batch requires a JSONL request file (or `-` for stdin)")?;
    let input = if path == "-" {
        use std::io::Read as _;
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("stdin: {e}"))?;
        buf
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?
    };
    let pool: usize = opts
        .value("pool")
        .map(|v| v.parse().map_err(|e| format!("--pool: {e}")))
        .transpose()?
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    let engine = service_engine(opts)?;
    use std::io::Write as _;
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    for line in mpi_dfa::service::run_batch(&engine, &input, pool) {
        writeln!(out, "{line}").map_err(|e| format!("stdout: {e}"))?;
    }
    out.flush().map_err(|e| format!("stdout: {e}"))?;
    Ok(())
}

/// `mpidfa serve --addr 127.0.0.1:PORT [--cache-mem MIB] [--cache-dir D]
/// [--max-inflight N] [--idle-timeout-ms MS]` — JSONL-over-TCP daemon;
/// prints `listening on ADDR`, runs until a client sends
/// `{"kind":"shutdown"}`. `--max-inflight` derives the whole admission
/// ladder (watermarks, hysteresis) from one knob; `--idle-timeout-ms`
/// bounds how long a silent connection holds its slot.
fn cmd_serve(opts: &Opts) -> Result<(), String> {
    let addr = opts.value("addr").unwrap_or("127.0.0.1:7117");
    if let Some(v) = opts.value("shards") {
        let shards: usize = v.parse().map_err(|e| format!("--shards: {e}"))?;
        return cmd_serve_cluster(opts, shards, addr);
    }
    // `--shard-id` marks this process as a supervisor-managed worker: the
    // supervisor holds the write end of our stdin pipe and never writes.
    // EOF therefore means the supervisor process is gone, and an orphaned
    // worker must not outlive it (crash-only exit: the disk cache's
    // tmp+rename framing makes dying at any instant safe).
    if opts.value("shard-id").is_some() {
        std::thread::spawn(|| {
            use std::io::Read as _;
            let mut sink = [0u8; 64];
            let mut stdin = std::io::stdin();
            loop {
                match stdin.read(&mut sink) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
            }
            std::process::exit(0);
        });
    }
    let engine = std::sync::Arc::new(service_engine(opts)?);
    let mut config = mpi_dfa::service::ServerConfig::default();
    if let Some(v) = opts.value("idle-timeout-ms") {
        let ms: u64 = v.parse().map_err(|e| format!("--idle-timeout-ms: {e}"))?;
        config.idle_timeout = std::time::Duration::from_millis(ms.max(1));
    }
    // `--telemetry-stream` (appended by the cluster spawner, usable by
    // hand) streams metrics and SLO histograms up the stdout pipe as
    // `@tele ` JSONL, and spans too as `--telemetry-stream spans`;
    // `--log-dir` keeps a local span spool + access log so `mpidfa trace`
    // works against a single-box server too. `--trace-out` exports as a
    // cluster does: the hub keeps a bounded number of spans and the file
    // is written from them at shutdown, so a long-running daemon does not
    // hold every event it ever recorded.
    let stream_mode = opts.switch("telemetry-stream");
    let stream_spans = opts.value("telemetry-stream") == Some("spans");
    let trace_out = opts.value("trace-out");
    let log_dir = opts.value("log-dir").map(std::path::Path::new);
    let hub = if log_dir.is_some() || trace_out.is_some() {
        Some(mpi_dfa::service::TelemetryHub::new(
            log_dir,
            trace_out.is_some(),
        )?)
    } else {
        None
    };
    if (stream_mode || hub.is_some()) && !telemetry::is_enabled() {
        telemetry::install(telemetry::TraceLevel::Spans);
    }
    let handler = match &hub {
        Some(h) => mpi_dfa::service::EngineLineHandler::with_hub(
            std::sync::Arc::clone(&engine),
            std::sync::Arc::clone(h),
        ),
        None => mpi_dfa::service::EngineLineHandler::new(std::sync::Arc::clone(&engine)),
    };
    let server =
        mpi_dfa::service::Server::bind_handler(std::sync::Arc::new(handler), addr, config)?;
    let bound = server.local_addr()?;
    // The banner must be the first stdout line (the supervisor parses it
    // for the worker's ephemeral port), so the flusher starts only after.
    println!("listening on {bound}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let flush_hub = hub.clone();
    let flusher = (stream_mode || hub.is_some()).then(|| {
        spawn_tele_flusher(move |pairer| {
            flush_worker_telemetry(
                pairer,
                &engine,
                flush_hub.as_ref(),
                stream_mode,
                stream_spans,
            );
        })
    });
    let result = server.run();
    if let Some(flush) = flusher {
        flush(); // final drain: trailing spans beat the process exit
    }
    if let (Some(path), Some(hub)) = (trace_out, &hub) {
        std::fs::write(path, hub.merged_chrome_trace())
            .map_err(|e| format!("--trace-out {path}: {e}"))?;
        let dropped = hub.dropped_spans();
        if dropped > 0 {
            eprintln!("--trace-out {path}: {dropped} spans past the in-memory cap were dropped");
        }
        if let Some(path) = opts.value("metrics-out") {
            let metrics = telemetry::finish().metrics;
            std::fs::write(path, telemetry::export_metrics_text(&metrics))
                .map_err(|e| format!("--metrics-out {path}: {e}"))?;
        }
    }
    result
}

/// Spawn a 150 ms-cadence telemetry flusher around a shared
/// [`SpanPairer`]; returns a closure that runs one final flush inline
/// (the background thread is detached and dies with the process).
fn spawn_tele_flusher(
    flush: impl Fn(&mut mpi_dfa::service::SpanPairer) + Send + Sync + 'static,
) -> impl FnOnce() {
    let pairer = std::sync::Arc::new(std::sync::Mutex::new(mpi_dfa::service::SpanPairer::new()));
    let flush = std::sync::Arc::new(flush);
    let (pairer2, flush2) = (
        std::sync::Arc::clone(&pairer),
        std::sync::Arc::clone(&flush),
    );
    std::thread::spawn(move || loop {
        std::thread::sleep(std::time::Duration::from_millis(150));
        flush2(&mut pairer2.lock().unwrap_or_else(|p| p.into_inner()));
    });
    move || flush(&mut pairer.lock().unwrap_or_else(|p| p.into_inner()))
}

/// One worker-side flush: drain the local sink, stream the `@tele ` line
/// upward (when supervised; with spans only when `stream_spans`) and
/// spool locally (when `--log-dir` is set). Spans nothing reads are
/// dropped unpaired.
fn flush_worker_telemetry(
    pairer: &mut mpi_dfa::service::SpanPairer,
    engine: &std::sync::Arc<mpi_dfa::service::Engine>,
    hub: Option<&std::sync::Arc<mpi_dfa::service::TelemetryHub>>,
    stream_mode: bool,
    stream_spans: bool,
) {
    let report = telemetry::drain();
    let (completed, open) = if stream_spans || hub.is_some() {
        let completed = pairer.feed(&report.events, telemetry::unix_base_us());
        (completed, pairer.open_spans())
    } else {
        (Vec::new(), Vec::new())
    };
    if stream_mode {
        let (spans, open): (&[_], &[_]) = if stream_spans {
            (&completed, &open)
        } else {
            (&[], &[])
        };
        let line = mpi_dfa::service::obs::render_tele_update(
            spans,
            open,
            &report.metrics,
            &engine.slo().snapshot(),
        );
        use std::io::Write as _;
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        let _ = writeln!(out, "{}{line}", mpi_dfa::service::TELE_PREFIX);
        let _ = out.flush();
    }
    if let Some(hub) = hub {
        let mut spans = completed;
        spans.extend(open);
        hub.add_spans(spans);
    }
}

/// `mpidfa trace <trace-id> --log-dir D` — reconstruct one request's
/// cross-shard timeline from the span spool and access log a serve
/// `--log-dir` left behind.
fn cmd_trace(opts: &Opts) -> Result<(), String> {
    let id_str = opts
        .file
        .as_deref()
        .ok_or("trace requires a trace id (up to 32 hex digits)")?;
    let trace_id = telemetry::parse_trace_id(id_str)
        .ok_or_else(|| format!("`{id_str}` is not a trace id (1-32 hex digits)"))?;
    let dir = opts
        .value("log-dir")
        .ok_or("trace requires --log-dir (the directory a serve --log-dir wrote)")?;
    let spool_path = std::path::Path::new(dir).join("spans.jsonl");
    let spool = std::fs::read_to_string(&spool_path)
        .map_err(|e| format!("{}: {e}", spool_path.display()))?;
    // The access log is optional context; a spool without one still
    // reconstructs.
    let access =
        std::fs::read_to_string(std::path::Path::new(dir).join("access.jsonl")).unwrap_or_default();
    let report = mpi_dfa::service::obs::reconstruct_trace(&spool, &access, trace_id)?;
    print!("{report}");
    Ok(())
}

/// `mpidfa serve --shards N` — supervised worker fleet behind a
/// consistent-hash router. Each worker is this same binary running plain
/// `serve` on an ephemeral port with the cache/admission flags passed
/// through; all workers share `--cache-dir`, so warm disk entries
/// survive any single worker's crash. The supervisor restarts dead or
/// hung workers with capped exponential backoff; the router
/// retries/hedges idempotent requests around failures and sheds with a
/// structured `overloaded` + `retry_after_ms` when out of candidates.
fn cmd_serve_cluster(opts: &Opts, shards: usize, addr: &str) -> Result<(), String> {
    let program = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    // The router keeps spans in memory only to write the merged trace,
    // and spools them only with --log-dir.
    let hub = mpi_dfa::service::TelemetryHub::new(
        opts.value("log-dir").map(std::path::Path::new),
        opts.value("trace-out").is_some(),
    )?;
    let worker_args = cluster_worker_args(opts, hub.wants_spans());
    let worker = mpi_dfa::service::WorkerSpec::new(program, worker_args);
    let cfg = mpi_dfa::service::ClusterConfig::new(shards, worker);
    // Router spans (route/hedge/retry/brownout_wait) must land in the
    // same merged trace, so the router sink is always on at span level;
    // its metrics feed the `metrics` verb either way.
    if !telemetry::is_enabled() {
        telemetry::install(telemetry::TraceLevel::Spans);
    }
    let cluster =
        mpi_dfa::service::Cluster::start_with_hub(cfg, addr, Some(std::sync::Arc::clone(&hub)))?;
    let bound = cluster.local_addr()?;
    let handler = cluster.router();
    println!("listening on {bound}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    // Router-process flusher: pid 0 in the merged trace. Without a
    // reader for spans it only empties the sink.
    let hub2 = std::sync::Arc::clone(&hub);
    let flush = spawn_tele_flusher(move |pairer| {
        let report = telemetry::drain();
        if hub2.wants_spans() {
            let mut spans = pairer.feed(&report.events, telemetry::unix_base_us());
            spans.extend(pairer.open_spans());
            hub2.add_spans(spans);
        }
    });
    let result = cluster.run();
    flush();
    // The merged exports are written by us, not `CliTelemetry`: the trace
    // spans every process and the metrics text is the cluster merge.
    if let Some(path) = opts.value("trace-out") {
        std::fs::write(path, hub.merged_chrome_trace())
            .map_err(|e| format!("--trace-out {path}: {e}"))?;
    }
    if let Some(path) = opts.value("metrics-out") {
        std::fs::write(path, handler.cluster_metrics_text())
            .map_err(|e| format!("--metrics-out {path}: {e}"))?;
    }
    result
}

/// The arguments of each cluster worker: plain `serve` with the cache and
/// admission flags passed through. Workers always stream their metrics
/// and SLO histograms up the stdout pipe: the supervisor's drain thread
/// feeds the hub, so the `metrics` verb is cluster-wide by construction.
/// They render and stream spans only when `stream_spans` (the hub keeps
/// or spools them); then a worker killed mid-request still leaves its
/// flushed spans behind.
fn cluster_worker_args(opts: &Opts, stream_spans: bool) -> Vec<String> {
    let mut args: Vec<String> = vec!["serve".into()];
    for flag in ["cache-mem", "cache-dir", "max-inflight", "idle-timeout-ms"] {
        if let Some(v) = opts.value(flag) {
            args.push(format!("--{flag}"));
            args.push(v.to_string());
        }
    }
    args.push("--telemetry-stream".into());
    if stream_spans {
        args.push("spans".into());
    }
    args
}

/// Build [`RuntimeLimits`] from the `--max-steps` flag, starting from the
/// documented default.
fn runtime_limits(opts: &Opts) -> Result<RuntimeLimits, String> {
    let mut limits = RuntimeLimits::default();
    if let Some(v) = opts.value("max-steps") {
        limits.max_steps = v.parse().map_err(|e| format!("--max-steps: {e}"))?;
    }
    Ok(limits)
}

/// Build a [`GovernorConfig`] from the shared budget flags
/// (`--budget-ms`, `--max-visits`, `--max-fact-bytes`, `--degrade`).
fn governor_config(opts: &Opts, clone_level: usize) -> Result<GovernorConfig, String> {
    let mut budget = Budget::unlimited();
    if let Some(v) = opts.value("budget-ms") {
        budget = budget.with_deadline_ms(v.parse().map_err(|e| format!("--budget-ms: {e}"))?);
    }
    if let Some(v) = opts.value("max-visits") {
        budget = budget.with_max_work(v.parse().map_err(|e| format!("--max-visits: {e}"))?);
    }
    if let Some(v) = opts.value("max-fact-bytes") {
        budget =
            budget.with_max_fact_bytes(v.parse().map_err(|e| format!("--max-fact-bytes: {e}"))?);
    }
    let degrade = match opts.value("degrade").unwrap_or("auto") {
        "auto" => DegradeMode::Auto,
        "off" => DegradeMode::Off,
        other => return Err(format!("unknown --degrade `{other}` (auto|off)")),
    };
    Ok(GovernorConfig {
        clone_level,
        matching: Matching::ReachingConstants,
        budget,
        degrade,
        ..GovernorConfig::default()
    })
}

fn load(opts: &Opts) -> Result<String, String> {
    let Some(path) = &opts.file else {
        return Err("missing input file".into());
    };
    // Benchmark names resolve to the bundled programs for convenience;
    // the seeded deadlock corpus (`deadlock-*`) resolves the same way.
    if let Some(src) = mpi_dfa::suite::programs::source(path) {
        return Ok(src.to_string());
    }
    if let Some(src) = mpi_dfa::verify::corpus::source(path) {
        return Ok(src.to_string());
    }
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn usage() -> String {
    "usage: mpidfa <command> <file.smpl | bundled-name> [options]\n\
     commands:\n\
       activity   --context C --ind a,b --dep x,y [--clone N] [--mode mpi|global|naive]\n\
                  [--budget-ms MS] [--max-visits N] [--max-fact-bytes B] [--degrade auto|off]\n\
                  (budget flags apply to --mode mpi; on exhaustion the resource\n\
                  governor degrades T0 -> T1 -> T2 and reports the provenance)\n\
       constants  --context C [--clone N]\n\
       slice      --context C --stmt ID [--no-comm]\n\
       taint      --context C --source a,b [--reads-tainted] [--conservative]\n\
       bitwidth   --context C [--conservative]\n\
       graph      --context C [--clone N] [--matching naive|syntactic|consts]\n\
                  [--heat [--ind a,b --dep x,y]]\n\
                  (--heat colours nodes by solver visit count: white -> red,\n\
                  grey = never visited; comm edges no fixpoint exercised are\n\
                  flagged `never`. Uses activity when --ind/--dep are given,\n\
                  else the reaching-constants bootstrap.)\n\
       batch      <requests.jsonl | -> [--pool N] [--cache-mem MIB] [--cache-dir D]\n\
                  (JSONL request stream -> JSONL responses on stdout, in input\n\
                  order, byte-identical for any --pool size; --cache-mem bounds\n\
                  each in-memory cache layer, results and IRs, in MiB:\n\
                  default 16, 0 disables; see docs/SERVING.md)\n\
       serve      [--addr 127.0.0.1:7117] [--shards N] [--cache-mem MIB]\n\
                  [--cache-dir D] [--max-inflight N] [--idle-timeout-ms MS]\n\
                  (JSONL-over-TCP daemon; prints `listening on ADDR`; stops on\n\
                  a `{\"kind\":\"shutdown\"}` request. --max-inflight derives the\n\
                  admission ladder: past the watermarks the governor tier floor\n\
                  rises, past the cap requests shed with `overloaded` +\n\
                  retry_after_ms. --shards N puts a supervised fleet of N\n\
                  worker processes behind a consistent-hash router: dead or\n\
                  hung workers restart with capped backoff, requests hedge to\n\
                  ring siblings, and a shared --cache-dir survives any single\n\
                  worker's crash; see docs/SERVING.md.\n\
                  --log-dir D spools spans.jsonl + access.jsonl for `mpidfa\n\
                  trace`; with --shards, --trace-out/--metrics-out write the\n\
                  merged cross-process Chrome trace and cluster Prometheus\n\
                  text at shutdown, and a `{\"kind\":\"metrics\"}` request\n\
                  returns the live cluster scrape. Spans are kept in memory\n\
                  (at most 100,000, with or without --shards) only for\n\
                  --trace-out, and workers stream them only when --log-dir\n\
                  or --trace-out reads them; see docs/OBSERVABILITY.md)\n\
       trace      <trace-id> --log-dir D\n\
                  (reconstruct one request's cross-shard timeline — router\n\
                  route/hedge spans and every worker's admission/cache/solve\n\
                  spans, labelled by shard and incarnation epoch — from the\n\
                  span spool a serve --log-dir wrote)\n\
       verify     --context C [--clone N] [--matching naive|syntactic|consts]\n\
                  [--nprocs N] [--schedules K] [--seed N] [--json] [--dot]\n\
                  [--budget-ms MS] [--max-visits N] [--max-fact-bytes B]\n\
                  (static correctness suite: match-set verification, rank-\n\
                  sensitive may-happen-in-parallel, predictive deadlock\n\
                  detection, cross-checked against K seeded adversarial\n\
                  schedules; without an `ANY`-source receive every schedule\n\
                  ends as the fault-free run does, so that run decides.\n\
                  Exit 1 when findings are flagged. --json emits\n\
                  the deterministic report object; --dot overlays findings on\n\
                  the MPI-ICFG; see docs/VERIFY.md)\n\
       run        [--nprocs N] [--entry main] [--faults SPEC] [--schedules K]\n\
                  [--max-steps N]\n\
                  SPEC: bare seed (`7`) or `seed=7,mode=adversarial|chaotic,\n\
                  reorder=P,dup=P,drop=P`; a seed replays its schedule\n\
                  (--max-steps overrides the documented RuntimeLimits\n\
                  default of 20000000 steps per rank)\n\
     telemetry (every command): [--trace-out FILE.json] [--metrics-out FILE.txt]\n\
                  [--trace-level off|spans|full]\n\
                  --trace-out writes a Chrome-trace (chrome://tracing, Perfetto);\n\
                  --metrics-out writes Prometheus-style text metrics; with a\n\
                  level but no outputs the span tree prints to stderr.\n\
                  Default level when an output is requested: full.\n\
                  See docs/OBSERVABILITY.md.\n\
     bundled programs: figure1, biostat, sor, cg, lu, mg, sweep3d\n\
     seeded deadlock corpus (verify/run): deadlock-head-to-head,\n\
                  deadlock-tag-mismatch, deadlock-barrier-mismatch,\n\
                  deadlock-orphan-recv, deadlock-loop-starved"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Opts {
        Opts::parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn cluster_workers_stream_spans_only_when_the_router_reads_them() {
        let o = opts(&["--shards", "2", "--cache-mem", "4"]);
        assert_eq!(
            cluster_worker_args(&o, false),
            ["serve", "--cache-mem", "4", "--telemetry-stream"]
        );
        assert_eq!(
            cluster_worker_args(&o, true).last().map(String::as_str),
            Some("spans")
        );
        // The worker reads the value off the switch.
        let worker = opts(&["--telemetry-stream", "spans", "--shard-id", "0"]);
        assert!(worker.switch("telemetry-stream"));
        assert_eq!(worker.value("telemetry-stream"), Some("spans"));
        assert_eq!(worker.value("shard-id"), Some("0"));
    }
}
