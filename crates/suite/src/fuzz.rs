//! Deterministic fuzz harness for the front end and graph pipeline.
//!
//! Mutates the bundled benchmark programs (plus a handful of generated
//! ones) with a [`SplitMix64`]-seeded byte/token mutator and pushes every
//! mutant through **lexer → parser → sema → ICFG → MPI-ICFG**, asserting
//! the robustness contract:
//!
//! * **no panic** — every malformed input must surface as a `Diagnostic`
//!   or `IcfgError`, never as an unwind;
//! * **no hang** — graph construction and the reaching-constants bootstrap
//!   run under a wall-clock [`Budget`]; a case that still exceeds a large
//!   multiple of its deadline is reported as a hang;
//! * **deterministic verification** — every mutant that builds an
//!   MPI-ICFG also runs the static verify passes (match-set, MHP,
//!   deadlock; no schedule exploration) twice, and the two reports must
//!   be identical. A divergent verdict is surfaced as a failure with the
//!   usual span-tree diagnosis.
//!
//! A second, *edit-mutation* mode ([`run_edits`]) targets the demand
//! solver instead of the front end: it applies structured source edits
//! (statement insertion into one procedure, a fresh declaration that
//! renumbers the location table, statement duplication) and, for every
//! mutant that still builds, asserts the demand contract — the activity a
//! demand query finds at the context entry must equal the round-robin
//! fixpoint's active set at that node, without panicking or hanging.
//!
//! Everything is deterministic in the seed, so a CI failure reproduces
//! locally with `FUZZ_SEED=<seed> FUZZ_CASES=1 cargo test -p mpi-dfa-suite
//! --test fuzz_smoke`.

use crate::gen::{self, GenConfig};
use crate::programs;
use mpi_dfa_analyses::activity::{analyze_mpi_with, demand_active_at, ActivityConfig};
use mpi_dfa_analyses::mpi_match::{build_mpi_icfg_with_budget, Matching};
use mpi_dfa_core::budget::Budget;
use mpi_dfa_core::rng::SplitMix64;
use mpi_dfa_core::solver::SolveParams;
use mpi_dfa_core::telemetry::{self, TraceLevel};
use mpi_dfa_graph::icfg::ProgramIr;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Fuzzing run parameters.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of cases; seeds are `start_seed .. start_seed + cases`.
    pub cases: usize,
    pub start_seed: u64,
    /// Wall-clock budget for the graph/matching stages of one case. A case
    /// counts as a hang when its total time exceeds [`HANG_FACTOR`] times
    /// this deadline (the front end is linear-time and uncapped).
    pub per_case_deadline: Duration,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            cases: 64,
            start_seed: 0,
            per_case_deadline: Duration::from_millis(500),
        }
    }
}

/// Grace multiplier between the per-case budget deadline and the point at
/// which a case is declared hung. The budget is polled cooperatively every
/// `CHECK_INTERVAL` work units, so some overshoot is expected; an order of
/// magnitude is not.
pub const HANG_FACTOR: u32 = 10;

/// How one fuzz case violated the contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    Panic,
    Hang,
}

/// A contract violation, with enough context to reproduce it.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    pub seed: u64,
    pub kind: FailureKind,
    pub detail: String,
}

/// Aggregate outcome of a fuzzing run.
#[derive(Debug, Default)]
pub struct FuzzReport {
    pub cases: usize,
    /// Mutants that made it all the way to an MPI-ICFG.
    pub built: usize,
    /// Mutants cleanly rejected by lexer/parser/sema.
    pub rejected_frontend: usize,
    /// Mutants cleanly rejected during graph construction/matching
    /// (unknown context, budget, node caps, …).
    pub rejected_graph: usize,
    pub failures: Vec<FuzzFailure>,
    /// Slowest single case observed.
    pub max_case: Duration,
}

/// The mutation corpus: all bundled benchmarks plus a few deterministic
/// generated programs (which exercise wrapper calls and deeper nesting).
pub fn corpus() -> Vec<String> {
    let mut v: Vec<String> = programs::ALL
        .iter()
        .map(|(_, src)| (*src).to_string())
        .collect();
    for seed in 0..3u64 {
        v.push(gen::generate(seed, &GenConfig::default()));
    }
    v
}

/// ASCII fragments spliced into mutants: statement/keyword/punctuation
/// shrapnel chosen to hit parser and sema edges (unbalanced brackets,
/// wildcards, huge literals, MPI forms, nesting openers).
const SPLICE: &[&str] = &[
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    ";",
    ",",
    ".",
    "-",
    "&&",
    "||",
    "==",
    "=",
    "if (",
    "else",
    "while (",
    "for ",
    "call ",
    "return;",
    "var v: int;",
    "global g: real[1000];",
    "send(",
    "recv(",
    "bcast(",
    "reduce(SUM,",
    "allreduce(MAX,",
    "barrier();",
    "wait();",
    "ANY",
    "rank()",
    "nprocs()",
    "9999999999999999999",
    "9223372036854775807",
    "0",
    "1e308",
    "sub ",
    "program ",
    "x",
    "_",
];

/// Deterministically mutate `src` (1–8 stacked edits). ASCII-only splices
/// keep the result valid UTF-8; a lossy pass guards the boundary cuts.
pub fn mutate(src: &str, rng: &mut SplitMix64) -> String {
    let mut bytes = src.as_bytes().to_vec();
    let edits = rng.range(1, 9);
    for _ in 0..edits {
        if bytes.is_empty() {
            bytes.extend_from_slice(SPLICE[rng.below(SPLICE.len())].as_bytes());
            continue;
        }
        match rng.below(5) {
            // Delete a short range.
            0 => {
                let at = rng.below(bytes.len());
                let len = rng.range(1, 32).min(bytes.len() - at);
                bytes.drain(at..at + len);
            }
            // Duplicate a short range.
            1 => {
                let at = rng.below(bytes.len());
                let len = rng.range(1, 32).min(bytes.len() - at);
                let dup: Vec<u8> = bytes[at..at + len].to_vec();
                let insert_at = rng.below(bytes.len() + 1);
                bytes.splice(insert_at..insert_at, dup);
            }
            // Splice a fragment.
            2 => {
                let frag = SPLICE[rng.below(SPLICE.len())];
                let at = rng.below(bytes.len() + 1);
                bytes.splice(at..at, frag.bytes());
            }
            // Flip one byte to a printable ASCII char.
            3 => {
                let at = rng.below(bytes.len());
                bytes[at] = (rng.range(0x20, 0x7f)) as u8;
            }
            // Truncate.
            _ => {
                let at = rng.below(bytes.len() + 1);
                bytes.truncate(at);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Stage a mutant reached without violating the contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    RejectedFrontend,
    RejectedGraph,
    Built,
}

/// Push one source through the full pipeline under a wall-clock budget.
/// Returns the stage reached; all rejections must be clean `Err`s.
pub fn pipeline(src: &str, deadline: Duration) -> Stage {
    let Ok(ir) = ProgramIr::from_source(src) else {
        return Stage::RejectedFrontend;
    };
    let budget = Budget::unlimited().with_deadline_ms(deadline.as_millis() as u64);
    // Clone level 1 + reaching-constants matching exercises instantiation,
    // the bootstrap solve, and matching; clone level 0 + syntactic matching
    // is the governor's T1 graph, whose literal folding must survive any
    // argument. Mutants usually keep a `main`; those that lose it exercise
    // the unknown-context error path.
    let built =
        build_mpi_icfg_with_budget(ir.clone(), "main", 1, Matching::ReachingConstants, &budget);
    let Ok(g) = built else {
        return Stage::RejectedGraph;
    };
    verify_contract(&g);
    if let Ok(t1) = build_mpi_icfg_with_budget(ir, "main", 0, Matching::Syntactic, &budget) {
        verify_contract(&t1);
    }
    Stage::Built
}

/// The verify leg of the fuzz contract: the static passes must neither
/// panic nor hang on any buildable mutant (the pass-bounded solver keeps
/// them finite without a wall-clock budget), and two runs over the same
/// graph must produce identical reports. Schedule exploration stays off —
/// the fuzzer must never spawn interpreter threads per case. A divergence
/// panics, which the harness catches and reports like any other
/// contract violation.
fn verify_contract(g: &mpi_dfa_graph::mpi::MpiIcfg) {
    let cfg = mpi_dfa_verify::VerifyConfig {
        schedules: 0,
        ..mpi_dfa_verify::VerifyConfig::default()
    };
    let a = mpi_dfa_verify::verify_static(g, &cfg, &Budget::unlimited());
    let b = mpi_dfa_verify::verify_static(g, &cfg, &Budget::unlimited());
    assert!(
        a == b,
        "verify verdict diverged across two runs on one graph:\n  first:  {a:?}\n  second: {b:?}"
    );
}

/// The text a panic carried, for a failure report.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Run one seeded case against `corpus`. `Err` means contract violation.
pub fn run_case(
    seed: u64,
    corpus: &[String],
    deadline: Duration,
) -> Result<(Stage, Duration), FuzzFailure> {
    let mut rng = SplitMix64::fork(seed, 0xF0CC);
    let base = &corpus[rng.below(corpus.len())];
    let mutant = mutate(base, &mut rng);
    let started = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| pipeline(&mutant, deadline)));
    let elapsed = started.elapsed();
    match outcome {
        Err(payload) => Err(FuzzFailure {
            seed,
            kind: FailureKind::Panic,
            detail: panic_message(payload.as_ref()),
        }),
        Ok(stage) => {
            if elapsed > deadline * HANG_FACTOR {
                Err(FuzzFailure {
                    seed,
                    kind: FailureKind::Hang,
                    detail: format!("case took {elapsed:?} against a {deadline:?} deadline"),
                })
            } else {
                Ok((stage, elapsed))
            }
        }
    }
}

/// Re-run a failing case's mutant with the telemetry sink enabled and
/// render a diagnosis: coarse per-stage wall-clock timings plus the span
/// tree of the pipeline stages the case reached. Used by [`run`] to enrich
/// [`FuzzFailure::detail`] so a CI failure shows *where* the case spent its
/// time, not just the seed.
///
/// Installs (and drains) the **global** telemetry sink, so any concurrently
/// recorded events are stolen — acceptable in the failure path, where the
/// run is already doomed. A panic during the re-run is caught: the
/// diagnosis describes it instead of propagating.
pub fn diagnose_case(seed: u64, corpus: &[String], deadline: Duration) -> String {
    let mut rng = SplitMix64::fork(seed, 0xF0CC);
    let base = &corpus[rng.below(corpus.len())];
    let mutant = mutate(base, &mut rng);
    telemetry::install(TraceLevel::Spans);

    let mut out = String::new();
    let _ = writeln!(out, "per-stage timings (seed {seed}, re-run):");
    let front_started = Instant::now();
    let front = catch_unwind(AssertUnwindSafe(|| ProgramIr::from_source(&mutant)));
    let _ = writeln!(out, "  frontend+cfg:   {:?}", front_started.elapsed());
    match front {
        Ok(Ok(ir)) => {
            let budget = Budget::unlimited().with_deadline_ms(deadline.as_millis() as u64);
            let graph_started = Instant::now();
            let graph = catch_unwind(AssertUnwindSafe(|| {
                build_mpi_icfg_with_budget(ir, "main", 1, Matching::ReachingConstants, &budget)
            }));
            let _ = writeln!(out, "  graph+matching: {:?}", graph_started.elapsed());
            let verdict = match &graph {
                Ok(Ok(_)) => "built".to_string(),
                Ok(Err(e)) => format!("rejected: {e}"),
                Err(_) => "PANICKED during graph construction/matching".to_string(),
            };
            let _ = writeln!(out, "  outcome:        {verdict}");
            if let Ok(Ok(g)) = &graph {
                let verify_started = Instant::now();
                let vr = catch_unwind(AssertUnwindSafe(|| verify_contract(g)));
                let _ = writeln!(out, "  verify:         {:?}", verify_started.elapsed());
                if vr.is_err() {
                    let _ = writeln!(
                        out,
                        "  verify outcome: PANICKED (or diverged) in the verify passes"
                    );
                }
            }
        }
        Ok(Err(e)) => {
            let _ = writeln!(out, "  outcome:        rejected by the front end: {e}");
        }
        Err(_) => {
            let _ = writeln!(out, "  outcome:        PANICKED in the front end");
        }
    }
    let report = telemetry::finish();
    out.push_str("span tree of the failing case:\n");
    out.push_str(&telemetry::render_span_tree(&report.events));
    out
}

/// Run the whole seeded range and aggregate. Failures carry the
/// [`diagnose_case`] breakdown (per-stage timings + span tree) in their
/// `detail`.
pub fn run(config: &FuzzConfig) -> FuzzReport {
    let corpus = corpus();
    let mut report = FuzzReport {
        cases: config.cases,
        ..FuzzReport::default()
    };
    for seed in config.start_seed..config.start_seed + config.cases as u64 {
        match run_case(seed, &corpus, config.per_case_deadline) {
            Ok((stage, elapsed)) => {
                report.max_case = report.max_case.max(elapsed);
                match stage {
                    Stage::RejectedFrontend => report.rejected_frontend += 1,
                    Stage::RejectedGraph => report.rejected_graph += 1,
                    Stage::Built => report.built += 1,
                }
            }
            Err(mut f) => {
                let diagnosis = diagnose_case(seed, &corpus, config.per_case_deadline);
                f.detail = format!("{}\n{diagnosis}", f.detail);
                report.failures.push(f);
            }
        }
    }
    report
}

// ---------------------------------------------------------------------------
// Edit-mutation mode: demand-contract fuzzing.
// ---------------------------------------------------------------------------

/// How far one edit case got without violating the contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditStage {
    /// The base program could not anchor the case (it does not compile or
    /// declares no globals to build an activity config from). Vacuous,
    /// not a violation.
    Skipped,
    /// The edit broke the build (front end or graph) or the mutant's
    /// round-robin solve or demand missed its deadline; nothing to
    /// compare.
    RejectedEdit,
    /// The demand answer at the context entry matched the full fixpoint.
    Verified,
}

/// One verified/skipped/rejected edit case, with the demand's coverage.
#[derive(Debug, Clone, Copy)]
pub struct EditOutcome {
    pub stage: EditStage,
    /// SCC regions of the mutant's graph (vary + useful phases summed).
    pub regions_total: usize,
    /// Regions the demand slices solved.
    pub regions_solved: usize,
}

impl EditOutcome {
    fn bare(stage: EditStage) -> Self {
        EditOutcome {
            stage,
            regions_total: 0,
            regions_solved: 0,
        }
    }
}

/// Aggregate outcome of an edit-mutation run.
#[derive(Debug, Default)]
pub struct EditReport {
    pub cases: usize,
    /// Buildable mutants whose demand answer matched the full fixpoint.
    pub verified: usize,
    /// Edits that broke the build (cleanly rejected).
    pub rejected: usize,
    /// Cases with no usable base program to anchor them.
    pub skipped: usize,
    /// Demand coverage summed over verified cases — the run means
    /// something only if the slices left some regions unsolved.
    pub regions_total: usize,
    pub regions_solved: usize,
    pub failures: Vec<FuzzFailure>,
    pub max_case: Duration,
}

/// Deterministically apply one structured *edit* to a base program. Unlike
/// [`mutate`] (byte shrapnel for robustness testing), these edits model a
/// developer touching the source, so most mutants stay buildable and the
/// demand contract actually runs:
///
/// * insert two `print` statements into one procedure body;
/// * add a fresh global after the header — renumbers the location table;
/// * declare an unused local in one procedure;
/// * duplicate one `;`-terminated statement line.
pub fn edit_mutate(src: &str, rng: &mut SplitMix64) -> String {
    let sub_starts: Vec<usize> = src.match_indices("sub ").map(|(i, _)| i).collect();
    match rng.below(4) {
        0 | 2 if sub_starts.is_empty() => src.to_string(),
        0 => {
            let at = sub_starts[rng.below(sub_starts.len())];
            match src[at..].find('{') {
                Some(off) => {
                    let pos = at + off + 1;
                    format!("{} print(1.0); print(2.0);{}", &src[..pos], &src[pos..])
                }
                None => src.to_string(),
            }
        }
        1 => {
            // Globals must follow the `program` header line.
            let header_end = src
                .find("program ")
                .and_then(|at| src[at..].find('\n').map(|nl| at + nl));
            match header_end {
                Some(nl) => format!("{}\nglobal zq9: real;{}", &src[..nl], &src[nl..]),
                None => src.to_string(),
            }
        }
        2 => {
            let at = sub_starts[rng.below(sub_starts.len())];
            match src[at..].find('{') {
                Some(off) => {
                    let pos = at + off + 1;
                    format!("{} var zq8: real;{}", &src[..pos], &src[pos..])
                }
                None => src.to_string(),
            }
        }
        _ => {
            let lines: Vec<&str> = src.lines().collect();
            // Plain statements only — duplicating a declaration would just
            // trip the redeclaration error, wasting the case.
            let stmts: Vec<usize> = lines
                .iter()
                .enumerate()
                .filter(|(_, l)| l.trim_end().ends_with(';') && !l.contains(':'))
                .map(|(i, _)| i)
                .collect();
            if stmts.is_empty() {
                return src.to_string();
            }
            let pick = stmts[rng.below(stmts.len())];
            let mut out: Vec<&str> = Vec::with_capacity(lines.len() + 1);
            for (i, l) in lines.iter().enumerate() {
                out.push(l);
                if i == pick {
                    out.push(l);
                }
            }
            out.join("\n")
        }
    }
}

/// Activity config for an arbitrary corpus program: first global
/// independent, last global dependent. `None` when the program declares no
/// globals to anchor the analysis.
fn edit_config(ir: &ProgramIr) -> Option<ActivityConfig> {
    let globals = &ir.unit.program.globals;
    let first = globals.first()?;
    let last = globals.last()?;
    Some(ActivityConfig::new(
        [first.name.as_str()],
        [last.name.as_str()],
    ))
}

/// The demand leg of the edit contract: push one (base, mutant) pair
/// through a round-robin solve of the mutant and a demand query at its
/// context entry, and require the demand's active set to equal the
/// fixpoint's at that node (Vary ∩ Useful on either side). The base
/// program only anchors the activity config. A mismatch panics; the
/// caller runs this under `catch_unwind` and reports the seed.
pub fn edit_pipeline(base: &str, mutant: &str, deadline: Duration) -> EditOutcome {
    let Ok(base_ir) = ProgramIr::from_source(base) else {
        return EditOutcome::bare(EditStage::Skipped);
    };
    let Some(config) = edit_config(&base_ir) else {
        return EditOutcome::bare(EditStage::Skipped);
    };
    let ms = deadline.as_millis() as u64;
    let budget = Budget::unlimited().with_deadline_ms(ms);
    let params = SolveParams::with_budget(budget.clone());
    let Ok(mut_ir) = ProgramIr::from_source(mutant) else {
        return EditOutcome::bare(EditStage::RejectedEdit);
    };
    let Ok(mpi) =
        build_mpi_icfg_with_budget(mut_ir, "main", 1, Matching::ReachingConstants, &budget)
    else {
        return EditOutcome::bare(EditStage::RejectedEdit);
    };
    let Ok(full) = analyze_mpi_with(&mpi, &config, &params) else {
        return EditOutcome::bare(EditStage::RejectedEdit);
    };
    if !full.converged() {
        // Deadline-bound snapshot; the contract only speaks about
        // fixpoints.
        return EditOutcome::bare(EditStage::RejectedEdit);
    }
    // The demand gets a deadline of its own, and one it misses is
    // deadline-bound like the full solve above.
    let entry = mpi.icfg().context_entry();
    let params = SolveParams::with_budget(Budget::unlimited().with_deadline_ms(ms));
    let Ok(demand) = demand_active_at(&mpi, &config, &params, &[entry]) else {
        return EditOutcome::bare(EditStage::RejectedEdit);
    };
    let mut want = full
        .vary
        .before(entry)
        .intersection(full.useful.before(entry));
    want.union_into(
        &full
            .vary
            .after(entry)
            .intersection(full.useful.after(entry)),
    );
    assert_eq!(
        demand.active, want,
        "demand active set at the context entry diverged from the fixpoint's"
    );
    EditOutcome {
        stage: EditStage::Verified,
        regions_total: demand.regions_total,
        regions_solved: demand.regions_solved,
    }
}

/// Run one seeded edit case against `corpus`. `Err` means contract
/// violation (panic — including an equivalence mismatch — or hang).
pub fn run_edit_case(
    seed: u64,
    corpus: &[String],
    deadline: Duration,
) -> Result<(EditOutcome, Duration), FuzzFailure> {
    let mut rng = SplitMix64::fork(seed, 0xED17);
    let base = &corpus[rng.below(corpus.len())];
    let mutant = edit_mutate(base, &mut rng);
    let started = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| edit_pipeline(base, &mutant, deadline)));
    let elapsed = started.elapsed();
    match outcome {
        Err(payload) => Err(FuzzFailure {
            seed,
            kind: FailureKind::Panic,
            detail: panic_message(payload.as_ref()),
        }),
        Ok(out) => {
            // Two compiles, a graph build and two solves per case, so the
            // hang bar is HANG_FACTOR times *five* deadlines rather than one.
            if elapsed > deadline * HANG_FACTOR * 5 {
                Err(FuzzFailure {
                    seed,
                    kind: FailureKind::Hang,
                    detail: format!("edit case took {elapsed:?} against a {deadline:?} deadline"),
                })
            } else {
                Ok((out, elapsed))
            }
        }
    }
}

/// Run the whole seeded edit-mutation range and aggregate.
pub fn run_edits(config: &FuzzConfig) -> EditReport {
    let corpus = corpus();
    let mut report = EditReport {
        cases: config.cases,
        ..EditReport::default()
    };
    for seed in config.start_seed..config.start_seed + config.cases as u64 {
        match run_edit_case(seed, &corpus, config.per_case_deadline) {
            Ok((out, elapsed)) => {
                report.max_case = report.max_case.max(elapsed);
                match out.stage {
                    EditStage::Skipped => report.skipped += 1,
                    EditStage::RejectedEdit => report.rejected += 1,
                    EditStage::Verified => {
                        report.verified += 1;
                        report.regions_total += out.regions_total;
                        report.regions_solved += out.regions_solved;
                    }
                }
            }
            Err(f) => report.failures.push(f),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutation_is_deterministic_in_the_seed() {
        let base = programs::FIGURE1;
        let a = mutate(base, &mut SplitMix64::fork(7, 0xF0CC));
        let b = mutate(base, &mut SplitMix64::fork(7, 0xF0CC));
        let c = mutate(base, &mut SplitMix64::fork(8, 0xF0CC));
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should (virtually always) differ");
    }

    #[test]
    fn unmutated_corpus_builds_or_rejects_cleanly() {
        for src in corpus() {
            // The bundled/generated programs themselves must never panic.
            let stage = pipeline(&src, Duration::from_secs(5));
            assert_ne!(
                stage,
                Stage::RejectedFrontend,
                "corpus program failed the front end"
            );
        }
    }

    #[test]
    fn diagnosis_includes_stage_timings_and_span_tree() {
        // Serialize against other tests that install the global sink.
        let _g = telemetry::TEST_SINK_GATE
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let corpus = corpus();
        for seed in [0u64, 3, 17] {
            let d = diagnose_case(seed, &corpus, Duration::from_millis(500));
            assert!(d.contains("per-stage timings"), "{d}");
            assert!(d.contains("frontend+cfg"), "{d}");
            assert!(d.contains("outcome:"), "{d}");
            assert!(d.contains("span tree of the failing case:"), "{d}");
        }
        // A mutant that survives the front end leaves pipeline spans in the
        // tree; an unmutated corpus program certainly does. Use the real
        // FIGURE1 text through the same path to pin the span names.
        let fig = vec![programs::FIGURE1.to_string()];
        let d = diagnose_case(0, &fig, Duration::from_millis(500));
        assert!(d.contains("compile"), "span tree names stages: {d}");
    }

    #[test]
    fn verify_contract_holds_on_the_unmutated_corpus() {
        // Every corpus program builds; `pipeline` therefore runs the
        // verify determinism contract on each (a divergence panics).
        for src in corpus() {
            assert_eq!(pipeline(&src, Duration::from_secs(5)), Stage::Built);
        }
    }

    #[test]
    fn edit_mutation_is_deterministic_in_the_seed() {
        let base = programs::LU;
        let a = edit_mutate(base, &mut SplitMix64::fork(5, 0xED17));
        let b = edit_mutate(base, &mut SplitMix64::fork(5, 0xED17));
        assert_eq!(a, b);
        // Structured edits keep the program recognizable: they only ever
        // grow the source.
        assert!(a.len() >= base.len());
    }

    #[test]
    fn one_procedure_edit_verifies_from_a_slice() {
        // Insert prints into LU's first procedure: the demand at the
        // context entry must match the fixpoint while solving only a slice.
        let base = programs::LU;
        let at = base.find("sub ").unwrap();
        let pos = at + base[at..].find('{').unwrap() + 1;
        let mutant = format!("{} print(1.0); print(2.0);{}", &base[..pos], &base[pos..]);
        let out = edit_pipeline(base, &mutant, Duration::from_secs(5));
        assert_eq!(out.stage, EditStage::Verified);
        assert!(out.regions_solved > 0, "{out:?}");
        assert!(out.regions_solved < out.regions_total, "{out:?}");
    }

    #[test]
    fn declaration_edit_still_verifies() {
        // A fresh global renumbers the location table.
        let base = programs::LU;
        let at = base.find("program ").unwrap();
        let nl = at + base[at..].find('\n').unwrap();
        let mutant = format!("{}\nglobal zq9: real;{}", &base[..nl], &base[nl..]);
        let out = edit_pipeline(base, &mutant, Duration::from_secs(5));
        assert_eq!(out.stage, EditStage::Verified);
    }

    #[test]
    fn seeded_edit_run_verifies_every_buildable_mutant() {
        let report = run_edits(&FuzzConfig {
            cases: 32,
            per_case_deadline: Duration::from_secs(2),
            ..FuzzConfig::default()
        });
        assert!(report.failures.is_empty(), "{:#?}", report.failures);
        assert_eq!(
            report.verified + report.rejected + report.skipped,
            report.cases
        );
        // Structured edits must mostly survive the build, and the run is
        // only meaningful if the demand slices skipped some regions.
        assert!(report.verified > report.cases / 2, "{report:?}");
        assert!(report.regions_solved > 0, "{report:?}");
        assert!(report.regions_solved < report.regions_total, "{report:?}");
    }

    #[test]
    fn small_seeded_run_is_clean_and_covers_both_outcomes() {
        let report = run(&FuzzConfig {
            cases: 48,
            ..FuzzConfig::default()
        });
        assert!(report.failures.is_empty(), "{:#?}", report.failures);
        assert_eq!(
            report.built + report.rejected_frontend + report.rejected_graph,
            report.cases
        );
        // With 1–8 stacked random edits most mutants break, but the mix
        // should still contain both rejected and surviving cases.
        assert!(report.rejected_frontend > 0, "{report:?}");
    }
}
