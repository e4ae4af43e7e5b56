//! Property-based tests over randomly generated SPMD programs.
//!
//! These check the invariants the paper's framework relies on, on *every*
//! program the generator can produce — not just the benchmark suite:
//!
//! * the solver converges and both engines (the round-robin full solve,
//!   the region engine as a demand for every node) agree byte-for-byte
//!   with a naive reference solver that shares no code with them;
//! * separable analyses (liveness, reaching definitions) are unaffected by
//!   communication edges;
//! * the communication-edge matching strategies form a precision ladder;
//! * MPI-ICFG activity results never exceed the conservative baseline's
//!   communicated-data activity;
//! * analysis results are deterministic.
//!
//! The workspace builds fully offline, so instead of `proptest` each
//! property sweeps a deterministic sample of generator seeds drawn from a
//! `SplitMix64` stream; a failing case names its seed for replay.

use mpi_dfa::analyses::{consts, liveness, reaching_defs};
use mpi_dfa::core::rng::SplitMix64;
use mpi_dfa::core::{FlowGraph, NodeId};
use mpi_dfa::prelude::*;
use mpi_dfa::suite::gen::{generate, GenConfig};

#[path = "../crates/suite/tests/oracle/mod.rs"]
mod oracle;

fn build(seed: u64) -> std::sync::Arc<mpi_dfa::graph::icfg::ProgramIr> {
    let src = generate(seed, &GenConfig::default());
    ProgramIr::from_source(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}"))
}

/// 24 deterministic generator seeds in `[0, 10_000)`, mirroring the old
/// proptest configuration (`cases: 24`, `seed in 0u64..10_000`).
fn seeds(stream: u64) -> Vec<u64> {
    let mut rng = SplitMix64::fork(0xC0FFEE, stream);
    (0..24).map(|_| rng.below(10_000) as u64).collect()
}

#[test]
fn solvers_agree_and_converge() {
    for seed in seeds(1) {
        let ir = build(seed);
        let mpi = build_mpi_icfg(ir, "main", 1, Matching::ReachingConstants).unwrap();
        let problem = consts::ReachingConsts::new(mpi.icfg());
        let reference = oracle::solve(&problem, &mpi, 10_000);
        let rr = Solver::new(&problem, &mpi).run();
        let first = Solver::new(&problem, &mpi).demand(NodeId(0)).unwrap();
        let rg = (1..mpi.num_nodes() as u32)
            .try_fold(first, |d, n| d.demand(NodeId(n)))
            .unwrap()
            .run()
            .solution;
        for (name, sol) in [("round-robin", &rr), ("region", &rg)] {
            assert!(sol.stats.converged, "seed {seed}, {name}");
            assert_eq!(&sol.input, &reference.input, "seed {seed}, {name}");
            assert_eq!(&sol.output, &reference.output, "seed {seed}, {name}");
        }
        // A region's dirty sweeps never do more work than round-robin
        // sweeps restricted to it.
        assert!(rg.stats.node_visits <= rr.stats.node_visits, "seed {seed}");
    }
}

#[test]
fn separable_analyses_ignore_comm_edges() {
    for seed in seeds(2) {
        let ir = build(seed);
        let icfg = Icfg::build(ir.clone(), "main", 0).unwrap();
        let mpi = build_mpi_icfg(ir, "main", 0, Matching::Naive).unwrap();

        let live_plain = liveness::analyze(&icfg, &icfg);
        let live_comm = liveness::analyze(&mpi, mpi.icfg());
        assert_eq!(&live_plain.input, &live_comm.input, "seed {seed}");
        assert_eq!(&live_plain.output, &live_comm.output, "seed {seed}");

        let (_, rd_plain) = reaching_defs::analyze(&icfg, &icfg);
        let (_, rd_comm) = reaching_defs::analyze(&mpi, mpi.icfg());
        assert_eq!(&rd_plain.input, &rd_comm.input, "seed {seed}");
        assert_eq!(&rd_plain.output, &rd_comm.output, "seed {seed}");
    }
}

/// Naive matching keeps every pair, syntactic a subset of those, and
/// reaching-constants matching a subset of the syntactic pairs.
fn assert_ladder(naive: &MpiIcfg, syn: &MpiIcfg, rc: &MpiIcfg, label: &str) {
    use std::collections::HashSet;
    let pairs = |g: &MpiIcfg| g.comm_edges.iter().collect::<HashSet<_>>();
    let (naive, syn, rc) = (pairs(naive), pairs(syn), pairs(rc));
    assert!(syn.is_subset(&naive), "{label}: syntactic ⊄ naive");
    assert!(rc.is_subset(&syn), "{label}: consts ⊄ syntactic");
}

#[test]
fn matching_strategies_form_a_ladder() {
    for seed in seeds(3) {
        let ir = build(seed);
        let naive = build_mpi_icfg(ir.clone(), "main", 0, Matching::Naive).unwrap();
        let syn = build_mpi_icfg(ir.clone(), "main", 0, Matching::Syntactic).unwrap();
        let rc = build_mpi_icfg(ir, "main", 0, Matching::ReachingConstants).unwrap();
        assert_ladder(&naive, &syn, &rc, &format!("seed {seed}"));
    }
}

/// Byte ranges of the peer, tag and root arguments of every MPI call in
/// `src` (`allreduce` has none).
fn match_args(src: &str) -> Vec<std::ops::Range<usize>> {
    // (call, indices of its peer/tag/root arguments)
    const CALLS: [(&str, &[usize]); 4] = [
        ("send(", &[1, 2]),
        ("recv(", &[1, 2]),
        ("bcast(", &[1]),
        ("reduce(", &[3]),
    ];
    let mut out = Vec::new();
    for (call, wanted) in CALLS {
        for (at, _) in src.match_indices(call) {
            if src[..at].ends_with("all") {
                continue;
            }
            // Split the argument list at top-level commas.
            let (mut depth, mut start, mut index) = (0, at + call.len(), 0);
            for (off, ch) in src[at + call.len()..].char_indices() {
                let pos = at + call.len() + off;
                match ch {
                    '(' | '[' => depth += 1,
                    ')' | ']' if depth > 0 => depth -= 1,
                    ',' | ')' if depth == 0 => {
                        if wanted.contains(&index) {
                            out.push(start..pos);
                        }
                        if ch == ')' {
                            break;
                        }
                        index += 1;
                        start = pos + 1;
                    }
                    _ => {}
                }
            }
        }
    }
    out
}

#[test]
fn hostile_match_arguments_never_panic_and_keep_the_ladder() {
    // Each folds past i64: none is a constant, so every matcher must keep
    // the pairs it would keep for an unknown argument.
    const HOSTILE: [&str; 4] = [
        " 9223372036854775807 + 1",
        " (0 - 9223372036854775807 - 1) / (0 - 1)",
        " mod(0 - 9223372036854775807 - 1, 0 - 1)",
        " -(0 - 9223372036854775807 - 1)",
    ];
    let cfg = mpi_dfa::verify::VerifyConfig {
        schedules: 0,
        ..Default::default()
    };
    let mut variants = 0;
    for (name, src) in mpi_dfa::suite::programs::ALL {
        let args = match_args(src);
        assert!(!args.is_empty(), "{name}: no match arguments found");
        for arg in args {
            for expr in HOSTILE {
                let variant = format!("{}{expr}{}", &src[..arg.start], &src[arg.end..]);
                let label = format!("{name} with `{expr}` at byte {}", arg.start);
                let ir =
                    ProgramIr::from_source(&variant).unwrap_or_else(|e| panic!("{label}: {e}"));
                let build = |m| build_mpi_icfg(ir.clone(), "main", 0, m).unwrap();
                let (naive, syn, rc) = (
                    build(Matching::Naive),
                    build(Matching::Syntactic),
                    build(Matching::ReachingConstants),
                );
                assert_ladder(&naive, &syn, &rc, &label);
                for g in [&naive, &syn, &rc] {
                    mpi_dfa::verify::verify_static(g, &cfg, &Budget::unlimited())
                        .unwrap_or_else(|e| panic!("{label}: {e}"));
                }
                variants += 1;
            }
        }
    }
    assert!(variants > 200, "{variants} variants");
}

#[test]
fn activity_is_deterministic() {
    for seed in seeds(4) {
        let ir = build(seed);
        let config = ActivityConfig::new(["s0"], ["s1"]);
        let mpi = build_mpi_icfg(ir, "main", 1, Matching::ReachingConstants).unwrap();
        let a = activity::analyze_mpi(&mpi, &config).unwrap();
        let b = activity::analyze_mpi(&mpi, &config).unwrap();
        assert_eq!(a.active, b.active, "seed {seed}");
        assert_eq!(a.active_bytes, b.active_bytes, "seed {seed}");
        assert_eq!(a.iterations, b.iterations, "seed {seed}");
    }
}

#[test]
fn fewer_comm_edges_never_hurt_precision() {
    for seed in seeds(5) {
        // Refining the matching can only shrink the active set: a subset of
        // communication edges means fewer "arriving" facts in Vary and
        // fewer "needed" facts in Useful.
        let ir = build(seed);
        let config = ActivityConfig::new(["s0"], ["s1"]);
        let naive = build_mpi_icfg(ir.clone(), "main", 0, Matching::Naive).unwrap();
        let rc = build_mpi_icfg(ir, "main", 0, Matching::ReachingConstants).unwrap();
        let coarse = activity::analyze_mpi(&naive, &config).unwrap();
        let fine = activity::analyze_mpi(&rc, &config).unwrap();
        assert!(
            fine.active.is_subset(&coarse.active),
            "seed {seed}: refined matching must not add active locations"
        );
        assert!(fine.active_bytes <= coarse.active_bytes, "seed {seed}");
    }
}

#[test]
fn vary_always_contains_the_independents() {
    for seed in seeds(6) {
        let ir = build(seed);
        let mpi = build_mpi_icfg(ir.clone(), "main", 0, Matching::ReachingConstants).unwrap();
        let config = ActivityConfig::new(["s0"], ["s1"]);
        let res = activity::analyze_mpi(&mpi, &config).unwrap();
        let s0 = ir.locs.global("s0").unwrap();
        for n in 0..mpi.num_nodes() {
            assert!(
                res.vary.output[n].contains(s0.index()),
                "seed {seed}, node {n}"
            );
        }
    }
}

#[test]
fn interpreter_matches_across_runs() {
    // Generated programs may deadlock (unmatched sends/recvs), so only
    // compare the runs that complete — completion must be deterministic.
    use mpi_dfa::lang::interp::{run, InterpConfig, RuntimeLimits};
    let mut rng = SplitMix64::fork(0xC0FFEE, 7);
    for _ in 0..24 {
        let seed = rng.below(300) as u64;
        let src = generate(
            seed,
            &GenConfig {
                mpi_percent: 10,
                ..GenConfig::default()
            },
        );
        let unit = compile(&src).unwrap();
        let cfg = InterpConfig {
            nprocs: 2,
            limits: RuntimeLimits { max_steps: 200_000 },
            ..Default::default()
        };
        let a = run(&unit.program, &cfg);
        let b = run(&unit.program, &cfg);
        match (a, b) {
            (Ok(ra), Ok(rb)) => {
                for (x, y) in ra.iter().zip(&rb) {
                    assert_eq!(&x.printed, &y.printed, "seed {seed}");
                }
            }
            (Err(_), Err(_)) => {} // deterministic failure is fine
            (a, b) => panic!("seed {seed}: one run failed, one succeeded: {a:?} vs {b:?}"),
        }
    }
}

#[test]
fn interpreter_is_deterministic_under_fault_plans() {
    // Runs under a fixed FaultPlan seed must be bit-for-bit reproducible:
    // every scheduling and delivery decision comes from the plan's one
    // seeded stream. That includes programs that receive from `ANY`, whose
    // arrival order depends on the schedule; the runnable generator never
    // emits such receives, so they come from the unrestricted generator,
    // keeping the programs whose runs complete. Same final globals, same
    // trace lengths (steps/sends/recvs), same printed output; a failing
    // run fails the same way.
    use mpi_dfa::lang::fault::FaultPlan;
    use mpi_dfa::lang::interp::{run, InterpConfig, RuntimeLimits};
    let mut rng = SplitMix64::fork(0xDE7E12, 0);
    // (runnable generator, programs to draw, completing runs required,
    // step budget). The completing `ANY` programs are rare and run a few
    // hundred steps, so their budget stops the others early.
    for (runnable, draws, want, max_steps) in [(true, 12, 6, 500_000), (false, 600, 4, 20_000)] {
        let mut compared = 0;
        for case in 0..draws {
            let gen_seed = rng.below(10_000) as u64;
            let fault_seed = rng.next_u64();
            let src = generate(
                gen_seed,
                &GenConfig {
                    mpi_percent: 12,
                    runnable,
                    ..GenConfig::default()
                },
            );
            if !runnable && (!src.contains("ANY") || compared == want) {
                continue;
            }
            let unit = compile(&src).unwrap();
            let cfg = InterpConfig {
                nprocs: 2,
                limits: RuntimeLimits { max_steps },
                capture_globals: true,
                fault_plan: Some(FaultPlan::adversarial(fault_seed)),
                ..Default::default()
            };
            let ctx = format!("case {case} (gen {gen_seed}, fault {fault_seed})");
            match (run(&unit.program, &cfg), run(&unit.program, &cfg)) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a, b, "{ctx}: runs diverged");
                    compared += 1;
                }
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{ctx}"),
                (a, b) => panic!("{ctx}: nondeterministic outcome: {a:?} vs {b:?}"),
            }
        }
        assert!(
            compared >= want,
            "too few completing cases (runnable: {runnable}): {compared}"
        );
    }
}

#[test]
fn cloning_refines_but_never_unsoundly_shrinks_comm_structure() {
    // Higher clone levels split shared wrapper instances; the per-site
    // communication structure must cover the shared one's behaviors. We
    // check a weaker structural invariant that must always hold: each clone
    // level produces a graph whose MPI node multiset projects onto the
    // level-0 node set.
    for seed in 0..20u64 {
        let ir = build(seed);
        let base = build_mpi_icfg(ir.clone(), "main", 0, Matching::Naive).unwrap();
        let cloned = build_mpi_icfg(ir, "main", 2, Matching::Naive).unwrap();
        let base_kinds = mpi_kinds(&base);
        let clone_kinds = mpi_kinds(&cloned);
        for k in &base_kinds {
            assert!(
                clone_kinds.contains(k),
                "seed {seed}: clone lost an MPI op kind {k:?}"
            );
        }
        assert!(clone_kinds.len() >= base_kinds.len());
    }
}

fn mpi_kinds(g: &MpiIcfg) -> Vec<mpi_dfa::graph::node::MpiKind> {
    use mpi_dfa::graph::node::NodeKind;
    g.mpi_nodes()
        .iter()
        .map(|&n| match &g.payload(n).kind {
            NodeKind::Mpi(m) => m.kind,
            _ => unreachable!(),
        })
        .collect()
}
