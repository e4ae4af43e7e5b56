//! The class matcher against the pairwise reference matcher
//! (`oracle/pairwise.rs`): on every graph, the pairs the classes stand for
//! must be the reference's pairs in the reference's order; the
//! condensation and both reverse postorders must be those of the graph
//! that draws each pair as an edge; and `try_build` must charge exactly
//! the reference's pair checks. Covered: the 13 Table-1 rows at clone
//! levels 0–4, generated programs rewritten to use `ANY` tags, computed
//! and unknown tags, roots and communicators, and `suite::fuzz`
//! edit-mutants, each under naive, syntactic and reaching-constants
//! matching.

#[path = "oracle/pairwise.rs"]
mod pairwise;

use mpi_dfa_analyses::consts::ConstsQuery;
use mpi_dfa_core::budget::Budget;
use mpi_dfa_core::graph::{reverse_postorder, FlowGraph};
use mpi_dfa_core::rng::SplitMix64;
use mpi_dfa_core::scc::condense;
use mpi_dfa_graph::icfg::{Icfg, IcfgError, ProgramIr};
use mpi_dfa_graph::mpi::{CommEdgeInfo, ConstQuery, MpiIcfg, NoConsts, SyntacticConsts};
use mpi_dfa_suite::gen::{generate, GenConfig};
use mpi_dfa_suite::{experiments, fuzz, programs};
use pairwise::{match_pairs, PairGraph};
use std::sync::Arc;

/// Check the three matchers on the ICFG `build` makes (it is called once
/// per build that needs a fresh ICFG; every call must return the same
/// graph). Returns the number of pairs checked.
fn check(label: &str, build: impl Fn() -> Icfg) -> usize {
    let icfg = build();
    let query = ConstsQuery::compute(&icfg);
    let matchers: [(&str, &dyn ConstQuery); 3] = [
        ("naive", &NoConsts),
        ("syntactic", &SyntacticConsts),
        ("consts", &query),
    ];
    let mut pairs = 0;
    for (name, consts) in matchers {
        let label = format!("{label} [{name}]");
        let reference = match_pairs(&icfg, consts);
        let mpi = MpiIcfg::build(build(), consts);
        let got: Vec<CommEdgeInfo> = mpi.comm_edges.iter().collect();
        assert_eq!(got, reference.edges, "{label}: pairs");
        assert_eq!(
            mpi.comm_edges.len(),
            reference.edges.len(),
            "{label}: count"
        );
        pairs += got.len();

        let drawn = PairGraph::new(mpi.icfg(), &reference.edges);
        assert_eq!(
            condense(&mpi).region_of,
            condense(&drawn).region_of,
            "{label}: regions"
        );
        assert_eq!(
            reverse_postorder(&mpi, mpi.entries(), false),
            reverse_postorder(&drawn, drawn.entries(), false),
            "{label}: forward order"
        );
        assert_eq!(
            reverse_postorder(&mpi, mpi.exits(), true),
            reverse_postorder(&drawn, drawn.exits(), true),
            "{label}: backward order"
        );

        let cap = |units| Budget::unlimited().with_max_work(units);
        let fits = MpiIcfg::try_build(build(), consts, &cap(reference.checks));
        assert_eq!(
            fits.expect("the pairwise total fits").comm_edges,
            mpi.comm_edges,
            "{label}: metered build"
        );
        if reference.checks > 0 {
            let short = MpiIcfg::try_build(build(), consts, &cap(reference.checks - 1));
            assert!(
                matches!(short, Err(IcfgError::Budget(_))),
                "{label}: one unit short of {} checks must exhaust",
                reference.checks
            );
        }
    }
    pairs
}

#[test]
fn table1_rows_at_every_clone_level_match_pairwise() {
    for spec in experiments::all() {
        let ir = programs::ir(spec.program);
        for level in 0..=4 {
            let label = format!("{} level {level}", spec.id);
            check(&label, || {
                Icfg::build(ir.clone(), spec.context, level).unwrap()
            });
        }
    }
}

/// Rewrite the tag, root and communicator arguments of a generated
/// program's MPI calls: `ANY` receive tags, tags that fold to a constant
/// only through arithmetic, tags and roots that depend on the rank
/// (unknown to every matcher), and explicit communicators.
fn rewrite(src: &str, rng: &mut SplitMix64) -> String {
    let mut out = String::new();
    for line in src.lines() {
        // `allreduce` has no root: its last argument is a buffer.
        let call = ["send(", "recv(", "bcast(", "reduce("]
            .iter()
            .filter(|_| !line.contains("allreduce("))
            .find_map(|k| line.find(k).map(|at| (at, *k)));
        let (Some((at, kind)), Some(close)) = (call, line.find(");")) else {
            out.push_str(line);
            out.push('\n');
            continue;
        };
        let args = &line[at + kind.len()..close];
        let Some(cut) = args.rfind(", ") else {
            out.push_str(line);
            out.push('\n');
            continue;
        };
        let (head, key) = (&args[..cut], &args[cut + 2..]);
        let key = match rng.below(5) {
            0 if kind == "recv(" => "ANY".to_string(),
            1 => format!("({key} * 3 - 2 * {key})"),
            2 => format!("{key} + mod(rank(), 2)"),
            3 => format!("{}", rng.below(3)),
            _ => key.to_string(),
        };
        let comm = match rng.below(6) {
            0 => ", 0".to_string(),
            1 => ", 1".to_string(),
            2 => ", mod(rank(), 2)".to_string(),
            _ => String::new(),
        };
        out.push_str(&format!(
            "{}{head}, {key}{comm}{}\n",
            &line[..at + kind.len()],
            &line[close..]
        ));
    }
    out
}

#[test]
fn generated_programs_with_hostile_arguments_match_pairwise() {
    let mut rng = SplitMix64::new(0xC1A55);
    let (mut any_tags, mut computed, mut pairs) = (0, 0, 0);
    for seed in 0..200u64 {
        let config = if seed % 4 == 0 {
            GenConfig::scaled(2)
        } else {
            GenConfig::default()
        };
        let src = rewrite(&generate(seed, &config), &mut rng);
        any_tags += src.matches(", ANY)").count() + src.matches(", ANY, ").count();
        computed += src.matches("mod(rank(), 2)").count();
        let ir: Arc<ProgramIr> =
            ProgramIr::from_source(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        let level = (seed % 3) as usize;
        pairs += check(&format!("gen seed {seed}"), || {
            Icfg::build(ir.clone(), "main", level).unwrap()
        });
    }
    assert!(any_tags > 100, "ANY receive tags: {any_tags}");
    assert!(computed > 100, "computed arguments: {computed}");
    assert!(pairs > 10_000, "pairs checked: {pairs}");
}

#[test]
fn fuzz_edit_mutants_match_pairwise() {
    let corpus = fuzz::corpus();
    let mut checked = 0;
    for seed in 0..120u64 {
        let mut rng = SplitMix64::fork(seed, 0xED17);
        let base = &corpus[rng.below(corpus.len())];
        let mutant = fuzz::edit_mutate(base, &mut rng);
        let Ok(ir) = ProgramIr::from_source(&mutant) else {
            continue;
        };
        if Icfg::build(ir.clone(), "main", 1).is_err() {
            continue;
        }
        check(&format!("edit mutant {seed}"), || {
            Icfg::build(ir.clone(), "main", 1).unwrap()
        });
        checked += 1;
    }
    assert!(checked >= 60, "buildable edit mutants: {checked}");
}
