//! Clone-level (partial context sensitivity) integration tests — the
//! Section 4.1 claims, on the MG benchmark whose layered communication
//! wrappers make cloning matter.
//!
//! * MG-2 (context `psinv`): precision steps exactly at clone level 1
//!   (the shared send/recv stubs merge all tags at level 0);
//! * MG-1 (context `mg3P`): the byte-level result stabilizes at level 1
//!   but the active *set* keeps a polluted integer flag until the layered
//!   `comm_lev → xfer → stubs` chain is fully cloned at level 3 — exactly
//!   the level the paper configures;
//! * cloning is monotone: raising the level never increases the active set;
//! * every row's lowest precise level (its MPI-ICFG active set equals the
//!   level-4 set) is pinned: only MG needs cloning, although Table 1
//!   configures LU and Sweep3D at levels 1–2.

use mpi_dfa::analyses::activity::{self, ActivityConfig};
use mpi_dfa::analyses::mpi_match::{build_mpi_icfg, Matching};
use mpi_dfa::suite::runner::run_experiment_at;
use mpi_dfa::suite::{by_id, experiments, programs};

#[test]
fn mg2_needs_exactly_clone_level_one() {
    let spec = by_id("MG-2").unwrap();
    let l0 = run_experiment_at(&spec, 0);
    let l1 = run_experiment_at(&spec, 1);
    let l2 = run_experiment_at(&spec, 2);
    assert!(
        l0.mpi.active_bytes > l1.mpi.active_bytes,
        "level 0 merges the stub tags: {} vs {}",
        l0.mpi.active_bytes,
        l1.mpi.active_bytes
    );
    assert_eq!(
        l1.mpi.active_bytes, 16_908_640,
        "paper's configured level is precise"
    );
    assert_eq!(
        l1.mpi.active_bytes, l2.mpi.active_bytes,
        "no further gain above level 1"
    );
}

#[test]
fn mg1_set_precision_stabilizes_at_clone_level_three() {
    let spec = by_id("MG-1").unwrap();
    let rows: Vec<_> = (0..=4).map(|l| run_experiment_at(&spec, l)).collect();
    // Byte totals and set sizes never increase with the clone level.
    for w in rows.windows(2) {
        assert!(w[1].mpi.active_bytes <= w[0].mpi.active_bytes);
        assert!(w[1].mpi.active_locs <= w[0].mpi.active_locs);
    }
    // The paper's level (3) is the lowest with the best precision.
    assert!(
        rows[2].mpi.active_locs > rows[3].mpi.active_locs,
        "level 3 still improves"
    );
    assert_eq!(
        rows[3].mpi.active_locs, rows[4].mpi.active_locs,
        "level 4 adds nothing"
    );
    assert_eq!(rows[3].mpi.active_bytes, 647_487_896);
}

#[test]
fn cloning_grows_the_graph_but_refines_comm_edges() {
    let spec = by_id("MG-1").unwrap();
    let l0 = run_experiment_at(&spec, 0);
    let l3 = run_experiment_at(&spec, 3);
    // One shared stub pair at level 0 ⇒ a single dense comm group; cloning
    // splits it into per-tag pairs (more edges overall is possible; what
    // matters is that the *matching* can then separate them).
    assert_ne!(l0.comm_edges, l3.comm_edges);
}

#[test]
fn insensitive_benchmarks_stay_flat() {
    // SOR/CG have inline exchanges: clone level must not change anything.
    for id in ["SOR", "CG"] {
        let spec = by_id(id).unwrap();
        let l0 = run_experiment_at(&spec, 0);
        let l3 = run_experiment_at(&spec, 3);
        assert_eq!(l0.mpi.active_bytes, l3.mpi.active_bytes, "{id}");
        assert_eq!(l0.icfg.active_bytes, l3.icfg.active_bytes, "{id}");
    }
}

#[test]
fn each_row_is_precise_from_its_pinned_clone_level() {
    // (row, lowest level whose active set equals the level-4 set)
    const LOWEST: [(&str, usize); 13] = [
        ("Biostat", 0),
        ("SOR", 0),
        ("CG", 0),
        ("LU-1", 0),
        ("LU-2", 0),
        ("LU-3", 0),
        ("MG-1", 3),
        ("MG-2", 1),
        ("Sw-1", 0),
        ("Sw-3", 0),
        ("Sw-4", 0),
        ("Sw-5", 0),
        ("Sw-6", 0),
    ];
    let specs = experiments::all();
    assert_eq!(specs.len(), LOWEST.len());
    for (spec, (id, lowest)) in specs.iter().zip(LOWEST) {
        assert_eq!(spec.id, id);
        let config = ActivityConfig::new(spec.independents.to_vec(), spec.dependents.to_vec());
        let at = |level| {
            let mpi = build_mpi_icfg(
                programs::ir(spec.program),
                spec.context,
                level,
                Matching::ReachingConstants,
            )
            .unwrap();
            let active = activity::analyze_mpi(&mpi, &config).unwrap().active;
            (active, mpi.comm_edges.len())
        };
        let levels: Vec<_> = (0..=4).map(at).collect();
        let precise = (0..=4)
            .find(|&l| levels[l].0 == levels[4].0)
            .expect("level 4 equals itself");
        assert_eq!(precise, lowest, "{id}: lowest precise clone level");
        assert!(
            lowest <= spec.clone_level,
            "{id}: Table 1's level {} is precise",
            spec.clone_level
        );
        if lowest == 0 {
            // Nothing to refine: the matching is the same at every level.
            assert!(
                levels.iter().all(|(_, edges)| *edges == levels[0].1),
                "{id}: comm edges vary with the clone level"
            );
        }
    }
}
