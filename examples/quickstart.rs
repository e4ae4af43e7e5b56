//! Quickstart: the paper's Figure 1, end to end.
//!
//! Builds the MPI-ICFG for the motivating program, runs reaching constants
//! over it (showing the constant crossing the communication edge), runs
//! activity analysis in all three modes, and finally executes the program
//! under the SPMD interpreter with 2 simulated processes.
//!
//! Run with: `cargo run --example quickstart`

use mpi_dfa::analyses::consts;
use mpi_dfa::lang::interp::{self, InterpConfig};
use mpi_dfa::prelude::*;

fn main() {
    let src = mpi_dfa::suite::programs::FIGURE1;
    println!("=== Figure 1 program ===\n{src}");

    // ---- graphs ----------------------------------------------------------
    let ir = ProgramIr::from_source(src).expect("figure1 compiles");
    let mpi = build_mpi_icfg(ir.clone(), "main", 0, Matching::ReachingConstants)
        .expect("graph construction");
    println!(
        "MPI-ICFG: {} nodes, {} communication edges (send→recv plus the reduce group)",
        mpi_dfa::core::FlowGraph::num_nodes(&mpi),
        mpi.comm_edges.len()
    );

    // ---- reaching constants ---------------------------------------------
    let sol = consts::analyze_mpi(&mpi);
    let recv = mpi
        .mpi_nodes()
        .iter()
        .copied()
        .find(|&n| {
            matches!(&mpi.payload(n).kind,
                mpi_dfa::graph::node::NodeKind::Mpi(m)
                    if m.kind == mpi_dfa::graph::node::MpiKind::Recv)
        })
        .expect("figure1 has a recv");
    let y = mpi.resolve_at(recv, "y").expect("y in scope");
    println!(
        "\nReaching constants: after recv(y), y = {} (the constant sent as x = 0 + 1,\n\
         visible only because the framework propagates lattice values over the\n\
         communication edge; a plain CFG analysis knows nothing about y here)",
        sol.after(recv).get(y)
    );

    // ---- activity analysis in all three modes -----------------------------
    let config = ActivityConfig::new(["x"], ["f"]);
    let names = |r: &ActivityResult| -> Vec<String> {
        r.active_locs()
            .iter()
            .map(|&l| ir.locs.info(l).name.clone())
            .collect()
    };

    let icfg = Icfg::build(ir.clone(), "main", 0).unwrap();
    let naive = activity::analyze_icfg(&icfg, Mode::Naive, &config).unwrap();
    println!("\nActivity analysis (d f / d x):");
    println!(
        "  Naive CFG (no communication model): active = {:?}  <-- INCORRECT (empty)",
        names(&naive)
    );
    let global = activity::analyze_icfg(&icfg, Mode::GlobalBuffer, &config).unwrap();
    println!(
        "  ICFG + global buffer (conservative): active = {:?}\n\
         \x20    (recovers the received chain y, z, f; x's usefulness is lost in the\n\
         \x20     shared-buffer model — the framework below gets it right)",
        names(&global)
    );
    let framework = activity::analyze_mpi(&mpi, &config).unwrap();
    println!(
        "  MPI-ICFG (the paper's framework):   active = {:?}  ({} bytes)",
        names(&framework),
        framework.active_bytes
    );

    // ---- run it ------------------------------------------------------------
    let unit = compile(src).unwrap();
    let results = interp::run(
        &unit.program,
        &InterpConfig {
            nprocs: 2,
            ..Default::default()
        },
    )
    .expect("figure1 runs");
    println!(
        "\nInterpreted under 2 SPMD processes: rank 0 printed {:?}, rank 1 printed {:?}",
        results[0].printed, results[1].printed
    );
    println!("(f = reduce(SUM, z): rank 0 contributes z = 2, rank 1 contributes z = b*y = 7)");
}
