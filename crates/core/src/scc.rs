//! Strongly connected condensation of a [`FlowGraph`] into regions.
//!
//! The region solver strategy ([`crate::solver::Strategy::Region`]) needs
//! to know which nodes can participate in a fact cycle. On an MPI-ICFG
//! a cycle may run through **communication** — a send whose payload
//! feeds a receive that loops back to the send (CG's cyclic communication
//! structure is the canonical case) — so the condensation here traverses
//! control edges *and* communication. Anything that can carry a fact can
//! close a cycle, and anything that can close a cycle must land in one
//! region.
//!
//! Communication is traversed class by class: each class acts as one hub
//! (sources → hub → receivers), which preserves reachability, so the
//! regions are those of the graph with every pair drawn as an edge. No hub
//! is a member of any region.
//!
//! Region ids are in **topological order**: for every cross-region edge or
//! communication pair `u -> v`, `region_of[u] < region_of[v]`. The
//! condensation is Kosaraju's: a forward depth-first search from every node
//! in index order records finish times, and a backward search from each
//! still-unassigned node in decreasing finish time collects one region.
//! Regions come out in decreasing finish time of their first-discovered
//! member, which is exactly the reversed emission order of Tarjan's
//! algorithm over the same search, and a topological order. The solver
//! relies on this invariant to schedule regions: once every predecessor
//! region of `R` has reached its local fixpoint, the facts flowing into `R`
//! are final, so `R`'s local fixpoint is a piece of the global one.
//!
//! Both searches are iterative (see [`crate::graph::Dfs`]); deep
//! straight-line programs must not overflow the thread stack.

use crate::graph::{CommClasses, Dfs, Edge, EdgeKind, FlowGraph, NodeId};
use crate::hash::Hasher128;

/// The condensation: each node mapped to its strongly connected region, with
/// region ids in topological order of the region DAG.
#[derive(Debug, Clone)]
pub struct Condensation {
    /// Node index → region id. Invariant: for every control edge or
    /// communication pair `u -> v`, `region_of[u] <= region_of[v]`, with
    /// equality exactly when `u` and `v` share a region.
    pub region_of: Vec<u32>,
    /// Node index → position of the node inside `regions[region_of[node]]`.
    pub local_index: Vec<u32>,
    /// Region id → member nodes, sorted by node index. Every node of the
    /// graph (including unreachable ones) appears in exactly one region.
    pub regions: Vec<Vec<NodeId>>,
    /// Region id → distinct successor region ids along control edges
    /// (sorted, deduplicated). Communication between regions is read from
    /// the graph's classes (see [`upstream_closure`]).
    pub succs: Vec<Vec<u32>>,
    /// Region id → distinct predecessor region ids along control edges
    /// (sorted, deduplicated).
    pub preds: Vec<Vec<u32>>,
}

impl Condensation {
    /// Number of strongly connected regions.
    pub fn num_regions(&self) -> usize {
        self.regions.len()
    }

    /// Size of the largest region (a single giant comm SCC means the region
    /// engine solves almost the whole graph as one region).
    pub fn largest_region(&self) -> usize {
        self.regions.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// Compute the condensation of `graph` over control edges and
/// communication classes.
pub fn condense<G: FlowGraph>(graph: &G) -> Condensation {
    let n = graph.num_nodes();
    let mut finished: Vec<NodeId> = Vec::with_capacity(n);
    let mut forward = Dfs::new(graph, false);
    for root in 0..n as u32 {
        forward.run(NodeId(root), |v| finished.push(v));
    }

    let mut backward = Dfs::new(graph, true);
    let mut regions: Vec<Vec<NodeId>> = Vec::new();
    let mut region_of = vec![0u32; n];
    for &root in finished.iter().rev() {
        if backward.visited[root.index()] {
            continue;
        }
        let mut comp = Vec::new();
        backward.run(root, |v| comp.push(v));
        comp.sort_unstable();
        for nd in &comp {
            region_of[nd.index()] = regions.len() as u32;
        }
        regions.push(comp);
    }
    let mut local_index = vec![0u32; n];
    for region in &regions {
        for (i, nd) in region.iter().enumerate() {
            local_index[nd.index()] = i as u32;
        }
    }

    // Cross-region control adjacency, deduplicated.
    let r = regions.len();
    let mut succs: Vec<Vec<u32>> = vec![Vec::new(); r];
    let mut preds: Vec<Vec<u32>> = vec![Vec::new(); r];
    for u in 0..n {
        let ru = region_of[u];
        for e in graph.out_edges(NodeId(u as u32)) {
            let rv = region_of[e.to.index()];
            if ru != rv {
                debug_assert!(
                    ru < rv,
                    "topological invariant violated: edge {u} -> {} maps {ru} -> {rv}",
                    e.to.index()
                );
                succs[ru as usize].push(rv);
                preds[rv as usize].push(ru);
            }
        }
    }
    for list in succs.iter_mut().chain(preds.iter_mut()) {
        list.sort_unstable();
        list.dedup();
    }

    Condensation {
        region_of,
        local_index,
        regions,
        succs,
        preds,
    }
}

// ---------------------------------------------------------------------------
// Region fingerprints (incremental re-solving support)
// ---------------------------------------------------------------------------

/// Control-edge kind tag folded into region fingerprints. Raw `site` ids
/// are deliberately excluded — they are assigned in graph-build order and
/// shift under unrelated edits — while the *semantics* a site id selects
/// (callee, bindings) are covered by the per-node content fingerprints.
fn kind_tag(kind: EdgeKind) -> u8 {
    match kind {
        EdgeKind::Flow => 0,
        EdgeKind::Call { .. } => 1,
        EdgeKind::Return { .. } => 2,
    }
}

/// One upstream control edge arriving at a region from *outside* it,
/// described in graph-independent terms so regions of two different graph
/// builds can be matched: the destination's local index, the edge-kind
/// tag, and the source node's content fingerprint. `src` is the source in
/// the graph the descriptor was computed over — used to read the source's
/// current fact when validating a seed, never folded into any fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtInEdge {
    /// Local index (within the region) of the edge's downstream endpoint.
    pub dst_local: u32,
    /// [`kind_tag`] of the edge.
    pub kind_tag: u8,
    /// Content fingerprint of the upstream source node.
    pub src_fp: u64,
    /// The upstream source node in the graph this descriptor was built on.
    pub src: NodeId,
}

impl ExtInEdge {
    /// The graph-independent part: what two builds must agree on for the
    /// edge to count as "the same external input".
    pub fn key(&self) -> (u32, u8, u64) {
        (self.dst_local, self.kind_tag, self.src_fp)
    }
}

/// The communication a region receives from outside, one descriptor per
/// class its members receive in: the sources of `class` that lie outside
/// the region, in ascending node id. Their *input* facts are what `f_comm`
/// reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtComm {
    /// The class's slot in the region: classes are numbered by the first
    /// member (in local order) that receives in them.
    pub slot: u32,
    /// Ordered fingerprint of the outside sources' content fingerprints.
    pub src_fp: u64,
    /// The class in the class view the descriptor was computed over.
    pub class: u32,
    /// Whether every source of the class lies outside the region.
    pub all_outside: bool,
}

/// Per-region structural fingerprints plus external upstream descriptors,
/// for one direction-adjusted view of a condensed graph.
#[derive(Debug, Clone)]
pub struct RegionFingerprints {
    /// Region id → local structural fingerprint. Two regions (across graph
    /// builds) with equal fingerprints have identical member content, member
    /// visit order, internal edge and communication structure, and
    /// external-input shape — so a deterministic local fixpoint over them
    /// behaves identically given equal upstream facts.
    pub local_fp: Vec<u64>,
    /// Region id → external upstream control edges, sorted by
    /// [`ExtInEdge::key`] (then source id for determinism).
    pub ext_in: Vec<Vec<ExtInEdge>>,
    /// Region id → external communication inputs, in slot order.
    pub ext_comm: Vec<Vec<ExtComm>>,
}

/// Ordered fingerprint of a source list.
fn sources_fp(node_fp: &[u64], srcs: impl Iterator<Item = NodeId>) -> u64 {
    let mut h = Hasher128::new();
    for s in srcs {
        h.write_u64(node_fp[s.index()]);
    }
    let wide = h.finish();
    (wide as u64) ^ ((wide >> 64) as u64)
}

/// Compute [`RegionFingerprints`] for `cond` over `graph`.
///
/// The local fingerprint of a region folds, in deterministic order:
/// member count; each member's content fingerprint, boundary flag, RPO
/// rank *within the region* and class slot (in local — sorted-by-node-id —
/// member order); the sorted internal edge list as `(src_local, dst_local,
/// kind_tag)` triples; each slot's internal sources (local indices) and
/// outside-source fingerprint; and the sorted external upstream-edge keys.
/// Raw node ids, statement ids, and global RPO positions are excluded —
/// they shift under edits elsewhere in the program.
///
/// `node_fp` is the per-node content fingerprint (from
/// [`crate::problem::Dataflow::node_fingerprint`]), `is_boundary` marks the
/// direction-adjusted boundary nodes, `rpo_pos` is the global
/// direction-adjusted reverse postorder position of each node, `backward`
/// selects which adjacency is "upstream", and `comm` is the
/// direction-adjusted class view (a node's upstream communication is the
/// source list of its class).
pub fn region_fingerprints<G: FlowGraph>(
    graph: &G,
    cond: &Condensation,
    node_fp: &[u64],
    is_boundary: &[bool],
    rpo_pos: &[u32],
    backward: bool,
    comm: &CommClasses,
) -> RegionFingerprints {
    let upstream = |n: NodeId| -> &[Edge] {
        if backward {
            graph.out_edges(n)
        } else {
            graph.in_edges(n)
        }
    };
    let source = |e: &Edge| -> NodeId {
        if backward {
            e.to
        } else {
            e.from
        }
    };

    const NO_SLOT: u32 = u32::MAX;
    let mut slot_of = vec![NO_SLOT; comm.num_classes()];
    // A class's all-sources fingerprint, computed once.
    let mut all_fp: Vec<Option<u64>> = vec![None; comm.num_classes()];
    let mut local_fp = Vec::with_capacity(cond.regions.len());
    let mut ext_in: Vec<Vec<ExtInEdge>> = Vec::with_capacity(cond.regions.len());
    let mut ext_comm: Vec<Vec<ExtComm>> = Vec::with_capacity(cond.regions.len());
    for (rid, members) in cond.regions.iter().enumerate() {
        // RPO rank of each member among the region's members: the relative
        // visit order the region solver uses, independent of global RPO
        // positions (which shift when other procedures grow or shrink).
        let mut by_pos: Vec<(u32, u32)> = members
            .iter()
            .enumerate()
            .map(|(i, nd)| (rpo_pos[nd.index()], i as u32))
            .collect();
        by_pos.sort_unstable();
        let mut rpo_rank = vec![0u32; members.len()];
        for (rank, &(_, local)) in by_pos.iter().enumerate() {
            rpo_rank[local as usize] = rank as u32;
        }

        let mut internal: Vec<(u32, u32, u8)> = Vec::new();
        let mut ext: Vec<ExtInEdge> = Vec::new();
        let mut slots: Vec<u32> = Vec::new();
        let mut member_slot = Vec::with_capacity(members.len());
        for (local, &nd) in members.iter().enumerate() {
            for e in upstream(nd) {
                let src = source(e);
                let tag = kind_tag(e.kind);
                if cond.region_of[src.index()] == rid as u32 {
                    internal.push((cond.local_index[src.index()], local as u32, tag));
                } else {
                    ext.push(ExtInEdge {
                        dst_local: local as u32,
                        kind_tag: tag,
                        src_fp: node_fp[src.index()],
                        src,
                    });
                }
            }
            member_slot.push(comm.class_of(nd).map_or(NO_SLOT, |c| {
                if slot_of[c] == NO_SLOT {
                    slot_of[c] = slots.len() as u32;
                    slots.push(c as u32);
                }
                slot_of[c]
            }));
        }
        internal.sort_unstable();
        ext.sort_unstable_by_key(|d| (d.key(), d.src.0));

        // Which slots have a source inside the region.
        let mut has_inside = vec![false; slots.len()];
        for &nd in members {
            for &c in comm.feeds(nd) {
                if slot_of[c as usize] != NO_SLOT {
                    has_inside[slot_of[c as usize] as usize] = true;
                }
            }
        }
        let inside = |s: &NodeId| cond.region_of[s.index()] == rid as u32;
        let mut comm_in = Vec::with_capacity(slots.len());
        let mut comm_internal: Vec<Vec<u32>> = Vec::with_capacity(slots.len());
        for (slot, &c) in slots.iter().enumerate() {
            let srcs = comm.sources(c as usize);
            let (src_fp, locals) = if has_inside[slot] {
                let outside = srcs.iter().copied().filter(|s| !inside(s));
                let locals = srcs
                    .iter()
                    .filter(|s| inside(s))
                    .map(|s| cond.local_index[s.index()])
                    .collect();
                (sources_fp(node_fp, outside), locals)
            } else {
                let fp = *all_fp[c as usize]
                    .get_or_insert_with(|| sources_fp(node_fp, srcs.iter().copied()));
                (fp, Vec::new())
            };
            comm_in.push(ExtComm {
                slot: slot as u32,
                src_fp,
                class: c,
                all_outside: !has_inside[slot],
            });
            comm_internal.push(locals);
        }
        for &c in &slots {
            slot_of[c as usize] = NO_SLOT;
        }

        let mut h = Hasher128::new();
        h.write_u64(members.len() as u64);
        for (local, &nd) in members.iter().enumerate() {
            h.write_u64(node_fp[nd.index()]);
            h.write_bool(is_boundary[nd.index()]);
            h.write_u64(rpo_rank[local] as u64);
            h.write_u64(member_slot[local] as u64);
        }
        h.write_u64(internal.len() as u64);
        for &(s, d, t) in &internal {
            h.write_u64(s as u64);
            h.write_u64(d as u64);
            h.write_u64(t as u64);
        }
        h.write_u64(comm_in.len() as u64);
        for (d, locals) in comm_in.iter().zip(&comm_internal) {
            h.write_u64(d.src_fp);
            h.write_u64(locals.len() as u64);
            for &l in locals {
                h.write_u64(l as u64);
            }
        }
        h.write_u64(ext.len() as u64);
        for d in &ext {
            h.write_u64(d.dst_local as u64);
            h.write_u64(d.kind_tag as u64);
            h.write_u64(d.src_fp);
        }
        let wide = h.finish();
        local_fp.push((wide as u64) ^ ((wide >> 64) as u64));
        ext_in.push(ext);
        ext_comm.push(comm_in);
    }
    RegionFingerprints {
        local_fp,
        ext_in,
        ext_comm,
    }
}

/// Mark the upstream dependency closure of `roots`: every region whose
/// facts can reach a root region under the analysis direction (for a
/// forward problem, predecessor regions; for a backward one, successor
/// regions), roots included, following control edges and the graph's
/// communication classes `comm`. This is the demand slice: solving exactly
/// these regions in topological order yields, at every node they contain,
/// the same facts a whole-program fixpoint would.
pub fn upstream_closure(
    cond: &Condensation,
    comm: &CommClasses,
    roots: &[u32],
    backward: bool,
) -> Vec<bool> {
    let deps = if backward { &cond.succs } else { &cond.preds };
    let mut in_slice = vec![false; cond.num_regions()];
    // Each class is a hub: crossing it once marks all its far-side regions.
    let mut hub_done = vec![false; comm.num_classes()];
    let mut stack: Vec<u32> = Vec::new();
    let mut mark = |r: u32, stack: &mut Vec<u32>| {
        if !std::mem::replace(&mut in_slice[r as usize], true) {
            stack.push(r);
        }
    };
    for &r in roots {
        mark(r, &mut stack);
    }
    while let Some(r) = stack.pop() {
        for &d in &deps[r as usize] {
            mark(d, &mut stack);
        }
        for &nd in &cond.regions[r as usize] {
            // Forward, facts arrive from the sources of `nd`'s class;
            // backward, from the receivers of the classes `nd` feeds.
            let mut cross = |c: usize, stack: &mut Vec<u32>| {
                if std::mem::replace(&mut hub_done[c], true) {
                    return;
                }
                let far = if backward {
                    comm.receivers(c)
                } else {
                    comm.sources(c)
                };
                for m in far {
                    mark(cond.region_of[m.index()], stack);
                }
            };
            if backward {
                for &c in comm.feeds(nd) {
                    cross(c as usize, &mut stack);
                }
            } else if let Some(c) = comm.class_of(nd) {
                cross(c, &mut stack);
            }
        }
    }
    in_slice
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SimpleGraph;

    fn check_invariants<G: FlowGraph>(g: &G, c: &Condensation) {
        // Every node is in exactly one region, at its recorded local index.
        let mut seen = vec![0usize; g.num_nodes()];
        for (rid, region) in c.regions.iter().enumerate() {
            for (i, nd) in region.iter().enumerate() {
                seen[nd.index()] += 1;
                assert_eq!(c.region_of[nd.index()], rid as u32);
                assert_eq!(c.local_index[nd.index()], i as u32);
            }
        }
        assert!(seen.iter().all(|&s| s == 1), "partition property: {seen:?}");
        // Topological numbering across every edge kind and comm pair.
        for u in 0..g.num_nodes() {
            for e in g.out_edges(NodeId(u as u32)) {
                let (ru, rv) = (c.region_of[u], c.region_of[e.to.index()]);
                assert!(ru <= rv, "edge {u}->{} regions {ru}->{rv}", e.to.index());
            }
        }
        for (s, r) in g.comm_classes().pairs() {
            let (rs, rr) = (c.region_of[s.index()], c.region_of[r.index()]);
            assert!(rs <= rr, "comm {s}->{r} regions {rs}->{rr}");
        }
        // Adjacency lists are consistent, sorted, deduplicated.
        for (rid, ss) in c.succs.iter().enumerate() {
            for w in ss.windows(2) {
                assert!(w[0] < w[1], "succs sorted+deduped");
            }
            for &s in ss {
                assert!(c.preds[s as usize].contains(&(rid as u32)));
            }
        }
    }

    #[test]
    fn diamond_is_four_singleton_regions_in_topo_order() {
        let mut g = SimpleGraph::new(4);
        g.flow(0, 1);
        g.flow(0, 2);
        g.flow(1, 3);
        g.flow(2, 3);
        g.set_entry(0);
        g.set_exit(3);
        let c = condense(&g);
        check_invariants(&g, &c);
        assert_eq!(c.num_regions(), 4);
        assert_eq!(c.largest_region(), 1);
        assert_eq!(c.region_of[0], 0, "entry first");
        assert_eq!(c.region_of[3], 3, "join last");
        assert_eq!(c.preds[c.region_of[3] as usize].len(), 2);
    }

    #[test]
    fn flow_loop_collapses_into_one_region() {
        // 0 -> 1 <-> 2 -> 3
        let mut g = SimpleGraph::new(4);
        g.flow(0, 1);
        g.flow(1, 2);
        g.flow(2, 1);
        g.flow(2, 3);
        g.set_entry(0);
        g.set_exit(3);
        let c = condense(&g);
        check_invariants(&g, &c);
        assert_eq!(c.num_regions(), 3);
        assert_eq!(c.region_of[1], c.region_of[2]);
        assert_eq!(c.largest_region(), 2);
    }

    #[test]
    fn comm_edges_close_cycles_send_recv_lands_in_one_region() {
        // A send/recv pair connected only through a comm edge one way and a
        // flow path back: 1 -comm-> 2, 2 -> 3 -> 1. Without comm edges in
        // the condensation 1/2/3 would look acyclic; with them they are one
        // region — the property the region scheduler's soundness needs.
        let mut g = SimpleGraph::new(5);
        g.flow(0, 1);
        g.comm(1, 2);
        g.flow(2, 3);
        g.flow(3, 1);
        g.flow(3, 4);
        g.set_entry(0);
        g.set_exit(4);
        let c = condense(&g);
        check_invariants(&g, &c);
        assert_eq!(c.region_of[1], c.region_of[2]);
        assert_eq!(c.region_of[2], c.region_of[3]);
        assert_eq!(c.num_regions(), 3);
        assert_eq!(c.largest_region(), 3);
    }

    #[test]
    fn pure_comm_cycle_is_one_region() {
        // Two ranks exchanging: 1 -comm-> 2 and 2 -comm-> 1.
        let mut g = SimpleGraph::new(3);
        g.flow(0, 1);
        g.flow(0, 2);
        g.comm(1, 2);
        g.comm(2, 1);
        g.set_entry(0);
        g.set_exit(1);
        let c = condense(&g);
        check_invariants(&g, &c);
        assert_eq!(c.region_of[1], c.region_of[2]);
    }

    #[test]
    fn self_loop_and_isolated_and_unreachable_nodes_are_covered() {
        // 0 has a self loop; 1 is reachable; 2 is unreachable from the
        // entry; 3 is fully isolated. All must receive a region.
        let mut g = SimpleGraph::new(4);
        g.flow(0, 0);
        g.flow(0, 1);
        g.flow(2, 1);
        g.set_entry(0);
        g.set_exit(1);
        let c = condense(&g);
        check_invariants(&g, &c);
        assert_eq!(c.num_regions(), 4, "self-loop region is its own SCC");
        assert_eq!(c.regions[c.region_of[0] as usize], vec![NodeId(0)]);
    }

    #[test]
    fn empty_graph() {
        let g = SimpleGraph::new(0);
        let c = condense(&g);
        assert_eq!(c.num_regions(), 0);
        assert_eq!(c.largest_region(), 0);
    }

    #[test]
    fn call_and_return_edges_participate() {
        use crate::graph::EdgeKind;
        // caller 0 -call-> callee entry 1 -> callee exit 2 -return-> 3 -> 0
        // forms a cycle through interprocedural edges.
        let mut g = SimpleGraph::new(4);
        g.add_edge(0, 1, EdgeKind::Call { site: 0 });
        g.flow(1, 2);
        g.add_edge(2, 3, EdgeKind::Return { site: 0 });
        g.flow(3, 0);
        g.set_entry(0);
        g.set_exit(3);
        let c = condense(&g);
        check_invariants(&g, &c);
        assert_eq!(c.num_regions(), 1);
        assert_eq!(c.largest_region(), 4);
    }

    #[test]
    fn topological_ids_on_a_chain_of_loops() {
        // (0 1) -> (2 3) -> (4 5): three two-node loops in a chain.
        let mut g = SimpleGraph::new(6);
        g.flow(0, 1);
        g.flow(1, 0);
        g.flow(1, 2);
        g.flow(2, 3);
        g.flow(3, 2);
        g.flow(3, 4);
        g.flow(4, 5);
        g.flow(5, 4);
        g.set_entry(0);
        g.set_exit(5);
        let c = condense(&g);
        check_invariants(&g, &c);
        assert_eq!(c.num_regions(), 3);
        assert_eq!(c.region_of[0], 0);
        assert_eq!(c.region_of[2], 1);
        assert_eq!(c.region_of[4], 2);
        assert_eq!(c.succs[0], vec![1]);
        assert_eq!(c.succs[1], vec![2]);
        assert_eq!(c.preds[2], vec![1]);
    }

    fn fps_for(g: &SimpleGraph, node_fp: &[u64]) -> (Condensation, RegionFingerprints) {
        let c = condense(g);
        let n = g.num_nodes();
        let order = crate::graph::reverse_postorder(g, g.entries(), false);
        let mut rpo_pos = vec![0u32; n];
        for (i, nd) in order.iter().enumerate() {
            rpo_pos[nd.index()] = i as u32;
        }
        let mut is_boundary = vec![false; n];
        for &b in g.entries() {
            is_boundary[b.index()] = true;
        }
        let fps = region_fingerprints(
            g,
            &c,
            node_fp,
            &is_boundary,
            &rpo_pos,
            false,
            g.comm_classes(),
        );
        (c, fps)
    }

    #[test]
    fn region_fingerprints_are_stable_and_content_sensitive() {
        let build = || {
            let mut g = SimpleGraph::new(4);
            g.flow(0, 1);
            g.flow(1, 2);
            g.flow(2, 1); // loop region {1, 2}
            g.flow(2, 3);
            g.set_entry(0);
            g.set_exit(3);
            g
        };
        let g1 = build();
        let g2 = build();
        let node_fp: Vec<u64> = (0..4).map(|i| 100 + i as u64).collect();
        let (c1, f1) = fps_for(&g1, &node_fp);
        let (_, f2) = fps_for(&g2, &node_fp);
        assert_eq!(f1.local_fp, f2.local_fp, "same build ⇒ same fingerprints");
        // Changing one node's content fingerprint changes its region's
        // fingerprint and the ext-in shape of the region downstream of it.
        let mut changed = node_fp.clone();
        changed[1] = 999;
        let (_, f3) = fps_for(&g1, &changed);
        let loop_rid = c1.region_of[1] as usize;
        assert_ne!(f1.local_fp[loop_rid], f3.local_fp[loop_rid]);
        // Region of node 0 is upstream of the change: untouched.
        assert_eq!(
            f1.local_fp[c1.region_of[0] as usize],
            f3.local_fp[c1.region_of[0] as usize]
        );
    }

    #[test]
    fn ext_in_descriptors_name_upstream_sources() {
        let mut g = SimpleGraph::new(3);
        g.flow(0, 2);
        g.flow(1, 2);
        g.set_entry(0);
        g.set_exit(2);
        let node_fp = vec![7u64, 8, 9];
        let (c, f) = fps_for(&g, &node_fp);
        let rid = c.region_of[2] as usize;
        let ext = &f.ext_in[rid];
        assert_eq!(ext.len(), 2);
        let mut fps: Vec<u64> = ext.iter().map(|d| d.src_fp).collect();
        fps.sort_unstable();
        assert_eq!(fps, vec![7, 8]);
        assert!(ext.iter().all(|d| d.dst_local == 0 && d.kind_tag == 0));
        assert!(ext.windows(2).all(|w| w[0].key() <= w[1].key()), "sorted");
    }

    #[test]
    fn upstream_closure_follows_direction() {
        // 0 -> 1 -> 2, 3 isolated.
        let mut g = SimpleGraph::new(4);
        g.flow(0, 1);
        g.flow(1, 2);
        g.set_entry(0);
        g.set_exit(2);
        let c = condense(&g);
        let r = |n: usize| c.region_of[n];
        let fwd = upstream_closure(&c, g.comm_classes(), &[r(1)], false);
        assert!(fwd[r(0) as usize] && fwd[r(1) as usize]);
        assert!(!fwd[r(2) as usize] && !fwd[r(3) as usize]);
        let bwd = upstream_closure(&c, g.comm_classes(), &[r(1)], true);
        assert!(bwd[r(1) as usize] && bwd[r(2) as usize]);
        assert!(!bwd[r(0) as usize]);
    }

    #[test]
    fn upstream_closure_crosses_comm_hubs() {
        // 0 -comm-> 2 and 1 -comm-> 2, 3: the classes carry facts across
        // otherwise unconnected regions.
        let mut g = SimpleGraph::new(5);
        g.comm(0, 2);
        g.comm(1, 2);
        g.comm(1, 3);
        g.flow(3, 4);
        let c = condense(&g);
        check_invariants(&g, &c);
        let r = |n: usize| c.region_of[n];
        let fwd = upstream_closure(&c, g.comm_classes(), &[r(2)], false);
        assert!(fwd[r(0) as usize] && fwd[r(1) as usize] && fwd[r(2) as usize]);
        assert!(!fwd[r(3) as usize] && !fwd[r(4) as usize]);
        let bwd = upstream_closure(&c, g.comm_classes(), &[r(1)], true);
        assert!(bwd[r(2) as usize] && bwd[r(3) as usize] && bwd[r(4) as usize]);
        assert!(!bwd[r(0) as usize]);
    }

    /// Tarjan's algorithm over explicit adjacency (control edges, then comm
    /// successors ascending), numbering regions by reversed emission: the
    /// condensation as it was computed over pairwise comm edges.
    fn tarjan_regions(adj: &[Vec<u32>]) -> Vec<Vec<NodeId>> {
        const UNVISITED: u32 = u32::MAX;
        let n = adj.len();
        let (mut index, mut low) = (vec![UNVISITED; n], vec![0u32; n]);
        let mut on_stack = vec![false; n];
        let (mut stack, mut frames) = (Vec::new(), Vec::new());
        let mut next = 0u32;
        let mut emitted: Vec<Vec<NodeId>> = Vec::new();
        for root in 0..n {
            if index[root] != UNVISITED {
                continue;
            }
            index[root] = next;
            low[root] = next;
            next += 1;
            stack.push(root);
            on_stack[root] = true;
            frames.push((root, 0usize));
            while let Some(frame) = frames.last_mut() {
                let v = frame.0;
                if let Some(&w) = adj[v].get(frame.1) {
                    frame.1 += 1;
                    let w = w as usize;
                    if index[w] == UNVISITED {
                        index[w] = next;
                        low[w] = next;
                        next += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        frames.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    frames.pop();
                    if let Some(parent) = frames.last() {
                        low[parent.0] = low[parent.0].min(low[v]);
                    }
                    if low[v] == index[v] {
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().unwrap();
                            on_stack[w] = false;
                            comp.push(NodeId(w as u32));
                            if w == v {
                                break;
                            }
                        }
                        comp.sort_unstable();
                        emitted.push(comp);
                    }
                }
            }
        }
        emitted.reverse();
        emitted
    }

    #[test]
    fn class_hubs_reproduce_the_pairwise_condensation() {
        let mut rng = crate::rng::SplitMix64::new(5);
        for _ in 0..300 {
            let n = 1 + rng.below(16);
            let mut g = SimpleGraph::new(n);
            for _ in 0..rng.below(2 * n) {
                g.flow(rng.below(n) as u32, rng.below(n) as u32);
            }
            for _ in 0..rng.below(3 * n) {
                g.comm(rng.below(n) as u32, rng.below(n) as u32);
            }
            let adj: Vec<Vec<u32>> = (0..n as u32)
                .map(|i| {
                    let node = NodeId(i);
                    let mut out: Vec<u32> = g.out_edges(node).iter().map(|e| e.to.0).collect();
                    out.extend(g.comm_classes().succs(node).iter().map(|m| m.0));
                    out
                })
                .collect();
            let c = condense(&g);
            check_invariants(&g, &c);
            assert_eq!(c.regions, tarjan_regions(&adj));
        }
    }
}
