//! Tarjan condensation of a [`FlowGraph`] into strongly connected regions.
//!
//! The region solver strategy ([`crate::solver::Strategy::Region`]) needs
//! to know which nodes can participate in a fact cycle. On an MPI-ICFG
//! a cycle may run through **communication edges** — a send whose payload
//! feeds a receive that loops back to the send (CG's cyclic communication
//! structure is the canonical case) — so the condensation here traverses
//! *every* edge kind: flow, call, return, and comm. Anything that can carry a
//! fact can close a cycle, and anything that can close a cycle must land in
//! one region.
//!
//! Region ids are renumbered into **topological order**: for every
//! cross-region edge `u -> v` in the underlying graph,
//! `region_of[u] < region_of[v]`. Tarjan emits components in reverse
//! topological order (a component is only popped once everything reachable
//! from it has been popped), so the renumbering is just a reversal — no
//! second sort is needed. The solver relies on this invariant to schedule
//! regions: once every predecessor region of `R` has reached its local
//! fixpoint, the facts flowing into `R` are final, so `R`'s local fixpoint is
//! a piece of the global one.
//!
//! The implementation is fully iterative (explicit DFS stack); deep
//! straight-line programs must not overflow the thread stack.

use crate::graph::{Edge, EdgeKind, FlowGraph, NodeId};
use crate::hash::Hasher128;

/// The condensation: each node mapped to its strongly connected region, with
/// region ids in topological order of the region DAG.
#[derive(Debug, Clone)]
pub struct Condensation {
    /// Node index → region id. Invariant: for every edge `u -> v` of the
    /// condensed graph (any kind, including comm),
    /// `region_of[u] <= region_of[v]`, with equality exactly when `u` and
    /// `v` share a region.
    pub region_of: Vec<u32>,
    /// Node index → position of the node inside `regions[region_of[node]]`.
    pub local_index: Vec<u32>,
    /// Region id → member nodes, sorted by node index. Every node of the
    /// graph (including unreachable ones) appears in exactly one region.
    pub regions: Vec<Vec<NodeId>>,
    /// Region id → distinct successor region ids (sorted, deduplicated).
    pub succs: Vec<Vec<u32>>,
    /// Region id → distinct predecessor region ids (sorted, deduplicated).
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

const UNVISITED: u32 = u32::MAX;

/// Compute the condensation of `graph`, traversing **all** edge kinds
/// (flow, call, return, and communication).
pub fn condense<G: FlowGraph>(graph: &G) -> Condensation {
    let n = graph.num_nodes();
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next = 0u32;
    // Components in Tarjan emission order (= reverse topological order).
    let mut emitted: Vec<Vec<NodeId>> = Vec::new();
    let mut raw_region = vec![UNVISITED; n];

    // Explicit DFS frames: (node, next out-edge offset).
    let mut frames: Vec<(u32, usize)> = Vec::new();
    for root in 0..n as u32 {
        if index[root as usize] != UNVISITED {
            continue;
        }
        index[root as usize] = next;
        low[root as usize] = next;
        next += 1;
        stack.push(root);
        on_stack[root as usize] = true;
        frames.push((root, 0));
        while let Some(frame) = frames.last_mut() {
            let v = frame.0;
            let edges = graph.out_edges(NodeId(v));
            if frame.1 < edges.len() {
                // Every edge kind participates: comm edges carry facts too.
                let w = edges[frame.1].to.0;
                frame.1 += 1;
                if index[w as usize] == UNVISITED {
                    index[w as usize] = next;
                    low[w as usize] = next;
                    next += 1;
                    stack.push(w);
                    on_stack[w as usize] = true;
                    frames.push((w, 0));
                } else if on_stack[w as usize] {
                    low[v as usize] = low[v as usize].min(index[w as usize]);
                }
            } else {
                frames.pop();
                if let Some(parent) = frames.last() {
                    let p = parent.0 as usize;
                    low[p] = low[p].min(low[v as usize]);
                }
                if low[v as usize] == index[v as usize] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("Tarjan stack underflow");
                        on_stack[w as usize] = false;
                        raw_region[w as usize] = emitted.len() as u32;
                        comp.push(NodeId(w));
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

    // Renumber emission order (reverse topological) into topological order.
    let total = emitted.len() as u32;
    let regions: Vec<Vec<NodeId>> = emitted.into_iter().rev().collect();
    let mut region_of = vec![0u32; n];
    for (i, raw) in raw_region.iter().enumerate() {
        debug_assert_ne!(*raw, UNVISITED, "node {i} missed by Tarjan sweep");
        region_of[i] = total - 1 - raw;
    }
    let mut local_index = vec![0u32; n];
    for region in &regions {
        for (i, nd) in region.iter().enumerate() {
            local_index[nd.index()] = i as u32;
        }
    }

    // Cross-region adjacency, deduplicated.
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

/// Edge-kind tag folded into region fingerprints. Raw `site`/`pair` ids are
/// deliberately excluded — they are assigned in graph-build order and shift
/// under unrelated edits — while the *semantics* a site id selects (callee,
/// bindings) are covered by the per-node content fingerprints.
fn kind_tag(kind: EdgeKind) -> u8 {
    match kind {
        EdgeKind::Flow => 0,
        EdgeKind::Call { .. } => 1,
        EdgeKind::Return { .. } => 2,
        EdgeKind::Comm { .. } => 3,
    }
}

/// One upstream edge arriving at a region from *outside* it, described in
/// graph-independent terms so regions of two different graph builds can be
/// matched: the destination's local index, the edge-kind tag, and the
/// source node's content fingerprint. `src` is the source in the graph the
/// descriptor was computed over — used to read the source's current fact
/// when validating a seed, never folded into any fingerprint.
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

    /// Whether this descriptor records a communication edge (whose upstream
    /// contribution is the source's *input* fact via `f_comm`, not its
    /// output).
    pub fn is_comm(&self) -> bool {
        self.kind_tag == 3
    }
}

/// Per-region structural fingerprints plus external upstream-edge
/// descriptors, for one direction-adjusted view of a condensed graph.
#[derive(Debug, Clone)]
pub struct RegionFingerprints {
    /// Region id → local structural fingerprint. Two regions (across graph
    /// builds) with equal fingerprints have identical member content, member
    /// visit order, internal edge structure, and external-input shape — so
    /// a deterministic local fixpoint over them behaves identically given
    /// equal upstream facts.
    pub local_fp: Vec<u64>,
    /// Region id → external upstream edges, sorted by
    /// [`ExtInEdge::key`] (then source id for determinism).
    pub ext_in: Vec<Vec<ExtInEdge>>,
}

/// Compute [`RegionFingerprints`] for `cond` over `graph`.
///
/// The local fingerprint of a region folds, in deterministic order:
/// member count; each member's content fingerprint, boundary flag, and
/// RPO rank *within the region* (in local — sorted-by-node-id — member
/// order); the sorted internal edge list as `(src_local, dst_local,
/// kind_tag)` triples; and the sorted external upstream-edge keys. Raw node
/// ids, statement ids, and global RPO positions are excluded — they shift
/// under edits elsewhere in the program.
///
/// `node_fp` is the per-node content fingerprint (from
/// [`crate::problem::Dataflow::node_fingerprint`]), `is_boundary` marks the
/// direction-adjusted boundary nodes, `rpo_pos` is the global
/// direction-adjusted reverse postorder position of each node, and
/// `backward` selects which adjacency is "upstream".
pub fn region_fingerprints<G: FlowGraph>(
    graph: &G,
    cond: &Condensation,
    node_fp: &[u64],
    is_boundary: &[bool],
    rpo_pos: &[u32],
    backward: bool,
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

    let mut local_fp = Vec::with_capacity(cond.regions.len());
    let mut ext_in: Vec<Vec<ExtInEdge>> = Vec::with_capacity(cond.regions.len());
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
        }
        internal.sort_unstable();
        ext.sort_unstable_by_key(|d| (d.key(), d.src.0));

        let mut h = Hasher128::new();
        h.write_u64(members.len() as u64);
        for (local, &nd) in members.iter().enumerate() {
            h.write_u64(node_fp[nd.index()]);
            h.write_bool(is_boundary[nd.index()]);
            h.write_u64(rpo_rank[local] as u64);
        }
        h.write_u64(internal.len() as u64);
        for &(s, d, t) in &internal {
            h.write_u64(s as u64);
            h.write_u64(d as u64);
            h.write_u64(t as u64);
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
    }
    RegionFingerprints { local_fp, ext_in }
}

/// Mark the upstream dependency closure of `roots`: every region whose
/// facts can reach a root region under the analysis direction (for a
/// forward problem, predecessor regions; for a backward one, successor
/// regions), roots included. This is the demand slice: solving exactly
/// these regions in topological order yields, at every node they contain,
/// the same facts a whole-program fixpoint would.
pub fn upstream_closure(cond: &Condensation, roots: &[u32], backward: bool) -> Vec<bool> {
    let deps = if backward { &cond.succs } else { &cond.preds };
    let mut in_slice = vec![false; cond.num_regions()];
    let mut stack: Vec<u32> = Vec::new();
    for &r in roots {
        if !in_slice[r as usize] {
            in_slice[r as usize] = true;
            stack.push(r);
        }
    }
    while let Some(r) = stack.pop() {
        for &d in &deps[r as usize] {
            if !in_slice[d as usize] {
                in_slice[d as usize] = true;
                stack.push(d);
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
        // Topological numbering across every edge kind.
        for u in 0..g.num_nodes() {
            for e in g.out_edges(NodeId(u as u32)) {
                let (ru, rv) = (c.region_of[u], c.region_of[e.to.index()]);
                assert!(ru <= rv, "edge {u}->{} regions {ru}->{rv}", e.to.index());
            }
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
        g.comm(1, 2, 0);
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
        g.comm(1, 2, 0);
        g.comm(2, 1, 1);
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
        let fps = region_fingerprints(g, &c, node_fp, &is_boundary, &rpo_pos, false);
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
        let fwd = upstream_closure(&c, &[r(1)], false);
        assert!(fwd[r(0) as usize] && fwd[r(1) as usize]);
        assert!(!fwd[r(2) as usize] && !fwd[r(3) as usize]);
        let bwd = upstream_closure(&c, &[r(1)], true);
        assert!(bwd[r(1) as usize] && bwd[r(2) as usize]);
        assert!(!bwd[r(0) as usize]);
    }
}
