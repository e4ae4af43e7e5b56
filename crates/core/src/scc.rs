//! Strongly connected condensation of a [`FlowGraph`] into regions.
//!
//! A demand solve ([`crate::solver::Solver::demand`]) needs to know which
//! nodes can participate in a fact cycle. On an MPI-ICFG
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

use crate::graph::{Dfs, FlowGraph, NodeId};

/// The condensation: each node mapped to its strongly connected region, with
/// region ids in topological order of the region DAG.
#[derive(Debug, Clone)]
pub struct Condensation {
    /// Node index → region id. Invariant: for every control edge or
    /// communication pair `u -> v`, `region_of[u] <= region_of[v]`, with
    /// equality exactly when `u` and `v` share a region. Every node of the
    /// graph (including unreachable ones) has a region, and every id below
    /// [`Condensation::num_regions`] names at least one node.
    pub region_of: Vec<u32>,
    count: usize,
}

impl Condensation {
    /// Number of strongly connected regions.
    pub fn num_regions(&self) -> usize {
        self.count
    }

    /// Size of the largest region (a single giant comm SCC means a demand
    /// solve sweeps almost the whole graph as one region).
    pub fn largest_region(&self) -> usize {
        let mut sizes = vec![0usize; self.count];
        for &r in &self.region_of {
            sizes[r as usize] += 1;
        }
        sizes.into_iter().max().unwrap_or(0)
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
    let mut region_of = vec![0u32; n];
    let mut count = 0;
    for &root in finished.iter().rev() {
        if backward.visited[root.index()] {
            continue;
        }
        backward.run(root, |v| region_of[v.index()] = count as u32);
        count += 1;
    }
    Condensation { region_of, count }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SimpleGraph;

    /// Region id → member nodes in index order.
    fn members(c: &Condensation) -> Vec<Vec<NodeId>> {
        let mut regions = vec![Vec::new(); c.num_regions()];
        for (i, &r) in c.region_of.iter().enumerate() {
            regions[r as usize].push(NodeId(i as u32));
        }
        regions
    }

    fn check_invariants<G: FlowGraph>(g: &G, c: &Condensation) {
        // Every node has a region and every region id names a node.
        assert_eq!(c.region_of.len(), g.num_nodes());
        assert!(members(c).iter().all(|m| !m.is_empty()), "dense region ids");
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
        assert_eq!(members(&c)[c.region_of[0] as usize], vec![NodeId(0)]);
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
            assert_eq!(members(&c), tarjan_regions(&adj));
        }
    }
}
