//! The flow-graph abstraction the solver runs over.
//!
//! The framework is deliberately independent of any concrete IR: anything
//! that exposes nodes, typed control edges (intraprocedural flow and
//! interprocedural call/return), *communication classes*, and boundary
//! nodes can be analyzed. The `mpi-dfa-graph` crate implements this trait
//! for the ICFG and MPI-ICFG; tests here use a tiny hand-built
//! [`SimpleGraph`].
//!
//! Communication is not stored as edges. A [`CommClasses`] view groups the
//! receivers that share one set of sources into a class, so a collective
//! group of k members is one class of k sources and k receivers rather than
//! k² edges. The paper's `commpred(n)` is the source list of `n`'s class.

use std::fmt;
use std::sync::OnceLock;

/// Dense node identifier within one flow graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Control-edge classification. Data-flow facts are *translated* across
/// `Call` / `Return` edges (actual↔formal renaming) and flow unchanged
/// across `Flow` edges. Communication is not an edge kind: it lives in the
/// graph's [`CommClasses`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Intraprocedural control flow.
    Flow,
    /// Call-site node → callee entry. `site` identifies the call site so the
    /// problem can look up actual/formal bindings.
    Call { site: u32 },
    /// Callee exit → return node of call site `site`.
    Return { site: u32 },
}

/// A directed control edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    pub from: NodeId,
    pub to: NodeId,
    pub kind: EdgeKind,
}

/// Marks a node that receives in no class.
const NO_CLASS: u32 = u32::MAX;

/// The communication of a graph, as classes: class `c` connects each of its
/// sources to each of its receivers. Receivers with the same source set may
/// share a class; every node receives in at most one class. Storage grows
/// with Σ (|sources| + |receivers|), never with the number of pairs
/// Σ |sources| × |receivers| the classes stand for.
#[derive(Debug, Clone, Default)]
pub struct CommClasses {
    /// Class `c`'s sources, ascending, are `srcs[src_start[c]..src_start[c + 1]]`.
    src_start: Vec<u32>,
    srcs: Vec<NodeId>,
    /// Class `c`'s receivers, ascending, are `rcvs[rcv_start[c]..rcv_start[c + 1]]`.
    rcv_start: Vec<u32>,
    rcvs: Vec<NodeId>,
    /// Node index → the class it receives in, or [`NO_CLASS`]. Empty when
    /// there are no classes.
    class_of: Vec<u32>,
    /// The classes node `i` is a source of, ascending, are
    /// `feeds[feeds_start[i]..feeds_start[i + 1]]`. Empty when there are no
    /// classes.
    feeds_start: Vec<u32>,
    feeds: Vec<u32>,
    /// Σ |sources| × |receivers|.
    pairs: usize,
    /// The view with every pair reversed, built on the first
    /// [`CommClasses::transposed`] call and kept for the graph's lifetime.
    transposed: OnceLock<Box<CommClasses>>,
}

/// Equality compares the classes only: `transposed` is derived from them.
impl PartialEq for CommClasses {
    fn eq(&self, other: &Self) -> bool {
        self.src_start == other.src_start
            && self.srcs == other.srcs
            && self.rcv_start == other.rcv_start
            && self.rcvs == other.rcvs
            && self.class_of == other.class_of
            && self.feeds_start == other.feeds_start
            && self.feeds == other.feeds
            && self.pairs == other.pairs
    }
}

impl Eq for CommClasses {}

impl CommClasses {
    /// Classes over nodes `0..num_nodes` from (sources, receivers) lists.
    /// Each list is sorted and deduplicated here; a class with no source or
    /// no receiver connects nothing and is dropped. A node may be a source
    /// of many classes but a receiver in at most one.
    pub fn new(
        num_nodes: usize,
        classes: impl IntoIterator<Item = (Vec<NodeId>, Vec<NodeId>)>,
    ) -> Self {
        let mut src_start = vec![0u32];
        let mut srcs = Vec::new();
        let mut rcv_start = vec![0u32];
        let mut rcvs = Vec::new();
        let mut class_of = vec![NO_CLASS; num_nodes];
        let mut pairs = 0usize;
        for (mut s, mut r) in classes {
            s.sort_unstable();
            s.dedup();
            r.sort_unstable();
            r.dedup();
            if s.is_empty() || r.is_empty() {
                continue;
            }
            let c = (src_start.len() - 1) as u32;
            for &n in &r {
                assert_eq!(class_of[n.index()], NO_CLASS, "{n} receives in two classes");
                class_of[n.index()] = c;
            }
            pairs += s.len() * r.len();
            srcs.extend_from_slice(&s);
            src_start.push(srcs.len() as u32);
            rcvs.extend_from_slice(&r);
            rcv_start.push(rcvs.len() as u32);
        }
        CommClasses::from_parts(src_start, srcs, rcv_start, rcvs, class_of, pairs)
    }

    /// Finish a view from its class lists: derive each node's fed classes
    /// (a counting sort by source; classes are visited in ascending order,
    /// so each node's list comes out sorted). No class at all gives the
    /// empty view.
    fn from_parts(
        src_start: Vec<u32>,
        srcs: Vec<NodeId>,
        rcv_start: Vec<u32>,
        rcvs: Vec<NodeId>,
        class_of: Vec<u32>,
        pairs: usize,
    ) -> Self {
        if src_start.len() == 1 {
            return CommClasses::default();
        }
        let num_nodes = class_of.len();
        let mut feeds_start = vec![0u32; num_nodes + 1];
        for s in &srcs {
            feeds_start[s.index() + 1] += 1;
        }
        for i in 0..num_nodes {
            feeds_start[i + 1] += feeds_start[i];
        }
        let mut fill = feeds_start.clone();
        let mut feeds = vec![0u32; srcs.len()];
        for c in 0..src_start.len() - 1 {
            for s in &srcs[src_start[c] as usize..src_start[c + 1] as usize] {
                feeds[fill[s.index()] as usize] = c as u32;
                fill[s.index()] += 1;
            }
        }
        CommClasses {
            src_start,
            srcs,
            rcv_start,
            rcvs,
            class_of,
            feeds_start,
            feeds,
            pairs,
            transposed: OnceLock::new(),
        }
    }

    /// Classes from explicit (source, receiver) pairs: receivers with equal
    /// source sets share a class.
    pub fn from_pairs(num_nodes: usize, pairs: impl IntoIterator<Item = (NodeId, NodeId)>) -> Self {
        let mut preds: Vec<Vec<NodeId>> = vec![Vec::new(); num_nodes];
        for (from, to) in pairs {
            preds[to.index()].push(from);
        }
        let mut by_sources: std::collections::BTreeMap<Vec<NodeId>, Vec<NodeId>> =
            std::collections::BTreeMap::new();
        for (r, mut s) in preds.into_iter().enumerate() {
            if s.is_empty() {
                continue;
            }
            s.sort_unstable();
            s.dedup();
            by_sources.entry(s).or_default().push(NodeId(r as u32));
        }
        CommClasses::new(num_nodes, by_sources)
    }

    /// The same communication with every pair reversed: senders that feed
    /// the same set of classes share one class, whose sources are those
    /// classes' receivers. A backward solve reads its classes from here.
    /// Built on the first call and kept, so every backward solve over one
    /// graph shares it.
    pub fn transposed(&self) -> &CommClasses {
        self.transposed.get_or_init(|| Box::new(self.transpose()))
    }

    /// Build [`CommClasses::transposed`]. Classes are numbered in ascending
    /// order of their fed-class lists; senders and receivers are ascending.
    /// The lists are written straight into the flat arrays, with no
    /// allocation per class.
    fn transpose(&self) -> CommClasses {
        let n = self.class_of.len();
        let fed = |s: &NodeId| self.feeds(*s);
        let mut senders: Vec<NodeId> = (0..n as u32)
            .map(NodeId)
            .filter(|s| !fed(s).is_empty())
            .collect();
        // Stable, so senders with equal fed lists stay ascending.
        senders.sort_by(|a, b| fed(a).cmp(fed(b)));
        let mut src_start = vec![0u32];
        let mut srcs = Vec::new();
        let mut rcv_start = vec![0u32];
        let mut class_of = vec![NO_CLASS; n];
        let mut pairs = 0usize;
        for group in senders.chunk_by(|a, b| fed(a) == fed(b)) {
            let c = (src_start.len() - 1) as u32;
            let first = srcs.len();
            for &f in fed(&group[0]) {
                srcs.extend_from_slice(self.receivers(f as usize));
            }
            // A node receives in one class, so the lists are disjoint.
            srcs[first..].sort_unstable();
            for s in group {
                class_of[s.index()] = c;
            }
            pairs += (srcs.len() - first) * group.len();
            src_start.push(srcs.len() as u32);
            rcv_start.push(rcv_start[c as usize] + group.len() as u32);
        }
        CommClasses::from_parts(src_start, srcs, rcv_start, senders, class_of, pairs)
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.src_start.len().saturating_sub(1)
    }

    /// Whether the graph has no communication at all.
    pub fn is_empty(&self) -> bool {
        self.num_classes() == 0
    }

    /// Class `c`'s sources, ascending.
    pub fn sources(&self, c: usize) -> &[NodeId] {
        &self.srcs[self.src_start[c] as usize..self.src_start[c + 1] as usize]
    }

    /// Class `c`'s receivers, ascending.
    pub fn receivers(&self, c: usize) -> &[NodeId] {
        &self.rcvs[self.rcv_start[c] as usize..self.rcv_start[c + 1] as usize]
    }

    /// The class `n` receives in, if any.
    pub fn class_of(&self, n: NodeId) -> Option<usize> {
        match self.class_of.get(n.index()) {
            Some(&c) if c != NO_CLASS => Some(c as usize),
            _ => None,
        }
    }

    /// The classes `n` is a source of, ascending.
    pub fn feeds(&self, n: NodeId) -> &[u32] {
        match (
            self.feeds_start.get(n.index()),
            self.feeds_start.get(n.index() + 1),
        ) {
            (Some(&a), Some(&b)) => &self.feeds[a as usize..b as usize],
            _ => &[],
        }
    }

    /// The communication predecessors of `n` (the paper's `commpred(n)`),
    /// ascending.
    pub fn preds(&self, n: NodeId) -> &[NodeId] {
        self.class_of(n).map_or(&[], |c| self.sources(c))
    }

    /// The communication successors of `n`, ascending: the receivers of
    /// every class `n` feeds.
    pub fn succs(&self, n: NodeId) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .feeds(n)
            .iter()
            .flat_map(|&c| self.receivers(c as usize).iter().copied())
            .collect();
        out.sort_unstable();
        out
    }

    /// Number of (source, receiver) pairs the classes stand for:
    /// Σ |sources| × |receivers|.
    pub fn num_pairs(&self) -> usize {
        self.pairs
    }

    /// Every (source, receiver) pair, by source then receiver, ascending.
    pub fn pairs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.feeds_start.len().saturating_sub(1) as u32)
            .map(NodeId)
            .flat_map(move |s| self.succs(s).into_iter().map(move |r| (s, r)))
    }
}

/// The class view of a graph without communication.
static NO_COMM: CommClasses = CommClasses {
    src_start: Vec::new(),
    srcs: Vec::new(),
    rcv_start: Vec::new(),
    rcvs: Vec::new(),
    class_of: Vec::new(),
    feeds_start: Vec::new(),
    feeds: Vec::new(),
    pairs: 0,
    transposed: OnceLock::new(),
};

/// Graphs the solver can run over. `in_edges`/`out_edges` hold control
/// edges only; communication comes from [`FlowGraph::comm_classes`].
pub trait FlowGraph {
    /// Number of nodes; ids are `0..num_nodes`.
    fn num_nodes(&self) -> usize;

    /// Control edges arriving at `n`.
    fn in_edges(&self, n: NodeId) -> &[Edge];

    /// Control edges leaving `n`.
    fn out_edges(&self, n: NodeId) -> &[Edge];

    /// Boundary nodes for forward analyses (program/context entry).
    fn entries(&self) -> &[NodeId];

    /// Boundary nodes for backward analyses (program/context exit).
    fn exits(&self) -> &[NodeId];

    /// The graph's communication classes; none by default.
    fn comm_classes(&self) -> &CommClasses {
        &NO_COMM
    }
}

/// An iterative depth-first search over control edges and then
/// communication neighbours, the latter in ascending node id. Forward, a
/// node's communication neighbours are the receivers of the classes it
/// feeds; backward, the sources of its class.
///
/// Each class keeps one cursor at its first possibly-unvisited entry.
/// Visits only accumulate, so an entry a cursor has passed stays visited,
/// and "the next unvisited neighbour in ascending order" (what a scan of a
/// sorted pair list finds) is the least cursor head over the node's
/// classes. A search therefore costs O(control edges + class entries), not
/// O(pairs), and visits nodes in the order the pairwise search did.
pub(crate) struct Dfs<'g, G: FlowGraph> {
    graph: &'g G,
    backward: bool,
    /// `visited[i]` once node `i` has been pushed (or marked by the caller).
    pub(crate) visited: Vec<bool>,
    cursor: Vec<u32>,
    /// Frames: (node, next control edge; past the end means the
    /// communication phase).
    stack: Vec<(NodeId, usize)>,
}

impl<'g, G: FlowGraph> Dfs<'g, G> {
    pub(crate) fn new(graph: &'g G, backward: bool) -> Self {
        Dfs {
            graph,
            backward,
            visited: vec![false; graph.num_nodes()],
            cursor: vec![0; graph.comm_classes().num_classes()],
            stack: Vec::new(),
        }
    }

    /// Advance a class's `cursor` past the visited entries of its `list`
    /// and return the first unvisited one.
    fn head(cursor: &mut u32, list: &[NodeId], visited: &[bool]) -> Option<NodeId> {
        while let Some(&m) = list.get(*cursor as usize) {
            if !visited[m.index()] {
                return Some(m);
            }
            *cursor += 1;
        }
        None
    }

    /// The least unvisited communication neighbour of `n`.
    fn next_comm(&mut self, n: NodeId) -> Option<NodeId> {
        let comm = self.graph.comm_classes();
        if self.backward {
            let c = comm.class_of(n)?;
            Self::head(&mut self.cursor[c], comm.sources(c), &self.visited)
        } else {
            let mut best: Option<NodeId> = None;
            for &c in comm.feeds(n) {
                let c = c as usize;
                if let Some(m) = Self::head(&mut self.cursor[c], comm.receivers(c), &self.visited) {
                    best = Some(best.map_or(m, |b| b.min(m)));
                }
            }
            best
        }
    }

    /// Search from `root` unless it is already visited, calling `finish`
    /// on each node as its frame completes (postorder).
    pub(crate) fn run(&mut self, root: NodeId, mut finish: impl FnMut(NodeId)) {
        if std::mem::replace(&mut self.visited[root.index()], true) {
            return;
        }
        self.stack.push((root, 0));
        while let Some(&(node, idx)) = self.stack.last() {
            let edges = if self.backward {
                self.graph.in_edges(node)
            } else {
                self.graph.out_edges(node)
            };
            let next = if idx < edges.len() {
                self.stack.last_mut().expect("the frame just read").1 += 1;
                let e = edges[idx];
                let next = if self.backward { e.from } else { e.to };
                if self.visited[next.index()] {
                    continue;
                }
                Some(next)
            } else {
                self.next_comm(node)
            };
            match next {
                Some(next) => {
                    self.visited[next.index()] = true;
                    self.stack.push((next, 0));
                }
                None => {
                    finish(node);
                    self.stack.pop();
                }
            }
        }
    }
}

/// Reverse postorder over control edges and communication, starting from
/// `roots`, following `out_edges` and communication successors (pass the
/// exits and `backward` for backward problems, which follow `in_edges` and
/// communication predecessors). A node's communication neighbours come
/// after its control edges, in ascending node id. Nodes unreachable from
/// the roots are appended in index order so every node still gets visited.
pub fn reverse_postorder<G: FlowGraph>(graph: &G, roots: &[NodeId], backward: bool) -> Vec<NodeId> {
    let n = graph.num_nodes();
    let mut dfs = Dfs::new(graph, backward);
    let mut postorder = Vec::with_capacity(n);
    for &root in roots {
        dfs.run(root, |v| postorder.push(v));
    }
    postorder.reverse();
    for (i, seen) in dfs.visited.iter().enumerate() {
        if !seen {
            postorder.push(NodeId(i as u32));
        }
    }
    postorder
}

/// A minimal adjacency-list graph for tests, documentation examples, and the
/// framework's own unit tests.
#[derive(Debug, Clone, Default)]
pub struct SimpleGraph {
    in_edges: Vec<Vec<Edge>>,
    out_edges: Vec<Vec<Edge>>,
    entries: Vec<NodeId>,
    exits: Vec<NodeId>,
    /// Communication pairs as added; grouped into classes on first use.
    comm_pairs: Vec<(NodeId, NodeId)>,
    classes: OnceLock<CommClasses>,
}

impl SimpleGraph {
    pub fn new(num_nodes: usize) -> Self {
        SimpleGraph {
            in_edges: vec![Vec::new(); num_nodes],
            out_edges: vec![Vec::new(); num_nodes],
            ..Default::default()
        }
    }

    pub fn add_edge(&mut self, from: u32, to: u32, kind: EdgeKind) {
        let e = Edge {
            from: NodeId(from),
            to: NodeId(to),
            kind,
        };
        self.out_edges[from as usize].push(e);
        self.in_edges[to as usize].push(e);
    }

    pub fn flow(&mut self, from: u32, to: u32) {
        self.add_edge(from, to, EdgeKind::Flow);
    }

    /// Add the communication pair `from → to`. Receivers with equal source
    /// sets share one class.
    pub fn comm(&mut self, from: u32, to: u32) {
        self.comm_pairs.push((NodeId(from), NodeId(to)));
        self.classes = OnceLock::new();
    }

    pub fn set_entry(&mut self, n: u32) {
        self.entries.push(NodeId(n));
    }

    pub fn set_exit(&mut self, n: u32) {
        self.exits.push(NodeId(n));
    }
}

impl FlowGraph for SimpleGraph {
    fn num_nodes(&self) -> usize {
        self.out_edges.len()
    }

    fn in_edges(&self, n: NodeId) -> &[Edge] {
        &self.in_edges[n.index()]
    }

    fn out_edges(&self, n: NodeId) -> &[Edge] {
        &self.out_edges[n.index()]
    }

    fn entries(&self) -> &[NodeId] {
        &self.entries
    }

    fn exits(&self) -> &[NodeId] {
        &self.exits
    }

    fn comm_classes(&self) -> &CommClasses {
        self.classes.get_or_init(|| {
            CommClasses::from_pairs(self.num_nodes(), self.comm_pairs.iter().copied())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> SimpleGraph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        let mut g = SimpleGraph::new(4);
        g.flow(0, 1);
        g.flow(0, 2);
        g.flow(1, 3);
        g.flow(2, 3);
        g.set_entry(0);
        g.set_exit(3);
        g
    }

    #[test]
    fn rpo_visits_preds_first_in_dags() {
        let g = diamond();
        let order = reverse_postorder(&g, g.entries(), false);
        let pos: Vec<usize> = (0..4)
            .map(|i| order.iter().position(|n| n.0 == i as u32).unwrap())
            .collect();
        assert!(pos[0] < pos[1]);
        assert!(pos[0] < pos[2]);
        assert!(pos[1] < pos[3]);
        assert!(pos[2] < pos[3]);
    }

    #[test]
    fn backward_rpo_reverses_roles() {
        let g = diamond();
        let order = reverse_postorder(&g, g.exits(), true);
        let pos: Vec<usize> = (0..4)
            .map(|i| order.iter().position(|n| n.0 == i as u32).unwrap())
            .collect();
        assert!(pos[3] < pos[1]);
        assert!(pos[3] < pos[2]);
        assert!(pos[1] < pos[0]);
    }

    #[test]
    fn unreachable_nodes_are_appended() {
        let mut g = SimpleGraph::new(3);
        g.flow(0, 1);
        g.set_entry(0);
        let order = reverse_postorder(&g, g.entries(), false);
        assert_eq!(order.len(), 3);
        assert!(order.contains(&NodeId(2)));
    }

    #[test]
    fn cycles_terminate() {
        let mut g = SimpleGraph::new(3);
        g.flow(0, 1);
        g.flow(1, 2);
        g.flow(2, 1); // loop
        g.set_entry(0);
        let order = reverse_postorder(&g, g.entries(), false);
        assert_eq!(order.len(), 3);
        assert_eq!(order[0], NodeId(0));
    }

    #[test]
    fn comm_edges_participate_in_ordering() {
        let mut g = SimpleGraph::new(3);
        g.flow(0, 1);
        g.comm(1, 2);
        g.set_entry(0);
        let order = reverse_postorder(&g, g.entries(), false);
        let pos: Vec<usize> = (0..3)
            .map(|i| order.iter().position(|n| n.0 == i as u32).unwrap())
            .collect();
        assert!(pos[1] < pos[2], "comm successor ordered after its source");
    }

    /// The pairwise search the class cursors replace: control edges, then
    /// the communication neighbours in ascending order, each scanned once.
    fn pairwise_rpo(g: &SimpleGraph, roots: &[NodeId], backward: bool) -> Vec<NodeId> {
        let n = g.num_nodes();
        let mut adj: Vec<Vec<NodeId>> = (0..n)
            .map(|i| {
                let node = NodeId(i as u32);
                let ctrl = if backward {
                    g.in_edges(node)
                } else {
                    g.out_edges(node)
                };
                ctrl.iter()
                    .map(|e| if backward { e.from } else { e.to })
                    .collect()
            })
            .collect();
        for (i, list) in adj.iter_mut().enumerate() {
            let node = NodeId(i as u32);
            if backward {
                list.extend_from_slice(g.comm_classes().preds(node));
            } else {
                list.extend(g.comm_classes().succs(node));
            }
        }
        let mut visited = vec![false; n];
        let mut post = Vec::new();
        for &root in roots {
            if std::mem::replace(&mut visited[root.index()], true) {
                continue;
            }
            let mut stack = vec![(root, 0usize)];
            while let Some(&mut (v, ref mut k)) = stack.last_mut() {
                if let Some(&w) = adj[v.index()].get(*k) {
                    *k += 1;
                    if !std::mem::replace(&mut visited[w.index()], true) {
                        stack.push((w, 0));
                    }
                } else {
                    post.push(v);
                    stack.pop();
                }
            }
        }
        post.reverse();
        post.extend((0..n as u32).map(NodeId).filter(|v| !visited[v.index()]));
        post
    }

    #[test]
    fn class_cursors_reproduce_the_pairwise_search() {
        let mut rng = crate::rng::SplitMix64::new(21);
        for _ in 0..200 {
            let n = 2 + rng.below(14) as u32;
            let mut g = SimpleGraph::new(n as usize);
            for _ in 0..rng.below(2 * n as usize) {
                g.flow(rng.below(n as usize) as u32, rng.below(n as usize) as u32);
            }
            for _ in 0..rng.below(3 * n as usize) {
                g.comm(rng.below(n as usize) as u32, rng.below(n as usize) as u32);
            }
            g.set_entry(0);
            g.set_exit(n - 1);
            for backward in [false, true] {
                let roots = if backward { g.exits() } else { g.entries() };
                assert_eq!(
                    reverse_postorder(&g, roots, backward),
                    pairwise_rpo(&g, roots, backward)
                );
            }
        }
    }

    #[test]
    fn classes_group_receivers_by_source_set() {
        let mut g = SimpleGraph::new(5);
        for (s, r) in [(0, 2), (1, 2), (1, 3), (0, 3), (4, 4)] {
            g.comm(s, r);
        }
        let c = g.comm_classes();
        assert_eq!(c.num_classes(), 2);
        assert_eq!(c.num_pairs(), 5);
        assert_eq!(c.class_of(NodeId(2)), c.class_of(NodeId(3)));
        assert_eq!(c.preds(NodeId(3)), &[NodeId(0), NodeId(1)]);
        assert_eq!(c.succs(NodeId(1)), vec![NodeId(2), NodeId(3)]);
        assert_eq!(c.preds(NodeId(0)), &[] as &[NodeId]);
        let pairs: Vec<(u32, u32)> = c.pairs().map(|(s, r)| (s.0, r.0)).collect();
        assert_eq!(pairs, vec![(0, 2), (0, 3), (1, 2), (1, 3), (4, 4)]);
        let t = c.transposed();
        let back: Vec<(u32, u32)> = t.pairs().map(|(s, r)| (r.0, s.0)).collect();
        let mut sorted = back.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, pairs);
        assert_eq!(t.preds(NodeId(0)), &[NodeId(2), NodeId(3)]);
    }

    #[test]
    fn transposed_view_matches_a_map_built_reference_and_is_built_once() {
        let mut rng = crate::rng::SplitMix64::new(22);
        for _ in 0..300 {
            let n = 1 + rng.below(12);
            let pairs: Vec<(NodeId, NodeId)> = (0..rng.below(3 * n))
                .map(|_| (NodeId(rng.below(n) as u32), NodeId(rng.below(n) as u32)))
                .collect();
            let c = CommClasses::from_pairs(n, pairs.iter().copied());
            // Reference: senders grouped by their fed-class list in an
            // ordered map, each group's sources the fed classes' receivers.
            let mut by_fed: std::collections::BTreeMap<&[u32], Vec<NodeId>> =
                std::collections::BTreeMap::new();
            for i in 0..n as u32 {
                let fed = c.feeds(NodeId(i));
                if !fed.is_empty() {
                    by_fed.entry(fed).or_default().push(NodeId(i));
                }
            }
            let want = CommClasses::new(
                n,
                by_fed.into_iter().map(|(fed, senders)| {
                    let sources = fed
                        .iter()
                        .flat_map(|&k| c.receivers(k as usize).iter().copied())
                        .collect();
                    (sources, senders)
                }),
            );
            let got = c.transposed();
            assert_eq!(got, &want, "{pairs:?}");
            assert!(std::ptr::eq(got, c.transposed()), "built once");
            // The memo is not part of equality.
            assert_eq!(c, CommClasses::from_pairs(n, pairs.iter().copied()));
        }
    }
}
