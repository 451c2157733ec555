//! Tree routing in the fixed-port model — **Lemma 3** of Roditty & Tov
//! (PODC 2015), following Thorup–Zwick (SPAA'01) and Fraigniaud–Gavoille.
//!
//! Lemma 3 (as used by the paper): *for every tree `T` there is a labeled
//! routing scheme that, given the label of a destination, routes on `T`
//! along the unique tree path, where every vertex stores `O(1)` words of
//! routing information and labels are `O(log² n / log log n)` bits.*
//!
//! Concretely: given a rooted tree `T` that is a subgraph of the host
//! graph, the scheme assigns every tree vertex a constant number of
//! `O(log n)`-bit words of *local* routing information ([`TreeNodeInfo`])
//! and an `O(log² n / log log n)`-bit *label* ([`TreeLabel`]), such that a
//! message can be routed from any tree vertex to any other along the unique
//! tree path using only the local information of the current vertex and the
//! destination's label.
//!
//! Lemma 3 is the workhorse the whole paper leans on: the Lemma 7/8
//! techniques in `routing-core` finish every route by switching into a
//! shortest-path-tree or cluster-tree segment routed with exactly this
//! scheme, and the Thorup–Zwick baseline in `routing-baselines` routes
//! inside every cluster `C(w)` the same way. Both embed copies of
//! [`TreeNodeInfo`]/[`TreeLabel`] into their own tables and labels and call
//! [`tree_route_step`] directly, which is why the per-vertex structures are
//! public.
//!
//! The construction is the classic heavy-path one:
//!
//! * a DFS assigns every vertex an interval `[tin, tout)` covering its
//!   subtree;
//! * each internal vertex remembers the port and interval of its **heavy**
//!   child (the child with the largest subtree) plus the port to its parent;
//! * the label of `v` lists, for every **light** edge `(p, x)` on the path
//!   from the root to `v`, the pair `(tin(p), port at p towards x)`. Because
//!   subtree sizes at least halve across light edges there are `O(log n)`
//!   such entries.
//!
//! Routing at `u` towards `v`: deliver if `tin(v) = tin(u)`; go to the parent
//! if `v` is outside `u`'s interval; go to the heavy child if `v` is inside
//! its interval; otherwise the label contains the light port to take at `u`.
//!
//! The per-vertex structures ([`TreeNodeInfo`], [`TreeLabel`]) are exposed so
//! that the compact routing schemes of the paper can embed copies of them in
//! their own routing tables and labels; [`TreeScheme`] additionally
//! implements [`RoutingScheme`] so the tree router can be tested standalone.
//!
//! # Storage
//!
//! A [`TreeScheme`] keeps its vertices in one id-sorted array, with the
//! [`TreeNodeInfo`] and [`TreeLabel`] of each vertex in two arrays parallel
//! to it. Every accessor first finds the vertex's *slot*, its position in
//! those arrays: on a spanning tree (the vertices are exactly `0..n`) the
//! slot of `v` is `v.index()`, on a partial tree such as a cluster tree it
//! is a binary search over the ids. A routing decision therefore costs one
//! array read or one binary search, with no hashing, and an id outside the
//! tree (or the graph) is answered with `None`.
//!
//! The build works on slots as well. It sorts the `(child, parent)` pairs,
//! lays out the children of each vertex as a CSR in ascending id order,
//! computes `tin`/`tout` and subtree sizes with one iterative DFS, and fills
//! the labels in DFS preorder: a label is its parent's light-edge list,
//! extended by one entry when the edge into it is light.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

use routing_graph::shortest_path::{RestrictedTree, ShortestPathTree};
use routing_graph::{Graph, Port, SearchScratch, VertexId};
use routing_model::{Decision, HeaderSize, RouteError, RoutingScheme};

/// Errors produced while building a tree router.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TreeBuildError {
    /// A parent edge is not present in the host graph.
    MissingEdge {
        /// The child endpoint.
        child: VertexId,
        /// The declared parent endpoint.
        parent: VertexId,
    },
    /// The parent relation does not form a single tree rooted at `root`
    /// (a cycle, a second component, or a vertex not reaching the root).
    NotATree {
        /// Description of the violation.
        what: String,
    },
}

impl fmt::Display for TreeBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeBuildError::MissingEdge { child, parent } => {
                write!(f, "tree edge ({child}, {parent}) is not an edge of the host graph")
            }
            TreeBuildError::NotATree { what } => write!(f, "parent relation is not a tree: {what}"),
        }
    }
}

impl Error for TreeBuildError {}

/// The constant-size local routing information a tree vertex stores.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreeNodeInfo {
    /// DFS entry time of this vertex.
    pub tin: u32,
    /// DFS exit time: the subtree of this vertex is `[tin, tout)`.
    pub tout: u32,
    /// Port towards the parent (`None` at the root).
    pub parent_port: Option<Port>,
    /// `(tin, tout, port)` of the heavy child, if any.
    pub heavy: Option<(u32, u32, Port)>,
}

impl TreeNodeInfo {
    /// Size in `O(log n)`-bit words.
    pub fn words(&self) -> usize {
        2 + usize::from(self.parent_port.is_some()) + if self.heavy.is_some() { 3 } else { 0 }
    }

    /// True if `tin` falls inside this vertex's subtree interval.
    #[inline]
    pub fn subtree_contains(&self, tin: u32) -> bool {
        self.tin <= tin && tin < self.tout
    }
}

/// The label of a destination vertex in the tree.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreeLabel {
    /// DFS entry time of the destination.
    pub tin: u32,
    /// For every light edge `(p, x)` on the root-to-destination path, the
    /// pair `(tin(p), port at p towards x)`, ordered from the root down.
    pub light_ports: Vec<(u32, Port)>,
}

impl TreeLabel {
    /// Size in `O(log n)`-bit words.
    pub fn words(&self) -> usize {
        1 + 2 * self.light_ports.len()
    }
}

/// Makes one local routing decision on a tree, given only the current
/// vertex's [`TreeNodeInfo`] and the destination's [`TreeLabel`].
///
/// This free function is what the compact routing schemes call with node
/// information they copied into their own tables.
///
/// # Errors
///
/// Returns an error if the inputs are inconsistent (the destination appears
/// to be below the current vertex via a light edge that the label does not
/// describe) — this indicates corrupted preprocessing, not a routable
/// situation.
pub fn tree_route_step(node: &TreeNodeInfo, dest: &TreeLabel) -> Result<Decision, RouteError> {
    if dest.tin == node.tin {
        return Ok(Decision::Deliver);
    }
    if !node.subtree_contains(dest.tin) {
        let port = node.parent_port.ok_or_else(|| RouteError::MissingInformation {
            at: VertexId(u32::MAX),
            what: "destination outside the tree rooted here (no parent port)".into(),
        })?;
        return Ok(Decision::Forward(port));
    }
    if let Some((h_tin, h_tout, h_port)) = node.heavy {
        if h_tin <= dest.tin && dest.tin < h_tout {
            return Ok(Decision::Forward(h_port));
        }
    }
    // The destination is in a light subtree below this vertex; the label
    // records which port to take here.
    dest.light_ports
        .iter()
        .find(|&&(p_tin, _)| p_tin == node.tin)
        .map(|&(_, port)| Decision::Forward(port))
        .ok_or_else(|| RouteError::MissingInformation {
            at: VertexId(u32::MAX),
            what: "destination label lacks the light port for this vertex".into(),
        })
}

/// Marks "no slot" in the build's per-slot arrays (unvisited `tin`, no
/// parent, no heavy child).
const NO_SLOT: u32 = u32::MAX;

/// A complete tree routing scheme for one rooted tree.
///
/// The tree vertices are kept in one id-sorted array with the per-vertex
/// [`TreeNodeInfo`] and [`TreeLabel`] parallel to it; see the module docs.
#[derive(Debug, Clone)]
pub struct TreeScheme {
    name: String,
    root: VertexId,
    n_graph: usize,
    /// True when `ids` is exactly `0..n_graph` (a spanning tree), so the
    /// slot of `v` is `v.index()`.
    dense: bool,
    /// The tree vertices in ascending id order.
    ids: Vec<VertexId>,
    /// `nodes[i]` is the routing information of `ids[i]`.
    nodes: Vec<TreeNodeInfo>,
    /// `labels[i]` is the tree label of `ids[i]`.
    labels: Vec<TreeLabel>,
}

impl TreeScheme {
    /// Builds the tree router from an explicit parent relation.
    ///
    /// `parents` yields `(child, parent)` for every non-root tree vertex, in
    /// any order (a `&HashMap<VertexId, VertexId>` or `&BTreeMap` works);
    /// the root must not appear as a child. Every parent edge must exist in
    /// `g` (ports are taken from `g`).
    ///
    /// # Errors
    ///
    /// Returns an error if a parent edge is missing from the graph or the
    /// relation is not a tree rooted at `root`.
    pub fn from_parents<'a>(
        g: &Graph,
        root: VertexId,
        parents: impl IntoIterator<Item = (&'a VertexId, &'a VertexId)>,
    ) -> Result<Self, TreeBuildError> {
        Self::from_pairs(g, root, parents.into_iter().map(|(&c, &p)| (c, p)).collect())
    }

    /// The shared constructor: `pairs` holds `(child, parent)` for every
    /// non-root tree vertex, in any order.
    ///
    /// The build runs on slots (positions in the id-sorted vertex array):
    /// a CSR of children in ascending id order, an iterative DFS for
    /// `tin`/`tout`/subtree sizes, and labels filled in DFS preorder, each
    /// extending its parent's light-edge list by at most one entry.
    fn from_pairs(
        g: &Graph,
        root: VertexId,
        mut pairs: Vec<(VertexId, VertexId)>,
    ) -> Result<Self, TreeBuildError> {
        pairs.sort_unstable();
        if pairs.binary_search_by_key(&root, |&(c, _)| c).is_ok() {
            return Err(TreeBuildError::NotATree { what: format!("root {root} has a parent") });
        }
        if let Some(w) = pairs.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(TreeBuildError::NotATree {
                what: format!("vertex {} has two parents", w[0].0),
            });
        }
        let n = g.n();
        let port = |from: VertexId, to: VertexId| {
            if from.index() < n { g.port_to(from, to) } else { None }
        };
        // (port at the parent towards the child, port at the child towards
        // the parent), aligned with `pairs`.
        let mut ports = Vec::with_capacity(pairs.len());
        for &(c, p) in &pairs {
            match (port(p, c), port(c, p)) {
                (Some(down), Some(up)) => ports.push((down, up)),
                _ => return Err(TreeBuildError::MissingEdge { child: c, parent: p }),
            }
        }

        // The vertex set: the (sorted) children plus the root. Any parent
        // outside it is a vertex the relation reaches but does not declare.
        let tree_size = pairs.len() + 1;
        let mut ids: Vec<VertexId> = Vec::with_capacity(tree_size);
        let at = pairs.partition_point(|&(c, _)| c < root);
        ids.extend(pairs[..at].iter().map(|&(c, _)| c));
        ids.push(root);
        ids.extend(pairs[at..].iter().map(|&(c, _)| c));
        let dense = ids.len() == n && ids.last().is_some_and(|v| v.index() < n);
        let slot_of = |v: VertexId| -> Option<usize> {
            if dense {
                (v.index() < n).then_some(v.index())
            } else {
                ids.binary_search(&v).ok()
            }
        };
        let root_slot = at;

        // Per slot: parent slot, port at the parent towards it, port towards
        // the parent; and the children CSR (ascending id within a list,
        // because `pairs` is sorted by child).
        let mut parent = vec![NO_SLOT; tree_size];
        let mut down_port = vec![Port(u32::MAX); tree_size];
        let mut up_port: Vec<Option<Port>> = vec![None; tree_size];
        let mut kid_start = vec![0u32; tree_size + 1];
        for (i, &(_, p)) in pairs.iter().enumerate() {
            let Some(ps) = slot_of(p) else {
                let mut all: Vec<VertexId> =
                    pairs.iter().flat_map(|&(c, p)| [c, p]).chain([root]).collect();
                all.sort_unstable();
                all.dedup();
                return Err(TreeBuildError::NotATree {
                    what: format!("{} vertices reachable but {} declared", all.len(), tree_size),
                });
            };
            let cs = if i < at { i } else { i + 1 };
            parent[cs] = ps as u32;
            down_port[cs] = ports[i].0;
            up_port[cs] = Some(ports[i].1);
            kid_start[ps + 1] += 1;
        }
        for s in 0..tree_size {
            kid_start[s + 1] += kid_start[s];
        }
        let mut kids = vec![0u32; pairs.len()];
        let mut fill = kid_start.clone();
        for (cs, &ps) in parent.iter().enumerate() {
            if ps != NO_SLOT {
                kids[fill[ps as usize] as usize] = cs as u32;
                fill[ps as usize] += 1;
            }
        }
        let kids_of = |s: usize| &kids[kid_start[s] as usize..kid_start[s + 1] as usize];

        // Iterative DFS: tin/tout, subtree sizes and the preorder.
        let mut tin = vec![NO_SLOT; tree_size];
        let mut tout = vec![0u32; tree_size];
        let mut size = vec![1u32; tree_size];
        let mut preorder: Vec<usize> = Vec::with_capacity(tree_size);
        let mut clock = 0u32;
        let mut stack: Vec<(usize, usize)> = vec![(root_slot, 0)];
        tin[root_slot] = clock;
        clock += 1;
        preorder.push(root_slot);
        while let Some(&(s, next)) = stack.last() {
            let top = stack.len() - 1;
            if let Some(&c) = kids_of(s).get(next) {
                stack[top].1 += 1;
                let c = c as usize;
                if tin[c] != NO_SLOT {
                    return Err(TreeBuildError::NotATree {
                        what: format!("vertex {} visited twice (cycle)", ids[c]),
                    });
                }
                tin[c] = clock;
                clock += 1;
                preorder.push(c);
                stack.push((c, 0));
            } else {
                tout[s] = clock;
                stack.pop();
                if let Some(&(p, _)) = stack.last() {
                    size[p] += size[s];
                }
            }
        }
        if preorder.len() != tree_size {
            return Err(TreeBuildError::NotATree {
                what: "some declared vertices are not reachable from the root".into(),
            });
        }

        // Heavy child: the largest subtree, ties to the smallest id (the
        // first in the ascending children list).
        let heavy: Vec<u32> = (0..tree_size)
            .map(|s| {
                let mut best = NO_SLOT;
                for &c in kids_of(s) {
                    if best == NO_SLOT || size[c as usize] > size[best as usize] {
                        best = c;
                    }
                }
                best
            })
            .collect();
        let nodes: Vec<TreeNodeInfo> = (0..tree_size)
            .map(|s| TreeNodeInfo {
                tin: tin[s],
                tout: tout[s],
                parent_port: up_port[s],
                heavy: (heavy[s] != NO_SLOT).then(|| {
                    let h = heavy[s] as usize;
                    (tin[h], tout[h], down_port[h])
                }),
            })
            .collect();

        // Light-edge lists in preorder: a vertex's list is its parent's,
        // plus the edge into it when it is not the heavy child.
        let mut light: Vec<Vec<(u32, Port)>> = vec![Vec::new(); tree_size];
        for &s in &preorder[1..] {
            let p = parent[s] as usize;
            let is_light = heavy[p] as usize != s;
            let mut list = Vec::with_capacity(light[p].len() + usize::from(is_light));
            list.extend_from_slice(&light[p]);
            if is_light {
                list.push((tin[p], down_port[s]));
            }
            light[s] = list;
        }
        let labels: Vec<TreeLabel> = light
            .into_iter()
            .zip(&tin)
            .map(|(light_ports, &tin)| TreeLabel { tin, light_ports })
            .collect();

        Ok(TreeScheme {
            name: format!("tree-routing(root={root})"),
            root,
            n_graph: n,
            dense,
            ids,
            nodes,
            labels,
        })
    }

    /// Builds the router from a single-source shortest-path tree, spanning
    /// every vertex reachable from its source.
    ///
    /// # Errors
    ///
    /// Propagates [`TreeBuildError`] (cannot occur for a well-formed SPT of
    /// `g`).
    pub fn from_spt(g: &Graph, spt: &ShortestPathTree) -> Result<Self, TreeBuildError> {
        let pairs = spt.reachable().filter_map(|(v, _)| spt.parent(v).map(|p| (v, p))).collect();
        Self::from_pairs(g, spt.source(), pairs)
    }

    /// Builds the router for a cluster tree produced by
    /// [`routing_graph::shortest_path::cluster_dijkstra`].
    ///
    /// # Errors
    ///
    /// Propagates [`TreeBuildError`] (cannot occur for a well-formed cluster
    /// tree of `g`).
    pub fn from_restricted(g: &Graph, tree: &RestrictedTree) -> Result<Self, TreeBuildError> {
        let pairs = tree
            .members()
            .iter()
            .filter_map(|&(v, _)| tree.parent(v).flatten().map(|p| (v, p)))
            .collect();
        Self::from_pairs(g, tree.root(), pairs)
    }

    /// Builds the router straight from the last search run on a
    /// [`SearchScratch`] — a full Dijkstra (`dijkstra_into`) or a restricted
    /// cluster search (`cluster_into`) — without materializing an owned
    /// [`ShortestPathTree`]/[`RestrictedTree`] first. The settled vertices
    /// become the tree; the result is identical to going through
    /// [`TreeScheme::from_spt`]/[`TreeScheme::from_restricted`].
    ///
    /// The tree covers exactly the vertices the search settled. A
    /// target-bounded search (`dijkstra_targets_into`) therefore yields a
    /// tree over its settled prefix only — callers that need a spanning
    /// tree (e.g. Technique 1's global hitting-set trees) must run the full
    /// search.
    ///
    /// # Errors
    ///
    /// Propagates [`TreeBuildError`] (cannot occur for a well-formed search
    /// on `g`).
    pub fn from_scratch(g: &Graph, scratch: &SearchScratch) -> Result<Self, TreeBuildError> {
        let pairs = scratch
            .order()
            .iter()
            .filter_map(|&(v, _)| scratch.parent(v).map(|p| (v, p)))
            .collect();
        Self::from_pairs(g, scratch.source(), pairs)
    }

    /// The position of tree vertex `v` in the id-sorted arrays: `v.index()`
    /// on a spanning tree, a binary search otherwise.
    #[inline]
    fn slot(&self, v: VertexId) -> Option<usize> {
        if self.dense {
            (v.index() < self.ids.len()).then_some(v.index())
        } else {
            self.ids.binary_search(&v).ok()
        }
    }

    /// The root of the tree.
    pub fn root(&self) -> VertexId {
        self.root
    }

    /// Number of vertices in the tree.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if the tree contains only its root.
    pub fn is_empty(&self) -> bool {
        self.ids.len() <= 1
    }

    /// Returns true if `v` is a tree vertex.
    pub fn contains(&self, v: VertexId) -> bool {
        self.slot(v).is_some()
    }

    /// Iterator over the tree's vertices in ascending id order.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.ids.iter().copied()
    }

    /// The local routing information of tree vertex `v`.
    #[inline]
    pub fn node_info(&self, v: VertexId) -> Option<&TreeNodeInfo> {
        self.slot(v).and_then(|i| self.nodes.get(i))
    }

    /// The tree label of tree vertex `v`.
    #[inline]
    pub fn label(&self, v: VertexId) -> Option<&TreeLabel> {
        self.slot(v).and_then(|i| self.labels.get(i))
    }

    /// The summed size of every vertex's label, in `O(log n)`-bit words:
    /// what a root stores when it keeps the label of each tree vertex.
    pub fn total_label_words(&self) -> usize {
        self.labels.iter().map(TreeLabel::words).sum()
    }
}

/// Header used when routing purely on a tree (nothing needs to be carried).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeHeader;

impl HeaderSize for TreeHeader {
    fn words(&self) -> usize {
        0
    }
}

impl RoutingScheme for TreeScheme {
    type Label = TreeLabel;
    type Header = TreeHeader;

    fn name(&self) -> &str {
        &self.name
    }

    fn n(&self) -> usize {
        self.n_graph
    }

    fn label_of(&self, v: VertexId) -> TreeLabel {
        self.label(v).cloned().unwrap_or(TreeLabel { tin: u32::MAX, light_ports: Vec::new() })
    }

    fn init_header(&self, source: VertexId, dest: &TreeLabel) -> Result<TreeHeader, RouteError> {
        if dest.tin == u32::MAX {
            return Err(RouteError::BadLabel { what: "destination is not in the tree".into() });
        }
        if !self.contains(source) {
            return Err(RouteError::MissingInformation {
                at: source,
                what: "source is not in the tree".into(),
            });
        }
        Ok(TreeHeader)
    }

    fn decide(
        &self,
        at: VertexId,
        _header: &mut TreeHeader,
        dest: &TreeLabel,
    ) -> Result<Decision, RouteError> {
        let node = self.node_info(at).ok_or_else(|| RouteError::MissingInformation {
            at,
            what: "vertex is not in the tree".into(),
        })?;
        tree_route_step(node, dest).map_err(|e| match e {
            RouteError::MissingInformation { what, .. } => RouteError::MissingInformation { at, what },
            other => other,
        })
    }

    fn table_words(&self, v: VertexId) -> usize {
        self.node_info(v).map(TreeNodeInfo::words).unwrap_or(0)
    }

    fn label_words(&self, v: VertexId) -> usize {
        self.label(v).map(TreeLabel::words).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    use routing_graph::generators;
    use routing_graph::shortest_path::{cluster_dijkstra, dijkstra, multi_source_dijkstra};
    use routing_model::simulate;

    fn spt_scheme(g: &Graph, root: VertexId) -> TreeScheme {
        TreeScheme::from_spt(g, &dijkstra(g, root)).expect("valid spt")
    }

    #[test]
    fn routes_on_path_graph() {
        let g = generators::path(10);
        let t = spt_scheme(&g, VertexId(0));
        for u in g.vertices() {
            for v in g.vertices() {
                let out = simulate(&g, &t, u, v).unwrap();
                assert_eq!(out.destination(), v);
                assert_eq!(out.hops, (u.0 as i64 - v.0 as i64).unsigned_abs() as usize);
            }
        }
    }

    #[test]
    fn routes_on_star_center_and_leaves() {
        let g = generators::star(8);
        let t = spt_scheme(&g, VertexId(0));
        let out = simulate(&g, &t, VertexId(3), VertexId(5)).unwrap();
        assert_eq!(out.path, vec![VertexId(3), VertexId(0), VertexId(5)]);
    }

    #[test]
    fn routes_follow_tree_paths_on_random_graphs() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::erdos_renyi(
            80,
            0.06,
            generators::WeightModel::Uniform { lo: 1, hi: 8 },
            &mut rng,
        );
        let root = VertexId(0);
        let spt = dijkstra(&g, root);
        let t = TreeScheme::from_spt(&g, &spt).unwrap();
        // Routing to the root must follow the shortest path in the graph
        // (tree paths to the root are graph shortest paths).
        for v in g.vertices() {
            let out = simulate(&g, &t, v, root).unwrap();
            assert_eq!(Some(out.weight), spt.dist(v), "weight from {v} to root");
        }
        // Tree-path weight between arbitrary vertices is bounded by the sum
        // of their distances to the root.
        for (u, v) in [(VertexId(3), VertexId(61)), (VertexId(17), VertexId(42))] {
            let out = simulate(&g, &t, u, v).unwrap();
            assert!(out.weight <= spt.dist(u).unwrap() + spt.dist(v).unwrap());
        }
    }

    #[test]
    fn label_sizes_are_logarithmic() {
        let g = generators::binary_tree(1023);
        let t = spt_scheme(&g, VertexId(0));
        let max_label = g.vertices().map(|v| t.label_words(v)).max().unwrap();
        // Light edges at least halve subtree sizes, so at most log2(n)
        // entries of 2 words each, plus the tin word.
        assert!(max_label <= 1 + 2 * 10, "label too large: {max_label}");
        let max_table = g.vertices().map(|v| t.table_words(v)).max().unwrap();
        assert!(max_table <= 6);
    }

    #[test]
    fn caterpillar_high_degree_nodes() {
        let g = generators::caterpillar(10, 8);
        let t = spt_scheme(&g, VertexId(0));
        for v in g.vertices() {
            let out = simulate(&g, &t, VertexId(55), v).unwrap();
            assert_eq!(out.destination(), v);
        }
    }

    #[test]
    fn cluster_tree_routing() {
        let g = generators::grid(6, 6);
        let sources = [VertexId(35)];
        let ms = multi_source_dijkstra(&g, &sources);
        let bound: Vec<_> = g.vertices().map(|v| ms.dist(v).unwrap()).collect();
        let cluster = cluster_dijkstra(&g, VertexId(0), &bound);
        let t = TreeScheme::from_restricted(&g, &cluster).unwrap();
        assert!(t.len() > 1);
        for &(v, d) in cluster.members() {
            let out = simulate(&g, &t, VertexId(0), v).unwrap();
            assert_eq!(out.weight, d, "cluster tree routes on shortest paths from the root");
        }
    }

    #[test]
    fn from_scratch_matches_the_materializing_constructors() {
        let g = generators::grid(6, 6);
        let mut scratch = SearchScratch::for_graph(&g);

        scratch.dijkstra_into(&g, VertexId(7));
        let a = TreeScheme::from_scratch(&g, &scratch).unwrap();
        let b = TreeScheme::from_spt(&g, &dijkstra(&g, VertexId(7))).unwrap();
        for v in g.vertices() {
            assert_eq!(a.node_info(v), b.node_info(v));
            assert_eq!(a.label(v), b.label(v));
        }

        let ms = multi_source_dijkstra(&g, &[VertexId(35)]);
        let bound: Vec<_> = g.vertices().map(|v| ms.dist(v).unwrap()).collect();
        scratch.cluster_into(&g, VertexId(0), &bound);
        let a = TreeScheme::from_scratch(&g, &scratch).unwrap();
        let b =
            TreeScheme::from_restricted(&g, &cluster_dijkstra(&g, VertexId(0), &bound)).unwrap();
        assert_eq!(a.len(), b.len());
        for v in g.vertices() {
            assert_eq!(a.node_info(v), b.node_info(v));
            assert_eq!(a.label(v), b.label(v));
        }
    }

    #[test]
    fn non_members_are_rejected() {
        let g = generators::path(6);
        // Tree containing only vertices 0..=2.
        let mut parents = HashMap::new();
        parents.insert(VertexId(1), VertexId(0));
        parents.insert(VertexId(2), VertexId(1));
        let t = TreeScheme::from_parents(&g, VertexId(0), &parents).unwrap();
        assert!(t.contains(VertexId(2)));
        assert!(!t.contains(VertexId(5)));
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        let err = simulate(&g, &t, VertexId(0), VertexId(5)).unwrap_err();
        assert!(matches!(err, RouteError::BadLabel { .. }));
        let err = simulate(&g, &t, VertexId(5), VertexId(0)).unwrap_err();
        assert!(matches!(err, RouteError::MissingInformation { .. }));
    }

    #[test]
    fn build_rejects_missing_edges_and_cycles() {
        let g = generators::path(4);
        let mut parents = HashMap::new();
        parents.insert(VertexId(3), VertexId(0)); // not an edge
        let err = TreeScheme::from_parents(&g, VertexId(0), &parents).unwrap_err();
        assert_eq!(err, TreeBuildError::MissingEdge { child: VertexId(3), parent: VertexId(0) });

        let mut parents = HashMap::new();
        parents.insert(VertexId(0), VertexId(1)); // root has a parent
        let err = TreeScheme::from_parents(&g, VertexId(0), &parents).unwrap_err();
        assert!(matches!(err, TreeBuildError::NotATree { .. }));
        assert!(err.to_string().contains("not a tree"));

        // Disconnected declaration: vertex 3's parent chain never reaches root 0.
        let mut parents = HashMap::new();
        parents.insert(VertexId(1), VertexId(0));
        parents.insert(VertexId(3), VertexId(2));
        let err = TreeScheme::from_parents(&g, VertexId(0), &parents).unwrap_err();
        assert!(matches!(err, TreeBuildError::NotATree { .. }));

        // A parent id past the end of the graph is a missing edge.
        let mut parents = HashMap::new();
        parents.insert(VertexId(1), VertexId(99));
        let err = TreeScheme::from_parents(&g, VertexId(0), &parents).unwrap_err();
        assert_eq!(err, TreeBuildError::MissingEdge { child: VertexId(1), parent: VertexId(99) });

        // A pair list (unlike a map) can give a vertex two parents.
        let pairs =
            [(VertexId(1), VertexId(0)), (VertexId(2), VertexId(1)), (VertexId(1), VertexId(2))];
        let err = TreeScheme::from_parents(&g, VertexId(0), pairs.iter().map(|(c, p)| (c, p)))
            .unwrap_err();
        assert!(err.to_string().contains("two parents"), "{err}");
    }

    #[test]
    fn node_info_and_label_accessors() {
        let g = generators::path(4);
        let t = spt_scheme(&g, VertexId(0));
        let info = t.node_info(VertexId(1)).unwrap();
        assert!(info.words() >= 3);
        assert!(info.subtree_contains(t.label(VertexId(3)).unwrap().tin));
        assert_eq!(t.root(), VertexId(0));
        assert_eq!(t.vertices().count(), 4);
        assert!(t.label(VertexId(2)).unwrap().words() >= 1);
        assert_eq!(t.name(), "tree-routing(root=v0)");
        assert_eq!(RoutingScheme::n(&t), 4);
    }

    /// The per-vertex tables computed the plain way, straight from the
    /// definitions: recursive DFS over id-sorted children, heavy child =
    /// largest subtree (ties to the smaller id), labels by walking up to
    /// the root.
    fn reference_tables(
        g: &Graph,
        root: VertexId,
        parents: &HashMap<VertexId, VertexId>,
    ) -> HashMap<VertexId, (TreeNodeInfo, TreeLabel)> {
        fn dfs(
            v: VertexId,
            kids: &HashMap<VertexId, Vec<VertexId>>,
            clock: &mut u32,
            span: &mut HashMap<VertexId, (u32, u32)>,
        ) {
            let tin = *clock;
            *clock += 1;
            for &c in kids.get(&v).into_iter().flatten() {
                dfs(c, kids, clock, span);
            }
            span.insert(v, (tin, *clock));
        }
        let mut kids: HashMap<VertexId, Vec<VertexId>> = HashMap::new();
        for (&c, &p) in parents {
            kids.entry(p).or_default().push(c);
        }
        for list in kids.values_mut() {
            list.sort_unstable();
        }
        let mut span = HashMap::new();
        dfs(root, &kids, &mut 0, &mut span);
        let size = |v: &VertexId| span[v].1 - span[v].0;
        let heavy_of = |v: VertexId| {
            let mut best: Option<VertexId> = None;
            for c in kids.get(&v).into_iter().flatten() {
                if best.map_or(true, |b| size(c) > size(&b)) {
                    best = Some(*c);
                }
            }
            best
        };
        span.keys()
            .map(|&v| {
                let info = TreeNodeInfo {
                    tin: span[&v].0,
                    tout: span[&v].1,
                    parent_port: parents.get(&v).map(|&p| g.port_to(v, p).unwrap()),
                    heavy: heavy_of(v).map(|h| (span[&h].0, span[&h].1, g.port_to(v, h).unwrap())),
                };
                let mut light_ports = Vec::new();
                let mut cur = v;
                while let Some(&p) = parents.get(&cur) {
                    if heavy_of(p) != Some(cur) {
                        light_ports.push((span[&p].0, g.port_to(p, cur).unwrap()));
                    }
                    cur = p;
                }
                light_ports.reverse();
                (v, (info, TreeLabel { tin: span[&v].0, light_ports }))
            })
            .collect()
    }

    /// Checks every accessor of `t` against [`reference_tables`] on every
    /// graph vertex, plus ids past the end of the graph.
    fn assert_matches_reference(g: &Graph, t: &TreeScheme, parents: &HashMap<VertexId, VertexId>) {
        let reference = reference_tables(g, t.root(), parents);
        assert_eq!(t.len(), reference.len());
        for v in (0..g.n() as u32 + 3).map(VertexId) {
            let want = reference.get(&v);
            assert_eq!(t.node_info(v), want.map(|(info, _)| info), "node_info({v})");
            assert_eq!(t.label(v), want.map(|(_, label)| label), "label({v})");
            assert_eq!(t.contains(v), want.is_some(), "contains({v})");
            assert_eq!(t.table_words(v), want.map_or(0, |(info, _)| info.words()));
            assert_eq!(t.label_words(v), want.map_or(0, |(_, label)| label.words()));
        }
        let total: usize = reference.values().map(|(_, label)| label.words()).sum();
        assert_eq!(t.total_label_words(), total);
    }

    #[test]
    fn spanning_and_partial_trees_match_the_reference_tables() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(17);
        let g = generators::erdos_renyi(
            90,
            0.07,
            generators::WeightModel::Uniform { lo: 1, hi: 6 },
            &mut rng,
        );
        assert!(g.is_connected());

        // Spanning: every vertex is in the tree, so slots are dense.
        let spt = dijkstra(&g, VertexId(4));
        let parents: HashMap<_, _> =
            g.vertices().filter_map(|v| spt.parent(v).map(|p| (v, p))).collect();
        let t = TreeScheme::from_spt(&g, &spt).unwrap();
        assert_eq!(t.len(), g.n());
        assert_matches_reference(&g, &t, &parents);
        assert_matches_reference(
            &g,
            &TreeScheme::from_parents(&g, VertexId(4), &parents).unwrap(),
            &parents,
        );

        // Partial: a cluster tree, so slots come from the binary search.
        let ms = multi_source_dijkstra(&g, &[VertexId(0), VertexId(50)]);
        let bound: Vec<_> = g.vertices().map(|v| ms.dist(v).unwrap()).collect();
        let cluster = cluster_dijkstra(&g, VertexId(31), &bound);
        let parents: HashMap<_, _> = cluster.tree_edges().collect();
        let t = TreeScheme::from_restricted(&g, &cluster).unwrap();
        assert!(t.len() > 1 && t.len() < g.n(), "want a proper cluster, got {} vertices", t.len());
        assert_matches_reference(&g, &t, &parents);
    }

    #[test]
    fn out_of_range_and_absent_vertices_are_answered_without_panicking() {
        let g = generators::grid(4, 4);
        let spanning = spt_scheme(&g, VertexId(5));
        let mut parents = HashMap::new();
        parents.insert(VertexId(1), VertexId(0));
        parents.insert(VertexId(4), VertexId(0));
        let partial = TreeScheme::from_parents(&g, VertexId(0), &parents).unwrap();
        for t in [&spanning, &partial] {
            for v in [VertexId(16), VertexId(1000), VertexId(u32::MAX)] {
                assert!(!t.contains(v));
                assert_eq!(t.node_info(v), None);
                assert_eq!(t.label(v), None);
                assert_eq!(t.table_words(v), 0);
                assert_eq!(t.label_words(v), 0);
                assert_eq!(t.label_of(v).tin, u32::MAX);
                assert!(t.decide(v, &mut TreeHeader, &t.label_of(VertexId(1))).is_err());
                assert!(t.init_header(v, &t.label_of(VertexId(1))).is_err());
            }
        }
        assert!(!partial.contains(VertexId(2)));
        assert_eq!(partial.node_info(VertexId(2)), None);
    }

    #[test]
    fn vertices_are_yielded_in_ascending_id_order() {
        let g = generators::grid(6, 6);
        let ms = multi_source_dijkstra(&g, &[VertexId(35)]);
        let bound: Vec<_> = g.vertices().map(|v| ms.dist(v).unwrap()).collect();
        let partial = TreeScheme::from_restricted(&g, &cluster_dijkstra(&g, VertexId(9), &bound))
            .unwrap();
        for t in [spt_scheme(&g, VertexId(20)), partial] {
            let ids: Vec<VertexId> = t.vertices().collect();
            assert_eq!(ids.len(), t.len());
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "not ascending: {ids:?}");
            assert!(ids.contains(&t.root()));
        }
    }

    #[test]
    fn free_function_step_matches_scheme_decide() {
        let g = generators::binary_tree(15);
        let t = spt_scheme(&g, VertexId(0));
        let dest = t.label_of(VertexId(13));
        for v in g.vertices() {
            let node = t.node_info(v).unwrap();
            let a = tree_route_step(node, &dest).unwrap();
            let b = t.decide(v, &mut TreeHeader, &dest).unwrap();
            assert_eq!(a, b);
        }
    }
}
