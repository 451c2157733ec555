//! Deriving a mutated CSR graph from a base graph plus a batch of churn
//! events.
//!
//! The routing schemes in this workspace are built for *static* graphs; the
//! churn workloads (crate `routing-churn`) need to ask "what happens to a
//! scheme whose tables were built on `G` when the network has meanwhile
//! drifted to `G'`?". This module produces that `G'`:
//!
//! * vertex removals keep the id space intact — a removed vertex stays as an
//!   isolated, **dead** vertex, so the ids appearing in old routing tables
//!   remain meaningful;
//! * vertex additions append fresh ids at the end of the id space;
//! * because adjacency lists are sorted by neighbour id (see [`Graph`]),
//!   both choices preserve the port numbers of surviving edges wherever
//!   possible: an edge's port at `u` only shifts when a *smaller-id*
//!   neighbour of `u` was removed. [`MutationStats`] quantifies exactly how
//!   many ports survived, which is the mechanism behind the reachability
//!   collapse the stale-table experiments measure.
//!
//! [`largest_component`] / [`induced_subgraph`] support the rebuild
//! policies: after heavy churn the alive part of the graph may be
//! disconnected, and a rebuilt scheme (which requires a connected instance)
//! is constructed on the largest alive component.

use std::fmt;

use crate::{Graph, GraphBuilder, VertexId, Weight, MAX_WEIGHT};

/// One atomic change to the graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChurnEvent {
    /// Removes a vertex and every edge incident to it. The id remains in
    /// the id space as a dead, isolated vertex.
    RemoveVertex(VertexId),
    /// Adds a fresh vertex (its id is the next unused id) attached to the
    /// given alive endpoints.
    AddVertex {
        /// Initial incident edges `(neighbour, weight)` of the new vertex.
        edges: Vec<(VertexId, Weight)>,
    },
    /// Removes one existing edge.
    RemoveEdge(VertexId, VertexId),
    /// Adds one new edge between alive vertices.
    AddEdge(VertexId, VertexId, Weight),
}

/// Why a batch of churn events could not be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutationError {
    /// An event referenced an id outside the (current) id space.
    OutOfRange {
        /// The offending vertex id.
        vertex: VertexId,
        /// Size of the id space at the time of the event.
        n: usize,
    },
    /// An event referenced a vertex that is dead at the time of the event.
    DeadVertex {
        /// The dead vertex.
        vertex: VertexId,
    },
    /// `RemoveEdge` named an edge that does not exist (or was already
    /// removed earlier in the batch).
    MissingEdge {
        /// One endpoint.
        u: VertexId,
        /// The other endpoint.
        v: VertexId,
    },
    /// `AddEdge`/`AddVertex` would duplicate an existing edge.
    DuplicateEdge {
        /// One endpoint.
        u: VertexId,
        /// The other endpoint.
        v: VertexId,
    },
    /// An added edge was a self loop or had a weight outside
    /// `1..=MAX_WEIGHT`.
    InvalidEdge {
        /// Description of the violation.
        what: String,
    },
}

impl fmt::Display for MutationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MutationError::OutOfRange { vertex, n } => {
                write!(f, "vertex {vertex} is outside the id space 0..{n}")
            }
            MutationError::DeadVertex { vertex } => {
                write!(f, "vertex {vertex} is dead at the time of the event")
            }
            MutationError::MissingEdge { u, v } => {
                write!(f, "edge ({u}, {v}) does not exist")
            }
            MutationError::DuplicateEdge { u, v } => {
                write!(f, "edge ({u}, {v}) already exists")
            }
            MutationError::InvalidEdge { what } => write!(f, "invalid edge: {what}"),
        }
    }
}

impl std::error::Error for MutationError {}

/// How much of the base graph's structure survived a mutation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MutationStats {
    /// Vertices removed by the batch.
    pub removed_vertices: usize,
    /// Vertices added by the batch.
    pub added_vertices: usize,
    /// Edges removed, **including** edges dropped because an endpoint was
    /// removed.
    pub removed_edges: usize,
    /// Edges added by the batch (including initial edges of added vertices).
    pub added_edges: usize,
    /// Directed adjacency entries `(u, port) -> v` of the base graph whose
    /// port is unchanged in the mutated graph.
    pub ports_preserved: usize,
    /// Directed adjacency entries of the base graph whose endpoints are both
    /// still alive (the denominator for port preservation).
    pub ports_comparable: usize,
}

impl MutationStats {
    /// Fraction of comparable ports that kept their number (1.0 when
    /// nothing was comparable, i.e. the base had no surviving edges).
    pub fn port_preservation(&self) -> f64 {
        if self.ports_comparable == 0 {
            1.0
        } else {
            self.ports_preserved as f64 / self.ports_comparable as f64
        }
    }
}

/// The result of applying a churn batch: the mutated graph, the liveness
/// mask over its id space, and survival statistics.
#[derive(Debug, Clone)]
pub struct Mutation {
    /// The mutated graph. Dead vertices are present but isolated.
    pub graph: Graph,
    /// `alive[v]` is false exactly for removed vertices. Indexed by the
    /// mutated graph's id space (additions extend it).
    pub alive: Vec<bool>,
    /// Survival statistics relative to the base graph of the call.
    pub stats: MutationStats,
}

/// Applies a batch of churn events to `base`, producing the mutated graph.
///
/// `base_alive` carries liveness from earlier rounds (`None` means every
/// vertex of `base` is alive). Events are applied in order and validated
/// against the evolving state, so one batch may remove a vertex and then
/// add an edge among the survivors.
///
/// # Errors
///
/// Returns the first [`MutationError`] in event order; the base graph is
/// never modified (this function is pure).
pub fn apply_events(
    base: &Graph,
    base_alive: Option<&[bool]>,
    events: &[ChurnEvent],
) -> Result<Mutation, MutationError> {
    let base_n = base.n();
    let mut alive: Vec<bool> = match base_alive {
        Some(mask) => {
            assert_eq!(mask.len(), base_n, "alive mask must cover the base id space");
            mask.to_vec()
        }
        None => vec![true; base_n],
    };
    // Working edge set as an adjacency of sorted neighbour lists, kept
    // consistent with `alive` throughout the batch.
    let mut adj: Vec<Vec<(VertexId, Weight)>> = (0..base_n)
        .map(|u| {
            if alive[u] {
                base.edges(VertexId(u as u32))
                    .filter(|e| alive[e.to.index()])
                    .map(|e| (e.to, e.weight))
                    .collect()
            } else {
                Vec::new()
            }
        })
        .collect();
    let mut stats = MutationStats::default();

    let check_alive = |alive: &[bool], v: VertexId| -> Result<(), MutationError> {
        if v.index() >= alive.len() {
            return Err(MutationError::OutOfRange { vertex: v, n: alive.len() });
        }
        if !alive[v.index()] {
            return Err(MutationError::DeadVertex { vertex: v });
        }
        Ok(())
    };

    for event in events {
        match event {
            ChurnEvent::RemoveVertex(v) => {
                check_alive(&alive, *v)?;
                alive[v.index()] = false;
                stats.removed_vertices += 1;
                let incident = std::mem::take(&mut adj[v.index()]);
                stats.removed_edges += incident.len();
                for (u, _) in incident {
                    adj[u.index()].retain(|&(w, _)| w != *v);
                }
            }
            ChurnEvent::AddVertex { edges } => {
                let id = VertexId(alive.len() as u32);
                for &(u, w) in edges {
                    check_alive(&alive, u)?;
                    if w == 0 || w > MAX_WEIGHT {
                        return Err(MutationError::InvalidEdge {
                            what: format!(
                                "edge ({id}, {u}) has weight {w} outside 1..={MAX_WEIGHT}"
                            ),
                        });
                    }
                }
                let mut endpoints: Vec<VertexId> = edges.iter().map(|&(u, _)| u).collect();
                endpoints.sort_unstable();
                endpoints.dedup();
                if endpoints.len() != edges.len() {
                    return Err(MutationError::InvalidEdge {
                        what: format!("duplicate endpoints in the initial edges of {id}"),
                    });
                }
                alive.push(true);
                adj.push(Vec::new());
                stats.added_vertices += 1;
                for &(u, w) in edges {
                    adj[u.index()].push((id, w));
                    adj[id.index()].push((u, w));
                    stats.added_edges += 1;
                }
            }
            ChurnEvent::RemoveEdge(u, v) => {
                check_alive(&alive, *u)?;
                check_alive(&alive, *v)?;
                let before = adj[u.index()].len();
                adj[u.index()].retain(|&(w, _)| w != *v);
                if adj[u.index()].len() == before {
                    return Err(MutationError::MissingEdge { u: *u, v: *v });
                }
                adj[v.index()].retain(|&(w, _)| w != *u);
                stats.removed_edges += 1;
            }
            ChurnEvent::AddEdge(u, v, w) => {
                check_alive(&alive, *u)?;
                check_alive(&alive, *v)?;
                if u == v {
                    return Err(MutationError::InvalidEdge {
                        what: format!("self loop at {u}"),
                    });
                }
                if *w == 0 || *w > MAX_WEIGHT {
                    return Err(MutationError::InvalidEdge {
                        what: format!("edge ({u}, {v}) has weight {w} outside 1..={MAX_WEIGHT}"),
                    });
                }
                if adj[u.index()].iter().any(|&(x, _)| x == *v) {
                    return Err(MutationError::DuplicateEdge { u: *u, v: *v });
                }
                adj[u.index()].push((*v, *w));
                adj[v.index()].push((*u, *w));
                stats.added_edges += 1;
            }
        }
    }

    // Materialize the CSR graph.
    let n = alive.len();
    let mut builder = GraphBuilder::new(n);
    for (u, list) in adj.iter().enumerate() {
        for &(v, w) in list {
            if u < v.index() {
                builder
                    .add_edge(u, v.index(), w)
                    .expect("mutation kept the edge set valid");
            }
        }
    }
    let graph = builder.build();

    // Port-preservation accounting against the base graph.
    for u in base.vertices() {
        if u.index() >= alive.len() || !alive[u.index()] {
            continue;
        }
        for e in base.edges(u) {
            if !alive[e.to.index()] {
                continue;
            }
            stats.ports_comparable += 1;
            if graph
                .port_to(u, e.to)
                .is_some_and(|p| p == e.port)
            {
                stats.ports_preserved += 1;
            }
        }
    }

    Ok(Mutation { graph, alive, stats })
}

/// The vertices of the largest connected component among `alive` vertices,
/// in increasing id order. Dead and isolated-but-alive vertices form their
/// own (small) components.
pub fn largest_component(g: &Graph, alive: &[bool]) -> Vec<VertexId> {
    assert_eq!(alive.len(), g.n(), "alive mask must cover the graph");
    let mut seen = vec![false; g.n()];
    let mut best: Vec<VertexId> = Vec::new();
    for start in g.vertices() {
        if seen[start.index()] || !alive[start.index()] {
            continue;
        }
        let mut component = vec![start];
        let mut stack = vec![start];
        seen[start.index()] = true;
        while let Some(u) = stack.pop() {
            for e in g.edges(u) {
                if alive[e.to.index()] && !seen[e.to.index()] {
                    seen[e.to.index()] = true;
                    component.push(e.to);
                    stack.push(e.to);
                }
            }
        }
        if component.len() > best.len() {
            best = component;
        }
    }
    best.sort_unstable();
    best
}

/// The subgraph induced by `keep` (which must be strictly increasing),
/// relabeled to the compact id space `0..keep.len()`.
///
/// Returns the compact graph together with the two id maps:
/// `to_original[new] = old` and `to_compact[old] = Some(new)`.
pub fn induced_subgraph(
    g: &Graph,
    keep: &[VertexId],
) -> (Graph, Vec<VertexId>, Vec<Option<u32>>) {
    debug_assert!(keep.windows(2).all(|w| w[0] < w[1]), "keep must be sorted and unique");
    let mut to_compact: Vec<Option<u32>> = vec![None; g.n()];
    for (new, &old) in keep.iter().enumerate() {
        to_compact[old.index()] = Some(new as u32);
    }
    let mut builder = GraphBuilder::new(keep.len());
    for (new_u, &old_u) in keep.iter().enumerate() {
        for e in g.edges(old_u) {
            if let Some(new_v) = to_compact[e.to.index()] {
                if (new_u as u32) < new_v {
                    builder
                        .add_edge(new_u, new_v as usize, e.weight)
                        .expect("induced edges are valid");
                }
            }
        }
    }
    (builder.build(), keep.to_vec(), to_compact)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn line5() -> Graph {
        generators::path(5)
    }

    #[test]
    fn empty_batch_is_identity() {
        let g = line5();
        let m = apply_events(&g, None, &[]).unwrap();
        assert_eq!(m.graph, g);
        assert!(m.alive.iter().all(|&a| a));
        assert_eq!(m.stats.port_preservation(), 1.0);
        assert_eq!(m.stats.ports_comparable, 2 * g.m());
    }

    #[test]
    fn removing_a_vertex_isolates_it() {
        let g = line5();
        let m = apply_events(&g, None, &[ChurnEvent::RemoveVertex(VertexId(2))]).unwrap();
        assert_eq!(m.graph.n(), 5);
        assert_eq!(m.graph.degree(VertexId(2)), 0);
        assert_eq!(m.graph.m(), 2);
        assert!(!m.alive[2]);
        assert_eq!(m.stats.removed_vertices, 1);
        assert_eq!(m.stats.removed_edges, 2);
        // Surviving directed entries: 0->1, 1->0, 3->4, 4->3. All keep their
        // port except 3->4, which shifts from port 1 to port 0 because 3's
        // smaller-id neighbour 2 disappeared from its adjacency list.
        assert_eq!(m.stats.ports_comparable, 4);
        assert_eq!(m.stats.ports_preserved, 3);
    }

    #[test]
    fn port_shift_is_detected() {
        // Star: removing leaf 1 shifts the center's ports towards leaves 2..;
        // the leaves' own single ports to the centre are preserved.
        let g = generators::star(4);
        let m = apply_events(&g, None, &[ChurnEvent::RemoveVertex(VertexId(1))]).unwrap();
        // Comparable: centre->2, centre->3, 2->centre, 3->centre.
        assert_eq!(m.stats.ports_comparable, 4);
        assert_eq!(m.stats.ports_preserved, 2);
        assert!((m.stats.port_preservation() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn added_vertices_get_fresh_ids() {
        let g = line5();
        let m = apply_events(
            &g,
            None,
            &[ChurnEvent::AddVertex { edges: vec![(VertexId(0), 2), (VertexId(4), 3)] }],
        )
        .unwrap();
        assert_eq!(m.graph.n(), 6);
        assert!(m.alive[5]);
        assert_eq!(m.graph.edge_weight(VertexId(5), VertexId(0)), Some(2));
        assert_eq!(m.graph.edge_weight(VertexId(5), VertexId(4)), Some(3));
        // Appending a high id never shifts existing ports.
        assert_eq!(m.stats.port_preservation(), 1.0);
    }

    #[test]
    fn edge_churn() {
        let g = line5();
        let events = [
            ChurnEvent::RemoveEdge(VertexId(1), VertexId(2)),
            ChurnEvent::AddEdge(VertexId(0), VertexId(4), 7),
        ];
        let m = apply_events(&g, None, &events).unwrap();
        assert!(!m.graph.has_edge(VertexId(1), VertexId(2)));
        assert_eq!(m.graph.edge_weight(VertexId(0), VertexId(4)), Some(7));
        assert_eq!(m.graph.m(), 4);
    }

    #[test]
    fn events_validate_against_evolving_state() {
        let g = line5();
        // Removing a vertex twice is an error.
        let err = apply_events(
            &g,
            None,
            &[
                ChurnEvent::RemoveVertex(VertexId(1)),
                ChurnEvent::RemoveVertex(VertexId(1)),
            ],
        )
        .unwrap_err();
        assert_eq!(err, MutationError::DeadVertex { vertex: VertexId(1) });
        // Edges to dead vertices are rejected.
        let err = apply_events(
            &g,
            None,
            &[
                ChurnEvent::RemoveVertex(VertexId(1)),
                ChurnEvent::AddEdge(VertexId(0), VertexId(1), 1),
            ],
        )
        .unwrap_err();
        assert_eq!(err, MutationError::DeadVertex { vertex: VertexId(1) });
        // Removing an edge adjacent to a removed vertex is MissingEdge.
        let err = apply_events(
            &g,
            None,
            &[
                ChurnEvent::RemoveVertex(VertexId(1)),
                ChurnEvent::RemoveEdge(VertexId(0), VertexId(2)),
            ],
        )
        .unwrap_err();
        assert_eq!(err, MutationError::MissingEdge { u: VertexId(0), v: VertexId(2) });
        // Out-of-range and invalid edges.
        let err =
            apply_events(&g, None, &[ChurnEvent::RemoveVertex(VertexId(99))]).unwrap_err();
        assert!(matches!(err, MutationError::OutOfRange { .. }));
        let err = apply_events(&g, None, &[ChurnEvent::AddEdge(VertexId(0), VertexId(0), 1)])
            .unwrap_err();
        assert!(matches!(err, MutationError::InvalidEdge { .. }));
        let err = apply_events(&g, None, &[ChurnEvent::AddEdge(VertexId(0), VertexId(1), 1)])
            .unwrap_err();
        assert_eq!(err, MutationError::DuplicateEdge { u: VertexId(0), v: VertexId(1) });
        // Weights above the ceiling are rejected, not passed on to the
        // builder (which would refuse them).
        let heavy = MAX_WEIGHT + 1;
        for event in [
            ChurnEvent::AddEdge(VertexId(0), VertexId(2), heavy),
            ChurnEvent::AddVertex { edges: vec![(VertexId(0), heavy)] },
        ] {
            let err = apply_events(&g, None, &[event]).unwrap_err();
            assert!(matches!(err, MutationError::InvalidEdge { .. }), "{err:?}");
        }
        let heaviest = ChurnEvent::AddEdge(VertexId(0), VertexId(2), MAX_WEIGHT);
        assert!(apply_events(&g, None, &[heaviest]).is_ok());
    }

    #[test]
    fn chained_rounds_respect_prior_liveness() {
        let g = line5();
        let m1 = apply_events(&g, None, &[ChurnEvent::RemoveVertex(VertexId(0))]).unwrap();
        let m2 = apply_events(
            &m1.graph,
            Some(&m1.alive),
            &[ChurnEvent::RemoveVertex(VertexId(4))],
        )
        .unwrap();
        assert!(!m2.alive[0] && !m2.alive[4]);
        assert_eq!(m2.graph.m(), 2);
        let err = apply_events(
            &m2.graph,
            Some(&m2.alive),
            &[ChurnEvent::AddEdge(VertexId(0), VertexId(2), 1)],
        )
        .unwrap_err();
        assert_eq!(err, MutationError::DeadVertex { vertex: VertexId(0) });
    }

    #[test]
    fn largest_component_after_split() {
        let g = line5();
        let m = apply_events(&g, None, &[ChurnEvent::RemoveVertex(VertexId(1))]).unwrap();
        // Components among alive vertices: {0}, {2,3,4}.
        let comp = largest_component(&m.graph, &m.alive);
        assert_eq!(comp, vec![VertexId(2), VertexId(3), VertexId(4)]);
    }

    #[test]
    fn induced_subgraph_relabels_compactly() {
        let g = line5();
        let keep = [VertexId(2), VertexId(3), VertexId(4)];
        let (sub, to_original, to_compact) = induced_subgraph(&g, &keep);
        assert_eq!(sub.n(), 3);
        assert_eq!(sub.m(), 2);
        assert!(sub.is_connected());
        assert_eq!(to_original, keep.to_vec());
        assert_eq!(to_compact[3], Some(1));
        assert_eq!(to_compact[0], None);
        assert!(sub.has_edge(VertexId(0), VertexId(1)));
    }
}
