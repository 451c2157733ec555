//! Hop-by-hop message simulator enforcing the fixed-port semantics.

use routing_graph::{Graph, VertexId, Weight};

use crate::erased::{DynScheme, ErasedLabel};
use crate::scheme::{Decision, HeaderSize};
use crate::RouteError;

/// The result of routing one message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteOutcome {
    /// The full vertex path the message traversed, from source to the vertex
    /// where it was delivered (inclusive).
    pub path: Vec<VertexId>,
    /// Total weight of the traversed path.
    pub weight: Weight,
    /// Number of edges traversed.
    pub hops: usize,
    /// The largest header size (in `O(log n)`-bit words) observed while the
    /// message was in flight.
    pub max_header_words: usize,
}

impl RouteOutcome {
    /// The source vertex.
    pub fn source(&self) -> VertexId {
        self.path[0]
    }

    /// The vertex where the message was delivered.
    pub fn destination(&self) -> VertexId {
        *self.path.last().expect("path is never empty")
    }
}

/// Routes a message from `source` to `dest` using `scheme`, with a hop
/// budget of `4 * n + 16`, recording the traversed path.
///
/// Takes the scheme through the object-safe [`DynScheme`] surface, so the
/// same code path serves typed schemes (every `&S where S: RoutingScheme`
/// coerces) and registry-built `Box<dyn DynScheme>` values alike.
///
/// # Errors
///
/// Propagates scheme errors, and fails if an endpoint is outside the
/// scheme's vertex space, or if the scheme forwards on a non-existent
/// port, loops past the hop budget, or delivers at the wrong vertex.
pub fn simulate(
    g: &Graph,
    scheme: &dyn DynScheme,
    source: VertexId,
    dest: VertexId,
) -> Result<RouteOutcome, RouteError> {
    let label = label_checked(scheme, dest)?;
    let mut path = vec![source];
    let out = walk(g, scheme, source, dest, &label, 4 * g.n() + 16, |v| path.push(v))?;
    record_delivery(&out);
    Ok(RouteOutcome {
        path,
        weight: out.weight,
        hops: out.hops,
        max_header_words: out.max_header_words,
    })
}

/// Telemetry for one delivered query: one flag load when metrics are off,
/// three counter bumps when on. Only strict deliveries count — error paths
/// and lossy walks are accounted by their callers (the churn harness's
/// failure breakdown maps onto the `churn_fail_*` counters).
#[inline]
fn record_delivery(out: &LeanOutcome) {
    if routing_obs::metrics_enabled() {
        routing_obs::counters::ROUTING_QUERIES.inc();
        routing_obs::counters::ROUTING_HOPS.add(out.hops as u64);
        routing_obs::counters::ROUTING_HEADER_WORDS.add(out.max_header_words as u64);
    }
}

/// The result of routing one message without materializing the path — the
/// serving layer's per-query answer shape.
///
/// Produced by [`simulate_lean`], which makes exactly the decision sequence
/// of [`simulate`] but never allocates: on a query-serving hot path the
/// path vector is the only per-query allocation left, and millions of
/// queries per second pay for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeanOutcome {
    /// Total weight of the traversed path.
    pub weight: Weight,
    /// Number of edges traversed.
    pub hops: usize,
    /// The largest header size (in `O(log n)`-bit words) observed while the
    /// message was in flight.
    pub max_header_words: usize,
}

/// Routes a message like [`simulate`] but with an explicit hop budget and
/// without materializing the traversed path: same decision sequence, same
/// errors, zero allocations beyond what the scheme itself does for the
/// label and header.
///
/// # Errors
///
/// Same conditions as [`simulate`].
pub fn simulate_lean(
    g: &Graph,
    scheme: &dyn DynScheme,
    source: VertexId,
    dest: VertexId,
    max_hops: usize,
) -> Result<LeanOutcome, RouteError> {
    let label = label_checked(scheme, dest)?;
    simulate_lean_with_label(g, scheme, source, dest, &label, max_hops)
}

/// [`simulate_lean`] with a caller-supplied erased label, so a batch of
/// queries towards the same destination erases the label once (the batched
/// query API of the serving layer sorts and caches labels per batch).
///
/// `label` must be `scheme.label_of(dest)`; a label for a different vertex
/// routes to that vertex and is then reported as
/// [`RouteError::DeliveredAtWrongVertex`].
///
/// # Errors
///
/// Same conditions as [`simulate`].
pub fn simulate_lean_with_label(
    g: &Graph,
    scheme: &dyn DynScheme,
    source: VertexId,
    dest: VertexId,
    label: &ErasedLabel,
    max_hops: usize,
) -> Result<LeanOutcome, RouteError> {
    let out = walk(g, scheme, source, dest, label, max_hops, |_| {})?;
    record_delivery(&out);
    Ok(out)
}

/// `dest`'s erased label, or [`RouteError::UnknownVertex`] when the scheme
/// has no label for it (checked before `label_of` can index out of range).
pub(crate) fn label_checked(
    scheme: &dyn DynScheme,
    dest: VertexId,
) -> Result<ErasedLabel, RouteError> {
    known(dest, scheme.n())?;
    Ok(scheme.label_of(dest))
}

#[inline]
fn known(v: VertexId, n: usize) -> Result<(), RouteError> {
    if v.index() < n {
        Ok(())
    } else {
        Err(RouteError::UnknownVertex { at: v, n })
    }
}

/// The one hop-by-hop walker behind every entry point: strict simulation,
/// the serving hot path and the churn harness's lossy evaluation.
///
/// Enforces the fixed-port rules of a legal walk — endpoints and every
/// visited vertex inside the scheme's vertex space (a stale port on a
/// mutated graph can lead out of it), at most `max_hops` forwards, only
/// existing ports, delivery only at `dest` — and reports each vertex
/// entered to `on_hop`, which the path-recording entry uses to build its
/// path and every other caller leaves a no-op.
pub(crate) fn walk<F: FnMut(VertexId)>(
    g: &Graph,
    scheme: &dyn DynScheme,
    source: VertexId,
    dest: VertexId,
    label: &ErasedLabel,
    max_hops: usize,
    mut on_hop: F,
) -> Result<LeanOutcome, RouteError> {
    let n = scheme.n();
    known(source, n)?;
    known(dest, n)?;
    let mut header = scheme.init_header(source, label)?;
    let mut at = source;
    let mut weight: Weight = 0;
    let mut hops = 0usize;
    let mut max_header_words = header.words();

    loop {
        match scheme.decide(at, &mut header, label)? {
            Decision::Deliver if at == dest => {
                return Ok(LeanOutcome { weight, hops, max_header_words });
            }
            Decision::Deliver => {
                return Err(RouteError::DeliveredAtWrongVertex { at, destination: dest });
            }
            Decision::Forward(port) => {
                if hops >= max_hops {
                    return Err(RouteError::HopBudgetExceeded { budget: max_hops });
                }
                if port.index() >= g.degree(at) {
                    return Err(RouteError::InvalidPort { at, port: port.0 });
                }
                let edge = g.neighbor_at(at, port);
                weight += edge.weight;
                at = edge.to;
                known(at, n)?;
                hops += 1;
                on_hop(at);
                max_header_words = max_header_words.max(header.words());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{HeaderSize, RoutingScheme};
    use routing_graph::generators;
    use routing_graph::shortest_path::dijkstra;
    use routing_graph::Port;

    /// A toy scheme with full routing tables (next-hop ports to every
    /// destination), used to exercise the simulator itself.
    struct FullTableScheme {
        name: String,
        n: usize,
        /// next_port[u][v] = port at u towards v (None when u == v).
        next_port: Vec<Vec<Option<Port>>>,
    }

    impl FullTableScheme {
        fn new(g: &Graph) -> Self {
            let n = g.n();
            let mut next_port = vec![vec![None; n]; n];
            for v in g.vertices() {
                let sp = dijkstra(g, v);
                for u in g.vertices() {
                    if u == v {
                        continue;
                    }
                    // First hop from u towards v: use the tree rooted at v,
                    // where u's parent is the next vertex on a shortest path.
                    if let Some(p) = sp.parent(u) {
                        next_port[u.index()][v.index()] = g.port_to(u, p);
                    }
                }
            }
            FullTableScheme { name: "full-table".into(), n, next_port }
        }
    }

    #[derive(Clone)]
    struct IdHeader;
    impl HeaderSize for IdHeader {
        fn words(&self) -> usize {
            1
        }
    }

    impl RoutingScheme for FullTableScheme {
        type Label = VertexId;
        type Header = IdHeader;

        fn name(&self) -> &str {
            &self.name
        }
        fn n(&self) -> usize {
            self.n
        }
        fn label_of(&self, v: VertexId) -> VertexId {
            v
        }
        fn init_header(&self, _source: VertexId, _dest: &VertexId) -> Result<IdHeader, RouteError> {
            Ok(IdHeader)
        }
        fn decide(
            &self,
            at: VertexId,
            _header: &mut IdHeader,
            dest: &VertexId,
        ) -> Result<Decision, RouteError> {
            if at == *dest {
                return Ok(Decision::Deliver);
            }
            match self.next_port[at.index()][dest.index()] {
                Some(p) => Ok(Decision::Forward(p)),
                None => Err(RouteError::MissingInformation { at, what: "no next hop".into() }),
            }
        }
        fn table_words(&self, _v: VertexId) -> usize {
            self.n
        }
        fn label_words(&self, _v: VertexId) -> usize {
            1
        }
    }

    #[test]
    fn lean_simulation_matches_the_full_simulator() {
        let g = generators::grid(4, 4);
        let s = FullTableScheme::new(&g);
        let ttl = 4 * g.n() + 16;
        for u in g.vertices() {
            for v in g.vertices() {
                let full = simulate(&g, &s, u, v).unwrap();
                let lean = simulate_lean(&g, &s, u, v, ttl).unwrap();
                assert_eq!(lean.weight, full.weight);
                assert_eq!(lean.hops, full.hops);
                assert_eq!(lean.max_header_words, full.max_header_words);
            }
        }
        // Both variants fail identically at the same hop budget.
        let cyc = generators::cycle(3);
        let full = simulate(&cyc, &LoopScheme, VertexId(0), VertexId(2)).unwrap_err();
        let lean = simulate_lean(&cyc, &LoopScheme, VertexId(0), VertexId(2), 4 * 3 + 16)
            .unwrap_err();
        assert_eq!(full, lean);
    }

    #[test]
    fn simulator_follows_shortest_paths_of_full_tables() {
        let g = generators::grid(4, 4);
        let s = FullTableScheme::new(&g);
        let sp = dijkstra(&g, VertexId(0));
        for v in g.vertices() {
            let out = simulate(&g, &s, VertexId(0), v).unwrap();
            assert_eq!(out.destination(), v);
            assert_eq!(out.source(), VertexId(0));
            assert_eq!(Some(out.weight), sp.dist(v));
            assert_eq!(out.hops, out.path.len() - 1);
            assert_eq!(out.max_header_words, 1);
        }
    }

    #[test]
    fn self_route_has_zero_weight() {
        let g = generators::path(3);
        let s = FullTableScheme::new(&g);
        let out = simulate(&g, &s, VertexId(1), VertexId(1)).unwrap();
        assert_eq!(out.weight, 0);
        assert_eq!(out.hops, 0);
        assert_eq!(out.path, vec![VertexId(1)]);
    }

    /// A scheme that always forwards on port 0 — loops forever on a cycle.
    struct LoopScheme;
    #[derive(Clone)]
    struct NoHeader;
    impl HeaderSize for NoHeader {
        fn words(&self) -> usize {
            0
        }
    }
    impl RoutingScheme for LoopScheme {
        type Label = VertexId;
        type Header = NoHeader;
        fn name(&self) -> &str {
            "loop"
        }
        fn n(&self) -> usize {
            3
        }
        fn label_of(&self, v: VertexId) -> VertexId {
            v
        }
        fn init_header(&self, _: VertexId, _: &VertexId) -> Result<NoHeader, RouteError> {
            Ok(NoHeader)
        }
        fn decide(&self, _: VertexId, _: &mut NoHeader, _: &VertexId) -> Result<Decision, RouteError> {
            Ok(Decision::Forward(Port(0)))
        }
        fn table_words(&self, _: VertexId) -> usize {
            0
        }
        fn label_words(&self, _: VertexId) -> usize {
            1
        }
    }

    #[test]
    fn loops_hit_the_hop_budget() {
        let g = generators::cycle(3);
        let err = simulate_lean(&g, &LoopScheme, VertexId(0), VertexId(2), 10).unwrap_err();
        assert_eq!(err, RouteError::HopBudgetExceeded { budget: 10 });
    }

    /// A scheme that delivers immediately regardless of destination.
    struct EagerScheme;
    impl RoutingScheme for EagerScheme {
        type Label = VertexId;
        type Header = NoHeader;
        fn name(&self) -> &str {
            "eager"
        }
        fn n(&self) -> usize {
            3
        }
        fn label_of(&self, v: VertexId) -> VertexId {
            v
        }
        fn init_header(&self, _: VertexId, _: &VertexId) -> Result<NoHeader, RouteError> {
            Ok(NoHeader)
        }
        fn decide(&self, _: VertexId, _: &mut NoHeader, _: &VertexId) -> Result<Decision, RouteError> {
            Ok(Decision::Deliver)
        }
        fn table_words(&self, _: VertexId) -> usize {
            0
        }
        fn label_words(&self, _: VertexId) -> usize {
            1
        }
    }

    #[test]
    fn wrong_delivery_is_detected() {
        let g = generators::path(3);
        let err = simulate(&g, &EagerScheme, VertexId(0), VertexId(2)).unwrap_err();
        assert_eq!(
            err,
            RouteError::DeliveredAtWrongVertex { at: VertexId(0), destination: VertexId(2) }
        );
    }

    /// A scheme that forwards on a port that does not exist.
    struct BadPortScheme;
    impl RoutingScheme for BadPortScheme {
        type Label = VertexId;
        type Header = NoHeader;
        fn name(&self) -> &str {
            "bad-port"
        }
        fn n(&self) -> usize {
            3
        }
        fn label_of(&self, v: VertexId) -> VertexId {
            v
        }
        fn init_header(&self, _: VertexId, _: &VertexId) -> Result<NoHeader, RouteError> {
            Ok(NoHeader)
        }
        fn decide(&self, _: VertexId, _: &mut NoHeader, _: &VertexId) -> Result<Decision, RouteError> {
            Ok(Decision::Forward(Port(99)))
        }
        fn table_words(&self, _: VertexId) -> usize {
            0
        }
        fn label_words(&self, _: VertexId) -> usize {
            1
        }
    }

    #[test]
    fn invalid_ports_are_detected() {
        let g = generators::path(3);
        let err = simulate(&g, &BadPortScheme, VertexId(0), VertexId(2)).unwrap_err();
        assert_eq!(err, RouteError::InvalidPort { at: VertexId(0), port: 99 });
    }
}
