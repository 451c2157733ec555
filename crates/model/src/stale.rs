//! Lossy evaluation of a routing scheme on a graph it was **not** built for
//! — the measurement core of the churn workloads.
//!
//! [`crate::eval::evaluate`] treats every routing failure as a bug, which
//! is correct for a scheme routing on its own preprocessed graph. Under
//! churn the situation is different: the tables are *stale* — built on a
//! base graph while the messages travel on a mutated one — and failures are
//! the phenomenon being measured, not a bug. A stale table can
//!
//! * forward on a port that no longer exists (a neighbour was removed and
//!   the adjacency list shrank) — [`FailureKind::InvalidPort`];
//! * forward on a port that now leads to a *different* neighbour (smaller-id
//!   neighbours were removed, shifting ports) and eventually deliver at the
//!   wrong vertex or loop — [`FailureKind::WrongDelivery`] /
//!   [`FailureKind::HopBudget`];
//! * reference routing state that no longer makes sense —
//!   [`FailureKind::SchemeError`].
//!
//! [`route_pairs_lossy`] routes a set of pairs, records each outcome, and
//! aggregates delivery (reachability) and stretch relative to the mutated
//! graph's true distances. Pairs that the mutated graph itself disconnects
//! are reported separately ([`ResilienceReport::disconnected_pairs`]): no
//! routing scheme could deliver those, so they are excluded from the
//! reachability denominator.

use serde::{Deserialize, Serialize};

use routing_graph::{DistanceOracle, Graph, VertexId};

use crate::erased::DynScheme;
use crate::simulator::{label_checked, walk};
use crate::stats::StretchStats;
use crate::RouteError;

/// Why a routed pair failed to be delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureKind {
    /// The scheme forwarded on a port that does not exist in the (mutated)
    /// graph.
    InvalidPort,
    /// The message was delivered at a vertex other than the destination.
    WrongDelivery,
    /// The message looped until the hop budget ran out.
    HopBudget,
    /// A stale port forwarded the message into a vertex the scheme has no
    /// routing table for (one that joined after the tables were built).
    UnknownVertex,
    /// The scheme reported an internal error (missing table entry, bad
    /// label).
    SchemeError,
}

/// Per-failure-kind counts of one lossy evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailureBreakdown {
    /// Forwards on ports that no longer exist.
    pub invalid_port: usize,
    /// Deliveries at the wrong vertex.
    pub wrong_delivery: usize,
    /// Messages that looped into the hop budget.
    pub hop_budget: usize,
    /// Messages forwarded into vertices unknown to the scheme.
    pub unknown_vertex: usize,
    /// Internal scheme errors.
    pub scheme_error: usize,
}

impl FailureKind {
    /// Classifies a walk error. The walker's own rule violations map to
    /// their kind; anything the scheme itself raised is a
    /// [`FailureKind::SchemeError`].
    fn of(e: &RouteError) -> Self {
        match e {
            RouteError::InvalidPort { .. } => FailureKind::InvalidPort,
            RouteError::DeliveredAtWrongVertex { .. } => FailureKind::WrongDelivery,
            RouteError::HopBudgetExceeded { .. } => FailureKind::HopBudget,
            RouteError::UnknownVertex { .. } => FailureKind::UnknownVertex,
            _ => FailureKind::SchemeError,
        }
    }
}

impl FailureBreakdown {
    fn record(&mut self, kind: FailureKind) {
        // Mirror each failure into the process-wide telemetry counters so a
        // churn run exports its failure-class totals without re-summing the
        // per-round breakdowns (no-op unless metrics are enabled).
        use routing_obs::counters as c;
        match kind {
            FailureKind::InvalidPort => {
                self.invalid_port += 1;
                c::CHURN_FAIL_INVALID_PORT.inc();
            }
            FailureKind::WrongDelivery => {
                self.wrong_delivery += 1;
                c::CHURN_FAIL_WRONG_DELIVERY.inc();
            }
            FailureKind::HopBudget => {
                self.hop_budget += 1;
                c::CHURN_FAIL_HOP_BUDGET.inc();
            }
            FailureKind::UnknownVertex => {
                self.unknown_vertex += 1;
                c::CHURN_FAIL_UNKNOWN_VERTEX.inc();
            }
            FailureKind::SchemeError => {
                self.scheme_error += 1;
                c::CHURN_FAIL_SCHEME_ERROR.inc();
            }
        }
    }

    /// Total failures across all kinds.
    pub fn total(&self) -> usize {
        self.invalid_port
            + self.wrong_delivery
            + self.hop_budget
            + self.unknown_vertex
            + self.scheme_error
    }
}

/// Aggregated outcome of routing a pair population through a (possibly
/// stale) scheme on a (possibly mutated) graph.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResilienceReport {
    /// Pairs attempted (both endpoints alive).
    pub pairs: usize,
    /// Pairs the graph itself disconnects (no scheme could route these).
    pub disconnected_pairs: usize,
    /// Pairs delivered at the correct destination.
    pub delivered: usize,
    /// Failure counts for undelivered connected pairs.
    pub failures: FailureBreakdown,
    /// Stretch of the delivered pairs relative to the evaluation graph's
    /// exact distances.
    pub stretch: StretchStats,
}

impl ResilienceReport {
    /// Delivered fraction over the *connected* pairs, in `[0, 1]`.
    ///
    /// Two degenerate cases are told apart deliberately: when pairs were
    /// attempted but the graph disconnected all of them, this is `1.0`
    /// (no scheme could have delivered more); when **no pair could even be
    /// sampled** (`pairs == 0` — fewer than two vertices the scheme can
    /// address survive), this is `0.0`, so that total scheme collapse reads
    /// as unreachable and reachability-threshold rebuild policies still
    /// fire instead of being masked by a vacuous 100%.
    pub fn reachability(&self) -> f64 {
        if self.pairs == 0 {
            return 0.0;
        }
        let routable = self.pairs - self.disconnected_pairs;
        if routable == 0 {
            1.0
        } else {
            self.delivered as f64 / routable as f64
        }
    }

    /// Delivered fraction over *all* attempted pairs (counting pairs the
    /// graph disconnects as undeliverable), in `[0, 1]`; `0.0` when no
    /// pair could be sampled (see [`ResilienceReport::reachability`]).
    pub fn absolute_reachability(&self) -> f64 {
        if self.pairs == 0 {
            0.0
        } else {
            self.delivered as f64 / self.pairs as f64
        }
    }
}

/// Routes every pair of `pairs` through `scheme` on `g`, recording failures
/// instead of propagating them.
///
/// `exact` must be a ground-truth oracle **for `g`** (the evaluation graph —
/// for stale-table experiments that is the *mutated* graph, so stretch is
/// measured against what an oracle rebuilt on the spot could achieve). The
/// churn harness passes a [`routing_graph::SampledDistances`] built from the
/// pairs' distinct sources, which keeps the per-round ground-truth cost at
/// `O(|sources|·(m + n log n))` instead of the dense matrix's `O(n^2)`.
///
/// The walk is [`crate::simulate`]'s, with every error classified into a
/// [`FailureKind`] instead of propagated. Deliveries here do not count
/// towards the strict `routing_queries_total` telemetry; failures count
/// towards the `churn_fail_*` counters instead.
pub fn route_pairs_lossy<O: DistanceOracle>(
    g: &Graph,
    scheme: &dyn DynScheme,
    exact: &O,
    pairs: &[(VertexId, VertexId)],
) -> ResilienceReport {
    let mut report = ResilienceReport {
        pairs: pairs.len(),
        disconnected_pairs: 0,
        delivered: 0,
        failures: FailureBreakdown::default(),
        stretch: StretchStats::new(),
    };
    for &(u, v) in pairs {
        let true_dist = match exact.distance(u, v) {
            Some(d) => d,
            None => {
                report.disconnected_pairs += 1;
                continue;
            }
        };
        let walked = label_checked(scheme, v)
            .and_then(|label| walk(g, scheme, u, v, &label, 4 * g.n() + 16, |_| {}));
        match walked {
            Ok(out) => {
                report.delivered += 1;
                report.stretch.record(out.weight, true_dist);
            }
            Err(e) => report.failures.record(FailureKind::of(&e)),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{Decision, HeaderSize, RoutingScheme};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use routing_graph::apsp::DistanceMatrix;
    use routing_graph::generators;
    use routing_graph::mutate::{apply_events, ChurnEvent};
    use routing_graph::shortest_path::dijkstra;
    use routing_graph::Port;

    /// Full next-hop tables for a fixed graph — the simplest "scheme" whose
    /// staleness behaviour is easy to reason about.
    struct FullTable {
        n: usize,
        next: Vec<Vec<Option<Port>>>,
    }

    impl FullTable {
        fn build(g: &Graph) -> Self {
            let n = g.n();
            let mut next = vec![vec![None; n]; n];
            for v in g.vertices() {
                let sp = dijkstra(g, v);
                for u in g.vertices() {
                    if u != v {
                        if let Some(p) = sp.parent(u) {
                            next[u.index()][v.index()] = g.port_to(u, p);
                        }
                    }
                }
            }
            FullTable { n, next }
        }
    }

    #[derive(Clone)]
    struct H;
    impl HeaderSize for H {
        fn words(&self) -> usize {
            0
        }
    }

    impl RoutingScheme for FullTable {
        type Label = VertexId;
        type Header = H;
        fn name(&self) -> &str {
            "full"
        }
        fn n(&self) -> usize {
            self.n
        }
        fn label_of(&self, v: VertexId) -> VertexId {
            v
        }
        fn init_header(&self, _: VertexId, _: &VertexId) -> Result<H, RouteError> {
            Ok(H)
        }
        fn decide(&self, at: VertexId, _: &mut H, dest: &VertexId) -> Result<Decision, RouteError> {
            if at == *dest {
                return Ok(Decision::Deliver);
            }
            self.next[at.index()][dest.index()]
                .map(Decision::Forward)
                .ok_or(RouteError::MissingInformation { at, what: "no entry".into() })
        }
        fn table_words(&self, _: VertexId) -> usize {
            self.n
        }
        fn label_words(&self, _: VertexId) -> usize {
            1
        }
    }

    #[test]
    fn fresh_tables_reach_everything() {
        let g = generators::grid(4, 4);
        let scheme = FullTable::build(&g);
        let exact = DistanceMatrix::new(&g);
        let mut rng = StdRng::seed_from_u64(3);
        let ids: Vec<VertexId> = g.vertices().collect();
        let pairs = crate::sample_pairs_from(&ids, &ids, 100, &mut rng);
        let report = route_pairs_lossy(&g, &scheme, &exact, &pairs);
        assert_eq!(report.delivered, 100);
        assert_eq!(report.reachability(), 1.0);
        assert_eq!(report.absolute_reachability(), 1.0);
        assert_eq!(report.failures.total(), 0);
        assert_eq!(report.stretch.max_multiplicative(), Some(1.0));
    }

    #[test]
    fn stale_tables_degrade_but_do_not_error() {
        // Build tables on a cycle, then remove one vertex: routes crossing
        // the removed vertex must fail, the rest keep working.
        let g = generators::cycle(12);
        let scheme = FullTable::build(&g);
        let m = apply_events(&g, None, &[ChurnEvent::RemoveVertex(VertexId(0))]).unwrap();
        let exact = DistanceMatrix::new(&m.graph);
        let pairs: Vec<(VertexId, VertexId)> = (1..12)
            .flat_map(|u| (1..12).filter(move |&v| v != u).map(move |v| (VertexId(u), VertexId(v))))
            .collect();
        let report = route_pairs_lossy(&m.graph, &scheme, &exact, &pairs);
        assert_eq!(report.pairs, 110);
        assert_eq!(report.disconnected_pairs, 0, "the remaining path is connected");
        assert!(report.delivered > 0, "pairs on the surviving arc still route");
        assert!(report.failures.total() > 0, "pairs across the removed vertex fail");
        assert_eq!(report.delivered + report.failures.total(), 110);
        assert!(report.reachability() < 1.0);
    }

    #[test]
    fn disconnected_pairs_are_excluded_from_reachability() {
        let g = generators::path(4);
        let scheme = FullTable::build(&g);
        // Removing vertex 1 splits {0} from {2, 3}.
        let m = apply_events(&g, None, &[ChurnEvent::RemoveVertex(VertexId(1))]).unwrap();
        let exact = DistanceMatrix::new(&m.graph);
        // (0, 2) is disconnected. (3, 2) still routes: vertex 3's only
        // neighbour is 2, so its port survives. (The reverse direction
        // (2, 3) would fail — 2's port to 3 shifts when its smaller-id
        // neighbour 1 is removed — which is exactly the degradation the
        // churn experiments measure.)
        let pairs = vec![(VertexId(0), VertexId(2)), (VertexId(3), VertexId(2))];
        let report = route_pairs_lossy(&m.graph, &scheme, &exact, &pairs);
        assert_eq!(report.disconnected_pairs, 1);
        assert_eq!(report.delivered, 1);
        assert_eq!(report.reachability(), 1.0);
        assert_eq!(report.absolute_reachability(), 0.5);
    }

    #[test]
    fn total_collapse_reads_as_unreachable() {
        // Fewer than two addressable vertices -> no pairs can be sampled ->
        // reachability must be 0.0 (not a vacuous 1.0), so threshold
        // rebuild policies still fire.
        let g = generators::path(4);
        let scheme = FullTable::build(&g);
        let exact = DistanceMatrix::new(&g);
        let report = route_pairs_lossy(&g, &scheme, &exact, &[]);
        assert_eq!(report.pairs, 0);
        assert_eq!(report.reachability(), 0.0);
        assert_eq!(report.absolute_reachability(), 0.0);
    }

    /// A scheme of `n` vertices that answers every `decide` the same way —
    /// enough to drive the walker into each failure class on demand.
    struct Scripted {
        n: usize,
        decision: Option<Decision>,
    }

    impl RoutingScheme for Scripted {
        type Label = VertexId;
        type Header = H;
        fn name(&self) -> &str {
            "scripted"
        }
        fn n(&self) -> usize {
            self.n
        }
        fn label_of(&self, v: VertexId) -> VertexId {
            v
        }
        fn init_header(&self, _: VertexId, _: &VertexId) -> Result<H, RouteError> {
            Ok(H)
        }
        fn decide(&self, at: VertexId, _: &mut H, _: &VertexId) -> Result<Decision, RouteError> {
            self.decision.ok_or(RouteError::MissingInformation { at, what: "scripted".into() })
        }
        fn table_words(&self, _: VertexId) -> usize {
            0
        }
        fn label_words(&self, _: VertexId) -> usize {
            1
        }
    }

    #[test]
    fn every_walk_error_maps_to_its_failure_kind() {
        let forward = |p| Some(Decision::Forward(Port(p)));
        // (graph, scheme, expected class) for the pair 0 -> 1. On cycle(3)
        // vertex 0's ports lead to 1 then 2, and vertex 1's port 0 leads
        // back to 0.
        let cases = [
            (generators::path(3), Scripted { n: 3, decision: forward(99) }, FailureKind::InvalidPort),
            (
                generators::path(3),
                Scripted { n: 3, decision: Some(Decision::Deliver) },
                FailureKind::WrongDelivery,
            ),
            (generators::cycle(3), Scripted { n: 3, decision: forward(0) }, FailureKind::HopBudget),
            // A 2-vertex scheme on a 3-vertex graph: port 1 at vertex 0
            // leads into vertex 2, which joined after the tables were built.
            (generators::cycle(3), Scripted { n: 2, decision: forward(1) }, FailureKind::UnknownVertex),
            (generators::path(3), Scripted { n: 3, decision: None }, FailureKind::SchemeError),
        ];
        for (g, scheme, kind) in cases {
            let exact = DistanceMatrix::new(&g);
            let pair = (VertexId(0), VertexId(1));
            let report = route_pairs_lossy(&g, &scheme, &exact, &[pair]);
            let mut want = FailureBreakdown::default();
            match kind {
                FailureKind::InvalidPort => want.invalid_port = 1,
                FailureKind::WrongDelivery => want.wrong_delivery = 1,
                FailureKind::HopBudget => want.hop_budget = 1,
                FailureKind::UnknownVertex => want.unknown_vertex = 1,
                FailureKind::SchemeError => want.scheme_error = 1,
            }
            assert_eq!(report.failures, want, "{kind:?}");
            assert_eq!(report.delivered, 0, "{kind:?}");
        }
    }
}
