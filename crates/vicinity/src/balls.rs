//! Vertex vicinities `B(u, ℓ)` and the Lemma 2 ball router.
//!
//! Every vertex stores, for each of its `ℓ` closest vertices `v`, the first
//! edge (as a port) of a shortest path towards `v`. Property 1 (if
//! `v ∈ B(u, ℓ)` and `w` lies on a shortest `u`–`v` path then `v ∈ B(w, ℓ)`)
//! guarantees that greedily following these first edges delivers the message
//! on a shortest path — this is Lemma 2 of the paper and the building block
//! of both new routing techniques.
//!
//! # Memory layout
//!
//! The table is stored **flat**: all `n` balls share four parallel arrays
//! indexed through one CSR offset table, instead of one `Ball` object plus
//! one `HashMap` per vertex. Per vertex `u` the table keeps
//!
//! * its members `(v, d(u, v))` in `(distance, id)` settle order (what
//!   [`BallView::members`] exposes and the sequence builders iterate), with
//!   the first hop towards each member alongside, and
//! * the same members **id-sorted** in three parallel arrays — ids, ports
//!   and distances — so the query-path operations — [`BallTable::contains`],
//!   [`BallTable::dist`], [`BallTable::first_port`] — are one binary search
//!   over a contiguous slice of 4-byte ids, touching the port or distance
//!   array only on a hit.
//!
//! Building runs one *bounded* ball search per vertex
//! ([`SearchScratch::ball_into`], which stops after `ℓ` settled vertices) on
//! a per-worker reusable workspace, so the build allocates nothing per
//! vertex beyond the table itself.

use routing_graph::scratch::SearchScratch;
use routing_graph::{Graph, Port, VertexId, Weight};
use routing_model::{Decision, HeaderSize, RouteError, RoutingScheme};

/// Sentinel port stored for the ball's center (which has no first hop).
const NO_PORT: Port = Port(u32::MAX);

/// The balls `B(u, ℓ)` of every vertex, with the routing information of
/// Lemma 2 (first-hop port towards every member), in flat CSR form.
#[derive(Debug, Clone)]
pub struct BallTable {
    ell: usize,
    /// `offsets[u]..offsets[u+1]` indexes the member arrays for vertex `u`.
    offsets: Vec<u32>,
    /// Members with distances, per vertex in `(distance, id)` settle order
    /// (center first).
    members: Vec<(VertexId, Weight)>,
    /// First hop from the center towards each member, aligned with
    /// `members` (`None` for the center).
    first_hops: Vec<Option<VertexId>>,
    /// Per vertex: the same members in id order — the binary-searched key
    /// array of the query path.
    lookup_ids: Vec<VertexId>,
    /// Port at the center towards `lookup_ids[i]` (`NO_PORT` for the
    /// center itself).
    lookup_ports: Vec<Port>,
    /// Distance from the center to `lookup_ids[i]`.
    lookup_dists: Vec<Weight>,
    /// The radius `r_u(ℓ)` of every ball.
    radius: Vec<Weight>,
}

impl BallTable {
    /// Computes `B(u, ℓ)` for every vertex `u` of `g`, together with the
    /// first-hop ports Lemma 2 stores. The per-vertex bounded ball searches
    /// are independent, so they fan out over [`routing_par::threads`]
    /// threads, each worker reusing one search workspace; the resulting
    /// table is identical for every thread count.
    pub fn build(g: &Graph, ell: usize) -> Self {
        let _span = routing_obs::span("balls");
        let n = g.n();
        type PerVertex = (Vec<(VertexId, Weight)>, Vec<Option<VertexId>>, Vec<Port>, Weight);
        let per_vertex: Vec<PerVertex> = routing_par::par_map_scratch(
            n,
            || SearchScratch::for_graph(g),
            |scratch, i| {
                let u = VertexId(i as u32);
                let radius = scratch.ball_into(g, u, ell);
                let members = scratch.order().to_vec();
                let mut first_hops = Vec::with_capacity(members.len());
                let mut ports = Vec::with_capacity(members.len());
                for &(v, _) in &members {
                    if v == u {
                        first_hops.push(None);
                        ports.push(NO_PORT);
                    } else {
                        let hop =
                            scratch.first_hop(v).expect("non-center members have a first hop");
                        first_hops.push(Some(hop));
                        ports.push(g.port_to(u, hop).expect("first hop is a neighbour"));
                    }
                }
                (members, first_hops, ports, radius)
            },
        );

        let total: usize = per_vertex.iter().map(|(m, _, _, _)| m.len()).sum();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut members = Vec::with_capacity(total);
        let mut first_hops = Vec::with_capacity(total);
        let mut lookup_ids = Vec::with_capacity(total);
        let mut lookup_ports = Vec::with_capacity(total);
        let mut lookup_dists = Vec::with_capacity(total);
        let mut radius = Vec::with_capacity(n);
        offsets.push(0u32);
        let mut sorted: Vec<(VertexId, Port, Weight)> = Vec::new();
        for (m, fh, ports, r) in per_vertex {
            sorted.clear();
            sorted.extend(m.iter().zip(&ports).map(|(&(v, d), &p)| (v, p, d)));
            sorted.sort_unstable_by_key(|&(v, _, _)| v);
            lookup_ids.extend(sorted.iter().map(|&(v, _, _)| v));
            lookup_ports.extend(sorted.iter().map(|&(_, p, _)| p));
            lookup_dists.extend(sorted.iter().map(|&(_, _, d)| d));
            members.extend(m);
            first_hops.extend(fh);
            radius.push(r);
            offsets.push(members.len() as u32);
        }
        BallTable {
            ell,
            offsets,
            members,
            first_hops,
            lookup_ids,
            lookup_ports,
            lookup_dists,
            radius,
        }
    }

    /// The ball size parameter `ℓ` the table was built with.
    pub fn ell(&self) -> usize {
        self.ell
    }

    #[inline]
    fn range(&self, u: VertexId) -> std::ops::Range<usize> {
        self.offsets[u.index()] as usize..self.offsets[u.index() + 1] as usize
    }

    /// A borrowed view of the ball of `u`.
    pub fn ball(&self, u: VertexId) -> BallView<'_> {
        BallView { table: self, u }
    }

    /// The index of `v` in the id-sorted lookup arrays if `v ∈ B(u, ℓ)`,
    /// found by binary search over the ball's id keys.
    #[inline]
    fn entry(&self, u: VertexId, v: VertexId) -> Option<usize> {
        let range = self.range(u);
        let start = range.start;
        self.lookup_ids[range].binary_search(&v).ok().map(|i| start + i)
    }

    /// Returns true if `v ∈ B(u, ℓ)`.
    pub fn contains(&self, u: VertexId, v: VertexId) -> bool {
        self.entry(u, v).is_some()
    }

    /// Distance from `u` to `v` if `v ∈ B(u, ℓ)`.
    pub fn dist(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        self.entry(u, v).map(|i| self.lookup_dists[i])
    }

    /// The first hop of a shortest path from `u` to `v`, if `v ∈ B(u, ℓ)`
    /// and `v != u`.
    pub fn first_hop(&self, u: VertexId, v: VertexId) -> Option<VertexId> {
        self.ball(u).first_hop(v)
    }

    /// The port at `u` on a shortest path towards ball member `v`.
    pub fn first_port(&self, u: VertexId, v: VertexId) -> Option<Port> {
        self.entry(u, v).map(|i| self.lookup_ports[i]).filter(|&p| p != NO_PORT)
    }

    /// The space Lemma 2 charges to `u`, in `O(log n)`-bit words: one id, one
    /// distance and one port word per ball member other than `u` itself.
    pub fn words_at(&self, u: VertexId) -> usize {
        3 * (self.range(u).len().saturating_sub(1))
    }

    /// Number of vertices covered by the table.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True if the table covers no vertices.
    pub fn is_empty(&self) -> bool {
        self.offsets.len() <= 1
    }
}

/// A borrowed view of one ball `B(u, ℓ)` inside a [`BallTable`].
///
/// Mirrors the API of the owned [`routing_graph::shortest_path::Ball`], but
/// reads straight from the table's flat arrays; membership-style queries are
/// binary searches over the id-sorted member slice.
#[derive(Debug, Clone, Copy)]
pub struct BallView<'a> {
    table: &'a BallTable,
    u: VertexId,
}

impl BallView<'_> {
    /// The center vertex `u`.
    pub fn center(&self) -> VertexId {
        self.u
    }

    /// Number of members (including the center).
    pub fn len(&self) -> usize {
        self.table.range(self.u).len()
    }

    /// True if the ball contains only its center or is empty.
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// Members in `(distance, id)` order, the center first.
    pub fn members(&self) -> &[(VertexId, Weight)] {
        &self.table.members[self.table.range(self.u)]
    }

    /// Returns true if `v` is in the ball.
    pub fn contains(&self, v: VertexId) -> bool {
        self.table.contains(self.u, v)
    }

    /// Distance from the center to member `v`, or `None` if `v` is not in
    /// the ball.
    pub fn dist_to(&self, v: VertexId) -> Option<Weight> {
        self.table.dist(self.u, v)
    }

    /// The rank of `v` in the `(distance, id)` order (0 for the center), or
    /// `None` if `v` is not a member. Because balls are nested, `rank(v) < k`
    /// is exactly the membership test `v ∈ B(u, k)` for any `k` up to this
    /// ball's size.
    pub fn rank(&self, v: VertexId) -> Option<usize> {
        let d = self.table.dist(self.u, v)?;
        self.members()
            .binary_search_by(|&(m, md)| (md, m).cmp(&(d, v)))
            .ok()
    }

    /// The first hop of a shortest path from the center to member `v`
    /// (`None` if `v` is not a member or is the center itself).
    pub fn first_hop(&self, v: VertexId) -> Option<VertexId> {
        let rank = self.rank(v)?;
        self.table.first_hops[self.table.range(self.u)][rank]
    }

    /// The largest distance value `r` such that every vertex at distance
    /// exactly `r` from the center is inside the ball (the paper's
    /// `r_u(ℓ)`).
    pub fn radius(&self) -> Weight {
        self.table.radius[self.u.index()]
    }

    /// The largest distance of any member.
    pub fn max_dist(&self) -> Weight {
        self.members().last().map(|&(_, d)| d).unwrap_or(0)
    }
}

/// The standalone Lemma 2 routing scheme: routes exactly (stretch 1) between
/// any `u` and any `v ∈ B(u, ℓ)`, and reports an error for destinations
/// outside the source's ball.
///
/// The full schemes of the paper embed the same tables; this standalone
/// wrapper exists so Lemma 2 can be tested and benchmarked in isolation.
#[derive(Debug, Clone)]
pub struct BallRoutingScheme {
    name: String,
    table: BallTable,
    n: usize,
}

impl BallRoutingScheme {
    /// Builds the scheme with balls of size `ℓ`.
    pub fn new(g: &Graph, ell: usize) -> Self {
        BallRoutingScheme {
            name: format!("ball-routing(l={ell})"),
            table: BallTable::build(g, ell),
            n: g.n(),
        }
    }

    /// Access to the underlying ball table.
    pub fn table(&self) -> &BallTable {
        &self.table
    }
}

/// Header for ball routing: nothing needs to be carried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BallHeader;

impl HeaderSize for BallHeader {
    fn words(&self) -> usize {
        0
    }
}

impl RoutingScheme for BallRoutingScheme {
    type Label = VertexId;
    type Header = BallHeader;

    fn name(&self) -> &str {
        &self.name
    }

    fn n(&self) -> usize {
        self.n
    }

    fn label_of(&self, v: VertexId) -> VertexId {
        v
    }

    fn init_header(&self, source: VertexId, dest: &VertexId) -> Result<BallHeader, RouteError> {
        if source != *dest && !self.table.contains(source, *dest) {
            return Err(RouteError::MissingInformation {
                at: source,
                what: format!("{dest} is outside B({source}, {})", self.table.ell()),
            });
        }
        Ok(BallHeader)
    }

    fn decide(
        &self,
        at: VertexId,
        _header: &mut BallHeader,
        dest: &VertexId,
    ) -> Result<Decision, RouteError> {
        if at == *dest {
            return Ok(Decision::Deliver);
        }
        self.table
            .first_port(at, *dest)
            .map(Decision::Forward)
            .ok_or_else(|| RouteError::MissingInformation {
                at,
                what: format!("{dest} is outside B({at}, {}) during forwarding", self.table.ell()),
            })
    }

    fn table_words(&self, v: VertexId) -> usize {
        self.table.words_at(v)
    }

    fn label_words(&self, _v: VertexId) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use routing_graph::generators;
    use routing_graph::shortest_path::{ball, dijkstra};
    use routing_model::simulate;

    #[test]
    fn ball_table_membership_and_first_hops() {
        let g = generators::grid(5, 5);
        let t = BallTable::build(&g, 6);
        assert_eq!(t.len(), 25);
        assert!(!t.is_empty());
        assert_eq!(t.ell(), 6);
        for u in g.vertices() {
            assert!(t.contains(u, u));
            assert_eq!(t.ball(u).len(), 6);
            assert_eq!(t.words_at(u), 15);
            for &(v, d) in t.ball(u).members() {
                assert_eq!(t.dist(u, v), Some(d));
                if v != u {
                    let hop = t.first_hop(u, v).unwrap();
                    assert!(g.has_edge(u, hop));
                    let port = t.first_port(u, v).unwrap();
                    assert_eq!(g.neighbor_at(u, port).to, hop);
                }
            }
        }
    }

    #[test]
    fn key_search_agrees_with_the_member_list() {
        // The id-sorted key array and its port/distance arrays must answer
        // for exactly the members of `ball(u)`, in any order of probing.
        let mut rng = StdRng::seed_from_u64(31);
        let g = generators::erdos_renyi(
            70,
            0.08,
            generators::WeightModel::Uniform { lo: 1, hi: 9 },
            &mut rng,
        );
        let t = BallTable::build(&g, 11);
        for u in g.vertices() {
            let view = t.ball(u);
            let members = view.members();
            for &(v, d) in members {
                assert!(t.contains(u, v));
                assert_eq!(t.dist(u, v), Some(d));
                let port = t.first_port(u, v);
                if v == u {
                    assert_eq!(port, None, "the center has no first port");
                } else {
                    let hop = g.neighbor_at(u, port.unwrap());
                    assert_eq!(Some(hop.to), t.first_hop(u, v));
                    assert_eq!(
                        t.dist(hop.to, v),
                        Some(d - hop.weight),
                        "first port is not on a shortest path"
                    );
                }
            }
            let outside = (0..g.n() as u32 + 2)
                .map(VertexId)
                .filter(|&v| !members.iter().any(|&(m, _)| m == v));
            for v in outside {
                assert!(!t.contains(u, v));
                assert_eq!(t.dist(u, v), None);
                assert_eq!(t.first_port(u, v), None);
            }
        }
    }

    #[test]
    fn flat_table_matches_standalone_balls() {
        // The CSR table must agree with the owned Ball API member for
        // member: same order, ranks, radii, hops.
        let mut rng = StdRng::seed_from_u64(23);
        let g = generators::erdos_renyi(
            60,
            0.08,
            generators::WeightModel::Uniform { lo: 1, hi: 7 },
            &mut rng,
        );
        let t = BallTable::build(&g, 8);
        for u in g.vertices() {
            let owned = ball(&g, u, 8);
            let view = t.ball(u);
            assert_eq!(view.members(), owned.members());
            assert_eq!(view.radius(), owned.radius());
            assert_eq!(view.max_dist(), owned.max_dist());
            assert_eq!(view.center(), owned.center());
            assert_eq!(view.is_empty(), owned.is_empty());
            for v in g.vertices() {
                assert_eq!(view.contains(v), owned.contains(v));
                assert_eq!(view.dist_to(v), owned.dist_to(v));
                assert_eq!(view.rank(v), owned.rank(v));
                assert_eq!(view.first_hop(v), owned.first_hop(v));
            }
        }
    }

    #[test]
    fn rank_boundaries_and_nested_ball_monotonicity() {
        // The Theorem 13/15 substrate: one stored ball answers membership
        // at every level because rank(v) < k  ⟺  v ∈ B(u, k).
        let mut rng = StdRng::seed_from_u64(29);
        let g = generators::erdos_renyi(
            50,
            0.1,
            generators::WeightModel::Uniform { lo: 1, hi: 9 },
            &mut rng,
        );
        let big = BallTable::build(&g, 16);
        for u in g.vertices() {
            let view = big.ball(u);
            // The center always has rank 0.
            assert_eq!(view.rank(u), Some(0));
            // Members occupy exactly the ranks 0..len, each exactly once.
            let mut seen = vec![false; view.len()];
            for &(v, _) in view.members() {
                let r = view.rank(v).unwrap();
                assert!(r < view.len() && !seen[r], "rank {r} out of range or duplicated");
                seen[r] = true;
            }
            // Non-members have no rank.
            for v in g.vertices() {
                if !view.contains(v) {
                    assert_eq!(view.rank(v), None);
                }
            }
        }
        // Nested-ball monotonicity: for every smaller size k, the k-ball is
        // exactly the rank-< k prefix of the big ball — same members, same
        // ranks.
        for k in [1usize, 4, 9, 16] {
            let small = BallTable::build(&g, k);
            for u in g.vertices() {
                let sv = small.ball(u);
                let bv = big.ball(u);
                for v in g.vertices() {
                    let in_prefix = bv.rank(v).is_some_and(|r| r < k);
                    assert_eq!(
                        sv.contains(v),
                        in_prefix,
                        "rank-derived level-{k} membership differs for ({u}, {v})"
                    );
                    if sv.contains(v) {
                        assert_eq!(sv.rank(v), bv.rank(v), "rank changed between sizes");
                    }
                }
            }
        }
    }

    #[test]
    fn property_1_holds_with_tie_breaking() {
        // Property 1: v in B(u, l) and w on a shortest u-v path => v in B(w, l).
        let mut rng = StdRng::seed_from_u64(11);
        let g = generators::erdos_renyi(70, 0.08, generators::WeightModel::Unit, &mut rng);
        let ell = 9;
        let t = BallTable::build(&g, ell);
        for u in g.vertices() {
            let sp = dijkstra(&g, u);
            for &(v, _) in t.ball(u).members() {
                if v == u {
                    continue;
                }
                for w in sp.path_to(v).unwrap() {
                    assert!(
                        t.contains(w, v),
                        "property 1 violated: {v} in B({u}) but not in B({w})"
                    );
                }
            }
        }
    }

    #[test]
    fn lemma_2_routes_on_shortest_paths() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::erdos_renyi(
            60,
            0.07,
            generators::WeightModel::Uniform { lo: 1, hi: 5 },
            &mut rng,
        );
        let scheme = BallRoutingScheme::new(&g, 12);
        for u in g.vertices() {
            let sp = dijkstra(&g, u);
            for &(v, d) in scheme.table().ball(u).members().to_vec().iter() {
                let out = simulate(&g, &scheme, u, v).unwrap();
                assert_eq!(out.weight, d, "ball routing must be exact");
                assert_eq!(Some(out.weight), sp.dist(v));
            }
        }
    }

    #[test]
    fn destinations_outside_the_ball_are_rejected() {
        let g = generators::path(30);
        let scheme = BallRoutingScheme::new(&g, 3);
        let err = simulate(&g, &scheme, VertexId(0), VertexId(29)).unwrap_err();
        assert!(matches!(err, RouteError::MissingInformation { .. }));
    }

    #[test]
    fn scheme_reports_sizes() {
        let g = generators::cycle(12);
        let scheme = BallRoutingScheme::new(&g, 5);
        assert_eq!(RoutingScheme::n(&scheme), 12);
        assert!(scheme.name().contains("ball-routing"));
        for v in g.vertices() {
            assert_eq!(scheme.table_words(v), 3 * 4);
            assert_eq!(scheme.label_words(v), 1);
        }
    }
}
