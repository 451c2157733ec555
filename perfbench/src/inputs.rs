//! Seeded input generation with fingerprints.
//!
//! Every graph and query stream a workload uses is generated twice from its
//! seed and hashed both times; the run fails when the two hashes differ, so
//! a benchmark number never rests on an input that does not reproduce.
//! `Family::ScaleFree` is deliberately absent: `barabasi_albert` emits edges
//! in `HashSet` order, so its inputs differ between runs of one seed.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use routing_graph::generators::{self, Family, WeightModel};
use routing_graph::{Graph, GraphBuilder, VertexId};

/// Weights of every weighted workload graph.
pub const WEIGHTS: WeightModel = WeightModel::Uniform { lo: 1, hi: 32 };

/// 64-bit FNV-1a over a stream of words.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Hash of a graph: `n`, `m`, then every vertex's adjacency in port order
/// as `(neighbour, weight)`.
pub fn graph_hash(g: &Graph) -> u64 {
    let mut h = Fnv::new();
    h.word(g.n() as u64);
    h.word(g.m() as u64);
    for u in g.vertices() {
        h.word(g.degree(u) as u64);
        for e in g.edges(u) {
            h.word(u64::from(e.to.0));
            h.word(e.weight);
        }
    }
    h.finish()
}

/// Hash of a query stream.
pub fn pairs_hash(pairs: &[(VertexId, VertexId)]) -> u64 {
    let mut h = Fnv::new();
    h.word(pairs.len() as u64);
    for &(u, v) in pairs {
        h.word(u64::from(u.0));
        h.word(u64::from(v.0));
    }
    h.finish()
}

/// The fingerprints of a run's inputs, in generation order.
#[derive(Debug, Default)]
pub struct Fingerprints(pub Vec<(String, u64)>);

impl Fingerprints {
    /// Generates an input twice, checks that both copies hash alike, records
    /// the hash under `name` and returns the first copy.
    pub fn generate<T>(
        &mut self,
        name: &str,
        make: impl Fn() -> T,
        hash: impl Fn(&T) -> u64,
    ) -> Result<T, String> {
        let input = make();
        let h = hash(&input);
        let again = hash(&make());
        if h != again {
            return Err(format!(
                "input {name} does not reproduce from its seed: {h:016x} then {again:016x}"
            ));
        }
        self.0.push((name.to_string(), h));
        Ok(input)
    }
}

/// Erdős–Rényi with average degree 8 and [`WEIGHTS`].
pub fn er_graph(n: usize, seed: u64) -> Graph {
    Family::ErdosRenyi.generate(n, WEIGHTS, &mut StdRng::seed_from_u64(seed))
}

/// The same topology as `g` with every weight 1 (for the schemes the paper
/// states for unweighted graphs).
pub fn unit_twin(g: &Graph) -> Graph {
    let mut b = GraphBuilder::new(g.n());
    for (u, v, _) in g.all_edges() {
        b.add_unit_edge(u.index(), v.index())
            .expect("edges of a valid graph are valid");
    }
    b.build()
}

/// The `side`×`side` unit-weight grid.
pub fn grid_graph(side: usize) -> Graph {
    generators::grid(side, side)
}

/// `count` uniform ordered pairs of distinct vertices of `0..n`.
pub fn uniform_pairs(n: usize, count: usize, seed: u64) -> Vec<(VertexId, VertexId)> {
    let ids: Vec<VertexId> = (0..n as u32).map(VertexId).collect();
    routing_model::sample_pairs_from(&ids, &ids, count, &mut StdRng::seed_from_u64(seed))
}

/// `count` ordered pairs whose sources are `sources` distinct vertices drawn
/// from `alive` and whose destinations are uniform over `alive` (the churn
/// harness's anchored sampling, which bounds the ground-truth searches).
pub fn anchored_pairs(
    alive: &[VertexId],
    sources: usize,
    count: usize,
    rng: &mut StdRng,
) -> Vec<(VertexId, VertexId)> {
    if alive.len() < 2 {
        return Vec::new();
    }
    let mut anchors = alive.to_vec();
    anchors.shuffle(rng);
    anchors.truncate(sources.min(alive.len()));
    routing_model::sample_pairs_from(&anchors, alive, count, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_reproduce_and_differ_by_seed() {
        let mut fp = Fingerprints::default();
        let a = fp.generate("a", || er_graph(300, 1), graph_hash).unwrap();
        let b = fp.generate("b", || er_graph(300, 2), graph_hash).unwrap();
        assert_ne!(graph_hash(&a), graph_hash(&b));
        assert_eq!(fp.0.len(), 2);
    }

    #[test]
    fn non_reproducing_input_is_rejected() {
        let calls = std::cell::Cell::new(0u64);
        let err = Fingerprints::default()
            .generate(
                "flaky",
                || {
                    calls.set(calls.get() + 1);
                    er_graph(100, calls.get())
                },
                graph_hash,
            )
            .unwrap_err();
        assert!(err.contains("does not reproduce"), "{err}");
    }

    #[test]
    fn twin_keeps_topology_and_ports() {
        let g = er_graph(200, 3);
        let t = unit_twin(&g);
        assert_eq!((g.n(), g.m()), (t.n(), t.m()));
        for u in g.vertices() {
            let a: Vec<_> = g.edges(u).map(|e| e.to).collect();
            let b: Vec<_> = t.edges(u).map(|e| e.to).collect();
            assert_eq!(a, b);
        }
        assert!(t.is_unweighted());
    }
}
