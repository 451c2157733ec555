//! The correctness checks every run makes. A violation makes the run print
//! `"correct": false` and exit non-zero.

use routing_bench::{check_stretch_conformance, scheme_meta, StretchBound};
use routing_graph::apsp::DistanceMatrix;
use routing_graph::{Graph, VertexId, Weight};
use routing_model::{DynScheme, LeanOutcome};
use routing_serve::{RouteAnswer, ShardStats};

/// Stretch slack of every build.
pub const EPSILON: f64 = 0.25;

/// A bound no scheme can meet: routed weight at most half the distance.
/// The negative control swaps it in for every declared bound.
pub const IMPOSSIBLE: StretchBound = StretchBound {
    base: 0.5,
    eps_coeff: 0.0,
    additive: 0.0,
};

/// Collected violations of one pass.
#[derive(Debug, Default)]
pub struct Violations(pub Vec<String>);

impl Violations {
    /// Records `r`'s error, if any.
    pub fn check(&mut self, r: Result<(), String>) {
        if let Err(e) = r {
            self.0.push(e);
        }
    }
}

/// The declared stretch bound of registry key `key`, or [`IMPOSSIBLE`]
/// under the negative control.
pub fn bound_for(key: &str, negative_control: bool) -> Result<StretchBound, String> {
    let meta = scheme_meta(key).ok_or_else(|| format!("{key}: no SchemeMeta row"))?;
    Ok(if negative_control {
        IMPOSSIBLE
    } else {
        meta.stretch_bound
    })
}

/// Stretch conformance of `pairs` against the exact distances of `g`.
pub fn stretch_conformance(
    g: &Graph,
    scheme: &dyn DynScheme,
    exact: &DistanceMatrix,
    bound: &StretchBound,
    pairs: &[(VertexId, VertexId)],
) -> Result<(), String> {
    check_stretch_conformance(g, scheme, exact, bound, EPSILON, pairs).map(|_| ())
}

/// One routed pair against a bound, for graphs checked with a sampled
/// oracle instead of a distance matrix.
pub fn pair_within_bound(
    name: &str,
    (u, v): (VertexId, VertexId),
    routed: Weight,
    dist: Weight,
    bound: &StretchBound,
) -> Result<(), String> {
    let allowed = bound.factor_at(EPSILON) * dist as f64 + bound.additive;
    if routed as f64 > allowed + 1e-9 {
        return Err(format!(
            "{name}: stretch bound violated for {u}->{v}: routed {routed} > allowed {allowed:.3} (d = {dist})"
        ));
    }
    Ok(())
}

/// A served answer must equal direct simulation under the same snapshot.
pub fn answer_matches(
    pair: (VertexId, VertexId),
    served: &RouteAnswer,
    direct: &LeanOutcome,
) -> Result<(), String> {
    let got = (served.weight, served.hops, served.max_header_words);
    let want = (direct.weight, direct.hops, direct.max_header_words);
    if got != want {
        return Err(format!(
            "serve answer for {}->{} differs from simulate: (weight, hops, header) {got:?} != {want:?}",
            pair.0, pair.1
        ));
    }
    Ok(())
}

/// The shard histograms must account for every routed query, with no
/// engine errors.
pub fn serve_accounting(stats: &[ShardStats], routed: u64) -> Result<(), String> {
    let queries: u64 = stats.iter().map(|s| s.queries).sum();
    let recorded: u64 = stats.iter().map(|s| s.latency.count()).sum();
    let errors: u64 = stats.iter().map(|s| s.errors).sum();
    if queries != routed || recorded != routed || errors != 0 {
        return Err(format!(
            "serve accounting: routed {routed}, shards counted {queries}, histograms hold {recorded}, errors {errors}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    //! Negative controls: each check must trip on a planted violation.

    use super::*;
    use crate::inputs::{er_graph, uniform_pairs};
    use compact_routing::registry::SchemeRegistry;
    use routing_core::{BuildContext, Params};
    use routing_model::simulate_lean;
    use routing_serve::{EngineConfig, ShardedEngine};
    use std::sync::Arc;

    fn ctx() -> BuildContext {
        BuildContext {
            params: Params::with_epsilon(EPSILON),
            seed: 5,
            threads: 1,
        }
    }

    #[test]
    fn declared_bound_holds_and_impossible_bound_trips() {
        let g = er_graph(150, 11);
        let exact = DistanceMatrix::new(&g);
        let scheme = SchemeRegistry::with_defaults()
            .build("tz2", &g, &ctx())
            .unwrap();
        let pairs = uniform_pairs(g.n(), 200, 3);
        let declared = bound_for("tz2", false).unwrap();
        stretch_conformance(&g, scheme.as_ref(), &exact, &declared, &pairs).unwrap();
        let impossible = bound_for("tz2", true).unwrap();
        let err =
            stretch_conformance(&g, scheme.as_ref(), &exact, &impossible, &pairs).unwrap_err();
        assert!(err.contains("stretch bound violated"), "{err}");
        assert!(pair_within_bound("x", pairs[0], 10, 10, &impossible).is_err());
        assert!(pair_within_bound("x", pairs[0], 10, 10, &declared).is_ok());
    }

    #[test]
    fn tampered_serve_answer_and_lost_query_trip() {
        let g = Arc::new(er_graph(120, 12));
        let scheme: Arc<dyn DynScheme> = SchemeRegistry::with_defaults()
            .build("thm11", &g, &ctx())
            .unwrap()
            .into();
        let engine = ShardedEngine::new(
            Arc::clone(&g),
            Arc::clone(&scheme),
            EngineConfig::with_shards(2),
        )
        .unwrap();
        let pairs = uniform_pairs(g.n(), 64, 4);
        let answers = engine.route_batch(&pairs);
        let max_hops = 4 * g.n() + 16;
        for (&pair, answer) in pairs.iter().zip(&answers) {
            let answer = answer.as_ref().unwrap();
            let direct = simulate_lean(&g, scheme.as_ref(), pair.0, pair.1, max_hops).unwrap();
            answer_matches(pair, answer, &direct).unwrap();
            let mut tampered = answer.clone();
            tampered.weight += 1;
            assert!(answer_matches(pair, &tampered, &direct).is_err());
        }
        let stats = engine.stats();
        serve_accounting(&stats, pairs.len() as u64).unwrap();
        assert!(serve_accounting(&stats, pairs.len() as u64 + 1).is_err());
    }

    #[test]
    fn every_registry_key_has_a_bound() {
        for key in SchemeRegistry::with_defaults().names() {
            bound_for(key, false).unwrap();
        }
    }
}
