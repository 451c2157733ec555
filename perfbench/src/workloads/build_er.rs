//! `build-er`: every registry key built on one ER graph, then a small
//! uniform query set per key through the full-path `simulate`. Builds
//! dominate, so this is where every build phase is measured.

use std::time::Instant;

use compact_routing::registry::SchemeRegistry;
use routing_bench::scheme_meta;
use routing_graph::apsp::DistanceMatrix;
use routing_graph::{DistanceOracle, Graph};
use routing_model::{simulate, DynScheme};

use super::{build, Ctx, Outcome, Quality};
use crate::checks::{bound_for, stretch_conformance};
use crate::inputs::{er_graph, graph_hash, pairs_hash, uniform_pairs, unit_twin};
use crate::measure::{median, timed, Samples, Trace};

const N: usize = 2000;
/// Queries routed per key per round.
const QUERIES: usize = 16_000;
/// Of those, the ones checked against exact distances (stretch metrics and
/// bound conformance).
const STRETCH_SAMPLE: usize = 400;
/// Consecutive queries timed together as one batch.
const BATCH: usize = 64;
/// Build rounds per pass; more if the timed phase is not over yet.
const MIN_ROUNDS: usize = 2;

pub fn run(ctx: &Ctx, mut trace: Option<&mut Trace>) -> Outcome {
    let mut out = Outcome::default();
    let registry = SchemeRegistry::with_defaults();
    let inputs = (|| {
        let weighted =
            out.fingerprints
                .generate("er", || er_graph(N, ctx.sub_seed(1)), graph_hash)?;
        let unit =
            out.fingerprints
                .generate("er-unit-twin", || unit_twin(&weighted), graph_hash)?;
        let queries = out.fingerprints.generate(
            "queries",
            || uniform_pairs(N, QUERIES, ctx.sub_seed(2)),
            |p| pairs_hash(p),
        )?;
        Ok::<_, String>((weighted, unit, queries))
    })();
    let (weighted, unit, queries) = match inputs {
        Ok(i) => i,
        Err(e) => {
            out.violations.0.push(e);
            return out;
        }
    };
    let exact_w = DistanceMatrix::new(&weighted);
    let exact_u = DistanceMatrix::new(&unit);
    // thm10 and exact are stated for unweighted graphs (SchemeMeta.weighted).
    let instance = |key: &str| -> (&Graph, &DistanceMatrix) {
        match scheme_meta(key) {
            Some(m) if !m.weighted => (&unit, &exact_u),
            _ => (&weighted, &exact_w),
        }
    };

    let mut setup = Vec::new();
    // Latency samples per key.
    let mut lat: Vec<(Samples, Samples)> = registry
        .names()
        .iter()
        .map(|_| Default::default())
        .collect();
    let (mut routed, mut route_s) = (0u64, 0.0f64);
    let mut last: Vec<(&str, Box<dyn DynScheme>)> = Vec::new();
    let start = Instant::now();
    let min_rounds = ctx.setups(MIN_ROUNDS);
    while setup.len() < min_rounds
        || (!ctx.trace_run && start.elapsed().as_secs_f64() < ctx.seconds)
    {
        // Free the previous round's tables first: one set is resident at a
        // time. Each key routes right after its build, so the routing is
        // spread over the whole round rather than timed in one burst.
        last.clear();
        let mut round_setup = 0.0;
        let mut schemes = Vec::new();
        for (k, key) in registry.names().into_iter().enumerate() {
            let g = instance(key).0;
            let Some((scheme, took)) = build(
                &registry,
                key,
                g,
                &ctx.build_ctx(),
                &mut out,
                trace.as_deref_mut(),
            ) else {
                continue;
            };
            round_setup += took.as_secs_f64();
            let (query_lat, batch_lat) = &mut lat[k];
            for chunk in queries.chunks(BATCH) {
                let t = Instant::now();
                for &(u, v) in chunk {
                    out.attempted += 1;
                    let (result, took, allocs) = timed(|| simulate(g, scheme.as_ref(), u, v));
                    query_lat.push(took);
                    match result {
                        Ok(o) if o.destination() == v => {
                            if let Some(trace) = trace.as_deref_mut() {
                                trace.route_calls += 1;
                                trace.route_ns += took.as_nanos() as u64;
                                trace.route_hops += o.hops as u64;
                                trace.route_allocs += allocs;
                            }
                        }
                        Ok(o) => {
                            out.fail(format!("{key}: {u}->{v} delivered at {}", o.destination()))
                        }
                        Err(e) => out.fail(format!("{key}: routing {u}->{v} failed: {e}")),
                    }
                }
                let took = t.elapsed();
                batch_lat.push(took);
                route_s += took.as_secs_f64();
                routed += chunk.len() as u64;
            }
            schemes.push((key, scheme));
        }
        setup.push(round_setup);
        last = schemes;
    }
    out.work_units = setup.len() as f64;
    out.work_s = start.elapsed().as_secs_f64();

    // Quality over a fixed subsample, checked against each key's bound.
    let sample = &queries[..STRETCH_SAMPLE];
    let mut quality = Quality::default();
    for (key, scheme) in &last {
        let (g, exact) = instance(key);
        quality.tables(scheme.as_ref());
        match bound_for(key, ctx.negative_control) {
            Ok(bound) => out.violations.check(stretch_conformance(
                g,
                scheme.as_ref(),
                exact,
                &bound,
                sample,
            )),
            Err(e) => out.violations.0.push(e),
        }
        for &(u, v) in sample {
            if let (Ok(o), Some(d)) = (simulate(g, scheme.as_ref(), u, v), exact.distance(u, v)) {
                quality.stretch(o.weight, d);
                quality.header(o.max_header_words);
            }
        }
    }
    let m = &mut out.metrics;
    m.set("setup_s", median(&setup), "s");
    m.set("route_qps", routed as f64 / route_s, "queries/s");
    out.samples.push(("setup".into(), setup.len()));
    quality.finish(&mut out, 1);
    out.grouped_latencies(lat);
    out
}
