//! `route-grid`: six schemes on a large-diameter unit grid, then uniform
//! pairs routed one call at a time through `simulate_lean`. Routing
//! dominates (about 31 hops a query), so per-hop decision cost leads.

use std::time::Instant;

use compact_routing::registry::SchemeRegistry;
use routing_graph::apsp::DistanceMatrix;
use routing_graph::DistanceOracle;
use routing_model::DynScheme;

use super::{build, route_lean, Ctx, Outcome, Quality};
use crate::checks::{bound_for, stretch_conformance};
use crate::inputs::{graph_hash, grid_graph, pairs_hash, uniform_pairs};
use crate::measure::{median, Trace, Windows};

const SIDE: usize = 45;
const KEYS: [&str; 6] = ["warmup", "thm10", "thm11", "tz2", "thm13", "thm16k3"];
/// Length of the pregenerated query stream the timed phase cycles through.
const STREAM: usize = 65_536;
/// Consecutive queries of one key timed together as one batch; the keys
/// take turns batch by batch.
const BATCH: usize = 64;
/// Of the stream, the pairs checked against exact distances per key.
const STRETCH_SAMPLE: usize = 1500;
/// Length of one window of the timed phase (see `Windows`).
const WINDOW_S: f64 = 2.0;
/// Times the six builds are repeated for the set-up median.
const SETUPS: usize = 3;

pub fn run(ctx: &Ctx, mut trace: Option<&mut Trace>) -> Outcome {
    let mut out = Outcome::default();
    let registry = SchemeRegistry::with_defaults();
    let inputs = (|| {
        let g = out
            .fingerprints
            .generate("grid", || grid_graph(SIDE), graph_hash)?;
        let n = g.n();
        let stream = out.fingerprints.generate(
            "queries",
            || uniform_pairs(n, STREAM, ctx.sub_seed(2)),
            |p| pairs_hash(p),
        )?;
        Ok::<_, String>((g, stream))
    })();
    let (g, stream) = match inputs {
        Ok(i) => i,
        Err(e) => {
            out.violations.0.push(e);
            return out;
        }
    };

    let mut setup = Vec::new();
    let mut schemes: Vec<Box<dyn DynScheme>> = Vec::new();
    for _ in 0..ctx.setups(SETUPS) {
        schemes.clear();
        let t = Instant::now();
        let mut built = Vec::new();
        for key in KEYS {
            if let Some((s, _)) = build(
                &registry,
                key,
                &g,
                &ctx.build_ctx(),
                &mut out,
                trace.as_deref_mut(),
            ) {
                built.push(s);
            }
        }
        setup.push(t.elapsed().as_secs_f64());
        schemes = built;
    }
    if schemes.len() != KEYS.len() {
        return out;
    }

    let mut windows = Windows::new(ctx.seconds, WINDOW_S);
    let mut next = 0usize;
    while windows.elapsed_s() < ctx.seconds {
        for scheme in &schemes {
            let w = windows.current();
            let t = Instant::now();
            for _ in 0..BATCH {
                let pair = stream[next];
                next = (next + 1) % stream.len();
                out.attempted += 1;
                let (result, took) = route_lean(&g, scheme.as_ref(), pair, trace.as_deref_mut());
                w.query.push(took);
                if let Err(e) = result {
                    out.fail(e);
                }
            }
            let took = t.elapsed();
            w.batch.push(took);
            w.busy_s += took.as_secs_f64();
            w.queries += BATCH as u64;
        }
    }
    let (routed, route_s) = windows.totals();
    out.work_units = routed as f64;
    out.work_s = route_s;

    let exact = DistanceMatrix::new(&g);
    let sample = &stream[..STRETCH_SAMPLE];
    let mut quality = Quality::default();
    for (key, scheme) in KEYS.iter().zip(&schemes) {
        quality.tables(scheme.as_ref());
        match bound_for(key, ctx.negative_control) {
            Ok(bound) => out.violations.check(stretch_conformance(
                &g,
                scheme.as_ref(),
                &exact,
                &bound,
                sample,
            )),
            Err(e) => out.violations.0.push(e),
        }
        for &pair in sample {
            if let ((Ok(o), _), Some(d)) = (
                route_lean(&g, scheme.as_ref(), pair, None),
                exact.distance(pair.0, pair.1),
            ) {
                quality.stretch(o.weight, d);
                quality.header(o.max_header_words);
            }
        }
    }
    let m = &mut out.metrics;
    m.set("setup_s", median(&setup), "s");
    out.samples.push(("setup".into(), setup.len()));
    quality.finish(&mut out, 1);
    windows.report(&mut out);
    out
}
