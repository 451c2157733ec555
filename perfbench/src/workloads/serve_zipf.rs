//! `serve-zipf`: thm11 at n = 10,000 behind a two-shard `ShardedEngine`.
//! Two reader threads each wait for their own 1024-pair Zipf(0.99)
//! `route_batch` (closed loop) while a writer publishes the alternate
//! prebuilt epoch at a fixed interval. Unbatched `route` latency is then
//! measured on the quiescent engine. The only workload through
//! `routing-serve`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use compact_routing::registry::SchemeRegistry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use routing_graph::{DistanceOracle, Graph, SampledDistances, VertexId};
use routing_model::{simulate_lean, DynScheme};
use routing_obs::counters;
use routing_obs::LatencyHistogram;
use routing_serve::{EngineConfig, RouteAnswer, ServeError, ShardedEngine, ZipfWorkload};

use super::{build, Ctx, Outcome, Quality, BUILD_SEED};
use crate::checks::{answer_matches, bound_for, pair_within_bound, serve_accounting};
use crate::inputs::{anchored_pairs, er_graph, graph_hash, pairs_hash};
use crate::measure::{allocations, median, Samples, Trace};

const N: usize = 10_000;
const KEY: &str = "thm11";
const SHARDS: usize = 2;
const READERS: usize = 2;
const BATCH: usize = 1024;
const ZIPF: f64 = 0.99;
/// Pregenerated batches per reader, cycled through by the timed phase.
const POOL: usize = 64;
/// Zipf streams per reader, interleaved batch by batch. Which vertices a
/// stream makes hot sets much of its cost, so a run averages over several.
const STREAMS: u64 = 8;
/// Unbatched queries timed on the quiescent engine, in blocks whose
/// percentiles are read apart; the median over blocks is reported, since a
/// single call's latency is mostly two thread wake-ups and swings with the
/// machine's load.
const SINGLES: usize = 16_384;
const SINGLES_BLOCK: usize = 1024;
const SWAP_EVERY: Duration = Duration::from_millis(250);
/// The quiescent equivalence and stretch sample: pairs anchored at a few
/// sources, so the sampled oracle needs only that many searches.
const CHECK_SOURCES: usize = 32;
const CHECK_PAIRS: usize = 2048;

type Pair = (VertexId, VertexId);

/// What one reader measured.
#[derive(Default)]
struct Reader {
    batch_lat: Samples,
    /// Seconds into the timed phase at which each batch completed.
    completed_at: Vec<f64>,
    queries: u64,
    failed: u64,
    errors: Vec<String>,
    hops: u64,
}

impl Reader {
    fn record(&mut self, answer: Result<RouteAnswer, ServeError>) {
        self.queries += 1;
        match answer {
            Ok(a) => {
                self.hops += a.hops as u64;
            }
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 8 {
                    self.errors.push(format!("serve: {e}"));
                }
            }
        }
    }
}

pub fn run(ctx: &Ctx, trace: Option<&mut Trace>) -> Outcome {
    let mut out = Outcome::default();
    let registry = SchemeRegistry::with_defaults();
    let inputs = (|| {
        let g = out
            .fingerprints
            .generate("er", || er_graph(N, ctx.sub_seed(1)), graph_hash)?;
        let mut pools = Vec::new();
        for r in 0..READERS as u64 {
            let pool = out.fingerprints.generate(
                &format!("queries.reader{r}"),
                || {
                    let mut streams: Vec<ZipfWorkload> = (0..STREAMS)
                        .map(|k| ZipfWorkload::new(N, ZIPF, ctx.sub_seed(100 * (r + 1) + k)))
                        .collect();
                    (0..POOL)
                        .flat_map(|j| streams[j % STREAMS as usize].next_batch(BATCH))
                        .collect::<Vec<_>>()
                },
                |p| pairs_hash(p),
            )?;
            pools.push(pool);
        }
        let alive: Vec<VertexId> = g.vertices().collect();
        let check = out.fingerprints.generate(
            "queries.check",
            || {
                anchored_pairs(
                    &alive,
                    CHECK_SOURCES,
                    CHECK_PAIRS,
                    &mut StdRng::seed_from_u64(ctx.sub_seed(3)),
                )
            },
            |p| pairs_hash(p),
        )?;
        Ok::<_, String>((g, pools, check))
    })();
    let (g, pools, check) = match inputs {
        Ok(i) => i,
        Err(e) => {
            out.violations.0.push(e);
            return out;
        }
    };
    let g = Arc::new(g);

    let t = Instant::now();
    let alt_ctx = routing_core::BuildContext {
        seed: BUILD_SEED ^ 0xa17,
        ..ctx.build_ctx()
    };
    let mut trace = trace;
    let built = (
        build(
            &registry,
            KEY,
            &g,
            &ctx.build_ctx(),
            &mut out,
            trace.as_deref_mut(),
        ),
        build(&registry, KEY, &g, &alt_ctx, &mut out, None),
    );
    let (Some((primary, _)), Some((alternate, _))) = built else {
        return out;
    };
    let primary: Arc<dyn DynScheme> = primary.into();
    let alternate: Arc<dyn DynScheme> = alternate.into();
    let engine = match ShardedEngine::new(
        Arc::clone(&g),
        Arc::clone(&primary),
        EngineConfig::with_shards(SHARDS),
    ) {
        Ok(e) => e,
        Err(e) => {
            out.fail(format!("engine start failed: {e}"));
            return out;
        }
    };
    let setup_s = t.elapsed().as_secs_f64();

    let allocs_before = allocations();
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let (readers, swaps) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut swaps = 0u64;
            let mut last = Instant::now();
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(5));
                if last.elapsed() >= SWAP_EVERY {
                    let next = if swaps.is_multiple_of(2) {
                        &alternate
                    } else {
                        &primary
                    };
                    if engine.publish(Arc::clone(&g), Arc::clone(next)).is_ok() {
                        swaps += 1;
                    }
                    last = Instant::now();
                }
            }
            swaps
        });
        let handles: Vec<_> = pools
            .iter()
            .map(|pool| {
                let engine = &engine;
                s.spawn(move || {
                    let mut r = Reader::default();
                    let mut i = 0usize;
                    while start.elapsed().as_secs_f64() < ctx.seconds {
                        let batch = &pool[(i % POOL) * BATCH..][..BATCH];
                        let t = Instant::now();
                        let answers = engine.route_batch(batch);
                        r.batch_lat.push(t.elapsed());
                        r.completed_at.push(start.elapsed().as_secs_f64());
                        answers.into_iter().for_each(|a| r.record(a));
                        i += 1;
                    }
                    r
                })
            })
            .collect();
        let readers: Vec<Reader> = handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect();
        stop.store(true, Ordering::Relaxed);
        (readers, writer.join().expect("writer thread panicked"))
    });
    let wall_s = start.elapsed().as_secs_f64();
    let allocs = allocations() - allocs_before;

    let mut batch_lat = Samples::default();
    let (mut routed, mut hops) = (0u64, 0u64);
    // Throughput per one-second window of the timed phase; the median over
    // the whole windows is reported.
    let mut per_window = vec![0u64; (ctx.seconds.floor() as usize).max(1)];
    for r in readers {
        for &at in &r.completed_at {
            if let Some(w) = per_window.get_mut(at as usize) {
                *w += BATCH as u64;
            }
        }
        routed += r.queries;
        hops += r.hops;
        out.failed += r.failed;
        out.violations.0.extend(r.errors);
        batch_lat.extend(r.batch_lat);
    }
    let calls = batch_lat.len() as u64;
    out.attempted += routed;
    out.work_units = routed as f64;
    out.work_s = wall_s;

    let stats = engine.stats();
    out.violations.check(serve_accounting(&stats, routed));
    let busy_ns: u64 = stats.iter().map(|s| s.busy_ns).sum();
    let subbatches: u64 = stats.iter().map(|s| s.batches).sum();
    let mut service = LatencyHistogram::new();
    stats.iter().for_each(|s| service.merge(&s.latency));
    // The serving counters of the loaded phase, before the checks add to them.
    let [hits, misses, loads, epoch_swaps] = [
        &counters::SERVE_LABEL_CACHE_HITS,
        &counters::SERVE_LABEL_CACHE_MISSES,
        &counters::SERVE_SNAPSHOT_LOADS,
        &counters::SERVE_EPOCH_SWAPS,
    ]
    .map(|c| c.get() as f64);

    // Quiescent checks on the primary epoch: served answers equal direct
    // simulation, every answer arrives, and stretch stays within bound.
    if let Err(e) = engine.publish(Arc::clone(&g), Arc::clone(&primary)) {
        out.violations.0.push(format!("final publish failed: {e}"));
    }
    let blocks: Vec<Samples> = pools[0][..SINGLES]
        .chunks(SINGLES_BLOCK)
        .map(|block| singles(&engine, &g, primary.as_ref(), block, &mut out))
        .collect();
    let mut quality = Quality::default();
    quality.tables(primary.as_ref());
    quiescent_checks(
        ctx,
        &engine,
        &g,
        primary.as_ref(),
        &check,
        &mut out,
        &mut quality,
    );
    quality.finish(&mut out, 1);

    let m = &mut out.metrics;
    m.set("setup_s", setup_s, "s");
    m.set(
        "route_qps",
        median(&per_window.iter().map(|&q| q as f64).collect::<Vec<_>>()),
        "queries/s",
    );
    let per = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    let mean_call_ns = per(batch_lat.sum_ns() as f64, calls as f64);
    m.set(
        "serve.busy_frac",
        per(busy_ns as f64, SHARDS as f64 * wall_s * 1e9),
        "ratio",
    );
    m.set(
        "serve.service_p50_ns",
        service.quantile(0.50).unwrap_or(0) as f64,
        "ns",
    );
    m.set(
        "serve.service_p99_ns",
        service.quantile(0.99).unwrap_or(0) as f64,
        "ns",
    );
    m.set(
        "serve.wait_ms_mean",
        (mean_call_ns - per(busy_ns as f64, subbatches as f64)) / 1e6,
        "ms",
    );
    m.set(
        "serve.label_cache_hit_ratio",
        per(hits, hits + misses),
        "ratio",
    );
    m.set(
        "serve.subbatches_per_call",
        per(subbatches as f64, calls as f64),
        "count",
    );
    m.set("serve.snapshot_loads", loads, "count");
    m.set("serve.epoch_swaps", epoch_swaps, "count");
    out.samples
        .push(("service".into(), service.count() as usize));
    out.samples.push(("swaps".into(), swaps as usize));
    out.samples.push(("windows".into(), per_window.len()));
    out.batch_latencies(batch_lat);
    let (p50s, p90s): (Vec<f64>, Vec<f64>) =
        blocks.into_iter().filter_map(|mut b| b.p50_p90()).unzip();
    out.metrics.set("query_p50_us", median(&p50s) / 1e3, "us");
    out.metrics.set("query_p90_us", median(&p90s) / 1e3, "us");
    out.samples.push(("query_blocks".into(), p50s.len()));
    out.samples.push(("query_per_block".into(), SINGLES_BLOCK));
    if let Some(trace) = trace {
        trace.route_calls += routed;
        trace.route_hops += hops;
        trace.route_ns += busy_ns;
        trace.route_allocs += allocs;
    }
    out
}

/// Times unbatched `route` calls on the quiescent engine, each answer
/// checked against direct simulation.
fn singles(
    engine: &ShardedEngine,
    g: &Graph,
    scheme: &dyn DynScheme,
    pairs: &[Pair],
    out: &mut Outcome,
) -> Samples {
    let max_hops = 4 * g.n() + 16;
    let mut lat = Samples::default();
    for &(u, v) in pairs {
        out.attempted += 1;
        let t = Instant::now();
        let answer = engine.route(u, v);
        lat.push(t.elapsed());
        match (answer, simulate_lean(g, scheme, u, v, max_hops)) {
            (Ok(served), Ok(direct)) => {
                out.violations
                    .check(answer_matches((u, v), &served, &direct))
            }
            (Err(e), _) => out.fail(format!("serve: single {u}->{v} failed: {e}")),
            (_, Err(e)) => out
                .violations
                .0
                .push(format!("{KEY}: simulate {u}->{v} failed: {e}")),
        }
    }
    lat
}

/// Routes the check pairs through the engine and directly, compares them,
/// and checks stretch against the sampled oracle.
fn quiescent_checks(
    ctx: &Ctx,
    engine: &ShardedEngine,
    g: &Graph,
    scheme: &dyn DynScheme,
    check: &[Pair],
    out: &mut Outcome,
    quality: &mut Quality,
) {
    let bound = match bound_for(KEY, ctx.negative_control) {
        Ok(b) => b,
        Err(e) => return out.violations.0.push(e),
    };
    let oracle = SampledDistances::from_sources(g, check.iter().map(|&(u, _)| u).collect());
    let max_hops = 4 * g.n() + 16;
    out.attempted += check.len() as u64;
    for (&pair, answer) in check.iter().zip(engine.route_batch(check)) {
        let served = match answer {
            Ok(a) => a,
            Err(e) => {
                out.fail(format!(
                    "serve: quiescent {}->{} failed: {e}",
                    pair.0, pair.1
                ));
                continue;
            }
        };
        quality.header(served.max_header_words);
        match simulate_lean(g, scheme, pair.0, pair.1, max_hops) {
            Ok(direct) => out.violations.check(answer_matches(pair, &served, &direct)),
            Err(e) => out.violations.0.push(format!(
                "{KEY}: simulate {}->{} failed: {e}",
                pair.0, pair.1
            )),
        }
        if let Some(d) = oracle.distance(pair.0, pair.1) {
            out.violations
                .check(pair_within_bound(KEY, pair, served.weight, d, &bound));
            quality.stretch(served.weight, d);
        }
    }
}
