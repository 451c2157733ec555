//! `churn-targeted`: tz2 and thm11 through four rounds of targeted 5%
//! removal with the default rejoin and link churn and `every-2` rebuilds,
//! driven through the public calls `run_churn` is made of. Stale pairs
//! mostly loop to the hop budget, so the lossy walker dominates.

use std::time::Instant;

use compact_routing::registry::SchemeRegistry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use routing_churn::{ChurnPlanConfig, ChurnProcess, RebuildPolicy, RemovalMode};
use routing_graph::mutate::{induced_subgraph, largest_component};
use routing_graph::{DistanceOracle, Graph, SampledDistances, VertexId};
use routing_model::{route_pairs_lossy, DynScheme};

use super::{build, route_lean, Ctx, Outcome, Quality};
use crate::checks::{bound_for, pair_within_bound};
use crate::inputs::{anchored_pairs, er_graph, graph_hash, pairs_hash, Fnv};
use crate::measure::{median, Samples, Trace};

const N: usize = 2000;
const KEYS: [&str; 2] = ["tz2", "thm11"];
const ROUNDS: usize = 4;
const POLICY: RebuildPolicy = RebuildPolicy::EveryK(2);
const PAIRS: usize = 2000;
const SOURCES: usize = 64;
/// Stale pairs per `route_pairs_lossy` call, the unit the query latencies
/// time: a single stale walk takes a few microseconds, and timings that
/// short swung 20-30% between runs of the same inputs on a small shared
/// machine.
const CALL: usize = 32;
/// Consecutive calls timed together as one batch.
const BATCH: usize = 8 * CALL;
/// Pairs routed through each freshly rebuilt table as a correctness check.
const CHECK_PAIRS: usize = 256;
const CHECK_SOURCES: usize = 16;
/// Independent instances (base graph and churn trajectory) per run. Which
/// hubs the targeted removal hits sets how many stale pairs loop to the hop
/// budget, and so most of the cost; a run averages over several.
const INSTANCES: u64 = 4;

/// What the passes of one run measured.
#[derive(Default)]
struct Totals {
    setup: Vec<f64>,
    rebuild_s: Vec<f64>,
    rebuild_max_s: f64,
    rebuilds: usize,
    /// Latency samples per instance and scheme.
    lat: Vec<(Samples, Samples)>,
    stale_pairs: u64,
    stale_s: f64,
    budget_loops: u64,
    reach: Vec<f64>,
    quality: Quality,
}

/// One instance: its base graph, churn schedule and pair-sampling seed, and
/// the hash of the trajectory its first replay produced.
struct Instance {
    base: Graph,
    plan: ChurnPlanConfig,
    pair_seed: u64,
    trajectory: Option<u64>,
}

pub fn run(ctx: &Ctx, mut trace: Option<&mut Trace>) -> Outcome {
    let mut out = Outcome::default();
    let registry = SchemeRegistry::with_defaults();
    let mut instances = Vec::new();
    for i in 0..INSTANCES {
        let salt = 100 * i;
        match out.fingerprints.generate(
            &format!("er.{i}"),
            || er_graph(N, ctx.sub_seed(1 + salt)),
            graph_hash,
        ) {
            Ok(base) => instances.push(Instance {
                base,
                plan: ChurnPlanConfig {
                    rounds: ROUNDS,
                    mode: RemovalMode::Targeted,
                    seed: ctx.sub_seed(4 + salt),
                    ..ChurnPlanConfig::default()
                },
                pair_seed: ctx.sub_seed(5 + salt),
                trajectory: None,
            }),
            Err(e) => {
                out.violations.0.push(e);
                return out;
            }
        }
    }

    // Whole cycles over the instances, so every instance weighs the same,
    // as many as fit in the timed phase (at least one); deterministic
    // figures come from the first cycle only.
    let mut t = Totals {
        lat: (0..instances.len() * KEYS.len())
            .map(|_| Default::default())
            .collect(),
        ..Totals::default()
    };
    let start = Instant::now();
    let mut passes = 0usize;
    let fits = |passes: usize| {
        let elapsed = start.elapsed().as_secs_f64();
        elapsed + elapsed / passes as f64 <= ctx.seconds
    };
    while passes == 0 || (!ctx.trace_run && fits(passes)) {
        for (i, inst) in instances.iter_mut().enumerate() {
            let first = passes == 0;
            let (mut setup, mut rebuild) = (0.0, 0.0);
            for (k, key) in KEYS.into_iter().enumerate() {
                let Some((scheme, took)) = build(
                    &registry,
                    key,
                    &inst.base,
                    &ctx.build_ctx(),
                    &mut out,
                    trace.as_deref_mut(),
                ) else {
                    return out;
                };
                setup += took.as_secs_f64();
                if first {
                    t.quality.tables(scheme.as_ref());
                }
                rebuild += churn_scheme(
                    ctx,
                    key,
                    scheme,
                    inst,
                    first,
                    i * KEYS.len() + k,
                    &registry,
                    &mut t,
                    &mut out,
                    trace.as_deref_mut(),
                );
            }
            t.setup.push(setup);
            t.rebuild_s.push(rebuild);
        }
        passes += 1;
    }
    out.work_units = t.setup.len() as f64;
    out.work_s = start.elapsed().as_secs_f64();
    for (i, inst) in instances.iter().enumerate() {
        if let Some(h) = inst.trajectory {
            out.fingerprints
                .0
                .push((format!("churn-trajectory.{i}"), h));
        }
    }

    let per = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    let m = &mut out.metrics;
    m.set("setup_s", median(&t.setup), "s");
    m.set(
        "route_qps",
        per(t.stale_pairs as f64, t.stale_s),
        "queries/s",
    );
    m.set("churn.rebuild_s", median(&t.rebuild_s), "s");
    m.set("churn.rebuild_max_s", t.rebuild_max_s, "s");
    m.set(
        "churn.rebuilds",
        per(t.rebuilds as f64, t.setup.len() as f64),
        "count",
    );
    m.set(
        "churn.stale_reach",
        per(t.reach.iter().sum(), t.reach.len() as f64),
        "ratio",
    );
    out.samples.push(("setup".into(), t.setup.len()));
    if let Some(trace) = trace {
        trace.stale_pairs += t.stale_pairs;
        trace.stale_ns += (t.stale_s * 1e9) as u64;
        trace.stale_budget_loops += t.budget_loops;
    }
    std::mem::take(&mut t.quality).finish(&mut out, INSTANCES as usize);
    out.grouped_latencies(t.lat);
    out
}

/// One scheme through the churn rounds, as `run_churn` drives it. Returns
/// the wall time of its rebuilds. Deterministic quantities (stretch,
/// reachability, headers) are taken from the first pass only.
#[allow(clippy::too_many_arguments)]
fn churn_scheme(
    ctx: &Ctx,
    key: &str,
    mut scheme: Box<dyn DynScheme>,
    inst: &mut Instance,
    first: bool,
    group: usize,
    registry: &SchemeRegistry,
    t: &mut Totals,
    out: &mut Outcome,
    mut trace: Option<&mut Trace>,
) -> f64 {
    let mut process = ChurnProcess::new(inst.base.clone(), inst.plan);
    let mut rng = StdRng::seed_from_u64(inst.pair_seed);
    let mut trajectory = Fnv::new();
    let mut since = 0usize;
    let mut rebuild_s = 0.0;
    for _ in 0..ROUNDS {
        process.next_round();
        since += 1;
        let graph = process.graph();
        // Pairs must be alive and known to the deployed tables.
        let known: Vec<VertexId> = (0..graph.n())
            .filter(|&i| process.alive()[i] && i < scheme.n())
            .map(|i| VertexId(i as u32))
            .collect();
        let pairs = anchored_pairs(&known, SOURCES, PAIRS, &mut rng);
        trajectory.word(graph_hash(graph));
        trajectory.word(pairs_hash(&pairs));
        let oracle = SampledDistances::from_sources(graph, pairs.iter().map(|&(u, _)| u).collect());

        let (mut delivered, mut connected) = (0usize, 0usize);
        for batch in pairs.chunks(BATCH) {
            let tb = Instant::now();
            for call in batch.chunks(CALL) {
                out.attempted += call.len() as u64;
                let tq = Instant::now();
                let report = route_pairs_lossy(graph, scheme.as_ref(), &oracle, call);
                t.lat[group].0.push(tq.elapsed());
                delivered += report.delivered;
                connected += report.pairs - report.disconnected_pairs;
                t.budget_loops += report.failures.hop_budget as u64;
            }
            let took = tb.elapsed();
            t.lat[group].1.push(took);
            t.stale_s += took.as_secs_f64();
            t.stale_pairs += batch.len() as u64;
        }
        let reach = if connected == 0 {
            1.0
        } else {
            delivered as f64 / connected as f64
        };
        if first {
            t.reach.push(reach);
        }

        if POLICY.should_rebuild(since, reach) {
            let component = largest_component(graph, process.alive());
            let (compact, _, _) = induced_subgraph(graph, &component);
            let Some((rebuilt, took)) = build(
                registry,
                key,
                &compact,
                &ctx.build_ctx(),
                out,
                trace.as_deref_mut(),
            ) else {
                return rebuild_s;
            };
            scheme = rebuilt;
            rebuild_s += took.as_secs_f64();
            t.rebuild_max_s = t.rebuild_max_s.max(took.as_secs_f64());
            t.rebuilds += 1;
            since = 0;
            check_fresh(
                ctx,
                key,
                &compact,
                scheme.as_ref(),
                &mut rng,
                first,
                t,
                out,
                trace.as_deref_mut(),
            );
            process.reset_graph(compact);
        }
    }
    let h = trajectory.finish();
    match inst.trajectory {
        None => inst.trajectory = Some(h),
        Some(first) if first != h => out.violations.0.push(format!(
            "{key}: churn trajectory does not reproduce: {first:016x} then {h:016x}"
        )),
        Some(_) => {}
    }
    rebuild_s
}

/// Freshly rebuilt tables match their graph: every check pair must arrive,
/// within the key's stretch bound. The first pass also records quality.
#[allow(clippy::too_many_arguments)]
fn check_fresh(
    ctx: &Ctx,
    key: &str,
    g: &Graph,
    scheme: &dyn DynScheme,
    rng: &mut StdRng,
    first: bool,
    t: &mut Totals,
    out: &mut Outcome,
    mut trace: Option<&mut Trace>,
) {
    let bound = match bound_for(key, ctx.negative_control) {
        Ok(b) => b,
        Err(e) => return out.violations.0.push(e),
    };
    let all: Vec<VertexId> = g.vertices().collect();
    let pairs = anchored_pairs(&all, CHECK_SOURCES, CHECK_PAIRS, rng);
    let oracle = SampledDistances::from_sources(g, pairs.iter().map(|&(u, _)| u).collect());
    for &pair in &pairs {
        out.attempted += 1;
        match route_lean(g, scheme, pair, trace.as_deref_mut()).0 {
            Ok(o) => {
                if first {
                    t.quality.header(o.max_header_words);
                }
                match oracle.distance(pair.0, pair.1) {
                    Some(d) => {
                        out.violations
                            .check(pair_within_bound(key, pair, o.weight, d, &bound));
                        if first {
                            t.quality.stretch(o.weight, d);
                        }
                    }
                    None => out.violations.0.push(format!(
                        "{key}: {}->{} disconnected in its own component",
                        pair.0, pair.1
                    )),
                }
            }
            Err(e) => out.fail(e),
        }
    }
}
