//! The four workloads and what they share: the pass outcome, registry
//! builds with their bench-side spans, and the routed-query helpers.

pub mod build_er;
pub mod churn_targeted;
pub mod route_grid;
pub mod serve_zipf;

use std::time::{Duration, Instant};

use compact_routing::registry::SchemeRegistry;
use routing_core::{BuildContext, Params};
use routing_graph::{Graph, VertexId, Weight};
use routing_model::{simulate_lean, simulate_lean_with_label, DynScheme, LeanOutcome};

use crate::checks::{Violations, EPSILON};
use crate::inputs::Fingerprints;
use crate::measure::{timed, Metrics, Samples, Trace};

/// Seed of every build context (the library's default).
pub const BUILD_SEED: u64 = 7;
/// Attempts per registry build. Randomized stages (the Lemma 6 coloring)
/// can fail on some instances; a caller retries with the next build seed,
/// and every failed attempt counts in `failed`.
const BUILD_ATTEMPTS: u64 = 3;

/// How one pass of a workload is run.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Swap every declared stretch bound for an impossible one.
    pub negative_control: bool,
    /// Part of a traced run: both of its passes set up once, so per-layer
    /// numbers describe one set-up and the two passes do the same work.
    pub trace_run: bool,
}

impl Ctx {
    /// Set-up rounds of a pass: `normal`, or one in a traced run.
    pub fn setups(&self, normal: usize) -> usize {
        if self.trace_run {
            1
        } else {
            normal
        }
    }

    /// A seed derived from the workload seed for one named purpose.
    pub fn sub_seed(&self, salt: u64) -> u64 {
        self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt
    }

    /// The single-threaded build context of every registry build. Its seed
    /// is configuration of the system under test, fixed like ε; `--seed`
    /// varies the inputs (graphs and query streams) only.
    pub fn build_ctx(&self) -> BuildContext {
        BuildContext {
            params: Params::with_epsilon(EPSILON),
            seed: BUILD_SEED,
            threads: 1,
        }
    }
}

/// What one pass measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Builds, queries and batches attempted.
    pub attempted: u64,
    /// Of those, the ones that returned an error or a wrong answer.
    pub failed: u64,
    /// Operations that returned a typed error and were retried: counted in
    /// `failed`, reported, but not a wrong answer.
    pub retried: Vec<String>,
    pub violations: Violations,
    pub metrics: Metrics,
    /// Units of work in the timed phase and its wall time, for the tracing
    /// overhead (cost per unit traced vs untraced).
    pub work_units: f64,
    pub work_s: f64,
    pub fingerprints: Fingerprints,
    /// Sample count behind each percentile metric.
    pub samples: Vec<(String, usize)>,
    /// Figures printed with the provenance but not gated: the worst cases
    /// behind the mean quality metrics.
    pub info: Vec<(String, f64)>,
}

impl Outcome {
    /// Records a failed operation with its reason.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        self.violations.0.push(reason);
    }

    /// Sets the four latency metrics from per-group `(query, batch)`
    /// samples, one group per scheme (and instance): each group's
    /// percentiles are read apart and their geometric mean is reported, so
    /// the result does not jump between the modes of different schemes.
    pub fn grouped_latencies(&mut self, mut groups: Vec<(Samples, Samples)>) {
        let (mut q, mut b) = (Vec::new(), Vec::new());
        for (query, batch) in &mut groups {
            q.extend(query.p50_p90());
            b.extend(batch.p50_p90());
        }
        let geomean = |v: &[f64]| (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp();
        let (q50, q90): (Vec<f64>, Vec<f64>) = q.into_iter().unzip();
        let (b50, b90): (Vec<f64>, Vec<f64>) = b.into_iter().unzip();
        if !q50.is_empty() {
            self.metrics.set("query_p50_us", geomean(&q50) / 1e3, "us");
            self.metrics.set("query_p90_us", geomean(&q90) / 1e3, "us");
        }
        if !b50.is_empty() {
            self.metrics.set("batch_p50_ms", geomean(&b50) / 1e6, "ms");
            self.metrics.set("batch_p90_ms", geomean(&b90) / 1e6, "ms");
        }
        let queries = groups.iter().map(|g| g.0.len()).sum();
        let batches = groups.iter().map(|g| g.1.len()).sum();
        self.samples.push(("groups".into(), groups.len()));
        self.samples.push(("query".into(), queries));
        self.samples.push(("batch".into(), batches));
    }

    /// Sets the two batch latency metrics.
    pub fn batch_latencies(&mut self, mut batch: Samples) {
        if let Some((p50, p90)) = batch.p50_p90() {
            self.metrics.set("batch_p50_ms", p50 / 1e6, "ms");
            self.metrics.set("batch_p90_ms", p90 / 1e6, "ms");
        }
        self.samples.push(("batch".into(), batch.len()));
    }
}

/// Builds `key` on `g`, timing the calls into the registry. A failed
/// attempt is counted and retried with the next seed; the returned time
/// includes the failed attempts, as a caller pays for them. When every
/// attempt fails the run fails, and `None` is returned.
pub fn build(
    registry: &SchemeRegistry,
    key: &str,
    g: &Graph,
    bctx: &BuildContext,
    out: &mut Outcome,
    trace: Option<&mut Trace>,
) -> Option<(Box<dyn DynScheme>, Duration)> {
    let t = Instant::now();
    for attempt in 0..BUILD_ATTEMPTS {
        out.attempted += 1;
        let ctx = BuildContext {
            seed: bctx.seed.wrapping_add(attempt),
            ..*bctx
        };
        match registry.build(key, g, &ctx) {
            Ok(scheme) => {
                let took = t.elapsed();
                if let Some(trace) = trace {
                    *trace.build_s.entry(key.to_string()).or_default() += took.as_secs_f64();
                    trace
                        .table_words
                        .insert(key.to_string(), table_words_max(scheme.as_ref()));
                }
                return Some((scheme, took));
            }
            Err(e) => {
                out.failed += 1;
                out.retried
                    .push(format!("build of {key} (seed {}) failed: {e}", ctx.seed));
            }
        }
    }
    out.violations
        .0
        .push(format!("build of {key} failed {BUILD_ATTEMPTS} times"));
    None
}

/// The largest per-vertex routing table of `scheme`, in words.
pub fn table_words_max(scheme: &dyn DynScheme) -> usize {
    (0..scheme.n() as u32)
        .map(|v| scheme.table_words(VertexId(v)))
        .max()
        .unwrap_or(0)
}

/// Stretch, header and table sizes of a workload's routes and schemes.
///
/// The gated metrics are means: across seeds a maximum over one instance
/// swings by 10-20%, a mean by about 1%. The paper's worst-case stretch
/// bounds are enforced pair by pair by the correctness checks instead, and
/// the maxima are printed with the provenance.
#[derive(Debug, Default)]
pub struct Quality {
    stretch_sum: f64,
    stretch_n: usize,
    stretch_max: f64,
    header_sum: usize,
    header_n: usize,
    header_max: usize,
    table_mean: f64,
    table_max: usize,
    schemes: usize,
}

impl Quality {
    /// One routed pair against its true distance.
    pub fn stretch(&mut self, routed: Weight, dist: Weight) {
        if dist > 0 {
            let s = routed as f64 / dist as f64;
            self.stretch_sum += s;
            self.stretch_n += 1;
            self.stretch_max = self.stretch_max.max(s);
        }
    }

    /// The largest in-flight header of one routed query.
    pub fn header(&mut self, words: usize) {
        self.header_sum += words;
        self.header_n += 1;
        self.header_max = self.header_max.max(words);
    }

    /// One built scheme's tables.
    pub fn tables(&mut self, scheme: &dyn DynScheme) {
        let words: Vec<usize> = (0..scheme.n() as u32)
            .map(|v| scheme.table_words(VertexId(v)))
            .collect();
        self.table_mean += words.iter().sum::<usize>() as f64 / words.len().max(1) as f64;
        self.table_max += words.iter().copied().max().unwrap_or(0);
        self.schemes += 1;
    }

    /// Sets `stretch_mean`, `header_words_mean` and `table_words_mean` (the
    /// mean per-vertex table, summed over the schemes; averaged over
    /// `instances` when several instances were measured).
    pub fn finish(self, out: &mut Outcome, instances: usize) {
        let per = |num: f64, den: usize| if den == 0 { 0.0 } else { num / den as f64 };
        let k = instances.max(1);
        out.metrics.set(
            "stretch_mean",
            per(self.stretch_sum, self.stretch_n),
            "ratio",
        );
        out.metrics.set(
            "header_words_mean",
            per(self.header_sum as f64, self.header_n),
            "words",
        );
        out.metrics
            .set("table_words_mean", self.table_mean / k as f64, "words");
        out.info.push(("stretch_max".into(), self.stretch_max));
        out.info
            .push(("header_words_max".into(), self.header_max as f64));
        out.info
            .push(("table_words_max".into(), self.table_max as f64 / k as f64));
        out.samples.push(("stretch".into(), self.stretch_n));
        out.samples.push(("header".into(), self.header_n));
    }
}

/// Routes one query through `simulate_lean`, the way a caller does: one
/// `label_of` and one walk. Traced, the label and the walk are timed and
/// allocation-counted apart. Returns the outcome and the call's latency.
pub fn route_lean(
    g: &Graph,
    scheme: &dyn DynScheme,
    (u, v): (VertexId, VertexId),
    trace: Option<&mut Trace>,
) -> (Result<LeanOutcome, String>, Duration) {
    let max_hops = 4 * g.n() + 16;
    let (result, took) = match trace {
        None => {
            let t = Instant::now();
            let r = simulate_lean(g, scheme, u, v, max_hops);
            (r, t.elapsed())
        }
        Some(trace) => {
            let (label, label_took, label_allocs) = timed(|| scheme.label_of(v));
            let (r, walk_took, walk_allocs) =
                timed(|| simulate_lean_with_label(g, scheme, u, v, &label, max_hops));
            trace.label_calls += 1;
            trace.label_ns += label_took.as_nanos() as u64;
            trace.label_allocs += label_allocs;
            trace.route_calls += 1;
            trace.route_ns += walk_took.as_nanos() as u64;
            trace.route_allocs += walk_allocs;
            if let Ok(o) = &r {
                trace.route_hops += o.hops as u64;
            }
            (r, label_took + walk_took)
        }
    };
    (
        result.map_err(|e| format!("{}: routing {u}->{v} failed: {e}", scheme.name())),
        took,
    )
}
