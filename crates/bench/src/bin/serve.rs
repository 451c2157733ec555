//! Experiment E-SERVE: throughput and tail latency of the sharded
//! concurrent query engine (`routing-serve`) against the single-threaded
//! `simulate` loop that produced the BENCH_5 scheme rows.
//!
//! Per shard count the binary starts a [`ShardedEngine`], drives it with
//! `--readers` concurrent reader threads pulling Zipf-skewed batches from
//! seeded [`ZipfWorkload`]s while a writer performs `--swaps` epoch swaps
//! under the load, and reports aggregate + per-shard queries/second and
//! p50/p99/p999 latency from the engine's merged shard histograms. A
//! `single-thread` row measured with exactly the BENCH_5 methodology (one
//! `simulate` call per query, same machine, same run) anchors the
//! comparison; each `serve` row carries its speedup against that anchor.
//!
//! The engine's throughput edge on a small machine is *not* parallelism
//! (CI runs this on one core): it is the batched lean path — no per-query
//! path allocation, one snapshot load per batch, and one label erasure per
//! destination run in a dest-sorted batch — which is exactly what the
//! serving layer exists to amortize.
//!
//! With `--verify` the binary additionally routes a sample of pairs
//! through both the engine (post-swap, quiescent) and the direct
//! simulator and exits non-zero on any divergence or latency-accounting
//! mismatch — the CI smoke mode.
//!
//! Run with: `cargo run -p routing-bench --release --bin serve -- [OPTIONS]`
//!
//! # Options
//!
//! | flag | default | meaning |
//! |------|---------|---------|
//! | `--n <N>` | `10000` | vertex count |
//! | `--scheme <KEY>` | `tz2` | registered scheme to serve |
//! | `--shards <LIST>` | `1,2,4` | comma list of shard counts |
//! | `--readers <R>` | `2` | concurrent reader threads |
//! | `--queries <Q>` | `100000` | queries per shard-count run |
//! | `--batch <B>` | `1024` | queries per batch |
//! | `--swaps <K>` | `2` | epoch swaps performed under load |
//! | `--zipf <S>` | `0.99` | Zipf exponent of the load |
//! | `--family <F>` | `erdos-renyi` | graph family |
//! | `--seed <S>` | `13` | master seed |
//! | `--reps <R>` | `3` | repetitions per configuration (best-of, damps machine noise) |
//! | `--json <PATH>` | — | write every row as a JSON array (`BENCH_7.json`) |
//! | `--metrics <PATH>` | — | enable telemetry counters; write Prometheus text exposition at exit |
//! | `--verify` | off | equivalence + accounting self-check, non-zero exit on failure |
//! | `--help` | — | print this table |
//!
//! The committed `BENCH_7.json` at the repository root is this binary's
//! output with default flags plus `--verify`.

use std::sync::Arc;
use std::time::Instant;

use compact_routing::registry::SchemeRegistry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use routing_bench::cli::{self, Args, CliError};
use routing_core::BuildContext;
use routing_graph::generators::{Family, WeightModel};
use routing_graph::Graph;
use routing_model::{simulate, DynScheme};
use routing_obs::LatencyHistogram;
use routing_serve::{EngineConfig, ShardedEngine, ZipfWorkload};
use serde::Serialize;

struct Options {
    n: usize,
    scheme: String,
    shards: Vec<usize>,
    readers: usize,
    queries: usize,
    batch: usize,
    swaps: u64,
    zipf: f64,
    family: Family,
    seed: u64,
    reps: usize,
    json: Option<String>,
    metrics: Option<String>,
    verify: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            n: 10_000,
            scheme: "tz2".into(),
            shards: vec![1, 2, 4],
            readers: 2,
            queries: 100_000,
            batch: 1024,
            swaps: 2,
            zipf: 0.99,
            family: Family::ErdosRenyi,
            seed: 13,
            reps: 3,
            json: None,
            metrics: None,
            verify: false,
        }
    }
}

/// One measurement row of the serving benchmark.
#[derive(Debug, Clone, Serialize)]
struct Row {
    /// `"single-thread"` (the BENCH_5-methodology anchor) or `"serve"`.
    kind: String,
    n: usize,
    m: usize,
    scheme: String,
    /// Worker shards (`null` for the anchor row).
    shards: Option<usize>,
    /// Concurrent reader threads (`null` for the anchor row).
    readers: Option<usize>,
    /// Queries per batch (`null` for the anchor row).
    batch: Option<usize>,
    /// Zipf exponent of the load.
    zipf: f64,
    /// Total routed queries.
    queries: usize,
    /// Wall-clock of the whole run, milliseconds.
    route_ms: f64,
    /// Aggregate routed queries per second.
    queries_per_sec: f64,
    /// `queries_per_sec / anchor queries_per_sec` (serve rows).
    speedup_vs_single: Option<f64>,
    /// Epoch swaps performed under load (serve rows).
    swaps: Option<u64>,
    /// Final published epoch after the run (serve rows).
    final_epoch: Option<u64>,
    /// Aggregate latency quantiles, nanoseconds (serve rows).
    p50_ns: Option<u64>,
    /// 99th percentile, nanoseconds.
    p99_ns: Option<u64>,
    /// 99.9th percentile, nanoseconds.
    p999_ns: Option<u64>,
    /// Mean per-query latency, nanoseconds.
    mean_ns: Option<f64>,
    /// Per-shard queries/second, indexed by shard (serve rows).
    per_shard_qps: Option<Vec<f64>>,
    /// Set by `--verify`: engine answers matched the direct simulator and
    /// the histograms accounted for every query.
    verified: Option<bool>,
}

fn usage() -> ! {
    print_usage();
    std::process::exit(2)
}

fn print_usage() {
    // Keep this text in sync with the module doc table above and README.md.
    eprintln!(
        "serve — sharded concurrent query engine: throughput + tail latency vs single-thread

USAGE: serve [OPTIONS]

OPTIONS:
  --n <N>                 vertex count                           [default: 10000]
  --scheme <KEY>          registered scheme to serve             [default: tz2]
  --shards <LIST>         comma list of shard counts             [default: 1,2,4]
  --readers <R>           concurrent reader threads              [default: 2]
  --queries <Q>           queries per shard-count run            [default: 100000]
  --batch <B>             queries per batch                      [default: 1024]
  --swaps <K>             epoch swaps performed under load       [default: 2]
  --zipf <S>              Zipf exponent of the load              [default: 0.99]
  --family <F>            erdos-renyi|geometric|grid|scale-free  [default: erdos-renyi]
  --seed <S>              master seed                            [default: 13]
  --reps <R>              repetitions per config (best-of)       [default: 3]
  --json <PATH>           write all rows as a JSON array
  --metrics <PATH>        enable the telemetry counters and write a Prometheus
                          text exposition of every metric at end of run
  --verify                equivalence + accounting self-check (non-zero exit on failure)
  --help                  show this help"
    );
}

fn parse_options(registry: &SchemeRegistry) -> Options {
    let mut opts = Options::default();
    let mut args = Args::from_env();
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--help" | "-h" => {
                print_usage();
                std::process::exit(0);
            }
            "--verify" => {
                opts.verify = true;
                continue;
            }
            _ => {}
        }
        let value = cli::ok_or_usage(args.value(&flag), usage);
        match flag.as_str() {
            "--n" => {
                opts.n =
                    cli::ok_or_usage(cli::parse_value(&flag, &value, "expected an integer"), usage)
            }
            "--scheme" => {
                let known = registry.names();
                let picked =
                    cli::ok_or_usage(cli::parse_schemes(&flag, &value, &known), usage);
                opts.scheme = picked.into_iter().next().unwrap_or_else(|| "tz2".into());
            }
            "--shards" => {
                opts.shards = cli::ok_or_usage(cli::parse_usize_list(&flag, &value), usage)
            }
            "--readers" => {
                opts.readers =
                    cli::ok_or_usage(cli::parse_value(&flag, &value, "expected an integer"), usage)
            }
            "--queries" => {
                opts.queries =
                    cli::ok_or_usage(cli::parse_value(&flag, &value, "expected an integer"), usage)
            }
            "--batch" => {
                opts.batch =
                    cli::ok_or_usage(cli::parse_value(&flag, &value, "expected an integer"), usage)
            }
            "--swaps" => {
                opts.swaps =
                    cli::ok_or_usage(cli::parse_value(&flag, &value, "expected an integer"), usage)
            }
            "--zipf" => {
                opts.zipf =
                    cli::ok_or_usage(cli::parse_value(&flag, &value, "expected a float"), usage)
            }
            "--family" => opts.family = cli::ok_or_usage(cli::parse_family(&flag, &value), usage),
            "--seed" => {
                opts.seed =
                    cli::ok_or_usage(cli::parse_value(&flag, &value, "expected an integer"), usage)
            }
            "--reps" => {
                opts.reps =
                    cli::ok_or_usage(cli::parse_value(&flag, &value, "expected an integer"), usage)
            }
            "--json" => opts.json = Some(value),
            "--metrics" => opts.metrics = Some(value),
            _ => cli::die(CliError::UnknownFlag { flag }, usage),
        }
    }
    if opts.batch == 0 || opts.queries == 0 || opts.readers == 0 || opts.reps == 0 {
        cli::die(
            CliError::Invalid {
                flag: "--batch/--queries/--readers".into(),
                value: "0".into(),
                what: "batch, queries, readers and reps must be positive".into(),
            },
            usage,
        )
    }
    opts
}

/// The anchor: the exact BENCH_5 scheme-row methodology (one full
/// `simulate` per query, single thread), over this run's own Zipf stream so
/// the comparison shares the query distribution.
fn measure_single_thread(g: &Graph, scheme: &dyn DynScheme, opts: &Options) -> Row {
    let mut load = ZipfWorkload::new(g.n(), opts.zipf, opts.seed ^ 0x51);
    let pairs = load.next_batch(opts.queries);
    let t = Instant::now();
    for &(u, v) in &pairs {
        let out = simulate(g, scheme, u, v).expect("scheme routes its own graph");
        debug_assert_eq!(out.destination(), v);
    }
    let route_ms = t.elapsed().as_secs_f64() * 1e3;
    Row {
        kind: "single-thread".into(),
        n: g.n(),
        m: g.m(),
        scheme: scheme.name().to_string(),
        shards: None,
        readers: None,
        batch: None,
        zipf: opts.zipf,
        queries: pairs.len(),
        route_ms,
        queries_per_sec: pairs.len() as f64 / (route_ms / 1e3).max(1e-9),
        speedup_vs_single: None,
        swaps: None,
        final_epoch: None,
        p50_ns: None,
        p99_ns: None,
        p999_ns: None,
        mean_ns: None,
        per_shard_qps: None,
        verified: None,
    }
}

/// One serve row: drive the engine with concurrent readers and a swapping
/// writer, then read per-shard stats back. Returns the row, whether the
/// `--verify` checks passed (always true when not verifying), and the
/// merged per-query latency histogram (for the `--metrics` exposition).
fn measure_serve(
    g: &Arc<Graph>,
    scheme: &Arc<dyn DynScheme>,
    alt: &Arc<dyn DynScheme>,
    shards: usize,
    opts: &Options,
) -> (Row, bool, LatencyHistogram) {
    let engine = Arc::new(
        ShardedEngine::new(Arc::clone(g), Arc::clone(scheme), EngineConfig::with_shards(shards))
            .expect("snapshot matches the graph"),
    );

    let per_reader = opts.queries / opts.readers;
    let batches_per_reader = per_reader.div_ceil(opts.batch);
    let total_queries = batches_per_reader * opts.batch * opts.readers;

    // Pregenerate every reader's query stream: the anchor row gets its
    // pairs up front too, so workload generation stays out of both clocks.
    let streams: Vec<Vec<Vec<(routing_graph::VertexId, routing_graph::VertexId)>>> = (0..opts
        .readers)
        .map(|reader| {
            let mut load =
                ZipfWorkload::new(g.n(), opts.zipf, opts.seed ^ ((reader as u64) << 8));
            (0..batches_per_reader).map(|_| load.next_batch(opts.batch)).collect()
        })
        .collect();

    let t = Instant::now();
    std::thread::scope(|scope| {
        // Writer: spread `--swaps` publications across the run. The swap
        // alternates between the alternate build and the original so every
        // epoch is a real table change.
        scope.spawn(|| {
            for s in 0..opts.swaps {
                std::thread::sleep(std::time::Duration::from_millis(2));
                let next = if s % 2 == 0 { alt } else { scheme };
                engine
                    .publish(Arc::clone(g), Arc::clone(next))
                    .expect("published snapshot matches the engine");
            }
        });
        for stream in &streams {
            let engine = Arc::clone(&engine);
            scope.spawn(move || {
                for pairs in stream {
                    for answer in engine.route_batch(pairs) {
                        answer.expect("scheme routes its own graph");
                    }
                }
            });
        }
    });
    let route_ms = t.elapsed().as_secs_f64() * 1e3;

    let stats = engine.stats();
    let mut aggregate = LatencyHistogram::new();
    for s in &stats {
        aggregate.merge(&s.latency);
    }
    let wall_s = (route_ms / 1e3).max(1e-9);
    let per_shard_qps: Vec<f64> = stats.iter().map(|s| s.queries as f64 / wall_s).collect();

    let mut ok = true;
    let routed: u64 = stats.iter().map(|s| s.queries).sum();
    if routed != total_queries as u64 || aggregate.count() != routed {
        eprintln!(
            "ACCOUNTING FAILURE ({shards} shards): {routed} routed, {} in histograms, {} driven",
            aggregate.count(),
            total_queries
        );
        ok = false;
    }
    if stats.iter().map(|s| s.errors).sum::<u64>() != 0 {
        eprintln!("ACCOUNTING FAILURE ({shards} shards): errors under load");
        ok = false;
    }
    if opts.verify {
        // Quiescent equivalence: after the writer is done, engine answers
        // must be bit-identical to the direct simulator on the current
        // snapshot.
        let snap = engine.snapshot();
        let mut load = ZipfWorkload::new(g.n(), opts.zipf, opts.seed ^ 0x7e);
        let sample = load.next_batch(512.min(opts.queries));
        for (answer, &(u, v)) in engine.route_batch(&sample).iter().zip(&sample) {
            let got = match answer {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("VERIFY FAILURE: engine failed {u:?}->{v:?}: {e}");
                    ok = false;
                    break;
                }
            };
            let want = simulate(g, snap.scheme(), u, v).expect("direct routing succeeds");
            if got.weight != want.weight
                || got.hops != want.hops
                || got.max_header_words != want.max_header_words
            {
                eprintln!(
                    "VERIFY FAILURE: {u:?}->{v:?} engine={got:?} direct=(w={}, hops={})",
                    want.weight, want.hops
                );
                ok = false;
            }
        }
    }

    let row = Row {
        kind: "serve".into(),
        n: g.n(),
        m: g.m(),
        scheme: scheme.name().to_string(),
        shards: Some(shards),
        readers: Some(opts.readers),
        batch: Some(opts.batch),
        zipf: opts.zipf,
        queries: total_queries,
        route_ms,
        queries_per_sec: total_queries as f64 / wall_s,
        speedup_vs_single: None, // filled by the caller against the anchor
        swaps: Some(opts.swaps),
        final_epoch: Some(engine.epoch()),
        p50_ns: aggregate.quantile(0.5),
        p99_ns: aggregate.quantile(0.99),
        p999_ns: aggregate.quantile(0.999),
        mean_ns: aggregate.mean(),
        per_shard_qps: Some(per_shard_qps),
        verified: if opts.verify { Some(ok) } else { None },
    };
    (row, ok, aggregate)
}

fn print_row(r: &Row) {
    match r.kind.as_str() {
        "single-thread" => println!(
            "{:>6} {:<14} {:>7} {:>12.0}/s            (anchor: direct simulate loop)",
            r.n, r.scheme, r.queries, r.queries_per_sec,
        ),
        _ => println!(
            "{:>6} {:<14} {:>7} {:>12.0}/s  x{:<5.2} p50={}ns p99={}ns p999={}ns",
            r.n,
            format!("{}@{}sh", r.scheme, r.shards.unwrap_or(0)),
            r.queries,
            r.queries_per_sec,
            r.speedup_vs_single.unwrap_or(0.0),
            r.p50_ns.unwrap_or(0),
            r.p99_ns.unwrap_or(0),
            r.p999_ns.unwrap_or(0),
        ),
    }
}

fn main() {
    let registry = SchemeRegistry::with_defaults();
    let opts = parse_options(&registry);
    if opts.metrics.is_some() {
        // Counters stay one relaxed load when this is off; --metrics opts
        // into the real increments for the whole run.
        routing_obs::set_metrics(true);
    }

    let mut rng = StdRng::seed_from_u64(opts.seed);
    let g = Arc::new(opts.family.generate(
        opts.n,
        WeightModel::Uniform { lo: 1, hi: 32 },
        &mut rng,
    ));
    eprintln!(
        "generated {:?} graph: n={} m={}; building {} (+ alternate epoch build)…",
        opts.family,
        g.n(),
        g.m(),
        opts.scheme
    );

    let ctx = BuildContext { seed: opts.seed, threads: 1, ..BuildContext::default() };
    let scheme: Arc<dyn DynScheme> =
        Arc::from(registry.build(&opts.scheme, &g, &ctx).unwrap_or_else(|e| {
            eprintln!("build failed: scheme={}: {e}", opts.scheme);
            std::process::exit(1);
        }));
    // The alternate build the writer swaps in: same scheme, different seed,
    // so published epochs carry genuinely different tables.
    let alt_ctx = BuildContext { seed: opts.seed ^ 0xa17, threads: 1, ..BuildContext::default() };
    let alt: Arc<dyn DynScheme> =
        Arc::from(registry.build(&opts.scheme, &g, &alt_ctx).unwrap_or_else(|e| {
            eprintln!("alternate build failed: scheme={}: {e}", opts.scheme);
            std::process::exit(1);
        }));

    println!(
        "{:>6} {:<14} {:>7} {:>14} {:>7}",
        "n", "config", "queries", "throughput", "speedup"
    );

    // Best-of-`reps` per configuration: wall-clock on shared machines
    // swings by 2-3x on a seconds timescale, and best-of is the standard
    // way to ask "what can this code do" rather than "what was the noisy
    // neighbor doing".
    let anchor = (0..opts.reps)
        .map(|_| measure_single_thread(&g, scheme.as_ref(), &opts))
        .max_by(|a, b| a.queries_per_sec.total_cmp(&b.queries_per_sec))
        .expect("reps >= 1");
    print_row(&anchor);

    let mut rows = vec![anchor.clone()];
    let mut all_ok = true;
    let mut merged_latency = LatencyHistogram::new();
    for &shards in &opts.shards {
        let mut best: Option<Row> = None;
        for _ in 0..opts.reps {
            let (row, ok, latency) = measure_serve(&g, &scheme, &alt, shards.max(1), &opts);
            all_ok &= ok;
            merged_latency.merge(&latency);
            if best.as_ref().is_none_or(|b| row.queries_per_sec > b.queries_per_sec) {
                best = Some(row);
            }
        }
        let mut row = best.expect("reps >= 1");
        row.speedup_vs_single = Some(row.queries_per_sec / anchor.queries_per_sec);
        print_row(&row);
        rows.push(row);
    }

    if let Some(path) = &opts.json {
        let json = serde_json::to_string_pretty(&rows).expect("rows serialize");
        std::fs::write(path, json + "\n").expect("write json output");
        eprintln!("wrote {} rows to {path}", rows.len());
    }

    if let Some(path) = &opts.metrics {
        // Every registered counter (zeros included, so the series set is
        // stable for scrapers), plus this run's throughput gauges and the
        // merged latency histogram.
        let mut set = routing_obs::MetricSet::gather();
        let best_qps = rows
            .iter()
            .filter(|r| r.kind == "serve")
            .map(|r| r.queries_per_sec)
            .fold(0.0f64, f64::max);
        set.gauge("serve_qps", "best aggregate routed queries per second across serve rows", best_qps);
        set.gauge(
            "serve_single_thread_qps",
            "anchor row: direct simulate loop, queries per second",
            anchor.queries_per_sec,
        );
        set.histogram(
            "serve_latency_ns",
            "per-query latency under load, all serve repetitions merged",
            &merged_latency,
        );
        std::fs::write(path, routing_obs::export::prometheus(&set)).expect("write metrics output");
        eprintln!("wrote {} metric series to {path}", set.len());
    }

    if !all_ok {
        eprintln!("serve: FAILED (equivalence or accounting check, see above)");
        std::process::exit(1);
    }
}
