//! The repository benchmark: one command that runs a named workload
//! closed-loop, checks every answer, and prints its metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--negative-control]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of `BENCHMARK.json`. `--trace 1`
//! runs the workload twice at half length, untraced and then traced (span
//! profiler, counters and allocation counting on), and prints the per-layer
//! metrics; `obs.overhead_frac` is the traced pass's cost per unit of work
//! over the untraced pass's. `--negative-control` swaps every stretch bound
//! for an impossible one, so the run must fail its checks and exit 1.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it holds
//! the run's provenance. Exit codes: 0 correct, 1 a check failed, 2 bad
//! arguments or a metric missing from the run.

mod checks;
mod inputs;
mod measure;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use compact_routing::registry::SchemeRegistry;
use routing_obs::{counters, SpanNode};

use measure::{peak_rss_mib, CountingAlloc, Metrics, Trace};
use workloads::{Ctx, Outcome};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The benchmark's declaration, compiled in so the printed metrics cannot
/// drift from it.
const DECLARATION: &str = include_str!("../../BENCHMARK.json");

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    negative_control: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut negative_control = false;
    while let Some(flag) = args.next() {
        if flag == "--negative-control" {
            negative_control = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad(&"must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        negative_control,
    })
}

/// `(name, unit)` of every metric in one section of the declaration.
fn declared(section: &str) -> Result<Vec<(String, String)>, String> {
    let decl = serde_json::from_str(DECLARATION).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = decl
        .get(section)
        .and_then(|v| v.as_seq())
        .ok_or(format!("no {section}"))?;
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(|v| v.as_str()).map(str::to_string);
            Ok((
                field("name").ok_or("metric without name")?,
                field("unit").unwrap_or_default(),
            ))
        })
        .collect()
}

fn run_workload(name: &str, ctx: &Ctx, trace: Option<&mut Trace>) -> Option<Outcome> {
    Some(match name {
        "build-er" => workloads::build_er::run(ctx, trace),
        "route-grid" => workloads::route_grid::run(ctx, trace),
        "serve-zipf" => workloads::serve_zipf::run(ctx, trace),
        "churn-targeted" => workloads::churn_targeted::run(ctx, trace),
        _ => return None,
    })
}

/// Span totals by path (`technique1.sequences`) as `phase.<path>_s`, and the
/// well-known counters the layers increment.
fn obs_metrics(forest: &[SpanNode]) -> Metrics {
    fn walk(nodes: &[SpanNode], prefix: &str, m: &mut Metrics) {
        for node in nodes {
            let path = if prefix.is_empty() {
                node.name.to_string()
            } else {
                format!("{prefix}.{}", node.name)
            };
            m.set(format!("phase.{path}_s"), node.total_ns as f64 / 1e9, "s");
            walk(&node.children, &path, m);
        }
    }
    let mut m = Metrics::default();
    walk(forest, "", &mut m);
    m.set(
        "graph.settled_vertices",
        counters::BUILD_SETTLED_VERTICES.get() as f64,
        "count",
    );
    m.set(
        "graph.early_exit_searches",
        counters::BUILD_EARLY_EXIT_SEARCHES.get() as f64,
        "count",
    );
    m.set(
        "graph.frontier_resumes",
        counters::BUILD_FRONTIER_RESUMES.get() as f64,
        "count",
    );
    let direct = counters::ROUTING_PHASE_DIRECT.get() as f64;
    let pivot = counters::ROUTING_PHASE_TO_PIVOT.get() as f64;
    let tree = counters::ROUTING_PHASE_TREE.get() as f64;
    let total = (direct + pivot + tree).max(1.0);
    m.set("core.phase_direct_frac", direct / total, "ratio");
    m.set("core.phase_to_pivot_frac", pivot / total, "ratio");
    m.set("core.phase_tree_frac", tree / total, "ratio");
    m
}

fn set_tracing(on: bool) {
    routing_obs::set_profiling(on);
    routing_obs::set_metrics(on);
    measure::set_alloc_counting(on);
}

/// The untraced and the traced pass of a `--trace 1` run, and the per-layer
/// metrics they give.
fn traced_run(args: &Args, ctx: &Ctx) -> Option<(Vec<Outcome>, Metrics)> {
    let untraced = run_workload(&args.workload, ctx, None)?;
    routing_obs::reset();
    routing_obs::metrics::reset_counters();
    let mut trace = Trace::default();
    set_tracing(true);
    let traced = run_workload(&args.workload, ctx, Some(&mut trace))?;
    set_tracing(false);
    let forest = routing_obs::report();
    eprint!("span tree:\n{}", routing_obs::export::spans_text(&forest));

    let mut layers = traced.metrics.clone();
    layers.extend(trace.metrics(&SchemeRegistry::with_defaults().names()));
    layers.extend(obs_metrics(&forest));
    let cost = |o: &Outcome| o.work_s / o.work_units.max(1e-9);
    layers.set(
        "obs.overhead_frac",
        cost(&traced) / cost(&untraced) - 1.0,
        "ratio",
    );
    Some((vec![untraced, traced], layers))
}

/// FNV-1a over the path and contents of every source file the benchmark
/// builds from (`Cargo.*`, `src`, `crates`, `vendor` and `perfbench`),
/// walked in sorted order from the working directory.
fn source_hash() -> u64 {
    fn walk(path: &Path, files: &mut Vec<PathBuf>) {
        if path.is_dir() {
            let mut entries: Vec<PathBuf> = std::fs::read_dir(path)
                .map(|d| d.filter_map(|e| e.ok().map(|e| e.path())).collect())
                .unwrap_or_default();
            entries.sort();
            for e in entries {
                let name = e.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if !name.starts_with('.') && name != "target" {
                    walk(&e, files);
                }
            }
        } else if path.is_file() {
            files.push(path.to_path_buf());
        }
    }
    let mut files = Vec::new();
    for root in [
        "Cargo.toml",
        "Cargo.lock",
        "BENCHMARK.json",
        "src",
        "crates",
        "vendor",
        "perfbench",
    ] {
        walk(Path::new(root), &mut files);
    }
    let mut h = inputs::Fnv::new();
    for f in files {
        for b in f.to_string_lossy().bytes() {
            h.word(u64::from(b));
        }
        for chunk in std::fs::read(&f).unwrap_or_default().chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            h.word(u64::from_le_bytes(w));
        }
    }
    h.finish()
}

/// Provenance of the run: where and from what it was measured.
fn provenance(args: &Args, outcomes: &[Outcome]) -> String {
    // A checkout without `.git` has no commit; the source hash identifies
    // what was measured either way.
    let commit = Path::new(".git")
        .exists()
        .then(|| {
            Command::new("git")
                .args(["rev-parse", "HEAD"])
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let last = outcomes.last().expect("at least one pass");
    let fingerprints: Vec<String> = last
        .fingerprints
        .0
        .iter()
        .map(|(k, h)| format!("\"{k}\": \"{h:016x}\""))
        .collect();
    let samples: Vec<String> = last
        .samples
        .iter()
        .map(|(k, n)| format!("\"{k}\": {n}"))
        .collect();
    let retried: usize = outcomes.iter().map(|o| o.retried.len()).sum();
    let info: Vec<String> = last
        .info
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v:?}"))
        .collect();
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"commit\": \"{commit}\", \"source\": \"{:016x}\", \"nproc\": {nproc}, \"profile\": \"{}\", \"rustc\": \"{}\", \
         \"retried_builds\": {retried}, \"fingerprints\": {{{}}}, \"samples\": {{{}}}, \"info\": {{{}}}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        source_hash(),
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_RUSTC"),
        fingerprints.join(", "),
        samples.join(", "),
        info.join(", "),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let known: Vec<String> = match serde_json::from_str(DECLARATION) {
        Ok(d) => d
            .get("workloads")
            .and_then(|w| w.as_seq())
            .map(|w| {
                w.iter()
                    .filter_map(|x| x.get("name")?.as_str().map(str::to_string))
                    .collect()
            })
            .unwrap_or_default(),
        Err(e) => {
            eprintln!("perfbench: BENCHMARK.json: {e}");
            return ExitCode::from(2);
        }
    };
    if !known.contains(&args.workload) {
        eprintln!(
            "perfbench: unknown workload {:?}; declared: {}",
            args.workload,
            known.join(", ")
        );
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: if args.trace {
            args.seconds / 2.0
        } else {
            args.seconds
        },
        negative_control: args.negative_control,
        trace_run: args.trace,
    };
    let (outcomes, mut produced) = if args.trace {
        match traced_run(&args, &ctx) {
            Some(r) => r,
            None => return ExitCode::from(2),
        }
    } else {
        let Some(out) = run_workload(&args.workload, &ctx, None) else {
            return ExitCode::from(2);
        };
        let metrics = out.metrics.clone();
        (vec![out], metrics)
    };
    if let Some(mib) = peak_rss_mib() {
        produced.set("peak_rss_mb", mib, "MiB");
    }

    for r in outcomes.iter().flat_map(|o| &o.retried) {
        eprintln!("RETRIED: {r}");
    }
    let violations: Vec<&String> = outcomes.iter().flat_map(|o| &o.violations.0).collect();
    let correct = violations.is_empty();
    for v in violations.iter().take(20) {
        eprintln!("CHECK FAILED: {v}");
    }
    if violations.len() > 20 {
        eprintln!("... and {} more violations", violations.len() - 20);
    }

    // Every declared metric of the section, with its declared unit. A
    // per-layer metric whose layer the workload does not run reads 0; an
    // end-to-end metric must always be measured.
    let section = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let wanted = match declared(section) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut fields = Vec::new();
    for (name, unit) in &wanted {
        let value = match produced.get(name) {
            Some((v, u)) if u == unit && v.is_finite() => v,
            Some((v, u)) => {
                eprintln!("perfbench: metric {name} measured as {v} {u}, declared in {unit}");
                return ExitCode::from(2);
            }
            None if args.trace || !correct => 0.0,
            None => {
                eprintln!("perfbench: end-to-end metric {name} was not measured");
                return ExitCode::from(2);
            }
        };
        println!("{name:<36} {value:>18.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    let attempted: u64 = outcomes.iter().map(|o| o.attempted).sum();
    let failed: u64 = outcomes.iter().map(|o| o.failed).sum();
    println!("{}", provenance(&args, &outcomes));
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
