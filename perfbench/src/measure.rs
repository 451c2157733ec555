//! Measurement plumbing shared by the workloads: metric maps, exact
//! percentiles, the process high-water mark, the counting allocator and the
//! bench-side spans of the traced run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Named metric values with their units, in name order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<(f64, &'static str)> {
        self.0.get(name).copied()
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }
}

/// Exact latency samples in nanoseconds. Percentiles are read from the
/// sorted samples (nearest rank), never from histogram buckets, so two runs
/// only agree to the last digit when they really measured the same times.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_nanos() as u64);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum_ns(&self) -> u64 {
        self.0.iter().sum()
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    /// `(p50, p90)` in nanoseconds, or `None` without samples. The tail is
    /// read at p90: on a small shared machine p99 follows the host's stalls
    /// and swung up to twofold between runs of the same inputs.
    pub fn p50_p90(&mut self) -> Option<(f64, f64)> {
        if self.0.is_empty() {
            return None;
        }
        self.0.sort_unstable();
        Some((self.rank(0.50), self.rank(0.90)))
    }

    fn rank(&self, q: f64) -> f64 {
        let n = self.0.len();
        let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        self.0[idx] as f64
    }
}

/// The samples of one window of a timed phase.
#[derive(Debug, Default)]
pub struct Window {
    /// Queries completed and the time spent routing them.
    pub queries: u64,
    pub busy_s: f64,
    pub query: Samples,
    pub batch: Samples,
}

/// A timed phase cut into fixed windows. Each metric is read per window and
/// the median over windows is reported, so a burst of machine noise moves
/// one window, not the result.
#[derive(Debug)]
pub struct Windows {
    start: Instant,
    len_s: f64,
    windows: Vec<Window>,
}

impl Windows {
    /// Windows of `len_s` seconds from now, as many as fit in `seconds`
    /// (at least one; the last one absorbs the remainder).
    pub fn new(seconds: f64, len_s: f64) -> Self {
        let count = ((seconds / len_s).floor() as usize).max(1);
        Windows {
            start: Instant::now(),
            len_s,
            windows: (0..count).map(|_| Window::default()).collect(),
        }
    }

    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// The window the phase is in now.
    pub fn current(&mut self) -> &mut Window {
        let i = ((self.elapsed_s() / self.len_s) as usize).min(self.windows.len() - 1);
        &mut self.windows[i]
    }

    /// Queries routed and seconds spent routing them, all windows pooled.
    pub fn totals(&self) -> (u64, f64) {
        self.windows
            .iter()
            .fold((0, 0.0), |(q, s), w| (q + w.queries, s + w.busy_s))
    }

    /// Sets `route_qps` and the four latency metrics as medians over the
    /// windows that routed anything.
    pub fn report(mut self, out: &mut crate::workloads::Outcome) {
        self.windows.retain(|w| w.queries > 0);
        // Per window: qps, query p50 and p90, batch p50 and p90.
        let mut per: [Vec<f64>; 5] = Default::default();
        for w in &mut self.windows {
            let (Some(q), Some(b)) = (w.query.p50_p90(), w.batch.p50_p90()) else {
                continue;
            };
            let values = [w.queries as f64 / w.busy_s, q.0, q.1, b.0, b.1];
            for (v, x) in per.iter_mut().zip(values) {
                v.push(x);
            }
        }
        let m = &mut out.metrics;
        m.set("route_qps", median(&per[0]), "queries/s");
        m.set("query_p50_us", median(&per[1]) / 1e3, "us");
        m.set("query_p90_us", median(&per[2]) / 1e3, "us");
        m.set("batch_p50_ms", median(&per[3]) / 1e6, "ms");
        m.set("batch_p90_ms", median(&per[4]) / 1e6, "ms");
        let ws = &self.windows;
        out.samples.push(("windows".into(), ws.len()));
        let min_query = ws.iter().map(|w| w.query.len()).min().unwrap_or(0);
        let min_batch = ws.iter().map(|w| w.batch.len()).min().unwrap_or(0);
        out.samples.push(("query_per_window_min".into(), min_query));
        out.samples.push(("batch_per_window_min".into(), min_batch));
    }
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Counts heap allocations while counting is switched on, and delegates
/// every call to the system allocator. Only the traced run switches it on;
/// untraced runs pay one relaxed load per allocation.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

impl CountingAlloc {
    fn count() {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter updates touch no memory
// the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        // SAFETY: `ptr` was allocated by `System` through this wrapper with
        // `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Switches allocation counting on or off (process-wide).
pub fn set_alloc_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The bench-side spans of a traced pass: wall time, calls and allocations
/// around each public call the workloads make. Untraced passes carry none.
#[derive(Debug, Default)]
pub struct Trace {
    /// Registry build wall time per key, summed over the pass's builds.
    pub build_s: BTreeMap<String, f64>,
    /// Largest per-vertex table per key.
    pub table_words: BTreeMap<String, usize>,
    pub label_calls: u64,
    pub label_ns: u64,
    pub label_allocs: u64,
    pub route_calls: u64,
    pub route_ns: u64,
    pub route_hops: u64,
    pub route_allocs: u64,
    pub stale_pairs: u64,
    pub stale_ns: u64,
    pub stale_budget_loops: u64,
}

/// Runs `f` and returns its result with the elapsed time and the number of
/// allocations it made.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration, u64) {
    let a = allocations();
    let t = Instant::now();
    let r = f();
    let d = t.elapsed();
    (r, d, allocations() - a)
}

impl Trace {
    /// Per-layer metrics derived from the bench-side spans.
    pub fn metrics(&self, keys: &[&str]) -> Metrics {
        let mut m = Metrics::default();
        let per = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        for key in keys {
            m.set(
                format!("{key}.build_s"),
                self.build_s.get(*key).copied().unwrap_or(0.0),
                "s",
            );
            let words = self.table_words.get(*key).copied().unwrap_or(0);
            m.set(format!("{key}.table_words_max"), words as f64, "words");
        }
        m.set(
            "model.ns_per_hop",
            per(self.route_ns, self.route_hops),
            "ns",
        );
        m.set(
            "model.hops_per_query",
            per(self.route_hops, self.route_calls),
            "hops",
        );
        m.set(
            "model.label_of_ns",
            per(self.label_ns, self.label_calls),
            "ns",
        );
        m.set(
            "model.allocs_per_query",
            per(self.route_allocs, self.route_calls),
            "count",
        );
        m.set(
            "model.allocs_per_label",
            per(self.label_allocs, self.label_calls),
            "count",
        );
        m.set(
            "model.stale_ns_per_pair",
            per(self.stale_ns, self.stale_pairs),
            "ns",
        );
        m.set(
            "model.stale_budget_loops",
            self.stale_budget_loops as f64,
            "count",
        );
        m
    }
}
