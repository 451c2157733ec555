//! A fixed-size log-linear latency histogram (HDR-style, two significant
//! hex digits): constant-time recording, mergeable across shards, and
//! quantile queries with a bounded relative error of `1/16`.
//!
//! It lives in the telemetry crate so the serving engine and the churn and
//! bench harnesses histogram through the same type, and so the exporters in
//! [`crate::export`] have one histogram shape to render.
//!
//! Per-query latencies on the serving hot path span five orders of
//! magnitude (sub-microsecond cache hits to multi-millisecond cold routes),
//! so a linear histogram is either huge or useless. This one keeps 16
//! linear sub-buckets per power of two: every recorded value lands in a
//! bucket whose width is at most `1/16` of its lower bound, which is more
//! resolution than wall-clock jitter justifies. The whole histogram is a
//! flat `u64` array — recording is two shifts and an increment, merging is
//! element-wise addition (the engine merges per-shard histograms into the
//! aggregate tail-latency report). All accumulators saturate instead of
//! wrapping, so a merge of adversarial inputs degrades gracefully rather
//! than panicking in release builds.

/// Linear sub-buckets per octave; also the size of the initial exact range.
const SUB: usize = 16;
/// log2(SUB): values below `SUB` are recorded exactly.
const SUB_BITS: u32 = 4;
/// Octaves above the exact range (`u64` values up to `2^63`).
const OCTAVES: usize = 60;
/// Total bucket count.
const BUCKETS: usize = SUB + OCTAVES * SUB;

/// A mergeable log-linear histogram of `u64` samples (nanoseconds, by
/// convention, but any scale works).
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
    sum: u128,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram { counts: Box::new([0; BUCKETS]), total: 0, sum: 0, max: 0 }
    }

    /// The bucket index of `v`: exact below [`SUB`], log-linear above.
    fn index(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let octave = (msb - SUB_BITS) as usize;
        let offset = ((v >> (msb - SUB_BITS)) & (SUB as u64 - 1)) as usize;
        (SUB + octave * SUB + offset).min(BUCKETS - 1)
    }

    /// The largest value that maps to bucket `idx` (the value a quantile
    /// query reports for samples in that bucket).
    fn upper_bound(idx: usize) -> u64 {
        if idx < SUB {
            return idx as u64;
        }
        let octave = ((idx - SUB) / SUB) as u32;
        let offset = ((idx - SUB) % SUB) as u128;
        // The bucket covers [ (16+offset) << octave, (16+offset+1) << octave );
        // the top bucket's bound exceeds u64, so compute wide and saturate.
        let bound = ((SUB as u128 + offset + 1) << octave) - 1;
        bound.min(u64::MAX as u128) as u64
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` samples of value `v` in one constant-time update.
    ///
    /// All accumulators saturate: a count that would overflow `u64` pins at
    /// `u64::MAX`, and the running sum pins at `u128::MAX` — quantiles and
    /// the maximum stay exact, only `mean` degrades (this is the designed
    /// behavior for pathological inputs, pinned by the saturation tests).
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let slot = &mut self.counts[Self::index(v)];
        *slot = slot.saturating_add(n);
        self.total = self.total.saturating_add(n);
        self.sum = self.sum.saturating_add((v as u128).saturating_mul(n as u128));
        self.max = self.max.max(v);
    }

    /// Adds every sample of `other` into `self` (exact: bucket counts add,
    /// saturating on overflow).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
        self.total = self.total.saturating_add(other.total);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all recorded samples (exact until saturation).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean of the recorded samples (exact, from the running sum), or
    /// `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        Some(self.sum as f64 / self.total as f64)
    }

    /// The largest recorded sample (exact), or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        if self.total == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the bucket
    /// holding the target sample — within `1/16` relative error of the true
    /// order statistic, clamped to the exact maximum. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // The rank of the target sample, 1-based; q=0 hits the first.
        let target = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= target {
                return Some(Self::upper_bound(idx).min(self.max));
            }
        }
        Some(self.max)
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.total)
            .field("mean", &self.mean())
            .field("p50", &self.quantile(0.5))
            .field("p99", &self.quantile(0.99))
            .field("max", &self.max())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_none() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.mean(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 1, 2, 3, 15, 15, 15] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(1.0), Some(15));
        assert_eq!(h.max(), Some(15));
        assert_eq!(h.mean(), Some(51.0 / 7.0));
    }

    #[test]
    fn quantiles_are_within_one_sixteenth() {
        let mut h = LatencyHistogram::new();
        // 1..=100_000: the true q-quantile is q * 100_000.
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for q in [0.5, 0.9, 0.99, 0.999] {
            let want = q * 100_000.0;
            let got = h.quantile(q).unwrap() as f64;
            assert!(
                got >= want * (1.0 - 1.0 / 16.0) && got <= want * (1.0 + 1.0 / 8.0),
                "q={q}: got {got}, want ~{want}"
            );
        }
        assert_eq!(h.quantile(1.0), Some(100_000));
    }

    #[test]
    fn quantile_accuracy_on_a_skewed_distribution() {
        // Geometric-ish tail: 10^k appearing 10^(5-k) times. The exact
        // order statistics are computable by hand from the cumulative
        // counts; each reported quantile must stay within the 1/16 bucket
        // error of the true sample value.
        let mut h = LatencyHistogram::new();
        for (v, n) in [(10u64, 100_000u64), (100, 10_000), (1_000, 1_000), (10_000, 100), (100_000, 10)] {
            h.record_n(v, n);
        }
        assert_eq!(h.count(), 111_110);
        // Ranks: 1..=100_000 -> 10; ..=110_000 -> 100; ..=111_000 -> 1_000; ...
        for (q, want) in [(0.5, 10u64), (0.9, 10), (0.95, 100), (0.999, 1_000), (1.0, 100_000)] {
            let got = h.quantile(q).unwrap();
            let lo = want - want / 16;
            let hi = want + want / 8;
            assert!(got >= lo && got <= hi, "q={q}: got {got}, want ~{want}");
        }
        let mean = h.mean().unwrap();
        let true_mean = (10.0 * 1e5 + 100.0 * 1e4 + 1e3 * 1e3 + 1e4 * 1e2 + 1e5 * 10.0) / 111_110.0;
        assert!((mean - true_mean).abs() < 1e-6, "mean {mean} vs {true_mean}");
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut bulk = LatencyHistogram::new();
        let mut loop_ = LatencyHistogram::new();
        for (v, n) in [(0u64, 3u64), (17, 5), (9_000, 2), (1 << 40, 4)] {
            bulk.record_n(v, n);
            for _ in 0..n {
                loop_.record(v);
            }
        }
        bulk.record_n(123, 0); // no-op
        assert_eq!(bulk.count(), loop_.count());
        assert_eq!(bulk.sum(), loop_.sum());
        assert_eq!(bulk.max(), loop_.max());
        for q in [0.0, 0.3, 0.5, 0.9, 1.0] {
            assert_eq!(bulk.quantile(q), loop_.quantile(q), "q={q}");
        }
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut both = LatencyHistogram::new();
        for v in [7u64, 130, 9_000, 1 << 40] {
            a.record(v);
            both.record(v);
        }
        for v in [1u64, 250_000, u64::MAX / 2] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.mean(), both.mean());
        assert_eq!(a.max(), both.max());
        for q in [0.1, 0.5, 0.9, 1.0] {
            assert_eq!(a.quantile(q), both.quantile(q));
        }
    }

    /// Structural equality strong enough for the algebra tests: every
    /// observable (count, sum, max, a quantile sweep) must agree.
    fn assert_equivalent(x: &LatencyHistogram, y: &LatencyHistogram, what: &str) {
        assert_eq!(x.count(), y.count(), "{what}: count");
        assert_eq!(x.sum(), y.sum(), "{what}: sum");
        assert_eq!(x.max(), y.max(), "{what}: max");
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            assert_eq!(x.quantile(q), y.quantile(q), "{what}: quantile {q}");
        }
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        let mk = |values: &[u64]| {
            let mut h = LatencyHistogram::new();
            for &v in values {
                h.record(v);
            }
            h
        };
        let a = mk(&[1, 50, 3_000, 1 << 30]);
        let b = mk(&[2, 2, 900_000]);
        let c = mk(&[u64::MAX, 0, 17, 17, 17]);

        // Commutativity: a ⊕ b == b ⊕ a.
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_equivalent(&ab, &ba, "commutativity");

        // Associativity: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_equivalent(&ab_c, &a_bc, "associativity");
    }

    #[test]
    fn huge_values_do_not_overflow_the_bucket_table() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(1 << 62);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), Some(u64::MAX));
        // Quantiles clamp to the exact recorded maximum.
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
    }

    #[test]
    fn sum_saturates_at_u128_max_instead_of_wrapping() {
        let mut h = LatencyHistogram::new();
        // u64::MAX * u64::MAX samples: the count saturates at u64::MAX and
        // the sum at u128::MAX - (no panic, no wrap, max exact).
        h.record_n(u64::MAX, u64::MAX);
        let first_sum = h.sum();
        assert_eq!(first_sum, (u64::MAX as u128) * (u64::MAX as u128));
        h.record_n(u64::MAX, u64::MAX);
        h.record_n(u64::MAX, u64::MAX);
        assert_eq!(h.count(), u64::MAX, "count saturates");
        assert_eq!(h.sum(), u128::MAX, "sum saturates");
        assert_eq!(h.max(), Some(u64::MAX));
        assert_eq!(h.quantile(0.5), Some(u64::MAX));
        // Merging two saturated histograms also saturates instead of
        // wrapping (mean degrades gracefully; quantiles stay exact).
        let other = h.clone();
        h.merge(&other);
        assert_eq!(h.count(), u64::MAX);
        assert_eq!(h.sum(), u128::MAX);
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
        assert!(h.mean().unwrap() > 0.0);
    }

    #[test]
    fn debug_is_compact() {
        let mut h = LatencyHistogram::new();
        h.record(42);
        let s = format!("{h:?}");
        assert!(s.contains("count: 1"), "{s}");
    }
}
