//! The sharded engine: batched routing on the caller's thread, and
//! per-shard accounting.
//!
//! # Shard layout
//!
//! The vertex space `0..n` is partitioned into `S` contiguous ranges;
//! shard `s` **owns every query whose source it is resident for**
//! (`owner = source * S / n`): in the deployment story a shard holds the
//! routing state of its resident vertices, while destinations are
//! described by labels that travel with the query. Here the partition only
//! decides which shard's [`ShardStats`] account for a query and which
//! shard its [`RouteAnswer`] names.
//!
//! # Batched queries
//!
//! Routing reads only `(table, header, label)`, so a snapshot is an
//! immutable, `Send + Sync` object any thread can route on, and
//! [`ShardedEngine::route_batch`] routes on the calling thread. It loads
//! **one** snapshot per batch (every answer carries the same epoch),
//! groups the queries by owner shard, and routes each sub-batch in
//! destination order so consecutive queries towards the same destination
//! reuse one erased label (label erasure is the only allocation on the
//! lean query path). Concurrent readers supply the parallelism and share
//! only the snapshot and, once per sub-batch, the owner's stats lock.
//!
//! # Hot swap
//!
//! [`ShardedEngine::publish`] installs a rebuilt `(graph, scheme)` pair as
//! the next epoch without stopping traffic: in-flight batches finish on
//! the snapshot they loaded (kept alive by its `Arc`s), later batches load
//! the new one. `tests/stress.rs` drives M reader threads against
//! concurrent publishes and asserts every answer is exactly the answer of
//! *some* published epoch.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use routing_graph::{Graph, VertexId, Weight};
use routing_model::{simulate_lean_with_label, DynScheme, ErasedLabel, RouteError};
use routing_obs::LatencyHistogram;

use crate::snapshot::{EpochCell, SchemeSnapshot};

/// Errors surfaced by the serving engine.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// A query named a vertex outside the engine's vertex space.
    UnknownVertex {
        /// The offending vertex index.
        vertex: usize,
        /// The engine's vertex count.
        n: usize,
    },
    /// A snapshot's scheme and graph disagree on the vertex count, or a
    /// published snapshot does not match the engine's vertex space.
    SnapshotMismatch {
        /// Vertex count of the offered graph.
        graph_n: usize,
        /// Vertex count the scheme was preprocessed for.
        scheme_n: usize,
        /// Vertex count the engine serves.
        engine_n: usize,
    },
    /// The scheme failed to route the query (a scheme bug, surfaced rather
    /// than swallowed).
    Route(RouteError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownVertex { vertex, n } => {
                write!(f, "vertex {vertex} outside the engine's vertex space 0..{n}")
            }
            ServeError::SnapshotMismatch { graph_n, scheme_n, engine_n } => write!(
                f,
                "snapshot mismatch: graph has {graph_n} vertices, scheme was built for \
                 {scheme_n}, engine serves {engine_n}"
            ),
            ServeError::Route(e) => write!(f, "routing failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Route(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RouteError> for ServeError {
    fn from(e: RouteError) -> Self {
        ServeError::Route(e)
    }
}

// Serve errors may be handed on from the reader thread that routed the
// batch; checked at compile time like the workspace's other error types.
const fn assert_send_sync_static<T: Send + Sync + 'static>() {}
const _: () = assert_send_sync_static::<ServeError>();

/// Configuration of a [`ShardedEngine`].
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Number of shards the vertex space is partitioned into (clamped to
    /// at least 1).
    pub shards: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { shards: 1 }
    }
}

impl EngineConfig {
    /// A config with `shards` shards.
    pub fn with_shards(shards: usize) -> Self {
        EngineConfig { shards }
    }
}

/// One routed answer.
///
/// Bit-for-bit identical to what direct single-threaded routing through
/// the same snapshot produces ([`routing_model::simulate`] /
/// [`routing_model::simulate_lean`], with the default `4·n + 16` hop
/// budget); the epoch and shard fields add *provenance*, never different
/// routing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteAnswer {
    /// Total weight of the traversed path.
    pub weight: Weight,
    /// Number of edges traversed.
    pub hops: usize,
    /// Largest header observed in flight, in `O(log n)`-bit words.
    pub max_header_words: usize,
    /// Epoch of the snapshot that produced this answer.
    pub epoch: u64,
    /// Shard that routed the query (the owner of its source).
    pub shard: usize,
}

/// Per-shard serving statistics, summed over every sub-batch the shard
/// owned.
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// The shard index.
    pub shard: usize,
    /// Queries routed (including failed ones).
    pub queries: u64,
    /// Queries that returned an error.
    pub errors: u64,
    /// Sub-batches processed.
    pub batches: u64,
    /// Wall-clock spent routing this shard's sub-batches, nanoseconds.
    pub busy_ns: u64,
    /// Per-query latency distribution, nanoseconds.
    pub latency: LatencyHistogram,
}

impl ShardStats {
    fn new(shard: usize) -> Self {
        ShardStats { shard, ..ShardStats::default() }
    }

    /// Counts one query routed since `prev` and returns the time now.
    /// Chained, these timestamps read the clock once per query and
    /// attribute every nanosecond to exactly one query.
    fn count(&mut self, prev: Instant, failed: bool) -> Instant {
        let now = Instant::now();
        self.latency.record(now.duration_since(prev).as_nanos() as u64);
        self.queries += 1;
        self.errors += u64::from(failed);
        now
    }
}

/// One query of a batch: its owner shard, the pair and the caller's slot.
struct Job {
    shard: usize,
    source: VertexId,
    dest: VertexId,
    slot: usize,
}

/// The sharded, concurrent query-serving engine (see the module docs for
/// the shard layout, batching and hot-swap protocols).
///
/// The engine is `Send + Sync`: any number of threads can call
/// [`ShardedEngine::route_batch`] concurrently on one shared engine, each
/// routing its own batch on its own thread.
#[derive(Debug)]
pub struct ShardedEngine {
    cell: EpochCell,
    stats: Vec<Mutex<ShardStats>>,
    n: usize,
}

// The whole point of the engine: one instance, shared by reference across
// every reader thread. Regressing this bound breaks the serving layer at
// compile time, here, not at a downstream use site.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = assert_send_sync::<ShardedEngine>();

impl ShardedEngine {
    /// Starts an engine serving `(graph, scheme)` as epoch 1, its vertex
    /// space partitioned into `config.shards` shards.
    ///
    /// # Errors
    ///
    /// [`ServeError::SnapshotMismatch`] when the scheme was not built for
    /// this graph's vertex count.
    pub fn new(
        graph: Arc<Graph>,
        scheme: Arc<dyn DynScheme>,
        config: EngineConfig,
    ) -> Result<Self, ServeError> {
        let n = graph.n();
        if scheme.n() != n {
            return Err(ServeError::SnapshotMismatch {
                graph_n: n,
                scheme_n: scheme.n(),
                engine_n: n,
            });
        }
        let stats = (0..config.shards.max(1)).map(|s| Mutex::new(ShardStats::new(s))).collect();
        Ok(ShardedEngine { cell: EpochCell::new(graph, scheme), stats, n })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.stats.len()
    }

    /// The currently published epoch.
    pub fn epoch(&self) -> u64 {
        self.cell.epoch()
    }

    /// The currently published snapshot (what the *next* batch will route
    /// under; in-flight batches may still be on the previous one).
    pub fn snapshot(&self) -> SchemeSnapshot {
        self.cell.load()
    }

    /// The shard that owns queries sourced at `v` (contiguous balanced
    /// partition of the vertex space).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownVertex`] when `v` is outside the vertex space.
    pub fn owner_of(&self, v: VertexId) -> Result<usize, ServeError> {
        if v.index() >= self.n {
            return Err(ServeError::UnknownVertex { vertex: v.index(), n: self.n });
        }
        Ok(v.index() * self.shards() / self.n)
    }

    /// Publishes a rebuilt `(graph, scheme)` pair as the next epoch and
    /// returns that epoch. Traffic is never stopped: see the module docs.
    ///
    /// # Errors
    ///
    /// [`ServeError::SnapshotMismatch`] when the new snapshot does not
    /// serve this engine's vertex space (the shard partition is keyed on
    /// `n`; growing or shrinking the vertex space takes a new engine).
    pub fn publish(
        &self,
        graph: Arc<Graph>,
        scheme: Arc<dyn DynScheme>,
    ) -> Result<u64, ServeError> {
        if graph.n() != self.n || scheme.n() != self.n {
            return Err(ServeError::SnapshotMismatch {
                graph_n: graph.n(),
                scheme_n: scheme.n(),
                engine_n: self.n,
            });
        }
        Ok(self.cell.publish(graph, scheme))
    }

    /// Routes one query (a batch of one; prefer [`route_batch`] for
    /// throughput).
    ///
    /// [`route_batch`]: ShardedEngine::route_batch
    ///
    /// # Errors
    ///
    /// As [`ShardedEngine::route_batch`].
    pub fn route(&self, source: VertexId, dest: VertexId) -> Result<RouteAnswer, ServeError> {
        let job = self.job(0, source, dest)?;
        let (mut stats, start) = (ShardStats::new(job.shard), Instant::now());
        let answer = route_one(&self.cell.load(), &job, &mut None);
        stats.count(start, answer.is_err());
        self.commit(stats, start);
        answer
    }

    /// Routes a batch of `(source, destination)` queries on the calling
    /// thread and returns one answer per query, **in input order**.
    ///
    /// The whole batch is routed under one snapshot, one owner shard's
    /// sub-batch at a time. Per-query failures (unknown vertices, scheme
    /// routing errors) are returned in that query's slot — they never fail
    /// the rest of the batch.
    pub fn route_batch(
        &self,
        pairs: &[(VertexId, VertexId)],
    ) -> Vec<Result<RouteAnswer, ServeError>> {
        let mut answers = Vec::with_capacity(pairs.len());
        let mut jobs = Vec::with_capacity(pairs.len());
        for (slot, &(source, dest)) in pairs.iter().enumerate() {
            match self.job(slot, source, dest) {
                Ok(job) => jobs.push(job),
                Err(e) => answers.push((slot, Err(e))),
            }
        }
        if !jobs.is_empty() {
            // Grouped by owner, then sorted by destination so runs of
            // queries towards the same destination share one erased label;
            // slot as tiebreaker keeps the order deterministic.
            jobs.sort_unstable_by_key(|j| (j.shard, j.dest, j.slot));
            let snap = self.cell.load();
            for sub_batch in jobs.chunk_by(|a, b| a.shard == b.shard) {
                self.route_shard(&snap, sub_batch, &mut answers);
            }
        }
        answers.sort_unstable_by_key(|&(slot, _)| slot);
        answers.into_iter().map(|(_, answer)| answer).collect()
    }

    /// A statistics snapshot from every shard: queries, errors, batches,
    /// busy wall-clock and the per-query latency histogram.
    pub fn stats(&self) -> Vec<ShardStats> {
        self.stats
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).clone())
            .collect()
    }

    /// Checks both endpoints of the query in `slot` and finds its owner.
    fn job(&self, slot: usize, source: VertexId, dest: VertexId) -> Result<Job, ServeError> {
        if dest.index() >= self.n {
            return Err(ServeError::UnknownVertex { vertex: dest.index(), n: self.n });
        }
        Ok(Job { shard: self.owner_of(source)?, source, dest, slot })
    }

    /// Routes one shard's dest-sorted sub-batch under `snap`, pushing
    /// `(slot, answer)` pairs.
    fn route_shard(
        &self,
        snap: &SchemeSnapshot,
        jobs: &[Job],
        answers: &mut Vec<(usize, Result<RouteAnswer, ServeError>)>,
    ) {
        let Some(first) = jobs.first() else {
            return;
        };
        let (mut stats, start) = (ShardStats::new(first.shard), Instant::now());
        let mut prev = start;
        let mut cached: Option<(VertexId, ErasedLabel)> = None;
        for job in jobs {
            let answer = route_one(snap, job, &mut cached);
            prev = stats.count(prev, answer.is_err());
            answers.push((job.slot, answer));
        }
        self.commit(stats, start);
    }

    /// Merges one sub-batch's accounting into its shard's stats under one
    /// short lock, so readers of the same shard never serialize on the
    /// routing itself. Poison-tolerant: the merge only adds counters, so a
    /// panic elsewhere cannot leave the stats torn.
    fn commit(&self, sub: ShardStats, start: Instant) {
        let busy_ns = start.elapsed().as_nanos() as u64;
        let mut stats = self.stats[sub.shard].lock().unwrap_or_else(PoisonError::into_inner);
        stats.queries += sub.queries;
        stats.errors += sub.errors;
        stats.batches += 1;
        stats.busy_ns += busy_ns;
        stats.latency.merge(&sub.latency);
    }
}

/// Routes one job under one snapshot, reusing the cached erased label when
/// the destination repeats (jobs arrive dest-sorted).
fn route_one(
    snap: &SchemeSnapshot,
    job: &Job,
    cached: &mut Option<(VertexId, ErasedLabel)>,
) -> Result<RouteAnswer, ServeError> {
    let g = snap.graph();
    let scheme = snap.scheme();
    let label = match cached {
        Some((d, label)) if *d == job.dest => {
            routing_obs::counters::SERVE_LABEL_CACHE_HITS.inc();
            &*label
        }
        slot => {
            routing_obs::counters::SERVE_LABEL_CACHE_MISSES.inc();
            let label = scheme.label_of(job.dest);
            &slot.insert((job.dest, label)).1
        }
    };
    let out = simulate_lean_with_label(g, scheme, job.source, job.dest, label, 4 * g.n() + 16)?;
    Ok(RouteAnswer {
        weight: out.weight,
        hops: out.hops,
        max_header_words: out.max_header_words,
        epoch: snap.epoch(),
        shard: job.shard,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use compact_routing::registry::SchemeRegistry;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use routing_core::BuildContext;
    use routing_graph::generators::{Family, WeightModel};
    use routing_graph::Port;
    use routing_model::{simulate, Decision, HeaderSize, RoutingScheme};

    fn build(n: usize, key: &str, seed: u64) -> (Arc<Graph>, Arc<dyn DynScheme>) {
        let mut rng = StdRng::seed_from_u64(5);
        let g = Family::ErdosRenyi.generate(n, WeightModel::Uniform { lo: 1, hi: 9 }, &mut rng);
        let registry = SchemeRegistry::with_defaults();
        let ctx = BuildContext { seed, threads: 1, ..BuildContext::default() };
        let scheme = registry.build(key, &g, &ctx).expect("scheme builds");
        (Arc::new(g), Arc::from(scheme))
    }

    #[test]
    fn engine_answers_match_direct_simulation() {
        let (g, scheme) = build(80, "tz2", 11);
        let engine =
            ShardedEngine::new(Arc::clone(&g), Arc::clone(&scheme), EngineConfig::with_shards(3))
                .unwrap();
        for (u, v) in [(0u32, 79u32), (40, 3), (7, 7), (79, 0)] {
            let (u, v) = (VertexId(u), VertexId(v));
            let got = engine.route(u, v).unwrap();
            let want = simulate(&g, scheme.as_ref(), u, v).unwrap();
            assert_eq!(got.weight, want.weight);
            assert_eq!(got.hops, want.hops);
            assert_eq!(got.max_header_words, want.max_header_words);
            assert_eq!(got.epoch, 1);
            assert_eq!(got.shard, engine.owner_of(u).unwrap());
        }
    }

    #[test]
    fn per_query_failures_stay_in_their_slot() {
        let (g, scheme) = build(40, "tz2", 1);
        let engine = ShardedEngine::new(g, scheme, EngineConfig::with_shards(2)).unwrap();
        let batch = [
            (VertexId(0), VertexId(39)),
            (VertexId(99), VertexId(1)), // unknown source
            (VertexId(1), VertexId(99)), // unknown destination
            (VertexId(5), VertexId(6)),
        ];
        let answers = engine.route_batch(&batch);
        assert!(answers[0].is_ok());
        assert_eq!(
            answers[1],
            Err(ServeError::UnknownVertex { vertex: 99, n: 40 })
        );
        assert_eq!(
            answers[2],
            Err(ServeError::UnknownVertex { vertex: 99, n: 40 })
        );
        assert!(answers[3].is_ok());
    }

    /// Routes along the path `0 - 1 - … - (n-1)`, except towards the last
    /// vertex: those queries bounce between vertices 0 and 1 until the hop
    /// budget runs out.
    struct Bouncer(usize);

    #[derive(Clone)]
    struct NoHeader;
    impl HeaderSize for NoHeader {
        fn words(&self) -> usize {
            0
        }
    }

    impl RoutingScheme for Bouncer {
        type Label = VertexId;
        type Header = NoHeader;
        fn name(&self) -> &str {
            "bouncer"
        }
        fn n(&self) -> usize {
            self.0
        }
        fn label_of(&self, v: VertexId) -> VertexId {
            v
        }
        fn init_header(&self, _: VertexId, _: &VertexId) -> Result<NoHeader, RouteError> {
            Ok(NoHeader)
        }
        fn decide(
            &self,
            at: VertexId,
            _: &mut NoHeader,
            dest: &VertexId,
        ) -> Result<Decision, RouteError> {
            // Port 0 leads to the smaller neighbour, except at vertex 0.
            Ok(if at == *dest {
                Decision::Deliver
            } else if dest.index() + 1 == self.0 || dest < &at || at.index() == 0 {
                Decision::Forward(Port(0))
            } else {
                Decision::Forward(Port(1))
            })
        }
        fn table_words(&self, _: VertexId) -> usize {
            0
        }
        fn label_words(&self, _: VertexId) -> usize {
            1
        }
    }

    #[test]
    fn scheme_failures_are_isolated_and_counted() {
        let n = 8;
        let g = Arc::new(routing_graph::generators::path(n));
        let scheme: Arc<dyn DynScheme> = Arc::new(Bouncer(n));
        let engine =
            ShardedEngine::new(Arc::clone(&g), Arc::clone(&scheme), EngineConfig::with_shards(2))
                .unwrap();
        let batch: Vec<(VertexId, VertexId)> = [(0, 3), (1, 7), (5, 1), (6, 7), (6, 6)]
            .into_iter()
            .map(|(u, v)| (VertexId(u), VertexId(v)))
            .collect();
        let answers = engine.route_batch(&batch);
        let budget = RouteError::HopBudgetExceeded { budget: 4 * n + 16 };
        for (slot, &(u, v)) in batch.iter().enumerate() {
            if v.index() == n - 1 {
                assert_eq!(answers[slot], Err(ServeError::Route(budget.clone())), "slot {slot}");
                continue;
            }
            let got = answers[slot].as_ref().unwrap();
            let want = simulate(&g, scheme.as_ref(), u, v).unwrap();
            assert_eq!((got.weight, got.hops), (want.weight, want.hops), "slot {slot}");
            assert_eq!(got.weight, u.index().abs_diff(v.index()) as Weight);
            assert_eq!(got.shard, engine.owner_of(u).unwrap());
        }
        // One failure per shard (sources 1 and 6), three successes.
        let stats = engine.stats();
        assert_eq!(stats.iter().map(|s| s.errors).collect::<Vec<_>>(), [1, 1]);
        assert_eq!(stats.iter().map(|s| s.queries).sum::<u64>(), 5);
        for s in &stats {
            assert_eq!(s.latency.count(), s.queries, "histogram covers failed queries");
        }
        // The single-query path accounts for failures the same way.
        assert_eq!(engine.route(VertexId(2), VertexId(7)), Err(ServeError::Route(budget)));
        assert_eq!(engine.stats()[0].errors, 2);
    }

    #[test]
    fn empty_batches_are_fine() {
        let (g, scheme) = build(40, "tz2", 1);
        let engine = ShardedEngine::new(g, scheme, EngineConfig::default()).unwrap();
        assert!(engine.route_batch(&[]).is_empty());
    }

    #[test]
    fn shard_ownership_is_a_contiguous_balanced_partition() {
        let (g, scheme) = build(40, "tz2", 1);
        let engine = ShardedEngine::new(g, scheme, EngineConfig::with_shards(4)).unwrap();
        let owners: Vec<usize> =
            (0..40u32).map(|v| engine.owner_of(VertexId(v)).unwrap()).collect();
        // Monotone, covers every shard, each shard owns n/S vertices.
        assert!(owners.windows(2).all(|w| w[0] <= w[1]));
        for s in 0..4 {
            assert_eq!(owners.iter().filter(|&&o| o == s).count(), 10, "shard {s}");
        }
        assert!(engine.owner_of(VertexId(40)).is_err());
    }

    #[test]
    fn stats_account_for_every_routed_query() {
        let (g, scheme) = build(40, "tz2", 1);
        let engine = ShardedEngine::new(g, scheme, EngineConfig::with_shards(2)).unwrap();
        let pairs: Vec<(VertexId, VertexId)> =
            (0..40u32).map(|i| (VertexId(i), VertexId((i + 1) % 40))).collect();
        for _ in 0..3 {
            let answers = engine.route_batch(&pairs);
            assert!(answers.iter().all(Result::is_ok));
        }
        let stats = engine.stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats.iter().map(|s| s.queries).sum::<u64>(), 120);
        assert_eq!(stats.iter().map(|s| s.errors).sum::<u64>(), 0);
        assert_eq!(stats.iter().map(|s| s.batches).sum::<u64>(), 6);
        for s in &stats {
            assert_eq!(s.latency.count(), s.queries, "histogram covers every query");
        }
    }

    #[test]
    fn publish_swaps_the_epoch_for_later_batches() {
        let (g, scheme) = build(40, "tz2", 1);
        let engine =
            ShardedEngine::new(Arc::clone(&g), scheme, EngineConfig::with_shards(2)).unwrap();
        assert_eq!(engine.route(VertexId(0), VertexId(39)).unwrap().epoch, 1);

        let (_, scheme2) = build(40, "warmup", 2);
        let epoch = engine.publish(Arc::clone(&g), scheme2).unwrap();
        assert_eq!(epoch, 2);
        assert_eq!(engine.epoch(), 2);
        assert_eq!(engine.route(VertexId(0), VertexId(39)).unwrap().epoch, 2);
        assert_eq!(engine.snapshot().scheme().name(), "warmup");
    }

    #[test]
    fn mismatched_snapshots_are_rejected() {
        let (g, scheme) = build(40, "tz2", 1);
        let (g60, scheme60) = build(60, "tz2", 1);
        let err = ShardedEngine::new(Arc::clone(&g60), Arc::clone(&scheme), EngineConfig::default())
            .unwrap_err();
        assert!(matches!(err, ServeError::SnapshotMismatch { .. }));

        let engine = ShardedEngine::new(g, scheme, EngineConfig::default()).unwrap();
        let err = engine.publish(g60, scheme60).unwrap_err();
        assert_eq!(
            err,
            ServeError::SnapshotMismatch { graph_n: 60, scheme_n: 60, engine_n: 40 }
        );
    }

    #[test]
    fn error_display_is_informative() {
        let e = ServeError::UnknownVertex { vertex: 9, n: 4 };
        assert!(e.to_string().contains("vertex 9"));
        assert!(std::error::Error::source(&e).is_none());
        let e = ServeError::SnapshotMismatch { graph_n: 1, scheme_n: 2, engine_n: 3 };
        assert!(e.to_string().contains("snapshot mismatch"));
        let e: ServeError = RouteError::HopBudgetExceeded { budget: 7 }.into();
        assert!(e.to_string().contains("routing failed"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
