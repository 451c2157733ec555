//! The sharded engine: resident worker threads, batched routing, and
//! per-shard accounting.
//!
//! # Shard layout
//!
//! The vertex space `0..n` is partitioned into `S` contiguous ranges;
//! shard `s` **owns every query whose source it is resident for**
//! (`owner = source * S / n`). Ownership is by source because that is the
//! natural partition for the ROADMAP's deployment story: a shard holds the
//! routing state of its resident vertices and answers the queries they
//! inject. Destinations are described by labels, which travel with the
//! query — exactly the compact-routing contract (a label is everything a
//! source needs to know about a destination).
//!
//! # Batched queries
//!
//! [`ShardedEngine::route_batch`] partitions a batch by owner shard in one
//! pass, ships one message per involved shard, and reassembles answers in
//! input order. Within a shard's sub-batch, jobs are sorted by destination
//! so consecutive queries towards the same destination reuse one erased
//! label (label erasure is the only allocation on the lean query path).
//! Each sub-batch is routed entirely under **one** snapshot, loaded once
//! per batch — so every answer in it carries the same epoch and the
//! per-query cost of the epoch machinery is one `Arc` clone amortized over
//! the whole sub-batch.
//!
//! # Hot swap
//!
//! [`ShardedEngine::publish`] installs a rebuilt `(graph, scheme)` pair as
//! the next epoch without stopping traffic: in-flight sub-batches finish on
//! the snapshot they loaded (kept alive by its `Arc`s), later sub-batches
//! load the new one. The concurrency stress test in `tests/stress.rs`
//! drives M reader threads against concurrent publishes and asserts every
//! answer is exactly the answer of *some* published epoch.

use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
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
    /// A shard worker is gone (its thread exited); the engine is broken.
    ShardUnavailable {
        /// The shard that did not answer.
        shard: usize,
    },
    /// The scheme failed to route the query (a scheme bug, surfaced rather
    /// than swallowed).
    Route(RouteError),
    /// The OS refused to spawn a shard worker thread at engine startup
    /// (resource exhaustion; the underlying `io::Error` is not carried
    /// because `ServeError` is `Clone + Eq` for cross-channel reporting).
    WorkerSpawn {
        /// The shard whose worker could not be spawned.
        shard: usize,
    },
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
            ServeError::ShardUnavailable { shard } => {
                write!(f, "shard {shard} is unavailable (worker thread exited)")
            }
            ServeError::Route(e) => write!(f, "routing failed: {e}"),
            ServeError::WorkerSpawn { shard } => {
                write!(f, "failed to spawn the worker thread for shard {shard}")
            }
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

// Serve errors cross shard boundaries by design (workers report them back
// over channels); checked at compile time like the rest of the workspace's
// error types.
const fn assert_send_sync_static<T: Send + Sync + 'static>() {}
const _: () = assert_send_sync_static::<ServeError>();

/// Configuration of a [`ShardedEngine`].
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Number of worker shards (clamped to at least 1).
    pub shards: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { shards: 1 }
    }
}

impl EngineConfig {
    /// A config with `shards` worker shards.
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

/// Per-shard serving statistics, as accumulated by the worker thread.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// The shard index.
    pub shard: usize,
    /// Queries routed (including failed ones).
    pub queries: u64,
    /// Queries that returned an error.
    pub errors: u64,
    /// Sub-batches processed.
    pub batches: u64,
    /// Wall-clock the worker spent inside batches, nanoseconds.
    pub busy_ns: u64,
    /// Per-query latency distribution, nanoseconds.
    pub latency: LatencyHistogram,
}

impl ShardStats {
    fn new(shard: usize) -> Self {
        ShardStats {
            shard,
            queries: 0,
            errors: 0,
            batches: 0,
            busy_ns: 0,
            latency: LatencyHistogram::new(),
        }
    }
}

/// One query inside a shard sub-batch: the caller's slot plus the pair.
struct Job {
    slot: usize,
    source: VertexId,
    dest: VertexId,
}

enum ShardMsg {
    Batch { jobs: Vec<Job>, reply: mpsc::Sender<Vec<(usize, Result<RouteAnswer, ServeError>)>> },
    Stats { reply: mpsc::Sender<ShardStats> },
}

/// The sharded, concurrent query-serving engine (see the module docs for
/// the shard layout, batching and hot-swap protocols).
///
/// The engine is `Send + Sync`: any number of threads can call
/// [`ShardedEngine::route_batch`] concurrently on one shared engine — the
/// per-shard channels serialize work *per shard* while different shards
/// proceed in parallel. Dropping the engine shuts the workers down and
/// joins them.
pub struct ShardedEngine {
    cell: Arc<EpochCell>,
    senders: Vec<mpsc::Sender<ShardMsg>>,
    handles: Vec<JoinHandle<()>>,
    n: usize,
    shards: usize,
}

// The whole point of the engine: one instance, shared by reference across
// every reader thread. Regressing this bound breaks the serving layer at
// compile time, here, not at a downstream use site.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = assert_send_sync::<ShardedEngine>();

impl ShardedEngine {
    /// Starts an engine serving `(graph, scheme)` as epoch 1 with
    /// `config.shards` resident worker threads.
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
        let shards = config.shards.max(1);
        let cell = Arc::new(EpochCell::new(graph, scheme));
        let mut senders = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (tx, rx) = mpsc::channel();
            let cell = Arc::clone(&cell);
            let handle = std::thread::Builder::new()
                .name(format!("serve-shard-{shard}"))
                .spawn(move || worker(shard, rx, cell))
                .map_err(|_| ServeError::WorkerSpawn { shard })?;
            senders.push(tx);
            handles.push(handle);
        }
        Ok(ShardedEngine { cell, senders, handles, n, shards })
    }

    /// Number of worker shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of vertices of the served vertex space.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The currently published epoch.
    pub fn epoch(&self) -> u64 {
        self.cell.epoch()
    }

    /// The currently published snapshot (what the *next* sub-batch will
    /// route under; in-flight sub-batches may still be on the previous
    /// one).
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
        Ok(v.index() * self.shards / self.n)
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
        // route_batch returns exactly one answer per input pair; an empty
        // vector here is impossible, but the hot path answers with an error
        // rather than panicking.
        match self.route_batch(&[(source, dest)]).pop() {
            Some(answer) => answer,
            None => Err(ServeError::ShardUnavailable { shard: 0 }),
        }
    }

    /// Routes a batch of `(source, destination)` queries and returns one
    /// answer per query, **in input order**.
    ///
    /// The batch is partitioned by owner shard; each involved shard routes
    /// its sub-batch under one snapshot. Per-query failures (unknown
    /// vertices, scheme routing errors) are returned in that query's slot
    /// — they never fail the rest of the batch.
    pub fn route_batch(
        &self,
        pairs: &[(VertexId, VertexId)],
    ) -> Vec<Result<RouteAnswer, ServeError>> {
        let mut out: Vec<Option<Result<RouteAnswer, ServeError>>> =
            pairs.iter().map(|_| None).collect();
        // slot -> owning shard, for attributing failures when a shard dies.
        let mut slot_shard = vec![0usize; pairs.len()];
        let mut per_shard: Vec<Vec<Job>> = (0..self.shards).map(|_| Vec::new()).collect();
        for (slot, &(source, dest)) in pairs.iter().enumerate() {
            if dest.index() >= self.n {
                out[slot] =
                    Some(Err(ServeError::UnknownVertex { vertex: dest.index(), n: self.n }));
                continue;
            }
            match self.owner_of(source) {
                Ok(shard) => {
                    slot_shard[slot] = shard;
                    per_shard[shard].push(Job { slot, source, dest });
                }
                Err(e) => out[slot] = Some(Err(e)),
            }
        }

        let (reply_tx, reply_rx) = mpsc::channel();
        let mut outstanding = 0usize;
        for (shard, jobs) in per_shard.into_iter().enumerate() {
            if jobs.is_empty() {
                continue;
            }
            match self.senders[shard].send(ShardMsg::Batch { jobs, reply: reply_tx.clone() }) {
                Ok(()) => outstanding += 1,
                Err(mpsc::SendError(ShardMsg::Batch { jobs, .. })) => {
                    for job in jobs {
                        out[job.slot] = Some(Err(ServeError::ShardUnavailable { shard }));
                    }
                }
                // A send error hands back the message we just constructed,
                // so it is always a Batch; nothing to attribute otherwise.
                Err(mpsc::SendError(ShardMsg::Stats { .. })) => {}
            }
        }
        drop(reply_tx);
        for _ in 0..outstanding {
            let Ok(results) = reply_rx.recv() else {
                break; // a worker died mid-batch; its slots stay unfilled
            };
            for (slot, answer) in results {
                out[slot] = Some(answer);
            }
        }

        out.into_iter()
            .enumerate()
            .map(|(slot, r)| {
                r.unwrap_or(Err(ServeError::ShardUnavailable { shard: slot_shard[slot] }))
            })
            .collect()
    }

    /// A statistics snapshot from every live shard: queries, errors,
    /// batches, busy wall-clock and the per-query latency histogram.
    pub fn stats(&self) -> Vec<ShardStats> {
        self.senders
            .iter()
            .filter_map(|tx| {
                let (reply, rx) = mpsc::channel();
                tx.send(ShardMsg::Stats { reply }).ok()?;
                rx.recv().ok()
            })
            .collect()
    }
}

impl Drop for ShardedEngine {
    fn drop(&mut self) {
        // Closing the channels is the shutdown signal; workers exit their
        // recv loop and are joined so no thread outlives the engine.
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("n", &self.n)
            .field("shards", &self.shards)
            .field("epoch", &self.epoch())
            .finish()
    }
}

/// The shard worker loop: route batches under one snapshot each, answer
/// stats probes, exit when the engine drops the channel.
fn worker(shard: usize, rx: mpsc::Receiver<ShardMsg>, cell: Arc<EpochCell>) {
    let mut stats = ShardStats::new(shard);
    while let Ok(msg) = rx.recv() {
        match msg {
            ShardMsg::Batch { mut jobs, reply } => {
                let batch_start = Instant::now();
                // One snapshot per sub-batch: every answer in it carries
                // this epoch, and a concurrent publish only affects later
                // batches.
                let snap = cell.load();
                // Sort by destination so runs of queries towards the same
                // destination share one erased label; slot as tiebreaker
                // keeps the order deterministic.
                jobs.sort_unstable_by_key(|j| (j.dest, j.slot));
                let mut cached: Option<(VertexId, ErasedLabel)> = None;
                let mut results = Vec::with_capacity(jobs.len());
                // Chained timestamps: one clock read per query, every
                // nanosecond of the loop attributed to exactly one query.
                let mut prev = Instant::now();
                for job in &jobs {
                    let answer = route_one(&snap, job, shard, &mut cached);
                    let now = Instant::now();
                    stats.latency.record(now.duration_since(prev).as_nanos() as u64);
                    prev = now;
                    stats.queries += 1;
                    if answer.is_err() {
                        stats.errors += 1;
                    }
                    results.push((job.slot, answer));
                }
                stats.batches += 1;
                stats.busy_ns += batch_start.elapsed().as_nanos() as u64;
                // A dispatcher that gave up waiting is not an error here.
                let _ = reply.send(results);
            }
            ShardMsg::Stats { reply } => {
                let _ = reply.send(stats.clone());
            }
        }
    }
}

/// Routes one job under one snapshot, reusing the cached erased label when
/// the destination repeats (jobs arrive dest-sorted).
fn route_one(
    snap: &SchemeSnapshot,
    job: &Job,
    shard: usize,
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
        shard,
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
    use routing_model::simulate;

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
        let e = ServeError::ShardUnavailable { shard: 2 };
        assert!(e.to_string().contains("shard 2"));
        let e = ServeError::SnapshotMismatch { graph_n: 1, scheme_n: 2, engine_n: 3 };
        assert!(e.to_string().contains("snapshot mismatch"));
        let e: ServeError = RouteError::HopBudgetExceeded { budget: 7 }.into();
        assert!(e.to_string().contains("routing failed"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
