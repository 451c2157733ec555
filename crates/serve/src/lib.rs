//! A sharded, concurrent query-serving engine over immutable scheme
//! snapshots, with epoch-based hot swap — the "many routers, one control
//! plane" deployment story for the compact routing schemes this workspace
//! builds.
//!
//! The paper's schemes are *preprocessing* artifacts: once built, routing
//! is a pure read-only function of `(table, header, label)`. This crate
//! turns that observation into a serving architecture:
//!
//! - [`SchemeSnapshot`] — an immutable `(graph, scheme)` pair behind
//!   `Arc`s, tagged with a publication epoch. `DynScheme` is `Send + Sync`
//!   by contract, so snapshots are shared freely across threads.
//! - [`EpochCell`] — the single mutable point: publishing a rebuilt scheme
//!   is one pointer swap under a lock held for nanoseconds; readers keep
//!   routing the snapshot they loaded (its `Arc`s keep it alive) and pick
//!   up the new epoch at their next batch.
//! - [`ShardedEngine`] — N resident worker threads, each owning a
//!   contiguous slice of the vertex space and answering the queries
//!   sourced there. Batches are partitioned per shard, routed under one
//!   snapshot each, sorted by destination so repeated destinations share
//!   one erased label, and answered through the allocation-free
//!   [`routing_model::simulate_lean_with_label`] path.
//! - [`ZipfWorkload`] — a seeded, byte-reproducible Zipf-skewed load
//!   generator for stress tests and benches.
//! - [`ShardStats`] — per-shard accounting, including a
//!   [`routing_obs::LatencyHistogram`] of per-query latency for the
//!   p50/p99/p999 report (`routing-obs`, the workspace telemetry crate,
//!   also hosts the serving-path counters this crate increments:
//!   label-cache hits, epoch swaps, snapshot loads).
//!
//! Every [`RouteAnswer`] carries the epoch of the snapshot that produced
//! it and is bit-identical to direct single-threaded simulation under that
//! snapshot — the property the crate's equivalence proptests and the
//! epoch-swap stress test (`tests/`) pin down.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod load;
pub mod snapshot;

pub use engine::{EngineConfig, RouteAnswer, ServeError, ShardStats, ShardedEngine};
pub use load::ZipfWorkload;
pub use snapshot::{EpochCell, SchemeSnapshot};
