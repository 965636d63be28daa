//! `mascot-serve`: a sharded, batched prediction service for MASCOT
//! predictors over a binary TCP wire protocol.
//!
//! The crate turns any [`mascot_predictors::PredictorKind`] into a
//! network service:
//!
//! * [`wire`] — the versioned `MSRV` frame format: Predict / Train /
//!   Stats / Shutdown opcodes carrying length-prefixed micro-batches of
//!   fixed-size items, validated arithmetically before allocation.
//! * [`shard`] — the shard pool. Each shard owns one predictor instance
//!   and is addressed by a hash of the load PC; its work runs to
//!   completion on the calling thread, under a per-shard lock.
//!   Predict→train metadata stays server-side in a per-shard ticket slab.
//! * [`poll`] — a level-triggered `epoll` wrapper over raw syscalls (the
//!   workspace builds offline; no I/O crates).
//! * [`conn`] — per-connection receive/send buffers: incremental frame
//!   reassembly with zero-copy payload access, partial-write resumption,
//!   and the backpressure threshold.
//! * [`server`] — the readiness-driven event loop both binaries run:
//!   nonblocking accept, per-connection state machines over [`conn`],
//!   each request answered by a [`server::Handler`] before the next is
//!   parsed (so pipelined responses stay in order), and graceful drain on
//!   `Shutdown` (DESIGN.md §11). `mascotd`'s handler runs shard work.
//! * [`router`] — `mascot-router`'s handler: PC-hash scatter-then-gather
//!   over `mascotd` nodes, with replica failover.
//! * [`client`] — a small synchronous client used by the load generator,
//!   the router's upstreams and the integration tests.
//! * [`replay`] — feeds an `.mtrc` trace through the pool as training
//!   traffic (`mascotd --replay`).
//! * [`metrics`] — the fixed-bucket latency histogram each shard keeps,
//!   next to its counters and under its lock, for the `Stats` opcode.
//!
//! Binaries: `mascotd` (the server), `mascot-loadgen` (closed- and
//! open-loop benchmark client; maintains `BENCH_serve.json`), and
//! `mascot-router` (consistent-hash front for a multi-node cluster with
//! health checks and replica failover).
//!
//! Version 2 of the wire protocol adds `Snapshot`/`Restore`: the full
//! predictor state of every shard round-trips through the
//! `mascot_snapshot` container format, enabling warm restarts
//! (`mascotd --snapshot-dir`) and N→M resharding (DESIGN.md §10).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod conn;
pub mod metrics;
pub mod poll;
pub mod replay;
pub mod router;
pub mod server;
pub mod shard;
pub mod wire;

pub use client::Client;
pub use replay::{replay_trace, ReplayReport};
pub use server::{predictors_from_snapshot, unix_now_s, ServeConfig, Server};
pub use shard::{ShardPool, ShardPoolConfig};
