//! Network serving layer for vectordb-rs.
//!
//! Everything here is `std`-only: the transport is the length-prefixed,
//! CRC-framed binary protocol of [`wire`], carried over `std::net` TCP. The crate is unix-only: its connection core polls
//! sockets with `poll(2)` and wakes itself over a `UnixStream` pair.
//!
//! - [`wire`] — the frame: a magic word, then one `vdb_core::codec`
//!   CRC frame around the message.
//! - [`protocol`] — typed [`Request`]/[`Response`] messages and their
//!   wire codec (one opcode byte + little-endian body per frame).
//! - [`net`] — dependency-free readiness polling: a `poll(2)` shim and
//!   a self-wake channel for the event-loop connection core.
//! - [`server`] — [`serve`] a [`vdb::Vdbms`] on a socket: a
//!   readiness-polling event loop holds every connection,
//!   thread-pool executors behind a bounded two-lane queue (interactive
//!   search before bulk mutation), per-collection token-bucket rate
//!   limits, admission control that sheds load with an explicit
//!   [`Response::Busy`], per-request deadlines, opportunistic
//!   coalescing of concurrent single-query searches into batched
//!   calls, a p50/p99/QPS metrics plane served via `server-stats`, and
//!   graceful drain-then-stop shutdown.
//! - [`client`] — the blocking [`Client`]: connection pool with
//!   staleness probing, retrying connect with backoff, read timeouts,
//!   and typed methods returning ordinary `vdb` values. Auto-retry is
//!   restricted to idempotent requests; a mutation whose connection died
//!   mid-exchange surfaces `Error::MaybeApplied` instead of risking a
//!   double apply.
//! - [`replication`] — the replicated write path (DESIGN.md §14):
//!   [`attach_primary`] installs a WAL-shipping sink on a collection, so
//!   every acked write is forwarded (with its LSN, idempotently) to the
//!   replica set before the acknowledgement is released; replicas
//!   bootstrap from a consistent snapshot + WAL-tail payload.
//! - [`cluster`] — the manifest-routed [`ClusterClient`]: writes go to
//!   the key's shard primary, `Redirect` responses are followed, and a
//!   failover (promoted manifest) is picked up by refreshing from any
//!   reachable node; searches scatter to every shard, falling back from a
//!   dead primary to its replicas, and merge.
//!
//! ```no_run
//! use vdb_server::{serve, Client, ServerConfig};
//! use vdb_core::index::SearchParams;
//! # use vdb::{CollectionSchema, IndexSpec, SystemProfile, Vdbms};
//! # use vdb_core::metric::Metric;
//! # let mut db = Vdbms::new(SystemProfile::MostlyVector);
//! # db.create_collection(CollectionSchema::new("docs", 3, Metric::Euclidean), IndexSpec::Flat).unwrap();
//! let handle = serve(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
//! let client = Client::connect(handle.addr()).unwrap();
//! client.insert("docs", 1, &[0.1, 0.2, 0.3], &[]).unwrap();
//! let hits = client.search("docs", &[0.1, 0.2, 0.3], 5, &SearchParams::default()).unwrap();
//! let db = handle.shutdown(); // graceful: drains in-flight requests
//! ```

// `deny` (not `forbid`) so `net` can carve out the one `poll(2)` FFI
// declaration the event loop needs; everything else stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

#[cfg(not(unix))]
compile_error!("vdb-server is unix-only: the event loop needs poll(2) and UnixStream");

pub mod client;
pub mod cluster;
pub mod net;
pub mod protocol;
pub mod replication;
pub mod server;
pub mod wire;

pub use client::{Client, ClientConfig};
pub use cluster::ClusterClient;
pub use protocol::{
    ErrorCode, FusedHit, ReplicaPayload, Request, Response, ServerStatsSnapshot,
    WireCollectionStats, WireReplLink,
};
pub use replication::{attach_primary, detach_primary, ReplicationConfig, Replicator};
pub use server::{serve, RateLimit, ServerConfig, ServerHandle};
