//! # vdb-distributed
//!
//! Distributed vector search (§2.3 of *"Vector Database Management
//! Techniques and Systems"*, SIGMOD 2024): sharding, replication, and
//! scatter-gather execution.
//!
//! - [`partition`] — uniform (equal) and index-guided (k-means-aligned)
//!   shard placement with query routing,
//! - [`cluster`] — the sharded deployment: per-shard indexes, replica
//!   failover with optional hedged backup probes, detached-thread scatter
//!   with per-query deadlines, global top-k gather with partial-result
//!   degradation,
//! - [`manifest`] — the versioned shard → node assignment of a
//!   replicated deployment, served over the wire.
//!
//! [`DistributedIndex`] is the in-process scatter-gather. The networked
//! one is `vdb-server`'s `ClusterClient`, which scatters over the nodes a
//! [`ClusterManifest`] names; DESIGN.md §10 documents the serving stack.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cluster;
pub mod manifest;
pub mod partition;

pub use cluster::{DistributedConfig, DistributedIndex, IndexBuilder, ScatterOutcome};
pub use manifest::{ClusterManifest, ShardRoute};
pub use partition::{partition, PartitionPolicy, Partitioning};
