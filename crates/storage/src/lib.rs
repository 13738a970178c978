//! # vdb-storage
//!
//! The storage manager of the `vectordb-rs` VDBMS (Figure 1 of the paper):
//!
//! - [`page`] / [`file`] — fixed-size pages over files, the unit of I/O
//!   accounting for disk-resident indexes (§2.2),
//! - [`cache`] — read-through page cache over fixed frames with pinning,
//!   scan-resistant admission-controlled SLRU eviction at O(1) per
//!   access, and lock-free hit/miss/eviction counters (the instrument of
//!   experiments F7/D1); a miss reads the page inline into a frame,
//! - [`column`] — typed, nullable attribute columns with a cached summary
//!   (exact statistics, numeric rows in value order) for selectivity
//!   estimation and range filters (§2.1 hybrid queries),
//! - [`wal`] — checksummed write-ahead log with torn-tail-tolerant replay,
//! - [`snapshot`] — atomic write-then-rename checkpoints of merged
//!   collection state (vectors, keys, attributes, index fingerprint),
//! - [`failpoint`] — deterministic crash-fault injection over every
//!   durable step, driving the crash-recovery test harness.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Index loops over parallel slices/pages are clearer than zipped
// iterator chains in the kernels and (de)serializers below.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::manual_is_multiple_of)]
#![allow(clippy::manual_checked_ops)] // branch selects record layout, not a guard

pub mod cache;
pub mod column;
pub mod failpoint;
pub mod file;
pub mod page;
pub mod snapshot;
pub mod wal;

pub use cache::{global_cache_stats, CacheStats, PageCache};
pub use column::{AttributeStore, Column, ColumnStats};
pub use file::{PagedFile, TempDir};
pub use page::{Page, PageId, PAGE_SIZE};
pub use snapshot::{Checkpoint, Snapshot, SnapshotColumn};
pub use wal::{crc32, decode_shipped, ship_record, ShippedRecord, Wal, WalRecord};
