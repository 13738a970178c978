//! # vdb-index-table
//!
//! Table-based vector indexes (§2.2 of *"Vector Database Management
//! Techniques and Systems"*, SIGMOD 2024): the collection is partitioned
//! into buckets retrievable by key.
//!
//! - [`lsh`] — locality-sensitive hashing (random hyperplane and p-stable
//!   families, L tables × K concatenated hashes),
//! - [`ivf`] — the IVF family as one index, [`Ivf<C>`](ivf::Ivf): k-means
//!   bucketing, native block-first filtered search, in-place insert and
//!   remove with drift re-clustering; its lists store rows through a
//!   [`codec::ListCodec`] — raw vectors (IVF-Flat), scalar-quantized codes
//!   (IVF-SQ) or product-quantized residuals scanned by ADC tables
//!   (IVFADC), the approximate two re-ranked against the kept vectors,
//! - [`spann`] — disk-resident SPANN-lite with closure assignment and
//!   page-level I/O accounting.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Parallel-slice index loops in the page (de)serializers.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::manual_is_multiple_of)]

mod coarse;
pub mod codec;
mod drift;
pub mod ivf;
pub mod lsh;
pub mod spann;

pub use ivf::{IvfConfig, IvfFlatIndex, IvfPqIndex, IvfSqIndex};
pub use lsh::{HashFamily, LshConfig, LshIndex};
pub use spann::{SpannConfig, SpannIndex};
