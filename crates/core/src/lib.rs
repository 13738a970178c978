//! # vdb-core
//!
//! Core building blocks of the `vectordb-rs` workspace, a from-scratch
//! implementation of the vector-database techniques surveyed in
//! *"Vector Database Management Techniques and Systems"* (SIGMOD 2024):
//!
//! - [`vector::Vectors`] — validated dense `f32` vector storage,
//! - [`metric::Metric`] — the similarity-score taxonomy of §2.1 (basic
//!   scores, learned scores) under a single lower-is-better convention,
//! - [`kernel`] — distance/scan kernels with runtime SIMD dispatch
//!   (AVX2+FMA, NEON, portable blocked fallback),
//! - [`topk`] — bounded top-k selection and scatter-gather merging,
//! - [`index::VectorIndex`] — the interface every index in the workspace
//!   implements, including filtered (hybrid) and range search,
//! - [`flat::FlatIndex`] — the exact brute-force baseline,
//! - [`recall`] — ground truth and result-quality metrics,
//! - [`dataset`] — seeded synthetic vector/attribute generators,
//! - [`analysis`] — curse-of-dimensionality instrumentation,
//! - [`score`] — aggregate (multi-vector) and learned scores,
//! - [`rng`] — vendored deterministic RNG so index builds are bit-stable,
//! - [`linalg`] — small dense linear algebra (PCA, rotations, inverses),
//! - [`bitset`] — blocking bitmasks and O(1)-reset visited sets,
//! - [`checksum`] — the workspace's one CRC-32 (slice-by-8),
//! - [`codec`] — the one little-endian byte codec: `put_*` encoders, the
//!   bounds-checked `Reader`, attribute tags and the CRC frame,
//! - [`context`] — reusable per-query search scratch (visited set,
//!   pools, buffers) shared by every index and the batched executor,
//! - [`parallel`] — scoped-thread fork/join helpers and [`parallel::BuildOptions`]
//!   for multi-threaded index construction (no rayon),
//! - [`sync`] — poison-free std mutex shim (no external crates),
//! - [`attr`] — structured attribute values for hybrid queries.

#![warn(missing_docs)]
// `deny` (not `forbid`) so the two SIMD backend modules in `kernel` can
// opt back in with a module-level `allow`; everything else stays safe code.
#![deny(unsafe_code)]
// Index loops over parallel slices/pages are clearer than zipped
// iterator chains in the kernels and (de)serializers below.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::manual_is_multiple_of)]

pub mod analysis;
pub mod attr;
pub mod bitset;
pub mod checksum;
pub mod codec;
pub mod context;
pub mod dataset;
pub mod error;
pub mod flat;
pub mod index;
pub mod kernel;
pub mod linalg;
pub mod metric;
pub mod parallel;
pub mod recall;
pub mod rng;
pub mod score;
pub mod sync;
pub mod topk;
pub mod vector;

pub use attr::{AttrType, AttrValue};
pub use checksum::crc32;
pub use context::{ContextPool, SearchContext};
pub use error::{Error, Result};
pub use flat::FlatIndex;
pub use index::{IndexStats, MutableIndex, RowFilter, SearchParams, VectorIndex};
pub use metric::Metric;
pub use parallel::BuildOptions;
pub use rng::Rng;
pub use topk::Neighbor;
pub use vector::Vectors;
