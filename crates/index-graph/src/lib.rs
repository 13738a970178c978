//! # vdb-index-graph
//!
//! Graph-based vector indexes (§2.2 of *"Vector Database Management
//! Techniques and Systems"*, SIGMOD 2024), organized by the paper's
//! taxonomy:
//!
//! - **KNNGs** — [`knng`]: exact construction and NN-Descent (KGraph)
//!   iterative refinement,
//! - **MSNs** — [`nsg`] (KNNG-bootstrapped, MRNG pruning, navigating
//!   node), [`vamana`] (α-robust pruning), [`diskann`] (disk-resident
//!   Vamana with in-memory PQ navigation and per-page node records),
//! - **SWGs** — [`nsw`] (incremental flat small-world graph), [`hnsw`]
//!   (hierarchical layers with exponentially decaying level assignment),
//! - **hybrid-aware** — [`filtered`]: stitched Vamana whose per-label
//!   subgraphs stay connected under attribute blocking
//!   (Filtered-DiskANN/HQANN style),
//! - shared traversal machinery in [`graph`]: beam search, visit-first
//!   filtered beam search, robust pruning, medoid selection.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Index loops over parallel slices/pages are clearer than zipped
// iterator chains in the kernels and (de)serializers below.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::manual_is_multiple_of)]

pub mod diskann;
pub mod filtered;
pub mod graph;
pub mod hnsw;
pub mod knng;
pub mod nsg;
pub mod nsw;
pub mod vamana;

pub use diskann::{DiskAnnConfig, DiskAnnIndex};
pub use filtered::{StitchedConfig, StitchedVamanaIndex};
pub use graph::{
    beam_search, beam_search_filtered, medoid, robust_prune, AdjacencyList, SearchTrace,
};
pub use hnsw::{HnswConfig, HnswIndex};
pub use knng::{KnngConfig, KnngIndex};
pub use nsg::{NsgConfig, NsgIndex};
pub use nsw::{NswConfig, NswIndex};
pub use vamana::{VamanaConfig, VamanaIndex};
