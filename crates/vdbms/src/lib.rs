//! # vdb — the vectordb-rs VDBMS facade
//!
//! The complete vector database management system assembled from the
//! workspace's technique crates, mirroring the architecture of Figure 1 of
//! *"Vector Database Management Techniques and Systems"* (SIGMOD 2024):
//! a query processor (interface, optimizer, executor) over a storage
//! manager (indexes, vector storage, out-of-place update buffer).
//!
//! ```
//! use vdb::{Vdbms, SystemProfile, CollectionSchema, IndexSpec};
//! use vdb_core::{Metric, AttrType};
//!
//! let mut db = Vdbms::new(SystemProfile::MostlyMixed);
//! db.create_collection(
//!     CollectionSchema::new("docs", 3, Metric::Euclidean)
//!         .column("lang", AttrType::Str),
//!     IndexSpec::parse("hnsw").unwrap(),
//! ).unwrap();
//! db.execute("INSERT INTO docs KEY 1 VALUES [0.1, 0.2, 0.3] SET lang = 'en'").unwrap();
//! let hits = db.execute("SEARCH docs K 1 NEAR [0.1, 0.2, 0.3] WHERE lang = 'en'").unwrap();
//! ```
//!
//! Modules:
//! - [`db`] — the [`Vdbms`] registry: DDL, DML, VQL execution, indirect
//!   (embedding-backed) manipulation,
//! - [`collection`] — schema-validated collections with hybrid search and
//!   out-of-place updates through a keyed update buffer (§2.3(3)),
//! - [`schema`] / [`indexspec`] — declarative collection and index specs,
//! - [`embed`] — the in-system text embedder (§2.1 indirect manipulation),
//! - [`vql`] — the textual query language (§2.1 query interfaces),
//! - [`profile`] — mostly-vector vs mostly-mixed system profiles (§2.4).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod buffer;
pub mod collection;
pub mod db;
pub mod embed;
pub mod indexspec;
pub mod profile;
pub mod schema;
pub mod vql;

pub use collection::{
    Collection, CollectionConfig, CollectionStats, HybridDetail, HybridResult, MergeMode,
    ReplicationSink, SearchHit,
};
pub use db::{MaintenanceStats, Vdbms, VqlOutput};
pub use embed::TextEmbedder;
pub use indexspec::IndexSpec;
pub use profile::SystemProfile;
pub use schema::CollectionSchema;
pub use vql::{parse as parse_vql, VqlStatement};
// Hybrid text + vector search surface (re-exported so facade users and
// the serving layer see one coherent API).
pub use vdb_query::{
    bm25_score, fuse, tokenize, CorpusStats, Fusion, HybridCandidate, HybridHit, HybridStrategy,
    Predicate, TextIndex, DEFAULT_STOPWORDS,
};
pub use vdb_storage::global_cache_stats;
