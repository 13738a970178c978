//! # vdb-query
//!
//! Query processing, optimization, and execution for the `vectordb-rs`
//! VDBMS (§2.1 and §2.3 of *"Vector Database Management Techniques and
//! Systems"*, SIGMOD 2024):
//!
//! - [`expr`] — attribute predicates with SQL-like NULL semantics,
//! - [`selectivity`] — selectivity estimation from cached column
//!   statistics,
//! - [`plan`] — query and strategy types (pre-filter, post-filter,
//!   block-first, visit-first, brute force),
//! - [`exec`] — the physical operators behind each strategy,
//! - [`compiled`] — the one predicate evaluator every operator uses:
//!   pre-resolved column references, range leaves answered from sorted
//!   runs,
//! - [`optimizer`] — fixed / rule-based / cost-based plan selection,
//! - [`batch`] — batched execution with shared predicate work and thread
//!   parallelism,
//! - [`multivector`] — multi-vector entity queries with aggregate scores,
//! - [`incremental`] — streaming k-NN iterators.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod compiled;
pub mod exec;
pub mod expr;
pub mod incremental;
pub mod multivector;
pub mod optimizer;
pub mod plan;
pub mod selectivity;
pub mod text;

pub use batch::{execute_batch, BatchOptions};
pub use compiled::CompiledPredicate;
pub use exec::{
    execute, execute_with, fuse, Fusion, HybridCandidate, HybridHit, HybridStrategy, QueryContext,
};
pub use expr::{CmpOp, Predicate};
pub use incremental::IncrementalSearch;
pub use multivector::{
    multi_vector_exact, multi_vector_search, EntityHit, EntityMap, MultiVectorQuery,
};
pub use optimizer::{CostModel, Planner, PlannerMode};
pub use plan::{PhysicalPlan, Strategy, VectorQuery};
pub use selectivity::text_selectivity;
pub use text::{bm25_score, tokenize, CorpusStats, TextHit, TextIndex, DEFAULT_STOPWORDS};
