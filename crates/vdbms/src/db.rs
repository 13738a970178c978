//! The database facade: named collections, DDL/DML, VQL execution, and
//! indirect (embedding-backed) manipulation.

use crate::collection::{Collection, CollectionConfig, HybridResult, SearchHit};
use crate::embed::TextEmbedder;
use crate::indexspec::IndexSpec;
use crate::profile::SystemProfile;
use crate::schema::CollectionSchema;
use crate::vql::{self, VqlStatement};
use std::collections::HashMap;
use vdb_core::attr::AttrValue;
use vdb_core::error::{Error, Result};
use vdb_core::index::SearchParams;

/// Maintenance counters aggregated across a database's collections.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Total merges (rebuilds or in-place folds) performed.
    pub merges: u64,
    /// Total rows waiting in update buffers.
    pub buffered: u64,
    /// Merges currently executing across all collections.
    pub rebuilds_in_flight: u64,
    /// Slowest recent atomic publication, in microseconds (max across
    /// collections).
    pub last_swap_micros: u64,
    /// Background merges that failed and were left for retry.
    pub failed_merges: u64,
}

/// Result of executing a VQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum VqlOutput {
    /// Search hits.
    Hits(Vec<SearchHit>),
    /// Hybrid text + vector hits with fused scores, scoring evidence,
    /// and the corpus statistics they were scored under.
    FusedHits(HybridResult),
    /// Row count.
    Count(usize),
    /// DML acknowledged.
    Done,
}

/// The VDBMS: a registry of collections plus the system-owned embedding
/// model for indirect manipulation (§2.1).
pub struct Vdbms {
    profile: SystemProfile,
    collections: HashMap<String, Collection>,
    embedder: TextEmbedder,
}

impl Vdbms {
    /// A database under the given architectural profile.
    pub fn new(profile: SystemProfile) -> Self {
        Vdbms {
            profile,
            collections: HashMap::new(),
            embedder: TextEmbedder::new(64),
        }
    }

    /// The active profile.
    pub fn profile(&self) -> SystemProfile {
        self.profile
    }

    /// Replace the embedding model (dimension must match collections that
    /// use it).
    pub fn set_embedder(&mut self, embedder: TextEmbedder) {
        self.embedder = embedder;
    }

    /// The embedding model.
    pub fn embedder(&self) -> &TextEmbedder {
        &self.embedder
    }

    /// Create a collection with the profile's default configuration.
    pub fn create_collection(&mut self, schema: CollectionSchema, index: IndexSpec) -> Result<()> {
        let cfg = self.profile.collection_config(index);
        self.create_collection_with(schema, cfg)
    }

    /// Create a collection with an explicit configuration.
    pub fn create_collection_with(
        &mut self,
        schema: CollectionSchema,
        cfg: CollectionConfig,
    ) -> Result<()> {
        let name = schema.name.clone();
        if self.collections.contains_key(&name) {
            return Err(Error::AlreadyExists(format!("collection `{name}`")));
        }
        let c = Collection::create(schema, cfg)?;
        self.collections.insert(name, c);
        Ok(())
    }

    /// Recover a collection from its durability directory (checkpoint
    /// snapshot + WAL-tail replay) and register it under its schema name.
    /// `cfg.wal_dir` must be set.
    pub fn recover_collection(
        &mut self,
        schema: CollectionSchema,
        cfg: CollectionConfig,
    ) -> Result<()> {
        let name = schema.name.clone();
        if self.collections.contains_key(&name) {
            return Err(Error::AlreadyExists(format!("collection `{name}`")));
        }
        let c = Collection::recover(schema, cfg)?;
        self.collections.insert(name, c);
        Ok(())
    }

    /// Durably checkpoint one collection: fold its update buffer into
    /// the main part, snapshot the merged state, truncate its WAL.
    pub fn checkpoint(&self, name: &str) -> Result<()> {
        self.collection(name)?.checkpoint()
    }

    /// Checkpoint every collection that has durability enabled (e.g. at
    /// clean shutdown, so the next start replays an empty WAL tail).
    pub fn checkpoint_all(&self) -> Result<()> {
        for c in self.collections.values() {
            if c.wal_path().is_some() {
                c.checkpoint()?;
            }
        }
        Ok(())
    }

    /// Drop a collection.
    pub fn drop_collection(&mut self, name: &str) -> Result<()> {
        self.collections
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| Error::NotFound(format!("collection `{name}`")))
    }

    /// Aggregate online-maintenance counters across every collection
    /// (the `server-stats` surface: rebuild pressure at a glance).
    pub fn maintenance_stats(&self) -> MaintenanceStats {
        let mut agg = MaintenanceStats::default();
        for c in self.collections.values() {
            let s = c.stats();
            agg.merges += s.merges as u64;
            agg.buffered += s.buffered as u64;
            agg.rebuilds_in_flight += s.rebuilds_in_flight as u64;
            agg.last_swap_micros = agg.last_swap_micros.max(s.last_swap_micros);
            agg.failed_merges += s.failed_merges as u64;
        }
        agg
    }

    /// Collection names.
    pub fn collection_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.collections.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// Borrow a collection.
    pub fn collection(&self, name: &str) -> Result<&Collection> {
        self.collections
            .get(name)
            .ok_or_else(|| Error::NotFound(format!("collection `{name}`")))
    }

    /// Mutably borrow a collection.
    pub fn collection_mut(&mut self, name: &str) -> Result<&mut Collection> {
        self.collections
            .get_mut(name)
            .ok_or_else(|| Error::NotFound(format!("collection `{name}`")))
    }

    /// Indirect manipulation: embed `text` with the system model and
    /// insert it as entity `key`.
    pub fn insert_text(
        &self,
        collection: &str,
        key: u64,
        text: &str,
        attrs: &[(&str, AttrValue)],
    ) -> Result<()> {
        let vector = self.embedder.embed(text);
        self.collection(collection)?.insert(key, &vector, attrs)
    }

    /// Indirect manipulation: embed `text` and search with it.
    pub fn search_text(
        &self,
        collection: &str,
        text: &str,
        k: usize,
        params: &SearchParams,
    ) -> Result<Vec<SearchHit>> {
        let vector = self.embedder.embed(text);
        self.collection(collection)?.search(&vector, k, params)
    }

    /// Parse and execute one VQL statement.
    pub fn execute(&self, statement: &str) -> Result<VqlOutput> {
        self.execute_statement(&vql::parse(statement)?)
    }

    /// Execute a parsed statement with shared access: reads and writes
    /// alike, since each collection orders its own writers.
    pub fn execute_statement(&self, statement: &VqlStatement) -> Result<VqlOutput> {
        match statement {
            VqlStatement::Insert {
                collection,
                key,
                vector,
                attrs,
            } => {
                let attr_refs: Vec<(&str, AttrValue)> =
                    attrs.iter().map(|(n, v)| (n.as_str(), v.clone())).collect();
                self.collection(collection)?
                    .insert(*key, vector, &attr_refs)?;
                Ok(VqlOutput::Done)
            }
            VqlStatement::Delete { collection, key } => {
                self.collection(collection)?.delete(*key)?;
                Ok(VqlOutput::Done)
            }
            VqlStatement::Search {
                collection,
                vector,
                k,
                predicate,
                strategy,
                params,
            } => {
                let c = self.collection(collection)?;
                let hits = c.search_hybrid(vector, *k, predicate, params, *strategy)?;
                Ok(VqlOutput::Hits(hits))
            }
            VqlStatement::HybridSearch {
                collection,
                vector,
                query,
                k,
                predicate,
                fusion,
                strategy,
                params,
            } => {
                let c = self.collection(collection)?;
                let result =
                    c.hybrid_text_search(vector, query, *k, predicate, *fusion, *strategy, params)?;
                Ok(VqlOutput::FusedHits(result))
            }
            VqlStatement::RangeSearch {
                collection,
                vector,
                radius,
                predicate,
                params,
            } => {
                let c = self.collection(collection)?;
                let hits = c.range_search(vector, *radius, predicate, params)?;
                Ok(VqlOutput::Hits(hits))
            }
            VqlStatement::Count { collection } => {
                Ok(VqlOutput::Count(self.collection(collection)?.len()))
            }
        }
    }
}

impl std::fmt::Debug for Vdbms {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Vdbms({}, collections={:?})",
            self.profile.name(),
            self.collection_names()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdb_core::attr::AttrType;
    use vdb_core::metric::Metric;

    fn db() -> Vdbms {
        let mut db = Vdbms::new(SystemProfile::MostlyMixed);
        db.create_collection(
            CollectionSchema::new("docs", 3, Metric::Euclidean)
                .column("brand", AttrType::Str)
                .column("price", AttrType::Int),
            IndexSpec::Flat,
        )
        .unwrap();
        db
    }

    #[test]
    fn ddl_lifecycle() {
        let mut db = db();
        assert_eq!(db.collection_names(), vec!["docs"]);
        assert!(db
            .create_collection(
                CollectionSchema::new("docs", 3, Metric::Euclidean),
                IndexSpec::Flat
            )
            .is_err());
        db.drop_collection("docs").unwrap();
        assert!(db.collection("docs").is_err());
        assert!(db.drop_collection("docs").is_err());
    }

    #[test]
    fn vql_end_to_end() {
        let db = db();
        for i in 0..20 {
            let stmt = format!(
                "INSERT INTO docs KEY {i} VALUES [{}.0, 0, 0] SET brand = '{}', price = {}",
                i,
                if i % 2 == 0 { "acme" } else { "zen" },
                i * 10
            );
            assert_eq!(db.execute(&stmt).unwrap(), VqlOutput::Done);
        }
        assert_eq!(db.execute("COUNT docs").unwrap(), VqlOutput::Count(20));

        let out = db
            .execute("SEARCH docs K 3 NEAR [7.1, 0, 0] WHERE brand = 'acme' AND price < 150")
            .unwrap();
        match out {
            VqlOutput::Hits(hits) => {
                assert_eq!(hits[0].key, 8, "nearest even-keyed row under price 150");
                assert!(hits.iter().all(|h| h.key % 2 == 0));
            }
            _ => panic!("expected hits"),
        }

        db.execute("DELETE FROM docs KEY 8").unwrap();
        let out = db.execute("SEARCH docs K 1 NEAR [8.0, 0, 0]").unwrap();
        match out {
            VqlOutput::Hits(hits) => assert_ne!(hits[0].key, 8),
            _ => panic!(),
        }
        assert_eq!(db.execute("COUNT docs").unwrap(), VqlOutput::Count(19));
    }

    #[test]
    fn vql_strategy_override_runs() {
        let db = db();
        for i in 0..10 {
            db.execute(&format!("INSERT INTO docs KEY {i} VALUES [{i}, 0, 0]"))
                .unwrap();
        }
        for st in [
            "brute_force",
            "pre_filter",
            "post_filter",
            "block_first",
            "visit_first",
        ] {
            let out = db
                .execute(&format!(
                    "SEARCH docs K 2 NEAR [4.2, 0, 0] WHERE price IS NULL USING {st}"
                ))
                .unwrap();
            match out {
                VqlOutput::Hits(hits) => assert_eq!(hits[0].key, 4, "{st}"),
                _ => panic!(),
            }
        }
    }

    #[test]
    fn indirect_text_manipulation() {
        let mut db = Vdbms::new(SystemProfile::MostlyVector);
        db.set_embedder(TextEmbedder::new(64));
        db.create_collection(
            CollectionSchema::new("notes", 64, Metric::Cosine),
            IndexSpec::Flat,
        )
        .unwrap();
        db.insert_text("notes", 1, "rust systems programming language", &[])
            .unwrap();
        db.insert_text("notes", 2, "chocolate cake baking recipe", &[])
            .unwrap();
        db.insert_text("notes", 3, "rust memory safety borrow checker", &[])
            .unwrap();
        let hits = db
            .search_text("notes", "programming in rust", 2, &SearchParams::default())
            .unwrap();
        let keys: Vec<u64> = hits.iter().map(|h| h.key).collect();
        assert!(keys.contains(&1) && keys.contains(&3), "{keys:?}");
    }

    #[test]
    fn vql_range_search_end_to_end() {
        let db = db();
        for i in 0..10 {
            db.execute(&format!(
                "INSERT INTO docs KEY {i} VALUES [{i}, 0, 0] SET price = {}",
                i * 10
            ))
            .unwrap();
        }
        // Entities within distance 2.5 of x=4: keys 2..=6.
        let out = db.execute("SEARCH docs WITHIN 2.5 NEAR [4, 0, 0]").unwrap();
        match out {
            VqlOutput::Hits(hits) => {
                let mut keys: Vec<u64> = hits.iter().map(|h| h.key).collect();
                keys.sort_unstable();
                assert_eq!(keys, vec![2, 3, 4, 5, 6]);
            }
            _ => panic!("expected hits"),
        }
        // With a predicate the in-radius set is filtered exactly.
        let out = db
            .execute("SEARCH docs WITHIN 2.5 NEAR [4, 0, 0] WHERE price < 45")
            .unwrap();
        match out {
            VqlOutput::Hits(hits) => {
                let mut keys: Vec<u64> = hits.iter().map(|h| h.key).collect();
                keys.sort_unstable();
                assert_eq!(keys, vec![2, 3, 4]);
            }
            _ => panic!("expected hits"),
        }
        // Deletes are respected.
        db.execute("DELETE FROM docs KEY 4").unwrap();
        let out = db.execute("SEARCH docs WITHIN 0.5 NEAR [4, 0, 0]").unwrap();
        assert_eq!(out, VqlOutput::Hits(vec![]));
    }

    #[test]
    fn vql_match_end_to_end() {
        let mut db = Vdbms::new(SystemProfile::MostlyMixed);
        db.create_collection(
            CollectionSchema::new("articles", 3, Metric::Euclidean)
                .column("body", AttrType::Str)
                .text_index("body"),
            IndexSpec::Flat,
        )
        .unwrap();
        for (i, body) in [
            "rust vector database",
            "cooking with saffron",
            "database index tuning",
            "vector search at scale",
        ]
        .iter()
        .enumerate()
        {
            db.execute(&format!(
                "INSERT INTO articles KEY {i} VALUES [{i}.0, 0, 0] SET body = '{body}'"
            ))
            .unwrap();
        }
        let out = db
            .execute(
                "SEARCH articles K 2 NEAR [3.0, 0, 0] MATCH 'vector database'                  FUSE rrf 60 HYBRID fused",
            )
            .unwrap();
        match out {
            VqlOutput::FusedHits(result) => {
                assert_eq!(result.hits.len(), 2);
                assert_eq!(result.stats.n_docs, 4);
                // Doc 3 ("vector search at scale") matches a term AND is
                // nearest to [3,0,0] — it must lead the fused ranking.
                assert_eq!(result.hits[0].key, 3, "{result:?}");
                assert!(result.hits.iter().all(|h| h.text_score > 0.0));
            }
            other => panic!("expected FusedHits, got {other:?}"),
        }
        // MATCH against a collection with no text index is a typed error.
        let mut plain = db;
        plain
            .create_collection(
                CollectionSchema::new("docs", 3, Metric::Euclidean),
                IndexSpec::Flat,
            )
            .unwrap();
        assert!(plain
            .execute("SEARCH docs K 1 NEAR [1, 0, 0] MATCH 'anything'")
            .is_err());
    }

    #[test]
    fn reads_run_on_shared_access() {
        let db = db();
        for stmt in [
            "INSERT INTO docs KEY 1 VALUES [1, 0, 0] SET price = 10",
            "INSERT INTO docs KEY 2 VALUES [2, 0, 0] SET price = 20",
        ] {
            assert_eq!(db.execute(stmt).unwrap(), VqlOutput::Done);
        }
        for (text, want) in [
            (
                "SEARCH docs K 2 NEAR [1.9, 0, 0] WHERE price >= 10",
                vec![2, 1],
            ),
            ("SEARCH docs WITHIN 0.5 NEAR [2, 0, 0]", vec![2]),
        ] {
            let stmt = vql::parse(text).unwrap();
            let shared: &Vdbms = &db;
            match shared.execute_statement(&stmt).unwrap() {
                VqlOutput::Hits(hits) => {
                    assert_eq!(hits.iter().map(|h| h.key).collect::<Vec<_>>(), want)
                }
                other => panic!("{text}: expected hits, got {other:?}"),
            }
            assert_eq!(
                db.execute_statement(&stmt).unwrap(),
                db.execute(text).unwrap(),
                "{text}"
            );
        }
        let count = vql::parse("COUNT docs").unwrap();
        assert_eq!(db.execute_statement(&count).unwrap(), VqlOutput::Count(2));
    }

    #[test]
    fn errors_surface() {
        let db = db();
        assert!(db.execute("SEARCH ghosts K 1 NEAR [1, 2, 3]").is_err());
        assert!(
            db.execute("SEARCH docs K 1 NEAR [1]").is_err(),
            "dimension mismatch"
        );
        assert!(db.execute("nonsense").is_err());
    }
}
