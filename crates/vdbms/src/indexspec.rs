//! The index registry: every index type in the workspace behind one
//! declarative specification.
//!
//! This is the facade's "CREATE INDEX ... USING <type>" surface and the
//! benchmark harness's way of enumerating the whole index zoo.

use std::path::PathBuf;
use vdb_core::context::SearchContext;
use vdb_core::error::{Error, Result};
use vdb_core::index::{IndexStats, RowFilter, SearchParams};
use vdb_core::metric::Metric;
use vdb_core::parallel::BuildOptions;
use vdb_core::topk::Neighbor;
use vdb_core::vector::Vectors;
use vdb_core::VectorIndex;
use vdb_index_graph::{
    DiskAnnConfig, DiskAnnIndex, HnswConfig, HnswIndex, KnngConfig, KnngIndex, NsgConfig, NsgIndex,
    NswConfig, NswIndex, VamanaConfig, VamanaIndex,
};
use vdb_index_table::{
    IvfConfig, IvfFlatIndex, IvfPqIndex, IvfSqIndex, LshConfig, LshIndex, SpannConfig, SpannIndex,
};
use vdb_index_tree::{annoy_forest_with, flann_forest_with, kd_tree, pca_tree, rp_forest_with};
use vdb_quant::{PqConfig, SqBits};

/// A declarative index specification.
#[derive(Debug, Clone)]
pub enum IndexSpec {
    /// Exact brute-force scan.
    Flat,
    /// Locality-sensitive hashing.
    Lsh(LshConfig),
    /// IVF with exact in-list distances.
    IvfFlat(IvfConfig),
    /// IVF over scalar-quantized codes.
    IvfSq {
        /// IVF configuration.
        ivf: IvfConfig,
        /// Code width.
        bits: SqBits,
    },
    /// IVFADC (IVF + PQ residual codes).
    IvfPq {
        /// IVF configuration.
        ivf: IvfConfig,
        /// PQ configuration of the residual codes.
        pq: PqConfig,
    },
    /// k-d tree.
    KdTree,
    /// PCA tree.
    PcaTree,
    /// Random-projection forest.
    RpForest {
        /// Number of trees.
        trees: usize,
    },
    /// ANNOY forest.
    Annoy {
        /// Number of trees.
        trees: usize,
    },
    /// FLANN randomized k-d forest.
    Flann {
        /// Number of trees.
        trees: usize,
    },
    /// NN-Descent k-NN graph.
    Knng(KnngConfig),
    /// Navigable small world graph.
    Nsw(NswConfig),
    /// Hierarchical NSW.
    Hnsw(HnswConfig),
    /// Navigating spreading-out graph.
    Nsg(NsgConfig),
    /// Vamana (DiskANN's in-memory graph).
    Vamana(VamanaConfig),
    /// Disk-resident DiskANN: the Vamana graph serialized to a spec-owned
    /// temp file and served through the paged cache.
    DiskAnn {
        /// Memory budget as a fraction of the raw vector bytes, converted
        /// to a page-cache budget (the D1 knob; `0.1` ≈ "serve with 10%
        /// of the data in memory").
        memory_fraction: f64,
    },
    /// Disk-resident SPANN posting lists behind the same pipeline.
    Spann {
        /// Number of posting lists.
        nlist: usize,
        /// Memory budget as a fraction of the raw vector bytes.
        memory_fraction: f64,
    },
}

/// Page-cache budget for a memory budget expressed as a fraction of the
/// raw vector bytes (`n × dim × 4`).
fn budget_pages(n: usize, dim: usize, fraction: f64) -> usize {
    if fraction <= 0.0 {
        return 0;
    }
    (((n * dim * 4) as f64 * fraction) / vdb_storage::PAGE_SIZE as f64).ceil() as usize
}

/// File name of a DiskANN index inside its [`TempDiskIndex`] directory.
const DISKANN_FILE: &str = "diskann.idx";

/// A disk-resident index together with the [`vdb_storage::TempDir`] that
/// owns its backing file: the file lives exactly as long as the index.
struct TempDiskIndex<I: VectorIndex> {
    _dir: vdb_storage::TempDir,
    inner: I,
    /// The backing file when its bytes are the index's image (the file
    /// alone reopens the index), `None` for families that cannot reopen.
    image_file: Option<PathBuf>,
}

impl<I: VectorIndex> VectorIndex for TempDiskIndex<I> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn metric(&self) -> &Metric {
        self.inner.metric()
    }

    fn search_with(
        &self,
        ctx: &mut SearchContext,
        query: &[f32],
        k: usize,
        params: &SearchParams,
    ) -> Result<Vec<Neighbor>> {
        self.inner.search_with(ctx, query, k, params)
    }

    fn search_filtered_with(
        &self,
        ctx: &mut SearchContext,
        query: &[f32],
        k: usize,
        params: &SearchParams,
        filter: &dyn RowFilter,
    ) -> Result<Vec<Neighbor>> {
        self.inner
            .search_filtered_with(ctx, query, k, params, filter)
    }

    fn stats(&self) -> IndexStats {
        self.inner.stats()
    }

    fn image(&self) -> Option<Vec<u8>> {
        std::fs::read(self.image_file.as_ref()?).ok()
    }
}

impl IndexSpec {
    /// Short stable name (matches `VectorIndex::name` of the built index).
    pub fn name(&self) -> &'static str {
        match self {
            IndexSpec::Flat => "flat",
            IndexSpec::Lsh(_) => "lsh",
            IndexSpec::IvfFlat(_) => "ivf_flat",
            IndexSpec::IvfSq { .. } => "ivf_sq",
            IndexSpec::IvfPq { .. } => "ivf_pq",
            IndexSpec::KdTree => "kd_tree",
            IndexSpec::PcaTree => "pca_tree",
            IndexSpec::RpForest { .. } => "rp_forest",
            IndexSpec::Annoy { .. } => "annoy",
            IndexSpec::Flann { .. } => "flann",
            IndexSpec::Knng(_) => "knng",
            IndexSpec::Nsw(_) => "nsw",
            IndexSpec::Hnsw(_) => "hnsw",
            IndexSpec::Nsg(_) => "nsg",
            IndexSpec::Vamana(_) => "vamana",
            IndexSpec::DiskAnn { .. } => "diskann",
            IndexSpec::Spann { .. } => "spann",
        }
    }

    /// A stable fingerprint of this spec: its name plus a CRC of the
    /// full parameterization. Recorded in checkpoint snapshots next to
    /// the index image: recovery loads the image only when the
    /// collection's spec has the same fingerprint, and otherwise rebuilds
    /// from the vectors, so a changed spec is honored rather than
    /// rejected.
    pub fn fingerprint(&self) -> String {
        format!(
            "{}:{:08x}",
            self.name(),
            vdb_storage::crc32(format!("{self:?}").as_bytes())
        )
    }

    /// Parse a spec by name with default parameters.
    pub fn parse(name: &str) -> Result<IndexSpec> {
        match name {
            "flat" => Ok(IndexSpec::Flat),
            "lsh" => Ok(IndexSpec::Lsh(LshConfig::default())),
            "ivf_flat" | "ivf" => Ok(IndexSpec::IvfFlat(IvfConfig::new(32))),
            "ivf_sq" => Ok(IndexSpec::IvfSq {
                ivf: IvfConfig::new(32),
                bits: SqBits::B8,
            }),
            "ivf_pq" | "ivfadc" => Ok(IndexSpec::IvfPq {
                ivf: IvfConfig::new(32),
                pq: PqConfig::new(8),
            }),
            "kd_tree" | "kd" => Ok(IndexSpec::KdTree),
            "pca_tree" | "pca" => Ok(IndexSpec::PcaTree),
            "rp_forest" | "rp" => Ok(IndexSpec::RpForest { trees: 8 }),
            "annoy" => Ok(IndexSpec::Annoy { trees: 8 }),
            "flann" => Ok(IndexSpec::Flann { trees: 8 }),
            "knng" | "kgraph" => Ok(IndexSpec::Knng(KnngConfig::new(16))),
            "nsw" => Ok(IndexSpec::Nsw(NswConfig::default())),
            "hnsw" => Ok(IndexSpec::Hnsw(HnswConfig::default())),
            "nsg" => Ok(IndexSpec::Nsg(NsgConfig::default())),
            "vamana" | "diskann_mem" => Ok(IndexSpec::Vamana(VamanaConfig::default())),
            "diskann" => Ok(IndexSpec::DiskAnn {
                memory_fraction: 0.1,
            }),
            "spann" => Ok(IndexSpec::Spann {
                nlist: 32,
                memory_fraction: 0.1,
            }),
            other => Err(Error::Parse(format!("unknown index type `{other}`"))),
        }
    }

    /// Every spec with default parameters (the harness's index zoo).
    pub fn all_defaults() -> Vec<IndexSpec> {
        [
            "flat",
            "lsh",
            "ivf_flat",
            "ivf_sq",
            "ivf_pq",
            "kd_tree",
            "pca_tree",
            "rp_forest",
            "annoy",
            "flann",
            "knng",
            "nsw",
            "hnsw",
            "nsg",
            "vamana",
        ]
        .iter()
        .map(|n| IndexSpec::parse(n).expect("registry names parse"))
        .collect()
    }

    /// Build an index over an owned collection on one thread.
    pub fn build(&self, vectors: Vectors, metric: Metric) -> Result<Box<dyn VectorIndex>> {
        self.build_with(vectors, metric, &BuildOptions::serial())
    }

    /// Build an index over an owned collection with explicit
    /// [`BuildOptions`], forwarded to every family whose build fans out:
    /// the IVFs, SPANN, the forests, KNNG, NSG, the batch-built HNSW and
    /// Vamana graphs, and DiskANN (its Vamana graph and navigation codes).
    /// The index is the same at any thread count; NSW, Flat, LSH and the
    /// single-tree kd/PCA indexes always build on one thread.
    /// [`Collection::recover`](crate::Collection::recover) builds with
    /// every core, since nothing is served beside it; merge-time rebuilds
    /// use `CollectionConfig::build`.
    pub fn build_with(
        &self,
        vectors: Vectors,
        metric: Metric,
        opts: &BuildOptions,
    ) -> Result<Box<dyn VectorIndex>> {
        let seed = 0xB1B0;
        Ok(match self {
            IndexSpec::Flat => Box::new(vdb_core::FlatIndex::build(vectors, metric)?),
            IndexSpec::Lsh(cfg) => Box::new(LshIndex::build(vectors, metric, cfg.clone())?),
            IndexSpec::IvfFlat(cfg) => {
                Box::new(IvfFlatIndex::build_with(vectors, metric, cfg, &(), opts)?)
            }
            IndexSpec::IvfSq { ivf, bits } => {
                Box::new(IvfSqIndex::build_with(vectors, metric, ivf, bits, opts)?)
            }
            IndexSpec::IvfPq { ivf, pq } => {
                Box::new(IvfPqIndex::build_with(vectors, metric, ivf, pq, opts)?)
            }
            IndexSpec::KdTree => Box::new(kd_tree(vectors, metric, 16, seed)?),
            IndexSpec::PcaTree => Box::new(pca_tree(vectors, metric, 16, seed)?),
            IndexSpec::RpForest { trees } => {
                Box::new(rp_forest_with(vectors, metric, *trees, 16, seed, opts)?)
            }
            IndexSpec::Annoy { trees } => {
                Box::new(annoy_forest_with(vectors, metric, *trees, 16, seed, opts)?)
            }
            IndexSpec::Flann { trees } => {
                Box::new(flann_forest_with(vectors, metric, *trees, 16, seed, opts)?)
            }
            IndexSpec::Knng(cfg) => {
                Box::new(KnngIndex::build_with(vectors, metric, cfg.clone(), opts)?)
            }
            IndexSpec::Nsw(cfg) => Box::new(NswIndex::build(vectors, metric, cfg.clone())?),
            IndexSpec::Hnsw(cfg) => {
                Box::new(HnswIndex::build_with(vectors, metric, cfg.clone(), opts)?)
            }
            IndexSpec::Nsg(cfg) => {
                Box::new(NsgIndex::build_with(vectors, metric, cfg.clone(), opts)?)
            }
            IndexSpec::Vamana(cfg) => {
                Box::new(VamanaIndex::build_with(vectors, metric, cfg.clone(), opts)?)
            }
            IndexSpec::DiskAnn { memory_fraction } => {
                let dim = vectors.dim();
                let budget = budget_pages(vectors.len(), dim, *memory_fraction);
                let vam = VamanaIndex::build_with(vectors, metric, VamanaConfig::default(), opts)?;
                let dir = vdb_storage::TempDir::new("spec-diskann")?;
                let path = dir.file(DISKANN_FILE);
                let inner = DiskAnnIndex::build_with(
                    &path,
                    &vam,
                    &DiskAnnConfig {
                        // Largest PQ width <= 8 that divides the dimension,
                        // so defaults work for any dim.
                        pq_m: (1..=8usize)
                            .rev()
                            .find(|&m| dim.is_multiple_of(m))
                            .unwrap_or(1),
                        cache_pages: budget,
                        ..DiskAnnConfig::default()
                    },
                    opts,
                )?;
                Box::new(TempDiskIndex {
                    _dir: dir,
                    inner,
                    image_file: Some(path),
                })
            }
            IndexSpec::Spann {
                nlist,
                memory_fraction,
            } => {
                let budget = budget_pages(vectors.len(), vectors.dim(), *memory_fraction);
                let dir = vdb_storage::TempDir::new("spec-spann")?;
                let mut cfg = SpannConfig::new(*nlist);
                cfg.cache_pages = budget;
                let inner =
                    SpannIndex::build_with(dir.file("spann.idx"), &vectors, metric, &cfg, opts)?;
                Box::new(TempDiskIndex {
                    _dir: dir,
                    inner,
                    image_file: None,
                })
            }
        })
    }

    /// Reload an index of this spec from the [`VectorIndex::image`] a
    /// built one produced over the same `vectors`, with no distance
    /// computations: HNSW decodes its graph, DiskANN reopens its index
    /// file (written into a fresh spec-owned directory) under the same
    /// page-cache budget a build would get. `Ok(None)` for families
    /// without an image format — the caller builds instead; `Err` when
    /// the image is damaged, of an unknown version, or does not describe
    /// `vectors`.
    pub fn load(
        &self,
        image: &[u8],
        vectors: &Vectors,
        metric: Metric,
    ) -> Result<Option<Box<dyn VectorIndex>>> {
        let index: Box<dyn VectorIndex> = match self {
            IndexSpec::Hnsw(cfg) => Box::new(HnswIndex::from_image(
                image,
                vectors.clone(),
                metric,
                cfg.clone(),
            )?),
            IndexSpec::DiskAnn { memory_fraction } => {
                let budget = budget_pages(vectors.len(), vectors.dim(), *memory_fraction);
                let dir = vdb_storage::TempDir::new("spec-diskann")?;
                let path = dir.file(DISKANN_FILE);
                std::fs::write(&path, image)?;
                let inner = DiskAnnIndex::open(&path, metric, budget)?;
                Box::new(TempDiskIndex {
                    _dir: dir,
                    inner,
                    image_file: Some(path),
                })
            }
            _ => return Ok(None),
        };
        if index.len() != vectors.len() || index.dim() != vectors.dim() {
            return Err(Error::Corrupt(format!(
                "{} image holds {} rows of dim {}, expected {} of dim {}",
                self.name(),
                index.len(),
                index.dim(),
                vectors.len(),
                vectors.dim()
            )));
        }
        Ok(Some(index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdb_core::dataset;
    use vdb_core::index::SearchParams;
    use vdb_core::rng::Rng;

    #[test]
    fn every_spec_builds_and_searches() {
        let mut rng = Rng::seed_from_u64(150);
        let data = dataset::clustered(300, 16, 4, 0.4, &mut rng).vectors;
        let params = SearchParams::default().with_nprobe(32).with_beam_width(64);
        for spec in IndexSpec::all_defaults() {
            let idx = spec.build(data.clone(), Metric::Euclidean).unwrap();
            assert_eq!(
                idx.name(),
                spec.name(),
                "name mismatch for {:?}",
                spec.name()
            );
            assert_eq!(idx.len(), 300);
            let hits = idx.search(data.get(0), 5, &params).unwrap();
            assert!(!hits.is_empty(), "{} returned nothing", spec.name());
            assert_eq!(
                hits[0].id,
                0,
                "{} should find the query point first",
                spec.name()
            );
        }
    }

    #[test]
    fn disk_specs_build_and_search() {
        let mut rng = Rng::seed_from_u64(151);
        let data = dataset::clustered(400, 16, 4, 0.4, &mut rng).vectors;
        let params = SearchParams::default().with_nprobe(32).with_beam_width(64);
        for name in ["diskann", "spann"] {
            let spec = IndexSpec::parse(name).unwrap();
            let mut idx = spec.build(data.clone(), Metric::Euclidean).unwrap();
            assert!(idx.as_mutable().is_none(), "{name} is disk-resident");
            assert_eq!(idx.name(), name);
            assert_eq!(idx.len(), 400);
            let hits = idx.search(data.get(0), 5, &params).unwrap();
            assert_eq!(hits[0].id, 0, "{name} should find the query point");
            // The point of the disk variants: memory-resident navigation
            // state stays below the raw vector bytes even at this tiny
            // scale, where the fixed PQ-codebook overhead dominates.
            assert!(idx.stats().memory_bytes < 400 * 16 * 4, "{name}");
        }
    }

    #[test]
    fn parse_rejects_unknown() {
        assert!(IndexSpec::parse("btree").is_err());
        assert_eq!(IndexSpec::parse("hnsw").unwrap().name(), "hnsw");
        assert_eq!(IndexSpec::parse("ivfadc").unwrap().name(), "ivf_pq");
    }

    #[test]
    fn insert_support_flags() {
        // The collection maintains an index in place exactly when
        // `as_mutable` is `Some`; every other family rebuilds out of place.
        let mut rng = Rng::seed_from_u64(152);
        let data = dataset::clustered(200, 16, 4, 0.4, &mut rng).vectors;
        let mutable = ["flat", "ivf_flat", "ivf_sq", "ivf_pq", "nsw", "hnsw"];
        let names = IndexSpec::all_defaults()
            .iter()
            .map(IndexSpec::name)
            .collect::<Vec<_>>();
        for name in names.into_iter().chain(["diskann", "spann"]) {
            let mut idx = IndexSpec::parse(name)
                .unwrap()
                .build(data.clone(), Metric::Euclidean)
                .unwrap();
            assert_eq!(
                idx.as_mutable().is_some(),
                mutable.contains(&name),
                "{name}"
            );
        }
    }
}
