//! Coarse-quantizer training and row-assignment routines shared by the
//! IVF family and SPANN.
//!
//! Every IVF-style build does the same three steps — train a k-means
//! coarse quantizer, assign each row to its nearest centroid, scatter
//! rows into per-centroid posting lists — so they live here once instead
//! of being copy-pasted into each index. Assignment is a pure per-row
//! function and the scatter walks rows in ascending order, so both are
//! bit-identical for any thread count.

use vdb_core::error::{Error, Result};
use vdb_core::parallel::{clamp_threads, parallel_map_chunks, BuildOptions};
use vdb_core::vector::Vectors;
use vdb_quant::{KMeans, KMeansConfig};

/// Sentinel list id for removed rows.
pub(crate) const REMOVED: u32 = u32::MAX;

/// Train a k-means coarse quantizer with `nlist` centroids, with
/// explicit [`BuildOptions`] (the assignment step of each Lloyd
/// iteration fans out; see [`KMeans::train_with`]).
pub(crate) fn train_coarse_with(
    vectors: &Vectors,
    nlist: usize,
    train_iters: usize,
    seed: u64,
    opts: &BuildOptions,
) -> Result<KMeans> {
    if nlist == 0 {
        return Err(Error::InvalidParameter("nlist must be positive".into()));
    }
    if vectors.is_empty() {
        return Err(Error::EmptyCollection);
    }
    KMeans::train_with(
        vectors,
        &KMeansConfig {
            k: nlist,
            max_iters: train_iters,
            tolerance: 1e-4,
            seed,
        },
        opts,
    )
}

/// Nearest-centroid id for every row, fanned out over threads. Pure per
/// row, returned in row order — bit-identical for any thread count.
pub(crate) fn assign_rows(coarse: &KMeans, vectors: &Vectors, opts: &BuildOptions) -> Vec<usize> {
    let threads = clamp_threads(opts.threads, vectors.len() / 64);
    let chunks = parallel_map_chunks(vectors.len(), threads, |_, range| {
        range
            .map(|row| coarse.assign(vectors.get(row)).0)
            .collect::<Vec<_>>()
    });
    chunks.concat()
}

/// Scatter per-row centroid assignments into `nlist` posting lists. Rows
/// are walked in ascending order, matching the historical serial insert
/// loops.
pub(crate) fn scatter_lists(assigns: &[usize], nlist: usize) -> Vec<Vec<u32>> {
    let mut lists: Vec<Vec<u32>> = vec![Vec::new(); nlist];
    for (row, &c) in assigns.iter().enumerate() {
        lists[c].push(row as u32);
    }
    lists
}
