//! Online-maintenance correctness: in-place index mutability for every
//! mutable family (tombstones never surface, post-repair recall holds),
//! and background merges with atomic publication under concurrent
//! searches (no torn or stale-beyond-bound results).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use vdb::{Collection, CollectionConfig, CollectionSchema, IndexSpec, MergeMode};
use vdb_core::attr::{AttrType, AttrValue};
use vdb_core::error::Error;
use vdb_core::metric::Metric;
use vdb_core::rng::Rng;
use vdb_core::vector::Vectors;
use vdb_core::{dataset, FlatIndex, SearchParams, VectorIndex};
use vdb_storage::TempDir;

const DIM: usize = 16;

/// Every index family with in-place mutability (spec name → parse).
const MUTABLE_FAMILIES: [&str; 6] = ["flat", "hnsw", "nsw", "ivf_flat", "ivf_sq", "ivf_pq"];

fn params() -> SearchParams {
    SearchParams::default().with_nprobe(32).with_beam_width(96)
}

fn clustered(n: usize, seed: u64) -> Vectors {
    let mut rng = Rng::seed_from_u64(seed);
    dataset::clustered(n, DIM, 5, 0.4, &mut rng).vectors
}

/// Rows with `id % 3 == 0` are removed: interleaved across the whole id
/// range, so graph repair has to re-wire edges everywhere.
fn removal_set(n: usize) -> Vec<usize> {
    (0..n).filter(|id| id % 3 == 0).collect()
}

#[test]
fn tombstoned_rows_never_surface_in_any_mutable_family() {
    let data = clustered(600, 0xD11);
    let n = data.len();
    let removed = removal_set(n);
    for name in MUTABLE_FAMILIES {
        let spec = IndexSpec::parse(name).unwrap();
        let mut idx = spec.build(data.clone(), Metric::Euclidean).unwrap();
        let m = idx
            .as_mutable()
            .unwrap_or_else(|| panic!("{name} must be mutable"));
        for &id in &removed {
            assert!(m.remove(id).unwrap(), "{name}: first remove of {id}");
            assert!(!m.remove(id).unwrap(), "{name}: remove is idempotent");
        }
        assert_eq!(m.live(), n - removed.len(), "{name}: live count");
        // Probe from every removed row's own vector — the strongest pull
        // toward the tombstoned id — and from live rows.
        for &id in removed.iter().step_by(7) {
            let hits = idx.search(data.get(id), 20, &params()).unwrap();
            assert!(!hits.is_empty(), "{name}: search returned nothing");
            assert!(
                hits.iter().all(|h| h.id % 3 != 0),
                "{name}: tombstoned row surfaced near id {id}: {hits:?}"
            );
        }
        for id in (1..n).step_by(41) {
            let hits = idx.search(data.get(id), 10, &params()).unwrap();
            assert!(
                hits.iter().all(|h| h.id % 3 != 0),
                "{name}: tombstoned row surfaced in live probe {id}"
            );
        }
    }
}

#[test]
fn post_repair_recall_within_two_points_of_fresh_build() {
    let data = clustered(600, 0xD12);
    let n = data.len();
    let removed = removal_set(n);
    // Compact live rows for the fresh build + brute-force ground truth.
    let live_ids: Vec<usize> = (0..n).filter(|id| id % 3 != 0).collect();
    let mut live = Vectors::new(DIM);
    for &id in &live_ids {
        live.push(data.get(id)).unwrap();
    }
    // In-distribution queries that are NOT live rows: the removed vectors.
    let queries: Vec<usize> = removed.iter().copied().take(60).collect();
    let gt_index = FlatIndex::build(live.clone(), Metric::Euclidean).unwrap();
    let k = 10;

    for name in ["hnsw", "nsw", "ivf_flat", "ivf_sq", "ivf_pq"] {
        let spec = IndexSpec::parse(name).unwrap();
        // Repaired: build on everything, then remove in place.
        let mut repaired = spec.build(data.clone(), Metric::Euclidean).unwrap();
        let m = repaired.as_mutable().expect("mutable family");
        for &id in &removed {
            m.remove(id).unwrap();
        }
        // Fresh: built over only the surviving rows.
        let fresh = spec.build(live.clone(), Metric::Euclidean).unwrap();

        let (mut hits_repaired, mut hits_fresh, mut total) = (0usize, 0usize, 0usize);
        for &q in &queries {
            let qv = data.get(q);
            let gt: Vec<usize> = gt_index
                .search(qv, k, &params())
                .unwrap()
                .iter()
                .map(|h| live_ids[h.id])
                .collect();
            total += gt.len();
            for h in repaired.search(qv, k, &params()).unwrap() {
                if gt.contains(&h.id) {
                    hits_repaired += 1;
                }
            }
            for h in fresh.search(qv, k, &params()).unwrap() {
                if gt.contains(&live_ids[h.id]) {
                    hits_fresh += 1;
                }
            }
        }
        let recall_repaired = hits_repaired as f64 / total as f64;
        let recall_fresh = hits_fresh as f64 / total as f64;
        assert!(
            recall_repaired >= recall_fresh - 0.02,
            "{name}: post-repair recall {recall_repaired:.3} dropped more than 2 points \
             below fresh-build recall {recall_fresh:.3}"
        );
    }
}

fn vec_at(x: f32) -> Vec<f32> {
    vec![x, 0.0, 0.0, 0.0]
}

/// Acceptance: searches run continuously across 20+ background merges
/// with zero incorrect results. The collection uses an exact (Flat)
/// index, so every search has a provable answer: a search during a merge
/// sees the pre-merge index plus the buffer (read-your-writes), and a
/// search after `merge()` returns reflects every buffered update.
#[test]
fn searches_stay_exact_across_twenty_background_merges() {
    let schema = CollectionSchema::new("maint", 4, Metric::Euclidean);
    let cfg = CollectionConfig {
        index: IndexSpec::Flat,
        merge_threshold: 8,
        merge_mode: MergeMode::Background,
        ..Default::default()
    };
    let c = Collection::create(schema, cfg).unwrap();
    // Static region: keys 0..50, merged into the main index up front so
    // every concurrent search has a known exact answer.
    for i in 0..50u64 {
        loop {
            match c.insert(i, &vec_at(i as f32), &[]) {
                Ok(()) => break,
                Err(Error::Busy) => std::thread::sleep(std::time::Duration::from_millis(1)),
                Err(e) => panic!("seed insert failed: {e}"),
            }
        }
    }
    c.merge().unwrap();
    assert_eq!(c.stats().buffered, 0);

    // Server-style sharing: the writer and the searchers share `&c` with
    // no outer lock, and background rebuilds run on the maintenance
    // thread, so writes genuinely overlap searches and index swaps.
    let shared = &c;
    let stop = AtomicBool::new(false);
    let searches = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for t in 0..3 {
            let stop = &stop;
            let searches = &searches;
            s.spawn(move || {
                let p = SearchParams::default();
                let mut i = t as u64;
                while !stop.load(Ordering::Relaxed) {
                    let key = i % 50;
                    let hits = shared.search(&vec_at(key as f32), 1, &p).unwrap();
                    assert_eq!(hits[0].key, key, "search must stay exact mid-merge");
                    assert_eq!(hits[0].dist, 0.0, "distance to own vector is zero");
                    searches.fetch_add(1, Ordering::Relaxed);
                    i += 7;
                }
            });
        }
        // Writer: dynamic region keys 1000.., far from the static probes.
        // Busy responses (bounded buffer) back off and retry.
        let mut inserted = 0u64;
        while inserted < 800 {
            let key = 1000 + inserted;
            match shared.insert(key, &vec_at(1000.0 + inserted as f32), &[]) {
                Ok(()) => inserted += 1,
                Err(Error::Busy) => std::thread::sleep(std::time::Duration::from_millis(1)),
                Err(e) => panic!("unexpected insert error: {e}"),
            }
        }
        // Keep searches flowing until the worker has visibly completed
        // 20+ atomic publications.
        for _ in 0..2000 {
            if shared.stats().merges >= 20 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        stop.store(true, Ordering::Relaxed);
    });
    let s = c.stats();
    assert!(
        s.merges >= 20,
        "need 20+ background merges, got {}",
        s.merges
    );
    assert!(
        searches.load(Ordering::Relaxed) > 100,
        "searchers must have run throughout"
    );
    // Freshness contract: once merge() completes, every acknowledged
    // write is reflected by the published index.
    c.merge().unwrap();
    assert_eq!(c.stats().buffered, 0);
    assert_eq!(c.len(), 850);
    let p = SearchParams::default();
    for probe in [1000u64, 1399, 1799] {
        let hits = c
            .search(&vec_at(1000.0 + (probe - 1000) as f32), 1, &p)
            .unwrap();
        assert_eq!(hits[0].key, probe, "acknowledged write lost");
    }
}

/// Delete-then-search at the collection level for each merge mode: a
/// tombstoned key must never surface, before or after maintenance.
#[test]
fn collection_delete_then_search_under_every_merge_mode() {
    for mode in [MergeMode::Blocking, MergeMode::Background] {
        let schema = CollectionSchema::new("del", 4, Metric::Euclidean);
        let cfg = CollectionConfig {
            index: IndexSpec::Flat,
            merge_threshold: 8,
            merge_mode: mode,
            ..Default::default()
        };
        let c = Collection::create(schema, cfg).unwrap();
        for i in 0..24u64 {
            loop {
                match c.insert(i, &vec_at(i as f32), &[]) {
                    Ok(()) => break,
                    Err(Error::Busy) => std::thread::sleep(std::time::Duration::from_millis(1)),
                    Err(e) => panic!("{}: {e}", mode.name()),
                }
            }
        }
        for i in (0..24u64).step_by(4) {
            c.delete(i).unwrap();
        }
        let p = SearchParams::default();
        let check = |c: &Collection, stage: &str| {
            let hits = c.search(&vec_at(8.0), 18, &p).unwrap();
            assert!(
                hits.iter().all(|h| h.key % 4 != 0),
                "{} ({stage}): deleted key surfaced: {hits:?}",
                mode.name()
            );
            assert_eq!(c.len(), 18, "{} ({stage})", mode.name());
        };
        check(&c, "pre-merge");
        c.merge().unwrap();
        check(&c, "post-merge");
        assert_eq!(c.stats().buffered, 0, "{}", mode.name());
        assert_eq!(c.stats().merge_mode, mode.name());
    }
}

/// An overwrite that lands while a background merge is running survives
/// the merge even when it keeps the row's vector and changes only its
/// attributes: the merge retires the buffered rows it copied, not rows
/// that happen to hold an equal vector. Checked in memory and after
/// recovery.
#[test]
fn overwrite_during_background_merge_survives_it() {
    let n = 20_000;
    let dir = TempDir::new("lost-update").unwrap();
    let schema = CollectionSchema::new("lost", DIM, Metric::Euclidean).column("tag", AttrType::Int);
    let cfg = CollectionConfig {
        index: IndexSpec::parse("hnsw").unwrap(),
        merge_threshold: n,
        merge_mode: MergeMode::Background,
        wal_dir: Some(dir.path().to_path_buf()),
        ..Default::default()
    };
    let data = clustered(n, 0xD13);
    let c = Collection::create(schema.clone(), cfg.clone()).unwrap();
    for (key, v) in data.iter().enumerate() {
        c.insert(key as u64, v, &[("tag", AttrValue::Int(1))])
            .unwrap();
    }
    // The n-th insert rang the maintenance doorbell.
    while c.stats().rebuilds_in_flight == 0 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    std::thread::sleep(std::time::Duration::from_millis(100));
    c.insert(5, data.get(5), &[("tag", AttrValue::Int(99))])
        .unwrap();
    let s = c.stats();
    assert_eq!(
        (s.rebuilds_in_flight, s.merges),
        (1, 0),
        "the overwrite must land during the merge"
    );
    while c.stats().merges == 0 {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let tag = |c: &Collection| c.get_attrs(5).unwrap()[0].1.clone();
    assert_eq!(tag(&c), AttrValue::Int(99), "overwrite lost in memory");
    assert_eq!(
        c.stats().buffered,
        1,
        "the overwrite landed after the merge's snapshot and stays buffered"
    );
    drop(c);
    let r = Collection::recover(schema, cfg).unwrap();
    assert_eq!(tag(&r), AttrValue::Int(99), "overwrite lost after recovery");
    assert_eq!(r.len(), n);
}
