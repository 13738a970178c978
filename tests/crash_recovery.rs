//! Crash-fault-injection harness: for EVERY injectable durable step in
//! insert / delete / merge / checkpoint, simulate a process crash at
//! that step, recover from disk, and assert the collection's logical
//! state (keys, vectors, AND attributes) equals exactly the pre-op or
//! post-op state — never a torn intermediate.
//!
//! The crash model is a process kill: bytes already handed to the OS
//! survive, the step that fires leaves a torn half-write, and every
//! later durable step in the same "process" fails until `disarm()`
//! (the dead process never runs again). `failpoint::count_crash_points`
//! first counts how many injectable steps an operation performs; the
//! sweep then re-runs the operation once per step with that step armed.

use vdb::{Collection, CollectionConfig, CollectionSchema, IndexSpec, MergeMode};
use vdb_core::attr::{AttrType, AttrValue};
use vdb_core::error::Result;
use vdb_core::parallel::BuildOptions;
use vdb_core::{Metric, SearchParams};
use vdb_query::{PlannerMode, Predicate};
use vdb_storage::{failpoint, TempDir};

/// Logical collection state: sorted (key, vector, attributes) rows.
type State = Vec<(u64, Vec<f32>, Vec<(String, AttrValue)>)>;

fn dump(c: &Collection) -> State {
    c.keys()
        .into_iter()
        .map(|k| {
            (
                k,
                c.get(k).expect("live key has a vector"),
                c.get_attrs(k).expect("live key has attributes"),
            )
        })
        .collect()
}

fn schema() -> CollectionSchema {
    CollectionSchema::new("crash", 4, Metric::Euclidean)
        .column("tag", AttrType::Str)
        .column("score", AttrType::Int)
}

fn cfg(dir: &TempDir, merge_threshold: usize) -> CollectionConfig {
    cfg_mode(dir, merge_threshold, MergeMode::Blocking)
}

fn cfg_mode(dir: &TempDir, merge_threshold: usize, merge_mode: MergeMode) -> CollectionConfig {
    CollectionConfig {
        index: IndexSpec::Flat,
        merge_threshold,
        merge_mode,
        planner: PlannerMode::CostBased,
        wal_dir: Some(dir.path().to_path_buf()),
        build: BuildOptions::serial(),
        ..Default::default()
    }
}

fn vec_at(x: f32) -> Vec<f32> {
    vec![x, x * 0.5, 0.0, 1.0]
}

fn insert_n(c: &mut Collection, n: u64) {
    for i in 0..n {
        let tag = if i % 2 == 0 { "even" } else { "odd" };
        c.insert(
            i,
            &vec_at(i as f32),
            &[("tag", tag.into()), ("score", (i as i64).into())],
        )
        .unwrap();
    }
}

/// Exhaustive sweep: build the pre-op reference state and the post-op
/// reference state on scratch directories, count the operation's
/// injectable steps, then for each step N crash at N, recover, and
/// require the recovered state to be exactly `pre` or exactly `post`.
fn sweep(
    name: &str,
    threshold: usize,
    setup: impl Fn(&mut Collection),
    op: impl Fn(&mut Collection) -> Result<()>,
) {
    sweep_mode(name, threshold, MergeMode::Blocking, setup, op)
}

/// Same sweep under a chosen merge mode. Background sweeps keep the
/// threshold above the row count so the maintenance worker is never
/// nudged: `merge()` then runs inline on the test thread, where the
/// thread-local failpoints are armed, making every crash point
/// deterministic.
fn sweep_mode(
    name: &str,
    threshold: usize,
    mode: MergeMode,
    setup: impl Fn(&mut Collection),
    op: impl Fn(&mut Collection) -> Result<()>,
) {
    // Reference run (failpoints off): pre- and post-op states.
    let refdir = TempDir::new("crash-ref").unwrap();
    let mut c = Collection::create(schema(), cfg_mode(&refdir, threshold, mode)).unwrap();
    setup(&mut c);
    let pre = dump(&c);
    op(&mut c).expect("reference op must succeed");
    let post = dump(&c);

    // Count injectable steps (Counting mode: hits increment, never fire).
    let countdir = TempDir::new("crash-count").unwrap();
    let mut c = Collection::create(schema(), cfg_mode(&countdir, threshold, mode)).unwrap();
    setup(&mut c);
    let (res, points) = failpoint::count_crash_points(|| op(&mut c));
    res.expect("counting run must succeed");
    assert!(points > 0, "{name}: op performed no durable steps");
    drop(c);

    for n in 1..=points {
        let dir = TempDir::new("crash-sweep").unwrap();
        let conf = cfg_mode(&dir, threshold, mode);
        let mut c = Collection::create(schema(), conf.clone()).unwrap();
        setup(&mut c);
        failpoint::arm(n);
        let err = op(&mut c);
        failpoint::disarm();
        let err = err.expect_err("armed op must report the crash");
        assert!(
            failpoint::is_crash(&err),
            "{name}[{n}/{points}]: unexpected error kind: {err}"
        );
        drop(c); // the dead process: nothing else reaches disk

        let r = Collection::recover(schema(), conf)
            .unwrap_or_else(|e| panic!("{name}[{n}/{points}]: recovery failed: {e}"));
        let got = dump(&r);
        assert!(
            got == pre || got == post,
            "{name}[{n}/{points}]: recovered state is neither pre- nor \
             post-op\n  pre:  {pre:?}\n  post: {post:?}\n  got:  {got:?}"
        );
    }
}

#[test]
fn crash_sweep_insert_fresh_key() {
    sweep(
        "insert-fresh",
        100,
        |c| insert_n(c, 5),
        |c| {
            c.insert(
                42,
                &vec_at(42.0),
                &[("tag", "new".into()), ("score", 42i64.into())],
            )
        },
    );
}

#[test]
fn crash_sweep_insert_overwrites_buffered_key() {
    sweep(
        "insert-overwrite-buffered",
        100,
        |c| insert_n(c, 5),
        |c| c.insert(2, &vec_at(99.0), &[("tag", "updated".into())]),
    );
}

#[test]
fn crash_sweep_insert_overwrites_merged_key() {
    // Setup crosses the merge threshold, so key 3 lives in the merged
    // main part; the op shadows it through the buffer.
    sweep(
        "insert-overwrite-main",
        8,
        |c| insert_n(c, 8),
        |c| c.insert(3, &vec_at(77.0), &[("score", 77i64.into())]),
    );
}

#[test]
fn crash_sweep_delete_buffered_key() {
    sweep("delete-buffered", 100, |c| insert_n(c, 5), |c| c.delete(1));
}

#[test]
fn crash_sweep_delete_merged_key() {
    sweep("delete-main", 8, |c| insert_n(c, 8), |c| c.delete(3));
}

#[test]
fn crash_sweep_insert_that_triggers_merge() {
    // The 8th insert crosses the threshold: WAL append + sync, then the
    // full checkpoint (snapshot sections, sync, rename, directory sync,
    // WAL truncate, WAL sync) all run inside one op.
    sweep(
        "insert-triggers-merge",
        8,
        |c| insert_n(c, 7),
        |c| {
            c.insert(
                7,
                &vec_at(7.0),
                &[("tag", "odd".into()), ("score", 7i64.into())],
            )
        },
    );
}

#[test]
fn crash_sweep_explicit_merge() {
    // Merge is logically a no-op (pre == post), so this sweep checks
    // that no checkpoint step can corrupt or lose state.
    sweep(
        "merge",
        1000,
        |c| {
            insert_n(c, 10);
            c.delete(4).unwrap();
        },
        |c| c.merge(),
    );
}

#[test]
fn crash_sweep_insert_with_background_merge_enabled() {
    // Background mode must not change insert durability: the WAL append
    // is the only durable step, and a crash there loses exactly the one
    // unacknowledged row.
    sweep_mode(
        "insert-background",
        1000,
        MergeMode::Background,
        |c| insert_n(c, 5),
        |c| {
            c.insert(
                42,
                &vec_at(42.0),
                &[("tag", "new".into()), ("score", 42i64.into())],
            )
        },
    );
}

#[test]
fn crash_sweep_explicit_merge_with_background_merge_enabled() {
    // The same rebuild cycle the maintenance worker runs, driven inline
    // so every checkpoint step can be crashed deterministically.
    sweep_mode(
        "merge-background",
        1000,
        MergeMode::Background,
        |c| {
            insert_n(c, 10);
            c.delete(4).unwrap();
        },
        |c| c.merge(),
    );
}

#[test]
fn crash_sweep_delete_with_background_merge_enabled() {
    sweep_mode(
        "delete-background",
        1000,
        MergeMode::Background,
        |c| insert_n(c, 6),
        |c| c.delete(3),
    );
}

#[test]
fn crash_sweep_checkpoint_over_existing_snapshot() {
    // A second checkpoint replaces an existing snapshot file: the
    // rename must atomically swap old for new at every crash point.
    sweep(
        "checkpoint-replace",
        1000,
        |c| {
            insert_n(c, 6);
            c.checkpoint().unwrap();
            c.insert(50, &vec_at(50.0), &[("tag", "post-ckpt".into())])
                .unwrap();
            c.delete(0).unwrap();
        },
        |c| c.checkpoint(),
    );
}

#[test]
fn hybrid_query_after_crash_replays_attributes() {
    // Satellite regression: crash mid-insert after a batch of hybrid
    // inserts, recover, and run a predicate query — the WAL must have
    // carried the attributes (a vector-only log would return rows the
    // predicate should exclude, or none at all).
    let dir = TempDir::new("crash-hybrid").unwrap();
    let conf = cfg(&dir, 100);
    let mut c = Collection::create(schema(), conf.clone()).unwrap();
    insert_n(&mut c, 10);
    failpoint::arm(1); // torn WAL append on the next insert
    let err = c.insert(99, &vec_at(99.0), &[("tag", "lost".into())]);
    failpoint::disarm();
    assert!(failpoint::is_crash(&err.unwrap_err()));
    drop(c);

    let r = Collection::recover(schema(), conf).unwrap();
    assert_eq!(r.len(), 10, "torn final insert must not survive");
    let pred = Predicate::eq("tag", "even");
    let hits = r
        .search_hybrid(&vec_at(4.0), 5, &pred, &SearchParams::default(), None)
        .unwrap();
    assert_eq!(hits.len(), 5);
    assert!(
        hits.iter().all(|h| h.key % 2 == 0),
        "predicate must see recovered attributes: {hits:?}"
    );
    for h in &hits {
        let attrs = r.get_attrs(h.key).unwrap();
        assert_eq!(attrs[0].1, AttrValue::Str("even".into()));
        assert_eq!(attrs[1].1, AttrValue::Int(h.key as i64));
    }
}

#[test]
fn wal_replays_only_post_checkpoint_tail() {
    // Acceptance criterion: after a merge the WAL is truncated, so
    // recovery = snapshot + tail, not a full-history replay.
    let dir = TempDir::new("crash-tail").unwrap();
    let conf = cfg(&dir, 8);
    let mut c = Collection::create(schema(), conf.clone()).unwrap();
    insert_n(&mut c, 8); // crosses the threshold: merge + checkpoint
    let wal = c.wal_path().unwrap();
    assert_eq!(
        std::fs::metadata(&wal).unwrap().len(),
        0,
        "checkpoint must truncate the WAL"
    );
    assert!(c.snapshot_path().unwrap().exists());

    c.insert(100, &vec_at(100.0), &[("tag", "tail".into())])
        .unwrap();
    c.delete(2).unwrap();
    let tail_len = std::fs::metadata(&wal).unwrap().len();
    assert!(tail_len > 0, "tail records live in the WAL");
    let expected = dump(&c);
    drop(c);

    let r = Collection::recover(schema(), conf).unwrap();
    assert_eq!(dump(&r), expected);
    // The tail holds exactly the two post-checkpoint records: far
    // smaller than the eight-insert history it replaced.
    let two_record_cap = 2 * (64 + 4 * 4 + 32); // generous per-frame bound
    assert!(
        tail_len < two_record_cap,
        "tail should be two records, got {tail_len} bytes"
    );
}

/// Torn-snapshot recovery of the inverted index: sweep every crash
/// point of a checkpoint whose snapshot carries a text section, recover,
/// and require the recovered collection to answer the SAME hybrid
/// text+vector query as the reference — whichever of the pre- or
/// post-op snapshot survived, the inverted index rebuilt from it must
/// be complete (the fixture's logical rows are identical either way).
#[test]
fn crash_sweep_checkpoint_preserves_inverted_index() {
    use vdb::{Fusion, HybridResult, HybridStrategy};

    let tschema = || {
        CollectionSchema::new("crashtext", 4, Metric::Euclidean)
            .column("body", AttrType::Str)
            .text_index("body")
    };
    let tcfg = |dir: &TempDir, threshold: usize| CollectionConfig {
        index: IndexSpec::Flat,
        merge_threshold: threshold,
        merge_mode: MergeMode::Blocking,
        planner: PlannerMode::CostBased,
        wal_dir: Some(dir.path().to_path_buf()),
        build: BuildOptions::serial(),
        ..Default::default()
    };
    let texts = [
        "grape harvest ledger",
        "volcanic soil survey",
        "ledger of glacier cores",
        "survey notes on grape rot",
        "core drilling ledger appendix",
        "harvest appendix tables",
    ];
    let seed = |c: &mut Collection| {
        for (i, t) in texts.iter().enumerate() {
            c.insert(i as u64, &vec_at(i as f32), &[("body", (*t).into())])
                .unwrap();
        }
    };
    let hybrid = |c: &Collection| -> HybridResult {
        c.hybrid_text_search(
            &vec_at(2.0),
            "ledger survey",
            texts.len(),
            &Predicate::True,
            Fusion::Rrf { k0: 60 },
            Some(HybridStrategy::Fused),
            &SearchParams::default(),
        )
        .unwrap()
    };

    // Sweep both layouts: all rows merged into the snapshot's text
    // section (threshold 4) and a split main/WAL-tail state (threshold
    // 100, rows only in the WAL until the explicit checkpoint).
    for threshold in [4usize, 100] {
        // Reference run (failpoints off): hybrid answer is checkpoint-
        // invariant, so one reference covers pre and post states.
        let refdir = TempDir::new("crash-text-ref").unwrap();
        let mut c = Collection::create(tschema(), tcfg(&refdir, threshold)).unwrap();
        seed(&mut c);
        let want_state = dump(&c);
        let want_hybrid = hybrid(&c);
        assert!(!want_hybrid.hits.is_empty());
        c.checkpoint().expect("reference checkpoint");
        assert_eq!(hybrid(&c), want_hybrid, "checkpoint changed the answer");
        drop(c);

        let countdir = TempDir::new("crash-text-count").unwrap();
        let mut c = Collection::create(tschema(), tcfg(&countdir, threshold)).unwrap();
        seed(&mut c);
        let (res, points) = failpoint::count_crash_points(|| c.checkpoint());
        res.expect("counting run must succeed");
        assert!(points > 0);
        drop(c);

        for n in 1..=points {
            let dir = TempDir::new("crash-text-sweep").unwrap();
            let conf = tcfg(&dir, threshold);
            let mut c = Collection::create(tschema(), conf.clone()).unwrap();
            seed(&mut c);
            failpoint::arm(n);
            let err = c.checkpoint();
            failpoint::disarm();
            assert!(
                failpoint::is_crash(&err.expect_err("armed checkpoint must crash")),
                "threshold {threshold} point {n}"
            );
            drop(c);

            let r = Collection::recover(tschema(), conf).unwrap_or_else(|e| {
                panic!("threshold {threshold} point {n}/{points}: recovery failed: {e}")
            });
            assert_eq!(
                dump(&r),
                want_state,
                "threshold {threshold} point {n}/{points}: rows diverged"
            );
            // Immediately queryable: the fused ranking is correct even
            // before maintenance (WAL-tail rows replayed into the buffer
            // may transiently double-count in the corpus stats, which
            // perturbs absolute BM25 scores but not the candidate set).
            let fresh = hybrid(&r);
            assert_eq!(
                fresh.hits.iter().map(|h| h.key).collect::<Vec<_>>(),
                want_hybrid.hits.iter().map(|h| h.key).collect::<Vec<_>>(),
                "threshold {threshold} point {n}/{points}: recovered ranking diverged"
            );
            // After one merge the replayed tail is folded and the
            // inverted index answers bit-identically to the reference.
            let r = r;
            r.merge().unwrap();
            assert_eq!(
                hybrid(&r),
                want_hybrid,
                "threshold {threshold} point {n}/{points}: inverted index diverged"
            );
        }
    }
}

/// HNSW collections whose checkpoints carry the index image. Answers at
/// a small beam depend on the exact graph: recovery must land on the
/// graph that was served, loaded from the image or rebuilt from the
/// pre-crash rows, never a graph over a torn row set.
mod image {
    use super::*;
    use vdb_core::{dataset, Rng, Vectors};
    use vdb_storage::Wal;

    const INDEXED: usize = 800;
    const BUFFERED: usize = 40;

    pub type Answers = Vec<Vec<(u64, u32)>>;

    pub fn schema() -> CollectionSchema {
        CollectionSchema::new("crashimg", 8, Metric::Euclidean).column("score", AttrType::Int)
    }

    pub fn cfg(dir: &TempDir) -> CollectionConfig {
        CollectionConfig {
            index: IndexSpec::Hnsw(Default::default()),
            // Above every row count: `merge()` runs inline on the test
            // thread, where the failpoints are armed.
            merge_threshold: 1000,
            merge_mode: MergeMode::Background,
            wal_dir: Some(dir.path().to_path_buf()),
            ..Default::default()
        }
    }

    fn data() -> (Vectors, Vectors) {
        let mut rng = Rng::seed_from_u64(4100);
        let rows = dataset::gaussian(INDEXED + BUFFERED, 8, &mut rng);
        let queries = dataset::gaussian(16, 8, &mut rng);
        (rows, queries)
    }

    pub fn insert(c: &mut Collection, range: std::ops::Range<usize>) {
        let (rows, _) = data();
        for i in range {
            c.insert(i as u64, rows.get(i), &[("score", (i as i64).into())])
                .unwrap();
        }
    }

    /// Merged rows (the index, imaged in the snapshot) plus buffered ones.
    pub fn indexed_then_buffered(c: &mut Collection) {
        insert(c, 0..INDEXED);
        c.merge().unwrap();
        insert(c, INDEXED..INDEXED + BUFFERED);
        c.delete(5).unwrap();
    }

    pub fn indexed_only(c: &mut Collection) {
        insert(c, 0..INDEXED);
        c.merge().unwrap();
    }

    pub fn answers(c: &Collection) -> Answers {
        let (_, queries) = data();
        let params = SearchParams::default().with_beam_width(8);
        queries
            .iter()
            .map(|q| {
                c.search(q, 10, &params)
                    .unwrap()
                    .iter()
                    .map(|h| (h.key, h.dist.to_bits()))
                    .collect()
            })
            .collect()
    }

    /// Crash `op` at every durable step; recovery must land on the pre-
    /// or post-op state through the snapshot's image, and answer exactly
    /// as the in-process collection in that state did.
    ///
    /// Which state that is follows from the files the crash left:
    /// - old snapshot: the pre-op collection (old image + same WAL);
    /// - new snapshot + rewritten WAL: the crashed process had already
    ///   published the new index, and its in-memory answers are the
    ///   reference;
    /// - new snapshot + old WAL: the merged rows are replayed into the
    ///   buffer again. If the crashed process published, re-applying the
    ///   old WAL to it reproduces that state in process; if it crashed
    ///   before publishing, the new graph was never served, and the
    ///   image must at least load it reproducibly.
    pub fn sweep(
        name: &str,
        setup: impl Fn(&mut Collection),
        op: impl Fn(&mut Collection) -> Result<()>,
    ) {
        let refdir = TempDir::new("crash-img-ref").unwrap();
        let mut c = Collection::create(schema(), cfg(&refdir)).unwrap();
        setup(&mut c);
        let pre = dump(&c);
        op(&mut c).expect("reference op must succeed");
        let post = dump(&c);
        drop(c);

        let countdir = TempDir::new("crash-img-count").unwrap();
        let mut c = Collection::create(schema(), cfg(&countdir)).unwrap();
        setup(&mut c);
        let (res, points) = failpoint::count_crash_points(|| op(&mut c));
        res.expect("counting run must succeed");
        assert!(points > 0);
        drop(c);

        for n in 1..=points {
            let at = format!("{name}[{n}/{points}]");
            let dir = TempDir::new("crash-img-sweep").unwrap();
            let mut c = Collection::create(schema(), cfg(&dir)).unwrap();
            setup(&mut c);
            let pre_answers = answers(&c);
            let snap_path = c.snapshot_path().unwrap();
            let wal_path = c.wal_path().unwrap();
            let pre_snap = std::fs::read(&snap_path).unwrap();
            let pre_wal = std::fs::read(&wal_path).unwrap();
            let pre_records = Wal::replay(&wal_path).unwrap();

            failpoint::arm(n);
            let err = op(&mut c);
            failpoint::disarm();
            assert!(
                failpoint::is_crash(&err.expect_err("armed op must crash")),
                "{at}"
            );
            let published = c.stats().buffered == 0;
            let snap_changed = std::fs::read(&snap_path).unwrap() != pre_snap;
            let wal_changed = std::fs::read(&wal_path).unwrap() != pre_wal;

            let r = Collection::recover(schema(), cfg(&dir))
                .unwrap_or_else(|e| panic!("{at}: recovery failed: {e}"));
            assert!(r.stats().index_from_image, "{at}: recovery rebuilt");
            let state = dump(&r);
            assert!(state == pre || state == post, "{at}: torn state");
            let got = answers(&r);
            if !snap_changed {
                assert_eq!(got, pre_answers, "{at}: pre-op answers");
            } else if wal_changed {
                assert_eq!(got, answers(&c), "{at}: published answers");
            } else if published {
                for rec in pre_records {
                    match rec {
                        vdb_storage::WalRecord::Insert { key, vector, attrs } => {
                            let attrs: Vec<(&str, AttrValue)> =
                                attrs.iter().map(|(n, v)| (n.as_str(), v.clone())).collect();
                            c.insert(key, &vector, &attrs).unwrap();
                        }
                        vdb_storage::WalRecord::Delete { key } => c.delete(key).unwrap(),
                    }
                }
                assert_eq!(got, answers(&c), "{at}: published + replayed WAL");
            } else {
                drop(r);
                let again = Collection::recover(schema(), cfg(&dir)).unwrap();
                assert!(again.stats().index_from_image, "{at}");
                assert_eq!(answers(&again), got, "{at}: unserved image reloads");
            }
        }
    }
}

#[test]
fn crash_sweep_background_rebuild_keeps_hnsw_answers() {
    image::sweep("rebuild-hnsw", image::indexed_then_buffered, |c| c.merge());
}

#[test]
fn crash_sweep_explicit_checkpoint_keeps_hnsw_answers() {
    // Empty buffer: the checkpoint writes the served graph's image in
    // place, and every crash point must recover that same graph.
    image::sweep("checkpoint-hnsw", image::indexed_only, |c| c.checkpoint());
}

#[test]
fn crash_sweep_checkpoint_with_buffer_keeps_hnsw_answers() {
    // A buffered checkpoint is a forced rebuild cycle.
    image::sweep(
        "checkpoint-rebuild-hnsw",
        image::indexed_then_buffered,
        |c| c.checkpoint(),
    );
}
