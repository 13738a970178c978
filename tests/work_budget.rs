//! Work budgets: the exact number of heap allocations, and the bytes they
//! request, that 100 warm searches cost per index family and on the
//! served collection path, and that 100 collection inserts cost with and
//! without a write-ahead log. Counts are integers, identical on every run and
//! host, so the budgets are equalities rather than timing bounds.
//!
//! A counting `#[global_allocator]` counts only on the thread that is
//! measuring (a `const`-initialised thread-local flag), so other tests
//! running in parallel in this binary never leak into a count. An
//! intended change updates `BUDGETS` from the table a failure prints.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vdb::{Collection, CollectionConfig, CollectionSchema, IndexSpec, SystemProfile, Vdbms};
use vdb_core::context::SearchContext;
use vdb_core::{dataset, AttrType, AttrValue, Metric, Rng, SearchParams, Vectors};
use vdb_storage::TempDir;

struct Counting;

thread_local! {
    static MEASURING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Count one allocation of `size` bytes if this thread is measuring.
fn note(size: usize) {
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.with(|a| a.set(a.get() + 1));
        BYTES.with(|b| b.set(b.get() + size as u64));
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// bookkeeping touches only `const`-initialised thread-local cells, which
// never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, bytes)` that `f` requests on this thread.
fn measure(f: impl FnOnce()) -> (u64, u64) {
    ALLOCS.with(|a| a.set(0));
    BYTES.with(|b| b.set(0));
    MEASURING.with(|m| m.set(true));
    f();
    MEASURING.with(|m| m.set(false));
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

const K: usize = 10;

/// Allocations and bytes of 100 warm top-10 searches, per row, of the
/// one merge that folds the buffered collection's writes in, and of 100
/// inserts with and without a write-ahead log.
const BUDGETS: &[(&str, u64, u64)] = &[
    ("flat", 100, 16000),
    ("lsh", 100, 16000),
    ("ivf_flat", 100, 16000),
    ("ivf_sq", 200, 220800),
    ("ivf_pq", 200, 220800),
    ("kd_tree", 100, 16000),
    ("pca_tree", 100, 16000),
    ("rp_forest", 100, 16000),
    ("annoy", 100, 16000),
    ("flann", 100, 16000),
    ("knng", 100, 16000),
    ("nsw", 100, 16000),
    ("hnsw", 100, 16000),
    ("nsg", 100, 16000),
    ("vamana", 100, 16000),
    ("diskann", 100, 102400),
    ("spann", 100, 16000),
    ("collection/hnsw", 300, 76800),
    ("collection/hnsw+buffer", 400, 436800),
    ("collection/merge", 14731, 6137648),
    ("collection/insert", 606, 40276),
    ("collection/insert+wal", 906, 102476),
];

fn fixture() -> (Vectors, Vectors) {
    let mut rng = Rng::seed_from_u64(1100);
    let data = dataset::clustered(2000, 32, 12, 0.5, &mut rng).vectors;
    let queries = dataset::split_queries(&data, 100, 0.05, &mut rng);
    (data, queries)
}

/// 100 `search_with` calls on one context, after one warm-up pass.
fn index_row(name: &str, data: &Vectors, queries: &Vectors) -> (u64, u64) {
    let index = IndexSpec::parse(name)
        .unwrap()
        .build(data.clone(), Metric::Euclidean)
        .unwrap();
    let params = SearchParams::default();
    let mut ctx = SearchContext::new();
    let pass = |ctx: &mut SearchContext| {
        for q in queries.iter() {
            std::hint::black_box(index.search_with(ctx, q, K, &params).unwrap());
        }
    };
    pass(&mut ctx);
    measure(|| pass(&mut ctx))
}

/// 100 `Collection::search` calls on a merged, non-durable HNSW
/// collection, after one warm-up pass. With `buffered`, 64 writes stay
/// unmerged first: 40 inserts of new keys, 16 overwrites of merged keys
/// and 8 deletes of merged keys; the searches are then followed by one
/// measured `merge()` that folds those writes in.
fn collection_row(
    data: &Vectors,
    queries: &Vectors,
    buffered: bool,
) -> ((u64, u64), Option<(u64, u64)>) {
    let mut db = Vdbms::new(SystemProfile::MostlyVector);
    db.create_collection(
        CollectionSchema::new("docs", data.dim(), Metric::Euclidean),
        IndexSpec::parse("hnsw").unwrap(),
    )
    .unwrap();
    let c = db.collection_mut("docs").unwrap();
    for (key, v) in data.iter().enumerate() {
        c.insert(key as u64, v, &[]).unwrap();
    }
    c.merge().unwrap();
    if buffered {
        let n = data.len() as u64;
        for i in 0..40 {
            c.insert(n + i, queries.get(i as usize), &[]).unwrap();
        }
        for i in 0..16 {
            c.insert(7 * i, queries.get(40 + i as usize), &[]).unwrap();
        }
        for i in 0..8 {
            c.delete(7 * i + 3).unwrap();
        }
        assert_eq!(c.stats().buffered, 56, "the writes stay unmerged");
    }
    let params = SearchParams::default();
    let pass = || {
        for q in queries.iter() {
            std::hint::black_box(c.search(q, K, &params).unwrap());
        }
    };
    pass();
    let searches = measure(pass);
    let merge = buffered.then(|| {
        let cost = measure(|| c.merge().unwrap());
        assert_eq!(c.stats().buffered, 0, "the merge folds every write in");
        cost
    });
    (searches, merge)
}

/// 100 inserts of fresh keys into an empty collection, each a row of
/// `data` with one `Int` and one `Str` attribute built by the caller, as
/// a client request carries them. With `durable`, the collection logs
/// every write to a WAL in a temporary directory first. The buffer never
/// reaches the merge threshold, so no rebuild is counted.
fn insert_row(data: &Vectors, durable: bool) -> (u64, u64) {
    let dir = TempDir::new("work-budget-insert").unwrap();
    let schema = CollectionSchema::new("docs", data.dim(), Metric::Euclidean)
        .column("price", AttrType::Int)
        .column("brand", AttrType::Str);
    let cfg = CollectionConfig {
        wal_dir: durable.then(|| dir.path().to_path_buf()),
        ..CollectionConfig::default()
    };
    let c = Collection::create(schema, cfg).unwrap();
    let cost = measure(|| {
        for key in 0..100u64 {
            let attrs = [
                ("price", AttrValue::Int(key as i64)),
                ("brand", AttrValue::Str(format!("b{}", key % 7))),
            ];
            c.insert(key, data.get(key as usize), &attrs).unwrap();
        }
    });
    assert_eq!(c.stats().buffered, 100, "no insert merged");
    cost
}

#[test]
fn warm_searches_allocate_exactly_their_budget() {
    let (data, queries) = fixture();
    let mut measured: Vec<(String, u64, u64)> = IndexSpec::all_defaults()
        .iter()
        .map(IndexSpec::name)
        .chain(["diskann", "spann"])
        .map(|name| {
            let (allocs, bytes) = index_row(name, &data, &queries);
            (name.to_string(), allocs, bytes)
        })
        .collect();
    for (name, buffered) in [("collection/hnsw", false), ("collection/hnsw+buffer", true)] {
        let ((allocs, bytes), merge) = collection_row(&data, &queries, buffered);
        measured.push((name.to_string(), allocs, bytes));
        if let Some((allocs, bytes)) = merge {
            measured.push(("collection/merge".to_string(), allocs, bytes));
        }
    }
    for (name, durable) in [
        ("collection/insert", false),
        ("collection/insert+wal", true),
    ] {
        let (allocs, bytes) = insert_row(&data, durable);
        measured.push((name.to_string(), allocs, bytes));
    }
    let expected: Vec<(String, u64, u64)> = BUDGETS
        .iter()
        .map(|&(name, allocs, bytes)| (name.to_string(), allocs, bytes))
        .collect();
    if measured != expected {
        let table: String = measured
            .iter()
            .map(|(name, allocs, bytes)| format!("    ({name:?}, {allocs}, {bytes}),\n"))
            .collect();
        panic!("work budgets moved; the measured table is\n{table}");
    }
}
