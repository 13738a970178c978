//! The out-of-place update buffer (§2.3(3)).
//!
//! Data-dependent indexes are expensive to update in place, so a
//! collection buffers writes and folds them into its main index in bulk.
//! The buffer holds, per live key, only the newest write — vector,
//! attributes and a write sequence — plus a tombstone set that never
//! shares a key with the live set. An overwrite replaces its key's row,
//! so "newest version wins" is the structure itself, and a read is one
//! map lookup. Searches scan the buffer whole: merges keep it small.
//!
//! A merge copies the buffer ([`Buffer::snapshot`]), folds the copy into
//! a new main index with no lock held, then [`Buffer::retire`]s exactly
//! the rows it copied: a row whose write sequence moved since the copy
//! (overwritten, or deleted and written again) stays buffered, even when
//! the newer write carries an equal vector.

use std::collections::{HashMap, HashSet};
use vdb_core::attr::AttrValue;
use vdb_core::metric::Metric;
use vdb_core::vector::Vectors;
use vdb_query::Predicate;
use vdb_storage::WalRecord;

/// The attribute values one write set, in the order given (columns it did
/// not set are absent and read as NULL).
pub(crate) type Attrs = Vec<(String, AttrValue)>;

/// The newest write of one live key.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Row {
    pub vector: Vec<f32>,
    pub attrs: Attrs,
    /// Position of this write among every write the buffer took.
    seq: u64,
}

impl Row {
    /// The value this write set for column `col`.
    pub fn attr(&self, col: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(n, _)| n == col).map(|(_, v)| v)
    }
}

/// Copies of the buffer's contents taken for a merge.
pub(crate) struct Snapshot {
    /// Live keys, newest write first.
    pub keys: Vec<u64>,
    /// Their vectors, aligned with `keys`.
    pub vectors: Vectors,
    /// Their attributes, aligned with `keys`.
    pub attrs: Vec<Attrs>,
    /// Their write sequences, aligned with `keys`.
    seqs: Vec<u64>,
    /// Tombstoned keys, sorted.
    pub tombstones: Vec<u64>,
}

/// Buffered writes not yet folded into the main index.
#[derive(Debug)]
pub(crate) struct Buffer {
    dim: usize,
    rows: HashMap<u64, Row>,
    tombstones: HashSet<u64>,
    next_seq: u64,
}

impl Buffer {
    /// An empty buffer for `dim`-dimensional vectors.
    pub fn new(dim: usize) -> Self {
        Buffer {
            dim,
            rows: HashMap::new(),
            tombstones: HashSet::new(),
            next_seq: 0,
        }
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Insert or overwrite `key`, clearing any tombstone it had.
    pub fn put(&mut self, key: u64, vector: Vec<f32>, attrs: Attrs) {
        debug_assert_eq!(vector.len(), self.dim, "caller checks the dimension");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.tombstones.remove(&key);
        self.rows.insert(key, Row { vector, attrs, seq });
    }

    /// Delete `key`: drop its live row and tombstone it, so the key's row
    /// in the main index is hidden too.
    pub fn delete(&mut self, key: u64) {
        self.rows.remove(&key);
        self.tombstones.insert(key);
    }

    /// The newest write of live `key`.
    pub fn get(&self, key: u64) -> Option<&Row> {
        self.rows.get(&key)
    }

    /// Whether `key` is tombstoned.
    pub fn is_deleted(&self, key: u64) -> bool {
        self.tombstones.contains(&key)
    }

    /// Whether the buffer hides the main index's row of `key`: it holds
    /// a newer version or a tombstone.
    pub fn hides(&self, key: u64) -> bool {
        self.rows.contains_key(&key) || self.is_deleted(key)
    }

    /// Every key the buffer hides in the main index: live keys, then
    /// tombstones (disjoint).
    pub fn hidden(&self) -> impl Iterator<Item = u64> + '_ {
        self.rows.keys().chain(&self.tombstones).copied()
    }

    /// The live keys, in no particular order.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.rows.keys().copied()
    }

    /// Every live row passing `predicate` (checked against the row's own
    /// attributes), with its `metric` distance to `query`.
    pub fn scan<'a>(
        &'a self,
        query: &'a [f32],
        metric: &'a Metric,
        predicate: &'a Predicate,
    ) -> impl Iterator<Item = (u64, f32, &'a Row)> + 'a {
        self.rows
            .iter()
            .filter(|(_, row)| predicate.eval_values(&|col| row.attr(col).cloned()))
            .map(|(&key, row)| (key, metric.distance(query, &row.vector), row))
    }

    /// Copy the live rows, newest write first, and the tombstones for a
    /// merge; the buffer keeps serving reads and taking writes meanwhile.
    pub fn snapshot(&self) -> Snapshot {
        let mut live: Vec<(&u64, &Row)> = self.rows.iter().collect();
        live.sort_unstable_by_key(|(_, row)| std::cmp::Reverse(row.seq));
        let mut vectors = Vectors::with_capacity(self.dim, live.len());
        for (_, row) in &live {
            vectors
                .push(&row.vector)
                .expect("buffered vectors match the dimension");
        }
        let mut tombstones: Vec<u64> = self.tombstones.iter().copied().collect();
        tombstones.sort_unstable();
        Snapshot {
            keys: live.iter().map(|(&key, _)| key).collect(),
            vectors,
            attrs: live.iter().map(|(_, row)| row.attrs.clone()).collect(),
            seqs: live.iter().map(|(_, row)| row.seq).collect(),
            tombstones,
        }
    }

    /// Drop what a finished merge folded in: each snapshotted row still
    /// holding the write it was copied at, and the snapshotted
    /// tombstones. Writes made since the snapshot stay.
    pub fn retire(&mut self, snap: &Snapshot) {
        for (key, &seq) in snap.keys.iter().zip(&snap.seqs) {
            if self.rows.get(key).is_some_and(|row| row.seq == seq) {
                self.rows.remove(key);
            }
        }
        for key in &snap.tombstones {
            self.tombstones.remove(key);
        }
    }

    /// WAL records equivalent to the buffer's contents: inserts of the
    /// live keys, sorted, then deletes of the tombstones, sorted.
    pub fn wal_tail(&self) -> Vec<WalRecord> {
        let mut keys: Vec<u64> = self.keys().collect();
        keys.sort_unstable();
        let mut tombstones: Vec<u64> = self.tombstones.iter().copied().collect();
        tombstones.sort_unstable();
        let inserts = keys.into_iter().map(|key| {
            let row = &self.rows[&key];
            WalRecord::Insert {
                key,
                vector: row.vector.clone(),
                attrs: row.attrs.clone(),
            }
        });
        let deletes = tombstones.into_iter().map(|key| WalRecord::Delete { key });
        inserts.chain(deletes).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdb_core::rng::Rng;

    fn tag(t: i64) -> Attrs {
        vec![("tag".to_string(), AttrValue::Int(t))]
    }

    fn scan_all(b: &Buffer, query: &[f32]) -> Vec<(u64, f32)> {
        let mut hits: Vec<(u64, f32)> = b
            .scan(query, &Metric::Euclidean, &Predicate::True)
            .map(|(key, dist, _)| (key, dist))
            .collect();
        hits.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        hits
    }

    #[test]
    fn scan_sees_every_live_key_once() {
        let mut b = Buffer::new(2);
        b.put(1, vec![0.0, 0.0], tag(1));
        b.put(2, vec![5.0, 0.0], tag(2));
        assert_eq!(scan_all(&b, &[1.0, 0.0]), vec![(1, 1.0), (2, 4.0)]);
    }

    #[test]
    fn scan_checks_the_predicate_against_buffered_attrs() {
        let mut b = Buffer::new(2);
        b.put(1, vec![0.0, 0.0], tag(1));
        b.put(2, vec![1.0, 0.0], tag(2));
        b.put(3, vec![2.0, 0.0], Vec::new());
        let pred = Predicate::eq("tag", 2i64);
        let keys: Vec<u64> = b
            .scan(&[0.0, 0.0], &Metric::Euclidean, &pred)
            .map(|(key, _, _)| key)
            .collect();
        assert_eq!(keys, vec![2]);
        let nulls = Predicate::IsNull {
            column: "tag".into(),
        };
        let keys: Vec<u64> = b
            .scan(&[0.0, 0.0], &Metric::Euclidean, &nulls)
            .map(|(key, _, _)| key)
            .collect();
        assert_eq!(keys, vec![3], "an attribute never set reads as NULL");
    }

    #[test]
    fn delete_hides_key() {
        let mut b = Buffer::new(2);
        b.put(1, vec![0.0, 0.0], tag(1));
        b.delete(1);
        assert!(scan_all(&b, &[0.0, 0.0]).is_empty());
        assert!(b.get(1).is_none());
        assert!(b.is_deleted(1) && b.hides(1));
        assert_eq!(b.len(), 0);
        assert_eq!(b.hidden().count(), 1, "the tombstone is pending");
    }

    #[test]
    fn reinsert_after_delete_revives() {
        let mut b = Buffer::new(2);
        b.put(1, vec![0.0, 0.0], tag(1));
        b.delete(1);
        b.put(1, vec![9.0, 9.0], tag(2));
        assert!(!b.is_deleted(1));
        assert_eq!(b.get(1).unwrap().vector, vec![9.0, 9.0]);
        assert_eq!(b.get(1).unwrap().attr("tag"), Some(&AttrValue::Int(2)));
    }

    #[test]
    fn newest_version_wins() {
        let mut b = Buffer::new(2);
        b.put(7, vec![0.0, 0.0], tag(1));
        b.put(8, vec![1.0, 1.0], tag(1));
        b.put(7, vec![100.0, 100.0], tag(2));
        assert_eq!(b.get(7).unwrap().vector, vec![100.0, 100.0]);
        let hits = scan_all(&b, &[0.0, 0.0]);
        assert_eq!(hits.len(), 2, "old version not double-counted");
        let d7 = hits.iter().find(|h| h.0 == 7).unwrap().1;
        assert!(d7 > 100.0, "scan must see the new far-away version");
    }

    #[test]
    fn snapshot_is_newest_write_first_and_nondestructive() {
        let mut b = Buffer::new(2);
        for i in 0..10u64 {
            b.put(i, vec![i as f32, 0.0], tag(0));
        }
        b.put(3, vec![333.0, 0.0], tag(1)); // newer version
        b.delete(9);
        b.delete(42);
        let snap = b.snapshot();
        assert_eq!(snap.keys, vec![3, 8, 7, 6, 5, 4, 2, 1, 0]);
        assert_eq!(snap.vectors.get(0), &[333.0, 0.0], "newest version copied");
        assert_eq!(snap.attrs[0], tag(1));
        assert_eq!(snap.tombstones, vec![9, 42]);
        assert_eq!(b.len(), 9, "the snapshot leaves the buffer intact");
        b.retire(&snap);
        assert_eq!(
            (b.len(), b.hidden().count()),
            (0, 0),
            "nothing written since: everything retires"
        );
    }

    #[test]
    fn retire_keeps_writes_made_since_the_snapshot() {
        let mut b = Buffer::new(2);
        for i in 0..8u64 {
            b.put(i, vec![i as f32, 0.0], tag(0));
        }
        b.delete(7);
        let snap = b.snapshot();
        // Writes land while the merge is in flight.
        b.put(3, vec![333.0, 0.0], tag(0)); // overwritten since the snapshot
        b.delete(5); // deleted since the snapshot
        b.put(100, vec![9.0, 9.0], tag(0)); // brand new
        b.retire(&snap);
        assert!(b.get(0).is_none() && b.get(6).is_none());
        assert_eq!(b.get(3).unwrap().vector, vec![333.0, 0.0]);
        assert!(b.is_deleted(5));
        assert_eq!(b.get(100).unwrap().vector, vec![9.0, 9.0]);
        assert_eq!(b.len(), 2, "only key 3 and key 100 remain live");
        assert!(!b.is_deleted(7), "the merged tombstone is retired");
    }

    #[test]
    fn retire_keeps_a_same_vector_overwrite_with_new_attrs() {
        let mut b = Buffer::new(2);
        b.put(5, vec![1.0, 2.0], tag(1));
        let snap = b.snapshot();
        b.put(5, vec![1.0, 2.0], tag(99));
        b.retire(&snap);
        let row = b.get(5).expect("the overwrite stays buffered");
        assert_eq!(row.attr("tag"), Some(&AttrValue::Int(99)));
    }

    #[test]
    fn retire_keeps_a_same_vector_rewrite_after_a_delete() {
        let mut b = Buffer::new(2);
        b.put(5, vec![1.0, 2.0], tag(1));
        let snap = b.snapshot();
        b.delete(5);
        b.put(5, vec![1.0, 2.0], tag(1));
        b.retire(&snap);
        assert!(b.get(5).is_some(), "the rewrite stays buffered");
        assert!(!b.is_deleted(5));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn wal_tail_lists_sorted_inserts_then_sorted_deletes() {
        let mut b = Buffer::new(2);
        b.put(9, vec![9.0, 0.0], tag(9));
        b.put(2, vec![2.0, 0.0], Vec::new());
        b.delete(7);
        b.delete(4);
        assert_eq!(
            b.wal_tail(),
            vec![
                WalRecord::Insert {
                    key: 2,
                    vector: vec![2.0, 0.0],
                    attrs: Vec::new(),
                },
                WalRecord::Insert {
                    key: 9,
                    vector: vec![9.0, 0.0],
                    attrs: tag(9),
                },
                WalRecord::Delete { key: 4 },
                WalRecord::Delete { key: 7 },
            ]
        );
    }

    /// Seeded property: after any interleaving of puts, deletes and
    /// merges (snapshot, more writes, retire), what the merges folded in
    /// overlaid with the buffer equals a `HashMap` model of every write,
    /// vectors and attributes alike, and a scan sees every live key once.
    #[test]
    fn read_your_writes_across_snapshots_and_retires() {
        let mut rng = Rng::seed_from_u64(0xA7);
        for _ in 0..64 {
            let mut b = Buffer::new(2);
            // Every acknowledged write, and what the merges folded in.
            let mut model: HashMap<u64, ([f32; 2], i64)> = HashMap::new();
            let mut merged: HashMap<u64, ([f32; 2], i64)> = HashMap::new();
            let mut pending: Option<Snapshot> = None;
            for _ in 0..1 + rng.below(120) {
                let key = rng.below(20) as u64;
                match rng.below(8) {
                    0 if pending.is_none() => pending = Some(b.snapshot()),
                    1 => {
                        if let Some(snap) = pending.take() {
                            for &k in &snap.tombstones {
                                merged.remove(&k);
                            }
                            for (i, &k) in snap.keys.iter().enumerate() {
                                let v = snap.vectors.get(i);
                                let t = match snap.attrs[i][0].1 {
                                    AttrValue::Int(t) => t,
                                    _ => unreachable!("every put sets an Int tag"),
                                };
                                merged.insert(k, ([v[0], v[1]], t));
                            }
                            b.retire(&snap);
                        }
                    }
                    2 | 3 => {
                        b.delete(key);
                        model.remove(&key);
                    }
                    _ => {
                        // Small values: equal vectors with other tags recur.
                        let x = rng.below(3) as f32;
                        let t = rng.below(3) as i64;
                        b.put(key, vec![x, -x], tag(t));
                        model.insert(key, ([x, -x], t));
                    }
                }
            }
            // The merged state overlaid with the buffer is the model.
            let mut visible = merged.clone();
            for k in 0..20u64 {
                if b.is_deleted(k) {
                    visible.remove(&k);
                }
                if let Some(row) = b.get(k) {
                    let t = match row.attr("tag") {
                        Some(AttrValue::Int(t)) => *t,
                        other => panic!("tag {other:?}"),
                    };
                    visible.insert(k, ([row.vector[0], row.vector[1]], t));
                }
                assert!(
                    !(b.get(k).is_some() && b.is_deleted(k)),
                    "key {k} live and dead"
                );
            }
            assert_eq!(visible, model);
            let scanned: HashSet<u64> = scan_all(&b, &[0.0, 0.0]).iter().map(|h| h.0).collect();
            assert_eq!(scanned, b.keys().collect::<HashSet<u64>>());
            assert_eq!(b.len(), scanned.len());
        }
    }
}
