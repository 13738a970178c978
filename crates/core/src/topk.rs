//! Top-k selection under the distance convention (lower = better).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A search hit: internal row id plus distance to the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Row id within the collection.
    pub id: usize,
    /// Distance to the query (lower = more similar).
    pub dist: f32,
}

impl Neighbor {
    /// Construct a neighbor.
    #[inline]
    pub fn new(id: usize, dist: f32) -> Self {
        Neighbor { id, dist }
    }
}

impl Eq for Neighbor {}

impl Ord for Neighbor {
    /// Total order by distance (via `total_cmp`, so NaN cannot poison the
    /// heap), then by id for determinism.
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist
            .total_cmp(&other.dist)
            .then_with(|| self.id.cmp(&other.id))
    }
}

impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Bounded max-heap keeping the `k` smallest-distance neighbors seen.
///
/// `push` is O(log k); the common rejection path (candidate worse than the
/// current k-th best) is O(1) via [`TopK::threshold`].
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    heap: BinaryHeap<Neighbor>,
}

impl Default for TopK {
    /// A width-1 selector; reusable holders call [`TopK::reset`] with the
    /// real width before use.
    fn default() -> Self {
        TopK::new(1)
    }
}

impl TopK {
    /// Create a selector for the `k` best neighbors.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        TopK {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// Empty the selector and set a new width, retaining the heap's
    /// allocation. This is how a pooled [`crate::context::SearchContext`]
    /// reuses one selector across queries of different widths.
    pub fn reset(&mut self, k: usize) {
        assert!(k > 0, "k must be positive");
        self.k = k;
        self.heap.clear();
    }

    /// Current selection width.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Offer a candidate. Returns true if it entered the top-k.
    #[inline]
    pub fn push(&mut self, n: Neighbor) -> bool {
        if self.heap.len() < self.k {
            self.heap.push(n);
            true
        } else if n < *self.heap.peek().expect("non-empty") {
            self.heap.pop();
            self.heap.push(n);
            true
        } else {
            false
        }
    }

    /// Current worst (largest) retained distance, or `f32::INFINITY` while
    /// fewer than `k` candidates have been seen. Useful as a pruning bound.
    #[inline]
    pub fn threshold(&self) -> f32 {
        if self.heap.len() < self.k {
            f32::INFINITY
        } else {
            self.heap.peek().map(|n| n.dist).unwrap_or(f32::INFINITY)
        }
    }

    /// Number of candidates currently retained.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no candidate has been retained.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Whether the selector holds `k` candidates.
    pub fn is_full(&self) -> bool {
        self.heap.len() >= self.k
    }

    /// Consume into neighbors sorted best-first.
    pub fn into_sorted(self) -> Vec<Neighbor> {
        let mut v = self.heap.into_vec();
        v.sort_unstable();
        v
    }

    /// Empty the selector into a best-first sorted vector, keeping the
    /// heap's allocation for the next query (the reusable counterpart of
    /// [`TopK::into_sorted`]).
    pub fn drain_sorted(&mut self) -> Vec<Neighbor> {
        let mut v = Vec::with_capacity(self.heap.len());
        v.extend(self.heap.drain());
        v.sort_unstable();
        v
    }

    /// Like [`TopK::drain_sorted`], but keep only the `k` best: the worse
    /// entries are popped off the heap first, so the result allocates `k`
    /// slots rather than the selector's full width.
    pub fn drain_best(&mut self, k: usize) -> Vec<Neighbor> {
        while self.heap.len() > k {
            self.heap.pop();
        }
        self.drain_sorted()
    }
}

/// Exact top-k by full sort (oracle for tests, and the brute-force scan's
/// final step when `k` is close to `n`).
pub fn top_k_by_sort(mut candidates: Vec<Neighbor>, k: usize) -> Vec<Neighbor> {
    candidates.sort_unstable();
    candidates.truncate(k);
    candidates
}

/// Merge several already-sorted neighbor lists into a single sorted top-k
/// (the scatter-gather reduce step). Deduplicates by id, keeping the best
/// distance.
pub fn merge_sorted_topk(lists: &[Vec<Neighbor>], k: usize) -> Vec<Neighbor> {
    let mut seen = std::collections::HashMap::new();
    for list in lists {
        for &n in list {
            match seen.get(&n.id) {
                Some(&d) if d <= n.dist => continue,
                _ => {
                    seen.insert(n.id, n.dist);
                }
            }
        }
    }
    // The selector never holds more than the distinct ids offered, so a
    // caller's `k` reserves nothing past them.
    let mut out = TopK::new(k.min(seen.len()).max(1));
    for (id, dist) in seen {
        out.push(Neighbor::new(id, dist));
    }
    out.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn keeps_k_smallest() {
        let mut t = TopK::new(3);
        for (id, d) in [(0, 5.0), (1, 1.0), (2, 3.0), (3, 0.5), (4, 4.0)] {
            t.push(Neighbor::new(id, d));
        }
        let out = t.into_sorted();
        assert_eq!(out.iter().map(|n| n.id).collect::<Vec<_>>(), vec![3, 1, 2]);
    }

    #[test]
    fn threshold_tracks_worst_retained() {
        let mut t = TopK::new(2);
        assert_eq!(t.threshold(), f32::INFINITY);
        t.push(Neighbor::new(0, 2.0));
        assert_eq!(t.threshold(), f32::INFINITY, "not yet full");
        t.push(Neighbor::new(1, 1.0));
        assert_eq!(t.threshold(), 2.0);
        t.push(Neighbor::new(2, 0.5));
        assert_eq!(t.threshold(), 1.0);
        assert!(!t.push(Neighbor::new(3, 9.0)), "worse candidate rejected");
    }

    #[test]
    fn drain_best_keeps_the_k_best_in_k_slots() {
        let mut rng = Rng::seed_from_u64(22);
        let cands: Vec<Neighbor> = (0..100).map(|id| Neighbor::new(id, rng.f32())).collect();
        let mut t = TopK::new(64);
        for &c in &cands {
            t.push(c);
        }
        for k in [2, 10] {
            let out = t.clone().drain_best(k);
            assert!(out.capacity() <= k, "k={k}: capacity {}", out.capacity());
            assert_eq!(out, top_k_by_sort(cands.clone(), k));
        }
        t.drain_best(10);
        assert!(t.is_empty(), "drained");
    }

    #[test]
    fn fewer_than_k_candidates() {
        let mut t = TopK::new(10);
        t.push(Neighbor::new(7, 1.5));
        let out = t.into_sorted();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, 7);
    }

    #[test]
    fn ties_break_by_id_for_determinism() {
        let mut t = TopK::new(2);
        for id in [5, 3, 9, 1] {
            t.push(Neighbor::new(id, 1.0));
        }
        let ids: Vec<usize> = t.into_sorted().iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn matches_sort_oracle_on_random_input() {
        let mut rng = Rng::seed_from_u64(21);
        for _ in 0..20 {
            let n = rng.range(1, 200);
            let k = rng.range(1, 50);
            let cands: Vec<Neighbor> = (0..n).map(|id| Neighbor::new(id, rng.f32())).collect();
            let mut t = TopK::new(k);
            for &c in &cands {
                t.push(c);
            }
            assert_eq!(t.into_sorted(), top_k_by_sort(cands, k));
        }
    }

    #[test]
    fn merge_dedupes_keeping_best() {
        let a = vec![Neighbor::new(1, 0.5), Neighbor::new(2, 1.0)];
        let b = vec![Neighbor::new(1, 0.2), Neighbor::new(3, 0.8)];
        let merged = merge_sorted_topk(&[a, b], 3);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[0], Neighbor::new(1, 0.2));
        assert_eq!(merged[1], Neighbor::new(3, 0.8));
        assert_eq!(merged[2], Neighbor::new(2, 1.0));
    }

    #[test]
    fn nan_distance_does_not_poison_order() {
        // NaN sorts last under total_cmp; a NaN candidate never displaces
        // finite ones.
        let mut t = TopK::new(2);
        t.push(Neighbor::new(0, f32::NAN));
        t.push(Neighbor::new(1, 1.0));
        t.push(Neighbor::new(2, 2.0));
        let ids: Vec<usize> = t.into_sorted().iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![1, 2]);
    }
}
