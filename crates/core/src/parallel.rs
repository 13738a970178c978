//! Dependency-free parallel build layer.
//!
//! Search went multi-threaded (batched executor) and SIMD-fast (kernel
//! layer) in earlier iterations; this module gives *construction* the
//! same treatment without pulling in rayon — the workspace builds fully
//! offline, so everything here is scoped `std::thread` fork/join.
//!
//! One primitive covers every builder in the workspace:
//! [`parallel_map_chunks`] splits `[0, n)` into one contiguous chunk per
//! worker, runs a closure over each chunk and returns the results **in
//! chunk order**. It runs the closure inline on the calling thread when
//! one thread suffices, so a serial [`BuildOptions`] never pays for a
//! thread spawn.
//!
//! The contract: the thread count changes how long a build takes, never
//! the index it builds. Every builder keeps one body and fans out only
//! work that is a pure map per item (row, tree, PQ subspace, shard, or
//! a row of one insertion batch of a graph build) whose results are
//! consumed in item order, so a build at any thread count is
//! bit-identical to the serial one.

use std::ops::Range;

/// How many threads an index build may use. The thread count changes
/// build time only: the built index is the same at any count.
#[derive(Debug, Clone)]
pub struct BuildOptions {
    /// Worker threads (1 = serial). Builders clamp it to at least 1 and
    /// to the amount of work available, so small builds never spawn idle
    /// workers.
    pub threads: usize,
}

impl Default for BuildOptions {
    /// The machine's available parallelism.
    fn default() -> Self {
        BuildOptions::with_threads(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }
}

impl BuildOptions {
    /// A single-threaded build.
    pub fn serial() -> Self {
        BuildOptions { threads: 1 }
    }

    /// A build with an explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        BuildOptions {
            threads: threads.max(1),
        }
    }
}

/// Clamp a requested thread count to the work size (never zero).
pub fn clamp_threads(threads: usize, n: usize) -> usize {
    threads.max(1).min(n.max(1))
}

/// Run `f(worker, range)` over `[0, n)` split into one contiguous chunk
/// per worker and return the results **in chunk order** (worker `t`
/// covered rows `[t * ceil(n/threads), ...)`), so concatenating per-row
/// results reproduces the serial order at any thread count. Runs inline
/// (worker 0) when one thread suffices. Panics in workers propagate to
/// the caller.
pub fn parallel_map_chunks<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> T + Sync,
{
    let threads = clamp_threads(threads, n);
    if threads == 1 {
        return vec![f(0, 0..n)];
    }
    let chunk = n.div_ceil(threads);
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(threads, || None);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for (t, slot) in slots.iter_mut().enumerate() {
            let lo = t * chunk;
            let hi = ((t + 1) * chunk).min(n);
            if lo >= hi {
                break;
            }
            let f = &f;
            handles.push(scope.spawn(move || *slot = Some(f(t, lo..hi))));
        }
        for h in handles {
            h.join().expect("parallel_map_chunks worker panicked");
        }
    });
    slots.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_options_are_serial() {
        assert_eq!(BuildOptions::serial().threads, 1);
        assert_eq!(BuildOptions::with_threads(0).threads, 1);
        assert_eq!(BuildOptions::with_threads(4).threads, 4);
    }

    #[test]
    fn default_threads_at_least_one() {
        assert!(BuildOptions::default().threads >= 1);
    }

    #[test]
    fn map_chunks_preserves_chunk_order() {
        for &(n, threads) in &[(0, 4), (1, 4), (7, 3), (100, 4), (5, 16)] {
            let out = parallel_map_chunks(n, threads, |_, range| range.clone());
            let flat: Vec<usize> = out.into_iter().flatten().collect();
            assert_eq!(flat, (0..n).collect::<Vec<_>>(), "n={n} threads={threads}");
        }
    }

    #[test]
    fn map_chunks_serial_single_chunk() {
        let out = parallel_map_chunks(10, 1, |worker, range| (worker, range.len()));
        assert_eq!(out, vec![(0, 10)]);
    }

    #[test]
    fn reduction_matches_serial_sum() {
        let n = 1000usize;
        let partials = parallel_map_chunks(n, 5, |_, range| range.map(|i| i as u64).sum::<u64>());
        let total: u64 = partials.iter().sum();
        assert_eq!(total, (n as u64 - 1) * n as u64 / 2);
    }
}
