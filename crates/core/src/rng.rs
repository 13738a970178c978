//! Deterministic, seedable random number generation.
//!
//! Index construction in a VDBMS must be reproducible: two builds from the
//! same data and seed should produce byte-identical indexes so that
//! experiments, regression tests, and distributed replicas agree. To
//! guarantee bit-stability across platforms and dependency upgrades we
//! vendor a small generator (SplitMix64 for seeding, xoshiro256★★ for the
//! stream) instead of depending on `rand`.
//!
//! # Generators for parallel builds
//!
//! Multi-threaded builders must not thread one shared `&mut Rng` through
//! their work — the interleaving (and therefore the build) would depend
//! on scheduling. [`Rng::fork`] consumes one parent draw to seed a child;
//! parallel builders pre-fork their children serially (one generator per
//! tree of a forest, forked in tree order) and hand the children to
//! workers, so the forked sequence is identical to the serial build's.

/// SplitMix64: used to expand a single `u64` seed into generator state.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256★★ pseudo-random generator with convenience methods for the
/// distributions the workspace needs (uniform, normal, shuffle, sampling).
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
    /// Cached second output of the Box-Muller transform.
    spare_normal: Option<f64>,
}

impl Rng {
    /// Create a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng {
            s,
            spare_normal: None,
        }
    }

    /// Derive an independent child stream; useful for giving each worker or
    /// each tree in a forest its own deterministic generator.
    pub fn fork(&mut self) -> Self {
        Rng::seed_from_u64(self.next_u64() ^ 0xA5A5_A5A5_5A5A_5A5A)
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Next 32-bit output.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)`.
    #[inline]
    pub fn f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform `f32` in `[lo, hi)`.
    #[inline]
    pub fn f32_range(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.f32()
    }

    /// Uniform integer in `[0, bound)` via Lemire's unbiased method.
    #[inline]
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "below(0) is meaningless");
        let bound = bound as u64;
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as usize
    }

    /// Uniform integer in `[lo, hi)`.
    #[inline]
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Bernoulli draw with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Standard normal via the Box-Muller transform (cached spare).
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Rejection-free polar-less form: u1 in (0,1] to avoid ln(0).
        let u1 = 1.0 - self.f64();
        let u2 = self.f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Standard normal as `f32`.
    #[inline]
    pub fn normal_f32(&mut self) -> f32 {
        self.normal() as f32
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i + 1);
            slice.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `[0, n)`. Uses a partial
    /// Fisher-Yates over an index table when `k` is a large fraction of `n`,
    /// and rejection sampling otherwise.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} from {n}");
        if k == 0 {
            return Vec::new();
        }
        if k * 3 >= n {
            let mut idx: Vec<usize> = (0..n).collect();
            for i in 0..k {
                let j = self.range(i, n);
                idx.swap(i, j);
            }
            idx.truncate(k);
            idx
        } else {
            let mut seen = std::collections::HashSet::with_capacity(k * 2);
            let mut out = Vec::with_capacity(k);
            while out.len() < k {
                let v = self.below(n);
                if seen.insert(v) {
                    out.push(v);
                }
            }
            out
        }
    }

    /// Choose one element of a slice.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        &slice[self.below(slice.len())]
    }

    /// Geometric-like level draw used by HNSW: `floor(-ln(U) * mult)`.
    pub fn hnsw_level(&mut self, mult: f64) -> usize {
        let u = 1.0 - self.f64(); // in (0, 1]
        ((-u.ln()) * mult).floor() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = Rng::seed_from_u64(9);
        let mut counts = [0usize; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[r.below(10)] += 1;
        }
        for &c in &counts {
            let expected = n / 10;
            assert!(c.abs_diff(expected) < expected / 5, "bucket count {c}");
        }
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng::seed_from_u64(3);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let z = r.normal();
            sum += z;
            sumsq += z * z;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::seed_from_u64(5);
        let mut v: Vec<usize> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut r = Rng::seed_from_u64(11);
        for &(n, k) in &[(10, 10), (100, 5), (100, 90), (1, 1), (50, 0)] {
            let s = r.sample_indices(n, k);
            assert_eq!(s.len(), k);
            let set: std::collections::HashSet<_> = s.iter().collect();
            assert_eq!(set.len(), k, "duplicates for n={n} k={k}");
            assert!(s.iter().all(|&i| i < n));
        }
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = Rng::seed_from_u64(1234);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        let same = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn hnsw_level_distribution_decays() {
        let mut r = Rng::seed_from_u64(77);
        let mult = 1.0 / (16f64).ln();
        let mut level_counts = [0usize; 8];
        for _ in 0..100_000 {
            let l = r.hnsw_level(mult).min(7);
            level_counts[l] += 1;
        }
        // Each successive level should hold roughly 1/16 of the previous.
        assert!(level_counts[0] > level_counts[1] * 8);
        assert!(level_counts[1] > level_counts[2] * 8);
    }
}
