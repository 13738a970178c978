//! The benchmark's own seeded generator. The seed never reaches
//! `crates/*`: the program under test sees only the generated inputs.

/// xoshiro256** seeded through SplitMix64.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// A generator for `seed`; `stream` separates independent uses of one
    /// seed (data, queries, op order) so changing one never shifts another.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut st = seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F);
        let s = [
            splitmix(&mut st),
            splitmix(&mut st),
            splitmix(&mut st),
            splitmix(&mut st),
        ];
        Rng { s }
    }

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

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f32 {
        let u1 = (1.0 - self.f64()).max(f64::MIN_POSITIVE);
        let u2 = self.f64();
        ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
    }
}

/// Zipf(s = 1) sampler over ranks `0..n` by inverting a precomputed CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / rank as f64;
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_repeats_and_streams_differ() {
        let draw = |mut r: Rng| (0..8).map(|_| r.next_u64()).collect::<Vec<u64>>();
        let (a, b, c) = (
            draw(Rng::new(7, 1)),
            draw(Rng::new(7, 1)),
            draw(Rng::new(7, 2)),
        );
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(100);
        let mut rng = Rng::new(1, 0);
        let mut low = 0;
        for _ in 0..10_000 {
            if z.sample(&mut rng) < 10 {
                low += 1;
            }
        }
        assert!(low > 4_000, "top decile drew {low} of 10000");
    }
}
