//! The benchmark's only source of randomness: a xorshift64* generator and a
//! Zipf sampler over a precomputed CDF table. Both live here so a workload is
//! a pure function of `--seed`, whatever happens to `compat/rand`'s stream.

/// xorshift64* (Vigna). The seed is scrambled through splitmix64 so nearby
/// seeds (1, 2, 3 …) give unrelated streams and the state is never zero.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    /// An independent stream for sub-generator `lane` of the same seed.
    pub fn fork(seed: u64, lane: u64) -> Self {
        Rng::new(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`. The modulo bias is below 2^-40 for every `n` the
    /// benchmark uses (at most a few thousand).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Zipf(θ) over ranks `0..n` (rank 0 the most popular), drawn by binary
/// search in the cumulative table. Ranks are mapped to object ids through a
/// seeded permutation so the hot objects are not the low ids.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
    perm: Vec<u32>,
}

impl Zipf {
    pub fn new(n: u32, theta: f64, rng: &mut Rng) -> Self {
        assert!(n > 0, "a Zipf table needs at least one rank");
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / f64::from(k).powf(theta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        let mut perm: Vec<u32> = (0..n).collect();
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.below(i as u64 + 1) as usize);
        }
        Zipf { cdf, perm }
    }

    /// The rank drawn by one uniform variate.
    pub fn rank(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }

    /// One object id.
    pub fn sample(&self, rng: &mut Rng) -> u32 {
        self.perm[self.rank(rng)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let a: Vec<u64> = (0..8).scan(Rng::new(7), |r, _| Some(r.next_u64())).collect();
        let b: Vec<u64> = (0..8).scan(Rng::new(7), |r, _| Some(r.next_u64())).collect();
        assert_eq!(a, b);
        assert_ne!(Rng::fork(7, 0).next_u64(), Rng::fork(7, 1).next_u64());
    }

    #[test]
    fn zipf_rank_one_share_matches_theory_within_one_percent() {
        // θ = 0.99 over 4096 ranks: the analytic head mass is 1 / H(n, θ).
        let mut rng = Rng::new(42);
        let z = Zipf::new(4096, 0.99, &mut rng);
        let h: f64 = (1..=4096).map(|k| 1.0 / f64::from(k).powf(0.99)).sum();
        let theory = 1.0 / h;
        assert!((z.cdf[0] - theory).abs() < 1e-12);
        let draws = 2_000_000;
        let hits = (0..draws).filter(|_| z.rank(&mut rng) == 0).count();
        let share = hits as f64 / draws as f64;
        assert!((share / theory - 1.0).abs() < 0.01, "empirical {share} vs theory {theory}");
    }

    #[test]
    fn zipf_permutation_covers_every_object_once() {
        let z = Zipf::new(64, 0.99, &mut Rng::new(1));
        let mut seen = z.perm.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..64).collect::<Vec<_>>());
    }
}
