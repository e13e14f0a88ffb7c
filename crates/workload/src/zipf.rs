use rand::Rng;

use crate::Ranking;

/// An exact Zipf(α) sampler over ranks `0..n`.
///
/// Rank `r` (0-based) is drawn with probability `(r+1)^{−α} / H_{n,α}`
/// where `H_{n,α}` is the generalised harmonic number. The full CDF is
/// precomputed (`O(n)` memory) and sampling is one uniform draw plus a
/// binary search — exact, branch-free of rejection loops, and fast enough
/// for the millions of samples the experiments draw.
///
/// ```
/// use peercache_workload::Zipf;
/// use rand::SeedableRng;
///
/// let zipf = Zipf::new(100, 1.2).unwrap();
/// // Rank 0 is 2^1.2 ≈ 2.3× more likely than rank 1.
/// assert!(zipf.rank_probability(0) > 2.0 * zipf.rank_probability(1));
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let rank = zipf.sample(&mut rng);
/// assert!(rank < 100);
/// ```
#[derive(Clone, Debug)]
pub struct Zipf {
    alpha: f64,
    /// `cdf[r]` = P(rank ≤ r); last entry is exactly 1.0.
    cdf: Vec<f64>,
}

impl Zipf {
    /// A Zipf distribution over `n` ranks with exponent `alpha ≥ 0`.
    ///
    /// `alpha = 0` degenerates to the uniform distribution — handy for
    /// "no skew" control runs.
    ///
    /// # Errors
    /// Returns a description when `n = 0` or `alpha` is negative/non-finite.
    pub fn new(n: usize, alpha: f64) -> Result<Self, String> {
        if n == 0 {
            return Err("Zipf support must be non-empty".into());
        }
        if !alpha.is_finite() || alpha < 0.0 {
            return Err(format!("Zipf exponent must be finite and ≥ 0, got {alpha}"));
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += ((r + 1) as f64).powf(-alpha);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        *cdf.last_mut().expect("non-empty") = 1.0;
        Ok(Zipf { alpha, cdf })
    }

    /// The exponent α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Number of ranks.
    pub fn support(&self) -> usize {
        self.cdf.len()
    }

    /// P(rank = r).
    pub fn rank_probability(&self, r: usize) -> f64 {
        if r >= self.cdf.len() {
            return 0.0;
        }
        if r == 0 {
            self.cdf[0]
        } else {
            self.cdf[r] - self.cdf[r - 1]
        }
    }

    /// Draw a rank.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Draw the catalog index of the next queried item: a rank, mapped
    /// through `ranking`. The one sampling expression every query
    /// generator shares — [`NodeWorkload::sample_item`](crate::NodeWorkload::sample_item)
    /// and the drivers, which keep one sampler for the whole run and pick
    /// each origin's ranking from its
    /// [`RankingAssignment`](crate::RankingAssignment).
    pub fn sample_item<R: Rng + ?Sized>(&self, ranking: &Ranking, rng: &mut R) -> usize {
        ranking.item_at_rank(self.sample(rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_degenerate_parameters() {
        assert!(Zipf::new(0, 1.0).is_err());
        assert!(Zipf::new(5, -1.0).is_err());
        assert!(Zipf::new(5, f64::NAN).is_err());
    }

    #[test]
    fn probabilities_sum_to_one() {
        for alpha in [0.0, 0.91, 1.2, 2.5] {
            let z = Zipf::new(100, alpha).unwrap();
            let total: f64 = (0..100).map(|r| z.rank_probability(r)).sum();
            assert!((total - 1.0).abs() < 1e-12, "alpha {alpha}");
        }
    }

    #[test]
    fn alpha_zero_is_uniform() {
        let z = Zipf::new(10, 0.0).unwrap();
        for r in 0..10 {
            assert!((z.rank_probability(r) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn rank_probabilities_follow_power_law() {
        let z = Zipf::new(100, 1.2).unwrap();
        // P(0)/P(1) = 2^1.2.
        let ratio = z.rank_probability(0) / z.rank_probability(1);
        assert!((ratio - 2f64.powf(1.2)).abs() < 1e-9);
        assert!(z.rank_probability(99) > 0.0);
        assert_eq!(z.rank_probability(100), 0.0, "outside the support");
    }

    #[test]
    fn empirical_frequencies_match_theory() {
        let z = Zipf::new(20, 1.2).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let n = 200_000;
        let mut counts = [0usize; 20];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (r, &count) in counts.iter().enumerate() {
            let expected = z.rank_probability(r);
            let observed = count as f64 / f64::from(n);
            assert!(
                (observed - expected).abs() < 0.01,
                "rank {r}: observed {observed}, expected {expected}"
            );
        }
    }

    #[test]
    fn sampling_is_deterministic_under_seed() {
        let z = Zipf::new(50, 1.0).unwrap();
        let a: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(5);
            (0..100).map(|_| z.sample(&mut rng)).collect()
        };
        let b: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(5);
            (0..100).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
