//! Zipfian sampling via inverse-CDF over precomputed cumulative weights
//! — the skew model of the Microsoft skewed TPC-D generator \[22\] the
//! paper uses ("Zipfian skew factor", §5).

use rand::Rng;

/// A Zipf(θ) distribution over `1..=n`. θ = 0 is uniform; the paper uses
/// θ ∈ {0, 0.5}.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Zipf {
        assert!(n > 0, "Zipf needs a non-empty domain");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Samples a value in `1..=n`.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen();
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).unwrap())
        {
            Ok(i) => i + 1,
            Err(i) => i + 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn histogram(theta: f64, n: usize, samples: usize) -> Vec<usize> {
        let z = Zipf::new(n, theta);
        let mut rng = StdRng::seed_from_u64(42);
        let mut h = vec![0usize; n];
        for _ in 0..samples {
            h[z.sample(&mut rng) - 1] += 1;
        }
        h
    }

    #[test]
    fn theta_zero_is_roughly_uniform() {
        let h = histogram(0.0, 10, 100_000);
        for &count in &h {
            assert!((count as f64 - 10_000.0).abs() < 1_000.0, "{h:?}");
        }
    }

    #[test]
    fn positive_theta_skews_toward_small_values() {
        let h = histogram(1.0, 10, 100_000);
        assert!(h[0] > 3 * h[4], "{h:?}");
        assert!(h[4] > h[9], "{h:?}");
    }

    #[test]
    fn samples_stay_in_domain() {
        let z = Zipf::new(7, 0.5);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let s = z.sample(&mut rng);
            assert!((1..=7).contains(&s));
        }
    }
}
