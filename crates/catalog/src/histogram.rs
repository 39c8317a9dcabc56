//! Equi-width histograms over integer domains.
//!
//! The paper's external functions ("involving histograms, cost estimation,
//! and expression decomposition", §5) consume exactly this kind of
//! single-column summary. Histograms answer range/equality selectivity
//! questions and a histogram-aligned equi-join selectivity estimate.

/// An equi-width histogram over `i64` values.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    min: i64,
    max: i64,
    /// Per-bucket tuple counts. Never empty.
    buckets: Vec<f64>,
    total: f64,
}

impl Histogram {
    /// Builds a histogram with `bucket_count` equi-width buckets from raw
    /// values. Returns a degenerate single-bucket histogram for empty
    /// input so callers never need an `Option`.
    pub fn build(values: impl IntoIterator<Item = i64>, bucket_count: usize) -> Histogram {
        let values: Vec<i64> = values.into_iter().collect();
        if values.is_empty() {
            return Histogram {
                min: 0,
                max: 0,
                buckets: vec![0.0],
                total: 0.0,
            };
        }
        let min = *values.iter().min().unwrap();
        let max = *values.iter().max().unwrap();
        let n = bucket_count.max(1);
        let mut buckets = vec![0.0; n];
        for &v in &values {
            buckets[Self::bucket_of(min, max, n, v)] += 1.0;
        }
        Histogram {
            min,
            max,
            buckets,
            total: values.len() as f64,
        }
    }

    fn bucket_of(min: i64, max: i64, n: usize, v: i64) -> usize {
        if max == min {
            return 0;
        }
        let span = (max - min) as f64 + 1.0;
        let idx = (((v - min) as f64) / span * n as f64) as usize;
        idx.min(n - 1)
    }

    /// Width of one bucket in value space.
    fn bucket_width(&self) -> f64 {
        ((self.max - self.min) as f64 + 1.0) / self.buckets.len() as f64
    }

    /// Estimated fraction of tuples with value `== v`, assuming uniform
    /// spread within a bucket.
    pub fn selectivity_eq(&self, v: i64) -> f64 {
        if self.total == 0.0 || v < self.min || v > self.max {
            return 0.0;
        }
        let b = Self::bucket_of(self.min, self.max, self.buckets.len(), v);
        let per_value = self.buckets[b] / self.bucket_width().max(1.0);
        (per_value / self.total).clamp(0.0, 1.0)
    }

    /// Estimated fraction of tuples with value `< v`.
    pub fn selectivity_lt(&self, v: i64) -> f64 {
        if self.total == 0.0 || v <= self.min {
            return 0.0;
        }
        if v > self.max {
            return 1.0;
        }
        let n = self.buckets.len();
        let b = Self::bucket_of(self.min, self.max, n, v);
        let mut count: f64 = self.buckets[..b].iter().sum();
        // Partial coverage of bucket `b`.
        let bucket_start = self.min as f64 + b as f64 * self.bucket_width();
        let frac = ((v as f64 - bucket_start) / self.bucket_width()).clamp(0.0, 1.0);
        count += self.buckets[b] * frac;
        (count / self.total).clamp(0.0, 1.0)
    }

    /// Estimated fraction of tuples with value `> v`.
    pub fn selectivity_gt(&self, v: i64) -> f64 {
        (1.0 - self.selectivity_lt(v) - self.selectivity_eq(v)).clamp(0.0, 1.0)
    }

    /// Histogram-aligned equi-join selectivity: for each aligned value
    /// range, multiply the densities (standard overlap estimate). Returns
    /// `P(l.x == r.y)` for a random tuple pair.
    pub fn join_selectivity(&self, other: &Histogram) -> f64 {
        if self.total == 0.0 || other.total == 0.0 {
            return 0.0;
        }
        let lo = self.min.max(other.min);
        let hi = self.max.min(other.max);
        if lo > hi {
            return 0.0;
        }
        // Integrate over the overlap in steps of the finer bucket width.
        let step = self.bucket_width().min(other.bucket_width()).max(1.0);
        let mut matches = 0.0;
        let mut x = lo as f64;
        while x <= hi as f64 {
            let v = x as i64;
            let dl = self.density_at(v);
            let dr = other.density_at(v);
            matches += dl * dr * step;
            x += step;
        }
        (matches / (self.total * other.total)).clamp(0.0, 1.0)
    }

    /// Estimated tuples-per-unit-value at `v`.
    fn density_at(&self, v: i64) -> f64 {
        if v < self.min || v > self.max {
            return 0.0;
        }
        let b = Self::bucket_of(self.min, self.max, self.buckets.len(), v);
        self.buckets[b] / self.bucket_width()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_0_99() -> Histogram {
        Histogram::build(0..100, 10)
    }

    #[test]
    fn build_counts_everything() {
        // Every value lies in [0, 99], and each one is counted.
        let h = uniform_0_99();
        let all: f64 = (0..100).map(|v| h.selectivity_eq(v)).sum();
        assert!((all - 1.0).abs() < 1e-9, "{all}");
        assert_eq!((h.selectivity_eq(-1), h.selectivity_eq(100)), (0.0, 0.0));
    }

    #[test]
    fn empty_input_is_degenerate_not_panicking() {
        let h = Histogram::build(std::iter::empty(), 8);
        assert_eq!(h.selectivity_eq(5), 0.0);
        assert_eq!(h.selectivity_lt(5), 0.0);
    }

    #[test]
    fn eq_selectivity_on_uniform_data() {
        let h = uniform_0_99();
        let s = h.selectivity_eq(50);
        assert!((s - 0.01).abs() < 0.003, "got {s}");
        assert_eq!(h.selectivity_eq(-1), 0.0);
        assert_eq!(h.selectivity_eq(1000), 0.0);
    }

    #[test]
    fn lt_selectivity_monotone_and_bounded() {
        let h = uniform_0_99();
        let mut prev = 0.0;
        for v in [0, 10, 25, 50, 75, 99, 150] {
            let s = h.selectivity_lt(v);
            assert!(s >= prev - 1e-12, "non-monotone at {v}");
            assert!((0.0..=1.0).contains(&s));
            prev = s;
        }
        assert!((h.selectivity_lt(50) - 0.5).abs() < 0.05);
        assert_eq!(h.selectivity_lt(150), 1.0);
    }

    #[test]
    fn gt_complements_lt() {
        let h = uniform_0_99();
        let v = 30;
        let total = h.selectivity_lt(v) + h.selectivity_eq(v) + h.selectivity_gt(v);
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn join_selectivity_uniform_keys() {
        // Two uniform key columns over the same domain of 100 values:
        // P(match) should be ~1/100.
        let a = Histogram::build(0..100, 10);
        let b = Histogram::build(0..100, 10);
        let s = a.join_selectivity(&b);
        assert!((s - 0.01).abs() < 0.005, "got {s}");
    }

    #[test]
    fn join_selectivity_disjoint_domains_is_zero() {
        let a = Histogram::build(0..100, 10);
        let b = Histogram::build(1000..1100, 10);
        assert_eq!(a.join_selectivity(&b), 0.0);
    }

    #[test]
    fn skewed_histogram_eq_reflects_skew() {
        // 90 copies of value 0, one each of 1..=10.
        let mut vals = vec![0i64; 90];
        vals.extend(1..=10);
        let h = Histogram::build(vals, 11);
        assert!(h.selectivity_eq(0) > 5.0 * h.selectivity_eq(7));
    }
}
