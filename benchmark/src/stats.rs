//! Order statistics over timing samples, and how repeats of the same
//! work are folded into one number.

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice;
/// 0.0 for an empty one, so an absent layer reads as zero.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// The best repeat; 0.0 for none.
pub fn best(values: &[f64]) -> f64 {
    values.iter().copied().min_by(f64::total_cmp).unwrap_or(0.0)
}

/// Per-op latency with the box's noise taken out: op `i`'s best repeat
/// over the rounds.
///
/// Rounds replay identical work in one thread, so op `i` is the same
/// work in every round, and what makes one repeat slower than another
/// comes from outside the program and only ever adds time: on the
/// reference box, other tenants' bursts that last seconds, come in
/// phases of minutes and can cover half of every round of a run. Folding
/// the repeats *before* any statistic over the ops (p50, p95, sum) keeps
/// the workload's own spread — ops differ — and drops the box's; and of
/// the ways to fold them the best repeat is the steadiest by far. On
/// identical raw samples of ten `param_point_q5` runs taken in a noisy
/// phase, run-to-run spread (IQR / median) of `hr_op_p95_us` was 25% for
/// "p95 per round, median over rounds", 18% for the per-op median and 3%
/// for the per-op best (README, "Why the best repeat"). A regression in
/// the program slows every repeat, the best one too.
pub fn per_op_best(rounds: &[&[f64]]) -> Vec<f64> {
    let n = rounds.iter().map(|r| r.len()).min().unwrap_or(0);
    (0..n)
        .map(|i| best(&rounds.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_and_best_sort_first() {
        assert_eq!(median(&[9.0, 1.0, 5.0, 3.0, 7.0]), 5.0);
        assert_eq!(best(&[9.0, 1.0, 5.0]), 1.0);
        assert_eq!((median(&[]), best(&[])), (0.0, 0.0));
    }

    #[test]
    fn per_op_best_drops_a_burst_but_keeps_the_ops_apart() {
        // Three rounds of four ops; a burst triples two ops of round 1.
        let rounds: [&[f64]; 3] = [
            &[1.0, 2.0, 3.0, 40.0],
            &[1.1, 6.0, 9.0, 41.0],
            &[0.9, 2.1, 3.1, 39.0],
        ];
        assert_eq!(per_op_best(&rounds), vec![0.9, 2.0, 3.0, 39.0]);
        // A round cut short limits what can be compared.
        assert_eq!(per_op_best(&[&[1.0, 2.0], &[1.0]]), vec![1.0]);
        assert!(per_op_best(&[]).is_empty());
    }
}
