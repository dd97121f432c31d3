//! Order statistics, the settle-rule scanner and the seed stream.
//!
//! Nothing here touches the product; everything is unit-tested below.

/// Sorts `values` ascending (NaN-safe total order).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// The `p`-th percentile (`0 ≤ p ≤ 100`) of an ascending slice, linearly
/// interpolated between the two nearest ranks.
///
/// # Panics
///
/// Panics on an empty slice: a percentile of nothing is a caller bug.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method) — the driver judges run-to-run spread with that function, so
/// `compare` and the README quote the same numbers. A sample of one
/// returns its value three times.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    sort(&mut v);
    let len = v.len();
    assert!(len > 0, "quartiles of an empty sample");
    if len == 1 {
        return [v[0]; 3];
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// The settle rule: the first index `k` such that `utility[k..k + window]`
/// all lie within `±band · |reference|` of `reference`. `None` if no such
/// run of `window` consecutive samples exists.
pub fn settled_at(utility: &[f64], reference: f64, band: f64, window: usize) -> Option<usize> {
    let tolerance = band * reference.abs();
    let mut run = 0;
    for (i, &u) in utility.iter().enumerate() {
        if (u - reference).abs() <= tolerance {
            run += 1;
            if run == window {
                return Some(i + 1 - window);
            }
        } else {
            run = 0;
        }
    }
    None
}

/// Picks `m` of `difficulty.len()` candidates at the mid-points of `m`
/// equal-probability strata of the difficulty distribution (systematic
/// sampling of the sorted order). Every seed then presents the same
/// difficulty mix, so a sum over the picks varies between seeds like a
/// mean over *all* candidates rather than like a sum of `m` draws.
/// Returns indices into `difficulty`, easiest first.
pub fn stratified_pick(difficulty: &[usize], m: usize) -> Vec<usize> {
    let n = difficulty.len();
    assert!(m >= 1 && m <= n, "cannot pick {m} of {n}");
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (difficulty[i], i));
    (0..m).map(|s| order[(2 * s + 1) * n / (2 * m)]).collect()
}

/// SplitMix64: the benchmark's only source of pseudo-randomness. Every
/// generated input is a pure function of `(--seed, workload tag)`.
#[derive(Clone, Debug)]
pub struct SeedStream(u64);

impl SeedStream {
    /// A stream for one workload of one run.
    pub fn new(seed: u64, tag: &str) -> Self {
        let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in tag.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        SeedStream(h)
    }

    /// The next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A seeded permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_and_clamps() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 25.0), 2.0);
        assert!((percentile(&v, 90.0) - 4.6).abs() < 1e-12);
        assert_eq!(percentile(&v, 250.0), 5.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([10,20,30,40,50,60,70], n=4) == [20, 40, 60]
        let w: Vec<f64> = (1..=7).map(|x| f64::from(x) * 10.0).collect();
        assert_eq!(quartiles(&w), [20.0, 40.0, 60.0]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    }

    #[test]
    fn settle_scanner_finds_the_first_full_window() {
        // enters the ±10 % band at index 3 and stays
        let u = [0.0, 50.0, 80.0, 95.0, 101.0, 99.0, 100.0, 100.0];
        assert_eq!(settled_at(&u, 100.0, 0.10, 3), Some(3));
        // a brief visit that does not last the whole window does not count
        let v = [100.0, 100.0, 50.0, 100.0, 100.0, 100.0];
        assert_eq!(settled_at(&v, 100.0, 0.01, 3), Some(3));
        // never long enough
        assert_eq!(settled_at(&v, 100.0, 0.01, 4), None);
        // already settled at the event
        assert_eq!(settled_at(&[100.0; 5], 100.0, 0.005, 5), Some(0));
        // the window may end exactly at the last sample
        assert_eq!(
            settled_at(&[0.0, 0.0, 100.0, 100.0], 100.0, 0.0, 2),
            Some(2)
        );
        assert_eq!(settled_at(&[], 1.0, 0.5, 1), None);
        // negative references use the magnitude for the band
        assert_eq!(settled_at(&[-99.0, -100.0], -100.0, 0.02, 2), Some(0));
    }

    #[test]
    fn stratified_pick_takes_stratum_midpoints() {
        let d: Vec<usize> = vec![50, 10, 40, 20, 30, 60, 80, 70];
        // sorted order by difficulty: idx 1,3,4,2,0,5,7,6; midpoints of 4 strata of 2
        assert_eq!(stratified_pick(&d, 4), vec![3, 2, 5, 6]);
        assert_eq!(stratified_pick(&d, 1), vec![0]);
        let all = stratified_pick(&d, 8);
        assert_eq!(all, vec![1, 3, 4, 2, 0, 5, 7, 6]);
    }

    #[test]
    fn seed_stream_is_deterministic_and_tagged() {
        let a: Vec<u64> = {
            let mut s = SeedStream::new(7, "fig4_cold");
            (0..4).map(|_| s.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut s = SeedStream::new(7, "fig4_cold");
            (0..4).map(|_| s.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut other_seed = SeedStream::new(8, "fig4_cold");
        let mut other_tag = SeedStream::new(7, "churn_400");
        assert_ne!(a[0], other_seed.next_u64());
        assert_ne!(a[0], other_tag.next_u64());
        let mut s = SeedStream::new(1, "p");
        let mut p = s.permutation(32);
        p.sort_unstable();
        assert_eq!(p, (0..32).collect::<Vec<_>>());
    }
}
