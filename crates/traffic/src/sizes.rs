//! Packet-size distributions.

use rand::{Rng, RngExt};

use crate::dist::DistError;

/// A packet-size distribution, in bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum SizeDist {
    /// Every packet has the same size.
    Fixed(u32),
    /// A weighted discrete distribution over a small set of sizes.
    ///
    /// Stored as `(size, cumulative_probability)` pairs with the last
    /// cumulative probability equal to 1.
    Empirical(Vec<(u32, f64)>),
}

impl SizeDist {
    /// The paper's Study-A packet-size mix (§5): 40 % are 40 B, 50 % are
    /// 550 B, and 10 % are 1500 B, for a mean of 441 B.
    pub fn paper() -> Self {
        SizeDist::empirical(&[(40, 0.4), (550, 0.5), (1500, 0.1)])
            .expect("paper size distribution is valid")
    }

    /// All packets are `bytes` long (Study B uses fixed 500 B packets).
    pub fn fixed(bytes: u32) -> Self {
        SizeDist::Fixed(bytes)
    }

    /// Builds an empirical distribution from `(size, probability)` pairs.
    pub fn empirical(entries: &[(u32, f64)]) -> Result<Self, DistError> {
        if entries.is_empty() {
            return Err(DistError::NonPositiveMean(0.0));
        }
        let total: f64 = entries.iter().map(|&(_, p)| p).sum();
        if !(total > 0.0 && total.is_finite()) || entries.iter().any(|&(s, p)| p < 0.0 || s == 0) {
            return Err(DistError::NonPositiveMean(total));
        }
        let mut cum = 0.0;
        let mut table = Vec::with_capacity(entries.len());
        for &(size, p) in entries {
            cum += p / total;
            table.push((size, cum));
        }
        // Guard against accumulated rounding error in the last bucket.
        table.last_mut().expect("nonempty").1 = 1.0;
        Ok(SizeDist::Empirical(table))
    }

    /// Draws one packet size.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        match self {
            SizeDist::Fixed(s) => *s,
            SizeDist::Empirical(table) => {
                let u: f64 = rng.random();
                // The first entry with `u < cum`, found by counting the
                // entries before it: `cum` never decreases, and a count
                // does not branch on the random `u`.
                let before = table.iter().filter(|&&(_, cum)| u >= cum).count();
                table[before.min(table.len() - 1)].0
            }
        }
    }

    /// The mean packet size in bytes.
    pub fn mean_bytes(&self) -> f64 {
        match self {
            SizeDist::Fixed(s) => *s as f64,
            SizeDist::Empirical(table) => {
                let mut prev = 0.0;
                let mut mean = 0.0;
                for &(size, cum) in table {
                    mean += size as f64 * (cum - prev);
                    prev = cum;
                }
                mean
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_mix_has_mean_441() {
        assert!((SizeDist::paper().mean_bytes() - 441.0).abs() < 1e-9);
    }

    #[test]
    fn paper_mix_empirical_frequencies() {
        let d = SizeDist::paper();
        let mut rng = StdRng::seed_from_u64(2);
        let n = 200_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            match d.sample(&mut rng) {
                40 => counts[0] += 1,
                550 => counts[1] += 1,
                1500 => counts[2] += 1,
                other => panic!("unexpected size {other}"),
            }
        }
        let f = |c: usize| c as f64 / n as f64;
        assert!((f(counts[0]) - 0.4).abs() < 0.01);
        assert!((f(counts[1]) - 0.5).abs() < 0.01);
        assert!((f(counts[2]) - 0.1).abs() < 0.01);
    }

    #[test]
    fn sample_takes_the_first_entry_whose_cumulative_exceeds_the_draw() {
        // Zero-weight entries repeat a cumulative value, at the front, in
        // the middle and at the end.
        let weights = [(10, 0.0), (20, 0.3), (30, 0.0), (40, 0.7), (50, 0.0)];
        for d in [SizeDist::empirical(&weights).unwrap(), SizeDist::paper()] {
            let SizeDist::Empirical(table) = &d else {
                unreachable!()
            };
            let (mut sampled, mut drawn) = (StdRng::seed_from_u64(6), StdRng::seed_from_u64(6));
            for _ in 0..50_000 {
                let u: f64 = drawn.random();
                let scanned = table.iter().find(|&&(_, cum)| u < cum).unwrap().0;
                assert_eq!(d.sample(&mut sampled), scanned);
            }
        }
    }

    #[test]
    fn fixed_always_returns_same() {
        let d = SizeDist::fixed(500);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut rng), 500);
        }
        assert_eq!(d.mean_bytes(), 500.0);
    }

    #[test]
    fn empirical_normalizes_weights() {
        // Weights 2:2:1 should behave like 0.4:0.4:0.2.
        let d = SizeDist::empirical(&[(10, 2.0), (20, 2.0), (30, 1.0)]).unwrap();
        assert!((d.mean_bytes() - (0.4 * 10.0 + 0.4 * 20.0 + 0.2 * 30.0)).abs() < 1e-9);
    }

    #[test]
    fn empirical_rejects_bad_input() {
        assert!(SizeDist::empirical(&[]).is_err());
        assert!(SizeDist::empirical(&[(10, -1.0)]).is_err());
        assert!(SizeDist::empirical(&[(0, 1.0)]).is_err());
        assert!(SizeDist::empirical(&[(10, 0.0)]).is_err());
    }
}
