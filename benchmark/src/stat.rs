//! Order statistics and the FNV-1a digest the checks are built on.

/// Quartiles `(q1, median, q3)` of `values`, by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) — the
/// same rule the acceptance driver applies to the run-to-run spread, so a
/// spread printed here can be compared with one computed there.
///
/// Fewer than two values have no spread: the single value (or 0 for an
/// empty slice) is returned three times.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let m = len + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        // `delta` may leave 0..=4 after the clamp; the signed form keeps
        // the extrapolation Python performs at the ends.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Median with its quartiles and sample count, as every timing is
/// recorded in `results.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let (q1, median, q3) = quartiles(values);
        Summary {
            median,
            q1,
            q3,
            n: values.len(),
        }
    }

    /// A single reading with no spread (memory, exact counts).
    pub fn single(value: f64) -> Summary {
        Summary {
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a, folded a 64-bit word at a time on the per-packet path (one
/// multiply per word keeps the digest under 2 ns per departure, against
/// ≥ 50 ns of simulation) and a byte at a time over documents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(FNV_OFFSET)
    }

    #[inline]
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(FNV_PRIME);
    }

    pub fn words(&mut self, ws: &[u64]) {
        for &w in ws {
            self.word(w);
        }
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.word(b as u64);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
    }

    #[test]
    fn degenerate_samples_have_no_spread() {
        assert_eq!(quartiles(&[]), (0.0, 0.0, 0.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert_eq!(Summary::single(3.0).spread(), 0.0);
        assert_eq!(Summary::of(&[0.0, 0.0]).spread(), 0.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!((s.median, s.n), (2.0, 3));
        assert_eq!(s.spread(), 1.0);
    }

    #[test]
    fn digest_is_fnv1a_over_bytes() {
        // Published FNV-1a 64 vectors.
        let of = |s: &str| {
            let mut d = Digest::new();
            d.bytes(s.as_bytes());
            d.finish()
        };
        assert_eq!(of(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(of("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(of("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn digest_sees_order_and_every_word() {
        let of = |ws: &[u64]| {
            let mut d = Digest::new();
            d.words(ws);
            d.finish()
        };
        assert_ne!(of(&[1, 2, 3]), of(&[1, 3, 2]));
        assert_ne!(of(&[1, 2, 3]), of(&[1, 2, 4]));
        assert_ne!(of(&[1, 2]), of(&[1, 2, 0]));
    }
}
