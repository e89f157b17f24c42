//! Seeded input generation, digests and order statistics.

use alto_sim::SplitMix64;

/// A seeded generator for workload inputs. Each workload derives its own
/// streams from the run seed and a tag, so adding a draw to one stream never
/// shifts another.
#[derive(Debug, Clone)]
pub struct Rng(SplitMix64);

impl Rng {
    pub fn new(seed: u64, tag: u64) -> Rng {
        let mut mix = SplitMix64::new(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Rng(SplitMix64::new(mix.next_u64()))
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.0.next_below(n)
    }

    pub fn index(&mut self, n: usize) -> usize {
        self.0.next_below(n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.0.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.0.chance(num, den)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        self.0.shuffle(items);
    }

    /// `n` uniform draws in `[0, 1)`, exactly one in each of `n` equal
    /// strata, in seeded order (stratified sampling). The seed still varies
    /// every value and the order, but not how the values spread, so a
    /// population drawn this way differs little in its mean from seed to
    /// seed.
    pub fn strata(&mut self, n: usize) -> Vec<f64> {
        let mut v: Vec<f64> = (0..n)
            .map(|i| (i as f64 + self.unit()) / n as f64)
            .collect();
        self.shuffle(&mut v);
        v
    }

    pub fn fill(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let w = self.0.next_u64().to_le_bytes();
            chunk.copy_from_slice(&w[..chunk.len()]);
        }
    }

    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        let mut v = vec![0u8; n];
        self.fill(&mut v);
        v
    }
}

/// FNV-1a fold of a byte run into a running digest.
pub fn fold(digest: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(digest, |d, &b| {
        (d ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

pub const DIGEST_SEED: u64 = 0xCBF2_9CE4_8422_2325;

/// A latency distribution: median and the highest percentile with at least
/// ten samples beyond it (p99 once there are 1,000 samples).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    pub count: usize,
    pub p50_ns: u64,
    pub tail_ns: u64,
    /// The percentile `tail_ns` sits at.
    pub tail_pct: f64,
}

impl Dist {
    pub fn of(samples: &mut [u64]) -> Dist {
        samples.sort_unstable();
        let n = samples.len();
        if n == 0 {
            return Dist {
                count: 0,
                p50_ns: 0,
                tail_ns: 0,
                tail_pct: 0.0,
            };
        }
        let rank = |q: f64| ((q * n as f64).ceil() as usize).clamp(1, n);
        // Ten samples beyond the tail rank, but never below the median: a
        // run too short for that reports its median as its tail.
        let tail_rank = rank(0.99).min(n.saturating_sub(10)).max(rank(0.5));
        Dist {
            count: n,
            p50_ns: samples[rank(0.5) - 1],
            tail_ns: samples[tail_rank - 1],
            tail_pct: 100.0 * tail_rank as f64 / n as f64,
        }
    }
}

/// Median of host-clock samples (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile (linear interpolation between closest ranks).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.75))
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let mut v: Vec<u64> = (1..=1000).collect();
        let d = Dist::of(&mut v);
        assert_eq!(d.tail_ns, 990);
        assert_eq!(d.tail_pct, 99.0);
        assert_eq!(d.p50_ns, 500);
        let mut v: Vec<u64> = (1..=200).collect();
        let d = Dist::of(&mut v);
        assert_eq!(d.tail_ns, 190);
        assert_eq!(d.tail_pct, 95.0);
    }

    #[test]
    fn same_seed_same_stream_different_tag_different_stream() {
        let draw = |seed, tag| {
            let mut rng = Rng::new(seed, tag);
            (0..4).map(|_| rng.below(1 << 40)).collect::<Vec<u64>>()
        };
        let (a, b, c) = (draw(7, 1), draw(7, 1), draw(7, 2));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
