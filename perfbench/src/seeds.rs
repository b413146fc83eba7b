//! Deterministic seed-node sequences drawn from the workload seed.
//!
//! The benchmark's inputs are a pure function of `--seed`: a SplitMix64
//! stream feeds a uniform sampler and a Zipf sampler whose popularity
//! ranks are mapped onto node ids through a seeded shuffle, so a
//! different workload seed moves the hot nodes as well as the order.

/// SplitMix64: tiny, fast, and fully determined by its starting state.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for `lane` (a client index, a phase), so
    /// each sender draws its own reproducible sequence.
    pub fn fork(seed: u64, lane: u64) -> Self {
        let mut r = Rng::new(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// Zipf(s) over `n` nodes: rank `r` (1-based) is drawn with probability
/// proportional to `r^-s`, and ranks map to node ids through a shuffle.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    nodes: Vec<usize>,
}

impl Zipf {
    pub fn new(n: usize, s: f64, rng: &mut Rng) -> Self {
        assert!(n > 0, "Zipf needs at least one node");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 1..=n {
            acc += (r as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        let mut nodes: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            nodes.swap(i, rng.below(i + 1));
        }
        Zipf { cdf, nodes }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        let rank = self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1);
        self.nodes[rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_other_seed_other_sequence() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            let zipf = Zipf::new(1000, 1.0, &mut rng);
            (0..200).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let lane = |l| (0..50).map(|_| Rng::fork(3, l).below(1 << 20)).collect::<Vec<_>>();
        assert_eq!(lane(1), lane(1));
        assert_ne!(Rng::fork(3, 0).next_u64(), Rng::fork(3, 1).next_u64());
    }

    #[test]
    fn zipf_frequencies_follow_the_rank_law() {
        let n = 500;
        let mut rng = Rng::new(42);
        let zipf = Zipf::new(n, 1.0, &mut rng);
        let mut counts = vec![0usize; n];
        let draws = 200_000;
        for _ in 0..draws {
            counts[zipf.sample(&mut rng)] += 1;
        }
        let harmonic: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
        for rank in [0, 1, 9] {
            let want = 1.0 / ((rank + 1) as f64 * harmonic);
            let got = counts[zipf.nodes[rank]] as f64 / draws as f64;
            assert!((got - want).abs() < 0.1 * want, "rank {rank}: {got} vs {want}");
        }
    }

    #[test]
    fn samplers_stay_in_range() {
        let mut rng = Rng::new(1);
        let zipf = Zipf::new(3, 1.0, &mut rng);
        for _ in 0..10_000 {
            assert!(zipf.sample(&mut rng) < 3);
            assert!(rng.below(5) < 5);
            let u = rng.next_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
