//! Seeded random sampling for workload generation.
//!
//! [`Sampler`] wraps a deterministic RNG and provides the distributions the
//! traffic models need — exponential inter-arrival times, Poisson counts,
//! Zipf-distributed popularity (a standard model for mailbox popularity),
//! log-normal body sizes, and Bernoulli trials — implemented directly so the
//! only external dependency remains the `rand` core.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A seeded sampler over the distributions used by the workload models.
#[derive(Debug, Clone)]
pub struct Sampler {
    seed: u64,
    rng: SmallRng,
}

impl Sampler {
    /// Creates a sampler with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        Sampler {
            seed,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The seed this sampler was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent sub-sampler for `stream`, as a pure
    /// function of this sampler's *seed* (not its current state): the
    /// same `(seed, stream)` always yields the same sub-stream, and
    /// deriving never perturbs `self`. The mixing is splitmix64, so
    /// nearby stream ids decorrelate.
    pub fn derive(&self, stream: u64) -> Sampler {
        let mut z = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Sampler::new(z ^ (z >> 31))
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        self.rng.gen_range(lo..hi)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Exponential with mean `mean` (inverse-transform sampling).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not finite and positive.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean.is_finite() && mean > 0.0, "mean must be positive");
        let u: f64 = loop {
            let v = self.uniform();
            if v > 0.0 {
                break v;
            }
        };
        -mean * u.ln()
    }

    /// Poisson count with rate `lambda` (Knuth's method for small rates,
    /// normal approximation above 30 to stay O(1)).
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is negative or not finite.
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        assert!(lambda.is_finite() && lambda >= 0.0, "lambda must be >= 0");
        if lambda == 0.0 {
            return 0;
        }
        if lambda > 30.0 {
            // Normal approximation with continuity correction.
            let sample = self.gaussian() * lambda.sqrt() + lambda + 0.5;
            return sample.max(0.0) as u64;
        }
        let threshold = (-lambda).exp();
        let mut count = 0u64;
        let mut product = self.uniform();
        while product > threshold {
            count += 1;
            product *= self.uniform();
        }
        count
    }

    /// Standard normal via Box–Muller.
    pub fn gaussian(&mut self) -> f64 {
        let u1: f64 = loop {
            let v = self.uniform();
            if v > 0.0 {
                break v;
            }
        };
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Log-normal with the given parameters of the underlying normal.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.gaussian()).exp()
    }

    /// Zipf-distributed rank in `[0, n)` with exponent `s`: one draw from
    /// [`Zipf::new`]`(n, s)`. A caller drawing many ranks from one law
    /// builds the [`Zipf`] once instead.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s <= 0`.
    pub fn zipf(&mut self, n: usize, s: f64) -> usize {
        Zipf::new(n, s).sample(self)
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            items.swap(i, j);
        }
    }

    /// Picks a uniformly random element index of a nonempty slice length.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn pick_index(&mut self, len: usize) -> usize {
        assert!(len > 0, "cannot pick from empty collection");
        self.rng.gen_range(0..len)
    }

    /// Direct access to the underlying RNG for callers needing raw bits.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }
}

/// A Zipf law over the ranks `[0, n)` with exponent `s`, drawn by
/// rejection against the continuous bounding Pareto (Devroye,
/// *Non-Uniform Random Variate Generation*, 1986, §II.3): draw `x` from
/// the envelope by inverting its CDF, take `k = ⌊x⌋`, and accept rank
/// `k − 1` if a second uniform falls under `(k/x)^s`, the discrete pmf
/// over the envelope. The envelope's constants depend only on `(n, s)`,
/// so they are computed here once rather than at every draw.
///
/// A draw is also **squeezed**: it accepts without computing `(k/x)^s`
/// when the second uniform falls under `1 − max(s, 1)/x − slack`. That
/// reaches the exact test's decision, never another one. `k > x − 1`
/// (clamping `⌊x⌋` into `[1, n]` only ever raises it, as the envelope
/// stays below `n + 1`), so `(k/x)^s ≥ (1 − 1/x)^s`, which is at least
/// `1 − s/x` for `s ≥ 1` (Bernoulli's inequality) and at least `1 − 1/x`
/// for `s < 1`; `slack`, `64 (s + 1)` machine epsilons, covers the
/// rounding of `k/x` (amplified `s`-fold by the power), of `powf` itself
/// and of the squeeze's own three operations with room to spare. So a
/// uniform under the squeeze is under the computed ratio too, every draw
/// returns the rank the exact test returns, and both uniforms are drawn
/// either way — the stream a sampler leaves behind is the same.
#[derive(Debug, Clone, Copy)]
pub struct Zipf {
    nf: f64,
    s: f64,
    /// `s` within `1e-9` of 1: the envelope is `x = n^u`.
    unit: bool,
    /// `n^(1 − s) − 1`, the envelope CDF's span.
    span: f64,
    /// `1 / (1 − s)`, the envelope CDF's inverse exponent.
    inv: f64,
    /// `max(s, 1)`, the squeeze's reach.
    reach: f64,
    /// The squeeze's margin for rounding.
    slack: f64,
}

impl Zipf {
    /// The law over `[0, n)` with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s <= 0`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "zipf needs a nonempty domain");
        assert!(s > 0.0, "zipf exponent must be positive");
        let nf = n as f64;
        let t = 1.0 - s;
        Zipf {
            nf,
            s,
            unit: (s - 1.0).abs() < 1e-9,
            span: nf.powf(t) - 1.0,
            inv: 1.0 / t,
            reach: s.max(1.0),
            slack: 64.0 * (s + 1.0) * f64::EPSILON,
        }
    }

    /// One rank from `sampler`. A one-rank law draws nothing.
    pub fn sample(&self, sampler: &mut Sampler) -> usize {
        if self.nf == 1.0 {
            return 0;
        }
        loop {
            let u = sampler.uniform();
            let x = if self.unit {
                self.nf.powf(u)
            } else {
                (self.span * u + 1.0).powf(self.inv)
            };
            let k = x.floor().max(1.0).min(self.nf);
            let v = sampler.uniform();
            if v < 1.0 - (self.reach / x + self.slack) || v < (k / x).powf(self.s) {
                return k as usize - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_same_seed_same_stream() {
        let mut a = Sampler::new(11);
        let mut b = Sampler::new(11);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn derive_is_pure_and_independent() {
        let parent = Sampler::new(11);
        let mut a = parent.derive(3);
        let mut b = Sampler::new(11).derive(3);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
        // Different streams diverge, and neither matches the parent seed.
        let mut c = parent.derive(4);
        assert_ne!(a.uniform().to_bits(), c.uniform().to_bits());
        assert_eq!(parent.seed(), 11);
    }

    #[test]
    fn exponential_mean_close() {
        let mut s = Sampler::new(1);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| s.exponential(4.0)).sum();
        let mean = total / n as f64;
        assert!((mean - 4.0).abs() < 0.15, "mean was {mean}");
    }

    #[test]
    fn poisson_mean_close_small_lambda() {
        let mut s = Sampler::new(2);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| s.poisson(3.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean was {mean}");
    }

    #[test]
    fn poisson_mean_close_large_lambda() {
        let mut s = Sampler::new(3);
        let n = 5_000;
        let total: u64 = (0..n).map(|_| s.poisson(200.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 200.0).abs() < 2.0, "mean was {mean}");
    }

    #[test]
    fn poisson_zero_lambda_is_zero() {
        let mut s = Sampler::new(4);
        assert_eq!(s.poisson(0.0), 0);
    }

    #[test]
    fn gaussian_moments() {
        let mut s = Sampler::new(5);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| s.gaussian()).collect();
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean was {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance was {var}");
    }

    #[test]
    fn zipf_rank_zero_dominates() {
        let mut s = Sampler::new(6);
        let n = 20_000;
        let mut counts = [0u32; 50];
        for _ in 0..n {
            counts[s.zipf(50, 1.1)] += 1;
        }
        assert!(counts[0] > counts[1]);
        assert!(counts[0] > counts[10] * 3);
        // Every sample is in range (indexing would have panicked otherwise).
        assert_eq!(counts.iter().map(|&c| u64::from(c)).sum::<u64>(), n);
    }

    /// The draw `Zipf` replaced, kept verbatim as the reference: the
    /// envelope recomputed at every attempt and no squeeze.
    fn zipf_reference(sampler: &mut Sampler, n: usize, s: f64) -> usize {
        assert!(n > 0, "zipf needs a nonempty domain");
        assert!(s > 0.0, "zipf exponent must be positive");
        if n == 1 {
            return 0;
        }
        let nf = n as f64;
        loop {
            let u = sampler.uniform();
            let x = if (s - 1.0).abs() < 1e-9 {
                nf.powf(u)
            } else {
                let t = 1.0 - s;
                ((nf.powf(t) - 1.0) * u + 1.0).powf(1.0 / t)
            };
            let k = x.floor().max(1.0).min(nf) as usize;
            let ratio = (k as f64 / x).powf(s);
            if sampler.uniform() < ratio {
                return k - 1;
            }
        }
    }

    /// A million draws per `(n, s)` from one seed: the precomputed,
    /// squeezed law returns the reference's rank at every draw, and
    /// leaves the stream where the reference leaves it.
    fn zipf_matches_the_reference(s: f64) {
        for (i, n) in [1usize, 2, 200, 1_600, 1_000_000].into_iter().enumerate() {
            let seed = 0x5eed + i as u64 + (s * 1e3) as u64;
            let (mut ours, mut reference) = (Sampler::new(seed), Sampler::new(seed));
            let law = Zipf::new(n, s);
            for draw in 0..1_000_000 {
                let rank = law.sample(&mut ours);
                assert_eq!(
                    rank,
                    zipf_reference(&mut reference, n, s),
                    "n={n} s={s} draw {draw}"
                );
                assert!(rank < n);
            }
            let next = ours.uniform().to_bits();
            assert_eq!(next, reference.uniform().to_bits(), "n={n} s={s}");
            if n == 1 {
                assert_eq!(next, Sampler::new(seed).uniform().to_bits(), "drew at n=1");
            }
        }
    }

    #[test]
    fn zipf_matches_the_reference_below_one() {
        zipf_matches_the_reference(0.3);
        zipf_matches_the_reference(0.8);
    }

    #[test]
    fn zipf_matches_the_reference_near_one() {
        zipf_matches_the_reference(1.0);
        zipf_matches_the_reference(1.05);
    }

    #[test]
    fn zipf_matches_the_reference_above_one() {
        zipf_matches_the_reference(2.0);
        zipf_matches_the_reference(8.0);
        zipf_matches_the_reference(40.0);
    }

    #[test]
    fn zipf_singleton_domain() {
        let mut s = Sampler::new(7);
        for _ in 0..10 {
            assert_eq!(s.zipf(1, 1.0), 0);
        }
    }

    #[test]
    fn bernoulli_extremes() {
        let mut s = Sampler::new(8);
        assert!((0..100).all(|_| !s.bernoulli(0.0)));
        assert!((0..100).all(|_| s.bernoulli(1.0)));
    }

    #[test]
    fn bernoulli_rate_close() {
        let mut s = Sampler::new(9);
        let hits = (0..20_000).filter(|_| s.bernoulli(0.3)).count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate was {rate}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut s = Sampler::new(10);
        let mut v: Vec<u32> = (0..100).collect();
        s.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "shuffle left input sorted");
    }

    #[test]
    fn log_normal_positive() {
        let mut s = Sampler::new(11);
        assert!((0..1000).all(|_| s.log_normal(1.0, 0.5) > 0.0));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn uniform_range_empty_panics() {
        Sampler::new(0).uniform_range(5, 5);
    }
}
