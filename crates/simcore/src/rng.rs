//! Deterministic random numbers and the distributions used by the device
//! and jitter models.
//!
//! Every model owns its own [`SimRng`], seeded from the experiment seed
//! plus a stable stream id, so adding a model never perturbs the draws of
//! another (the "independent streams" discipline common in simulation
//! codebases).

use crate::chacha::StdRng;

/// A seeded random number generator for one model/stream.
pub struct SimRng {
    rng: StdRng,
}

impl SimRng {
    /// Seed directly.
    pub fn new(seed: u64) -> Self {
        SimRng {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Derive an independent stream from a base seed and a stream id.
    /// Uses SplitMix64 finalisation so nearby ids give unrelated seeds.
    pub fn stream(base_seed: u64, stream: u64) -> Self {
        SimRng::new(splitmix64(base_seed ^ splitmix64(stream)))
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.rng.next_f64()
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.rng.below(n)
    }

    /// Exponential with the given mean (inverse-transform sampling).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0);
        let u = 1.0 - self.uniform(); // avoid ln(0)
        -mean * u.ln()
    }

    /// Standard normal via Box–Muller.
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// Log-normal parameterised by the *underlying* normal's mu/sigma.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.standard_normal()).exp()
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// A multiplicative jitter model: draws service-time multipliers with
/// mean 1.0 and a configurable coefficient of variation, log-normally
/// distributed (the standard model for storage-server response-time
/// variability, which is the phenomenon driving the paper's global-
/// synchronisation cost).
pub struct Jitter {
    rng: SimRng,
    mu: f64,
    sigma: f64,
}

impl Jitter {
    /// `cv` is the coefficient of variation (std-dev / mean) of the
    /// multiplier; `cv = 0` disables jitter.
    pub fn new(rng: SimRng, cv: f64) -> Self {
        assert!(cv >= 0.0);
        let sigma2 = (1.0 + cv * cv).ln();
        Jitter {
            rng,
            mu: -sigma2 / 2.0,
            sigma: sigma2.sqrt(),
        }
    }

    /// Draw a multiplier (mean 1.0).
    pub fn sample(&mut self) -> f64 {
        if self.sigma == 0.0 {
            1.0
        } else {
            self.rng.lognormal(self.mu, self.sigma)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_same_seed_same_stream() {
        let mut a = SimRng::stream(42, 7);
        let mut b = SimRng::stream(42, 7);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn streams_are_distinct() {
        let mut a = SimRng::stream(42, 1);
        let mut b = SimRng::stream(42, 2);
        let same = (0..100).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 5);
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = SimRng::new(1);
        let n = 20_000;
        let s: f64 = (0..n).map(|_| r.exponential(3.0)).sum();
        let mean = s / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean={mean}");
    }

    #[test]
    fn normal_moments_are_close() {
        let mut r = SimRng::new(2);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(5.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean={mean}");
        assert!((var - 4.0).abs() < 0.3, "var={var}");
    }

    #[test]
    fn jitter_mean_is_one_and_cv_matches() {
        let mut j = Jitter::new(SimRng::new(3), 0.5);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| j.sample()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let cv = var.sqrt() / mean;
        assert!((mean - 1.0).abs() < 0.02, "mean={mean}");
        assert!((cv - 0.5).abs() < 0.05, "cv={cv}");
    }

    #[test]
    fn zero_cv_jitter_is_identity() {
        let mut j = Jitter::new(SimRng::new(4), 0.0);
        for _ in 0..10 {
            assert_eq!(j.sample(), 1.0);
        }
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = SimRng::new(6);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
        }
    }
}
