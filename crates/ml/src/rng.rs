//! Deterministic random-number helpers.
//!
//! All stochastic components of the workspace (data synthesis, client
//! sampling, initialization, compression masks, Secure Aggregation mask
//! expansion) derive their randomness from explicit seeds so that every
//! experiment in EXPERIMENTS.md is exactly reproducible.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::Cell;

/// Creates a [`StdRng`] from a `u64` seed.
///
/// This is the single entry point for seeding in the workspace; using one
/// helper keeps the seeding scheme uniform across crates.
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derives a child seed from a parent seed and a stream index.
///
/// Uses the SplitMix64 finalizer, which decorrelates nearby `(seed, stream)`
/// pairs well enough for simulation purposes.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Creates a [`StdRng`] for a derived `(seed, stream)` pair.
pub fn seeded_stream(seed: u64, stream: u64) -> StdRng {
    seeded(derive_seed(seed, stream))
}

thread_local! {
    static NORMALS: Cell<u64> = const { Cell::new(0) };
}

/// Standard normals this thread has evaluated: one per
/// [`NormalDraw::value`], so one per [`normal`] too. A caller that draws
/// its uniforms ahead and turns only some pairs into normals reads its
/// saving off the difference across a run.
pub fn normals() -> u64 {
    NORMALS.with(Cell::get)
}

/// The two uniforms behind one standard normal, drawn but not yet
/// transformed. Drawing is cheap; [`Self::value`] (a logarithm, a square
/// root and a cosine) is not, so a model whose queries need only some of
/// its normals draws every pair in order and evaluates the few it reads.
#[derive(Debug, Clone, Copy)]
pub struct NormalDraw {
    u1: f64,
    u2: f64,
}

impl NormalDraw {
    /// Draws the pair [`normal`] would draw next from `rng`.
    pub fn draw<R: rand::Rng>(rng: &mut R) -> NormalDraw {
        // u1 in (0, 1] keeps ln finite.
        let u1 = 1.0 - rng.random::<f64>();
        let u2 = rng.random::<f64>();
        NormalDraw { u1, u2 }
    }

    /// The standard normal of the pair, by the Box–Muller transform.
    pub fn value(self) -> f64 {
        NORMALS.with(|c| c.set(c.get() + 1));
        (-2.0 * self.u1.ln()).sqrt() * (std::f64::consts::TAU * self.u2).cos()
    }
}

/// Samples a standard normal value using the Box–Muller transform.
///
/// `rand` no longer ships distributions in its core crate; this avoids an
/// extra dependency for the handful of call sites that need Gaussians.
pub fn normal<R: rand::Rng>(rng: &mut R) -> f64 {
    NormalDraw::draw(rng).value()
}

/// Samples from a zero-mean normal with the given standard deviation.
pub fn normal_with_std<R: rand::Rng>(rng: &mut R, std_dev: f64) -> f64 {
    normal(rng) * std_dev
}

/// Draws `k` distinct indices uniformly from `0..n` via reservoir sampling.
///
/// Reservoir sampling is also what the paper's Selector uses for device
/// selection ("selection is done by simple reservoir sampling", Sec. 2.2),
/// so the same primitive is reused by `fl-server`.
///
/// # Panics
///
/// Panics if `k > n`.
pub fn reservoir_sample<R: rand::Rng>(rng: &mut R, n: usize, k: usize) -> Vec<usize> {
    assert!(k <= n, "cannot sample {k} items from {n}");
    let mut reservoir: Vec<usize> = (0..k).collect();
    for i in k..n {
        let j = rng.random_range(0..=i);
        if j < k {
            reservoir[j] = i;
        }
    }
    reservoir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_deterministic() {
        let mut a = seeded(42);
        let mut b = seeded(42);
        let xa: u64 = rand::RngExt::random(&mut a);
        let xb: u64 = rand::RngExt::random(&mut b);
        assert_eq!(xa, xb);
    }

    #[test]
    fn derive_seed_decorrelates_streams() {
        let s0 = derive_seed(1, 0);
        let s1 = derive_seed(1, 1);
        assert_ne!(s0, s1);
        // Hamming distance should be substantial, not a single-bit flip.
        assert!((s0 ^ s1).count_ones() > 8);
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = seeded(7);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn a_drawn_pair_is_the_normal_of_the_same_draws_and_is_counted_once() {
        let (mut a, mut b) = (seeded(5), seeded(5));
        let before = normals();
        for _ in 0..100 {
            let draw = NormalDraw::draw(&mut b);
            assert_eq!(normal(&mut a).to_bits(), draw.value().to_bits());
        }
        assert_eq!(normals() - before, 200);
        // Drawing alone evaluates nothing.
        let _ = NormalDraw::draw(&mut b);
        assert_eq!(normals() - before, 200);
    }

    #[test]
    fn reservoir_sample_is_distinct_and_in_range() {
        let mut rng = seeded(11);
        let sample = reservoir_sample(&mut rng, 100, 10);
        assert_eq!(sample.len(), 10);
        let mut sorted = sample.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
        assert!(sample.iter().all(|&i| i < 100));
    }

    #[test]
    fn reservoir_sample_is_roughly_uniform() {
        let mut rng = seeded(13);
        let mut hits = [0usize; 20];
        for _ in 0..20_000 {
            for i in reservoir_sample(&mut rng, 20, 5) {
                hits[i] += 1;
            }
        }
        // Each index should appear ~5000 times (20000 * 5/20).
        for (i, &h) in hits.iter().enumerate() {
            assert!((h as f64 - 5000.0).abs() < 350.0, "index {i}: {h}");
        }
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn reservoir_sample_rejects_oversized_k() {
        let mut rng = seeded(1);
        let _ = reservoir_sample(&mut rng, 3, 4);
    }
}
