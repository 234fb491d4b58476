//! Deterministic random-number helpers.
//!
//! All stochastic components of the workspace (data synthesis, client
//! sampling, initialization, compression masks, Secure Aggregation mask
//! expansion) derive their randomness from explicit seeds so that every
//! experiment in EXPERIMENTS.md is exactly reproducible.

use rand::rngs::StdRng;
use rand::SeedableRng;

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

/// Samples a standard normal value using the Box–Muller transform.
///
/// `rand` no longer ships distributions in its core crate; this avoids an
/// extra dependency for the handful of call sites that need Gaussians.
pub fn normal<R: rand::Rng>(rng: &mut R) -> f64 {
    // Draw u1 in (0, 1] to keep ln finite.
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
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
        let mut hits = vec![0usize; 20];
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
