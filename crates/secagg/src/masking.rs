//! Mask construction and removal.
//!
//! A device `u` with input `x_u` uploads
//!
//! ```text
//! y_u = x_u + PRG(b_u) + Σ_{v: u<v} PRG(s_{uv}) − Σ_{v: u>v} PRG(s_{uv})   (mod 2^32)
//! ```
//!
//! where `b_u` is the self-mask seed and `s_{uv}` the DH-agreed pairwise
//! seed. Pairwise masks cancel in the sum over all committed devices;
//! self masks are removed in Finalization via reconstructed `b_u`.
//!
//! The vectors live in the ring `Z_{2^32}` (Bonawitz et al. mask in any
//! `Z_R` that holds the sum; the prime field is needed only for the
//! Shamir shares and the keys), so every operation here is a wrapping
//! `u32` add. `PRG` is defined in [`keys`] (xoshiro256++ through
//! SplitMix64, two ring elements a step). The formula is the
//! specification, not the memory layout: no `PRG(·)` term is materialised
//! as a vector. Each function here collects the terms it needs as
//! [`MaskStream`]s and makes one [`keys::apply_masks`] call, which runs
//! them together, one stream per SIMD lane, in one pass over the vector
//! (the `keys` module docs give the lane layout and the dispatch). At the
//! `round_secagg` shard shape that is one call of 16 streams per device
//! and one of 15 self masks and 15 residuals on the server.

use crate::keys::{self, KeyPair, MaskStream};

/// Applies device `u`'s full mask to `input` (ring elements) in place.
///
/// `pairwise` holds `(peer_id, shared_seed)` for every *other* participant
/// expected to commit; `self_seed` is `b_u`.
///
/// # Panics
///
/// Panics if a peer id equals `own_id`.
pub fn mask_input(input: &mut [u32], own_id: u32, self_seed: u64, pairwise: &[(u32, u64)]) {
    let mut streams = Vec::with_capacity(1 + pairwise.len());
    streams.push(MaskStream::add(self_seed));
    for &(peer, seed) in pairwise {
        assert_ne!(peer, own_id, "device cannot pair with itself");
        streams.push(if own_id < peer {
            MaskStream::add(seed)
        } else {
            MaskStream::sub(seed)
        });
    }
    keys::apply_masks(input, &streams);
}

/// Removes a reconstructed self mask `b_u` from an aggregate.
// fl-lint: allow(test-only-pub): protocol surface pinned by tests/golden_masks.rs
pub fn remove_self_mask(aggregate: &mut [u32], self_seed: u64) {
    unmask(aggregate, &[self_seed], &[], &[]);
}

/// Removes from an aggregate, in one pass, the reconstructed self masks
/// `self_seeds` of the committed devices and the residual pairwise masks
/// of every `dropped` device (id and reconstructed mask key pair) that
/// shared keys but never committed.
///
/// Every committed device `u` applied `±PRG(s_{u,v})` for a dropped `v`;
/// the residual left in the sum is `Σ_u sign(u, v) · PRG(s_{u,v})`, which
/// the server regenerates from `v`'s key pair and the public keys in
/// `committed` (`(id, s-public-key)` of each committed device), one
/// batched [`KeyPair::agree_all`] per dropped device.
pub fn unmask(
    aggregate: &mut [u32],
    self_seeds: &[u64],
    dropped: &[(u32, KeyPair)],
    committed: &[(u32, u64)],
) {
    let mut streams = Vec::with_capacity(self_seeds.len() + dropped.len() * committed.len());
    streams.extend(self_seeds.iter().map(|&b| MaskStream::sub(b)));
    let mut seeds = Vec::with_capacity(committed.len());
    for (v, pair) in dropped {
        let peers = || committed.iter().filter(|(u, _)| u != v);
        seeds.clear();
        seeds.extend(peers().map(|&(_, u_public)| u_public));
        pair.agree_all(&mut seeds);
        // Device u applied +mask if u < v, −mask if u > v.
        streams.extend(peers().zip(&seeds).map(|(&(u, _), &seed)| {
            if u < *v {
                MaskStream::sub(seed)
            } else {
                MaskStream::add(seed)
            }
        }));
    }
    keys::apply_masks(aggregate, &streams);
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_ml::rng::seeded;
    use rand::RngExt;

    /// `sum += y` in the ring, as the server accumulates masked inputs.
    fn add_assign(sum: &mut [u32], y: &[u32]) {
        for (s, &v) in sum.iter_mut().zip(y) {
            *s = s.wrapping_add(v);
        }
    }

    /// Each client's `(peer, agreed seed)` pairs.
    type Pairwise = Vec<Vec<(u32, u64)>>;

    /// Builds a toy cohort with DH-agreed pairwise seeds.
    fn cohort(n: usize, seed: u64) -> (Vec<KeyPair>, Pairwise, Vec<u64>) {
        let mut rng = seeded(seed);
        let keys: Vec<KeyPair> = (0..n).map(|_| KeyPair::generate(&mut rng)).collect();
        let self_seeds: Vec<u64> = (0..n).map(|_| rng.random::<u64>()).collect();
        let pairwise: Pairwise = (0..n)
            .map(|u| {
                (0..n)
                    .filter(|&v| v != u)
                    .map(|v| (v as u32, keys[u].agree(keys[v].public)))
                    .collect()
            })
            .collect();
        (keys, pairwise, self_seeds)
    }

    #[test]
    fn pairwise_masks_cancel_in_full_sum() {
        let n = 5;
        let dim = 16;
        let (_, pairwise, self_seeds) = cohort(n, 1);
        let inputs: Vec<Vec<u32>> = (0..n).map(|u| vec![(u + 1) as u32; dim]).collect();
        let mut sum = vec![0u32; dim];
        for u in 0..n {
            let mut y = inputs[u].clone();
            mask_input(&mut y, u as u32, self_seeds[u], &pairwise[u]);
            add_assign(&mut sum, &y);
        }
        // Remove all self masks; pairwise masks must already have cancelled.
        for &b in &self_seeds {
            remove_self_mask(&mut sum, b);
        }
        let expected: u32 = (1..=n as u32).sum();
        assert_eq!(sum, vec![expected; dim]);
    }

    #[test]
    fn masked_input_hides_the_plaintext() {
        let (_, pairwise, self_seeds) = cohort(3, 2);
        let mut y = vec![42u32; 8];
        mask_input(&mut y, 0, self_seeds[0], &pairwise[0]);
        assert_ne!(y, vec![42u32; 8]);
    }

    #[test]
    fn dropout_residual_is_removable() {
        // Devices 0..4; device 4 shares keys but never commits.
        let n = 5;
        let dim = 8;
        let (keys, pairwise, self_seeds) = cohort(n, 3);
        let committed: Vec<usize> = vec![0, 1, 2, 3];
        let inputs: Vec<Vec<u32>> = (0..n).map(|u| vec![(10 + u) as u32; dim]).collect();
        let mut sum = vec![0u32; dim];
        for &u in &committed {
            // Each committed device masked expecting ALL n participants.
            let mut y = inputs[u].clone();
            mask_input(&mut y, u as u32, self_seeds[u], &pairwise[u]);
            add_assign(&mut sum, &y);
        }
        // Remove the committed devices' self masks and device 4's
        // residual, via its key pair.
        let seeds: Vec<u64> = committed.iter().map(|&u| self_seeds[u]).collect();
        let committed_pubs: Vec<(u32, u64)> = committed
            .iter()
            .map(|&u| (u as u32, keys[u].public))
            .collect();
        unmask(&mut sum, &seeds, &[(4, keys[4])], &committed_pubs);
        let expected: u32 = committed.iter().map(|&u| (10 + u) as u32).sum();
        assert_eq!(sum, vec![expected; dim]);
    }

    #[test]
    #[should_panic(expected = "cannot pair with itself")]
    fn self_pairing_rejected() {
        let mut x = vec![0u32; 4];
        mask_input(&mut x, 1, 0, &[(1, 99)]);
    }
}
