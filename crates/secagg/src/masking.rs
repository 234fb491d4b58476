//! Mask construction and removal.
//!
//! A device `u` with input `x_u` uploads
//!
//! ```text
//! y_u = x_u + PRG(b_u) + Σ_{v: u<v} PRG(s_{uv}) − Σ_{v: u>v} PRG(s_{uv})   (mod p)
//! ```
//!
//! where `b_u` is the self-mask seed and `s_{uv}` the DH-agreed pairwise
//! seed. Pairwise masks cancel in the sum over all committed devices;
//! self masks are removed in Finalization via reconstructed `b_u`.
//!
//! The formula is the specification, not the memory layout: every
//! `PRG(·)` term is streamed into the vector it masks, one pass per term
//! ([`keys::apply_mask`]), and is never materialised as a vector.

use crate::field;
use crate::keys;

/// Applies device `u`'s full mask to `input` (field elements) in place.
///
/// `pairwise` holds `(peer_id, shared_seed)` for every *other* participant
/// expected to commit; `self_seed` is `b_u`.
///
/// # Panics
///
/// Panics if a peer id equals `own_id`.
pub fn mask_input(input: &mut [u64], own_id: u32, self_seed: u64, pairwise: &[(u32, u64)]) {
    keys::apply_mask(input, self_seed, field::add);
    for &(peer, seed) in pairwise {
        assert_ne!(peer, own_id, "device cannot pair with itself");
        if own_id < peer {
            keys::apply_mask(input, seed, field::add);
        } else {
            keys::apply_mask(input, seed, field::sub);
        }
    }
}

/// Removes a reconstructed self mask `b_u` from an aggregate.
pub fn remove_self_mask(aggregate: &mut [u64], self_seed: u64) {
    keys::apply_mask(aggregate, self_seed, field::sub);
}

/// Removes the residual pairwise masks left in the aggregate by a device
/// `dropped` that shared keys but never committed.
///
/// Every committed device `u` applied `±PRG(s_{u,dropped})`; the residual
/// contribution to the sum is `Σ_u sign(u, dropped) · PRG(s_{u,dropped})`,
/// which the server cancels after reconstructing the dropped device's mask
/// secret key.
pub fn remove_residual_pairwise(
    aggregate: &mut [u64],
    dropped_id: u32,
    dropped_keypair: &keys::KeyPair,
    committed: &[(u32, u64)], // (id, s-public-key) of committed devices
) {
    for &(u, u_public) in committed {
        if u == dropped_id {
            continue;
        }
        let seed = dropped_keypair.agree(u_public);
        // Device u applied +mask if u < dropped, −mask if u > dropped.
        if u < dropped_id {
            keys::apply_mask(aggregate, seed, field::sub);
        } else {
            keys::apply_mask(aggregate, seed, field::add);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyPair;
    use fl_ml::rng::seeded;
    use rand::RngExt;

    /// Builds a toy cohort with DH-agreed pairwise seeds.
    fn cohort(n: usize, seed: u64) -> (Vec<KeyPair>, Vec<Vec<(u32, u64)>>, Vec<u64>) {
        let mut rng = seeded(seed);
        let keys: Vec<KeyPair> = (0..n).map(|_| KeyPair::generate(&mut rng)).collect();
        let self_seeds: Vec<u64> = (0..n).map(|_| rng.random::<u64>()).collect();
        let pairwise: Vec<Vec<(u32, u64)>> = (0..n)
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
        let inputs: Vec<Vec<u64>> = (0..n).map(|u| vec![(u + 1) as u64; dim]).collect();
        let mut sum = vec![0u64; dim];
        for u in 0..n {
            let mut y = inputs[u].clone();
            mask_input(&mut y, u as u32, self_seeds[u], &pairwise[u]);
            field::add_assign_vec(&mut sum, &y);
        }
        // Remove all self masks; pairwise masks must already have cancelled.
        for &b in &self_seeds {
            remove_self_mask(&mut sum, b);
        }
        let expected: u64 = (1..=n as u64).sum();
        assert_eq!(sum, vec![expected; dim]);
    }

    #[test]
    fn masked_input_hides_the_plaintext() {
        let (_, pairwise, self_seeds) = cohort(3, 2);
        let mut y = vec![42u64; 8];
        mask_input(&mut y, 0, self_seeds[0], &pairwise[0]);
        assert_ne!(y, vec![42u64; 8]);
    }

    #[test]
    fn dropout_residual_is_removable() {
        // Devices 0..4; device 4 shares keys but never commits.
        let n = 5;
        let dim = 8;
        let (keys, pairwise, self_seeds) = cohort(n, 3);
        let committed: Vec<usize> = vec![0, 1, 2, 3];
        let inputs: Vec<Vec<u64>> = (0..n).map(|u| vec![(10 + u) as u64; dim]).collect();
        let mut sum = vec![0u64; dim];
        for &u in &committed {
            // Each committed device masked expecting ALL n participants.
            let mut y = inputs[u].clone();
            mask_input(&mut y, u as u32, self_seeds[u], &pairwise[u]);
            field::add_assign_vec(&mut sum, &y);
        }
        // Remove self masks of committed devices.
        for &u in &committed {
            remove_self_mask(&mut sum, self_seeds[u]);
        }
        // Residual from device 4 remains; remove it via its key pair.
        let committed_pubs: Vec<(u32, u64)> = committed
            .iter()
            .map(|&u| (u as u32, keys[u].public))
            .collect();
        remove_residual_pairwise(&mut sum, 4, &keys[4], &committed_pubs);
        let expected: u64 = committed.iter().map(|&u| (10 + u) as u64).sum();
        assert_eq!(sum, vec![expected; dim]);
    }

    #[test]
    #[should_panic(expected = "cannot pair with itself")]
    fn self_pairing_rejected() {
        let mut x = vec![0u64; 4];
        mask_input(&mut x, 1, 0, &[(1, 99)]);
    }
}
