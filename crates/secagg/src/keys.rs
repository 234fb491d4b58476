//! Key agreement and the mask/share PRG.
//!
//! Devices advertise two Diffie–Hellman key pairs (Bonawitz et al. 2017):
//! the `c` pair encrypts Shamir shares in transit; the `s` pair derives the
//! pairwise mask seeds. The group here is `Z_p^*` with the 61-bit protocol
//! prime — structurally faithful, cryptographically simulation-grade (see
//! the crate docs for the security caveat).

use crate::field;
use fl_ml::rng;
use rand::RngExt;

/// Generator of (a large subgroup of) `Z_p^*` used for DH.
pub const GENERATOR: u64 = 3;

/// A Diffie–Hellman key pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyPair {
    secret: u64,
    /// Public key `g^secret mod p`.
    pub public: u64,
}

impl KeyPair {
    /// Generates a key pair from the given RNG.
    pub fn generate<R: rand::Rng>(rng: &mut R) -> Self {
        // Secret in [1, p-1).
        let secret = 1 + rng.random_range(0..field::PRIME - 2);
        KeyPair {
            secret,
            public: field::pow(GENERATOR, secret),
        }
    }

    /// Reconstructs a key pair from a known secret (used by the server when
    /// it reconstructs a dropped device's mask key from Shamir shares).
    pub fn from_secret(secret: u64) -> Self {
        let secret = field::reduce(secret).max(1);
        KeyPair {
            secret,
            public: field::pow(GENERATOR, secret),
        }
    }

    /// The secret exponent. Exposed so it can be Shamir-shared; handle with
    /// care.
    pub fn secret(&self) -> u64 {
        self.secret
    }

    /// Computes the shared secret with a peer's public key.
    pub fn agree(&self, peer_public: u64) -> u64 {
        field::pow(peer_public, self.secret)
    }
}

/// Streams the mask PRG through `op` into `acc`: coordinate `i` becomes
/// `op(acc[i], PRG(seed)[i])`, where `PRG(seed)[i]` is the `i`-th uniform
/// field element drawn from `rng::seeded(seed)` and `op` is [`field::add`]
/// or [`field::sub`], named at the call so each is its own inlined loop.
/// One pass; the mask is never materialised, so applying one costs no
/// allocation.
///
/// `acc` must hold field elements (`< PRIME`).
pub fn apply_mask(acc: &mut [u64], seed: u64, op: impl Fn(u64, u64) -> u64) {
    let mut r = rng::seeded(seed);
    for x in acc {
        *x = op(*x, r.random_range(0..field::PRIME));
    }
}

/// Expands a seed into a keystream of bytes (the share "encryption").
pub fn keystream(seed: u64, len: usize) -> Vec<u8> {
    let mut r = rng::seeded(seed);
    (0..len).map(|_| r.random::<u8>()).collect()
}

/// XORs `data` with the keystream derived from `seed` (symmetric: applying
/// twice restores the plaintext).
pub fn xor_cipher(seed: u64, data: &[u8]) -> Vec<u8> {
    data.iter()
        .zip(keystream(seed, data.len()))
        .map(|(&d, k)| d ^ k)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_ml::rng::seeded;
    use proptest::prelude::*;

    #[test]
    fn dh_agreement_is_symmetric() {
        let mut rng = seeded(1);
        let a = KeyPair::generate(&mut rng);
        let b = KeyPair::generate(&mut rng);
        assert_eq!(a.agree(b.public), b.agree(a.public));
    }

    #[test]
    fn different_pairs_produce_different_secrets() {
        let mut rng = seeded(2);
        let a = KeyPair::generate(&mut rng);
        let b = KeyPair::generate(&mut rng);
        let c = KeyPair::generate(&mut rng);
        assert_ne!(a.agree(b.public), a.agree(c.public));
    }

    #[test]
    fn from_secret_reproduces_public_key() {
        let mut rng = seeded(3);
        let a = KeyPair::generate(&mut rng);
        let rebuilt = KeyPair::from_secret(a.secret());
        assert_eq!(rebuilt.public, a.public);
        let b = KeyPair::generate(&mut rng);
        assert_eq!(rebuilt.agree(b.public), a.agree(b.public));
    }

    /// The specification `apply_mask` streams: `PRG(seed)` as a vector.
    fn expand_mask(seed: u64, dim: usize) -> Vec<u64> {
        let mut r = seeded(seed);
        (0..dim).map(|_| r.random_range(0..field::PRIME)).collect()
    }

    #[test]
    fn mask_stream_is_deterministic_and_in_field() {
        let stream = |seed| {
            let mut acc = vec![0u64; 100];
            apply_mask(&mut acc, seed, field::add);
            acc
        };
        let m1 = stream(42);
        assert_eq!(m1, stream(42));
        assert_eq!(m1, expand_mask(42, 100));
        assert!(m1.iter().all(|&v| v < field::PRIME));
        assert_ne!(m1, stream(43));
    }

    proptest! {
        /// Streaming a mask equals expanding it into a vector and adding
        /// or subtracting that, whatever the accumulator holds.
        #[test]
        fn apply_mask_equals_expand_then_vector_op(
            seed in any::<u64>(),
            dim in (0usize..5).prop_map(|i| [0, 1, 2, 7, 4113][i]),
            acc_seed in any::<u64>(),
            fill in 0usize..3,
        ) {
            // One value everywhere (all `P-1` wraps every add, all `0`
            // borrows on every subtract) or a random field vector.
            let acc: Vec<u64> = match fill {
                0 => vec![0; dim],
                1 => vec![field::PRIME - 1; dim],
                _ => expand_mask(acc_seed, dim),
            };
            let mask = expand_mask(seed, dim);

            let mut streamed = acc.clone();
            apply_mask(&mut streamed, seed, field::add);
            let mut reference = acc.clone();
            field::add_assign_vec(&mut reference, &mask);
            prop_assert_eq!(&streamed, &reference);

            let mut streamed = acc.clone();
            apply_mask(&mut streamed, seed, field::sub);
            let mut reference = acc;
            field::sub_assign_vec(&mut reference, &mask);
            prop_assert_eq!(&streamed, &reference);
            prop_assert!(streamed.iter().all(|&v| v < field::PRIME));
        }
    }

    #[test]
    fn xor_cipher_round_trips() {
        let plaintext = b"share payload \x00\xff\x01";
        let ct = xor_cipher(77, plaintext);
        assert_ne!(&ct, plaintext);
        assert_eq!(xor_cipher(77, &ct), plaintext);
    }

    #[test]
    fn xor_cipher_with_wrong_key_garbles() {
        let plaintext = b"hello";
        let ct = xor_cipher(77, plaintext);
        assert_ne!(xor_cipher(78, &ct), plaintext);
    }
}
