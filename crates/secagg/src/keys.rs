//! Key agreement and the mask/share PRG.
//!
//! Devices advertise two Diffie–Hellman key pairs (Bonawitz et al. 2017):
//! the `c` pair encrypts Shamir shares in transit; the `s` pair derives the
//! pairwise mask seeds. The group here is `Z_p^*` with the 61-bit protocol
//! prime — structurally faithful, cryptographically simulation-grade (see
//! the crate docs for the security caveat).
//!
//! # The mask PRG
//!
//! `PRG(seed)[i]` is the `i`-th `random_range(0..PRIME)` draw of
//! xoshiro256++ seeded through SplitMix64, which is what
//! `fl_ml::rng::seeded(seed)` draws. [`apply_masks`] writes that generator
//! out itself rather than stepping `rng::seeded`: it steps many streams in
//! lockstep, and the vendored `StdRng` keeps its state private (and is a
//! stand-in that may change; the tests pin the two equal).
//!
//! *Lane layout.* The streams of one call run in groups of `L`, one
//! stream per lane, each generator's four state words stored as four
//! `[u64; L]` arrays, so one step is a few lane-wise adds, shifts,
//! rotates and XORs. The vector is walked once, in blocks of 64
//! coordinates; every group runs over the block and adds its signed draws
//! into one lazy sum per (coordinate, lane), which is reduced mod p once
//! per block.
//!
//! *Overflow bound.* A signed draw is at most `p` (a subtracted stream
//! adds `p − m`), so a lane sums at most eight groups (`8p < 2^64`) before
//! it is folded. Each lane is folded below `p` before the lanes are
//! added: `8(p − 1) < 2^64`, where eight lanes folded only to `p + 7`
//! could pass `2^64`.
//!
//! *Dispatch.* Where `is_x86_feature_detected!("avx512f")` holds, the
//! kernel runs with `L = 8`, compiled for AVX-512F: one register per state
//! word, with the unsigned compare and the 64-bit rotate the draw needs.
//! Everywhere else it runs the portable instantiation
//! ([`apply_masks_portable`]). The draw is bit-identical either way; only
//! its cost differs (`bench_secagg`'s kernel row).

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
    // fl-lint: allow(test-only-pub): the one-pair reference agree_all is checked against
    pub fn agree(&self, peer_public: u64) -> u64 {
        field::pow(peer_public, self.secret)
    }

    /// Replaces every peer public key in `keys` with the secret agreed
    /// with that peer: the values of one [`KeyPair::agree`] per key, at
    /// the cost of [`field::pow_batch`], whose chains run eight keys at
    /// once.
    pub fn agree_all(&self, keys: &mut [u64]) {
        field::pow_batch(keys, self.secret);
    }
}

/// One term of a mask: `PRG(seed)`, added to the vector it masks or
/// subtracted from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaskStream {
    seed: u64,
    /// `PRIME` to subtract the stream, `0` to add it: a draw `m < p` is
    /// subtracted by adding `p − m`, which is `p ^ m` since `p` is all
    /// ones below bit 61.
    flip: u64,
}

impl MaskStream {
    /// `+PRG(seed)`.
    pub fn add(seed: u64) -> Self {
        MaskStream { seed, flip: 0 }
    }

    /// `−PRG(seed)`.
    pub fn sub(seed: u64) -> Self {
        MaskStream {
            seed,
            flip: field::PRIME,
        }
    }
}

/// Applies every stream to `acc` in one pass: coordinate `i` gains
/// `Σ ±PRG(seed)[i]` over `streams` (mod p). No mask is materialised, and
/// the result is the same as applying the streams one at a time in any
/// order.
///
/// Runs eight streams to an AVX-512 register where the CPU has AVX-512F,
/// and the portable instantiation everywhere else (module docs).
///
/// `acc` must hold field elements (`< PRIME`).
pub fn apply_masks(acc: &mut [u64], streams: &[MaskStream]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        // SAFETY: the only requirement of a `#[target_feature]` function
        // is that the CPU has the feature, and the check above found
        // AVX-512F.
        unsafe { apply_masks_avx512f(acc, streams) };
        return;
    }
    apply_masks_portable(acc, streams);
}

/// [`apply_masks`] without the AVX-512 dispatch: the path every CPU can
/// take. Public so tests and `bench_secagg` can price the dispatched
/// path against it.
pub fn apply_masks_portable(acc: &mut [u64], streams: &[MaskStream]) {
    apply_lanes::<PORTABLE_LANES>(acc, streams);
}

/// Lanes of the portable instantiation. Without AVX-512 there is no
/// unsigned 64-bit compare or rotate to vectorise the draw with, and
/// `bench_secagg`'s kernel row reads two lanes no slower than one; four
/// are slower.
const PORTABLE_LANES: usize = 2;

/// [`apply_masks`] on eight lanes, built for AVX-512F.
///
/// # Safety
///
/// The CPU must have AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn apply_masks_avx512f(acc: &mut [u64], streams: &[MaskStream]) {
    apply_lanes::<8>(acc, streams);
}

/// Coordinates per block: one block's lazy sums, `BLOCK · L` words, stay
/// in L1 while every group of streams runs over it.
const BLOCK: usize = 64;

/// Groups of streams a lane sums before it is folded. A lane value is at
/// most `p` (a subtracted zero draw), and `8p = 2^64 − 8` fits a word.
const GROUPS_PER_FOLD: usize = 8;

/// The kernel: streams in groups of `L`, one per lane, over the vector in
/// blocks of [`BLOCK`] coordinates. Each group's generators step once per
/// coordinate of the block, writing that coordinate's `L` lane values to
/// their own array before adding them to the block's lazy sums: written
/// straight into the sums, the loop vectorised poorly.
///
/// A short last group runs with dead lanes rather than on a narrower
/// path: at the `finalize` shape (30 streams) that read 0.5 ns a draw,
/// against 0.9 ns for 24 streams on eight lanes and 6 on the portable
/// path. Always inlined, so the eight-lane instantiation is compiled for
/// its AVX-512F caller.
#[inline(always)]
fn apply_lanes<const L: usize>(acc: &mut [u64], streams: &[MaskStream]) {
    let mut groups: Vec<Lanes<L>> = streams.chunks(L).map(Lanes::seed).collect();
    let mut sums = [[0u64; L]; BLOCK];
    for block in acc.chunks_mut(BLOCK) {
        for batch in groups.chunks_mut(GROUPS_PER_FOLD) {
            let sums = &mut sums[..block.len()];
            sums.fill([0; L]);
            for group in batch {
                let mut lanes = *group;
                for sum in sums.iter_mut() {
                    let values = lanes.next_values();
                    for (s, v) in sum.iter_mut().zip(values) {
                        *s += v;
                    }
                }
                *group = lanes;
            }
            for (x, sum) in block.iter_mut().zip(sums.iter()) {
                *x = field::add(*x, reduce_lanes(sum));
            }
        }
    }
}

/// `L` xoshiro256++ generators, one per lane, stored by state word so a
/// step is a handful of lane-wise operations.
#[derive(Clone, Copy)]
struct Lanes<const L: usize> {
    s: [[u64; L]; 4],
    /// Per lane: [`MaskStream::flip`].
    flip: [u64; L],
}

impl<const L: usize> Lanes<L> {
    /// Seeds one lane per stream (at most `L` of them), through
    /// SplitMix64 as `rng::seeded` does. A lane left without a stream is
    /// dead: its all-zero state is a fixed point of xoshiro256++ that
    /// outputs 0, so with `flip` 0 it adds 0. No stream's state is all
    /// zero, since SplitMix64 maps its four distinct inputs bijectively.
    fn seed(streams: &[MaskStream]) -> Self {
        let mut lanes = Lanes {
            s: [[0; L]; 4],
            flip: [0; L],
        };
        for (l, stream) in streams.iter().enumerate() {
            let mut x = stream.seed;
            for word in &mut lanes.s {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                word[l] = z ^ (z >> 31);
            }
            lanes.flip[l] = stream.flip;
        }
        lanes
    }

    /// Steps every lane once and returns its raw 64-bit output.
    #[inline(always)]
    fn next_raw(&mut self) -> [u64; L] {
        let [s0, s1, s2, s3] = &mut self.s;
        let mut out = [0u64; L];
        for l in 0..L {
            out[l] = s0[l]
                .wrapping_add(s3[l])
                .rotate_left(23)
                .wrapping_add(s0[l]);
            let t = s1[l] << 17;
            s2[l] ^= s0[l];
            s3[l] ^= s1[l];
            s1[l] ^= s2[l];
            s0[l] ^= s3[l];
            s2[l] ^= t;
            s3[l] = s3[l].rotate_left(45);
        }
        out
    }

    /// Steps every lane once and returns its signed draw as a value in
    /// `[0, p]`.
    #[inline(always)]
    fn next_values(&mut self) -> [u64; L] {
        let mut values = self.next_raw();
        for (v, flip) in values.iter_mut().zip(self.flip) {
            *v = draw(*v) ^ flip;
        }
        values
    }
}

/// `random_range(0..PRIME)` of a raw output `r`: `(r · p) >> 64`. With
/// `p = 2^61 − 1`, `r · p = (r >> 3) · 2^64 + (r << 61) − r`, so the high
/// word is `r >> 3`, less one when the low word borrows. No 128-bit
/// multiply; `r >> 3` is zero only for `r < 8`, which never borrows.
#[inline(always)]
fn draw(r: u64) -> u64 {
    (r >> 3) - u64::from((r << 61) < r)
}

/// Any word mod p: `2^61 ≡ 1`, so `s ≡ (s & p) + (s >> 61)`, which is at
/// most `p + 7`, and one conditional subtract lands it below `p`. This is
/// [`field::reduce`] with a compare for its last step: in the eight-lane
/// build the compare becomes an unsigned minimum, two instructions where
/// the branch-free step takes four, and the kernel reads faster for it.
#[inline(always)]
fn fold(s: u64) -> u64 {
    let t = (s & field::PRIME) + (s >> 61);
    if t >= field::PRIME {
        t - field::PRIME
    } else {
        t
    }
}

/// The field element of one coordinate's lazy lane sums. Each lane is
/// folded below `p` before the lanes are added: unfolded, eight lanes can
/// sum past `2^64`; folded, they sum to at most `8(p − 1) < 2^64`.
#[inline(always)]
fn reduce_lanes<const L: usize>(sum: &[u64; L]) -> u64 {
    const { assert!(L <= 8, "L lanes below p must sum below 2^64") };
    fold(sum.iter().map(|&s| fold(s)).sum())
}

/// Expands a seed into a keystream of bytes (the share "encryption"):
/// byte `i` is the `i`-th `random::<u8>()` of `rng::seeded(seed)`.
// fl-lint: allow(test-only-pub): tests/alloc_budget.rs and the golden mask pins
pub fn keystream(seed: u64, len: usize) -> Vec<u8> {
    let mut stream = vec![0; len];
    apply_keystream(seed, &mut stream);
    stream
}

/// XORs `data` in place with the keystream derived from `seed`
/// (symmetric: applying it twice restores the plaintext).
pub fn apply_keystream(seed: u64, data: &mut [u8]) {
    let mut r = rng::seeded(seed);
    for byte in data {
        *byte ^= r.random::<u8>();
    }
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

    #[test]
    fn batched_agreement_matches_one_agreement_per_key() {
        let mut rng = seeded(4);
        let own = KeyPair::generate(&mut rng);
        // Past one chunk of eight and into a short last one.
        for n in [0usize, 1, 7, 8, 9, 17] {
            let publics: Vec<u64> = (0..n).map(|_| KeyPair::generate(&mut rng).public).collect();
            let mut agreed = publics.clone();
            let before = field::exponentiations();
            own.agree_all(&mut agreed);
            assert_eq!(field::exponentiations() - before, n as u64);
            let one_by_one: Vec<u64> = publics.iter().map(|&p| own.agree(p)).collect();
            assert_eq!(agreed, one_by_one, "{n} keys");
        }
    }

    /// The specification `apply_masks` streams: `PRG(seed)` as a vector.
    fn expand_mask(seed: u64, dim: usize) -> Vec<u64> {
        let mut r = seeded(seed);
        (0..dim).map(|_| r.random_range(0..field::PRIME)).collect()
    }

    /// `acc` with every stream applied one at a time from its expansion.
    fn apply_one_by_one(mut acc: Vec<u64>, streams: &[MaskStream]) -> Vec<u64> {
        for stream in streams {
            let mask = expand_mask(stream.seed, acc.len());
            if stream.flip == 0 {
                field::add_assign_vec(&mut acc, &mask);
            } else {
                field::sub_assign_vec(&mut acc, &mask);
            }
        }
        acc
    }

    #[test]
    fn lanes_step_as_rng_seeded_does() {
        let seeds = [0, 1, 42, u64::MAX, 0x9E37_79B9_7F4A_7C15, 7, 8, 1 << 63];
        let streams: Vec<MaskStream> = seeds.iter().map(|&s| MaskStream::add(s)).collect();
        let mut lanes = Lanes::<8>::seed(&streams);
        let mut rngs: Vec<_> = seeds.iter().map(|&s| seeded(s)).collect();
        for _ in 0..1000 {
            let raw = lanes.next_raw();
            for (r, rng) in raw.iter().zip(&mut rngs) {
                assert_eq!(*r, rng.next_u64());
            }
        }
    }

    #[test]
    fn draw_is_the_widening_multiply() {
        for r in [0, 1, 7, 8, (1 << 61) - 1, 1 << 61, u64::MAX] {
            let reference = ((u128::from(r) * u128::from(field::PRIME)) >> 64) as u64;
            assert_eq!(draw(r), reference, "r = {r}");
        }
    }

    #[test]
    fn lanes_at_their_lazy_maximum_reduce_exactly() {
        // Eight lanes at `8p` (eight subtracted zero draws), and at the
        // largest word any lane could hold.
        for lane in [GROUPS_PER_FOLD as u64 * field::PRIME, u64::MAX] {
            let sum = [lane; 8];
            let reference = (u128::from(lane) * 8 % u128::from(field::PRIME)) as u64;
            assert_eq!(reduce_lanes(&sum), reference);
        }
        assert_eq!(reduce_lanes(&[field::PRIME; 8]), 0);
    }

    #[test]
    fn mask_stream_is_deterministic_and_in_field() {
        let stream = |seed| {
            let mut acc = vec![0u64; 100];
            apply_masks(&mut acc, &[MaskStream::add(seed)]);
            acc
        };
        let m1 = stream(42);
        assert_eq!(m1, stream(42));
        assert_eq!(m1, expand_mask(42, 100));
        assert!(m1.iter().all(|&v| v < field::PRIME));
        assert_ne!(m1, stream(43));
    }

    #[test]
    fn many_batches_of_full_and_short_groups_match_one_by_one() {
        // Past several folds of eight-lane groups, with a short last group.
        let streams: Vec<MaskStream> = (0..8 * GROUPS_PER_FOLD as u64 * 2 + 5)
            .map(|s| [MaskStream::add(s), MaskStream::sub(s + 1000)][s as usize % 2])
            .collect();
        let acc = vec![field::PRIME - 1; 65];
        let reference = apply_one_by_one(acc.clone(), &streams);
        for kernel in [apply_masks, apply_masks_portable] {
            let mut applied = acc.clone();
            kernel(&mut applied, &streams);
            assert_eq!(applied, reference);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Applying the streams together equals applying each one's
        /// expansion in turn, whatever the accumulator holds, on the
        /// dispatched and on the portable path.
        #[test]
        fn apply_masks_equals_one_stream_at_a_time(
            seeds in proptest::collection::vec(any::<u64>(), 0..=25),
            signs in 0usize..3,
            sign_seed in any::<u64>(),
            dim in (0usize..6).prop_map(|i| [0, 1, 63, 64, 65, 4113][i]),
            acc_seed in any::<u64>(),
            fill in 0usize..3,
        ) {
            let streams: Vec<MaskStream> = seeds
                .iter()
                .enumerate()
                .map(|(i, &seed)| {
                    let subtract = match signs {
                        0 => false,
                        1 => true,
                        _ => (sign_seed >> (i % 64)) & 1 == 1,
                    };
                    if subtract { MaskStream::sub(seed) } else { MaskStream::add(seed) }
                })
                .collect();
            // One value everywhere (all `P-1` wraps every add, all `0`
            // borrows on every subtract) or a random field vector.
            let acc: Vec<u64> = match fill {
                0 => vec![0; dim],
                1 => vec![field::PRIME - 1; dim],
                _ => expand_mask(acc_seed, dim),
            };
            let reference = apply_one_by_one(acc.clone(), &streams);
            for kernel in [apply_masks, apply_masks_portable] {
                let mut applied = acc.clone();
                kernel(&mut applied, &streams);
                prop_assert_eq!(&applied, &reference);
            }
        }
    }

    #[test]
    fn keystream_round_trips() {
        let plaintext = *b"share payload \x00\xff\x01";
        let mut text = plaintext;
        apply_keystream(77, &mut text);
        assert_ne!(text, plaintext);
        let stream = keystream(77, plaintext.len());
        assert!(text
            .iter()
            .zip(plaintext)
            .zip(stream)
            .all(|((c, p), k)| *c == p ^ k));
        apply_keystream(77, &mut text);
        assert_eq!(text, plaintext);
    }

    #[test]
    fn keystream_with_wrong_key_garbles() {
        let mut text = *b"hello";
        apply_keystream(77, &mut text);
        apply_keystream(78, &mut text);
        assert_ne!(&text, b"hello");
    }
}
