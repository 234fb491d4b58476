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
//! Masks live in the ring `Z_{2^32}`, not in the field: the vectors only
//! need a modulus that holds their sum (Bonawitz et al. 2017 mask in any
//! `Z_R`), and the field is kept for the Shamir shares and the keys.
//! `PRG(seed)` is the little-endian `u32` halves of successive
//! xoshiro256++ outputs, seeded through SplitMix64 as
//! `fl_ml::rng::seeded(seed)` is, low half first: element `2i` is the low
//! half of the `i`-th `next_u64`, element `2i + 1` its high half, and an
//! odd-length mask ends on a low half. [`apply_masks`] writes that
//! generator out itself rather than stepping `rng::seeded`: it steps many
//! streams in lockstep, and the vendored `StdRng` keeps its state private
//! (and is a stand-in that may change; the tests pin the two equal).
//!
//! *Lane layout.* The streams of one call run in groups of `L`, one
//! stream per lane, each generator's four state words stored as four
//! `[u64; L]` arrays, so one step is a few lane-wise adds, shifts,
//! rotates and XORs, and yields two draws a lane. The vector is walked
//! once, in blocks of 64 coordinates; every group runs over the block and
//! adds its draws into one wrapping `u32` sum per (coordinate, lane), and
//! the lanes are added once per block, `L` coordinates at a time
//! ([`row_sums`]). Nothing is reduced: every sum wraps mod `2^32`, which
//! is the ring's own addition. A subtracted draw `m` is added as its
//! complement `!m`, since `−m = !m + 1`; the `+1` of every subtracted
//! stream is added once per coordinate, as one count.
//!
//! *Dispatch.* Where `is_x86_feature_detected!("avx512f")` holds, the
//! kernel runs with `L = 8`, compiled for AVX-512F: one register per
//! state word, with the 64-bit rotate the step needs. Everywhere else it
//! runs the portable instantiation ([`apply_masks_portable`]). The draw
//! is bit-identical either way; only its cost differs (`bench_secagg`'s
//! kernel row, which read sixteen lanes, two registers a word, slower
//! than eight).

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
        KeyPair::from_secret(1 + rng.random_range(0..field::PRIME - 2))
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
    /// `u32::MAX` to subtract the stream, `0` to add it: a subtracted
    /// draw `m` is added as `m ^ neg = !m`, and `!m + 1 = −m` in the ring
    /// (the kernel adds the ones as a count).
    neg: u32,
}

impl MaskStream {
    /// `+PRG(seed)`.
    pub fn add(seed: u64) -> Self {
        MaskStream { seed, neg: 0 }
    }

    /// `−PRG(seed)`.
    pub fn sub(seed: u64) -> Self {
        MaskStream { neg: !0, seed }
    }
}

/// Applies every stream to `acc` in one pass: coordinate `i` gains
/// `Σ ±PRG(seed)[i]` over `streams` (mod 2^32). No mask is materialised,
/// and the result is the same as applying the streams one at a time in
/// any order.
///
/// Runs eight streams to an AVX-512 register where the CPU has AVX-512F,
/// and the portable instantiation everywhere else (module docs).
pub fn apply_masks(acc: &mut [u32], streams: &[MaskStream]) {
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
pub fn apply_masks_portable(acc: &mut [u32], streams: &[MaskStream]) {
    apply_lanes::<PORTABLE_LANES>(acc, streams);
}

/// Lanes of the portable instantiation. Without AVX-512 there is no
/// 64-bit rotate to vectorise the generator with, and `bench_secagg`'s
/// kernel row reads four or eight lanes no faster than two.
const PORTABLE_LANES: usize = 2;

/// [`apply_masks`] on eight lanes, built for AVX-512F.
///
/// # Safety
///
/// The CPU must have AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn apply_masks_avx512f(acc: &mut [u32], streams: &[MaskStream]) {
    apply_lanes::<8>(acc, streams);
}

/// Coordinates per block: one block's lane sums, `BLOCK · L` words, stay
/// in L1 while every group of streams runs over it. Even, so every block
/// but the last starts on a generator step.
const BLOCK: usize = 64;

/// The kernel: streams in groups of `L`, one per lane, over the vector in
/// blocks of [`BLOCK`] coordinates. Each group's generators step once per
/// two coordinates of the block, writing that pair's `2L` lane values
/// (the low halves, then the high halves) to their own array before
/// adding them to the block's lane sums: written straight into the sums,
/// the loop vectorised poorly. The sums wrap, so nothing is folded or
/// reduced.
///
/// A short last group runs with dead lanes rather than on a narrower
/// path. Always inlined, so the eight-lane instantiation is compiled for
/// its AVX-512F caller.
#[inline(always)]
fn apply_lanes<const L: usize>(acc: &mut [u32], streams: &[MaskStream]) {
    let mut groups: Vec<Lanes<L>> = streams.chunks(L).map(Lanes::seed).collect();
    let subtracted = streams.iter().filter(|s| s.neg != 0).count() as u32;
    // Per step: the lanes' sums for its even coordinate, then its odd one.
    let mut sums = [[[0u32; L]; 2]; BLOCK / 2];
    for block in acc.chunks_mut(BLOCK) {
        let sums = &mut sums[..block.len().div_ceil(2)];
        sums.fill([[0; L]; 2]);
        for group in &mut groups {
            let mut lanes = *group;
            for sum in sums.iter_mut() {
                let values = lanes.next_values();
                for (s, v) in sum.as_flattened_mut().iter_mut().zip(values.as_flattened()) {
                    *s = s.wrapping_add(*v);
                }
            }
            *group = lanes;
        }
        // One row of lane sums a coordinate, in coordinate order.
        let (rows, full) = (sums.as_flattened(), block.len() / L * L);
        let mut coordinates = block.chunks_exact_mut(L);
        for (chunk, rows) in (&mut coordinates).zip(rows.chunks_exact(L)) {
            let mut square = [[0u32; L]; L];
            square.copy_from_slice(rows);
            for (x, total) in chunk.iter_mut().zip(row_sums(square)) {
                *x = x.wrapping_add(total).wrapping_add(subtracted);
            }
        }
        let rest = coordinates.into_remainder();
        for (x, lanes) in rest.iter_mut().zip(&rows[full..]) {
            *x = lanes
                .iter()
                .fold(x.wrapping_add(subtracted), |x, &v| x.wrapping_add(v));
        }
    }
}

/// The sum of each row of `rows` (`L` coordinates, `L` lane values
/// each), in row order. Each level adds the halves of two rows into one
/// row, so `L` rows of `L` lanes take `log2 L` levels of whole-row adds
/// and shuffles rather than one horizontal add per coordinate; with
/// eight lanes, the kernel read 10-15 % faster for it.
#[inline(always)]
fn row_sums<const L: usize>(mut rows: [[u32; L]; L]) -> [u32; L] {
    for level in 0..L.trailing_zeros() {
        // Each row holds `L / width` coordinates of `width` lanes.
        let width = L >> level;
        let half = width / 2;
        for j in 0..(L >> level) / 2 {
            let (a, b) = (rows[2 * j], rows[2 * j + 1]);
            let row = &mut rows[j];
            for s in 0..L / width {
                for i in 0..half {
                    row[s * half + i] = a[s * width + i].wrapping_add(a[s * width + half + i]);
                    row[L / 2 + s * half + i] =
                        b[s * width + i].wrapping_add(b[s * width + half + i]);
                }
            }
        }
    }
    rows[0]
}

/// `L` xoshiro256++ generators, one per lane, stored by state word so a
/// step is a handful of lane-wise operations.
#[derive(Clone, Copy)]
struct Lanes<const L: usize> {
    s: [[u64; L]; 4],
    /// Per lane: [`MaskStream::neg`].
    neg: [u32; L],
}

impl<const L: usize> Lanes<L> {
    /// Seeds one lane per stream (at most `L` of them), through
    /// SplitMix64 as `rng::seeded` does. A lane left without a stream is
    /// dead: its all-zero state is a fixed point of xoshiro256++ that
    /// outputs 0, so with `neg` 0 it adds 0. No stream's state is all
    /// zero, since SplitMix64 maps its four distinct inputs bijectively.
    fn seed(streams: &[MaskStream]) -> Self {
        let mut lanes = Lanes {
            s: [[0; L]; 4],
            neg: [0; L],
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
            lanes.neg[l] = stream.neg;
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

    /// Steps every lane once and returns its two draws, the low halves
    /// of the lanes' outputs and then their high halves, each
    /// complemented for a subtracted stream.
    #[inline(always)]
    fn next_values(&mut self) -> [[u32; L]; 2] {
        let raw = self.next_raw();
        let mut values = [[0u32; L]; 2];
        for l in 0..L {
            values[0][l] = raw[l] as u32 ^ self.neg[l];
            values[1][l] = (raw[l] >> 32) as u32 ^ self.neg[l];
        }
        values
    }
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

    /// The specification `apply_masks` streams: `PRG(seed)` as a vector,
    /// the halves of each `next_u64`, low first.
    fn expand_mask(seed: u64, dim: usize) -> Vec<u32> {
        let mut r = seeded(seed);
        let mut mask = Vec::with_capacity(dim + 1);
        while mask.len() < dim {
            let word = r.next_u64();
            mask.extend([word as u32, (word >> 32) as u32]);
        }
        mask.truncate(dim);
        mask
    }

    /// `acc` with every stream applied one at a time from its expansion.
    fn apply_one_by_one(mut acc: Vec<u32>, streams: &[MaskStream]) -> Vec<u32> {
        for stream in streams {
            let mask = expand_mask(stream.seed, acc.len());
            for (x, m) in acc.iter_mut().zip(mask) {
                *x = if stream.neg == 0 {
                    x.wrapping_add(m)
                } else {
                    x.wrapping_sub(m)
                };
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
    fn a_subtracted_draw_plus_one_is_its_ring_negation() {
        for seed in [0, 42] {
            let mut lanes = Lanes::<2>::seed(&[MaskStream::add(seed), MaskStream::sub(seed)]);
            for _ in 0..100 {
                let [[lo, neg_lo], [hi, neg_hi]] = lanes.next_values();
                let negated = [neg_lo.wrapping_add(1), neg_hi.wrapping_add(1)];
                assert_eq!(negated, [lo.wrapping_neg(), hi.wrapping_neg()]);
            }
        }
    }

    #[test]
    fn mask_stream_is_deterministic_and_the_spec_stream() {
        let stream = |seed| {
            let mut acc = vec![0u32; 101];
            apply_masks(&mut acc, &[MaskStream::add(seed)]);
            acc
        };
        let m1 = stream(42);
        assert_eq!(m1, stream(42));
        assert_eq!(m1, expand_mask(42, 101));
        assert_ne!(m1, stream(43));
    }

    #[test]
    fn many_full_and_short_groups_match_one_by_one() {
        // Several eight-lane groups and a short last one.
        let streams: Vec<MaskStream> = (0..8 * 4 + 5)
            .map(|s| [MaskStream::add(s), MaskStream::sub(s + 1000)][s as usize % 2])
            .collect();
        let acc = vec![u32::MAX; 65];
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
        /// dispatched and on the portable path. Odd dimensions end on the
        /// low half of a generator step.
        #[test]
        fn apply_masks_equals_one_stream_at_a_time(
            seeds in proptest::collection::vec(any::<u64>(), 0..=40),
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
            // One value everywhere (all `u32::MAX` wraps every add, all
            // `0` borrows on every subtract) or a random ring vector.
            let acc: Vec<u32> = match fill {
                0 => vec![0; dim],
                1 => vec![u32::MAX; dim],
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
