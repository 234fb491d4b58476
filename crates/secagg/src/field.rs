//! Arithmetic in the prime field `Z_p`, `p = 2⁶¹ − 1` (a Mersenne prime).
//!
//! The Shamir shares, the Diffie–Hellman keys and the seeds they carry
//! live in this field. The masked vectors do not: they are masked and
//! summed in the ring `Z_{2^32}` ([`crate::masking`]), which is all the
//! sum needs.
//!
//! `reduce`, `add` and `sub` are branch-free: `2⁶¹ ≡ 1 (mod p)`,
//! so every reduction is adds, shifts and masks.

use std::cell::Cell;

/// The field prime `2⁶¹ − 1`.
pub const PRIME: u64 = (1u64 << 61) - 1;

/// Reduces an arbitrary `u64` into the field: `x % PRIME`, without a
/// division or a branch. `x ≡ (x & p) + (x >> 61)`, which is at most
/// `p + 7`, and `fold` lands it.
#[inline]
pub fn reduce(x: u64) -> u64 {
    fold((x & PRIME) + (x >> 61))
}

/// Lands `s < 2p` in the field without a branch: `s + 1` reaches bit 61
/// exactly when `s ≥ p`, and then `(s + 1) & p` is `s − p`.
#[inline(always)]
fn fold(s: u64) -> u64 {
    debug_assert!(s < 2 * PRIME);
    (s + ((s + 1) >> 61)) & PRIME
}

/// Field addition.
#[inline]
pub fn add(a: u64, b: u64) -> u64 {
    debug_assert!(a < PRIME && b < PRIME);
    fold(a + b) // both < 2^61, so the sum is under 2p
}

/// Field subtraction.
#[inline]
pub fn sub(a: u64, b: u64) -> u64 {
    debug_assert!(a < PRIME && b < PRIME);
    fold(a + PRIME - b) // in [1, 2p − 1]
}

/// Field multiplication. `2⁶¹ ≡ 1 (mod p)`, so the 122-bit product
/// `x` is congruent to `(x mod 2⁶¹) + (x >> 61)`: the low part is at most
/// `p`, the high part at most `p − 3`, their sum under `2p`, and no
/// 128-bit division is needed.
#[inline]
pub fn mul(a: u64, b: u64) -> u64 {
    debug_assert!(a < PRIME && b < PRIME);
    let x = u128::from(a) * u128::from(b);
    fold((x as u64 & PRIME) + (x >> 61) as u64)
}

thread_local! {
    static EXPONENTIATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Exponentiations this thread has run: one per [`pow`] or [`inv`] call
/// and one per base of a [`pow_batch`]. A SecAgg instance's cost in
/// key agreements and inverses is read off the difference across it
/// (DESIGN.md Sec. 9 gives the formula).
pub fn exponentiations() -> u64 {
    EXPONENTIATIONS.with(Cell::get)
}

fn count_exponentiations(n: usize) {
    EXPONENTIATIONS.with(|c| c.set(c.get() + n as u64));
}

/// Field exponentiation by squaring.
pub fn pow(base: u64, exp: u64) -> u64 {
    count_exponentiations(1);
    let [acc] = pow_chains([reduce(base)], exp);
    acc
}

/// Chains interleaved by [`pow_batch`]: eight independent multiplies in
/// flight hide one multiply's latency.
const CHAINS: usize = 8;

/// Raises every element of `bases` to `exp` in place: the values of one
/// [`pow`] per base, with `CHAINS` chains of one exponent stepped
/// together. The chains share every squaring-or-multiply decision, so
/// they run in lockstep with no dependency between them.
pub fn pow_batch(bases: &mut [u64], exp: u64) {
    count_exponentiations(bases.len());
    for bases in bases.chunks_mut(CHAINS) {
        // A chain without a base raises 0 and is dropped.
        let mut chain = [0u64; CHAINS];
        for (c, &b) in chain.iter_mut().zip(bases.iter()) {
            *c = reduce(b);
        }
        bases.copy_from_slice(&pow_chains(chain, exp)[..bases.len()]);
    }
}

/// Square-and-multiply over `N` bases in the field at once.
#[inline(always)]
fn pow_chains<const N: usize>(mut base: [u64; N], mut exp: u64) -> [u64; N] {
    let mut acc = [1u64; N];
    while exp > 0 {
        if exp & 1 == 1 {
            for (a, &b) in acc.iter_mut().zip(&base) {
                *a = mul(*a, b);
            }
        }
        for b in &mut base {
            *b = mul(*b, *b);
        }
        exp >>= 1;
    }
    acc
}

/// Multiplicative inverse via Fermat's little theorem (`a^{p−2}`).
///
/// # Panics
///
/// Panics if `a == 0` (zero has no inverse).
pub fn inv(a: u64) -> u64 {
    assert!(reduce(a) != 0, "zero has no multiplicative inverse");
    pow(a, PRIME - 2)
}

/// Replaces every element of `values` with its inverse, with one
/// exponentiation in all (Montgomery's trick): invert the product of
/// all of them, then peel each element's inverse off it.
///
/// # Panics
///
/// Panics if an element is zero.
pub fn inv_all(values: &mut [u64]) {
    let Some(last) = values.len().checked_sub(1) else {
        return;
    };
    // prefix[i] = values[0] · … · values[i]
    let mut prefix = Vec::with_capacity(values.len());
    let mut product = 1;
    for &v in values.iter() {
        product = mul(product, v);
        prefix.push(product);
    }
    // Holds (values[0] · … · values[i])⁻¹ as `i` walks down.
    let mut inverse = inv(product);
    for i in (1..=last).rev() {
        let v = values[i];
        values[i] = mul(inverse, prefix[i - 1]);
        inverse = mul(inverse, v);
    }
    values[0] = inverse;
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The definition `mul` must agree with: reduce the product by `%`.
    fn mul_reference(a: u64, b: u64) -> u64 {
        ((u128::from(a) * u128::from(b)) % u128::from(PRIME)) as u64
    }

    #[test]
    fn prime_is_mersenne_61() {
        assert_eq!(PRIME, 2_305_843_009_213_693_951);
    }

    #[test]
    fn add_wraps_at_prime() {
        assert_eq!(add(PRIME - 1, 1), 0);
        assert_eq!(add(PRIME - 1, 2), 1);
        assert_eq!(add(0, 0), 0);
    }

    #[test]
    fn sub_wraps_below_zero() {
        assert_eq!(sub(0, 1), PRIME - 1);
        assert_eq!(sub(5, 5), 0);
        // Subtracting zero is the identity, not `x + p`.
        for x in [0, 7, PRIME - 1] {
            assert_eq!(sub(x, 0), x);
        }
    }

    #[test]
    fn neg_is_additive_inverse() {
        for a in [0u64, 1, 12345, PRIME - 1] {
            assert_eq!(add(a, sub(0, a)), 0);
        }
    }

    #[test]
    fn mul_matches_u128_reference() {
        let (a, b) = (PRIME - 2, PRIME - 3);
        assert_eq!(mul(a, b), mul_reference(a, b));
    }

    /// The operands where the fold's two halves are extreme: a zero or
    /// all-ones low part, the largest high part, a sum of exactly `p`.
    #[test]
    fn mul_matches_reference_on_edges_squared_and_crossed() {
        let edges = [0, 1, 2, PRIME - 2, PRIME - 1, 1 << 60, (1 << 60) + 1];
        for &a in &edges {
            for &b in &edges {
                assert_eq!(mul(a, b), mul_reference(a, b), "{a} * {b}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn mul_matches_reference_on_random_operands(
            a in 0..PRIME,
            b in 0..PRIME,
            // Products with a short high part or an all-ones low part.
            small in 0u64..1 << 16,
        ) {
            prop_assert_eq!(mul(a, b), mul_reference(a, b));
            prop_assert_eq!(mul(a, small), mul_reference(a, small));
            prop_assert_eq!(mul(PRIME - 1 - small, b), mul_reference(PRIME - 1 - small, b));
        }
    }

    /// The definitions the branch-free forms must agree with.
    fn reduce_reference(x: u64) -> u64 {
        x % PRIME
    }

    fn add_reference(a: u64, b: u64) -> u64 {
        ((u128::from(a) + u128::from(b)) % u128::from(PRIME)) as u64
    }

    fn sub_reference(a: u64, b: u64) -> u64 {
        ((u128::from(a) + u128::from(PRIME) - u128::from(b)) % u128::from(PRIME)) as u64
    }

    /// Where a fold can be off by one `p`: either side of `p` and `2p`,
    /// the largest sum a fold takes, and the largest words.
    const EDGES: [u64; 8] = [
        0,
        PRIME - 1,
        PRIME,
        PRIME + 1,
        2 * PRIME,
        2 * PRIME + 1,
        (1 << 62) - 1,
        u64::MAX,
    ];

    #[test]
    fn branch_free_forms_match_the_reference_at_the_edges() {
        for x in EDGES {
            assert_eq!(reduce(x), reduce_reference(x), "reduce({x})");
        }
        // Every field element the edges reduce to, and the two ends.
        let elements: Vec<u64> = EDGES
            .iter()
            .map(|&x| reduce_reference(x))
            .chain([1, PRIME - 2])
            .collect();
        for &a in &elements {
            for &b in &elements {
                assert_eq!(add(a, b), add_reference(a, b), "{a} + {b}");
                assert_eq!(sub(a, b), sub_reference(a, b), "{a} - {b}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn reduce_matches_modulo_over_all_words(x in any::<u64>(), high in 0u64..8) {
            prop_assert_eq!(reduce(x), reduce_reference(x));
            // Words with each of the eight values of the top three bits.
            let x = (x & PRIME) | high << 61;
            prop_assert_eq!(reduce(x), reduce_reference(x));
        }

        #[test]
        fn add_sub_neg_match_the_reference(a in 0..PRIME, b in 0..PRIME) {
            prop_assert_eq!(add(a, b), add_reference(a, b));
            prop_assert_eq!(sub(a, b), sub_reference(a, b));
            prop_assert_eq!(sub(0, a), sub_reference(0, a));
        }
    }

    #[test]
    fn pow_batch_matches_one_pow_per_base_and_counts_each() {
        for n in [0usize, 1, 7, 8, 9, 17] {
            let bases: Vec<u64> = (0..n as u64).map(|i| i * 0x9E37_79B9 + PRIME - 4).collect();
            let exp = 0x1234_5678_9ABC_DEF1 % PRIME;
            let mut out = bases.clone();
            let before = exponentiations();
            pow_batch(&mut out, exp);
            assert_eq!(exponentiations() - before, n as u64);
            let one_by_one: Vec<u64> = bases.iter().map(|&b| pow(b, exp)).collect();
            assert_eq!(out, one_by_one, "{n} bases");
        }
    }

    #[test]
    fn inv_all_matches_one_inverse_each_with_one_exponentiation() {
        for n in [0usize, 1, 2, 11, 17] {
            let values: Vec<u64> = (1..=n as u64).map(|i| mul(i, PRIME - 3 * i)).collect();
            let mut inverted = values.clone();
            let before = exponentiations();
            inv_all(&mut inverted);
            assert_eq!(exponentiations() - before, u64::from(n > 0));
            let one_by_one: Vec<u64> = values.iter().map(|&v| inv(v)).collect();
            assert_eq!(inverted, one_by_one, "{n} values");
        }
    }

    #[test]
    #[should_panic(expected = "no multiplicative inverse")]
    fn inv_all_with_a_zero_panics() {
        inv_all(&mut [3, 0, 5]);
    }

    #[test]
    fn pow_and_inv_satisfy_fermat() {
        for a in [2u64, 3, 999_999_937, PRIME - 5] {
            assert_eq!(mul(a, inv(a)), 1, "a = {a}");
            assert_eq!(pow(a, PRIME - 1), 1, "a^{{p-1}} for a = {a}");
        }
    }

    #[test]
    #[should_panic(expected = "no multiplicative inverse")]
    fn inv_of_zero_panics() {
        let _ = inv(0);
    }

    #[test]
    fn field_laws_hold_on_samples() {
        // Associativity/commutativity/distributivity spot checks.
        let xs = [3u64, 7, PRIME - 11, 1 << 60, 42];
        for &a in &xs {
            for &b in &xs {
                assert_eq!(add(a, b), add(b, a));
                assert_eq!(mul(a, b), mul(b, a));
                for &c in &xs {
                    assert_eq!(add(add(a, b), c), add(a, add(b, c)));
                    assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
                    assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
                }
            }
        }
    }
}
