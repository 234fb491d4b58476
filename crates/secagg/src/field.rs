//! Arithmetic in the prime field `Z_p`, `p = 2⁶¹ − 1` (a Mersenne prime).
//!
//! All Secure Aggregation values — masked inputs, Shamir shares, PRG mask
//! elements — live in this field. The prime is shared with
//! `fl_ml::fixedpoint` so fixed-point-encoded updates sum correctly under
//! masking.

/// The field prime `2⁶¹ − 1`.
pub const PRIME: u64 = (1u64 << 61) - 1;

/// Reduces an arbitrary `u64` into the field.
pub fn reduce(x: u64) -> u64 {
    x % PRIME
}

/// Lands `s < 2p` in the field with one conditional subtract.
fn fold(s: u64) -> u64 {
    if s >= PRIME {
        s - PRIME
    } else {
        s
    }
}

/// Field addition.
pub fn add(a: u64, b: u64) -> u64 {
    debug_assert!(a < PRIME && b < PRIME);
    fold(a + b) // fits: both < 2^61, sum < 2^62
}

/// Field subtraction.
pub fn sub(a: u64, b: u64) -> u64 {
    debug_assert!(a < PRIME && b < PRIME);
    if a >= b {
        a - b
    } else {
        a + PRIME - b
    }
}

/// Field negation.
pub fn neg(a: u64) -> u64 {
    debug_assert!(a < PRIME);
    if a == 0 {
        0
    } else {
        PRIME - a
    }
}

/// Field multiplication. `2⁶¹ ≡ 1 (mod p)`, so the 122-bit product
/// `x` is congruent to `(x mod 2⁶¹) + (x >> 61)`: the low part is at most
/// `p`, the high part at most `p − 3`, their sum under `2p`, and no
/// 128-bit division is needed.
pub fn mul(a: u64, b: u64) -> u64 {
    debug_assert!(a < PRIME && b < PRIME);
    let x = u128::from(a) * u128::from(b);
    fold((x as u64 & PRIME) + (x >> 61) as u64)
}

/// Field exponentiation by squaring.
pub fn pow(mut base: u64, mut exp: u64) -> u64 {
    base = reduce(base);
    let mut acc = 1u64;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul(acc, base);
        }
        base = mul(base, base);
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

/// Adds vector `b` into `a` element-wise in the field.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn add_assign_vec(a: &mut [u64], b: &[u64]) {
    assert_eq!(a.len(), b.len(), "vector length mismatch");
    for (x, &y) in a.iter_mut().zip(b) {
        *x = add(*x, y);
    }
}

/// Subtracts vector `b` from `a` element-wise in the field.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn sub_assign_vec(a: &mut [u64], b: &[u64]) {
    assert_eq!(a.len(), b.len(), "vector length mismatch");
    for (x, &y) in a.iter_mut().zip(b) {
        *x = sub(*x, y);
    }
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
            assert_eq!(add(a, neg(a)), 0);
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
    fn vector_ops_cancel() {
        let a0 = vec![1u64, PRIME - 1, 12345];
        let b = vec![99u64, 100, PRIME - 1];
        let mut a = a0.clone();
        add_assign_vec(&mut a, &b);
        sub_assign_vec(&mut a, &b);
        assert_eq!(a, a0);
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
