//! Three public functions: crate `b` calls one, an allow keeps one, and
//! only this crate's test module calls the third.

/// Called by crate `b`.
pub fn called() -> u32 {
    1
}

/// Kept for a test that checks against it.
// fl-lint: allow(test-only-pub): the reference the tests check against
pub fn reference() -> u32 {
    2
}

/// Called by the test module only.
pub const fn only_tested(
    x: u32,
) -> u32 {
    x + 3
}

#[cfg(test)]
mod tests {
    #[test]
    fn calls() {
        assert_eq!(super::only_tested(0) + super::reference(), 5);
    }
}
