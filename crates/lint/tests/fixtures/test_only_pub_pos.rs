//! Positive: public functions that only test code calls.

/// Called from this file's test module only.
pub fn only_unit_tested() -> u32 {
    1
}

/// A qualified definition is still a `pub fn`.
pub const fn only_const_tested() -> u32 {
    2
}

/// Called from a `#[test]` function outside any test module.
pub fn only_test_fn_called() -> u32 {
    3
}

#[test]
fn stray_test() {
    assert_eq!(only_test_fn_called(), 3);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calls() {
        assert_eq!(only_unit_tested() + only_const_tested(), 3);
    }
}
