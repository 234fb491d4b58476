//! Negative: callers outside tests, an allow, and shapes that are no
//! public function.

/// Called by the private `run` below.
pub fn helper() -> u32 {
    1
}

/// Named, not called, by `TABLE`: a path counts as a caller.
pub fn by_pointer() -> u32 {
    2
}

/// Called only from `examples/` (the fixture test's second file).
pub fn from_example() -> u32 {
    3
}

/// Kept for a test that uses it as a reference.
// fl-lint: allow(test-only-pub): the reference the tests check against
pub fn reference() -> u32 {
    4
}

/// Crate-visible only: outside the audit.
pub(crate) fn internal() -> u32 {
    5
}

/// A field of function type is no function.
pub struct Rule {
    /// The checker.
    pub check: fn() -> u32,
}

pub const TABLE: [fn() -> u32; 1] = [by_pointer];

fn run() -> u32 {
    helper() + internal()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Public inside a test module: test code, outside the audit.
    pub fn fixture() -> u32 {
        reference()
    }

    #[test]
    fn calls() {
        assert_eq!(fixture(), 4);
    }
}
