//! The one caller of `a::called`.

/// Calls into crate `a`.
pub fn call() -> u32 {
    a::called()
}
