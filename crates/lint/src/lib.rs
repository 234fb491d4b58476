//! `fl-lint`: the one release-gate check that no lint makes, the
//! `test-only-pub` audit.
//!
//! The paper (Sec. 7) gates every plan release behind automated test
//! predicates before it may touch real devices; `crates/tools`'s
//! release pipeline models the runtime half of that gate. The code half
//! is rustc and clippy first: the root `Cargo.toml`'s `[workspace.lints]`,
//! the crate roots' `deny` attributes and `clippy.toml` hold the wall
//! clock, sleep, raw lock, unwrap, panic, print, doc and `unsafe` rules
//! by resolved path, and `cargo clippy --workspace --all-targets` with
//! warnings denied is the gate. Lock order is `tests/lock_audit.rs`'s,
//! over the lock graph fl-race observes. This dependency-free crate keeps
//! the one check left:
//!
//! - [`dead_pub`]: the `test-only-pub` audit, which asks the compiler
//!   which `pub fn`s of `crates/*/src` only tests reach: it demotes them
//!   to `pub(crate)` in a mirror of the workspace under `target/` and
//!   reads `cargo check`'s privacy errors and dead-code warnings.
//! - [`cargo`]: that mirror, one cargo command on it, and its JSON
//!   messages parsed; the clippy gate's tests use it too.
//! - [`engine`]: file walking, `#[cfg(test)]` span detection, the
//!   `// fl-lint: allow(test-only-pub): why` escape hatch, and findings.
//! - [`tokens`]: a comment/string-aware Rust tokenizer, so the audit
//!   never reads a `pub fn` inside a doc comment or a string literal.
//!
//! Run it as `cargo run -p fl-lint` (exit 1 on findings), the `dead-pub`
//! step of `scripts/check.sh`. Tier-1's `tests/lint_gate.rs` runs the
//! clippy pass and checks that every allow comment names this rule.

// Release-gate lints of this crate (DESIGN.md Sec. 7).
#![deny(clippy::panic, clippy::todo, clippy::unimplemented)]

pub mod cargo;
pub mod dead_pub;
pub mod engine;
pub mod tokens;

use std::path::PathBuf;

/// Locates the workspace root: walks up from this crate's manifest dir
/// (compile-time) looking for the directory whose `Cargo.toml` defines
/// the `[workspace]`.
pub fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut dir = manifest.clone();
    while let Some(parent) = dir.parent() {
        let candidate = parent.join("Cargo.toml");
        if candidate.is_file() {
            if let Ok(text) = std::fs::read_to_string(&candidate) {
                if text.contains("[workspace]") {
                    return parent.to_path_buf();
                }
            }
        }
        dir = parent.to_path_buf();
    }
    manifest
}
