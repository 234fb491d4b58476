//! `fl-lint`: the half of the workspace's static-analysis release gate
//! that the compiler cannot check.
//!
//! The paper (Sec. 7) gates every plan release behind automated test
//! predicates before it may touch real devices; `crates/tools`'s
//! release pipeline models the runtime half of that gate. The code half
//! is rustc and clippy first: the root `Cargo.toml`'s `[workspace.lints]`,
//! the crate roots' `deny` attributes and `clippy.toml` hold the wall
//! clock, sleep, raw lock, unwrap, panic, print, doc and `unsafe` rules
//! by resolved path, and `cargo clippy --workspace --all-targets` is the
//! gate. This dependency-free crate keeps what no lint checks:
//!
//! - [`rules`]: `lock-order`, a second `.lock()` while a guard is live.
//! - [`engine`]: file walking, `#[cfg(test)]` span detection, the
//!   `// fl-lint: allow(<rule>): why` escape hatch, finding assembly, and
//!   the `allowlist-drift` audit, which holds each wall-clock escape of
//!   the clippy pass to `scripts/wall_clock_allowlist.txt`.
//! - [`tokens`]: a comment/string-aware Rust tokenizer, so rule
//!   patterns never fire inside doc comments or string literals.
//! - [`dead_pub`]: the `test-only-pub` audit, which asks the compiler
//!   which `pub fn`s of `crates/*/src` only tests reach: it demotes them
//!   to `pub(crate)` in a mirror of the workspace under `target/` and
//!   reads `cargo check`'s privacy errors and dead-code warnings.
//! - [`cargo`]: that mirror, one cargo command on it, and its JSON
//!   messages parsed; the clippy gate's tests use it too.
//!
//! Run it as `cargo run -p fl-lint` (non-zero exit on violations) or
//! via the integration test that makes it and the clippy pass part of
//! tier-1 `cargo test`; `cargo run -p fl-lint -- --dead-pub` runs the
//! compiler audit, which only `scripts/check.sh` runs, after this gate.

// Release-gate lints of this crate (DESIGN.md Sec. 7).
#![deny(clippy::panic, clippy::todo, clippy::unimplemented)]

pub mod cargo;
pub mod dead_pub;
pub mod engine;
pub mod rules;
pub mod tokens;

pub use engine::{audit_wall_clock_allowlist, lint_source, lint_workspace, Finding};

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
