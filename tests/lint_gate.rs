//! The static-analysis release gate as a tier-1 test (DESIGN.md Sec. 7).
//! The paper (Sec. 7) gates plan releases behind automated predicates
//! before they may touch real devices; this is the code-side predicate,
//! in two halves: fl-lint's own rules, and the rustc and clippy lints of
//! the root `Cargo.toml`'s `[workspace.lints]`, the crate roots and
//! `clippy.toml`. A failure here means a determinism, panic-safety, or
//! concurrency invariant regressed — fix the site or, where the
//! behaviour is deliberate, say why in an `#[expect(<lint>, reason = ..)]`
//! (`// fl-lint: allow(lock-order): <why>` for fl-lint's rule).

use fl_lint::cargo;

#[test]
fn workspace_is_lint_clean() {
    let root = fl_lint::workspace_root();
    let (findings, scanned) = fl_lint::lint_workspace(&root);
    assert!(
        scanned > 50,
        "walked only {scanned} files from {} — wrong workspace root?",
        root.display()
    );
    assert!(
        findings.is_empty(),
        "fl-lint found {} violation(s):\n{}",
        findings.len(),
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// `cargo clippy --workspace --all-targets` passes, in `target/clippy`
/// (which the `fl-lint` step of `scripts/check.sh` shares). A clippy that
/// cannot run fails the test.
#[test]
fn workspace_is_clippy_clean() {
    let root = fl_lint::workspace_root();
    let args = ["--workspace", "--all-targets"];
    let (stdout, passed) = cargo::run("clippy", &root, &root.join("target/clippy"), &args)
        .unwrap_or_else(|err| panic!("cargo clippy could not run: {err}"));
    let errors: String = cargo::parse_diagnostics(&stdout, &root, &root)
        .iter()
        .filter(|d| d.level == "error")
        .map(|d| d.rendered.as_str())
        .collect();
    assert!(passed, "cargo clippy failed:\n{errors}");
}
