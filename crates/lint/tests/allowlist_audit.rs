//! The `allowlist-drift` audit against tiny fake workspace trees:
//! drift must be reported in both directions (unaccounted escapes and
//! stale allowlist entries), counts must match exactly, and a clean
//! tree must stay silent.

use fl_lint::audit_wall_clock_allowlist;
use std::fs;
use std::path::PathBuf;

/// A fresh fake workspace root under the build's `target/` directory
/// (inside the workspace — the audit never reads outside it).
fn scratch(name: &str) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/allowlist-audit")
        .join(name);
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(root.join("crates/x/src")).unwrap();
    fs::create_dir_all(root.join("scripts")).unwrap();
    root
}

/// One wall-clock escape line. Assembled from parts so *this* test
/// file never matches the audit's needle when the real workspace is
/// scanned.
fn escape() -> String {
    ["// fl-lint: allow", "(wall-clock): fixture\n"].concat()
}

fn write(root: &PathBuf, rel: &str, content: &str) {
    fs::write(root.join(rel), content).unwrap();
}

#[test]
fn matching_counts_are_silent() {
    let root = scratch("clean");
    write(
        &root,
        "crates/x/src/a.rs",
        &format!("{}fn f() {{}}\n{}", escape(), escape()),
    );
    write(
        &root,
        "scripts/wall_clock_allowlist.txt",
        "2 crates/x/src/a.rs\n",
    );
    let findings = audit_wall_clock_allowlist(&root);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn unaccounted_escape_is_drift() {
    let root = scratch("unaccounted");
    write(&root, "crates/x/src/a.rs", &escape());
    write(&root, "scripts/wall_clock_allowlist.txt", "");
    let findings = audit_wall_clock_allowlist(&root);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "allowlist-drift");
    assert_eq!(findings[0].file, "crates/x/src/a.rs");
    assert!(findings[0].message.contains("unaccounted"));
}

#[test]
fn stale_entry_is_drift() {
    let root = scratch("stale");
    write(&root, "crates/x/src/a.rs", "fn f() {}\n");
    write(
        &root,
        "scripts/wall_clock_allowlist.txt",
        "1 crates/x/src/a.rs\n",
    );
    let findings = audit_wall_clock_allowlist(&root);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("stale"), "{findings:?}");
}

#[test]
fn count_mismatch_is_drift() {
    let root = scratch("mismatch");
    write(&root, "crates/x/src/a.rs", &escape().repeat(3));
    write(
        &root,
        "scripts/wall_clock_allowlist.txt",
        "1 crates/x/src/a.rs\n",
    );
    let findings = audit_wall_clock_allowlist(&root);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(
        findings[0].message.contains("says 1") && findings[0].message.contains("found 3"),
        "{findings:?}"
    );
}

#[test]
fn fixture_trees_are_counted() {
    // The shell audit this replaces counted lint fixtures; so must we.
    let root = scratch("fixtures");
    fs::create_dir_all(root.join("crates/x/tests/fixtures")).unwrap();
    write(&root, "crates/x/tests/fixtures/f.rs", &escape());
    write(
        &root,
        "scripts/wall_clock_allowlist.txt",
        "1 crates/x/tests/fixtures/f.rs\n",
    );
    let findings = audit_wall_clock_allowlist(&root);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn malformed_lines_are_reported() {
    let root = scratch("malformed");
    write(
        &root,
        "scripts/wall_clock_allowlist.txt",
        "not-a-count path.rs\n",
    );
    let findings = audit_wall_clock_allowlist(&root);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("malformed"), "{findings:?}");
    assert_eq!(findings[0].line, 1);
}

#[test]
fn missing_allowlist_is_reported() {
    let root = scratch("missing");
    write(&root, "crates/x/src/a.rs", "fn f() {}\n");
    let findings = audit_wall_clock_allowlist(&root);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("could not read the allowlist"));
}
