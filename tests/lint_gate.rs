//! The static-analysis release gate as a tier-1 test (DESIGN.md Sec. 7).
//! The paper (Sec. 7) gates plan releases behind automated predicates
//! before they may touch real devices; this is the code-side predicate:
//! the rustc and clippy lints of the root `Cargo.toml`'s
//! `[workspace.lints]`, the crate roots and `clippy.toml`, with warnings
//! denied, and a check that every `// fl-lint: allow(<rule>)` names
//! fl-lint's one rule, `test-only-pub`. A failure here means a
//! determinism, panic-safety, or concurrency invariant regressed — fix
//! the site or, where the behaviour is deliberate, say why in an
//! `#[expect(<lint>, reason = ..)]`. Lock order is `tests/lock_audit.rs`'s.

use fl_lint::cargo;
use fl_lint::engine::{FileContext, TEST_ONLY_PUB};
use std::collections::BTreeMap;

/// The ids of `src`'s `fl-lint: allow(<id>)` comments that name no rule,
/// each with the first line it covers. A typo'd id suppresses nothing.
fn unknown_allows(src: &str) -> BTreeMap<String, u32> {
    let mut unknown = BTreeMap::new();
    for (line, rule) in FileContext::new(src).annotated_rules() {
        if rule != TEST_ONLY_PUB {
            let first = unknown.entry(rule.to_string()).or_insert(line);
            *first = line.min(*first);
        }
    }
    unknown
}

#[test]
fn every_allow_names_the_one_rule() {
    let root = fl_lint::workspace_root();
    let files = cargo::sources(&root).unwrap_or_else(|err| panic!("unreadable source: {err}"));
    let linted: Vec<&(String, String)> = files
        .iter()
        .filter(|(rel, _)| {
            let top = ["crates/", "src/", "tests/", "examples/"];
            rel.ends_with(".rs") && top.iter().any(|top| rel.starts_with(top))
        })
        .collect();
    assert!(
        linted.len() > 50,
        "read only {} files from {} — wrong workspace root?",
        linted.len(),
        root.display()
    );
    let typos: Vec<String> = linted
        .iter()
        .flat_map(|(rel, src)| {
            let unknown = unknown_allows(src).into_iter();
            unknown.map(move |(rule, line)| format!("{rel}:{line}: allow({rule})"))
        })
        .collect();
    assert!(
        typos.is_empty(),
        "`fl-lint: allow` names no known rule (the one rule is `{TEST_ONLY_PUB}`):\n{}",
        typos.join("\n")
    );
}

#[test]
fn unknown_allow_is_itself_a_finding() {
    let typo = unknown_allows("// fl-lint: allow(not-a-rule): oops\npub fn f() {}\n");
    assert_eq!(typo, BTreeMap::from([("not-a-rule".to_string(), 1)]));
    let known = unknown_allows("pub fn f() {} // fl-lint: allow(test-only-pub): why\n");
    assert!(known.is_empty(), "{known:?}");
}

/// `cargo clippy --workspace --all-targets -- -D warnings` passes, in
/// `target/clippy`. A clippy that cannot run fails the test.
#[test]
fn workspace_is_clippy_clean() {
    let root = fl_lint::workspace_root();
    let args = ["--workspace", "--all-targets", "--", "-D", "warnings"];
    let (stdout, passed) = cargo::run("clippy", &root, &root.join("target/clippy"), &args)
        .unwrap_or_else(|err| panic!("cargo clippy could not run: {err}"));
    let errors: String = cargo::parse_diagnostics(&stdout, &root, &root)
        .iter()
        .filter(|d| d.level == "error")
        .map(|d| d.rendered.as_str())
        .collect();
    assert!(passed, "cargo clippy failed:\n{errors}");
}
