//! Per-rule fixture tests: every rule must fire on its positive
//! fixture, stay silent on its negative one (which also exercises the
//! `fl-lint: allow` escape hatch and test-code exemption), and stay
//! silent when the positive source sits outside the rule's path scope.

use fl_lint::lint_source;

/// (rule id, in-scope path, positive fixture, negative fixture,
/// out-of-scope path for the positive source).
const CASES: &[(&str, &str, &str, &str, &str)] = &[
    (
        "wall-clock",
        "crates/server/src/fixture.rs",
        include_str!("fixtures/wall_clock_pos.rs"),
        include_str!("fixtures/wall_clock_neg.rs"),
        "crates/data/src/fixture.rs",
    ),
    (
        "unwrap",
        // An unwrap-included crate that missing-doc does NOT cover
        // (fl-secagg is now doc-linted in full, so its virtual path
        // would flag the fixture's undocumented pub fns).
        "crates/actors/src/fixture.rs",
        include_str!("fixtures/unwrap_pos.rs"),
        include_str!("fixtures/unwrap_neg.rs"),
        "crates/ml/src/fixture.rs",
    ),
    (
        "panic",
        "crates/core/src/fixture.rs",
        include_str!("fixtures/panic_pos.rs"),
        include_str!("fixtures/panic_neg.rs"),
        "crates/bench/src/fixture.rs",
    ),
    (
        "std-sync-lock",
        "crates/ml/src/fixture.rs",
        include_str!("fixtures/std_sync_lock_pos.rs"),
        include_str!("fixtures/std_sync_lock_neg.rs"),
        // Workspace-wide, except the crate that owns the wrappers.
        "crates/race/src/fixture.rs",
    ),
    (
        // Same rule, second face: raw parking_lot primitives bypass
        // the fl-race lock graph just as std::sync ones do.
        "std-sync-lock",
        "crates/server/src/fixture.rs",
        include_str!("fixtures/parking_lot_pos.rs"),
        include_str!("fixtures/parking_lot_neg.rs"),
        "crates/race/src/fixture.rs",
    ),
    (
        "sleep",
        "crates/actors/src/fixture.rs",
        include_str!("fixtures/sleep_pos.rs"),
        include_str!("fixtures/sleep_neg.rs"),
        "crates/sim/src/fixture.rs",
    ),
    (
        "print",
        "crates/data/src/fixture.rs",
        include_str!("fixtures/print_pos.rs"),
        include_str!("fixtures/print_neg.rs"),
        "crates/tools/src/fixture.rs",
    ),
    (
        "lock-order",
        "crates/server/src/fixture.rs",
        include_str!("fixtures/lock_order_pos.rs"),
        include_str!("fixtures/lock_order_neg.rs"),
        "src-other/fixture.rs",
    ),
    (
        "missing-doc",
        "crates/core/src/lib.rs",
        include_str!("fixtures/missing_doc_pos.rs"),
        include_str!("fixtures/missing_doc_neg.rs"),
        "crates/core/src/plan.rs",
    ),
    (
        "unsafe-safety",
        "crates/secagg/tests/fixture.rs",
        include_str!("fixtures/unsafe_safety_pos.rs"),
        include_str!("fixtures/unsafe_safety_neg.rs"),
        "examples/fixture.rs",
    ),
];

fn fired(rel: &str, src: &str) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = lint_source(rel, src).into_iter().map(|f| f.rule).collect();
    rules.dedup();
    rules
}

#[test]
fn every_rule_fires_on_its_positive_fixture() {
    for (rule, path, pos, _, _) in CASES {
        let rules = fired(path, pos);
        assert!(
            rules.contains(rule),
            "rule `{rule}` did not fire on its positive fixture at {path}; fired: {rules:?}"
        );
    }
}

#[test]
fn negative_fixtures_are_clean() {
    for (rule, path, _, neg, _) in CASES {
        let findings = lint_source(path, neg);
        assert!(
            findings.is_empty(),
            "rule `{rule}`'s negative fixture at {path} produced: {findings:?}"
        );
    }
}

#[test]
fn positive_fixtures_respect_path_scope() {
    for (rule, _, pos, _, out_of_scope) in CASES {
        if out_of_scope.is_empty() {
            continue;
        }
        let rules = fired(out_of_scope, pos);
        assert!(
            !rules.contains(rule),
            "rule `{rule}` fired outside its scope at {out_of_scope}"
        );
    }
}

#[test]
fn allow_suppresses_each_rule() {
    // Annotating every line of the positive fixture with the rule's
    // allow must silence it completely.
    for (rule, path, pos, _, _) in CASES {
        let annotated: String = pos
            .lines()
            .map(|l| format!("{l} // fl-lint: allow({rule})\n"))
            .collect();
        let leftover: Vec<_> = lint_source(path, &annotated)
            .into_iter()
            .filter(|f| f.rule == *rule)
            .collect();
        assert!(
            leftover.is_empty(),
            "allow({rule}) did not suppress: {leftover:?}"
        );
    }
}

#[test]
fn unknown_allow_is_itself_a_finding() {
    let src = "// fl-lint: allow(not-a-rule): oops\npub fn f() {}\n";
    let findings = lint_source("crates/core/src/fixture.rs", src);
    assert!(
        findings.iter().any(|f| f.rule == "unknown-allow"),
        "typo'd allow id should be reported; got {findings:?}"
    );
}
