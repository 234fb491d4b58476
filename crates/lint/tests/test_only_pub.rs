//! The `test-only-pub` audit against its fixtures: a public function
//! only test code calls is a finding, with the file and line of its
//! definition; a caller in any non-test tree, an allow annotation, or a
//! definition outside `crates/*/src` keeps it silent.

use fl_lint::engine::{test_only_pub, TEST_ONLY_PUB};
use fl_lint::lint_source;

const POS: &str = include_str!("fixtures/test_only_pub_pos.rs");
const NEG: &str = include_str!("fixtures/test_only_pub_neg.rs");
const EXAMPLE: &str = "fn main() {\n    let _ = fixture::from_example();\n}\n";

fn files(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
    pairs
        .iter()
        .map(|(rel, src)| (rel.to_string(), src.to_string()))
        .collect()
}

#[test]
fn functions_only_tests_call_are_flagged() {
    let findings = test_only_pub(&files(&[("crates/x/src/lib.rs", POS)]));
    let flagged: Vec<(u32, &str)> = findings
        .iter()
        .map(|f| {
            assert_eq!(f.rule, TEST_ONLY_PUB);
            assert_eq!(f.file, "crates/x/src/lib.rs");
            (f.line, f.message.as_str())
        })
        .collect();
    assert_eq!(
        flagged,
        [
            (4, "`pub fn only_unit_tested` has no caller outside tests"),
            (9, "`pub fn only_const_tested` has no caller outside tests"),
            (
                14,
                "`pub fn only_test_fn_called` has no caller outside tests"
            ),
        ]
    );
}

#[test]
fn callers_allows_and_other_shapes_are_silent() {
    let findings = test_only_pub(&files(&[
        ("crates/x/src/lib.rs", NEG),
        ("examples/demo.rs", EXAMPLE),
    ]));
    assert!(findings.is_empty(), "{findings:?}");
    // The allow names a known rule: no `unknown-allow` either.
    assert!(lint_source("crates/x/src/lib.rs", NEG).is_empty());
}

#[test]
fn a_caller_in_the_benchmark_counts_and_one_in_tests_does_not() {
    let in_benchmark = files(&[
        ("crates/x/src/lib.rs", NEG),
        ("benchmark/src/main.rs", EXAMPLE),
    ]);
    assert!(test_only_pub(&in_benchmark).is_empty());
    let in_tests = files(&[
        ("crates/x/src/lib.rs", NEG),
        ("tests/demo.rs", EXAMPLE),
        ("crates/x/tests/demo.rs", EXAMPLE),
    ]);
    let findings = test_only_pub(&in_tests);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("from_example"));
}

#[test]
fn definitions_outside_crate_sources_are_out_of_scope() {
    for rel in ["examples/x.rs", "src/lib.rs", "crates/x/tests/t.rs"] {
        assert!(test_only_pub(&files(&[(rel, POS)])).is_empty(), "{rel}");
    }
}
