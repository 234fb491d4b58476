//! The compiler-run `test-only-pub` audit against a two-crate fixture
//! workspace (`fixtures/dead_pub`): crate `b` calls one of crate `a`'s
//! three `pub fn`s, an allow covers one, and only `a`'s test module calls
//! the third, which is the one finding. And how the audit maps captured
//! compiler messages back to the definitions they name.

use fl_lint::cargo::parse_diagnostics;
use fl_lint::dead_pub::{audit_dead_pub, named_definitions, pub_fns};
use std::path::Path;

#[test]
fn only_the_function_tests_alone_reach_is_flagged() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/dead_pub");
    let work = Path::new(env!("CARGO_TARGET_TMPDIR")).join("dead_pub_fixture");
    let run = audit_dead_pub(&root, &work).expect("the fixture checks");
    let flagged: Vec<(&str, u32, &str)> = run
        .findings
        .iter()
        .map(|f| (f.file.as_str(), f.line, f.rule))
        .collect();
    assert_eq!(
        flagged,
        [("crates/a/src/lib.rs", 16, "test-only-pub")],
        "{:?}",
        run.findings
    );
    assert!(run.findings[0].message.contains("`only_tested`"));
    // `a::called`, `a::only_tested` and `b::call` are demoted, and the two
    // that another crate calls (`b`'s bin calls `b::call`) promoted back;
    // the allowed `a::reference` is never demoted.
    assert_eq!((run.demoted, run.promoted), (3, 2));
}

/// Crate `a` of the captured messages below, before its demotion.
const A: &str = "pub use inner::reexported;

mod inner {
    pub fn reexported() {}
}

pub struct S;

impl S {
    pub fn method(&self) {}
}

pub const fn constant() -> u32 {
    1
}

pub fn multi_line(
    x: u32,
) -> u32 {
    x
}
";

/// The messages `cargo check --message-format=json` printed for `a`
/// demoted and a crate `b` that calls `a::S.method()`, `a::constant()`
/// and `a::multi_line(2)`, `text`, `expansion` and `explanation` emptied:
/// `a`'s re-export first (E0364), then, without it, `b`'s calls.
const CAPTURED: [&str; 4] = [
    r#"{"reason":"compiler-message","message":{"$message_type":"diagnostic","children":[{"children":[],"code":null,"level":"note","message":"consider marking `reexported` as `pub` in the imported module","spans":[{"byte_end":25,"byte_start":8,"column_end":26,"column_start":9,"expansion":null,"file_name":"crates/a/src/lib.rs","is_primary":true,"label":null,"line_end":1,"line_start":1,"suggested_replacement":null,"suggestion_applicability":null,"text":[]}]}],"level":"error","message":"`reexported` is only public within the crate, and cannot be re-exported outside","spans":[{"byte_end":25,"byte_start":8,"column_end":26,"column_start":9,"expansion":null,"file_name":"crates/a/src/lib.rs","is_primary":true,"label":null,"line_end":1,"line_start":1,"suggested_replacement":null,"suggestion_applicability":null,"text":[]}],"code":{"code":"E0364","explanation":null}}}"#,
    r#"{"reason":"compiler-message","message":{"$message_type":"diagnostic","children":[{"children":[],"code":null,"level":"note","message":"the function `constant` is defined here","spans":[{"byte_end":195,"byte_start":158,"column_end":38,"column_start":1,"expansion":null,"file_name":"crates/a/src/lib.rs","is_primary":true,"label":null,"line_end":13,"line_start":13,"suggested_replacement":null,"suggestion_applicability":null,"text":[]}]}],"level":"error","message":"function `constant` is private","spans":[{"byte_end":57,"byte_start":49,"column_end":16,"column_start":8,"expansion":null,"file_name":"crates/b/src/lib.rs","is_primary":true,"label":"private function","line_end":3,"line_start":3,"suggested_replacement":null,"suggestion_applicability":null,"text":[]}],"code":{"code":"E0603","explanation":null}}}"#,
    r#"{"reason":"compiler-message","message":{"$message_type":"diagnostic","children":[{"children":[],"code":null,"level":"note","message":"the function `multi_line` is defined here","spans":[{"byte_end":253,"byte_start":207,"column_end":9,"column_start":1,"expansion":null,"file_name":"crates/a/src/lib.rs","is_primary":true,"label":null,"line_end":19,"line_start":17,"suggested_replacement":null,"suggestion_applicability":null,"text":[]}]}],"level":"error","message":"function `multi_line` is private","spans":[{"byte_end":75,"byte_start":65,"column_end":34,"column_start":24,"expansion":null,"file_name":"crates/b/src/lib.rs","is_primary":true,"label":"private function","line_end":3,"line_start":3,"suggested_replacement":null,"suggestion_applicability":null,"text":[]}],"code":{"code":"E0603","explanation":null}}}"#,
    r#"{"reason":"compiler-message","message":{"$message_type":"diagnostic","children":[],"level":"error","message":"method `method` is private","spans":[{"byte_end":38,"byte_start":32,"column_end":16,"column_start":10,"expansion":null,"file_name":"crates/b/src/lib.rs","is_primary":true,"label":"private method","line_end":2,"line_start":2,"suggested_replacement":null,"suggestion_applicability":null,"text":[]},{"byte_end":151,"byte_start":124,"column_end":32,"column_start":5,"expansion":null,"file_name":"crates/a/src/lib.rs","is_primary":false,"label":"private method defined here","line_end":10,"line_start":10,"suggested_replacement":null,"suggestion_applicability":null,"text":[]}],"code":{"code":"E0624","explanation":null}}}"#,
];

#[test]
fn privacy_errors_map_back_to_their_definitions() {
    let defs = vec![
        ("crates/a/src/lib.rs".to_string(), pub_fns(A)),
        (
            "crates/b/src/lib.rs".to_string(),
            pub_fns("pub fn reexported() {}\n"),
        ),
    ];
    let stdout = CAPTURED.join("\n");
    let diags = parse_diagnostics(
        &stdout,
        Path::new("/nonexistent"),
        Path::new("/nonexistent"),
    );
    let named: Vec<(&str, Vec<(&str, u32)>)> = diags
        .iter()
        .map(|diag| {
            let hits = named_definitions(diag, &defs);
            let hits = hits
                .iter()
                .map(|&(i, j)| (defs[i].1[j].name.as_str(), defs[i].1[j].line));
            (diag.code.as_str(), hits.collect())
        })
        .collect();
    assert_eq!(
        named,
        [
            // A `pub use` names no definition: the name in its crate.
            ("E0364", vec![("reexported", 4)]),
            // A `pub const fn`, by the "defined here" note.
            ("E0603", vec![("constant", 13)]),
            // A signature over three lines: the note spans all of them.
            ("E0603", vec![("multi_line", 17)]),
            // A method, by the secondary span at its definition.
            ("E0624", vec![("method", 10)]),
        ]
    );
}
