//! The compiler lints that took over fl-lint's lexical rules, against
//! violations planted in a mirror of the workspace.

use fl_lint::cargo;
use std::path::Path;

/// One line appended to a workspace file, and the lint that must report
/// it, or `None` where no lint may. Each of the lexical rules the compiler
/// took over has one plant in a file of the rule's old scope.
const PLANTS: &[(&str, &str, Option<&str>)] = &[
    (
        "crates/server/src/pace.rs",
        "fn planted() -> std::time::Instant { std::time::Instant::now() }",
        Some("clippy::disallowed_methods"),
    ),
    // The aliased read the lexical rule did not see.
    (
        "crates/sim/src/des.rs",
        "fn planted() -> std::time::Instant { use std::time::Instant as Clock; Clock::now() }",
        Some("clippy::disallowed_methods"),
    ),
    (
        "crates/device/src/conditions.rs",
        "fn planted() { std::thread::sleep(std::time::Duration::ZERO) }",
        Some("clippy::disallowed_methods"),
    ),
    (
        "crates/ml/src/model.rs",
        "fn planted() -> std::sync::Mutex<u8> { std::sync::Mutex::new(0) }",
        Some("clippy::disallowed_types"),
    ),
    (
        "crates/secagg/src/shamir.rs",
        "fn planted(x: Option<u8>) -> u8 { x.unwrap() }",
        Some("clippy::unwrap_used"),
    ),
    (
        "crates/wire/src/message.rs",
        "fn planted() { panic!(\"planted\") }",
        Some("clippy::panic"),
    ),
    (
        "crates/analytics/src/overload.rs",
        "fn planted() { println!(\"planted\") }",
        Some("clippy::print_stdout"),
    ),
    (
        "crates/core/src/lib.rs",
        "pub fn planted() {}",
        Some("missing_docs"),
    ),
    (
        "crates/data/src/store.rs",
        "fn planted(p: *const u8) -> u8 { unsafe { *p } }",
        Some("clippy::undocumented_unsafe_blocks"),
    ),
    // Test code may panic; fl-bench may print.
    (
        "crates/core/src/plan.rs",
        "#[cfg(test)] mod planted { fn planted() { panic!(\"planted\") } }",
        None,
    ),
    (
        "crates/bench/src/lib.rs",
        "fn planted() { println!(\"planted\") }",
        None,
    ),
];

/// Plants [`PLANTS`] in a mirror of the workspace under `target/`, runs
/// the clippy pass there with every lint capped at a warning (a crate that
/// fails stops its dependents from being linted), and reads back what was
/// reported at each planted line.
#[test]
fn clippy_reports_each_planted_violation_at_its_line() {
    let root = fl_lint::workspace_root();
    let work = Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy_plants");
    std::fs::create_dir_all(&work).unwrap();
    let tree = work.canonicalize().unwrap().join("tree");
    let mut files = cargo::sources(&root).unwrap();
    let mut lines = Vec::new();
    for &(file, code, _) in PLANTS {
        let (_, src) = files.iter_mut().find(|(rel, _)| rel == file).unwrap();
        if !src.ends_with('\n') {
            src.push('\n');
        }
        src.push_str(code);
        src.push('\n');
        lines.push(src.lines().count() as u32);
    }
    cargo::mirror(&tree, &files).unwrap();
    let args = ["--workspace", "--all-targets", "--", "--cap-lints", "warn"];
    let (stdout, _) = cargo::run("clippy", &tree, &work.join("target"), &args)
        .unwrap_or_else(|err| panic!("cargo clippy could not run: {err}"));
    let diags = cargo::parse_diagnostics(&stdout, &tree, &tree);
    for (&(file, code, lint), line) in PLANTS.iter().zip(lines) {
        let mut reported: Vec<&str> = diags
            .iter()
            .filter(|d| {
                d.spans
                    .iter()
                    .any(|s| s.primary && s.file == file && s.lines.0 == line)
            })
            .map(|d| d.code.as_str())
            .filter(|code| *code != "dead_code")
            .collect();
        reported.dedup();
        match lint {
            Some(lint) => assert!(
                reported.contains(&lint),
                "`{code}` at {file}:{line}: want {lint}, reported {reported:?}"
            ),
            None => assert!(
                reported.is_empty(),
                "`{code}` at {file}:{line}: reported {reported:?}"
            ),
        }
    }
}
