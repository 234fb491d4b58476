//! CLI for the `fl-lint` release gate.
//!
//! Usage: `cargo run -p fl-lint [-- --root <dir>] [--json] [--rules]`
//!
//! Prints one machine-readable finding per line
//! (`file:line: [rule] message (fix: hint)`) and exits non-zero if any
//! violation survives the `fl-lint: allow` annotations.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--json" => json = true,
            "--rules" => {
                for rule in fl_lint::rules::RULES {
                    println!("{:<16} {}", rule.id, rule.hint);
                }
                println!(
                    "{:<16} a pub fn in crates/*/src that only tests call",
                    fl_lint::engine::TEST_ONLY_PUB
                );
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("fl-lint: workspace static-analysis release gate");
                println!("options: --root <dir>  workspace root (default: auto-detected)");
                println!("         --json        one JSON object per finding");
                println!("         --rules       list rule ids and hints");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("fl-lint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.unwrap_or_else(fl_lint::workspace_root);
    let (findings, scanned) = fl_lint::lint_workspace(&root);
    for finding in &findings {
        if json {
            println!("{}", finding.to_json());
        } else {
            println!("{finding}");
        }
    }
    eprintln!(
        "fl-lint: {} file(s) scanned, {} finding(s)",
        scanned,
        findings.len()
    );
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
