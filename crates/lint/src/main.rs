//! CLI for the `fl-lint` release gate.
//!
//! Usage: `cargo run -p fl-lint [-- --root <dir>] [--json] [--rules] [--dead-pub]`
//!
//! Prints one machine-readable finding per line
//! (`file:line: [rule] message (fix: hint)`) and exits non-zero if any
//! violation survives the `fl-lint: allow` annotations. `--dead-pub`
//! runs the compiler's `test-only-pub` audit instead of the lexical
//! rules, in `<root>/target/dead_pub`; it exits 2 when cargo fails for
//! another reason than the audit's demotions.

// Release-gate lints of this crate (DESIGN.md Sec. 7).
#![deny(clippy::panic, clippy::todo, clippy::unimplemented)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut dead_pub = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--json" => json = true,
            "--dead-pub" => dead_pub = true,
            "--rules" => {
                for rule in fl_lint::rules::RULES {
                    println!("{:<16} {}", rule.id, rule.hint);
                }
                println!(
                    "{:<16} a pub fn in crates/*/src that only tests reach (--dead-pub)",
                    fl_lint::engine::TEST_ONLY_PUB
                );
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("fl-lint: workspace static-analysis release gate");
                println!("options: --root <dir>  workspace root (default: auto-detected)");
                println!("         --json        one JSON object per finding");
                println!("         --rules       list rule ids and hints");
                println!("         --dead-pub    run the compiler's test-only-pub audit");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("fl-lint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.unwrap_or_else(fl_lint::workspace_root);
    let (findings, summary) = if dead_pub {
        let started = std::time::Instant::now();
        match fl_lint::dead_pub::audit_dead_pub(&root, &root.join("target/dead_pub")) {
            Ok(run) => {
                let summary = format!(
                    "{} pass(es) in {:.0} s, {} of {} demoted pub fn(s) called from another crate",
                    run.passes,
                    started.elapsed().as_secs_f64(),
                    run.promoted,
                    run.demoted
                );
                (run.findings, summary)
            }
            Err(err) => {
                eprintln!("fl-lint: dead-pub: {err}");
                return ExitCode::from(2);
            }
        }
    } else {
        let (findings, scanned) = fl_lint::lint_workspace(&root);
        (findings, format!("{scanned} file(s) scanned"))
    };
    for finding in &findings {
        if json {
            println!("{}", finding.to_json());
        } else {
            println!("{finding}");
        }
    }
    eprintln!("fl-lint: {summary}, {} finding(s)", findings.len());
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
