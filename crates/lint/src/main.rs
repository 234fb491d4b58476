//! CLI for the `fl-lint` release gate: the compiler-run `test-only-pub`
//! audit.
//!
//! Usage: `cargo run -p fl-lint [-- --root <dir>]`
//!
//! Prints one finding per line (`file:line: [rule] message (fix: hint)`)
//! and exits 1 if any `pub fn` of `crates/*/src` that only tests reach
//! survives the `fl-lint: allow(test-only-pub)` annotations. It works in
//! `<root>/target/dead_pub`, and exits 2 when cargo fails for another
//! reason than the audit's demotions.

// Release-gate lints of this crate (DESIGN.md Sec. 7).
#![deny(clippy::panic, clippy::todo, clippy::unimplemented)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--help" | "-h" => {
                println!("fl-lint: the compiler's test-only-pub audit");
                println!("options: --root <dir>  workspace root (default: auto-detected)");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("fl-lint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.unwrap_or_else(fl_lint::workspace_root);
    let started = std::time::Instant::now();
    let run = match fl_lint::dead_pub::audit_dead_pub(&root, &root.join("target/dead_pub")) {
        Ok(run) => run,
        Err(err) => {
            eprintln!("fl-lint: dead-pub: {err}");
            return ExitCode::from(2);
        }
    };
    for finding in &run.findings {
        println!("{finding}");
    }
    eprintln!(
        "fl-lint: {} pass(es) in {:.0} s, {} of {} demoted pub fn(s) called from another crate, {} finding(s)",
        run.passes,
        started.elapsed().as_secs_f64(),
        run.promoted,
        run.demoted,
        run.findings.len()
    );
    if run.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
