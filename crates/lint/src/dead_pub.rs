//! The `test-only-pub` audit, run by the compiler: a `pub fn` in
//! `crates/*/src` that nothing but tests reaches.
//!
//! The audit mirrors the workspace into a work directory and makes every
//! `pub fn` of `crates/*/src` there `pub(crate)`, except one that
//! `// fl-lint: allow(test-only-pub): why` covers. It then runs
//! `cargo check` on the workspace's lib, bins and examples, and on
//! `benchmark/` when there is one, gives its `pub` back to each
//! definition an E0603, E0624 or E0364 error names, and repeats until no
//! such error is left. Every `dead_code` warning then left in
//! `crates/*/src` is a finding. Tests are never compiled, so no test
//! counts as a caller, and callers are found by the compiler's name
//! resolution, so a shared name hides nothing.

use crate::cargo::{self, mirror, parse_diagnostics, Diagnostic};
use crate::engine::{FileContext, Finding, TEST_ONLY_PUB};
use std::collections::BTreeSet;
use std::path::Path;

/// A `pub fn` the audit demotes: its name, and the byte offset and the
/// 1-based line of its `pub`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PubFn {
    /// Byte offset of the `pub` token.
    pub offset: usize,
    /// Line of the `pub` token, where rustc's spans of the item start.
    pub line: u32,
    /// The function's name.
    pub name: String,
}

/// The `pub fn`s (`const`, `unsafe` and `async` ones too) outside test
/// code of `src` that no `allow(test-only-pub)` covers.
pub fn pub_fns(src: &str) -> Vec<PubFn> {
    let ctx = FileContext::new(src);
    let sig = ctx.sig();
    let mut fns = Vec::new();
    for (k, &i) in sig.iter().enumerate() {
        let line = ctx.line_of(i);
        if !ctx.is_ident(i, "pub") || ctx.is_test_line(line) || ctx.is_allowed(TEST_ONLY_PUB, line)
        {
            continue;
        }
        let qualifiers = sig[k + 1..]
            .iter()
            .take_while(|&&j| {
                ["const", "unsafe", "async"]
                    .iter()
                    .any(|q| ctx.is_ident(j, q))
            })
            .count();
        let f = k + 1 + qualifiers;
        if let (true, Some(&name)) = (
            sig.get(f).is_some_and(|&j| ctx.is_ident(j, "fn")),
            sig.get(f + 1),
        ) {
            let (offset, name) = (ctx.tok(i).start, ctx.text(name).to_string());
            fns.push(PubFn { offset, line, name });
        }
    }
    fns
}

/// `src` with every `pub` of `fns` not in `promoted` made `pub(crate)`.
/// No line moves, so the compiler's lines are the source's.
fn demoted(src: &str, fns: &[PubFn], promoted: &BTreeSet<usize>) -> String {
    let mut out = String::with_capacity(src.len() + 7 * fns.len());
    let mut at = 0;
    for (_, f) in fns
        .iter()
        .enumerate()
        .filter(|(i, _)| !promoted.contains(i))
    {
        out.push_str(&src[at..f.offset + 3]);
        out.push_str("(crate)");
        at = f.offset + 3;
    }
    out + &src[at..]
}

/// The demoted definitions a privacy error names, as `(file, fn)` indices
/// into `defs`: those called the message's first backquoted name whose
/// `pub` line lies in one of its spans (E0603's and E0624's "defined
/// here"). When no span covers one (an E0364 points at the `pub use`
/// only), those of that name in the crate of its first span.
pub fn named_definitions(diag: &Diagnostic, defs: &[(String, Vec<PubFn>)]) -> Vec<(usize, usize)> {
    let name = diag.message.split('`').nth(1).unwrap_or("");
    let named = |keep: &dyn Fn(&str, &PubFn) -> bool| -> Vec<(usize, usize)> {
        let all = defs.iter().enumerate().flat_map(|(i, (file, fns))| {
            fns.iter()
                .enumerate()
                .filter(move |(_, f)| f.name == name && keep(file, f))
                .map(move |(j, _)| (i, j))
        });
        all.collect()
    };
    let spanned = named(&|file, f| {
        diag.spans
            .iter()
            .any(|s| s.file == file && (s.lines.0..=s.lines.1).contains(&f.line))
    });
    let crate_of = |file: &str| file.split('/').take(2).collect::<Vec<_>>().join("/");
    match diag.spans.first() {
        Some(first) if spanned.is_empty() => {
            named(&|file, _| crate_of(file) == crate_of(&first.file))
        }
        _ => spanned,
    }
}

/// What a run of [`audit_dead_pub`] found, and what it took.
#[derive(Debug)]
pub struct DeadPub {
    /// One per `dead_code` warning in `crates/*/src` no allow covers.
    pub findings: Vec<Finding>,
    /// `cargo check` runs until the fixed point.
    pub passes: usize,
    /// `pub fn`s demoted.
    pub demoted: usize,
    /// Of those, the ones a privacy error gave their `pub` back.
    pub promoted: usize,
}

/// Runs the audit on the workspace at `root`, in a mirror under `work`,
/// which holds the checks' target directories too, so a rerun is warm.
/// `Err` when cargo fails for another reason than a demotion.
pub fn audit_dead_pub(root: &Path, work: &Path) -> Result<DeadPub, String> {
    let io = |path: &Path, err: std::io::Error| format!("{}: {err}", path.display());
    std::fs::create_dir_all(work).map_err(|err| io(work, err))?;
    let root = root.canonicalize().map_err(|err| io(root, err))?;
    let work = work.canonicalize().map_err(|err| io(work, err))?;
    let tree = work.join("tree");
    let files = cargo::sources(&root)?;
    let defs: Vec<(String, Vec<PubFn>)> = files
        .iter()
        .map(|(rel, src)| {
            let fns = if is_crate_src(rel) {
                pub_fns(src)
            } else {
                Vec::new()
            };
            (rel.clone(), fns)
        })
        .collect();
    let mut promoted = vec![BTreeSet::new(); defs.len()];
    let mut checks = vec![(
        tree.clone(),
        "workspace",
        &["--workspace", "--lib", "--bins", "--examples"][..],
    )];
    if root.join("benchmark/Cargo.toml").is_file() {
        checks.push((tree.join("benchmark"), "benchmark", &[][..]));
    }
    let mut passes = 0;
    let workspace = 'fixed_point: loop {
        let text = |(i, (rel, src)): (usize, &(String, String))| {
            (rel.clone(), demoted(src, &defs[i].1, &promoted[i]))
        };
        mirror(
            &tree,
            &files.iter().enumerate().map(text).collect::<Vec<_>>(),
        )?;
        let mut workspace = Vec::new();
        for (dir, name, args) in &checks {
            passes += 1;
            let target = work.join(format!("{name}-target"));
            let (stdout, success) = cargo::run("check", dir, &target, args)?;
            let diags = parse_diagnostics(&stdout, dir, &tree);
            let mut named = 0;
            for diag in diags
                .iter()
                .filter(|d| matches!(d.code.as_str(), "E0603" | "E0624" | "E0364"))
            {
                let hits = named_definitions(diag, &defs);
                if hits.is_empty() {
                    return Err(format!("no demoted `pub fn` matches:\n{}", diag.rendered));
                }
                for (i, j) in hits {
                    named += usize::from(promoted[i].insert(j));
                }
            }
            if named > 0 {
                continue 'fixed_point;
            }
            if !success {
                let errors = diags
                    .iter()
                    .filter(|d| d.level == "error")
                    .map(|d| d.rendered.as_str());
                return Err(format!(
                    "cargo check failed in {}:\n{}",
                    dir.display(),
                    errors.collect::<String>()
                ));
            }
            if *name == "workspace" {
                workspace = diags;
            }
        }
        break workspace;
    };
    let mut findings: Vec<Finding> = Vec::new();
    for diag in workspace.iter().filter(|d| d.code == "dead_code") {
        for span in diag
            .spans
            .iter()
            .filter(|s| s.primary && is_crate_src(&s.file))
        {
            let line = span.lines.0;
            let src = files
                .iter()
                .find(|(rel, _)| *rel == span.file)
                .map_or("", |(_, src)| src);
            if FileContext::new(src).is_allowed(TEST_ONLY_PUB, line)
                || findings
                    .iter()
                    .any(|f| f.file == span.file && f.line == line)
            {
                continue;
            }
            findings.push(Finding {
                file: span.file.clone(),
                line,
                rule: TEST_ONLY_PUB,
                message: format!("{} outside tests", diag.message),
                hint: "delete it with the tests of it alone, move it into the test module \
                       that uses it, or say why it stays in a `fl-lint: allow(test-only-pub)` \
                       comment",
            });
        }
    }
    findings.sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
    Ok(DeadPub {
        findings,
        passes,
        demoted: defs.iter().map(|(_, fns)| fns.len()).sum(),
        promoted: promoted.iter().map(BTreeSet::len).sum(),
    })
}

/// Whether `rel` lies under some `crates/<name>/src/`.
fn is_crate_src(rel: &str) -> bool {
    let mut parts = rel.split('/');
    parts.next() == Some("crates") && parts.nth(1) == Some("src")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demotion_keeps_every_line_and_the_promoted() {
        let src = "pub fn a() {}\npub const fn b(\n) {}\npub(crate) fn c() {}\n";
        let fns = pub_fns(src);
        let names: Vec<(&str, u32)> = fns.iter().map(|f| (f.name.as_str(), f.line)).collect();
        assert_eq!(names, [("a", 1), ("b", 2)]);
        let all = demoted(src, &fns, &BTreeSet::new());
        assert_eq!(
            all,
            "pub(crate) fn a() {}\npub(crate) const fn b(\n) {}\npub(crate) fn c() {}\n"
        );
        let kept = demoted(src, &fns, &BTreeSet::from([0]));
        assert_eq!(
            kept,
            "pub fn a() {}\npub(crate) const fn b(\n) {}\npub(crate) fn c() {}\n"
        );
    }
}
