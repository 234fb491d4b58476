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

use crate::engine::{relative, walk, FileContext, Finding, TEST_ONLY_PUB};
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

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

/// One span of a compiler message: its file relative to the checked tree
/// (as given when outside it), its first and last line, and whether it is
/// primary.
#[derive(Debug, Clone)]
pub struct Span {
    /// Tree-relative path, `/`-separated.
    pub file: String,
    /// First and last 1-based line.
    pub lines: (u32, u32),
    /// Whether it is one of the message's primary spans.
    pub primary: bool,
}

/// A compiler message from `cargo check --message-format=json`.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// `error`, `warning`, ...
    pub level: String,
    /// `E0603`, `dead_code`, ..., or empty.
    pub code: String,
    /// The one-line message.
    pub message: String,
    /// The spans of the message and of its notes.
    pub spans: Vec<Span>,
    /// The message as the compiler prints it.
    pub rendered: String,
}

/// The compiler messages of cargo's JSON output `stdout`, run in `cwd`,
/// with span files made relative to `tree`.
pub fn parse_diagnostics(stdout: &str, cwd: &Path, tree: &Path) -> Vec<Diagnostic> {
    fn spans(message: &Json, cwd: &Path, tree: &Path, out: &mut Vec<Span>) {
        for span in message.get("spans").into_iter().flat_map(Json::items) {
            let field = |key| span.get(key).map_or("", Json::text);
            let line = |key| field(key).parse().unwrap_or(0);
            let file = cwd.join(field("file_name")).canonicalize();
            out.push(Span {
                file: file.map_or(field("file_name").to_string(), |f| relative(tree, &f)),
                lines: (line("line_start"), line("line_end")),
                primary: field("is_primary") == "true",
            });
        }
        for child in message.get("children").into_iter().flat_map(Json::items) {
            spans(child, cwd, tree, out);
        }
    }
    let mut out = Vec::new();
    for json in stdout.lines().filter_map(Json::parse) {
        let Some(message) = json.get("message") else {
            continue;
        };
        let field = |j: &Json, key| j.get(key).map_or("", Json::text).to_string();
        let mut found = Vec::new();
        spans(message, cwd, tree, &mut found);
        out.push(Diagnostic {
            level: field(message, "level"),
            code: message
                .get("code")
                .map_or(String::new(), |c| field(c, "code")),
            message: field(message, "message"),
            spans: found,
            rendered: field(message, "rendered"),
        });
    }
    out
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

/// One `cargo check --offline --message-format=json` in `dir` into
/// `target`: its stdout and whether it passed.
fn cargo_check(dir: &Path, target: &Path, args: &[&str]) -> Result<(String, bool), String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let output = Command::new(cargo)
        .args(["check", "--offline", "--message-format=json"])
        .args(args)
        .current_dir(dir)
        .env("CARGO_TARGET_DIR", target)
        .output()
        .map_err(|err| format!("could not run cargo in {}: {err}", dir.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if !output.status.success() && !stdout.contains("\"reason\":\"compiler-message\"") {
        return Err(String::from_utf8_lossy(&output.stderr).into_owned());
    }
    Ok((stdout, output.status.success()))
}

/// Whether cargo reads a file of this name: Rust sources and manifests.
fn is_source(name: &str) -> bool {
    name.ends_with(".rs") || name == "Cargo.toml" || name == "Cargo.lock"
}

/// Writes `files` under `tree`, each only when its bytes changed (so
/// cargo's fingerprints stay warm), and removes the sources `tree` holds
/// that `files` lacks.
fn mirror(tree: &Path, files: &[(String, String)]) -> Result<(), String> {
    let io = |path: &Path, err: std::io::Error| format!("{}: {err}", path.display());
    for (rel, src) in files {
        let path = tree.join(rel);
        if std::fs::read_to_string(&path).ok().as_ref() != Some(src) {
            let dir = path.parent().unwrap_or(tree);
            std::fs::create_dir_all(dir).map_err(|err| io(dir, err))?;
            std::fs::write(&path, src).map_err(|err| io(&path, err))?;
        }
    }
    let mut held = Vec::new();
    walk(tree, &["target"], is_source, &mut held);
    for path in held {
        let rel = relative(tree, &path);
        if !files.iter().any(|(file, _)| *file == rel) {
            std::fs::remove_file(&path).map_err(|err| io(&path, err))?;
        }
    }
    Ok(())
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
    let mut paths = Vec::new();
    walk(&root, &["target"], is_source, &mut paths);
    paths.sort();
    let mut files = Vec::new();
    let mut defs = Vec::new();
    for path in paths {
        let (rel, src) = (
            relative(&root, &path),
            std::fs::read_to_string(&path).map_err(|err| io(&path, err))?,
        );
        let fns = if is_crate_src(&rel) {
            pub_fns(&src)
        } else {
            Vec::new()
        };
        defs.push((rel.clone(), fns));
        files.push((rel, src));
    }
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
            let (stdout, success) = cargo_check(dir, &work.join(format!("{name}-target")), args)?;
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

/// A JSON value, as much of one as cargo's messages need: a string, a
/// literal's text (a number, `true`, `null`, ...), or the members of an
/// object or of an array (whose keys are empty).
#[derive(Debug, PartialEq)]
enum Json {
    Str(String),
    Lit(String),
    List(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document, `None` when `text` is not one.
    fn parse(text: &str) -> Option<Json> {
        let (value, rest) = Json::value(text)?;
        rest.trim().is_empty().then_some(value)
    }

    fn get(&self, key: &str) -> Option<&Json> {
        self.members()
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    fn items(&self) -> impl Iterator<Item = &Json> {
        self.members().iter().map(|(_, v)| v)
    }

    fn members(&self) -> &[(String, Json)] {
        match self {
            Json::List(members) => members,
            _ => &[],
        }
    }

    fn text(&self) -> &str {
        match self {
            Json::Str(s) | Json::Lit(s) => s,
            Json::List(_) => "",
        }
    }

    /// The value at the start of `s`, and the text after it.
    fn value(s: &str) -> Option<(Json, &str)> {
        let s = s.trim_start();
        match s.chars().next()? {
            '"' => Json::string(&s[1..]).map(|(text, rest)| (Json::Str(text), rest)),
            open @ ('[' | '{') => {
                let close = if open == '[' { ']' } else { '}' };
                let (mut members, mut rest) = (Vec::new(), s[1..].trim_start());
                while !rest.starts_with(close) {
                    let mut key = String::new();
                    if open == '{' {
                        let (text, after) = Json::string(rest.strip_prefix('"')?)?;
                        key = text;
                        rest = after.trim_start().strip_prefix(':')?;
                    }
                    let (value, after) = Json::value(rest)?;
                    members.push((key, value));
                    let after = after.trim_start();
                    rest = after.strip_prefix(',').unwrap_or(after).trim_start();
                }
                Some((Json::List(members), &rest[1..]))
            }
            _ => {
                let end = s
                    .find(|c: char| !c.is_ascii_alphanumeric() && !"+-.".contains(c))
                    .unwrap_or(s.len());
                (end > 0).then(|| (Json::Lit(s[..end].to_string()), &s[end..]))
            }
        }
    }

    /// A string's text after its opening quote, unescaped, and the text
    /// after its closing quote.
    fn string(s: &str) -> Option<(String, &str)> {
        let mut out = String::new();
        let mut chars = s.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => return Some((out, &s[i + 1..])),
                '\\' => out.push(match chars.next()?.1 {
                    'n' => '\n',
                    't' => '\t',
                    'r' => '\r',
                    'b' => '\u{8}',
                    'f' => '\u{c}',
                    'u' => {
                        let hex: String = chars.by_ref().take(4).map(|(_, c)| c).collect();
                        char::from_u32(u32::from_str_radix(&hex, 16).ok()?).unwrap_or('\u{fffd}')
                    }
                    other => other,
                }),
                c => out.push(c),
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_reads_what_cargo_writes() {
        let doc = r#"{"a": [1, -2.5e1, true, null], "b": {"c": "x\"y\\é\n"}, "d": []}"#;
        let json = Json::parse(doc).unwrap();
        let items: Vec<&str> = json.get("a").unwrap().items().map(Json::text).collect();
        assert_eq!(items, ["1", "-2.5e1", "true", "null"]);
        let c = json.get("b").and_then(|b| b.get("c")).map(Json::text);
        assert_eq!(c, Some("x\"y\\\u{e9}\n"));
        assert_eq!(json.get("d").unwrap().items().count(), 0);
        assert_eq!(Json::parse("{\"a\": 1} trailing"), None);
        assert_eq!(Json::parse("{\"a\": "), None);
        assert_eq!(Json::parse("[1, 2"), None);
    }

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
