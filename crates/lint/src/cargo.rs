//! Running cargo and reading what it says: a mirror of a workspace's
//! sources under a work directory, one cargo command on it with JSON
//! messages, and those messages parsed. The `test-only-pub` audit
//! ([`crate::dead_pub`]) and the clippy gate's tests are built on it.

use crate::engine::{relative, walk};
use std::path::Path;
use std::process::Command;

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

/// A compiler message from cargo's `--message-format=json`.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// `error`, `warning`, ...
    pub level: String,
    /// `E0603`, `dead_code`, `clippy::panic`, ..., or empty.
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

/// `cargo <subcommand> --offline --message-format=json <args>` in `dir`
/// into `target`: its stdout and whether it passed. `Err` when cargo
/// could not run or failed before compiling anything (its stderr).
pub fn run(
    subcommand: &str,
    dir: &Path,
    target: &Path,
    args: &[&str],
) -> Result<(String, bool), String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let output = Command::new(cargo)
        .args([subcommand, "--offline", "--message-format=json"])
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

/// Whether cargo reads a file of this name: Rust sources, manifests and
/// clippy's configuration.
fn is_source(name: &str) -> bool {
    name.ends_with(".rs") || ["Cargo.toml", "Cargo.lock", "clippy.toml"].contains(&name)
}

/// Every file under `root` cargo reads, outside `target/` and hidden
/// directories, as `(root-relative path, text)` in path order.
pub fn sources(root: &Path) -> Result<Vec<(String, String)>, String> {
    let mut paths = Vec::new();
    walk(root, &["target"], is_source, &mut paths);
    paths.sort();
    paths
        .into_iter()
        .map(|path| match std::fs::read_to_string(&path) {
            Ok(src) => Ok((relative(root, &path), src)),
            Err(err) => Err(format!("{}: {err}", path.display())),
        })
        .collect()
}

/// Writes `files` under `tree`, each only when its bytes changed (so
/// cargo's fingerprints stay warm), and removes the sources `tree` holds
/// that `files` lacks.
pub fn mirror(tree: &Path, files: &[(String, String)]) -> Result<(), String> {
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
}
