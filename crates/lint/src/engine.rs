//! File walking, per-file lexical context (test-block detection,
//! `fl-lint: allow` parsing) and findings.

use crate::tokens::{self, Token, TokenKind};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// A confirmed rule violation at a workspace location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id.
    pub rule: &'static str,
    /// What was found.
    pub message: String,
    /// How to fix it.
    pub hint: &'static str,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {} (fix: {})",
            self.file, self.line, self.rule, self.message, self.hint
        )
    }
}

/// Lexed file plus the derived facts the audit needs: significant-token
/// index, test-code line spans, and allow annotations.
pub struct FileContext {
    src: String,
    tokens: Vec<Token>,
    sig: Vec<usize>,
    test_lines: HashSet<u32>,
    allows: HashMap<u32, Vec<String>>,
}

impl fmt::Debug for FileContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FileContext")
            .field("tokens", &self.tokens.len())
            .finish_non_exhaustive()
    }
}

impl FileContext {
    /// Lexes `src` and derives test spans + allow annotations.
    pub fn new(src: &str) -> Self {
        let tokens = tokens::tokenize(src);
        let sig: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                !matches!(
                    t.kind,
                    TokenKind::LineComment | TokenKind::BlockComment | TokenKind::DocComment
                )
            })
            .map(|(i, _)| i)
            .collect();
        let mut ctx = FileContext {
            src: src.to_string(),
            tokens,
            sig,
            test_lines: HashSet::new(),
            allows: HashMap::new(),
        };
        ctx.test_lines = ctx.compute_test_lines();
        ctx.allows = ctx.compute_allows();
        ctx
    }

    /// Indices (into the raw token vec) of non-comment tokens.
    pub fn sig(&self) -> &[usize] {
        &self.sig
    }

    /// The raw token at index `i` (clamped to the last token).
    pub fn tok(&self, i: usize) -> &Token {
        let last = self.tokens.len().saturating_sub(1);
        &self.tokens[i.min(last)]
    }

    /// Source text of token `i`.
    pub fn text(&self, i: usize) -> &str {
        self.tok(i).text(&self.src)
    }

    /// Whether token `i` is an identifier with text `s`.
    pub fn is_ident(&self, i: usize, s: &str) -> bool {
        self.tok(i).kind == TokenKind::Ident && self.text(i) == s
    }

    /// Whether token `i` is the punctuation char `c`.
    pub fn is_punct(&self, i: usize, c: char) -> bool {
        self.tok(i).kind == TokenKind::Punct && self.text(i).starts_with(c)
    }

    /// 1-based line of token `i`.
    pub fn line_of(&self, i: usize) -> u32 {
        self.tok(i).line
    }

    /// Whether `line` falls inside a `#[cfg(test)]` module or a
    /// `#[test]` function body.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_lines.contains(&line)
    }

    /// Marks every line inside `#[cfg(test)] mod … { … }` blocks and
    /// `#[test]`/`#[cfg(test)]`-gated fn bodies as test code.
    fn compute_test_lines(&self) -> HashSet<u32> {
        let mut lines = HashSet::new();
        let sig = &self.sig;
        let mut i = 0usize;
        while i + 3 < sig.len() {
            // Match `#[cfg(test…` or `#[test]`.
            let is_attr_start = self.is_punct(sig[i], '#') && self.is_punct(sig[i + 1], '[');
            if !is_attr_start {
                i += 1;
                continue;
            }
            let gated = (self.is_ident(sig[i + 2], "cfg")
                && self.is_punct(sig[i + 3], '(')
                && i + 4 < sig.len()
                && self.is_ident(sig[i + 4], "test"))
                || (self.is_ident(sig[i + 2], "test") && self.is_punct(sig[i + 3], ']'));
            if !gated {
                i += 1;
                continue;
            }
            // Skip to the end of this attribute.
            let mut j = i + 2;
            let mut bracket_depth = 1i32;
            while j < sig.len() && bracket_depth > 0 {
                if self.is_punct(sig[j], '[') {
                    bracket_depth += 1;
                } else if self.is_punct(sig[j], ']') {
                    bracket_depth -= 1;
                }
                j += 1;
            }
            // Scan forward (through further attributes and qualifiers)
            // for the item body `{`; give up at `;` (e.g. a gated
            // `use`).
            let mut body = None;
            let mut k = j;
            while k < sig.len() && k < j + 64 {
                if self.is_punct(sig[k], '{') {
                    body = Some(k);
                    break;
                }
                if self.is_punct(sig[k], ';') {
                    break;
                }
                k += 1;
            }
            let Some(open) = body else {
                i = j;
                continue;
            };
            // Mark the brace-matched span.
            let mut depth = 0i32;
            let mut m = open;
            let start_line = self.line_of(sig[open]);
            let mut end_line = start_line;
            while m < sig.len() {
                if self.is_punct(sig[m], '{') {
                    depth += 1;
                } else if self.is_punct(sig[m], '}') {
                    depth -= 1;
                    if depth == 0 {
                        end_line = self.line_of(sig[m]);
                        break;
                    }
                }
                m += 1;
            }
            if depth != 0 {
                // Unbalanced (shouldn't happen on real code): mark to
                // EOF conservatively.
                end_line = self.tokens.last().map(|t| t.line).unwrap_or(start_line);
            }
            for l in self.line_of(sig[i])..=end_line {
                lines.insert(l);
            }
            i = m.max(j);
        }
        lines
    }

    /// Parses `// fl-lint: allow(rule-a, rule-b): justification`
    /// comments. The annotation applies to its own line and — when the
    /// comment stands alone on its line — to the next line of *code*,
    /// skipping over any continuation comment lines in between.
    fn compute_allows(&self) -> HashMap<u32, Vec<String>> {
        let sig_lines: std::collections::HashSet<u32> =
            self.sig.iter().map(|&i| self.tokens[i].line).collect();
        let comment_lines: std::collections::HashSet<u32> = self
            .tokens
            .iter()
            .filter(|t| matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .map(|t| t.line)
            .collect();
        let mut allows: HashMap<u32, Vec<String>> = HashMap::new();
        for t in &self.tokens {
            if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
                continue;
            }
            let text = t.text(&self.src);
            let Some(at) = text.find("fl-lint: allow(") else {
                continue;
            };
            let after = &text[at + "fl-lint: allow(".len()..];
            let Some(close) = after.find(')') else {
                continue;
            };
            let rules: Vec<String> = after[..close]
                .split(',')
                .map(|r| r.trim().to_string())
                .filter(|r| !r.is_empty())
                .collect();
            if rules.is_empty() {
                continue;
            }
            allows.entry(t.line).or_default().extend(rules.clone());
            // Standalone comment: also cover the next line.
            let line_start = self.src[..t.start].rfind('\n').map(|p| p + 1).unwrap_or(0);
            let standalone = self.src[line_start..t.start]
                .chars()
                .all(char::is_whitespace);
            if standalone {
                // Skip continuation comment lines so a multi-line
                // justification still covers the code it precedes.
                let mut target = t.line + 1;
                while comment_lines.contains(&target) && !sig_lines.contains(&target) {
                    target += 1;
                }
                allows.entry(target).or_default().extend(rules);
            }
        }
        allows
    }

    /// Whether `rule` is allowed (suppressed) on `line`.
    pub fn is_allowed(&self, rule: &str, line: u32) -> bool {
        self.allows
            .get(&line)
            .is_some_and(|rules| rules.iter().any(|r| r == rule))
    }

    /// Every (line, rule) annotation, so a gate can check that each
    /// names a real rule: a typo'd id silently suppresses nothing.
    // fl-lint: allow(test-only-pub): tests/lint_gate.rs checks every allow's rule id with it
    pub fn annotated_rules(&self) -> impl Iterator<Item = (u32, &str)> {
        self.allows
            .iter()
            .flat_map(|(line, rules)| rules.iter().map(move |r| (*line, r.as_str())))
    }
}

/// Appends to `out` the path of every file under `dir` whose name `keep`
/// accepts, outside hidden directories and those named in `skip`.
pub(crate) fn walk(dir: &Path, skip: &[&str], keep: fn(&str) -> bool, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if !name.starts_with('.') && !skip.contains(&name.as_str()) {
                walk(&path, skip, keep, out);
            }
        } else if keep(&name) {
            out.push(path);
        }
    }
}

/// Rule id of the compiler-run audit [`crate::dead_pub`], the one rule
/// an `fl-lint: allow(<rule>)` comment may name.
pub const TEST_ONLY_PUB: &str = "test-only-pub";

/// `path` relative to `root`, `/`-separated.
pub(crate) fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}
