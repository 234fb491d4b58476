//! File walking, per-file lexical context (test-block detection,
//! `fl-lint: allow` parsing), rule scoping, and finding assembly.

use crate::rules::{Rule, RULES};
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

impl Finding {
    /// Serializes the finding as a single JSON object (hand-rolled;
    /// fl-lint is dependency-free by design).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\",\"hint\":\"{}\"}}",
            json_escape(&self.file),
            self.line,
            self.rule,
            json_escape(&self.message),
            json_escape(self.hint)
        )
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Lexed file plus the derived facts rules need: significant-token
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

    /// Sliding windows of `n` significant-token indices.
    pub fn sig_windows(&self, n: usize) -> impl Iterator<Item = &[usize]> {
        self.sig.windows(n)
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
        self.tok(i).kind == TokenKind::Punct && self.text(i).chars().next() == Some(c)
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

    /// Whether a doc comment (or `#[doc = …]` attribute) immediately
    /// precedes raw token `idx`, looking through attributes and plain
    /// comments.
    pub fn has_doc_before(&self, idx: usize) -> bool {
        self.doc_before(idx).is_some()
    }

    /// The item documentation immediately preceding raw token `idx`,
    /// looking through attributes and plain comments: the outer doc
    /// comments and `#[doc = …]` attributes' source, nearest first, or
    /// `None` when there is none.
    pub fn doc_before(&self, idx: usize) -> Option<String> {
        let mut docs: Vec<&str> = Vec::new();
        let mut j = idx;
        while j > 0 {
            j -= 1;
            let t = &self.tokens[j];
            match t.kind {
                TokenKind::DocComment => {
                    // Inner docs (`//!`, `/*!`) document the enclosing
                    // module, not the following item.
                    let text = t.text(&self.src);
                    if text.starts_with("//!") || text.starts_with("/*!") {
                        break;
                    }
                    docs.push(text);
                }
                TokenKind::LineComment | TokenKind::BlockComment => continue,
                TokenKind::Punct if t.text(&self.src) == "]" => {
                    // Skip the attribute `#[ … ]`; `#[doc = …]` counts
                    // as documentation.
                    let end = t.end;
                    let mut depth = 1i32;
                    let mut saw_doc = false;
                    while j > 0 && depth > 0 {
                        j -= 1;
                        let u = &self.tokens[j];
                        match u.text(&self.src) {
                            "]" if u.kind == TokenKind::Punct => depth += 1,
                            "[" if u.kind == TokenKind::Punct => depth -= 1,
                            "doc" if u.kind == TokenKind::Ident => saw_doc = true,
                            _ => {}
                        }
                    }
                    if saw_doc {
                        docs.push(&self.src[self.tokens[j].start..end]);
                    }
                    // Step over the leading `#`.
                    if j > 0 && self.tokens[j - 1].text(&self.src) == "#" {
                        j -= 1;
                    }
                }
                _ => break,
            }
        }
        (!docs.is_empty()).then(|| docs.join("\n"))
    }

    /// The comment lines directly above the line of raw token `idx`, up
    /// to the first line that is not a `//` comment, nearest first.
    pub fn comment_lines_above(&self, idx: usize) -> Vec<&str> {
        let lines: Vec<&str> = self.src.lines().collect();
        let above = (self.line_of(idx) as usize).saturating_sub(1);
        lines[..above.min(lines.len())]
            .iter()
            .rev()
            .map(|line| line.trim_start())
            .take_while(|line| line.starts_with("//"))
            .collect()
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

    /// Allow annotations that matched no finding would be dead — list
    /// every (line, rule) annotation so the engine can cross-check
    /// rule ids are real.
    pub fn annotated_rules(&self) -> impl Iterator<Item = (u32, &str)> {
        self.allows
            .iter()
            .flat_map(|(line, rules)| rules.iter().map(move |r| (*line, r.as_str())))
    }
}

/// Whether `rel` (workspace-relative, `/`-separated) lies in a test or
/// example tree — code that never runs against real devices.
fn in_test_tree(rel: &str) -> bool {
    rel.starts_with("tests/")
        || rel.starts_with("examples/")
        || rel.contains("/tests/")
        || rel.contains("/examples/")
}

fn rule_applies_to_path(rule: &Rule, rel: &str) -> bool {
    if rule.exclude.iter().any(|p| rel.starts_with(p)) {
        return false;
    }
    if !rule.applies_to_tests && in_test_tree(rel) {
        return false;
    }
    rule.include.is_empty() || rule.include.iter().any(|p| rel.starts_with(p))
}

/// Lints one file's source as if it lived at `rel` (workspace-relative
/// path, `/`-separated). This is the unit the fixture tests drive.
pub fn lint_source(rel: &str, src: &str) -> Vec<Finding> {
    let ctx = FileContext::new(src);
    let mut findings = Vec::new();
    for rule in RULES {
        if !rule_applies_to_path(rule, rel) {
            continue;
        }
        for v in (rule.check)(&ctx) {
            if !rule.applies_to_tests && ctx.is_test_line(v.line) {
                continue;
            }
            if ctx.is_allowed(rule.id, v.line) {
                continue;
            }
            findings.push(Finding {
                file: rel.to_string(),
                line: v.line,
                rule: rule.id,
                message: v.message,
                hint: rule.hint,
            });
        }
    }
    // Annotations naming unknown rules are themselves findings: a
    // typo'd allow() silently disables nothing and should not pass
    // review.
    let mut annotated: Vec<(u32, &str)> = ctx.annotated_rules().collect();
    annotated.sort_unstable();
    let mut reported: Vec<(u32, &str)> = Vec::new();
    for (line, rule) in annotated {
        if crate::rules::rule_by_id(rule).is_none() && rule != TEST_ONLY_PUB {
            // A standalone annotation registers on its own line and on
            // the line it covers; report the typo once.
            if reported
                .iter()
                .any(|&(l, r)| r == rule && line.abs_diff(l) <= 1)
            {
                continue;
            }
            reported.push((line, rule));
            findings.push(Finding {
                file: rel.to_string(),
                line,
                rule: "unknown-allow",
                message: format!("`fl-lint: allow({rule})` names no known rule"),
                hint: "rule ids: see `fl-lint --rules` or DESIGN.md \"Invariants & release gates\"",
            });
        }
    }
    findings
}

/// Collects the workspace `.rs` files the gate lints: `crates/*/src`,
/// `crates/*/tests`, `src/`, `tests/`, `examples/`. Skips `target/`,
/// `vendor/` (stand-in crates are not workspace code), and lint
/// fixtures (deliberate violations).
pub fn workspace_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        let skip = ["target", "vendor", "fixtures"];
        walk(
            &root.join(top),
            &skip,
            |name| name.ends_with(".rs"),
            &mut files,
        );
    }
    files.sort();
    files
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

/// The allowlist data file, workspace-relative.
pub const WALL_CLOCK_ALLOWLIST: &str = "scripts/wall_clock_allowlist.txt";

/// Audit `allowlist-drift`: every wall-clock lint escape under
/// `crates/` must be accounted for, count-per-file, in
/// `scripts/wall_clock_allowlist.txt`. A new live-clock site needs
/// review — the allowlist must be updated in the same change. This
/// replaces the grep/diff block `scripts/check.sh` used to carry;
/// comparison is content-wise (per-file counts), not positional, so
/// reordering the allowlist is not drift.
pub fn audit_wall_clock_allowlist(root: &Path) -> Vec<Finding> {
    const HINT: &str =
        "review the new live-clock site and update scripts/wall_clock_allowlist.txt in the same change";
    // Built from parts so this file's own source never matches it.
    let needle: String = ["fl-lint: allow", "(wall-clock)"].concat();
    let mut findings = Vec::new();

    // Fixture trees count too: the shell audit this replaced read them.
    let mut files = Vec::new();
    walk(
        &root.join("crates"),
        &["target", "vendor"],
        |name| name.ends_with(".rs"),
        &mut files,
    );
    files.sort();
    let mut actual: std::collections::BTreeMap<String, u64> = Default::default();
    for path in files {
        let rel = relative(root, &path);
        match std::fs::read_to_string(&path) {
            Ok(src) => {
                let n = src.lines().filter(|l| l.contains(&needle)).count() as u64;
                if n > 0 {
                    actual.insert(rel, n);
                }
            }
            Err(err) => findings.push(Finding {
                file: rel,
                line: 0,
                rule: "allowlist-drift",
                message: format!("could not read file for the wall-clock audit: {err}"),
                hint: HINT,
            }),
        }
    }

    let listed_src = match std::fs::read_to_string(root.join(WALL_CLOCK_ALLOWLIST)) {
        Ok(s) => s,
        Err(err) => {
            findings.push(Finding {
                file: WALL_CLOCK_ALLOWLIST.to_string(),
                line: 0,
                rule: "allowlist-drift",
                message: format!("could not read the allowlist: {err}"),
                hint: HINT,
            });
            return findings;
        }
    };
    let mut listed: std::collections::BTreeMap<String, u64> = Default::default();
    for (idx, line) in listed_src.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match line
            .split_once(' ')
            .and_then(|(n, p)| n.parse::<u64>().ok().map(|n| (n, p.trim().to_string())))
        {
            Some((count, path)) if count > 0 => {
                listed.insert(path, count);
            }
            _ => findings.push(Finding {
                file: WALL_CLOCK_ALLOWLIST.to_string(),
                line: idx as u32 + 1,
                rule: "allowlist-drift",
                message: format!("malformed allowlist line `{line}` (want `<count> <path>`)"),
                hint: HINT,
            }),
        }
    }

    for (file, &count) in &actual {
        match listed.get(file) {
            None => findings.push(Finding {
                file: file.clone(),
                line: 0,
                rule: "allowlist-drift",
                message: format!(
                    "{count} unaccounted wall-clock allow escape(s); the allowlist has no entry"
                ),
                hint: HINT,
            }),
            Some(&want) if want != count => findings.push(Finding {
                file: file.clone(),
                line: 0,
                rule: "allowlist-drift",
                message: format!("allowlist says {want} wall-clock allow escape(s), found {count}"),
                hint: HINT,
            }),
            Some(_) => {}
        }
    }
    for file in listed.keys() {
        if !actual.contains_key(file) {
            findings.push(Finding {
                file: WALL_CLOCK_ALLOWLIST.to_string(),
                line: 0,
                rule: "allowlist-drift",
                message: format!("stale allowlist entry: `{file}` has no wall-clock allow escapes"),
                hint: HINT,
            });
        }
    }
    findings
}

/// Rule id of the compiler-run audit [`crate::dead_pub`], whose allow
/// comments the per-file pass must accept.
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

/// Lints the whole workspace rooted at `root`. Returns findings plus
/// the number of files scanned; I/O errors on individual files surface
/// as findings rather than aborting the gate.
pub fn lint_workspace(root: &Path) -> (Vec<Finding>, usize) {
    let files = workspace_files(root);
    let scanned = files.len();
    let mut findings = Vec::new();
    for path in files {
        let rel = relative(root, &path);
        match std::fs::read_to_string(&path) {
            Ok(src) => findings.extend(lint_source(&rel, &src)),
            Err(err) => findings.push(Finding {
                file: rel,
                line: 0,
                rule: "io-error",
                message: format!("could not read file: {err}"),
                hint: "the release gate must see every source file",
            }),
        }
    }
    findings.extend(audit_wall_clock_allowlist(root));
    findings.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.line.cmp(&b.line))
            .then(a.rule.cmp(b.rule))
    });
    (findings, scanned)
}
