//! A lightweight Rust tokenizer: just enough lexical structure to audit,
//! with exact comment/string awareness so the audit's patterns never
//! match inside doc comments, string literals, or char literals.
//!
//! Handles: line/block comments (nested, doc vs plain), string
//! literals with escapes, raw strings (`r"…"`, `r#"…"#`), byte and
//! C-string prefixes (`b""`, `br#""#`, `c""`, `cr#""#`), raw
//! identifiers (`r#match`), char-literal vs lifetime disambiguation,
//! identifiers, numbers, and single-char punctuation. Line numbers are
//! tracked through multi-line tokens.

/// Lexical class of a [`Token`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (including raw identifiers).
    Ident,
    /// Numeric literal (integer part; `1.5` lexes as Number `.` Number).
    Number,
    /// Single punctuation character.
    Punct,
    /// String literal of any flavor (plain, raw, byte, C).
    Str,
    /// Character or byte-character literal.
    Char,
    /// Lifetime such as `'a`.
    Lifetime,
    /// Non-doc `//` comment.
    LineComment,
    /// Non-doc `/* */` comment.
    BlockComment,
    /// Doc comment: `///`, `//!`, `/** */`, or `/*! */`.
    DocComment,
}

/// One lexed token: byte span into the source plus the 1-based line it
/// starts on.
#[derive(Debug, Clone, Copy)]
pub struct Token {
    /// Lexical class.
    pub kind: TokenKind,
    /// Byte offset of the token's first character.
    pub start: usize,
    /// Byte offset one past the token's last character.
    pub end: usize,
    /// 1-based source line of the token's first character.
    pub line: u32,
}

impl Token {
    /// The token's text within `src`.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        src.get(self.start..self.end).unwrap_or("")
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `src` into tokens. Never fails: unrecognized bytes become
/// single-char `Punct` tokens, and unterminated literals run to EOF.
pub fn tokenize(src: &str) -> Vec<Token> {
    let chars: Vec<(usize, char)> = src.char_indices().collect();
    let n = chars.len();
    let eof = src.len();
    let mut tokens = Vec::new();
    let mut line: u32 = 1;
    let mut i = 0usize;

    let offset = |idx: usize| if idx < n { chars[idx].0 } else { eof };

    while i < n {
        let (pos, c) = chars[i];
        let start_line = line;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            _ if c.is_whitespace() => {
                i += 1;
            }
            '/' if i + 1 < n && chars[i + 1].1 == '/' => {
                let mut j = i;
                while j < n && chars[j].1 != '\n' {
                    j += 1;
                }
                let end = offset(j);
                let text = src.get(pos..end).unwrap_or("");
                let kind = if (text.starts_with("///") && !text.starts_with("////"))
                    || text.starts_with("//!")
                {
                    TokenKind::DocComment
                } else {
                    TokenKind::LineComment
                };
                tokens.push(Token {
                    kind,
                    start: pos,
                    end,
                    line: start_line,
                });
                i = j;
            }
            '/' if i + 1 < n && chars[i + 1].1 == '*' => {
                // Nested block comment.
                let mut depth = 1u32;
                let mut j = i + 2;
                while j < n && depth > 0 {
                    match chars[j].1 {
                        '\n' => line += 1,
                        '*' if j + 1 < n && chars[j + 1].1 == '/' => {
                            depth -= 1;
                            j += 1;
                        }
                        '/' if j + 1 < n && chars[j + 1].1 == '*' => {
                            depth += 1;
                            j += 1;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                let end = offset(j);
                let text = src.get(pos..end).unwrap_or("");
                let kind = if (text.starts_with("/**") && !text.starts_with("/***"))
                    || text.starts_with("/*!")
                {
                    TokenKind::DocComment
                } else {
                    TokenKind::BlockComment
                };
                tokens.push(Token {
                    kind,
                    start: pos,
                    end,
                    line: start_line,
                });
                i = j;
            }
            '\'' => {
                // Char literal or lifetime. `'\...'` and `'x'` are
                // chars; `'ident` (no closing quote) is a lifetime.
                let is_char = if i + 1 < n && chars[i + 1].1 == '\\' {
                    true
                } else {
                    i + 2 < n && chars[i + 2].1 == '\''
                };
                if is_char {
                    let mut j = i + 1;
                    while j < n {
                        match chars[j].1 {
                            '\\' => j += 2,
                            '\'' => {
                                j += 1;
                                break;
                            }
                            '\n' => {
                                // Unterminated; bail at line end.
                                break;
                            }
                            _ => j += 1,
                        }
                    }
                    tokens.push(Token {
                        kind: TokenKind::Char,
                        start: pos,
                        end: offset(j),
                        line: start_line,
                    });
                    i = j;
                } else {
                    let mut j = i + 1;
                    while j < n && is_ident_continue(chars[j].1) {
                        j += 1;
                    }
                    tokens.push(Token {
                        kind: TokenKind::Lifetime,
                        start: pos,
                        end: offset(j),
                        line: start_line,
                    });
                    i = j;
                }
            }
            '"' => {
                let (j, newlines) = scan_plain_string(&chars, i);
                tokens.push(Token {
                    kind: TokenKind::Str,
                    start: pos,
                    end: offset(j),
                    line: start_line,
                });
                line += newlines;
                i = j;
            }
            _ if is_ident_start(c) => {
                let mut j = i + 1;
                while j < n && is_ident_continue(chars[j].1) {
                    j += 1;
                }
                let ident = src.get(pos..offset(j)).unwrap_or("");
                let is_string_prefix = matches!(ident, "r" | "b" | "br" | "rb" | "c" | "cr");
                if is_string_prefix && j < n && chars[j].1 == '"' {
                    // Prefixed string: raw only if the prefix contains `r`.
                    let raw = ident.contains('r');
                    let (k, newlines) = if raw {
                        scan_raw_string(&chars, j, 0)
                    } else {
                        scan_plain_string(&chars, j)
                    };
                    tokens.push(Token {
                        kind: TokenKind::Str,
                        start: pos,
                        end: offset(k),
                        line: start_line,
                    });
                    line += newlines;
                    i = k;
                } else if is_string_prefix && j < n && chars[j].1 == '#' {
                    // Count hashes: `r#"…"#` is a raw string,
                    // `r#ident` is a raw identifier.
                    let mut hashes = 0usize;
                    let mut k = j;
                    while k < n && chars[k].1 == '#' {
                        hashes += 1;
                        k += 1;
                    }
                    if k < n && chars[k].1 == '"' {
                        let (m, newlines) = scan_raw_string(&chars, k, hashes);
                        tokens.push(Token {
                            kind: TokenKind::Str,
                            start: pos,
                            end: offset(m),
                            line: start_line,
                        });
                        line += newlines;
                        i = m;
                    } else if ident == "r" && hashes == 1 && k < n && is_ident_start(chars[k].1) {
                        let mut m = k + 1;
                        while m < n && is_ident_continue(chars[m].1) {
                            m += 1;
                        }
                        tokens.push(Token {
                            kind: TokenKind::Ident,
                            start: pos,
                            end: offset(m),
                            line: start_line,
                        });
                        i = m;
                    } else {
                        tokens.push(Token {
                            kind: TokenKind::Ident,
                            start: pos,
                            end: offset(j),
                            line: start_line,
                        });
                        i = j;
                    }
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Ident,
                        start: pos,
                        end: offset(j),
                        line: start_line,
                    });
                    i = j;
                }
            }
            _ if c.is_ascii_digit() => {
                let mut j = i + 1;
                while j < n && is_ident_continue(chars[j].1) {
                    j += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Number,
                    start: pos,
                    end: offset(j),
                    line: start_line,
                });
                i = j;
            }
            _ => {
                tokens.push(Token {
                    kind: TokenKind::Punct,
                    start: pos,
                    end: offset(i + 1),
                    line: start_line,
                });
                i += 1;
            }
        }
    }
    tokens
}

/// Scans a `"…"` string starting at the opening quote index; returns
/// (index one past the closing quote, newline count inside).
fn scan_plain_string(chars: &[(usize, char)], open: usize) -> (usize, u32) {
    let n = chars.len();
    let mut newlines = 0u32;
    let mut j = open + 1;
    while j < n {
        match chars[j].1 {
            '\\' => {
                // A `\` line continuation escapes a newline too.
                newlines += u32::from(chars.get(j + 1).is_some_and(|c| c.1 == '\n'));
                j += 2;
            }
            '\n' => {
                newlines += 1;
                j += 1;
            }
            '"' => return (j + 1, newlines),
            _ => j += 1,
        }
    }
    (n, newlines)
}

/// Scans a raw string whose opening quote is at `open`, expecting
/// `hashes` trailing `#` after the closing quote.
fn scan_raw_string(chars: &[(usize, char)], open: usize, hashes: usize) -> (usize, u32) {
    let n = chars.len();
    let mut newlines = 0u32;
    let mut j = open + 1;
    while j < n {
        match chars[j].1 {
            '\n' => {
                newlines += 1;
                j += 1;
            }
            '"' => {
                let mut k = j + 1;
                let mut seen = 0usize;
                while k < n && seen < hashes && chars[k].1 == '#' {
                    seen += 1;
                    k += 1;
                }
                if seen == hashes {
                    return (k, newlines);
                }
                j += 1;
            }
            _ => j += 1,
        }
    }
    (n, newlines)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        tokenize(src)
            .iter()
            .map(|t| (t.kind, t.text(src).to_string()))
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_their_contents() {
        // The pattern-bearing text lives only inside literals and
        // comments; no Ident token may surface it.
        let src = r###"
let a = "Instant::now() .unwrap() panic!";
let b = r#"thread::sleep println!"#;
// Instant::now() in a line comment
/* .unwrap() in a block comment */
/// doc comment mentioning panic!(..)
let c = 'x';
let d = '\'';
"###;
        let toks = kinds(src);
        for (kind, text) in &toks {
            if *kind == TokenKind::Ident {
                assert!(
                    !["Instant", "unwrap", "panic", "thread", "sleep", "println"]
                        .contains(&text.as_str()),
                    "pattern ident {text:?} leaked out of a literal/comment"
                );
            }
        }
        // The literals themselves are single Str/Comment tokens.
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Str && t.contains("Instant::now")));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::LineComment && t.contains("Instant::now")));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::BlockComment && t.contains(".unwrap()")));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::DocComment && t.contains("panic!")));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) {}");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Lifetime && t == "'a"));
        assert!(!toks.iter().any(|(k, _)| *k == TokenKind::Char));
    }

    #[test]
    fn nested_block_comments_terminate_correctly() {
        let toks = kinds("/* outer /* inner */ still outer */ after");
        assert_eq!(toks[0].0, TokenKind::BlockComment);
        assert_eq!(toks[1], (TokenKind::Ident, "after".to_string()));
    }

    #[test]
    fn raw_identifiers_lex_as_idents() {
        let toks = kinds("let r#match = 1;");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "r#match"));
    }

    #[test]
    fn line_numbers_survive_multiline_tokens() {
        let src = "let a = \"multi\nline\nstring\";\nlet b = 2;";
        let toks = tokenize(src);
        let b_tok = toks
            .iter()
            .find(|t| t.text(src) == "b")
            .expect("token b present");
        assert_eq!(b_tok.line, 4);
        // A `\` line continuation still ends its line.
        let src = "let a = \"one \\\n two\";\nlet b = 2;";
        let b_tok = tokenize(src)
            .into_iter()
            .find(|t| t.text(src) == "b")
            .unwrap();
        assert_eq!(b_tok.line, 3);
    }

    #[test]
    fn doc_vs_plain_comment_classification() {
        let toks =
            kinds("/// doc\n//! inner doc\n// plain\n//// not doc\n/** blockdoc */\n/* plain */");
        let got: Vec<TokenKind> = toks.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            got,
            vec![
                TokenKind::DocComment,
                TokenKind::DocComment,
                TokenKind::LineComment,
                TokenKind::LineComment,
                TokenKind::DocComment,
                TokenKind::BlockComment,
            ]
        );
    }
}
