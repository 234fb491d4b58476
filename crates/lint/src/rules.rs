//! The one per-file rule the compiler cannot check, `lock-order`: a pure
//! function from a lexed file to findings. What rustc and clippy check
//! instead (wall clock, sleep, raw locks, unwrap, panic, print, docs,
//! `unsafe`) is in the root `Cargo.toml`'s `[workspace.lints]`, the crate
//! roots and `clippy.toml`; see the "Invariants & release gates" section
//! of `DESIGN.md` for the mapping from rule to paper section.

use crate::engine::FileContext;
use crate::tokens::TokenKind;

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// 1-based source line.
    pub line: u32,
    /// What was found.
    pub message: String,
}

/// Static description of a rule: identity, fix hint and checker.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable rule id, used in findings and `fl-lint: allow(<id>)`.
    pub id: &'static str,
    /// One-line fix guidance attached to findings.
    pub hint: &'static str,
    /// The checker.
    pub check: fn(&FileContext) -> Vec<Violation>,
}

/// The per-file rules, run on every linted file outside test code.
pub const RULES: &[Rule] = &[Rule {
    id: "lock-order",
    hint: "narrow the first guard's scope (or drop() it) before acquiring the second lock",
    check: check_lock_order,
}];

/// Rule `lock-order`: heuristic two-guards-live detection. A `let`
/// binding whose initializer calls `.lock()` registers a live guard
/// for its enclosing block; any further `.lock()` while a guard is
/// live is a potential lock-ordering inversion. `drop(guard)` retires
/// a guard early. Statement-temporary guards (no `let`) are released
/// at the statement's end.
fn check_lock_order(ctx: &FileContext) -> Vec<Violation> {
    struct Guard {
        name: String,
        depth: i32,
    }
    let mut out = Vec::new();
    let sig = ctx.sig();
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0i32;
    // Span (in sig indices) of the `let` statement being scanned, with
    // the bound name, if any.
    let mut active_let: Option<(usize, String)> = None;
    let mut i = 0usize;
    while i < sig.len() {
        let t = sig[i];
        if ctx.is_punct(t, '{') {
            depth += 1;
        } else if ctx.is_punct(t, '}') {
            depth -= 1;
            guards.retain(|g| g.depth <= depth);
        } else if ctx.is_punct(t, ';') {
            if let Some((end, _)) = active_let {
                if i >= end {
                    active_let = None;
                }
            }
        } else if ctx.is_ident(t, "let") && active_let.is_none() {
            // Find the bound name (skip `mut`; tuple/struct patterns
            // get a placeholder) and the statement's end.
            let mut name = String::from("_");
            let mut j = i + 1;
            if j < sig.len() && ctx.is_ident(sig[j], "mut") {
                j += 1;
            }
            if j < sig.len() && ctx.tok(sig[j]).kind == TokenKind::Ident {
                name = ctx.text(sig[j]).to_string();
            }
            let mut end = i + 1;
            let mut d = 0i32;
            while end < sig.len() {
                let u = sig[end];
                if ctx.is_punct(u, '{') || ctx.is_punct(u, '(') || ctx.is_punct(u, '[') {
                    d += 1;
                } else if ctx.is_punct(u, '}') || ctx.is_punct(u, ')') || ctx.is_punct(u, ']') {
                    d -= 1;
                    if d < 0 {
                        break;
                    }
                } else if ctx.is_punct(u, ';') && d == 0 {
                    break;
                }
                end += 1;
            }
            active_let = Some((end, name));
        } else if ctx.is_ident(t, "drop")
            && i + 2 < sig.len()
            && ctx.is_punct(sig[i + 1], '(')
            && ctx.tok(sig[i + 2]).kind == TokenKind::Ident
        {
            let victim = ctx.text(sig[i + 2]);
            guards.retain(|g| g.name != victim);
        } else if ctx.is_punct(t, '.')
            && i + 2 < sig.len()
            && ctx.is_ident(sig[i + 1], "lock")
            && ctx.is_punct(sig[i + 2], '(')
        {
            if let Some(holder) = guards.last() {
                out.push(Violation {
                    line: ctx.line_of(sig[i + 1]),
                    message: format!(
                        "`.lock()` while guard `{}` is live: lock-ordering hazard",
                        holder.name
                    ),
                });
            }
            if let Some((end, ref name)) = active_let {
                if i < end {
                    guards.push(Guard {
                        name: name.clone(),
                        depth,
                    });
                }
            }
            i += 2;
        }
        i += 1;
    }
    out
}
