//! The lint rules: each is a pure function from a lexed file to
//! findings. Scoping (which paths a rule applies to, whether test code
//! is exempt) lives in [`crate::engine`]; rules only look at tokens.
//!
//! Every rule enforces a paper-derived invariant; see the
//! "Invariants & release gates" section of `DESIGN.md` for the mapping
//! from rule to paper section and the burn-down rationale.

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

/// Static description of a rule: identity, scoping, and fix hint.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable rule id, used in findings and `fl-lint: allow(<id>)`.
    pub id: &'static str,
    /// Path prefixes (workspace-relative, `/`-separated) the rule
    /// applies to. Empty means every linted file.
    pub include: &'static [&'static str],
    /// Path prefixes exempt from the rule (takes precedence).
    pub exclude: &'static [&'static str],
    /// Whether code inside `#[cfg(test)]`/`#[test]` blocks or
    /// `tests/`/`examples/` trees is linted.
    pub applies_to_tests: bool,
    /// One-line fix guidance attached to findings.
    pub hint: &'static str,
    /// The checker.
    pub check: fn(&FileContext) -> Vec<Violation>,
}

/// The rule set enforced as the release gate.
pub const RULES: &[Rule] = &[
    Rule {
        id: "wall-clock",
        include: &[
            "crates/sim/",
            "crates/core/",
            "crates/actors/",
            "crates/server/",
        ],
        exclude: &[],
        applies_to_tests: false,
        hint: "inject time via the sim clock / an epoch parameter so replays are deterministic",
        check: check_wall_clock,
    },
    Rule {
        id: "unwrap",
        include: &["crates/server/", "crates/actors/", "crates/secagg/"],
        exclude: &[],
        applies_to_tests: false,
        hint: "return FlError (or the crate error type) so aggregator/coordinator crashes stay recoverable",
        check: check_unwrap,
    },
    Rule {
        id: "panic",
        include: &["crates/", "src/"],
        exclude: &["crates/bench/"],
        applies_to_tests: false,
        hint: "propagate an error instead; panics in the control plane abort round state the paper requires to survive",
        check: check_panic,
    },
    Rule {
        id: "std-sync-lock",
        include: &[],
        // fl-race is the one place allowed to touch raw primitives: its
        // wrappers are what everyone else must build on.
        exclude: &["crates/race/"],
        applies_to_tests: true,
        hint: "use fl_race::{Mutex, RwLock, Condvar}: site-tagged wrappers feed the lock-graph deadlock gate",
        check: check_std_sync_lock,
    },
    Rule {
        id: "sleep",
        include: &["crates/actors/", "crates/server/", "crates/device/"],
        exclude: &[],
        applies_to_tests: false,
        hint: "wait with recv_timeout on a channel so waits are interruptible and simulable",
        check: check_sleep,
    },
    Rule {
        id: "print",
        include: &["crates/", "src/"],
        exclude: &["crates/bench/", "crates/tools/", "crates/lint/"],
        applies_to_tests: false,
        hint: "emit a structured event through the fl-analytics event log instead of stdout",
        check: check_print,
    },
    Rule {
        id: "lock-order",
        include: &["crates/"],
        exclude: &[],
        applies_to_tests: false,
        hint: "narrow the first guard's scope (or drop() it) before acquiring the second lock",
        check: check_lock_order,
    },
    Rule {
        id: "missing-doc",
        // fl-wire and fl-secagg are linted in full (not just their
        // roots): the wire crate is the public protocol surface other
        // processes build against, and the secagg crate is the
        // correctness contract the live shards lean on. The
        // multi-tenancy modules (device lane arbitration, selector
        // demux, per-population telemetry) are the cross-population
        // isolation contract and get the same treatment, as does all
        // of fl-sim: its scenario engine and the entry points over it
        // are what every seeded sweep and the benchmark call by name.
        include: &[
            "crates/core/src/lib.rs",
            "crates/server/src/lib.rs",
            "crates/wire/src/",
            "crates/secagg/src/",
            "crates/device/src/tenancy.rs",
            "crates/server/src/selector.rs",
            "crates/analytics/src/overload.rs",
            "crates/sim/src/",
        ],
        exclude: &[],
        applies_to_tests: false,
        hint: "add a /// doc comment: crate roots are the API contract other crates build against",
        check: check_missing_doc,
    },
];

/// Looks up a rule by id.
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// Rule `wall-clock`: `Instant::now()` / `SystemTime::now()` in
/// deterministic paths. Matches the `<Type> :: now` token sequence, so
/// aliased imports (`use std::time::Instant as Clock`) are out of
/// scope by design — the rule is lexical.
fn check_wall_clock(ctx: &FileContext) -> Vec<Violation> {
    let mut out = Vec::new();
    for w in ctx.sig_windows(4) {
        let [a, b, c, d] = [w[0], w[1], w[2], w[3]];
        if (ctx.is_ident(a, "Instant") || ctx.is_ident(a, "SystemTime"))
            && ctx.is_punct(b, ':')
            && ctx.is_punct(c, ':')
            && ctx.is_ident(d, "now")
        {
            out.push(Violation {
                line: ctx.line_of(a),
                message: format!("`{}::now()` reads the wall clock", ctx.text(a)),
            });
        }
    }
    out
}

/// Rule `unwrap`: `.unwrap()` / `.expect(...)` in crash-recovery-
/// critical crates.
fn check_unwrap(ctx: &FileContext) -> Vec<Violation> {
    let mut out = Vec::new();
    for w in ctx.sig_windows(3) {
        let [a, b, c] = [w[0], w[1], w[2]];
        if ctx.is_punct(a, '.')
            && (ctx.is_ident(b, "unwrap") || ctx.is_ident(b, "expect"))
            && ctx.is_punct(c, '(')
        {
            out.push(Violation {
                line: ctx.line_of(b),
                message: format!("`.{}()` can panic the control plane", ctx.text(b)),
            });
        }
    }
    out
}

/// Rule `panic`: `panic!` / `todo!` / `unimplemented!` outside tests.
fn check_panic(ctx: &FileContext) -> Vec<Violation> {
    let mut out = Vec::new();
    for w in ctx.sig_windows(2) {
        let [a, b] = [w[0], w[1]];
        if (ctx.is_ident(a, "panic") || ctx.is_ident(a, "todo") || ctx.is_ident(a, "unimplemented"))
            && ctx.is_punct(b, '!')
        {
            out.push(Violation {
                line: ctx.line_of(a),
                message: format!("`{}!` aborts instead of propagating an error", ctx.text(a)),
            });
        }
    }
    out
}

/// Rule `std-sync-lock`: raw lock primitives bypassing the `fl-race`
/// instrumented wrappers — `std::sync::{Mutex, RwLock, Condvar}` and
/// `parking_lot::{Mutex, RwLock, Condvar}` — either as a full path or
/// grouped (`use std::sync::{Arc, Mutex}`). Raw locks are invisible to
/// the lock graph, so a nesting through one can deadlock without the
/// lock-audit gate ever seeing the edge.
fn check_std_sync_lock(ctx: &FileContext) -> Vec<Violation> {
    let mut out = Vec::new();
    let sig = ctx.sig();
    let mut i = 0usize;
    while i < sig.len() {
        // A `std :: sync` or `parking_lot` prefix opens a path /
        // use-group that may name lock types.
        let (start, origin) = if i + 3 < sig.len()
            && ctx.is_ident(sig[i], "std")
            && ctx.is_punct(sig[i + 1], ':')
            && ctx.is_punct(sig[i + 2], ':')
            && ctx.is_ident(sig[i + 3], "sync")
        {
            (i + 4, "std::sync")
        } else if ctx.is_ident(sig[i], "parking_lot") {
            (i + 1, "parking_lot")
        } else {
            i += 1;
            continue;
        };
        // Walk the remainder of the path / use-group up to the
        // statement end and flag lock types inside it.
        let mut j = start;
        let mut depth = 0i32;
        while j < sig.len() {
            let t = sig[j];
            if ctx.is_punct(t, '{') {
                depth += 1;
            } else if ctx.is_punct(t, '}') {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            } else if ctx.is_punct(t, ';') || (depth == 0 && ctx.is_punct(t, '(')) {
                break;
            } else if ctx.is_ident(t, "Mutex")
                || ctx.is_ident(t, "RwLock")
                || ctx.is_ident(t, "Condvar")
            {
                out.push(Violation {
                    line: ctx.line_of(t),
                    message: format!(
                        "raw `{origin}::{}` is invisible to the fl-race lock graph",
                        ctx.text(t)
                    ),
                });
            }
            j += 1;
        }
        i = j.max(i + 1);
    }
    out
}

/// Rule `sleep`: `thread::sleep` in actor/runtime crates.
fn check_sleep(ctx: &FileContext) -> Vec<Violation> {
    let mut out = Vec::new();
    for w in ctx.sig_windows(4) {
        let [a, b, c, d] = [w[0], w[1], w[2], w[3]];
        if ctx.is_ident(a, "thread")
            && ctx.is_punct(b, ':')
            && ctx.is_punct(c, ':')
            && ctx.is_ident(d, "sleep")
        {
            out.push(Violation {
                line: ctx.line_of(a),
                message: "`thread::sleep` blocks the actor thread and skews simulated time".into(),
            });
        }
    }
    out
}

/// Rule `print`: `println!`-family output outside reporting crates.
fn check_print(ctx: &FileContext) -> Vec<Violation> {
    let mut out = Vec::new();
    for w in ctx.sig_windows(2) {
        let [a, b] = [w[0], w[1]];
        if (ctx.is_ident(a, "println")
            || ctx.is_ident(a, "print")
            || ctx.is_ident(a, "eprintln")
            || ctx.is_ident(a, "eprint"))
            && ctx.is_punct(b, '!')
        {
            out.push(Violation {
                line: ctx.line_of(a),
                message: format!("`{}!` bypasses the analytics event log", ctx.text(a)),
            });
        }
    }
    out
}

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

/// Rule `missing-doc`: top-level `pub` items in designated crate roots
/// must carry a doc comment (or `#[doc = …]`). `pub use` re-exports
/// and restricted `pub(crate)`/`pub(super)` items are exempt.
fn check_missing_doc(ctx: &FileContext) -> Vec<Violation> {
    const ITEM_KEYWORDS: &[&str] = &[
        "fn", "struct", "enum", "trait", "mod", "type", "const", "static", "union",
    ];
    let mut out = Vec::new();
    let sig = ctx.sig();
    let mut depth = 0i32;
    for (k, &t) in sig.iter().enumerate() {
        if ctx.is_punct(t, '{') {
            depth += 1;
            continue;
        }
        if ctx.is_punct(t, '}') {
            depth -= 1;
            continue;
        }
        if depth != 0 || !ctx.is_ident(t, "pub") {
            continue;
        }
        // Restricted visibility is not public API.
        if k + 1 < sig.len() && ctx.is_punct(sig[k + 1], '(') {
            continue;
        }
        // Find the item keyword, skipping qualifiers.
        let mut j = k + 1;
        let mut item: Option<(&str, usize)> = None;
        while j < sig.len() && j < k + 6 {
            let u = sig[j];
            let text = ctx.text(u);
            if text == "use" {
                break;
            }
            if ITEM_KEYWORDS.contains(&text) {
                item = Some((text, j));
                break;
            }
            if !matches!(text, "unsafe" | "async" | "extern") && ctx.tok(u).kind != TokenKind::Str {
                break;
            }
            j += 1;
        }
        let Some((keyword, kw_idx)) = item else {
            continue;
        };
        let name = sig
            .get(kw_idx + 1)
            .map(|&u| ctx.text(u))
            .unwrap_or("<unnamed>");
        if !ctx.has_doc_before(t) {
            out.push(Violation {
                line: ctx.line_of(t),
                message: format!("public {keyword} `{name}` has no doc comment"),
            });
        }
    }
    out
}
