//! Rule `saturating-weights`: no bare `+`/`-`/`*` on `Weight`-typed
//! values outside `weight.rs`/`multiweight.rs`.
//!
//! `Weight`'s operator impls are *checked* — they panic on
//! overflow/underflow — which is the right behavior inside the weight
//! modules' own invariant-guarded code but a mid-pass crash hazard
//! everywhere else: congestion pressure saturates edges toward
//! `Weight::MAX`, and an aggregate like `total + w` on a saturated
//! graph aborts the whole route. Call sites outside the weight modules
//! must use `saturating_add`/`saturating_sub`/`scale` (or `checked_*`
//! with explicit handling).
//!
//! Detection is a per-file taint pass over the token stream: an
//! identifier annotated `: Weight`/`: MultiWeight` or initialized from
//! `Weight::…` is weight-tainted, and a bare binary `+`/`-`/`*` (or
//! `+=`/`-=`/`*=`) with a tainted operand is a diagnostic. Scope-blind
//! by design — a false positive is one justified allow-marker away,
//! while a false negative is a latent panic.

use std::collections::HashSet;

use crate::lexer::TokenKind;
use crate::{Diagnostic, FileCtx};

/// Rule name, as used in `allow(...)` markers.
pub const RULE: &str = "saturating-weights";

/// The modules that own `Weight`'s representation and its checked
/// operator impls; bare arithmetic is their prerogative.
fn exempt_path(path: &str) -> bool {
    path == "crates/graph/src/weight.rs"
        || path == "crates/graph/src/multiweight.rs"
        || path.starts_with("crates/lint/")
}

const WEIGHT_TYPES: &[&str] = &["Weight", "MultiWeight"];

/// Keywords that can precede an operator without making it binary
/// (`return -x`, `as *const T`, `&mut *p`, …).
const KEYWORDS: &[&str] = &[
    "let", "mut", "return", "if", "else", "match", "in", "as", "ref", "move", "fn", "impl", "pub",
    "use", "const", "static", "where", "for", "while", "loop", "break", "continue", "struct",
    "enum", "trait", "type", "mod", "crate", "super", "dyn", "unsafe", "async", "await",
];

pub fn check(ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
    if exempt_path(ctx.path) {
        return Vec::new();
    }
    let code: Vec<usize> = ctx.code_indices().collect();

    // --- taint pass: which identifiers hold Weight values ---------------
    let mut tainted: HashSet<&str> = HashSet::new();
    for (k, &i) in code.iter().enumerate() {
        let tok = &ctx.tokens[i];
        if tok.kind != TokenKind::Ident || KEYWORDS.contains(&tok.text.as_str()) {
            continue;
        }
        let next = |o: usize| code.get(k + o).map(|&j| &ctx.tokens[j]);
        // `other.x = Weight::…` is a *field* of some other value; tainting
        // the bare name would bleed onto unrelated locals called `x`.
        if k.checked_sub(1).is_some_and(|p| ctx.tokens[code[p]].is_punct(".")) {
            continue;
        }
        // `x: Weight` (let annotation, fn param, struct field) — but not
        // `x: Weight<...>`-style paths into other generics, which Weight
        // never has.
        let annotated = next(1).is_some_and(|t| t.is_punct(":"))
            && next(2).is_some_and(|t| {
                t.kind == TokenKind::Ident && WEIGHT_TYPES.contains(&t.text.as_str())
            })
            && next(3).is_none_or(|t| !t.is_punct("::"));
        // `x = Weight::...` (initialization from a constructor/constant).
        let constructed = next(1).is_some_and(|t| t.is_punct("="))
            && next(2).is_some_and(|t| {
                t.kind == TokenKind::Ident && WEIGHT_TYPES.contains(&t.text.as_str())
            })
            && next(3).is_some_and(|t| t.is_punct("::"));
        if annotated || constructed {
            tainted.insert(tok.text.as_str());
        }
    }
    if tainted.is_empty() {
        return Vec::new();
    }

    // --- operator pass ---------------------------------------------------
    let mut diags = Vec::new();
    for (k, &i) in code.iter().enumerate() {
        if ctx.in_test[i] {
            continue;
        }
        let tok = &ctx.tokens[i];
        if tok.kind != TokenKind::Punct {
            continue;
        }
        let op = tok.text.as_str();
        let compound = matches!(op, "+=" | "-=" | "*=");
        if !compound && !matches!(op, "+" | "-" | "*") {
            continue;
        }
        let prev = k.checked_sub(1).map(|p| &ctx.tokens[code[p]]);
        let next = code.get(k + 1).map(|&j| &ctx.tokens[j]);
        // Binary position: something value-like on the left.
        let left_valueish = prev.is_some_and(|t| match t.kind {
            TokenKind::Ident => !KEYWORDS.contains(&t.text.as_str()),
            TokenKind::Literal => true,
            TokenKind::Punct => t.text == ")" || t.text == "]",
            _ => false,
        });
        if !left_valueish {
            continue;
        }
        let left_name = prev.filter(|t| t.kind == TokenKind::Ident).map(|t| t.text.as_str());
        // First identifier of the right operand (skipping `&` and `(`),
        // with its offset so projections can be inspected.
        let right = match next {
            Some(t) if t.kind == TokenKind::Ident => Some((k + 1, t.text.as_str())),
            Some(t) if t.is_punct("&") || t.is_punct("(") => code
                .get(k + 2)
                .map(|&j| &ctx.tokens[j])
                .filter(|t| t.kind == TokenKind::Ident)
                .map(|t| (k + 2, t.text.as_str())),
            _ => None,
        };
        // `w.as_f64() - …` projects the Weight to a primitive first; the
        // arithmetic is not Weight arithmetic.
        let right_name = right
            .filter(|&(p, _)| {
                !(code.get(p + 1).is_some_and(|&j| ctx.tokens[j].is_punct("."))
                    && code
                        .get(p + 2)
                        .is_some_and(|&j| ctx.tokens[j].text.starts_with("as_")))
            })
            .map(|(_, name)| name);
        let offender = [left_name, right_name]
            .into_iter()
            .flatten()
            .find(|n| tainted.contains(n));
        if let Some(name) = offender {
            diags.push(Diagnostic {
                path: ctx.path.to_string(),
                line: tok.line,
                rule: RULE,
                message: format!(
                    "bare `{op}` on Weight-typed value `{name}` (panics on overflow)"
                ),
                hint: "use saturating_add/saturating_sub/scale (or checked_* with handling) — \
                       congestion drives weights toward Weight::MAX mid-pass"
                    .to_string(),
            });
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint_source;

    #[test]
    fn bare_add_on_annotated_weight_fires() {
        let src = "fn f(total: Weight, w: Weight) -> Weight { total + w }\n";
        let diags = lint_source("crates/core/src/newalgo.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RULE);
        assert!(diags[0].message.contains('+'));
    }

    #[test]
    fn constructor_initialization_taints() {
        let src = "fn f() { let base = Weight::UNIT; let x = base * 3; }\n";
        assert_eq!(lint_source("crates/fpga/src/newmod.rs", src).len(), 1);
    }

    #[test]
    fn compound_assignment_fires() {
        let src = "fn f(mut acc: Weight, w: Weight) { acc += w; }\n";
        assert_eq!(lint_source("crates/core/src/newalgo.rs", src).len(), 1);
    }

    #[test]
    fn saturating_calls_and_untainted_arithmetic_pass() {
        let src = "fn f(total: Weight, w: Weight, n: usize) -> Weight {\n\
                   let _ = n + 1;\n\
                   total.saturating_add(w)\n}\n";
        assert!(lint_source("crates/core/src/newalgo.rs", src).is_empty());
    }

    #[test]
    fn unary_and_type_positions_do_not_fire() {
        let src = "fn f(w: Weight) -> i64 { let p: *const Weight = &w; let _ = p; -1 }\n";
        assert!(lint_source("crates/core/src/newalgo.rs", src).is_empty());
    }

    #[test]
    fn field_assignments_do_not_taint_bare_locals() {
        // The float local does owe a determinism-float-weight diagnostic
        // these days; this test only pins that *saturating-weights*
        // stays quiet on the untainted bare local.
        let src = "fn f(c: &mut C) { c.jogs = Weight::UNIT; let mut jogs = 0.0; jogs += 1.0; }\n";
        assert!(lint_source("crates/core/src/newalgo.rs", src)
            .iter()
            .all(|d| d.rule != RULE));
    }

    #[test]
    fn projections_to_primitives_are_not_weight_arithmetic() {
        let src = "fn f(value: Weight, reference: Weight) -> f64 {\n\
                   (value.as_f64() - reference.as_f64()) / reference.as_f64()\n}\n";
        assert!(lint_source("crates/core/src/newalgo.rs", src).is_empty());
    }

    #[test]
    fn graph_modules_beside_weight_are_covered_not_exempt() {
        // Only the modules that own `Weight`'s representation are
        // exempt; a graph module beside them, such as `distgraph.rs`,
        // is linted like any other code.
        let bare = "fn gap(d: Weight, hi: Weight) -> Weight { d - hi }\n";
        let diags = lint_source("crates/graph/src/distgraph.rs", bare);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RULE);
        let saturating = "fn gap(d: Weight, hi: Weight) -> Weight {\n\
                          let lo = d.saturating_sub(hi);\n\
                          lo.saturating_add(Weight::ZERO)\n}\n";
        assert!(lint_source("crates/graph/src/distgraph.rs", saturating).is_empty());
        // Same for the CSR snapshot's weight lanes.
        let csr = "fn pack(w: Weight, tilt: Weight) -> Weight { w + tilt }\n";
        assert_eq!(lint_source("crates/graph/src/csr.rs", csr).len(), 1);
    }

    #[test]
    fn weight_modules_are_exempt() {
        let src = "fn f(a: Weight, b: Weight) -> Weight { a + b }\n";
        assert!(lint_source("crates/graph/src/weight.rs", src).is_empty());
        assert!(lint_source("crates/graph/src/multiweight.rs", src).is_empty());
    }
}
