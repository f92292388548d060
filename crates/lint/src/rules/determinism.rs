//! The `determinism-*` rule family: mechanical bans on nondeterminism
//! sources inside the hot-path cone.
//!
//! PathFinder's parallel route phase promises bit-identical results
//! across thread counts. That promise dies
//! quietly: a `HashMap` iteration whose order leaks into net ordering,
//! a wall-clock read folded into a cost, a worker-index branch, a float
//! accumulator whose rounding depends on commit order. Each is legal
//! Rust, invisible to the compiler, and only detectable end-to-end when
//! a circuit happens to expose it. These rules ban the *source shapes*
//! inside the cone ([`crate::callgraph`]) instead:
//!
//! * [`RULE_HASH`] — iteration over `HashMap`/`HashSet` (`.iter()`,
//!   `.keys()`, `for … in map`, …). Escapes: an order-insensitive
//!   reduction (`count`/`sum`/`min`/`max`/`all`/`any`/`is_empty`) or a
//!   sort/`BTree` re-collection within the statement window, or a
//!   justified waiver.
//! * [`RULE_CLOCK`] — `Instant::now`/`SystemTime` anywhere
//!   result-affecting. The telemetry modules (`crates/trace`,
//!   `telemetry.rs`) are excluded wholesale; hot modules that *time*
//!   phases for telemetry carry per-site waivers arguing the reading
//!   never feeds routing state.
//! * [`RULE_THREAD`] — `thread::current()`, `ThreadId`, or branching on
//!   a worker index. No module is exempt: PathFinder's workers take a
//!   fixed strided share of the nets and never branch on who they are.
//! * [`RULE_FLOAT`] — float accumulation (`+=`, `*=`, binary `+`/`*` on
//!   float-typed locals) in cone code that also touches `Weight`: float
//!   rounding is evaluation-order-dependent, so anything feeding edge
//!   costs must stay in integer milli-units.
//!
//! [`RULE_CONE`] diagnostics are emitted by the driver when a pinned
//! entry point disappears — see `callgraph::ENTRY_POINTS`.

use std::collections::BTreeSet;

use crate::lexer::TokenKind;
use crate::{Diagnostic, FileCtx};

/// Unordered-container iteration in the cone.
pub const RULE_HASH: &str = "determinism-hash-iter";
/// Wall-clock reads in result-affecting cone code.
pub const RULE_CLOCK: &str = "determinism-wall-clock";
/// Thread identity / worker-index branching.
pub const RULE_THREAD: &str = "determinism-thread-id";
/// Float accumulation feeding Weight.
pub const RULE_FLOAT: &str = "determinism-float-weight";
/// A pinned cone entry point stopped resolving (driver-emitted).
pub const RULE_CONE: &str = "determinism-cone";

/// Modules whose entire job is telemetry: spans, counters, metrics,
/// sinks. Wall-clock readings there are the product, not a hazard —
/// merge rules keep instrumented runs bit-identical (DESIGN.md §5f) —
/// and their floats render reports, never edge costs.
fn telemetry_module(path: &str) -> bool {
    path.starts_with("crates/trace/") || path.ends_with("/telemetry.rs")
}

/// Iteration adapters whose results depend on hash order.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
];

/// Order-insensitive escapes: a reduction that makes hash order
/// unobservable, or a sort / ordered re-collection downstream.
const ORDER_SAFE: &[&str] = &[
    "count", "sum", "min", "max", "all", "any", "is_empty", "len", "contains", "fold_commutative",
    "BTreeMap", "BTreeSet",
];

/// Identifier names treated as worker indices when branched on.
const WORKER_IDENTS: &[&str] = &["worker_index", "worker_id", "wid"];

const COMPARISONS: &[&str] = &["==", "!=", "<", "<=", ">", ">="];

pub fn check(ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
    if ctx.path.starts_with("crates/lint/") {
        return Vec::new();
    }
    let code: Vec<usize> = ctx.code_indices().collect();
    let mut diags = Vec::new();
    check_hash_iteration(ctx, &code, &mut diags);
    if !telemetry_module(ctx.path) {
        check_wall_clock(ctx, &code, &mut diags);
        check_float_accumulation(ctx, &code, &mut diags);
    }
    check_thread_identity(ctx, &code, &mut diags);
    diags
}

/// Token `code[k]` is in determinism scope and not test code.
fn in_scope(ctx: &FileCtx<'_>, code: &[usize], k: usize) -> bool {
    let i = code[k];
    !ctx.in_test[i] && ctx.determinism_scope(i)
}

// --- hash iteration -------------------------------------------------------

fn check_hash_iteration(ctx: &FileCtx<'_>, code: &[usize], diags: &mut Vec<Diagnostic>) {
    // Taint pass: locals/params annotated or constructed as hash
    // containers. `&`/`mut` between the `:` and the type are skipped so
    // `m: &mut HashMap<…>` params taint too.
    let mut tainted: BTreeSet<&str> = BTreeSet::new();
    for (k, &i) in code.iter().enumerate() {
        let tok = &ctx.tokens[i];
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let next = |o: usize| code.get(k + o).map(|&j| &ctx.tokens[j]);
        if k.checked_sub(1).is_some_and(|p| ctx.tokens[code[p]].is_punct(".")) {
            continue; // a field of some other value
        }
        let is_hash = |t: &crate::lexer::Token| t.is_ident("HashMap") || t.is_ident("HashSet");
        let annotated = next(1).is_some_and(|t| t.is_punct(":")) && {
            let mut o = 2;
            while next(o).is_some_and(|t| t.is_punct("&") || t.is_ident("mut") || t.kind == TokenKind::Lifetime)
            {
                o += 1;
            }
            next(o).is_some_and(is_hash)
        };
        let constructed = next(1).is_some_and(|t| t.is_punct("="))
            && next(2).is_some_and(is_hash)
            && next(3).is_some_and(|t| t.is_punct("::"));
        if annotated || constructed {
            tainted.insert(tok.text.as_str());
        }
    }
    if tainted.is_empty() {
        return;
    }

    let fire = |diags: &mut Vec<Diagnostic>, line: usize, name: &str, how: &str| {
        diags.push(Diagnostic {
            path: ctx.path.to_string(),
            line,
            rule: RULE_HASH,
            message: format!(
                "hash-order iteration over `{name}` ({how}) in the hot-path cone"
            ),
            hint: "iterate a sorted projection (collect + sort, or a BTreeMap/BTreeSet) or \
                   reduce order-insensitively; waive only with an argument why order cannot \
                   reach routing results"
                .to_string(),
        });
    };

    for (k, &i) in code.iter().enumerate() {
        if !in_scope(ctx, code, k) {
            continue;
        }
        let tok = &ctx.tokens[i];
        let next = |o: usize| code.get(k + o).map(|&j| &ctx.tokens[j]);
        // `tainted.iter()` and friends; `for x in m.keys()` matches both
        // shapes, so the method form wins and the for-loop form is the
        // fallback (one diagnostic per site).
        if tok.kind == TokenKind::Ident && tainted.contains(tok.text.as_str()) {
            let method_call = next(1).is_some_and(|t| t.is_punct("."))
                && next(2).is_some_and(|t| {
                    t.kind == TokenKind::Ident && HASH_ITER_METHODS.contains(&t.text.as_str())
                })
                && next(3).is_some_and(|t| t.is_punct("("));
            if method_call {
                if !order_safe_window(ctx, code, k) {
                    let method = next(2).expect("checked above").text.clone();
                    fire(diags, tok.line, &tok.text, &format!(".{method}()"));
                }
                continue;
            }
            // `for x in tainted` / `for x in &mut tainted`.
            let mut p = k;
            let prev = |p: &mut usize| -> Option<&crate::lexer::Token> {
                *p = p.checked_sub(1)?;
                Some(&ctx.tokens[code[*p]])
            };
            let mut q = prev(&mut p);
            while q.is_some_and(|t| t.is_punct("&") || t.is_ident("mut")) {
                q = prev(&mut p);
            }
            if q.is_some_and(|t| t.is_ident("in")) && !order_safe_window(ctx, code, k) {
                fire(diags, tok.line, &tok.text, "for-loop");
            }
        }
    }
}

/// Scans ahead from `code[k]` to the end of the *next* statement (two
/// `;`-or-`{` boundaries, capped at 48 tokens) for an order-restoring
/// escape: a `sort*` call, an ordered re-collection, or an
/// order-insensitive reduction. The window deliberately spans one
/// statement past the iteration so the idiomatic
/// `let mut v: Vec<_> = m.keys().collect(); v.sort();` passes without a
/// waiver. Known false negative: a `sort` of an unrelated binding
/// inside the window also passes — DESIGN.md §5i accepts that shape.
fn order_safe_window(ctx: &FileCtx<'_>, code: &[usize], k: usize) -> bool {
    let mut boundaries = 0usize;
    for o in 1..48 {
        let Some(&j) = code.get(k + o) else { break };
        let t = &ctx.tokens[j];
        if t.kind == TokenKind::Ident {
            if t.text.starts_with("sort") || ORDER_SAFE.contains(&t.text.as_str()) {
                return true;
            }
        } else if t.is_punct(";") || t.is_punct("{") {
            boundaries += 1;
            if boundaries >= 2 {
                break;
            }
        }
    }
    false
}

// --- wall clock -----------------------------------------------------------

fn check_wall_clock(ctx: &FileCtx<'_>, code: &[usize], diags: &mut Vec<Diagnostic>) {
    for (k, &i) in code.iter().enumerate() {
        if !in_scope(ctx, code, k) {
            continue;
        }
        let tok = &ctx.tokens[i];
        let next = |o: usize| code.get(k + o).map(|&j| &ctx.tokens[j]);
        let offender = if tok.is_ident("Instant")
            && next(1).is_some_and(|t| t.is_punct("::"))
            && next(2).is_some_and(|t| t.is_ident("now"))
        {
            Some("`Instant::now()`")
        } else if tok.is_ident("SystemTime") {
            Some("`SystemTime`")
        } else {
            None
        };
        if let Some(what) = offender {
            diags.push(Diagnostic {
                path: ctx.path.to_string(),
                line: tok.line,
                rule: RULE_CLOCK,
                message: format!("{what} in hot-path-cone code"),
                hint: "wall-clock readings must not affect routing state; keep timing in the \
                       telemetry modules, or waive with an argument that the reading only \
                       feeds spans/metrics"
                    .to_string(),
            });
        }
    }
}

// --- thread identity ------------------------------------------------------

fn check_thread_identity(ctx: &FileCtx<'_>, code: &[usize], diags: &mut Vec<Diagnostic>) {
    for (k, &i) in code.iter().enumerate() {
        if !in_scope(ctx, code, k) {
            continue;
        }
        let tok = &ctx.tokens[i];
        let next = |o: usize| code.get(k + o).map(|&j| &ctx.tokens[j]);
        let prev = |o: usize| k.checked_sub(o).map(|p| &ctx.tokens[code[p]]);
        let offender = if tok.is_ident("thread")
            && next(1).is_some_and(|t| t.is_punct("::"))
            && next(2).is_some_and(|t| t.is_ident("current"))
        {
            Some("`thread::current()`".to_string())
        } else if tok.is_ident("ThreadId") {
            Some("`ThreadId`".to_string())
        } else if tok.kind == TokenKind::Ident
            && WORKER_IDENTS.contains(&tok.text.as_str())
            && (next(1).is_some_and(|t| COMPARISONS.contains(&t.text.as_str()))
                || prev(1).is_some_and(|t| COMPARISONS.contains(&t.text.as_str())))
        {
            Some(format!("worker-index branching on `{}`", tok.text))
        } else {
            None
        };
        if let Some(what) = offender {
            diags.push(Diagnostic {
                path: ctx.path.to_string(),
                line: tok.line,
                rule: RULE_THREAD,
                message: format!("{what} in library code"),
                hint: "results must be identity-free — route the decision through \
                       deterministic state (net index, graph epoch)"
                    .to_string(),
            });
        }
    }
}

// --- float accumulation ---------------------------------------------------

fn check_float_accumulation(ctx: &FileCtx<'_>, code: &[usize], diags: &mut Vec<Diagnostic>) {
    // Only meaningful where Weight is in play: float math that never
    // meets Weight cannot perturb edge costs.
    if !code.iter().any(|&i| ctx.tokens[i].is_ident("Weight")) {
        return;
    }
    // Taint pass: floats by annotation or fractional-literal init.
    let mut tainted: BTreeSet<&str> = BTreeSet::new();
    for (k, &i) in code.iter().enumerate() {
        let tok = &ctx.tokens[i];
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let next = |o: usize| code.get(k + o).map(|&j| &ctx.tokens[j]);
        if k.checked_sub(1).is_some_and(|p| ctx.tokens[code[p]].is_punct(".")) {
            continue;
        }
        let annotated = next(1).is_some_and(|t| t.is_punct(":"))
            && next(2).is_some_and(|t| t.is_ident("f32") || t.is_ident("f64"));
        let float_lit = next(1).is_some_and(|t| t.is_punct("="))
            && next(2).is_some_and(|t| {
                t.kind == TokenKind::Literal
                    && t.text.contains('.')
                    && t.text.parse::<f64>().is_ok()
            });
        if annotated || float_lit {
            tainted.insert(tok.text.as_str());
        }
    }
    if tainted.is_empty() {
        return;
    }
    for (k, &i) in code.iter().enumerate() {
        if !in_scope(ctx, code, k) {
            continue;
        }
        let tok = &ctx.tokens[i];
        if tok.kind != TokenKind::Punct {
            continue;
        }
        let op = tok.text.as_str();
        if !matches!(op, "+=" | "-=" | "*=" | "+" | "*") {
            continue;
        }
        let prev = k.checked_sub(1).map(|p| &ctx.tokens[code[p]]);
        let next = code.get(k + 1).map(|&j| &ctx.tokens[j]);
        let left = prev
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
            .filter(|n| tainted.contains(n));
        let right = next
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
            .filter(|n| tainted.contains(n));
        // Binary ops need a value-ish left side (same discipline as the
        // weights rule); compound assignment needs the tainted name on
        // the left.
        let offender = if matches!(op, "+=" | "-=" | "*=") {
            left
        } else {
            let left_valueish = prev.is_some_and(|t| {
                matches!(t.kind, TokenKind::Ident | TokenKind::Literal)
                    || t.is_punct(")")
                    || t.is_punct("]")
            });
            if left_valueish { left.or(right) } else { None }
        };
        if let Some(name) = offender {
            diags.push(Diagnostic {
                path: ctx.path.to_string(),
                line: tok.line,
                rule: RULE_FLOAT,
                message: format!(
                    "float accumulation `{op}` on `{name}` in Weight-adjacent cone code"
                ),
                hint: "float rounding is evaluation-order-dependent; keep cost math in \
                       integer milli (Weight::from_milli) or waive with an argument why \
                       this value never reaches a Weight"
                    .to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint_source;

    const HOT: &str = "crates/fpga/src/newhot.rs";

    #[test]
    fn hash_iteration_fires_in_cone_scope_and_not_in_cold_paths() {
        let src = "fn f(m: &HashMap<u32, u32>) {\n for (k, v) in m { use_it(k, v); }\n}\n";
        let diags = lint_source(HOT, src);
        assert_eq!(diags.len(), 1, "{diags:#?}");
        assert_eq!(diags[0].rule, RULE_HASH);
        assert_eq!(diags[0].line, 2);
        // Binaries and experiment drivers are outside the presumed-hot
        // fallback scope (the bin path still owes unsafe-forbid, so
        // filter to this family).
        assert!(lint_source("src/bin/fpga_route.rs", src)
            .iter()
            .all(|d| !d.rule.starts_with("determinism-")));
        assert!(lint_source("crates/experiments/src/table2.rs", src).is_empty());
    }

    #[test]
    fn hash_method_iteration_fires_and_sorted_projection_escapes() {
        let bad = "fn f() {\n let m: HashMap<u32, u32> = build();\n for k in m.keys() { emit(k); }\n}\n";
        let diags = lint_source(HOT, bad);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RULE_HASH);
        let sorted = "fn f() {\n let m: HashMap<u32, u32> = build();\n\
                      let mut ks: Vec<u32> = m.keys().copied().collect();\n ks.sort_unstable();\n\
                      for k in ks { emit(k); }\n}\n";
        assert!(lint_source(HOT, sorted).is_empty(), "sort within the window escapes");
        let reduced = "fn f() {\n let m: HashMap<u32, u32> = build();\n let n = m.values().copied().max();\n use_it(n);\n}\n";
        assert!(lint_source(HOT, reduced).is_empty(), "order-insensitive reduction escapes");
    }

    #[test]
    fn wall_clock_fires_outside_telemetry_modules_only() {
        let src = "fn f() -> u64 { let t = Instant::now(); cost_from(t) }\n";
        let diags = lint_source(HOT, src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RULE_CLOCK);
        assert!(lint_source("crates/trace/src/collector.rs", src).is_empty());
        assert!(lint_source("crates/fpga/src/telemetry.rs", src).is_empty());
        let sys = "fn f() { let t: SystemTime = now(); use_it(t); }\n";
        assert_eq!(lint_source(HOT, sys)[0].rule, RULE_CLOCK);
    }

    #[test]
    fn thread_identity_fires_in_every_library_module() {
        let src = "fn f() { let id = thread::current().id(); seed(id); }\n";
        let diags = lint_source(HOT, src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RULE_THREAD);
        assert_eq!(lint_source("crates/fpga/src/pathfinder.rs", src).len(), 1);
        let branch = "fn f(worker_index: usize) { if worker_index == 0 { shortcut(); } }\n";
        assert_eq!(lint_source(HOT, branch)[0].rule, RULE_THREAD);
    }

    #[test]
    fn float_accumulation_fires_only_near_weight() {
        let bad = "fn f(w: Weight) -> Weight {\n let mut acc: f64 = 0.0;\n acc += w.as_f64();\n Weight::from_milli((acc * 1000.0) as u64)\n}\n";
        let diags = lint_source(HOT, bad);
        assert!(
            diags.iter().any(|d| d.rule == RULE_FLOAT),
            "accumulation near Weight fires: {diags:#?}"
        );
        let no_weight = "fn f() -> f64 {\n let mut acc: f64 = 0.0;\n acc += 1.5;\n acc\n}\n";
        assert!(
            lint_source(HOT, no_weight).is_empty(),
            "float math with no Weight in the file is reporting, not cost math"
        );
    }

    #[test]
    fn waivers_and_tests_escape_the_family() {
        let waived = "fn f(m: &HashMap<u32, u32>) {\n\
                      // lint: allow(determinism-hash-iter): accumulation below is commutative\n\
                      for (_, v) in m { total_add(v); }\n}\n";
        assert!(lint_source(HOT, waived).is_empty());
        let in_tests = "#[cfg(test)]\nmod tests {\n fn t(m: &HashMap<u32, u32>) { for v in m.values() { check(v); } }\n}\n";
        assert!(lint_source(HOT, in_tests).is_empty());
    }

    #[test]
    fn aux_scope_covers_integration_tests_and_benches() {
        let src = "fn helper(m: &HashMap<u32, u32>) {\n for (k, v) in m { assert_order(k, v); }\n}\n";
        assert_eq!(lint_source("tests/pathfinder.rs", src).len(), 1);
        assert_eq!(lint_source("crates/bench/benches/kernel.rs", src).len(), 1);
        assert!(
            lint_source("crates/lint/tests/fixtures_fire.rs", src).is_empty(),
            "the linter's own tests are fixture text, not scanned"
        );
    }
}
