//! Rules `unsafe-forbid` and `panic-hygiene`: no unsafe code anywhere,
//! no panicking extractors on the hot path.
//!
//! `unsafe-forbid` keeps `#![forbid(unsafe_code)]` at every crate root
//! (lib.rs, main.rs, `src/bin/*.rs`) and flags any utterance of the
//! `unsafe` keyword: the route phase's thread-safety argument is built
//! on safe-Rust aliasing guarantees, and a single `unsafe` block would
//! let a worker write the priced snapshot other workers are reading.
//!
//! `panic-hygiene` bans `.unwrap()`/`.expect(` in the hot-path modules
//! (`dijkstra.rs`, `router.rs`, `csr.rs`, `pathfinder.rs`) outside
//! `#[cfg(test)]`. A panic mid-pass aborts the routing, and on a
//! PathFinder worker it tears down the whole route phase — errors there
//! must surface as `FpgaError`/`Option` flow, and the few sites where a
//! panic genuinely is the right response (a joined worker already
//! panicked) carry individual justified allow-markers.

use crate::{Diagnostic, FileCtx};

/// Rule name for the `#![forbid(unsafe_code)]` / `unsafe` checks.
pub const RULE_UNSAFE: &str = "unsafe-forbid";

/// Rule name for the hot-path `.unwrap()`/`.expect()` ban.
pub const RULE_PANIC: &str = "panic-hygiene";

/// The strict tier: the kernel, the router's pass loop, the per-net view
/// and PathFinder's route phase, where *any* panic — even a
/// documented-invariant `.expect()` — aborts the pass. Here both
/// `.unwrap()` and `.expect()` are banned.
///
/// In workspace mode the rule's *scope* is no longer this list but the
/// hot-path cone (`crate::callgraph`): `.unwrap()` is banned in every
/// function reachable from a route entry point (it asserts an invariant
/// without stating one), while `.expect("…")` — the workspace's
/// documented-invariant idiom — stays legal in cone code outside this
/// tier. Single-file mode (no call graph) falls back to this list as
/// the whole scope, as before.
const HOT_PATH_FILES: &[&str] = &[
    "dijkstra.rs",
    "router.rs",
    "csr.rs",
    "pathfinder.rs",
];

/// `path` is a crate root that must open with `#![forbid(unsafe_code)]`.
fn is_crate_root(path: &str) -> bool {
    path.ends_with("/lib.rs")
        || path == "lib.rs"
        || path.ends_with("/main.rs")
        || path == "main.rs"
        || path.contains("src/bin/")
}

fn is_hot_path(path: &str, file_name: &str) -> bool {
    HOT_PATH_FILES.contains(&file_name) && path.contains("/src/") && !path.starts_with("crates/lint/")
}

pub fn check(ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let code: Vec<usize> = ctx.code_indices().collect();

    // --- unsafe-forbid ---------------------------------------------------
    if is_crate_root(ctx.path) && !has_forbid_unsafe(ctx, &code) {
        diags.push(Diagnostic {
            path: ctx.path.to_string(),
            line: 1,
            rule: RULE_UNSAFE,
            message: "crate root lacks #![forbid(unsafe_code)]".to_string(),
            hint: "add `#![forbid(unsafe_code)]` as the first item — the engine's aliasing \
                   argument assumes safe Rust everywhere"
                .to_string(),
        });
    }
    for &i in &code {
        let tok = &ctx.tokens[i];
        if tok.is_ident("unsafe") {
            diags.push(Diagnostic {
                path: ctx.path.to_string(),
                line: tok.line,
                rule: RULE_UNSAFE,
                message: "`unsafe` is not used in this workspace".to_string(),
                hint: "express this in safe Rust; the shared-graph soundness argument is void \
                       under manual aliasing"
                    .to_string(),
            });
        }
    }

    // --- panic-hygiene ---------------------------------------------------
    let strict_tier = is_hot_path(ctx.path, ctx.file_name());
    let file_scope = match ctx.scope {
        // Cone masks are per-token; enter the loop whenever the cone
        // touches this file at all (the per-token check gates the rest).
        crate::ScopeSource::Workspace => {
            !ctx.path.starts_with("crates/lint/") && ctx.in_cone.iter().any(|&c| c)
        }
        crate::ScopeSource::SingleFile => strict_tier,
    };
    if file_scope {
        for (k, &i) in code.iter().enumerate() {
            if ctx.in_test[i] {
                continue;
            }
            if matches!(ctx.scope, crate::ScopeSource::Workspace) && !ctx.in_cone[i] {
                continue;
            }
            let tok = &ctx.tokens[i];
            let next = |o: usize| code.get(k + o).map(|&j| &ctx.tokens[j]);
            if tok.is_punct(".")
                && next(1).is_some_and(|t| t.is_ident("unwrap") || t.is_ident("expect"))
                && next(2).is_some_and(|t| t.is_punct("("))
            {
                let callee = next(1).map_or("unwrap", |t| {
                    if t.is_ident("expect") { "expect" } else { "unwrap" }
                });
                // `.expect("…")` documents its invariant; it stays legal
                // in cone code outside the strict tier.
                if callee == "expect" && !strict_tier {
                    continue;
                }
                let line = next(1).map_or(tok.line, |t| t.line);
                let place = if strict_tier {
                    "a strict-tier hot-path module"
                } else {
                    "the hot-path cone"
                };
                diags.push(Diagnostic {
                    path: ctx.path.to_string(),
                    line,
                    rule: RULE_PANIC,
                    message: format!("`.{callee}()` on {place}"),
                    hint: "propagate via Result/Option (a mid-pass panic aborts the routing); \
                           if a panic is genuinely right, justify with an allow-marker"
                        .to_string(),
                });
            }
        }
    }
    diags
}

/// The token stream contains `#![forbid(unsafe_code)]` (possibly among
/// other inner attributes).
fn has_forbid_unsafe(ctx: &FileCtx<'_>, code: &[usize]) -> bool {
    code.iter().enumerate().any(|(k, &i)| {
        let get = |o: usize| code.get(k + o).map(|&j| &ctx.tokens[j]);
        ctx.tokens[i].is_punct("#")
            && get(1).is_some_and(|t| t.is_punct("!"))
            && get(2).is_some_and(|t| t.is_punct("["))
            && get(3).is_some_and(|t| t.is_ident("forbid"))
            && get(4).is_some_and(|t| t.is_punct("("))
            && get(5).is_some_and(|t| t.is_ident("unsafe_code"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint_source;

    #[test]
    fn crate_root_without_forbid_fires() {
        let diags = lint_source("crates/newcrate/src/lib.rs", "pub fn f() {}\n");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RULE_UNSAFE);
        assert_eq!(diags[0].line, 1);
    }

    #[test]
    fn crate_root_with_forbid_passes_and_non_roots_are_exempt() {
        let ok = "#![forbid(unsafe_code)]\npub fn f() {}\n";
        assert!(lint_source("crates/newcrate/src/lib.rs", ok).is_empty());
        assert!(lint_source("src/bin/fpga_route.rs", ok).is_empty());
        assert!(lint_source("crates/newcrate/src/util.rs", "pub fn f() {}\n").is_empty());
    }

    #[test]
    fn unsafe_keyword_fires_anywhere() {
        let src = "#![forbid(unsafe_code)]\nfn f() { unsafe { std::hint::unreachable_unchecked() } }\n";
        let diags = lint_source("crates/newcrate/src/lib.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RULE_UNSAFE);
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn hot_path_unwrap_and_expect_fire() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\nfn g(x: Option<u32>) -> u32 { x.expect(\"msg\") }\n";
        let diags = lint_source("crates/fpga/src/router.rs", src);
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.rule == RULE_PANIC));
        assert_eq!((diags[0].line, diags[1].line), (1, 2));
    }

    #[test]
    fn unwrap_is_fine_off_the_hot_path_and_in_tests() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert!(lint_source("crates/fpga/src/width.rs", src).is_empty());
        let test_src = "#[cfg(test)]\nmod tests {\n fn t() { Some(1).unwrap(); }\n}\n";
        assert!(lint_source("crates/fpga/src/pathfinder.rs", test_src).is_empty());
    }

    #[test]
    fn unwrap_or_variants_do_not_fire() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) + x.unwrap_or_default() }\n";
        assert!(lint_source("crates/graph/src/dijkstra.rs", src).is_empty());
    }
}
