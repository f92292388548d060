//! Rule `commit-path-mutation`: snapshot repricing stays on PathFinder's
//! single-writer cost-update phase.
//!
//! The negotiated-congestion router routes every net of an iteration
//! against one priced snapshot, from worker threads that pack their
//! per-net views from it. `.reprice_edges(` bulk-rewrites every edge weight of that
//! snapshot, and its delta variant `.reprice_incident_edges(` rewrites
//! the edges around nodes whose pressure changed — either is only sound
//! after the route phase's workers have joined. The borrow checker
//! enforces that inside `pathfinder.rs`; this rule keeps the calls there:
//! calling them anywhere but `pathfinder.rs` (or the graph crate that
//! defines them) is a diagnostic, because it would mutate prices some
//! worker might still be reading.

use crate::{Diagnostic, FileCtx};

/// Rule name, as used in `allow(...)` markers.
pub const RULE: &str = "commit-path-mutation";

/// Where repricing is legitimate: the defining crate (the methods' own
/// implementation and tests) and the negotiated-congestion single-writer
/// cost-update phase.
fn allowed(path: &str) -> bool {
    path.starts_with("crates/graph/")
        || path.starts_with("crates/lint/")
        || path == "crates/fpga/src/pathfinder.rs"
}

pub fn check(ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
    if allowed(ctx.path) {
        return Vec::new();
    }
    let code: Vec<usize> = ctx.code_indices().collect();
    let mut diags = Vec::new();
    for (k, &i) in code.iter().enumerate() {
        let tok = &ctx.tokens[i];
        let next = |o: usize| code.get(k + o).map(|&j| &ctx.tokens[j]);
        if !tok.is_punct(".") || !next(2).is_some_and(|t| t.is_punct("(")) {
            continue;
        }
        let Some(method) = next(1).filter(|t| {
            t.is_ident("reprice_edges") || t.is_ident("reprice_incident_edges")
        }) else {
            continue;
        };
        diags.push(Diagnostic {
            path: ctx.path.to_string(),
            line: method.line,
            rule: RULE,
            message: format!("`.{}()` called outside the single-writer commit paths", method.text),
            hint: "reprice the snapshot only from pathfinder.rs's cost-update phase, after the \
                   route phase's workers have joined"
                .to_string(),
        });
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint_source;

    #[test]
    fn reprice_fires_outside_the_pathfinder_cost_update() {
        let src = "fn f(g: &mut Graph) { g.reprice_edges(|_, _, _, w| w); }\n";
        let diags = lint_source("crates/fpga/src/router.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RULE);
        assert!(diags[0].message.contains("reprice_edges"));
        assert!(lint_source("crates/fpga/src/pathfinder.rs", src).is_empty());
        assert!(lint_source("crates/graph/src/graph.rs", src).is_empty());
    }

    #[test]
    fn delta_reprice_fires_outside_the_pathfinder_cost_update() {
        let src = "fn f(g: &mut Graph) { g.reprice_incident_edges(&[], |_, _, _, w| w); }\n";
        let diags = lint_source("crates/fpga/src/router.rs", src);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("reprice_incident_edges"));
        assert!(lint_source("crates/fpga/src/pathfinder.rs", src).is_empty());
        assert!(lint_source("crates/graph/src/graph.rs", src).is_empty());
    }
}
