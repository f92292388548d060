//! `fpga-lint` — a zero-dependency invariant checker for this workspace.
//!
//! The router's bit-identity guarantee across thread counts rides on
//! hand-maintained disciplines that the compiler cannot see: snapshot
//! repricing must stay on PathFinder's single-writer cost-update phase,
//! hot-path code must be free of nondeterminism sources, `Weight`
//! arithmetic must saturate, hot paths must not panic, and the
//! telemetry surface must stay documented. Each rule
//! here mechanically enforces one of those disciplines over the raw
//! token stream (see [`lexer`]) and fails CI with `file:line`
//! diagnostics when a call site drifts.
//!
//! # Suppression
//!
//! Any diagnostic can be waived at a single line with
//!
//! ```text
//! // lint: allow(<rule-name>): <justification>
//! ```
//!
//! on the offending line or the line directly above it. The
//! justification is mandatory — a bare `allow` is itself a diagnostic —
//! so every waiver carries its soundness argument in the source.

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod items;
pub mod lexer;
pub mod rules;

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use lexer::{Token, TokenKind};

/// One registered rule: its marker name, stable machine-readable code
/// (for `--json` consumers; codes never get reused), and description.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    pub name: &'static str,
    pub code: &'static str,
    pub what: &'static str,
}

/// Every rule the linter knows. FL001 is retired along with the
/// speculative engines' read sets it policed; its code is not reused.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: rules::commit_path::RULE,
        code: "FL002",
        what: "snapshot repricing stays on PathFinder's single-writer cost-update phase",
    },
    RuleInfo {
        name: rules::weights::RULE,
        code: "FL003",
        what: "bare +/-/* on Weight values outside weight.rs/multiweight.rs",
    },
    RuleInfo {
        name: rules::hygiene::RULE_UNSAFE,
        code: "FL004",
        what: "every crate root keeps #![forbid(unsafe_code)]",
    },
    RuleInfo {
        name: rules::hygiene::RULE_PANIC,
        code: "FL005",
        what: "unwrap()/expect() banned in hot-path-cone functions outside #[cfg(test)]",
    },
    RuleInfo {
        name: rules::telemetry::RULE,
        code: "FL006",
        what: "trace counters and CLI flags stay in sync with the README",
    },
    RuleInfo {
        name: MARKER_RULE,
        code: "FL007",
        what: "malformed // lint: allow(...) markers",
    },
    RuleInfo {
        name: rules::determinism::RULE_HASH,
        code: "FL010",
        what: "HashMap/HashSet iteration in the hot-path cone without a sort or reduction",
    },
    RuleInfo {
        name: rules::determinism::RULE_CLOCK,
        code: "FL011",
        what: "Instant/SystemTime in hot-path-cone code outside the telemetry modules",
    },
    RuleInfo {
        name: rules::determinism::RULE_THREAD,
        code: "FL012",
        what: "thread identity or worker-index branching in library code",
    },
    RuleInfo {
        name: rules::determinism::RULE_FLOAT,
        code: "FL013",
        what: "float accumulation in hot-path-cone code that feeds Weight",
    },
    RuleInfo {
        name: rules::determinism::RULE_CONE,
        code: "FL014",
        what: "every pinned hot-path entry point still exists (the cone cannot silently shrink)",
    },
];

/// The stable code of `rule`, for machine-readable output.
pub fn rule_code(rule: &str) -> &'static str {
    RULES
        .iter()
        .find(|r| r.name == rule)
        .map_or("FL000", |r| r.code)
}

/// Rule name for diagnostics about the markers themselves.
pub const MARKER_RULE: &str = "lint-marker";

/// One finding: where, which rule, what, and how to fix it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Rule name, suitable for an `allow(...)` marker.
    pub rule: &'static str,
    /// What went wrong.
    pub message: String,
    /// One-line fix hint.
    pub hint: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    hint: {}",
            self.path, self.line, self.rule, self.message, self.hint
        )
    }
}

/// A parsed `// lint: allow(rule): justification` marker.
#[derive(Debug, Clone)]
struct AllowMarker {
    line: usize,
    rule: String,
}

/// Where a file's rule scopes came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScopeSource {
    /// A workspace lint with a real call graph: `in_cone` is the
    /// computed hot-path cone, `aux` marks tests/benches files.
    Workspace,
    /// A single-file lint (`lint_source` / `--check-file`): no call
    /// graph exists, so cone-scoped rules fall back to conservative
    /// path-based approximations (library-crate files are presumed
    /// in-cone for the determinism family; panic-hygiene keeps its
    /// legacy hot-file list).
    SingleFile,
}

/// Everything a per-file rule gets to look at.
pub struct FileCtx<'a> {
    /// Workspace-relative path with forward slashes.
    pub path: &'a str,
    /// The full token stream, comments included.
    pub tokens: &'a [Token],
    /// `in_test[i]` — token `i` sits inside a `#[cfg(test)]` item.
    pub in_test: &'a [bool],
    /// `in_cone[i]` — token `i` sits inside a hot-path-cone function.
    /// All-false outside the call-graph universe and in single-file mode.
    pub in_cone: &'a [bool],
    /// The file sits in an auxiliary scan scope (integration tests,
    /// benches): the determinism family applies whole-file there.
    pub aux: bool,
    /// Workspace (real cone) or single-file (fallback scopes).
    pub scope: ScopeSource,
}

impl FileCtx<'_> {
    /// Iterator over non-comment token indices.
    pub fn code_indices(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.tokens.len()).filter(|&i| self.tokens[i].kind != TokenKind::LineComment)
    }

    /// The file name component of the path.
    pub fn file_name(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(self.path)
    }

    /// Whether token `i` is in scope for the determinism family: the
    /// hot-path cone, the aux scan scope, or (single-file fallback) any
    /// library-crate file — conservative, because without a call graph
    /// a fixture or work-in-progress file cannot prove itself cold.
    pub fn determinism_scope(&self, i: usize) -> bool {
        match self.scope {
            ScopeSource::Workspace => self.in_cone[i] || self.aux,
            ScopeSource::SingleFile => callgraph::in_universe(self.path) || self.aux,
        }
    }
}

/// Lints one file's source under its workspace-relative logical path.
///
/// The logical path drives every rule's applicability (hot-path file
/// lists, allowlisted modules, exempt directories), so fixtures can be
/// checked *as if* they lived anywhere in the tree. No call graph
/// exists in this mode: cone-scoped rules use their conservative
/// single-file fallbacks (see [`ScopeSource::SingleFile`]).
pub fn lint_source(logical_path: &str, source: &str) -> Vec<Diagnostic> {
    let tokens = lexer::lex(source);
    let in_cone = vec![false; tokens.len()];
    lint_tokens(
        logical_path,
        &tokens,
        &in_cone,
        aux_path(logical_path),
        ScopeSource::SingleFile,
    )
}

/// The shared per-file rule pipeline.
fn lint_tokens(
    path: &str,
    tokens: &[Token],
    in_cone: &[bool],
    aux: bool,
    scope: ScopeSource,
) -> Vec<Diagnostic> {
    let in_test = cfg_test_mask(tokens);
    let ctx = FileCtx {
        path,
        tokens,
        in_test: &in_test,
        in_cone,
        aux,
        scope,
    };
    let mut diags = Vec::new();
    diags.extend(rules::commit_path::check(&ctx));
    diags.extend(rules::weights::check(&ctx));
    diags.extend(rules::hygiene::check(&ctx));
    diags.extend(rules::determinism::check(&ctx));
    let (markers, marker_diags) = collect_markers(path, tokens);
    diags.extend(marker_diags);
    apply_markers(path, diags, &markers)
}

/// Auxiliary scan scope: integration tests and benches. Not part of the
/// call-graph universe (they call into the libraries, never the
/// reverse) but scanned whole-file by the determinism family — a
/// nondeterministic test is a flaky bit-identity assertion. The
/// linter's own tree is excluded (its tests are made of deliberately
/// nondeterministic fixture text).
pub fn aux_path(path: &str) -> bool {
    !path.starts_with("crates/lint/")
        && (path.starts_with("tests/") || path.contains("/tests/") || path.contains("/benches/"))
}

/// A workspace lint result: the diagnostics plus the hot-path cone they
/// were scoped by.
pub struct WorkspaceReport {
    pub diagnostics: Vec<Diagnostic>,
    pub cone: callgraph::Cone,
}

/// Lints the whole workspace under `root`: lexes every `.rs` file,
/// builds the item model and approximate call graph over the library
/// crates, computes the hot-path cone, then runs every per-file rule
/// with real cone scopes, plus the cross-file telemetry-sync rule.
///
/// # Errors
///
/// Propagates I/O errors from walking or reading the tree.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    Ok(lint_workspace_report(root)?.diagnostics)
}

/// [`lint_workspace`], keeping the cone for reporting.
///
/// # Errors
///
/// Propagates I/O errors from walking or reading the tree.
pub fn lint_workspace_report(root: &Path) -> std::io::Result<WorkspaceReport> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort();

    // Pass 1: lex everything once; extract items over the call-graph
    // universe and compute the cone.
    let mut lexed: Vec<(String, Vec<Token>)> = Vec::new();
    let mut model: BTreeMap<String, items::FileItems> = BTreeMap::new();
    for rel in files {
        let source = std::fs::read_to_string(root.join(&rel))?;
        let tokens = lexer::lex(&source);
        if callgraph::in_universe(&rel) {
            model.insert(rel.clone(), items::extract(&tokens));
        }
        lexed.push((rel, tokens));
    }
    let cone = callgraph::compute_cone(&model);

    // A pinned entry point that no longer resolves means the cone — and
    // with it every cone-scoped rule — silently shrank.
    let mut diagnostics: Vec<Diagnostic> = cone
        .missing_entry_points()
        .map(|entry| {
            let (path, name) = entry.rsplit_once("::").unwrap_or((entry, entry));
            Diagnostic {
                path: path.to_string(),
                line: 1,
                rule: rules::determinism::RULE_CONE,
                message: format!(
                    "hot-path entry point `{name}` not found — the cone lost an anchor"
                ),
                hint: "re-pin the renamed/moved entry point in callgraph::ENTRY_POINTS so \
                       cone-scoped rules keep covering the parallel route phases"
                    .to_string(),
            }
        })
        .collect();

    // Pass 2: per-file rules under real cone scopes.
    for (rel, tokens) in &lexed {
        let in_cone: Vec<bool> = tokens
            .iter()
            .map(|t| cone.contains_line(rel, t.line))
            .collect();
        diagnostics.extend(lint_tokens(
            rel,
            tokens,
            &in_cone,
            aux_path(rel),
            ScopeSource::Workspace,
        ));
    }
    diagnostics.extend(rules::telemetry::check_workspace(root));
    Ok(WorkspaceReport { diagnostics, cone })
}

/// Directories never scanned: build output, VCS, the linter's own
/// deliberately-bad fixtures, and non-source archives.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures", "experiments_out"];

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Parses every `// lint: allow(...)` marker in the comment stream.
/// Markers must carry a justification and name a known rule; violations
/// of either are diagnostics in their own right.
fn collect_markers(path: &str, tokens: &[Token]) -> (Vec<AllowMarker>, Vec<Diagnostic>) {
    let mut markers = Vec::new();
    let mut diags = Vec::new();
    for t in tokens {
        if t.kind != TokenKind::LineComment {
            continue;
        }
        let text = t.text.trim();
        let Some(rest) = text.strip_prefix("lint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix("allow(") else {
            diags.push(marker_diag(path, t.line, "marker is not `allow(<rule>)`"));
            continue;
        };
        let Some(close) = rest.find(')') else {
            diags.push(marker_diag(path, t.line, "unclosed `allow(` marker"));
            continue;
        };
        let rule = rest[..close].trim().to_string();
        if !RULES.iter().any(|r| r.name == rule) {
            diags.push(marker_diag(
                path,
                t.line,
                &format!("marker names unknown rule `{rule}`"),
            ));
            continue;
        }
        let justification = rest[close + 1..]
            .trim_start_matches([':', '-', ' '])
            .trim();
        if justification.is_empty() {
            diags.push(marker_diag(
                path,
                t.line,
                &format!("allow({rule}) marker has no justification"),
            ));
            continue;
        }
        markers.push(AllowMarker { line: t.line, rule });
    }
    (markers, diags)
}

fn marker_diag(path: &str, line: usize, message: &str) -> Diagnostic {
    Diagnostic {
        path: path.to_string(),
        line,
        rule: MARKER_RULE,
        message: message.to_string(),
        hint: "write `// lint: allow(<rule>): <why this site is sound>`".to_string(),
    }
}

/// Drops diagnostics waived by a marker on the same line or the line
/// directly above. Unused markers are reported — a waiver that waives
/// nothing is stale documentation.
fn apply_markers(path: &str, diags: Vec<Diagnostic>, markers: &[AllowMarker]) -> Vec<Diagnostic> {
    let mut used: BTreeMap<usize, bool> = markers.iter().map(|m| (m.line, false)).collect();
    let mut kept: Vec<Diagnostic> = Vec::new();
    for d in diags {
        let waived = markers.iter().find(|m| {
            m.rule == d.rule && (m.line == d.line || m.line + 1 == d.line)
        });
        if let Some(m) = waived {
            if let Some(flag) = used.get_mut(&m.line) {
                *flag = true;
            }
        } else {
            kept.push(d);
        }
    }
    for m in markers {
        if used.get(&m.line) == Some(&false) && !kept.iter().any(|d| d.line == m.line) {
            // An unused marker is only worth reporting when nothing else
            // fired on its line (a marker above a moved line, say).
            kept.push(Diagnostic {
                path: path.to_string(),
                line: m.line,
                rule: MARKER_RULE,
                message: format!("allow({}) marker waives nothing", m.rule),
                hint: "delete the stale marker or move it next to the waived line".to_string(),
            });
        }
    }
    kept
}

/// Marks every token inside a `#[cfg(test)]`-gated item.
///
/// On seeing the attribute, any further attributes are skipped and the
/// following item's body (to the matching close brace, or the
/// terminating semicolon for brace-less items) is masked.
pub(crate) fn cfg_test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| tokens[i].kind != TokenKind::LineComment)
        .collect();
    let mut k = 0usize;
    while k < code.len() {
        if is_cfg_test_at(tokens, &code, k) {
            // Find the end of this attribute (its closing `]`).
            let mut j = k + 1; // at `[`
            let mut depth = 0i32;
            while j < code.len() {
                let t = &tokens[code[j]];
                if t.is_punct("[") {
                    depth += 1;
                } else if t.is_punct("]") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            // Skip any further attributes, then mask the item.
            let mut item = j + 1;
            while item < code.len() && tokens[code[item]].is_punct("#") {
                let mut d = 0i32;
                item += 1;
                while item < code.len() {
                    let t = &tokens[code[item]];
                    if t.is_punct("[") {
                        d += 1;
                    } else if t.is_punct("]") {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    item += 1;
                }
                item += 1;
            }
            let mut brace = 0i32;
            let mut end = item;
            while end < code.len() {
                let t = &tokens[code[end]];
                if t.is_punct("{") {
                    brace += 1;
                } else if t.is_punct("}") {
                    brace -= 1;
                    if brace == 0 {
                        break;
                    }
                } else if t.is_punct(";") && brace == 0 {
                    break;
                }
                end += 1;
            }
            for idx in &code[k..=end.min(code.len() - 1)] {
                mask[*idx] = true;
            }
            k = end + 1;
        } else {
            k += 1;
        }
    }
    mask
}

/// `code[k]` starts a `#[cfg(test)]` or `#[cfg(all(test, …))]`-style
/// attribute: `#` `[` `cfg` `(` … `test` … `)` `]`.
fn is_cfg_test_at(tokens: &[Token], code: &[usize], k: usize) -> bool {
    let get = |o: usize| code.get(k + o).map(|&i| &tokens[i]);
    if !get(0).is_some_and(|t| t.is_punct("#"))
        || !get(1).is_some_and(|t| t.is_punct("["))
        || !get(2).is_some_and(|t| t.is_ident("cfg"))
        || !get(3).is_some_and(|t| t.is_punct("("))
    {
        return false;
    }
    // Scan the cfg argument list for a bare `test` predicate.
    let mut o = 4;
    let mut depth = 1i32;
    while let Some(t) = get(o) {
        if t.is_punct("(") {
            depth += 1;
        } else if t.is_punct(")") {
            depth -= 1;
            if depth == 0 {
                return false;
            }
        } else if t.is_ident("test") && !get(o + 1).is_some_and(|n| n.is_punct("=")) {
            return true;
        }
        o += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_mask_covers_test_modules() {
        let src = "fn hot() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n fn t() { y.unwrap(); }\n}\nfn tail() {}\n";
        let tokens = lexer::lex(src);
        let mask = cfg_test_mask(&tokens);
        let unwraps: Vec<bool> = tokens
            .iter()
            .zip(&mask)
            .filter(|(t, _)| t.is_ident("unwrap"))
            .map(|(_, &m)| m)
            .collect();
        assert_eq!(unwraps, vec![false, true]);
        let tail = tokens.iter().zip(&mask).find(|(t, _)| t.is_ident("tail")).unwrap();
        assert!(!tail.1, "items after the test module are unmasked");
    }

    #[test]
    fn cfg_test_mask_handles_attribute_stacks_and_cfg_all() {
        let src = "#[cfg(all(test, feature = \"x\"))]\n#[allow(dead_code)]\nfn t() { z.unwrap(); }\nfn hot() { w.unwrap(); }\n";
        let tokens = lexer::lex(src);
        let mask = cfg_test_mask(&tokens);
        let unwraps: Vec<bool> = tokens
            .iter()
            .zip(&mask)
            .filter(|(t, _)| t.is_ident("unwrap"))
            .map(|(_, &m)| m)
            .collect();
        assert_eq!(unwraps, vec![true, false]);
    }

    #[test]
    fn cfg_test_eq_value_is_not_a_test_gate() {
        // `#[cfg(test = "no")]` — contrived, but `test` here is a key,
        // not the predicate.
        let src = "#[cfg(feature = \"test\")]\nfn f() { a.unwrap(); }\n";
        let tokens = lexer::lex(src);
        let mask = cfg_test_mask(&tokens);
        assert!(mask.iter().all(|&m| !m));
    }

    #[test]
    fn markers_require_known_rule_and_justification() {
        let src = "\
// lint: allow(panic-hygiene): poisoned lock is fatal by design\n\
fn f() {}\n\
// lint: allow(panic-hygiene)\n\
// lint: allow(no-such-rule): whatever\n";
        let tokens = lexer::lex(src);
        let (markers, diags) = collect_markers("x.rs", &tokens);
        assert_eq!(markers.len(), 1);
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.rule == MARKER_RULE));
        assert!(diags[0].message.contains("no justification"));
        assert!(diags[1].message.contains("unknown rule"));
    }

    #[test]
    fn marker_waives_same_line_and_next_line() {
        let diag = |line| Diagnostic {
            path: "x.rs".into(),
            line,
            rule: rules::hygiene::RULE_PANIC,
            message: "m".into(),
            hint: "h".into(),
        };
        let markers = vec![AllowMarker {
            line: 10,
            rule: rules::hygiene::RULE_PANIC.to_string(),
        }];
        let kept = apply_markers("x.rs", vec![diag(10), diag(11), diag(12)], &markers);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].line, 12);
    }

    #[test]
    fn stale_markers_are_reported() {
        let markers = vec![AllowMarker {
            line: 3,
            rule: rules::weights::RULE.to_string(),
        }];
        let kept = apply_markers("x.rs", Vec::new(), &markers);
        assert_eq!(kept.len(), 1);
        assert!(kept[0].message.contains("waives nothing"));
        assert_eq!(kept[0].path, "x.rs", "stale markers carry the file path");
    }
}
