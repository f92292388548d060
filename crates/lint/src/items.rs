//! An approximate item model over the lexer's token stream: which
//! functions a file defines (with their enclosing `impl` type and body
//! spans) and which functions each body appears to call.
//!
//! This is deliberately *not* a parser. The call-graph consumers
//! ([`crate::callgraph`]) only need three statements per file — "a
//! function named N, on type T, spans tokens A..B", "inside that span,
//! `X::y(`, `.y(` or `y(` is uttered", and "this file `use`s these
//! paths" — and a single forward scan over tokens with a brace-depth
//! counter answers all three. The price is approximation: macro bodies,
//! trait-object dispatch, and function pointers produce no edges (the
//! known false-negative shapes, documented in DESIGN.md §5i), and
//! same-named methods on different types over-approximate. Both errors
//! are survivable for a lint scope — over-approximation widens the
//! checked cone, and the named false-negative shapes do not occur on
//! the routing hot path, which this workspace keeps macro-free and
//! static-dispatch by construction.

use crate::lexer::{Token, TokenKind};

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallRef {
    /// `Type::method(` or `module::function(` — qualifier plus name.
    Qualified(String, String),
    /// `.method(` — receiver type unknown.
    Method(String),
    /// `function(` — a bare call.
    Bare(String),
}

impl CallRef {
    /// The called name, qualifier stripped.
    pub fn name(&self) -> &str {
        match self {
            CallRef::Qualified(_, n) | CallRef::Method(n) | CallRef::Bare(n) => n,
        }
    }
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    pub callee: CallRef,
    pub line: usize,
}

/// One `fn` item: its name, the `impl` type it sits on (if any), its
/// 1-based source line span, and the calls its body utters.
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    /// Last path segment of the `impl` target (`LaneView`,
    /// `ShortestPaths`, …); `None` for free functions.
    pub self_ty: Option<String>,
    pub start_line: usize,
    pub end_line: usize,
    pub calls: Vec<CallSite>,
}

/// The item model of one file.
#[derive(Debug, Clone, Default)]
pub struct FileItems {
    pub fns: Vec<FnItem>,
}

/// Keywords that look like calls when followed by `(`.
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "return", "in", "as", "fn", "loop", "move", "box", "where",
    "let", "else", "mut", "ref", "impl", "dyn", "use", "pub", "crate", "super", "self", "Self",
    "true", "false", "unsafe", "async", "await", "break", "continue",
];

/// Extracts the item model from a lexed file.
///
/// One forward scan with a brace-depth counter. `impl` blocks push their
/// target type onto a stack keyed by entry depth; `fn` items open a
/// frame keyed by the depth of their body brace, and every call-shaped
/// token triple inside is attributed to the *innermost* open function —
/// which also makes closure bodies and nested `fn`s attribute correctly
/// enough for reachability.
pub fn extract(tokens: &[Token]) -> FileItems {
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| tokens[i].kind != TokenKind::LineComment)
        .collect();
    let mut out = FileItems::default();
    let mut depth = 0i32;
    // (entered-at depth, impl target type)
    let mut impl_stack: Vec<(i32, Option<String>)> = Vec::new();
    // Open fn frames: (body depth, index into out.fns).
    let mut fn_stack: Vec<(i32, usize)> = Vec::new();

    let mut k = 0usize;
    while k < code.len() {
        let i = code[k];
        let tok = &tokens[i];
        match (tok.kind, tok.text.as_str()) {
            (TokenKind::Punct, "{") => depth += 1,
            (TokenKind::Punct, "}") => {
                depth -= 1;
                while fn_stack.last().is_some_and(|&(d, _)| d > depth) {
                    let (_, fi) = fn_stack.pop().expect("guarded by last()");
                    out.fns[fi].end_line = tok.line;
                }
                // An impl frame entered at depth D owns the brace that
                // raised depth to D+1, so its own `}` returns depth to D.
                while impl_stack.last().is_some_and(|&(d, _)| d >= depth) {
                    impl_stack.pop();
                }
            }
            (TokenKind::Ident, "impl") => {
                // Scan to the opening `{`, remembering the last path
                // segment of the target type (after `for` when present).
                let mut ty: Option<String> = None;
                let mut after_for = false;
                let mut j = k + 1;
                let mut angle = 0i32;
                while j < code.len() {
                    let t = &tokens[code[j]];
                    if t.is_punct("{") || t.is_punct(";") {
                        break;
                    }
                    match (t.kind, t.text.as_str()) {
                        (TokenKind::Punct, "<") => angle += 1,
                        (TokenKind::Punct, ">") => angle -= 1,
                        (TokenKind::Punct, ">>") => angle -= 2,
                        (TokenKind::Ident, "for") => {
                            after_for = true;
                            ty = None;
                        }
                        (TokenKind::Ident, "where") => break,
                        (TokenKind::Ident, name) if angle <= 0 => {
                            // Keep the last base-path segment seen; for
                            // `impl Trait for Type` the reset above makes
                            // that the Type side.
                            let _ = after_for;
                            ty = Some(name.to_string());
                        }
                        _ => {}
                    }
                    j += 1;
                }
                impl_stack.push((depth, ty));
                // Fall through: the `{` itself is handled on its turn.
            }
            (TokenKind::Ident, "fn") => {
                let Some(name_tok) = code.get(k + 1).map(|&j| &tokens[j]) else {
                    k += 1;
                    continue;
                };
                if name_tok.kind != TokenKind::Ident {
                    k += 1;
                    continue;
                }
                let self_ty = impl_stack
                    .iter()
                    .rev()
                    .find_map(|(_, ty)| ty.clone());
                // Find the body `{` (or a `;` for trait declarations),
                // skipping the parameter list and any return/where types.
                let mut j = k + 2;
                let mut paren = 0i32;
                let mut angle = 0i32;
                let mut body_at: Option<usize> = None;
                while j < code.len() {
                    let t = &tokens[code[j]];
                    match (t.kind, t.text.as_str()) {
                        (TokenKind::Punct, "(") | (TokenKind::Punct, "[") => paren += 1,
                        (TokenKind::Punct, ")") | (TokenKind::Punct, "]") => paren -= 1,
                        (TokenKind::Punct, "<") => angle += 1,
                        (TokenKind::Punct, ">") => angle -= 1,
                        (TokenKind::Punct, ">>") => angle -= 2,
                        (TokenKind::Punct, "->") => {}
                        (TokenKind::Punct, "{") if paren == 0 => {
                            body_at = Some(j);
                            break;
                        }
                        (TokenKind::Punct, ";") if paren == 0 && angle <= 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                out.fns.push(FnItem {
                    name: name_tok.text.clone(),
                    self_ty,
                    start_line: tok.line,
                    end_line: name_tok.line, // grown when the body closes
                    calls: Vec::new(),
                });
                if let Some(body) = body_at {
                    // The body brace will raise `depth` when its `{` is
                    // scanned; frames close when depth drops back.
                    fn_stack.push((depth + 1, out.fns.len() - 1));
                    // Resume the main scan *at* the `{` so depth tracking
                    // stays consistent.
                    k = body;
                    continue;
                }
                k = j;
                continue;
            }
            (TokenKind::Ident, name) => {
                if let Some(&(_, fi)) = fn_stack.last() {
                    if let Some(call) = call_at(tokens, &code, k, name) {
                        out.fns[fi].calls.push(CallSite {
                            callee: call,
                            line: tok.line,
                        });
                    }
                }
            }
            _ => {}
        }
        k += 1;
    }
    // Close any frames left open by a truncated file.
    let last_line = tokens.last().map_or(1, |t| t.line);
    for (_, fi) in fn_stack {
        out.fns[fi].end_line = last_line;
    }
    out
}

/// If the identifier at `code[k]` is the *name position* of a
/// call-shaped token sequence, classify it.
fn call_at(tokens: &[Token], code: &[usize], k: usize, name: &str) -> Option<CallRef> {
    if CALL_KEYWORDS.contains(&name) {
        return None;
    }
    let get = |o: isize| {
        let idx = k as isize + o;
        usize::try_from(idx).ok().and_then(|u| code.get(u)).map(|&j| &tokens[j])
    };
    // The name must be directly followed by `(`; `name::` means this
    // token is a qualifier, not the callee (the callee's own turn will
    // classify it).
    if !get(1).is_some_and(|t| t.is_punct("(")) {
        return None;
    }
    let prev = get(-1);
    if prev.is_some_and(|t| t.is_ident("fn")) {
        return None; // definition, not a call
    }
    if prev.is_some_and(|t| t.is_punct("::")) {
        // `Qualifier::name(` — capture the qualifier segment.
        let q = get(-2).filter(|t| t.kind == TokenKind::Ident);
        return Some(match q {
            Some(q) => CallRef::Qualified(q.text.clone(), name.to_string()),
            None => CallRef::Bare(name.to_string()),
        });
    }
    if prev.is_some_and(|t| t.is_punct(".")) {
        return Some(CallRef::Method(name.to_string()));
    }
    // Macro invocation `name!(…)` is not a function call.
    if prev.is_some_and(|t| t.is_punct("!")) {
        return None;
    }
    Some(CallRef::Bare(name.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn model(src: &str) -> FileItems {
        extract(&lex(src))
    }

    #[test]
    fn free_and_impl_fns_extract_with_spans() {
        let src = "\
fn free(x: u32) -> u32 {\n    helper(x)\n}\n\
struct S;\n\
impl S {\n    fn method(&self) {\n        self.other();\n    }\n}\n";
        let m = model(src);
        assert_eq!(m.fns.len(), 2);
        assert_eq!(m.fns[0].name, "free");
        assert_eq!(m.fns[0].self_ty, None);
        assert_eq!((m.fns[0].start_line, m.fns[0].end_line), (1, 3));
        assert_eq!(m.fns[1].name, "method");
        assert_eq!(m.fns[1].self_ty.as_deref(), Some("S"));
        assert_eq!((m.fns[1].start_line, m.fns[1].end_line), (6, 8));
    }

    #[test]
    fn fns_after_a_closed_impl_are_free_again() {
        let src = "impl S { fn m(&self) {} }\nfn free_after() { helper(); }\n";
        let m = model(src);
        assert_eq!(m.fns.len(), 2);
        assert_eq!(m.fns[0].self_ty.as_deref(), Some("S"));
        assert_eq!(m.fns[1].self_ty, None, "the impl frame closed with its brace");
    }

    #[test]
    fn impl_trait_for_type_attributes_to_the_type() {
        let src = "impl<G: GraphView> Potential for GridPotential<G> {\n fn h(&self) { grid(self) }\n}\n";
        let m = model(src);
        assert_eq!(m.fns[0].self_ty.as_deref(), Some("GridPotential"));
    }

    #[test]
    fn calls_classify_and_attribute_to_the_innermost_fn() {
        let src = "\
fn outer() {\n\
    let x = ShortestPaths::run(&g, s);\n\
    let c = |v| inner_helper(v);\n\
    x.settle(c);\n\
    fn nested() { nested_only(); }\n\
    tail_call();\n\
}\n";
        let m = model(src);
        assert_eq!(m.fns.len(), 2, "outer and nested both extract");
        let outer = &m.fns[0];
        let calls: Vec<&CallRef> = outer.calls.iter().map(|c| &c.callee).collect();
        assert!(calls.contains(&&CallRef::Qualified("ShortestPaths".into(), "run".into())));
        assert!(calls.contains(&&CallRef::Bare("inner_helper".into())));
        assert!(calls.contains(&&CallRef::Method("settle".into())));
        assert!(calls.contains(&&CallRef::Bare("tail_call".into())));
        let nested = &m.fns[1];
        assert_eq!(nested.calls.len(), 1);
        assert_eq!(nested.calls[0].callee, CallRef::Bare("nested_only".into()));
        assert!(
            !outer.calls.iter().any(|c| c.callee.name() == "nested_only"),
            "nested-body calls do not leak into the outer frame"
        );
    }

    #[test]
    fn keywords_macros_and_definitions_are_not_calls() {
        let src = "fn f() {\n if (a) {}\n println!(\"x\");\n match (b) { _ => {} }\n}\n";
        let m = model(src);
        assert!(m.fns[0].calls.is_empty(), "got {:?}", m.fns[0].calls);
    }

    #[test]
    fn trait_method_declarations_without_bodies_are_items_without_calls() {
        let src = "trait T {\n fn decl(&self) -> usize;\n fn with_default(&self) { dflt(); }\n}\n";
        let m = model(src);
        assert_eq!(m.fns.len(), 2);
        assert!(m.fns[0].calls.is_empty());
        assert_eq!(m.fns[1].calls.len(), 1);
    }

    #[test]
    fn fn_returning_generic_with_brace_free_types_finds_its_body() {
        let src = "fn f<T: Ord>(v: Vec<T>) -> impl Iterator<Item = T> where T: Clone {\n body_call();\n v.into_iter()\n}\n";
        let m = model(src);
        assert_eq!(m.fns.len(), 1);
        assert!(m.fns[0].calls.iter().any(|c| c.callee.name() == "body_call"));
    }
}
