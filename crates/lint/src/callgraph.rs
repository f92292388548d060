//! The workspace call graph and the **hot-path cone**: every function
//! transitively reachable from the routing entry points.
//!
//! The cone is the scope of the determinism rule family
//! ([`crate::rules::determinism`]) and the cone-derived scope of the
//! panic-hygiene rule: code a rip-up pass or a negotiated route phase
//! can execute must be free of nondeterminism sources and panics, and
//! code it cannot reach need not be. Entry points are pinned by
//! `(file, fn)` below — the router's per-circuit entry (which runs every
//! rip-up pass and dispatches to PathFinder), the negotiated-congestion
//! route phase, and the Dijkstra kernel's entry points — so a refactor
//! that renames or moves one fails the lint loudly
//! ([`missing_entry_points`]) instead of silently shrinking the cone.
//!
//! Resolution is by name, deliberately over-approximate: `.m(` reaches
//! every `fn m` on any `impl`, `T::m(` prefers `impl T` methods and
//! falls back to free functions (covering module-qualified calls), and
//! a bare `m(` reaches every free `fn m`. Over-approximation can only
//! widen the cone — more code checked, never less. The false-*negative*
//! shapes (edges the graph cannot see) are function pointers/closures
//! passed as values and then called through a variable, trait-object
//! dispatch through a `dyn` receiver, and calls manufactured by macros;
//! DESIGN.md §5i argues why those stay sound-enough here.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::items::{CallRef, FileItems};

/// The routing entry points seeding the cone, as
/// `(workspace-relative file, fn name)`.
pub const ENTRY_POINTS: &[(&str, &str)] = &[
    // Rip-up: every sequential pass, net route and commit of a routing.
    ("crates/fpga/src/router.rs", "route_classified"),
    // Negotiated congestion: per-iteration parallel route phase + cost update.
    ("crates/fpga/src/pathfinder.rs", "route_negotiated"),
    // The shortest-path kernel.
    ("crates/graph/src/dijkstra.rs", "run"),
    ("crates/graph/src/dijkstra.rs", "run_to_targets"),
    ("crates/graph/src/dijkstra.rs", "run_to_targets_with"),
];

/// Only library code can sit under the route phases: the call-graph
/// universe is the four library crates. Binaries, benches, tests, and
/// the experiment drivers *call into* these crates, never the reverse,
/// so indexing them would only manufacture false edges through shared
/// helper names.
pub fn in_universe(path: &str) -> bool {
    (path.starts_with("crates/graph/src/")
        || path.starts_with("crates/core/src/")
        || path.starts_with("crates/fpga/src/")
        || path.starts_with("crates/trace/src/"))
        && path.ends_with(".rs")
}

/// A function's identity in the graph: index into the flattened fn list.
type FnId = usize;

#[derive(Debug, Clone)]
struct FnNode {
    file: String,
    name: String,
    self_ty: Option<String>,
    start_line: usize,
    end_line: usize,
    calls: Vec<CallRef>,
}

/// Per-entry-point reachability, for the cone report.
#[derive(Debug, Clone)]
pub struct EntryStat {
    /// `file::fn` label of the entry point.
    pub entry: String,
    /// Functions reachable from it (entry included), or `None` when the
    /// entry point was not found in the workspace.
    pub reachable: Option<usize>,
}

/// The computed hot-path cone.
#[derive(Debug, Clone, Default)]
pub struct Cone {
    /// Per file: the 1-based line spans of cone functions, sorted.
    spans: BTreeMap<String, Vec<(usize, usize)>>,
    /// Per-entry reachability for reporting.
    pub entry_stats: Vec<EntryStat>,
    /// Total distinct functions in the cone.
    pub fn_count: usize,
}

impl Cone {
    /// The files owning at least one cone function, sorted.
    pub fn files(&self) -> impl Iterator<Item = &str> {
        self.spans.keys().map(String::as_str)
    }

    /// Number of files owning at least one cone function.
    pub fn file_count(&self) -> usize {
        self.spans.len()
    }

    /// Number of cone functions in `path`.
    pub fn fns_in_file(&self, path: &str) -> usize {
        self.spans.get(path).map_or(0, Vec::len)
    }

    /// `true` if 1-based `line` of `path` falls inside a cone function.
    pub fn contains_line(&self, path: &str, line: usize) -> bool {
        self.spans
            .get(path)
            .is_some_and(|spans| spans.iter().any(|&(a, b)| (a..=b).contains(&line)))
    }

    /// Entry points whose `(file, fn)` anchor no longer exists — a
    /// renamed or moved entry point silently seeds nothing, so the
    /// driver turns each into a diagnostic.
    pub fn missing_entry_points(&self) -> impl Iterator<Item = &str> {
        self.entry_stats
            .iter()
            .filter(|s| s.reachable.is_none())
            .map(|s| s.entry.as_str())
    }
}

/// Builds the call graph over `(path, items)` pairs (universe files
/// only) and walks the cone out of [`ENTRY_POINTS`].
pub fn compute_cone(files: &BTreeMap<String, FileItems>) -> Cone {
    // --- flatten and index ------------------------------------------------
    let mut nodes: Vec<FnNode> = Vec::new();
    for (path, items) in files {
        for f in &items.fns {
            nodes.push(FnNode {
                file: path.clone(),
                name: f.name.clone(),
                self_ty: f.self_ty.clone(),
                start_line: f.start_line,
                end_line: f.end_line,
                calls: f.calls.iter().map(|c| c.callee.clone()).collect(),
            });
        }
    }
    let mut free: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
    let mut methods: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
    let mut typed: BTreeMap<(&str, &str), Vec<FnId>> = BTreeMap::new();
    for (id, n) in nodes.iter().enumerate() {
        match &n.self_ty {
            Some(ty) => {
                methods.entry(&n.name).or_default().push(id);
                typed.entry((ty.as_str(), &n.name)).or_default().push(id);
            }
            None => free.entry(&n.name).or_default().push(id),
        }
    }

    let resolve = |call: &CallRef, out: &mut Vec<FnId>| match call {
        CallRef::Qualified(q, m) => {
            // `Self::helper(` cannot know its impl here; treat it like a
            // method call. Otherwise prefer `impl q` methods and fall
            // back to free fns (module-qualified call).
            if q == "Self" || q == "self" {
                if let Some(ids) = methods.get(m.as_str()) {
                    out.extend_from_slice(ids);
                }
                if let Some(ids) = free.get(m.as_str()) {
                    out.extend_from_slice(ids);
                }
            } else if let Some(ids) = typed.get(&(q.as_str(), m.as_str())) {
                out.extend_from_slice(ids);
            } else if let Some(ids) = free.get(m.as_str()) {
                out.extend_from_slice(ids);
            }
        }
        CallRef::Method(m) => {
            if let Some(ids) = methods.get(m.as_str()) {
                out.extend_from_slice(ids);
            }
        }
        CallRef::Bare(m) => {
            if let Some(ids) = free.get(m.as_str()) {
                out.extend_from_slice(ids);
            }
            // A bare call can also be an associated fn brought into
            // scope via `use Type::method` — rare enough here that the
            // free-fn table suffices; documented false-negative shape.
        }
    };

    // --- BFS per entry (stats), then union --------------------------------
    let mut cone_ids: BTreeSet<FnId> = BTreeSet::new();
    let mut entry_stats = Vec::new();
    for &(file, name) in ENTRY_POINTS {
        let seeds: Vec<FnId> = nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.file == file && n.name == name)
            .map(|(id, _)| id)
            .collect();
        let label = format!("{file}::{name}");
        if seeds.is_empty() {
            entry_stats.push(EntryStat {
                entry: label,
                reachable: None,
            });
            continue;
        }
        let mut seen: BTreeSet<FnId> = seeds.iter().copied().collect();
        let mut queue: VecDeque<FnId> = seeds.into_iter().collect();
        while let Some(id) = queue.pop_front() {
            let mut targets = Vec::new();
            for call in &nodes[id].calls {
                resolve(call, &mut targets);
            }
            for t in targets {
                if seen.insert(t) {
                    queue.push_back(t);
                }
            }
        }
        entry_stats.push(EntryStat {
            entry: label,
            reachable: Some(seen.len()),
        });
        cone_ids.extend(seen);
    }

    // --- project to line spans -------------------------------------------
    let mut spans: BTreeMap<String, Vec<(usize, usize)>> = BTreeMap::new();
    for &id in &cone_ids {
        let n = &nodes[id];
        spans
            .entry(n.file.clone())
            .or_default()
            .push((n.start_line, n.end_line));
    }
    for s in spans.values_mut() {
        s.sort_unstable();
    }
    Cone {
        spans,
        entry_stats,
        fn_count: cone_ids.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::extract;
    use crate::lexer::lex;

    fn workspace(files: &[(&str, &str)]) -> BTreeMap<String, FileItems> {
        files
            .iter()
            .map(|(p, src)| ((*p).to_string(), extract(&lex(src))))
            .collect()
    }

    #[test]
    fn cone_reaches_through_bare_method_and_qualified_calls() {
        let files = workspace(&[
            (
                "crates/fpga/src/pathfinder.rs",
                "pub fn route_negotiated() {\n route_all();\n}\n\
                 fn route_all() {\n let sp = ShortestPaths::run(&g, s);\n sp.settle();\n}\n\
                 fn cold_helper() { never_called(); }\n",
            ),
            (
                "crates/graph/src/dijkstra.rs",
                "impl ShortestPaths {\n pub fn run() { inner_loop(); }\n fn settle(&self) {}\n}\n\
                 fn inner_loop() {}\n",
            ),
            (
                "crates/fpga/src/viz.rs",
                "pub fn render() { draw(); }\nfn draw() {}\n",
            ),
        ]);
        let cone = compute_cone(&files);
        // route_negotiated → route_all → {ShortestPaths::run → inner_loop, settle}.
        assert!(cone.contains_line("crates/fpga/src/pathfinder.rs", 1));
        assert!(cone.contains_line("crates/fpga/src/pathfinder.rs", 5));
        assert!(cone.contains_line("crates/graph/src/dijkstra.rs", 2));
        assert!(cone.contains_line("crates/graph/src/dijkstra.rs", 5), "inner_loop");
        assert!(
            !cone.contains_line("crates/fpga/src/viz.rs", 1),
            "unreached files stay out of the cone"
        );
        assert!(
            !cone.contains_line("crates/fpga/src/pathfinder.rs", 8),
            "cold_helper is not reachable"
        );
    }

    #[test]
    fn entry_stats_report_per_entry_counts_and_missing_entries() {
        let files = workspace(&[(
            "crates/fpga/src/pathfinder.rs",
            "pub fn route_negotiated() { leaf(); }\nfn leaf() {}\n",
        )]);
        let cone = compute_cone(&files);
        let pf = cone
            .entry_stats
            .iter()
            .find(|s| s.entry.ends_with("route_negotiated"))
            .unwrap();
        assert_eq!(pf.reachable, Some(2));
        // Every other pinned entry point is absent from this mini-workspace.
        let missing: Vec<&str> = cone.missing_entry_points().collect();
        assert!(missing.iter().any(|e| e.ends_with("route_classified")));
        assert_eq!(missing.len(), ENTRY_POINTS.len() - 1);
        assert_eq!(cone.fn_count, 2);
        assert_eq!(cone.file_count(), 1);
    }

    #[test]
    fn universe_excludes_benches_tests_and_bins() {
        assert!(in_universe("crates/graph/src/dijkstra.rs"));
        assert!(in_universe("crates/trace/src/collector.rs"));
        assert!(!in_universe("crates/bench/benches/kernel.rs"));
        assert!(!in_universe("tests/pathfinder.rs"));
        assert!(!in_universe("src/bin/fpga_route.rs"));
        assert!(!in_universe("crates/fpga/tests/x.rs"));
        assert!(!in_universe("crates/experiments/src/table2.rs"));
    }

    #[test]
    fn self_qualified_calls_resolve_to_methods() {
        let files = workspace(&[(
            "crates/fpga/src/router.rs",
            "impl Router {\n pub fn route_classified(&self) { Self::route_pass(); }\n fn route_pass() { leaf_fn(); }\n}\nfn leaf_fn() {}\n",
        )]);
        let cone = compute_cone(&files);
        assert!(cone.contains_line("crates/fpga/src/router.rs", 3), "Self::route_pass reached");
        assert!(cone.contains_line("crates/fpga/src/router.rs", 5), "leaf_fn reached");
    }
}
