//! Adversarial end-to-end gate: seed a real nondeterminism bug — a
//! `HashMap`-iteration net ordering — into a *scratch copy* of a
//! route-phase helper and assert the `fpga_lint` binary (the exact
//! artifact ci.sh runs) exits nonzero, while the repaired copy and the
//! live workspace stay green. This exercises the whole pipeline: walk,
//! lex, item extraction, cone BFS through a helper one call away from
//! the entry point, rule dispatch, and the process exit code.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The seeded bug: `order_nets` is NOT an entry point — it is reachable
/// only through `route_negotiated`, so catching it proves the cone
/// propagates through the call graph rather than matching entry files.
const PATHFINDER_BAD: &str = r#"
pub fn route_negotiated(nets: &HashMap<u32, Net>) -> Vec<u32> {
    order_nets(nets)
}

fn order_nets(pending: &HashMap<u32, Net>) -> Vec<u32> {
    let mut out = Vec::new();
    for (net, _state) in pending {
        out.push(*net);
    }
    out
}
"#;

/// The repaired copy: identical shape, sorted projection.
const PATHFINDER_GOOD: &str = r#"
pub fn route_negotiated(nets: &HashMap<u32, Net>) -> Vec<u32> {
    order_nets(nets)
}

fn order_nets(pending: &HashMap<u32, Net>) -> Vec<u32> {
    let mut out: Vec<u32> = pending.keys().copied().collect();
    out.sort_unstable();
    out
}
"#;

/// Stubs for the other pinned entry points, so the scratch workspace
/// carries no `determinism-cone` (missing anchor) diagnostics and the
/// only difference between bad and good runs is the seeded bug.
const ROUTER_STUB: &str = "
pub fn route_classified() {}
";
const DIJKSTRA_STUB: &str = "
pub fn run() {}
pub fn run_guided() {}
pub fn run_to_targets() {}
pub fn run_to_targets_guided() {}
pub fn run_to_targets_with() {}
";

struct Scratch {
    root: PathBuf,
}

impl Scratch {
    fn build(tag: &str, pathfinder: &str) -> Self {
        let root = std::env::temp_dir().join(format!(
            "fpga_lint_adversarial_{}_{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        for (rel, body) in [
            ("crates/fpga/src/pathfinder.rs", pathfinder),
            ("crates/fpga/src/router.rs", ROUTER_STUB),
            ("crates/graph/src/dijkstra.rs", DIJKSTRA_STUB),
        ] {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().expect("rel paths have parents")).unwrap();
            std::fs::write(path, body).unwrap();
        }
        Scratch { root }
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn run_lint(root: &Path, extra: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_fpga_lint"))
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("spawn fpga_lint");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn seeded_hash_order_bug_fails_the_gate_and_the_fix_clears_it() {
    let bad = Scratch::build("bad", PATHFINDER_BAD);
    let (code, stdout, stderr) = run_lint(&bad.root, &[]);
    assert_eq!(code, Some(1), "seeded bug must fail the gate\nstdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(
        stdout.contains("determinism-hash-iter") && stdout.contains("pathfinder.rs"),
        "diagnostic names the rule and file:\n{stdout}"
    );
    assert!(
        !stdout.contains("determinism-cone"),
        "all entry anchors resolve in the scratch workspace:\n{stdout}"
    );
    // The cone report proves the helper was reached through the entry.
    assert!(
        stderr.contains("route_negotiated"),
        "cone report lists the entry:\n{stderr}"
    );

    let good = Scratch::build("good", PATHFINDER_GOOD);
    let (code, stdout, stderr) = run_lint(&good.root, &[]);
    assert_eq!(
        code,
        Some(0),
        "sorted projection lints clean\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
}

#[test]
fn seeded_bug_shows_up_in_json_with_code_and_snippet() {
    let bad = Scratch::build("json", PATHFINDER_BAD);
    let (code, stdout, _stderr) = run_lint(&bad.root, &["--json"]);
    assert_eq!(code, Some(1));
    assert!(stdout.contains("\"code\":\"FL010\""), "stable rule code:\n{stdout}");
    assert!(
        stdout.contains("\"snippet\":\"for (net, _state) in pending {\""),
        "snippet quotes the offending line:\n{stdout}"
    );
    assert!(stdout.contains("\"summary\":{\"determinism-hash-iter\":1}"), "{stdout}");
}

#[test]
fn live_workspace_stays_green_under_the_ci_invocation() {
    // Two levels up from crates/lint: the real repository root. Budgets
    // mirror ci.sh — bench timing is tolerated, nothing else is.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf();
    let (code, stdout, stderr) = run_lint(
        &root,
        &[
            "--waiver-budget",
            "determinism-wall-clock=8",
            "--waiver-budget",
            "determinism-float-weight=2",
        ],
    );
    assert_eq!(
        code,
        Some(0),
        "live workspace must lint clean\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stderr.contains("hot-path cone:"),
        "cone report present:\n{stderr}"
    );
}
