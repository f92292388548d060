//! Integration tests for the observability suite.
//!
//! The suite's contract has two halves. First, observation must not
//! perturb: installing a trace collector changes nothing about a
//! routing result — same trees, same wirelength, same pass count — for
//! either routing mode at any thread count. Second, observation must be
//! complete: a traced parallel PathFinder run emits every record type the
//! suite defines (histograms, gauges, profile, convergence, timelines),
//! all of it valid under `trace-check`'s record validator and renderable
//! by `trace-report`.

use fpga_route::fpga::synth::{synthesize, CircuitProfile};
use fpga_route::fpga::{
    ArchSpec, Circuit, Device, RouteMode, RouteOutcome, Router, RouterConfig,
};
use fpga_route::trace::check::RecordCheck;
use fpga_route::trace::report::render_report;
use fpga_route::trace::{Collector, JsonlSink, TraceSink};

/// Collector state is process-global; serialize the tests so one
/// test's "uninstrumented" baseline never runs under another's
/// collector.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A small synthetic profile: enough nets to contend, fast to route.
fn tiny_profile() -> CircuitProfile {
    CircuitProfile {
        name: "tiny",
        rows: 5,
        cols: 5,
        nets_2_3: 8,
        nets_4_10: 3,
        nets_over_10: 0,
    }
}

fn tiny_circuit() -> Circuit {
    synthesize(&tiny_profile(), 2, 1995).expect("synthesizable")
}

fn tiny_device(width: usize) -> Device {
    let profile = tiny_profile();
    Device::new(ArchSpec::xilinx4000(profile.rows, profile.cols, width)).unwrap()
}

fn route(device: &Device, config: RouterConfig) -> RouteOutcome {
    Router::new(device, config)
        .route(&tiny_circuit())
        .expect("tiny circuit routes at a generous width")
}

fn config(mode: RouteMode, threads: usize) -> RouterConfig {
    RouterConfig {
        mode,
        threads,
        ..RouterConfig::default()
    }
}

fn assert_identical(bare: &RouteOutcome, traced: &RouteOutcome, context: &str) {
    assert_eq!(traced.trees, bare.trees, "{context}: trees diverged");
    assert_eq!(traced.passes, bare.passes, "{context}: pass count diverged");
    assert_eq!(
        traced.total_wirelength, bare.total_wirelength,
        "{context}: wirelength diverged"
    );
}

#[test]
fn instrumentation_does_not_perturb_routing_results() {
    let _gate = serial();
    let device = tiny_device(8);
    for (mode, threads) in [
        (RouteMode::RipUp, 1),
        (RouteMode::RipUp, 2),
        (RouteMode::Pathfinder, 1),
        (RouteMode::Pathfinder, 2),
        (RouteMode::Pathfinder, 0),
    ] {
        let bare = route(&device, config(mode, threads));
        let collector = Collector::install();
        let traced = route(&device, config(mode, threads));
        let trace = collector.finish();
        let context = format!("{mode:?}/threads {threads}");
        assert_identical(&bare, &traced, &context);
        assert!(
            trace.summary().contains("telemetry summary"),
            "{context}: collector captured nothing"
        );
    }
}

/// Routes under a collector and returns the trace as JSONL.
fn traced_jsonl(device: &Device, config: RouterConfig) -> String {
    let collector = Collector::install();
    let _ = route(device, config);
    let trace = collector.finish();
    let mut buf = Vec::new();
    JsonlSink.emit(&trace, &mut buf).unwrap();
    String::from_utf8(buf).unwrap()
}

#[test]
fn traced_pathfinder_run_emits_every_observability_record_type() {
    let _gate = serial();
    let device = tiny_device(8);
    let jsonl = traced_jsonl(&device, config(RouteMode::Pathfinder, 2));
    for record_type in ["histogram", "gauge", "profile", "convergence", "timeline"] {
        assert!(
            jsonl.contains(&format!("\"type\":\"{record_type}\"")),
            "trace is missing {record_type} records:\n{jsonl}"
        );
    }
    // Specific surfaces: per-net and per-iteration histograms, the
    // pathfinder gauge, and a per-worker timeline with a role.
    for needle in [
        "\"name\":\"net_route_ns\"",
        "\"name\":\"pf_iteration_ns\"",
        "\"name\":\"peak_overcapacity_nodes\"",
        "\"role\":\"pf-worker\"",
    ] {
        assert!(jsonl.contains(needle), "trace is missing {needle}");
    }

    let mut check = RecordCheck::new();
    for line in jsonl.lines() {
        check.line(line).unwrap_or_else(|e| {
            panic!("trace-check rejected an emitted record: {e}\nline: {line}")
        });
    }

    let report = render_report(&jsonl).expect("trace-report renders the emitted trace");
    for section in [
        "latency histograms",
        "pathfinder convergence",
        "scheduler timelines",
        "wall-clock profile",
    ] {
        assert!(report.contains(section), "report lacks {section}:\n{report}");
    }
}

#[test]
fn traced_ripup_run_records_commits_and_no_worker_timelines() {
    // Rip-up routes one net at a time at any thread count: its trace
    // carries commit latencies but no worker timelines.
    let _gate = serial();
    let device = tiny_device(8);
    let jsonl = traced_jsonl(&device, config(RouteMode::RipUp, 2));
    assert!(
        jsonl.contains("\"name\":\"commit_apply_ns\""),
        "trace is missing commit latencies:\n{jsonl}"
    );
    assert!(
        !jsonl.contains("\"type\":\"timeline\""),
        "rip-up spawned routing workers:\n{jsonl}"
    );
    let mut check = RecordCheck::new();
    for line in jsonl.lines() {
        check.line(line).expect("every emitted record validates");
    }
}

#[test]
fn selective_pathfinder_spawns_no_more_workers_than_nets() {
    // Selective mode's dirty set shrinks to a few nets while converging;
    // a route phase must not spawn workers with nothing to route, and
    // the worker count must stay invisible in the trees.
    let _gate = serial();
    let device = tiny_device(8);
    let selective = |threads| RouterConfig {
        pf_selective: true,
        ..config(RouteMode::Pathfinder, threads)
    };
    let sequential = route(&device, selective(1));
    let collector = Collector::install();
    let wide = route(&device, selective(64));
    let trace = collector.finish();
    assert_eq!(wide.trees, sequential.trees);
    assert_eq!(wide.passes, sequential.passes);
    assert!(wide.passes >= 2, "the tiny circuit must negotiate");
    for pass in &wide.telemetry.passes {
        let workers = trace
            .timelines
            .iter()
            .filter(|t| t.role == "pf-worker" && t.pass == pass.pass)
            .count();
        assert!(workers >= 1, "iteration {} recorded no worker", pass.pass);
        assert!(
            workers <= pass.dirty_nets,
            "iteration {} routed {} nets on {workers} workers",
            pass.pass,
            pass.dirty_nets
        );
    }
}
