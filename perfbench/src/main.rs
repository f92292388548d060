//! Routing benchmark for fpga-route.
//!
//! ```text
//! perfbench --workload <ripup_width|pathfinder_selective|ripup_critical_t2>
//!           [--seed 1995] [--seconds 40] [--trace 0|1]
//! ```
//!
//! `--trace 0` times the workload with tracing off and prints the
//! end-to-end metrics; `--trace 1` runs the same jobs once more under the
//! trace collector and prints the per-layer metrics, writing its spans to
//! `perfbench/out/`. Either way every routing is audited before its numbers
//! count, and the last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The line before it is a
//! report with the seed, the host block and the per-job details.
//!
//! See `perfbench/README.md` for what each metric means.

#![forbid(unsafe_code)]

mod audit;
mod layers;
mod spans;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use fpga_route::fpga::classify;
use fpga_route::fpga::{Device, FpgaError, RouteAlgorithm};
use fpga_route::trace::json::{write_str, ObjectWriter};
use fpga_route::trace::Collector;

use layers::{median, Layers};
use spans::Spans;
use workload::{Case, Quality, Routed, Workload, CRITICAL_FRACTION};

/// Every end-to-end metric with its unit, in output order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("channel_width", "tracks"),
    ("wirelength", "wire_units"),
    ("pathlength", "wire_units"),
    ("critical_pathlength", "wire_units"),
];

/// Set-up repetitions per job and sweep; `setup_s` sums the per-job
/// medians.
const SETUP_REPS: usize = 5;

/// Where the traced run writes its spans and metrics.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1995u64;
    let mut seconds = 40u64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&args).and_then(|args| {
        if args.trace {
            traced_run(&args)
        } else {
            timed_run(&args)
        }
    });
    match result {
        Ok(run) => {
            let mut line = ObjectWriter::new();
            line.raw("report", &run.report);
            println!("{}", line.finish());
            println!("{}", run.result);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The two output lines, rendered as JSON.
struct RunOutput {
    report: String,
    result: String,
}

/// A finite measurement as a JSON number, with all its digits.
fn num(x: f64) -> String {
    // JSON has no NaN or infinity; every value written here is a finite
    // measurement, so a non-finite one is a benchmark bug.
    assert!(x.is_finite(), "non-finite metric value {x}");
    format!("{x:?}")
}

/// A JSON string literal.
fn string(s: &str) -> String {
    let mut out = String::new();
    write_str(&mut out, s);
    out
}

/// A JSON array of rendered values.
fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}

/// Correctness bookkeeping shared by both kinds of run.
#[derive(Default)]
struct Verdict {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    /// Problems that make the outputs wrong rather than missing.
    wrong: bool,
    self_tested: bool,
}

impl Verdict {
    /// Audits one routing; `None` (and a failed job) if it errored or is
    /// illegal. The first legal routing also runs the audit's self-test.
    fn check(
        &mut self,
        case: &Case,
        critical: &[bool],
        result: Result<Routed, FpgaError>,
        spans: &mut Spans,
        job: usize,
    ) -> Option<(Routed, Quality)> {
        self.attempted += 1;
        let routed = match result {
            Ok(routed) => routed,
            Err(e) => {
                self.failed += 1;
                self.problems.push(format!("{}: {e}", case.label));
                return None;
            }
        };
        spans.enter("audit", Some(job));
        let arch = case.arch(routed.width);
        let audited = audit::audit(arch, &case.circuit, &routed.outcome);
        if audited.is_ok() && !self.self_tested {
            self.self_tested = true;
            match audit::self_test(arch, &case.circuit, &routed.outcome) {
                Ok(accepted) if accepted.is_empty() => {}
                Ok(accepted) => self.wrong(format!("audit accepted corruptions: {accepted:?}")),
                Err(e) => self.wrong(format!("audit self-test: {e}")),
            }
        }
        spans.exit();
        match audited {
            Ok(audited) => {
                let quality = Quality::of(&routed, case.device.is_none(), critical, audited);
                Some((routed, quality))
            }
            Err(e) => {
                self.failed += 1;
                self.wrong(format!("{}: illegal routing: {e}", case.label));
                None
            }
        }
    }

    fn wrong(&mut self, problem: String) {
        self.wrong = true;
        self.problems.push(problem);
    }

    fn correct(&self) -> bool {
        !self.wrong && self.self_tested
    }

    fn result(&self, metrics: &[(&str, f64, &str)]) -> String {
        let mut result = ObjectWriter::new();
        result
            .raw("correct", &self.correct().to_string())
            .u64("attempted", self.attempted as u64)
            .u64("failed", self.failed as u64)
            .raw("metrics", &metrics_json(metrics));
        result.finish()
    }
}

/// `{name: {"value", "unit"}}` for each metric.
fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let mut m = ObjectWriter::new();
    for &(name, value, unit) in metrics {
        let mut metric = ObjectWriter::new();
        metric.raw("value", &num(value)).str("unit", unit);
        m.raw(name, &metric.finish());
    }
    m.finish()
}

/// The timed run: sweeps over every job until the time budget would be
/// overrun. Before each routing, the job's set-up runs [`SETUP_REPS`]
/// times, so set-up samples spread over the run like routing samples do.
fn timed_run(args: &Args) -> Result<RunOutput, String> {
    let w = args.workload;
    let specs = workload::case_specs(w, args.seed);
    let mut spans = Spans::new(false);
    let mut verdict = Verdict::default();
    let mut setup_s: Vec<Vec<f64>> = vec![Vec::new(); specs.len()];
    let mut seconds: Vec<Vec<f64>> = vec![Vec::new(); specs.len()];
    let mut quality: Vec<Option<Quality>> = vec![None; specs.len()];
    let started = Instant::now();
    let mut sweeps = 0usize;
    loop {
        for (job, spec) in specs.iter().enumerate() {
            let mut case = None;
            for _ in 0..SETUP_REPS {
                let setup_started = Instant::now();
                case = Some(spec.build(&mut spans, job).map_err(|e| e.to_string())?);
                setup_s[job].push(setup_started.elapsed().as_secs_f64());
            }
            let case = case.expect("SETUP_REPS is positive");
            let critical = classify::by_span(&case.circuit, CRITICAL_FRACTION);
            let result = workload::route(w, &case, &critical, w.threads(), &mut spans, job);
            let Some((routed, q)) = verdict.check(&case, &critical, result, &mut spans, job) else {
                continue;
            };
            seconds[job].push(routed.seconds);
            match quality[job] {
                None => quality[job] = Some(q),
                Some(first) if first != q => {
                    verdict.wrong(format!("{}: routing differs between sweeps", case.label));
                }
                Some(_) => {}
            }
        }
        sweeps += 1;
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + elapsed / sweeps as f64 > args.seconds as f64 {
            break;
        }
    }
    let routed: Vec<Quality> = quality.iter().flatten().copied().collect();
    let units = |f: fn(&Quality) -> u64| routed.iter().map(f).sum::<u64>() as f64 / 1000.0;
    let metrics = vec![
        ("wall_s", seconds.iter().map(|s| median(s)).sum(), "s"),
        ("setup_s", setup_s.iter().map(|s| median(s)).sum(), "s"),
        ("peak_rss_mb", peak_rss_mb()?, "MiB"),
        (
            "channel_width",
            routed.iter().map(|q| q.channel_width as f64).sum(),
            "tracks",
        ),
        (
            "wirelength",
            units(|q| q.wirelength.as_milli()),
            "wire_units",
        ),
        (
            "pathlength",
            units(|q| q.pathlength.as_milli()),
            "wire_units",
        ),
        (
            "critical_pathlength",
            units(|q| q.critical_pathlength.as_milli()),
            "wire_units",
        ),
    ];
    debug_assert!(metrics
        .iter()
        .map(|m| m.0)
        .eq(END_TO_END.iter().map(|m| m.0)));
    let jobs = specs
        .iter()
        .zip(&quality)
        .zip(&seconds)
        .map(|((spec, q), s)| {
            let mut job = ObjectWriter::new();
            job.str("circuit", &spec.label());
            if let Some(q) = q {
                job.u64("channel_width", q.channel_width as u64)
                    .raw("wirelength", &num(q.wirelength.as_milli() as f64 / 1000.0))
                    .raw("pathlength", &num(q.pathlength.as_milli() as f64 / 1000.0))
                    .str("digest", &format!("{:016x}", q.digest));
            }
            job.raw("seconds", &array(s.iter().map(|&x| num(x))));
            job.finish()
        });
    let mut report = report(args, &verdict);
    report
        .u64("sweeps", sweeps as u64)
        .raw("jobs", &array(jobs));
    Ok(RunOutput {
        result: verdict.result(&metrics),
        report: report.finish(),
    })
}

/// The traced run: one untraced sweep, one sweep under the trace
/// collector, a threads = 1 reroute of two-thread workloads, a replay of
/// every net's construction, and a rebuild of every device routed on.
fn traced_run(args: &Args) -> Result<RunOutput, String> {
    let w = args.workload;
    let mut spans = Spans::new(true);
    let mut layers = Layers::default();
    let mut verdict = Verdict::default();

    spans.enter("stage.setup", None);
    let cases = workload::case_specs(w, args.seed)
        .iter()
        .enumerate()
        .map(|(job, spec)| spec.build(&mut spans, job))
        .collect::<Result<Vec<Case>, FpgaError>>()
        .map_err(|e| e.to_string())?;
    let critical: Vec<Vec<bool>> = cases
        .iter()
        .enumerate()
        .map(|(job, case)| {
            spans.scope("classify", Some(job), || {
                classify::by_span(&case.circuit, CRITICAL_FRACTION)
            })
        })
        .collect();
    spans.exit();

    spans.enter("stage.timed", None);
    let mut timed: Vec<Option<Routed>> = Vec::with_capacity(cases.len());
    let mut timed_s = 0.0;
    for (job, case) in cases.iter().enumerate() {
        let result = workload::route(w, case, &critical[job], w.threads(), &mut spans, job);
        let checked = verdict.check(case, &critical[job], result, &mut spans, job);
        if let Some((routed, _)) = &checked {
            timed_s += routed.seconds;
            let pathfinder = w == Workload::PathfinderSelective;
            layers.add_routed(routed, pathfinder, case.circuit.net_count());
        }
        timed.push(checked.map(|(routed, _)| routed));
    }
    spans.exit();

    // The trace must not perturb the routing: trees match the untraced
    // sweep's.
    spans.enter("stage.traced", None);
    let mut traced_s = 0.0;
    for (job, case) in cases.iter().enumerate() {
        let collector = Collector::install();
        let result = workload::route(w, case, &critical[job], w.threads(), &mut spans, job);
        let trace = collector.finish();
        let Some((routed, _)) = verdict.check(case, &critical[job], result, &mut spans, job) else {
            continue;
        };
        traced_s += routed.seconds;
        layers.add_trace(&trace);
        if let Some(untraced) = &timed[job] {
            if !workload::same_trees(&routed.outcome, &untraced.outcome) {
                verdict.wrong(format!(
                    "{}: traced routing differs from untraced",
                    case.label
                ));
            }
        }
    }
    spans.exit();
    let per_timed = |seconds: f64| {
        if timed_s > 0.0 {
            seconds / timed_s
        } else {
            0.0
        }
    };
    layers.add("trace.overhead", per_timed(traced_s));

    // Bit-identity across thread counts, and the sequential baseline the
    // parallel wall time is compared with.
    let seq_s = if w.threads() > 1 {
        spans.enter("stage.reroute_t1", None);
        let mut seq_s = 0.0;
        for (job, case) in cases.iter().enumerate() {
            let result = workload::route(w, case, &critical[job], 1, &mut spans, job);
            let Some((routed, _)) = verdict.check(case, &critical[job], result, &mut spans, job)
            else {
                continue;
            };
            seq_s += routed.seconds;
            if let Some(parallel) = &timed[job] {
                if !workload::same_trees(&routed.outcome, &parallel.outcome) {
                    verdict.wrong(format!(
                        "{}: threads = 1 routing differs from threads = {}",
                        case.label,
                        w.threads()
                    ));
                }
            }
        }
        spans.exit();
        seq_s
    } else {
        timed_s
    };
    layers.add("sched.seq_wall_s", seq_s);
    layers.add("sched.speedup", per_timed(seq_s));

    spans.enter("stage.replay", None);
    for (job, (case, routed)) in cases.iter().zip(&timed).enumerate() {
        let Some(routed) = routed else { continue };
        let all: Vec<usize> = (0..case.circuit.net_count()).collect();
        let flagged: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&ni| critical[job][ni])
            .collect();
        spans.enter("replay", Some(job));
        let ikmb = workload::replay(case, routed.width, &all, RouteAlgorithm::Ikmb);
        let idom = workload::replay(case, routed.width, &flagged, RouteAlgorithm::Idom);
        spans.exit();
        match (ikmb, idom) {
            (Ok(ikmb), Ok(idom)) => {
                layers.ikmb_us.extend(ikmb);
                layers.idom_us.extend(idom);
            }
            (Err(e), _) | (_, Err(e)) => verdict.wrong(format!("replay: {e}")),
        }
    }
    spans.exit();

    spans.enter("stage.device", None);
    for (job, (case, routed)) in cases.iter().zip(&timed).enumerate() {
        let Some(routed) = routed else { continue };
        let widths: Vec<usize> = if routed.probes.is_empty() {
            vec![routed.width]
        } else {
            routed.probes.iter().map(|p| p.width).collect()
        };
        for width in widths {
            spans.enter("device_build", Some(job));
            let started = Instant::now();
            let device = Device::new(case.arch(width));
            layers.add("device.build_s", started.elapsed().as_secs_f64());
            spans.exit();
            std::hint::black_box(device).map_err(|e| e.to_string())?;
        }
    }
    spans.exit();

    let self_s = spans.self_seconds();
    let metrics = layers.finish(&self_s);
    let mut self_json = ObjectWriter::new();
    for (name, seconds) in &self_s {
        self_json.raw(name, &num(*seconds));
    }
    let file = format!("{OUT_DIR}/{}-seed{}.json", w.name(), args.seed);
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let mut trace_json = ObjectWriter::new();
    trace_json
        .str("workload", w.name())
        .u64("seed", args.seed)
        .raw("self_s", &self_json.finish())
        .raw("metrics", &metrics_json(&metrics))
        .raw("spans", &spans.to_json());
    std::fs::write(&file, format!("{}\n", trace_json.finish()))
        .map_err(|e| format!("{file}: {e}"))?;
    let mut report = report(args, &verdict);
    report
        .str("trace_file", &file)
        .raw("timed_s", &num(timed_s))
        .raw("traced_s", &num(traced_s));
    Ok(RunOutput {
        result: verdict.result(&metrics),
        report: report.finish(),
    })
}

/// The report line's common part: what ran, where, and what went wrong.
fn report(args: &Args, verdict: &Verdict) -> ObjectWriter {
    let w = args.workload;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut host = ObjectWriter::new();
    host.u64("available_parallelism", cores as u64)
        .str("git_rev", &git_rev())
        .str("rustc", env!("PERFBENCH_RUSTC_VERSION"))
        .u64("threads", w.threads() as u64)
        .raw("oversubscribed", &(w.threads() > cores).to_string());
    if w.threads() > cores {
        eprintln!(
            "perfbench: warning: {} runs {} threads on {cores} available core(s)",
            w.name(),
            w.threads()
        );
    }
    let mut report = ObjectWriter::new();
    report
        .str("workload", w.name())
        .u64("seed", args.seed)
        .u64("seconds", args.seconds)
        .raw("trace", &args.trace.to_string())
        .raw("host", &host.finish())
        .raw(
            "problems",
            &array(verdict.problems.iter().map(|p| string(p))),
        );
    report
}

/// The checkout's git revision, read from `.git` without running git;
/// "unknown" outside a git work tree.
fn git_rev() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &std::path::Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&git.join(reference)) {
        return rev;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use fpga_route::trace::json::JsonValue;

    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args(&[
            "--workload",
            "ripup_width",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::RipupWidth);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12, true));
        let d = args(&["--workload", "ripup_critical_t2"]).unwrap();
        assert_eq!((d.seed, d.trace), (1995, false));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args(&[]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "ripup_width", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "ripup_width", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "ripup_width", "--seed"]).is_err());
        assert!(args(&["--workload", "ripup_width", "--bogus", "1"]).is_err());
    }

    #[test]
    fn output_lines_parse_as_json() {
        let mut verdict = Verdict {
            attempted: 2,
            ..Verdict::default()
        };
        verdict.wrong("a \"quoted\" problem".into());
        let result = JsonValue::parse(&verdict.result(&[("wall_s", 1.25, "s")])).unwrap();
        assert_eq!(result.get("correct"), Some(&JsonValue::Bool(false)));
        assert_eq!(result.get("attempted").and_then(JsonValue::as_u64), Some(2));
        let wall = result.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("value").and_then(JsonValue::as_f64), Some(1.25));
        assert_eq!(wall.get("unit").and_then(JsonValue::as_str), Some("s"));
        let a = args(&["--workload", "ripup_width"]).unwrap();
        let report = JsonValue::parse(&report(&a, &verdict).finish()).unwrap();
        let problems = report
            .get("problems")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(problems[0].as_str(), Some("a \"quoted\" problem"));
    }

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// and workloads this program prints, in the same order.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = JsonValue::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| doc.get(key).and_then(JsonValue::as_array).unwrap();
        fn field<'a>(v: &'a JsonValue, key: &str) -> &'a str {
            v.get(key).and_then(JsonValue::as_str).unwrap()
        }
        for (key, expected) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &layers::PER_LAYER[..]),
        ] {
            let listed: Vec<(&str, &str)> = list(key)
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect();
            assert_eq!(listed, expected, "{key}");
        }
        let workloads: Vec<&str> = list("workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
    }
}
