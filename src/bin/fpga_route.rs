//! `fpga-route` — command-line front end to the router.
//!
//! ```text
//! fpga-route profiles
//! fpga-route route --circuit term1 --arch 4000 --width 9 [--algorithm ikmb]
//!                  [--seed 1995] [--passes 10] [--threads 0]
//!                  [--mode ripup] [--pf-iterations 50] [--pf-selective]
//!                  [--svg out.svg] [--trace out.jsonl] [--metrics]
//! fpga-route width --circuit term1 --arch 4000 [--min 3] [--max 24]
//!                  [--algorithm ikmb] [--threads 0]
//!                  [--mode ripup] [--pf-iterations 50] [--pf-selective]
//!                  [--trace out.jsonl] [--metrics]
//! fpga-route net --rows 20 --cols 20 --pins 5 [--algorithm idom] [--seed 7]
//! fpga-route trace-check <file.jsonl>
//! fpga-route trace-report <file.jsonl>
//! fpga-route bench-diff <before.json> <after.json> [--threshold 5] [--warn-only]
//! ```

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::error::Error;
use std::process::ExitCode;

use fpga_route::fpga::synth::{synthesize, xc3000_profiles, xc4000_profiles, CircuitProfile};
use fpga_route::fpga::width::{minimum_channel_width, WidthSearch};
use fpga_route::fpga::{viz, ArchSpec, Device, RouteAlgorithm, RouteMode, Router, RouterConfig};
use fpga_route::graph::{GridGraph, Weight};
use fpga_route::steiner::metrics::{measure, optimal_max_pathlength};
use fpga_route::steiner::{
    idom, ikmb, izel, Djka, Dom, Kmb, Net, Pfa, SteinerHeuristic, Zel,
};
use fpga_route::trace::{Collector, JsonSink, JsonlSink, Trace, TraceSink};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  fpga-route profiles
  fpga-route route --circuit <name> --arch <3000|4000> --width <W>
                   [--algorithm <name>] [--seed <n>] [--passes <n>] [--threads <n>]
                   [--mode <ripup|pathfinder>]
                   [--pf-iterations <n>] [--pf-selective]
                   [--svg <file>] [--trace <file>] [--stream] [--metrics]
  fpga-route width --circuit <name> --arch <3000|4000>
                   [--min <W>] [--max <W>] [--algorithm <name>] [--threads <n>]
                   [--mode <ripup|pathfinder>] [--pf-iterations <n>]
                   [--pf-selective] [--trace <file>] [--stream] [--metrics]
  fpga-route net   --rows <n> --cols <n> --pins <n> [--algorithm <name>] [--seed <n>]
  fpga-route trace-check <file.jsonl>
  fpga-route trace-report <file.jsonl>
  fpga-route bench-diff <before.json> <after.json> [--threshold <pct>] [--warn-only]

--threads: pathfinder route-phase workers; 0 = automatic (one thread for
           small or few-large-net circuits, one worker per available core
           otherwise). ripup always routes one net at a time
--mode: congestion strategy; ripup (default) tears up and reroutes blocked
        nets, pathfinder negotiates via present + history pricing with
        parallel route phases — bit-identical across thread counts
--pf-iterations: pathfinder iteration budget before reporting unroutable
--pf-selective: pathfinder dirty-net mode — only nets touching over-capacity
                nodes (or gone stale) reroute each iteration, with delta
                repricing; iteration cost tracks remaining congestion
--trace: telemetry as JSONL (or a single JSON document for .json paths);
         `-` writes JSONL to stdout
--stream: append trace lines live as spans close (requires --trace, JSONL only)
--threshold: bench-diff regression gate in percent on *_us fields (default 5)
--warn-only: report bench-diff regressions without failing the exit code
algorithms: kmb zel ikmb izel djka dom pfa idom
            (djka under ripup is the two-pin \"2PIN\" contender of Tables 2-3)";

/// A flag a command accepts: name and whether it consumes a value
/// (`false` marks boolean presence flags like `--metrics`).
type FlagSpec = &'static [(&'static str, bool)];

const PROFILES_FLAGS: FlagSpec = &[];
const ROUTE_FLAGS: FlagSpec = &[
    ("circuit", true),
    ("arch", true),
    ("width", true),
    ("algorithm", true),
    ("seed", true),
    ("passes", true),
    ("threads", true),
    ("mode", true),
    ("pf-iterations", true),
    ("pf-selective", false),
    ("svg", true),
    ("trace", true),
    ("stream", false),
    ("metrics", false),
];
const WIDTH_FLAGS: FlagSpec = &[
    ("circuit", true),
    ("arch", true),
    ("min", true),
    ("max", true),
    ("algorithm", true),
    ("seed", true),
    ("passes", true),
    ("threads", true),
    ("mode", true),
    ("pf-iterations", true),
    ("pf-selective", false),
    ("trace", true),
    ("stream", false),
    ("metrics", false),
];
const NET_FLAGS: FlagSpec = &[
    ("rows", true),
    ("cols", true),
    ("pins", true),
    ("algorithm", true),
    ("seed", true),
];

fn dispatch(args: &[String]) -> Result<(), Box<dyn Error>> {
    let Some(command) = args.first() else {
        return Err("no command given".into());
    };
    match command.as_str() {
        "profiles" => {
            parse_flags(&args[1..], "profiles", PROFILES_FLAGS)?;
            cmd_profiles()
        }
        "route" => cmd_route(&parse_flags(&args[1..], "route", ROUTE_FLAGS)?),
        "width" => cmd_width(&parse_flags(&args[1..], "width", WIDTH_FLAGS)?),
        "net" => cmd_net(&parse_flags(&args[1..], "net", NET_FLAGS)?),
        "trace-check" => cmd_trace_check(&args[1..]),
        "trace-report" => cmd_trace_report(&args[1..]),
        "bench-diff" => cmd_bench_diff(&args[1..]),
        other => Err(format!("unknown command `{other}`").into()),
    }
}

/// Parses `--key [value]` pairs against the command's accepted flags,
/// rejecting anything the command does not understand by name.
fn parse_flags(
    args: &[String],
    command: &str,
    spec: FlagSpec,
) -> Result<HashMap<String, String>, Box<dyn Error>> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(key) = arg.strip_prefix("--") else {
            return Err(format!("expected a --flag, found `{arg}`").into());
        };
        let Some(&(_, takes_value)) = spec.iter().find(|(name, _)| *name == key) else {
            let allowed: Vec<String> =
                spec.iter().map(|(name, _)| format!("--{name}")).collect();
            return Err(format!(
                "unknown flag `--{key}` for `{command}` (accepted: {})",
                if allowed.is_empty() {
                    "none".to_string()
                } else {
                    allowed.join(" ")
                }
            )
            .into());
        };
        if !takes_value {
            if flags.insert(key.to_string(), "true".to_string()).is_some() {
                return Err(format!("flag --{key} given more than once").into());
            }
            continue;
        }
        let Some(value) = it.next() else {
            return Err(format!("flag --{key} needs a value").into());
        };
        if flags.insert(key.to_string(), value.clone()).is_some() {
            return Err(format!(
                "flag --{key} given more than once (each sink flag takes a single destination)"
            )
            .into());
        }
    }
    Ok(flags)
}

fn get_usize(
    flags: &HashMap<String, String>,
    key: &str,
    default: Option<usize>,
) -> Result<usize, Box<dyn Error>> {
    match (flags.get(key), default) {
        (Some(v), _) => Ok(v.parse()?),
        (None, Some(d)) => Ok(d),
        (None, None) => Err(format!("missing required flag --{key}").into()),
    }
}

fn get_u64(flags: &HashMap<String, String>, key: &str, default: u64) -> Result<u64, Box<dyn Error>> {
    flags.get(key).map_or(Ok(default), |v| Ok(v.parse()?))
}

fn algorithm(flags: &HashMap<String, String>) -> Result<RouteAlgorithm, Box<dyn Error>> {
    match flags.get("algorithm").map(String::as_str).unwrap_or("ikmb") {
        "kmb" => Ok(RouteAlgorithm::Kmb),
        "zel" => Ok(RouteAlgorithm::Zel),
        "ikmb" => Ok(RouteAlgorithm::Ikmb),
        "izel" => Ok(RouteAlgorithm::Izel),
        "djka" => Ok(RouteAlgorithm::Djka),
        "dom" => Ok(RouteAlgorithm::Dom),
        "pfa" => Ok(RouteAlgorithm::Pfa),
        "idom" => Ok(RouteAlgorithm::Idom),
        other => Err(format!("unknown algorithm `{other}`").into()),
    }
}

fn mode(flags: &HashMap<String, String>) -> Result<RouteMode, Box<dyn Error>> {
    match flags.get("mode").map(String::as_str) {
        None | Some("ripup") => Ok(RouteMode::RipUp),
        Some("pathfinder") => Ok(RouteMode::Pathfinder),
        Some(other) => Err(format!("unknown mode `{other}` (use ripup or pathfinder)").into()),
    }
}

fn find_profile(name: &str) -> Result<CircuitProfile, Box<dyn Error>> {
    xc3000_profiles()
        .into_iter()
        .chain(xc4000_profiles())
        .find(|p| p.name == name)
        .ok_or_else(|| format!("unknown circuit `{name}` (see `fpga-route profiles`)").into())
}

fn arch_for(
    flags: &HashMap<String, String>,
    profile: &CircuitProfile,
    width: usize,
) -> Result<ArchSpec, Box<dyn Error>> {
    match flags.get("arch").map(String::as_str).unwrap_or("4000") {
        "3000" => Ok(ArchSpec::xilinx3000(profile.rows, profile.cols, width)),
        "4000" => Ok(ArchSpec::xilinx4000(profile.rows, profile.cols, width)),
        other => Err(format!("unknown architecture `{other}` (use 3000 or 4000)").into()),
    }
}

/// An installed collector plus whether it streams to the `--trace` file
/// live (in which case nothing is rewritten at finish).
struct CollectorSession {
    collector: Collector,
    streaming: bool,
}

/// Installs a trace collector when `--trace`/`--metrics` ask for one.
/// With `--stream`, the collector appends JSONL to the `--trace` file as
/// spans close instead of buffering the whole run.
fn maybe_collector(
    flags: &HashMap<String, String>,
) -> Result<Option<CollectorSession>, Box<dyn Error>> {
    if flags.contains_key("stream") {
        let path = flags
            .get("trace")
            .ok_or("--stream needs --trace <file> as the JSONL destination")?;
        if path.ends_with(".json") {
            return Err("--stream emits JSONL; use a non-.json --trace path".into());
        }
        let sink: Box<dyn std::io::Write + Send> = if path == "-" {
            Box::new(std::io::stdout())
        } else {
            Box::new(std::fs::File::create(path)?)
        };
        return Ok(Some(CollectorSession {
            collector: Collector::install_streaming(sink)?,
            streaming: true,
        }));
    }
    if flags.contains_key("trace") || flags.contains_key("metrics") {
        return Ok(Some(CollectorSession {
            collector: Collector::install(),
            streaming: false,
        }));
    }
    Ok(None)
}

/// Finishes an installed collector: writes `--trace` output (JSONL, or a
/// single JSON document for `.json` paths; already on disk when
/// streaming) and prints `--metrics`.
fn finish_collector(
    session: Option<CollectorSession>,
    flags: &HashMap<String, String>,
) -> Result<(), Box<dyn Error>> {
    let Some(session) = session else {
        return Ok(());
    };
    let trace = session.collector.finish();
    if let Some(path) = flags.get("trace") {
        if session.streaming {
            if path != "-" {
                println!("telemetry streamed to {path}");
            }
        } else {
            write_trace(&trace, path)?;
            if path != "-" {
                println!("telemetry written to {path}");
            }
        }
    }
    if flags.contains_key("metrics") {
        print_human(flags, &trace.summary());
    }
    Ok(())
}

/// Prints human-readable run output: to stderr when `--trace -` owns
/// stdout for JSONL, to stdout otherwise — so a piped
/// `--trace - | fpga-route trace-report -` sees pure JSONL.
fn print_human(flags: &HashMap<String, String>, text: &str) {
    if flags.get("trace").is_some_and(|p| p == "-") {
        eprint!("{text}");
    } else {
        print!("{text}");
    }
}

/// Writes the trace to `path`: a single JSON document for `.json` paths,
/// JSONL otherwise; `-` sends JSONL to stdout.
fn write_trace(trace: &Trace, path: &str) -> Result<(), Box<dyn Error>> {
    let mut buf = Vec::new();
    if path.ends_with(".json") {
        JsonSink.emit(trace, &mut buf)?;
    } else {
        JsonlSink.emit(trace, &mut buf)?;
    }
    if path == "-" {
        use std::io::Write as _;
        std::io::stdout().write_all(&buf)?;
    } else {
        std::fs::write(path, buf)?;
    }
    Ok(())
}

fn cmd_profiles() -> Result<(), Box<dyn Error>> {
    println!("{:<10} {:>6} {:>6} {:>6} {:>7} {:>8}  family", "name", "rows", "cols", "nets", "2-3", "4-10/>10");
    for (family, profiles) in [("3000", xc3000_profiles()), ("4000", xc4000_profiles())] {
        for p in profiles {
            println!(
                "{:<10} {:>6} {:>6} {:>6} {:>7} {:>5}/{:<3} {family}",
                p.name,
                p.rows,
                p.cols,
                p.net_count(),
                p.nets_2_3,
                p.nets_4_10,
                p.nets_over_10
            );
        }
    }
    Ok(())
}

fn cmd_route(flags: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    let name = flags
        .get("circuit")
        .ok_or("missing required flag --circuit")?;
    let profile = find_profile(name)?;
    let width = get_usize(flags, "width", None)?;
    let seed = get_u64(flags, "seed", 1995)?;
    let passes = get_usize(flags, "passes", Some(10))?;
    // `0` passes through: the router sizes the worker pool to the
    // circuit (fpga::auto_thread_count).
    let threads = get_usize(flags, "threads", Some(1))?;
    let circuit = synthesize(&profile, 2, seed)?;
    let device = Device::new(arch_for(flags, &profile, width)?)?;
    let defaults = RouterConfig::default();
    let config = RouterConfig {
        algorithm: algorithm(flags)?,
        max_passes: passes,
        threads,
        mode: mode(flags)?,
        pf_max_iterations: get_usize(flags, "pf-iterations", Some(defaults.pf_max_iterations))?,
        pf_selective: flags.contains_key("pf-selective"),
        ..defaults
    };
    let collector = maybe_collector(flags)?;
    let outcome = Router::new(&device, config.clone()).route(&circuit)?;
    let thread_desc = if threads == 0 {
        "auto".to_string()
    } else {
        threads.to_string()
    };
    print_human(
        flags,
        &format!(
            "{name}: routed {} nets at W = {width} with {} in {} pass(es), {} thread(s)\n\
             total wirelength {}, critical pathlength {}\n",
            circuit.net_count(),
            config.algorithm.label(),
            outcome.passes,
            thread_desc,
            outcome.total_wirelength,
            outcome.critical_pathlength()
        ),
    );
    if let Some(svg_path) = flags.get("svg") {
        std::fs::write(svg_path, viz::render_svg(&device, &circuit, &outcome)?)?;
        print_human(flags, &format!("rendering written to {svg_path}\n"));
    }
    finish_collector(collector, flags)
}

fn cmd_width(flags: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    let name = flags
        .get("circuit")
        .ok_or("missing required flag --circuit")?;
    let profile = find_profile(name)?;
    let min = get_usize(flags, "min", Some(3))?;
    let max = get_usize(flags, "max", Some(24))?;
    let seed = get_u64(flags, "seed", 1995)?;
    let passes = get_usize(flags, "passes", Some(10))?;
    // Router threads pass through raw (0 = per-circuit auto).
    let threads = get_usize(flags, "threads", Some(1))?;
    let circuit = synthesize(&profile, 2, seed)?;
    let base = arch_for(flags, &profile, min)?;
    let algo = algorithm(flags)?;
    let route_mode = mode(flags)?;
    let defaults = RouterConfig::default();
    let pf_max_iterations = get_usize(flags, "pf-iterations", Some(defaults.pf_max_iterations))?;
    let pf_selective = flags.contains_key("pf-selective");
    let route = |device: &Device| {
        Router::new(
            device,
            RouterConfig {
                algorithm: algo,
                max_passes: passes,
                threads,
                mode: route_mode,
                pf_max_iterations,
                pf_selective,
                ..RouterConfig::default()
            },
        )
        .route(&circuit)
    };
    let collector = maybe_collector(flags)?;
    let found = minimum_channel_width(base, min..=max, WidthSearch::Binary, route)?;
    print_human(
        flags,
        &format!(
            "{name}: minimum channel width {} with {} ({} routing attempts, wirelength {})\n",
            found.channel_width,
            algo.label(),
            found.attempts,
            found.outcome.total_wirelength
        ),
    );
    finish_collector(collector, flags)
}

fn cmd_net(flags: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    let rows = get_usize(flags, "rows", Some(20))?;
    let cols = get_usize(flags, "cols", Some(20))?;
    let pins = get_usize(flags, "pins", Some(5))?;
    let seed = get_u64(flags, "seed", 7)?;
    let grid = GridGraph::new(rows, cols, Weight::UNIT)?;
    let mut rng = fpga_route::graph::rng::SplitMix64::seed_from_u64(seed);
    let terminals = fpga_route::graph::random::random_net(grid.graph(), pins, &mut rng)?;
    let net = Net::from_terminals(terminals)?;
    let opt_radius = optimal_max_pathlength(grid.graph(), &net)?;
    let contenders: Vec<(&str, Box<dyn SteinerHeuristic>)> = match flags.get("algorithm") {
        None => vec![
            ("KMB", Box::new(Kmb::new())),
            ("ZEL", Box::new(Zel::new())),
            ("IKMB", Box::new(ikmb())),
            ("IZEL", Box::new(izel())),
            ("DJKA", Box::new(Djka::new())),
            ("DOM", Box::new(Dom::new())),
            ("PFA", Box::new(Pfa::new())),
            ("IDOM", Box::new(idom())),
        ],
        Some(_) => {
            let algo = algorithm(flags)?;
            vec![(
                algo.label(),
                fpga_route::fpga::RouteAlgorithm::heuristic(
                    algo,
                    fpga_route::steiner::CandidatePool::All,
                ),
            )]
        }
    };
    println!(
        "net: {pins} pins on a {rows}x{cols} grid (seed {seed}), optimal radius {opt_radius}"
    );
    println!("{:<8} {:>10} {:>10}", "algo", "wirelength", "max path");
    for (label, algo) in contenders {
        let tree = algo.construct(grid.graph(), &net)?;
        let m = measure(&tree, &net)?;
        println!(
            "{label:<8} {:>10} {:>10}",
            m.wirelength.to_string(),
            m.max_pathlength.to_string()
        );
    }
    Ok(())
}

/// Validates every line of a JSONL telemetry file (used by CI to check
/// `--trace` output without external tooling). Reports the first
/// malformed line by number.
fn cmd_trace_check(args: &[String]) -> Result<(), Box<dyn Error>> {
    let [path] = args else {
        return Err("trace-check takes exactly one argument: the JSONL file to validate".into());
    };
    let text = std::fs::read_to_string(path)?;
    let mut checked = 0usize;
    let mut records = fpga_route::trace::check::RecordCheck::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        fpga_route::trace::json::validate(line)
            .map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        // Semantic pass: every typed record must be a known type with
        // sound fields (counters/histograms/gauges must name real
        // variants, durations must be finite non-negative integers,
        // congestion histograms must be non-empty).
        records
            .line(line)
            .map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        checked += 1;
    }
    if checked == 0 {
        return Err(format!("{path}: no JSON lines found").into());
    }
    println!("{path}: {checked} JSON lines OK");
    Ok(())
}

/// Renders a JSONL telemetry file as human-readable text tables: span
/// profile, latency histograms, gauges, PathFinder convergence, and
/// scheduler timelines. `-` reads from stdin.
fn cmd_trace_report(args: &[String]) -> Result<(), Box<dyn Error>> {
    let [path] = args else {
        return Err(
            "trace-report takes exactly one argument: the JSONL file to render (`-` = stdin)"
                .into(),
        );
    };
    let text = if path == "-" {
        use std::io::Read as _;
        let mut buf = String::new();
        std::io::stdin().read_to_string(&mut buf)?;
        buf
    } else {
        std::fs::read_to_string(path)?
    };
    let rendered = fpga_route::trace::report::render_report(&text)
        .map_err(|e| format!("{path}: {e}"))?;
    print!("{rendered}");
    Ok(())
}

/// Diffs two `BENCH_*.json` result files and fails (nonzero exit) when
/// any `*_us` timing field regressed past the threshold, unless
/// `--warn-only` downgrades the failure to a stderr warning.
fn cmd_bench_diff(args: &[String]) -> Result<(), Box<dyn Error>> {
    let mut paths: Vec<&String> = Vec::new();
    let mut threshold_pct = 5.0f64;
    let mut warn_only = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threshold" => {
                let value = it.next().ok_or("flag --threshold needs a value")?;
                threshold_pct = value
                    .parse()
                    .map_err(|_| format!("--threshold: not a number: `{value}`"))?;
            }
            "--warn-only" => warn_only = true,
            other if other.starts_with("--") => {
                return Err(format!(
                    "unknown flag `{other}` for `bench-diff` (accepted: --threshold --warn-only)"
                )
                .into());
            }
            _ => paths.push(arg),
        }
    }
    let [before_path, after_path] = paths[..] else {
        return Err("bench-diff takes two positional arguments: <before.json> <after.json>".into());
    };
    let before = std::fs::read_to_string(before_path)?;
    let after = std::fs::read_to_string(after_path)?;
    let report = fpga_route::trace::report::bench_diff(&before, &after, threshold_pct)?;
    print!("{}", report.rendered);
    if report.regressions.is_empty() {
        return Ok(());
    }
    let lines: Vec<String> = report
        .regressions
        .iter()
        .map(|r| {
            format!(
                "{}.{}: {} -> {} (+{:.1}%)",
                r.circuit, r.field, r.before, r.after, r.delta_pct
            )
        })
        .collect();
    if warn_only {
        eprintln!(
            "warning: {} field(s) regressed past {threshold_pct}%: {}",
            report.regressions.len(),
            lines.join(", ")
        );
        return Ok(());
    }
    Err(format!(
        "{} field(s) regressed past {threshold_pct}%: {}",
        report.regressions.len(),
        lines.join(", ")
    )
    .into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(pairs: &[(&str, &str)]) -> HashMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn flag_parser_round_trips() {
        let parsed = parse_flags(
            &[
                "--circuit".into(),
                "term1".into(),
                "--min".into(),
                "9".into(),
                "--pf-selective".into(),
            ],
            "width",
            WIDTH_FLAGS,
        )
        .unwrap();
        assert_eq!(parsed.get("circuit").unwrap(), "term1");
        assert_eq!(parsed.get("min").unwrap(), "9");
        assert_eq!(parsed.get("pf-selective").unwrap(), "true");
    }

    #[test]
    fn flag_parser_rejects_malformed_input() {
        assert!(parse_flags(&["circuit".into()], "route", ROUTE_FLAGS).is_err());
        assert!(parse_flags(&["--width".into()], "route", ROUTE_FLAGS).is_err());
    }

    #[test]
    fn flag_parser_rejects_unknown_flags_by_name() {
        // A flag valid for one command is still rejected for another, and
        // the error names the offending flag and the command.
        let err = parse_flags(&["--width".into(), "9".into()], "net", NET_FLAGS).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("--width"), "error must name the flag: {msg}");
        assert!(msg.contains("`net`"), "error must name the command: {msg}");
        assert!(msg.contains("--rows"), "error must list accepted flags: {msg}");

        let err = parse_flags(
            &["--typo-flag".into(), "1".into()],
            "route",
            ROUTE_FLAGS,
        )
        .unwrap_err();
        assert!(err.to_string().contains("--typo-flag"));

        // Commands with no flags report that none are accepted.
        let err = parse_flags(&["--width".into(), "9".into()], "profiles", PROFILES_FLAGS)
            .unwrap_err();
        assert!(err.to_string().contains("none"));
    }

    #[test]
    fn boolean_flags_take_no_value() {
        // `--metrics` must not swallow the next flag as its value.
        let parsed = parse_flags(
            &["--metrics".into(), "--circuit".into(), "term1".into()],
            "route",
            ROUTE_FLAGS,
        )
        .unwrap();
        assert_eq!(parsed.get("metrics").unwrap(), "true");
        assert_eq!(parsed.get("circuit").unwrap(), "term1");
    }

    #[test]
    fn removed_speculation_flags_are_rejected() {
        for (command, spec) in [("route", ROUTE_FLAGS), ("width", WIDTH_FLAGS)] {
            for flag in [
                "scheduler",
                "spec-exit-misses",
                "spec-probe-period",
                "pf-stale-slack-milli",
                "pf-history-decay-milli",
                "probe-threads",
            ] {
                let err = parse_flags(&[format!("--{flag}"), "1".into()], command, spec)
                    .unwrap_err()
                    .to_string();
                assert!(
                    err.contains(&format!("unknown flag `--{flag}`")),
                    "{command} --{flag}: {err}"
                );
            }
        }
    }

    #[test]
    fn mode_names_resolve() {
        assert_eq!(mode(&flags(&[])).unwrap(), RouteMode::RipUp);
        assert_eq!(mode(&flags(&[("mode", "ripup")])).unwrap(), RouteMode::RipUp);
        assert_eq!(
            mode(&flags(&[("mode", "pathfinder")])).unwrap(),
            RouteMode::Pathfinder
        );
        assert!(mode(&flags(&[("mode", "bogus")])).is_err());
    }

    #[test]
    fn algorithm_names_resolve() {
        for (name, expect) in [
            ("kmb", RouteAlgorithm::Kmb),
            ("ikmb", RouteAlgorithm::Ikmb),
            ("pfa", RouteAlgorithm::Pfa),
            ("idom", RouteAlgorithm::Idom),
        ] {
            assert_eq!(algorithm(&flags(&[("algorithm", name)])).unwrap(), expect);
        }
        assert_eq!(algorithm(&flags(&[])).unwrap(), RouteAlgorithm::Ikmb);
        assert!(algorithm(&flags(&[("algorithm", "bogus")])).is_err());
    }

    #[test]
    fn profiles_resolve_and_unknowns_error() {
        assert_eq!(find_profile("busc").unwrap().rows, 12);
        assert_eq!(find_profile("term1").unwrap().cols, 9);
        assert!(find_profile("nonesuch").is_err());
    }

    #[test]
    fn numeric_flags_parse_with_defaults() {
        let f = flags(&[("width", "11")]);
        assert_eq!(get_usize(&f, "width", None).unwrap(), 11);
        assert_eq!(get_usize(&f, "passes", Some(10)).unwrap(), 10);
        assert!(get_usize(&f, "missing", None).is_err());
        assert_eq!(get_u64(&f, "seed", 1995).unwrap(), 1995);
        // Router --threads is NOT resolved CLI-side: 0 reaches the
        // RouterConfig untouched so the router can auto-size per circuit.
        assert_eq!(get_usize(&flags(&[("threads", "0")]), "threads", Some(1)).unwrap(), 0);
    }

    #[test]
    fn selective_pathfinder_flags_parse() {
        // `--pf-selective` is a presence flag on both routing commands.
        let parsed = parse_flags(&["--pf-selective".into()], "route", ROUTE_FLAGS).unwrap();
        assert!(parsed.contains_key("pf-selective"));
        assert!(!RouterConfig::default().pf_selective);
        assert!(parse_flags(&["--pf-selective".into()], "width", WIDTH_FLAGS).is_ok());
    }

    #[test]
    fn stream_flag_requires_a_jsonl_trace_path() {
        assert!(maybe_collector(&flags(&[("stream", "true")])).is_err());
        assert!(maybe_collector(&flags(&[("stream", "true"), ("trace", "t.json")])).is_err());
        assert!(maybe_collector(&flags(&[])).unwrap().is_none());
    }

    #[test]
    fn net_command_runs_end_to_end() {
        cmd_net(&flags(&[
            ("rows", "6"),
            ("cols", "6"),
            ("pins", "4"),
            ("algorithm", "idom"),
        ]))
        .unwrap();
    }

    #[test]
    fn duplicate_flags_are_rejected_with_a_clear_error() {
        let err = parse_flags(
            &[
                "--trace".into(),
                "a.jsonl".into(),
                "--trace".into(),
                "b.jsonl".into(),
            ],
            "route",
            ROUTE_FLAGS,
        )
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("--trace"), "error names the flag: {msg}");
        assert!(msg.contains("more than once"), "error says why: {msg}");

        let err = parse_flags(
            &["--metrics".into(), "--metrics".into()],
            "route",
            ROUTE_FLAGS,
        )
        .unwrap_err();
        assert!(err.to_string().contains("--metrics"));
    }

    #[test]
    fn dash_trace_path_means_stdout() {
        // `-` is not a `.json` path, so the trace goes out as JSONL;
        // write_trace must not try to create a file literally named `-`.
        let trace = Trace::default();
        write_trace(&trace, "-").unwrap();
        assert!(!std::path::Path::new("-").exists(), "no file named `-`");
    }

    #[test]
    fn trace_report_renders_observability_records() {
        let dir = std::env::temp_dir();
        let path = dir.join("fpga_route_trace_report_test.jsonl");
        std::fs::write(
            &path,
            concat!(
                "{\"type\":\"meta\",\"version\":1}\n",
                "{\"type\":\"histogram\",\"name\":\"net_route_ns\",\"count\":2,\"sum\":300,",
                "\"mean\":150,\"p50\":100,\"p95\":200,\"p99\":200,\"max\":200}\n",
                "{\"type\":\"convergence\",\"iteration\":1,\"overcapacity\":4,",
                "\"history_milli\":0,\"nets_rerouted\":9,\"present_milli\":500,",
                "\"dirty_nets\":9}\n",
            ),
        )
        .unwrap();
        cmd_trace_report(&[path.to_string_lossy().into_owned()]).unwrap();
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn bench_diff_gates_on_regressions_unless_warn_only() {
        let dir = std::env::temp_dir();
        let before = dir.join("fpga_route_bench_diff_before.json");
        let after = dir.join("fpga_route_bench_diff_after.json");
        std::fs::write(
            &before,
            "{\"circuits\":[{\"name\":\"term1\",\"pathfinder_us\":1000,\"pathfinder_width\":9}]}",
        )
        .unwrap();
        std::fs::write(
            &after,
            "{\"circuits\":[{\"name\":\"term1\",\"pathfinder_us\":2000,\"pathfinder_width\":9}]}",
        )
        .unwrap();
        let b = before.to_string_lossy().into_owned();
        let a = after.to_string_lossy().into_owned();
        // Identical files never gate.
        cmd_bench_diff(&[b.clone(), b.clone()]).unwrap();
        // A 100% slowdown on a *_us field fails past the default 5%...
        let err = cmd_bench_diff(&[b.clone(), a.clone()]).unwrap_err();
        assert!(err.to_string().contains("pathfinder_us"), "{err}");
        // ...passes with a generous threshold...
        cmd_bench_diff(&[b.clone(), a.clone(), "--threshold".into(), "150".into()]).unwrap();
        // ...and is downgraded to a warning by --warn-only.
        cmd_bench_diff(&[b.clone(), a.clone(), "--warn-only".into()]).unwrap();
        // Unknown flags and missing positionals are rejected.
        assert!(cmd_bench_diff(&[b.clone(), a.clone(), "--bogus".into()]).is_err());
        assert!(cmd_bench_diff(std::slice::from_ref(&b)).is_err());
        let _ = std::fs::remove_file(before);
        let _ = std::fs::remove_file(after);
    }

    #[test]
    fn trace_check_validates_and_rejects() {
        let dir = std::env::temp_dir();
        let good = dir.join("fpga_route_trace_check_good.jsonl");
        let bad = dir.join("fpga_route_trace_check_bad.jsonl");
        std::fs::write(&good, "{\"type\":\"meta\"}\n{\"a\":[1,2]}\n").unwrap();
        std::fs::write(&bad, "{\"type\":\"meta\"}\nnot json\n").unwrap();
        cmd_trace_check(&[good.to_string_lossy().into_owned()]).unwrap();
        let err = cmd_trace_check(&[bad.to_string_lossy().into_owned()]).unwrap_err();
        assert!(err.to_string().contains(":2"), "names the bad line: {err}");
        assert!(cmd_trace_check(&[]).is_err());
        let _ = std::fs::remove_file(good);
        let _ = std::fs::remove_file(bad);
    }
}
