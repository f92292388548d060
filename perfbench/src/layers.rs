//! Per-layer metrics of the traced run, each measured from outside the
//! layer: from the benchmark's own timing of calls into it, from the
//! telemetry every `RouteOutcome` carries, and from the trace collector
//! the program already feeds.

use std::collections::BTreeMap;

use fpga_route::trace::{Counter, Metric, SpanKind, Trace};

use crate::workload::Routed;

/// Every per-layer metric with its unit, in output order.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("device.build_s", "s"),
    ("width.attempts", "count"),
    ("width.failed_attempts", "count"),
    ("width.failed_attempt_s", "s"),
    ("width.ok_attempt_s", "s"),
    ("router.passes", "count"),
    ("router.retry_passes", "count"),
    ("router.pass_s_p50", "s"),
    ("sched.speculated", "count"),
    ("sched.accepted", "count"),
    ("sched.respeculated", "count"),
    ("sched.steals", "count"),
    ("sched.stalls", "count"),
    ("sched.accept_ratio", "ratio"),
    ("sched.seq_wall_s", "s"),
    ("sched.speedup", "ratio"),
    ("pathfinder.iterations", "count"),
    ("pathfinder.iteration_s_p50", "s"),
    ("pathfinder.dirty_nets", "count"),
    ("pathfinder.dirty_ratio", "ratio"),
    ("pathfinder.nets_rerouted", "count"),
    ("pathfinder.repriced_edges", "count"),
    ("pathfinder.overcapacity_nodes", "count"),
    ("pathfinder.worker_busy_s", "s"),
    ("pathfinder.worker_wait_s", "s"),
    ("core.phase_s", "s"),
    ("core.candidates_evaluated", "count"),
    ("core.candidates_accepted", "count"),
    ("core.kmb_constructions", "count"),
    ("core.ikmb.construct_s", "s"),
    ("core.ikmb.construct_us_p50", "us"),
    ("core.ikmb.construct_us_p95", "us"),
    ("core.idom.construct_s", "s"),
    ("core.idom.construct_us_p50", "us"),
    ("graph.dijkstra_runs", "count"),
    ("graph.heap_pops", "count"),
    ("graph.relaxations", "count"),
    ("graph.heap_pushes", "count"),
    ("graph.astar_pruned_nodes", "count"),
    ("graph.kernel_s", "s"),
    ("trace.overhead", "ratio"),
    ("span.setup.self_s", "s"),
    ("span.classify.self_s", "s"),
    ("span.width_search.self_s", "s"),
    ("span.attempt.self_s", "s"),
    ("span.route.self_s", "s"),
    ("span.audit.self_s", "s"),
    ("span.replay.self_s", "s"),
    ("span.device_build.self_s", "s"),
];

/// The `q`-quantile of `values` by nearest rank; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median of `values`, averaging the middle pair; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Accumulates the per-layer metrics over a traced run's jobs.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    pass_s: Vec<f64>,
    iteration_s: Vec<f64>,
    net_iterations: f64,
    pub ikmb_us: Vec<f64>,
    pub idom_us: Vec<f64>,
}

impl Layers {
    pub fn add(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        *self.values.entry(name).or_insert(0.0) += value;
    }

    fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Width, router, sched and pathfinder numbers of one untraced job:
    /// the probe list and the per-pass telemetry of the final routing.
    pub fn add_routed(&mut self, routed: &Routed, pathfinder: bool, nets: usize) {
        for probe in &routed.probes {
            self.add("width.attempts", 1.0);
            if probe.routed {
                self.add("width.ok_attempt_s", probe.seconds);
            } else {
                self.add("width.failed_attempts", 1.0);
                self.add("width.failed_attempt_s", probe.seconds);
            }
        }
        let passes = &routed.outcome.telemetry.passes;
        if pathfinder {
            self.add("pathfinder.iterations", passes.len() as f64);
            self.net_iterations += (nets * passes.len()) as f64;
            for p in passes {
                self.iteration_s.push(p.elapsed.as_secs_f64());
                self.add("pathfinder.dirty_nets", p.dirty_nets as f64);
                self.add("pathfinder.nets_rerouted", p.nets_rerouted as f64);
                self.add("pathfinder.repriced_edges", p.repriced_edges as f64);
                self.add("pathfinder.overcapacity_nodes", p.overcapacity as f64);
            }
            return;
        }
        // Failed probes carry no telemetry; their passes are the budget.
        let (runs, passes_run) = if routed.probes.is_empty() {
            (1, routed.outcome.passes)
        } else {
            (
                routed.probes.iter().filter(|p| p.routed).count(),
                routed.probes.iter().map(|p| p.passes).sum(),
            )
        };
        self.add("router.passes", passes_run as f64);
        self.add("router.retry_passes", (passes_run - runs) as f64);
        for p in passes {
            self.pass_s.push(p.elapsed.as_secs_f64());
            self.add("sched.speculated", p.speculated as f64);
            self.add("sched.accepted", p.accepted as f64);
            self.add("sched.respeculated", p.respeculated as f64);
            self.add("sched.steals", p.steals as f64);
            self.add("sched.stalls", p.stalls as f64);
        }
    }

    /// Counters, phase time, kernel time and worker timelines of one
    /// traced job.
    pub fn add_trace(&mut self, trace: &Trace) {
        let counters = [
            (
                "core.candidates_evaluated",
                Counter::SteinerCandidatesEvaluated,
            ),
            (
                "core.candidates_accepted",
                Counter::SteinerCandidatesAccepted,
            ),
            ("core.kmb_constructions", Counter::KmbConstructions),
            ("graph.dijkstra_runs", Counter::DijkstraRuns),
            ("graph.heap_pops", Counter::DijkstraHeapPops),
            ("graph.relaxations", Counter::DijkstraRelaxations),
            ("graph.heap_pushes", Counter::HeapPushes),
            ("graph.astar_pruned_nodes", Counter::AstarPrunedNodes),
        ];
        for (name, counter) in counters {
            self.add(name, trace.counters.get(counter) as f64);
        }
        let phase_ns: u64 = trace
            .profile
            .iter()
            .filter(|e| e.kind == SpanKind::Phase)
            .map(|e| e.exclusive_ns)
            .sum();
        self.add("core.phase_s", phase_ns as f64 / 1e9);
        self.add(
            "graph.kernel_s",
            trace.metrics.get(Metric::KernelQueryNs).sum() as f64 / 1e9,
        );
        // Each iteration ends when its slowest worker does; the others
        // wait for it.
        let mut by_pass: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
        for t in trace.timelines.iter().filter(|t| t.role == "pf-worker") {
            by_pass.entry(t.pass).or_default().push(t.busy_ns);
        }
        for busy in by_pass.values() {
            let slowest = busy.iter().copied().max().unwrap_or(0);
            let total: u64 = busy.iter().sum();
            self.add("pathfinder.worker_busy_s", total as f64 / 1e9);
            self.add(
                "pathfinder.worker_wait_s",
                (slowest * busy.len() as u64 - total) as f64 / 1e9,
            );
        }
    }

    /// Fills the ratios and quantiles and returns every metric of
    /// [`PER_LAYER`], zero where the workload never reaches the layer.
    pub fn finish(
        mut self,
        span_self_s: &BTreeMap<&'static str, f64>,
    ) -> Vec<(&'static str, f64, &'static str)> {
        let speculated = self.get("sched.speculated");
        if speculated > 0.0 {
            self.values.insert(
                "sched.accept_ratio",
                self.get("sched.accepted") / speculated,
            );
        }
        if self.net_iterations > 0.0 {
            self.values.insert(
                "pathfinder.dirty_ratio",
                self.get("pathfinder.dirty_nets") / self.net_iterations,
            );
        }
        self.values
            .insert("router.pass_s_p50", median(&self.pass_s));
        self.values
            .insert("pathfinder.iteration_s_p50", median(&self.iteration_s));
        self.values.insert(
            "core.ikmb.construct_s",
            self.ikmb_us.iter().sum::<f64>() / 1e6,
        );
        self.values
            .insert("core.ikmb.construct_us_p50", quantile(&self.ikmb_us, 0.5));
        self.values
            .insert("core.ikmb.construct_us_p95", quantile(&self.ikmb_us, 0.95));
        self.values.insert(
            "core.idom.construct_s",
            self.idom_us.iter().sum::<f64>() / 1e6,
        );
        self.values
            .insert("core.idom.construct_us_p50", quantile(&self.idom_us, 0.5));
        for (name, _) in PER_LAYER {
            if let Some(span) = name
                .strip_prefix("span.")
                .and_then(|r| r.strip_suffix(".self_s"))
            {
                self.values
                    .insert(name, span_self_s.get(span).copied().unwrap_or(0.0));
            }
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, self.get(name), unit))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.95), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
    }
}
