//! The metric catalogue and the one-line JSON result.
//!
//! `BENCHMARK.json` at the repository root lists the same metrics; a
//! test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which direction of change is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One named metric with its unit.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before it counts as a regression (`None` per layer).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// Measured with tracing off; every workload reports all of them. The
/// bounds are as wide as this 2-vCPU virtual machine's run-to-run
/// spread forces them to be (README.md records the measurements).
pub const END_TO_END: &[Metric] = &[
    e2e("wall_s", "s", 0.25),
    e2e("peak_rss_mb", "MB", 0.15),
    e2e("setup_s", "s", 0.25),
];

/// Measured by the traced run. A workload reports 0 for a layer it
/// does not exercise.
pub const PER_LAYER: &[Metric] = &[
    lower("sim.queue_push_pop_ns", "ns"),
    lower("sim.queue_push_cancel_pop_ns", "ns"),
    higher("sim.fast_forwarded", "count"),
    higher("sim.elided_frac", "frac"),
    lower("sim.alloc_events", "count"),
    lower("sim.alloc_mb", "MB"),
    lower("sim.trace_events", "count"),
    lower("sim.trace_overhead", "ratio"),
    lower("core.dispatched", "count"),
    higher("core.skipped", "count"),
    lower("core.ns_per_dispatch", "ns"),
    lower("core.slice_ms_p50", "ms"),
    lower("core.slice_ms_tail", "ms"),
    higher("core.slice_samples", "count"),
    lower("core.machine_new_us", "us"),
    lower("core.audit_us", "us"),
    higher("core.sched.yield_grant", "count"),
    lower("core.sched.yield_no_runnable", "count"),
    higher("core.sched.grant_ratio", "frac"),
    lower("core.sched.lock_reschedule", "count"),
    lower("core.orchestrator.ipi_route", "count"),
    lower("core.probe.probe_irq", "count"),
    higher("virt.vm_enter", "count"),
    lower("virt.vm_exit", "count"),
    lower("os.softirq_dispatch", "count"),
    lower("os.preempt", "count"),
    lower("os.nonpreemptible_enter", "count"),
    higher("os.finished_threads", "count"),
    lower("os.decide_ns", "ns"),
    higher("hw.ingested", "count"),
    lower("hw.staged_dropped", "count"),
    lower("hw.ingest_ns_per_pkt", "ns"),
    lower("hw.drr_ns_per_pkt", "ns"),
    higher("dp.processed", "count"),
    lower("dp.lost_frac", "frac"),
    lower("dp.gen_ns_per_pkt", "ns"),
    lower("dp.service_ns_per_pkt", "ns"),
    lower("dp.record_ns_per_pkt", "ns"),
    lower("dp.drain_us", "us"),
    higher("cp.vm_startups", "count"),
    lower("cp.synth_build_us", "us"),
    lower("fleet.resident_kb_per_machine", "kB"),
    lower("fleet.slab_hwm", "count"),
    lower("fleet.ring_hwm", "count"),
    lower("fleet.events", "count"),
    lower("fleet.seq_wall_s", "s"),
    higher("fleet.parallel_efficiency", "ratio"),
    lower("bench.table1_granularity_s", "s"),
    lower("bench.table2_virt_compare_s", "s"),
    lower("bench.table5_rtt_s", "s"),
    lower("bench.fig2_motivation_s", "s"),
    lower("bench.fig3_dp_util_cdf_s", "s"),
    lower("bench.fig5_nonpreempt_hist_s", "s"),
    lower("bench.fig6_io_breakdown_s", "s"),
    lower("bench.fig11_cp_concurrency_s", "s"),
    lower("bench.fig12_hybrid_net_s", "s"),
    lower("bench.fig13_hybrid_storage_s", "s"),
    lower("bench.fig14_dp_overhead_s", "s"),
    lower("bench.fig15_mysql_s", "s"),
    lower("bench.fig16_nginx_s", "s"),
    lower("bench.fig17_vm_startup_s", "s"),
    lower("bench.disc8_dp_boost_s", "s"),
];

/// Looks a metric up in either list.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// What one run of one workload measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (machine runs, machine-epochs, binaries).
    pub attempted: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records `value` under a catalogued metric name.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from the catalogue (a benchmark bug).
    pub fn set(&mut self, name: &str, value: f64) {
        let m = find(name).unwrap_or_else(|| panic!("metric {name} is not catalogued"));
        self.values.insert(m.name, value);
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Counts one more attempted operation, failed or not.
    pub fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The result line: every end-to-end metric for an untraced run,
    /// every per-layer metric (0 for layers the workload bypasses) for
    /// a traced one.
    ///
    /// # Panics
    ///
    /// Panics when an end-to-end metric was never recorded.
    pub fn to_json(&self, traced: bool) -> String {
        let list = if traced { PER_LAYER } else { END_TO_END };
        let entries = list.iter().map(|m| {
            let v = match self.get(m.name) {
                Some(v) => v,
                None if traced => 0.0,
                None => panic!("end-to-end metric {} was not measured", m.name),
            };
            (m.name.to_string(), v, m.unit)
        });
        json_line(
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            entries,
        )
    }
}

/// Formats a result line; a non-finite value is written as 0.
pub fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    entries: impl IntoIterator<Item = (String, f64, &'static str)>,
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, v, unit)) in entries.into_iter().enumerate() {
        let v = if v.is_finite() { v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

/// A result line read back from a child run.
pub struct Parsed {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<String, f64>,
}

/// Reads a result line; understands exactly what [`json_line`] writes.
pub fn parse_json(line: &str) -> Option<Parsed> {
    let field = |key: &str| -> Option<&str> {
        let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
        rest.split([',', '}']).next()
    };
    let body = &line[line.find("\"metrics\": {")? + 12..];
    let mut values = BTreeMap::new();
    for entry in body.split("}, ") {
        let (name, rest) = entry
            .trim_start_matches('"')
            .split_once("\": {\"value\": ")?;
        let value = rest.split(',').next()?.parse().ok()?;
        values.insert(name.to_string(), value);
    }
    Some(Parsed {
        correct: field("correct")?.parse().ok()?,
        attempted: field("attempted")?.parse().ok()?,
        failed: field("failed")?.parse().ok()?,
        values,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_format() {
        let ok = |s: &str, extra: &str| {
            s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c) || extra.contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && ok(m.name, ""), "{}", m.name);
            assert!(m.unit.len() <= 16 && ok(m.unit, "/%"), "{}", m.unit);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
        assert!(largest <= 0.25);
    }

    #[test]
    fn json_round_trips() {
        let mut r = Report::default();
        r.tally(true);
        r.tally(false);
        r.set("wall_s", 1.25);
        r.set("setup_s", 0.000123);
        r.set("peak_rss_mb", 42.0);
        let line = r.to_json(false);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1, "));
        let p = parse_json(&line).expect("parses");
        assert!(!p.correct);
        assert_eq!((p.attempted, p.failed), (2, 1));
        assert_eq!(p.values["wall_s"], 1.25);
        assert_eq!(p.values["setup_s"], 0.000123);
        assert_eq!(p.values.len(), END_TO_END.len());
    }

    #[test]
    fn traced_line_lists_every_layer_metric() {
        let mut r = Report::default();
        r.tally(true);
        r.set("core.dispatched", 17.0);
        let values = parse_json(&r.to_json(true)).expect("parses").values;
        assert_eq!(values.len(), PER_LAYER.len());
        assert_eq!(values["core.dispatched"], 17.0);
        assert_eq!(values["fleet.events"], 0.0);
    }

    #[test]
    #[should_panic(expected = "not catalogued")]
    fn unknown_metric_is_a_bug() {
        Report::default().set("no.such_metric", 1.0);
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for m in END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"lower\", \"bound\": {bound}}}",
                m.name, m.unit
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for m in PER_LAYER {
            let better = match m.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"}}",
                m.name, m.unit
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let entries = text.matches("\"name\": ").count();
        let workloads = crate::cli::Workload::ALL.len();
        assert_eq!(entries, END_TO_END.len() + PER_LAYER.len() + workloads);
    }
}
