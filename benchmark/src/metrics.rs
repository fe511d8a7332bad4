//! The metric table (names, units, directions, bounds) and the result line.
//!
//! `BENCHMARK.json` at the repository root declares the same table; a unit
//! test keeps the two in step.

use std::fmt::Write as _;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may worsen
    /// before a change counts as a regression (`None` for per-layer ones).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Measured with tracing off; printed by every untraced run.
pub const END_TO_END: [Metric; 4] = [
    e2e("mcycles_per_s", "Mcycles/s", Higher, 0.25),
    e2e("sims_per_s", "sims/s", Higher, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.25),
];

/// Measured by the traced run (`--trace 1`); see the layer map in `main.rs`.
pub const PER_LAYER: [Metric; 44] = [
    layer("workloads.ops", "count", Lower),
    layer("workloads.ms", "ms", Lower),
    layer("cpu.ms", "ms", Lower),
    layer("cpu.warm_ms", "ms", Lower),
    layer("cpu.ipc", "ratio", Higher),
    layer("sim.steps", "count", Lower),
    layer("sim.skipped_frac", "ratio", Higher),
    layer("sim.mean_jump", "cycles", Higher),
    layer("sim.events_per_kcycle", "1/kcycle", Lower),
    layer("sim.handoff_ms", "ms", Lower),
    layer("sim.deliver_ms", "ms", Lower),
    layer("sim.engine_ms", "ms", Lower),
    layer("core.tick_ms", "ms", Lower),
    layer("core.ticks", "count", Lower),
    layer("core.tick_ns", "ns", Lower),
    layer("core.enqueue_ms", "ms", Lower),
    layer("core.enqueues", "count", Lower),
    layer("core.can_accept_ms", "ms", Lower),
    layer("core.can_accept_calls", "count", Lower),
    layer("core.horizon_ms", "ms", Lower),
    layer("core.fold_yield", "ratio", Higher),
    layer("core.issue_per_tick", "ratio", Higher),
    layer("core.tick_ns.BkInOrder", "ns", Lower),
    layer("core.tick_ns.RowHit", "ns", Lower),
    layer("core.tick_ns.Intel", "ns", Lower),
    layer("core.tick_ns.Intel_RP", "ns", Lower),
    layer("core.tick_ns.Burst", "ns", Lower),
    layer("core.tick_ns.Burst_RP", "ns", Lower),
    layer("core.tick_ns.Burst_WP", "ns", Lower),
    layer("core.tick_ns.Burst_TH52", "ns", Lower),
    layer("dram.cmds", "count", Lower),
    layer("dram.row_hit_rate", "ratio", Higher),
    layer("dram.data_bus_util", "ratio", Higher),
    layer("dram.refreshes", "count", Lower),
    layer("persist.checkpoints", "count", Lower),
    layer("persist.ckpt_bytes", "B", Lower),
    layer("persist.capture_ms", "ms", Lower),
    layer("persist.save_ms", "ms", Lower),
    layer("persist.share", "ratio", Lower),
    layer("executor.cells", "count", Higher),
    layer("executor.cell_s_p50", "s", Lower),
    layer("executor.cell_s_p90", "s", Lower),
    layer("executor.setup_share", "ratio", Lower),
    layer("trace.overhead", "ratio", Lower),
];

/// Whether `name` is a valid metric or workload name: a letter or digit,
/// then at most 63 more of `[A-Za-z0-9_.-]`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .bytes()
            .next()
            .is_some_and(|b| b.is_ascii_alphanumeric())
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

/// Renders the result line: exactly the metrics of `table`, in table order.
///
/// # Errors
///
/// Names a metric of `table` missing from `values`, a value not in the
/// table, a duplicate, or a non-finite value — each a bug in this program,
/// reported instead of printing a malformed result.
pub fn result_line(
    table: &[Metric],
    values: &[(&str, f64)],
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    for (i, (name, v)) in values.iter().enumerate() {
        if !table.iter().any(|m| m.name == *name) {
            return Err(format!("metric {name} is not declared"));
        }
        if values[..i].iter().any(|(n, _)| n == name) {
            return Err(format!("metric {name} is reported twice"));
        }
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
    }
    let mut metrics = String::new();
    for (i, m) in table.iter().enumerate() {
        let Some((_, v)) = values.iter().find(|(n, _)| *n == m.name) else {
            return Err(format!("metric {} was not measured", m.name));
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        failed == 0
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use crate::suite::{PAPER_MECHANISMS, WORKLOADS};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn check_declared(declared: &Json, table: &[Metric]) {
        let declared = declared.as_array().expect("a metric list");
        assert_eq!(declared.len(), table.len(), "metric count");
        for (d, m) in declared.iter().zip(table) {
            assert_eq!(d.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(
                d.get("unit").and_then(Json::as_str),
                Some(m.unit),
                "{}",
                m.name
            );
            assert_eq!(
                d.get("better").and_then(Json::as_str),
                Some(m.better.as_str()),
                "{}",
                m.name
            );
            assert_eq!(d.get("bound").and_then(Json::as_f64), m.bound, "{}", m.name);
        }
    }

    #[test]
    fn benchmark_json_declares_this_table() {
        let v = benchmark_json();
        check_declared(v.get("end_to_end").unwrap(), &END_TO_END);
        check_declared(v.get("per_layer").unwrap(), &PER_LAYER);
        let declared = v.get("workloads").and_then(Json::as_array).unwrap();
        assert_eq!(declared.len(), WORKLOADS.len());
        for (d, w) in declared.iter().zip(&WORKLOADS) {
            assert_eq!(d.get("name").and_then(Json::as_str), Some(w.name));
            assert_eq!(d.get("why").and_then(Json::as_str), Some(w.why));
        }
    }

    #[test]
    fn every_name_is_valid_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        for (i, n) in names.iter().enumerate() {
            assert!(valid_name(n), "{n}");
            assert!(!names[..i].contains(n), "{n} is used twice");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.unit.len() <= 16 && !m.unit.is_empty(), "{}", m.unit);
        }
    }

    #[test]
    fn name_validation_follows_the_pattern() {
        for ok in ["a", "9x", "core.tick_ns.Intel_RP", "x-y.z_0"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", ".a", "_a", "a b", "a/b", "tick(ns)", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn per_mechanism_tick_metrics_name_the_paper_mechanisms() {
        for m in PAPER_MECHANISMS {
            let name = format!("core.tick_ns.{}", m.name());
            assert!(PER_LAYER.iter().any(|x| x.name == name), "{name}");
        }
    }

    #[test]
    fn bounds_are_within_the_contract() {
        for m in &END_TO_END {
            let b = m.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "set-up time carries the largest bound"
        );
    }

    #[test]
    fn result_line_parses_back_and_rejects_bad_values() {
        let values = [
            ("peak_rss_mib", 12.5),
            ("mcycles_per_s", 1.8125),
            ("sims_per_s", 0.5),
            ("setup_s", 0.0123),
        ];
        let line = result_line(&END_TO_END, &values, 9, 0).unwrap();
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.0123));
        assert!(
            result_line(&END_TO_END, &values[..3], 9, 0).is_err(),
            "missing"
        );
        let mut extra = values.to_vec();
        extra.push(("bogus", 1.0));
        assert!(
            result_line(&END_TO_END, &extra, 9, 0).is_err(),
            "undeclared"
        );
        let mut dup = values.to_vec();
        dup.push(("setup_s", 1.0));
        assert!(result_line(&END_TO_END, &dup, 9, 0).is_err(), "duplicate");
        let mut nan = values.to_vec();
        nan[0].1 = f64::NAN;
        assert!(result_line(&END_TO_END, &nan, 9, 0).is_err(), "non-finite");
        let failed = result_line(&END_TO_END, &values, 9, 2).unwrap();
        assert!(failed.starts_with("{\"correct\": false"));
    }
}
