//! `--agree A B`: do two sets of runs agree within the benchmark's bounds?
//!
//! A set is a directory holding one file per run: the benchmark's standard
//! output, whose first line names the workload and whose last line is the
//! result. For each (end-to-end metric, workload) pair the verdict is
//! `unresolved` when the spread inside either set (interquartile range over
//! median) is wider than the metric's bound, else `agree` when the two
//! medians lie within the bound of each other, else `differ`.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Json};
use crate::metrics::{Better, Metric, END_TO_END};
use crate::stats::{median, spread};

/// Metric samples of one set: workload → metric → one value per run.
type Set = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Prefix of the first output line, which names the run's workload.
pub const HEADER: &str = "benchmark: workload=";

/// Parses one run's output into its workload name and metric values.
fn parse_run(text: &str) -> Result<(String, Vec<(String, f64)>), String> {
    let workload = text
        .lines()
        .find_map(|l| l.strip_prefix(HEADER))
        .and_then(|rest| rest.split_whitespace().next())
        .ok_or("no workload header line")?;
    let last = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("empty output")?;
    let result = json::parse(last)?;
    let metrics = result
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or("result line has no metrics")?;
    let values = metrics
        .iter()
        .filter_map(|(name, v)| Some((name.clone(), v.get("value")?.as_f64()?)))
        .collect();
    Ok((workload.to_string(), values))
}

fn load_set(dir: &Path) -> Result<Set, String> {
    let mut set = Set::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if !path.is_file() {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let (workload, values) =
            parse_run(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let per_metric = set.entry(workload).or_default();
        for (name, v) in values {
            per_metric.entry(name).or_default().push(v);
        }
    }
    Ok(set)
}

/// The verdict for one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Agree,
    Differ,
    Unresolved,
}

/// Compares two sets of samples of `metric`. Returns the verdict, both
/// medians, both spreads, and by how much B's median is worse than A's as a
/// share of A's (negative when B is better).
pub fn judge(metric: &Metric, a: &[f64], b: &[f64]) -> (Verdict, [f64; 5]) {
    let bound = metric.bound.unwrap_or(0.0);
    let (ma, mb) = (median(a), median(b));
    let (sa, sb) = (spread(a), spread(b));
    let change = if ma == 0.0 {
        f64::INFINITY
    } else {
        (mb - ma) / ma
    };
    let worse = match metric.better {
        Better::Higher => -change,
        Better::Lower => change,
    };
    let verdict = match (sa, sb) {
        (Some(sa), Some(sb)) if sa <= bound && sb <= bound => {
            if worse.abs() <= bound {
                Verdict::Agree
            } else {
                Verdict::Differ
            }
        }
        _ => Verdict::Unresolved,
    };
    let nan = f64::NAN;
    (
        verdict,
        [ma, mb, sa.unwrap_or(nan), sb.unwrap_or(nan), worse],
    )
}

/// Prints one row per (end-to-end metric, workload) pair; `Ok(true)` when
/// every pair agrees.
///
/// # Errors
///
/// An unreadable set or run output.
pub fn agree(a: &Path, b: &Path) -> Result<bool, String> {
    let (sa, sb) = (load_set(a)?, load_set(b)?);
    let mut all = true;
    println!(
        "{:<16} {:<14} {:>7} {:>12} {:>12} {:>8} {:>8} {:>8}  verdict",
        "workload", "metric", "bound", "median A", "median B", "spread A", "spread B", "B worse"
    );
    let workloads: std::collections::BTreeSet<&String> = sa.keys().chain(sb.keys()).collect();
    for w in workloads {
        for m in &END_TO_END {
            let samples = |s: &Set| {
                s.get(w)
                    .and_then(|x| x.get(m.name))
                    .cloned()
                    .unwrap_or_default()
            };
            let (va, vb) = (samples(&sa), samples(&sb));
            let (verdict, [ma, mb, spa, spb, worse]) = judge(m, &va, &vb);
            all &= verdict == Verdict::Agree;
            println!(
                "{w:<16} {:<14} {:>6.1}% {ma:>12.5} {mb:>12.5} {:>7.2}% {:>7.2}% {:>+7.2}%  {} (n={}/{})",
                m.name,
                m.bound.unwrap_or(0.0) * 100.0,
                spa * 100.0,
                spb * 100.0,
                worse * 100.0,
                match verdict {
                    Verdict::Agree => "agree",
                    Verdict::Differ => "differ",
                    Verdict::Unresolved => "unresolved",
                },
                va.len(),
                vb.len(),
            );
        }
    }
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rate() -> Metric {
        END_TO_END[0]
    }

    #[test]
    fn close_medians_with_tight_spreads_agree() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        let b = [1.03, 1.02, 1.04, 1.03, 1.02];
        assert_eq!(judge(&rate(), &a, &b).0, Verdict::Agree);
    }

    #[test]
    fn distant_medians_differ() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        let b = [1.30, 1.31, 1.29, 1.30, 1.32];
        assert_eq!(judge(&rate(), &a, &b).0, Verdict::Differ);
    }

    #[test]
    fn a_wide_spread_is_unresolved() {
        let a = [0.6, 1.0, 1.4, 0.8, 1.2];
        let b = [1.00, 1.01, 0.99, 1.00, 1.02];
        assert_eq!(judge(&rate(), &a, &b).0, Verdict::Unresolved);
        assert_eq!(judge(&rate(), &[1.0], &b).0, Verdict::Unresolved, "one run");
        assert_eq!(judge(&rate(), &[], &b).0, Verdict::Unresolved, "no runs");
    }

    #[test]
    fn parses_a_run_output() {
        let out = "benchmark: workload=mcf_th52 seed=7 seconds=10 trace=0\n\
                   some human-readable line\n\
                   {\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
                   {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}\n";
        let (w, values) = parse_run(out).unwrap();
        assert_eq!(w, "mcf_th52");
        assert_eq!(values, vec![("setup_s".to_string(), 0.5)]);
        assert!(parse_run("no header\n{}").is_err());
        assert!(parse_run("benchmark: workload=x\nnot json").is_err());
    }
}
