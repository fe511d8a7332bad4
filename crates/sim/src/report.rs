//! Plain-text rendering of experiment results in the layout of the paper's
//! tables and figures.

use crate::experiments::{
    CellFailure, Fig10Row, Fig12Row, Fig7Row, Fig9Row, OutstandingRow, Table1Row,
};
use crate::supervisor::FailureKind;
use burst_core::Mechanism;

/// Error returned when a renderer or exporter is handed an empty row set:
/// the artefact would silently be an empty table, which almost always means
/// an upstream sweep produced no cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoRowsError {
    /// Which artefact could not be produced.
    pub what: &'static str,
}

impl core::fmt::Display for NoRowsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "cannot produce {}: no rows (did the sweep run any cells?)",
            self.what
        )
    }
}

impl std::error::Error for NoRowsError {}

/// Renders an aligned text table. `rows` are cell strings; column widths
/// adapt to content.
///
/// # Examples
///
/// ```
/// use burst_sim::report::render_table;
///
/// let s = render_table(
///     &["name", "value"],
///     &[vec!["a".into(), "1".into()], vec!["bb".into(), "22".into()]],
/// );
/// assert!(s.contains("name"));
/// assert!(s.lines().count() >= 4);
/// ```
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let sep: String = widths
        .iter()
        .map(|w| format!("+{}", "-".repeat(w + 2)))
        .collect::<String>()
        + "+\n";
    out.push_str(&sep);
    out.push('|');
    for (h, w) in headers.iter().zip(&widths) {
        out.push_str(&format!(" {h:<w$} |"));
    }
    out.push('\n');
    out.push_str(&sep);
    for row in rows {
        out.push('|');
        for (i, w) in widths.iter().enumerate() {
            let cell = row.get(i).map(String::as_str).unwrap_or("");
            out.push_str(&format!(" {cell:<w$} |"));
        }
        out.push('\n');
    }
    out.push_str(&sep);
    out
}

/// Renders Table 1 (access latencies by policy and row state).
pub fn render_table1(rows: &[Table1Row]) -> String {
    let fmt = |v: Option<u64>| v.map(|c| c.to_string()).unwrap_or_else(|| "N/A".into());
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.policy.to_string(),
                fmt(r.hit),
                fmt(r.empty),
                fmt(r.conflict),
            ]
        })
        .collect();
    render_table(
        &["Controller policy", "Row hit", "Row empty", "Row conflict"],
        &body,
    )
}

/// Renders Figure 7 (average read/write latency per mechanism).
pub fn render_fig7(rows: &[Fig7Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.mechanism.name(),
                format!("{:.1}", r.read_latency),
                format!("{:.1}", r.write_latency),
            ]
        })
        .collect();
    render_table(
        &[
            "Mechanism",
            "Read latency (cycles)",
            "Write latency (cycles)",
        ],
        &body,
    )
}

/// Renders Figure 8 / 11 (outstanding access distributions) as summary
/// statistics plus a coarse histogram.
pub fn render_outstanding(rows: &[OutstandingRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.mechanism.name(),
                format!("{:.1}", r.mean_reads),
                format!("{:.1}", r.mean_writes),
                format!("{:.0}%", r.saturation * 100.0),
                sparkline(&r.reads[..r.reads.len().min(36)]),
                sparkline(&r.writes[..r.writes.len().min(72)]),
            ]
        })
        .collect();
    render_table(
        &[
            "Mechanism",
            "Mean rd",
            "Mean wr",
            "WQ sat",
            "Reads 0..35",
            "Writes 0..71",
        ],
        &body,
    )
}

/// Renders Figure 9 (row states and bus utilisation).
pub fn render_fig9(rows: &[Fig9Row]) -> String {
    let pct = |v: f64| format!("{:.1}%", v * 100.0);
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.mechanism.name(),
                pct(r.row_hit),
                pct(r.row_conflict),
                pct(r.row_empty),
                pct(r.addr_bus),
                pct(r.data_bus),
            ]
        })
        .collect();
    render_table(
        &[
            "Mechanism",
            "Row hit",
            "Row conflict",
            "Row empty",
            "Addr bus",
            "Data bus",
        ],
        &body,
    )
}

/// Renders Figure 10 (normalised execution time per benchmark), one
/// column per mechanism of any row ([`Fig10Row::columns`]); a cell that a
/// row or the average lacks prints `n/a`.
///
/// # Errors
///
/// Returns [`NoRowsError`] when `rows` is empty (the columns come from the
/// rows, so an empty input has no table shape).
pub fn render_fig10(
    rows: &[Fig10Row],
    average: &[(Mechanism, f64)],
) -> Result<String, NoRowsError> {
    if rows.is_empty() {
        return Err(NoRowsError {
            what: "the Figure 10 table",
        });
    }
    let columns = Fig10Row::columns(rows);
    let names: Vec<String> = columns.iter().map(Mechanism::name).collect();
    let headers: Vec<&str> = std::iter::once("Benchmark")
        .chain(names.iter().map(String::as_str))
        .collect();
    let line = |label: &str, pairs: &[(Mechanism, f64)]| -> Vec<String> {
        let cell = |m: Mechanism| match pairs.iter().find(|(p, _)| *p == m) {
            Some((_, v)) => format!("{v:.3}"),
            None => "n/a".to_string(),
        };
        std::iter::once(label.to_string())
            .chain(columns.iter().map(|&m| cell(m)))
            .collect()
    };
    let mut body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| line(r.benchmark.name(), &r.normalized))
        .collect();
    body.push(line("average", average));
    Ok(render_table(&headers, &body))
}

/// Renders Figure 12 (threshold sweep).
pub fn render_fig12(rows: &[Fig12Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.mechanism.name(),
                format!("{:.1}", r.read_latency),
                format!("{:.1}", r.write_latency),
                format!("{:.3}", r.normalized_exec),
            ]
        })
        .collect();
    render_table(
        &[
            "Threshold point",
            "Read lat",
            "Write lat",
            "Exec (norm to Burst)",
        ],
        &body,
    )
}

/// Renders the failure-taxonomy summary of a supervised run: one count row
/// per [`FailureKind`] that occurred, followed by a per-cell detail table.
/// Returns the empty string when every cell completed, so harnesses can
/// print it unconditionally.
pub fn render_failure_summary(failures: &[CellFailure]) -> String {
    if failures.is_empty() {
        return String::new();
    }
    let counts: Vec<Vec<String>> = FailureKind::all()
        .into_iter()
        .filter_map(|kind| {
            let n = failures.iter().filter(|f| f.kind == kind).count();
            (n > 0).then(|| vec![kind.name().to_string(), n.to_string()])
        })
        .collect();
    let details: Vec<Vec<String>> = failures
        .iter()
        .map(|f| {
            vec![
                f.key(),
                f.kind.name().to_string(),
                f.attempts.to_string(),
                if f.quarantined {
                    "quarantined".to_string()
                } else {
                    "retryable".to_string()
                },
                f.payload.clone(),
            ]
        })
        .collect();
    let quarantined = failures.iter().filter(|f| f.quarantined).count();
    let mut out = format!(
        "{} unrecovered cell(s), {} quarantined\n",
        failures.len(),
        quarantined
    );
    out.push_str(&render_table(&["Failure kind", "Cells"], &counts));
    out.push_str(&render_table(
        &["Cell", "Kind", "Attempts", "Disposition", "Detail"],
        &details,
    ));
    out
}

/// A unicode sparkline of a distribution (peak-normalised).
fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().cloned().fold(0.0f64, f64::max);
    if max <= 0.0 {
        return "▁".repeat(values.len().min(16));
    }
    // Down-sample to at most 24 buckets for table width.
    let buckets = values.len().min(24);
    let per = (values.len() as f64 / buckets as f64).max(1.0);
    (0..buckets)
        .map(|b| {
            let start = (b as f64 * per) as usize;
            let end = (((b + 1) as f64 * per) as usize)
                .min(values.len())
                .max(start + 1);
            let v = values[start..end].iter().cloned().fold(0.0f64, f64::max);
            let idx = ((v / max) * 7.0).round() as usize;
            BARS[idx.min(7)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use burst_core::Mechanism;

    #[test]
    fn render_table_aligns_columns() {
        let s = render_table(
            &["a", "bbbb"],
            &[
                vec!["xxxxx".into(), "1".into()],
                vec!["y".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = s.lines().collect();
        // All lines the same width.
        assert!(lines
            .windows(2)
            .all(|w| w[0].chars().count() == w[1].chars().count()));
        assert!(s.contains("xxxxx"));
    }

    #[test]
    fn render_fig7_includes_mechanisms() {
        let rows = vec![Fig7Row {
            mechanism: Mechanism::BurstTh(52),
            read_latency: 55.0,
            write_latency: 300.0,
        }];
        let s = render_fig7(&rows);
        assert!(s.contains("Burst_TH52"));
        assert!(s.contains("55.0"));
    }

    #[test]
    fn sparkline_peak_is_full_block() {
        let s = sparkline(&[0.0, 0.5, 1.0, 0.2]);
        assert!(s.contains('█'));
    }

    #[test]
    fn sparkline_handles_all_zero() {
        let s = sparkline(&[0.0; 10]);
        assert!(!s.is_empty());
    }
}

#[cfg(test)]
mod render_tests {
    use super::*;
    use crate::experiments::{table1, Fig10Row, Fig12Row, Fig9Row, OutstandingRow, Table1Row};
    use burst_core::Mechanism;
    use burst_dram::{RowPolicy, TimingParams};
    use burst_workloads::SpecBenchmark;

    #[test]
    fn render_table1_shows_na_for_impossible_cells() {
        let rows: Vec<Table1Row> = table1(&TimingParams::ddr2_pc2_6400());
        let s = render_table1(&rows);
        assert!(s.contains("OP"));
        assert!(s.contains("CPA"));
        assert!(
            s.contains("N/A"),
            "CPA hit/conflict are N/A in the paper's Table 1"
        );
        assert!(s.contains("15"), "row conflict latency");
        let _ = RowPolicy::OpenPage; // silence unused import on some cfgs
    }

    #[test]
    fn render_fig9_formats_percentages() {
        let rows = vec![Fig9Row {
            mechanism: Mechanism::RowHit,
            row_hit: 0.471,
            row_conflict: 0.492,
            row_empty: 0.037,
            addr_bus: 0.272,
            data_bus: 0.566,
        }];
        let s = render_fig9(&rows);
        assert!(s.contains("47.1%"));
        assert!(s.contains("56.6%"));
        assert!(s.contains("RowHit"));
    }

    #[test]
    fn render_fig10_appends_average_row() {
        let rows = vec![Fig10Row {
            benchmark: SpecBenchmark::Swim,
            normalized: vec![(Mechanism::Burst, 0.75), (Mechanism::BurstTh(52), 0.70)],
        }];
        let avg = vec![(Mechanism::Burst, 0.75), (Mechanism::BurstTh(52), 0.70)];
        let s = render_fig10(&rows, &avg).expect("non-empty rows");
        assert!(s.contains("swim"));
        assert!(s.contains("average"));
        assert!(s.contains("0.700"));
        assert!(s.contains("Burst_TH52"));
    }

    #[test]
    fn render_fig10_rejects_empty_rows() {
        let err = render_fig10(&[], &[]).unwrap_err();
        assert!(err.to_string().contains("no rows"), "{err}");
    }

    #[test]
    fn render_fig12_lists_all_points() {
        let rows = vec![
            Fig12Row {
                mechanism: Mechanism::BurstWp,
                read_latency: 66.3,
                write_latency: 438.7,
                normalized_exec: 0.979,
            },
            Fig12Row {
                mechanism: Mechanism::BurstRp,
                read_latency: 68.6,
                write_latency: 601.6,
                normalized_exec: 1.0,
            },
        ];
        let s = render_fig12(&rows);
        assert!(s.contains("Burst_WP"));
        assert!(s.contains("Burst_RP"));
        assert!(s.contains("0.979"));
    }

    #[test]
    fn render_failure_summary_counts_and_details() {
        use crate::experiments::CellFailure;
        use crate::supervisor::FailureKind;
        assert_eq!(render_failure_summary(&[]), "");
        let failures = vec![
            CellFailure {
                scope: "sweep".into(),
                benchmark: SpecBenchmark::Swim,
                mechanism: Mechanism::Burst,
                kind: FailureKind::Panic,
                attempts: 3,
                payload: "cell exploded".into(),
                quarantined: true,
            },
            CellFailure {
                scope: "sweep".into(),
                benchmark: SpecBenchmark::Swim,
                mechanism: Mechanism::RowHit,
                kind: FailureKind::Deadline,
                attempts: 1,
                payload: "too slow".into(),
                quarantined: false,
            },
        ];
        let s = render_failure_summary(&failures);
        assert!(s.contains("2 unrecovered cell(s), 1 quarantined"));
        assert!(s.contains("panic"));
        assert!(s.contains("deadline"));
        assert!(s.contains("quarantined"));
        assert!(s.contains("retryable"));
        assert!(s.contains("sweep/swim/Burst"));
        assert!(s.contains("cell exploded"));
    }

    #[test]
    fn render_outstanding_includes_saturation_and_sparklines() {
        let rows = vec![OutstandingRow {
            mechanism: Mechanism::BurstRp,
            reads: vec![0.1; 36],
            writes: {
                let mut w = vec![0.0; 72];
                w[64] = 0.6;
                w
            },
            saturation: 0.62,
            mean_reads: 26.1,
            mean_writes: 63.2,
        }];
        let s = render_outstanding(&rows);
        assert!(s.contains("62%"));
        assert!(s.contains("26.1"));
        assert!(
            s.contains('█'),
            "peaked write distribution renders a full block"
        );
    }
}
