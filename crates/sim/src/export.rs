//! CSV export of simulation results, for plotting the paper's figures with
//! external tools (gnuplot, matplotlib, spreadsheets).
//!
//! All exports are plain RFC-4180-ish CSV with a header row; fields never
//! contain commas, so no quoting is required.

use crate::experiments::{
    CellFailure, Fig10Row, Fig12Row, Fig7Row, Fig9Row, OutstandingRow, Sweep,
};
use crate::report::NoRowsError;
use crate::SimReport;

/// Serialises one [`SimReport`] per row.
///
/// # Examples
///
/// ```
/// use burst_sim::{simulate, RunLength, SystemConfig};
/// use burst_sim::export::reports_to_csv;
/// use burst_workloads::SpecBenchmark;
///
/// let r = simulate(&SystemConfig::baseline(), SpecBenchmark::Gzip.workload(1),
///                  RunLength::Instructions(2_000));
/// let csv = reports_to_csv(&[r]);
/// assert!(csv.starts_with("mechanism,workload,"));
/// assert_eq!(csv.lines().count(), 2);
/// ```
pub fn reports_to_csv(reports: &[SimReport]) -> String {
    let mut out = String::from(
        "mechanism,workload,instructions,cpu_cycles,mem_cycles,ipc,reads,writes,\
         avg_read_latency,avg_write_latency,read_p50,read_p95,read_p99,\
         row_hit_rate,row_conflict_rate,row_empty_rate,\
         addr_bus_util,data_bus_util,write_saturation,preemptions,piggybacks,forwards,\
         protocol_violations,faults_injected,fault_retries,escalations,watchdog_trips,\
         max_access_age\n",
    );
    for r in reports {
        out.push_str(&format!(
            "{},{},{},{},{},{:.4},{},{},{:.2},{:.2},{},{},{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{},{},{},{},{},{},{},{},{}\n",
            r.mechanism.name(),
            r.workload,
            r.instructions,
            r.cpu_cycles,
            r.mem_cycles,
            r.ipc(),
            r.reads(),
            r.writes(),
            r.ctrl.avg_read_latency(),
            r.ctrl.avg_write_latency(),
            r.ctrl.read_latencies.p50(),
            r.ctrl.read_latencies.p95(),
            r.ctrl.read_latencies.p99(),
            r.ctrl.row_hit_rate(),
            r.ctrl.row_conflict_rate(),
            r.ctrl.row_empty_rate(),
            r.addr_bus_utilization(),
            r.data_bus_utilization(),
            r.ctrl.write_saturation_rate(),
            r.ctrl.preemptions,
            r.ctrl.piggybacks,
            r.ctrl.forwards,
            r.robustness.violations,
            r.robustness.faults_injected,
            r.robustness.retries,
            r.robustness.escalations,
            r.robustness.watchdog_trips,
            r.robustness.max_access_age,
        ));
    }
    out
}

/// Serialises a whole sweep, one row per (benchmark, mechanism) cell.
pub fn sweep_to_csv(sweep: &Sweep) -> String {
    let reports: Vec<SimReport> = sweep.cells.iter().map(|c| c.report.clone()).collect();
    reports_to_csv(&reports)
}

/// Figure 7 rows as CSV.
pub fn fig7_to_csv(rows: &[Fig7Row]) -> String {
    let mut out = String::from("mechanism,read_latency,write_latency\n");
    for r in rows {
        out.push_str(&format!(
            "{},{:.2},{:.2}\n",
            r.mechanism.name(),
            r.read_latency,
            r.write_latency
        ));
    }
    out
}

/// Figure 9 rows as CSV.
pub fn fig9_to_csv(rows: &[Fig9Row]) -> String {
    let mut out = String::from("mechanism,row_hit,row_conflict,row_empty,addr_bus,data_bus\n");
    for r in rows {
        out.push_str(&format!(
            "{},{:.4},{:.4},{:.4},{:.4},{:.4}\n",
            r.mechanism.name(),
            r.row_hit,
            r.row_conflict,
            r.row_empty,
            r.addr_bus,
            r.data_bus
        ));
    }
    out
}

/// Figure 10 rows as CSV (wide format: one column per mechanism of any
/// row, [`Fig10Row::columns`]); a cell a row lacks is an empty field.
///
/// # Errors
///
/// Returns [`NoRowsError`] when `rows` is empty: the header's mechanism
/// columns come from the rows, so an empty input would silently export a
/// header-less, data-less file.
pub fn fig10_to_csv(rows: &[Fig10Row]) -> Result<String, NoRowsError> {
    if rows.is_empty() {
        return Err(NoRowsError {
            what: "the Figure 10 CSV",
        });
    }
    let columns = Fig10Row::columns(rows);
    let mut out = String::from("benchmark");
    for m in &columns {
        out.push(',');
        out.push_str(&m.name());
    }
    out.push('\n');
    for r in rows {
        out.push_str(r.benchmark.name());
        for &m in &columns {
            out.push(',');
            if let Some(v) = r.get(m) {
                out.push_str(&format!("{v:.4}"));
            }
        }
        out.push('\n');
    }
    Ok(out)
}

/// Figure 12 rows as CSV.
pub fn fig12_to_csv(rows: &[Fig12Row]) -> String {
    let mut out = String::from("point,read_latency,write_latency,normalized_exec\n");
    for r in rows {
        out.push_str(&format!(
            "{},{:.2},{:.2},{:.4}\n",
            r.mechanism.name(),
            r.read_latency,
            r.write_latency,
            r.normalized_exec
        ));
    }
    out
}

/// The salvage CSV of a supervised sweep: one row per cell — completed
/// *and* failed — so a partially successful run still leaves a complete
/// machine-readable account of the grid. Completed cells carry `ok` status
/// with `-` placeholders in the failure columns; failed cells carry the
/// taxonomy kind, attempt count and a comma/newline-sanitised diagnostic.
/// Journalled cells that exhausted their retries report status
/// `quarantined` instead of `failed`: they will be skipped, not retried,
/// on the next `--resume`.
pub fn salvage_to_csv(sweep: &Sweep, failures: &[CellFailure]) -> String {
    let mut out = String::from("benchmark,mechanism,status,kind,attempts,detail\n");
    for c in &sweep.cells {
        out.push_str(&format!(
            "{},{},ok,-,-,-\n",
            c.benchmark.name(),
            c.mechanism.name()
        ));
    }
    for f in failures {
        let detail: String = f
            .payload
            .chars()
            .map(|ch| match ch {
                ',' => ';',
                '\n' | '\r' => ' ',
                other => other,
            })
            .collect();
        out.push_str(&format!(
            "{},{},{},{},{},{}\n",
            f.benchmark.name(),
            f.mechanism.name(),
            if f.quarantined {
                "quarantined"
            } else {
                "failed"
            },
            f.kind.name(),
            f.attempts,
            detail
        ));
    }
    out
}

/// Figure 8/11 distributions as CSV (long format: mechanism, kind,
/// occupancy, fraction).
pub fn outstanding_to_csv(rows: &[OutstandingRow]) -> String {
    let mut out = String::from("mechanism,kind,occupancy,fraction\n");
    for r in rows {
        for (kind, series) in [("read", &r.reads), ("write", &r.writes)] {
            for (n, &frac) in series.iter().enumerate() {
                if frac > 0.0 {
                    out.push_str(&format!(
                        "{},{},{},{:.6}\n",
                        r.mechanism.name(),
                        kind,
                        n,
                        frac
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Sweep;
    use crate::RunLength;
    use burst_core::Mechanism;
    use burst_workloads::SpecBenchmark;

    fn mini_sweep() -> Sweep {
        Sweep::run(
            &crate::SystemConfig::baseline(),
            &[SpecBenchmark::Gzip],
            &[Mechanism::BkInOrder, Mechanism::BurstTh(52)],
            RunLength::Instructions(2_000),
            1,
            0,
        )
    }

    #[test]
    fn sweep_csv_has_header_and_rows() {
        let csv = sweep_to_csv(&mini_sweep());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 cells");
        assert!(lines[0].starts_with("mechanism,workload"));
        assert!(lines[1].contains("gzip"));
        // Same column count on every row.
        let cols = lines[0].split(',').count();
        for l in &lines[1..] {
            assert_eq!(l.split(',').count(), cols, "ragged row: {l}");
        }
    }

    #[test]
    fn fig_csvs_are_well_formed() {
        let sweep = mini_sweep();
        for csv in [
            fig7_to_csv(&sweep.fig7_rows()),
            fig9_to_csv(&sweep.fig9_rows()),
            fig10_to_csv(&sweep.fig10_rows()).expect("sweep has rows"),
        ] {
            let lines: Vec<&str> = csv.lines().collect();
            assert!(lines.len() >= 2, "header plus data: {csv}");
            let cols = lines[0].split(',').count();
            assert!(lines[1..].iter().all(|l| l.split(',').count() == cols));
        }
    }

    #[test]
    fn outstanding_csv_long_format() {
        let rows = Sweep::run_supervised(
            "fig8",
            &crate::SystemConfig::baseline(),
            &[SpecBenchmark::Gzip],
            &crate::experiments::fig8_mechanisms(),
            RunLength::Instructions(2_000),
            1,
            0,
            &crate::SupervisorConfig::default(),
            None,
            None,
        )
        .value
        .outstanding_rows();
        let csv = outstanding_to_csv(&rows);
        assert!(csv.starts_with("mechanism,kind,occupancy,fraction\n"));
        assert!(csv.contains(",read,"));
        assert!(csv.contains(",write,"));
    }

    #[test]
    fn fig10_csv_reports_empty_rows() {
        let err = fig10_to_csv(&[]).unwrap_err();
        assert!(err.to_string().contains("no rows"), "{err}");
    }

    #[test]
    fn report_csv_includes_robustness_columns() {
        let csv = sweep_to_csv(&mini_sweep());
        let header = csv.lines().next().unwrap();
        assert!(header.ends_with("max_access_age"), "header: {header}");
        assert!(header.contains("protocol_violations"));
        assert!(header.contains("watchdog_trips"));
    }

    #[test]
    fn salvage_csv_lists_ok_and_failed_cells() {
        use crate::experiments::CellFailure;
        use crate::supervisor::FailureKind;
        let sweep = mini_sweep();
        let failures = vec![CellFailure {
            scope: "sweep".into(),
            benchmark: SpecBenchmark::Swim,
            mechanism: Mechanism::Burst,
            kind: FailureKind::Panic,
            attempts: 3,
            payload: "boom, with commas\nand newlines".into(),
            quarantined: false,
        }];
        let csv = salvage_to_csv(&sweep, &failures);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4, "header + 2 ok + 1 failed");
        assert!(lines[1].contains(",ok,-,-,-"));
        let failed = lines[3];
        assert!(failed.starts_with("swim,Burst,failed,panic,3,"));
        assert!(!failed.contains("boom,"), "commas sanitised: {failed}");
        let cols = lines[0].split(',').count();
        assert!(lines[1..].iter().all(|l| l.split(',').count() == cols));
    }

    #[test]
    fn no_commas_inside_fields() {
        let csv = sweep_to_csv(&mini_sweep());
        // Workload and mechanism names never contain commas by construction.
        for line in csv.lines().skip(1) {
            assert!(!line.contains(",,"), "empty field in {line}");
        }
    }
}
