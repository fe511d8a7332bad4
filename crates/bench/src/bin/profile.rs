//! Profiles each benchmark surrogate's memory traffic under the baseline
//! mechanism: reads/writes reaching main memory, cache hit rates, IPC and
//! bus pressure. A calibration aid, not a paper figure.
//!
//! The grid is one `Sweep::run_supervised` call under scope `profile`: a
//! failing cell is retried, then left out of the table, and the binary
//! exits nonzero.

use std::process::ExitCode;

use burst_bench::{banner, FailureLedger, HarnessOptions};
use burst_sim::experiments::Sweep;
use burst_sim::report::render_table;

fn main() -> ExitCode {
    let opts = HarnessOptions::from_args(40_000);
    println!(
        "{}",
        banner("profile", "workload traffic calibration", &opts)
    );
    let base = opts.system_config();
    let journal = opts.open_journal();
    let ckpt = opts.checkpoint_plan();
    let mut ledger = FailureLedger::new();
    let sweep = ledger.absorb(Sweep::run_supervised(
        "profile",
        &base,
        &opts.benchmarks,
        &[base.mechanism],
        opts.run,
        opts.seed,
        opts.jobs,
        &opts.supervisor_config(),
        journal.as_ref(),
        ckpt.as_ref(),
    ));
    let mut rows = Vec::new();
    for &b in &opts.benchmarks {
        let Some(cell) = sweep.cell(b, base.mechanism) else {
            continue;
        };
        let report = &cell.report;
        rows.push(vec![
            b.name().to_string(),
            format!("{:.3}", report.ipc()),
            report.reads().to_string(),
            report.writes().to_string(),
            format!(
                "{:.2}",
                report.writes() as f64 / report.reads().max(1) as f64
            ),
            format!("{:.1}", report.ctrl.avg_read_latency()),
            format!("{:.0}%", report.data_bus_utilization() * 100.0),
            format!("{:.0}%", report.ctrl.row_hit_rate() * 100.0),
            format!("{}", report.mem_cycles),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["bench", "IPC", "rd", "wr", "wr/rd", "rd lat", "data bus", "row hit", "mem cyc"],
            &rows
        )
    );
    ledger.finish()
}
