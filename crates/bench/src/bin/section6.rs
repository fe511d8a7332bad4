//! Section 6's generational argument: from DDR PC-2100 (2-2-2 at 133 MHz)
//! to DDR2 PC2-6400 (5-5-5 at 400 MHz) bus frequency tripled while timing
//! in nanoseconds barely moved, so latency *in cycles* grew (row conflict:
//! 6 -> 15 cycles) — and with it the headroom for access reordering. This
//! harness measures the Burst_TH52 improvement on each device.
//!
//! Each device is one `Sweep::run_supervised` call, scoped by the device
//! (`section6-DDR-PC-2100`, ...): a failing cell is retried, then left out
//! of the ratio, and the binary exits nonzero.

use std::process::ExitCode;

use burst_bench::{banner, FailureLedger, HarnessOptions};
use burst_core::Mechanism;
use burst_dram::{DramConfig, TimingParams};
use burst_sim::experiments::Sweep;
use burst_sim::report::render_table;

fn main() -> ExitCode {
    let opts = HarnessOptions::from_args(40_000);
    println!(
        "{}",
        banner(
            "section6",
            "reordering gains across device generations",
            &opts
        )
    );

    let ddr = DramConfig {
        timing: TimingParams::ddr_pc_2100(),
        ..DramConfig::baseline()
    };
    let ddr2 = DramConfig::baseline();
    let ddr3 = DramConfig {
        timing: TimingParams::ddr3_1333(),
        ..DramConfig::baseline()
    };

    let benches = if opts.benchmarks.len() > 5 {
        opts.benchmarks[..5].to_vec()
    } else {
        opts.benchmarks.clone()
    };
    let sup = opts.supervisor_config();
    let journal = opts.open_journal();
    let ckpt = opts.checkpoint_plan();
    let mut ledger = FailureLedger::new();

    let mut rows = Vec::new();
    for (tag, name, dram) in [
        ("DDR-PC-2100", "DDR PC-2100 (2-2-2)", ddr),
        ("DDR2-PC2-6400", "DDR2 PC2-6400 (5-5-5)", ddr2),
        ("DDR3-1333", "DDR3-1333 (9-9-9)", ddr3),
    ] {
        let sweep = ledger.absorb(Sweep::run_supervised(
            &format!("section6-{tag}"),
            &opts.system_config().with_dram(dram),
            &benches,
            &[Mechanism::BkInOrder, Mechanism::BurstTh(52)],
            opts.run,
            opts.seed,
            opts.jobs,
            &sup,
            journal.as_ref(),
            ckpt.as_ref(),
        ));
        // Sums cycles over the benchmarks where both runs completed, so
        // the ratio stays apples-to-apples.
        let (mut base, mut th) = (0u64, 0u64);
        for &b in &benches {
            let cycles = |m| sweep.cell(b, m).map(|c| c.report.cpu_cycles);
            if let (Some(b), Some(t)) =
                (cycles(Mechanism::BkInOrder), cycles(Mechanism::BurstTh(52)))
            {
                base += b;
                th += t;
            }
        }
        let ratio = if base > 0 {
            format!("{:.3}", th as f64 / base as f64)
        } else {
            "n/a".to_string()
        };
        let gain = if base > 0 {
            format!("{:.1}%", (1.0 - th as f64 / base as f64) * 100.0)
        } else {
            "n/a".to_string()
        };
        rows.push(vec![
            name.to_string(),
            format!("{}", dram.timing.row_conflict_latency()),
            ratio,
            gain,
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "device",
                "conflict latency (cycles)",
                "TH52 / BkInOrder",
                "improvement"
            ],
            &rows
        )
    );
    println!(
        "Paper's claim: as timing parameters grow in cycles, the improvement provided\n\
         by access reordering mechanisms becomes more significant."
    );
    ledger.finish()
}
