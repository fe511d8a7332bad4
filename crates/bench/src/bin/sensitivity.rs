//! Sensitivity study (extension): how robust is burst scheduling's
//! advantage to the machine parameters the paper fixed? Sweeps the write
//! queue capacity (with the threshold scaled proportionally), the LSQ size
//! (memory-level parallelism) and the channel count, reporting the
//! Burst_TH improvement over BkInOrder at each point.
//!
//! Each sweep point is one `Sweep::run_supervised` call, scoped by the
//! point (`sensitivity-wq-16`, `sensitivity-lsq-8`, `sensitivity-ch-1`): a
//! failing run drops its point to `n/a` instead of aborting the study, and
//! the binary exits nonzero.

use std::process::ExitCode;

use burst_bench::{banner, FailureLedger, HarnessOptions};
use burst_core::Mechanism;
use burst_sim::experiments::Sweep;
use burst_sim::report::render_table;
use burst_sim::SystemConfig;
use burst_workloads::SpecBenchmark;

/// The benchmarks every sweep point runs.
const BENCHES: [SpecBenchmark; 4] = [
    SpecBenchmark::Swim,
    SpecBenchmark::Gcc,
    SpecBenchmark::Art,
    SpecBenchmark::Parser,
];

/// The `th` improvement over `base` in `sweep`, or `None` when any of the
/// eight cells stayed unrecovered (a partial ratio would mislead).
fn improvement(sweep: &Sweep, base: Mechanism, th: Mechanism) -> Option<f64> {
    let total = |m: Mechanism| -> Option<u64> {
        BENCHES
            .iter()
            .map(|&b| sweep.cell(b, m).map(|c| c.report.cpu_cycles))
            .sum()
    };
    Some(1.0 - total(th)? as f64 / total(base)? as f64)
}

fn fmt_gain(gain: Option<f64>) -> String {
    match gain {
        Some(g) => format!("{:.1}%", g * 100.0),
        None => "n/a".to_string(),
    }
}

fn main() -> ExitCode {
    let opts = HarnessOptions::from_args(20_000);
    println!(
        "{}",
        banner("sensitivity", "TH52 advantage vs machine parameters", &opts)
    );
    let sup = opts.supervisor_config();
    let journal = opts.open_journal();
    let ckpt = opts.checkpoint_plan();
    let mut ledger = FailureLedger::new();
    // One sweep point: BkInOrder against `th`, both on `base`.
    let mut gain = |scope: &str, base: &SystemConfig, th: Mechanism| {
        let sweep = ledger.absorb(Sweep::run_supervised(
            scope,
            base,
            &BENCHES,
            &[base.mechanism, th],
            opts.run,
            opts.seed,
            opts.jobs,
            &sup,
            journal.as_ref(),
            ckpt.as_ref(),
        ));
        fmt_gain(improvement(&sweep, base.mechanism, th))
    };

    // 1. Write queue capacity (threshold scaled to ~80% of capacity).
    let mut rows = Vec::new();
    for cap in [16usize, 32, 64, 128] {
        let th = (cap * 52 / 64) as u32;
        let mut base = opts.system_config();
        base.ctrl.write_capacity = cap;
        let g = gain(
            &format!("sensitivity-wq-{cap}"),
            &base,
            Mechanism::BurstTh(th),
        );
        rows.push(vec![format!("{cap} (th {th})"), g]);
    }
    println!("--- write queue capacity\n");
    println!("{}", render_table(&["capacity", "TH improvement"], &rows));

    // 2. LSQ size: memory-level parallelism available to reorder.
    let mut rows = Vec::new();
    for lsq in [8usize, 16, 32, 64] {
        let mut base = opts.system_config();
        base.cpu.lsq_size = lsq;
        let g = gain(
            &format!("sensitivity-lsq-{lsq}"),
            &base,
            Mechanism::BurstTh(52),
        );
        rows.push(vec![format!("{lsq}"), g]);
    }
    println!("--- LSQ size (outstanding-miss limit)\n");
    println!("{}", render_table(&["LSQ", "TH improvement"], &rows));

    // 3. Channels: raw parallelism dilutes per-channel contention.
    let mut rows = Vec::new();
    for channels in [1u8, 2, 4] {
        let mut base = opts.system_config();
        base.dram.geometry.channels = channels;
        let g = gain(
            &format!("sensitivity-ch-{channels}"),
            &base,
            Mechanism::BurstTh(52),
        );
        rows.push(vec![format!("{channels}"), g]);
    }
    println!("--- channel count\n");
    println!("{}", render_table(&["channels", "TH improvement"], &rows));

    println!(
        "Expected shape: more outstanding misses (bigger LSQ) give reordering more\n\
         to work with; more channels dilute contention and shrink the advantage."
    );
    ledger.finish()
}
