//! Energy ablation (extension): access reordering changes the DRAM command
//! mix (row hits avoid activate/precharge pairs) and the run time (faster
//! runs pay less standby power). This harness compares estimated DRAM
//! energy per mechanism using the Micron IDD-based model.
//!
//! The grid is one `Sweep::run_supervised` call under scope `energy`: a
//! failing cell is retried, then left out of its mechanism's sums, and the
//! binary exits nonzero.

use std::process::ExitCode;

use burst_bench::{banner, FailureLedger, HarnessOptions};
use burst_core::Mechanism;
use burst_dram::EnergyParams;
use burst_sim::experiments::Sweep;
use burst_sim::report::render_table;

fn main() -> ExitCode {
    let opts = HarnessOptions::from_args(40_000);
    println!(
        "{}",
        banner("energy", "DRAM energy per mechanism (extension)", &opts)
    );
    let params = EnergyParams::ddr2_pc2_6400();
    let benches = if opts.benchmarks.len() > 4 {
        opts.benchmarks[..4].to_vec()
    } else {
        opts.benchmarks.clone()
    };
    let ranks = 8; // 2 channels x 4 ranks
    let mut ledger = FailureLedger::new();
    let journal = opts.open_journal();
    let ckpt = opts.checkpoint_plan();
    let sweep = ledger.absorb(Sweep::run_supervised(
        "energy",
        &opts.system_config(),
        &benches,
        &Mechanism::all_paper(),
        opts.run,
        opts.seed,
        opts.jobs,
        &opts.supervisor_config(),
        journal.as_ref(),
        ckpt.as_ref(),
    ));

    let mut rows = Vec::new();
    for mechanism in Mechanism::all_paper() {
        let mut total_mj = 0.0;
        let mut act_nj = 0.0;
        let mut bg_nj = 0.0;
        let mut accesses = 0u64;
        let mut cycles = 0u64;
        let mut completed = 0usize;
        // Sum in benchmark order: float addition is not associative.
        for cell in benches.iter().filter_map(|&b| sweep.cell(b, mechanism)) {
            let r = &cell.report;
            let e = r.energy(ranks, &params);
            total_mj += e.total_mj();
            act_nj += e.activate_nj;
            bg_nj += e.background_nj;
            accesses += r.reads() + r.writes();
            cycles += r.mem_cycles;
            completed += 1;
        }
        if completed == 0 {
            continue;
        }
        rows.push(vec![
            mechanism.name(),
            format!("{total_mj:.3}"),
            format!("{:.1}", (act_nj + bg_nj + 0.0) / accesses.max(1) as f64),
            format!("{:.0}", act_nj * 1e-3),
            format!("{:.0}", bg_nj * 1e-3),
            format!("{cycles}"),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "mechanism",
                "total (mJ)",
                "nJ/access (act+bg)",
                "activate (uJ)",
                "background (uJ)",
                "mem cycles"
            ],
            &rows
        )
    );
    println!(
        "Expected shape: mechanisms with higher row-hit rates issue fewer activates;\n\
         mechanisms that finish sooner pay less background energy — Burst_TH wins both ways."
    );
    ledger.finish()
}
