//! The study table: every table and figure of the paper's evaluation
//! plus the studies beyond it, one [`Study`] entry each.
//!
//! An entry holds only what sets the study apart: its defaults, the flags
//! it reads, its oracle mechanisms and its own rendering. The shared
//! sequence (banner, oracle gate, journal, checkpoint plan, failure
//! ledger) runs once in [`crate::run`]; every supervised grid goes
//! through [`Grid`], so a failing cell is retried, then left out of its
//! aggregate (printed as `n/a` when a whole group is lost), and the run
//! exits nonzero.

use std::num::NonZeroUsize;

use burst_core::Mechanism;
use burst_dram::{AddressMapping, DramConfig, EnergyParams, RowPolicy, TimingParams};
use burst_sim::experiments::{fig1, fig12_mechanisms, fig8_mechanisms, table1, Sweep};
use burst_sim::report::{
    render_fig10, render_fig12, render_fig7, render_fig9, render_outstanding, render_table,
    render_table1,
};
use burst_sim::{export, SimReport, System, SystemConfig};
use burst_workloads::{MixWorkload, OpSource, SpecBenchmark};

use crate::chaos::{render_matrix, run_matrix, run_matrix_where, run_panic_sweep, MatrixConfig};
use crate::flags::Group;
use crate::{banner, Grid};

/// One regenerator: a paper table or figure, or a study beyond the paper.
#[derive(Debug, Clone, Copy)]
pub struct Study {
    /// The command-line id, e.g. `fig10`.
    pub id: &'static str,
    /// The banner heading, e.g. `Figure 10`; `None` prints no banner.
    pub title: Option<&'static str>,
    /// What the study shows; the banner's caption.
    pub caption: &'static str,
    /// The default `--instructions` budget per run.
    pub instructions: u64,
    /// The default `--benchmarks` set.
    pub benchmarks: fn() -> Vec<SpecBenchmark>,
    /// The mechanisms `--oracle` runs in lockstep; `None` for a study
    /// without an oracle gate, which then rejects `--oracle`.
    pub oracle: Option<fn() -> Vec<Mechanism>>,
    /// The flag groups the study reads besides `--help` and `--oracle`.
    pub flags: &'static [Group],
    /// The study's own work and rendering, over the shared context.
    pub run: fn(&mut Grid) -> Result<(), String>,
}

impl Study {
    /// One line naming the study: its title (if any) and caption.
    pub fn describe(&self) -> String {
        match self.title {
            Some(title) => format!("{title}: {}", self.caption),
            None => self.caption.to_string(),
        }
    }

    /// Prints the study's banner, if it has one.
    pub(crate) fn print_banner(&self, opts: &crate::HarnessOptions) {
        if let Some(title) = self.title {
            println!("{}", banner(title, self.caption, opts));
        }
    }
}

/// The flags of every supervised grid.
const GRID: &[Group] = &[
    Group::Budget,
    Group::Engine,
    Group::Benchmarks,
    Group::Grid,
    Group::Recovery,
];

/// [`GRID`] plus `--csv`: the figures and `all`.
const FIGURE: &[Group] = &[
    Group::Budget,
    Group::Engine,
    Group::Benchmarks,
    Group::Grid,
    Group::Recovery,
    Group::Csv,
];

fn all16() -> Vec<SpecBenchmark> {
    SpecBenchmark::all16().to_vec()
}

fn all_paper() -> Vec<Mechanism> {
    Mechanism::all_paper().to_vec()
}

/// The future-work and related-work mechanisms against the static optimum.
/// `ablation --oracle` runs these in lockstep: no paper figure covers the
/// three extensions.
const FUTURE: [Mechanism; 4] = [
    Mechanism::BurstTh(Mechanism::PAPER_THRESHOLD),
    Mechanism::BurstDyn,
    Mechanism::BurstCrit,
    Mechanism::AdaptiveHistory,
];

// The entries keep three lines each, so the table reads as one.
#[rustfmt::skip]
const TABLE1: Study = Study { id: "table1", title: None, run: run_table1,
    caption: "Table 1: possible SDRAM access latencies",
    instructions: 0, benchmarks: all16, oracle: None, flags: &[] };
#[rustfmt::skip]
const FIG1: Study = Study { id: "fig1", title: None, run: run_fig1,
    caption: "Figure 1: scheduling example (2-2-2 device, burst length 4)",
    instructions: 0, benchmarks: all16, oracle: None, flags: &[] };
#[rustfmt::skip]
const FIG7: Study = Study { id: "fig7", title: Some("Figure 7"), run: run_fig7,
    caption: "access latency in memory cycles",
    instructions: 120_000, benchmarks: all16, oracle: Some(all_paper), flags: FIGURE };
#[rustfmt::skip]
const FIG8: Study = Study { id: "fig8", title: Some("Figure 8"), run: run_fig8,
    caption: "outstanding accesses for swim",
    instructions: 150_000, benchmarks: all16, oracle: Some(|| fig8_mechanisms().to_vec()),
    flags: FIGURE };
#[rustfmt::skip]
const FIG9: Study = Study { id: "fig9", title: Some("Figure 9"), run: run_fig9,
    caption: "row states and bus utilisation",
    instructions: 120_000, benchmarks: all16, oracle: Some(all_paper), flags: FIGURE };
#[rustfmt::skip]
const FIG10: Study = Study { id: "fig10", title: Some("Figure 10"), run: run_fig10,
    caption: "normalized execution time",
    instructions: 120_000, benchmarks: all16, oracle: Some(all_paper), flags: FIGURE };
#[rustfmt::skip]
const FIG11: Study = Study { id: "fig11", title: Some("Figure 11"), run: run_fig11,
    caption: "outstanding accesses for swim vs threshold",
    instructions: 150_000, benchmarks: all16, oracle: Some(fig12_mechanisms), flags: FIGURE };
#[rustfmt::skip]
const FIG12: Study = Study { id: "fig12", title: Some("Figure 12"), run: run_fig12,
    caption: "threshold sweep (normalised to plain Burst)",
    instructions: 100_000, benchmarks: all16, oracle: Some(fig12_mechanisms), flags: FIGURE };

/// The studies `all` runs, in order, over one shared context.
const ALL_MEMBERS: [&Study; 8] = [&TABLE1, &FIG1, &FIG7, &FIG9, &FIG10, &FIG8, &FIG11, &FIG12];

/// Every study, in usage-text order.
#[rustfmt::skip]
pub const STUDIES: [Study; 16] = [
    TABLE1, FIG1, FIG7, FIG8, FIG9, FIG10, FIG11, FIG12,
    Study { id: "all", title: None, run: run_all,
        caption: "every table and figure above, in one run",
        instructions: 120_000, benchmarks: all16, oracle: Some(all_paper), flags: FIGURE },
    Study { id: "ablation", title: Some("ablation"), run: run_ablation,
        caption: "design-space studies beyond the paper", instructions: 40_000,
        benchmarks: || { use SpecBenchmark::*; vec![Swim, Gcc, Mcf, Lucas, Art] },
        oracle: Some(|| FUTURE.to_vec()), flags: GRID },
    Study { id: "sensitivity", title: Some("sensitivity"), run: run_sensitivity,
        caption: "TH52 advantage vs machine parameters", instructions: 20_000,
        benchmarks: || { use SpecBenchmark::*; vec![Swim, Gcc, Art, Parser] },
        oracle: None, flags: GRID },
    Study { id: "energy", title: Some("energy"), run: run_energy,
        caption: "DRAM energy per mechanism (extension)", instructions: 40_000,
        benchmarks: || { use SpecBenchmark::*; vec![Gzip, Gcc, Mcf, Parser] },
        oracle: None, flags: GRID },
    Study { id: "profile", title: Some("profile"), run: run_profile,
        caption: "workload traffic calibration",
        instructions: 40_000, benchmarks: all16, oracle: None, flags: GRID },
    Study { id: "section6", title: Some("section6"), run: run_section6,
        caption: "reordering gains across device generations", instructions: 40_000,
        benchmarks: || { use SpecBenchmark::*; vec![Gzip, Gcc, Mcf, Parser, Perlbmk] },
        oracle: None, flags: GRID },
    Study { id: "cmp", title: Some("cmp"), run: run_cmp,
        caption: "reordering gains vs core count (extension)", instructions: 15_000,
        benchmarks: || { use SpecBenchmark::*; vec![Swim, Gcc, Mcf, Art] },
        oracle: None, flags: &[Group::Budget, Group::Engine] },
    Study { id: "chaos", title: Some("chaos"), run: run_chaos,
        caption: "crash-point matrix",
        instructions: 2_000, benchmarks: || vec![SpecBenchmark::Gzip], oracle: None,
        flags: &[Group::Budget, Group::Benchmarks, Group::Recovery] },
];

/// Table 1: possible SDRAM access latencies under the Open Page and Close
/// Page Autoprecharge controller policies.
fn run_table1(_: &mut Grid) -> Result<(), String> {
    println!("=== Table 1: possible SDRAM access latencies (memory cycles)\n");
    for (name, timing) in [
        (
            "DDR2 PC2-6400 (5-5-5), the baseline device",
            TimingParams::ddr2_pc2_6400(),
        ),
        (
            "DDR PC-2100 (2-2-2), Section 6 comparison",
            TimingParams::ddr_pc_2100(),
        ),
    ] {
        println!("{name}:");
        println!("{}", render_table1(&table1(&timing)));
    }
    println!(
        "Paper: OP = tCL / tRCD+tCL / tRP+tRCD+tCL for hit/empty/conflict; CPA only row empty."
    );
    Ok(())
}

/// Figure 1: four accesses on a 2-2-2 burst-length-4 device, in order
/// without interleaving (paper: 28 cycles) versus out of order with
/// interleaving (paper: 16 cycles).
fn run_fig1(_: &mut Grid) -> Result<(), String> {
    println!("=== Figure 1: memory access scheduling example (2-2-2 device, burst length 4)\n");
    let (in_order, out_of_order) = fig1();
    println!("In order, no interleaving (Fig 1a): {in_order} memory cycles (paper: 28)");
    println!("Out of order, interleaved  (Fig 1b): {out_of_order} memory cycles (paper: 16)");
    let speedup = in_order as f64 / out_of_order as f64;
    println!("Speedup from reordering + interleaving: {speedup:.2}x (paper: 1.75x)");
    Ok(())
}

/// Figure 7: average read and write latency per mechanism.
fn run_fig7(g: &mut Grid) -> Result<(), String> {
    let rows = g.main_sweep().fig7_rows();
    println!("{}", render_fig7(&rows));
    g.opts.dump_csv("fig7.csv", &export::fig7_to_csv(&rows));
    println!(
        "Paper shape: out-of-order mechanisms cut read latency 26-47% vs BkInOrder;\n\
         write latency rises for all except RowHit; Burst_RP has the lowest read\n\
         latency; write piggybacking (WP/TH) pulls write latency back down."
    );
    Ok(())
}

/// Figure 8: the distribution of outstanding accesses for swim under six
/// mechanisms.
fn run_fig8(g: &mut Grid) -> Result<(), String> {
    let base = g.base;
    let rows = g
        .sweep("fig8", &base, &[SpecBenchmark::Swim], &fig8_mechanisms())
        .outstanding_rows();
    println!("{}", render_outstanding(&rows));
    g.opts
        .dump_csv("fig8.csv", &export::outstanding_to_csv(&rows));
    println!(
        "Paper shape (swim): Intel and Burst pile writes up (24% / 46% write queue\n\
         saturation); Burst_RP saturates 70% of time; Burst_WP only 2%; Burst_TH52\n\
         lands between at 9%."
    );
    Ok(())
}

/// Figure 9: row hit / conflict / empty rates and bus utilisation.
fn run_fig9(g: &mut Grid) -> Result<(), String> {
    let rows = g.main_sweep().fig9_rows();
    println!("{}", render_fig9(&rows));
    g.opts.dump_csv("fig9.csv", &export::fig9_to_csv(&rows));
    println!(
        "Paper shape: reordering raises row hits; RowHit/Burst_WP/Burst_TH highest\n\
         (they also mine the write queues for hits); RP variants raise row empties;\n\
         address bus varies ~3%, data bus spans 31-42% with Burst_TH on top."
    );
    Ok(())
}

/// Figure 10: execution time normalised to BkInOrder.
fn run_fig10(g: &mut Grid) -> Result<(), String> {
    let sweep = g.main_sweep();
    let (rows, average) = (sweep.fig10_rows(), sweep.fig10_average());
    match render_fig10(&rows, &average) {
        Ok(table) => println!("{table}"),
        Err(e) => eprintln!("warning: {e}"),
    }
    if g.opts.csv.is_some() {
        match export::fig10_to_csv(&rows) {
            Ok(content) => g.opts.dump_csv("fig10.csv", &content),
            Err(e) => eprintln!("warning: {e}"),
        }
    }
    println!(
        "Paper averages: RowHit 0.83, Intel 0.88, Intel_RP 0.85, Burst 0.86,\n\
         Burst_WP 0.81, Burst_TH52 0.79 (21% reduction; 6% over RowHit, 11% over Intel)."
    );
    Ok(())
}

/// Figure 11: outstanding accesses for swim across the threshold sweep.
fn run_fig11(g: &mut Grid) -> Result<(), String> {
    let base = g.base;
    let rows = g
        .sweep("fig11", &base, &[SpecBenchmark::Swim], &fig12_mechanisms())
        .outstanding_rows();
    println!("{}", render_outstanding(&rows));
    g.opts
        .dump_csv("fig11.csv", &export::outstanding_to_csv(&rows));
    println!(
        "Paper shape: the peak outstanding-write count grows with the threshold;\n\
         saturation stays below 7% for thresholds < 48, reaches 14% at 56 and\n\
         jumps to 70% for Burst_RP (= TH64)."
    );
    Ok(())
}

/// Figure 12: read latency, write latency and normalised execution time
/// across the static threshold sweep.
fn run_fig12(g: &mut Grid) -> Result<(), String> {
    let (base, benches) = (g.base, &g.opts.benchmarks);
    let rows = g
        .sweep("fig12", &base, benches, &fig12_mechanisms())
        .fig12_rows();
    println!("{}", render_fig12(&rows));
    g.opts.dump_csv("fig12.csv", &export::fig12_to_csv(&rows));
    if let Some(best) = rows
        .iter()
        .min_by(|a, b| a.normalized_exec.total_cmp(&b.normalized_exec))
    {
        println!(
            "Best point in this run: {} (exec {:.3}).\n\
             Paper: read latency falls then rises past threshold 40 (write-queue\n\
             saturation stalls); write latency grows monotonically; threshold 52 wins.",
            best.mechanism.name(),
            best.normalized_exec
        );
    }
    Ok(())
}

/// The full evaluation: every member study over one context, so Figures
/// 7, 9 and 10 share one main sweep, plus the whole sweep and the salvage
/// account (every completed main-sweep cell and every failure from any
/// grid) as CSVs. With `--journal FILE` every completed cell is fsynced;
/// after a crash, `--resume FILE` restores the completed cells and writes
/// byte-identical CSVs.
fn run_all(g: &mut Grid) -> Result<(), String> {
    for study in ALL_MEMBERS {
        study.print_banner(g.opts);
        (study.run)(g)?;
    }
    // The member figures ran the main sweep, so `failures` is complete.
    let failures = g.ledger.failures().to_vec();
    let sweep = g.main_sweep();
    let (sweep_csv, salvage) = (
        export::sweep_to_csv(sweep),
        export::salvage_to_csv(sweep, &failures),
    );
    g.opts.dump_csv("sweep.csv", &sweep_csv);
    g.opts.dump_csv("salvage.csv", &salvage);
    if let Some(dir) = &g.opts.csv {
        println!("CSV results written to {}", dir.display());
    }
    Ok(())
}

/// The completed reports of `mechanism` in `sweep`, in `benches` order.
fn reports<'a>(
    sweep: &'a Sweep,
    benches: &'a [SpecBenchmark],
    mechanism: Mechanism,
) -> impl Iterator<Item = &'a SimReport> {
    benches
        .iter()
        .filter_map(move |&b| sweep.cell(b, mechanism).map(|c| &c.report))
}

/// Averages the completed cells of one aggregation group; `n/a` when every
/// cell in the group failed.
fn avg_or_na(sweep: &Sweep, benches: &[SpecBenchmark], mechanism: Mechanism) -> String {
    let done: Vec<u64> = reports(sweep, benches, mechanism)
        .map(|r| r.cpu_cycles)
        .collect();
    if done.is_empty() {
        "n/a".to_string()
    } else {
        format!("{}", done.iter().sum::<u64>() / done.len() as u64)
    }
}

/// Design-space studies beyond the paper's figures, one grid per value of
/// the parameter varied:
///
/// 1. Address mapping x scheduling (paper Section 7: "studies of access
///    reordering mechanisms working in conjunction with SDRAM address
///    mapping are ongoing").
/// 2. Row policy: open page vs close-page autoprecharge under BkInOrder.
/// 3. The Section 7 future work and related work vs the static optimum.
fn run_ablation(g: &mut Grid) -> Result<(), String> {
    let benches = &g.opts.benchmarks;
    let base = g.base;

    println!(
        "--- address mapping x mechanism (avg cpu cycles over {} benchmarks)\n",
        benches.len()
    );
    let mappings = [
        AddressMapping::PageInterleaving,
        AddressMapping::CacheLineInterleaving,
        AddressMapping::Permutation,
        AddressMapping::BitReversal,
    ];
    let mechanisms = [Mechanism::BkInOrder, Mechanism::BurstTh(52)];
    let mut rows = Vec::new();
    for mapping in mappings {
        let sweep = g.sweep(
            &format!("ablation-mapping-{mapping:?}"),
            &base.with_mapping(mapping),
            benches,
            &mechanisms,
        );
        let mut row = vec![format!("{mapping:?}")];
        row.extend(mechanisms.map(|m| avg_or_na(&sweep, benches, m)));
        rows.push(row);
    }
    println!(
        "{}",
        render_table(&["mapping", "BkInOrder", "Burst_TH52"], &rows)
    );

    println!("--- row policy (BkInOrder)\n");
    let mut rows = Vec::new();
    for policy in [RowPolicy::OpenPage, RowPolicy::ClosePageAutoprecharge] {
        let mut cfg = base;
        cfg.ctrl.row_policy = policy;
        let sweep = g.sweep(
            &format!("ablation-policy-{policy:?}"),
            &cfg,
            benches,
            &[cfg.mechanism],
        );
        let done: Vec<&SimReport> = reports(&sweep, benches, cfg.mechanism).collect();
        let (cycles, hits) = if done.is_empty() {
            ("n/a".to_string(), "n/a".to_string())
        } else {
            let total: u64 = done.iter().map(|r| r.cpu_cycles).sum();
            let hit_sum: f64 = done.iter().map(|r| r.ctrl.row_hit_rate()).sum();
            (
                format!("{}", total / done.len() as u64),
                format!("{:.1}%", hit_sum / done.len() as f64 * 100.0),
            )
        };
        rows.push(vec![policy.to_string(), cycles, hits]);
    }
    println!(
        "{}",
        render_table(&["policy", "avg cpu cycles", "row hit"], &rows)
    );

    println!("--- future-work & related-work mechanisms\n");
    let sweep = g.sweep("ablation-future", &base, benches, &FUTURE);
    let mut rows = Vec::new();
    for mechanism in FUTURE {
        let mut row = vec![mechanism.name()];
        row.extend(benches.iter().map(|&b| match sweep.cell(b, mechanism) {
            Some(c) => format!("{}", c.report.cpu_cycles),
            None => "n/a".to_string(),
        }));
        rows.push(row);
    }
    let mut headers: Vec<&str> = vec!["mechanism"];
    headers.extend(benches.iter().map(|b| b.name()));
    println!("{}", render_table(&headers, &rows));
    Ok(())
}

/// How robust burst scheduling's advantage is to the machine parameters
/// the paper fixed: the write queue capacity (threshold scaled with it),
/// the LSQ size and the channel count, each point one grid of BkInOrder
/// against Burst_TH.
fn run_sensitivity(g: &mut Grid) -> Result<(), String> {
    let mut rows = Vec::new();
    for cap in [16usize, 32, 64, 128] {
        let th = (cap * 52 / 64) as u32;
        let mut base = g.base;
        base.ctrl.write_capacity = cap;
        let gain = th_gain(g, &format!("sensitivity-wq-{cap}"), &base, th);
        rows.push(vec![format!("{cap} (th {th})"), gain]);
    }
    println!("--- write queue capacity\n");
    println!("{}", render_table(&["capacity", "TH improvement"], &rows));

    let mut rows = Vec::new();
    for lsq in [8usize, 16, 32, 64] {
        let mut base = g.base;
        base.cpu.lsq_size = lsq;
        let gain = th_gain(g, &format!("sensitivity-lsq-{lsq}"), &base, 52);
        rows.push(vec![format!("{lsq}"), gain]);
    }
    println!("--- LSQ size (outstanding-miss limit)\n");
    println!("{}", render_table(&["LSQ", "TH improvement"], &rows));

    let mut rows = Vec::new();
    for channels in [1u8, 2, 4] {
        let mut base = g.base;
        base.dram.geometry.channels = channels;
        let gain = th_gain(g, &format!("sensitivity-ch-{channels}"), &base, 52);
        rows.push(vec![format!("{channels}"), gain]);
    }
    println!("--- channel count\n");
    println!("{}", render_table(&["channels", "TH improvement"], &rows));

    println!(
        "Expected shape: more outstanding misses (bigger LSQ) give reordering more\n\
         to work with; more channels dilute contention and shrink the advantage."
    );
    Ok(())
}

/// One sensitivity point: Burst_TH`th`'s improvement over `base`'s
/// mechanism, or `n/a` when any cell stayed unrecovered (a partial ratio
/// would mislead).
fn th_gain(g: &mut Grid, scope: &str, base: &SystemConfig, th: u32) -> String {
    let benches = &g.opts.benchmarks;
    let th = Mechanism::BurstTh(th);
    let sweep = g.sweep(scope, base, benches, &[base.mechanism, th]);
    let total = |m: Mechanism| -> Option<u64> {
        benches
            .iter()
            .map(|&b| sweep.cell(b, m).map(|c| c.report.cpu_cycles))
            .sum()
    };
    match (total(th), total(base.mechanism)) {
        (Some(th), Some(base)) => format!("{:.1}%", (1.0 - th as f64 / base as f64) * 100.0),
        _ => "n/a".to_string(),
    }
}

/// Estimated DRAM energy per mechanism (Micron IDD model): reordering
/// changes the command mix (row hits avoid activate/precharge pairs) and
/// the run time (faster runs pay less standby power).
fn run_energy(g: &mut Grid) -> Result<(), String> {
    let params = EnergyParams::ddr2_pc2_6400();
    let benches = &g.opts.benchmarks;
    let ranks = 8; // 2 channels x 4 ranks
    let base = g.base;
    let sweep = g.sweep("energy", &base, benches, &Mechanism::all_paper());

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
    Ok(())
}

/// Each benchmark surrogate's memory traffic under the baseline
/// mechanism: a calibration aid, not a paper figure.
fn run_profile(g: &mut Grid) -> Result<(), String> {
    let benches = &g.opts.benchmarks;
    let base = g.base;
    let sweep = g.sweep("profile", &base, benches, &[base.mechanism]);
    let mut rows = Vec::new();
    for &b in benches {
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
    Ok(())
}

/// Section 6's generational argument: from DDR PC-2100 (2-2-2 at 133 MHz)
/// to DDR2 PC2-6400 (5-5-5 at 400 MHz) timing in nanoseconds barely moved,
/// so latency in cycles grew, and with it the headroom for reordering.
/// Measures the Burst_TH52 improvement on each device, summing cycles over
/// the benchmarks where both runs completed.
fn run_section6(g: &mut Grid) -> Result<(), String> {
    let ddr = DramConfig {
        timing: TimingParams::ddr_pc_2100(),
        ..DramConfig::baseline()
    };
    let ddr2 = DramConfig::baseline();
    let ddr3 = DramConfig {
        timing: TimingParams::ddr3_1333(),
        ..DramConfig::baseline()
    };
    let benches = &g.opts.benchmarks;

    let mut rows = Vec::new();
    for (tag, name, dram) in [
        ("DDR-PC-2100", "DDR PC-2100 (2-2-2)", ddr),
        ("DDR2-PC2-6400", "DDR2 PC2-6400 (5-5-5)", ddr2),
        ("DDR3-1333", "DDR3-1333 (9-9-9)", ddr3),
    ] {
        let sweep = g.sweep(
            &format!("section6-{tag}"),
            &g.base.with_dram(dram),
            benches,
            &[Mechanism::BkInOrder, Mechanism::BurstTh(52)],
        );
        let (mut base, mut th) = (0u64, 0u64);
        for &b in benches {
            let cycles = |m| sweep.cell(b, m).map(|c| c.report.cpu_cycles);
            if let (Some(b), Some(t)) =
                (cycles(Mechanism::BkInOrder), cycles(Mechanism::BurstTh(52)))
            {
                base += b;
                th += t;
            }
        }
        let (ratio, gain) = if base > 0 {
            let r = th as f64 / base as f64;
            (format!("{r:.3}"), format!("{:.1}%", (1.0 - r) * 100.0))
        } else {
            ("n/a".to_string(), "n/a".to_string())
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
    Ok(())
}

/// CMP scaling (extension of paper Section 6): the BkInOrder -> Burst_TH52
/// improvement at 1, 2 and 4 cores sharing the baseline memory subsystem,
/// over a fixed total instruction budget. Core `i` runs the entry's
/// benchmark `i` (modulo the set): swim, gcc, mcf, art, a spread of
/// streaming, integer and pointer-chasing behaviour. A failed run (a
/// controller stall, no retirement progress) fails the study.
fn run_cmp(g: &mut Grid) -> Result<(), String> {
    let opts = g.opts;
    let picks = &opts.benchmarks;
    let mut rows = Vec::new();
    for cores in [1, 2, 4].map(|n| NonZeroUsize::new(n).expect("nonzero")) {
        // `min share` shows fairness: the slowest core's fraction of an
        // equal split.
        let run = |mechanism: Mechanism| -> Result<(u64, f64, f64), String> {
            let cfg = g.base.with_mechanism(mechanism);
            let mut sys = System::with_cores(&cfg, cfg.scheduler(), cores);
            let mut w: Vec<MixWorkload> = (0..cores.get())
                .map(|i| picks[i % picks.len()].workload(opts.seed + i as u64))
                .collect();
            let mut w: Vec<&mut dyn OpSource> =
                w.iter_mut().map(|w| w as &mut dyn OpSource).collect();
            sys.warm_cores(&mut w);
            let total = opts.instructions * cores.get() as u64;
            sys.try_run_cores(&mut w, burst_sim::RunLength::Instructions(total))
                .map_err(|e| format!("the {cores}-core CMP run under {mechanism} failed: {e}"))?;
            let r = sys.report("mix");
            let min_share = (0..cores.get())
                .map(|i| sys.core_retired(i) as f64)
                .fold(f64::INFINITY, f64::min)
                / (sys.retired() as f64 / cores.get() as f64);
            Ok((r.mem_cycles, r.ctrl.avg_read_latency(), min_share))
        };
        let (base_cycles, base_lat, base_fair) = run(Mechanism::BkInOrder)?;
        let (th_cycles, th_lat, th_fair) = run(Mechanism::BurstTh(52))?;
        rows.push(vec![
            format!("{cores}"),
            format!("{base_cycles}"),
            format!("{th_cycles}"),
            format!(
                "{:.1}%",
                (1.0 - th_cycles as f64 / base_cycles as f64) * 100.0
            ),
            format!("{base_lat:.0} -> {th_lat:.0}"),
            format!("{:.2} -> {:.2}", base_fair, th_fair),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "cores",
                "BkInOrder cycles",
                "Burst_TH52 cycles",
                "improvement",
                "read latency",
                "min share",
            ],
            &rows
        )
    );
    println!(
        "Throughput view (fixed total instructions). Burst_TH's improvement stays\n\
         positive at every core count, while `min share` exposes the CMP-era cost of\n\
         deferring writes: latency-critical cores (mcf here) starve when the shared\n\
         write queue saturates — precisely the fairness problem later QoS-aware\n\
         schedulers were designed to fix, and a concrete instance of the paper's\n\
         Section 6 observation that CMPs raise the stakes for access reordering."
    );
    Ok(())
}

/// The crash-point matrix (see [`crate::chaos`]), then the supervisor's
/// panic sweep. A scripted `--chaos-site/--chaos-kind/--chaos-op` triple
/// narrows the matrix to that one combination and skips the panic sweep.
fn run_chaos(g: &mut Grid) -> Result<(), String> {
    let opts = g.opts;
    // Injected panics are the point of this study; the supervisor catches
    // every one, so the default hook's backtraces are pure noise. Escaped
    // panics still fail the run via the matrix verdicts.
    std::panic::set_hook(Box::new(|_| {}));
    let mut cfg = MatrixConfig::small(
        opts.checkpoint_dir
            .clone()
            .unwrap_or_else(|| std::env::temp_dir().join("burst-chaos")),
        opts.seed,
    );
    cfg.run = opts.run();
    cfg.benchmarks = opts.benchmarks.clone();
    if opts.checkpoint_every > 0 {
        cfg.checkpoint_every = opts.checkpoint_every;
    }
    let script = match (opts.chaos_site, opts.chaos_kind, opts.chaos_op) {
        (Some(site), Some(kind), Some(op)) => Some((site, kind, op)),
        _ => None,
    };
    let report = match script {
        Some(script) => run_matrix_where(&cfg, |site, kind, op| (site, kind, op) == script),
        None => run_matrix(&cfg),
    };
    print!("{}", render_matrix(&report));
    let mut ok = report.violations().is_empty();
    if script.is_some() && report.results.is_empty() {
        eprintln!(
            "chaos: the scripted combination was never reached \
             (see the op counts above for what the cycle executes)"
        );
        ok = false;
    }
    if script.is_none() {
        match run_panic_sweep(&cfg) {
            Ok(summary) => print!("{summary}"),
            Err(e) => {
                eprintln!("PANIC-SWEEP VIOLATION: {e}");
                ok = false;
            }
        }
    }
    if !ok {
        return Err("chaos: recovery contract violated".into());
    }
    println!("chaos: recovery contract held for every combination");
    Ok(())
}
