//! Ablation studies beyond the paper's figures:
//!
//! 1. Address mapping x scheduling (paper Section 7: "studies of access
//!    reordering mechanisms working in conjunction with SDRAM address
//!    mapping are ongoing") — page interleaving vs permutation vs
//!    bit-reversal under BkInOrder and Burst_TH52.
//! 2. Row policy: open page vs close-page autoprecharge under BkInOrder.
//! 3. Dynamic threshold (Section 7 future work) vs the static optimum.
//!
//! Every grid is one `Sweep::run_supervised` call, scoped by the value of
//! the parameter it varies: a failing cell is retried, then excluded from
//! its aggregate (printed as `n/a` if the whole group is lost) and the
//! binary exits nonzero.

use std::process::ExitCode;

use burst_bench::{banner, FailureLedger, HarnessOptions};
use burst_core::Mechanism;
use burst_dram::{AddressMapping, RowPolicy};
use burst_sim::experiments::Sweep;
use burst_sim::report::render_table;
use burst_sim::{SimReport, SystemConfig};
use burst_workloads::SpecBenchmark;

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

/// The future-work and related-work mechanisms against the static optimum.
/// `--oracle` runs these in lockstep: no paper figure covers the three
/// extensions.
const FUTURE: [Mechanism; 4] = [
    Mechanism::BurstTh(Mechanism::PAPER_THRESHOLD),
    Mechanism::BurstDyn,
    Mechanism::BurstCrit,
    Mechanism::AdaptiveHistory,
];

fn main() -> ExitCode {
    let opts = HarnessOptions::from_args(40_000);
    println!(
        "{}",
        banner("ablation", "design-space studies beyond the paper", &opts)
    );
    if let Some(code) = opts.oracle_gate(&FUTURE) {
        return code;
    }
    let benches: Vec<SpecBenchmark> = if opts.benchmarks.len() > 6 {
        vec![
            SpecBenchmark::Swim,
            SpecBenchmark::Gcc,
            SpecBenchmark::Mcf,
            SpecBenchmark::Lucas,
            SpecBenchmark::Art,
        ]
    } else {
        opts.benchmarks.clone()
    };
    let base = opts.system_config();
    let sup = opts.supervisor_config();
    let journal = opts.open_journal();
    let ckpt = opts.checkpoint_plan();
    let grid = |scope: &str, base: &SystemConfig, mechanisms: &[Mechanism]| {
        Sweep::run_supervised(
            scope,
            base,
            &benches,
            mechanisms,
            opts.run,
            opts.seed,
            opts.jobs,
            &sup,
            journal.as_ref(),
            ckpt.as_ref(),
        )
    };
    let mut ledger = FailureLedger::new();

    // 1. Address mapping x mechanism: one grid per mapping.
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
        let sweep = ledger.absorb(grid(
            &format!("ablation-mapping-{mapping:?}"),
            &base.with_mapping(mapping),
            &mechanisms,
        ));
        let mut row = vec![format!("{mapping:?}")];
        row.extend(mechanisms.map(|m| avg_or_na(&sweep, &benches, m)));
        rows.push(row);
    }
    println!(
        "{}",
        render_table(&["mapping", "BkInOrder", "Burst_TH52"], &rows)
    );

    // 2. Row policy under the baseline mechanism.
    println!("--- row policy (BkInOrder)\n");
    let mut rows = Vec::new();
    for policy in [RowPolicy::OpenPage, RowPolicy::ClosePageAutoprecharge] {
        let mut cfg = base;
        cfg.ctrl.row_policy = policy;
        let sweep = ledger.absorb(grid(
            &format!("ablation-policy-{policy:?}"),
            &cfg,
            &[cfg.mechanism],
        ));
        let done: Vec<&SimReport> = reports(&sweep, &benches, cfg.mechanism).collect();
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

    // 3. Section 7 future work and related work vs the static optimum.
    println!("--- future-work & related-work mechanisms\n");
    let sweep = ledger.absorb(grid("ablation-future", &base, &FUTURE));
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
    let names: Vec<String> = benches.iter().map(|b| b.name().to_string()).collect();
    headers.extend(names.iter().map(String::as_str));
    println!("{}", render_table(&headers, &rows));
    ledger.finish()
}
