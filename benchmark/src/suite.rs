//! The benchmark's workloads and their untraced path, which goes through
//! the library's public entry points exactly as a user's run does.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use burst_core::Mechanism;
use burst_sim::export::reports_to_csv;
use burst_sim::{
    map_parallel, try_simulate, try_simulate_checkpointed, CheckpointPolicy, Engine, RunLength,
    SimReport, System, SystemConfig,
};
use burst_snap::fnv1a64;
use burst_workloads::SpecBenchmark;

/// The eight mechanisms of the paper's Table 4, in figure order.
pub const PAPER_MECHANISMS: [Mechanism; 8] = [
    Mechanism::BkInOrder,
    Mechanism::RowHit,
    Mechanism::Intel,
    Mechanism::IntelRp,
    Mechanism::Burst,
    Mechanism::BurstRp,
    Mechanism::BurstWp,
    Mechanism::BurstTh(52),
];

const TH52: [Mechanism; 1] = [Mechanism::BurstTh(52)];

/// One set of inputs the benchmark runs: a grid of (benchmark, mechanism)
/// cells, each simulated for the same instruction budget.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload is in the benchmark (also in `BENCHMARK.json`).
    pub why: &'static str,
    pub benchmarks: &'static [SpecBenchmark],
    pub mechanisms: &'static [Mechanism],
    pub instructions: u64,
    /// Memory cycles between durable checkpoints, or `None` for plain runs.
    pub checkpoint_every: Option<u64>,
    /// FNV-1a of the trial's `reports_to_csv` output at seed 42.
    pub digest_seed42: u64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "swim_th52",
        why: "streaming writebacks under Burst_TH52: event-dense, so the per-step cost of the scheduler tick dominates",
        benchmarks: &[SpecBenchmark::Swim],
        mechanisms: &TH52,
        instructions: 500_000,
        checkpoint_every: None,
        digest_seed42: 0xf6d3_15c1_f49b_6763,
    },
    Workload {
        name: "mcf_th52",
        why: "read-dominated pointer chase: long stalls, so the event engine's jumps and the CPU stall path dominate",
        benchmarks: &[SpecBenchmark::Mcf],
        mechanisms: &TH52,
        instructions: 750_000,
        checkpoint_every: None,
        digest_seed42: 0x2204_4b88_6073_bdb4,
    },
    Workload {
        name: "fig_sweep",
        why: "the paper-figure use: 4 benchmarks x 8 mechanisms of 120k instructions, the only workload running Intel, RowHit and BkInOrder",
        benchmarks: &[
            SpecBenchmark::Swim,
            SpecBenchmark::Gcc,
            SpecBenchmark::Art,
            SpecBenchmark::Parser,
        ],
        mechanisms: &PAPER_MECHANISMS,
        instructions: 120_000,
        checkpoint_every: None,
        digest_seed42: 0x3fcf_c4b9_e2c1_948c,
    },
    Workload {
        name: "swim_th52_ckpt",
        why: "swim_th52's simulation at 250k instructions with a durable checkpoint every 10k memory cycles: the persistence layer",
        benchmarks: &[SpecBenchmark::Swim],
        mechanisms: &TH52,
        instructions: 250_000,
        checkpoint_every: Some(10_000),
        digest_seed42: 0x66ab_d32a_b220_0a88,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Host time of one untraced pass over a workload's cells.
#[derive(Debug)]
pub struct Trial {
    /// Host seconds for the whole pass.
    pub secs: f64,
    /// Host seconds per cell, in cell order.
    pub cell_secs: Vec<f64>,
}

/// Each cell's report, or the error its simulation returned.
pub type Reports = Vec<Result<SimReport, String>>;

impl Workload {
    pub fn cells(&self) -> Vec<(SpecBenchmark, Mechanism)> {
        self.benchmarks
            .iter()
            .flat_map(|&b| self.mechanisms.iter().map(move |&m| (b, m)))
            .collect()
    }

    pub fn run_length(&self) -> RunLength {
        RunLength::Instructions(self.instructions)
    }

    /// The configuration of one cell: the paper's baseline machine.
    pub fn config(&self, mechanism: Mechanism) -> SystemConfig {
        SystemConfig::baseline().with_mechanism(mechanism)
    }

    /// Where a cell keeps its checkpoint file, under `dir`.
    pub fn checkpoint_path(&self, dir: &Path, b: SpecBenchmark, m: Mechanism) -> PathBuf {
        dir.join(format!("{}-{}-{}.ckpt", self.name, b.name(), m.name()))
    }

    /// The checkpoint fingerprint: binds files to this workload and seed.
    pub fn fingerprint(&self, seed: u64) -> u64 {
        fnv1a64(format!("benchmark/{}/{seed}", self.name).as_bytes())
    }

    /// Simulates one cell through the entry point a user calls:
    /// `try_simulate`, or `try_simulate_checkpointed` for a workload with a
    /// checkpoint cadence.
    pub fn run_cell(
        &self,
        b: SpecBenchmark,
        m: Mechanism,
        seed: u64,
        dir: &Path,
    ) -> Result<SimReport, String> {
        let cfg = self.config(m);
        match self.checkpoint_every {
            None => {
                try_simulate(&cfg, b.workload(seed), self.run_length()).map_err(|e| e.to_string())
            }
            Some(every) => {
                let path = self.checkpoint_path(dir, b, m);
                let policy = CheckpointPolicy::new(every, path, self.fingerprint(seed));
                try_simulate_checkpointed(&cfg, || b.workload(seed), self.run_length(), &policy)
                    .map_err(|e| e.to_string())
            }
        }
    }

    /// Runs every cell once, serially through the sweep executor.
    pub fn run_trial(&self, seed: u64, dir: &Path) -> (Trial, Reports) {
        let start = Instant::now();
        let results = map_parallel(&self.cells(), 1, |_, &(b, m)| {
            let t = Instant::now();
            let r = self.run_cell(b, m, seed, dir);
            (r, t.elapsed().as_secs_f64())
        });
        let secs = start.elapsed().as_secs_f64();
        let (reports, cell_secs) = results.into_iter().unzip();
        (Trial { secs, cell_secs }, reports)
    }

    /// Host seconds of each cell's set-up — workload construction,
    /// `System::new` and `System::warm` — timed on their own.
    pub fn setup_secs(&self, seed: u64) -> Vec<f64> {
        self.cells()
            .into_iter()
            .map(|(b, m)| {
                let t = Instant::now();
                let mut w = b.workload(seed);
                let mut sys = System::new(&self.config(m));
                sys.warm(&mut w);
                black_box(&sys);
                t.elapsed().as_secs_f64()
            })
            .collect()
    }

    /// The reference for a single-cell workload: the same cell on the plain
    /// per-cycle engine (`Engine::CycleNoSkip`), without checkpoints.
    pub fn reference_report(&self, seed: u64) -> Option<Result<SimReport, String>> {
        let [(b, m)] = self.cells()[..] else {
            return None;
        };
        let cfg = self.config(m).with_engine(Engine::CycleNoSkip);
        Some(try_simulate(&cfg, b.workload(seed), self.run_length()).map_err(|e| e.to_string()))
    }
}

/// FNV-1a digest of a trial's reports as the figure CSVs write them.
pub fn csv_digest(reports: &[SimReport]) -> u64 {
    fnv1a64(reports_to_csv(reports).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig_sweep_is_fig10s_grid() {
        let w = workload("fig_sweep").unwrap();
        assert_eq!(w.cells().len(), 32);
        let mut fig10 = vec![Mechanism::BkInOrder];
        fig10.extend(burst_sim::experiments::fig10_mechanisms());
        assert_eq!(w.mechanisms, &fig10[..]);
        assert_eq!(&PAPER_MECHANISMS, &Mechanism::all_paper());
    }

    #[test]
    fn workload_lookup() {
        assert_eq!(workload("mcf_th52").map(|w| w.instructions), Some(750_000));
        assert!(workload("nope").is_none());
    }
}
