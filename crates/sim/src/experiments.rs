//! The paper's evaluation (Section 5) as data: Table 1 and Figure 1
//! computed directly, and every other figure as one benchmark x mechanism
//! [`Sweep`] read by one row method ([`Sweep::fig7_rows`],
//! [`Sweep::outstanding_rows`], [`Sweep::fig9_rows`],
//! [`Sweep::fig10_rows`], [`Sweep::fig12_rows`]). The [`crate::report`]
//! module renders the rows as the text tables the bench harness prints.

use std::path::PathBuf;
use std::sync::Arc;

use burst_core::Mechanism;
use burst_dram::{Command, Cycle, Dir, DramConfig, Loc, RowPolicy, RowState, TimingParams};
use burst_workloads::SpecBenchmark;

use crate::checkpoint::{try_simulate_checkpointed, CheckpointPolicy, CheckpointedRunError};
use crate::simio::{real_io, SimIo};
use crate::supervisor::{supervise_with, CellError, CellOutcome, FailureKind, SupervisorConfig};
use crate::{simulate, try_simulate, Journal, RunLength, SimReport, SystemConfig};

/// Per-sweep checkpoint plan: where each cell writes its mid-run
/// checkpoint and how often. Threaded from the harness `--checkpoint-every`
/// / `--checkpoint-dir` flags down to every supervised cell.
#[derive(Debug, Clone)]
pub struct CheckpointPlan {
    /// Memory cycles between checkpoints; 0 disables checkpointing.
    pub every: u64,
    /// Directory holding one `<scope>-<benchmark>-<mechanism>.ckpt` file
    /// per in-flight cell.
    pub dir: PathBuf,
    /// Cell fingerprint the files are bound to — use the same fingerprint
    /// as the sweep's journal so both resume machineries agree on what
    /// configuration the state belongs to.
    pub fingerprint: u64,
    /// Whether checkpoint writes fsync before their atomic rename (see
    /// [`CheckpointPolicy::durable`]); threaded from the harness
    /// `--checkpoint-durable` flag, default `true`.
    pub durable: bool,
    /// The filesystem checkpoint I/O runs through —
    /// [`crate::simio::real_io`] in production, a
    /// [`crate::simio::ChaosIo`] under the crash-point matrix.
    pub io: Arc<dyn SimIo>,
}

impl CheckpointPlan {
    /// A production plan (real filesystem, durable writes).
    pub fn new(every: u64, dir: PathBuf, fingerprint: u64) -> CheckpointPlan {
        CheckpointPlan {
            every,
            dir,
            fingerprint,
            durable: true,
            io: real_io(),
        }
    }

    /// The checkpoint file for one cell (journal key with `/` flattened
    /// to `-`, plus the `.ckpt` suffix the repository gitignores).
    pub fn cell_path(
        &self,
        scope: &str,
        benchmark: SpecBenchmark,
        mechanism: Mechanism,
    ) -> PathBuf {
        self.dir.join(format!(
            "{}.ckpt",
            cell_key(scope, benchmark, mechanism).replace('/', "-")
        ))
    }

    /// Deletes orphaned `*.ckpt.tmp` scratch files in the plan's
    /// directory — the debris of writes that crashed between `File::create`
    /// and the atomic rename. Returns how many were removed. Best-effort:
    /// an unreadable directory (not yet created, permissions) removes
    /// nothing; live checkpoints are never touched.
    pub fn gc_orphans(&self) -> usize {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return 0;
        };
        let mut removed = 0;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let is_orphan = name.to_str().is_some_and(|n| n.ends_with(".ckpt.tmp"));
            if is_orphan && std::fs::remove_file(entry.path()).is_ok() {
                removed += 1;
            }
        }
        removed
    }
}

/// Default instruction budget per run for harness experiments. The paper
/// simulates 2 billion instructions; this default preserves the shape at
/// laptop scale. Raise it via the drivers' `len` parameter for longer runs.
pub const DEFAULT_RUN: RunLength = RunLength::Instructions(120_000);

/// The six mechanisms Figure 8 plots.
pub fn fig8_mechanisms() -> [Mechanism; 6] {
    [
        Mechanism::BkInOrder,
        Mechanism::RowHit,
        Mechanism::Intel,
        Mechanism::BurstRp,
        Mechanism::BurstWp,
        Mechanism::BurstTh(Mechanism::PAPER_THRESHOLD),
    ]
}

/// The seven mechanisms Figure 10 plots (all except the BkInOrder
/// normalisation baseline).
pub fn fig10_mechanisms() -> [Mechanism; 7] {
    [
        Mechanism::RowHit,
        Mechanism::Intel,
        Mechanism::IntelRp,
        Mechanism::Burst,
        Mechanism::BurstRp,
        Mechanism::BurstWp,
        Mechanism::BurstTh(Mechanism::PAPER_THRESHOLD),
    ]
}

/// The threshold sweep of Figures 11 and 12: `Burst`, `WP` (= TH0),
/// TH8..TH60, `RP` (= TH64).
pub fn fig12_mechanisms() -> Vec<Mechanism> {
    let mut v = vec![Mechanism::Burst, Mechanism::BurstWp];
    for t in [8, 16, 24, 32, 40, 48, 52, 56, 60] {
        v.push(Mechanism::BurstTh(t));
    }
    v.push(Mechanism::BurstRp);
    v
}

/// One simulated (benchmark, mechanism) cell.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Benchmark simulated.
    pub benchmark: SpecBenchmark,
    /// Mechanism simulated.
    pub mechanism: Mechanism,
    /// Full report.
    pub report: SimReport,
}

/// A benchmark x mechanism sweep — the data behind every figure from 7
/// to 12, each read by its own row method.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// All simulated cells.
    pub cells: Vec<SweepCell>,
}

impl Sweep {
    /// The unsupervised reference runner: `benchmarks` x `mechanisms` on
    /// `base` (each cell overrides only the mechanism), each for `len` at
    /// `seed`, with no panic isolation, retries, journal or checkpoints.
    /// Every harness grid runs through [`Sweep::run_supervised`]; this
    /// plain path exists so tests and the chaos matrix have an independent
    /// result to compare the production path against.
    ///
    /// `jobs` is the worker-thread count: `0` auto-detects, `1` runs
    /// serially inline. Cell order, and every cell's report, is identical
    /// for any job count: each cell is an independent seeded simulation and
    /// [`crate::map_parallel`] returns results in input order.
    ///
    /// # Panics
    ///
    /// Panics if a cell's simulation fails (see [`crate::simulate`]).
    pub fn run(
        base: &SystemConfig,
        benchmarks: &[SpecBenchmark],
        mechanisms: &[Mechanism],
        len: RunLength,
        seed: u64,
        jobs: usize,
    ) -> Sweep {
        let grid = grid_of(benchmarks, mechanisms);
        let cells = crate::map_parallel(&grid, jobs, |_, &(b, m)| {
            let cfg = base.with_mechanism(m);
            let report = simulate(&cfg, b.workload(seed), len);
            SweepCell {
                benchmark: b,
                mechanism: m,
                report,
            }
        });
        Sweep { cells }
    }

    /// The grid runner every harness binary uses: `benchmarks` x
    /// `mechanisms` on `base` like [`Sweep::run`], but crash-isolated. Every
    /// cell runs under [`crate::supervise`] with per-cell deadlines, bounded
    /// retries and (optionally) journalled resume. A panicking, stalling or wedged
    /// cell becomes a [`CellFailure`] record instead of tearing down the
    /// sweep; the returned [`Sweep`] holds every cell that *did* complete,
    /// still in grid order, so figure extraction degrades gracefully.
    ///
    /// `scope` namespaces journal keys (`scope/benchmark/mechanism`) so one
    /// journal file can serve several grids in the same harness run. When a
    /// `journal` is supplied, cells already recorded in it are restored
    /// without re-simulation (counted in [`Supervised::resumed`]) and every
    /// newly completed cell is appended and fsynced *before* the sweep
    /// moves on — a `SIGKILL` loses at most the cells in flight.
    ///
    /// When a [`CheckpointPlan`] is supplied too, even the cells in flight
    /// survive: each one periodically writes a fingerprint-bound
    /// checkpoint, a killed run resumes the cell mid-flight from it, the
    /// journal records which checkpoint file each completed cell used, and
    /// stale checkpoints of journalled cells are deleted on resume.
    #[allow(
        clippy::too_many_arguments,
        reason = "one parameter per sweep axis and persistence knob"
    )]
    pub fn run_supervised(
        scope: &str,
        base: &SystemConfig,
        benchmarks: &[SpecBenchmark],
        mechanisms: &[Mechanism],
        len: RunLength,
        seed: u64,
        jobs: usize,
        sup: &SupervisorConfig,
        journal: Option<&Journal>,
        ckpt: Option<&CheckpointPlan>,
    ) -> Supervised {
        let grid = grid_of(benchmarks, mechanisms);
        let ckpt = ckpt.filter(|p| p.every > 0);
        if let Some(plan) = ckpt {
            // Scratch files from writes that crashed mid-protocol are
            // orphans: no resume path will ever read them.
            plan.gc_orphans();
        }
        let mut slots: Vec<Option<SweepCell>> = vec![None; grid.len()];
        let mut resumed = 0usize;
        let mut pending: Vec<(usize, (SpecBenchmark, Mechanism))> = Vec::new();
        let mut failures_by_idx: Vec<(usize, CellFailure)> = Vec::new();
        for (i, &(b, m)) in grid.iter().enumerate() {
            let key = cell_key(scope, b, m);
            if let Some(entry) = journal.and_then(|j| j.lookup(&key)) {
                // The cell is complete, so any checkpoint it left
                // behind — its own recorded path or the one this
                // plan would use — is stale; collect both.
                if let Some(p) = &entry.checkpoint {
                    let _ = std::fs::remove_file(p);
                }
                if let Some(plan) = ckpt {
                    let _ = std::fs::remove_file(plan.cell_path(scope, b, m));
                }
                slots[i] = Some(SweepCell {
                    benchmark: b,
                    mechanism: m,
                    report: entry.report.clone(),
                });
                resumed += 1;
            } else if let Some(q) = journal.and_then(|j| j.lookup_quarantine(&key)) {
                // The cell exhausted its retries in an earlier run: skip
                // it (graceful degradation — no re-burning the budget),
                // surface the recorded failure, and GC the checkpoint it
                // will never resume from.
                if let Some(plan) = ckpt {
                    let _ = std::fs::remove_file(plan.cell_path(scope, b, m));
                }
                failures_by_idx.push((
                    i,
                    CellFailure {
                        scope: scope.to_string(),
                        benchmark: b,
                        mechanism: m,
                        kind: q.kind,
                        attempts: q.attempts,
                        payload: q.payload.clone(),
                        quarantined: true,
                    },
                ));
            } else {
                pending.push((i, (b, m)));
            }
        }
        let items: Vec<(SpecBenchmark, Mechanism)> = pending.iter().map(|&(_, p)| p).collect();
        let base_cfg = *base;
        let run_plan = ckpt.cloned();
        let run_scope = scope.to_string();
        let outcomes = supervise_with(
            &items,
            jobs,
            sup,
            move |_, &(b, m), _attempt| {
                let cfg = base_cfg.with_mechanism(m);
                cfg.validate()
                    .map_err(|e| CellError::other(format!("invalid configuration: {e}")))?;
                match &run_plan {
                    Some(plan) => {
                        let policy = CheckpointPolicy {
                            every: plan.every,
                            path: plan.cell_path(&run_scope, b, m),
                            fingerprint: plan.fingerprint,
                            durable: plan.durable,
                            io: Arc::clone(&plan.io),
                        };
                        try_simulate_checkpointed(&cfg, || b.workload(seed), len, &policy).map_err(
                            |e| match e {
                                CheckpointedRunError::Run(e) => CellError::from(e),
                                CheckpointedRunError::Checkpoint(e) => {
                                    CellError::other(format!("checkpoint failure: {e}"))
                                }
                            },
                        )
                    }
                    None => try_simulate(&cfg, b.workload(seed), len).map_err(CellError::from),
                }
            },
            |i, outcome| {
                let Some(j) = journal else { return };
                let (b, m) = items[i];
                let key = cell_key(scope, b, m);
                match outcome {
                    CellOutcome::Done { value, attempts } => {
                        let path = ckpt.map(|plan| plan.cell_path(scope, b, m));
                        if let Err(e) =
                            j.record_with_checkpoint(&key, *attempts, value, path.as_deref())
                        {
                            // A broken journal must not fail the sweep: the
                            // results are still in memory; only resumability
                            // of this cell is lost.
                            eprintln!("warning: journal write failed for {key}: {e}");
                        }
                    }
                    CellOutcome::Failed {
                        kind,
                        attempts,
                        payload,
                    } => {
                        // Retries exhausted: quarantine the cell so the
                        // next resume skips it instead of burning the
                        // whole budget again on a deterministic failure.
                        if let Err(e) = j.record_quarantine(&key, *kind, *attempts, payload) {
                            eprintln!("warning: quarantine write failed for {key}: {e}");
                        }
                    }
                }
            },
        );
        let newly_quarantined = journal.is_some();
        for ((slot_idx, (b, m)), outcome) in pending.into_iter().zip(outcomes) {
            match outcome {
                CellOutcome::Done { value, .. } => {
                    slots[slot_idx] = Some(SweepCell {
                        benchmark: b,
                        mechanism: m,
                        report: value,
                    });
                }
                CellOutcome::Failed {
                    kind,
                    attempts,
                    payload,
                } => failures_by_idx.push((
                    slot_idx,
                    CellFailure {
                        scope: scope.to_string(),
                        benchmark: b,
                        mechanism: m,
                        kind,
                        attempts,
                        payload,
                        quarantined: newly_quarantined,
                    },
                )),
            }
        }
        failures_by_idx.sort_by_key(|&(i, _)| i);
        let failures = failures_by_idx.into_iter().map(|(_, f)| f).collect();
        Supervised {
            value: Sweep {
                cells: slots.into_iter().flatten().collect(),
            },
            failures,
            resumed,
        }
    }

    /// The cell for `(benchmark, mechanism)`, if simulated.
    pub fn cell(&self, benchmark: SpecBenchmark, mechanism: Mechanism) -> Option<&SweepCell> {
        self.cells
            .iter()
            .find(|c| c.benchmark == benchmark && c.mechanism == mechanism)
    }

    /// Mechanisms present, in first-seen order.
    pub fn mechanisms(&self) -> Vec<Mechanism> {
        let mut out = Vec::new();
        for c in &self.cells {
            if !out.contains(&c.mechanism) {
                out.push(c.mechanism);
            }
        }
        out
    }

    /// Benchmarks present, in first-seen order.
    pub fn benchmarks(&self) -> Vec<SpecBenchmark> {
        let mut out = Vec::new();
        for c in &self.cells {
            if !out.contains(&c.benchmark) {
                out.push(c.benchmark);
            }
        }
        out
    }

    /// Figure 7: average read and write latency (memory cycles) per
    /// mechanism, averaged over benchmarks.
    pub fn fig7_rows(&self) -> Vec<Fig7Row> {
        self.mechanisms()
            .into_iter()
            .map(|m| {
                let cells: Vec<&SweepCell> =
                    self.cells.iter().filter(|c| c.mechanism == m).collect();
                let n = cells.len() as f64;
                Fig7Row {
                    mechanism: m,
                    read_latency: cells
                        .iter()
                        .map(|c| c.report.ctrl.avg_read_latency())
                        .sum::<f64>()
                        / n,
                    write_latency: cells
                        .iter()
                        .map(|c| c.report.ctrl.avg_write_latency())
                        .sum::<f64>()
                        / n,
                }
            })
            .collect()
    }

    /// Figure 9: row-state mix and bus utilisation per mechanism, averaged
    /// over benchmarks.
    pub fn fig9_rows(&self) -> Vec<Fig9Row> {
        self.mechanisms()
            .into_iter()
            .map(|m| {
                let cells: Vec<&SweepCell> =
                    self.cells.iter().filter(|c| c.mechanism == m).collect();
                let n = cells.len() as f64;
                let avg = |f: &dyn Fn(&SweepCell) -> f64| -> f64 {
                    cells.iter().map(|c| f(c)).sum::<f64>() / n
                };
                Fig9Row {
                    mechanism: m,
                    row_hit: avg(&|c| c.report.ctrl.row_hit_rate()),
                    row_conflict: avg(&|c| c.report.ctrl.row_conflict_rate()),
                    row_empty: avg(&|c| c.report.ctrl.row_empty_rate()),
                    addr_bus: avg(&|c| c.report.addr_bus_utilization()),
                    data_bus: avg(&|c| c.report.data_bus_utilization()),
                }
            })
            .collect()
    }

    /// Figure 10: execution time per benchmark per mechanism, normalised to
    /// `BkInOrder`.
    ///
    /// Tolerates an incomplete sweep (supervised runs can lose cells): a
    /// benchmark whose `BkInOrder` baseline is missing is dropped entirely,
    /// and a missing `(benchmark, mechanism)` cell is simply absent from
    /// that row's `normalized` pairs.
    pub fn fig10_rows(&self) -> Vec<Fig10Row> {
        self.benchmarks()
            .into_iter()
            .filter_map(|b| {
                let base = self.cell(b, Mechanism::BkInOrder)?.report.cpu_cycles as f64;
                let normalized = self
                    .mechanisms()
                    .into_iter()
                    .filter(|&m| m != Mechanism::BkInOrder)
                    .filter_map(|m| {
                        self.cell(b, m)
                            .map(|cell| (m, cell.report.cpu_cycles as f64 / base))
                    })
                    .collect();
                Some(Fig10Row {
                    benchmark: b,
                    normalized,
                })
            })
            .collect()
    }

    /// Geometric-mean normalised execution time per mechanism (the
    /// "average" group of Figure 10), over the rows that hold the
    /// mechanism. A mechanism no row holds has no average.
    pub fn fig10_average(&self) -> Vec<(Mechanism, f64)> {
        let rows = self.fig10_rows();
        self.mechanisms()
            .into_iter()
            .filter_map(|m| {
                let logs: Vec<f64> = rows.iter().filter_map(|r| r.get(m)).map(f64::ln).collect();
                (!logs.is_empty())
                    .then(|| (m, (logs.iter().sum::<f64>() / logs.len() as f64).exp()))
            })
            .collect()
    }

    /// Figures 8 and 11: the outstanding-access distributions, one row
    /// per cell in grid order (the harness runs these grids on one
    /// benchmark). Everything they plot lives in the controller stats, so
    /// rows rebuild equally from journalled reports on resume.
    pub fn outstanding_rows(&self) -> Vec<OutstandingRow> {
        self.cells
            .iter()
            .map(|c| OutstandingRow {
                mechanism: c.mechanism,
                reads: c.report.ctrl.outstanding_reads.fractions(),
                writes: c.report.ctrl.outstanding_writes.fractions(),
                saturation: c.report.ctrl.write_saturation_rate(),
                mean_reads: c.report.ctrl.outstanding_reads.mean(),
                mean_writes: c.report.ctrl.outstanding_writes.mean(),
            })
            .collect()
    }

    /// Figure 12: the threshold sweep's latencies averaged over benchmarks
    /// and its execution time summed over them, normalised to plain
    /// `Burst`. Rows follow the threshold axis ([`fig12_mechanisms`]),
    /// then any other mechanism in first-seen order. Tolerates an
    /// incomplete sweep: a mechanism with no surviving cell has no row;
    /// each execution-time ratio sums both sides over the benchmarks that
    /// hold both the mechanism's and `Burst`'s cell, in cell order, so a
    /// lost cell never compares different benchmark sets; and with no such
    /// benchmark the ratio is `NaN` rather than a panic, so salvage output
    /// still renders.
    pub fn fig12_rows(&self) -> Vec<Fig12Row> {
        let has = |b: SpecBenchmark, m: Mechanism| {
            self.cells
                .iter()
                .any(|c| c.benchmark == b && c.mechanism == m)
        };
        let axis = fig12_mechanisms();
        let mut points = self.mechanisms();
        points.sort_by_key(|m| axis.iter().position(|a| a == m).unwrap_or(axis.len()));
        points
            .into_iter()
            .map(|m| {
                let cells: Vec<&SweepCell> =
                    self.cells.iter().filter(|c| c.mechanism == m).collect();
                let n = cells.len() as f64;
                let exec: f64 = cells
                    .iter()
                    .filter(|c| has(c.benchmark, Mechanism::Burst))
                    .map(|c| c.report.cpu_cycles as f64)
                    .sum();
                let base: f64 = self
                    .cells
                    .iter()
                    .filter(|c| c.mechanism == Mechanism::Burst && has(c.benchmark, m))
                    .map(|c| c.report.cpu_cycles as f64)
                    .sum();
                Fig12Row {
                    mechanism: m,
                    read_latency: cells
                        .iter()
                        .map(|c| c.report.ctrl.avg_read_latency())
                        .sum::<f64>()
                        / n,
                    write_latency: cells
                        .iter()
                        .map(|c| c.report.ctrl.avg_write_latency())
                        .sum::<f64>()
                        / n,
                    normalized_exec: if base > 0.0 { exec / base } else { f64::NAN },
                }
            })
            .collect()
    }
}

/// The cells of a `benchmarks` x `mechanisms` grid, benchmark-major.
fn grid_of(
    benchmarks: &[SpecBenchmark],
    mechanisms: &[Mechanism],
) -> Vec<(SpecBenchmark, Mechanism)> {
    benchmarks
        .iter()
        .flat_map(|&b| mechanisms.iter().map(move |&m| (b, m)))
        .collect()
}

/// The journal key for one `(scope, benchmark, mechanism)` cell —
/// `scope/benchmark/mechanism`, e.g. `sweep/swim/Burst_TH52`. Mechanism
/// names round-trip through [`Mechanism::from_name`], so the key is both
/// human-greppable and machine-parseable.
pub fn cell_key(scope: &str, benchmark: SpecBenchmark, mechanism: Mechanism) -> String {
    format!("{scope}/{}/{}", benchmark.name(), mechanism.name())
}

/// One unrecovered cell of a supervised experiment, for the failure
/// taxonomy summary.
#[derive(Debug, Clone)]
pub struct CellFailure {
    /// Which grid the cell belonged to: `sweep`, `fig8`, `fig11` and
    /// `fig12` for the paper's figures; `energy` and `profile`; and, for
    /// the studies that vary a parameter, one scope per value, such as
    /// `ablation-mapping-Permutation`, `ablation-policy-OpenPage`,
    /// `ablation-future`, `sensitivity-wq-16`, `sensitivity-lsq-8`,
    /// `sensitivity-ch-1` and `section6-DDR3-1333`.
    pub scope: String,
    /// Benchmark of the failed cell.
    pub benchmark: SpecBenchmark,
    /// Mechanism of the failed cell.
    pub mechanism: Mechanism,
    /// Taxonomy bucket of the final failure.
    pub kind: FailureKind,
    /// Attempts consumed (including retries).
    pub attempts: u32,
    /// Diagnostic of the final failure.
    pub payload: String,
    /// Whether the cell is quarantined in the sweep's journal: resumes
    /// skip it (surfacing this record) instead of retrying. `false` for
    /// unjournalled sweeps, whose failures are retried on every run.
    pub quarantined: bool,
}

impl CellFailure {
    /// The failed cell's journal key (`scope/benchmark/mechanism`).
    pub fn key(&self) -> String {
        cell_key(&self.scope, self.benchmark, self.mechanism)
    }
}

/// A supervised sweep: the cells that completed plus the failure records
/// and resume statistics the harness reports.
#[derive(Debug, Clone)]
pub struct Supervised {
    /// The (possibly partial) sweep.
    pub value: Sweep,
    /// Every unrecovered cell, in grid order.
    pub failures: Vec<CellFailure>,
    /// Cells restored from the journal instead of re-simulated.
    pub resumed: usize,
}

impl Supervised {
    /// Whether every cell completed (possibly after retries).
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// One Figure 7 row.
#[derive(Debug, Clone, Copy)]
pub struct Fig7Row {
    /// Mechanism.
    pub mechanism: Mechanism,
    /// Average read latency in memory cycles.
    pub read_latency: f64,
    /// Average write latency in memory cycles.
    pub write_latency: f64,
}

/// One Figure 9 row.
#[derive(Debug, Clone, Copy)]
pub struct Fig9Row {
    /// Mechanism.
    pub mechanism: Mechanism,
    /// Row-hit fraction.
    pub row_hit: f64,
    /// Row-conflict fraction.
    pub row_conflict: f64,
    /// Row-empty fraction.
    pub row_empty: f64,
    /// Address-bus utilisation.
    pub addr_bus: f64,
    /// Data-bus utilisation.
    pub data_bus: f64,
}

/// One Figure 10 row: a benchmark's execution time under each mechanism,
/// normalised to BkInOrder.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Benchmark.
    pub benchmark: SpecBenchmark,
    /// `(mechanism, normalised execution time)` pairs.
    pub normalized: Vec<(Mechanism, f64)>,
}

impl Fig10Row {
    /// The normalised execution time under `mechanism`, if its cell ran.
    pub fn get(&self, mechanism: Mechanism) -> Option<f64> {
        self.normalized
            .iter()
            .find(|(m, _)| *m == mechanism)
            .map(|&(_, v)| v)
    }

    /// The mechanisms of every row, in first-seen order: the columns of
    /// the Figure 10 table and CSV, whichever cells a row lacks.
    pub fn columns(rows: &[Fig10Row]) -> Vec<Mechanism> {
        let mut out = Vec::new();
        for &(m, _) in rows.iter().flat_map(|r| &r.normalized) {
            if !out.contains(&m) {
                out.push(m);
            }
        }
        out
    }
}

/// Figure 8 / 11: outstanding-access distributions for one benchmark under
/// several mechanisms.
#[derive(Debug, Clone)]
pub struct OutstandingRow {
    /// Mechanism.
    pub mechanism: Mechanism,
    /// Fraction of time N reads were outstanding, index = N.
    pub reads: Vec<f64>,
    /// Fraction of time N writes were outstanding, index = N.
    pub writes: Vec<f64>,
    /// Write-queue saturation rate (Section 5.1 quotes 24% Intel, 46%
    /// Burst, 70% Burst_RP, 2% Burst_WP, 9% Burst_TH52 for swim).
    pub saturation: f64,
    /// Mean outstanding reads.
    pub mean_reads: f64,
    /// Mean outstanding writes.
    pub mean_writes: f64,
}

/// One Figure 12 row: threshold-sweep latency and execution time averaged
/// over benchmarks, normalised to plain `Burst`.
#[derive(Debug, Clone, Copy)]
pub struct Fig12Row {
    /// Mechanism (a threshold point).
    pub mechanism: Mechanism,
    /// Average read latency (memory cycles).
    pub read_latency: f64,
    /// Average write latency (memory cycles).
    pub write_latency: f64,
    /// Execution time normalised to plain `Burst`.
    pub normalized_exec: f64,
}

/// Table 1: access latency by controller policy and row state.
#[derive(Debug, Clone, Copy)]
pub struct Table1Row {
    /// Controller policy.
    pub policy: RowPolicy,
    /// Row-hit latency, if defined.
    pub hit: Option<Cycle>,
    /// Row-empty latency.
    pub empty: Option<Cycle>,
    /// Row-conflict latency, if defined.
    pub conflict: Option<Cycle>,
}

/// Table 1 for a given device timing.
pub fn table1(timing: &TimingParams) -> Vec<Table1Row> {
    [RowPolicy::OpenPage, RowPolicy::ClosePageAutoprecharge]
        .into_iter()
        .map(|policy| Table1Row {
            policy,
            hit: policy.access_latency(RowState::Hit, timing),
            empty: policy.access_latency(RowState::Empty, timing),
            conflict: policy.access_latency(RowState::Conflict, timing),
        })
        .collect()
}

/// Figure 1: schedules the motivating four-access example on the 2-2-2
/// burst-length-4 device and returns `(in_order_cycles, out_of_order_cycles)`.
///
/// The paper's hand schedule takes 28 cycles strictly in order without
/// interleaving and 16 cycles out of order with interleaving.
pub fn fig1() -> (Cycle, Cycle) {
    (fig1_in_order(), fig1_out_of_order())
}

/// The four accesses of Figure 1: two row empties (bank0 row0, bank1 row0),
/// then two row conflicts (bank0 row1, bank0 row0).
fn fig1_accesses() -> [Loc; 4] {
    [
        Loc::new(0, 0, 0, 0, 0),
        Loc::new(0, 0, 1, 0, 0),
        Loc::new(0, 0, 0, 1, 0),
        Loc::new(0, 0, 0, 0, 8),
    ]
}

/// Strictly serial, non-interleaved execution (Figure 1a): each access's
/// transactions and data complete before the next access begins.
fn fig1_in_order() -> Cycle {
    let cfg = DramConfig::figure1();
    let mut ch = burst_dram::Channel::new(cfg);
    let mut now: Cycle = 0;
    for loc in fig1_accesses() {
        // Issue precharge/activate/column strictly when each unblocks,
        // without overlapping the next access.
        loop {
            let state = ch.row_state(loc);
            let cmd = match state {
                RowState::Hit => Command::Column {
                    loc,
                    dir: Dir::Read,
                    auto_precharge: false,
                },
                RowState::Empty => Command::Activate(loc),
                RowState::Conflict => Command::Precharge(loc),
            };
            let at = ch.earliest_issue(&cmd, now).expect("command applicable");
            let issued = ch.issue(&cmd, at);
            now = at;
            if cmd.is_column() {
                now = issued.data_end; // wait for data before the next access
                break;
            }
        }
    }
    now
}

/// Out-of-order, interleaved execution (Figure 1b) via the burst scheduler.
fn fig1_out_of_order() -> Cycle {
    use burst_core::{Access, AccessId, AccessKind, CtrlConfig};
    use burst_dram::{AddressMapping, Dram};

    let cfg = DramConfig::figure1();
    let mut dram = Dram::new(cfg, AddressMapping::PageInterleaving);
    let mut sched = Mechanism::Burst.build(CtrlConfig::default(), cfg.geometry);
    let mut done = Vec::new();
    for (i, loc) in fig1_accesses().into_iter().enumerate() {
        // Synthesise distinct addresses; the scheduler only uses `loc`.
        let addr = burst_dram::PhysAddr::new(i as u64 * 64);
        sched.enqueue(
            Access::new(AccessId::new(i as u64), AccessKind::Read, addr, loc, 0),
            0,
            &mut done,
        );
    }
    let mut now = 0;
    while done.len() < 4 {
        sched.tick(&mut dram, now, &mut done);
        now += 1;
        assert!(now < 1000, "figure 1 example must complete quickly");
    }
    done.iter()
        .map(|c| c.done_at)
        .max()
        .expect("four completions")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_for_pc2_6400() {
        let rows = table1(&TimingParams::ddr2_pc2_6400());
        assert_eq!(rows[0].hit, Some(5));
        assert_eq!(rows[0].empty, Some(10));
        assert_eq!(rows[0].conflict, Some(15));
        assert_eq!(rows[1].hit, None);
        assert_eq!(rows[1].empty, Some(10));
        assert_eq!(rows[1].conflict, None);
    }

    #[test]
    fn fig1_in_order_is_28_cycles() {
        // Paper Figure 1(a): 28 memory cycles for the four accesses.
        assert_eq!(fig1_in_order(), 28);
    }

    #[test]
    fn fig1_out_of_order_beats_in_order() {
        let (in_order, ooo) = fig1();
        assert_eq!(in_order, 28);
        assert!(
            ooo <= 20,
            "out-of-order with interleaving should approach the paper's 16 cycles, got {ooo}"
        );
        assert!(ooo < in_order);
    }

    #[test]
    fn fig12_mechanism_list_matches_paper_axis() {
        let names: Vec<String> = fig12_mechanisms().iter().map(|m| m.name()).collect();
        assert_eq!(names.first().unwrap(), "Burst");
        assert_eq!(names.last().unwrap(), "Burst_RP");
        assert!(names.contains(&"Burst_TH52".to_string()));
        assert!(names.contains(&"Burst_WP".to_string()));
    }

    #[test]
    fn supervised_sweep_matches_plain_sweep() {
        let base = SystemConfig::baseline();
        let bs = [SpecBenchmark::Swim];
        let ms = [Mechanism::BkInOrder, Mechanism::BurstTh(52)];
        let len = RunLength::Instructions(3_000);
        let plain = Sweep::run(&base, &bs, &ms, len, 1, 1);
        let sup = SupervisorConfig {
            backoff_base_ms: 0,
            ..SupervisorConfig::default()
        };
        let s = Sweep::run_supervised("sweep", &base, &bs, &ms, len, 1, 2, &sup, None, None);
        assert!(s.ok());
        assert_eq!(s.resumed, 0);
        assert_eq!(s.value.cells.len(), plain.cells.len());
        for (a, b) in plain.cells.iter().zip(&s.value.cells) {
            assert_eq!(a.report, b.report, "supervision must not perturb results");
        }
    }

    #[test]
    fn supervised_sweep_restores_cells_from_journal() {
        let base = SystemConfig::baseline();
        let bs = [SpecBenchmark::Gzip];
        let ms = [Mechanism::BkInOrder, Mechanism::Burst];
        let len = RunLength::Instructions(2_000);
        let sup = SupervisorConfig {
            backoff_base_ms: 0,
            ..SupervisorConfig::default()
        };
        let dir = std::env::temp_dir().join(format!("burst-exp-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.journal");
        let fp = crate::journal::fingerprint("experiments-test");
        let first = {
            let journal = crate::Journal::create(&path, fp).unwrap();
            Sweep::run_supervised(
                "sweep",
                &base,
                &bs,
                &ms,
                len,
                1,
                1,
                &sup,
                Some(&journal),
                None,
            )
        };
        assert!(first.ok());
        let journal = crate::Journal::resume(&path, fp).unwrap();
        assert_eq!(journal.completed_cells(), 2);
        let second = Sweep::run_supervised(
            "sweep",
            &base,
            &bs,
            &ms,
            len,
            1,
            1,
            &sup,
            Some(&journal),
            None,
        );
        assert_eq!(second.resumed, 2, "every cell restored, none re-simulated");
        for (a, b) in first.value.cells.iter().zip(&second.value.cells) {
            assert_eq!(a.report, b.report, "journal round trip must be lossless");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpointed_supervised_sweep_matches_and_garbage_collects() {
        let base = SystemConfig::baseline();
        let bs = [SpecBenchmark::Swim];
        let ms = [Mechanism::BkInOrder, Mechanism::BurstTh(52)];
        let len = RunLength::Instructions(3_000);
        let sup = SupervisorConfig {
            backoff_base_ms: 0,
            ..SupervisorConfig::default()
        };
        let dir = std::env::temp_dir().join(format!("burst-exp-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fp = crate::journal::fingerprint("experiments-ckpt-test");
        let plan = CheckpointPlan::new(500, dir.clone(), fp);
        let jpath = dir.join("sweep.journal");
        let plain = Sweep::run(&base, &bs, &ms, len, 1, 1);
        let first = {
            let journal = crate::Journal::create(&jpath, fp).unwrap();
            Sweep::run_supervised(
                "sweep",
                &base,
                &bs,
                &ms,
                len,
                1,
                1,
                &sup,
                Some(&journal),
                Some(&plan),
            )
        };
        assert!(first.ok());
        for (a, b) in plain.cells.iter().zip(&first.value.cells) {
            assert_eq!(a.report, b.report, "checkpointing must not perturb results");
        }
        for &(b, m) in &[(bs[0], ms[0]), (bs[0], ms[1])] {
            assert!(
                !plan.cell_path("sweep", b, m).exists(),
                "completed cells leave no checkpoint behind"
            );
        }
        // The journal records each cell's checkpoint path; a resumed sweep
        // garbage-collects stale checkpoint files a crash left behind.
        let journal = crate::Journal::resume(&jpath, fp).unwrap();
        let stale = plan.cell_path("sweep", bs[0], ms[0]);
        std::fs::write(&stale, b"stale").unwrap();
        let second = Sweep::run_supervised(
            "sweep",
            &base,
            &bs,
            &ms,
            len,
            1,
            1,
            &sup,
            Some(&journal),
            Some(&plan),
        );
        assert_eq!(second.resumed, 2);
        assert!(!stale.exists(), "resume deletes stale checkpoints");
        assert_eq!(
            journal
                .lookup(&cell_key("sweep", bs[0], ms[0]))
                .unwrap()
                .checkpoint
                .as_deref(),
            Some(stale.as_path()),
            "journal entries carry the checkpoint path"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn supervised_sweep_salvages_around_invalid_cells() {
        // BurstTh(200) exceeds the write-queue capacity, so validate()
        // rejects it: the cell must fail as Other while siblings complete.
        let base = SystemConfig::baseline();
        let bs = [SpecBenchmark::Gzip];
        let ms = [Mechanism::BkInOrder, Mechanism::BurstTh(200)];
        let sup = SupervisorConfig {
            backoff_base_ms: 0,
            max_retries: 0,
            ..SupervisorConfig::default()
        };
        let s = Sweep::run_supervised(
            "sweep",
            &base,
            &bs,
            &ms,
            RunLength::Instructions(2_000),
            1,
            1,
            &sup,
            None,
            None,
        );
        assert_eq!(s.value.cells.len(), 1);
        assert_eq!(s.value.cells[0].mechanism, Mechanism::BkInOrder);
        assert_eq!(s.failures.len(), 1);
        assert_eq!(s.failures[0].kind, FailureKind::Other);
        assert_eq!(s.failures[0].key(), "sweep/gzip/Burst_TH200");
    }

    /// A hand-built cell: `cpu_cycles` of execution, and ten reads with a
    /// mean latency of `cpu_cycles / 100`.
    fn hand_cell(benchmark: SpecBenchmark, mechanism: Mechanism, cpu_cycles: u64) -> SweepCell {
        let mut ctrl = burst_core::CtrlStats::new(8);
        ctrl.reads_done = 10;
        ctrl.read_latency_sum = cpu_cycles / 10;
        let report = SimReport {
            mechanism,
            workload: benchmark.name().to_string(),
            cpu_cycles,
            mem_cycles: cpu_cycles / 2,
            instructions: 0,
            robustness: crate::RobustnessReport::collect(&ctrl, 0),
            ctrl,
            bus: burst_dram::BusStats::default(),
            cpu: burst_cpu::CpuStats::default(),
            engine: crate::EngineStats::default(),
            channels: 2,
        };
        SweepCell {
            benchmark,
            mechanism,
            report,
        }
    }

    #[test]
    fn fig10_outputs_keep_their_columns_when_a_cell_is_lost() {
        use Mechanism::{BkInOrder, Burst, RowHit};
        use SpecBenchmark::{Gzip, Swim};
        // gzip, the first row, lost its RowHit cell.
        let sweep = Sweep {
            cells: vec![
                hand_cell(Gzip, BkInOrder, 1000),
                hand_cell(Gzip, Burst, 500),
                hand_cell(Swim, BkInOrder, 1000),
                hand_cell(Swim, RowHit, 900),
                hand_cell(Swim, Burst, 800),
            ],
        };
        let rows = sweep.fig10_rows();
        let average = sweep.fig10_average();
        // RowHit averages over swim alone, not toward 1.0 for gzip's loss.
        assert_eq!(average.len(), 2);
        assert_eq!(average[0].0, Burst);
        assert!((average[0].1 - (0.5f64 * 0.8).sqrt()).abs() < 1e-12);
        assert_eq!(average[1].0, RowHit);
        assert!((average[1].1 - 0.9).abs() < 1e-12);

        let table = crate::report::render_fig10(&rows, &average).expect("rows");
        let fields = |label: &str| -> Vec<String> {
            let line = table.lines().find(|l| l.contains(label)).expect(label);
            line.split('|').map(|f| f.trim().to_string()).collect()
        };
        assert_eq!(
            fields("Benchmark"),
            ["", "Benchmark", "Burst", "RowHit", ""]
        );
        assert_eq!(fields("gzip"), ["", "gzip", "0.500", "n/a", ""]);
        assert_eq!(fields("swim"), ["", "swim", "0.800", "0.900", ""]);
        assert_eq!(fields("average"), ["", "average", "0.632", "0.900", ""]);

        let csv = crate::export::fig10_to_csv(&rows).expect("rows");
        assert_eq!(
            csv,
            "benchmark,Burst,RowHit\ngzip,0.5000,\nswim,0.8000,0.9000\n"
        );
    }

    #[test]
    fn fig12_rows_salvage_a_partial_threshold_sweep() {
        use Mechanism::{Burst, BurstRp, BurstWp};
        use SpecBenchmark::{Gzip, Swim};
        // Burst_RP lost every cell: it has no row. gzip, the first
        // benchmark, lost its Burst cell: the rows still follow the axis.
        let lost_rp = Sweep {
            cells: vec![
                hand_cell(Gzip, BurstWp, 900),
                hand_cell(Swim, Burst, 1000),
                hand_cell(Swim, BurstWp, 700),
            ],
        };
        let rows = lost_rp.fig12_rows();
        let points: Vec<Mechanism> = rows.iter().map(|r| r.mechanism).collect();
        assert_eq!(points, [Burst, BurstWp]);
        assert_eq!(rows[0].normalized_exec, 1.0);
        assert!((rows[1].read_latency - 8.0).abs() < 1e-12);
        // Burst_WP is normalised over swim alone, the one benchmark that
        // holds both cells: 700 / 1000, not (900 + 700) / 1000.
        assert!((rows[1].normalized_exec - 0.7).abs() < 1e-12);

        // No Burst cell survived: no baseline, so every normalised
        // execution time is NaN while the latencies still render.
        let no_burst = Sweep {
            cells: vec![
                hand_cell(Gzip, BurstWp, 900),
                hand_cell(Gzip, BurstRp, 1100),
            ],
        };
        let rows = no_burst.fig12_rows();
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.normalized_exec.is_nan()));
        assert!((rows[1].read_latency - 11.0).abs() < 1e-12);
    }

    #[test]
    fn sweep_runs_and_extracts_rows() {
        let sweep = Sweep::run(
            &SystemConfig::baseline(),
            &[SpecBenchmark::Swim],
            &[Mechanism::BkInOrder, Mechanism::BurstTh(52)],
            RunLength::Instructions(3_000),
            1,
            0,
        );
        assert_eq!(sweep.cells.len(), 2);
        let fig7 = sweep.fig7_rows();
        assert_eq!(fig7.len(), 2);
        assert!(fig7.iter().all(|r| r.read_latency > 0.0));
        let fig9 = sweep.fig9_rows();
        let sum = fig9[0].row_hit + fig9[0].row_conflict + fig9[0].row_empty;
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "row states partition accesses: {sum}"
        );
        let fig10 = sweep.fig10_rows();
        assert_eq!(fig10.len(), 1);
        assert_eq!(fig10[0].normalized.len(), 1);
    }
}
