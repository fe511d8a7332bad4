//! The repository benchmark: what a user regenerating the paper's figures
//! pays in host time, end to end and layer by layer.
//!
//! The people who run this simulator rerun the paper's sweeps (Figs. 8–12),
//! so their cost is host time per simulated cycle and per sweep cell. One
//! invocation is one process on one thread running one workload. It prints
//! every metric by name and unit, checks its own outputs, and ends with a
//! JSON result line. `BENCHMARK.json` at the repository root declares the
//! same workloads and metrics; a unit test keeps the two in step.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload swim_th52 --seed 7 --seconds 10 --trace 0
//! cargo test --release --manifest-path benchmark/Cargo.toml
//! ```
//!
//! The benchmark is a package of its own (an empty `[workspace]` table and
//! path dependencies on the library crates), so the repository's manifest
//! and lock file stay untouched. The older `perf` binary and
//! `BENCH_perf.json` are not part of it and no longer back performance
//! claims; retiring them and CI's `--baseline` gate is left for later.
//!
//! # Workloads
//!
//! All host time; simulated time is the model's output, checked rather than
//! timed. Each run is a closed loop: one simulation at a time, serially
//! through the sweep executor (`map_parallel` with one job), on the paper's
//! baseline machine with warmed caches.
//!
//! | workload | cells | why |
//! |---|---|---|
//! | `swim_th52` | swim × Burst_TH52, 500k instructions (0.89M memory cycles) | Streaming with heavy writebacks, which keeps Burst_TH's write-threshold and piggyback paths busy. Event-dense: 0.3% of cycles jumped and ~996 events per kcycle, so the scheduler tick's per-step cost dominates. |
//! | `mcf_th52` | mcf × Burst_TH52, 750k instructions (4.07M memory cycles) | Read-dominated pointer chase: 27.5% of cycles jumped and cheap ticks. The event engine's horizon and jump work and the CPU stall path show here and hardly at all on swim. |
//! | `fig_sweep` | {swim, gcc, art, parser} × {BkInOrder + Fig. 10's seven} = 32 cells of 120k instructions | The paper-figure use. The only workload that runs Intel, Intel_RP, RowHit and BkInOrder, and it pays 32 set-ups per pass. |
//! | `swim_th52_ckpt` | `swim_th52`'s cell at 250k instructions through `try_simulate_checkpointed`, a durable checkpoint every 10k memory cycles (~45 of 646 KB) | The same simulation plus persistent state: the persistence layer. `swim_th52` is its twin that bypasses it. |
//!
//! The single-cell workloads run in short trials (about half a second each
//! on the baseline host), so a run's median rests on 15–25 samples.
//!
//! Inputs come from `--seed` alone: every cell's workload generator is
//! seeded with it. Seed 7 is held out: develop and tune on any other seeds,
//! and confirm a claim on seed 7 before making it.
//!
//! # One run
//!
//! 1. One pass over the cells, untimed: the warm-up, and the reference the
//!    later passes must reproduce.
//! 2. Timed passes until `--seconds` have passed, and at least three.
//!    Before every pass, each cell's set-up (workload construction,
//!    `System::new` and `System::warm`) is timed on its own, so the set-up
//!    samples span the run as the passes do.
//! 3. Checks (below), then the result line.
//!
//! # End-to-end metrics (tracing off)
//!
//! | metric | unit | better | bound | definition |
//! |---|---|---|---|---|
//! | `mcycles_per_s` | Mcycles/s | higher | 25% | simulated memory cycles of one pass ÷ pass time |
//! | `sims_per_s` | sims/s | higher | 25% | cells of one pass ÷ pass time |
//! | `setup_s` | s | lower | 25% | median set-up time per simulation |
//! | `peak_rss_mib` | MiB | lower | 10% | `VmHWM` from `/proc/self/status` at exit |
//!
//! Pass time is the sum over cells of each cell's median host time across
//! the timed passes, so a burst of host noise moves only the cells it hit.
//! For a single-cell workload it is the median trial time. The bound is the
//! share of the parent's median by which a metric may worsen before a change
//! counts as a regression. The time bounds are wide because the baseline
//! host, a 2-core VM shared with other tenants, drifts 5–20% between runs
//! of minutes apart (see the baseline below); tighten them on a quieter
//! host.
//!
//! There is no failure-rate metric: a metric that reads 0 on every healthy
//! run cannot carry a relative bound. Failures appear as the result line's
//! `attempted`, `failed` and `correct` instead, and any failure exits 1.
//!
//! # Correctness
//!
//! The model has never been checked against real hardware, so the
//! benchmark reports no accuracy figure. Correctness is bit-identity:
//!
//! - every timed pass reproduces the first pass's `SimReport` and
//!   `EngineStats`, cell by cell;
//! - at seed 42 the first pass's `reports_to_csv` output hashes (FNV-1a) to
//!   the digest pinned in `suite.rs`, so a change to the model fails here
//!   until the digest is re-pinned deliberately;
//! - at any seed, each single-cell workload is rerun untimed on
//!   `Engine::CycleNoSkip`, the per-cycle reference, and must produce an
//!   equal `SimReport` (`Engine::Cycle` is never used);
//! - a traced run's reports and `EngineStats` equal the untraced ones.
//!
//! A simulation that returns `Err` or fails a check counts as failed; the
//! run prints `FAIL …` for it, still prints the result line with
//! `"correct": false`, and exits 1.
//!
//! # The traced run (`--trace 1`)
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload mcf_th52 --seed 7 --seconds 10 --trace 1
//! ```
//!
//! Runs the same timed passes (their times feed the `executor` metrics and
//! the base of `trace.overhead`), then one traced pass that times calls into
//! each layer from this package's own files (see `trace.rs`), and prints the
//! per-layer metrics instead of the end-to-end ones. A workload that does
//! not run all eight paper mechanisms adds one traced 120k-instruction probe
//! cell of its benchmark per mechanism, for `core.tick_ns.<Mechanism>`.
//! Each wrapper adds clock reads, so per-layer times are inflated by the
//! tracing itself; compare them only with other traced runs.
//!
//! # Layer map
//!
//! Which end-to-end metric each layer's metrics should move, on which
//! workload. Per-layer metrics have no bound.
//!
//! | layer (crate) | per-layer metrics | should move |
//! |---|---|---|
//! | `workloads` | `workloads.ops`, `workloads.ms` (inside `OpSource::next_op`, after warm-up) | `mcycles_per_s` on `mcf_th52` |
//! | `cpu` | `cpu.ms` (CPU phase of the step less `workloads.ms`), `cpu.warm_ms` (`System::warm` less its draws), `cpu.ipc` | `mcycles_per_s` on `mcf_th52`; `setup_s` and `sims_per_s` on `fig_sweep` |
//! | `sim` (step loop) | `sim.steps`, `sim.skipped_frac`, `sim.mean_jump`, `sim.events_per_kcycle`, `sim.handoff_ms` (hand-off phase less `enqueue`), `sim.deliver_ms`, `sim.engine_ms` (step-loop time less the four phases and `next_busy_event`) | `engine_ms` and `skipped_frac` move `mcycles_per_s` on `mcf_th52` and, as predicted, not on `swim_th52`; `handoff_ms` moves `swim_th52` |
//! | `core` (scheduler) | `core.tick_ms`, `core.ticks`, `core.tick_ns`, `core.enqueue_ms`, `core.enqueues`, `core.can_accept_ms`, `core.can_accept_calls`, `core.horizon_ms`, `core.fold_yield` (`next_busy_event` returning a horizon ÷ calls), `core.issue_per_tick` (`bus.cmd_cycles` ÷ ticks), `core.tick_ns.<Mechanism>` × 8 | `mcycles_per_s` on `swim_th52` (Burst); `sims_per_s` on `fig_sweep` (per mechanism) |
//! | `dram` | `dram.cmds`, `dram.row_hit_rate`, `dram.data_bus_util`, `dram.refreshes`: exact counts from the report (the device's host time stays inside `core.tick`) | none: any change is a model change |
//! | `persist` | `persist.checkpoints`, `persist.ckpt_bytes` (per checkpoint), `persist.capture_ms`, `persist.save_ms`, `persist.share` (of the traced pass) | `mcycles_per_s` on `swim_th52_ckpt` only; `swim_th52` must not move |
//! | `executor` | `executor.cells`, `executor.cell_s_p50`, `executor.cell_s_p90` (untraced cell times) and `executor.setup_share` (`setup_s` ÷ `cell_s_p50`) | `sims_per_s` on `fig_sweep` |
//! | tracing | `trace.overhead`: traced pass ÷ median untraced pass | none |
//!
//! On workloads without a checkpoint cadence the traced pass ends each cell
//! with one capture and save of its final state, so `persist` is measured
//! everywhere. `executor.cell_s_p90` is the highest percentile, up to p90,
//! with at least ten samples beyond it (index 85 of `fig_sweep`'s 96 cells
//! over three passes), or the median when that percentile would lie below
//! it (fewer than 21 cell times).
//!
//! # Comparing two sets of runs (`--agree A B`)
//!
//! Save each run's standard output as one file in a directory per set, for
//! example ten seeds of every workload, then
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --agree set-a set-b
//! ```
//!
//! For each (end-to-end metric, workload) pair it prints both medians, both
//! spreads (interquartile range ÷ median) and how much worse B is than A,
//! and a verdict: `unresolved` when either spread exceeds the bound, else
//! `agree` when the medians are within the bound, else `differ`. It exits 0
//! only when every pair agrees.
//!
//! # Baseline
//!
//! Measured in October 2026 on a 2-vCPU Intel Xeon VM shared with other
//! tenants (Linux 6.18, rustc 1.95.0), `--seconds 10`, seeds 1–10: medians
//! of the last of three such sets, and the spread of `mcycles_per_s` in
//! each of the three.
//!
//! | workload | `mcycles_per_s` | `sims_per_s` | `setup_s` | `peak_rss_mib` | `mcycles_per_s` spread |
//! |---|---|---|---|---|---|
//! | `swim_th52` | 1.98 | 2.22 | 0.0109 | 3.81 | 4.1%, 10.3%, 9.7% |
//! | `mcf_th52` | 8.55 | 1.96 | 0.0111 | 3.58 | 7.3%, 8.3%, 10.5% |
//! | `fig_sweep` | 1.79 | 7.86 | 0.0131 | 4.30 | 2.5%, 11.2%, 7.9% |
//! | `swim_th52_ckpt` | 1.12 | 2.52 | 0.0110 | 7.11 | 10.8%, 12.3%, 13.7% |
//!
//! `sims_per_s` spreads tracked `mcycles_per_s` within 1.5 points;
//! `setup_s` spreads were 8–10% and `peak_rss_mib` spreads at most 3% in the
//! last set. At times the host ran up to 2× slower for minutes, more than
//! any bound can absorb: compare a change with its parent in alternating
//! runs.
//!
//! Traced at seed 7 (`trace.overhead`; scheduler ns per tick overall and
//! for BkInOrder, Intel and Burst_TH52; other layers' shares):
//!
//! | workload | overhead | `core.tick_ns` | BkInOrder | Intel | Burst_TH52 | notes |
//! |---|---|---|---|---|---|---|
//! | `swim_th52` | 1.76× | 386 | 376 | 900 | 353 | 0.3% of cycles jumped, 996 events per kcycle |
//! | `mcf_th52` | 3.08× | 159 | 206 | 395 | 209 | 27.5% of cycles jumped |
//! | `fig_sweep` | 1.81× | 538 | 416 | 721 | 357 | cell p50 0.12 s, p90 0.26 s |
//! | `swim_th52_ckpt` | 1.60× | 449 | 342 | 884 | 366 | 44 checkpoints, 27% of the pass in capture and save |

mod agree;
mod json;
mod metrics;
mod stats;
mod suite;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use burst_sim::SimReport;

use crate::metrics::{result_line, END_TO_END, PER_LAYER};
use crate::stats::median;
use crate::suite::{csv_digest, Reports, Trial, Workload};
use crate::trace::{ExecutorSamples, TracedCell};

const USAGE: &str =
    "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace [0|1]]\n       \
                     benchmark --agree DIR_A DIR_B\n\
                     workloads: swim_th52, mcf_th52, fig_sweep, swim_th52_ckpt";

/// Checkpoint files live here, relative to the working directory, for the
/// length of one run.
const SCRATCH_DIR: &str = ".bench_tmp";

/// Timed trials per run at the least, however long each takes.
const MIN_TRIALS: usize = 3;

#[derive(Debug, PartialEq)]
struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

#[derive(Debug, PartialEq)]
enum Command {
    Run(RunArgs),
    Agree(PathBuf, PathBuf),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
    };
    let mut i = 0;
    let value = |i: usize, flag: &str| {
        args.get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--agree" => {
                let (Some(a), Some(b)) = (args.get(i + 1), args.get(i + 2)) else {
                    return Err("--agree needs two directories".into());
                };
                return Ok(Command::Agree(a.into(), b.into()));
            }
            "--workload" => {
                run.workload = value(i, "--workload")?.clone();
                i += 1;
            }
            "--seed" => {
                let v = value(i, "--seed")?;
                run.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
                i += 1;
            }
            "--seconds" => {
                let v = value(i, "--seconds")?;
                run.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("bad --seconds {v:?}"))?;
                i += 1;
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => i += 1,
                Some("1") => {
                    run.trace = true;
                    i += 1;
                }
                _ => run.trace = true,
            },
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if run.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(Command::Run(run))
}

/// Counts attempted simulations and the ones that failed a check.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, what: &str, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            println!("FAIL {what}: {p}");
        }
    }

    /// Records one trial's cells, each checked against the first trial's.
    fn trial(&mut self, w: &Workload, reports: &Reports, expected: &[Option<SimReport>]) {
        for (((b, m), got), want) in w.cells().iter().zip(reports).zip(expected) {
            let problem = match got {
                Err(e) => Some(e.clone()),
                Ok(r) => differs(r, want.as_ref(), true),
            };
            self.record(&format!("{}/{}", b.name(), m.name()), problem);
        }
    }
}

/// Why `got` is not `want` (reports, and engine counters when asked), if
/// it is not.
fn differs(got: &SimReport, want: Option<&SimReport>, engine_too: bool) -> Option<String> {
    match want {
        None => Some("no reference report to compare with".into()),
        Some(w) if got != w => Some("report differs from the reference".into()),
        Some(w) if engine_too && got.engine != w.engine => Some(format!(
            "engine counters differ: {:?} vs {:?}",
            got.engine, w.engine
        )),
        Some(_) => None,
    }
}

fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Prints a sample summary: median, range and count.
fn summary(name: &str, unit: &str, values: &[f64]) {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    println!(
        "{name:<14} {:>12.5} {unit:<10} median of {} (min {lo:.5}, max {hi:.5})",
        median(values),
        values.len()
    );
}

/// Runs the workload and returns the result line and the failure count.
fn measure(w: &Workload, args: &RunArgs, dir: &Path) -> Result<(String, u64), String> {
    let seed = args.seed;
    let mut tally = Tally::default();
    // Set-ups are timed once per cell before every pass, so their samples
    // span the run like the passes do.
    let mut setup = w.setup_secs(seed);

    // The first trial is the reference the others must reproduce. Untraced
    // runs discard its time as the warm-up; traced runs keep it, since their
    // timed trials only feed the `executor` metrics and `trace.overhead`.
    let (first, reports) = w.run_trial(seed, dir);
    let expected: Vec<Option<SimReport>> =
        reports.iter().map(|r| r.as_ref().ok().cloned()).collect();
    tally.trial(w, &reports, &expected);
    println!(
        "pass: {} cells, {} memory cycles",
        expected.len(),
        expected.iter().flatten().map(|r| r.mem_cycles).sum::<u64>()
    );
    if seed == 42 {
        let ok: Vec<SimReport> = expected.iter().flatten().cloned().collect();
        let digest = csv_digest(&ok);
        if ok.len() != expected.len() || digest != w.digest_seed42 {
            // The digest covers the whole pass, so every cell not already
            // counted as failed fails with it.
            tally.failed += ok.len() as u64;
            println!(
                "FAIL seed-42 digest {digest:#018x}, pinned {:#018x}",
                w.digest_seed42
            );
        }
    }
    let mut timed = Vec::new();
    if args.trace {
        timed.push(first);
    }
    while timed.len() < MIN_TRIALS
        || timed.iter().map(|t: &Trial| t.secs).sum::<f64>() < args.seconds
    {
        setup.extend(w.setup_secs(seed));
        // Reports are checked and dropped, so peak RSS does not grow with
        // the number of trials.
        let (t, reports) = w.run_trial(seed, dir);
        tally.trial(w, &reports, &expected);
        timed.push(t);
    }
    let setup_s = median(&setup);
    let trial_secs: Vec<f64> = timed.iter().map(|t| t.secs).collect();
    summary("trial_s", "s", &trial_secs);

    let values = if args.trace {
        traced_metrics(w, seed, dir, &expected, &timed, setup_s, &mut tally)
    } else {
        if let Some(reference) = w.reference_report(seed) {
            let problem = match reference {
                Err(e) => Some(e),
                Ok(r) => differs(&r, expected[0].as_ref(), false),
            };
            tally.record("cycle-noskip reference", problem);
        }
        // A pass costs the sum of its cells' median times across trials, so a
        // noise burst moves only the cells it hit, not the whole pass.
        let pass_s: f64 = (0..expected.len())
            .map(|c| median(&timed.iter().map(|t| t.cell_secs[c]).collect::<Vec<_>>()))
            .sum();
        let mcycles = expected.iter().flatten().map(|r| r.mem_cycles).sum::<u64>() as f64 / 1e6;
        let cells = expected.len() as f64;
        summary("setup_s", "s", &setup);
        let rss = peak_rss_mib()?;
        let values = vec![
            ("mcycles_per_s", mcycles / pass_s),
            ("sims_per_s", cells / pass_s),
            ("setup_s", setup_s),
            ("peak_rss_mib", rss),
        ];
        for (name, v) in &values {
            println!("{name:<14} {v:>12.5}");
        }
        values
    };
    println!(
        "checks: {} simulations, {} failed",
        tally.attempted, tally.failed
    );
    let table: &[_] = if args.trace { &PER_LAYER } else { &END_TO_END };
    Ok((
        result_line(table, &values, tally.attempted, tally.failed)?,
        tally.failed,
    ))
}

/// One traced trial, checked cell by cell against the untraced reference,
/// plus the per-mechanism probes; returns the per-layer metrics.
fn traced_metrics(
    w: &Workload,
    seed: u64,
    dir: &Path,
    expected: &[Option<SimReport>],
    timed: &[Trial],
    setup_s: f64,
    tally: &mut Tally,
) -> Vec<(&'static str, f64)> {
    let mut traced: Vec<TracedCell> = Vec::new();
    for ((b, m), want) in w.cells().into_iter().zip(expected) {
        let what = format!("traced {}/{}", b.name(), m.name());
        match trace::traced_cell(w, b, m, w.instructions, seed, dir) {
            Err(e) => tally.record(&what, Some(e)),
            Ok(c) => {
                tally.record(&what, differs(&c.report, want.as_ref(), true));
                traced.push(c);
            }
        }
    }
    let mut probes = Vec::new();
    for m in trace::probe_mechanisms(w) {
        let b = w.benchmarks[0];
        let what = format!("probe {}/{}", b.name(), m.name());
        match trace::traced_cell(w, b, m, trace::PROBE_INSTRUCTIONS, seed, dir) {
            Err(e) => tally.record(&what, Some(e)),
            Ok(c) => {
                tally.record(&what, None);
                probes.push(c);
            }
        }
    }
    let traced_s = traced.iter().map(|c| c.wall_ns).sum::<u64>() as f64 / 1e9;
    let untraced_s = median(&timed.iter().map(|t| t.secs).collect::<Vec<_>>());
    let overhead = stats::ratio(traced_s, untraced_s);
    println!("traced trial {traced_s:.3} s, {overhead:.3}x the untraced median");
    let executor = ExecutorSamples {
        cell_secs: timed
            .iter()
            .flat_map(|t| t.cell_secs.iter().copied())
            .collect(),
        setup_s,
    };
    let by_mechanism =
        trace::tick_ns_by_mechanism(if probes.is_empty() { &traced } else { &probes });
    let values = trace::layer_metrics(&traced, &by_mechanism, &executor, overhead);
    for (name, v) in &values {
        let unit = PER_LAYER
            .iter()
            .find(|m| m.name == *name)
            .map_or("", |m| m.unit);
        println!("{name:<24} {v:>16.4} {unit}");
    }
    values
}

fn run(args: &RunArgs) -> ExitCode {
    let Some(w) = suite::workload(&args.workload) else {
        eprintln!("benchmark: unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    println!(
        "{}{} seed={} seconds={} trace={}",
        agree::HEADER,
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("why: {}", w.why);
    let dir = Path::new(SCRATCH_DIR).join(w.name);
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("benchmark: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let outcome = measure(w, args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    // Removes the scratch root only once no other run is using it.
    let _ = std::fs::remove_dir(SCRATCH_DIR);
    match outcome {
        Ok((line, failed)) => {
            println!("{line}");
            if failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(Command::Agree(a, b)) => match agree::agree(&a, &b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::from(2)
            }
        },
        Ok(Command::Run(args)) => run(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Command, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        assert_eq!(
            args("--workload mcf_th52 --seed 7 --seconds 10 --trace 1"),
            Ok(Command::Run(RunArgs {
                workload: "mcf_th52".into(),
                seed: 7,
                seconds: 10.0,
                trace: true,
            }))
        );
        let Ok(Command::Run(r)) = args("--workload x --trace 0") else {
            panic!("parses");
        };
        assert!(!r.trace);
        assert_eq!((r.seed, r.seconds), (42, 10.0), "defaults");
        let Ok(Command::Run(r)) = args("--trace --workload x") else {
            panic!("parses");
        };
        assert!(r.trace, "bare --trace turns tracing on");
        assert_eq!(
            args("--agree a b"),
            Ok(Command::Agree("a".into(), "b".into()))
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--seed 1",
            "--workload",
            "--workload x --seed -1",
            "--workload x --seconds 0",
            "--workload x --seconds nan",
            "--workload x --bogus",
            "--agree a",
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }
}
