//! # burst-bench
//!
//! The benchmark harness regenerating every table and figure of the
//! paper's evaluation. Each `src/bin/<id>.rs` binary prints the rows/series
//! the paper reports. Simulator throughput is measured by the separate
//! `benchmark/` package.
//!
//! Run, e.g.:
//!
//! ```text
//! cargo run --release -p burst-bench --bin fig10 -- --instructions 200000
//! cargo run --release -p burst-bench --bin all
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::allow_attributes_without_reason)]

pub mod chaos;

use burst_sim::{
    CellFailure, CheckpointPlan, Engine, Journal, OracleError, RunLength, Supervised,
    SupervisorConfig, TransientFaultPlan,
};
use burst_workloads::SpecBenchmark;

/// Harness options parsed from the command line.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Instruction budget per simulation run.
    pub run: RunLength,
    /// Workload seed.
    pub seed: u64,
    /// Benchmarks to simulate.
    pub benchmarks: Vec<SpecBenchmark>,
    /// Worker threads for parallel sweeps (`--jobs N`; 0 = auto-detect).
    pub jobs: usize,
    /// Directory for CSV dumps (`--csv DIR`), if requested.
    pub csv: Option<std::path::PathBuf>,
    /// Simulation engine (`--engine {event,cycle-noskip}`; results are
    /// bit-identical for either choice, only the wall-clock time changes).
    pub engine: Engine,
    /// Journal file started fresh for this run (`--journal FILE`): every
    /// completed cell is appended and fsynced, so a crash mid-sweep can be
    /// resumed with `--resume FILE`.
    pub journal: Option<std::path::PathBuf>,
    /// Journal file to resume from (`--resume FILE`): cells already on
    /// record are restored instead of re-simulated; new completions keep
    /// being appended to the same file.
    pub resume: Option<std::path::PathBuf>,
    /// Per-cell wall-clock deadline in seconds (`--deadline SECS`);
    /// attempts exceeding it are abandoned and retried.
    pub deadline: Option<f64>,
    /// Retries granted per failed cell (`--max-retries N`, default 2).
    pub max_retries: u32,
    /// Seed for deterministic cell-level transient fault injection
    /// (`--inject-cell-faults SEED`) — exercises the retry machinery
    /// end-to-end without touching simulation results.
    pub inject_cell_faults: Option<u64>,
    /// Checkpoint cadence in memory cycles (`--checkpoint-every N`;
    /// 0 = off). With a journal, a killed run resumes each in-flight
    /// cell from its last checkpoint instead of restarting it.
    pub checkpoint_every: u64,
    /// Directory for per-cell `*.ckpt` files (`--checkpoint-dir DIR`;
    /// defaults to the current directory).
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Whether checkpoint writes fsync before their atomic rename
    /// (`--checkpoint-durable {true,false}`, default `true`). `false`
    /// makes mid-run checkpoints far cheaper but a power loss can tear
    /// one; a torn file is detected on load and the cell restarts from
    /// scratch, bit-identically.
    pub checkpoint_durable: bool,
    /// Lockstep oracle mode (`--oracle`): instead of the normal sweep,
    /// run the skip-enabled engine against the naive per-cycle engine
    /// and compare state hashes every epoch, bisecting to the first
    /// divergent cycle on mismatch.
    pub oracle: bool,
    /// Seed for randomized deterministic I/O fault injection
    /// (`--chaos-seed SEED`): journal and checkpoint I/O runs through a
    /// seeded [`burst_sim::ChaosIo`] instead of the real filesystem
    /// passthrough. Same seed, same fault schedule.
    pub chaos_seed: Option<u64>,
    /// Scripted single-fault injection site (`--chaos-site NAME`, e.g.
    /// `journal-append`); requires `--chaos-kind` and `--chaos-op`.
    pub chaos_site: Option<String>,
    /// Scripted fault kind (`--chaos-kind {fail,torn,truncate}`).
    pub chaos_kind: Option<String>,
    /// Zero-based operation index at which the scripted fault fires
    /// (`--chaos-op N`).
    pub chaos_op: Option<u64>,
}

impl HarnessOptions {
    /// Parses `--instructions N`, `--seed N`, `--benchmarks a,b,c`,
    /// `--jobs N`, `--csv DIR`, `--engine NAME`, `--journal FILE`,
    /// `--resume FILE`, `--deadline SECS`, `--max-retries N`,
    /// `--inject-cell-faults SEED`, `--checkpoint-every N`,
    /// `--checkpoint-dir DIR`, `--checkpoint-durable BOOL` and `--oracle`
    /// from `std::env::args`, with the given default instruction budget.
    ///
    /// Unknown arguments are ignored so binaries can be combined with cargo
    /// flags freely. An unknown `--engine` name, and a numeric flag whose
    /// value does not parse (`--instructions 2e5`, `--jobs four`), exit
    /// with status 2: a typo would otherwise run (and diff) the default
    /// unnoticed.
    pub fn from_args(default_instructions: u64) -> Self {
        let args: Vec<String> = std::env::args().collect();
        Self::from_arg_slice(&args, default_instructions)
    }

    /// [`HarnessOptions::from_args`] over an explicit argument slice
    /// (testable without touching the process environment).
    pub fn from_arg_slice(args: &[String], default_instructions: u64) -> Self {
        let instructions = number(args, "--instructions").unwrap_or(default_instructions);
        let seed = number(args, "--seed").unwrap_or(42);
        let jobs = number(args, "--jobs").unwrap_or(0);
        let csv = value_of(args, "--csv").map(std::path::PathBuf::from);
        let engine = match value_of(args, "--engine") {
            Some(name) => Engine::from_name(&name).unwrap_or_else(|| {
                exit_usage(format!(
                    "unknown --engine {name:?} (valid: {})",
                    Engine::ALL.map(|e| e.name()).join(", ")
                ))
            }),
            None => Engine::Event,
        };
        let journal = value_of(args, "--journal").map(std::path::PathBuf::from);
        let resume = value_of(args, "--resume").map(std::path::PathBuf::from);
        let deadline = value_of(args, "--deadline")
            .map(|v| parse_deadline(&v).unwrap_or_else(|e| exit_usage(e)));
        let max_retries = number(args, "--max-retries").unwrap_or(2);
        let inject_cell_faults = number(args, "--inject-cell-faults");
        let checkpoint_every = number(args, "--checkpoint-every").unwrap_or(0);
        let checkpoint_dir = value_of(args, "--checkpoint-dir").map(std::path::PathBuf::from);
        let checkpoint_durable = match value_of(args, "--checkpoint-durable").as_deref() {
            Some("false") | Some("0") | Some("no") => false,
            Some("true") | Some("1") | Some("yes") | None => true,
            Some(other) => {
                eprintln!(
                    "warning: unknown --checkpoint-durable value {other:?} ignored \
                     (valid: true, false); using true"
                );
                true
            }
        };
        let oracle = args.iter().any(|a| a == "--oracle");
        let chaos_seed = number(args, "--chaos-seed");
        let chaos_site = value_of(args, "--chaos-site");
        let chaos_kind = value_of(args, "--chaos-kind");
        let chaos_op = number(args, "--chaos-op");
        let benchmarks = value_of(args, "--benchmarks")
            .map(|list| {
                let mut picks = Vec::new();
                for name in list.split(',') {
                    match SpecBenchmark::from_name(name) {
                        Some(b) => picks.push(b),
                        None => eprintln!(
                            "warning: unknown benchmark {name:?} ignored (valid: {})",
                            SpecBenchmark::all16().map(|b| b.name()).join(",")
                        ),
                    }
                }
                picks
            })
            .filter(|v| !v.is_empty())
            .unwrap_or_else(|| SpecBenchmark::all16().to_vec());
        HarnessOptions {
            run: RunLength::Instructions(instructions),
            seed,
            benchmarks,
            jobs,
            csv,
            engine,
            journal,
            resume,
            deadline,
            max_retries,
            inject_cell_faults,
            checkpoint_every,
            checkpoint_dir,
            checkpoint_durable,
            oracle,
            chaos_seed,
            chaos_site,
            chaos_kind,
            chaos_op,
        }
    }

    /// The I/O layer implied by the `--chaos-*` flags: a scripted
    /// single-fault [`ChaosIo`] when `--chaos-site`/`--chaos-kind`/
    /// `--chaos-op` are all given, a seeded one for `--chaos-seed`, and
    /// the zero-overhead real-filesystem passthrough otherwise. Exits
    /// with status 2 on an unparseable site or kind name — a chaos run
    /// that silently falls back to clean I/O would report robustness it
    /// never tested.
    pub fn sim_io(&self) -> std::sync::Arc<dyn burst_sim::SimIo> {
        use burst_sim::{ChaosIo, IoFaultKind, IoSite};
        match (&self.chaos_site, &self.chaos_kind, self.chaos_op) {
            (Some(site), Some(kind), Some(op)) => {
                let site = IoSite::from_name(site).unwrap_or_else(|| {
                    exit_usage(format!(
                        "unknown --chaos-site {site:?} (valid: {})",
                        IoSite::all()
                            .iter()
                            .map(|s| s.name())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ))
                });
                let kind = IoFaultKind::from_name(kind).unwrap_or_else(|| {
                    exit_usage(format!(
                        "unknown --chaos-kind {kind:?} (valid: {})",
                        IoFaultKind::all()
                            .iter()
                            .map(|k| k.name())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ))
                });
                std::sync::Arc::new(ChaosIo::scripted(site, kind, op))
            }
            (None, None, None) => match self.chaos_seed {
                Some(seed) => std::sync::Arc::new(ChaosIo::seeded(seed)),
                None => burst_sim::real_io(),
            },
            _ => exit_usage(
                "--chaos-site, --chaos-kind and --chaos-op must be given together".to_string(),
            ),
        }
    }

    /// The supervision policy implied by the flags: deadline, retry budget
    /// and (for testing) cell-fault injection.
    pub fn supervisor_config(&self) -> SupervisorConfig {
        SupervisorConfig {
            deadline: self.deadline.map(std::time::Duration::from_secs_f64),
            max_retries: self.max_retries,
            inject: self.inject_cell_faults.map(TransientFaultPlan::new),
            ..SupervisorConfig::default()
        }
    }

    /// The canonical description whose hash binds a journal to this run's
    /// result-determining configuration. Deliberately excludes `--jobs`
    /// (parallelism never changes results), the CSV directory and the
    /// supervision policy (`--deadline`, `--max-retries`), and `--engine`
    /// (every engine is bit-identical) — a journal recorded with any of
    /// those settings is valid for any other.
    pub fn fingerprint_desc(&self) -> String {
        let benches: Vec<&str> = self.benchmarks.iter().map(|b| b.name()).collect();
        format!(
            "burst-bench v1 run={:?} seed={} benchmarks={}",
            self.run,
            self.seed,
            benches.join(",")
        )
    }

    /// Opens the journal requested by `--journal` (fresh) or `--resume`
    /// (restoring completed cells), fingerprint-bound to this run's
    /// configuration; `None` when neither flag was given. Exits with
    /// status 2 on a fingerprint mismatch or filesystem error — silently
    /// mixing results from a differently-configured run would be worse
    /// than dying.
    pub fn open_journal(&self) -> Option<Journal> {
        self.open_journal_with_io(self.sim_io())
    }

    /// [`HarnessOptions::open_journal`] over an explicit I/O layer, so the
    /// chaos matrix runner can share one fault-injecting [`burst_sim::ChaosIo`]
    /// between the journal and the checkpoint plan.
    pub fn open_journal_with_io(
        &self,
        io: std::sync::Arc<dyn burst_sim::SimIo>,
    ) -> Option<Journal> {
        let fp = burst_sim::journal::fingerprint(&self.fingerprint_desc());
        let (path, resuming) = match (&self.resume, &self.journal) {
            (Some(p), _) => (p, true),
            (None, Some(p)) => (p, false),
            (None, None) => return None,
        };
        let opened = if resuming {
            Journal::resume_with_io(path, fp, io)
        } else {
            Journal::create_with_io(path, fp, io)
        };
        match opened {
            Ok(j) => {
                if resuming {
                    eprintln!(
                        "resuming from {}: {} completed cell(s) on record",
                        path.display(),
                        j.completed_cells()
                    );
                }
                Some(j)
            }
            Err(e) => exit_usage(format!("cannot open journal {}: {e}", path.display())),
        }
    }

    /// The intra-cell checkpoint plan implied by `--checkpoint-every` and
    /// `--checkpoint-dir`, fingerprint-bound to the same run description
    /// as the journal; `None` when checkpointing is off. Checkpoint files
    /// land in the chosen directory (default: the current directory) as
    /// one `<scope>-<benchmark>-<mechanism>.ckpt` per in-flight cell.
    pub fn checkpoint_plan(&self) -> Option<CheckpointPlan> {
        self.checkpoint_plan_with_io(self.sim_io())
    }

    /// [`HarnessOptions::checkpoint_plan`] over an explicit I/O layer (see
    /// [`HarnessOptions::open_journal_with_io`]).
    pub fn checkpoint_plan_with_io(
        &self,
        io: std::sync::Arc<dyn burst_sim::SimIo>,
    ) -> Option<CheckpointPlan> {
        (self.checkpoint_every > 0).then(|| CheckpointPlan {
            every: self.checkpoint_every,
            dir: self
                .checkpoint_dir
                .clone()
                .unwrap_or_else(|| std::path::PathBuf::from(".")),
            fingerprint: burst_sim::journal::fingerprint(&self.fingerprint_desc()),
            durable: self.checkpoint_durable,
            io,
        })
    }

    /// Runs the lockstep oracle over `benchmarks x mechanisms` when
    /// `--oracle` was given: the skip-enabled engine races the naive
    /// per-cycle engine, state hashes are compared every epoch, and a
    /// mismatch is bisected to its first divergent cycle. Returns `None`
    /// when the flag is absent (the binary proceeds normally), otherwise
    /// the exit code the binary should return: success only if every
    /// cell's engines stayed in lockstep to the end.
    pub fn oracle_gate(
        &self,
        mechanisms: &[burst_core::Mechanism],
    ) -> Option<std::process::ExitCode> {
        if !self.oracle {
            return None;
        }
        let base = self.system_config();
        let mut grid = Vec::with_capacity(self.benchmarks.len() * mechanisms.len());
        for &b in &self.benchmarks {
            for &m in mechanisms {
                grid.push((b, m));
            }
        }
        let seed = self.seed;
        let run = self.run;
        let verdicts = burst_sim::map_parallel(&grid, self.jobs, move |_, &(b, m)| {
            let cfg = base.with_mechanism(m);
            burst_sim::oracle_simulate(
                &cfg,
                || b.workload(seed),
                run,
                &burst_sim::OracleConfig::default(),
                None,
            )
            .map(|_| ())
        });
        let mut failures = 0usize;
        for (&(b, m), verdict) in grid.iter().zip(&verdicts) {
            match verdict {
                Ok(()) => println!("oracle ok   {}/{}", b.name(), m.name()),
                Err(OracleError::Divergence(d)) => {
                    failures += 1;
                    println!("oracle FAIL {}/{}: {d}", b.name(), m.name());
                }
                Err(e) => {
                    failures += 1;
                    println!("oracle FAIL {}/{}: {e}", b.name(), m.name());
                }
            }
        }
        Some(if failures == 0 {
            println!(
                "oracle: all {} cell(s) in lockstep (skip vs per-cycle)",
                grid.len()
            );
            std::process::ExitCode::SUCCESS
        } else {
            eprintln!("oracle: {failures} of {} cell(s) diverged", grid.len());
            std::process::ExitCode::from(1)
        })
    }

    /// The base system configuration implied by the flags (currently just
    /// the engine selection over the paper baseline).
    pub fn system_config(&self) -> burst_sim::SystemConfig {
        burst_sim::SystemConfig::baseline().with_engine(self.engine)
    }

    /// Writes `content` as `name` into the `--csv` directory, if one was
    /// requested; creates the directory on first use. Shared by every
    /// binary that exports CSVs so the flag behaves identically everywhere.
    pub fn dump_csv(&self, name: &str, content: &str) {
        if let Some(dir) = &self.csv {
            if let Err(e) =
                std::fs::create_dir_all(dir).and_then(|_| std::fs::write(dir.join(name), content))
            {
                eprintln!("warning: could not write {name}: {e}");
            }
        }
    }
}

/// The value following `flag` in `args`, if the flag is present.
fn value_of(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// `flag`'s value parsed as a `T`, `None` when the flag is absent. A value
/// that does not parse exits with status 2 (see [`parse_flag`]).
fn number<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    value_of(args, flag).map(|v| parse_flag::<T>(flag, &v).unwrap_or_else(|e| exit_usage(e)))
}

/// `value` parsed as the `T` that `flag` takes, or an error message naming
/// both the flag and the value.
fn parse_flag<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| {
        format!(
            "invalid {flag} value {value:?} (expected {})",
            std::any::type_name::<T>()
        )
    })
}

/// A `--deadline` value: seconds that [`std::time::Duration`] can hold, so
/// [`HarnessOptions::supervisor_config`] cannot panic on it.
fn parse_deadline(value: &str) -> Result<f64, String> {
    let secs = parse_flag::<f64>("--deadline", value)?;
    std::time::Duration::try_from_secs_f64(secs)
        .map(|_| secs)
        .map_err(|_| format!("invalid --deadline value {value:?} (expected seconds >= 0)"))
}

/// Prints `error: <msg>` and exits with status 2, the harness's status for
/// a run it refuses to start (a malformed flag, an unusable journal).
fn exit_usage(msg: String) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// A short header naming the experiment, printed by every binary.
pub fn banner(id: &str, caption: &str, opts: &HarnessOptions) -> String {
    let budget = match opts.run {
        RunLength::Instructions(n) => format!("{n} instructions"),
        RunLength::MemCycles(n) => format!("{n} memory cycles"),
    };
    format!(
        "=== {id}: {caption}\n    (per-run budget: {budget}, seed {}, {} benchmark(s))\n",
        opts.seed,
        opts.benchmarks.len()
    )
}

/// Collects unrecovered cell failures across every grid a binary runs and
/// converts them into the process exit status, so a sweep with losses
/// still prints everything it salvaged but exits nonzero.
#[derive(Debug, Default)]
pub struct FailureLedger {
    failures: Vec<CellFailure>,
    resumed: usize,
}

impl FailureLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Unwraps a supervised result, absorbing its failure records and
    /// journal-resume count.
    pub fn absorb<T>(&mut self, s: Supervised<T>) -> T {
        self.failures.extend(s.failures);
        self.resumed += s.resumed;
        s.value
    }

    /// Every failure absorbed so far, in observation order.
    pub fn failures(&self) -> &[CellFailure] {
        &self.failures
    }

    /// Cells restored from a journal instead of re-simulated.
    pub fn resumed(&self) -> usize {
        self.resumed
    }

    /// Prints the resume count and the failure-taxonomy summary (when
    /// non-empty) and returns the binary's exit code: success only if
    /// every cell completed.
    pub fn finish(self) -> std::process::ExitCode {
        if self.resumed > 0 {
            println!("{} cell(s) restored from the journal", self.resumed);
        }
        let v2 = burst_sim::report::render_robustness_v2(&self.failures, self.resumed);
        if !v2.is_empty() {
            print!("{v2}");
        }
        if self.failures.is_empty() {
            std::process::ExitCode::SUCCESS
        } else {
            eprint!(
                "{}",
                burst_sim::report::render_failure_summary(&self.failures)
            );
            std::process::ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_when_no_flags() {
        let o = HarnessOptions::from_args(1000);
        assert_eq!(o.seed, 42);
        assert_eq!(o.benchmarks.len(), 16);
        assert!(matches!(o.run, RunLength::Instructions(1000)));
        assert_eq!(o.jobs, 0);
        assert!(o.csv.is_none());
        assert_eq!(o.engine, Engine::Event, "event engine is the default");
        assert!(o.journal.is_none());
        assert!(o.resume.is_none());
        assert!(o.deadline.is_none());
        assert_eq!(o.max_retries, 2);
        assert!(o.inject_cell_faults.is_none());
        assert!(o.open_journal().is_none());
    }

    #[test]
    fn parses_supervision_flags() {
        let args: Vec<String> = [
            "bin",
            "--deadline",
            "1.5",
            "--max-retries",
            "5",
            "--inject-cell-faults",
            "9",
            "--journal",
            "run.journal",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = HarnessOptions::from_arg_slice(&args, 500);
        let sup = o.supervisor_config();
        assert_eq!(sup.deadline, Some(std::time::Duration::from_millis(1500)));
        assert_eq!(sup.max_retries, 5);
        assert_eq!(sup.inject.map(|p| p.seed), Some(9));
        assert_eq!(
            o.journal.as_deref(),
            Some(std::path::Path::new("run.journal"))
        );
    }

    #[test]
    fn fingerprint_ignores_jobs_and_policy_but_not_seed() {
        let parse = |extra: &[&str]| {
            let mut args = vec!["bin".to_string()];
            args.extend(extra.iter().map(|s| s.to_string()));
            HarnessOptions::from_arg_slice(&args, 500)
        };
        let base = parse(&[]).fingerprint_desc();
        assert_eq!(parse(&["--jobs", "7"]).fingerprint_desc(), base);
        assert_eq!(parse(&["--deadline", "2"]).fingerprint_desc(), base);
        assert_eq!(
            parse(&["--engine", "cycle-noskip"]).fingerprint_desc(),
            base
        );
        assert_ne!(parse(&["--seed", "7"]).fingerprint_desc(), base);
        assert_ne!(parse(&["--instructions", "9"]).fingerprint_desc(), base);
        assert_ne!(parse(&["--benchmarks", "swim"]).fingerprint_desc(), base);
    }

    #[test]
    fn ledger_tracks_failures_and_resumes() {
        use burst_core::Mechanism;
        let mut ledger = FailureLedger::new();
        let sweep_value = ledger.absorb(Supervised {
            value: 41,
            failures: vec![],
            resumed: 3,
        });
        assert_eq!(sweep_value, 41);
        assert!(ledger.failures().is_empty());
        assert_eq!(ledger.resumed(), 3);
        let failure = CellFailure {
            scope: "profile".into(),
            benchmark: SpecBenchmark::Swim,
            mechanism: Mechanism::BkInOrder,
            kind: burst_sim::FailureKind::Other,
            attempts: 1,
            payload: "boom".into(),
            quarantined: false,
        };
        let partial = ledger.absorb(Supervised {
            value: 7,
            failures: vec![failure],
            resumed: 1,
        });
        assert_eq!(partial, 7);
        assert_eq!(ledger.failures().len(), 1);
        assert_eq!(ledger.failures()[0].key(), "profile/swim/BkInOrder");
        assert_eq!(ledger.resumed(), 4);
    }

    #[test]
    fn malformed_numeric_flags_name_the_flag_and_value() {
        let err = parse_flag::<u64>("--instructions", "2e5").unwrap_err();
        assert!(
            err.contains("--instructions") && err.contains("\"2e5\""),
            "{err}"
        );
        let err = parse_flag::<usize>("--jobs", "four").unwrap_err();
        assert!(err.contains("--jobs") && err.contains("\"four\""), "{err}");
        assert!(parse_flag::<u32>("--max-retries", "-1").is_err());
        assert!(parse_flag::<f64>("--deadline", "soon").is_err());
        assert_eq!(parse_flag::<u64>("--instructions", "200000"), Ok(200_000));
        assert_eq!(parse_flag::<f64>("--deadline", "2e5"), Ok(2e5));
        // A deadline `Duration` cannot hold would panic in `supervisor_config`.
        for bad in ["-1", "NaN", "inf", "soon"] {
            let err = parse_deadline(bad).unwrap_err();
            assert!(err.contains("--deadline") && err.contains(bad), "{err}");
        }
        assert_eq!(parse_deadline("1.5"), Ok(1.5));
    }

    #[test]
    fn parses_every_engine_name() {
        let parse = |extra: &[&str]| {
            let mut args = vec!["bin".to_string()];
            args.extend(extra.iter().map(|s| s.to_string()));
            HarnessOptions::from_arg_slice(&args, 500)
        };
        for e in Engine::ALL {
            let o = parse(&["--engine", e.name()]);
            assert_eq!(o.engine, e);
            assert_eq!(o.system_config().engine, e);
        }
        // The retired `--no-skip` flag is now just an unknown argument.
        assert_eq!(parse(&["--no-skip"]).engine, Engine::Event);
    }

    #[test]
    fn parses_checkpoint_durability() {
        let parse = |extra: &[&str]| {
            let mut args = vec!["bin".to_string()];
            args.extend(extra.iter().map(|s| s.to_string()));
            HarnessOptions::from_arg_slice(&args, 500)
        };
        // Durable by default, and durability never affects the fingerprint.
        let o = parse(&["--checkpoint-every", "1000"]);
        assert!(o.checkpoint_durable);
        assert_eq!(o.checkpoint_plan().map(|p| p.durable), Some(true));
        let o = parse(&[
            "--checkpoint-every",
            "1000",
            "--checkpoint-durable",
            "false",
        ]);
        assert!(!o.checkpoint_durable);
        assert_eq!(o.checkpoint_plan().map(|p| p.durable), Some(false));
        assert_eq!(
            o.fingerprint_desc(),
            parse(&["--checkpoint-every", "1000"]).fingerprint_desc(),
            "durability changes no result, so it must not invalidate journals"
        );
        // Unknown values fall back to durable instead of aborting.
        assert!(parse(&["--checkpoint-durable", "warp"]).checkpoint_durable);
    }

    #[test]
    fn parses_jobs_and_csv() {
        let args: Vec<String> = ["bin", "--jobs", "3", "--csv", "out/results", "--seed", "7"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = HarnessOptions::from_arg_slice(&args, 500);
        assert_eq!(o.jobs, 3);
        assert_eq!(o.csv.as_deref(), Some(std::path::Path::new("out/results")));
        assert_eq!(o.seed, 7);
    }

    #[test]
    fn banner_contains_id() {
        let o = HarnessOptions::from_args(10);
        assert!(banner("fig7", "latency", &o).contains("fig7"));
    }
}
