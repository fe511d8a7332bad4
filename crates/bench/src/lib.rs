//! # burst-bench
//!
//! The benchmark harness regenerating every table and figure of the
//! paper's evaluation, plus the studies beyond it. One executable,
//! `burst-bench <study> [flags]`, runs any entry of the study table
//! ([`STUDIES`]) with the flags of the flag table ([`FLAGS`]) that the
//! study reads; anything else is refused with status 2. Simulator
//! throughput is measured by the separate `benchmark/` package.
//!
//! Run, e.g.:
//!
//! ```text
//! cargo run --release -p burst-bench -- fig10 --instructions 200000
//! cargo run --release -p burst-bench -- all --csv out --journal run.journal
//! cargo run --release -p burst-bench -- fig10 --help
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::allow_attributes_without_reason)]

pub mod chaos;
pub mod flags;
pub mod studies;

use std::process::ExitCode;

pub use flags::{study, usage, UsageError, FLAGS};
pub use studies::{Study, STUDIES};

use burst_core::Mechanism;
use burst_sim::experiments::{fig12_supervised, outstanding_supervised};
use burst_sim::experiments::{Fig12Row, OutstandingRow, Sweep};
use burst_sim::{
    CellFailure, CheckpointPlan, Engine, IoFaultKind, IoSite, Journal, OracleError, RunLength,
    Supervised, SupervisorConfig, SystemConfig, TransientFaultPlan,
};
use burst_workloads::SpecBenchmark;

/// Harness options parsed from the command line ([`Study::parse`]); each
/// field is set by the [`FLAGS`] entry of the same name.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Print the usage text instead of running.
    pub help: bool,
    /// Instruction budget per simulation run.
    pub instructions: u64,
    /// Workload seed.
    pub seed: u64,
    /// Benchmarks to simulate, exactly as given.
    pub benchmarks: Vec<SpecBenchmark>,
    /// Worker threads for parallel sweeps (0 = auto-detect).
    pub jobs: usize,
    /// Directory for CSV dumps, if requested.
    pub csv: Option<std::path::PathBuf>,
    /// Simulation engine (every engine is bit-identical; only speed differs).
    pub engine: Engine,
    /// Journal file started fresh: every completed cell is fsynced to it.
    pub journal: Option<std::path::PathBuf>,
    /// Journal file to resume: cells on record are restored, not re-run.
    pub resume: Option<std::path::PathBuf>,
    /// Per-cell wall-clock deadline in seconds; late attempts are retried.
    pub deadline: Option<f64>,
    /// Retries granted per failed cell.
    pub max_retries: u32,
    /// Seed of deterministic transient cell faults (results unchanged).
    pub inject_cell_faults: Option<u64>,
    /// Checkpoint cadence in memory cycles (0 = off). With a journal, a
    /// killed run resumes each in-flight cell from its last checkpoint.
    pub checkpoint_every: u64,
    /// Directory for per-cell `*.ckpt` files (default: the current one).
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Whether checkpoint writes fsync before their atomic rename. `false`
    /// is far cheaper, but a power loss can tear a checkpoint; a torn file
    /// is detected on load and the cell restarts from scratch.
    pub checkpoint_durable: bool,
    /// Run the lockstep oracle (skip-enabled vs per-cycle engine, state
    /// hashes compared every epoch) instead of the study.
    pub oracle: bool,
    /// Seed of a [`burst_sim::ChaosIo`] fault injector for journal and
    /// checkpoint I/O.
    pub chaos_seed: Option<u64>,
    /// Scripted single I/O fault: the site (given with kind and op).
    pub chaos_site: Option<IoSite>,
    /// Scripted single I/O fault: the kind.
    pub chaos_kind: Option<IoFaultKind>,
    /// Scripted single I/O fault: the zero-based operation index.
    pub chaos_op: Option<u64>,
}

impl HarnessOptions {
    /// `study`'s defaults, as if no flag were given.
    pub fn new(study: &Study) -> Self {
        HarnessOptions {
            help: false,
            instructions: study.instructions,
            seed: 42,
            benchmarks: (study.benchmarks)(),
            jobs: 0,
            csv: None,
            engine: Engine::Event,
            journal: None,
            resume: None,
            deadline: None,
            max_retries: 2,
            inject_cell_faults: None,
            checkpoint_every: 0,
            checkpoint_dir: None,
            checkpoint_durable: true,
            oracle: false,
            chaos_seed: None,
            chaos_site: None,
            chaos_kind: None,
            chaos_op: None,
        }
    }

    /// The per-run budget.
    pub fn run(&self) -> RunLength {
        RunLength::Instructions(self.instructions)
    }

    /// The I/O layer implied by the `--chaos-*` flags: a scripted
    /// single-fault [`burst_sim::ChaosIo`] for a `--chaos-site`/
    /// `--chaos-kind`/`--chaos-op` triple, a seeded one for
    /// `--chaos-seed`, and the zero-overhead real-filesystem passthrough
    /// otherwise.
    pub fn sim_io(&self) -> std::sync::Arc<dyn burst_sim::SimIo> {
        use burst_sim::ChaosIo;
        match (self.chaos_site, self.chaos_kind, self.chaos_op) {
            (Some(site), Some(kind), Some(op)) => {
                std::sync::Arc::new(ChaosIo::scripted(site, kind, op))
            }
            _ => match self.chaos_seed {
                Some(seed) => std::sync::Arc::new(ChaosIo::seeded(seed)),
                None => burst_sim::real_io(),
            },
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
            self.run(),
            self.seed,
            benches.join(",")
        )
    }

    /// Opens the journal requested by `--journal` (fresh) or `--resume`
    /// (restoring completed cells), fingerprint-bound to this run's
    /// configuration; `None` when neither flag was given. A fingerprint
    /// mismatch or filesystem error is an error: silently mixing results
    /// from a differently-configured run would be worse than refusing.
    pub fn open_journal(&self) -> Result<Option<Journal>, String> {
        let fp = burst_sim::journal::fingerprint(&self.fingerprint_desc());
        let (path, resuming) = match (&self.resume, &self.journal) {
            (Some(p), _) => (p, true),
            (None, Some(p)) => (p, false),
            (None, None) => return Ok(None),
        };
        let opened = if resuming {
            Journal::resume_with_io(path, fp, self.sim_io())
        } else {
            Journal::create_with_io(path, fp, self.sim_io())
        };
        let journal = opened.map_err(|e| format!("cannot open journal {}: {e}", path.display()))?;
        if resuming {
            eprintln!(
                "resuming from {}: {} completed cell(s) on record",
                path.display(),
                journal.completed_cells()
            );
        }
        Ok(Some(journal))
    }

    /// The intra-cell checkpoint plan implied by `--checkpoint-every` and
    /// `--checkpoint-dir`, fingerprint-bound to the same run description
    /// as the journal; `None` when checkpointing is off. Checkpoint files
    /// land in the chosen directory (default: the current directory) as
    /// one `<scope>-<benchmark>-<mechanism>.ckpt` per in-flight cell.
    pub fn checkpoint_plan(&self) -> Option<CheckpointPlan> {
        (self.checkpoint_every > 0).then(|| CheckpointPlan {
            every: self.checkpoint_every,
            dir: self
                .checkpoint_dir
                .clone()
                .unwrap_or_else(|| std::path::PathBuf::from(".")),
            fingerprint: burst_sim::journal::fingerprint(&self.fingerprint_desc()),
            durable: self.checkpoint_durable,
            io: self.sim_io(),
        })
    }

    /// Runs the lockstep oracle over `benchmarks x mechanisms`: the
    /// skip-enabled engine races the naive per-cycle engine, state hashes
    /// are compared every epoch, and a mismatch is bisected to its first
    /// divergent cycle. Succeeds only if every cell's engines stayed in
    /// lockstep to the end.
    pub fn oracle_gate(&self, mechanisms: &[Mechanism]) -> ExitCode {
        let base = self.system_config();
        let mut grid = Vec::with_capacity(self.benchmarks.len() * mechanisms.len());
        for &b in &self.benchmarks {
            for &m in mechanisms {
                grid.push((b, m));
            }
        }
        let seed = self.seed;
        let run = self.run();
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
        if failures == 0 {
            println!(
                "oracle: all {} cell(s) in lockstep (skip vs per-cycle)",
                grid.len()
            );
            ExitCode::SUCCESS
        } else {
            eprintln!("oracle: {failures} of {} cell(s) diverged", grid.len());
            ExitCode::from(1)
        }
    }

    /// The base system configuration implied by the flags (currently just
    /// the engine selection over the paper baseline).
    pub fn system_config(&self) -> SystemConfig {
        SystemConfig::baseline().with_engine(self.engine)
    }

    /// Writes `content` as `name` into the `--csv` directory, if one was
    /// requested; creates the directory on first use.
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

/// A short header naming the experiment, printed by every study with a
/// title.
pub fn banner(id: &str, caption: &str, opts: &HarnessOptions) -> String {
    format!(
        "=== {id}: {caption}\n    (per-run budget: {} instructions, seed {}, {} benchmark(s))\n",
        opts.instructions,
        opts.seed,
        opts.benchmarks.len()
    )
}

/// Collects unrecovered cell failures across every grid a study runs and
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
    /// non-empty) and returns the exit code: success only if every cell
    /// completed.
    pub fn finish(self) -> ExitCode {
        if self.resumed > 0 {
            println!("{} cell(s) restored from the journal", self.resumed);
        }
        let v2 = burst_sim::report::render_robustness_v2(&self.failures, self.resumed);
        if !v2.is_empty() {
            print!("{v2}");
        }
        if self.failures.is_empty() {
            ExitCode::SUCCESS
        } else {
            eprint!(
                "{}",
                burst_sim::report::render_failure_summary(&self.failures)
            );
            ExitCode::from(1)
        }
    }
}

/// The context every study runs in: the options, the base configuration,
/// the trailing arguments of every supervised grid (run length, seed,
/// jobs, supervision policy, journal, checkpoint plan), the failure
/// ledger and the lazily-run main sweep.
pub struct Grid<'a> {
    /// The parsed command line.
    pub opts: &'a HarnessOptions,
    /// [`HarnessOptions::system_config`].
    pub base: SystemConfig,
    sup: SupervisorConfig,
    journal: Option<Journal>,
    ckpt: Option<CheckpointPlan>,
    ledger: FailureLedger,
    main: Option<Sweep>,
}

impl<'a> Grid<'a> {
    /// Opens the journal and the checkpoint plan `opts` asks for.
    pub fn open(opts: &'a HarnessOptions) -> Result<Self, String> {
        Ok(Grid {
            opts,
            base: opts.system_config(),
            sup: opts.supervisor_config(),
            journal: opts.open_journal()?,
            ckpt: opts.checkpoint_plan(),
            ledger: FailureLedger::new(),
            main: None,
        })
    }

    /// One supervised grid of `benchmarks x mechanisms` on `base` under
    /// the journal `scope`; its failures go to the ledger.
    pub fn sweep(
        &mut self,
        scope: &str,
        base: &SystemConfig,
        benchmarks: &[SpecBenchmark],
        mechanisms: &[Mechanism],
    ) -> Sweep {
        self.ledger.absorb(Sweep::run_supervised(
            scope,
            base,
            benchmarks,
            mechanisms,
            self.opts.run(),
            self.opts.seed,
            self.opts.jobs,
            &self.sup,
            self.journal.as_ref(),
            self.ckpt.as_ref(),
        ))
    }

    /// The main sweep behind Figures 7, 9 and 10 (every benchmark x every
    /// paper mechanism, scope `sweep`), run on first use.
    pub fn main_sweep(&mut self) -> &Sweep {
        let sweep = match self.main.take() {
            Some(sweep) => sweep,
            None => {
                let base = self.base;
                let benchmarks = &self.opts.benchmarks;
                self.sweep("sweep", &base, benchmarks, &Mechanism::all_paper())
            }
        };
        self.main.insert(sweep)
    }

    /// Outstanding-access distributions for swim under `mechanisms`.
    pub fn outstanding(&mut self, scope: &str, mechanisms: &[Mechanism]) -> Vec<OutstandingRow> {
        self.ledger.absorb(outstanding_supervised(
            scope,
            &self.base,
            SpecBenchmark::Swim,
            mechanisms,
            self.opts.run(),
            self.opts.seed,
            self.opts.jobs,
            &self.sup,
            self.journal.as_ref(),
            self.ckpt.as_ref(),
        ))
    }

    /// The Figure 12 threshold sweep
    /// ([`burst_sim::experiments::fig12_mechanisms`]).
    pub fn fig12(&mut self) -> Vec<Fig12Row> {
        self.ledger.absorb(fig12_supervised(
            &self.base,
            &self.opts.benchmarks,
            self.opts.run(),
            self.opts.seed,
            self.opts.jobs,
            &self.sup,
            self.journal.as_ref(),
            self.ckpt.as_ref(),
        ))
    }
}

/// Runs `study` under `opts`: banner, oracle gate (with `--oracle`),
/// journal and checkpoint plan, the study itself, then the failure
/// ledger's summary and exit status.
pub fn run(study: &Study, opts: &HarnessOptions) -> ExitCode {
    study.print_banner(opts);
    if let (true, Some(mechanisms)) = (opts.oracle, study.oracle) {
        return opts.oracle_gate(&mechanisms());
    }
    let mut grid = match Grid::open(opts) {
        Ok(grid) => grid,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = (study.run)(&mut grid) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    grid.ledger.finish()
}

/// The `burst-bench` command line over `args` (without the program
/// name): `<study> [flags]`, or `--help`. Returns the exit status: 2 for
/// a [`UsageError`] or an unusable journal, 1 for a failed study.
pub fn cli(args: &[String]) -> ExitCode {
    let parsed = match args.split_first() {
        Some((first, _)) if first == "--help" || first == "-h" => {
            print!("{}", usage(None));
            return ExitCode::SUCCESS;
        }
        Some((id, flags)) => study(id).and_then(|s| Ok((s, s.parse(flags)?))),
        None => Err(UsageError("missing <study>".into())),
    };
    match parsed {
        Ok((study, opts)) if opts.help => {
            print!("{}", usage(Some(study)));
            ExitCode::SUCCESS
        }
        Ok((study, opts)) => run(study, &opts),
        Err(e) => {
            eprintln!("error: {e}\n(`burst-bench --help` lists the studies and flags)");
            ExitCode::from(2)
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use flags::Kind;

    /// `study id` parsed with `extra` flags.
    fn parse(id: &str, extra: &[&str]) -> Result<HarnessOptions, UsageError> {
        let args: Vec<String> = extra.iter().map(|s| s.to_string()).collect();
        study(id)?.parse(&args)
    }

    /// [`parse`] for a command line that must be accepted.
    fn ok(id: &str, extra: &[&str]) -> HarnessOptions {
        parse(id, extra).unwrap_or_else(|e| panic!("{id} {extra:?}: {e}"))
    }

    #[test]
    fn defaults_when_no_flags() {
        let o = ok("fig7", &[]);
        assert_eq!(o.seed, 42);
        assert_eq!(o.benchmarks.len(), 16);
        assert!(matches!(o.run(), RunLength::Instructions(120_000)));
        assert_eq!(o.jobs, 0);
        assert!(o.csv.is_none());
        assert_eq!(o.engine, Engine::Event, "event engine is the default");
        assert!(o.journal.is_none());
        assert!(o.resume.is_none());
        assert!(o.deadline.is_none());
        assert_eq!(o.max_retries, 2);
        assert!(o.inject_cell_faults.is_none());
        assert!(!o.help && !o.oracle);
        assert!(matches!(o.open_journal(), Ok(None)));
    }

    #[test]
    fn parses_supervision_flags() {
        let o = ok(
            "fig7",
            &[
                "--deadline",
                "1.5",
                "--max-retries",
                "5",
                "--inject-cell-faults",
                "9",
                "--journal",
                "run.journal",
            ],
        );
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
        let fp = |extra: &[&str]| ok("fig7", extra).fingerprint_desc();
        let base = fp(&[]);
        assert_eq!(fp(&["--jobs", "7"]), base);
        assert_eq!(fp(&["--deadline", "2"]), base);
        assert_eq!(fp(&["--engine", "cycle-noskip"]), base);
        assert_ne!(fp(&["--seed", "7"]), base);
        assert_ne!(fp(&["--instructions", "9"]), base);
        assert_ne!(fp(&["--benchmarks", "swim"]), base);
    }

    #[test]
    fn ledger_tracks_failures_and_resumes() {
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
        let err = parse("fig7", &["--instructions", "2e5"]).unwrap_err().0;
        assert!(
            err.contains("--instructions") && err.contains("\"2e5\""),
            "{err}"
        );
        let err = parse("fig7", &["--jobs", "four"]).unwrap_err().0;
        assert!(err.contains("--jobs") && err.contains("\"four\""), "{err}");
        assert!(parse("fig7", &["--max-retries", "-1"]).is_err());
        assert!(parse("fig7", &["--deadline", "soon"]).is_err());
        assert_eq!(
            ok("fig7", &["--instructions", "200000"]).instructions,
            200_000
        );
        assert_eq!(ok("fig7", &["--deadline", "2e5"]).deadline, Some(2e5));
        // A deadline `Duration` cannot hold would panic in `supervisor_config`.
        for bad in ["-1", "NaN", "inf", "soon"] {
            let err = parse("fig7", &["--deadline", bad]).unwrap_err().0;
            assert!(err.contains("--deadline") && err.contains(bad), "{err}");
        }
        assert_eq!(ok("fig7", &["--deadline", "1.5"]).deadline, Some(1.5));
    }

    #[test]
    fn parses_every_engine_name() {
        for e in Engine::ALL {
            let o = ok("fig7", &["--engine", e.name()]);
            assert_eq!(o.engine, e);
            assert_eq!(o.system_config().engine, e);
        }
        // The retired `--no-skip` flag is an unknown flag, refused.
        assert!(parse("fig7", &["--no-skip"]).is_err());
        assert!(parse("fig7", &["--engine", "cycle"]).is_err());
    }

    #[test]
    fn parses_checkpoint_durability() {
        // Durable by default, and durability never affects the fingerprint.
        let o = ok("fig7", &["--checkpoint-every", "1000"]);
        assert!(o.checkpoint_durable);
        assert_eq!(o.checkpoint_plan().map(|p| p.durable), Some(true));
        let o = ok(
            "fig7",
            &[
                "--checkpoint-every",
                "1000",
                "--checkpoint-durable",
                "false",
            ],
        );
        assert!(!o.checkpoint_durable);
        assert_eq!(o.checkpoint_plan().map(|p| p.durable), Some(false));
        assert_eq!(
            o.fingerprint_desc(),
            ok("fig7", &["--checkpoint-every", "1000"]).fingerprint_desc(),
            "durability changes no result, so it must not invalidate journals"
        );
        // Only `true` and `false` are accepted.
        for bad in ["warp", "yes", "1"] {
            assert!(parse("fig7", &["--checkpoint-durable", bad]).is_err());
        }
    }

    #[test]
    fn parses_jobs_and_csv() {
        let o = ok(
            "fig7",
            &["--jobs", "3", "--csv", "out/results", "--seed", "7"],
        );
        assert_eq!(o.jobs, 3);
        assert_eq!(o.csv.as_deref(), Some(std::path::Path::new("out/results")));
        assert_eq!(o.seed, 7);
    }

    #[test]
    fn banner_contains_id() {
        let o = ok("fig7", &["--instructions", "10"]);
        let b = banner("fig7", "latency", &o);
        assert!(b.contains("fig7") && b.contains("10 instructions"), "{b}");
    }

    /// A well-formed value of `kind`, as typed.
    fn example(kind: Kind) -> Option<&'static str> {
        Some(match kind {
            Kind::Count(_) | Kind::Seed(_) => "3",
            Kind::Path(_) => "some/dir",
            Kind::Switch(_) => return None,
            Kind::Engine(_) => "cycle-noskip",
            Kind::Benchmarks(_) => "swim,mcf",
            Kind::Seconds(_) => "0.5",
            Kind::Boolean(_) => "false",
            Kind::ChaosSite(_) => "journal-append",
            Kind::ChaosKind(_) => "torn",
        })
    }

    const TRIPLE: [&str; 3] = ["--chaos-site", "--chaos-kind", "--chaos-op"];

    #[test]
    fn every_table_entry_parses_and_strays_are_refused() {
        for s in &STUDIES {
            assert!(!ok(s.id, &[]).help, "{}", s.id);
            assert!(ok(s.id, &["--help"]).help, "{}", s.id);
            assert!(ok(s.id, &["-h"]).help, "{}", s.id);
            assert!(usage(Some(s)).contains(s.id));
            for flag in FLAGS.iter().filter(|f| s.reads(f)) {
                let mut args: Vec<&str> =
                    [flag.name].into_iter().chain(example(flag.kind)).collect();
                if args.len() == 2 {
                    assert!(parse(s.id, &[flag.name]).is_err(), "{} {}", s.id, flag.name);
                }
                if TRIPLE.contains(&flag.name) {
                    // The scripted fault triple is only accepted whole.
                    assert!(parse(s.id, &args).is_err(), "{} {args:?}", s.id);
                    args = TRIPLE
                        .iter()
                        .zip(["journal-append", "torn", "1"])
                        .flat_map(|(f, v)| [*f, v])
                        .collect();
                }
                ok(s.id, &args);
                // A repeat is refused, even with the same value.
                let twice: Vec<&str> = args.iter().chain(&args).copied().collect();
                assert!(parse(s.id, &twice).is_err(), "{} {twice:?}", s.id);
                // A flag's documented default is its default.
                if !flag.default.is_empty() {
                    assert_eq!(
                        format!("{:?}", ok(s.id, &[flag.name, flag.default])),
                        format!("{:?}", ok(s.id, &[])),
                        "{} {}",
                        s.id,
                        flag.name
                    );
                }
            }
            for flag in FLAGS.iter().filter(|f| !s.reads(f)) {
                let args: Vec<&str> = [flag.name].into_iter().chain(example(flag.kind)).collect();
                assert!(parse(s.id, &args).is_err(), "{} {args:?}", s.id);
            }
            assert!(parse(s.id, &["--instuctions", "5"]).is_err());
            assert!(parse(s.id, &["stray"]).is_err());
        }
        for flag in FLAGS {
            assert!(
                STUDIES.iter().any(|s| s.reads(flag)),
                "no study reads {}",
                flag.name
            );
        }
        assert!(study("fig13").is_err());
        assert!(parse("fig7", &["--benchmarks", "swim,swmi"]).is_err());
        assert!(parse("fig7", &["--instructions", "--seed", "3"]).is_err());
        for (id, foreign) in [
            ("table1", &["--journal", "x"][..]),
            ("energy", &["--oracle"]),
            ("cmp", &["--benchmarks", "swim"]),
        ] {
            let err = parse(id, foreign).unwrap_err().0;
            assert!(err.contains(foreign[0]), "{err}");
        }
    }

    #[test]
    fn benchmark_lists_run_exactly_as_given() {
        let names = |o: HarnessOptions| -> Vec<&'static str> {
            o.benchmarks.iter().map(|b| b.name()).collect()
        };
        assert_eq!(
            names(ok("ablation", &[])),
            ["swim", "gcc", "mcf", "lucas", "art"]
        );
        assert_eq!(names(ok("energy", &[])), ["gzip", "gcc", "mcf", "parser"]);
        assert_eq!(
            names(ok("section6", &[])),
            ["gzip", "gcc", "mcf", "parser", "perlbmk"]
        );
        assert_eq!(
            names(ok("sensitivity", &[])),
            ["swim", "gcc", "art", "parser"]
        );
        let five = "gzip,gcc,mcf,parser,swim";
        let o = ok("energy", &["--benchmarks", five]);
        assert!(banner("energy", "", &o).contains("5 benchmark(s)"));
        assert_eq!(names(o).join(","), five);
    }
}
