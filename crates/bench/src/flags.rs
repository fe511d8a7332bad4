//! The command line: one table of flags, parsed strictly.
//!
//! `burst-bench <study> [flags]` accepts only the [`FLAGS`] the chosen
//! study reads ([`Study::reads`]). An unknown study or flag, a flag the
//! study does not read, a missing, repeated or malformed value and an
//! incomplete `--chaos-site`/`--chaos-kind`/`--chaos-op` triple are a
//! [`UsageError`]: a typo would otherwise run (and diff) the default
//! unnoticed.

use std::path::PathBuf;

use burst_sim::{Engine, IoFaultKind, IoSite};
use burst_workloads::SpecBenchmark;

use crate::studies::{Study, STUDIES};
use crate::HarnessOptions;

/// A command line the harness refuses to run; the binary prints it as
/// `error: …` and exits with status 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for UsageError {}

/// The flag groups a [`Study`] lists as the flags it reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// `--help`: read by every study.
    Help,
    /// `--instructions` and `--seed`.
    Budget,
    /// `--engine`.
    Engine,
    /// `--benchmarks`.
    Benchmarks,
    /// The supervised grid: `--jobs`, the journal, the supervision policy,
    /// checkpoint durability and `--chaos-seed`.
    Grid,
    /// Checkpoint cadence and directory, and the scripted I/O fault triple
    /// (read by the supervised grids and by `chaos`).
    Recovery,
    /// `--oracle`: read by exactly the studies with an oracle set.
    Oracle,
    /// `--csv`.
    Csv,
}

/// A flag's value kind, holding the setter its parsed value goes to.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// An unsigned integer.
    Count(fn(&mut HarnessOptions, u64)),
    /// An unsigned integer that fits in 32 bits.
    Count32(fn(&mut HarnessOptions, u32)),
    /// A seed (an unsigned integer).
    Seed(fn(&mut HarnessOptions, u64)),
    /// A file or directory path.
    Path(fn(&mut HarnessOptions, PathBuf)),
    /// A flag without a value.
    Switch(fn(&mut HarnessOptions)),
    /// An [`Engine`] name.
    Engine(fn(&mut HarnessOptions, Engine)),
    /// Comma-separated benchmark names, run exactly as given.
    Benchmarks(fn(&mut HarnessOptions, Vec<SpecBenchmark>)),
    /// Seconds a [`std::time::Duration`] can hold.
    Seconds(fn(&mut HarnessOptions, f64)),
    /// An [`IoSite`] name.
    ChaosSite(fn(&mut HarnessOptions, IoSite)),
    /// An [`IoFaultKind`] name.
    ChaosKind(fn(&mut HarnessOptions, IoFaultKind)),
}

impl Kind {
    /// The placeholder naming the value in the usage text.
    pub fn metavar(self) -> &'static str {
        match self {
            Kind::Count(_) | Kind::Count32(_) => "N",
            Kind::Seed(_) => "SEED",
            Kind::Path(_) => "PATH",
            Kind::Switch(_) => "",
            Kind::Engine(_) => "NAME",
            Kind::Benchmarks(_) => "a,b,c",
            Kind::Seconds(_) => "SECS",
            Kind::ChaosSite(_) => "SITE",
            Kind::ChaosKind(_) => "KIND",
        }
    }

    /// Parses `value` and stores it in `opts`, or says what was expected.
    fn apply(self, opts: &mut HarnessOptions, value: &str) -> Result<(), String> {
        let count = || value.parse().map_err(|_| "an unsigned integer".to_string());
        match self {
            Kind::Count(set) | Kind::Seed(set) => set(opts, count()?),
            Kind::Count32(set) => set(
                opts,
                value
                    .parse()
                    .map_err(|_| format!("an unsigned integer up to {}", u32::MAX))?,
            ),
            Kind::Path(set) => set(opts, PathBuf::from(value)),
            Kind::Switch(set) => set(opts),
            Kind::Engine(set) => set(
                opts,
                Engine::from_name(value).ok_or_else(|| one_of(Engine::ALL.map(|e| e.name())))?,
            ),
            Kind::Benchmarks(set) => set(
                opts,
                value
                    .split(',')
                    .map(|name| {
                        SpecBenchmark::from_name(name).ok_or_else(|| {
                            format!(
                                "benchmark names; {name:?} is not {}",
                                one_of(SpecBenchmark::all16().map(|b| b.name()))
                            )
                        })
                    })
                    .collect::<Result<_, _>>()?,
            ),
            Kind::Seconds(set) => set(
                opts,
                value
                    .parse()
                    .ok()
                    .filter(|&s| std::time::Duration::try_from_secs_f64(s).is_ok())
                    .ok_or("seconds >= 0")?,
            ),
            Kind::ChaosSite(set) => set(
                opts,
                IoSite::from_name(value).ok_or_else(|| one_of(IoSite::all().map(|s| s.name())))?,
            ),
            Kind::ChaosKind(set) => set(
                opts,
                IoFaultKind::from_name(value)
                    .ok_or_else(|| one_of(IoFaultKind::all().map(|k| k.name())))?,
            ),
        }
        Ok(())
    }
}

/// "one of: a, b, c".
fn one_of<const N: usize>(names: [&str; N]) -> String {
    format!("one of: {}", names.join(", "))
}

/// One entry of [`FLAGS`].
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The flag as typed, e.g. `--instructions`.
    pub name: &'static str,
    /// How its value parses, and where it goes.
    pub kind: Kind,
    /// Which studies read it (see [`Study::reads`]).
    pub group: Group,
    /// Its default as it would be typed; empty when the flag is off by
    /// default or (`--instructions`, `--benchmarks`) set per study.
    pub default: &'static str,
    /// One line for the usage text.
    pub help: &'static str,
}

/// Every flag the harness knows.
// One entry per three lines, so the table reads as one.
#[rustfmt::skip]
pub const FLAGS: &[Flag] = &[
    Flag { name: "--help", group: Group::Help, default: "",
        kind: Kind::Switch(|o| o.help = true),
        help: "print the usage text and exit (also -h)" },
    Flag { name: "--instructions", group: Group::Budget, default: "",
        kind: Kind::Count(|o, n| o.instructions = n),
        help: "instruction budget per simulation run" },
    Flag { name: "--seed", group: Group::Budget, default: "42",
        kind: Kind::Seed(|o, n| o.seed = n),
        help: "workload seed" },
    Flag { name: "--benchmarks", group: Group::Benchmarks, default: "",
        kind: Kind::Benchmarks(|o, b| o.benchmarks = b),
        help: "benchmarks to simulate" },
    Flag { name: "--engine", group: Group::Engine, default: "event",
        kind: Kind::Engine(|o, e| o.engine = e),
        help: "simulation engine: event or cycle-noskip (results are bit-identical)" },
    Flag { name: "--jobs", group: Group::Grid, default: "0",
        kind: Kind::Count(|o, n| o.jobs = usize::try_from(n).unwrap_or(usize::MAX)),
        help: "worker threads for the grid (0 = one per CPU)" },
    Flag { name: "--csv", group: Group::Csv, default: "",
        kind: Kind::Path(|o, p| o.csv = Some(p)),
        help: "directory the study writes its CSV files to" },
    Flag { name: "--journal", group: Group::Grid, default: "",
        kind: Kind::Path(|o, p| o.journal = Some(p)),
        help: "journal file started fresh; every completed cell is fsynced to it" },
    Flag { name: "--resume", group: Group::Grid, default: "",
        kind: Kind::Path(|o, p| o.resume = Some(p)),
        help: "journal file to resume: cells on record are restored, not re-run" },
    Flag { name: "--deadline", group: Group::Grid, default: "",
        kind: Kind::Seconds(|o, s| o.deadline = Some(s)),
        help: "per-cell wall-clock deadline; late attempts are abandoned and retried" },
    Flag { name: "--max-retries", group: Group::Grid, default: "2",
        kind: Kind::Count32(|o, n| o.max_retries = n),
        help: "retries granted per failed cell" },
    Flag { name: "--checkpoint-every", group: Group::Recovery, default: "0",
        kind: Kind::Count(|o, n| o.checkpoint_every = n),
        help: "checkpoint cadence in memory cycles (0 = off)" },
    Flag { name: "--checkpoint-dir", group: Group::Recovery, default: "",
        kind: Kind::Path(|o, p| o.checkpoint_dir = Some(p)),
        help: "directory for the per-cell *.ckpt files (default: the current directory)" },
    Flag { name: "--oracle", group: Group::Oracle, default: "",
        kind: Kind::Switch(|o| o.oracle = true),
        help: "run the study's mechanisms in lockstep against the per-cycle engine instead" },
    Flag { name: "--chaos-seed", group: Group::Grid, default: "",
        kind: Kind::Seed(|o, n| o.chaos_seed = Some(n)),
        help: "route journal and checkpoint I/O through a seeded fault injector" },
    Flag { name: "--chaos-site", group: Group::Recovery, default: "",
        kind: Kind::ChaosSite(|o, s| o.chaos_site = Some(s)),
        help: "scripted single I/O fault: the site (with --chaos-kind and --chaos-op)" },
    Flag { name: "--chaos-kind", group: Group::Recovery, default: "",
        kind: Kind::ChaosKind(|o, k| o.chaos_kind = Some(k)),
        help: "scripted single I/O fault: fail, torn or truncate" },
    Flag { name: "--chaos-op", group: Group::Recovery, default: "",
        kind: Kind::Count(|o, n| o.chaos_op = Some(n)),
        help: "scripted single I/O fault: the zero-based operation index" },
];

/// The study named `id`.
pub fn study(id: &str) -> Result<&'static Study, UsageError> {
    STUDIES.iter().find(|s| s.id == id).ok_or_else(|| {
        let ids: Vec<&str> = STUDIES.iter().map(|s| s.id).collect();
        UsageError(format!("unknown study {id:?} (valid: {})", ids.join(", ")))
    })
}

impl Study {
    /// Whether this study reads `flag`.
    pub fn reads(&self, flag: &Flag) -> bool {
        match flag.group {
            Group::Help => true,
            Group::Oracle => self.oracle.is_some(),
            group => self.flags.contains(&group),
        }
    }

    /// Parses the flags that follow the study id over this study's
    /// defaults.
    pub fn parse(&self, args: &[String]) -> Result<HarnessOptions, UsageError> {
        let mut opts = HarnessOptions::new(self);
        let mut seen = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let name = if arg == "-h" { "--help" } else { arg.as_str() };
            let flag = FLAGS
                .iter()
                .find(|f| f.name == name)
                .ok_or_else(|| UsageError(format!("unknown flag {arg:?}")))?;
            if !self.reads(flag) {
                return Err(UsageError(format!("{} does not read {name}", self.id)));
            }
            if seen.contains(&name) {
                return Err(UsageError(format!("{name} given twice")));
            }
            seen.push(name);
            if let Kind::Switch(set) = flag.kind {
                set(&mut opts);
                continue;
            }
            let value = args
                .next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| UsageError(format!("{name} needs a value")))?;
            flag.kind.apply(&mut opts, value).map_err(|expected| {
                UsageError(format!(
                    "invalid {name} value {value:?} (expected {expected})"
                ))
            })?;
        }
        match (opts.chaos_site, opts.chaos_kind, opts.chaos_op) {
            (Some(_), Some(_), Some(_)) | (None, None, None) => Ok(opts),
            _ => Err(UsageError(
                "--chaos-site, --chaos-kind and --chaos-op must be given together".into(),
            )),
        }
    }
}

/// The usage text for `study`, or for the whole harness when `None`.
pub fn usage(study: Option<&Study>) -> String {
    let mut out = String::new();
    match study {
        None => {
            out.push_str("usage: burst-bench <study> [flags]\n\nstudies:\n");
            for s in &STUDIES {
                out.push_str(&format!("  {:<12} {}\n", s.id, s.describe()));
            }
            out.push_str("\nflags (`burst-bench <study> --help` lists the ones a study reads):\n");
        }
        Some(s) => out.push_str(&format!(
            "usage: burst-bench {} [flags]\n\n{}\n\nflags:\n",
            s.id,
            s.describe()
        )),
    }
    for flag in FLAGS.iter().filter(|f| study.is_none_or(|s| s.reads(f))) {
        let default = match (flag.name, study) {
            ("--instructions", Some(s)) => s.instructions.to_string(),
            ("--benchmarks", Some(s)) => {
                let names: Vec<&str> = (s.benchmarks)().iter().map(|b| b.name()).collect();
                names.join(",")
            }
            ("--instructions" | "--benchmarks", None) => "per study".into(),
            _ => flag.default.into(),
        };
        let head = format!("{} {}", flag.name, flag.kind.metavar());
        out.push_str(&format!("  {head:<26} {}", flag.help));
        if !default.is_empty() {
            out.push_str(&format!(" [default: {default}]"));
        }
        out.push('\n');
    }
    out
}
