//! The crash-point matrix: deterministic chaos sweeps over every labeled
//! I/O site of the journal/checkpoint plane.
//!
//! For a small reference sweep, the runner first *counts* how many
//! operations each [`IoSite`] performs during one create-run-resume-run
//! cycle, then replays that cycle once per `(site, fault kind, operation
//! index)` combination with a scripted single-fault [`ChaosIo`]. Each
//! combination must end in one of two acceptable states once the fault
//! injector is removed:
//!
//! * **resumed identical** — a final clean `--resume` reproduces the
//!   reference sweep CSV byte for byte, or
//! * **structured error** — the journal/checkpoint layer refuses with a
//!   typed error ([`burst_sim::JournalError`], checkpoint validation)
//!   instead of panicking, hanging or silently returning wrong results.
//!
//! Anything else — a panic unwinding out of the sweep, a clean resume
//! whose CSV differs from the reference — is a **violation** and fails
//! the `chaos` study. A separate panic sweep drives the supervisor's
//! deterministic panic-injection hook through both its convergent and
//! quarantining regimes.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use burst_core::Mechanism;
use burst_sim::experiments::Sweep;
use burst_sim::export::sweep_to_csv;
use burst_sim::{
    cell_key, ChaosIo, CheckpointPlan, IoFaultKind, IoSite, Journal, RunLength, SimIo,
    SupervisorConfig, SystemConfig, TransientFaultPlan,
};
use burst_workloads::SpecBenchmark;

/// Shape of the small sweep each matrix combination replays.
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    /// Benchmarks in the sweep grid (keep this to one or two: the whole
    /// grid reruns once per matrix combination).
    pub benchmarks: Vec<SpecBenchmark>,
    /// Mechanisms in the sweep grid.
    pub mechanisms: Vec<Mechanism>,
    /// Per-cell run length.
    pub run: RunLength,
    /// Workload seed.
    pub seed: u64,
    /// Checkpoint cadence in memory cycles (must be > 0 so the
    /// checkpoint sites actually execute).
    pub checkpoint_every: u64,
    /// Cap on operation indexes swept per site; operations beyond the
    /// cap are reported as dropped rather than silently skipped.
    pub max_ops_per_site: u64,
    /// Scratch directory for journals and checkpoints; wiped per combo.
    pub dir: PathBuf,
}

impl MatrixConfig {
    /// The default small-sweep shape: one benchmark, the baseline and
    /// headline mechanisms, a short run with frequent checkpoints.
    pub fn small(dir: PathBuf, seed: u64) -> MatrixConfig {
        MatrixConfig {
            benchmarks: vec![SpecBenchmark::Swim],
            mechanisms: vec![Mechanism::BkInOrder, Mechanism::BurstTh(52)],
            run: RunLength::Instructions(2_000),
            seed,
            checkpoint_every: 400,
            max_ops_per_site: 4,
            dir,
        }
    }

    fn fingerprint(&self) -> u64 {
        let benches: Vec<&str> = self.benchmarks.iter().map(|b| b.name()).collect();
        burst_sim::journal::fingerprint(&format!(
            "chaos-matrix v1 run={:?} seed={} benchmarks={}",
            self.run,
            self.seed,
            benches.join(",")
        ))
    }

    fn supervisor(&self) -> SupervisorConfig {
        SupervisorConfig {
            max_retries: 2,
            backoff_base_ms: 0,
            ..SupervisorConfig::default()
        }
    }
}

/// How one matrix combination ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The final clean resume reproduced the reference CSV byte for byte.
    ResumedIdentical,
    /// A phase refused with a structured (non-panic) error; the named
    /// phase and error are kept for the report.
    StructuredError(String),
    /// The recovery contract was broken; the message says how.
    Violation(String),
}

/// One `(site, kind, op)` cell of the matrix and its verdict.
#[derive(Debug, Clone)]
pub struct ComboResult {
    /// Injection site.
    pub site: IoSite,
    /// Fault kind injected.
    pub kind: IoFaultKind,
    /// Zero-based operation index the fault fired at.
    pub op: u64,
    /// Outcome.
    pub verdict: Verdict,
}

/// The full matrix outcome.
#[derive(Debug, Clone)]
pub struct MatrixReport {
    /// Every combination swept, in site/kind/op order.
    pub results: Vec<ComboResult>,
    /// Per-site operation counts observed by the fault-free counting run.
    pub op_counts: Vec<(IoSite, u64)>,
    /// `(site, ops beyond the cap)` that were *not* swept.
    pub dropped: Vec<(IoSite, u64)>,
}

impl MatrixReport {
    /// Combinations that broke the recovery contract.
    pub fn violations(&self) -> Vec<&ComboResult> {
        self.results
            .iter()
            .filter(|r| matches!(r.verdict, Verdict::Violation(_)))
            .collect()
    }
}

/// Wipes and recreates one combo's scratch directory.
fn fresh_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create chaos scratch dir");
}

/// Runs the reference sweep with clean I/O and returns its CSV.
fn reference_csv(cfg: &MatrixConfig) -> String {
    let sweep = Sweep::run(
        &SystemConfig::baseline(),
        &cfg.benchmarks,
        &cfg.mechanisms,
        cfg.run,
        cfg.seed,
        0,
    );
    sweep_to_csv(&sweep)
}

/// One create-run-resume-run cycle against `io`. Returns the error text
/// of the first phase that refused, or the final resumed CSV.
///
/// The cycle deliberately mirrors a harness crash-and-restart: phase A
/// starts a fresh journal and runs the sweep; phase B reopens the same
/// journal (as a restarted process would) and runs again, restoring
/// whatever phase A managed to persist.
fn run_cycle(cfg: &MatrixConfig, dir: &Path, io: Arc<dyn SimIo>) -> Result<(), String> {
    let journal_path = dir.join("sweep.journal");
    let fp = cfg.fingerprint();
    let plan = |io: &Arc<dyn SimIo>| CheckpointPlan {
        every: cfg.checkpoint_every,
        dir: dir.to_path_buf(),
        fingerprint: fp,
        durable: true,
        io: Arc::clone(io),
    };
    // Phase A: fresh journal, first run.
    let journal = Journal::create_with_io(&journal_path, fp, Arc::clone(&io))
        .map_err(|e| format!("phase A create: {e}"))?;
    let _ = Sweep::run_supervised(
        "chaos",
        &SystemConfig::baseline(),
        &cfg.benchmarks,
        &cfg.mechanisms,
        cfg.run,
        cfg.seed,
        1,
        &cfg.supervisor(),
        Some(&journal),
        Some(&plan(&io)),
    );
    drop(journal);
    // Phase B: restart — resume the journal, run again.
    let journal = Journal::resume_with_io(&journal_path, fp, Arc::clone(&io))
        .map_err(|e| format!("phase B resume: {e}"))?;
    let _ = Sweep::run_supervised(
        "chaos",
        &SystemConfig::baseline(),
        &cfg.benchmarks,
        &cfg.mechanisms,
        cfg.run,
        cfg.seed,
        1,
        &cfg.supervisor(),
        Some(&journal),
        Some(&plan(&io)),
    );
    Ok(())
}

/// The final clean phase: resume with real I/O and demand either a
/// byte-identical CSV or a structured error.
fn clean_resume_verdict(cfg: &MatrixConfig, dir: &Path, reference: &str) -> Verdict {
    let journal_path = dir.join("sweep.journal");
    let fp = cfg.fingerprint();
    let io = burst_sim::real_io();
    let journal = match Journal::resume_with_io(&journal_path, fp, Arc::clone(&io)) {
        Ok(j) => j,
        Err(e) => return Verdict::StructuredError(format!("clean resume: {e}")),
    };
    let plan = CheckpointPlan {
        every: cfg.checkpoint_every,
        dir: dir.to_path_buf(),
        fingerprint: fp,
        durable: true,
        io,
    };
    let sup = Sweep::run_supervised(
        "chaos",
        &SystemConfig::baseline(),
        &cfg.benchmarks,
        &cfg.mechanisms,
        cfg.run,
        cfg.seed,
        1,
        &cfg.supervisor(),
        Some(&journal),
        Some(&plan),
    );
    if !sup.failures.is_empty() {
        return Verdict::Violation(format!(
            "clean resume left {} failed cell(s): {}",
            sup.failures.len(),
            sup.failures
                .iter()
                .map(|f| cell_key(&f.scope, f.benchmark, f.mechanism))
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    let csv = sweep_to_csv(&sup.value);
    if csv == reference {
        Verdict::ResumedIdentical
    } else {
        Verdict::Violation("clean resume CSV differs from the reference".into())
    }
}

/// Runs one scripted `(site, kind, op)` combination end to end.
fn run_combo(
    cfg: &MatrixConfig,
    reference: &str,
    site: IoSite,
    kind: IoFaultKind,
    op: u64,
) -> ComboResult {
    let dir = cfg
        .dir
        .join(format!("{}-{}-{op}", site.name(), kind.name()));
    fresh_dir(&dir);
    let io: Arc<ChaosIo> = Arc::new(ChaosIo::scripted(site, kind, op));
    let faulted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_cycle(cfg, &dir, io.clone() as Arc<dyn SimIo>)
    }));
    let verdict = match faulted {
        Err(_) => Verdict::Violation("panic escaped the faulted cycle".into()),
        // Whether the faulted cycle refused early or limped through, the
        // clean resume decides: byte-identical or structured error.
        Ok(Err(_)) | Ok(Ok(())) => {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                clean_resume_verdict(cfg, &dir, reference)
            })) {
                Err(_) => Verdict::Violation("panic escaped the clean resume".into()),
                Ok(v) => v,
            }
        }
    };
    // Keep only failing combos' scratch state for post-mortems.
    if !matches!(verdict, Verdict::Violation(_)) {
        let _ = std::fs::remove_dir_all(&dir);
    }
    ComboResult {
        site,
        kind,
        op,
        verdict,
    }
}

/// Counts per-site operations over one fault-free cycle, sizing the
/// matrix.
fn count_ops(cfg: &MatrixConfig) -> Vec<(IoSite, u64)> {
    let dir = cfg.dir.join("counting");
    fresh_dir(&dir);
    let io = Arc::new(ChaosIo::counting());
    run_cycle(cfg, &dir, io.clone() as Arc<dyn SimIo>)
        .expect("the counting cycle injects no faults and must succeed");
    let _ = std::fs::remove_dir_all(&dir);
    io.op_counts()
}

/// Runs the exhaustive crash-point matrix.
pub fn run_matrix(cfg: &MatrixConfig) -> MatrixReport {
    run_matrix_where(cfg, |_, _, _| true)
}

/// [`run_matrix`] restricted to the combinations `keep` accepts — used
/// by the `chaos` study's scripted `--chaos-*` single-combination mode.
pub fn run_matrix_where(
    cfg: &MatrixConfig,
    keep: impl Fn(IoSite, IoFaultKind, u64) -> bool,
) -> MatrixReport {
    let reference = reference_csv(cfg);
    let op_counts = count_ops(cfg);
    let mut results = Vec::new();
    let mut dropped = Vec::new();
    for &(site, ops) in &op_counts {
        let swept = ops.min(cfg.max_ops_per_site);
        if ops > swept {
            dropped.push((site, ops - swept));
        }
        for kind in IoFaultKind::all() {
            for op in 0..swept {
                if keep(site, kind, op) {
                    results.push(run_combo(cfg, &reference, site, kind, op));
                }
            }
        }
    }
    MatrixReport {
        results,
        op_counts,
        dropped,
    }
}

/// Renders the matrix report as the `chaos` study's output.
pub fn render_matrix(report: &MatrixReport) -> String {
    let mut out = String::new();
    out.push_str("site ops swept per counting run:\n");
    for &(site, n) in &report.op_counts {
        out.push_str(&format!("  {:<16} {n}\n", site.name()));
    }
    for &(site, n) in &report.dropped {
        out.push_str(&format!(
            "  note: {n} op(s) at {} beyond the cap were not swept\n",
            site.name()
        ));
    }
    let mut identical = 0usize;
    let mut structured = 0usize;
    for r in &report.results {
        match &r.verdict {
            Verdict::ResumedIdentical => identical += 1,
            Verdict::StructuredError(_) => structured += 1,
            Verdict::Violation(msg) => out.push_str(&format!(
                "VIOLATION {}/{} op {}: {msg}\n",
                r.site.name(),
                r.kind.name(),
                r.op
            )),
        }
    }
    out.push_str(&format!(
        "{} combination(s): {identical} resumed byte-identically, \
         {structured} refused with a structured error, {} violation(s)\n",
        report.results.len(),
        report.violations().len()
    ));
    out
}

/// Drives the supervisor's deterministic panic-injection hook through
/// both regimes and checks the quarantine contract end to end. Returns
/// an error message on any contract breach.
pub fn run_panic_sweep(cfg: &MatrixConfig) -> Result<String, String> {
    let mut out = String::new();
    // Regime 1 — convergent: every first attempt panics, the retry
    // budget covers it, every cell must complete.
    let sup = SupervisorConfig {
        max_retries: 2,
        backoff_base_ms: 0,
        inject_panics: Some(TransientFaultPlan {
            seed: cfg.seed,
            fail_permille: 1000,
            max_failures: 1,
        }),
        ..SupervisorConfig::default()
    };
    let r = Sweep::run_supervised(
        "chaos-panic",
        &SystemConfig::baseline(),
        &cfg.benchmarks,
        &cfg.mechanisms,
        cfg.run,
        cfg.seed,
        1,
        &sup,
        None,
        None,
    );
    if !r.failures.is_empty() {
        return Err(format!(
            "convergent panic regime left {} failure(s)",
            r.failures.len()
        ));
    }
    out.push_str("panic sweep: convergent regime recovered every cell\n");
    // Regime 2 — quarantining: panics outlast the retry budget; the
    // journal must quarantine each cell and a resume must skip them.
    let dir = cfg.dir.join("panic-quarantine");
    fresh_dir(&dir);
    let journal_path = dir.join("sweep.journal");
    let fp = cfg.fingerprint();
    let sup = SupervisorConfig {
        max_retries: 1,
        backoff_base_ms: 0,
        inject_panics: Some(TransientFaultPlan {
            seed: cfg.seed,
            fail_permille: 1000,
            max_failures: 16,
        }),
        ..SupervisorConfig::default()
    };
    let journal = Journal::create(&journal_path, fp).map_err(|e| e.to_string())?;
    let cells = cfg.benchmarks.len() * cfg.mechanisms.len();
    let r = Sweep::run_supervised(
        "chaos-panic",
        &SystemConfig::baseline(),
        &cfg.benchmarks,
        &cfg.mechanisms,
        cfg.run,
        cfg.seed,
        1,
        &sup,
        Some(&journal),
        None,
    );
    drop(journal);
    if r.failures.len() != cells || r.failures.iter().any(|f| !f.quarantined) {
        return Err("quarantining regime did not quarantine every cell".into());
    }
    // The resumed run injects no panics: were the cells *re-run*, they
    // would all succeed — so any surviving failure proves the skip.
    let journal = Journal::resume(&journal_path, fp).map_err(|e| e.to_string())?;
    let sup = SupervisorConfig {
        max_retries: 1,
        backoff_base_ms: 0,
        ..SupervisorConfig::default()
    };
    let r = Sweep::run_supervised(
        "chaos-panic",
        &SystemConfig::baseline(),
        &cfg.benchmarks,
        &cfg.mechanisms,
        cfg.run,
        cfg.seed,
        1,
        &sup,
        Some(&journal),
        None,
    );
    if r.failures.len() != cells || r.failures.iter().any(|f| !f.quarantined) {
        return Err("resume re-ran quarantined cells instead of skipping them".into());
    }
    let _ = std::fs::remove_dir_all(&dir);
    out.push_str(&format!(
        "panic sweep: quarantining regime parked {cells} cell(s) and the resume skipped them\n"
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(dir: &str) -> MatrixConfig {
        MatrixConfig {
            run: RunLength::Instructions(1_200),
            max_ops_per_site: 1,
            ..MatrixConfig::small(
                std::env::temp_dir().join(format!("{dir}-{}", std::process::id())),
                11,
            )
        }
    }

    #[test]
    fn counting_cycle_sees_every_site() {
        let cfg = tiny("burst-chaos-count");
        let counts = count_ops(&cfg);
        for (site, n) in counts {
            assert!(n > 0, "site {site} never executed in the counting cycle");
        }
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn single_fault_first_ops_hold_the_contract() {
        let cfg = tiny("burst-chaos-matrix");
        let report = run_matrix(&cfg);
        assert!(!report.results.is_empty());
        let violations = report.violations();
        assert!(
            violations.is_empty(),
            "contract violations:\n{}",
            render_matrix(&report)
        );
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn panic_sweep_contract_holds() {
        let cfg = tiny("burst-chaos-panic");
        run_panic_sweep(&cfg).expect("panic sweep contract");
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }
}
