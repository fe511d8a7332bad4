//! Integration tests of the robustness layer: protocol checker wiring,
//! deterministic fault injection, and the forward-progress watchdog at the
//! full-system level.

use burst_core::{
    Access, AccessKind, AccessScheduler, Completion, CtrlStats, EnqueueOutcome, FaultConfig,
    Mechanism, Outstanding, StallDiagnostic, WatchdogConfig,
};
use burst_dram::{Cycle, Dram};
use burst_sim::{simulate, RunError, RunLength, System, SystemConfig};
use burst_snap::{SnapError, SnapReader, SnapWriter};
use burst_workloads::{OpSource, SpecBenchmark};

#[test]
fn checker_defaults_on_in_debug_builds() {
    let cfg = SystemConfig::baseline();
    assert_eq!(cfg.checker, cfg!(debug_assertions));
    assert!(cfg.ctrl.faults.is_none(), "fault-free by default");
}

/// Acceptance: with the checker shadowing every command, all Table 4
/// mechanisms run protocol-clean on a real workload.
#[test]
fn all_paper_mechanisms_protocol_clean() {
    for m in Mechanism::all_paper() {
        let cfg = SystemConfig::baseline()
            .with_mechanism(m)
            .with_checker(true);
        let r = simulate(
            &cfg,
            SpecBenchmark::Swim.workload(11),
            RunLength::Instructions(3_000),
        );
        assert_eq!(
            r.robustness.violations,
            0,
            "{}: DDR2 protocol violations on swim",
            m.name()
        );
    }
}

/// Acceptance: fault-injected runs with a fixed seed are deterministic —
/// the same seed reproduces the same `RobustnessReport` — and complete.
#[test]
fn fault_runs_are_deterministic_and_complete() {
    let faults = FaultConfig {
        seed: 7,
        read_error_permille: 80,
        write_retry_permille: 80,
        max_retries: 4,
    };
    let cfg = SystemConfig::baseline()
        .with_mechanism(Mechanism::BurstTh(52))
        .with_checker(true)
        .with_faults(Some(faults));
    cfg.validate().expect("fault config is valid");
    let run = || {
        simulate(
            &cfg,
            SpecBenchmark::Swim.workload(11),
            RunLength::Instructions(8_000),
        )
    };
    let a = run();
    let b = run();
    assert!(
        a.robustness.faults_injected > 0,
        "injection must actually fire"
    );
    assert_eq!(a.robustness.retries, a.robustness.faults_injected);
    assert_eq!(
        a.robustness, b.robustness,
        "same seed must reproduce the same report"
    );
    assert_eq!(
        a.robustness.violations, 0,
        "retries must stay protocol-clean"
    );
    assert_eq!(a.reads(), b.reads());
    assert_eq!(a.writes(), b.writes());
}

#[test]
fn different_fault_seeds_differ() {
    let base = SystemConfig::baseline()
        .with_mechanism(Mechanism::BurstTh(52))
        .with_checker(true);
    let report = |seed| {
        let faults = FaultConfig {
            seed,
            read_error_permille: 80,
            write_retry_permille: 80,
            max_retries: 4,
        };
        simulate(
            &base.with_faults(Some(faults)),
            SpecBenchmark::Swim.workload(11),
            RunLength::Instructions(8_000),
        )
        .robustness
    };
    assert_ne!(
        report(1),
        report(2),
        "distinct seeds should produce distinct fault plans"
    );
}

/// `validate` checks the one device-fault plan, `ctrl.faults`, whether it
/// was set directly or through `with_faults`.
#[test]
fn validate_rejects_out_of_range_ctrl_fault_rates() {
    let mut cfg = SystemConfig::baseline();
    cfg.ctrl.faults = Some(FaultConfig {
        read_error_permille: 1001,
        ..FaultConfig::new(1)
    });
    let err = cfg.validate().expect_err("1001 permille is out of range");
    assert!(err.to_string().contains("per-mille"), "{err}");
    let fixed = cfg.with_faults(Some(FaultConfig::new(1)));
    fixed.validate().expect("in-range rates are valid");
}

/// `with_faults(None)` turns injection off, even when the plan was set
/// on `ctrl.faults` directly.
#[test]
fn with_faults_none_turns_ctrl_fault_injection_off() {
    let mut cfg = SystemConfig::baseline().with_mechanism(Mechanism::BurstTh(52));
    cfg.ctrl.faults = Some(FaultConfig {
        read_error_permille: 80,
        write_retry_permille: 80,
        ..FaultConfig::new(7)
    });
    let run = |cfg: &SystemConfig| {
        simulate(
            cfg,
            SpecBenchmark::Swim.workload(11),
            RunLength::Instructions(8_000),
        )
        .robustness
        .faults_injected
    };
    assert!(run(&cfg) > 0, "the ctrl plan injects");
    assert_eq!(run(&cfg.with_faults(None)), 0, "None means fault-free");
}

/// A scheduler that accepts accesses but never issues a transaction — the
/// pathological case the watchdog exists to catch.
#[derive(Debug)]
struct DeadScheduler {
    stats: CtrlStats,
    outstanding: Outstanding,
    first: Option<(burst_core::AccessId, Cycle)>,
    stall: Option<StallDiagnostic>,
    limit: Cycle,
}

impl DeadScheduler {
    fn new(limit: Cycle) -> Self {
        DeadScheduler {
            stats: CtrlStats::new(256),
            outstanding: Outstanding::default(),
            first: None,
            stall: None,
            limit,
        }
    }
}

impl AccessScheduler for DeadScheduler {
    fn mechanism(&self) -> Mechanism {
        Mechanism::BkInOrder
    }

    fn can_accept(&self, _kind: AccessKind) -> bool {
        true
    }

    fn enqueue(
        &mut self,
        access: Access,
        now: Cycle,
        _completions: &mut Vec<Completion>,
    ) -> EnqueueOutcome {
        match access.kind {
            AccessKind::Read => self.outstanding.reads += 1,
            AccessKind::Write => self.outstanding.writes += 1,
        }
        self.first.get_or_insert((access.id, now));
        EnqueueOutcome::Queued
    }

    fn tick(&mut self, dram: &mut Dram, now: Cycle, _completions: &mut Vec<Completion>) {
        dram.tick(now);
        if self.stall.is_none() && self.outstanding.total() > 0 {
            if let Some((id, since)) = self.first {
                if now.saturating_sub(since) > self.limit {
                    self.stall = Some(StallDiagnostic {
                        since,
                        at: now,
                        reads: self.outstanding.reads,
                        writes: self.outstanding.writes,
                        oldest_id: Some(id),
                        oldest_age: now - since,
                        state_hash: 0,
                    });
                }
            }
        }
    }

    fn stats(&self) -> &CtrlStats {
        &self.stats
    }

    fn outstanding(&self) -> Outstanding {
        self.outstanding
    }

    fn stall_diagnostic(&self) -> Option<StallDiagnostic> {
        self.stall
    }

    // Never quiescent and no busy horizon: the simulator steps every
    // cycle, so the batch-advance hooks are never called.
    fn quiescent(&self) -> bool {
        false
    }

    fn advance_quiescent(&mut self, _from: Cycle, _n: u64) {
        unreachable!("never reports quiescence");
    }

    fn next_busy_event(&self, _dram: &Dram, _last: Cycle) -> Option<Cycle> {
        None
    }

    fn advance_blocked(&mut self, _from: Cycle, _n: u64) {
        unreachable!("never reports a busy event");
    }

    fn save_state(&self, _w: &mut SnapWriter) -> Result<(), SnapError> {
        Err(SnapError::Unsupported(
            "DeadScheduler is not checkpointable",
        ))
    }

    fn load_state(&mut self, _r: &mut SnapReader) -> Result<(), SnapError> {
        Err(SnapError::Unsupported(
            "DeadScheduler is not checkpointable",
        ))
    }
}

/// Acceptance: a no-progress stall surfaces as a structured diagnostic
/// error from `try_run` instead of hanging or tripping a bare assert — on
/// one core and on a chip multiprocessor alike.
#[test]
fn stalled_controller_returns_diagnostic_error() {
    let cfg = SystemConfig::baseline();
    for cores in [1, 2] {
        let cores = std::num::NonZeroUsize::new(cores).expect("nonzero");
        let mut sys = System::with_cores(&cfg, Box::new(DeadScheduler::new(500)), cores);
        let mut w: Vec<_> = (0..cores.get() as u64)
            .map(|i| SpecBenchmark::Swim.workload(11 + i))
            .collect();
        let mut w: Vec<&mut dyn OpSource> = w.iter_mut().map(|w| w as &mut dyn OpSource).collect();
        let err = sys
            .try_run_cores(&mut w, RunLength::Instructions(1_000_000))
            .expect_err("a dead controller must be reported, not spun on");
        match err {
            RunError::ControllerStall(diag) => {
                assert!(
                    diag.reads + diag.writes > 0,
                    "stall with nothing outstanding: {diag}"
                );
                assert!(
                    diag.at - diag.since > 500,
                    "stall declared too early: {diag}"
                );
                assert!(diag.oldest_id.is_some());
                let msg = err.to_string();
                assert!(
                    msg.contains("no forward progress"),
                    "diagnostic text: {msg}"
                );
            }
            other => panic!("expected a controller stall, got {other:?}"),
        }
        assert!(
            sys.stall_diagnostic().is_some(),
            "diagnostic stays latched on the system"
        );
    }
}

/// The watchdog's escalation bound holds end-to-end: with a small
/// escalation age, no access in a full-system run exceeds the bound.
#[test]
fn escalation_bounds_access_age_in_full_system() {
    let mut cfg = SystemConfig::baseline().with_mechanism(Mechanism::BurstTh(52));
    cfg.ctrl.watchdog = WatchdogConfig {
        escalate_age: 2_000,
        stall_limit: 1_000_000,
    };
    let r = simulate(
        &cfg,
        SpecBenchmark::Swim.workload(11),
        RunLength::Instructions(8_000),
    );
    assert!(
        r.robustness.max_access_age <= 2_000 + 10_000,
        "max access age {} exceeds escalation bound",
        r.robustness.max_access_age
    );
    assert_eq!(r.robustness.watchdog_trips, 0);
}
