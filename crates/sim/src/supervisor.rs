//! Crash-isolated supervision of independent sweep cells.
//!
//! [`crate::map_parallel`] gives the evaluation grid order-stable
//! parallelism, but one misbehaving `(benchmark, mechanism)` cell — a
//! panic in a scheduler, a latched [`crate::RunError`] stall, or a cell
//! that simply wedges — used to tear down the whole multi-minute sweep.
//! [`supervise`] runs every cell on `map_parallel`'s workers and keeps the
//! blast radius to the cell itself:
//!
//! * every attempt runs under [`std::panic::catch_unwind`], so a panicking
//!   cell becomes a structured [`CellOutcome::Failed`] record while its
//!   siblings keep running;
//! * an optional per-cell wall-clock deadline runs each attempt on a
//!   watchdog thread and abandons attempts that exceed it (the wedged
//!   thread is leaked by design — it holds no locks the supervisor cares
//!   about, and the process exits after the sweep);
//! * failed cells get bounded retries with deterministic backoff, and a
//!   [`TransientFaultPlan`] can deterministically panic attempts to test
//!   exactly that machinery;
//! * results come back in input order, like `map_parallel`, so a
//!   supervised sweep is element-for-element comparable to a plain one.
//!
//! The closure contract mirrors `map_parallel` plus an attempt number:
//! `f(index, &item, attempt)` must be safe to call concurrently *and*
//! repeatedly — simulation cells are, because each call builds a fresh
//! [`crate::System`] from plain config values.

// Chaos-plane, supervised-cell module (DESIGN.md §15): filesystem calls
// go through the `SimIo` seam (`disallowed_methods`, see clippy.toml) and
// failures return structured errors instead of panicking.
#![deny(
    clippy::disallowed_methods,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use burst_core::splitmix64;

use crate::RunError;

/// Why a cell failed — the sweep failure taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureKind {
    /// The cell's closure panicked, or [`SupervisorConfig::inject`]
    /// panicked the attempt.
    Panic,
    /// The simulation latched a [`RunError::ControllerStall`].
    ControllerStall,
    /// The simulation latched a [`RunError::RetirementStall`].
    RetirementStall,
    /// The attempt exceeded the per-cell wall-clock deadline.
    Deadline,
    /// Anything else a cell closure reports (e.g. invalid configuration).
    Other,
}

impl FailureKind {
    /// Stable lower-case token used in tables, CSVs and journals.
    pub fn name(&self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::ControllerStall => "controller-stall",
            FailureKind::RetirementStall => "retirement-stall",
            FailureKind::Deadline => "deadline",
            FailureKind::Other => "other",
        }
    }

    /// Parses the [`FailureKind::name`] token back (journal quarantine
    /// records carry kinds by name).
    pub fn from_name(name: &str) -> Option<FailureKind> {
        FailureKind::all().into_iter().find(|k| k.name() == name)
    }

    /// Every kind, in taxonomy-table order.
    pub fn all() -> [FailureKind; 5] {
        [
            FailureKind::Panic,
            FailureKind::ControllerStall,
            FailureKind::RetirementStall,
            FailureKind::Deadline,
            FailureKind::Other,
        ]
    }
}

impl core::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// A structured attempt failure returned by a supervised closure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellError {
    /// Taxonomy bucket.
    pub kind: FailureKind,
    /// Human-readable diagnostic (e.g. the stall diagnostic's display).
    pub payload: String,
}

impl CellError {
    /// An [`FailureKind::Other`] error with the given message.
    pub fn other(payload: impl Into<String>) -> Self {
        CellError {
            kind: FailureKind::Other,
            payload: payload.into(),
        }
    }
}

impl From<RunError> for CellError {
    fn from(e: RunError) -> Self {
        let kind = match e {
            RunError::ControllerStall(_) => FailureKind::ControllerStall,
            RunError::RetirementStall { .. } => FailureKind::RetirementStall,
        };
        let payload = match e {
            RunError::ControllerStall(diag) => {
                format!("{e} [class {}]", diag.stall_class())
            }
            RunError::RetirementStall { .. } => e.to_string(),
        };
        CellError { kind, payload }
    }
}

/// Outcome of one supervised cell after all its attempts.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome<R> {
    /// The cell produced a value on attempt number `attempts` (1-based).
    Done {
        /// The closure's result.
        value: R,
        /// Attempts consumed, including the successful one.
        attempts: u32,
    },
    /// Every granted attempt failed; the *last* failure is recorded.
    Failed {
        /// Taxonomy bucket of the final failure.
        kind: FailureKind,
        /// Attempts consumed.
        attempts: u32,
        /// Diagnostic of the final failure.
        payload: String,
    },
}

impl<R> CellOutcome<R> {
    /// The value, if the cell completed.
    pub fn value(self) -> Option<R> {
        match self {
            CellOutcome::Done { value, .. } => Some(value),
            CellOutcome::Failed { .. } => None,
        }
    }

    /// Whether the cell completed.
    pub fn is_done(&self) -> bool {
        matches!(self, CellOutcome::Done { .. })
    }
}

/// Deterministic cell-level transient faults for the supervisor.
///
/// Where [`burst_core::FaultConfig`] injects faults into individual memory
/// accesses *inside* a simulation, this plan panics whole attempts of
/// `(benchmark, mechanism)` sweep cells — modelling the operational
/// failures (spurious panics, OOM kills) a long evaluation run meets in
/// practice. The decision is a pure function of `(seed, cell, attempt)`
/// built on [`splitmix64`], so a sweep with the same seed fails the same
/// cells on the same attempts on any host.
///
/// Because a cell can fault on at most [`TransientFaultPlan::max_failures`]
/// attempts, a supervisor granting at least that many retries always
/// converges to the fault-free result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransientFaultPlan {
    /// Seed of the deterministic decision hash.
    pub seed: u64,
    /// Probability a given attempt of a given cell fails, in permille.
    pub fail_permille: u32,
    /// Attempts `>= max_failures` never fail: bounds the retries any one
    /// cell can absorb and guarantees convergence when the supervisor
    /// grants `max_failures` retries or more.
    pub max_failures: u32,
}

impl TransientFaultPlan {
    /// A moderately hostile default: 25% of first attempts fail, no cell
    /// fails more than twice.
    pub fn new(seed: u64) -> Self {
        TransientFaultPlan {
            seed,
            fail_permille: 250,
            max_failures: 2,
        }
    }

    /// Whether attempt number `attempt` (0-based) of cell `cell` fails.
    ///
    /// Pure and stateless: same `(seed, cell, attempt)` always yields the
    /// same answer.
    pub fn should_fail(&self, cell: u64, attempt: u32) -> bool {
        if attempt >= self.max_failures || self.fail_permille == 0 {
            return false;
        }
        let key = self.seed.wrapping_mul(0xD6E8_FEB8_6659_FD93)
            ^ cell.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (u64::from(attempt) << 48);
        splitmix64(key) % 1000 < u64::from(self.fail_permille)
    }
}

/// Supervision policy: deadlines, retry budget, backoff, fault injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Wall-clock budget per *attempt*; `None` disables deadline
    /// enforcement (attempts then run inline on the worker thread, with
    /// no watchdog thread per attempt).
    pub deadline: Option<Duration>,
    /// Retries granted after the first attempt, whatever the failure
    /// kind; `max_retries + 1` attempts total.
    pub max_retries: u32,
    /// Base of the deterministic backoff: retry `k` (0-based) sleeps
    /// `backoff_base_ms << min(k, 6)` milliseconds. Zero disables sleeping.
    pub backoff_base_ms: u64,
    /// Deterministic fault injection: the selected attempts panic from
    /// inside the supervised closure, so tests and the chaos study can
    /// prove the catch_unwind isolation, the retries and the quarantine
    /// path on compute-side crashes.
    pub inject: Option<TransientFaultPlan>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            deadline: None,
            max_retries: 2,
            backoff_base_ms: 10,
            inject: None,
        }
    }
}

impl SupervisorConfig {
    /// The deterministic backoff before retry `k` (0-based).
    pub fn backoff(&self, retry: u32) -> Duration {
        Duration::from_millis(self.backoff_base_ms << retry.min(6))
    }
}

/// Fires [`SupervisorConfig::inject`] for this attempt, if the plan
/// selects it. Called from *inside* the supervised closure's
/// catch_unwind scope, so the panic exercises the real isolation path.
fn maybe_inject_panic(plan: Option<TransientFaultPlan>, idx: usize, attempt: u32) {
    #[expect(
        clippy::panic,
        reason = "deliberate chaos-plane crash point that unwinds into catch_unwind to prove panic isolation"
    )]
    if plan.is_some_and(|p| p.should_fail(idx as u64, attempt)) {
        panic!("injected panic (cell {idx}, attempt {attempt})");
    }
}

/// Extracts a printable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one attempt, isolating panics and (optionally) enforcing the
/// wall-clock deadline on a watchdog thread.
fn run_attempt<T, R, F>(
    f: &Arc<F>,
    idx: usize,
    item: &T,
    attempt: u32,
    cfg: &SupervisorConfig,
) -> Result<R, CellError>
where
    T: Clone + Send + Sync + 'static,
    R: Send + 'static,
    F: Fn(usize, &T, u32) -> Result<R, CellError> + Send + Sync + 'static,
{
    let inject = cfg.inject;
    let Some(deadline) = cfg.deadline else {
        return match catch_unwind(AssertUnwindSafe(|| {
            maybe_inject_panic(inject, idx, attempt);
            f(idx, item, attempt)
        })) {
            Ok(result) => result,
            Err(payload) => Err(CellError {
                kind: FailureKind::Panic,
                payload: panic_message(payload.as_ref()),
            }),
        };
    };
    let (tx, rx) = mpsc::channel();
    let f = Arc::clone(f);
    let item = item.clone();
    let spawned = std::thread::Builder::new()
        .name(format!("cell-{idx}-attempt-{attempt}"))
        .spawn(move || {
            let result = catch_unwind(AssertUnwindSafe(|| {
                maybe_inject_panic(inject, idx, attempt);
                f(idx, &item, attempt)
            }));
            // The receiver may be gone (deadline already expired); that is
            // fine — the attempt's result is simply discarded.
            let _ = tx.send(result);
        });
    if let Err(e) = spawned {
        return Err(CellError::other(format!(
            "could not spawn cell thread: {e}"
        )));
    }
    match rx.recv_timeout(deadline) {
        Ok(Ok(result)) => result,
        Ok(Err(payload)) => Err(CellError {
            kind: FailureKind::Panic,
            payload: panic_message(payload.as_ref()),
        }),
        Err(RecvTimeoutError::Timeout) => Err(CellError {
            kind: FailureKind::Deadline,
            payload: format!(
                "attempt exceeded the per-cell deadline of {:.3}s (thread abandoned)",
                deadline.as_secs_f64()
            ),
        }),
        // catch_unwind means the worker always sends unless the runtime
        // killed it outright; classify the silence as a panic.
        Err(RecvTimeoutError::Disconnected) => Err(CellError {
            kind: FailureKind::Panic,
            payload: "cell thread terminated without reporting a result".to_string(),
        }),
    }
}

/// Runs one cell to its final outcome: attempt, retry with deterministic
/// backoff, give up after the retry budget.
fn run_cell<T, R, F>(cfg: &SupervisorConfig, f: &Arc<F>, idx: usize, item: &T) -> CellOutcome<R>
where
    T: Clone + Send + Sync + 'static,
    R: Send + 'static,
    F: Fn(usize, &T, u32) -> Result<R, CellError> + Send + Sync + 'static,
{
    let mut attempt = 0u32;
    loop {
        let error = match run_attempt(f, idx, item, attempt, cfg) {
            Ok(value) => {
                return CellOutcome::Done {
                    value,
                    attempts: attempt + 1,
                }
            }
            Err(e) => e,
        };
        if attempt >= cfg.max_retries {
            return CellOutcome::Failed {
                kind: error.kind,
                attempts: attempt + 1,
                payload: error.payload,
            };
        }
        let pause = cfg.backoff(attempt);
        if !pause.is_zero() {
            std::thread::sleep(pause);
        }
        attempt += 1;
    }
}

/// Applies `f` to every element of `items` on [`crate::map_parallel`]'s
/// workers (`jobs`, `0` = auto-detect) under crash isolation, returning
/// one [`CellOutcome`] per item in input order.
///
/// Unlike a plain `map_parallel`, a panicking, erroring or
/// deadline-exceeding cell never propagates: it yields
/// [`CellOutcome::Failed`] and every other cell still runs. Note that the
/// default panic hook still prints to stderr when a cell panics; sweeps
/// with expected failures stay noisy but alive.
///
/// `on_complete` is invoked on the worker thread the moment each cell's
/// final outcome is known — *before* remaining cells finish. This is the
/// journalling seam: persisting each completed cell immediately (rather
/// than after the whole sweep) is what bounds a crash's damage to the
/// cell in flight. Unlike the cell closure it may borrow from the caller;
/// it must be cheap and must not panic.
pub fn supervise<T, R, F, C>(
    items: &[T],
    jobs: usize,
    cfg: &SupervisorConfig,
    f: F,
    on_complete: C,
) -> Vec<CellOutcome<R>>
where
    T: Clone + Send + Sync + 'static,
    R: Send + 'static,
    F: Fn(usize, &T, u32) -> Result<R, CellError> + Send + Sync + 'static,
    C: Fn(usize, &CellOutcome<R>) + Sync,
{
    let f = Arc::new(f);
    crate::map_parallel(items, jobs, |idx, item| {
        let outcome = run_cell(cfg, &f, idx, item);
        on_complete(idx, &outcome);
        outcome
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn quiet_cfg() -> SupervisorConfig {
        SupervisorConfig {
            backoff_base_ms: 0,
            ..SupervisorConfig::default()
        }
    }

    #[test]
    fn all_ok_cells_match_input_order() {
        let items: Vec<u64> = (0..40).collect();
        let completed = AtomicU32::new(0);
        let outcomes = supervise(
            &items,
            4,
            &quiet_cfg(),
            |i, &x, _| Ok(x * 10 + i as u64 % 10),
            |_, o| {
                assert!(o.is_done());
                completed.fetch_add(1, Ordering::SeqCst);
            },
        );
        assert_eq!(outcomes.len(), 40);
        assert_eq!(completed.into_inner(), 40, "one hook call per cell");
        for (i, o) in outcomes.into_iter().enumerate() {
            match o {
                CellOutcome::Done { value, attempts } => {
                    assert_eq!(value, (i as u64) * 10 + (i as u64) % 10);
                    assert_eq!(attempts, 1);
                }
                CellOutcome::Failed { .. } => panic!("cell {i} should succeed"),
            }
        }
    }

    #[test]
    fn panicking_cell_fails_alone_and_in_place() {
        let items: Vec<u32> = (0..9).collect();
        let outcomes = supervise(
            &items,
            3,
            &quiet_cfg(),
            |_, &x, _| {
                if x == 4 {
                    panic!("cell four exploded");
                }
                Ok(x)
            },
            |_, _| {},
        );
        for (i, o) in outcomes.iter().enumerate() {
            if i == 4 {
                let CellOutcome::Failed {
                    kind,
                    attempts,
                    payload,
                } = o
                else {
                    panic!("cell 4 must fail");
                };
                assert_eq!(*kind, FailureKind::Panic);
                assert_eq!(*attempts, 3, "default budget is 1 + 2 retries");
                assert!(payload.contains("exploded"), "{payload}");
            } else {
                assert_eq!(
                    o,
                    &CellOutcome::Done {
                        value: i as u32,
                        attempts: 1
                    }
                );
            }
        }
    }

    #[test]
    fn transient_error_succeeds_on_retry() {
        let tries = Arc::new(AtomicU32::new(0));
        let seen = Arc::clone(&tries);
        let outcomes = supervise(
            &[7u8],
            1,
            &quiet_cfg(),
            move |_, &x, attempt| {
                seen.fetch_add(1, Ordering::SeqCst);
                if attempt == 0 {
                    Err(CellError::other("first attempt wobbles"))
                } else {
                    Ok(u32::from(x))
                }
            },
            |_, _| {},
        );
        assert_eq!(
            outcomes[0],
            CellOutcome::Done {
                value: 7,
                attempts: 2
            }
        );
        assert_eq!(tries.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn retry_budget_is_bounded() {
        let cfg = SupervisorConfig {
            max_retries: 1,
            ..quiet_cfg()
        };
        let outcomes: Vec<CellOutcome<()>> = supervise(
            &[0u8],
            1,
            &cfg,
            |_, _, _| Err(CellError::other("always down")),
            |_, _| {},
        );
        assert_eq!(
            outcomes[0],
            CellOutcome::Failed {
                kind: FailureKind::Other,
                attempts: 2,
                payload: "always down".to_string(),
            }
        );
    }

    #[test]
    fn deadline_abandons_wedged_cells() {
        let cfg = SupervisorConfig {
            deadline: Some(Duration::from_millis(30)),
            max_retries: 0,
            ..quiet_cfg()
        };
        let outcomes = supervise(
            &[0u8, 1, 2],
            2,
            &cfg,
            |_, &x, _| {
                if x == 1 {
                    // Wedge far past the deadline; the supervisor abandons us.
                    std::thread::sleep(Duration::from_secs(5));
                }
                Ok(x)
            },
            |_, _| {},
        );
        assert!(outcomes[0].is_done());
        assert!(outcomes[2].is_done());
        let CellOutcome::Failed { kind, .. } = &outcomes[1] else {
            panic!("wedged cell must fail");
        };
        assert_eq!(*kind, FailureKind::Deadline);
    }

    #[test]
    fn injection_converges_within_plan_bound() {
        let plan = TransientFaultPlan {
            seed: 3,
            fail_permille: 1000, // every attempt under the bound fails
            max_failures: 2,
        };
        let cfg = SupervisorConfig {
            inject: Some(plan),
            max_retries: 2,
            ..quiet_cfg()
        };
        let items: Vec<u64> = (0..8).collect();
        let outcomes = supervise(&items, 2, &cfg, |_, &x, _| Ok(x), |_, _| {});
        for (i, o) in outcomes.into_iter().enumerate() {
            assert_eq!(
                o,
                CellOutcome::Done {
                    value: i as u64,
                    attempts: 3
                },
                "two injected panics, then success"
            );
        }
    }

    #[test]
    fn run_error_maps_into_taxonomy() {
        let e = CellError::from(RunError::RetirementStall {
            mem_cycle: 9,
            retired: 1,
            state_hash: 0,
        });
        assert_eq!(e.kind, FailureKind::RetirementStall);
        assert!(e.payload.contains("livelock"), "{}", e.payload);
    }

    #[test]
    fn injected_panics_are_isolated_and_converge() {
        let plan = TransientFaultPlan {
            seed: 5,
            fail_permille: 500,
            max_failures: 1,
        };
        let cfg = SupervisorConfig {
            inject: Some(plan),
            ..quiet_cfg()
        };
        let items: Vec<u64> = (0..16).collect();
        let outcomes = supervise(&items, 2, &cfg, |_, &x, _| Ok(x), |_, _| {});
        let hit = (0..16).filter(|&c| plan.should_fail(c, 0)).count();
        assert!(0 < hit && hit < 16, "the plan spares some cells: {hit}");
        for (i, o) in outcomes.into_iter().enumerate() {
            let attempts = if plan.should_fail(i as u64, 0) { 2 } else { 1 };
            assert_eq!(
                o,
                CellOutcome::Done {
                    value: i as u64,
                    attempts
                },
                "a panicking attempt costs its own cell one retry, no other cell"
            );
        }
    }

    #[test]
    fn injected_panics_respect_the_deadline_path_too() {
        let plan = TransientFaultPlan {
            seed: 5,
            fail_permille: 1000,
            max_failures: 10, // more than the retry budget: exhaust it
        };
        let cfg = SupervisorConfig {
            deadline: Some(Duration::from_secs(30)),
            inject: Some(plan),
            max_retries: 1,
            ..quiet_cfg()
        };
        let outcomes: Vec<CellOutcome<u8>> =
            supervise(&[9u8], 1, &cfg, |_, &x, _| Ok(x), |_, _| {});
        let CellOutcome::Failed {
            kind,
            attempts,
            payload,
        } = &outcomes[0]
        else {
            panic!("exhausted panics must fail the cell");
        };
        assert_eq!(*kind, FailureKind::Panic);
        assert_eq!(*attempts, 2);
        assert!(payload.contains("injected panic"), "{payload}");
    }

    #[test]
    fn failure_kind_names_round_trip() {
        for k in FailureKind::all() {
            assert_eq!(FailureKind::from_name(k.name()), Some(k));
        }
        assert_eq!(FailureKind::from_name("warp"), None);
        assert_eq!(FailureKind::from_name("injected"), None, "retired kind");
    }

    #[test]
    fn transient_plan_is_deterministic_and_bounded() {
        let plan = TransientFaultPlan::new(99);
        for cell in 0..200u64 {
            for attempt in 0..4u32 {
                assert_eq!(
                    plan.should_fail(cell, attempt),
                    plan.should_fail(cell, attempt)
                );
            }
            // Attempts past max_failures never fail: retries converge.
            for attempt in plan.max_failures..plan.max_failures + 8 {
                assert!(!plan.should_fail(cell, attempt));
            }
        }
        let first_attempt_failures = (0..1000u64).filter(|&c| plan.should_fail(c, 0)).count();
        assert!(
            (150..350).contains(&first_attempt_failures),
            "25% target, got {first_attempt_failures}/1000"
        );
    }

    #[test]
    fn backoff_is_deterministic_and_capped() {
        let cfg = SupervisorConfig {
            backoff_base_ms: 3,
            ..SupervisorConfig::default()
        };
        assert_eq!(cfg.backoff(0), Duration::from_millis(3));
        assert_eq!(cfg.backoff(2), Duration::from_millis(12));
        assert_eq!(cfg.backoff(6), cfg.backoff(60), "shift saturates at 6");
    }
}
