//! Integration tests of the sweep supervision layer: crash isolation,
//! deadline enforcement, retry convergence under injected transient
//! faults, and journal-based resume producing byte-identical output.

#![expect(
    clippy::disallowed_methods,
    reason = "tests set up, corrupt and clean up fixture files directly"
)]

use std::time::Duration;

use burst_core::Mechanism;
use burst_sim::experiments::Sweep;
use burst_sim::export::sweep_to_csv;
use burst_sim::journal::fingerprint;
use burst_sim::{
    real_io, supervise, CellOutcome, FailureKind, Journal, RunLength, SupervisorConfig,
    SystemConfig, TransientFaultPlan,
};
use burst_workloads::SpecBenchmark;

fn no_backoff() -> SupervisorConfig {
    SupervisorConfig {
        backoff_base_ms: 0,
        ..SupervisorConfig::default()
    }
}

/// Acceptance: a panicking cell becomes a structured `Failed` record while
/// every sibling completes, and outcomes stay in submission order.
#[test]
fn panicking_cell_is_isolated_and_siblings_complete_in_order() {
    let items: Vec<u32> = (0..8).collect();
    let cfg = SupervisorConfig {
        max_retries: 1,
        ..no_backoff()
    };
    let outcomes = supervise(
        &items,
        4,
        &cfg,
        |_, &x, _| {
            if x == 3 {
                panic!("cell {x} exploded");
            }
            Ok(x * 10)
        },
        |_, _| {},
    );
    assert_eq!(outcomes.len(), items.len());
    for (i, outcome) in outcomes.into_iter().enumerate() {
        if i == 3 {
            match outcome {
                CellOutcome::Failed {
                    kind,
                    attempts,
                    payload,
                } => {
                    assert_eq!(kind, FailureKind::Panic);
                    assert_eq!(attempts, 2, "one retry was granted");
                    assert!(payload.contains("exploded"), "payload: {payload}");
                }
                other => panic!("cell 3 must fail, got {other:?}"),
            }
        } else {
            assert_eq!(outcome.value(), Some(i as u32 * 10));
        }
    }
}

/// A cell that overruns its wall-clock deadline is reported as
/// `FailureKind::Deadline` without blocking its siblings.
#[test]
fn deadline_expiry_is_isolated() {
    let items: Vec<u32> = (0..4).collect();
    let cfg = SupervisorConfig {
        deadline: Some(Duration::from_millis(50)),
        max_retries: 0,
        ..no_backoff()
    };
    let outcomes = supervise(
        &items,
        2,
        &cfg,
        |_, &x, _| {
            if x == 1 {
                std::thread::sleep(Duration::from_millis(400));
            }
            Ok(x)
        },
        |_, _| {},
    );
    for (i, outcome) in outcomes.into_iter().enumerate() {
        if i == 1 {
            match outcome {
                CellOutcome::Failed { kind, attempts, .. } => {
                    assert_eq!(kind, FailureKind::Deadline);
                    assert_eq!(attempts, 1);
                }
                other => panic!("cell 1 must time out, got {other:?}"),
            }
        } else {
            assert_eq!(outcome.value(), Some(i as u32));
        }
    }
}

/// Outcomes come back in item order regardless of worker count.
#[test]
fn outcomes_preserve_item_order_across_job_counts() {
    let items: Vec<u64> = (0..32).collect();
    for jobs in [1usize, 3, 8] {
        let outcomes = supervise(&items, jobs, &no_backoff(), |_, &x, _| Ok(x + 1), |_, _| {});
        let values: Vec<u64> = outcomes
            .into_iter()
            .map(|o| o.value().expect("all cells succeed"))
            .collect();
        assert_eq!(values, (1..=32).collect::<Vec<u64>>(), "jobs={jobs}");
    }
}

/// Proptest-style acceptance: across many fault-plan seeds, a sweep whose
/// attempts panic transiently converges — after retries — to exactly the
/// reports of a fault-free sweep. The injection plan's `max_failures`
/// bound guarantees convergence whenever the supervisor grants at least
/// that many retries.
#[test]
fn injected_transient_faults_converge_to_fault_free_sweep() {
    let base = SystemConfig::baseline();
    let benches = [SpecBenchmark::Swim, SpecBenchmark::Gzip];
    let mechs = [Mechanism::BkInOrder, Mechanism::BurstTh(52)];
    let len = RunLength::Instructions(2_000);
    let clean = Sweep::run_supervised(
        "t",
        &base,
        &benches,
        &mechs,
        len,
        11,
        2,
        &no_backoff(),
        None,
        None,
    );
    assert!(clean.ok(), "fault-free sweep completes");
    let want: Vec<_> = clean.value.cells.iter().map(|c| &c.report).collect();
    for seed in 0..8u64 {
        let sup = SupervisorConfig {
            max_retries: 3,
            inject: Some(TransientFaultPlan {
                seed,
                fail_permille: 400,
                max_failures: 3,
            }),
            ..no_backoff()
        };
        let faulty =
            Sweep::run_supervised("t", &base, &benches, &mechs, len, 11, 2, &sup, None, None);
        assert!(
            faulty.ok(),
            "seed {seed}: retries must absorb transient faults: {:?}",
            faulty.failures
        );
        assert_eq!(faulty.resumed, 0);
        let got: Vec<_> = faulty.value.cells.iter().map(|c| &c.report).collect();
        assert_eq!(got, want, "seed {seed}: reports must match fault-free run");
    }
}

/// End-to-end crash simulation at the library level: journal a sweep,
/// truncate the file mid-record as a crash would, resume, and demand a
/// byte-identical CSV versus the uninterrupted run.
#[test]
fn truncated_journal_resume_reproduces_byte_identical_csv() {
    let dir = std::env::temp_dir().join(format!("burst-supervision-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("sweep.journal");
    let _ = std::fs::remove_file(&path);

    let base = SystemConfig::baseline();
    let benches = [SpecBenchmark::Swim, SpecBenchmark::Gzip];
    let mechs = [
        Mechanism::BkInOrder,
        Mechanism::RowHit,
        Mechanism::BurstTh(52),
    ];
    let len = RunLength::Instructions(2_000);
    let total = benches.len() * mechs.len();
    let run = |journal: Option<&Journal>| {
        Sweep::run_supervised(
            "t",
            &base,
            &benches,
            &mechs,
            len,
            11,
            2,
            &no_backoff(),
            journal,
            None,
        )
    };

    let clean = run(None);
    assert!(clean.ok());
    let want = sweep_to_csv(&clean.value);

    let fp = fingerprint("supervision itest v1");
    {
        let journal = Journal::create(&path, fp, real_io()).expect("create journal");
        assert!(run(Some(&journal)).ok());
    }
    // Simulate a SIGKILL mid-append: chop the file inside the last record,
    // leaving a partial line with no trailing newline.
    let bytes = std::fs::read(&path).expect("read journal");
    assert!(bytes.ends_with(b"\n"));
    std::fs::write(&path, &bytes[..bytes.len() - 10]).expect("truncate journal");

    let journal = Journal::resume(&path, fp, real_io()).expect("resume journal");
    assert!(journal.completed_cells() < total, "tail record was dropped");
    assert!(journal.completed_cells() > 0, "whole records survive");
    assert_eq!(journal.ignored_lines(), 1, "exactly the truncated tail");

    let resumed = run(Some(&journal));
    assert!(resumed.ok());
    assert_eq!(resumed.resumed, journal.completed_cells());
    assert_eq!(
        sweep_to_csv(&resumed.value),
        want,
        "resumed CSV must be byte-identical to the uninterrupted run"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
