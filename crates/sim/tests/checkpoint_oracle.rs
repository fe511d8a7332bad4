//! Acceptance tests for the checkpoint/restore layer and the lockstep
//! oracle: a run paused at an arbitrary memory cycle — mid-burst,
//! mid-refresh, wherever the budget lands — then checkpointed to disk,
//! reloaded and continued must produce a byte-identical [`SimReport`];
//! and the oracle must pass cleanly over the full paper mechanism set
//! while pinpointing the exact first divergent cycle under an artificial
//! perturbation.

#![expect(
    clippy::disallowed_methods,
    reason = "tests set up, corrupt and clean up fixture files directly"
)]

use burst_core::Mechanism;
use burst_sim::journal::fingerprint;
use burst_sim::{
    oracle_simulate, try_simulate, Checkpoint, ChunkOutcome, OracleConfig, OracleError,
    PerturbKind, Perturbation, RealIo, RunCursor, RunLength, System, SystemConfig,
};
use burst_snap::SnapWriter;
use burst_workloads::{CountingSource, SpecBenchmark};
use proptest::prelude::*;

fn config(mechanism: Mechanism) -> SystemConfig {
    SystemConfig::baseline()
        .with_mechanism(mechanism)
        .with_warm_mem_ops(1_000)
}

proptest! {
    // Each case runs two full simulations plus a disk round-trip: keep
    // the case count modest.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Restore-then-continue equals never-interrupted, for random seeds,
    /// mechanisms and pause cycles. The pause budget is an arbitrary
    /// memory-cycle count, so checkpoints land mid-burst and mid-refresh
    /// as often as anywhere else.
    #[test]
    fn checkpoint_restore_round_trip_is_byte_identical(
        seed in any::<u64>(),
        mech_idx in 0usize..8,
        bench_idx in 0usize..3,
        pause in 200u64..4_000,
    ) {
        let mechanism = Mechanism::all_paper()[mech_idx];
        let bench = [
            SpecBenchmark::Mcf,
            SpecBenchmark::Swim,
            SpecBenchmark::Parser,
        ][bench_idx];
        let cfg = config(mechanism);
        let len = RunLength::Instructions(1_500);
        let reference = try_simulate(&cfg, bench.workload(seed), len)
            .expect("reference run");

        // Run until the pause budget expires, checkpoint through the
        // full on-disk format, then abandon the first system.
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "burst-ckpt-prop-{}-{seed:x}-{mech_idx}-{bench_idx}-{pause}.ckpt",
            std::process::id()
        ));
        let fp = fingerprint("checkpoint proptest");
        let mut sys = System::new(&cfg);
        let mut w = CountingSource::new(bench.workload(seed));
        sys.warm(&mut w);
        let mut cursor = RunCursor::start(&sys);
        let outcome = sys
            .try_run_chunk(&mut w, len, &mut cursor, pause)
            .expect("paused run");
        if outcome == ChunkOutcome::Done {
            // The whole run fit inside the budget: nothing to restore,
            // the direct report must already match.
            prop_assert_eq!(sys.report(bench.name()), reference);
            return Ok(());
        }
        Checkpoint::capture(&sys, fp, w.consumed(), cursor)
            .expect("capture")
            .save_with(&path, &mut SnapWriter::new(), true)
            .expect("save");
        drop(sys);

        // Reload from disk into a fresh system and continue to the end.
        let ckpt = Checkpoint::load(&path, fp, &RealIo).expect("load");
        let _ = std::fs::remove_file(&path);
        let mut sys = System::new(&cfg);
        ckpt.restore_into(&mut sys).expect("restore");
        let mut w = CountingSource::new(bench.workload(seed));
        w.skip(ckpt.ops_consumed);
        let mut cursor = ckpt.cursor;
        loop {
            match sys
                .try_run_chunk(&mut w, len, &mut cursor, u64::MAX)
                .expect("continued run")
            {
                ChunkOutcome::Done => break,
                ChunkOutcome::Paused => {}
            }
        }
        prop_assert_eq!(
            sys.report(bench.name()),
            reference,
            "restored run diverged for {} on {}",
            mechanism.name(),
            bench.name()
        );
    }
}

/// The acceptance gate for `--oracle`: every paper mechanism's
/// skip-enabled engine stays in lockstep with the per-cycle reference
/// to the end of the run, and the oracle's report equals the plain one.
#[test]
fn oracle_passes_cleanly_on_the_full_paper_mechanism_set() {
    let len = RunLength::Instructions(4_000);
    for m in Mechanism::all_paper() {
        let cfg = config(m);
        let oracle = oracle_simulate(
            &cfg,
            || SpecBenchmark::Swim.workload(9),
            len,
            &OracleConfig { epoch: 1_024 },
            None,
        )
        .unwrap_or_else(|e| panic!("oracle failed for {}: {e}", m.name()));
        let plain = try_simulate(&cfg, SpecBenchmark::Swim.workload(9), len).expect("plain run");
        assert_eq!(oracle, plain, "oracle must not perturb {}", m.name());
    }
}

/// Bisection precision: a perturbation injected at one exact cycle is
/// reported at that exact cycle, for several cycles and epochs (the
/// perturbation cycle falls at different offsets inside the epoch).
#[test]
fn oracle_bisects_perturbations_to_their_exact_cycle() {
    for (at, epoch) in [(2_111u64, 512u64), (5_000, 2_048), (7_777, 1_000)] {
        let err = oracle_simulate(
            &config(Mechanism::BurstTh(52)),
            || SpecBenchmark::Mcf.workload(21),
            RunLength::Instructions(30_000),
            &OracleConfig { epoch },
            Some(Perturbation {
                at,
                kind: PerturbKind::StallAccounting(3),
            }),
        )
        .expect_err("perturbed engines must diverge");
        match err {
            OracleError::Divergence(d) => {
                assert_eq!(
                    d.first_divergent_cycle, at,
                    "bisection missed the perturbed cycle (epoch {epoch})"
                );
                assert_eq!(d.divergent_components(), vec!["cpu"]);
            }
            other => panic!("expected a divergence, got {other}"),
        }
    }
}
