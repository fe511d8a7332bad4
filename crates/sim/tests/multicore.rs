//! One `System` for any core count: several cores with private cache
//! hierarchies sharing one controller get the same engines, run loop,
//! snapshots and structured errors as a single core (the dead-controller
//! stall on two cores lives with its single-core twin in `robustness.rs`).
//! The event engine must stay bit-identical to the per-cycle reference with
//! more than one core — in every report and in the state hash at every
//! pause — and must really jump there, so the equality cannot pass
//! vacuously.

use std::num::NonZeroUsize;

use burst_core::Mechanism;
use burst_sim::{simulate, ChunkOutcome, Engine, RunCursor, RunLength, System, SystemConfig};
use burst_workloads::{CountingSource, MixWorkload, OpSource, SpecBenchmark};

/// The `cmp` study's spread: streaming, integer, pointer chasing.
const CMP_MIX: [SpecBenchmark; 4] = [
    SpecBenchmark::Swim,
    SpecBenchmark::Gcc,
    SpecBenchmark::Mcf,
    SpecBenchmark::Art,
];

fn config(mechanism: Mechanism, engine: Engine) -> SystemConfig {
    SystemConfig::baseline()
        .with_mechanism(mechanism)
        .with_warm_mem_ops(2_000)
        .with_engine(engine)
}

/// One workload per core from `picks`, cycling, seeded `seed + core`.
fn mix(picks: &[SpecBenchmark], n: usize, seed: u64) -> Vec<CountingSource<MixWorkload>> {
    (0..n)
        .map(|i| CountingSource::new(picks[i % picks.len()].workload(seed + i as u64)))
        .collect()
}

fn sources<W: OpSource>(workloads: &mut [W]) -> Vec<&mut dyn OpSource> {
    workloads
        .iter_mut()
        .map(|w| w as &mut dyn OpSource)
        .collect()
}

/// An idle `n`-core system for `cfg`.
fn system(cfg: &SystemConfig, n: usize) -> System {
    System::with_cores(cfg, cfg.scheduler(), NonZeroUsize::new(n).expect("n > 0"))
}

/// A warmed `n`-core system, one workload per core.
fn warmed(cfg: &SystemConfig, workloads: &mut [impl OpSource]) -> System {
    let mut sys = system(cfg, workloads.len());
    sys.warm_cores(&mut sources(workloads));
    sys
}

/// Warms and runs a system with one core per workload to `len`.
fn run(cfg: &SystemConfig, workloads: &mut [impl OpSource], len: RunLength) -> System {
    let mut sys = warmed(cfg, workloads);
    sys.try_run_cores(&mut sources(workloads), len)
        .expect("the run makes progress");
    sys
}

#[test]
fn event_engine_matches_the_reference_on_two_and_four_cores() {
    for n in [2, 4] {
        let len = RunLength::Instructions(1_500 * n as u64);
        for m in Mechanism::all() {
            let sim = |engine| run(&config(m, engine), &mut mix(&CMP_MIX, n, 7), len);
            assert_eq!(
                sim(Engine::Event).report("mix"),
                sim(Engine::CycleNoSkip).report("mix"),
                "{n} cores: the event engine changed the report for {}",
                m.name()
            );
        }
    }
}

#[test]
fn state_hashes_agree_between_engines_at_every_pause() {
    let len = RunLength::Instructions(3_000);
    let start = |engine| {
        let mut w = mix(&CMP_MIX, 2, 3);
        let sys = warmed(&config(Mechanism::BurstTh(52), engine), &mut w);
        (RunCursor::start(&sys), sys, w)
    };
    let (mut ec, mut event, mut ew) = start(Engine::Event);
    let (mut rc, mut reference, mut rw) = start(Engine::CycleNoSkip);
    for pause in 0.. {
        let a = event.try_run_chunk_cores(&mut sources(&mut ew), len, &mut ec, 400);
        let b = reference.try_run_chunk_cores(&mut sources(&mut rw), len, &mut rc, 400);
        let (a, b) = (a.unwrap(), b.unwrap());
        assert_eq!(a, b, "engines paused differently");
        assert_eq!(
            event.component_hashes().unwrap(),
            reference.component_hashes().unwrap(),
            "state diverged by cycle {}",
            event.mem_cycle()
        );
        if a == ChunkOutcome::Done {
            assert!(pause >= 3, "only {pause} pauses: the budget never bit");
            break;
        }
    }
}

#[test]
fn event_engine_takes_quiescent_and_busy_jumps_on_two_cores() {
    let cfg = config(Mechanism::BurstTh(52), Engine::Event);
    let sys = run(
        &cfg,
        &mut mix(&[SpecBenchmark::Mcf], 2, 7),
        RunLength::Instructions(3_000),
    );
    let stats = sys.engine_stats();
    assert!(stats.quiescent_jumps > 0, "no quiescent jumps: {stats:?}");
    assert!(stats.busy_jumps > 0, "no busy jumps: {stats:?}");
    assert_eq!(stats.steps + stats.skipped(), sys.mem_cycle());
}

#[test]
fn two_core_checkpoint_restores_and_finishes_identically() {
    let cfg = config(Mechanism::BurstTh(52), Engine::Event);
    let len = RunLength::Instructions(3_000);
    let reference = run(&cfg, &mut mix(&CMP_MIX, 2, 5), len).report("mix");

    let mut w = mix(&CMP_MIX, 2, 5);
    let mut sys = warmed(&cfg, &mut w);
    let mut cursor = RunCursor::start(&sys);
    let outcome = sys.try_run_chunk_cores(&mut sources(&mut w), len, &mut cursor, 1_500);
    assert_eq!(outcome.unwrap(), ChunkOutcome::Paused, "budget must pause");
    let snap = sys.checkpoint().unwrap();

    let mut restored = system(&cfg, 2);
    restored.restore(&snap.bytes).unwrap();
    assert_eq!(
        restored.checkpoint().unwrap(),
        snap,
        "re-serialises identically"
    );
    let mut rw = mix(&CMP_MIX, 2, 5);
    for (fresh, used) in rw.iter_mut().zip(&w) {
        fresh.skip(used.consumed());
    }
    restored
        .try_run_chunk_cores(&mut sources(&mut rw), len, &mut cursor, u64::MAX)
        .unwrap();
    assert_eq!(restored.report("mix"), reference);

    for n in [1, 4] {
        let err = system(&cfg, n).restore(&snap.bytes);
        assert!(
            err.is_err(),
            "a two-core snapshot restored into {n} core(s)"
        );
    }
}

#[test]
fn dual_core_runs_and_both_cores_progress() {
    let cfg = config(Mechanism::BurstTh(52), Engine::Event);
    let sys = run(
        &cfg,
        &mut mix(&CMP_MIX, 2, 7),
        RunLength::Instructions(6_000),
    );
    for core in 0..2 {
        assert!(sys.core_retired(core) > 0, "core {core} starved");
    }
    assert_eq!(sys.report("cmp2").instructions, sys.retired());
    assert_eq!(sys.retired(), sys.core_retired(0) + sys.core_retired(1));
}

#[test]
#[expect(
    clippy::disallowed_types,
    reason = "compares report-only float latencies"
)]
fn quad_core_contends_more_than_single() {
    let latency = |n: usize| -> f64 {
        let cfg = config(Mechanism::BkInOrder, Engine::Event);
        let len = RunLength::Instructions(3_000 * n as u64);
        let sys = run(&cfg, &mut mix(&CMP_MIX, n, 7), len);
        sys.report("x").ctrl.avg_read_latency()
    };
    let (single, quad) = (latency(1), latency(4));
    assert!(quad > single, "no contention: {quad:.1} vs {single:.1}");
}

#[test]
fn single_core_cmp_matches_system_shape() {
    // One core through `with_cores` is exactly `System::new`: core 0's
    // addresses are untranslated and the round-robin hand-off degenerates.
    let cfg = config(Mechanism::Burst, Engine::Event);
    let len = RunLength::Instructions(3_000);
    let mut w = [SpecBenchmark::Swim.workload(42)];
    let one = run(&cfg, &mut w, len).report(w[0].name());
    assert_eq!(one, simulate(&cfg, SpecBenchmark::Swim.workload(42), len));
}
