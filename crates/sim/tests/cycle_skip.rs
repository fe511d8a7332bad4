//! Determinism gate for clock jumping: skipping cycles — quiescent *and*
//! busy stretches under the discrete-event [`Engine::Event`] — must be
//! invisible in every output. A run under the event engine must produce a
//! [`SimReport`] equal field by field to the per-cycle reference — statistics,
//! histograms, robustness counters, everything — for every mechanism, and
//! the device's `next_event` horizon must never overshoot a cycle in
//! which a tick would have changed state.

use burst_core::Mechanism;
use burst_dram::{Channel, Command, Cycle, Dir, DramConfig, Loc, RowState};
use burst_sim::{simulate, Engine, RunLength, SimReport, System, SystemConfig};
use burst_workloads::SpecBenchmark;
use proptest::prelude::*;

/// All mechanisms, paper set plus extensions — every `AccessScheduler`
/// implementation must honour the batch-advance contract.
fn all_mechanisms() -> Vec<Mechanism> {
    let mut v = Mechanism::all_paper().to_vec();
    v.extend([
        Mechanism::BurstDyn,
        Mechanism::BurstCrit,
        Mechanism::AdaptiveHistory,
    ]);
    v
}

fn config(mechanism: Mechanism, engine: Engine) -> SystemConfig {
    SystemConfig::baseline()
        .with_mechanism(mechanism)
        .with_warm_mem_ops(5_000)
        .with_engine(engine)
}

/// Runs `bench` under both engines, asserts the reports are equal and
/// returns the event engine's.
fn engines_agree(m: Mechanism, bench: SpecBenchmark, seed: u64, len: RunLength) -> SimReport {
    let reference = simulate(&config(m, Engine::CycleNoSkip), bench.workload(seed), len);
    let event = simulate(&config(m, Engine::Event), bench.workload(seed), len);
    assert_eq!(event, reference, "event engine changed {}", m.name());
    event
}

#[test]
fn every_engine_is_bit_identical_on_idle_heavy_workload() {
    // mcf is 80% pointer chase (MLP 1): the CPU spends most of its time
    // fully stalled, so this workload maximises skipping opportunity.
    for m in all_mechanisms() {
        engines_agree(m, SpecBenchmark::Mcf, 7, RunLength::Instructions(2_000));
    }
}

#[test]
fn event_engine_is_bit_identical_on_bandwidth_bound_workload() {
    // swim streams with high MLP: the memory system is busy almost
    // throughout, so this workload exercises the event engine's
    // busy-period jumps (quiescent skipping barely fires here).
    for m in all_mechanisms() {
        engines_agree(m, SpecBenchmark::Swim, 13, RunLength::Instructions(2_000));
    }
}

#[test]
fn every_engine_is_bit_identical_in_mem_cycles_mode() {
    // MemCycles mode exercises the budget-capped skip loop: the jump must
    // stop exactly at the cycle budget, never overshoot it.
    for m in [Mechanism::BkInOrder, Mechanism::BurstTh(52)] {
        let event = engines_agree(m, SpecBenchmark::Mcf, 11, RunLength::MemCycles(40_000));
        assert_eq!(event.mem_cycles, 40_000, "budget must be exact");
    }
}

#[test]
fn skip_actually_engages_on_idle_heavy_workload() {
    // Guard against the equality tests passing vacuously because the
    // horizon never fires: on a pointer chase a large share of cycles
    // must be jumped, not stepped, and quiescent jumps must be among them.
    let cfg = config(Mechanism::BurstTh(52), Engine::Event);
    let mut workload = SpecBenchmark::Mcf.workload(7);
    let mut sys = System::new(&cfg);
    sys.warm(&mut workload);
    sys.run(&mut workload, RunLength::Instructions(2_000));
    assert!(
        sys.skipped_cycles() > sys.mem_cycle() / 4,
        "only {} of {} cycles were skipped on an idle-heavy workload",
        sys.skipped_cycles(),
        sys.mem_cycle()
    );
    assert!(
        sys.engine_stats().quiescent_jumps > 0,
        "no quiescent jumps on an idle-heavy workload: {:?}",
        sys.engine_stats()
    );

    let mut workload = SpecBenchmark::Mcf.workload(7);
    let mut off = System::new(&cfg.with_engine(Engine::CycleNoSkip));
    off.warm(&mut workload);
    off.run(&mut workload, RunLength::Instructions(2_000));
    assert_eq!(
        off.skipped_cycles(),
        0,
        "the no-skip engine must never jump"
    );
}

#[test]
fn event_engine_actually_takes_busy_jumps() {
    // The busy-skip analogue of the vacuity guard: the event engine must
    // take real busy-period jumps, and its counters must account for
    // every cycle of the run.
    //
    // Calibration note: a bandwidth-bound stream (swim) is the WRONG
    // workload for a coverage floor. Its busy phases are event-dense by
    // nature — an arrival, delivery or transaction issue lands on almost
    // every cycle, so the horizon's veto arms correctly refuse to jump
    // (measured: 20 of 6369 cycles jumped at this budget; a 10% floor can
    // never hold and would only pass if the fold over-jumped, i.e. if it
    // were WRONG). Swim therefore checks only that the machinery engages
    // at all and that the accounting is exact. The coverage floor lives
    // on the pointer chase below, where stalled spans between bursts make
    // provable busy stretches common (measured: ~3.4% of cycles at this
    // budget; floored at 2% for headroom across timing-neutral refactors).
    let cfg = config(Mechanism::BurstTh(52), Engine::Event);
    let mut workload = SpecBenchmark::Swim.workload(7);
    let mut sys = System::new(&cfg);
    sys.warm(&mut workload);
    sys.run(&mut workload, RunLength::Instructions(5_000));
    let stats = sys.engine_stats();
    assert!(
        stats.busy_jumps > 0,
        "no busy jumps on a bandwidth-bound workload: {stats:?}"
    );
    assert_eq!(
        stats.steps + stats.skipped(),
        sys.mem_cycle(),
        "every cycle must be either stepped or jumped"
    );

    // Coverage floor on the idle-heavy workload: busy jumps must carry a
    // macroscopic share of the run, proving the fold finds real stretches.
    let mut workload = SpecBenchmark::Mcf.workload(7);
    let mut chase = System::new(&cfg);
    chase.warm(&mut workload);
    chase.run(&mut workload, RunLength::Instructions(2_000));
    let chase_stats = chase.engine_stats();
    assert!(
        chase_stats.busy_jumps > 0,
        "no busy jumps on a pointer chase: {chase_stats:?}"
    );
    assert!(
        chase_stats.busy_skipped > chase.mem_cycle() / 50,
        "busy jumps covered only {} of {} cycles",
        chase_stats.busy_skipped,
        chase.mem_cycle()
    );
    assert_eq!(
        chase_stats.steps + chase_stats.skipped(),
        chase.mem_cycle(),
        "every cycle must be either stepped or jumped"
    );
}

/// A request the greedy driver will execute: bank, row, col, read/write.
#[derive(Debug, Clone, Copy)]
struct Req {
    bank: u8,
    row: u32,
    col: u32,
    write: bool,
}

fn req_strategy(banks: u8, rows: u32, cols: u32) -> impl Strategy<Value = Req> {
    (0..banks, 0..rows, 0..cols, any::<bool>()).prop_map(|(bank, row, col, write)| Req {
        bank,
        row,
        col: col * 8,
        write,
    })
}

/// Greedily executes requests in order on one channel (ticking every
/// cycle), returning the channel and the last ticked cycle.
fn drive(cfg: DramConfig, reqs: &[Req]) -> (Channel, Cycle) {
    let mut ch = Channel::new(cfg);
    let mut now: Cycle = 0;
    for r in reqs {
        let loc = Loc::new(0, 0, r.bank, r.row, r.col);
        let dir = if r.write { Dir::Write } else { Dir::Read };
        loop {
            ch.tick(now);
            let cmd = match ch.row_state(loc) {
                RowState::Hit => Command::Column {
                    loc,
                    dir,
                    auto_precharge: false,
                },
                RowState::Empty => Command::Activate(loc),
                RowState::Conflict => Command::Precharge(loc),
            };
            if ch.can_issue(&cmd, now) {
                ch.issue(&cmd, now);
                if cmd.is_column() {
                    break;
                }
            }
            now += 1;
            assert!(now < 1_000_000, "driver stuck");
        }
        now += 1; // command bus: one command per cycle
    }
    ch.tick(now);
    (ch, now)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Channel::next_event` never overshoots: after any legal command
    /// history, every tick strictly before the reported horizon leaves
    /// the channel bit-identical (no refresh marked, performed or
    /// rescheduled, no window expired observably).
    #[test]
    fn channel_next_event_never_overshoots(
        reqs in prop::collection::vec(req_strategy(4, 16, 8), 1..30),
    ) {
        let mut cfg = DramConfig::small();
        // A short refresh interval puts several refresh events inside the
        // probed window, the hardest part of the horizon computation.
        cfg.timing.t_refi = 150;
        let (mut ch, now) = drive(cfg, &reqs);
        let Some(event) = ch.next_event(now) else {
            return Ok(());
        };
        prop_assert!(event > now, "horizon must be in the future");
        let snapshot = format!("{ch:?}");
        for t in now + 1..event {
            ch.tick(t);
        }
        prop_assert_eq!(
            format!("{ch:?}"),
            snapshot,
            "a tick before the horizon changed channel state"
        );
    }

}

proptest! {
    // Two full simulations per case: keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Full-system equivalence on random seeds and mechanisms: the engine
    /// choice must never change a report, whatever the traffic pattern.
    #[test]
    fn engine_equivalence_on_random_seeds(
        seed in any::<u64>(),
        mech_idx in 0usize..11,
        bench_idx in 0usize..3,
    ) {
        let mechanism = all_mechanisms()[mech_idx];
        let bench = [
            SpecBenchmark::Mcf,
            SpecBenchmark::Swim,
            SpecBenchmark::Parser,
        ][bench_idx];
        let len = RunLength::Instructions(800);
        let reference = simulate(
            &config(mechanism, Engine::CycleNoSkip), bench.workload(seed), len);
        let event = simulate(&config(mechanism, Engine::Event), bench.workload(seed), len);
        prop_assert_eq!(&event, &reference, "the event engine diverged");
    }
}
