//! Event-engine contract tests.
//!
//! Two layers of defence for the discrete-event core:
//!
//! 1. A property test of the [`AccessScheduler`] busy-event contract at
//!    the component level: after arbitrary traffic, the event reported by
//!    `next_busy_event` is never stale (it lies strictly after the cycle
//!    it was evaluated at) and never overshot — replaying the blocked
//!    stretch with `advance_blocked` leaves the scheduler bit-identical
//!    to ticking every cycle, and the device untouched.
//! 2. End-to-end equivalence of every figure pipeline: each experiment
//!    driver run under [`Engine::Event`] must export byte-identical CSVs
//!    to the per-cycle reference engine.

use burst_core::{Access, AccessId, AccessKind, AccessScheduler, CtrlConfig, Mechanism};
use burst_dram::{AddressMapping, Dram, DramConfig, Loc, PhysAddr};
use burst_sim::experiments::{fig11_with_config, fig12_with_config, fig8_with_config, Sweep};
use burst_sim::export::{
    fig10_to_csv, fig12_to_csv, fig7_to_csv, fig9_to_csv, outstanding_to_csv, sweep_to_csv,
};
use burst_sim::{Engine, RunLength, SystemConfig};
use burst_snap::{SnapReader, SnapWriter};
use burst_workloads::SpecBenchmark;
use proptest::prelude::*;

fn all_mechanisms() -> Vec<Mechanism> {
    let mut v = Mechanism::all_paper().to_vec();
    v.extend([
        Mechanism::BurstDyn,
        Mechanism::BurstCrit,
        Mechanism::AdaptiveHistory,
    ]);
    v
}

// ---------------------------------------------------------------------------
// Component-level contract: next_busy_event / advance_blocked.
// ---------------------------------------------------------------------------

/// One request of the random traffic pattern: where it lands, its
/// direction, and how many cycles to tick before offering the next one.
#[derive(Debug, Clone, Copy)]
struct Req {
    bank: u8,
    row: u32,
    col: u32,
    write: bool,
    gap: u8,
}

fn req_strategy() -> impl Strategy<Value = Req> {
    (0u8..4, 0u32..8, 0u32..16, any::<bool>(), 0u8..12).prop_map(|(bank, row, col, write, gap)| {
        Req {
            bank,
            row,
            // Bus-width units; stay inside the small geometry's 256 columns.
            col: col * 8,
            write,
            gap,
        }
    })
}

fn scheduler_bytes(sched: &dyn AccessScheduler) -> Vec<u8> {
    let mut w = SnapWriter::new();
    sched
        .save_state(&mut w)
        .expect("in-tree schedulers support checkpointing");
    w.into_bytes()
}

fn dram_bytes(dram: &Dram) -> Vec<u8> {
    let mut w = SnapWriter::new();
    dram.save_snap(&mut w);
    w.into_bytes()
}

fn clone_scheduler(
    mechanism: Mechanism,
    cfg: CtrlConfig,
    dcfg: &DramConfig,
    bytes: &[u8],
) -> Box<dyn AccessScheduler> {
    let mut twin = mechanism.build(cfg, dcfg.geometry);
    let mut r = SnapReader::new(bytes);
    twin.load_state(&mut r).expect("snapshot round-trips");
    r.finish().expect("snapshot fully consumed");
    twin
}

fn clone_dram(dcfg: &DramConfig, bytes: &[u8]) -> Dram {
    let mut twin = Dram::new(*dcfg, AddressMapping::PageInterleaving);
    let mut r = SnapReader::new(bytes);
    twin.load_snap(&mut r).expect("device snapshot round-trips");
    r.finish().expect("device snapshot fully consumed");
    twin
}

/// Validates the busy-event contract at cycle `now` (the next cycle to be
/// ticked): the reported event must lie strictly after `now - 1`, no
/// completion may surface strictly before it, and batch-replaying the
/// blocked stretch must be bit-identical to ticking through it.
fn check_busy_event_contract(
    mechanism: Mechanism,
    cfg: CtrlConfig,
    dcfg: &DramConfig,
    sched: &mut Box<dyn AccessScheduler>,
    dram: &Dram,
    now: u64,
) -> Result<(), TestCaseError> {
    if sched.quiescent() {
        return Ok(());
    }
    let last = now - 1;
    let Some(event) = sched.next_busy_event(dram, last) else {
        return Ok(());
    };
    // Never stale: the event lies strictly after the cycle it was
    // evaluated at (event == now means "step the next cycle", which is
    // valid; event <= last would replay an already-executed cycle).
    prop_assert!(
        event > last,
        "{}: stale busy event {event} at last ticked cycle {last}",
        mechanism.name()
    );
    // The jump is also bounded by the device horizon, exactly as the
    // system's busy_horizon folds it.
    let bound = dram.next_event(last).map_or(event, |d| event.min(d));
    // Cap the replay so pathological horizons stay cheap to verify.
    let n = bound.saturating_sub(now).min(64);
    if n == 0 {
        return Ok(());
    }

    let sched_snap = scheduler_bytes(sched.as_ref());
    let dram_snap = dram_bytes(dram);
    let mut ticker = clone_scheduler(mechanism, cfg, dcfg, &sched_snap);
    let mut dram_twin = clone_dram(dcfg, &dram_snap);
    let mut completions = Vec::new();
    for t in now..now + n {
        ticker.tick(&mut dram_twin, t, &mut completions);
        prop_assert!(
            completions.is_empty(),
            "{}: completion at cycle {t} inside blocked stretch ending at {event}",
            mechanism.name()
        );
    }
    let mut jumper = clone_scheduler(mechanism, cfg, dcfg, &sched_snap);
    jumper.advance_blocked(now, n);
    prop_assert_eq!(
        scheduler_bytes(ticker.as_ref()),
        scheduler_bytes(jumper.as_ref()),
        "{}: advance_blocked({now}, {n}) diverged from ticking",
        mechanism.name()
    );
    // The device must sit still across the whole blocked stretch: the
    // system never ticks it inside a busy jump.
    prop_assert_eq!(
        dram_bytes(&dram_twin),
        dram_snap,
        "{}: device state changed before its own horizon",
        mechanism.name()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The busy-event contract holds for every scheduler under random
    /// traffic: never stale, never overshot, batch replay bit-identical.
    #[test]
    fn next_busy_event_is_never_stale_and_never_overshot(
        mech_idx in 0usize..11,
        reqs in prop::collection::vec(req_strategy(), 1..24),
    ) {
        let mechanism = all_mechanisms()[mech_idx];
        let cfg = CtrlConfig::baseline();
        let dcfg = DramConfig::small();
        let mut dram = Dram::new(dcfg, AddressMapping::PageInterleaving);
        let mut sched = mechanism.build(cfg, dcfg.geometry);
        let mut completions = Vec::new();
        let mut now: u64 = 0;
        let mut next_id: u64 = 0;

        for req in &reqs {
            let kind = if req.write { AccessKind::Write } else { AccessKind::Read };
            if sched.can_accept(kind) {
                let loc = Loc::new(0, 0, req.bank, req.row, req.col);
                // A loc-derived address so repeated locations exercise
                // write-queue forwarding.
                let addr = PhysAddr::new(
                    (u64::from(req.bank) << 40) | (u64::from(req.row) << 20) | u64::from(req.col),
                );
                let access = Access::new(AccessId::new(next_id), kind, addr, loc, now);
                next_id += 1;
                sched.enqueue(access, now, &mut completions);
                completions.clear();
            }
            for _ in 0..=req.gap {
                sched.tick(&mut dram, now, &mut completions);
                completions.clear();
                now += 1;
            }
            check_busy_event_contract(mechanism, cfg, &dcfg, &mut sched, &dram, now)?;
        }

        // Drain, re-validating the contract periodically until quiescence.
        let mut guard = 0u64;
        while !sched.quiescent() {
            sched.tick(&mut dram, now, &mut completions);
            completions.clear();
            now += 1;
            if guard.is_multiple_of(16) {
                check_busy_event_contract(mechanism, cfg, &dcfg, &mut sched, &dram, now)?;
            }
            guard += 1;
            prop_assert!(guard < 100_000, "{}: drain did not converge", mechanism.name());
        }
    }
}

// ---------------------------------------------------------------------------
// End-to-end: every figure pipeline exports identical CSVs per engine.
// ---------------------------------------------------------------------------

fn base(engine: Engine) -> SystemConfig {
    SystemConfig::baseline().with_engine(engine)
}

#[test]
fn sweep_figures_are_engine_invariant() {
    // One grid feeds Figures 7, 9 and 10 (BkInOrder included so the
    // Figure 10 normalisation baseline exists).
    let benchmarks = [SpecBenchmark::Swim, SpecBenchmark::Mcf];
    let mechanisms = [
        Mechanism::BkInOrder,
        Mechanism::RowHit,
        Mechanism::Burst,
        Mechanism::BurstTh(52),
    ];
    let len = RunLength::Instructions(1_200);
    let csvs: Vec<[String; 4]> = Engine::ALL
        .iter()
        .map(|&engine| {
            let sweep = Sweep::run_with_config(&base(engine), &benchmarks, &mechanisms, len, 9, 1);
            [
                sweep_to_csv(&sweep),
                fig7_to_csv(&sweep.fig7_rows()),
                fig9_to_csv(&sweep.fig9_rows()),
                fig10_to_csv(&sweep.fig10_rows()).expect("BkInOrder baseline present"),
            ]
        })
        .collect();
    assert_eq!(csvs[0], csvs[1], "sweep CSVs differ between engines");
}

#[test]
fn outstanding_figures_are_engine_invariant() {
    let len = RunLength::Instructions(1_000);
    let csvs: Vec<[String; 2]> = Engine::ALL
        .iter()
        .map(|&engine| {
            [
                outstanding_to_csv(&fig8_with_config(
                    &base(engine),
                    SpecBenchmark::Swim,
                    len,
                    11,
                    1,
                )),
                outstanding_to_csv(&fig11_with_config(
                    &base(engine),
                    SpecBenchmark::Mcf,
                    len,
                    11,
                    1,
                )),
            ]
        })
        .collect();
    assert_eq!(csvs[0], csvs[1], "outstanding CSVs differ between engines");
}

#[test]
fn threshold_sweep_is_engine_invariant() {
    let len = RunLength::Instructions(600);
    let csvs: Vec<String> = Engine::ALL
        .iter()
        .map(|&engine| {
            fig12_to_csv(&fig12_with_config(
                &base(engine),
                &[SpecBenchmark::Swim],
                len,
                3,
                1,
            ))
        })
        .collect();
    assert_eq!(csvs[0], csvs[1], "Figure 12 CSV differs between engines");
}
