//! Integration tests of the simulation harness itself.

#![expect(
    clippy::disallowed_types,
    reason = "tests check report-only float metrics"
)]

use burst_core::Mechanism;
use burst_sim::experiments::{fig12_mechanisms, fig8_mechanisms, Sweep};
use burst_sim::{simulate, RunLength, SystemConfig};
use burst_workloads::SpecBenchmark;

#[test]
fn baseline_config_matches_table3() {
    let cfg = SystemConfig::baseline();
    assert_eq!(cfg.cpu.rob_size, 196);
    assert_eq!(cfg.cpu.width, 8);
    assert_eq!(cfg.cpu.lsq_size, 32);
    assert_eq!(cfg.cpu.cpu_ratio, 10, "4 GHz CPU / 400 MHz memory clock");
    assert_eq!(cfg.ctrl.pool_capacity, 256);
    assert_eq!(cfg.ctrl.write_capacity, 64);
    assert_eq!(cfg.dram.geometry.total_banks(), 32);
}

#[test]
fn reads_and_writes_balance_cpu_and_controller() {
    let cfg = SystemConfig::baseline().with_mechanism(Mechanism::BurstTh(52));
    let r = simulate(
        &cfg,
        SpecBenchmark::Swim.workload(3),
        RunLength::Instructions(10_000),
    );
    // Every controller read was requested by the CPU; forwarded reads never
    // reach DRAM but are counted as controller completions.
    assert!(r.reads() <= r.cpu.mem_reads + r.ctrl.forwards);
    // Controller writes come from CPU writebacks (some may still be queued
    // at the end of the run).
    assert!(r.writes() <= r.cpu.mem_writes);
    // Forwarded reads never reach the device: DRAM column reads are at
    // most the non-forwarded completions (in-flight ones excluded).
    assert!(r.bus.reads <= r.reads());
    // Every activate belongs to some row empty/conflict service.
    assert!(r.bus.activates >= r.ctrl.row_empties + r.ctrl.row_conflicts - 64);
}

#[test]
fn warm_caches_affect_write_traffic() {
    let cold = SystemConfig::baseline().with_warm_mem_ops(0);
    let warm = SystemConfig::baseline(); // default warming
    let cold_r = simulate(
        &cold,
        SpecBenchmark::Swim.workload(3),
        RunLength::Instructions(8_000),
    );
    let warm_r = simulate(
        &warm,
        SpecBenchmark::Swim.workload(3),
        RunLength::Instructions(8_000),
    );
    assert!(
        warm_r.writes() > cold_r.writes() * 2,
        "warming must enable writeback traffic: warm {} vs cold {}",
        warm_r.writes(),
        cold_r.writes()
    );
}

#[test]
fn sweep_cell_lookup() {
    let sweep = Sweep::run(
        &SystemConfig::baseline(),
        &[SpecBenchmark::Gzip],
        &[Mechanism::BkInOrder, Mechanism::Burst],
        RunLength::Instructions(2_000),
        1,
        0,
    );
    assert!(sweep.cell(SpecBenchmark::Gzip, Mechanism::Burst).is_some());
    assert!(sweep.cell(SpecBenchmark::Swim, Mechanism::Burst).is_none());
    assert_eq!(sweep.mechanisms().len(), 2);
    assert_eq!(sweep.benchmarks(), vec![SpecBenchmark::Gzip]);
}

#[test]
fn fig8_and_fig12_mechanism_lists() {
    assert_eq!(fig8_mechanisms().len(), 6);
    let sweep = fig12_mechanisms();
    assert_eq!(sweep.len(), 12);
    assert_eq!(sweep[0], Mechanism::Burst);
    assert_eq!(*sweep.last().unwrap(), Mechanism::BurstRp);
}

#[test]
fn dynamic_threshold_mechanism_runs() {
    let cfg = SystemConfig::baseline().with_mechanism(Mechanism::BurstDyn);
    let r = simulate(
        &cfg,
        SpecBenchmark::Lucas.workload(5),
        RunLength::Instructions(10_000),
    );
    assert_eq!(r.mechanism, Mechanism::BurstDyn);
    assert!(r.reads() > 0);
    // The dynamic variant must stay in the same performance ballpark as
    // the static optimum (it adapts around it).
    let th = simulate(
        &SystemConfig::baseline().with_mechanism(Mechanism::BurstTh(52)),
        SpecBenchmark::Lucas.workload(5),
        RunLength::Instructions(10_000),
    );
    let ratio = r.cpu_cycles as f64 / th.cpu_cycles as f64;
    assert!(
        (0.8..1.2).contains(&ratio),
        "Burst_DYN vs TH52 ratio {ratio:.2}"
    );
}

#[test]
fn effective_bandwidth_is_sane() {
    let cfg = SystemConfig::baseline().with_mechanism(Mechanism::BurstTh(52));
    let r = simulate(
        &cfg,
        SpecBenchmark::Swim.workload(3),
        RunLength::Instructions(10_000),
    );
    let gbs = r.effective_bandwidth_gbs(400e6, 8);
    // The theoretical peak of dual-channel DDR2-800 is 12.8 GB/s; a single
    // run must land strictly below it and above zero.
    assert!(gbs > 0.0);
    assert!(
        gbs < 12.8,
        "bandwidth {gbs:.1} GB/s exceeds the dual-channel peak"
    );
}

#[test]
fn ipc_bounded_by_width() {
    let cfg = SystemConfig::baseline();
    let r = simulate(
        &cfg,
        SpecBenchmark::Mesa.workload(1),
        RunLength::Instructions(10_000),
    );
    assert!(r.ipc() <= 8.0, "IPC {} exceeds the 8-wide core", r.ipc());
}

#[test]
fn validate_accepts_baseline_and_rejects_nonsense() {
    assert!(SystemConfig::baseline().validate().is_ok());

    let mut bad = SystemConfig::baseline();
    bad.dram.geometry.channels = 3;
    let err = bad
        .validate()
        .expect_err("3 channels is not a power of two");
    assert!(err.to_string().contains("power of two"));

    let mut bad = SystemConfig::baseline();
    bad.ctrl.write_capacity = 0;
    assert!(bad.validate().is_err());

    let mut bad = SystemConfig::baseline();
    bad.ctrl.write_capacity = 1024;
    assert!(
        bad.validate().is_err(),
        "write capacity above pool capacity"
    );

    let mut bad = SystemConfig::baseline().with_mechanism(Mechanism::BurstTh(1000));
    assert!(bad.validate().is_err(), "threshold above write capacity");
    bad = bad.with_mechanism(Mechanism::BurstTh(52));
    assert!(bad.validate().is_ok());

    let mut bad = SystemConfig::baseline();
    bad.cpu.cpu_ratio = 0;
    assert!(bad.validate().is_err());
}
