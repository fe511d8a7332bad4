//! Determinism guarantees of the parallel executor and the dense read-line
//! slab: a sweep must produce byte-identical exports at any `--jobs` value,
//! on the plain reference path and the supervised production path alike,
//! and read-line tracking must survive write-queue forwarding and
//! fault-injected retries.

use burst_core::{FaultConfig, Mechanism};
use burst_sim::experiments::Sweep;
use burst_sim::{export, map_parallel, simulate, RunLength, SupervisorConfig, SystemConfig};
use burst_workloads::SpecBenchmark;

const LEN: RunLength = RunLength::Instructions(4_000);

/// The tentpole guarantee: a parallel sweep is *byte-identical* to a serial
/// one. `jobs = 4` forces a real thread pool even on single-core CI runners
/// (the executor clamps only to the item count, not the core count). The
/// supervised sweep every harness binary runs must export the same bytes as
/// the plain reference at either job count.
#[test]
fn parallel_sweep_csv_is_byte_identical_to_serial() {
    let benchmarks = [SpecBenchmark::Swim, SpecBenchmark::Gcc];
    let mechanisms = [
        Mechanism::BkInOrder,
        Mechanism::BurstTh(52),
        Mechanism::Intel,
    ];
    let base = SystemConfig::baseline();
    let serial = Sweep::run(&base, &benchmarks, &mechanisms, LEN, 42, 1);
    let parallel = Sweep::run(&base, &benchmarks, &mechanisms, LEN, 42, 4);
    let reference = export::sweep_to_csv(&serial);
    assert_eq!(
        reference,
        export::sweep_to_csv(&parallel),
        "sweep export must not depend on the job count"
    );
    for jobs in [1, 4] {
        let supervised = Sweep::run_supervised(
            "sweep",
            &base,
            &benchmarks,
            &mechanisms,
            LEN,
            42,
            jobs,
            &SupervisorConfig::default(),
            None,
            None,
        );
        assert!(supervised.ok(), "jobs {jobs}: {:?}", supervised.failures);
        assert_eq!(supervised.resumed, 0);
        assert_eq!(
            export::sweep_to_csv(&supervised.value),
            reference,
            "supervised sweep at jobs {jobs} must match the plain reference"
        );
    }
    // Cell identity, not just aggregate equality: same order, same reports.
    for (s, p) in serial.cells.iter().zip(&parallel.cells) {
        assert_eq!(s.benchmark, p.benchmark);
        assert_eq!(s.mechanism, p.mechanism);
        assert_eq!(s.report.cpu_cycles, p.report.cpu_cycles);
        assert_eq!(s.report.mem_cycles, p.report.mem_cycles);
    }
}

/// Oversubscription must change nothing either: more workers than cells.
#[test]
fn oversubscribed_sweep_matches_serial() {
    let benchmarks = [SpecBenchmark::Art];
    let mechanisms = [Mechanism::BurstWp, Mechanism::RowHit];
    let base = SystemConfig::baseline();
    let serial = Sweep::run(&base, &benchmarks, &mechanisms, LEN, 7, 1);
    let wide = Sweep::run(&base, &benchmarks, &mechanisms, LEN, 7, 64);
    assert_eq!(export::sweep_to_csv(&serial), export::sweep_to_csv(&wide));
}

/// `map_parallel` hands closures the simulator actually uses (building a
/// full `System` per call) and still keeps input order.
#[test]
fn map_parallel_runs_simulations_in_input_order() {
    let mechanisms = [Mechanism::BkInOrder, Mechanism::BurstTh(52)];
    let reports = map_parallel(&mechanisms, 2, |_, &m| {
        let cfg = SystemConfig::baseline().with_mechanism(m);
        simulate(&cfg, SpecBenchmark::Swim.workload(42), LEN)
    });
    assert_eq!(reports[0].mechanism, Mechanism::BkInOrder);
    assert_eq!(reports[1].mechanism, Mechanism::BurstTh(52));
}

/// Regression for the dense read-line slab (which replaced a HashMap): a
/// workload exercising both write-queue forwarding (reads satisfied without
/// a slab removal via the DRAM path… they still enqueue + complete in the
/// same cycle) and fault-injected retries (completions arriving long after
/// enqueue, out of id order) must deliver every read. A lost line address
/// would starve the CPU and trip the stall panic inside `simulate`.
#[test]
fn read_line_slab_survives_forwards_and_retries() {
    let faults = FaultConfig {
        seed: 9,
        read_error_permille: 60,
        write_retry_permille: 60,
        max_retries: 3,
    };
    // bzip2 re-reads recently written lines, so its reads hit the write
    // queue and forward; Burst_WP drains writes eagerly, keeping both paths
    // active in one run.
    let cfg = SystemConfig::baseline()
        .with_mechanism(Mechanism::BurstWp)
        .with_checker(true)
        .with_faults(Some(faults));
    let report = simulate(
        &cfg,
        SpecBenchmark::Bzip2.workload(11),
        RunLength::Instructions(8_000),
    );
    assert!(
        report.ctrl.forwards > 0,
        "workload must exercise forwarding"
    );
    assert!(
        report.robustness.faults_injected > 0,
        "workload must exercise retries"
    );
    assert!(report.reads() > 0);
    // Identical to a re-run: slab bookkeeping is deterministic state, and
    // retried completions must not double-deliver or drop lines.
    let again = simulate(
        &cfg,
        SpecBenchmark::Bzip2.workload(11),
        RunLength::Instructions(8_000),
    );
    assert_eq!(report.cpu_cycles, again.cpu_cycles);
    assert_eq!(report.mem_cycles, again.mem_cycles);
    assert_eq!(report.reads(), again.reads());
}
