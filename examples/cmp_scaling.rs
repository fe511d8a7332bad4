//! Multi-core scaling (extension): run a mixed workload on 1-4 cores
//! sharing the baseline memory subsystem and watch contention grow —
//! paper Section 6 predicts access reordering matters more with CMPs.
//!
//! ```text
//! cargo run --release --example cmp_scaling
//! ```

use std::num::NonZeroUsize;

use burst_scheduling::ctrl::Mechanism;
use burst_scheduling::sim::{RunLength, System, SystemConfig};
use burst_scheduling::workloads::{OpSource, SpecBenchmark};

fn main() {
    for cores in [1, 2, 4].map(|n| NonZeroUsize::new(n).expect("nonzero")) {
        let cfg = SystemConfig::baseline().with_mechanism(Mechanism::BurstTh(52));
        let mut sys = System::with_cores(&cfg, cfg.scheduler(), cores);
        let picks = [
            SpecBenchmark::Swim,
            SpecBenchmark::Gcc,
            SpecBenchmark::Art,
            SpecBenchmark::Mcf,
        ];
        let mut workloads: Vec<_> = (0..cores.get())
            .map(|i| picks[i % picks.len()].workload(42 + i as u64))
            .collect();
        let mut workloads: Vec<&mut dyn OpSource> = workloads
            .iter_mut()
            .map(|w| w as &mut dyn OpSource)
            .collect();
        sys.warm_cores(&mut workloads);
        let total = 10_000 * cores.get() as u64;
        sys.try_run_cores(&mut workloads, RunLength::Instructions(total))
            .expect("the CMP run makes progress");
        let r = sys.report("mix");
        println!(
            "{cores} core(s): {:>7} mem cycles, read latency {:>5.1}, data bus {:>4.1}%, \
             per-core retired {:?}",
            r.mem_cycles,
            r.ctrl.avg_read_latency(),
            r.data_bus_utilization() * 100.0,
            (0..cores.get())
                .map(|i| sys.core_retired(i))
                .collect::<Vec<_>>(),
        );
    }
}
