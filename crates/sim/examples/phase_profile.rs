//! Prints the wall-clock phase profile of one event-engine run — a quick
//! way to see where step time goes for a given workload/mechanism pair.
//!
//! ```text
//! cargo run --release -p burst-sim --example phase_profile [swim|mcf] [instructions]
//! ```

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "a wall-clock profiling example: it times runs and reports float rates"
)]

use burst_core::Mechanism;
use burst_sim::{Engine, RunLength, System, SystemConfig};
use burst_workloads::SpecBenchmark;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let bench = match args.get(1).map(String::as_str) {
        Some("mcf") => SpecBenchmark::Mcf,
        _ => SpecBenchmark::Swim,
    };
    let instructions: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(300_000);
    let cfg = SystemConfig::baseline()
        .with_mechanism(Mechanism::BurstTh(52))
        .with_engine(Engine::Event);
    let mut workload = bench.workload(42);
    let mut sys = System::new(&cfg);
    sys.warm(&mut workload);
    sys.enable_phase_profile();
    let t0 = std::time::Instant::now();
    sys.run(&mut workload, RunLength::Instructions(instructions));
    let wall = t0.elapsed();
    let p = *sys.phase_profile().expect("profiling enabled");
    let total = p.total_ns().max(1);
    println!(
        "{} {} instr: wall {:.3}s, {} mem cycles, {:.3} Mc/s",
        bench.name(),
        instructions,
        wall.as_secs_f64(),
        sys.mem_cycle(),
        sys.mem_cycle() as f64 / 1e6 / wall.as_secs_f64()
    );
    for (name, ns) in [
        ("cpu", p.cpu_ns),
        ("handoff", p.handoff_ns),
        ("dram", p.dram_ns),
        ("deliver", p.deliver_ns),
    ] {
        println!(
            "  {name:8} {:>8.1} ms  {:>5.1}%",
            ns as f64 / 1e6,
            ns as f64 * 100.0 / total as f64
        );
    }
    println!(
        "  profiled {:.1} ms of {:.1} ms wall (rest: jumps, warm, harness)",
        total as f64 / 1e6,
        wall.as_secs_f64() * 1e3
    );
}
