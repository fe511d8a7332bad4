//! Prints the wall-clock phase profile of one event-engine run — a quick
//! way to see where step time goes for a given workload/mechanism pair.
//!
//! ```text
//! cargo run --release -p burst-sim --example phase_profile [BENCHMARK] [INSTRUCTIONS] [MECHANISM]
//! ```
//!
//! `BENCHMARK` is any SPEC surrogate name (default `swim`), `MECHANISM`
//! any mechanism name (default `Burst_TH52`). An unknown name or a
//! malformed instruction count exits with status 2.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "a wall-clock profiling example: it times runs and reports float rates"
)]

use burst_core::Mechanism;
use burst_sim::{Engine, RunLength, System, SystemConfig};
use burst_workloads::SpecBenchmark;

/// Prints `message` and the usage line, and exits with status 2.
fn usage(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("usage: phase_profile [BENCHMARK] [INSTRUCTIONS] [MECHANISM]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let bench_name = args.get(1).map_or("swim", String::as_str);
    let bench = SpecBenchmark::from_name(bench_name)
        .unwrap_or_else(|| usage(&format!("unknown benchmark `{bench_name}`")));
    let instructions: u64 = match args.get(2) {
        None => 300_000,
        Some(n) => n
            .parse()
            .unwrap_or_else(|_| usage(&format!("malformed instruction count `{n}`"))),
    };
    let mech_name = args.get(3).map_or("Burst_TH52", String::as_str);
    let mechanism = Mechanism::from_name(mech_name)
        .unwrap_or_else(|| usage(&format!("unknown mechanism `{mech_name}`")));
    if args.len() > 4 {
        usage("too many arguments");
    }
    let cfg = SystemConfig::baseline()
        .with_mechanism(mechanism)
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
        "{} {} {} instr: wall {:.3}s, {} mem cycles, {:.3} Mc/s",
        bench.name(),
        mechanism,
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
