//! Criterion bench: the discrete-event engine against the per-cycle
//! reference, on both traffic regimes.
//!
//! `swim` streams with high memory-level parallelism, so the controller
//! is almost never quiescent: the gap between `Engine::CycleNoSkip` and
//! `Engine::Event` there is the engine's defining gain, jumping cycles
//! *while the memory system is busy*. `mcf` is an idle-heavy pointer
//! chase that mixes quiescent and busy jumps.

use burst_core::Mechanism;
use burst_sim::{simulate, Engine, RunLength, SystemConfig};
use burst_workloads::SpecBenchmark;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_event_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_engine");
    group.sample_size(10);
    for bench in [SpecBenchmark::Swim, SpecBenchmark::Mcf] {
        for engine in Engine::ALL {
            let label = format!("{}/{}", bench.name(), engine.name());
            group.bench_with_input(
                BenchmarkId::from_parameter(label),
                &(bench, engine),
                |b, &(bench, engine)| {
                    let cfg = SystemConfig::baseline()
                        .with_mechanism(Mechanism::BurstTh(52))
                        .with_engine(engine);
                    b.iter(|| {
                        simulate(&cfg, bench.workload(42), RunLength::Instructions(5_000))
                            .mem_cycles
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_event_engine);
criterion_main!(benches);
