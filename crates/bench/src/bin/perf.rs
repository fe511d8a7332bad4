//! Tracked performance harness: measures *simulator* throughput (not the
//! simulated machine) and writes `BENCH_perf.json` so CI and future changes
//! can compare against it.
//!
//! Five views:
//!
//! 1. **Single-sim throughput** — one simulation per mechanism on the
//!    profile workload (swim), reported as simulated memory megacycles per
//!    wall-clock second. This tracks the cycle-loop hot path.
//! 2. **Engine effect** — the same simulation under each [`Engine`]:
//!    the plain per-cycle reference (`cycle-noskip`) and the
//!    discrete-event engine (`event`), on a bandwidth-bound workload
//!    (swim) and an idle-heavy pointer chase (mcf). Both runs must
//!    produce bit-identical reports; only the wall clock may differ. The
//!    event run's observability counters (events dispatched, jump
//!    lengths, busy-vs-quiescent split) are reported alongside, and the
//!    harness **fails** if the event engine is slower than the per-cycle
//!    reference on any tracked row — the regression gate CI relies on. With
//!    `--baseline FILE` it additionally fails if any row's event-engine
//!    throughput drops more than 15% below the committed
//!    `BENCH_perf.json`, so CI catches absolute regressions too.
//! 3. **Phase profile** — one separately-profiled event-engine run per
//!    workload, splitting step time across the four step phases (CPU
//!    model, handoff, DRAM tick, delivery). These runs never feed a
//!    throughput row: the phase timers themselves cost wall clock.
//! 4. **Checkpoint overhead** — the same simulation uninterrupted and
//!    with periodic mid-run checkpoints (capture + atomic write), at two
//!    cadences and with the per-write fsync on and off
//!    (`--checkpoint-durable false`). Every pair must produce
//!    bit-identical reports; the JSON records the wall-clock overhead
//!    percentage per row.
//! 5. **Sweep scaling** — a benchmark x mechanism sweep run at worker
//!    counts 1, 2, 4, … up to the machine's available parallelism,
//!    reported as simulations per second plus the speedup over the serial
//!    run at each level. The JSON records the levels actually run and the
//!    available parallelism, and annotates single-core hosts explicitly,
//!    so a flat curve is visible as a host limitation rather than
//!    masquerading as a parallel measurement.
//!
//! ```text
//! cargo run --release -p burst-bench --bin perf -- --instructions 300000
//! ```

use std::time::Instant;

use burst_bench::{banner, HarnessOptions};
use burst_core::Mechanism;
use burst_sim::experiments::{fig8_mechanisms, Sweep};
use burst_sim::report::render_table;
use burst_sim::{
    default_jobs, simulate, Engine, EngineStats, PhaseProfile, SimReport, System, SystemConfig,
};
use burst_workloads::SpecBenchmark;

/// One single-sim measurement.
struct SingleSim {
    mechanism: Mechanism,
    report: SimReport,
    wall_secs: f64,
}

impl SingleSim {
    fn mcycles_per_sec(&self) -> f64 {
        self.report.mem_cycles as f64 / 1e6 / self.wall_secs
    }
}

/// Per-engine timing of one (workload, mechanism) simulation, plus the
/// event engine's observability counters.
struct EngineEffect {
    benchmark: SpecBenchmark,
    mechanism: Mechanism,
    mem_cycles: u64,
    noskip_secs: f64,
    event_secs: f64,
    stats: EngineStats,
}

impl EngineEffect {
    fn measure(
        base: &SystemConfig,
        benchmark: SpecBenchmark,
        mechanism: Mechanism,
        seed: u64,
        run: burst_sim::RunLength,
    ) -> Self {
        let cfg = base.with_mechanism(mechanism);
        let timed = |engine: Engine| -> (SimReport, f64) {
            let start = Instant::now();
            let report = simulate(&cfg.with_engine(engine), benchmark.workload(seed), run);
            (report, start.elapsed().as_secs_f64())
        };
        let (noskip, noskip_secs) = timed(Engine::CycleNoSkip);
        let (event, event_secs) = timed(Engine::Event);
        // The engine bit-identity guarantee, enforced on every perf run.
        assert_eq!(
            noskip, event,
            "the event engine must be bit-identical to per-cycle stepping"
        );
        EngineEffect {
            benchmark,
            mechanism,
            mem_cycles: event.mem_cycles,
            noskip_secs,
            event_secs,
            stats: event.engine,
        }
    }

    fn rate(&self, secs: f64) -> f64 {
        self.mem_cycles as f64 / 1e6 / secs
    }

    fn event_speedup_vs_noskip(&self) -> f64 {
        self.noskip_secs / self.event_secs
    }
}

/// Wall-clock split of one event-engine run across the step loop's four
/// phases (CPU model, CPU→controller handoff, DRAM/scheduler tick,
/// completion delivery). The per-phase timers add overhead, so these runs
/// are measured separately and never feed a throughput row.
struct PhaseSplit {
    benchmark: SpecBenchmark,
    mechanism: Mechanism,
    mem_cycles: u64,
    profile: PhaseProfile,
}

impl PhaseSplit {
    fn measure(
        base: &SystemConfig,
        benchmark: SpecBenchmark,
        mechanism: Mechanism,
        seed: u64,
        run: burst_sim::RunLength,
    ) -> Self {
        let cfg = base.with_mechanism(mechanism).with_engine(Engine::Event);
        let mut workload = benchmark.workload(seed);
        let mut sys = System::new(&cfg);
        sys.warm(&mut workload);
        sys.enable_phase_profile();
        sys.run(&mut workload, run);
        PhaseSplit {
            benchmark,
            mechanism,
            mem_cycles: sys.mem_cycle(),
            profile: *sys.phase_profile().expect("profiling enabled"),
        }
    }

    fn phases(&self) -> [(&'static str, u64); 4] {
        [
            ("cpu", self.profile.cpu_ns),
            ("handoff", self.profile.handoff_ns),
            ("dram", self.profile.dram_ns),
            ("deliver", self.profile.deliver_ns),
        ]
    }

    fn pct(&self, ns: u64) -> f64 {
        ns as f64 * 100.0 / self.profile.total_ns().max(1) as f64
    }
}

/// Plain vs checkpointed timing of one (workload, mechanism) simulation.
struct CheckpointOverhead {
    benchmark: SpecBenchmark,
    mechanism: Mechanism,
    every: u64,
    durable: bool,
    mem_cycles: u64,
    plain_secs: f64,
    checkpointed_secs: f64,
}

impl CheckpointOverhead {
    fn measure(
        base: &SystemConfig,
        benchmark: SpecBenchmark,
        mechanism: Mechanism,
        every: u64,
        durable: bool,
        seed: u64,
        run: burst_sim::RunLength,
    ) -> Self {
        let cfg = base.with_mechanism(mechanism);
        let start = Instant::now();
        let plain = simulate(&cfg, benchmark.workload(seed), run);
        let plain_secs = start.elapsed().as_secs_f64();
        let dir = std::env::temp_dir().join(format!("burst-perf-ckpt-{}", std::process::id()));
        let policy = burst_sim::CheckpointPolicy {
            durable,
            ..burst_sim::CheckpointPolicy::new(
                every,
                dir.join(format!(
                    "perf-{}-{}.ckpt",
                    benchmark.name(),
                    mechanism.name()
                )),
                0x70_65_72_66,
            )
        };
        let start = Instant::now();
        let checkpointed =
            burst_sim::try_simulate_checkpointed(&cfg, || benchmark.workload(seed), run, &policy)
                .expect("checkpointed perf run");
        let checkpointed_secs = start.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(&dir);
        // The checkpoint layer's transparency guarantee, enforced on
        // every perf run.
        assert_eq!(
            plain, checkpointed,
            "checkpointed run must be bit-identical to an uninterrupted one"
        );
        CheckpointOverhead {
            benchmark,
            mechanism,
            every,
            durable,
            mem_cycles: plain.mem_cycles,
            plain_secs,
            checkpointed_secs,
        }
    }

    fn checkpoints_written(&self) -> u64 {
        self.mem_cycles / self.every
    }

    fn overhead_pct(&self) -> f64 {
        (self.checkpointed_secs / self.plain_secs - 1.0) * 100.0
    }
}

/// Extracts `(workload, mechanism, event_mcycles_per_sec)` triples from a
/// previously-written `BENCH_perf.json`. This harness writes one
/// `engine_effect` row per line, so a line-oriented scan is exact for its
/// own output; anything unparseable is simply skipped (a missing or
/// foreign baseline must never fail the run by itself).
fn read_baseline_rates(text: &str) -> Vec<(String, String, f64)> {
    let field = |line: &str, key: &str| -> Option<String> {
        let start = line.find(key)? + key.len();
        let rest = &line[start..];
        let end = rest.find([',', '}'])?;
        Some(rest[..end].trim().trim_matches('"').to_string())
    };
    text.lines()
        .filter(|l| l.contains("\"event_mcycles_per_sec\""))
        .filter_map(|l| {
            Some((
                field(l, "\"workload\":")?,
                field(l, "\"mechanism\":")?,
                field(l, "\"event_mcycles_per_sec\":")?.parse().ok()?,
            ))
        })
        .collect()
}

/// Minimal JSON string escaping (names only contain ASCII, but be safe).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> std::process::ExitCode {
    let opts = HarnessOptions::from_args(300_000);
    let base = opts.system_config();
    println!(
        "{}",
        banner("perf", "simulator throughput (tracked)", &opts)
    );

    let profile_bench = SpecBenchmark::Swim;
    let singles: Vec<SingleSim> = fig8_mechanisms()
        .into_iter()
        .map(|m| {
            let cfg = base.with_mechanism(m);
            let start = Instant::now();
            let report = simulate(&cfg, profile_bench.workload(opts.seed), opts.run);
            SingleSim {
                mechanism: m,
                report,
                wall_secs: start.elapsed().as_secs_f64(),
            }
        })
        .collect();

    println!(
        "--- single-sim throughput ({} workload, {} engine)\n",
        profile_bench.name(),
        base.engine
    );
    let rows: Vec<Vec<String>> = singles
        .iter()
        .map(|s| {
            vec![
                s.mechanism.name(),
                format!("{}", s.report.mem_cycles),
                format!("{:.3}", s.wall_secs),
                format!("{:.2}", s.mcycles_per_sec()),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["mechanism", "mem cycles", "wall s", "Mcycles/s"], &rows)
    );

    // Engine effect: bandwidth-bound busy phases (swim) vs idle-heavy
    // pointer chase (mcf, MLP 1 — the CPU spends most cycles fully
    // stalled). Swim exercises the event engine's busy-period jumps,
    // mcf its quiescent ones.
    let engine_cases = [
        (SpecBenchmark::Swim, Mechanism::BurstTh(52)),
        (SpecBenchmark::Mcf, Mechanism::BurstTh(52)),
        (SpecBenchmark::Mcf, Mechanism::BkInOrder),
    ];
    let effects: Vec<EngineEffect> = engine_cases
        .into_iter()
        .map(|(b, m)| EngineEffect::measure(&base, b, m, opts.seed, opts.run))
        .collect();
    println!("--- engine effect (bit-identity checked per row)\n");
    let rows: Vec<Vec<String>> = effects
        .iter()
        .map(|e| {
            vec![
                e.benchmark.name().to_string(),
                e.mechanism.name(),
                format!("{}", e.mem_cycles),
                format!("{:.2}", e.rate(e.noskip_secs)),
                format!("{:.2}", e.rate(e.event_secs)),
                format!("{:.2}", e.event_speedup_vs_noskip()),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "workload",
                "mechanism",
                "mem cycles",
                "noskip Mc/s",
                "event Mc/s",
                "event/noskip",
            ],
            &rows,
        )
    );
    println!("--- event-engine observability (same rows)\n");
    let rows: Vec<Vec<String>> = effects
        .iter()
        .map(|e| {
            vec![
                e.benchmark.name().to_string(),
                e.mechanism.name(),
                format!("{}", e.stats.events_dispatched()),
                format!("{:.1}", e.stats.events_per_kcycle(e.mem_cycles)),
                format!("{:.1}", e.stats.mean_jump()),
                format!("{}", e.stats.quiescent_jumps),
                format!("{}", e.stats.quiescent_skipped),
                format!("{}", e.stats.busy_jumps),
                format!("{}", e.stats.busy_skipped),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "workload",
                "mechanism",
                "events",
                "ev/kcyc",
                "mean jump",
                "q jumps",
                "q skipped",
                "b jumps",
                "b skipped",
            ],
            &rows,
        )
    );
    // The regression gate: the event engine must never be slower than
    // the per-cycle reference on a tracked row.
    let mut regressed = false;
    for e in &effects {
        if e.event_secs > e.noskip_secs {
            regressed = true;
            eprintln!(
                "PERF REGRESSION: event engine slower than cycle-noskip on \
                 {}/{} ({:.2} vs {:.2} Mcycles/s)",
                e.benchmark.name(),
                e.mechanism.name(),
                e.rate(e.event_secs),
                e.rate(e.noskip_secs),
            );
        }
    }

    // Committed-baseline guard (`--baseline FILE`): event-engine
    // throughput on every tracked row must stay within 15% of the
    // committed BENCH_perf.json. A missing file or row only warns (first
    // run, renamed row, foreign baseline); an actual drop fails the
    // process through the same `regressed` flag as the engine gate.
    let args: Vec<String> = std::env::args().collect();
    let baseline_path = args
        .windows(2)
        .find(|w| w[0] == "--baseline")
        .map(|w| w[1].clone());
    if let Some(baseline_path) = baseline_path {
        match std::fs::read_to_string(&baseline_path) {
            Ok(text) => {
                let baseline = read_baseline_rates(&text);
                for e in &effects {
                    let row = baseline.iter().find(|(w, m, _)| {
                        w.as_str() == e.benchmark.name() && *m == e.mechanism.name()
                    });
                    let Some((_, _, base_rate)) = row else {
                        eprintln!(
                            "warning: no baseline row for {}/{} in {baseline_path}; skipped",
                            e.benchmark.name(),
                            e.mechanism.name(),
                        );
                        continue;
                    };
                    let measured = e.rate(e.event_secs);
                    if measured < base_rate * 0.85 {
                        regressed = true;
                        eprintln!(
                            "PERF REGRESSION: {}/{} event engine at {measured:.2} \
                             Mcycles/s, >15% below committed baseline {base_rate:.2}",
                            e.benchmark.name(),
                            e.mechanism.name(),
                        );
                    } else {
                        println!(
                            "baseline ok: {}/{} event engine {measured:.2} Mcycles/s \
                             vs committed {base_rate:.2} (floor {:.2})",
                            e.benchmark.name(),
                            e.mechanism.name(),
                            base_rate * 0.85,
                        );
                    }
                }
            }
            Err(err) => {
                eprintln!("warning: baseline {baseline_path} unreadable ({err}); guard skipped")
            }
        }
    }

    // Phase profile: where the event engine's step time goes, per
    // workload. Profiled runs are separate from the timed rows above —
    // the phase timers themselves cost wall clock.
    let splits: Vec<PhaseSplit> = [
        (SpecBenchmark::Swim, Mechanism::BurstTh(52)),
        (SpecBenchmark::Mcf, Mechanism::BurstTh(52)),
    ]
    .into_iter()
    .map(|(b, m)| PhaseSplit::measure(&base, b, m, opts.seed, opts.run))
    .collect();
    println!("--- phase profile (event engine, separately profiled runs)\n");
    let rows: Vec<Vec<String>> = splits
        .iter()
        .map(|s| {
            let mut row = vec![
                s.benchmark.name().to_string(),
                s.mechanism.name(),
                format!("{}", s.mem_cycles),
            ];
            for (_, ns) in s.phases() {
                row.push(format!("{:.1}%", s.pct(ns)));
            }
            row
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "workload",
                "mechanism",
                "mem cycles",
                "cpu",
                "handoff",
                "dram",
                "deliver",
            ],
            &rows,
        )
    );

    // Checkpoint overhead: the same simulation uninterrupted vs paused
    // every N memory cycles to capture + atomically write a snapshot,
    // with the per-write fsync on (durable) and off (--checkpoint-durable
    // false) at the tightest cadence — the fsync dominates at short
    // cadences, so the pair bounds what the flag buys.
    let ckpt_cases = [
        (SpecBenchmark::Swim, Mechanism::BurstTh(52), 50_000u64, true),
        (SpecBenchmark::Swim, Mechanism::BurstTh(52), 10_000u64, true),
        (
            SpecBenchmark::Swim,
            Mechanism::BurstTh(52),
            10_000u64,
            false,
        ),
        (SpecBenchmark::Mcf, Mechanism::BurstTh(52), 10_000u64, true),
        (SpecBenchmark::Mcf, Mechanism::BurstTh(52), 10_000u64, false),
    ];
    let overheads: Vec<CheckpointOverhead> = ckpt_cases
        .into_iter()
        .map(|(b, m, every, durable)| {
            CheckpointOverhead::measure(&base, b, m, every, durable, opts.seed, opts.run)
        })
        .collect();
    println!("--- checkpoint overhead (bit-identity checked per row)\n");
    let rows: Vec<Vec<String>> = overheads
        .iter()
        .map(|o| {
            vec![
                o.benchmark.name().to_string(),
                o.mechanism.name(),
                format!("{}", o.every),
                if o.durable { "yes" } else { "no" }.to_string(),
                format!("{}", o.checkpoints_written()),
                format!("{:.3}", o.plain_secs),
                format!("{:.3}", o.checkpointed_secs),
                format!("{:+.1}%", o.overhead_pct()),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "workload",
                "mechanism",
                "every (cyc)",
                "fsync",
                "ckpts",
                "plain s",
                "ckpt s",
                "overhead",
            ],
            &rows,
        )
    );

    // Sweep scaling: a small representative grid at worker counts
    // 1, 2, 4, … up to the machine's available parallelism. Reporting the
    // whole curve (instead of one serial/parallel pair labelled
    // "speedup") keeps a 1-core host from producing a misleading row.
    let sweep_benches = [
        SpecBenchmark::Swim,
        SpecBenchmark::Gcc,
        SpecBenchmark::Art,
        SpecBenchmark::Parser,
    ];
    let mechanisms = fig8_mechanisms();
    let cells = sweep_benches.len() * mechanisms.len();
    let available = default_jobs();
    let mut job_levels = Vec::new();
    let mut level = 1usize;
    while level < available {
        job_levels.push(level);
        level *= 2;
    }
    job_levels.push(available);

    let mut scaling: Vec<(usize, f64)> = Vec::with_capacity(job_levels.len());
    let mut serial_csv: Option<String> = None;
    for &jobs in &job_levels {
        let start = Instant::now();
        let sweep = Sweep::run_with_config(
            &base,
            &sweep_benches,
            &mechanisms,
            opts.run,
            opts.seed,
            jobs,
        );
        let secs = start.elapsed().as_secs_f64();
        let csv = burst_sim::export::sweep_to_csv(&sweep);
        // The executor's determinism guarantee, enforced at every level.
        match &serial_csv {
            None => serial_csv = Some(csv),
            Some(reference) => assert_eq!(
                reference, &csv,
                "a {jobs}-worker sweep must be bit-identical to serial"
            ),
        }
        scaling.push((jobs, secs));
    }
    let serial_secs = scaling[0].1;
    println!("--- sweep scaling ({cells} sims, {available} cores available)\n");
    let rows: Vec<Vec<String>> = scaling
        .iter()
        .map(|&(jobs, secs)| {
            vec![
                format!("{jobs}"),
                format!("{secs:.3}"),
                format!("{:.2}", cells as f64 / secs),
                format!("{:.2}", serial_secs / secs),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["jobs", "wall s", "sims/s", "speedup"], &rows)
    );
    if available == 1 {
        println!("note: single-core host — parallel speedup is not measurable here");
    }

    let instructions = match opts.run {
        burst_sim::RunLength::Instructions(n) => n,
        burst_sim::RunLength::MemCycles(n) => n,
    };
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"instructions\": {instructions},\n"));
    json.push_str(&format!("  \"seed\": {},\n", opts.seed));
    json.push_str(&format!(
        "  \"engine\": {},\n",
        json_str(base.engine.name())
    ));
    json.push_str(&format!(
        "  \"profile_benchmark\": {},\n",
        json_str(profile_bench.name())
    ));
    json.push_str("  \"single_sim\": [\n");
    for (i, s) in singles.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mechanism\": {}, \"mem_cycles\": {}, \"wall_secs\": {:.6}, \"mcycles_per_sec\": {:.3}}}{}\n",
            json_str(&s.mechanism.name()),
            s.report.mem_cycles,
            s.wall_secs,
            s.mcycles_per_sec(),
            if i + 1 < singles.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"engine_effect\": [\n");
    for (i, e) in effects.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workload\": {}, \"mechanism\": {}, \"mem_cycles\": {}, \
             \"noskip_secs\": {:.6}, \"noskip_mcycles_per_sec\": {:.3}, \
             \"event_secs\": {:.6}, \"event_mcycles_per_sec\": {:.3}, \
             \"event_speedup_vs_noskip\": {:.3}, \
             \"events_dispatched\": {}, \"events_per_kcycle\": {:.3}, \
             \"mean_jump\": {:.3}, \
             \"quiescent_jumps\": {}, \"quiescent_skipped\": {}, \
             \"busy_jumps\": {}, \"busy_skipped\": {}}}{}\n",
            json_str(e.benchmark.name()),
            json_str(&e.mechanism.name()),
            e.mem_cycles,
            e.noskip_secs,
            e.rate(e.noskip_secs),
            e.event_secs,
            e.rate(e.event_secs),
            e.event_speedup_vs_noskip(),
            e.stats.events_dispatched(),
            e.stats.events_per_kcycle(e.mem_cycles),
            e.stats.mean_jump(),
            e.stats.quiescent_jumps,
            e.stats.quiescent_skipped,
            e.stats.busy_jumps,
            e.stats.busy_skipped,
            if i + 1 < effects.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"phase_profile\": [\n");
    for (i, s) in splits.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workload\": {}, \"mechanism\": {}, \"mem_cycles\": {}, \
             \"cpu_ns\": {}, \"handoff_ns\": {}, \"dram_ns\": {}, \
             \"deliver_ns\": {}, \"cpu_pct\": {:.3}, \"handoff_pct\": {:.3}, \
             \"dram_pct\": {:.3}, \"deliver_pct\": {:.3}}}{}\n",
            json_str(s.benchmark.name()),
            json_str(&s.mechanism.name()),
            s.mem_cycles,
            s.profile.cpu_ns,
            s.profile.handoff_ns,
            s.profile.dram_ns,
            s.profile.deliver_ns,
            s.pct(s.profile.cpu_ns),
            s.pct(s.profile.handoff_ns),
            s.pct(s.profile.dram_ns),
            s.pct(s.profile.deliver_ns),
            if i + 1 < splits.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"checkpoint_overhead\": [\n");
    for (i, o) in overheads.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workload\": {}, \"mechanism\": {}, \"every_cycles\": {}, \
             \"durable\": {}, \"checkpoints_written\": {}, \"plain_secs\": {:.6}, \
             \"checkpointed_secs\": {:.6}, \"overhead_pct\": {:.3}}}{}\n",
            json_str(o.benchmark.name()),
            json_str(&o.mechanism.name()),
            o.every,
            o.durable,
            o.checkpoints_written(),
            o.plain_secs,
            o.checkpointed_secs,
            o.overhead_pct(),
            if i + 1 < overheads.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"sweep\": {\n");
    json.push_str(&format!("    \"cells\": {cells},\n"));
    json.push_str(&format!("    \"available_parallelism\": {available},\n"));
    json.push_str(&format!("    \"single_core_host\": {},\n", available == 1));
    json.push_str("    \"scaling\": [\n");
    for (i, &(jobs, secs)) in scaling.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"jobs\": {jobs}, \"secs\": {secs:.6}, \
             \"sims_per_sec\": {:.3}, \"speedup\": {:.3}}}{}\n",
            cells as f64 / secs,
            serial_secs / secs,
            if i + 1 < scaling.len() { "," } else { "" }
        ));
    }
    json.push_str("    ]\n");
    json.push_str("  }\n");
    json.push_str("}\n");

    let out = "BENCH_perf.json";
    match std::fs::write(out, &json) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => eprintln!("warning: could not write {out}: {e}"),
    }
    if regressed {
        eprintln!("perf: event-engine regression gate FAILED");
        std::process::ExitCode::from(1)
    } else {
        std::process::ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::read_baseline_rates;

    #[test]
    fn baseline_parser_reads_engine_effect_rows() {
        let json = concat!(
            "{\n",
            "  \"engine_effect\": [\n",
            "    {\"workload\": \"swim\", \"mechanism\": \"Burst TH=52\", \
             \"mem_cycles\": 536133, \"noskip_secs\": 0.1, \
             \"event_secs\": 0.2, \"event_mcycles_per_sec\": 2.468, \
             \"busy_jumps\": 3},\n",
            "    {\"workload\": \"mcf\", \"mechanism\": \"Burst TH=52\", \
             \"event_mcycles_per_sec\": 9.671, \"busy_jumps\": 0}\n",
            "  ],\n",
            "  \"phase_profile\": [\n",
            "    {\"workload\": \"swim\", \"mechanism\": \"Burst TH=52\", \
             \"cpu_ns\": 12}\n",
            "  ]\n",
            "}\n",
        );
        assert_eq!(
            read_baseline_rates(json),
            vec![
                ("swim".to_string(), "Burst TH=52".to_string(), 2.468),
                ("mcf".to_string(), "Burst TH=52".to_string(), 9.671),
            ]
        );
    }

    #[test]
    fn baseline_parser_ignores_garbage() {
        assert!(read_baseline_rates("not json at all").is_empty());
        assert!(read_baseline_rates("").is_empty());
        // A row with the key but an unparseable number is skipped, not fatal.
        assert!(read_baseline_rates("{\"event_mcycles_per_sec\": oops}").is_empty());
    }
}
