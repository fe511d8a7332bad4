//! The traced run: host time and call counts recorded from the benchmark's
//! own files, around the calls the simulator makes into each layer.
//!
//! - `core`: [`TracedScheduler`] forwards every [`AccessScheduler`] method
//!   to the real scheduler, installed through `System::with_scheduler`, and
//!   times `tick`, `enqueue`, `can_accept` and `next_busy_event`.
//! - `workloads`: [`TracedSource`] counts and times every `next_op`.
//! - `sim` and `cpu`: the step loop's own `System::enable_phase_profile`.
//! - `persist`: the chunk loop over `try_run_chunk`, `Checkpoint::capture`
//!   and `Checkpoint::save_with`, as `try_simulate_checkpointed` runs it.
//!
//! Every wrapper only reads the clock, so a traced cell must produce the
//! same `SimReport` and `EngineStats` as an untraced one; the run checks it.

use std::cell::Cell;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use burst_core::{
    Access, AccessKind, AccessScheduler, Completion, CtrlStats, EnqueueOutcome, Mechanism,
    Outstanding, StallDiagnostic,
};
use burst_dram::{Cycle, Dram};
use burst_sim::{Checkpoint, ChunkOutcome, PhaseProfile, RunCursor, SimReport, System};
use burst_snap::{SnapError, SnapReader, SnapWriter};
use burst_workloads::{Op, OpSource, SpecBenchmark};

use crate::stats::ratio;
use crate::suite::{Workload, PAPER_MECHANISMS};

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Host nanoseconds and calls accumulated at one layer boundary.
#[derive(Debug, Default)]
pub struct Span {
    ns: Cell<u64>,
    calls: Cell<u64>,
}

impl Span {
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.ns.set(self.ns.get() + elapsed_ns(start));
        self.calls.set(self.calls.get() + 1);
        r
    }
}

/// The scheduler spans one traced cell records.
#[derive(Debug, Default)]
struct CoreSpans {
    tick: Span,
    enqueue: Span,
    can_accept: Span,
    horizon: Span,
    /// `next_busy_event` calls that returned a horizon.
    horizon_some: Cell<u64>,
}

/// A forwarding [`AccessScheduler`] that times the calls into the real one.
///
/// Every trait method is forwarded, including those with defaults: a
/// missing `quiescent` or `next_busy_event` would leave reports identical
/// but silently disable the event engine's jumps, which only the
/// `EngineStats` comparison in the tests and the traced run catches.
#[derive(Debug)]
pub struct TracedScheduler {
    inner: Box<dyn AccessScheduler>,
    spans: Rc<CoreSpans>,
}

impl AccessScheduler for TracedScheduler {
    fn mechanism(&self) -> Mechanism {
        self.inner.mechanism()
    }

    fn can_accept(&self, kind: AccessKind) -> bool {
        self.spans.can_accept.time(|| self.inner.can_accept(kind))
    }

    fn enqueue(
        &mut self,
        access: Access,
        now: Cycle,
        completions: &mut Vec<Completion>,
    ) -> EnqueueOutcome {
        self.spans
            .enqueue
            .time(|| self.inner.enqueue(access, now, completions))
    }

    fn tick(&mut self, dram: &mut Dram, now: Cycle, completions: &mut Vec<Completion>) {
        self.spans
            .tick
            .time(|| self.inner.tick(dram, now, completions));
    }

    fn stats(&self) -> &CtrlStats {
        self.inner.stats()
    }

    fn outstanding(&self) -> Outstanding {
        self.inner.outstanding()
    }

    fn stall_diagnostic(&self) -> Option<StallDiagnostic> {
        self.inner.stall_diagnostic()
    }

    fn quiescent(&self) -> bool {
        self.inner.quiescent()
    }

    fn advance_quiescent(&mut self, from: Cycle, n: u64) {
        self.inner.advance_quiescent(from, n);
    }

    fn next_busy_event(&self, dram: &Dram, last: Cycle) -> Option<Cycle> {
        let event = self
            .spans
            .horizon
            .time(|| self.inner.next_busy_event(dram, last));
        if event.is_some() {
            self.spans
                .horizon_some
                .set(self.spans.horizon_some.get() + 1);
        }
        event
    }

    fn enqueue_may_advance_horizon(&self, access: &Access) -> bool {
        self.inner.enqueue_may_advance_horizon(access)
    }

    fn advance_blocked(&mut self, from: Cycle, n: u64) {
        self.inner.advance_blocked(from, n);
    }

    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        self.inner.save_state(w)
    }

    fn load_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.inner.load_state(r)
    }
}

/// An [`OpSource`] that counts and times every operation drawn.
#[derive(Debug)]
struct TracedSource<W> {
    inner: W,
    span: Span,
}

impl<W: OpSource> OpSource for TracedSource<W> {
    fn next_op(&mut self) -> Op {
        self.span.time(|| self.inner.next_op())
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Host time and counts of one traced cell. Times are nanoseconds.
#[derive(Debug)]
pub struct TracedCell {
    pub mechanism: Mechanism,
    pub report: SimReport,
    /// Set-up, warm-up, the step loop and checkpoint writes.
    pub wall_ns: u64,
    /// `System::warm` less the operations it drew.
    pub warm_ns: u64,
    /// Inside `try_run_chunk` calls only.
    pub step_ns: u64,
    /// Operations drawn after the warm-up, and the time spent drawing them.
    pub ops: u64,
    pub ops_ns: u64,
    pub phases: PhaseProfile,
    pub tick_ns: u64,
    pub ticks: u64,
    pub enqueue_ns: u64,
    pub enqueues: u64,
    pub can_accept_ns: u64,
    pub can_accept_calls: u64,
    pub horizon_ns: u64,
    pub horizon_calls: u64,
    pub horizon_some: u64,
    pub checkpoints: u64,
    pub ckpt_bytes: u64,
    pub capture_ns: u64,
    pub save_ns: u64,
}

/// Simulates one cell with every layer traced.
///
/// The chunk loop is `try_simulate_checkpointed`'s fresh-start path: with a
/// checkpoint cadence it captures and durably saves at every pause. Without
/// one the run is a single chunk, as in `try_simulate`, followed by one
/// capture and save of the final state, so the persistence layer is
/// measured on every workload.
///
/// # Errors
///
/// The simulation's `RunError` or a checkpoint failure, as text.
pub fn traced_cell(
    w: &Workload,
    b: SpecBenchmark,
    m: Mechanism,
    instructions: u64,
    seed: u64,
    dir: &Path,
) -> Result<TracedCell, String> {
    let cfg = w.config(m);
    let len = burst_sim::RunLength::Instructions(instructions);
    let path = w.checkpoint_path(dir, b, m);
    let fingerprint = w.fingerprint(seed);
    let spans = Rc::new(CoreSpans::default());

    let start = Instant::now();
    let mut src = TracedSource {
        inner: b.workload(seed),
        span: Span::default(),
    };
    // `System::new` builds the same scheduler from `effective_ctrl()`, which
    // equals `cfg.ctrl` here: the benchmark injects no faults.
    let sched = TracedScheduler {
        inner: m.build(cfg.ctrl, cfg.dram.geometry),
        spans: Rc::clone(&spans),
    };
    let mut sys = System::with_scheduler(&cfg, Box::new(sched));
    let warm = Instant::now();
    sys.warm(&mut src);
    let (warm_ops, warm_ops_ns) = (src.span.calls.get(), src.span.ns.get());
    let warm_ns = elapsed_ns(warm).saturating_sub(warm_ops_ns);

    sys.enable_phase_profile();
    let mut cursor = RunCursor::start(&sys);
    let budget = w.checkpoint_every.unwrap_or(u64::MAX);
    let mut scratch = SnapWriter::new();
    let (mut step_ns, mut checkpoints, mut ckpt_bytes, mut capture_ns, mut save_ns) =
        (0, 0, 0, 0, 0);
    loop {
        let t = Instant::now();
        let outcome = sys
            .try_run_chunk(&mut src, len, &mut cursor, budget)
            .map_err(|e| e.to_string())?;
        step_ns += elapsed_ns(t);
        let done = outcome == ChunkOutcome::Done;
        if !done || w.checkpoint_every.is_none() {
            let t = Instant::now();
            let ckpt = Checkpoint::capture(&sys, fingerprint, src.span.calls.get(), cursor)
                .map_err(|e| e.to_string())?;
            capture_ns += elapsed_ns(t);
            let t = Instant::now();
            ckpt.save_with(&path, &mut scratch, true)
                .map_err(|e| e.to_string())?;
            save_ns += elapsed_ns(t);
            checkpoints += 1;
            ckpt_bytes += scratch.len() as u64;
        }
        if done {
            break;
        }
    }
    let _ = std::fs::remove_file(&path);
    let wall_ns = elapsed_ns(start);
    Ok(TracedCell {
        mechanism: m,
        report: sys.report(src.name()),
        wall_ns,
        warm_ns,
        step_ns,
        ops: src.span.calls.get() - warm_ops,
        ops_ns: src.span.ns.get() - warm_ops_ns,
        phases: sys.phase_profile().copied().unwrap_or_default(),
        tick_ns: spans.tick.ns.get(),
        ticks: spans.tick.calls.get(),
        enqueue_ns: spans.enqueue.ns.get(),
        enqueues: spans.enqueue.calls.get(),
        can_accept_ns: spans.can_accept.ns.get(),
        can_accept_calls: spans.can_accept.calls.get(),
        horizon_ns: spans.horizon.ns.get(),
        horizon_calls: spans.horizon.calls.get(),
        horizon_some: spans.horizon_some.get(),
        checkpoints,
        ckpt_bytes,
        capture_ns,
        save_ns,
    })
}

/// Instruction budget of the per-mechanism probe cells a workload that
/// does not run all eight paper mechanisms adds to its traced run: the
/// size of a `fig_sweep` cell.
pub const PROBE_INSTRUCTIONS: u64 = 120_000;

/// The mechanisms to probe: all eight paper mechanisms for a workload that
/// does not run them all (one traced cell of its first benchmark each, so
/// `core.tick_ns.<Mechanism>` is measured on every workload), none for one
/// whose own cells cover them.
pub fn probe_mechanisms(w: &Workload) -> Vec<Mechanism> {
    if PAPER_MECHANISMS.iter().all(|m| w.mechanisms.contains(m)) {
        Vec::new()
    } else {
        PAPER_MECHANISMS.to_vec()
    }
}

/// Nanoseconds per scheduler tick of each paper mechanism over `cells`.
pub fn tick_ns_by_mechanism(cells: &[TracedCell]) -> Vec<(Mechanism, f64)> {
    PAPER_MECHANISMS
        .iter()
        .map(|&m| {
            let of_m = cells.iter().filter(|c| c.mechanism == m);
            let (ns, ticks) = of_m.fold((0, 0), |(ns, t), c| (ns + c.tick_ns, t + c.ticks));
            (m, ratio(ns as f64, ticks as f64))
        })
        .collect()
}

/// Untraced executor samples of the same run: every cell's host seconds
/// and the median set-up time per cell.
#[derive(Debug)]
pub struct ExecutorSamples {
    pub cell_secs: Vec<f64>,
    pub setup_s: f64,
}

/// The per-layer metrics of a traced trial, by name (see `metrics.rs`).
pub fn layer_metrics(
    cells: &[TracedCell],
    tick_by_mechanism: &[(Mechanism, f64)],
    executor: &ExecutorSamples,
    overhead: f64,
) -> Vec<(&'static str, f64)> {
    let sum = |f: &dyn Fn(&TracedCell) -> u64| cells.iter().map(f).sum::<u64>() as f64;
    let ms = |ns: f64| ns / 1e6;
    let mem_cycles = sum(&|c| c.report.mem_cycles);
    let engine = |f: &dyn Fn(&burst_sim::EngineStats) -> u64| sum(&|c| f(&c.report.engine));
    let skipped = engine(&|e| e.skipped());
    let ticks = sum(&|c| c.ticks);
    let persist_ns = sum(&|c| c.capture_ns + c.save_ns);
    let row_accesses =
        sum(&|c| c.report.ctrl.row_hits + c.report.ctrl.row_empties + c.report.ctrl.row_conflicts);
    let mut out = vec![
        ("workloads.ops", sum(&|c| c.ops)),
        ("workloads.ms", ms(sum(&|c| c.ops_ns))),
        (
            "cpu.ms",
            ms(sum(&|c| c.phases.cpu_ns.saturating_sub(c.ops_ns))),
        ),
        ("cpu.warm_ms", ms(sum(&|c| c.warm_ns))),
        (
            "cpu.ipc",
            ratio(
                sum(&|c| c.report.instructions),
                sum(&|c| c.report.cpu_cycles),
            ),
        ),
        ("sim.steps", engine(&|e| e.steps)),
        ("sim.skipped_frac", ratio(skipped, mem_cycles)),
        ("sim.mean_jump", ratio(skipped, engine(&|e| e.jumps()))),
        (
            "sim.events_per_kcycle",
            ratio(engine(&|e| e.events_dispatched()) * 1000.0, mem_cycles),
        ),
        (
            "sim.handoff_ms",
            ms(sum(&|c| c.phases.handoff_ns.saturating_sub(c.enqueue_ns))),
        ),
        ("sim.deliver_ms", ms(sum(&|c| c.phases.deliver_ns))),
        (
            "sim.engine_ms",
            ms(sum(&|c| {
                c.step_ns
                    .saturating_sub(c.phases.total_ns())
                    .saturating_sub(c.horizon_ns)
            })),
        ),
        ("core.tick_ms", ms(sum(&|c| c.tick_ns))),
        ("core.ticks", ticks),
        ("core.tick_ns", ratio(sum(&|c| c.tick_ns), ticks)),
        ("core.enqueue_ms", ms(sum(&|c| c.enqueue_ns))),
        ("core.enqueues", sum(&|c| c.enqueues)),
        ("core.can_accept_ms", ms(sum(&|c| c.can_accept_ns))),
        ("core.can_accept_calls", sum(&|c| c.can_accept_calls)),
        ("core.horizon_ms", ms(sum(&|c| c.horizon_ns))),
        (
            "core.fold_yield",
            ratio(sum(&|c| c.horizon_some), sum(&|c| c.horizon_calls)),
        ),
        (
            "core.issue_per_tick",
            ratio(sum(&|c| c.report.bus.cmd_cycles), ticks),
        ),
    ];
    for &(m, ns) in tick_by_mechanism {
        let name = crate::metrics::PER_LAYER
            .iter()
            .map(|x| x.name)
            .find(|n| n.strip_prefix("core.tick_ns.") == Some(m.name().as_str()))
            .unwrap_or("core.tick_ns.unknown");
        out.push((name, ns));
    }
    out.extend([
        ("dram.cmds", sum(&|c| c.report.bus.cmd_cycles)),
        (
            "dram.row_hit_rate",
            ratio(sum(&|c| c.report.ctrl.row_hits), row_accesses),
        ),
        (
            "dram.data_bus_util",
            ratio(
                sum(&|c| c.report.bus.data_cycles),
                sum(&|c| c.report.mem_cycles * c.report.channels()),
            ),
        ),
        ("dram.refreshes", sum(&|c| c.report.bus.refreshes)),
        ("persist.checkpoints", sum(&|c| c.checkpoints)),
        (
            "persist.ckpt_bytes",
            ratio(sum(&|c| c.ckpt_bytes), sum(&|c| c.checkpoints)),
        ),
        ("persist.capture_ms", ms(sum(&|c| c.capture_ns))),
        ("persist.save_ms", ms(sum(&|c| c.save_ns))),
        ("persist.share", ratio(persist_ns, sum(&|c| c.wall_ns))),
        ("executor.cells", executor.cell_secs.len() as f64),
        (
            "executor.cell_s_p50",
            crate::stats::median(&executor.cell_secs),
        ),
        (
            "executor.cell_s_p90",
            crate::stats::tail(&executor.cell_secs),
        ),
        (
            "executor.setup_share",
            ratio(executor.setup_s, crate::stats::median(&executor.cell_secs)),
        ),
        ("trace.overhead", overhead),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{result_line, PER_LAYER};
    use crate::suite::WORKLOADS;
    use burst_sim::try_simulate;

    /// Every mechanism, with a match that stops compiling when a variant is
    /// added, so the fidelity test below cannot silently miss one.
    fn all_mechanisms() -> [Mechanism; 11] {
        let all = [
            Mechanism::BkInOrder,
            Mechanism::RowHit,
            Mechanism::Intel,
            Mechanism::IntelRp,
            Mechanism::Burst,
            Mechanism::BurstRp,
            Mechanism::BurstWp,
            Mechanism::BurstTh(52),
            Mechanism::BurstDyn,
            Mechanism::BurstCrit,
            Mechanism::AdaptiveHistory,
        ];
        for m in all {
            match m {
                Mechanism::BkInOrder
                | Mechanism::RowHit
                | Mechanism::Intel
                | Mechanism::IntelRp
                | Mechanism::Burst
                | Mechanism::BurstRp
                | Mechanism::BurstWp
                | Mechanism::BurstTh(_)
                | Mechanism::BurstDyn
                | Mechanism::BurstCrit
                | Mechanism::AdaptiveHistory => {}
            }
        }
        all
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("burst-benchmark-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A traced cell must equal an untraced one in its report and in its
    /// engine counters: a scheduler method the wrapper failed to forward
    /// would keep reports identical but change how the clock advanced.
    #[test]
    fn tracing_changes_no_report_and_no_engine_counter() {
        let dir = scratch("fidelity");
        let w = &WORKLOADS[1];
        let instructions = 20_000;
        let mut jumps = 0;
        for m in all_mechanisms() {
            let b = SpecBenchmark::Mcf;
            let traced = traced_cell(w, b, m, instructions, 3, &dir).unwrap();
            let cfg = w.config(m);
            let plain = try_simulate(
                &cfg,
                b.workload(3),
                burst_sim::RunLength::Instructions(instructions),
            )
            .unwrap();
            assert_eq!(traced.report, plain, "{m}: report");
            assert_eq!(traced.report.engine, plain.engine, "{m}: engine counters");
            assert!(traced.ticks > 0 && traced.ops > 0, "{m}: spans recorded");
            jumps += plain.engine.quiescent_jumps.min(1) + plain.engine.busy_jumps.min(1);
        }
        assert_eq!(
            jumps,
            2 * all_mechanisms().len() as u64,
            "every mechanism must take quiescent and busy jumps, or the comparison proves little"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Checkpointing through the traced chunk loop equals the library's
    /// checkpointed entry point, engine counters included.
    #[test]
    fn traced_checkpoint_loop_matches_try_simulate_checkpointed() {
        let dir = scratch("ckpt");
        let w = &WORKLOADS[3];
        assert!(w.checkpoint_every.is_some());
        let (b, m) = (SpecBenchmark::Swim, Mechanism::BurstTh(52));
        let traced = traced_cell(w, b, m, w.instructions / 10, 5, &dir).unwrap();
        let policy = burst_sim::CheckpointPolicy::new(
            w.checkpoint_every.unwrap(),
            w.checkpoint_path(&dir, b, m),
            w.fingerprint(5),
        );
        let plain = burst_sim::try_simulate_checkpointed(
            &w.config(m),
            || b.workload(5),
            burst_sim::RunLength::Instructions(w.instructions / 10),
            &policy,
        )
        .unwrap();
        assert_eq!(traced.report, plain);
        assert_eq!(traced.report.engine, plain.engine);
        assert!(traced.checkpoints > 1, "{} checkpoints", traced.checkpoints);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Both kinds of workload — one running every paper mechanism, one that
    /// needs probes — yield exactly the declared per-layer metrics.
    #[test]
    fn every_workload_reports_every_per_layer_metric() {
        let dir = scratch("layers");
        for w in [&WORKLOADS[0], &WORKLOADS[2]] {
            let cells: Vec<TracedCell> = w
                .cells()
                .into_iter()
                .take(2)
                .map(|(b, m)| traced_cell(w, b, m, 2_000, 1, &dir).unwrap())
                .collect();
            let probes: Vec<TracedCell> = probe_mechanisms(w)
                .into_iter()
                .map(|m| traced_cell(w, w.benchmarks[0], m, 2_000, 1, &dir).unwrap())
                .collect();
            let by_mechanism =
                tick_ns_by_mechanism(if probes.is_empty() { &cells } else { &probes });
            let executor = ExecutorSamples {
                cell_secs: vec![0.5, 0.4, 0.6],
                setup_s: 0.01,
            };
            let values = layer_metrics(&cells, &by_mechanism, &executor, 1.5);
            let line = result_line(&PER_LAYER, &values, 1, 0);
            assert!(line.is_ok(), "{}: {line:?}", w.name);
        }
        assert!(
            probe_mechanisms(&WORKLOADS[2]).is_empty(),
            "fig_sweep runs them all"
        );
        assert_eq!(probe_mechanisms(&WORKLOADS[0]).len(), 8);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
