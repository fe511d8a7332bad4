//! Full-system wiring: CPU limit model + access scheduler + DRAM device,
//! stepped at memory-controller clock granularity.

// Timing-observable module (DESIGN.md §15): no hash-ordered collections,
// floats or wall-clock reads; report-only metrics carry a reasoned expect.
#![deny(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    clippy::float_arithmetic
)]

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::num::NonZeroUsize;
use std::ops::Range;

use burst_core::{
    Access, AccessId, AccessKind, AccessScheduler, Completion, CtrlConfig, CtrlStats, FaultConfig,
    Mechanism, StallDiagnostic,
};
use burst_cpu::{Cpu, CpuConfig, CpuStats};
use burst_dram::{AddressMapping, BusStats, Cycle, Dram, DramConfig, PhysAddr};
use burst_snap::{fnv1a64, SnapError, SnapReader, SnapWriter};
use burst_workloads::OpSource;

use crate::profile::{PhaseProfile, Stamp};

/// Configuration of the whole simulated machine.
///
/// [`SystemConfig::baseline`] reproduces the paper's Table 3; builder-style
/// `with_*` methods derive variants.
///
/// # Examples
///
/// ```
/// use burst_sim::SystemConfig;
/// use burst_core::Mechanism;
///
/// let cfg = SystemConfig::baseline().with_mechanism(Mechanism::BurstTh(52));
/// assert_eq!(cfg.mechanism, Mechanism::BurstTh(52));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SystemConfig {
    /// DRAM device geometry and timing.
    pub dram: DramConfig,
    /// Address mapping scheme (Table 3: page interleaving).
    pub mapping: AddressMapping,
    /// Memory-controller pool and policy.
    pub ctrl: CtrlConfig,
    /// CPU core and cache hierarchy.
    pub cpu: CpuConfig,
    /// Access reordering mechanism under test.
    pub mechanism: Mechanism,
    /// Memory operations used to functionally warm the caches before the
    /// timed region (the paper's 2-billion-instruction runs are warm almost
    /// throughout; without warming, the 2 MB L2 never fills and no
    /// writeback traffic exists). Zero disables warming.
    pub warm_mem_ops: u64,
    /// Runs the DDR2 protocol checker alongside the device, recording any
    /// command that violates the timing constraints. Defaults to on in
    /// debug builds (tests) and off in release builds (benchmarks), since
    /// shadowing every command costs simulation speed.
    pub checker: bool,
    /// Deterministic fault-injection plan (ECC-correctable read errors and
    /// write retries). `None` simulates a fault-free device. When set, it
    /// overrides `ctrl.faults`.
    pub faults: Option<FaultConfig>,
    /// Which simulation engine advances the clock (see [`Engine`]). Both
    /// engines produce bit-identical results; they differ only in how many
    /// cycles they execute explicitly.
    pub engine: Engine,
}

/// How the simulation clock advances: one fast engine and one reference.
/// Both are bit-identical in observable behaviour — reports, state
/// hashes, checkpoints and CSVs match exactly; they differ only in speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Full discrete-event engine (default): the clock jumps to the next
    /// cycle at which *any* component — CPU wake-up, read delivery, device
    /// timing window, refresh timer, scheduler arbiter/escalation/
    /// adaptation, watchdog — could observably act, whether the memory
    /// system is idle or holds outstanding work. Per-tick bookkeeping over
    /// a jump is replayed in closed form.
    Event,
    /// The plain per-cycle loop with no skipping at all — the reference
    /// the event engine is diffed against.
    CycleNoSkip,
}

impl Engine {
    /// Both engines, fastest first — determinism suites iterate this.
    pub const ALL: [Engine; 2] = [Engine::Event, Engine::CycleNoSkip];

    /// The `--engine` flag spelling of this variant.
    pub fn name(&self) -> &'static str {
        match self {
            Engine::Event => "event",
            Engine::CycleNoSkip => "cycle-noskip",
        }
    }

    /// Parses an `--engine` flag value: the exact inverse of
    /// [`Engine::name`], with no aliases.
    pub fn from_name(name: &str) -> Option<Engine> {
        match name {
            "event" => Some(Engine::Event),
            "cycle-noskip" => Some(Engine::CycleNoSkip),
            _ => None,
        }
    }
}

impl core::fmt::Display for Engine {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

impl SystemConfig {
    /// The paper's baseline machine (Table 3) with `BkInOrder` scheduling.
    pub fn baseline() -> Self {
        SystemConfig {
            dram: DramConfig::baseline(),
            mapping: AddressMapping::PageInterleaving,
            ctrl: CtrlConfig::baseline(),
            cpu: CpuConfig::baseline(),
            mechanism: Mechanism::BkInOrder,
            warm_mem_ops: 100_000,
            checker: cfg!(debug_assertions),
            faults: None,
            engine: Engine::Event,
        }
    }

    /// Selects the simulation engine (see [`Engine`]; the results are
    /// bit-identical for either choice).
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Enables or disables the runtime DDR2 protocol checker.
    pub fn with_checker(mut self, checker: bool) -> Self {
        self.checker = checker;
        self
    }

    /// Sets the fault-injection plan (`None` disables injection).
    pub fn with_faults(mut self, faults: Option<FaultConfig>) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the functional cache-warming budget (memory ops; 0 disables).
    pub fn with_warm_mem_ops(mut self, warm_mem_ops: u64) -> Self {
        self.warm_mem_ops = warm_mem_ops;
        self
    }

    /// Replaces the scheduling mechanism.
    pub fn with_mechanism(mut self, mechanism: Mechanism) -> Self {
        self.mechanism = mechanism;
        self
    }

    /// Replaces the address mapping.
    pub fn with_mapping(mut self, mapping: AddressMapping) -> Self {
        self.mapping = mapping;
        self
    }

    /// Replaces the DRAM configuration.
    pub fn with_dram(mut self, dram: DramConfig) -> Self {
        self.dram = dram;
        self
    }

    /// Checks the configuration for inconsistencies that would make a
    /// simulation meaningless or panic later.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateConfigError`] naming the first problem found.
    pub fn validate(&self) -> Result<(), ValidateConfigError> {
        let err = |msg: &str| {
            Err(ValidateConfigError {
                message: msg.to_string(),
            })
        };
        let g = &self.dram.geometry;
        if g.channels == 0 || g.ranks_per_channel == 0 || g.banks_per_rank == 0 {
            return err("geometry must have at least one channel, rank and bank");
        }
        for (name, v) in [
            ("channels", u64::from(g.channels)),
            ("ranks_per_channel", u64::from(g.ranks_per_channel)),
            ("banks_per_rank", u64::from(g.banks_per_rank)),
            ("rows_per_bank", u64::from(g.rows_per_bank)),
            ("cols_per_row", u64::from(g.cols_per_row)),
            ("bus_bytes", u64::from(g.bus_bytes)),
        ] {
            if !v.is_power_of_two() {
                return Err(ValidateConfigError {
                    message: format!("geometry field {name} = {v} must be a power of two"),
                });
            }
        }
        if g.burst_length < 2 || !g.burst_length.is_multiple_of(2) {
            return err("burst_length must be an even number of beats (DDR)");
        }
        if self.ctrl.write_capacity == 0 || self.ctrl.write_capacity > self.ctrl.pool_capacity {
            return err("write_capacity must be in 1..=pool_capacity");
        }
        if self.cpu.width == 0 || self.cpu.rob_size == 0 || self.cpu.lsq_size == 0 {
            return err("CPU width, ROB and LSQ must be nonzero");
        }
        if self.cpu.cpu_ratio == 0 {
            return err("cpu_ratio must be at least 1 CPU cycle per memory cycle");
        }
        if let Mechanism::BurstTh(t) = self.mechanism {
            if t as usize > self.ctrl.write_capacity {
                return err("burst threshold cannot exceed the write queue capacity");
            }
        }
        if let Some(f) = self.faults {
            if f.read_error_permille > 1000 || f.write_retry_permille > 1000 {
                return err("fault rates are per-mille and cannot exceed 1000");
            }
        }
        Ok(())
    }

    /// The scheduler [`System::new`] builds: the configured mechanism, with
    /// the system-level fault plan folded into the controller configuration.
    pub fn scheduler(&self) -> Box<dyn AccessScheduler> {
        let mut ctrl = self.ctrl;
        if self.faults.is_some() {
            ctrl.faults = self.faults;
        }
        self.mechanism.build(ctrl, self.dram.geometry)
    }
}

/// Error returned by [`SystemConfig::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateConfigError {
    message: String,
}

impl core::fmt::Display for ValidateConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "invalid system configuration: {}", self.message)
    }
}

impl std::error::Error for ValidateConfigError {}

/// A forward-progress failure detected while running a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunError {
    /// The memory controller's watchdog latched a stall: accesses are
    /// outstanding but no transaction issued for the configured limit.
    ControllerStall(StallDiagnostic),
    /// The CPU stopped retiring instructions for two million memory cycles
    /// while the controller reports no stall of its own (e.g. a workload
    /// or cache-model livelock).
    RetirementStall {
        /// Memory cycle at which the stall was declared.
        mem_cycle: Cycle,
        /// Instructions retired when progress stopped.
        retired: u64,
        /// FNV-1a digest of the full simulation state when the stall was
        /// declared (zero when the state could not be serialised). Lets a
        /// stall report be correlated with checkpoints and oracle epochs.
        state_hash: u64,
    },
}

impl core::fmt::Display for RunError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RunError::ControllerStall(diag) => write!(f, "memory controller stall: {diag}"),
            RunError::RetirementStall {
                mem_cycle,
                retired,
                state_hash,
            } => {
                write!(
                    f,
                    "no instruction retired for 2M memory cycles (at cycle {mem_cycle}, \
                     {retired} retired): livelock?"
                )?;
                if *state_hash != 0 {
                    write!(f, " (state hash {state_hash:#018x})")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for RunError {}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::baseline()
    }
}

/// How long to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunLength {
    /// Run until this many instructions retire, summed over cores (the
    /// paper runs 2 billion; the harness defaults are smaller but
    /// shape-preserving).
    Instructions(u64),
    /// Run a fixed number of memory-controller cycles.
    MemCycles(u64),
}

/// FNV-1a digests of each serialised simulation component, computed over
/// the same byte streams a checkpoint stores. The lockstep oracle reports
/// both engines' component hashes on divergence so the failing subsystem
/// is named, not just the failing cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ComponentHashes {
    /// Digest of every CPU core, its caches, ROB and MSHRs.
    pub cpu: u64,
    /// Digest of the scheduler: queues, in-service state, adaptation.
    pub sched: u64,
    /// Digest of the DRAM device: bank/rank/channel timing state.
    pub dram: u64,
    /// Digest of the system glue: core count, cycle counters, pending
    /// deliveries and outstanding read lines with their owning cores.
    pub system: u64,
}

impl core::fmt::Display for ComponentHashes {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "cpu {:#018x}, sched {:#018x}, dram {:#018x}, system {:#018x}",
            self.cpu, self.sched, self.dram, self.system
        )
    }
}

/// A serialised mid-run snapshot of a [`System`], produced by
/// [`System::checkpoint`] and consumed by [`System::restore`].
///
/// The byte stream holds four observable sections (every CPU core in
/// order, scheduler, DRAM, system glue) followed by a diagnostic section
/// (skip bookkeeping). The state hash covers only the observable sections,
/// so a per-cycle run and a skip-enabled run hash identically at the same
/// cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// The serialised state, restorable with [`System::restore`].
    pub bytes: Vec<u8>,
    /// FNV-1a digest of the observable sections.
    pub state_hash: u64,
}

/// Persistent loop state of [`System::try_run_chunk`].
///
/// [`System::try_run`]'s loop locals (cycle budget spent, retirement
/// watchdog counters) live here so a run can pause at a chunk boundary,
/// be checkpointed, and resume — in the same process or after a restore —
/// with bit-identical control flow, including the exact cycle at which a
/// retirement stall would be declared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunCursor {
    /// Memory cycles completed toward a [`RunLength::MemCycles`] target.
    done_cycles: u64,
    /// Consecutive memory cycles without an instruction retiring.
    idle: u64,
    /// Retired-instruction count at the last observed progress.
    last_retired: u64,
}

impl RunCursor {
    /// A cursor positioned at the start of a run of `sys`.
    pub fn start(sys: &System) -> Self {
        RunCursor {
            done_cycles: 0,
            idle: 0,
            last_retired: sys.retired(),
        }
    }

    /// Memory cycles completed toward a [`RunLength::MemCycles`] target.
    pub fn done_cycles(&self) -> u64 {
        self.done_cycles
    }

    /// Serialises the cursor (checkpoint files store it next to the
    /// system snapshot).
    pub fn save_snap(&self, w: &mut SnapWriter) {
        let Self {
            done_cycles,
            idle,
            last_retired,
        } = self;
        w.u64(*done_cycles);
        w.u64(*idle);
        w.u64(*last_retired);
    }

    /// Restores a cursor written by [`RunCursor::save_snap`].
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] when the stream ends early.
    pub fn load_snap(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(RunCursor {
            done_cycles: r.u64()?,
            idle: r.u64()?,
            last_retired: r.u64()?,
        })
    }
}

/// Why [`System::try_run_chunk`] returned without an error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkOutcome {
    /// The run length was reached; the run is complete.
    Done,
    /// The chunk's cycle budget was exhausted first; call again (possibly
    /// after checkpointing) to continue.
    Paused,
}

/// Robustness summary of a run: protocol health, injected faults and
/// starvation-watchdog activity. Deterministic for a fixed configuration,
/// seed and workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RobustnessReport {
    /// DDR2 protocol violations recorded by the checker (zero when the
    /// checker is disabled — see [`SystemConfig::checker`]).
    pub violations: u64,
    /// Faults injected by the configured [`FaultConfig`].
    pub faults_injected: u64,
    /// Access retries caused by injected faults.
    pub retries: u64,
    /// Accesses that began service past the watchdog's escalation age.
    pub escalations: u64,
    /// Forward-progress stalls latched by the watchdog.
    pub watchdog_trips: u64,
    /// Largest arrival-to-completion age observed, in memory cycles.
    pub max_access_age: u64,
}

impl RobustnessReport {
    /// Assembles the summary from controller statistics plus the device's
    /// violation count.
    pub(crate) fn collect(ctrl: &CtrlStats, violations: u64) -> Self {
        RobustnessReport {
            violations,
            faults_injected: ctrl.faults_injected,
            retries: ctrl.retries,
            escalations: ctrl.escalations,
            watchdog_trips: ctrl.watchdog_trips,
            max_access_age: ctrl.max_access_age,
        }
    }
}

impl core::fmt::Display for RobustnessReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} protocol violations, {} faults injected ({} retries), \
             {} escalations, {} watchdog trips, max access age {} cycles",
            self.violations,
            self.faults_injected,
            self.retries,
            self.escalations,
            self.watchdog_trips,
            self.max_access_age
        )
    }
}

/// Observability counters of the discrete-event engine: how the clock
/// actually advanced during a run.
///
/// Diagnostic only — how many cycles were stepped versus jumped depends on
/// the engine and on chunking, so these counters are excluded from
/// [`SimReport`]'s `PartialEq`, the state hash and the checkpoint's hashed
/// sections. Every observable statistic is independent of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct EngineStats {
    /// Cycles executed explicitly, each with a full controller tick.
    pub steps: u64,
    /// Clock jumps taken while the whole system was quiescent.
    pub quiescent_jumps: u64,
    /// Cycles covered by quiescent jumps.
    pub quiescent_skipped: u64,
    /// Clock jumps taken while the memory system held outstanding work.
    pub busy_jumps: u64,
    /// Cycles covered by busy jumps.
    pub busy_skipped: u64,
}

#[expect(
    clippy::disallowed_types,
    clippy::float_arithmetic,
    reason = "report-only jump metrics derived from integer counters"
)]
impl EngineStats {
    /// Events dispatched: stepped cycles, each of which ran a full
    /// controller tick (equal to [`EngineStats::steps`]).
    pub fn events_dispatched(&self) -> u64 {
        self.steps
    }

    /// Total clock jumps, quiescent plus busy.
    pub fn jumps(&self) -> u64 {
        self.quiescent_jumps + self.busy_jumps
    }

    /// Total cycles covered by jumps.
    pub fn skipped(&self) -> u64 {
        self.quiescent_skipped + self.busy_skipped
    }

    /// Mean cycles covered per jump (zero when no jump was taken).
    pub fn mean_jump(&self) -> f64 {
        if self.jumps() == 0 {
            0.0
        } else {
            self.skipped() as f64 / self.jumps() as f64
        }
    }

    /// Events dispatched per thousand simulated memory cycles — 1000.0
    /// for a pure per-cycle run, approaching zero as jumps dominate.
    pub fn events_per_kcycle(&self, mem_cycles: u64) -> f64 {
        if mem_cycles == 0 {
            0.0
        } else {
            self.events_dispatched() as f64 * 1000.0 / mem_cycles as f64
        }
    }
}

/// Results of one simulation run.
///
/// Compares equal field-by-field (`PartialEq`), which the determinism
/// tests use to assert that cycle skipping is bit-identical — except for
/// the diagnostic [`SimReport::engine`] counters, which legitimately
/// differ between engines and are excluded from the comparison.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// The mechanism simulated.
    pub mechanism: Mechanism,
    /// Workload name.
    pub workload: String,
    /// CPU cycles elapsed (execution time, Figure 10's quantity).
    pub cpu_cycles: u64,
    /// Memory-controller cycles elapsed.
    pub mem_cycles: u64,
    /// Instructions retired, summed over cores.
    pub instructions: u64,
    /// Controller statistics (latencies, row states, occupancy).
    pub ctrl: CtrlStats,
    /// DRAM bus statistics (Figure 9b).
    pub bus: BusStats,
    /// CPU statistics, summed over cores.
    pub cpu: CpuStats,
    /// Robustness summary (protocol checker, fault injection, watchdog).
    pub robustness: RobustnessReport,
    /// How the clock advanced (diagnostic; excluded from `PartialEq`).
    pub engine: EngineStats,
    /// Channel count, kept for utilisation denominators.
    pub(crate) channels: u64,
}

impl PartialEq for SimReport {
    fn eq(&self, other: &Self) -> bool {
        // `engine` is deliberately omitted: jump counts depend on the
        // engine and chunking, not on observable behaviour.
        self.mechanism == other.mechanism
            && self.workload == other.workload
            && self.cpu_cycles == other.cpu_cycles
            && self.mem_cycles == other.mem_cycles
            && self.instructions == other.instructions
            && self.ctrl == other.ctrl
            && self.bus == other.bus
            && self.cpu == other.cpu
            && self.robustness == other.robustness
            && self.channels == other.channels
    }
}

impl SimReport {
    /// Serialises every observable field (the sweep journal stores
    /// completed cells this way). Of the robustness summary only
    /// `violations` is written: the rest is derived from `ctrl`.
    pub fn save_snap(&self, w: &mut SnapWriter) {
        let Self {
            mechanism,
            workload,
            cpu_cycles,
            mem_cycles,
            instructions,
            ctrl,
            bus,
            cpu,
            robustness,
            engine: _, // diagnostic and outside `PartialEq`; loads as default
            channels,
        } = self;
        w.str(&mechanism.name());
        w.str(workload);
        w.varint(*cpu_cycles);
        w.varint(*mem_cycles);
        w.varint(*instructions);
        ctrl.save_snap(w);
        bus.save_snap(w);
        cpu.save_snap(w);
        w.varint(robustness.violations);
        w.varint(*channels);
    }

    /// Restores a report written by [`SimReport::save_snap`], rebuilding
    /// the robustness summary from the restored controller statistics.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] when the stream ends early,
    /// [`SnapError::Corrupt`] for an unknown mechanism or a malformed
    /// field.
    pub fn load_snap(r: &mut SnapReader) -> Result<Self, SnapError> {
        let mechanism =
            Mechanism::from_name(&r.str()?).ok_or(SnapError::Corrupt("unknown mechanism name"))?;
        let workload = r.str()?;
        let cpu_cycles = r.varint()?;
        let mem_cycles = r.varint()?;
        let instructions = r.varint()?;
        let ctrl = CtrlStats::load_snap(r)?;
        let bus = BusStats::load_snap(r)?;
        let cpu = CpuStats::load_snap(r)?;
        let robustness = RobustnessReport::collect(&ctrl, r.varint()?);
        Ok(SimReport {
            mechanism,
            workload,
            cpu_cycles,
            mem_cycles,
            instructions,
            ctrl,
            bus,
            cpu,
            robustness,
            engine: EngineStats::default(),
            channels: r.varint()?,
        })
    }
}

#[expect(
    clippy::disallowed_types,
    clippy::float_arithmetic,
    reason = "report-only SimReport summary metrics (IPC, utilisation, bandwidth) computed at run end"
)]
impl SimReport {
    /// Reads completed by the controller.
    pub fn reads(&self) -> u64 {
        self.ctrl.reads_done
    }

    /// Writes drained by the controller.
    pub fn writes(&self) -> u64 {
        self.ctrl.writes_done
    }

    /// Instructions per CPU cycle.
    pub fn ipc(&self) -> f64 {
        if self.cpu_cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cpu_cycles as f64
        }
    }

    /// Data-bus utilisation in `[0, 1]`, averaged across channels
    /// (Figure 9b). Bus statistics are summed over channels, so the
    /// denominator is `mem_cycles * channels`.
    pub fn data_bus_utilization(&self) -> f64 {
        self.bus
            .data_bus_utilization(self.mem_cycles * self.channels)
    }

    /// Address-bus utilisation in `[0, 1]` (Figure 9b).
    pub fn addr_bus_utilization(&self) -> f64 {
        self.bus
            .addr_bus_utilization(self.mem_cycles * self.channels)
    }

    /// Effective memory bandwidth in GB/s at the given memory clock (the
    /// paper quotes 2.0 GB/s for BkInOrder to 2.7 GB/s for Burst_TH at
    /// 400 MHz).
    pub fn effective_bandwidth_gbs(&self, mem_clock_hz: f64, bus_bytes: u32) -> f64 {
        self.data_bus_utilization() * 2.0 * f64::from(bus_bytes) * mem_clock_hz / 1e9
    }

    /// Channel count of the simulated device (utilisation denominators;
    /// also journalled so resumed sweeps rebuild reports losslessly).
    pub fn channels(&self) -> u64 {
        self.channels
    }

    /// Estimated DRAM energy of the run (extension; see
    /// [`burst_dram::EnergyBreakdown`]). `ranks` is the total rank count
    /// across channels paying background power.
    pub fn energy(
        &self,
        ranks: u32,
        params: &burst_dram::EnergyParams,
    ) -> burst_dram::EnergyBreakdown {
        burst_dram::EnergyBreakdown::estimate(&self.bus, self.mem_cycles, ranks, params)
    }
}

/// Owning core and line address of outstanding reads, keyed by dense
/// access id.
///
/// Access ids are assigned monotonically by [`System::enqueue`], so a
/// windowed slab replaces the former `HashMap<AccessId, u64>` on the
/// per-completion hot path: slot `id - base` holds the read, and the
/// window's base advances as the oldest reads complete. Writes (and
/// completed reads) occupy sentinel slots that are popped from the front
/// as soon as they become the oldest, so the window length tracks the
/// spread between the oldest outstanding read and the newest access —
/// bounded in practice by the controller's pool and the starvation
/// watchdog, not by the total access count.
#[derive(Debug, Default)]
struct LineSlab {
    /// Access id of `slots[0]`.
    base: u64,
    /// `(core, line)` per id, or [`LineSlab::VACANT`] for ids that are not
    /// outstanding reads (writes, completed or forwarded reads).
    slots: VecDeque<(usize, u64)>,
}

impl LineSlab {
    /// Sentinel line for "no read stored". Line addresses are physical
    /// cache line addresses and never reach `u64::MAX`.
    const EMPTY: u64 = u64::MAX;
    /// The slot of an id that holds no outstanding read.
    const VACANT: (usize, u64) = (0, Self::EMPTY);

    /// Stores core `core`'s read of `line` for `id`. Ids must not decrease
    /// below the window base (they are assigned monotonically).
    fn insert(&mut self, id: AccessId, core: usize, line: u64) {
        debug_assert_ne!(line, Self::EMPTY, "sentinel collision");
        if self.slots.is_empty() {
            // No reads outstanding: snap the window to this id so a run of
            // intervening writes leaves no sentinel gap to cross.
            self.base = id.value();
        }
        let idx = id.value() - self.base;
        while (self.slots.len() as u64) <= idx {
            self.slots.push_back(Self::VACANT);
        }
        self.slots[idx as usize] = (core, line);
    }

    /// Removes and returns the `(core, line)` stored for `id`, advancing
    /// the window past any leading vacant slots.
    fn remove(&mut self, id: AccessId) -> Option<(usize, u64)> {
        let idx = id.value().checked_sub(self.base)?;
        if idx >= self.slots.len() as u64 {
            return None;
        }
        let slot = std::mem::replace(&mut self.slots[idx as usize], Self::VACANT);
        while self.slots.front() == Some(&Self::VACANT) {
            self.slots.pop_front();
            self.base += 1;
        }
        (slot != Self::VACANT).then_some(slot)
    }

    #[cfg(test)]
    fn window_len(&self) -> usize {
        self.slots.len()
    }
}

/// Size in bytes of the diagnostic tail [`System::checkpoint`] appends
/// after the hashed observable sections: the five [`EngineStats`]
/// counters, one `u64` each.
pub(crate) const DIAGNOSTIC_TAIL_BYTES: usize = 5 * 8;

/// A provably-skippable stretch of upcoming memory cycles, tagged with
/// the closed-form replay it needs (see [`System::jump_horizon`]).
#[derive(Debug, Clone, Copy)]
enum Jump {
    /// The whole system is idle: replay via `advance_quiescent`.
    Quiescent(u64),
    /// Work is outstanding but provably blocked: replay via
    /// `advance_blocked`.
    Busy(u64),
}

impl Jump {
    fn len(self) -> u64 {
        match self {
            Jump::Quiescent(n) | Jump::Busy(n) => n,
        }
    }
}

/// A stepped full-system simulation: one or more CPU cores with private
/// cache hierarchies sharing one memory controller and DRAM device.
///
/// [`System::new`] builds the paper's single-core machine, driven by
/// [`System::warm`], [`System::try_run`] and friends. [`System::with_cores`]
/// builds a chip multiprocessor (the paper's Section 6 extension), driven
/// by the `*_cores` variants with one workload per core. Both go through
/// the same step loop, engines, snapshots and error paths. Every entry
/// point panics unless it is given exactly one workload per core.
#[derive(Debug)]
pub struct System {
    cfg: SystemConfig,
    dram: Dram,
    sched: Box<dyn AccessScheduler>,
    /// One CPU per core, never empty.
    cpus: Vec<Cpu>,
    mem_cycle: Cycle,
    next_id: u64,
    completions: Vec<Completion>,
    /// Future read deliveries: (done_at, owning core, line address).
    pending: BinaryHeap<Reverse<(Cycle, usize, u64)>>,
    read_lines: LineSlab,
    /// Event-engine observability counters, including the memory cycles
    /// jumped over. Diagnostic only — deliberately excluded from
    /// [`SimReport`]'s comparison, which must hold between engines.
    engine_stats: EngineStats,
    /// Fruitless-fold backoff: steps to wait before the next
    /// [`AccessScheduler::next_busy_event`] attempt. Declining to attempt
    /// a jump is always safe (the cycle is stepped instead, and jumps are
    /// bit-identical to steps), so this is pure execution-path tuning for
    /// event-dense phases where the fold rarely buys a jump — so it is
    /// absent from checkpoints.
    fold_cooldown: u64,
    /// Current backoff stride, doubled (up to [`FOLD_MAX_STRIDE`]) on
    /// every fruitless fold and reset by a profitable jump.
    fold_stride: u64,
    /// Cached minimum of `pending` (`u64::MAX` when empty): the earliest
    /// cycle a read delivery is due. Min-maintained on push, recomputed
    /// after a drain — so the per-step delivery check and the horizon
    /// probes are one integer compare. Purely an execution-path memo
    /// (always equal to `pending.peek()`), rebuilt on restore.
    next_delivery: Cycle,
    /// Opt-in wall-clock phase profile (see [`PhaseProfile`]): report-only
    /// host-time accounting, `None` unless a profiler enables it.
    /// Never serialised — it describes the host run, not simulated state.
    profile: Option<Box<PhaseProfile>>,
}

/// A busy-event fold that yields a jump at least this long resets
/// the backoff stride; shorter outcomes grow it.
const FOLD_MIN_PROFIT: u64 = 4;

/// Upper bound on the fruitless-fold backoff stride, so a phase change
/// back to sparse traffic is noticed within this many stalled steps.
const FOLD_MAX_STRIDE: u64 = 64;

impl System {
    /// Builds an idle single-core system.
    pub fn new(cfg: &SystemConfig) -> Self {
        Self::with_scheduler(cfg, cfg.scheduler())
    }

    /// Builds a single-core system around a caller-supplied scheduler —
    /// the seam for testing robustness machinery against schedulers
    /// outside [`Mechanism`] (e.g. deliberately broken ones).
    pub fn with_scheduler(cfg: &SystemConfig, sched: Box<dyn AccessScheduler>) -> Self {
        Self::with_cores(cfg, sched, NonZeroUsize::MIN)
    }

    /// Builds an idle chip multiprocessor: `cores` CPUs with private cache
    /// hierarchies sharing `sched` and one DRAM device (pass
    /// [`SystemConfig::scheduler`] for the configured mechanism). Each core
    /// addresses its own slice of physical memory, as distinct processes
    /// would; core 0's addresses are untranslated, so one core is exactly
    /// [`System::with_scheduler`].
    pub fn with_cores(
        cfg: &SystemConfig,
        sched: Box<dyn AccessScheduler>,
        cores: NonZeroUsize,
    ) -> Self {
        let mut dram = Dram::new(cfg.dram, cfg.mapping);
        if cfg.checker {
            dram.enable_checker();
        }
        System {
            cfg: *cfg,
            dram,
            sched,
            cpus: (0..cores.get()).map(|_| Cpu::new(cfg.cpu)).collect(),
            mem_cycle: 0,
            next_id: 0,
            completions: Vec::new(),
            pending: BinaryHeap::new(),
            read_lines: LineSlab::default(),
            engine_stats: EngineStats::default(),
            fold_cooldown: 0,
            fold_stride: 1,
            next_delivery: Cycle::MAX,
            profile: None,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Memory cycles elapsed.
    pub fn mem_cycle(&self) -> Cycle {
        self.mem_cycle
    }

    /// Instructions retired, summed over cores.
    pub fn retired(&self) -> u64 {
        self.cpus.iter().map(Cpu::retired).sum()
    }

    /// Instructions retired by core `core` (panics past the last core).
    pub fn core_retired(&self, core: usize) -> u64 {
        self.cpus[core].retired()
    }

    /// Memory cycles jumped over by the engine so far (zero under
    /// [`Engine::CycleNoSkip`]). Counts toward [`System::mem_cycle`] like
    /// any stepped cycle.
    pub fn skipped_cycles(&self) -> u64 {
        self.engine_stats.skipped()
    }

    /// Event-engine observability counters accumulated so far.
    pub fn engine_stats(&self) -> EngineStats {
        self.engine_stats
    }

    /// Panics unless there is exactly one workload per core.
    fn check_sources(&self, workloads: &[&mut dyn OpSource]) {
        assert_eq!(workloads.len(), self.cpus.len(), "one workload per core");
    }

    /// Functionally warms the caches of a single-core system with the
    /// configured budget. Call once before [`System::run`]; [`simulate`]
    /// does this automatically.
    pub fn warm(&mut self, mut workload: &mut dyn OpSource) {
        self.warm_cores(std::slice::from_mut(&mut workload));
    }

    /// [`System::warm`] for every core, each from its own workload.
    pub fn warm_cores(&mut self, workloads: &mut [&mut dyn OpSource]) {
        self.check_sources(workloads);
        let budget = self.cfg.warm_mem_ops;
        if budget > 0 {
            for (cpu, w) in self.cpus.iter_mut().zip(workloads) {
                cpu.warm_caches(&mut **w, budget);
            }
        }
    }

    /// Advances a single-core system by one memory-controller cycle.
    pub fn step(&mut self, mut workload: &mut dyn OpSource) {
        let workloads = std::slice::from_mut(&mut workload);
        self.check_sources(workloads);
        self.step_all(workloads);
    }

    /// The one step loop body, for any core count: every core runs
    /// `cpu_ratio` CPU cycles, then requests are handed off, then one
    /// scheduler tick and read delivery. Callers have checked that
    /// `workloads` pairs one workload with each core.
    fn step_all(&mut self, workloads: &mut [&mut dyn OpSource]) {
        self.engine_stats.steps += 1;
        let t0 = Stamp::begin(self.profile.is_some());
        // 1. Every core makes progress and generates cache-miss traffic.
        //    Under the event engine, [`Cpu::run_until`] advances stalled
        //    stretches and full-width compute streaks inside the step in
        //    closed form — bit-identically to per-cycle stepping, since
        //    nothing external (read delivery, hand-off) happens between the
        //    micro-cycles of one step. The reference engine keeps the plain
        //    loop as an independent implementation.
        let ratio = self.cfg.cpu.cpu_ratio;
        let per_cycle = self.cfg.engine == Engine::CycleNoSkip;
        for (cpu, w) in self.cpus.iter_mut().zip(workloads) {
            if per_cycle {
                for _ in 0..ratio {
                    cpu.cycle(&mut **w);
                }
            } else {
                cpu.run_until(cpu.now() + ratio, &mut **w);
            }
        }
        let t1 = t0.lap(self.profile.as_deref_mut(), |p| &mut p.cpu_ns);
        // 2. Hand requests to the controller while it accepts them. Reads
        //    first (they are latency-critical), then writebacks, each
        //    visiting the cores round-robin from core `mem_cycle % cores`
        //    so no core is favoured. The pending-count guards skip the
        //    virtual `can_accept` probe on the (common) steps with nothing
        //    to hand off.
        let cores = self.cpus.len();
        // One core needs no 64-bit division per step.
        let first = match cores {
            1 => 0,
            _ => (self.mem_cycle % cores as u64) as usize,
        };
        for core in (first..cores).chain(0..first) {
            if self.cpus[core].pending_read_requests() != 0 {
                while self.sched.can_accept(AccessKind::Read) {
                    let Some((line, critical)) = self.cpus[core].pop_read_request_tagged() else {
                        break;
                    };
                    self.enqueue(core, AccessKind::Read, line, critical);
                }
            }
        }
        for core in (first..cores).chain(0..first) {
            if self.cpus[core].pending_writebacks() != 0 {
                while self.sched.can_accept(AccessKind::Write) {
                    let Some(line) = self.cpus[core].pop_writeback() else {
                        break;
                    };
                    self.enqueue(core, AccessKind::Write, line, false);
                }
            }
        }
        let t2 = t1.lap(self.profile.as_deref_mut(), |p| &mut p.handoff_ns);
        // 3. One controller + device cycle.
        self.sched
            .tick(&mut self.dram, self.mem_cycle, &mut self.completions);
        for c in self.completions.drain(..) {
            if c.kind == AccessKind::Read {
                if let Some((core, line)) = self.read_lines.remove(c.id) {
                    self.pending.push(Reverse((c.done_at, core, line)));
                    self.next_delivery = self.next_delivery.min(c.done_at);
                }
            }
        }
        let t3 = t2.lap(self.profile.as_deref_mut(), |p| &mut p.dram_ns);
        // 4. Deliver read data whose transfer has finished to the core that
        //    asked for it. The cached minimum makes the no-delivery step
        //    (the common case) a single integer compare instead of a heap
        //    peek through two levels of wrapper types.
        if self.next_delivery <= self.mem_cycle {
            while let Some(&Reverse((at, core, line))) = self.pending.peek() {
                if at > self.mem_cycle {
                    break;
                }
                self.pending.pop();
                let cpu = &mut self.cpus[core];
                cpu.complete_read(line, cpu.now());
            }
            self.next_delivery = self
                .pending
                .peek()
                .map_or(Cycle::MAX, |&Reverse((at, _, _))| at);
        }
        t3.lap(self.profile.as_deref_mut(), |p| &mut p.deliver_ns);
        self.mem_cycle += 1;
    }

    /// Turns on wall-clock phase profiling for subsequent steps (see
    /// [`PhaseProfile`]). Report-only: enabling it cannot change one bit
    /// of simulated behaviour, only how much the host clock is read.
    pub fn enable_phase_profile(&mut self) {
        if self.profile.is_none() {
            self.profile = Some(Box::default());
        }
    }

    /// The accumulated phase profile, if profiling was enabled.
    pub fn phase_profile(&self) -> Option<&PhaseProfile> {
        self.profile.as_deref()
    }

    fn enqueue(&mut self, core: usize, kind: AccessKind, line: u64, critical: bool) {
        // Core 0 — every single-core system — is untranslated. Every other
        // core is rotated by a large odd page multiple into its own slice
        // of the 4 GiB space, as distinct processes would be: cores collide
        // in banks (shared DRAM) but not in lines (private data).
        let addr = PhysAddr::new(match core {
            0 => line,
            _ => line.wrapping_add(core as u64 * 0x2654_3000) % (4u64 << 30),
        });
        let loc = self.dram.decode(addr);
        let id = AccessId::new(self.next_id);
        self.next_id += 1;
        let access = Access::new(id, kind, addr, loc, self.mem_cycle).with_critical(critical);
        if kind == AccessKind::Read {
            self.read_lines.insert(id, core, line);
        }
        // Forwarded reads push a same-cycle completion, which the regular
        // delivery path below hands back to the CPU this very cycle.
        self.sched
            .enqueue(access, self.mem_cycle, &mut self.completions);
    }

    /// The earliest CPU cycle at which some core's dispatch could unblock
    /// on its own (`u64::MAX` when every core waits on memory), or `None`
    /// when some core is live.
    fn cores_idle_until(&self) -> Option<u64> {
        self.cpus
            .iter()
            .try_fold(u64::MAX, |wake, cpu| Some(wake.min(cpu.idle_until()?)))
    }

    /// How many upcoming memory cycles are provably pure no-ops, or
    /// `None` when the system may make progress on the very next step.
    ///
    /// A cycle qualifies only when nothing can change during it: every
    /// core is fully stalled with no undelivered requests, the scheduler
    /// holds no work (callers have checked it is quiescent), no read
    /// delivery is due, and the device reports no timing event. The
    /// returned count may be enormous (a livelocked system has no next
    /// event); callers cap it with their run budget before calling
    /// [`System::advance_idle`].
    fn skip_horizon(&self) -> Option<u64> {
        if self
            .cpus
            .iter()
            .any(|c| c.pending_read_requests() != 0 || c.pending_writebacks() != 0)
        {
            return None;
        }
        let wake = self.cores_idle_until()?;
        let cur = self.mem_cycle;
        let r = self.cfg.cpu.cpu_ratio;
        // Step `t` runs CPU cycles `t*r + 1..=(t+1)*r`, so the retirement
        // wake-up at CPU cycle `wake` happens during step `(wake - 1) / r`.
        let mut event = if wake == u64::MAX {
            u64::MAX
        } else {
            (wake - 1) / r
        };
        event = event.min(self.next_delivery);
        // The device horizon is evaluated at the last ticked cycle
        // (`cur - 1`): an event due exactly at `cur` must force a normal
        // step, and `next_event` only reports events after its argument.
        if let Some(at) = self.dram.next_event(cur - 1) {
            event = event.min(at);
        }
        (event > cur).then(|| event - cur)
    }

    /// Jumps `n` quiescent memory cycles in one stride, bit-identically
    /// to stepping through them: CPU stall time, controller bookkeeping
    /// and the cycle counter advance in closed form, and the untouched
    /// device state is exactly what `n` no-op ticks would have left.
    /// Callers must keep `n` within [`System::skip_horizon`].
    fn advance_idle(&mut self, n: u64) {
        self.advance_cores(n);
        self.sched.advance_quiescent(self.mem_cycle, n);
        self.mem_cycle += n;
        self.engine_stats.quiescent_jumps += 1;
        self.engine_stats.quiescent_skipped += n;
    }

    /// Burns `n` memory cycles of pure stall time on every core.
    fn advance_cores(&mut self, n: u64) {
        let cycles = n * self.cfg.cpu.cpu_ratio;
        for cpu in &mut self.cpus {
            cpu.advance_stalled(cycles);
        }
    }

    /// How many upcoming memory cycles are provably no-ops *while the
    /// memory system is busy*, or `None` when the next step may act.
    ///
    /// This is the event engine's extension over [`System::skip_horizon`]:
    /// outstanding accesses may be in flight, but every component proves
    /// it cannot observably act before the returned horizon — every core
    /// is stalled past it, request hand-off is blocked (nothing pending,
    /// or the controller pool is full and stays full because nothing
    /// issues), no read delivery is due, the device reports no timing
    /// event, and the scheduler's own arbiter/selection/watchdog/adaptation
    /// fixpoint holds for the whole stretch
    /// ([`AccessScheduler::next_busy_event`]).
    fn busy_horizon(&mut self) -> Option<u64> {
        // The cheap vetoes come first, so event-dense phases — where the
        // CPU is live and hand-off churns every step — never pay for the
        // scheduler fold below.
        //
        // Hand-off stability: an undelivered CPU request enters the
        // controller on the very next step it can accept one. Occupancy is
        // constant over a no-op stretch (slots free only when commands
        // issue), so acceptance cannot open up mid-jump either.
        if self.cpus.iter().any(|c| c.pending_read_requests() != 0)
            && self.sched.can_accept(AccessKind::Read)
        {
            return None;
        }
        if self.cpus.iter().any(|c| c.pending_writebacks() != 0)
            && self.sched.can_accept(AccessKind::Write)
        {
            return None;
        }
        let wake = self.cores_idle_until()?;
        // The controller can veto outright: `None` means "the next tick
        // may act" (or it cannot prove otherwise). The fold sits behind an
        // exponential backoff: during dense phases most folds buy no jump,
        // and declining to attempt one is always bit-identical (the cycle
        // is simply stepped).
        if self.fold_cooldown > 0 {
            self.fold_cooldown -= 1;
            return None;
        }
        let cur = self.mem_cycle;
        // Both horizons read the last ticked cycle (`cur - 1`): an event
        // due exactly at `cur` must force a normal step.
        let Some(mut event) = self.sched.next_busy_event(&self.dram, cur - 1) else {
            self.fold_backoff();
            return None;
        };
        if let Some(at) = self.dram.next_event(cur - 1) {
            event = event.min(at);
        }
        let r = self.cfg.cpu.cpu_ratio;
        if wake != u64::MAX {
            // Step `t` runs CPU cycles `t*r + 1..=(t+1)*r`, so the
            // retirement wake-up at CPU cycle `wake` happens during step
            // `(wake - 1) / r`.
            event = event.min((wake - 1) / r);
        }
        event = event.min(self.next_delivery);
        let n = (event > cur).then(|| event - cur);
        match n {
            Some(n) if n >= FOLD_MIN_PROFIT => self.fold_stride = 1,
            // A clamped or empty jump: the fold did not pay, back off.
            _ => self.fold_backoff(),
        }
        n
    }

    /// Registers a fruitless [`AccessScheduler::next_busy_event`] fold:
    /// skip the next `fold_stride` attempts and double the stride.
    fn fold_backoff(&mut self) {
        self.fold_cooldown = self.fold_stride;
        self.fold_stride = (self.fold_stride * 2).min(FOLD_MAX_STRIDE);
    }

    /// Jumps `n` busy memory cycles in one stride, bit-identically to
    /// stepping through them: CPU stall time, the controller's per-tick
    /// bookkeeping (occupancy samples, age tracking, watchdog clock) and
    /// the cycle counter advance in closed form. Callers must keep `n`
    /// within [`System::busy_horizon`].
    fn advance_busy(&mut self, n: u64) {
        self.advance_cores(n);
        self.sched.advance_blocked(self.mem_cycle, n);
        self.mem_cycle += n;
        self.engine_stats.busy_jumps += 1;
        self.engine_stats.busy_skipped += n;
    }

    /// The provably skippable stretch starting at the next step, if any:
    /// a quiescent horizon when the controller is empty, a busy one
    /// otherwise. The reference engine never jumps, and no engine jumps
    /// before the first tick (the device horizons read the last ticked
    /// cycle).
    fn jump_horizon(&mut self) -> Option<Jump> {
        if self.cfg.engine == Engine::CycleNoSkip || self.mem_cycle == 0 {
            return None;
        }
        if self.sched.quiescent() {
            self.skip_horizon().map(Jump::Quiescent)
        } else {
            self.busy_horizon().map(Jump::Busy)
        }
    }

    /// Advances `n` cycles of the stretch `jump` was computed for.
    fn advance_jump(&mut self, jump: Jump, n: u64) {
        match jump {
            Jump::Quiescent(_) => self.advance_idle(n),
            Jump::Busy(_) => self.advance_busy(n),
        }
    }

    /// Runs until `len` is reached.
    ///
    /// # Panics
    ///
    /// Panics with the [`RunError`] diagnostic if the system makes no
    /// forward progress for an implausibly long stretch (a livelock would
    /// otherwise hang experiments silently). Use [`System::try_run`] to
    /// handle stalls as values.
    pub fn run(&mut self, workload: &mut dyn OpSource, len: RunLength) {
        if let Err(e) = self.try_run(workload, len) {
            panic!("simulation stalled: {e}");
        }
    }

    /// Runs until `len` is reached, turning forward-progress stalls into
    /// structured errors instead of hanging or panicking.
    ///
    /// # Errors
    ///
    /// [`RunError::ControllerStall`] when the scheduler's watchdog latches
    /// a stall (outstanding accesses but no transaction issued for the
    /// configured limit); [`RunError::RetirementStall`] when the CPU stops
    /// retiring instructions for two million memory cycles although the
    /// controller itself reports no stall.
    pub fn try_run(
        &mut self,
        mut workload: &mut dyn OpSource,
        len: RunLength,
    ) -> Result<(), RunError> {
        self.try_run_cores(std::slice::from_mut(&mut workload), len)
    }

    /// [`System::try_run`] for every core, each from its own workload.
    ///
    /// # Errors
    ///
    /// Same conditions as [`System::try_run`].
    pub fn try_run_cores(
        &mut self,
        workloads: &mut [&mut dyn OpSource],
        len: RunLength,
    ) -> Result<(), RunError> {
        let mut cursor = RunCursor::start(self);
        loop {
            match self.try_run_chunk_cores(workloads, len, &mut cursor, u64::MAX)? {
                ChunkOutcome::Done => return Ok(()),
                ChunkOutcome::Paused => continue,
            }
        }
    }

    /// Runs toward `len` for at most `budget` memory cycles (stepped plus
    /// skipped), pausing at a step boundary when the budget runs out.
    ///
    /// The chunk boundary is exactly where a checkpoint is taken: pausing,
    /// snapshotting, restoring into a fresh system and continuing yields
    /// the same cycle-by-cycle behaviour as an uninterrupted
    /// [`System::try_run`] — the skip-capping logic decomposes jumps
    /// bit-identically, and `cursor` carries the retirement-watchdog
    /// counters across the boundary so even the stall-declaration cycle is
    /// preserved.
    ///
    /// # Errors
    ///
    /// Same conditions as [`System::try_run`]; both error variants carry
    /// the state hash at the failure cycle.
    pub fn try_run_chunk(
        &mut self,
        mut workload: &mut dyn OpSource,
        len: RunLength,
        cursor: &mut RunCursor,
        budget: u64,
    ) -> Result<ChunkOutcome, RunError> {
        self.try_run_chunk_cores(std::slice::from_mut(&mut workload), len, cursor, budget)
    }

    /// [`System::try_run_chunk`] for every core, each from its own
    /// workload — the one run loop behind every `try_run*` entry point.
    /// [`RunLength::Instructions`] counts instructions summed over cores.
    ///
    /// # Errors
    ///
    /// Same conditions as [`System::try_run`].
    pub fn try_run_chunk_cores(
        &mut self,
        workloads: &mut [&mut dyn OpSource],
        len: RunLength,
        cursor: &mut RunCursor,
        budget: u64,
    ) -> Result<ChunkOutcome, RunError> {
        self.check_sources(workloads);
        let mut spent = 0u64;
        match len {
            RunLength::MemCycles(n) => {
                while cursor.done_cycles < n {
                    if spent >= budget {
                        return Ok(ChunkOutcome::Paused);
                    }
                    self.step_all(workloads);
                    cursor.done_cycles += 1;
                    spent += 1;
                    if let Some(diag) = self.stamped_stall() {
                        return Err(RunError::ControllerStall(diag));
                    }
                    // Skipped cycles cannot latch a stall: quiescent ones
                    // trivially, busy ones because the stall-latch cycle
                    // bounds every busy horizon — so jumping skips no
                    // diagnostic check that could fire.
                    if let Some(jump) = self.jump_horizon() {
                        let skip = jump
                            .len()
                            .min(n - cursor.done_cycles)
                            .min(budget.saturating_sub(spent));
                        if skip > 0 {
                            self.advance_jump(jump, skip);
                            cursor.done_cycles += skip;
                            spent += skip;
                        }
                    }
                }
            }
            RunLength::Instructions(n) => {
                // Only a step retires instructions (a jump lies within a
                // stall), so one sum over the cores per step suffices.
                let mut retired = self.retired();
                while retired < n {
                    if spent >= budget {
                        return Ok(ChunkOutcome::Paused);
                    }
                    self.step_all(workloads);
                    spent += 1;
                    if let Some(diag) = self.stamped_stall() {
                        return Err(RunError::ControllerStall(diag));
                    }
                    retired = self.retired();
                    if retired == cursor.last_retired {
                        cursor.idle += 1;
                        if cursor.idle >= 2_000_000 {
                            return Err(self.retirement_stall(cursor.last_retired));
                        }
                        // Nothing retires during a skipped stretch (the
                        // CPU is stalled past its end), so the idle budget
                        // burns down cycle-for-cycle — capping the jump at
                        // the budget lands the stall error on the exact
                        // cycle per-cycle stepping would report.
                        if let Some(jump) = self.jump_horizon() {
                            let skip = jump
                                .len()
                                .min(2_000_000 - cursor.idle)
                                .min(budget.saturating_sub(spent));
                            if skip > 0 {
                                self.advance_jump(jump, skip);
                                cursor.idle += skip;
                                spent += skip;
                                if cursor.idle >= 2_000_000 {
                                    return Err(self.retirement_stall(cursor.last_retired));
                                }
                            }
                        }
                    } else {
                        cursor.idle = 0;
                        cursor.last_retired = retired;
                    }
                }
            }
        }
        Ok(ChunkOutcome::Done)
    }

    /// The scheduler's latched stall diagnostic with the whole-system
    /// state hash stamped in (zero when the state cannot be serialised).
    fn stamped_stall(&self) -> Option<StallDiagnostic> {
        let mut diag = self.sched.stall_diagnostic()?;
        diag.state_hash = self.state_hash().unwrap_or(0);
        Some(diag)
    }

    fn retirement_stall(&self, last_retired: u64) -> RunError {
        RunError::RetirementStall {
            mem_cycle: self.mem_cycle,
            retired: last_retired,
            state_hash: self.state_hash().unwrap_or(0),
        }
    }

    /// Produces the run's report: CPU cycles of the furthest core,
    /// instructions and CPU statistics summed over cores.
    pub fn report(&self, workload_name: impl Into<String>) -> SimReport {
        SimReport {
            mechanism: self.sched.mechanism(),
            workload: workload_name.into(),
            cpu_cycles: self.cpus.iter().map(Cpu::now).max().unwrap_or(0),
            mem_cycles: self.mem_cycle,
            instructions: self.retired(),
            ctrl: self.sched.stats().clone(),
            bus: self.dram.total_stats(),
            cpu: self
                .cpus
                .iter()
                .map(|c| *c.stats())
                .fold(CpuStats::default(), |a, s| a + s),
            robustness: RobustnessReport::collect(
                self.sched.stats(),
                self.dram.protocol_violations(),
            ),
            engine: self.engine_stats,
            channels: u64::from(self.cfg.dram.geometry.channels),
        }
    }

    /// Fault-injection hook for the lockstep oracle's self-check:
    /// deterministically skews core 0's stall-cycle accounting by
    /// `cycles`, emulating the bookkeeping bug class event-horizon
    /// skipping could introduce. The skew is observable in the state hash
    /// from this cycle on, so the oracle must pinpoint exactly the cycle
    /// it was applied.
    pub fn perturb_stall_accounting(&mut self, cycles: u64) {
        self.cpus[0].skew_stall_accounting(cycles);
    }

    /// The stall diagnostic latched by the scheduler's watchdog, if any,
    /// with the whole-system state hash stamped in.
    pub fn stall_diagnostic(&self) -> Option<StallDiagnostic> {
        self.stamped_stall()
    }

    /// DDR2 protocol violations recorded so far (always zero with the
    /// checker disabled).
    pub fn protocol_violations(&self) -> u64 {
        self.dram.protocol_violations()
    }

    /// Serialises the four observable sections (CPU, scheduler, DRAM,
    /// system glue) into one writer, each as a length-prefixed run, and
    /// returns the payload range of each. The one serialiser behind
    /// [`System::checkpoint`], [`System::state_hash`] and
    /// [`System::component_hashes`], so they always agree byte-for-byte.
    fn save_observable(&self) -> Result<(SnapWriter, [Range<usize>; 4]), SnapError> {
        let Self {
            cfg: _, // construction input; restore re-supplies it
            dram,
            sched,
            cpus,
            mem_cycle,
            next_id,
            completions,
            pending,
            read_lines: LineSlab { base, slots },
            engine_stats: _,  // engine diagnostic; `checkpoint` stores it unhashed
            fold_cooldown: _, // execution-path tuning, reset on restore
            fold_stride: _,   // execution-path tuning, reset on restore
            next_delivery: _, // execution-path memo, rebuilt from `pending` on restore
            profile: _,       // host-time accounting, not simulated state
        } = self;
        let mut w = SnapWriter::new();
        let cpu = w.section(|w| {
            for cpu in cpus {
                cpu.save_snap(w);
            }
            Ok(())
        })?;
        let sched = w.section(|w| sched.save_state(w))?;
        let dram = w.section(|w| {
            dram.save_snap(w);
            Ok(())
        })?;
        let system = w.section(|w| {
            w.usize(cpus.len());
            w.u64(*mem_cycle);
            w.u64(*next_id);
            // A BinaryHeap's internal layout depends on insertion history;
            // serialise the pending deliveries sorted so two systems in the
            // same logical state produce the same bytes.
            let mut pending: Vec<(Cycle, usize, u64)> =
                pending.iter().map(|Reverse(p)| *p).collect();
            pending.sort_unstable();
            w.usize(pending.len());
            for (at, core, line) in pending {
                w.u64(at);
                w.usize(core);
                w.u64(line);
            }
            // Completions are drained within every step, so this is empty at
            // any step boundary — written anyway so the format cannot lie.
            w.usize(completions.len());
            for c in completions {
                w.u64(c.id.value());
                w.u8(match c.kind {
                    AccessKind::Read => 0,
                    AccessKind::Write => 1,
                });
                w.u64(c.done_at);
                w.u64(c.latency);
                w.bool(c.forwarded);
            }
            w.u64(*base);
            w.usize(slots.len());
            for &(core, line) in slots {
                w.usize(core);
                w.u64(line);
            }
            Ok::<(), SnapError>(())
        })?;
        Ok((w, [cpu, sched, dram, system]))
    }

    /// Serialises the complete simulation state into a [`Snapshot`].
    ///
    /// Call at a step boundary (between [`System::step`] calls, or when
    /// [`System::try_run_chunk`] pauses). Restoring the snapshot into a
    /// fresh system built from the same configuration — with the workload
    /// rebuilt from its seed and fast-forwarded by the recorded op count —
    /// continues to a byte-identical [`SimReport`].
    ///
    /// One pass: the sections are written straight into the snapshot's
    /// buffer and hashed once. Per-component digests are not computed here;
    /// ask [`System::component_hashes`] when they are needed.
    ///
    /// # Errors
    ///
    /// [`SnapError::Unsupported`] when the scheduler is a caller-supplied
    /// type without checkpoint support.
    pub fn checkpoint(&self) -> Result<Snapshot, SnapError> {
        let (mut w, _) = self.save_observable()?;
        let state_hash = fnv1a64(w.as_slice());
        // Diagnostic section: the engine counters are reported by
        // `engine_stats` but deliberately excluded from the state hash,
        // which must agree across engines.
        w.u64(self.engine_stats.steps);
        w.u64(self.engine_stats.quiescent_jumps);
        w.u64(self.engine_stats.quiescent_skipped);
        w.u64(self.engine_stats.busy_jumps);
        w.u64(self.engine_stats.busy_skipped);
        Ok(Snapshot {
            bytes: w.into_bytes(),
            state_hash,
        })
    }

    /// Restores state written by [`System::checkpoint`] into a system
    /// built from the same configuration.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] or [`SnapError::Corrupt`] when the bytes
    /// do not decode against this system's configuration (wrong geometry,
    /// wrong mechanism, torn file). The system is left in an unspecified
    /// but memory-safe state on error; discard it.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let mut r = SnapReader::new(bytes);
        let cpu_bytes = r.bytes()?;
        let sched_bytes = r.bytes()?;
        let dram_bytes = r.bytes()?;
        let system_bytes = r.bytes()?;
        let saved_engine_stats = EngineStats {
            steps: r.u64()?,
            quiescent_jumps: r.u64()?,
            quiescent_skipped: r.u64()?,
            busy_jumps: r.u64()?,
            busy_skipped: r.u64()?,
        };
        r.finish()?;
        let Self {
            cfg: _, // construction input; restore re-supplies it
            dram,
            sched,
            cpus,
            mem_cycle,
            next_id,
            completions,
            pending,
            read_lines: LineSlab { base, slots },
            engine_stats,
            fold_cooldown,
            fold_stride,
            next_delivery,
            profile: _, // describes the host run; persists across restores untouched
        } = self;
        // The core count leads the system section; check it before any
        // per-core state is touched.
        let mut yr = SnapReader::new(system_bytes);
        let cores = cpus.len();
        if yr.usize()? != cores {
            return Err(SnapError::Corrupt("snapshot has a different core count"));
        }
        let mut cr = SnapReader::new(cpu_bytes);
        for cpu in cpus.iter_mut() {
            cpu.load_snap(&mut cr)?;
        }
        cr.finish()?;
        let mut sr = SnapReader::new(sched_bytes);
        sched.load_state(&mut sr)?;
        sr.finish()?;
        let mut dr = SnapReader::new(dram_bytes);
        dram.load_snap(&mut dr)?;
        dr.finish()?;
        *mem_cycle = yr.u64()?;
        *next_id = yr.u64()?;
        let read_core = |yr: &mut SnapReader| match yr.usize()? {
            core if core < cores => Ok(core),
            _ => Err(SnapError::Corrupt("owning core out of range")),
        };
        let n_pending = yr.seq_len(24)?;
        pending.clear();
        for _ in 0..n_pending {
            let at = yr.u64()?;
            let core = read_core(&mut yr)?;
            let line = yr.u64()?;
            pending.push(Reverse((at, core, line)));
        }
        let n_completions = yr.seq_len(25)?;
        completions.clear();
        for _ in 0..n_completions {
            let id = AccessId::new(yr.u64()?);
            let kind = match yr.u8()? {
                0 => AccessKind::Read,
                1 => AccessKind::Write,
                _ => return Err(SnapError::Corrupt("bad completion kind")),
            };
            let done_at = yr.u64()?;
            let latency = yr.u64()?;
            let forwarded = yr.bool()?;
            completions.push(Completion {
                id,
                kind,
                done_at,
                latency,
                forwarded,
            });
        }
        *base = yr.u64()?;
        let n_slots = yr.seq_len(16)?;
        slots.clear();
        for _ in 0..n_slots {
            let slot = (read_core(&mut yr)?, yr.u64()?);
            if slot.1 == LineSlab::EMPTY && slot != LineSlab::VACANT {
                return Err(SnapError::Corrupt("vacant read-line slot names a core"));
            }
            slots.push_back(slot);
        }
        yr.finish()?;
        if *base + slots.len() as u64 > *next_id {
            return Err(SnapError::Corrupt("read-line window past the id counter"));
        }
        *engine_stats = saved_engine_stats;
        // Execution-path memos: reset the fold backoff and rebuild the
        // delivery minimum from the restored heap.
        *fold_cooldown = 0;
        *fold_stride = 1;
        *next_delivery = pending.peek().map_or(Cycle::MAX, |&Reverse((at, _, _))| at);
        Ok(())
    }

    /// FNV-1a digest of the observable simulation state — identical for
    /// two systems whose future behaviour is identical, regardless of how
    /// they got there (stepped or skipped, fresh or restored).
    ///
    /// # Errors
    ///
    /// [`SnapError::Unsupported`] for schedulers without checkpoint
    /// support.
    // The step loop reaches this only on a stall: kept out of line so the
    // hashing loop is not inlined into `try_run_chunk`.
    #[cold]
    pub fn state_hash(&self) -> Result<u64, SnapError> {
        Ok(fnv1a64(self.save_observable()?.0.as_slice()))
    }

    /// Per-component digests of the observable state (see
    /// [`ComponentHashes`]), computed on demand: only the lockstep oracle's
    /// divergence report needs them.
    ///
    /// # Errors
    ///
    /// Same conditions as [`System::state_hash`].
    pub fn component_hashes(&self) -> Result<ComponentHashes, SnapError> {
        let (w, sections) = self.save_observable()?;
        let [cpu, sched, dram, system] = sections.map(|r| fnv1a64(&w.as_slice()[r]));
        Ok(ComponentHashes {
            cpu,
            sched,
            dram,
            system,
        })
    }
}

/// Runs one simulation to completion and returns its report — the
/// one-call entry point.
///
/// # Examples
///
/// ```
/// use burst_sim::{simulate, RunLength, SystemConfig};
/// use burst_core::Mechanism;
/// use burst_workloads::SpecBenchmark;
///
/// let cfg = SystemConfig::baseline().with_mechanism(Mechanism::BurstTh(52));
/// let report = simulate(&cfg, SpecBenchmark::Swim.workload(42), RunLength::Instructions(5_000));
/// assert!(report.instructions >= 5_000);
/// ```
pub fn simulate<W: OpSource>(cfg: &SystemConfig, workload: W, len: RunLength) -> SimReport {
    try_simulate(cfg, workload, len).unwrap_or_else(|e| panic!("simulation stalled: {e}"))
}

/// [`simulate`] with forward-progress stalls surfaced as values instead of
/// panics — the entry point every sweep cell and harness binary should use
/// so a single stalled cell cannot abort the process.
///
/// # Errors
///
/// Propagates [`System::try_run`]'s [`RunError`].
pub fn try_simulate<W: OpSource>(
    cfg: &SystemConfig,
    mut workload: W,
    len: RunLength,
) -> Result<SimReport, RunError> {
    let mut sys = System::new(cfg);
    sys.warm(&mut workload);
    sys.try_run(&mut workload, len)?;
    let name = workload.name().to_string();
    Ok(sys.report(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(v: u64) -> AccessId {
        AccessId::new(v)
    }

    #[test]
    fn line_slab_round_trips_in_order() {
        let mut slab = LineSlab::default();
        slab.insert(id(0), 0, 64);
        slab.insert(id(1), 0, 128);
        assert_eq!(slab.remove(id(0)), Some((0, 64)));
        assert_eq!(slab.remove(id(1)), Some((0, 128)));
        assert_eq!(slab.window_len(), 0);
    }

    #[test]
    fn line_slab_handles_write_gaps_and_out_of_order_removal() {
        let mut slab = LineSlab::default();
        // Ids 3 and 5 are writes / forwarded reads: never inserted.
        slab.insert(id(2), 0, 200);
        slab.insert(id(4), 0, 400);
        slab.insert(id(6), 0, 600);
        assert_eq!(slab.remove(id(4)), Some((0, 400)));
        assert_eq!(slab.remove(id(3)), None, "gap ids hold no line");
        assert_eq!(slab.remove(id(6)), Some((0, 600)));
        assert_eq!(slab.remove(id(2)), Some((0, 200)));
        assert_eq!(slab.window_len(), 0, "window compacts once drained");
    }

    #[test]
    fn line_slab_double_remove_returns_none() {
        let mut slab = LineSlab::default();
        slab.insert(id(7), 0, 700);
        assert_eq!(slab.remove(id(7)), Some((0, 700)));
        assert_eq!(slab.remove(id(7)), None, "a retry must not double-deliver");
    }

    fn paused_cfg() -> SystemConfig {
        SystemConfig::baseline()
            .with_mechanism(Mechanism::BurstTh(52))
            .with_warm_mem_ops(1_000)
    }

    #[test]
    fn checkpoint_restore_continues_to_identical_report() {
        use burst_workloads::{CountingSource, SpecBenchmark};
        let cfg = paused_cfg();
        let len = RunLength::Instructions(40_000);

        // Reference: one uninterrupted run.
        let mut wa = CountingSource::new(SpecBenchmark::Swim.workload(7));
        let mut a = System::new(&cfg);
        a.warm(&mut wa);
        a.try_run(&mut wa, len).unwrap();
        let reference = a.report("w");

        // Same run paused mid-flight, checkpointed, restored into a fresh
        // system with a rebuilt fast-forwarded workload, and finished.
        let mut wb = CountingSource::new(SpecBenchmark::Swim.workload(7));
        let mut b = System::new(&cfg);
        b.warm(&mut wb);
        let mut cursor = RunCursor::start(&b);
        let outcome = b.try_run_chunk(&mut wb, len, &mut cursor, 2_000).unwrap();
        assert_eq!(outcome, ChunkOutcome::Paused, "budget must pause mid-run");
        let snap = b.checkpoint().unwrap();

        let mut c = System::new(&cfg);
        c.restore(&snap.bytes).unwrap();
        assert_eq!(c.state_hash().unwrap(), snap.state_hash);
        assert_eq!(c.component_hashes().unwrap(), b.component_hashes().unwrap());
        assert_eq!(
            c.checkpoint().unwrap(),
            snap,
            "restore re-serialises identically"
        );
        let mut wc = CountingSource::new(SpecBenchmark::Swim.workload(7));
        wc.skip(wb.consumed());
        let mut cw = SnapWriter::new();
        cursor.save_snap(&mut cw);
        let cursor_bytes = cw.into_bytes();
        let mut cr = SnapReader::new(&cursor_bytes);
        let mut resumed = RunCursor::load_snap(&mut cr).unwrap();
        cr.finish().unwrap();
        while c.try_run_chunk(&mut wc, len, &mut resumed, 5_000).unwrap() == ChunkOutcome::Paused {}
        assert_eq!(c.report("w"), reference);

        // The original paused system finishes to the same report too.
        while b
            .try_run_chunk(&mut wb, len, &mut cursor, u64::MAX)
            .unwrap()
            == ChunkOutcome::Paused
        {}
        assert_eq!(b.report("w"), reference);
    }

    #[test]
    fn restore_rejects_truncated_and_mismatched_snapshots() {
        use burst_workloads::SpecBenchmark;
        let cfg = paused_cfg();
        let mut w = SpecBenchmark::Mcf.workload(3);
        let mut sys = System::new(&cfg);
        sys.warm(&mut w);
        sys.try_run(&mut w, RunLength::MemCycles(4_000)).unwrap();
        let snap = sys.checkpoint().unwrap();

        // Truncation anywhere must surface as an error, never a panic.
        for cut in [0, 1, snap.bytes.len() / 2, snap.bytes.len() - 1] {
            let mut fresh = System::new(&cfg);
            assert!(
                fresh.restore(&snap.bytes[..cut]).is_err(),
                "truncation at {cut} must be rejected"
            );
        }

        // A snapshot from a different machine shape must be rejected.
        let mut small = cfg;
        small.dram.geometry.channels = 1;
        let mut fresh = System::new(&small);
        assert!(fresh.restore(&snap.bytes).is_err());
    }

    #[test]
    fn engine_names_round_trip_without_aliases() {
        for e in Engine::ALL {
            assert_eq!(Engine::from_name(e.name()), Some(e));
        }
        for name in [
            "",
            "warp",
            "Event",
            "cycle",
            "noskip",
            "cycle_noskip",
            "no-skip",
        ] {
            assert_eq!(Engine::from_name(name), None, "{name:?} must be rejected");
        }
    }

    #[test]
    fn state_hash_tracks_observable_state_only() {
        use burst_workloads::SpecBenchmark;
        let cfg = paused_cfg();
        let mut w1 = SpecBenchmark::Swim.workload(5);
        let mut s1 = System::new(&cfg);
        s1.warm(&mut w1);
        s1.try_run(&mut w1, RunLength::MemCycles(2_000)).unwrap();

        let mut w2 = SpecBenchmark::Swim.workload(5);
        let mut s2 = System::new(&cfg.with_engine(Engine::CycleNoSkip));
        s2.warm(&mut w2);
        s2.try_run(&mut w2, RunLength::MemCycles(2_000)).unwrap();

        // Skipped cycles are diagnostic only: both engines hash alike.
        assert_eq!(s1.state_hash().unwrap(), s2.state_hash().unwrap());
        assert_eq!(
            s1.component_hashes().unwrap(),
            s2.component_hashes().unwrap()
        );

        let h = s1.state_hash().unwrap();
        s1.try_run(&mut w1, RunLength::MemCycles(500)).unwrap();
        assert_ne!(
            s1.state_hash().unwrap(),
            h,
            "advancing must change the hash"
        );
    }

    #[test]
    fn line_slab_rebases_after_draining() {
        let mut slab = LineSlab::default();
        slab.insert(id(10), 0, 1);
        assert_eq!(slab.remove(id(10)), Some((0, 1)));
        // A long run of writes advanced the id counter far past the old
        // window; the next read must not pay for the gap.
        slab.insert(id(1_000_000), 0, 2);
        assert_eq!(slab.window_len(), 1, "base snaps to the new id");
        assert_eq!(slab.remove(id(1_000_000)), Some((0, 2)));
        assert_eq!(
            slab.remove(id(999_999)),
            None,
            "ids below a snapped base are absent"
        );
    }
}
