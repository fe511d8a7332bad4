//! Chip-multiprocessor extension (paper Section 6): several cores with
//! private cache hierarchies sharing one memory controller and DRAM
//! device. The paper predicts access reordering grows more important as
//! the controller sees more concurrent outstanding accesses — this module
//! lets the claim be measured.

// Timing-observable module (DESIGN.md §15): no hash-ordered collections,
// floats or wall-clock reads; report-only metrics carry a reasoned expect.
#![deny(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    clippy::float_arithmetic
)]

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use burst_core::{Access, AccessId, AccessKind, AccessScheduler, Completion};
use burst_cpu::Cpu;
use burst_dram::{Cycle, Dram, PhysAddr};
use burst_workloads::OpSource;

use crate::{SimReport, SystemConfig};

/// A multi-core system: one CPU per workload, shared controller and DRAM.
#[derive(Debug)]
pub struct CmpSystem {
    cfg: SystemConfig,
    dram: Dram,
    sched: Box<dyn AccessScheduler>,
    cpus: Vec<Cpu>,
    mem_cycle: Cycle,
    next_id: u64,
    completions: Vec<Completion>,
    pending: BinaryHeap<Reverse<(Cycle, usize, u64)>>,
    owners: BTreeMap<AccessId, (usize, u64)>,
    /// Round-robin pointer for fair request hand-off across cores.
    rr: usize,
}

impl CmpSystem {
    /// Builds a `cores`-way CMP sharing the configured memory subsystem.
    /// Each core's physical addresses are offset into its own slice of the
    /// address space (private heaps, as distinct processes would see).
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(cfg: &SystemConfig, cores: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        let mut dram = Dram::new(cfg.dram, cfg.mapping);
        if cfg.checker {
            dram.enable_checker();
        }
        CmpSystem {
            cfg: *cfg,
            dram,
            sched: cfg.mechanism.build(cfg.effective_ctrl(), cfg.dram.geometry),
            cpus: (0..cores).map(|_| Cpu::new(cfg.cpu)).collect(),
            mem_cycle: 0,
            next_id: 0,
            completions: Vec::new(),
            pending: BinaryHeap::new(),
            owners: BTreeMap::new(),
            rr: 0,
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cpus.len()
    }

    /// Instructions retired by core `i`.
    pub fn retired(&self, i: usize) -> u64 {
        self.cpus[i].retired()
    }

    /// Total instructions retired across cores.
    pub fn total_retired(&self) -> u64 {
        self.cpus.iter().map(|c| c.retired()).sum()
    }

    /// Memory cycles elapsed.
    pub fn mem_cycle(&self) -> Cycle {
        self.mem_cycle
    }

    /// Functionally warms every core's caches from its workload.
    pub fn warm(&mut self, workloads: &mut [Box<dyn OpSource>]) {
        assert_eq!(workloads.len(), self.cpus.len());
        if self.cfg.warm_mem_ops > 0 {
            for (cpu, w) in self.cpus.iter_mut().zip(workloads.iter_mut()) {
                cpu.warm_caches(&mut **w, self.cfg.warm_mem_ops);
            }
        }
    }

    /// Offsets core `i`'s addresses into a private slice of physical
    /// memory (bits above the benchmarks' 3 GB footprint cycle per core).
    fn translate(&self, core: usize, line: u64) -> u64 {
        // Rotate by a large odd page multiple per core so cores collide in
        // banks (shared DRAM) but not in lines (private data).
        line.wrapping_add(core as u64 * 0x2654_3000) % (4u64 << 30)
    }

    /// Advances one memory cycle for the whole chip.
    pub fn step(&mut self, workloads: &mut [Box<dyn OpSource>]) {
        assert_eq!(workloads.len(), self.cpus.len());
        for (cpu, w) in self.cpus.iter_mut().zip(workloads.iter_mut()) {
            for _ in 0..self.cfg.cpu.cpu_ratio {
                cpu.cycle(&mut **w);
            }
        }
        // Fair round-robin hand-off: reads first, then writebacks.
        let cores = self.cpus.len();
        for offset in 0..cores {
            let core = (self.rr + offset) % cores;
            while self.sched.can_accept(AccessKind::Read) {
                let Some((line, critical)) = self.cpus[core].pop_read_request_tagged() else {
                    break;
                };
                self.enqueue(core, AccessKind::Read, line, critical);
            }
        }
        for offset in 0..cores {
            let core = (self.rr + offset) % cores;
            while self.sched.can_accept(AccessKind::Write) {
                let Some(line) = self.cpus[core].pop_writeback() else {
                    break;
                };
                self.enqueue(core, AccessKind::Write, line, false);
            }
        }
        self.rr = (self.rr + 1) % cores;

        self.sched
            .tick(&mut self.dram, self.mem_cycle, &mut self.completions);
        for c in self.completions.drain(..) {
            if c.kind == AccessKind::Read {
                if let Some((core, line)) = self.owners.remove(&c.id) {
                    self.pending.push(Reverse((c.done_at, core, line)));
                }
            }
        }
        while let Some(&Reverse((at, core, line))) = self.pending.peek() {
            if at > self.mem_cycle {
                break;
            }
            self.pending.pop();
            let now = self.cpus[core].now();
            self.cpus[core].complete_read(line, now);
        }
        self.mem_cycle += 1;
    }

    fn enqueue(&mut self, core: usize, kind: AccessKind, line: u64, critical: bool) {
        let phys = self.translate(core, line);
        let addr = PhysAddr::new(phys);
        let loc = self.dram.decode(addr);
        let id = AccessId::new(self.next_id);
        self.next_id += 1;
        if kind == AccessKind::Read {
            self.owners.insert(id, (core, line));
        }
        let access = Access::new(id, kind, addr, loc, self.mem_cycle).with_critical(critical);
        self.sched
            .enqueue(access, self.mem_cycle, &mut self.completions);
    }

    /// Runs until the *total* retired instruction count reaches `target`.
    ///
    /// # Panics
    ///
    /// Panics on livelock (no retirement progress for two million cycles).
    pub fn run_total_instructions(&mut self, workloads: &mut [Box<dyn OpSource>], target: u64) {
        let mut last = self.total_retired();
        let mut idle = 0u64;
        while self.total_retired() < target {
            self.step(workloads);
            let now = self.total_retired();
            if now == last {
                idle += 1;
                if idle >= 2_000_000 {
                    match self.sched.stall_diagnostic() {
                        Some(diag) => panic!("CMP memory controller stall: {diag}"),
                        None => panic!(
                            "CMP livelock: no retirement for 2M memory cycles at cycle {}",
                            self.mem_cycle
                        ),
                    }
                }
            } else {
                idle = 0;
                last = now;
            }
        }
    }

    /// Runs until *every* core has retired at least `target` instructions.
    ///
    /// # Panics
    ///
    /// Panics on livelock (no retirement progress for two million cycles).
    pub fn run_per_core_instructions(&mut self, workloads: &mut [Box<dyn OpSource>], target: u64) {
        let mut last = self.total_retired();
        let mut idle = 0u64;
        while self.cpus.iter().any(|c| c.retired() < target) {
            self.step(workloads);
            let now = self.total_retired();
            if now == last {
                idle += 1;
                if idle >= 2_000_000 {
                    match self.sched.stall_diagnostic() {
                        Some(diag) => panic!("CMP memory controller stall: {diag}"),
                        None => panic!(
                            "CMP livelock: no retirement for 2M memory cycles at cycle {}",
                            self.mem_cycle
                        ),
                    }
                }
            } else {
                idle = 0;
                last = now;
            }
        }
    }

    /// Aggregate report over the shared memory subsystem. Per-core IPCs
    /// are available via [`CmpSystem::retired`] and the shared
    /// `mem_cycle`.
    pub fn report(&self, name: impl Into<String>) -> SimReport {
        let mut cpu_stats = burst_cpu::CpuStats::default();
        for c in &self.cpus {
            let s = c.stats();
            cpu_stats.retired += s.retired;
            cpu_stats.loads += s.loads;
            cpu_stats.stores += s.stores;
            cpu_stats.mem_reads += s.mem_reads;
            cpu_stats.mem_writes += s.mem_writes;
            cpu_stats.stall_cycles += s.stall_cycles;
        }
        SimReport::from_parts(
            self.cfg.mechanism,
            name.into(),
            self.cpus.iter().map(|c| c.now()).max().unwrap_or(0),
            self.mem_cycle,
            self.total_retired(),
            self.sched.stats().clone(),
            self.dram.total_stats(),
            cpu_stats,
            crate::RobustnessReport::collect(self.sched.stats(), self.dram.protocol_violations()),
            u64::from(self.cfg.dram.geometry.channels),
        )
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "tests compare report-only float metrics"
)]
mod tests {
    use super::*;
    use crate::RunLength;
    use burst_core::Mechanism;
    use burst_workloads::SpecBenchmark;

    fn workloads(n: usize) -> Vec<Box<dyn OpSource>> {
        let all = SpecBenchmark::all16();
        (0..n)
            .map(|i| Box::new(all[i * 3 % 16].workload(7 + i as u64)) as Box<dyn OpSource>)
            .collect()
    }

    #[test]
    fn dual_core_runs_and_both_cores_progress() {
        let cfg = SystemConfig::baseline().with_mechanism(Mechanism::BurstTh(52));
        let mut sys = CmpSystem::new(&cfg, 2);
        let mut w = workloads(2);
        sys.warm(&mut w);
        sys.run_per_core_instructions(&mut w, 5_000);
        assert!(
            sys.retired(0) >= 5_000,
            "core 0 starved: {}",
            sys.retired(0)
        );
        assert!(
            sys.retired(1) >= 5_000,
            "core 1 starved: {}",
            sys.retired(1)
        );
        let r = sys.report("cmp2");
        assert!(r.reads() > 0);
        assert_eq!(r.instructions, sys.total_retired());
    }

    #[test]
    fn quad_core_contends_more_than_single() {
        let run = |cores: usize| -> f64 {
            let cfg = SystemConfig::baseline().with_mechanism(Mechanism::BkInOrder);
            let mut sys = CmpSystem::new(&cfg, cores);
            let mut w = workloads(cores);
            sys.warm(&mut w);
            sys.run_total_instructions(&mut w, 8_000 * cores as u64);
            sys.report("x").ctrl.avg_read_latency()
        };
        let single = run(1);
        let quad = run(4);
        assert!(
            quad > single,
            "4-core contention must raise read latency: {quad:.1} vs {single:.1}"
        );
    }

    #[test]
    fn single_core_cmp_matches_system_shape() {
        let cfg = SystemConfig::baseline().with_mechanism(Mechanism::Burst);
        let mut sys = CmpSystem::new(&cfg, 1);
        let mut w: Vec<Box<dyn OpSource>> = vec![Box::new(SpecBenchmark::Swim.workload(42))];
        sys.warm(&mut w);
        sys.run_total_instructions(&mut w, 5_000);
        let cmp_report = sys.report("swim");

        let direct = crate::simulate(
            &cfg,
            SpecBenchmark::Swim.workload(42),
            RunLength::Instructions(5_000),
        );
        // Address translation differs (core offset 0 => identical), so the
        // runs must agree exactly.
        assert_eq!(cmp_report.mem_cycles, direct.mem_cycles);
        assert_eq!(cmp_report.reads(), direct.reads());
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = CmpSystem::new(&SystemConfig::baseline(), 0);
    }
}
