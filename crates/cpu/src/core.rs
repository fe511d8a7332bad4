//! Out-of-order CPU limit model: a 196-entry ROB retiring 8 instructions
//! per cycle in order, a 32-entry LSQ bounding outstanding misses (MSHRs),
//! and non-blocking caches — the properties of the paper's baseline CPU
//! (Table 3) that access reordering mechanisms interact with.
//!
//! The model captures exactly the coupling the paper studies: loads that
//! miss the hierarchy block retirement until main memory returns data;
//! stores are posted; dirty writebacks generate main-memory writes; a
//! saturated memory controller back-pressures dispatch and stalls the
//! pipeline.
//!
//! Two driving interfaces exist. [`Cpu::cycle`] is the reference path: one
//! exact CPU cycle per call. [`Cpu::run_until`] is the batch path: it
//! advances to a deadline using closed-form fast paths — full-stall spans
//! (via [`Cpu::idle_until`]) and full-width compute streaks — and falls
//! back to the per-cycle path at any boundary. The batch path is
//! bit-identical to the per-cycle path by construction; DESIGN.md §16
//! documents the invariants, and the `cpu_batch_equiv` proptest compares
//! full snapshot byte streams of both paths over random op streams.

use std::collections::VecDeque;

use burst_workloads::{Op, OpSource};

use crate::{Hierarchy, HierarchyConfig, MemAccessResult};

/// CPU model configuration (paper Table 3: 4 GHz, 8-way, 32 LSQ, 196 ROB).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CpuConfig {
    /// Reorder-buffer capacity.
    pub rob_size: usize,
    /// Dispatch and retire width (instructions per CPU cycle).
    pub width: usize,
    /// Load/store queue size: the maximum outstanding main-memory misses.
    pub lsq_size: usize,
    /// CPU cycles per memory-controller cycle (4 GHz / 400 MHz = 10).
    pub cpu_ratio: u64,
    /// L1 data hit latency in CPU cycles.
    pub l1_latency: u64,
    /// L2 hit latency in CPU cycles.
    pub l2_latency: u64,
    /// Writeback-queue length above which dispatch stalls (models FSB and
    /// controller back-pressure on the CPU).
    pub writeback_stall: usize,
    /// Cache hierarchy geometry.
    pub hierarchy: HierarchyConfig,
}

impl CpuConfig {
    /// The paper's baseline machine (Table 3).
    pub fn baseline() -> Self {
        CpuConfig {
            rob_size: 196,
            width: 8,
            lsq_size: 32,
            cpu_ratio: 10,
            l1_latency: 3,
            l2_latency: 15,
            writeback_stall: 16,
            hierarchy: HierarchyConfig::baseline(),
        }
    }
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig::baseline()
    }
}

/// Aggregate CPU statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuStats {
    /// Instructions retired.
    pub retired: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Main-memory read requests issued (L2 misses).
    pub mem_reads: u64,
    /// Main-memory writes issued (dirty L2 writebacks).
    pub mem_writes: u64,
    /// CPU cycles with dispatch fully stalled.
    pub stall_cycles: u64,
}

impl CpuStats {
    /// Serialises the counters as varints, for a checkpoint or a
    /// sweep-journal record.
    pub fn save_snap(&self, w: &mut burst_snap::SnapWriter) {
        let Self {
            retired,
            loads,
            stores,
            mem_reads,
            mem_writes,
            stall_cycles,
        } = self;
        for v in [
            *retired,
            *loads,
            *stores,
            *mem_reads,
            *mem_writes,
            *stall_cycles,
        ] {
            w.varint(v);
        }
    }

    /// Reads counters written by [`CpuStats::save_snap`].
    pub fn load_snap(r: &mut burst_snap::SnapReader) -> Result<Self, burst_snap::SnapError> {
        Ok(CpuStats {
            retired: r.varint()?,
            loads: r.varint()?,
            stores: r.varint()?,
            mem_reads: r.varint()?,
            mem_writes: r.varint()?,
            stall_cycles: r.varint()?,
        })
    }
}

/// Field-wise sum: the statistics of several cores taken together.
impl core::ops::Add for CpuStats {
    type Output = CpuStats;

    fn add(self, o: CpuStats) -> CpuStats {
        CpuStats {
            retired: self.retired + o.retired,
            loads: self.loads + o.loads,
            stores: self.stores + o.stores,
            mem_reads: self.mem_reads + o.mem_reads,
            mem_writes: self.mem_writes + o.mem_writes,
            stall_cycles: self.stall_cycles + o.stall_cycles,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    /// Completed; retirable at the stored CPU cycle.
    Ready(u64),
    /// Waiting for a main-memory line.
    WaitMem(u64),
}

#[derive(Debug, Clone, Copy)]
struct RobEntry {
    state: EntryState,
}

/// Fixed-capacity ring buffer of in-flight ROB entries. Compared to a
/// `VecDeque`, the capacity never reallocates and front pops in the
/// compute-streak closed form are plain index arithmetic. Checkpoints
/// hold the logical entries in order (see [`Cpu::save_snap`]), never the
/// ring layout.
#[derive(Debug, Clone)]
struct RobRing {
    buf: Vec<RobEntry>,
    head: usize,
    len: usize,
}

impl RobRing {
    fn new(capacity: usize) -> Self {
        RobRing {
            buf: vec![
                RobEntry {
                    state: EntryState::Ready(0)
                };
                capacity.max(1)
            ],
            head: 0,
            len: 0,
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    /// Physical index of logical position `i` (`i < capacity`, so one
    /// conditional wrap suffices — the capacity need not be a power of
    /// two).
    #[inline]
    fn phys(&self, i: usize) -> usize {
        let mut p = self.head + i;
        if p >= self.buf.len() {
            p -= self.buf.len();
        }
        p
    }

    #[inline]
    fn front(&self) -> Option<&RobEntry> {
        (self.len > 0).then(|| &self.buf[self.head])
    }

    #[inline]
    fn get_mut(&mut self, i: usize) -> Option<&mut RobEntry> {
        if i < self.len {
            let p = self.phys(i);
            Some(&mut self.buf[p])
        } else {
            None
        }
    }

    #[inline]
    fn push_back(&mut self, e: RobEntry) {
        debug_assert!(self.len < self.buf.len(), "ROB ring overflow");
        let p = self.phys(self.len);
        self.buf[p] = e;
        self.len += 1;
    }

    #[inline]
    fn pop_front(&mut self) -> Option<RobEntry> {
        if self.len == 0 {
            return None;
        }
        let e = self.buf[self.head];
        self.head += 1;
        if self.head == self.buf.len() {
            self.head = 0;
        }
        self.len -= 1;
        Some(e)
    }

    /// Drops `n` entries from the front in O(1) (`n <= len`).
    #[inline]
    fn drop_front(&mut self, n: usize) {
        debug_assert!(n <= self.len);
        self.head = self.phys(n);
        self.len -= n;
    }

    fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }

    fn iter(&self) -> impl Iterator<Item = &RobEntry> {
        (0..self.len).map(|i| &self.buf[self.phys(i)])
    }
}

/// One MSHR: the miss bookkeeping for a single outstanding line.
#[derive(Debug, Clone, Default)]
struct MshrSlot {
    occupied: bool,
    line: u64,
    /// ROB indices (sequence numbers) waiting on this line.
    waiters: Vec<u64>,
    /// The fill installs the line dirty (store-allocate).
    dirty_on_fill: bool,
}

/// Open-addressed line→MSHR table with linear probing and backward-shift
/// deletion. Sized at twice the LSQ bound (load factor ≤ 0.5), so probes
/// stay short. Iteration order is an implementation detail; the snapshot
/// path sorts occupied slots by line so the byte stream stays identical to
/// the historical `BTreeMap` encoding.
#[derive(Debug, Clone)]
struct MshrTable {
    slots: Vec<MshrSlot>,
    mask: usize,
    len: usize,
    /// Retired waiter vector kept for reuse, so steady-state insert/remove
    /// churn does not allocate; always logically empty.
    spare_waiters: Vec<u64>,
}

impl MshrTable {
    fn new(lsq_size: usize) -> Self {
        let cap = (2 * lsq_size).next_power_of_two().max(8);
        MshrTable {
            slots: vec![MshrSlot::default(); cap],
            mask: cap - 1,
            len: 0,
            spare_waiters: Vec::new(),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn ideal(&self, line: u64) -> usize {
        // Fibonacci hashing: multiply-shift keeps sequential lines from
        // clustering in adjacent buckets.
        let h = line.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> (64 - (self.mask + 1).trailing_zeros())) as usize & self.mask
    }

    /// Index of the slot holding `line`, if present.
    #[inline]
    fn find(&self, line: u64) -> Option<usize> {
        let mut i = self.ideal(line);
        loop {
            let s = &self.slots[i];
            if !s.occupied {
                return None;
            }
            if s.line == line {
                return Some(i);
            }
            i = (i + 1) & self.mask;
        }
    }

    #[inline]
    fn get_mut(&mut self, line: u64) -> Option<&mut MshrSlot> {
        self.find(line).map(|i| &mut self.slots[i])
    }

    /// Inserts a new entry for `line` (caller guarantees absence and spare
    /// capacity) and returns it for waiter setup.
    fn insert(&mut self, line: u64, dirty_on_fill: bool) -> &mut MshrSlot {
        debug_assert!(self.find(line).is_none());
        debug_assert!(self.len < self.slots.len());
        let mut i = self.ideal(line);
        while self.slots[i].occupied {
            i = (i + 1) & self.mask;
        }
        self.len += 1;
        let slot = &mut self.slots[i];
        slot.occupied = true;
        slot.line = line;
        slot.dirty_on_fill = dirty_on_fill;
        debug_assert!(slot.waiters.is_empty());
        if slot.waiters.capacity() == 0 {
            slot.waiters = std::mem::take(&mut self.spare_waiters);
        }
        slot
    }

    /// Removes `line`, returning its waiters (in a reusable vector that
    /// must be given back via [`MshrTable::recycle_waiters`]) and the
    /// dirty-on-fill flag.
    fn remove(&mut self, line: u64) -> Option<(Vec<u64>, bool)> {
        let idx = self.find(line)?;
        let slot = &mut self.slots[idx];
        slot.occupied = false;
        let waiters = std::mem::take(&mut slot.waiters);
        let dirty = slot.dirty_on_fill;
        self.len -= 1;
        // Backward-shift deletion keeps every remaining entry reachable
        // from its ideal bucket without tombstones.
        let mut hole = idx;
        let mut i = idx;
        loop {
            i = (i + 1) & self.mask;
            if !self.slots[i].occupied {
                break;
            }
            let home = self.ideal(self.slots[i].line);
            // Move `i` into the hole iff its home bucket does not lie in
            // the cyclic range (hole, i].
            let in_range = if hole <= i {
                home > hole && home <= i
            } else {
                home > hole || home <= i
            };
            if !in_range {
                self.slots.swap(hole, i);
                self.slots[i].occupied = false;
                hole = i;
            }
        }
        Some((waiters, dirty))
    }

    /// Returns a drained waiter vector to the allocation cache.
    fn recycle_waiters(&mut self, mut v: Vec<u64>) {
        v.clear();
        if v.capacity() > self.spare_waiters.capacity() {
            self.spare_waiters = v;
        }
    }

    /// Occupied slot indices sorted ascending by line — the snapshot
    /// iteration order (matches the historical `BTreeMap` byte stream).
    fn sorted_indices(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.slots.len())
            .filter(|&i| self.slots[i].occupied)
            .collect();
        idx.sort_by_key(|&i| self.slots[i].line);
        idx
    }

    fn clear(&mut self) {
        for s in &mut self.slots {
            s.occupied = false;
            s.waiters.clear();
        }
        self.len = 0;
    }
}

/// The out-of-order core limit model.
///
/// Drive it with [`Cpu::cycle`] once per CPU cycle (or [`Cpu::run_until`]
/// to batch); pull main-memory requests with [`Cpu::pop_read_request`] /
/// [`Cpu::pop_writeback`] as the memory controller accepts them, and
/// report read data with [`Cpu::complete_read`].
///
/// # Examples
///
/// ```
/// use burst_cpu::{Cpu, CpuConfig};
/// use burst_workloads::{Op, ReplaySource};
///
/// let mut cpu = Cpu::new(CpuConfig::baseline());
/// let mut src = ReplaySource::new("tiny", vec![Op::Compute, Op::load(0x80)]);
/// for _ in 0..4 {
///     cpu.cycle(&mut src);
/// }
/// // The load missed both caches and asks main memory for its line.
/// assert_eq!(cpu.pop_read_request(), Some(0x80));
/// ```
#[derive(Debug)]
pub struct Cpu {
    cfg: CpuConfig,
    hierarchy: Hierarchy,
    rob: RobRing,
    /// Sequence number of the ROB front entry.
    head_seq: u64,
    now: u64,
    mshrs: MshrTable,
    read_requests: VecDeque<(u64, bool)>,
    stalled_op: Option<Op>,
    /// Memoized miss result of the stalled op. When a load/store misses
    /// both caches but finds no free MSHR, it retries every cycle; the
    /// hierarchy cannot turn that miss into a hit until a fill occurs, so
    /// the full L1+L2 lookup is skipped on retries. Invalidated by
    /// [`Cpu::complete_read`] (the only fill source while stalled).
    stalled_miss: Option<u64>,
    /// A dependent-load chain is blocked until this line returns.
    chase_block: Option<u64>,
    /// Exact count of `WaitMem` entries in the ROB. Maintained on push and
    /// on the `complete_read` flip; recomputed on restore. A compute
    /// streak requires zero (no entry can block retirement mid-streak).
    waitmem_entries: usize,
    /// Conservative upper bound on every `Ready(at)` in the ROB. Only ever
    /// grows ahead of pushes/flips, so a stale (too large) value merely
    /// disqualifies a streak — it can never admit an ineligible one.
    max_entry_at: u64,
    stats: CpuStats,
}

impl Cpu {
    /// Creates an idle core with cold caches.
    pub fn new(cfg: CpuConfig) -> Self {
        Cpu {
            hierarchy: Hierarchy::new(cfg.hierarchy),
            rob: RobRing::new(cfg.rob_size),
            head_seq: 0,
            now: 0,
            mshrs: MshrTable::new(cfg.lsq_size),
            read_requests: VecDeque::new(),
            stalled_op: None,
            stalled_miss: None,
            chase_block: None,
            waitmem_entries: 0,
            max_entry_at: 0,
            stats: CpuStats::default(),
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.cfg
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CpuStats {
        &self.stats
    }

    /// The cache hierarchy (for hit-rate statistics).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.stats.retired
    }

    /// Current CPU cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Outstanding main-memory misses (MSHR occupancy).
    pub fn outstanding_misses(&self) -> usize {
        self.mshrs.len()
    }

    /// Main-memory read requests generated but not yet accepted by the
    /// controller.
    pub fn pending_read_requests(&self) -> usize {
        self.read_requests.len()
    }

    /// Dirty writebacks generated but not yet accepted by the controller.
    pub fn pending_writebacks(&self) -> usize {
        self.hierarchy.pending_writebacks()
    }

    /// Whether dispatch is deterministically blocked this cycle: the ROB
    /// or writeback pressure gates the pipeline, or the stalled op waits
    /// on a chase dependence / a free MSHR. While blocked the workload
    /// source is never consulted, so — absent read completions, writeback
    /// drains, or retirement — the block reproduces itself every cycle.
    fn dispatch_blocked(&self) -> bool {
        if self.rob.len() >= self.cfg.rob_size {
            return true;
        }
        if self.hierarchy.pending_writebacks() >= self.cfg.writeback_stall {
            return true;
        }
        match self.stalled_op {
            Some(Op::Load {
                dependent: true, ..
            }) if self.chase_block.is_some() => true,
            Some(_) => self.stalled_miss.is_some() && self.mshrs.len() >= self.cfg.lsq_size,
            None => false,
        }
    }

    /// The earliest CPU cycle at which a fully-stalled core could next
    /// dispatch or retire an instruction. `None`: the core can make
    /// progress right now — never skip. `Some(at)`: every cycle strictly
    /// before `at` is a guaranteed full stall, after which the ROB front
    /// becomes retirable. `Some(u64::MAX)`: only an external event (a
    /// read completion or a writeback drain) can wake the core.
    pub fn idle_until(&self) -> Option<u64> {
        if !self.dispatch_blocked() {
            return None;
        }
        match self.rob.front().map(|e| e.state) {
            Some(EntryState::Ready(at)) if at > self.now => Some(at),
            Some(EntryState::Ready(_)) => None,
            Some(EntryState::WaitMem(_)) | None => Some(u64::MAX),
        }
    }

    /// Batch-advances `cycles` fully-stalled CPU cycles at once,
    /// bit-identically to calling [`Cpu::cycle`] that many times while
    /// stalled: time moves, every cycle counts as a dispatch stall, and
    /// nothing else changes. Callers must keep the advance inside the
    /// window promised by [`Cpu::idle_until`].
    pub fn advance_stalled(&mut self, cycles: u64) {
        debug_assert!(
            self.idle_until().is_some_and(|at| self.now + cycles < at),
            "batch advance must stay within the stalled window"
        );
        self.now += cycles;
        self.stats.stall_cycles += cycles;
    }

    /// Deterministically inflates the stall-cycle statistic without moving
    /// time — a fault-injection hook for the simulator's lockstep oracle
    /// self-test, emulating the class of bookkeeping bug batch stall
    /// advancement could introduce.
    pub fn skew_stall_accounting(&mut self, cycles: u64) {
        self.stats.stall_cycles += cycles;
    }

    /// Takes the next main-memory read request (a line address), if any.
    pub fn pop_read_request(&mut self) -> Option<u64> {
        self.read_requests.pop_front().map(|(line, _)| line)
    }

    /// Takes the next main-memory read request with its criticality tag:
    /// `true` for demand loads (a ROB entry blocks on the line), `false`
    /// for store-allocate fills. Feed the tag to
    /// `burst_core::Access::with_critical` for critical-first scheduling.
    pub fn pop_read_request_tagged(&mut self) -> Option<(u64, bool)> {
        self.read_requests.pop_front()
    }

    /// Takes the next main-memory writeback (a line address), if any.
    pub fn pop_writeback(&mut self) -> Option<u64> {
        let w = self.hierarchy.pop_writeback();
        if w.is_some() {
            self.stats.mem_writes += 1;
        }
        w
    }

    /// Reports that main memory returned `line`; waiting loads become
    /// retirable at CPU cycle `ready_at`.
    pub fn complete_read(&mut self, line: u64, ready_at: u64) {
        // A fill changes cache contents: the stalled op must re-probe.
        self.stalled_miss = None;
        if let Some((waiters, dirty_on_fill)) = self.mshrs.remove(line) {
            self.hierarchy.fill(line, dirty_on_fill);
            let at = ready_at.max(self.now);
            for &seq in &waiters {
                if seq >= self.head_seq {
                    let idx = (seq - self.head_seq) as usize;
                    if let Some(e) = self.rob.get_mut(idx) {
                        if matches!(e.state, EntryState::WaitMem(l) if l == line) {
                            e.state = EntryState::Ready(at);
                            self.waitmem_entries -= 1;
                            if at > self.max_entry_at {
                                self.max_entry_at = at;
                            }
                        }
                    }
                }
            }
            self.mshrs.recycle_waiters(waiters);
        }
        if self.chase_block == Some(line) {
            self.chase_block = None;
        }
    }

    /// Functionally warms the cache hierarchy: consumes ops from `source`
    /// until `mem_ops` memory operations have been applied to the caches
    /// with instant fills and no timing. Writebacks generated during
    /// warming are discarded and cache counters reset, so the timed region
    /// starts from a realistic steady state (the paper's 2-billion-
    /// instruction runs are warm almost throughout).
    pub fn warm_caches(&mut self, source: &mut dyn OpSource, mem_ops: u64) {
        let mut done = 0u64;
        // A workload may be compute-only (no memory ops at all); bound the
        // total ops consumed so warming terminates on any source.
        let mut budget = mem_ops.saturating_mul(64).saturating_add(4096);
        while done < mem_ops && budget > 0 {
            budget -= 1;
            match source.next_op() {
                Op::Compute => {}
                Op::Load { addr, .. } => {
                    if let MemAccessResult::Miss { line } = self.hierarchy.access(addr, false) {
                        self.hierarchy.fill(line, false);
                    }
                    done += 1;
                }
                Op::Store { addr } => {
                    if let MemAccessResult::Miss { line } = self.hierarchy.access(addr, true) {
                        self.hierarchy.fill(line, true);
                    }
                    done += 1;
                }
            }
        }
        self.hierarchy.reset_stats();
    }

    /// Runs one CPU cycle: retire in order, then dispatch up to `width`
    /// instructions from `source`.
    pub fn cycle(&mut self, source: &mut dyn OpSource) {
        self.now += 1;
        self.retire();
        let dispatched = self.dispatch(source);
        if dispatched == 0 {
            self.stats.stall_cycles += 1;
        }
    }

    /// Advances the core to exactly CPU cycle `deadline`, bit-identically
    /// to calling [`Cpu::cycle`] `deadline - now` times. Fully-stalled
    /// spans and full-width compute streaks advance in closed form; every
    /// other cycle takes the exact per-cycle path. External interaction
    /// (request pop, read completion) must happen outside the call, as it
    /// would between plain `cycle` calls.
    pub fn run_until(&mut self, deadline: u64, source: &mut dyn OpSource) {
        while self.now < deadline {
            match self.idle_until() {
                Some(at) => {
                    // Batch the guaranteed-stall prefix; a wake-up on the
                    // very next cycle steps exactly.
                    let hi = if at == u64::MAX {
                        deadline
                    } else {
                        deadline.min(at - 1)
                    };
                    if hi > self.now {
                        self.advance_stalled(hi - self.now);
                    } else {
                        self.cycle(source);
                    }
                }
                None => {
                    if self.compute_streak_viable() {
                        self.compute_streak(deadline, source);
                    } else {
                        self.cycle(source);
                    }
                }
            }
        }
    }

    /// Whether the next cycles are provably a full-width compute streak
    /// *as long as the source keeps yielding `Op::Compute`*: no stalled
    /// op to replay, every ROB entry retirable by the next cycle (so
    /// retirement never blocks), and no writeback back-pressure (computes
    /// cannot create any). Under these conditions each cycle retires at
    /// full width (bounded by occupancy) and dispatches exactly `width`
    /// computes — see `apply_compute_streak` for the closed form.
    #[inline]
    fn compute_streak_viable(&self) -> bool {
        self.stalled_op.is_none()
            && self.waitmem_entries == 0
            && self.max_entry_at <= self.now + 1
            && self.hierarchy.pending_writebacks() < self.cfg.writeback_stall
            && self.cfg.width <= self.cfg.rob_size
            && self.cfg.width > 0
    }

    /// Fetches ops up to the deadline's dispatch capacity, applies the
    /// closed form over the all-compute prefix, and runs one exact partial
    /// cycle for the remainder (including the first non-compute op, which
    /// re-enters the normal dispatch path untouched).
    fn compute_streak(&mut self, deadline: u64, source: &mut dyn OpSource) {
        let w = self.cfg.width as u64;
        // Chunk very long deadlines so `avail * w` cannot overflow; the
        // outer `run_until` loop re-enters the streak seamlessly.
        let avail = (deadline - self.now).min(1 << 20);
        let max_ops = avail * w;
        let mut k = 0u64;
        let mut boundary: Option<Op> = None;
        while k < max_ops {
            match source.next_op() {
                Op::Compute => k += 1,
                op => {
                    boundary = Some(op);
                    break;
                }
            }
        }
        let full = k / w;
        if full > 0 {
            self.apply_compute_streak(full);
        }
        if boundary.is_some() || !k.is_multiple_of(w) {
            self.cycle_with_pending((k % w) as usize, boundary, source);
        }
    }

    /// Advances `full` cycles of pure full-width compute dispatch in
    /// closed form. With `W = width`, `n0 = rob.len()` and all entries
    /// `Ready(at <= now+1)`:
    ///
    /// * cycle 1 retires `min(W, n0)` and every later cycle retires `W`
    ///   (entries pushed in cycle `i` carry `at = now0 + i + 1`, eligible
    ///   from cycle `i+1` on), so `delta = full*W - max(0, W - n0)`;
    /// * each cycle dispatches exactly `W` computes (retirement frees the
    ///   space first; `W <= rob_size` guarantees the initial ramp fits);
    /// * the survivors are the last `full*W - (delta - min(delta, n0))`
    ///   pushed entries, with exact `at = now0 + j/W + 2` for push index
    ///   `j` — reconstructed verbatim so the ROB is indistinguishable
    ///   from per-cycle execution.
    ///
    /// Stall cycles, cache state, MSHRs and request queues are untouched
    /// (computes interact with none of them).
    fn apply_compute_streak(&mut self, full: u64) {
        let w = self.cfg.width as u64;
        let n0 = self.rob.len() as u64;
        let now0 = self.now;
        let delta = full * w - w.saturating_sub(n0);
        let popped_orig = delta.min(n0);
        let surv_new = full * w - (delta - popped_orig);
        self.rob.drop_front(popped_orig as usize);
        for j in (full * w - surv_new)..(full * w) {
            self.rob.push_back(RobEntry {
                state: EntryState::Ready(now0 + j / w + 2),
            });
        }
        self.now += full;
        self.head_seq += delta;
        self.stats.retired += delta;
        let top = now0 + full + 1;
        if top > self.max_entry_at {
            self.max_entry_at = top;
        }
    }

    /// One exact cycle whose dispatch stream is prefixed by `pending`
    /// already-fetched computes and then `boundary` (the op that ended a
    /// streak fetch), before falling back to the stalled-op/source path.
    /// The prefix is always consumed: computes cannot fail to dispatch
    /// while the streak preconditions hold, and `boundary` either
    /// dispatches or becomes the stalled op — so no transient buffer
    /// survives the call.
    fn cycle_with_pending(
        &mut self,
        mut pending: usize,
        mut boundary: Option<Op>,
        source: &mut dyn OpSource,
    ) {
        self.now += 1;
        self.retire();
        let mut dispatched = 0;
        while dispatched < self.cfg.width {
            if self.rob.len() >= self.cfg.rob_size {
                break; // ROB full
            }
            if self.hierarchy.pending_writebacks() >= self.cfg.writeback_stall {
                break; // memory back-pressure
            }
            let op = if pending > 0 {
                pending -= 1;
                Op::Compute
            } else if let Some(op) = boundary.take() {
                op
            } else {
                match self.stalled_op.take() {
                    Some(op) => op,
                    None => source.next_op(),
                }
            };
            if !self.try_dispatch(op) {
                self.stalled_op = Some(op);
                break;
            }
            dispatched += 1;
        }
        if dispatched == 0 {
            self.stats.stall_cycles += 1;
        }
        debug_assert!(
            pending == 0 && boundary.is_none(),
            "streak prefix fully consumed"
        );
    }

    fn retire(&mut self) {
        for _ in 0..self.cfg.width {
            match self.rob.front() {
                Some(RobEntry {
                    state: EntryState::Ready(at),
                }) if *at <= self.now => {
                    self.rob.pop_front();
                    self.head_seq += 1;
                    self.stats.retired += 1;
                }
                _ => break,
            }
        }
    }

    fn dispatch(&mut self, source: &mut dyn OpSource) -> usize {
        let mut dispatched = 0;
        while dispatched < self.cfg.width {
            if self.rob.len() >= self.cfg.rob_size {
                break; // ROB full
            }
            if self.hierarchy.pending_writebacks() >= self.cfg.writeback_stall {
                break; // memory back-pressure
            }
            let op = match self.stalled_op.take() {
                Some(op) => op,
                None => source.next_op(),
            };
            if !self.try_dispatch(op) {
                self.stalled_op = Some(op);
                break;
            }
            dispatched += 1;
        }
        dispatched
    }

    /// Attempts to dispatch one op; returns false if it must retry next
    /// cycle (dependence or MSHR/queue limits).
    fn try_dispatch(&mut self, op: Op) -> bool {
        match op {
            Op::Compute => {
                self.push_entry(EntryState::Ready(self.now + 1));
                true
            }
            Op::Load { addr, dependent } => {
                // A dependent load serialises behind the previous chase
                // miss: memory-level parallelism collapses to one, as in
                // pointer-chasing codes (mcf).
                if dependent && self.chase_block.is_some() {
                    return false;
                }
                // Retrying the stalled op against an unchanged hierarchy
                // repeats the same miss; skip the L1+L2 lookup.
                let result = match self.stalled_miss.take() {
                    Some(line) => MemAccessResult::Miss { line },
                    None => self.hierarchy.access(addr, false),
                };
                match result {
                    MemAccessResult::L1Hit => {
                        self.stats.loads += 1;
                        self.push_entry(EntryState::Ready(self.now + self.cfg.l1_latency));
                        true
                    }
                    MemAccessResult::L2Hit => {
                        self.stats.loads += 1;
                        self.push_entry(EntryState::Ready(self.now + self.cfg.l2_latency));
                        true
                    }
                    MemAccessResult::Miss { line } => {
                        let seq = self.head_seq + self.rob.len() as u64;
                        if let Some(mshr) = self.mshrs.get_mut(line) {
                            mshr.waiters.push(seq);
                        } else {
                            if self.mshrs.len() >= self.cfg.lsq_size {
                                self.stalled_miss = Some(line);
                                return false; // no MSHR free
                            }
                            self.mshrs.insert(line, false).waiters.push(seq);
                            self.read_requests.push_back((line, true));
                            self.stats.mem_reads += 1;
                        }
                        self.stats.loads += 1;
                        if dependent {
                            self.chase_block = Some(line);
                        }
                        self.push_entry(EntryState::WaitMem(line));
                        true
                    }
                }
            }
            Op::Store { addr } => {
                let result = match self.stalled_miss.take() {
                    Some(line) => MemAccessResult::Miss { line },
                    None => self.hierarchy.access(addr, true),
                };
                match result {
                    MemAccessResult::L1Hit | MemAccessResult::L2Hit => {
                        self.stats.stores += 1;
                        self.push_entry(EntryState::Ready(self.now + 1));
                        true
                    }
                    MemAccessResult::Miss { line } => {
                        // Write-allocate: fetch the line, but the store
                        // itself is posted and retires immediately.
                        if let Some(mshr) = self.mshrs.get_mut(line) {
                            mshr.dirty_on_fill = true;
                        } else {
                            if self.mshrs.len() >= self.cfg.lsq_size {
                                self.stalled_miss = Some(line);
                                return false;
                            }
                            self.mshrs.insert(line, true);
                            self.read_requests.push_back((line, false));
                            self.stats.mem_reads += 1;
                        }
                        self.stats.stores += 1;
                        self.push_entry(EntryState::Ready(self.now + 1));
                        true
                    }
                }
            }
        }
    }

    #[inline]
    fn push_entry(&mut self, state: EntryState) {
        match state {
            EntryState::Ready(at) => {
                if at > self.max_entry_at {
                    self.max_entry_at = at;
                }
            }
            EntryState::WaitMem(_) => self.waitmem_entries += 1,
        }
        self.rob.push_back(RobEntry { state });
    }

    /// Serialises the complete core state — ROB, MSHRs, pending requests,
    /// stall/chase bookkeeping, cache hierarchy and statistics — for a
    /// checkpoint. MSHRs are written in ascending line order so the byte
    /// stream is independent of the open-addressed table's probe layout
    /// (and identical to the historical `BTreeMap` encoding).
    pub fn save_snap(&self, w: &mut burst_snap::SnapWriter) {
        let Self {
            cfg: _, // construction input; restore re-supplies it
            hierarchy,
            rob,
            head_seq,
            now,
            mshrs,
            read_requests,
            stalled_op,
            stalled_miss,
            chase_block,
            waitmem_entries: _, // recomputed from ROB entries on restore
            max_entry_at: _,    // recomputed from ROB entries on restore
            stats,
        } = self;
        hierarchy.save_snap(w);
        w.usize(rob.len());
        for e in rob.iter() {
            match e.state {
                EntryState::Ready(at) => {
                    w.u8(0);
                    w.u64(at);
                }
                EntryState::WaitMem(line) => {
                    w.u8(1);
                    w.u64(line);
                }
            }
        }
        w.u64(*head_seq);
        w.u64(*now);
        w.usize(mshrs.len());
        for i in mshrs.sorted_indices() {
            let slot = &mshrs.slots[i];
            w.u64(slot.line);
            w.usize(slot.waiters.len());
            for &seq in &slot.waiters {
                w.u64(seq);
            }
            w.bool(slot.dirty_on_fill);
        }
        w.usize(read_requests.len());
        for &(line, critical) in read_requests {
            w.u64(line);
            w.bool(critical);
        }
        save_opt_op(w, *stalled_op);
        w.opt_u64(*stalled_miss);
        w.opt_u64(*chase_block);
        stats.save_snap(w);
    }

    /// Restores state written by [`Cpu::save_snap`] into a core built from
    /// the same configuration. The derived streak counters
    /// (`waitmem_entries`, `max_entry_at`) are recomputed from the
    /// restored ROB.
    pub fn load_snap(
        &mut self,
        r: &mut burst_snap::SnapReader,
    ) -> Result<(), burst_snap::SnapError> {
        use burst_snap::SnapError;
        let Self {
            cfg,
            hierarchy,
            rob,
            head_seq,
            now,
            mshrs,
            read_requests,
            stalled_op,
            stalled_miss,
            chase_block,
            waitmem_entries,
            max_entry_at,
            stats,
        } = self;
        hierarchy.load_snap(r)?;
        let rob_len = r.seq_len(9)?;
        if rob_len > cfg.rob_size {
            return Err(SnapError::Corrupt("ROB larger than configured"));
        }
        let mut entries = Vec::with_capacity(rob_len);
        for _ in 0..rob_len {
            entries.push(match r.u8()? {
                0 => EntryState::Ready(r.u64()?),
                1 => EntryState::WaitMem(r.u64()?),
                _ => return Err(SnapError::Corrupt("bad ROB entry tag")),
            });
        }
        *head_seq = r.u64()?;
        *now = r.u64()?;
        let n_mshrs = r.seq_len(10)?;
        if n_mshrs > cfg.lsq_size {
            return Err(SnapError::Corrupt("more MSHRs than configured LSQ"));
        }
        mshrs.clear();
        for _ in 0..n_mshrs {
            let line = r.u64()?;
            let n_waiters = r.seq_len(8)?;
            let mut waiters = Vec::with_capacity(n_waiters);
            for _ in 0..n_waiters {
                waiters.push(r.u64()?);
            }
            let dirty_on_fill = r.bool()?;
            if mshrs.find(line).is_some() {
                return Err(SnapError::Corrupt("duplicate MSHR line"));
            }
            let slot = mshrs.insert(line, dirty_on_fill);
            slot.waiters = waiters;
        }
        let n_reqs = r.seq_len(9)?;
        read_requests.clear();
        for _ in 0..n_reqs {
            let line = r.u64()?;
            let critical = r.bool()?;
            read_requests.push_back((line, critical));
        }
        *stalled_op = load_opt_op(r)?;
        *stalled_miss = r.opt_u64()?;
        *chase_block = r.opt_u64()?;
        *stats = CpuStats::load_snap(r)?;
        rob.clear();
        *waitmem_entries = 0;
        *max_entry_at = 0;
        for state in entries {
            self.push_entry(state);
        }
        Ok(())
    }
}

/// Writes an optional [`Op`] with a stable tag encoding.
fn save_opt_op(w: &mut burst_snap::SnapWriter, op: Option<Op>) {
    match op {
        None => w.u8(0),
        Some(Op::Compute) => w.u8(1),
        Some(Op::Load { addr, dependent }) => {
            w.u8(2);
            w.u64(addr);
            w.bool(dependent);
        }
        Some(Op::Store { addr }) => {
            w.u8(3);
            w.u64(addr);
        }
    }
}

/// Reads an optional [`Op`] written by [`save_opt_op`].
fn load_opt_op(r: &mut burst_snap::SnapReader) -> Result<Option<Op>, burst_snap::SnapError> {
    Ok(match r.u8()? {
        0 => None,
        1 => Some(Op::Compute),
        2 => {
            let addr = r.u64()?;
            let dependent = r.bool()?;
            Some(Op::Load { addr, dependent })
        }
        3 => Some(Op::Store { addr: r.u64()? }),
        _ => return Err(burst_snap::SnapError::Corrupt("bad Op tag")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use burst_workloads::ReplaySource;

    fn compute_only() -> ReplaySource {
        ReplaySource::new("compute", vec![Op::Compute])
    }

    #[test]
    fn compute_stream_retires_at_full_width() {
        let mut cpu = Cpu::new(CpuConfig::baseline());
        let mut src = compute_only();
        for _ in 0..100 {
            cpu.cycle(&mut src);
        }
        // Steady state: 8 instructions per cycle.
        assert!(cpu.retired() > 90 * 8 / 2, "retired {}", cpu.retired());
        assert_eq!(cpu.outstanding_misses(), 0);
    }

    #[test]
    fn load_miss_blocks_retirement_until_completion() {
        let mut cpu = Cpu::new(CpuConfig::baseline());
        // One load then endless compute.
        let mut ops = vec![Op::load(0x1000)];
        ops.extend(std::iter::repeat_n(Op::Compute, 9));
        let mut src = ReplaySource::new("l", ops);
        for _ in 0..50 {
            cpu.cycle(&mut src);
        }
        let line = cpu.pop_read_request().expect("load missed to memory");
        assert_eq!(line, 0x1000);
        // ROB fills behind the blocked load; retirement stops at it.
        let retired_before = cpu.retired();
        for _ in 0..50 {
            cpu.cycle(&mut src);
        }
        assert_eq!(
            cpu.retired(),
            retired_before,
            "nothing retires past a blocked load"
        );
        // Complete it: retirement resumes.
        cpu.complete_read(0x1000, cpu.now());
        for _ in 0..20 {
            cpu.cycle(&mut src);
        }
        assert!(cpu.retired() > retired_before);
    }

    #[test]
    fn rob_limits_in_flight_instructions() {
        let mut cpu = Cpu::new(CpuConfig::baseline());
        let mut src = ReplaySource::new("l", vec![Op::load(0x40_0000)]);
        // Every op is a load to a distinct line? No: same line -> one MSHR,
        // all wait. ROB fills to capacity and dispatch stalls.
        for _ in 0..100 {
            cpu.cycle(&mut src);
        }
        assert!(cpu.rob.len() <= 196);
        assert!(cpu.stats().stall_cycles > 0);
    }

    #[test]
    fn lsq_bounds_outstanding_misses() {
        let cfg = CpuConfig::baseline();
        let mut cpu = Cpu::new(cfg);
        // Loads to many distinct lines (64 B apart spans sets; use big
        // stride to avoid cache hits).
        let ops: Vec<Op> = (0..256).map(|i| Op::load(i << 20)).collect();
        let mut src = ReplaySource::new("many", ops);
        for _ in 0..200 {
            cpu.cycle(&mut src);
        }
        assert!(
            cpu.outstanding_misses() <= cfg.lsq_size,
            "MSHRs {} exceed LSQ {}",
            cpu.outstanding_misses(),
            cfg.lsq_size
        );
        assert_eq!(cpu.outstanding_misses(), cfg.lsq_size, "should saturate");
    }

    #[test]
    fn dependent_loads_serialize() {
        let mut cpu = Cpu::new(CpuConfig::baseline());
        let ops: Vec<Op> = (0..64).map(|i| Op::dependent_load(i << 20)).collect();
        let mut src = ReplaySource::new("chase", ops);
        for _ in 0..100 {
            cpu.cycle(&mut src);
        }
        assert_eq!(cpu.outstanding_misses(), 1, "pointer chase has MLP 1");
    }

    #[test]
    fn store_misses_fetch_line_but_do_not_block() {
        let mut cpu = Cpu::new(CpuConfig::baseline());
        let mut ops = vec![Op::Store { addr: 0x8000 }];
        ops.extend(std::iter::repeat_n(Op::Compute, 15));
        let mut src = ReplaySource::new("s", ops);
        for _ in 0..30 {
            cpu.cycle(&mut src);
        }
        // Store generated a fill read...
        assert_eq!(cpu.pop_read_request(), Some(0x8000));
        // ...but retirement continued (stores are posted).
        assert!(cpu.retired() > 20, "retired {}", cpu.retired());
    }

    #[test]
    fn store_fill_installs_dirty_line() {
        let mut cpu = Cpu::new(CpuConfig::baseline());
        let mut src = ReplaySource::new("s", vec![Op::Store { addr: 0 }, Op::Compute]);
        cpu.cycle(&mut src);
        assert_eq!(cpu.pop_read_request(), Some(0));
        cpu.complete_read(0, cpu.now());
        assert!(cpu.hierarchy().l1d().contains(0));
        // Dirty: evicting it must eventually produce a writeback. Touch
        // enough conflicting lines to push it through both levels.
        let sets_l1 = cpu.hierarchy().l1d().config().sets() as u64;
        let sets_l2 = cpu.hierarchy().l2().config().sets() as u64;
        let ops: Vec<Op> = (1..=40)
            .map(|i| Op::Store {
                addr: i * sets_l1.max(sets_l2) * 64,
            })
            .collect();
        let mut src2 = ReplaySource::new("evict", ops);
        for _ in 0..4000 {
            cpu.cycle(&mut src2);
            while let Some(line) = cpu.pop_read_request() {
                cpu.complete_read(line, cpu.now());
            }
            if cpu.pop_writeback().is_some() {
                return; // writeback observed
            }
        }
        panic!("dirty line never written back");
    }

    #[test]
    fn writeback_pressure_stalls_dispatch() {
        let mut cfg = CpuConfig::baseline();
        cfg.writeback_stall = 1;
        let mut cpu = Cpu::new(cfg);
        // Generate dirty evictions without draining writebacks.
        let sets = cpu.hierarchy().l2().config().sets() as u64;
        let ops: Vec<Op> = (0..600)
            .map(|i| Op::Store {
                addr: i * sets * 64,
            })
            .collect();
        let mut src = ReplaySource::new("wb", ops);
        for _ in 0..3000 {
            cpu.cycle(&mut src);
            while let Some(line) = cpu.pop_read_request() {
                cpu.complete_read(line, cpu.now());
            }
            if cpu.hierarchy().pending_writebacks() >= 1 {
                break;
            }
        }
        assert!(cpu.hierarchy().pending_writebacks() >= 1);
        let stalls_before = cpu.stats().stall_cycles;
        for _ in 0..10 {
            cpu.cycle(&mut src);
        }
        assert!(
            cpu.stats().stall_cycles > stalls_before,
            "dispatch must stall"
        );
    }

    #[test]
    fn l1_hit_is_faster_than_l2_hit() {
        let mut cpu = Cpu::new(CpuConfig::baseline());
        let mut src = ReplaySource::new("one", vec![Op::load(0), Op::Compute]);
        // Warm the line via fill.
        cpu.cycle(&mut src);
        if let Some(l) = cpu.pop_read_request() {
            cpu.complete_read(l, cpu.now());
        }
        // Subsequent loads to the same line hit L1 and retire quickly.
        let retired_before = cpu.retired();
        for _ in 0..20 {
            cpu.cycle(&mut src);
        }
        assert!(cpu.retired() > retired_before + 10);
    }

    #[test]
    fn shared_mshr_wakes_all_waiting_loads() {
        let mut cpu = Cpu::new(CpuConfig::baseline());
        // Four loads to the same missing line.
        let ops = vec![Op::load(0x100000); 4];
        let mut src = ReplaySource::new("same", ops);
        cpu.cycle(&mut src);
        assert_eq!(cpu.outstanding_misses(), 1, "merged into one MSHR");
        cpu.complete_read(0x100000, cpu.now());
        for _ in 0..10 {
            cpu.cycle(&mut src);
        }
        assert!(cpu.retired() >= 4);
    }

    /// Drives a per-cycle and a batched core over the same source and
    /// external stimulus, asserting byte-identical snapshots at every
    /// epoch — the core bit-identity contract of the batch path.
    fn assert_batch_equivalent(ops: Vec<Op>, epochs: usize, stride: u64) {
        let mut reference = Cpu::new(CpuConfig::baseline());
        let mut batched = Cpu::new(CpuConfig::baseline());
        let mut src_a = ReplaySource::new("a", ops.clone());
        let mut src_b = ReplaySource::new("b", ops);
        for epoch in 0..epochs {
            let target = reference.now() + stride;
            while reference.now() < target {
                reference.cycle(&mut src_a);
            }
            batched.run_until(target, &mut src_b);
            // Matching external stimulus: drain requests, complete one.
            loop {
                let a = reference.pop_read_request_tagged();
                let b = batched.pop_read_request_tagged();
                assert_eq!(a, b, "epoch {epoch}: request streams diverge");
                let Some((line, _)) = a else { break };
                reference.complete_read(line, reference.now());
                batched.complete_read(line, batched.now());
            }
            while let Some(wa) = reference.pop_writeback() {
                assert_eq!(Some(wa), batched.pop_writeback());
            }
            assert_eq!(batched.pop_writeback(), None);
            let mut wa = burst_snap::SnapWriter::new();
            let mut wb = burst_snap::SnapWriter::new();
            reference.save_snap(&mut wa);
            batched.save_snap(&mut wb);
            assert_eq!(
                wa.into_bytes(),
                wb.into_bytes(),
                "epoch {epoch}: snapshots diverge"
            );
        }
    }

    #[test]
    fn batch_matches_per_cycle_on_pure_compute() {
        assert_batch_equivalent(vec![Op::Compute], 8, 100);
    }

    #[test]
    fn batch_matches_per_cycle_on_mixed_stream() {
        let ops: Vec<Op> = (0..200u64)
            .map(|i| match i % 7 {
                0 => Op::load(i << 14),
                3 => Op::Store { addr: i << 13 },
                5 => Op::dependent_load(i << 15),
                _ => Op::Compute,
            })
            .collect();
        assert_batch_equivalent(ops, 12, 37);
    }

    #[test]
    fn batch_matches_per_cycle_on_compute_bursts() {
        // Long compute runs separated by a single load: exercises the
        // closed form plus the partial-cycle boundary repeatedly.
        let mut ops = Vec::new();
        for i in 0..8u64 {
            ops.extend(std::iter::repeat_n(Op::Compute, 83));
            ops.push(Op::load(i << 16));
        }
        assert_batch_equivalent(ops, 10, 61);
    }

    #[test]
    fn run_until_lands_exactly_on_deadline() {
        let mut cpu = Cpu::new(CpuConfig::baseline());
        let mut src = compute_only();
        cpu.run_until(1234, &mut src);
        assert_eq!(cpu.now(), 1234);
        // Steady-state full width: (1234 - ramp) * 8 retired.
        assert!(cpu.retired() > 1200 * 8, "retired {}", cpu.retired());
    }

    #[test]
    fn mshr_table_backward_shift_preserves_lookup() {
        let mut t = MshrTable::new(32);
        // Insert a cluster of lines that collide, then remove from the
        // middle and verify the rest stay findable.
        let lines: Vec<u64> = (0..24u64).map(|i| i * 64).collect();
        for &l in &lines {
            t.insert(l, false);
        }
        assert_eq!(t.len(), 24);
        for &l in lines.iter().step_by(3) {
            assert!(t.remove(l).is_some());
        }
        for (i, &l) in lines.iter().enumerate() {
            if i % 3 == 0 {
                assert!(t.find(l).is_none(), "removed line {l} still present");
            } else {
                assert!(t.find(l).is_some(), "line {l} lost by backward shift");
            }
        }
        // Sorted snapshot order is ascending by line.
        let sorted = t.sorted_indices();
        let mut prev = None;
        for i in sorted {
            let line = t.slots[i].line;
            assert!(prev.is_none_or(|p| p < line));
            prev = Some(line);
        }
    }
}

#[cfg(test)]
mod snap_tests {
    use super::*;
    use burst_workloads::ReplaySource;

    /// Drives a core through misses, merges, a completion and stalls so
    /// every snapshot field is populated, then asserts a byte-identical
    /// re-serialisation after restore and identical onward behaviour.
    #[test]
    fn snapshot_round_trips_mid_flight() {
        let mut cpu = Cpu::new(CpuConfig::baseline());
        let ops: Vec<Op> = (0..80u64)
            .map(|i| match i % 4 {
                0 => Op::load(i << 20),
                1 => Op::Compute,
                2 => Op::Store {
                    addr: (i << 20) | 0x40,
                },
                _ => Op::dependent_load(i << 21),
            })
            .collect();
        let mut src = ReplaySource::new("mix", ops.clone());
        for _ in 0..60 {
            cpu.cycle(&mut src);
        }
        let first_miss = cpu.pop_read_request().expect("missed");
        cpu.complete_read(first_miss, cpu.now());
        for _ in 0..5 {
            cpu.cycle(&mut src);
        }
        let mut w = burst_snap::SnapWriter::new();
        cpu.save_snap(&mut w);
        let bytes = w.into_bytes();
        let mut restored = Cpu::new(CpuConfig::baseline());
        let mut r = burst_snap::SnapReader::new(&bytes);
        restored.load_snap(&mut r).unwrap();
        r.finish().unwrap();
        let mut w2 = burst_snap::SnapWriter::new();
        restored.save_snap(&mut w2);
        assert_eq!(bytes, w2.into_bytes(), "restore must be lossless");
        // Both cores step identically afterwards (the replay source is
        // positional, so give each its own copy at the same offset).
        let mut src2 = src.clone();
        for _ in 0..40 {
            cpu.cycle(&mut src);
            restored.cycle(&mut src2);
        }
        assert_eq!(cpu.retired(), restored.retired());
        assert_eq!(cpu.stats(), restored.stats());
        assert_eq!(cpu.pop_read_request(), restored.pop_read_request());
    }

    #[test]
    fn snapshot_rejects_oversized_rob() {
        let mut cpu = Cpu::new(CpuConfig::baseline());
        let mut src = ReplaySource::new("l", vec![Op::load(0x40_0000)]);
        for _ in 0..100 {
            cpu.cycle(&mut src);
        }
        let mut w = burst_snap::SnapWriter::new();
        cpu.save_snap(&mut w);
        let bytes = w.into_bytes();
        let mut tiny_cfg = CpuConfig::baseline();
        tiny_cfg.rob_size = 4;
        let mut tiny = Cpu::new(tiny_cfg);
        let mut r = burst_snap::SnapReader::new(&bytes);
        assert!(tiny.load_snap(&mut r).is_err());
    }

    /// The derived streak counters must be rebuilt on restore: a restored
    /// core and the original take identical batch paths afterwards.
    #[test]
    fn restored_core_batches_identically() {
        let mut cpu = Cpu::new(CpuConfig::baseline());
        let mut ops: Vec<Op> = std::iter::repeat_n(Op::Compute, 50).collect();
        ops.push(Op::load(0x9000));
        ops.extend(std::iter::repeat_n(Op::Compute, 50));
        let mut src = ReplaySource::new("mix", ops);
        cpu.run_until(10, &mut src);
        let mut w = burst_snap::SnapWriter::new();
        cpu.save_snap(&mut w);
        let bytes = w.into_bytes();
        let mut restored = Cpu::new(CpuConfig::baseline());
        restored
            .load_snap(&mut burst_snap::SnapReader::new(&bytes))
            .unwrap();
        let mut src2 = src.clone();
        cpu.run_until(40, &mut src);
        restored.run_until(40, &mut src2);
        let mut wa = burst_snap::SnapWriter::new();
        let mut wb = burst_snap::SnapWriter::new();
        cpu.save_snap(&mut wa);
        restored.save_snap(&mut wb);
        assert_eq!(wa.into_bytes(), wb.into_bytes());
    }
}

#[cfg(test)]
mod warm_tests {
    use super::*;
    use burst_workloads::ReplaySource;

    #[test]
    fn warming_terminates_on_compute_only_workloads() {
        let mut cpu = Cpu::new(CpuConfig::baseline());
        let mut src = ReplaySource::new("compute", vec![Op::Compute]);
        // Must return despite the source never emitting a memory op.
        cpu.warm_caches(&mut src, 10_000);
    }

    #[test]
    fn warming_fills_caches() {
        let mut cpu = Cpu::new(CpuConfig::baseline());
        let ops: Vec<Op> = (0..64u64).map(|i| Op::load(i * 64)).collect();
        let mut src = ReplaySource::new("lines", ops);
        cpu.warm_caches(&mut src, 256);
        assert!(
            cpu.hierarchy().l1d().contains(0),
            "warmed line must be resident"
        );
        assert_eq!(
            cpu.hierarchy().pending_writebacks(),
            0,
            "warming discards writebacks"
        );
    }
}
