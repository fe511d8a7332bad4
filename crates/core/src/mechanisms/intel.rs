//! Intel's patented out-of-order memory scheduling (US patent 7,127,574),
//! as described by the paper: unique read queues per bank and a single
//! write queue for all banks. Reads are prioritised over writes to minimise
//! read latency; once an access is started it receives the highest priority
//! so it finishes as quickly as possible, reducing the degree of
//! reordering. The `Intel_RP` variant (not in the patent) additionally lets
//! reads preempt ongoing writes.

use std::collections::VecDeque;

use crate::engine::{Candidate, Core};
use crate::txsched::select_intel_limited;
use crate::{
    Access, AccessKind, AccessScheduler, Completion, CtrlConfig, CtrlStats, EnqueueOutcome,
    Mechanism, Outstanding,
};
use burst_dram::{Cycle, Dram, Geometry};

/// Accesses the scheduler can examine per cycle in priority order; if all
/// are blocked the cycle bubbles (timing-naive "best effort" scheduling).
const LOOKAHEAD: usize = 3;

/// The `Intel` / `Intel_RP` scheduler.
///
/// # Examples
///
/// ```
/// use burst_core::{CtrlConfig, Mechanism};
/// use burst_dram::Geometry;
///
/// let sched = Mechanism::IntelRp.build(CtrlConfig::default(), Geometry::baseline());
/// assert_eq!(sched.mechanism(), Mechanism::IntelRp);
/// ```
#[derive(Debug)]
pub struct IntelScheduler {
    core: Core,
    read_queues: Vec<VecDeque<Access>>,
    write_queue: VecDeque<Access>,
    read_preemption: bool,
    /// Write-buffer flush mode: entered at the high-water mark (3/4 of
    /// capacity), left at the low-water mark (1/2). While draining, idle
    /// banks prefer writes so the buffer empties in bursts, as the
    /// patent's flush logic does.
    draining: bool,
    scratch: Vec<Candidate>,
}

impl IntelScheduler {
    /// How many oldest entries of a bank's read queue the row-hit search
    /// may reorder across.
    pub const REORDER_WINDOW: usize = 4;

    /// Creates the scheduler; `read_preemption` selects the `Intel_RP`
    /// variant.
    pub fn new(cfg: CtrlConfig, geom: Geometry, read_preemption: bool) -> Self {
        let core = Core::new(cfg, geom);
        let nbanks = core.bank_count();
        IntelScheduler {
            core,
            read_queues: vec![VecDeque::new(); nbanks],
            write_queue: VecDeque::new(),
            read_preemption,
            draining: false,
            scratch: Vec::new(),
        }
    }

    /// Removes the oldest write targeting `bank_idx` from the global write
    /// queue.
    fn pop_write_for_bank(&mut self, bank_idx: usize) -> Option<Access> {
        let idx = self
            .write_queue
            .iter()
            .enumerate()
            .filter(|(_, w)| self.core.global_bank(w.loc) == bank_idx)
            .min_by_key(|(_, w)| w.id)
            .map(|(i, _)| i)?;
        self.write_queue.remove(idx)
    }

    /// Re-inserts a preempted write keeping the queue sorted by age.
    fn reinsert_write(&mut self, write: Access) {
        let pos = self.write_queue.partition_point(|w| w.id < write.id);
        self.write_queue.insert(pos, write);
    }

    fn arbiter(&mut self, bank_idx: usize, dram: &Dram, now: Cycle) {
        if let Some(og) = self.core.ongoing(bank_idx) {
            // Intel_RP: a waiting read interrupts an ongoing write —
            // except during a forced write-buffer flush, where preempting
            // would keep the buffer saturated and stall the front side bus.
            if self.read_preemption
                && og.access.kind == AccessKind::Write
                && !self.read_queues[bank_idx].is_empty()
            {
                let write = self.core.clear_ongoing(bank_idx).expect("ongoing write");
                self.reinsert_write(write);
                let read = self
                    .pick_read(bank_idx, dram, now)
                    .expect("read queue non-empty");
                self.core
                    .set_ongoing(bank_idx, read)
                    .expect("slot was just cleared for preemption");
                self.core.stats_mut().preemptions += 1;
            }
            return;
        }
        // Starvation watchdog: the oldest write sits at the queue front
        // (FIFO plus age-sorted reinsertion). Once it exceeds the
        // escalation age, drain it even while reads are outstanding —
        // without this a single write behind an endless read stream never
        // drains (the queue never fills, reads never reach zero).
        let escalate_age = self.core.cfg().watchdog.escalate_age;
        if let Some(front) = self.write_queue.front() {
            if now.saturating_sub(front.arrival) >= escalate_age
                && self.core.global_bank(front.loc) == bank_idx
            {
                let write = self.write_queue.pop_front().expect("front exists");
                self.core
                    .set_ongoing(bank_idx, write)
                    .expect("bank verified idle before escalation");
                return;
            }
        }
        // While the write buffer flushes, idle banks prefer writes so the
        // buffer empties in bursts. Reads keep priority in banks that have
        // them (outside drain mode), which is why Intel still accumulates
        // outstanding writes (paper Figure 8b) without saturating as often
        // as Burst.
        if self.draining || self.core.reads_outstanding() == 0 {
            if let Some(write) = self.pop_write_for_bank(bank_idx) {
                self.core
                    .set_ongoing(bank_idx, write)
                    .expect("bank verified idle at arbiter entry");
                return;
            }
        }
        if !self.read_queues[bank_idx].is_empty() {
            let read = self.pick_read(bank_idx, dram, now).expect("non-empty");
            self.core
                .set_ongoing(bank_idx, read)
                .expect("bank verified idle at arbiter entry");
        }
    }

    /// Row-hit read against the open row from the oldest
    /// [`Self::REORDER_WINDOW`] queue entries, else the oldest read. The
    /// patent deliberately limits the degree of reordering so started
    /// accesses finish fast; an unbounded row-hit scan would overstate it.
    /// A front read past the watchdog's escalation age is always taken
    /// first, bypassing the row-hit preference.
    fn pick_read(&mut self, bank_idx: usize, dram: &Dram, now: Cycle) -> Option<Access> {
        let escalate_age = self.core.cfg().watchdog.escalate_age;
        let (ch, rank, bk) = self.core.bank_coords(bank_idx);
        let open_row = dram.channel(usize::from(ch)).bank(rank, bk).open_row();
        if self.read_queues[bank_idx].is_empty() {
            return None;
        }
        let front_escalated = self.read_queues[bank_idx]
            .front()
            .map(|a| now.saturating_sub(a.arrival) >= escalate_age)
            .unwrap_or(false);
        if front_escalated {
            return self.read_queues[bank_idx].pop_front();
        }
        let queue = &mut self.read_queues[bank_idx];
        let idx = open_row
            .and_then(|row| {
                queue
                    .iter()
                    .take(Self::REORDER_WINDOW)
                    .enumerate()
                    .filter(|(_, a)| a.loc.row == row)
                    .min_by_key(|(_, a)| a.id)
                    .map(|(i, _)| i)
            })
            .unwrap_or(0);
        queue.remove(idx)
    }

    /// Re-enqueues a faulted access at the front of its queue.
    fn requeue_front(&mut self, access: Access) {
        match access.kind {
            AccessKind::Read => {
                let bank_idx = self.core.global_bank(access.loc);
                self.read_queues[bank_idx].push_front(access);
            }
            // Age-sorted reinsertion puts the (old) retry near the front.
            AccessKind::Write => self.reinsert_write(access),
        }
    }
}

impl AccessScheduler for IntelScheduler {
    fn mechanism(&self) -> Mechanism {
        if self.read_preemption {
            Mechanism::IntelRp
        } else {
            Mechanism::Intel
        }
    }

    fn can_accept(&self, kind: AccessKind) -> bool {
        self.core.can_accept(kind)
    }

    fn enqueue(
        &mut self,
        access: Access,
        now: Cycle,
        completions: &mut Vec<Completion>,
    ) -> EnqueueOutcome {
        if !self.can_accept(access.kind) {
            return EnqueueOutcome::Rejected;
        }
        let bank_idx = self.core.global_bank(access.loc);
        match access.kind {
            AccessKind::Read => {
                // Reads search the write queue; a hit forwards the latest
                // write's data.
                let queued_hit = self.write_queue.iter().any(|w| w.addr == access.addr);
                let ongoing_hit = self
                    .core
                    .ongoing(bank_idx)
                    .map(|o| o.access.kind == AccessKind::Write && o.access.addr == access.addr)
                    .unwrap_or(false);
                if queued_hit || ongoing_hit {
                    self.core.note_forward(&access, now, completions);
                    return EnqueueOutcome::Forwarded;
                }
                self.core.note_arrival(&access);
                self.read_queues[bank_idx].push_back(access);
                EnqueueOutcome::Queued
            }
            AccessKind::Write => {
                self.core.note_arrival(&access);
                self.write_queue.push_back(access);
                EnqueueOutcome::Queued
            }
        }
    }

    fn tick(&mut self, dram: &mut Dram, now: Cycle, completions: &mut Vec<Completion>) {
        dram.tick(now);
        self.core.sample();
        self.core.watchdog_tick(now);
        for access in self.core.take_retries() {
            self.requeue_front(access);
        }
        // The paper's description: writes are selected when the write
        // queue is full (drain until just below capacity) or when no reads
        // are outstanding. This weak write management is what burst
        // scheduling's piggybacking improves on.
        let occupancy = self.core.writes_outstanding();
        self.draining = occupancy >= self.core.cfg().write_capacity;
        for channel in 0..self.core.channel_count() {
            for bank in self.core.bank_range(channel) {
                self.arbiter(bank, dram, now);
            }
            let mut cands = std::mem::take(&mut self.scratch);
            self.core
                .fill_all_candidates(dram, channel, now, &mut cands);
            match select_intel_limited(&cands, LOOKAHEAD) {
                Some(cand) => {
                    self.core.issue_candidate(dram, now, &cand, completions);
                }
                None => self.core.steer_to_oldest(channel),
            }
            self.scratch = cands;
        }
    }

    fn stats(&self) -> &CtrlStats {
        self.core.stats()
    }

    fn outstanding(&self) -> Outstanding {
        Outstanding {
            reads: self.core.reads_outstanding(),
            writes: self.core.writes_outstanding(),
        }
    }

    fn stall_diagnostic(&self) -> Option<crate::StallDiagnostic> {
        self.core.stall()
    }

    // `draining` may go stale across a skip, but it is recomputed from live
    // occupancy at the top of every tick before any use, so quiescent ticks
    // never observe it.
    fn quiescent(&self) -> bool {
        self.core.quiescent()
    }

    fn advance_quiescent(&mut self, from: Cycle, n: u64) {
        self.core.advance_quiescent(from, n);
    }

    fn next_busy_event(&self, dram: &Dram, last: Cycle) -> Option<Cycle> {
        let mut event = self.core.busy_event_base(dram, last)?;
        let t = last + 1;
        // Recompute the drain decision exactly as the tick top does; the
        // occupancy it reads is static across a no-op stretch.
        let draining = self.core.writes_outstanding() >= self.core.cfg().write_capacity;
        for bank in 0..self.core.bank_count() {
            match self.core.ongoing(bank) {
                Some(og) => {
                    if self.read_preemption
                        && og.access.kind == AccessKind::Write
                        && !self.read_queues[bank].is_empty()
                    {
                        // Read preemption fires on the next tick.
                        return None;
                    }
                }
                None => {
                    if !self.read_queues[bank].is_empty() {
                        // An idle bank with reads always installs one.
                        return None;
                    }
                }
            }
        }
        if let Some(front) = self.write_queue.front() {
            let bank = self.core.global_bank(front.loc);
            if self.core.ongoing(bank).is_none() {
                // Only the front write ever escalates, and only once its
                // target bank is idle — idleness is static mid-stretch.
                let esc_at = front.arrival + self.core.cfg().watchdog.escalate_age;
                if esc_at <= t {
                    return None;
                }
                event = event.min(esc_at);
            }
            if (draining || self.core.reads_outstanding() == 0)
                && self
                    .write_queue
                    .iter()
                    .any(|w| self.core.ongoing(self.core.global_bank(w.loc)).is_none())
            {
                // Drain mode installs any write whose bank is idle.
                return None;
            }
        }
        Some(event)
    }

    fn enqueue_may_advance_horizon(&self, _access: &Access) -> bool {
        // Conservative: an arriving read can trigger preemption or land on
        // an idle bank, and an arriving write changes the escalation front
        // (see `next_busy_event`), so every enqueue invalidates a computed
        // horizon.
        true
    }

    fn advance_blocked(&mut self, from: Cycle, n: u64) {
        self.core.advance_blocked(from, n);
    }

    fn save_state(&self, w: &mut burst_snap::SnapWriter) -> Result<(), burst_snap::SnapError> {
        let Self {
            core,
            read_queues,
            write_queue,
            read_preemption,
            draining,
            scratch: _, // per-tick candidate scratch buffer, cleared before each use
        } = self;
        core.save_snap(w);
        super::save_queue_set(read_queues, w);
        w.usize(write_queue.len());
        for a in write_queue {
            a.save_snap(w);
        }
        w.bool(*read_preemption);
        w.bool(*draining);
        Ok(())
    }

    fn load_state(&mut self, r: &mut burst_snap::SnapReader) -> Result<(), burst_snap::SnapError> {
        let Self {
            core,
            read_queues,
            write_queue,
            read_preemption,
            draining,
            scratch: _, // per-tick candidate scratch buffer, cleared before each use
        } = self;
        core.load_snap(r)?;
        super::load_queue_set(read_queues, r)?;
        let n = r.seq_len(24)?;
        write_queue.clear();
        for _ in 0..n {
            write_queue.push_back(Access::load_snap(r)?);
        }
        if r.bool()? != *read_preemption {
            return Err(burst_snap::SnapError::Corrupt("variant mismatch"));
        }
        *draining = r.bool()?;
        Ok(())
    }
}
