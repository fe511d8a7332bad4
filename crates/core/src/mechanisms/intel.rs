//! Intel's patented out-of-order memory scheduling (US patent 7,127,574),
//! as described by the paper: unique read queues per bank and a single
//! write queue for all banks. Reads are prioritised over writes to minimise
//! read latency; once an access is started it receives the highest priority
//! so it finishes as quickly as possible, reducing the degree of
//! reordering. The `Intel_RP` variant (not in the patent) additionally lets
//! reads preempt ongoing writes.
//!
//! The single logical write queue is stored as one queue per bank, each
//! sorted by access id. Ids are handed out in increasing order and every
//! reinsertion keeps id order, so the union of the bank queues in id order
//! is exactly the global queue: its front is the least id over the bank
//! fronts, and a bank's oldest write is its own front.

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
    /// The global write queue, split by target bank; each sorted by id.
    write_queues: Vec<VecDeque<Access>>,
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
            write_queues: vec![VecDeque::new(); nbanks],
            read_preemption,
            draining: false,
            scratch: Vec::new(),
        }
    }

    /// Inserts a write into its bank's queue, keeping the queue sorted by
    /// id: a new write lands at the back, a preempted or retried one near
    /// the front.
    fn insert_write(&mut self, write: Access) {
        let queue = &mut self.write_queues[self.core.global_bank(write.loc)];
        let pos = queue.partition_point(|w| w.id < write.id);
        queue.insert(pos, write);
    }

    /// The front of the global write queue and its bank: the least id over
    /// the bank fronts.
    fn oldest_write(&self) -> Option<(usize, &Access)> {
        self.write_queues
            .iter()
            .enumerate()
            .filter_map(|(bank, q)| q.front().map(|w| (bank, w)))
            .min_by_key(|(_, w)| w.id)
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
                self.insert_write(write);
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
        // Starvation watchdog: the oldest write sits at the global queue
        // front (the least id over the bank fronts). Once it exceeds the
        // escalation age, drain it even while reads are outstanding —
        // without this a single write behind an endless read stream never
        // drains (the queue never fills, reads never reach zero). Only
        // the bank holding the global front escalates; the scan over bank
        // fronts runs only once this bank's front is old enough.
        let escalate_age = self.core.cfg().watchdog.escalate_age;
        if let Some(front) = self.write_queues[bank_idx].front() {
            if now.saturating_sub(front.arrival) >= escalate_age
                && self
                    .oldest_write()
                    .is_some_and(|(bank, _)| bank == bank_idx)
            {
                let write = self.write_queues[bank_idx]
                    .pop_front()
                    .expect("front exists");
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
            if let Some(write) = self.write_queues[bank_idx].pop_front() {
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
            AccessKind::Write => self.insert_write(access),
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
                // write's data. The same address decodes to the same bank,
                // so only this bank's writes can match.
                let queued_hit = self.write_queues[bank_idx]
                    .iter()
                    .any(|w| w.addr == access.addr);
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
                self.insert_write(access);
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
        if let Some((bank, front)) = self.oldest_write() {
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
                    .write_queues
                    .iter()
                    .enumerate()
                    .any(|(bank, q)| !q.is_empty() && self.core.ongoing(bank).is_none())
            {
                // Drain mode installs any write whose bank is idle.
                return None;
            }
        }
        Some(event)
    }

    fn advance_blocked(&mut self, from: Cycle, n: u64) {
        self.core.advance_blocked(from, n);
    }

    fn save_state(&self, w: &mut burst_snap::SnapWriter) -> Result<(), burst_snap::SnapError> {
        let Self {
            core,
            read_queues,
            write_queues,
            read_preemption,
            draining,
            scratch: _, // per-tick candidate scratch buffer, cleared before each use
        } = self;
        core.save_snap(w);
        super::save_queue_set(read_queues, w);
        // The global queue, merged back into id order.
        let mut writes: Vec<&Access> = write_queues.iter().flatten().collect();
        writes.sort_unstable_by_key(|a| a.id);
        w.usize(writes.len());
        for a in writes {
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
            write_queues,
            read_preemption,
            draining,
            scratch: _, // per-tick candidate scratch buffer, cleared before each use
        } = self;
        core.load_snap(r)?;
        super::load_queue_set(read_queues, r)?;
        let n = r.seq_len(24)?;
        write_queues.iter_mut().for_each(VecDeque::clear);
        let mut last = None;
        for _ in 0..n {
            let write = Access::load_snap(r)?;
            // Pushing to the back keeps each bank queue sorted only if the
            // global sequence ascends.
            if last.is_some_and(|id| write.id <= id) {
                return Err(burst_snap::SnapError::Corrupt("write queue out of order"));
            }
            last = Some(write.id);
            write_queues
                .get_mut(core.global_bank(write.loc))
                .ok_or(burst_snap::SnapError::Corrupt("write bank out of range"))?
                .push_back(write);
        }
        if r.bool()? != *read_preemption {
            return Err(burst_snap::SnapError::Corrupt("variant mismatch"));
        }
        *draining = r.bool()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessId, WatchdogConfig};
    use burst_dram::{AddressMapping, DramConfig, PhysAddr};
    use burst_snap::{SnapError, SnapReader, SnapWriter};

    fn setup(cfg: CtrlConfig, read_preemption: bool) -> (IntelScheduler, Dram) {
        let dram_cfg = DramConfig::baseline();
        (
            IntelScheduler::new(cfg, dram_cfg.geometry, read_preemption),
            Dram::new(dram_cfg, AddressMapping::PageInterleaving),
        )
    }

    /// An access to the `nth` cache line, in address order, that maps to
    /// global bank `bank`.
    fn access(
        s: &IntelScheduler,
        dram: &Dram,
        id: u64,
        kind: AccessKind,
        (bank, nth): (usize, usize),
        arrival: Cycle,
    ) -> Access {
        let addr = (0u64..)
            .map(|line| PhysAddr::new(line * 64))
            .filter(|&a| s.core.global_bank(dram.decode(a)) == bank)
            .nth(nth)
            .expect("every bank owns lines");
        Access::new(AccessId::new(id), kind, addr, dram.decode(addr), arrival)
    }

    fn ongoing_id(s: &IntelScheduler, bank: usize) -> Option<u64> {
        s.core.ongoing(bank).map(|og| og.access.id.value())
    }

    fn write_ids(s: &IntelScheduler, bank: usize) -> Vec<u64> {
        s.write_queues[bank].iter().map(|w| w.id.value()).collect()
    }

    #[test]
    fn read_forwards_only_from_a_queued_write_to_its_address() {
        let (mut s, dram) = setup(CtrlConfig::default(), false);
        let mut done = Vec::new();
        let write = access(&s, &dram, 0, AccessKind::Write, (6, 0), 0);
        assert_eq!(s.enqueue(write, 0, &mut done), EnqueueOutcome::Queued);
        let same = access(&s, &dram, 1, AccessKind::Read, (6, 0), 0);
        assert_eq!(s.enqueue(same, 0, &mut done), EnqueueOutcome::Forwarded);
        assert_eq!(done.len(), 1);
        assert!(done[0].forwarded && done[0].id == AccessId::new(1));
        // Same bank, different line: the read queues behind the write.
        let other = access(&s, &dram, 2, AccessKind::Read, (6, 1), 0);
        assert_eq!(s.enqueue(other, 0, &mut done), EnqueueOutcome::Queued);
        assert_eq!(done.len(), 1);
        assert_eq!(s.stats().forwards, 1);
    }

    #[test]
    fn drain_mode_installs_each_banks_oldest_write_over_its_reads() {
        for (write_capacity, want3, want5) in [(4, Some(1), Some(2)), (8, Some(0), None)] {
            let cfg = CtrlConfig {
                write_capacity,
                ..CtrlConfig::default()
            };
            let (mut s, mut dram) = setup(cfg, false);
            let mut done = Vec::new();
            let read = access(&s, &dram, 0, AccessKind::Read, (3, 0), 0);
            s.enqueue(read, 0, &mut done);
            for (id, bank, nth) in [(1, 3, 1), (2, 5, 0), (3, 3, 2), (4, 5, 1)] {
                let w = access(&s, &dram, id, AccessKind::Write, (bank, nth), 0);
                assert_eq!(s.enqueue(w, 0, &mut done), EnqueueOutcome::Queued);
            }
            s.tick(&mut dram, 0, &mut done);
            // A full buffer (4 of 4) drains; otherwise reads keep priority
            // and bank 5, with only writes, waits while a read is out.
            assert_eq!(s.draining, write_capacity == 4);
            assert_eq!(ongoing_id(&s, 3), want3, "capacity {write_capacity}");
            assert_eq!(ongoing_id(&s, 5), want5, "capacity {write_capacity}");
        }
    }

    #[test]
    fn only_the_globally_oldest_escalated_write_beats_reads() {
        let cfg = CtrlConfig {
            watchdog: WatchdogConfig {
                escalate_age: 50,
                ..WatchdogConfig::default()
            },
            ..CtrlConfig::default()
        };
        let (mut s, mut dram) = setup(cfg, false);
        let mut done = Vec::new();
        // Both writes are past the escalation age at cycle 100. The older
        // one targets bank 1, which arbitrates after bank 0.
        let older = access(&s, &dram, 0, AccessKind::Write, (1, 0), 0);
        let younger = access(&s, &dram, 1, AccessKind::Write, (0, 0), 0);
        let read0 = access(&s, &dram, 2, AccessKind::Read, (0, 1), 100);
        let read1 = access(&s, &dram, 3, AccessKind::Read, (1, 1), 100);
        for a in [older, younger, read0, read1] {
            assert_eq!(s.enqueue(a, 100, &mut done), EnqueueOutcome::Queued);
        }
        s.tick(&mut dram, 100, &mut done);
        assert_eq!(ongoing_id(&s, 1), Some(0), "oldest write escalates");
        assert_eq!(ongoing_id(&s, 0), Some(2), "younger write waits");
        assert_eq!(write_ids(&s, 0), vec![1]);
        assert_eq!(s.read_queues[1].len(), 1);
    }

    #[test]
    fn read_preemption_requeues_the_write_in_id_order() {
        let (mut s, mut dram) = setup(CtrlConfig::default(), true);
        let mut done = Vec::new();
        for id in 0..3 {
            let w = access(&s, &dram, id, AccessKind::Write, (0, id as usize), 0);
            s.enqueue(w, 0, &mut done);
        }
        // No reads outstanding: the bank takes its oldest write.
        s.tick(&mut dram, 0, &mut done);
        assert_eq!(ongoing_id(&s, 0), Some(0));
        assert_eq!(write_ids(&s, 0), vec![1, 2]);
        let read = access(&s, &dram, 3, AccessKind::Read, (0, 5), 1);
        assert_eq!(s.enqueue(read, 1, &mut done), EnqueueOutcome::Queued);
        s.tick(&mut dram, 1, &mut done);
        assert_eq!(ongoing_id(&s, 0), Some(3), "the read preempts the write");
        assert_eq!(write_ids(&s, 0), vec![0, 1, 2]);
        assert_eq!(s.stats().preemptions, 1);
    }

    #[test]
    fn no_busy_skip_while_draining_could_install_a_write() {
        let cfg = CtrlConfig {
            write_capacity: 4,
            ..CtrlConfig::default()
        };
        let (mut s, mut dram) = setup(cfg, false);
        let mut done = Vec::new();
        let read = access(&s, &dram, 0, AccessKind::Read, (0, 0), 0);
        s.enqueue(read, 0, &mut done);
        s.tick(&mut dram, 0, &mut done);
        assert_eq!(ongoing_id(&s, 0), Some(0));
        for id in 1..4 {
            let w = access(&s, &dram, id, AccessKind::Write, (2, id as usize), 1);
            s.enqueue(w, 1, &mut done);
        }
        // Below capacity with a read outstanding, idle bank 2 holds its
        // writes: the stretch until the read's next command is skippable.
        assert!(s.next_busy_event(&dram, 0).is_some());
        let w = access(&s, &dram, 4, AccessKind::Write, (2, 4), 1);
        s.enqueue(w, 1, &mut done);
        // At capacity the next tick drains into idle bank 2.
        assert_eq!(s.next_busy_event(&dram, 0), None);
    }

    /// A snapshot of `s` with `writes` as its write sequence.
    fn snapshot_with_writes(s: &IntelScheduler, writes: &[Access]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        s.core.save_snap(&mut w);
        super::super::save_queue_set(&s.read_queues, &mut w);
        w.usize(writes.len());
        for a in writes {
            a.save_snap(&mut w);
        }
        w.bool(s.read_preemption);
        w.bool(s.draining);
        w.into_bytes()
    }

    #[test]
    fn load_splits_the_write_sequence_by_bank_and_refuses_disorder() {
        let (s, dram) = setup(CtrlConfig::default(), false);
        let write = |id, bank, nth| access(&s, &dram, id, AccessKind::Write, (bank, nth), 0);
        let ok = snapshot_with_writes(&s, &[write(3, 4, 0), write(5, 7, 0), write(6, 4, 1)]);
        let (mut fresh, _) = setup(CtrlConfig::default(), false);
        fresh
            .load_state(&mut SnapReader::new(&ok))
            .expect("ascending ids load");
        assert_eq!(write_ids(&fresh, 4), vec![3, 6]);
        assert_eq!(write_ids(&fresh, 7), vec![5]);
        let mut again = SnapWriter::new();
        fresh.save_state(&mut again).expect("save");
        assert_eq!(again.into_bytes(), ok, "re-save merges back into id order");
        for ids in [[5, 3], [3, 3]] {
            let bad = snapshot_with_writes(&s, &[write(ids[0], 4, 0), write(ids[1], 7, 0)]);
            let (mut fresh, _) = setup(CtrlConfig::default(), false);
            assert_eq!(
                fresh.load_state(&mut SnapReader::new(&bad)),
                Err(SnapError::Corrupt("write queue out of order")),
                "{ids:?}"
            );
        }
        // A location outside the geometry maps to no bank queue.
        let mut stray = write(8, 4, 0);
        stray.loc.channel = 9;
        let bad = snapshot_with_writes(&s, &[stray]);
        let (mut fresh, _) = setup(CtrlConfig::default(), false);
        assert_eq!(
            fresh.load_state(&mut SnapReader::new(&bad)),
            Err(SnapError::Corrupt("write bank out of range"))
        );
    }
}
