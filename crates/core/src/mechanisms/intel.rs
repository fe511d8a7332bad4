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
//! fronts, and a bank's oldest write is its own front. That front is
//! cached, and rescanned only when the bank holding it pops its front.

use std::collections::VecDeque;

use super::{oldest_row_hit, Policy};
use crate::bankset::BankSet;
use crate::engine::{Candidate, Core, Slot};
use crate::txsched::select_intel_limited;
use crate::{Access, AccessId, AccessKind, Completion, EnqueueOutcome, Mechanism};
use burst_dram::{Cycle, Dram};

/// How many oldest entries of a bank's read queue the row-hit search may
/// reorder across.
const REORDER_WINDOW: usize = 4;

/// The `Intel` / `Intel_RP` policy.
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
pub(crate) struct IntelScheduler {
    read_queues: Vec<VecDeque<Access>>,
    /// The global write queue, split by target bank; each sorted by id.
    write_queues: Vec<VecDeque<Access>>,
    /// The banks with queued reads, and with queued writes (derived state,
    /// absent from checkpoints).
    has_reads: BankSet,
    has_writes: BankSet,
    /// The id and bank of the global write queue's front, the least id
    /// over the bank fronts (derived state, absent from checkpoints). An
    /// insert merges into it; a pop rescans only if it took this front.
    oldest: Option<(AccessId, usize)>,
    read_preemption: bool,
    /// Write-buffer flush mode: `pre_tick` sets it at the start of every
    /// tick to whether the write buffer is full (outstanding writes at
    /// the write capacity), with no hysteresis. While draining, idle banks
    /// prefer writes over their reads.
    draining: bool,
}

impl IntelScheduler {
    /// The policy for a controller with `core`'s geometry;
    /// `read_preemption` selects the `Intel_RP` variant.
    pub(crate) fn new(core: &Core, read_preemption: bool) -> Self {
        let nbanks = core.bank_count();
        IntelScheduler {
            read_queues: vec![VecDeque::new(); nbanks],
            write_queues: vec![VecDeque::new(); nbanks],
            has_reads: BankSet::new(nbanks),
            has_writes: BankSet::new(nbanks),
            oldest: None,
            read_preemption,
            draining: false,
        }
    }

    /// Inserts a write into its bank's queue, keeping the queue sorted by
    /// id: a new write lands at the back, a preempted or retried one near
    /// the front.
    fn insert_write(&mut self, core: &Core, write: Access) {
        let bank = core.global_bank(write.loc);
        let queue = &mut self.write_queues[bank];
        let pos = queue.partition_point(|w| w.id < write.id);
        queue.insert(pos, write);
        self.has_writes.insert(bank);
        if self.oldest.is_none_or(|(id, _)| write.id < id) {
            self.oldest = Some((write.id, bank));
        }
    }

    /// Pops `bank`'s oldest write, keeping the derived state in step.
    fn pop_write(&mut self, bank: usize) -> Option<Access> {
        let write = self.write_queues[bank].pop_front()?;
        self.has_writes
            .set(bank, !self.write_queues[bank].is_empty());
        if self.oldest.is_some_and(|(_, b)| b == bank) {
            self.oldest = Self::scan_oldest(&self.write_queues);
        }
        Some(write)
    }

    /// The id and bank of the global write queue's front: the least id
    /// over the bank fronts, found by a scan.
    fn scan_oldest(write_queues: &[VecDeque<Access>]) -> Option<(AccessId, usize)> {
        write_queues
            .iter()
            .enumerate()
            .filter_map(|(bank, q)| q.front().map(|w| (w.id, bank)))
            .min()
    }

    /// The bank holding the global write queue's front once that write
    /// has reached the escalation age at `now`.
    fn escalating_bank(&self, core: &Core, now: Cycle) -> Option<usize> {
        let (_, bank) = self.oldest?;
        let front = self.write_queues[bank].front()?;
        (now.saturating_sub(front.arrival) >= core.cfg().watchdog.escalate_age).then_some(bank)
    }

    /// [`Policy::acting_word`] with the drain decision `draining`.
    fn acting(&self, core: &Core, w: usize, now: Cycle, draining: bool) -> u64 {
        let idle = core.idle_word(w);
        let mut acts = idle & self.has_reads.word(w);
        if draining || core.reads_outstanding() == 0 {
            acts |= idle & self.has_writes.word(w);
        }
        if self.read_preemption {
            acts |= core.writing_word(w) & self.has_reads.word(w);
        }
        match self.escalating_bank(core, now) {
            Some(bank) if bank >> 6 == w => acts | (idle & 1 << (bank & 63)),
            _ => acts,
        }
    }

    /// Row-hit read against the open row from the oldest
    /// [`REORDER_WINDOW`] queue entries, else the oldest read. The patent
    /// deliberately limits the degree of reordering so started accesses
    /// finish fast; an unbounded row-hit scan would overstate it. A front
    /// read past the watchdog's escalation age is always taken first,
    /// bypassing the row-hit preference.
    fn pick_read(
        &mut self,
        core: &Core,
        bank_idx: usize,
        dram: &Dram,
        now: Cycle,
    ) -> Option<Access> {
        let queue = &mut self.read_queues[bank_idx];
        let front = queue.front()?;
        let idx = if now.saturating_sub(front.arrival) >= core.cfg().watchdog.escalate_age {
            0
        } else {
            core.open_row(dram, bank_idx)
                .and_then(|row| oldest_row_hit(queue, row, REORDER_WINDOW))
                .unwrap_or(0)
        };
        let read = queue.remove(idx);
        self.has_reads.set(bank_idx, !queue.is_empty());
        read
    }
}

impl Policy for IntelScheduler {
    /// Accesses the scheduler can examine per cycle in priority order; if
    /// all are blocked the cycle bubbles (timing-naive "best effort"
    /// scheduling).
    const LOOKAHEAD: usize = 3;

    fn mechanism(&self) -> Mechanism {
        if self.read_preemption {
            Mechanism::IntelRp
        } else {
            Mechanism::Intel
        }
    }

    fn enqueue(
        &mut self,
        core: &mut Core,
        access: Access,
        now: Cycle,
        completions: &mut Vec<Completion>,
    ) -> EnqueueOutcome {
        let bank_idx = core.global_bank(access.loc);
        match access.kind {
            AccessKind::Read => {
                // Reads search the write queue; a hit forwards the latest
                // write's data.
                if core.forward_read(
                    bank_idx,
                    &self.write_queues[bank_idx],
                    &access,
                    now,
                    completions,
                ) {
                    return EnqueueOutcome::Forwarded;
                }
                core.note_arrival(&access);
                self.has_reads.insert(bank_idx);
                self.read_queues[bank_idx].push_back(access);
            }
            AccessKind::Write => {
                core.note_arrival(&access);
                self.insert_write(core, access);
            }
        }
        EnqueueOutcome::Queued
    }

    fn requeue(&mut self, core: &Core, access: Access) {
        match access.kind {
            AccessKind::Read => {
                let bank = core.global_bank(access.loc);
                self.has_reads.insert(bank);
                self.read_queues[bank].push_front(access);
            }
            // Age-sorted reinsertion puts the (old) retry near the front.
            AccessKind::Write => self.insert_write(core, access),
        }
    }

    // `draining` may go stale across a skip, but it is recomputed from live
    // occupancy here, before any use, so skipped ticks never observe it.
    fn pre_tick(&mut self, core: &Core, _now: Cycle) {
        // The paper's description: writes are selected when the write
        // queue is full (drain until just below capacity) or when no reads
        // are outstanding. This weak write management is what burst
        // scheduling's piggybacking improves on.
        self.draining = core.writes_outstanding() >= core.cfg().write_capacity;
    }

    /// Idle banks with reads install one. Idle banks with writes install
    /// one while the buffer flushes or no read is outstanding. The bank
    /// holding the global front write escalates it once it is aged, if
    /// idle. Intel_RP's banks whose ongoing write has reads queued behind
    /// it preempt. No other bank's arbiter acts.
    fn acting_word(&self, core: &Core, w: usize, now: Cycle) -> u64 {
        self.acting(core, w, now, self.draining)
    }

    fn arbitrate_bank(&mut self, core: &mut Core, slot: Slot, dram: &Dram, now: Cycle) {
        debug_assert_eq!(
            self.oldest,
            Self::scan_oldest(&self.write_queues),
            "cached write-queue front"
        );
        let bank_idx = slot.bank();
        let slot = match slot {
            Slot::Vacant(slot) => slot,
            // Intel_RP: a waiting read interrupts an ongoing write —
            // except during a forced write-buffer flush, where preempting
            // would keep the buffer saturated and stall the front side bus.
            Slot::Occupied(slot) => {
                if self.read_preemption && slot.access().kind == AccessKind::Write {
                    if let Some(read) = self.pick_read(core, bank_idx, dram, now) {
                        let write = core.preempt(slot, read);
                        self.insert_write(core, write);
                    }
                }
                return;
            }
        };
        // Starvation watchdog: the oldest write sits at the global queue
        // front. Once it exceeds the escalation age, drain it even while
        // reads are outstanding — without this a single write behind an
        // endless read stream never drains (the queue never fills, reads
        // never reach zero). Only the bank holding the global front
        // escalates, and its oldest write is that front.
        //
        // While the write buffer flushes, idle banks prefer writes so the
        // buffer empties in bursts. Reads keep priority in banks that have
        // them (outside drain mode), which is why Intel still accumulates
        // outstanding writes (paper Figure 8b) without saturating as often
        // as Burst.
        if self.escalating_bank(core, now) == Some(bank_idx)
            || self.draining
            || core.reads_outstanding() == 0
        {
            if let Some(write) = self.pop_write(bank_idx) {
                core.install(slot, write);
                return;
            }
        }
        if let Some(read) = self.pick_read(core, bank_idx, dram, now) {
            core.install(slot, read);
        }
    }

    fn select(&mut self, _core: &Core, _channel: usize, cands: &[Candidate]) -> Option<Candidate> {
        select_intel_limited(cands, Self::LOOKAHEAD)
    }

    fn busy_event(&self, core: &Core, _dram: &Dram, last: Cycle, event: Cycle) -> Option<Cycle> {
        let t = last + 1;
        // Recompute the drain decision exactly as the tick top does; the
        // occupancy it reads is static across a no-op stretch.
        let draining = core.writes_outstanding() >= core.cfg().write_capacity;
        if (0..self.has_reads.words()).any(|w| self.acting(core, w, t, draining) != 0) {
            return None;
        }
        // Nothing acts at `t`. Only the front write ever escalates, and
        // only once its bank is idle — idleness is static mid-stretch — so
        // its ageing is the one clock that can make a bank act later.
        match self.oldest {
            Some((_, bank)) if core.ongoing(bank).is_none() => {
                let front = &self.write_queues[bank][0];
                Some(event.min(front.arrival + core.cfg().watchdog.escalate_age))
            }
            _ => Some(event),
        }
    }

    fn advance_quiescent(&mut self, _core: &Core, _from: Cycle, _n: u64) {}

    fn save_snap(&self, w: &mut burst_snap::SnapWriter) {
        let Self {
            read_queues,
            write_queues,
            has_reads: _,  // derived from the queues; restore rebuilds it
            has_writes: _, // likewise
            oldest: _,     // likewise
            read_preemption,
            draining,
        } = self;
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
    }

    fn load_snap(
        &mut self,
        core: &Core,
        r: &mut burst_snap::SnapReader,
    ) -> Result<(), burst_snap::SnapError> {
        let Self {
            read_queues,
            write_queues,
            has_reads: _,  // derived; `forget_derived` rebuilds it
            has_writes: _, // likewise
            oldest: _,     // likewise
            read_preemption,
            draining,
        } = self;
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
        self.forget_derived();
        Ok(())
    }

    fn forget_derived(&mut self) {
        for (bank, (rq, wq)) in self.read_queues.iter().zip(&self.write_queues).enumerate() {
            self.has_reads.set(bank, !rq.is_empty());
            self.has_writes.set(bank, !wq.is_empty());
        }
        self.oldest = Self::scan_oldest(&self.write_queues);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanisms::{AccessScheduler, Controller};
    use crate::{AccessId, CtrlConfig, WatchdogConfig};
    use burst_dram::{AddressMapping, DramConfig, PhysAddr};
    use burst_snap::{SnapError, SnapReader, SnapWriter};

    type Intel = Controller<IntelScheduler>;

    fn setup(cfg: CtrlConfig, read_preemption: bool) -> (Intel, Dram) {
        let dram_cfg = DramConfig::baseline();
        (
            Controller::new(cfg, dram_cfg.geometry, |core| {
                IntelScheduler::new(core, read_preemption)
            }),
            Dram::new(dram_cfg, AddressMapping::PageInterleaving),
        )
    }

    /// An access to the `nth` cache line, in address order, that maps to
    /// global bank `bank`.
    fn access(
        s: &Intel,
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

    fn ongoing_id(s: &Intel, bank: usize) -> Option<u64> {
        s.core.ongoing(bank).map(|og| og.access.id.value())
    }

    fn write_ids(s: &Intel, bank: usize) -> Vec<u64> {
        s.policy.write_queues[bank]
            .iter()
            .map(|w| w.id.value())
            .collect()
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
            assert_eq!(s.policy.draining, write_capacity == 4);
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
        assert_eq!(s.policy.read_queues[1].len(), 1);
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
    fn snapshot_with_writes(s: &Intel, writes: &[Access]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        s.core.save_snap(&mut w);
        super::super::save_queue_set(&s.policy.read_queues, &mut w);
        w.usize(writes.len());
        for a in writes {
            a.save_snap(&mut w);
        }
        w.bool(s.policy.read_preemption);
        w.bool(s.policy.draining);
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
