//! Adaptive history-based scheduling (Hur & Lin, MICRO 2004) — one of the
//! related-work mechanisms the paper discusses (Section 2.2): "tracks the
//! access pattern of recently scheduled accesses and selects memory
//! accesses matching the program's mixture of reads and writes."
//!
//! This simplified implementation keeps per-bank read and write queues and
//! an exponentially weighted history of the *arriving* read/write mix; each
//! bank arbiter then schedules whichever kind its *issued* mix lags behind,
//! preferring row hits within the chosen kind. Provided as an extension
//! baseline beyond the paper's Table 4.

use std::collections::VecDeque;

use super::{oldest_row_hit, Policy};
use crate::bankset::BankSet;
use crate::engine::{Candidate, Core, Slot};
use crate::txsched::select_intel_limited;
use crate::{Access, AccessKind, Completion, EnqueueOutcome, Mechanism};
use burst_dram::{Cycle, Dram};

/// The adaptive history-based policy.
///
/// # Examples
///
/// ```
/// use burst_core::{CtrlConfig, Mechanism};
/// use burst_dram::Geometry;
///
/// let sched = Mechanism::AdaptiveHistory.build(CtrlConfig::default(), Geometry::baseline());
/// assert_eq!(sched.mechanism(), Mechanism::AdaptiveHistory);
/// ```
#[derive(Debug)]
pub(crate) struct AdaptiveHistoryScheduler {
    read_queues: Vec<VecDeque<Access>>,
    write_queues: Vec<VecDeque<Access>>,
    /// The banks with a queued read or write (derived state, absent from
    /// checkpoints).
    queued: BankSet,
    /// EWMA of the arriving read share, in 1/1024 units.
    arrival_read_share: u32,
    /// Reads and writes issued (made ongoing) so far in the current
    /// balancing window.
    issued_reads: u64,
    issued_writes: u64,
}

impl AdaptiveHistoryScheduler {
    /// The policy for a controller with `core`'s geometry.
    pub(crate) fn new(core: &Core) -> Self {
        let nbanks = core.bank_count();
        AdaptiveHistoryScheduler {
            read_queues: vec![VecDeque::new(); nbanks],
            write_queues: vec![VecDeque::new(); nbanks],
            queued: BankSet::new(nbanks),
            arrival_read_share: 768, // start read-leaning (3/4)
            issued_reads: 0,
            issued_writes: 0,
        }
    }

    /// Re-derives whether `bank` holds queued work after a pop.
    fn note_pop(&mut self, bank: usize) {
        let work = !self.read_queues[bank].is_empty() || !self.write_queues[bank].is_empty();
        self.queued.set(bank, work);
    }

    fn note_history(&mut self, kind: AccessKind) {
        // EWMA with a 1/64 step.
        let sample: u32 = if kind.is_read() { 1024 } else { 0 };
        self.arrival_read_share = (self.arrival_read_share * 63 + sample) / 64;
    }

    /// Whether the issued mix lags the arrival mix on the read side.
    ///
    /// Exact integer form of `issued_reads / issued <= share / 1024`:
    /// cross-multiplying by the positive denominators gives
    /// `issued_reads * 1024 <= share * issued`, which cannot overflow
    /// u128 and has no rounding at all. The former f64 comparison agreed
    /// with this for every reachable operand (the gap between distinct
    /// rationals with denominators this small dwarfs f64 quotient
    /// rounding), so behaviour is unchanged — the proof is just local now.
    fn wants_read(&self) -> bool {
        let issued = self.issued_reads + self.issued_writes;
        if issued == 0 {
            return true;
        }
        u128::from(self.issued_reads) * 1024
            <= u128::from(self.arrival_read_share) * u128::from(issued)
    }

    /// Picks the oldest row-hit access of `queue` against the open row,
    /// else the oldest.
    fn pick(queue: &mut VecDeque<Access>, open_row: Option<u32>) -> Option<Access> {
        if queue.is_empty() {
            return None;
        }
        let idx = open_row
            .and_then(|row| oldest_row_hit(queue, row, usize::MAX))
            .unwrap_or(0);
        queue.remove(idx)
    }
}

impl Policy for AdaptiveHistoryScheduler {
    /// Transaction-selection lookahead, matching the other conventional
    /// schedulers' limited scheduling logic.
    const LOOKAHEAD: usize = 3;

    fn mechanism(&self) -> Mechanism {
        Mechanism::AdaptiveHistory
    }

    fn enqueue(
        &mut self,
        core: &mut Core,
        access: Access,
        now: Cycle,
        completions: &mut Vec<Completion>,
    ) -> EnqueueOutcome {
        let bank_idx = core.global_bank(access.loc);
        self.note_history(access.kind);
        match access.kind {
            AccessKind::Read => {
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
                self.read_queues[bank_idx].push_back(access);
            }
            AccessKind::Write => {
                core.note_arrival(&access);
                self.write_queues[bank_idx].push_back(access);
            }
        }
        self.queued.insert(bank_idx);
        EnqueueOutcome::Queued
    }

    fn requeue(&mut self, core: &Core, access: Access) {
        let bank = core.global_bank(access.loc);
        self.queued.insert(bank);
        match access.kind {
            AccessKind::Read => self.read_queues[bank].push_front(access),
            AccessKind::Write => self.write_queues[bank].push_front(access),
        }
    }

    /// `pick` installs whenever either queue of an idle bank is non-empty
    /// (history only steers which kind goes first), and the arbiter does
    /// nothing otherwise.
    fn acting_word(&self, core: &Core, w: usize, _now: Cycle) -> u64 {
        self.queued.word(w) & core.idle_word(w)
    }

    fn arbitrate_bank(&mut self, core: &mut Core, slot: Slot, dram: &Dram, now: Cycle) {
        let bank_idx = slot.bank();
        let Slot::Vacant(slot) = slot else {
            return;
        };
        // A saturated write queue overrides history matching.
        let full = core.writes_outstanding() >= core.cfg().write_capacity;
        let prefer_read = !full && self.wants_read();
        let reads = &mut self.read_queues[bank_idx];
        let writes = &mut self.write_queues[bank_idx];
        // Starvation watchdog: an access past the escalation age overrides
        // history matching and row-hit preference — serve it oldest-first.
        let escalate_age = core.cfg().watchdog.escalate_age;
        let oldest_read = reads.front().map(|a| (a.arrival, a.kind));
        let oldest_write = writes.front().map(|a| (a.arrival, a.kind));
        let escalated = [oldest_read, oldest_write]
            .into_iter()
            .flatten()
            .min()
            .filter(|&(arrival, _)| now.saturating_sub(arrival) >= escalate_age);
        let access = match escalated {
            Some((_, AccessKind::Read)) => reads.pop_front(),
            Some((_, AccessKind::Write)) => writes.pop_front(),
            None => {
                let open_row = core.open_row(dram, bank_idx);
                let (first, second) = if prefer_read {
                    (reads, writes)
                } else {
                    (writes, reads)
                };
                Self::pick(first, open_row).or_else(|| Self::pick(second, open_row))
            }
        };
        let Some(access) = access else {
            return;
        };
        self.note_pop(bank_idx);
        match access.kind {
            AccessKind::Read => self.issued_reads += 1,
            AccessKind::Write => self.issued_writes += 1,
        }
        // Keep the balancing window short so phase changes register; an
        // escalation leaves it as it is.
        if escalated.is_none() && self.issued_reads + self.issued_writes >= 256 {
            self.issued_reads /= 2;
            self.issued_writes /= 2;
        }
        core.install(slot, access);
    }

    fn select(&mut self, _core: &Core, _channel: usize, cands: &[Candidate]) -> Option<Candidate> {
        select_intel_limited(cands, Self::LOOKAHEAD)
    }

    fn busy_event(&self, core: &Core, _dram: &Dram, last: Cycle, event: Cycle) -> Option<Cycle> {
        // An idle bank with any work makes the next tick a real one (see
        // `acting_word`). With every work-holding bank busy, escalation is
        // unreachable and the history counters are untouched.
        let idle_with_work =
            (0..self.queued.words()).any(|w| self.acting_word(core, w, last + 1) != 0);
        (!idle_with_work).then_some(event)
    }

    fn advance_quiescent(&mut self, _core: &Core, _from: Cycle, _n: u64) {}

    fn save_snap(&self, w: &mut burst_snap::SnapWriter) {
        let Self {
            read_queues,
            write_queues,
            queued: _, // derived from the queues; restore rebuilds it
            arrival_read_share,
            issued_reads,
            issued_writes,
        } = self;
        super::save_queue_set(read_queues, w);
        super::save_queue_set(write_queues, w);
        w.u32(*arrival_read_share);
        w.u64(*issued_reads);
        w.u64(*issued_writes);
    }

    fn load_snap(
        &mut self,
        _core: &Core,
        r: &mut burst_snap::SnapReader,
    ) -> Result<(), burst_snap::SnapError> {
        let Self {
            read_queues,
            write_queues,
            queued: _, // derived; `forget_derived` rebuilds it
            arrival_read_share,
            issued_reads,
            issued_writes,
        } = self;
        super::load_queue_set(read_queues, r)?;
        super::load_queue_set(write_queues, r)?;
        *arrival_read_share = r.u32()?;
        *issued_reads = r.u64()?;
        *issued_writes = r.u64()?;
        self.forget_derived();
        Ok(())
    }

    fn forget_derived(&mut self) {
        for bank in 0..self.read_queues.len() {
            self.note_pop(bank);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanisms::{AccessScheduler, Controller};
    use crate::{AccessId, CtrlConfig};
    use burst_dram::{AddressMapping, DramConfig, Loc, PhysAddr};

    fn setup() -> (Controller<AdaptiveHistoryScheduler>, Dram) {
        let cfg = DramConfig::baseline();
        (
            Controller::new(
                CtrlConfig::default(),
                cfg.geometry,
                AdaptiveHistoryScheduler::new,
            ),
            Dram::new(cfg, AddressMapping::PageInterleaving),
        )
    }

    fn access(id: u64, kind: AccessKind, bank: u8, row: u32) -> Access {
        Access::new(
            AccessId::new(id),
            kind,
            PhysAddr::new(id * 64),
            Loc::new(0, 0, bank, row, 0),
            0,
        )
    }

    #[test]
    fn history_tracks_arrival_mix() {
        let (mut s, _d) = setup();
        let mut done = Vec::new();
        for i in 0..200u64 {
            let kind = if i % 2 == 0 {
                AccessKind::Read
            } else {
                AccessKind::Write
            };
            if s.can_accept(kind) {
                s.enqueue(access(i, kind, (i % 4) as u8, (i % 8) as u32), 0, &mut done);
            }
        }
        // In 1/1024 units: between 0.3 and 0.7.
        let share = s.policy.arrival_read_share;
        assert!(
            (307..717).contains(&share),
            "50/50 arrivals -> share {share}/1024"
        );
    }

    #[test]
    fn write_heavy_history_schedules_writes_promptly() {
        let (mut s, mut dram) = setup();
        let mut done = Vec::new();
        // 80% writes.
        for i in 0..100u64 {
            let kind = if i % 5 == 0 {
                AccessKind::Read
            } else {
                AccessKind::Write
            };
            if s.can_accept(kind) {
                s.enqueue(access(i, kind, (i % 4) as u8, (i % 4) as u32), 0, &mut done);
            }
        }
        for now in 0..20_000 {
            s.tick(&mut dram, now, &mut done);
            if s.outstanding().total() == 0 {
                break;
            }
        }
        assert_eq!(s.outstanding().total(), 0, "drains a write-heavy mix");
        // Writes were not starved: write latency stays within an order of
        // magnitude of read latency.
        let st = s.stats();
        assert!(
            st.avg_write_latency() < st.avg_read_latency() * 20.0 + 1000.0,
            "writes starved: {} vs {}",
            st.avg_write_latency(),
            st.avg_read_latency()
        );
    }

    #[test]
    fn completes_mixed_stream_exactly_once() {
        let (mut s, mut dram) = setup();
        let mut done = Vec::new();
        let mut queued = 0;
        for i in 0..150u64 {
            let kind = if i % 3 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            if s.can_accept(kind)
                && s.enqueue(
                    access(i, kind, (i % 8) as u8, (i % 16) as u32),
                    0,
                    &mut done,
                ) == EnqueueOutcome::Queued
            {
                queued += 1;
            }
        }
        let forwarded = done.len();
        for now in 0..100_000 {
            s.tick(&mut dram, now, &mut done);
            if s.outstanding().total() == 0 {
                break;
            }
        }
        assert_eq!(done.len(), queued + forwarded);
    }
}
