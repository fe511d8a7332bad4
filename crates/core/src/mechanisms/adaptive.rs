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

use crate::engine::{Candidate, Core};
use crate::txsched::select_intel_limited;
use crate::{
    Access, AccessKind, AccessScheduler, Completion, CtrlConfig, CtrlStats, EnqueueOutcome,
    Mechanism, Outstanding,
};
use burst_dram::{Cycle, Dram, Geometry};

/// Transaction-selection lookahead, matching the other conventional
/// schedulers' limited scheduling logic.
const LOOKAHEAD: usize = 3;

/// The adaptive history-based scheduler.
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
pub struct AdaptiveHistoryScheduler {
    core: Core,
    read_queues: Vec<VecDeque<Access>>,
    write_queues: Vec<VecDeque<Access>>,
    /// EWMA of the arriving read share, in 1/1024 units.
    arrival_read_share: u32,
    /// Reads and writes issued (made ongoing) so far in the current
    /// balancing window.
    issued_reads: u64,
    issued_writes: u64,
    scratch: Vec<Candidate>,
}

impl AdaptiveHistoryScheduler {
    /// Creates the scheduler for a device of the given geometry.
    pub fn new(cfg: CtrlConfig, geom: Geometry) -> Self {
        let core = Core::new(cfg, geom);
        let nbanks = core.bank_count();
        AdaptiveHistoryScheduler {
            core,
            read_queues: vec![VecDeque::new(); nbanks],
            write_queues: vec![VecDeque::new(); nbanks],
            arrival_read_share: 768, // start read-leaning (3/4)
            issued_reads: 0,
            issued_writes: 0,
            scratch: Vec::new(),
        }
    }

    /// The read share the history currently targets, in `[0, 1]`.
    /// Report-only: scheduling decisions use the integer form in
    /// [`Self::wants_read`].
    #[expect(
        clippy::disallowed_types,
        clippy::float_arithmetic,
        reason = "report-only accessor, never feeds scheduling"
    )]
    pub fn target_read_share(&self) -> f64 {
        f64::from(self.arrival_read_share) / 1024.0
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
            .and_then(|row| {
                queue
                    .iter()
                    .enumerate()
                    .filter(|(_, a)| a.loc.row == row)
                    .min_by_key(|(_, a)| a.id)
                    .map(|(i, _)| i)
            })
            .unwrap_or(0);
        queue.remove(idx)
    }

    fn arbiter(&mut self, bank_idx: usize, dram: &Dram, now: Cycle) {
        if self.core.ongoing(bank_idx).is_some() {
            return;
        }
        let (ch, rank, bk) = self.core.bank_coords(bank_idx);
        let open_row = dram.channel(usize::from(ch)).bank(rank, bk).open_row();
        // Starvation watchdog: an access past the escalation age overrides
        // history matching and row-hit preference — serve it oldest-first.
        let escalate_age = self.core.cfg().watchdog.escalate_age;
        let oldest_read = self.read_queues[bank_idx]
            .front()
            .map(|a| (a.arrival, a.kind));
        let oldest_write = self.write_queues[bank_idx]
            .front()
            .map(|a| (a.arrival, a.kind));
        if let Some((arrival, kind)) = [oldest_read, oldest_write].into_iter().flatten().min() {
            if now.saturating_sub(arrival) >= escalate_age {
                let access = match kind {
                    AccessKind::Read => self.read_queues[bank_idx].pop_front(),
                    AccessKind::Write => self.write_queues[bank_idx].pop_front(),
                }
                .expect("front exists");
                match access.kind {
                    AccessKind::Read => self.issued_reads += 1,
                    AccessKind::Write => self.issued_writes += 1,
                }
                self.core
                    .set_ongoing(bank_idx, access)
                    .expect("bank verified idle before escalation");
                return;
            }
        }
        // A saturated write queue overrides history matching.
        let full = self.core.writes_outstanding() >= self.core.cfg().write_capacity;
        let prefer_read = !full && self.wants_read();
        let (first, second) = if prefer_read {
            (
                &mut self.read_queues[bank_idx],
                &mut self.write_queues[bank_idx],
            )
        } else {
            (
                &mut self.write_queues[bank_idx],
                &mut self.read_queues[bank_idx],
            )
        };
        let access = Self::pick(first, open_row).or_else(|| Self::pick(second, open_row));
        if let Some(access) = access {
            match access.kind {
                AccessKind::Read => self.issued_reads += 1,
                AccessKind::Write => self.issued_writes += 1,
            }
            // Keep the balancing window short so phase changes register.
            if self.issued_reads + self.issued_writes >= 256 {
                self.issued_reads /= 2;
                self.issued_writes /= 2;
            }
            self.core
                .set_ongoing(bank_idx, access)
                .expect("bank verified idle at arbiter entry");
        }
    }
}

impl AccessScheduler for AdaptiveHistoryScheduler {
    fn mechanism(&self) -> Mechanism {
        Mechanism::AdaptiveHistory
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
        self.note_history(access.kind);
        match access.kind {
            AccessKind::Read => {
                let hit = self.write_queues[bank_idx]
                    .iter()
                    .any(|w| w.addr == access.addr)
                    || self
                        .core
                        .ongoing(bank_idx)
                        .map(|o| o.access.kind == AccessKind::Write && o.access.addr == access.addr)
                        .unwrap_or(false);
                if hit {
                    self.core.note_forward(&access, now, completions);
                    return EnqueueOutcome::Forwarded;
                }
                self.core.note_arrival(&access);
                self.read_queues[bank_idx].push_back(access);
            }
            AccessKind::Write => {
                self.core.note_arrival(&access);
                self.write_queues[bank_idx].push_back(access);
            }
        }
        EnqueueOutcome::Queued
    }

    fn tick(&mut self, dram: &mut Dram, now: Cycle, completions: &mut Vec<Completion>) {
        dram.tick(now);
        self.core.sample();
        self.core.watchdog_tick(now);
        for access in self.core.take_retries() {
            let bank = self.core.global_bank(access.loc);
            match access.kind {
                AccessKind::Read => self.read_queues[bank].push_front(access),
                AccessKind::Write => self.write_queues[bank].push_front(access),
            }
        }
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

    fn quiescent(&self) -> bool {
        self.core.quiescent()
    }

    fn advance_quiescent(&mut self, from: Cycle, n: u64) {
        self.core.advance_quiescent(from, n);
    }

    fn next_busy_event(&self, dram: &Dram, last: Cycle) -> Option<Cycle> {
        // `pick` installs whenever either queue of an idle bank is
        // non-empty (history only steers which kind goes first), so an
        // idle bank with any work makes the next tick a real one. With
        // every work-holding bank busy, escalation is unreachable and the
        // history counters are untouched.
        for bank in 0..self.core.bank_count() {
            if self.core.ongoing(bank).is_none()
                && (!self.read_queues[bank].is_empty() || !self.write_queues[bank].is_empty())
            {
                return None;
            }
        }
        self.core.busy_event_base(dram, last)
    }

    fn enqueue_may_advance_horizon(&self, _access: &Access) -> bool {
        // Conservative: any arrival may land on an idle bank and turn the
        // next tick into a real one (see `next_busy_event`), so every
        // enqueue invalidates a computed horizon.
        true
    }

    fn advance_blocked(&mut self, from: Cycle, n: u64) {
        self.core.advance_blocked(from, n);
    }

    fn save_state(&self, w: &mut burst_snap::SnapWriter) -> Result<(), burst_snap::SnapError> {
        let Self {
            core,
            read_queues,
            write_queues,
            arrival_read_share,
            issued_reads,
            issued_writes,
            scratch: _, // per-tick candidate scratch buffer, cleared before each use
        } = self;
        core.save_snap(w);
        super::save_queue_set(read_queues, w);
        super::save_queue_set(write_queues, w);
        w.u32(*arrival_read_share);
        w.u64(*issued_reads);
        w.u64(*issued_writes);
        Ok(())
    }

    fn load_state(&mut self, r: &mut burst_snap::SnapReader) -> Result<(), burst_snap::SnapError> {
        let Self {
            core,
            read_queues,
            write_queues,
            arrival_read_share,
            issued_reads,
            issued_writes,
            scratch: _, // per-tick candidate scratch buffer, cleared before each use
        } = self;
        core.load_snap(r)?;
        super::load_queue_set(read_queues, r)?;
        super::load_queue_set(write_queues, r)?;
        *arrival_read_share = r.u32()?;
        *issued_reads = r.u64()?;
        *issued_writes = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AccessId;
    use burst_dram::{AddressMapping, DramConfig, Loc, PhysAddr};

    fn setup() -> (AdaptiveHistoryScheduler, Dram) {
        let cfg = DramConfig::baseline();
        (
            AdaptiveHistoryScheduler::new(CtrlConfig::default(), cfg.geometry),
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
        let share = s.target_read_share();
        assert!(
            (0.3..0.7).contains(&share),
            "50/50 arrivals -> share {share:.2}"
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
