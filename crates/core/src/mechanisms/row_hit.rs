//! Row-hit-first scheduling (Rixner et al., ISCA 2000) as simulated by the
//! paper: a unified access queue per bank; the oldest access directed to
//! the same row as the last access to that bank is selected first, else the
//! oldest access overall; banks are served round robin.
//!
//! Reads and writes are treated equally, which is why RowHit achieves the
//! lowest write latency of all mechanisms in Figure 7(b).

use std::collections::VecDeque;

use crate::engine::{Candidate, Core};
use crate::txsched::select_round_robin_limited;
use crate::{
    Access, AccessKind, AccessScheduler, Completion, CtrlConfig, CtrlStats, EnqueueOutcome,
    Mechanism, Outstanding,
};
use burst_dram::{Cycle, Dram, Geometry};

/// Banks the controller can examine per cycle; a blocked pick wastes the
/// cycle (the paper's "best effort" bubble cycles).
const LOOKAHEAD: usize = 16;

/// The `RowHit` scheduler.
///
/// # Examples
///
/// ```
/// use burst_core::{CtrlConfig, Mechanism};
/// use burst_dram::Geometry;
///
/// let sched = Mechanism::RowHit.build(CtrlConfig::default(), Geometry::baseline());
/// assert_eq!(sched.mechanism(), Mechanism::RowHit);
/// ```
#[derive(Debug)]
pub struct RowHitScheduler {
    core: Core,
    queues: Vec<VecDeque<Access>>,
    rr: Vec<usize>,
    scratch: Vec<Candidate>,
}

impl RowHitScheduler {
    /// Creates a row-hit-first scheduler for a device of the given geometry.
    pub fn new(cfg: CtrlConfig, geom: Geometry) -> Self {
        let core = Core::new(cfg, geom);
        let nbanks = core.bank_count();
        let nch = core.channel_count();
        RowHitScheduler {
            core,
            queues: vec![VecDeque::new(); nbanks],
            rr: (0..nch).map(|c| c * nbanks / nch).collect(),
            scratch: Vec::new(),
        }
    }

    /// Selects the bank's next ongoing access: oldest row hit against the
    /// open row, else the oldest access. Same-row accesses keep arrival
    /// order, so same-address hazards cannot reorder. A front (oldest)
    /// access past the watchdog's escalation age bypasses the row-hit
    /// preference entirely.
    fn arbiter(&mut self, bank_idx: usize, dram: &Dram, now: Cycle) {
        if self.core.ongoing(bank_idx).is_some() || self.queues[bank_idx].is_empty() {
            return;
        }
        let escalate_age = self.core.cfg().watchdog.escalate_age;
        let front_escalated = self.queues[bank_idx]
            .front()
            .map(|a| now.saturating_sub(a.arrival) >= escalate_age)
            .unwrap_or(false);
        let (ch, rank, bk) = self.core.bank_coords(bank_idx);
        let open_row = dram.channel(usize::from(ch)).bank(rank, bk).open_row();
        let queue = &mut self.queues[bank_idx];
        let idx = if front_escalated {
            0
        } else {
            open_row
                .and_then(|row| {
                    queue
                        .iter()
                        .enumerate()
                        .filter(|(_, a)| a.loc.row == row)
                        .min_by_key(|(_, a)| a.id)
                        .map(|(i, _)| i)
                })
                .unwrap_or(0)
        };
        let access = queue.remove(idx).expect("index in range");
        self.core
            .set_ongoing(bank_idx, access)
            .expect("bank verified idle at arbiter entry");
    }
}

impl AccessScheduler for RowHitScheduler {
    fn mechanism(&self) -> Mechanism {
        Mechanism::RowHit
    }

    fn can_accept(&self, kind: AccessKind) -> bool {
        self.core.can_accept(kind)
    }

    fn enqueue(
        &mut self,
        access: Access,
        _now: Cycle,
        _completions: &mut Vec<Completion>,
    ) -> EnqueueOutcome {
        if !self.can_accept(access.kind) {
            return EnqueueOutcome::Rejected;
        }
        self.core.note_arrival(&access);
        let bank = self.core.global_bank(access.loc);
        self.queues[bank].push_back(access);
        EnqueueOutcome::Queued
    }

    fn tick(&mut self, dram: &mut Dram, now: Cycle, completions: &mut Vec<Completion>) {
        dram.tick(now);
        self.core.sample();
        self.core.watchdog_tick(now);
        for access in self.core.take_retries() {
            let bank = self.core.global_bank(access.loc);
            self.queues[bank].push_front(access);
        }
        for channel in 0..self.core.channel_count() {
            for bank in self.core.bank_range(channel) {
                self.arbiter(bank, dram, now);
            }
            let mut cands = std::mem::take(&mut self.scratch);
            self.core
                .fill_all_candidates(dram, channel, now, &mut cands);
            let range = self.core.bank_range(channel);
            match select_round_robin_limited(&cands, &mut self.rr[channel], range, LOOKAHEAD) {
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
        // The arbiter installs whenever a bank is idle with a non-empty
        // queue (the row-hit preference only changes *which* access, not
        // *whether* one installs), so such a tick is never a no-op.
        for (bank, q) in self.queues.iter().enumerate() {
            if !q.is_empty() && self.core.ongoing(bank).is_none() {
                return None;
            }
        }
        self.core.busy_event_base(dram, last)
    }

    fn advance_blocked(&mut self, from: Cycle, n: u64) {
        self.core.advance_blocked(from, n);
    }

    fn save_state(&self, w: &mut burst_snap::SnapWriter) -> Result<(), burst_snap::SnapError> {
        let Self {
            core,
            queues,
            rr,
            scratch: _, // per-tick candidate scratch buffer, cleared before each use
        } = self;
        core.save_snap(w);
        super::save_queue_set(queues, w);
        super::save_cursors(rr, w);
        Ok(())
    }

    fn load_state(&mut self, r: &mut burst_snap::SnapReader) -> Result<(), burst_snap::SnapError> {
        let Self {
            core,
            queues,
            rr,
            scratch: _, // per-tick candidate scratch buffer, cleared before each use
        } = self;
        core.load_snap(r)?;
        super::load_queue_set(queues, r)?;
        super::load_cursors(rr, r)?;
        Ok(())
    }
}
