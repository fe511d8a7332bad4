//! Bank-in-order scheduling — the paper's baseline (Table 3).
//!
//! Accesses within the same bank are scheduled in the same order as they
//! were issued; accesses from different banks are selected in a round robin
//! fashion. Transactions still interleave across banks (bank parallelism),
//! but no access ever bypasses an older access to the same bank.

use std::collections::VecDeque;

use crate::engine::{Candidate, Core};
use crate::txsched::select_round_robin_limited;
use crate::{
    Access, AccessKind, AccessScheduler, Completion, CtrlConfig, CtrlStats, EnqueueOutcome,
    Mechanism, Outstanding,
};
use burst_dram::{Cycle, Dram, Geometry};

/// Banks a conventional controller can examine per cycle before giving up
/// (limited scheduling logic; a blocked pick wastes the cycle).
const LOOKAHEAD: usize = 16;

/// The `BkInOrder` baseline scheduler.
///
/// # Examples
///
/// ```
/// use burst_core::{CtrlConfig, Mechanism};
/// use burst_dram::Geometry;
///
/// let sched = Mechanism::BkInOrder.build(CtrlConfig::default(), Geometry::baseline());
/// assert_eq!(sched.mechanism(), Mechanism::BkInOrder);
/// ```
#[derive(Debug)]
pub struct BkInOrderScheduler {
    core: Core,
    queues: Vec<VecDeque<Access>>,
    rr: Vec<usize>,
    scratch: Vec<Candidate>,
}

impl BkInOrderScheduler {
    /// Creates the baseline scheduler for a device of the given geometry.
    pub fn new(cfg: CtrlConfig, geom: Geometry) -> Self {
        let core = Core::new(cfg, geom);
        let nbanks = core.bank_count();
        let nch = core.channel_count();
        BkInOrderScheduler {
            core,
            queues: vec![VecDeque::new(); nbanks],
            rr: (0..nch).map(|c| c * nbanks / nch).collect(),
            scratch: Vec::new(),
        }
    }
}

impl AccessScheduler for BkInOrderScheduler {
    fn mechanism(&self) -> Mechanism {
        Mechanism::BkInOrder
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
        // Faulted accesses retry at the front: intra-bank order is
        // preserved because a retry is the bank's oldest access anyway.
        for access in self.core.take_retries() {
            let bank = self.core.global_bank(access.loc);
            self.queues[bank].push_front(access);
        }
        for channel in 0..self.core.channel_count() {
            // In order intra bank: each idle bank takes its queue head —
            // already oldest-first, so watchdog escalation needs no
            // intra-bank override here (candidates still carry the
            // escalated flag for the transaction scheduler).
            for bank in self.core.bank_range(channel) {
                if self.core.ongoing(bank).is_none() {
                    if let Some(access) = self.queues[bank].pop_front() {
                        self.core
                            .set_ongoing(bank, access)
                            .expect("bank verified idle before pop");
                    }
                }
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
        // An idle bank with queued work installs a new ongoing access on
        // the very next tick, so the stretch cannot be skipped.
        for (bank, q) in self.queues.iter().enumerate() {
            if !q.is_empty() && self.core.ongoing(bank).is_none() {
                return None;
            }
        }
        // Otherwise every arbiter is a no-op and only SDRAM timing (or the
        // watchdog) can change a tick's outcome.
        self.core.busy_event_base(dram, last)
    }

    fn enqueue_may_advance_horizon(&self, _access: &Access) -> bool {
        // Conservative: an arrival on an idle bank makes the next tick a
        // real one (see `next_busy_event`), so every enqueue invalidates
        // a computed horizon.
        true
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
