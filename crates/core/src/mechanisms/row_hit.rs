//! The two conventional baselines of the paper's Table 4, which differ only
//! in how far a bank arbiter may reorder its queue:
//!
//! - `BkInOrder` (the paper's baseline): accesses within the same bank are
//!   scheduled in the order they were issued. Transactions still interleave
//!   across banks (bank parallelism), but no access ever bypasses an older
//!   access to the same bank. This is a reorder window of 0.
//! - `RowHit` (Rixner et al., ISCA 2000): the oldest access directed to the
//!   same row as the last access to that bank is selected first, else the
//!   oldest access overall. This is an unbounded reorder window.
//!
//! Both keep a unified access queue per bank and serve banks round robin.
//! Reads and writes are treated equally, which is why RowHit achieves the
//! lowest write latency of all mechanisms in Figure 7(b).

use std::collections::VecDeque;

use super::{oldest_row_hit, Policy};
use crate::bankset::BankSet;
use crate::engine::{Candidate, Core, Slot};
use crate::txsched::select_round_robin_limited;
use crate::{Access, Completion, EnqueueOutcome, Mechanism};
use burst_dram::{Cycle, Dram};

/// The `BkInOrder` and `RowHit` policy.
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
pub(crate) struct RowHitScheduler {
    /// How many oldest queue entries the row-hit search may reorder
    /// across: 0 for `BkInOrder`, unbounded for `RowHit`.
    window: usize,
    queues: Vec<VecDeque<Access>>,
    /// The banks whose queue holds an access (derived state, absent from
    /// checkpoints).
    queued: BankSet,
    rr: Vec<usize>,
}

impl RowHitScheduler {
    /// The policy for a controller with `core`'s geometry and the given
    /// reorder window.
    pub(crate) fn new(core: &Core, window: usize) -> Self {
        let nbanks = core.bank_count();
        let nch = core.channel_count();
        RowHitScheduler {
            window,
            queues: vec![VecDeque::new(); nbanks],
            queued: BankSet::new(nbanks),
            rr: (0..nch).map(|c| c * nbanks / nch).collect(),
        }
    }
}

impl Policy for RowHitScheduler {
    /// Banks the controller can examine per cycle; a blocked pick wastes
    /// the cycle (the paper's "best effort" bubble cycles).
    const LOOKAHEAD: usize = 16;

    fn mechanism(&self) -> Mechanism {
        if self.window == 0 {
            Mechanism::BkInOrder
        } else {
            Mechanism::RowHit
        }
    }

    fn enqueue(
        &mut self,
        core: &mut Core,
        access: Access,
        _now: Cycle,
        _completions: &mut Vec<Completion>,
    ) -> EnqueueOutcome {
        core.note_arrival(&access);
        let bank = core.global_bank(access.loc);
        self.queued.insert(bank);
        self.queues[bank].push_back(access);
        EnqueueOutcome::Queued
    }

    fn requeue(&mut self, core: &Core, access: Access) {
        // A retry is its bank's oldest access, so intra-bank order holds.
        let bank = core.global_bank(access.loc);
        self.queued.insert(bank);
        self.queues[bank].push_front(access);
    }

    /// The arbiter installs whenever an idle bank has work, and does
    /// nothing otherwise.
    fn acting_word(&self, core: &Core, w: usize, _now: Cycle) -> u64 {
        self.queued.word(w) & core.idle_word(w)
    }

    /// Selects the bank's next ongoing access: oldest row hit against the
    /// open row within the window, else the oldest access. Same-row
    /// accesses keep arrival order, so same-address hazards cannot reorder.
    /// A front (oldest) access past the watchdog's escalation age bypasses
    /// the row-hit preference entirely.
    fn arbitrate_bank(&mut self, core: &mut Core, slot: Slot, dram: &Dram, now: Cycle) {
        let bank_idx = slot.bank();
        let Slot::Vacant(slot) = slot else {
            return;
        };
        let queue = &mut self.queues[bank_idx];
        let Some(front) = queue.front() else {
            return;
        };
        let front_escalated = now.saturating_sub(front.arrival) >= core.cfg().watchdog.escalate_age;
        let idx = if front_escalated {
            0
        } else {
            core.open_row(dram, bank_idx)
                .and_then(|row| oldest_row_hit(queue, row, self.window))
                .unwrap_or(0)
        };
        let Some(access) = queue.remove(idx) else {
            return;
        };
        self.queued.set(bank_idx, !queue.is_empty());
        core.install(slot, access);
    }

    fn select(&mut self, core: &Core, channel: usize, cands: &[Candidate]) -> Option<Candidate> {
        let range = core.bank_range(channel);
        select_round_robin_limited(cands, &mut self.rr[channel], range, Self::LOOKAHEAD)
    }

    fn busy_event(&self, core: &Core, _dram: &Dram, last: Cycle, event: Cycle) -> Option<Cycle> {
        // The arbiter installs whenever a bank is idle with a non-empty
        // queue (the window only changes *which* access, not *whether* one
        // installs), so such a tick is never a no-op. Otherwise only SDRAM
        // timing (or the watchdog) can change a tick's outcome.
        let idle_with_work =
            (0..self.queued.words()).any(|w| self.acting_word(core, w, last + 1) != 0);
        (!idle_with_work).then_some(event)
    }

    fn advance_quiescent(&mut self, _core: &Core, _from: Cycle, _n: u64) {}

    fn save_snap(&self, w: &mut burst_snap::SnapWriter) {
        let Self {
            window: _, // construction input, fixed by the mechanism
            queues,
            queued: _, // derived from the queues; restore rebuilds it
            rr,
        } = self;
        super::save_queue_set(queues, w);
        super::save_cursors(rr, w);
    }

    fn load_snap(
        &mut self,
        _core: &Core,
        r: &mut burst_snap::SnapReader,
    ) -> Result<(), burst_snap::SnapError> {
        let Self {
            window: _, // construction input, fixed by the mechanism
            queues,
            queued: _, // derived; `forget_derived` rebuilds it
            rr,
        } = self;
        super::load_queue_set(queues, r)?;
        super::load_cursors(rr, r)?;
        self.forget_derived();
        Ok(())
    }

    fn forget_derived(&mut self) {
        for (bank, q) in self.queues.iter().enumerate() {
            self.queued.set(bank, !q.is_empty());
        }
    }
}
