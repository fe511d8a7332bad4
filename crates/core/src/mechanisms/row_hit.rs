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
use crate::engine::{Candidate, Core};
use crate::txsched::select_round_robin_limited;
use crate::{Access, Completion, EnqueueOutcome, Mechanism};
use burst_dram::{Cycle, Dram};

/// Banks the controller can examine per cycle; a blocked pick wastes the
/// cycle (the paper's "best effort" bubble cycles).
const LOOKAHEAD: usize = 16;

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
            rr: (0..nch).map(|c| c * nbanks / nch).collect(),
        }
    }

    /// Selects the bank's next ongoing access: oldest row hit against the
    /// open row within the window, else the oldest access. Same-row
    /// accesses keep arrival order, so same-address hazards cannot reorder.
    /// A front (oldest) access past the watchdog's escalation age bypasses
    /// the row-hit preference entirely.
    fn arbiter(&mut self, core: &mut Core, bank_idx: usize, dram: &Dram, now: Cycle) {
        let queue = &mut self.queues[bank_idx];
        let Some(front) = queue.front() else {
            return;
        };
        if core.ongoing(bank_idx).is_some() {
            return;
        }
        let front_escalated = now.saturating_sub(front.arrival) >= core.cfg().watchdog.escalate_age;
        let idx = if front_escalated {
            0
        } else {
            core.open_row(dram, bank_idx)
                .and_then(|row| oldest_row_hit(queue, row, self.window))
                .unwrap_or(0)
        };
        let access = queue.remove(idx).expect("index in range");
        core.set_ongoing(bank_idx, access)
            .expect("bank verified idle at arbiter entry");
    }
}

impl Policy for RowHitScheduler {
    const INCLUDE_BLOCKED: bool = true;

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
        self.queues[core.global_bank(access.loc)].push_back(access);
        EnqueueOutcome::Queued
    }

    fn requeue(&mut self, core: &Core, access: Access) {
        // A retry is its bank's oldest access, so intra-bank order holds.
        self.queues[core.global_bank(access.loc)].push_front(access);
    }

    fn arbitrate(&mut self, core: &mut Core, dram: &Dram, channel: usize, now: Cycle) {
        for bank in core.bank_range(channel) {
            self.arbiter(core, bank, dram, now);
        }
    }

    fn select(&mut self, core: &Core, channel: usize, cands: &[Candidate]) -> Option<Candidate> {
        let range = core.bank_range(channel);
        select_round_robin_limited(cands, &mut self.rr[channel], range, LOOKAHEAD)
    }

    fn busy_event(&self, core: &Core, _dram: &Dram, _last: Cycle, event: Cycle) -> Option<Cycle> {
        // The arbiter installs whenever a bank is idle with a non-empty
        // queue (the window only changes *which* access, not *whether* one
        // installs), so such a tick is never a no-op. Otherwise only SDRAM
        // timing (or the watchdog) can change a tick's outcome.
        let idle_with_work = self
            .queues
            .iter()
            .enumerate()
            .any(|(bank, q)| !q.is_empty() && core.ongoing(bank).is_none());
        (!idle_with_work).then_some(event)
    }

    fn advance_quiescent(&mut self, _core: &Core, _from: Cycle, _n: u64) {}

    fn save_snap(&self, w: &mut burst_snap::SnapWriter) {
        let Self {
            window: _, // construction input, fixed by the mechanism
            queues,
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
            rr,
        } = self;
        super::load_queue_set(queues, r)?;
        super::load_cursors(rr, r)
    }
}
