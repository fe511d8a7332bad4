//! Burst scheduling — the paper's proposed mechanism (Section 3).
//!
//! Outstanding reads are clustered into *bursts*: groups of accesses to the
//! same row of the same bank whose data transfers run back to back on the
//! data bus. Each bank's arbiter (Figure 5) selects the ongoing access,
//! prioritising reads, optionally letting reads *preempt* ongoing writes and
//! optionally *piggybacking* row-hit writes at the end of bursts — switched
//! dynamically by a static write-queue-occupancy threshold. The transaction
//! scheduler (Figure 6) issues one transaction per channel per cycle
//! following the static priority table (Table 2).

use std::collections::VecDeque;

use crate::engine::{Candidate, Core};
use crate::txsched::select_table2;
use crate::{
    Access, AccessKind, AccessScheduler, Completion, CtrlConfig, CtrlStats, EnqueueOutcome,
    Mechanism, Outstanding,
};
use burst_dram::{Cycle, Dram, Geometry};

/// Tuning knobs distinguishing the four burst variants of Table 4 plus the
/// dynamic-threshold extension from the paper's future work (Section 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstOptions {
    /// Read preemption is enabled while global write-queue occupancy is
    /// *below* this value. `0` disables preemption; the write-queue
    /// capacity enables it whenever the queue is not full (`Burst_RP`).
    pub preempt_below: u32,
    /// Write piggybacking is enabled while occupancy is *above* this value.
    /// `None` disables piggybacking; `Some(0)` always allows it
    /// (`Burst_WP`); `Some(t)` is the thresholded `Burst_TH`.
    pub piggyback_above: Option<u32>,
    /// Which Table 4 label these options implement (for reporting).
    pub mechanism: Mechanism,
    /// When set, the threshold is recomputed every this many cycles from
    /// the observed read/write arrival mix (Section 7: "a dynamical
    /// threshold, calculated on the fly based on ... read write ratios").
    /// Write-heavy phases lower the threshold (earlier piggybacking);
    /// read-heavy phases raise it (more preemption headroom).
    pub dynamic_period: Option<burst_dram::Cycle>,
    /// Intra-burst critical-first ordering (Section 7 future work):
    /// critical reads (demand loads with blocked dependants) are placed
    /// ahead of non-critical reads (store-allocate fills) *within* their
    /// burst. The burst's total time is unchanged; critical data returns
    /// sooner.
    pub critical_first: bool,
}

impl BurstOptions {
    /// Options for a static-threshold variant (the four Table 4 entries).
    pub fn static_threshold(
        preempt_below: u32,
        piggyback_above: Option<u32>,
        mechanism: Mechanism,
    ) -> Self {
        BurstOptions {
            preempt_below,
            piggyback_above,
            mechanism,
            dynamic_period: None,
            critical_first: false,
        }
    }
}

/// A burst: accesses to the same row of the same bank, served back to back.
///
/// Bursts within a bank are sorted by the arrival time of their first
/// access, preventing starvation of small bursts (Section 3).
#[derive(Debug, Clone)]
struct Burst {
    row: u32,
    accesses: VecDeque<Access>,
}

/// Per-bank queues: the read queue is a list of bursts; the write queue a
/// FIFO sharing the global pool.
#[derive(Debug, Clone, Default)]
struct BankQueues {
    bursts: VecDeque<Burst>,
    writes: VecDeque<Access>,
    /// True just after a burst's last access issued its column access while
    /// the row is still open — the moment write piggybacking may append
    /// qualified writes.
    at_burst_end: bool,
}

impl BankQueues {
    fn has_reads(&self) -> bool {
        self.bursts.iter().any(|b| !b.accesses.is_empty())
    }
}

/// The burst scheduling access reordering mechanism.
///
/// # Examples
///
/// ```
/// use burst_core::{Access, AccessId, AccessKind, AccessScheduler, CtrlConfig, Mechanism};
/// use burst_dram::{AddressMapping, Dram, DramConfig, PhysAddr};
///
/// let dram_cfg = DramConfig::baseline();
/// let mut dram = Dram::new(dram_cfg, AddressMapping::PageInterleaving);
/// let mut sched = Mechanism::BurstTh(52).build(CtrlConfig::default(), dram_cfg.geometry);
///
/// let addr = PhysAddr::new(0x1000);
/// let access = Access::new(AccessId::new(0), AccessKind::Read, addr, dram.decode(addr), 0);
/// let mut done = Vec::new();
/// sched.enqueue(access, 0, &mut done);
/// for now in 0..100 {
///     sched.tick(&mut dram, now, &mut done);
/// }
/// assert_eq!(done.len(), 1);
/// ```
#[derive(Debug)]
pub struct BurstScheduler {
    core: Core,
    banks: Vec<BankQueues>,
    opts: BurstOptions,
    /// Read/write arrivals in the current adaptation window (dynamic
    /// threshold only).
    window_reads: u64,
    window_writes: u64,
    next_adapt: burst_dram::Cycle,
    /// Bank-arbiter attention bitmap, one bit per global bank: set iff the
    /// arbiter could possibly change the bank's state — the slot is free
    /// and work is queued, or an ongoing write has reads behind it
    /// (preemption). Every global condition the arbiter consults (queue
    /// saturation, no-reads-anywhere, piggyback qualification, escalation
    /// age) still requires that local precondition, so a clear bit proves
    /// the arbiter call is a no-op and the per-cycle loop skips it.
    /// Derived state: rebuilt wholesale after a checkpoint restore.
    attention: Vec<u64>,
    /// Tick-walk subset of `attention`: set iff the arbiter call could
    /// mutate state *under the current global gates* ([`Self::gates`]).
    /// `attention` keeps the gate-free superset the horizon fold needs;
    /// this map additionally folds in the conditions that depend on
    /// global counters — write saturation, no-reads-anywhere, piggyback
    /// qualification, preemption threshold — plus the starvation
    /// deadline, so a bank full of writes stops being visited every tick
    /// while reads elsewhere keep it unservable. Clear-bit proof: every
    /// term that could flip a skipped bank back to actionable either
    /// changes the gate byte (rebuilding the map), arrives with an
    /// enqueue/issue (which re-marks or refreshes the bank), or is the
    /// starvation clock (guarded by `next_escal`).
    act_now: Vec<u64>,
    /// The gate byte every `act_now` bit currently assumes; a mismatch
    /// with the live [`Self::gates`] value triggers a rebuild.
    gate_cache: u8,
    /// Earliest cycle a gate-blocked idle write could escalate: rebuild
    /// `act_now` no later than this. Conservative-early (min-folded).
    next_escal: Cycle,
    /// Reusable candidate buffer for the per-channel transaction scan.
    scratch: Vec<Candidate>,
}

/// Sentinel `gate_cache` value (never produced by [`BurstScheduler::gates`],
/// which uses only the low four bits): forces an `act_now` rebuild.
const GATES_STALE: u8 = 0xFF;

impl BurstScheduler {
    /// Creates a burst scheduler for a device of the given geometry.
    pub fn new(cfg: CtrlConfig, geom: Geometry, opts: BurstOptions) -> Self {
        let core = Core::new(cfg, geom);
        let nbanks = core.bank_count();
        let next_adapt = opts.dynamic_period.unwrap_or(0);
        BurstScheduler {
            core,
            banks: vec![BankQueues::default(); nbanks],
            opts,
            window_reads: 0,
            window_writes: 0,
            next_adapt,
            attention: vec![0; nbanks.div_ceil(64)],
            act_now: vec![0; nbanks.div_ceil(64)],
            gate_cache: GATES_STALE,
            next_escal: 0,
            scratch: Vec::new(),
        }
    }

    /// The global predicates the bank arbiter consults beyond per-bank
    /// state, packed into one comparable byte: write-queue saturation,
    /// no-reads-anywhere, piggyback qualification and preemption headroom.
    /// `act_now` bits are valid only for the byte they were computed
    /// under.
    fn gates(&self) -> u8 {
        let wg = self.core.writes_outstanding() as u32;
        let mut g = 0u8;
        if wg >= self.core.cfg().write_capacity as u32 {
            g |= 1;
        }
        if self.core.reads_outstanding() == 0 {
            g |= 2;
        }
        if self.opts.piggyback_above.is_some_and(|th| wg > th) {
            g |= 4;
        }
        if wg < self.opts.preempt_below {
            g |= 8;
        }
        g
    }

    /// Recomputes `bank_idx`'s `act_now` bit under the `gate_cache`
    /// assumption. Time-dependent terms are evaluated at `now`; the ones
    /// that can only drift towards "no action" (an eligible preemption
    /// target ageing into escalation immunity) are left conservative-set,
    /// while the one that drifts towards "action" (an idle write crossing
    /// the starvation age) min-folds its firing cycle into `next_escal`.
    fn refresh_act(&mut self, bank_idx: usize, dram: &Dram, now: Cycle) {
        let gates = self.gate_cache;
        let escalate_age = self.core.cfg().watchdog.escalate_age;
        let need = match self.core.ongoing(bank_idx) {
            // Preemption is the only arm that can touch a busy slot.
            Some(og) => {
                og.access.kind == AccessKind::Write
                    && gates & 8 != 0
                    && now.saturating_sub(og.access.arrival) < escalate_age
                    && self.banks[bank_idx].has_reads()
            }
            None => {
                let b = &self.banks[bank_idx];
                if b.has_reads() {
                    // An idle bank with reads always picks one.
                    true
                } else if b.writes.is_empty() {
                    false
                } else if gates & (1 | 2) != 0 {
                    // Saturation drain or no-reads drain.
                    true
                } else if gates & 4 != 0 && b.at_burst_end && {
                    // Piggyback window: acts only when a queued write hits
                    // the open row. Safe to test here rather than keep the
                    // bit conservative-set: an idle bank's open row cannot
                    // drift towards a new match (no ongoing access means no
                    // activates; refresh only closes rows), and a freshly
                    // arrived write re-marks the bank on enqueue.
                    let (ch, rank, bk) = self.core.bank_coords(bank_idx);
                    dram.channel(usize::from(ch))
                        .bank(rank, bk)
                        .open_row()
                        .is_some_and(|row| b.writes.iter().any(|w| w.loc.row == row))
                } {
                    true
                } else {
                    // Writes present but every gate is shut: only the
                    // starvation watchdog can free them, at a known cycle.
                    let esc_at = b.writes.front().expect("non-empty").arrival + escalate_age;
                    if esc_at <= now {
                        true
                    } else {
                        self.next_escal = self.next_escal.min(esc_at);
                        false
                    }
                }
            }
        };
        let (word, mask) = (bank_idx >> 6, 1u64 << (bank_idx & 63));
        if need {
            self.act_now[word] |= mask;
        } else {
            self.act_now[word] &= !mask;
        }
    }

    /// Rebuilds every `act_now` bit for the current `gate_cache` byte and
    /// recomputes the escalation deadline from scratch.
    fn rebuild_act(&mut self, dram: &Dram, now: Cycle) {
        self.next_escal = Cycle::MAX;
        for b in 0..self.banks.len() {
            self.refresh_act(b, dram, now);
        }
    }

    /// Flags `bank_idx` for arbitration (new work arrived).
    fn mark_attention(&mut self, bank_idx: usize) {
        self.attention[bank_idx >> 6] |= 1 << (bank_idx & 63);
        // Conservative: the next visit (or rebuild) recomputes the bit.
        self.act_now[bank_idx >> 6] |= 1 << (bank_idx & 63);
    }

    /// Recomputes `bank_idx`'s attention bit from its slot and queues.
    fn refresh_attention(&mut self, bank_idx: usize) {
        let need = match self.core.ongoing(bank_idx) {
            None => {
                let b = &self.banks[bank_idx];
                b.has_reads() || !b.writes.is_empty()
            }
            Some(og) => og.access.kind == AccessKind::Write && self.banks[bank_idx].has_reads(),
        };
        let (word, mask) = (bank_idx >> 6, 1u64 << (bank_idx & 63));
        if need {
            self.attention[word] |= mask;
        } else {
            self.attention[word] &= !mask;
        }
    }

    /// The threshold currently in effect (static configurations report
    /// their `preempt_below`).
    pub fn current_threshold(&self) -> u32 {
        self.opts.preempt_below
    }

    /// Dynamic-threshold adaptation (Section 7 future work): pick the
    /// threshold proportional to the write share of recent arrivals. A
    /// write-heavy window pulls the threshold down so piggybacking starts
    /// early; a read-heavy window pushes it up so reads may preempt.
    fn adapt_threshold(&mut self, now: burst_dram::Cycle) {
        let Some(period) = self.opts.dynamic_period else {
            return;
        };
        if now < self.next_adapt {
            return;
        }
        self.next_adapt = now + period;
        let total = self.window_reads + self.window_writes;
        if total >= 16 {
            // write_share 0 -> near capacity (all preemption); write_share
            // 0.5+ -> low threshold (aggressive piggybacking).
            //
            // Integer form of `cap * (1 - 1.6 * writes/total)` clamped to
            // `[cap/8, cap - 4]`: scale by the denominator `10 * total`
            // so the arithmetic is exact — no float may feed a scheduling
            // decision. `1.6` is exactly 16/10 here, where the f64 it
            // replaced carried the nearest-double approximation.
            let cap = self.core.cfg().write_capacity as i128;
            let num = cap * (10 * i128::from(total) - 16 * i128::from(self.window_writes));
            let den = 10 * i128::from(total);
            let th = num.div_euclid(den).clamp(cap / 8, cap - 4).max(0) as u32;
            self.opts.preempt_below = th;
            self.opts.piggyback_above = Some(th);
        }
        self.window_reads = 0;
        self.window_writes = 0;
    }

    /// The variant options in effect.
    pub fn options(&self) -> &BurstOptions {
        &self.opts
    }

    /// Pops the first read of the next burst (Figure 5 line 8), discarding
    /// any exhausted bursts at the head of the queue.
    fn pop_next_read(bank: &mut BankQueues) -> Option<Access> {
        while let Some(front) = bank.bursts.front() {
            if front.accesses.is_empty() {
                bank.bursts.pop_front();
            } else {
                break;
            }
        }
        bank.bursts.front_mut()?.accesses.pop_front()
    }

    /// Removes the oldest write in the bank's write queue.
    fn pop_oldest_write(bank: &mut BankQueues) -> Option<Access> {
        bank.writes.pop_front()
    }

    /// Removes the oldest write directed at `row` (qualified for
    /// piggybacking), if any.
    fn pop_row_hit_write(bank: &mut BankQueues, row: u32) -> Option<Access> {
        let idx = bank
            .writes
            .iter()
            .enumerate()
            .filter(|(_, w)| w.loc.row == row)
            .min_by_key(|(_, w)| w.id)
            .map(|(i, _)| i)?;
        bank.writes.remove(idx)
    }

    /// Re-enqueues a faulted access at the very front of its queue: a
    /// retry is the oldest work its bank has.
    fn requeue_front(&mut self, access: Access) {
        let bank_idx = self.core.global_bank(access.loc);
        self.mark_attention(bank_idx);
        let bank = &mut self.banks[bank_idx];
        match access.kind {
            AccessKind::Read => {
                if let Some(front) = bank.bursts.front_mut() {
                    if front.row == access.loc.row {
                        front.accesses.push_front(access);
                        return;
                    }
                }
                bank.bursts.push_front(Burst {
                    row: access.loc.row,
                    accesses: VecDeque::from([access]),
                });
            }
            AccessKind::Write => bank.writes.push_front(access),
        }
    }

    /// The bank arbiter subroutine (Figure 5), run per bank per cycle.
    /// Returns `true` iff it changed any bank or slot state (installed,
    /// preempted or escalated an access); `false` visits leave the queues,
    /// the slot and `at_burst_end` exactly as found.
    fn bank_arbiter(&mut self, bank_idx: usize, dram: &Dram, now: Cycle) -> bool {
        let writes_global = self.core.writes_outstanding() as u32;
        let write_cap = self.core.cfg().write_capacity as u32;

        if let Some(og) = self.core.ongoing(bank_idx) {
            // Figure 5 lines 9-11: read preemption — a waiting read
            // interrupts an ongoing write while occupancy is below the
            // threshold. The preempted write restarts later.
            // An escalated (starvation-aged) write is immune: preempting it
            // would hand the bank straight back to the read stream that
            // starved it, re-starving it indefinitely.
            let preemptable = og.access.kind == AccessKind::Write
                && writes_global < self.opts.preempt_below
                && now.saturating_sub(og.access.arrival) < self.core.cfg().watchdog.escalate_age
                && self.banks[bank_idx].has_reads();
            if preemptable {
                let write = self.core.clear_ongoing(bank_idx).expect("ongoing write");
                self.banks[bank_idx].writes.push_front(write);
                let read = Self::pop_next_read(&mut self.banks[bank_idx]).expect("has_reads");
                self.banks[bank_idx].at_burst_end = false;
                self.core
                    .set_ongoing(bank_idx, read)
                    .expect("slot was just cleared for preemption");
                self.core.stats_mut().preemptions += 1;
            }
            return preemptable;
        }

        // Starvation watchdog: an access past the escalation age bypasses
        // burst formation and piggyback qualification and is served
        // oldest-first — a write starved behind an endless read stream is
        // the canonical case (Section 5.1's pile-up, bounded).
        let escalate_age = self.core.cfg().watchdog.escalate_age;
        {
            let bank = &mut self.banks[bank_idx];
            let oldest_read = bank
                .bursts
                .front()
                .and_then(|b| b.accesses.front())
                .map(|a| (a.arrival, a.kind));
            let oldest_write = bank.writes.front().map(|a| (a.arrival, a.kind));
            if let Some((arrival, kind)) = [oldest_read, oldest_write].into_iter().flatten().min() {
                if now.saturating_sub(arrival) >= escalate_age {
                    let access = match kind {
                        AccessKind::Read => Self::pop_next_read(bank).expect("front read exists"),
                        AccessKind::Write => {
                            Self::pop_oldest_write(bank).expect("front write exists")
                        }
                    };
                    bank.at_burst_end = false;
                    self.core
                        .set_ongoing(bank_idx, access)
                        .expect("bank verified idle before escalation");
                    return true;
                }
            }
        }

        let open_row = {
            let (ch, rank, bk) = self.core.bank_coords(bank_idx);
            dram.channel(usize::from(ch)).bank(rank, bk).open_row()
        };
        let bank = &mut self.banks[bank_idx];

        // Reads are prioritised over writes globally: plain writes drain
        // only when no reads are outstanding anywhere, or when the write
        // queue saturates — which is why Intel and Burst pile up writes
        // (paper Section 5.1) and why write piggybacking exists.
        let no_reads_anywhere = self.core.reads_outstanding() == 0;

        // Figure 5 lines 1-8.
        let mut piggybacked = false;
        let pick: Option<Access> = if writes_global >= write_cap && !bank.writes.is_empty() {
            // Line 2-3: write queue full — drain the oldest write.
            Self::pop_oldest_write(bank)
        } else if let (Some(th), true, Some(row)) =
            (self.opts.piggyback_above, bank.at_burst_end, open_row)
        {
            // Line 4-5: write piggybacking at the end of a burst.
            let qualified = writes_global > th;
            let picked = if qualified {
                Self::pop_row_hit_write(bank, row)
            } else {
                None
            };
            match picked {
                Some(w) => {
                    piggybacked = true;
                    Some(w)
                }
                None => Self::fallthrough_pick(bank, no_reads_anywhere),
            }
        } else {
            Self::fallthrough_pick(bank, no_reads_anywhere)
        };

        if let Some(access) = pick {
            if piggybacked {
                self.core.stats_mut().piggybacks += 1;
            } else {
                // Any non-piggyback pick leaves the burst-end window.
                self.banks[bank_idx].at_burst_end = false;
            }
            self.core
                .set_ongoing(bank_idx, access)
                .expect("bank verified idle at arbiter entry");
            true
        } else {
            false
        }
    }

    /// Figure 5 lines 6-8: the first read of the next burst; the oldest
    /// write only when no reads are outstanding at all.
    fn fallthrough_pick(bank: &mut BankQueues, no_reads_anywhere: bool) -> Option<Access> {
        if bank.has_reads() {
            Self::pop_next_read(bank)
        } else if no_reads_anywhere && !bank.writes.is_empty() {
            Self::pop_oldest_write(bank)
        } else {
            None
        }
    }
}

impl AccessScheduler for BurstScheduler {
    fn mechanism(&self) -> Mechanism {
        self.opts.mechanism
    }

    fn can_accept(&self, kind: AccessKind) -> bool {
        self.core.can_accept(kind)
    }

    fn enqueue(
        &mut self,
        access: Access,
        _now: Cycle,
        completions: &mut Vec<Completion>,
    ) -> EnqueueOutcome {
        if !self.can_accept(access.kind) {
            return EnqueueOutcome::Rejected;
        }
        let bank_idx = self.core.global_bank(access.loc);
        match access.kind {
            AccessKind::Read => {
                // Figure 4 lines 2-4: search the write queue (including an
                // ongoing, not-yet-issued write) for the latest write to the
                // same line and forward its data.
                let queued_hit = self.banks[bank_idx]
                    .writes
                    .iter()
                    .filter(|w| w.addr == access.addr)
                    .max_by_key(|w| w.id)
                    .is_some();
                let ongoing_hit = self
                    .core
                    .ongoing(bank_idx)
                    .map(|o| o.access.kind == AccessKind::Write && o.access.addr == access.addr)
                    .unwrap_or(false);
                if queued_hit || ongoing_hit {
                    self.core.note_forward(&access, _now, completions);
                    return EnqueueOutcome::Forwarded;
                }
                // Figure 4 lines 5-8: join an existing burst or append a new
                // single-access burst at the end of the read queue.
                self.core.note_arrival(&access);
                self.window_reads += 1;
                self.mark_attention(bank_idx);
                let bank = &mut self.banks[bank_idx];
                if let Some(burst) = bank.bursts.iter_mut().find(|b| b.row == access.loc.row) {
                    if self.opts.critical_first && access.critical {
                        // Insert after the last critical read, before any
                        // non-critical fills (stable within each class).
                        let pos = burst
                            .accesses
                            .iter()
                            .position(|a| !a.critical)
                            .unwrap_or(burst.accesses.len());
                        burst.accesses.insert(pos, access);
                    } else {
                        burst.accesses.push_back(access);
                    }
                } else {
                    bank.bursts.push_back(Burst {
                        row: access.loc.row,
                        accesses: VecDeque::from([access]),
                    });
                }
                EnqueueOutcome::Queued
            }
            AccessKind::Write => {
                // Figure 4 lines 9-10: writes enter the write queue in order
                // and complete immediately from the CPU's view.
                self.core.note_arrival(&access);
                self.window_writes += 1;
                self.mark_attention(bank_idx);
                self.banks[bank_idx].writes.push_back(access);
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
        self.adapt_threshold(now);
        for channel in 0..self.core.channel_count() {
            // Gate check per channel, not per tick: an issue on an earlier
            // channel can move the global counters, and this channel's
            // walk must see bits consistent with the counters its arbiter
            // will read. (Picks inside a walk never move them — counters
            // change only on enqueue, issue and completion.)
            let gates = self.gates();
            if gates != self.gate_cache || now >= self.next_escal {
                self.gate_cache = gates;
                self.rebuild_act(dram, now);
            }
            // Visit only actionable banks: a clear `act_now` bit proves
            // the arbiter call would mutate nothing this tick (see the
            // field's invariant).
            let range = self.core.bank_range(channel);
            let mut bank_idx = range.start;
            while bank_idx < range.end {
                let shifted = self.act_now[bank_idx >> 6] >> (bank_idx & 63);
                if shifted == 0 {
                    bank_idx = (bank_idx | 63) + 1;
                    continue;
                }
                bank_idx += shifted.trailing_zeros() as usize;
                if bank_idx >= range.end {
                    break;
                }
                // A mutating visit invalidates both bitmaps; a futile one
                // left the bank state untouched, so only the gate-scoped
                // bit needs recomputing (clearing it is what stops the
                // futile visit from repeating every tick).
                if self.bank_arbiter(bank_idx, dram, now) {
                    self.refresh_attention(bank_idx);
                }
                self.refresh_act(bank_idx, dram, now);
                bank_idx += 1;
            }
            let mut cands = std::mem::take(&mut self.scratch);
            self.core.fill_candidates(dram, channel, now, &mut cands);
            let (last_bank, last_rank) = self.core.last_target(channel);
            match select_table2(&cands, last_bank, last_rank) {
                Some(cand) => {
                    let col_issued = self.core.issue_candidate(dram, now, &cand, completions);
                    if col_issued {
                        match cand.kind {
                            AccessKind::Read => {
                                // A read burst ends when its last read's
                                // column access has been scheduled and no
                                // new read joined.
                                let bank = &mut self.banks[cand.bank];
                                if let Some(front) = bank.bursts.front() {
                                    if front.row == cand.loc.row && front.accesses.is_empty() {
                                        bank.bursts.pop_front();
                                        bank.at_burst_end = true;
                                    }
                                }
                            }
                            AccessKind::Write => {
                                // A completed write leaves its row open:
                                // qualified (same-row) writes may be
                                // appended behind it, draining whole
                                // row-clusters of writebacks — "exploits
                                // the locality of row hits from writes"
                                // (Section 3.2).
                                self.banks[cand.bank].at_burst_end = true;
                            }
                        }
                        // The column freed the bank's slot (or parked a
                        // faulted access for retry): recompute its bits.
                        self.refresh_attention(cand.bank);
                        self.refresh_act(cand.bank, dram, now);
                    }
                }
                None => {
                    // Figure 6 lines 14-15: steer toward the oldest access.
                    self.core.steer_to_oldest(channel);
                }
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
        // Replay the adaptation timer over the skipped window. The first
        // fire must run for real — arrival-window counters accumulated
        // before quiescence may still cross the adaptation minimum — and
        // it zeroes the windows, so every later fire in the window is a
        // pure re-arm. `end - f0` stays exact: f0 <= end by the guard.
        if let Some(period) = self.opts.dynamic_period {
            let end = from + n - 1;
            if self.next_adapt <= end {
                let f0 = self.next_adapt.max(from);
                self.adapt_threshold(f0);
                self.next_adapt = match (end - f0).checked_div(period) {
                    Some(intervals) => f0 + (intervals + 1) * period,
                    None => end, // period == 0: re-arm at the window edge
                };
            }
        }
    }

    fn next_busy_event(&self, dram: &Dram, last: Cycle) -> Option<Cycle> {
        let mut event = self.core.busy_event_base(dram, last)?;
        let t = last + 1;
        if self.opts.dynamic_period.is_some() {
            // The adaptation timer rewrites the thresholds and zeroes the
            // arrival windows when it fires; that tick must be stepped.
            if self.next_adapt <= t {
                return None;
            }
            event = event.min(self.next_adapt);
        }
        let escalate_age = self.core.cfg().watchdog.escalate_age;
        let writes_global = self.core.writes_outstanding() as u32;
        let write_cap = self.core.cfg().write_capacity as u32;
        let no_reads_anywhere = self.core.reads_outstanding() == 0;
        // Only attention-flagged banks can veto or bound the horizon: a
        // clear bit means the bank is either slot-busy with a read, a
        // write with no reads behind it, or idle and empty — and every
        // arm below contributes nothing for those. (Bits can be stale-set
        // after an enqueue behind a busy slot; a visit then just scores
        // nothing, exactly like the full scan did.)
        for (w, &word0) in self.attention.iter().enumerate() {
            let mut word = word0;
            while word != 0 {
                let bank_idx = (w << 6) + word.trailing_zeros() as usize;
                word &= word - 1;
                let bank = &self.banks[bank_idx];
                if let Some(og) = self.core.ongoing(bank_idx) {
                    // Preemption's terms are static over a no-op stretch
                    // except the age guard, which can only turn an eligible
                    // write immune — so eligibility at the next tick decides.
                    if og.access.kind == AccessKind::Write
                        && writes_global < self.opts.preempt_below
                        && t.saturating_sub(og.access.arrival) < escalate_age
                        && bank.has_reads()
                    {
                        return None;
                    }
                    continue;
                }
                // Idle bank: replicate the Figure 5 decision at tick `t`.
                // Escalation first, replicating pop order exactly —
                // including its blindness to exhausted front bursts.
                let oldest_read = bank
                    .bursts
                    .front()
                    .and_then(|b| b.accesses.front())
                    .map(|a| a.arrival);
                let oldest_write = bank.writes.front().map(|a| a.arrival);
                if let Some(arrival) = [oldest_read, oldest_write].into_iter().flatten().min() {
                    let esc_at = arrival + escalate_age;
                    if esc_at <= t {
                        return None;
                    }
                    event = event.min(esc_at);
                }
                if writes_global >= write_cap && !bank.writes.is_empty() {
                    return None;
                }
                let open_row = {
                    let (ch, rank, bk) = self.core.bank_coords(bank_idx);
                    dram.channel(usize::from(ch)).bank(rank, bk).open_row()
                };
                if let (Some(th), true, Some(row)) =
                    (self.opts.piggyback_above, bank.at_burst_end, open_row)
                {
                    if writes_global > th && bank.writes.iter().any(|w| w.loc.row == row) {
                        return None;
                    }
                }
                if bank.has_reads() || (no_reads_anywhere && !bank.writes.is_empty()) {
                    return None;
                }
            }
        }
        Some(event)
    }

    fn advance_blocked(&mut self, from: Cycle, n: u64) {
        if let Some(_period) = self.opts.dynamic_period {
            debug_assert!(
                from + n - 1 < self.next_adapt,
                "adaptation timer would fire inside a skipped busy stretch"
            );
        }
        self.core.advance_blocked(from, n);
    }

    fn save_state(&self, w: &mut burst_snap::SnapWriter) -> Result<(), burst_snap::SnapError> {
        let Self {
            core,
            banks,
            opts,
            window_reads,
            window_writes,
            next_adapt,
            attention: _,  // attention bitmap; load_state rebuilds it from the queues
            act_now: _,    // gate-scoped attention; rebuilt lazily after restore
            gate_cache: _, // act_now cache key; STALE after restore
            next_escal: _, // act_now rebuild deadline; reset after restore
            scratch: _,    // per-tick candidate scratch buffer, cleared before each use
        } = self;
        core.save_snap(w);
        w.usize(banks.len());
        for bank in banks {
            w.usize(bank.bursts.len());
            for burst in &bank.bursts {
                w.u32(burst.row);
                w.usize(burst.accesses.len());
                for a in &burst.accesses {
                    a.save_snap(w);
                }
            }
            w.usize(bank.writes.len());
            for a in &bank.writes {
                a.save_snap(w);
            }
            w.bool(bank.at_burst_end);
        }
        // Runtime-mutable option fields (the dynamic threshold rewrites
        // preempt_below / piggyback_above on the fly); the rest are
        // construction input.
        w.u32(opts.preempt_below);
        w.opt_u32(opts.piggyback_above);
        w.u64(*window_reads);
        w.u64(*window_writes);
        w.u64(*next_adapt);
        Ok(())
    }

    fn load_state(&mut self, r: &mut burst_snap::SnapReader) -> Result<(), burst_snap::SnapError> {
        use burst_snap::SnapError;
        let Self {
            core,
            banks,
            opts,
            window_reads,
            window_writes,
            next_adapt,
            attention: _, // rebuilt below from the restored slots and queues
            act_now: _,   // rebuilt lazily by the first tick: `gate_cache` is STALE
            gate_cache,
            next_escal,
            scratch: _, // per-tick candidate scratch buffer, cleared before each use
        } = self;
        core.load_snap(r)?;
        if r.seq_len(3)? != banks.len() {
            return Err(SnapError::Corrupt("bank queue count mismatch"));
        }
        for bank in banks.iter_mut() {
            let n_bursts = r.seq_len(6)?;
            bank.bursts.clear();
            for _ in 0..n_bursts {
                let row = r.u32()?;
                let n_acc = r.seq_len(24)?;
                let mut accesses = VecDeque::with_capacity(n_acc);
                for _ in 0..n_acc {
                    accesses.push_back(Access::load_snap(r)?);
                }
                bank.bursts.push_back(Burst { row, accesses });
            }
            let n_writes = r.seq_len(24)?;
            bank.writes.clear();
            for _ in 0..n_writes {
                bank.writes.push_back(Access::load_snap(r)?);
            }
            bank.at_burst_end = r.bool()?;
        }
        opts.preempt_below = r.u32()?;
        opts.piggyback_above = r.opt_u32()?;
        *window_reads = r.u64()?;
        *window_writes = r.u64()?;
        *next_adapt = r.u64()?;
        *gate_cache = GATES_STALE;
        *next_escal = 0;
        // The attention bitmap is derived state: rebuild it from the
        // restored slots and queues.
        for b in 0..self.banks.len() {
            self.refresh_attention(b);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AccessId;
    use burst_dram::{AddressMapping, DramConfig, Loc, PhysAddr};

    fn setup(opts: BurstOptions) -> (BurstScheduler, Dram) {
        let cfg = DramConfig::baseline();
        (
            BurstScheduler::new(CtrlConfig::default(), cfg.geometry, opts),
            Dram::new(cfg, AddressMapping::PageInterleaving),
        )
    }

    fn th(t: u32) -> BurstOptions {
        BurstOptions::static_threshold(t, Some(t), Mechanism::BurstTh(t))
    }

    fn access(id: u64, kind: AccessKind, loc: Loc) -> Access {
        Access::new(AccessId::new(id), kind, PhysAddr::new(id * 64), loc, 0)
    }

    fn read(id: u64, bank: u8, row: u32, col: u32) -> Access {
        access(id, AccessKind::Read, Loc::new(0, 0, bank, row, col))
    }

    fn write(id: u64, bank: u8, row: u32, col: u32) -> Access {
        access(id, AccessKind::Write, Loc::new(0, 0, bank, row, col))
    }

    #[test]
    fn same_row_reads_join_one_burst() {
        let (mut s, _dram) = setup(th(52));
        let mut done = Vec::new();
        s.enqueue(read(0, 0, 5, 0), 0, &mut done);
        s.enqueue(read(1, 0, 5, 8), 0, &mut done);
        s.enqueue(read(2, 0, 6, 0), 0, &mut done);
        s.enqueue(read(3, 0, 5, 16), 0, &mut done);
        let bank = &s.banks[s.core.global_bank(Loc::new(0, 0, 0, 0, 0))];
        assert_eq!(bank.bursts.len(), 2, "rows 5 and 6");
        assert_eq!(
            bank.bursts[0].accesses.len(),
            3,
            "row-5 burst holds three reads"
        );
        assert_eq!(bank.bursts[1].accesses.len(), 1);
    }

    #[test]
    fn bursts_served_in_first_arrival_order() {
        let (mut s, mut dram) = setup(th(52));
        let mut done = Vec::new();
        // Row 6 burst arrives first, then a row 5 burst.
        s.enqueue(read(0, 0, 6, 0), 0, &mut done);
        s.enqueue(read(1, 0, 5, 0), 0, &mut done);
        s.enqueue(read(2, 0, 5, 8), 0, &mut done);
        for now in 0..200 {
            s.tick(&mut dram, now, &mut done);
            if !done.is_empty() {
                break;
            }
        }
        assert_eq!(done[0].id, AccessId::new(0), "older burst must go first");
    }

    #[test]
    fn preemption_respects_threshold_boundary() {
        // Threshold 1: preemption requires global writes < 1, i.e. zero
        // queued writes besides the ongoing one.
        let (mut s, mut dram) = setup(th(1));
        let mut done = Vec::new();
        s.enqueue(write(0, 0, 5, 0), 0, &mut done);
        s.tick(&mut dram, 0, &mut done); // write becomes ongoing
                                         // A second queued write raises occupancy to 1 (ongoing counts);
                                         // preemption (needs < 1) is disabled.
        s.enqueue(write(1, 0, 7, 0), 1, &mut done);
        s.enqueue(read(2, 0, 9, 0), 1, &mut done);
        s.tick(&mut dram, 1, &mut done);
        assert_eq!(
            s.stats().preemptions,
            0,
            "occupancy at threshold: no preemption"
        );
    }

    #[test]
    fn preemption_fires_below_threshold() {
        let (mut s, mut dram) = setup(th(64));
        let mut done = Vec::new();
        s.enqueue(write(0, 0, 5, 0), 0, &mut done);
        s.tick(&mut dram, 0, &mut done);
        s.enqueue(read(1, 0, 9, 0), 1, &mut done);
        s.tick(&mut dram, 1, &mut done);
        assert_eq!(s.stats().preemptions, 1);
        // The read becomes ongoing; the write returns to its queue.
        let bank = &s.banks[s.core.global_bank(Loc::new(0, 0, 0, 0, 0))];
        assert_eq!(bank.writes.len(), 1);
    }

    #[test]
    fn piggyback_takes_oldest_qualified_write() {
        let (mut s, mut dram) = setup(th(0)); // WP semantics: piggyback whenever occupancy > 0
        let mut done = Vec::new();
        // A read burst to row 5 and writes to rows 5 (two) and 7 (one).
        s.enqueue(read(0, 0, 5, 0), 0, &mut done);
        s.enqueue(write(1, 0, 7, 0), 0, &mut done);
        s.enqueue(write(2, 0, 5, 8), 0, &mut done);
        s.enqueue(write(3, 0, 5, 16), 0, &mut done);
        let mut now = 0;
        while done.len() < 4 && now < 2000 {
            s.tick(&mut dram, now, &mut done);
            now += 1;
        }
        assert_eq!(done.len(), 4);
        assert!(s.stats().piggybacks >= 2, "both row-5 writes piggyback");
        // The row-5 writes complete before the row-7 write despite id order.
        let pos = |id: u64| {
            done.iter()
                .position(|c| c.id == AccessId::new(id))
                .expect("completed")
        };
        assert!(pos(2) < pos(1), "row-hit write 2 beats row-miss write 1");
        assert!(pos(3) < pos(1), "row-hit write 3 beats row-miss write 1");
    }

    #[test]
    fn no_piggyback_when_disabled() {
        let (mut s, mut dram) = setup(BurstOptions::static_threshold(0, None, Mechanism::Burst));
        let mut done = Vec::new();
        s.enqueue(read(0, 0, 5, 0), 0, &mut done);
        s.enqueue(write(1, 0, 5, 8), 0, &mut done);
        let mut now = 0;
        while done.len() < 2 && now < 5000 {
            s.tick(&mut dram, now, &mut done);
            now += 1;
        }
        assert_eq!(s.stats().piggybacks, 0);
        assert_eq!(done.len(), 2, "write drains via the no-reads path");
    }

    #[test]
    fn new_read_joins_active_burst_mid_drain() {
        let (mut s, mut dram) = setup(th(52));
        let mut done = Vec::new();
        s.enqueue(read(0, 0, 5, 0), 0, &mut done);
        // Let the burst start (activate issued).
        s.tick(&mut dram, 0, &mut done);
        s.tick(&mut dram, 1, &mut done);
        // A same-row read arrives while the burst is being scheduled.
        s.enqueue(read(1, 0, 5, 8), 2, &mut done);
        let mut now = 2;
        while done.len() < 2 && now < 500 {
            s.tick(&mut dram, now, &mut done);
            now += 1;
        }
        assert_eq!(done.len(), 2);
        // Both were row-locality wins: 1 empty (first) + 1 hit (joiner).
        assert_eq!(s.stats().row_hits, 1);
        assert_eq!(s.stats().row_empties, 1);
    }

    #[test]
    fn dynamic_threshold_adapts_to_write_share() {
        let opts = BurstOptions {
            dynamic_period: Some(64),
            ..BurstOptions::static_threshold(52, Some(52), Mechanism::BurstDyn)
        };
        let (mut s, mut dram) = setup(opts);
        let mut done = Vec::new();
        // Write-heavy phase: threshold should fall.
        let mut id = 0;
        for now in 0..256u64 {
            if s.can_accept(AccessKind::Write) {
                s.enqueue(
                    write(id, (id % 4) as u8, (id % 8) as u32, 0),
                    now,
                    &mut done,
                );
                id += 1;
            }
            s.tick(&mut dram, now, &mut done);
        }
        assert!(
            s.current_threshold() < 52,
            "write flood should lower the threshold, got {}",
            s.current_threshold()
        );
        // Read-heavy phase: threshold should rise again.
        for now in 256..1024u64 {
            if s.can_accept(AccessKind::Read) && id < 400 {
                s.enqueue(read(id, (id % 4) as u8, (id % 8) as u32, 8), now, &mut done);
                id += 1;
            }
            s.tick(&mut dram, now, &mut done);
        }
        assert!(
            s.current_threshold() > 16,
            "read flood should raise the threshold, got {}",
            s.current_threshold()
        );
    }

    #[test]
    fn starved_write_escalates_and_completes() {
        // A lone write to row 7 behind an endless read stream to row 5
        // starves under plain Burst_TH (no piggyback qualifies, reads are
        // never exhausted). A small escalation age promotes it.
        let cfg = DramConfig::baseline();
        let ctrl = CtrlConfig {
            watchdog: crate::WatchdogConfig {
                escalate_age: 400,
                stall_limit: 1_000_000,
            },
            ..CtrlConfig::default()
        };
        let mut s = BurstScheduler::new(ctrl, cfg.geometry, th(52));
        let mut dram = Dram::new(cfg, AddressMapping::PageInterleaving);
        let mut done = Vec::new();
        s.enqueue(write(0, 0, 7, 0), 0, &mut done);
        let mut id = 1u64;
        for now in 0..4000u64 {
            if now % 8 == 0 && s.can_accept(AccessKind::Read) {
                let a = Access::new(
                    AccessId::new(id),
                    AccessKind::Read,
                    PhysAddr::new(id * 64),
                    Loc::new(0, 0, 0, 5, ((id * 8) % 512) as u32),
                    now,
                );
                s.enqueue(a, now, &mut done);
                id += 1;
            }
            s.tick(&mut dram, now, &mut done);
            if done.iter().any(|c| c.id == AccessId::new(0)) {
                break;
            }
        }
        assert!(
            done.iter().any(|c| c.id == AccessId::new(0)),
            "escalated write must complete despite the read stream"
        );
        assert!(
            s.stats().escalations >= 1,
            "the watchdog must have escalated it"
        );
        assert!(
            s.stall_diagnostic().is_none(),
            "progress was continuous: no stall"
        );
    }

    #[test]
    fn rejected_when_pool_full() {
        let cfg = DramConfig::baseline();
        let ctrl = CtrlConfig {
            pool_capacity: 2,
            write_capacity: 2,
            ..CtrlConfig::default()
        };
        let mut s = BurstScheduler::new(ctrl, cfg.geometry, th(52));
        let mut done = Vec::new();
        assert_eq!(
            s.enqueue(read(0, 0, 5, 0), 0, &mut done),
            EnqueueOutcome::Queued
        );
        assert_eq!(
            s.enqueue(read(1, 0, 5, 8), 0, &mut done),
            EnqueueOutcome::Queued
        );
        // Pool full: the access is refused, not silently dropped or
        // miscounted (previously a debug-only assertion).
        assert_eq!(
            s.enqueue(read(2, 0, 5, 16), 0, &mut done),
            EnqueueOutcome::Rejected
        );
        assert_eq!(
            s.outstanding().total(),
            2,
            "rejected access was not recorded"
        );
    }

    #[test]
    fn write_queue_full_forces_drain() {
        let cfg = DramConfig::baseline();
        let ctrl = CtrlConfig {
            pool_capacity: 16,
            write_capacity: 4,
            ..CtrlConfig::default()
        };
        let mut s = BurstScheduler::new(ctrl, cfg.geometry, th(52));
        let mut dram = Dram::new(cfg, AddressMapping::PageInterleaving);
        let mut done = Vec::new();
        for i in 0..4 {
            assert!(s.can_accept(AccessKind::Write));
            s.enqueue(write(i, (i % 2) as u8, 3, 0), 0, &mut done);
        }
        assert!(
            !s.can_accept(AccessKind::Read),
            "full write queue blocks everything"
        );
        let mut now = 0;
        while s.outstanding().writes == 4 && now < 100 {
            s.tick(&mut dram, now, &mut done);
            now += 1;
        }
        assert!(s.outstanding().writes < 4, "full-queue drain must engage");
    }
}

#[cfg(test)]
mod critical_tests {
    use super::*;
    use crate::AccessId;
    use burst_dram::{AddressMapping, DramConfig, Loc, PhysAddr};

    fn crit_opts() -> BurstOptions {
        BurstOptions {
            critical_first: true,
            ..BurstOptions::static_threshold(52, Some(52), Mechanism::BurstCrit)
        }
    }

    fn read(id: u64, row: u32, col: u32, critical: bool) -> Access {
        Access::new(
            AccessId::new(id),
            AccessKind::Read,
            PhysAddr::new(id * 64),
            Loc::new(0, 0, 0, row, col),
            0,
        )
        .with_critical(critical)
    }

    #[test]
    fn critical_reads_jump_fills_within_a_burst() {
        let cfg = DramConfig::baseline();
        let mut s = BurstScheduler::new(CtrlConfig::default(), cfg.geometry, crit_opts());
        let mut dram = Dram::new(cfg, AddressMapping::PageInterleaving);
        let mut done = Vec::new();
        // Three non-critical fills arrive first, then a critical demand load
        // to the same row.
        s.enqueue(read(0, 5, 0, false), 0, &mut done);
        s.enqueue(read(1, 5, 8, false), 0, &mut done);
        s.enqueue(read(2, 5, 16, false), 0, &mut done);
        s.enqueue(read(3, 5, 24, true), 0, &mut done);
        let mut now = 0;
        while done.len() < 4 && now < 1000 {
            s.tick(&mut dram, now, &mut done);
            now += 1;
        }
        let order: Vec<u64> = done.iter().map(|c| c.id.value()).collect();
        // Access 0 leads the burst (already ongoing by the time 3 arrives or
        // simply first in line); the critical access must beat fills 1 and 2.
        let pos = |id: u64| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(3) < pos(1), "critical load must jump fill 1: {order:?}");
        assert!(pos(3) < pos(2), "critical load must jump fill 2: {order:?}");
    }

    #[test]
    fn without_flag_order_is_arrival() {
        let cfg = DramConfig::baseline();
        let mut s = BurstScheduler::new(
            CtrlConfig::default(),
            cfg.geometry,
            BurstOptions::static_threshold(52, Some(52), Mechanism::BurstTh(52)),
        );
        let mut dram = Dram::new(cfg, AddressMapping::PageInterleaving);
        let mut done = Vec::new();
        s.enqueue(read(0, 5, 0, false), 0, &mut done);
        s.enqueue(read(1, 5, 8, false), 0, &mut done);
        s.enqueue(read(2, 5, 16, true), 0, &mut done);
        let mut now = 0;
        while done.len() < 3 && now < 1000 {
            s.tick(&mut dram, now, &mut done);
            now += 1;
        }
        let order: Vec<u64> = done.iter().map(|c| c.id.value()).collect();
        assert_eq!(
            order,
            vec![0, 1, 2],
            "arrival order preserved inside bursts"
        );
    }

    #[test]
    fn criticality_never_loses_accesses() {
        let cfg = DramConfig::baseline();
        let mut s = BurstScheduler::new(CtrlConfig::default(), cfg.geometry, crit_opts());
        let mut dram = Dram::new(cfg, AddressMapping::PageInterleaving);
        let mut done = Vec::new();
        for i in 0..60u64 {
            let r = read(i, (i % 6) as u32, ((i * 8) % 64) as u32, i % 3 == 0);
            if s.can_accept(AccessKind::Read) {
                s.enqueue(r, 0, &mut done);
            }
        }
        let mut now = 0;
        while s.outstanding().total() > 0 && now < 100_000 {
            s.tick(&mut dram, now, &mut done);
            now += 1;
        }
        assert_eq!(done.len(), 60);
    }
}
