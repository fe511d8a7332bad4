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

use super::{oldest_row_hit, Policy};
use crate::engine::{Candidate, Core};
use crate::txsched::select_table2;
use crate::{Access, AccessKind, Completion, EnqueueOutcome, Mechanism};
use burst_dram::{Cycle, Dram};

/// Tuning knobs distinguishing the four burst variants of Table 4 plus the
/// dynamic-threshold extension from the paper's future work (Section 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BurstOptions {
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
    pub(crate) fn static_threshold(
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

/// The burst scheduling policy.
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
pub(crate) struct BurstScheduler {
    banks: Vec<BankQueues>,
    opts: BurstOptions,
    /// Read/write arrivals in the current adaptation window (dynamic
    /// threshold only).
    window_reads: u64,
    window_writes: u64,
    next_adapt: burst_dram::Cycle,
    /// The bank arbiter's classes, one [`ClassWord`] per 64 global banks
    /// (derived state, absent from checkpoints). A bank's bits change only
    /// when its own state does: `refresh_class` recomputes them after an
    /// arbiter visit and in `column_issued`; `mark` sets its `always` bit
    /// on enqueue and requeue, and on every bank after a restore.
    classes: Vec<ClassWord>,
    /// Earliest cycle a `drain` bank outside `always` reaches the
    /// escalation age, the one clock that moves a bank into `always`
    /// while its own state stands still. `pre_tick` then walks the `drain`
    /// bits. Conservative-early (min-folded).
    next_escal: Cycle,
}

/// The bank arbiter's classes for 64 consecutive global banks, one bit
/// per bank in each map. Each class names the gate term of
/// [`BurstScheduler::gates`] under which its banks can act, so a channel
/// walk visits `always | drain & g(1|2) | piggyback & g4 | preempt & g8`
/// from the live gate byte, and a gate flip costs one word operation.
///
/// Clear-bit proof: `bank_arbiter` changes a bank only when (a) the bank
/// is idle with reads, which it always installs; (b) it is idle and its
/// oldest access reached the escalation age; (c) it is idle with writes
/// only, and the write queue is saturated (gate 1) or no read is
/// outstanding anywhere (gate 2); (d) as (c), at a burst end with a
/// queued write to the open row, under piggyback qualification (gate 4);
/// or (e) its ongoing write is younger than the escalation age and has
/// reads behind it, under preemption headroom (gate 8). An idle bank with
/// nothing queued, and a busy bank outside (e), never change. Each class
/// below holds its case whenever the bank's state holds it: the bits are
/// recomputed on every change of the bank's own state, an enqueue marks
/// the bank in `always` until its next visit, and each class states the
/// clock that could move a bank into it between visits.
#[derive(Debug, Clone, Copy, Default)]
struct ClassWord {
    /// Cases (a) and (b): an idle bank with queued reads, or an idle
    /// writes-only bank whose front write has reached the escalation age.
    /// Acts under any gates. Also the conservative mark of a bank whose
    /// state changed outside a visit.
    always: u64,
    /// Case (c): an idle writes-only bank; acts under gate bits 1|2. Its
    /// front write ageing is the one clock that moves it into `always`,
    /// and `next_escal` is set no later than that cycle.
    drain: u64,
    /// Case (d): a `drain` bank at a burst end whose open row matches a
    /// queued write; acts under gate 4. No clock moves a bank in: with no
    /// ongoing access nothing activates a row, a refresh only closes it,
    /// and a new write marks the bank. Left clear when the variant never
    /// piggybacks (gate 4 never opens).
    piggyback: u64,
    /// Case (e): a bank whose ongoing write has reads behind it and is
    /// younger than the escalation age; acts under gate 8. Ageing only
    /// moves a bank out, so a stale bit costs one futile visit.
    preempt: u64,
}

/// Sets (`on`) or clears `bit` in `map`.
fn set_bit(map: &mut u64, bit: u64, on: bool) {
    if on {
        *map |= bit;
    } else {
        *map &= !bit;
    }
}

impl BurstScheduler {
    /// The policy for a controller with `core`'s geometry.
    pub(crate) fn new(core: &Core, opts: BurstOptions) -> Self {
        let nbanks = core.bank_count();
        let next_adapt = opts.dynamic_period.unwrap_or(0);
        BurstScheduler {
            banks: vec![BankQueues::default(); nbanks],
            opts,
            window_reads: 0,
            window_writes: 0,
            next_adapt,
            classes: vec![ClassWord::default(); nbanks.div_ceil(64)],
            next_escal: Cycle::MAX,
        }
    }

    /// The global predicates the bank arbiter consults beyond per-bank
    /// state, packed into one comparable byte: write-queue saturation,
    /// no-reads-anywhere, piggyback qualification and preemption headroom.
    /// Each [`ClassWord`] map acts under one of these terms.
    fn gates(&self, core: &Core) -> u8 {
        let wg = core.writes_outstanding() as u32;
        let mut g = 0u8;
        if wg >= core.cfg().write_capacity as u32 {
            g |= 1;
        }
        if core.reads_outstanding() == 0 {
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

    /// Recomputes `bank_idx`'s classes from its slot and queues at `now`
    /// (see [`ClassWord`]), min-folding the escalation cycle of a `drain`
    /// bank outside `always` into `next_escal`.
    fn refresh_class(&mut self, core: &Core, bank_idx: usize, dram: &Dram, now: Cycle) {
        let escalate_age = core.cfg().watchdog.escalate_age;
        let b = &self.banks[bank_idx];
        let (always, drain, piggyback, preempt) = match (core.ongoing(bank_idx), b.writes.front()) {
            (Some(og), _) => {
                let preempt = og.access.kind == AccessKind::Write
                    && now.saturating_sub(og.access.arrival) < escalate_age
                    && b.has_reads();
                (false, false, false, preempt)
            }
            (None, _) if b.has_reads() => (true, false, false, false),
            (None, None) => (false, false, false, false),
            (None, Some(front)) => {
                let esc_at = front.arrival + escalate_age;
                if esc_at > now {
                    self.next_escal = self.next_escal.min(esc_at);
                }
                let piggyback = self.opts.piggyback_above.is_some()
                    && b.at_burst_end
                    && core
                        .open_row(dram, bank_idx)
                        .is_some_and(|row| b.writes.iter().any(|w| w.loc.row == row));
                (esc_at <= now, true, piggyback, false)
            }
        };
        let bit = 1u64 << (bank_idx & 63);
        let c = &mut self.classes[bank_idx >> 6];
        set_bit(&mut c.always, bit, always);
        set_bit(&mut c.drain, bit, drain);
        set_bit(&mut c.piggyback, bit, piggyback);
        set_bit(&mut c.preempt, bit, preempt);
    }

    /// Puts `bank_idx` in `always` until its next visit recomputes it:
    /// the conservative mark for work arriving outside a visit.
    fn mark(&mut self, bank_idx: usize) {
        self.classes[bank_idx >> 6].always |= 1 << (bank_idx & 63);
    }

    /// At the escalation deadline, moves every `drain` bank whose front
    /// write has reached the escalation age into `always`, and re-derives
    /// the deadline from the rest. Walks only the `drain` bits; a marked
    /// bank is skipped, as its visit this tick recomputes it.
    fn escalate_drains(&mut self, core: &Core, now: Cycle) {
        if now < self.next_escal {
            return;
        }
        self.next_escal = Cycle::MAX;
        let escalate_age = core.cfg().watchdog.escalate_age;
        for (w, c) in self.classes.iter_mut().enumerate() {
            let mut word = c.drain & !c.always;
            while word != 0 {
                let bit = word & word.wrapping_neg();
                word &= word - 1;
                let bank_idx = (w << 6) + bit.trailing_zeros() as usize;
                let front = self.banks[bank_idx]
                    .writes
                    .front()
                    .expect("an unmarked drain bank holds writes");
                let esc_at = front.arrival + escalate_age;
                if esc_at <= now {
                    c.always |= bit;
                } else {
                    self.next_escal = self.next_escal.min(esc_at);
                }
            }
        }
    }

    /// Dynamic-threshold adaptation (Section 7 future work): pick the
    /// threshold proportional to the write share of recent arrivals. A
    /// write-heavy window pulls the threshold down so piggybacking starts
    /// early; a read-heavy window pushes it up so reads may preempt.
    fn adapt_threshold(&mut self, core: &Core, now: burst_dram::Cycle) {
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
            let cap = core.cfg().write_capacity as i128;
            let num = cap * (10 * i128::from(total) - 16 * i128::from(self.window_writes));
            let den = 10 * i128::from(total);
            let th = num.div_euclid(den).clamp(cap / 8, cap - 4).max(0) as u32;
            self.opts.preempt_below = th;
            self.opts.piggyback_above = Some(th);
        }
        self.window_reads = 0;
        self.window_writes = 0;
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

    /// The bank arbiter subroutine (Figure 5), run per bank per cycle. It
    /// installs, preempts or escalates an access, or leaves the queues,
    /// the slot and `at_burst_end` exactly as found ([`ClassWord`] lists
    /// the cases that act).
    fn bank_arbiter(&mut self, core: &mut Core, bank_idx: usize, dram: &Dram, now: Cycle) {
        let writes_global = core.writes_outstanding() as u32;
        let write_cap = core.cfg().write_capacity as u32;

        if let Some(og) = core.ongoing(bank_idx) {
            // Figure 5 lines 9-11: read preemption — a waiting read
            // interrupts an ongoing write while occupancy is below the
            // threshold. The preempted write restarts later.
            // An escalated (starvation-aged) write is immune: preempting it
            // would hand the bank straight back to the read stream that
            // starved it, re-starving it indefinitely.
            let preemptable = og.access.kind == AccessKind::Write
                && writes_global < self.opts.preempt_below
                && now.saturating_sub(og.access.arrival) < core.cfg().watchdog.escalate_age
                && self.banks[bank_idx].has_reads();
            if preemptable {
                let write = core.clear_ongoing(bank_idx).expect("ongoing write");
                self.banks[bank_idx].writes.push_front(write);
                let read = Self::pop_next_read(&mut self.banks[bank_idx]).expect("has_reads");
                self.banks[bank_idx].at_burst_end = false;
                core.set_ongoing(bank_idx, read)
                    .expect("slot was just cleared for preemption");
                core.stats_mut().preemptions += 1;
            }
            return;
        }

        // Starvation watchdog: an access past the escalation age bypasses
        // burst formation and piggyback qualification and is served
        // oldest-first — a write starved behind an endless read stream is
        // the canonical case (Section 5.1's pile-up, bounded).
        let escalate_age = core.cfg().watchdog.escalate_age;
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
                        AccessKind::Write => bank.writes.pop_front().expect("front write exists"),
                    };
                    bank.at_burst_end = false;
                    core.set_ongoing(bank_idx, access)
                        .expect("bank verified idle before escalation");
                    return;
                }
            }
        }

        let open_row = core.open_row(dram, bank_idx);
        let bank = &mut self.banks[bank_idx];

        // Reads are prioritised over writes globally: plain writes drain
        // only when no reads are outstanding anywhere, or when the write
        // queue saturates — which is why Intel and Burst pile up writes
        // (paper Section 5.1) and why write piggybacking exists.
        let no_reads_anywhere = core.reads_outstanding() == 0;

        // Figure 5 lines 1-8.
        let mut piggybacked = false;
        let pick: Option<Access> = if writes_global >= write_cap && !bank.writes.is_empty() {
            // Line 2-3: write queue full — drain the oldest write.
            bank.writes.pop_front()
        } else if let (Some(th), true, Some(row)) =
            (self.opts.piggyback_above, bank.at_burst_end, open_row)
        {
            // Line 4-5: write piggybacking at the end of a burst: the
            // oldest write directed at the open row, if qualified.
            let picked = if writes_global > th {
                oldest_row_hit(&bank.writes, row, usize::MAX).and_then(|i| bank.writes.remove(i))
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
                core.stats_mut().piggybacks += 1;
            } else {
                // Any non-piggyback pick leaves the burst-end window.
                self.banks[bank_idx].at_burst_end = false;
            }
            core.set_ongoing(bank_idx, access)
                .expect("bank verified idle at arbiter entry");
        }
    }

    /// Figure 5 lines 6-8: the first read of the next burst; the oldest
    /// write only when no reads are outstanding at all.
    fn fallthrough_pick(bank: &mut BankQueues, no_reads_anywhere: bool) -> Option<Access> {
        if bank.has_reads() {
            Self::pop_next_read(bank)
        } else if no_reads_anywhere {
            bank.writes.pop_front()
        } else {
            None
        }
    }
}

impl Policy for BurstScheduler {
    /// Table 2 picks among unblocked transactions only.
    const INCLUDE_BLOCKED: bool = false;

    fn mechanism(&self) -> Mechanism {
        self.opts.mechanism
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
                // Figure 4 lines 2-4: search the write queue (including an
                // ongoing, not-yet-issued write) for the latest write to the
                // same line and forward its data.
                if core.forward_read(
                    bank_idx,
                    &self.banks[bank_idx].writes,
                    &access,
                    now,
                    completions,
                ) {
                    return EnqueueOutcome::Forwarded;
                }
                // Figure 4 lines 5-8: join an existing burst or append a new
                // single-access burst at the end of the read queue.
                core.note_arrival(&access);
                self.window_reads += 1;
                self.mark(bank_idx);
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
            }
            AccessKind::Write => {
                // Figure 4 lines 9-10: writes enter the write queue in order
                // and complete immediately from the CPU's view.
                core.note_arrival(&access);
                self.window_writes += 1;
                self.mark(bank_idx);
                self.banks[bank_idx].writes.push_back(access);
            }
        }
        EnqueueOutcome::Queued
    }

    /// Re-enqueues a faulted access at the very front of its queue: a
    /// retry is the oldest work its bank has.
    fn requeue(&mut self, core: &Core, access: Access) {
        let bank_idx = core.global_bank(access.loc);
        self.mark(bank_idx);
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

    fn pre_tick(&mut self, core: &Core, now: Cycle) {
        self.adapt_threshold(core, now);
        self.escalate_drains(core, now);
    }

    fn arbitrate(&mut self, core: &mut Core, dram: &Dram, channel: usize, now: Cycle) {
        // The live gate byte, read per channel: an issue on an earlier
        // channel can move the counters it reads, while picks inside a
        // walk never do (counters change only on enqueue, issue and
        // completion).
        let gates = self.gates(core);
        let open = |bits: u8| if gates & bits != 0 { u64::MAX } else { 0 };
        let (drain, piggyback, preempt) = (open(1 | 2), open(4), open(8));
        // Visit only banks whose class acts under these gates: any other
        // bank's arbiter call is a no-op (see `ClassWord`).
        let range = core.bank_range(channel);
        let mut bank_idx = range.start;
        while bank_idx < range.end {
            let c = self.classes[bank_idx >> 6];
            let acts =
                c.always | (c.drain & drain) | (c.piggyback & piggyback) | (c.preempt & preempt);
            let shifted = acts >> (bank_idx & 63);
            if shifted == 0 {
                bank_idx = (bank_idx | 63) + 1;
                continue;
            }
            bank_idx += shifted.trailing_zeros() as usize;
            if bank_idx >= range.end {
                break;
            }
            self.bank_arbiter(core, bank_idx, dram, now);
            self.refresh_class(core, bank_idx, dram, now);
            bank_idx += 1;
        }
    }

    fn select(&mut self, core: &Core, channel: usize, cands: &[Candidate]) -> Option<Candidate> {
        let (last_bank, last_rank) = core.last_target(channel);
        select_table2(cands, last_bank, last_rank)
    }

    fn column_issued(&mut self, core: &Core, dram: &Dram, cand: &Candidate, now: Cycle) {
        match cand.kind {
            AccessKind::Read => {
                // A read burst ends when its last read's column access has
                // been scheduled and no new read joined.
                let bank = &mut self.banks[cand.bank];
                if let Some(front) = bank.bursts.front() {
                    if front.row == cand.loc.row && front.accesses.is_empty() {
                        bank.bursts.pop_front();
                        bank.at_burst_end = true;
                    }
                }
            }
            AccessKind::Write => {
                // A completed write leaves its row open: qualified
                // (same-row) writes may be appended behind it, draining
                // whole row-clusters of writebacks — "exploits the locality
                // of row hits from writes" (Section 3.2).
                self.banks[cand.bank].at_burst_end = true;
            }
        }
        // The column freed the bank's slot (or parked a faulted access for
        // retry): recompute its classes.
        self.refresh_class(core, cand.bank, dram, now);
    }

    fn busy_event(&self, core: &Core, dram: &Dram, last: Cycle, event: Cycle) -> Option<Cycle> {
        let mut event = event;
        let t = last + 1;
        if self.opts.dynamic_period.is_some() {
            // The adaptation timer rewrites the thresholds and zeroes the
            // arrival windows when it fires; that tick must be stepped.
            if self.next_adapt <= t {
                return None;
            }
            event = event.min(self.next_adapt);
        }
        let escalate_age = core.cfg().watchdog.escalate_age;
        let writes_global = core.writes_outstanding() as u32;
        let write_cap = core.cfg().write_capacity as u32;
        let no_reads_anywhere = core.reads_outstanding() == 0;
        // Only banks in `always`, `drain` or `preempt` can veto or bound
        // the horizon: every other bank is slot-busy with a read, with a
        // write that has no reads behind it or has reached the escalation
        // age, or idle and empty — and every arm below contributes nothing
        // for those. (A stale or marked bit just scores nothing.)
        for (w, c) in self.classes.iter().enumerate() {
            let mut word = c.always | c.drain | c.preempt;
            while word != 0 {
                let bank_idx = (w << 6) + word.trailing_zeros() as usize;
                word &= word - 1;
                let bank = &self.banks[bank_idx];
                if let Some(og) = core.ongoing(bank_idx) {
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
                if let (Some(th), true, Some(row)) = (
                    self.opts.piggyback_above,
                    bank.at_burst_end,
                    core.open_row(dram, bank_idx),
                ) {
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

    fn advance_quiescent(&mut self, core: &Core, from: Cycle, n: u64) {
        // Replay the adaptation timer over the skipped window. The first
        // fire must run for real — arrival-window counters accumulated
        // before quiescence may still cross the adaptation minimum — and
        // it zeroes the windows, so every later fire in the window is a
        // pure re-arm. `end - f0` stays exact: f0 <= end by the guard.
        if let Some(period) = self.opts.dynamic_period {
            let end = from + n - 1;
            if self.next_adapt <= end {
                let f0 = self.next_adapt.max(from);
                self.adapt_threshold(core, f0);
                self.next_adapt = match (end - f0).checked_div(period) {
                    Some(intervals) => f0 + (intervals + 1) * period,
                    None => end, // period == 0: re-arm at the window edge
                };
            }
        }
    }

    fn advance_blocked(&self, from: Cycle, n: u64) {
        if self.opts.dynamic_period.is_some() {
            debug_assert!(
                from + n - 1 < self.next_adapt,
                "adaptation timer would fire inside a skipped busy stretch"
            );
        }
    }

    fn save_snap(&self, w: &mut burst_snap::SnapWriter) {
        let Self {
            banks,
            opts,
            window_reads,
            window_writes,
            next_adapt,
            classes: _,    // arbiter classes; restore marks every bank
            next_escal: _, // escalation deadline; restore resets it
        } = self;
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
    }

    fn load_snap(
        &mut self,
        _core: &Core,
        r: &mut burst_snap::SnapReader,
    ) -> Result<(), burst_snap::SnapError> {
        use burst_snap::SnapError;
        let Self {
            banks,
            opts,
            window_reads,
            window_writes,
            next_adapt,
            classes,
            next_escal,
        } = self;
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
        // The classes are derived state: mark every bank, so the first
        // visits recompute them (and fold the escalation deadline) from
        // the restored slots and queues.
        classes.fill(ClassWord::default());
        *next_escal = Cycle::MAX;
        for b in 0..self.banks.len() {
            self.mark(b);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanisms::{AccessScheduler, Controller};
    use crate::{AccessId, CtrlConfig};
    use burst_dram::{AddressMapping, DramConfig, Geometry, Loc, PhysAddr};

    /// A burst-scheduling controller with `opts`.
    pub(super) fn burst(
        ctrl: CtrlConfig,
        geom: Geometry,
        opts: BurstOptions,
    ) -> Controller<BurstScheduler> {
        Controller::new(ctrl, geom, |core| BurstScheduler::new(core, opts))
    }

    fn setup(opts: BurstOptions) -> (Controller<BurstScheduler>, Dram) {
        let cfg = DramConfig::baseline();
        (
            burst(CtrlConfig::default(), cfg.geometry, opts),
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
        let bank = &s.policy.banks[s.core.global_bank(Loc::new(0, 0, 0, 0, 0))];
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
        let bank = &s.policy.banks[s.core.global_bank(Loc::new(0, 0, 0, 0, 0))];
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
            s.policy.opts.preempt_below < 52,
            "write flood should lower the threshold, got {}",
            s.policy.opts.preempt_below
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
            s.policy.opts.preempt_below > 16,
            "read flood should raise the threshold, got {}",
            s.policy.opts.preempt_below
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
        let mut s = burst(ctrl, cfg.geometry, th(52));
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
        let mut s = burst(ctrl, cfg.geometry, th(52));
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
        let mut s = burst(ctrl, cfg.geometry, th(52));
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

    /// Figure 5 taken literally: `bank_arbiter` on every bank of the
    /// channel, with the wrapped scheduler doing everything else. Its
    /// class maps go stale, so it never reads them.
    #[derive(Debug)]
    struct EveryBank(BurstScheduler);

    impl Policy for EveryBank {
        const INCLUDE_BLOCKED: bool = false;

        fn mechanism(&self) -> Mechanism {
            self.0.mechanism()
        }

        fn enqueue(
            &mut self,
            core: &mut Core,
            access: Access,
            now: Cycle,
            completions: &mut Vec<Completion>,
        ) -> EnqueueOutcome {
            self.0.enqueue(core, access, now, completions)
        }

        fn requeue(&mut self, core: &Core, access: Access) {
            self.0.requeue(core, access);
        }

        fn pre_tick(&mut self, core: &Core, now: Cycle) {
            self.0.adapt_threshold(core, now);
        }

        fn arbitrate(&mut self, core: &mut Core, dram: &Dram, channel: usize, now: Cycle) {
            for bank_idx in core.bank_range(channel) {
                self.0.bank_arbiter(core, bank_idx, dram, now);
            }
        }

        fn select(
            &mut self,
            core: &Core,
            channel: usize,
            cands: &[Candidate],
        ) -> Option<Candidate> {
            self.0.select(core, channel, cands)
        }

        fn column_issued(&mut self, core: &Core, dram: &Dram, cand: &Candidate, now: Cycle) {
            self.0.column_issued(core, dram, cand, now);
        }

        fn busy_event(&self, _: &Core, _: &Dram, _: Cycle, _: Cycle) -> Option<Cycle> {
            None
        }

        fn advance_quiescent(&mut self, core: &Core, from: Cycle, n: u64) {
            self.0.advance_quiescent(core, from, n);
        }

        fn save_snap(&self, w: &mut burst_snap::SnapWriter) {
            self.0.save_snap(w);
        }

        fn load_snap(
            &mut self,
            core: &Core,
            r: &mut burst_snap::SnapReader,
        ) -> Result<(), burst_snap::SnapError> {
            self.0.load_snap(core, r)
        }
    }

    fn state(s: &impl AccessScheduler) -> Vec<u8> {
        let mut w = burst_snap::SnapWriter::new();
        s.save_state(&mut w).expect("burst snapshots");
        w.into_bytes()
    }

    #[test]
    fn class_walk_matches_visiting_every_bank() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let cfg = DramConfig::baseline();
        let g = cfg.geometry;
        // A short escalation age, so writes parked under shut gates age
        // into escalation within the run.
        let ctrl = CtrlConfig {
            watchdog: crate::WatchdogConfig {
                escalate_age: 400,
                stall_limit: 1_000_000,
            },
            ..CtrlConfig::default()
        };
        let cap = ctrl.write_capacity as u32;
        // The options `Mechanism::build` gives each variant.
        let variants = [
            BurstOptions::static_threshold(0, None, Mechanism::Burst),
            BurstOptions::static_threshold(cap, None, Mechanism::BurstRp),
            BurstOptions::static_threshold(0, Some(0), Mechanism::BurstWp),
            th(52),
            BurstOptions {
                dynamic_period: Some(1024),
                ..BurstOptions::static_threshold(52, Some(52), Mechanism::BurstDyn)
            },
        ];
        let (mut gates_set, mut gates_clear) = (0u8, 0u8);
        for opts in variants {
            let m = opts.mechanism;
            let mut walk = burst(ctrl, g, opts);
            let mut every =
                Controller::new(ctrl, g, |core| EveryBank(BurstScheduler::new(core, opts)));
            let mut dram_walk = Dram::new(cfg, AddressMapping::PageInterleaving);
            let mut dram_every = Dram::new(cfg, AddressMapping::PageInterleaving);
            let (mut done_walk, mut done_every) = (Vec::new(), Vec::new());
            let mut rng = SmallRng::seed_from_u64(0xb0b5);
            let mut next_id = 0u64;
            // The pointer chase's one outstanding read, if any.
            let mut chase: Option<AccessId> = None;
            for now in 0..12_000u64 {
                // Each 4000 cycles: a write-back storm under the chase, then
                // a read stream that keeps the queued writes parked until
                // they escalate, then the chase alone.
                let phase = now % 4000;
                let p_write = if phase < 1500 { 0.45 } else { 0.03 };
                let mut arrivals = Vec::new();
                let read = if (1500..3000).contains(&phase) {
                    rng.gen_bool(0.15)
                } else {
                    chase.is_none() && rng.gen_bool(0.25)
                };
                if read {
                    arrivals.push(AccessKind::Read);
                }
                if rng.gen_bool(p_write) {
                    arrivals.push(AccessKind::Write);
                }
                for kind in arrivals {
                    // Four rows per bank: bursts, row-hit writes and
                    // same-address forwards all occur.
                    let loc = Loc::new(
                        rng.gen_range(0..g.channels),
                        rng.gen_range(0..g.ranks_per_channel),
                        rng.gen_range(0..g.banks_per_rank),
                        rng.gen_range(0..4),
                        8 * rng.gen_range(0..4u32),
                    );
                    let bank = walk.core.global_bank(loc) as u64;
                    let line = ((bank * 4 + u64::from(loc.row)) * 4 + u64::from(loc.col / 8)) * 64;
                    let a =
                        Access::new(AccessId::new(next_id), kind, PhysAddr::new(line), loc, now);
                    if !walk.can_accept(kind) {
                        continue;
                    }
                    next_id += 1;
                    let out = walk.enqueue(a, now, &mut done_walk);
                    assert_eq!(out, every.enqueue(a, now, &mut done_every));
                    if kind == AccessKind::Read && out == EnqueueOutcome::Queued {
                        chase = Some(a.id);
                    }
                }
                walk.tick(&mut dram_walk, now, &mut done_walk);
                every.tick(&mut dram_every, now, &mut done_every);
                assert_eq!(done_walk, done_every, "{m}: completions at {now}");
                assert_eq!(state(&walk), state(&every), "{m}: state at {now}");
                if chase.is_some_and(|id| done_walk.iter().any(|c| c.id == id)) {
                    chase = None;
                }
                done_walk.clear();
                done_every.clear();
                let gates = walk.policy.gates(&walk.core);
                gates_set |= gates;
                gates_clear |= !gates;
            }
            let stats = walk.stats();
            assert!(stats.escalations > 0, "{m}: no escalation");
            if opts.piggyback_above.is_some() {
                assert!(stats.piggybacks > 0, "{m}: no piggyback");
            }
            if opts.preempt_below > 0 {
                assert!(stats.preemptions > 0, "{m}: no preemption");
            }
        }
        assert_eq!(gates_set & 0xF, 0xF, "every gate bit opens");
        assert_eq!(gates_clear & 0xF, 0xF, "every gate bit shuts");
    }
}

#[cfg(test)]
mod critical_tests {
    use super::tests::burst;
    use super::*;
    use crate::mechanisms::AccessScheduler;
    use crate::{AccessId, CtrlConfig};
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
        let mut s = burst(CtrlConfig::default(), cfg.geometry, crit_opts());
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
        let mut s = burst(
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
        let mut s = burst(CtrlConfig::default(), cfg.geometry, crit_opts());
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
