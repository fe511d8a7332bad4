//! Shared controller machinery used by every access reordering mechanism:
//! per-bank ongoing-access slots, transaction derivation, issue bookkeeping
//! and statistics sampling.
//!
//! Each bank has at most one *ongoing access* — "the access for which
//! transactions are currently being scheduled, but have not yet been
//! completed" (paper Section 3.2). Mechanisms differ in how the ongoing
//! access is chosen (the bank arbiter) and in which unblocked transaction is
//! issued each cycle (the transaction scheduler); everything else lives here.

use std::collections::{BTreeMap, VecDeque};

use crate::{Access, AccessId, AccessKind, Completion, CtrlConfig, CtrlStats, StallDiagnostic};
use burst_dram::{Command, Cycle, Dram, Geometry, Loc, RowState};

/// Arrival cycles of outstanding accesses, keyed by dense access id.
///
/// Ids are assigned monotonically, so a windowed slab (slot `id - base`)
/// replaces the former `BTreeMap<AccessId, Cycle>`: insertion and removal
/// are array writes and the oldest outstanding access — queried every tick
/// by the watchdog — is simply the window's front. Slots of completed (or
/// never-arrived, e.g. forwarded) ids hold a sentinel and are popped from
/// the front as they become oldest.
#[derive(Debug, Default)]
struct AgeWindow {
    /// Access id of `slots[0]`.
    base: u64,
    /// Arrival cycle per id, or [`AgeWindow::EMPTY`] for ids not currently
    /// outstanding. Invariant: the front slot, if any, is never empty.
    slots: VecDeque<u64>,
}

impl AgeWindow {
    /// Sentinel for "not outstanding". Arrival cycles never reach it.
    const EMPTY: u64 = u64::MAX;

    fn insert(&mut self, id: AccessId, arrival: Cycle) {
        debug_assert_ne!(arrival, Self::EMPTY, "sentinel collision");
        if self.slots.is_empty() {
            self.base = id.value();
        } else if id.value() < self.base {
            // Defensive: callers outside the simulator may enqueue ids out
            // of order; grow the window backwards to keep indexing dense.
            for _ in 0..self.base - id.value() {
                self.slots.push_front(Self::EMPTY);
            }
            self.base = id.value();
        }
        let idx = id.value() - self.base;
        while (self.slots.len() as u64) <= idx {
            self.slots.push_back(Self::EMPTY);
        }
        self.slots[idx as usize] = arrival;
    }

    fn remove(&mut self, id: AccessId) {
        let Some(idx) = id.value().checked_sub(self.base) else {
            return;
        };
        if idx >= self.slots.len() as u64 {
            return;
        }
        self.slots[idx as usize] = Self::EMPTY;
        while self.slots.front() == Some(&Self::EMPTY) {
            self.slots.pop_front();
            self.base += 1;
        }
    }

    /// The oldest outstanding access: `(id, arrival)`.
    fn oldest(&self) -> Option<(AccessId, Cycle)> {
        self.slots
            .front()
            .map(|&arrival| (AccessId::new(self.base), arrival))
    }

    fn save_snap(&self, w: &mut burst_snap::SnapWriter) {
        let Self { base, slots } = self;
        w.u64(*base);
        w.usize(slots.len());
        for &arrival in slots {
            w.u64(arrival);
        }
    }

    fn load_snap(&mut self, r: &mut burst_snap::SnapReader) -> Result<(), burst_snap::SnapError> {
        let Self { base, slots } = self;
        *base = r.u64()?;
        let n = r.seq_len(8)?;
        slots.clear();
        for _ in 0..n {
            slots.push_back(r.u64()?);
        }
        Ok(())
    }
}

/// The access a bank is currently working on.
#[derive(Debug, Clone, Copy)]
pub struct Ongoing {
    /// The access being executed.
    pub access: Access,
    /// Whether any transaction has been issued for it yet. Accesses are
    /// classified (row hit/empty/conflict) when their first transaction
    /// issues; preempting an already-started write re-classifies it on
    /// restart, mirroring the extra device work the restart performs.
    pub started: bool,
}

/// A schedulable transaction: one bank's ongoing access whose next
/// transaction is unblocked at the current cycle.
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    /// Global bank index (see [`Core::global_bank`]).
    pub bank: usize,
    /// The transaction to issue.
    pub cmd: Command,
    /// Target location.
    pub loc: Loc,
    /// Read or write.
    pub kind: AccessKind,
    /// Arrival cycle of the access (for oldest-first tie-breaks).
    pub arrival: Cycle,
    /// Access id (stable tie-break).
    pub id: AccessId,
    /// Whether the access already started (Intel's finish-first rule).
    pub started: bool,
    /// Whether the transaction satisfies all timing constraints this
    /// cycle. Burst's Table 2 only considers unblocked transactions;
    /// conventional schedulers commit by policy order and may pick a
    /// blocked one, wasting the cycle (the paper's "bubble cycles").
    pub unblocked: bool,
    /// Whether the access exceeded the watchdog's escalation age; the
    /// transaction schedulers give escalated candidates top priority.
    pub escalated: bool,
}

/// Shared bookkeeping core embedded by each mechanism.
#[derive(Debug)]
pub struct Core {
    cfg: CtrlConfig,
    geom: Geometry,
    ongoing: Vec<Option<Ongoing>>,
    last_bank: Vec<Option<usize>>,
    last_rank: Vec<Option<u8>>,
    stats: CtrlStats,
    reads_outstanding: usize,
    writes_outstanding: usize,
    /// Cached `(id, bank, rank)` of the oldest ongoing access per channel,
    /// recomputed lazily (see `ongoing_dirty`) by [`Core::steer_to_oldest`].
    oldest_ongoing: Vec<Option<(AccessId, usize, u8)>>,
    /// Whether a channel's ongoing set changed since its cache entry was
    /// computed. Set on every install/remove; most ticks change nothing,
    /// so the steering scan over all banks is skipped.
    ongoing_dirty: Vec<bool>,
    /// Occupied-slot bitmap, one bit per global bank: set iff the bank has
    /// an ongoing access. Mirrors `ongoing` exactly (derived state, absent
    /// from checkpoints) so the per-cycle candidate/steering/event scans
    /// touch only occupied slots instead of every bank.
    ongoing_mask: Vec<u64>,
    /// Per-bank cached next transaction of the slot's ongoing access and a
    /// lower bound on the first cycle it could pass [`Channel::can_issue`]
    /// (derived state, absent from checkpoints). The command stays valid
    /// while the bank's device state is untouched — only a command issued
    /// *to this bank* or a refresh changes it, and both drop the entry.
    /// The bound stays a valid lower bound across *other* banks' issues
    /// because every cross-bank timing side effect is monotone: `*_ready_at`
    /// stamps and `data_busy_until` only grow, and a turnaround penalty the
    /// cached command no longer pays against the newest transfer was paid
    /// by that transfer itself (the per-attribute gap obeys a triangle
    /// inequality). So `now < bound` proves the slot contributes no
    /// unblocked candidate, with no timing query at all.
    cand_cache: Vec<Option<(Command, Cycle)>>,
    /// `BusStats::refreshes` of each channel when its `cand_cache` entries
    /// were computed. A refresh rewrites bank rows without passing through
    /// [`Core::issue_candidate`], so a mismatch drops the whole channel's
    /// entries. `u64::MAX` forces the drop (fresh core or restored
    /// checkpoint).
    cand_epoch: Vec<u64>,
    /// Per-channel ready floor: a lower bound on the first cycle any
    /// occupied slot of the channel could pass [`Channel::can_issue`]
    /// (derived state, absent from checkpoints). The last candidate scan
    /// sets it to the minimum of the slots' cached bounds, which is at
    /// most the scan's `now` when a slot was unblocked, and `Cycle::MAX`
    /// for an empty channel. An install ([`Core::set_ongoing`]) or an
    /// issue ([`Core::issue_candidate`]) on the channel zeroes it; a slot
    /// leaving only shrinks the set it bounds; other channels' issues
    /// touch none of its banks' timing; and a refresh is caught by the
    /// `cand_epoch` check in [`Core::barren`]. So `now` below the floor
    /// proves the channel holds no unblocked candidate.
    ready_floor: Vec<Cycle>,
    /// Arrival cycle of every outstanding access, keyed by id. Ids and
    /// arrivals are both monotone, so the first entry is the oldest access.
    ages: AgeWindow,
    /// Attempt counts of accesses that have faulted at least once.
    /// BTreeMap, not HashMap: iterated during snapshotting, and anything
    /// iterated in timing-observable code must have a deterministic order.
    attempts: BTreeMap<AccessId, u32>,
    /// Faulted accesses awaiting re-enqueue by the mechanism's tick.
    retry_pending: Vec<Access>,
    /// Cycle of the last forward progress (transaction issue or arrival).
    last_progress: Cycle,
    /// Latched forward-progress failure, if any.
    stall: Option<StallDiagnostic>,
}

impl Core {
    /// Creates the core for a device of the given geometry.
    pub fn new(cfg: CtrlConfig, geom: Geometry) -> Self {
        let nbanks = geom.total_banks() as usize;
        let nch = usize::from(geom.channels);
        Core {
            stats: CtrlStats::new(cfg.pool_capacity),
            cfg,
            geom,
            ongoing: vec![None; nbanks],
            last_bank: vec![None; nch],
            last_rank: vec![None; nch],
            oldest_ongoing: vec![None; nch],
            ongoing_dirty: vec![true; nch],
            ongoing_mask: vec![0; nbanks.div_ceil(64)],
            cand_cache: vec![None; nbanks],
            cand_epoch: vec![u64::MAX; nch],
            ready_floor: vec![0; nch],
            reads_outstanding: 0,
            writes_outstanding: 0,
            ages: AgeWindow::default(),
            attempts: BTreeMap::new(),
            retry_pending: Vec::new(),
            last_progress: 0,
            stall: None,
        }
    }

    /// Controller configuration.
    pub fn cfg(&self) -> &CtrlConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CtrlStats {
        &self.stats
    }

    /// Exclusive statistics access (for mechanism-specific counters).
    pub fn stats_mut(&mut self) -> &mut CtrlStats {
        &mut self.stats
    }

    /// Number of banks per channel.
    pub fn banks_per_channel(&self) -> usize {
        usize::from(self.geom.ranks_per_channel) * usize::from(self.geom.banks_per_rank)
    }

    /// Total banks across all channels.
    pub fn bank_count(&self) -> usize {
        self.ongoing.len()
    }

    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.last_bank.len()
    }

    /// The row open in global bank `bank_idx`, if any.
    pub fn open_row(&self, dram: &Dram, bank_idx: usize) -> Option<u32> {
        let per_channel = self.banks_per_channel();
        let bpr = usize::from(self.geom.banks_per_rank);
        let within = bank_idx % per_channel;
        dram.channel(bank_idx / per_channel)
            .bank((within / bpr) as u8, (within % bpr) as u8)
            .open_row()
    }

    /// Maps a location to its global bank index.
    pub fn global_bank(&self, loc: Loc) -> usize {
        (usize::from(loc.channel) * usize::from(self.geom.ranks_per_channel)
            + usize::from(loc.rank))
            * usize::from(self.geom.banks_per_rank)
            + usize::from(loc.bank)
    }

    /// The range of global bank indices belonging to `channel`.
    pub fn bank_range(&self, channel: usize) -> core::ops::Range<usize> {
        let per = self.banks_per_channel();
        channel * per..(channel + 1) * per
    }

    /// Outstanding read count (queued + ongoing).
    pub fn reads_outstanding(&self) -> usize {
        self.reads_outstanding
    }

    /// Outstanding write count (queued + ongoing).
    pub fn writes_outstanding(&self) -> usize {
        self.writes_outstanding
    }

    /// Records an access entering the controller (enqueue).
    pub fn note_arrival(&mut self, access: &Access) {
        match access.kind {
            AccessKind::Read => self.reads_outstanding += 1,
            AccessKind::Write => self.writes_outstanding += 1,
        }
        self.ages.insert(access.id, access.arrival);
        // An arrival is forward progress: the stall clock measures time
        // with a *static* outstanding set and no issue.
        self.last_progress = self.last_progress.max(access.arrival);
    }

    /// Forwards `read` from write data (paper Figure 4 lines 2-4) if a
    /// write to its address is queued in `queued_writes` — the write queue
    /// of the read's bank, `bank_idx` — or is that bank's ongoing access:
    /// records the completion and returns `true`. A forwarded read is never
    /// counted as outstanding. The same address decodes to the same bank,
    /// so no other bank's writes can match.
    pub fn forward_read(
        &mut self,
        bank_idx: usize,
        queued_writes: &VecDeque<Access>,
        read: &Access,
        now: Cycle,
        completions: &mut Vec<Completion>,
    ) -> bool {
        let hit = queued_writes.iter().any(|w| w.addr == read.addr)
            || self
                .ongoing(bank_idx)
                .is_some_and(|o| o.access.kind == AccessKind::Write && o.access.addr == read.addr);
        if hit {
            self.stats.forwards += 1;
            self.stats.read_done(0);
            completions.push(Completion {
                id: read.id,
                kind: AccessKind::Read,
                done_at: now,
                latency: 0,
                forwarded: true,
            });
        }
        hit
    }

    /// Whether a new access of `kind` can be accepted: the pool has space
    /// and the write queue is not saturated (a full write queue blocks all
    /// new accesses — paper Section 3.2).
    pub fn can_accept(&self, _kind: AccessKind) -> bool {
        self.reads_outstanding + self.writes_outstanding < self.cfg.pool_capacity
            && self.writes_outstanding < self.cfg.write_capacity
    }

    /// The ongoing access of a bank.
    pub fn ongoing(&self, bank: usize) -> Option<&Ongoing> {
        self.ongoing[bank].as_ref()
    }

    /// Installs `access` as the bank's ongoing access.
    ///
    /// # Errors
    ///
    /// Returns the access back if the slot is already occupied — a bank
    /// arbiter bug that previously only debug-asserted; in release builds
    /// it silently dropped the displaced access. Callers must handle or
    /// `expect` the result.
    #[must_use = "an occupied slot returns the access back; dropping it loses the access"]
    pub fn set_ongoing(&mut self, bank: usize, access: Access) -> Result<(), Access> {
        if self.ongoing[bank].is_some() {
            return Err(access);
        }
        let entry = (access.id, bank, access.loc.rank);
        self.ongoing[bank] = Some(Ongoing {
            access,
            started: false,
        });
        self.ongoing_mask[bank >> 6] |= 1 << (bank & 63);
        self.cand_cache[bank] = None;
        let chan = bank / self.banks_per_channel();
        self.ready_floor[chan] = 0;
        // An insertion merges into the steering minimum in O(1); a clean
        // cache stays clean, so the rescan in `steer_to_oldest` runs only
        // after the tracked oldest itself left its slot.
        if !self.ongoing_dirty[chan] {
            match self.oldest_ongoing[chan] {
                Some(cur) if cur <= entry => {}
                _ => self.oldest_ongoing[chan] = Some(entry),
            }
        }
        Ok(())
    }

    /// Marks the steering cache for `chan` after the ongoing access of
    /// `bank` left its slot: removing anything but the tracked minimum
    /// leaves the minimum intact.
    fn note_ongoing_removed(&mut self, chan: usize, bank: usize) {
        if !self.ongoing_dirty[chan] {
            match self.oldest_ongoing[chan] {
                Some((_, b, _)) if b != bank => {}
                _ => self.ongoing_dirty[chan] = true,
            }
        }
    }

    /// Removes and returns the bank's ongoing access (read preemption).
    pub fn clear_ongoing(&mut self, bank: usize) -> Option<Access> {
        let taken = self.ongoing[bank].take().map(|o| o.access);
        if taken.is_some() {
            self.ongoing_mask[bank >> 6] &= !(1 << (bank & 63));
            self.cand_cache[bank] = None;
            let chan = bank / self.banks_per_channel();
            self.note_ongoing_removed(chan, bank);
        }
        taken
    }

    /// Derives the next transaction for an access at `loc`: column access on
    /// a row hit, activate on a row empty, precharge on a row conflict. The
    /// row policy decides whether column accesses carry auto-precharge.
    pub fn next_command(&self, loc: Loc, kind: AccessKind, dram: &Dram) -> Command {
        let ch = dram.channel(usize::from(loc.channel));
        match ch.row_state(loc) {
            RowState::Hit => Command::Column {
                loc,
                dir: kind.dir(),
                auto_precharge: self.cfg.row_policy.auto_precharge(),
            },
            RowState::Empty => Command::Activate(loc),
            RowState::Conflict => Command::Precharge(loc),
        }
    }

    /// Collects every bank of `channel` whose ongoing access has an
    /// unblocked next transaction at `now`.
    pub fn fill_candidates(
        &mut self,
        dram: &Dram,
        channel: usize,
        now: Cycle,
        out: &mut Vec<Candidate>,
    ) {
        self.fill_candidates_impl(dram, channel, now, out, false);
    }

    /// Like [`Core::fill_candidates`], but also includes banks whose next
    /// transaction is currently blocked (with `unblocked == false`), for
    /// schedulers that commit by policy order without timing awareness.
    pub fn fill_all_candidates(
        &mut self,
        dram: &Dram,
        channel: usize,
        now: Cycle,
        out: &mut Vec<Candidate>,
    ) {
        self.fill_candidates_impl(dram, channel, now, out, true);
    }

    /// Every bank of `channel` holding an ongoing access, with that
    /// access, in ascending bank order. Walks the occupied-slot bitmap
    /// instead of probing every slot; takes the two fields rather than
    /// `&self` so callers may update other fields while iterating.
    fn occupied<'a>(
        ongoing_mask: &'a [u64],
        ongoing: &'a [Option<Ongoing>],
        range: core::ops::Range<usize>,
    ) -> impl Iterator<Item = (usize, &'a Ongoing)> {
        let mut bank = range.start;
        core::iter::from_fn(move || {
            while bank < range.end {
                let shifted = ongoing_mask[bank >> 6] >> (bank & 63);
                if shifted == 0 {
                    bank = (bank | 63) + 1;
                    continue;
                }
                let found = bank + shifted.trailing_zeros() as usize;
                if found >= range.end {
                    return None;
                }
                bank = found + 1;
                let og = ongoing[found]
                    .as_ref()
                    .expect("ongoing_mask bit set on an empty slot");
                return Some((found, og));
            }
            None
        })
    }

    fn fill_candidates_impl(
        &mut self,
        dram: &Dram,
        channel: usize,
        now: Cycle,
        out: &mut Vec<Candidate>,
        include_blocked: bool,
    ) {
        out.clear();
        let ch = dram.channel(channel);
        let epoch = ch.stats().refreshes;
        if self.cand_epoch[channel] != epoch {
            let range = self.bank_range(channel);
            self.cand_cache[range].fill(None);
            self.cand_epoch[channel] = epoch;
        }
        let escalate_age = self.cfg.watchdog.escalate_age;
        let range = self.bank_range(channel);
        let mut floor = Cycle::MAX;
        for (bank, og) in Self::occupied(&self.ongoing_mask, &self.ongoing, range) {
            let (cmd, mut bound) = match self.cand_cache[bank] {
                Some(c) => c,
                None => {
                    let cmd = self.next_command(og.access.loc, og.access.kind, dram);
                    let bound = ch.earliest_issue(&cmd, now).unwrap_or(now);
                    self.cand_cache[bank] = Some((cmd, bound));
                    (cmd, bound)
                }
            };
            // Below the cached bound the command is provably illegal — no
            // timing query needed. At or past it, verify for real; a miss
            // there (command bus taken this cycle, refresh pending on the
            // rank) re-derives the bound from the current timing state.
            let unblocked = now >= bound && {
                let ok = ch.can_issue(&cmd, now);
                if !ok {
                    bound = ch.earliest_issue(&cmd, now).unwrap_or(now);
                    self.cand_cache[bank] = Some((cmd, bound));
                }
                ok
            };
            floor = floor.min(bound);
            if unblocked || include_blocked {
                out.push(Candidate {
                    bank,
                    cmd,
                    loc: og.access.loc,
                    kind: og.access.kind,
                    arrival: og.access.arrival,
                    id: og.access.id,
                    started: og.started,
                    unblocked,
                    escalated: now.saturating_sub(og.access.arrival) >= escalate_age,
                });
            }
        }
        self.ready_floor[channel] = floor;
    }

    /// Whether `channel` provably holds no unblocked candidate at `now`:
    /// `now` lies below its ready floor (see the field) and no refresh
    /// has run since the scan that set it. A barren channel's candidate
    /// scan would write nothing and find nothing to select, so the tick
    /// may skip straight to [`Core::steer_to_oldest`].
    pub fn barren(&self, dram: &Dram, channel: usize, now: Cycle) -> bool {
        now < self.ready_floor[channel]
            && self.cand_epoch[channel] == dram.channel(channel).stats().refreshes
    }

    /// The last bank/rank a transaction was scheduled for on `channel`.
    pub fn last_target(&self, channel: usize) -> (Option<usize>, Option<u8>) {
        (self.last_bank[channel], self.last_rank[channel])
    }

    /// Fig. 6 lines 14–15: when nothing could be scheduled, steer the next
    /// cycle toward the bank holding the oldest ongoing access.
    pub fn steer_to_oldest(&mut self, channel: usize) {
        if self.ongoing_dirty[channel] {
            let range = self.bank_range(channel);
            self.oldest_ongoing[channel] = Self::occupied(&self.ongoing_mask, &self.ongoing, range)
                .map(|(b, o)| (o.access.id, b, o.access.loc.rank))
                .min();
            self.ongoing_dirty[channel] = false;
        }
        if let Some((_, bank, rank)) = self.oldest_ongoing[channel] {
            self.last_bank[channel] = Some(bank);
            self.last_rank[channel] = Some(rank);
        }
    }

    /// Issues `cand`'s transaction, updating classification, last-target
    /// steering, pool counts and completions. Returns `true` when the
    /// transaction was a column access, i.e. the ongoing access finished
    /// scheduling and its slot is now free.
    pub fn issue_candidate(
        &mut self,
        dram: &mut Dram,
        now: Cycle,
        cand: &Candidate,
        completions: &mut Vec<Completion>,
    ) -> bool {
        let chan = usize::from(cand.loc.channel);
        // Classify on first transaction issue.
        {
            let state = dram.channel(chan).row_state(cand.loc);
            let og = self.ongoing[cand.bank]
                .as_mut()
                .expect("candidate without ongoing access");
            if !og.started {
                og.started = true;
                self.stats.classify(state);
                // Count each access that begins service past the watchdog's
                // escalation age exactly once, regardless of which arbiter
                // path promoted it.
                if cand.escalated {
                    self.stats.escalations += 1;
                }
            }
        }
        let issued = dram.channel_mut(chan).issue(&cand.cmd, now);
        // The command changed this bank's device state, so the slot's next
        // transaction must be re-derived. Other banks' cached entries stay
        // valid lower bounds (see `cand_cache`).
        self.cand_cache[cand.bank] = None;
        self.ready_floor[chan] = 0;
        self.last_bank[chan] = Some(cand.bank);
        self.last_rank[chan] = Some(cand.loc.rank);
        self.last_progress = now;
        if cand.cmd.is_column() {
            let og = self.ongoing[cand.bank]
                .take()
                .expect("column without ongoing access");
            self.ongoing_mask[cand.bank >> 6] &= !(1 << (cand.bank & 63));
            self.note_ongoing_removed(chan, cand.bank);
            // Fault injection: the data transfer happened but is declared
            // bad (ECC read error / write CRC retry). The access stays
            // outstanding and re-enters its queue via `take_retries`.
            if let Some(fc) = self.cfg.faults {
                let attempt = self.attempts.get(&og.access.id).copied().unwrap_or(0);
                if attempt < fc.max_retries
                    && fc.should_fault(og.access.id, og.access.kind, attempt)
                {
                    self.attempts.insert(og.access.id, attempt + 1);
                    self.stats.faults_injected += 1;
                    self.stats.retries += 1;
                    self.retry_pending.push(og.access);
                    return true;
                }
            }
            let latency = issued.data_end - og.access.arrival;
            match og.access.kind {
                AccessKind::Read => {
                    self.stats.read_done(latency);
                    self.reads_outstanding -= 1;
                }
                AccessKind::Write => {
                    self.stats.write_done(latency);
                    self.writes_outstanding -= 1;
                }
            }
            self.ages.remove(og.access.id);
            if self.cfg.faults.is_some() {
                self.attempts.remove(&og.access.id);
            }
            self.stats.max_access_age = self.stats.max_access_age.max(latency);
            completions.push(Completion {
                id: og.access.id,
                kind: og.access.kind,
                done_at: issued.data_end,
                latency,
                forwarded: false,
            });
            true
        } else {
            false
        }
    }

    /// Drains the faulted accesses awaiting retry. The mechanism's tick
    /// must re-enqueue each at the *front* of its queue (retries are the
    /// oldest work the bank has) without re-counting it as an arrival.
    pub fn take_retries(&mut self) -> Vec<Access> {
        std::mem::take(&mut self.retry_pending)
    }

    /// The id and age (at `now`) of the oldest outstanding access.
    pub fn oldest_outstanding(&self, now: Cycle) -> Option<(AccessId, Cycle)> {
        self.ages
            .oldest()
            .map(|(id, arrival)| (id, now.saturating_sub(arrival)))
    }

    /// Advances the forward-progress watchdog; call once per tick. Latches
    /// a [`StallDiagnostic`] (once) when outstanding accesses have seen no
    /// transaction issue or arrival for longer than the stall limit.
    pub fn watchdog_tick(&mut self, now: Cycle) {
        let outstanding = self.reads_outstanding + self.writes_outstanding;
        if outstanding == 0 {
            self.last_progress = now;
            return;
        }
        let oldest = self.oldest_outstanding(now);
        if let Some((_, age)) = oldest {
            self.stats.max_access_age = self.stats.max_access_age.max(age);
        }
        if self.stall.is_none()
            && now.saturating_sub(self.last_progress) > self.cfg.watchdog.stall_limit
        {
            self.stats.watchdog_trips += 1;
            self.stall = Some(StallDiagnostic {
                since: self.last_progress,
                at: now,
                reads: self.reads_outstanding,
                writes: self.writes_outstanding,
                oldest_id: oldest.map(|(id, _)| id),
                oldest_age: oldest.map(|(_, age)| age).unwrap_or(0),
                // The bare engine has no whole-system digest; the system
                // layer stamps it before surfacing the diagnostic.
                state_hash: 0,
            });
        }
    }

    /// The latched forward-progress failure, if the watchdog tripped.
    pub fn stall(&self) -> Option<StallDiagnostic> {
        self.stall
    }

    /// Per-cycle statistics bookkeeping; call once per tick. Advances the
    /// cycle counter and records the occupancy histograms, reproducing the
    /// paper's per-cycle Figure 8/11 distributions.
    pub fn sample(&mut self) {
        self.stats.sample(
            self.reads_outstanding,
            self.writes_outstanding,
            self.cfg.write_capacity,
        );
    }

    /// Whether the controller is *quiescent*: no access is outstanding
    /// (queued or ongoing — outstanding counts cover both), no faulted
    /// access awaits re-enqueue, and no stall is latched. A quiescent tick
    /// is a pure bookkeeping no-op, so a run of them may be replaced by
    /// [`Core::advance_quiescent`] bit-identically.
    pub fn quiescent(&self) -> bool {
        self.reads_outstanding == 0
            && self.writes_outstanding == 0
            && self.retry_pending.is_empty()
            && self.stall.is_none()
    }

    /// Batch-advances the per-tick bookkeeping over `n` quiescent ticks at
    /// cycles `from..from + n` — exactly equivalent to `n` calls of
    /// [`Core::sample`] plus [`Core::watchdog_tick`] with zero outstanding
    /// accesses: the cycle counter, the occupancy histograms (all samples
    /// at occupancy 0) and the watchdog's progress clock land on identical
    /// values.
    pub fn advance_quiescent(&mut self, from: Cycle, n: u64) {
        debug_assert!(self.quiescent(), "batch advance requires quiescence");
        debug_assert!(n >= 1);
        self.stats.sample_n(0, 0, self.cfg.write_capacity, n);
        // watchdog_tick with zero outstanding sets last_progress = now on
        // every tick; the final skipped tick is `from + n - 1`.
        self.last_progress = from + n - 1;
    }

    /// Mechanism-independent part of the busy-skip event derivation: the
    /// earliest cycle strictly after `last` at which the shared machinery
    /// could make a tick differ from a pure bookkeeping no-op, assuming no
    /// commands issue and no accesses arrive in the interim.
    ///
    /// Returns `None` when the next tick must be stepped: a retry awaits
    /// re-enqueue, a stall is latched (diagnosis wants real ticks), a
    /// channel's steering pointer has not yet converged on the oldest
    /// ongoing access (Fig. 6 lines 14–15 run every no-op tick), or some
    /// bank's next transaction is already issuable.
    ///
    /// Otherwise folds, over every ongoing access, the earliest cycle its
    /// next transaction could first satisfy the timing constraints —
    /// between commands all bank/rank ready-at values are static, so
    /// [`burst_dram::Channel::earliest_issue`] is exact — plus the cycle
    /// at which the forward-progress watchdog would latch. Transactions
    /// blocked behind a pending refresh are skipped here; the refresh
    /// resolution instant is already folded via `Dram::next_event` by the
    /// caller.
    pub fn busy_event_base(&self, dram: &Dram, last: Cycle) -> Option<Cycle> {
        if !self.retry_pending.is_empty() || self.stall.is_some() {
            return None;
        }
        // The stall latch compares `now - last_progress > stall_limit` on
        // every stepped tick; make sure the first tripping cycle is stepped.
        let mut event = self.last_progress + self.cfg.watchdog.stall_limit + 1;
        for channel in 0..self.channel_count() {
            let ch = dram.channel(channel);
            let mut target = None;
            let range = self.bank_range(channel);
            for (bank, og) in Self::occupied(&self.ongoing_mask, &self.ongoing, range) {
                let entry = (og.access.id, bank, og.access.loc.rank);
                if target.is_none_or(|t| entry < t) {
                    target = Some(entry);
                }
                let cmd = self.next_command(og.access.loc, og.access.kind, dram);
                let rank = og.access.loc.rank;
                if ch.refresh_pending(rank)
                    && matches!(cmd, Command::Activate(_) | Command::Column { .. })
                {
                    // Blocked until the refresh performs; Dram::next_event
                    // reports that instant.
                    continue;
                }
                let mut at = ch.earliest_issue(&cmd, last + 1).unwrap_or(last + 1);
                if matches!(cmd, Command::Precharge(_)) {
                    // earliest_issue's precharge arm ignores rank
                    // availability (refresh busy); fold it so tRFC windows
                    // skip instead of stepping.
                    at = at.max(ch.rank(rank).busy_until());
                }
                if at <= last + 1 {
                    return None;
                }
                event = event.min(at);
            }
            if let Some((_, bank, rank)) = target {
                if self.last_bank[channel] != Some(bank) || self.last_rank[channel] != Some(rank) {
                    // steer_to_oldest has not reached its fixed point yet;
                    // one stepped tick gets it there.
                    return None;
                }
            }
        }
        (event > last + 1).then_some(event)
    }

    /// Batch-advances the per-tick bookkeeping over `n` *blocked* ticks at
    /// cycles `from..from + n`: outstanding accesses exist but none of
    /// their transactions can issue, so each tick is `sample` plus
    /// `watchdog_tick` at constant occupancy. Occupancy samples land at the
    /// live counts and the watchdog's running max-age fold is reproduced by
    /// its value at the final skipped tick (ages grow monotonically).
    ///
    /// Callers must have verified via [`Core::busy_event_base`] that the
    /// stretch is a no-op; in particular the stall latch must not fire
    /// inside it.
    pub fn advance_blocked(&mut self, from: Cycle, n: u64) {
        debug_assert!(n >= 1);
        debug_assert!(
            self.reads_outstanding + self.writes_outstanding > 0,
            "blocked advance requires outstanding work (else use advance_quiescent)"
        );
        debug_assert!(self.retry_pending.is_empty() && self.stall.is_none());
        let to = from + n - 1;
        debug_assert!(
            to.saturating_sub(self.last_progress) <= self.cfg.watchdog.stall_limit,
            "stall latch would fire inside a skipped stretch"
        );
        self.stats.sample_n(
            self.reads_outstanding,
            self.writes_outstanding,
            self.cfg.write_capacity,
            n,
        );
        if let Some((_, age)) = self.oldest_outstanding(to) {
            self.stats.max_access_age = self.stats.max_access_age.max(age);
        }
        // watchdog_tick leaves last_progress untouched while work is
        // outstanding; the stall clock keeps running across the jump.
    }

    /// Serialises all persistent core state for a checkpoint. Derived
    /// caches are transient (rebuilt on restore) and not part of the
    /// snapshot.
    pub fn save_snap(&self, w: &mut burst_snap::SnapWriter) {
        let Self {
            cfg: _,  // construction input; restore re-supplies it
            geom: _, // construction input; restore re-supplies it
            ongoing,
            last_bank,
            last_rank,
            stats,
            reads_outstanding,
            writes_outstanding,
            oldest_ongoing: _, // lazy steering cache; restore marks every channel dirty
            ongoing_dirty: _,  // cache-invalidation flags; restore sets all true
            ongoing_mask: _,   // bitmap mirror of `ongoing`; restore rebuilds it
            cand_cache: _,     // per-bank candidate cache; restore drops every entry
            cand_epoch: _,     // refresh-epoch stamps; restore forces the drop via u64::MAX
            ready_floor: _,    // per-channel scan floor; restore zeroes it
            ages,
            attempts,
            retry_pending,
            last_progress,
            stall,
        } = self;
        w.usize(ongoing.len());
        for slot in ongoing {
            match slot {
                None => w.bool(false),
                Some(og) => {
                    w.bool(true);
                    og.access.save_snap(w);
                    w.bool(og.started);
                }
            }
        }
        w.usize(last_bank.len());
        for (lb, lr) in last_bank.iter().zip(last_rank) {
            w.opt_u64(lb.map(|b| b as u64));
            w.opt_u8(*lr);
        }
        stats.save_snap(w);
        w.usize(*reads_outstanding);
        w.usize(*writes_outstanding);
        ages.save_snap(w);
        // BTreeMap iteration is already in ascending id order, which is
        // the serialisation order the snapshot format specifies.
        w.usize(attempts.len());
        for (id, count) in attempts {
            w.u64(id.value());
            w.u32(*count);
        }
        w.usize(retry_pending.len());
        for acc in retry_pending {
            acc.save_snap(w);
        }
        w.u64(*last_progress);
        match stall {
            None => w.bool(false),
            Some(d) => {
                w.bool(true);
                d.save_snap(w);
            }
        }
    }

    /// Restores state written by [`Core::save_snap`] into a core built from
    /// the same configuration and geometry; a structural mismatch is
    /// rejected as corrupt. Every derived cache is reset so it is rebuilt
    /// from the restored ongoing set and device state.
    pub fn load_snap(
        &mut self,
        r: &mut burst_snap::SnapReader,
    ) -> Result<(), burst_snap::SnapError> {
        use burst_snap::SnapError;
        let Self {
            cfg,
            geom: _, // construction input; restore re-supplies it
            ongoing,
            last_bank,
            last_rank,
            stats,
            reads_outstanding,
            writes_outstanding,
            oldest_ongoing,
            ongoing_dirty,
            ongoing_mask,
            cand_cache,
            cand_epoch,
            ready_floor,
            ages,
            attempts,
            retry_pending,
            last_progress,
            stall,
        } = self;
        if r.seq_len(1)? != ongoing.len() {
            return Err(SnapError::Corrupt("bank count mismatch"));
        }
        for slot in ongoing.iter_mut() {
            *slot = if r.bool()? {
                let access = Access::load_snap(r)?;
                let started = r.bool()?;
                Some(Ongoing { access, started })
            } else {
                None
            };
        }
        if r.seq_len(2)? != last_bank.len() {
            return Err(SnapError::Corrupt("channel count mismatch"));
        }
        for (lb, lr) in last_bank.iter_mut().zip(last_rank.iter_mut()) {
            *lb = match r.opt_u64()? {
                Some(b) if (b as usize) < ongoing.len() => Some(b as usize),
                Some(_) => return Err(SnapError::Corrupt("last bank out of range")),
                None => None,
            };
            *lr = r.opt_u8()?;
        }
        *stats = CtrlStats::load_snap(r)?;
        // The stream sizes the occupancy histograms; they must match the
        // pool they sample.
        let buckets = cfg.pool_capacity + 1;
        if stats.outstanding_reads.counts().len() != buckets
            || stats.outstanding_writes.counts().len() != buckets
        {
            return Err(SnapError::Corrupt("occupancy bucket count mismatch"));
        }
        *reads_outstanding = r.usize()?;
        *writes_outstanding = r.usize()?;
        if *reads_outstanding + *writes_outstanding > cfg.pool_capacity {
            return Err(SnapError::Corrupt("outstanding exceeds pool capacity"));
        }
        ages.load_snap(r)?;
        let n_faults = r.seq_len(12)?;
        attempts.clear();
        for _ in 0..n_faults {
            let id = AccessId::new(r.u64()?);
            let count = r.u32()?;
            attempts.insert(id, count);
        }
        let n_retries = r.seq_len(8)?;
        retry_pending.clear();
        for _ in 0..n_retries {
            retry_pending.push(Access::load_snap(r)?);
        }
        *last_progress = r.u64()?;
        *stall = if r.bool()? {
            Some(StallDiagnostic::load_snap(r)?)
        } else {
            None
        };
        // Rebuild the derived occupied-slot bitmap from the restored slots.
        ongoing_mask.fill(0);
        for (b, slot) in ongoing.iter().enumerate() {
            if slot.is_some() {
                ongoing_mask[b >> 6] |= 1 << (b & 63);
            }
        }
        oldest_ongoing.fill(None);
        ongoing_dirty.fill(true);
        // Cached candidate bounds were derived against the pre-restore
        // device state; force a full re-derivation.
        cand_cache.fill(None);
        cand_epoch.fill(u64::MAX);
        ready_floor.fill(0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use burst_dram::{AddressMapping, DramConfig, PhysAddr};

    fn setup() -> (Core, Dram) {
        let cfg = DramConfig::baseline();
        let dram = Dram::new(cfg, AddressMapping::PageInterleaving);
        let core = Core::new(CtrlConfig::default(), cfg.geometry);
        (core, dram)
    }

    fn access(id: u64, kind: AccessKind, loc: Loc) -> Access {
        Access::new(AccessId::new(id), kind, PhysAddr::new(0), loc, 0)
    }

    #[test]
    fn global_bank_is_dense_and_unique() {
        let (core, _) = setup();
        let g = Geometry::baseline();
        let mut seen = std::collections::BTreeSet::new();
        for c in 0..g.channels {
            for r in 0..g.ranks_per_channel {
                for b in 0..g.banks_per_rank {
                    let idx = core.global_bank(Loc::new(c, r, b, 0, 0));
                    assert!(idx < core.bank_count());
                    assert!(seen.insert(idx), "bank index collision at {idx}");
                }
            }
        }
        assert_eq!(seen.len(), core.bank_count());
    }

    #[test]
    fn bank_range_partitions_channels() {
        let (core, _) = setup();
        assert_eq!(core.bank_range(0), 0..16);
        assert_eq!(core.bank_range(1), 16..32);
    }

    #[test]
    fn next_command_follows_row_state() {
        let (core, mut dram) = setup();
        let loc = Loc::new(0, 0, 0, 5, 0);
        assert_eq!(
            core.next_command(loc, AccessKind::Read, &dram),
            Command::Activate(loc)
        );
        dram.channel_mut(0).issue(&Command::Activate(loc), 0);
        assert!(core.next_command(loc, AccessKind::Read, &dram).is_column());
        let other = Loc::new(0, 0, 0, 6, 0);
        assert_eq!(
            core.next_command(other, AccessKind::Read, &dram),
            Command::Precharge(other)
        );
    }

    #[test]
    fn issue_candidate_walks_an_access_to_completion() {
        let (mut core, mut dram) = setup();
        let loc = Loc::new(0, 0, 0, 5, 0);
        let acc = access(1, AccessKind::Read, loc);
        core.note_arrival(&acc);
        core.set_ongoing(core.global_bank(loc), acc).unwrap();
        let mut done = Vec::new();
        let mut cands = Vec::new();
        let mut now = 0;
        let mut col_issued = false;
        while !col_issued {
            core.fill_candidates(&dram, 0, now, &mut cands);
            if let Some(c) = cands.first().copied() {
                col_issued = core.issue_candidate(&mut dram, now, &c, &mut done);
            }
            now += 1;
            assert!(now < 100, "access should complete quickly");
        }
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, AccessId::new(1));
        assert_eq!(core.reads_outstanding(), 0);
        // Empty bank: ACT + READ; classified once as a row empty.
        assert_eq!(core.stats().row_empties, 1);
        assert_eq!(core.stats().classified(), 1);
    }

    #[test]
    fn can_accept_respects_pool_and_write_caps() {
        let cfg = CtrlConfig {
            pool_capacity: 4,
            write_capacity: 2,
            ..CtrlConfig::default()
        };
        let mut core = Core::new(cfg, Geometry::baseline());
        assert!(core.can_accept(AccessKind::Read));
        let loc = Loc::new(0, 0, 0, 0, 0);
        core.note_arrival(&access(0, AccessKind::Write, loc));
        core.note_arrival(&access(1, AccessKind::Write, loc));
        // Write queue saturated: nothing is accepted any more.
        assert!(!core.can_accept(AccessKind::Read));
        assert!(!core.can_accept(AccessKind::Write));
    }

    #[test]
    fn steer_to_oldest_picks_lowest_id() {
        let (mut core, _) = setup();
        let l1 = Loc::new(0, 2, 1, 5, 0);
        let l2 = Loc::new(0, 1, 0, 9, 0);
        core.set_ongoing(core.global_bank(l1), access(10, AccessKind::Read, l1))
            .unwrap();
        core.set_ongoing(core.global_bank(l2), access(3, AccessKind::Read, l2))
            .unwrap();
        core.steer_to_oldest(0);
        let (bank, rank) = core.last_target(0);
        assert_eq!(bank, Some(core.global_bank(l2)));
        assert_eq!(rank, Some(1));
    }

    #[test]
    fn clear_ongoing_returns_access() {
        let (mut core, _) = setup();
        let loc = Loc::new(0, 0, 0, 5, 0);
        core.set_ongoing(0, access(7, AccessKind::Write, loc))
            .unwrap();
        let got = core.clear_ongoing(0).expect("was set");
        assert_eq!(got.id, AccessId::new(7));
        assert!(core.ongoing(0).is_none());
    }

    #[test]
    fn set_ongoing_refuses_overwrite_and_returns_access() {
        let (mut core, _) = setup();
        let loc = Loc::new(0, 0, 0, 5, 0);
        core.set_ongoing(0, access(1, AccessKind::Read, loc))
            .unwrap();
        let rejected = core
            .set_ongoing(0, access(2, AccessKind::Read, loc))
            .expect_err("occupied slot must reject");
        assert_eq!(
            rejected.id,
            AccessId::new(2),
            "the displaced access comes back"
        );
        assert_eq!(core.ongoing(0).unwrap().access.id, AccessId::new(1));
    }

    /// `(bank, cmd, unblocked)` of every occupied bank of `channel`, derived
    /// from scratch: no cache, one timing query per slot.
    fn fresh_scan(
        core: &Core,
        dram: &Dram,
        channel: usize,
        now: Cycle,
    ) -> Vec<(usize, Command, bool)> {
        let ch = dram.channel(channel);
        core.bank_range(channel)
            .filter_map(|bank| {
                let og = core.ongoing(bank)?;
                let cmd = core.next_command(og.access.loc, og.access.kind, dram);
                Some((bank, cmd, ch.can_issue(&cmd, now)))
            })
            .collect()
    }

    #[test]
    fn candidate_cache_matches_a_fresh_scan_every_cycle() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let (mut core, mut dram) = setup();
        let g = Geometry::baseline();
        let mut rng = SmallRng::seed_from_u64(0x5ca1);
        let (mut cands, mut done) = (Vec::new(), Vec::new());
        let (mut next_id, mut issued, mut barren) = (0, 0, 0);
        for now in 0..12_000 {
            dram.tick(now);
            if rng.gen_bool(0.3) {
                // A few rows per bank, so hits, empties and conflicts mix.
                let loc = Loc::new(
                    rng.gen_range(0..g.channels),
                    rng.gen_range(0..g.ranks_per_channel),
                    rng.gen_range(0..g.banks_per_rank),
                    rng.gen_range(0..3),
                    0,
                );
                let kind = if rng.gen_bool(0.5) {
                    AccessKind::Read
                } else {
                    AccessKind::Write
                };
                let acc = Access::new(AccessId::new(next_id), kind, PhysAddr::new(0), loc, now);
                next_id += 1;
                core.note_arrival(&acc);
                // An occupied slot hands the access back; drop it.
                let _ = core.set_ongoing(core.global_bank(loc), acc);
            }
            for channel in 0..core.channel_count() {
                let want = fresh_scan(&core, &dram, channel, now);
                let project = |c: &Vec<Candidate>| -> Vec<(usize, Command, bool)> {
                    c.iter().map(|c| (c.bank, c.cmd, c.unblocked)).collect()
                };
                let unblocked: Vec<_> = want.iter().copied().filter(|w| w.2).collect();
                // Below its ready floor a channel has no unblocked slot.
                if core.barren(&dram, channel, now) {
                    assert_eq!(unblocked, [], "barren channel {channel} at {now}");
                    barren += 1;
                }
                // Either call may run first; each must see a coherent cache.
                let all_first = rng.gen_bool(0.5);
                if all_first {
                    core.fill_all_candidates(&dram, channel, now, &mut cands);
                    assert_eq!(project(&cands), want, "fill_all_candidates at {now}");
                }
                core.fill_candidates(&dram, channel, now, &mut cands);
                assert_eq!(project(&cands), unblocked, "fill_candidates at {now}");
                if !all_first {
                    core.fill_all_candidates(&dram, channel, now, &mut cands);
                    assert_eq!(project(&cands), want, "fill_all_candidates at {now}");
                    cands.retain(|c| c.unblocked);
                }
                if !cands.is_empty() && rng.gen_bool(0.7) {
                    let pick = cands[rng.gen_range(0..cands.len())];
                    core.issue_candidate(&mut dram, now, &pick, &mut done);
                    issued += 1;
                }
            }
        }
        assert!(
            issued > 1_000,
            "the walk must keep the device busy: {issued}"
        );
        assert!(
            dram.total_stats().refreshes > 0,
            "the walk must cross refreshes"
        );
        assert!(barren > 1_000, "the floor must engage: {barren}");
    }

    #[test]
    fn watchdog_latches_stall_diagnostic() {
        let cfg = CtrlConfig {
            watchdog: crate::WatchdogConfig {
                escalate_age: 100,
                stall_limit: 500,
            },
            ..CtrlConfig::default()
        };
        let mut core = Core::new(cfg, Geometry::baseline());
        let loc = Loc::new(0, 0, 0, 5, 0);
        let acc = access(3, AccessKind::Read, loc);
        core.note_arrival(&acc);
        // Nothing ever issues: the stall clock runs out.
        for now in 0..400 {
            core.watchdog_tick(now);
        }
        assert!(core.stall().is_none(), "within the limit: no trip");
        for now in 400..1000 {
            core.watchdog_tick(now);
        }
        let d = core.stall().expect("stall limit exceeded");
        assert_eq!(d.reads, 1);
        assert_eq!(d.oldest_id, Some(AccessId::new(3)));
        assert!(d.oldest_age >= 500, "age at detection: {}", d.oldest_age);
        assert_eq!(core.stats().watchdog_trips, 1, "latched exactly once");
        // Still latched once even as ticks continue.
        core.watchdog_tick(2000);
        assert_eq!(core.stats().watchdog_trips, 1);
    }

    #[test]
    fn core_snapshot_round_trips_mid_flight() {
        let (mut core, mut dram) = setup();
        // Put the core in a busy, asymmetric state: two ongoing accesses,
        // one of them started, plus an un-issued arrival in the age window.
        let l1 = Loc::new(0, 0, 0, 5, 0);
        let l2 = Loc::new(1, 1, 2, 9, 0);
        let a1 = access(1, AccessKind::Read, l1);
        let a2 = access(2, AccessKind::Write, l2).with_critical(true);
        core.note_arrival(&a1);
        core.note_arrival(&a2);
        core.set_ongoing(core.global_bank(l1), a1).unwrap();
        core.set_ongoing(core.global_bank(l2), a2).unwrap();
        let mut done = Vec::new();
        let mut cands = Vec::new();
        core.fill_candidates(&dram, 0, 0, &mut cands);
        let c = cands[0];
        core.issue_candidate(&mut dram, 0, &c, &mut done);
        core.sample();
        core.watchdog_tick(0);

        let mut w = burst_snap::SnapWriter::new();
        core.save_snap(&mut w);
        let bytes = w.into_bytes();
        let (mut fresh, _) = setup();
        let mut r = burst_snap::SnapReader::new(&bytes);
        fresh.load_snap(&mut r).unwrap();
        r.finish().unwrap();
        // Byte-identical re-serialisation and equal observable queries.
        let mut w2 = burst_snap::SnapWriter::new();
        fresh.save_snap(&mut w2);
        assert_eq!(bytes, w2.into_bytes());
        assert_eq!(fresh.reads_outstanding(), core.reads_outstanding());
        assert_eq!(fresh.writes_outstanding(), core.writes_outstanding());
        assert_eq!(fresh.oldest_outstanding(10), core.oldest_outstanding(10));
        assert_eq!(
            fresh.ongoing(core.global_bank(l2)).unwrap().access.id,
            AccessId::new(2)
        );
        assert!(fresh.ongoing(core.global_bank(l1)).unwrap().started);
        // The steering cache is rebuilt lazily and lands on the same target.
        fresh.steer_to_oldest(0);
        core.steer_to_oldest(0);
        assert_eq!(fresh.last_target(0), core.last_target(0));
    }

    #[test]
    fn core_snapshot_rejects_geometry_mismatch() {
        let (core, _) = setup();
        let mut w = burst_snap::SnapWriter::new();
        core.save_snap(&mut w);
        let bytes = w.into_bytes();
        let mut small = Core::new(
            CtrlConfig::default(),
            Geometry {
                channels: 1,
                ..Geometry::baseline()
            },
        );
        let mut r = burst_snap::SnapReader::new(&bytes);
        assert!(small.load_snap(&mut r).is_err());
    }

    #[test]
    fn core_snapshot_rejects_pool_capacity_mismatch() {
        let (core, _) = setup();
        let mut w = burst_snap::SnapWriter::new();
        core.save_snap(&mut w);
        let bytes = w.into_bytes();
        let cfg = CtrlConfig {
            pool_capacity: CtrlConfig::default().pool_capacity / 2,
            ..CtrlConfig::default()
        };
        let mut smaller = Core::new(cfg, Geometry::baseline());
        let mut r = burst_snap::SnapReader::new(&bytes);
        assert_eq!(
            smaller.load_snap(&mut r),
            Err(burst_snap::SnapError::Corrupt(
                "occupancy bucket count mismatch"
            ))
        );
    }

    #[test]
    fn fault_injection_retries_then_completes() {
        // 100% read-fault rate with 2 retries: the access faults twice,
        // then completes on the third attempt.
        let cfg = CtrlConfig {
            faults: Some(crate::FaultConfig {
                seed: 1,
                read_error_permille: 1000,
                write_retry_permille: 1000,
                max_retries: 2,
            }),
            ..CtrlConfig::default()
        };
        let mut core = Core::new(cfg, Geometry::baseline());
        let mut dram = Dram::new(DramConfig::baseline(), AddressMapping::PageInterleaving);
        let loc = Loc::new(0, 0, 0, 5, 0);
        let acc = access(1, AccessKind::Read, loc);
        core.note_arrival(&acc);
        core.set_ongoing(core.global_bank(loc), acc).unwrap();
        let mut done = Vec::new();
        let mut cands = Vec::new();
        let mut now = 0;
        while done.is_empty() {
            core.fill_candidates(&dram, 0, now, &mut cands);
            if let Some(c) = cands.first().copied() {
                core.issue_candidate(&mut dram, now, &c, &mut done);
            }
            for retry in core.take_retries() {
                core.set_ongoing(core.global_bank(retry.loc), retry)
                    .unwrap();
            }
            now += 1;
            assert!(now < 1000, "faulted access must still complete");
        }
        assert_eq!(
            core.stats().faults_injected,
            2,
            "max_retries bounds the faults"
        );
        assert_eq!(core.stats().retries, 2);
        assert_eq!(done.len(), 1);
        assert_eq!(core.reads_outstanding(), 0);
    }
}
