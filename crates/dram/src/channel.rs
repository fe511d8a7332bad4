//! One memory channel: command/data busses, ranks, banks and refresh.
//!
//! The channel is the unit the memory controller talks to. Each cycle the
//! controller may issue at most one command on the channel's command bus
//! (SDRAM busses are split-transaction, so commands of different accesses
//! interleave freely — paper Section 2.1). The channel enforces every device
//! timing constraint and accounts bus occupancy for the Figure 9(b)
//! utilisation statistics.

use crate::{
    Bank, BusStats, Command, Cycle, Dir, DramConfig, Issued, Loc, ProtocolChecker, Rank, RowState,
};

/// A single memory channel with its ranks, banks and busses.
///
/// # Examples
///
/// ```
/// use burst_dram::{Channel, Command, DramConfig, Loc};
///
/// let cfg = DramConfig::small();
/// let mut ch = Channel::new(cfg);
/// let loc = Loc::new(0, 0, 0, 5, 0);
/// assert!(ch.can_issue(&Command::Activate(loc), 0));
/// ch.issue(&Command::Activate(loc), 0);
/// let col_at = cfg.timing.t_rcd;
/// assert!(ch.can_issue(&Command::read(loc), col_at));
/// let issued = ch.issue(&Command::read(loc), col_at);
/// assert_eq!(issued.data_start, col_at + cfg.timing.t_cl);
/// ```
#[derive(Debug, Clone)]
pub struct Channel {
    cfg: DramConfig,
    banks: Vec<Bank>,
    ranks: Vec<Rank>,
    data_busy_until: Cycle,
    last_data_rank: Option<u8>,
    last_data_dir: Option<Dir>,
    last_cmd_at: Option<Cycle>,
    next_refresh: Vec<Cycle>,
    refresh_pending: Vec<bool>,
    /// Cached minimum of `next_refresh`, letting `tick` skip the per-rank
    /// scan while no refresh is due or pending. Recomputed on every path
    /// that changes `next_refresh` (including a scheduler-issued
    /// `RefreshAll`), so it is exact — a requirement of the
    /// [`Channel::next_event`] contract.
    next_refresh_min: Cycle,
    /// Whether any rank currently has a refresh pending (same caching).
    any_refresh_pending: bool,
    stats: BusStats,
    recording: bool,
    events: Vec<IssueEvent>,
    checker: Option<Box<ProtocolChecker>>,
}

/// One recorded command issue (see [`Channel::record_events`]): what was
/// issued when, and the data window it produced. Powers schedule
/// visualisation (the `waterfall` example) and timing assertions in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueEvent {
    /// Cycle the command occupied the command bus.
    pub at: Cycle,
    /// The command.
    pub cmd: Command,
    /// Data window (zero-length for precharge/activate/refresh).
    pub data_start: Cycle,
    /// One past the last data cycle.
    pub data_end: Cycle,
}

impl Channel {
    /// Creates an idle channel for the given configuration.
    pub fn new(cfg: DramConfig) -> Self {
        let nranks = usize::from(cfg.geometry.ranks_per_channel);
        let nbanks = nranks * usize::from(cfg.geometry.banks_per_rank);
        // Stagger initial refreshes across ranks as real controllers do.
        let stagger = cfg.timing.t_refi / u64::from(cfg.geometry.ranks_per_channel).max(1);
        Channel {
            cfg,
            banks: vec![Bank::new(); nbanks],
            ranks: vec![Rank::new(); nranks],
            data_busy_until: 0,
            last_data_rank: None,
            last_data_dir: None,
            last_cmd_at: None,
            next_refresh: (0..nranks as u64)
                .map(|r| cfg.timing.t_refi + r * stagger)
                .collect(),
            refresh_pending: vec![false; nranks],
            next_refresh_min: cfg.timing.t_refi,
            any_refresh_pending: false,
            stats: BusStats::new(),
            recording: false,
            events: Vec::new(),
            checker: None,
        }
    }

    /// Attaches a [`ProtocolChecker`] that shadows every issued command
    /// and records timing violations independently of
    /// [`Channel::can_issue`]. Off by default (checking costs time and
    /// memory); enable it in tests and diagnostic runs.
    pub fn enable_checker(&mut self) {
        if self.checker.is_none() {
            self.checker = Some(Box::new(ProtocolChecker::new(self.cfg)));
        }
    }

    /// The attached protocol checker, if enabled.
    pub fn checker(&self) -> Option<&ProtocolChecker> {
        self.checker.as_deref()
    }

    /// Starts or stops recording every issued command as an
    /// [`IssueEvent`]. Off by default (recording allocates).
    pub fn record_events(&mut self, on: bool) {
        self.recording = on;
    }

    /// Drains the recorded events.
    pub fn take_events(&mut self) -> Vec<IssueEvent> {
        std::mem::take(&mut self.events)
    }

    /// The channel's configuration.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Bus and command counters accumulated so far.
    pub fn stats(&self) -> &BusStats {
        &self.stats
    }

    fn bank_index(&self, rank: u8, bank: u8) -> usize {
        usize::from(rank) * usize::from(self.cfg.geometry.banks_per_rank) + usize::from(bank)
    }

    /// Read-only view of a bank's state.
    pub fn bank(&self, rank: u8, bank: u8) -> &Bank {
        &self.banks[self.bank_index(rank, bank)]
    }

    /// Read-only view of a rank's state.
    pub fn rank(&self, rank: u8) -> &Rank {
        &self.ranks[usize::from(rank)]
    }

    /// Classifies an access to `loc` against current bank state (row hit /
    /// empty / conflict, paper Section 2).
    pub fn row_state(&self, loc: Loc) -> RowState {
        self.bank(loc.rank, loc.bank).row_state(loc.row)
    }

    /// Whether a refresh is pending (due but not yet performed) on `rank`.
    /// While pending, new activates and column accesses to that rank are
    /// blocked so the refresh can drain in.
    pub fn refresh_pending(&self, rank: u8) -> bool {
        self.refresh_pending[usize::from(rank)]
    }

    /// One past the last cycle of the latest scheduled data transfer.
    pub fn data_busy_until(&self) -> Cycle {
        self.data_busy_until
    }

    /// The rank that most recently used the data bus, if any. The paper's
    /// transaction priority table (Table 2) prefers column accesses to this
    /// rank to avoid rank-to-rank turnaround bubbles.
    pub fn last_data_rank(&self) -> Option<u8> {
        self.last_data_rank
    }

    /// The direction of the most recent data transfer, if any.
    pub fn last_data_dir(&self) -> Option<Dir> {
        self.last_data_dir
    }

    /// Required gap on the data bus before a transfer by `rank` in `dir`.
    fn data_gap(&self, rank: u8, dir: Dir) -> Cycle {
        let t = &self.cfg.timing;
        let mut gap = 0;
        if let Some(last_rank) = self.last_data_rank {
            if last_rank != rank {
                gap = gap.max(t.t_rtrs);
            }
        }
        if let Some(last_dir) = self.last_data_dir {
            if last_dir != dir {
                gap = gap.max(t.t_dir_turn);
            }
        }
        gap
    }

    /// Earliest cycle at which a data transfer by `rank` in `dir` may begin.
    pub fn data_start_ready_at(&self, rank: u8, dir: Dir) -> Cycle {
        if self.last_data_rank.is_none() {
            0
        } else {
            self.data_busy_until + self.data_gap(rank, dir)
        }
    }

    /// Whether the command bus is free at `now` (one command per cycle).
    pub fn cmd_bus_free(&self, now: Cycle) -> bool {
        self.last_cmd_at != Some(now)
    }

    /// Whether `cmd` satisfies every timing constraint at cycle `now`.
    pub fn can_issue(&self, cmd: &Command, now: Cycle) -> bool {
        if !self.cmd_bus_free(now) {
            return false;
        }
        let t = &self.cfg.timing;
        match *cmd {
            Command::Activate(loc) => {
                !self.refresh_pending(loc.rank)
                    && self.bank(loc.rank, loc.bank).can_activate(now)
                    && self.rank(loc.rank).can_activate(now, t)
            }
            Command::Precharge(loc) => {
                self.bank(loc.rank, loc.bank).can_precharge(now)
                    && self.rank(loc.rank).available(now)
            }
            Command::Column { loc, dir, .. } => {
                if self.refresh_pending(loc.rank) {
                    return false;
                }
                let bank = self.bank(loc.rank, loc.bank);
                if !bank.can_column(loc.row, now) {
                    return false;
                }
                let rank = self.rank(loc.rank);
                let rank_ok = match dir {
                    Dir::Read => rank.can_read(now, t),
                    Dir::Write => now >= rank.write_ready_at(),
                };
                if !rank_ok {
                    return false;
                }
                let latency = match dir {
                    Dir::Read => t.t_cl,
                    Dir::Write => t.t_cwl,
                };
                now + latency >= self.data_start_ready_at(loc.rank, dir)
            }
            Command::RefreshAll { rank } => {
                let r = usize::from(rank);
                self.refresh_pending[r] && self.rank_quiescent(rank, now)
            }
        }
    }

    /// Earliest cycle (>= `now`) at which `cmd` could issue, considering all
    /// constraints. Returns `None` for commands whose precondition is a
    /// state change rather than time (e.g. a column access to a closed row).
    pub fn earliest_issue(&self, cmd: &Command, now: Cycle) -> Option<Cycle> {
        let t = &self.cfg.timing;
        let at = match *cmd {
            Command::Activate(loc) => {
                if self.bank(loc.rank, loc.bank).open_row().is_some() {
                    return None;
                }
                self.bank(loc.rank, loc.bank)
                    .act_ready_at()
                    .max(self.rank(loc.rank).act_ready_at(t))
            }
            Command::Precharge(loc) => {
                self.bank(loc.rank, loc.bank).open_row()?;
                self.bank(loc.rank, loc.bank).pre_ready_at()
            }
            Command::Column { loc, dir, .. } => {
                let bank = self.bank(loc.rank, loc.bank);
                if bank.open_row() != Some(loc.row) {
                    return None;
                }
                let latency = match dir {
                    Dir::Read => t.t_cl,
                    Dir::Write => t.t_cwl,
                };
                let rank_ready = match dir {
                    Dir::Read => self.rank(loc.rank).read_ready_at(t),
                    Dir::Write => self.rank(loc.rank).write_ready_at(),
                };
                bank.col_ready_at().max(rank_ready).max(
                    self.data_start_ready_at(loc.rank, dir)
                        .saturating_sub(latency),
                )
            }
            Command::RefreshAll { .. } => return None,
        };
        Some(at.max(now))
    }

    /// Applies `cmd` at cycle `now`.
    ///
    /// # Panics
    ///
    /// Debug-asserts that [`Channel::can_issue`] holds; issuing an illegal
    /// command in release builds corrupts timing state.
    pub fn issue(&mut self, cmd: &Command, now: Cycle) -> Issued {
        debug_assert!(
            self.can_issue(cmd, now),
            "illegal issue of {cmd:?} at {now}"
        );
        // Shadow-validate before mutating so the checker sees the same
        // pre-command state the legality rules apply to. Refreshes are
        // observed inside `perform_refresh`, which both issue paths share.
        if !matches!(cmd, Command::RefreshAll { .. }) {
            if let Some(chk) = self.checker.as_deref_mut() {
                chk.observe(cmd, now);
            }
        }
        self.last_cmd_at = Some(now);
        self.stats.cmd_cycles += 1;
        let t = self.cfg.timing;
        let burst = self.cfg.geometry.burst_cycles();
        let issued = match *cmd {
            Command::Activate(loc) => {
                let idx = self.bank_index(loc.rank, loc.bank);
                self.banks[idx].activate(loc.row, now, &t);
                self.ranks[usize::from(loc.rank)].note_activate(now);
                self.stats.activates += 1;
                Issued::no_data()
            }
            Command::Precharge(loc) => {
                let idx = self.bank_index(loc.rank, loc.bank);
                self.banks[idx].precharge(now, &t);
                self.stats.precharges += 1;
                Issued::no_data()
            }
            Command::Column {
                loc,
                dir,
                auto_precharge,
            } => {
                let idx = self.bank_index(loc.rank, loc.bank);
                let (start, end) = match dir {
                    Dir::Read => {
                        self.stats.reads += 1;
                        self.banks[idx].column_read(now, burst, &t, auto_precharge)
                    }
                    Dir::Write => {
                        self.stats.writes += 1;
                        let r = self.banks[idx].column_write(now, burst, &t, auto_precharge);
                        self.ranks[usize::from(loc.rank)].note_write(r.1);
                        r
                    }
                };
                if auto_precharge {
                    self.stats.auto_precharges += 1;
                }
                debug_assert!(
                    start >= self.data_start_ready_at(loc.rank, dir),
                    "data bus overlap: start {start} busy_until {}",
                    self.data_busy_until
                );
                self.data_busy_until = end;
                self.last_data_rank = Some(loc.rank);
                self.last_data_dir = Some(dir);
                self.stats.data_cycles += end - start;
                Issued {
                    data_start: start,
                    data_end: end,
                }
            }
            Command::RefreshAll { rank } => {
                self.perform_refresh(rank, now);
                Issued::no_data()
            }
        };
        if self.recording {
            self.events.push(IssueEvent {
                at: now,
                cmd: *cmd,
                data_start: issued.data_start,
                data_end: issued.data_end,
            });
        }
        issued
    }

    /// Whether every bank of `rank` is ready to refresh at `now`: all rows
    /// closed or closable and no write recovery outstanding.
    fn rank_quiescent(&self, rank: u8, now: Cycle) -> bool {
        let base = self.bank_index(rank, 0);
        let n = usize::from(self.cfg.geometry.banks_per_rank);
        self.banks[base..base + n]
            .iter()
            .all(|b| b.open_row().is_none() || b.can_precharge(now))
    }

    fn perform_refresh(&mut self, rank: u8, now: Cycle) {
        if let Some(chk) = self.checker.as_deref_mut() {
            chk.observe(&Command::RefreshAll { rank }, now);
        }
        let t = self.cfg.timing;
        let base = self.bank_index(rank, 0);
        let n = usize::from(self.cfg.geometry.banks_per_rank);
        let any_open = self.banks[base..base + n]
            .iter()
            .any(|b| b.open_row().is_some());
        // Precharge-all (if needed) then refresh: the refresh proper starts
        // after tRP when any bank had an open row.
        let start = if any_open { now + t.t_rp } else { now };
        for b in &mut self.banks[base..base + n] {
            if b.open_row().is_some() {
                b.precharge(now, &t);
            }
            b.refresh(start, &t);
        }
        self.ranks[usize::from(rank)].set_busy_until(start + t.t_rfc);
        self.refresh_pending[usize::from(rank)] = false;
        self.next_refresh[usize::from(rank)] += t.t_refi;
        self.stats.refreshes += 1;
        // Keep the cached aggregates exact on the scheduler-issued
        // `RefreshAll` path too: `next_event` relies on them, and `tick`'s
        // idle fast-path would otherwise rescan on every cycle until the
        // stale-low minimum catches up.
        self.any_refresh_pending = self.refresh_pending.iter().any(|&p| p);
        self.next_refresh_min = self
            .next_refresh
            .iter()
            .copied()
            .min()
            .unwrap_or(Cycle::MAX);
    }

    /// Earliest future cycle (> `now`) at which this channel can change
    /// state *on its own* — without the controller issuing any command.
    /// `None` means the channel is fully passive: nothing will ever happen
    /// unless a command arrives.
    ///
    /// Spontaneous state changes are exactly the refresh housekeeping in
    /// [`Channel::tick`] plus the end of an in-flight data transfer:
    ///
    /// * a rank whose refresh is *pending* performs it as soon as the rank
    ///   quiesces — with no commands arriving, that instant is fixed at the
    ///   latest open bank's `pre_ready_at` (clamped to `now + 1`);
    /// * a rank with no pending refresh next changes state when its
    ///   `next_refresh` deadline marks it pending;
    /// * the data bus frees at `data_busy_until`.
    ///
    /// The contract: with no commands issued in `(now, event)`, every
    /// `tick(t)` for `t` in that open interval is a no-op. Callers may
    /// therefore batch-advance time to `event` and observe bit-identical
    /// state. The returned cycle may be conservatively early (a wake-up
    /// where nothing happens is harmless); it is never late.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut event: Option<Cycle> = None;
        let mut fold = |at: Cycle| {
            event = Some(event.map_or(at, |e| e.min(at)));
        };
        for r in 0..self.ranks.len() {
            if self.refresh_pending[r] {
                // Pending past `tick(now)` means the rank has not yet
                // quiesced; with no further commands it quiesces exactly
                // when the last open bank becomes prechargeable.
                let base = self.bank_index(r as u8, 0);
                let n = usize::from(self.cfg.geometry.banks_per_rank);
                let ready = self.banks[base..base + n]
                    .iter()
                    .filter(|b| b.open_row().is_some())
                    .map(|b| b.pre_ready_at())
                    .max()
                    .unwrap_or(0);
                fold(ready.max(now + 1));
            } else {
                // Next spontaneous change: the deadline marking it pending.
                fold(self.next_refresh[r].max(now + 1));
            }
        }
        if self.data_busy_until > now {
            fold(self.data_busy_until);
        }
        event
    }

    /// Advances housekeeping to cycle `now`: marks due refreshes pending and
    /// performs them as soon as their rank quiesces. Call once per cycle
    /// before issuing commands.
    ///
    /// Idle fast-path: between refresh events nothing in here can change
    /// state, so the per-rank scan is skipped entirely while no refresh is
    /// pending and the earliest due cycle is still in the future.
    pub fn tick(&mut self, now: Cycle) {
        if !self.any_refresh_pending && now < self.next_refresh_min {
            return;
        }
        for r in 0..self.ranks.len() {
            if now >= self.next_refresh[r] {
                self.refresh_pending[r] = true;
            }
            if self.refresh_pending[r] && self.rank_quiescent(r as u8, now) {
                self.perform_refresh(r as u8, now);
            }
        }
        self.any_refresh_pending = self.refresh_pending.iter().any(|&p| p);
        self.next_refresh_min = self
            .next_refresh
            .iter()
            .copied()
            .min()
            .unwrap_or(Cycle::MAX);
    }

    /// Serialises all observable channel state for a checkpoint: banks,
    /// ranks, bus/refresh bookkeeping, statistics and (if attached) the
    /// protocol checker's shadow state. The event-recording buffer is
    /// transient diagnostics and is not saved.
    pub fn save_snap(&self, w: &mut burst_snap::SnapWriter) {
        let Self {
            cfg: _, // construction input; restore re-supplies it
            banks,
            ranks,
            data_busy_until,
            last_data_rank,
            last_data_dir,
            last_cmd_at,
            next_refresh,
            refresh_pending,
            next_refresh_min,
            any_refresh_pending,
            stats,
            recording: _, // trace-capture toggle; snapshots never span a recording
            events: _,    // trace-capture buffer; snapshots never span a recording
            checker,
        } = self;
        w.usize(banks.len());
        for b in banks {
            b.save_snap(w);
        }
        w.usize(ranks.len());
        for r in ranks {
            r.save_snap(w);
        }
        w.u64(*data_busy_until);
        w.opt_u8(*last_data_rank);
        match *last_data_dir {
            Some(d) => {
                w.u8(1);
                w.u8(d.snap_code());
            }
            None => w.u8(0),
        }
        w.opt_u64(*last_cmd_at);
        w.usize(next_refresh.len());
        for &at in next_refresh {
            w.u64(at);
        }
        for &p in refresh_pending {
            w.bool(p);
        }
        w.u64(*next_refresh_min);
        w.bool(*any_refresh_pending);
        stats.save_snap(w);
        match checker.as_deref() {
            Some(chk) => {
                w.bool(true);
                chk.save_snap(w);
            }
            None => w.bool(false),
        }
    }

    /// Restores state written by [`Channel::save_snap`] into a channel
    /// built from the same configuration. Structural mismatches (bank or
    /// rank counts, checker presence) are rejected as corrupt rather than
    /// silently misapplied.
    pub fn load_snap(
        &mut self,
        r: &mut burst_snap::SnapReader,
    ) -> Result<(), burst_snap::SnapError> {
        let Self {
            cfg: _, // construction input; restore re-supplies it
            banks,
            ranks,
            data_busy_until,
            last_data_rank,
            last_data_dir,
            last_cmd_at,
            next_refresh,
            refresh_pending,
            next_refresh_min,
            any_refresh_pending,
            stats,
            recording: _, // trace-capture toggle; snapshots never span a recording
            events,
            checker,
        } = self;
        use burst_snap::SnapError;
        if r.seq_len(1)? != banks.len() {
            return Err(SnapError::Corrupt("channel bank count mismatch"));
        }
        for b in banks {
            b.load_snap(r)?;
        }
        if r.seq_len(1)? != ranks.len() {
            return Err(SnapError::Corrupt("channel rank count mismatch"));
        }
        for rk in ranks {
            rk.load_snap(r)?;
        }
        *data_busy_until = r.u64()?;
        *last_data_rank = r.opt_u8()?;
        *last_data_dir = match r.u8()? {
            0 => None,
            1 => Some(Dir::from_snap_code(r.u8()?)?),
            _ => return Err(SnapError::Corrupt("option tag out of range")),
        };
        *last_cmd_at = r.opt_u64()?;
        if r.seq_len(1)? != next_refresh.len() {
            return Err(SnapError::Corrupt("channel refresh vector mismatch"));
        }
        for at in next_refresh {
            *at = r.u64()?;
        }
        for p in refresh_pending {
            *p = r.bool()?;
        }
        *next_refresh_min = r.u64()?;
        *any_refresh_pending = r.bool()?;
        stats.load_snap(r)?;
        let has_checker = r.bool()?;
        match (has_checker, checker.as_deref_mut()) {
            (true, Some(chk)) => chk.load_snap(r)?,
            (false, None) => {}
            _ => return Err(SnapError::Corrupt("checker presence mismatch")),
        }
        events.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Channel {
        Channel::new(DramConfig::small())
    }

    fn loc(bank: u8, row: u32, col: u32) -> Loc {
        Loc::new(0, 0, bank, row, col)
    }

    #[test]
    fn activate_then_read_timing() {
        let mut ch = small();
        let t = *ch.config();
        let l = loc(0, 3, 0);
        assert_eq!(ch.row_state(l), RowState::Empty);
        ch.issue(&Command::Activate(l), 0);
        assert_eq!(ch.row_state(l), RowState::Hit);
        assert!(!ch.can_issue(&Command::read(l), t.timing.t_rcd - 1));
        let issued = ch.issue(&Command::read(l), t.timing.t_rcd);
        assert_eq!(issued.data_start, t.timing.t_rcd + t.timing.t_cl);
        assert_eq!(
            issued.data_end - issued.data_start,
            t.geometry.burst_cycles()
        );
    }

    #[test]
    fn one_command_per_cycle() {
        let mut ch = small();
        let a = loc(0, 1, 0);
        let b = loc(1, 1, 0);
        ch.issue(&Command::Activate(a), 5);
        assert!(
            !ch.can_issue(&Command::Activate(b), 5),
            "command bus taken this cycle"
        );
        // Next cycle is fine (tRRD permitting).
        let t = ch.config().timing;
        assert!(ch.can_issue(&Command::Activate(b), 5 + t.t_rrd));
    }

    #[test]
    fn back_to_back_row_hits_share_the_open_row() {
        let mut ch = small();
        let t = ch.config().timing;
        let burst = ch.config().geometry.burst_cycles();
        let l0 = loc(0, 3, 0);
        let l1 = loc(0, 3, 8);
        ch.issue(&Command::Activate(l0), 0);
        let first = ch.issue(&Command::read(l0), t.t_rcd);
        // A second read can issue so its data follows back-to-back.
        let second_cmd_at = first.data_end - t.t_cl;
        assert!(ch.can_issue(&Command::read(l1), second_cmd_at));
        let second = ch.issue(&Command::read(l1), second_cmd_at);
        assert_eq!(
            second.data_start, first.data_end,
            "hits stream with no bubble"
        );
        assert_eq!(second.data_end - first.data_start, 2 * burst);
    }

    #[test]
    fn row_conflict_needs_precharge_activate() {
        let mut ch = small();
        let t = ch.config().timing;
        let l0 = loc(0, 3, 0);
        let l1 = loc(0, 4, 0);
        ch.issue(&Command::Activate(l0), 0);
        assert_eq!(ch.row_state(l1), RowState::Conflict);
        assert!(
            !ch.can_issue(&Command::Activate(l1), t.t_rcd),
            "row open: must precharge first"
        );
        assert!(
            !ch.can_issue(&Command::Precharge(l1), t.t_ras - 1),
            "tRAS not yet met"
        );
        ch.issue(&Command::Precharge(l1), t.t_ras);
        assert_eq!(ch.row_state(l1), RowState::Empty);
        assert!(!ch.can_issue(&Command::Activate(l1), t.t_ras + t.t_rp - 1));
        ch.issue(&Command::Activate(l1), t.t_ras + t.t_rp);
        assert_eq!(ch.row_state(l1), RowState::Hit);
    }

    #[test]
    fn write_to_read_turnaround_on_same_rank() {
        let mut ch = small();
        let t = ch.config().timing;
        let burst = ch.config().geometry.burst_cycles();
        let l = loc(0, 3, 0);
        ch.issue(&Command::Activate(l), 0);
        let w = ch.issue(&Command::write(l), t.t_rcd);
        // A read command must wait tWTR past the end of write data.
        let ready = w.data_end + t.t_wtr;
        assert!(!ch.can_issue(&Command::read(l), ready - 1));
        assert!(ch.can_issue(&Command::read(l), ready));
        let r = ch.issue(&Command::read(l), ready);
        assert!(r.data_start >= w.data_end + t.t_dir_turn);
        assert_eq!(r.data_end - r.data_start, burst);
    }

    #[test]
    fn data_bus_prevents_overlapping_transfers() {
        let mut ch = small();
        let t = ch.config().timing;
        let l0 = loc(0, 1, 0);
        let l1 = loc(1, 1, 0);
        ch.issue(&Command::Activate(l0), 0);
        ch.issue(&Command::Activate(l1), t.t_rrd);
        let first = ch.issue(&Command::read(l0), t.t_rcd + t.t_rrd);
        // Reads to another bank can pipeline but data cannot overlap.
        let earliest = ch.earliest_issue(&Command::read(l1), first.data_end - t.t_cl - 2);
        let at = earliest.expect("row is open");
        assert!(at + t.t_cl >= first.data_end);
        let second = ch.issue(&Command::read(l1), at);
        assert!(second.data_start >= first.data_end);
    }

    #[test]
    fn refresh_closes_all_rows_and_blocks_rank() {
        let mut cfg = DramConfig::small();
        cfg.timing.t_refi = 100;
        let mut ch = Channel::new(cfg);
        let t = cfg.timing;
        let l = loc(0, 3, 0);
        ch.issue(&Command::Activate(l), 0);
        // Run ticks past the refresh interval; rank quiesces after tRAS.
        let mut refreshed_at = None;
        for now in 0..400 {
            ch.tick(now);
            if ch.stats().refreshes > 0 {
                refreshed_at = Some(now);
                break;
            }
        }
        let at = refreshed_at.expect("refresh must happen");
        assert!(at >= 100);
        assert_eq!(
            ch.row_state(l),
            RowState::Empty,
            "refresh leaves rows closed"
        );
        assert!(
            !ch.can_issue(&Command::Activate(l), at + 1),
            "rank busy during tRFC"
        );
        assert!(ch.can_issue(&Command::Activate(l), at + t.t_rp + t.t_rfc));
    }

    #[test]
    fn refresh_pending_blocks_new_work_until_served() {
        let mut cfg = DramConfig::small();
        cfg.timing.t_refi = 50;
        let mut ch = Channel::new(cfg);
        ch.tick(50);
        assert!(ch.refresh_pending(0) || ch.stats().refreshes == 1);
    }

    #[test]
    fn rank_to_rank_turnaround_inserts_bubble() {
        let mut cfg = DramConfig::small();
        cfg.geometry.ranks_per_channel = 2;
        cfg.geometry.banks_per_rank = 2;
        let mut ch = Channel::new(cfg);
        let t = cfg.timing;
        let l0 = Loc::new(0, 0, 0, 1, 0);
        let l1 = Loc::new(0, 1, 0, 1, 0);
        ch.issue(&Command::Activate(l0), 0);
        ch.issue(&Command::Activate(l1), 1); // different rank: no tRRD coupling
        let first = ch.issue(&Command::read(l0), t.t_rcd);
        let at = ch
            .earliest_issue(&Command::read(l1), t.t_rcd + 1)
            .expect("row open");
        let second = ch.issue(&Command::read(l1), at);
        assert!(
            second.data_start >= first.data_end + t.t_rtrs,
            "rank switch must pay tRTRS: {} vs {}",
            second.data_start,
            first.data_end
        );
    }

    #[test]
    fn stats_count_commands_and_data() {
        let mut ch = small();
        let t = ch.config().timing;
        let l = loc(0, 3, 0);
        ch.issue(&Command::Activate(l), 0);
        ch.issue(&Command::read(l), t.t_rcd);
        let s = ch.stats();
        assert_eq!(s.activates, 1);
        assert_eq!(s.reads, 1);
        assert_eq!(s.cmd_cycles, 2);
        assert_eq!(s.data_cycles, ch.config().geometry.burst_cycles());
    }

    #[test]
    fn next_event_tracks_refresh_and_data_windows() {
        let mut ch = small();
        let t = ch.config().timing;
        // Idle channel: the only future event is the refresh deadline.
        assert_eq!(ch.next_event(0), Some(t.t_refi));
        let l = loc(0, 3, 0);
        ch.issue(&Command::Activate(l), 0);
        let issued = ch.issue(&Command::read(l), t.t_rcd);
        // In-flight data: the bus frees before the refresh deadline.
        assert_eq!(ch.next_event(t.t_rcd), Some(issued.data_end));
        // Past the data window only the refresh deadline remains.
        assert_eq!(ch.next_event(issued.data_end), Some(t.t_refi));
    }

    #[test]
    fn scheduler_issued_refresh_updates_next_event() {
        let mut cfg = DramConfig::small();
        cfg.timing.t_refi = 100;
        let mut ch = Channel::new(cfg);
        let t = cfg.timing;
        let l = loc(0, 3, 0);
        // Open a row just before the deadline so the refresh goes pending
        // but cannot be performed (tRAS unmet) when tick(100) runs.
        ch.issue(&Command::Activate(l), 99);
        ch.tick(100);
        assert!(ch.refresh_pending(0));
        // While pending, next_event points at the quiescence instant.
        assert_eq!(ch.next_event(100), Some(99 + t.t_ras));
        // The scheduler issues the refresh itself the moment it is legal.
        let at = 99 + t.t_ras;
        assert!(ch.can_issue(&Command::RefreshAll { rank: 0 }, at));
        ch.issue(&Command::RefreshAll { rank: 0 }, at);
        assert!(!ch.refresh_pending(0));
        assert_eq!(ch.stats().refreshes, 1);
        // The caches were recomputed on this path: next_event reports the
        // new deadline and idle ticks up to it are no-ops.
        assert_eq!(ch.next_event(at), Some(200));
        for now in at + 1..200 {
            ch.tick(now);
            assert_eq!(ch.stats().refreshes, 1, "no spurious refresh at {now}");
        }
        ch.tick(200);
        assert_eq!(ch.stats().refreshes, 2, "deadline refresh fires at 200");
    }

    #[test]
    fn earliest_issue_matches_can_issue() {
        let mut ch = small();
        let t = ch.config().timing;
        let l = loc(0, 3, 0);
        ch.issue(&Command::Activate(l), 0);
        let cmd = Command::read(l);
        let at = ch.earliest_issue(&cmd, 0).expect("row open");
        assert_eq!(at, t.t_rcd);
        assert!(ch.can_issue(&cmd, at));
        assert!(!ch.can_issue(&cmd, at - 1));
    }
}
