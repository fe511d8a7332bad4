//! Runtime DDR2 protocol checker.
//!
//! Shadows every command a [`crate::Channel`] issues and re-validates the
//! JEDEC timing constraints — tRCD, tRP, tRAS, tRTP, tWR, tRRD, tFAW,
//! tWTR, data-bus occupancy with tRTRS/direction turnaround, and the
//! refresh interval — against its *own* copy of device state, independent
//! of the `Bank`/`Rank` bookkeeping that `can_issue` consults. A scheduler
//! bug that slips an illegal command past the issue path is recorded as a
//! [`Violation`] with full cycle and command context instead of silently
//! corrupting timing state (and, worse, showing up as a bogus speedup).
//!
//! The checker never panics and never rejects: it observes, records, and
//! keeps its shadow state consistent so one violation does not cascade
//! into spurious follow-ups.

use crate::{Command, Cycle, Dir, DramConfig};

/// Which protocol rule a command broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// Two commands on the command bus in the same cycle.
    CmdBus,
    /// Structural misuse: activate of an open bank, precharge of a closed
    /// bank, or a column access to a row that is not open.
    BankState,
    /// Column access before `tRCD` elapsed since the activate.
    Trcd,
    /// Activate before `tRP` elapsed since the precharge (or before the
    /// refresh cycle time released the bank).
    Trp,
    /// Precharge before `tRAS` elapsed since the activate.
    Tras,
    /// Precharge before `tRTP` elapsed after a column read.
    Trtp,
    /// Precharge before `tWR` elapsed after write data landed.
    Twr,
    /// Activate sooner than `tRRD` after the previous activate in the rank.
    Trrd,
    /// Fifth activate inside one `tFAW` window of a rank.
    Tfaw,
    /// Column read sooner than `tWTR` after write data on the same rank.
    Twtr,
    /// Data-bus overlap, including missing `tRTRS` rank-turnaround or
    /// direction-turnaround gaps.
    Trtrs,
    /// Command to a rank that is busy refreshing (`tRFC`).
    RankBusy,
    /// A rank went longer than `2 x tREFI` without a refresh, or refreshed
    /// while a bank could not yet be precharged.
    RefreshInterval,
}

impl core::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let name = match self {
            ViolationKind::CmdBus => "command-bus conflict",
            ViolationKind::BankState => "bank-state misuse",
            ViolationKind::Trcd => "tRCD",
            ViolationKind::Trp => "tRP",
            ViolationKind::Tras => "tRAS",
            ViolationKind::Trtp => "tRTP",
            ViolationKind::Twr => "tWR",
            ViolationKind::Trrd => "tRRD",
            ViolationKind::Tfaw => "tFAW",
            ViolationKind::Twtr => "tWTR",
            ViolationKind::Trtrs => "tRTRS/data-bus",
            ViolationKind::RankBusy => "rank busy (tRFC)",
            ViolationKind::RefreshInterval => "refresh interval",
        };
        f.write_str(name)
    }
}

/// One recorded protocol violation: the offending command, the cycle it
/// was issued, the rule it broke, and a human-readable explanation with
/// the earliest legal cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Cycle the command was issued.
    pub at: Cycle,
    /// The offending command.
    pub cmd: Command,
    /// The rule broken.
    pub kind: ViolationKind,
    /// Context: what constraint was unmet and when it would have been.
    pub detail: String,
}

impl core::fmt::Display for Violation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "cycle {}: {} violation by {:?}: {}",
            self.at, self.kind, self.cmd, self.detail
        )
    }
}

/// Shadow copy of one bank's protocol-relevant state.
#[derive(Debug, Clone, Copy, Default)]
struct ShadowBank {
    open_row: Option<u32>,
    /// Cycle of the activate that opened the current row.
    act_at: Cycle,
    /// Earliest legal activate (set by precharge + tRP or refresh + tRFC).
    act_ready: Cycle,
    /// Earliest legal column command (activate + tRCD).
    col_ready: Cycle,
    /// tRAS component of the precharge constraint (activate + tRAS).
    ras_ready: Cycle,
    /// tRTP component (last read + burst + tRTP).
    rtp_ready: Cycle,
    /// tWR component (last write data end + tWR).
    wr_ready: Cycle,
}

impl ShadowBank {
    fn save_snap(&self, w: &mut burst_snap::SnapWriter) {
        let Self {
            open_row,
            act_at,
            act_ready,
            col_ready,
            ras_ready,
            rtp_ready,
            wr_ready,
        } = self;
        w.opt_u32(*open_row);
        w.u64(*act_at);
        w.u64(*act_ready);
        w.u64(*col_ready);
        w.u64(*ras_ready);
        w.u64(*rtp_ready);
        w.u64(*wr_ready);
    }

    fn load_snap(&mut self, r: &mut burst_snap::SnapReader) -> Result<(), burst_snap::SnapError> {
        let Self {
            open_row,
            act_at,
            act_ready,
            col_ready,
            ras_ready,
            rtp_ready,
            wr_ready,
        } = self;
        *open_row = r.opt_u32()?;
        *act_at = r.u64()?;
        *act_ready = r.u64()?;
        *col_ready = r.u64()?;
        *ras_ready = r.u64()?;
        *rtp_ready = r.u64()?;
        *wr_ready = r.u64()?;
        Ok(())
    }

    fn pre_ready(&self) -> Cycle {
        self.ras_ready.max(self.rtp_ready).max(self.wr_ready)
    }

    /// Which precharge constraint binds at `pre_ready` — for attributing a
    /// too-early precharge to the right rule.
    fn pre_kind(&self) -> ViolationKind {
        let ready = self.pre_ready();
        if ready == self.wr_ready && self.wr_ready > 0 {
            ViolationKind::Twr
        } else if ready == self.rtp_ready && self.rtp_ready > 0 {
            ViolationKind::Trtp
        } else {
            ViolationKind::Tras
        }
    }
}

/// Shadow copy of one rank's protocol-relevant state.
#[derive(Debug, Clone, Copy, Default)]
struct ShadowRank {
    /// Last four activate times, oldest first.
    act_window: [Cycle; 4],
    act_count: u32,
    last_act_at: Cycle,
    last_write_data_end: Cycle,
    /// Busy refreshing until this cycle.
    busy_until: Cycle,
    /// Cycle of the most recent refresh (`None` before the first).
    last_refresh_at: Option<Cycle>,
}

impl ShadowRank {
    fn save_snap(&self, w: &mut burst_snap::SnapWriter) {
        let Self {
            act_window,
            act_count,
            last_act_at,
            last_write_data_end,
            busy_until,
            last_refresh_at,
        } = self;
        for &at in act_window {
            w.u64(at);
        }
        w.u32(*act_count);
        w.u64(*last_act_at);
        w.u64(*last_write_data_end);
        w.u64(*busy_until);
        w.opt_u64(*last_refresh_at);
    }

    fn load_snap(&mut self, r: &mut burst_snap::SnapReader) -> Result<(), burst_snap::SnapError> {
        let Self {
            act_window,
            act_count,
            last_act_at,
            last_write_data_end,
            busy_until,
            last_refresh_at,
        } = self;
        for at in act_window {
            *at = r.u64()?;
        }
        *act_count = r.u32()?;
        *last_act_at = r.u64()?;
        *last_write_data_end = r.u64()?;
        *busy_until = r.u64()?;
        *last_refresh_at = r.opt_u64()?;
        Ok(())
    }
}

/// Independent runtime validator for the DDR2 command protocol.
///
/// # Examples
///
/// ```
/// use burst_dram::{Command, DramConfig, Loc, ProtocolChecker};
///
/// let cfg = DramConfig::small();
/// let mut chk = ProtocolChecker::new(cfg);
/// let loc = Loc::new(0, 0, 0, 5, 0);
/// chk.observe(&Command::Activate(loc), 0);
/// // Column read one cycle before tRCD is satisfied:
/// chk.observe(&Command::read(loc), cfg.timing.t_rcd - 1);
/// assert_eq!(chk.total_violations(), 1);
/// assert!(chk.violations()[0].detail.contains("tRCD"));
/// ```
#[derive(Debug, Clone)]
pub struct ProtocolChecker {
    cfg: DramConfig,
    banks: Vec<ShadowBank>,
    ranks: Vec<ShadowRank>,
    data_busy_until: Cycle,
    last_data_rank: Option<u8>,
    last_data_dir: Option<Dir>,
    last_cmd_at: Option<Cycle>,
    recorded: Vec<Violation>,
    total: u64,
}

/// Violations stored verbatim before the checker switches to counting
/// only (the first few carry all the diagnostic signal; an unbounded log
/// could dominate memory in a badly broken run).
const MAX_RECORDED: usize = 64;

impl ProtocolChecker {
    /// A checker for one channel of the given configuration, with all
    /// shadow state idle at cycle 0.
    pub fn new(cfg: DramConfig) -> Self {
        let nranks = usize::from(cfg.geometry.ranks_per_channel);
        let nbanks = nranks * usize::from(cfg.geometry.banks_per_rank);
        ProtocolChecker {
            cfg,
            banks: vec![ShadowBank::default(); nbanks],
            ranks: vec![ShadowRank::default(); nranks],
            data_busy_until: 0,
            last_data_rank: None,
            last_data_dir: None,
            last_cmd_at: None,
            recorded: Vec::new(),
            total: 0,
        }
    }

    /// Total violations observed, including ones past the recording cap.
    pub fn total_violations(&self) -> u64 {
        self.total
    }

    /// The violations recorded with full context: the first ones, up to a
    /// fixed cap (see [`ProtocolChecker::total_violations`] for the full
    /// count).
    pub fn violations(&self) -> &[Violation] {
        &self.recorded
    }

    /// `true` if no violation has been observed.
    pub fn is_clean(&self) -> bool {
        self.total == 0
    }

    fn record(&mut self, at: Cycle, cmd: &Command, kind: ViolationKind, detail: String) {
        self.total += 1;
        if self.recorded.len() < MAX_RECORDED {
            self.recorded.push(Violation {
                at,
                cmd: *cmd,
                kind,
                detail,
            });
        }
    }

    fn bank_index(&self, rank: u8, bank: u8) -> usize {
        usize::from(rank) * usize::from(self.cfg.geometry.banks_per_rank) + usize::from(bank)
    }

    /// Validates `cmd` against the shadow state, records any violations,
    /// then folds the command into the shadow state. Call once per issued
    /// command, in issue order.
    pub fn observe(&mut self, cmd: &Command, now: Cycle) {
        let t = self.cfg.timing;
        let burst = self.cfg.geometry.burst_cycles();
        // One command per cycle on the address bus. Refreshes are excluded:
        // the channel may fold a due refresh into housekeeping (`tick`)
        // without occupying the command bus.
        if !matches!(cmd, Command::RefreshAll { .. }) {
            if self.last_cmd_at == Some(now) {
                self.record(
                    now,
                    cmd,
                    ViolationKind::CmdBus,
                    "second command in one cycle on the address bus".to_string(),
                );
            }
            self.last_cmd_at = Some(now);
        }
        match *cmd {
            Command::Activate(loc) => {
                let rk = usize::from(loc.rank);
                if self.ranks[rk].busy_until > now {
                    self.record(
                        now,
                        cmd,
                        ViolationKind::RankBusy,
                        format!(
                            "rank {} refreshing until {}",
                            loc.rank, self.ranks[rk].busy_until
                        ),
                    );
                }
                if self.ranks[rk].act_count > 0 {
                    let ready = self.ranks[rk].last_act_at + t.t_rrd;
                    if now < ready {
                        self.record(
                            now,
                            cmd,
                            ViolationKind::Trrd,
                            format!(
                                "tRRD: previous activate at {}, next legal at {}",
                                self.ranks[rk].last_act_at, ready
                            ),
                        );
                    }
                }
                if self.ranks[rk].act_count >= 4 {
                    let ready = self.ranks[rk].act_window[0] + t.t_faw;
                    if now < ready {
                        self.record(
                            now,
                            cmd,
                            ViolationKind::Tfaw,
                            format!(
                                "tFAW: fourth-last activate at {}, window opens at {}",
                                self.ranks[rk].act_window[0], ready
                            ),
                        );
                    }
                }
                let bi = self.bank_index(loc.rank, loc.bank);
                let bank = self.banks[bi];
                if let Some(row) = bank.open_row {
                    self.record(
                        now,
                        cmd,
                        ViolationKind::BankState,
                        format!("activate while row {row} is open (no precharge issued)"),
                    );
                } else if now < bank.act_ready {
                    self.record(
                        now,
                        cmd,
                        ViolationKind::Trp,
                        format!("tRP/tRFC: bank releases at {}", bank.act_ready),
                    );
                }
                let b = &mut self.banks[bi];
                b.open_row = Some(loc.row);
                b.act_at = now;
                b.col_ready = now + t.t_rcd;
                b.ras_ready = b.ras_ready.max(now + t.t_ras);
                let r = &mut self.ranks[rk];
                r.act_window.rotate_left(1);
                r.act_window[3] = now;
                r.last_act_at = now;
                r.act_count = r.act_count.saturating_add(1);
            }
            Command::Precharge(loc) => {
                let rk = usize::from(loc.rank);
                if self.ranks[rk].busy_until > now {
                    self.record(
                        now,
                        cmd,
                        ViolationKind::RankBusy,
                        format!(
                            "rank {} refreshing until {}",
                            loc.rank, self.ranks[rk].busy_until
                        ),
                    );
                }
                let bi = self.bank_index(loc.rank, loc.bank);
                let bank = self.banks[bi];
                if bank.open_row.is_none() {
                    self.record(
                        now,
                        cmd,
                        ViolationKind::BankState,
                        "precharge of an already-closed bank".to_string(),
                    );
                } else if now < bank.pre_ready() {
                    let kind = bank.pre_kind();
                    self.record(
                        now,
                        cmd,
                        kind,
                        format!(
                            "{}: activate at {}, precharge legal at {}",
                            kind,
                            bank.act_at,
                            bank.pre_ready()
                        ),
                    );
                }
                let b = &mut self.banks[bi];
                b.open_row = None;
                b.act_ready = b.act_ready.max(now + t.t_rp);
            }
            Command::Column {
                loc,
                dir,
                auto_precharge,
            } => {
                let rk = usize::from(loc.rank);
                if self.ranks[rk].busy_until > now {
                    self.record(
                        now,
                        cmd,
                        ViolationKind::RankBusy,
                        format!(
                            "rank {} refreshing until {}",
                            loc.rank, self.ranks[rk].busy_until
                        ),
                    );
                }
                let bi = self.bank_index(loc.rank, loc.bank);
                let bank = self.banks[bi];
                match bank.open_row {
                    Some(row) if row == loc.row => {
                        if now < bank.col_ready {
                            self.record(
                                now,
                                cmd,
                                ViolationKind::Trcd,
                                format!(
                                    "tRCD: activate at {}, column legal at {}",
                                    bank.act_at, bank.col_ready
                                ),
                            );
                        }
                    }
                    Some(row) => self.record(
                        now,
                        cmd,
                        ViolationKind::BankState,
                        format!("column access to row {} while row {row} is open", loc.row),
                    ),
                    None => self.record(
                        now,
                        cmd,
                        ViolationKind::BankState,
                        format!("column access to row {} of a closed bank", loc.row),
                    ),
                }
                if dir == Dir::Read && self.ranks[rk].last_write_data_end > 0 {
                    let ready = self.ranks[rk].last_write_data_end + t.t_wtr;
                    if now < ready {
                        self.record(
                            now,
                            cmd,
                            ViolationKind::Twtr,
                            format!(
                                "tWTR: write data until {}, read legal at {}",
                                self.ranks[rk].last_write_data_end, ready
                            ),
                        );
                    }
                }
                let latency = match dir {
                    Dir::Read => t.t_cl,
                    Dir::Write => t.t_cwl,
                };
                let start = now + latency;
                let end = start + burst;
                if self.last_data_rank.is_some() {
                    let mut gap = 0;
                    if self.last_data_rank != Some(loc.rank) {
                        gap = gap.max(t.t_rtrs);
                    }
                    if self.last_data_dir != Some(dir) {
                        gap = gap.max(t.t_dir_turn);
                    }
                    let ready = self.data_busy_until + gap;
                    if start < ready {
                        self.record(
                            now,
                            cmd,
                            ViolationKind::Trtrs,
                            format!(
                                "data bus busy until {} (+{gap} turnaround), transfer starts {start}",
                                self.data_busy_until
                            ),
                        );
                    }
                }
                self.data_busy_until = self.data_busy_until.max(end);
                self.last_data_rank = Some(loc.rank);
                self.last_data_dir = Some(dir);
                let b = &mut self.banks[bi];
                match dir {
                    Dir::Read => b.rtp_ready = b.rtp_ready.max(now + burst + t.t_rtp),
                    Dir::Write => {
                        b.wr_ready = b.wr_ready.max(end + t.t_wr);
                        self.ranks[rk].last_write_data_end =
                            self.ranks[rk].last_write_data_end.max(end);
                    }
                }
                if auto_precharge {
                    let b = &mut self.banks[bi];
                    let pre_at = b.pre_ready();
                    b.open_row = None;
                    b.act_ready = b.act_ready.max(pre_at + t.t_rp);
                }
            }
            Command::RefreshAll { rank } => {
                let rk = usize::from(rank);
                // Refresh interval: every rank must refresh at least once
                // per 2 x tREFI (controllers may postpone up to one tREFI).
                let interval_start = self.ranks[rk].last_refresh_at.unwrap_or(0);
                let limit = interval_start + 2 * t.t_refi;
                if now > limit {
                    self.record(
                        now,
                        cmd,
                        ViolationKind::RefreshInterval,
                        format!(
                            "rank {rank} last refreshed at {interval_start}, limit {limit} \
                             (2 x tREFI = {})",
                            2 * t.t_refi
                        ),
                    );
                }
                let base = self.bank_index(rank, 0);
                let n = usize::from(self.cfg.geometry.banks_per_rank);
                // The implicit precharge-all must itself be legal.
                let mut any_open = false;
                for i in 0..n {
                    let bank = self.banks[base + i];
                    if bank.open_row.is_some() {
                        any_open = true;
                        if now < bank.pre_ready() {
                            self.record(
                                now,
                                cmd,
                                ViolationKind::RefreshInterval,
                                format!(
                                    "refresh while bank {i} cannot precharge until {}",
                                    bank.pre_ready()
                                ),
                            );
                        }
                    }
                }
                let start = if any_open { now + t.t_rp } else { now };
                for b in &mut self.banks[base..base + n] {
                    b.open_row = None;
                    b.act_ready = b.act_ready.max(start + t.t_rfc);
                }
                let r = &mut self.ranks[rk];
                r.busy_until = r.busy_until.max(start + t.t_rfc);
                r.last_refresh_at = Some(now);
            }
        }
    }

    /// Serialises the shadow state for a checkpoint. The recorded
    /// [`Violation`] list is diagnostic text and is not saved; only the
    /// `total` counter round-trips (a restored run keeps counting from it).
    pub fn save_snap(&self, w: &mut burst_snap::SnapWriter) {
        let Self {
            cfg: _, // construction input; restore re-supplies it
            banks,
            ranks,
            data_busy_until,
            last_data_rank,
            last_data_dir,
            last_cmd_at,
            recorded: _, // diagnostic violation log; load_snap clears it
            total,
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
        w.u64(*total);
    }

    /// Restores state written by [`ProtocolChecker::save_snap`] into a
    /// checker built from the same configuration.
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
            recorded,
            total,
        } = self;
        use burst_snap::SnapError;
        if r.seq_len(1)? != banks.len() {
            return Err(SnapError::Corrupt("checker bank count mismatch"));
        }
        for b in banks {
            b.load_snap(r)?;
        }
        if r.seq_len(1)? != ranks.len() {
            return Err(SnapError::Corrupt("checker rank count mismatch"));
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
        *total = r.u64()?;
        recorded.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Loc;

    fn cfg() -> DramConfig {
        DramConfig::small()
    }

    fn loc(bank: u8, row: u32, col: u32) -> Loc {
        Loc::new(0, 0, bank, row, col)
    }

    #[test]
    fn clean_sequence_records_nothing() {
        let c = cfg();
        let t = c.timing;
        let mut chk = ProtocolChecker::new(c);
        let l = loc(0, 3, 0);
        chk.observe(&Command::Activate(l), 0);
        chk.observe(&Command::read(l), t.t_rcd);
        chk.observe(&Command::Precharge(l), t.t_ras);
        chk.observe(&Command::Activate(l), t.t_ras + t.t_rp);
        assert!(chk.is_clean(), "violations: {:?}", chk.violations());
    }

    #[test]
    fn early_column_is_a_trcd_violation_with_context() {
        let c = cfg();
        let t = c.timing;
        let mut chk = ProtocolChecker::new(c);
        let l = loc(0, 3, 0);
        chk.observe(&Command::Activate(l), 10);
        chk.observe(&Command::read(l), 10 + t.t_rcd - 1);
        assert_eq!(chk.total_violations(), 1);
        let v = &chk.violations()[0];
        assert_eq!(v.kind, ViolationKind::Trcd);
        assert_eq!(v.at, 10 + t.t_rcd - 1);
        assert!(v.detail.contains("activate at 10"), "detail: {}", v.detail);
        assert!(
            v.detail.contains(&format!("legal at {}", 10 + t.t_rcd)),
            "detail: {}",
            v.detail
        );
    }

    #[test]
    fn early_precharge_is_tras() {
        let c = cfg();
        let t = c.timing;
        let mut chk = ProtocolChecker::new(c);
        let l = loc(0, 3, 0);
        chk.observe(&Command::Activate(l), 0);
        chk.observe(&Command::Precharge(l), t.t_ras - 1);
        assert_eq!(chk.violations()[0].kind, ViolationKind::Tras);
    }

    #[test]
    fn early_activate_after_precharge_is_trp() {
        let c = cfg();
        let t = c.timing;
        let mut chk = ProtocolChecker::new(c);
        let l = loc(0, 3, 0);
        chk.observe(&Command::Activate(l), 0);
        chk.observe(&Command::Precharge(l), t.t_ras);
        chk.observe(&Command::Activate(l), t.t_ras + t.t_rp - 1);
        assert_eq!(chk.violations()[0].kind, ViolationKind::Trp);
    }

    #[test]
    fn read_too_soon_after_write_is_twtr() {
        let c = cfg();
        let t = c.timing;
        let burst = c.geometry.burst_cycles();
        let mut chk = ProtocolChecker::new(c);
        let l = loc(0, 3, 0);
        chk.observe(&Command::Activate(l), 0);
        chk.observe(&Command::write(l), t.t_rcd);
        let write_end = t.t_rcd + t.t_cwl + burst;
        chk.observe(&Command::read(l), write_end + t.t_wtr - 1);
        assert!(
            chk.violations()
                .iter()
                .any(|v| v.kind == ViolationKind::Twtr),
            "violations: {:?}",
            chk.violations()
        );
    }

    #[test]
    fn overlapping_data_windows_are_trtrs() {
        let c = cfg();
        let t = c.timing;
        let mut chk = ProtocolChecker::new(c);
        let a = loc(0, 3, 0);
        let b = loc(1, 3, 0);
        chk.observe(&Command::Activate(a), 0);
        chk.observe(&Command::Activate(b), t.t_rrd);
        chk.observe(&Command::read(a), t.t_rcd + t.t_rrd);
        // Second read one cycle later: its data would overlap the first's.
        chk.observe(&Command::read(b), t.t_rcd + t.t_rrd + 1);
        assert!(chk
            .violations()
            .iter()
            .any(|v| v.kind == ViolationKind::Trtrs));
    }

    #[test]
    fn missed_refresh_interval_is_flagged() {
        let c = cfg();
        let t = c.timing;
        let mut chk = ProtocolChecker::new(c);
        chk.observe(&Command::RefreshAll { rank: 0 }, 2 * t.t_refi + 1);
        assert_eq!(chk.violations()[0].kind, ViolationKind::RefreshInterval);
        // Next refresh within the window from the previous one is clean.
        chk.observe(&Command::RefreshAll { rank: 0 }, 3 * t.t_refi);
        assert_eq!(chk.total_violations(), 1);
    }

    #[test]
    fn two_commands_in_one_cycle_is_cmd_bus() {
        let c = cfg();
        let mut chk = ProtocolChecker::new(c);
        chk.observe(&Command::Activate(loc(0, 1, 0)), 5);
        chk.observe(&Command::Activate(loc(1, 1, 0)), 5);
        assert!(chk
            .violations()
            .iter()
            .any(|v| v.kind == ViolationKind::CmdBus));
    }

    #[test]
    fn column_to_closed_bank_is_bank_state() {
        let c = cfg();
        let mut chk = ProtocolChecker::new(c);
        chk.observe(&Command::read(loc(0, 3, 0)), 0);
        assert_eq!(chk.violations()[0].kind, ViolationKind::BankState);
    }

    #[test]
    fn recording_caps_but_total_keeps_counting() {
        let c = cfg();
        let mut chk = ProtocolChecker::new(c);
        for i in 0..(MAX_RECORDED as u64 + 10) {
            // Endless column reads to a closed bank, each one a violation
            // (spaced so the data windows themselves do not overlap).
            chk.observe(&Command::read(loc(0, 3, 0)), i * 10);
        }
        assert_eq!(chk.violations().len(), MAX_RECORDED);
        assert_eq!(chk.total_violations(), MAX_RECORDED as u64 + 10);
    }
}
