//! Per-bank state machine and timing bookkeeping.

use crate::{Cycle, RowState, TimingParams};

/// State of one SDRAM bank.
///
/// Tracks the open row and the earliest cycles at which each command class
/// may legally be issued to this bank. Rank- and channel-level constraints
/// (tRRD, tFAW, tWTR, bus occupancy) live in [`crate::Rank`] and
/// [`crate::Channel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Bank {
    open_row: Option<u32>,
    /// Earliest cycle an ACTIVATE may issue (set by precharge / refresh).
    act_allowed_at: Cycle,
    /// Earliest cycle a column command may issue (set by activate + tRCD).
    col_allowed_at: Cycle,
    /// Earliest cycle a PRECHARGE may issue (tRAS / tRTP / tWR).
    pre_allowed_at: Cycle,
    /// Cycle of the most recent activate, for diagnostics.
    last_act_at: Cycle,
}

impl Bank {
    /// A precharged (idle) bank with all constraints satisfied at cycle 0.
    pub fn new() -> Self {
        Bank::default()
    }

    /// The currently open row, if any.
    pub fn open_row(&self) -> Option<u32> {
        self.open_row
    }

    /// Classifies an access to `row` against this bank's state, per the
    /// paper's Section 2 definitions.
    pub fn row_state(&self, row: u32) -> RowState {
        match self.open_row {
            Some(open) if open == row => RowState::Hit,
            Some(_) => RowState::Conflict,
            None => RowState::Empty,
        }
    }

    /// Earliest cycle an activate to this bank may issue (bank-local
    /// constraint only).
    pub fn act_ready_at(&self) -> Cycle {
        self.act_allowed_at
    }

    /// Earliest cycle a column access to the open row may issue.
    pub fn col_ready_at(&self) -> Cycle {
        self.col_allowed_at
    }

    /// Earliest cycle a precharge may issue.
    pub fn pre_ready_at(&self) -> Cycle {
        self.pre_allowed_at
    }

    /// Cycle of the most recent activate.
    pub fn last_act_at(&self) -> Cycle {
        self.last_act_at
    }

    /// Whether an activate may issue at `now` (bank-local constraints).
    pub fn can_activate(&self, now: Cycle) -> bool {
        self.open_row.is_none() && now >= self.act_allowed_at
    }

    /// Whether a column access to `row` may issue at `now` (bank-local
    /// constraints).
    pub fn can_column(&self, row: u32, now: Cycle) -> bool {
        self.open_row == Some(row) && now >= self.col_allowed_at
    }

    /// Whether a precharge may issue at `now`.
    pub fn can_precharge(&self, now: Cycle) -> bool {
        self.open_row.is_some() && now >= self.pre_allowed_at
    }

    /// Applies an activate of `row` at cycle `now`.
    ///
    /// # Panics
    ///
    /// Debug-asserts that the activate is legal.
    pub fn activate(&mut self, row: u32, now: Cycle, t: &TimingParams) {
        debug_assert!(self.can_activate(now), "illegal ACT at {now}: {self:?}");
        self.open_row = Some(row);
        self.col_allowed_at = now + t.t_rcd;
        self.pre_allowed_at = self.pre_allowed_at.max(now + t.t_ras);
        self.last_act_at = now;
    }

    /// Applies a precharge at cycle `now`.
    pub fn precharge(&mut self, now: Cycle, t: &TimingParams) {
        debug_assert!(self.can_precharge(now), "illegal PRE at {now}: {self:?}");
        self.open_row = None;
        self.act_allowed_at = now + t.t_rp;
    }

    /// Applies a column read at cycle `now`. Returns `(data_start, data_end)`.
    /// `burst_cycles` is the data-transfer length in command-clock cycles.
    pub fn column_read(
        &mut self,
        now: Cycle,
        burst_cycles: Cycle,
        t: &TimingParams,
        auto_precharge: bool,
    ) -> (Cycle, Cycle) {
        debug_assert!(
            now >= self.col_allowed_at,
            "illegal READ at {now}: {self:?}"
        );
        let start = now + t.t_cl;
        let end = start + burst_cycles;
        self.pre_allowed_at = self.pre_allowed_at.max(now + burst_cycles + t.t_rtp);
        if auto_precharge {
            let pre_at = self.pre_allowed_at;
            self.open_row = None;
            self.act_allowed_at = pre_at + t.t_rp;
        }
        (start, end)
    }

    /// Applies a column write at cycle `now`. Returns `(data_start, data_end)`.
    pub fn column_write(
        &mut self,
        now: Cycle,
        burst_cycles: Cycle,
        t: &TimingParams,
        auto_precharge: bool,
    ) -> (Cycle, Cycle) {
        debug_assert!(
            now >= self.col_allowed_at,
            "illegal WRITE at {now}: {self:?}"
        );
        let start = now + t.t_cwl;
        let end = start + burst_cycles;
        self.pre_allowed_at = self.pre_allowed_at.max(end + t.t_wr);
        if auto_precharge {
            let pre_at = self.pre_allowed_at;
            self.open_row = None;
            self.act_allowed_at = pre_at + t.t_rp;
        }
        (start, end)
    }

    /// Forces the bank closed for a refresh beginning at `now`; the bank may
    /// activate again once the refresh cycle time has elapsed.
    pub fn refresh(&mut self, now: Cycle, t: &TimingParams) {
        debug_assert!(self.open_row.is_none(), "refresh with open row");
        self.open_row = None;
        self.act_allowed_at = self.act_allowed_at.max(now + t.t_rfc);
    }

    /// Serialises the bank's full timing state for a checkpoint.
    pub fn save_snap(&self, w: &mut burst_snap::SnapWriter) {
        let Self {
            open_row,
            act_allowed_at,
            col_allowed_at,
            pre_allowed_at,
            last_act_at,
        } = self;
        w.opt_u32(*open_row);
        w.u64(*act_allowed_at);
        w.u64(*col_allowed_at);
        w.u64(*pre_allowed_at);
        w.u64(*last_act_at);
    }

    /// Restores state written by [`Bank::save_snap`].
    pub fn load_snap(
        &mut self,
        r: &mut burst_snap::SnapReader,
    ) -> Result<(), burst_snap::SnapError> {
        let Self {
            open_row,
            act_allowed_at,
            col_allowed_at,
            pre_allowed_at,
            last_act_at,
        } = self;
        *open_row = r.opt_u32()?;
        *act_allowed_at = r.u64()?;
        *col_allowed_at = r.u64()?;
        *pre_allowed_at = r.u64()?;
        *last_act_at = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> TimingParams {
        TimingParams::ddr2_pc2_6400()
    }

    #[test]
    fn fresh_bank_is_empty() {
        let b = Bank::new();
        assert_eq!(b.open_row(), None);
        assert_eq!(b.row_state(7), RowState::Empty);
        assert!(b.can_activate(0));
        assert!(!b.can_precharge(0));
        assert!(!b.can_column(7, 100));
    }

    #[test]
    fn activate_opens_row_and_blocks_column_until_trcd() {
        let t = t();
        let mut b = Bank::new();
        b.activate(42, 10, &t);
        assert_eq!(b.open_row(), Some(42));
        assert_eq!(b.row_state(42), RowState::Hit);
        assert_eq!(b.row_state(43), RowState::Conflict);
        assert!(!b.can_column(42, 10 + t.t_rcd - 1));
        assert!(b.can_column(42, 10 + t.t_rcd));
        assert!(
            !b.can_column(43, 10 + t.t_rcd),
            "wrong row must not be accessible"
        );
    }

    #[test]
    fn precharge_blocked_until_tras() {
        let t = t();
        let mut b = Bank::new();
        b.activate(1, 0, &t);
        assert!(!b.can_precharge(t.t_ras - 1));
        assert!(b.can_precharge(t.t_ras));
        b.precharge(t.t_ras, &t);
        assert_eq!(b.open_row(), None);
        assert!(!b.can_activate(t.t_ras + t.t_rp - 1));
        assert!(b.can_activate(t.t_ras + t.t_rp));
    }

    #[test]
    fn read_returns_data_window_after_tcl() {
        let t = t();
        let mut b = Bank::new();
        b.activate(1, 0, &t);
        let (s, e) = b.column_read(t.t_rcd, 4, &t, false);
        assert_eq!(s, t.t_rcd + t.t_cl);
        assert_eq!(e, s + 4);
        assert_eq!(b.open_row(), Some(1), "no auto-precharge: row stays open");
    }

    #[test]
    fn write_extends_precharge_by_twr() {
        let t = t();
        let mut b = Bank::new();
        b.activate(1, 0, &t);
        let now = t.t_rcd;
        let (s, e) = b.column_write(now, 4, &t, false);
        assert_eq!(s, now + t.t_cwl);
        assert_eq!(e, s + 4);
        assert!(b.pre_ready_at() >= e + t.t_wr);
    }

    #[test]
    fn auto_precharge_closes_row() {
        let t = t();
        let mut b = Bank::new();
        b.activate(1, 0, &t);
        b.column_read(t.t_rcd, 4, &t, true);
        assert_eq!(b.open_row(), None);
        assert_eq!(b.row_state(1), RowState::Empty);
        assert!(
            b.act_ready_at() > t.t_rcd,
            "tRP must elapse after auto-precharge"
        );
    }

    #[test]
    fn read_to_precharge_respects_trtp() {
        let t = t();
        let mut b = Bank::new();
        b.activate(1, 0, &t);
        let now = t.t_ras; // tRAS satisfied already
        b.column_read(now, 4, &t, false);
        assert!(!b.can_precharge(now + 4 + t.t_rtp - 1));
        assert!(b.can_precharge(now + 4 + t.t_rtp));
    }

    #[test]
    fn refresh_blocks_activation_for_trfc() {
        let t = t();
        let mut b = Bank::new();
        b.refresh(100, &t);
        assert!(!b.can_activate(100 + t.t_rfc - 1));
        assert!(b.can_activate(100 + t.t_rfc));
    }
}
