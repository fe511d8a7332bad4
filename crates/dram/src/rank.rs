//! Per-rank constraints: tRRD, tFAW and write-to-read turnaround.

use crate::{Cycle, TimingParams};

/// Rank-level timing state shared by all banks of one rank.
///
/// Enforces the activate-to-activate spacing (tRRD), the four-activate
/// window (tFAW) and the write-to-read turnaround (tWTR) that apply across
/// banks within a rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Rank {
    /// Ring buffer of the last four activate times, oldest first.
    act_window: [Cycle; 4],
    /// Cycle of the most recent activate to any bank of this rank.
    last_act_at: Cycle,
    /// Number of activates recorded (saturating at a large value).
    act_count: u32,
    /// End cycle of the most recent write data transfer to this rank.
    last_write_data_end: Cycle,
    /// Rank unavailable until this cycle (refresh in progress).
    busy_until: Cycle,
}

impl Rank {
    /// A fresh rank with no history.
    pub fn new() -> Self {
        Rank::default()
    }

    /// Earliest cycle an activate to any bank of this rank may issue.
    pub fn act_ready_at(&self, t: &TimingParams) -> Cycle {
        let mut ready = self.busy_until;
        if self.act_count > 0 {
            ready = ready.max(self.last_act_at + t.t_rrd);
        }
        if self.act_count >= 4 {
            // tFAW: the 4th-most-recent activate plus the window.
            ready = ready.max(self.act_window[0] + t.t_faw);
        }
        ready
    }

    /// Whether an activate may issue at `now` under rank constraints.
    pub fn can_activate(&self, now: Cycle, t: &TimingParams) -> bool {
        now >= self.act_ready_at(t)
    }

    /// Earliest cycle a column *read* command to this rank may issue
    /// (write-to-read turnaround).
    pub fn read_ready_at(&self, t: &TimingParams) -> Cycle {
        self.busy_until.max(if self.last_write_data_end > 0 {
            self.last_write_data_end + t.t_wtr
        } else {
            0
        })
    }

    /// Whether a column read may issue at `now` under rank constraints.
    pub fn can_read(&self, now: Cycle, t: &TimingParams) -> bool {
        now >= self.read_ready_at(t)
    }

    /// Earliest cycle a column *write* command may issue. Writes are gated
    /// by bus occupancy rather than rank turnaround, so only refresh
    /// busyness applies here.
    pub fn write_ready_at(&self) -> Cycle {
        self.busy_until
    }

    /// Whether the rank is idle (not refreshing) at `now`.
    pub fn available(&self, now: Cycle) -> bool {
        now >= self.busy_until
    }

    /// First cycle at which the rank is available again (refresh end).
    pub fn busy_until(&self) -> Cycle {
        self.busy_until
    }

    /// Records an activate at `now`.
    pub fn note_activate(&mut self, now: Cycle) {
        self.act_window.rotate_left(1);
        self.act_window[3] = now;
        self.last_act_at = now;
        self.act_count = self.act_count.saturating_add(1);
    }

    /// Records a write whose data transfer ends at `data_end`.
    pub fn note_write(&mut self, data_end: Cycle) {
        self.last_write_data_end = self.last_write_data_end.max(data_end);
    }

    /// Marks the rank busy (refreshing) until `until`.
    pub fn set_busy_until(&mut self, until: Cycle) {
        self.busy_until = self.busy_until.max(until);
    }

    /// Serialises the rank's full timing state for a checkpoint.
    pub fn save_snap(&self, w: &mut burst_snap::SnapWriter) {
        let Self {
            act_window,
            last_act_at,
            act_count,
            last_write_data_end,
            busy_until,
        } = self;
        for &at in act_window {
            w.u64(at);
        }
        w.u64(*last_act_at);
        w.u32(*act_count);
        w.u64(*last_write_data_end);
        w.u64(*busy_until);
    }

    /// Restores state written by [`Rank::save_snap`].
    pub fn load_snap(
        &mut self,
        r: &mut burst_snap::SnapReader,
    ) -> Result<(), burst_snap::SnapError> {
        let Self {
            act_window,
            last_act_at,
            act_count,
            last_write_data_end,
            busy_until,
        } = self;
        for at in act_window {
            *at = r.u64()?;
        }
        *last_act_at = r.u64()?;
        *act_count = r.u32()?;
        *last_write_data_end = r.u64()?;
        *busy_until = r.u64()?;
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
    fn fresh_rank_allows_everything() {
        let r = Rank::new();
        let t = t();
        assert!(r.can_activate(0, &t));
        assert!(r.can_read(0, &t));
        assert!(r.available(0));
    }

    #[test]
    fn trrd_spaces_activates() {
        let t = t();
        let mut r = Rank::new();
        r.note_activate(100);
        assert!(!r.can_activate(100 + t.t_rrd - 1, &t));
        assert!(r.can_activate(100 + t.t_rrd, &t));
    }

    #[test]
    fn tfaw_limits_four_activates() {
        let t = t();
        let mut r = Rank::new();
        // Four activates spaced exactly tRRD apart.
        for i in 0..4u64 {
            r.note_activate(i * t.t_rrd);
        }
        // The 5th activate must wait for the first + tFAW.
        let earliest = r.act_ready_at(&t);
        assert_eq!(earliest, t.t_faw.max(3 * t.t_rrd + t.t_rrd));
        assert!(earliest >= t.t_faw);
        assert!(!r.can_activate(t.t_faw - 1, &t));
    }

    #[test]
    fn twtr_delays_read_after_write() {
        let t = t();
        let mut r = Rank::new();
        r.note_write(50);
        assert!(!r.can_read(50 + t.t_wtr - 1, &t));
        assert!(r.can_read(50 + t.t_wtr, &t));
    }

    #[test]
    fn busy_blocks_all_commands() {
        let t = t();
        let mut r = Rank::new();
        r.set_busy_until(200);
        assert!(!r.can_activate(199, &t));
        assert!(!r.can_read(199, &t));
        assert!(r.write_ready_at() == 200);
        assert!(r.can_activate(200, &t));
    }

    #[test]
    fn busy_until_never_decreases() {
        let mut r = Rank::new();
        r.set_busy_until(200);
        r.set_busy_until(100);
        assert!(!r.available(150));
        assert!(r.available(200));
    }
}
