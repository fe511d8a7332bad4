//! Starvation watchdog: per-access ageing, escalation, and forward-progress
//! stall detection.
//!
//! Access reordering mechanisms trade fairness for throughput — writes in
//! particular can wait behind an unbounded read stream (paper Section 5.1).
//! The watchdog bounds that wait: once an access's age exceeds
//! [`WatchdogConfig::escalate_age`] the bank arbiter serves it oldest-first,
//! bypassing row-hit/burst preference, and the transaction scheduler gives
//! its transactions top priority. Independently, if the controller holds
//! outstanding accesses but issues *nothing* for
//! [`WatchdogConfig::stall_limit`] cycles, a structured
//! [`StallDiagnostic`] is latched instead of hanging the simulation.

use crate::AccessId;
use burst_dram::Cycle;

/// Watchdog thresholds, in memory cycles.
///
/// The defaults are far above any latency the paper's mechanisms produce,
/// so paper-fidelity behaviour is unchanged unless a run actually starves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WatchdogConfig {
    /// An access older than this is *escalated*: served oldest-first by the
    /// bank arbiter and prioritised by the transaction scheduler.
    pub escalate_age: Cycle,
    /// With outstanding accesses but no transaction issued (and no arrival)
    /// for this many cycles, the controller latches a [`StallDiagnostic`].
    pub stall_limit: Cycle,
}

impl WatchdogConfig {
    /// Paper-neutral defaults: escalate after 100k cycles, declare a stall
    /// after 1M cycles without progress.
    pub fn baseline() -> Self {
        WatchdogConfig {
            escalate_age: 100_000,
            stall_limit: 1_000_000,
        }
    }
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig::baseline()
    }
}

/// A latched forward-progress failure: the controller held outstanding
/// accesses yet issued no transaction for longer than the stall limit.
///
/// Carried as a structured error (not a panic) so harnesses can report the
/// stuck state — which access is oldest, how long nothing has moved — and
/// fail the run cleanly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StallDiagnostic {
    /// Cycle of the last forward progress (issue or arrival).
    pub since: Cycle,
    /// Cycle at which the stall was detected.
    pub at: Cycle,
    /// Outstanding reads at detection time.
    pub reads: usize,
    /// Outstanding writes at detection time.
    pub writes: usize,
    /// The oldest outstanding access, if known.
    pub oldest_id: Option<AccessId>,
    /// Age of the oldest outstanding access at detection time.
    pub oldest_age: Cycle,
    /// FNV-1a digest of the full simulation state at detection time,
    /// stamped by the system layer so stall reports can be correlated with
    /// checkpoints and oracle epochs. Zero when the latching layer has no
    /// hash available (e.g. the bare controller engine).
    pub state_hash: u64,
}

impl StallDiagnostic {
    /// A one-token machine-readable classification of the stuck state,
    /// used by the sweep supervisor's failure taxonomy: `"write-drain"`
    /// when only writes are outstanding, `"read-starve"` when only reads
    /// are, `"mixed"` when both, `"empty"` when neither (a watchdog
    /// misfire, which the taxonomy should make visible rather than hide).
    pub fn stall_class(&self) -> &'static str {
        match (self.reads > 0, self.writes > 0) {
            (true, true) => "mixed",
            (true, false) => "read-starve",
            (false, true) => "write-drain",
            (false, false) => "empty",
        }
    }

    /// Cycles without forward progress when the stall was declared.
    pub fn stuck_for(&self) -> Cycle {
        self.at.saturating_sub(self.since)
    }

    /// Serialises the diagnostic for a checkpoint.
    pub fn save_snap(&self, w: &mut burst_snap::SnapWriter) {
        let Self {
            since,
            at,
            reads,
            writes,
            oldest_id,
            oldest_age,
            state_hash,
        } = self;
        w.u64(*since);
        w.u64(*at);
        w.usize(*reads);
        w.usize(*writes);
        w.opt_u64(oldest_id.map(AccessId::value));
        w.u64(*oldest_age);
        w.u64(*state_hash);
    }

    /// Reconstructs a diagnostic written by [`StallDiagnostic::save_snap`].
    pub fn load_snap(r: &mut burst_snap::SnapReader) -> Result<Self, burst_snap::SnapError> {
        Ok(StallDiagnostic {
            since: r.u64()?,
            at: r.u64()?,
            reads: r.usize()?,
            writes: r.usize()?,
            oldest_id: r.opt_u64()?.map(AccessId::new),
            oldest_age: r.u64()?,
            state_hash: r.u64()?,
        })
    }
}

impl core::fmt::Display for StallDiagnostic {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "no forward progress since cycle {} (detected at {}): {} reads + {} writes outstanding",
            self.since, self.at, self.reads, self.writes
        )?;
        if let Some(id) = self.oldest_id {
            write!(f, ", oldest access {id} aged {} cycles", self.oldest_age)?;
        }
        if self.state_hash != 0 {
            write!(f, ", state hash {:#018x}", self.state_hash)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_thresholds_are_paper_neutral() {
        let w = WatchdogConfig::baseline();
        assert!(w.escalate_age >= 100_000);
        assert!(w.stall_limit > w.escalate_age);
        assert_eq!(WatchdogConfig::default(), w);
    }

    #[test]
    fn diagnostic_display_names_the_oldest_access() {
        let d = StallDiagnostic {
            since: 10,
            at: 1_000_010,
            reads: 3,
            writes: 1,
            oldest_id: Some(AccessId::new(42)),
            oldest_age: 999_990,
            state_hash: 0xdead_beef_0000_0001,
        };
        let s = d.to_string();
        assert!(s.contains("since cycle 10"), "{s}");
        assert!(s.contains("#42"), "{s}");
        assert!(s.contains("3 reads"), "{s}");
        assert!(s.contains("state hash 0xdeadbeef00000001"), "{s}");
        assert_eq!(d.stall_class(), "mixed");
        assert_eq!(d.stuck_for(), 1_000_000);

        let mut w = burst_snap::SnapWriter::new();
        d.save_snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = burst_snap::SnapReader::new(&bytes);
        let back = StallDiagnostic::load_snap(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn stall_class_partitions_by_outstanding_mix() {
        let base = StallDiagnostic {
            since: 0,
            at: 100,
            reads: 0,
            writes: 0,
            oldest_id: None,
            oldest_age: 0,
            state_hash: 0,
        };
        assert_eq!(base.stall_class(), "empty");
        assert_eq!(
            StallDiagnostic { reads: 2, ..base }.stall_class(),
            "read-starve"
        );
        assert_eq!(
            StallDiagnostic { writes: 5, ..base }.stall_class(),
            "write-drain"
        );
    }
}
