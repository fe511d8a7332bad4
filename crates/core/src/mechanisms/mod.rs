//! The access reordering mechanisms evaluated by the paper (Table 4).
//!
//! | Name | Description |
//! |---|---|
//! | `BkInOrder` | In order intra bank, round robin inter banks (baseline) |
//! | `RowHit` | Row hit first intra bank, round robin inter banks (Rixner et al.) |
//! | `Intel` | Intel's patented out-of-order scheduling |
//! | `Intel_RP` | Intel's scheduling with read preemption |
//! | `Burst` | Burst scheduling |
//! | `Burst_RP` | Burst scheduling with read preemption |
//! | `Burst_WP` | Burst scheduling with write piggybacking |
//! | `Burst_TH` | Burst scheduling with a static threshold (52 is the paper's best) |
//!
//! Plus three extensions beyond Table 4: `Burst_DYN` (Section 7 dynamic
//! threshold), `Burst_CRIT` (Section 7 intra-burst critical-first) and
//! `AdaptHist` (Hur & Lin's adaptive history scheduler from Section 2.2).

mod adaptive;
mod bk_in_order;
mod burst;
mod intel;
mod row_hit;

pub use adaptive::AdaptiveHistoryScheduler;
pub use bk_in_order::BkInOrderScheduler;
pub use burst::{BurstOptions, BurstScheduler};
pub use intel::IntelScheduler;
pub use row_hit::RowHitScheduler;

use crate::{
    Access, AccessKind, Completion, CtrlConfig, CtrlStats, EnqueueOutcome, Outstanding,
    StallDiagnostic,
};
use burst_dram::{Cycle, Dram, Geometry};

/// A memory controller scheduling policy: decides the order in which
/// outstanding accesses execute and which SDRAM transaction issues each
/// cycle.
///
/// Drive it by calling [`AccessScheduler::enqueue`] for each access the CPU
/// issues (after checking [`AccessScheduler::can_accept`]) and
/// [`AccessScheduler::tick`] once per memory cycle. Completions report when
/// each access's data transfer ends.
pub trait AccessScheduler: core::fmt::Debug {
    /// Which mechanism this scheduler implements.
    fn mechanism(&self) -> Mechanism;

    /// Whether a new access can enter: the access pool has space and the
    /// write queue is not saturated. When the write queue reaches capacity
    /// the main memory cannot accept any new access (paper Section 3.2),
    /// which is what stalls the CPU pipeline.
    fn can_accept(&self, kind: AccessKind) -> bool;

    /// Offers an access to the controller at cycle `now`.
    ///
    /// Reads that hit in the write queue are forwarded the latest write
    /// data and complete immediately: a [`Completion`] is pushed and
    /// [`EnqueueOutcome::Forwarded`] returned.
    ///
    /// Calling while [`AccessScheduler::can_accept`] is false returns
    /// [`EnqueueOutcome::Rejected`] in every build mode; the access is not
    /// recorded and the caller must hold it and retry.
    fn enqueue(
        &mut self,
        access: Access,
        now: Cycle,
        completions: &mut Vec<Completion>,
    ) -> EnqueueOutcome;

    /// Advances one memory cycle: refresh housekeeping, bank arbitration,
    /// and issuing at most one transaction per channel. Finished accesses
    /// are appended to `completions` (their `done_at` may lie a few cycles
    /// in the future — the end of the data transfer).
    fn tick(&mut self, dram: &mut Dram, now: Cycle, completions: &mut Vec<Completion>);

    /// Statistics accumulated so far.
    fn stats(&self) -> &CtrlStats;

    /// Outstanding access counts.
    fn outstanding(&self) -> Outstanding;

    /// The forward-progress failure latched by the starvation watchdog, if
    /// any. Harnesses should treat `Some` as a fatal diagnostic: the
    /// controller held outstanding accesses but issued nothing for longer
    /// than [`crate::WatchdogConfig::stall_limit`] cycles.
    fn stall_diagnostic(&self) -> Option<StallDiagnostic>;

    /// Whether the scheduler is *quiescent*: no outstanding or retrying
    /// accesses and no latched stall, so that — absent new enqueues — every
    /// future [`AccessScheduler::tick`] is a pure bookkeeping no-op that
    /// [`AccessScheduler::advance_quiescent`] can replay in one batch.
    /// Returning `false` is always correct: the simulator then never skips
    /// cycles for this scheduler.
    fn quiescent(&self) -> bool;

    /// Batch-advances per-tick bookkeeping (cycle counters, occupancy
    /// sampling, watchdog progress clock, adaptation timers) over the `n`
    /// quiescent ticks at cycles `from..from + n`, bit-identically to
    /// calling [`AccessScheduler::tick`] that many times while quiescent.
    /// Only called when [`AccessScheduler::quiescent`] returned `true`.
    fn advance_quiescent(&mut self, from: Cycle, n: u64);

    /// The earliest cycle strictly after `last` at which a call to
    /// [`AccessScheduler::tick`] could differ from a pure bookkeeping
    /// no-op — a bank arbiter installing or preempting an ongoing access,
    /// a transaction becoming issuable, an escalation or adaptation timer
    /// firing, or the starvation watchdog latching — assuming no new
    /// accesses are enqueued in the interim. `None` means the next cycle
    /// must be stepped.
    ///
    /// Unlike [`AccessScheduler::quiescent`], this covers *busy* periods:
    /// outstanding accesses exist but every transaction is blocked on
    /// SDRAM timing. The event may be conservatively early (the stepped
    /// tick at the event simply turns out to be another no-op) but must
    /// never be late: skipping the ticks in `(last, event)` must be
    /// bit-identical to stepping them. Returning `None` is always correct:
    /// the simulator then never busy-skips for this scheduler.
    fn next_busy_event(&self, dram: &Dram, last: Cycle) -> Option<Cycle>;

    /// Whether enqueueing `access` could move the cycle reported by
    /// [`AccessScheduler::next_busy_event`] *earlier*. The simulator no
    /// longer calls this: it computes that event afresh whenever it
    /// attempts a jump, so nothing is cached across an enqueue. `true` is
    /// always a safe answer.
    fn enqueue_may_advance_horizon(&self, _access: &Access) -> bool {
        true
    }

    /// Batch-advances per-tick bookkeeping (cycle counters, occupancy
    /// sampling at the live outstanding counts, the watchdog's running
    /// max-age fold) over the `n` blocked ticks at cycles `from..from + n`,
    /// bit-identically to calling [`AccessScheduler::tick`] that many times
    /// while every transaction stays blocked. Only called for stretches
    /// validated by [`AccessScheduler::next_busy_event`].
    fn advance_blocked(&mut self, from: Cycle, n: u64);

    /// Serialises the scheduler's full state (queues, adaptation timers,
    /// shared core bookkeeping and statistics) for a checkpoint. A
    /// scheduler that cannot be checkpointed returns
    /// [`burst_snap::SnapError::Unsupported`], and the simulator refuses to
    /// checkpoint it instead of silently losing state.
    fn save_state(&self, w: &mut burst_snap::SnapWriter) -> Result<(), burst_snap::SnapError>;

    /// Restores state written by [`AccessScheduler::save_state`] into a
    /// scheduler freshly built from the same configuration, geometry and
    /// mechanism. Structural mismatches are rejected as corrupt.
    fn load_state(&mut self, r: &mut burst_snap::SnapReader) -> Result<(), burst_snap::SnapError>;
}

/// Serialises a set of per-bank (or per-channel) access queues.
pub(crate) fn save_queue_set(
    queues: &[std::collections::VecDeque<Access>],
    w: &mut burst_snap::SnapWriter,
) {
    w.usize(queues.len());
    for q in queues {
        w.usize(q.len());
        for a in q {
            a.save_snap(w);
        }
    }
}

/// Restores queues written by [`save_queue_set`] into a same-sized set.
pub(crate) fn load_queue_set(
    queues: &mut [std::collections::VecDeque<Access>],
    r: &mut burst_snap::SnapReader,
) -> Result<(), burst_snap::SnapError> {
    if r.seq_len(1)? != queues.len() {
        return Err(burst_snap::SnapError::Corrupt("queue count mismatch"));
    }
    for q in queues.iter_mut() {
        let n = r.seq_len(24)?;
        q.clear();
        for _ in 0..n {
            q.push_back(Access::load_snap(r)?);
        }
    }
    Ok(())
}

/// Serialises a set of round-robin cursors.
pub(crate) fn save_cursors(rr: &[usize], w: &mut burst_snap::SnapWriter) {
    w.usize(rr.len());
    for &c in rr {
        w.usize(c);
    }
}

/// Restores cursors written by [`save_cursors`] into a same-sized set.
pub(crate) fn load_cursors(
    rr: &mut [usize],
    r: &mut burst_snap::SnapReader,
) -> Result<(), burst_snap::SnapError> {
    if r.seq_len(8)? != rr.len() {
        return Err(burst_snap::SnapError::Corrupt("cursor count mismatch"));
    }
    for c in rr.iter_mut() {
        *c = r.usize()?;
    }
    Ok(())
}

/// The access reordering mechanisms of the paper's Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mechanism {
    /// In order intra bank, round robin inter banks.
    BkInOrder,
    /// Row hit first intra bank, round robin inter banks.
    RowHit,
    /// Intel's out-of-order memory scheduling (US patent 7,127,574).
    Intel,
    /// Intel's scheduling with read preemption.
    IntelRp,
    /// Burst scheduling (no read preemption, no write piggybacking).
    Burst,
    /// Burst scheduling with read preemption.
    BurstRp,
    /// Burst scheduling with write piggybacking.
    BurstWp,
    /// Burst scheduling with a static threshold switching between read
    /// preemption (occupancy below) and write piggybacking (above). The
    /// paper's experiments select 52.
    BurstTh(u32),
    /// Extension (paper Section 7, future work): burst scheduling with a
    /// *dynamic* threshold recomputed on the fly from the read/write
    /// arrival ratio.
    BurstDyn,
    /// Extension (paper Section 7, future work): `Burst_TH52` plus
    /// intra-burst critical-first ordering using CPU criticality hints.
    BurstCrit,
    /// Extension (paper Section 2.2 related work): the adaptive
    /// history-based scheduler of Hur & Lin (MICRO 2004), which matches the
    /// scheduled read/write mix to the program's arrival mix.
    AdaptiveHistory,
}

impl Mechanism {
    /// The threshold the paper found best across its 16 benchmarks.
    pub const PAPER_THRESHOLD: u32 = 52;

    /// All eight mechanisms as simulated in the paper, with the published
    /// threshold of 52.
    pub fn all_paper() -> [Mechanism; 8] {
        [
            Mechanism::BkInOrder,
            Mechanism::RowHit,
            Mechanism::Intel,
            Mechanism::IntelRp,
            Mechanism::Burst,
            Mechanism::BurstRp,
            Mechanism::BurstWp,
            Mechanism::BurstTh(Self::PAPER_THRESHOLD),
        ]
    }

    /// The display name used in the paper's figures.
    pub fn name(&self) -> String {
        match self {
            Mechanism::BkInOrder => "BkInOrder".to_string(),
            Mechanism::RowHit => "RowHit".to_string(),
            Mechanism::Intel => "Intel".to_string(),
            Mechanism::IntelRp => "Intel_RP".to_string(),
            Mechanism::Burst => "Burst".to_string(),
            Mechanism::BurstRp => "Burst_RP".to_string(),
            Mechanism::BurstWp => "Burst_WP".to_string(),
            Mechanism::BurstTh(t) => format!("Burst_TH{t}"),
            Mechanism::BurstDyn => "Burst_DYN".to_string(),
            Mechanism::BurstCrit => "Burst_CRIT".to_string(),
            Mechanism::AdaptiveHistory => "AdaptHist".to_string(),
        }
    }

    /// Parses a mechanism from its [`Mechanism::name`] display form —
    /// the exact inverse, so journal and CSV rows round-trip losslessly.
    ///
    /// # Examples
    ///
    /// ```
    /// use burst_core::Mechanism;
    ///
    /// assert_eq!(Mechanism::from_name("Burst_TH52"), Some(Mechanism::BurstTh(52)));
    /// assert_eq!(Mechanism::from_name("BkInOrder"), Some(Mechanism::BkInOrder));
    /// assert_eq!(Mechanism::from_name("nonsense"), None);
    /// ```
    pub fn from_name(name: &str) -> Option<Mechanism> {
        match name {
            "BkInOrder" => Some(Mechanism::BkInOrder),
            "RowHit" => Some(Mechanism::RowHit),
            "Intel" => Some(Mechanism::Intel),
            "Intel_RP" => Some(Mechanism::IntelRp),
            "Burst" => Some(Mechanism::Burst),
            "Burst_RP" => Some(Mechanism::BurstRp),
            "Burst_WP" => Some(Mechanism::BurstWp),
            "Burst_DYN" => Some(Mechanism::BurstDyn),
            "Burst_CRIT" => Some(Mechanism::BurstCrit),
            "AdaptHist" => Some(Mechanism::AdaptiveHistory),
            _ => name
                .strip_prefix("Burst_TH")
                .and_then(|t| t.parse().ok())
                .map(Mechanism::BurstTh),
        }
    }

    /// Builds a scheduler instance for a device of the given geometry.
    ///
    /// # Examples
    ///
    /// ```
    /// use burst_core::{CtrlConfig, Mechanism};
    /// use burst_dram::Geometry;
    ///
    /// let sched = Mechanism::BurstTh(52).build(CtrlConfig::default(), Geometry::baseline());
    /// assert_eq!(sched.mechanism(), Mechanism::BurstTh(52));
    /// ```
    pub fn build(&self, cfg: CtrlConfig, geom: Geometry) -> Box<dyn AccessScheduler> {
        let write_cap = cfg.write_capacity as u32;
        match *self {
            Mechanism::BkInOrder => Box::new(BkInOrderScheduler::new(cfg, geom)),
            Mechanism::RowHit => Box::new(RowHitScheduler::new(cfg, geom)),
            Mechanism::Intel => Box::new(IntelScheduler::new(cfg, geom, false)),
            Mechanism::IntelRp => Box::new(IntelScheduler::new(cfg, geom, true)),
            Mechanism::Burst => Box::new(BurstScheduler::new(
                cfg,
                geom,
                BurstOptions::static_threshold(0, None, *self),
            )),
            Mechanism::BurstRp => Box::new(BurstScheduler::new(
                cfg,
                geom,
                BurstOptions::static_threshold(write_cap, None, *self),
            )),
            Mechanism::BurstWp => Box::new(BurstScheduler::new(
                cfg,
                geom,
                BurstOptions::static_threshold(0, Some(0), *self),
            )),
            Mechanism::BurstTh(t) => Box::new(BurstScheduler::new(
                cfg,
                geom,
                BurstOptions::static_threshold(t, Some(t), *self),
            )),
            Mechanism::BurstCrit => Box::new(BurstScheduler::new(
                cfg,
                geom,
                BurstOptions {
                    critical_first: true,
                    ..BurstOptions::static_threshold(
                        Self::PAPER_THRESHOLD,
                        Some(Self::PAPER_THRESHOLD),
                        *self,
                    )
                },
            )),
            Mechanism::AdaptiveHistory => Box::new(AdaptiveHistoryScheduler::new(cfg, geom)),
            Mechanism::BurstDyn => Box::new(BurstScheduler::new(
                cfg,
                geom,
                BurstOptions {
                    // Start at the paper's static optimum; adapt every
                    // 1024 memory cycles from the read/write mix.
                    dynamic_period: Some(1024),
                    ..BurstOptions::static_threshold(
                        Self::PAPER_THRESHOLD,
                        Some(Self::PAPER_THRESHOLD),
                        *self,
                    )
                },
            )),
        }
    }
}

impl core::fmt::Display for Mechanism {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper_figures() {
        let names: Vec<String> = Mechanism::all_paper().iter().map(|m| m.name()).collect();
        assert_eq!(
            names,
            vec![
                "BkInOrder",
                "RowHit",
                "Intel",
                "Intel_RP",
                "Burst",
                "Burst_RP",
                "Burst_WP",
                "Burst_TH52"
            ]
        );
    }

    #[test]
    fn build_constructs_each_mechanism() {
        for m in Mechanism::all_paper() {
            let s = m.build(CtrlConfig::default(), Geometry::baseline());
            assert_eq!(s.mechanism(), m);
            assert!(s.can_accept(AccessKind::Read));
            assert_eq!(s.outstanding().total(), 0);
        }
    }

    #[test]
    fn every_mechanism_snapshot_round_trips_in_lockstep() {
        use crate::{Access, AccessId};
        use burst_dram::{AddressMapping, Dram, DramConfig, PhysAddr};

        let mut mechs = Mechanism::all_paper().to_vec();
        mechs.extend([
            Mechanism::BurstDyn,
            Mechanism::BurstCrit,
            Mechanism::AdaptiveHistory,
        ]);
        for m in mechs {
            let dram_cfg = DramConfig::baseline();
            let ctrl = CtrlConfig::default();
            let mut dram = Dram::new(dram_cfg, AddressMapping::PageInterleaving);
            let mut sched = m.build(ctrl, dram_cfg.geometry);
            let mut done = Vec::new();
            // Drive a mixed stream so queues, bursts and history fill up,
            // then snapshot mid-flight.
            let mut id = 0u64;
            for now in 0..120u64 {
                if now % 3 != 2 && sched.can_accept(AccessKind::Read) {
                    let kind = if now % 9 == 0 {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    let addr = PhysAddr::new(id * 64 * 17);
                    let a = Access::new(AccessId::new(id), kind, addr, dram.decode(addr), now)
                        .with_critical(id.is_multiple_of(4));
                    sched.enqueue(a, now, &mut done);
                    id += 1;
                }
                sched.tick(&mut dram, now, &mut done);
            }
            let mut w = burst_snap::SnapWriter::new();
            sched
                .save_state(&mut w)
                .expect("built-ins support snapshots");
            let sched_bytes = w.into_bytes();
            let mut dw = burst_snap::SnapWriter::new();
            dram.save_snap(&mut dw);
            let dram_bytes = dw.into_bytes();

            let mut sched2 = m.build(ctrl, dram_cfg.geometry);
            let mut dram2 = Dram::new(dram_cfg, AddressMapping::PageInterleaving);
            let mut r = burst_snap::SnapReader::new(&sched_bytes);
            sched2.load_state(&mut r).unwrap();
            r.finish().unwrap();
            let mut dr = burst_snap::SnapReader::new(&dram_bytes);
            dram2.load_snap(&mut dr).unwrap();
            dr.finish().unwrap();

            // Re-serialisation is byte-identical...
            let mut w2 = burst_snap::SnapWriter::new();
            sched2.save_state(&mut w2).unwrap();
            assert_eq!(sched_bytes, w2.into_bytes(), "{m}: snapshot not stable");

            // ...and both copies evolve identically to drain.
            let mut done2 = done.clone();
            for now in 120..40_000u64 {
                sched.tick(&mut dram, now, &mut done);
                sched2.tick(&mut dram2, now, &mut done2);
                if sched.outstanding().total() == 0 && sched2.outstanding().total() == 0 {
                    break;
                }
            }
            assert_eq!(done, done2, "{m}: divergent completions after restore");
            assert_eq!(
                sched.stats().reads_done,
                sched2.stats().reads_done,
                "{m}: divergent read counts"
            );
            assert_eq!(
                sched.stats().cycles,
                sched2.stats().cycles,
                "{m}: divergent cycle counts"
            );
        }
    }

    #[test]
    fn burst_th_extremes_equal_rp_and_wp_options() {
        // Section 5.4: Burst_RP and Burst_WP are equivalent to Burst_TH64
        // and Burst_TH0 given the write queue size of 64. Occupancy can
        // never exceed the capacity, so TH(64)'s piggyback condition
        // (occupancy > 64) never fires — same behaviour as RP; TH(0)'s
        // preemption condition (occupancy < 0) never fires — same as WP.
        let cap = CtrlConfig::default().write_capacity as u32;
        let geom = Geometry::baseline();
        let th64 = BurstScheduler::new(
            CtrlConfig::default(),
            geom,
            BurstOptions::static_threshold(cap, Some(cap), Mechanism::BurstTh(cap)),
        );
        assert_eq!(th64.options().preempt_below, cap);
        // Piggyback requires occupancy > cap, impossible.
        assert!(th64.options().piggyback_above.unwrap() >= cap);
        let th0 = Mechanism::BurstTh(0);
        if let Mechanism::BurstTh(t) = th0 {
            // Preemption requires occupancy < 0, impossible.
            assert_eq!(t, 0);
        }
    }
}
