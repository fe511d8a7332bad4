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
//!
//! Every mechanism is a [`Policy`] run by the one generic [`Controller`],
//! which implements [`AccessScheduler`] once (DESIGN.md §5 gives its tick
//! order).

mod adaptive;
mod burst;
mod intel;
mod row_hit;

use adaptive::AdaptiveHistoryScheduler;
use burst::{BurstOptions, BurstScheduler};
use intel::IntelScheduler;
use row_hit::RowHitScheduler;

use std::collections::VecDeque;

use crate::engine::{Candidate, Core};
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

/// The mechanism-specific half of a memory controller: the queues behind
/// the banks and the decisions of the bank arbiter (paper Figure 5) and the
/// transaction scheduler (Figure 6). [`Controller`] supplies everything
/// else once, for every mechanism.
///
/// The event-wheel hooks, [`Policy::busy_event`] and
/// [`Policy::advance_quiescent`], have no default bodies: a policy with
/// timers or arbiter decisions the core cannot see must veto or bound the
/// simulator's jumps, and cannot do so by forgetting to.
trait Policy: core::fmt::Debug {
    /// Whether [`Policy::select`] also sees blocked candidates. The
    /// conventional schedulers' limited lookahead wastes the cycle on a
    /// blocked pick; burst scheduling's Table 2 picks among unblocked
    /// transactions only.
    const INCLUDE_BLOCKED: bool;

    /// Which mechanism this policy implements.
    fn mechanism(&self) -> Mechanism;

    /// Queues `access`, which the controller has room for, or forwards a
    /// read from write data ([`AccessScheduler::enqueue`]).
    fn enqueue(
        &mut self,
        core: &mut Core,
        access: Access,
        now: Cycle,
        completions: &mut Vec<Completion>,
    ) -> EnqueueOutcome;

    /// Puts a faulted access back at the front of its queue for retry.
    fn requeue(&mut self, core: &Core, access: Access);

    /// Per-tick work before any bank arbitrates: adaptation timers and
    /// mode switches that read the tick's starting occupancy.
    fn pre_tick(&mut self, _core: &Core, _now: Cycle) {}

    /// Runs the bank arbiters of `channel`: installs, preempts or
    /// escalates ongoing accesses.
    fn arbitrate(&mut self, core: &mut Core, dram: &Dram, channel: usize, now: Cycle);

    /// The transaction `channel` issues this cycle, or `None` to steer
    /// towards the oldest access instead.
    fn select(&mut self, core: &Core, channel: usize, cands: &[Candidate]) -> Option<Candidate>;

    /// Called after `cand` issued its access's column command.
    fn column_issued(&mut self, _core: &Core, _dram: &Dram, _cand: &Candidate, _now: Cycle) {}

    /// Vetoes or bounds `event`, the core's earliest busy event after
    /// `last` ([`AccessScheduler::next_busy_event`]): `None` if this
    /// policy's next tick could act, else the event, moved earlier if a
    /// policy timer fires first.
    fn busy_event(&self, core: &Core, dram: &Dram, last: Cycle, event: Cycle) -> Option<Cycle>;

    /// Replays this policy's timers over the quiescent ticks at
    /// `from..from + n`, after the core has replayed its own.
    fn advance_quiescent(&mut self, core: &Core, from: Cycle, n: u64);

    /// Checks a blocked stretch `from..from + n` that the core has just
    /// replayed.
    fn advance_blocked(&self, _from: Cycle, _n: u64) {}

    /// Serialises this policy's state; the controller has written the
    /// core's first.
    fn save_snap(&self, w: &mut burst_snap::SnapWriter);

    /// Restores state written by [`Policy::save_snap`], after `core`.
    fn load_snap(
        &mut self,
        core: &Core,
        r: &mut burst_snap::SnapReader,
    ) -> Result<(), burst_snap::SnapError>;
}

/// The one [`AccessScheduler`]: the shared [`Core`] driven by a mechanism's
/// [`Policy`].
#[derive(Debug)]
struct Controller<P> {
    core: Core,
    policy: P,
    /// Reusable candidate buffer for the per-channel transaction scan.
    scratch: Vec<Candidate>,
}

impl<P: Policy> Controller<P> {
    /// A controller whose policy `policy` builds for its core.
    fn new(cfg: CtrlConfig, geom: Geometry, policy: impl FnOnce(&Core) -> P) -> Self {
        let core = Core::new(cfg, geom);
        let policy = policy(&core);
        Controller {
            core,
            policy,
            scratch: Vec::new(),
        }
    }
}

impl<P: Policy> AccessScheduler for Controller<P> {
    fn mechanism(&self) -> Mechanism {
        self.policy.mechanism()
    }

    fn can_accept(&self, kind: AccessKind) -> bool {
        self.core.can_accept(kind)
    }

    fn enqueue(
        &mut self,
        access: Access,
        now: Cycle,
        completions: &mut Vec<Completion>,
    ) -> EnqueueOutcome {
        if !self.core.can_accept(access.kind) {
            return EnqueueOutcome::Rejected;
        }
        self.policy
            .enqueue(&mut self.core, access, now, completions)
    }

    fn tick(&mut self, dram: &mut Dram, now: Cycle, completions: &mut Vec<Completion>) {
        dram.tick(now);
        self.core.sample();
        self.core.watchdog_tick(now);
        for access in self.core.take_retries() {
            self.policy.requeue(&self.core, access);
        }
        self.policy.pre_tick(&self.core, now);
        for channel in 0..self.core.channel_count() {
            self.policy.arbitrate(&mut self.core, dram, channel, now);
            // A barren channel's scan would write nothing, and with no
            // unblocked candidate every policy's `select` returns `None`
            // without moving its round-robin pointer: go straight to the
            // steering step.
            if self.core.barren(dram, channel, now) {
                self.core.steer_to_oldest(channel);
                continue;
            }
            let cands = &mut self.scratch;
            if P::INCLUDE_BLOCKED {
                self.core.fill_all_candidates(dram, channel, now, cands);
            } else {
                self.core.fill_candidates(dram, channel, now, cands);
            }
            match self.policy.select(&self.core, channel, cands) {
                Some(cand) => {
                    if self.core.issue_candidate(dram, now, &cand, completions) {
                        self.policy.column_issued(&self.core, dram, &cand, now);
                    }
                }
                // Figure 6 lines 14-15: steer toward the oldest access.
                None => self.core.steer_to_oldest(channel),
            }
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

    fn stall_diagnostic(&self) -> Option<StallDiagnostic> {
        self.core.stall()
    }

    fn quiescent(&self) -> bool {
        self.core.quiescent()
    }

    fn advance_quiescent(&mut self, from: Cycle, n: u64) {
        self.core.advance_quiescent(from, n);
        self.policy.advance_quiescent(&self.core, from, n);
    }

    fn next_busy_event(&self, dram: &Dram, last: Cycle) -> Option<Cycle> {
        let event = self.core.busy_event_base(dram, last)?;
        self.policy.busy_event(&self.core, dram, last, event)
    }

    fn advance_blocked(&mut self, from: Cycle, n: u64) {
        self.core.advance_blocked(from, n);
        self.policy.advance_blocked(from, n);
    }

    fn save_state(&self, w: &mut burst_snap::SnapWriter) -> Result<(), burst_snap::SnapError> {
        let Self {
            core,
            policy,
            scratch: _, // per-tick candidate scratch buffer, cleared before each use
        } = self;
        core.save_snap(w);
        policy.save_snap(w);
        Ok(())
    }

    fn load_state(&mut self, r: &mut burst_snap::SnapReader) -> Result<(), burst_snap::SnapError> {
        let Self {
            core,
            policy,
            scratch: _, // per-tick candidate scratch buffer, cleared before each use
        } = self;
        core.load_snap(r)?;
        policy.load_snap(core, r)
    }
}

/// The index of the oldest access to `row` among the first `window`
/// entries of `queue`: the row hit a bank arbiter prefers.
fn oldest_row_hit(queue: &VecDeque<Access>, row: u32, window: usize) -> Option<usize> {
    queue
        .iter()
        .take(window)
        .enumerate()
        .filter(|(_, a)| a.loc.row == row)
        .min_by_key(|(_, a)| a.id)
        .map(|(i, _)| i)
}

/// Serialises a set of per-bank (or per-channel) access queues.
fn save_queue_set(queues: &[VecDeque<Access>], w: &mut burst_snap::SnapWriter) {
    w.usize(queues.len());
    for q in queues {
        w.usize(q.len());
        for a in q {
            a.save_snap(w);
        }
    }
}

/// Restores queues written by [`save_queue_set`] into a same-sized set.
fn load_queue_set(
    queues: &mut [VecDeque<Access>],
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
fn save_cursors(rr: &[usize], w: &mut burst_snap::SnapWriter) {
    w.usize(rr.len());
    for &c in rr {
        w.usize(c);
    }
}

/// Restores cursors written by [`save_cursors`] into a same-sized set.
fn load_cursors(
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

    /// Every mechanism: the eight of [`Mechanism::all_paper`], then the
    /// three extensions (`Burst_DYN`, `Burst_CRIT`, `AdaptHist`).
    pub fn all() -> [Mechanism; 11] {
        [
            Mechanism::BkInOrder,
            Mechanism::RowHit,
            Mechanism::Intel,
            Mechanism::IntelRp,
            Mechanism::Burst,
            Mechanism::BurstRp,
            Mechanism::BurstWp,
            Mechanism::BurstTh(Self::PAPER_THRESHOLD),
            Mechanism::BurstDyn,
            Mechanism::BurstCrit,
            Mechanism::AdaptiveHistory,
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
        let burst = |opts: BurstOptions| -> Box<dyn AccessScheduler> {
            Box::new(Controller::new(cfg, geom, |core| {
                BurstScheduler::new(core, opts)
            }))
        };
        let th = Self::PAPER_THRESHOLD;
        match *self {
            // BkInOrder never reorders within a bank; RowHit reorders
            // across the whole bank queue.
            Mechanism::BkInOrder => Box::new(Controller::new(cfg, geom, |core| {
                RowHitScheduler::new(core, 0)
            })),
            Mechanism::RowHit => Box::new(Controller::new(cfg, geom, |core| {
                RowHitScheduler::new(core, usize::MAX)
            })),
            Mechanism::Intel => Box::new(Controller::new(cfg, geom, |core| {
                IntelScheduler::new(core, false)
            })),
            Mechanism::IntelRp => Box::new(Controller::new(cfg, geom, |core| {
                IntelScheduler::new(core, true)
            })),
            Mechanism::Burst => burst(BurstOptions::static_threshold(0, None, *self)),
            Mechanism::BurstRp => burst(BurstOptions::static_threshold(write_cap, None, *self)),
            Mechanism::BurstWp => burst(BurstOptions::static_threshold(0, Some(0), *self)),
            Mechanism::BurstTh(t) => burst(BurstOptions::static_threshold(t, Some(t), *self)),
            Mechanism::BurstCrit => burst(BurstOptions {
                critical_first: true,
                ..BurstOptions::static_threshold(th, Some(th), *self)
            }),
            Mechanism::BurstDyn => burst(BurstOptions {
                // Start at the paper's static optimum; adapt every 1024
                // memory cycles from the read/write mix.
                dynamic_period: Some(1024),
                ..BurstOptions::static_threshold(th, Some(th), *self)
            }),
            Mechanism::AdaptiveHistory => {
                Box::new(Controller::new(cfg, geom, AdaptiveHistoryScheduler::new))
            }
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
        for m in Mechanism::all() {
            let s = m.build(CtrlConfig::default(), Geometry::baseline());
            assert_eq!(s.mechanism(), m);
            assert!(s.can_accept(AccessKind::Read));
            assert_eq!(s.outstanding().total(), 0);
        }
    }

    /// Drives `ctrl` with mixed traffic and, after every tick, offers each
    /// channel's policy its candidates with every one marked blocked: the
    /// pick must be `None`, with the policy state (round-robin pointers
    /// included) byte-identical. This is what lets a barren channel's tick
    /// skip the scan and `select` altogether.
    fn select_without_unblocked_is_a_no_op<P: Policy>(mut ctrl: Controller<P>, m: Mechanism) {
        use crate::{Access, AccessId};
        use burst_dram::{AddressMapping, Dram, DramConfig, PhysAddr};

        let state = |c: &Controller<P>| {
            let mut w = burst_snap::SnapWriter::new();
            c.save_state(&mut w).expect("built-ins support snapshots");
            w.into_bytes()
        };
        let mut dram = Dram::new(DramConfig::baseline(), AddressMapping::PageInterleaving);
        let (mut done, mut cands) = (Vec::new(), Vec::new());
        let mut offered = 0;
        for now in 0..600u64 {
            if now % 2 == 0 && ctrl.can_accept(AccessKind::Read) {
                let kind = if now % 6 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                let addr = PhysAddr::new(now * 64 * 23);
                let a = Access::new(AccessId::new(now), kind, addr, dram.decode(addr), now);
                ctrl.enqueue(a, now, &mut done);
            }
            ctrl.tick(&mut dram, now, &mut done);
            for channel in 0..ctrl.core.channel_count() {
                // What a barren channel's scan would hand the policy: its
                // slots, all blocked, or nothing for Table 2's scan, which
                // holds unblocked candidates only.
                ctrl.core
                    .fill_all_candidates(&dram, channel, now, &mut cands);
                for c in &mut cands {
                    c.unblocked = false;
                }
                if !P::INCLUDE_BLOCKED {
                    cands.clear();
                }
                offered += cands.len();
                let before = state(&ctrl);
                let pick = ctrl.policy.select(&ctrl.core, channel, &cands);
                assert!(pick.is_none(), "{m}: picked a blocked candidate at {now}");
                assert_eq!(state(&ctrl), before, "{m}: select moved state at {now}");
            }
        }
        assert!(
            offered > 100 || !P::INCLUDE_BLOCKED,
            "{m}: too few candidates offered: {offered}"
        );
    }

    #[test]
    fn no_policy_selects_or_moves_without_an_unblocked_candidate() {
        let (cfg, geom) = (CtrlConfig::default(), Geometry::baseline());
        for m in Mechanism::all() {
            // `select` reads no option, so each policy is built plainly.
            match m {
                Mechanism::BkInOrder | Mechanism::RowHit => {
                    let window = if m == Mechanism::BkInOrder {
                        0
                    } else {
                        usize::MAX
                    };
                    let c = Controller::new(cfg, geom, |core| RowHitScheduler::new(core, window));
                    select_without_unblocked_is_a_no_op(c, m);
                }
                Mechanism::Intel | Mechanism::IntelRp => {
                    let rp = m == Mechanism::IntelRp;
                    let c = Controller::new(cfg, geom, |core| IntelScheduler::new(core, rp));
                    select_without_unblocked_is_a_no_op(c, m);
                }
                Mechanism::Burst
                | Mechanism::BurstRp
                | Mechanism::BurstWp
                | Mechanism::BurstTh(_)
                | Mechanism::BurstDyn
                | Mechanism::BurstCrit => {
                    let opts = BurstOptions::static_threshold(52, Some(52), m);
                    let c = Controller::new(cfg, geom, |core| BurstScheduler::new(core, opts));
                    select_without_unblocked_is_a_no_op(c, m);
                }
                Mechanism::AdaptiveHistory => {
                    let c = Controller::new(cfg, geom, AdaptiveHistoryScheduler::new);
                    select_without_unblocked_is_a_no_op(c, m);
                }
            }
        }
    }

    #[test]
    fn every_mechanism_snapshot_round_trips_in_lockstep() {
        use crate::{Access, AccessId};
        use burst_dram::{AddressMapping, Dram, DramConfig, PhysAddr};

        for m in Mechanism::all() {
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
}
