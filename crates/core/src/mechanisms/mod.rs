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

use crate::bankset;
use crate::engine::{Candidate, Core, Slot};
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
/// simulator's jumps, and cannot do so by forgetting to. Nor has
/// [`Policy::forget_derived`]: a policy that adds a cache must say how to
/// forget it.
trait Policy: core::fmt::Debug {
    /// How many candidates, in its own priority order, [`Policy::select`]
    /// examines; a blocked pick inside that window wastes the cycle (the
    /// conventional schedulers' limited lookahead). A channel with more
    /// occupied slots than this hands `select` its blocked candidates too.
    /// With no more, no blocked candidate can rank ahead of the lookahead
    /// and the unblocked ones alone decide the pick. Burst's Table 2 ranks
    /// every transaction (`usize::MAX`) and so sees unblocked ones only.
    const LOOKAHEAD: usize;

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

    /// The banks of 64-bank word `w` (banks `64 * w..64 * (w + 1)`) whose
    /// arbiter could act at `now`. Every bank outside it must be one whose
    /// [`Policy::arbitrate_bank`] call changes nothing. The controller
    /// reads it afresh before each visit, so it must follow live state:
    /// a visit may move a later bank into the set.
    fn acting_word(&self, core: &Core, w: usize, now: Cycle) -> u64;

    /// Runs the arbiter of one bank (paper Figure 5) on `slot`, the bank's
    /// slot as the controller found it: installs into a vacant slot
    /// ([`Core::install`]), lets a read preempt an occupied one
    /// ([`Core::preempt`]), or changes nothing.
    fn arbitrate_bank(&mut self, core: &mut Core, slot: Slot, dram: &Dram, now: Cycle);

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

    /// Restores state written by [`Policy::save_snap`], after `core`, and
    /// ends in [`Policy::forget_derived`].
    fn load_snap(
        &mut self,
        core: &Core,
        r: &mut burst_snap::SnapReader,
    ) -> Result<(), burst_snap::SnapError>;

    /// Drops every derived cache (state absent from checkpoints) and
    /// rebuilds it from the persistent queues. Restore calls it, and so
    /// does the reference controller before every tick.
    fn forget_derived(&mut self);
}

/// The one [`AccessScheduler`]: the shared [`Core`] driven by a mechanism's
/// [`Policy`].
///
/// `REFERENCE` selects, at compile time, the per-cycle reference
/// ([`Mechanism::build_reference`]). Before each tick it forgets all
/// derived state of the core and the policy; it then calls every bank's
/// arbiter instead of walking the acting word, never skips a barren
/// channel, and hands a policy with a finite lookahead its blocked
/// candidates whenever a slot is occupied.
#[derive(Debug)]
struct Controller<P, const REFERENCE: bool = false> {
    core: Core,
    policy: P,
    /// Reusable candidate buffer for the per-channel transaction scan.
    scratch: Vec<Candidate>,
}

impl<P: Policy, const REFERENCE: bool> Controller<P, REFERENCE> {
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

impl<P: Policy, const REFERENCE: bool> AccessScheduler for Controller<P, REFERENCE> {
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
        if REFERENCE {
            self.core.forget_derived();
            self.policy.forget_derived();
        }
        dram.tick(now);
        self.core.sample();
        self.core.watchdog_tick(now);
        for access in self.core.take_retries() {
            self.policy.requeue(&self.core, access);
        }
        self.policy.pre_tick(&self.core, now);
        for channel in 0..self.core.channel_count() {
            let range = self.core.bank_range(channel);
            if REFERENCE {
                // Figure 5 taken literally: every bank's arbiter.
                for bank in range {
                    let slot = self.core.slot(bank);
                    self.policy.arbitrate_bank(&mut self.core, slot, dram, now);
                }
            } else {
                // One walk serves every policy: visit only the banks whose
                // arbiter can act, re-reading the acting word after each
                // visit.
                let mut from = range.start;
                while let Some(bank) = bankset::next_in(from, range.end, |w| {
                    self.policy.acting_word(&self.core, w, now)
                }) {
                    let slot = self.core.slot(bank);
                    self.policy.arbitrate_bank(&mut self.core, slot, dram, now);
                    from = bank + 1;
                }
                // A barren channel's scan would write nothing, and with no
                // unblocked candidate every policy's `select` returns
                // `None` without moving its round-robin pointer: go
                // straight to the steering step.
                if self.core.barren(dram, channel, now) {
                    self.core.steer_to_oldest(channel);
                    continue;
                }
            }
            // Blocked candidates only where the lookahead can reach them
            // (see `Policy::LOOKAHEAD`); Table 2's unbounded one skips
            // the count.
            let include_blocked = P::LOOKAHEAD < usize::MAX
                && (REFERENCE || self.core.occupied_count(channel) > P::LOOKAHEAD);
            let cands = &mut self.scratch;
            self.core
                .fill_candidates(dram, channel, now, cands, include_blocked);
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
        self.with_policy(&cfg, Build::<false>(cfg, geom))
    }

    /// Builds the per-cycle reference for [`Mechanism::build`]'s scheduler:
    /// the same policy with none of the scheduler's fast paths, so that a
    /// bug in one shows as a divergence between the two. Its outputs and
    /// snapshot bytes equal the fast scheduler's.
    pub fn build_reference(&self, cfg: CtrlConfig, geom: Geometry) -> Box<dyn AccessScheduler> {
        self.with_policy(&cfg, Build::<true>(cfg, geom))
    }

    /// Hands `w` this mechanism's policy constructor under `cfg`: the one
    /// table from mechanism to policy type and options.
    fn with_policy<W: WithPolicy>(&self, cfg: &CtrlConfig, w: W) -> W::Output {
        let write_cap = cfg.write_capacity as u32;
        let burst = |opts: BurstOptions| move |core: &Core| BurstScheduler::new(core, opts);
        let th = Self::PAPER_THRESHOLD;
        match *self {
            // BkInOrder never reorders within a bank; RowHit reorders
            // across the whole bank queue.
            Mechanism::BkInOrder => w.run(|core| RowHitScheduler::new(core, 0)),
            Mechanism::RowHit => w.run(|core| RowHitScheduler::new(core, usize::MAX)),
            Mechanism::Intel => w.run(|core| IntelScheduler::new(core, false)),
            Mechanism::IntelRp => w.run(|core| IntelScheduler::new(core, true)),
            Mechanism::Burst => w.run(burst(BurstOptions::static_threshold(0, None, *self))),
            Mechanism::BurstRp => w.run(burst(BurstOptions::static_threshold(
                write_cap, None, *self,
            ))),
            Mechanism::BurstWp => w.run(burst(BurstOptions::static_threshold(0, Some(0), *self))),
            Mechanism::BurstTh(t) => {
                w.run(burst(BurstOptions::static_threshold(t, Some(t), *self)))
            }
            Mechanism::BurstCrit => w.run(burst(BurstOptions {
                critical_first: true,
                ..BurstOptions::static_threshold(th, Some(th), *self)
            })),
            Mechanism::BurstDyn => w.run(burst(BurstOptions {
                // Start at the paper's static optimum; adapt every 1024
                // memory cycles from the read/write mix.
                dynamic_period: Some(1024),
                ..BurstOptions::static_threshold(th, Some(th), *self)
            })),
            Mechanism::AdaptiveHistory => w.run(AdaptiveHistoryScheduler::new),
        }
    }
}

/// Something done with a mechanism's policy, whatever its type:
/// [`Mechanism::build`] and [`Mechanism::build_reference`] box it in a
/// [`Controller`], and the tests run the two in lockstep.
trait WithPolicy {
    /// What the work yields.
    type Output;

    /// Does the work with `policy`, the policy's constructor.
    fn run<P: Policy + 'static>(self, policy: impl Fn(&Core) -> P) -> Self::Output;
}

/// Boxes the policy in a [`Controller`] for a device of the given geometry.
struct Build<const REFERENCE: bool>(CtrlConfig, Geometry);

impl<const REFERENCE: bool> WithPolicy for Build<REFERENCE> {
    type Output = Box<dyn AccessScheduler>;

    fn run<P: Policy + 'static>(self, policy: impl Fn(&Core) -> P) -> Self::Output {
        Box::new(Controller::<P, REFERENCE>::new(self.0, self.1, policy))
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

    /// The snapshot bytes of `s`.
    fn state(s: &impl AccessScheduler) -> Vec<u8> {
        let mut w = burst_snap::SnapWriter::new();
        s.save_state(&mut w).expect("built-ins support snapshots");
        w.into_bytes()
    }

    /// Drives a controller with mixed traffic and, after every tick,
    /// offers each channel's policy its candidates with every one marked
    /// blocked: the pick must be `None`, with the policy state (round-robin
    /// pointers included) byte-identical. This is what lets a barren
    /// channel's tick skip the scan and `select` altogether.
    struct SelectWithoutUnblocked(CtrlConfig, Geometry);

    impl WithPolicy for SelectWithoutUnblocked {
        type Output = ();

        fn run<P: Policy + 'static>(self, policy: impl Fn(&Core) -> P) {
            use crate::{Access, AccessId};
            use burst_dram::{AddressMapping, Dram, DramConfig, PhysAddr};

            let mut ctrl: Controller<P> = Controller::new(self.0, self.1, policy);
            let m = ctrl.mechanism();
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
                    // What a barren channel's scan could hand the policy:
                    // its slots, all blocked, to a policy with a limited
                    // lookahead (the tick does so only past the lookahead,
                    // so this covers more), or nothing for Table 2's scan,
                    // which holds unblocked candidates only.
                    ctrl.core
                        .fill_candidates(&dram, channel, now, &mut cands, true);
                    for c in &mut cands {
                        c.unblocked = false;
                    }
                    if P::LOOKAHEAD == usize::MAX {
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
                offered > 100 || P::LOOKAHEAD == usize::MAX,
                "{m}: too few candidates offered: {offered}"
            );
        }
    }

    #[test]
    fn no_policy_selects_or_moves_without_an_unblocked_candidate() {
        let (cfg, geom) = (CtrlConfig::default(), Geometry::baseline());
        for m in Mechanism::all() {
            m.with_policy(&cfg, SelectWithoutUnblocked(cfg, geom));
        }
    }

    /// What the arbiter visits of a lockstep run did, as seen from the
    /// slots at tick boundaries: a slot empty when a tick began and
    /// occupied when it ended saw an install, one that ended holding
    /// another access a preemption. (An act whose column issues in the
    /// same tick goes unseen.)
    #[derive(Debug, Default, Clone, Copy)]
    struct Acts {
        installs: u64,
        /// Installs of an access past the escalation age.
        aged: u64,
        /// Installs of an aged write while reads were outstanding and the
        /// write queue was below capacity when the tick began: for Intel,
        /// only the escalation of the global-oldest write does that.
        aged_writes_over_reads: u64,
        /// Installs of a write with the write queue full when the tick
        /// began.
        full_queue_writes: u64,
        preemptions: u64,
    }

    /// Runs a policy's controller in lockstep with the reference
    /// controller around the same policy for `cycles` cycles of seeded
    /// traffic, comparing completions and snapshot bytes every cycle.
    struct Lockstep {
        dram: burst_dram::DramConfig,
        ctrl: CtrlConfig,
        cycles: u64,
    }

    /// What a [`Lockstep`] run saw.
    struct LockstepRun {
        acts: Acts,
        stats: CtrlStats,
        /// Burst's gate bits seen set, and seen clear, over the run.
        gates_set: u8,
        gates_clear: u8,
    }

    impl WithPolicy for Lockstep {
        type Output = LockstepRun;

        fn run<P: Policy + 'static>(self, policy: impl Fn(&Core) -> P) -> LockstepRun {
            use crate::{Access, AccessId};
            use burst_dram::{AddressMapping, Dram, Loc, PhysAddr};
            use rand::rngs::SmallRng;
            use rand::{Rng, SeedableRng};

            let Lockstep { dram, ctrl, cycles } = self;
            let g = dram.geometry;
            let mut walk: Controller<P> = Controller::new(ctrl, g, &policy);
            let mut reference: Controller<P, true> = Controller::new(ctrl, g, &policy);
            let m = walk.mechanism();
            let mut dram_walk = Dram::new(dram, AddressMapping::PageInterleaving);
            let mut dram_ref = Dram::new(dram, AddressMapping::PageInterleaving);
            let (mut done_walk, mut done_ref) = (Vec::new(), Vec::new());
            let mut rng = SmallRng::seed_from_u64(0xb0b5);
            let mut next_id = 0u64;
            let (mut gates_set, mut gates_clear) = (0u8, 0u8);
            let mut acts = Acts::default();
            // The pointer chase's one outstanding read, if any.
            let mut chase: Option<AccessId> = None;
            for now in 0..cycles {
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
                    assert_eq!(
                        out,
                        reference.enqueue(a, now, &mut done_ref),
                        "{m} at {now}"
                    );
                    if kind == AccessKind::Read && out == EnqueueOutcome::Queued {
                        chase = Some(a.id);
                    }
                }
                let before: Vec<_> = (0..walk.core.bank_count())
                    .map(|b| walk.core.ongoing(b).map(|og| og.access.id))
                    .collect();
                let reads = walk.core.reads_outstanding() > 0;
                let full = walk.core.writes_outstanding() >= ctrl.write_capacity;
                walk.tick(&mut dram_walk, now, &mut done_walk);
                reference.tick(&mut dram_ref, now, &mut done_ref);
                assert_eq!(done_walk, done_ref, "{m}: completions at {now}");
                assert_eq!(state(&walk), state(&reference), "{m}: state at {now}");
                for (bank, before) in before.into_iter().enumerate() {
                    let Some(og) = walk.core.ongoing(bank).map(|og| og.access) else {
                        continue;
                    };
                    match before {
                        Some(id) if id == og.id => {}
                        Some(_) => acts.preemptions += 1,
                        None => {
                            let aged = now.saturating_sub(og.arrival) >= ctrl.watchdog.escalate_age;
                            acts.installs += 1;
                            acts.aged += u64::from(aged);
                            if og.kind == AccessKind::Write {
                                acts.full_queue_writes += u64::from(full);
                                acts.aged_writes_over_reads += u64::from(aged && reads && !full);
                            }
                        }
                    }
                }
                if chase.is_some_and(|id| done_walk.iter().any(|c| c.id == id)) {
                    chase = None;
                }
                done_walk.clear();
                done_ref.clear();
                let any: &dyn core::any::Any = &walk.policy;
                if let Some(burst) = any.downcast_ref::<BurstScheduler>() {
                    let gates = burst.gates(&walk.core);
                    gates_set |= gates;
                    gates_clear |= !gates;
                }
            }
            LockstepRun {
                acts,
                stats: walk.stats().clone(),
                gates_set,
                gates_clear,
            }
        }
    }

    /// Runs every mechanism through [`Lockstep`] on `dram` and checks that
    /// each act path of each policy fired.
    fn every_mechanism_in_lockstep(dram: burst_dram::DramConfig, cycles: u64) {
        // A short escalation age, so accesses parked under shut gates or
        // behind row hits age into escalation within the run.
        let ctrl = CtrlConfig {
            watchdog: crate::WatchdogConfig {
                escalate_age: 400,
                stall_limit: 1_000_000,
            },
            ..CtrlConfig::default()
        };
        let (mut gates_set, mut gates_clear) = (0u8, 0u8);
        for m in Mechanism::all() {
            let run = m.with_policy(&ctrl, Lockstep { dram, ctrl, cycles });
            let (acts, stats) = (run.acts, &run.stats);
            gates_set |= run.gates_set;
            gates_clear |= run.gates_clear;
            assert!(acts.installs > 0 && acts.aged > 0, "{m}: {acts:?}");
            assert!(stats.escalations > 0, "{m}: no escalation");
            use Mechanism::*;
            if matches!(m, Intel | IntelRp) {
                assert!(acts.aged_writes_over_reads > 0, "{m}: {acts:?}");
                assert!(acts.full_queue_writes > 0, "{m}: {acts:?}");
            }
            let (piggybacks, preempts) = match m {
                BurstRp | IntelRp => (false, true),
                BurstWp => (true, false),
                BurstTh(_) | BurstDyn | BurstCrit => (true, true),
                BkInOrder | RowHit | Intel | Burst | AdaptiveHistory => (false, false),
            };
            assert_eq!(stats.piggybacks > 0, piggybacks, "{m}: piggybacks");
            assert_eq!(stats.preemptions > 0, preempts, "{m}: preemptions");
            assert_eq!(acts.preemptions > 0, preempts, "{m}: {acts:?}");
            assert!(acts.preemptions <= stats.preemptions, "{m}: {acts:?}");
        }
        assert_eq!(gates_set & 0xF, 0xF, "every gate bit opens");
        assert_eq!(gates_clear & 0xF, 0xF, "every gate bit shuts");
    }

    #[test]
    fn acting_walk_matches_visiting_every_bank() {
        every_mechanism_in_lockstep(burst_dram::DramConfig::baseline(), 12_000);
    }

    #[test]
    fn acting_walk_matches_visiting_every_bank_across_two_mask_words() {
        // 128 banks per channel: each channel spans two 64-bank words.
        let mut dram = burst_dram::DramConfig::baseline();
        dram.geometry.ranks_per_channel = 8;
        dram.geometry.banks_per_rank = 16;
        every_mechanism_in_lockstep(dram, 12_000);
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
