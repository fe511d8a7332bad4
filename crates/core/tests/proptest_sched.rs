//! Property-based tests over the access reordering mechanisms: for any
//! access stream, every mechanism must complete every access exactly once,
//! preserve same-address ordering, and keep its statistics consistent.

use burst_core::{
    Access, AccessId, AccessKind, Completion, CtrlConfig, EnqueueOutcome, FaultConfig, Mechanism,
    WatchdogConfig,
};
use burst_dram::{AddressMapping, Dram, DramConfig, PhysAddr};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
struct Step {
    /// Cache-line index within a compact region (keeps collisions common).
    line: u64,
    write: bool,
    /// Cycles to run before the next enqueue.
    gap: u8,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (0u64..512, any::<bool>(), 0u8..6).prop_map(|(line, write, gap)| Step { line, write, gap })
}

fn mechanism_strategy() -> impl Strategy<Value = Mechanism> {
    prop_oneof![
        (0usize..11).prop_map(|i| Mechanism::all()[i]),
        (0u32..=64).prop_map(Mechanism::BurstTh),
    ]
}

struct Run {
    done: Vec<Completion>,
    queued: Vec<(AccessId, AccessKind, u64)>,
    forwarded: Vec<AccessId>,
    stats_ok: bool,
    /// DDR2 protocol violations recorded by the shadow checker.
    violations: u64,
}

fn run(mechanism: Mechanism, steps: &[Step]) -> Run {
    run_cfg(mechanism, steps, CtrlConfig::default())
}

fn run_cfg(mechanism: Mechanism, steps: &[Step], ctrl: CtrlConfig) -> Run {
    let dram_cfg = DramConfig::baseline();
    let mut dram = Dram::new(dram_cfg, AddressMapping::PageInterleaving);
    dram.enable_checker();
    let mut sched = mechanism.build(ctrl, dram_cfg.geometry);
    let mut done = Vec::new();
    let mut queued = Vec::new();
    let mut forwarded = Vec::new();
    let mut now = 0u64;
    let mut next_id = 0u64;
    for s in steps {
        // Scatter lines over a few banks/rows while keeping collisions.
        let addr = PhysAddr::new(s.line * 64 + (s.line % 7) * (1 << 21));
        let kind = if s.write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        if sched.can_accept(kind) {
            let id = AccessId::new(next_id);
            next_id += 1;
            let access = Access::new(id, kind, addr, dram.decode(addr), now);
            match sched.enqueue(access, now, &mut done) {
                EnqueueOutcome::Queued => queued.push((id, kind, addr.value())),
                EnqueueOutcome::Forwarded => forwarded.push(id),
                EnqueueOutcome::Rejected => {
                    panic!("{mechanism}: rejected an access although can_accept was true")
                }
            }
        }
        for _ in 0..s.gap {
            sched.tick(&mut dram, now, &mut done);
            now += 1;
        }
    }
    // Drain.
    let mut idle = 0;
    while sched.outstanding().total() > 0 && idle < 500_000 {
        sched.tick(&mut dram, now, &mut done);
        now += 1;
        idle += 1;
    }
    let stats_ok = sched.outstanding().total() == 0;
    Run {
        done,
        queued,
        forwarded,
        stats_ok,
        violations: dram.protocol_violations(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every accepted access completes exactly once; forwarded reads
    /// complete immediately; the scheduler fully drains.
    #[test]
    fn conservation_of_accesses(
        mechanism in mechanism_strategy(),
        steps in prop::collection::vec(step_strategy(), 1..120),
    ) {
        let r = run(mechanism, &steps);
        prop_assert!(r.stats_ok, "{mechanism}: failed to drain");
        prop_assert_eq!(
            r.done.len(),
            r.queued.len() + r.forwarded.len(),
            "{}: completions != enqueues", mechanism
        );
        let mut ids: Vec<u64> = r.done.iter().map(|c| c.id.value()).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        prop_assert_eq!(ids.len(), before, "{}: duplicate completion", mechanism);
    }

    /// A read of an address never completes before an older write to the
    /// same address, unless it was satisfied by write-queue forwarding.
    #[test]
    fn same_address_ordering(
        mechanism in mechanism_strategy(),
        steps in prop::collection::vec(step_strategy(), 1..100),
    ) {
        let r = run(mechanism, &steps);
        let done_at = |id: AccessId| r.done.iter().find(|c| c.id == id).map(|c| c.done_at);
        for (i, &(rid, rkind, raddr)) in r.queued.iter().enumerate() {
            if rkind != AccessKind::Read {
                continue;
            }
            // Find the newest older queued write to the same address.
            let older_write = r.queued[..i]
                .iter()
                .rev()
                .find(|(_, k, a)| *k == AccessKind::Write && *a == raddr);
            if let Some(&(wid, _, _)) = older_write {
                let (w, rd) = (done_at(wid), done_at(rid));
                if let (Some(w), Some(rd)) = (w, rd) {
                    prop_assert!(
                        w <= rd,
                        "{}: read {} of {:#x} completed at {} before write {} at {}",
                        mechanism, rid, raddr, rd, wid, w
                    );
                }
            }
        }
    }

    /// Completion latency accounting is exact: done_at - arrival equals the
    /// reported latency, and averages derive from the sums.
    #[test]
    fn latency_accounting(
        mechanism in mechanism_strategy(),
        steps in prop::collection::vec(step_strategy(), 1..80),
    ) {
        let dram_cfg = DramConfig::baseline();
        let mut dram = Dram::new(dram_cfg, AddressMapping::PageInterleaving);
        let mut sched = mechanism.build(CtrlConfig::default(), dram_cfg.geometry);
        let mut done = Vec::new();
        let mut now = 0u64;
        for (i, s) in steps.iter().enumerate() {
            let addr = PhysAddr::new(s.line * 64);
            let kind = if s.write { AccessKind::Write } else { AccessKind::Read };
            if sched.can_accept(kind) {
                let a = Access::new(AccessId::new(i as u64), kind, addr, dram.decode(addr), now);
                sched.enqueue(a, now, &mut done);
            }
            for _ in 0..s.gap {
                sched.tick(&mut dram, now, &mut done);
                now += 1;
            }
        }
        let mut guard = 0;
        while sched.outstanding().total() > 0 && guard < 500_000 {
            sched.tick(&mut dram, now, &mut done);
            now += 1;
            guard += 1;
        }
        let read_sum: u64 = done
            .iter()
            .filter(|c| c.kind == AccessKind::Read)
            .map(|c| c.latency)
            .sum();
        prop_assert_eq!(read_sum, sched.stats().read_latency_sum);
        let write_sum: u64 = done
            .iter()
            .filter(|c| c.kind == AccessKind::Write)
            .map(|c| c.latency)
            .sum();
        prop_assert_eq!(write_sum, sched.stats().write_latency_sum);
        prop_assert_eq!(
            done.iter().filter(|c| c.kind == AccessKind::Read).count() as u64,
            sched.stats().reads_done
        );
    }

    /// The write queue never exceeds its configured capacity, and the pool
    /// never exceeds the pool capacity.
    #[test]
    fn capacities_respected(
        mechanism in mechanism_strategy(),
        steps in prop::collection::vec(step_strategy(), 1..150),
    ) {
        let dram_cfg = DramConfig::baseline();
        let cfg = CtrlConfig { pool_capacity: 24, write_capacity: 6, ..CtrlConfig::default() };
        let mut dram = Dram::new(dram_cfg, AddressMapping::PageInterleaving);
        let mut sched = mechanism.build(cfg, dram_cfg.geometry);
        let mut done = Vec::new();
        let mut now = 0u64;
        // `now` advances with each tick; the enumerate index is separate.
        #[allow(clippy::explicit_counter_loop)]
        for (i, s) in steps.iter().enumerate() {
            let addr = PhysAddr::new(s.line * 64);
            let kind = if s.write { AccessKind::Write } else { AccessKind::Read };
            if sched.can_accept(kind) {
                let a = Access::new(AccessId::new(i as u64), kind, addr, dram.decode(addr), now);
                sched.enqueue(a, now, &mut done);
            }
            let o = sched.outstanding();
            prop_assert!(o.writes <= 6, "{}: write occupancy {}", mechanism, o.writes);
            prop_assert!(o.total() <= 24, "{}: pool occupancy {}", mechanism, o.total());
            sched.tick(&mut dram, now, &mut done);
            now += 1;
        }
    }

    /// Every mechanism obeys the DDR2 timing protocol on every stream: the
    /// shadow checker records zero violations.
    #[test]
    fn zero_protocol_violations(
        mechanism in mechanism_strategy(),
        steps in prop::collection::vec(step_strategy(), 1..120),
    ) {
        let r = run(mechanism, &steps);
        prop_assert_eq!(r.violations, 0, "{}: mistimed DDR2 commands", mechanism);
    }

    /// Under aggressive deterministic fault injection (30% read errors,
    /// 30% write retries), every mechanism still completes every accepted
    /// access exactly once, drains fully, and stays protocol-clean.
    #[test]
    fn faults_retry_to_completion(
        mechanism in mechanism_strategy(),
        steps in prop::collection::vec(step_strategy(), 1..100),
        seed in any::<u64>(),
    ) {
        let faults = FaultConfig {
            seed,
            read_error_permille: 300,
            write_retry_permille: 300,
            max_retries: 3,
        };
        let ctrl = CtrlConfig { faults: Some(faults), ..CtrlConfig::default() };
        let r = run_cfg(mechanism, &steps, ctrl);
        prop_assert!(r.stats_ok, "{mechanism}: failed to drain under fault injection");
        prop_assert_eq!(
            r.done.len(),
            r.queued.len() + r.forwarded.len(),
            "{}: completions != enqueues under fault injection", mechanism
        );
        let mut ids: Vec<u64> = r.done.iter().map(|c| c.id.value()).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        prop_assert_eq!(ids.len(), before, "{}: duplicate completion", mechanism);
        prop_assert_eq!(r.violations, 0, "{}: retries broke protocol", mechanism);
    }

    /// Bounded latency: with the watchdog escalating accesses past a small
    /// age, no Burst_TH access — including starvation-prone writes —
    /// completes later than the escalation age plus a service constant.
    #[test]
    fn burst_th_latency_bounded_by_escalation(
        steps in prop::collection::vec(step_strategy(), 1..100),
    ) {
        let escalate_age = 400;
        let ctrl = CtrlConfig {
            watchdog: WatchdogConfig { escalate_age, stall_limit: 1_000_000 },
            ..CtrlConfig::default()
        };
        let r = run_cfg(Mechanism::BurstTh(52), &steps, ctrl);
        prop_assert!(r.stats_ok, "failed to drain");
        // Once escalated, an access outranks every arbiter preference; the
        // constant covers serving a full pool of equally old accesses.
        let bound = escalate_age + 8_000;
        for c in &r.done {
            prop_assert!(
                c.latency <= bound,
                "access {} latency {} exceeds escalation bound {}",
                c.id, c.latency, bound
            );
        }
    }

    /// Burst_TH with extreme thresholds matches the dedicated RP/WP
    /// variants' observable behaviour on the same stream.
    #[test]
    fn th_extremes_match_rp_wp(steps in prop::collection::vec(step_strategy(), 1..80)) {
        let a = run(Mechanism::BurstTh(64), &steps);
        let b = run(Mechanism::BurstRp, &steps);
        prop_assert_eq!(a.done.len(), b.done.len());
        let key = |r: &Run| {
            let mut v: Vec<(u64, u64)> =
                r.done.iter().map(|c| (c.id.value(), c.done_at)).collect();
            v.sort_unstable();
            v
        };
        prop_assert_eq!(key(&a), key(&b), "TH(64) must equal Burst_RP");
        let c = run(Mechanism::BurstTh(0), &steps);
        let d = run(Mechanism::BurstWp, &steps);
        prop_assert_eq!(key(&c), key(&d), "TH(0) must equal Burst_WP");
    }
}
