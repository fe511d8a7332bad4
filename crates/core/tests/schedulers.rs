//! Behavioural tests exercising each access reordering mechanism against a
//! real DRAM model: completion, ordering invariants, forwarding, preemption
//! and piggybacking.

#![expect(
    clippy::disallowed_types,
    reason = "tests check report-only float metrics; scheduling code stays integer"
)]

use burst_core::{
    splitmix64, Access, AccessId, AccessKind, AccessScheduler, Completion, CtrlConfig,
    EnqueueOutcome, Mechanism,
};
use burst_dram::{AddressMapping, Cycle, Dram, DramConfig, PhysAddr};

struct Harness {
    dram: Dram,
    sched: Box<dyn AccessScheduler>,
    now: Cycle,
    next_id: u64,
    done: Vec<Completion>,
}

impl Harness {
    fn new(mechanism: Mechanism) -> Self {
        Self::with_cfg(mechanism, CtrlConfig::default())
    }

    fn with_cfg(mechanism: Mechanism, cfg: CtrlConfig) -> Self {
        let dram_cfg = DramConfig::baseline();
        Harness {
            dram: Dram::new(dram_cfg, AddressMapping::PageInterleaving),
            sched: mechanism.build(cfg, dram_cfg.geometry),
            now: 0,
            next_id: 0,
            done: Vec::new(),
        }
    }

    fn push(&mut self, kind: AccessKind, addr: u64) -> EnqueueOutcome {
        let addr = PhysAddr::new(addr).cache_line(64);
        let loc = self.dram.decode(addr);
        let id = AccessId::new(self.next_id);
        self.next_id += 1;
        let a = Access::new(id, kind, addr, loc, self.now);
        self.sched.enqueue(a, self.now, &mut self.done)
    }

    fn run(&mut self, cycles: Cycle) {
        for _ in 0..cycles {
            self.sched.tick(&mut self.dram, self.now, &mut self.done);
            self.now += 1;
        }
    }

    fn run_until_drained(&mut self, max: Cycle) {
        for _ in 0..max {
            if self.sched.outstanding().total() == 0 {
                return;
            }
            self.sched.tick(&mut self.dram, self.now, &mut self.done);
            self.now += 1;
        }
        panic!(
            "scheduler did not drain within {max} cycles: {:?} outstanding",
            self.sched.outstanding()
        );
    }
}

/// Every mechanism must complete every access exactly once.
#[test]
fn all_mechanisms_complete_mixed_stream() {
    for m in Mechanism::all() {
        let mut h = Harness::new(m);
        let mut expected = 0;
        for i in 0..200u64 {
            // Mix of rows, banks, channels, reads and writes.
            let addr = (i % 7) * 64 + (i % 13) * 8192 + (i % 3) * (1 << 20);
            let kind = if i % 4 == 3 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            if h.sched.can_accept(kind) {
                h.push(kind, addr);
                expected += 1;
            }
            h.run(2);
        }
        h.run_until_drained(200_000);
        assert_eq!(
            h.done.len(),
            expected,
            "{m}: every access completes exactly once"
        );
        let mut ids: Vec<u64> = h.done.iter().map(|c| c.id.value()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), expected, "{m}: no duplicate completions");
    }
}

/// Same-bank same-row reads must stream back-to-back under burst scheduling:
/// the whole group completes in roughly first-access latency plus one burst
/// per access.
#[test]
fn burst_clusters_same_row_reads() {
    let mut h = Harness::new(Mechanism::Burst);
    let cfg = DramConfig::baseline();
    let burst_cycles = cfg.geometry.burst_cycles();
    // 8 reads to the same row (consecutive lines within one 8 KB page).
    for i in 0..8u64 {
        h.push(AccessKind::Read, i * 64);
    }
    h.run_until_drained(10_000);
    let t = cfg.timing;
    let last_done = h.done.iter().map(|c| c.done_at).max().unwrap();
    // Row empty: tRCD + tCL + 8 bursts back-to-back (+1 slack for the
    // second access's command timing).
    let ideal = t.t_rcd + t.t_cl + 8 * burst_cycles;
    assert!(
        last_done <= ideal + 2,
        "burst should stream hits back-to-back: {last_done} vs ideal {ideal}"
    );
    // 1 row empty + 7 row hits.
    assert_eq!(h.sched.stats().row_hits, 7);
    assert_eq!(h.sched.stats().row_empties, 1);
}

/// BkInOrder serialises a row-conflict ping-pong; RowHit reorders it into
/// hits and finishes sooner with a higher hit rate.
#[test]
fn row_hit_beats_in_order_on_conflict_ping_pong() {
    let run = |m: Mechanism| {
        let mut h = Harness::new(m);
        let row_stride = 8192 * 2 * 4 * 4; // next row, same bank (page interleaving)
        for i in 0..16u64 {
            // Alternate two rows of the same bank: worst case for in-order.
            let row = i % 2;
            let addr = row * row_stride + (i / 2) * 64;
            h.push(AccessKind::Read, addr);
        }
        h.run_until_drained(100_000);
        (h.now, h.sched.stats().row_hit_rate())
    };
    let (t_inorder, hit_inorder) = run(Mechanism::BkInOrder);
    let (t_rowhit, hit_rowhit) = run(Mechanism::RowHit);
    assert!(
        t_rowhit < t_inorder,
        "RowHit ({t_rowhit}) should finish before BkInOrder ({t_inorder})"
    );
    assert!(hit_rowhit > hit_inorder, "{hit_rowhit} vs {hit_inorder}");
}

/// A read to an address held in the write queue is forwarded and completes
/// immediately (RAW through the write buffer).
#[test]
fn write_queue_forwarding() {
    for m in [Mechanism::Intel, Mechanism::BurstTh(52)] {
        let mut h = Harness::new(m);
        h.push(AccessKind::Write, 0x2000);
        let outcome = h.push(AccessKind::Read, 0x2000);
        assert_eq!(outcome, EnqueueOutcome::Forwarded, "{m}");
        assert_eq!(h.done.len(), 1);
        assert!(h.done[0].forwarded);
        assert_eq!(h.sched.stats().forwards, 1);
        // A read to a different line is not forwarded.
        let other = h.push(AccessKind::Read, 0x4000000);
        assert_eq!(other, EnqueueOutcome::Queued);
    }
}

/// Read preemption: a read arriving while a write is ongoing interrupts it;
/// the preempted write completes later.
#[test]
fn read_preemption_interrupts_ongoing_write() {
    let mut h = Harness::new(Mechanism::BurstRp);
    // A lone write becomes ongoing (no reads anywhere).
    h.push(AccessKind::Write, 0);
    h.run(3); // write becomes ongoing, starts its activate
              // Now a read to the same bank, different row arrives.
    let row_stride = 8192u64 * 2 * 4 * 4;
    h.push(AccessKind::Read, row_stride);
    h.run_until_drained(10_000);
    assert!(
        h.sched.stats().preemptions >= 1,
        "read must preempt the ongoing write"
    );
    assert_eq!(h.done.len(), 2);
    // Both eventually complete.
    assert_eq!(
        h.done.iter().filter(|c| c.kind == AccessKind::Read).count(),
        1
    );
    assert_eq!(
        h.done
            .iter()
            .filter(|c| c.kind == AccessKind::Write)
            .count(),
        1
    );
}

/// Plain burst never preempts.
#[test]
fn plain_burst_never_preempts() {
    let mut h = Harness::new(Mechanism::Burst);
    h.push(AccessKind::Write, 0);
    h.run(3);
    let row_stride = 8192u64 * 2 * 4 * 4;
    h.push(AccessKind::Read, row_stride);
    h.run_until_drained(10_000);
    assert_eq!(h.sched.stats().preemptions, 0);
}

/// Write piggybacking appends row-hit writes at the end of a burst.
#[test]
fn write_piggybacking_exploits_burst_row() {
    let mut h = Harness::new(Mechanism::BurstWp);
    // Writes to row 0 of bank 0 (they wait: reads exist).
    h.push(AccessKind::Write, 0);
    h.push(AccessKind::Write, 64);
    // A burst of reads to the same row.
    h.push(AccessKind::Read, 128);
    h.push(AccessKind::Read, 192);
    h.run_until_drained(10_000);
    assert!(
        h.sched.stats().piggybacks >= 1,
        "row-hit writes should piggyback at burst end (got {})",
        h.sched.stats().piggybacks
    );
    // The piggybacked writes were row hits.
    assert!(h.sched.stats().row_hits >= 3);
}

/// When the write queue saturates, no new access is accepted, and the
/// controller drains writes to recover.
#[test]
fn write_queue_saturation_blocks_and_recovers() {
    let cfg = CtrlConfig {
        pool_capacity: 64,
        write_capacity: 8,
        ..CtrlConfig::default()
    };
    let mut h = Harness::with_cfg(Mechanism::Burst, cfg);
    // Keep reads flowing to one bank so writes cannot drain via the
    // read-queue-empty path, and fill the write queue on another bank.
    let mut pushed_writes = 0;
    for i in 0..8u64 {
        if h.sched.can_accept(AccessKind::Write) {
            h.push(AccessKind::Write, (1 << 22) + i * 64);
            pushed_writes += 1;
        }
    }
    assert_eq!(pushed_writes, 8);
    assert!(
        !h.sched.can_accept(AccessKind::Read),
        "saturated write queue blocks everything"
    );
    assert!(!h.sched.can_accept(AccessKind::Write));
    h.run_until_drained(100_000);
    assert!(h.sched.can_accept(AccessKind::Read));
    assert!(h.sched.stats().write_saturation_rate() > 0.0);
}

/// Reads and writes to the same line never produce a stale read: the read
/// either forwards from the write queue or is ordered behind the write.
#[test]
fn raw_hazard_order_all_mechanisms() {
    for m in Mechanism::all() {
        let mut h = Harness::new(m);
        let addr = 0x8000u64;
        h.push(AccessKind::Write, addr); // id 0
        let outcome = h.push(AccessKind::Read, addr); // id 1
        match outcome {
            EnqueueOutcome::Forwarded => {
                // Write buffer forwarding: correct by construction.
            }
            EnqueueOutcome::Queued => {
                h.run_until_drained(20_000);
                let write_done = h
                    .done
                    .iter()
                    .find(|c| c.id == AccessId::new(0))
                    .expect("write completes");
                let read_done = h
                    .done
                    .iter()
                    .find(|c| c.id == AccessId::new(1))
                    .expect("read completes");
                assert!(
                    write_done.done_at <= read_done.done_at,
                    "{m}: read of same line must not pass the older write"
                );
            }
            EnqueueOutcome::Rejected => {
                panic!("{m}: controller rejected an access with an empty pool")
            }
        }
    }
}

/// Intel finishes started accesses before starting new ones; burst's Table 2
/// still keeps bursts intact. Both must never starve any access.
#[test]
fn no_starvation_under_continuous_load() {
    for m in Mechanism::all() {
        let mut h = Harness::new(m);
        // A single old access to a "cold" bank, then a flood elsewhere.
        h.push(AccessKind::Read, 1 << 26);
        for wave in 0..50u64 {
            for i in 0..4u64 {
                if h.sched.can_accept(AccessKind::Read) {
                    h.push(AccessKind::Read, i * 64 + wave * 8192);
                }
            }
            h.run(20);
        }
        h.run_until_drained(500_000);
        assert!(
            h.done.iter().any(|c| c.id == AccessId::new(0)),
            "{m}: the old access must complete"
        );
    }
}

/// Writes are drained even with no reads at all.
#[test]
fn pure_write_stream_drains() {
    for m in Mechanism::all() {
        let mut h = Harness::new(m);
        for i in 0..32u64 {
            h.push(AccessKind::Write, i * 64 + (i % 4) * (1 << 20));
        }
        h.run_until_drained(100_000);
        assert_eq!(h.done.len(), 32, "{m}");
        assert!(h.done.iter().all(|c| c.kind == AccessKind::Write));
    }
}

/// Section 5.4: with the baseline 64-entry write queue, `Burst_RP` is
/// `Burst_TH64` (occupancy never exceeds 64, so piggybacking never fires)
/// and `Burst_WP` is `Burst_TH0` (occupancy is never below 0, so
/// preemption never fires). Each pair must schedule one seeded mixed
/// stream identically, with preemptions and piggybacks actually taken.
#[test]
fn burst_rp_and_wp_equal_the_threshold_extremes() {
    let drive = |m: Mechanism| {
        let mut h = Harness::new(m);
        for i in 0..4_000u64 {
            let r = splitmix64(i);
            let kind = if r.is_multiple_of(3) {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            // A few hot rows per bank so bursts form and writes can hit
            // an open row.
            let addr = (r >> 8) % 4 * (1 << 20) + (r >> 16) % 16 * 8192 + (r >> 24) % 32 * 64;
            if h.sched.can_accept(kind) {
                h.push(kind, addr);
            }
            h.run(1 + (r >> 40) % 4);
        }
        h.run_until_drained(500_000);
        let st = h.sched.stats();
        let counters = [st.preemptions, st.piggybacks, st.row_hits, st.cycles];
        (h.done, counters)
    };
    let cap = CtrlConfig::default().write_capacity as u32;
    let rp = drive(Mechanism::BurstRp);
    assert_eq!(
        rp,
        drive(Mechanism::BurstTh(cap)),
        "Burst_RP vs Burst_TH{cap}"
    );
    assert!(rp.1[0] > 0, "Burst_RP took no preemption");
    let wp = drive(Mechanism::BurstWp);
    assert_eq!(wp, drive(Mechanism::BurstTh(0)), "Burst_WP vs Burst_TH0");
    assert!(wp.1[1] > 0, "Burst_WP took no piggyback");
}

/// Average read latency must be lower for burst TH than BkInOrder on a
/// row-local read-heavy stream (the paper's core claim in miniature).
#[test]
fn burst_th_reduces_read_latency_vs_in_order() {
    let run = |m: Mechanism| {
        let mut h = Harness::new(m);
        let row_stride = 8192u64 * 2 * 4 * 4;
        // Two interleaved row streams hitting the same bank back to back:
        // strictly in-order service sees a row conflict on every access,
        // while burst scheduling clusters each row into one burst.
        for i in 0..120u64 {
            let kind = if i % 6 == 5 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let addr = (i % 2) * row_stride + (i / 2) * 64;
            if h.sched.can_accept(kind) {
                h.push(kind, addr);
            }
            if i % 4 == 3 {
                h.run(1);
            }
        }
        h.run_until_drained(200_000);
        h.sched.stats().avg_read_latency()
    };
    let in_order = run(Mechanism::BkInOrder);
    let th = run(Mechanism::BurstTh(52));
    assert!(
        th < in_order,
        "Burst_TH read latency ({th:.1}) should beat BkInOrder ({in_order:.1})"
    );
}

/// Occupancy histograms integrate to the number of sampled cycles.
#[test]
fn occupancy_histograms_are_consistent() {
    let mut h = Harness::new(Mechanism::BurstTh(52));
    for i in 0..64u64 {
        h.push(AccessKind::Read, i * 64);
    }
    h.run(1000);
    let stats = h.sched.stats();
    assert_eq!(stats.outstanding_reads.samples(), stats.cycles);
    assert_eq!(stats.outstanding_writes.samples(), stats.cycles);
    let total: f64 = stats.outstanding_reads.fractions().iter().sum();
    assert!((total - 1.0).abs() < 1e-9);
}
