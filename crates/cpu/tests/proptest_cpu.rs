//! Property-based tests of the cache hierarchy and the CPU limit model.

use burst_cpu::{Cache, CacheConfig, Cpu, CpuConfig, Hierarchy, HierarchyConfig, MemAccessResult};
use burst_workloads::{Op, ReplaySource};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn tiny_cache() -> Cache {
    Cache::new(CacheConfig {
        size_bytes: 1024,
        ways: 2,
        line_bytes: 64,
    }) // 8 sets
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After inserting a line it is resident; evictions only report lines
    /// that were previously resident; a line never evicts itself.
    #[test]
    fn cache_insert_evict_invariants(lines in prop::collection::vec(0u64..64, 1..200)) {
        let mut c = tiny_cache();
        let mut resident: BTreeSet<u64> = BTreeSet::new();
        for &l in &lines {
            let addr = l * 64;
            if let Some(ev) = c.insert(addr, false) {
                prop_assert!(resident.remove(&ev.addr), "evicted non-resident {:#x}", ev.addr);
                prop_assert_ne!(ev.addr, addr, "line evicted itself");
            }
            resident.insert(addr);
            prop_assert!(c.contains(addr), "just-inserted line missing");
        }
        // The model and the shadow set agree on residency.
        for &l in resident.iter() {
            prop_assert!(c.contains(l));
        }
        // Capacity: at most ways*sets lines resident.
        prop_assert!(resident.len() <= 16);
    }

    /// A dirty eviction implies the line was written (inserted dirty or
    /// dirtied by a store lookup); clean lines never report writebacks.
    #[test]
    fn cache_dirty_tracking(ops in prop::collection::vec((0u64..32, any::<bool>()), 1..200)) {
        let mut c = tiny_cache();
        let mut dirtied: BTreeSet<u64> = BTreeSet::new();
        for &(l, store) in &ops {
            let addr = l * 64;
            if c.lookup(addr, store) {
                if store {
                    dirtied.insert(addr);
                }
            } else if let Some(ev) = c.insert(addr, store) {
                if ev.dirty {
                    prop_assert!(
                        dirtied.remove(&ev.addr),
                        "dirty eviction of never-written line {:#x}", ev.addr
                    );
                } else {
                    dirtied.remove(&ev.addr);
                }
                if store {
                    dirtied.insert(addr);
                }
            } else if store {
                dirtied.insert(addr);
            }
        }
    }

    /// Cache snapshots round-trip exactly: restoring a snapshot into a fresh
    /// cache re-serialises byte-identically, and the restored cache then
    /// answers every lookup and chooses every victim as the original does.
    /// Short streams leave ways never touched; the `high` half of the
    /// address space gives tags of 2^56 and above (the widest varints).
    #[test]
    fn cache_snapshot_round_trips_exactly(
        before in prop::collection::vec((0u8..4, 0u64..16, any::<bool>()), 0..60),
        after in prop::collection::vec((0u8..4, 0u64..16, any::<bool>()), 1..60),
    ) {
        // 4 sets x 4 ways x 32 B lines: the tag is `addr >> 7`.
        let cfg = CacheConfig { size_bytes: 512, ways: 4, line_bytes: 32 };
        let addr = |line: u64, high: bool| {
            (line * 32) | if high { 0xff00_0000_0000_0000 } else { 0 }
        };
        let apply = |c: &mut Cache, &(kind, line, high): &(u8, u64, bool)| {
            let a = addr(line, high);
            match kind {
                0 | 1 => (c.lookup(a, kind == 1), None),
                _ => (false, c.insert(a, kind == 3)),
            }
        };
        let snap = |c: &Cache| {
            let mut w = burst_snap::SnapWriter::new();
            c.save_snap(&mut w);
            w.into_bytes()
        };
        let mut original = Cache::new(cfg);
        for op in &before {
            apply(&mut original, op);
        }
        let bytes = snap(&original);
        let mut restored = Cache::new(cfg);
        let mut r = burst_snap::SnapReader::new(&bytes);
        restored.load_snap(&mut r).expect("own snapshot loads");
        r.finish().expect("load consumes the whole snapshot");
        prop_assert_eq!(snap(&restored), bytes);
        for op in &after {
            prop_assert_eq!(apply(&mut original, op), apply(&mut restored, op), "diverged at {:?}", op);
        }
        prop_assert_eq!(original.stats(), restored.stats());
        prop_assert_eq!(snap(&original), snap(&restored));
    }

    /// Hierarchy: miss -> fill -> hit for any line; writebacks only for
    /// lines that passed through a store.
    #[test]
    fn hierarchy_miss_fill_hit(lines in prop::collection::vec(0u64..4096, 1..100)) {
        let mut h = Hierarchy::new(HierarchyConfig::baseline());
        for &l in &lines {
            let addr = l * 64;
            match h.access(addr, false) {
                MemAccessResult::Miss { line } => {
                    prop_assert_eq!(line, addr);
                    h.fill(line, false);
                    prop_assert!(matches!(
                        h.access(addr, false),
                        MemAccessResult::L1Hit
                    ));
                }
                MemAccessResult::L1Hit | MemAccessResult::L2Hit => {}
            }
        }
        // Pure loads: no writebacks ever.
        prop_assert_eq!(h.pending_writebacks(), 0);
    }

    /// The CPU never exceeds its structural limits and always drains once
    /// memory answers: a fundamental liveness property.
    #[test]
    fn cpu_liveness_and_limits(ops in prop::collection::vec(0u8..12, 8..200)) {
        let cfg = CpuConfig::baseline();
        let mut cpu = Cpu::new(cfg);
        // Map op codes onto a mix of compute/loads/stores over a handful of
        // lines, including dependent loads.
        let trace: Vec<Op> = ops
            .iter()
            .map(|&o| match o {
                0..=3 => Op::Compute,
                4..=6 => Op::load(u64::from(o) * (1 << 22)),
                7..=8 => Op::dependent_load(u64::from(o) * (1 << 23)),
                _ => Op::Store { addr: u64::from(o) * (1 << 21) },
            })
            .collect();
        let mut src = ReplaySource::new("prop", trace);
        let target = 2_000u64;
        let mut guard = 0u64;
        while cpu.retired() < target {
            cpu.cycle(&mut src);
            prop_assert!(cpu.outstanding_misses() <= cfg.lsq_size);
            // Answer memory instantly.
            while let Some(line) = cpu.pop_read_request() {
                cpu.complete_read(line, cpu.now());
            }
            while cpu.pop_writeback().is_some() {}
            guard += 1;
            prop_assert!(guard < 1_000_000, "CPU livelocked");
        }
        prop_assert!(cpu.retired() >= target);
    }

    /// Instant-memory executions retire at least one instruction per
    /// `width` cycles on average once warmed up (no artificial stalls).
    #[test]
    fn cpu_throughput_reasonable(seed_ops in prop::collection::vec(0u8..4, 4..40)) {
        let mut cpu = Cpu::new(CpuConfig::baseline());
        let trace: Vec<Op> = seed_ops
            .iter()
            .map(|&o| if o == 0 { Op::load(u64::from(o) * 4096) } else { Op::Compute })
            .collect();
        let mut src = ReplaySource::new("mixed", trace);
        for _ in 0..2_000 {
            cpu.cycle(&mut src);
            while let Some(line) = cpu.pop_read_request() {
                cpu.complete_read(line, cpu.now());
            }
            while cpu.pop_writeback().is_some() {}
        }
        prop_assert!(cpu.retired() > 1_000, "retired only {}", cpu.retired());
    }
}
