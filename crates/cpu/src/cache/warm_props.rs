//! Seeded property tests of the single-pass set scan, over five
//! geometries: the baseline, a 2-set tiny cache, non-power-of-two set
//! counts, 1-way and 16-way.
//!
//! * `lookup`, `insert`, and `probe` + `fill_way`, against the lookup
//!   scan and the three-pass insert (present? else free? else LRU?) they
//!   replaced, kept here as the reference.
//! * [`Hierarchy::warm_access`] against [`Hierarchy::access`] followed by
//!   [`Hierarchy::fill`]: the same result, the same `save_snap` bytes and
//!   the same counters after every op.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use super::*;
use crate::{Hierarchy, HierarchyConfig, MemAccessResult};

/// A cache of `sets` x `ways` 64 B lines.
fn geometry(sets: u64, ways: usize) -> CacheConfig {
    CacheConfig {
        size_bytes: sets * ways as u64 * 64,
        ways,
        line_bytes: 64,
    }
}

/// The five geometries, as (name, L1, L2).
fn geometries() -> [(&'static str, HierarchyConfig); 5] {
    let pair = |l1d, l2| HierarchyConfig { l1d, l2 };
    [
        ("baseline", HierarchyConfig::baseline()),
        ("2-set", pair(geometry(2, 2), geometry(2, 4))),
        ("non-pow2 sets", pair(geometry(3, 2), geometry(5, 4))),
        ("1-way", pair(geometry(4, 1), geometry(16, 1))),
        ("16-way", pair(geometry(2, 16), geometry(4, 16))),
    ]
}

/// Memory ops per seed: the baseline's snapshots are large, and a few
/// hundred ops already overflow its two busiest L2 sets.
fn ops_for(name: &str) -> usize {
    if name == "baseline" {
        300
    } else {
        2_000
    }
}

/// An address that mostly lands in the first few L2 sets, with tags from a
/// pool about three times the associativity, so hits, refreshes, free-way
/// fills and LRU evictions (clean and dirty) all occur. One in eight is
/// anywhere in 64 GB; every address has a random byte offset.
fn address(rng: &mut SmallRng, cfg: &HierarchyConfig) -> u64 {
    if rng.gen_range(0..8u32) == 0 {
        return rng.gen_range(0..1u64 << 36);
    }
    let sets = cfg.l2.sets() as u64;
    let ways = cfg.l1d.ways.max(cfg.l2.ways) as u64;
    let set = rng.gen_range(0..sets.min(2));
    let tag = rng.gen_range(0..3 * ways + 2);
    (tag * sets + set) * 64 + rng.gen_range(0..64u64)
}

/// The lookup the single pass replaced: a scan for the line.
fn reference_lookup(c: &mut Cache, addr: u64, make_dirty: bool) -> bool {
    c.tick += 1;
    let (set, tag) = c.split(addr);
    let base = set * c.cfg.ways;
    let hit = (base..base + c.cfg.ways).find(|&i| c.flags[i] & VALID != 0 && c.tags[i] == tag);
    let Some(i) = hit else {
        c.stats.misses += 1;
        return false;
    };
    c.lru[i] = c.tick;
    if make_dirty {
        c.flags[i] |= DIRTY;
    }
    c.stats.hits += 1;
    true
}

/// The three-pass insert the single pass replaced: a scan for the line, a
/// scan for a free way, then a scan for the least recently used way.
fn reference_insert(c: &mut Cache, addr: u64, dirty: bool) -> Option<Eviction> {
    c.tick += 1;
    let tick = c.tick;
    let (set, tag) = c.split(addr);
    let base = set * c.cfg.ways;
    let set_ways = base..base + c.cfg.ways;
    let new_flags = VALID | if dirty { DIRTY } else { 0 };
    // Already present: refresh.
    if let Some(i) = set_ways
        .clone()
        .find(|&i| c.flags[i] & VALID != 0 && c.tags[i] == tag)
    {
        c.lru[i] = tick;
        c.flags[i] |= new_flags & DIRTY;
        return None;
    }
    // Free way?
    if let Some(i) = set_ways.clone().find(|&i| c.flags[i] & VALID == 0) {
        (c.tags[i], c.lru[i], c.flags[i]) = (tag, tick, new_flags);
        return None;
    }
    // Evict LRU (the first of equal stamps, as `min_by_key` picks).
    let i = set_ways
        .min_by_key(|&i| c.lru[i])
        .expect("a set has at least one way");
    let (victim_tag, victim_dirty) = (c.tags[i], c.flags[i] & DIRTY != 0);
    (c.tags[i], c.lru[i], c.flags[i]) = (tag, tick, new_flags);
    if victim_dirty {
        c.stats.writebacks += 1;
    }
    Some(Eviction {
        addr: c.line_addr(set, victim_tag),
        dirty: victim_dirty,
    })
}

/// Every field of `a` and `b` that an op can move.
fn assert_same(a: &Cache, b: &Cache, ctx: &str) {
    assert_eq!(a.tick, b.tick, "{ctx}: tick");
    assert_eq!(a.stats, b.stats, "{ctx}: counters");
    assert_eq!(a.flags, b.flags, "{ctx}: flags");
    assert_eq!(a.tags, b.tags, "{ctx}: tags");
    assert_eq!(a.lru, b.lru, "{ctx}: LRU stamps");
}

#[test]
fn single_pass_scan_matches_the_reference_scans() {
    for (name, cfg) in geometries() {
        for (level, level_cfg) in [("L1", cfg.l1d), ("L2", cfg.l2)] {
            for seed in 0..4 {
                let mut rng = SmallRng::seed_from_u64(seed);
                let (mut a, mut b) = (Cache::new(level_cfg), Cache::new(level_cfg));
                for op in 0..ops_for(name) {
                    let addr = address(&mut rng, &cfg) & !63;
                    let dirty = rng.gen_bool(0.4);
                    let ctx = format!("{name} {level} seed {seed} op {op}");
                    match rng.gen_range(0..3u32) {
                        0 => assert_eq!(
                            a.lookup(addr, dirty),
                            reference_lookup(&mut b, addr, dirty),
                            "{ctx}"
                        ),
                        1 => assert_eq!(
                            a.insert(addr, dirty),
                            reference_insert(&mut b, addr, dirty),
                            "{ctx}"
                        ),
                        // The warm-up pattern: a probe, then on a miss the
                        // fill of the way it named.
                        _ => {
                            let got = match a.probe(addr, dirty) {
                                Probe::Hit => None,
                                Probe::Miss(way) => Some(a.fill_way(way, addr, dirty)),
                            };
                            let want = match reference_lookup(&mut b, addr, dirty) {
                                true => None,
                                false => Some(reference_insert(&mut b, addr, dirty)),
                            };
                            assert_eq!(got, want, "{ctx}");
                        }
                    }
                    assert_same(&a, &b, &ctx);
                }
                assert!(a.stats.hits > 0 && a.stats.misses > 0, "{name} {level}");
            }
        }
    }
}

/// `h`'s snapshot bytes.
fn snap(h: &Hierarchy) -> Vec<u8> {
    let mut w = burst_snap::SnapWriter::new();
    h.save_snap(&mut w);
    w.into_bytes()
}

#[test]
fn warm_access_matches_access_then_fill() {
    for (name, cfg) in geometries() {
        let mut dirty_evictions = 0;
        for seed in 0..3 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (mut warm, mut timed) = (Hierarchy::new(cfg), Hierarchy::new(cfg));
            for op in 0..ops_for(name) {
                let addr = address(&mut rng, &cfg);
                let is_store = rng.gen_bool(0.4);
                let ctx = format!("{name} seed {seed} op {op}");
                let want = timed.access(addr, is_store);
                if let MemAccessResult::Miss { line } = want {
                    timed.fill(line, is_store);
                }
                assert_eq!(warm.warm_access(addr, is_store), want, "{ctx}");
                // `warm_access` drops the writebacks `fill` queues.
                assert_eq!(warm.pending_writebacks(), 0, "{ctx}");
                while timed.pop_writeback().is_some() {
                    dirty_evictions += 1;
                }
                assert_eq!(warm.l1d().stats(), timed.l1d().stats(), "{ctx}: L1");
                assert_eq!(warm.l2().stats(), timed.l2().stats(), "{ctx}: L2");
                assert_eq!(snap(&warm), snap(&timed), "{ctx}: snapshot");
            }
        }
        assert!(dirty_evictions > 0, "{name}: no dirty line reached memory");
    }
}
