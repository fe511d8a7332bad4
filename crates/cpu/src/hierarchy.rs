//! The two-level data-cache hierarchy of the baseline machine (Table 3):
//! a 128 KB 2-way L1 data cache backed by a 2 MB 16-way unified L2, both
//! write-back / write-allocate with 64 B lines.
//!
//! Instruction fetch is assumed to hit the L1 instruction cache (SPEC-style
//! workloads have negligible I-cache miss traffic); see `DESIGN.md`.

use std::collections::VecDeque;

use crate::cache::Probe;
use crate::{Cache, CacheConfig};

/// Outcome of a data access against the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemAccessResult {
    /// Hit in the L1 data cache.
    L1Hit,
    /// Missed L1, hit L2 (the line is promoted to L1).
    L2Hit,
    /// Missed both levels; main memory must supply `line`.
    Miss {
        /// Line-aligned address to fetch.
        line: u64,
    },
}

/// L1 + L2 data hierarchy producing main-memory read misses and dirty
/// writebacks.
///
/// # Examples
///
/// ```
/// use burst_cpu::{Hierarchy, HierarchyConfig, MemAccessResult};
///
/// let mut h = Hierarchy::new(HierarchyConfig::baseline());
/// assert!(matches!(h.access(0x5000, false), MemAccessResult::Miss { .. }));
/// h.fill(0x5000, false);
/// assert_eq!(h.access(0x5000, false), MemAccessResult::L1Hit);
/// ```
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l1d: Cache,
    l2: Cache,
    writebacks: VecDeque<u64>,
}

/// Configuration of both cache levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HierarchyConfig {
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// L2 unified cache geometry.
    pub l2: CacheConfig,
}

impl HierarchyConfig {
    /// The paper's baseline hierarchy (Table 3).
    pub fn baseline() -> Self {
        HierarchyConfig {
            l1d: CacheConfig::l1d_baseline(),
            l2: CacheConfig::l2_baseline(),
        }
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig::baseline()
    }
}

impl Hierarchy {
    /// Creates an empty hierarchy.
    pub fn new(cfg: HierarchyConfig) -> Self {
        Hierarchy {
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            writebacks: VecDeque::new(),
        }
    }

    /// The L1 data cache (for statistics).
    pub fn l1d(&self) -> &Cache {
        &self.l1d
    }

    /// The L2 cache (for statistics).
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr & !(self.l1d.config().line_bytes - 1)
    }

    /// Inserts a line into L2, queueing a memory writeback if a dirty
    /// victim falls out.
    fn put_l2(&mut self, line: u64, dirty: bool) {
        if let Some(ev) = self.l2.insert(line, dirty) {
            if ev.dirty {
                self.writebacks.push_back(ev.addr);
            }
        }
    }

    /// Inserts a line into L1, cascading the victim into L2.
    fn put_l1(&mut self, line: u64, dirty: bool) {
        if let Some(ev) = self.l1d.insert(line, dirty) {
            if ev.dirty {
                self.put_l2(ev.addr, true);
            }
        }
    }

    /// Performs a load (`is_store == false`) or store against the
    /// hierarchy. Stores are write-allocate: a store miss returns
    /// [`MemAccessResult::Miss`] and the fill must be completed with
    /// [`Hierarchy::fill`]`(line, true)`.
    pub fn access(&mut self, addr: u64, is_store: bool) -> MemAccessResult {
        let line = self.line_of(addr);
        if self.l1d.lookup(line, is_store) {
            return MemAccessResult::L1Hit;
        }
        if self.l2.lookup(line, false) {
            self.put_l1(line, is_store);
            return MemAccessResult::L2Hit;
        }
        MemAccessResult::Miss { line }
    }

    /// Completes a main-memory fill of `line`; `dirty` marks a store-miss
    /// fill (the line is immediately modified).
    pub fn fill(&mut self, line: u64, dirty: bool) {
        let line = self.line_of(line);
        self.put_l2(line, false);
        self.put_l1(line, dirty);
    }

    /// [`Hierarchy::access`] followed, on a miss, by an instant
    /// [`Hierarchy::fill`]`(line, is_store)` — one access of functional
    /// warm-up — with one scan of each level's set instead of two or
    /// more: each level's probe also finds the way its fill goes into.
    /// Dirty lines leaving L2 are dropped as they are generated, not
    /// queued (warm-up discards them). Returns what `access` would, and
    /// leaves both levels exactly as `access` plus `fill` would.
    pub(crate) fn warm_access(&mut self, addr: u64, is_store: bool) -> MemAccessResult {
        let line = self.line_of(addr);
        let Probe::Miss(l1_way) = self.l1d.probe(line, is_store) else {
            return MemAccessResult::L1Hit;
        };
        // `fill` allocates in L2 first (clean), then in L1; neither level
        // is touched between its probe and its fill, so the probed ways
        // are the ones `insert` would pick.
        let result = match self.l2.probe(line, false) {
            Probe::Hit => MemAccessResult::L2Hit,
            Probe::Miss(l2_way) => {
                self.l2.fill_way(l2_way, line, false);
                MemAccessResult::Miss { line }
            }
        };
        if let Some(ev) = self.l1d.fill_way(l1_way, line, is_store) {
            if ev.dirty {
                self.l2.insert(ev.addr, true);
            }
        }
        result
    }

    /// Takes the next dirty line awaiting writeback to main memory.
    pub fn pop_writeback(&mut self) -> Option<u64> {
        self.writebacks.pop_front()
    }

    /// Number of queued writebacks.
    pub fn pending_writebacks(&self) -> usize {
        self.writebacks.len()
    }

    /// Zeroes both levels' hit/miss counters and drops queued writebacks
    /// (used after functional warming).
    pub fn reset_stats(&mut self) {
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.writebacks.clear();
    }

    /// Serialises both cache levels and the writeback queue for a
    /// checkpoint.
    pub fn save_snap(&self, w: &mut burst_snap::SnapWriter) {
        let Self {
            l1d,
            l2,
            writebacks,
        } = self;
        l1d.save_snap(w);
        l2.save_snap(w);
        w.usize(writebacks.len());
        for &line in writebacks {
            w.u64(line);
        }
    }

    /// Restores state written by [`Hierarchy::save_snap`] into a hierarchy
    /// of the same geometry.
    pub fn load_snap(
        &mut self,
        r: &mut burst_snap::SnapReader,
    ) -> Result<(), burst_snap::SnapError> {
        let Self {
            l1d,
            l2,
            writebacks,
        } = self;
        l1d.load_snap(r)?;
        l2.load_snap(r)?;
        let n = r.seq_len(8)?;
        writebacks.clear();
        for _ in 0..n {
            writebacks.push_back(r.u64()?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Hierarchy {
        Hierarchy::new(HierarchyConfig {
            l1d: CacheConfig {
                size_bytes: 256,
                ways: 2,
                line_bytes: 64,
            }, // 2 sets
            l2: CacheConfig {
                size_bytes: 1024,
                ways: 2,
                line_bytes: 64,
            }, // 8 sets
        })
    }

    #[test]
    fn miss_fill_hit_cycle() {
        let mut h = tiny();
        assert_eq!(h.access(100, false), MemAccessResult::Miss { line: 64 });
        h.fill(64, false);
        assert_eq!(h.access(100, false), MemAccessResult::L1Hit);
    }

    #[test]
    fn l2_hit_promotes_to_l1() {
        let mut h = tiny();
        h.fill(0, false);
        // Evict line 0 from tiny L1 (2 sets x 2 ways; set = line % 2).
        // Lines 0, 128, 256 all map to L1 set 0.
        h.fill(128, false);
        h.fill(256, false);
        assert!(!h.l1d().contains(0), "L1 evicted line 0");
        assert!(h.l2().contains(0), "L2 retains line 0");
        assert_eq!(h.access(0, false), MemAccessResult::L2Hit);
        assert!(h.l1d().contains(0), "promoted back to L1");
    }

    #[test]
    fn dirty_line_cascades_to_memory_writeback() {
        let mut h = tiny();
        // Dirty a line, then evict it through both levels.
        h.fill(0, true); // store-miss fill: dirty in L1
                         // Evict from L1 set 0 (stride 128).
        h.fill(128, false);
        h.fill(256, false);
        // Line 0 is now dirty in L2 (L2 set = line % 8 -> lines 0, 512,
        // 1024 share L2 set 0). Evict it from L2.
        h.fill(512, false);
        h.fill(1024, false);
        let mut wbs = Vec::new();
        while let Some(w) = h.pop_writeback() {
            wbs.push(w);
        }
        assert!(wbs.contains(&0), "dirty line 0 must reach memory: {wbs:?}");
    }

    #[test]
    fn clean_evictions_produce_no_writebacks() {
        let mut h = tiny();
        for i in 0..32 {
            h.fill(i * 64, false);
        }
        assert_eq!(h.pending_writebacks(), 0);
    }

    #[test]
    fn store_hit_dirties_without_traffic() {
        let mut h = tiny();
        h.fill(0, false);
        assert_eq!(h.access(0, true), MemAccessResult::L1Hit);
        assert_eq!(h.pending_writebacks(), 0);
        // Evicting it later produces the writeback.
        h.fill(128, false);
        h.fill(256, false); // L1 eviction of dirty 0 -> L2
        h.fill(512, false);
        h.fill(1024, false); // L2 eviction -> memory
        assert!(h.pending_writebacks() > 0);
    }

    #[test]
    fn access_aligns_to_line() {
        let mut h = tiny();
        assert_eq!(h.access(0x7f, false), MemAccessResult::Miss { line: 0x40 });
    }
}
