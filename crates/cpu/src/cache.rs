//! Set-associative write-back, write-allocate cache with LRU replacement.
//!
//! The hot paths (`lookup`, `insert`) run once per memory instruction of
//! every simulated workload and of every cell's functional warm-up, so the
//! implementation is laid out for the set scan:
//!
//! * The ways live in three flat, set-major, way-minor arrays — tags, LRU
//!   stamps, and one flag byte per way (bit 0 valid, bit 1 dirty). That is
//!   the iteration order and the flag encoding of the snapshot format, so
//!   `save_snap` writes the arrays as they stand.
//! * One pass over a set finds "present, else first free, else least
//!   recently used". `insert` is that pass plus the fill. `probe` (behind
//!   `lookup`) is that pass too, and on a miss it returns the way to fill,
//!   which `fill_way` fills without a second pass; warm-up
//!   (`Hierarchy::warm_access`) scans each level once per access that way.
//! * The set/tag split uses shift/mask forms when the set count is a power
//!   of two (the baseline L1 and L2 both are).
//!
//! None of this changes a single observable bit: the same way is found,
//! the same LRU/dirty updates apply, the same counters move.

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes (64 throughout the paper).
    pub line_bytes: u64,
}

impl CacheConfig {
    /// The paper's L1 data cache: 128 KB, 2-way, 64 B lines (Table 3).
    pub fn l1d_baseline() -> Self {
        CacheConfig {
            size_bytes: 128 * 1024,
            ways: 2,
            line_bytes: 64,
        }
    }

    /// The paper's L2 cache: 2 MB, 16-way, 64 B lines (Table 3).
    pub fn l2_baseline() -> Self {
        CacheConfig {
            size_bytes: 2 * 1024 * 1024,
            ways: 16,
            line_bytes: 64,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        (self.size_bytes / (self.ways as u64 * self.line_bytes)) as usize
    }
}

/// A line evicted to make room for an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Eviction {
    /// Line-aligned address of the victim.
    pub addr: u64,
    /// Whether the victim held modified data (needs writing back).
    pub dirty: bool,
}

/// Way flag bit: the way holds a line.
const VALID: u8 = 1;
/// Way flag bit: the line is modified.
const DIRTY: u8 = 2;

/// What [`Cache::probe`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Probe {
    /// The line is present; LRU and dirty bit were updated as by
    /// [`Cache::lookup`].
    Hit,
    /// The line is absent; [`Cache::fill_way`] with this way allocates it.
    Miss(FillWay),
}

/// The way an absent line would be inserted into: the first free way of
/// its set, else the least recently used one. Valid for one
/// [`Cache::fill_way`] of the probed address, provided nothing else
/// touches the cache in between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FillWay {
    /// Flat index of the way.
    way: usize,
    /// The probed address's set and tag.
    set: usize,
    tag: u64,
}

/// Per-level hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Dirty evictions produced by allocations.
    pub writebacks: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; zero when no lookups happened.
    #[expect(
        clippy::disallowed_types,
        clippy::float_arithmetic,
        reason = "report-only hit-rate accessor over integer hit/miss counters"
    )]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// How the line address splits into a set index and a tag. Both forms are
/// pure functions of the configured geometry.
#[derive(Debug, Clone, Copy)]
enum SetSplit {
    /// `sets` is a power of two: mask for the index, shift for the tag.
    Pow2 { mask: u64, shift: u32 },
    /// Arbitrary set count: divide/modulo.
    Generic { sets: u64 },
}

/// A set-associative write-back cache.
///
/// # Examples
///
/// ```
/// use burst_cpu::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig::l1d_baseline());
/// assert!(!c.lookup(0x1000, false));       // cold miss
/// c.insert(0x1000, false);
/// assert!(c.lookup(0x1000, true));         // hit, now dirty
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// Every way's tag, set-major then way-minor — the iteration order of
    /// the snapshot format. `lru` and `flags` are indexed alike.
    tags: Vec<u64>,
    /// Every way's LRU stamp: the `tick` of its last touch.
    lru: Vec<u64>,
    /// Every way's [`VALID`] | [`DIRTY`] bits, as the snapshot writes them.
    flags: Vec<u8>,
    n_sets: usize,
    split: SetSplit,
    line_shift: u32,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration yields zero sets or has a non-power-of-
    /// two line size.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let sets = cfg.sets();
        assert!(sets > 0, "cache must have at least one set");
        let split = if (sets as u64).is_power_of_two() {
            SetSplit::Pow2 {
                mask: sets as u64 - 1,
                shift: (sets as u64).trailing_zeros(),
            }
        } else {
            SetSplit::Generic { sets: sets as u64 }
        };
        let n_ways = sets * cfg.ways;
        Cache {
            tags: vec![0; n_ways],
            lru: vec![0; n_ways],
            flags: vec![0; n_ways],
            n_sets: sets,
            split,
            line_shift: cfg.line_bytes.trailing_zeros(),
            cfg,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Zeroes the hit/miss counters (e.g. after functional warming).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    #[inline]
    fn split(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        match self.split {
            SetSplit::Pow2 { mask, shift } => ((line & mask) as usize, line >> shift),
            SetSplit::Generic { sets } => ((line % sets) as usize, line / sets),
        }
    }

    /// Reconstructs the line-aligned address held by (`set`, `tag`).
    #[inline]
    fn line_addr(&self, set: usize, tag: u64) -> u64 {
        let line = match self.split {
            SetSplit::Pow2 { shift, .. } => (tag << shift) | set as u64,
            SetSplit::Generic { sets } => tag * sets + set as u64,
        };
        line << self.line_shift
    }

    /// Refreshes flat way `i`, a hit: LRU stamp, and dirty bit if
    /// `make_dirty`.
    #[inline]
    fn touch(&mut self, i: usize, make_dirty: bool) {
        self.lru[i] = self.tick;
        if make_dirty {
            self.flags[i] |= DIRTY;
        }
    }

    /// One pass over set `set`: `Ok(way)` if `tag` is present, else the
    /// way an insert would fill — the first invalid way, else the first
    /// way with the smallest LRU stamp.
    #[inline]
    fn find_or_victim(&self, set: usize, tag: u64) -> Result<usize, FillWay> {
        let base = set * self.cfg.ways;
        let end = base + self.cfg.ways;
        let (tags, lru, flags) = (
            &self.tags[base..end],
            &self.lru[base..end],
            &self.flags[base..end],
        );
        let mut free = None;
        let (mut oldest, mut oldest_lru) = (0, u64::MAX);
        for i in 0..tags.len() {
            if flags[i] & VALID == 0 {
                free = free.or(Some(i));
            } else if tags[i] == tag {
                return Ok(base + i);
            } else if lru[i] < oldest_lru {
                (oldest, oldest_lru) = (i, lru[i]);
            }
        }
        Err(FillWay {
            way: base + free.unwrap_or(oldest),
            set,
            tag,
        })
    }

    /// Looks up `addr`; on a hit updates LRU and, if `make_dirty`, marks the
    /// line modified. Returns whether the line was present. Counts toward
    /// hit/miss statistics.
    pub fn lookup(&mut self, addr: u64, make_dirty: bool) -> bool {
        self.probe(addr, make_dirty) == Probe::Hit
    }

    /// [`Cache::lookup`] that, on a miss, also names the way
    /// [`Cache::insert`] would fill — found in the same scan of the set.
    pub(crate) fn probe(&mut self, addr: u64, make_dirty: bool) -> Probe {
        self.tick += 1;
        let (set, tag) = self.split(addr);
        match self.find_or_victim(set, tag) {
            Ok(i) => {
                self.touch(i, make_dirty);
                self.stats.hits += 1;
                Probe::Hit
            }
            Err(fill) => {
                self.stats.misses += 1;
                Probe::Miss(fill)
            }
        }
    }

    /// Whether `addr` is present, without touching LRU or statistics.
    pub fn contains(&self, addr: u64) -> bool {
        let (set, tag) = self.split(addr);
        self.find_or_victim(set, tag).is_ok()
    }

    /// Allocates a line for `addr` (write-allocate fill), evicting the LRU
    /// way if the set is full. If the line is already present it is updated
    /// in place. Returns the eviction, if any.
    pub fn insert(&mut self, addr: u64, dirty: bool) -> Option<Eviction> {
        let (set, tag) = self.split(addr);
        match self.find_or_victim(set, tag) {
            Ok(i) => {
                // Already present: refresh.
                self.tick += 1;
                self.touch(i, dirty);
                None
            }
            Err(fill) => self.fill_way(fill, addr, dirty),
        }
    }

    /// Allocates the line `addr`, absent from the cache, into `way` from
    /// [`Cache::probe`]`(addr, _)` — exactly what [`Cache::insert`] would
    /// do, without scanning the set again. Returns the eviction, if any.
    pub(crate) fn fill_way(&mut self, way: FillWay, addr: u64, dirty: bool) -> Option<Eviction> {
        let FillWay { way: i, set, tag } = way;
        debug_assert_eq!(self.split(addr), (set, tag), "fill_way of another line");
        self.tick += 1;
        let victim = self.flags[i];
        let victim_tag = self.tags[i];
        self.tags[i] = tag;
        self.lru[i] = self.tick;
        self.flags[i] = VALID | if dirty { DIRTY } else { 0 };
        if victim & VALID == 0 {
            return None;
        }
        let victim_dirty = victim & DIRTY != 0;
        if victim_dirty {
            self.stats.writebacks += 1;
        }
        Some(Eviction {
            addr: self.line_addr(set, victim_tag),
            dirty: victim_dirty,
        })
    }

    /// Serialises every way's tag/valid/dirty/LRU state plus counters for
    /// a checkpoint.
    ///
    /// Ways dominate a checkpoint, so each is compact: a flags byte
    /// (bit 0 valid, bit 1 dirty), the tag as a varint, and its LRU stamp
    /// as a varint *age* `tick − lru`. The cache's `tick` is written first
    /// so [`Cache::load_snap`] can rebuild every stamp exactly; recently
    /// used ways have small ages and take one or two bytes.
    pub fn save_snap(&self, w: &mut burst_snap::SnapWriter) {
        let Self {
            cfg,
            tags,
            lru,
            flags,
            n_sets,
            split: _,      // geometry, recomputed from cfg
            line_shift: _, // geometry, recomputed from cfg
            tick,
            stats:
                CacheStats {
                    hits,
                    misses,
                    writebacks,
                },
        } = self;
        w.usize(*n_sets);
        w.usize(cfg.ways);
        w.u64(*tick);
        // Flat storage is set-major, way-minor.
        for ((&flags, &tag), &lru) in flags.iter().zip(tags).zip(lru) {
            w.u8(flags);
            w.varint(tag);
            // Every stamp is a past `tick`, so the age never wraps.
            w.varint(tick.wrapping_sub(lru));
        }
        w.u64(*hits);
        w.u64(*misses);
        w.u64(*writebacks);
    }

    /// Restores state written by [`Cache::save_snap`] into a cache of the
    /// same geometry; a dimension mismatch, an unknown flag bit or an age
    /// older than the cache's clock is rejected as corrupt.
    pub fn load_snap(
        &mut self,
        r: &mut burst_snap::SnapReader,
    ) -> Result<(), burst_snap::SnapError> {
        use burst_snap::SnapError;
        let Self {
            cfg,
            tags,
            lru,
            flags,
            n_sets,
            split: _,      // geometry, recomputed from cfg
            line_shift: _, // geometry, recomputed from cfg
            tick,
            stats:
                CacheStats {
                    hits,
                    misses,
                    writebacks,
                },
        } = self;
        if r.seq_len(1)? != *n_sets || r.usize()? != cfg.ways {
            return Err(SnapError::Corrupt("cache geometry mismatch"));
        }
        *tick = r.u64()?;
        for ((flags, tag), lru) in flags.iter_mut().zip(tags.iter_mut()).zip(lru.iter_mut()) {
            *flags = r.u8()?;
            if *flags > VALID | DIRTY {
                return Err(SnapError::Corrupt("cache way flags out of range"));
            }
            *tag = r.varint()?;
            *lru = tick
                .checked_sub(r.varint()?)
                .ok_or(SnapError::Corrupt("cache way older than the cache clock"))?;
        }
        *hits = r.u64()?;
        *misses = r.u64()?;
        *writebacks = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod warm_props;

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64 B = 512 B.
        Cache::new(CacheConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn baseline_configs_match_table3() {
        let l1 = CacheConfig::l1d_baseline();
        assert_eq!(l1.sets(), 1024);
        let l2 = CacheConfig::l2_baseline();
        assert_eq!(l2.sets(), 2048);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.lookup(0, false));
        c.insert(0, false);
        assert!(c.lookup(0, false));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 receives lines 0, 256 (4 sets * 64 = 256 stride), 512.
        c.insert(0, false);
        c.insert(256, false);
        // Touch line 0 so 256 becomes LRU.
        assert!(c.lookup(0, false));
        let ev = c.insert(512, false).expect("set is full");
        assert_eq!(ev.addr, 256);
        assert!(!ev.dirty);
        assert!(c.contains(0));
        assert!(c.contains(512));
        assert!(!c.contains(256));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.insert(0, false);
        assert!(c.lookup(0, true)); // dirty it
        c.insert(256, false);
        let ev = c.insert(512, false).expect("evicts");
        // LRU is line 0 (touched before 256? No: 0 inserted, looked up
        // (tick 2), 256 inserted tick 3 -> LRU is 0 at tick 2... lookup
        // refreshed 0, insert(256) is newer, so victim is 0.
        assert_eq!(ev.addr, 0);
        assert!(ev.dirty, "dirty victim must be written back");
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn insert_existing_line_merges_dirty() {
        let mut c = tiny();
        c.insert(0, false);
        assert!(c.insert(0, true).is_none(), "re-insert refreshes in place");
        c.insert(256, false);
        // Set 0 holds {0 (older), 256}; inserting 512 evicts line 0, which
        // must carry the dirty bit merged by the second insert.
        let ev = c.insert(512, false).expect("evicts LRU");
        assert_eq!(ev.addr, 0);
        assert!(ev.dirty, "dirty bit merged on re-insert");
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut c = tiny();
        c.insert(0, false); // set 0
        c.insert(64, false); // set 1
        c.insert(128, false); // set 2
        assert!(c.contains(0) && c.contains(64) && c.contains(128));
    }

    #[test]
    fn eviction_address_reconstruction() {
        let mut c = tiny();
        let addr = 0x1234u64 & !63; // some line
        c.insert(addr, true);
        let (set, _) = (addr / 64 % 4, ());
        // Fill the same set with two more lines to force eviction of addr.
        let stride = 4 * 64;
        c.insert(addr + stride, false);
        let ev = c.insert(addr + 2 * stride, false).expect("evicts");
        assert_eq!(ev.addr, addr, "victim address must round-trip (set {set})");
        assert!(ev.dirty);
    }

    #[test]
    fn hit_rate() {
        let mut c = tiny();
        c.insert(0, false);
        c.lookup(0, false);
        c.lookup(64, false);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn non_power_of_two_sets_split_correctly() {
        // 3 sets x 2 ways: exercises the generic divide/modulo split.
        let mut c = Cache::new(CacheConfig {
            size_bytes: 3 * 2 * 64,
            ways: 2,
            line_bytes: 64,
        });
        // Lines 0 and 3 share set 0; line 1 is set 1.
        c.insert(0, true);
        c.insert(3 * 64, false);
        c.insert(64, false);
        assert!(c.contains(0) && c.contains(3 * 64) && c.contains(64));
        // A third set-0 line evicts LRU line 0 and round-trips its address.
        let ev = c.insert(6 * 64, false).expect("set 0 full");
        assert_eq!(ev.addr, 0);
        assert!(ev.dirty);
    }

    #[test]
    fn evicted_line_misses() {
        let mut c = tiny();
        c.insert(0, false);
        assert!(c.lookup(0, false));
        // Evict line 0: set 0 now holds two newer lines.
        c.insert(256, false);
        c.insert(512, false);
        assert!(!c.lookup(0, false));
        assert!(c.lookup(512, false));
    }

    #[test]
    fn load_rejects_impossible_ways() {
        let mut c = tiny();
        c.insert(0, true);
        let mut w = burst_snap::SnapWriter::new();
        c.save_snap(&mut w);
        let good = w.into_bytes();
        // Header: sets, ways, tick (u64 each); then way 0's flags, tag, age.
        let way0 = 24;
        let load = |bytes: &[u8]| tiny().load_snap(&mut burst_snap::SnapReader::new(bytes));
        assert!(load(&good).is_ok());
        let mut bad = good.clone();
        bad[way0] = 0b100;
        assert!(load(&bad).is_err(), "unknown flag bit");
        // Way 1 was never touched: its age is the whole clock. One more
        // than the clock would place its stamp before time began.
        let mut bad = good.clone();
        assert_eq!(
            &bad[way0 + 3..way0 + 6],
            &[0, 0, 1],
            "way 1: flags, tag, age"
        );
        bad[way0 + 5] = 2;
        assert!(load(&bad).is_err(), "age older than the clock");
        assert!(load(&good[..good.len() - 1]).is_err(), "truncated");
    }
}
