//! Generic synthetic access-pattern generators: streaming, uniform random,
//! pointer chasing and weighted mixes. The SPEC surrogates in
//! [`crate::SpecBenchmark`] are built from these.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{Op, OpSource};

/// Streams sequentially through several arrays with a fixed stride,
/// emitting loads and (with probability `store_frac`) stores — the shape of
/// `swim`/`mgrid`-style stencil loops. Sequential lines within an 8 KB DRAM
/// page give high row locality.
#[derive(Debug, Clone)]
pub struct StreamWorkload {
    name: String,
    bases: Vec<u64>,
    offsets: Vec<u64>,
    extent: u64,
    stride: u64,
    store_frac: f64,
    compute_per_mem: f64,
    credit: f64,
    next_stream: usize,
    /// When set, streams walk sequentially within a page, then hop to a
    /// random page — modelling physical page allocation, which scatters
    /// consecutive virtual pages over banks.
    page_shuffle: Option<PageShuffle>,
    rng: SmallRng,
}

/// The page geometry of [`StreamWorkload::with_page_shuffle`], fixed when
/// it is enabled so the per-op path divides nothing.
#[derive(Debug, Clone, Copy)]
struct PageShuffle {
    /// Page size in bytes.
    bytes: u64,
    /// Pages in the extent (at least one): the hop's range.
    pages: u64,
}

impl PageShuffle {
    /// Whether `offset` starts a page: a mask for a power-of-two page
    /// (every page the SPEC surrogates use), a remainder otherwise.
    #[inline]
    fn starts_page(self, offset: u64) -> bool {
        if self.bytes.is_power_of_two() {
            offset & (self.bytes - 1) == 0
        } else {
            offset.is_multiple_of(self.bytes)
        }
    }
}

impl StreamWorkload {
    /// Creates a streaming workload.
    ///
    /// * `bases` — start address of each array (spread them to touch
    ///   different banks).
    /// * `extent` — bytes walked in each array before wrapping.
    /// * `stride` — byte step per access (64 = one line per access).
    /// * `store_frac` — fraction of memory ops that are stores.
    /// * `compute_per_mem` — average compute ops between memory ops.
    pub fn new(
        name: impl Into<String>,
        bases: Vec<u64>,
        extent: u64,
        stride: u64,
        store_frac: f64,
        compute_per_mem: f64,
        seed: u64,
    ) -> Self {
        assert!(!bases.is_empty(), "need at least one stream");
        assert!(stride > 0, "stride must be positive");
        let n = bases.len();
        StreamWorkload {
            name: name.into(),
            bases,
            offsets: vec![0; n],
            extent: extent.max(stride),
            stride,
            store_frac,
            compute_per_mem,
            credit: 0.0,
            next_stream: 0,
            page_shuffle: None,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Enables page shuffling: the stream stays sequential within a
    /// `page_bytes` page but hops to a random page of its extent at every
    /// page boundary. This models OS physical page allocation — virtually
    /// contiguous arrays are physically scattered, so concurrent streams
    /// collide in DRAM banks at different rows, creating the row conflicts
    /// access reordering exploits.
    pub fn with_page_shuffle(mut self, page_bytes: u64) -> Self {
        assert!(
            page_bytes >= self.stride,
            "page must hold at least one access"
        );
        self.page_shuffle = Some(PageShuffle {
            bytes: page_bytes,
            pages: (self.extent / page_bytes).max(1),
        });
        self
    }
}

impl OpSource for StreamWorkload {
    fn next_op(&mut self) -> Op {
        if self.credit >= 1.0 {
            self.credit -= 1.0;
            return Op::Compute;
        }
        self.credit += self.compute_per_mem;
        let i = self.next_stream;
        self.next_stream += 1;
        if self.next_stream == self.bases.len() {
            self.next_stream = 0;
        }
        let addr = self.bases[i] + self.offsets[i];
        // Offsets stay below `extent` and `stride <= extent`, so one
        // subtraction wraps `next` into the extent.
        let next = self.offsets[i] + self.stride;
        self.offsets[i] = match self.page_shuffle {
            Some(page) if next >= self.extent || page.starts_page(next) => {
                // Hop to a random page of this stream's extent.
                self.rng.gen_range(0..page.pages) * page.bytes
            }
            _ if next >= self.extent => next - self.extent,
            _ => next,
        };
        if self.rng.gen_bool(self.store_frac.clamp(0.0, 1.0)) {
            Op::Store { addr }
        } else {
            Op::load(addr)
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Uniform random accesses over a working set — low row locality, high bank
/// spread.
#[derive(Debug, Clone)]
pub struct RandomWorkload {
    name: String,
    base: u64,
    working_set: u64,
    store_frac: f64,
    compute_per_mem: f64,
    credit: f64,
    rng: SmallRng,
}

impl RandomWorkload {
    /// Creates a uniform random workload over `[base, base + working_set)`.
    pub fn new(
        name: impl Into<String>,
        base: u64,
        working_set: u64,
        store_frac: f64,
        compute_per_mem: f64,
        seed: u64,
    ) -> Self {
        assert!(working_set >= 64, "working set must hold at least one line");
        RandomWorkload {
            name: name.into(),
            base,
            working_set,
            store_frac,
            compute_per_mem,
            credit: 0.0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl OpSource for RandomWorkload {
    fn next_op(&mut self) -> Op {
        if self.credit >= 1.0 {
            self.credit -= 1.0;
            return Op::Compute;
        }
        self.credit += self.compute_per_mem;
        let lines = self.working_set / 64;
        let addr = self.base + self.rng.gen_range(0..lines) * 64;
        if self.rng.gen_bool(self.store_frac.clamp(0.0, 1.0)) {
            Op::Store { addr }
        } else {
            Op::load(addr)
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Pointer chasing: dependent loads walking a pseudo-random ring — `mcf`'s
/// shape. Memory-level parallelism collapses to one outstanding miss.
#[derive(Debug, Clone)]
pub struct PointerChaseWorkload {
    name: String,
    base: u64,
    working_set: u64,
    compute_per_mem: f64,
    store_frac: f64,
    credit: f64,
    cursor: u64,
    pending_store: Option<u64>,
    rng: SmallRng,
}

impl PointerChaseWorkload {
    /// Creates a pointer-chase workload over `[base, base + working_set)`.
    /// With probability `store_frac`, each visited node is also stored to
    /// (mcf updates the nodes it traverses), dirtying the chased lines and
    /// creating write traffic that competes with the latency-critical
    /// dependent loads — the situation read preemption targets.
    pub fn new(
        name: impl Into<String>,
        base: u64,
        working_set: u64,
        compute_per_mem: f64,
        store_frac: f64,
        seed: u64,
    ) -> Self {
        assert!(working_set >= 128, "need at least two lines to chase");
        PointerChaseWorkload {
            name: name.into(),
            base,
            working_set,
            compute_per_mem,
            store_frac,
            credit: 0.0,
            cursor: 0,
            pending_store: None,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl OpSource for PointerChaseWorkload {
    fn next_op(&mut self) -> Op {
        if let Some(addr) = self.pending_store.take() {
            return Op::Store { addr };
        }
        if self.credit >= 1.0 {
            self.credit -= 1.0;
            return Op::Compute;
        }
        self.credit += self.compute_per_mem;
        // A random walk visits lines in a hard-to-prefetch order while
        // staying deterministic.
        let lines = (self.working_set / 64).max(2);
        let jump = self.rng.gen_range(1..lines);
        // `cursor < working_set` and `jump * 64 < working_set`, so one
        // subtraction wraps the step.
        self.cursor += jump * 64;
        if self.cursor >= self.working_set {
            self.cursor -= self.working_set;
        }
        let addr = self.base + self.cursor;
        if self.rng.gen_bool(self.store_frac.clamp(0.0, 1.0)) {
            self.pending_store = Some(addr);
        }
        Op::dependent_load(addr)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Weighted mix of several sources: each op is drawn from one source with
/// the configured probability.
pub struct MixWorkload {
    name: String,
    sources: Vec<(f64, Box<dyn OpSource>)>,
    /// Sum of the weights, fixed at construction.
    total: f64,
    rng: SmallRng,
}

impl core::fmt::Debug for MixWorkload {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MixWorkload")
            .field("name", &self.name)
            .field("sources", &self.sources.len())
            .finish()
    }
}

impl MixWorkload {
    /// Creates a mix; weights need not sum to one (they are normalised).
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty or all weights are zero.
    pub fn new(name: impl Into<String>, sources: Vec<(f64, Box<dyn OpSource>)>, seed: u64) -> Self {
        assert!(!sources.is_empty(), "mix needs at least one source");
        assert!(
            sources.iter().any(|(w, _)| *w > 0.0),
            "mix needs a positive weight"
        );
        MixWorkload {
            name: name.into(),
            total: sources.iter().map(|(w, _)| w).sum(),
            sources,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl OpSource for MixWorkload {
    fn next_op(&mut self) -> Op {
        let mut pick = self.rng.gen_range(0.0..self.total);
        for (w, src) in &mut self.sources {
            if pick < *w {
                return src.next_op();
            }
            pick -= *w;
        }
        self.sources.last_mut().expect("non-empty").1.next_op()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_walks_sequentially() {
        let mut s = StreamWorkload::new("s", vec![0], 1 << 20, 64, 0.0, 0.0, 1);
        let addrs: Vec<u64> = (0..4).map(|_| s.next_op().addr().unwrap()).collect();
        assert_eq!(addrs, vec![0, 64, 128, 192]);
    }

    #[test]
    fn stream_interleaves_streams_round_robin() {
        let mut s = StreamWorkload::new("s", vec![0, 1 << 30], 1 << 20, 64, 0.0, 0.0, 1);
        assert_eq!(s.next_op().addr().unwrap(), 0);
        assert_eq!(s.next_op().addr().unwrap(), 1 << 30);
        assert_eq!(s.next_op().addr().unwrap(), 64);
    }

    #[test]
    fn stream_wraps_at_extent() {
        let mut s = StreamWorkload::new("s", vec![0], 128, 64, 0.0, 0.0, 1);
        let addrs: Vec<u64> = (0..3).map(|_| s.next_op().addr().unwrap()).collect();
        assert_eq!(addrs, vec![0, 64, 0]);
    }

    #[test]
    fn stream_compute_ratio() {
        let mut s = StreamWorkload::new("s", vec![0], 1 << 20, 64, 0.0, 3.0, 1);
        let ops: Vec<Op> = (0..400).map(|_| s.next_op()).collect();
        let mem = ops.iter().filter(|o| o.is_memory()).count();
        // 1 memory op per (1 + 3) ops.
        assert!((90..=110).contains(&mem), "got {mem} memory ops of 400");
    }

    #[test]
    fn stream_store_fraction() {
        let mut s = StreamWorkload::new("s", vec![0], 1 << 20, 64, 0.5, 0.0, 42);
        let stores = (0..1000)
            .map(|_| s.next_op())
            .filter(|o| matches!(o, Op::Store { .. }))
            .count();
        assert!((400..=600).contains(&stores), "got {stores} stores of 1000");
    }

    #[test]
    fn random_stays_in_working_set() {
        let mut r = RandomWorkload::new("r", 1 << 20, 1 << 16, 0.2, 0.0, 7);
        for _ in 0..1000 {
            let addr = r.next_op().addr().unwrap();
            assert!(addr >= 1 << 20);
            assert!(addr < (1 << 20) + (1 << 16));
            assert_eq!(addr % 64, 0);
        }
    }

    #[test]
    fn chase_emits_dependent_loads() {
        let mut c = PointerChaseWorkload::new("c", 0, 1 << 16, 0.0, 0.0, 3);
        for _ in 0..100 {
            match c.next_op() {
                Op::Load { dependent, .. } => assert!(dependent),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn chase_visits_many_lines() {
        let mut c = PointerChaseWorkload::new("c", 0, 1 << 16, 0.0, 0.0, 3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            seen.insert(c.next_op().addr().unwrap());
        }
        assert!(
            seen.len() > 100,
            "chase should spread: {} lines",
            seen.len()
        );
    }

    #[test]
    fn mix_draws_from_all_sources() {
        let a = Box::new(StreamWorkload::new("a", vec![0], 1 << 20, 64, 0.0, 0.0, 1));
        let b = Box::new(RandomWorkload::new("b", 1 << 40, 1 << 16, 0.0, 0.0, 2));
        let mut m = MixWorkload::new("m", vec![(0.5, a as _), (0.5, b as _)], 3);
        let (mut low, mut high) = (0, 0);
        for _ in 0..500 {
            let addr = m.next_op().addr().unwrap();
            if addr < 1 << 30 {
                low += 1;
            } else {
                high += 1;
            }
        }
        assert!(low > 100 && high > 100, "low={low} high={high}");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let collect = |seed| {
            let mut r = RandomWorkload::new("r", 0, 1 << 20, 0.3, 1.0, seed);
            (0..100).map(|_| r.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(collect(9), collect(9));
        assert_ne!(collect(9), collect(10));
    }
}
