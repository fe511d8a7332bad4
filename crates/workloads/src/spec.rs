//! Synthetic surrogates for the 16 SPEC CPU2000 benchmarks the paper
//! simulates (Figure 10's x-axis).
//!
//! The original evaluation runs pre-compiled Alpha SPEC2000 binaries in M5;
//! those traces are not redistributable, so each benchmark is replaced by a
//! parameterised synthetic workload reproducing the *memory-stream traits*
//! the mechanisms are sensitive to: memory intensity (compute per memory
//! op), store fraction, row locality (streaming vs random), working-set
//! size and memory-level parallelism (pointer-chase fraction). See
//! `DESIGN.md` for the substitution rationale.

use crate::{MixWorkload, OpSource, PointerChaseWorkload, RandomWorkload, StreamWorkload};

/// The 16 SPEC CPU2000 benchmarks of the paper's Figure 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs, reason = "variants are the SPEC CPU2000 benchmark names")]
pub enum SpecBenchmark {
    Gzip,
    Gcc,
    Mcf,
    Parser,
    Perlbmk,
    Gap,
    Bzip2,
    Wupwise,
    Swim,
    Mgrid,
    Applu,
    Mesa,
    Art,
    Facerec,
    Lucas,
    Apsi,
}

/// Traits of a surrogate workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurrogateParams {
    /// Average compute instructions per memory operation (memory intensity:
    /// lower = more intensive).
    pub compute_per_mem: f64,
    /// Fraction of memory ops that are stores.
    pub store_frac: f64,
    /// Weight of the streaming (high row locality) component.
    pub stream_weight: f64,
    /// Weight of the uniform random component.
    pub random_weight: f64,
    /// Weight of the pointer-chase (dependent load) component.
    pub chase_weight: f64,
    /// Number of concurrent streams in the streaming component.
    pub n_streams: usize,
    /// Total working-set size in bytes (must exceed the 2 MB L2 to generate
    /// main-memory traffic).
    pub working_set: u64,
    /// Stream stride in bytes (64 = one cache line per step).
    pub stride: u64,
}

impl SpecBenchmark {
    /// All 16 benchmarks in the paper's Figure 10 order.
    pub fn all16() -> [SpecBenchmark; 16] {
        use SpecBenchmark::*;
        [
            Gzip, Gcc, Mcf, Parser, Perlbmk, Gap, Bzip2, Wupwise, Swim, Mgrid, Applu, Mesa, Art,
            Facerec, Lucas, Apsi,
        ]
    }

    /// The benchmark's lowercase SPEC name.
    pub fn name(&self) -> &'static str {
        match self {
            SpecBenchmark::Gzip => "gzip",
            SpecBenchmark::Gcc => "gcc",
            SpecBenchmark::Mcf => "mcf",
            SpecBenchmark::Parser => "parser",
            SpecBenchmark::Perlbmk => "perlbmk",
            SpecBenchmark::Gap => "gap",
            SpecBenchmark::Bzip2 => "bzip2",
            SpecBenchmark::Wupwise => "wupwise",
            SpecBenchmark::Swim => "swim",
            SpecBenchmark::Mgrid => "mgrid",
            SpecBenchmark::Applu => "applu",
            SpecBenchmark::Mesa => "mesa",
            SpecBenchmark::Art => "art",
            SpecBenchmark::Facerec => "facerec",
            SpecBenchmark::Lucas => "lucas",
            SpecBenchmark::Apsi => "apsi",
        }
    }

    /// Parses a lowercase SPEC name.
    pub fn from_name(name: &str) -> Option<SpecBenchmark> {
        Self::all16().into_iter().find(|b| b.name() == name)
    }

    /// The surrogate traits for this benchmark. Values encode the
    /// qualitative classes the paper relies on: `swim`/`mgrid`/`applu`/
    /// `lucas` stream with heavy writebacks (write piggybacking helps);
    /// `mcf`/`parser`/`perlbmk`/`facerec` have latency-critical dependent
    /// or scattered reads (read preemption helps, Section 5.3).
    pub fn params(&self) -> SurrogateParams {
        let mb = 1u64 << 20;
        let p = |cpm: f64, store: f64, stream: f64, random: f64, chase: f64, n: usize, ws: u64| {
            SurrogateParams {
                compute_per_mem: cpm,
                store_frac: store,
                stream_weight: stream,
                random_weight: random,
                chase_weight: chase,
                n_streams: n,
                working_set: ws,
                stride: 64,
            }
        };
        match self {
            SpecBenchmark::Gzip => p(3.0, 0.30, 0.80, 0.20, 0.00, 5, 16 * mb),
            SpecBenchmark::Gcc => p(2.5, 0.40, 0.60, 0.30, 0.10, 10, 24 * mb),
            SpecBenchmark::Mcf => p(1.5, 0.25, 0.10, 0.10, 0.80, 3, 96 * mb),
            SpecBenchmark::Parser => p(2.0, 0.25, 0.30, 0.30, 0.40, 5, 32 * mb),
            SpecBenchmark::Perlbmk => p(2.5, 0.30, 0.35, 0.35, 0.30, 6, 24 * mb),
            SpecBenchmark::Gap => p(2.0, 0.25, 0.55, 0.25, 0.20, 6, 32 * mb),
            SpecBenchmark::Bzip2 => p(2.5, 0.30, 0.70, 0.25, 0.05, 5, 24 * mb),
            SpecBenchmark::Wupwise => p(1.8, 0.25, 0.85, 0.15, 0.00, 8, 40 * mb),
            SpecBenchmark::Swim => p(1.0, 0.35, 0.95, 0.05, 0.00, 8, 96 * mb),
            SpecBenchmark::Mgrid => p(1.2, 0.30, 0.92, 0.08, 0.00, 8, 64 * mb),
            SpecBenchmark::Applu => p(1.2, 0.30, 0.90, 0.10, 0.00, 9, 64 * mb),
            SpecBenchmark::Mesa => p(3.0, 0.35, 0.70, 0.30, 0.00, 5, 12 * mb),
            SpecBenchmark::Art => p(1.0, 0.12, 0.85, 0.05, 0.10, 6, 8 * mb),
            SpecBenchmark::Facerec => p(1.4, 0.18, 0.70, 0.10, 0.20, 5, 24 * mb),
            SpecBenchmark::Lucas => p(1.0, 0.42, 0.95, 0.05, 0.00, 8, 96 * mb),
            SpecBenchmark::Apsi => p(1.8, 0.30, 0.80, 0.20, 0.00, 7, 32 * mb),
        }
    }

    /// Builds the surrogate instruction stream, deterministic for `seed`.
    ///
    /// # Examples
    ///
    /// ```
    /// use burst_workloads::{OpSource, SpecBenchmark};
    ///
    /// let mut w = SpecBenchmark::Swim.workload(42);
    /// let op = w.next_op();
    /// let _ = op.is_memory();
    /// assert_eq!(w.name(), "swim");
    /// ```
    pub fn workload(&self, seed: u64) -> MixWorkload {
        let params = self.params();
        let salt = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(*self as u64);
        // Spread the benchmark's regions over the 4 GB physical space using
        // large prime-ish offsets so streams land on distinct banks.
        let region = |i: u64| -> u64 { (0x0400_0000 + i * 0x0B40_D000) % (3u64 << 30) };
        let mut sources: Vec<(f64, Box<dyn OpSource>)> = Vec::new();
        if params.stream_weight > 0.0 {
            let per_stream = (params.working_set / params.n_streams as u64).max(64 * 1024);
            let bases: Vec<u64> = (0..params.n_streams as u64).map(region).collect();
            sources.push((
                params.stream_weight,
                Box::new(
                    StreamWorkload::new(
                        format!("{}-stream", self.name()),
                        bases,
                        per_stream,
                        params.stride,
                        params.store_frac,
                        params.compute_per_mem,
                        salt,
                    )
                    // Physical page allocation scatters pages over banks,
                    // creating the inter-stream row conflicts reordering
                    // exploits (8 KB = one DRAM row of the baseline device).
                    .with_page_shuffle(8192),
                ),
            ));
        }
        if params.random_weight > 0.0 {
            sources.push((
                params.random_weight,
                Box::new(RandomWorkload::new(
                    format!("{}-random", self.name()),
                    region(17),
                    params.working_set,
                    params.store_frac,
                    params.compute_per_mem,
                    salt ^ 0x5555,
                )),
            ));
        }
        if params.chase_weight > 0.0 {
            sources.push((
                params.chase_weight,
                Box::new(PointerChaseWorkload::new(
                    format!("{}-chase", self.name()),
                    region(23),
                    params.working_set,
                    params.compute_per_mem,
                    params.store_frac,
                    salt ^ 0xaaaa,
                )),
            ));
        }
        MixWorkload::new(self.name(), sources, salt ^ 0x1234)
    }
}

impl core::fmt::Display for SpecBenchmark {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Op;

    #[test]
    fn sixteen_benchmarks_with_unique_names() {
        let all = SpecBenchmark::all16();
        assert_eq!(all.len(), 16);
        let names: std::collections::HashSet<&str> = all.iter().map(|b| b.name()).collect();
        assert_eq!(names.len(), 16);
    }

    #[test]
    fn from_name_round_trips() {
        for b in SpecBenchmark::all16() {
            assert_eq!(SpecBenchmark::from_name(b.name()), Some(b));
        }
        assert_eq!(SpecBenchmark::from_name("nonesuch"), None);
    }

    #[test]
    fn workloads_build_and_produce_memory_ops() {
        for b in SpecBenchmark::all16() {
            let mut w = b.workload(1);
            let mem = (0..2000).map(|_| w.next_op()).filter(Op::is_memory).count();
            assert!(mem > 100, "{b}: only {mem} memory ops in 2000");
        }
    }

    #[test]
    fn mcf_is_chase_dominated() {
        let mut w = SpecBenchmark::Mcf.workload(1);
        let dependent = (0..2000)
            .map(|_| w.next_op())
            .filter(|o| {
                matches!(
                    o,
                    Op::Load {
                        dependent: true,
                        ..
                    }
                )
            })
            .count();
        let memory = {
            let mut w2 = SpecBenchmark::Mcf.workload(1);
            (0..2000)
                .map(|_| w2.next_op())
                .filter(Op::is_memory)
                .count()
        };
        assert!(
            dependent * 2 > memory,
            "mcf should be chase-dominated: {dependent}/{memory}"
        );
    }

    #[test]
    fn swim_is_store_heavy_and_streaming() {
        let mut w = SpecBenchmark::Swim.workload(1);
        let ops: Vec<Op> = (0..4000).map(|_| w.next_op()).collect();
        let mem = ops.iter().filter(|o| o.is_memory()).count();
        let stores = ops.iter().filter(|o| matches!(o, Op::Store { .. })).count();
        let frac = stores as f64 / mem as f64;
        assert!(
            (0.25..=0.45).contains(&frac),
            "swim store fraction {frac:.2} should be ~0.35"
        );
    }

    #[test]
    fn memory_intensity_ordering() {
        // swim must be far more memory-intensive than gzip.
        let intensity = |b: SpecBenchmark| {
            let mut w = b.workload(1);
            (0..4000).map(|_| w.next_op()).filter(Op::is_memory).count()
        };
        assert!(intensity(SpecBenchmark::Swim) > intensity(SpecBenchmark::Gzip) * 3 / 2);
    }

    #[test]
    fn deterministic_per_seed() {
        let sample = |seed| {
            let mut w = SpecBenchmark::Gcc.workload(seed);
            (0..200).map(|_| w.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(sample(5), sample(5));
        assert_ne!(sample(5), sample(6));
    }

    #[test]
    fn addresses_fit_physical_memory() {
        for b in SpecBenchmark::all16() {
            let mut w = b.workload(2);
            for _ in 0..3000 {
                if let Some(a) = w.next_op().addr() {
                    assert!(a < 4u64 << 30, "{b}: address {a:#x} beyond 4 GB");
                }
            }
        }
    }
}
