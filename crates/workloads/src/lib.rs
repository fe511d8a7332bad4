//! # burst-workloads
//!
//! Instruction-stream generators for the burst scheduling reproduction:
//! generic synthetic patterns (streaming, random, pointer chase, mixes) and
//! surrogates for the 16 SPEC CPU2000 benchmarks the paper evaluates.
//!
//! The real SPEC traces are not redistributable; each surrogate reproduces
//! the memory-stream *traits* that access reordering mechanisms respond to
//! (row locality, read/write mix, memory intensity, memory-level
//! parallelism). See `DESIGN.md` at the repository root.
//!
//! ## Example
//!
//! ```
//! use burst_workloads::{OpSource, SpecBenchmark, StreamWorkload};
//!
//! // A paper benchmark surrogate:
//! let mut swim = SpecBenchmark::Swim.workload(42);
//! let _op = swim.next_op();
//!
//! // Or a custom stream:
//! let mut custom = StreamWorkload::new("mine", vec![0, 1 << 30], 1 << 20, 64, 0.25, 2.0, 7);
//! assert!(custom.next_op().is_memory() || true);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::allow_attributes_without_reason)]

mod spec;
mod synthetic;
mod trace;
mod tracefile;

pub use spec::{SpecBenchmark, SurrogateParams};
pub use synthetic::{MixWorkload, PointerChaseWorkload, RandomWorkload, StreamWorkload};
pub use trace::{CountingSource, Op, OpSource, ReplaySource};
pub use tracefile::{load_trace, parse_trace, ParseTraceError};
