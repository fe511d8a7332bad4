//! # burst-cpu
//!
//! The CPU-side substrate of the burst scheduling reproduction: a
//! set-associative write-back cache hierarchy (128 KB 2-way L1D, 2 MB
//! 16-way L2, 64 B lines) and an out-of-order core *limit model* (196-entry
//! ROB, 8-wide, 32-entry LSQ) matching the paper's baseline machine
//! (Table 3).
//!
//! The limit model reproduces the CPU/memory coupling the paper's
//! evaluation depends on — see `DESIGN.md` for the substitution rationale:
//!
//! * loads that miss L2 block in-order retirement until main memory
//!   returns their line (read latency is on the critical path);
//! * stores are posted, but dirty writebacks become main-memory writes;
//! * at most `lsq_size` misses are outstanding (bounded MLP, the 0-35
//!   x-axis of the paper's Figure 8a);
//! * a saturated memory controller back-pressures dispatch (the CPU
//!   pipeline stall that write piggybacking exists to avoid).
//!
//! ## Example
//!
//! ```
//! use burst_cpu::{Cpu, CpuConfig};
//! use burst_workloads::{Op, ReplaySource};
//!
//! let mut cpu = Cpu::new(CpuConfig::baseline());
//! let mut src = ReplaySource::new("demo", vec![Op::load(0x4000), Op::Compute]);
//! cpu.cycle(&mut src);
//! // The cold load missed: main memory is asked for the line.
//! assert_eq!(cpu.pop_read_request(), Some(0x4000));
//! cpu.complete_read(0x4000, cpu.now());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Determinism and suppression discipline (DESIGN.md §15); the banned
// types and methods are listed in this crate's `clippy.toml`.
#![deny(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    clippy::float_arithmetic,
    clippy::allow_attributes_without_reason,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]

mod cache;
mod core;
mod hierarchy;

pub use crate::core::{Cpu, CpuConfig, CpuStats};
pub use cache::{Cache, CacheConfig, CacheStats, Eviction};
pub use hierarchy::{Hierarchy, HierarchyConfig, MemAccessResult};
