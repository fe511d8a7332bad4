//! # burst-sim
//!
//! Full-system simulation harness for the burst scheduling reproduction:
//! wires the [`burst_cpu`] core model, a [`burst_core`] access scheduler and
//! the [`burst_dram`] device together, collects statistics and computes
//! the paper's tables and figures (see [`experiments`]): every figure is
//! one supervised benchmark x mechanism grid read by one row method.
//!
//! ## Example
//!
//! ```
//! use burst_sim::{simulate, RunLength, SystemConfig};
//! use burst_core::Mechanism;
//! use burst_workloads::SpecBenchmark;
//!
//! let base = SystemConfig::baseline();
//! let report = simulate(
//!     &base.with_mechanism(Mechanism::BurstTh(52)),
//!     SpecBenchmark::Swim.workload(42),
//!     RunLength::Instructions(5_000),
//! );
//! assert!(report.reads() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::allow_attributes_without_reason)]
#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "report, profiling and persistence code may use floats, hash maps, the wall clock and \
              std::fs; timing-observable and chaos-plane modules deny these lints again (see clippy.toml)"
)]

pub mod checkpoint;
pub mod executor;
pub mod experiments;
pub mod export;
pub mod journal;
pub mod oracle;
pub mod profile;
pub mod report;
pub mod simio;
pub mod supervisor;
mod system;
pub mod waterfall;

pub use checkpoint::{
    try_simulate_checkpointed, Checkpoint, CheckpointError, CheckpointPolicy, CheckpointedRunError,
};
pub use executor::{default_jobs, map_parallel};
pub use experiments::{cell_key, CellFailure, CheckpointPlan, Supervised};
pub use journal::{Journal, JournalEntry, JournalError, QuarantineEntry};
pub use oracle::{
    oracle_simulate, DivergenceError, OracleConfig, OracleError, PerturbKind, Perturbation,
};
pub use profile::PhaseProfile;
pub use simio::{real_io, ChaosIo, IoFaultKind, IoSite, RealIo, SimIo};
pub use supervisor::{
    supervise, CellError, CellOutcome, FailureKind, SupervisorConfig, TransientFaultPlan,
};
pub use system::{
    simulate, try_simulate, ChunkOutcome, ComponentHashes, Engine, EngineStats, RobustnessReport,
    RunCursor, RunError, RunLength, SimReport, Snapshot, System, SystemConfig, ValidateConfigError,
};
