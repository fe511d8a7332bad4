//! # burst-scheduling
//!
//! Umbrella crate for the reproduction of *"A Burst Scheduling Access
//! Reordering Mechanism"* (Shao & Davis, HPCA 2007). Re-exports the public
//! API of every workspace crate so examples and downstream users need a
//! single dependency:
//!
//! * [`dram`] — cycle-accurate DDR/DDR2 device, bus and timing model.
//! * [`ctrl`] — the memory controller and the access reordering mechanisms
//!   (burst scheduling plus the BkInOrder / RowHit / Intel baselines).
//! * [`cpu`] — out-of-order CPU limit model and cache hierarchy.
//! * [`workloads`] — SPEC CPU2000 surrogate workloads and generic pattern
//!   generators.
//! * [`sim`] — full-system simulator, statistics and the supervised
//!   benchmark x mechanism grid every figure is read from.
//!
//! ## Quickstart
//!
//! ```
//! use burst_scheduling::prelude::*;
//!
//! let config = SystemConfig::baseline().with_mechanism(Mechanism::BurstTh(52));
//! let workload = SpecBenchmark::Swim.workload(42);
//! let report = simulate(&config, workload, RunLength::Instructions(20_000));
//! assert!(report.reads() > 0);
//! ```

pub use burst_core as ctrl;
pub use burst_cpu as cpu;
pub use burst_dram as dram;
pub use burst_sim as sim;
pub use burst_workloads as workloads;

/// Most-used items in one import.
pub mod prelude {
    pub use burst_core::{AccessScheduler, CtrlConfig, FaultConfig, Mechanism, WatchdogConfig};
    pub use burst_dram::{AddressMapping, DramConfig, RowPolicy};
    pub use burst_sim::{simulate, RobustnessReport, RunError, RunLength, SimReport, SystemConfig};
    pub use burst_workloads::SpecBenchmark;
}
