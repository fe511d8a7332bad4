//! # burst-core
//!
//! Memory-access reordering mechanisms from *"A Burst Scheduling Access
//! Reordering Mechanism"* (Shao & Davis, HPCA 2007): the proposed burst
//! scheduler with read preemption, write piggybacking and the static
//! threshold, plus the three mechanisms it is compared against
//! (`BkInOrder`, `RowHit`, Intel's patented out-of-order scheduler).
//!
//! A scheduler owns the controller-side queues (access pool, per-bank read
//! and write queues, bursts) and drives a [`burst_dram::Dram`] device one
//! transaction per channel per cycle.
//!
//! ## Example
//!
//! ```
//! use burst_core::{Access, AccessId, AccessKind, AccessScheduler, CtrlConfig, Mechanism};
//! use burst_dram::{AddressMapping, Dram, DramConfig, PhysAddr};
//!
//! let cfg = DramConfig::baseline();
//! let mut dram = Dram::new(cfg, AddressMapping::PageInterleaving);
//! let mut sched = Mechanism::BurstTh(52).build(CtrlConfig::default(), cfg.geometry);
//!
//! let mut done = Vec::new();
//! for i in 0..8u64 {
//!     let addr = PhysAddr::new(i * 64);
//!     let a = Access::new(AccessId::new(i), AccessKind::Read, addr, dram.decode(addr), 0);
//!     sched.enqueue(a, 0, &mut done);
//! }
//! for now in 0..300 {
//!     sched.tick(&mut dram, now, &mut done);
//! }
//! assert_eq!(done.len(), 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Determinism and suppression discipline (DESIGN.md §15); the banned
// types and methods are listed in this crate's `clippy.toml`.
#![deny(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    clippy::float_arithmetic,
    clippy::allow_attributes_without_reason
)]

mod access;
pub mod engine;
mod faults;
mod mechanisms;
mod stats;
pub mod txsched;
mod watchdog;

pub use access::{Access, AccessId, AccessKind, Completion, EnqueueOutcome, Outstanding};
pub use faults::{splitmix64, FaultConfig, TransientFaultPlan};
pub use mechanisms::{
    AccessScheduler, AdaptiveHistoryScheduler, BkInOrderScheduler, BurstOptions, BurstScheduler,
    IntelScheduler, Mechanism, RowHitScheduler,
};
pub use stats::{CtrlStats, LatencyHistogram, OccupancyHistogram};
pub use watchdog::{StallDiagnostic, WatchdogConfig};

use burst_dram::RowPolicy;

/// Memory-controller configuration (paper Table 3: a 256-entry access pool
/// holding at most 64 writes, open-page row policy), plus the robustness
/// layer's knobs (watchdog thresholds, optional fault injection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CtrlConfig {
    /// Total outstanding accesses the controller holds (reads + writes).
    pub pool_capacity: usize,
    /// Maximum queued writes (the write queue / write data pool size).
    pub write_capacity: usize,
    /// Static row-management policy.
    pub row_policy: RowPolicy,
    /// Starvation-watchdog thresholds (defaults are paper-neutral).
    pub watchdog: WatchdogConfig,
    /// Deterministic fault injection; `None` disables it (the default).
    pub faults: Option<FaultConfig>,
}

impl CtrlConfig {
    /// The paper's baseline: pool of 256 with at most 64 writes, open page,
    /// watchdog at its paper-neutral defaults, no fault injection.
    pub fn baseline() -> Self {
        CtrlConfig {
            pool_capacity: 256,
            write_capacity: 64,
            row_policy: RowPolicy::OpenPage,
            watchdog: WatchdogConfig::baseline(),
            faults: None,
        }
    }
}

impl Default for CtrlConfig {
    fn default() -> Self {
        CtrlConfig::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_config_matches_table3() {
        let c = CtrlConfig::baseline();
        assert_eq!(c.pool_capacity, 256);
        assert_eq!(c.write_capacity, 64);
        assert_eq!(c.row_policy, RowPolicy::OpenPage);
        assert_eq!(c.watchdog, WatchdogConfig::baseline());
        assert_eq!(c.faults, None, "fault injection is opt-in");
        assert_eq!(CtrlConfig::default(), c);
    }
}
