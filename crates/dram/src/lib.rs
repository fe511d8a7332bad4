//! # burst-dram
//!
//! A cycle-accurate DDR/DDR2 SDRAM device, bus and timing model — the
//! simulation substrate for the burst scheduling access reordering
//! reproduction (Shao & Davis, HPCA 2007).
//!
//! Modern SDRAM stores data in a 3-D structure (bank, row, column). One
//! *access* — a read or write of one cache line issued by the lowest-level
//! cache — requires up to three *commands* (bank precharge, row activate,
//! column access) plus the data transfer, depending on the bank's row state:
//!
//! | Row state | Commands | Idle-bus latency (Open Page) |
//! |---|---|---|
//! | hit | column | `tCL` |
//! | empty | activate + column | `tRCD + tCL` |
//! | conflict | precharge + activate + column | `tRP + tRCD + tCL` |
//!
//! The model enforces JEDEC bank timing (`tRCD`, `tRP`, `tRAS`, `tRTP`,
//! `tWR`), rank timing (`tRRD`, `tFAW`, `tWTR`), data-bus occupancy with
//! rank-to-rank (`tRTRS`) and direction-turnaround bubbles, one command per
//! cycle on the address bus, and periodic refresh (`tREFI`/`tRFC`).
//!
//! ## Example
//!
//! ```
//! use burst_dram::{Channel, Command, DramConfig, Loc, RowState};
//!
//! let cfg = DramConfig::baseline(); // DDR2 PC2-6400 5-5-5, paper Table 3
//! let mut ch = Channel::new(cfg);
//! let loc = Loc::new(0, 0, 0, 42, 0);
//!
//! assert_eq!(ch.row_state(loc), RowState::Empty);
//! ch.issue(&Command::Activate(loc), 0);
//! let done = ch.issue(&Command::read(loc), cfg.timing.t_rcd);
//! assert_eq!(done.data_start, cfg.timing.t_rcd + cfg.timing.t_cl);
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

mod addr;
mod bank;
mod channel;
mod checker;
mod command;
mod config;
mod device;
mod energy;
mod policy;
mod rank;
mod stats;

pub use addr::{AddressMapper, AddressMapping, PhysAddr};
pub use bank::Bank;
pub use channel::{Channel, IssueEvent};
pub use checker::{ProtocolChecker, Violation, ViolationKind};
pub use command::{Command, Dir, Issued};
pub use config::{DramConfig, Geometry, TimingParams};
pub use device::Dram;
pub use energy::{EnergyBreakdown, EnergyParams};
pub use policy::RowPolicy;
pub use rank::Rank;
pub use stats::BusStats;

/// A timestamp or duration in memory-controller clock cycles.
///
/// All latencies in the paper's figures are reported in these "SDRAM
/// cycles" (400 MHz for the baseline DDR2-800 device).
pub type Cycle = u64;

/// A fully decoded device location: channel, rank, bank, row and column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Loc {
    /// Channel index.
    pub channel: u8,
    /// Rank index within the channel.
    pub rank: u8,
    /// Bank index within the rank.
    pub bank: u8,
    /// Row index within the bank.
    pub row: u32,
    /// Column index within the row (in bus-width units).
    pub col: u32,
}

impl Loc {
    /// Creates a location from its five coordinates.
    pub fn new(channel: u8, rank: u8, bank: u8, row: u32, col: u32) -> Self {
        Loc {
            channel,
            rank,
            bank,
            row,
            col,
        }
    }

    /// `true` if `other` names the same bank (channel, rank and bank match).
    pub fn same_bank(&self, other: &Loc) -> bool {
        self.channel == other.channel && self.rank == other.rank && self.bank == other.bank
    }

    /// `true` if `other` names the same row of the same bank.
    pub fn same_row(&self, other: &Loc) -> bool {
        self.same_bank(other) && self.row == other.row
    }
}

impl core::fmt::Display for Loc {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "ch{}/rk{}/bk{}/row{}/col{}",
            self.channel, self.rank, self.bank, self.row, self.col
        )
    }
}

/// Classification of an access against the target bank's state
/// (paper Section 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowState {
    /// Bank open at the same row as the access.
    Hit,
    /// Bank precharged (closed).
    Empty,
    /// Bank open at a different row.
    Conflict,
}

impl core::fmt::Display for RowState {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RowState::Hit => f.write_str("hit"),
            RowState::Empty => f.write_str("empty"),
            RowState::Conflict => f.write_str("conflict"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loc_same_bank_and_row() {
        let a = Loc::new(0, 1, 2, 10, 0);
        let b = Loc::new(0, 1, 2, 10, 5);
        let c = Loc::new(0, 1, 2, 11, 0);
        let d = Loc::new(0, 1, 3, 10, 0);
        assert!(a.same_bank(&b) && a.same_row(&b));
        assert!(a.same_bank(&c) && !a.same_row(&c));
        assert!(!a.same_bank(&d) && !a.same_row(&d));
    }

    #[test]
    fn display_impls_are_nonempty() {
        assert!(!Loc::default().to_string().is_empty());
        assert!(!RowState::Hit.to_string().is_empty());
    }
}
