//! Memory accesses as seen by the controller.
//!
//! Throughout the paper (and this crate) an *access* is a read or write of
//! one cache line issued by the lowest-level cache; executing it may require
//! several SDRAM transactions depending on device state.

use burst_dram::{Cycle, Loc, PhysAddr};

/// Unique, monotonically increasing identifier of an access.
///
/// Ordering follows issue order, so comparing ids implements the paper's
/// "oldest first" tie-breaks deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AccessId(u64);

impl AccessId {
    /// Wraps a raw id.
    pub fn new(id: u64) -> Self {
        AccessId(id)
    }

    /// The raw id value.
    pub fn value(self) -> u64 {
        self.0
    }
}

impl core::fmt::Display for AccessId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Whether an access reads or writes main memory.
///
/// The derived order (`Read < Write`) only serves as a deterministic
/// tie-break when selecting among equally old accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessKind {
    /// A cache-line fill; the CPU blocks dependants until data returns.
    Read,
    /// A dirty writeback; posted — the CPU never waits for it.
    Write,
}

impl AccessKind {
    /// `true` for [`AccessKind::Read`].
    pub fn is_read(self) -> bool {
        matches!(self, AccessKind::Read)
    }

    /// The data-bus direction this access uses.
    pub fn dir(self) -> burst_dram::Dir {
        match self {
            AccessKind::Read => burst_dram::Dir::Read,
            AccessKind::Write => burst_dram::Dir::Write,
        }
    }
}

impl core::fmt::Display for AccessKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AccessKind::Read => f.write_str("read"),
            AccessKind::Write => f.write_str("write"),
        }
    }
}

/// One outstanding main-memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Access {
    /// Unique id, monotone in arrival order.
    pub id: AccessId,
    /// Read or write.
    pub kind: AccessKind,
    /// Cache-line-aligned physical address.
    pub addr: PhysAddr,
    /// Decoded device location.
    pub loc: Loc,
    /// Memory cycle the access entered the controller.
    pub arrival: Cycle,
    /// Criticality hint from the CPU (paper Section 7: with an integrated
    /// controller, "more instruction level information, such as the number
    /// of dependent instructions, is available"). Demand loads with
    /// blocked dependants are critical; store-allocate fills are not.
    /// Only [`crate::Mechanism::BurstCrit`] consults it.
    pub critical: bool,
}

impl Access {
    /// Creates an access record (non-critical by default).
    pub fn new(id: AccessId, kind: AccessKind, addr: PhysAddr, loc: Loc, arrival: Cycle) -> Self {
        Access {
            id,
            kind,
            addr,
            loc,
            arrival,
            critical: false,
        }
    }

    /// Marks the access as latency-critical.
    pub fn with_critical(mut self, critical: bool) -> Self {
        self.critical = critical;
        self
    }

    /// Serialises the access for a checkpoint.
    pub fn save_snap(&self, w: &mut burst_snap::SnapWriter) {
        let Self {
            id,
            kind,
            addr,
            loc,
            arrival,
            critical,
        } = self;
        w.u64(id.value());
        w.u8(match kind {
            AccessKind::Read => 0,
            AccessKind::Write => 1,
        });
        w.u64(addr.value());
        w.u8(loc.channel);
        w.u8(loc.rank);
        w.u8(loc.bank);
        w.u32(loc.row);
        w.u32(loc.col);
        w.u64(*arrival);
        w.bool(*critical);
    }

    /// Reconstructs an access written by [`Access::save_snap`].
    pub fn load_snap(r: &mut burst_snap::SnapReader) -> Result<Self, burst_snap::SnapError> {
        let id = AccessId::new(r.u64()?);
        let kind = match r.u8()? {
            0 => AccessKind::Read,
            1 => AccessKind::Write,
            _ => return Err(burst_snap::SnapError::Corrupt("bad access kind")),
        };
        let addr = PhysAddr::new(r.u64()?);
        let loc = Loc::new(r.u8()?, r.u8()?, r.u8()?, r.u32()?, r.u32()?);
        let arrival = r.u64()?;
        let critical = r.bool()?;
        Ok(Access {
            id,
            kind,
            addr,
            loc,
            arrival,
            critical,
        })
    }
}

/// Result of offering an access to a scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnqueueOutcome {
    /// The access was queued and will complete later.
    Queued,
    /// A read hit in the write queue; the latest write's data was forwarded
    /// and the read completes immediately (paper Figure 4, lines 2–4).
    Forwarded,
    /// The controller refused the access: the access pool is full or the
    /// write queue is saturated (the caller ignored
    /// [`crate::AccessScheduler::can_accept`]). The access was *not*
    /// recorded; the caller must hold it and retry later.
    Rejected,
}

/// A finished access reported by the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Completion {
    /// The access that finished.
    pub id: AccessId,
    /// Its kind.
    pub kind: AccessKind,
    /// Cycle its data transfer ends (reads: when data is available to the
    /// CPU; writes: when the write has drained to the device).
    pub done_at: Cycle,
    /// Latency in memory cycles from controller arrival to `done_at`.
    pub latency: Cycle,
    /// Whether the read was satisfied by write-queue forwarding.
    pub forwarded: bool,
}

/// Counts of outstanding accesses inside a scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Outstanding {
    /// Reads queued or ongoing.
    pub reads: usize,
    /// Writes queued or ongoing.
    pub writes: usize,
}

impl Outstanding {
    /// Total outstanding accesses.
    pub fn total(&self) -> usize {
        self.reads + self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_id_orders_by_issue() {
        assert!(AccessId::new(1) < AccessId::new(2));
        assert_eq!(AccessId::new(7).value(), 7);
        assert_eq!(AccessId::new(7).to_string(), "#7");
    }

    #[test]
    fn kind_predicates() {
        assert!(AccessKind::Read.is_read());
        assert!(!AccessKind::Write.is_read());
        assert!(AccessKind::Read.dir().is_read());
        assert!(!AccessKind::Write.dir().is_read());
    }

    #[test]
    fn outstanding_total() {
        let o = Outstanding {
            reads: 3,
            writes: 4,
        };
        assert_eq!(o.total(), 7);
    }
}
