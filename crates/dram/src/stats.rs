//! Bus-utilisation and command counters (paper Figure 9b).

#![expect(
    clippy::disallowed_types,
    clippy::float_arithmetic,
    reason = "report-only bus utilisation metrics derived from integer cycle counters"
)]

use crate::Cycle;

/// Counters for one channel's busses and command mix.
///
/// Address-bus utilisation is the fraction of cycles carrying a command
/// (commands occupy one cycle each); data-bus utilisation is the fraction of
/// cycles the data bus is transferring — the quantity Figure 9(b) plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BusStats {
    /// Cycles on which a command was driven on the address/command bus.
    pub cmd_cycles: u64,
    /// Cycles on which the data bus was transferring.
    pub data_cycles: u64,
    /// Column read commands issued.
    pub reads: u64,
    /// Column write commands issued.
    pub writes: u64,
    /// Activates issued.
    pub activates: u64,
    /// Precharges issued (explicit; auto-precharges count separately).
    pub precharges: u64,
    /// Auto-precharges implied by column commands.
    pub auto_precharges: u64,
    /// Refresh commands issued.
    pub refreshes: u64,
}

impl BusStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        BusStats::default()
    }

    /// Address-bus utilisation over `elapsed` cycles, in `[0, 1]`.
    pub fn addr_bus_utilization(&self, elapsed: Cycle) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.cmd_cycles as f64 / elapsed as f64
        }
    }

    /// Data-bus utilisation over `elapsed` cycles, in `[0, 1]`.
    pub fn data_bus_utilization(&self, elapsed: Cycle) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.data_cycles as f64 / elapsed as f64
        }
    }

    /// Effective bandwidth in bytes per cycle given the bus width in bytes
    /// (DDR: two beats per cycle).
    pub fn effective_bandwidth_bytes_per_cycle(&self, elapsed: Cycle, bus_bytes: u32) -> f64 {
        self.data_bus_utilization(elapsed) * 2.0 * f64::from(bus_bytes)
    }

    /// Serialises the counters for a checkpoint.
    pub fn save_snap(&self, w: &mut burst_snap::SnapWriter) {
        let Self {
            cmd_cycles,
            data_cycles,
            reads,
            writes,
            activates,
            precharges,
            auto_precharges,
            refreshes,
        } = self;
        w.u64(*cmd_cycles);
        w.u64(*data_cycles);
        w.u64(*reads);
        w.u64(*writes);
        w.u64(*activates);
        w.u64(*precharges);
        w.u64(*auto_precharges);
        w.u64(*refreshes);
    }

    /// Restores counters written by [`BusStats::save_snap`].
    pub fn load_snap(
        &mut self,
        r: &mut burst_snap::SnapReader,
    ) -> Result<(), burst_snap::SnapError> {
        let Self {
            cmd_cycles,
            data_cycles,
            reads,
            writes,
            activates,
            precharges,
            auto_precharges,
            refreshes,
        } = self;
        *cmd_cycles = r.u64()?;
        *data_cycles = r.u64()?;
        *reads = r.u64()?;
        *writes = r.u64()?;
        *activates = r.u64()?;
        *precharges = r.u64()?;
        *auto_precharges = r.u64()?;
        *refreshes = r.u64()?;
        Ok(())
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &BusStats) {
        self.cmd_cycles += other.cmd_cycles;
        self.data_cycles += other.data_cycles;
        self.reads += other.reads;
        self.writes += other.writes;
        self.activates += other.activates;
        self.precharges += other.precharges;
        self.auto_precharges += other.auto_precharges;
        self.refreshes += other.refreshes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_fractions() {
        let s = BusStats {
            cmd_cycles: 25,
            data_cycles: 40,
            ..BusStats::default()
        };
        assert!((s.addr_bus_utilization(100) - 0.25).abs() < 1e-12);
        assert!((s.data_bus_utilization(100) - 0.40).abs() < 1e-12);
    }

    #[test]
    fn zero_elapsed_is_zero_utilization() {
        let s = BusStats {
            cmd_cycles: 5,
            data_cycles: 5,
            ..BusStats::default()
        };
        assert_eq!(s.addr_bus_utilization(0), 0.0);
        assert_eq!(s.data_bus_utilization(0), 0.0);
    }

    #[test]
    fn bandwidth_scales_with_bus_width() {
        // 42% utilisation of a 64-bit (8-byte) DDR bus at 400 MHz is the
        // paper's 2.7 GB/s headline: 0.42 * 16 B/cycle * 400e6 = 2.69 GB/s.
        let s = BusStats {
            data_cycles: 42,
            ..BusStats::default()
        };
        let bpc = s.effective_bandwidth_bytes_per_cycle(100, 8);
        let gb_per_s = bpc * 400e6 / 1e9;
        assert!((gb_per_s - 2.688).abs() < 0.01, "got {gb_per_s}");
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = BusStats {
            reads: 1,
            writes: 2,
            data_cycles: 3,
            ..BusStats::default()
        };
        let b = BusStats {
            reads: 10,
            writes: 20,
            data_cycles: 30,
            ..BusStats::default()
        };
        a.merge(&b);
        assert_eq!((a.reads, a.writes, a.data_cycles), (11, 22, 33));
    }
}
