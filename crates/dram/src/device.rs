//! The whole main-memory device: all channels plus the address mapper.

use crate::{
    AddressMapper, AddressMapping, BusStats, Channel, DramConfig, Loc, PhysAddr, Violation,
};

/// The complete SDRAM main memory: one [`Channel`] per physical channel and
/// the address mapping that scatters physical addresses over them.
///
/// # Examples
///
/// ```
/// use burst_dram::{AddressMapping, Dram, DramConfig, PhysAddr};
///
/// let mem = Dram::new(DramConfig::baseline(), AddressMapping::PageInterleaving);
/// let loc = mem.decode(PhysAddr::new(0x4000));
/// assert!(loc.channel < 2);
/// ```
#[derive(Debug, Clone)]
pub struct Dram {
    channels: Vec<Channel>,
    mapper: AddressMapper,
}

impl Dram {
    /// Creates an idle memory device.
    pub fn new(cfg: DramConfig, mapping: AddressMapping) -> Self {
        Dram {
            channels: (0..cfg.geometry.channels)
                .map(|_| Channel::new(cfg))
                .collect(),
            mapper: AddressMapper::new(cfg.geometry, mapping),
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &DramConfig {
        self.channels[0].config()
    }

    /// The address mapper in use.
    pub fn mapper(&self) -> &AddressMapper {
        &self.mapper
    }

    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Decodes a physical address to a device location.
    pub fn decode(&self, addr: PhysAddr) -> Loc {
        self.mapper.decode(addr)
    }

    /// Shared view of one channel.
    pub fn channel(&self, idx: usize) -> &Channel {
        &self.channels[idx]
    }

    /// Exclusive view of one channel.
    pub fn channel_mut(&mut self, idx: usize) -> &mut Channel {
        &mut self.channels[idx]
    }

    /// Iterates over all channels.
    pub fn channels(&self) -> impl Iterator<Item = &Channel> {
        self.channels.iter()
    }

    /// Advances refresh housekeeping on every channel to cycle `now`.
    pub fn tick(&mut self, now: crate::Cycle) {
        for ch in &mut self.channels {
            ch.tick(now);
        }
    }

    /// Earliest future cycle (> `now`) at which any channel can change
    /// state without the controller issuing a command — the device-wide
    /// minimum of [`Channel::next_event`]. With no commands issued before
    /// the returned cycle, every intervening [`Dram::tick`] is a no-op, so
    /// callers may batch-advance time to it bit-identically.
    pub fn next_event(&self, now: crate::Cycle) -> Option<crate::Cycle> {
        self.channels
            .iter()
            .filter_map(|ch| ch.next_event(now))
            .min()
    }

    /// Enables the runtime protocol checker on every channel.
    pub fn enable_checker(&mut self) {
        for ch in &mut self.channels {
            ch.enable_checker();
        }
    }

    /// Total protocol violations across all channels (0 when the checker
    /// is disabled).
    pub fn protocol_violations(&self) -> u64 {
        self.channels
            .iter()
            .filter_map(|ch| ch.checker())
            .map(|c| c.total_violations())
            .sum()
    }

    /// Recorded violations from all channels, with full context.
    pub fn violations(&self) -> Vec<Violation> {
        self.channels
            .iter()
            .filter_map(|ch| ch.checker())
            .flat_map(|c| c.violations().iter().cloned())
            .collect()
    }

    /// Serialises every channel's state for a checkpoint. The mapper is
    /// pure configuration and is not part of the snapshot.
    pub fn save_snap(&self, w: &mut burst_snap::SnapWriter) {
        let Self {
            channels,
            mapper: _, // pure function of the geometry; restore re-supplies it
        } = self;
        w.usize(channels.len());
        for ch in channels {
            ch.save_snap(w);
        }
    }

    /// Restores state written by [`Dram::save_snap`] into a device built
    /// from the same configuration.
    pub fn load_snap(
        &mut self,
        r: &mut burst_snap::SnapReader,
    ) -> Result<(), burst_snap::SnapError> {
        let Self {
            channels,
            mapper: _, // pure function of the geometry; restore re-supplies it
        } = self;
        if r.seq_len(1)? != channels.len() {
            return Err(burst_snap::SnapError::Corrupt("channel count mismatch"));
        }
        for ch in channels.iter_mut() {
            ch.load_snap(r)?;
        }
        Ok(())
    }

    /// Sums the bus statistics of all channels.
    pub fn total_stats(&self) -> BusStats {
        let mut total = BusStats::new();
        for ch in &self.channels {
            total.merge(ch.stats());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Command, Cycle};

    #[test]
    fn decode_stays_in_range() {
        let mem = Dram::new(DramConfig::baseline(), AddressMapping::PageInterleaving);
        for i in 0..100u64 {
            let loc = mem.decode(PhysAddr::new(i * 64 * 131));
            assert!((loc.channel as usize) < mem.channel_count());
        }
    }

    #[test]
    fn channels_are_independent() {
        let mut mem = Dram::new(DramConfig::baseline(), AddressMapping::PageInterleaving);
        let l0 = Loc::new(0, 0, 0, 1, 0);
        let l1 = Loc::new(1, 0, 0, 1, 0);
        // Same cycle on different channels: both legal (unique busses).
        assert!(mem.channel(0).can_issue(&Command::Activate(l0), 0));
        assert!(mem.channel(1).can_issue(&Command::Activate(l1), 0));
        mem.channel_mut(0).issue(&Command::Activate(l0), 0);
        assert!(mem.channel(1).can_issue(&Command::Activate(l1), 0));
    }

    #[test]
    fn total_stats_merges_channels() {
        let mut mem = Dram::new(DramConfig::baseline(), AddressMapping::PageInterleaving);
        mem.channel_mut(0)
            .issue(&Command::Activate(Loc::new(0, 0, 0, 1, 0)), 0);
        mem.channel_mut(1)
            .issue(&Command::Activate(Loc::new(1, 0, 0, 1, 0)), 0);
        assert_eq!(mem.total_stats().activates, 2);
    }

    #[test]
    fn snapshot_round_trips_mid_activity() {
        let mut mem = Dram::new(DramConfig::small(), AddressMapping::PageInterleaving);
        mem.enable_checker();
        let t = mem.config().timing;
        let l = Loc::new(0, 0, 0, 3, 0);
        mem.channel_mut(0).issue(&Command::Activate(l), 0);
        mem.channel_mut(0).issue(&Command::read(l), t.t_rcd);
        mem.tick(t.t_rcd + 1);
        let mut w = burst_snap::SnapWriter::new();
        mem.save_snap(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = Dram::new(DramConfig::small(), AddressMapping::PageInterleaving);
        fresh.enable_checker();
        let mut r = burst_snap::SnapReader::new(&bytes);
        fresh.load_snap(&mut r).unwrap();
        r.finish().unwrap();
        // The restored device serialises to identical bytes and agrees on
        // every observable query.
        let mut w2 = burst_snap::SnapWriter::new();
        fresh.save_snap(&mut w2);
        assert_eq!(bytes, w2.into_bytes());
        assert_eq!(fresh.channel(0).row_state(l), mem.channel(0).row_state(l));
        assert_eq!(fresh.total_stats(), mem.total_stats());
        assert_eq!(fresh.next_event(t.t_rcd + 1), mem.next_event(t.t_rcd + 1));
    }

    #[test]
    fn snapshot_rejects_structural_mismatch() {
        let mem = Dram::new(DramConfig::small(), AddressMapping::PageInterleaving);
        let mut w = burst_snap::SnapWriter::new();
        mem.save_snap(&mut w);
        let bytes = w.into_bytes();
        let mut bigger = Dram::new(DramConfig::baseline(), AddressMapping::PageInterleaving);
        let mut r = burst_snap::SnapReader::new(&bytes);
        assert!(bigger.load_snap(&mut r).is_err());
    }

    #[test]
    fn tick_advances_all_channels() {
        let mut cfg = DramConfig::baseline();
        cfg.timing.t_refi = 10;
        let mut mem = Dram::new(cfg, AddressMapping::PageInterleaving);
        for now in 0..200 as Cycle {
            mem.tick(now);
        }
        assert!(mem.total_stats().refreshes >= 2, "both channels refresh");
    }
}
