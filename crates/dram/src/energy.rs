//! DRAM energy estimation from command counts, following the standard
//! Micron IDD-based methodology for DDR2 devices.
//!
//! Access reordering changes the *command mix* — more row hits mean fewer
//! activate/precharge pairs — and the *execution time* — faster runs pay
//! less background power. Both effects fall straight out of
//! [`crate::BusStats`], so energy is a pure function of a finished run.

#![expect(
    clippy::disallowed_types,
    clippy::float_arithmetic,
    reason = "report-only energy model (datasheet IDD currents, pJ accounting); simulation state never reads it"
)]

use crate::{BusStats, Cycle};

/// Per-event energies and background power of one DDR2 device generation,
/// derived from Micron datasheet IDD values at 1.8 V.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// Energy of one activate/precharge pair (IDD0 over tRC), nanojoules.
    pub activate_nj: f64,
    /// Energy of one column read burst (IDD4R over the burst), nanojoules.
    pub read_nj: f64,
    /// Energy of one column write burst (IDD4W over the burst), nanojoules.
    pub write_nj: f64,
    /// Energy of one all-bank refresh (IDD5 over tRFC), nanojoules.
    pub refresh_nj: f64,
    /// Background (standby) power per rank, milliwatts.
    pub background_mw_per_rank: f64,
    /// Memory command-clock frequency, hertz.
    pub clock_hz: f64,
}

impl EnergyParams {
    /// DDR2-800 (PC2-6400) x8 device estimates at 1.8 V:
    /// IDD0 ≈ 85 mA over tRC = 57.5 ns, IDD4R ≈ 200 mA and IDD4W ≈ 210 mA
    /// over a 10 ns burst, IDD5 ≈ 160 mA over tRFC = 127.5 ns, IDD2N
    /// background ≈ 55 mA.
    pub fn ddr2_pc2_6400() -> Self {
        EnergyParams {
            activate_nj: 8.8,
            read_nj: 3.6,
            write_nj: 3.8,
            refresh_nj: 36.7,
            background_mw_per_rank: 99.0,
            clock_hz: 400e6,
        }
    }

    /// DDR PC-2100 estimates at 2.5 V (older, slower, hungrier per event).
    pub fn ddr_pc_2100() -> Self {
        EnergyParams {
            activate_nj: 14.0,
            read_nj: 6.0,
            write_nj: 6.3,
            refresh_nj: 42.0,
            background_mw_per_rank: 130.0,
            clock_hz: 133e6,
        }
    }
}

impl Default for EnergyParams {
    fn default() -> Self {
        EnergyParams::ddr2_pc2_6400()
    }
}

/// Energy consumed by one simulation run, broken down by source.
///
/// # Examples
///
/// ```
/// use burst_dram::{BusStats, EnergyBreakdown, EnergyParams};
///
/// let stats = BusStats { activates: 100, reads: 500, ..BusStats::default() };
/// let e = EnergyBreakdown::estimate(&stats, 100_000, 4, &EnergyParams::ddr2_pc2_6400());
/// assert!(e.total_nj() > 0.0);
/// assert!(e.background_nj > e.activate_nj, "standby dominates a mostly idle run");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Activate/precharge energy, nanojoules.
    pub activate_nj: f64,
    /// Read burst energy, nanojoules.
    pub read_nj: f64,
    /// Write burst energy, nanojoules.
    pub write_nj: f64,
    /// Refresh energy, nanojoules.
    pub refresh_nj: f64,
    /// Background/standby energy over the run, nanojoules.
    pub background_nj: f64,
}

impl EnergyBreakdown {
    /// Estimates the energy of a run from its command counts, duration in
    /// memory cycles and the number of ranks paying background power.
    pub fn estimate(
        stats: &BusStats,
        elapsed: Cycle,
        ranks: u32,
        params: &EnergyParams,
    ) -> EnergyBreakdown {
        let seconds = elapsed as f64 / params.clock_hz;
        EnergyBreakdown {
            // IDD0 covers the full activate/precharge pair, so each ACT is
            // counted once regardless of how its row is later closed
            // (explicit PRE or auto-precharge).
            activate_nj: stats.activates as f64 * params.activate_nj,
            read_nj: stats.reads as f64 * params.read_nj,
            write_nj: stats.writes as f64 * params.write_nj,
            refresh_nj: stats.refreshes as f64 * params.refresh_nj,
            background_nj: params.background_mw_per_rank * 1e-3 * f64::from(ranks) * seconds * 1e9,
        }
    }

    /// Total energy in nanojoules.
    pub fn total_nj(&self) -> f64 {
        self.activate_nj + self.read_nj + self.write_nj + self.refresh_nj + self.background_nj
    }

    /// Total energy in millijoules.
    pub fn total_mj(&self) -> f64 {
        self.total_nj() * 1e-6
    }

    /// Average power over `elapsed` memory cycles, in milliwatts.
    pub fn avg_power_mw(&self, elapsed: Cycle, params: &EnergyParams) -> f64 {
        if elapsed == 0 {
            return 0.0;
        }
        let seconds = elapsed as f64 / params.clock_hz;
        self.total_nj() * 1e-9 / seconds * 1e3
    }

    /// Energy per completed access in nanojoules.
    pub fn per_access_nj(&self, accesses: u64) -> f64 {
        if accesses == 0 {
            0.0
        } else {
            self.total_nj() / accesses as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> EnergyParams {
        EnergyParams::ddr2_pc2_6400()
    }

    #[test]
    fn zero_stats_only_pay_background() {
        let e = EnergyBreakdown::estimate(&BusStats::default(), 400_000, 4, &params());
        assert_eq!(e.activate_nj, 0.0);
        assert_eq!(e.read_nj, 0.0);
        // 1 ms x 4 ranks x 99 mW = 396 microjoules = 396_000 nJ.
        assert!(
            (e.background_nj - 396_000.0).abs() < 1.0,
            "{}",
            e.background_nj
        );
    }

    #[test]
    fn event_energies_scale_linearly() {
        let s1 = BusStats {
            activates: 10,
            reads: 20,
            writes: 5,
            refreshes: 2,
            ..BusStats::default()
        };
        let s2 = BusStats {
            activates: 20,
            reads: 40,
            writes: 10,
            refreshes: 4,
            ..BusStats::default()
        };
        let e1 = EnergyBreakdown::estimate(&s1, 0, 4, &params());
        let e2 = EnergyBreakdown::estimate(&s2, 0, 4, &params());
        assert!((e2.activate_nj - 2.0 * e1.activate_nj).abs() < 1e-9);
        assert!((e2.read_nj - 2.0 * e1.read_nj).abs() < 1e-9);
        assert!((e2.write_nj - 2.0 * e1.write_nj).abs() < 1e-9);
        assert!((e2.refresh_nj - 2.0 * e1.refresh_nj).abs() < 1e-9);
    }

    #[test]
    fn auto_precharges_do_not_double_count() {
        // An access under close-page autoprecharge issues one ACT and one
        // auto-PRE; IDD0 already covers the pair, so energy counts the ACT
        // once.
        let s = BusStats {
            activates: 5,
            auto_precharges: 5,
            ..BusStats::default()
        };
        let e = EnergyBreakdown::estimate(&s, 0, 1, &params());
        assert!((e.activate_nj - 5.0 * params().activate_nj).abs() < 1e-9);
    }

    #[test]
    fn fewer_activates_cost_less() {
        // Same data moved, different row-hit rates: the hit-friendly
        // schedule must be cheaper.
        let hits = BusStats {
            activates: 100,
            reads: 1000,
            ..BusStats::default()
        };
        let conflicts = BusStats {
            activates: 900,
            reads: 1000,
            ..BusStats::default()
        };
        let e_hits = EnergyBreakdown::estimate(&hits, 50_000, 4, &params());
        let e_conf = EnergyBreakdown::estimate(&conflicts, 50_000, 4, &params());
        assert!(e_hits.total_nj() < e_conf.total_nj());
    }

    #[test]
    fn shorter_runs_pay_less_background() {
        let s = BusStats {
            reads: 100,
            ..BusStats::default()
        };
        let fast = EnergyBreakdown::estimate(&s, 10_000, 4, &params());
        let slow = EnergyBreakdown::estimate(&s, 20_000, 4, &params());
        assert!(fast.background_nj < slow.background_nj);
        assert_eq!(fast.read_nj, slow.read_nj);
    }

    #[test]
    fn average_power_is_plausible() {
        // A fully loaded dual-rank device should land in the 0.1-10 W band.
        let s = BusStats {
            activates: 5_000,
            reads: 40_000,
            writes: 10_000,
            refreshes: 100,
            ..BusStats::default()
        };
        let e = EnergyBreakdown::estimate(&s, 400_000, 4, &params());
        let mw = e.avg_power_mw(400_000, &params());
        assert!((100.0..10_000.0).contains(&mw), "{mw} mW");
    }

    #[test]
    fn per_access_energy() {
        let s = BusStats {
            reads: 10,
            ..BusStats::default()
        };
        let e = EnergyBreakdown::estimate(&s, 0, 1, &params());
        assert!((e.per_access_nj(10) - params().read_nj).abs() < 1e-9);
        assert_eq!(EnergyBreakdown::default().per_access_nj(0), 0.0);
    }
}
