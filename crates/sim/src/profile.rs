//! Opt-in wall-clock phase profiling for [`crate::System::step`].
//!
//! This module is *report-only* instrumentation: it measures how host
//! wall time splits across the step's phases (CPU model, request
//! hand-off, controller+device tick, read delivery) so the perf harness
//! can publish a `phase_profile` section in `BENCH_perf.json`. Nothing
//! here ever feeds simulated timing — the stamps read the clock and
//! accumulate nanosecond counters, full stop — which is why this module
//! may call `Instant::now` (allowed at the `burst-sim` crate root) while
//! `system.rs` denies `clippy::disallowed_methods` and stays
//! wall-clock-free.
//!
//! Profiling is off by default ([`crate::System`] holds
//! `Option<Box<PhaseProfile>>`, `None` unless enabled), so the hot path
//! pays one branch per phase boundary and takes no clock reads.

use std::time::Instant;

/// Accumulated wall-clock nanoseconds per step phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseProfile {
    /// Phase 1: CPU/cache model (`Cpu::run_until` or the per-cycle loop).
    pub cpu_ns: u64,
    /// Phase 2: request hand-off to the controller.
    pub handoff_ns: u64,
    /// Phase 3: scheduler tick + device timing + completion routing.
    pub dram_ns: u64,
    /// Phase 4: read-data delivery back to the CPU.
    pub deliver_ns: u64,
}

impl PhaseProfile {
    /// Total nanoseconds attributed across all phases.
    pub fn total_ns(&self) -> u64 {
        self.cpu_ns + self.handoff_ns + self.dram_ns + self.deliver_ns
    }
}

/// A phase-boundary timestamp. Disabled stamps (`begin(false)`) carry no
/// clock read and make every subsequent [`Stamp::lap`] free.
#[derive(Debug, Clone, Copy)]
pub struct Stamp(Option<Instant>);

impl Stamp {
    /// Opens the first phase; reads the clock only when `enabled`.
    #[inline]
    pub fn begin(enabled: bool) -> Stamp {
        Stamp(enabled.then(Instant::now))
    }

    /// Closes the current phase — charging its elapsed nanoseconds to the
    /// counter `sel` picks out of `profile` — and opens the next.
    #[inline]
    pub fn lap(
        self,
        profile: Option<&mut PhaseProfile>,
        sel: impl FnOnce(&mut PhaseProfile) -> &mut u64,
    ) -> Stamp {
        match (self.0, profile) {
            (Some(start), Some(p)) => {
                let now = Instant::now();
                *sel(p) += now.duration_since(start).as_nanos() as u64;
                Stamp(Some(now))
            }
            _ => Stamp(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_stamps_accumulate_nothing() {
        let mut p = PhaseProfile::default();
        let t0 = Stamp::begin(false);
        let t1 = t0.lap(Some(&mut p), |p| &mut p.cpu_ns);
        t1.lap(Some(&mut p), |p| &mut p.dram_ns);
        assert_eq!(p.total_ns(), 0);
    }

    #[test]
    fn enabled_stamps_charge_each_phase_once() {
        let mut p = PhaseProfile::default();
        let t0 = Stamp::begin(true);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let t1 = t0.lap(Some(&mut p), |p| &mut p.cpu_ns);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t1.lap(Some(&mut p), |p| &mut p.handoff_ns);
        assert!(p.cpu_ns >= 1_000_000, "cpu_ns {}", p.cpu_ns);
        assert!(p.handoff_ns >= 1_000_000, "handoff_ns {}", p.handoff_ns);
        assert_eq!(p.dram_ns + p.deliver_ns, 0);
    }
}
