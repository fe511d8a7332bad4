//! Deterministic fault injection for robustness testing.
//!
//! Real memory subsystems see correctable ECC errors on reads and parity /
//! CRC failures on writes that force the controller to retry the transfer.
//! This module models both as *seedable, reproducible* events: whether a
//! given attempt of a given access faults is a pure function of the
//! configured seed, the access id and the attempt number, so a run with the
//! same seed injects exactly the same faults regardless of host or timing.
//!
//! A faulted access is not completed; the scheduler re-enqueues it at the
//! front of its queue and the bank arbiter schedules it again (a *retry*).
//! After [`FaultConfig::max_retries`] attempts the access is allowed to
//! complete unconditionally, so every access finishes under injection.

use crate::AccessKind;

/// SplitMix64 — a tiny, high-quality 64-bit mixer. Used as a stateless
/// hash so fault decisions need no RNG state that could drift between
/// mechanisms or runs. Public so higher layers (the sweep supervisor's
/// transient-fault plan, the chaos I/O layer) can make decisions from the
/// same deterministic primitive.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Configuration of the deterministic fault injector.
///
/// Rates are in permille (1/1000) per *attempt*: an access that faults and
/// retries rolls again on the retry, with an independent decision.
///
/// # Examples
///
/// ```
/// use burst_core::{AccessId, AccessKind, FaultConfig};
///
/// let f = FaultConfig::new(42);
/// // Decisions are pure functions of (seed, id, attempt): always the same.
/// let a = f.should_fault(AccessId::new(7), AccessKind::Read, 0);
/// let b = f.should_fault(AccessId::new(7), AccessKind::Read, 0);
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultConfig {
    /// Seed of the deterministic decision hash.
    pub seed: u64,
    /// Correctable-read-error rate in faults per 1000 column reads.
    pub read_error_permille: u32,
    /// Write-retry rate in faults per 1000 column writes.
    pub write_retry_permille: u32,
    /// Maximum retries per access; the attempt after the last retry always
    /// completes, bounding the work any one access can absorb.
    pub max_retries: u32,
}

impl FaultConfig {
    /// Moderate default rates (2% reads, 2% writes, up to 4 retries) with
    /// the given seed.
    pub fn new(seed: u64) -> Self {
        FaultConfig {
            seed,
            read_error_permille: 20,
            write_retry_permille: 20,
            max_retries: 4,
        }
    }

    /// Whether attempt number `attempt` (0-based) of the access faults.
    ///
    /// Pure and stateless: same `(seed, id, kind, attempt)` always yields
    /// the same answer.
    pub fn should_fault(&self, id: crate::AccessId, kind: AccessKind, attempt: u32) -> bool {
        let permille = match kind {
            AccessKind::Read => self.read_error_permille,
            AccessKind::Write => self.write_retry_permille,
        };
        if permille == 0 {
            return false;
        }
        let key = self.seed.wrapping_mul(0xA24B_AED4_963E_E407)
            ^ id.value().wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (u64::from(attempt) << 48);
        splitmix64(key) % 1000 < u64::from(permille)
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "the fault-rate test measures an observed rate; the code under test stays integer"
)]
mod tests {
    use super::*;
    use crate::AccessId;

    #[test]
    fn decisions_are_deterministic() {
        let f = FaultConfig::new(1234);
        for id in 0..100u64 {
            for attempt in 0..4u32 {
                let first = f.should_fault(AccessId::new(id), AccessKind::Read, attempt);
                let again = f.should_fault(AccessId::new(id), AccessKind::Read, attempt);
                assert_eq!(first, again);
            }
        }
    }

    #[test]
    fn rate_is_approximately_honoured() {
        let f = FaultConfig {
            read_error_permille: 100,
            ..FaultConfig::new(7)
        };
        let n = 20_000u64;
        let faults = (0..n)
            .filter(|&id| f.should_fault(AccessId::new(id), AccessKind::Read, 0))
            .count() as f64;
        let rate = faults / n as f64;
        assert!((0.07..0.13).contains(&rate), "10% target, got {rate:.3}");
    }

    #[test]
    fn zero_rate_never_faults() {
        let f = FaultConfig {
            read_error_permille: 0,
            write_retry_permille: 0,
            ..FaultConfig::new(9)
        };
        for id in 0..1000u64 {
            assert!(!f.should_fault(AccessId::new(id), AccessKind::Read, 0));
            assert!(!f.should_fault(AccessId::new(id), AccessKind::Write, 0));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultConfig {
            read_error_permille: 500,
            ..FaultConfig::new(1)
        };
        let b = FaultConfig {
            read_error_permille: 500,
            ..FaultConfig::new(2)
        };
        let diff = (0..1000u64)
            .filter(|&id| {
                a.should_fault(AccessId::new(id), AccessKind::Read, 0)
                    != b.should_fault(AccessId::new(id), AccessKind::Read, 0)
            })
            .count();
        assert!(
            diff > 100,
            "seeds 1 and 2 should disagree often, got {diff}"
        );
    }

    #[test]
    fn attempts_roll_independently() {
        let f = FaultConfig {
            read_error_permille: 500,
            ..FaultConfig::new(3)
        };
        let diff = (0..1000u64)
            .filter(|&id| {
                f.should_fault(AccessId::new(id), AccessKind::Read, 0)
                    != f.should_fault(AccessId::new(id), AccessKind::Read, 1)
            })
            .count();
        assert!(diff > 100, "attempt number must enter the hash, got {diff}");
    }
}
