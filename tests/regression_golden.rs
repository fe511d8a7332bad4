//! Golden-value regression guard: a small pinned run per mechanism. The
//! simulator is integer-cycle deterministic and the workload RNG
//! (`SmallRng`, xoshiro256++ on 64-bit targets) is seed-stable, so any
//! change to these numbers means scheduler/device behaviour changed — which
//! must be a conscious decision, re-pinned together with an EXPERIMENTS.md
//! refresh, never an accident.
//!
//! Both engines share the controller's derived caches (occupied-slot
//! bitmap, candidate cache, steering cache), so engine equivalence cannot
//! catch a bug in them; these literal values can.
//!
//! If this test fails after an intentional change, re-pin the table from
//! the failure message, which names the mechanism and the new values.

use burst_scheduling::prelude::*;

fn fingerprint(mechanism: Mechanism) -> (u64, u64, u64, u64) {
    let cfg = SystemConfig::baseline().with_mechanism(mechanism);
    let r = simulate(
        &cfg,
        SpecBenchmark::Gzip.workload(7),
        RunLength::Instructions(4_000),
    );
    (r.cpu_cycles, r.reads(), r.writes(), r.ctrl.row_hits)
}

/// `(cpu_cycles, reads, writes, row_hits)` of gzip (seed 7, 4000
/// instructions) on the baseline machine, per mechanism.
const PINNED: [(Mechanism, (u64, u64, u64, u64)); 11] = [
    (Mechanism::BkInOrder, (42640, 1016, 302, 709)),
    (Mechanism::RowHit, (37660, 1013, 296, 792)),
    (Mechanism::Intel, (37500, 994, 239, 754)),
    (Mechanism::IntelRp, (36010, 993, 239, 778)),
    (Mechanism::Burst, (34550, 1009, 243, 754)),
    (Mechanism::BurstRp, (33380, 1019, 242, 731)),
    (Mechanism::BurstWp, (35190, 1027, 260, 863)),
    (Mechanism::BurstTh(52), (32860, 994, 235, 818)),
    (Mechanism::BurstDyn, (34580, 1027, 258, 863)),
    (Mechanism::BurstCrit, (33310, 1011, 248, 830)),
    (Mechanism::AdaptiveHistory, (43180, 1012, 298, 733)),
];

#[test]
fn pinned_fingerprints_are_stable() {
    for (m, expected) in PINNED {
        assert_eq!(fingerprint(m), expected, "{m}: fingerprint moved");
    }
    // Cross-mechanism sanity that would catch a silently swapped policy.
    let pinned = |m: Mechanism| PINNED.iter().find(|(p, _)| *p == m).map(|(_, fp)| *fp);
    let base = pinned(Mechanism::BkInOrder).expect("pinned");
    let th = pinned(Mechanism::BurstTh(52)).expect("pinned");
    assert!(th.0 < base.0, "TH52 must beat BkInOrder on this pinned run");
    assert!(th.3 >= base.3, "TH52 must find at least as many row hits");
}

#[test]
fn fingerprints_differ_between_mechanisms() {
    // Mechanisms must actually schedule differently: identical fingerprints
    // would mean a dispatch bug wired two names to one policy.
    let fps: Vec<(String, (u64, u64, u64, u64))> = Mechanism::all_paper()
        .iter()
        .map(|m| (m.name(), fingerprint(*m)))
        .collect();
    for (i, (name_a, fp_a)) in fps.iter().enumerate() {
        for (name_b, fp_b) in fps.iter().skip(i + 1) {
            // RP/WP/TH variants may coincide on a light run; the in-order
            // baseline must differ from every out-of-order mechanism.
            if name_a == "BkInOrder" {
                assert_ne!(fp_a, fp_b, "{name_a} vs {name_b}: identical schedules");
            }
        }
    }
}
