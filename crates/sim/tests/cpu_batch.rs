//! Property test for the batched CPU model: [`Cpu::run_until`] must be
//! bit-identical to stepping [`Cpu::cycle`] the same number of times —
//! byte-equal snapshots, identical request/writeback streams — for random
//! instruction mixes, random epoch strides and random memory latencies.
//!
//! This is the randomized sibling of the fixed-scenario equivalence tests
//! in `burst_cpu`: proptest explores stall spans, wake-ups landing
//! mid-epoch, and completion timing the hand-picked cases cannot
//! enumerate. The full-system analogue (whole-`System` engine equivalence
//! on random seeds) lives in `cycle_skip.rs`.

use burst_cpu::{Cpu, CpuConfig};
use burst_snap::SnapWriter;
use burst_workloads::{Op, ReplaySource};
use proptest::prelude::*;

/// A weighted random instruction: compute-heavy with every memory flavour
/// represented, over a footprint small enough to re-touch lines (hits and
/// misses both occur).
fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..8, 0u64..256).prop_map(|(kind, i)| match kind {
        0..=3 => Op::Compute,
        4 | 5 => Op::load(i << 9),
        6 => Op::Store { addr: i << 9 },
        _ => Op::dependent_load(i << 9),
    })
}

proptest! {
    // Each case runs two full CPU models in lockstep: keep cases modest.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn run_until_is_bit_identical_to_per_cycle(
        ops in prop::collection::vec(op_strategy(), 1..64),
        strides in prop::collection::vec(1u64..97, 2..24),
        latency in 0u64..300,
    ) {
        let mut reference = Cpu::new(CpuConfig::baseline());
        let mut batched = Cpu::new(CpuConfig::baseline());
        let mut src_a = ReplaySource::new("a", ops.clone());
        let mut src_b = ReplaySource::new("b", ops);
        // (ready_at, line): one in-flight queue serves both cores, since
        // their request streams are asserted equal every epoch.
        let mut inflight: Vec<(u64, u64)> = Vec::new();
        for &stride in &strides {
            let target = reference.now() + stride;
            while reference.now() < target {
                reference.cycle(&mut src_a);
            }
            batched.run_until(target, &mut src_b);
            prop_assert_eq!(reference.now(), batched.now());
            loop {
                let a = reference.pop_read_request_tagged();
                let b = batched.pop_read_request_tagged();
                prop_assert_eq!(a, b, "request streams diverge");
                let Some((line, _)) = a else { break };
                inflight.push((reference.now() + latency, line));
            }
            loop {
                let a = reference.pop_writeback();
                let b = batched.pop_writeback();
                prop_assert_eq!(a, b, "writeback streams diverge");
                if a.is_none() {
                    break;
                }
            }
            let now = reference.now();
            let mut still_pending = Vec::new();
            for (at, line) in inflight.drain(..) {
                if at <= now {
                    reference.complete_read(line, at);
                    batched.complete_read(line, at);
                } else {
                    still_pending.push((at, line));
                }
            }
            inflight = still_pending;
            let mut wa = SnapWriter::new();
            let mut wb = SnapWriter::new();
            reference.save_snap(&mut wa);
            batched.save_snap(&mut wb);
            prop_assert_eq!(
                wa.into_bytes(),
                wb.into_bytes(),
                "snapshots diverge at cycle {}",
                now
            );
        }
    }
}
