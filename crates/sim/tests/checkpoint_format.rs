//! The on-disk checkpoint format under hostile input: a flipped byte
//! anywhere in a real checkpoint file is refused, a file in a retired
//! format version is refused and its cell restarts fresh with an identical
//! report, and the compact body stays compact.

#![expect(
    clippy::disallowed_methods,
    reason = "tests set up, corrupt and clean up fixture files directly"
)]

use std::path::PathBuf;
use std::sync::OnceLock;

use burst_core::Mechanism;
use burst_sim::journal::fingerprint;
use burst_sim::{
    try_simulate, try_simulate_checkpointed, Checkpoint, CheckpointError, CheckpointPolicy, RealIo,
    RunCursor, RunLength, System, SystemConfig,
};
use burst_snap::SnapWriter;
use burst_workloads::{CountingSource, SpecBenchmark};
use proptest::prelude::*;

/// Bytes after the hashed prefix of a body: the five engine counters,
/// unhashed so engines agree.
const DIAGNOSTIC_TAIL: usize = 5 * 8;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("burst-checkpoint-format-tests");
    let _ = std::fs::create_dir_all(&dir);
    dir.join(format!("{}-{name}", std::process::id()))
}

/// A baseline swim/Burst_TH52 system, warmed and run briefly.
fn swim_th52() -> (System, CountingSource<impl burst_workloads::OpSource>) {
    let cfg = SystemConfig::baseline().with_mechanism(Mechanism::BurstTh(52));
    let mut w = CountingSource::new(SpecBenchmark::Swim.workload(3));
    let mut sys = System::new(&cfg);
    sys.warm(&mut w);
    (sys, w)
}

/// A real swim/Burst_TH52 checkpoint file's bytes and where its body
/// starts, built once for every proptest case.
fn real_checkpoint() -> &'static (Vec<u8>, usize) {
    static FILE: OnceLock<(Vec<u8>, usize)> = OnceLock::new();
    FILE.get_or_init(|| {
        let (mut sys, mut w) = swim_th52();
        sys.try_run(&mut w, RunLength::MemCycles(2_000))
            .expect("run");
        let ckpt = Checkpoint::capture(
            &sys,
            fingerprint("flip"),
            w.consumed(),
            RunCursor::start(&sys),
        )
        .expect("capture");
        let path = tmp("real.ckpt");
        ckpt.save_with(&path, &mut SnapWriter::new(), true)
            .expect("save");
        let bytes = std::fs::read(&path).expect("read back");
        let _ = std::fs::remove_file(&path);
        let body_start = bytes.len() - ckpt.body.len();
        assert_eq!(
            &bytes[body_start..],
            ckpt.body.as_slice(),
            "body is the file's tail"
        );
        (bytes, body_start)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One flipped byte in the hashed body — any section, any length
    /// prefix — is refused before any state is touched. FNV-1a maps every
    /// single-byte change to a different digest, so the refusal is always
    /// the hash check.
    #[test]
    fn a_flipped_byte_in_the_hashed_body_is_refused(
        at in any::<u64>(),
        mask in 1u8..=255,
    ) {
        let (bytes, body_start) = real_checkpoint();
        let hashed = bytes.len() - DIAGNOSTIC_TAIL - body_start;
        let offset = body_start + (at % hashed as u64) as usize;
        let mut bad = bytes.clone();
        bad[offset] ^= mask;
        let path = tmp(&format!("flip-{offset}-{mask}.ckpt"));
        std::fs::write(&path, &bad).expect("write flipped file");
        let got = Checkpoint::load(&path, fingerprint("flip"), &RealIo);
        let _ = std::fs::remove_file(&path);
        prop_assert!(
            matches!(got, Err(CheckpointError::HashMismatch { .. })),
            "flip {mask:#04x} at {offset} gave {got:?}"
        );
    }

    /// One flipped byte anywhere in the file — magic, version, fingerprint,
    /// either digest, the run position, a length prefix, the body or its
    /// unhashed diagnostic tail — is refused: an error, never a panic and
    /// never a checkpoint that would resume at the wrong stream position.
    #[test]
    fn a_flipped_byte_anywhere_in_the_file_is_refused(
        at in any::<u64>(),
        mask in 1u8..=255,
    ) {
        let (bytes, _) = real_checkpoint();
        let offset = (at % bytes.len() as u64) as usize;
        let mut bad = bytes.clone();
        bad[offset] ^= mask;
        let path = tmp(&format!("anyflip-{offset}-{mask}.ckpt"));
        std::fs::write(&path, &bad).expect("write flipped file");
        let got = Checkpoint::load(&path, fingerprint("flip"), &RealIo);
        let _ = std::fs::remove_file(&path);
        prop_assert!(got.is_err(), "flip {mask:#04x} at {offset} loaded");
    }
}

/// Files in the retired formats — version 1 (fixed-width cache ways),
/// version 2 (one core, no header digest), version 3 (fixed-width
/// statistics counters) and version 4 (a sixth, no-op tick, engine
/// counter) — are refused by version alone, and a
/// checkpointed run that finds one restarts fresh to the same report.
#[test]
fn a_version_1_checkpoint_is_refused_and_the_cell_restarts_fresh() {
    let cfg = SystemConfig::baseline()
        .with_mechanism(Mechanism::BurstTh(52))
        .with_warm_mem_ops(1_000);
    let len = RunLength::Instructions(8_000);
    let reference = try_simulate(&cfg, SpecBenchmark::Swim.workload(2), len).expect("reference");
    for version in [1, 2, 3, 4] {
        let fp = fingerprint(&format!("version {version}"));
        let path = tmp(&format!("v{version}.ckpt"));
        let mut w = SnapWriter::new();
        for b in *b"BCKP" {
            w.u8(b);
        }
        w.u32(version);
        w.u64(fp);
        w.u64(0); // state hash
        w.u64(0); // ops consumed
        RunCursor::default().save_snap(&mut w);
        w.bytes(&[0; 64]);
        std::fs::write(&path, w.as_slice()).expect("write old-version file");

        let got = Checkpoint::load(&path, fp, &RealIo);
        assert!(
            matches!(got, Err(CheckpointError::UnsupportedVersion(v)) if v == version),
            "version {version} gave {got:?}"
        );

        let policy = CheckpointPolicy::new(2_000, path.clone(), fp);
        let got = try_simulate_checkpointed(&cfg, || SpecBenchmark::Swim.workload(2), len, &policy)
            .expect("fresh start");
        assert_eq!(
            got, reference,
            "a version-{version} file must not change the results"
        );
        assert!(!path.exists(), "the completed cell removes its checkpoint");
    }
}

/// The compact way encoding keeps a warmed baseline swim/Burst_TH52 body
/// (L1 and L2 full of lines) under 256 KiB; fixed-width ways took 646 KB.
#[test]
fn a_warmed_baseline_checkpoint_body_stays_compact() {
    let (sys, _) = swim_th52();
    let body = sys.checkpoint().expect("checkpoint").bytes.len();
    assert!(body <= 256 * 1024, "checkpoint body is {body} B");
}

/// `System::state_hash` of the Intel schedulers after `warm` and a
/// 20k-instruction run (seed 7), taken with writes outstanding so the
/// write queue is part of the hashed state. However the queue is held in
/// memory, its format-v5 encoding, and so this hash, must not move.
/// Every mechanism's full state hash, taken mid-run with writes still
/// queued, pinned so a refactor of the schedulers can be shown to move no
/// bit of any controller's state or its snapshot encoding.
#[test]
fn state_hashes_with_queued_writes_are_pinned() {
    const PINNED: [(Mechanism, SpecBenchmark, u64); 13] = [
        (
            Mechanism::BkInOrder,
            SpecBenchmark::Swim,
            0x82cd_34fc_31e1_0d98,
        ),
        (
            Mechanism::RowHit,
            SpecBenchmark::Swim,
            0xa031_7a83_029b_11c2,
        ),
        (Mechanism::Intel, SpecBenchmark::Swim, 0xbfce_a451_6c50_929b),
        (
            Mechanism::IntelRp,
            SpecBenchmark::Swim,
            0xc6ab_a8aa_1d04_309e,
        ),
        (Mechanism::Burst, SpecBenchmark::Swim, 0x28b4_bc91_929b_ee13),
        (
            Mechanism::BurstRp,
            SpecBenchmark::Swim,
            0x0d4e_00f3_32e9_4129,
        ),
        (
            Mechanism::BurstWp,
            SpecBenchmark::Swim,
            0x4e2c_d258_86a9_bfb2,
        ),
        (
            Mechanism::BurstTh(52),
            SpecBenchmark::Swim,
            0x193c_d348_473e_64dc,
        ),
        (
            Mechanism::BurstDyn,
            SpecBenchmark::Swim,
            0x6209_477e_dbba_c3b9,
        ),
        (
            Mechanism::BurstCrit,
            SpecBenchmark::Swim,
            0xe562_70a7_c6fd_4a66,
        ),
        (
            Mechanism::AdaptiveHistory,
            SpecBenchmark::Swim,
            0xdaa9_e755_58f1_3c29,
        ),
        (Mechanism::Intel, SpecBenchmark::Gcc, 0xd39a_9e50_8de1_3af0),
        (
            Mechanism::IntelRp,
            SpecBenchmark::Gcc,
            0xc63e_68a7_e18d_80d8,
        ),
    ];
    for (mechanism, bench, pinned) in PINNED {
        // The protocol checker's state is hashed too; its default follows
        // the build profile, so fix it.
        let cfg = SystemConfig::baseline()
            .with_mechanism(mechanism)
            .with_checker(false);
        let mut w = bench.workload(7);
        let mut sys = System::new(&cfg);
        sys.warm(&mut w);
        sys.try_run(&mut w, RunLength::Instructions(20_000))
            .expect("run");
        // Every writeback the CPU hands off enters the controller at once,
        // so the difference is the writes queued or ongoing there.
        let r = sys.report(bench.to_string());
        let outstanding = r.cpu.mem_writes - r.ctrl.writes_done;
        let hash = sys.state_hash().expect("built-ins support snapshots");
        assert!(
            outstanding > 0,
            "{mechanism} on {bench}: no write outstanding"
        );
        assert_eq!(hash, pinned, "{mechanism} on {bench}: state hash moved");
    }
}
