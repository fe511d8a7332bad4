//! On-disk checkpoint files: versioned, fingerprint-bound snapshots of a
//! running simulation, written atomically so a crash — even mid-write —
//! never leaves a checkpoint that restores silently wrong.
//!
//! A checkpoint file binds three things together:
//!
//! 1. a **cell fingerprint** — the same [`crate::journal::fingerprint`]
//!    hash a sweep journal uses, covering everything that changes the
//!    cell's results (configuration, workload, seed, run length). A
//!    checkpoint written under a different fingerprint is refused, so a
//!    stale file from an earlier configuration can never contaminate a
//!    resumed run;
//! 2. the **state hash** of the serialised observable state, verified on
//!    load so bit rot or a torn write surfaces as
//!    [`CheckpointError::HashMismatch`] instead of a wrong result;
//! 3. the **run position**: workload operations consumed (the workload is
//!    rebuilt from its seed and fast-forwarded — PRNG internals never
//!    touch the disk) and the [`RunCursor`] carrying the retirement
//!    watchdog across the boundary.
//!
//! File layout (all little-endian, via [`burst_snap`]):
//!
//! ```text
//! "BCKP"  u32 version=2  u64 fingerprint  u64 state_hash
//! u64 ops_consumed  RunCursor  bytes body
//! ```
//!
//! Version 2 stores cache ways compactly (a flags byte and varint tag and
//! age, see `burst_cpu::Cache::save_snap`). A version-1 file is refused
//! with [`CheckpointError::UnsupportedVersion`], which
//! [`try_simulate_checkpointed`] treats like any unusable file: the cell
//! restarts from scratch.
//!
//! [`try_simulate_checkpointed`] is the harness entry point: it resumes
//! from an existing valid checkpoint, simulates in
//! [`CheckpointPolicy::every`]-cycle chunks, rewrites the checkpoint at
//! each chunk boundary, and removes it once the cell completes.

// Chaos-plane, supervised-cell module (DESIGN.md §15): filesystem calls
// go through the `SimIo` seam (`disallowed_methods`, see clippy.toml) and
// failures return structured errors instead of panicking.
#![deny(
    clippy::disallowed_methods,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use burst_snap::{fnv1a64, SnapError, SnapReader, SnapWriter};
use burst_workloads::{CountingSource, OpSource};

use crate::simio::{real_io, IoSite, RealIo, SimIo};
use crate::system::{
    ChunkOutcome, RunCursor, RunError, RunLength, SimReport, System, SystemConfig,
};

/// Magic bytes opening every checkpoint file.
const MAGIC: [u8; 4] = *b"BCKP";
/// Current checkpoint format version.
const VERSION: u32 = 2;

/// Why a checkpoint file could not be written, read or restored.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file ends before the format says it should (torn write).
    Truncated,
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The file uses a format version this build does not understand.
    UnsupportedVersion(u32),
    /// The checkpoint belongs to a differently-configured cell.
    FingerprintMismatch {
        /// Fingerprint the resuming cell expects.
        expected: u64,
        /// Fingerprint recorded in the file.
        found: u64,
    },
    /// A decoded value is impossible for the target state.
    Corrupt(&'static str),
    /// The body does not hash to the recorded state hash (bit rot or a
    /// hand-edited file).
    HashMismatch {
        /// Digest recorded in the header.
        expected: u64,
        /// Digest of the body as read.
        found: u64,
    },
    /// The simulation state cannot be serialised (caller-supplied
    /// scheduler without checkpoint support).
    Unsupported(&'static str),
}

impl core::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Truncated => f.write_str("checkpoint file is truncated"),
            CheckpointError::BadMagic => f.write_str("file is not a burst checkpoint"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "checkpoint format version {v} is not supported")
            }
            CheckpointError::FingerprintMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different cell configuration \
                 (expected fingerprint {expected:016x}, found {found:016x})"
            ),
            CheckpointError::Corrupt(what) => write!(f, "checkpoint is corrupt: {what}"),
            CheckpointError::HashMismatch { expected, found } => write!(
                f,
                "checkpoint body hash {found:016x} does not match the \
                 recorded state hash {expected:016x}"
            ),
            CheckpointError::Unsupported(what) => {
                write!(f, "state cannot be checkpointed: {what}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<SnapError> for CheckpointError {
    fn from(e: SnapError) -> Self {
        match e {
            SnapError::Truncated => CheckpointError::Truncated,
            SnapError::Corrupt(what) => CheckpointError::Corrupt(what),
            SnapError::Unsupported(what) => CheckpointError::Unsupported(what),
        }
    }
}

/// One decoded checkpoint: header fields plus the serialised system body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Cell fingerprint the checkpoint is bound to.
    pub fingerprint: u64,
    /// FNV-1a digest of the body's observable sections.
    pub state_hash: u64,
    /// Workload operations consumed up to the checkpoint (warm-up
    /// included), for seed-rebuild fast-forward.
    pub ops_consumed: u64,
    /// Run-loop counters at the chunk boundary.
    pub cursor: RunCursor,
    /// Serialised system state ([`System::checkpoint`] bytes).
    pub body: Vec<u8>,
}

impl Checkpoint {
    /// Captures `sys` at a step boundary.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Unsupported`] when the scheduler cannot be
    /// serialised.
    pub fn capture(
        sys: &System,
        fingerprint: u64,
        ops_consumed: u64,
        cursor: RunCursor,
    ) -> Result<Checkpoint, CheckpointError> {
        let snap = sys.checkpoint()?;
        Ok(Checkpoint {
            fingerprint,
            state_hash: snap.state_hash,
            ops_consumed,
            cursor,
            body: snap.bytes,
        })
    }

    /// Writes the checkpoint atomically: the bytes land in a `.tmp`
    /// sibling, are fsynced, and only then renamed over `path` — so a
    /// crash at any instant leaves either the previous checkpoint or this
    /// one, never a torn hybrid.
    ///
    /// # Errors
    ///
    /// Any filesystem failure writing, syncing or renaming.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        self.save_with(path, &mut SnapWriter::new(), true)
    }

    /// [`Checkpoint::save`] through a caller-owned encode buffer, with the
    /// per-write fsync optional. `scratch` is cleared and reused, so a
    /// loop writing many checkpoints pays for one allocation, not one per
    /// checkpoint.
    ///
    /// With `durable` false the `.tmp`-then-rename dance is kept (a
    /// *process* crash still leaves the previous or the new file intact)
    /// but the data is not forced to disk before the rename — an OS crash
    /// or power loss may surface a torn file. That is a durability
    /// downgrade, never a correctness one: [`Checkpoint::load`] validates
    /// magic, version, fingerprint and body hash, and
    /// [`try_simulate_checkpointed`] treats any invalid file as "no
    /// checkpoint" and restarts the cell from scratch with bit-identical
    /// results.
    ///
    /// # Errors
    ///
    /// Any filesystem failure writing, syncing or renaming.
    pub fn save_with(
        &self,
        path: &Path,
        scratch: &mut SnapWriter,
        durable: bool,
    ) -> Result<(), CheckpointError> {
        self.save_with_io(path, scratch, durable, &RealIo)
    }

    /// [`Checkpoint::save_with`] through an injectable filesystem — the
    /// chaos seam. Each step of the atomic protocol is a labeled crash
    /// point: scratch write ([`IoSite::CkptTmpWrite`]), fsync
    /// ([`IoSite::CkptSync`]), rename ([`IoSite::CkptRename`]).
    ///
    /// # Errors
    ///
    /// Any filesystem failure writing, syncing or renaming.
    pub fn save_with_io(
        &self,
        path: &Path,
        scratch: &mut SnapWriter,
        durable: bool,
        io: &dyn SimIo,
    ) -> Result<(), CheckpointError> {
        scratch.clear();
        for b in MAGIC {
            scratch.u8(b);
        }
        scratch.u32(VERSION);
        scratch.u64(self.fingerprint);
        scratch.u64(self.state_hash);
        scratch.u64(self.ops_consumed);
        self.cursor.save_snap(scratch);
        scratch.bytes(&self.body);
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "directory creation is not a labeled crash point; a failure surfaces via the write_new that follows"
                )]
                fs::create_dir_all(parent)?;
            }
        }
        let tmp = tmp_path(path);
        let f = io.write_new(IoSite::CkptTmpWrite, &tmp, scratch.as_slice())?;
        if durable {
            io.sync(IoSite::CkptSync, &f)?;
        }
        drop(f);
        io.rename(IoSite::CkptRename, &tmp, path)?;
        Ok(())
    }

    /// Reads and validates a checkpoint: magic, version, fingerprint and
    /// body hash are all checked before any state is touched.
    ///
    /// # Errors
    ///
    /// Every [`CheckpointError`] variant; a malformed file never panics.
    pub fn load(path: &Path, expected_fingerprint: u64) -> Result<Checkpoint, CheckpointError> {
        Self::load_with_io(path, expected_fingerprint, &RealIo)
    }

    /// [`Checkpoint::load`] through an injectable filesystem — the chaos
    /// seam ([`IoSite::CkptRead`]). A truncated read surfaces through the
    /// normal validation chain, never as a panic.
    ///
    /// # Errors
    ///
    /// Every [`CheckpointError`] variant; a malformed file never panics.
    pub fn load_with_io(
        path: &Path,
        expected_fingerprint: u64,
        io: &dyn SimIo,
    ) -> Result<Checkpoint, CheckpointError> {
        let mut bytes = io.read(IoSite::CkptRead, path)?;
        let mut r = SnapReader::new(&bytes);
        let mut magic = [0u8; 4];
        for b in &mut magic {
            *b = r.u8().map_err(|_| CheckpointError::Truncated)?;
        }
        if magic != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = r.u32().map_err(|_| CheckpointError::Truncated)?;
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let fingerprint = r.u64().map_err(|_| CheckpointError::Truncated)?;
        if fingerprint != expected_fingerprint {
            return Err(CheckpointError::FingerprintMismatch {
                expected: expected_fingerprint,
                found: fingerprint,
            });
        }
        let state_hash = r.u64().map_err(|_| CheckpointError::Truncated)?;
        let ops_consumed = r.u64().map_err(|_| CheckpointError::Truncated)?;
        let cursor = RunCursor::load_snap(&mut r)?;
        let body = r.bytes()?;
        r.finish()?;
        // The state hash covers the observable sections — everything but
        // the diagnostic tail [`System::checkpoint`] appends.
        let observable = body
            .len()
            .checked_sub(crate::system::DIAGNOSTIC_TAIL_BYTES)
            .and_then(|n| body.get(..n))
            .ok_or(CheckpointError::Truncated)?;
        let found = fnv1a64(observable);
        if found != state_hash {
            return Err(CheckpointError::HashMismatch {
                expected: state_hash,
                found,
            });
        }
        // The body is the file's tail: keep the read buffer as the body
        // rather than copying it into a second allocation.
        let header = bytes.len() - body.len();
        bytes.drain(..header);
        Ok(Checkpoint {
            fingerprint,
            state_hash,
            ops_consumed,
            cursor,
            body: bytes,
        })
    }

    /// Restores the checkpoint into `sys` (built from the cell's
    /// configuration).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] or [`CheckpointError::Truncated`]
    /// when the body does not decode against `sys`'s configuration.
    pub fn restore_into(&self, sys: &mut System) -> Result<(), CheckpointError> {
        sys.restore(&self.body)?;
        Ok(())
    }
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// When and where [`try_simulate_checkpointed`] writes checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Memory cycles between checkpoints; 0 disables checkpointing
    /// entirely (the run is one uninterrupted chunk).
    pub every: u64,
    /// Checkpoint file path for this cell.
    pub path: PathBuf,
    /// Cell fingerprint the file is bound to.
    pub fingerprint: u64,
    /// Whether each checkpoint write is fsynced before the atomic rename.
    /// `true` survives OS crashes and power loss; `false` trades that for
    /// a much cheaper write (only process crashes are fully covered — a
    /// torn file from a harder failure is detected at load and the cell
    /// restarts from scratch, bit-identically).
    pub durable: bool,
    /// The filesystem the checkpoint protocol runs through —
    /// [`crate::simio::real_io`] in production, a
    /// [`crate::simio::ChaosIo`] under the crash-point matrix.
    pub io: Arc<dyn SimIo>,
}

impl CheckpointPolicy {
    /// A production policy (real filesystem, durable writes).
    pub fn new(every: u64, path: PathBuf, fingerprint: u64) -> CheckpointPolicy {
        CheckpointPolicy {
            every,
            path,
            fingerprint,
            durable: true,
            io: real_io(),
        }
    }
}

/// A failure of a checkpointed run: either the simulation itself stalled
/// or the checkpoint plumbing failed.
#[derive(Debug)]
pub enum CheckpointedRunError {
    /// The simulation latched a forward-progress failure.
    Run(RunError),
    /// A checkpoint could not be written.
    Checkpoint(CheckpointError),
}

impl core::fmt::Display for CheckpointedRunError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CheckpointedRunError::Run(e) => e.fmt(f),
            CheckpointedRunError::Checkpoint(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for CheckpointedRunError {}

impl From<RunError> for CheckpointedRunError {
    fn from(e: RunError) -> Self {
        CheckpointedRunError::Run(e)
    }
}

impl From<CheckpointError> for CheckpointedRunError {
    fn from(e: CheckpointError) -> Self {
        CheckpointedRunError::Checkpoint(e)
    }
}

/// Runs one cell with crash recovery: resume from a valid checkpoint if
/// one exists, simulate in [`CheckpointPolicy::every`]-cycle chunks
/// rewriting the checkpoint at each boundary, and remove the file once
/// the cell completes.
///
/// `make_workload` must rebuild the workload deterministically (same
/// seed) on every call; a resumed run rebuilds it and fast-forwards by
/// the recorded op count, which replays the exact stream position.
///
/// An unreadable or invalid existing checkpoint (torn write that beat
/// the atomic rename, stale fingerprint, bit rot) is **not** fatal: the
/// cell restarts from scratch, exactly as if no checkpoint existed,
/// and the bad file is overwritten at the next boundary. The results are
/// byte-identical either way — checkpointing only changes how much work a
/// crash can lose.
///
/// # Errors
///
/// [`CheckpointedRunError::Run`] for simulation stalls,
/// [`CheckpointedRunError::Checkpoint`] when a checkpoint cannot be
/// written (a cell that cannot record progress should fail loudly, not
/// silently lose its crash safety).
pub fn try_simulate_checkpointed<W, F>(
    cfg: &SystemConfig,
    make_workload: F,
    len: RunLength,
    policy: &CheckpointPolicy,
) -> Result<SimReport, CheckpointedRunError>
where
    W: OpSource,
    F: Fn() -> W,
{
    let mut sys = System::new(cfg);
    let mut workload = CountingSource::new(make_workload());
    let mut cursor;
    match (policy.every > 0)
        .then(|| {
            Checkpoint::load_with_io(&policy.path, policy.fingerprint, policy.io.as_ref()).ok()
        })
        .flatten()
    {
        Some(ckpt) if ckpt.restore_into(&mut sys).is_ok() => {
            workload.skip(ckpt.ops_consumed);
            cursor = ckpt.cursor;
        }
        _ => {
            // No checkpoint (or an unusable one): fresh start. The system
            // may have been half-restored by a failed attempt, so rebuild.
            sys = System::new(cfg);
            sys.warm(&mut workload);
            cursor = RunCursor::start(&sys);
        }
    }
    let budget = if policy.every > 0 {
        policy.every
    } else {
        u64::MAX
    };
    // One encode buffer for the whole run: every checkpoint reuses the
    // allocation the first one grew.
    let mut scratch = SnapWriter::new();
    loop {
        match sys.try_run_chunk(&mut workload, len, &mut cursor, budget)? {
            ChunkOutcome::Done => break,
            ChunkOutcome::Paused => {
                Checkpoint::capture(&sys, policy.fingerprint, workload.consumed(), cursor)?
                    .save_with_io(
                        &policy.path,
                        &mut scratch,
                        policy.durable,
                        policy.io.as_ref(),
                    )?;
            }
        }
    }
    let name = workload.name().to_string();
    if policy.every > 0 {
        // The cell is complete; its checkpoint is stale by construction. A
        // crash before or after this best-effort delete leaves a stale file
        // that resume GC removes once the journal proves the cell done.
        #[expect(
            clippy::disallowed_methods,
            reason = "best-effort cleanup of a completed cell's checkpoint, not a crash point"
        )]
        let _ = fs::remove_file(&policy.path);
    }
    Ok(sys.report(name))
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests set up, corrupt and clean up fixture files directly"
)]
mod tests {
    use super::*;
    use crate::{journal::fingerprint, try_simulate};
    use burst_core::Mechanism;
    use burst_workloads::SpecBenchmark;

    fn cfg() -> SystemConfig {
        SystemConfig::baseline()
            .with_mechanism(Mechanism::BurstTh(52))
            .with_warm_mem_ops(1_000)
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("burst-checkpoint-tests");
        let _ = fs::create_dir_all(&dir);
        dir.join(name)
    }

    #[test]
    fn checkpointed_run_matches_uninterrupted_run() {
        let cfg = cfg();
        let len = RunLength::Instructions(30_000);
        let reference =
            try_simulate(&cfg, SpecBenchmark::Swim.workload(9), len).expect("reference run");
        let path = tmp("match.ckpt");
        let _ = fs::remove_file(&path);
        let policy = CheckpointPolicy::new(1_500, path.clone(), fingerprint("match"));
        let got = try_simulate_checkpointed(&cfg, || SpecBenchmark::Swim.workload(9), len, &policy)
            .expect("checkpointed run");
        assert_eq!(got, reference, "checkpointing must not change results");
        assert!(!path.exists(), "completed cell removes its checkpoint");
    }

    #[test]
    fn non_durable_checkpointing_is_bit_identical_and_resumable() {
        let cfg = cfg();
        let len = RunLength::Instructions(30_000);
        let reference =
            try_simulate(&cfg, SpecBenchmark::Swim.workload(9), len).expect("reference run");
        let path = tmp("nondurable.ckpt");
        let _ = fs::remove_file(&path);
        let fp = fingerprint("nondurable");
        let policy = CheckpointPolicy {
            durable: false,
            ..CheckpointPolicy::new(1_500, path.clone(), fp)
        };
        let got = try_simulate_checkpointed(&cfg, || SpecBenchmark::Swim.workload(9), len, &policy)
            .expect("non-durable checkpointed run");
        assert_eq!(got, reference, "skipping fsync must not change results");
        assert!(!path.exists(), "completed cell removes its checkpoint");

        // A file written without fsync is still a valid checkpoint to
        // resume from (process-crash safety is the rename, not the sync):
        // run a few chunks by hand with save_with, then resume.
        let mut sys = System::new(&cfg);
        let mut w = CountingSource::new(SpecBenchmark::Swim.workload(9));
        sys.warm(&mut w);
        let mut cursor = RunCursor::start(&sys);
        let mut scratch = SnapWriter::new();
        for _ in 0..3 {
            match sys.try_run_chunk(&mut w, len, &mut cursor, 1_500).unwrap() {
                ChunkOutcome::Paused => {
                    Checkpoint::capture(&sys, fp, w.consumed(), cursor)
                        .unwrap()
                        .save_with(&path, &mut scratch, false)
                        .unwrap();
                }
                ChunkOutcome::Done => panic!("run must outlast three chunks"),
            }
        }
        assert!(path.exists());
        let resumed =
            try_simulate_checkpointed(&cfg, || SpecBenchmark::Swim.workload(9), len, &policy)
                .expect("resume from non-durable checkpoint");
        assert_eq!(resumed, reference, "resume must be byte-identical");
    }

    #[test]
    fn resume_from_mid_run_checkpoint_is_byte_identical() {
        let cfg = cfg();
        let len = RunLength::Instructions(30_000);
        let reference =
            try_simulate(&cfg, SpecBenchmark::Mcf.workload(5), len).expect("reference run");
        let path = tmp("resume.ckpt");
        let _ = fs::remove_file(&path);
        let fp = fingerprint("resume");

        // Simulate a crash: run a few chunks by hand, leaving a
        // checkpoint on disk, then abandon the system mid-run.
        {
            let mut sys = System::new(&cfg);
            let mut w = CountingSource::new(SpecBenchmark::Mcf.workload(5));
            sys.warm(&mut w);
            let mut cursor = RunCursor::start(&sys);
            for _ in 0..3 {
                match sys.try_run_chunk(&mut w, len, &mut cursor, 1_000).unwrap() {
                    ChunkOutcome::Paused => {
                        Checkpoint::capture(&sys, fp, w.consumed(), cursor)
                            .unwrap()
                            .save(&path)
                            .unwrap();
                    }
                    ChunkOutcome::Done => panic!("run must outlast three chunks"),
                }
            }
        }
        assert!(path.exists());

        let policy = CheckpointPolicy::new(1_000, path.clone(), fp);
        let got = try_simulate_checkpointed(&cfg, || SpecBenchmark::Mcf.workload(5), len, &policy)
            .expect("resumed run");
        assert_eq!(got, reference, "resume must be byte-identical");
    }

    #[test]
    fn load_rejects_every_corruption_mode() {
        let cfg = cfg();
        let fp = fingerprint("corrupt");
        let path = tmp("corrupt.ckpt");
        let mut sys = System::new(&cfg);
        let mut w = CountingSource::new(SpecBenchmark::Swim.workload(1));
        sys.warm(&mut w);
        sys.try_run(&mut w, RunLength::MemCycles(2_000)).unwrap();
        let ckpt = Checkpoint::capture(&sys, fp, w.consumed(), RunCursor::start(&sys)).unwrap();
        ckpt.save(&path).unwrap();

        // A pristine file round-trips.
        let back = Checkpoint::load(&path, fp).expect("valid file loads");
        assert_eq!(back, ckpt);

        // Wrong fingerprint.
        assert!(matches!(
            Checkpoint::load(&path, fp ^ 1),
            Err(CheckpointError::FingerprintMismatch { .. })
        ));

        let bytes = fs::read(&path).unwrap();

        // Truncation at every interesting boundary.
        for cut in [0, 3, 4, 7, 8, 15, 16, 23, 24, bytes.len() - 1] {
            fs::write(&path, &bytes[..cut]).unwrap();
            assert!(
                Checkpoint::load(&path, fp).is_err(),
                "truncation at {cut} must be rejected"
            );
        }

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        fs::write(&path, &bad).unwrap();
        assert!(matches!(
            Checkpoint::load(&path, fp),
            Err(CheckpointError::BadMagic)
        ));

        // Future version.
        let mut bad = bytes.clone();
        bad[4] = 99;
        fs::write(&path, &bad).unwrap();
        assert!(matches!(
            Checkpoint::load(&path, fp),
            Err(CheckpointError::UnsupportedVersion(99))
        ));

        // A flipped bit in the body's observable sections trips the hash
        // check (the diagnostic tail at the very end is not hashed).
        let mut bad = bytes.clone();
        let last = bad.len() - crate::system::DIAGNOSTIC_TAIL_BYTES - 20;
        bad[last] ^= 0x40;
        fs::write(&path, &bad).unwrap();
        assert!(matches!(
            Checkpoint::load(&path, fp),
            Err(CheckpointError::HashMismatch { .. })
        ));

        // Missing file is a plain Io error.
        let _ = fs::remove_file(&path);
        assert!(matches!(
            Checkpoint::load(&path, fp),
            Err(CheckpointError::Io(_))
        ));
    }

    #[test]
    fn unusable_checkpoint_falls_back_to_fresh_start() {
        let cfg = cfg();
        let len = RunLength::Instructions(8_000);
        let reference =
            try_simulate(&cfg, SpecBenchmark::Swim.workload(2), len).expect("reference run");
        let path = tmp("fallback.ckpt");
        fs::write(&path, b"garbage, not a checkpoint at all").unwrap();
        let policy = CheckpointPolicy::new(2_000, path.clone(), fingerprint("fallback"));
        let got = try_simulate_checkpointed(&cfg, || SpecBenchmark::Swim.workload(2), len, &policy)
            .expect("fresh start");
        assert_eq!(got, reference, "garbage checkpoint must not poison the run");
    }
}
