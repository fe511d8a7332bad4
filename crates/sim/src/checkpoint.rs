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
//!    watchdog across the boundary. These, with the body's unhashed
//!    diagnostic tail, are covered by a second digest, so a flipped byte
//!    there surfaces as [`CheckpointError::HeaderMismatch`] instead of a
//!    resume at the wrong stream position.
//!
//! File layout (all little-endian, via [`burst_snap`]):
//!
//! ```text
//! "BCKP"  u32 version=5  u64 fingerprint  u64 state_hash  u64 header_hash
//! u64 ops_consumed  RunCursor  bytes body
//! ```
//!
//! Version 5 drops the no-op tick counter from the body's diagnostic
//! tail (every stepped cycle now runs the full controller tick, so there
//! is nothing left to count) and the occupancy-sampling countdown from
//! the controller state (occupancy is recorded on every tick). Version 4 wrote the statistics counters and
//! histogram buckets as varints. Version 3 wrote them at fixed width; it added every CPU core,
//! the owning core of each in-flight read and `header_hash`. Version 2
//! stored one core; version 1 also stored cache ways at fixed width. Older
//! files are refused with [`CheckpointError::UnsupportedVersion`], which
//! [`try_simulate_checkpointed`] treats like any unusable file: the cell
//! restarts from scratch.
//!
//! [`try_simulate_checkpointed`] is the harness entry point: it resumes
//! from an existing valid checkpoint, simulates in
//! [`CheckpointPolicy::every`]-cycle chunks, rewrites the checkpoint at
//! each chunk boundary on a writer thread while the next chunk simulates,
//! and removes it once the cell completes.

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
use std::thread::JoinHandle;

use burst_snap::{fnv1a64, SnapError, SnapReader, SnapWriter};
use burst_workloads::{CountingSource, OpSource};

use crate::simio::{real_io, IoSite, RealIo, SimIo};
use crate::system::{
    ChunkOutcome, RunCursor, RunError, RunLength, SimReport, System, SystemConfig,
};

/// Magic bytes opening every checkpoint file.
const MAGIC: [u8; 4] = *b"BCKP";
/// Current checkpoint format version.
const VERSION: u32 = 5;
/// A bound on a file's bytes ahead of the body: magic, version, three
/// digests, `ops_consumed`, the [`RunCursor`] and the body's length prefix
/// take 72.
const HEADER_BOUND: usize = 128;

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
    /// The run position or the body's diagnostic tail does not hash to
    /// the recorded header digest (bit rot or a hand-edited file).
    HeaderMismatch {
        /// Digest recorded in the header.
        expected: u64,
        /// Digest of the run position and diagnostic tail as read.
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
            CheckpointError::HeaderMismatch { expected, found } => write!(
                f,
                "checkpoint run position hashes to {found:016x}, not the \
                 recorded header digest {expected:016x}"
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
    /// sibling, are fsynced (when `durable`), and only then renamed over
    /// `path` — so a crash at any instant leaves either the previous
    /// checkpoint or this one, never a torn hybrid. `scratch` is the
    /// encode buffer; it is cleared and reused, so a loop writing many
    /// checkpoints pays for one allocation, not one per checkpoint.
    ///
    /// Every caller passes `durable` as `true`; the argument goes with
    /// benchmark revision 2. Without the fsync an OS crash could tear the
    /// file, which [`Checkpoint::load`] would then reject.
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
        scratch.u64(header_hash(self.ops_consumed, &self.cursor, &self.body));
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

    /// Reads and validates a checkpoint through `io` (the chaos seam,
    /// [`IoSite::CkptRead`]): magic, version, fingerprint, body hash and
    /// header digest are all checked before any state is touched. A
    /// truncated read surfaces through the same validation chain.
    ///
    /// # Errors
    ///
    /// Every [`CheckpointError`] variant; a malformed file never panics.
    pub fn load(
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
        let recorded_header = r.u64().map_err(|_| CheckpointError::Truncated)?;
        let ops_consumed = r.u64().map_err(|_| CheckpointError::Truncated)?;
        let cursor = RunCursor::load_snap(&mut r)?;
        let body = r.bytes()?;
        r.finish()?;
        let found = body_state_hash(body)?;
        if found != state_hash {
            return Err(CheckpointError::HashMismatch {
                expected: state_hash,
                found,
            });
        }
        let found = header_hash(ops_consumed, &cursor, body);
        if found != recorded_header {
            return Err(CheckpointError::HeaderMismatch {
                expected: recorded_header,
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

/// The state hash of a [`System::checkpoint`] body: FNV-1a over its
/// observable sections, which is everything but the diagnostic tail.
fn body_state_hash(body: &[u8]) -> Result<u64, CheckpointError> {
    body.len()
        .checked_sub(crate::system::DIAGNOSTIC_TAIL_BYTES)
        .and_then(|n| body.get(..n))
        .map(fnv1a64)
        .ok_or(CheckpointError::Truncated)
}

/// FNV-1a digest of what the state hash leaves uncovered: the run
/// position (`ops_consumed` and the cursor) and the body's diagnostic
/// tail — about a hundred bytes, so it costs no pass over the body.
fn header_hash(ops_consumed: u64, cursor: &RunCursor, body: &[u8]) -> u64 {
    let mut w = SnapWriter::new();
    w.u64(ops_consumed);
    cursor.save_snap(&mut w);
    let tail = body
        .len()
        .saturating_sub(crate::system::DIAGNOSTIC_TAIL_BYTES);
    w.bytes(body.get(tail..).unwrap_or_default());
    fnv1a64(w.as_slice())
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// When and where [`try_simulate_checkpointed`] writes checkpoints.
///
/// The checkpoint of a boundary is on disk (fsynced, then renamed into
/// place) by the next boundary or the end of the
/// cell, not when the simulation passes it: the write runs in the
/// background meanwhile. A crash therefore loses at most two intervals of
/// work, the one being written and the one being simulated.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Memory cycles between checkpoints; 0 disables checkpointing
    /// entirely (the run is one uninterrupted chunk).
    pub every: u64,
    /// Checkpoint file path for this cell.
    pub path: PathBuf,
    /// Cell fingerprint the file is bound to.
    pub fingerprint: u64,
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
/// Each rewrite overlaps the next chunk: the run serialises the state at
/// the boundary and hands it to a writer thread, which hashes it and runs
/// the atomic `.tmp` → fsync → rename protocol through
/// [`CheckpointPolicy::io`] while the simulation goes on. At most one write
/// is in flight. The run waits for it, and checks its result, before the
/// next hand-off, before removing the finished cell's file, and on every
/// error or unwinding exit, so no write outlives the call.
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
/// crash can lose: up to two checkpoint intervals, since the checkpoint
/// of the last boundary may still be in flight.
///
/// # Errors
///
/// [`CheckpointedRunError::Run`] for simulation stalls,
/// [`CheckpointedRunError::Checkpoint`] when a checkpoint cannot be
/// written (a cell that cannot record progress should fail loudly, not
/// silently lose its crash safety). A failed write surfaces at the next
/// boundary or at the end of the cell, whichever comes first.
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
        .then(|| Checkpoint::load(&policy.path, policy.fingerprint, policy.io.as_ref()).ok())
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
    // Dropped on an unwinding exit, the writer waits for its write there.
    let mut writer = CheckpointWriter::default();
    let run = loop {
        match sys.try_run_chunk(&mut workload, len, &mut cursor, budget) {
            Ok(ChunkOutcome::Done) => break Ok(()),
            Ok(ChunkOutcome::Paused) => {
                if let Err(e) = writer.hand_off(&sys, workload.consumed(), cursor, policy) {
                    break Err(CheckpointedRunError::Checkpoint(e));
                }
            }
            Err(e) => break Err(CheckpointedRunError::Run(e)),
        }
    };
    // Every exit waits for the write in flight; a stall outranks its error.
    let written = writer.wait();
    run?;
    written?;
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

/// What a background checkpoint write hands back: the body and file-image
/// buffers, for the next checkpoint to reuse, and the write's result.
type Written = (Vec<u8>, SnapWriter, Result<(), CheckpointError>);

/// The background half of [`try_simulate_checkpointed`]: at most one
/// checkpoint write in flight, each on a thread of its own.
///
/// Capture stays on the simulating thread and serialises into the body
/// buffer the previous write handed back; the writer thread does the rest
/// (state hash, header, file image in the scratch buffer, and the atomic
/// write through the policy's [`SimIo`]). So a run holds two checkpoint
/// images at most, the body and its file image. The type is not generic
/// and its methods are never inlined, which keeps the thread plumbing out
/// of the generic chunk loop.
#[derive(Default)]
struct CheckpointWriter {
    /// The write in flight.
    pending: Option<JoinHandle<Written>>,
    /// The body buffer while no write is in flight.
    body: Vec<u8>,
    /// The file-image buffer while no write is in flight.
    scratch: SnapWriter,
}

impl CheckpointWriter {
    /// Waits for the previous write, then captures `sys` at this boundary
    /// and starts writing it to [`CheckpointPolicy::path`].
    ///
    /// # Errors
    ///
    /// The previous write's failure, a state that cannot be serialised, or
    /// a writer thread that cannot be started.
    #[inline(never)]
    fn hand_off(
        &mut self,
        sys: &System,
        ops_consumed: u64,
        cursor: RunCursor,
        policy: &CheckpointPolicy,
    ) -> Result<(), CheckpointError> {
        self.wait()?;
        let body = sys.checkpoint_into(std::mem::take(&mut self.body))?;
        // Grow the file image here rather than on the writer thread, so it
        // comes from the same allocator arena as the body: grown there, it
        // raised the benchmark's peak memory by ~0.3 MiB (DESIGN §11).
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.reserve(body.len() + HEADER_BOUND);
        let fingerprint = policy.fingerprint;
        let (path, io) = (policy.path.clone(), Arc::clone(&policy.io));
        let handle = std::thread::Builder::new()
            .name("checkpoint-writer".into())
            .spawn(move || {
                let mut ckpt = Checkpoint {
                    fingerprint,
                    state_hash: 0,
                    ops_consumed,
                    cursor,
                    body,
                };
                let written = body_state_hash(&ckpt.body).and_then(|state_hash| {
                    ckpt.state_hash = state_hash;
                    ckpt.save_with_io(&path, &mut scratch, true, io.as_ref())
                });
                (ckpt.body, scratch, written)
            })?;
        self.pending = Some(handle);
        Ok(())
    }

    /// Waits for the write in flight, if any, and returns its result.
    ///
    /// # Errors
    ///
    /// The write's failure. A panic on the writer thread is resumed here.
    #[inline(never)]
    fn wait(&mut self) -> Result<(), CheckpointError> {
        let Some(handle) = self.pending.take() else {
            return Ok(());
        };
        match handle.join() {
            Ok((body, scratch, written)) => {
                self.body = body;
                self.scratch = scratch;
                written
            }
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
}

impl Drop for CheckpointWriter {
    /// Waits for the write in flight, so a run that unwinds never leaves
    /// one behind: a retry of the cell must not race a late rename. The
    /// result is dropped: whatever unwinds already outranks it.
    fn drop(&mut self) {
        if let Some(handle) = self.pending.take() {
            let _ = handle.join();
        }
    }
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
                            .save_with(&path, &mut SnapWriter::new(), true)
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
        ckpt.save_with(&path, &mut SnapWriter::new(), true).unwrap();

        // A pristine file round-trips.
        let back = Checkpoint::load(&path, fp, &RealIo).expect("valid file loads");
        assert_eq!(back, ckpt);
        let header = fs::read(&path).unwrap().len() - ckpt.body.len();
        assert!(header <= HEADER_BOUND, "{header}-byte header");

        // Wrong fingerprint.
        assert!(matches!(
            Checkpoint::load(&path, fp ^ 1, &RealIo),
            Err(CheckpointError::FingerprintMismatch { .. })
        ));

        let bytes = fs::read(&path).unwrap();

        // Truncation at every interesting boundary.
        for cut in [0, 3, 4, 7, 8, 15, 16, 23, 24, bytes.len() - 1] {
            fs::write(&path, &bytes[..cut]).unwrap();
            assert!(
                Checkpoint::load(&path, fp, &RealIo).is_err(),
                "truncation at {cut} must be rejected"
            );
        }

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        fs::write(&path, &bad).unwrap();
        assert!(matches!(
            Checkpoint::load(&path, fp, &RealIo),
            Err(CheckpointError::BadMagic)
        ));

        // Future version.
        let mut bad = bytes.clone();
        bad[4] = 99;
        fs::write(&path, &bad).unwrap();
        assert!(matches!(
            Checkpoint::load(&path, fp, &RealIo),
            Err(CheckpointError::UnsupportedVersion(99))
        ));

        // A flipped bit in the body's observable sections trips the hash
        // check (the diagnostic tail at the very end is not hashed).
        let mut bad = bytes.clone();
        let last = bad.len() - crate::system::DIAGNOSTIC_TAIL_BYTES - 20;
        bad[last] ^= 0x40;
        fs::write(&path, &bad).unwrap();
        assert!(matches!(
            Checkpoint::load(&path, fp, &RealIo),
            Err(CheckpointError::HashMismatch { .. })
        ));

        // A flipped bit in the run position (`ops_consumed` follows magic,
        // version and three digests) or in the diagnostic tail trips the
        // header digest.
        for at in [32, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x01;
            fs::write(&path, &bad).unwrap();
            assert!(
                matches!(
                    Checkpoint::load(&path, fp, &RealIo),
                    Err(CheckpointError::HeaderMismatch { .. })
                ),
                "flip at {at}"
            );
        }

        // Missing file is a plain Io error.
        let _ = fs::remove_file(&path);
        assert!(matches!(
            Checkpoint::load(&path, fp, &RealIo),
            Err(CheckpointError::Io(_))
        ));
    }

    /// A scripted fault at `ckpt-sync`, then at `ckpt-rename`, on a mid-run
    /// write: the run fails with the checkpoint error once the failed write
    /// is joined, starts no write after it, and what it leaves on disk
    /// resumes to the uninterrupted run's report.
    #[test]
    fn a_mid_run_sync_or_rename_fault_fails_the_run_and_resumes_identically() {
        use crate::simio::{ChaosIo, IoFaultKind};
        let cfg = cfg();
        let len = RunLength::Instructions(30_000);
        let reference =
            try_simulate(&cfg, SpecBenchmark::Swim.workload(9), len).expect("reference run");
        let fp = fingerprint("mid-run-fault");
        let policy_with = |path: &Path, io: Arc<dyn SimIo>| CheckpointPolicy {
            io,
            ..CheckpointPolicy::new(1_500, path.to_path_buf(), fp)
        };
        let path = tmp("mid-run-count.ckpt");
        let counting = Arc::new(ChaosIo::counting());
        try_simulate_checkpointed(
            &cfg,
            || SpecBenchmark::Swim.workload(9),
            len,
            &policy_with(&path, counting.clone()),
        )
        .expect("counting run");
        let writes = counting.ops_at(IoSite::CkptRename);
        assert!(writes >= 4, "{writes} checkpoints");
        let op = writes / 2;

        for site in [IoSite::CkptSync, IoSite::CkptRename] {
            let path = tmp(&format!("mid-run-{site}.ckpt"));
            let _ = fs::remove_file(&path);
            let chaos = Arc::new(ChaosIo::scripted(site, IoFaultKind::Fail, op));
            let err = try_simulate_checkpointed(
                &cfg,
                || SpecBenchmark::Swim.workload(9),
                len,
                &policy_with(&path, chaos.clone()),
            )
            .expect_err("the injected fault fails the run");
            assert!(
                matches!(
                    err,
                    CheckpointedRunError::Checkpoint(CheckpointError::Io(_))
                ),
                "{site}: {err}"
            );
            assert_eq!(chaos.fault_log(), vec![(site, op, IoFaultKind::Fail)]);
            // Joined, and nothing written after the failed write.
            assert_eq!(chaos.ops_at(IoSite::CkptTmpWrite), op + 1, "{site}");
            assert_eq!(chaos.ops_at(IoSite::CkptSync), op + 1, "{site}");
            let renamed = op + u64::from(site == IoSite::CkptRename);
            assert_eq!(chaos.ops_at(IoSite::CkptRename), renamed, "{site}");
            assert!(
                tmp_path(&path).exists(),
                "{site}: the failed write's scratch file"
            );
            Checkpoint::load(&path, fp, &RealIo).expect("the previous checkpoint survives");

            let resumed = try_simulate_checkpointed(
                &cfg,
                || SpecBenchmark::Swim.workload(9),
                len,
                &CheckpointPolicy::new(1_500, path.clone(), fp),
            )
            .expect("resumed run");
            assert_eq!(resumed, reference, "{site}: resume must be byte-identical");
            assert!(
                !path.exists(),
                "{site}: completed cell removes its checkpoint"
            );
        }
    }

    /// The last boundary falls one cycle before the end, so the final
    /// write is still in flight when the cell completes: it must be joined
    /// before the checkpoint is removed, or its rename would bring the file
    /// back.
    #[test]
    fn a_final_boundary_just_before_done_leaves_no_checkpoint_files() {
        use crate::simio::ChaosIo;
        let cfg = cfg();
        let every = 2_000;
        let len = RunLength::MemCycles(3 * every + 1);
        let reference =
            try_simulate(&cfg, SpecBenchmark::Swim.workload(4), len).expect("reference run");
        let dir = tmp("final-boundary");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let counting = Arc::new(ChaosIo::counting());
        let policy = CheckpointPolicy {
            io: counting.clone(),
            ..CheckpointPolicy::new(every, dir.join("cell.ckpt"), fingerprint("final"))
        };
        let got = try_simulate_checkpointed(&cfg, || SpecBenchmark::Swim.workload(4), len, &policy)
            .expect("checkpointed run");
        assert_eq!(got, reference);
        assert_eq!(
            counting.ops_at(IoSite::CkptRename),
            3,
            "a write per boundary"
        );
        let left: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert!(left.is_empty(), "no *.ckpt or *.ckpt.tmp left: {left:?}");
    }

    /// A filesystem whose rename holds until the test lets it go, so a
    /// write is provably in flight when the simulating thread panics, and
    /// then takes [`SLOW_RENAME`], so a run that did not wait for it would
    /// finish unwinding first.
    #[derive(Debug)]
    struct HeldRename {
        /// Signalled once the writer has reached its rename.
        entered: std::sync::Mutex<std::sync::mpsc::Sender<()>>,
        /// Awaited before renaming.
        release: std::sync::Mutex<std::sync::mpsc::Receiver<()>>,
        renamed: std::sync::atomic::AtomicBool,
    }

    impl SimIo for HeldRename {
        fn write_new(&self, site: IoSite, path: &Path, bytes: &[u8]) -> std::io::Result<fs::File> {
            RealIo.write_new(site, path, bytes)
        }
        fn open_append(&self, site: IoSite, path: &Path) -> std::io::Result<fs::File> {
            RealIo.open_append(site, path)
        }
        fn append(&self, site: IoSite, file: &mut fs::File, bytes: &[u8]) -> std::io::Result<()> {
            RealIo.append(site, file, bytes)
        }
        fn sync(&self, site: IoSite, file: &fs::File) -> std::io::Result<()> {
            RealIo.sync(site, file)
        }
        fn rename(&self, site: IoSite, from: &Path, to: &Path) -> std::io::Result<()> {
            let _ = self.entered.lock().unwrap().send(());
            let waited = self.release.lock().unwrap().recv_timeout(TIMEOUT);
            waited.expect("the simulating thread releases the rename");
            std::thread::sleep(SLOW_RENAME);
            RealIo.rename(site, from, to)?;
            self.renamed
                .store(true, std::sync::atomic::Ordering::SeqCst);
            Ok(())
        }
        fn read(&self, site: IoSite, path: &Path) -> std::io::Result<Vec<u8>> {
            RealIo.read(site, path)
        }
    }

    /// Guards the test below against a hang; the interleaving itself is
    /// forced by channels.
    const TIMEOUT: std::time::Duration = std::time::Duration::from_secs(60);

    /// How long a released rename takes: far longer than unwinding out of
    /// a run.
    const SLOW_RENAME: std::time::Duration = std::time::Duration::from_millis(100);

    /// A workload that, at its `panic_at`-th operation, waits for the
    /// writer to reach its held rename and then panics, releasing the
    /// rename as it unwinds.
    struct PanicMidWrite<W> {
        inner: W,
        drawn: u64,
        panic_at: u64,
        entered: std::sync::mpsc::Receiver<()>,
        release: std::sync::mpsc::Sender<()>,
    }

    /// Sends on drop: the panic's unwinding lets the held rename go.
    struct ReleaseOnDrop<'a>(&'a std::sync::mpsc::Sender<()>);

    impl Drop for ReleaseOnDrop<'_> {
        fn drop(&mut self) {
            let _ = self.0.send(());
        }
    }

    impl<W: OpSource> OpSource for PanicMidWrite<W> {
        fn next_op(&mut self) -> burst_workloads::Op {
            if self.drawn == self.panic_at {
                let entered = self.entered.recv_timeout(TIMEOUT);
                entered.expect("the writer reaches its rename");
                let _release = ReleaseOnDrop(&self.release);
                panic!("simulated crash while a checkpoint write is in flight");
            }
            self.drawn += 1;
            self.inner.next_op()
        }
    }

    /// A panic on the simulating thread waits for the write in flight
    /// before unwinding out of the run, so the supervisor's retry of the
    /// cell never races a late rename.
    #[test]
    fn a_panic_mid_run_waits_for_the_write_in_flight() {
        let cfg = cfg();
        let len = RunLength::Instructions(30_000);
        let every = 1_500;
        let reference =
            try_simulate(&cfg, SpecBenchmark::Swim.workload(9), len).expect("reference run");
        // The operations drawn by the first boundary: the next draw comes
        // after the first hand-off.
        let mut sys = System::new(&cfg);
        let mut w = CountingSource::new(SpecBenchmark::Swim.workload(9));
        sys.warm(&mut w);
        let mut cursor = RunCursor::start(&sys);
        let first = sys.try_run_chunk(&mut w, len, &mut cursor, every).unwrap();
        assert_eq!(first, ChunkOutcome::Paused);
        let panic_at = w.consumed();
        sys.try_run_chunk(&mut w, len, &mut cursor, every).unwrap();
        assert!(w.consumed() > panic_at, "the second chunk draws operations");

        let path = tmp("panic-mid-write.ckpt");
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(tmp_path(&path));
        let (entered_tx, entered_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        let io = Arc::new(HeldRename {
            entered: std::sync::Mutex::new(entered_tx),
            release: std::sync::Mutex::new(release_rx),
            renamed: std::sync::atomic::AtomicBool::new(false),
        });
        let policy = CheckpointPolicy {
            io: io.clone(),
            ..CheckpointPolicy::new(every, path.clone(), fingerprint("panic"))
        };
        let channels = std::sync::Mutex::new(Some((entered_rx, release_tx)));
        let make = || {
            let (entered, release) = channels.lock().unwrap().take().expect("built once");
            PanicMidWrite {
                inner: SpecBenchmark::Swim.workload(9),
                drawn: 0,
                panic_at,
                entered,
                release,
            }
        };
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            try_simulate_checkpointed(&cfg, make, len, &policy)
        }));
        assert!(run.is_err(), "the workload panics mid-run");
        assert!(
            io.renamed.load(std::sync::atomic::Ordering::SeqCst),
            "unwinding waited for the write in flight"
        );
        assert!(!tmp_path(&path).exists(), "the write completed its rename");

        // The retry resumes from the write the panic waited for.
        let retry = CheckpointPolicy::new(every, path.clone(), fingerprint("panic"));
        let got = try_simulate_checkpointed(&cfg, || SpecBenchmark::Swim.workload(9), len, &retry)
            .expect("retried run");
        assert_eq!(got, reference, "the retry is byte-identical");
        assert!(!path.exists());
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
