//! Append-only, fsynced sweep journal: crash-safe resume for long
//! evaluation runs.
//!
//! A journal records every *successfully completed* `(scope, benchmark,
//! mechanism)` cell of a sweep as one self-contained line holding the
//! cell's full [`SimReport`], encoded by [`SimReport::save_snap`] (the
//! same `burst-snap` encoders checkpoints use) and written as hex. Each
//! line is flushed and fsynced before the supervisor moves on, so a run
//! killed at any instant loses at most the cell in flight. Restarting with
//! `--resume <journal>` replays the completed cells from the file and
//! simulates only the rest — and because every simulation is
//! deterministic and the snapshot encoding round-trips exactly, the
//! resumed sweep's CSV output is byte-identical to an uninterrupted run
//! (enforced by the kill-and-resume CI job).
//!
//! The file begins with a header binding it to a format version and a
//! *config fingerprint* — a hash over everything that changes cell results
//! (instruction budget, seed, benchmark list, skip toggle, binary id).
//! Resuming against a journal written under a different fingerprint is
//! refused: stale results must never leak into a differently-configured
//! sweep. A journal in another format version (v1 used a hand-written
//! text encoding) is refused with [`JournalError::UnsupportedVersion`]
//! and left untouched.
//!
//! *Retryable* failed cells are deliberately not journalled: a resume
//! retries them from scratch, which is exactly what an operator wants
//! after fixing the cause of the failure. Cells that exhaust their retry
//! budget are *quarantined*: a `quarantine` record is appended so resumes
//! skip them (surfacing the recorded failure) instead of burning the
//! whole retry budget again on every restart.
//!
//! Format (line-oriented UTF-8, no external dependencies):
//!
//! ```text
//! burst-journal v2 fp=<16-hex-digit fingerprint>
//! ok <key> <attempts> <hex SimReport snapshot> [checkpoint-path]
//! quarantine <key> <failure-kind> <attempts> <payload...>
//! ```
//!
//! The optional trailing token on `ok` records the mid-run checkpoint
//! file the cell was using (see [`crate::checkpoint`]), so a resumed
//! sweep can garbage-collect checkpoints that completed cells no longer
//! need. A trailing partial line (the crash point) is ignored on resume;
//! a *duplicate* record for the same cell is structural corruption (the
//! writer never re-records a completed or quarantined cell) and is
//! rejected with [`JournalError::DuplicateCell`]. Every filesystem touch
//! goes through the injectable [`crate::simio::SimIo`] layer so the chaos
//! matrix can crash any append, fsync or resume read deterministically;
//! after a torn append the writer self-heals by prefixing the next record
//! with a newline, sacrificing the torn line instead of corrupting the
//! record that follows it.

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

use std::collections::HashMap;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use burst_snap::{SnapReader, SnapWriter};

use crate::simio::{IoSite, SimIo};
use crate::supervisor::FailureKind;
use crate::SimReport;

/// Format version written in the journal header.
const VERSION: u32 = 2;

/// Hashes a canonical configuration description into a journal
/// fingerprint: FNV-1a, stable across hosts and builds.
pub fn fingerprint(desc: &str) -> u64 {
    burst_snap::fnv1a64(desc.as_bytes())
}

/// Why a journal could not be opened for resume.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The journal was written by a sweep with a different configuration.
    FingerprintMismatch {
        /// Fingerprint the resuming sweep expects.
        expected: u64,
        /// Fingerprint recorded in the journal header.
        found: u64,
    },
    /// The file exists but does not start with a journal header.
    NotAJournal,
    /// The header names a format version this build does not read. The
    /// file is left untouched.
    UnsupportedVersion(u32),
    /// Two records claim the same cell — the writer never does that, so
    /// the file was hand-edited or concatenated; refusing is safer than
    /// silently picking one of two possibly-different results.
    DuplicateCell {
        /// The cell key that appears more than once.
        key: String,
    },
}

impl core::fmt::Display for JournalError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::FingerprintMismatch { expected, found } => write!(
                f,
                "journal belongs to a different sweep configuration \
                 (expected fingerprint {expected:016x}, found {found:016x}); \
                 rerun without --resume or delete the journal"
            ),
            JournalError::NotAJournal => write!(f, "file is not a burst sweep journal"),
            JournalError::UnsupportedVersion(v) => write!(
                f,
                "journal format version {v} is not supported (this build reads \
                 version {VERSION}); move the old journal aside and rerun"
            ),
            JournalError::DuplicateCell { key } => write!(
                f,
                "journal holds more than one record for cell {key} — the \
                 file was edited or spliced; delete it and rerun"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// One journalled cell: how many attempts it took and its full report.
#[derive(Debug, Clone)]
pub struct JournalEntry {
    /// Attempts the supervisor consumed (1 = first try).
    pub attempts: u32,
    /// The cell's complete, losslessly round-tripped report.
    pub report: SimReport,
    /// Mid-run checkpoint file the cell was writing, if checkpointing was
    /// on — stale once the cell is journalled, so resumes delete it.
    pub checkpoint: Option<PathBuf>,
}

/// A cell the supervisor gave up on: recorded so resumes skip it instead
/// of re-burning its retry budget, and surface the original failure.
#[derive(Debug, Clone)]
pub struct QuarantineEntry {
    /// Failure taxonomy bucket of the final attempt.
    pub kind: FailureKind,
    /// Attempts consumed before quarantine.
    pub attempts: u32,
    /// Human-readable payload (panic message, diagnostic summary).
    pub payload: String,
}

/// The append handle plus a dirty bit: after a failed (possibly torn)
/// append, the next record starts with a fresh newline so it cannot
/// concatenate onto the torn prefix and lose *both* records.
#[derive(Debug)]
struct Appender {
    file: File,
    dirty: bool,
}

/// An open sweep journal: completed cells loaded at resume time plus an
/// append handle that fsyncs every record.
#[derive(Debug)]
pub struct Journal {
    writer: Mutex<Appender>,
    path: PathBuf,
    fingerprint: u64,
    completed: HashMap<String, JournalEntry>,
    quarantined: HashMap<String, QuarantineEntry>,
    /// Lines skipped while loading (at most the crash-truncated tail plus
    /// anything hand-mangled); surfaced so harnesses can warn.
    ignored_lines: usize,
    io: Arc<dyn SimIo>,
}

impl Journal {
    /// Creates (truncating) a fresh journal bound to `fingerprint`, with
    /// every write going through `io` ([`crate::simio::real_io`] in
    /// production, a [`crate::simio::ChaosIo`] under the chaos matrix).
    ///
    /// # Errors
    ///
    /// Any filesystem error creating or syncing the file.
    pub fn create(
        path: impl Into<PathBuf>,
        fingerprint: u64,
        io: Arc<dyn SimIo>,
    ) -> Result<Journal, JournalError> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "directory creation is not a labeled crash point; a failure surfaces via the write_new that follows"
                )]
                std::fs::create_dir_all(parent)?;
            }
        }
        let header = format!("burst-journal v{VERSION} fp={fingerprint:016x}\n");
        let file = io.write_new(IoSite::JournalAppend, &path, header.as_bytes())?;
        io.sync(IoSite::JournalSync, &file)?;
        Ok(Journal {
            writer: Mutex::new(Appender { file, dirty: false }),
            path,
            fingerprint,
            completed: HashMap::new(),
            quarantined: HashMap::new(),
            ignored_lines: 0,
            io,
        })
    }

    /// Opens an existing journal for resume through `io`: loads every
    /// completed cell, verifies the fingerprint, and positions the handle
    /// for appending. A missing file is not an error — it becomes a fresh
    /// journal, so `--resume` is safe to use on the very first run of a
    /// pipeline.
    ///
    /// # Errors
    ///
    /// [`JournalError::FingerprintMismatch`] when the journal belongs to a
    /// differently-configured sweep, [`JournalError::NotAJournal`] when
    /// the header is absent, [`JournalError::UnsupportedVersion`] when it
    /// names another format version, [`JournalError::DuplicateCell`] when two
    /// records claim one cell, or any I/O failure.
    pub fn resume(
        path: impl Into<PathBuf>,
        fingerprint: u64,
        io: Arc<dyn SimIo>,
    ) -> Result<Journal, JournalError> {
        let path = path.into();
        if !path.exists() {
            return Self::create(path, fingerprint, io);
        }
        let bytes = io.read(IoSite::JournalRead, &path)?;
        let text = String::from_utf8(bytes).map_err(|_| {
            JournalError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "journal is not valid UTF-8",
            ))
        })?;
        let mut lines = text.split_inclusive('\n');
        let header = lines.next().unwrap_or("");
        if !header.ends_with('\n') {
            // The header itself is the crash-truncated tail: the create
            // never completed, so there is nothing to resume.
            return Err(JournalError::NotAJournal);
        }
        let (version, found) = header
            .trim_end()
            .strip_prefix("burst-journal v")
            .and_then(|h| h.split_once(" fp="))
            .ok_or(JournalError::NotAJournal)?;
        let version: u32 = version.parse().map_err(|_| JournalError::NotAJournal)?;
        if version != VERSION {
            return Err(JournalError::UnsupportedVersion(version));
        }
        let found = u64::from_str_radix(found, 16).map_err(|_| JournalError::NotAJournal)?;
        if found != fingerprint {
            return Err(JournalError::FingerprintMismatch {
                expected: fingerprint,
                found,
            });
        }
        let mut completed: HashMap<String, JournalEntry> = HashMap::new();
        let mut quarantined: HashMap<String, QuarantineEntry> = HashMap::new();
        let mut ignored_lines = 0;
        for line in lines {
            // A line without its newline is the crash-truncated tail; it
            // was never fsynced as a whole record, so drop it.
            if !line.ends_with('\n') {
                ignored_lines += 1;
                continue;
            }
            let line = line.trim_end_matches('\n');
            if line.is_empty() {
                // Deliberate re-sync padding after a torn append — see
                // the Appender dirty bit. Not corruption, not counted.
                continue;
            }
            if let Some((key, entry)) = parse_quarantine(line) {
                if completed.contains_key(&key) || quarantined.contains_key(&key) {
                    return Err(JournalError::DuplicateCell { key });
                }
                quarantined.insert(key, entry);
                continue;
            }
            match parse_record(line) {
                Some((key, entry)) => {
                    if completed.contains_key(&key) || quarantined.contains_key(&key) {
                        return Err(JournalError::DuplicateCell { key });
                    }
                    completed.insert(key, entry);
                }
                None => ignored_lines += 1,
            }
        }
        let file = io.open_append(IoSite::JournalAppend, &path)?;
        Ok(Journal {
            writer: Mutex::new(Appender { file, dirty: false }),
            path,
            fingerprint,
            completed,
            quarantined,
            ignored_lines,
            io,
        })
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The fingerprint this journal is bound to.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The I/O layer every journal write and read goes through.
    pub fn io(&self) -> &Arc<dyn SimIo> {
        &self.io
    }

    /// Number of completed cells loaded at resume time.
    pub fn completed_cells(&self) -> usize {
        self.completed.len()
    }

    /// Lines skipped while loading (crash-truncated tail, corruption).
    pub fn ignored_lines(&self) -> usize {
        self.ignored_lines
    }

    /// The journalled entry for `key`, if that cell already completed.
    pub fn lookup(&self, key: &str) -> Option<&JournalEntry> {
        self.completed.get(key)
    }

    /// The quarantine record for `key`, if that cell exhausted its
    /// retries in an earlier run.
    pub fn lookup_quarantine(&self, key: &str) -> Option<&QuarantineEntry> {
        self.quarantined.get(key)
    }

    /// Number of quarantined cells loaded at resume time.
    pub fn quarantined_cells(&self) -> usize {
        self.quarantined.len()
    }

    /// Appends one completed cell and fsyncs before returning, so a crash
    /// immediately afterwards cannot lose the record. `key` must contain
    /// no whitespace (sweep keys are `scope/benchmark/mechanism`).
    /// `checkpoint` names the cell's checkpoint file, if it had one, so
    /// resumed sweeps can garbage-collect it once the cell is known
    /// complete; the path must be whitespace-free (the journal is
    /// line-and-space delimited).
    ///
    /// # Errors
    ///
    /// Any filesystem error writing or syncing; also a key or checkpoint
    /// path that cannot be represented in the line format (empty, or
    /// containing whitespace).
    pub fn record(
        &self,
        key: &str,
        attempts: u32,
        report: &SimReport,
        checkpoint: Option<&Path>,
    ) -> Result<(), JournalError> {
        check_key(key)?;
        let ckpt = match checkpoint {
            Some(p) => {
                let s = p.to_str().unwrap_or("");
                if s.is_empty() || s.chars().any(char::is_whitespace) {
                    return Err(JournalError::Io(std::io::Error::new(
                        std::io::ErrorKind::InvalidInput,
                        format!("checkpoint paths must be whitespace-free UTF-8: {p:?}"),
                    )));
                }
                format!(" {s}")
            }
            None => String::new(),
        };
        let mut w = SnapWriter::new();
        report.save_snap(&mut w);
        let hex = to_hex(w.as_slice());
        self.append_line(format!("ok {key} {attempts} {hex}{ckpt}\n"))
    }

    /// Appends a quarantine record for a cell that exhausted its retry
    /// budget: resumes will skip it and surface `kind`/`payload` instead
    /// of burning the retry budget again. Newlines in `payload` are
    /// flattened to spaces (the journal is line-delimited).
    ///
    /// # Errors
    ///
    /// Any filesystem error writing or syncing, or a key that cannot be
    /// represented in the line format.
    pub fn record_quarantine(
        &self,
        key: &str,
        kind: FailureKind,
        attempts: u32,
        payload: &str,
    ) -> Result<(), JournalError> {
        check_key(key)?;
        let payload: String = payload
            .chars()
            .map(|c| if c == '\n' || c == '\r' { ' ' } else { c })
            .collect();
        self.append_line(format!(
            "quarantine {key} {} {attempts} {payload}\n",
            kind.name()
        ))
    }

    /// Appends one whole line and fsyncs. After a failed append the
    /// writer goes dirty: the stream may end in a torn prefix with no
    /// newline, so the next record is prefixed with one — a later resume
    /// then drops the torn fragment as an (ignored) empty or garbage line
    /// instead of fusing it with the healthy record that follows.
    fn append_line(&self, line: String) -> Result<(), JournalError> {
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let framed = if w.dirty { format!("\n{line}") } else { line };
        if let Err(e) = self
            .io
            .append(IoSite::JournalAppend, &mut w.file, framed.as_bytes())
        {
            w.dirty = true;
            return Err(e.into());
        }
        w.dirty = false;
        self.io.sync(IoSite::JournalSync, &w.file)?;
        Ok(())
    }
}

/// Refuses a key the space-delimited line format cannot hold.
fn check_key(key: &str) -> Result<(), JournalError> {
    if key.is_empty() || key.chars().any(char::is_whitespace) {
        return Err(JournalError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("journal keys must be non-empty and whitespace-free: {key:?}"),
        )));
    }
    Ok(())
}

/// Parses one `quarantine <key> <kind> <attempts> <payload...>` record.
fn parse_quarantine(line: &str) -> Option<(String, QuarantineEntry)> {
    let mut parts = line.splitn(5, ' ');
    if parts.next()? != "quarantine" {
        return None;
    }
    let key = parts.next()?.to_string();
    let kind = FailureKind::from_name(parts.next()?)?;
    let attempts: u32 = parts.next()?.parse().ok()?;
    let payload = parts.next().unwrap_or("").to_string();
    Some((
        key,
        QuarantineEntry {
            kind,
            attempts,
            payload,
        },
    ))
}

/// Parses one `ok <key> <attempts> <hex> [checkpoint-path]` record.
fn parse_record(line: &str) -> Option<(String, JournalEntry)> {
    let mut parts = line.splitn(5, ' ');
    if parts.next()? != "ok" {
        return None;
    }
    let key = parts.next()?.to_string();
    let attempts: u32 = parts.next()?.parse().ok()?;
    let bytes = from_hex(parts.next()?)?;
    let mut r = SnapReader::new(&bytes);
    let report = SimReport::load_snap(&mut r).ok()?;
    r.finish().ok()?;
    let checkpoint = parts.next().map(PathBuf::from);
    Some((
        key,
        JournalEntry {
            attempts,
            report,
            checkpoint,
        },
    ))
}

/// Lower-case hex of `bytes`, so a binary report fits one text line.
fn to_hex(bytes: &[u8]) -> String {
    use std::fmt::Write;
    let mut hex = String::with_capacity(2 * bytes.len());
    for b in bytes {
        let _ = write!(hex, "{b:02x}"); // writing to a String cannot fail
    }
    hex
}

/// Inverts [`to_hex`]; `None` for an odd length or a non-hex digit.
fn from_hex(hex: &str) -> Option<Vec<u8>> {
    if !hex.len().is_multiple_of(2) {
        return None;
    }
    let nibble = |c: &u8| char::from(*c).to_digit(16);
    hex.as_bytes()
        .chunks_exact(2)
        .map(|pair| match pair {
            [hi, lo] => u8::try_from(nibble(hi)? << 4 | nibble(lo)?).ok(),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests set up, corrupt and clean up fixture files directly"
)]
mod tests {
    use super::*;
    use crate::simio::real_io;
    use crate::{try_simulate, EngineStats, RobustnessReport, RunLength, System, SystemConfig};
    use burst_core::{CtrlStats, Mechanism};
    use burst_dram::BusStats;
    use burst_workloads::SpecBenchmark;
    use std::fs::OpenOptions;
    use std::num::NonZeroUsize;

    fn sample_report() -> SimReport {
        let cfg = SystemConfig::baseline().with_mechanism(Mechanism::BurstTh(52));
        try_simulate(
            &cfg,
            SpecBenchmark::Swim.workload(11),
            RunLength::Instructions(3_000),
        )
        .expect("small run completes")
    }

    /// A report whose integer fields and histogram buckets are all
    /// distinct and non-zero, so an encoder that swaps two fields cannot
    /// round-trip it.
    fn distinct_report() -> SimReport {
        let mut next = 1_000u64..;
        let mut n = || next.next().unwrap_or(0);
        let mut ctrl = CtrlStats::new(8);
        for v in [
            &mut ctrl.reads_done,
            &mut ctrl.writes_done,
            &mut ctrl.forwards,
            &mut ctrl.read_latency_sum,
            &mut ctrl.write_latency_sum,
            &mut ctrl.row_hits,
            &mut ctrl.row_empties,
            &mut ctrl.row_conflicts,
            &mut ctrl.cycles,
            &mut ctrl.write_saturated_cycles,
            &mut ctrl.preemptions,
            &mut ctrl.piggybacks,
            &mut ctrl.faults_injected,
            &mut ctrl.retries,
            &mut ctrl.escalations,
            &mut ctrl.watchdog_trips,
            &mut ctrl.max_access_age,
        ] {
            *v = n();
        }
        for occupancy in 0..=8 {
            ctrl.outstanding_reads.record_n(occupancy, n());
            ctrl.outstanding_writes.record_n(occupancy, n());
        }
        // Bucket b of a latency histogram holds latencies in
        // [2^(b-1), 2^b); give each bucket its own sample count, and each
        // histogram its own maximum (the top bucket is open-ended).
        for (h, extra, top) in [
            (&mut ctrl.read_latencies, 1, 1 << 40),
            (&mut ctrl.write_latencies, 40, 1 << 41),
        ] {
            for b in 0..32u64 {
                let latency = if b == 0 { 0 } else { 1 << (b - 1) };
                for _ in 0..b + extra {
                    h.record(latency);
                }
            }
            h.record(top);
        }
        let bus = BusStats {
            cmd_cycles: n(),
            data_cycles: n(),
            reads: n(),
            writes: n(),
            activates: n(),
            precharges: n(),
            auto_precharges: n(),
            refreshes: n(),
        };
        let cpu = burst_cpu::CpuStats {
            retired: n(),
            loads: n(),
            stores: n(),
            mem_reads: n(),
            mem_writes: n(),
            stall_cycles: n(),
        };
        SimReport {
            mechanism: Mechanism::BurstTh(52),
            workload: "swim".to_string(),
            cpu_cycles: n(),
            mem_cycles: n(),
            instructions: n(),
            robustness: RobustnessReport::collect(&ctrl, n()),
            ctrl,
            bus,
            cpu,
            engine: EngineStats::default(),
            channels: n(),
        }
    }

    fn snapshot_round_trip(report: &SimReport) -> SimReport {
        let mut w = SnapWriter::new();
        report.save_snap(&mut w);
        let mut r = SnapReader::new(w.as_slice());
        let back = SimReport::load_snap(&mut r).expect("own encoding loads");
        r.finish()
            .expect("the loader reads every byte the saver wrote");
        back
    }

    #[test]
    fn report_snapshot_round_trip_is_lossless() {
        let distinct = distinct_report();
        assert_eq!(snapshot_round_trip(&distinct), distinct);

        let cfg = SystemConfig::baseline()
            .with_mechanism(Mechanism::BurstTh(52))
            .with_warm_mem_ops(10_000);
        let two = NonZeroUsize::new(2).expect("2 > 0");
        let mut sys = System::with_cores(&cfg, cfg.scheduler(), two);
        let mut a = SpecBenchmark::Swim.workload(11);
        let mut b = SpecBenchmark::Mcf.workload(12);
        let mut sources: [&mut dyn burst_workloads::OpSource; 2] = [&mut a, &mut b];
        sys.warm_cores(&mut sources);
        sys.try_run_cores(&mut sources, RunLength::Instructions(3_000))
            .expect("two-core run completes");
        let real = sys.report("swim+mcf");
        assert!(real.ctrl.reads_done > 0 && real.cpu.retired > 0);
        assert_eq!(snapshot_round_trip(&real), real);
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let a = fingerprint("all/ins=120000/seed=42/skip=true");
        assert_eq!(a, fingerprint("all/ins=120000/seed=42/skip=true"));
        assert_ne!(a, fingerprint("all/ins=120000/seed=43/skip=true"));
    }

    #[test]
    fn create_record_resume_round_trip() {
        let dir = std::env::temp_dir().join("burst-journal-test-rrt");
        let path = dir.join("sweep.journal");
        let _ = std::fs::remove_file(&path);
        let fp = fingerprint("test-config");
        let report = sample_report();
        {
            let j = Journal::create(&path, fp, real_io()).expect("create");
            j.record("sweep/swim/Burst_TH52", 2, &report, None)
                .expect("record");
        }
        let j = Journal::resume(&path, fp, real_io()).expect("resume");
        assert_eq!(j.completed_cells(), 1);
        assert_eq!(j.ignored_lines(), 0);
        let entry = j.lookup("sweep/swim/Burst_TH52").expect("present");
        assert_eq!(entry.attempts, 2);
        assert_eq!(entry.report, report);
        assert!(j.lookup("sweep/swim/BkInOrder").is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_paths_round_trip_and_stay_optional() {
        let dir = std::env::temp_dir().join("burst-journal-test-ckpt");
        let path = dir.join("sweep.journal");
        let _ = std::fs::remove_file(&path);
        let fp = fingerprint("ckpt");
        let report = sample_report();
        {
            let j = Journal::create(&path, fp, real_io()).expect("create");
            j.record(
                "sweep/swim/Burst_TH52",
                1,
                &report,
                Some(Path::new("/tmp/ckpts/sweep-swim-Burst_TH52.ckpt")),
            )
            .expect("record with checkpoint");
            j.record("sweep/swim/BkInOrder", 1, &report, None)
                .expect("record without checkpoint");
            assert!(
                j.record(
                    "sweep/swim/Burst_RP",
                    1,
                    &report,
                    Some(Path::new("/tmp/has space.ckpt")),
                )
                .is_err(),
                "whitespace paths cannot be represented"
            );
        }
        let j = Journal::resume(&path, fp, real_io()).expect("resume");
        assert_eq!(j.completed_cells(), 2);
        assert_eq!(
            j.lookup("sweep/swim/Burst_TH52").unwrap().checkpoint,
            Some(PathBuf::from("/tmp/ckpts/sweep-swim-Burst_TH52.ckpt"))
        );
        assert_eq!(j.lookup("sweep/swim/BkInOrder").unwrap().checkpoint, None);
        let entry = j.lookup("sweep/swim/Burst_TH52").unwrap();
        assert_eq!(entry.report, report, "report survives the extra token");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_rejects_fingerprint_mismatch() {
        let dir = std::env::temp_dir().join("burst-journal-test-fpm");
        let path = dir.join("sweep.journal");
        let _ = std::fs::remove_file(&path);
        Journal::create(&path, 1, real_io()).expect("create");
        let err = Journal::resume(&path, 2, real_io()).expect_err("must refuse");
        assert!(
            matches!(err, JournalError::FingerprintMismatch { .. }),
            "{err}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_refuses_a_version_1_journal_and_leaves_it_untouched() {
        let dir = std::env::temp_dir().join("burst-journal-test-v1");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("sweep.journal");
        let fp = fingerprint("v1");
        let old = format!(
            "burst-journal v1 fp={fp:016x}\n\
             ok sweep/swim/Burst_TH52 1 Burst_TH52|swim|1|2|3\n"
        );
        std::fs::write(&path, &old).expect("write v1 journal");
        let err = Journal::resume(&path, fp, real_io()).expect_err("v1 must be refused");
        assert!(
            matches!(err, JournalError::UnsupportedVersion(1)),
            "{err:?}"
        );
        assert!(err.to_string().contains("version 1"), "{err}");
        assert_eq!(
            std::fs::read_to_string(&path).expect("read back"),
            old,
            "a refused journal is not modified"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_drops_truncated_tail() {
        let dir = std::env::temp_dir().join("burst-journal-test-tail");
        let path = dir.join("sweep.journal");
        let _ = std::fs::remove_file(&path);
        let fp = fingerprint("tail");
        let report = sample_report();
        {
            let j = Journal::create(&path, fp, real_io()).expect("create");
            j.record("sweep/swim/Burst_TH52", 1, &report, None)
                .expect("record");
        }
        // Simulate a crash mid-append: a record missing its newline.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).expect("open");
            write!(f, "ok sweep/swim/BkInOrder 1 trunca").expect("write");
        }
        let j = Journal::resume(&path, fp, real_io()).expect("resume");
        assert_eq!(j.completed_cells(), 1, "whole records only");
        assert_eq!(j.ignored_lines(), 1, "truncated tail is counted");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_of_missing_file_starts_fresh() {
        let dir = std::env::temp_dir().join("burst-journal-test-fresh");
        let path = dir.join("does-not-exist.journal");
        let _ = std::fs::remove_file(&path);
        let j = Journal::resume(&path, 7, real_io()).expect("fresh journal");
        assert_eq!(j.completed_cells(), 0);
        assert!(path.exists(), "fresh journal file is created");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_rejects_duplicate_cell_records() {
        let dir = std::env::temp_dir().join("burst-journal-test-dup");
        let path = dir.join("sweep.journal");
        let _ = std::fs::remove_file(&path);
        let fp = fingerprint("dup");
        let report = sample_report();
        {
            let j = Journal::create(&path, fp, real_io()).expect("create");
            j.record("sweep/swim/Burst_TH52", 1, &report, None)
                .expect("record");
        }
        // Splice a second record for the same cell, as a hand edit or a
        // concatenation of two journals would.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .expect("open");
            let record = std::fs::read_to_string(&path)
                .expect("read")
                .lines()
                .find(|l| l.starts_with("ok "))
                .expect("one ok record")
                .to_string();
            writeln!(f, "{record}").expect("write");
        }
        let err = Journal::resume(&path, fp, real_io()).expect_err("duplicates must be refused");
        assert!(
            matches!(err, JournalError::DuplicateCell { ref key } if key == "sweep/swim/Burst_TH52"),
            "{err}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn quarantine_records_round_trip_and_conflict_with_ok() {
        let dir = std::env::temp_dir().join("burst-journal-test-quar");
        let path = dir.join("sweep.journal");
        let _ = std::fs::remove_file(&path);
        let fp = fingerprint("quar");
        let report = sample_report();
        {
            let j = Journal::create(&path, fp, real_io()).expect("create");
            j.record("sweep/swim/Burst_TH52", 1, &report, None)
                .expect("record");
            j.record_quarantine(
                "sweep/mcf/BkInOrder",
                FailureKind::Panic,
                3,
                "index out of\nbounds",
            )
            .expect("quarantine");
            assert!(j
                .record_quarantine("bad key", FailureKind::Panic, 1, "x")
                .is_err());
        }
        let j = Journal::resume(&path, fp, real_io()).expect("resume");
        assert_eq!(j.completed_cells(), 1);
        assert_eq!(j.quarantined_cells(), 1);
        let q = j.lookup_quarantine("sweep/mcf/BkInOrder").expect("present");
        assert_eq!(q.kind, FailureKind::Panic);
        assert_eq!(q.attempts, 3);
        assert_eq!(q.payload, "index out of bounds", "newlines flattened");
        assert!(j.lookup("sweep/mcf/BkInOrder").is_none());

        // A cell cannot be both completed and quarantined.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .expect("open");
            writeln!(f, "quarantine sweep/swim/Burst_TH52 panic 2 boom").expect("write");
        }
        let err = Journal::resume(&path, fp, real_io()).expect_err("conflict must be refused");
        assert!(matches!(err, JournalError::DuplicateCell { .. }), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn quarantine_of_a_retired_failure_kind_is_ignored_and_the_cell_reruns() {
        use crate::experiments::Sweep;
        use crate::supervisor::SupervisorConfig;
        let dir = std::env::temp_dir().join("burst-journal-test-retired-kind");
        let path = dir.join("sweep.journal");
        let _ = std::fs::remove_file(&path);
        let fp = fingerprint("retired-kind");
        let key = crate::cell_key("t", SpecBenchmark::Swim, Mechanism::BkInOrder);
        drop(Journal::create(&path, fp, real_io()).expect("create"));
        // `injected` is not in the failure taxonomy, so the record is an
        // unparseable line, not a quarantine.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).expect("open");
            writeln!(
                f,
                "quarantine {key} injected 3 injected transient fault (cell 0, attempt 2)"
            )
            .expect("write");
        }
        let j = Journal::resume(&path, fp, real_io()).expect("the journal is not refused");
        assert_eq!(j.ignored_lines(), 1);
        assert_eq!(j.quarantined_cells(), 0);
        let sup = SupervisorConfig {
            backoff_base_ms: 0,
            ..SupervisorConfig::default()
        };
        let run = Sweep::run_supervised(
            "t",
            &SystemConfig::baseline(),
            &[SpecBenchmark::Swim],
            &[Mechanism::BkInOrder],
            RunLength::Instructions(2_000),
            11,
            1,
            &sup,
            Some(&j),
            None,
        );
        assert!(run.ok(), "{:?}", run.failures);
        assert_eq!(run.resumed, 0, "the cell re-ran");
        drop(j);
        let j = Journal::resume(&path, fp, real_io()).expect("resume");
        assert!(j.lookup(&key).is_some(), "the re-run is on record");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_append_self_heals_via_newline_prefix() {
        use crate::simio::{ChaosIo, IoFaultKind, IoSite};
        use std::sync::Arc;
        let dir = std::env::temp_dir().join("burst-journal-test-heal");
        let path = dir.join("sweep.journal");
        let _ = std::fs::remove_file(&path);
        let fp = fingerprint("heal");
        let report = sample_report();
        {
            // Ops at JournalAppend: 0 = header, 1 = first record (torn),
            // 2 = second record (clean, newline-prefixed by the heal).
            let io = Arc::new(ChaosIo::scripted(
                IoSite::JournalAppend,
                IoFaultKind::Torn,
                1,
            ));
            let j = Journal::create(&path, fp, io).expect("create");
            assert!(
                j.record("sweep/swim/Burst_TH52", 1, &report, None).is_err(),
                "torn append must surface as an error"
            );
            j.record("sweep/swim/BkInOrder", 1, &report, None)
                .expect("append after the heal succeeds");
        }
        let j = Journal::resume(&path, fp, real_io()).expect("resume");
        assert!(
            j.lookup("sweep/swim/BkInOrder").is_some(),
            "the record after the torn one must survive"
        );
        assert!(
            j.lookup("sweep/swim/Burst_TH52").is_none(),
            "the torn record itself is lost (and re-simulated on resume)"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn record_rejects_whitespace_keys() {
        let dir = std::env::temp_dir().join("burst-journal-test-keys");
        let path = dir.join("sweep.journal");
        let _ = std::fs::remove_file(&path);
        let j = Journal::create(&path, 3, real_io()).expect("create");
        let report = sample_report();
        assert!(j.record("bad key", 1, &report, None).is_err());
        assert!(j.record("", 1, &report, None).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
