//! Injectable filesystem layer for the persistence stack — the substrate
//! of the deterministic chaos plane.
//!
//! Every filesystem operation the journal and checkpoint machinery
//! performs goes through a [`SimIo`] implementation and is labeled with
//! an [`IoSite`]. On the real path ([`RealIo`], the default everywhere)
//! each method is a direct passthrough to `std::fs` — one virtual call on
//! operations that are already syscalls, so the indirection costs nothing
//! measurable. Under test, [`ChaosIo`] turns *failure at the worst
//! moment* into a first-class, deterministically enumerable input: any
//! labeled operation can be made to fail, tear (persist a prefix, then
//! error — a crash mid-write) or silently truncate (persist a prefix and
//! report success — a lying disk), either scripted one site at a time
//! (the crash-point matrix) or driven by a seeded schedule (soak runs).
//!
//! The recovery contract the chaos matrix enforces on top of this layer:
//! after *any* single injected fault, a restarted run either resumes
//! byte-identically or fails with a structured
//! [`crate::JournalError`]/[`crate::CheckpointError`]/`FailureKind` —
//! never a panic, a hang, or a silently wrong CSV. See DESIGN.md §17 for
//! the per-site fault semantics table.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Mutex;

use burst_core::splitmix64;

/// A labeled crash point: one class of filesystem operation the
/// persistence stack performs. Each site is an independent axis of the
/// chaos matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IoSite {
    /// Appending one record line (or the header) to the sweep journal.
    JournalAppend,
    /// Fsyncing the journal after an append.
    JournalSync,
    /// Reading the whole journal back for `--resume`.
    JournalRead,
    /// Writing a checkpoint's `.ckpt.tmp` scratch file.
    CkptTmpWrite,
    /// Fsyncing the scratch file before the atomic rename.
    CkptSync,
    /// Renaming the scratch file over the live checkpoint.
    CkptRename,
    /// Reading a checkpoint back at cell-resume time.
    CkptRead,
}

impl IoSite {
    /// Stable lower-case token used in flags, tables and matrix output.
    pub fn name(&self) -> &'static str {
        match self {
            IoSite::JournalAppend => "journal-append",
            IoSite::JournalSync => "journal-sync",
            IoSite::JournalRead => "journal-read",
            IoSite::CkptTmpWrite => "ckpt-tmp-write",
            IoSite::CkptSync => "ckpt-sync",
            IoSite::CkptRename => "ckpt-rename",
            IoSite::CkptRead => "ckpt-read",
        }
    }

    /// Parses the [`IoSite::name`] token back.
    pub fn from_name(name: &str) -> Option<IoSite> {
        IoSite::all().into_iter().find(|s| s.name() == name)
    }

    /// Every labeled site, in matrix order.
    pub fn all() -> [IoSite; 7] {
        [
            IoSite::JournalAppend,
            IoSite::JournalSync,
            IoSite::JournalRead,
            IoSite::CkptTmpWrite,
            IoSite::CkptSync,
            IoSite::CkptRename,
            IoSite::CkptRead,
        ]
    }

    /// A small stable tag mixing the site into hash keys.
    fn tag(&self) -> u64 {
        match self {
            IoSite::JournalAppend => 1,
            IoSite::JournalSync => 2,
            IoSite::JournalRead => 3,
            IoSite::CkptTmpWrite => 4,
            IoSite::CkptSync => 5,
            IoSite::CkptRename => 6,
            IoSite::CkptRead => 7,
        }
    }
}

impl core::fmt::Display for IoSite {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// What an injected fault does at its site.
///
/// Not every kind is distinguishable at every site — a rename or fsync
/// has no data to tear, so `Torn`/`Truncate` degrade to `Fail` there;
/// the matrix still sweeps all three so the degradation itself is pinned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IoFaultKind {
    /// The operation reports an error having done nothing durable.
    Fail,
    /// Writes: a prefix of the data is persisted, then the operation
    /// errors — a crash mid-write. Reads: a truncated copy comes back
    /// *with* an error.
    Torn,
    /// Writes: a prefix of the data is persisted and the operation
    /// reports *success* — a lying disk; only content validation
    /// (newline framing, hashes) can catch it. Reads: a truncated copy
    /// comes back as if it were the whole file.
    Truncate,
}

impl IoFaultKind {
    /// Stable lower-case token used in flags, tables and matrix output.
    pub fn name(&self) -> &'static str {
        match self {
            IoFaultKind::Fail => "fail",
            IoFaultKind::Torn => "torn",
            IoFaultKind::Truncate => "truncate",
        }
    }

    /// Parses the [`IoFaultKind::name`] token back.
    pub fn from_name(name: &str) -> Option<IoFaultKind> {
        IoFaultKind::all().into_iter().find(|k| k.name() == name)
    }

    /// Every kind, in matrix order.
    pub fn all() -> [IoFaultKind; 3] {
        [IoFaultKind::Fail, IoFaultKind::Torn, IoFaultKind::Truncate]
    }
}

impl core::fmt::Display for IoFaultKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// The injectable filesystem seam. Implementations must be shareable
/// across the sweep's worker threads.
pub trait SimIo: Send + Sync + core::fmt::Debug {
    /// Creates (truncating) `path` and writes `bytes`, returning the open
    /// handle so the caller can [`SimIo::sync`] it.
    fn write_new(&self, site: IoSite, path: &Path, bytes: &[u8]) -> io::Result<File>;

    /// Opens `path` for appending.
    fn open_append(&self, site: IoSite, path: &Path) -> io::Result<File>;

    /// Appends `bytes` to an open handle.
    fn append(&self, site: IoSite, file: &mut File, bytes: &[u8]) -> io::Result<()>;

    /// Forces an open handle's data to disk.
    fn sync(&self, site: IoSite, file: &File) -> io::Result<()>;

    /// Atomically renames `from` over `to`.
    fn rename(&self, site: IoSite, from: &Path, to: &Path) -> io::Result<()>;

    /// Reads the whole of `path`.
    fn read(&self, site: IoSite, path: &Path) -> io::Result<Vec<u8>>;
}

/// The production implementation: every method is a direct passthrough.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealIo;

impl SimIo for RealIo {
    fn write_new(&self, _site: IoSite, path: &Path, bytes: &[u8]) -> io::Result<File> {
        let mut f = File::create(path)?;
        f.write_all(bytes)?;
        Ok(f)
    }

    fn open_append(&self, _site: IoSite, path: &Path) -> io::Result<File> {
        OpenOptions::new().append(true).open(path)
    }

    fn append(&self, _site: IoSite, file: &mut File, bytes: &[u8]) -> io::Result<()> {
        file.write_all(bytes)
    }

    fn sync(&self, _site: IoSite, file: &File) -> io::Result<()> {
        file.sync_data()
    }

    fn rename(&self, _site: IoSite, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn read(&self, _site: IoSite, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }
}

/// The shared production instance, for threading through plans and
/// journals without allocating.
pub fn real_io() -> Arc<dyn SimIo> {
    Arc::new(RealIo)
}

/// How [`ChaosIo`] decides which operations fault.
#[derive(Debug, Clone)]
enum ChaosMode {
    /// Count operations per site; never fault. Used to size the matrix.
    Count,
    /// Fault exactly the `op`-th operation (0-based, per-site counter) at
    /// `site` with `kind`; everything else passes through.
    Scripted {
        site: IoSite,
        kind: IoFaultKind,
        op: u64,
    },
    /// Seeded schedule: operation `op` at `site` faults iff
    /// `splitmix64(seed ⊕ site ⊕ op) % 1000 < permille`, with the fault
    /// kind drawn from the same hash — a pure function of
    /// `(seed, site, op)`, so the schedule is identical on any host.
    Seeded {
        seed: u64,
        permille: u32,
        max_faults: u64,
    },
}

/// A deterministic chaos filesystem: wraps [`RealIo`] and injects labeled
/// faults, either one scripted fault ([`ChaosIo::scripted`]) or a seeded
/// schedule ([`ChaosIo::seeded`]). Interior counters make each instance one
/// run's worth of schedule — build a fresh one per simulated crash.
#[derive(Debug)]
pub struct ChaosIo {
    real: RealIo,
    mode: ChaosMode,
    /// Per-site operation counters (indexed by [`IoSite::all`] order).
    counters: [AtomicU64; 7],
    /// Faults actually fired: `(site, op, kind)` in firing order.
    fired: Mutex<Vec<(IoSite, u64, IoFaultKind)>>,
    /// Total faults fired (cheap gate for `max_faults`).
    fired_count: AtomicU64,
}

impl ChaosIo {
    /// A counting instance: no faults, just per-site operation tallies.
    pub fn counting() -> ChaosIo {
        Self::with_mode(ChaosMode::Count)
    }

    /// A scripted instance faulting exactly one `(site, kind, op)` crash
    /// point — the matrix enumerator's workhorse.
    pub fn scripted(site: IoSite, kind: IoFaultKind, op: u64) -> ChaosIo {
        Self::with_mode(ChaosMode::Scripted { site, kind, op })
    }

    /// A seeded instance with the default hostility (80‰ per operation,
    /// at most 4 faults per run so every run can still converge).
    pub fn seeded(seed: u64) -> ChaosIo {
        Self::seeded_with(seed, 80, 4)
    }

    /// A seeded instance with explicit rate and fault budget.
    pub fn seeded_with(seed: u64, permille: u32, max_faults: u64) -> ChaosIo {
        Self::with_mode(ChaosMode::Seeded {
            seed,
            permille,
            max_faults,
        })
    }

    fn with_mode(mode: ChaosMode) -> ChaosIo {
        ChaosIo {
            real: RealIo,
            mode,
            counters: Default::default(),
            fired: Mutex::new(Vec::new()),
            fired_count: AtomicU64::new(0),
        }
    }

    /// Operations seen so far at `site`.
    pub fn ops_at(&self, site: IoSite) -> u64 {
        self.counters[site.tag() as usize - 1].load(Ordering::SeqCst)
    }

    /// Per-site operation counts, in [`IoSite::all`] order.
    pub fn op_counts(&self) -> Vec<(IoSite, u64)> {
        IoSite::all()
            .into_iter()
            .map(|s| (s, self.ops_at(s)))
            .collect()
    }

    /// Every fault fired so far, in firing order — the schedule two
    /// same-seeded runs must agree on exactly.
    pub fn fault_log(&self) -> Vec<(IoSite, u64, IoFaultKind)> {
        self.fired.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Claims the next operation number at `site` and decides whether it
    /// faults (and how).
    fn decide(&self, site: IoSite) -> (u64, Option<IoFaultKind>) {
        let op = self.counters[site.tag() as usize - 1].fetch_add(1, Ordering::SeqCst);
        let kind = match self.mode {
            ChaosMode::Count => None,
            ChaosMode::Scripted {
                site: s,
                kind,
                op: o,
            } => (s == site && o == op).then_some(kind),
            ChaosMode::Seeded {
                seed,
                permille,
                max_faults,
            } => {
                let h = splitmix64(
                    seed.wrapping_mul(0xA076_1D64_78BD_642F)
                        ^ site.tag().wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        ^ (op << 8),
                );
                if h % 1000 < u64::from(permille)
                    && self.fired_count.load(Ordering::SeqCst) < max_faults
                {
                    // Draw the kind from independent bits of the same hash.
                    Some(IoFaultKind::all()[(h >> 32) as usize % 3])
                } else {
                    None
                }
            }
        };
        if let Some(k) = kind {
            self.fired_count.fetch_add(1, Ordering::SeqCst);
            let mut log = self.fired.lock().unwrap_or_else(|e| e.into_inner());
            log.push((site, op, k));
        }
        (op, kind)
    }

    fn injected_err(site: IoSite, op: u64, kind: IoFaultKind) -> io::Error {
        io::Error::other(format!(
            "chaos: injected {kind} fault at {site} (operation {op})"
        ))
    }

    /// The deterministic persisted-prefix length of a torn/truncated
    /// write: roughly half, varied by operation number so boundary cases
    /// (empty prefix, almost-whole prefix) all occur across a sweep.
    fn torn_len(bytes: usize, op: u64) -> usize {
        if bytes == 0 {
            return 0;
        }
        (splitmix64(op.wrapping_add(0x5EED)) as usize) % bytes
    }
}

impl SimIo for ChaosIo {
    fn write_new(&self, site: IoSite, path: &Path, bytes: &[u8]) -> io::Result<File> {
        match self.decide(site) {
            (_, None) => self.real.write_new(site, path, bytes),
            (op, Some(IoFaultKind::Fail)) => Err(Self::injected_err(site, op, IoFaultKind::Fail)),
            (op, Some(IoFaultKind::Torn)) => {
                let _ =
                    self.real
                        .write_new(site, path, &bytes[..Self::torn_len(bytes.len(), op)])?;
                Err(Self::injected_err(site, op, IoFaultKind::Torn))
            }
            (op, Some(IoFaultKind::Truncate)) => {
                self.real
                    .write_new(site, path, &bytes[..Self::torn_len(bytes.len(), op)])
            }
        }
    }

    fn open_append(&self, site: IoSite, path: &Path) -> io::Result<File> {
        // Nothing to tear on an open: every kind degrades to Fail.
        match self.decide(site) {
            (_, None) => self.real.open_append(site, path),
            (op, Some(kind)) => Err(Self::injected_err(site, op, kind)),
        }
    }

    fn append(&self, site: IoSite, file: &mut File, bytes: &[u8]) -> io::Result<()> {
        match self.decide(site) {
            (_, None) => self.real.append(site, file, bytes),
            (op, Some(IoFaultKind::Fail)) => Err(Self::injected_err(site, op, IoFaultKind::Fail)),
            (op, Some(IoFaultKind::Torn)) => {
                self.real
                    .append(site, file, &bytes[..Self::torn_len(bytes.len(), op)])?;
                Err(Self::injected_err(site, op, IoFaultKind::Torn))
            }
            (op, Some(IoFaultKind::Truncate)) => {
                self.real
                    .append(site, file, &bytes[..Self::torn_len(bytes.len(), op)])
            }
        }
    }

    fn sync(&self, site: IoSite, file: &File) -> io::Result<()> {
        // An fsync either reaches the platters or it doesn't: every kind
        // degrades to Fail (the data may still be in the page cache, which
        // RealIo already wrote — exactly the ambiguity a real fsync
        // failure leaves behind).
        match self.decide(site) {
            (_, None) => self.real.sync(site, file),
            (op, Some(kind)) => Err(Self::injected_err(site, op, kind)),
        }
    }

    fn rename(&self, site: IoSite, from: &Path, to: &Path) -> io::Result<()> {
        // A POSIX rename is atomic: it happens or it doesn't. Fail/Torn
        // leave `from` in place and error; Truncate models the nastier
        // "rename lost but reported durable" by *deleting* the scratch
        // file and reporting success — the live file silently keeps its
        // previous content.
        match self.decide(site) {
            (_, None) => self.real.rename(site, from, to),
            (op, Some(IoFaultKind::Truncate)) => {
                let _ = std::fs::remove_file(from);
                let _ = op;
                Ok(())
            }
            (op, Some(kind)) => Err(Self::injected_err(site, op, kind)),
        }
    }

    fn read(&self, site: IoSite, path: &Path) -> io::Result<Vec<u8>> {
        match self.decide(site) {
            (_, None) => self.real.read(site, path),
            (op, Some(IoFaultKind::Fail)) => Err(Self::injected_err(site, op, IoFaultKind::Fail)),
            (op, Some(IoFaultKind::Torn)) => Err(Self::injected_err(site, op, IoFaultKind::Torn)),
            (op, Some(IoFaultKind::Truncate)) => {
                let mut bytes = self.real.read(site, path)?;
                bytes.truncate(Self::torn_len(bytes.len(), op));
                Ok(bytes)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_and_kind_names_round_trip() {
        for s in IoSite::all() {
            assert_eq!(IoSite::from_name(s.name()), Some(s));
        }
        for k in IoFaultKind::all() {
            assert_eq!(IoFaultKind::from_name(k.name()), Some(k));
        }
        assert_eq!(IoSite::from_name("warp"), None);
        assert_eq!(IoFaultKind::from_name("warp"), None);
    }

    #[test]
    fn counting_mode_counts_and_never_faults() {
        let dir = std::env::temp_dir().join("burst-simio-count");
        std::fs::create_dir_all(&dir).unwrap();
        let io = ChaosIo::counting();
        let p = dir.join("a.bin");
        let f = io.write_new(IoSite::CkptTmpWrite, &p, b"hello").unwrap();
        io.sync(IoSite::CkptSync, &f).unwrap();
        io.write_new(IoSite::CkptTmpWrite, &p, b"again").unwrap();
        assert_eq!(io.ops_at(IoSite::CkptTmpWrite), 2);
        assert_eq!(io.ops_at(IoSite::CkptSync), 1);
        assert_eq!(io.ops_at(IoSite::JournalAppend), 0);
        assert!(io.fault_log().is_empty());
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn scripted_fault_fires_exactly_once_at_its_op() {
        let dir = std::env::temp_dir().join("burst-simio-script");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("s.bin");
        let io = ChaosIo::scripted(IoSite::CkptTmpWrite, IoFaultKind::Fail, 1);
        assert!(io.write_new(IoSite::CkptTmpWrite, &p, b"zero").is_ok());
        assert!(io.write_new(IoSite::CkptTmpWrite, &p, b"one").is_err());
        assert!(io.write_new(IoSite::CkptTmpWrite, &p, b"two").is_ok());
        assert_eq!(
            io.fault_log(),
            vec![(IoSite::CkptTmpWrite, 1, IoFaultKind::Fail)]
        );
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn torn_write_persists_a_proper_prefix_then_errors() {
        let dir = std::env::temp_dir().join("burst-simio-torn");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.bin");
        let data = vec![7u8; 64];
        let io = ChaosIo::scripted(IoSite::CkptTmpWrite, IoFaultKind::Torn, 0);
        assert!(io.write_new(IoSite::CkptTmpWrite, &p, &data).is_err());
        let on_disk = std::fs::read(&p).unwrap();
        assert!(on_disk.len() < data.len(), "a strict prefix persisted");
        assert_eq!(on_disk, data[..on_disk.len()]);
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn truncate_read_lies_about_success() {
        let dir = std::env::temp_dir().join("burst-simio-lies");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("l.bin");
        std::fs::write(&p, vec![9u8; 128]).unwrap();
        let io = ChaosIo::scripted(IoSite::CkptRead, IoFaultKind::Truncate, 0);
        let got = io.read(IoSite::CkptRead, &p).unwrap();
        assert!(got.len() < 128, "truncated content returned as success");
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn seeded_schedule_is_a_pure_function_of_the_seed() {
        let dir = std::env::temp_dir().join("burst-simio-seeded");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("x.bin");
        let drive = |io: &ChaosIo| {
            for _ in 0..200 {
                let _ = io.write_new(IoSite::CkptTmpWrite, &p, b"payload-bytes");
                let _ = io.read(IoSite::JournalRead, &p);
            }
        };
        let a = ChaosIo::seeded_with(1234, 100, u64::MAX);
        let b = ChaosIo::seeded_with(1234, 100, u64::MAX);
        drive(&a);
        drive(&b);
        assert_eq!(a.fault_log(), b.fault_log());
        assert!(!a.fault_log().is_empty(), "10% over 400 ops must fire");
        let c = ChaosIo::seeded_with(4321, 100, u64::MAX);
        drive(&c);
        assert_ne!(a.fault_log(), c.fault_log(), "seeds must differ");
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn seeded_fault_budget_is_bounded() {
        let dir = std::env::temp_dir().join("burst-simio-budget");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("b.bin");
        let io = ChaosIo::seeded_with(7, 1000, 3);
        for _ in 0..100 {
            let _ = io.write_new(IoSite::CkptTmpWrite, &p, b"zz");
        }
        assert_eq!(io.fault_log().len(), 3, "max_faults caps the schedule");
        let _ = std::fs::remove_file(&p);
    }
}
