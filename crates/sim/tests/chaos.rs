//! Integration tests of the chaos plane: journal truncation at every
//! byte offset, seeded fault-schedule determinism, quarantine-based
//! graceful degradation and checkpoint scratch-file garbage collection.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "tests tally faults in hash maps and set up, corrupt and clean up fixture files directly"
)]

use std::path::PathBuf;
use std::sync::Arc;

use burst_core::Mechanism;
use burst_sim::experiments::Sweep;
use burst_sim::export::sweep_to_csv;
use burst_sim::journal::fingerprint;
use burst_sim::{
    cell_key, real_io, ChaosIo, CheckpointPlan, FailureKind, IoSite, Journal, RunLength, SimIo,
    SupervisorConfig,
};
use burst_workloads::SpecBenchmark;
use proptest::prelude::*;

const BENCHES: [SpecBenchmark; 1] = [SpecBenchmark::Swim];
const MECHS: [Mechanism; 2] = [Mechanism::BkInOrder, Mechanism::BurstTh(52)];
const RUN: RunLength = RunLength::Instructions(1_200);
const SEED: u64 = 11;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("burst-chaos-test-{}-{name}", std::process::id()))
}

fn fp() -> u64 {
    fingerprint("chaos integration sweep v1")
}

fn sup() -> SupervisorConfig {
    SupervisorConfig {
        max_retries: 2,
        backoff_base_ms: 0,
        ..SupervisorConfig::default()
    }
}

fn run_with_journal(journal: &Journal) -> burst_sim::Supervised {
    Sweep::run_supervised(
        "sweep",
        &burst_sim::SystemConfig::baseline(),
        &BENCHES,
        &MECHS,
        RUN,
        SEED,
        1,
        &sup(),
        Some(journal),
        None,
    )
}

/// A complete journal's raw bytes plus the reference CSV its sweep
/// produced. Computed once and shared: several tests replay it and the
/// underlying sweep is the expensive part.
fn complete_journal_bytes() -> &'static (Vec<u8>, String) {
    static FIXTURE: std::sync::OnceLock<(Vec<u8>, String)> = std::sync::OnceLock::new();
    FIXTURE.get_or_init(|| {
        let path = tmp("complete.journal");
        let _ = std::fs::remove_file(&path);
        let journal = Journal::create(&path, fp(), real_io()).expect("create journal");
        let sup = run_with_journal(&journal);
        assert!(sup.failures.is_empty(), "clean run must complete");
        let reference = sweep_to_csv(&sup.value);
        drop(journal);
        let bytes = std::fs::read(&path).expect("read journal back");
        let _ = std::fs::remove_file(&path);
        (bytes, reference)
    })
}

/// The truncation contract at one byte offset: resuming the prefix
/// either yields a sweep whose CSV is byte-identical to the reference,
/// or refuses with a structured `JournalError`. Never a panic, never a
/// silently different CSV.
///
/// Every offset performs a real resume (the parser sees every possible
/// prefix), but the rerun after a successful resume is memoized by the
/// restored state: `run_supervised` is deterministic given (journal
/// state, config) — pinned by the determinism suite — and a truncated
/// prefix can only restore one of a handful of cell subsets, so
/// re-simulating per offset would burn minutes re-proving the same
/// equality.
fn check_truncation_at(bytes: &[u8], reference: &str, offset: usize, scratch: &PathBuf) {
    use std::collections::HashMap;
    use std::sync::Mutex;
    /// Memoized rerun results keyed by the restored-state signature.
    type RerunCache = HashMap<Vec<String>, (String, bool)>;
    static RERUNS: Mutex<Option<RerunCache>> = Mutex::new(None);

    let _ = std::fs::remove_file(scratch);
    std::fs::write(scratch, &bytes[..offset]).expect("write truncated copy");
    match Journal::resume(scratch, fp(), real_io()) {
        Ok(journal) => {
            let mut state: Vec<String> = Vec::new();
            for &b in &BENCHES {
                for &m in &MECHS {
                    let key = cell_key("sweep", b, m);
                    if journal.lookup(&key).is_some() {
                        state.push(format!("ok {key}"));
                    }
                    if journal.lookup_quarantine(&key).is_some() {
                        state.push(format!("quarantine {key}"));
                    }
                }
            }
            let cached = RERUNS
                .lock()
                .unwrap()
                .get_or_insert_with(HashMap::new)
                .get(&state)
                .cloned();
            let (csv, clean) = match cached {
                Some(hit) => hit,
                None => {
                    let sup = run_with_journal(&journal);
                    let entry = (sweep_to_csv(&sup.value), sup.failures.is_empty());
                    RERUNS
                        .lock()
                        .unwrap()
                        .get_or_insert_with(HashMap::new)
                        .insert(state, entry.clone());
                    entry
                }
            };
            assert!(clean, "offset {offset}: resumed run failed");
            assert_eq!(
                csv, reference,
                "offset {offset}: resumed CSV differs from the reference"
            );
        }
        Err(e) => {
            // Structured refusal: the error formats and names the journal
            // problem instead of unwinding.
            let msg = e.to_string();
            assert!(!msg.is_empty(), "offset {offset}: empty error message");
        }
    }
    let _ = std::fs::remove_file(scratch);
}

/// Exhaustive: every byte offset of a complete journal, including 0 and
/// the full length.
#[test]
fn journal_truncated_at_every_byte_offset_resumes_or_refuses() {
    let (bytes, reference) = complete_journal_bytes();
    let scratch = tmp("truncated-exhaustive.journal");
    for offset in 0..=bytes.len() {
        check_truncation_at(bytes, reference, offset, &scratch);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The same contract under random offsets (redundant with the
    /// exhaustive sweep today, but keeps holding if the journal grows
    /// beyond what exhaustion can afford).
    #[test]
    fn journal_truncation_contract_holds_at_random_offsets(raw in 0usize..1_000_000) {
        let (bytes, reference) = complete_journal_bytes();
        let offset = raw % (bytes.len() + 1);
        let scratch = tmp("truncated-prop.journal");
        check_truncation_at(bytes, reference, offset, &scratch);
    }
}

/// Drives a fixed operation sequence against a `ChaosIo` and returns the
/// faults it fired.
fn drive_schedule(io: &ChaosIo, dir: &PathBuf) -> Vec<(IoSite, u64, burst_sim::IoFaultKind)> {
    std::fs::create_dir_all(dir).expect("mkdir");
    let a = dir.join("a");
    let b = dir.join("b");
    for round in 0..24u64 {
        let payload = vec![b'x'; 64 + round as usize];
        if let Ok(f) = io.write_new(IoSite::CkptTmpWrite, &a, &payload) {
            let _ = io.sync(IoSite::CkptSync, &f);
        }
        let _ = io.rename(IoSite::CkptRename, &a, &b);
        let _ = io.read(IoSite::CkptRead, &b);
        if let Ok(mut f) = io.write_new(IoSite::JournalAppend, &a, b"header\n") {
            let _ = io.append(IoSite::JournalAppend, &mut f, b"record\n");
            let _ = io.sync(IoSite::JournalSync, &f);
        }
        let _ = io.read(IoSite::JournalRead, &a);
    }
    let _ = std::fs::remove_dir_all(dir);
    io.fault_log()
}

/// Acceptance: the seeded fault schedule is a pure function of the seed —
/// the same seed over the same operation sequence fires the identical
/// `(site, op, kind)` list.
#[test]
fn seeded_chaos_schedule_is_deterministic() {
    let first = drive_schedule(&ChaosIo::seeded_with(77, 400, 1_000), &tmp("sched-a"));
    let second = drive_schedule(&ChaosIo::seeded_with(77, 400, 1_000), &tmp("sched-b"));
    assert!(
        !first.is_empty(),
        "a 40% schedule over ~168 operations must fire at least once"
    );
    assert_eq!(first, second, "same seed, same fault schedule");
}

/// Acceptance: quarantined cells are skipped on resume — their recorded
/// failure is surfaced verbatim (same kind, attempts and payload) and
/// the stale checkpoint they left behind is garbage-collected.
#[test]
fn resume_skips_quarantined_cells_and_gcs_their_checkpoints() {
    let dir = tmp("quarantine");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("sweep.journal");
    let journal = Journal::create(&path, fp(), real_io()).expect("create");
    let key = cell_key("sweep", SpecBenchmark::Swim, Mechanism::BurstTh(52));
    journal
        .record_quarantine(&key, FailureKind::Panic, 3, "injected panic (cell 1)")
        .expect("quarantine record");
    drop(journal);

    let journal = Journal::resume(&path, fp(), real_io()).expect("resume");
    assert_eq!(journal.quarantined_cells(), 1);
    let plan = CheckpointPlan::new(500, dir.clone(), fp());
    let stale = plan.cell_path("sweep", SpecBenchmark::Swim, Mechanism::BurstTh(52));
    std::fs::write(&stale, b"stale checkpoint").expect("plant stale ckpt");
    let sup = Sweep::run_supervised(
        "sweep",
        &burst_sim::SystemConfig::baseline(),
        &BENCHES,
        &MECHS,
        RUN,
        SEED,
        1,
        &sup(),
        Some(&journal),
        Some(&plan),
    );
    assert_eq!(sup.failures.len(), 1, "the quarantined cell is surfaced");
    let f = &sup.failures[0];
    assert!(f.quarantined);
    assert_eq!(f.kind, FailureKind::Panic);
    assert_eq!(f.attempts, 3, "attempts come from the record, not a re-run");
    assert_eq!(f.payload, "injected panic (cell 1)");
    assert_eq!(f.mechanism, Mechanism::BurstTh(52));
    assert_eq!(
        sup.value.cells.len(),
        1,
        "only the healthy cell was simulated"
    );
    assert!(!stale.exists(), "the quarantined cell's checkpoint is GCed");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Acceptance: orphaned `*.ckpt.tmp` scratch files from writes that
/// crashed mid-protocol are removed when a plan starts, while real
/// checkpoints and unrelated files survive.
#[test]
fn orphaned_checkpoint_scratch_files_are_garbage_collected() {
    let dir = tmp("orphans");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let orphan_a = dir.join("sweep-swim-BkInOrder.ckpt.tmp");
    let orphan_b = dir.join("sweep-swim-Burst_TH52.ckpt.tmp");
    let keep_ckpt = dir.join("sweep-swim-BkInOrder.ckpt");
    let keep_other = dir.join("notes.txt");
    for p in [&orphan_a, &orphan_b, &keep_ckpt, &keep_other] {
        std::fs::write(p, b"x").expect("plant file");
    }
    let plan = CheckpointPlan::new(500, dir.clone(), fp());
    assert_eq!(plan.gc_orphans(), 2, "exactly the two scratch files");
    assert!(!orphan_a.exists() && !orphan_b.exists());
    assert!(keep_ckpt.exists(), "real checkpoints survive");
    assert!(keep_other.exists(), "unrelated files survive");

    // The supervised entry point runs the same GC before sweeping.
    std::fs::write(&orphan_a, b"x").expect("replant");
    let sup = Sweep::run_supervised(
        "sweep",
        &burst_sim::SystemConfig::baseline(),
        &BENCHES,
        &[Mechanism::BkInOrder],
        RUN,
        SEED,
        1,
        &sup(),
        None,
        Some(&plan),
    );
    assert!(sup.failures.is_empty());
    assert!(
        !orphan_a.exists(),
        "run_supervised GCs orphans before the sweep"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Acceptance: a scripted mid-matrix fault leaves state a *clean* resume
/// recovers to the reference CSV — the sim-level slice of the bench
/// crate's full crash-point matrix, pinned here so `cargo test -p
/// burst-sim` alone exercises one end-to-end chaos cycle.
#[test]
fn scripted_torn_append_recovers_on_clean_resume() {
    let dir = tmp("torn-cycle");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("sweep.journal");
    let (_, reference) = complete_journal_bytes();
    let reference = reference.clone();

    let io: Arc<dyn SimIo> = Arc::new(ChaosIo::scripted(
        IoSite::JournalAppend,
        burst_sim::IoFaultKind::Torn,
        1,
    ));
    let journal = Journal::create(&path, fp(), Arc::clone(&io)).expect("create");
    let faulted = run_with_journal(&journal);
    assert!(
        faulted.failures.is_empty(),
        "a journal write fault must not fail the sweep itself"
    );
    drop(journal);

    let journal = Journal::resume(&path, fp(), real_io()).expect("clean resume");
    let recovered = run_with_journal(&journal);
    assert!(recovered.failures.is_empty());
    assert_eq!(
        sweep_to_csv(&recovered.value),
        reference,
        "clean resume after a torn append reproduces the reference CSV"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
