//! Durable sweep journal + resume: a write-ahead record of sweep
//! progress that makes a crash (SIGKILL, power loss, daemon restart)
//! cost only the jobs in flight, never the jobs already done.
//!
//! Built on [`hetrta_fault::RecordLog`] — append-only, FNV-64
//! checksummed records, atomic tmp+rename segment rotation, torn-tail
//! tolerant reads (the same discipline as [`crate::disk`]). Two record
//! kinds, both single-line with embedded text escaped:
//!
//! ```text
//! start <spec_hash:016x> <total_jobs> <escaped encode_spec text>
//! done <index> <cell> <identity:032x> <hit:0|1> <wall_ns> <escaped outcomes>
//! ```
//!
//! The `start` record pins the journal to one spec and task stream
//! ([`spec_hash`]); `done` records carry each finished job's full outcome
//! payload so resume replays it *without re-executing anything*. Every 64
//! `done` records the active segment is sealed, bounding what a power
//! loss can take. Because the aggregator replays expansion order at
//! finalize, a resumed sweep's aggregate is **bitwise identical** to an
//! uninterrupted run's — regardless of where the crash landed.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use hetrta_api::wire::fnv64;
use hetrta_api::AnalysisOutcome;
use hetrta_fault::{escape, unescape, RecordLog};
use hetrta_gen::STREAM_VERSION;

use crate::aggregate::SweepAggregate;
use crate::engine::EngineError;
use crate::job::{JobMetrics, JobResult};
use crate::spec::SweepSpec;
use crate::wire::encode_spec;

/// `done` records between two seals of the active journal segment.
const SEAL_EVERY: usize = 64;

/// Where (and how) a sweep journals its progress.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Journal directory (created if needed; one sweep per directory).
    pub dir: PathBuf,
    /// Replay an existing journal and run only the remainder. Without
    /// this, a directory that already holds completed jobs is refused —
    /// resuming must be an explicit decision, not an accident.
    pub resume: bool,
}

impl JournalConfig {
    /// A config journaling into `dir`, not resuming.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        JournalConfig {
            dir: dir.into(),
            resume: false,
        }
    }

    /// Same config with resume enabled.
    #[must_use]
    pub fn resuming(mut self) -> Self {
        self.resume = true;
        self
    }
}

/// The stable identity of a spec: FNV-64 of the task-stream version
/// ([`STREAM_VERSION`]) and the spec's bit-exact [`encode_spec`] text
/// (floats travel as bit patterns, so two specs hash equal iff they
/// expand to the same jobs). The version pins a journal to the tasks it
/// recorded results for: after a stream change it belongs to a different
/// sweep.
#[must_use]
pub fn spec_hash(spec: &SweepSpec) -> u64 {
    fnv64(format!("stream {STREAM_VERSION}\n{}", encode_spec(spec)).as_bytes())
}

/// A shareable, append-side handle on one sweep's journal.
///
/// Writes are serialized internally; append failures are counted
/// ([`SweepJournal::write_failures`]) and swallowed — a full disk
/// degrades durability, never the sweep itself (mirroring the disk
/// cache's contract).
#[derive(Debug)]
pub struct SweepJournal {
    inner: Mutex<JournalInner>,
    spec_hash: u64,
    write_failures: AtomicU64,
}

#[derive(Debug)]
struct JournalInner {
    log: RecordLog,
    since_seal: usize,
}

/// What replaying a journal recovered.
#[derive(Debug)]
pub struct JournalReplay {
    /// Completed jobs, reconstructed from `done` records (at most one
    /// per expansion index; duplicates from redispatch are deduped).
    pub results: Vec<JobResult>,
}

impl SweepJournal {
    /// Opens the journal at `cfg.dir` for `spec`, replaying any existing
    /// records first.
    ///
    /// A fresh directory gets a `start` record. An existing journal must
    /// match the spec's hash and job count, and — when it already holds
    /// completed jobs — requires `cfg.resume`.
    ///
    /// # Errors
    ///
    /// [`EngineError::Cache`] for unreadable/unwritable directories or a
    /// journal that belongs to a different spec;
    /// [`EngineError::InvalidSpec`] when completed jobs exist without
    /// `cfg.resume`.
    pub fn open(
        cfg: &JournalConfig,
        spec: &SweepSpec,
        total_jobs: usize,
    ) -> Result<(SweepJournal, JournalReplay), EngineError> {
        let hash = spec_hash(spec);
        let records = RecordLog::read_all(&cfg.dir)
            .map_err(|e| EngineError::Cache(format!("sweep journal: {e}")))?;
        let mut results: Vec<Option<JobResult>> = vec![None; total_jobs];
        let mut started = false;
        for record in &records {
            match parse_record(record) {
                Some(Record::Start { hash: h, total }) => {
                    if h != hash || total != total_jobs {
                        return Err(EngineError::Cache(format!(
                            "sweep journal at {} belongs to a different sweep \
                             (journal spec {h:016x}/{total} jobs, this spec \
                             {hash:016x}/{total_jobs} jobs)",
                            cfg.dir.display()
                        )));
                    }
                    started = true;
                }
                Some(Record::Done(result)) if result.index < total_jobs => {
                    let slot = result.index;
                    results[slot] = Some(result);
                }
                // A record this reader cannot parse (torn tail survivors,
                // kinds of other builds such as the aggregate keyframes
                // older journals hold) loses that record only.
                _ => {}
            }
        }
        let replayed: Vec<JobResult> = results.into_iter().flatten().collect();
        if !replayed.is_empty() && !cfg.resume {
            return Err(EngineError::InvalidSpec(format!(
                "journal at {} already holds {} completed job(s); \
                 pass --resume to continue it (or point --journal at a fresh directory)",
                cfg.dir.display(),
                replayed.len()
            )));
        }

        let mut log = RecordLog::open(&cfg.dir)
            .map_err(|e| EngineError::Cache(format!("sweep journal: {e}")))?;
        if !started {
            log.append(&format!(
                "start {hash:016x} {total_jobs} {}",
                escape(&encode_spec(spec))
            ))
            .map_err(|e| EngineError::Cache(format!("sweep journal: {e}")))?;
        }
        Ok((
            SweepJournal {
                inner: Mutex::new(JournalInner { log, since_seal: 0 }),
                spec_hash: hash,
                write_failures: AtomicU64::new(0),
            },
            JournalReplay { results: replayed },
        ))
    }

    /// The spec hash this journal is pinned to.
    #[must_use]
    pub fn spec_hash(&self) -> u64 {
        self.spec_hash
    }

    /// Appends one finished job. Failed jobs are *not* journaled (they
    /// fail the sweep and must re-run on resume); skipped and successful
    /// jobs are. Every 64th record also seals the active segment (atomic
    /// rename), bounding how much a later torn tail can cover.
    pub fn record_done(&self, result: &JobResult) {
        let payload = match &result.metrics {
            Ok(JobMetrics::Outcomes(outcomes)) => {
                let lines: Vec<String> = outcomes.iter().map(AnalysisOutcome::encode).collect();
                format!("ok\n{}", lines.join("\n"))
            }
            Ok(JobMetrics::Skipped) => "skip".to_owned(),
            Err(_) => return,
        };
        let record = format!(
            "done {} {} {:032x} {} {} {}",
            result.index,
            result.cell,
            result.identity,
            u8::from(result.cache_hit),
            result.wall_time.as_nanos(),
            escape(&payload)
        );
        let mut inner = self.lock();
        if inner.log.append(&record).is_err() {
            self.write_failures.fetch_add(1, Ordering::Relaxed);
        }
        inner.since_seal += 1;
        if inner.since_seal == SEAL_EVERY {
            inner.since_seal = 0;
            if inner.log.seal().is_err() {
                self.write_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Appends (journal handles failure of) no specific record but seals
    /// the active segment — called once when a sweep finishes so the
    /// final records are in a durable, renamed segment.
    pub fn seal(&self) {
        if self.lock().log.seal().is_err() {
            self.write_failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Journal appends that failed (durability degraded, sweep unharmed).
    #[must_use]
    pub fn write_failures(&self) -> u64 {
        self.write_failures.load(Ordering::Relaxed)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, JournalInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

enum Record {
    Start { hash: u64, total: usize },
    Done(JobResult),
}

/// Parses one journal record; `None` for records this build cannot read
/// (the checksum already vouched for their integrity, so unknown kinds
/// are skipped, not fatal — forward compatibility for free).
fn parse_record(record: &str) -> Option<Record> {
    let (kind, rest) = record.split_once(' ')?;
    match kind {
        "start" => {
            let mut fields = rest.splitn(3, ' ');
            let hash = u64::from_str_radix(fields.next()?, 16).ok()?;
            let total = fields.next()?.parse().ok()?;
            Some(Record::Start { hash, total })
        }
        "done" => {
            let mut fields = rest.splitn(6, ' ');
            let index = fields.next()?.parse().ok()?;
            let cell = fields.next()?.parse().ok()?;
            let identity = u128::from_str_radix(fields.next()?, 16).ok()?;
            let cache_hit = match fields.next()? {
                "0" => false,
                "1" => true,
                _ => return None,
            };
            let wall_ns: u64 = fields.next()?.parse().ok()?;
            let payload = unescape(fields.next()?);
            let metrics = if payload == "skip" {
                JobMetrics::Skipped
            } else {
                let body = payload.strip_prefix("ok\n")?;
                let outcomes: Vec<AnalysisOutcome> = body
                    .lines()
                    .map(AnalysisOutcome::decode)
                    .collect::<Option<_>>()?;
                JobMetrics::Outcomes(outcomes)
            };
            Some(Record::Done(JobResult {
                index,
                cell,
                worker: 0,
                identity,
                cache_hit,
                wall_time: Duration::from_nanos(wall_ns),
                timings: Vec::new(),
                metrics: Ok(metrics),
            }))
        }
        _ => None,
    }
}

/// What one journaled (possibly resumed) run did.
#[derive(Debug)]
pub struct JournalOutcome {
    /// The deterministic aggregate — bitwise the uninterrupted run's.
    pub aggregate: SweepAggregate,
    /// Jobs replayed from the journal (zero re-execution).
    pub replayed: usize,
    /// Jobs executed in this process.
    pub executed: usize,
    /// The spec's total expansion.
    pub total: usize,
    /// Journal appends that failed during the run.
    pub journal_write_failures: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GeneratorPreset;
    use crate::Engine;
    use std::sync::atomic::AtomicBool;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hetrta-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec() -> SweepSpec {
        SweepSpec::fractions(GeneratorPreset::Small, vec![2, 4], vec![0.1, 0.3], 4, 11)
    }

    #[test]
    fn journaled_run_matches_plain_run_bitwise() {
        let dir = temp_dir("plain");
        let engine = Engine::new(2);
        let plain = engine.run(&spec()).unwrap();
        let journaled = Engine::new(2)
            .run_journaled(&spec(), &JournalConfig::new(&dir))
            .unwrap();
        assert_eq!(journaled.aggregate, plain.aggregate);
        assert_eq!(journaled.replayed, 0);
        assert_eq!(journaled.executed, journaled.total);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_replays_done_jobs_and_runs_only_the_remainder() {
        let dir = temp_dir("resume");
        // 80 jobs: the resumed run writes 75 `done` records, so it seals
        // segments mid-run as well as at the end.
        let spec = SweepSpec::fractions(GeneratorPreset::Small, vec![2, 4], vec![0.1, 0.3], 20, 11);
        let engine = Engine::new(2);
        let full = engine.run(&spec).unwrap();
        let total = spec.job_count();
        assert!(total - 5 > SEAL_EVERY);

        // Interrupt a journaled run after exactly 5 jobs by journaling a
        // subset directly (the deterministic stand-in for SIGKILL; the
        // CLI integration test does the real kill -9), dropping without
        // a seal — as a crash would.
        let cfg = JournalConfig::new(&dir);
        let (journal, replay) = SweepJournal::open(&cfg, &spec, total).unwrap();
        assert!(replay.results.is_empty());
        let done: Vec<usize> = vec![0, 3, 7, 11, 15];
        engine
            .run_job_subset(&spec, &done, |result| {
                journal.record_done(&result);
            })
            .unwrap();
        drop(journal);

        // A fresh engine (cold caches — everything must come from the
        // journal, not memory) resumes and completes the rest.
        let resumed = Engine::new(2)
            .run_journaled(&spec, &JournalConfig::new(&dir).resuming())
            .unwrap();
        assert_eq!(resumed.replayed, 5);
        assert_eq!(resumed.executed, total - 5);
        assert_eq!(resumed.aggregate, full.aggregate, "bitwise identical");

        // Resuming a *finished* journal re-executes nothing at all.
        let again = Engine::new(2)
            .run_journaled(&spec, &JournalConfig::new(&dir).resuming())
            .unwrap();
        assert_eq!(again.executed, 0);
        assert_eq!(again.replayed, total);
        assert_eq!(again.aggregate, full.aggregate);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancellation_is_typed_and_leaves_the_journal_resumable() {
        let dir = temp_dir("cancel");
        let cancel = AtomicBool::new(true); // cancelled before any job runs
        let err = Engine::new(1)
            .run_journaled_with(
                &spec(),
                &JournalConfig::new(&dir),
                Some(&cancel),
                |_, _, _| {},
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::Cancelled));

        // The journal survives (with its start record) and resumes fine.
        let full = Engine::new(2).run(&spec()).unwrap();
        let resumed = Engine::new(2)
            .run_journaled(&spec(), &JournalConfig::new(&dir).resuming())
            .unwrap();
        assert_eq!(resumed.aggregate, full.aggregate);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streaming_sessions_journal_too() {
        use crate::session::SessionConfig;
        use crate::SweepEvent;

        // A session resumes from the middle of a sweep: 5 jobs are
        // journaled directly (the stand-in for a killed run), then a
        // fresh engine submits the whole sweep against that journal.
        let dir = temp_dir("session");
        let full = Engine::new(2).run(&spec()).unwrap();
        let total = spec().job_count();
        let (journal, _) = SweepJournal::open(&JournalConfig::new(&dir), &spec(), total).unwrap();
        Engine::new(2)
            .run_job_subset(&spec(), &[0, 3, 7, 11, 15], |result| {
                journal.record_done(&result);
            })
            .unwrap();
        drop(journal);

        let config = SessionConfig {
            journal: Some(JournalConfig::new(&dir).resuming()),
            ..SessionConfig::with_partials(1)
        };
        let handle = Engine::new(2).submit_with(&spec(), config).unwrap();
        let mut finished = 0usize;
        let mut partials = Vec::new();
        while let Some(event) = handle.next_event() {
            match event {
                SweepEvent::JobFinished { .. } => finished += 1,
                SweepEvent::PartialAggregate { completed, .. } => partials.push(completed),
                _ => {}
            }
        }
        let out = handle.wait().unwrap();
        assert_eq!(finished, total - 5, "replayed jobs emit no job events");
        assert_eq!(out.stats.replayed_jobs, 5);
        // One partial per executed job but the last, each counting the
        // 5 replayed jobs.
        assert_eq!(partials, (6..total).collect::<Vec<_>>());
        assert_eq!(
            format!("{:?}", out.aggregate),
            format!("{:?}", full.aggregate),
            "bitwise the uninterrupted run"
        );

        // The session journaled what it ran: a resume in a fresh engine
        // re-executes nothing.
        let resumed = Engine::new(2)
            .run_journaled(&spec(), &JournalConfig::new(&dir).resuming())
            .unwrap();
        assert_eq!(resumed.executed, 0);
        assert_eq!(resumed.replayed, total);
        assert_eq!(resumed.aggregate, full.aggregate);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_refused_spec_leaves_the_journal_directory_unwritten() {
        use crate::session::SessionConfig;
        use crate::spec::AnalysisSelection;

        // `acceptance` needs a task set; a fraction grid makes tasks. The
        // registry refuses the spec, and it must do so before the journal
        // directory holds a `start` record pinning it to this spec.
        let dir = temp_dir("refused");
        let refused = spec().with_analyses(AnalysisSelection::from_keys(["acceptance"]));
        let err = Engine::new(1)
            .run_journaled(&refused, &JournalConfig::new(&dir))
            .unwrap_err();
        assert!(err.to_string().contains("expects a task set"), "{err}");
        let config = SessionConfig {
            journal: Some(JournalConfig::new(&dir)),
            ..SessionConfig::quiet()
        };
        assert!(Engine::new(1).submit_with(&refused, config).is_err());
        assert!(RecordLog::read_all(&dir).unwrap().is_empty());

        // The directory is still free for a valid spec.
        let out = Engine::new(1)
            .run_journaled(&spec(), &JournalConfig::new(&dir))
            .unwrap();
        assert_eq!(out.executed, out.total);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unresumed_nonempty_journal_is_refused() {
        let dir = temp_dir("refuse");
        Engine::new(1)
            .run_journaled(&spec(), &JournalConfig::new(&dir))
            .unwrap();
        let err = Engine::new(1)
            .run_journaled(&spec(), &JournalConfig::new(&dir))
            .unwrap_err();
        assert!(err.to_string().contains("--resume"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_is_pinned_to_its_spec() {
        let dir = temp_dir("pin");
        Engine::new(1)
            .run_journaled(&spec(), &JournalConfig::new(&dir))
            .unwrap();
        let other = SweepSpec::fractions(GeneratorPreset::Small, vec![8], vec![0.2], 4, 12);
        let err = Engine::new(1)
            .run_journaled(&other, &JournalConfig::new(&dir).resuming())
            .unwrap_err();
        assert!(err.to_string().contains("different sweep"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spec_hash_changes_with_the_stream_version() {
        let text = encode_spec(&spec());
        let at = |stream: u32| fnv64(format!("stream {stream}\n{text}").as_bytes());
        assert_eq!(spec_hash(&spec()), at(STREAM_VERSION));
        assert_ne!(spec_hash(&spec()), at(STREAM_VERSION + 1));
        // The hash from before journals carried the version.
        assert_ne!(spec_hash(&spec()), fnv64(text.as_bytes()));
    }

    #[test]
    fn journal_of_an_earlier_task_stream_is_refused() {
        // A finished journal of this spec, copied with its `start` record
        // carrying the hash from before journals carried the version.
        let dir = temp_dir("stream");
        let earlier = temp_dir("stream-earlier");
        Engine::new(1)
            .run_journaled(&spec(), &JournalConfig::new(&dir))
            .unwrap();
        let unversioned = fnv64(encode_spec(&spec()).as_bytes());
        let mut log = RecordLog::open(&earlier).unwrap();
        for record in RecordLog::read_all(&dir).unwrap() {
            let record = match record.strip_prefix("start ") {
                Some(rest) => {
                    let (_, rest) = rest.split_once(' ').unwrap();
                    format!("start {unversioned:016x} {rest}")
                }
                None => record,
            };
            log.append(&record).unwrap();
        }
        drop(log);
        let err = Engine::new(1)
            .run_journaled(&spec(), &JournalConfig::new(&earlier).resuming())
            .unwrap_err();
        assert!(err.to_string().contains("different sweep"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&earlier);
    }

    #[test]
    fn torn_journal_tail_resumes_cleanly() {
        let dir = temp_dir("torn");
        Engine::new(1)
            .run_journaled(&spec(), &JournalConfig::new(&dir))
            .unwrap();
        // Tear the last bytes off the newest journal file, as a crash
        // mid-append would.
        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .collect();
        files.sort();
        let tail = files.last().unwrap();
        let bytes = std::fs::read(tail).unwrap();
        std::fs::write(tail, &bytes[..bytes.len().saturating_sub(9)]).unwrap();

        let full = Engine::new(2).run(&spec()).unwrap();
        let resumed = Engine::new(2)
            .run_journaled(&spec(), &JournalConfig::new(&dir).resuming())
            .unwrap();
        assert!(resumed.executed >= 1, "the torn record must re-run");
        assert_eq!(resumed.aggregate, full.aggregate);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
