//! The sweep driver: everything between a finished [`JobResult`] and the
//! sweep's aggregate, written once. The engine's sessions,
//! [`Engine::run_journaled_with`](crate::Engine::run_journaled_with),
//! `hetrta engine sweep --shard`, the `hetrta-dist` coordinator and the
//! `hetrta serve` pumps all feed their results through a
//! [`SweepDriver`]; where the jobs run (the engine's pool or a worker
//! fleet) is the caller's business.

use std::sync::Arc;

use hetrta_api::AnalysisRegistry;
use hetrta_obs::{span, Recorder};

use crate::aggregate::{AggregateDeltaEncoder, AggregateUpdate, Aggregator, SweepAggregate};
use crate::engine::EngineError;
use crate::job::{Job, JobResult};
use crate::journal::{JournalConfig, SweepJournal};
use crate::spec::{CellInfo, SweepSpec};

/// Checks `spec` against `registry` and expands it: spec-internal
/// consistency first, then every analysis key must consume the input
/// kind this grid produces (a mismatch would deterministically fail
/// every job, so it is refused before any work starts).
pub(crate) fn expand_checked(
    spec: &SweepSpec,
    registry: &AnalysisRegistry,
) -> Result<(Vec<CellInfo>, Vec<Job>), EngineError> {
    spec.validate()?;
    let produced = spec.input_kind();
    for key in spec.analyses.keys() {
        let analysis = registry
            .get(key)
            .map_err(|e| EngineError::InvalidSpec(e.to_string()))?;
        if analysis.input_kind() != produced {
            let compatible: Vec<&str> = registry
                .keys()
                .into_iter()
                .filter(|k| registry.get(k).is_ok_and(|a| a.input_kind() == produced))
                .collect();
            return Err(EngineError::InvalidSpec(format!(
                "analysis `{key}` expects a {}, but this grid produces a {} \
                 (analyses of this grid: {})",
                analysis.input_kind().describe(),
                produced.describe(),
                compatible.join(", ")
            )));
        }
    }
    Ok(spec.expand())
}

/// One sweep's result path. It checks the spec against the registry
/// before it touches the journal directory (a refused spec leaves no
/// records), expands the spec once, replays the journal, drops duplicate
/// results, writes each `done` record before the aggregate takes the
/// result, delta-encodes partial snapshots, and seals the journal on
/// [`SweepDriver::finish`] and on drop — so every exit path, early errors
/// included, leaves its records in a durable segment.
///
/// ```
/// use hetrta_engine::{AnalysisRegistry, GeneratorPreset, SweepDriver, SweepSpec};
///
/// # fn main() -> Result<(), hetrta_engine::EngineError> {
/// let spec = SweepSpec::fractions(GeneratorPreset::Small, vec![2], vec![0.2], 4, 7);
/// let (driver, jobs) = SweepDriver::open(&spec, &AnalysisRegistry::builtin(), None)?;
/// assert_eq!(jobs.len(), driver.total()); // nothing journaled: every job runs
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SweepDriver {
    aggregator: Aggregator,
    journal: Option<SealOnDrop>,
    partials: Option<Partials>,
    recorder: Option<Arc<dyn Recorder>>,
    total: usize,
    replayed: usize,
}

/// Partial-snapshot cadence and the encoder that delta-encodes them.
#[derive(Debug)]
struct Partials {
    every: usize,
    encoder: AggregateDeltaEncoder,
}

/// A journal that seals its active segment when dropped.
#[derive(Debug)]
struct SealOnDrop(SweepJournal);

impl Drop for SealOnDrop {
    fn drop(&mut self) {
        self.0.seal();
    }
}

impl SweepDriver {
    /// Checks `spec` against `registry`, expands it once and — when
    /// `journal` is set — opens and replays the journal. Returns the
    /// driver and the jobs that still have to run, in expansion order.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidSpec`] for an inconsistent spec or a key the
    /// registry cannot run on this grid (checked before the journal
    /// directory is touched), plus every error of [`SweepJournal::open`].
    pub fn open(
        spec: &SweepSpec,
        registry: &AnalysisRegistry,
        journal: Option<&JournalConfig>,
    ) -> Result<(SweepDriver, Vec<Job>), EngineError> {
        let (cells, mut jobs) = expand_checked(spec, registry)?;
        let total = jobs.len();
        let mut aggregator = Aggregator::new(cells, total, spec.cell_shape());
        let journal = match journal {
            Some(cfg) => {
                let (journal, replay) = SweepJournal::open(cfg, spec, total)?;
                for result in replay.results {
                    aggregator.accept(result);
                }
                jobs.retain(|job| !aggregator.contains(job.index));
                Some(SealOnDrop(journal))
            }
            None => None,
        };
        let replayed = aggregator.received();
        let driver = SweepDriver {
            aggregator,
            journal,
            partials: None,
            recorder: None,
            total,
            replayed,
        };
        Ok((driver, jobs))
    }

    /// Makes [`SweepDriver::accept`] return a partial snapshot after every
    /// `every` completed jobs (`None` = never), delta-encoded with a full
    /// keyframe every `keyframe_every`-th snapshot.
    #[must_use]
    pub fn with_partials(mut self, every: Option<usize>, keyframe_every: usize) -> Self {
        self.partials = every.map(|every| Partials {
            every: every.max(1),
            encoder: AggregateDeltaEncoder::new(keyframe_every),
        });
        self
    }

    /// Records a `session.emit_partial` span around each partial snapshot.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Whether job `index` is part of this sweep and has no result yet.
    #[must_use]
    pub fn is_pending(&self, index: usize) -> bool {
        index < self.total && !self.aggregator.contains(index)
    }

    /// Takes one finished job. A duplicate (or out-of-range) result is
    /// dropped. Otherwise the `done` record is written before the
    /// aggregate takes the result, a journal keyframe follows every
    /// `keyframe_every` records, and the return value is the next partial
    /// snapshot when one is due.
    pub fn accept(&mut self, result: JobResult) -> Option<AggregateUpdate> {
        if !self.is_pending(result.index) {
            return None;
        }
        let keyframe_due = self
            .journal
            .as_ref()
            .is_some_and(|journal| journal.0.record_done(&result));
        self.aggregator.accept(result);
        let completed = self.aggregator.received();
        if completed == self.total {
            return None;
        }
        if keyframe_due {
            if let Some(journal) = &self.journal {
                journal
                    .0
                    .record_keyframe(completed, self.aggregator.partial());
            }
        }
        let partials = self.partials.as_mut()?;
        if !completed.is_multiple_of(partials.every) {
            return None;
        }
        let recorder: &dyn Recorder = self.recorder.as_deref().unwrap_or(&hetrta_obs::NOOP);
        let _span = span!(recorder, "session.emit_partial");
        Some(partials.encoder.encode(self.aggregator.partial()))
    }

    /// A snapshot over every result taken so far (replayed ones included).
    #[must_use]
    pub fn partial(&self) -> SweepAggregate {
        self.aggregator.partial()
    }

    /// Seals the journal's active segment (a no-op without a journal, and
    /// when nothing was appended since the last seal).
    pub fn seal(&self) {
        if let Some(journal) = &self.journal {
            journal.0.seal();
        }
    }

    /// Seals the journal and finalizes the aggregate.
    ///
    /// # Errors
    ///
    /// [`EngineError::Job`] if a job failed (lowest index reported),
    /// [`EngineError::Incomplete`] if a job never delivered a result.
    pub fn finish(self) -> Result<SweepAggregate, EngineError> {
        let SweepDriver {
            aggregator,
            journal,
            ..
        } = self;
        drop(journal);
        aggregator.finalize()
    }

    /// Jobs of the spec's full expansion.
    #[must_use]
    pub fn total(&self) -> usize {
        self.total
    }

    /// Jobs with a result so far, replayed ones included.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.aggregator.received()
    }

    /// Jobs replayed from the journal when the driver opened.
    #[must_use]
    pub fn replayed(&self) -> usize {
        self.replayed
    }

    /// Jobs whose results came fully from the caches.
    #[must_use]
    pub fn cache_hits(&self) -> u64 {
        self.aggregator.cache_hits()
    }

    /// Jobs whose sample the generator declined.
    #[must_use]
    pub fn skipped(&self) -> u64 {
        self.aggregator.skipped()
    }

    /// Journal appends that failed so far (`None` without a journal).
    #[must_use]
    pub fn journal_write_failures(&self) -> Option<u64> {
        self.journal
            .as_ref()
            .map(|journal| journal.0.write_failures())
    }
}
