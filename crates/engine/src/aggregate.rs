//! Streaming aggregation of job results into per-cell summaries.
//!
//! Results arrive in nondeterministic completion order; the aggregator
//! stores them into expansion-order slots (plus cheap running counters for
//! progress) and computes every floating-point reduction during
//! [`Aggregator::finalize`] by replaying the slots in expansion order. That
//! makes the aggregate **bit-identical across worker counts** — the
//! determinism contract the engine tests pin down.
//!
//! Reduction is generic over the tagged [`AnalysisOutcome`]s a job carries:
//! each tag feeds its own accumulators, so any registry selection — the
//! four classic per-task analyses, suspension baselines, conditional
//! bounds, acceptance tests — reduces without bespoke job shapes.

use hetrta_api::AnalysisOutcome;
use hetrta_sched::acceptance::TestKind;

use crate::job::{JobMetrics, JobResult};
use crate::spec::{CellInfo, CellShape};
use crate::EngineError;

/// Per-cell summary of a per-task sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskCellSummary {
    /// Scenario occurrence counts `[s1, s2.1, s2.2]` (Figure 8).
    pub scenario_counts: [usize; 3],
    /// Mean `100·(R_hom − R_het)/R_het` over the cell (Figure 9).
    pub mean_improvement: f64,
    /// Maximum observed improvement within the cell.
    pub max_improvement: f64,
    /// Mean `R_het` over the cell.
    pub mean_r_het: f64,
    /// Mean `R_hom(τ)` over the cell.
    pub mean_r_hom: f64,
    /// Tasks with `R_het ≤ D`.
    pub schedulable_het: usize,
    /// Tasks with `R_hom ≤ D`.
    pub schedulable_hom: usize,
    /// Mean simulated makespan of `τ`, if simulation was selected.
    pub mean_sim_makespan: Option<f64>,
    /// Mean simulated makespan of the transformed `τ'`, if the simulation
    /// ran with `sim_transformed` (Figure 6).
    pub mean_sim_transformed: Option<f64>,
    /// Tasks the bounded exact solver finished.
    pub exact_solved: usize,
    /// Mean exact makespan over the solved tasks.
    pub mean_exact_makespan: Option<f64>,
    /// Accuracy of the analytical bounds against the exact optimum, when
    /// the sweep ran `exact`, `hom` and `het` together (Figure 7).
    pub accuracy: Option<AccuracySummary>,
    /// Self-suspending baseline means, when `suspend` was selected.
    pub suspend: Option<SuspendCellSummary>,
    /// Sampled-simulation statistics, when `sampled` was selected.
    pub sampled: Option<SampledCellSummary>,
    /// Anytime exact-bound means, when `anytime` was selected.
    pub anytime: Option<AnytimeCellSummary>,
}

/// Per-cell statistics of the sampled makespan simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledCellSummary {
    /// Mean of the per-job sample means.
    pub mean: f64,
    /// Mean per-job 95% CI half-width (the sampling noise indicator).
    pub mean_ci_half: f64,
    /// Smallest sampled makespan across the cell.
    pub min: u64,
    /// Largest sampled makespan across the cell.
    pub max: u64,
    /// Total simulation samples drawn across the cell's jobs.
    pub total_samples: u64,
}

/// Per-cell means of the anytime exact bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct AnytimeCellSummary {
    /// Mean proven lower bound.
    pub mean_lower: f64,
    /// Mean feasible upper bound.
    pub mean_upper: f64,
    /// Jobs whose bounds were proven tight.
    pub optimal: usize,
}

/// Mean percentage increments of the analytical bounds over the proven
/// exact optimum (instances the solver could not close are skipped, like
/// the paper skips instances CPLEX could not solve).
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracySummary {
    /// Mean `100·(R_hom − opt)/opt` over solved instances.
    pub mean_hom_increment: f64,
    /// Mean `100·(R_het − opt)/opt` over solved instances.
    pub mean_het_increment: f64,
    /// Instances where the solver proved optimality (and `opt > 0`).
    pub solved: usize,
}

/// Per-cell means of the self-suspending baselines.
#[derive(Debug, Clone, PartialEq)]
pub struct SuspendCellSummary {
    /// Mean suspension-oblivious bound.
    pub mean_oblivious: f64,
    /// Mean phase-barrier bound.
    pub mean_barrier: f64,
    /// Mean `min(R_het, R_hom(τ'))`.
    pub mean_het_tight: f64,
    /// Mean of the unsound naive discount.
    pub mean_naive: f64,
    /// Mean worst observed makespan, when the exploration ran.
    pub mean_worst_observed: Option<f64>,
    /// Samples whose observed worst case exceeded the naive discount.
    pub naive_violations: usize,
}

/// Per-cell summary of an acceptance sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetCellSummary {
    /// Sets accepted per test, in [`TestKind::ALL`] order.
    pub accepted: [usize; 6],
}

impl SetCellSummary {
    /// Acceptance ratio of `test` in `[0, 1]`.
    #[must_use]
    pub fn ratio(&self, test: TestKind, samples: usize) -> f64 {
        let idx = TestKind::ALL
            .iter()
            .position(|&t| t == test)
            .expect("known test");
        self.accepted[idx] as f64 / samples.max(1) as f64
    }
}

impl TaskCellSummary {
    /// Scenario shares `(s1, s2.1, s2.2)` in `[0, 1]`.
    #[must_use]
    pub fn scenario_shares(&self, samples: usize) -> (f64, f64, f64) {
        let n = samples as f64;
        (
            self.scenario_counts[0] as f64 / n,
            self.scenario_counts[1] as f64 / n,
            self.scenario_counts[2] as f64 / n,
        )
    }
}

/// Per-cell summary of a conditional-bound sweep. Samples enter the means
/// only when the exact enumeration succeeded with a nonzero bound — the
/// serial ablation's inclusion rule.
#[derive(Debug, Clone, PartialEq)]
pub struct CondCellSummary {
    /// Samples included in the means.
    pub included: usize,
    /// Mean % by which flatten-all exceeds the conditional-aware bound.
    pub mean_flat_overhead: f64,
    /// Mean % by which the DP bound exceeds the exact enumeration.
    pub mean_dp_overhead: f64,
    /// Mean realizations per included expression.
    pub mean_realizations: f64,
}

/// Aggregated contents of one sweep cell.
//
// Task cells dwarf the other variants (every optional per-analysis
// summary lives inline), but an aggregate holds one cell per grid
// point — dozens, not millions — so indirection would cost more in
// destructuring churn than it saves in memory.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum CellKind {
    /// Per-task metrics.
    Task(TaskCellSummary),
    /// Acceptance-test counts.
    Set(SetCellSummary),
    /// Conditional-bound overheads.
    Cond(CondCellSummary),
}

/// One finalized sweep cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSummary {
    /// Host core count.
    pub m: u64,
    /// Grid value (offload fraction, normalized utilization, or
    /// conditional share).
    pub grid_value: f64,
    /// Jobs aggregated into this cell (declined samples excluded).
    pub samples: usize,
    /// The metrics.
    pub kind: CellKind,
}

/// The deterministic result of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepAggregate {
    /// One summary per cell, in expansion order (core counts outer, grid
    /// values inner).
    pub cells: Vec<CellSummary>,
}

impl SweepAggregate {
    /// The cell for `(m, grid_value)`, if present.
    #[must_use]
    pub fn cell(&self, m: u64, grid_value: f64) -> Option<&CellSummary> {
        self.cells
            .iter()
            .find(|c| c.m == m && c.grid_value == grid_value)
    }
}

/// One delta-encoded [`SweepAggregate`] snapshot — the payload of
/// [`SweepEvent::PartialAggregate`](crate::SweepEvent).
///
/// Huge sweeps emit hundreds of partial snapshots over thousands of
/// cells, but between two consecutive snapshots only the cells of the
/// jobs that completed in between actually change. The session stream
/// therefore carries *changed cells only*, with a periodic full keyframe
/// (cadence set by
/// [`SessionConfig::keyframe_every`](crate::SessionConfig)) so a consumer
/// that joined late — or fell behind a drop-oldest event buffer — can
/// resynchronize. Updates carry a per-stream sequence number so a
/// consumer can *detect* gaps (the bounded event buffer drops oldest
/// events under pressure): [`AggregateView`] refuses to apply a delta
/// whose predecessor it never saw and reports unsynced until the next
/// keyframe, rather than silently patching stale state. Reconstruction
/// is otherwise bitwise exact: the view's state after applying an update
/// equals the full snapshot the encoder saw (pinned by the unit tests
/// below).
#[derive(Debug, Clone, PartialEq)]
pub enum AggregateUpdate {
    /// A complete snapshot (always the first update of a stream).
    Keyframe {
        /// Position of this update in the encoder's stream (0-based).
        seq: u64,
        /// The full snapshot.
        aggregate: SweepAggregate,
    },
    /// The cells that changed since the previous update, as
    /// `(cell index, new summary)` pairs in cell order.
    Delta {
        /// Position of this update in the encoder's stream; valid only
        /// on a state that has applied update `seq - 1`.
        seq: u64,
        /// Changed cells; indices address the keyframe's `cells` vector.
        changed: Vec<(usize, CellSummary)>,
    },
}

impl AggregateUpdate {
    /// Number of cell summaries this update carries (what the delta
    /// encoding saves: deltas carry only changed cells).
    #[must_use]
    pub fn cells_carried(&self) -> usize {
        match self {
            AggregateUpdate::Keyframe { aggregate, .. } => aggregate.cells.len(),
            AggregateUpdate::Delta { changed, .. } => changed.len(),
        }
    }

    /// This update's position in the encoder's stream.
    #[must_use]
    pub fn seq(&self) -> u64 {
        match self {
            AggregateUpdate::Keyframe { seq, .. } | AggregateUpdate::Delta { seq, .. } => *seq,
        }
    }
}

/// Turns a stream of full snapshots into [`AggregateUpdate`]s: the first
/// snapshot (and every `keyframe_every`-th thereafter) becomes a
/// [`AggregateUpdate::Keyframe`], the rest shrink to changed-cells
/// deltas against the previously emitted state.
#[derive(Debug)]
pub(crate) struct AggregateDeltaEncoder {
    last: Option<SweepAggregate>,
    keyframe_every: usize,
    since_keyframe: usize,
    next_seq: u64,
}

impl AggregateDeltaEncoder {
    /// An encoder emitting a keyframe every `keyframe_every` updates
    /// (clamped to ≥ 1; `1` disables delta encoding entirely).
    pub(crate) fn new(keyframe_every: usize) -> Self {
        AggregateDeltaEncoder {
            last: None,
            keyframe_every: keyframe_every.max(1),
            since_keyframe: 0,
            next_seq: 0,
        }
    }

    /// Encodes one snapshot.
    pub(crate) fn encode(&mut self, snapshot: SweepAggregate) -> AggregateUpdate {
        let seq = self.next_seq;
        self.next_seq += 1;
        let update = match &self.last {
            Some(last)
                if self.since_keyframe < self.keyframe_every - 1
                    && last.cells.len() == snapshot.cells.len() =>
            {
                self.since_keyframe += 1;
                AggregateUpdate::Delta {
                    seq,
                    changed: snapshot
                        .cells
                        .iter()
                        .enumerate()
                        .filter(|&(i, cell)| last.cells[i] != *cell)
                        .map(|(i, cell)| (i, cell.clone()))
                        .collect(),
                }
            }
            _ => {
                self.since_keyframe = 0;
                AggregateUpdate::Keyframe {
                    seq,
                    aggregate: snapshot.clone(),
                }
            }
        };
        self.last = Some(snapshot);
        update
    }
}

/// Consumer-side reassembly of delta-encoded partial aggregates.
///
/// Feed every [`AggregateUpdate`] from the event stream to
/// [`AggregateView::apply`]; the view returns the reconstructed full
/// snapshot. The view tracks the stream's sequence numbers: a delta
/// arriving before any keyframe, or after a *gap* (the bounded
/// drop-oldest event buffer discarded an update in between), is refused
/// — the view reports unsynced (`None`) until the next keyframe
/// resynchronizes it, so it never silently patches stale state.
#[derive(Debug, Clone, Default)]
pub struct AggregateView {
    current: Option<SweepAggregate>,
    last_seq: Option<u64>,
}

impl AggregateView {
    /// An empty view (no keyframe seen yet).
    #[must_use]
    pub fn new() -> Self {
        AggregateView::default()
    }

    /// Applies one update; returns the reconstructed snapshot, or `None`
    /// while the view is unsynced (no keyframe seen yet, or a dropped
    /// update left a sequence gap a delta cannot bridge).
    pub fn apply(&mut self, update: &AggregateUpdate) -> Option<&SweepAggregate> {
        match update {
            AggregateUpdate::Keyframe { seq, aggregate } => {
                self.current = Some(aggregate.clone());
                self.last_seq = Some(*seq);
            }
            AggregateUpdate::Delta { seq, changed } => {
                if self.last_seq != seq.checked_sub(1) {
                    // Gap (or no keyframe yet): applying this delta would
                    // yield a silently wrong snapshot. Desynchronize
                    // until the next keyframe.
                    self.current = None;
                    self.last_seq = None;
                    return None;
                }
                let current = self.current.as_mut()?;
                for (index, cell) in changed {
                    current.cells[*index] = cell.clone();
                }
                self.last_seq = Some(*seq);
            }
        }
        self.current.as_ref()
    }

    /// The last reconstructed snapshot, if the view is in sync.
    #[must_use]
    pub fn snapshot(&self) -> Option<&SweepAggregate> {
        self.current.as_ref()
    }
}

/// Collects streamed results and finalizes them deterministically.
#[derive(Debug)]
pub struct Aggregator {
    cells: Vec<CellInfo>,
    shape: CellShape,
    slots: Vec<Option<JobResult>>,
    received: usize,
    cache_hits: u64,
    skipped: u64,
    first_error: Option<(usize, String)>,
}

impl Aggregator {
    /// Creates an aggregator for `job_count` jobs over `cells`.
    #[must_use]
    pub fn new(cells: Vec<CellInfo>, job_count: usize, shape: CellShape) -> Self {
        Aggregator {
            cells,
            shape,
            slots: vec![None; job_count],
            received: 0,
            cache_hits: 0,
            skipped: 0,
            first_error: None,
        }
    }

    /// Accepts one streamed result (any order).
    pub fn accept(&mut self, result: JobResult) {
        self.received += 1;
        if result.cache_hit {
            self.cache_hits += 1;
        }
        match &result.metrics {
            Ok(JobMetrics::Skipped) => self.skipped += 1,
            Ok(JobMetrics::Outcomes(_)) => {}
            Err(message) => {
                let candidate = (result.index, message.clone());
                // Deterministic error selection: lowest job index wins.
                if self
                    .first_error
                    .as_ref()
                    .is_none_or(|(i, _)| candidate.0 < *i)
                {
                    self.first_error = Some(candidate);
                }
            }
        }
        let index = result.index;
        self.slots[index] = Some(result);
    }

    /// Whether the result of job `index` was accepted already.
    pub(crate) fn contains(&self, index: usize) -> bool {
        self.slots[index].is_some()
    }

    /// Results accepted so far (progress indicator).
    #[must_use]
    pub fn received(&self) -> usize {
        self.received
    }

    /// Jobs whose results came fully from the caches.
    #[must_use]
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Jobs whose sample the generator declined.
    #[must_use]
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// A snapshot aggregate over every result received *so far* — the
    /// payload of [`SweepEvent::PartialAggregate`](crate::SweepEvent)
    /// events. Unfilled slots and failed jobs are simply absent from
    /// their cells; once every slot is filled, the snapshot of an
    /// error-free sweep equals [`Aggregator::finalize`]'s aggregate
    /// exactly (slots replay in expansion order either way).
    #[must_use]
    pub fn partial(&self) -> SweepAggregate {
        let mut per_cell: Vec<Vec<&[AnalysisOutcome]>> = vec![Vec::new(); self.cells.len()];
        for result in self.slots.iter().flatten() {
            if let Ok(JobMetrics::Outcomes(outcomes)) = &result.metrics {
                per_cell[result.cell].push(outcomes);
            }
        }
        summarize_cells(&self.cells, self.shape, &per_cell)
    }

    /// Replays the slots in expansion order and produces the aggregate.
    ///
    /// # Errors
    ///
    /// - [`EngineError::Job`] if any job failed (lowest index reported);
    /// - [`EngineError::Incomplete`] if a slot was never filled.
    pub fn finalize(self) -> Result<SweepAggregate, EngineError> {
        if let Some((index, message)) = self.first_error {
            return Err(EngineError::Job { index, message });
        }
        let mut per_cell: Vec<Vec<&[AnalysisOutcome]>> = vec![Vec::new(); self.cells.len()];
        for (index, slot) in self.slots.iter().enumerate() {
            let result = slot.as_ref().ok_or(EngineError::Incomplete { index })?;
            match result.metrics.as_ref().expect("errors already reported") {
                JobMetrics::Outcomes(outcomes) => per_cell[result.cell].push(outcomes),
                JobMetrics::Skipped => {}
            }
        }

        Ok(summarize_cells(&self.cells, self.shape, &per_cell))
    }
}

/// Summarizes every cell's collected outcome slices into an aggregate.
fn summarize_cells(
    cells: &[CellInfo],
    shape: CellShape,
    per_cell: &[Vec<&[AnalysisOutcome]>],
) -> SweepAggregate {
    SweepAggregate {
        cells: cells
            .iter()
            .zip(per_cell)
            .map(|(info, outcomes)| summarize_cell(shape, info, outcomes))
            .collect(),
    }
}

fn summarize_cell(shape: CellShape, info: &CellInfo, jobs: &[&[AnalysisOutcome]]) -> CellSummary {
    let kind = match shape {
        CellShape::Set => CellKind::Set(summarize_set_cell(jobs)),
        CellShape::Cond => CellKind::Cond(summarize_cond_cell(jobs)),
        CellShape::Task => CellKind::Task(summarize_task_cell(jobs)),
    };
    CellSummary {
        m: info.m,
        grid_value: info.grid_value,
        samples: jobs.len(),
        kind,
    }
}

/// Mean/max reductions mirror `hetrta_bench::stats::summarize` operation
/// order (sum then divide; max by `f64::max` fold) so engine sweeps match
/// the serial experiments bitwise.
fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn max(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }
}

fn mean_opt(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(mean(values))
    }
}

fn summarize_set_cell(jobs: &[&[AnalysisOutcome]]) -> SetCellSummary {
    let mut accepted = [0usize; 6];
    for outcomes in jobs {
        for outcome in *outcomes {
            if let AnalysisOutcome::Acceptance(a) = outcome {
                for (count, &bit) in accepted.iter_mut().zip(&a.accepted) {
                    *count += usize::from(bit);
                }
            }
        }
    }
    SetCellSummary { accepted }
}

fn summarize_cond_cell(jobs: &[&[AnalysisOutcome]]) -> CondCellSummary {
    let mut flat_overheads = Vec::new();
    let mut dp_overheads = Vec::new();
    let mut realizations = Vec::new();
    for outcomes in jobs {
        for outcome in *outcomes {
            let AnalysisOutcome::Cond(c) = outcome else {
                continue;
            };
            // Serial inclusion rule: exact enumeration succeeded, nonzero.
            let Some(exact) = c.exact else { continue };
            if exact == 0.0 {
                continue;
            }
            flat_overheads.push((c.flattened / c.cond_aware - 1.0) * 100.0);
            dp_overheads.push((c.cond_aware / exact - 1.0) * 100.0);
            realizations.push(c.realizations as f64);
        }
    }
    CondCellSummary {
        included: flat_overheads.len(),
        mean_flat_overhead: mean(&flat_overheads),
        mean_dp_overhead: mean(&dp_overheads),
        mean_realizations: mean(&realizations),
    }
}

fn summarize_task_cell(jobs: &[&[AnalysisOutcome]]) -> TaskCellSummary {
    let mut scenario_counts = [0usize; 3];
    let mut improvements = Vec::with_capacity(jobs.len());
    let mut r_hets = Vec::with_capacity(jobs.len());
    let mut r_homs = Vec::with_capacity(jobs.len());
    let mut sims = Vec::new();
    let mut sims_transformed = Vec::new();
    let mut exacts = Vec::new();
    let mut hom_increments = Vec::new();
    let mut het_increments = Vec::new();
    let mut schedulable_het = 0usize;
    let mut schedulable_hom = 0usize;
    let mut accuracy_selected = false;
    let mut oblivious = Vec::new();
    let mut barriers = Vec::new();
    let mut het_tights = Vec::new();
    let mut naives = Vec::new();
    let mut worsts = Vec::new();
    let mut naive_violations = 0usize;
    let mut suspend_selected = false;
    let mut sampled_means = Vec::new();
    let mut sampled_cis = Vec::new();
    let (mut sampled_min, mut sampled_max) = (u64::MAX, 0u64);
    let mut sampled_total = 0u64;
    let mut sampled_selected = false;
    let mut anytime_lowers = Vec::new();
    let mut anytime_uppers = Vec::new();
    let mut anytime_optimal = 0usize;
    let mut anytime_selected = false;

    for outcomes in jobs {
        let mut het_value = None;
        let mut hom_value = None;
        let mut exact_outcome = None;
        let mut exact_selected = false;
        for outcome in *outcomes {
            match outcome {
                AnalysisOutcome::Het(h) => {
                    use hetrta_core::Scenario;
                    let slot = match h.scenario {
                        Scenario::OffNotOnCriticalPath => 0,
                        Scenario::OffOnCriticalPathDominant => 1,
                        Scenario::OffOnCriticalPathDominated => 2,
                    };
                    scenario_counts[slot] += 1;
                    improvements.push(h.improvement_percent);
                    r_hets.push(h.r_het);
                    r_homs.push(h.r_hom_original);
                    schedulable_het += usize::from(h.schedulable_het);
                    schedulable_hom += usize::from(h.schedulable_hom);
                    het_value = Some(h.r_het);
                }
                AnalysisOutcome::Hom { r_hom } => hom_value = Some(*r_hom),
                AnalysisOutcome::Sim(s) => {
                    sims.push(s.makespan as f64);
                    if let Some(t) = s.transformed_makespan {
                        sims_transformed.push(t as f64);
                    }
                }
                AnalysisOutcome::Exact(e) => {
                    exact_selected = true;
                    if let Some(x) = e {
                        exacts.push(x.makespan as f64);
                        exact_outcome = Some(*x);
                    }
                }
                AnalysisOutcome::Suspend(s) => {
                    suspend_selected = true;
                    oblivious.push(s.oblivious);
                    barriers.push(s.phase_barrier);
                    het_tights.push(s.r_het_tight);
                    naives.push(s.naive_unsound);
                    if let Some(w) = s.worst_observed {
                        worsts.push(w as f64);
                    }
                    naive_violations += usize::from(s.naive_violated == Some(true));
                }
                AnalysisOutcome::Sampled(s) => {
                    sampled_selected = true;
                    sampled_means.push(s.mean);
                    sampled_cis.push(s.ci_half);
                    sampled_min = sampled_min.min(s.min);
                    sampled_max = sampled_max.max(s.max);
                    sampled_total += s.count;
                }
                AnalysisOutcome::Anytime(a) => {
                    anytime_selected = true;
                    anytime_lowers.push(a.lower as f64);
                    anytime_uppers.push(a.upper as f64);
                    anytime_optimal += usize::from(a.optimal);
                }
                // Acceptance/Cond outcomes never appear in task cells by
                // construction; ignore them defensively.
                AnalysisOutcome::Acceptance(_) | AnalysisOutcome::Cond(_) => {}
            }
        }

        // A job carrying both analyses contributes R_hom(τ) once: the het
        // outcome's copy wins, mirroring the serial sweeps.
        if het_value.is_none() {
            if let Some(r) = hom_value {
                r_homs.push(r);
            }
        }
        // Figure 7: increments over the proven exact optimum.
        if exact_selected && hom_value.is_some() && het_value.is_some() {
            accuracy_selected = true;
            if let (Some(e), Some(hom), Some(het)) = (exact_outcome, hom_value, het_value) {
                if e.optimal {
                    let opt = e.makespan as f64;
                    if opt != 0.0 {
                        hom_increments.push(100.0 * (hom - opt) / opt);
                        het_increments.push(100.0 * (het - opt) / opt);
                    }
                }
            }
        }
    }

    TaskCellSummary {
        scenario_counts,
        mean_improvement: mean(&improvements),
        max_improvement: max(&improvements),
        mean_r_het: mean(&r_hets),
        mean_r_hom: mean(&r_homs),
        schedulable_het,
        schedulable_hom,
        mean_sim_makespan: mean_opt(&sims),
        mean_sim_transformed: mean_opt(&sims_transformed),
        exact_solved: exacts.len(),
        mean_exact_makespan: mean_opt(&exacts),
        accuracy: accuracy_selected.then(|| AccuracySummary {
            mean_hom_increment: mean(&hom_increments),
            mean_het_increment: mean(&het_increments),
            solved: hom_increments.len(),
        }),
        suspend: suspend_selected.then(|| SuspendCellSummary {
            mean_oblivious: mean(&oblivious),
            mean_barrier: mean(&barriers),
            mean_het_tight: mean(&het_tights),
            mean_naive: mean(&naives),
            mean_worst_observed: mean_opt(&worsts),
            naive_violations,
        }),
        sampled: sampled_selected.then(|| SampledCellSummary {
            mean: mean(&sampled_means),
            mean_ci_half: mean(&sampled_cis),
            min: sampled_min,
            max: sampled_max,
            total_samples: sampled_total,
        }),
        anytime: anytime_selected.then(|| AnytimeCellSummary {
            mean_lower: mean(&anytime_lowers),
            mean_upper: mean(&anytime_uppers),
            optimal: anytime_optimal,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetrta_api::{AcceptanceOutcome, CondOutcome, HetOutcome, SuspendOutcome};
    use hetrta_core::Scenario;

    fn het(improvement: f64, scenario: Scenario) -> JobMetrics {
        JobMetrics::Outcomes(vec![AnalysisOutcome::Het(HetOutcome {
            r_het: 10.0,
            r_hom_original: 12.0,
            r_hom_transformed: 13.0,
            scenario,
            improvement_percent: improvement,
            schedulable_het: true,
            schedulable_hom: false,
        })])
    }

    fn result(index: usize, cell: usize, metrics: JobMetrics) -> JobResult {
        JobResult {
            index,
            cell,
            worker: 0,
            identity: 0,
            cache_hit: false,
            wall_time: std::time::Duration::ZERO,
            timings: Vec::new(),
            metrics: Ok(metrics),
        }
    }

    fn cell_infos() -> Vec<CellInfo> {
        vec![CellInfo {
            m: 2,
            grid_value: 0.1,
        }]
    }

    #[test]
    fn order_independence_of_acceptance() {
        let results = [
            result(0, 0, het(10.0, Scenario::OffNotOnCriticalPath)),
            result(1, 0, het(30.0, Scenario::OffOnCriticalPathDominant)),
            result(2, 0, het(20.0, Scenario::OffNotOnCriticalPath)),
        ];

        let mut forward = Aggregator::new(cell_infos(), 3, CellShape::Task);
        for r in &results {
            forward.accept(r.clone());
        }
        let mut backward = Aggregator::new(cell_infos(), 3, CellShape::Task);
        for r in results.iter().rev() {
            backward.accept(r.clone());
        }
        let a = forward.finalize().unwrap();
        let b = backward.finalize().unwrap();
        assert_eq!(a, b);

        let CellKind::Task(t) = &a.cells[0].kind else {
            panic!("task cell")
        };
        assert_eq!(t.scenario_counts, [2, 1, 0]);
        assert_eq!(t.mean_improvement, 20.0);
        assert_eq!(t.max_improvement, 30.0);
        assert_eq!(t.schedulable_het, 3);
        let (s1, s21, s22) = t.scenario_shares(a.cells[0].samples);
        assert!((s1 - 2.0 / 3.0).abs() < 1e-12 && (s21 - 1.0 / 3.0).abs() < 1e-12 && s22 == 0.0);
    }

    #[test]
    fn set_cells_count_accepts() {
        let cells = vec![CellInfo {
            m: 4,
            grid_value: 0.5,
        }];
        let mut agg = Aggregator::new(cells, 2, CellShape::Set);
        agg.accept(result(
            0,
            0,
            JobMetrics::Outcomes(vec![AnalysisOutcome::Acceptance(AcceptanceOutcome {
                accepted: [true, true, false, true, false, true],
            })]),
        ));
        agg.accept(result(
            1,
            0,
            JobMetrics::Outcomes(vec![AnalysisOutcome::Acceptance(AcceptanceOutcome {
                accepted: [false, true, false, false, false, true],
            })]),
        ));
        let a = agg.finalize().unwrap();
        let CellKind::Set(s) = &a.cells[0].kind else {
            panic!("set cell")
        };
        assert_eq!(s.accepted, [1, 2, 0, 1, 0, 2]);
        assert_eq!(s.ratio(TestKind::GfpHeterogeneous, a.cells[0].samples), 1.0);
        assert_eq!(s.ratio(TestKind::GedfHomogeneous, a.cells[0].samples), 0.0);
    }

    #[test]
    fn cond_cells_apply_the_serial_inclusion_rule() {
        let cond = |flattened: f64, cond_aware: f64, exact: Option<f64>| {
            JobMetrics::Outcomes(vec![AnalysisOutcome::Cond(CondOutcome {
                flattened,
                cond_aware,
                exact,
                realizations: 4,
            })])
        };
        let mut agg = Aggregator::new(cell_infos(), 4, CellShape::Cond);
        agg.accept(result(0, 0, cond(30.0, 20.0, Some(10.0))));
        agg.accept(result(1, 0, cond(50.0, 25.0, None))); // enumeration refused
        agg.accept(result(2, 0, cond(50.0, 25.0, Some(0.0)))); // zero bound
        agg.accept(result(3, 0, JobMetrics::Skipped)); // generation declined
        let a = agg.finalize().unwrap();
        assert_eq!(a.cells[0].samples, 3, "skips leave the sample count");
        let CellKind::Cond(c) = &a.cells[0].kind else {
            panic!("cond cell")
        };
        assert_eq!(c.included, 1);
        assert_eq!(c.mean_flat_overhead, 50.0);
        assert_eq!(c.mean_dp_overhead, 100.0);
        assert_eq!(c.mean_realizations, 4.0);
    }

    #[test]
    fn suspend_outcomes_summarize_in_task_cells() {
        let suspend = |oblivious: f64, violated: bool| {
            JobMetrics::Outcomes(vec![AnalysisOutcome::Suspend(SuspendOutcome {
                oblivious,
                phase_barrier: oblivious - 1.0,
                r_het_tight: oblivious - 2.0,
                naive_unsound: oblivious - 3.0,
                worst_observed: Some(8),
                naive_violated: Some(violated),
            })])
        };
        let mut agg = Aggregator::new(cell_infos(), 2, CellShape::Task);
        agg.accept(result(0, 0, suspend(10.0, true)));
        agg.accept(result(1, 0, suspend(14.0, false)));
        let a = agg.finalize().unwrap();
        let CellKind::Task(t) = &a.cells[0].kind else {
            panic!("task cell")
        };
        let s = t.suspend.as_ref().expect("suspend summarized");
        assert_eq!(s.mean_oblivious, 12.0);
        assert_eq!(s.mean_naive, 9.0);
        assert_eq!(s.mean_worst_observed, Some(8.0));
        assert_eq!(s.naive_violations, 1);
        // No het/hom outcomes → those reductions stay at their defaults.
        assert_eq!(t.scenario_counts, [0, 0, 0]);
        assert!(t.accuracy.is_none());
    }

    #[test]
    fn sampled_and_anytime_outcomes_summarize_in_task_cells() {
        use hetrta_api::{AnytimeOutcome, SampledOutcome};
        let job = |mean: f64, lower: u64, optimal: bool| {
            JobMetrics::Outcomes(vec![
                AnalysisOutcome::Sampled(SampledOutcome {
                    mean,
                    ci_half: 2.0,
                    min: mean as u64 - 4,
                    max: mean as u64 + 4,
                    count: 16,
                }),
                AnalysisOutcome::Anytime(AnytimeOutcome {
                    lower,
                    upper: lower + 2,
                    optimal,
                }),
            ])
        };
        let mut agg = Aggregator::new(cell_infos(), 2, CellShape::Task);
        agg.accept(result(0, 0, job(40.0, 30, true)));
        agg.accept(result(1, 0, job(44.0, 34, false)));
        let a = agg.finalize().unwrap();
        let CellKind::Task(t) = &a.cells[0].kind else {
            panic!("task cell")
        };
        let s = t.sampled.as_ref().expect("sampled summarized");
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.mean_ci_half, 2.0);
        assert_eq!((s.min, s.max), (36, 48));
        assert_eq!(s.total_samples, 32);
        let any = t.anytime.as_ref().expect("anytime summarized");
        assert_eq!(any.mean_lower, 32.0);
        assert_eq!(any.mean_upper, 34.0);
        assert_eq!(any.optimal, 1);
        // No het outcomes → the het reductions stay at defaults.
        assert_eq!(t.scenario_counts, [0, 0, 0]);
    }

    #[test]
    fn accuracy_increments_skip_unsolved_instances() {
        use hetrta_api::ExactOutcome;
        let job = |opt: Option<(u64, bool)>| {
            JobMetrics::Outcomes(vec![
                AnalysisOutcome::Exact(
                    opt.map(|(makespan, optimal)| ExactOutcome { makespan, optimal }),
                ),
                AnalysisOutcome::Hom { r_hom: 12.0 },
                AnalysisOutcome::Het(HetOutcome {
                    r_het: 11.0,
                    r_hom_original: 12.0,
                    r_hom_transformed: 13.0,
                    scenario: Scenario::OffNotOnCriticalPath,
                    improvement_percent: 0.0,
                    schedulable_het: true,
                    schedulable_hom: true,
                }),
            ])
        };
        let mut agg = Aggregator::new(cell_infos(), 3, CellShape::Task);
        agg.accept(result(0, 0, job(Some((10, true)))));
        agg.accept(result(1, 0, job(Some((10, false))))); // not proven optimal
        agg.accept(result(2, 0, job(None))); // solver gave up
        let a = agg.finalize().unwrap();
        let CellKind::Task(t) = &a.cells[0].kind else {
            panic!("task cell")
        };
        let acc = t.accuracy.as_ref().expect("accuracy selected");
        assert_eq!(acc.solved, 1);
        assert_eq!(acc.mean_hom_increment, 20.0);
        assert!((acc.mean_het_increment - 10.0).abs() < 1e-12);
        assert_eq!(t.exact_solved, 2, "feasible-but-unproven still counts");
        // R_hom enters the cell mean once per job (het's copy wins).
        assert_eq!(t.mean_r_hom, 12.0);
    }

    #[test]
    fn delta_encoding_reconstructs_snapshots_bitwise() {
        // Feed results one by one; after each, the encoder's update
        // applied to the consumer view must reproduce the full snapshot
        // exactly — bitwise, pinned through the Debug rendering (which
        // prints every f64 digit-exact via `{:?}`).
        let cells = vec![
            CellInfo {
                m: 2,
                grid_value: 0.1,
            },
            CellInfo {
                m: 2,
                grid_value: 0.3,
            },
        ];
        let mut agg = Aggregator::new(cells, 6, CellShape::Task);
        let mut encoder = AggregateDeltaEncoder::new(3);
        let mut view = AggregateView::new();
        let mut keyframes = 0;
        let mut deltas = 0;
        for i in 0..6 {
            let cell = i % 2;
            agg.accept(result(
                i,
                cell,
                het(7.5 * i as f64, Scenario::OffNotOnCriticalPath),
            ));
            let snapshot = agg.partial();
            let update = encoder.encode(snapshot.clone());
            assert_eq!(update.seq(), u64::from(i as u32), "stream position");
            match &update {
                AggregateUpdate::Keyframe { .. } => keyframes += 1,
                AggregateUpdate::Delta { changed, .. } => {
                    deltas += 1;
                    assert_eq!(changed.len(), 1, "one result → one changed cell");
                }
            }
            let reconstructed = view.apply(&update).expect("keyframe seen");
            assert_eq!(*reconstructed, snapshot);
            assert_eq!(format!("{reconstructed:?}"), format!("{snapshot:?}"));
        }
        // Cadence 3 over 6 updates: keyframes at 0 and 3.
        assert_eq!((keyframes, deltas), (2, 4));
    }

    #[test]
    fn deltas_before_a_keyframe_or_after_a_gap_desynchronize_the_view() {
        let cell = CellSummary {
            m: 2,
            grid_value: 0.5,
            samples: 1,
            kind: CellKind::Set(SetCellSummary { accepted: [0; 6] }),
        };
        let mut view = AggregateView::new();
        // Orphan delta (keyframe dropped by the event buffer): refused.
        let orphan = AggregateUpdate::Delta {
            seq: 3,
            changed: vec![(0, cell.clone())],
        };
        assert!(view.apply(&orphan).is_none());
        assert!(view.snapshot().is_none());
        // Keyframe resynchronizes…
        let keyframe = AggregateUpdate::Keyframe {
            seq: 4,
            aggregate: SweepAggregate {
                cells: vec![cell.clone()],
            },
        };
        assert!(view.apply(&keyframe).is_some());
        // …a contiguous delta applies…
        let next = AggregateUpdate::Delta {
            seq: 5,
            changed: vec![(0, cell.clone())],
        };
        assert!(view.apply(&next).is_some());
        // …but a delta after a dropped update (seq 6 missing) must
        // desynchronize rather than silently patch stale cells.
        let gapped = AggregateUpdate::Delta {
            seq: 7,
            changed: vec![(0, cell)],
        };
        assert!(view.apply(&gapped).is_none());
        assert!(view.snapshot().is_none(), "stale state is discarded");
    }

    #[test]
    fn lowest_index_error_wins() {
        let mut agg = Aggregator::new(cell_infos(), 2, CellShape::Task);
        let failure = |index: usize, message: &str| {
            let mut r = result(index, 0, JobMetrics::Skipped);
            r.metrics = Err(message.into());
            r
        };
        agg.accept(failure(1, "late failure"));
        agg.accept(failure(0, "early failure"));
        match agg.finalize() {
            Err(EngineError::Job { index, message }) => {
                assert_eq!(index, 0);
                assert_eq!(message, "early failure");
            }
            other => panic!("expected job error, got {other:?}"),
        }
    }

    #[test]
    fn missing_slots_are_reported() {
        let agg = Aggregator::new(cell_infos(), 1, CellShape::Task);
        assert!(matches!(
            agg.finalize(),
            Err(EngineError::Incomplete { index: 0 })
        ));
    }
}
