//! Streaming aggregation of job results into per-cell statistics.
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
//!
//! Every statistic a cell can carry is declared once, as a row of
//! [`CELL_STATS`]: its [`CellStat`] variant, its name, the [`CellShape`]
//! whose cells carry it, its table section and its [`StatKind`]. A
//! [`CellSummary`] holds one optional value per statistic of its shape,
//! and the wire codec ([`crate::wire`]) and the CLI's CSV and table read
//! the rows instead of knowing each analysis. A new statistic is one
//! variant, one row, and the rollup line below that computes it.

use hetrta_api::AnalysisOutcome;
use hetrta_sched::acceptance::TestKind;

use crate::job::{JobMetrics, JobResult};
use crate::spec::{CellInfo, CellShape};
use crate::EngineError;

/// How a statistic's value is stored and rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatKind {
    /// An integer count.
    Count,
    /// A count rendered as a share of the cell's samples
    /// ([`CellSummary::share`]).
    Share,
    /// A real number.
    Real,
}

/// One row of [`CELL_STATS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatDef {
    /// The statistic.
    pub stat: CellStat,
    /// Its name: the CSV column and the table header.
    pub name: &'static str,
    /// The shape of the cells that carry it.
    pub shape: CellShape,
    /// The table block it renders in (one per analysis).
    pub section: &'static str,
    /// How its value is stored and rendered.
    pub kind: StatKind,
}

/// Declares [`CellStat`] and [`CELL_STATS`] from one list of rows, so a
/// variant's position is its row's.
macro_rules! cell_stats {
    ($($(#[$doc:meta])* $stat:ident: $name:expr, $shape:ident, $section:expr, $kind:ident;)*) => {
        /// A statistic of a sweep cell; its row of [`CELL_STATS`] declares it.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum CellStat {
            $($(#[$doc])* $stat,)*
        }

        /// Every cell statistic, grouped by shape in column order:
        /// variant, name, shape, table section and kind.
        pub const CELL_STATS: &[StatDef] = &[$(StatDef {
            stat: CellStat::$stat,
            name: $name,
            shape: CellShape::$shape,
            section: $section,
            kind: StatKind::$kind,
        },)*];
    };
}

cell_stats! {
    /// Tasks in scenario 1, `v_off` off the critical path (Figure 8).
    S1: "s1", Task, "het", Share;
    /// Tasks in scenario 2.1, `v_off` on a critical path and dominant.
    S21: "s21", Task, "het", Share;
    /// Tasks in scenario 2.2, `v_off` on a critical path and dominated.
    S22: "s22", Task, "het", Share;
    /// Mean `100·(R_hom − R_het)/R_het` (Figure 9).
    MeanImprovement: "mean_improvement", Task, "het", Real;
    /// Largest improvement in the cell.
    MaxImprovement: "max_improvement", Task, "het", Real;
    /// Tasks with `R_het ≤ D`.
    SchedulableHet: "schedulable_het", Task, "het", Count;
    /// Tasks with `R_hom ≤ D`.
    SchedulableHom: "schedulable_hom", Task, "het", Count;
    /// Mean `R_het`.
    MeanRHet: "mean_r_het", Task, "het", Real;
    /// Mean `R_hom(τ)`.
    MeanRHom: "mean_r_hom", Task, "het", Real;
    /// Mean simulated makespan of `τ`.
    MeanSimMakespan: "mean_sim_makespan", Task, "sim", Real;
    /// Mean simulated makespan of the transformed `τ'` (Figure 6).
    MeanSimTransformed: "mean_sim_transformed", Task, "sim", Real;
    /// Tasks the bounded exact solver finished.
    ExactSolved: "exact_solved", Task, "exact", Count;
    /// Mean exact makespan over the finished tasks.
    MeanExactMakespan: "mean_exact_makespan", Task, "exact", Real;
    /// Mean `100·(R_hom − opt)/opt` over proven optima (Figure 7).
    HomIncrement: "hom_increment", Task, "accuracy", Real;
    /// Mean `100·(R_het − opt)/opt` over proven optima (Figure 7).
    HetIncrement: "het_increment", Task, "accuracy", Real;
    /// Proven nonzero optima the increments average over.
    Solved: "solved", Task, "accuracy", Count;
    /// Mean suspension-oblivious bound.
    SuspendOblivious: "suspend_oblivious", Task, "suspend", Real;
    /// Mean phase-barrier bound.
    SuspendBarrier: "suspend_barrier", Task, "suspend", Real;
    /// Mean `min(R_het, R_hom(τ'))`.
    SuspendHetTight: "suspend_het_tight", Task, "suspend", Real;
    /// Mean of the unsound naive discount.
    SuspendNaive: "suspend_naive", Task, "suspend", Real;
    /// Mean worst observed makespan of the exploration.
    SuspendWorst: "suspend_worst", Task, "suspend", Real;
    /// Samples whose observed worst case exceeded the naive discount.
    NaiveViolations: "naive_violations", Task, "suspend", Count;
    /// Mean of the per-job sampled makespan means.
    SampledMean: "sampled_mean", Task, "sampled", Real;
    /// Mean per-job 95% CI half-width (the sampling noise indicator).
    SampledCiHalf: "sampled_ci_half", Task, "sampled", Real;
    /// Smallest sampled makespan.
    SampledMin: "sampled_min", Task, "sampled", Count;
    /// Largest sampled makespan.
    SampledMax: "sampled_max", Task, "sampled", Count;
    /// Simulation samples drawn across the cell's jobs.
    SampledTotal: "sampled_total", Task, "sampled", Count;
    /// Mean proven lower bound of the anytime exact search.
    AnytimeLower: "anytime_lower", Task, "anytime", Real;
    /// Mean feasible upper bound of the anytime exact search.
    AnytimeUpper: "anytime_upper", Task, "anytime", Real;
    /// Jobs whose anytime bounds were proven tight.
    AnytimeOptimal: "anytime_optimal", Task, "anytime", Count;
    /// Sets accepted by [`TestKind::GfpHomogeneous`].
    GfpHom: TestKind::GfpHomogeneous.label(), Set, "acceptance", Share;
    /// Sets accepted by [`TestKind::GfpHeterogeneous`].
    GfpHet: TestKind::GfpHeterogeneous.label(), Set, "acceptance", Share;
    /// Sets accepted by [`TestKind::GedfHomogeneous`].
    GedfHom: TestKind::GedfHomogeneous.label(), Set, "acceptance", Share;
    /// Sets accepted by [`TestKind::GedfHeterogeneous`].
    GedfHet: TestKind::GedfHeterogeneous.label(), Set, "acceptance", Share;
    /// Sets accepted by [`TestKind::FederatedHomogeneous`].
    FedHom: TestKind::FederatedHomogeneous.label(), Set, "acceptance", Share;
    /// Sets accepted by [`TestKind::FederatedHeterogeneous`].
    FedHet: TestKind::FederatedHeterogeneous.label(), Set, "acceptance", Share;
    /// Expressions whose exact enumeration succeeded with a nonzero
    /// bound (the only ones the conditional means include).
    Included: "included", Cond, "cond", Count;
    /// Mean % by which flatten-all exceeds the conditional-aware bound.
    MeanFlatOverhead: "mean_flat_overhead", Cond, "cond", Real;
    /// Mean % by which the DP bound exceeds the exact enumeration.
    MeanDpOverhead: "mean_dp_overhead", Cond, "cond", Real;
    /// Mean realizations per included expression.
    MeanRealizations: "mean_realizations", Cond, "cond", Real;
}

impl CellStat {
    /// This statistic's row of [`CELL_STATS`].
    #[must_use]
    pub fn def(self) -> &'static StatDef {
        &CELL_STATS[self as usize]
    }

    /// The acceptance count of `test`.
    #[must_use]
    pub fn accepted(test: TestKind) -> CellStat {
        match test {
            TestKind::GfpHomogeneous => CellStat::GfpHom,
            TestKind::GfpHeterogeneous => CellStat::GfpHet,
            TestKind::GedfHomogeneous => CellStat::GedfHom,
            TestKind::GedfHeterogeneous => CellStat::GedfHet,
            TestKind::FederatedHomogeneous => CellStat::FedHom,
            TestKind::FederatedHeterogeneous => CellStat::FedHet,
        }
    }
}

/// The `[start, end)` rows of [`CELL_STATS`] of each shape, indexed by
/// `CellShape as usize`, computed from the table.
const SHAPE_ROWS: [(usize, usize); 3] = {
    let mut rows = [(usize::MAX, 0); 3];
    let mut i = 0;
    while i < CELL_STATS.len() {
        let shape = CELL_STATS[i].shape as usize;
        if rows[shape].0 == usize::MAX {
            rows[shape].0 = i;
        }
        rows[shape].1 = i + 1;
        i += 1;
    }
    rows
};

impl CellShape {
    /// The rows of [`CELL_STATS`] this shape's cells carry, in column
    /// order.
    #[must_use]
    pub fn stats(self) -> &'static [StatDef] {
        let (start, end) = SHAPE_ROWS[self as usize];
        &CELL_STATS[start..end]
    }
}

/// A stored statistic value: counts and shares as [`StatValue::Count`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum StatValue {
    Count(u64),
    Real(f64),
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
    /// One value per statistic of the cell's shape, in column order;
    /// `None` when the analysis did not run or had nothing to average.
    values: Vec<Option<StatValue>>,
}

impl CellSummary {
    /// A cell of `shape` with every value absent.
    pub(crate) fn new(shape: CellShape, m: u64, grid_value: f64, samples: usize) -> Self {
        CellSummary {
            m,
            grid_value,
            samples,
            values: vec![None; shape.stats().len()],
        }
    }

    /// The shape whose statistics this cell holds (the shapes declare
    /// different numbers of them).
    pub(crate) fn shape(&self) -> Option<CellShape> {
        [CellShape::Task, CellShape::Set, CellShape::Cond]
            .into_iter()
            .find(|shape| shape.stats().len() == self.values.len())
    }

    /// The slot of `stat`, if this cell's shape carries it.
    fn slot(&self, stat: CellStat) -> Option<usize> {
        let (start, end) = SHAPE_ROWS[stat.def().shape as usize];
        (self.values.len() == end - start).then(|| stat as usize - start)
    }

    fn value(&self, stat: CellStat) -> Option<StatValue> {
        self.values[self.slot(stat)?]
    }

    fn set(&mut self, stat: CellStat, value: StatValue) {
        let slot = self.slot(stat).expect("a statistic of the cell's shape");
        self.values[slot] = Some(value);
    }

    /// The value of a count or share statistic, if present.
    #[must_use]
    pub fn count(&self, stat: CellStat) -> Option<u64> {
        match self.value(stat)? {
            StatValue::Count(count) => Some(count),
            StatValue::Real(_) => None,
        }
    }

    /// The value of a real statistic, if present.
    #[must_use]
    pub fn real(&self, stat: CellStat) -> Option<f64> {
        match self.value(stat)? {
            StatValue::Real(value) => Some(value),
            StatValue::Count(_) => None,
        }
    }

    /// A count as a share of the cell's samples, in `[0, 1]`:
    /// `count / max(samples, 1)`, so a cell without samples reads 0.
    #[must_use]
    pub fn share(&self, stat: CellStat) -> Option<f64> {
        self.count(stat)
            .map(|count| count as f64 / self.samples.max(1) as f64)
    }

    pub(crate) fn set_count(&mut self, stat: CellStat, count: u64) {
        debug_assert_ne!(stat.def().kind, StatKind::Real, "{stat:?} is real");
        self.set(stat, StatValue::Count(count));
    }

    /// Sets a real statistic; `None` leaves it absent.
    pub(crate) fn set_real(&mut self, stat: CellStat, value: impl Into<Option<f64>>) {
        debug_assert_eq!(stat.def().kind, StatKind::Real, "{stat:?} is a count");
        if let Some(value) = value.into() {
            self.set(stat, StatValue::Real(value));
        }
    }
}

/// The deterministic result of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepAggregate {
    /// The shape of every cell.
    pub shape: CellShape,
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
/// therefore carries *changed cells only*, with a full keyframe every
/// 16th update so a consumer that joined late — or fell behind a
/// drop-oldest event buffer — can resynchronize. Updates carry a
/// per-stream sequence number so a consumer can *detect* gaps (the
/// bounded event buffer drops oldest events under pressure):
/// [`AggregateView`] refuses to apply a delta whose predecessor it never
/// saw and reports unsynced until the next keyframe, rather than silently
/// patching stale state. Reconstruction is otherwise bitwise exact: the
/// view's state after applying an update equals the full snapshot the
/// encoder saw (pinned by the unit tests below).
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
        shape,
        cells: cells
            .iter()
            .zip(per_cell)
            .map(|(info, outcomes)| summarize_cell(shape, info, outcomes))
            .collect(),
    }
}

fn summarize_cell(shape: CellShape, info: &CellInfo, jobs: &[&[AnalysisOutcome]]) -> CellSummary {
    let mut cell = CellSummary::new(shape, info.m, info.grid_value, jobs.len());
    match shape {
        CellShape::Set => summarize_set_cell(&mut cell, jobs),
        CellShape::Cond => summarize_cond_cell(&mut cell, jobs),
        CellShape::Task => summarize_task_cell(&mut cell, jobs),
    }
    cell
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

fn summarize_set_cell(cell: &mut CellSummary, jobs: &[&[AnalysisOutcome]]) {
    let mut accepted = [0u64; 6];
    for outcomes in jobs {
        for outcome in *outcomes {
            if let AnalysisOutcome::Acceptance(a) = outcome {
                for (count, &bit) in accepted.iter_mut().zip(&a.accepted) {
                    *count += u64::from(bit);
                }
            }
        }
    }
    for (test, count) in TestKind::ALL.into_iter().zip(accepted) {
        cell.set_count(CellStat::accepted(test), count);
    }
}

fn summarize_cond_cell(cell: &mut CellSummary, jobs: &[&[AnalysisOutcome]]) {
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
    cell.set_count(CellStat::Included, flat_overheads.len() as u64);
    cell.set_real(CellStat::MeanFlatOverhead, mean(&flat_overheads));
    cell.set_real(CellStat::MeanDpOverhead, mean(&dp_overheads));
    cell.set_real(CellStat::MeanRealizations, mean(&realizations));
}

fn summarize_task_cell(cell: &mut CellSummary, jobs: &[&[AnalysisOutcome]]) {
    use CellStat as S;
    let mut scenario_counts = [0u64; 3];
    let mut improvements = Vec::with_capacity(jobs.len());
    let mut r_hets = Vec::with_capacity(jobs.len());
    let mut r_homs = Vec::with_capacity(jobs.len());
    let mut sims = Vec::new();
    let mut sims_transformed = Vec::new();
    let mut exacts = Vec::new();
    let mut hom_increments = Vec::new();
    let mut het_increments = Vec::new();
    let mut schedulable_het = 0u64;
    let mut schedulable_hom = 0u64;
    let mut accuracy_selected = false;
    let mut oblivious = Vec::new();
    let mut barriers = Vec::new();
    let mut het_tights = Vec::new();
    let mut naives = Vec::new();
    let mut worsts = Vec::new();
    let mut naive_violations = 0u64;
    let mut suspend_selected = false;
    let mut sampled_means = Vec::new();
    let mut sampled_cis = Vec::new();
    let (mut sampled_min, mut sampled_max) = (u64::MAX, 0u64);
    let mut sampled_total = 0u64;
    let mut sampled_selected = false;
    let mut anytime_lowers = Vec::new();
    let mut anytime_uppers = Vec::new();
    let mut anytime_optimal = 0u64;
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
                    schedulable_het += u64::from(h.schedulable_het);
                    schedulable_hom += u64::from(h.schedulable_hom);
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
                    naive_violations += u64::from(s.naive_violated == Some(true));
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
                    anytime_optimal += u64::from(a.optimal);
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

    for (stat, count) in [S::S1, S::S21, S::S22].into_iter().zip(scenario_counts) {
        cell.set_count(stat, count);
    }
    cell.set_real(S::MeanImprovement, mean(&improvements));
    cell.set_real(S::MaxImprovement, max(&improvements));
    cell.set_count(S::SchedulableHet, schedulable_het);
    cell.set_count(S::SchedulableHom, schedulable_hom);
    cell.set_real(S::MeanRHet, mean(&r_hets));
    cell.set_real(S::MeanRHom, mean(&r_homs));
    cell.set_real(S::MeanSimMakespan, mean_opt(&sims));
    cell.set_real(S::MeanSimTransformed, mean_opt(&sims_transformed));
    cell.set_count(S::ExactSolved, exacts.len() as u64);
    cell.set_real(S::MeanExactMakespan, mean_opt(&exacts));
    if accuracy_selected {
        cell.set_real(S::HomIncrement, mean(&hom_increments));
        cell.set_real(S::HetIncrement, mean(&het_increments));
        cell.set_count(S::Solved, hom_increments.len() as u64);
    }
    if suspend_selected {
        cell.set_real(S::SuspendOblivious, mean(&oblivious));
        cell.set_real(S::SuspendBarrier, mean(&barriers));
        cell.set_real(S::SuspendHetTight, mean(&het_tights));
        cell.set_real(S::SuspendNaive, mean(&naives));
        cell.set_real(S::SuspendWorst, mean_opt(&worsts));
        cell.set_count(S::NaiveViolations, naive_violations);
    }
    if sampled_selected {
        cell.set_real(S::SampledMean, mean(&sampled_means));
        cell.set_real(S::SampledCiHalf, mean(&sampled_cis));
        cell.set_count(S::SampledMin, sampled_min);
        cell.set_count(S::SampledMax, sampled_max);
        cell.set_count(S::SampledTotal, sampled_total);
    }
    if anytime_selected {
        cell.set_real(S::AnytimeLower, mean(&anytime_lowers));
        cell.set_real(S::AnytimeUpper, mean(&anytime_uppers));
        cell.set_count(S::AnytimeOptimal, anytime_optimal);
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

        let t = &a.cells[0];
        let counts = [CellStat::S1, CellStat::S21, CellStat::S22].map(|s| t.count(s));
        assert_eq!(counts, [Some(2), Some(1), Some(0)]);
        assert_eq!(t.real(CellStat::MeanImprovement), Some(20.0));
        assert_eq!(t.real(CellStat::MaxImprovement), Some(30.0));
        assert_eq!(t.count(CellStat::SchedulableHet), Some(3));
        let s1 = t.share(CellStat::S1).unwrap();
        let s21 = t.share(CellStat::S21).unwrap();
        assert!((s1 - 2.0 / 3.0).abs() < 1e-12 && (s21 - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(t.share(CellStat::S22), Some(0.0));
        // A statistic of another shape is absent from a task cell.
        assert_eq!(t.count(CellStat::Included), None);
    }

    #[test]
    fn a_cell_of_declined_samples_has_zero_shares() {
        let mut agg = Aggregator::new(cell_infos(), 2, CellShape::Task);
        agg.accept(result(0, 0, JobMetrics::Skipped));
        agg.accept(result(1, 0, JobMetrics::Skipped));
        let a = agg.finalize().unwrap();
        let t = &a.cells[0];
        assert_eq!(t.samples, 0);
        for stat in [CellStat::S1, CellStat::S21, CellStat::S22] {
            assert_eq!(t.share(stat), Some(0.0), "{stat:?}");
        }
    }

    #[test]
    fn the_table_groups_rows_by_shape_under_unique_names() {
        let shapes = [CellShape::Task, CellShape::Set, CellShape::Cond];
        let lens = shapes.map(|shape| shape.stats().len());
        // Per-shape CSV columns; distinct counts also tell a cell's shape.
        assert_eq!(lens, [30, 6, 4]);
        for shape in shapes {
            assert!(shape.stats().iter().all(|def| def.shape == shape));
        }
        let names: std::collections::HashSet<_> = CELL_STATS.iter().map(|d| d.name).collect();
        assert_eq!(names.len(), CELL_STATS.len(), "names are unique");
        for test in TestKind::ALL {
            assert_eq!(CellStat::accepted(test).def().name, test.label());
        }
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
        let s = &a.cells[0];
        let accepted = TestKind::ALL.map(|t| s.count(CellStat::accepted(t)).unwrap());
        assert_eq!(accepted, [1, 2, 0, 1, 0, 2]);
        assert_eq!(s.share(CellStat::GfpHet), Some(1.0));
        assert_eq!(s.share(CellStat::GedfHom), Some(0.0));
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
        let c = &a.cells[0];
        assert_eq!(c.count(CellStat::Included), Some(1));
        assert_eq!(c.real(CellStat::MeanFlatOverhead), Some(50.0));
        assert_eq!(c.real(CellStat::MeanDpOverhead), Some(100.0));
        assert_eq!(c.real(CellStat::MeanRealizations), Some(4.0));
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
        let t = &a.cells[0];
        assert_eq!(t.real(CellStat::SuspendOblivious), Some(12.0));
        assert_eq!(t.real(CellStat::SuspendNaive), Some(9.0));
        assert_eq!(t.real(CellStat::SuspendWorst), Some(8.0));
        assert_eq!(t.count(CellStat::NaiveViolations), Some(1));
        // No het/hom outcomes → those reductions stay at their defaults.
        assert_eq!(t.count(CellStat::S1), Some(0));
        assert_eq!(t.real(CellStat::HomIncrement), None);
        assert_eq!(t.count(CellStat::Solved), None);
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
        let t = &a.cells[0];
        assert_eq!(t.real(CellStat::SampledMean), Some(42.0));
        assert_eq!(t.real(CellStat::SampledCiHalf), Some(2.0));
        assert_eq!(t.count(CellStat::SampledMin), Some(36));
        assert_eq!(t.count(CellStat::SampledMax), Some(48));
        assert_eq!(t.count(CellStat::SampledTotal), Some(32));
        assert_eq!(t.real(CellStat::AnytimeLower), Some(32.0));
        assert_eq!(t.real(CellStat::AnytimeUpper), Some(34.0));
        assert_eq!(t.count(CellStat::AnytimeOptimal), Some(1));
        // No het outcomes → the het reductions stay at defaults.
        assert_eq!(t.count(CellStat::S1), Some(0));
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
        let t = &a.cells[0];
        assert_eq!(t.count(CellStat::Solved), Some(1));
        assert_eq!(t.real(CellStat::HomIncrement), Some(20.0));
        assert!((t.real(CellStat::HetIncrement).unwrap() - 10.0).abs() < 1e-12);
        let solved = t.count(CellStat::ExactSolved);
        assert_eq!(solved, Some(2), "feasible-but-unproven still counts");
        // R_hom enters the cell mean once per job (het's copy wins).
        assert_eq!(t.real(CellStat::MeanRHom), Some(12.0));
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
        let cell = CellSummary::new(CellShape::Set, 2, 0.5, 1);
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
                shape: CellShape::Set,
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
