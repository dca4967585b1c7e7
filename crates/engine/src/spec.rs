//! Declarative sweep specifications and their expansion into jobs.

use std::sync::Arc;

use hetrta_api::{AnalysisParams, AnalysisRegistry};
use hetrta_cond::CondGenParams;
use hetrta_gen::series::BatchSpec;
use hetrta_gen::NfjParams;
use hetrta_sched::taskset::TaskSetParams;

use crate::job::{Job, JobInput, JobPayload};
use crate::EngineError;

/// Which DAG generator feeds the sweep (paper §5.1 presets or custom
/// parameters).
#[derive(Debug, Clone)]
pub enum GeneratorPreset {
    /// The paper's *small tasks* preset.
    Small,
    /// The paper's *large tasks* preset.
    Large,
    /// Large tasks constrained to the paper's evaluation range
    /// `n ∈ [100, 250]` (Figures 8–9).
    LargePaper,
    /// The large-graph tier (an order of magnitude beyond the paper):
    /// nested fork-join DAGs of up to the given number of nodes, accepted
    /// from a quarter of it upward — see
    /// [`NfjParams::large_graphs`]. Reached from the CLI via
    /// `hetrta engine sweep --n-max N`.
    LargeGraphs(usize),
    /// Explicit generator parameters.
    Custom(NfjParams),
}

impl GeneratorPreset {
    /// Resolves to concrete generator parameters.
    #[must_use]
    pub fn params(&self) -> NfjParams {
        match self {
            GeneratorPreset::Small => NfjParams::small_tasks(),
            GeneratorPreset::Large => NfjParams::large_tasks(),
            GeneratorPreset::LargePaper => NfjParams::large_tasks().with_node_range(100, 250),
            GeneratorPreset::LargeGraphs(n_max) => NfjParams::large_graphs(*n_max),
            GeneratorPreset::Custom(p) => p.clone(),
        }
    }
}

/// An ordered selection of analysis registry keys (replaces the former
/// per-kind boolean struct).
///
/// Any key of the engine's [`AnalysisRegistry`] is selectable; the builtin
/// keys are `het`, `hom`, `sim`, `exact`, `cond`, `suspend` and
/// `acceptance`. Selection order is outcome order in
/// [`JobMetrics::Outcomes`](crate::JobMetrics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisSelection {
    keys: Vec<Arc<str>>,
}

impl AnalysisSelection {
    /// A selection of the given keys, first occurrence wins on duplicates.
    pub fn from_keys<I, S>(keys: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<Arc<str>>,
    {
        let mut out: Vec<Arc<str>> = Vec::new();
        for key in keys {
            let key = key.into();
            if !out.iter().any(|k| **k == *key) {
                out.push(key);
            }
        }
        AnalysisSelection { keys: out }
    }

    /// Only the heterogeneous analysis (Figures 8–9 workloads).
    #[must_use]
    pub fn het_only() -> Self {
        AnalysisSelection::from_keys(["het"])
    }

    /// The four per-task analyses: `hom`, `het`, `sim`, `exact`.
    #[must_use]
    pub fn all() -> Self {
        AnalysisSelection::from_keys(["hom", "het", "sim", "exact"])
    }

    /// `true` if no analysis is selected.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// `true` if `key` is selected.
    #[must_use]
    pub fn contains(&self, key: &str) -> bool {
        self.keys.iter().any(|k| **k == *key)
    }

    /// The selected keys, in order.
    #[must_use]
    pub fn keys(&self) -> &[Arc<str>] {
        &self.keys
    }

    /// The selection as a shared slice (cheap to clone into every job).
    #[must_use]
    pub fn to_shared(&self) -> Arc<[Arc<str>]> {
        self.keys.clone().into()
    }

    /// Parses a comma-separated list of registry keys (`"hom,het,sim"`),
    /// validated against the builtin [`AnalysisRegistry`]. Selections for
    /// an engine with custom registrations should use
    /// [`AnalysisSelection::parse_with`] and that engine's registry.
    ///
    /// # Errors
    ///
    /// A message naming the offending token and listing every valid key,
    /// or `"no analysis kinds selected"` for an empty list.
    pub fn parse(list: &str) -> Result<Self, String> {
        AnalysisSelection::parse_with(list, &AnalysisRegistry::builtin())
    }

    /// Like [`AnalysisSelection::parse`], but validated against an
    /// arbitrary registry (so custom-registered keys are selectable).
    ///
    /// # Errors
    ///
    /// A message naming the offending token and listing every valid key
    /// of `registry`, or `"no analysis kinds selected"`.
    pub fn parse_with(list: &str, registry: &AnalysisRegistry) -> Result<Self, String> {
        let mut keys: Vec<&str> = Vec::new();
        for token in list.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            if !registry.contains(token) {
                return Err(format!(
                    "unknown analysis kind `{token}` (valid keys: {})",
                    registry.keys().join(", ")
                ));
            }
            if !keys.contains(&token) {
                keys.push(token);
            }
        }
        if keys.is_empty() {
            return Err("no analysis kinds selected".into());
        }
        Ok(AnalysisSelection::from_keys(keys))
    }
}

/// The swept dimension, which also determines how job inputs are produced.
#[derive(Debug, Clone)]
pub enum SweepGrid {
    /// Offload fractions `C_off/vol`; each job draws one task from a
    /// reproducible [`BatchSpec`] batch (Figures 6–9 shape).
    OffloadFractions(Vec<f64>),
    /// Offload fractions with per-job independent sampling: each job
    /// generates its own task from a derived seed and *declines* the
    /// sample when generation fails (the suspension-baseline shape).
    SampledFractions(Vec<f64>),
    /// Normalized utilizations `U/m`; each job generates one task *set*
    /// (acceptance-test shape).
    NormalizedUtilizations(Vec<f64>),
    /// Conditional shares `p_cond`; each job generates one conditional
    /// expression with that branching probability.
    CondShares(Vec<f64>),
}

impl SweepGrid {
    /// The grid values.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        match self {
            SweepGrid::OffloadFractions(v)
            | SweepGrid::SampledFractions(v)
            | SweepGrid::NormalizedUtilizations(v)
            | SweepGrid::CondShares(v) => v,
        }
    }
}

/// How cells of a sweep aggregate (decided by the grid); each shape
/// carries its own statistics ([`CellShape::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellShape {
    /// Per-task metrics.
    Task,
    /// Acceptance-test counts.
    Set,
    /// Conditional-bound overheads.
    Cond,
}

impl CellShape {
    /// The name of this shape's grid values in the CSV and the table.
    #[must_use]
    pub fn grid_name(self) -> &'static str {
        match self {
            CellShape::Task => "fraction",
            CellShape::Set => "normalized_util",
            CellShape::Cond => "p_cond",
        }
    }
}

/// Replication offset of a base seed for per-job sampled grids
/// (suspension, conditional): base seed 0 reproduces the serial ablation
/// streams exactly (parity-pinned), while any other base seed is
/// decorrelated through SplitMix64 so nearby replications do not share
/// samples (the same concern `point_seed` solves for acceptance sweeps).
fn replication_offset(base_seed: u64) -> u64 {
    if base_seed == 0 {
        return 0;
    }
    hetrta_sched::acceptance::splitmix64(base_seed)
}

/// One sweep cell: a `(core count, grid value)` pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellInfo {
    /// Host core count `m`.
    pub m: u64,
    /// Offload fraction, normalized utilization, or conditional share,
    /// depending on the grid.
    pub grid_value: f64,
}

/// A declarative batch sweep: generator preset × core counts × grid ×
/// seeds × analysis keys, expanded by the engine into independent jobs.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// DAG generator for per-task sweeps (ignored by utilization grids,
    /// whose generator lives in [`SweepSpec::set_template`], and by
    /// conditional grids, which use [`SweepSpec::cond_template`]).
    pub preset: GeneratorPreset,
    /// Host core counts to sweep.
    pub core_counts: Vec<u64>,
    /// The swept dimension.
    pub grid: SweepGrid,
    /// Jobs (tasks, sets, or expressions) per sweep point and seed.
    pub jobs_per_point: usize,
    /// Base seeds; every seed is an independent replication of the whole
    /// sweep. Repeating a seed exercises the result cache.
    pub seeds: Vec<u64>,
    /// Registry keys of the analyses each job runs.
    pub analyses: AnalysisSelection,
    /// Task-set template for utilization grids.
    pub set_template: Option<TaskSetParams>,
    /// Conditional-generator template for `p_cond` grids (the share and
    /// the complementary `p_par` are overwritten per grid point).
    pub cond_template: Option<CondGenParams>,
    /// Tasks per generated set (utilization grids).
    pub n_tasks: usize,
    /// Node-exploration budget for the bounded exact solver (`None` =
    /// solver default).
    pub exact_node_budget: Option<u64>,
    /// Enumeration cap for conditional realizations.
    pub realization_cap: usize,
    /// Also simulate the transformed task `τ'` (Figure 6 sweeps).
    pub sim_transformed: bool,
    /// Random tie-break seeds for the suspension worst-case exploration
    /// (`0` = skip).
    pub explore_seeds: u64,
    /// Sample budget of the `sampled` analysis (simulations per job).
    pub sample_budget: usize,
    /// Base seed of the `sampled` analysis. Part of the spec (not derived
    /// per worker), so local and distributed runs draw identical samples.
    pub sample_seed: u64,
}

impl SweepSpec {
    fn base(preset: GeneratorPreset, core_counts: Vec<u64>, grid: SweepGrid) -> Self {
        SweepSpec {
            preset,
            core_counts,
            grid,
            jobs_per_point: 1,
            seeds: vec![0],
            analyses: AnalysisSelection::het_only(),
            set_template: None,
            cond_template: None,
            n_tasks: 0,
            exact_node_budget: None,
            realization_cap: 4096,
            sim_transformed: false,
            explore_seeds: 0,
            sample_budget: 64,
            sample_seed: 0,
        }
    }

    /// A per-task sweep over offload fractions (the Figure 8/9 shape).
    #[must_use]
    pub fn fractions(
        preset: GeneratorPreset,
        core_counts: Vec<u64>,
        fractions: Vec<f64>,
        tasks_per_point: usize,
        seed: u64,
    ) -> Self {
        let mut spec = SweepSpec::base(preset, core_counts, SweepGrid::OffloadFractions(fractions));
        spec.jobs_per_point = tasks_per_point;
        spec.seeds = vec![seed];
        spec
    }

    /// A Figure 6-style simulation sweep: breadth-first makespans of the
    /// original *and* the transformed task per offload fraction.
    #[must_use]
    pub fn simulation_impact(
        preset: GeneratorPreset,
        core_counts: Vec<u64>,
        fractions: Vec<f64>,
        tasks_per_point: usize,
        seed: u64,
    ) -> Self {
        let mut spec = SweepSpec::fractions(preset, core_counts, fractions, tasks_per_point, seed);
        spec.analyses = AnalysisSelection::from_keys(["sim"]);
        spec.sim_transformed = true;
        spec
    }

    /// A Figure 7-style exact-accuracy sweep: the bounded exact optimum
    /// next to `R_hom` and `R_het`, so cells report the analytical bounds'
    /// percentage increment over solved instances.
    #[must_use]
    pub fn exact_accuracy(
        preset: GeneratorPreset,
        core_counts: Vec<u64>,
        fractions: Vec<f64>,
        tasks_per_point: usize,
        seed: u64,
    ) -> Self {
        let mut spec = SweepSpec::fractions(preset, core_counts, fractions, tasks_per_point, seed);
        spec.analyses = AnalysisSelection::from_keys(["exact", "hom", "het"]);
        spec
    }

    /// A task-set acceptance sweep over normalized utilizations, matching
    /// [`hetrta_sched::acceptance::acceptance_sweep`] seeding exactly (the
    /// serial reference path).
    #[must_use]
    pub fn acceptance(
        template: TaskSetParams,
        core_counts: Vec<u64>,
        normalized_utils: Vec<f64>,
        n_tasks: usize,
        sets_per_point: usize,
        seed: u64,
    ) -> Self {
        let mut spec = SweepSpec::base(
            GeneratorPreset::Small,
            core_counts,
            SweepGrid::NormalizedUtilizations(normalized_utils),
        );
        spec.jobs_per_point = sets_per_point;
        spec.seeds = vec![seed];
        spec.analyses = AnalysisSelection::from_keys(["acceptance"]);
        spec.set_template = Some(template);
        spec.n_tasks = n_tasks;
        spec
    }

    /// A suspension-baseline sweep over offload fractions, matching the
    /// serial baseline ablation's independent per-job sampling and seed
    /// derivation exactly (generation failures decline the sample).
    #[must_use]
    pub fn suspension(
        core_counts: Vec<u64>,
        fractions: Vec<f64>,
        tasks_per_point: usize,
        explore_seeds: u64,
    ) -> Self {
        let mut spec = SweepSpec::base(
            GeneratorPreset::Small,
            core_counts,
            SweepGrid::SampledFractions(fractions),
        );
        spec.jobs_per_point = tasks_per_point;
        spec.analyses = AnalysisSelection::from_keys(["suspend"]);
        spec.explore_seeds = explore_seeds;
        spec
    }

    /// A conditional-bound sweep over branching shares `p_cond`, matching
    /// the serial conditional ablation's generator and seed derivation.
    #[must_use]
    pub fn conditional(
        template: CondGenParams,
        core_counts: Vec<u64>,
        cond_shares: Vec<f64>,
        exprs_per_point: usize,
        realization_cap: usize,
    ) -> Self {
        let mut spec = SweepSpec::base(
            GeneratorPreset::Small,
            core_counts,
            SweepGrid::CondShares(cond_shares),
        );
        spec.jobs_per_point = exprs_per_point;
        spec.analyses = AnalysisSelection::from_keys(["cond"]);
        spec.cond_template = Some(template);
        spec.realization_cap = realization_cap;
        spec
    }

    /// Overrides the analysis selection.
    #[must_use]
    pub fn with_analyses(mut self, analyses: AnalysisSelection) -> Self {
        self.analyses = analyses;
        self
    }

    /// Replaces the replication seeds.
    #[must_use]
    pub fn with_seeds(mut self, seeds: Vec<u64>) -> Self {
        self.seeds = seeds;
        self
    }

    /// The input kind this spec's grid produces for every job.
    #[must_use]
    pub fn input_kind(&self) -> hetrta_api::InputKind {
        match &self.grid {
            SweepGrid::NormalizedUtilizations(_) => hetrta_api::InputKind::TaskSet,
            SweepGrid::CondShares(_) => hetrta_api::InputKind::Cond,
            SweepGrid::OffloadFractions(_) | SweepGrid::SampledFractions(_) => {
                hetrta_api::InputKind::Task
            }
        }
    }

    /// How this spec's cells aggregate.
    #[must_use]
    pub fn cell_shape(&self) -> CellShape {
        match &self.grid {
            SweepGrid::NormalizedUtilizations(_) => CellShape::Set,
            SweepGrid::CondShares(_) => CellShape::Cond,
            SweepGrid::OffloadFractions(_) | SweepGrid::SampledFractions(_) => CellShape::Task,
        }
    }

    /// The per-job analysis parameters this spec implies for core count
    /// `m`.
    #[must_use]
    pub fn analysis_params(&self, m: u64) -> AnalysisParams {
        AnalysisParams {
            m,
            exact_node_budget: self.exact_node_budget,
            realization_cap: self.realization_cap,
            sim_transformed: self.sim_transformed,
            explore_seeds: self.explore_seeds,
            sample_budget: self.sample_budget,
            sample_seed: self.sample_seed,
        }
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidSpec`] naming the first violated constraint.
    pub fn validate(&self) -> Result<(), EngineError> {
        let fail = |msg: &str| Err(EngineError::InvalidSpec(msg.into()));
        if self.core_counts.is_empty() {
            return fail("no core counts");
        }
        if self.core_counts.contains(&0) {
            return fail("core count 0");
        }
        if self.grid.values().is_empty() {
            return fail("empty sweep grid");
        }
        if self.jobs_per_point == 0 {
            return fail("jobs_per_point is 0");
        }
        if self.seeds.is_empty() {
            return fail("no seeds");
        }
        if self.analyses.is_empty() {
            return fail("no analyses selected");
        }
        if self.sample_budget == 0 {
            return fail("sample budget is 0");
        }
        match &self.grid {
            SweepGrid::OffloadFractions(fs) => {
                if fs.iter().any(|&f| !(0.0 < f && f < 1.0)) {
                    return fail("offload fractions must lie in (0, 1)");
                }
            }
            SweepGrid::SampledFractions(fs) => {
                if fs.iter().any(|&f| !(0.0 < f && f < 1.0)) {
                    return fail("offload fractions must lie in (0, 1)");
                }
                // The serial ablation derives seeds (and sizes C_off) from
                // integer percentages; anything else would be analyzed at a
                // different fraction than the cell label claims.
                if fs
                    .iter()
                    .any(|&f| ((f * 100.0).round() / 100.0 - f).abs() > 1e-12)
                {
                    return fail("sampled fractions must be whole percentages (e.g. 0.05)");
                }
            }
            SweepGrid::NormalizedUtilizations(us) => {
                if us.iter().any(|&u| !(u > 0.0 && u.is_finite())) {
                    return fail("normalized utilizations must be positive and finite");
                }
                if self.set_template.is_none() {
                    return fail("utilization grid needs a task-set template");
                }
                if self.n_tasks == 0 {
                    return fail("utilization grid needs n_tasks > 0");
                }
            }
            SweepGrid::CondShares(ps) => {
                if ps.iter().any(|&p| !(0.0 < p && p < 1.0)) {
                    return fail("conditional shares must lie in (0, 1)");
                }
                if self.cond_template.is_none() {
                    return fail("conditional grid needs a generator template");
                }
            }
        }
        Ok(())
    }

    /// Total jobs this spec expands into.
    #[must_use]
    pub fn job_count(&self) -> usize {
        self.core_counts.len() * self.grid.values().len() * self.seeds.len() * self.jobs_per_point
    }

    /// Expands the spec into its cells and independent jobs.
    ///
    /// Expansion order is the determinism contract: cells iterate core
    /// counts then grid values; jobs within a cell iterate seeds then the
    /// per-point index. Aggregation replays results in exactly this order,
    /// so the aggregate is identical for any worker count.
    #[must_use]
    pub fn expand(&self) -> (Vec<CellInfo>, Vec<Job>) {
        let mut cells = Vec::new();
        let mut jobs = Vec::new();
        let analyses = self.analyses.to_shared();
        let push = |cells: &mut Vec<CellInfo>,
                    jobs: &mut Vec<Job>,
                    m: u64,
                    grid_value: f64,
                    inputs: Vec<JobInput>| {
            let cell = cells.len();
            cells.push(CellInfo { m, grid_value });
            for input in inputs {
                jobs.push(Job {
                    index: jobs.len(),
                    cell,
                    payload: JobPayload {
                        input,
                        analyses: Arc::clone(&analyses),
                        params: self.analysis_params(m),
                    },
                });
            }
        };
        match &self.grid {
            SweepGrid::OffloadFractions(fractions) => {
                let batches: Vec<(Arc<BatchSpec>, u128)> = self
                    .seeds
                    .iter()
                    .map(|&seed| {
                        let batch = BatchSpec::new(self.preset.params(), self.jobs_per_point, seed);
                        let prefix = JobInput::batch_prefix(&batch);
                        (Arc::new(batch), prefix)
                    })
                    .collect();
                for &m in &self.core_counts {
                    for &fraction in fractions {
                        let inputs = batches
                            .iter()
                            .flat_map(|(batch, prefix)| {
                                (0..self.jobs_per_point).map(move |task_index| {
                                    JobInput::BatchTask {
                                        batch: Arc::clone(batch),
                                        prefix: *prefix,
                                        fraction,
                                        task_index,
                                    }
                                })
                            })
                            .collect();
                        push(&mut cells, &mut jobs, m, fraction, inputs);
                    }
                }
            }
            SweepGrid::SampledFractions(fractions) => {
                let params = Arc::new(self.preset.params());
                for &m in &self.core_counts {
                    for &fraction in fractions {
                        // The serial baseline ablation derives seeds from
                        // the integer offload percentage (parity-tested).
                        let pct = (fraction * 100.0).round() as u32;
                        let fraction_used = f64::from(pct) / 100.0;
                        let inputs = self
                            .seeds
                            .iter()
                            .flat_map(|&base_seed| {
                                let params = &params;
                                (0..self.jobs_per_point).map(move |s| {
                                    let raw = replication_offset(base_seed).wrapping_add(s as u64);
                                    JobInput::SampledTask {
                                        params: Arc::clone(params),
                                        fraction: fraction_used,
                                        seed: raw ^ (u64::from(pct) << 24) ^ (m << 48),
                                    }
                                })
                            })
                            .collect();
                        push(&mut cells, &mut jobs, m, fraction, inputs);
                    }
                }
            }
            SweepGrid::NormalizedUtilizations(utils) => {
                let template = Arc::new(
                    self.set_template
                        .clone()
                        .expect("validated utilization grid"),
                );
                for &m in &self.core_counts {
                    for (pi, &nu) in utils.iter().enumerate() {
                        let inputs = self
                            .seeds
                            .iter()
                            .flat_map(|&base_seed| {
                                let template = &template;
                                (0..self.jobs_per_point).map(move |s| {
                                    // Shared derivation with the serial
                                    // acceptance_sweep (parity-tested); the
                                    // SplitMix64 step inside decorrelates
                                    // nearby base seeds across replications.
                                    let seed =
                                        hetrta_sched::acceptance::point_seed(base_seed, pi, s);
                                    JobInput::TaskSet {
                                        template: Arc::clone(template),
                                        n_tasks: self.n_tasks,
                                        cores: m,
                                        normalized_util: nu,
                                        seed,
                                    }
                                })
                            })
                            .collect();
                        push(&mut cells, &mut jobs, m, nu, inputs);
                    }
                }
            }
            SweepGrid::CondShares(shares) => {
                let template = self.cond_template.expect("validated conditional grid");
                for &m in &self.core_counts {
                    for &share in shares {
                        // Mirrors the conditional ablation: the share sets
                        // p_cond, and p_par yields the remainder of the
                        // expansion probability (floored at 0.1).
                        let mut params = template;
                        params.p_cond = share;
                        params.p_par = (0.65 - share).max(0.1);
                        let params = Arc::new(params);
                        let inputs = self
                            .seeds
                            .iter()
                            .flat_map(|&base_seed| {
                                let params = &params;
                                (0..self.jobs_per_point).map(move |s| {
                                    let raw = replication_offset(base_seed).wrapping_add(s as u64);
                                    JobInput::CondExpr {
                                        params: Arc::clone(params),
                                        seed: raw ^ (((share * 1000.0) as u64) << 20) ^ (m << 40),
                                    }
                                })
                            })
                            .collect();
                        push(&mut cells, &mut jobs, m, share, inputs);
                    }
                }
            }
        }
        (cells, jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SweepSpec {
        SweepSpec::fractions(GeneratorPreset::Small, vec![2, 4], vec![0.1, 0.3], 5, 99)
    }

    #[test]
    fn expansion_counts_and_order() {
        let s = spec();
        let (cells, jobs) = s.expand();
        assert_eq!(cells.len(), 4);
        assert_eq!(jobs.len(), s.job_count());
        assert_eq!(jobs.len(), 20);
        // Jobs are cell-contiguous in expansion order.
        for (i, job) in jobs.iter().enumerate() {
            assert_eq!(job.index, i);
            assert_eq!(job.cell, i / 5);
        }
        assert_eq!(
            cells[0],
            CellInfo {
                m: 2,
                grid_value: 0.1
            }
        );
        assert_eq!(
            cells[3],
            CellInfo {
                m: 4,
                grid_value: 0.3
            }
        );
    }

    #[test]
    fn repeated_seeds_multiply_jobs() {
        let s = spec().with_seeds(vec![7, 7]);
        assert_eq!(s.job_count(), 40);
    }

    #[test]
    fn validation_catches_bad_specs() {
        assert!(spec().validate().is_ok());
        let mut bad = spec();
        bad.core_counts.clear();
        assert!(bad.validate().is_err());
        let mut bad = spec();
        bad.core_counts = vec![0];
        assert!(bad.validate().is_err());
        let mut bad = spec();
        bad.grid = SweepGrid::OffloadFractions(vec![1.5]);
        assert!(bad.validate().is_err());
        let mut bad = spec();
        bad.jobs_per_point = 0;
        assert!(bad.validate().is_err());
        let mut bad = spec();
        bad.seeds.clear();
        assert!(bad.validate().is_err());
        let mut bad = spec();
        bad.analyses = AnalysisSelection::from_keys(Vec::<&str>::new());
        assert!(bad.validate().is_err(), "empty selection");
        let mut bad = spec();
        bad.grid = SweepGrid::NormalizedUtilizations(vec![0.5]);
        assert!(bad.validate().is_err(), "utilization grid without template");
        let mut bad = spec();
        bad.grid = SweepGrid::CondShares(vec![0.2]);
        assert!(bad.validate().is_err(), "cond grid without template");
        let mut bad = SweepSpec::suspension(vec![2], vec![0.125], 2, 0);
        assert!(
            bad.validate().is_err(),
            "sampled fractions must be whole percents"
        );
        bad.grid = SweepGrid::SampledFractions(vec![0.05]);
        assert!(bad.validate().is_ok());
    }

    #[test]
    fn analysis_selection_parses() {
        assert_eq!(
            AnalysisSelection::parse("het").unwrap(),
            AnalysisSelection::het_only()
        );
        assert_eq!(
            AnalysisSelection::parse("hom,het,sim,exact").unwrap(),
            AnalysisSelection::all()
        );
        // Any registry key is accepted, including the new kinds.
        for key in ["cond", "suspend", "acceptance"] {
            assert!(AnalysisSelection::parse(key).is_ok(), "{key}");
        }
        // Duplicates collapse; order is preserved.
        assert_eq!(
            AnalysisSelection::parse("sim,het,sim")
                .unwrap()
                .keys()
                .len(),
            2
        );
        let err = AnalysisSelection::parse("frob").unwrap_err();
        assert!(err.contains("unknown analysis kind `frob`"), "{err}");
        assert!(err.contains("valid keys"), "{err}");
        assert!(err.contains("acceptance"), "{err}");
        assert!(AnalysisSelection::parse("").is_err());
    }

    #[test]
    fn acceptance_seed_parity_shape() {
        let template = TaskSetParams::small(3, 1.0);
        let s = SweepSpec::acceptance(template, vec![2], vec![0.2, 0.6], 3, 4, 42);
        let (cells, jobs) = s.expand();
        assert_eq!(cells.len(), 2);
        assert_eq!(jobs.len(), 8);
        // Seeds come from the shared serial-path derivation.
        use hetrta_sched::acceptance::point_seed;
        let JobInput::TaskSet { seed, .. } = &jobs[0].payload.input else {
            panic!("set job")
        };
        assert_eq!(*seed, point_seed(42, 0, 0));
        let JobInput::TaskSet { seed, .. } = &jobs[4 + 1].payload.input else {
            panic!("set job")
        };
        assert_eq!(*seed, point_seed(42, 1, 1));
    }

    #[test]
    fn nearby_base_seeds_do_not_collide() {
        // Replications with base seeds 0 and 1 must generate disjoint
        // per-set seed multisets (the review-caught XOR-overlap bug).
        let template = TaskSetParams::small(3, 1.0);
        let s = SweepSpec::acceptance(template, vec![2], vec![0.5], 3, 4, 0).with_seeds(vec![0, 1]);
        let (_, jobs) = s.expand();
        let seeds: std::collections::BTreeSet<u64> = jobs
            .iter()
            .map(|j| {
                let JobInput::TaskSet { seed, .. } = &j.payload.input else {
                    panic!("set job")
                };
                *seed
            })
            .collect();
        assert_eq!(seeds.len(), jobs.len(), "all derived seeds distinct");
    }

    #[test]
    fn suspension_seed_derivation_matches_serial_loop() {
        let s = SweepSpec::suspension(vec![2, 8], vec![0.05, 0.45], 3, 30);
        let (cells, jobs) = s.expand();
        assert_eq!(cells.len(), 4);
        assert_eq!(jobs.len(), 12);
        let JobInput::SampledTask { seed, fraction, .. } = &jobs[0].payload.input else {
            panic!("sampled job")
        };
        // Serial derivation: s ^ (pct << 24) ^ (m << 48) with pct = 5.
        assert_eq!(*seed, (5u64 << 24) ^ (2u64 << 48));
        assert_eq!(*fraction, 0.05);
        let JobInput::SampledTask { seed, .. } = &jobs[11].payload.input else {
            panic!("sampled job")
        };
        assert_eq!(*seed, 2 ^ (45u64 << 24) ^ (8u64 << 48));
    }

    #[test]
    fn sampled_replications_with_nearby_base_seeds_are_decorrelated() {
        // base seed 0 is the serial stream; base seed 1 must not overlap
        // it (the SampledFractions/CondShares analogue of the acceptance
        // grid's SplitMix64 derivation).
        for grid_seeds in [
            SweepSpec::suspension(vec![2], vec![0.05], 16, 0).with_seeds(vec![0, 1]),
            SweepSpec::conditional(CondGenParams::small(), vec![2], vec![0.2], 16, 512)
                .with_seeds(vec![0, 1]),
        ] {
            let (_, jobs) = grid_seeds.expand();
            let seeds: std::collections::BTreeSet<u64> = jobs
                .iter()
                .map(|j| match &j.payload.input {
                    JobInput::SampledTask { seed, .. } | JobInput::CondExpr { seed, .. } => *seed,
                    other => panic!("unexpected input {other:?}"),
                })
                .collect();
            assert_eq!(seeds.len(), jobs.len(), "replication streams overlap");
        }
    }

    #[test]
    fn conditional_expansion_derives_template_and_seed() {
        let s = SweepSpec::conditional(CondGenParams::small(), vec![2], vec![0.3], 2, 512);
        assert!(s.validate().is_ok());
        let (cells, jobs) = s.expand();
        assert_eq!(cells.len(), 1);
        assert_eq!(jobs.len(), 2);
        let JobInput::CondExpr { params, seed } = &jobs[1].payload.input else {
            panic!("cond job")
        };
        assert_eq!(params.p_cond, 0.3);
        assert!((params.p_par - 0.35).abs() < 1e-12);
        assert_eq!(*seed, 1 ^ (((0.3 * 1000.0) as u64) << 20) ^ (2u64 << 40));
    }

    #[test]
    fn preset_constructors_select_the_right_analyses() {
        let fig6 = SweepSpec::simulation_impact(GeneratorPreset::Small, vec![2], vec![0.2], 2, 1);
        assert!(fig6.sim_transformed);
        assert!(fig6.analyses.contains("sim") && !fig6.analyses.contains("het"));
        assert_eq!(fig6.cell_shape(), CellShape::Task);
        let fig7 = SweepSpec::exact_accuracy(GeneratorPreset::Small, vec![2], vec![0.2], 2, 1);
        for key in ["exact", "hom", "het"] {
            assert!(fig7.analyses.contains(key), "{key}");
        }
        let cond = SweepSpec::conditional(CondGenParams::small(), vec![2], vec![0.2], 2, 512);
        assert_eq!(cond.cell_shape(), CellShape::Cond);
        let susp = SweepSpec::suspension(vec![2], vec![0.2], 2, 0);
        assert!(susp.analyses.contains("suspend"));
        assert_eq!(susp.cell_shape(), CellShape::Task);
    }
}
