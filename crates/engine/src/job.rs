//! Independent units of work and their execution against the caches.
//!
//! A job is a recipe for an input ([`JobInput`]) plus an ordered list of
//! analysis registry keys to run on it. Execution is layered over three
//! memo caches:
//!
//! 1. an **identity memo** mapping the job's input *recipe* to the content
//!    hash of the input it generates — so a repeated-seed job whose results
//!    are already cached never rebuilds the DAG just to compute the lookup
//!    key;
//! 2. the **result cache**, keyed by content hash × registry key × the
//!    parameter digest the analysis declares;
//! 3. the **transformation memo**, shared through the
//!    [`AnalysisContext`] seam so Algorithm 1 runs once per distinct DAG
//!    regardless of core count or analysis kind.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hetrta_api::{
    Analysis, AnalysisContext, AnalysisInput, AnalysisOutcome, AnalysisParams, AnalysisRegistry,
    AnalysisRequest, DerivedData,
};
use hetrta_cond::{generate_cond, CondGenParams};
use hetrta_core::TransformedTask;
use hetrta_dag::HeteroDagTask;
use hetrta_gen::offload::{make_hetero_task, CoffSizing, OffloadSelection};
use hetrta_gen::series::BatchSpec;
use hetrta_gen::{generate_nfj, NfjParams, STREAM_VERSION};
use hetrta_obs::{span, Recorder};
use hetrta_sched::taskset::{generate_task_set, sort_deadline_monotonic, TaskSetParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cache::{
    hash_dag_only, hash_input, hash_task, key_with_params, result_key, ContentHasher,
};
use crate::EngineCaches;

/// Cache-key tag of the transformation memo.
const TAG_TRANSFORM: u8 = 0xF0;

/// Cache-key tag of the derived-data memo.
const TAG_DERIVED: u8 = 0xF1;

/// One independent unit of work.
#[derive(Debug, Clone)]
pub struct Job {
    /// Position in the spec's expansion order (the determinism anchor).
    pub index: usize,
    /// Index of the sweep cell this job contributes to.
    pub cell: usize,
    /// What to compute.
    pub payload: JobPayload,
}

/// What one job computes: an input recipe, the registry keys to run on it,
/// and the analysis parameters.
#[derive(Debug, Clone)]
pub struct JobPayload {
    /// How to obtain the input.
    pub input: JobInput,
    /// Registry keys of the analyses to run, in outcome order.
    pub analyses: Arc<[Arc<str>]>,
    /// Parameters handed to every analysis.
    pub params: AnalysisParams,
}

/// A recipe for one analysis input.
#[derive(Debug, Clone)]
pub enum JobInput {
    /// Task `task_index` of a reproducible batch at offload `fraction`.
    BatchTask {
        /// Reproducible batch the task is drawn from.
        batch: Arc<BatchSpec>,
        /// The batch's share of the identity hash,
        /// [`JobInput::batch_prefix`] of `batch`: computed once per batch,
        /// since every task of the batch starts its hash with it.
        prefix: u128,
        /// Target `C_off/vol`.
        fraction: f64,
        /// Index within the batch.
        task_index: usize,
    },
    /// One independently sampled task from a fully derived seed;
    /// generation failures *decline* the sample instead of failing the job
    /// (the suspension-baseline convention).
    SampledTask {
        /// DAG generator parameters.
        params: Arc<NfjParams>,
        /// Target `C_off/vol`.
        fraction: f64,
        /// Fully derived RNG seed.
        seed: u64,
    },
    /// One generated task set, sorted deadline-monotonically.
    TaskSet {
        /// Task-set template (total utilization overwritten per point).
        template: Arc<TaskSetParams>,
        /// Tasks per set.
        n_tasks: usize,
        /// Host core count (scales the total utilization).
        cores: u64,
        /// Normalized utilization `U/m` of this point.
        normalized_util: f64,
        /// Fully derived RNG seed for this set.
        seed: u64,
    },
    /// One generated conditional expression; generation failures decline
    /// the sample.
    CondExpr {
        /// Conditional-generator parameters.
        params: Arc<CondGenParams>,
        /// Fully derived RNG seed.
        seed: u64,
    },
}

impl JobInput {
    /// The digest a batch task's [`identity_hash`](JobInput::identity_hash)
    /// resumes from: the recipe's tag, the task-stream version, generator
    /// parameters, base seed and offload selection. A task adds only its
    /// fraction and index, so formatting the parameters costs once per
    /// batch, not once per job.
    #[must_use]
    pub fn batch_prefix(batch: &BatchSpec) -> u128 {
        let mut h = ContentHasher::new();
        h.write_u8(1);
        h.write_u64(u64::from(STREAM_VERSION));
        h.write_str(&format!("{:?}", batch.params));
        h.write_u64(batch.base_seed);
        h.write_str(&format!("{:?}", batch.selection));
        h.finish()
    }

    /// Hash of the input *recipe* — what to generate, not the generated
    /// content. Keyed on generator parameters and derivation scalars, so
    /// two jobs that would generate identical inputs share one identity.
    /// Recipes that draw NFJ graphs also hash [`STREAM_VERSION`], so
    /// identities stored under another task stream read as misses.
    #[must_use]
    pub fn identity_hash(&self) -> u128 {
        let mut h = ContentHasher::new();
        match self {
            JobInput::BatchTask {
                prefix,
                fraction,
                task_index,
                ..
            } => {
                h = ContentHasher::resume(*prefix);
                h.write_u64(fraction.to_bits());
                h.write_u64(*task_index as u64);
            }
            JobInput::SampledTask {
                params,
                fraction,
                seed,
            } => {
                h.write_u8(2);
                h.write_u64(u64::from(STREAM_VERSION));
                h.write_str(&format!("{params:?}"));
                h.write_u64(fraction.to_bits());
                h.write_u64(*seed);
            }
            JobInput::TaskSet {
                template,
                n_tasks,
                cores,
                normalized_util,
                seed,
            } => {
                h.write_u8(3);
                h.write_u64(u64::from(STREAM_VERSION));
                h.write_str(&format!("{template:?}"));
                h.write_u64(*n_tasks as u64);
                h.write_u64(*cores);
                h.write_u64(normalized_util.to_bits());
                h.write_u64(*seed);
            }
            JobInput::CondExpr { params, seed } => {
                h.write_u8(4);
                h.write_str(&format!("{params:?}"));
                h.write_u64(*seed);
            }
        }
        h.finish()
    }

    /// Materializes the input. `Ok(None)` means the generator declined the
    /// sample (sweeps skip it, mirroring the serial loops); `Err` is a
    /// hard job failure.
    fn materialize(&self) -> Result<Option<AnalysisInput>, String> {
        match self {
            JobInput::BatchTask {
                batch,
                fraction,
                task_index,
                ..
            } => match batch.task(*task_index, *fraction) {
                Ok(task) => Ok(Some(AnalysisInput::Task(task))),
                Err(e) => Err(format!("generation failed: {e}")),
            },
            JobInput::SampledTask {
                params,
                fraction,
                seed,
            } => {
                let mut rng = StdRng::seed_from_u64(*seed);
                let Ok(dag) = generate_nfj(params, &mut rng) else {
                    return Ok(None);
                };
                match make_hetero_task(
                    dag,
                    OffloadSelection::AnyInterior,
                    CoffSizing::VolumeFraction(*fraction),
                    &mut rng,
                ) {
                    Ok(task) => Ok(Some(AnalysisInput::Task(task))),
                    Err(_) => Ok(None),
                }
            }
            JobInput::TaskSet {
                template,
                n_tasks,
                cores,
                normalized_util,
                seed,
            } => {
                // Generation mirrors hetrta_sched::acceptance::acceptance_sweep.
                let mut params = (**template).clone();
                params.n_tasks = *n_tasks;
                params.total_util = normalized_util * *cores as f64;
                let mut rng = StdRng::seed_from_u64(*seed);
                let mut set = generate_task_set(&params, &mut rng)
                    .map_err(|e| format!("task-set generation failed: {e}"))?;
                sort_deadline_monotonic(&mut set);
                Ok(Some(AnalysisInput::TaskSet(set)))
            }
            JobInput::CondExpr { params, seed } => {
                let mut rng = StdRng::seed_from_u64(*seed);
                match generate_cond(params, &mut rng) {
                    Ok(expr) => Ok(Some(AnalysisInput::Cond(expr))),
                    Err(_) => Ok(None),
                }
            }
        }
    }
}

/// What a job computed.
#[derive(Debug, Clone, PartialEq)]
pub enum JobMetrics {
    /// Outcomes of the selected analyses, in selection order.
    Outcomes(Vec<AnalysisOutcome>),
    /// The generator declined the sample; serial reference loops skip
    /// these, and so does aggregation.
    Skipped,
}

/// A finished job, streamed to the aggregator (and, through session
/// events, to observers).
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The job's expansion index.
    pub index: usize,
    /// The cell it contributes to.
    pub cell: usize,
    /// Worker that executed it.
    pub worker: usize,
    /// Stable content key of the job's input recipe ([`JobInput::identity_hash`]).
    pub identity: u128,
    /// Whether the job was served entirely from the memo caches (memory
    /// or disk).
    pub cache_hit: bool,
    /// Wall-clock execution time on the worker.
    pub wall_time: Duration,
    /// Measured wall time of each analysis that was actually *computed*
    /// (cache-served analyses are not timed) — the feed of the engine's
    /// `analysis.<key>.latency_ns` histograms.
    pub timings: Vec<(Arc<str>, Duration)>,
    /// Metrics, or the failure message.
    pub metrics: Result<JobMetrics, String>,
}

/// The engine's [`AnalysisContext`]: Algorithm 1 transformations and the
/// per-DAG derived data (critical path, volume) are memoized by content,
/// shared across core counts and analysis kinds. A transformation is
/// computed from the derived critical path (one pass, no graph built), so
/// memoizing the two results is enough — no reachability closure is
/// cached.
struct EngineContext<'a> {
    caches: &'a EngineCaches,
    recorder: &'a dyn Recorder,
}

impl AnalysisContext for EngineContext<'_> {
    fn transform(&self, task: &HeteroDagTask) -> Result<TransformedTask, String> {
        let key = key_with_params(hash_task(task), TAG_TRANSFORM, 0);
        let (value, _hit) = self.caches.transform.get_or_compute(key, || {
            // The derived lookup runs (and closes its own span) before the
            // transform span opens, so the two spans never nest.
            let derived = self.derived(task)?;
            // Span only on actual computes: memo hits cost no clock reads.
            let _span = span!(self.recorder, "ctx.transform");
            hetrta_core::transform_with_critical_path(task, &derived.critical_path)
                .map_err(|e| e.to_string())
        });
        value
    }

    fn derived(&self, task: &HeteroDagTask) -> Result<Arc<DerivedData>, String> {
        // Keyed by the graph alone: tasks differing only in period or
        // deadline share one entry.
        let key = key_with_params(hash_dag_only(task.dag()), TAG_DERIVED, 0);
        let (value, _hit) = self.caches.derived.get_or_compute(key, || {
            let _span = span!(self.recorder, "ctx.derived");
            DerivedData::compute(task.dag()).map(Arc::new)
        });
        value
    }
}

/// Executes one job against the shared caches.
pub(crate) fn execute(
    caches: &EngineCaches,
    registry: &AnalysisRegistry,
    job: &Job,
    worker: usize,
    recorder: &dyn Recorder,
) -> JobResult {
    let started = Instant::now();
    let identity = job.payload.input.identity_hash();
    let mut timings = Vec::new();
    let (metrics, cache_hit) = match execute_payload(
        caches,
        registry,
        &job.payload,
        identity,
        &mut timings,
        recorder,
    ) {
        Ok((metrics, cache_hit)) => (Ok(metrics), cache_hit),
        Err(message) => (Err(message), false),
    };
    JobResult {
        index: job.index,
        cell: job.cell,
        worker,
        identity,
        cache_hit,
        wall_time: started.elapsed(),
        timings,
        metrics,
    }
}

fn execute_payload(
    caches: &EngineCaches,
    registry: &AnalysisRegistry,
    payload: &JobPayload,
    identity: u128,
    timings: &mut Vec<(Arc<str>, Duration)>,
    recorder: &dyn Recorder,
) -> Result<(JobMetrics, bool), String> {
    let analyses: Vec<&dyn Analysis> = payload
        .analyses
        .iter()
        .map(|key| registry.get(key).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;

    // Fast path: a previously seen recipe whose results are all cached
    // (in memory or on disk) is served without regenerating the input.
    // Otherwise it names the result key memory and disk both missed.
    let mut missed = None;
    match caches.identity_lookup(identity) {
        Some(None) => return Ok((JobMetrics::Skipped, true)),
        Some(Some(content)) => {
            match cached_outcomes(caches, content, &analyses, &payload.params)? {
                Ok(outcomes) => return Ok((JobMetrics::Outcomes(outcomes), true)),
                Err(key) => missed = Some(key),
            }
        }
        None => {}
    }

    // Input-materialization memo: a recipe already generated for another
    // grid cell (a different core count, say) is reused instead of
    // regenerated — generation is often the dominant per-job cost for
    // large DAGs.
    let (input, _hit) = caches.inputs.get_or_compute(identity, || {
        let _span = span!(recorder, "materialize");
        payload.input.materialize()
    });
    let Some(input) = input? else {
        caches.identity_store(identity, None);
        return Ok((JobMetrics::Skipped, false));
    };
    let content = hash_input(&input);
    caches.identity_store(identity, Some(content));

    let request = AnalysisRequest {
        input,
        params: payload.params.clone(),
    };
    let ctx = EngineContext { caches, recorder };
    let mut outcomes = Vec::with_capacity(analyses.len());
    let mut all_hits = true;
    for (analysis, key_arc) in analyses.iter().zip(payload.analyses.iter()) {
        let key = result_key(
            content,
            analysis.key(),
            analysis.cache_params(&request.params),
        );
        let mut measured = None;
        let (value, hit) = caches.result_get_or_compute(key, missed != Some(key), || {
            let _span = span!(recorder, "analysis", key = analysis.key());
            let t0 = Instant::now();
            let value = analysis.run(&request, &ctx).map_err(|e| e.to_string());
            measured = Some(t0.elapsed());
            value
        });
        if let Some(elapsed) = measured {
            timings.push((Arc::clone(key_arc), elapsed));
        }
        all_hits &= hit;
        outcomes.push(value?);
    }
    Ok((JobMetrics::Outcomes(outcomes), all_hits))
}

/// Assembles every selected outcome from the result cache, or names the
/// first key neither memory nor disk holds (the job then takes the slow
/// path, which need not probe the disk for that key again).
fn cached_outcomes(
    caches: &EngineCaches,
    content: u128,
    analyses: &[&dyn Analysis],
    params: &AnalysisParams,
) -> Result<Result<Vec<AnalysisOutcome>, u128>, String> {
    let mut outcomes = Vec::with_capacity(analyses.len());
    for analysis in analyses {
        let key = result_key(content, analysis.key(), analysis.cache_params(params));
        match caches.peek_result(key) {
            Some(Ok(outcome)) => outcomes.push(outcome),
            Some(Err(message)) => return Err(message),
            None => return Ok(Err(key)),
        }
    }
    caches.results.note_hits(outcomes.len() as u64);
    Ok(Ok(outcomes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{GeneratorPreset, SweepSpec};
    use hetrta_api::HetOutcome;

    fn registry() -> AnalysisRegistry {
        AnalysisRegistry::builtin()
    }

    fn het_of(metrics: &JobMetrics) -> HetOutcome {
        let JobMetrics::Outcomes(outcomes) = metrics else {
            panic!("outcomes")
        };
        let AnalysisOutcome::Het(h) = outcomes
            .iter()
            .find(|o| o.key() == "het")
            .expect("het selected")
        else {
            panic!("het outcome")
        };
        *h
    }

    #[test]
    fn task_job_executes_and_caches() {
        let caches = EngineCaches::default();
        let spec = SweepSpec::fractions(GeneratorPreset::Small, vec![2], vec![0.2], 1, 7);
        let (_, jobs) = spec.expand();
        let first = execute(&caches, &registry(), &jobs[0], 0, &hetrta_obs::NOOP);
        assert!(!first.cache_hit);
        let metrics = first.metrics.expect("job succeeds");
        let het = het_of(&metrics);
        assert!(het.r_het <= het.r_hom_transformed + 1e-9);

        // Same job again: fully served from cache, same values — without
        // regenerating the input (the identity memo answers first).
        let identity_before = caches.identity.counters();
        let again = execute(&caches, &registry(), &jobs[0], 1, &hetrta_obs::NOOP);
        assert!(again.cache_hit);
        assert_eq!(again.metrics.expect("job succeeds"), metrics);
        let identity_after = caches.identity.counters();
        assert_eq!(identity_after.hits, identity_before.hits + 1);
    }

    /// A recipe's identity hashed field by field in one stream, under
    /// task-stream version `stream`; `None` is the layout from before
    /// identities carried the version.
    fn identity_at(input: &JobInput, stream: Option<u32>) -> u128 {
        let mut h = ContentHasher::new();
        let mut start = |tag: u8| {
            h.write_u8(tag);
            if let Some(stream) = stream {
                h.write_u64(u64::from(stream));
            }
        };
        match input {
            JobInput::BatchTask {
                batch,
                fraction,
                task_index,
                ..
            } => {
                start(1);
                h.write_str(&format!("{:?}", batch.params));
                h.write_u64(batch.base_seed);
                h.write_str(&format!("{:?}", batch.selection));
                h.write_u64(fraction.to_bits());
                h.write_u64(*task_index as u64);
            }
            JobInput::SampledTask {
                params,
                fraction,
                seed,
            } => {
                start(2);
                h.write_str(&format!("{params:?}"));
                h.write_u64(fraction.to_bits());
                h.write_u64(*seed);
            }
            JobInput::TaskSet {
                template,
                n_tasks,
                cores,
                normalized_util,
                seed,
            } => {
                start(3);
                h.write_str(&format!("{template:?}"));
                h.write_u64(*n_tasks as u64);
                h.write_u64(*cores);
                h.write_u64(normalized_util.to_bits());
                h.write_u64(*seed);
            }
            JobInput::CondExpr { params, seed } => {
                // Conditional expressions draw no NFJ graph.
                assert_eq!(stream, None);
                h.write_u8(4);
                h.write_str(&format!("{params:?}"));
                h.write_u64(*seed);
            }
        }
        h.finish()
    }

    #[test]
    fn batch_identities_equal_the_whole_recipe_hash() {
        // The identity a batch task had before its batch's share was
        // hashed once per batch: everything hashed in one stream.
        let spec = SweepSpec::fractions(GeneratorPreset::Small, vec![2, 8], vec![0.1, 0.5], 3, 7)
            .with_seeds(vec![7, 1 << 40]);
        let (_, jobs) = spec.expand();
        assert_eq!(jobs.len(), 24);
        for job in &jobs {
            let JobInput::BatchTask { batch, prefix, .. } = &job.payload.input else {
                panic!("a fraction sweep expands into batch tasks");
            };
            assert_eq!(*prefix, JobInput::batch_prefix(batch));
            assert_eq!(
                job.payload.input.identity_hash(),
                identity_at(&job.payload.input, Some(STREAM_VERSION)),
                "job {}",
                job.index
            );
        }
    }

    #[test]
    fn nfj_recipe_identities_change_with_the_stream_version() {
        let (_, jobs) =
            SweepSpec::fractions(GeneratorPreset::Small, vec![2], vec![0.1], 1, 7).expand();
        let nfj_recipes = [
            jobs[0].payload.input.clone(),
            JobInput::SampledTask {
                params: Arc::new(NfjParams::small_tasks()),
                fraction: 0.1,
                seed: 7,
            },
            JobInput::TaskSet {
                template: Arc::new(TaskSetParams::small(4, 1.0)),
                n_tasks: 4,
                cores: 2,
                normalized_util: 0.5,
                seed: 7,
            },
        ];
        for input in &nfj_recipes {
            let identity = input.identity_hash();
            assert_eq!(identity, identity_at(input, Some(STREAM_VERSION)));
            assert_ne!(identity, identity_at(input, Some(STREAM_VERSION + 1)));
            // Identities stored before the version was hashed read as
            // misses.
            assert_ne!(identity, identity_at(input, None));
        }
        let cond = JobInput::CondExpr {
            params: Arc::new(CondGenParams::small()),
            seed: 7,
        };
        assert_eq!(cond.identity_hash(), identity_at(&cond, None));
    }

    #[test]
    fn transform_is_shared_across_core_counts() {
        let caches = EngineCaches::default();
        let spec = SweepSpec::fractions(GeneratorPreset::Small, vec![2, 4, 8], vec![0.2], 1, 7);
        let (_, jobs) = spec.expand();
        for job in &jobs {
            let r = execute(&caches, &registry(), job, 0, &hetrta_obs::NOOP);
            assert!(r.metrics.is_ok());
        }
        let counters = caches.transform.counters();
        assert_eq!(counters.misses, 1, "one DAG, one transformation");
        assert_eq!(counters.hits, 2, "reused for the other two core counts");
    }

    #[test]
    fn all_analyses_fill_all_outcomes() {
        let caches = EngineCaches::default();
        let spec = SweepSpec::fractions(GeneratorPreset::Small, vec![2], vec![0.25], 1, 3)
            .with_analyses(crate::AnalysisSelection::all());
        let (_, jobs) = spec.expand();
        let r = execute(&caches, &registry(), &jobs[0], 0, &hetrta_obs::NOOP);
        let JobMetrics::Outcomes(outcomes) = r.metrics.expect("job succeeds") else {
            panic!("outcomes")
        };
        assert_eq!(outcomes.len(), 4);
        // Outcome order follows selection order.
        let keys: Vec<&str> = outcomes.iter().map(AnalysisOutcome::key).collect();
        assert_eq!(keys, vec!["hom", "het", "sim", "exact"]);
        let AnalysisOutcome::Sim(sim) = &outcomes[2] else {
            panic!("sim outcome")
        };
        // exact may be None only for oversized DAGs; small preset fits.
        let AnalysisOutcome::Exact(Some(exact)) = &outcomes[3] else {
            panic!("small task solves")
        };
        assert!(
            exact.makespan <= sim.makespan,
            "exact optimum cannot exceed a simulated schedule"
        );
    }

    #[test]
    fn unknown_registry_key_is_a_job_error_listing_valid_keys() {
        let caches = EngineCaches::default();
        let spec = SweepSpec::fractions(GeneratorPreset::Small, vec![2], vec![0.2], 1, 7);
        let (_, jobs) = spec.expand();
        let mut job = jobs[0].clone();
        job.payload.analyses = Arc::from(vec![Arc::<str>::from("frob")]);
        let r = execute(&caches, &registry(), &job, 0, &hetrta_obs::NOOP);
        let err = r.metrics.unwrap_err();
        assert!(err.contains("unknown analysis kind `frob`"), "{err}");
        assert!(err.contains("valid keys"), "{err}");
    }

    #[test]
    fn declined_samples_are_skipped_and_memoized() {
        let caches = EngineCaches::default();
        // An impossible sampled task: fraction ~1.0 is invalid for sizing,
        // but grid validation is bypassed by constructing the input
        // directly; use a generator that cannot produce 3 nodes instead.
        let params = Arc::new(hetrta_gen::NfjParams::small_tasks().with_node_range(1, 1));
        let job = Job {
            index: 0,
            cell: 0,
            payload: JobPayload {
                input: JobInput::SampledTask {
                    params,
                    fraction: 0.2,
                    seed: 5,
                },
                analyses: crate::AnalysisSelection::from_keys(["suspend"]).to_shared(),
                params: AnalysisParams::new(2),
            },
        };
        let first = execute(&caches, &registry(), &job, 0, &hetrta_obs::NOOP);
        assert_eq!(
            first.metrics.expect("skip is not an error"),
            JobMetrics::Skipped
        );
        assert!(!first.cache_hit);
        let again = execute(&caches, &registry(), &job, 0, &hetrta_obs::NOOP);
        assert_eq!(
            again.metrics.expect("skip is not an error"),
            JobMetrics::Skipped
        );
        assert!(again.cache_hit, "the declined sample is memoized");
    }

    #[test]
    fn identity_memo_spans_structurally_equal_recipes() {
        // Two distinct Arc instances describing the same batch share one
        // identity, so the second job is a pure cache hit.
        let caches = EngineCaches::default();
        let spec = SweepSpec::fractions(GeneratorPreset::Small, vec![2], vec![0.2], 2, 9);
        let (_, jobs_a) = spec.expand();
        let (_, jobs_b) = spec.expand();
        let a = execute(&caches, &registry(), &jobs_a[0], 0, &hetrta_obs::NOOP);
        let b = execute(&caches, &registry(), &jobs_b[0], 0, &hetrta_obs::NOOP);
        assert!(!a.cache_hit);
        assert!(b.cache_hit);
        assert_eq!(a.metrics.unwrap(), b.metrics.unwrap());
    }

    #[test]
    fn a_cold_disk_backed_sweep_probes_each_key_once() {
        // Two core counts per recipe: the second job finds the identity in
        // memory and misses its results, and the slow path must not ask
        // the disk again for the result its fast path just missed.
        let dir =
            std::env::temp_dir().join(format!("hetrta-job-disk-probes-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = SweepSpec::fractions(GeneratorPreset::Small, vec![2, 8], vec![0.1, 0.3], 6, 21)
            .with_analyses(crate::AnalysisSelection::from_keys(["het", "hom"]));
        let registry = registry();
        let mut identities = std::collections::HashSet::new();
        let mut results = std::collections::HashSet::new();
        for job in spec.expand().1 {
            let payload = &job.payload;
            identities.insert(payload.input.identity_hash());
            let Some(input) = payload.input.materialize().expect("materializes") else {
                continue;
            };
            let content = hash_input(&input);
            for key in payload.analyses.iter() {
                let analysis = registry.get(key).expect("builtin key");
                let params = analysis.cache_params(&payload.params);
                results.insert(result_key(content, analysis.key(), params));
            }
        }
        assert!(
            results.len() > identities.len(),
            "results differ per core count"
        );

        // One thread, so no two jobs probe the same key at once.
        let engine = crate::EngineBuilder::new()
            .threads(1)
            .with_cache_dir(&dir)
            .build()
            .expect("cache dir opens");
        let disk = engine.run(&spec).expect("cold run").stats.disk_cache;
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(disk.hits, 0);
        assert_eq!(disk.misses, (identities.len() + results.len()) as u64);
    }
}
