//! The `Analysis` trait and the key-addressed registry.

use std::fmt;
use std::sync::{Arc, OnceLock};

use hetrta_core::TransformedTask;
use hetrta_dag::HeteroDagTask;

use crate::{AnalysisOutcome, AnalysisParams, AnalysisRequest, ApiError};

/// The input kind an [`Analysis`] consumes — declared up front so batch
/// engines can reject a mismatched grid/key combination before any work
/// runs, instead of failing every job at execution time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputKind {
    /// One heterogeneous DAG task ([`AnalysisInput::Task`](crate::AnalysisInput)).
    Task,
    /// A task set ([`AnalysisInput::TaskSet`](crate::AnalysisInput)).
    TaskSet,
    /// A conditional expression ([`AnalysisInput::Cond`](crate::AnalysisInput)).
    Cond,
}

impl InputKind {
    /// Human-readable name (matches [`AnalysisInput::kind`](crate::AnalysisInput::kind)).
    #[must_use]
    pub fn describe(self) -> &'static str {
        match self {
            InputKind::Task => "task",
            InputKind::TaskSet => "task set",
            InputKind::Cond => "conditional expression",
        }
    }
}

/// Shared services an [`Analysis`] may use while running.
///
/// The context is the seam between the pure analysis code and its
/// execution environment: the default [`DirectContext`] computes
/// everything on the spot, while the batch engine supplies a context
/// backed by its content-addressed memo caches so the Algorithm 1
/// transformation and the [`DerivedData`] of a task (critical path,
/// volume) are computed once per distinct DAG and
/// shared across every core count and analysis kind that touches it.
pub trait AnalysisContext {
    /// The Algorithm 1 transformation of `task` (possibly memoized).
    ///
    /// # Errors
    ///
    /// A human-readable message when the transformation fails.
    fn transform(&self, task: &HeteroDagTask) -> Result<TransformedTask, String>;

    /// The `m`-independent derived quantities of the task's graph
    /// (possibly memoized per content hash). The default computes them
    /// directly, so existing custom contexts keep working unchanged.
    ///
    /// # Errors
    ///
    /// A human-readable message when the graph is cyclic.
    fn derived(&self, task: &HeteroDagTask) -> Result<Arc<crate::DerivedData>, String> {
        crate::DerivedData::compute(task.dag()).map(Arc::new)
    }
}

/// The memo-free context: every service is computed directly.
#[derive(Debug, Clone, Copy, Default)]
pub struct DirectContext;

impl AnalysisContext for DirectContext {
    fn transform(&self, task: &HeteroDagTask) -> Result<TransformedTask, String> {
        hetrta_core::transform(task).map_err(|e| e.to_string())
    }
}

/// One pluggable analysis: a stable key, a description, and a pure
/// `request → outcome` function.
///
/// Implementations must be pure in the sense that the outcome is a
/// function of the request alone — that is what makes registry-driven
/// engines free to memoize, reorder, and parallelize them.
///
/// # Plugging in a custom analysis
///
/// ```
/// use std::sync::Arc;
/// use hetrta_api::{
///     Analysis, AnalysisContext, AnalysisOutcome, AnalysisRegistry,
///     AnalysisRequest, ApiError, DirectContext,
/// };
///
/// /// Counts the nodes of the task graph ("how big is this program?").
/// #[derive(Debug)]
/// struct NodeCount;
///
/// impl Analysis for NodeCount {
///     fn key(&self) -> &str {
///         "nodes"
///     }
///     fn describe(&self) -> &str {
///         "node count of the task graph"
///     }
///     fn run(
///         &self,
///         request: &AnalysisRequest,
///         _ctx: &dyn AnalysisContext,
///     ) -> Result<AnalysisOutcome, ApiError> {
///         let task = request.input.as_task(self.key())?;
///         Ok(AnalysisOutcome::Hom {
///             r_hom: task.dag().node_count() as f64,
///         })
///     }
/// }
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut registry = AnalysisRegistry::builtin();
/// registry.register(Arc::new(NodeCount));
/// assert!(registry.keys().contains(&"nodes"));
///
/// # use hetrta_dag::{DagBuilder, HeteroDagTask, Ticks};
/// # let mut b = DagBuilder::new();
/// # let pre = b.node("pre", Ticks::new(2));
/// # let gpu = b.node("gpu", Ticks::new(9));
/// # b.edges([(pre, gpu)])?;
/// # let task = HeteroDagTask::new(b.build()?, gpu, Ticks::new(40), Ticks::new(40))?;
/// let outcome = registry.run("nodes", &AnalysisRequest::task(task, 2), &DirectContext)?;
/// assert_eq!(outcome, AnalysisOutcome::Hom { r_hom: 2.0 });
/// # Ok(())
/// # }
/// ```
pub trait Analysis: Send + Sync + fmt::Debug {
    /// Stable registry key (e.g. `"het"`). Lowercase, no whitespace.
    fn key(&self) -> &str;

    /// One-line human-readable description (help screens, docs).
    fn describe(&self) -> &str;

    /// The input kind this analysis consumes (most take a single task).
    fn input_kind(&self) -> InputKind {
        InputKind::Task
    }

    /// Runs the analysis.
    ///
    /// # Errors
    ///
    /// [`ApiError::InputMismatch`] for the wrong input kind, or
    /// [`ApiError::Failed`] when the analysis itself fails.
    fn run(
        &self,
        request: &AnalysisRequest,
        ctx: &dyn AnalysisContext,
    ) -> Result<AnalysisOutcome, ApiError>;

    /// Digest of the parameter subset this analysis actually reads, used
    /// as the parameter part of memo keys. The default digests every
    /// field; implementations narrow it so e.g. changing the exact-solver
    /// budget does not invalidate memoized `het` results.
    fn cache_params(&self, params: &AnalysisParams) -> u64 {
        let mut h = ParamDigest::new();
        h.push(params.m);
        match params.exact_node_budget {
            None => h.push(0),
            Some(budget) => {
                h.push(1);
                h.push(budget);
            }
        }
        h.push(params.realization_cap as u64);
        h.push(u64::from(params.sim_transformed));
        h.push(params.explore_seeds);
        h.push(params.sample_budget as u64);
        h.push(params.sample_seed);
        h.finish()
    }

    /// Static relative cost rank (higher = heavier), used only as a
    /// **cold-start fallback**: schedulers that order work by expense —
    /// the batch engine injects heavy kinds first so a single expensive
    /// job does not tail a sweep — prefer *measured* per-key wall-clock
    /// EWMAs learned from finished jobs (the engine's `CostModel`) and
    /// consult this rank solely for keys they have never timed. The
    /// learned estimates are also exported to the engine's metrics
    /// registry as `cost.ewma_us.{key}` gauges, so the effective cost
    /// ordering is observable after any run.
    fn cost_hint(&self) -> u8 {
        1
    }
}

/// FNV-1a digest for [`Analysis::cache_params`]. Input order is
/// significant — the digest of `push(a); push(b)` differs from
/// `push(b); push(a)` — and adapters rely on that to disambiguate
/// encodings (e.g. absent-vs-present optional parameters).
#[derive(Debug, Clone)]
pub struct ParamDigest {
    state: u64,
}

impl ParamDigest {
    /// Creates a digest with the FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        ParamDigest {
            state: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Feeds one word.
    pub fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.state ^= u64::from(byte);
            self.state = self.state.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The accumulated digest.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for ParamDigest {
    fn default() -> Self {
        Self::new()
    }
}

/// A key-addressed collection of [`Analysis`] implementations.
///
/// Keys resolve in registration order; registering a key twice replaces
/// the earlier entry (latest wins), so applications can override builtin
/// analyses.
#[derive(Clone)]
pub struct AnalysisRegistry {
    entries: Vec<Arc<dyn Analysis>>,
}

impl fmt::Debug for AnalysisRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AnalysisRegistry")
            .field("keys", &self.keys())
            .finish()
    }
}

impl AnalysisRegistry {
    /// An empty registry.
    #[must_use]
    pub fn empty() -> Self {
        AnalysisRegistry {
            entries: Vec::new(),
        }
    }

    /// The nine builtin analyses of this workspace: `het`, `hom`, `sim`,
    /// `exact`, `cond`, `suspend`, `acceptance`, `sampled`, `anytime`.
    ///
    /// Clones one process-wide registry: the builtin analyses are
    /// stateless (their scratch space lives in thread-locals), so every
    /// registry can share them.
    #[must_use]
    pub fn builtin() -> Self {
        static BUILTIN: OnceLock<AnalysisRegistry> = OnceLock::new();
        BUILTIN
            .get_or_init(|| {
                let mut registry = AnalysisRegistry::empty();
                for analysis in crate::adapters::builtin_analyses() {
                    registry.register(analysis);
                }
                registry
            })
            .clone()
    }

    /// Registers `analysis` under its [`Analysis::key`]; an existing entry
    /// with the same key is replaced.
    pub fn register(&mut self, analysis: Arc<dyn Analysis>) {
        if let Some(slot) = self.entries.iter_mut().find(|e| e.key() == analysis.key()) {
            *slot = analysis;
        } else {
            self.entries.push(analysis);
        }
    }

    /// Resolves `key`.
    ///
    /// # Errors
    ///
    /// [`ApiError::UnknownAnalysis`] listing every valid key.
    pub fn get(&self, key: &str) -> Result<&dyn Analysis, ApiError> {
        self.entries
            .iter()
            .find(|e| e.key() == key)
            .map(Arc::as_ref)
            .ok_or_else(|| ApiError::UnknownAnalysis {
                key: key.to_owned(),
                known: self.keys().iter().map(|&k| k.to_owned()).collect(),
            })
    }

    /// `true` if `key` resolves.
    #[must_use]
    pub fn contains(&self, key: &str) -> bool {
        self.entries.iter().any(|e| e.key() == key)
    }

    /// Every registered key, in registration order.
    #[must_use]
    pub fn keys(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.key()).collect()
    }

    /// `(key, description)` pairs, in registration order (help screens).
    #[must_use]
    pub fn descriptions(&self) -> Vec<(&str, &str)> {
        self.entries
            .iter()
            .map(|e| (e.key(), e.describe()))
            .collect()
    }

    /// Resolves `key` and runs it on `request`.
    ///
    /// # Errors
    ///
    /// [`ApiError::UnknownAnalysis`], or whatever the analysis returns.
    pub fn run(
        &self,
        key: &str,
        request: &AnalysisRequest,
        ctx: &dyn AnalysisContext,
    ) -> Result<AnalysisOutcome, ApiError> {
        self.get(key)?.run(request, ctx)
    }
}

impl Default for AnalysisRegistry {
    /// The builtin registry.
    fn default() -> Self {
        AnalysisRegistry::builtin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_has_the_nine_keys_in_stable_order() {
        let registry = AnalysisRegistry::builtin();
        assert_eq!(
            registry.keys(),
            vec![
                "het",
                "hom",
                "sim",
                "exact",
                "cond",
                "suspend",
                "acceptance",
                "sampled",
                "anytime"
            ]
        );
        for (key, description) in registry.descriptions() {
            assert!(!description.is_empty(), "{key} lacks a description");
        }
    }

    #[test]
    fn unknown_key_error_lists_every_valid_key() {
        let registry = AnalysisRegistry::builtin();
        let err = registry.get("frobnicate").unwrap_err();
        let text = err.to_string();
        for key in registry.keys() {
            assert!(text.contains(key), "`{key}` missing from: {text}");
        }
    }

    #[test]
    fn registration_replaces_same_key() {
        #[derive(Debug)]
        struct Stub(&'static str);
        impl Analysis for Stub {
            fn key(&self) -> &str {
                "stub"
            }
            fn describe(&self) -> &str {
                self.0
            }
            fn run(
                &self,
                _request: &AnalysisRequest,
                _ctx: &dyn AnalysisContext,
            ) -> Result<AnalysisOutcome, ApiError> {
                Err(ApiError::failed("stub", "unimplemented"))
            }
        }

        let mut registry = AnalysisRegistry::empty();
        registry.register(Arc::new(Stub("first")));
        registry.register(Arc::new(Stub("second")));
        assert_eq!(registry.keys(), vec!["stub"]);
        assert_eq!(registry.get("stub").unwrap().describe(), "second");
    }
}
