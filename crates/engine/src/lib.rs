//! # hetrta-engine — registry-driven parallel batch-analysis engine with
//! # content-addressed result caching
//!
//! The analyses of this workspace are pure functions of their inputs, and
//! evaluation sweeps run them over thousands of independently generated
//! inputs. This crate is the production path for those sweeps:
//!
//! * a declarative [`SweepSpec`] (generator preset × core counts × grid ×
//!   seeds × analysis registry keys) expands into independent [`Job`]s;
//!   grids cover offload fractions (Figures 6–9), normalized utilizations
//!   (acceptance tests), per-job sampled fractions (suspension baselines)
//!   and conditional shares;
//! * every job resolves its analyses through the
//!   [`AnalysisRegistry`] of `hetrta-api` — `"het"`, `"hom"`, `"sim"`,
//!   `"exact"`, `"cond"`, `"suspend"`, `"acceptance"`, or any custom
//!   [`Analysis`] registered by the application;
//! * a **work-stealing worker pool** ([`pool`]) runs the jobs — heaviest
//!   analysis kinds first, so one expensive solve does not tail the sweep;
//! * five bounded, sharded-LRU **memo caches** ([`cache`]) serve repeated
//!   content: analysis results by content hash × key × parameter digest,
//!   Algorithm 1 transformations and per-DAG derived data (critical path,
//!   volume) across core counts and analysis kinds,
//!   a job-identity → content-hash memo so repeated-seed jobs never
//!   regenerate their DAG just to compute the lookup key, and the
//!   materialized inputs themselves so a recipe revisited under new
//!   parameters skips generation too;
//! * the [`SweepAggregate`] is **bit-deterministic**: expansion order, not
//!   completion order, drives every floating-point reduction, so one
//!   thread and N threads produce identical aggregates;
//! * sweeps are **observable sessions** ([`session`]): [`Engine::submit`]
//!   returns a [`SweepHandle`] with a typed [`SweepEvent`] stream, live
//!   statistics, and cancellation — [`Engine::run`] runs the same
//!   session on the calling thread;
//! * the caches can persist to **disk** ([`disk`], via
//!   [`EngineBuilder::with_cache_dir`]), so a second process running the
//!   same spec replays every result instead of recomputing.
//!
//! ## Example
//!
//! ```
//! use hetrta_engine::{Engine, GeneratorPreset, SweepSpec};
//!
//! # fn main() -> Result<(), hetrta_engine::EngineError> {
//! // A small Figure-8-style sweep: 2 core counts × 2 offload fractions,
//! // 8 tasks per point.
//! let spec = SweepSpec::fractions(
//!     GeneratorPreset::Small,
//!     vec![2, 8],
//!     vec![0.05, 0.30],
//!     8,
//!     0xDAC_2018,
//! );
//! let engine = Engine::new(0); // all cores
//! let out = engine.run(&spec)?;
//! assert_eq!(out.aggregate.cells.len(), 4);
//! assert_eq!(out.stats.jobs, 32);
//! // The transformation of each task is shared across core counts:
//! assert!(out.stats.transform_cache.hits > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod aggregate;
pub mod cache;
pub mod disk;
mod driver;
mod engine;
pub mod job;
pub mod journal;
pub mod pool;
pub mod session;
pub mod spec;
pub mod wire;

pub use aggregate::{
    AccuracySummary, AggregateUpdate, AggregateView, Aggregator, CellKind, CellSummary,
    CondCellSummary, SetCellSummary, SuspendCellSummary, SweepAggregate, TaskCellSummary,
};
pub use cache::CacheCounters;
pub use disk::{DiskCache, GcStats};
pub use driver::SweepDriver;
pub use engine::{
    CostModel, Engine, EngineBuilder, EngineCaches, EngineError, EngineOutput, EngineStats,
    InjectionOrder, DEFAULT_CACHE_CAPACITY, INPUT_CACHE_CAP,
};
pub use job::{Job, JobInput, JobMetrics, JobPayload, JobResult};
pub use journal::{spec_hash, JournalConfig, JournalOutcome, SweepJournal};
pub use session::{SessionConfig, SweepCancelToken, SweepEvent, SweepHandle};
pub use spec::{AnalysisSelection, CellInfo, CellShape, GeneratorPreset, SweepGrid, SweepSpec};

// The observability layer the engine reports through: re-exported whole
// (as `obs`) plus the handful of types engine signatures mention.
pub use hetrta_obs as obs;
pub use hetrta_obs::{
    MetricsRegistry, MetricsSnapshot, NoopRecorder, Recorder, SpanRecord, TraceRecorder,
};

// The fault-injection plane the engine's robustness hooks consume.
pub use hetrta_fault::{FaultEvent, FaultPlan};

// The unified analysis API the engine schedules over.
pub use hetrta_api::{
    Analysis, AnalysisContext, AnalysisInput, AnalysisOutcome, AnalysisParams, AnalysisRegistry,
    AnalysisRequest, ApiError, CondOutcome, HetOutcome, SimOutcome, SuspendOutcome,
};

/// Backwards-compatible name of [`hetrta_api::HetOutcome`].
pub type HetSummary = hetrta_api::HetOutcome;
/// Backwards-compatible name of [`hetrta_api::ExactOutcome`].
pub type ExactSummary = hetrta_api::ExactOutcome;

// The acceptance-test order of set sweeps is the serial path's.
pub use hetrta_sched::acceptance::TestKind;
