//! # hetrta-dist — multi-process sharded sweep backend with worker
//! # fault tolerance
//!
//! One coordinator, N worker processes, one bitwise-deterministic
//! aggregate. The coordinator ([`run_distributed`]) deterministically
//! shards a [`SweepSpec`](hetrta_engine::SweepSpec)'s job expansion
//! across the fleet ([`shard::shard_indices`]), workers run their
//! indices through the ordinary engine
//! ([`Engine::run_job_subset`](hetrta_engine::Engine::run_job_subset))
//! and stream results back over the workspace's checksummed frame
//! layer ([`protocol`]), and the coordinator merges them through the
//! engine's [`SweepDriver`](hetrta_engine::SweepDriver) — the same
//! journal, dedup and expansion-ordered aggregation path every local
//! sweep takes — so `--workers 8` produces *bitwise* the aggregate of a
//! single-process run.
//!
//! Robustness is the coordinator's job: per-worker heartbeats with a
//! configurable timeout, crash/disconnect detection, exponential
//! back-off respawn, and idempotent re-dispatch of a dead worker's
//! unfinished shard (the driver drops duplicates). Workers pointed
//! at one `--cache-dir` share a disk-cache namespace, so a cell warmed
//! by any fleet member never recomputes anywhere.
//!
//! The crate is dependency-free beyond the workspace: sockets are
//! `std::net`, processes are `std::process`, and everything is
//! instrumented through `hetrta-obs` (per-worker lanes, `dist.*`
//! counters for jobs, re-dispatches, respawns, and bytes tx/rx).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod coordinator;
pub mod protocol;
pub mod shard;
pub mod worker;

pub use coordinator::{
    run_distributed, DistConfig, DistOutcome, DistProgress, Launch, WorkerLauncher,
};
pub use protocol::{DistMsg, WireJobResult};
pub use shard::{parse_shard, shard_indices};
pub use worker::{run_worker, WorkerConfig};

use hetrta_api::wire::WireError;
use hetrta_engine::EngineError;

/// What can go wrong in a distributed sweep.
#[derive(Debug, Clone, PartialEq)]
pub enum DistError {
    /// The fleet configuration is unusable.
    Config(String),
    /// Socket or process trouble.
    Io(String),
    /// A frame-layer defect (corruption, version skew, malformed
    /// payload).
    Wire(WireError),
    /// The spec failed validation, or a job failed on a worker.
    Engine(EngineError),
    /// A shard cannot complete: its worker died, the respawn budget is
    /// spent, and no live worker remains to take the orphaned jobs.
    WorkersLost(String),
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Config(msg) => write!(f, "dist config: {msg}"),
            DistError::Io(msg) => write!(f, "dist i/o: {msg}"),
            DistError::Wire(e) => write!(f, "dist wire: {e}"),
            DistError::Engine(e) => write!(f, "dist engine: {e}"),
            DistError::WorkersLost(msg) => write!(f, "workers lost: {msg}"),
        }
    }
}

impl std::error::Error for DistError {}

impl From<WireError> for DistError {
    fn from(e: WireError) -> Self {
        DistError::Wire(e)
    }
}

impl From<EngineError> for DistError {
    fn from(e: EngineError) -> Self {
        DistError::Engine(e)
    }
}
