//! hetrta-fault: deterministic fault injection and durable record logs.
//!
//! Two halves of one robustness story:
//!
//! - [`FaultPlan`] — a seeded, site-keyed fault-injection plane. Hooks
//!   in the disk cache, wire codecs, and dist process management ask
//!   `plan.fires("site.name")`; the answer is a pure function of the
//!   seed and the site's trial count, so the same `--chaos SEED`
//!   reproduces the same fault sequence (and therefore the same
//!   recovery) run after run.
//! - [`RecordLog`] — an append-only, FNV-64 checksummed, atomically
//!   sealed segment log. The engine's sweep journal builds on it to
//!   make sweeps crash-safe: done jobs and aggregate keyframes are
//!   durable, and a torn tail from a crash costs at most the record
//!   in flight.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod plan;
mod record;

pub use plan::{FaultEvent, FaultPlan};
pub use record::{encode, escape, unescape, verify, RecordError, RecordLog};
