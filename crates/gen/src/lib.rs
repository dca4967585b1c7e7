//! # hetrta-gen — random DAG task generators
//!
//! Reproduces the experimental workload of *Serrano & Quiñones, DAC 2018*
//! (Section 5.1): random DAG tasks generated "by recursively expanding nodes
//! either to terminal nodes or parallel sub-DAGs, until a maximum recursion
//! depth `maxdepth` is reached", with
//!
//! * `p_par` — probability of expanding into a parallel sub-DAG,
//! * `n_par` — maximum number of branches of a parallel sub-DAG,
//! * `n ∈ [n_min, n_max]` — accepted node-count range (rejection sampling),
//! * node WCETs uniform in `[C_min, C_max] = [1, 100]`,
//! * a uniformly chosen offloaded node `v_off` whose `C_off` is sized
//!   relative to the DAG volume.
//!
//! The crate provides:
//!
//! * [`NfjParams`] / [`generate_nfj`] — the paper's nested fork-join
//!   generator, with the paper's presets
//!   ([`NfjParams::small_tasks`], [`NfjParams::large_tasks`]);
//! * [`offload`] — turning a plain DAG into a [`HeteroDagTask`]
//!   (offload-node selection and `C_off` sizing policies);
//! * [`layered`] — an alternative layered generator used for robustness
//!   testing beyond the paper's workload;
//! * [`series`] — batch helpers for the experiment sweeps.
//!
//! ## Example
//!
//! ```
//! use hetrta_gen::{generate_nfj, NfjParams};
//! use hetrta_gen::offload::{make_hetero_task, CoffSizing, OffloadSelection};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = StdRng::seed_from_u64(7);
//! let dag = generate_nfj(&NfjParams::small_tasks(), &mut rng)?;
//! let task = make_hetero_task(
//!     dag,
//!     OffloadSelection::AnyInterior,
//!     CoffSizing::VolumeFraction(0.25),
//!     &mut rng,
//! )?;
//! let frac = task.offload_fraction().to_f64();
//! assert!((frac - 0.25).abs() < 0.1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
pub mod layered;
mod nfj;
pub mod offload;
pub mod openmp;
pub mod series;

pub use error::GenError;
pub use hetrta_dag::{Dag, HeteroDagTask, NodeId, Ticks};
pub use nfj::{generate_nfj, NfjParams};

/// Version of the task stream: which task each recipe (generator
/// parameters, seed, offload policy) realizes.
///
/// Engine job identities and sweep-journal hashes include it, so a disk
/// cache or journal written under another version reads as misses or is
/// refused instead of replaying tasks these generators no longer make.
/// A change that makes any recipe realize a different task (the NFJ draw
/// order, [`BatchSpec`](series::BatchSpec)'s per-task seeds, offload
/// selection) bumps it, and that one line is all the invalidation it
/// needs.
///
/// * 1: every NFJ attempt drew its whole expansion (identities and
///   journals hashed no version then).
/// * 2: an NFJ attempt ends once it passes `n_max` nodes.
pub const STREAM_VERSION: u32 = 2;
