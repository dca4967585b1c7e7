//! `hetrta-serve`: a multi-tenant analysis daemon over the shared
//! engine, dependency-free on top of `std::net`.
//!
//! One [`Server`] owns one [`Engine`](hetrta_engine::Engine) — one
//! worker pool, one disk cache, one metrics registry — and
//! serves many concurrent clients over a length-delimited,
//! checksummed binary protocol ([`proto`]). Admission control
//! ([`admission`]) bounds the pending queue with per-tenant round-robin
//! fairness and answers overload with a typed `Busy` reply instead of
//! buffering without bound. Client disconnects cancel their in-flight
//! sweeps; `Shutdown` (and SIGTERM on unix) drains admitted work before
//! exit. The blocking [`ServeClient`] and the saturation driver in
//! [`loadgen`] ship in the same crate so the protocol never has two
//! dialects.
//!
//! The one unsafe block in the workspace's non-shim crates lives here:
//! the SIGTERM latch in [`server`] (a `signal(2)` FFI call installing a
//! handler that performs a single atomic store).

#![deny(unsafe_code)] // allowed back in exactly one place: the SIGTERM latch
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admission;
pub mod client;
pub mod loadgen;
pub mod proto;
pub mod retry;
pub mod server;

pub use admission::{Admission, AdmissionConfig, Offer};
pub use client::{ClientError, ClientTimeouts, Progress, RemoteOutcome, ServeClient};
pub use loadgen::{LoadgenConfig, LoadgenReport};
pub use proto::{Reply, Request};
pub use retry::RetryPolicy;
pub use server::{ServeError, Server, ServerConfig, ShutdownHandle};
