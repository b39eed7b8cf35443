//! `isa-serve` — a resident quality/Pareto query service over the
//! speculative-adder evaluation engine.
//!
//! The experiment binaries (`crates/experiments`) run one sweep and
//! exit; every invocation re-synthesizes and re-simulates from scratch.
//! This crate turns the same [`isa_engine::Engine`] into a long-lived
//! front end that answers small questions cheaply and repeatedly:
//!
//! * *"What is the quality of design `8,2,1,4` at 20% clock-period
//!   reduction on the Sobel kernel?"* — the `quality` op;
//! * *"What is the cheapest paper design meeting 30 dB at this clock?"*
//!   — the `cheapest` op.
//!
//! Requests and responses are line-delimited JSON over stdin/stdout or a
//! Unix socket ([`service::serve_lines`] / [`service::serve_unix`]); the
//! JSON codec is [`isa_obs::json`], hand-rolled because the workspace
//! takes no external dependencies.
//!
//! The design centre of gravity is **robustness**, in four layers:
//!
//! 1. [`store`] — a checksummed, content-addressed on-disk result store;
//!    corrupt or torn records are detected, logged and recomputed, never
//!    served;
//! 2. [`service`] — request coalescing, bounded artifact LRU, per-request
//!    cost budgets with tiered degradation, and `catch_unwind` isolation
//!    so a panicking evaluation fails one request, not the process;
//! 3. [`queue`] — bounded admission with deterministic load shedding;
//! 4. [`faults`] — a seeded fault-injection plan driving the chaos
//!    battery that proves all of the above under injected store I/O
//!    errors, torn writes, evaluation panics and stalls.
//!
//! Everything the service serves is deterministic: the same query yields
//! byte-identical result payloads whether answered hot (store),
//! coalesced (shared in-flight computation) or cold (simulation).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod proto;
pub mod queue;
pub mod service;
pub mod store;

pub use faults::{FaultPlan, FaultPoint};
pub use isa_obs::Json;
pub use proto::{parse_request, Envelope, Request, WorkloadSel};
pub use queue::BoundedQueue;
pub use service::{serve_lines, Frontend, ServeConfig, Service};
pub use store::{ResultStore, StoreGet};

#[cfg(unix)]
pub use service::serve_unix;

/// Renders a `catch_unwind` payload as text (panics carry `&str` or
/// `String` in practice; anything else gets a fixed description).
#[must_use]
pub fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}
