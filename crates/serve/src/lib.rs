//! # ira-serve
//!
//! The resilient multi-tenant serve layer: a long-running front-end
//! that accepts investigation requests as JSONL and multiplexes them
//! across a bounded worker pool fed by the [`ira_engine::Engine`]'s
//! shared corpus cache.
//!
//! The paper's vision is an *interactive* agent investigators query
//! during a live incident, so the contract here is robustness first:
//!
//! - [`admission`] — deterministic admission control: a
//!   [`TokenBucket`](ira_simnet::ratelimit::TokenBucket) over a
//!   synthetic arrival clock plus a fixed-lane queue model. Overload
//!   produces typed `serve.overloaded` rejections within one virtual
//!   tick, never unbounded queueing.
//! - [`server`] — per-request virtual-time deadlines with cooperative
//!   cancellation (partial, `degraded: true` results), `catch_unwind`
//!   panic isolation, and seeded full-jitter retry of transient
//!   session faults.
//! - [`protocol`] — the JSONL request/response wire format.
//!
//! Determinism carries over from the rest of the workspace: identical
//! request batches produce byte-identical response transcripts and
//! traces regardless of worker count or interleaving, and every
//! request lands in the causal trace tree as a `serve.request` span
//! enclosing admission, queue wait, and session execution.
//!
//! Live telemetry rides the same contract: the server keeps a
//! sliding-window SLO ledger ([`ira_obs::LiveStats`]) fed at intake
//! and merge time — both single-threaded, in request order — so the
//! snapshot returned by a [`RequestKind::Stats`] control-plane request
//! (or [`Server::live_snapshot`]) is byte-identical at any worker
//! count; and an always-on [`ira_obs::FlightRecorder`] sink captures a
//! bounded per-session window of recent events, frozen to a JSONL
//! post-mortem dump whenever a request panics, sheds, or misses its
//! deadline.

pub mod admission;
pub mod protocol;
pub mod server;

pub use admission::{Admission, AdmissionConfig, AdmissionController, ShedReason};
pub use protocol::{
    parse_request_lines, parse_requests, parse_responses, render_responses, QuizConclusion,
    RequestKind, ResponsePayload, ResponseStatus, ServeRequest, ServeResponse,
};
pub use server::{line_slo_sample, nominal_cost, slo_sample, RetrySpec, ServeConfig, Server};
