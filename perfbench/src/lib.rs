//! # ira-perfbench
//!
//! The repository benchmark. Three workloads (`serve_mix`, `bigweb`,
//! `longlived`) run from one process; an untraced run prints the
//! end-to-end metrics, a traced run (`--trace 1`) prints the per-layer
//! ledger. Layers are timed from outside, at their public functions:
//! timing decorators go in through `ResearchAgent::from_services` and
//! the serve sink, everything else is replayed through public entry
//! points. No crate code is touched. End-to-end times are calibrated
//! against host-speed drift (`calib`). See `README.md` for the workload
//! rationale and the layer → metric predictions.

pub mod calib;
pub mod inputs;
pub mod ledger;
pub mod report;
pub mod session;
pub mod timed;
pub mod workloads;
