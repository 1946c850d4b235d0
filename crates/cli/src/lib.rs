#![warn(missing_docs)]

//! Scenario-driven runner for the DIBS simulator.
//!
//! The `dibs-sim` binary reads a JSON scenario (topology + scheme +
//! workloads + faults), runs it, and prints a text summary or JSON report:
//!
//! ```text
//! dibs-sim scenario.json
//! dibs-sim --json scenario.json > report.json
//! dibs-sim --compare scenario.json     # run under dctcp / dctcp_dibs / pfabric
//! ```
//!
//! See [`scenario::Scenario`] for the file format; it lives in the core
//! crate and is re-exported here.

pub mod report;

pub use dibs::scenario;
pub use report::Report;
pub use scenario::{Scenario, Scheme, TopologySpec, WorkloadSpec};
