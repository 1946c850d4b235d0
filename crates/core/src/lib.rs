#![warn(missing_docs)]

//! # DIBS: detour-induced buffer sharing — simulator core
//!
//! A from-scratch reproduction of *DIBS: Just-in-time Congestion
//! Mitigation for Data Centers* (EuroSys 2014). When a switch's output
//! buffer toward a packet's destination is full, instead of dropping the
//! packet the switch *detours* it out a random other switch-facing port,
//! temporarily borrowing buffer space from its neighbors. Paired with an
//! ECN-based congestion controller (DCTCP), this absorbs short incast
//! bursts nearly losslessly.
//!
//! This crate wires the substrates together into a runnable simulator:
//!
//! * [`Simulation`] — the event loop: topology, switches, host NICs,
//!   transports, workloads, metrics.
//! * [`SimConfig`] — Table 1/2 of the paper as data, with presets for
//!   DCTCP-baseline, DCTCP+DIBS, and pFabric.
//! * [`scenario`] — the description of one run (topology, scheme,
//!   traffic, faults, seed) and [`Scenario::build_with`], the one place a
//!   run is wired. `dibs-sim`, the `simtest` soak and every figure binary
//!   build through it.
//! * [`presets`] — the §5.2/§5.3 experiment setups as `Scenario` values.
//!
//! ## Quick start
//!
//! ```
//! use dibs::{presets, SimConfig};
//!
//! // The §5.2 incast: 5 senders x 10 flows x 32 KB into one receiver.
//! let sim = presets::testbed_incast(50, 32_000).build_with(SimConfig::dctcp_dibs());
//! let mut results = sim.unwrap().run();
//! assert_eq!(results.counters.total_drops(), 0, "DIBS is near-lossless");
//! let qct = results.qct_ms.percentile(1.0).unwrap();
//! assert!(qct < 60.0);
//! ```

mod arena;
pub mod audit;
pub mod config;
pub mod presets;
pub mod results;
pub mod rundesc;
pub mod scenario;
pub mod sim;

pub use config::{EcmpMode, PfcConfig, SimConfig, HOST_NIC_CAP};
pub use results::{FlowOutcome, QueryOutcome, RunDigest, RunResults};
pub use rundesc::RunDescriptor;
pub use scenario::Scenario;
pub use sim::Simulation;

// Re-exported so downstream binaries can configure tracing without
// depending on `dibs-trace` directly.
pub use dibs_trace::{TraceReport, TraceSpec, Tracer};

// Re-exported so downstream binaries can install fault schedules without
// depending on `dibs-fault` directly.
pub use dibs_fault::{FaultError, FaultPlan, FaultSpec};
