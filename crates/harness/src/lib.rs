//! # sdo-harness — experiment harness for the SDO reproduction
//!
//! Drives the simulator across the configurations of Table II and
//! regenerates every evaluation artifact of the paper:
//!
//! | artifact | entry point | binary |
//! |---|---|---|
//! | Table I (architecture) | [`config::SimConfig::table_i`] | `table1` |
//! | Table II (variants) | [`config::Variant`] | printed everywhere |
//! | Figure 6 (normalized execution time) | [`experiments::fig6_report`] | `fig6` |
//! | Figure 7 (overhead breakdown) | [`experiments::fig7_report`] | `fig7` |
//! | Figure 8 (squashes vs time) | [`experiments::fig8_report`] | `fig8` |
//! | Table III (precision/accuracy) | [`experiments::table3_report`] | `table3` |
//! | Penetration test (§VIII-A) | [`experiments::pentest`] | `pentest` (in `sdo-verify`) |
//!
//! Every simulation goes through one entry point, [`Simulator::run`],
//! driven by the canonical [`RunRequest`] type. Batches route through a
//! [`Runner`], which can execute locally, memoize into a
//! content-addressed [`store::ResultStore`], or submit to a running
//! `sdo-serve` daemon over the line-delimited JSON protocol in
//! [`proto`] (`--server`, `--store`, `--no-cache` on every bin).
//!
//! ## Example
//!
//! ```rust
//! use sdo_harness::{RunRequest, SimConfig, Simulator, Variant};
//! use sdo_uarch::AttackModel;
//! use sdo_workloads::kernels::l1_resident;
//!
//! let sim = Simulator::new(SimConfig::table_i());
//! let prog = l1_resident(200, 1);
//! let base = sim.run(&RunRequest::program(&prog)).unwrap().into_result();
//! let stt =
//!     sim.run(&RunRequest::program(&prog).variant(Variant::SttLd)).unwrap().into_result();
//! assert!(stt.cycles >= base.cycles);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cli;
pub mod config;
pub mod engine;
pub mod experiments;
pub mod export;
pub mod proto;
pub mod runner;
pub mod sim;
pub mod store;
pub mod table;

pub use config::{SimConfig, Variant};
pub use engine::{JobPool, Throughput};
pub use runner::Runner;
pub use sim::{RunOutput, RunRequest, RunResult, SimError, Simulator};
pub use store::{ResultStore, RunKey};
pub use sdo_isa::Program;
pub use sdo_uarch::AttackModel;
