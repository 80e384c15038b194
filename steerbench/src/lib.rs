//! # steerbench — the end-to-end steering benchmark
//!
//! Four seeded workloads ([`workload`]) run through the public
//! `gridsteer_harness::Scenario::run` for the end-to-end metrics, and
//! through a traced replay ([`replay`]) of the same engine loop for the
//! per-layer metrics. Every run's report is checked ([`check`]); the
//! invocation logic lives in [`bench`]. See `README.md` in this directory
//! for the metric glossary and how to run it.

pub mod bench;
pub mod check;
pub mod cli;
pub mod host;
pub mod replay;
pub mod trace;
pub mod workload;
