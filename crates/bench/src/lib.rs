//! `orca-bench` — the experiment harness for §7.
//!
//! One binary per figure (see DESIGN.md §3), plus the benchmark of record:
//!
//! | target                   | reproduces |
//! |--------------------------|------------|
//! | `fig12`                  | Figure 12 — Orca vs Planner speed-up per query (TPC-DS) |
//! | `fig13`                  | Figure 13 — HAWQ vs Impala speed-up |
//! | `fig14`                  | Figure 14 — HAWQ vs Stinger speed-up |
//! | `fig15`                  | Figure 15 — per-engine query support counts |
//! | `optstats`               | §7.2.2 — optimization time & memory footprint |
//! | `stages`                 | §4.1 ablation — multi-stage optimization |
//! | `taqo`                   | §6.2 — cost-model accuracy score |
//! | `e2e_bench`              | wall clock, SQL text → TCP service → last row frame, seven workloads (its own README) |
//!
//! The figure harnesses run on the simulated cluster; reported times are
//! *simulated* seconds (deterministic), so shapes are reproducible on any
//! machine. `e2e_bench` is the only wall-clock benchmark.

pub mod report;
pub mod runner;

pub use runner::{BenchEnv, QueryOutcome};
