//! Benchmark harness for the TSS reproduction: workload construction,
//! algorithm runners, and paper-style reporting for every figure of §VI.
//!
//! Two entry points:
//!
//! * the `harness` binary (`cargo run --release -p bench --bin harness -- all`)
//!   regenerates every figure as a text table, one subcommand per figure;
//! * the Criterion benches (`cargo bench`) time what no table times, on
//!   scaled workloads: sTSS against the BBS+/SDC/SDC+ ladder, the
//!   dominance kernel and the merge.
//!
//! Scales: the paper sweeps cardinalities up to 10M tuples on 2009 disks.
//! The default sweeps here are laptop-sized (see [`params`]); set
//! `TSS_FULL_SCALE=1` to restore the paper's Table III values.

#![forbid(unsafe_code)]

pub mod ipcbench;
pub mod jsonbench;
pub mod params;
pub mod report;
pub mod runner;
pub mod streambench;
