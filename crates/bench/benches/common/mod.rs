#![allow(dead_code)]

//! Shared setup for the Criterion benches: small, fixed-seed workloads
//! (Criterion measures algorithmic CPU; the IO-charged totals are the
//! harness binary's job) and prebuilt indexes so only the query phase is
//! timed.

use criterion::Criterion;
use datagen::{Distribution, ExperimentParams};
use sdc::{SdcConfig, SdcIndex, Variant};
use tss_core::{Stss, StssConfig};

/// Bench-scale cardinality (deliberately small; `harness` covers scale).
pub const BENCH_N: usize = 10_000;

/// Criterion tuned for short, stable runs.
pub fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
}

/// Static workload with the paper's §VI-B defaults, scaled.
pub fn static_params(dist: Distribution) -> ExperimentParams {
    let mut p = ExperimentParams::paper_static_default(dist, 42);
    p.n = BENCH_N;
    p.dag_height = 6; // keeps bench-scale skylines moderate
    p
}

/// Prebuilt sTSS operator for a parameter setting.
pub fn build_stss(p: &ExperimentParams, cfg: StssConfig) -> Stss {
    let w = bench::runner::generate(p);
    Stss::build(w.table, w.dags, cfg).expect("valid workload")
}

/// Prebuilt SDC-family index.
pub fn build_sdc(p: &ExperimentParams, variant: Variant) -> SdcIndex {
    let w = bench::runner::generate(p);
    SdcIndex::build(w.table, w.dags, variant, SdcConfig::default()).expect("valid workload")
}
