//! Progressiveness properties (§III-A, Fig. 11): sTSS is *optimally
//! progressive* — every emission happens the moment its point pops — while
//! SDC+ can only release non-exact strata at stratum boundaries. We assert
//! the paper's qualitative claim at test scale: SDC+ may keep pace while its
//! exact level-0 stratum streams, but once the stratified flushes start TSS
//! is strictly ahead, and TSS finishes on a fraction of SDC+'s total cost.

use tss::core::{CostModel, Metrics, ProgressSample, SkylineCursor, Stss, StssConfig, Table};
use tss::datagen::{gen_po_matrix, gen_to_matrix, Distribution, TupleConfig};
use tss::poset::generator::{subset_lattice, LatticeParams};
use tss::sdc::{SdcConfig, SdcIndex, Variant};

/// The paper's experiments run 100k–10M tuples against 4KB pages (capacity
/// ~145), giving trees several levels deep. These tests are scaled to a few
/// thousand tuples, so they shrink the node capacity alongside to preserve
/// the tree-depth ratio — with paper-sized pages a 4k-tuple tree is two
/// levels and every IO-curve assertion degenerates into coin flips.
const SCALED_CAPACITY: usize = 32;

fn stss_config() -> StssConfig {
    StssConfig {
        node_capacity: Some(SCALED_CAPACITY),
    }
}

fn sdc_config() -> SdcConfig {
    SdcConfig {
        node_capacity: Some(SCALED_CAPACITY),
    }
}

fn workload(n: usize, dist: Distribution, seed: u64) -> (Table, tss::poset::Dag) {
    let dag = subset_lattice(LatticeParams {
        height: 5,
        density: 0.8,
        seed,
    })
    .unwrap();
    let to = gen_to_matrix(TupleConfig {
        n,
        dims: 2,
        domain: 1000,
        dist,
        seed,
    });
    let po = gen_po_matrix(n, &[dag.len() as u32], seed + 7);
    (Table::from_parts(2, 1, to, po).unwrap(), dag)
}

/// Drains `cursor`, reading one progress sample per confirmation: the
/// emission timeline of Fig. 11, plus the run's final metrics.
fn timeline(mut cursor: impl SkylineCursor) -> (Vec<ProgressSample>, Metrics) {
    let mut samples = Vec::new();
    while cursor.next().is_some() {
        samples.push(cursor.progress());
    }
    (samples, cursor.metrics())
}

#[test]
fn stss_emits_before_completion() {
    let (table, dag) = workload(3000, Distribution::Independent, 11);
    let stss = Stss::build(table, vec![dag], stss_config()).unwrap();
    let (samples, metrics) = timeline(stss.cursor());
    assert!(samples.len() > 5, "need a non-trivial skyline");
    // The first result must arrive long before the run's total IO is spent.
    let first = samples.first().unwrap();
    assert!(
        first.io_reads * 4 <= metrics.io_reads,
        "first result after {} of {} reads",
        first.io_reads,
        metrics.io_reads
    );
    // One sample per result.
    assert_eq!(samples.len() as u64, metrics.results);
}

#[test]
fn stss_overtakes_sdc_plus_once_strata_defer() {
    let (table, dag) = workload(4000, Distribution::AntiCorrelated, 23);

    let stss = Stss::build(table.clone(), vec![dag.clone()], stss_config()).unwrap();
    let (t_samples, t_metrics) = timeline(stss.cursor());

    let idx = SdcIndex::build(table, vec![dag], Variant::SdcPlus, sdc_config()).unwrap();
    let (s_samples, s_metrics) = timeline(idx.cursor());

    // Same result cardinality (different order permitted).
    assert_eq!(t_samples.len(), s_samples.len());

    // Compare IO spent at the 90% emission mark (IO is the paper's dominant
    // cost; using it avoids wall-clock flakiness). At test scale SDC+ keeps
    // pace early — its exact stratum 0 holds over half the skyline and
    // streams from a tree smaller than TSS's — but by 90% it has paid for
    // the deferred stratum flushes and TSS is strictly ahead.
    let at = |fraction_num: u64| (t_samples.len() as u64 * fraction_num / 100) as usize;
    let tss_io_late = t_samples[at(90)].io_reads;
    let sdc_io_late = s_samples[at(90)].io_reads;
    assert!(
        tss_io_late < sdc_io_late,
        "TSS {tss_io_late} IOs vs SDC+ {sdc_io_late} IOs at 90% results"
    );

    // Total cost: TSS finishes the skyline on a fraction of SDC+'s IO …
    let tss_total = t_metrics.io_reads;
    let sdc_total = s_metrics.io_reads;
    assert!(
        tss_total * 3 <= sdc_total * 2,
        "TSS total {tss_total} IOs must undercut SDC+ {sdc_total} by at least a third"
    );

    // … and the simulated-time view used by Fig. 11 agrees at completion.
    let model = CostModel::default();
    let tss_t = t_samples.last().unwrap().elapsed_total(model);
    let sdc_t = s_samples.last().unwrap().elapsed_total(model);
    assert!(
        tss_t < sdc_t,
        "TSS {tss_t:?} vs SDC+ {sdc_t:?} at completion"
    );
}

#[test]
fn sdc_plus_releases_in_stratum_bursts() {
    // The signature "jumps" of Fig. 11: a non-exact stratum confirms its
    // candidates only at its boundary, so consecutive confirmations of one
    // flush share identical io_reads and dominance_checks. An exact
    // stratum's confirmations each follow at least one pair check.
    let (table, dag) = workload(3000, Distribution::Independent, 31);
    let idx = SdcIndex::build(table, vec![dag], Variant::SdcPlus, SdcConfig::default()).unwrap();
    let mut cursor = idx.cursor();
    let mut samples = Vec::new();
    while cursor.next().is_some() {
        samples.push(cursor.progress());
    }
    assert!(cursor.per_stratum().len() > 1, "need multiple strata");
    // At least one burst: two consecutive emissions with no read and no
    // pair check between them.
    let bursts = samples
        .windows(2)
        .filter(|w| {
            w[0].io_reads == w[1].io_reads && w[0].dominance_checks == w[1].dominance_checks
        })
        .count();
    assert!(bursts > 0, "expected stratum-boundary bursts");
}
