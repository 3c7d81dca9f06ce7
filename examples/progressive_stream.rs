//! Progressiveness head-to-head (Fig. 11): stream skyline points out of
//! sTSS and SDC+ on an anti-correlated workload and print when each
//! algorithm reaches 10%, 25%, 50%, 75% and 100% of the result set, under
//! the paper's 5 ms/IO cost model.
//!
//! Run with: `cargo run --release --example progressive_stream`

use tss::core::{CostModel, ProgressSample, SkylineCursor, Stss, StssConfig, Table};
use tss::datagen::{gen_po_matrix, gen_to_matrix, Distribution, TupleConfig};
use tss::poset::generator::{subset_lattice, LatticeParams};
use tss::sdc::{SdcConfig, SdcIndex, Variant};

fn main() {
    let n = 30_000;
    let dag = subset_lattice(LatticeParams {
        height: 6,
        density: 0.8,
        seed: 42,
    })
    .unwrap();
    let to = gen_to_matrix(TupleConfig {
        n,
        dims: 2,
        domain: 10_000,
        dist: Distribution::AntiCorrelated,
        seed: 42,
    });
    let po = gen_po_matrix(n, &[dag.len() as u32], 43);
    let table = Table::from_parts(2, 1, to, po).unwrap();
    println!(
        "workload: N={n}, anti-correlated, |V|={} (h=6, d=0.8)\n",
        dag.len()
    );

    // --- sTSS --------------------------------------------------------------
    // One progress sample per confirmation, read off the cursor as it drains.
    let stss = Stss::build(table.clone(), vec![dag.clone()], StssConfig::default()).unwrap();
    let mut tss = stss.cursor();
    let mut tss_samples: Vec<ProgressSample> = Vec::new();
    while tss.next().is_some() {
        tss_samples.push(tss.progress());
    }

    // --- SDC+ --------------------------------------------------------------
    let idx = SdcIndex::build(table, vec![dag], Variant::SdcPlus, SdcConfig::default()).unwrap();
    let mut sdc = idx.cursor();
    let mut sdc_samples: Vec<ProgressSample> = Vec::new();
    while sdc.next().is_some() {
        sdc_samples.push(sdc.progress());
    }

    assert_eq!(tss_samples.len(), sdc_samples.len());
    let total = tss_samples.len();
    println!(
        "skyline size: {total}  (SDC+ strata: {:?})\n",
        sdc.per_stratum()
    );

    let model = CostModel::default();
    let at = |samples: &[ProgressSample], frac: f64| {
        let ix = (((total as f64) * frac).ceil() as usize).clamp(1, total) - 1;
        samples[ix].elapsed_total(model)
    };
    println!("results retrieved | sTSS (simulated) | SDC+ (simulated)");
    println!("------------------+------------------+-----------------");
    for pct in [10, 25, 50, 75, 100] {
        let f = pct as f64 / 100.0;
        println!(
            "             {pct:>3}% | {:>15.3?} | {:>15.3?}",
            at(&tss_samples, f),
            at(&sdc_samples, f)
        );
    }
    println!(
        "\ntotals: sTSS {} reads / {} checks; SDC+ {} reads / {} checks",
        tss.metrics().io_reads,
        tss.metrics().dominance_checks,
        sdc.metrics().io_reads,
        sdc.metrics().dominance_checks
    );
}
