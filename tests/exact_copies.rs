//! Exact copies of skyline points on a skyline large enough that the
//! engines' key blocks index themselves.
//!
//! Copies of a skyline point are all skyline points: none t-dominates
//! another. An R-tree with a small node capacity puts some of them in
//! leaves of their own, whose low corner is the copied point's key, so an
//! MBB check that prunes on a tie with that corner, or a point check that
//! counts a tie as dominance, loses them. The skyline here holds several
//! hundred members, past the size at which a key block builds its
//! dimension index (256), so the copies are checked through it.

use tss::core::{
    brute_force_po_skyline, sharded_skyline_exec, Budget, Dtss, DtssConfig, ExecPolicy, Kernel,
    PoDomain, PoQuery, ShardSpec, Stss, StssConfig, Table,
};
use tss::datagen::{Distribution, ExperimentParams};

/// The smallest node capacity an R-tree takes: a run of three copies
/// always fills one leaf with copies alone.
const CAPACITY: usize = 2;

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

#[test]
fn exact_copies_survive_on_an_indexed_skyline() {
    // Anti-correlated 2 TO + 2 PO data (276 skyline points), then two more
    // copies of every skyline point.
    let mut p = ExperimentParams::paper_static_default(Distribution::AntiCorrelated, 7);
    p.n = 1000;
    p.dag_height = 4;
    let (base, dags) = p.materialize();
    let domains: Vec<PoDomain> = dags.iter().cloned().map(PoDomain::new).collect();
    let mut table = base.clone();
    for r in brute_force_po_skyline(&domains, &base) {
        for _ in 0..2 {
            table.push(base.to(r), base.po(r));
        }
    }
    let expect = sorted(brute_force_po_skyline(&domains, &table));
    assert!(expect.len() > 3 * 256, "skyline of {}", expect.len());

    let sizes: Vec<u32> = dags.iter().map(|d| d.len() as u32).collect();
    let stss_cfg = StssConfig {
        node_capacity: Some(CAPACITY),
    };
    for kernel in [Kernel::Scalar, Kernel::Lanes] {
        let table: Table = table.clone().with_kernel(kernel);

        let stss = Stss::build(table.clone(), dags.clone(), stss_cfg).unwrap();
        assert_eq!(
            sorted(stss.run().skyline_records()),
            expect,
            "{kernel:?}: sTSS"
        );

        let run = sharded_skyline_exec(
            &table,
            &domains,
            ShardSpec::Fixed(3),
            2,
            ExecPolicy::default(),
            Budget::UNLIMITED,
            |_, view| {
                let r = Stss::build(view.to_store(), dags.clone(), stss_cfg)
                    .unwrap()
                    .run();
                (r.skyline_records(), r.metrics)
            },
        )
        .unwrap();
        assert_eq!(sorted(run.records), expect, "{kernel:?}: sharded sTSS");

        for precompute_local in [false, true] {
            let cfg = DtssConfig {
                node_capacity: Some(CAPACITY),
                precompute_local,
            };
            let dtss = Dtss::build(table.clone(), sizes.clone(), cfg).unwrap();
            let got = dtss.query(&PoQuery::new(dags.clone())).unwrap();
            assert_eq!(
                sorted(got.skyline_records()),
                expect,
                "{kernel:?}: dTSS {cfg:?}"
            );
        }
    }
}
