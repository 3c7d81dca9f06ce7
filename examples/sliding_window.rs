//! Sliding-window skyline maintenance over a housing stream — the classic
//! streaming-skyline demo (a random-housing feed with per-city prices),
//! with the partially ordered twist this paper adds: *city* is a PO
//! attribute under a buyer's preference DAG, not a number.
//!
//! 100 houses arrive one by one; only the 40 freshest stay live
//! (a count-based sliding window). Every arrival updates the maintained
//! skyline incrementally — an insert screens the newcomer against the
//! current skyline, a window eviction of a skyline member triggers a
//! bounded delta *repair* instead of a recompute — and snapshot cursors
//! serve consistent reads at any point, stamped with the store epoch they
//! saw.
//!
//! Run with: `cargo run --example sliding_window`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tss::core::{
    brute_force_po_skyline, PoDomain, SkylineCursor, StreamingConfig, StreamingSkyline, Table,
    WindowPolicy,
};
use tss::poset::PartialOrderBuilder;

/// Mean price per m² in each city.
const CITY_PRICES: [(&str, f64); 3] =
    [("Bordeaux", 4045.0), ("Lyon", 4547.0), ("Toulouse", 3278.0)];

/// Sizes are scored as `SIZE_CAP - size` so that *bigger is better* under
/// the engine's smaller-is-better totally ordered dominance.
const SIZE_CAP: u32 = 500;

const WINDOW: usize = 40;
const ARRIVALS: usize = 100;

/// ~N(0,1) via the sum of 12 uniforms (Irwin–Hall) — good enough for a
/// demo stream, and fully deterministic under the seeded generator.
fn gauss(rng: &mut StdRng) -> f64 {
    (0..12).map(|_| rng.gen::<f64>()).sum::<f64>() - 6.0
}

fn main() {
    // The buyer's partial order on cities: Bordeaux preferred over Lyon,
    // Toulouse incomparable to both — exactly what a total order cannot
    // express and the paper's t-dominance can.
    let mut b = PartialOrderBuilder::new();
    b.values(CITY_PRICES.map(|(name, _)| name));
    b.prefer("Bordeaux", "Lyon").unwrap();
    let dag = b.build().unwrap();
    let city_id: Vec<u32> = CITY_PRICES
        .iter()
        .map(|(name, _)| dag.id_of(name).unwrap().0)
        .collect();

    let mut s = StreamingSkyline::new(
        2,
        vec![PoDomain::new(dag)],
        StreamingConfig {
            window: WindowPolicy::Count(WINDOW),
        },
    );

    let mut rng = StdRng::seed_from_u64(42);
    println!("streaming {ARRIVALS} houses through a {WINDOW}-house sliding window\n");
    for i in 0..ARRIVALS {
        let city = rng.gen_range(0..CITY_PRICES.len());
        let size = (200.0 + 50.0 * gauss(&mut rng)).round().clamp(60.0, 400.0) as u32;
        let price = (rng.gen_range(0.8..1.2) * CITY_PRICES[city].1 * size as f64).round() as u32;
        s.insert(&[price, SIZE_CAP - size], &[city_id[city]]);

        if (i + 1) % 25 == 0 {
            // A snapshot cursor: owns its points and the epoch it saw, so
            // later inserts/expiries can never invalidate the read.
            let cursor = s.cursor();
            println!(
                "after {:3} arrivals: {:2} live houses, skyline {:2} (snapshot @ epoch {})",
                i + 1,
                s.live_len(),
                cursor.len(),
                cursor.generation()
            );
        }
    }

    println!("\nmaintained skyline of the {WINDOW} freshest houses:");
    let mut cursor = s.cursor();
    while let Some(p) = cursor.next() {
        let city = CITY_PRICES
            .iter()
            .zip(&city_id)
            .find(|&(_, &id)| id == p.po[0])
            .map(|((name, _), _)| *name)
            .unwrap();
        println!(
            "  {:9} {:3} m²  {:7} EUR",
            city,
            SIZE_CAP - p.to[1],
            p.to[0]
        );
    }

    let m = s.metrics();
    println!(
        "\nmaintenance: {} inserts, {} expirations, {} member repairs \
         ({} candidates screened, {} dominance checks total)",
        m.stream_inserts,
        m.stream_expirations,
        m.stream_repairs,
        m.repair_candidates,
        m.dominance_checks
    );

    // The whole point of delta maintenance: the maintained skyline is
    // byte-identical to a from-scratch recompute of the surviving window.
    let mut window = Table::new(2, 1);
    for id in s.store().live_ids() {
        window.push(s.store().to(id), s.store().po(id));
    }
    let recomputed = brute_force_po_skyline(s.domains(), &window);
    assert_eq!(recomputed.len(), s.skyline_records().len());
    println!(
        "cross-check: from-scratch recompute of the window agrees ({} points)",
        recomputed.len()
    );
}
