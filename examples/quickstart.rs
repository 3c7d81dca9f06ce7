//! Five-minute tour of the TSS library: define a partial order, load a few
//! tuples, compute the skyline progressively, and inspect the metrics.
//!
//! Run with: `cargo run --example quickstart`

use tss::core::{CostModel, SkylineCursor, Stss, StssConfig, Table};
use tss::poset::PartialOrderBuilder;

fn main() {
    // --- 1. A partially ordered attribute: laptop brand preference. ------
    // "thinkpad" beats both "mac" and "framework"; everything beats
    // "noname"; "mac" and "framework" are incomparable.
    let mut prefs = PartialOrderBuilder::new();
    prefs.values(["thinkpad", "mac", "framework", "noname"]);
    prefs.prefer("thinkpad", "mac").unwrap();
    prefs.prefer("thinkpad", "framework").unwrap();
    prefs.prefer("mac", "noname").unwrap();
    prefs.prefer("framework", "noname").unwrap();
    let brands = prefs.build().unwrap();
    let brand = |label: &str| brands.id_of(label).unwrap().0;

    // --- 2. Tuples: (price, weight_grams) totally ordered + the brand. ---
    let mut table = Table::new(2, 1);
    let laptops = [
        ("A", 1200, 1400, "thinkpad"),
        ("B", 900, 1900, "mac"),
        ("C", 900, 1900, "framework"),
        ("D", 850, 2100, "noname"),
        ("E", 1500, 1100, "mac"),
        ("F", 1200, 1500, "framework"),
        ("G", 700, 2400, "thinkpad"),
        ("H", 1600, 1300, "noname"),
    ];
    for (_, price, weight, b) in laptops {
        table.push(&[price, weight], &[brand(b)]);
    }

    // --- 3. Build the sTSS operator and pull the skyline off its cursor. -
    let stss = Stss::build(table, vec![brands], StssConfig::default()).expect("valid input");
    println!("skyline (streamed in mindist order):");
    let mut cursor = stss.cursor();
    while let Some(point) = cursor.next() {
        let name = laptops[point.record as usize].0;
        println!(
            "  #{:<2} {}  price={:<5} weight={:<5} brand={}",
            cursor.progress().results,
            name,
            point.to[0],
            point.to[1],
            laptops[point.record as usize].3,
        );
    }
    let metrics = cursor.metrics();

    // --- 4. Metrics under the paper's 5 ms/IO cost model. ----------------
    let model = CostModel::default();
    println!("\nmetrics:");
    println!("  results          : {}", metrics.results);
    println!("  dominance checks : {}", metrics.dominance_checks);
    println!("  page reads       : {}", metrics.io_reads);
    println!("  heap pops        : {}", metrics.heap_pops);
    println!("  simulated total  : {:?}", model.total_time(&metrics));
}
