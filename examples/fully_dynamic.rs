//! Fully dynamic skyline queries (§V-B): each query specifies *both* a
//! partial order per PO attribute and an ideal value per TO attribute.
//! Dominance is evaluated on the folded coordinates |x − ideal|, so "best"
//! means *closest to what this user asked for* — and the dTSS group trees
//! are still reused untouched.
//!
//! Run with: `cargo run --example fully_dynamic`

use tss::core::{Dtss, DtssConfig, PoQuery, Table};
use tss::poset::PartialOrderBuilder;

const APARTMENTS: [(&str, u32, u32, &str); 8] = [
    // (name, size m², floor, heating)
    ("A", 45, 1, "gas"),
    ("B", 70, 3, "heat-pump"),
    ("C", 70, 3, "oil"),
    ("D", 95, 5, "gas"),
    ("E", 55, 2, "heat-pump"),
    ("F", 80, 7, "oil"),
    ("G", 62, 3, "gas"),
    ("H", 88, 1, "heat-pump"),
];

fn main() {
    // Heating domain: fixed value ids shared by the data and every query.
    let heating_names = ["heat-pump", "gas", "oil"];
    let heating_id = |name: &str| heating_names.iter().position(|&n| n == name).unwrap() as u32;

    let mut table = Table::new(2, 1);
    for (_, size, floor, heating) in APARTMENTS {
        table.push(&[size, floor], &[heating_id(heating)]);
    }
    let dtss = Dtss::build(table, vec![3], DtssConfig::default()).unwrap();
    println!(
        "{} apartments in {} heating groups; each query below brings its own\n\
         heating preference AND its own ideal (size, floor).\n",
        APARTMENTS.len(),
        dtss.group_count()
    );

    let order = |prefs: &[(&str, &str)]| {
        let mut b = PartialOrderBuilder::new();
        b.values(heating_names);
        for &(x, y) in prefs {
            b.prefer(x, y).unwrap();
        }
        PoQuery::new(vec![b.build().unwrap()])
    };

    let scenarios = [
        (
            "Young couple: ~65 m², low floor, eco heating",
            order(&[("heat-pump", "gas"), ("gas", "oil")]),
            [65u32, 1u32],
        ),
        (
            "Family: ~90 m², ~3rd floor, no opinion on gas vs heat pump",
            order(&[("heat-pump", "oil"), ("gas", "oil")]),
            [90, 3],
        ),
        (
            "Investor: ~70 m², top floors, indifferent heating",
            order(&[]),
            [70, 7],
        ),
    ];

    for (who, q, ideal) in scenarios {
        let run = dtss.query(&q.with_reference(ideal.to_vec())).unwrap();
        let names: Vec<&str> = run
            .skyline
            .iter()
            .map(|p| APARTMENTS[p.record as usize].0)
            .collect();
        println!("{who}");
        println!(
            "  ideal (size, floor) = {ideal:?}  ->  skyline: {}  ({} groups dismissed)",
            names.join(", "),
            run.groups_skipped
        );
        for p in &run.skyline {
            let (name, size, floor, heating) = APARTMENTS[p.record as usize];
            println!(
                "    {name}: {size} m² (Δ{}), floor {floor} (Δ{}), {heating}",
                size.abs_diff(ideal[0]),
                floor.abs_diff(ideal[1])
            );
        }
        println!();
    }
}
