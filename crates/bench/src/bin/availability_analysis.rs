//! Availability analysis — the quantity in the paper's title, computed.
//!
//! Closed-form and Monte Carlo read availability of every redundancy
//! layout in the repository, across realistic provider availability
//! levels (2013-era outage reports put commercial clouds around 99.9 %,
//! with bad years dipping lower — §I/§II-A).

use hyrd_bench::header;
use hyrd_costsim::availability::{
    at_least_k_of_n, erasure_availability, hyrd_availability, monte_carlo_k_of_n, nines,
    replication_availability,
};

fn main() {
    header("Read availability by scheme (closed form)");
    println!(
        "{:<18} {:>12} {:>12} {:>12} {:>12}",
        "scheme", "p=0.99", "p=0.995", "p=0.999", "p=0.9995"
    );
    let ps = [0.99, 0.995, 0.999, 0.9995];
    type Availability = fn(f64) -> f64;
    let rows: [(&str, Availability); 8] = [
        ("single cloud", |p| p),
        ("DuraCloud (r=2)", |p| replication_availability(p, 2)),
        ("DepSky (r=4)", |p| replication_availability(p, 4)),
        ("RACS RAID5(3+1)", |p| erasure_availability(p, 3, 4)),
        ("NCCloud RS(2,4)", |p| erasure_availability(p, 2, 4)),
        ("HyRD small tier", |p| replication_availability(p, 2)),
        ("HyRD large tier", |p| erasure_availability(p, 3, 4)),
        ("HyRD (88% small)", |p| hyrd_availability(p, 2, 3, 4, 0.88)),
    ];
    for (name, f) in &rows {
        print!("{name:<18}");
        for &p in &ps {
            print!(" {:>12.3}", nines(f(p)));
        }
        println!();
    }
    println!("(values are 'nines': 3.0 = 99.9% available)");

    header("Monte Carlo cross-check (MTBF 30 days, MTTR 6 h -> p≈0.9917)");
    let (mtbf, mttr) = (720.0, 6.0);
    let p = mtbf / (mtbf + mttr);
    let horizon = 1_000_000.0;
    println!("{:<18} {:>14} {:>14} {:>10}", "layout", "closed form", "Monte Carlo", "delta");
    for (name, k, n) in [
        ("any 1 of 2", 1u64, 2u64),
        ("any 1 of 4", 1, 4),
        ("any 3 of 4", 3, 4),
        ("any 2 of 4", 2, 4),
    ] {
        let cf = at_least_k_of_n(p, k, n);
        let mc = monte_carlo_k_of_n(k, n, mtbf, mttr, horizon, 0xA11).available;
        println!("{:<18} {:>14.6} {:>14.6} {:>10.6}", name, cf, mc, (cf - mc).abs());
    }

    header("The paper's design argument, in nines (p = 0.999 per provider)");
    let p = 0.999;
    println!(
        "single cloud: {:.2} nines -> HyRD: {:.2} nines  ({}x less unavailability)",
        nines(p),
        nines(hyrd_availability(p, 2, 3, 4, 0.88)),
        ((1.0 - p) / (1.0 - hyrd_availability(p, 2, 3, 4, 0.88))).round()
    );
    println!("=> redundant distribution turns cloud outages into non-events,");
    println!("   and the hybrid keeps that while paying erasure-coded prices.");
}
