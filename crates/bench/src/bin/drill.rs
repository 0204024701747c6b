//! The availability drills, one checked run: every scenario of
//! [`hyrd_bench::drill::TABLE`] (or those named), its files written under
//! `target/experiments/`, its claims printed as a table; with `--check`,
//! each re-run across its worker and client grid and claimed
//! byte-identical. Exit status 1 if a claim fails, 2 on a usage error.
//!
//! Usage: `drill [--smoke] [--seed S] [--check] [SCENARIO ...]`

use hyrd_bench::drill;

fn main() {
    std::process::exit(drill::main(std::env::args().skip(1), drill::TABLE));
}
