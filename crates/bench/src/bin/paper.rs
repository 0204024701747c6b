//! The paper's evaluation, regenerated and checked: every section of
//! [`hyrd_bench::paper`] with one PostMark seed, printed as Markdown
//! (EXPERIMENTS.md is this output), written to
//! `target/experiments/paper.json`, exit status 1 if any claim fails.
//!
//! Usage: `paper [--jobs N]` (`0`, the default, is one worker per core;
//! the output is identical for every value).

use hyrd_bench::{flag_usize, paper, write_json};

fn main() {
    let paper = paper::run(&paper::postmark(paper::SEED), flag_usize("jobs", 0));
    print!("{}", paper.markdown());
    write_json("paper", &paper);
    if !paper.holds() {
        std::process::exit(1);
    }
}
