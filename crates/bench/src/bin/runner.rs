//! `lotus-bench` — the unified scenario runner CLI.
//!
//! ```text
//! lotus-bench --list
//! lotus-bench --scenario bar-gossip --attack trade --format json
//! lotus-bench --scenario token --sweep altruism --curve "random-fraction,fraction=0.5"
//! lotus-bench --preset fig1 --quick
//! ```
//!
//! See [`lotus_bench::runner`] for the full grammar; `--preset NAME`
//! replays a paper figure or experiment (`table1`, `fig1`..`fig3`,
//! `ext_*`).

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match lotus_bench::runner::run_args(&args) {
        Ok(out) => print!("{out}"),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}
