//! The `e2e-floor` step of `scripts/check.sh`: reads one run of
//! `benchmark/run.sh --workload W` on stdin and exits non-zero unless its
//! last line clears [`fl_bench::gate::e2e`].
//!
//! ```text
//! bash benchmark/run.sh --workload fleet_des --seed 1 --seconds 2 --trace 0 |
//!     cargo run --release -q -p fl-bench --bin e2e_floor -- fleet_des
//! ```

fn main() {
    let workload = std::env::args().nth(1).unwrap_or_default();
    let run = std::io::read_to_string(std::io::stdin()).unwrap_or_default();
    match fl_bench::gate::e2e(&workload, run.lines().last().unwrap_or_default()) {
        Ok(()) => println!("e2e-floor {workload}: ok"),
        Err(why) => {
            eprintln!("e2e-floor {workload}: {why}");
            std::process::exit(1);
        }
    }
}
