//! CI performance gate: checks every suite's committed `BENCH_*.json`
//! baseline and fresh `BENCH_*.quick.json` sweep in the working directory
//! against the ratio rule and the bounds table of [`la_bench::gate`], and
//! exits non-zero if any check failed. It takes no arguments: every bound
//! is a constant in that table.

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("bench_gate takes no arguments; the bounds live in la_bench::gate::BOUNDS");
        std::process::exit(2);
    }
    if !la_bench::gate::run() {
        std::process::exit(1);
    }
}
