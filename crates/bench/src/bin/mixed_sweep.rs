//! Mixed-precision refinement sweep: times the `DSGESV`-lineage drivers
//! (`gesv_mixed` / `posv_mixed`) against their plain full-precision
//! counterparts across sizes — the f32 factorization with working and
//! with double-double residuals — and emits `BENCH_mixed.json` in the
//! current directory.
//!
//! The benchmark matrices are well-conditioned (condition ~100), so the
//! low-precision path must converge (`iter ≥ 0`) — the sweep asserts it
//! on every timed run; a fallback would silently time the wrong
//! algorithm.
//!
//! Besides the timing rows, the sweep records the `dd_hilbert` accuracy
//! section: the componentwise backward error `gesvxx` (double-double
//! residual refinement) achieves on the n = 12 Hilbert system, which
//! `bench_gate` holds at ≤ 4ε in both the baseline and the quick run.
//!
//! `--quick` shrinks the sweep for CI (n = 512 only, still best-of-3)
//! and writes `BENCH_mixed.quick.json`, leaving the checked-in baseline
//! untouched; the `bench_gate` binary compares the two and additionally
//! floors the baseline's mixed-over-full and double-double speedups at
//! n ≥ 1024.

use la_bench::report::{host_cores, quick_flag, Report, Row};
use la_bench::{bench_matrix, bench_spd, timeit};
use la_core::tune::{self, RefineMode};
use la_core::{Mat, Uplo};
use la_lapack as f77;

/// Times one `gesv_mixed` run in the given residual mode.
fn time_gesv_mixed(
    n: usize,
    reps: usize,
    gen: &Mat<f64>,
    b: &[f64],
    refine: RefineMode,
) -> (f64, i32) {
    let cfg = tune::TuneConfig {
        refine,
        ..tune::current()
    };
    tune::with(cfg, || {
        let mut last_iter = 0i32;
        let ms = timeit(reps, || {
            let mut a = gen.clone();
            let mut x = vec![0.0f64; n];
            let mut ipiv = vec![0i32; n];
            let mut iter = 0i32;
            assert_eq!(
                f77::gesv_mixed(
                    n,
                    1,
                    a.as_mut_slice(),
                    n,
                    &mut ipiv,
                    b,
                    n,
                    &mut x,
                    n,
                    &mut iter
                ),
                0
            );
            assert!(
                iter >= 0,
                "bench matrix must take the mixed path at {refine:?} (iter={iter})"
            );
            last_iter = iter;
            x
        }) * 1e3;
        (ms, last_iter)
    })
}

/// Componentwise backward error of `x` for `A·x = b`, residual measured
/// in double-double so the measurement is trustworthy at ε.
fn comp_berr(n: usize, a: &Mat<f64>, b: &[f64], x: &[f64]) -> f64 {
    let mut berr = 0.0f64;
    for i in 0..n {
        let mut acc = la_core::dd::Dd::from_f64(b[i]);
        let mut denom = b[i].abs();
        for k in 0..n {
            acc = acc.fma_acc(-a[(i, k)], x[k]);
            denom += (a[(i, k)] * x[k]).abs();
        }
        if denom > 0.0 {
            berr = berr.max(acc.to_f64().abs() / denom);
        }
    }
    berr
}

fn mixed_row(op: &str, n: usize, ms: f64, iter: i32) -> Row {
    Row {
        iter: Some(iter.max(0) as usize),
        ..Row::new(op, n, ms)
    }
}

fn main() {
    let quick = quick_flag();
    let cores = host_cores();
    let mode = if quick { " (quick)" } else { "" };
    println!("== mixed_sweep{mode}: {cores} core(s) ==");

    let reps = 3;
    let sizes: &[usize] = if quick { &[512] } else { &[256, 512, 1024] };

    let mut rows: Vec<Row> = Vec::new();
    for &n in sizes {
        let gen: Mat<f64> = bench_matrix(n, 3);
        let spd: Mat<f64> = bench_spd(n, 9);
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();

        // Plain full-precision LU solve.
        let ms = timeit(reps, || {
            let mut a = gen.clone();
            let mut bx = b.clone();
            let mut ipiv = vec![0i32; n];
            assert_eq!(
                f77::gesv(n, 1, a.as_mut_slice(), n, &mut ipiv, &mut bx, n),
                0
            );
            bx
        }) * 1e3;
        println!("gesv_full   n={n:5}  {ms:9.2} ms");
        rows.push(mixed_row("gesv_full", n, ms, 0));

        // Mixed: f32 factorization + f64 refinement, with working and
        // with double-double residuals. Must converge.
        for (op, refine) in [
            ("gesv_mixed", RefineMode::Working),
            ("gesv_mixed_dd", RefineMode::Dd),
        ] {
            let (ms, iter) = time_gesv_mixed(n, reps, &gen, &b, refine);
            println!("{op:<11} n={n:5}  {ms:9.2} ms  (iter={iter})");
            rows.push(mixed_row(op, n, ms, iter));
        }

        // Plain full-precision Cholesky solve.
        let ms = timeit(reps, || {
            let mut a = spd.clone();
            let mut bx = b.clone();
            assert_eq!(
                f77::posv(Uplo::Lower, n, 1, a.as_mut_slice(), n, &mut bx, n),
                0
            );
            bx
        }) * 1e3;
        println!("posv_full   n={n:5}  {ms:9.2} ms");
        rows.push(mixed_row("posv_full", n, ms, 0));

        let mut last_iter = 0i32;
        let ms = timeit(reps, || {
            let mut a = spd.clone();
            let mut x = vec![0.0f64; n];
            let mut iter = 0i32;
            assert_eq!(
                f77::posv_mixed(
                    Uplo::Lower,
                    n,
                    1,
                    a.as_mut_slice(),
                    n,
                    &b,
                    n,
                    &mut x,
                    n,
                    &mut iter
                ),
                0
            );
            assert!(iter >= 0, "bench SPD matrix must take the mixed path");
            last_iter = iter;
            x
        }) * 1e3;
        println!("posv_mixed  n={n:5}  {ms:9.2} ms  (iter={last_iter})");
        rows.push(mixed_row("posv_mixed", n, ms, last_iter));
    }

    // --- Emit JSON ----------------------------------------------------
    let mut report = Report::new("mixed", quick, &[]);
    report.rows("mixed_sweep", &rows);
    let time = |op: &str, n: usize| rows.iter().find(|r| r.op == op && r.n == n).map(|r| r.ms);
    let speedups = |over: &'static str, key: &'static str, full: &'static str| {
        sizes
            .iter()
            .filter_map(move |&n| match (time(full, n), time(over, n)) {
                (Some(f), Some(m)) if m > 0.0 => Some((format!("{key}_{n}"), f / m)),
                _ => None,
            })
    };
    // Headline: end-to-end mixed speedup over the plain driver.
    report.map(
        "speedup_mixed_vs_full",
        speedups("gesv_mixed", "gesv", "gesv_full").chain(speedups(
            "posv_mixed",
            "posv",
            "posv_full",
        )),
    );
    // Speedup of the double-double residual loop over the plain
    // full-precision driver (the price of the extended residuals).
    report.map(
        "speedup_lattice_vs_full",
        speedups("gesv_mixed_dd", "gesv_dd", "gesv_full"),
    );
    // Accuracy row for the gate: componentwise backward error of the
    // extra-precise (double-double residual) gesvxx on the n = 12
    // Hilbert system — must stay ≤ 4ε.
    {
        let n = 12;
        let hil: Mat<f64> = Mat::from_fn(n, n, |i, j| 1.0 / (i + j + 1) as f64);
        let bh: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let mut ah = hil.clone();
        let mut xh = vec![0.0f64; n];
        la90::gesvxx(&mut ah, &bh, &mut xh).expect("gesvxx on Hilbert");
        let berr = comp_berr(n, &hil, &bh, &xh);
        println!(
            "dd_hilbert  n={n:5}  comp berr {berr:.3e}  (4eps = {:.3e})",
            4.0 * f64::EPSILON
        );
        let j = report.json();
        j.key("dd_hilbert");
        j.begin_obj();
        j.field_uint("n", n as u64);
        j.field_num("berr", berr);
        j.end_obj();
    }
    report.write();
}
