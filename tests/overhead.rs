//! Release-mode guards on fixed per-call costs of the small-solve path
//! (the small-n side of the paper's Fig. 3: the interface should cost
//! little over the kernel underneath it).
//!
//! Each check compares the median cost of an entry point with the median
//! cost of the cheaper operation it should stay close to, measured in the
//! same process, so host speed cancels out of the ratio. Every test is
//! `#[ignore]`d: timings are only meaningful in an optimised build.
//!
//! ```sh
//! cargo test --release --features simd --test overhead -- --ignored
//! ```

use std::hint::black_box;
use std::time::Instant;

use la_core::{tune, Diag, Side, Trans, Uplo};

/// Timed samples per measurement (the median is taken over these).
const SAMPLES: usize = 301;

/// Median over [`SAMPLES`] samples of the per-call time of `f`, in ns.
/// Each sample times `reps` back-to-back calls, so calls far shorter
/// than a clock read are still resolved.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..reps * 10 {
        f();
    }
    let mut t: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..reps {
                f();
            }
            t0.elapsed().as_nanos() as f64 / reps as f64
        })
        .collect();
    t.sort_by(f64::total_cmp);
    t[SAMPLES / 2]
}

fn assert_ratio(what: &str, num: f64, den: f64, bound: f64) {
    let ratio = num / den;
    println!("{what}: {num:.1} ns / {den:.1} ns = {ratio:.2} (bound {bound})");
    assert!(
        ratio <= bound,
        "{what}: {num:.1} ns is {ratio:.1}x the reference {den:.1} ns (bound {bound}x)"
    );
}

/// A well-conditioned, diagonally dominant n×n system and its LU factors.
fn lu_system(n: usize) -> (Vec<f64>, Vec<i32>, Vec<f64>) {
    let mut a: Vec<f64> = (0..n * n)
        .map(|k| ((k * 7919 % 1009) as f64 / 1009.0) - 0.5)
        .collect();
    for i in 0..n {
        a[i + i * n] += n as f64;
    }
    let mut ipiv = vec![0i32; n];
    assert_eq!(la_lapack::getrf(n, n, &mut a, n, &mut ipiv), 0);
    let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 / n as f64).collect();
    (a, ipiv, b)
}

#[test]
#[ignore = "timing guard: run in release with --ignored"]
fn thread_budget_costs_no_more_than_a_config_read() {
    let cfg = tune::TuneConfig::defaults();
    let threads = median_ns(1000, || {
        black_box(black_box(&cfg).threads());
    });
    let current = median_ns(1000, || {
        black_box(tune::current());
    });
    assert_ratio(
        "TuneConfig::threads vs tune::current",
        threads,
        current,
        10.0,
    );
}

#[test]
#[ignore = "timing guard: run in release with --ignored"]
fn getrs_n16_within_8x_two_trsv() {
    let n = 16;
    let (lu, ipiv, b0) = lu_system(n);
    let mut b = b0.clone();
    let getrs = median_ns(50, || {
        b.copy_from_slice(&b0);
        la_lapack::getrs(Trans::No, n, 1, black_box(&lu), n, &ipiv, &mut b, n);
        black_box(&b);
    });
    let two_trsv = median_ns(50, || {
        b.copy_from_slice(&b0);
        la_blas::trsv(
            Uplo::Lower,
            Trans::No,
            Diag::Unit,
            n,
            black_box(&lu),
            n,
            &mut b,
            1,
        );
        la_blas::trsv(
            Uplo::Upper,
            Trans::No,
            Diag::NonUnit,
            n,
            black_box(&lu),
            n,
            &mut b,
            1,
        );
        black_box(&b);
    });
    assert_ratio("getrs n=16 nrhs=1 vs two trsv", getrs, two_trsv, 8.0);
}

#[test]
#[ignore = "timing guard: run in release with --ignored"]
fn one_column_trsm_n16_within_8x_trsv() {
    let n = 16;
    let (lu, _, b0) = lu_system(n);
    let mut b = b0.clone();
    let trsm = median_ns(50, || {
        b.copy_from_slice(&b0);
        la_blas::trsm(
            Side::Left,
            Uplo::Upper,
            Trans::No,
            Diag::NonUnit,
            n,
            1,
            1.0,
            black_box(&lu),
            n,
            &mut b,
            n,
        );
        black_box(&b);
    });
    let trsv = median_ns(50, || {
        b.copy_from_slice(&b0);
        la_blas::trsv(
            Uplo::Upper,
            Trans::No,
            Diag::NonUnit,
            n,
            black_box(&lu),
            n,
            &mut b,
            1,
        );
        black_box(&b);
    });
    assert_ratio("trsm n=16 one column vs trsv", trsm, trsv, 8.0);
}
