//! INFO and accuracy parity of the Cholesky kernels across routes, for
//! both `uplo` values and all four scalar types.
//!
//! Routes: the unblocked kernel called directly (`potf2`) and through
//! `potrf` below the crossover (n ∈ {1, 2, 7, 64, 128}); the blocked
//! right-looking `potrf` (n = 180, above the crossover); and the tile
//! DAG, forced by a scoped `tune::with` with a small `tile_nb`.
//!
//! Checks:
//! - the factor reproduces `A` to the LAPACK test ratio
//!   `‖UᴴU − A‖₁ / (n·‖A‖₁·eps) < 30` (resp. `LLᴴ`);
//! - a matrix whose first non-positive-definite leading minor is `k`
//!   returns `info = k` on every route, for k ∈ {1, 2, n/2, n};
//! - a NaN or +Inf placed in the stored triangle returns
//!   `info = max(i, j) + 1` on every route: the first pivot the
//!   non-finite value reaches, whether the kernel looks left or right;
//! - the diagonal of a complex `U` (and `L`) is exactly real.

use la_core::{tune, RealScalar, Scalar, Uplo, C32, C64};
use la_lapack as f77;

/// LAPACK's `THRESH`: a test ratio below this passes.
const THRESH: f64 = 30.0;

const UNBLOCKED: [usize; 5] = [1, 2, 7, 64, 128];
const BLOCKED: usize = 180;

#[derive(Clone, Copy, Debug)]
enum Route {
    Potf2,
    Potrf,
    Dag,
}

fn factor<T: Scalar>(route: Route, uplo: Uplo, n: usize, a: &mut [T]) -> i32 {
    match route {
        Route::Potf2 => f77::potf2(uplo, n, a, n),
        Route::Potrf => f77::potrf(uplo, n, a, n),
        Route::Dag => {
            let cfg = tune::TuneConfig {
                factor: tune::FactorAlgo::Dag,
                tile_nb: 16,
                max_threads: 2,
                oversubscribe: true,
                ..tune::TuneConfig::defaults()
            };
            tune::with(cfg, || f77::potrf(uplo, n, a, n))
        }
    }
}

/// Every (route, n) pair the suite covers: the unblocked sizes through
/// `potf2` and `potrf`, the blocked size through `potrf`, and the DAG at
/// sizes spanning several tiles.
fn cases() -> Vec<(Route, usize)> {
    let mut v = Vec::new();
    for n in UNBLOCKED {
        v.push((Route::Potf2, n));
        v.push((Route::Potrf, n));
    }
    v.push((Route::Potrf, BLOCKED));
    for n in [64, 128, BLOCKED] {
        v.push((Route::Dag, n));
    }
    v
}

struct Rng(u64);

impl Rng {
    fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 52) as f64 * 2.0 - 1.0
    }
    fn val<T: Scalar>(&mut self) -> T {
        let re = self.next_f64();
        let im = if T::IS_COMPLEX { self.next_f64() } else { 0.0 };
        T::from_re_im(T::Real::from_f64(re), T::Real::from_f64(im))
    }
}

/// Hermitian positive definite test matrix: `BᴴB + n·I`, both triangles
/// stored, diagonal exactly real.
fn hpd<T: Scalar>(rng: &mut Rng, n: usize) -> Vec<T> {
    let b: Vec<T> = (0..n * n).map(|_| rng.val()).collect();
    let mut a = vec![T::zero(); n * n];
    for j in 0..n {
        for i in 0..=j {
            let mut s = T::zero();
            for k in 0..n {
                s += b[k + i * n].conj() * b[k + j * n];
            }
            a[i + j * n] = s;
            a[j + i * n] = s.conj();
        }
        a[j + j * n] = T::from_real(a[j + j * n].re() + T::Real::from_f64(n as f64));
    }
    a
}

/// `‖F − A‖₁ / (n·‖A‖₁·eps)` with `F = UᴴU` (Upper) or `LLᴴ` (Lower),
/// read from the stored triangle of `f` only.
fn residual_ratio<T: Scalar>(uplo: Uplo, n: usize, a: &[T], f: &[T]) -> f64 {
    // Column-major accessor for the triangular factor T with A = TᴴT:
    // Upper stores T = U; Lower stores L = Tᴴ.
    let t = |i: usize, j: usize| -> T {
        match uplo {
            Uplo::Upper if i <= j => f[i + j * n],
            Uplo::Lower if i <= j => f[j + i * n].conj(),
            _ => T::zero(),
        }
    };
    let mut resid = 0.0f64;
    let mut anorm = 0.0f64;
    for j in 0..n {
        let mut rcol = 0.0;
        let mut acol = 0.0;
        for i in 0..n {
            let mut s = T::zero();
            for k in 0..=i.min(j) {
                s += t(k, i).conj() * t(k, j);
            }
            rcol += (s - a[i + j * n]).abs().to_f64();
            acol += a[i + j * n].abs().to_f64();
        }
        resid = resid.max(rcol);
        anorm = anorm.max(acol);
    }
    resid / (n as f64 * anorm * T::eps().to_f64())
}

fn accuracy<T: Scalar>() {
    let mut rng = Rng(7);
    for (route, n) in cases() {
        let a = hpd::<T>(&mut rng, n);
        for uplo in [Uplo::Upper, Uplo::Lower] {
            let mut f = a.clone();
            let info = factor(route, uplo, n, &mut f);
            assert_eq!(info, 0, "{} {route:?} {uplo:?} n={n}", T::PREFIX);
            let ratio = residual_ratio(uplo, n, &a, &f);
            assert!(
                ratio < THRESH,
                "{} {route:?} {uplo:?} n={n}: residual ratio {ratio:.2}",
                T::PREFIX
            );
            for j in 0..n {
                assert_eq!(
                    f[j + j * n].im(),
                    T::Real::zero(),
                    "{} {route:?} {uplo:?} n={n}: diagonal {j} not real",
                    T::PREFIX
                );
            }
        }
    }
}

fn indefinite_minor<T: Scalar>() {
    let mut rng = Rng(11);
    for (route, n) in cases() {
        let a = hpd::<T>(&mut rng, n);
        for k in [1, 2, n / 2, n] {
            if k == 0 || k > n {
                continue;
            }
            // A negative diagonal entry at k makes the k-th leading minor
            // the first indefinite one: its Schur complement is at most
            // a_kk < 0, while the minors before it are untouched.
            let mut bad = a.clone();
            bad[(k - 1) + (k - 1) * n] = -T::one();
            for uplo in [Uplo::Upper, Uplo::Lower] {
                let mut f = bad.clone();
                let info = factor(route, uplo, n, &mut f);
                assert_eq!(
                    info,
                    k as i32,
                    "{} {route:?} {uplo:?} n={n} k={k}",
                    T::PREFIX
                );
            }
        }
    }
}

fn non_finite<T: Scalar>() {
    let mut rng = Rng(13);
    let specials = [
        T::from_real(T::Real::nan()),
        T::from_real(T::Real::from_f64(f64::INFINITY)),
    ];
    for (route, n) in cases() {
        let a = hpd::<T>(&mut rng, n);
        // (p, q) with p <= q: the diagonal, the first row, an interior
        // entry and the last column.
        let mut spots = vec![(n / 2, n / 2), (0, n - 1)];
        if n >= 3 {
            spots.push((1, n / 2 + 1));
            spots.push((n - 2, n - 1));
        }
        for &(p, q) in &spots {
            for &x in &specials {
                for uplo in [Uplo::Upper, Uplo::Lower] {
                    let mut f = a.clone();
                    let (i, j) = match uplo {
                        Uplo::Upper => (p, q),
                        Uplo::Lower => (q, p),
                    };
                    f[i + j * n] = x;
                    let info = factor(route, uplo, n, &mut f);
                    assert_eq!(
                        info,
                        q as i32 + 1,
                        "{} {route:?} {uplo:?} n={n} {x:?} at ({i},{j})",
                        T::PREFIX
                    );
                }
            }
        }
    }
}

#[test]
fn residual_and_real_diagonal_all_four_types() {
    accuracy::<f32>();
    accuracy::<f64>();
    accuracy::<C32>();
    accuracy::<C64>();
}

#[test]
fn first_indefinite_minor_same_info_on_every_route() {
    indefinite_minor::<f32>();
    indefinite_minor::<f64>();
    indefinite_minor::<C32>();
    indefinite_minor::<C64>();
}

#[test]
fn nan_and_inf_same_info_on_every_route() {
    non_finite::<f32>();
    non_finite::<f64>();
    non_finite::<C32>();
    non_finite::<C64>();
}
