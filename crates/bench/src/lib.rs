//! Shared helpers for the benchmark suite: deterministic test matrices of
//! every structure class, a deliberately naive reference GEMM used as the
//! "no blocking" baseline in the §1.1 experiments, a self-contained
//! SplitMix64 PRNG (no external `rand` — the suite must build offline),
//! a minimal wall-clock timing harness replacing criterion, the one
//! results format every sweep writes ([`report`]) and the CI gate that
//! reads it back ([`gate`]).

pub mod gate;
pub mod report;

use la_core::{Mat, RealScalar, Scalar};
use la_lapack::{lagge, spectrum, Dist, Larnv, SpectrumMode};

/// SplitMix64: tiny, deterministic, dependency-free PRNG for benchmark
/// data. Same stream on every host, so timings are comparable run to run.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seeds the stream; equal seeds give equal streams.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next raw 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 * 2.0 - 1.0
    }
}

/// Times `f` over `reps` repetitions and returns the *minimum* wall-clock
/// seconds per call (the usual low-noise estimator for single-threaded
/// kernels).
pub fn timeit<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = std::time::Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// A reproducible random general matrix with condition number ~100.
pub fn bench_matrix<T: Scalar>(n: usize, seed: u64) -> Mat<T> {
    let d = spectrum::<T::Real>(SpectrumMode::Geometric, n, T::Real::from_f64(100.0));
    let mut rng = Larnv::new(seed);
    Mat::from_col_major(n, n, lagge::<T>(&mut rng, n, n, &d))
}

/// A reproducible random Hermitian positive definite matrix.
pub fn bench_spd<T: Scalar>(n: usize, seed: u64) -> Mat<T> {
    let mut rng = Larnv::new(seed);
    let g: Mat<T> = Mat::from_fn(n, n, |_, _| rng.scalar(Dist::Normal));
    let mut a: Mat<T> = Mat::zeros(n, n);
    la_blas::gemm(
        la_core::Trans::ConjTrans,
        la_core::Trans::No,
        n,
        n,
        n,
        T::one(),
        g.as_slice(),
        n,
        g.as_slice(),
        n,
        T::zero(),
        a.as_mut_slice(),
        n,
    );
    for i in 0..n {
        a[(i, i)] += T::from_real(T::Real::from_usize(n));
    }
    a
}

/// A reproducible random Hermitian (indefinite) matrix.
pub fn bench_herm<T: Scalar>(n: usize, seed: u64) -> Mat<T> {
    let mut rng = Larnv::new(seed);
    let mut a: Mat<T> = Mat::zeros(n, n);
    for j in 0..n {
        for i in 0..=j {
            let v: T = if i == j {
                T::from_real(rng.real(Dist::Uniform11))
            } else {
                rng.scalar(Dist::Uniform11)
            };
            a[(i, j)] = v;
            a[(j, i)] = v.conj();
        }
    }
    a
}

/// The textbook three-loop GEMM with no blocking and the worst loop order
/// for column-major data — the "LINPACK-era memory access pattern" the
/// paper's §1.1 motivates against.
pub fn gemm_naive<T: Scalar>(m: usize, n: usize, k: usize, a: &[T], b: &[T], c: &mut [T]) {
    for i in 0..m {
        for j in 0..n {
            let mut s = T::zero();
            for l in 0..k {
                s += a[i + l * m] * b[l + j * k];
            }
            c[i + j * m] = s;
        }
    }
}

/// Right-hand side with known solution `x = (1, …, 1)ᵀ` (scaled per
/// column as in the paper's examples).
pub fn rowsum_rhs<T: Scalar>(a: &Mat<T>, nrhs: usize) -> Mat<T> {
    let (m, n) = a.shape();
    Mat::from_fn(m, nrhs, |i, j| {
        let mut s = T::zero();
        for kk in 0..n {
            s += a[(i, kk)];
        }
        s * T::from_f64((j + 1) as f64)
    })
}
