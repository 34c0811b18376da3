//! Seeded inputs. Everything a workload feeds the program is generated
//! here, before any timing, from the `--seed` argument alone; the program
//! under test sees only the generated matrices.
//!
//! Sizes are drawn log-uniformly but *stratified*: the `i`-th of `count`
//! draws falls in the `i`-th equal slice of the log range, and the list is
//! then shuffled. Each seed thus gets its own matrices, order and jitter,
//! while the size mix — which sets the cost of a pass — barely moves from
//! seed to seed.

use la_core::Mat;
use la_lapack::{Dist, Larnv};

/// Largest accepted `ratio` of [`la_verify::solve_ratio_raw`], the
/// scaled residual `‖B − A·X‖₁ / (‖A‖₁·‖X‖₁·ε)`. 30 is the LAPACK test
/// suite's threshold for the same ratio (`xGET02`).
pub const SOLVE_RATIO_MAX: f64 = 30.0;

/// Which driver family a problem belongs to.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    /// General matrix: `gesv` (LU with partial pivoting).
    General,
    /// Symmetric positive definite matrix: `posv` (Cholesky).
    Spd,
    /// General matrix solved by the mixed-precision driver `gesv_mixed`.
    Mixed,
}

/// One linear system `A·X = B`.
#[derive(Clone, Debug)]
pub struct Problem {
    pub kind: Kind,
    pub a: Mat<f64>,
    pub b: Mat<f64>,
}

impl Problem {
    pub fn n(&self) -> usize {
        self.a.nrows()
    }

    pub fn nrhs(&self) -> usize {
        self.b.ncols()
    }

    /// Useful flops of the solve, from the closed-form LAPACK counts of
    /// the factorization and the triangular solves.
    pub fn flops(&self) -> u64 {
        use la_core::probe::flops;
        let (n, nrhs) = (self.n(), self.nrhs());
        match self.kind {
            Kind::General | Kind::Mixed => flops::getrf(n, n) + flops::getrs(n, nrhs),
            Kind::Spd => flops::potrf(n) + flops::potrs(n, nrhs),
        }
    }

    /// Whether `x` solves the system: finite, and within
    /// [`SOLVE_RATIO_MAX`] in the scaled residual.
    pub fn solved_by(&self, x: &[f64], ldx: usize) -> bool {
        let (n, nrhs) = (self.n(), self.nrhs());
        if x.len() < ldx * nrhs || !x.iter().take(ldx * nrhs).all(|v| v.is_finite()) {
            return false;
        }
        let b = &self.b;
        let ratio = la_verify::solve_ratio_raw(
            n,
            nrhs,
            self.a.as_slice(),
            self.a.lda(),
            x,
            ldx,
            b.as_slice(),
            b.lda(),
        );
        ratio.is_finite() && ratio <= SOLVE_RATIO_MAX
    }
}

/// The seeded stream every generator draws from.
pub struct Gen {
    rng: Larnv,
}

impl Gen {
    pub fn new(seed: u64) -> Self {
        Gen {
            rng: Larnv::new(seed),
        }
    }

    fn unit(&mut self) -> f64 {
        self.rng.real(Dist::Uniform01)
    }

    /// Uniform index in `0..len`.
    pub fn index(&mut self, len: usize) -> usize {
        ((self.unit() * len as f64) as usize).min(len.saturating_sub(1))
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.index(i + 1);
            v.swap(i, j);
        }
    }

    /// `count` stratified log-uniform sizes in `lo..=hi`, in stratum order
    /// (callers shuffle after pairing them with other attributes).
    pub fn log_uniform_sizes(&mut self, count: usize, lo: usize, hi: usize) -> Vec<usize> {
        let (l0, l1) = ((lo as f64).ln(), ((hi + 1) as f64).ln());
        (0..count)
            .map(|i| {
                let u = (i as f64 + self.unit()) / count as f64;
                ((l0 + u * (l1 - l0)).exp() as usize).clamp(lo, hi)
            })
            .collect()
    }

    fn uniform_mat(&mut self, m: usize, n: usize) -> Mat<f64> {
        Mat::from_col_major(m, n, self.rng.vec::<f64>(Dist::Uniform11, m * n))
    }

    /// A problem of the given kind: a uniform (−1, 1) general matrix, or a
    /// symmetric one made positive definite by a dominant diagonal, with a
    /// uniform (−1, 1) right-hand side.
    pub fn problem(&mut self, kind: Kind, n: usize, nrhs: usize) -> Problem {
        let mut a = self.uniform_mat(n, n);
        if kind == Kind::Spd {
            for j in 0..n {
                for i in 0..j {
                    a[(j, i)] = a[(i, j)];
                }
                a[(j, j)] = n as f64 + a[(j, j)].abs();
            }
        }
        let b = self.uniform_mat(n, nrhs);
        Problem { kind, a, b }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let p = Gen::new(7).problem(Kind::Spd, 9, 2);
        let q = Gen::new(7).problem(Kind::Spd, 9, 2);
        assert_eq!(p.a.as_slice(), q.a.as_slice());
        assert_eq!(p.b.as_slice(), q.b.as_slice());
        let r = Gen::new(8).problem(Kind::Spd, 9, 2);
        assert_ne!(p.a.as_slice(), r.a.as_slice());
    }

    #[test]
    fn stratified_sizes_cover_the_range_evenly() {
        let s = Gen::new(3).log_uniform_sizes(1000, 4, 128);
        assert!(s.iter().all(|&n| (4..=128).contains(&n)));
        // Half the log range lies below sqrt(4 * 129) ~ 22.7.
        let below = s.iter().filter(|&&n| n <= 22).count();
        assert!((480..=520).contains(&below), "{below}");
    }

    #[test]
    fn solved_by_accepts_the_solution_and_rejects_garbage() {
        let p = Gen::new(1).problem(Kind::General, 12, 2);
        let mut a = p.a.clone();
        let mut x = p.b.clone();
        la90::gesv(&mut a, &mut x).unwrap();
        assert!(p.solved_by(x.as_slice(), x.lda()));
        x[(3, 1)] += 1.0;
        assert!(!p.solved_by(x.as_slice(), x.lda()));
        x[(3, 1)] = f64::NAN;
        assert!(!p.solved_by(x.as_slice(), x.lda()));
    }
}
