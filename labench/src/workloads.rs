//! The three workloads, each a seeded input pool plus the loop that feeds
//! it to the program. Every answer is checked outside the timed region;
//! factorization routes are chosen only through `la_core::tune::with`.

use std::time::{Duration, Instant};

use la_core::tune::{self, FactorAlgo};
use la_core::{LaError, Mat, TuneConfig, Uplo};
use la_lapack::{gesv_batch, posv_batch, GesvJob, PosvJob};

use crate::inputs::{Gen, Kind, Problem};
use crate::report::Metrics;
use crate::stats;
use crate::trace::Tracer;

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    SmallSolves,
    SmallBatch,
    LargeFactor,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SmallSolves,
        Workload::SmallBatch,
        Workload::LargeFactor,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SmallSolves => "small_solves",
            Workload::SmallBatch => "small_batch",
            Workload::LargeFactor => "large_factor",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Problems in the small workloads' pool: half general, half SPD, `n`
/// log-uniform in `SMALL_N`, `nrhs` alternating 1 and 2.
const SMALL_POOL: usize = 1024;
const SMALL_N: (usize, usize) = (4, 128);
/// Jobs per `gesv_batch` / `posv_batch` call in `small_batch`.
pub const BATCH: usize = 32;
/// Order of the `large_factor` systems; the pool holds this many general
/// and as many SPD systems.
pub const LARGE_N: usize = 1024;
const LARGE_PAIRS: usize = 2;
/// Order of the small workloads' cold set-up systems. Fixed, so that
/// `setup_s` does not depend on the seed.
const SETUP_N: usize = 32;

/// The workload's input pool, generated from the seed alone.
pub fn inputs(w: Workload, seed: u64) -> Vec<Problem> {
    let mut g = Gen::new(seed);
    match w {
        Workload::SmallSolves | Workload::SmallBatch => {
            let sizes = g.log_uniform_sizes(SMALL_POOL, SMALL_N.0, SMALL_N.1);
            small_pool(&mut g, &sizes)
        }
        Workload::LargeFactor => (0..2 * LARGE_PAIRS)
            .map(|i| {
                let kind = if i % 2 == 0 { Kind::General } else { Kind::Spd };
                g.problem(kind, LARGE_N, 1)
            })
            .collect(),
    }
}

/// The systems a cold set-up solves: one call of each op class, at a
/// shape that does not depend on the seed (`small_batch`: one batch of
/// each kind). Only the matrix values come from the seed.
pub fn setup_inputs(w: Workload, seed: u64) -> Vec<Problem> {
    let mut g = Gen::new(seed);
    let (n, per_kind) = match w {
        Workload::SmallSolves => (SETUP_N, 1),
        Workload::SmallBatch => (SETUP_N, BATCH),
        Workload::LargeFactor => (LARGE_N, 1),
    };
    [Kind::General, Kind::Spd]
        .into_iter()
        .flat_map(|k| std::iter::repeat(k).take(per_kind))
        .map(|k| g.problem(k, n, 1))
        .collect()
}

/// Pairs stratum `i` with its kind (general for even `i`, SPD for odd)
/// and `nrhs` (1, 1, 2, 2, ...), so both kinds see the same spread of
/// sizes, then shuffles.
fn small_pool(g: &mut Gen, sizes: &[usize]) -> Vec<Problem> {
    let mut specs: Vec<(Kind, usize, usize)> = sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let kind = if i % 2 == 0 { Kind::General } else { Kind::Spd };
            (kind, n, 1 + (i / 2) % 2)
        })
        .collect();
    g.shuffle(&mut specs);
    specs
        .into_iter()
        .map(|(k, n, r)| g.problem(k, n, r))
        .collect()
}

/// The compiled-in defaults with the factorization route chosen
/// explicitly. `large_factor` selects its routes with this through
/// `tune::with`; the other workloads run on the process configuration,
/// which equals the defaults once the inherited `LA_*` variables are
/// cleared, so they pay exactly what an ordinary caller pays.
pub fn route(factor: FactorAlgo) -> TuneConfig {
    TuneConfig {
        factor,
        ..TuneConfig::defaults()
    }
}

/// Counts and timings of one workload run.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    /// Jobs that returned an unexpected error or rejection, or a wrong
    /// answer.
    pub failed: u64,
    pub wrong: u64,
    pub solves: u64,
    pub flops: f64,
    /// Summed time of the timed calls, failed ones included.
    pub call_s: f64,
    /// One latency per call; failures count as infinitely late.
    pub lat_s: Vec<f64>,
    /// Further measurements for the result document.
    pub extra: Metrics,
}

impl Tally {
    /// Settles one job: `ok` says whether the call returned the expected
    /// status; the answer in `x` is then checked. Only a correct job
    /// counts in `solves` and `flops`. Returns whether it was correct.
    pub fn job(&mut self, p: &Problem, ok: bool, x: &[f64], ldx: usize) -> bool {
        self.attempted += 1;
        let right = ok && p.solved_by(x, ldx);
        if right {
            self.solves += 1;
            self.flops += p.flops() as f64;
        } else {
            self.failed += 1;
            self.wrong += u64::from(ok);
        }
        right
    }

    /// Records one timed call, whose jobs were all correct when `ok`.
    /// Its time counts against the rates either way.
    pub fn call(&mut self, secs: f64, ok: bool) {
        self.lat_s.push(if ok { secs } else { f64::INFINITY });
        self.call_s += secs;
    }

    /// The end-to-end metrics `BENCHMARK.json` lists (bar `setup_s`):
    /// correct solves and their flops over the summed call time, and the
    /// median call latency.
    pub fn e2e(&self) -> Result<Metrics, String> {
        if self.call_s <= 0.0 {
            return Err("no timed calls".into());
        }
        let sorted = stats::sorted(&self.lat_s);
        let p50 = stats::percentile(&sorted, 50.0).ok_or_else(|| {
            format!(
                "{} latency samples are too few for p50 (need {} beyond it)",
                sorted.len(),
                stats::MIN_BEYOND
            )
        })?;
        let mut m = Metrics::default();
        m.push("solves_per_s", self.solves as f64 / self.call_s, "1/s");
        m.push("gflops", self.flops / self.call_s / 1e9, "GF/s");
        m.push("latency_p50_ms", p50 * 1e3, "ms");
        Ok(m)
    }

    /// Adds the tail percentiles the sample supports, and its size, to
    /// the extras.
    fn extra_tail(&mut self) {
        let sorted = stats::sorted(&self.lat_s);
        for p in [90.0, 99.0, 99.9] {
            if let Some(v) = stats::percentile(&sorted, p) {
                self.extra.push(format!("latency_p{p}_ms"), v * 1e3, "ms");
            }
        }
        let n = sorted.len() as f64;
        self.extra.push("latency_samples", n, "count");
    }
}

/// Fresh copies of a problem's operands: the matrix and the right-hand
/// side that the driver overwrites with the solution.
pub fn fresh(p: &Problem) -> (Mat<f64>, Mat<f64>) {
    (p.a.clone(), p.b.clone())
}

/// The `la90` driver for the problem's kind. `x` holds `B` on entry and
/// `X` on return.
pub fn la90_solve(p: &Problem, a: &mut Mat<f64>, x: &mut Mat<f64>) -> Result<i32, LaError> {
    match p.kind {
        Kind::General => la90::gesv(a, x).map(|()| 0),
        Kind::Spd => la90::posv(a, x).map(|()| 0),
        Kind::Mixed => la90::gesv_mixed(a, &p.b, x),
    }
}

/// Runs the workload's measured loop for `seconds`. With a tracer, each
/// call is also recorded as a span; the caller sets the probe policy.
pub fn run(w: Workload, pool: &[Problem], seconds: f64, tr: Option<&mut Tracer>) -> Tally {
    match w {
        Workload::SmallSolves => {
            let seq: Vec<(&Problem, Option<FactorAlgo>)> = pool.iter().map(|p| (p, None)).collect();
            closed_loop(&seq, seconds, tr)
        }
        Workload::LargeFactor => {
            // Each problem runs the blocked route, then the DAG route.
            let seq: Vec<(&Problem, Option<FactorAlgo>)> = pool
                .iter()
                .flat_map(|p| [(p, Some(FactorAlgo::Blocked)), (p, Some(FactorAlgo::Dag))])
                .collect();
            closed_loop(&seq, seconds, tr)
        }
        Workload::SmallBatch => batch_loop(pool, seconds, tr),
    }
}

/// The `la90` call of one closed-loop step, on the given route if any.
pub fn routed_solve(
    p: &Problem,
    algo: Option<FactorAlgo>,
    a: &mut Mat<f64>,
    x: &mut Mat<f64>,
) -> Result<i32, LaError> {
    match algo {
        Some(f) => tune::with(route(f), || la90_solve(p, a, x)),
        None => la90_solve(p, a, x),
    }
}

/// One caller, one solve at a time, cycling through `seq` until the
/// first pass over it that ends after the deadline, so every call of the
/// sequence keeps its share of the time.
fn closed_loop(
    seq: &[(&Problem, Option<FactorAlgo>)],
    seconds: f64,
    mut tr: Option<&mut Tracer>,
) -> Tally {
    let mut t = Tally::default();
    // Warm-up: let lazy set-up and caches settle before timing.
    for &(p, algo) in seq.iter().take(32) {
        let (mut a, mut x) = fresh(p);
        let _ = routed_solve(p, algo, &mut a, &mut x);
    }
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    for (j, &(p, algo)) in seq.iter().cycle().enumerate() {
        if j % seq.len() == 0 && Instant::now() >= end {
            break;
        }
        let (mut a, mut x) = fresh(p);
        let t0 = Instant::now();
        let r = routed_solve(p, algo, &mut a, &mut x);
        let t1 = Instant::now();
        if let Some(tr) = tr.as_deref_mut() {
            tr.record("pass.call", j as u64, None, t0, t1);
        }
        let ok = t.job(p, r.is_ok(), x.as_slice(), x.lda());
        t.call((t1 - t0).as_secs_f64(), ok);
    }
    t.extra_tail();
    t
}

/// Batches of `BATCH` jobs of one kind, general and SPD alternating.
pub fn batches(pool: &[Problem]) -> Vec<Vec<&Problem>> {
    let of = |k: Kind| pool.iter().filter(move |p| p.kind == k).collect::<Vec<_>>();
    let (gen, spd) = (of(Kind::General), of(Kind::Spd));
    let (gen, spd) = (gen.chunks(BATCH), spd.chunks(BATCH));
    gen.zip(spd)
        .flat_map(|(g, s)| [g.to_vec(), s.to_vec()])
        .collect()
}

/// Solves one batch (all jobs of one kind) through the batch drivers and
/// returns the per-job INFO codes, the solutions and the call's time.
pub fn solve_batch(batch: &[&Problem]) -> (Vec<i32>, Vec<Mat<f64>>, Instant, Instant) {
    let mut a: Vec<Mat<f64>> = batch.iter().map(|p| p.a.clone()).collect();
    let mut x: Vec<Mat<f64>> = batch.iter().map(|p| p.b.clone()).collect();
    let t0;
    let infos;
    if batch[0].kind == Kind::Spd {
        let mut jobs: Vec<PosvJob<'_, f64>> = a
            .iter_mut()
            .zip(x.iter_mut())
            .map(|(a, x)| PosvJob {
                uplo: Uplo::Upper,
                n: a.nrows(),
                nrhs: x.ncols(),
                lda: a.lda(),
                ldb: x.lda(),
                a: a.as_mut_slice(),
                b: x.as_mut_slice(),
            })
            .collect();
        t0 = Instant::now();
        infos = posv_batch(&mut jobs);
    } else {
        let mut ipiv: Vec<Vec<i32>> = batch.iter().map(|p| vec![0; p.n()]).collect();
        let mut jobs: Vec<GesvJob<'_, f64>> = a
            .iter_mut()
            .zip(x.iter_mut())
            .zip(ipiv.iter_mut())
            .map(|((a, x), ipiv)| GesvJob {
                n: a.nrows(),
                nrhs: x.ncols(),
                lda: a.lda(),
                ldb: x.lda(),
                a: a.as_mut_slice(),
                b: x.as_mut_slice(),
                ipiv,
            })
            .collect();
        t0 = Instant::now();
        infos = gesv_batch(&mut jobs);
    }
    let t1 = Instant::now();
    (infos, x, t0, t1)
}

fn batch_loop(pool: &[Problem], seconds: f64, mut tr: Option<&mut Tracer>) -> Tally {
    let mut t = Tally::default();
    let batches = batches(pool);
    for b in batches.iter().take(2) {
        solve_batch(b);
    }
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    for (j, b) in batches.iter().cycle().enumerate() {
        if j % batches.len() == 0 && Instant::now() >= end {
            break;
        }
        let (infos, x, t0, t1) = solve_batch(b);
        if let Some(tr) = tr.as_deref_mut() {
            tr.record("pass.batch", j as u64, None, t0, t1);
        }
        let mut all_ok = true;
        for ((p, info), x) in b.iter().zip(&infos).zip(&x) {
            all_ok &= t.job(p, *info == 0, x.as_slice(), x.lda());
        }
        t.call((t1 - t0).as_secs_f64(), all_ok);
    }
    t.extra_tail();
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_are_seeded_and_mixed_as_specified() {
        let p = inputs(Workload::SmallSolves, 11);
        let q = inputs(Workload::SmallSolves, 11);
        assert_eq!(p.len(), SMALL_POOL);
        assert!(p
            .iter()
            .zip(&q)
            .all(|(x, y)| x.a.as_slice() == y.a.as_slice()));
        assert_eq!(
            p.iter().filter(|x| x.kind == Kind::Spd).count(),
            SMALL_POOL / 2
        );
        assert!(p.iter().all(|x| (4..=128).contains(&x.n())));
        let l = inputs(Workload::LargeFactor, 11);
        assert!(l.iter().all(|x| x.n() == LARGE_N && x.nrhs() == 1));
    }

    #[test]
    fn setup_shapes_do_not_depend_on_the_seed() {
        let shape = |w, seed| {
            setup_inputs(w, seed)
                .iter()
                .map(|p| (p.kind, p.n(), p.nrhs()))
                .collect::<Vec<_>>()
        };
        for w in Workload::ALL {
            assert_eq!(shape(w, 1), shape(w, 2));
        }
        let a = setup_inputs(Workload::SmallSolves, 1);
        let b = setup_inputs(Workload::SmallSolves, 2);
        assert_ne!(a[0].a.as_slice(), b[0].a.as_slice());
        assert_eq!(batches(&setup_inputs(Workload::SmallBatch, 1)).len(), 2);
    }

    #[test]
    fn failed_calls_cost_time_and_earn_nothing() {
        let p = Gen::new(4).problem(Kind::General, 8, 1);
        let (mut a, mut x) = fresh(&p);
        la90_solve(&p, &mut a, &mut x).unwrap();
        // Every `fail_every`-th call fails (none for 0).
        let run = |fail_every: usize| {
            let mut t = Tally::default();
            for i in 0..100 {
                // A failing call returns early, in a tenth of the time.
                let ok = fail_every == 0 || i % fail_every != 0;
                let ok = if ok {
                    t.job(&p, true, x.as_slice(), x.lda())
                } else {
                    t.job(&p, false, &[], 0)
                };
                t.call(if ok { 1e-3 } else { 1e-4 }, ok);
            }
            (t.e2e().unwrap(), t.failed)
        };
        let (clean, failed) = run(0);
        assert_eq!(failed, 0);
        let (some, failed) = run(4);
        assert_eq!(failed, 25);
        for name in ["solves_per_s", "gflops"] {
            assert!(some.get(name) < clean.get(name), "{name}");
        }
        // 75 correct solves over 75 ms + 2.5 ms.
        assert!((some.get("solves_per_s").unwrap() - 75.0 / 0.0775).abs() < 1e-6);
    }

    #[test]
    fn batches_hold_one_kind_each() {
        let p = inputs(Workload::SmallBatch, 3);
        let b = batches(&p);
        assert_eq!(b.len(), SMALL_POOL / BATCH);
        assert!(b
            .iter()
            .all(|b| b.len() == BATCH && b.iter().all(|p| p.kind == b[0].kind)));
        let (infos, x, _, _) = solve_batch(&b[1]);
        assert!(infos.iter().all(|&i| i == 0));
        assert!(b[1]
            .iter()
            .zip(&x)
            .all(|(p, x)| p.solved_by(x.as_slice(), x.lda())));
    }
}
