//! The traced run: per-layer metrics from timing calls into each layer's
//! public functions.
//!
//! 1. The workload's own loop, once untraced and once with a span per
//!    call and `ProbePolicy::Counters` on; the two give the tracing
//!    overhead, and `probe::snapshot()` the call and flop counts.
//! 2. A layer replay over a sample of the workload's inputs: each input
//!    goes through the serve round trip, then the `la90` driver, then the
//!    raw `la_lapack` factor and solve, then the `la_blas` triangular
//!    solves those issue. Each step is a span whose parent is the step one
//!    layer up, so a layer's self time is its time minus its children's.
//! 3. Fixed-shape probes, seeded like the inputs: the small-`n` ladder of
//!    driver / solve / triangular-solve costs, the `n = 1024` GEMM and
//!    factorization rates, a 512-job batch, and the `la_core` per-call
//!    helpers.

use std::hint::black_box;
use std::time::Instant;

use la_core::probe::{self, Layer, ProbePolicy};
use la_core::tune::{self, FactorAlgo};
use la_core::{Diag, Mat, Side, Trans, TuneConfig, Uplo};
use la_serve::{JobSpec, ServeConfig, Service, SolveOp};

use crate::inputs::{Gen, Kind, Problem};
use crate::report::Metrics;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{self, Tally, Workload};

/// Share of the run spent on each of the two workload passes.
const PASS_SHARE: f64 = 0.3;
/// Inputs replayed layer by layer (all of them for `large_factor`).
const REPLAY_JOBS: usize = 96;
/// Orders of the small-`n` probe ladder.
pub const LADDER_N: [usize; 6] = [4, 8, 16, 32, 64, 128];

pub struct Traced {
    pub metrics: Metrics,
    pub extra: Metrics,
    pub tally: Tally,
    pub tracer: Tracer,
}

pub fn traced(w: Workload, seed: u64, pool: &[Problem], seconds: f64) -> Traced {
    let mut tr = Tracer::new();
    let mut m = Metrics::default();
    let mut extra = Metrics::default();

    // 1. Untraced and traced workload passes.
    let pass = PASS_SHARE * seconds;
    let plain = workloads::run(w, pool, pass, None);
    probe::reset();
    let traced = probe::with_policy(ProbePolicy::Counters, || {
        workloads::run(w, pool, pass, Some(&mut tr))
    });
    let snap = probe::snapshot();
    let p50 = |t: &Tally| stats::percentile(&stats::sorted(&t.lat_s), 50.0).unwrap_or(f64::NAN);
    m.push(
        "trace.overhead_pct",
        (p50(&traced) / p50(&plain) - 1.0) * 100.0,
        "%",
    );
    let solves = traced.solves.max(1) as f64;
    let (mut blas_calls, mut lapack_calls, mut blas_flops) = (0u64, 0u64, 0u64);
    for r in &snap.counters {
        match r.layer {
            Layer::Blas => {
                blas_calls += r.calls;
                blas_flops += r.flops;
            }
            Layer::Lapack => lapack_calls += r.calls,
            Layer::Driver => {}
        }
    }
    m.push(
        "probe.blas_calls_per_solve",
        blas_calls as f64 / solves,
        "count",
    );
    m.push(
        "probe.lapack_calls_per_solve",
        lapack_calls as f64 / solves,
        "count",
    );
    m.push(
        "probe.blas_mflop_per_solve",
        blas_flops as f64 / solves / 1e6,
        "Mflop",
    );

    let mut tally = plain;
    tally.attempted += traced.attempted;
    tally.failed += traced.failed;
    tally.wrong += traced.wrong;

    // 2. Layer replay of the workload's own inputs.
    let take = if w == Workload::LargeFactor {
        pool.len()
    } else {
        REPLAY_JOBS
    };
    let sample: Vec<&Problem> = pool.iter().take(take).collect();
    replay(&sample, &mut tr, &mut tally, &mut m);

    // 3. Fixed-shape probes.
    core_probes(&mut m);
    ladder_probes(seed, &mut tally, &mut m);
    large_probes(seed, &mut tally, &mut m);
    batch_probe(seed, &mut tally, &mut m);

    extra.push(
        "fail_ratio",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        "ratio",
    );
    extra.push("wrong_answers", tally.wrong as f64, "count");
    extra.push("spans", tr.spans().len() as f64, "count");
    Traced {
        metrics: m,
        extra,
        tally,
        tracer: tr,
    }
}

/// Medians of the durations and self times of the spans named `name`.
fn span_medians(tr: &Tracer, self_ns: &[i64], name: &str) -> (f64, f64) {
    let mut dur = Vec::new();
    let mut own = Vec::new();
    for (s, &o) in tr.spans().iter().zip(self_ns) {
        if s.name == name {
            dur.push(s.dur_ns() as f64);
            own.push(o as f64);
        }
    }
    (
        stats::median(&mut dur).unwrap_or(f64::NAN),
        stats::median(&mut own).unwrap_or(f64::NAN),
    )
}

/// Solves with the two triangular factors of `lu` (from `getrf`, pivots
/// already applied to `x`) or `u` (from `potrf`, upper) by `trsm`, one
/// call per factor: the calls `getrs`/`potrs` issue.
fn trsm_pair(kind: Kind, n: usize, nrhs: usize, f: &[f64], x: &mut [f64]) {
    let (first, t1, d1) = match kind {
        Kind::Spd => (Uplo::Upper, Trans::Trans, Diag::NonUnit),
        _ => (Uplo::Lower, Trans::No, Diag::Unit),
    };
    la_blas::trsm(Side::Left, first, t1, d1, n, nrhs, 1.0, f, n, x, n);
    la_blas::trsm(
        Side::Left,
        Uplo::Upper,
        Trans::No,
        Diag::NonUnit,
        n,
        nrhs,
        1.0,
        f,
        n,
        x,
        n,
    );
}

/// The same solves by `trsv`, column by column: the simple alternative.
fn trsv_pair(kind: Kind, n: usize, nrhs: usize, f: &[f64], x: &mut [f64]) {
    let (first, t1, d1) = match kind {
        Kind::Spd => (Uplo::Upper, Trans::Trans, Diag::NonUnit),
        _ => (Uplo::Lower, Trans::No, Diag::Unit),
    };
    for c in x.chunks_mut(n).take(nrhs) {
        la_blas::trsv(first, t1, d1, n, f, n, c, 1);
        la_blas::trsv(Uplo::Upper, Trans::No, Diag::NonUnit, n, f, n, c, 1);
    }
}

fn serve_op(kind: Kind) -> SolveOp {
    match kind {
        Kind::General => SolveOp::Gesv,
        Kind::Spd => SolveOp::Posv(Uplo::Upper),
        Kind::Mixed => SolveOp::GesvMixed,
    }
}

/// One serve round trip of `p` as `kind`, recorded as span `name`;
/// the refinement iterations of a mixed-precision answer go to `iters`.
#[allow(clippy::too_many_arguments)]
fn serve_once(
    svc: &Service<f64>,
    tr: &mut Tracer,
    t: &mut Tally,
    iters: &mut Vec<f64>,
    name: &'static str,
    j: u64,
    p: &Problem,
    kind: Kind,
) -> usize {
    let spec = JobSpec::new(serve_op(kind), p.a.clone(), p.b.clone());
    let (r, s) = tr.time(name, j, None, || svc.submit(spec).and_then(|h| h.wait()));
    match &r {
        Ok(out) => {
            if kind == Kind::Mixed {
                iters.push(f64::from(out.iter));
            }
            t.job(p, true, out.x.as_slice(), out.x.lda());
        }
        Err(_) => {
            t.job(p, false, &[], 0);
        }
    }
    s
}

/// Submits a few jobs of each kind in `sample` and waits for them, so the
/// service's lazy set-up is done before timing.
fn warm_service(svc: &Service<f64>, sample: &[&Problem]) {
    for kind in [Kind::General, Kind::Spd, Kind::Mixed] {
        let base = if kind == Kind::Mixed {
            Kind::General
        } else {
            kind
        };
        for p in sample.iter().filter(|p| p.kind == base).take(8) {
            let spec = JobSpec::new(serve_op(kind), p.a.clone(), p.b.clone());
            if let Ok(h) = svc.submit(spec) {
                let _ = h.wait();
            }
        }
    }
}

fn replay(sample: &[&Problem], tr: &mut Tracer, t: &mut Tally, m: &mut Metrics) {
    // The service captures this thread's policies, probe policy included.
    let svc = Service::start(ServeConfig::default());
    warm_service(&svc, &sample[..sample.len().min(24)]);
    let mut iters = Vec::new();
    for (j, p) in sample.iter().enumerate() {
        let (n, nrhs, j) = (p.n(), p.nrhs(), j as u64);
        let reps = if n >= 512 { 1 } else { 3 };
        for _ in 0..reps {
            if p.kind != Kind::Mixed {
                let s = serve_once(&svc, tr, t, &mut iters, "serve", j, p, p.kind);
                let (mut a, mut x) = workloads::fresh(p);
                let (r, d) = tr.time("la90", j, Some(s), || {
                    workloads::la90_solve(p, &mut a, &mut x)
                });
                t.job(p, r.is_ok(), x.as_slice(), x.lda());
                // Raw factor, then solve on those factors.
                let (mut f, mut x) = workloads::fresh(p);
                let mut ipiv = vec![0i32; n];
                let (info_f, _) = tr.time("lapack.factor", j, Some(d), || match p.kind {
                    Kind::Spd => la_lapack::potrf(Uplo::Upper, n, f.as_mut_slice(), n),
                    _ => la_lapack::getrf(n, n, f.as_mut_slice(), n, &mut ipiv),
                });
                let (info_s, sv) = tr.time("lapack.solve", j, Some(d), || match p.kind {
                    Kind::Spd => {
                        la_lapack::potrs(Uplo::Upper, n, nrhs, f.as_slice(), n, x.as_mut_slice(), n)
                    }
                    _ => la_lapack::getrs(
                        Trans::No,
                        n,
                        nrhs,
                        f.as_slice(),
                        n,
                        &ipiv,
                        x.as_mut_slice(),
                        n,
                    ),
                });
                t.job(p, info_f == 0 && info_s == 0, x.as_slice(), n);
                // The BLAS calls the solve issues, on the same factors.
                let mut y = p.b.clone();
                if p.kind != Kind::Spd {
                    la_lapack::laswp(nrhs, y.as_mut_slice(), n, 0, n, &ipiv);
                }
                let mut z = y.clone();
                tr.time("blas.trsm", j, Some(sv), || {
                    trsm_pair(p.kind, n, nrhs, f.as_slice(), y.as_mut_slice())
                });
                t.job(p, true, y.as_slice(), n);
                tr.time("blas.trsv", j, None, || {
                    trsv_pair(p.kind, n, nrhs, f.as_slice(), z.as_mut_slice())
                });
                t.job(p, true, z.as_slice(), n);
            }
            if p.kind != Kind::Spd {
                let s = serve_once(&svc, tr, t, &mut iters, "serve.mixed", j, p, Kind::Mixed);
                let mp = Problem {
                    kind: Kind::Mixed,
                    ..(*p).clone()
                };
                let (mut a, mut x) = workloads::fresh(p);
                let (r, d) = tr.time("la90.gesv_mixed", j, Some(s), || {
                    workloads::la90_solve(&mp, &mut a, &mut x)
                });
                t.job(p, r.is_ok(), x.as_slice(), x.lda());
                let (mut a, mut x) = workloads::fresh(p);
                let mut ipiv = vec![0i32; n];
                let mut iter = 0;
                let (info, _) = tr.time("lapack.gesv_mixed", j, Some(d), || {
                    la_lapack::gesv_mixed(
                        n,
                        nrhs,
                        a.as_mut_slice(),
                        n,
                        &mut ipiv,
                        p.b.as_slice(),
                        n,
                        x.as_mut_slice(),
                        n,
                        &mut iter,
                    )
                });
                t.job(p, info == 0, x.as_slice(), n);
            }
        }
    }
    svc.shutdown();

    // The batch drivers over the same sample, one call per kind.
    let mut batch_ns = 0.0;
    let mut jobs = 0usize;
    for kind in [Kind::General, Kind::Spd] {
        let b: Vec<&Problem> = sample.iter().copied().filter(|p| p.kind == kind).collect();
        if b.is_empty() {
            continue;
        }
        let (infos, x, t0, t1) = workloads::solve_batch(&b);
        tr.record("lapack.batch", 0, None, t0, t1);
        for ((p, info), x) in b.iter().zip(&infos).zip(&x) {
            t.job(p, *info == 0, x.as_slice(), x.lda());
        }
        batch_ns += (t1 - t0).as_nanos() as f64;
        jobs += b.len();
    }

    let own = tr.self_ns();
    let us = |ns: f64| ns / 1e3;
    let (serve_d, serve_s) = span_medians(tr, &own, "serve");
    m.push("serve.round_trip_ms.p50", serve_d / 1e6, "ms");
    m.push("serve.self_ms.p50", serve_s / 1e6, "ms");
    let (la90_d, la90_s) = span_medians(tr, &own, "la90");
    m.push("la90.driver_us.p50", us(la90_d), "us");
    m.push("la90.self_us.p50", us(la90_s), "us");
    m.push(
        "lapack.factor_us.p50",
        us(span_medians(tr, &own, "lapack.factor").0),
        "us",
    );
    let (solve_d, solve_s) = span_medians(tr, &own, "lapack.solve");
    m.push("lapack.solve_us.p50", us(solve_d), "us");
    m.push("lapack.solve_self_us.p50", us(solve_s), "us");
    m.push(
        "blas.trsm_pair_us.p50",
        us(span_medians(tr, &own, "blas.trsm").0),
        "us",
    );
    m.push(
        "blas.trsv_pair_us.p50",
        us(span_medians(tr, &own, "blas.trsv").0),
        "us",
    );
    let (mixed_d, mixed_s) = span_medians(tr, &own, "la90.gesv_mixed");
    m.push("la90.gesv_mixed_us.p50", us(mixed_d), "us");
    m.push("la90.gesv_mixed_self_us.p50", us(mixed_s), "us");
    m.push("batch.us_per_job", us(batch_ns / jobs.max(1) as f64), "us");
    m.push(
        "serve.mixed_iter_per_job",
        iters.iter().sum::<f64>() / iters.len().max(1) as f64,
        "count",
    );
}

/// Median seconds of `reps` timed calls of `f` on fresh state from
/// `prep` (untimed).
fn time_median<S>(reps: usize, mut prep: impl FnMut() -> S, mut f: impl FnMut(&mut S)) -> f64 {
    let mut v: Vec<f64> = (0..reps)
        .map(|_| {
            let mut s = prep();
            let t0 = Instant::now();
            f(&mut s);
            let dt = t0.elapsed().as_secs_f64();
            black_box(&s);
            dt
        })
        .collect();
    stats::median(&mut v).unwrap_or(f64::NAN)
}

/// Nanoseconds per call of `f`, as the median of five blocks of calls
/// lasting at least 20 ms each.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let mut v: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut calls = 0u64;
            while calls < 100 || t0.elapsed().as_secs_f64() < 0.02 {
                f();
                calls += 1;
            }
            t0.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    stats::median(&mut v).unwrap_or(f64::NAN)
}

fn core_probes(m: &mut Metrics) {
    let cfg = tune::current();
    m.push(
        "core.tune_threads_ns",
        ns_per_call(|| {
            black_box(black_box(&cfg).threads());
        }),
        "ns",
    );
    m.push(
        "core.tune_current_ns",
        ns_per_call(|| {
            black_box(tune::current());
        }),
        "ns",
    );
    let span_ns = probe::with_policy(ProbePolicy::Off, || {
        ns_per_call(|| {
            let guard = probe::span(Layer::Blas, "labench", 0, 0);
            drop(black_box(guard));
        })
    });
    m.push("core.probe_span_off_ns", span_ns, "ns");
}

/// Reps per small-`n` probe.
const LADDER_REPS: usize = 201;

fn ladder_probes(seed: u64, t: &mut Tally, m: &mut Metrics) {
    for n in LADDER_N {
        let p = Gen::new(seed ^ (n as u64) << 32).problem(Kind::General, n, 1);
        let gesv = time_median(
            LADDER_REPS,
            || workloads::fresh(&p),
            |(a, x)| {
                la90::gesv(a, x).expect("gesv on a generated system");
            },
        );
        let mut lu = p.a.clone();
        let mut ipiv = vec![0i32; n];
        let getrf = time_median(
            LADDER_REPS,
            || (p.a.clone(), vec![0i32; n]),
            |(a, ip)| {
                la_lapack::getrf(n, n, a.as_mut_slice(), n, ip);
            },
        );
        let info = la_lapack::getrf(n, n, lu.as_mut_slice(), n, &mut ipiv);
        let getrs = time_median(
            LADDER_REPS,
            || p.b.clone(),
            |x| {
                la_lapack::getrs(
                    Trans::No,
                    n,
                    1,
                    lu.as_slice(),
                    n,
                    &ipiv,
                    x.as_mut_slice(),
                    n,
                );
            },
        );
        let mut x = p.b.clone();
        la_lapack::getrs(
            Trans::No,
            n,
            1,
            lu.as_slice(),
            n,
            &ipiv,
            x.as_mut_slice(),
            n,
        );
        t.job(&p, info == 0, x.as_slice(), n);
        let trsm = time_median(
            LADDER_REPS,
            || p.b.clone(),
            |x| {
                la_blas::trsm(
                    Side::Left,
                    Uplo::Lower,
                    Trans::No,
                    Diag::Unit,
                    n,
                    1,
                    1.0,
                    lu.as_slice(),
                    n,
                    x.as_mut_slice(),
                    n,
                );
            },
        );
        let trsv = time_median(
            LADDER_REPS,
            || p.b.clone(),
            |x| {
                la_blas::trsv(
                    Uplo::Lower,
                    Trans::No,
                    Diag::Unit,
                    n,
                    lu.as_slice(),
                    n,
                    x.as_mut_slice(),
                    1,
                );
            },
        );
        let us = 1e6;
        m.push(format!("la90.gesv_us.n{n}"), gesv * us, "us");
        m.push(
            format!("la90.self_us.n{n}"),
            (gesv - getrf - getrs) * us,
            "us",
        );
        m.push(format!("lapack.getrf_us.n{n}"), getrf * us, "us");
        m.push(format!("lapack.getrs_us.n{n}"), getrs * us, "us");
        m.push(format!("blas.trsm_us.n{n}"), trsm * us, "us");
        m.push(format!("blas.trsv_us.n{n}"), trsv * us, "us");
    }
}

fn large_probes(seed: u64, t: &mut Tally, m: &mut Metrics) {
    let n = workloads::LARGE_N;
    let mut g = Gen::new(seed ^ 0x1a7e);
    let ge = g.problem(Kind::General, n, 1);
    let spd = g.problem(Kind::Spd, n, 1);
    let gemm = |cfg: TuneConfig, m_: usize, n_: usize, k: usize| {
        let secs = tune::with(cfg, || {
            time_median(
                3,
                || Mat::<f64>::zeros(m_, n_),
                |c| {
                    la_blas::gemm(
                        Trans::No,
                        Trans::No,
                        m_,
                        n_,
                        k,
                        1.0,
                        ge.a.as_slice(),
                        n,
                        spd.a.as_slice(),
                        n,
                        0.0,
                        c.as_mut_slice(),
                        m_,
                    );
                },
            )
        });
        2.0 * (m_ * n_ * k) as f64 / secs / 1e9
    };
    let serial = TuneConfig {
        max_threads: 1,
        ..TuneConfig::defaults()
    };
    m.push("blas.gemm_gflops.serial", gemm(serial, n, n, n), "GF/s");
    m.push(
        "blas.gemm_gflops.striped",
        gemm(TuneConfig::defaults(), n, n, n),
        "GF/s",
    );
    // The first trailing update of blocked getrf: (n - nb) x (n - nb) x nb.
    let nb = TuneConfig::defaults().nb("getrf");
    m.push(
        "blas.gemm_gflops.trailing",
        gemm(TuneConfig::defaults(), n - nb, n - nb, nb),
        "GF/s",
    );

    let lu_flops = probe::flops::getrf(n, n) as f64;
    let chol_flops = probe::flops::potrf(n) as f64;
    let mut check_lu = |a: &Mat<f64>, ipiv: &[i32], info: i32| {
        let mut x = ge.b.clone();
        la_lapack::getrs(Trans::No, n, 1, a.as_slice(), n, ipiv, x.as_mut_slice(), n);
        t.job(&ge, info == 0, x.as_slice(), n);
    };
    for (name, algo) in [
        ("lapack.getrf_gflops", FactorAlgo::Blocked),
        ("lapack.getrf_dag_gflops", FactorAlgo::Dag),
    ] {
        let mut last = None;
        let secs = tune::with(workloads::route(algo), || {
            time_median(
                3,
                || (ge.a.clone(), vec![0i32; n]),
                |(a, ip)| {
                    let info = match algo {
                        FactorAlgo::Dag => la_lapack::getrf_dag(n, n, a.as_mut_slice(), n, ip),
                        FactorAlgo::Blocked => la_lapack::getrf(n, n, a.as_mut_slice(), n, ip),
                    };
                    last = Some((a.clone(), ip.clone(), info));
                },
            )
        });
        if let Some((a, ip, info)) = last {
            check_lu(&a, &ip, info);
        }
        m.push(name, lu_flops / secs / 1e9, "GF/s");
    }
    for (name, algo) in [
        ("lapack.potrf_gflops", FactorAlgo::Blocked),
        ("lapack.potrf_dag_gflops", FactorAlgo::Dag),
    ] {
        let mut last = None;
        let secs = tune::with(workloads::route(algo), || {
            time_median(
                3,
                || spd.a.clone(),
                |a| {
                    let info = match algo {
                        FactorAlgo::Dag => {
                            la_lapack::potrf_dag(Uplo::Upper, n, a.as_mut_slice(), n)
                        }
                        FactorAlgo::Blocked => {
                            la_lapack::potrf(Uplo::Upper, n, a.as_mut_slice(), n)
                        }
                    };
                    last = Some((a.clone(), info));
                },
            )
        });
        if let Some((a, info)) = last {
            let mut x = spd.b.clone();
            la_lapack::potrs(Uplo::Upper, n, 1, a.as_slice(), n, x.as_mut_slice(), n);
            t.job(&spd, info == 0, x.as_slice(), n);
        }
        m.push(name, chol_flops / secs / 1e9, "GF/s");
    }
}

/// Jobs and order of the fixed batch probe.
const BATCH_PROBE: (usize, usize) = (512, 16);

fn batch_probe(seed: u64, t: &mut Tally, m: &mut Metrics) {
    let mut g = Gen::new(seed ^ 0xba7c);
    let probs: Vec<Problem> = (0..BATCH_PROBE.0)
        .map(|_| g.problem(Kind::General, BATCH_PROBE.1, 1))
        .collect();
    let refs: Vec<&Problem> = probs.iter().collect();
    let mut v = Vec::new();
    for _ in 0..5 {
        let (infos, x, t0, t1) = workloads::solve_batch(&refs);
        for ((p, info), x) in refs.iter().zip(&infos).zip(&x) {
            t.job(p, *info == 0, x.as_slice(), x.lda());
        }
        v.push((t1 - t0).as_secs_f64() * 1e6);
    }
    m.push(
        "lapack.gesv_batch_us",
        stats::median(&mut v).unwrap_or(f64::NAN),
        "us",
    );
}
