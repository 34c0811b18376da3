//! Runtime tuning subsystem — the `ILAENV` of this substrate, made a
//! first-class, *runtime-settable* object instead of a compiled-in table.
//!
//! Every performance knob the BLAS-3 layer and the blocked factorizations
//! consult lives in one [`TuneConfig`]: the thread budget, the flop
//! threshold above which Level-3 operations go parallel, the per-routine
//! block sizes (`NB`) and the blocked/unblocked crossover order. The
//! paper's premise is that `LA_GESV(A, B)` should deliver the performance
//! of the tuned substrate underneath with zero caller changes; this module
//! is where that tuning happens.
//!
//! Three ways to set it, in increasing precedence: the `LA_*`
//! environment variables at process start, [`set`] / [`update`] for the
//! whole process, and [`with`] for one call tree on the current thread.
//! The config is one field of the execution context [`crate::ctx`],
//! whose single `LA_*` parser keeps the default and warns on any
//! malformed value; [`with`] scopes travel into worker threads through
//! [`crate::ctx::fan_out`].
//!
//! ```
//! use la_core::tune::{self, TuneConfig};
//! // Force the serial path inside a closure, leaving the process config
//! // untouched:
//! let cfg = TuneConfig { max_threads: 1, ..tune::current() };
//! let r = tune::with(cfg, || tune::current().max_threads);
//! assert_eq!(r, 1);
//! ```

use std::sync::OnceLock;

use crate::ctx;

/// Which microkernel the packed BLAS-3 path drives. Selected through the
/// `gemm_kernel` field of [`TuneConfig`] (env var `LA_GEMM_KERNEL`); the
/// BLAS crate resolves `Auto` to the fastest kernel compiled in and
/// supported by the host.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GemmKernel {
    /// Heuristic: the SIMD kernel when the `simd` cargo feature is
    /// compiled in and the host supports it, the unrolled kernel
    /// otherwise. Small products may skip the packed path entirely.
    #[default]
    Auto,
    /// Reference triple-loop microkernel — slow, used as the bitwise
    /// ground truth by the kernel-equivalence tests. Forces the packed
    /// path at every size.
    Scalar,
    /// Explicitly unrolled register-tiled microkernel (portable). Forces
    /// the packed path at every size.
    Unrolled,
    /// Vectorized microkernel (x86-64 AVX2+FMA, `simd` cargo feature).
    /// Falls back to [`GemmKernel::Unrolled`] when the feature is not
    /// compiled in, the host lacks AVX2/FMA, or the scalar type is
    /// complex. Forces the packed path at every size.
    Simd,
}

impl GemmKernel {
    /// Parses the `LA_GEMM_KERNEL` spelling (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Some(GemmKernel::Auto),
            "scalar" => Some(GemmKernel::Scalar),
            "unrolled" => Some(GemmKernel::Unrolled),
            "simd" => Some(GemmKernel::Simd),
            _ => None,
        }
    }

    /// The canonical spelling, as accepted by [`GemmKernel::parse`].
    pub fn as_str(self) -> &'static str {
        match self {
            GemmKernel::Auto => "auto",
            GemmKernel::Scalar => "scalar",
            GemmKernel::Unrolled => "unrolled",
            GemmKernel::Simd => "simd",
        }
    }
}

/// Which algorithm family the dense factorizations (`getrf`, `potrf`,
/// `geqrf`) run. Selected through the `factor` field of [`TuneConfig`]
/// (env var `LA_FACTOR`); the blocked path stays the default until the
/// bench gate proves the DAG wins on the host at hand.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FactorAlgo {
    /// Fork-join blocked factorization (panel + striped BLAS-3 trailing
    /// update), the classic LAPACK shape. Default.
    #[default]
    Blocked,
    /// Tile task-graph factorization (`la_core::dag` + `TileMat`):
    /// dependency-tracked tasks over `LA_TILE_NB`-order tiles, so panel
    /// factor, triangular solves and trailing updates of different steps
    /// overlap. Falls back to the blocked path below the crossover order.
    Dag,
}

impl FactorAlgo {
    /// Parses the `LA_FACTOR` spelling (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "blocked" => Some(FactorAlgo::Blocked),
            "dag" => Some(FactorAlgo::Dag),
            _ => None,
        }
    }

    /// The canonical spelling, as accepted by [`FactorAlgo::parse`].
    pub fn as_str(self) -> &'static str {
        match self {
            FactorAlgo::Blocked => "blocked",
            FactorAlgo::Dag => "dag",
        }
    }
}

/// Residual precision of the refinement loops. Selected through the
/// `refine` field of [`TuneConfig`] (env var `LA_REFINE`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RefineMode {
    /// Residuals in the working precision — the classic DSGESV regime.
    /// Default.
    #[default]
    Working,
    /// Residuals accumulated in double-double (`la_core::dd`) — the
    /// three-precision GMRES-IR regime and the engine of the `*_x`
    /// extra-precise refinement drivers (xGERFSX semantics).
    Dd,
}

impl RefineMode {
    /// Parses the `LA_REFINE` spelling (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "working" | "off" => Some(RefineMode::Working),
            "dd" | "double-double" => Some(RefineMode::Dd),
            _ => None,
        }
    }

    /// The canonical spelling, as accepted by [`RefineMode::parse`].
    pub fn as_str(self) -> &'static str {
        match self {
            RefineMode::Working => "working",
            RefineMode::Dd => "dd",
        }
    }
}

/// Process-wide tuning knobs for the BLAS-3 layer and the blocked
/// factorizations. Plain data — copy it, edit fields, hand it to [`set`]
/// or [`with`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TuneConfig {
    /// Thread budget for parallel BLAS-3. `0` means auto-detect
    /// (`available_parallelism`, capped at 8; the cores are detected once
    /// per process). `1` forces every operation serial.
    pub max_threads: usize,
    /// Effective-flop product (`m·n·k` for `gemm`, the analogous triple
    /// product for the other Level-3 operations) at or above which an
    /// operation may go parallel. `0` parallelises everything the shape
    /// allows — useful for tests, ruinous for performance.
    pub par_flops: usize,
    /// Panel width for LU-family routines (`getrf`, `getri`).
    pub nb_getrf: usize,
    /// Panel width for the Cholesky family (`potrf`).
    pub nb_potrf: usize,
    /// Panel width for the orthogonal-factorization family
    /// (`geqrf`, `gelqf`, `ormqr`).
    pub nb_geqrf: usize,
    /// Panel width for the symmetric-indefinite / tridiagonalization
    /// family (`sytrf`, `sytrd`).
    pub nb_sytrf: usize,
    /// Panel width for any routine without a dedicated knob.
    pub nb_default: usize,
    /// Problem order at or below which blocked algorithms fall back to
    /// their unblocked forms.
    pub crossover: usize,
    /// Test-only fault-injection hook: when `true`, the parallel BLAS-3
    /// panics in one of its worker stripes, exercising the graceful
    /// serial-fallback path. Never read from the environment; exists so
    /// the degradation machinery can be tested without unsafe tricks.
    /// Only honoured in builds with the `fault-inject` cargo feature —
    /// default builds compile the read out of the BLAS-3 hot path
    /// entirely, so setting it there is a no-op.
    #[doc(hidden)]
    pub fault_inject_par: bool,
    /// Microkernel the packed BLAS-3 path runs (`LA_GEMM_KERNEL`).
    pub gemm_kernel: GemmKernel,
    /// Packed-gemm row block: rows of A packed per cache block
    /// (`LA_GEMM_MC`). `0` falls back to the compiled-in default.
    pub gemm_mc: usize,
    /// Packed-gemm depth block: the k-extent packed per panel
    /// (`LA_GEMM_KC`). `0` falls back to the compiled-in default.
    pub gemm_kc: usize,
    /// Packed-gemm column block: columns of B packed per cache block
    /// (`LA_GEMM_NC`). `0` falls back to the compiled-in default.
    pub gemm_nc: usize,
    /// Algorithm family for the dense factorizations (`LA_FACTOR`):
    /// fork-join blocked (default) or the tile task-graph runtime.
    pub factor: FactorAlgo,
    /// Tile order for the task-graph factorizations (`LA_TILE_NB`).
    /// `0` falls back to the compiled-in default (see
    /// [`TuneConfig::tile_size`]).
    pub tile_nb: usize,
    /// Residual precision for the refinement loops (`LA_REFINE`):
    /// working precision (classic) or double-double (three-precision
    /// GMRES-IR regime).
    pub refine: RefineMode,
    /// Target queueing delay for the `la-serve` adaptive admission
    /// controller, in milliseconds (`LA_SERVE_TARGET_DELAY`). When set,
    /// the serve queue bound is sized from observed service times so a
    /// job admitted at the back of the queue still expects to start
    /// within this budget; `0` (the default) keeps the fixed
    /// `queue_depth` behaviour. Lives here rather than in the serve
    /// crate so operators tune it the same way as every other `LA_*`
    /// knob.
    pub serve_target_delay_ms: usize,
    /// Stall tolerance for the `la-serve` stuck-job watchdog, in
    /// milliseconds (`LA_SERVE_WATCHDOG`): a worker whose heartbeat
    /// stands still this long while holding one job is escalated
    /// (cooperative cancel, then respawn). `0` (the default) disables
    /// the watchdog.
    pub serve_watchdog_ms: usize,
    /// Permit a thread budget above the detected core count. Off by
    /// default: oversubscribing a host measurably *slows* BLAS-3 (the
    /// committed thread sweep shows threads=2 slower than threads=1 on a
    /// 1-core host), so [`TuneConfig::threads`] clamps to the core count
    /// unless this is set. Equivalence tests and the bench sweeps set it
    /// to exercise the striped dispatch machinery regardless of host
    /// size.
    pub oversubscribe: bool,
}

impl TuneConfig {
    /// The compiled-in defaults (the values the seed hardcoded).
    pub const fn defaults() -> Self {
        TuneConfig {
            max_threads: 0,
            par_flops: 200 * 200 * 200,
            nb_getrf: 32,
            nb_potrf: 96,
            nb_geqrf: 32,
            nb_sytrf: 32,
            nb_default: 32,
            crossover: 128,
            fault_inject_par: false,
            gemm_kernel: GemmKernel::Auto,
            gemm_mc: 0,
            gemm_kc: 0,
            gemm_nc: 0,
            factor: FactorAlgo::Blocked,
            tile_nb: 0,
            refine: RefineMode::Working,
            serve_target_delay_ms: 0,
            serve_watchdog_ms: 0,
            oversubscribe: false,
        }
    }

    /// Defaults overlaid with the tuning `LA_*` variables read from
    /// `get`, plus the rejection diagnostics of the one `LA_*` parser in
    /// [`crate::ctx`] (a closure instead of the process environment, so
    /// tests do not race on it).
    pub fn from_env_with(get: impl Fn(&str) -> Option<String>) -> (Self, Vec<String>) {
        let (global, warnings) = ctx::Global::from_env_with(get);
        (global.tune, warnings)
    }

    /// Resolved thread budget: `max_threads`, or the detected core count
    /// (capped at 8) when `max_threads == 0`. Never exceeds the detected
    /// core count unless [`TuneConfig::oversubscribe`] is set — running
    /// more BLAS-3 stripes than cores only adds scheduling overhead (the
    /// committed BENCH_blas3.json thread sweep shows threads=2 *slower*
    /// than threads=1 on a 1-core host).
    ///
    /// On a thread that is itself one of `W` siblings of an enclosing
    /// worker pool (see [`in_pool_worker`]), the clamp tightens to
    /// `host / W`: a batch dispatcher fanning `W` jobs out, each of which
    /// opens striped BLAS-3, would otherwise put `W × stripes` runnable
    /// threads on `host` cores. `oversubscribe` bypasses this clamp too —
    /// the equivalence tests and bench sweeps that force wide striping on
    /// small hosts keep working unchanged.
    ///
    /// The host core count is detected once per process (the first call
    /// pays for `available_parallelism`, which reads cgroup files); the
    /// `max_threads`, `oversubscribe` and pool-share rules above are
    /// applied afresh on every call.
    pub fn threads(&self) -> usize {
        let host = host_cores();
        if self.max_threads > 0 && self.oversubscribe {
            return self.max_threads;
        }
        // Each of the `share` pool siblings running on this host gets an
        // equal slice of the cores (at least one).
        let share = ctx::read(|c| c.pool_share).max(1);
        let host_share = if self.oversubscribe {
            host
        } else {
            (host / share).max(1)
        };
        if self.max_threads > 0 {
            return self.max_threads.min(host_share);
        }
        host_share.min(8)
    }

    /// Block size for `routine` (an `ILAENV(1, ...)` analog; lowercase
    /// LAPACK routine names).
    pub fn nb(&self, routine: &str) -> usize {
        match routine {
            "getrf" | "getri" => self.nb_getrf,
            "potrf" => self.nb_potrf,
            "geqrf" | "gelqf" | "ormqr" => self.nb_geqrf,
            "sytrf" | "sytrd" => self.nb_sytrf,
            _ => self.nb_default,
        }
        .max(1)
    }

    /// Crossover order for `routine` (an `ILAENV(2, ...)` analog). One
    /// knob covers every family for now; the argument keeps the call sites
    /// ready for per-routine splits.
    pub fn crossover(&self, _routine: &str) -> usize {
        self.crossover
    }

    /// Resolved tile order for the task-graph factorizations:
    /// `tile_nb`, or the compiled-in default when `tile_nb == 0`. The
    /// default (192) gives each tile task a few million flops — large
    /// enough to amortize scheduling, small enough for lookahead overlap
    /// at n ≥ 2048.
    pub fn tile_size(&self) -> usize {
        if self.tile_nb > 0 {
            self.tile_nb
        } else {
            192
        }
    }
}

/// Detected core count of this host, resolved once per process: the
/// per-call `available_parallelism` lookup cost more than a whole small
/// BLAS-3 call.
fn host_cores() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}

impl Default for TuneConfig {
    fn default() -> Self {
        Self::defaults()
    }
}

/// Declares the current thread to be one of `siblings` concurrently
/// running workers of an enclosing pool for the duration of `f`, so that
/// [`TuneConfig::threads`] hands each worker `host / siblings` cores
/// instead of all of them. Nested pools multiply: a 2-worker pool inside
/// a 4-worker pool leaves each leaf `host / 8`.
///
/// [`crate::ctx::fan_out`] applies the same multiplication to every
/// worker it spawns, and each `la-serve` job applies it for the service's
/// worker count; without it, `W` jobs each opening `host`-way striped BLAS-3 puts
/// `W × host` runnable threads on `host` cores. Restores the previous
/// share on exit, panic included. [`TuneConfig::oversubscribe`] bypasses
/// the clamp.
pub fn in_pool_worker<R>(siblings: usize, f: impl FnOnce() -> R) -> R {
    ctx::with(
        |c| c.pool_share = c.pool_share.saturating_mul(siblings.max(1)),
        f,
    )
}

/// The configuration in effect on this thread: the innermost [`with`]
/// override if one is active, the process-global configuration otherwise.
pub fn current() -> TuneConfig {
    ctx::resolve(|c| c.tune.as_ref(), |g| &g.tune)
}

/// Replaces the process-global configuration.
pub fn set(cfg: TuneConfig) {
    ctx::update_global(|g| g.tune = cfg);
}

/// Edits the process-global configuration in place:
/// `tune::update(|c| c.max_threads = 4)`.
pub fn update(f: impl FnOnce(&mut TuneConfig)) {
    ctx::update_global(|g| f(&mut g.tune));
}

/// Runs `f` with `cfg` in effect on the current thread only, restoring
/// the previous state afterwards (also on panic). Nested calls stack.
pub fn with<R>(cfg: TuneConfig, f: impl FnOnce() -> R) -> R {
    ctx::with(|c| c.tune = Some(cfg), f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_seed_constants() {
        let d = TuneConfig::defaults();
        assert_eq!(d.par_flops, 200 * 200 * 200);
        assert_eq!(d.nb("getrf"), 32);
        assert_eq!(d.nb("potrf"), 96);
        assert_eq!(d.nb("ormqr"), 32);
        assert_eq!(d.nb("unknown-routine"), 32);
        assert_eq!(d.crossover("getrf"), 128);
    }

    #[test]
    fn scoped_override_stacks_and_restores() {
        let outer = current();
        let a = TuneConfig {
            max_threads: 3,
            ..outer
        };
        let b = TuneConfig {
            max_threads: 7,
            ..outer
        };
        with(a, || {
            assert_eq!(current().max_threads, 3);
            with(b, || assert_eq!(current().max_threads, 7));
            assert_eq!(current().max_threads, 3);
        });
        assert_eq!(current(), outer);
    }

    #[test]
    fn threads_resolution() {
        let host = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        let mut cfg = TuneConfig::defaults();
        cfg.max_threads = 5;
        assert_eq!(cfg.threads(), 5.min(host));
        cfg.oversubscribe = true;
        assert_eq!(cfg.threads(), 5);
        cfg.max_threads = 0;
        cfg.oversubscribe = false;
        assert!(cfg.threads() >= 1 && cfg.threads() <= 8);
    }

    #[test]
    fn thread_budget_refuses_to_oversubscribe() {
        // Regression: the committed thread sweep showed threads=2 slower
        // than threads=1 on a 1-core host. A budget above the core count
        // must clamp to the core count unless explicitly overridden.
        let host = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        let mut cfg = TuneConfig::defaults();
        cfg.max_threads = host * 4;
        assert_eq!(cfg.threads(), host);
        cfg.oversubscribe = true;
        assert_eq!(cfg.threads(), host * 4);
    }

    #[test]
    fn pool_workers_split_the_host_budget() {
        // Regression: a batch worker invoking striped BLAS-3 must not
        // oversubscribe — worker-count × stripe-count ≤ host cores unless
        // `oversubscribe` is set.
        let host = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        let cfg = TuneConfig {
            max_threads: host * 2, // ask for plenty; the clamp decides
            ..TuneConfig::defaults()
        };
        assert_eq!(cfg.threads(), host);
        in_pool_worker(4, || {
            assert_eq!(cfg.threads(), (host / 4).max(1));
            // Nested pools multiply the share.
            in_pool_worker(2, || {
                assert_eq!(cfg.threads(), (host / 8).max(1));
            });
            assert_eq!(cfg.threads(), (host / 4).max(1));
            // Auto-detect (max_threads = 0) honours the share too.
            let auto = TuneConfig::defaults();
            assert_eq!(auto.threads(), (host / 4).clamp(1, 8));
            // Explicit oversubscribe bypasses the clamp entirely.
            let over = TuneConfig {
                oversubscribe: true,
                ..cfg
            };
            assert_eq!(over.threads(), host * 2);
        });
        assert_eq!(cfg.threads(), host, "share restored on scope exit");
        // Restored on panic as well.
        let _ = std::panic::catch_unwind(|| in_pool_worker(16, || panic!("boom")));
        assert_eq!(cfg.threads(), host);
    }

    #[test]
    fn gemm_kernel_parses_and_round_trips() {
        for k in [
            GemmKernel::Auto,
            GemmKernel::Scalar,
            GemmKernel::Unrolled,
            GemmKernel::Simd,
        ] {
            assert_eq!(GemmKernel::parse(k.as_str()), Some(k));
            assert_eq!(GemmKernel::parse(&k.as_str().to_uppercase()), Some(k));
        }
        assert_eq!(GemmKernel::parse("fancy"), None);
        assert_eq!(TuneConfig::defaults().gemm_kernel, GemmKernel::Auto);
    }

    #[test]
    fn nb_never_zero() {
        let mut cfg = TuneConfig::defaults();
        cfg.nb_getrf = 0;
        assert_eq!(cfg.nb("getrf"), 1);
    }

    #[test]
    fn factor_algo_parses_and_round_trips() {
        for f in [FactorAlgo::Blocked, FactorAlgo::Dag] {
            assert_eq!(FactorAlgo::parse(f.as_str()), Some(f));
            assert_eq!(FactorAlgo::parse(&f.as_str().to_uppercase()), Some(f));
        }
        assert_eq!(FactorAlgo::parse("magic"), None);
        assert_eq!(
            TuneConfig::defaults().factor,
            FactorAlgo::Blocked,
            "blocked stays the default until the gate proves the DAG wins"
        );
    }

    #[test]
    fn tile_size_resolves_default_and_override() {
        let mut cfg = TuneConfig::defaults();
        assert_eq!(cfg.tile_size(), 192);
        cfg.tile_nb = 96;
        assert_eq!(cfg.tile_size(), 96);
    }

    #[test]
    fn refine_mode_parses_and_round_trips() {
        for r in [RefineMode::Working, RefineMode::Dd] {
            assert_eq!(RefineMode::parse(r.as_str()), Some(r));
        }
        assert_eq!(RefineMode::parse("quad"), None);
        let d = TuneConfig::defaults();
        assert_eq!(d.refine, RefineMode::Working);
    }

    fn env_of<'a>(vars: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        }
    }

    #[test]
    fn malformed_env_values_are_rejected_with_diagnostics() {
        // The silent-drop regression: each of these used to vanish in an
        // `.ok()` chain, leaving the user tuning a knob that wasn't
        // connected. Now every rejection names the variable and fallback.
        let (cfg, warnings) = TuneConfig::from_env_with(env_of(&[
            ("LA_GEMM_KERNEL", "fancy"),
            ("LA_TILE_NB", "0"),
            ("LA_NUM_THREADS", "three"),
            ("LA_REFINE", "quad"),
            ("LA_OVERSUBSCRIBE", "maybe"),
        ]));
        // All five fall back to defaults...
        assert_eq!(cfg, TuneConfig::defaults());
        // ...and all five are reported, naming variable and fallback.
        assert_eq!(warnings.len(), 5);
        for (var, fallback) in [
            ("LA_GEMM_KERNEL", "auto"),
            ("LA_TILE_NB", "0"),
            ("LA_NUM_THREADS", "0"),
            ("LA_REFINE", "working"),
            ("LA_OVERSUBSCRIBE", "off"),
        ] {
            let w = warnings
                .iter()
                .find(|w| w.starts_with(var))
                .unwrap_or_else(|| panic!("no warning for {var}: {warnings:?}"));
            assert!(
                w.contains(fallback),
                "{w:?} should name fallback {fallback}"
            );
        }
    }

    #[test]
    fn valid_env_values_apply_without_diagnostics() {
        let (cfg, warnings) = TuneConfig::from_env_with(env_of(&[
            ("LA_NUM_THREADS", "0"), // zero is a valid "auto" here
            ("LA_NB_GETRF", "64"),
            ("LA_TILE_NB", "128"),
            ("LA_GEMM_KERNEL", "scalar"),
            ("LA_REFINE", "dd"),
        ]));
        assert!(warnings.is_empty(), "unexpected warnings: {warnings:?}");
        assert_eq!(cfg.max_threads, 0);
        assert_eq!(cfg.nb_getrf, 64);
        assert_eq!(cfg.tile_nb, 128);
        assert_eq!(cfg.gemm_kernel, GemmKernel::Scalar);
        assert_eq!(cfg.refine, RefineMode::Dd);
    }

    #[test]
    fn serve_knobs_parse_with_zero_meaning_off() {
        let d = TuneConfig::defaults();
        assert_eq!(d.serve_target_delay_ms, 0, "adaptive admission off");
        assert_eq!(d.serve_watchdog_ms, 0, "watchdog off");
        let (cfg, warnings) = TuneConfig::from_env_with(env_of(&[
            ("LA_SERVE_TARGET_DELAY", "25"),
            ("LA_SERVE_WATCHDOG", "500"),
        ]));
        assert!(warnings.is_empty(), "unexpected warnings: {warnings:?}");
        assert_eq!(cfg.serve_target_delay_ms, 25);
        assert_eq!(cfg.serve_watchdog_ms, 500);
        // 0 is the documented "off" spelling, not a rejected value.
        let (cfg, warnings) = TuneConfig::from_env_with(env_of(&[
            ("LA_SERVE_TARGET_DELAY", "0"),
            ("LA_SERVE_WATCHDOG", "garbage"),
        ]));
        assert_eq!(cfg.serve_target_delay_ms, 0);
        assert_eq!(cfg.serve_watchdog_ms, 0);
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].starts_with("LA_SERVE_WATCHDOG"));
    }

    #[test]
    fn zero_block_sizes_rejected_zero_autos_kept() {
        let (cfg, warnings) = TuneConfig::from_env_with(env_of(&[
            ("LA_NB_POTRF", "0"),
            ("LA_GEMM_MC", "0"),
            ("LA_PAR_FLOPS", "0"),
        ]));
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].starts_with("LA_NB_POTRF"));
        assert_eq!(cfg.nb_potrf, TuneConfig::defaults().nb_potrf);
        assert_eq!(cfg.gemm_mc, 0);
        assert_eq!(cfg.par_flops, 0);
    }
}
