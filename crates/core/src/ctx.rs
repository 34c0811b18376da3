//! The execution context — everything that decides *how* a call tree
//! runs, in one value.
//!
//! An [`ExecCtx`] carries the seven pieces of per-call-tree state the
//! substrate consults: the [`TuneConfig`], the three runtime policies
//! ([`FpCheckPolicy`], [`AbftPolicy`], [`ProbePolicy`]), the cooperative
//! [`CancelToken`], the watchdog [`Heartbeat`] and the pool-sibling share
//! the thread budget is divided by. One mechanism serves all of them:
//!
//! * **One process global**: the tune config and the three policies every
//!   thread falls back to. Read once from the `LA_*` environment variables
//!   on first use, by one parser that warns on every malformed value;
//!   replaced through the `set`/`update`/`set_policy` functions of
//!   [`crate::tune`], [`crate::except`], [`crate::abft`] and
//!   [`crate::probe`]. Each thread caches a copy, revalidated by one
//!   atomic load per read, so hot-path reads take no lock.
//! * **One thread-local override stack**: [`with`] edits a copy of the
//!   current context for the duration of a closure; [`enter`] installs a
//!   whole context. Both restore the previous context on exit, panic
//!   included. A scope overrides only the fields it names: a policy field
//!   left `None` keeps following the process global.
//! * **One capture/enter pair**: [`capture`] clones the calling thread's
//!   context; [`enter`] re-installs it on another thread.
//! * **One fan-out**: [`fan_out`] spawns scoped workers that each enter the
//!   caller's context with the pool-sibling share multiplied by the worker
//!   count, so tuning, policies, cancellation, heartbeats and the
//!   no-oversubscription clamp all cross thread boundaries together. It is
//!   the only place in `la-core`/`la-blas` that spawns threads.
//!
//! ```
//! use la_core::abft::{self, AbftPolicy};
//! use la_core::ctx;
//! ctx::with(|c| c.abft = Some(AbftPolicy::Verify), || {
//!     // Workers run under the caller's context.
//!     ctx::fan_out(0..2, |_| assert_eq!(abft::policy(), AbftPolicy::Verify));
//! });
//! ```

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};

use crate::abft::AbftPolicy;
use crate::cancel::{CancelToken, Heartbeat};
use crate::except::FpCheckPolicy;
use crate::probe::ProbePolicy;
use crate::tune::{FactorAlgo, GemmKernel, RefineMode, TuneConfig};

/// The per-call-tree execution context. Plain data: clone it, edit
/// fields, hand it to [`enter`] (or edit in place through [`with`]).
#[derive(Clone, Debug)]
pub struct ExecCtx {
    /// Tuning knobs; `None` follows the process-global config.
    pub tune: Option<TuneConfig>,
    /// NaN/Inf screening policy; `None` follows the process global.
    pub fp_check: Option<FpCheckPolicy>,
    /// Soft-fault (ABFT) policy; `None` follows the process global.
    pub abft: Option<AbftPolicy>,
    /// Probe (profiling) policy; `None` follows the process global.
    pub probe: Option<ProbePolicy>,
    /// Cancel token polled by [`crate::cancel::cancelled`], if any.
    pub token: Option<CancelToken>,
    /// Heartbeat stamped by [`crate::cancel::cancelled`], if any.
    pub heartbeat: Option<Heartbeat>,
    /// How many sibling pool workers share the host with this thread
    /// (`1` = not a pool worker); divides [`TuneConfig::threads`].
    pub pool_share: usize,
}

impl ExecCtx {
    /// The empty context: every policy follows the process global, no
    /// token, no heartbeat, not a pool worker.
    pub const fn new() -> Self {
        ExecCtx {
            tune: None,
            fp_check: None,
            abft: None,
            probe: None,
            token: None,
            heartbeat: None,
            pool_share: 1,
        }
    }
}

impl Default for ExecCtx {
    fn default() -> Self {
        Self::new()
    }
}

/// The process-global settings every [`ExecCtx`] policy field left `None`
/// resolves to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Global {
    pub tune: TuneConfig,
    pub fp_check: FpCheckPolicy,
    pub abft: AbftPolicy,
    pub probe: ProbePolicy,
}

impl Global {
    /// Compiled-in defaults: [`TuneConfig::defaults`], every policy off.
    pub(crate) const DEFAULT: Global = Global {
        tune: TuneConfig::defaults(),
        fp_check: FpCheckPolicy::Off,
        abft: AbftPolicy::Off,
        probe: ProbePolicy::Off,
    };

    /// Defaults overlaid with the `LA_*` environment variables. A
    /// malformed value (non-numeric where a number is expected, zero for
    /// a block-size knob, an unknown spelling) keeps the default and
    /// emits a one-time stderr warning naming the variable, the rejected
    /// value and the fallback — misconfiguration is never silent.
    fn from_env() -> Self {
        let (g, warnings) = Self::from_env_with(|name| std::env::var(name).ok());
        for w in &warnings {
            warn_once(w);
        }
        g
    }

    /// [`Global::from_env`] with an injectable variable source and the
    /// rejection diagnostics returned instead of printed — the testable
    /// core of the env parsing (process-env mutation races with parallel
    /// tests; a closure does not).
    pub(crate) fn from_env_with(get: impl Fn(&str) -> Option<String>) -> (Self, Vec<String>) {
        let mut warnings = Vec::new();
        let mut g = Self::DEFAULT;
        let t = &mut g.tune;
        // `zero_ok`: whether 0 is a meaningful spelling ("auto"/"default"/
        // "off") rather than a degenerate block size.
        let numbers: [(&str, &mut usize, bool); 14] = [
            ("LA_NUM_THREADS", &mut t.max_threads, true),
            ("LA_PAR_FLOPS", &mut t.par_flops, true),
            ("LA_NB_GETRF", &mut t.nb_getrf, false),
            ("LA_NB_POTRF", &mut t.nb_potrf, false),
            ("LA_NB_GEQRF", &mut t.nb_geqrf, false),
            ("LA_NB_SYTRF", &mut t.nb_sytrf, false),
            ("LA_NB_DEFAULT", &mut t.nb_default, false),
            ("LA_CROSSOVER", &mut t.crossover, true),
            ("LA_GEMM_MC", &mut t.gemm_mc, true),
            ("LA_GEMM_KC", &mut t.gemm_kc, true),
            ("LA_GEMM_NC", &mut t.gemm_nc, true),
            ("LA_TILE_NB", &mut t.tile_nb, false),
            ("LA_SERVE_TARGET_DELAY", &mut t.serve_target_delay_ms, true),
            ("LA_SERVE_WATCHDOG", &mut t.serve_watchdog_ms, true),
        ];
        for (name, into, zero_ok) in numbers {
            let Some(raw) = get(name) else { continue };
            match raw.trim().parse::<usize>() {
                Ok(0) if !zero_ok => warnings.push(format!(
                    "{name}: zero is not a valid block size; using default {into}"
                )),
                Ok(v) => *into = v,
                Err(_) => warnings.push(format!(
                    "{name}: invalid value {raw:?} (expected a non-negative integer); \
                     using default {into}"
                )),
            }
        }

        // Enumerated knobs: the first listed spelling is the default, kept
        // (and named in the warning) when a value is not recognized.
        macro_rules! pick {
            ($name:literal, $spellings:literal, $parse:expr => $into:expr) => {
                if let Some(raw) = get($name) {
                    match $parse(&raw) {
                        Some(v) => $into = v,
                        None => warnings.push(format!(
                            "{}: unknown value {raw:?} (expected one of {}); using default {}",
                            $name,
                            $spellings,
                            $spellings.split('|').next().unwrap_or_default(),
                        )),
                    }
                }
            };
        }
        fn parse_bool(s: &str) -> Option<bool> {
            match s.trim().to_ascii_lowercase().as_str() {
                "1" | "true" | "yes" | "on" => Some(true),
                "0" | "false" | "no" | "off" | "" => Some(false),
                _ => None,
            }
        }
        pick!("LA_GEMM_KERNEL", "auto|scalar|unrolled|simd", GemmKernel::parse => t.gemm_kernel);
        pick!("LA_FACTOR", "blocked|dag", FactorAlgo::parse => t.factor);
        pick!("LA_REFINE", "working|dd", RefineMode::parse => t.refine);
        // `LA_OVERSUBSCRIBE=1` lifts the host-core clamp on the thread
        // budget — the TSan stress job uses it to run many more workers
        // than cores and shake out ordering bugs in dependency release.
        pick!("LA_OVERSUBSCRIBE", "off|on|0|1|false|true|no|yes", parse_bool => t.oversubscribe);
        pick!("LA_FP_CHECK", "off|inputs|outputs|full", FpCheckPolicy::parse => g.fp_check);
        pick!("LA_ABFT", "off|verify|recover", AbftPolicy::parse => g.abft);
        pick!("LA_PROFILE", "off|counters|spans", ProbePolicy::parse => g.probe);
        // Removed knobs still get a word, so a stale setting is not
        // silently ignored.
        if let Some(raw) = get("LA_GESV_MIXED") {
            warnings.push(format!(
                "LA_GESV_MIXED: removed; value {raw:?} ignored (the mixed drivers always \
                 factor in f32, or C32 for complex data)"
            ));
        }
        (g, warnings)
    }
}

/// Prints `msg` to stderr once per distinct message for the process
/// lifetime — the delivery channel for env-var rejection diagnostics, so
/// repeated parses (the global plus any bench binary re-reading the
/// environment) don't spam.
fn warn_once(msg: &str) {
    use std::collections::HashSet;
    use std::sync::Mutex;
    static WARNED: OnceLock<Mutex<HashSet<String>>> = OnceLock::new();
    let warned = WARNED.get_or_init(|| Mutex::new(HashSet::new()));
    let mut guard = warned.lock().unwrap_or_else(|e| e.into_inner());
    if guard.insert(msg.to_string()) {
        eprintln!("la-core: {msg}");
    }
}

fn process() -> &'static RwLock<Global> {
    static GLOBAL: OnceLock<RwLock<Global>> = OnceLock::new();
    GLOBAL.get_or_init(|| RwLock::new(Global::from_env()))
}

/// Bumped by every [`update_global`]; a thread whose cached copy carries
/// an older value re-reads the process global. Starts above the threads'
/// initial `0`, so the first read on every thread loads it.
static GENERATION: AtomicU64 = AtomicU64::new(1);

/// The context of a thread outside every scope.
static EMPTY: ExecCtx = ExecCtx::new();

struct Local {
    /// The override stack: the innermost scope's context is last.
    stack: Vec<ExecCtx>,
    /// [`GENERATION`] at which `global` was copied.
    seen: u64,
    global: Global,
}

thread_local! {
    static LOCAL: RefCell<Local> = const {
        RefCell::new(Local {
            stack: Vec::new(),
            seen: 0,
            global: Global::DEFAULT,
        })
    };
}

/// Borrows the current thread's context for a read. Hot paths use this
/// to look at the token or heartbeat without cloning their `Arc`s; `f`
/// must not open or leave a scope.
pub(crate) fn read<R>(f: impl FnOnce(&ExecCtx) -> R) -> R {
    LOCAL.with(|l| f(l.borrow().stack.last().unwrap_or(&EMPTY)))
}

/// Resolves one policy field: the thread's override if its context names
/// one, the (cached) process global otherwise.
#[inline]
pub(crate) fn resolve<T: Copy>(
    local: impl FnOnce(&ExecCtx) -> Option<&T>,
    global: impl FnOnce(&Global) -> &T,
) -> T {
    LOCAL.with(|cell| {
        let l = cell.borrow();
        match l.stack.last().and_then(local) {
            Some(v) => *v,
            None if l.seen == GENERATION.load(Ordering::Acquire) => *global(&l.global),
            None => {
                drop(l);
                *global(&refresh(cell))
            }
        }
    })
}

/// Re-copies the process global into this thread's cache. Loads the
/// generation before the value: a racing update leaves the copy marked
/// stale, never a stale copy marked fresh.
#[cold]
#[inline(never)]
fn refresh(cell: &RefCell<Local>) -> Global {
    let seen = GENERATION.load(Ordering::Acquire);
    let fresh = *process().read().unwrap_or_else(|e| e.into_inner());
    let mut l = cell.borrow_mut();
    (l.seen, l.global) = (seen, fresh);
    fresh
}

/// Edits the process-global settings in place; every thread sees the
/// change on its next read of a field its context leaves `None`.
pub(crate) fn update_global(f: impl FnOnce(&mut Global)) {
    let mut g = process().write().unwrap_or_else(|e| e.into_inner());
    f(&mut g);
    // Bumped under the write lock: a reader that sees the new generation
    // blocks on the read lock until the new value is in place.
    GENERATION.fetch_add(1, Ordering::Release);
}

/// A clone of the calling thread's context, for [`enter`] on another
/// thread.
pub fn capture() -> ExecCtx {
    read(ExecCtx::clone)
}

/// Runs `f` with `ctx` as the current thread's whole context, restoring
/// the previous context afterwards (also on panic).
pub fn enter<R>(ctx: ExecCtx, f: impl FnOnce() -> R) -> R {
    struct Pop(usize);
    impl Drop for Pop {
        fn drop(&mut self) {
            LOCAL.with(|l| l.borrow_mut().stack.truncate(self.0));
        }
    }
    let depth = LOCAL.with(|l| {
        let stack = &mut l.borrow_mut().stack;
        stack.push(ctx);
        stack.len() - 1
    });
    let _pop = Pop(depth);
    f()
}

/// Runs `f` with a copy of the current context edited by `edit`
/// (`ctx::with(|c| c.abft = Some(AbftPolicy::Verify), f)`), restoring the
/// previous context afterwards (also on panic). Nested calls stack; fields
/// `edit` leaves alone keep their current value — for a policy still
/// `None`, that means following the process global.
pub fn with<R>(edit: impl FnOnce(&mut ExecCtx), f: impl FnOnce() -> R) -> R {
    let mut ctx = capture();
    edit(&mut ctx);
    enter(ctx, f)
}

/// Runs `f(item)` for every item of `work`, each on its own scoped worker
/// thread, and returns once all have finished. Every worker enters the
/// caller's context with its pool-sibling share multiplied by the worker
/// count, so a call tree behaves the same whether it fans out or not and
/// nested pools divide the host instead of multiplying on it. A worker
/// panic is re-raised on the caller after every worker has joined.
pub fn fan_out<W, F>(work: W, f: F)
where
    W: IntoIterator,
    W::IntoIter: ExactSizeIterator,
    W::Item: Send,
    F: Fn(W::Item) + Sync,
{
    let work = work.into_iter();
    let mut ctx = capture();
    ctx.pool_share = ctx.pool_share.saturating_mul(work.len().max(1));
    let (ctx, f) = (&ctx, &f);
    std::thread::scope(|s| {
        for item in work {
            s.spawn(move || enter(ctx.clone(), || f(item)));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{abft, cancel, except, probe, tune};

    #[test]
    fn capture_and_enter_carry_all_seven_fields() {
        let token = CancelToken::new();
        let heartbeat = Heartbeat::new();
        let tune_cfg = TuneConfig {
            nb_getrf: 17,
            ..TuneConfig::defaults()
        };
        let captured = with(
            |c| {
                c.tune = Some(tune_cfg);
                c.fp_check = Some(FpCheckPolicy::Full);
                c.abft = Some(AbftPolicy::Recover);
                c.probe = Some(ProbePolicy::Counters);
                c.token = Some(token.clone());
                c.heartbeat = Some(heartbeat.clone());
                c.pool_share = 5;
            },
            capture,
        );
        let (seen, share, beats_before) = std::thread::spawn(move || {
            enter(captured, || {
                let seen = (
                    tune::current(),
                    except::policy(),
                    abft::policy(),
                    probe::policy(),
                );
                let share = read(|c| c.pool_share);
                let before = cancel::heartbeat().map(|h| h.beats());
                cancel::current().expect("token entered").cancel();
                assert!(cancel::cancelled(), "the entered token is polled");
                (seen, share, before)
            })
        })
        .join()
        .unwrap();
        assert_eq!(
            seen,
            (
                tune_cfg,
                FpCheckPolicy::Full,
                AbftPolicy::Recover,
                ProbePolicy::Counters
            )
        );
        assert_eq!(share, 5);
        // Token and heartbeat are the caller's own, not copies.
        assert!(token.is_cancelled());
        assert_eq!(beats_before, Some(0));
        assert_eq!(heartbeat.beats(), 1);
    }

    #[test]
    fn global_set_inside_an_unrelated_scope_is_visible() {
        let base = tune::current();
        let probe_cfg = TuneConfig {
            nb_sytrf: 29,
            ..base
        };
        abft::with_policy(AbftPolicy::Verify, || {
            tune::set(probe_cfg);
            assert_eq!(tune::current(), probe_cfg, "tune is not named by the scope");
            assert_eq!(abft::policy(), AbftPolicy::Verify);
            tune::set(base);
        });
    }

    #[test]
    fn panic_inside_enter_restores_the_outer_context() {
        with(
            |c| c.abft = Some(AbftPolicy::Verify),
            || {
                let r = std::panic::catch_unwind(|| {
                    enter(
                        ExecCtx {
                            abft: Some(AbftPolicy::Recover),
                            pool_share: 9,
                            ..ExecCtx::new()
                        },
                        || panic!("boom"),
                    )
                });
                assert!(r.is_err());
                assert_eq!(abft::policy(), AbftPolicy::Verify);
                assert_eq!(read(|c| c.pool_share), 1);
            },
        );
    }

    #[test]
    fn malformed_policy_variables_warn_and_fall_back_to_off() {
        let env = [
            ("LA_ABFT", "recovr"),
            ("LA_FP_CHECK", "ful"),
            ("LA_PROFILE", "spam"),
        ];
        let (g, warnings) = Global::from_env_with(|name| {
            env.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        });
        assert_eq!(g, Global::DEFAULT);
        assert_eq!(warnings.len(), 3, "{warnings:?}");
        for (var, _) in env {
            let w: Vec<_> = warnings.iter().filter(|w| w.starts_with(var)).collect();
            assert_eq!(w.len(), 1, "one warning for {var}: {warnings:?}");
            assert!(w[0].ends_with("using default off"), "{:?}", w[0]);
        }
    }

    #[test]
    fn removed_mixed_level_variable_warns() {
        for value in ["f16", "bf16", "f32"] {
            let (g, warnings) =
                Global::from_env_with(|name| (name == "LA_GESV_MIXED").then(|| value.to_string()));
            assert_eq!(g, Global::DEFAULT);
            assert_eq!(warnings.len(), 1, "{warnings:?}");
            let w = &warnings[0];
            assert!(w.starts_with("LA_GESV_MIXED: removed"), "{w:?}");
            assert!(
                w.contains(value) && w.contains("f32") && w.contains("C32"),
                "{w:?}"
            );
        }
    }

    #[test]
    fn valid_policy_variables_apply_without_diagnostics() {
        let env = [
            ("LA_ABFT", "recover"),
            ("LA_FP_CHECK", "inputs"),
            ("LA_PROFILE", "spans"),
        ];
        let (g, warnings) = Global::from_env_with(|name| {
            env.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        });
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(g.abft, AbftPolicy::Recover);
        assert_eq!(g.fp_check, FpCheckPolicy::ScanInputs);
        assert_eq!(g.probe, ProbePolicy::Spans);
    }
}
