//! Batched-job dispatch — the work-stealing engine under the batched
//! BLAS/LAPACK entry points (`gemm_batch`, `gesv_batch`, `posv_batch`)
//! and the `la-serve` queue workers.
//!
//! The batch workload (BLASFEO, arXiv:1902.08115: many independent
//! small-to-medium problems) wants one pool of workers pulling jobs off a
//! shared queue, not one thread per job. This module provides exactly
//! that, with the robustness contract a serving layer needs:
//!
//! * **Work stealing** — items are handed out one at a time from a shared
//!   queue, so a worker that drew a large system does not stall siblings
//!   holding small ones.
//! * **Context inheritance** — workers are spawned through
//!   [`crate::ctx::fan_out`], so each runs under the calling thread's
//!   execution context (tune config, policies, cancel token, heartbeat)
//!   and a batch behaves exactly like a loop of sequential calls under
//!   the same scopes.
//! * **Panic isolation** — a job that panics is caught at the job
//!   boundary and recorded as [`crate::cancel::INFO_PANICKED`] (`-104`);
//!   the worker moves on to the next job and sibling jobs never notice.
//! * **Per-job fault scoping** — every job runs inside
//!   [`crate::abft::job_scope`], so a soft fault detected in one job
//!   surfaces as that job's `INFO = -102` and can never leak into a
//!   sibling that happens to run next on the same worker.
//! * **Cooperative cancellation** — a cancelled token (or passed
//!   deadline) makes not-yet-started jobs return
//!   [`crate::cancel::INFO_CANCELLED`] (`-103`) immediately, and
//!   in-flight factorizations abandon at their next panel checkpoint.
//! * **No oversubscription** — [`crate::ctx::fan_out`] multiplies each
//!   worker's pool share by the worker count, so striped BLAS-3 opened
//!   *inside* a job divides the host cores by the worker count instead of
//!   multiplying with it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use crate::{abft, cancel, ctx, tune};

/// `INFO` code recorded for a job whose computation returned clean but
/// left a parked ABFT soft fault behind (the batched analog of the
/// `erinfo` drain): the job's answer failed checksum verification and was
/// not repaired.
pub const INFO_SOFT_FAULT: i32 = -102;

/// Runs `job` once per item of `items` across a pool of work-stealing
/// workers and returns one raw `INFO` code per item, position-matched.
///
/// `job(index, item)` computes item `index` in place and returns its raw
/// `INFO` (the usual LAPACK convention plus the extension codes). The
/// dispatcher additionally yields, per item:
///
/// * [`cancel::INFO_CANCELLED`] (`-103`) — the inherited cancel token was
///   already tripped when the item came up (the job never ran), or the
///   job observed it at a checkpoint and returned the code itself;
/// * [`cancel::INFO_PANICKED`] (`-104`) — the job panicked; the panic was
///   swallowed at the job boundary and the item's output is unspecified;
/// * [`INFO_SOFT_FAULT`] (`-102`) — the job returned `0` but parked an
///   unrepaired ABFT soft fault.
///
/// The worker count is the [`tune`] thread budget clamped to the item
/// count; with a budget of 1 (or a single item) everything runs inline on
/// the calling thread — same contract, no spawning. Workers inherit the
/// calling thread's execution context and register as pool siblings
/// (see [`ctx::fan_out`]), so nested striped BLAS-3 does not
/// oversubscribe the host.
pub fn run_batch<T, F>(items: &mut [T], job: F) -> Vec<i32>
where
    T: Send,
    F: Fn(usize, &mut T) -> i32 + Sync,
{
    let n = items.len();
    let mut infos = vec![0i32; n];
    if n == 0 {
        return infos;
    }
    let workers = tune::current().threads().min(n).max(1);

    // One item, fully isolated: cancel gate, panic boundary, fault scope.
    let run_one = |idx: usize, item: &mut T, slot: &mut i32| {
        *slot = abft::job_scope(|| {
            if cancel::cancelled() {
                return cancel::INFO_CANCELLED;
            }
            match catch_unwind(AssertUnwindSafe(|| job(idx, item))) {
                Ok(0) => match abft::take_pending() {
                    Some(_) => INFO_SOFT_FAULT,
                    None => 0,
                },
                Ok(info) => info,
                Err(_) => cancel::INFO_PANICKED,
            }
        });
    };

    if workers == 1 {
        // Inline path: the caller's scoped policies are already in effect.
        for (idx, (item, slot)) in items.iter_mut().zip(infos.iter_mut()).enumerate() {
            run_one(idx, item, slot);
        }
        return infos;
    }

    let queue = Mutex::new(items.iter_mut().zip(infos.iter_mut()).enumerate());
    ctx::fan_out(0..workers, |_| loop {
        let next = queue.lock().unwrap_or_else(|e| e.into_inner()).next();
        let Some((idx, (item, slot))) = next else {
            return;
        };
        run_one(idx, item, slot);
    });
    infos
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Keeps expected job panics from spraying the test output: the
    /// default hook prints every panic, and these tests panic on purpose.
    fn quiet_expected_panics() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let msg = info.payload().downcast_ref::<&str>().copied();
                if msg != Some("job 5 dies") {
                    prev(info);
                }
            }));
        });
    }

    fn wide() -> tune::TuneConfig {
        tune::TuneConfig {
            max_threads: 4,
            oversubscribe: true,
            ..tune::TuneConfig::defaults()
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let mut items: Vec<usize> = (0..37).collect();
        let infos = tune::with(wide(), || {
            run_batch(&mut items, |idx, item| {
                *item += idx; // item i becomes 2i
                0
            })
        });
        assert_eq!(infos, vec![0; 37]);
        for (i, v) in items.iter().enumerate() {
            assert_eq!(*v, 2 * i);
        }
    }

    #[test]
    fn panic_poisons_only_its_job() {
        quiet_expected_panics();
        let mut items: Vec<usize> = (0..16).collect();
        let infos = tune::with(wide(), || {
            run_batch(&mut items, |idx, item| {
                if idx == 5 {
                    panic!("job 5 dies");
                }
                *item = 100 + idx;
                0
            })
        });
        for (idx, info) in infos.iter().enumerate() {
            if idx == 5 {
                assert_eq!(*info, cancel::INFO_PANICKED);
            } else {
                assert_eq!(*info, 0, "sibling job {idx} must be unaffected");
                assert_eq!(items[idx], 100 + idx);
            }
        }
    }

    #[test]
    fn cancelled_token_short_circuits_remaining_jobs() {
        let token = cancel::CancelToken::new();
        token.cancel();
        let mut items = vec![0usize; 8];
        let infos = cancel::with_token(token, || {
            tune::with(wide(), || {
                run_batch(&mut items, |_, item| {
                    *item = 1;
                    0
                })
            })
        });
        assert_eq!(infos, vec![cancel::INFO_CANCELLED; 8]);
        assert_eq!(items, vec![0usize; 8], "cancelled jobs never ran");
    }

    #[test]
    fn workers_stamp_the_callers_heartbeat() {
        let hb = cancel::Heartbeat::new();
        let mut items = vec![(); 12];
        cancel::with_heartbeat(hb.clone(), || {
            tune::with(wide(), || run_batch(&mut items, |_, _| 0))
        });
        assert!(
            hb.beats() >= 12,
            "every item's cancel checkpoint stamps the inherited heartbeat \
             (saw {} beats for 12 items)",
            hb.beats()
        );
    }

    #[test]
    fn job_info_codes_come_back_position_matched() {
        let mut items: Vec<i32> = (0..10).collect();
        let infos = tune::with(wide(), || {
            run_batch(
                &mut items,
                |idx, _| if idx % 3 == 0 { idx as i32 + 1 } else { 0 },
            )
        });
        for (idx, info) in infos.iter().enumerate() {
            let want = if idx % 3 == 0 { idx as i32 + 1 } else { 0 };
            assert_eq!(*info, want);
        }
    }

    #[test]
    fn parked_soft_fault_becomes_minus_102_for_that_job_only() {
        let mut items = vec![(); 6];
        let infos = tune::with(wide(), || {
            run_batch(&mut items, |idx, _| {
                if idx == 2 {
                    abft::raise("gemm", 7); // detected, never repaired
                }
                0
            })
        });
        for (idx, info) in infos.iter().enumerate() {
            let want = if idx == 2 { INFO_SOFT_FAULT } else { 0 };
            assert_eq!(*info, want, "job {idx}");
        }
        assert_eq!(abft::take_pending(), None, "nothing leaks to the caller");
    }

    #[test]
    fn workers_inherit_scoped_overrides() {
        let seen = AtomicUsize::new(0);
        let mut items = vec![(); 8];
        let cfg = tune::TuneConfig {
            max_threads: 2,
            oversubscribe: true,
            nb_getrf: 17,
            ..tune::TuneConfig::defaults()
        };
        tune::with(cfg, || {
            abft::with_policy(abft::AbftPolicy::Verify, || {
                run_batch(&mut items, |_, _| {
                    if tune::current().nb_getrf == 17 && abft::policy() == abft::AbftPolicy::Verify
                    {
                        seen.fetch_add(1, Ordering::Relaxed);
                    }
                    0
                });
            })
        });
        assert_eq!(seen.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn nested_blas_threads_are_clamped_inside_workers() {
        let host = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        let cfg = tune::TuneConfig {
            max_threads: host.max(2),
            oversubscribe: false,
            ..tune::TuneConfig::defaults()
        };
        let workers = cfg.threads().clamp(1, 4);
        let max_seen = AtomicUsize::new(0);
        let mut items = vec![(); 4];
        tune::with(cfg, || {
            run_batch(&mut items, |_, _| {
                max_seen.fetch_max(tune::current().threads(), Ordering::Relaxed);
                0
            })
        });
        if workers > 1 {
            assert!(
                max_seen.load(Ordering::Relaxed) * workers <= host.max(workers),
                "worker-count × stripe-budget must not exceed host cores \
                 (saw {} per worker × {workers} workers on {host} cores)",
                max_seen.load(Ordering::Relaxed)
            );
        }
    }

    #[test]
    fn pool_share_multiplies_across_the_thread_boundary() {
        // Regression: spawned workers used to start over at share 1, so
        // nested pools did not divide the host across threads.
        let seen = Mutex::new(Vec::new());
        let mut items = vec![(); 2];
        let cfg = tune::TuneConfig {
            max_threads: 2,
            oversubscribe: true,
            ..tune::TuneConfig::defaults()
        };
        tune::in_pool_worker(3, || {
            tune::with(cfg, || {
                run_batch(&mut items, |_, _| {
                    seen.lock().unwrap().push(ctx::capture().pool_share);
                    0
                })
            })
        });
        assert_eq!(seen.into_inner().unwrap(), vec![6, 6]);
    }
}
