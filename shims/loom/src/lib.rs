//! Offline loom-style deterministic model checker.
//!
//! The real [loom](https://github.com/tokio-rs/loom) simulates the C11
//! memory model state-space; this vendored shim (the build container has
//! no crates.io access) takes the
//! [shuttle](https://github.com/awslabs/shuttle) approach instead:
//! instrumented atomics/locks run on **real OS threads serialized by a
//! cooperative scheduler** — exactly one model thread runs at a time, and
//! every instrumented operation is a *yield point* where the scheduler
//! picks which thread proceeds next. The explored semantics are therefore
//! sequentially consistent; what the checker exhausts is the space of
//! **interleavings**, which is where the table's protocol bugs (ABA,
//! lost-update, use-after-retire, torn-read escapes) live.
//!
//! Two exploration strategies:
//!
//! - [`Strategy::Dfs`] — exhaustive depth-first search over scheduling
//!   choices, bounded by `max_schedules`/`max_steps`. Right for small
//!   protocol kernels (two threads, tens of steps).
//! - [`Strategy::Random`] — seed-derived random walks. Right for whole
//!   data structures where DFS cannot finish; every failing walk prints a
//!   **replayable seed** (rerun with `LOOM_SEED=<seed>`).
//!
//! Blocking primitives — [`sync::Mutex`], [`sync::Condvar`] and
//! `JoinHandle::join` — park a model thread until its condition can hold;
//! when every live thread is parked the schedule fails as a deadlock, so
//! an AB-BA lock order or a lost condvar wakeup is a reported, replayable
//! failure rather than a hang.
//!
//! Outside [`model`]/[`explore`] every instrumented primitive is a
//! zero-cost passthrough to `std`, so code built with `--cfg
//! cuckoo_model` still runs normally when no model is active.
//!
//! Environment overrides honored by [`model`]: `LOOM_SEED` (replay one
//! specific random schedule), `LOOM_SCHEDULES`, `LOOM_MAX_STEPS`.

mod rng;
mod sched;

pub mod hint;
pub mod sync;
pub mod thread;

pub use sched::yield_point;

use std::sync::Arc;

/// Which part of the schedule space to walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Exhaustive bounded depth-first search over scheduler choices.
    Dfs,
    /// `max_schedules` random walks with seeds derived from the base seed.
    Random {
        /// Base seed; schedule `i` runs with `splitmix(base, i)`.
        base_seed: u64,
    },
    /// Replay exactly one random walk from a previously reported seed.
    Replay {
        /// The seed printed by a failing [`Strategy::Random`] run.
        seed: u64,
    },
}

/// Exploration bounds.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// How to pick schedules.
    pub strategy: Strategy,
    /// Maximum number of schedules to execute.
    pub max_schedules: usize,
    /// Maximum yield points per schedule before the run is pruned
    /// (guards against writer-storm spin loops exploding DFS).
    pub max_steps: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            strategy: Strategy::Random { base_seed: 0x5eed_cafe },
            max_schedules: 400,
            max_steps: 50_000,
        }
    }
}

impl Config {
    /// Exhaustive DFS over at most `max_schedules` schedules.
    pub fn dfs(max_schedules: usize) -> Self {
        Config {
            strategy: Strategy::Dfs,
            max_schedules,
            ..Config::default()
        }
    }

    /// `n` random walks from `base_seed`.
    pub fn random(base_seed: u64, n: usize) -> Self {
        Config {
            strategy: Strategy::Random { base_seed },
            max_schedules: n,
            ..Config::default()
        }
    }
}

/// A schedule that violated an invariant (a panic in a model thread or a
/// detected deadlock).
#[derive(Debug)]
pub struct Failure {
    /// Seed reproducing the failing schedule (random/replay strategies).
    pub seed: Option<u64>,
    /// The exact choice sequence of the failing schedule (DFS).
    pub schedule: Vec<usize>,
    /// Panic message, or a deadlock description.
    pub message: String,
    /// Whether the failure was a deadlock (every live thread blocked).
    pub deadlock: bool,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "model checking failed: {}", self.message)?;
        if self.deadlock {
            writeln!(f, "(deadlock: every live thread was blocked)")?;
        }
        match self.seed {
            Some(seed) => write!(
                f,
                "replay with: LOOM_SEED={seed} (schedule length {})",
                self.schedule.len()
            ),
            None => write!(f, "failing DFS choice sequence: {:?}", self.schedule),
        }
    }
}

/// Statistics from a completed exploration.
#[derive(Debug, Default, Clone, Copy)]
pub struct Stats {
    /// Schedules executed to completion.
    pub schedules: usize,
    /// Schedules cut short by the `max_steps` bound.
    pub pruned: usize,
    /// Total yield points across all schedules.
    pub steps: usize,
    /// Whether DFS exhausted the whole space within `max_schedules`.
    pub exhausted: bool,
}

/// Explores schedules of `f` under `config`; `Err` carries the first
/// failing schedule (with its replay seed) without panicking, so tests
/// can assert that the checker *does* catch a seeded bug.
pub fn explore<F>(config: Config, f: F) -> Result<Stats, Failure>
where
    F: Fn() + Send + Sync + 'static,
{
    let f = Arc::new(f);
    let mut stats = Stats::default();
    match config.strategy {
        Strategy::Replay { seed } => {
            run_random_schedule(&f, seed, config.max_steps, &mut stats)?;
            stats.exhausted = false;
            Ok(stats)
        }
        Strategy::Random { base_seed } => {
            for i in 0..config.max_schedules {
                let seed = rng::split_mix(base_seed, i as u64);
                run_random_schedule(&f, seed, config.max_steps, &mut stats)?;
            }
            Ok(stats)
        }
        Strategy::Dfs => {
            // The DFS frontier: choices forced on the next schedule. Each
            // element is (arity, choice) of a past decision point.
            let mut prefix: Vec<(usize, usize)> = Vec::new();
            for _ in 0..config.max_schedules {
                let mut chooser = sched::DfsChooser::new(std::mem::take(&mut prefix));
                let outcome = sched::run_schedule(&f, &mut chooser, config.max_steps);
                stats.schedules += 1;
                stats.steps += outcome.steps;
                if outcome.pruned {
                    stats.pruned += 1;
                }
                let trace = chooser.into_trace();
                if let Some((message, deadlock)) = outcome.failure {
                    return Err(Failure {
                        seed: None,
                        schedule: trace.iter().map(|&(_, c)| c).collect(),
                        message,
                        deadlock,
                    });
                }
                match sched::next_dfs_prefix(trace) {
                    Some(next) => prefix = next,
                    None => {
                        stats.exhausted = true;
                        return Ok(stats);
                    }
                }
            }
            Ok(stats)
        }
    }
}

fn run_random_schedule<F>(
    f: &Arc<F>,
    seed: u64,
    max_steps: usize,
    stats: &mut Stats,
) -> Result<(), Failure>
where
    F: Fn() + Send + Sync + 'static,
{
    let mut chooser = sched::RandomChooser::new(seed);
    let outcome = sched::run_schedule(f, &mut chooser, max_steps);
    stats.schedules += 1;
    stats.steps += outcome.steps;
    if outcome.pruned {
        stats.pruned += 1;
    }
    if let Some((message, deadlock)) = outcome.failure {
        return Err(Failure {
            seed: Some(seed),
            schedule: chooser.trace,
            message,
            deadlock,
        });
    }
    Ok(())
}

/// Explores `f` with [`Config::default`] (or `LOOM_*` environment
/// overrides) and panics with a replayable report on failure — the
/// loom-compatible entry point for model tests.
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    model_with(config_from_env(Config::default()), f);
}

/// [`model`] with an explicit base config (still env-overridable).
pub fn model_with<F>(config: Config, f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    if let Err(failure) = explore(config_from_env(config), f) {
        panic!("{failure}");
    }
}

/// Applies `LOOM_SEED` / `LOOM_SCHEDULES` / `LOOM_MAX_STEPS` overrides.
pub fn config_from_env(mut config: Config) -> Config {
    if let Some(seed) = env_u64("LOOM_SEED") {
        config.strategy = Strategy::Replay { seed };
        config.max_schedules = 1;
    }
    if let Some(n) = env_u64("LOOM_SCHEDULES") {
        config.max_schedules = n as usize;
    }
    if let Some(n) = env_u64("LOOM_MAX_STEPS") {
        config.max_steps = n as usize;
    }
    config
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Classic lost-update race: two unsynchronized read-modify-writes.
    /// DFS must find the interleaving where both threads read 0.
    #[test]
    fn dfs_finds_lost_update() {
        let failure = explore(Config::dfs(10_000), || {
            let cell = Arc::new(sync::atomic::AtomicUsize::new(0));
            let t: Vec<_> = (0..2)
                .map(|_| {
                    let cell = Arc::clone(&cell);
                    thread::spawn(move || {
                        let v = cell.load(Ordering::SeqCst);
                        cell.store(v + 1, Ordering::SeqCst);
                    })
                })
                .collect();
            for h in t {
                h.join().unwrap();
            }
            assert_eq!(cell.load(Ordering::SeqCst), 2, "lost update");
        })
        .expect_err("DFS must find the lost-update interleaving");
        assert!(failure.message.contains("lost update"));
        assert!(!failure.deadlock);
    }

    #[test]
    fn random_finds_lost_update_and_seed_replays() {
        let body = || {
            let cell = Arc::new(sync::atomic::AtomicUsize::new(0));
            let t: Vec<_> = (0..2)
                .map(|_| {
                    let cell = Arc::clone(&cell);
                    thread::spawn(move || {
                        let v = cell.load(Ordering::SeqCst);
                        cell.store(v + 1, Ordering::SeqCst);
                    })
                })
                .collect();
            for h in t {
                h.join().unwrap();
            }
            assert_eq!(cell.load(Ordering::SeqCst), 2, "lost update");
        };
        let failure = explore(Config::random(7, 500), body).expect_err("random walk finds it");
        let seed = failure.seed.expect("random failures carry a seed");
        // The reported seed deterministically reproduces the failure.
        let replayed = explore(
            Config {
                strategy: Strategy::Replay { seed },
                max_schedules: 1,
                ..Config::default()
            },
            body,
        )
        .expect_err("replay must reproduce");
        assert_eq!(replayed.seed, Some(seed));
    }

    #[test]
    fn correct_cas_loop_passes_dfs() {
        explore(Config::dfs(20_000), || {
            let cell = Arc::new(sync::atomic::AtomicUsize::new(0));
            let t: Vec<_> = (0..2)
                .map(|_| {
                    let cell = Arc::clone(&cell);
                    thread::spawn(move || {
                        let mut v = cell.load(Ordering::SeqCst);
                        while let Err(cur) = cell.compare_exchange(
                            v,
                            v + 1,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        ) {
                            v = cur;
                        }
                    })
                })
                .collect();
            for h in t {
                h.join().unwrap();
            }
            assert_eq!(cell.load(Ordering::SeqCst), 2);
        })
        .expect("CAS increment has no failing interleaving");
    }

    #[test]
    fn mutex_provides_mutual_exclusion() {
        explore(Config::dfs(20_000), || {
            let m = Arc::new(sync::Mutex::new(0usize));
            let t: Vec<_> = (0..2)
                .map(|_| {
                    let m = Arc::clone(&m);
                    thread::spawn(move || {
                        let mut g = m.lock().unwrap();
                        *g += 1;
                    })
                })
                .collect();
            for h in t {
                h.join().unwrap();
            }
            assert_eq!(*m.lock().unwrap(), 2);
        })
        .expect("mutex counter cannot lose updates");
    }

    #[test]
    fn deadlock_is_detected_and_reported() {
        let failure = explore(Config::dfs(10_000), || {
            let a = Arc::new(sync::Mutex::new(()));
            let b = Arc::new(sync::Mutex::new(()));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let t1 = thread::spawn(move || {
                let _ga = a2.lock().unwrap();
                let _gb = b2.lock().unwrap();
            });
            let (a3, b3) = (Arc::clone(&a), Arc::clone(&b));
            let t2 = thread::spawn(move || {
                let _gb = b3.lock().unwrap();
                let _ga = a3.lock().unwrap();
            });
            let _ = t1.join();
            let _ = t2.join();
        })
        .expect_err("AB-BA locking must deadlock in some schedule");
        assert!(failure.deadlock, "failure should be a deadlock: {failure}");
    }

    /// Explores `body` with random walks, expects a deadlock, and checks
    /// that the reported seed replays it.
    fn assert_deadlocks_and_replays(body: impl Fn() + Send + Sync + Clone + 'static) {
        let failure =
            explore(Config::random(0x10_57, 200), body.clone()).expect_err("a lost wakeup exists");
        assert!(failure.deadlock, "a lost wakeup is a deadlock: {failure}");
        let seed = failure.seed.expect("random failures carry a seed");
        let replayed = explore(
            Config {
                strategy: Strategy::Replay { seed },
                max_schedules: 1,
                ..Config::default()
            },
            body,
        )
        .expect_err("replay must reproduce");
        assert!(replayed.deadlock, "{replayed}");
    }

    /// The waiter checks its condition before taking the lock: the
    /// notifier can set it and notify in between, and the wait that
    /// follows is never woken.
    #[test]
    fn condition_checked_outside_the_lock_loses_the_wakeup() {
        assert_deadlocks_and_replays(|| {
            let ready = Arc::new(sync::atomic::AtomicBool::new(false));
            let pair = Arc::new((sync::Mutex::new(()), sync::Condvar::new()));
            let waiter = {
                let (ready, pair) = (Arc::clone(&ready), Arc::clone(&pair));
                thread::spawn(move || {
                    if !ready.load(Ordering::SeqCst) {
                        let g = pair.0.lock().unwrap();
                        drop(pair.1.wait(g).unwrap());
                    }
                })
            };
            ready.store(true, Ordering::SeqCst);
            pair.1.notify_all();
            waiter.join().unwrap();
        });
    }

    /// The waiter checks under the lock, but the notifier sets the
    /// condition and notifies without it: both can land between the
    /// check and the wait.
    #[test]
    fn a_notifier_that_skips_the_lock_loses_the_wakeup() {
        assert_deadlocks_and_replays(|| {
            let ready = Arc::new(sync::atomic::AtomicBool::new(false));
            let pair = Arc::new((sync::Mutex::new(()), sync::Condvar::new()));
            let waiter = {
                let (ready, pair) = (Arc::clone(&ready), Arc::clone(&pair));
                thread::spawn(move || {
                    let mut g = pair.0.lock().unwrap();
                    while !ready.load(Ordering::SeqCst) {
                        g = pair.1.wait(g).unwrap();
                    }
                })
            };
            ready.store(true, Ordering::SeqCst);
            pair.1.notify_all();
            waiter.join().unwrap();
        });
    }

    /// The waiter waits without a condition: a notify that comes first
    /// wakes no one, and the wait after it parks for good.
    #[test]
    fn a_notify_before_the_wait_is_lost() {
        assert_deadlocks_and_replays(|| {
            let pair = Arc::new((sync::Mutex::new(()), sync::Condvar::new()));
            let waiter = {
                let pair = Arc::clone(&pair);
                thread::spawn(move || {
                    let g = pair.0.lock().unwrap();
                    drop(pair.1.wait(g).unwrap());
                })
            };
            pair.1.notify_all();
            waiter.join().unwrap();
        });
    }

    /// The condition lives under the mutex, the waiter re-checks it in a
    /// loop, and the notifier sets it under the lock: every schedule
    /// hands off.
    #[test]
    fn condvar_handoff_passes_dfs() {
        let stats = explore(Config::dfs(10_000), || {
            let pair = Arc::new((sync::Mutex::new(false), sync::Condvar::new()));
            let waiter = {
                let pair = Arc::clone(&pair);
                thread::spawn(move || {
                    let mut ready = pair.0.lock().unwrap();
                    while !*ready {
                        ready = pair.1.wait(ready).unwrap();
                    }
                })
            };
            *pair.0.lock().unwrap() = true;
            pair.1.notify_all();
            waiter.join().unwrap();
        })
        .expect("a handoff under the lock cannot lose its wakeup");
        assert!(stats.exhausted, "{stats:?}");
    }

    /// Outside a model the condvar is std's: real threads block and wake.
    #[test]
    fn condvar_works_with_real_threads_outside_a_model() {
        let pair = Arc::new((sync::Mutex::new(0u32), sync::Condvar::new()));
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let pair = Arc::clone(&pair);
                std::thread::spawn(move || {
                    let mut n = pair.0.lock().unwrap();
                    while *n == 0 {
                        n = pair.1.wait(n).unwrap();
                    }
                    *n
                })
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(10));
        *pair.0.lock().unwrap() = 7;
        pair.1.notify_all();
        for w in waiters {
            assert_eq!(w.join().unwrap(), 7);
        }
    }

    /// A timed wait nothing notifies times out: it is never reported as
    /// a deadlock, however long its timeout.
    #[test]
    fn an_unnotified_timed_wait_times_out_and_is_no_deadlock() {
        let stats = explore(Config::dfs(100), || {
            let pair = Arc::new((sync::Mutex::new(()), sync::Condvar::new()));
            let waiter = {
                let pair = Arc::clone(&pair);
                thread::spawn(move || {
                    let g = pair.0.lock().unwrap();
                    let (_g, r) = pair.1.wait_timeout(g, std::time::Duration::from_secs(3600)).unwrap();
                    assert!(r.timed_out(), "woken with no notifier");
                })
            };
            waiter.join().unwrap();
        })
        .expect("a timed wait must time out, not deadlock");
        assert!(stats.exhausted, "{stats:?}");
    }

    /// A notify wakes a timed waiter, and the wait may also time out
    /// first: DFS sees both outcomes, and every schedule terminates.
    #[test]
    fn a_timed_wait_is_woken_by_a_notify_or_times_out() {
        let seen = Arc::new(std::sync::Mutex::new(std::collections::BTreeSet::new()));
        let stats = {
            let seen = Arc::clone(&seen);
            explore(Config::dfs(10_000), move || {
                let pair = Arc::new((sync::Mutex::new(false), sync::Condvar::new()));
                let waiter = {
                    let pair = Arc::clone(&pair);
                    thread::spawn(move || {
                        let g = pair.0.lock().unwrap();
                        if *g {
                            return None;
                        }
                        let (g, r) = pair.1.wait_timeout(g, std::time::Duration::from_secs(3600)).unwrap();
                        assert!(r.timed_out() || *g, "woken with the condition unset");
                        Some(r.timed_out())
                    })
                };
                *pair.0.lock().unwrap() = true;
                pair.1.notify_all();
                seen.lock().unwrap().insert(waiter.join().unwrap());
            })
            .expect("a timed wait must end by a notify or a time-out")
        };
        assert!(stats.exhausted, "{stats:?}");
        let seen: Vec<_> = seen.lock().unwrap().iter().copied().collect();
        assert_eq!(seen, [None, Some(false), Some(true)], "missing outcome");
    }

    /// Outside a model `wait_timeout` is std's: it times out on real
    /// time, and a notify ends it early.
    #[test]
    fn wait_timeout_works_with_real_threads_outside_a_model() {
        let pair = Arc::new((sync::Mutex::new(false), sync::Condvar::new()));
        let g = pair.0.lock().unwrap();
        let (g, r) = pair.1.wait_timeout(g, std::time::Duration::from_millis(5)).unwrap();
        assert!(r.timed_out());
        let notifier = {
            let pair = Arc::clone(&pair);
            std::thread::spawn(move || {
                *pair.0.lock().unwrap() = true;
                pair.1.notify_all();
            })
        };
        let mut g = g;
        while !*g {
            let (next, r) = pair.1.wait_timeout(g, std::time::Duration::from_secs(60)).unwrap();
            assert!(!r.timed_out(), "the notify did not end the wait");
            g = next;
        }
        drop(g);
        notifier.join().unwrap();
    }

    #[test]
    fn passthrough_outside_model() {
        // Instrumented primitives must work normally with no model active.
        let x = sync::atomic::AtomicUsize::new(1);
        assert_eq!(x.fetch_add(1, Ordering::SeqCst), 1);
        let m = sync::Mutex::new(5);
        assert_eq!(*m.lock().unwrap(), 5);
        yield_point(); // no-op
        static _CONST_CTOR: sync::atomic::AtomicUsize = sync::atomic::AtomicUsize::new(0);
    }

    #[test]
    fn spawned_threads_return_values_through_join() {
        explore(Config::dfs(1_000), || {
            let h = thread::spawn(|| 42usize);
            assert_eq!(h.join().unwrap(), 42);
        })
        .expect("trivial spawn/join");
    }

    /// A schedule that runs out of `max_steps` while a model thread
    /// holds a guard whose `Drop` stores to an instrumented atomic is
    /// pruned and counted, not turned into a process abort: the guard
    /// drops during the [`sched::ModelAbort`] unwind.
    #[test]
    fn pruned_schedule_unwinds_through_a_guard_that_touches_an_atomic() {
        struct Guard(Arc<sync::atomic::AtomicUsize>);
        impl Drop for Guard {
            fn drop(&mut self) {
                self.0.store(0, Ordering::SeqCst);
            }
        }
        let spin = |flag: &sync::atomic::AtomicUsize| {
            while flag.load(Ordering::SeqCst) != usize::MAX {}
        };
        let stats = explore(Config { max_steps: 200, ..Config::random(0x9a4d, 8) }, move || {
            let flag = Arc::new(sync::atomic::AtomicUsize::new(1));
            let t = {
                let flag = Arc::clone(&flag);
                thread::spawn(move || {
                    let _held = Guard(Arc::clone(&flag));
                    spin(&flag);
                })
            };
            spin(&flag);
            let _ = t.join();
        })
        .expect("a pruned schedule is not a failure");
        assert_eq!(stats.pruned, 8, "{stats:?}");
    }

    /// A schedule pruned before a spawned thread was ever granted the
    /// CPU still finishes that thread: DFS's first schedule keeps
    /// choosing the spinning root, so the child meets the teardown while
    /// it waits for its first grant.
    #[test]
    fn pruned_schedule_finishes_a_thread_never_granted() {
        let stats = explore(Config { max_steps: 200, ..Config::dfs(1) }, || {
            let flag = Arc::new(sync::atomic::AtomicUsize::new(0));
            let t = thread::spawn(|| ());
            while flag.load(Ordering::SeqCst) == 0 {}
            let _ = t.join();
        })
        .expect("a pruned schedule is not a failure");
        assert_eq!(stats.pruned, 1, "{stats:?}");
    }

    /// A three-thread interleaving bug: needs depth, exercises the
    /// scheduler beyond pairs.
    #[test]
    fn three_thread_aba_is_found() {
        let failure = explore(Config::random(0xaba, 2_000), || {
            // A tiny freelist ABA: slot state FREE(0)/USED(1); a buggy
            // "delete" frees the slot before checking ownership.
            let state = Arc::new(sync::atomic::AtomicUsize::new(1));
            let frees = Arc::new(AtomicUsize::new(0)); // raw std: metadata only
            let t1 = {
                let (state, frees) = (Arc::clone(&state), Arc::clone(&frees));
                thread::spawn(move || {
                    // Buggy delete: unconditional free.
                    state.store(0, Ordering::SeqCst);
                    frees.fetch_add(1, Ordering::SeqCst);
                })
            };
            let t2 = {
                let (state, frees) = (Arc::clone(&state), Arc::clone(&frees));
                thread::spawn(move || {
                    // Evictor: claim USED -> free it.
                    if state
                        .compare_exchange(1, 0, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        frees.fetch_add(1, Ordering::SeqCst);
                    }
                })
            };
            t1.join().unwrap();
            t2.join().unwrap();
            assert!(
                frees.load(Ordering::SeqCst) <= 1,
                "slot freed twice (ABA)"
            );
        })
        .expect_err("double-free interleaving exists");
        assert!(failure.message.contains("freed twice"));
    }
}
