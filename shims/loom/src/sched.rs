//! The serializing cooperative scheduler.
//!
//! One schedule = one execution of the model closure. Every model thread
//! is a real OS thread, but at most one is ever *running*: the rest are
//! parked inside [`yield_point`] waiting for a grant. The controller (the
//! thread that called `explore`) repeatedly picks a runnable thread,
//! grants it, and waits for it to report back — paused at its next yield
//! point, blocked on a mutex, a condvar or a join, or finished.
//! Scheduling decisions are delegated to a [`Chooser`], which is where
//! DFS/random/replay live.

use crate::rng::XorShift;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

/// Panic payload used to force parked threads to unwind when a schedule
/// is aborted (failure elsewhere or step budget exhausted). Never
/// reported as a model failure.
pub(crate) struct ModelAbort;

/// What a model thread is doing, from the scheduler's point of view.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    Runnable,
    /// Waiting for the mutex keyed by this address to be released.
    BlockedOnMutex(usize),
    /// Waiting on the condvar keyed by this address until notified.
    BlockedOnCondvar(usize),
    /// A timed wait on the condvar keyed by this address: woken by a
    /// notify, or by the scheduler granting it (a time-out), so it is
    /// always schedulable and never part of a deadlock.
    TimedWaitOnCondvar(usize),
    /// Waiting for thread `tid` to finish (a `join`).
    BlockedOnThread(usize),
    Finished,
}

impl Status {
    /// Whether the controller may grant the thread: it is runnable, or
    /// in a timed wait that may time out now.
    fn schedulable(self) -> bool {
        matches!(self, Status::Runnable | Status::TimedWaitOnCondvar(_))
    }
}

struct State {
    threads: Vec<Status>,
    /// The thread currently granted the CPU, if any.
    running: Option<usize>,
    /// Mutex ownership: address of the model `Mutex` -> holder tid.
    locks: HashMap<usize, usize>,
    /// First failure (panic message, was_deadlock).
    failure: Option<(String, bool)>,
    /// The thread last granted out of a timed wait, i.e. timed out.
    timed_out: Option<usize>,
    /// Set when the controller is tearing the schedule down; parked
    /// threads unwind with [`ModelAbort`] when they observe it.
    abort: bool,
    steps: usize,
    /// Step budget, mirrored here so the fast path in
    /// [`Shared::pause_and_wait`] can prune without the controller.
    max_steps: usize,
}

pub(crate) struct Shared {
    state: Mutex<State>,
    /// Model threads wait here for their grant.
    thread_cv: Condvar,
    /// The controller waits here for the granted thread to report back.
    ctrl_cv: Condvar,
}

thread_local! {
    /// Registration of the current OS thread as a model thread.
    static CURRENT: std::cell::RefCell<Option<(Arc<Shared>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

fn current() -> Option<(Arc<Shared>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

/// A scheduling point. Inside a model this parks the calling thread until
/// the scheduler grants it the next step; outside any model it is a
/// no-op. Instrumented primitives call this before every shared-memory
/// operation.
///
/// A thread that is unwinding — a [`ModelAbort`] tearing its schedule
/// down, or a model failure — does not yield: a guard whose `Drop`
/// touches an instrumented atomic would otherwise re-enter the
/// scheduler, meet the abort, and panic inside a panic, which aborts
/// the process.
#[inline]
pub fn yield_point() {
    if std::thread::panicking() {
        return;
    }
    if let Some((shared, id)) = current() {
        shared.pause_and_wait(id);
    }
}

/// Whether the calling thread is a registered model thread.
#[inline]
pub(crate) fn in_model() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

impl Shared {
    fn new(max_steps: usize) -> Arc<Self> {
        Arc::new(Shared {
            state: Mutex::new(State {
                threads: Vec::new(),
                running: None,
                locks: HashMap::new(),
                failure: None,
                timed_out: None,
                abort: false,
                steps: 0,
                max_steps,
            }),
            thread_cv: Condvar::new(),
            ctrl_cv: Condvar::new(),
        })
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, State> {
        // The scheduler's own mutex: a panicking model thread poisons it
        // only while holding it, which the wrapper never does.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Ends the calling thread's step and waits for its next grant.
    ///
    /// Fast path: when no *other* thread is runnable there is no
    /// scheduling decision to make (arity-1 choices don't branch the
    /// DFS), so the thread keeps the CPU without a controller
    /// round-trip. Steps still count so runaway spin loops hit the
    /// `max_steps` prune instead of hanging the exploration.
    fn pause_and_wait(&self, id: usize) {
        let mut st = self.lock_state();
        debug_assert_eq!(st.running, Some(id), "pause from a non-running thread");
        let others_runnable = st
            .threads
            .iter()
            .enumerate()
            .any(|(i, t)| i != id && t.schedulable());
        if !others_runnable && !st.abort && st.steps < st.max_steps {
            st.steps += 1;
            return;
        }
        st.running = None;
        self.ctrl_cv.notify_one();
        self.wait_for_grant(st, id);
    }

    /// Parks until `running == id`; unwinds with [`ModelAbort`] on abort.
    fn wait_for_grant(&self, mut st: std::sync::MutexGuard<'_, State>, id: usize) {
        loop {
            if st.abort {
                drop(st);
                std::panic::panic_any(ModelAbort);
            }
            if st.running == Some(id) {
                return;
            }
            st = self
                .thread_cv
                .wait(st)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Ends the step marking the thread blocked (on a mutex, a condvar or
    /// a join);
    /// the controller will re-grant it once the condition can hold.
    fn block_and_wait(&self, id: usize, status: Status) {
        let mut st = self.lock_state();
        debug_assert_eq!(st.running, Some(id));
        st.threads[id] = status;
        st.running = None;
        self.ctrl_cv.notify_one();
        self.wait_for_grant(st, id);
    }

    /// Mutex acquisition protocol: retried each time the thread is
    /// granted, blocking in between. Returns once the lock is owned.
    pub(crate) fn lock_mutex(&self, id: usize, addr: usize) {
        loop {
            yield_point();
            let mut st = self.lock_state();
            if let std::collections::hash_map::Entry::Vacant(e) = st.locks.entry(addr) {
                e.insert(id);
                return;
            }
            drop(st);
            self.block_and_wait(id, Status::BlockedOnMutex(addr));
        }
    }

    /// Non-blocking acquisition attempt.
    pub(crate) fn try_lock_mutex(&self, id: usize, addr: usize) -> bool {
        yield_point();
        let mut st = self.lock_state();
        if let std::collections::hash_map::Entry::Vacant(e) = st.locks.entry(addr) {
            e.insert(id);
            true
        } else {
            false
        }
    }

    pub(crate) fn unlock_mutex(&self, id: usize, addr: usize) {
        let mut st = self.lock_state();
        let holder = st.locks.remove(&addr);
        debug_assert_eq!(holder, Some(id), "unlock of a mutex we do not hold");
        // Blocked threads become runnable; they re-race for the lock when
        // next granted (the controller may interleave another acquirer
        // first, which is exactly the nondeterminism we want to explore).
        for t in st.threads.iter_mut() {
            if *t == Status::BlockedOnMutex(addr) {
                *t = Status::Runnable;
            }
        }
    }

    /// Condvar wait: the caller has released its mutex; it parks until a
    /// [`notify_condvar`](Self::notify_condvar) on `addr`.
    pub(crate) fn wait_condvar(&self, id: usize, addr: usize) {
        self.block_and_wait(id, Status::BlockedOnCondvar(addr));
    }

    /// Timed condvar wait: as [`wait_condvar`](Self::wait_condvar), but
    /// the scheduler may also grant the thread before any notify, at any
    /// scheduling point. Returns whether it timed out.
    pub(crate) fn wait_condvar_timeout(&self, id: usize, addr: usize) -> bool {
        self.block_and_wait(id, Status::TimedWaitOnCondvar(addr));
        self.lock_state().timed_out.take() == Some(id)
    }

    /// Makes every waiter on the condvar at `addr` runnable.
    pub(crate) fn notify_condvar(&self, addr: usize) {
        yield_point();
        let mut st = self.lock_state();
        for t in st.threads.iter_mut() {
            if matches!(*t, Status::BlockedOnCondvar(a) | Status::TimedWaitOnCondvar(a) if a == addr) {
                *t = Status::Runnable;
            }
        }
    }

    /// Join protocol: block until `target` finishes.
    pub(crate) fn join_thread(&self, id: usize, target: usize) {
        loop {
            yield_point();
            let st = self.lock_state();
            if st.threads[target] == Status::Finished {
                return;
            }
            drop(st);
            self.block_and_wait(id, Status::BlockedOnThread(target));
        }
    }

    /// Registers a new model thread (caller provides the body wrapper).
    pub(crate) fn register_thread(self: &Arc<Self>) -> usize {
        let mut st = self.lock_state();
        st.threads.push(Status::Runnable);
        st.threads.len() - 1
    }

    /// Body executed by every model OS thread.
    pub(crate) fn run_thread_body<F: FnOnce()>(self: Arc<Self>, id: usize, f: F) {
        CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&self), id)));
        let result = catch_unwind(AssertUnwindSafe(|| {
            // Wait for the first grant before touching any shared state:
            // a freshly spawned thread is not yet running, so it waits
            // without reporting a pause (it never had the CPU). A
            // schedule torn down before the grant unwinds from here, and
            // the thread still finishes.
            self.wait_for_grant(self.lock_state(), id);
            f()
        }));
        let mut st = self.lock_state();
        st.threads[id] = Status::Finished;
        if let Err(payload) = result {
            if !payload.is::<ModelAbort>() {
                let message = panic_message(payload.as_ref());
                st.failure.get_or_insert((message, false));
            }
        }
        // Joiners waiting on us become runnable.
        for t in st.threads.iter_mut() {
            if *t == Status::BlockedOnThread(id) {
                *t = Status::Runnable;
            }
        }
        st.running = None;
        self.ctrl_cv.notify_one();
        CURRENT.with(|c| *c.borrow_mut() = None);
    }
}

/// Suppresses panic output from model threads: their panics are either
/// [`ModelAbort`] bookkeeping or invariant failures that the scheduler
/// captures and reports through [`crate::Failure`]. Installed once,
/// process-wide, delegating non-model panics to the previous hook.
fn install_panic_hook() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<ModelAbort>() || in_model() {
                return;
            }
            prev(info);
        }));
    });
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "model thread panicked (non-string payload)".to_string()
    }
}

/// Spawns a model thread running `f`, returning its model tid and real
/// handle. Must be called by a registered model thread or the controller.
pub(crate) fn spawn_model_thread<F>(
    shared: &Arc<Shared>,
    f: F,
) -> (usize, std::thread::JoinHandle<()>)
where
    F: FnOnce() + Send + 'static,
{
    let id = shared.register_thread();
    let shared2 = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name(format!("loom-model-{id}"))
        .spawn(move || shared2.run_thread_body(id, f))
        .expect("spawn model thread");
    (id, handle)
}

pub(crate) fn with_current_shared<R>(f: impl FnOnce(&Arc<Shared>, usize) -> R) -> Option<R> {
    current().map(|(shared, id)| f(&shared, id))
}

/// Scheduling decision source: picks one of `k` runnable threads.
pub(crate) trait Chooser {
    fn choose(&mut self, k: usize) -> usize;
}

pub(crate) struct RandomChooser {
    rng: XorShift,
    /// Choices made, for failure reports.
    pub(crate) trace: Vec<usize>,
}

impl RandomChooser {
    pub(crate) fn new(seed: u64) -> Self {
        RandomChooser {
            rng: XorShift::new(seed),
            trace: Vec::new(),
        }
    }
}

impl Chooser for RandomChooser {
    fn choose(&mut self, k: usize) -> usize {
        let c = (self.rng.next() % k as u64) as usize;
        self.trace.push(c);
        c
    }
}

pub(crate) struct DfsChooser {
    /// Forced prefix from the DFS frontier.
    prefix: Vec<(usize, usize)>,
    /// Full (arity, choice) trace of this schedule.
    trace: Vec<(usize, usize)>,
}

impl DfsChooser {
    pub(crate) fn new(prefix: Vec<(usize, usize)>) -> Self {
        DfsChooser {
            prefix,
            trace: Vec::new(),
        }
    }

    pub(crate) fn into_trace(self) -> Vec<(usize, usize)> {
        self.trace
    }
}

impl Chooser for DfsChooser {
    fn choose(&mut self, k: usize) -> usize {
        let pos = self.trace.len();
        let c = match self.prefix.get(pos) {
            // Arity can drift if the program is schedule-dependent;
            // clamp rather than panic so exploration stays total.
            Some(&(_, forced)) => forced.min(k - 1),
            None => 0,
        };
        self.trace.push((k, c));
        c
    }
}

/// Computes the next DFS frontier from a completed trace: increment the
/// deepest decision with an unexplored sibling, dropping everything
/// after it. `None` when the space is exhausted.
pub(crate) fn next_dfs_prefix(mut trace: Vec<(usize, usize)>) -> Option<Vec<(usize, usize)>> {
    while let Some(&(k, c)) = trace.last() {
        if c + 1 < k {
            let last = trace.len() - 1;
            trace[last] = (k, c + 1);
            return Some(trace);
        }
        trace.pop();
    }
    None
}

/// Outcome of one executed schedule.
pub(crate) struct ScheduleOutcome {
    pub(crate) failure: Option<(String, bool)>,
    pub(crate) steps: usize,
    pub(crate) pruned: bool,
}

/// Executes one schedule of `f` under `chooser`. The calling thread acts
/// as the controller; the closure runs as model thread 0.
pub(crate) fn run_schedule<F>(
    f: &Arc<F>,
    chooser: &mut dyn Chooser,
    max_steps: usize,
) -> ScheduleOutcome
where
    F: Fn() + Send + Sync + 'static,
{
    assert!(
        !in_model(),
        "nested loom::model/explore calls are not supported"
    );
    install_panic_hook();
    let shared = Shared::new(max_steps);
    let root = Arc::clone(f);
    let (_, root_handle) = spawn_model_thread(&shared, move || root());
    let mut handles = vec![root_handle];
    let mut pruned = false;

    loop {
        let mut st = shared.lock_state();
        debug_assert!(st.running.is_none());
        if st.failure.is_some() {
            break;
        }
        let runnable: Vec<usize> = st
            .threads
            .iter()
            .enumerate()
            // Blocked threads are re-grantable once their condition can
            // hold; finish/unlock/notify already promoted them, so
            // anything still Blocked stays parked.
            .filter_map(|(i, t)| t.schedulable().then_some(i))
            .collect();
        if runnable.is_empty() {
            let live = st
                .threads
                .iter()
                .filter(|t| **t != Status::Finished)
                .count();
            if live > 0 {
                st.failure = Some((
                    format!("deadlock: {live} thread(s) blocked with no runnable thread"),
                    true,
                ));
            }
            break;
        }
        if st.steps >= max_steps {
            pruned = true;
            break;
        }
        let tid = runnable[chooser.choose(runnable.len()).min(runnable.len() - 1)];
        if let Status::TimedWaitOnCondvar(_) = st.threads[tid] {
            st.threads[tid] = Status::Runnable;
            st.timed_out = Some(tid);
        }
        st.running = Some(tid);
        st.steps += 1;
        shared.thread_cv.notify_all();
        while st.running.is_some() {
            st = shared.ctrl_cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        // Model threads may have spawned children during the step; their
        // real handles are collected lazily below via `thread::spawn`'s
        // bookkeeping — nothing to do here, children registered
        // themselves in `st.threads`.
    }

    // Tear down: unpark everything, let ModelAbort unwind parked threads.
    {
        let mut st = shared.lock_state();
        st.abort = true;
        shared.thread_cv.notify_all();
    }
    // Join only the root's real handle: child handles are owned by the
    // model's JoinHandle wrappers, which detach on drop; the abort flag
    // guarantees every parked child unwinds and exits promptly. Join the
    // root so `f`'s borrows (none, it's 'static) and the iteration's
    // side effects are done before the next schedule starts.
    for h in handles.drain(..) {
        let _ = h.join();
    }
    // Wait for every registered thread to reach Finished so no stray
    // child is still unwinding while the next schedule runs.
    loop {
        let st = shared.lock_state();
        if st.threads.iter().all(|t| *t == Status::Finished) {
            let failure = st.failure.clone();
            let steps = st.steps;
            return ScheduleOutcome {
                failure: if pruned && failure.is_none() {
                    None
                } else {
                    failure
                },
                steps,
                pruned,
            };
        }
        drop(st);
        std::thread::yield_now();
    }
}
