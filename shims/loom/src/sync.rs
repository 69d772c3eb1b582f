//! Instrumented `std::sync` subset.
//!
//! Every type wraps its `std` counterpart; the instrumentation is a
//! [`crate::yield_point`] before each shared-memory operation, which is
//! what lets the scheduler explore interleavings, and, for the blocking
//! `Mutex` and `Condvar`, parking the model thread in the scheduler. Constructors stay
//! `const` so statics and `const fn new` in the code under test keep
//! compiling. Outside a model the yield is a no-op and behavior is
//! byte-for-byte `std`.

use crate::sched;
use std::sync::{LockResult, PoisonError, TryLockError, TryLockResult};
use std::time::Duration;

pub use std::sync::Arc;

/// Instrumented atomics (plus a re-exported [`Ordering`]). The model
/// serializes threads, so every explored execution is sequentially
/// consistent regardless of the ordering argument; orderings weaker than
/// `SeqCst` are accepted and passed through unchanged.
pub mod atomic {
    use crate::sched::yield_point;
    pub use std::sync::atomic::Ordering;

    macro_rules! instrumented_atomic {
        ($name:ident, $std:ty, $int:ty) => {
            /// Instrumented wrapper over the `std` atomic of the same name,
            /// laid out exactly as it is: a slice of zeroed words can be
            /// viewed as these, so model builds read the same memory.
            #[derive(Debug, Default)]
            #[repr(transparent)]
            pub struct $name {
                inner: $std,
            }

            impl $name {
                /// Creates a new atomic (const, usable in statics).
                #[inline]
                pub const fn new(v: $int) -> Self {
                    Self {
                        inner: <$std>::new(v),
                    }
                }

                #[inline]
                pub fn load(&self, order: Ordering) -> $int {
                    yield_point();
                    self.inner.load(order)
                }

                #[inline]
                pub fn store(&self, val: $int, order: Ordering) {
                    yield_point();
                    self.inner.store(val, order)
                }

                #[inline]
                pub fn swap(&self, val: $int, order: Ordering) -> $int {
                    yield_point();
                    self.inner.swap(val, order)
                }

                #[inline]
                pub fn compare_exchange(
                    &self,
                    current: $int,
                    new: $int,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$int, $int> {
                    yield_point();
                    self.inner.compare_exchange(current, new, success, failure)
                }

                #[inline]
                pub fn compare_exchange_weak(
                    &self,
                    current: $int,
                    new: $int,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$int, $int> {
                    yield_point();
                    // The model explores interleavings, not spurious CAS
                    // failures; strong semantics keep DFS spaces finite.
                    self.inner.compare_exchange(current, new, success, failure)
                }

                #[inline]
                pub fn fetch_or(&self, val: $int, order: Ordering) -> $int {
                    yield_point();
                    self.inner.fetch_or(val, order)
                }

                #[inline]
                pub fn fetch_and(&self, val: $int, order: Ordering) -> $int {
                    yield_point();
                    self.inner.fetch_and(val, order)
                }

                #[inline]
                pub fn fetch_xor(&self, val: $int, order: Ordering) -> $int {
                    yield_point();
                    self.inner.fetch_xor(val, order)
                }

                #[inline]
                pub fn fetch_update<F>(
                    &self,
                    set_order: Ordering,
                    fetch_order: Ordering,
                    f: F,
                ) -> Result<$int, $int>
                where
                    F: FnMut($int) -> Option<$int>,
                {
                    yield_point();
                    self.inner.fetch_update(set_order, fetch_order, f)
                }

                #[inline]
                pub fn get_mut(&mut self) -> &mut $int {
                    self.inner.get_mut()
                }

                #[inline]
                pub fn into_inner(self) -> $int {
                    self.inner.into_inner()
                }

                /// Raw pointer to the value. Accesses through it bypass
                /// the scheduler's instrumentation (callers route them
                /// to subsystems the model does not cover).
                #[inline]
                pub const fn as_ptr(&self) -> *mut $int {
                    self.inner.as_ptr()
                }

                /// The underlying `std` atomic — escape hatch for code
                /// handing the word to uninstrumented subsystems;
                /// operations through it are invisible to the scheduler.
                #[inline]
                pub const fn as_std(&self) -> &$std {
                    &self.inner
                }
            }
        };
    }

    /// Arithmetic fetch ops — integers only (`AtomicBool` lacks them).
    macro_rules! instrumented_arith {
        ($name:ident, $int:ty) => {
            impl $name {
                #[inline]
                pub fn fetch_add(&self, val: $int, order: Ordering) -> $int {
                    yield_point();
                    self.inner.fetch_add(val, order)
                }

                #[inline]
                pub fn fetch_sub(&self, val: $int, order: Ordering) -> $int {
                    yield_point();
                    self.inner.fetch_sub(val, order)
                }

                #[inline]
                pub fn fetch_max(&self, val: $int, order: Ordering) -> $int {
                    yield_point();
                    self.inner.fetch_max(val, order)
                }

                #[inline]
                pub fn fetch_min(&self, val: $int, order: Ordering) -> $int {
                    yield_point();
                    self.inner.fetch_min(val, order)
                }
            }
        };
    }

    instrumented_atomic!(AtomicBool, std::sync::atomic::AtomicBool, bool);
    instrumented_atomic!(AtomicU8, std::sync::atomic::AtomicU8, u8);
    instrumented_atomic!(AtomicU16, std::sync::atomic::AtomicU16, u16);
    instrumented_atomic!(AtomicU32, std::sync::atomic::AtomicU32, u32);
    instrumented_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
    instrumented_atomic!(AtomicI64, std::sync::atomic::AtomicI64, i64);
    instrumented_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
    instrumented_atomic!(AtomicIsize, std::sync::atomic::AtomicIsize, isize);

    instrumented_arith!(AtomicU8, u8);
    instrumented_arith!(AtomicU16, u16);
    instrumented_arith!(AtomicU32, u32);
    instrumented_arith!(AtomicU64, u64);
    instrumented_arith!(AtomicI64, i64);
    instrumented_arith!(AtomicUsize, usize);
    instrumented_arith!(AtomicIsize, isize);

    /// Instrumented `AtomicPtr<T>`, laid out as the `std` one.
    #[derive(Debug)]
    #[repr(transparent)]
    pub struct AtomicPtr<T> {
        inner: std::sync::atomic::AtomicPtr<T>,
    }

    impl<T> Default for AtomicPtr<T> {
        fn default() -> Self {
            Self::new(std::ptr::null_mut())
        }
    }

    impl<T> AtomicPtr<T> {
        #[inline]
        pub const fn new(p: *mut T) -> Self {
            AtomicPtr {
                inner: std::sync::atomic::AtomicPtr::new(p),
            }
        }

        #[inline]
        pub fn load(&self, order: Ordering) -> *mut T {
            yield_point();
            self.inner.load(order)
        }

        #[inline]
        pub fn store(&self, p: *mut T, order: Ordering) {
            yield_point();
            self.inner.store(p, order)
        }

        #[inline]
        pub fn swap(&self, p: *mut T, order: Ordering) -> *mut T {
            yield_point();
            self.inner.swap(p, order)
        }

        #[inline]
        pub fn compare_exchange(
            &self,
            current: *mut T,
            new: *mut T,
            success: Ordering,
            failure: Ordering,
        ) -> Result<*mut T, *mut T> {
            yield_point();
            self.inner.compare_exchange(current, new, success, failure)
        }

        #[inline]
        pub fn get_mut(&mut self) -> &mut *mut T {
            self.inner.get_mut()
        }

        #[inline]
        pub fn into_inner(self) -> *mut T {
            self.inner.into_inner()
        }
    }

    /// Instrumented memory fence: a scheduling point, then the real fence.
    #[inline]
    pub fn fence(order: Ordering) {
        yield_point();
        std::sync::atomic::fence(order)
    }
}

/// Instrumented mutex. Under a model, ownership is tracked by the
/// scheduler (keyed by the mutex's address) so a blocked acquirer parks
/// its model thread instead of blocking the one granted OS thread —
/// which is also how the scheduler detects AB-BA deadlocks.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// Guard returned by [`Mutex::lock`]; releases model ownership on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    /// The mutex, for [`Condvar::wait`] to re-acquire.
    lock: &'a Mutex<T>,
    /// `Option` so `Drop` can release the `std` guard *before* releasing
    /// model ownership (the next owner must find the inner mutex free).
    inner: Option<std::sync::MutexGuard<'a, T>>,
    model: Option<(std::sync::Arc<sched::Shared>, usize, usize)>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex (const, usable in statics).
    #[inline]
    pub const fn new(t: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(t),
        }
    }

    #[inline]
    pub fn into_inner(self) -> LockResult<T> {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    fn addr(&self) -> usize {
        self as *const Mutex<T> as *const () as usize
    }

    /// Acquires the mutex; a blocking scheduling point under a model.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        match sched::with_current_shared(|shared, id| (std::sync::Arc::clone(shared), id)) {
            None => match self.inner.lock() {
                Ok(g) => Ok(MutexGuard {
                    lock: self,
                    inner: Some(g),
                    model: None,
                }),
                Err(poison) => Err(PoisonError::new(MutexGuard {
                    lock: self,
                    inner: Some(poison.into_inner()),
                    model: None,
                })),
            },
            Some((shared, id)) => {
                let addr = self.addr();
                shared.lock_mutex(id, addr);
                // Model ownership is exclusive, so the inner mutex must
                // be free (its guard drops before ownership is released).
                let g = self
                    .inner
                    .try_lock()
                    .expect("model mutex ownership granted but std mutex still held");
                Ok(MutexGuard {
                    lock: self,
                    inner: Some(g),
                    model: Some((shared, id, addr)),
                })
            }
        }
    }

    /// Non-blocking acquisition; a scheduling point under a model.
    pub fn try_lock(&self) -> TryLockResult<MutexGuard<'_, T>> {
        match sched::with_current_shared(|shared, id| (std::sync::Arc::clone(shared), id)) {
            None => match self.inner.try_lock() {
                Ok(g) => Ok(MutexGuard {
                    lock: self,
                    inner: Some(g),
                    model: None,
                }),
                Err(TryLockError::WouldBlock) => Err(TryLockError::WouldBlock),
                Err(TryLockError::Poisoned(poison)) => {
                    Err(TryLockError::Poisoned(PoisonError::new(MutexGuard {
                        lock: self,
                        inner: Some(poison.into_inner()),
                        model: None,
                    })))
                }
            },
            Some((shared, id)) => {
                let addr = self.addr();
                if !shared.try_lock_mutex(id, addr) {
                    return Err(TryLockError::WouldBlock);
                }
                let g = self
                    .inner
                    .try_lock()
                    .expect("model mutex ownership granted but std mutex still held");
                Ok(MutexGuard {
                    lock: self,
                    inner: Some(g),
                    model: Some((shared, id, addr)),
                })
            }
        }
    }

    #[inline]
    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        self.inner.get_mut()
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard accessed after drop")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard accessed after drop")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release order matters: std guard first, model ownership second.
        // No yield here — Drop can run while unwinding on ModelAbort, and
        // a scheduling point would panic inside the panic.
        drop(self.inner.take());
        if let Some((shared, id, addr)) = self.model.take() {
            shared.unlock_mutex(id, addr);
        }
    }
}

/// Whether a [`Condvar::wait_timeout`] returned because its time ran
/// out (std's type has no public constructor).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Instrumented condition variable: `wait`, `wait_timeout` and
/// `notify_all`. Under a model, `wait` is a scheduling point, then
/// releases the mutex and parks the thread in one step, and the thread
/// stays parked — not runnable — until a `notify_all` on this condvar;
/// it then re-acquires the mutex as [`Mutex::lock`] does. A wakeup that
/// is lost (a notify that lands before the wait, or a condition checked
/// outside the lock) therefore leaves the waiter parked, and the
/// scheduler reports the schedule as a deadlock. A `wait_timeout`
/// instead may time out at any scheduling point. There are no spurious
/// wakeups under a model. Outside a model this is `std::sync::Condvar`.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Creates a new condvar (const, usable in statics).
    #[inline]
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    fn addr(&self) -> usize {
        self as *const Condvar as usize
    }

    /// Releases `guard`'s mutex, waits for a notification, and returns
    /// with the mutex held again.
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        let lock = guard.lock;
        match guard.model.clone() {
            None => {
                let inner = guard.inner.take().expect("guard accessed after drop");
                match self.inner.wait(inner) {
                    Ok(g) => Ok(MutexGuard {
                        lock,
                        inner: Some(g),
                        model: None,
                    }),
                    Err(poison) => Err(PoisonError::new(MutexGuard {
                        lock,
                        inner: Some(poison.into_inner()),
                        model: None,
                    })),
                }
            }
            Some((shared, id, _)) => {
                // A scheduling point between the caller's last check of
                // its condition and the park, where a notifier that does
                // not take the mutex can slip in. Releasing takes none,
                // so no other model thread runs between the unlock and
                // the park.
                sched::yield_point();
                drop(guard);
                shared.wait_condvar(id, self.addr());
                lock.lock()
            }
        }
    }

    /// [`wait`](Self::wait), returning after `timeout` at the latest.
    /// Under a model the wait may time out at any scheduling point,
    /// however short or long `timeout` is, so a timed waiter is never
    /// part of a deadlock; a notify still wakes it early.
    pub fn wait_timeout<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
        let lock = guard.lock;
        match guard.model.clone() {
            None => {
                let inner = guard.inner.take().expect("guard accessed after drop");
                let wrap = |(g, r): (std::sync::MutexGuard<'a, T>, std::sync::WaitTimeoutResult)| {
                    (MutexGuard { lock, inner: Some(g), model: None }, WaitTimeoutResult(r.timed_out()))
                };
                self.inner
                    .wait_timeout(inner, timeout)
                    .map(wrap)
                    .map_err(|poison| PoisonError::new(wrap(poison.into_inner())))
            }
            Some((shared, id, _)) => {
                // The same scheduling point and one-step park as `wait`.
                sched::yield_point();
                drop(guard);
                let r = WaitTimeoutResult(shared.wait_condvar_timeout(id, self.addr()));
                match lock.lock() {
                    Ok(g) => Ok((g, r)),
                    Err(poison) => Err(PoisonError::new((poison.into_inner(), r))),
                }
            }
        }
    }

    /// Wakes every thread waiting on this condvar; a scheduling point
    /// under a model.
    pub fn notify_all(&self) {
        match sched::with_current_shared(|shared, _| std::sync::Arc::clone(shared)) {
            None => self.inner.notify_all(),
            Some(shared) => shared.notify_condvar(self.addr()),
        }
    }
}
