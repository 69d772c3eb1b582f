//! Switchable synchronization facade.
//!
//! Everything concurrency-critical in this crate (and in `cache` and
//! `persist`, which re-use this module) imports its atomics, locks,
//! condvars, and spin/yield primitives from here instead of `std`:
//!
//! - **Normal builds**: straight re-exports of `std::sync`/`std::thread`/
//!   `std::hint`. Zero cost, zero behavior change.
//! - **`--cfg cuckoo_model` builds**: the vendored `loom` shim's
//!   instrumented versions, where every operation is a scheduling point
//!   for the deterministic model checker (see `shims/loom`). Tests under
//!   `tests/model.rs` explore thread interleavings of the real table
//!   code through this seam. The shim's atomics are laid out as std's,
//!   so code that views raw memory as atomics (the cache's slab
//!   headers) is the same code in both builds.
//!
//! Deliberately **not** routed through the facade: `Arc` (refcounting is
//! not part of any protocol we model), and the metadata counters in
//! `stats.rs`/`hash.rs` (instrumenting them would only blow up the
//! explored state space without covering any invariant).

#[cfg(not(cuckoo_model))]
pub use std::sync::{Condvar, Mutex, MutexGuard};

#[cfg(cuckoo_model)]
pub use loom::sync::{Condvar, Mutex, MutexGuard};

/// Atomic types + `Ordering` + `fence`.
pub mod atomic {
    #[cfg(not(cuckoo_model))]
    pub use std::sync::atomic::{
        fence, AtomicBool, AtomicI64, AtomicIsize, AtomicPtr, AtomicU16, AtomicU32, AtomicU64,
        AtomicU8, AtomicUsize, Ordering,
    };

    #[cfg(cuckoo_model)]
    pub use loom::sync::atomic::{
        fence, AtomicBool, AtomicI64, AtomicIsize, AtomicPtr, AtomicU16, AtomicU32, AtomicU64,
        AtomicU8, AtomicUsize, Ordering,
    };
}

/// `spawn`/`yield_now`/`JoinHandle`. Spin-wait loops must yield through
/// this module: under the model only one thread runs at a time, so a
/// spinner that never hits a scheduling point would starve the very
/// thread it is waiting on.
pub mod thread {
    #[cfg(not(cuckoo_model))]
    pub use std::thread::{spawn, yield_now, JoinHandle};

    #[cfg(cuckoo_model)]
    pub use loom::thread::{spawn, yield_now, JoinHandle};
}

/// Busy-wait hint; a scheduling point under the model.
pub mod hint {
    #[cfg(not(cuckoo_model))]
    pub use std::hint::spin_loop;

    #[cfg(cuckoo_model)]
    pub use loom::hint::spin_loop;
}
