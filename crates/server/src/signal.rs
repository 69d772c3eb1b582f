//! SIGINT/SIGTERM → graceful-shutdown flag, without a libc crate.
//!
//! The container has no `libc`/`signal-hook` crates, but std already
//! links the platform C library, so the two symbols we need (`signal`
//! and the handler ABI) are declared directly. The handler only stores
//! to an atomic — the one thing that is async-signal-safe — and the
//! server's event loops poll [`requested`].

use std::sync::atomic::{AtomicBool, Ordering};

static REQUESTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod imp {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        /// `sighandler_t signal(int signum, sighandler_t handler);`
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        super::REQUESTED.store(true, std::sync::atomic::Ordering::SeqCst);
    }

    pub fn install() {
        // SAFETY: `on_signal` is async-signal-safe (single atomic store)
        // and stays alive for the program's duration (it's a fn item).
        let handler = on_signal as extern "C" fn(i32) as *const () as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}
}

/// Installs the handlers; idempotent. Call once from the binary (tests
/// skip this and use [`crate::ServerHandle::shutdown`] instead).
pub fn install() {
    imp::install();
}

/// Whether a shutdown signal has arrived.
pub fn requested() -> bool {
    REQUESTED.load(Ordering::SeqCst)
}
