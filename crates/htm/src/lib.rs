//! Software hardware-transactional-memory (HTM) simulator and lock elision.
//!
//! The EuroSys 2014 paper *Algorithmic Improvements for Fast Concurrent
//! Cuckoo Hashing* evaluates its hash table designs both with fine-grained
//! locking and with Intel TSX (Restricted Transactional Memory) lock
//! elision. TSX is a hardware feature; this crate provides a faithful
//! *software* stand-in so the paper's transactional experiments can run on
//! any machine:
//!
//! - [`HtmDomain`] — a TL2-style word-granularity software transactional
//!   memory. Conflict detection happens at 64-byte cache-line granularity
//!   through a table of versioned ownership records ("orecs"), mirroring how
//!   Haswell tracks read/write sets with L1 cache-line tags (paper §5).
//!   Like the hardware, it produces *conflict* aborts (another thread wrote
//!   a tracked line — including false sharing), *capacity* aborts (the
//!   read/write footprint exceeded a fixed budget), and *explicit* aborts
//!   (the transaction called the analogue of `XABORT`).
//! - [`ElidedLock`] — TSX-style lock elision following the paper's Figure
//!   11: critical sections run speculatively as transactions that hold the
//!   fallback lock word in their read set, and fall back to really acquiring
//!   the lock after repeated aborts. Both the released glibc retry policy
//!   and the paper's optimized `TSX*` policy are implemented
//!   ([`ElisionPolicy`]).
//! - [`MemCtx`] — a small memory-access abstraction letting the same
//!   critical-section code run either directly (under a real lock) or
//!   through a transaction, so data structures get genuine conflict
//!   detection without duplicating their logic.
//!
//! # Example
//!
//! ```
//! use htm::{ElidedLock, ElisionConfig, HtmDomain, MemCtx};
//! use std::sync::Arc;
//!
//! let domain = Arc::new(HtmDomain::new());
//! let lock = ElidedLock::new(domain, ElisionConfig::optimized());
//! let mut counter = 0u64;
//! let p: *mut u64 = &mut counter;
//! lock.execute(|ctx| {
//!     // SAFETY: `p` points at `counter`, which outlives the critical
//!     // section and is only accessed through this lock.
//!     let v = unsafe { ctx.load(p)? };
//!     // SAFETY: as above.
//!     unsafe { ctx.store(p, v + 1) }
//! });
//! assert_eq!(counter, 1);
//! ```

pub mod abort;
pub mod ctx;
pub mod elision;
pub mod lineset;
pub mod orec;
pub mod stats;
pub mod txn;

pub use abort::{Abort, AbortCode};
pub use ctx::{DirectCtx, MemCtx, TxCtx};
pub use elision::{ElidedLock, ElisionConfig, ElisionPolicy, ExecCtx};
pub use cuckoo::Plain;
pub use orec::{HtmConfig, HtmDomain};
pub use stats::{HtmStats, StatsSnapshot};
pub use txn::Transaction;
