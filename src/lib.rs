//! Umbrella crate for the EuroSys 2014 concurrent-cuckoo-hashing
//! reproduction.
//!
//! Re-exports the workspace crates so examples and integration tests can
//! use one dependency:
//!
//! - [`cuckoo`] — the product tables (cuckoo+ with optimistic reads,
//!   libcuckoo-style general map);
//! - [`baselines`] — the comparison tables (dense open addressing, node
//!   chaining, TBB-style chaining) and the paper's cuckoo ladder (MemC3
//!   baseline, Figure 5's rungs, TSX-elided cuckoo+);
//! - [`htm`] — the software transactional memory / lock-elision
//!   substrate standing in for Intel TSX;
//! - [`cache`] — the MemC3-style CLOCK cache built on the cuckoo table;
//! - [`workload`] — workload generation and throughput measurement.

pub use baselines;
pub use cache;
pub use cuckoo;
pub use htm;
pub use workload;
