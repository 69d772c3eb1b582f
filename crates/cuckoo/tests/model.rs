//! Deterministic model-checking tests (build with `RUSTFLAGS="--cfg
//! cuckoo_model"`).
//!
//! Each test explores thread interleavings of the *real* table code: the
//! `sync2` facade swaps this crate's atomics/locks for the instrumented
//! `shims/loom` versions, and `loom::explore` serializes the threads
//! through every (bounded) schedule. Small protocol kernels get
//! bounded DFS (deterministic, replayable by construction); whole-
//! structure tests get seeded random walks whose failures print a
//! replayable `LOOM_SEED`.
//!
//! DFS budgets are deliberately modest: two threads with ~15
//! instrumented operations each have a combinatorially large
//! interleaving space, so exhaustion is not a meaningful target —
//! determinism and schedule *diversity* are. Budgets are sized to keep
//! the whole suite in CI-friendly single-digit seconds.
#![cfg(cuckoo_model)]

use cuckoo::hash::RandomState;
use cuckoo::search::PathEntry;
use cuckoo::sync::{EpochRegistry, LockStripes, VersionLock};
use cuckoo::{CuckooMap, OptimisticBuilder, OptimisticCuckooMap};
use loom::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// The central §4.2 invariant: a torn value can never escape seqlock
/// validation. A writer mutates a two-word value under a [`VersionLock`]
/// while a reader copies it racily (chunk by chunk, with a scheduling
/// point between chunks); every schedule in which the reader's stamps
/// validate must have delivered an untorn copy. Bounded DFS.
#[test]
fn seqlock_validation_blocks_torn_reads() {
    loom::explore(loom::Config::dfs(4_000), || {
        // Two 8-byte words the writer always keeps equal.
        let buf = Arc::new(Box::new([0u64; 2]));
        let addr = buf.as_ptr() as usize;
        let lock = Arc::new(VersionLock::new());

        let writer = {
            let (buf, lock) = (Arc::clone(&buf), Arc::clone(&lock));
            loom::thread::spawn(move || {
                lock.lock();
                let v = [7u64, 7u64];
                // SAFETY: `buf` outlives both threads (Arc) and the
                // writer lock excludes other writers.
                unsafe {
                    cuckoo::racy::store_bytes(buf.as_ptr() as usize, v.as_ptr().cast(), 16);
                }
                lock.unlock();
            })
        };
        let reader = {
            let lock = Arc::clone(&lock);
            loom::thread::spawn(move || {
                let stamp = lock.read_begin();
                let mut out = [0u64; 2];
                // SAFETY: the source is live (Arc'd by the closure via
                // `addr`'s owner) and tearing is validated away below.
                unsafe { cuckoo::racy::load_bytes(addr, out.as_mut_ptr().cast(), 16) };
                if lock.read_validate(stamp) {
                    assert_eq!(out[0], out[1], "torn read escaped seqlock validation");
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
        drop(buf);
    })
    .expect("no schedule may leak a torn read through validation");
}

/// Epoch reclamation kernel: an object may be freed only after every
/// reader pinned before its retirement has unpinned. The "object" is one
/// atomic word; freeing writes POISON. A reader that (a) pins and (b)
/// still observes the object published must never read POISON.
/// Bounded DFS over the pin/retire/min_active protocol.
#[test]
fn epoch_reclamation_never_frees_under_pinned_reader() {
    const POISON: u64 = u64::MAX;
    loom::explore(loom::Config::dfs(4_000), || {
        let reg = Arc::new(EpochRegistry::new());
        let slot = Arc::new(AtomicU64::new(42));
        let published = Arc::new(AtomicBool::new(true));

        let reader = {
            let (reg, slot, published) = (
                Arc::clone(&reg),
                Arc::clone(&slot),
                Arc::clone(&published),
            );
            loom::thread::spawn(move || {
                let _pin = reg.pin();
                // Simulates following a pointer found in the structure:
                // only dereference while pinned AND still published.
                if published.load(Ordering::SeqCst) {
                    let v = slot.load(Ordering::SeqCst);
                    assert_ne!(v, POISON, "read a freed object while pinned");
                }
            })
        };
        let reclaimer = {
            let (reg, slot, published) = (
                Arc::clone(&reg),
                Arc::clone(&slot),
                Arc::clone(&published),
            );
            loom::thread::spawn(move || {
                // Unlink, retire, then free only once quiesced — the
                // same protocol as `CuckooMap::retire` + graveyard drain.
                published.store(false, Ordering::SeqCst);
                let epoch = reg.retire_epoch();
                if reg.min_active() > epoch {
                    slot.store(POISON, Ordering::SeqCst);
                }
            })
        };
        reader.join().unwrap();
        reclaimer.join().unwrap();
    })
    .expect("epoch protocol must never free under a pinned reader");
}

/// The lock-order auditor holds under the model too: ascending pair
/// acquisitions from two threads cannot deadlock in any schedule (the
/// deadlock detector would report it if the ordering were broken).
#[test]
fn ordered_pair_locking_is_deadlock_free_in_all_schedules() {
    loom::explore(loom::Config::dfs(4_000), || {
        let stripes = Arc::new(LockStripes::new(4));
        let t: Vec<_> = [(0usize, 3usize), (3, 0)]
            .into_iter()
            .map(|(a, b)| {
                let stripes = Arc::clone(&stripes);
                loom::thread::spawn(move || {
                    let _g = stripes.lock_pair(a, b);
                })
            })
            .collect();
        for h in t {
            h.join().unwrap();
        }
    })
    .expect("sorted pair acquisition must be deadlock-free");
}

/// Optimistic map: a reader racing a writer that deletes/reinserts the
/// same key must see only complete values (both halves equal) or a clean
/// miss — never a torn value and never a panic. Random walks over the
/// real `OptimisticCuckooMap` code.
#[test]
fn optimistic_read_vs_delete_reinsert() {
    loom::model_with(loom::Config::random(0x5eed_0001, 150), || {
        let map: Arc<OptimisticCuckooMap<u64, [u64; 2], 8>> =
            Arc::new(OptimisticCuckooMap::with_capacity(64));
        map.insert(1, [10, 10]).unwrap();

        let writer = {
            let map = Arc::clone(&map);
            loom::thread::spawn(move || {
                map.remove(&1);
                map.insert(1, [20, 20]).unwrap();
            })
        };
        let reader = {
            let map = Arc::clone(&map);
            loom::thread::spawn(move || {
                if let Some(v) = map.get(&1) {
                    assert_eq!(v[0], v[1], "torn value escaped optimistic read");
                    assert!(v[0] == 10 || v[0] == 20, "phantom value {v:?}");
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
        assert_eq!(map.get(&1).map(|v| v[0]), Some(20));
    });
}

/// Two-table lookup vs. chunk migration: while one thread drives the
/// incremental migration (chunk claim → move → DONE watermark), a reader
/// must find every pre-migration key with its exact value, whichever
/// side of the watermark the key currently sits on.
#[test]
fn lookup_during_chunk_migration() {
    loom::model_with(loom::Config::random(0x5eed_0002, 80), || {
        let map: Arc<CuckooMap<u64, u64>> = Arc::new(CuckooMap::with_capacity(16));
        for k in 0..4u64 {
            map.insert(k, k * 10 + 1).unwrap();
        }
        map.force_migration();

        let migrator = {
            let map = Arc::clone(&map);
            loom::thread::spawn(move || {
                while map.help_migrate(usize::MAX) {}
            })
        };
        let reader = {
            let map = Arc::clone(&map);
            loom::thread::spawn(move || {
                for k in 0..4u64 {
                    assert_eq!(
                        map.get(&k),
                        Some(k * 10 + 1),
                        "key {k} lost or corrupted mid-migration"
                    );
                }
            })
        };
        migrator.join().unwrap();
        reader.join().unwrap();
        for k in 0..4u64 {
            assert_eq!(map.get(&k), Some(k * 10 + 1), "key {k} lost after migration");
        }
    });
}

/// Batched reads under the same §4.2 invariant as
/// [`optimistic_read_vs_delete_reinsert`]: a `get_many` group whose keys
/// race a delete/reinsert writer must deliver, per key, either a clean
/// miss or a complete (untorn) value from the key's real history — the
/// shared-stamp pipeline and its per-key fallback may never leak a torn
/// or phantom value. Seeded random walks over the real map code.
#[test]
fn get_many_vs_delete_reinsert() {
    loom::model_with(loom::Config::random(0x5eed_0004, 120), || {
        let map: Arc<OptimisticCuckooMap<u64, [u64; 2], 8>> =
            Arc::new(OptimisticCuckooMap::with_capacity(64));
        map.insert(1, [10, 10]).unwrap();
        map.insert(2, [30, 30]).unwrap();

        let writer = {
            let map = Arc::clone(&map);
            loom::thread::spawn(move || {
                map.remove(&1);
                map.insert(1, [20, 20]).unwrap();
            })
        };
        let reader = {
            let map = Arc::clone(&map);
            loom::thread::spawn(move || {
                // One group: the racing key, a stable key, and a miss.
                let out = map.get_many(&[1, 2, 99]);
                if let Some(v) = out[0] {
                    assert_eq!(v[0], v[1], "torn value escaped batched read");
                    assert!(v[0] == 10 || v[0] == 20, "phantom value {v:?}");
                }
                assert_eq!(out[1], Some([30, 30]), "stable key disturbed");
                assert_eq!(out[2], None, "absent key found");
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
        assert_eq!(map.get(&1).map(|v| v[0]), Some(20));
    });
}

/// Batched two-table lookups vs. chunk migration: a `get_many` over the
/// whole key set while another thread drives the incremental migration
/// must find every key with its exact value — groups fall back to the
/// per-key two-table path while the migration descriptor is live, and
/// the stable-path stage-3 lock probe revalidates against table swaps.
#[test]
fn get_many_during_forced_migration() {
    loom::model_with(loom::Config::random(0x5eed_0005, 60), || {
        let map: Arc<CuckooMap<u64, u64>> = Arc::new(CuckooMap::with_capacity(16));
        for k in 0..4u64 {
            map.insert(k, k * 10 + 1).unwrap();
        }
        map.force_migration();

        let migrator = {
            let map = Arc::clone(&map);
            loom::thread::spawn(move || {
                while map.help_migrate(usize::MAX) {}
            })
        };
        let reader = {
            let map = Arc::clone(&map);
            loom::thread::spawn(move || {
                let out = map.get_many(&[0, 1, 2, 3, 50]);
                for (k, v) in (0..4u64).zip(&out) {
                    assert_eq!(
                        *v,
                        Some(k * 10 + 1),
                        "key {k} lost or corrupted mid-migration"
                    );
                }
                assert_eq!(out[4], None, "absent key found mid-migration");
            })
        };
        migrator.join().unwrap();
        reader.join().unwrap();
        for k in 0..4u64 {
            assert_eq!(map.get(&k), Some(k * 10 + 1), "key {k} lost after migration");
        }
    });
}

/// Batched writes vs. batched reads on overlapping keys: an
/// `upsert_many` group (stripe-sorted batch locking, direct slot
/// claim) racing a `get_many` over the same keys must deliver, per
/// key, either the old or the new complete value — the batch lock
/// makes writers mutually exclusive, and optimistic readers that
/// land inside a batched write's critical section must fail stamp
/// validation and retry, never surfacing a torn or phantom value.
#[test]
fn upsert_many_vs_get_many_overlapping_keys() {
    loom::model_with(loom::Config::random(0x5eed_0006, 120), || {
        let map: Arc<OptimisticCuckooMap<u64, [u64; 2], 8>> =
            Arc::new(OptimisticCuckooMap::with_capacity(64));
        map.insert(1, [10, 10]).unwrap();
        map.insert(2, [30, 30]).unwrap();

        let writer = {
            let map = Arc::clone(&map);
            loom::thread::spawn(move || {
                // One group: an overwrite of a racing key, a fresh
                // insert, and an untouched-key overwrite — all under a
                // single batch acquisition.
                let out = map.upsert_many([(1, [20, 20]), (5, [50, 50])]);
                assert_eq!(out[0], Ok(cuckoo::UpsertOutcome::Updated));
                assert_eq!(out[1], Ok(cuckoo::UpsertOutcome::Inserted));
            })
        };
        let reader = {
            let map = Arc::clone(&map);
            loom::thread::spawn(move || {
                let out = map.get_many(&[1, 2, 5, 99]);
                let v = out[0].expect("key 1 never absent");
                assert_eq!(v[0], v[1], "torn value escaped batched write");
                assert!(v[0] == 10 || v[0] == 20, "phantom value {v:?}");
                assert_eq!(out[1], Some([30, 30]), "bystander key disturbed");
                if let Some(v) = out[2] {
                    assert_eq!(v, [50, 50], "torn or phantom insert {v:?}");
                }
                assert_eq!(out[3], None, "absent key found");
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
        assert_eq!(map.get(&1), Some([20, 20]));
        assert_eq!(map.get(&5), Some([50, 50]));
    });
}

/// Batched writes vs. chunk migration: an `insert_many` burst lands
/// while another thread drives a forced incremental migration. The
/// batch path must demote to the per-key migration-aware insert the
/// moment the table is unstable (the stage-2 stability check and the
/// stage-3 revalidation both guard this), so every pre-migration key
/// and every batched key is present with its exact value afterwards.
#[test]
fn insert_many_during_forced_migration() {
    loom::model_with(loom::Config::random(0x5eed_0009, 60), || {
        let map: Arc<CuckooMap<u64, u64>> = Arc::new(CuckooMap::with_capacity(16));
        for k in 0..4u64 {
            map.insert(k, k * 10 + 1).unwrap();
        }
        map.force_migration();

        let migrator = {
            let map = Arc::clone(&map);
            loom::thread::spawn(move || {
                while map.help_migrate(usize::MAX) {}
            })
        };
        let writer = {
            let map = Arc::clone(&map);
            loom::thread::spawn(move || {
                let entries: Vec<(u64, u64)> =
                    (10..14u64).map(|k| (k, k * 10 + 1)).collect();
                for r in map.insert_many(entries) {
                    r.expect("insert_many must succeed mid-migration");
                }
            })
        };
        migrator.join().unwrap();
        writer.join().unwrap();
        for k in (0..4u64).chain(10..14) {
            assert_eq!(map.get(&k), Some(k * 10 + 1), "key {k} lost across migration");
        }
    });
}

/// Fixed hash seed so key geometry is identical across schedules,
/// processes, and replays.
const DISPLACEMENT_HASH_SEED: u64 = 0xd15b_1ace;

/// Finds two keys and a two-displacement cuckoo path over them:
///
/// - `X` with distinct candidate buckets `x1 != x2`; inserted into an
///   empty table it lands at `(x1, slot 0)`.
/// - `Y` whose first candidate *is* `x2` (so it lands at `(x2, slot 0)`)
///   and whose second candidate `y2` is a third bucket.
///
/// The returned path displaces `Y: x2 → y2`, then `X: x1 → x2` — every
/// move is between the key's own two candidate buckets, so a correct
/// executor keeps both keys reader-visible at every instant.
fn displacement_fixture(
    map: &OptimisticCuckooMap<u64, u64, 8, RandomState>,
) -> (u64, u64, Vec<PathEntry>) {
    let mut x = 0u64;
    let (x1, x2, xt) = loop {
        let (a, b, t) = map.key_coords(&x);
        if a != b && t != 0 {
            break (a, b, t);
        }
        x += 1;
    };
    let mut y = 1_000u64;
    let (y2, yt) = loop {
        let (a, b, t) = map.key_coords(&y);
        if a == x2 && b != x1 && b != x2 && t != 0 {
            break (b, t);
        }
        y += 1;
    };
    let path = vec![
        PathEntry { bucket: x1, slot: 0, tag: xt },
        PathEntry { bucket: x2, slot: 0, tag: yt },
        PathEntry { bucket: y2, slot: 0, tag: 0 },
    ];
    (x, y, path)
}

/// One writer executing a two-displacement path against one reader
/// probing both displaced keys. With the production hole-backwards
/// executor the reader can never miss; with the deliberately split
/// (clear-source, *then* write-destination) executor there is a window
/// in which a key is in neither of its candidate buckets.
fn displacement_vs_reader(split: bool) -> impl Fn() + Send + Sync + 'static {
    move || {
        let map: Arc<OptimisticCuckooMap<u64, u64, 8, RandomState>> = Arc::new(
            OptimisticBuilder::new(64)
                .hasher(RandomState::with_seed(DISPLACEMENT_HASH_SEED))
                .build(),
        );
        let (x, y, path) = displacement_fixture(&map);
        map.insert(x, 1).unwrap();
        map.insert(y, 2).unwrap();

        let writer = {
            let map = Arc::clone(&map);
            loom::thread::spawn(move || {
                let ok = if split {
                    map.execute_path_split_displacement(&path)
                } else {
                    map.execute_path(&path)
                };
                assert!(ok, "freshly planned path went stale with no other writer");
            })
        };
        let reader = {
            let map = Arc::clone(&map);
            loom::thread::spawn(move || {
                assert_eq!(map.get(&x), Some(1), "false miss on displaced key X");
                assert_eq!(map.get(&y), Some(2), "false miss on displaced key Y");
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
        assert_eq!(map.get(&x), Some(1), "key X lost after displacement");
        assert_eq!(map.get(&y), Some(2), "key Y lost after displacement");
    }
}

/// The SAFETY claim in the shared executor, checked mechanically: an
/// optimistic reader probing both candidate buckets during a multi-step
/// path execution never observes a false miss, because every
/// displacement writes its destination before clearing its source.
#[test]
fn multi_step_displacement_never_hides_keys_from_readers() {
    loom::explore(loom::Config::random(0x5eed_0007, 600), displacement_vs_reader(false))
        .expect("hole-backwards execution must keep both keys visible in every schedule");
}

/// Mutation-catch acceptance: an executor that clears the source in one
/// critical section and writes the destination in a second one (the
/// regression the hole-backwards discipline prevents) must be caught by
/// the same exploration, with a replayable seed. Note a *within*-step
/// order flip is invisible to seqlock readers — they spin until the
/// version is even, so they never validate mid-critical-section; the
/// observable mutation is the split across two critical sections.
#[test]
fn split_displacement_mutation_is_caught_with_replayable_seed() {
    let failure =
        loom::explore(loom::Config::random(0x5eed_0008, 600), displacement_vs_reader(true))
            .expect_err("split displacement must produce a reader-visible false miss");
    assert!(
        failure.message.contains("false miss"),
        "expected the false-miss invariant, got: {}",
        failure.message
    );
    let seed = failure.seed.expect("random-walk failures carry a seed");
    println!("split displacement reproduced; replay with LOOM_SEED={seed}");

    let replayed = loom::explore(
        loom::Config {
            strategy: loom::Strategy::Replay { seed },
            max_schedules: 1,
            ..loom::Config::default()
        },
        displacement_vs_reader(true),
    )
    .expect_err("replaying the reported seed must reproduce the false miss");
    assert_eq!(replayed.seed, Some(seed));
    assert!(replayed.message.contains("false miss"));
}

/// PR 2 regression: `get_or_insert_with` racing a delete of the same key
/// must return a value (the existing one or its own) and never panic —
/// the pre-fix code `expect`ed the winner's value to still be present
/// after losing an insert race, which a concurrent delete violates.
#[test]
fn get_or_insert_with_vs_concurrent_delete() {
    loom::model_with(loom::Config::random(0x6075_u64, 150), || {
        let map: Arc<CuckooMap<u64, u64>> = Arc::new(CuckooMap::with_capacity(16));
        map.insert(7, 1).unwrap();

        let inserter = {
            let map = Arc::clone(&map);
            loom::thread::spawn(move || {
                let v = map.get_or_insert_with(7, || 2);
                assert!(v == 1 || v == 2, "phantom value {v}");
                v
            })
        };
        let deleter = {
            let map = Arc::clone(&map);
            loom::thread::spawn(move || {
                map.remove(&7);
            })
        };
        inserter.join().unwrap();
        deleter.join().unwrap();
        // Whatever interleaved, the key maps to a real value or nothing.
        if let Some(v) = map.get(&7) {
            assert!(v == 1 || v == 2);
        }
    });
}
