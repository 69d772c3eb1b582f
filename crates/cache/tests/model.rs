//! Model-checking tests for the ClockCache slot lifecycle (build with
//! `RUSTFLAGS="--cfg cuckoo_model"`).
//!
//! The slab headers the models check are the product's own: each slot's
//! word and owner are its first two words in every build, so these
//! schedules exercise the layout that ships.
//!
//! The centerpiece is the PR 1 delete/evict ABA bug: `delete` originally
//! removed the map entry *before* claiming the slot, letting the CLOCK
//! hand reclaim the orphaned slot concurrently — a double free. The bug
//! is kept as the model-only [`ClockCache::delete_aba_buggy`], which a
//! model calls in place of `delete`, precisely so these tests can prove
//! the checker finds it (and replays it from a seed), while the shipped
//! ordering passes the same exploration.
#![cfg(cuckoo_model)]

use cache::ClockCache;
use cuckoo::Plain;
use loom::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const EXPLORATION_SEED: u64 = 0xc10c_aba0;
const SCHEDULES: usize = 800;

/// delete(key) racing one CLOCK sweep over a singleton cache: the
/// scenario in which the PR 1 bug double-frees the slot.
fn delete_vs_hand_sweep(mutated: bool) -> impl Fn() + Send + Sync + 'static {
    move || {
        let cache: Arc<ClockCache<u64>> = Arc::new(ClockCache::new(8));
        cache.put(1, 11);
        // As if the hand had already swept once: next encounter evicts
        // instead of granting a second chance (keeps schedules shallow).
        cache.force_clear_recency();

        let deleter = {
            let cache = Arc::clone(&cache);
            loom::thread::spawn(move || {
                if mutated {
                    cache.delete_aba_buggy(1);
                } else {
                    cache.delete(1);
                }
            })
        };
        let hand = {
            let cache = Arc::clone(&cache);
            loom::thread::spawn(move || {
                cache.force_evict_one();
            })
        };
        deleter.join().unwrap();
        hand.join().unwrap();
        // The key is gone either way; the slab must be consistent:
        // no slot on the freelist twice, no non-FREE slot on it.
        assert_eq!(cache.get(1), None);
        cache.check_slab_invariants();
    }
}

/// Acceptance criterion: with the ABA mutation armed, bounded
/// exploration must deterministically reproduce the PR 1 race and
/// report a replayable seed.
#[test]
fn aba_mutation_is_caught_with_replayable_seed() {
    let failure = loom::explore(
        loom::Config::random(EXPLORATION_SEED, SCHEDULES),
        delete_vs_hand_sweep(true),
    )
    .expect_err("the pre-fix delete ordering must double-free in some schedule");
    assert!(
        failure.message.contains("freelist twice"),
        "expected the double-free invariant, got: {}",
        failure.message
    );
    let seed = failure.seed.expect("random-walk failures carry a seed");
    println!("ClockCache ABA reproduced; replay with LOOM_SEED={seed}");

    // The reported seed replays the failure deterministically.
    let replayed = loom::explore(
        loom::Config {
            strategy: loom::Strategy::Replay { seed },
            max_schedules: 1,
            ..loom::Config::default()
        },
        delete_vs_hand_sweep(true),
    )
    .expect_err("replaying the reported seed must reproduce the failure");
    assert_eq!(replayed.seed, Some(seed));
    assert!(replayed.message.contains("freelist twice"));
}

/// The shipped ordering (claim `USED → EVICTING` before removing the map
/// entry) survives the identical exploration.
#[test]
fn fixed_delete_ordering_passes_same_exploration() {
    loom::explore(
        loom::Config::random(EXPLORATION_SEED, SCHEDULES),
        delete_vs_hand_sweep(false),
    )
    .expect("the fixed delete ordering must survive every explored schedule");
}

/// A `visit_many` of keys 10 and 1 racing `writer`, over a cache
/// holding `items[0]` under key 1 and `items[1]` under key 10: key 1 in
/// slab slot 0, where the CLOCK hand starts (every recency bit cleared,
/// so its next sweep evicts key 1). The writer starts once the reader's
/// group has probed the table, and the reader's visitor dawdles after
/// key 10, before its slab copy of key 1, as a slow visitor may — for up
/// to `dawdle` scheduling points, so the writer acts on the slot the
/// reader already holds and may still be at it when the copy starts.
/// Key 1 must show a value from `allowed`, or a miss if `may_miss`, and
/// key 10 its own value: never another key's value, never a torn one (an
/// item is copied in word chunks, each a scheduling point).
fn read_racing<V: Plain + PartialEq + std::fmt::Debug + Send + Sync + 'static>(
    items: [V; 2],
    writer: fn(&ClockCache<V>),
    allowed: &'static [V],
    dawdle: usize,
    may_miss: bool,
) -> impl Fn() + Send + Sync + 'static {
    move || {
        let cache: Arc<ClockCache<V>> = Arc::new(ClockCache::new(8));
        cache.put(1, items[0]);
        cache.put(10, items[1]);
        cache.force_clear_recency();
        // Set by the reader once its group's table probes are done, and by
        // the writer once it is.
        let probed = Arc::new(AtomicBool::new(false));
        let done = Arc::new(AtomicBool::new(false));
        let r = {
            let (cache, probed, done) = (Arc::clone(&cache), Arc::clone(&probed), Arc::clone(&done));
            loom::thread::spawn(move || {
                let mut seen = None;
                cache.visit_many(&[10, 1], |i, v| {
                    if i == 0 {
                        assert_eq!(v, Some(&items[1]), "key 10 was shown {v:?}");
                        probed.store(true, Ordering::SeqCst);
                        for _ in 0..dawdle {
                            if done.load(Ordering::SeqCst) {
                                break;
                            }
                            loom::thread::yield_now();
                        }
                    } else {
                        seen = Some(v.copied());
                    }
                });
                seen.expect("key 1 visited")
            })
        };
        let w = {
            let cache = Arc::clone(&cache);
            loom::thread::spawn(move || {
                while !probed.load(Ordering::SeqCst) {
                    loom::thread::yield_now();
                }
                writer(&cache);
                done.store(true, Ordering::SeqCst);
            })
        };
        w.join().unwrap();
        match r.join().unwrap() {
            Some(v) => assert!(allowed.contains(&v), "the reader of key 1 was shown {v:?}"),
            None => assert!(may_miss, "the reader of key 1 missed it"),
        }
        cache.check_slab_invariants();
    }
}

/// The CLOCK hand evicts key 1 and a `put` of key 2 reuses its slab slot
/// while the reader holds the slot index from its table probe: the
/// recycled slot must read as a miss, not as key 2's value.
#[test]
fn visit_many_racing_evict_and_reuse_of_its_slot() {
    loom::model_with(
        loom::Config::random(0x51ab_0001, 600),
        read_racing(
            [[1u64; 4], [10; 4]],
            |cache| {
                cache.force_evict_one();
                cache.put(2, [2; 4]);
                assert_eq!(cache.get(2), Some([2; 4]));
            },
            &[[1; 4]],
            32,
            true,
        ),
    );
}

/// An in-place `put` rewrites key 1's slot while the reader copies it:
/// the reader shows the old value or the new one, whole.
#[test]
fn visit_many_racing_an_in_place_put() {
    loom::model_with(
        loom::Config::random(0x51ab_0002, 600),
        read_racing([[1u64; 4], [10; 4]], |cache| cache.put(1, [7; 4]), &[[1; 4], [7; 4]], 4, false),
    );
}

/// Delete racing delete of the same key: exactly one wins, the slab
/// stays consistent.
#[test]
fn concurrent_deletes_free_once() {
    loom::model_with(loom::Config::random(0xdede_0001, 300), || {
        let cache: Arc<ClockCache<u64>> = Arc::new(ClockCache::new(8));
        cache.put(1, 11);
        let t: Vec<_> = (0..2)
            .map(|_| {
                let cache = Arc::clone(&cache);
                loom::thread::spawn(move || cache.delete(1))
            })
            .collect();
        let wins = t
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|r| r.is_some())
            .count();
        assert_eq!(wins, 1, "exactly one delete must win");
        cache.check_slab_invariants();
    });
}

/// A value whose used length is its own: `len` words after the length
/// word. Its cache has two classes, and a replace between [`SMALL`]
/// (class 0) and [`BIG`] (class 1) moves the item.
#[derive(Clone, Copy, Debug)]
#[repr(C)]
struct Var {
    len: u64,
    words: [u64; 7],
}

// SAFETY: integers only; any bit pattern is a valid value.
unsafe impl Plain for Var {
    fn used_len(&self) -> usize {
        8 * (1 + self.len as usize)
    }
}

impl Var {
    /// The words that carry the value.
    fn used(&self) -> &[u64] {
        &self.words[..(self.len as usize).min(7)]
    }
}

/// Values are equal when the words that carry them are.
impl PartialEq for Var {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.used() == other.used()
    }
}

const SMALL: Var = Var { len: 1, words: [1, 0, 0, 0, 0, 0, 0] };
const BIG: Var = Var { len: 7, words: [7; 7] };

/// A `replace` that moves key 1 from [`SMALL`]'s class to [`BIG`]'s,
/// racing a reader of key 1 and `remover` (a `delete` of key 1, or the
/// CLOCK hand). The reader is shown the old value, the new one, whole,
/// or a miss — never a stranger's value; key 1 ends up gone or holding
/// the new value; and no slot is free twice or lost.
fn move_racing(remover: fn(&ClockCache<Var>)) -> impl Fn() + Send + Sync + 'static {
    move || {
        let cache: Arc<ClockCache<Var>> = Arc::new(ClockCache::new(8));
        cache.put(1, SMALL);
        cache.force_clear_recency();
        let reader = {
            let cache = Arc::clone(&cache);
            loom::thread::spawn(move || cache.get(1))
        };
        let mover = {
            let cache = Arc::clone(&cache);
            loom::thread::spawn(move || cache.replace(1, BIG))
        };
        let other = {
            let cache = Arc::clone(&cache);
            loom::thread::spawn(move || remover(&cache))
        };
        let moved = mover.join().unwrap();
        other.join().unwrap();
        if let Some(v) = reader.join().unwrap() {
            assert!(v == SMALL || v == BIG, "the reader was shown {v:?}");
        }
        let after = cache.get(1);
        assert!(after.is_none() || (after == Some(BIG) && moved), "key 1 holds {after:?}");
        cache.check_slab_invariants();
    }
}

/// A replace moves key 1 to another class while the reader holds its
/// old slot from the table probe: the reader follows it to the new slot,
/// and shows the old value or the new one, whole — never a miss.
#[test]
fn visit_many_racing_a_move_to_another_class() {
    loom::model_with(
        loom::Config::random(0x51ab_0003, 600),
        read_racing([SMALL, BIG], |cache| assert!(cache.replace(1, BIG)), &[SMALL, BIG], 48, false),
    );
}

/// A cross-class replace racing a reader and a `delete` of the key.
#[test]
fn a_move_to_another_class_racing_a_reader_and_a_delete() {
    loom::model_with(
        loom::Config::random(0xc1a5_0002, 400),
        move_racing(|cache| {
            cache.delete(1);
        }),
    );
}

/// A cross-class replace racing a reader and the CLOCK hand.
#[test]
fn a_move_to_another_class_racing_a_reader_and_the_hand() {
    loom::model_with(loom::Config::random(0xc1a5_0003, 400), move_racing(|cache| cache.force_evict_one()));
}
