//! Google `dense_hash_map` analog (paper §2.1).
//!
//! "Dense hash sacrifices space efficiency for extremely high speed: It
//! uses open addressing with quadratic internal probing. It maintains a
//! maximum 0.5 load factor by default, and stores entries in a single
//! large array."
//!
//! [`DenseTable`] is the storage plus [`htm::MemCtx`]-generic operations;
//! [`DenseMap`] is the safe single-threaded owner (`&mut self`), and
//! [`ConcurrentDense`] (see [`crate::locked`]) wraps it in a global —
//! optionally elided — lock for the paper's §2.3 experiment. Quadratic
//! probing uses triangular increments (`h + i(i+1)/2`), which visit every
//! slot of a power-of-two table exactly once.
//!
//! Element counters live *outside* the critical sections, mirroring the
//! paper's setup: "Global counters were removed in cuckoo hash table and
//! dense_hash_map to avoid obvious common data conflicts."

use crate::InsertError;
use core::cell::UnsafeCell;
use core::hash::{BuildHasher, Hash};
use core::mem::MaybeUninit;
use htm::{Abort, DirectCtx, MemCtx, Plain};
use std::collections::hash_map::RandomState;

/// Slot states.
const EMPTY: u8 = 0;
const FULL: u8 = 1;
const DELETED: u8 = 2;

/// Open-addressed storage with `MemCtx`-generic operations.
///
/// All slot access goes through a [`MemCtx`], so the same code runs under
/// a real lock (via [`DirectCtx`]) or inside a simulated hardware
/// transaction — in the latter case the probe sequence lands in the
/// transaction's read set, faithfully reproducing why long probe chains
/// made naive lock elision abort so often (§2.3).
pub struct DenseTable<K, V, S = RandomState> {
    states: Box<[UnsafeCell<u8>]>,
    keys: Box<[UnsafeCell<MaybeUninit<K>>]>,
    vals: Box<[UnsafeCell<MaybeUninit<V>>]>,
    mask: usize,
    hash_builder: S,
}

// SAFETY: the table is inert data; all concurrent access is mediated by
// the caller's lock/transaction discipline (documented on each unsafe
// method). `Plain` entry types are `Copy`, so no drop obligations cross
// threads.
unsafe impl<K: Plain + Send + Sync, V: Plain + Send + Sync, S: Send + Sync> Sync
    for DenseTable<K, V, S>
{
}
// SAFETY: as above.
unsafe impl<K: Plain + Send, V: Plain + Send, S: Send> Send for DenseTable<K, V, S> {}

impl<K, V, S> DenseTable<K, V, S>
where
    K: Plain + Eq + Hash,
    V: Plain,
    S: BuildHasher,
{
    /// Creates a table able to hold `capacity` items at ≤ 0.5 load
    /// (allocates `2 * capacity` slots, rounded up to a power of two).
    pub fn with_capacity_and_hasher(capacity: usize, hash_builder: S) -> Self {
        let slots = (capacity.max(8) * 2).next_power_of_two();
        DenseTable {
            states: (0..slots).map(|_| UnsafeCell::new(EMPTY)).collect(),
            keys: (0..slots)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            vals: (0..slots)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            mask: slots - 1,
            hash_builder,
        }
    }

    /// Total slots (items supported = half of this).
    #[inline]
    pub fn slots(&self) -> usize {
        self.mask + 1
    }

    /// Maximum items before the 0.5 load-factor cap.
    #[inline]
    pub fn item_capacity(&self) -> usize {
        self.slots() / 2
    }

    /// Bytes occupied by the flat arrays.
    pub fn memory_bytes(&self) -> usize {
        self.slots()
            * (core::mem::size_of::<u8>()
                + core::mem::size_of::<K>()
                + core::mem::size_of::<V>())
    }

    #[inline]
    fn bucket_of(&self, key: &K) -> usize {
        (self.hash_builder.hash_one(key) as usize) & self.mask
    }

    /// Inserts through `ctx`.
    ///
    /// # Safety
    ///
    /// The caller must hold the table's writer-side mutual exclusion
    /// (global lock) or run inside a transaction of the covering domain.
    pub unsafe fn insert_ctx<C: MemCtx>(
        &self,
        ctx: &mut C,
        key: K,
        val: V,
    ) -> Result<Result<(), InsertError>, Abort> {
        let mut idx = self.bucket_of(&key);
        let mut first_tombstone: Option<usize> = None;
        for i in 0..=self.mask {
            // SAFETY: `idx <= mask`; storage outlives the section.
            let state = unsafe { ctx.load(self.states[idx].get())? };
            match state {
                EMPTY => {
                    let target = first_tombstone.unwrap_or(idx);
                    // SAFETY: as above; the slot is empty or tombstoned.
                    unsafe {
                        ctx.store(self.keys[target].get().cast::<K>(), key)?;
                        ctx.store(self.vals[target].get().cast::<V>(), val)?;
                        ctx.store(self.states[target].get(), FULL)?;
                    }
                    return Ok(Ok(()));
                }
                DELETED => {
                    if first_tombstone.is_none() {
                        first_tombstone = Some(idx);
                    }
                }
                _ => {
                    // SAFETY: FULL slot holds an initialized key.
                    let k = unsafe { ctx.load(self.keys[idx].get().cast::<K>())? };
                    if k == key {
                        return Ok(Err(InsertError::KeyExists));
                    }
                }
            }
            idx = (idx + i + 1) & self.mask;
        }
        if let Some(target) = first_tombstone {
            // SAFETY: as above.
            unsafe {
                ctx.store(self.keys[target].get().cast::<K>(), key)?;
                ctx.store(self.vals[target].get().cast::<V>(), val)?;
                ctx.store(self.states[target].get(), FULL)?;
            }
            return Ok(Ok(()));
        }
        Ok(Err(InsertError::TableFull))
    }

    /// Looks up through `ctx`.
    ///
    /// # Safety
    ///
    /// Caller must hold the lock or run transactionally, as for
    /// [`DenseTable::insert_ctx`].
    pub unsafe fn get_ctx<C: MemCtx>(&self, ctx: &mut C, key: &K) -> Result<Option<V>, Abort> {
        let mut idx = self.bucket_of(key);
        for i in 0..=self.mask {
            // SAFETY: in-bounds; storage outlives the section.
            let state = unsafe { ctx.load(self.states[idx].get())? };
            match state {
                EMPTY => return Ok(None),
                FULL => {
                    // SAFETY: FULL slot holds an initialized key.
                    let k = unsafe { ctx.load(self.keys[idx].get().cast::<K>())? };
                    if k == *key {
                        // SAFETY: and an initialized value.
                        return Ok(Some(unsafe {
                            ctx.load(self.vals[idx].get().cast::<V>())?
                        }));
                    }
                }
                _ => {}
            }
            idx = (idx + i + 1) & self.mask;
        }
        Ok(None)
    }

    /// Removes through `ctx` (tombstone deletion).
    ///
    /// # Safety
    ///
    /// As for [`DenseTable::insert_ctx`].
    pub unsafe fn remove_ctx<C: MemCtx>(
        &self,
        ctx: &mut C,
        key: &K,
    ) -> Result<Option<V>, Abort> {
        let mut idx = self.bucket_of(key);
        for i in 0..=self.mask {
            // SAFETY: in-bounds; storage outlives the section.
            let state = unsafe { ctx.load(self.states[idx].get())? };
            match state {
                EMPTY => return Ok(None),
                FULL => {
                    // SAFETY: FULL slot holds initialized key/value.
                    let k = unsafe { ctx.load(self.keys[idx].get().cast::<K>())? };
                    if k == *key {
                        // SAFETY: as above.
                        let v = unsafe { ctx.load(self.vals[idx].get().cast::<V>())? };
                        // SAFETY: as above.
                        unsafe { ctx.store(self.states[idx].get(), DELETED)? };
                        return Ok(Some(v));
                    }
                }
                _ => {}
            }
            idx = (idx + i + 1) & self.mask;
        }
        Ok(None)
    }
}

impl<K, V, S> crate::locked::CtxTable for DenseTable<K, V, S>
where
    K: Plain + Eq + Hash,
    V: Plain,
    S: BuildHasher,
{
    type Key = K;
    type Val = V;

    // SAFETY: (contract) as documented on `CtxTable::insert_ctx`.
    unsafe fn insert_ctx<C: MemCtx>(
        &self,
        ctx: &mut C,
        key: K,
        val: V,
    ) -> Result<Result<(), InsertError>, Abort> {
        // SAFETY: forwarded contract.
        unsafe { DenseTable::insert_ctx(self, ctx, key, val) }
    }

    // SAFETY: (contract) as documented on `CtxTable::get_ctx`.
    unsafe fn get_ctx<C: MemCtx>(&self, ctx: &mut C, key: &K) -> Result<Option<V>, Abort> {
        // SAFETY: forwarded contract.
        unsafe { DenseTable::get_ctx(self, ctx, key) }
    }

    // SAFETY: (contract) as documented on `CtxTable::remove_ctx`.
    unsafe fn remove_ctx<C: MemCtx>(&self, ctx: &mut C, key: &K) -> Result<Option<V>, Abort> {
        // SAFETY: forwarded contract.
        unsafe { DenseTable::remove_ctx(self, ctx, key) }
    }

    fn item_capacity(&self) -> usize {
        DenseTable::item_capacity(self)
    }

    fn memory_bytes(&self) -> usize {
        DenseTable::memory_bytes(self)
    }
}

/// Safe single-threaded owner of a [`DenseTable`].
pub struct DenseMap<K, V, S = RandomState> {
    table: DenseTable<K, V, S>,
    len: usize,
}

impl<K, V> DenseMap<K, V, RandomState>
where
    K: Plain + Eq + Hash,
    V: Plain,
{
    /// Creates a map able to hold `capacity` items.
    pub fn with_capacity(capacity: usize) -> Self {
        DenseMap {
            table: DenseTable::with_capacity_and_hasher(capacity, RandomState::new()),
            len: 0,
        }
    }
}

impl<K, V, S> DenseMap<K, V, S>
where
    K: Plain + Eq + Hash,
    V: Plain,
    S: BuildHasher,
{
    /// Inserts `key → val`, enforcing the 0.5 load-factor cap.
    pub fn insert(&mut self, key: K, val: V) -> Result<(), InsertError> {
        if self.len >= self.table.item_capacity() {
            return Err(InsertError::TableFull);
        }
        let mut ctx = DirectCtx::new();
        // SAFETY: `&mut self` is the required mutual exclusion.
        let r = unsafe { self.table.insert_ctx(&mut ctx, key, val) }
            .expect("direct ctx cannot abort");
        if r.is_ok() {
            self.len += 1;
        }
        r
    }

    /// Looks up `key`.
    pub fn get(&self, key: &K) -> Option<V> {
        let mut ctx = DirectCtx::new();
        // SAFETY: shared reads on a single-threaded map are exclusive
        // enough (no writer can exist while `&self` is live... writers
        // need `&mut self`).
        unsafe { self.table.get_ctx(&mut ctx, key) }.expect("direct ctx cannot abort")
    }

    /// Removes `key`.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let mut ctx = DirectCtx::new();
        // SAFETY: `&mut self` is the required mutual exclusion.
        let r = unsafe { self.table.remove_ctx(&mut ctx, key) }.expect("direct ctx cannot abort");
        if r.is_some() {
            self.len -= 1;
        }
        r
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum items (0.5 load factor).
    pub fn capacity(&self) -> usize {
        self.table.item_capacity()
    }

    /// Bytes occupied.
    pub fn memory_bytes(&self) -> usize {
        self.table.memory_bytes()
    }
}

/// Global-lock (optionally elided) concurrent wrapper.
pub type ConcurrentDense<K, V, S = RandomState> = crate::locked::Locked<DenseTable<K, V, S>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut m: DenseMap<u64, u64> = DenseMap::with_capacity(1000);
        for k in 0..500u64 {
            m.insert(k, k * 2).unwrap();
        }
        assert_eq!(m.len(), 500);
        assert_eq!(m.insert(3, 9), Err(InsertError::KeyExists));
        for k in 0..500u64 {
            assert_eq!(m.get(&k), Some(k * 2));
        }
        assert_eq!(m.get(&9999), None);
        assert_eq!(m.remove(&100), Some(200));
        assert_eq!(m.remove(&100), None);
        assert_eq!(m.len(), 499);
        // Tombstone reuse: reinsert over the deleted slot.
        m.insert(100, 7).unwrap();
        assert_eq!(m.get(&100), Some(7));
    }

    #[test]
    fn load_factor_capped_at_half() {
        let mut m: DenseMap<u64, u64> = DenseMap::with_capacity(100);
        let cap = m.capacity();
        assert_eq!(cap * 2, m.table.slots());
        for k in 0..cap as u64 {
            m.insert(k, k).unwrap();
        }
        assert_eq!(m.insert(u64::MAX, 0), Err(InsertError::TableFull));
    }

    #[test]
    fn quadratic_probe_survives_dense_cluster() {
        // Keys engineered to collide would be hard with SipHash; instead
        // fill to the cap and verify everything is findable (probe chains
        // must terminate and cover).
        let mut m: DenseMap<u64, u64> = DenseMap::with_capacity(4096);
        let cap = m.capacity() as u64;
        for k in 0..cap {
            m.insert(k.wrapping_mul(0x9e3779b9), k).unwrap();
        }
        for k in 0..cap {
            assert_eq!(m.get(&k.wrapping_mul(0x9e3779b9)), Some(k));
        }
    }

    #[test]
    fn delete_heavy_churn_with_tombstones() {
        let mut m: DenseMap<u64, u64> = DenseMap::with_capacity(256);
        for round in 0..20u64 {
            for k in 0..200u64 {
                m.insert(round * 1000 + k, k).unwrap();
            }
            for k in 0..200u64 {
                assert_eq!(m.remove(&(round * 1000 + k)), Some(k));
            }
        }
        assert!(m.is_empty());
    }

    #[test]
    fn memory_accounting() {
        let m: DenseMap<u64, u64> = DenseMap::with_capacity(1 << 10);
        // 2^11 slots * (1 + 8 + 8) bytes.
        assert_eq!(m.memory_bytes(), (1 << 11) * 17);
    }
}
