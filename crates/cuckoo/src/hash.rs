//! Hash functions, implemented from scratch.
//!
//! The tables are generic over [`core::hash::BuildHasher`]; two hashers
//! are provided:
//!
//! - [`FxHasher64`] — a multiply-xor folding hasher in the style of the
//!   rustc compiler's FxHash. Extremely fast for the small fixed-size keys
//!   the paper benchmarks (8-byte keys), with adequate diffusion once
//!   finalized. This is the default.
//! - [`SipHasher13`] — a full SipHash-1-3 implementation for
//!   hash-flooding resistance with untrusted keys, matching what
//!   `std::collections::HashMap` uses by default.
//!
//! [`RandomState`] seeds either hasher per table instance without calling
//! into the OS (a counter mixed with address entropy), keeping table
//! construction deterministic enough for tests while still varying seeds
//! between tables.
//!
//! # The two-bucket, partial-key hashing scheme (paper §4.1)
//!
//! Every key maps to two candidate buckets. Following the MemC3 lineage
//! the paper builds on, one 64-bit hash yields:
//!
//! - the **partial key** (or *tag*): one non-zero byte stored next to the
//!   slot. Lookups compare tags before touching full keys, and — crucially
//!   for inserts — a slot's *alternate* bucket is computable from the tag
//!   alone, so path search never reads (or rehashes) full keys.
//! - the **primary bucket index**, from the hash's low bits.
//!
//! The alternate index is `index XOR (tag * ODD_MULT)` masked to the table
//! size. XOR with a value derived only from the tag makes the mapping an
//! involution: `alt_index(alt_index(i, t), t) == i`, which is exactly what
//! lets displacement move an item *back* as well as forward.

use core::hash::{BuildHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// 64-bit finalization mix (Murmur3/SplitMix style): full-avalanche, so
/// low-entropy inputs (sequential integers) still spread across buckets.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// A fast multiply-xor hasher for short keys (FxHash style, finalized).
#[derive(Debug, Clone, Copy)]
pub struct FxHasher64 {
    state: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher64 {
    /// Creates a hasher with the given initial state.
    #[inline]
    pub fn with_seed(seed: u64) -> Self {
        FxHasher64 { state: seed }
    }

    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Default for FxHasher64 {
    #[inline]
    fn default() -> Self {
        FxHasher64 { state: 0 }
    }
}

impl Hasher for FxHasher64 {
    #[inline]
    fn finish(&self) -> u64 {
        // The raw Fx state has weak low bits for short inputs; the tables
        // take both the bucket index and the partial key from one hash, so
        // full avalanche matters.
        mix64(self.state)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("chunks_exact(8) yields 8-byte chunks")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            tail[7] = rem.len() as u8;
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// SipHash-1-3: one compression round per message block, three
/// finalization rounds. Keyed, flooding-resistant.
#[derive(Debug, Clone)]
pub struct SipHasher13 {
    v0: u64,
    v1: u64,
    v2: u64,
    v3: u64,
    /// Pending input bytes (< 8) and total length so far.
    tail: u64,
    ntail: usize,
    length: usize,
}

macro_rules! sip_round {
    ($v0:expr, $v1:expr, $v2:expr, $v3:expr) => {{
        $v0 = $v0.wrapping_add($v1);
        $v1 = $v1.rotate_left(13);
        $v1 ^= $v0;
        $v0 = $v0.rotate_left(32);
        $v2 = $v2.wrapping_add($v3);
        $v3 = $v3.rotate_left(16);
        $v3 ^= $v2;
        $v0 = $v0.wrapping_add($v3);
        $v3 = $v3.rotate_left(21);
        $v3 ^= $v0;
        $v2 = $v2.wrapping_add($v1);
        $v1 = $v1.rotate_left(17);
        $v1 ^= $v2;
        $v2 = $v2.rotate_left(32);
    }};
}

impl SipHasher13 {
    /// Creates a keyed SipHash-1-3 hasher.
    pub fn new_with_keys(k0: u64, k1: u64) -> Self {
        SipHasher13 {
            v0: k0 ^ 0x736f_6d65_7073_6575,
            v1: k1 ^ 0x646f_7261_6e64_6f6d,
            v2: k0 ^ 0x6c79_6765_6e65_7261,
            v3: k1 ^ 0x7465_6462_7974_6573,
            tail: 0,
            ntail: 0,
            length: 0,
        }
    }

    #[inline]
    fn compress(&mut self, m: u64) {
        self.v3 ^= m;
        sip_round!(self.v0, self.v1, self.v2, self.v3);
        self.v0 ^= m;
    }
}

impl Default for SipHasher13 {
    fn default() -> Self {
        Self::new_with_keys(0, 0)
    }
}

impl Hasher for SipHasher13 {
    fn write(&mut self, bytes: &[u8]) {
        self.length += bytes.len();
        let mut input = bytes;

        if self.ntail != 0 {
            let need = 8 - self.ntail;
            let take = need.min(input.len());
            for (i, &b) in input[..take].iter().enumerate() {
                self.tail |= (b as u64) << (8 * (self.ntail + i));
            }
            self.ntail += take;
            input = &input[take..];
            if self.ntail < 8 {
                return;
            }
            let m = self.tail;
            self.compress(m);
            self.tail = 0;
            self.ntail = 0;
        }

        let mut chunks = input.chunks_exact(8);
        for c in &mut chunks {
            self.compress(u64::from_le_bytes(c.try_into().expect("chunks_exact(8) yields 8-byte chunks")));
        }
        for (i, &b) in chunks.remainder().iter().enumerate() {
            self.tail |= (b as u64) << (8 * i);
        }
        self.ntail = chunks.remainder().len();
    }

    fn finish(&self) -> u64 {
        let mut v0 = self.v0;
        let mut v1 = self.v1;
        let mut v2 = self.v2;
        let mut v3 = self.v3;

        let b: u64 = ((self.length as u64 & 0xff) << 56) | self.tail;
        v3 ^= b;
        sip_round!(v0, v1, v2, v3);
        v0 ^= b;

        v2 ^= 0xff;
        sip_round!(v0, v1, v2, v3);
        sip_round!(v0, v1, v2, v3);
        sip_round!(v0, v1, v2, v3);
        v0 ^ v1 ^ v2 ^ v3
    }
}

/// Per-table seeding state; builds [`FxHasher64`] instances.
///
/// Seeds derive from a process-global counter mixed through [`mix64`], so
/// distinct tables get distinct hash functions without OS entropy calls.
#[derive(Debug, Clone)]
pub struct RandomState {
    seed: u64,
}

static SEED_COUNTER: AtomicU64 = AtomicU64::new(0x9e37_79b9);

impl RandomState {
    /// Creates a state with a fresh per-table seed.
    pub fn new() -> Self {
        let n = SEED_COUNTER.fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed); // ORDERING: alloc.unique-id
        RandomState { seed: mix64(n) }
    }

    /// Creates a state with a fixed seed (for reproducible tests and
    /// benchmarks).
    pub fn with_seed(seed: u64) -> Self {
        RandomState { seed }
    }
}

impl Default for RandomState {
    fn default() -> Self {
        Self::new()
    }
}

impl BuildHasher for RandomState {
    type Hasher = FxHasher64;

    #[inline]
    fn build_hasher(&self) -> FxHasher64 {
        FxHasher64::with_seed(self.seed)
    }
}

/// The default hash builder used by all tables in this crate.
pub type DefaultHashBuilder = RandomState;

/// Builder for [`SipHasher13`]; use when keys come from untrusted input.
#[derive(Debug, Clone)]
pub struct SipHashBuilder {
    k0: u64,
    k1: u64,
}

impl SipHashBuilder {
    /// Creates a builder with fresh per-table keys.
    pub fn new() -> Self {
        let n = SEED_COUNTER.fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed); // ORDERING: alloc.unique-id
        SipHashBuilder {
            k0: mix64(n),
            k1: mix64(n ^ 0xdead_beef_cafe_f00d),
        }
    }

    /// Creates a builder with fixed keys.
    pub fn with_keys(k0: u64, k1: u64) -> Self {
        SipHashBuilder { k0, k1 }
    }
}

impl Default for SipHashBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl BuildHasher for SipHashBuilder {
    type Hasher = SipHasher13;

    #[inline]
    fn build_hasher(&self) -> SipHasher13 {
        SipHasher13::new_with_keys(self.k0, self.k1)
    }
}

/// Multiplier spreading the 8-bit tag across index bits (the constant is
/// the 64-bit Murmur2 multiplier, also used by MemC3).
const TAG_MULT: u64 = 0xc6a4_a793_5bd1_e995;

/// A key's full placement information: primary/alternate bucket and tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeySlots {
    /// Primary bucket index.
    pub i1: usize,
    /// Alternate bucket index.
    pub i2: usize,
    /// Non-zero partial key stored alongside the slot.
    pub tag: u8,
}

/// Extracts a non-zero tag from a hash's top byte.
#[inline]
pub fn tag_of(hash: u64) -> u8 {
    let t = (hash >> 56) as u8;
    if t == 0 {
        1
    } else {
        t
    }
}

/// Primary bucket index for a hash in a table of `mask + 1` buckets.
#[inline]
pub fn index_of(hash: u64, mask: usize) -> usize {
    (hash as usize) & mask
}

/// The other candidate bucket for an item with `tag` currently in bucket
/// `index`. Involutive: applying it twice returns `index`.
///
/// For the two candidates to be distinct for every tag, the table must
/// have at least 256 buckets (table constructors enforce this minimum).
#[inline]
pub fn alt_index(index: usize, tag: u8, mask: usize) -> usize {
    index ^ ((tag as u64).wrapping_mul(TAG_MULT) as usize & mask)
}

/// Hashes `key` once. Operations that may probe more than one table
/// (migration's two-table lookups) or retry (stale-table loops) hash
/// with this and re-derive per-mask slots via [`slots_from_hash`]
/// instead of paying the full hash on every attempt.
#[inline]
pub fn hash_of<K: Hash + ?Sized, S: BuildHasher>(hash_builder: &S, key: &K) -> u64 {
    hash_builder.hash_one(key)
}

/// Derives both candidate buckets and the tag from an already-computed
/// hash. Tag and primary index depend only on the hash; the alternate
/// index additionally depends on the table's `mask`, so one hash serves
/// any number of table sizes.
#[inline]
pub fn slots_from_hash(hash: u64, mask: usize) -> KeySlots {
    let tag = tag_of(hash);
    let i1 = index_of(hash, mask);
    let i2 = alt_index(i1, tag, mask);
    KeySlots { i1, i2, tag }
}

/// Computes both candidate buckets and the tag for `key`.
#[inline]
pub fn key_slots<K: Hash + ?Sized, S: BuildHasher>(
    hash_builder: &S,
    key: &K,
    mask: usize,
) -> KeySlots {
    slots_from_hash(hash_of(hash_builder, key), mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fx_hash_of<T: Hash>(v: &T) -> u64 {
        let mut h = FxHasher64::default();
        v.hash(&mut h);
        h.finish()
    }

    fn sip_hash_of<T: Hash>(v: &T, k0: u64, k1: u64) -> u64 {
        let mut h = SipHasher13::new_with_keys(k0, k1);
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn fx_is_deterministic_and_input_sensitive() {
        assert_eq!(fx_hash_of(&42u64), fx_hash_of(&42u64));
        assert_ne!(fx_hash_of(&42u64), fx_hash_of(&43u64));
        assert_ne!(fx_hash_of(&"abc"), fx_hash_of(&"abd"));
    }

    #[test]
    fn fx_sequential_keys_avalanche() {
        // Sequential integers must differ in high bits too (the partial
        // key is taken from the top byte).
        let a = fx_hash_of(&1u64);
        let b = fx_hash_of(&2u64);
        assert_ne!(a >> 56, b >> 56, "top bytes should differ: {a:x} {b:x}");
        // Distribution sanity: bucket-index bits of 10k sequential keys
        // should hit most of 1024 buckets.
        let mut seen = vec![false; 1024];
        for i in 0..10_000u64 {
            seen[(fx_hash_of(&i) & 1023) as usize] = true;
        }
        let hit = seen.iter().filter(|&&s| s).count();
        assert!(hit > 1000, "only {hit}/1024 buckets hit");
    }

    #[test]
    fn sip13_known_vector() {
        // SipHash-1-3 of the empty message under key (0,0), cross-checked
        // against the reference implementation.
        let h = SipHasher13::new_with_keys(0, 0);
        assert_eq!(h.finish(), 0xd1fba762150c532c);
        let mut h = SipHasher13::new_with_keys(7, 9);
        h.write(b"hello");
        assert_eq!(h.finish(), 0x6d9e635eb581966a);
    }

    #[test]
    fn sip13_incremental_matches_oneshot() {
        let data = b"hello world, this is a test of incremental hashing";
        let mut one = SipHasher13::new_with_keys(7, 9);
        one.write(data);
        let mut inc = SipHasher13::new_with_keys(7, 9);
        for chunk in data.chunks(3) {
            inc.write(chunk);
        }
        assert_eq!(one.finish(), inc.finish());
    }

    #[test]
    fn sip13_is_keyed() {
        assert_ne!(sip_hash_of(&1u64, 0, 0), sip_hash_of(&1u64, 0, 1));
    }

    #[test]
    fn random_state_varies_between_tables_but_is_seedable() {
        let a = RandomState::new();
        let b = RandomState::new();
        let ha = a.build_hasher().finish();
        let hb = b.build_hasher().finish();
        assert_ne!(ha, hb);

        let c = RandomState::with_seed(123);
        let d = RandomState::with_seed(123);
        let mut hc = c.build_hasher();
        let mut hd = d.build_hasher();
        hc.write_u64(5);
        hd.write_u64(5);
        assert_eq!(hc.finish(), hd.finish());
    }

    #[test]
    fn mix64_avalanches_single_bits() {
        for bit in 0..64 {
            let a = mix64(0);
            let b = mix64(1u64 << bit);
            let diff = (a ^ b).count_ones();
            assert!(diff >= 16, "bit {bit} only flipped {diff} output bits");
        }
    }

    const MASK: usize = (1 << 16) - 1;

    #[test]
    fn tag_is_never_zero() {
        for h in [0u64, 1 << 56, u64::MAX, 0x00ff_ffff_ffff_ffff] {
            assert_ne!(tag_of(h), 0, "hash {h:#x}");
        }
        assert_eq!(tag_of(0), 1);
        assert_eq!(tag_of(0xab00_0000_0000_0000), 0xab);
    }

    #[test]
    fn alt_index_is_an_involution() {
        for i in (0..=MASK).step_by(97) {
            for tag in 1..=255u8 {
                let a = alt_index(i, tag, MASK);
                assert_eq!(alt_index(a, tag, MASK), i, "i={i} tag={tag}");
            }
        }
    }

    #[test]
    fn alt_index_differs_from_index() {
        // tag * TAG_MULT masked must be non-zero or both candidate buckets
        // collapse to one. TAG_MULT is odd, so multiplication by it is a
        // bijection mod 2^k: the masked product is zero only when the tag
        // is divisible by the table size, impossible for tables of at
        // least 256 buckets (constructors enforce that minimum).
        for shift in [8usize, 16, 20] {
            let mask = (1usize << shift) - 1;
            for tag in 1..=255u8 {
                assert_ne!(
                    alt_index(0, tag, mask),
                    0,
                    "tag {tag} collapses at mask {mask:#x}"
                );
            }
        }
    }

    #[test]
    fn key_slots_consistent_with_parts() {
        let s = RandomState::with_seed(42);
        let ks = key_slots(&s, &12345u64, MASK);
        assert!(ks.i1 <= MASK && ks.i2 <= MASK);
        assert_ne!(ks.tag, 0);
        assert_eq!(alt_index(ks.i1, ks.tag, MASK), ks.i2);
        assert_eq!(alt_index(ks.i2, ks.tag, MASK), ks.i1);
    }

    #[test]
    fn slots_from_hash_matches_key_slots_across_masks() {
        let s = RandomState::with_seed(17);
        for key in 0..500u64 {
            let h = hash_of(&s, &key);
            for shift in [8usize, 12, 16, 20] {
                let mask = (1usize << shift) - 1;
                assert_eq!(slots_from_hash(h, mask), key_slots(&s, &key, mask));
            }
        }
    }

    #[test]
    fn buckets_spread_over_table() {
        let s = RandomState::with_seed(7);
        let mut hits = vec![0u32; 256];
        let mask = 255;
        for k in 0..10_000u64 {
            let ks = key_slots(&s, &k, mask);
            hits[ks.i1] += 1;
        }
        let max = *hits.iter().max().unwrap();
        let min = *hits.iter().min().unwrap();
        // ~39 expected per bucket; allow generous skew.
        assert!(min > 10 && max < 100, "min={min} max={max}");
    }
}
