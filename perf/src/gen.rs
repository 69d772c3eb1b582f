//! Seeded input generation. Everything the programs under test receive
//! is a function of `--seed`; nothing here depends on the repository's
//! own crates, so a later change to them cannot change the inputs.

/// SplitMix64 finalizer: a bijection on `u64`, so distinct inputs give
/// distinct outputs (library keys rely on that to be duplicate-free).
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// SplitMix64 sequence generator.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, lane)`; lanes of one seed are independent.
    pub fn new(seed: u64, lane: u64) -> Self {
        Rng(mix64(seed ^ mix64(lane)))
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n` below 2^32).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() >> 32) * n) >> 32
    }
}

/// Zipf(n, s) over ranks `0..n`, rank 0 hottest: rejection-inversion
/// sampling (Hörmann & Derflinger), O(1) per draw and no tables.
pub struct Zipf {
    n: f64,
    s: f64,
    h_x1: f64,
    h_n: f64,
}

impl Zipf {
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0 && s > 0.0 && (s - 1.0).abs() > 1e-9);
        let mut z = Zipf {
            n: n as f64,
            s,
            h_x1: 0.0,
            h_n: 0.0,
        };
        z.h_x1 = z.h(1.5) - 1.0;
        z.h_n = z.h(z.n + 0.5);
        z
    }

    fn h(&self, x: f64) -> f64 {
        (x.powf(1.0 - self.s) - 1.0) / (1.0 - self.s)
    }

    fn h_inv(&self, x: f64) -> f64 {
        (1.0 + x * (1.0 - self.s)).powf(1.0 / (1.0 - self.s))
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        loop {
            let u = self.h_x1 + rng.next_f64() * (self.h_n - self.h_x1);
            let x = self.h_inv(u);
            let k = (x + 0.5).floor().clamp(1.0, self.n);
            if u >= self.h(k + 0.5) - k.powf(-self.s) {
                return k as u64 - 1;
            }
        }
    }
}

/// Arrival times, in seconds from 0, of a Poisson process of `rate`
/// events per second: exponential gaps summed.
pub struct Poisson {
    rng: Rng,
    rate: f64,
    due: f64,
}

impl Poisson {
    pub fn new(seed: u64, rate: f64) -> Self {
        let mut p = Poisson {
            rng: Rng::new(seed, 0x9015),
            rate,
            due: 0.0,
        };
        p.advance();
        p
    }

    /// When the next event is due.
    pub fn due(&self) -> f64 {
        self.due
    }

    pub fn advance(&mut self) {
        self.due += -(1.0 - self.rng.next_f64()).ln() / self.rate;
    }
}

// ---------------------------------------------------------------------
// Library workloads: u64 keys and values
// ---------------------------------------------------------------------

/// Key number `idx` of the seed's key sequence (duplicate-free).
#[inline]
pub fn lib_key(seed: u64, idx: u64) -> u64 {
    mix64(idx ^ mix64(seed))
}

/// The one value a library key may carry.
#[inline]
pub fn lib_val(key: u64) -> u64 {
    mix64(key ^ 0x5eed_ca11_ab1e_0001)
}

// ---------------------------------------------------------------------
// Server workloads: memcached-ASCII request streams
// ---------------------------------------------------------------------

const HEX: &[u8; 16] = b"0123456789abcdef";

/// `k` + 16 hex digits: 17 bytes, every id a distinct key.
pub fn key_bytes(id: u64, out: &mut Vec<u8>) {
    out.push(b'k');
    for shift in (0..16).rev() {
        out.push(HEX[((id >> (shift * 4)) & 15) as usize]);
    }
}

/// The value of key `id` at `version`: printable bytes from a stream
/// seeded by both, so a stale, torn or misrouted value never matches.
pub fn value_bytes(id: u64, version: u32, len: usize, out: &mut Vec<u8>) {
    let mut word = 0u64;
    for i in 0..len {
        if i % 16 == 0 {
            word = mix64(id ^ ((version as u64) << 40) ^ (i as u64) << 56);
        }
        out.push(HEX[(word & 15) as usize]);
        word >>= 4;
    }
}

/// How a connection's generator picks its next key.
#[derive(Clone, Copy, PartialEq)]
pub enum KeySel {
    /// Ranks in order, each once; the stream ends after the last.
    Sequential,
    Uniform,
    Zipf,
}

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum OpKind {
    Get,
    Set,
}

/// What the reply to one generated request must be.
#[derive(Clone, Copy, Debug)]
pub struct Expect {
    pub kind: OpKind,
    pub id: u64,
    /// For a get: the version the reply must carry, 0 = must miss. For
    /// a set: the version being written.
    pub version: u32,
}

/// One connection's request generator. Connection `c` of `n` owns the
/// key ids `≡ c (mod n)`, so every key has a single writer and replies
/// on a FIFO connection are exactly predictable: a get returns the last
/// version this generator set before it.
pub struct ConnGen {
    rng: Rng,
    zipf: Zipf,
    conn: u64,
    conns: u64,
    pub value_len: usize,
    sel: KeySel,
    /// Sets per 65536 requests.
    set_per_64k: u64,
    next_seq: u64,
    versions: Vec<u32>,
}

pub const ZIPF_S: f64 = 0.99;

impl ConnGen {
    pub fn new(seed: u64, conn: u64, conns: u64, keys_per_conn: u64, value_len: usize) -> Self {
        ConnGen {
            rng: Rng::new(seed, 0xc0 + conn),
            zipf: Zipf::new(keys_per_conn, ZIPF_S),
            conn,
            conns,
            value_len,
            sel: KeySel::Sequential,
            set_per_64k: 65536,
            next_seq: 0,
            versions: vec![0; keys_per_conn as usize],
        }
    }

    /// Switches the traffic mix; key versions carry over.
    pub fn mix(&mut self, sel: KeySel, set_frac: f64) {
        self.sel = sel;
        self.set_per_64k = (set_frac * 65536.0).round() as u64;
        self.next_seq = 0;
    }

    pub fn keys(&self) -> u64 {
        self.versions.len() as u64
    }

    /// Requests left in a `Sequential` pass.
    pub fn remaining_seq(&self) -> u64 {
        self.keys() - self.next_seq
    }

    pub fn id_of(&self, rank: u64) -> u64 {
        rank * self.conns + self.conn
    }

    /// Appends the next request's bytes to `out`.
    pub fn next(&mut self, out: &mut Vec<u8>) -> Expect {
        let r = self.rng.next_u64();
        let rank = match self.sel {
            KeySel::Sequential => {
                self.next_seq += 1;
                self.next_seq - 1
            }
            KeySel::Uniform => self.rng.below(self.keys()),
            KeySel::Zipf => self.zipf.sample(&mut self.rng),
        };
        let id = self.id_of(rank);
        if (r & 0xffff) < self.set_per_64k {
            let version = self.versions[rank as usize] + 1;
            self.versions[rank as usize] = version;
            out.extend_from_slice(b"set ");
            key_bytes(id, out);
            out.extend_from_slice(b" 0 0 ");
            out.extend_from_slice(self.value_len.to_string().as_bytes());
            out.extend_from_slice(b"\r\n");
            value_bytes(id, version, self.value_len, out);
            out.extend_from_slice(b"\r\n");
            Expect {
                kind: OpKind::Set,
                id,
                version,
            }
        } else {
            out.extend_from_slice(b"get ");
            key_bytes(id, out);
            out.extend_from_slice(b"\r\n");
            Expect {
                kind: OpKind::Get,
                id,
                version: self.versions[rank as usize],
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64, n: usize) -> Vec<u8> {
        let mut g = ConnGen::new(seed, 1, 2, 1000, 32);
        let mut out = Vec::new();
        for _ in 0..1000 {
            g.next(&mut out);
        }
        g.mix(KeySel::Zipf, 0.05);
        for _ in 0..n {
            g.next(&mut out);
        }
        out
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(stream(1, 5000), stream(1, 5000));
        assert_ne!(stream(1, 5000), stream(2, 5000));
    }

    #[test]
    fn library_keys_are_distinct_and_seeded() {
        let mut keys: Vec<u64> = (0..100_000).map(|i| lib_key(7, i)).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 100_000);
        assert_ne!(lib_key(7, 0), lib_key(8, 0));
    }

    #[test]
    fn gets_expect_the_last_version_set() {
        let mut g = ConnGen::new(3, 0, 2, 8, 32);
        let mut out = Vec::new();
        for _ in 0..8 {
            assert_eq!(g.next(&mut out).version, 1);
        }
        g.mix(KeySel::Uniform, 0.5);
        let mut last = [1u32; 8];
        for _ in 0..1000 {
            let e = g.next(&mut out);
            let rank = (e.id / 2) as usize;
            match e.kind {
                OpKind::Set => {
                    assert_eq!(e.version, last[rank] + 1);
                    last[rank] = e.version;
                }
                OpKind::Get => assert_eq!(e.version, last[rank]),
            }
        }
    }

    #[test]
    fn values_differ_by_key_and_version() {
        let v = |id, ver| {
            let mut o = Vec::new();
            value_bytes(id, ver, 32, &mut o);
            o
        };
        assert_eq!(v(5, 1).len(), 32);
        assert_ne!(v(5, 1), v(5, 2));
        assert_ne!(v(5, 1), v(6, 1));
        assert_eq!(v(5, 1), v(5, 1));
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1000, ZIPF_S);
        let mut rng = Rng::new(1, 0);
        let mut hist = vec![0u32; 1000];
        for _ in 0..200_000 {
            hist[z.sample(&mut rng) as usize] += 1;
        }
        // P(rank 0) = 1/H(1000, 0.99) ≈ 0.131; rank 1 is 2^-0.99 of it.
        let p0 = hist[0] as f64 / 200_000.0;
        assert!((p0 - 0.131).abs() < 0.01, "p0 = {p0}");
        let ratio = hist[1] as f64 / hist[0] as f64;
        assert!((ratio - 0.5035).abs() < 0.03, "ratio = {ratio}");
        assert!(hist[999] > 0 && hist[999] < hist[0] / 100);
    }

    #[test]
    fn poisson_gaps_average_to_the_rate() {
        let mut p = Poisson::new(1, 20_000.0);
        let mut last = 0.0;
        for _ in 0..200_000 {
            assert!(p.due() > last);
            last = p.due();
            p.advance();
        }
        // 200k arrivals at 20k/s take 10 s ± a few standard errors (22 ms).
        assert!((last - 10.0).abs() < 0.1, "200k arrivals took {last} s");
    }
}
