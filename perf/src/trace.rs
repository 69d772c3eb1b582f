//! Traced attribution. Spans are recorded from this package, around the
//! calls into each layer's public functions, into a buffer allocated
//! beforehand and written out when the run ends; spans inside the
//! programs are a later change.
//!
//! For a server workload the trace is an in-process replay of the first
//! [`REPLAY_REQUESTS`] generated requests through the calls the server's
//! connection loop makes with the same bytes — `proto::parse`, then
//! `Store::get` or (for a burst of sets) `Store::store_many`, then
//! `proto::encode_*` — once without and once with spans.

use crate::gen::{ConnGen, KeySel};
use crate::netload::{Drive, NetSpec, CONNS};
use crate::wire::parse_reply;
use server::proto::{self, Parsed, Request};
use server::store::{now_secs, ClockStore, CuckooStore, Store, StoreCmd, StoreOutcome};
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum SpanName {
    /// One pipelined batch as the connection loop sees it.
    Batch,
    Parse,
    StoreOp,
    Encode,
    /// One table call of a library workload.
    TableOp,
}

impl SpanName {
    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::Batch => "conn.batch",
            SpanName::Parse => "proto.parse",
            SpanName::StoreOp => "store.op",
            SpanName::Encode => "proto.encode",
            SpanName::TableOp => "table.op",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: SpanName,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The request this span belongs to; spans of one request share it.
    /// A [`SpanName::Batch`] span is the request's root.
    pub parent: u32,
}

pub const REPLAY_REQUESTS: u64 = 200_000;
/// Requests whose spans are written to the trace file.
const WRITTEN_REQUESTS: u32 = 20_000;

/// What two back-to-back clock reads measure: subtracted from every
/// span, which always contains one such pair's worth of reading.
pub fn clock_cost_ns() -> f64 {
    let mut gaps: Vec<u32> = (0..10_001)
        .map(|_| {
            let t0 = Instant::now();
            (Instant::now() - t0).as_nanos() as u32
        })
        .collect();
    gaps.sort_unstable();
    gaps[gaps.len() / 2] as f64
}

/// Self time per layer: a span's duration less the clock cost, less (for
/// a root) what its children cover.
#[derive(Default, Debug)]
pub struct SelfTimes {
    pub batch_ns: f64,
    pub parse_ns: f64,
    pub store_ns: f64,
    pub encode_ns: f64,
}

pub fn self_times(spans: &[Span], clock_ns: f64) -> SelfTimes {
    let mut s = SelfTimes::default();
    for span in spans {
        let wall = (span.end_ns - span.start_ns) as f64;
        let own = (wall - clock_ns).max(0.0);
        let layer = match span.name {
            SpanName::Batch => {
                s.batch_ns += wall;
                continue;
            }
            SpanName::Parse => &mut s.parse_ns,
            SpanName::StoreOp => &mut s.store_ns,
            SpanName::Encode => &mut s.encode_ns,
            SpanName::TableOp => continue,
        };
        *layer += own;
        // A child leaves its root at its full width: the clock reads
        // around it are not the root's own work either.
        s.batch_ns -= wall;
    }
    s.batch_ns = s.batch_ns.max(0.0);
    s
}

pub struct Replay {
    /// Requests of one pass.
    pub requests: u64,
    /// Requests replayed and wrong replies, over every pass.
    pub attempted: u64,
    pub failed: u64,
    pub plain_ns: f64,
    pub traced_ns: f64,
    pub spans: Vec<Span>,
}

fn engine(spec: &NetSpec) -> Box<dyn Store> {
    if spec.no_evict {
        Box::new(CuckooStore::new(spec.capacity))
    } else {
        Box::new(ClockStore::new(spec.capacity))
    }
}

/// Records spans, or — for the untraced replay — does nothing, not even
/// read the clock.
struct Tracer<'a> {
    spans: Option<&'a mut Vec<Span>>,
    epoch: Instant,
}

impl Tracer<'_> {
    #[inline]
    fn now(&self) -> u64 {
        match self.spans {
            Some(_) => self.epoch.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    #[inline]
    fn span(&mut self, name: SpanName, start_ns: u64, end_ns: u64, parent: u32) {
        if let Some(spans) = self.spans.as_deref_mut() {
            spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
            });
        }
    }
}

/// Replays the workload's first requests in process: `(ns spent in the
/// batches, requests, wrong replies)` — generating the requests and
/// checking the replies is not counted. With `spans`, every layer call
/// is recorded.
fn replay_once(spec: &NetSpec, seed: u64, spans: Option<&mut Vec<Span>>) -> (f64, u64, u64) {
    let store = engine(spec);
    let mut gens: Vec<ConnGen> = (0..CONNS)
        .map(|c| ConnGen::new(seed, c, CONNS, spec.keys_per_conn, spec.value_len))
        .collect();
    let now = now_secs();
    let mut buf = Vec::new();
    if spec.prefill {
        for g in gens.iter_mut() {
            for _ in 0..g.keys() {
                buf.clear();
                g.next(&mut buf);
                let Parsed::Ok {
                    request:
                        Request::Store {
                            verb,
                            key,
                            flags,
                            exptime,
                            data,
                            ..
                        },
                    ..
                } = proto::parse(&buf)
                else {
                    unreachable!("the generator emits well-formed sets");
                };
                store.store(verb, key, flags, exptime, data, now);
            }
        }
    }
    // Requests reach the server's parser in the batches they are
    // written in.
    let depth = match spec.drive {
        Drive::Closed(d) | Drive::ClosedFill(d) => d,
        Drive::Paced(_) => 1,
    };
    for g in gens.iter_mut() {
        g.mix(spec.sel, spec.set_frac);
    }

    let epoch = Instant::now();
    let mut tr = Tracer { spans, epoch };
    let mut busy_ns = 0u64;
    let mut out = Vec::with_capacity(1 << 16);
    let mut want = Vec::new();
    let mut expects = Vec::with_capacity(depth);
    let mut outcomes: Vec<StoreOutcome> = Vec::new();
    let (mut done, mut failed) = (0u64, 0u64);
    let mut turn = 0;
    while done < REPLAY_REQUESTS {
        let g = &mut gens[turn % CONNS as usize];
        turn += 1;
        let n = if spec.sel == KeySel::Sequential {
            depth.min(g.remaining_seq() as usize)
        } else {
            depth
        };
        if n == 0 {
            break;
        }
        buf.clear();
        expects.clear();
        expects.extend((0..n).map(|_| g.next(&mut buf)));
        out.clear();

        // What `Conn::drain_requests` and `execute` do with one read's
        // bytes.
        let id = done as u32;
        let batch_start = Instant::now();
        let mut pos = 0;
        while pos < buf.len() {
            let t0 = tr.now();
            let Parsed::Ok { request, consumed } = proto::parse(&buf[pos..]) else {
                unreachable!("the generator emits whole, well-formed requests");
            };
            let t1 = tr.now();
            tr.span(SpanName::Parse, t0, t1, id);
            pos += consumed;
            match request {
                Request::Get { keys, .. } => {
                    let item = store.get(keys[0], now);
                    let t2 = tr.now();
                    if let Some(item) = item {
                        proto::encode_value(&mut out, keys[0], item.flags, &item.data, None);
                    }
                    proto::encode_end(&mut out);
                    let t3 = tr.now();
                    tr.span(SpanName::StoreOp, t1, t2, id);
                    tr.span(SpanName::Encode, t2, t3, id);
                }
                Request::Store {
                    verb,
                    key,
                    flags,
                    exptime,
                    data,
                    ..
                } => {
                    // Parse ahead: a burst of sets is one `store_many`.
                    let mut cmds = vec![StoreCmd {
                        verb,
                        key,
                        flags,
                        exptime,
                        data,
                    }];
                    loop {
                        let p0 = tr.now();
                        let Parsed::Ok {
                            request:
                                Request::Store {
                                    verb,
                                    key,
                                    flags,
                                    exptime,
                                    data,
                                    ..
                                },
                            consumed,
                        } = proto::parse(&buf[pos..])
                        else {
                            break;
                        };
                        tr.span(SpanName::Parse, p0, tr.now(), id);
                        pos += consumed;
                        cmds.push(StoreCmd {
                            verb,
                            key,
                            flags,
                            exptime,
                            data,
                        });
                    }
                    let s0 = tr.now();
                    store.store_many(&cmds, now, &mut outcomes);
                    let s1 = tr.now();
                    for o in &outcomes {
                        let stored = matches!(o, StoreOutcome::Stored { .. });
                        proto::encode_line(&mut out, if stored { "STORED" } else { "NOT_STORED" });
                    }
                    let s2 = tr.now();
                    tr.span(SpanName::StoreOp, s0, s1, id);
                    tr.span(SpanName::Encode, s1, s2, id);
                }
                _ => unreachable!("the generator emits gets and sets only"),
            }
        }
        let batch_end = Instant::now();
        busy_ns += (batch_end - batch_start).as_nanos() as u64;
        tr.span(
            SpanName::Batch,
            (batch_start - epoch).as_nanos() as u64,
            (batch_end - epoch).as_nanos() as u64,
            id,
        );

        // Check the encoded replies, outside every span.
        let mut at = 0;
        for e in &expects {
            match parse_reply(&out[at..], *e, g.value_len, &mut want) {
                Some((ok, used)) => {
                    failed += !ok as u64;
                    at += used;
                }
                None => failed += 1,
            }
        }
        done += n as u64;
    }
    (busy_ns as f64, done, failed)
}

/// The untraced and the traced replay of `spec`'s request stream.
pub fn replay(spec: &NetSpec, seed: u64) -> Replay {
    // The first pass in a process pays for growing the heap; the two
    // compared passes both run on a grown one.
    let (_, _, failed_warm) = replay_once(spec, seed, None);
    let (plain_ns, requests, failed_plain) = replay_once(spec, seed, None);
    let mut spans = Vec::with_capacity(5 * REPLAY_REQUESTS as usize);
    let (traced_ns, _, failed_traced) = replay_once(spec, seed, Some(&mut spans));
    Replay {
        requests,
        attempted: 3 * requests,
        failed: failed_warm + failed_plain + failed_traced,
        plain_ns,
        traced_ns,
        spans,
    }
}

/// One JSON object per line: `name`, `start_ns`, `end_ns`, `parent`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = BufWriter::new(file);
    let mut write = || -> std::io::Result<()> {
        for s in spans
            .iter()
            .filter(|s| s.name == SpanName::TableOp || s.parent < WRITTEN_REQUESTS)
        {
            writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}}}",
                s.name.as_str(),
                s.start_ns,
                s.end_ns,
                s.parent
            )?;
        }
        out.flush()
    };
    write().map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_less_children() {
        let span = |name, start_ns, end_ns| Span {
            name,
            start_ns,
            end_ns,
            parent: 0,
        };
        let spans = [
            span(SpanName::Parse, 10, 110),
            span(SpanName::StoreOp, 110, 410),
            span(SpanName::Encode, 410, 460),
            span(SpanName::Batch, 0, 500),
        ];
        let s = self_times(&spans, 20.0);
        assert_eq!((s.parse_ns, s.store_ns, s.encode_ns), (80.0, 280.0, 30.0));
        assert_eq!(s.batch_ns, 500.0 - 450.0);
    }

    #[test]
    fn replay_answers_every_request_correctly() {
        let spec = NetSpec {
            keys_per_conn: 4096,
            ..crate::netload::SPECS[0]
        };
        let (_, done, failed) = replay_once(&spec, 1, None);
        assert_eq!((done, failed), (REPLAY_REQUESTS, 0));
        let fill = NetSpec {
            keys_per_conn: 4096,
            ..crate::netload::SPECS[1]
        };
        let mut spans = Vec::new();
        let (_, done, failed) = replay_once(&fill, 1, Some(&mut spans));
        assert_eq!((done, failed), (8192, 0));
        assert!(spans.iter().filter(|s| s.name == SpanName::Parse).count() == 8192);
    }
}
