//! Runs workloads window by window and turns what the windows saw into
//! the metrics `BENCHMARK.json` names.

use crate::child::{build_cuckood, target_dir};
use crate::json::Json;
use crate::libload::{self, THREADS};
use crate::netload::{self, Drive, NetSpec};
use crate::stats::{percentile, quartiles};
use crate::trace::{self, Span};
use crate::{probes, spec, sys};
use std::path::PathBuf;
use std::time::Duration;

/// Discarded lead-in of every timed window.
pub const WARM: Duration = Duration::from_millis(300);
/// Windows a run reports the median of.
const WINDOWS: usize = 3;

/// What one window saw: fresh set-up, one measurement, checks.
#[derive(Default)]
pub struct Window {
    pub setup_s: f64,
    /// Measured time, and the verified operations completed in it.
    pub secs: f64,
    pub ops: u64,
    /// Every operation issued, measured or not, and those that failed.
    pub attempted: u64,
    pub failed: u64,
    /// Latency samples (see README.md for what one sample is).
    pub lat_ns: Vec<u32>,
    /// CPU time of the process under test over the measured time.
    pub cpu_user_us: f64,
    pub cpu_sys_us: f64,
    pub rss_mib: f64,
    /// What the counters of the program under test rose by over the
    /// measured time.
    pub scraped: Vec<(String, f64)>,
    pub late_frac: f64,
    /// Library workloads: summed duration and count of timed calls, and
    /// (traced) the first spans.
    pub span_sum_ns: f64,
    pub span_calls: u64,
    pub spans: Vec<Span>,
}

/// `STAT name value` lines as pairs; what is not numeric is skipped.
pub fn parse_stat_lines(text: &str) -> Vec<(String, f64)> {
    text.lines()
        .filter_map(|l| {
            let mut f = l.split_ascii_whitespace();
            match (f.next(), f.next(), f.next().and_then(|v| v.parse().ok())) {
                (Some("STAT"), Some(name), Some(v)) => Some((name.to_string(), v)),
                _ => None,
            }
        })
        .collect()
}

/// What the counters in `after` rose by since `before`, so that a
/// window's ratios are its own and not its set-up's.
pub fn counters_since(
    before: &[(String, f64)],
    mut after: Vec<(String, f64)>,
) -> Vec<(String, f64)> {
    for (name, v) in after.iter_mut() {
        *v -= before.iter().find(|(n, _)| n == name).map_or(0.0, |b| b.1);
    }
    after
}

#[derive(Clone, Copy)]
pub enum Workload {
    LibFill,
    LibRead,
    Net(&'static NetSpec),
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        match name {
            "lib_fill" => Some(Workload::LibFill),
            "lib_read" => Some(Workload::LibRead),
            _ => netload::SPECS
                .iter()
                .find(|s| s.name == name)
                .map(Workload::Net),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::LibFill => "lib_fill",
            Workload::LibRead => "lib_read",
            Workload::Net(s) => s.name,
        }
    }

    /// Whether a window is a fixed amount of work on a fresh table or
    /// server, rather than a fixed time.
    fn fixed_work(self) -> bool {
        matches!(
            self,
            Workload::LibFill
                | Workload::Net(NetSpec {
                    drive: Drive::ClosedFill(_),
                    ..
                })
        )
    }

    /// Threads of the program under test that serve operations.
    fn workers(self) -> f64 {
        match self {
            Workload::Net(_) => 1.0,
            _ => THREADS as f64,
        }
    }
}

/// Runs and holds what every run needs: the seed, the time to measure
/// for, and — built on first use — the server binary.
pub struct Runner {
    pub seed: u64,
    pub seconds: f64,
    /// One window of one second: a smoke test, not a measurement.
    pub quick: bool,
    bin: Option<PathBuf>,
    /// The layer probes do not depend on the workload: one pass serves
    /// every workload of a run.
    probes: Option<probes::Metrics>,
}

/// One workload's end-to-end metrics: per metric, one value per window.
pub struct Cell {
    pub attempted: u64,
    pub failed: u64,
    pub windows: usize,
    /// Latency samples behind `p50_us` and `p90_us`, over all windows.
    pub samples: usize,
    pub metrics: Vec<(&'static str, Vec<f64>)>,
}

impl Runner {
    pub fn new(seed: u64, seconds: f64, quick: bool) -> Runner {
        Runner {
            seed,
            seconds: if quick { 1.0 } else { seconds },
            quick,
            bin: None,
            probes: None,
        }
    }

    fn bin(&mut self) -> Result<PathBuf, String> {
        if self.bin.is_none() {
            self.bin = Some(build_cuckood()?);
        }
        Ok(self.bin.clone().expect("just built"))
    }

    fn window(&mut self, wl: Workload, dur: Duration, traced: bool) -> Result<Window, String> {
        match wl {
            Workload::LibFill => libload::fill_window(self.seed, traced),
            Workload::LibRead => libload::read_window(self.seed, dur, traced),
            Workload::Net(spec) => {
                let (bin, seed) = (self.bin()?, self.seed);
                sys::on_cpu(sys::cpu_of_thread(0), || {
                    netload::window(spec, &bin, seed, dur)
                })
            }
        }
    }

    fn window_time(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / if self.quick { 1.0 } else { WINDOWS as f64 })
    }

    /// Every end-to-end metric of `wl`, tracing off.
    pub fn end_to_end(&mut self, wl: Workload) -> Result<Cell, String> {
        let min_windows = if self.quick { 1 } else { WINDOWS };
        let dur = self.window_time();
        let mut cell = Cell {
            attempted: 0,
            failed: 0,
            windows: 0,
            samples: 0,
            metrics: spec::END_TO_END.iter().map(|&m| (m, Vec::new())).collect(),
        };
        let mut measured = 0.0;
        // Timed windows split the run between them; a fixed-work window
        // takes what it takes, so they repeat until the run's time is up.
        while cell.windows < min_windows || (wl.fixed_work() && measured < self.seconds) {
            let mut w = self.window(wl, dur, false)?;
            if w.ops == 0 || w.lat_ns.is_empty() {
                return Err(format!(
                    "{}: a window completed no verified operation",
                    wl.name()
                ));
            }
            w.lat_ns.sort_unstable();
            let ops = w.ops as f64;
            let values = [
                ("setup_s", w.setup_s),
                ("ops_s", ops / w.secs),
                ("p50_us", percentile(&w.lat_ns, 0.50) / 1e3),
                ("p90_us", percentile(&w.lat_ns, 0.90) / 1e3),
                ("cpu_us_per_op", (w.cpu_user_us + w.cpu_sys_us) / ops),
                ("rss_mib", w.rss_mib),
            ];
            // In the order of `spec::END_TO_END`.
            for ((name, per_window), (computed, v)) in cell.metrics.iter_mut().zip(values) {
                assert_eq!(*name, computed);
                per_window.push(v);
            }
            cell.attempted += w.attempted;
            cell.failed += w.failed;
            cell.windows += 1;
            cell.samples += w.lat_ns.len();
            measured += w.secs;
        }
        Ok(cell)
    }

    /// Every per-layer metric as seen from `wl`: the counters and ratios
    /// scraped from one untraced window, the traced attribution of the
    /// workload's time to layers, and the layer probes. Returns the
    /// metrics with the operations attempted and failed on the way.
    pub fn per_layer(&mut self, wl: Workload) -> Result<(probes::Metrics, u64, u64), String> {
        let dur = self.window_time();
        let bin = self.bin()?;
        let mut plain = self.window(wl, dur, false)?;
        if plain.ops == 0 || plain.lat_ns.is_empty() {
            return Err(format!(
                "{}: the window completed no verified operation",
                wl.name()
            ));
        }
        plain.lat_ns.sort_unstable();
        let (mut attempted, mut failed) = (plain.attempted, plain.failed);
        let ns_per_op = wl.workers() * 1e9 * plain.secs / plain.ops as f64;
        let stat = |name: &str| {
            plain
                .scraped
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |s| s.1)
        };
        let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
        let mut m = vec![
            (
                "server.cpu_sys_frac",
                ratio(plain.cpu_sys_us, plain.cpu_user_us + plain.cpu_sys_us),
            ),
            // The tail beyond the bounded `p90_us`: on this size of
            // machine single stalls of the host move it by whole factors
            // between runs, so it explains and does not gate.
            ("wire.p99_us", percentile(&plain.lat_ns, 0.99) / 1e3),
            ("gen.late_frac", plain.late_frac),
            (
                "conn.multiset_keys_per_batch",
                ratio(stat("multiset_keys"), stat("multiset_batches")),
            ),
            (
                "table.read_retries_per_mop",
                ratio(stat("cuckoo_read_retries_total"), plain.ops as f64 / 1e6),
            ),
            (
                "table.lock_contended_frac",
                ratio(
                    stat("cuckoo_lock_contended_total"),
                    stat("cuckoo_lock_acquisitions_total"),
                ),
            ),
            (
                "table.path_len_mean",
                ratio(
                    stat("cuckoo_bfs_path_len_sum"),
                    stat("cuckoo_bfs_path_len_count"),
                ),
            ),
            (
                "table.insert_batch_fallback_frac",
                ratio(
                    stat("cuckoo_insert_batch_fallbacks_total"),
                    stat("cuckoo_insert_batch_keys_total"),
                ),
            ),
            (
                "map.migration_chunks",
                stat("cuckoo_migration_chunks_total"),
            ),
            (
                "cache.hit_frac",
                ratio(stat("get_hits"), stat("get_hits") + stat("get_misses")),
            ),
            ("cache.evictions", stat("evictions")),
            ("persist.fsyncs", stat("cuckoo_persist_fsyncs_total")),
            (
                "persist.records_per_fsync",
                ratio(
                    stat("cuckoo_persist_log_records_total"),
                    stat("cuckoo_persist_fsyncs_total"),
                ),
            ),
        ];

        let clock_ns = trace::clock_cost_ns();
        let mut layers = trace::SelfTimes::default();
        let mut table_ns = 0.0;
        // What a worker spends per operation outside every traced layer:
        // sockets, the connection loop and waiting (server), or
        // generating, checking and reading the clock (library).
        let (spans, overhead, outside_ns) = match wl {
            Workload::Net(spec) => {
                let r = trace::replay(spec, self.seed);
                attempted += r.attempted;
                failed += r.failed;
                layers = trace::self_times(&r.spans, clock_ns);
                let mut in_layers = 0.0;
                for ns in [
                    &mut layers.batch_ns,
                    &mut layers.parse_ns,
                    &mut layers.store_ns,
                    &mut layers.encode_ns,
                ] {
                    *ns /= r.requests as f64;
                    in_layers += *ns;
                }
                (
                    r.spans,
                    r.traced_ns / r.plain_ns - 1.0,
                    ns_per_op - in_layers,
                )
            }
            _ => {
                let traced = self.window(wl, dur, true)?;
                attempted += traced.attempted;
                failed += traced.failed;
                table_ns = (traced.span_sum_ns / traced.span_calls as f64 - clock_ns).max(0.0);
                // Reading the clock around every call keeps successive
                // calls from overlapping in the pipeline, so spans sum to
                // more than an untraced operation takes: the remainder is
                // the traced window's own, and `trace.overhead_frac` says
                // how far the two windows are apart.
                let traced_ns_per_op = wl.workers() * 1e9 * traced.secs / traced.ops as f64;
                (
                    traced.spans,
                    traced_ns_per_op / ns_per_op - 1.0,
                    traced_ns_per_op - table_ns,
                )
            }
        };
        m.extend([
            ("trace.conn.batch.self_ns_per_op", layers.batch_ns),
            ("trace.proto.parse.self_ns_per_op", layers.parse_ns),
            ("trace.store.op.self_ns_per_op", layers.store_ns),
            ("trace.proto.encode.self_ns_per_op", layers.encode_ns),
            ("trace.table.op.self_ns_per_op", table_ns),
            ("trace.wire.ns_per_op", outside_ns),
            ("trace.overhead_frac", overhead),
        ]);
        let dir = results_dir()?;
        trace::write_jsonl(&dir.join(format!("trace-{}.jsonl", wl.name())), &spans)?;

        if self.probes.is_none() {
            self.probes = Some(probes::all(&bin)?);
        }
        m.extend(self.probes.iter().flatten());
        Ok((m, attempted, failed))
    }
}

/// Where result and trace files go: `perf/` in the target directory.
pub fn results_dir() -> Result<PathBuf, String> {
    let dir = target_dir()?.join("perf");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// A metric of a result file: the median over windows, with the
/// quartiles and every window's value so that its noise is on the page.
pub fn cell_metric_json(unit: &str, values: &[f64]) -> Json {
    let (q1, med, q3) = quartiles(values);
    Json::obj(vec![
        ("unit", Json::str(unit)),
        ("median", Json::Num(med)),
        ("q1", Json::Num(q1)),
        ("q3", Json::Num(q3)),
        (
            "values",
            Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_lines_parse_and_subtract() {
        let before = parse_stat_lines(
            "STAT get_hits 10\r\nSTAT engine clock-cuckoo\r\nSTAT evictions 1\r\nEND\r\n",
        );
        assert_eq!(
            before,
            [
                ("get_hits".to_string(), 10.0),
                ("evictions".to_string(), 1.0)
            ]
        );
        let after = parse_stat_lines("STAT get_hits 25\nSTAT evictions 1\nSTAT fresh 4\n");
        let rose: Vec<f64> = counters_since(&before, after)
            .into_iter()
            .map(|c| c.1)
            .collect();
        assert_eq!(rose, [15.0, 0.0, 4.0]);
    }
}
