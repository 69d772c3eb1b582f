//! The repo's one benchmark. See README.md for the catalogue of
//! workloads and metrics, and ../BENCHMARK.json for the contract.
//!
//! ```text
//! perf --workload W --seed N --seconds S --trace 0|1    one cell, result as the last line
//! perf run [--seed N] [--workload W] [--seconds S] [--quick] [--out FILE]
//! perf trace [--seed N] [--workload W]                  per-layer and traced metrics only
//! perf check A.json B.json                              B against baseline A
//! ```

mod check;
mod child;
mod gen;
mod json;
mod libload;
mod netload;
mod probes;
mod run;
mod spec;
mod stats;
mod sys;
mod trace;
mod wire;

use json::Json;
use run::{Runner, Workload};
use spec::Spec;
use std::process::ExitCode;

struct Args {
    command: Option<String>,
    files: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        command: None,
        files: Vec::new(),
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                a.seconds = Some(value()?.parse().map_err(|_| "--seconds takes a number")?)
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--quick" => a.quick = true,
            "--out" => a.out = Some(value()?),
            flag if flag.starts_with('-') => return Err(format!("unknown option {flag}")),
            _ if a.command.is_none() => a.command = Some(arg),
            _ => a.files.push(arg),
        }
    }
    if a.seconds.is_some_and(|s| !s.is_finite() || s <= 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn workloads(spec: &Spec, only: Option<&str>) -> Result<Vec<Workload>, String> {
    let names: Vec<&str> = match only {
        Some(w) => vec![w],
        None => spec.workloads.iter().map(String::as_str).collect(),
    };
    names
        .into_iter()
        .map(|n| {
            Workload::by_name(n).ok_or_else(|| {
                format!("unknown workload {n}; one of {}", spec.workloads.join(", "))
            })
        })
        .collect()
}

/// The per-layer values in `BENCHMARK.json`'s order; a name on one side
/// only is a bug in this package.
fn in_spec_order(spec: &Spec, got: &[(&'static str, f64)]) -> Result<Vec<(String, f64)>, String> {
    if let Some((stray, _)) = got
        .iter()
        .find(|(n, _)| !spec.per_layer.iter().any(|m| m.name == *n))
    {
        return Err(format!("{stray} is measured but not in BENCHMARK.json"));
    }
    spec.per_layer
        .iter()
        .map(|m| {
            let v = got
                .iter()
                .find(|(n, _)| *n == m.name)
                .ok_or_else(|| format!("{} is not measured", m.name))?;
            Ok((m.name.clone(), v.1))
        })
        .collect()
}

/// Driver mode: one workload, one kind of metric, the result object as
/// the last line of standard output.
fn one_cell(spec: &Spec, a: &Args) -> Result<bool, String> {
    let name = a.workload.as_deref().ok_or("--workload is required")?;
    let wl = workloads(spec, Some(name))?[0];
    let mut runner = Runner::new(a.seed, a.seconds.unwrap_or(spec.run_seconds), a.quick);
    let (metrics, attempted, failed): (Vec<(String, f64)>, u64, u64) = if a.trace {
        let (m, attempted, failed) = runner.per_layer(wl)?;
        (in_spec_order(spec, &m)?, attempted, failed)
    } else {
        let cell = runner.end_to_end(wl)?;
        let m = cell
            .metrics
            .iter()
            .map(|(n, v)| (n.to_string(), stats::median(v)))
            .collect();
        (m, cell.attempted, cell.failed)
    };
    let metrics = metrics
        .into_iter()
        .map(|(n, v)| {
            let unit = Json::str(spec.unit(&n));
            (n, Json::obj(vec![("value", Json::Num(v)), ("unit", unit)]))
        })
        .collect();
    let result = Json::obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{result}");
    Ok(failed == 0)
}

/// `run` and `trace`: every workload, every metric printed by name with
/// its unit, and the result file.
fn run_all(spec: &Spec, a: &Args, end_to_end: bool) -> Result<bool, String> {
    let mut runner = Runner::new(a.seed, a.seconds.unwrap_or(spec.run_seconds), a.quick);
    let default_trace = ["net_read_zipf", "net_write_fill"];
    let wls: Vec<Workload> = workloads(spec, a.workload.as_deref())?
        .into_iter()
        .filter(|w| end_to_end || a.workload.is_some() || default_trace.contains(&w.name()))
        .collect();
    let mut header = sys::fingerprint().as_obj().to_vec();
    header.extend([
        ("seed".to_string(), Json::Num(a.seed as f64)),
        ("run_seconds".to_string(), Json::Num(runner.seconds)),
        ("quick".to_string(), Json::Bool(a.quick)),
    ]);
    println!("# {}", Json::Obj(header.clone()));
    let mut ok = true;

    let mut cells = Vec::new();
    for &wl in wls.iter().filter(|_| end_to_end) {
        let cell = runner.end_to_end(wl)?;
        println!(
            "\n{}: {} windows, {} latency samples, {} attempted, {} failed (fail_frac {})",
            wl.name(),
            cell.windows,
            cell.samples,
            cell.attempted,
            cell.failed,
            cell.failed as f64 / cell.attempted as f64
        );
        let mut pairs = vec![
            ("attempted".to_string(), Json::Num(cell.attempted as f64)),
            ("failed".to_string(), Json::Num(cell.failed as f64)),
            ("windows".to_string(), Json::Num(cell.windows as f64)),
            ("samples".to_string(), Json::Num(cell.samples as f64)),
        ];
        for (name, values) in &cell.metrics {
            let (q1, med, q3) = stats::quartiles(values);
            println!(
                "  {name:<16} {med:>14.5} {:<6} [q1 {q1:.5}, q3 {q3:.5}]",
                spec.unit(name)
            );
            pairs.push((
                name.to_string(),
                run::cell_metric_json(spec.unit(name), values),
            ));
        }
        ok &= cell.failed == 0;
        cells.push((wl.name().to_string(), Json::Obj(pairs)));
    }

    let mut layers = Vec::new();
    for &wl in &wls {
        let (m, attempted, failed) = runner.per_layer(wl)?;
        println!(
            "\n{} per layer: {attempted} attempted, {failed} failed",
            wl.name()
        );
        let m = in_spec_order(spec, &m)?;
        for (name, v) in &m {
            println!("  {name:<36} {v:>14.5} {}", spec.unit(name));
        }
        ok &= failed == 0;
        layers.push((
            wl.name().to_string(),
            Json::Obj(m.into_iter().map(|(n, v)| (n, Json::Num(v))).collect()),
        ));
    }

    let result = Json::obj(vec![
        ("header", Json::Obj(header)),
        ("end_to_end", Json::Obj(cells)),
        ("per_layer", Json::Obj(layers)),
    ]);
    let path = match &a.out {
        Some(p) => p.into(),
        None => run::results_dir()?.join(format!("run-seed{}.json", a.seed)),
    };
    std::fs::write(&path, format!("{result}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nresults: {} (traces beside it)", path.display());
    Ok(ok)
}

fn main() -> ExitCode {
    let spec = Spec::load();
    let outcome = parse_args().and_then(|a| {
        if a.command.as_deref() != Some("check") && sys::allowed_cpus().len() < 2 {
            return Err("the load shape is sized for 2 CPUs; this process is allowed fewer".to_string());
        }
        match (a.command.as_deref(), a.files.as_slice()) {
            (None, []) => one_cell(&spec, &a),
            (Some("run"), []) => run_all(&spec, &a, true),
            (Some("trace"), []) => run_all(&spec, &a, false),
            (Some("check"), [x, y]) => check::check(x, y),
            _ => Err("usage: perf [run|trace|check A.json B.json] [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]".into()),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}
