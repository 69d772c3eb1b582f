//! `perf check A.json B.json`: B against the baseline A, cell by cell,
//! under the bounds `BENCHMARK.json` fixes.

use crate::json::Json;
use crate::spec::Spec;

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// Either side's windows spread wider than the bound: the cell
    /// cannot show a change of that size.
    Unresolved,
}

/// `(q1, median, q3)` of one side.
type Quartiles = (f64, f64, f64);

pub fn verdict(a: Quartiles, b: Quartiles, lower_is_better: bool, bound: f64) -> Verdict {
    let spread = |(q1, med, q3): Quartiles| (q3 - q1) / med.abs();
    let worse_by = if lower_is_better {
        (b.1 - a.1) / a.1.abs()
    } else {
        (a.1 - b.1) / a.1.abs()
    };
    if spread(a) > bound || spread(b) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn quartiles_of(cell: &Json, metric: &str) -> Option<Quartiles> {
    let m = cell.get(metric)?;
    Some((
        m.get("q1")?.as_f64()?,
        m.get("median")?.as_f64()?,
        m.get("q3")?.as_f64()?,
    ))
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let j = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if j.get("header").and_then(|h| h.get("quick")) != Some(&Json::Bool(false)) {
        return Err(format!(
            "{path}: a --quick run is a smoke test, not a measurement"
        ));
    }
    Ok(j)
}

/// Prints one row per (metric, workload); `Ok(true)` when no cell is
/// worse.
pub fn check(path_a: &str, path_b: &str) -> Result<bool, String> {
    let spec = Spec::load();
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!(
        "{:<16} {:<14} {:>38} {:>38} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "bound"
    );
    let show = |(q1, med, q3): Quartiles| format!("{med:.5} [{q1:.5}, {q3:.5}]");
    let mut ok = true;
    for workload in &spec.workloads {
        let cell = |j: &Json| j.get("end_to_end").and_then(|e| e.get(workload)).cloned();
        let (Some(ca), Some(cb)) = (cell(&a), cell(&b)) else {
            println!("{workload:<16} missing from one side");
            ok = false;
            continue;
        };
        for m in &spec.end_to_end {
            let (Some(qa), Some(qb)) = (quartiles_of(&ca, &m.name), quartiles_of(&cb, &m.name))
            else {
                return Err(format!("{workload}/{}: missing from one side", m.name));
            };
            let bound = m.bound.expect("end-to-end metrics have bounds");
            let v = verdict(qa, qb, m.lower_is_better, bound);
            ok &= v != Verdict::Worse;
            println!(
                "{workload:<16} {:<14} {:>38} {:>38} {bound:>6}  {}",
                m.name,
                show(qa),
                show(qb),
                format!("{v:?}").to_lowercase()
            );
        }
        // Failures have no bound: none is allowed.
        let failed = |c: &Json| c.get("failed").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let (fa, fb) = (failed(&ca), failed(&cb));
        let v = if fb == 0.0 { "same" } else { "worse" };
        ok &= fb == 0.0;
        println!(
            "{workload:<16} {:<14} {fa:>38} {fb:>38} {:>6}  {v}",
            "failed", 0
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(x: f64) -> Quartiles {
        (x * 0.99, x, x * 1.01)
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        // Throughput: higher is better.
        assert_eq!(
            verdict(tight(100.0), tight(103.0), false, 0.05),
            Verdict::Same
        );
        assert_eq!(
            verdict(tight(100.0), tight(94.0), false, 0.05),
            Verdict::Worse
        );
        assert_eq!(
            verdict(tight(100.0), tight(106.0), false, 0.05),
            Verdict::Better
        );
        // Latency: lower is better.
        assert_eq!(
            verdict(tight(10.0), tight(11.5), true, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(tight(10.0), tight(8.5), true, 0.10),
            Verdict::Better
        );
        assert_eq!(verdict(tight(10.0), tight(10.9), true, 0.10), Verdict::Same);
    }

    #[test]
    fn a_wide_spread_resolves_nothing() {
        let wide = (80.0, 100.0, 120.0);
        assert_eq!(verdict(wide, tight(50.0), false, 0.05), Verdict::Unresolved);
        assert_eq!(
            verdict(tight(100.0), wide, false, 0.05),
            Verdict::Unresolved
        );
    }

    #[test]
    fn check_compares_files_and_refuses_quick_runs() {
        let tmp = crate::child::TempDir::new("check-test").unwrap();
        let dir = tmp.path();
        let spec = Spec::load();
        let file = |name: &str, scale: f64, quick: bool| {
            let cell = |_: &String| {
                let mut pairs = vec![("failed".to_string(), Json::Num(0.0))];
                for m in &spec.end_to_end {
                    // Scaling up is worse for a lower-is-better metric
                    // and scaling down for a higher-is-better one.
                    let v = if m.lower_is_better {
                        10.0 * scale
                    } else {
                        10.0 / scale
                    };
                    pairs.push((
                        m.name.clone(),
                        crate::run::cell_metric_json(&m.unit, &[v, v, v]),
                    ));
                }
                Json::Obj(pairs)
            };
            let cells = spec
                .workloads
                .iter()
                .map(|w| (w.clone(), cell(w)))
                .collect();
            let j = Json::obj(vec![
                ("header", Json::obj(vec![("quick", Json::Bool(quick))])),
                ("end_to_end", Json::Obj(cells)),
            ]);
            let path = dir.join(name);
            std::fs::write(&path, j.to_string()).unwrap();
            path.to_str().unwrap().to_string()
        };
        let (base, same, worse, quick) = (
            file("a.json", 1.0, false),
            file("b.json", 1.01, false),
            file("c.json", 1.5, false),
            file("q.json", 1.0, true),
        );
        assert_eq!(check(&base, &same), Ok(true));
        assert_eq!(check(&base, &worse), Ok(false));
        assert_eq!(check(&worse, &base), Ok(true), "better is not worse");
        assert!(check(&base, &quick).is_err());
    }
}
