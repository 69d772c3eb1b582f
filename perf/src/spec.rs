//! `BENCHMARK.json`, the one place metric names, units, directions and
//! regression bounds are fixed; compiled in so that every command reads
//! the same copy.

use crate::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The end-to-end metrics, in the order they are computed and printed.
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "ops_s",
    "p50_us",
    "p90_us",
    "cpu_us_per_op",
    "rss_mib",
];

pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the baseline's median a metric may worsen by; per-layer
    /// metrics have none.
    pub bound: Option<f64>,
}

pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn load() -> Spec {
        let j = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let text = |m: &Json, key: &str| {
            m.get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json: no {key}"))
                .to_string()
        };
        let metrics = |key: &str| -> Vec<MetricSpec> {
            j.get(key)
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|m| MetricSpec {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    lower_is_better: text(m, "better") == "lower",
                    bound: m.get("bound").and_then(Json::as_f64),
                })
                .collect()
        };
        Spec {
            run_seconds: j
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("BENCHMARK.json: run_seconds"),
            workloads: j
                .get("workloads")
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|w| text(w, "name"))
                .collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }

    pub fn unit(&self, name: &str) -> &str {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map_or("", |m| &m.unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Workload;

    #[test]
    fn benchmark_json_names_what_the_code_measures() {
        let spec = Spec::load();
        let names: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, END_TO_END);
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        for w in &spec.workloads {
            assert!(Workload::by_name(w).is_some(), "unknown workload {w}");
        }
        assert_eq!(spec.workloads.len(), 6);
    }
}
