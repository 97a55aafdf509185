//! The benchmark's metric catalogue and its one-line JSON result.
//!
//! Every workload reports every end-to-end metric (untraced run) or every
//! per-layer metric (traced run), so the names are defined once here and
//! mirrored in `BENCHMARK.json`.

/// End-to-end metrics: `(name, unit)`. What each means per workload is in
/// the README's table.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("aux_p50_ms", "ms"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("probdb.parse_us", "us"),
    ("probdb.plan_us", "us"),
    ("probdb.plan_cache_hit_ratio", "ratio"),
    ("probdb.exec_point_us", "us"),
    ("probdb.exact_ms", "ms"),
    ("probdb.worlds_ms", "ms"),
    ("probdb.synopsis_ms", "ms"),
    ("probdb.synopsis_fallback_ratio", "ratio"),
    ("probdb.register_ms", "ms"),
    ("storage.scan_ms", "ms"),
    ("storage.page_hit_ratio", "ratio"),
    ("storage.pages_read_per_query", "count"),
    ("storage.wal_commit_ms", "ms"),
    ("storage.checkpoint_ms", "ms"),
    ("models.infer_ms", "ms"),
    ("core.generate_ms", "ms"),
    ("core.sigma_hit_ratio", "ratio"),
    ("core.apply_ms", "ms"),
    ("core.view_maintain_ms", "ms"),
    ("ingest.tail_poll_ms", "ms"),
    ("ingest.tail_lag_ms", "ms"),
    ("ingest.rows_per_flush", "count"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.response_bytes", "bytes"),
    ("server.overhead_us", "us"),
    ("trace.p50_overhead_pct", "%"),
];

/// The result a run prints as its last line.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted (every request, build, append batch or check).
    pub attempted: u64,
    /// Operations that errored or returned a wrong answer.
    pub failed: u64,
    /// Extra correctness checks that did not hold.
    pub check_failures: Vec<String>,
    /// `(name, value, unit)` in catalogue order.
    pub metrics: Vec<(String, f64, String)>,
}

impl Report {
    /// Sets metric `name` from `catalogue`; panics on a name the catalogue
    /// does not define (a benchmark bug).
    pub fn set(
        &mut self,
        catalogue: &'static [(&'static str, &'static str)],
        name: &str,
        value: f64,
    ) {
        let (_, unit) = catalogue
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Catalogue names this report has not set.
    pub fn missing(&self, catalogue: &'static [(&'static str, &'static str)]) -> Vec<&'static str> {
        catalogue
            .iter()
            .filter(|(n, _)| !self.metrics.iter().any(|(m, _, _)| m == n))
            .map(|&(n, _)| n)
            .collect()
    }

    /// Whether every answer was right and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.check_failures.is_empty()
            && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    /// The one-line JSON object: `correct`, `attempted`, `failed`, and
    /// `metrics` as `{name: {value, unit}}`. A non-finite value (a bug) is
    /// written as 0 and makes `correct` false.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a valid metric name: starts with a letter or digit,
    /// at most 64 characters from `[A-Za-z0-9_.-]`.
    pub fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Whether `unit` is a valid unit: at most 16 characters from
    /// `[A-Za-z0-9_/%.-]`.
    pub fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} for {name}");
        }
        assert!(valid_name("a.b-c_9"));
        assert!(!valid_name(""));
        assert!(!valid_name(".leading_dot"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(!valid_unit("µs"));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let compact: String = spec.chars().filter(|c| !c.is_whitespace()).collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = compact.matches("\"name\":").count();
        // Workload names are declared with the same key.
        let workloads = crate::WORKLOADS.len();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len() + workloads);
    }

    #[test]
    fn json_line_has_exactly_the_four_keys() {
        let mut r = Report {
            attempted: 3,
            failed: 0,
            ..Report::default()
        };
        r.set(END_TO_END, "p50_ms", 1.25);
        let line = r.to_json();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        r.set(END_TO_END, "tail_ms", f64::NAN);
        assert!(!r.correct());
        assert_eq!(r.missing(END_TO_END).len(), END_TO_END.len() - 2);
    }
}
