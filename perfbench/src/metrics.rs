//! The benchmark's metric names, units and output.
//!
//! These tables are the one list of what the benchmark prints.  A run
//! refuses to print a result whose metric names differ from them, and a
//! test checks them against `BENCHMARK.json`, so the file and the output
//! cannot drift apart.

use std::fmt::Write as _;

/// The case studies, in `AnyCase::all` order.
pub const CASES: [&str; 3] = ["sharedmem", "affine", "memgc"];

/// End-to-end metrics: name, unit, and whether higher is better.
pub const END_TO_END: [(&str, &str, bool); 3] = [
    ("scenarios_per_s", "1/s", true),
    ("setup_s", "s", false),
    ("peak_rss_mb", "MB", false),
];

/// One entry of a per-layer metric table.
struct Entry {
    name: &'static str,
    unit: &'static str,
    higher: bool,
    /// For a quantile: its percentile, and the sample pool it reads when
    /// that is not the pool of the entry's group.
    quantile: Option<(usize, Option<&'static str>)>,
}

/// A figure taken per pass and reported as the median over the passes.
const fn total(name: &'static str, unit: &'static str, higher: bool) -> Entry {
    Entry {
        name,
        unit,
        higher,
        quantile: None,
    }
}

/// The `percent`-th percentile of the group's sample pool.
const fn pct(name: &'static str, unit: &'static str, percent: usize) -> Entry {
    Entry {
        name,
        unit,
        higher: false,
        quantile: Some((percent, None)),
    }
}

/// The `percent`-th percentile of the sample pool named `pool`.
const fn pct_of(
    name: &'static str,
    unit: &'static str,
    percent: usize,
    pool: &'static str,
) -> Entry {
    Entry {
        name,
        unit,
        higher: false,
        quantile: Some((percent, Some(pool))),
    }
}

/// Per-stage metrics reported for every case study.
const STAGE_METRICS: [Entry; 3] = [
    total("busy_ms", "ms", false),
    pct("p50_us", "us", 50),
    pct("p99_us", "us", 99),
];

const CONVERT_METRICS: [Entry; 3] = [
    total("glue_hits", "count", true),
    total("glue_misses", "count", false),
    total("hit_rate", "ratio", true),
];

const STACKLANG_METRICS: [Entry; 6] = [
    total("run_ms", "ms", false),
    total("steps", "count", false),
    total("ns_per_step", "ns/step", false),
    pct("batch_p50_us", "us", 50),
    pct("batch_p99_us", "us", 99),
    total("heap_allocs", "count", false),
];

const LCVM_METRICS: [Entry; 5] = [
    total("run_ms", "ms", false),
    total("steps", "count", false),
    total("ns_per_step", "ns/step", false),
    pct("batch_p99_us", "us", 99),
    total("heap_allocs", "count", false),
];

const ENGINE_METRICS: [Entry; 6] = [
    total("render_ms", "ms", false),
    total("batch_self_ms", "ms", false),
    total("idle_ms", "ms", false),
    pct("batch_p50_ms", "ms", 50),
    pct("batch_p99_ms", "ms", 99),
    total("tracing_overhead_pct", "%", false),
];

const REPORT_METRICS: [Entry; 3] = [
    total("absorb_ms", "ms", false),
    total("to_tsv_ms", "ms", false),
    total("from_tsv_ms", "ms", false),
];

const SERVE_METRICS: [Entry; 10] = [
    total("spawn_ms", "ms", false),
    total("submit_rtt_ms", "ms", false),
    pct_of("status_rtt_p50_ms", "ms", 50, "serve.status_rtt"),
    total("first_shard_ms", "ms", false),
    pct_of("shard_gap_p50_ms", "ms", 50, "serve.shard_gap"),
    total("shard_gap_max_ms", "ms", false),
    total("tail_ms", "ms", false),
    total("shard_retries", "count", false),
    total("state_bytes", "B/job", false),
    total("journal_lines", "lines/job", false),
];

/// A per-layer metric as the benchmark declares and computes it.
pub struct LayerMetric {
    pub name: String,
    pub unit: &'static str,
    /// Whether higher is better; the run does not need it, but the test
    /// that compares the tables with `BENCHMARK.json` does.
    #[allow(dead_code)]
    pub higher: bool,
    /// For a quantile: the sample pool it reads and its percentile.
    pub quantile: Option<(String, usize)>,
}

/// Every per-layer metric, in output order.
pub fn per_layer() -> Vec<LayerMetric> {
    let mut out = Vec::new();
    // `pool` names the sample pool the group's quantiles read.
    let mut add = |prefix: &str, pool: &str, table: &[Entry]| {
        for entry in table {
            out.push(LayerMetric {
                name: format!("{prefix}.{}", entry.name),
                unit: entry.unit,
                higher: entry.higher,
                quantile: entry
                    .quantile
                    .map(|(percent, own)| (own.unwrap_or(pool).to_string(), percent)),
            });
        }
    };
    for stage in ["gen", "typecheck", "compile"] {
        for case in CASES {
            let prefix = format!("{stage}.{case}");
            add(&prefix, &prefix, &STAGE_METRICS);
        }
    }
    for case in CASES {
        add(&format!("convert.{case}"), "", &CONVERT_METRICS);
    }
    for case in CASES {
        let prefix = format!("model.{case}");
        add(&prefix, &prefix, &STAGE_METRICS);
    }
    add("stacklang", "run.sharedmem", &STACKLANG_METRICS);
    for case in ["affine", "memgc"] {
        add(
            &format!("lcvm.{case}"),
            &format!("run.{case}"),
            &LCVM_METRICS,
        );
    }
    add("engine", "engine.batch", &ENGINE_METRICS);
    add("report", "", &REPORT_METRICS);
    add("serve", "", &SERVE_METRICS);
    out
}

/// Whether `name` is a valid metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let allowed = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(allowed)
}

/// Whether `unit` is a valid unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let allowed = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(allowed)
}

/// One measured value.  `note` says how it was measured (sample counts,
/// or why a quantile was withheld) and goes to the human-readable lines.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

/// A run's result: the correctness verdict, the scenario accounting, and
/// the metrics of the run's mode.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Checks the metric names against the table for `traced` mode.
    pub fn check_names(&self, traced: bool) -> Result<(), String> {
        let mut expected: Vec<(String, &str)> = if traced {
            per_layer().into_iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u, _)| (n.to_string(), u))
                .collect()
        };
        let mut printed: Vec<(String, &str)> = self
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit))
            .collect();
        expected.sort();
        printed.sort();
        if printed != expected {
            return Err(format!(
                "printed metrics {:?} differ from the declared table {:?}",
                names(&printed),
                names(&expected)
            ));
        }
        for m in &self.metrics {
            if !valid_name(&m.name) || !valid_unit(m.unit) {
                return Err(format!(
                    "metric {} [{}] has an invalid name or unit",
                    m.name, m.unit
                ));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {} is not a finite number", m.name));
            }
        }
        Ok(())
    }

    /// The human-readable lines followed by the one-line JSON result.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "failed_share {share} ratio ({} of {} scenarios failed or missing)",
            self.failed, self.attempted
        );
        for m in &self.metrics {
            let _ = writeln!(out, "{} {} {} {}", m.name, m.value, m.unit, m.note);
        }
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}\n");
        out
    }
}

fn names(list: &[(String, &str)]) -> Vec<String> {
    list.iter().map(|(n, u)| format!("{n} [{u}]")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    type Listing = (String, String, String);

    /// The name, unit and direction of each metric listed under `key` in
    /// BENCHMARK.json.
    fn listed(json: &str, key: &str) -> Vec<Listing> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let open = start + json[start..].find('[').expect("array opens");
        let close = open + json[open..].find(']').expect("array closes");
        let field = |entry: &str, field: &str| -> String {
            let at = entry.find(&format!("\"{field}\"")).expect("field present");
            let rest = &entry[at + field.len() + 2..];
            let rest = &rest[rest.find('"').expect("value opens") + 1..];
            rest[..rest.find('"').expect("value closes")].to_string()
        };
        let mut out: Vec<Listing> = json[open + 1..close]
            .split('}')
            .filter(|entry| entry.contains("\"name\""))
            .map(|entry| {
                (
                    field(entry, "name"),
                    field(entry, "unit"),
                    field(entry, "better"),
                )
            })
            .collect();
        out.sort();
        out
    }

    fn declared(table: impl IntoIterator<Item = (String, &'static str, bool)>) -> Vec<Listing> {
        let direction = |higher: bool| if higher { "higher" } else { "lower" };
        let mut out: Vec<Listing> = table
            .into_iter()
            .map(|(n, u, higher)| (n, u.to_string(), direction(higher).to_string()))
            .collect();
        out.sort();
        out
    }

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn every_listed_name_is_printed_and_every_printed_name_is_listed() {
        let end_to_end = END_TO_END.iter().map(|&(n, u, h)| (n.to_string(), u, h));
        assert_eq!(listed(BENCHMARK_JSON, "end_to_end"), declared(end_to_end));
        let per_layer = per_layer().into_iter().map(|m| (m.name, m.unit, m.higher));
        assert_eq!(listed(BENCHMARK_JSON, "per_layer"), declared(per_layer));
    }

    #[test]
    fn declared_names_and_units_are_valid_and_unique() {
        let mut all: Vec<String> = END_TO_END.iter().map(|&(n, ..)| n.to_string()).collect();
        all.extend(per_layer().into_iter().map(|m| m.name));
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let count = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), count, "a metric name is declared twice");
        assert!(count <= 3 + 128);
        for m in per_layer() {
            assert!(valid_unit(m.unit), "{}", m.unit);
            // Quantiles are taken from nanosecond samples.
            if m.quantile.is_some() {
                assert!(matches!(m.unit, "us" | "ms"), "{} [{}]", m.name, m.unit);
            }
        }
    }

    #[test]
    fn name_validation_follows_the_contract() {
        assert!(valid_name("gen.sharedmem.p99_us"));
        assert!(valid_name("9lives-ok"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("_x"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(valid_name(&"a".repeat(64)));
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("ns/step"));
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn a_result_with_a_stray_or_missing_metric_is_refused() {
        let metric = |name: &str, unit: &'static str| Metric {
            name: name.into(),
            value: 1.5,
            unit,
            note: String::new(),
        };
        let mut outcome = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: END_TO_END.iter().map(|&(n, u, _)| metric(n, u)).collect(),
        };
        assert!(outcome.check_names(false).is_ok());
        assert!(outcome.check_names(true).is_err());
        let json = outcome.render();
        let last = json.lines().last().expect("a result line");
        assert!(last.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(last.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        outcome.metrics.push(metric("stray", "s"));
        assert!(outcome.check_names(false).is_err());
        outcome.metrics.pop();
        outcome.metrics[0].value = f64::NAN;
        assert!(outcome.check_names(false).is_err());
    }
}
