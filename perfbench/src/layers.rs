//! Turns traced sweeps into the per-layer metrics.
//!
//! Totals (busy time, steps, glue lookups) are taken per sweep and reported
//! as the median over the run's sweeps; quantiles pool every call of the
//! run and are reported only where the percentile rule allows.

use std::collections::BTreeMap;

use crate::metrics::{per_layer, Metric, CASES};
use crate::replica::TracedSweep;
use crate::spans::{covered, median, quantile, self_times, Layer};

#[derive(Default)]
pub struct LayerProfile {
    /// Metric name → one value per pass (or per job, for serve metrics).
    per_sweep: BTreeMap<String, Vec<f64>>,
    /// Sample pool name → durations in nanoseconds.
    pooled: BTreeMap<String, Vec<u64>>,
    /// Additive figures of the pass in progress.
    pass: BTreeMap<String, f64>,
}

impl LayerProfile {
    /// Records one value of a metric.
    pub fn add_value(&mut self, name: &str, value: f64) {
        self.per_sweep
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    /// Adds to a figure of the pass in progress; a pass is one sweep, or
    /// every shard sweep of one sharded pass.
    pub fn add_to_pass(&mut self, name: &str, value: f64) {
        *self.pass.entry(name.to_string()).or_default() += value;
    }

    /// Adds samples to a pool that a quantile metric reads.
    pub fn add_samples(&mut self, pool: &str, samples: impl IntoIterator<Item = u64>) {
        self.pooled
            .entry(pool.to_string())
            .or_default()
            .extend(samples);
    }

    /// Folds one traced sweep into the pass in progress.  Fails unless
    /// the spans form a proper tree on at most `jobs` pool workers (see
    /// [`check_accounting`]).
    pub fn add_sweep(&mut self, sweep: &TracedSweep) -> Result<(), String> {
        let own = self_times(&sweep.spans);
        let mut busy: BTreeMap<(Layer, usize), u64> = BTreeMap::new();
        let mut batch_self = 0u64;
        let mut absorb = 0u64;
        for (span, &own) in sweep.spans.iter().zip(&own) {
            match span.layer {
                Layer::Sweep => {}
                Layer::Batch => {
                    batch_self += own;
                    self.add_samples("engine.batch", [span.duration()]);
                }
                Layer::Absorb => absorb += span.duration(),
                layer => {
                    let case = usize::from(span.case);
                    *busy.entry((layer, case)).or_default() += span.duration();
                    self.add_samples(
                        &format!("{}.{}", layer.label(), CASES[case]),
                        [span.duration()],
                    );
                }
            }
        }
        let idle = check_accounting(sweep, &own)?;

        let ms = |ns: u64| ns as f64 / 1e6;
        let busy_of = |layer: Layer, case: usize| busy.get(&(layer, case)).copied().unwrap_or(0);
        for (idx, case) in CASES.iter().enumerate() {
            for layer in [Layer::Gen, Layer::Typecheck, Layer::Compile, Layer::Model] {
                let total = busy_of(layer, idx);
                if total > 0 {
                    self.add_to_pass(&format!("{}.{case}.busy_ms", layer.label()), ms(total));
                }
            }
            let Some(report) = sweep.report.cases.iter().find(|r| r.case == *case) else {
                return Err(format!("the traced report has no {case} case"));
            };
            self.add_to_pass(
                &format!("convert.{case}.glue_hits"),
                report.glue_hits as f64,
            );
            self.add_to_pass(
                &format!("convert.{case}.glue_misses"),
                report.glue_misses as f64,
            );
            let vm = vm_prefix(case);
            self.add_to_pass(&format!("{vm}.run_ms"), ms(busy_of(Layer::Run, idx)));
            self.add_to_pass(&format!("{vm}.steps"), report.total_steps as f64);
            self.add_to_pass(
                &format!("{vm}.heap_allocs"),
                report.counters.heap_allocs as f64,
            );
        }
        let all_cases = |layer: Layer| (0..CASES.len()).map(|idx| busy_of(layer, idx)).sum::<u64>();
        self.add_to_pass("engine.render_ms", ms(all_cases(Layer::Render)));
        self.add_to_pass("engine.batch_self_ms", ms(batch_self));
        self.add_to_pass("engine.idle_ms", ms(idle));
        self.add_to_pass("report.absorb_ms", ms(absorb));
        Ok(())
    }

    /// Closes the pass in progress: its figures become one value each, and
    /// the ratios are taken from the pass totals.
    pub fn end_pass(&mut self) {
        let pass = std::mem::take(&mut self.pass);
        let get = |name: String| pass.get(&name).copied().unwrap_or(0.0);
        for case in CASES {
            let hits = get(format!("convert.{case}.glue_hits"));
            let lookups = hits + get(format!("convert.{case}.glue_misses"));
            if lookups > 0.0 {
                self.add_value(&format!("convert.{case}.hit_rate"), hits / lookups);
            }
            let vm = vm_prefix(case);
            let steps = get(format!("{vm}.steps"));
            if steps > 0.0 {
                let run_ns = get(format!("{vm}.run_ms")) * 1e6;
                self.add_value(&format!("{vm}.ns_per_step"), run_ns / steps);
            }
        }
        for (name, value) in pass {
            self.add_value(&name, value);
        }
    }

    /// Every per-layer metric, in table order.  A metric the workload does
    /// not exercise reads 0, and its note says so.
    pub fn finish(self) -> Vec<Metric> {
        per_layer()
            .into_iter()
            .map(|m| {
                let (value, note) = match &m.quantile {
                    Some((pool, percent)) => self.quantile_of(pool, *percent, m.unit),
                    None => match self.per_sweep.get(&m.name) {
                        Some(values) => (
                            median(values),
                            format!("(median of {} values)", values.len()),
                        ),
                        None => (0.0, "(not exercised by this workload)".to_string()),
                    },
                };
                Metric {
                    name: m.name,
                    value,
                    unit: m.unit,
                    note,
                }
            })
            .collect()
    }

    fn quantile_of(&self, pool: &str, percent: usize, unit: &str) -> (f64, String) {
        let mut samples = self.pooled.get(pool).cloned().unwrap_or_default();
        if samples.is_empty() {
            return (0.0, "(not exercised by this workload)".to_string());
        }
        samples.sort_unstable();
        match quantile(&samples, percent) {
            Some(q) => (
                q.value as f64 / ns_per(unit),
                format!("(p{percent} of n={}, {} beyond)", q.samples, q.beyond),
            ),
            None => (
                0.0,
                format!(
                    "(withheld: fewer than 10 of n={} samples beyond p{percent})",
                    samples.len()
                ),
            ),
        }
    }
}

/// Checks that a traced sweep's spans account for its workers' time, and
/// returns `engine.idle_ms` in nanoseconds: `jobs` × the sweep's wall
/// minus the summed batch spans.
///
/// Two things must hold.  Within each batch, the stage spans lie inside it
/// and do not overlap, so the self times of a batch and its stages add up
/// to the batch span.  And the batches ran on at most `jobs` pool workers,
/// none of which ran two at once, so the idle time summed per worker (the
/// sweep's wall minus the union of that worker's batch spans) equals the
/// idle time above.  Given both, the self times of all batch spans and
/// their stages plus `idle` come to exactly `jobs` × wall.
fn check_accounting(sweep: &TracedSweep, own: &[u64]) -> Result<u64, String> {
    let wall = sweep.wall_ns();
    let mut lanes: Vec<Vec<(u64, u64)>> = vec![Vec::new(); sweep.jobs];
    let mut batch_total = 0u64;
    let mut batch_tree_self = 0u64;
    for (span, &own) in sweep.spans.iter().zip(own) {
        match span.layer {
            Layer::Sweep | Layer::Absorb => continue,
            Layer::Batch => {
                batch_total += span.duration();
                let lane = lanes.get_mut(usize::from(span.worker)).ok_or_else(|| {
                    format!(
                        "a batch ran on pool worker {} of {}",
                        span.worker, sweep.jobs
                    )
                })?;
                lane.push((span.start_ns, span.end_ns));
            }
            _ => {}
        }
        batch_tree_self += own;
    }
    if batch_tree_self != batch_total {
        return Err(format!(
            "stage spans overlap or leave their batch: self times {batch_tree_self} ns, \
             batch spans {batch_total} ns"
        ));
    }
    let idle = (sweep.jobs as u64 * wall)
        .checked_sub(batch_total)
        .ok_or_else(|| {
            format!(
                "batch spans ({batch_total} ns) exceed {} workers × the sweep wall",
                sweep.jobs
            )
        })?;
    let lane_idle: u64 = lanes
        .iter_mut()
        .map(|lane| wall - covered(0, wall, lane))
        .sum();
    if lane_idle != idle {
        return Err(format!(
            "a pool worker ran overlapping batches: idle per worker {lane_idle} ns, \
             {} workers × wall − batch spans {idle} ns",
            sweep.jobs
        ));
    }
    Ok(idle)
}

/// Nanoseconds per unit of a quantile metric.
fn ns_per(unit: &str) -> f64 {
    match unit {
        "us" => 1e3,
        "ms" => 1e6,
        other => panic!("a quantile metric has the non-time unit {other:?}"),
    }
}

/// The run-stage metric prefix of a case study: its target machine.
fn vm_prefix(case: &str) -> String {
    if case == "sharedmem" {
        "stacklang".to_string()
    } else {
        format!("lcvm.{case}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::{Span, CALLER, NO_PARENT};
    use semint_core::stats::SweepReport;

    fn span(parent: u32, layer: Layer, worker: u8, start_ns: u64, end_ns: u64) -> Span {
        Span {
            parent,
            layer,
            case: 0,
            worker,
            start_ns,
            end_ns,
        }
    }

    fn sweep(spans: Vec<Span>) -> TracedSweep {
        TracedSweep {
            report: SweepReport::default(),
            spans,
            jobs: 2,
        }
    }

    /// sweep [0,100) ← batch [0,40) on worker 0 ← gen [0,10), run [20,35)
    ///               ← batch [45,90) on worker 0
    ///               ← batch [5,60) on worker 1
    ///               ← absorb [92,98) on the calling thread
    fn well_formed() -> Vec<Span> {
        vec![
            span(NO_PARENT, Layer::Sweep, CALLER, 0, 100),
            span(0, Layer::Absorb, CALLER, 92, 98),
            span(0, Layer::Batch, 0, 0, 40),
            span(2, Layer::Gen, 0, 0, 10),
            span(2, Layer::Run, 0, 20, 35),
            span(0, Layer::Batch, 0, 45, 90),
            span(0, Layer::Batch, 1, 5, 60),
        ]
    }

    fn accounting(spans: Vec<Span>) -> Result<u64, String> {
        let traced = sweep(spans);
        check_accounting(&traced, &self_times(&traced.spans))
    }

    #[test]
    fn idle_is_the_workers_time_outside_their_batches() {
        // 2 × 100 − (40 + 45 + 55): the absorb tail counts as idle.
        assert_eq!(accounting(well_formed()), Ok(60));
    }

    #[test]
    fn a_worker_running_two_batches_at_once_is_refused() {
        let mut spans = well_formed();
        spans[5].start_ns = 30;
        let err = accounting(spans).expect_err("overlapping batches on worker 0");
        assert!(err.contains("overlapping batches"), "{err}");
    }

    #[test]
    fn more_workers_than_jobs_are_refused() {
        let mut spans = well_formed();
        spans[6].worker = 2;
        let err = accounting(spans).expect_err("a third worker");
        assert!(err.contains("pool worker 2 of 2"), "{err}");
    }

    #[test]
    fn a_stage_outside_its_batch_is_refused() {
        let mut spans = well_formed();
        spans[4].end_ns = 44;
        let err = accounting(spans).expect_err("run leaves its batch");
        assert!(err.contains("leave their batch"), "{err}");
        let mut spans = well_formed();
        spans[4].start_ns = 5;
        assert!(accounting(spans).is_err(), "gen and run overlap");
    }

    #[test]
    fn every_declared_metric_is_produced_once() {
        let metrics = LayerProfile::default().finish();
        assert_eq!(metrics.len(), per_layer().len());
        assert!(metrics.iter().all(|m| m.value == 0.0));
    }
}
