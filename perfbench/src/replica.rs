//! The traced replica: a stage-by-stage copy of `engine::run_batch`,
//! scheduled like `sweep_all` through `engine::parallel_map`, that records
//! a span around every call it makes into a layer.
//!
//! The replica exists so spans can be taken from outside the program.  It
//! must do the same work as the engine and nothing else, in the same
//! places: pool tasks return their records, and the calling thread absorbs
//! them after the pool has finished.  Its report is compared against an
//! untraced `sweep_all` of the same seeds on every run: digests, steps,
//! boundaries, chars and every `VmCounters` field.

use std::thread::{self, ThreadId};
use std::time::Instant;

use semint_core::case::{CaseStudy, CheckFailure};
use semint_core::stats::{CaseReport, FailStage, FailureRecord, ScenarioRecord, SweepReport};
use semint_harness::engine::{parallel_map, SweepConfig};
use semint_harness::ScenarioSource;

use crate::spans::{Layer, Span, CALLER, NO_PARENT};

/// One traced sweep: its report, every span it recorded (span 0 is the
/// sweep itself), and the worker count the pool was asked to use.
pub struct TracedSweep {
    pub report: SweepReport,
    pub spans: Vec<Span>,
    pub jobs: usize,
}

impl TracedSweep {
    pub fn wall_ns(&self) -> u64 {
        self.spans[0].duration()
    }
}

/// What one pool task hands back: its records in seed order, as
/// `run_batch` returns them, its spans (local ids; the batch span is local
/// span 0), and the thread that ran it.
struct BatchOut {
    records: Vec<ScenarioRecord>,
    spans: Vec<Span>,
    thread: ThreadId,
}

/// Sweeps `cases` over `source` exactly as `sweep_all` does, with spans.
pub fn traced_sweep_all<C, S>(cases: &[C], source: &S, cfg: &SweepConfig) -> TracedSweep
where
    C: CaseStudy + Sync,
    S: ScenarioSource + ?Sized,
{
    assert!(cfg.batch >= 1, "batch size must be at least 1");
    assert!(
        source.pinned_profile().is_none(),
        "the replica sweeps preset profiles only"
    );
    let epoch = Instant::now();
    let glue_before: Vec<_> = cases.iter().map(|case| case.glue_cache_stats()).collect();
    let per_case_seeds: Vec<Vec<u64>> =
        cases.iter().map(|case| source.seeds(case.name())).collect();
    let tasks: Vec<(usize, &[u64])> = per_case_seeds
        .iter()
        .enumerate()
        .flat_map(|(idx, seeds)| seeds.chunks(cfg.batch).map(move |batch| (idx, batch)))
        .collect();
    let outs = parallel_map(&tasks, cfg.jobs, |&(idx, seeds)| {
        traced_batch(&cases[idx], idx, seeds, cfg, epoch)
    });

    // As in `sweep_all`, the records are absorbed serially on the calling
    // thread once the pool has returned.
    let absorb_start = elapsed_ns(epoch);
    let mut reports: Vec<CaseReport> = cases.iter().map(|c| CaseReport::new(c.name())).collect();
    for (&(idx, _), out) in tasks.iter().zip(&outs) {
        for record in &out.records {
            reports[idx].absorb(record);
        }
    }
    let absorb = Span {
        parent: 0,
        layer: Layer::Absorb,
        case: 0,
        worker: CALLER,
        start_ns: absorb_start,
        end_ns: elapsed_ns(epoch),
    };
    for ((case, report), before) in cases.iter().zip(&mut reports).zip(glue_before) {
        if let (Some(before), Some(after)) = (before, case.glue_cache_stats()) {
            let delta = after.since(&before);
            report.glue_hits = delta.hits;
            report.glue_misses = delta.misses;
        }
    }
    // The sweep ends here; flattening the spans is the tracer's own work.
    let sweep = Span {
        parent: NO_PARENT,
        layer: Layer::Sweep,
        case: 0,
        worker: CALLER,
        start_ns: 0,
        end_ns: elapsed_ns(epoch),
    };
    let mut threads: Vec<ThreadId> = Vec::new();
    let mut spans = Vec::with_capacity(2 + outs.iter().map(|out| out.spans.len()).sum::<usize>());
    spans.push(sweep);
    spans.push(absorb);
    for out in outs {
        // Pool workers are numbered in the order their first task appears.
        let worker = match threads.iter().position(|&t| t == out.thread) {
            Some(known) => known,
            None => {
                threads.push(out.thread);
                threads.len() - 1
            }
        };
        let base = spans.len() as u32;
        spans.extend(out.spans.into_iter().map(|mut span| {
            span.parent = if span.parent == NO_PARENT {
                0
            } else {
                base + span.parent
            };
            span.worker = u8::try_from(worker).expect("fewer than 255 pool workers");
            span
        }));
    }
    TracedSweep {
        report: SweepReport { cases: reports },
        spans,
        jobs: cfg.jobs.clamp(1, tasks.len().max(1)),
    }
}

fn elapsed_ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Records spans for one batch; local span 0 is the batch itself.
struct Recorder {
    epoch: Instant,
    case: u8,
    spans: Vec<Span>,
}

impl Recorder {
    fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let start_ns = elapsed_ns(self.epoch);
        let out = f();
        self.spans.push(Span {
            parent: 0,
            layer,
            case: self.case,
            worker: CALLER,
            start_ns,
            end_ns: elapsed_ns(self.epoch),
        });
        out
    }
}

/// A scenario that passed every pre-run stage, waiting for the batch run.
struct Ready {
    /// Its record's index in the batch's records.
    index: usize,
    witness: String,
    verdict: Result<(), CheckFailure>,
}

/// `engine::run_batch`, stage by stage: generate, render, typecheck,
/// compile and model-check each seed, run the batch's artifacts through one
/// `execute_batch` call, then fold the machine reports into the records.
/// Failures are recorded unshrunk: shrinking changes no digest field.
fn traced_batch<C: CaseStudy>(
    case: &C,
    case_idx: usize,
    seeds: &[u64],
    cfg: &SweepConfig,
    epoch: Instant,
) -> BatchOut {
    let mut rec = Recorder {
        epoch,
        case: case_idx as u8,
        spans: Vec::with_capacity(seeds.len() * 6 + 2),
    };
    rec.spans.push(Span {
        parent: NO_PARENT,
        layer: Layer::Batch,
        case: case_idx as u8,
        worker: CALLER,
        start_ns: elapsed_ns(epoch),
        end_ns: 0,
    });
    let mut records: Vec<ScenarioRecord> = Vec::with_capacity(seeds.len());
    let mut ready: Vec<Ready> = Vec::with_capacity(seeds.len());
    let mut artifacts = Vec::with_capacity(seeds.len());
    for &seed in seeds {
        let scenario = rec.time(Layer::Gen, || case.generate(seed, &cfg.profile));
        let (rendered, record) = rec.time(Layer::Render, || {
            let rendered = scenario.program.to_string();
            let record = ScenarioRecord {
                seed,
                ty: scenario.ty.to_string(),
                program_chars: rendered.chars().count(),
                boundaries: case.boundary_count(&scenario.program),
                stats: None,
                failure: None,
                timings: None,
            };
            (rendered, record)
        });
        let fail = |mut record: ScenarioRecord, stage: FailStage, reason: String| {
            record.failure = Some(unshrunk(seed, stage, reason, &rendered));
            record
        };
        match rec.time(Layer::Typecheck, || case.typecheck(&scenario.program)) {
            Ok(checked) if checked == scenario.ty => {}
            Ok(checked) => {
                let reason = format!("claimed {}, checked {}", scenario.ty, checked);
                records.push(fail(record, FailStage::Typecheck, reason));
                continue;
            }
            Err(err) => {
                records.push(fail(record, FailStage::Typecheck, err));
                continue;
            }
        }
        let compiled = match rec.time(Layer::Compile, || case.compile(&scenario.program)) {
            Ok(compiled) => compiled,
            Err(err) => {
                records.push(fail(record, FailStage::Compile, err));
                continue;
            }
        };
        let verdict = if cfg.model_check {
            rec.time(Layer::Model, || {
                case.model_check_compiled(&scenario.program, &scenario.ty, &compiled)
            })
        } else {
            Ok(())
        };
        artifacts.push(compiled);
        ready.push(Ready {
            index: records.len(),
            witness: rendered,
            verdict,
        });
        records.push(record);
    }
    let reports = rec.time(Layer::Run, || {
        case.execute_batch(artifacts, cfg.profile.fuel)
    });
    assert_eq!(
        reports.len(),
        ready.len(),
        "execute_batch must return one report per artifact"
    );
    // Folding the machine reports into the records is the batch's own
    // work, as in `run_batch`: it shows as the batch span's self time.
    for (ready, machine) in ready.into_iter().zip(&reports) {
        let record = &mut records[ready.index];
        let mut stats = case.stats(machine);
        // The engine stamps the static boundary count into the counters,
        // since compiled glue is ordinary target code.
        stats.counters.boundary_crossings = record.boundaries as u64;
        record.stats = Some(stats);
        if !stats.outcome.is_safe() {
            let reason = format!("unsafe outcome {}", stats.outcome);
            record.failure = Some(unshrunk(
                record.seed,
                FailStage::Run,
                reason,
                &ready.witness,
            ));
        } else if let Err(check) = ready.verdict {
            record.failure = Some(unshrunk(
                record.seed,
                FailStage::ModelCheck,
                check.to_string(),
                &ready.witness,
            ));
        }
    }
    drop(reports);
    let mut spans = rec.spans;
    spans[0].end_ns = elapsed_ns(epoch);
    BatchOut {
        records,
        spans,
        thread: thread::current().id(),
    }
}

fn unshrunk(seed: u64, stage: FailStage, reason: String, witness: &str) -> FailureRecord {
    FailureRecord {
        seed,
        stage,
        reason,
        witness: witness.to_string(),
        shrunk: witness.to_string(),
        shrink_steps: 0,
    }
}
