//! E9: the unified scenario engine as a workload.
//!
//! Two questions: (a) what throughput does the parallel batch runner get out
//! of extra worker threads (the work-stealing pool should scale until the
//! per-scenario cost is dwarfed by queue traffic), and (b) how expensive are
//! harness-generated random programs to run, per case study, compared to the
//! hand-shaped E1–E8 workloads.

mod common;

use criterion::{criterion_main, BenchmarkId, Criterion};
use semint_bench::scenarios::{generated_programs, harness_sweep};
use semint_core::case::CaseStudy;
use semint_core::Fuel;
use semint_harness::cases::AnyCase;

fn bench_engine_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("E9_engine_throughput");
    for jobs in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("sweep_48_scenarios_run_only", jobs),
            &jobs,
            |b, &j| b.iter(|| harness_sweep(16, j, false)),
        );
        group.bench_with_input(
            BenchmarkId::new("sweep_48_scenarios_model_check", jobs),
            &jobs,
            |b, &j| b.iter(|| harness_sweep(16, j, true)),
        );
    }
    group.finish();
}

fn bench_generated_workloads(c: &mut Criterion) {
    let mut group = c.benchmark_group("E9_generated_workloads");
    for case in AnyCase::all(false) {
        let programs = generated_programs(&case, 0..24);
        group.bench_with_input(
            BenchmarkId::new("run_24_programs", case.name()),
            &programs,
            |b, ps| {
                b.iter(|| {
                    for p in ps {
                        let compiled = case.compile(p).expect("generated programs compile");
                        for report in case.execute_batch(vec![compiled], Fuel::steps(200_000)) {
                            assert!(case.stats(&report).outcome.is_safe());
                        }
                    }
                })
            },
        );
    }
    group.finish();
}

fn benches() {
    let mut c = common::criterion();
    bench_engine_throughput(&mut c);
    bench_generated_workloads(&mut c);
    c.final_summary();
}

criterion_main!(benches);
